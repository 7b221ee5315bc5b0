//! Multi-head Spiking Self-Attention (SSA), Eq. 3–8 of the paper.

use bishop_neuron::LifConfig;
use bishop_spiketensor::words::simd;
use bishop_spiketensor::{DenseMatrix, SpikeTensor, TensorShape};
use rand::Rng;

use crate::projection::SpikingLinear;

/// The SSA `S·V` select-accumulate for one head and one timestep:
/// `head_output[i, d0+d] += S[i, j]·scale` for every token pair `(i, j)`
/// with a non-zero scaled score and every set bit `d` of V's `(t, j)` head
/// sub-row.
///
/// The V sub-row's logical words are materialised once per `j` and each
/// destination row then takes one spike-masked SIMD `masked_add` — blend
/// semantics, so lanes whose V bit is clear keep their exact bit pattern and
/// the result stays bit-for-bit identical to
/// [`select_accumulate_reference`].
///
/// # Panics
///
/// Panics if `s` is not `tokens × tokens` or the feature range is out of
/// bounds for `v`.
pub fn select_accumulate(
    head_output: &mut DenseMatrix,
    s: &DenseMatrix,
    scale: f32,
    v: &SpikeTensor,
    t: usize,
    d0: usize,
    d1: usize,
) {
    let tokens = v.shape().tokens;
    assert_eq!(s.rows(), tokens, "score rows must equal token count");
    assert_eq!(s.cols(), tokens, "score cols must equal token count");
    let kernels = simd::active();
    let mut v_bits: Vec<u64> = Vec::with_capacity((d1 - d0).div_ceil(64));
    for j in 0..tokens {
        let v_row = v.row_feature_slice(t, j, d0, d1);
        v_bits.clear();
        v_bits.extend((0..v_row.word_count()).map(|i| v_row.word(i)));
        if v_bits.iter().all(|&w| w == 0) {
            continue;
        }
        for i in 0..tokens {
            let weight = s.get(i, j) * scale;
            if weight == 0.0 {
                continue;
            }
            kernels.masked_add(&mut head_output.row_mut(i)[d0..d1], &v_bits, weight);
        }
    }
}

/// Scalar reference implementation of [`select_accumulate`] (per-set-bit
/// accumulation), kept for differential testing of the spike-masked SIMD
/// kernel.
pub fn select_accumulate_reference(
    head_output: &mut DenseMatrix,
    s: &DenseMatrix,
    scale: f32,
    v: &SpikeTensor,
    t: usize,
    d0: usize,
    d1: usize,
) {
    let tokens = v.shape().tokens;
    assert_eq!(s.rows(), tokens, "score rows must equal token count");
    assert_eq!(s.cols(), tokens, "score cols must equal token count");
    for j in 0..tokens {
        let v_row = v.row_feature_slice(t, j, d0, d1);
        if v_row.count_ones() == 0 {
            continue;
        }
        for i in 0..tokens {
            let weight = s.get(i, j) * scale;
            if weight == 0.0 {
                continue;
            }
            for d in v_row.iter_set_bits() {
                head_output.add_assign(i, d0 + d, weight);
            }
        }
    }
}

/// A multi-head spiking self-attention block.
///
/// The computation follows Eq. 3–8: Q/K/V are produced by spiking linear
/// layers; per head and per timestep the integer score matrix `S = Q·Kᵀ` is
/// computed from binary operands (AND + accumulate in hardware), scaled by a
/// power of two, multiplied with the binary `V` (select + accumulate), the
/// head outputs are concatenated and passed through an LIF layer *before*
/// the final projection `W_O` (the re-ordering relative to Spikformer that
/// keeps the final projection multiplication-free).
#[derive(Debug, Clone, PartialEq)]
pub struct SpikingSelfAttention {
    heads: usize,
    scale_shift: u32,
    wq: SpikingLinear,
    wk: SpikingLinear,
    wv: SpikingLinear,
    wo: SpikingLinear,
}

impl SpikingSelfAttention {
    /// Creates an SSA block with random weights.
    ///
    /// # Panics
    ///
    /// Panics if `heads` does not divide `features`.
    pub fn random<R: Rng>(
        features: usize,
        heads: usize,
        scale_shift: u32,
        lif: LifConfig,
        rng: &mut R,
    ) -> Self {
        assert!(
            heads > 0 && features.is_multiple_of(heads),
            "heads must divide features"
        );
        let scale = 1.0 / (features as f32).sqrt();
        Self {
            heads,
            scale_shift,
            wq: SpikingLinear::random(features, features, scale, lif, rng),
            wk: SpikingLinear::random(features, features, scale, lif, rng),
            wv: SpikingLinear::random(features, features, scale, lif, rng),
            wo: SpikingLinear::random(features, features, scale, lif, rng),
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The power-of-two scaling exponent applied to attention scores.
    pub fn scale_shift(&self) -> u32 {
        self.scale_shift
    }

    /// The Q projection layer.
    pub fn wq(&self) -> &SpikingLinear {
        &self.wq
    }

    /// The K projection layer.
    pub fn wk(&self) -> &SpikingLinear {
        &self.wk
    }

    /// The V projection layer.
    pub fn wv(&self) -> &SpikingLinear {
        &self.wv
    }

    /// The output projection layer.
    pub fn wo(&self) -> &SpikingLinear {
        &self.wo
    }

    /// Computes the integer attention scores `S = Q·Kᵀ` for one head and one
    /// timestep from binary operands.
    ///
    /// Word-parallel: each score is an AND + popcount over the packed
    /// feature-row words of the Q and K tokens (~64 feature positions per
    /// instruction). Bit-for-bit identical to
    /// [`SpikingSelfAttention::attention_scores_reference`].
    pub fn attention_scores(q: &SpikeTensor, k: &SpikeTensor, t: usize) -> DenseMatrix {
        assert_eq!(q.shape(), k.shape(), "Q and K must have identical shapes");
        let shape = q.shape();
        Self::attention_scores_in(q, k, t, 0, shape.features)
    }

    /// Word-parallel attention scores restricted to the feature range
    /// `d_start..d_end` (one head's features), without materialising head
    /// slices: operand rows are zero-copy [`bishop_spiketensor::RowBits`]
    /// sub-row views.
    pub fn attention_scores_in(
        q: &SpikeTensor,
        k: &SpikeTensor,
        t: usize,
        d_start: usize,
        d_end: usize,
    ) -> DenseMatrix {
        assert_eq!(q.shape(), k.shape(), "Q and K must have identical shapes");
        let tokens = q.shape().tokens;
        let q_rows: Vec<_> = (0..tokens)
            .map(|i| q.row_feature_slice(t, i, d_start, d_end))
            .collect();
        let k_rows: Vec<_> = (0..tokens)
            .map(|j| k.row_feature_slice(t, j, d_start, d_end))
            .collect();
        let mut s = DenseMatrix::zeros(tokens, tokens);

        // Word-aligned feature range (the whole-tensor case whenever
        // `D % 64 == 0`): every row pairs with every other row, so hoist
        // the logical-word assembly and the dispatch-table lookup out of
        // the `tokens²` pair loop and AND+popcount the raw packed words.
        let q_aligned: Option<Vec<&[u64]>> = q_rows.iter().map(|r| r.aligned_words()).collect();
        let k_aligned: Option<Vec<&[u64]>> = k_rows.iter().map(|r| r.aligned_words()).collect();
        if let (Some(q_words), Some(k_words)) = (q_aligned, k_aligned) {
            let kernels = simd::active();
            let long = (d_end - d_start) / 64 >= simd::DISPATCH_MIN_WORDS;
            for (i, qi) in q_words.iter().enumerate() {
                let out_row = s.row_mut(i);
                for (j, kj) in k_words.iter().enumerate() {
                    let overlap = if long {
                        kernels.and_popcount(qi, kj) as u32
                    } else {
                        qi.iter()
                            .zip(kj.iter())
                            .map(|(a, b)| (a & b).count_ones())
                            .sum()
                    };
                    if overlap > 0 {
                        out_row[j] = overlap as f32;
                    }
                }
            }
            return s;
        }

        for (i, q_row) in q_rows.iter().enumerate() {
            let out_row = s.row_mut(i);
            for (j, k_row) in k_rows.iter().enumerate() {
                let overlap = q_row.dot(k_row);
                if overlap > 0 {
                    out_row[j] = overlap as f32;
                }
            }
        }
        s
    }

    /// Scalar reference implementation of
    /// [`SpikingSelfAttention::attention_scores`], kept for differential
    /// testing and the before/after kernel benchmarks.
    pub fn attention_scores_reference(q: &SpikeTensor, k: &SpikeTensor, t: usize) -> DenseMatrix {
        assert_eq!(q.shape(), k.shape(), "Q and K must have identical shapes");
        let shape = q.shape();
        let mut s = DenseMatrix::zeros(shape.tokens, shape.tokens);
        for i in 0..shape.tokens {
            for j in 0..shape.tokens {
                let mut acc = 0.0;
                for d in 0..shape.features {
                    // Binary AND of q[i,d] and k[j,d], accumulated.
                    if q.get(t, i, d) && k.get(t, j, d) {
                        acc += 1.0;
                    }
                }
                s.set(i, j, acc);
            }
        }
        s
    }

    /// Shape of the activations this block expects, given a token count and
    /// timestep count.
    pub fn expected_shape(&self, timesteps: usize, tokens: usize) -> TensorShape {
        TensorShape::new(timesteps, tokens, self.wq.in_features())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block(features: usize, heads: usize) -> SpikingSelfAttention {
        let mut rng = StdRng::seed_from_u64(5);
        SpikingSelfAttention::random(features, heads, 2, LifConfig::default(), &mut rng)
    }

    #[test]
    fn attention_scores_count_common_active_features() {
        let shape = TensorShape::new(1, 2, 4);
        let q = SpikeTensor::from_fn(shape, |_, n, d| n == 0 && d < 3);
        let k = SpikeTensor::from_fn(shape, |_, n, d| n == 1 && d >= 1);
        let s = SpikingSelfAttention::attention_scores(&q, &k, 0);
        // q token 0 active on {0,1,2}; k token 1 active on {1,2,3} -> overlap 2.
        assert_eq!(s.get(0, 1), 2.0);
        assert_eq!(s.get(0, 0), 0.0);
        assert_eq!(s.get(1, 0), 0.0);
        assert_eq!(s.get(1, 1), 0.0);
    }

    #[test]
    fn scores_are_bounded_by_head_features() {
        // Q and K are binary, so no per-head score can exceed the head's
        // feature count (the property ECP's error bound builds on).
        let x = SpikeTensor::ones(TensorShape::new(2, 6, 16));
        for h in 0..4 {
            let s = SpikingSelfAttention::attention_scores_in(&x, &x, 1, 4 * h, 4 * h + 4);
            assert!(s.as_slice().iter().all(|&score| score == 4.0));
        }
    }

    #[test]
    fn expected_shape_uses_projection_width() {
        let ssa = block(8, 2);
        assert_eq!(ssa.expected_shape(4, 10), TensorShape::new(4, 10, 8));
        assert_eq!(ssa.heads(), 2);
        assert_eq!(ssa.scale_shift(), 2);
    }

    #[test]
    #[should_panic(expected = "heads must divide features")]
    fn heads_must_divide_features() {
        let mut rng = StdRng::seed_from_u64(1);
        SpikingSelfAttention::random(10, 3, 1, LifConfig::default(), &mut rng);
    }
}
