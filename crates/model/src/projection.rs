//! Spiking linear (projection) layers.

use bishop_neuron::LifConfig;
use bishop_spiketensor::words::simd;
use bishop_spiketensor::{DenseMatrix, SpikeTensor};
use rand::Rng;

/// Multiplies the binary spike plane at timestep `t` (an `N × D_in` 0/1
/// matrix) with a dense `D_in × D_out` weight matrix.
///
/// Because the left operand is binary this is exactly the "select
/// accumulate" computation the Bishop dense core performs: for every active
/// spike `(n, d_in)` the weight row `W[d_in, :]` is accumulated into output
/// row `n`.
///
/// Word-parallel: each token's active input features are enumerated with the
/// `trailing_zeros` set-bit iterator over the packed feature row, so the work
/// is proportional to the number of spikes rather than `D_in`; the dense
/// weight-row accumulation runs on the active SIMD tier's element-wise
/// `add_assign` kernel (no reassociation, so still bit-for-bit identical to
/// [`spike_matmul_reference`]).
///
/// # Panics
///
/// Panics if the weight row count differs from the spike tensor's feature
/// count or `t` is out of range.
pub fn spike_matmul(spikes: &SpikeTensor, t: usize, weight: &DenseMatrix) -> DenseMatrix {
    let shape = spikes.shape();
    assert!(t < shape.timesteps, "timestep {t} out of range");
    assert_eq!(
        weight.rows(),
        shape.features,
        "weight rows ({}) must equal input features ({})",
        weight.rows(),
        shape.features
    );
    let kernels = simd::active();
    let mut out = DenseMatrix::zeros(shape.tokens, weight.cols());
    for n in 0..shape.tokens {
        for d_in in spikes.row_words(t, n).iter_set_bits() {
            kernels.add_assign(out.row_mut(n), weight.row(d_in));
        }
    }
    out
}

/// Scalar reference implementation of [`spike_matmul`], kept for
/// differential testing and the before/after kernel benchmarks.
pub fn spike_matmul_reference(spikes: &SpikeTensor, t: usize, weight: &DenseMatrix) -> DenseMatrix {
    let shape = spikes.shape();
    assert!(t < shape.timesteps, "timestep {t} out of range");
    assert_eq!(
        weight.rows(),
        shape.features,
        "weight rows ({}) must equal input features ({})",
        weight.rows(),
        shape.features
    );
    let mut out = DenseMatrix::zeros(shape.tokens, weight.cols());
    for n in 0..shape.tokens {
        for d_in in 0..shape.features {
            if spikes.get(t, n, d_in) {
                for d_out in 0..weight.cols() {
                    out.add_assign(n, d_out, weight.get(d_in, d_out));
                }
            }
        }
    }
    out
}

/// A spiking linear layer: binary input spikes × multi-bit weights, followed
/// by an LIF neuron layer that re-binarises the synaptic integration.
///
/// This models the MLP and Q/K/V/O projection layers of the spiking
/// transformer (§2.2 of the paper: complexity `O(T·N·D²)`).
///
/// ```
/// use bishop_model::{spike_matmul, SpikingLinear};
/// use bishop_neuron::{lif_over_time, LifConfig};
/// use bishop_spiketensor::{DenseMatrix, SpikeTensor, TensorShape};
///
/// let weight = DenseMatrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 0.1]]);
/// let layer = SpikingLinear::from_weight(weight, LifConfig::default());
/// let x = SpikeTensor::ones(TensorShape::new(1, 3, 2));
/// let y = lif_over_time(&[spike_matmul(&x, 0, layer.weight())], layer.lif_config());
/// // Feature 0 receives 2.0 > threshold and fires; feature 1 receives 0.1.
/// assert!(y.get(0, 0, 0));
/// assert!(!y.get(0, 0, 1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpikingLinear {
    weight: DenseMatrix,
    lif: LifConfig,
}

impl SpikingLinear {
    /// Creates a layer from an explicit weight matrix.
    pub fn from_weight(weight: DenseMatrix, lif: LifConfig) -> Self {
        Self { weight, lif }
    }

    /// Creates a layer with random uniform weights in `[-scale, scale]`.
    pub fn random<R: Rng>(
        in_features: usize,
        out_features: usize,
        scale: f32,
        lif: LifConfig,
        rng: &mut R,
    ) -> Self {
        Self {
            weight: DenseMatrix::random_uniform(in_features, out_features, scale, rng),
            lif,
        }
    }

    /// Input feature dimension.
    pub fn in_features(&self) -> usize {
        self.weight.rows()
    }

    /// Output feature dimension.
    pub fn out_features(&self) -> usize {
        self.weight.cols()
    }

    /// The layer's weight matrix.
    pub fn weight(&self) -> &DenseMatrix {
        &self.weight
    }

    /// The LIF configuration of the layer's neuron stage.
    pub fn lif_config(&self) -> LifConfig {
        self.lif
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_spiketensor::TensorShape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spike_matmul_accumulates_weight_rows_of_active_inputs() {
        let weight =
            DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]]);
        let mut x = SpikeTensor::zeros(TensorShape::new(1, 2, 3));
        x.set(0, 0, 0, true);
        x.set(0, 0, 2, true);
        x.set(0, 1, 1, true);
        let y = spike_matmul(&x, 0, &weight);
        assert_eq!(y.get(0, 0), 101.0);
        assert_eq!(y.get(0, 1), 202.0);
        assert_eq!(y.get(1, 0), 10.0);
        assert_eq!(y.get(1, 1), 20.0);
    }

    #[test]
    fn spike_matmul_of_empty_input_is_zero() {
        let weight = DenseMatrix::from_rows(&[vec![1.0], vec![1.0]]);
        let x = SpikeTensor::zeros(TensorShape::new(1, 4, 2));
        let y = spike_matmul(&x, 0, &weight);
        assert_eq!(y.sum(), 0.0);
    }

    #[test]
    fn spike_matmul_equals_dense_matmul_on_binary_input() {
        let mut rng = StdRng::seed_from_u64(9);
        let weight = DenseMatrix::random_uniform(6, 5, 1.0, &mut rng);
        let x = SpikeTensor::from_fn(TensorShape::new(2, 4, 6), |t, n, d| (t + n + d) % 3 == 0);
        for t in 0..2 {
            let dense_x = DenseMatrix::from_fn(4, 6, |n, d| if x.get(t, n, d) { 1.0 } else { 0.0 });
            let expected = dense_x.matmul(&weight);
            let got = spike_matmul(&x, t, &weight);
            assert!(expected.max_abs_diff(&got) < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "must equal input features")]
    fn spike_matmul_rejects_mismatched_weight() {
        let weight = DenseMatrix::zeros(3, 3);
        let x = SpikeTensor::zeros(TensorShape::new(1, 2, 2));
        spike_matmul(&x, 0, &weight);
    }
}
