//! Differential property tests: the word-parallel attention and
//! select-accumulate kernels must be bit-for-bit identical to the retained
//! scalar `*_reference` implementations, including on feature widths that
//! are not a multiple of 64.

use bishop_model::{
    select_accumulate, select_accumulate_reference, spike_matmul, spike_matmul_reference,
    SpikingSelfAttention,
};
use bishop_spiketensor::{DenseMatrix, SpikeTensor, TensorShape};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(shape: TensorShape, density: f64, seed: u64) -> SpikeTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    SpikeTensor::from_fn(shape, |_, _, _| rng.gen_bool(density))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn attention_scores_match_reference(
        t in 1usize..3,
        n in 1usize..10,
        d_index in 0usize..6,
        density in 0.0f64..0.7,
        seed in any::<u64>(),
    ) {
        const FEATURES: [usize; 6] = [1, 17, 63, 64, 65, 130];
        let shape = TensorShape::new(t, n, FEATURES[d_index % FEATURES.len()]);
        let q = random_tensor(shape, density, seed);
        let k = random_tensor(shape, (density + 0.2).min(1.0), seed ^ 0x5A5A);
        for ti in 0..shape.timesteps {
            let word = SpikingSelfAttention::attention_scores(&q, &k, ti);
            let scalar = SpikingSelfAttention::attention_scores_reference(&q, &k, ti);
            prop_assert_eq!(word, scalar);
        }
    }

    #[test]
    fn per_head_scores_match_reference_on_head_slices(
        n in 2usize..8,
        heads in 1usize..5,
        head_dim in 1usize..40,
        density in 0.05f64..0.6,
        seed in any::<u64>(),
    ) {
        // attention_scores_in on zero-copy sub-rows must equal the reference
        // run on materialised head_slice copies.
        let shape = TensorShape::new(2, n, heads * head_dim);
        let q = random_tensor(shape, density, seed);
        let k = random_tensor(shape, density, seed ^ 0xF00D);
        for h in 0..heads {
            let qh = q.head_slice(h, heads);
            let kh = k.head_slice(h, heads);
            for t in 0..shape.timesteps {
                let word = SpikingSelfAttention::attention_scores_in(
                    &q, &k, t, h * head_dim, (h + 1) * head_dim,
                );
                let scalar = SpikingSelfAttention::attention_scores_reference(&qh, &kh, t);
                prop_assert_eq!(word, scalar);
            }
        }
    }

    #[test]
    fn spike_matmul_matches_reference(
        t in 1usize..3,
        n in 1usize..8,
        d_index in 0usize..6,
        d_out in 1usize..20,
        density in 0.0f64..0.8,
        seed in any::<u64>(),
    ) {
        const FEATURES: [usize; 6] = [1, 17, 63, 64, 65, 130];
        let shape = TensorShape::new(t, n, FEATURES[d_index % FEATURES.len()]);
        let spikes = random_tensor(shape, density, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let weight = DenseMatrix::random_uniform(shape.features, d_out, 1.0, &mut rng);
        for ti in 0..shape.timesteps {
            let word = spike_matmul(&spikes, ti, &weight);
            let scalar = spike_matmul_reference(&spikes, ti, &weight);
            // Bit-for-bit: the word-parallel path accumulates the same
            // weights in the same order, so the floats are identical.
            prop_assert_eq!(word, scalar);
        }
    }

    #[test]
    fn select_accumulate_matches_reference(
        n in 1usize..8,
        d_index in 0usize..6,
        head_dim in 1usize..33,
        density in 0.0f64..0.8,
        scale_raw in -4.0f32..4.0,
        seed in any::<u64>(),
    ) {
        // The masked-add path of the dispatch table, driven through the SSA
        // S·V accumulation on a head column window [d0, d1) of a wider value
        // tensor — exactly the slice geometry the stepper uses.
        const FEATURES: [usize; 6] = [1, 17, 63, 64, 65, 130];
        let d_lo = FEATURES[d_index % FEATURES.len()];
        let features = d_lo.max(head_dim);
        let d0 = features - head_dim.min(features);
        let shape = TensorShape::new(1, n, features);
        let v = random_tensor(shape, density, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACC);
        let s = DenseMatrix::random_uniform(n, n, 1.0, &mut rng);
        let base = DenseMatrix::random_uniform(n, features, 1.0, &mut rng);
        let mut word = base.clone();
        let mut scalar = base.clone();
        select_accumulate(&mut word, &s, scale_raw, &v, 0, d0, features);
        select_accumulate_reference(&mut scalar, &s, scale_raw, &v, 0, d0, features);
        prop_assert_eq!(word, scalar);
    }
}
