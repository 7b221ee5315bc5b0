//! The model's one forward pass, the window stepper, is invariant to how
//! the timestep axis is cut: any window width and any export/resume split
//! give bit-identical logits and LIF state, equal to an oracle assembled
//! from the scalar `*_reference` kernels and `lif_over_time` in whole-tensor
//! layer order. Also pins the layer behaviours the stepper inherits (zero
//! input, residual OR, MLP width, saturation).

use bishop::model::{
    select_accumulate_reference, spike_matmul_reference, LayerKind, LayerWorkload, ModelState,
    Readout, SpikingLinear, SpikingSelfAttention, TransformerStepper,
};
use bishop::neuron::lif_over_time;
use bishop::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Per-head widths that make no feature width a multiple of 64.
const HEAD_DIMS: [usize; 4] = [5, 13, 36, 43];

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A random model of `blocks` blocks and `heads` heads over a ragged token
/// count, with its patch input.
fn model_and_patches(
    blocks: usize,
    heads: usize,
    head_dim: usize,
    tokens: usize,
    timesteps: usize,
    seed: u64,
) -> (SpikingTransformer, DenseMatrix) {
    let features = heads * head_dim;
    let config = ModelConfig::new(
        "window",
        DatasetKind::Cifar10,
        blocks,
        timesteps,
        tokens,
        features,
        heads,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let model = SpikingTransformer::random(&config, 11, 10, &mut rng);
    let patches = DenseMatrix::random_uniform(tokens, 11, 1.5, &mut rng);
    (model, patches)
}

/// `X[t]·W` per timestep on the scalar kernel, then the layer's LIF.
fn linear_reference(layer: &SpikingLinear, x: &SpikeTensor) -> SpikeTensor {
    let integration: Vec<DenseMatrix> = (0..x.shape().timesteps)
        .map(|t| spike_matmul_reference(x, t, layer.weight()))
        .collect();
    lif_over_time(&integration, layer.lif_config())
}

/// The whole-tensor forward pass on the scalar reference kernels: returns
/// the logits and, per block, the tensors the workload recorder keeps
/// (block input, Q, K, V, `O_temp`, MLP input, MLP hidden).
fn oracle(model: &SpikingTransformer, patches: &DenseMatrix) -> (Vec<f32>, Vec<SpikeTensor>) {
    let config = model.config();
    let tokenizer = model.tokenizer();
    let charge = patches.matmul(tokenizer.weight());
    let mut x = lif_over_time(&vec![charge; config.timesteps], tokenizer.lif_config());
    let mut trace = Vec::new();
    for block in model.blocks() {
        let (ssa, mlp) = (block.ssa(), block.mlp());
        let q = linear_reference(ssa.wq(), &x);
        let k = linear_reference(ssa.wk(), &x);
        let v = linear_reference(ssa.wv(), &x);
        let heads = ssa.heads();
        let head_dim = config.features / heads;
        let scale = 2.0_f32.powi(-(ssa.scale_shift() as i32));
        let planes: Vec<DenseMatrix> = (0..config.timesteps)
            .map(|t| {
                let mut head_output = DenseMatrix::zeros(config.tokens, config.features);
                for h in 0..heads {
                    let s = SpikingSelfAttention::attention_scores_reference(
                        &q.head_slice(h, heads),
                        &k.head_slice(h, heads),
                        t,
                    );
                    let (d0, d1) = (h * head_dim, (h + 1) * head_dim);
                    select_accumulate_reference(&mut head_output, &s, scale, &v, t, d0, d1);
                }
                head_output
            })
            .collect();
        let o_temp = lif_over_time(&planes, ssa.wq().lif_config());
        let mlp_input = x.or(&linear_reference(ssa.wo(), &o_temp)).unwrap();
        let hidden = linear_reference(mlp.fc1(), &mlp_input);
        let output = mlp_input.or(&linear_reference(mlp.fc2(), &hidden)).unwrap();
        trace.extend([x, q, k, v, o_temp, mlp_input, hidden]);
        x = output;
    }
    let pooled = SpikingTransformer::pool(&x);
    let logits = DenseMatrix::from_rows(&[pooled])
        .matmul(model.classifier())
        .row(0)
        .to_vec();
    (logits, trace)
}

/// The captured workload's tensors in the oracle's trace order.
fn captured_trace(workload: &ModelWorkload) -> Vec<SpikeTensor> {
    workload
        .layers()
        .iter()
        .flat_map(|layer| match layer {
            LayerWorkload::Projection(p) => vec![p.input.clone()],
            LayerWorkload::Attention(a) => vec![a.q.clone(), a.k.clone(), a.v.clone()],
        })
        .collect()
}

/// Advances `stepper` to `end` timesteps in windows of at most `window`.
fn advance_to(stepper: &mut TransformerStepper<'_>, window: usize, end: usize) {
    while stepper.timesteps_done() < end {
        stepper.advance(window.min(end - stepper.timesteps_done()));
    }
}

/// Runs `window`-wide windows to `split`, parks, resumes, and runs the rest.
fn split_run(
    model: &SpikingTransformer,
    patches: &DenseMatrix,
    window: usize,
    split: usize,
) -> (Readout, ModelState) {
    let timesteps = model.config().timesteps;
    let mut first = TransformerStepper::new(model, patches);
    advance_to(&mut first, window, split);
    let mut second =
        TransformerStepper::resume(model, patches, first.export()).expect("own state fits");
    advance_to(&mut second, window, timesteps);
    (second.finish(), second.export())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn every_window_and_split_matches_the_reference_oracle(
        blocks in 2usize..4,
        heads in 2usize..4,
        head_index in 0usize..4,
        tokens in 3usize..14,
        timesteps in 3usize..7,
        seed in any::<u64>(),
    ) {
        let head_dim = HEAD_DIMS[head_index];
        let (model, patches) = model_and_patches(blocks, heads, head_dim, tokens, timesteps, seed);
        let (oracle_logits, oracle_trace) = oracle(&model, &patches);

        let readout = model.infer(&patches);
        prop_assert_eq!(bits(&readout.logits), bits(&oracle_logits));
        prop_assert_eq!(captured_trace(&model.capture(&patches)), oracle_trace);

        let mut whole = TransformerStepper::new(&model, &patches);
        whole.advance(timesteps);
        let state = whole.export();

        let bst = BundleShape::default().timesteps;
        for window in [1, 2, bst, timesteps] {
            for split in 0..=timesteps {
                let (split_readout, split_state) = split_run(&model, &patches, window, split);
                prop_assert_eq!(bits(&split_readout.logits), bits(&oracle_logits));
                prop_assert_eq!(split_readout.prediction, readout.prediction);
                prop_assert_eq!(&split_state, &state);
            }
        }
    }
}

#[test]
fn zero_input_gives_zero_output() {
    let (model, _) = model_and_patches(2, 2, 13, 7, 4, 1);
    let patches = DenseMatrix::zeros(7, 11);
    let mut stepper = TransformerStepper::new(&model, &patches);
    for outcome in stepper.advance(4) {
        assert_eq!(outcome.spikes, 0, "timestep {}", outcome.timestep);
    }
    assert!(stepper.finish().logits.iter().all(|&logit| logit == 0.0));
    for tensor in captured_trace(&model.capture(&patches)) {
        assert_eq!(tensor.count_ones(), 0);
    }
}

#[test]
fn residual_or_never_loses_an_input_spike() {
    let (model, patches) = model_and_patches(3, 2, 36, 9, 5, 2);
    let trace = captured_trace(&model.capture(&patches));
    // Per block: input ⊆ MLP input ⊆ next block's input.
    let chain: Vec<&SpikeTensor> = trace
        .chunks(7)
        .flat_map(|block| [&block[0], &block[5]])
        .collect();
    assert!(chain[0].count_ones() > 0, "the input must carry spikes");
    for pair in chain.windows(2) {
        assert_eq!(&pair[0].and(pair[1]).unwrap(), pair[0], "a spike was lost");
    }
    // The last block's output keeps its MLP input's spikes at every step.
    let last_mlp_input = chain[chain.len() - 1];
    let mut stepper = TransformerStepper::new(&model, &patches);
    for (outcome, kept) in stepper
        .advance(5)
        .iter()
        .zip(last_mlp_input.per_timestep_counts())
    {
        assert!(outcome.spikes >= kept, "timestep {}", outcome.timestep);
    }
}

#[test]
fn mlp_hidden_width_is_ratio_times_features() {
    let config = ModelConfig::new("ratio", DatasetKind::Cifar10, 2, 3, 5, 26, 2).with_mlp_ratio(3);
    let mut rng = StdRng::seed_from_u64(3);
    let model = SpikingTransformer::random(&config, 11, 10, &mut rng);
    let patches = DenseMatrix::random_uniform(5, 11, 1.5, &mut rng);
    for layer in model.capture(&patches).projection_layers() {
        let expected_in = if layer.kind == LayerKind::MlpFc2 {
            3 * 26
        } else {
            26
        };
        assert_eq!(layer.input_features(), expected_in, "{}", layer.label);
        if layer.kind == LayerKind::MlpFc1 {
            assert_eq!(layer.output_features, 3 * 26);
        }
    }
    let state = TransformerStepper::new(&model, &patches).export();
    assert!(state
        .blocks
        .iter()
        .all(|block| block.fc1.len() == 5 * 3 * 26));
}

/// An RNG stuck at its largest output: every uniform weight lands on the
/// top of its range, so all weights are positive.
struct Saturating;

impl RngCore for Saturating {
    fn next_u64(&mut self) -> u64 {
        u64::MAX
    }
}

#[test]
fn saturating_weights_fire_everything() {
    let config = ModelConfig::new("saturated", DatasetKind::Cifar10, 2, 3, 5, 12, 2);
    let model = SpikingTransformer::random(&config, 12, 10, &mut Saturating);
    let patches = DenseMatrix::from_fn(5, 12, |_, _| 1.0);
    let mut stepper = TransformerStepper::new(&model, &patches);
    for outcome in stepper.advance(3) {
        assert_eq!(outcome.spikes, 5 * 12, "timestep {}", outcome.timestep);
    }
    for tensor in captured_trace(&model.capture(&patches)) {
        assert_eq!(tensor.density(), 1.0);
    }
}

#[test]
fn stronger_patches_fire_the_tokenizer_more() {
    let (model, patches) = model_and_patches(2, 2, 5, 8, 6, 4);
    let tokenizer_spikes = |scale: f32| {
        let scaled = DenseMatrix::from_fn(8, 11, |n, p| scale * patches.get(n, p));
        let workload = model.capture(&scaled);
        let first = workload.projection_layers().next().expect("block 0 P1");
        first.input.count_ones()
    };
    assert!(tokenizer_spikes(4.0) > tokenizer_spikes(0.25));
}
