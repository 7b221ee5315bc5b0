//! The model's forward pass: a [`TransformerStepper`] advances a
//! [`SpikingTransformer`] a window of timesteps at a time, one layer at a
//! time, from persistent and exportable LIF state.
//!
//! All cross-timestep coupling in the model flows through LIF membrane
//! potentials (the attention scores, value mixing and residual ORs are
//! timestep-local), so the window width only decides how many timestep
//! planes each layer processes before the next layer runs. Every element
//! sees the same arithmetic in the same order at any width, so any split of
//! the timestep axis into windows yields **bit-identical** spikes, membranes
//! and logits:
//!
//! * `w = 1` is streaming ([`TransformerStepper::step`]);
//! * `w = BSt` (a Token-Time Bundle's timestep extent) materialises one
//!   bundle's Q/K/V before any of it is scored;
//! * `w = T` is [`SpikingTransformer::infer`]'s layer-at-a-time order over
//!   the whole tensor (and, with a recorder attached,
//!   [`SpikingTransformer::capture`]'s workload trace).
//!
//! Between requests the stepper's state can be exported as a
//! [`ModelState`] (per-layer membrane potentials plus the accumulated
//! spike-count history the pooled classifier readout needs) and resumed
//! later — possibly on a different worker — with
//! [`TransformerStepper::resume`]. A session split across requests
//! therefore produces exactly the logits of one long request.

use std::fmt;

use bishop_neuron::LifLayer;
use bishop_spiketensor::{DenseMatrix, SpikeTensor};

use crate::config::ModelConfig;
use crate::encoder::EncoderBlock;
use crate::projection::{spike_matmul, SpikingLinear};
use crate::ssa::{select_accumulate, SpikingSelfAttention};
use crate::transformer::SpikingTransformer;
use crate::workload::{
    score_bits_for, AttentionWorkload, LayerKind, LayerWorkload, ModelWorkload, ProjectionWorkload,
};

/// Exported LIF membrane state of one encoder block (one vector per spike
/// generator, flattened `token`-major exactly as [`LifLayer`] steps them).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockState {
    /// Q-projection LIF membranes (`N·D`).
    pub wq: Vec<f32>,
    /// K-projection LIF membranes (`N·D`).
    pub wk: Vec<f32>,
    /// V-projection LIF membranes (`N·D`).
    pub wv: Vec<f32>,
    /// Attention-output (`O_temp`, Eq. 7) LIF membranes (`N·D`).
    pub o_temp: Vec<f32>,
    /// Output-projection LIF membranes (`N·D`).
    pub wo: Vec<f32>,
    /// MLP fc1 LIF membranes (`N·(r·D)`).
    pub fc1: Vec<f32>,
    /// MLP fc2 LIF membranes (`N·D`).
    pub fc2: Vec<f32>,
}

/// A parked model execution: every LIF membrane potential plus the
/// accumulated spike history the pooled classifier readout depends on.
///
/// This is the snapshot a session slot stores between requests. It is a
/// pure value (no handles into the model), so it can be checked into a
/// store, moved across workers, and resumed against any transformer with
/// the same architecture and weights.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// Tokenizer spike-generator membranes (`N·D`).
    pub tokenizer: Vec<f32>,
    /// Per-encoder-block LIF membranes.
    pub blocks: Vec<BlockState>,
    /// Per-feature spike counts of the final encoder output, summed over
    /// every executed timestep — the integer numerators of the pooled
    /// firing-rate readout (kept exact so a split run reproduces the
    /// single-run logits bit for bit).
    pub pooled_counts: Vec<u64>,
    /// Timesteps executed so far.
    pub timesteps_done: usize,
}

impl ModelState {
    /// Timesteps this state has accumulated.
    pub fn timesteps_done(&self) -> usize {
        self.timesteps_done
    }
}

/// Why a [`ModelState`] cannot resume against a model: one of its vectors
/// has a width the model's architecture does not have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateMismatch {
    /// The mismatching part of the state.
    pub part: &'static str,
    /// The width the model needs.
    pub expected: usize,
    /// The width the state has.
    pub found: usize,
}

impl fmt::Display for StateMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model state does not match the model: {} has width {}, expected {}",
            self.part, self.found, self.expected
        )
    }
}

impl std::error::Error for StateMismatch {}

/// What one executed timestep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Index of the executed timestep (0-based, counting from the start of
    /// the session — a resumed stepper continues the count).
    pub timestep: usize,
    /// Spike count of the final encoder output plane at this timestep.
    pub spikes: usize,
}

/// The classifier readout over every executed timestep.
#[derive(Debug, Clone, PartialEq)]
pub struct Readout {
    /// Per-class logits (mean pooled firing rate through the classifier).
    pub logits: Vec<f32>,
    /// Index of the highest logit.
    pub prediction: usize,
}

/// Per-block LIF layers of a live stepper.
#[derive(Debug)]
struct BlockLayers {
    wq: LifLayer,
    wk: LifLayer,
    wv: LifLayer,
    o_temp: LifLayer,
    wo: LifLayer,
    fc1: LifLayer,
    fc2: LifLayer,
}

impl BlockLayers {
    /// The block's spike generators at the given membrane potentials.
    fn from_state(block: &EncoderBlock, state: BlockState) -> Self {
        let (ssa, mlp) = (block.ssa(), block.mlp());
        let layer =
            |linear: &SpikingLinear, v_mem| LifLayer::from_potentials(linear.lif_config(), v_mem);
        Self {
            wq: layer(ssa.wq(), state.wq),
            wk: layer(ssa.wk(), state.wk),
            wv: layer(ssa.wv(), state.wv),
            // Eq. 7: the O_temp LIF stage shares the Q projection's neuron
            // configuration.
            o_temp: layer(ssa.wq(), state.o_temp),
            wo: layer(ssa.wo(), state.wo),
            fc1: layer(mlp.fc1(), state.fc1),
            fc2: layer(mlp.fc2(), state.fc2),
        }
    }

    fn export(&self) -> BlockState {
        BlockState {
            wq: self.wq.membrane_potentials().to_vec(),
            wk: self.wk.membrane_potentials().to_vec(),
            wv: self.wv.membrane_potentials().to_vec(),
            o_temp: self.o_temp.membrane_potentials().to_vec(),
            wo: self.wo.membrane_potentials().to_vec(),
            fc1: self.fc1.membrane_potentials().to_vec(),
            fc2: self.fc2.membrane_potentials().to_vec(),
        }
    }
}

/// The state of an execution that has run no timestep: every membrane at
/// its layer's reset potential.
fn reset_state(model: &SpikingTransformer) -> ModelState {
    let config = model.config();
    let units = config.tokens * config.features;
    let hidden_units = config.tokens * config.mlp_hidden();
    let reset = |linear: &SpikingLinear, n| vec![linear.lif_config().v_reset; n];
    ModelState {
        tokenizer: vec![model.tokenizer().lif_config().v_reset; units],
        blocks: model
            .blocks()
            .iter()
            .map(|block| {
                let (ssa, mlp) = (block.ssa(), block.mlp());
                BlockState {
                    wq: reset(ssa.wq(), units),
                    wk: reset(ssa.wk(), units),
                    wv: reset(ssa.wv(), units),
                    o_temp: reset(ssa.wq(), units),
                    wo: reset(ssa.wo(), units),
                    fc1: reset(mlp.fc1(), hidden_units),
                    fc2: reset(mlp.fc2(), units),
                }
            })
            .collect(),
        pooled_counts: vec![0; config.features],
        timesteps_done: 0,
    }
}

/// Checks every width of `state` against the model's architecture.
fn check_state(model: &SpikingTransformer, state: &ModelState) -> Result<(), StateMismatch> {
    let config = model.config();
    let units = config.tokens * config.features;
    let hidden_units = config.tokens * config.mlp_hidden();
    let mut widths = vec![
        ("encoder blocks", model.blocks().len(), state.blocks.len()),
        ("tokenizer membranes", units, state.tokenizer.len()),
        ("pooled counts", config.features, state.pooled_counts.len()),
    ];
    for block in &state.blocks {
        widths.extend([
            ("wq membranes", units, block.wq.len()),
            ("wk membranes", units, block.wk.len()),
            ("wv membranes", units, block.wv.len()),
            ("o_temp membranes", units, block.o_temp.len()),
            ("wo membranes", units, block.wo.len()),
            ("fc1 membranes", hidden_units, block.fc1.len()),
            ("fc2 membranes", units, block.fc2.len()),
        ]);
    }
    match widths
        .into_iter()
        .find(|&(_, expected, found)| expected != found)
    {
        Some((part, expected, found)) => Err(StateMismatch {
            part,
            expected,
            found,
        }),
        None => Ok(()),
    }
}

/// Executes a [`SpikingTransformer`] window by window with persistent,
/// exportable LIF state — the model's only forward implementation.
#[derive(Debug)]
pub struct TransformerStepper<'a> {
    model: &'a SpikingTransformer,
    /// Tokenizer synaptic charge `patches · W` (`N × D`), fixed across
    /// timesteps under direct encoding.
    charge: DenseMatrix,
    tokenizer: LifLayer,
    blocks: Vec<BlockLayers>,
    pooled_counts: Vec<u64>,
    timesteps_done: usize,
}

impl<'a> TransformerStepper<'a> {
    /// Starts a fresh execution (all membranes at the reset potential) for
    /// the given `N × P` patch input.
    ///
    /// # Panics
    ///
    /// Panics if the patch matrix has the wrong number of tokens or
    /// features for the model.
    pub fn new(model: &'a SpikingTransformer, patches: &DenseMatrix) -> Self {
        Self::start(model, patches, reset_state(model))
    }

    /// Resumes a parked execution from an exported [`ModelState`].
    ///
    /// The patch input must be the same one the exporting stepper ran on
    /// (sessions pin their input seed for exactly this reason).
    ///
    /// # Errors
    ///
    /// [`StateMismatch`] if the state's block count or any of its widths
    /// does not match the model architecture.
    ///
    /// # Panics
    ///
    /// Panics if the patch matrix has the wrong number of tokens or
    /// features for the model.
    pub fn resume(
        model: &'a SpikingTransformer,
        patches: &DenseMatrix,
        state: ModelState,
    ) -> Result<Self, StateMismatch> {
        check_state(model, &state)?;
        Ok(Self::start(model, patches, state))
    }

    fn start(model: &'a SpikingTransformer, patches: &DenseMatrix, state: ModelState) -> Self {
        let config = model.config();
        let tokenizer = model.tokenizer();
        assert_eq!(
            patches.rows(),
            config.tokens,
            "expected {} tokens, got {}",
            config.tokens,
            patches.rows()
        );
        assert_eq!(
            patches.cols(),
            tokenizer.patch_features(),
            "patch width {} does not match tokenizer input width {}",
            patches.cols(),
            tokenizer.patch_features()
        );
        Self {
            model,
            charge: patches.matmul(tokenizer.weight()),
            tokenizer: LifLayer::from_potentials(tokenizer.lif_config(), state.tokenizer),
            blocks: model
                .blocks()
                .iter()
                .zip(state.blocks)
                .map(|(block, snapshot)| BlockLayers::from_state(block, snapshot))
                .collect(),
            pooled_counts: state.pooled_counts,
            timesteps_done: state.timesteps_done,
        }
    }

    /// Timesteps executed so far (including any resumed history).
    pub fn timesteps_done(&self) -> usize {
        self.timesteps_done
    }

    /// Executes one timestep through every layer (a window of one).
    pub fn step(&mut self) -> StepOutcome {
        self.advance(1)
            .pop()
            .expect("a one-timestep window has one outcome")
    }

    /// Executes the next `window` timesteps, one layer at a time: each layer
    /// integrates all `window` planes, steps its LIF neurons through them in
    /// timestep order, and hands the resulting spike window to the next
    /// layer. Returns one outcome per executed timestep.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn advance(&mut self, window: usize) -> Vec<StepOutcome> {
        self.advance_recording(window, None)
    }

    /// [`TransformerStepper::advance`] that also appends the window's
    /// per-layer workload (the five layers of every block, in order) to
    /// `recorder`. The recorded tensors are the window's own activations,
    /// moved rather than copied.
    pub(crate) fn advance_recording(
        &mut self,
        window: usize,
        mut recorder: Option<&mut ModelWorkload>,
    ) -> Vec<StepOutcome> {
        assert!(window > 0, "a window covers at least one timestep");
        let model = self.model;
        let mut x = self.tokenizer.step_planes(&vec![&self.charge; window]);

        for (index, (block, layers)) in model.blocks().iter().zip(&mut self.blocks).enumerate() {
            let (ssa, mlp) = (block.ssa(), block.mlp());
            // P1: Q/K/V projections of the block input.
            let q = project(&mut layers.wq, ssa.wq(), &x);
            let k = project(&mut layers.wk, ssa.wk(), &x);
            let v = project(&mut layers.wv, ssa.wv(), &x);
            // ATN: Eq. 7's LIF over the concatenated head outputs.
            let o_temp = layers.o_temp.step_planes(&attend(ssa, &q, &k, &v));
            // P2 and the attention residual.
            let mlp_input = x
                .or(&project(&mut layers.wo, ssa.wo(), &o_temp))
                .expect("SSA output shape matches its input shape");
            // MLP and its residual.
            let hidden = project(&mut layers.fc1, mlp.fc1(), &mlp_input);
            let output = mlp_input
                .or(&project(&mut layers.fc2, mlp.fc2(), &hidden))
                .expect("MLP output shape matches its input shape");
            if let Some(workload) = recorder.as_deref_mut() {
                let trace = BlockTrace {
                    input: x,
                    q,
                    k,
                    v,
                    o_temp,
                    mlp_input,
                    hidden,
                };
                trace.record(workload, model.config(), index);
            }
            x = output;
        }

        for (slot, count) in self.pooled_counts.iter_mut().zip(x.per_feature_counts()) {
            *slot += count as u64;
        }
        let first = self.timesteps_done;
        self.timesteps_done += window;
        x.per_timestep_counts()
            .into_iter()
            .enumerate()
            .map(|(t, spikes)| StepOutcome {
                timestep: first + t,
                spikes,
            })
            .collect()
    }

    /// Exports the full LIF state and pooled history (the stepper remains
    /// usable).
    pub fn export(&self) -> ModelState {
        ModelState {
            tokenizer: self.tokenizer.membrane_potentials().to_vec(),
            blocks: self.blocks.iter().map(BlockLayers::export).collect(),
            pooled_counts: self.pooled_counts.clone(),
            timesteps_done: self.timesteps_done,
        }
    }

    /// The classifier readout over every timestep executed so far: the
    /// pooled mean firing rate of the final encoder output through the
    /// classification head.
    ///
    /// # Panics
    ///
    /// Panics if no timestep has been executed yet.
    pub fn finish(&self) -> Readout {
        assert!(
            self.timesteps_done > 0,
            "readout needs at least one executed timestep"
        );
        let denom = (self.timesteps_done * self.model.config().tokens) as f32;
        let pooled: Vec<f32> = self
            .pooled_counts
            .iter()
            .map(|&c| c as f32 / denom)
            .collect();
        let logits = DenseMatrix::from_rows(&[pooled])
            .matmul(self.model.classifier())
            .row(0)
            .to_vec();
        let prediction = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("logits are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Readout { logits, prediction }
    }
}

/// A spiking linear layer over a spike window: `X[t]·W` per plane on the
/// `spike_matmul` kernel, then the layer's LIF neurons.
fn project(lif: &mut LifLayer, linear: &SpikingLinear, x: &SpikeTensor) -> SpikeTensor {
    let integration: Vec<DenseMatrix> = (0..x.shape().timesteps)
        .map(|t| spike_matmul(x, t, linear.weight()))
        .collect();
    lif.step_planes(&integration)
}

/// Eq. 5–7 up to the `O_temp` LIF: per timestep and head, the integer
/// scores `S = Q·Kᵀ` and the scaled `S·V` select-accumulate into the
/// concatenated head-output plane.
fn attend(
    ssa: &SpikingSelfAttention,
    q: &SpikeTensor,
    k: &SpikeTensor,
    v: &SpikeTensor,
) -> Vec<DenseMatrix> {
    let shape = q.shape();
    let head_dim = shape.features / ssa.heads();
    let scale = 2.0_f32.powi(-(ssa.scale_shift() as i32));
    (0..shape.timesteps)
        .map(|t| {
            let mut head_output = DenseMatrix::zeros(shape.tokens, shape.features);
            for h in 0..ssa.heads() {
                let (d0, d1) = (h * head_dim, (h + 1) * head_dim);
                let s = SpikingSelfAttention::attention_scores_in(q, k, t, d0, d1);
                select_accumulate(&mut head_output, &s, scale, v, t, d0, d1);
            }
            head_output
        })
        .collect()
}

/// One block's activations over a window, as the workload recorder keeps
/// them.
struct BlockTrace {
    input: SpikeTensor,
    q: SpikeTensor,
    k: SpikeTensor,
    v: SpikeTensor,
    o_temp: SpikeTensor,
    mlp_input: SpikeTensor,
    hidden: SpikeTensor,
}

impl BlockTrace {
    /// Appends the block's P1, ATN, P2, fc1 and fc2 layers.
    fn record(self, workload: &mut ModelWorkload, config: &ModelConfig, block: usize) {
        let projection = |kind, label: &str, input, output_features| {
            LayerWorkload::Projection(ProjectionWorkload {
                block,
                kind,
                label: format!("block{block}.{label}"),
                input,
                output_features,
                weight_bits: config.weight_bits,
            })
        };
        workload.push(projection(
            LayerKind::QkvProjection,
            "P1",
            self.input,
            3 * config.features,
        ));
        workload.push(LayerWorkload::Attention(AttentionWorkload {
            block,
            label: format!("block{block}.ATN"),
            q: self.q,
            k: self.k,
            v: self.v,
            heads: config.heads,
            score_bits: score_bits_for(config),
        }));
        workload.push(projection(
            LayerKind::OutputProjection,
            "P2",
            self.o_temp,
            config.features,
        ));
        workload.push(projection(
            LayerKind::MlpFc1,
            "MLP.fc1",
            self.mlp_input,
            config.mlp_hidden(),
        ));
        workload.push(projection(
            LayerKind::MlpFc2,
            "MLP.fc2",
            self.hidden,
            config.features,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetKind, ModelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model_and_patches(seed: u64) -> (SpikingTransformer, DenseMatrix) {
        let config = ModelConfig::new("stepper", DatasetKind::Cifar10, 2, 4, 8, 16, 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = SpikingTransformer::random(&config, 16, 10, &mut rng);
        let patches = DenseMatrix::random_uniform(config.tokens, 16, 1.0, &mut rng);
        (model, patches)
    }

    #[test]
    fn stepping_matches_full_window_inference_bit_for_bit() {
        let (model, patches) = model_and_patches(41);
        let reference = model.infer(&patches);
        let timesteps = model.config().timesteps;
        let mut whole = TransformerStepper::new(&model, &patches);
        let expected = whole.advance(timesteps);
        let mut stepper = TransformerStepper::new(&model, &patches);
        for (t, expected) in expected.iter().enumerate() {
            let outcome = stepper.step();
            assert_eq!(outcome.timestep, t);
            assert_eq!(&outcome, expected, "timestep {t} spike count");
        }
        assert_eq!(stepper.finish(), reference, "logits must be bit-identical");
        assert_eq!(stepper.export(), whole.export());
    }

    #[test]
    fn export_resume_split_is_bit_identical_to_one_long_run() {
        let (model, patches) = model_and_patches(42);
        let timesteps = model.config().timesteps;

        let mut single = TransformerStepper::new(&model, &patches);
        for _ in 0..timesteps {
            single.step();
        }

        // Split after every possible prefix length, including resuming the
        // export of a zero-step stepper.
        for split in 0..timesteps {
            let mut first = TransformerStepper::new(&model, &patches);
            for _ in 0..split {
                first.step();
            }
            let parked = first.export();
            assert_eq!(parked.timesteps_done, split);
            let mut second =
                TransformerStepper::resume(&model, &patches, parked).expect("state fits the model");
            for _ in split..timesteps {
                second.step();
            }
            assert_eq!(second.timesteps_done(), timesteps);
            assert_eq!(
                second.finish(),
                single.finish(),
                "split at {split} diverged from the single run"
            );
            assert_eq!(second.export(), single.export());
        }
    }

    #[test]
    #[should_panic(expected = "expected 8 tokens")]
    fn wrong_patch_tokens_are_rejected() {
        let (model, _) = model_and_patches(44);
        TransformerStepper::new(&model, &DenseMatrix::zeros(3, 16));
    }

    #[test]
    #[should_panic(expected = "does not match tokenizer input width")]
    fn wrong_patch_width_is_rejected() {
        let (model, _) = model_and_patches(44);
        TransformerStepper::new(&model, &DenseMatrix::zeros(8, 15));
    }

    #[test]
    fn mismatched_state_is_a_typed_error() {
        let (model, patches) = model_and_patches(45);
        let fresh = TransformerStepper::new(&model, &patches).export();

        let mut narrow = fresh.clone();
        narrow.blocks[1].fc1.pop();
        let error = TransformerStepper::resume(&model, &patches, narrow).unwrap_err();
        assert_eq!(
            error,
            StateMismatch {
                part: "fc1 membranes",
                expected: 8 * 64,
                found: 8 * 64 - 1,
            }
        );
        assert!(error.to_string().contains("fc1 membranes"), "{error}");

        let mut short = fresh;
        short.blocks.pop();
        let error = TransformerStepper::resume(&model, &patches, short).unwrap_err();
        assert_eq!(error.part, "encoder blocks");
        assert_eq!((error.expected, error.found), (2, 1));
    }

    #[test]
    #[should_panic(expected = "at least one executed timestep")]
    fn readout_requires_progress() {
        let (model, patches) = model_and_patches(46);
        TransformerStepper::new(&model, &patches).finish();
    }

    #[test]
    #[should_panic(expected = "at least one timestep")]
    fn empty_windows_are_rejected() {
        let (model, patches) = model_and_patches(47);
        TransformerStepper::new(&model, &patches).advance(0);
    }
}
