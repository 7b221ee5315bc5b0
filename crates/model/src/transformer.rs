//! The complete spiking transformer: tokenizer, encoder blocks, and
//! classification head, with opt-in activation-trace capture.

use bishop_neuron::LifConfig;
use bishop_spiketensor::{DenseMatrix, SpikeTensor};
use rand::Rng;

use crate::config::ModelConfig;
use crate::encoder::EncoderBlock;
use crate::stepper::{Readout, TransformerStepper};
use crate::tokenizer::SpikingTokenizer;
use crate::workload::ModelWorkload;

/// A complete spiking vision/speech transformer (Fig. 2 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct SpikingTransformer {
    config: ModelConfig,
    tokenizer: SpikingTokenizer,
    blocks: Vec<EncoderBlock>,
    classifier: DenseMatrix,
}

impl SpikingTransformer {
    /// Builds a transformer with random weights for the given configuration.
    ///
    /// `patch_features` is the per-token input feature width the tokenizer
    /// expects (e.g. `4·4·3 = 48` for CIFAR with 4×4 patches).
    pub fn random<R: Rng>(
        config: &ModelConfig,
        patch_features: usize,
        classes: usize,
        rng: &mut R,
    ) -> Self {
        let lif = LifConfig::default();
        let tokenizer =
            SpikingTokenizer::random(patch_features, config.features, config.timesteps, lif, rng);
        let blocks = (0..config.blocks)
            .map(|_| {
                EncoderBlock::random(
                    config.features,
                    config.heads,
                    config.mlp_hidden(),
                    config.scale_shift,
                    lif,
                    rng,
                )
            })
            .collect();
        let classifier = DenseMatrix::random_uniform(
            config.features,
            classes,
            1.0 / (config.features as f32).sqrt(),
            rng,
        );
        Self {
            config: config.clone(),
            tokenizer,
            blocks,
            classifier,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classifier.cols()
    }

    /// The tokenizer stage.
    pub fn tokenizer(&self) -> &SpikingTokenizer {
        &self.tokenizer
    }

    /// The encoder blocks.
    pub fn blocks(&self) -> &[EncoderBlock] {
        &self.blocks
    }

    /// The classification head (`D × classes`).
    pub fn classifier(&self) -> &DenseMatrix {
        &self.classifier
    }

    /// Global-average-pools a spike tensor over time and tokens into a
    /// per-feature firing-rate vector.
    pub fn pool(spikes: &SpikeTensor) -> Vec<f32> {
        let shape = spikes.shape();
        let denom = (shape.timesteps * shape.tokens) as f32;
        spikes
            .per_feature_counts()
            .iter()
            .map(|&c| c as f32 / denom)
            .collect()
    }

    /// Runs inference on an `N × P` patch matrix: a fresh
    /// [`TransformerStepper`] advanced over all `T` timesteps as one window,
    /// then read out.
    ///
    /// # Panics
    ///
    /// Panics if the patch matrix has the wrong number of tokens or features.
    pub fn infer(&self, patches: &DenseMatrix) -> Readout {
        let mut stepper = TransformerStepper::new(self, patches);
        stepper.advance(self.config.timesteps);
        stepper.finish()
    }

    /// Runs the same `T`-timestep window as [`SpikingTransformer::infer`]
    /// with a recorder attached, returning the per-layer workload (the
    /// activation trace the accelerator simulators run).
    ///
    /// # Panics
    ///
    /// Panics if the patch matrix has the wrong number of tokens or features.
    pub fn capture(&self, patches: &DenseMatrix) -> ModelWorkload {
        let mut workload = ModelWorkload::new(self.config.clone());
        TransformerStepper::new(self, patches)
            .advance_recording(self.config.timesteps, Some(&mut workload));
        workload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetKind;
    use bishop_spiketensor::TensorShape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model() -> (ModelConfig, SpikingTransformer) {
        let config = ModelConfig::new("tiny", DatasetKind::Cifar10, 2, 3, 8, 16, 2);
        let mut rng = StdRng::seed_from_u64(99);
        let model = SpikingTransformer::random(&config, 12, 10, &mut rng);
        (config, model)
    }

    #[test]
    fn inference_produces_logits_and_capture_a_workload() {
        let (config, model) = tiny_model();
        let mut rng = StdRng::seed_from_u64(100);
        let patches = DenseMatrix::random_uniform(config.tokens, 12, 1.0, &mut rng);
        let result = model.infer(&patches);
        assert_eq!(result.logits.len(), 10);
        assert!(result.prediction < 10);
        assert_eq!(model.capture(&patches).layers().len(), 5 * config.blocks);
    }

    #[test]
    fn captured_workload_matches_model_dimensions() {
        let (config, model) = tiny_model();
        let mut rng = StdRng::seed_from_u64(101);
        let patches = DenseMatrix::random_uniform(config.tokens, 12, 1.0, &mut rng);
        let workload = model.capture(&patches);
        for p in workload.projection_layers() {
            assert_eq!(p.input.shape().tokens, config.tokens);
            assert_eq!(p.input.shape().timesteps, config.timesteps);
        }
        for a in workload.attention_layers() {
            assert_eq!(a.shape(), config.activation_shape());
            assert_eq!(a.heads, config.heads);
        }
    }

    #[test]
    fn pooling_is_mean_firing_rate() {
        let spikes = SpikeTensor::from_fn(TensorShape::new(2, 2, 3), |_, _, d| d == 0);
        let pooled = SpikingTransformer::pool(&spikes);
        assert_eq!(pooled, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn inference_is_deterministic() {
        let (config, model) = tiny_model();
        let mut rng = StdRng::seed_from_u64(102);
        let patches = DenseMatrix::random_uniform(config.tokens, 12, 1.0, &mut rng);
        let a = model.infer(&patches);
        let b = model.infer(&patches);
        assert_eq!(a.logits, b.logits);
        assert_eq!(a.prediction, b.prediction);
    }

    #[test]
    #[should_panic(expected = "expected 8 tokens")]
    fn wrong_token_count_is_rejected() {
        let (_, model) = tiny_model();
        let patches = DenseMatrix::zeros(4, 12);
        model.infer(&patches);
    }

    #[test]
    fn accessors_expose_structure() {
        let (config, model) = tiny_model();
        assert_eq!(model.blocks().len(), config.blocks);
        assert_eq!(model.classes(), 10);
        assert_eq!(model.tokenizer().embed_features(), config.features);
        assert_eq!(model.config().name, "tiny");
    }
}
