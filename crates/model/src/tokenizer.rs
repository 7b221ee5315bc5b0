//! Spiking tokenizer: turns an analog (or event-based) input into the first
//! `T × N × D` spike tensor of the transformer.
//!
//! The paper's tokenizer is a small spiking convolutional stem
//! (complexity `O(T·H·W·C²·K²)`, §2.2); it is not a bottleneck and not a
//! target of the accelerator, so this reproduction models it at the token
//! granularity: the input is presented as an `N × P` matrix of patch feature
//! vectors (one row per token), which a spiking linear layer projects to the
//! embedding dimension `D` at every timestep, with persistent LIF state
//! across timesteps. The analog patch features drive the membrane charge
//! identically at every timestep (direct encoding), so weakly driven
//! positions fire sparsely and strongly driven positions fire at a high
//! rate; [`crate::TransformerStepper`] runs that spike generator.

use bishop_neuron::LifConfig;
use bishop_spiketensor::DenseMatrix;
use rand::Rng;

/// Spiking tokenizer mapping patch features to embedded spike tokens.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikingTokenizer {
    weight: DenseMatrix,
    lif: LifConfig,
    timesteps: usize,
}

impl SpikingTokenizer {
    /// Creates a tokenizer with random projection weights.
    pub fn random<R: Rng>(
        patch_features: usize,
        embed_features: usize,
        timesteps: usize,
        lif: LifConfig,
        rng: &mut R,
    ) -> Self {
        assert!(timesteps > 0, "tokenizer needs at least one timestep");
        let scale = 1.0 / (patch_features as f32).sqrt();
        Self {
            weight: DenseMatrix::random_uniform(patch_features, embed_features, scale, rng),
            lif,
            timesteps,
        }
    }

    /// Creates a tokenizer from an explicit weight matrix.
    pub fn from_weight(weight: DenseMatrix, timesteps: usize, lif: LifConfig) -> Self {
        assert!(timesteps > 0, "tokenizer needs at least one timestep");
        Self {
            weight,
            lif,
            timesteps,
        }
    }

    /// Patch feature dimension expected per token.
    pub fn patch_features(&self) -> usize {
        self.weight.rows()
    }

    /// Output embedding dimension `D`.
    pub fn embed_features(&self) -> usize {
        self.weight.cols()
    }

    /// Number of timesteps of the produced spike tensor.
    pub fn timesteps(&self) -> usize {
        self.timesteps
    }

    /// The projection weight matrix (`P × D`).
    pub fn weight(&self) -> &DenseMatrix {
        &self.weight
    }

    /// The LIF configuration of the tokenizer's spike generator.
    pub fn lif_config(&self) -> LifConfig {
        self.lif
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_report_dimensions() {
        let tokenizer =
            SpikingTokenizer::from_weight(DenseMatrix::zeros(6, 9), 3, LifConfig::default());
        assert_eq!(tokenizer.patch_features(), 6);
        assert_eq!(tokenizer.embed_features(), 9);
        assert_eq!(tokenizer.timesteps(), 3);
    }
}
