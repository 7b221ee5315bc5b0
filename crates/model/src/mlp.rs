//! Spiking MLP blocks.

use bishop_neuron::LifConfig;
use rand::Rng;

use crate::projection::SpikingLinear;

/// The spiking MLP block of an encoder: two spiking linear layers with an
/// expansion ratio (`D → r·D → D`), each followed by its LIF stage.
///
/// Complexity is `O(T · N · D · r·D)` per layer — together with the Q/K/V/O
/// projections these are the layers the Bishop dense/sparse TTB cores
/// process.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikingMlp {
    fc1: SpikingLinear,
    fc2: SpikingLinear,
}

impl SpikingMlp {
    /// Creates an MLP block with random weights.
    pub fn random<R: Rng>(features: usize, hidden: usize, lif: LifConfig, rng: &mut R) -> Self {
        let scale1 = 1.0 / (features as f32).sqrt();
        let scale2 = 1.0 / (hidden as f32).sqrt();
        Self {
            fc1: SpikingLinear::random(features, hidden, scale1, lif, rng),
            fc2: SpikingLinear::random(hidden, features, scale2, lif, rng),
        }
    }

    /// Creates an MLP block from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if the layer widths do not chain (`fc1` output ≠ `fc2` input).
    pub fn from_layers(fc1: SpikingLinear, fc2: SpikingLinear) -> Self {
        assert_eq!(
            fc1.out_features(),
            fc2.in_features(),
            "fc1 output width must equal fc2 input width"
        );
        Self { fc1, fc2 }
    }

    /// Embedding feature dimension `D`.
    pub fn features(&self) -> usize {
        self.fc1.in_features()
    }

    /// Hidden dimension `r·D`.
    pub fn hidden(&self) -> usize {
        self.fc1.out_features()
    }

    /// First linear layer.
    pub fn fc1(&self) -> &SpikingLinear {
        &self.fc1
    }

    /// Second linear layer.
    pub fn fc2(&self) -> &SpikingLinear {
        &self.fc2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_spiketensor::DenseMatrix;

    #[test]
    fn from_layers_validates_widths() {
        let fc1 = SpikingLinear::from_weight(DenseMatrix::zeros(4, 8), LifConfig::default());
        let fc2 = SpikingLinear::from_weight(DenseMatrix::zeros(8, 4), LifConfig::default());
        let mlp = SpikingMlp::from_layers(fc1, fc2);
        assert_eq!(mlp.hidden(), 8);
    }

    #[test]
    #[should_panic(expected = "fc1 output width")]
    fn from_layers_rejects_mismatched_widths() {
        let fc1 = SpikingLinear::from_weight(DenseMatrix::zeros(4, 8), LifConfig::default());
        let fc2 = SpikingLinear::from_weight(DenseMatrix::zeros(9, 4), LifConfig::default());
        SpikingMlp::from_layers(fc1, fc2);
    }
}
