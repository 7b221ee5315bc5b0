//! Residual encoder blocks (SSA block + MLP block).

use bishop_neuron::LifConfig;
use rand::Rng;

use crate::mlp::SpikingMlp;
use crate::ssa::SpikingSelfAttention;

/// One residual encoder block: multi-head spiking self-attention followed by
/// a spiking MLP, each with a residual connection.
///
/// Residuals between *binary* spike tensors are merged with an elementwise
/// OR. (Spikformer-style models add membrane potentials instead; the OR
/// merge keeps every inter-layer tensor binary, which is the property the
/// Bishop hardware — and the SSA formulation in Eq. 7/8 the paper adopts —
/// relies on. The difference does not affect workload statistics, which is
/// what the accelerator evaluation consumes.)
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderBlock {
    ssa: SpikingSelfAttention,
    mlp: SpikingMlp,
}

impl EncoderBlock {
    /// Creates an encoder block with random weights.
    pub fn random<R: Rng>(
        features: usize,
        heads: usize,
        mlp_hidden: usize,
        scale_shift: u32,
        lif: LifConfig,
        rng: &mut R,
    ) -> Self {
        Self {
            ssa: SpikingSelfAttention::random(features, heads, scale_shift, lif, rng),
            mlp: SpikingMlp::random(features, mlp_hidden, lif, rng),
        }
    }

    /// The block's attention sub-module.
    pub fn ssa(&self) -> &SpikingSelfAttention {
        &self.ssa
    }

    /// The block's MLP sub-module.
    pub fn mlp(&self) -> &SpikingMlp {
        &self.mlp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn block() -> EncoderBlock {
        let mut rng = StdRng::seed_from_u64(21);
        EncoderBlock::random(8, 2, 16, 1, LifConfig::default(), &mut rng)
    }

    #[test]
    fn accessors_expose_submodules() {
        let b = block();
        assert_eq!(b.ssa().heads(), 2);
        assert_eq!(b.mlp().hidden(), 16);
    }
}
