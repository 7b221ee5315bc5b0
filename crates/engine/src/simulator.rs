//! The default backend: the cycle-level Bishop accelerator simulator.

use std::sync::Arc;

use bishop_core::BishopSimulator;
use bishop_session::SessionState;

use crate::api::{
    EngineBatch, EngineDescriptor, EngineOutput, EngineSubstrate, InferenceEngine, StepEvent,
    StepSink, StreamedOutput,
};
use crate::cache::{CalibrationCache, ResultCache, ResultKey, WorkloadKey};
use crate::error::EngineError;
use crate::SIMULATOR_ENGINE;

/// [`InferenceEngine`] over the analytic Bishop chip simulator.
///
/// Execution is memoized at two levels, both shared across every worker
/// thread holding the engine: identical batches reuse the whole simulated
/// result ([`ResultCache`]), and batches sharing a workload but not options
/// reuse the synthesized activation trace ([`CalibrationCache`]). Both the
/// simulation and the caches are deterministic, so this engine is the one
/// the runtime's reproducible-report guarantee is stated for.
#[derive(Debug)]
pub struct SimulatorEngine {
    simulator: BishopSimulator,
    cache: Arc<CalibrationCache>,
    results: Arc<ResultCache>,
}

impl SimulatorEngine {
    /// Wraps a simulator with fresh caches.
    pub fn new(simulator: BishopSimulator) -> Self {
        Self::with_caches(
            simulator,
            Arc::new(CalibrationCache::new()),
            Arc::new(ResultCache::new()),
        )
    }

    /// Wraps a simulator sharing existing caches (e.g. warmed by a previous
    /// server or shared between serving stacks).
    pub fn with_caches(
        simulator: BishopSimulator,
        cache: Arc<CalibrationCache>,
        results: Arc<ResultCache>,
    ) -> Self {
        Self {
            simulator,
            cache,
            results,
        }
    }

    /// The simulated chip's hardware configuration.
    pub fn simulator(&self) -> &BishopSimulator {
        &self.simulator
    }

    /// The workload-synthesis cache backing this engine.
    pub fn cache(&self) -> &Arc<CalibrationCache> {
        &self.cache
    }

    /// The batch-result cache backing this engine.
    pub fn result_cache(&self) -> &Arc<ResultCache> {
        &self.results
    }
}

impl InferenceEngine for SimulatorEngine {
    fn descriptor(&self) -> EngineDescriptor {
        EngineDescriptor {
            name: SIMULATOR_ENGINE,
            substrate: EngineSubstrate::SimulatedAccelerator,
            supports_ecp: true,
            deterministic: true,
            measures_wall_clock: false,
            max_folded_timesteps: None,
            supports_streaming: true,
            // Memoized analytic simulation retires batches in microseconds
            // once warm; the calibration EWMA corrects from observations.
            seed_drain_ops_per_second: 5e9,
            simd_tier: None,
            description: "Cycle-level Bishop heterogeneous-core simulator with workload and \
                          result memoization",
        }
    }

    fn execute(&self, batch: &EngineBatch) -> Result<EngineOutput, EngineError> {
        let workload_key = WorkloadKey::new(&batch.config, batch.regime, batch.seed);
        let result_key = ResultKey {
            workload: workload_key,
            options: batch.options,
        };
        let metrics = self.results.get_or_simulate(result_key, || {
            let workload = self
                .cache
                .get_or_build(&batch.config, batch.regime, batch.seed);
            self.simulator
                .simulate_named(&workload, &batch.options, batch.config.name.clone())
        });
        Ok(EngineOutput::from_metrics(SIMULATOR_ENGINE, metrics))
    }

    fn execute_streaming(
        &self,
        batch: &EngineBatch,
        steps: usize,
        resume: Option<&SessionState>,
        sink: &mut dyn StepSink,
    ) -> Result<StreamedOutput, EngineError> {
        let done = match resume {
            Some(SessionState::Simulated { timesteps_done }) => *timesteps_done,
            // Simulated latency/energy cannot be continued from real
            // membrane potentials; refuse the cross-substrate resume typed.
            Some(SessionState::Native(_)) => {
                return Err(EngineError::StreamingUnsupported {
                    engine: SIMULATOR_ENGINE,
                })
            }
            None => 0,
        };
        let total_timesteps = done + steps;
        if total_timesteps == 0 {
            return Err(EngineError::NoTimesteps {
                engine: SIMULATOR_ENGINE,
            });
        }
        // Simulate the whole accumulated sequence under the session's base
        // configuration: both halves of a split sequence resolve to the
        // same memoized workload and result the single long request would,
        // so the continuation is bit-identical (and usually cache-warm).
        let accumulated = EngineBatch {
            config: batch.config.clone().with_timesteps(total_timesteps),
            ..batch.clone()
        };
        let output = self.execute(&accumulated)?;
        // The simulator has no timestep loop of its own; its progress unit
        // is the simulated layer, reported once the metrics exist.
        if let Some(metrics) = &output.metrics {
            let total = metrics.layers.len();
            for (index, _layer) in metrics.layers.iter().enumerate() {
                sink.on_step(&StepEvent {
                    index,
                    total,
                    unit: "layer",
                    spikes: 0,
                });
            }
        }
        Ok(StreamedOutput {
            output,
            state: SessionState::Simulated {
                timesteps_done: total_timesteps,
            },
            logits: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_bundle::TrainingRegime;
    use bishop_core::{BishopConfig, SimOptions};
    use bishop_model::{DatasetKind, ModelConfig};

    use crate::api::NullStepSink;

    fn engine() -> SimulatorEngine {
        SimulatorEngine::new(BishopSimulator::new(BishopConfig::default()))
    }

    fn batch(seed: u64) -> EngineBatch {
        EngineBatch {
            config: ModelConfig::new("sim-engine", DatasetKind::Cifar10, 1, 4, 16, 32, 2),
            regime: TrainingRegime::Bsa,
            seed,
            options: SimOptions::baseline(),
            batch_size: 2,
            batch_id: 0,
        }
    }

    #[test]
    fn execute_is_deterministic_and_cached() {
        let engine = engine();
        let a = engine.execute(&batch(7)).expect("simulator never fails");
        let b = engine.execute(&batch(7)).expect("simulator never fails");
        assert_eq!(a, b);
        assert!(a.latency_seconds > 0.0);
        assert!(a.energy_mj > 0.0);
        assert!(a.metrics.is_some(), "simulator reports per-layer metrics");
        // Second identical call answered entirely from the result cache.
        assert_eq!(engine.result_cache().stats().hits, 1);
        assert_eq!(engine.cache().stats().misses, 1);
    }

    #[test]
    fn descriptor_accepts_ecp() {
        let engine = engine();
        assert!(engine.descriptor().supports_ecp);
        let mut b = batch(1);
        b.options = SimOptions::with_ecp(6);
        assert!(engine.descriptor().check(&b).is_ok());
        assert!(engine.execute(&b).is_ok());
    }

    #[test]
    fn zero_step_fresh_stream_is_a_typed_refusal() {
        assert_eq!(
            engine()
                .execute_streaming(&batch(1), 0, None, &mut NullStepSink)
                .unwrap_err(),
            EngineError::NoTimesteps {
                engine: "simulator"
            }
        );
    }
}
