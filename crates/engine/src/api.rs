//! The [`InferenceEngine`] trait and the types flowing across it.
//!
//! An engine is one *execution substrate* for a batch of spiking-transformer
//! inference work: the Bishop accelerator simulator, the host CPU running the
//! functional model on the word-parallel kernels, or one of the paper's
//! baseline analytic models. The serving runtime is generic over this trait —
//! batching, admission control and reporting never know which substrate a
//! batch lands on.

use std::fmt;
use std::sync::Arc;

use bishop_bundle::TrainingRegime;
use bishop_core::{RunMetrics, SimOptions};
use bishop_model::ModelConfig;
use bishop_session::SessionState;

use crate::error::EngineError;

/// The name a client (or the runtime) selects an engine by.
///
/// A cheap-to-clone, hashable string handle: requests carry one, batch keys
/// embed one (requests naming different engines must never share a batch),
/// and the [`EngineRegistry`](crate::EngineRegistry) resolves one to a
/// backend.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EngineName(Arc<str>);

impl EngineName {
    /// Wraps a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Self(Arc::from(name.as_ref()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The default engine: the Bishop accelerator simulator.
    pub fn simulator() -> Self {
        Self::new(crate::SIMULATOR_ENGINE)
    }

    /// The native CPU engine (word-parallel functional forward pass).
    pub fn native() -> Self {
        Self::new(crate::NATIVE_ENGINE)
    }

    /// The autoselection pseudo-engine: the serving runtime's dispatcher
    /// resolves it to a concrete engine whose predicted completion meets
    /// the request's deadline. No backend registers under this name.
    pub fn auto() -> Self {
        Self::new(crate::AUTO_ENGINE)
    }

    /// Whether this is the autoselection pseudo-engine name.
    pub fn is_auto(&self) -> bool {
        self.as_str() == crate::AUTO_ENGINE
    }
}

impl Default for EngineName {
    fn default() -> Self {
        Self::simulator()
    }
}

impl fmt::Display for EngineName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for EngineName {
    fn from(name: &str) -> Self {
        Self::new(name)
    }
}

/// Which kind of substrate an engine executes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineSubstrate {
    /// A cycle-level analytic simulation of the Bishop accelerator.
    SimulatedAccelerator,
    /// The host CPU actually executing the functional model.
    HostCpu,
    /// A closed-form analytic model (roofline / baseline accelerator).
    AnalyticModel,
}

impl EngineSubstrate {
    /// A stable lowercase label for wire encodings.
    pub fn label(&self) -> &'static str {
        match self {
            EngineSubstrate::SimulatedAccelerator => "simulated_accelerator",
            EngineSubstrate::HostCpu => "host_cpu",
            EngineSubstrate::AnalyticModel => "analytic_model",
        }
    }
}

/// Capability metadata describing one engine backend.
///
/// The descriptor is the contract half of the API: callers use it to route
/// work an engine can actually execute ([`EngineDescriptor::check`]) and the
/// gateway publishes it verbatim on `GET /v1/engines`.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineDescriptor {
    /// Registry name clients select the engine by.
    pub name: &'static str,
    /// What the engine runs on.
    pub substrate: EngineSubstrate,
    /// Whether the engine honours Error-Constrained TTB Pruning options.
    pub supports_ecp: bool,
    /// Whether identical batches always produce identical outputs (the
    /// runtime's determinism guarantee only covers deterministic engines).
    pub deterministic: bool,
    /// Whether [`EngineOutput::wall_seconds`] carries a real host
    /// measurement (as opposed to simulated/analytic latency only).
    pub measures_wall_clock: bool,
    /// Upper bound on the folded timestep axis of one batch, if the engine
    /// has one (`None` = unbounded).
    pub max_folded_timesteps: Option<usize>,
    /// Whether the engine implements
    /// [`InferenceEngine::execute_streaming`] — per-step progress events
    /// and exported session state. The gateway preflights streamed and
    /// session-bound requests against this flag so refusals happen before
    /// any response bytes are committed to the wire.
    pub supports_streaming: bool,
    /// A priori estimate of the dense operations per second this engine
    /// retires, used to *seed* the serving runtime's per-engine drain-rate
    /// calibration before any batch has completed. The runtime's online
    /// EWMA of observed throughput replaces the seed as traffic flows; the
    /// seed only has to be the right order of magnitude.
    pub seed_drain_ops_per_second: f64,
    /// The SIMD kernel tier the engine's compute runs on (`"scalar"`,
    /// `"neon"`, `"avx2"`, `"avx512"`), or `None` for engines that do not
    /// execute the functional kernels (simulators / analytic models).
    /// Published on `GET /v1/engines` so operators can see which popcount
    /// path a deployment resolved to.
    pub simd_tier: Option<&'static str>,
    /// One-line human description.
    pub description: &'static str,
}

impl EngineDescriptor {
    /// Checks whether this engine can execute `batch`, returning the typed
    /// error a call to [`InferenceEngine::execute`] would fail with.
    pub fn check(&self, batch: &EngineBatch) -> Result<(), EngineError> {
        self.check_model(&batch.config, &batch.options)
    }

    /// Checks whether the engine can execute `config` under `options`:
    /// ECP support, then the fold limit against `config`'s timestep count.
    /// Returns the typed refusal [`InferenceEngine::execute`] would fail
    /// with. Given a model's own (unpadded) config this is the per-entry
    /// support the gateway reports on `/v1/models` and preflights on
    /// `/v1/infer`; this layer does not know the runtime's bundle shape,
    /// so a model landing in the sliver between the limit and the last
    /// bundle multiple below it passes here and surfaces the engine's
    /// typed refusal at execution.
    pub fn check_model(
        &self,
        config: &ModelConfig,
        options: &SimOptions,
    ) -> Result<(), EngineError> {
        if !self.supports_ecp && options.ecp_threshold.is_some() {
            return Err(EngineError::EcpUnsupported { engine: self.name });
        }
        match self.max_folded_timesteps {
            Some(limit) if config.timesteps > limit => Err(EngineError::BatchTooLarge {
                engine: self.name,
                folded_timesteps: config.timesteps,
                limit,
            }),
            _ => Ok(()),
        }
    }

    /// Whether [`EngineDescriptor::check_model`] accepts `config` under
    /// `options`.
    pub fn supports_model(&self, config: &ModelConfig, options: &SimOptions) -> bool {
        self.check_model(config, options).is_ok()
    }
}

/// One batch of compatible inference work, in substrate-neutral form.
///
/// The runtime folds the batch dimension into the timestep axis before the
/// engine ever sees it: `config` is the *batched* model configuration (with
/// the Token-Time-Bundle-padded timestep count), `seed` is the combined
/// deterministic trace seed, and `batch_size` records how many requests ride
/// the batch (engines may use it to attribute per-request shares).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineBatch {
    /// Batched (timestep-folded) model configuration.
    pub config: ModelConfig,
    /// Calibrated training regime of the traffic.
    pub regime: TrainingRegime,
    /// Combined deterministic seed of the batch's activation trace.
    pub seed: u64,
    /// Simulation options shared by every rider.
    pub options: SimOptions,
    /// Number of requests folded into the batch.
    pub batch_size: usize,
    /// Globally unique id of the batch — the *batch span id* request
    /// traces share with their batch-mates. Purely diagnostic: it is not
    /// part of any memoization key and engines must not let it influence
    /// execution.
    pub batch_id: u64,
}

/// What an engine produced for one batch.
///
/// Every backend fills the three headline scalars (`latency_seconds`,
/// `energy_mj`, `cycles`); the optional fields carry whatever extra fidelity
/// the substrate has — per-layer [`RunMetrics`] for cycle-level simulators, a
/// measured host wall-clock and a real classifier prediction for the native
/// CPU path.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineOutput {
    /// Name of the engine that executed the batch.
    pub engine: &'static str,
    /// End-to-end batch latency in seconds (simulated, analytic, or — for
    /// wall-clock engines — measured).
    pub latency_seconds: f64,
    /// Batch energy in millijoules.
    pub energy_mj: f64,
    /// Busy cycles attributed to the batch on the engine's clock.
    pub cycles: u64,
    /// Per-layer metrics, when the substrate produces them.
    pub metrics: Option<Arc<RunMetrics>>,
    /// Measured host wall-clock seconds, when the engine really executed.
    pub wall_seconds: Option<f64>,
    /// Class prediction of the functional forward pass, when one ran. Like
    /// every field here it describes the *batch* (the folded configuration
    /// and combined seed), not any individual rider.
    pub prediction: Option<usize>,
}

impl EngineOutput {
    /// Builds an output from full per-layer metrics (the simulator path):
    /// the headline scalars are derived from the metrics so the two can
    /// never disagree.
    pub fn from_metrics(engine: &'static str, metrics: Arc<RunMetrics>) -> Self {
        Self {
            engine,
            latency_seconds: metrics.total_latency_seconds(),
            energy_mj: metrics.total_energy_mj(),
            cycles: metrics.total_cycles(),
            metrics: Some(metrics),
            wall_seconds: None,
            prediction: None,
        }
    }
}

/// One progress event of a streaming execution.
///
/// The native engine emits one event per executed timestep; the simulator,
/// which has no timestep loop of its own, emits one per simulated layer.
#[derive(Debug, Clone, PartialEq)]
pub struct StepEvent {
    /// 0-based index of the completed step, counting from the start of the
    /// session (a resumed execution continues the count).
    pub index: usize,
    /// Total step count this request will reach (absolute, like `index`).
    pub total: usize,
    /// What one step is on this engine: `"timestep"` (native) or `"layer"`
    /// (simulator).
    pub unit: &'static str,
    /// Spikes the step produced in the final encoder output (0 when the
    /// substrate does not execute spikes).
    pub spikes: usize,
}

/// Receives [`StepEvent`]s during a streaming execution.
///
/// Engines call [`StepSink::on_step`] from the executing worker thread;
/// implementations must not block (the runtime forwards into a bounded
/// channel with a non-blocking send and counts drops).
pub trait StepSink {
    /// Called after each completed step.
    fn on_step(&mut self, event: &StepEvent);
}

/// A sink that discards every event (blocking callers of the streaming
/// path that only want the state/output).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullStepSink;

impl StepSink for NullStepSink {
    fn on_step(&mut self, _event: &StepEvent) {}
}

/// What a streaming execution produced: the ordinary batch output plus the
/// exported session state and (when the substrate computes them) the
/// running per-class logits.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedOutput {
    /// The ordinary batch output, as [`InferenceEngine::execute`] would
    /// report it.
    pub output: EngineOutput,
    /// Exported state to park in a session slot and resume from.
    pub state: SessionState,
    /// Per-class logits over every timestep executed so far, when the
    /// substrate runs the functional model.
    pub logits: Option<Vec<f32>>,
}

/// One pluggable execution backend for batched spiking-transformer
/// inference.
///
/// # Backend contract
///
/// * [`descriptor`](Self::descriptor) must be constant for the lifetime of
///   the engine, and [`execute`](Self::execute) must fail with exactly the
///   typed [`EngineError`] that [`EngineDescriptor::check`] predicts for an
///   unsupported batch — callers may pre-flight with `check` and treat a
///   later mismatch as a bug.
/// * `execute` is called concurrently from many worker threads; engines must
///   be internally synchronized (`Send + Sync`) and must not assume batches
///   arrive in formation order.
/// * Engines declaring `deterministic: true` must return bit-identical
///   [`EngineOutput`]s (ignoring `wall_seconds`) for equal [`EngineBatch`]es
///   — the serving runtime's reproducible-report guarantee rests on it.
/// * `latency_seconds`, `energy_mj` and `cycles` must be finite and
///   non-negative; `batch_size ≥ 1` holds for every batch the runtime forms.
pub trait InferenceEngine: Send + Sync + fmt::Debug {
    /// The engine's capability metadata.
    fn descriptor(&self) -> EngineDescriptor;

    /// Executes one batch on this substrate.
    fn execute(&self, batch: &EngineBatch) -> Result<EngineOutput, EngineError>;

    /// Executes `steps` further timesteps of a stateful, streaming
    /// inference, emitting progress into `sink` and returning the exported
    /// session state alongside the ordinary output.
    ///
    /// Unlike [`execute`](Self::execute), `batch.config` here is the *base*
    /// (unpadded, unrenamed) model configuration — weight identity across a
    /// split sequence depends on it — and the work size is carried by
    /// `steps`: the execution covers absolute timesteps
    /// `resume.timesteps_done() .. resume.timesteps_done() + steps`.
    /// `resume = None` starts from timestep zero with fresh membranes.
    ///
    /// Splitting a sequence across calls must be bit-identical to one call
    /// covering the same range (deterministic engines only). The default
    /// implementation refuses with the typed
    /// [`EngineError::StreamingUnsupported`]; baseline analytic engines
    /// keep it.
    fn execute_streaming(
        &self,
        batch: &EngineBatch,
        steps: usize,
        resume: Option<&SessionState>,
        sink: &mut dyn StepSink,
    ) -> Result<StreamedOutput, EngineError> {
        let _ = (batch, steps, resume, sink);
        Err(EngineError::StreamingUnsupported {
            engine: self.descriptor().name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bishop_model::DatasetKind;

    fn batch(options: SimOptions, timesteps: usize) -> EngineBatch {
        EngineBatch {
            config: ModelConfig::new("b", DatasetKind::Cifar10, 1, timesteps, 8, 16, 2),
            regime: TrainingRegime::Bsa,
            seed: 1,
            options,
            batch_size: 1,
            batch_id: 0,
        }
    }

    fn descriptor() -> EngineDescriptor {
        EngineDescriptor {
            name: "test",
            substrate: EngineSubstrate::HostCpu,
            supports_ecp: false,
            deterministic: true,
            measures_wall_clock: false,
            max_folded_timesteps: Some(16),
            supports_streaming: false,
            seed_drain_ops_per_second: 1e9,
            simd_tier: None,
            description: "test engine",
        }
    }

    #[test]
    fn check_flags_unsupported_ecp_and_oversized_folds() {
        let d = descriptor();
        assert!(d.check(&batch(SimOptions::baseline(), 4)).is_ok());
        assert_eq!(
            d.check(&batch(SimOptions::with_ecp(6), 4)),
            Err(EngineError::EcpUnsupported { engine: "test" })
        );
        assert_eq!(
            d.check(&batch(SimOptions::baseline(), 32)),
            Err(EngineError::BatchTooLarge {
                engine: "test",
                folded_timesteps: 32,
                limit: 16
            })
        );
        // check_model is the same check against a model's own config.
        let small = ModelConfig::new("s", DatasetKind::Cifar10, 1, 8, 8, 16, 2);
        let long = ModelConfig::new("l", DatasetKind::Cifar10, 1, 32, 8, 16, 2);
        assert_eq!(
            d.check_model(&small, &SimOptions::with_ecp(3)),
            Err(EngineError::EcpUnsupported { engine: "test" })
        );
        assert_eq!(
            d.check_model(&long, &SimOptions::baseline()),
            Err(EngineError::BatchTooLarge {
                engine: "test",
                folded_timesteps: 32,
                limit: 16
            })
        );
        assert!(d.supports_model(&small, &SimOptions::baseline()));
        assert!(!d.supports_model(&long, &SimOptions::baseline()));
        assert!(!d.supports_model(&small, &SimOptions::with_ecp(3)));
    }

    #[test]
    fn engine_names_compare_by_content() {
        assert_eq!(EngineName::new("simulator"), EngineName::simulator());
        assert_eq!(EngineName::default(), EngineName::simulator());
        assert_ne!(EngineName::native(), EngineName::simulator());
        assert_eq!(EngineName::from("gpu").as_str(), "gpu");
        assert_eq!(format!("{}", EngineName::native()), "native");
        assert!(EngineName::auto().is_auto());
        assert!(!EngineName::simulator().is_auto());
        assert_eq!(EngineName::auto().as_str(), "auto");
    }
}
