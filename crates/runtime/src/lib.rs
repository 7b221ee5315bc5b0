//! # bishop-runtime
//!
//! A batched, multi-core inference **serving runtime** in front of the
//! Bishop accelerator simulator — the first subsystem above single-shot
//! simulation, exercising the paper's core premise that Token-Time Bundling
//! turns many small spiking workloads into dense, schedulable batches
//! across heterogeneous cores.
//!
//! The pipeline is: clients submit [`InferenceRequest`]s — each naming an
//! `Arc`-shared catalog entry and an execution engine — through a *bounded
//! queue* (backpressure); the [`BatchFormer`] coalesces compatible requests
//! — same model, training regime, simulation options and engine — into
//! [`RequestBatch`]es by folding the batch dimension into the *timestep*
//! axis of the Token-Time-Bundle stream (spiking attention is per-timestep,
//! so the fold is cost-exact while weight streaming and pipeline overhead
//! are paid once per batch); a least-loaded dispatcher shards batches
//! across a pool of worker threads which execute each batch on the
//! [`InferenceEngine`](bishop_engine::InferenceEngine) backend it names
//! (the cycle-level Bishop simulator by default, the native CPU kernels or
//! a baseline model on request); workload synthesis is memoized in a shared
//! [`CalibrationCache`] keyed on `(ModelConfig, TrainingRegime, seed)`; and
//! every run emits a [`ThroughputReport`] with p50/p95/p99 latency,
//! requests/s and the per-group core-utilization breakdown.
//!
//! Determinism guarantee: for traces executing on deterministic engines
//! (the default `simulator`), [`ServingAggregates`] depend only on the
//! traffic trace (submission order and contents) — never on worker count,
//! machine speed or scheduling jitter. Only [`WallClockStats`] varies
//! between runs.
//!
//! Beyond offline trace replay, the [`online`] module keeps the same stack
//! *running*: [`ServerHandle::try_submit`] hands back a [`Ticket`] per
//! request, admission control sheds load with explicit [`Rejection`]s
//! (queue-depth and deadline based) instead of blocking, and each engine
//! runs its own **scheduling domain** — a bounded queue, a batcher closing
//! Token-Time-Bundle-aligned batches on a size-or-timeout policy, and a
//! dedicated worker pool — so substrates never head-of-line-block each
//! other. Per-engine **drain-rate calibration** (an online EWMA of observed
//! ops/second fed back from worker completions) drives both deadline
//! admission and `"auto"` engine selection: requests naming
//! [`EngineName::auto`](bishop_engine::EngineName::auto) route to the
//! most-preferred engine whose predicted completion meets their deadline.
//! `BishopServer::serve` is now a deterministic client of that online path
//! (timeout disabled, blocking backpressure).
//!
//! ```
//! use bishop_runtime::{mixed_trace, default_mixed_models, BatchPolicy, BishopServer, RuntimeConfig};
//!
//! let trace = mixed_trace(&default_mixed_models(), 8, 2, 42);
//! let server = BishopServer::new(RuntimeConfig::new(2, BatchPolicy::new(4)));
//! let outcome = server.serve(trace);
//! assert_eq!(outcome.responses.len(), 8);
//! println!("{}", outcome.report.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod online;
pub mod report;
pub mod request;
pub mod server;

/// The memoizing workload/result caches, re-exported from
/// [`bishop_engine`] (they back the simulator backend and are shared across
/// serving stacks).
pub use bishop_engine::cache;

pub use batch::{BatchFormer, BatchKey, BatchPolicy, Batchable, RequestBatch};
/// Streaming/session vocabulary appearing in the runtime's public API
/// ([`InferenceRequest::resume`], [`Ticket::progress`],
/// [`ServerHandle::register_sessions`]), re-exported so runtime clients
/// need no direct `bishop-engine`/`bishop-session` dependency.
pub use bishop_engine::{SessionState, StepEvent};
pub use bishop_session::{
    EvictionReason, SessionError, SessionId, SessionSnapshot, SessionStore, SessionStoreConfig,
    SessionStoreStats,
};
pub use cache::{CacheStats, CalibrationCache, ResultCache, ResultKey, WorkloadKey};
pub use online::{
    AdmissionStats, BreakerConfig, BreakerSnapshot, BreakerState, EngineLoadStats, OnlineConfig,
    OnlineServer, OnlineStats, Rejection, RetryPolicy, SamplerConfig, ServeError, ServeResult,
    ServerHandle, Ticket,
};
pub use report::{
    CoreUtilization, LatencyPercentiles, ServingAggregates, ThroughputReport, WallClockStats,
};
pub use request::{default_mixed_models, mixed_trace, InferenceRequest, InferenceResponse};
pub use server::{BishopServer, RuntimeConfig, ServingOutcome};
