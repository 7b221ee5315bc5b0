//! One scheduling domain: a bounded queue, a batcher and a dedicated
//! worker pool serving a fixed set of engines.
//!
//! With domain isolation on (the default) every registered engine gets its
//! own domain, so substrates can never head-of-line-block each other: a
//! multi-millisecond `native` batch occupies only the native domain's
//! workers while `simulator` traffic keeps flowing through its own. The
//! pre-refactor topology — one shared queue and pool for every engine — is
//! still constructible as a single domain serving all engines via
//! [`OnlineConfig::with_domain_isolation`](super::OnlineConfig::with_domain_isolation),
//! which is what the scheduler bench A/Bs against.
//!
//! Every request reaches a domain already resolved: admission looked its
//! engine up once, and the [`PendingRequest`] carries the engine handle,
//! its descriptor and its per-engine cells. The batcher and the workers
//! read those; neither consults the registry. A request naming an
//! unregistered engine never reaches a domain.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bishop_engine::{EngineBatch, EngineError, EngineOutput, StepEvent, StepSink};
use bishop_obs::{EventLevel, EventValue, ObsHub, Stage, StageSlot, WorkerStage};

use crate::batch::{BatchFormer, BatchKey, BatchPolicy, Batchable, RequestBatch};
use crate::request::{InferenceRequest, InferenceResponse};

use super::breaker::BreakerTransition;
use super::calibration::{add_f64, max_f64, EngineCells};
use super::dispatch::EngineEntry;
use super::retry::RetryPolicy;
use super::{ServeError, ServeResult, StatsCells};

/// One admitted request travelling through a domain batcher: the request
/// plus the engine admission resolved it to, its completion channel and
/// cached cost estimate.
#[derive(Debug)]
pub(crate) struct PendingRequest {
    pub(crate) request: InferenceRequest,
    pub(crate) engine: Arc<EngineEntry>,
    pub(crate) completion: mpsc::Sender<ServeResult>,
    pub(crate) estimated_ops: u64,
    /// Bounded progress channel into the request's ticket, when the caller
    /// asked for streaming. Workers forward engine step events through it
    /// with `try_send` — a slow ticket reader drops events, never blocks
    /// the worker.
    pub(crate) progress: Option<mpsc::SyncSender<StepEvent>>,
}

/// Forwards engine step callbacks into a ticket's bounded progress channel
/// without ever blocking the worker, and counts what flowed (and what a
/// saturated channel dropped).
struct ProgressSink {
    progress: Option<mpsc::SyncSender<StepEvent>>,
    emitted: u64,
    dropped: u64,
}

impl StepSink for ProgressSink {
    fn on_step(&mut self, event: &StepEvent) {
        self.emitted += 1;
        if let Some(tx) = &self.progress {
            if tx.try_send(event.clone()).is_err() {
                self.dropped += 1;
            }
        }
    }
}

impl Batchable for PendingRequest {
    fn request(&self) -> &InferenceRequest {
        &self.request
    }
}

/// Messages flowing from handles into a domain's batcher thread.
pub(crate) enum Submission {
    Request(Box<PendingRequest>),
    Flush(mpsc::Sender<()>),
    Shutdown,
}

/// One executed batch, recorded for post-run report assembly. (Per-request
/// worker attribution lives on the ticket responses, not here.)
#[derive(Debug)]
pub(crate) struct ExecutedBatch {
    pub(crate) batch: RequestBatch<InferenceRequest>,
    pub(crate) output: Arc<EngineOutput>,
}

/// The submission half of a domain, held by every
/// [`ServerHandle`](super::ServerHandle) clone: the bounded channel into
/// the domain's batcher plus the per-engine cells of the engines the
/// domain serves (whose backlogs together form the domain's admission
/// backlog).
#[derive(Debug, Clone)]
pub(crate) struct DomainSubmitter {
    pub(crate) tx: mpsc::SyncSender<Submission>,
    pub(crate) engines: Vec<Arc<EngineCells>>,
}

impl DomainSubmitter {
    /// Estimated dense ops queued ahead of a new arrival in this domain:
    /// the sum of its engines' backlogs. With isolation on this is one
    /// engine's backlog; in the shared layout it is the whole stack's —
    /// which is exactly why a shared pool head-of-line-blocks.
    pub(crate) fn backlog_ops(&self) -> u64 {
        self.engines
            .iter()
            .map(|e| e.backlog_ops.load(Ordering::Acquire))
            .sum()
    }
}

/// The thread half of a running domain, joined at shutdown.
#[derive(Debug)]
pub(crate) struct DomainThreads {
    batcher: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl DomainThreads {
    /// Joins the domain's batcher, then its workers (the batcher dropping
    /// its batch senders is what lets the workers drain and exit).
    pub(crate) fn join(self) {
        let _ = self.batcher.join();
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// Everything needed to boot one domain.
pub(crate) struct DomainSpec {
    /// The engines this domain serves (per-engine layout: exactly one).
    pub(crate) engines: Vec<Arc<EngineCells>>,
    /// Dedicated worker threads.
    pub(crate) workers: usize,
    /// Capacity of the domain's bounded submission channel.
    pub(crate) queue_capacity: usize,
    /// First batch id this domain's former assigns.
    pub(crate) batch_id_base: u64,
    /// Stride between consecutive batch ids (the domain count), keeping ids
    /// globally unique and deterministic across domains.
    pub(crate) batch_id_stride: u64,
    /// Batch-former policy.
    pub(crate) policy: BatchPolicy,
    /// Size-*or*-timeout batching window (`None` = size/flush only).
    pub(crate) batch_timeout: Option<Duration>,
    /// Bundle shape batches are padded to.
    pub(crate) bundle: bishop_bundle::BundleShape,
    /// Global server counters.
    pub(crate) cells: Arc<StatsCells>,
    /// Executed-batch recording sink, when enabled.
    pub(crate) record: Option<Arc<Mutex<Vec<ExecutedBatch>>>>,
    /// Observability hub: stage stamps for riders' traces, engine-error
    /// events from the workers.
    pub(crate) obs: Arc<ObsHub>,
    /// Retry loop tuning for the domain's workers.
    pub(crate) retry: RetryPolicy,
}

/// Boots one domain: its bounded channel, batcher thread and worker pool.
pub(crate) fn spawn_domain(spec: DomainSpec) -> (DomainSubmitter, DomainThreads) {
    let (submit_tx, submit_rx) = mpsc::sync_channel::<Submission>(spec.queue_capacity);
    // Profiler attribution label: the engine name with per-engine
    // isolation, `"shared"` for a multi-engine domain.
    let profile_label = match spec.engines.as_slice() {
        [only] => only.name.as_str().to_string(),
        _ => "shared".to_string(),
    };
    let mut batch_txs = Vec::with_capacity(spec.workers);
    let mut workers = Vec::with_capacity(spec.workers);
    for index in 0..spec.workers {
        let (tx, rx) = mpsc::channel::<RequestBatch<PendingRequest>>();
        batch_txs.push(tx);
        workers.push(spawn_worker(
            index,
            rx,
            Arc::clone(&spec.cells),
            spec.record.clone(),
            spec.bundle,
            Arc::clone(&spec.obs),
            spec.retry.clone(),
            spec.obs.profiler.register(&profile_label, "worker"),
        ));
    }
    let batcher = spawn_batcher(
        submit_rx,
        batch_txs,
        spec.policy,
        spec.batch_timeout,
        spec.bundle,
        spec.batch_id_base,
        spec.batch_id_stride,
        spec.obs.profiler.register(&profile_label, "batcher"),
    );
    (
        DomainSubmitter {
            tx: submit_tx,
            engines: spec.engines,
        },
        DomainThreads { batcher, workers },
    )
}

/// Most riders one batch may hold with `pending`. Stateful
/// (session/streaming) requests never coalesce — membranes are
/// per-sequence state — and must not sit in an open group waiting for
/// batch-mates that can never arrive, so they cap at 1. Otherwise the cap
/// is the largest count whose *padded* fold (batched timesteps rounded up
/// to the bundle multiple `BSt`) stays within the engine's folded-timestep
/// limit, so coalescing never builds a batch the engine is known to refuse
/// while each rider alone would execute. (A model whose singleton fold
/// already pads past the limit caps at 1 and surfaces the engine's typed
/// refusal.)
fn batch_cap(pending: &PendingRequest, bundle: bishop_bundle::BundleShape) -> usize {
    if pending.request.stateful() {
        return 1;
    }
    pending
        .engine
        .descriptor
        .max_folded_timesteps
        .map(|limit| {
            // Padding rounds folds up to a multiple of BSt, so the usable
            // budget is the largest such multiple at or below the limit.
            let usable = (limit / bundle.timesteps.max(1)) * bundle.timesteps.max(1);
            (usable / pending.request.model().timesteps.max(1)).max(1)
        })
        .unwrap_or(usize::MAX)
}

/// Spawns a domain's batcher thread: drains the domain channel, forms
/// size-or-timeout batches (capped at the target engine's fold limit), and
/// dispatches them least-loaded across the domain's own workers.
#[allow(clippy::too_many_arguments)]
fn spawn_batcher(
    submit_rx: mpsc::Receiver<Submission>,
    batch_txs: Vec<mpsc::Sender<RequestBatch<PendingRequest>>>,
    policy: BatchPolicy,
    batch_timeout: Option<Duration>,
    bundle: bishop_bundle::BundleShape,
    batch_id_base: u64,
    batch_id_stride: u64,
    stage_slot: Arc<StageSlot>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let workers = batch_txs.len();
        let mut former =
            BatchFormer::<PendingRequest>::with_ids(policy, batch_id_base, batch_id_stride);
        // Open keys in arrival order of their oldest member, for the
        // timeout policy. Entries leave when their batch closes.
        let mut ages: Vec<(Instant, BatchKey)> = Vec::new();
        let mut load = vec![0u64; workers];
        let dispatch = |batch: RequestBatch<PendingRequest>, load: &mut [u64]| {
            // The batch just closed: every rider's batch-formation span ends
            // here (it began when the rider left the queue).
            for pending in &batch.requests {
                if let Some(trace) = &pending.request.trace {
                    trace.stamp(Stage::BatchFormation);
                }
            }
            let target = (0..workers)
                .min_by_key(|&w| (load[w], w))
                .expect("at least one worker");
            load[target] += batch.estimated_ops(bundle);
            // A worker hanging up mid-shutdown drops the batch; its tickets
            // resolve to `None` rather than deadlocking.
            let _ = batch_txs[target].send(batch);
        };

        'run: loop {
            // Wait for the next message, or — with a timeout policy and an
            // open batch — until the oldest open batch comes due. The
            // profiler sees the blocking wait as idle and everything after
            // a message (or a timeout tick) lands as batch formation.
            stage_slot.set(WorkerStage::Idle);
            let message = match (batch_timeout, ages.first()) {
                (Some(timeout), Some((opened, _))) => {
                    let due = *opened + timeout;
                    match due.checked_duration_since(Instant::now()) {
                        None => None, // already due: close aged batches below
                        Some(wait) => match submit_rx.recv_timeout(wait) {
                            Ok(message) => Some(message),
                            Err(mpsc::RecvTimeoutError::Timeout) => None,
                            Err(mpsc::RecvTimeoutError::Disconnected) => break 'run,
                        },
                    }
                }
                _ => match submit_rx.recv() {
                    Ok(message) => Some(message),
                    Err(_) => break 'run,
                },
            };

            stage_slot.set(WorkerStage::BatchFormation);
            match message {
                Some(Submission::Request(pending)) => {
                    if let Some(trace) = &pending.request.trace {
                        trace.stamp(Stage::QueueWait);
                    }
                    let key = BatchKey::from(pending.request());
                    let cap = batch_cap(&pending, bundle);
                    let newly_opened = former.pending_count(&key) == 0;
                    match former.push_capped(*pending, cap) {
                        Some(batch) => {
                            ages.retain(|(_, k)| *k != key);
                            dispatch(batch, &mut load);
                        }
                        None if newly_opened => ages.push((Instant::now(), key)),
                        None => {}
                    }
                }
                Some(Submission::Flush(ack)) => {
                    for batch in former.flush() {
                        dispatch(batch, &mut load);
                    }
                    ages.clear();
                    let _ = ack.send(());
                }
                Some(Submission::Shutdown) => {
                    // Drain whatever raced in behind the shutdown marker so
                    // already-admitted requests still get served.
                    while let Ok(message) = submit_rx.try_recv() {
                        match message {
                            Submission::Request(pending) => {
                                if let Some(trace) = &pending.request.trace {
                                    trace.stamp(Stage::QueueWait);
                                }
                                let cap = batch_cap(&pending, bundle);
                                if let Some(batch) = former.push_capped(*pending, cap) {
                                    dispatch(batch, &mut load);
                                }
                            }
                            Submission::Flush(ack) => {
                                let _ = ack.send(());
                            }
                            Submission::Shutdown => {}
                        }
                    }
                    break 'run;
                }
                None => {
                    // Timeout tick: close every batch whose oldest member
                    // has waited past the policy timeout.
                    let timeout = batch_timeout.expect("timeout tick implies a timeout policy");
                    let now = Instant::now();
                    while let Some((opened, _)) = ages.first() {
                        if *opened + timeout > now {
                            break;
                        }
                        let (_, key) = ages.remove(0);
                        if let Some(batch) = former.close_key(&key) {
                            dispatch(batch, &mut load);
                        }
                    }
                }
            }
        }

        stage_slot.set(WorkerStage::BatchFormation);
        for batch in former.flush() {
            dispatch(batch, &mut load);
        }
        stage_slot.set(WorkerStage::Idle);
        // Dropping the senders lets every worker drain its queue and exit.
    })
}

/// Emits one structured line for a breaker state transition. Opening is an
/// operator page (traffic is being refused); half-opening and closing are
/// recovery progress.
pub(crate) fn log_breaker_transition(obs: &ObsHub, engine: &str, transition: BreakerTransition) {
    let level = match transition {
        BreakerTransition::Opened => EventLevel::Warn,
        BreakerTransition::HalfOpened | BreakerTransition::Closed => EventLevel::Info,
    };
    obs.events.emit(
        level,
        transition.event(),
        &[("engine", EventValue::Str(engine))],
    );
}

/// One contained engine attempt: runs `execute` under `catch_unwind` (a
/// panic resolves to a typed [`EngineError::Panicked`] and is counted, so
/// batch-mates get an answer and the worker keeps draining — the engine is
/// behind an `Arc` and takes `&self`, so no worker-local state can be left
/// torn), stamps every rider's `engine_execute` span, and feeds the
/// engine's circuit breaker. Only health faults count against the breaker;
/// capability refusals say nothing about the engine. Returns the outcome
/// and the attempt's wall-clock seconds.
fn contained_attempt<T>(
    entry: &EngineEntry,
    riders: &[PendingRequest],
    obs: &ObsHub,
    execute: impl FnOnce() -> Result<T, EngineError>,
) -> (Result<T, EngineError>, f64) {
    let started = Instant::now();
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(execute)).unwrap_or_else(|_| {
            entry.cells.panics.fetch_add(1, Ordering::AcqRel);
            Err(EngineError::Panicked {
                engine: entry.descriptor.name,
            })
        });
    let wall_seconds = started.elapsed().as_secs_f64();
    for pending in riders {
        if let Some(trace) = &pending.request.trace {
            trace.stamp(Stage::EngineExecute);
        }
    }
    let health_fault = outcome.as_ref().is_err_and(EngineError::retryable);
    if let Some(transition) = entry.cells.breaker.record(health_fault) {
        log_breaker_transition(obs, entry.name.as_str(), transition);
    }
    (outcome, wall_seconds)
}

/// Spawns one domain worker: executes each batch on the engine its riders
/// were resolved to at admission — containing engine panics and retrying
/// retryable faults per the domain's [`RetryPolicy`] — resolves riders'
/// tickets, and feeds the engine's cells: its circuit breaker with every
/// attempt outcome, its drain-rate calibration with the measured
/// wall-clock of every successful attempt, and its outcome counters.
#[allow(clippy::too_many_arguments)]
fn spawn_worker(
    index: usize,
    batch_rx: mpsc::Receiver<RequestBatch<PendingRequest>>,
    cells: Arc<StatsCells>,
    record: Option<Arc<Mutex<Vec<ExecutedBatch>>>>,
    bundle: bishop_bundle::BundleShape,
    obs: Arc<ObsHub>,
    retry: RetryPolicy,
    stage_slot: Arc<StageSlot>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // The blocking receive runs with Idle published; each batch body
        // publishes its stage transitions and restores Idle before the
        // next receive, so the sampling profiler attributes the worker's
        // wall-clock to execute / backoff / fan-out correctly.
        for batch in batch_rx {
            stage_slot.set(WorkerStage::EngineExecute);
            let batch_size = batch.len();
            let batch_ops: u64 = batch.requests.iter().map(|p| p.estimated_ops).sum();
            // The batch key includes the engine, so every rider shares the
            // one admission resolved the first to.
            let entry = Arc::clone(&batch.requests[0].engine);
            let engine = &entry.cells;
            let engine_name = entry.descriptor.name;
            // Stateful (session/streaming) requests always form singleton
            // batches (the batcher caps them at 1); they execute on the
            // engine's streaming path below instead of `execute`.
            let stateful = batch_size == 1 && batch.requests[0].request.stateful();
            // Annotate every traced rider with where it executes: the batch
            // span id shared with its batch-mates and the concrete engine.
            // The execute span (worker queue + engine run) is stamped once
            // per *attempt*, so retried requests show one `engine_execute`
            // span per attempt.
            for pending in &batch.requests {
                if let Some(trace) = &pending.request.trace {
                    trace.set_batch_id(batch.id);
                    trace.set_engine(engine_name);
                }
            }

            let mut attempts: u32 = 0;
            let mut wall_seconds;
            let outcome = if stateful {
                let pending = &batch.requests[0];
                let request = &pending.request;
                // The streaming path executes the request's *base*
                // configuration (no batch rename, no timestep padding):
                // session continuations must resolve the same weights and
                // the same memoized workload as the single long request
                // would, or the split stops being bit-identical.
                let engine_batch = EngineBatch {
                    config: request.entry.config.clone(),
                    regime: request.regime,
                    seed: request.seed,
                    options: request.options,
                    batch_size: 1,
                    batch_id: batch.id,
                };
                let steps = request.effective_steps();
                let resume = request.resume.clone();
                let mut sink = ProgressSink {
                    progress: pending.progress.clone(),
                    emitted: 0,
                    dropped: 0,
                };
                attempts = 1;
                // One attempt, never retried: step events already reached
                // the client, and replaying them after a mid-sequence fault
                // would double-deliver timesteps.
                let (attempt, wall) = contained_attempt(&entry, &batch.requests, &obs, || {
                    entry.engine.execute_streaming(
                        &engine_batch,
                        steps,
                        resume.as_deref(),
                        &mut sink,
                    )
                });
                wall_seconds = wall;
                engine
                    .stream_events
                    .fetch_add(sink.emitted, Ordering::AcqRel);
                if sink.dropped > 0 {
                    obs.events.emit(
                        EventLevel::Warn,
                        "stream_events_dropped",
                        &[
                            ("engine", EventValue::Str(engine_name)),
                            ("batch_id", EventValue::U64(batch.id)),
                            ("dropped", EventValue::U64(sink.dropped)),
                        ],
                    );
                }
                attempt
                    .map(|streamed| {
                        (
                            streamed.output,
                            Some(Arc::new(streamed.state)),
                            streamed.logits,
                        )
                    })
                    .map_err(ServeError::Engine)
            } else {
                let engine_batch = batch.engine_batch(bundle);
                loop {
                    attempts += 1;
                    let (attempt, wall) = contained_attempt(&entry, &batch.requests, &obs, || {
                        entry.engine.execute(&engine_batch)
                    });
                    wall_seconds = wall;
                    match attempt {
                        Ok(output) => {
                            engine.retry_budget.refill();
                            if attempts > 1 {
                                engine.retries_recovered.fetch_add(1, Ordering::AcqRel);
                            }
                            break Ok((output, None, None));
                        }
                        Err(error) => {
                            let health_fault = error.retryable();
                            if health_fault && attempts < retry.max_attempts.max(1) {
                                if engine.retry_budget.try_spend() {
                                    engine.retries_attempted.fetch_add(1, Ordering::AcqRel);
                                    stage_slot.set(WorkerStage::RetryBackoff);
                                    std::thread::sleep(retry.backoff(attempts));
                                    stage_slot.set(WorkerStage::EngineExecute);
                                    continue;
                                }
                                engine.retry_budget_denied.fetch_add(1, Ordering::AcqRel);
                                obs.events.emit(
                                    EventLevel::Warn,
                                    "retry_budget_exhausted",
                                    &[
                                        ("engine", EventValue::Str(engine_name)),
                                        ("batch_id", EventValue::U64(batch.id)),
                                        ("code", EventValue::Str(error.code())),
                                    ],
                                );
                            } else if health_fault && attempts > 1 {
                                engine.retries_exhausted.fetch_add(1, Ordering::AcqRel);
                            }
                            break Err(ServeError::Engine(error));
                        }
                    }
                }
            };
            if attempts > 1 {
                for pending in &batch.requests {
                    if let Some(trace) = &pending.request.trace {
                        trace.set_retries(attempts - 1);
                    }
                }
            }
            stage_slot.set(WorkerStage::ResponseFanout);
            match outcome {
                Ok((output, session_state, logits)) => {
                    let output = Arc::new(output);
                    let latency = output.latency_seconds;
                    cells
                        .total_cycles
                        .fetch_add(output.cycles, Ordering::AcqRel);
                    add_f64(&cells.energy_mj_bits, output.energy_mj);
                    add_f64(&cells.latency_sum_bits, latency * batch_size as f64);
                    max_f64(&cells.latency_max_bits, latency);
                    engine.batches_executed.fetch_add(1, Ordering::AcqRel);
                    engine.drain.observe(batch_ops, wall_seconds);
                    engine.latency.record(latency, batch_size);

                    if let Some(record) = &record {
                        record.lock().expect("executed lock").push(ExecutedBatch {
                            batch: RequestBatch {
                                id: batch.id,
                                requests: batch
                                    .requests
                                    .iter()
                                    .map(|p| p.request.clone())
                                    .collect(),
                            },
                            output: Arc::clone(&output),
                        });
                    }

                    for pending in batch.requests {
                        let response = InferenceResponse {
                            request_id: pending.request.id,
                            batch_id: batch.id,
                            batch_size,
                            worker: index,
                            latency_seconds: latency,
                            output: Arc::clone(&output),
                            session_state: session_state.clone(),
                            logits: logits.clone(),
                        };
                        engine.retire(pending.estimated_ops);
                        engine.completed.fetch_add(1, Ordering::AcqRel);
                        let _ = pending.completion.send(Ok(response));
                    }
                }
                Err(error) => {
                    // One structured line per failed batch (not per rider):
                    // the operator signal for a refusing or broken backend.
                    obs.events.emit(
                        EventLevel::Error,
                        "engine_error",
                        &[
                            ("engine", EventValue::Str(engine_name)),
                            ("batch_id", EventValue::U64(batch.id)),
                            ("batch_size", EventValue::U64(batch_size as u64)),
                            ("code", EventValue::Str(error.code())),
                        ],
                    );
                    for pending in batch.requests {
                        engine.retire(pending.estimated_ops);
                        engine.failed.fetch_add(1, Ordering::AcqRel);
                        let _ = pending.completion.send(Err(error.clone()));
                    }
                }
            }
            stage_slot.set(WorkerStage::Idle);
        }
    })
}
