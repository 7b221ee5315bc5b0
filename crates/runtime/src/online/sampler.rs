//! The background observability sampler: one thread per server feeding
//! the obs hub's temporal layer.
//!
//! The thread runs two cadences off one loop. Every *profile* tick
//! (default 10 ms) it sweeps the worker/batcher [stage
//! slots](bishop_obs::StageSlot) and attributes the elapsed wall-clock to
//! each thread's published stage. Every *metrics* tick (default 1 s) it
//! scrapes the server's atomic counters — global admission/outcome
//! counts, per-engine queue depth / backlog / drain rate / breaker state,
//! router verdicts — into the [`TimeSeriesStore`](bishop_obs::TimeSeriesStore)
//! rollups, diffs the stage histograms into windowed p50/p95/p99 gauges,
//! and re-evaluates the SLO engine (which emits edge-triggered burn-rate
//! alerts into the event log).
//!
//! Everything the sampler reads is a relaxed atomic load or a short-lived
//! registry lock, so its steady-state cost is independent of request
//! throughput — the overhead bar the `obs` bench holds it to.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bishop_obs::{HistogramSnapshot, ObsHub};
use bishop_session::SessionStore;

use super::breaker::BreakerState;
use super::calibration::EngineCells;
use super::StatsCells;

/// Configuration of the background sampler thread.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Whether the sampler thread runs at all. Off, the time-series
    /// store, SLO engine and profiler stay empty (but the endpoints
    /// still serve their empty shapes).
    pub enabled: bool,
    /// Stage-slot sweep period (the profiler's sampling resolution).
    pub profile_interval: Duration,
    /// Counter-scrape / SLO-evaluation period.
    pub metrics_interval: Duration,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            profile_interval: Duration::from_millis(10),
            metrics_interval: Duration::from_secs(1),
        }
    }
}

impl SamplerConfig {
    /// A sampler that never runs (deterministic replay, bare-overhead
    /// benchmarking).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }

    /// Overrides both cadences (tests shrink them to milliseconds).
    pub fn with_intervals(mut self, profile: Duration, metrics: Duration) -> Self {
        self.profile_interval = profile.max(Duration::from_micros(100));
        self.metrics_interval = metrics.max(Duration::from_millis(1));
        self
    }
}

/// The running sampler: a stop flag plus the thread handle.
#[derive(Debug)]
pub(crate) struct SamplerThread {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl SamplerThread {
    /// Signals the thread and joins it (it runs one final scrape so even
    /// a short-lived server lands its counters in the store).
    pub(crate) fn stop_and_join(self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.handle.join();
    }
}

/// Spawns the sampler thread over the server's shared state.
pub(crate) fn spawn_sampler(
    config: SamplerConfig,
    obs: Arc<ObsHub>,
    cells: Arc<StatsCells>,
    engines: Vec<Arc<EngineCells>>,
    sessions: Arc<OnceLock<Arc<SessionStore>>>,
) -> SamplerThread {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut histogram_baseline: BTreeMap<(String, &'static str), HistogramSnapshot> =
            BTreeMap::new();
        let mut last_profile = Instant::now();
        let mut last_metrics = Instant::now();
        while !stop_flag.load(Ordering::Acquire) {
            std::thread::sleep(config.profile_interval);
            let now = Instant::now();
            obs.profiler
                .sample(now.duration_since(last_profile).as_secs_f64());
            last_profile = now;
            if now.duration_since(last_metrics) >= config.metrics_interval {
                scrape(&obs, &cells, &engines, &sessions, &mut histogram_baseline);
                obs.slo.evaluate(&obs.timeseries, Some(&obs.events));
                last_metrics = now;
            }
        }
        // Final scrape: a server shut down inside one metrics interval
        // still lands its counters and a final SLO evaluation.
        scrape(&obs, &cells, &engines, &sessions, &mut histogram_baseline);
        obs.slo.evaluate(&obs.timeseries, Some(&obs.events));
    });
    SamplerThread { stop, handle }
}

/// One metrics sweep: counters and gauges into the time-series store.
fn scrape(
    obs: &ObsHub,
    cells: &StatsCells,
    engines: &[Arc<EngineCells>],
    sessions: &OnceLock<Arc<SessionStore>>,
    histogram_baseline: &mut BTreeMap<(String, &'static str), HistogramSnapshot>,
) {
    let ts = &obs.timeseries;
    // Queue depth, backlog and the outcome counters live in the engine
    // cells; the server-wide series are their sums.
    let engines_sum = |read: fn(&EngineCells) -> u64| engines.iter().map(|e| read(e)).sum::<u64>();
    let completed = engines_sum(|e| e.completed.load(Ordering::Acquire));
    let failed = engines_sum(|e| e.failed.load(Ordering::Acquire))
        + cells.unknown_engine.load(Ordering::Acquire);
    let shed_queue_full = cells.rejected_queue_full.load(Ordering::Acquire);
    let shed_deadline = cells.rejected_deadline.load(Ordering::Acquire);
    let shed_no_engine = cells.rejected_no_engine.load(Ordering::Acquire);
    let shed_unavailable = cells.rejected_unavailable.load(Ordering::Acquire);
    let shed_shutdown = cells.rejected_shutdown.load(Ordering::Acquire);
    let shed_total =
        shed_queue_full + shed_deadline + shed_no_engine + shed_unavailable + shed_shutdown;
    // Availability counts every user-visible terminal outcome: successes
    // are good; engine failures plus availability sheds (open breaker,
    // shutdown) are bad. Load-management sheds (queue-full, deadline)
    // count against `shed_rate` instead.
    let errored = failed + shed_unavailable + shed_shutdown;

    ts.record_counter(
        "requests.submitted",
        cells.submitted.load(Ordering::Acquire) as f64,
    );
    ts.record_counter(
        "requests.admitted",
        cells.admitted.load(Ordering::Acquire) as f64,
    );
    ts.record_counter("requests.ok", completed as f64);
    ts.record_counter("requests.failed", failed as f64);
    ts.record_counter("requests.shed", shed_total as f64);
    ts.record_counter("requests.finished", (completed + errored) as f64);
    ts.record_counter(
        "batches.total",
        engines_sum(|e| e.batches_executed.load(Ordering::Acquire)) as f64,
    );
    ts.record_gauge(
        "queue_depth.all",
        engines_sum(|e| e.pending.load(Ordering::Acquire) as u64) as f64,
    );
    ts.record_gauge(
        "backlog_ops.all",
        engines_sum(|e| e.backlog_ops.load(Ordering::Acquire)) as f64,
    );

    for engine in engines {
        let name = engine.name.as_str();
        ts.record_gauge(
            &format!("queue_depth.{name}"),
            engine.pending.load(Ordering::Acquire) as f64,
        );
        ts.record_gauge(
            &format!("backlog_ops.{name}"),
            engine.backlog_ops.load(Ordering::Acquire) as f64,
        );
        ts.record_gauge(
            &format!("drain_ops_per_second.{name}"),
            engine.drain.ops_per_second(),
        );
        let breaker_level = match engine.breaker.snapshot().state {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        };
        ts.record_gauge(&format!("breaker_state.{name}"), breaker_level);
        ts.record_counter(
            &format!("engine.completed.{name}"),
            engine.completed.load(Ordering::Acquire) as f64,
        );
        ts.record_counter(
            &format!("engine.failed.{name}"),
            engine.failed.load(Ordering::Acquire) as f64,
        );
        ts.record_counter(
            &format!("engine.batches.{name}"),
            engine.batches_executed.load(Ordering::Acquire) as f64,
        );
        ts.record_counter(
            &format!("engine.retries.{name}"),
            engine.retries_attempted.load(Ordering::Acquire) as f64,
        );
        ts.record_counter(
            &format!("engine.stream_events.{name}"),
            engine.stream_events.load(Ordering::Acquire) as f64,
        );
    }

    // Session-slot occupancy, when a gateway registered its store with
    // this server (the store lives at the edge; the sampler just reads
    // its counters into the same temporal layer everything else uses).
    if let Some(store) = sessions.get() {
        let stats = store.stats();
        ts.record_gauge("sessions.active", stats.active as f64);
        ts.record_counter("sessions.evicted.ttl", stats.evicted_ttl as f64);
        ts.record_counter("sessions.evicted.capacity", stats.evicted_capacity as f64);
        ts.record_counter("sessions.evicted.explicit", stats.evicted_explicit as f64);
    }

    // Router verdicts, as per-verdict totals across engines.
    let mut verdict_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ((_, verdict), count) in obs.router.snapshot() {
        *verdict_totals.entry(verdict).or_default() += count;
    }
    for (verdict, total) in verdict_totals {
        ts.record_counter(&format!("router.{verdict}"), total as f64);
    }

    // Stage-latency quantiles: diff each histogram against the previous
    // sweep so the gauges describe *this window's* latency, then merge
    // the per-engine windows into an all-engines series per stage.
    let mut merged_by_stage: BTreeMap<&'static str, HistogramSnapshot> = BTreeMap::new();
    for (key, snapshot) in obs.histograms.snapshot_all() {
        let baseline = histogram_baseline.remove(&key).unwrap_or_default();
        let window = snapshot.diff(&baseline);
        if window.count() > 0 {
            let (engine, stage) = (&key.0, key.1);
            for (q, label) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
                ts.record_gauge(
                    &format!("stage_{label}.{engine}.{stage}"),
                    window.quantile(q),
                );
            }
            merged_by_stage.entry(stage).or_default().merge(&window);
        }
        histogram_baseline.insert(key, snapshot);
    }
    for (stage, window) in merged_by_stage {
        for (q, label) in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")] {
            ts.record_gauge(&format!("stage_{label}.all.{stage}"), window.quantile(q));
        }
    }
}
