//! The traced run's per-layer ledger: stage spans the stack returns for
//! `"trace": true`, finished traces from `GET /v1/debug/traces/<id>`, and
//! replays of sampled batches through each layer's public functions.
//! Nothing here adds instrumentation inside the program.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use bishop_core::{BishopConfig, BishopSimulator};
use bishop_engine::cache::synthesize;
use bishop_engine::{CacheStats, CatalogEntry, EngineBatch, InferenceEngine, SimulatorEngine};
use bishop_gateway::Json;
use bishop_model::TransformerStepper;

use crate::http::Conn;
use crate::replay::{
    engine_batch, native_inputs, replay_forward, stateful_batch, Counts, LayerTimes,
};
use crate::stats::{closure, mean, median, percentile};
use crate::workload::{
    blocking_infer, entry, session_op, Infer, Op, Phase, Workload, CIFAR, IMAGENET,
};

/// Fixed probe seeds for the exact counts: independent of the run seed, so
/// every run of every seed reports the same counts.
pub const PROBE_SEEDS: [u64; 4] = [1, 2, 3, 4];
/// Batches replayed through the model layers per traced run.
const SAMPLED_BATCHES: usize = 6;
/// Timed passes of each sampled batch, `infer` and replay interleaved. The
/// fastest of each is kept: time the host's other tenants take only ever
/// adds to a pass, so the fastest is the one least disturbed.
const REPLAY_REPS: usize = 9;
/// The replayed layer groups' summed self time must lie within this share
/// of the un-split `SpikingTransformer::infer` time. `infer` also clones
/// every intermediate tensor into its workload record, which the replay
/// does not, so the sum runs a little short of the whole.
pub const MODEL_CLOSURE_TOLERANCE: f64 = 0.2;
/// The median request's stage spans must sum to its client-observed
/// latency to within this share. The uncovered rest is the socket round
/// trip and the HTTP read before the gateway opens the trace.
pub const SPAN_CLOSURE_TOLERANCE: f64 = 0.1;
/// Finished traces fetched per traced run (the store keeps the last 256).
const FETCHED_TRACES: usize = 128;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Whether the value repeats exactly across runs (a count on fixed
    /// probes, or simulated time), so a later change can compare it
    /// exactly.
    pub exact: bool,
}

/// Every per-layer metric: name, unit, exact. Each is measured on every
/// workload, from its own traffic or from isolated probes.
pub const PER_LAYER: [(&str, &str, bool); 40] = [
    ("gateway.parse_ms", "ms", false),
    ("gateway.response_write_ms", "ms", false),
    ("gateway.stream_write_ms", "ms", false),
    ("gateway.step_gap_p50_ms", "ms", false),
    ("gateway.ttfe_p99_ms", "ms", false),
    ("runtime.admission_ms", "ms", false),
    ("runtime.queue_wait_ms", "ms", false),
    ("runtime.batch_formation_ms", "ms", false),
    ("runtime.batch_size_mean", "count", false),
    ("runtime.retries", "count", false),
    ("engine.execute_ms", "ms", false),
    ("engine.native_wall_ms", "ms", false),
    ("engine.sim_synthesize_ms", "ms", false),
    ("engine.sim_simulate_ms", "ms", false),
    ("engine.result_cache_hit_ratio", "ratio", false),
    ("engine.calibration_cache_hit_ratio", "ratio", false),
    ("model.forward_ms", "ms", false),
    ("model.tokenizer_ms", "ms", false),
    ("model.p1_ms", "ms", false),
    ("model.atn_ms", "ms", false),
    ("model.p2_ms", "ms", false),
    ("model.mlp_ms", "ms", false),
    ("model.readout_ms", "ms", false),
    ("model.stepper_step_ms", "ms", false),
    ("model.p1_in_density", "ratio", true),
    ("model.qk_density", "ratio", true),
    ("model.mlp_hidden_density", "ratio", true),
    ("neuron.lif_ms", "ms", false),
    ("kernels.spike_matmul_ms", "ms", false),
    ("kernels.attention_scores_ms", "ms", false),
    ("kernels.select_accumulate_ms", "ms", false),
    ("kernels.spike_matmul_accums", "count", true),
    ("kernels.attention_popcount_words", "count", true),
    ("kernels.bytes_moved", "B", true),
    ("session.create_ms", "ms", false),
    ("session.delete_ms", "ms", false),
    ("core.simulated_cycles", "cycles", true),
    ("core.simulated_energy_mj", "mJ", true),
    ("core.host_us_per_layer", "us", false),
    ("obs.trace_overhead_pct", "%", false),
];

/// The ledger being filled: every per-layer metric starts unset.
struct Sheet(BTreeMap<&'static str, Option<f64>>);

impl Sheet {
    fn new() -> Self {
        Self(PER_LAYER.iter().map(|&(name, _, _)| (name, None)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = Some(value);
    }

    /// The metrics in `PER_LAYER` order; an unset one is a failure.
    fn into_metrics(self, failures: &mut Vec<String>) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, exact)| Metric {
                name,
                unit,
                value: self.0[name].unwrap_or_else(|| {
                    failures.push(format!("{name} was not measured"));
                    0.0
                }),
                exact,
            })
            .collect()
    }
}

/// Isolated probes of the layers a workload's own traffic does not reach,
/// taken on the live stack after the timed phases, so every per-layer
/// metric is measured on every workload.
#[derive(Debug, Default)]
pub struct Probes {
    /// Traced native sessions on the probe seeds (non-stream workloads).
    pub sessions: Vec<Op>,
    /// Blocking native singleton requests on the probe seeds (simulator
    /// workloads).
    pub native: Vec<Infer>,
}

/// Runs the isolated probes `workload` needs, one request at a time.
pub fn probe_layers(addr: SocketAddr, workload: Workload) -> Result<Probes, String> {
    let mut conn = Conn::open(addr)?;
    let mut probes = Probes::default();
    for seed in PROBE_SEEDS {
        if workload != Workload::NativeStream {
            probes
                .sessions
                .push(session_op(&mut conn, CIFAR, seed, true)?);
        }
        if !workload.is_native() {
            probes
                .native
                .push(blocking_infer(&mut conn, CIFAR, "native", seed, false)?);
        }
    }
    Ok(probes)
}

/// What the traced run hands the ledger.
pub struct TracedRun<'a> {
    /// The workload.
    pub workload: Workload,
    /// The untraced half.
    pub untraced: &'a Phase,
    /// The traced half (`"trace": true` on every request).
    pub traced: &'a Phase,
    /// Finished traces fetched before shutdown.
    pub finished: &'a [Finished],
    /// Isolated probes of the layers the workload does not reach.
    pub probes: &'a Probes,
    /// Simulator result-cache counters over the traced half.
    pub result_cache: CacheStats,
    /// Simulator calibration-cache counters over the traced half.
    pub calibration_cache: CacheStats,
}

/// Per-layer metrics plus the closure checks' verdicts and notes.
pub struct Ledger {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Closure or replay failures; any entry fails the run.
    pub failures: Vec<String>,
    /// Human-readable closure figures.
    pub notes: Vec<String>,
}

fn infers(ops: &[Op]) -> Vec<&Infer> {
    ops.iter().flat_map(|op| op.infers.iter()).collect()
}

fn mean_ms(values: impl Iterator<Item = f64>) -> f64 {
    mean(&values.map(|s| s * 1e3).collect::<Vec<_>>())
}

/// Mean milliseconds of the stage span `label` over the requests that
/// carry it.
fn span_ms(infers: &[&Infer], label: &str) -> f64 {
    mean_ms(
        infers
            .iter()
            .flat_map(|i| i.spans.iter())
            .filter(|(l, _)| l == label)
            .map(|(_, seconds)| *seconds),
    )
}

/// Every `SAMPLED_BATCHES`-th-spaced item, at most `SAMPLED_BATCHES`.
fn sample<T>(items: Vec<T>) -> Vec<T> {
    let step = (items.len() / SAMPLED_BATCHES).max(1);
    items
        .into_iter()
        .step_by(step)
        .take(SAMPLED_BATCHES)
        .collect()
}

/// Builds the ledger from the phases, the fetched traces and the probes.
pub fn build(run: &TracedRun) -> Ledger {
    let mut sheet = Sheet::new();
    let mut ledger = Ledger {
        metrics: Vec::new(),
        failures: Vec::new(),
        notes: Vec::new(),
    };
    let workload = run.workload;
    let traced = infers(&run.traced.ops);

    sheet.set("gateway.parse_ms", span_ms(&traced, "parse"));
    sheet.set("runtime.admission_ms", span_ms(&traced, "admission"));
    sheet.set("runtime.queue_wait_ms", span_ms(&traced, "queue_wait"));
    sheet.set(
        "runtime.batch_formation_ms",
        span_ms(&traced, "batch_formation"),
    );
    sheet.set("engine.execute_ms", span_ms(&traced, "engine_execute"));
    let sizes: Vec<f64> = traced.iter().map(|i| i.batch_size as f64).collect();
    sheet.set("runtime.batch_size_mean", mean(&sizes));
    sheet.set(
        "runtime.retries",
        traced.iter().map(|i| i.retries as f64).sum(),
    );
    // No lookups (native-*) reads as a ratio of 0.
    sheet.set("engine.result_cache_hit_ratio", run.result_cache.hit_rate());
    sheet.set(
        "engine.calibration_cache_hit_ratio",
        run.calibration_cache.hit_rate(),
    );
    let untraced_rate = run.untraced.ops_per_s();
    sheet.set(
        "obs.trace_overhead_pct",
        (untraced_rate - run.traced.ops_per_s()) / untraced_rate * 100.0,
    );
    let mut first_events: Vec<f64> = run.untraced.ops.iter().map(|op| op.ttfe * 1e3).collect();
    first_events.sort_by(f64::total_cmp);
    if !first_events.is_empty() {
        sheet.set("gateway.ttfe_p99_ms", percentile(&first_events, 99.0));
    }

    // Sessions and streams: the workload's own on native-stream, isolated
    // probe sessions elsewhere.
    let stream = workload == Workload::NativeStream;
    let (sessions, gap_ops) = if stream {
        (&run.traced.ops, &run.untraced.ops)
    } else {
        (&run.probes.sessions, &run.probes.sessions)
    };
    sheet.set(
        "gateway.stream_write_ms",
        span_ms(&infers(sessions), "stream_write"),
    );
    sheet.set(
        "session.create_ms",
        mean_ms(sessions.iter().filter_map(|op| op.session).map(|s| s.0)),
    );
    sheet.set(
        "session.delete_ms",
        mean_ms(sessions.iter().filter_map(|op| op.session).map(|s| s.1)),
    );
    let gaps: Vec<f64> = gap_ops
        .iter()
        .flat_map(|op| op.step_gaps.iter().map(|g| g * 1e3))
        .collect();
    sheet.set("gateway.step_gap_p50_ms", median(&gaps).unwrap_or(0.0));
    let native_answers = if workload.is_native() {
        traced.clone()
    } else {
        run.probes.native.iter().collect()
    };
    sheet.set(
        "engine.native_wall_ms",
        mean_ms(native_answers.iter().filter_map(|i| i.wall_seconds)),
    );

    span_closure(run.finished, &traced, &mut sheet, &mut ledger);

    let cifar = entry(CIFAR);
    // A session's last half carries its full-horizon logits.
    let session_results: Vec<&Infer> =
        sample(sessions.iter().filter_map(|op| op.infers.last()).collect());
    let model_batches: Vec<(EngineBatch, Option<u64>)> = match workload {
        Workload::NativeClosed => sample(complete_batches(&traced))
            .into_iter()
            .map(|riders| {
                let seeds: Vec<u64> = riders.iter().map(|r| r.seed).collect();
                let answered = (riders.len() == 1)
                    .then_some(riders[0].prediction)
                    .flatten();
                (engine_batch(&cifar, "native", &seeds), answered)
            })
            .collect(),
        Workload::NativeStream => session_results
            .iter()
            .map(|r| (stateful_batch(&cifar, r.seed), None))
            .collect(),
        _ => PROBE_SEEDS
            .iter()
            .map(|&seed| (engine_batch(&cifar, "native", &[seed]), None))
            .collect(),
    };
    model_ledger(&model_batches, &mut sheet, &mut ledger);
    stepper_ledger(&cifar, &session_results, &mut sheet, &mut ledger);

    let sim_batches: Vec<(EngineBatch, Option<u64>)> = if workload == Workload::SimCold {
        sample(complete_batches(&traced))
            .into_iter()
            .map(|riders| {
                let seeds: Vec<u64> = riders.iter().map(|r| r.seed).collect();
                let answered = (riders.len() == 1).then_some(riders[0].cycles);
                (
                    engine_batch(&entry(riders[0].model), "simulator", &seeds),
                    answered,
                )
            })
            .collect()
    } else {
        probe_sim_batches()
    };
    sim_ledger(&sim_batches, &mut sheet, &mut ledger);
    exact_counts(&mut sheet);
    ledger.metrics = sheet.into_metrics(&mut ledger.failures);
    ledger
}

/// One finished trace: its stage spans' sum and its `response_write`.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    /// Request id.
    pub id: u64,
    /// Seconds the stage spans sum to.
    pub spans: f64,
    /// Seconds of the `response_write` span.
    pub response_write: f64,
}

/// Fetches the finished traces of the traced phase's latest requests from
/// `GET /v1/debug/traces/<id>`: a response's own `"timings"` necessarily
/// ends before its write. Traces the bounded store already evicted are
/// skipped.
pub fn fetch_traces(addr: SocketAddr, traced: &Phase) -> Result<Vec<Finished>, String> {
    let mut conn = Conn::open(addr)?;
    let mut ids: Vec<u64> = infers(&traced.ops).iter().map(|i| i.id).collect();
    ids.sort_unstable_by(|a, b| b.cmp(a));
    let mut finished = Vec::new();
    for id in ids.into_iter().take(FETCHED_TRACES) {
        let reply = conn.request("GET", &format!("/v1/debug/traces/{id}"), "")?;
        if reply.status != 200 {
            continue;
        }
        let mut trace = Finished {
            id,
            spans: 0.0,
            response_write: 0.0,
        };
        if let Some(Json::Array(stages)) = reply.json()?.get("stages") {
            for stage in stages {
                let seconds = stage.get("seconds").and_then(Json::as_f64).unwrap_or(0.0);
                trace.spans += seconds;
                if stage.get("stage").and_then(Json::as_str) == Some("response_write") {
                    trace.response_write = seconds;
                }
            }
        }
        finished.push(trace);
    }
    Ok(finished)
}

/// The median request's stage spans must add up to its client-observed
/// latency. (One request's spans can outrun its client time: the gateway
/// stamps `response_write` after the bytes the client already holds left
/// the socket, and a preempted thread stamps late.)
fn span_closure(finished: &[Finished], traced: &[&Infer], sheet: &mut Sheet, ledger: &mut Ledger) {
    let client: BTreeMap<u64, f64> = traced.iter().map(|i| (i.id, i.seconds)).collect();
    let mut coverage = Vec::new();
    for trace in finished {
        let Some(&seconds) = client.get(&trace.id) else {
            continue;
        };
        coverage.push(trace.spans / seconds);
    }
    let writes: Vec<f64> = finished.iter().map(|t| t.response_write * 1e3).collect();
    sheet.set("gateway.response_write_ms", mean(&writes));
    match median(&coverage) {
        Some(covered) => {
            ledger.notes.push(format!(
                "span closure: the median request's stage spans cover {:.1}% of its client \
                 latency ({} traces, tolerance {:.0}%)",
                covered * 100.0,
                coverage.len(),
                SPAN_CLOSURE_TOLERANCE * 100.0
            ));
            if let Err(error) = closure(&[covered], 1.0, SPAN_CLOSURE_TOLERANCE) {
                ledger.failures.push(format!("span {error}"));
            }
        }
        None => ledger
            .failures
            .push("no finished trace was fetched".to_string()),
    }
}

/// Complete batches seen in the traced phase (every rider answered),
/// riders in request-id order.
fn complete_batches<'a>(traced: &[&'a Infer]) -> Vec<Vec<&'a Infer>> {
    let mut groups: BTreeMap<u64, Vec<&Infer>> = BTreeMap::new();
    for infer in traced {
        groups.entry(infer.batch_id).or_default().push(infer);
    }
    groups
        .into_values()
        .filter(|riders| riders.len() as u64 == riders[0].batch_size)
        .map(|mut riders| {
            riders.sort_by_key(|r| r.id);
            riders
        })
        .collect()
}

/// Singleton simulator batches of both serving models on the probe seeds.
fn probe_sim_batches() -> Vec<(EngineBatch, Option<u64>)> {
    [CIFAR, IMAGENET]
        .iter()
        .flat_map(|&model| {
            PROBE_SEEDS
                .iter()
                .map(move |&seed| (engine_batch(&entry(model), "simulator", &[seed]), None))
        })
        .collect()
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Replays native batches layer by layer: the replay must reproduce
/// `infer`'s logits bit for bit, a singleton's rebuilt prediction must be
/// the one the engine answered, and the layer groups must add up to the
/// un-split pass.
fn model_ledger(batches: &[(EngineBatch, Option<u64>)], sheet: &mut Sheet, ledger: &mut Ledger) {
    if batches.is_empty() {
        ledger
            .failures
            .push("no complete native batch to replay".to_string());
        return;
    }
    let mut forward_sum = 0.0;
    let mut layer_sums = [0.0; 10];
    for (batch, answered) in batches {
        let (model, patches) = native_inputs(batch);
        // One untimed pass warms the freshly built weights into cache.
        let reference = model.infer(&patches);
        if let Some(answered) = answered {
            if *answered != reference.prediction as u64 {
                ledger.failures.push(format!(
                    "{}: rebuilt model predicts {}, the engine answered {answered}",
                    batch.config.name, reference.prediction
                ));
            }
        }
        let mut forward = f64::INFINITY;
        let mut fastest: Option<LayerTimes> = None;
        let mut replay_matches = true;
        for _ in 0..REPLAY_REPS {
            let start = Instant::now();
            std::hint::black_box(model.infer(&patches));
            forward = forward.min(start.elapsed().as_secs_f64());
            let mut times = LayerTimes::default();
            let logits = replay_forward(&model, &patches, &mut times, None);
            replay_matches &= bits(&logits) == bits(&reference.logits);
            let total = |t: &LayerTimes| t.groups().iter().sum::<f64>();
            if fastest.as_ref().is_none_or(|f| total(&times) < total(f)) {
                fastest = Some(times);
            }
        }
        if !replay_matches {
            ledger.failures.push(format!(
                "{} seed {}: layer replay logits differ from SpikingTransformer::infer",
                batch.config.name, batch.seed
            ));
        }
        forward_sum += forward;
        let fields = fastest.expect("REPLAY_REPS is at least one").fields();
        for (sum, field) in layer_sums.iter_mut().zip(fields) {
            *sum += field;
        }
    }
    let n = batches.len() as f64;
    let times = LayerTimes::from_fields(layer_sums.map(|s| s / n * 1e3));
    let forward_ms = forward_sum / n * 1e3;
    match closure(&times.groups(), forward_ms, MODEL_CLOSURE_TOLERANCE) {
        Ok(ratio) => ledger.notes.push(format!(
            "model closure: replayed layer groups sum to {:.1}% of infer's {forward_ms:.3} ms \
             ({} batches, tolerance {:.0}%)",
            ratio * 100.0,
            batches.len(),
            MODEL_CLOSURE_TOLERANCE * 100.0
        )),
        Err(error) => ledger.failures.push(format!("model {error}")),
    }
    sheet.set("model.forward_ms", forward_ms);
    sheet.set("model.tokenizer_ms", times.tokenizer);
    sheet.set("model.p1_ms", times.p1);
    sheet.set("model.atn_ms", times.atn);
    sheet.set("model.p2_ms", times.p2);
    sheet.set("model.mlp_ms", times.mlp);
    sheet.set("model.readout_ms", times.readout);
    sheet.set("neuron.lif_ms", times.lif);
    sheet.set("kernels.spike_matmul_ms", times.spike_matmul);
    sheet.set("kernels.attention_scores_ms", times.attention_scores);
    sheet.set("kernels.select_accumulate_ms", times.select_accumulate);
}

/// Times `TransformerStepper::step` on sessions; the stepped readout must
/// equal the logits the session streamed, bit for bit, which also proves
/// the rebuilt weights and input are the engine's.
fn stepper_ledger(
    cifar: &Arc<CatalogEntry>,
    sessions: &[&Infer],
    sheet: &mut Sheet,
    ledger: &mut Ledger,
) {
    let mut steps = Vec::new();
    for session in sessions {
        let batch = stateful_batch(cifar, session.seed);
        let (model, patches) = native_inputs(&batch);
        let mut stepper = TransformerStepper::new(&model, &patches);
        for _ in 0..batch.config.timesteps {
            let start = Instant::now();
            stepper.step();
            steps.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let stepped: Vec<f64> = stepper
            .finish()
            .logits
            .iter()
            .map(|&v| f64::from(v))
            .collect();
        if session.logits.as_ref() != Some(&stepped) {
            ledger.failures.push(format!(
                "session seed {}: stepped logits differ from the streamed result",
                session.seed
            ));
        }
    }
    match median(&steps) {
        Some(step) => sheet.set("model.stepper_step_ms", step),
        None => ledger.failures.push("no session to step".to_string()),
    }
}

/// Replays simulator batches through `synthesize` and
/// `BishopSimulator::simulate_named`; a singleton's replayed cycles must be
/// the ones the engine answered.
fn sim_ledger(batches: &[(EngineBatch, Option<u64>)], sheet: &mut Sheet, ledger: &mut Ledger) {
    let simulator = BishopSimulator::new(BishopConfig::default());
    let (mut synth, mut sim, mut per_layer) = (Vec::new(), Vec::new(), Vec::new());
    for (batch, answered) in batches {
        let start = Instant::now();
        let workload = synthesize(&batch.config, batch.regime, batch.seed);
        synth.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let metrics =
            simulator.simulate_named(&workload, &batch.options, batch.config.name.clone());
        let seconds = start.elapsed().as_secs_f64();
        sim.push(seconds * 1e3);
        per_layer.push(seconds * 1e6 / metrics.layers.len().max(1) as f64);
        if let Some(answered) = answered {
            if metrics.total_cycles() != *answered {
                ledger.failures.push(format!(
                    "{} seed {}: replayed simulation gives {} cycles, the engine answered {answered}",
                    batch.config.name,
                    batch.seed,
                    metrics.total_cycles()
                ));
            }
        }
    }
    if sim.is_empty() {
        ledger
            .failures
            .push("no complete simulator batch to replay".to_string());
        return;
    }
    sheet.set("engine.sim_synthesize_ms", mean(&synth));
    sheet.set("engine.sim_simulate_ms", mean(&sim));
    sheet.set("core.host_us_per_layer", mean(&per_layer));
}

/// The exact counts, on the fixed probes: kernel work and spike densities
/// of one native forward pass (mean over the probes), and the simulated
/// cycles and energy of singleton probes of both serving models (so a
/// change that only speeds the simulator up can show every simulated
/// statistic unchanged).
fn exact_counts(sheet: &mut Sheet) {
    let cifar = entry(CIFAR);
    let mut counts = Counts::default();
    for seed in PROBE_SEEDS {
        let (model, patches) = native_inputs(&engine_batch(&cifar, "native", &[seed]));
        replay_forward(
            &model,
            &patches,
            &mut LayerTimes::default(),
            Some(&mut counts),
        );
    }
    let n = PROBE_SEEDS.len() as f64;
    let density = |(ones, all): (u64, u64)| ones as f64 / all.max(1) as f64;
    sheet.set(
        "kernels.spike_matmul_accums",
        counts.spike_matmul_accums as f64 / n,
    );
    sheet.set(
        "kernels.attention_popcount_words",
        counts.attention_popcount_words as f64 / n,
    );
    sheet.set("kernels.bytes_moved", counts.bytes_moved as f64 / n);
    sheet.set("model.p1_in_density", density(counts.p1_in));
    sheet.set("model.qk_density", density(counts.qk));
    sheet.set("model.mlp_hidden_density", density(counts.mlp_hidden));

    let engine = SimulatorEngine::new(BishopSimulator::new(BishopConfig::default()));
    let (mut cycles, mut energy) = (0.0, 0.0);
    for (batch, _) in probe_sim_batches() {
        let output = engine
            .execute(&batch)
            .expect("the simulator runs every serving model");
        cycles += output.cycles as f64;
        energy += output.energy_mj;
    }
    sheet.set("core.simulated_cycles", cycles);
    sheet.set("core.simulated_energy_mj", energy);
}
