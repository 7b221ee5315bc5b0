//! The four closed-loop workloads, the stack they run against, and the
//! per-response correctness checks.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bishop_engine::{CalibrationCache, CatalogEntry, ModelCatalog, ResultCache};
use bishop_gateway::{Gateway, GatewayConfig, Json};
use bishop_runtime::{OnlineConfig, OnlineServer, RuntimeConfig};

use crate::http::{Conn, Event};
use crate::seeds::SeedStream;

/// The CIFAR-10 serving model (no ECP).
pub const CIFAR: &str = "cifar10-serve";
/// The ImageNet-100 serving model (ECP θp = 6).
pub const IMAGENET: &str = "imagenet100-serve";
/// Closed-loop clients per workload: one per core of the measured host
/// class, each on its own keep-alive connection.
pub const CLIENTS: usize = 2;
/// Timesteps of the first half of a split session (the serving models run
/// four).
pub const FIRST_HALF: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Blocking native inference, a fresh seed per request.
    NativeClosed,
    /// Native sessions: create, two streamed halves, delete.
    NativeStream,
    /// Simulator inference on one constant seed: the result cache answers.
    SimReplay,
    /// Simulator inference on fresh seeds over both serving models.
    SimCold,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::NativeClosed,
        Workload::NativeStream,
        Workload::SimReplay,
        Workload::SimCold,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NativeClosed => "native-closed",
            Workload::NativeStream => "native-stream",
            Workload::SimReplay => "sim-replay",
            Workload::SimCold => "sim-cold",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engine every request of the workload names.
    pub fn engine(self) -> &'static str {
        match self {
            Workload::NativeClosed | Workload::NativeStream => "native",
            Workload::SimReplay | Workload::SimCold => "simulator",
        }
    }

    /// Whether the workload executes the native model.
    pub fn is_native(self) -> bool {
        self.engine() == "native"
    }

    /// The models the workload sends, in alternation order.
    pub fn models(self) -> &'static [&'static str] {
        match self {
            Workload::SimCold => &[CIFAR, IMAGENET],
            _ => &[CIFAR],
        }
    }
}

/// The catalog entry of a serving model.
pub fn entry(model: &str) -> Arc<CatalogEntry> {
    Arc::clone(
        ModelCatalog::serving_default()
            .get(model)
            .expect("serving models are catalogued"),
    )
}

/// Output classes of a serving model.
pub fn classes(model: &str) -> usize {
    entry(model).config.dataset.classes()
}

/// The stack under test at its stock defaults, with the benchmark holding
/// the simulator's caches so their hit ratios can be read.
pub struct Stack {
    runtime: OnlineServer,
    gateway: Gateway,
    /// Workload-synthesis cache of the simulator engine.
    pub calibration: Arc<CalibrationCache>,
    /// Batch-result cache of the simulator engine.
    pub results: Arc<ResultCache>,
}

impl Stack {
    /// Boots runtime and gateway in-process with no knob overridden.
    pub fn boot() -> Result<Self, String> {
        let calibration = Arc::new(CalibrationCache::new());
        let results = Arc::new(ResultCache::new());
        let runtime = OnlineServer::with_caches(
            OnlineConfig::new(RuntimeConfig::default()),
            Arc::clone(&calibration),
            Arc::clone(&results),
        );
        let gateway = match Gateway::start(GatewayConfig::default(), runtime.handle()) {
            Ok(gateway) => gateway,
            Err(error) => {
                runtime.shutdown();
                return Err(format!("gateway bind: {error}"));
            }
        };
        Ok(Self {
            runtime,
            gateway,
            calibration,
            results,
        })
    }

    /// The gateway's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.gateway.local_addr()
    }

    /// Graceful shutdown of gateway then runtime; joins their threads.
    pub fn shutdown(self) {
        self.gateway.shutdown();
        self.runtime.shutdown();
    }
}

/// What one `/v1/infer` response said, after its checks passed.
#[derive(Debug, Clone)]
pub struct Infer {
    /// `X-Request-Id`.
    pub id: u64,
    /// Requested model.
    pub model: &'static str,
    /// Requested seed.
    pub seed: u64,
    /// Client-observed seconds from send to the complete response.
    pub seconds: f64,
    /// Batch the request rode in.
    pub batch_id: u64,
    /// Riders of that batch.
    pub batch_size: u64,
    /// Native measured wall-clock of the batch.
    pub wall_seconds: Option<f64>,
    /// Native prediction of the batch.
    pub prediction: Option<u64>,
    /// Simulated cycles of the batch.
    pub cycles: u64,
    /// Simulated energy share of the request.
    pub energy_mj: f64,
    /// Stage spans (label, seconds) from `"timings"` (traced runs only).
    pub spans: Vec<(String, f64)>,
    /// Extra execution attempts from `"timings"`.
    pub retries: u64,
    /// Terminal logits of a streamed response.
    pub logits: Option<Vec<f64>>,
}

/// One closed-loop operation: a request, or a whole session.
#[derive(Debug, Clone)]
pub struct Op {
    /// Client-observed seconds of the whole operation.
    pub seconds: f64,
    /// Seconds to the first event: the first step event of a stream, or
    /// the complete response of a blocking request.
    pub ttfe: f64,
    /// Gaps between consecutive step events of each stream.
    pub step_gaps: Vec<f64>,
    /// The inference requests of the operation.
    pub infers: Vec<Infer>,
    /// Session create and delete seconds (sessions only).
    pub session: Option<(f64, f64)>,
    /// Seconds from the phase start to the operation's completion.
    pub done: f64,
}

fn field_u64(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("response lacks integer \"{key}\": {}", json.encode()))
}

fn field_f64(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("response lacks number \"{key}\": {}", json.encode()))
}

/// Checks one decoded result body against what was asked: the requested
/// engine, a prediction inside the class range where the engine runs the
/// model, positive simulated cost where it simulates one.
pub fn check_result(
    json: &Json,
    engine: &str,
    model: &'static str,
    seed: u64,
) -> Result<Infer, String> {
    let named = json.get("engine").and_then(Json::as_str);
    if named != Some(engine) {
        return Err(format!("asked engine {engine}, response names {named:?}"));
    }
    let prediction = json.get("batch_prediction").and_then(Json::as_u64);
    let cycles = field_u64(json, "cycles")?;
    let energy_mj = field_f64(json, "energy_mj")?;
    if engine == "native" {
        let classes = classes(model) as u64;
        match prediction {
            Some(p) if p < classes => {}
            other => {
                return Err(format!(
                    "native batch_prediction {other:?} outside 0..{classes}"
                ))
            }
        }
    } else if cycles == 0 || energy_mj.is_nan() || energy_mj <= 0.0 {
        return Err(format!(
            "simulated cost missing: cycles {cycles}, energy {energy_mj}"
        ));
    }
    let mut spans = Vec::new();
    let mut retries = 0;
    if let Some(timings) = json.get("timings") {
        retries = field_u64(timings, "retries")?;
        if let Some(Json::Array(stages)) = timings.get("stages") {
            for stage in stages {
                let label = stage
                    .get("stage")
                    .and_then(Json::as_str)
                    .ok_or("stage span without a label")?;
                spans.push((label.to_string(), field_f64(stage, "seconds")?));
            }
        }
    }
    let logits = match json.get("logits") {
        Some(Json::Array(values)) => Some(
            values
                .iter()
                .map(|v| v.as_f64().ok_or("non-numeric logit"))
                .collect::<Result<Vec<f64>, _>>()?,
        ),
        _ => None,
    };
    Ok(Infer {
        id: field_u64(json, "request_id")?,
        model,
        seed,
        seconds: 0.0,
        batch_id: field_u64(json, "batch_id")?,
        batch_size: field_u64(json, "batch_size")?,
        wall_seconds: json.get("wall_seconds").and_then(Json::as_f64),
        prediction,
        cycles,
        energy_mj,
        spans,
        retries,
        logits,
    })
}

/// The `/v1/infer` body of a blocking request.
pub fn infer_body(model: &str, engine: &str, seed: u64, traced: bool) -> String {
    let trace = if traced { ", \"trace\": true" } else { "" };
    format!("{{\"model\": \"{model}\", \"engine\": \"{engine}\", \"seed\": {seed}{trace}}}")
}

/// Sends one blocking inference and checks its response.
pub fn blocking_infer(
    conn: &mut Conn,
    model: &'static str,
    engine: &str,
    seed: u64,
    traced: bool,
) -> Result<Infer, String> {
    let start = Instant::now();
    let reply = conn.request(
        "POST",
        "/v1/infer",
        &infer_body(model, engine, seed, traced),
    )?;
    let seconds = start.elapsed().as_secs_f64();
    if reply.status != 200 {
        return Err(format!(
            "status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    let mut infer = check_result(&reply.json()?, engine, model, seed)?;
    if reply.request_id != Some(infer.id) {
        return Err(format!(
            "X-Request-Id {:?} differs from body request_id {}",
            reply.request_id, infer.id
        ));
    }
    infer.seconds = seconds;
    Ok(infer)
}

/// A checked streamed inference: its result, its step events (index,
/// arrival) and the arrival of the first event.
pub struct Streamed {
    /// The checked terminal result.
    pub infer: Infer,
    /// Absolute step indices in arrival order.
    pub indices: Vec<u64>,
    /// Step event arrival instants.
    pub arrivals: Vec<Instant>,
}

/// Sends one streamed native inference and checks every event: step events
/// carry absolute indices up to `total`, and one terminal result follows.
pub fn streamed_infer(
    conn: &mut Conn,
    body: &str,
    model: &'static str,
    seed: u64,
    expect_total: u64,
) -> Result<Streamed, String> {
    let start = Instant::now();
    let (status, request_id, events) = conn.stream("/v1/infer", body)?;
    let seconds = start.elapsed().as_secs_f64();
    if status != 200 {
        return Err(format!("stream status {status}"));
    }
    let Some((last, steps)) = events.split_last() else {
        return Err("empty stream".to_string());
    };
    let mut indices = Vec::with_capacity(steps.len());
    let mut arrivals = Vec::with_capacity(steps.len());
    for Event { line, at } in steps {
        let event = Json::parse(line).map_err(|e| format!("step event is not JSON: {e}"))?;
        if event.get("event").and_then(Json::as_str) != Some("step") {
            return Err(format!("expected a step event, got {line}"));
        }
        if field_u64(&event, "total")? != expect_total {
            return Err(format!("step event total is not {expect_total}: {line}"));
        }
        if event.get("unit").and_then(Json::as_str) != Some("timestep") {
            return Err(format!("native step unit is not \"timestep\": {line}"));
        }
        if Some(field_u64(&event, "request_id")?) != request_id {
            return Err(format!("step event for another request: {line}"));
        }
        indices.push(field_u64(&event, "index")?);
        arrivals.push(*at);
    }
    let terminal = Json::parse(&last.line).map_err(|e| format!("result is not JSON: {e}"))?;
    if terminal.get("event").and_then(Json::as_str) != Some("result") {
        return Err(format!("stream did not end in a result: {}", last.line));
    }
    if field_u64(&terminal, "timesteps_done")? != expect_total {
        return Err(format!(
            "result timesteps_done is not {expect_total}: {}",
            last.line
        ));
    }
    let mut infer = check_result(&terminal, "native", model, seed)?;
    match &infer.logits {
        Some(logits) if logits.len() == classes(model) => {}
        _ => return Err(format!("result lacks {} logits", classes(model))),
    }
    if request_id != Some(infer.id) {
        return Err("X-Request-Id differs from the result's request_id".to_string());
    }
    infer.seconds = seconds;
    Ok(Streamed {
        infer,
        indices,
        arrivals,
    })
}

/// The one seed `sim-replay` sends, derived from the run seed.
pub fn replay_seed(seed: u64) -> u64 {
    SeedStream::new(seed, "sim-replay/constant", 0).next_seed()
}

/// The (model, seed) sequence one client of a workload sends: a fixed
/// function of the run seed and the client index.
#[derive(Debug, Clone)]
pub struct RequestStream {
    workload: Workload,
    seeds: SeedStream,
    constant: u64,
    turn: usize,
}

impl RequestStream {
    /// Client `index` of `workload` under the run's root `seed`.
    pub fn new(workload: Workload, seed: u64, index: usize) -> Self {
        Self {
            workload,
            seeds: SeedStream::new(seed, &format!("{}/client", workload.name()), index as u64),
            constant: replay_seed(seed),
            turn: 0,
        }
    }

    /// The next request's model and seed.
    pub fn next_request(&mut self) -> (&'static str, u64) {
        let models = self.workload.models();
        let model = models[self.turn % models.len()];
        self.turn += 1;
        let seed = match self.workload {
            Workload::SimReplay => self.constant,
            _ => self.seeds.next_seed(),
        };
        (model, seed)
    }
}

/// One client of a workload: a keep-alive connection and its requests.
pub struct Client {
    conn: Conn,
    requests: RequestStream,
}

impl Client {
    /// Client `index` of `workload` under the run's root `seed`.
    pub fn new(
        addr: SocketAddr,
        workload: Workload,
        seed: u64,
        index: usize,
    ) -> Result<Self, String> {
        Ok(Self {
            conn: Conn::open(addr)?,
            requests: RequestStream::new(workload, seed, index),
        })
    }

    /// Runs one operation of the workload.
    pub fn op(&mut self, traced: bool) -> Result<Op, String> {
        let workload = self.requests.workload;
        let (model, seed) = self.requests.next_request();
        if workload == Workload::NativeStream {
            return session_op(&mut self.conn, model, seed, traced);
        }
        let infer = blocking_infer(&mut self.conn, model, workload.engine(), seed, traced)?;
        Ok(Op {
            seconds: infer.seconds,
            ttfe: infer.seconds,
            step_gaps: Vec::new(),
            infers: vec![infer],
            session: None,
            done: 0.0,
        })
    }
}

/// One native session: create, a streamed first half, a streamed resumed
/// second half, delete. Step indices must be absolute and complete.
pub fn session_op(
    conn: &mut Conn,
    model: &'static str,
    seed: u64,
    traced: bool,
) -> Result<Op, String> {
    let total = entry(model).config.timesteps as u64;
    let start = Instant::now();
    let created = conn.request(
        "POST",
        "/v1/sessions",
        &format!("{{\"model\": \"{model}\", \"engine\": \"native\", \"seed\": {seed}}}"),
    )?;
    let create_seconds = start.elapsed().as_secs_f64();
    if created.status != 200 {
        return Err(format!(
            "session create status {}: {}",
            created.status,
            String::from_utf8_lossy(&created.body)
        ));
    }
    let id = created
        .json()?
        .get("id")
        .and_then(Json::as_str)
        .ok_or("session create without an id")?
        .to_string();
    let trace = if traced { ", \"trace\": true" } else { "" };
    let half = FIRST_HALF as u64;
    let stream_start = Instant::now();
    let first = streamed_infer(
        conn,
        &format!(
            "{{\"model\": \"{model}\", \"session\": \"{id}\", \"timesteps\": {half}, \
             \"stream\": true{trace}}}"
        ),
        model,
        seed,
        half,
    )?;
    let second = streamed_infer(
        conn,
        &format!(
            "{{\"model\": \"{model}\", \"session\": \"{id}\", \"timesteps\": {}, \
             \"stream\": true{trace}}}",
            total - half
        ),
        model,
        seed,
        total,
    )?;
    let indices: Vec<u64> = first
        .indices
        .iter()
        .chain(&second.indices)
        .copied()
        .collect();
    if indices != (0..total).collect::<Vec<u64>>() {
        return Err(format!(
            "session step indices {indices:?} are not 0..{total}"
        ));
    }
    let delete_start = Instant::now();
    let deleted = conn.request("DELETE", &format!("/v1/sessions/{id}"), "")?;
    let delete_seconds = delete_start.elapsed().as_secs_f64();
    if deleted.status != 200 {
        return Err(format!("session delete status {}", deleted.status));
    }
    let seconds = start.elapsed().as_secs_f64();

    let first_event = *first
        .arrivals
        .first()
        .ok_or("first half streamed no step")?;
    let ttfe = first_event.duration_since(stream_start).as_secs_f64();
    let mut step_gaps = Vec::new();
    for arrivals in [&first.arrivals, &second.arrivals] {
        step_gaps.extend(
            arrivals
                .windows(2)
                .map(|pair| pair[1].duration_since(pair[0]).as_secs_f64()),
        );
    }
    Ok(Op {
        seconds,
        ttfe,
        step_gaps,
        infers: vec![first.infer, second.infer],
        session: Some((create_seconds, delete_seconds)),
        done: 0.0,
    })
}

/// One reading of the host's CPU clock: jiffies the hypervisor stole and
/// jiffies in total, summed over CPUs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSample {
    /// Seconds since the phase start.
    pub at: f64,
    /// Cumulative stolen jiffies.
    pub steal: u64,
    /// Cumulative jiffies of every kind.
    pub total: u64,
}

/// Reads the first line of `/proc/stat`; `None` where the kernel does not
/// publish it.
fn host_cpu(at: f64) -> Option<CpuSample> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| CpuSample {
        at,
        steal: fields[7],
        total: fields.iter().sum(),
    })
}

/// One window of a phase: the operations that completed in it and the
/// share of host CPU time stolen from this machine meanwhile.
#[derive(Debug)]
pub struct Window<'a> {
    /// Operations that completed in the window.
    pub ops: Vec<&'a Op>,
    /// Stolen share of host CPU time (0 where unknown).
    pub steal: f64,
}

/// What a closed-loop phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Completed operations.
    pub ops: Vec<Op>,
    /// Operations that failed, with the first messages.
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// Seconds from the phase start to the last completion.
    pub elapsed: f64,
    /// Host CPU readings taken every 100 ms during the phase.
    pub cpu: Vec<CpuSample>,
}

impl Phase {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64 + self.failed
    }

    /// Completed operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops.len() as f64 / self.elapsed.max(1e-9)
    }

    /// Stolen share of host CPU time between `from` and `to` seconds.
    fn steal_between(&self, from: f64, to: f64) -> f64 {
        let before = self
            .cpu
            .iter()
            .rev()
            .find(|s| s.at <= from)
            .or(self.cpu.first());
        let after = self.cpu.iter().find(|s| s.at >= to).or(self.cpu.last());
        match (before, after) {
            (Some(a), Some(b)) if b.total > a.total => {
                b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64
            }
            _ => 0.0,
        }
    }

    /// The phase cut into `count` equal windows of its elapsed time, in
    /// time order.
    pub fn windows(&self, count: usize) -> Vec<Window<'_>> {
        let width = self.elapsed / count as f64;
        let mut windows: Vec<Window> = (0..count)
            .map(|i| Window {
                ops: Vec::new(),
                steal: self.steal_between(i as f64 * width, (i + 1) as f64 * width),
            })
            .collect();
        for op in &self.ops {
            let index = ((op.done / width) as usize).min(count - 1);
            windows[index].ops.push(op);
        }
        windows
    }
}

/// Runs the closed loop: every client issues operations back to back (each
/// waits for its reply) until `seconds` have passed; an operation started
/// before the deadline runs to completion.
pub fn closed_loop(clients: &mut [Client], seconds: f64, traced: bool) -> Phase {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let finished = AtomicBool::new(false);
    let (results, cpu): (Vec<Phase>, Vec<CpuSample>) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut samples = Vec::new();
            loop {
                samples.extend(host_cpu(start.elapsed().as_secs_f64()));
                if finished.load(Ordering::Relaxed) {
                    return samples;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    while Instant::now() < deadline {
                        match client.op(traced) {
                            Ok(mut op) => {
                                op.done = start.elapsed().as_secs_f64();
                                phase.ops.push(op);
                            }
                            Err(error) => {
                                phase.failed += 1;
                                if phase.errors.len() < 4 {
                                    phase.errors.push(error);
                                }
                            }
                        }
                    }
                    phase.elapsed = start.elapsed().as_secs_f64();
                    phase
                })
            })
            .collect();
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        finished.store(true, Ordering::Relaxed);
        (results, sampler.join().expect("CPU sampler panicked"))
    });
    let mut merged = Phase {
        cpu,
        ..Phase::default()
    };
    for phase in results {
        merged.ops.extend(phase.ops);
        merged.failed += phase.failed;
        merged.errors.extend(phase.errors);
        merged.elapsed = merged.elapsed.max(phase.elapsed);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(workload: Workload, seed: u64, index: usize, n: usize) -> Vec<(&'static str, u64)> {
        let mut stream = RequestStream::new(workload, seed, index);
        (0..n).map(|_| stream.next_request()).collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_request_stream() {
        for workload in Workload::ALL {
            assert_eq!(plan(workload, 5, 1, 32), plan(workload, 5, 1, 32));
            assert_ne!(plan(workload, 5, 0, 32), plan(workload, 6, 0, 32));
        }
        assert_ne!(
            plan(Workload::NativeClosed, 5, 0, 32),
            plan(Workload::NativeClosed, 5, 1, 32)
        );
    }

    #[test]
    fn workloads_send_what_they_promise() {
        let replay = plan(Workload::SimReplay, 9, 0, 16);
        assert!(replay.iter().all(|&r| r == (CIFAR, replay_seed(9))));
        let cold = plan(Workload::SimCold, 9, 0, 16);
        assert!(cold.iter().step_by(2).all(|r| r.0 == CIFAR));
        assert!(cold.iter().skip(1).step_by(2).all(|r| r.0 == IMAGENET));
        let mut seeds: Vec<u64> = cold.iter().map(|r| r.1).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cold.len(), "sim-cold seeds must be fresh");
    }

    #[test]
    fn windows_split_completions_evenly_and_carry_their_steal() {
        let op = |done| Op {
            seconds: 0.001,
            ttfe: 0.001,
            step_gaps: Vec::new(),
            infers: Vec::new(),
            session: None,
            done,
        };
        let sample = |at, steal, total| CpuSample { at, steal, total };
        let phase = Phase {
            ops: [0.1, 1.9, 2.0, 5.5, 9.99, 10.2]
                .into_iter()
                .map(op)
                .collect(),
            elapsed: 10.0,
            // 10% stolen over the first two seconds, none afterwards.
            cpu: vec![
                sample(0.0, 0, 0),
                sample(2.0, 40, 400),
                sample(4.0, 40, 800),
                sample(10.0, 40, 2000),
            ],
            ..Phase::default()
        };
        let windows = phase.windows(5);
        let counts: Vec<usize> = windows.iter().map(|w| w.ops.len()).collect();
        assert_eq!(counts, vec![2, 1, 1, 0, 2]);
        assert_eq!(windows[0].steal, 0.1);
        assert_eq!(windows[1].steal, 0.0);
        assert_eq!(Phase::default().windows(2)[0].steal, 0.0);
    }

    #[test]
    fn workload_names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Some(workload));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
