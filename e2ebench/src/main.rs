//! The repository's end-to-end serving benchmark.
//!
//! ```text
//! e2ebench --workload <native-closed|native-stream|sim-replay|sim-cold>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Boots the gateway and online runtime in-process at their stock defaults,
//! drives one closed-loop workload over real sockets from two keep-alive
//! clients, checks every answer, and prints each metric by name and unit.
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` — the end-to-end metrics with `--trace 0`, the
//! per-layer ledger with `--trace 1`. Any correctness or closure failure
//! exits non-zero. See `README.md` for the metric definitions.

mod gate;
mod http;
mod ledger;
mod replay;
mod seeds;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use bishop_gateway::Json;
use bishop_spiketensor::words::simd;

use crate::http::Conn;
use crate::ledger::{Metric, TracedRun};
use crate::stats::{median, percentile, tail_percentile};
use crate::workload::{closed_loop, Client, Op, Phase, Stack, Workload, CLIENTS};

/// Stack boots per untraced run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Equal windows the untraced loop is cut into for the end-to-end figures.
const WINDOWS: usize = 10;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {names:?})")
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes a non-negative integer".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process (server and clients), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The checkout's git revision, read from `.git` without running git.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|rev| rev.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown (not a git checkout)".to_string(),
    }
}

/// Host record: cores, SIMD tier, git revision and the engine descriptors
/// the stack publishes, so figures from different boxes are never read as
/// one trajectory.
fn host_record(stack: &Stack) -> Result<Json, String> {
    let reply = Conn::open(stack.addr())?.request("GET", "/v1/engines", "")?;
    let engines = match reply.json()? {
        Json::Array(engines) => engines
            .iter()
            .map(|e| {
                let keep = [
                    "name",
                    "substrate",
                    "supports_ecp",
                    "deterministic",
                    "measures_wall_clock",
                    "supports_streaming",
                    "max_folded_timesteps",
                    "simd_tier",
                ];
                Json::object(
                    keep.iter()
                        .map(|&k| (k, e.get(k).cloned().unwrap_or(Json::Null)))
                        .collect(),
                )
            })
            .collect(),
        other => {
            return Err(format!(
                "GET /v1/engines is not an array: {}",
                other.encode()
            ))
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Ok(Json::object(vec![
        ("cores", Json::from_u64(cores as u64)),
        ("simd_tier", Json::string(simd::active().tier().label())),
        ("git_rev", Json::string(git_rev())),
        ("engines", Json::Array(engines)),
    ]))
}

/// Boots the stack and warms it; returns it with the seconds that took.
fn set_up(workload: Workload, seed: u64) -> Result<(Stack, f64), String> {
    let start = Instant::now();
    let stack = Stack::boot()?;
    match gate::warm(&stack, workload, seed) {
        Ok(()) => Ok((stack, start.elapsed().as_secs_f64())),
        Err(error) => {
            stack.shutdown();
            Err(error)
        }
    }
}

/// Median set-up seconds over the first boot and `SETUPS - 1` more. The
/// extra boots run after the peak RSS is read, so the memory figure is
/// that of one stack.
fn median_setup(workload: Workload, seed: u64, first: f64) -> Result<f64, String> {
    let mut times = vec![first];
    for _ in 1..SETUPS {
        let (stack, seconds) = set_up(workload, seed)?;
        stack.shutdown();
        times.push(seconds);
    }
    Ok(median(&times).expect("at least the first boot"))
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        exact: false,
    }
}

/// Milliseconds, ascending.
fn sorted_ms(seconds: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut ms: Vec<f64> = seconds.map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// The end-to-end metrics of an untraced phase. The loop is cut into
/// `WINDOWS` equal windows and only the half of them in which the
/// hypervisor stole the least host CPU time are kept, so time taken from
/// this machine by its neighbours does not read as a change of the
/// program: `ops_per_s` is the median of the kept windows' rates, the
/// latency medians are over every operation of the kept windows.
fn end_to_end(phase: &Phase, setup_s: f64, peak_rss: f64) -> Result<Vec<Metric>, String> {
    let width = phase.elapsed / WINDOWS as f64;
    let mut windows = phase.windows(WINDOWS);
    let steal: Vec<String> = windows
        .iter()
        .map(|w| format!("{:.1}", w.steal * 100.0))
        .collect();
    println!(
        "info host_cpu_steal_pct [{}] per {width:.1} s window; the {} with the least are kept",
        steal.join(", "),
        WINDOWS / 2
    );
    windows.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    windows.truncate(WINDOWS / 2);
    let rates: Vec<f64> = windows.iter().map(|w| w.ops.len() as f64 / width).collect();
    let kept: Vec<&Op> = windows.iter().flat_map(|w| w.ops.iter().copied()).collect();
    if kept.is_empty() {
        return Err("no operation completed in the kept windows".to_string());
    }
    let latency = sorted_ms(kept.iter().map(|op| op.seconds));
    let ttfe = sorted_ms(kept.iter().map(|op| op.ttfe));
    Ok(vec![
        metric("setup_s", "s", setup_s),
        metric(
            "ops_per_s",
            "1/s",
            median(&rates).expect("WINDOWS is at least two"),
        ),
        metric("latency_p50_ms", "ms", percentile(&latency, 50.0)),
        metric("ttfe_p50_ms", "ms", percentile(&ttfe, 50.0)),
        metric("peak_rss_mb", "MB", peak_rss),
    ])
}

/// Human-readable tail figures of an untraced phase (not gated).
fn describe(phase: &Phase) {
    let latency = sorted_ms(phase.ops.iter().map(|op| op.seconds));
    let n = latency.len();
    if let Some(p) = tail_percentile(n) {
        println!(
            "info latency_tail_ms {:.4} ms (p{p}, the highest percentile with >= 10 of n={n} beyond)",
            percentile(&latency, p)
        );
    }
    if n > 0 {
        for p in [90.0, 99.0] {
            println!(
                "info latency_p{p}_ms {:.4} ms (n={n})",
                percentile(&latency, p)
            );
        }
    }
    let gaps = sorted_ms(phase.ops.iter().flat_map(|op| op.step_gaps.iter().copied()));
    if !gaps.is_empty() {
        println!(
            "info step_gap_p50_ms {:.4} ms (n={})",
            percentile(&gaps, 50.0),
            gaps.len()
        );
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from_u64(attempted)),
        ("failed", Json::from_u64(failed)),
        (
            "metrics",
            Json::object(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name,
                            Json::object(vec![
                                ("value", Json::Number(m.value)),
                                ("unit", Json::string(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .encode()
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = args.workload;
    println!(
        "run workload={} seed={} seconds={} trace={} clients={CLIENTS} closed-loop",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (stack, first_setup) = set_up(workload, args.seed)?;
    println!("host {}", host_record(&stack)?.encode());

    let mut clients = (0..CLIENTS)
        .map(|i| Client::new(stack.addr(), workload, args.seed, i))
        .collect::<Result<Vec<_>, _>>()?;
    let (phases, traced) = if args.trace {
        let untraced = closed_loop(&mut clients, args.seconds / 2.0, false);
        let (results, calibration) = (stack.results.stats(), stack.calibration.stats());
        let traced = closed_loop(&mut clients, args.seconds / 2.0, true);
        let caches = (
            stack.results.stats().since(&results),
            stack.calibration.stats().since(&calibration),
        );
        let finished = ledger::fetch_traces(stack.addr(), &traced)?;
        let probes = ledger::probe_layers(stack.addr(), workload)?;
        (vec![untraced, traced], Some((caches, finished, probes)))
    } else {
        (vec![closed_loop(&mut clients, args.seconds, false)], None)
    };
    drop(clients);
    // Read before the gate's probes, which build engines in this process.
    let peak_rss = peak_rss_mb()?;
    let mut failures = Vec::new();
    match gate::probe(&stack, workload, args.seed) {
        Ok(n) => println!("gate singleton probes: {n} answers equal a direct engine execute"),
        Err(error) => failures.push(format!("probe: {error}")),
    }
    if workload == Workload::NativeStream {
        match gate::split_identity(&stack, &phases[0]) {
            Ok(n) => println!("gate split sessions: {n} equal an unsplit stream bit for bit"),
            Err(error) => failures.push(format!("split identity: {error}")),
        }
    }
    stack.shutdown();

    let attempted: u64 = phases.iter().map(Phase::attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    for phase in &phases {
        for error in &phase.errors {
            failures.push(format!("operation failed: {error}"));
        }
    }
    println!(
        "info error_rate {:.6} ratio ({failed} failed or refused of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    describe(&phases[0]);
    let metrics = match traced {
        None => end_to_end(
            &phases[0],
            median_setup(workload, args.seed, first_setup)?,
            peak_rss,
        )?,
        Some(((result_cache, calibration_cache), finished, probes)) => {
            // Replays run after shutdown, on an otherwise idle process.
            let ledger = ledger::build(&TracedRun {
                workload,
                finished: &finished,
                probes: &probes,
                untraced: &phases[0],
                traced: &phases[1],
                result_cache,
                calibration_cache,
            });
            for note in &ledger.notes {
                println!("closure {note}");
            }
            failures.extend(ledger.failures.iter().map(|f| format!("closure: {f}")));
            ledger.metrics
        }
    };
    for m in &metrics {
        println!(
            "metric {} {} {}{}",
            m.name,
            m.value,
            m.unit,
            if m.exact { " exact" } else { "" }
        );
    }
    for failure in &failures {
        eprintln!("FAIL {failure}");
    }
    let correct = failures.is_empty() && failed == 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("e2ebench: {error}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("e2ebench: {error}");
            ExitCode::FAILURE
        }
    }
}
