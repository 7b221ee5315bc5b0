//! Set-up warm-up and the correctness gate's probes, both outside the timed
//! region.

use bishop_core::{BishopConfig, BishopSimulator};
use bishop_engine::{InferenceEngine, NativeEngine, SimulatorEngine};

use crate::http::Conn;
use crate::replay::engine_batch;
use crate::seeds::SeedStream;
use crate::workload::{
    blocking_infer, check_result, entry, infer_body, replay_seed, session_op, streamed_infer,
    Infer, Phase, Stack, Workload,
};

/// Attempts at getting two concurrent requests folded into one batch.
const PAIR_ATTEMPTS: usize = 50;
/// Singleton probes per model compared against a direct engine call.
const PROBES: usize = 3;
/// Sessions whose split logits are compared with an unsplit stream.
const SPLIT_CHECKS: usize = 8;

/// Sends two requests at once on two connections; returns both answers.
fn pair(
    a: &mut Conn,
    b: &mut Conn,
    model: &'static str,
    engine: &str,
    seeds: (u64, u64),
) -> Result<(Infer, Infer), String> {
    a.send(
        "POST",
        "/v1/infer",
        &infer_body(model, engine, seeds.0, false),
    )?;
    b.send(
        "POST",
        "/v1/infer",
        &infer_body(model, engine, seeds.1, false),
    )?;
    let answer = |conn: &mut Conn, seed| -> Result<Infer, String> {
        let reply = conn.read_reply()?;
        if reply.status != 200 {
            return Err(format!("warm-up status {}", reply.status));
        }
        check_result(&reply.json()?, engine, model, seed)
    };
    Ok((answer(a, seeds.0)?, answer(b, seeds.1)?))
}

/// Brings the stack to the state the timed loop meets: every engine and
/// folded batch shape the workload uses has answered once (for native,
/// this builds the weights of each shape).
pub fn warm(stack: &Stack, workload: Workload, seed: u64) -> Result<(), String> {
    let mut a = Conn::open(stack.addr())?;
    let mut b = Conn::open(stack.addr())?;
    let mut seeds = SeedStream::new(seed, "warm", 0);
    if workload == Workload::NativeStream {
        session_op(&mut a, workload.models()[0], seeds.next_seed(), false)?;
        return Ok(());
    }
    let engine = workload.engine();
    for &model in workload.models() {
        let mut next = || match workload {
            Workload::SimReplay => replay_seed(seed),
            _ => seeds.next_seed(),
        };
        let single = blocking_infer(&mut a, model, engine, next(), false)?;
        if single.batch_size != 1 {
            return Err(format!(
                "a lone warm-up request rode a batch of {}",
                single.batch_size
            ));
        }
        let mut folded = false;
        for _ in 0..PAIR_ATTEMPTS {
            let (x, y) = pair(&mut a, &mut b, model, engine, (next(), next()))?;
            if x.batch_size == 2 && y.batch_size == 2 {
                folded = true;
                break;
            }
        }
        if !folded {
            return Err(format!(
                "no two concurrent {model} requests folded into one batch in {PAIR_ATTEMPTS} tries"
            ));
        }
    }
    Ok(())
}

/// Singleton probes: each answer over HTTP must equal a direct public
/// `execute` on the same `EngineBatch` the runtime's batch former builds —
/// the prediction for native, cycles and energy for the simulator.
pub fn probe(stack: &Stack, workload: Workload, seed: u64) -> Result<usize, String> {
    let mut conn = Conn::open(stack.addr())?;
    let mut seeds = SeedStream::new(seed, "probe", 0);
    let engine = workload.engine();
    let native = NativeEngine::new();
    let simulator = SimulatorEngine::new(BishopSimulator::new(BishopConfig::default()));
    let mut checked = 0;
    for &model in workload.models() {
        for _ in 0..PROBES {
            let probe_seed = match workload {
                Workload::SimReplay => replay_seed(seed),
                _ => seeds.next_seed(),
            };
            let answer = blocking_infer(&mut conn, model, engine, probe_seed, false)?;
            if answer.batch_size != 1 {
                return Err(format!("probe rode a batch of {}", answer.batch_size));
            }
            let batch = engine_batch(&entry(model), engine, &[probe_seed]);
            if workload.is_native() {
                let direct = native.execute(&batch).map_err(|e| e.to_string())?;
                if direct.prediction.map(|p| p as u64) != answer.prediction {
                    return Err(format!(
                        "{model} seed {probe_seed}: HTTP prediction {:?}, direct execute {:?}",
                        answer.prediction, direct.prediction
                    ));
                }
            } else {
                let direct = simulator.execute(&batch).map_err(|e| e.to_string())?;
                if direct.cycles != answer.cycles || direct.energy_mj != answer.energy_mj {
                    return Err(format!(
                        "{model} seed {probe_seed}: HTTP {} cycles / {} mJ, direct execute \
                         {} cycles / {} mJ",
                        answer.cycles, answer.energy_mj, direct.cycles, direct.energy_mj
                    ));
                }
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Split-session identity: a session's terminal logits must equal, bit for
/// bit, one unsplit streamed run of the same seed.
pub fn split_identity(stack: &Stack, phase: &Phase) -> Result<usize, String> {
    let mut conn = Conn::open(stack.addr())?;
    let sessions: Vec<&Infer> = phase
        .ops
        .iter()
        .filter_map(|op| op.infers.last())
        .take(SPLIT_CHECKS)
        .collect();
    for split in &sessions {
        let total = entry(split.model).config.timesteps as u64;
        let whole = streamed_infer(
            &mut conn,
            &format!(
                "{{\"model\": \"{}\", \"engine\": \"native\", \"seed\": {}, \"stream\": true}}",
                split.model, split.seed
            ),
            split.model,
            split.seed,
            total,
        )?;
        if whole.indices != (0..total).collect::<Vec<u64>>() {
            return Err(format!("unsplit step indices {:?}", whole.indices));
        }
        if whole.infer.logits != split.logits {
            return Err(format!(
                "seed {}: split session logits differ from the unsplit stream",
                split.seed
            ));
        }
    }
    Ok(sessions.len())
}
