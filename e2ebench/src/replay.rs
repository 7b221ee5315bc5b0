//! Rebuilds the engines' inputs through public API and replays them layer
//! by layer with timers around each public call — the model ledger.
//!
//! The model replay calls the public layer functions in
//! `SpikingTransformer::infer`'s order, so it must reproduce `infer`'s
//! logits bit for bit; the ledger checks that.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use bishop_core::BishopConfig;
use bishop_engine::{CatalogEntry, EngineBatch, EngineName};
use bishop_model::{
    select_accumulate, spike_matmul, SpikingLinear, SpikingSelfAttention, SpikingTransformer,
};
use bishop_neuron::lif_over_time;
use bishop_runtime::{BatchFormer, BatchPolicy, InferenceRequest};
use bishop_spiketensor::{DenseMatrix, SpikeTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The engine batch the runtime forms for these riders (seeds in
/// submission order), built by the runtime's own batch former.
pub fn engine_batch(entry: &Arc<CatalogEntry>, engine: &str, seeds: &[u64]) -> EngineBatch {
    let mut former = BatchFormer::new(BatchPolicy::new(seeds.len().max(1)));
    let mut closed = None;
    for (id, &seed) in seeds.iter().enumerate() {
        let request = InferenceRequest::new(id as u64, Arc::clone(entry), seed)
            .with_engine(EngineName::new(engine));
        closed = former.push(request);
    }
    closed
        .expect("a batch closes once it holds max_batch_size riders")
        .engine_batch(BishopConfig::default().bundle)
}

/// The engine batch the runtime hands a stateful (streamed or session)
/// request: the request's base configuration and its own seed, never
/// folded, so split sessions resolve the same weights as one long request.
pub fn stateful_batch(entry: &Arc<CatalogEntry>, seed: u64) -> EngineBatch {
    EngineBatch {
        config: entry.config.clone(),
        regime: entry.regime,
        seed,
        options: entry.options,
        batch_size: 1,
        batch_id: 0,
    }
}

/// The transformer and patch input the native engine runs for `batch`:
/// weights seeded from the hash of the folded configuration, patches from
/// the batch seed.
pub fn native_inputs(batch: &EngineBatch) -> (SpikingTransformer, DenseMatrix) {
    let config = &batch.config;
    let mut hasher = DefaultHasher::new();
    config.hash(&mut hasher);
    let mut rng = StdRng::seed_from_u64(hasher.finish());
    let model =
        SpikingTransformer::random(config, config.features, config.dataset.classes(), &mut rng);
    let mut rng = StdRng::seed_from_u64(batch.seed);
    let patches = DenseMatrix::random_uniform(config.tokens, config.features, 1.0, &mut rng);
    (model, patches)
}

/// Seconds spent per layer group and per kernel in one or more replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Tokenizer charge matmul plus its LIF.
    pub tokenizer: f64,
    /// Q/K/V projections (P1), integration plus LIF.
    pub p1: f64,
    /// Attention scores, select-accumulate and the `O_temp` LIF.
    pub atn: f64,
    /// Output projection (P2) and the attention residual.
    pub p2: f64,
    /// MLP fc1/fc2 and the MLP residual.
    pub mlp: f64,
    /// Pooling and the classifier.
    pub readout: f64,
    /// `lif_over_time`, all layers.
    pub lif: f64,
    /// `spike_matmul`, all projections.
    pub spike_matmul: f64,
    /// `SpikingSelfAttention::attention_scores_in`.
    pub attention_scores: f64,
    /// `select_accumulate`.
    pub select_accumulate: f64,
}

impl LayerTimes {
    /// The layer groups, which partition a forward pass.
    pub fn groups(&self) -> [f64; 6] {
        [
            self.tokenizer,
            self.p1,
            self.atn,
            self.p2,
            self.mlp,
            self.readout,
        ]
    }

    /// Every field, for sums over batches.
    pub fn fields(&self) -> [f64; 10] {
        [
            self.tokenizer,
            self.p1,
            self.atn,
            self.p2,
            self.mlp,
            self.readout,
            self.lif,
            self.spike_matmul,
            self.attention_scores,
            self.select_accumulate,
        ]
    }

    /// Rebuilds from [`LayerTimes::fields`] order.
    pub fn from_fields(f: [f64; 10]) -> Self {
        Self {
            tokenizer: f[0],
            p1: f[1],
            atn: f[2],
            p2: f[3],
            mlp: f[4],
            readout: f[5],
            lif: f[6],
            spike_matmul: f[7],
            attention_scores: f[8],
            select_accumulate: f[9],
        }
    }
}

/// Exact work counts of one or more replays, computed from tensor sizes
/// and spike counts. They depend only on weights and input, so on fixed
/// probes they repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Weight-row element accumulations of `spike_matmul`.
    pub spike_matmul_accums: u64,
    /// 64-bit AND+popcount words of `attention_scores_in`.
    pub attention_popcount_words: u64,
    /// Bytes the three kernels read and write (see the README).
    pub bytes_moved: u64,
    /// Spikes and elements of every block input (P1 operand).
    pub p1_in: (u64, u64),
    /// Spikes and elements of every Q and K tensor.
    pub qk: (u64, u64),
    /// Spikes and elements of every MLP hidden tensor.
    pub mlp_hidden: (u64, u64),
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

fn ones(x: &SpikeTensor) -> (u64, u64) {
    let s = x.shape();
    (
        x.count_ones() as u64,
        (s.timesteps * s.tokens * s.features) as u64,
    )
}

fn add(a: &mut (u64, u64), b: (u64, u64)) {
    a.0 += b.0;
    a.1 += b.1;
}

/// One replayed layer timer set plus optional counters.
struct Replayer<'a> {
    times: &'a mut LayerTimes,
    counts: Option<&'a mut Counts>,
}

impl Replayer<'_> {
    /// `X[t]·W` per timestep via the `spike_matmul` kernel, then LIF.
    fn linear(&mut self, layer: &SpikingLinear, x: &SpikeTensor) -> SpikeTensor {
        let weight = layer.weight();
        let shape = x.shape();
        let integration: Vec<DenseMatrix> = (0..shape.timesteps)
            .map(|t| timed(&mut self.times.spike_matmul, || spike_matmul(x, t, weight)))
            .collect();
        if let Some(counts) = self.counts.as_deref_mut() {
            let accums = x.count_ones() as u64 * weight.cols() as u64;
            counts.spike_matmul_accums += accums;
            // Each accumulation reads a weight element and reads and
            // writes an accumulator element (f32).
            counts.bytes_moved += accums * 12;
        }
        timed(&mut self.times.lif, || {
            lif_over_time(&integration, layer.lif_config())
        })
    }

    fn attention(
        &mut self,
        ssa: &SpikingSelfAttention,
        q: &SpikeTensor,
        k: &SpikeTensor,
        v: &SpikeTensor,
    ) -> SpikeTensor {
        let shape = q.shape();
        let head_dim = shape.features / ssa.heads();
        let scale = 2.0_f32.powi(-(ssa.scale_shift() as i32));
        let mut planes = Vec::with_capacity(shape.timesteps);
        for t in 0..shape.timesteps {
            let mut head_output = DenseMatrix::zeros(shape.tokens, shape.features);
            for h in 0..ssa.heads() {
                let (d0, d1) = (h * head_dim, (h + 1) * head_dim);
                let s = timed(&mut self.times.attention_scores, || {
                    SpikingSelfAttention::attention_scores_in(q, k, t, d0, d1)
                });
                timed(&mut self.times.select_accumulate, || {
                    select_accumulate(&mut head_output, &s, scale, v, t, d0, d1)
                });
                if let Some(counts) = self.counts.as_deref_mut() {
                    let pairs = (shape.tokens * shape.tokens) as u64;
                    let words = head_dim.div_ceil(64) as u64;
                    counts.attention_popcount_words += pairs * words;
                    // Two operand words per pair in, one f32 score out.
                    counts.bytes_moved += pairs * words * 16 + pairs * 4;
                    // Select-accumulate: one masked add of the head's
                    // features per non-zero score whose V row has spikes.
                    for j in 0..shape.tokens {
                        if v.row_feature_slice(t, j, d0, d1).count_ones() == 0 {
                            continue;
                        }
                        let rows = (0..shape.tokens)
                            .filter(|&i| s.get(i, j) * scale != 0.0)
                            .count();
                        counts.bytes_moved += rows as u64 * head_dim as u64 * 12;
                    }
                }
            }
            planes.push(head_output);
        }
        timed(&mut self.times.lif, || {
            lif_over_time(&planes, ssa.wq().lif_config())
        })
    }
}

/// Replays one forward pass of `model` on `patches`, adding each layer's
/// time into `times` (and work into `counts`); returns the logits.
pub fn replay_forward(
    model: &SpikingTransformer,
    patches: &DenseMatrix,
    times: &mut LayerTimes,
    counts: Option<&mut Counts>,
) -> Vec<f32> {
    let mut r = Replayer { times, counts };
    let tokenizer = model.tokenizer();
    let mut tokenizer_time = 0.0;
    let mut x = timed(&mut tokenizer_time, || {
        let charge = patches.matmul(tokenizer.weight());
        let per_step: Vec<DenseMatrix> =
            (0..tokenizer.timesteps()).map(|_| charge.clone()).collect();
        timed(&mut r.times.lif, || {
            lif_over_time(&per_step, tokenizer.lif_config())
        })
    });
    r.times.tokenizer += tokenizer_time;

    for block in model.blocks() {
        let (ssa, mlp) = (block.ssa(), block.mlp());
        if let Some(counts) = r.counts.as_deref_mut() {
            add(&mut counts.p1_in, ones(&x));
        }
        let start = Instant::now();
        let q = r.linear(ssa.wq(), &x);
        let k = r.linear(ssa.wk(), &x);
        let v = r.linear(ssa.wv(), &x);
        r.times.p1 += start.elapsed().as_secs_f64();
        if let Some(counts) = r.counts.as_deref_mut() {
            add(&mut counts.qk, ones(&q));
            add(&mut counts.qk, ones(&k));
        }

        let start = Instant::now();
        let o_temp = r.attention(ssa, &q, &k, &v);
        r.times.atn += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let attended = r.linear(ssa.wo(), &o_temp);
        let mlp_input = x.or(&attended).expect("SSA output matches its input shape");
        r.times.p2 += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let hidden = r.linear(mlp.fc1(), &mlp_input);
        let out = r.linear(mlp.fc2(), &hidden);
        x = mlp_input
            .or(&out)
            .expect("MLP output matches its input shape");
        r.times.mlp += start.elapsed().as_secs_f64();
        if let Some(counts) = r.counts.as_deref_mut() {
            add(&mut counts.mlp_hidden, ones(&hidden));
        }
    }

    let start = Instant::now();
    let pooled = SpikingTransformer::pool(&x);
    let logits = DenseMatrix::from_rows(&[pooled])
        .matmul(model.classifier())
        .row(0)
        .to_vec();
    r.times.readout += start.elapsed().as_secs_f64();
    logits
}
