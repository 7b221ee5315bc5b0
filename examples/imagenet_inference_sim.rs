//! ImageNet-100 scenario (Model 3): runs a *functional* spiking transformer
//! inference to show the algorithmic pipeline end to end, then evaluates the
//! ImageNet-100-calibrated workload on every accelerator variant — the
//! scenario behind Figs. 12/13 and §6.4 of the paper.
//!
//! Run with `cargo run --release --example imagenet_inference_sim`.

use bishop::prelude::*;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // --- Functional inference on a scaled-down Model 3 ----------------------
    // (The full 8-block, 196-token model is simulated analytically below; the
    // functional pass uses a reduced copy so the example runs in seconds.)
    let functional_config = ModelConfig::new(
        "Model 3 (functional, reduced)",
        DatasetKind::ImageNet100,
        2,
        4,
        49,
        64,
        4,
    );
    let model = SpikingTransformer::random(&functional_config, 3 * 16 * 16, 100, &mut rng);
    let patches =
        DenseMatrix::random_uniform(functional_config.tokens, 3 * 16 * 16, 0.05, &mut rng);
    let result = model.infer(&patches);
    let captured = model.capture(&patches);
    println!(
        "functional inference: predicted class {} of {}, captured {} layer workloads",
        result.prediction,
        model.classes(),
        captured.layers().len()
    );

    // --- Accelerator evaluation of the full Model 3 -------------------------
    let config = ModelConfig::model3_imagenet100();
    let calibration = DatasetCalibration::for_model(&config);
    let baseline_workload = ModelWorkload::synthetic(
        &config,
        calibration.spec(TrainingRegime::Baseline),
        &mut rng,
    );
    let bsa_workload =
        ModelWorkload::synthetic(&config, calibration.spec(TrainingRegime::Bsa), &mut rng);

    let gpu = EdgeGpuModel::jetson_nano().simulate(&config);
    let ptb = PtbSimulator::new(PtbConfig::default()).simulate(&baseline_workload);
    let bishop_sim = BishopSimulator::new(BishopConfig::default());
    let bishop = bishop_sim.simulate(&baseline_workload, &SimOptions::baseline());
    let bishop_bsa = bishop_sim.simulate(&bsa_workload, &SimOptions::baseline());
    let bishop_full = bishop_sim.simulate(
        &bsa_workload,
        &SimOptions::with_ecp(calibration.ecp_threshold),
    );

    println!("\n{:-^72}", " ImageNet-100 (Model 3) ");
    println!(
        "{:<22} {:>12} {:>12} {:>14}",
        "variant", "latency", "energy", "speedup vs PTB"
    );
    let row = |name: &str, latency_s: f64, energy_mj: f64| {
        println!(
            "{:<22} {:>9.3} ms {:>9.3} mJ {:>13.2}x",
            name,
            latency_s * 1e3,
            energy_mj,
            ptb.total_latency_seconds() / latency_s
        );
    };
    row("edge GPU", gpu.latency_seconds, gpu.energy_mj);
    row("PTB", ptb.total_latency_seconds(), ptb.total_energy_mj());
    row(
        "Bishop",
        bishop.total_latency_seconds(),
        bishop.total_energy_mj(),
    );
    row(
        "Bishop+BSA",
        bishop_bsa.total_latency_seconds(),
        bishop_bsa.total_energy_mj(),
    );
    row(
        "Bishop+BSA+ECP",
        bishop_full.total_latency_seconds(),
        bishop_full.total_energy_mj(),
    );

    // --- Heterogeneity ablation (§6.4) --------------------------------------
    let all_dense =
        BishopSimulator::new(BishopConfig::default().with_stratify(StratifyPolicy::AllDense))
            .simulate(&baseline_workload, &SimOptions::baseline());
    println!(
        "\nheterogeneity: balanced split is {:.2}x faster and {:.2}x more energy efficient \
         than processing everything on the dense core (paper: 1.39x / 1.57x)",
        all_dense.total_latency_seconds() / bishop.total_latency_seconds(),
        all_dense.total_energy_pj() / bishop.total_energy_pj()
    );
}
