//! Cross-crate integration tests: functional model → workload → bundling →
//! stratification → accelerator simulation, compared across Bishop, PTB and
//! the edge GPU.

use bishop::prelude::*;
use rand::SeedableRng;

fn calibrated_workload(config: &ModelConfig, regime: TrainingRegime, seed: u64) -> ModelWorkload {
    let calibration = DatasetCalibration::for_model(config);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    ModelWorkload::synthetic(config, calibration.spec(regime), &mut rng)
}

fn quick_model() -> ModelConfig {
    ModelConfig::new("integration", DatasetKind::ImageNet100, 2, 4, 64, 128, 4)
}

#[test]
fn functional_inference_workload_can_be_simulated_on_both_accelerators() {
    let config = ModelConfig::new("func", DatasetKind::Cifar10, 2, 3, 16, 32, 2);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let model = SpikingTransformer::random(&config, 24, 10, &mut rng);
    let patches = DenseMatrix::random_uniform(config.tokens, 24, 0.8, &mut rng);
    let workload = model.capture(&patches);

    // The captured workload runs on both simulators and produces layer-for-
    // layer comparable metrics.
    let bishop =
        BishopSimulator::new(BishopConfig::default()).simulate(&workload, &SimOptions::baseline());
    let ptb = PtbSimulator::new(PtbConfig::default()).simulate(&workload);
    assert_eq!(bishop.layers.len(), workload.layers().len());
    assert_eq!(ptb.layers.len(), bishop.layers.len());
    for (a, b) in bishop.layers.iter().zip(&ptb.layers) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.group, b.group);
    }
    assert!(bishop.total_latency_seconds() > 0.0);
}

#[test]
fn full_stack_ordering_gpu_ptb_bishop_variants() {
    let config = quick_model();
    let calibration = DatasetCalibration::for_model(&config);
    let baseline = calibrated_workload(&config, TrainingRegime::Baseline, 3);
    let bsa = calibrated_workload(&config, TrainingRegime::Bsa, 3);

    let gpu = EdgeGpuModel::jetson_nano().simulate(&config);
    let ptb = PtbSimulator::new(PtbConfig::default()).simulate(&baseline);
    let simulator = BishopSimulator::new(BishopConfig::default());
    let bishop = simulator.simulate(&baseline, &SimOptions::baseline());
    let bishop_bsa = simulator.simulate(&bsa, &SimOptions::baseline());
    let bishop_full = simulator.simulate(&bsa, &SimOptions::with_ecp(calibration.ecp_threshold));

    // Latency ordering: GPU slowest, then PTB, then the Bishop variants in
    // improving order.
    assert!(gpu.latency_seconds > ptb.total_latency_seconds());
    assert!(ptb.total_latency_seconds() > bishop.total_latency_seconds());
    assert!(bishop_bsa.total_latency_seconds() <= bishop.total_latency_seconds() * 1.02);
    assert!(bishop_full.total_latency_seconds() <= bishop_bsa.total_latency_seconds() * 1.02);

    // Energy ordering follows the same trend.
    assert!(ptb.total_energy_pj() > bishop.total_energy_pj());
    assert!(bishop_full.total_energy_pj() <= bishop_bsa.total_energy_pj() * 1.02);
}

#[test]
fn stratifier_and_ecp_compose_on_real_traces() {
    let config = quick_model();
    let workload = calibrated_workload(&config, TrainingRegime::Bsa, 9);
    let bundle = BundleShape::default();

    for layer in workload.projection_layers() {
        let tags = TtbTags::from_tensor(&layer.input, bundle);
        let split = Stratifier::new(2).stratify_tags(&layer.input, &tags);
        assert!(split.is_partition(layer.input.shape().features));
        assert_eq!(
            split.dense_spikes + split.sparse_spikes,
            layer.input.count_ones()
        );
    }
    for layer in workload.attention_layers() {
        let result = ecp::apply(&layer.q, &layer.k, &layer.v, EcpConfig::uniform(6, bundle));
        assert!(result.q_retention() <= 1.0 && result.k_retention() <= 1.0);
        assert!(result.pruned_q.count_ones() <= layer.q.count_ones());
        assert!(result.pruned_v.count_ones() <= layer.v.count_ones());
    }
}

#[test]
fn bsa_workloads_are_cheaper_to_execute() {
    let config = quick_model();
    let baseline = calibrated_workload(&config, TrainingRegime::Baseline, 21);
    let bsa = calibrated_workload(&config, TrainingRegime::Bsa, 21);
    let simulator = BishopSimulator::new(BishopConfig::default());
    let baseline_run = simulator.simulate(&baseline, &SimOptions::baseline());
    let bsa_run = simulator.simulate(&bsa, &SimOptions::baseline());
    assert!(bsa_run.total_energy_pj() < baseline_run.total_energy_pj());
    assert!(bsa_run.total_cycles() <= baseline_run.total_cycles());
}

#[test]
fn bundle_shape_choice_affects_but_does_not_break_simulation() {
    let config = quick_model();
    let workload = calibrated_workload(&config, TrainingRegime::Baseline, 33);
    for (bst, bsn) in [(1, 1), (2, 4), (4, 8)] {
        let run =
            BishopSimulator::new(BishopConfig::default().with_bundle(BundleShape::new(bst, bsn)))
                .simulate(&workload, &SimOptions::baseline());
        assert!(run.total_latency_seconds() > 0.0);
        assert!(run.total_energy_mj() > 0.0);
    }
}

#[test]
fn area_and_power_budgets_are_iso_between_bishop_and_ptb() {
    let bishop = AreaPowerBreakdown::bishop_28nm();
    let ptb = AreaPowerBreakdown::ptb_28nm();
    assert!((bishop.total_area_mm2() / ptb.total_area_mm2() - 1.0).abs() < 0.1);
    assert!((bishop.total_power_mw() / ptb.total_power_mw() - 1.0).abs() < 0.1);
}
