//! Serving accounting: every request the online server is offered ends in
//! exactly one counter, and every server-wide figure is the sum of the
//! per-engine figures it is built from.
//!
//! The mixed trace covers each way a request can end: executed on the
//! simulator or on native, routed by `"auto"` with and without a deadline,
//! refused typed by its engine (ECP on native), naming an engine the
//! registry does not hold, shed at the `max_pending` cap, and shed after
//! shutdown.

use std::sync::Arc;
use std::time::Duration;

use bishop::core::SimOptions;
use bishop::engine::{CatalogEntry, EngineName, EngineRegistry};
use bishop::runtime::{
    default_mixed_models, BatchPolicy, InferenceRequest, OnlineConfig, OnlineServer, OnlineStats,
    Rejection, RuntimeConfig, SamplerConfig, ServeError, Ticket,
};

/// The catalog entry that serves without ECP (native can execute it).
fn baseline_entry() -> Arc<CatalogEntry> {
    default_mixed_models()
        .into_iter()
        .find(|entry| entry.options.ecp_threshold.is_none())
        .expect("the catalog holds a baseline entry")
}

fn tpu() -> EngineName {
    EngineName::from("tpu")
}

/// The invariants that must hold once a server has drained.
fn assert_balanced(stats: &OnlineStats, unknown_engine: u64) {
    assert_eq!(
        stats.submitted,
        stats.admitted + stats.admission.total(),
        "every offered request is admitted or shed: {stats:?}"
    );
    assert_eq!(
        stats.admitted,
        stats.completed + stats.failed,
        "every admitted request completes or fails: {stats:?}"
    );
    let engines = &stats.engines;
    assert_eq!(
        stats.completed,
        engines.iter().map(|e| e.completed).sum::<u64>()
    );
    assert_eq!(
        stats.batches_executed,
        engines.iter().map(|e| e.batches_executed).sum::<u64>()
    );
    assert_eq!(
        stats.queue_depth,
        engines.iter().map(|e| e.queue_depth).sum::<usize>()
    );
    assert_eq!(
        stats.failed,
        engines.iter().map(|e| e.failed).sum::<u64>() + unknown_engine
    );
    assert_eq!(stats.queue_depth, 0, "a drained server has no queue");
    assert_eq!(stats.backlog_ops, 0, "a drained server has no backlog");
}

#[test]
fn a_mixed_trace_balances_every_counter() {
    // Eight requests reach a domain and no batch fills before the flush
    // (the "tpu" one never queues), so a ninth admission hits the
    // `max_pending` cap.
    let config = OnlineConfig::new(RuntimeConfig::new(2, BatchPolicy::new(8)))
        .with_batch_timeout(None)
        .with_max_pending(8)
        .with_sampler(
            SamplerConfig::default()
                .with_intervals(Duration::from_millis(1), Duration::from_millis(5)),
        );
    let server = OnlineServer::start(config);
    let handle = server.handle();
    let obs = Arc::clone(handle.obs());
    // Wait for the sampler's first scrape to set the zero baseline before
    // traffic, so every outcome lands in the counter deltas read back below
    // (`batches.total` is the last of them a scrape records).
    let booted = std::time::Instant::now();
    while !obs
        .timeseries
        .series_names()
        .iter()
        .any(|name| name == "batches.total")
    {
        assert!(
            booted.elapsed() < Duration::from_secs(10),
            "sampler never scraped"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let baseline = baseline_entry();
    let request = |id: u64, engine: EngineName| {
        InferenceRequest::new(id, Arc::clone(&baseline), id).with_engine(engine)
    };
    let mut ok: Vec<Ticket> = Vec::new();
    for id in 0..2 {
        ok.push(
            handle
                .try_submit(request(id, EngineName::simulator()))
                .expect("admitted"),
        );
    }
    for id in 2..4 {
        ok.push(
            handle
                .try_submit(request(id, EngineName::native()))
                .expect("admitted"),
        );
    }
    ok.push(
        handle
            .try_submit(request(4, EngineName::auto()))
            .expect("admitted"),
    );
    ok.push(
        handle
            .try_submit_with_deadline(request(5, EngineName::auto()), Duration::from_secs(60))
            .expect("a minute is a meetable deadline"),
    );
    // An ECP profile skips native under "auto" and lands on the simulator.
    ok.push(
        handle
            .try_submit(request(6, EngineName::auto()).with_options(SimOptions::with_ecp(6)))
            .expect("admitted"),
    );
    let unknown = handle.try_submit(request(7, tpu())).expect("admitted");
    // Named explicitly, native refuses ECP typed after dispatch.
    let refused = handle
        .try_submit(request(8, EngineName::native()).with_options(SimOptions::with_ecp(6)))
        .expect("admitted");
    assert_eq!(
        handle.try_submit(request(9, EngineName::simulator())).err(),
        Some(Rejection::QueueFull),
        "eight queued requests fill the cap"
    );

    handle.flush();
    for ticket in ok {
        ticket.wait().expect("resolved").expect("executed");
    }
    let error = refused
        .wait()
        .expect("resolved")
        .expect_err("native refuses ECP");
    assert_eq!(error.code(), "ecp_unsupported");
    assert_eq!(
        unknown.wait().expect("resolved"),
        Err(ServeError::UnknownEngine(tpu()))
    );

    let stats = server.shutdown();
    assert_balanced(&stats, 1);
    assert_eq!(
        handle
            .try_submit(request(10, EngineName::simulator()))
            .err(),
        Some(Rejection::ShuttingDown)
    );
    let stats = handle.stats();
    assert_balanced(&stats, 1);
    assert_eq!(stats.submitted, 11);
    assert_eq!(stats.completed, 7);
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.admission.queue_full, 1);
    assert_eq!(stats.admission.shutdown, 1);
    let native = stats
        .engines
        .iter()
        .find(|e| e.engine == EngineName::native())
        .expect("native stats");
    assert_eq!(native.failed, 1, "the ECP refusal is native's");

    // The sampler's server-wide series are the same sums (its final
    // scrape runs after the domains drained).
    let now = obs.timeseries.now_seconds();
    let counter = |name: &str| obs.timeseries.window_sum(name, 3600.0, now);
    assert_eq!(counter("requests.ok"), stats.completed as f64);
    assert_eq!(counter("requests.failed"), stats.failed as f64);
    assert_eq!(counter("batches.total"), stats.batches_executed as f64);
}

#[test]
fn an_unknown_engine_resolves_at_submission_without_a_flush() {
    // No batch timeout and room for eight riders: a request that went to a
    // batcher would wait for a flush. An unregistered engine never does.
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(8))).with_batch_timeout(None),
    );
    let handle = server.handle();
    let ticket = handle
        .try_submit(InferenceRequest::new(0, baseline_entry(), 0).with_engine(tpu()))
        .expect("admitted");
    assert_eq!(
        ticket.try_wait(),
        Some(Err(ServeError::UnknownEngine(tpu())))
    );
    let stats = server.shutdown();
    assert_balanced(&stats, 1);
    assert_eq!(stats.batches_executed, 0);
}

#[test]
fn an_empty_registry_boots_and_resolves_every_request_unknown() {
    let server = OnlineServer::start(
        OnlineConfig::new(RuntimeConfig::new(1, BatchPolicy::new(4)))
            .with_batch_timeout(None)
            .with_registry(Arc::new(EngineRegistry::new())),
    );
    let handle = server.handle();
    let entry = baseline_entry();
    let request = |id: u64, engine: EngineName| {
        InferenceRequest::new(id, Arc::clone(&entry), id).with_engine(engine)
    };
    let tickets = [
        handle.try_submit(request(0, EngineName::simulator())),
        handle.try_submit_with_deadline(request(1, EngineName::native()), Duration::from_millis(1)),
        handle.submit_blocking(request(2, tpu())),
    ];
    handle.flush();
    for ticket in tickets {
        let error = ticket
            .expect("admitted")
            .wait()
            .expect("resolved")
            .expect_err("nothing is registered");
        assert_eq!(error.code(), "unknown_engine");
    }
    let stats = server.shutdown();
    assert!(stats.engines.is_empty());
    assert_balanced(&stats, 3);
    assert_eq!(stats.admitted, 3);
    assert_eq!(stats.failed, 3);
}
