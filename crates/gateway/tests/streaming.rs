//! Streamed serving and session continuation through the full HTTP stack:
//! chunked NDJSON step events, `POST/GET/DELETE /v1/sessions`, split-request
//! determinism against the single-request path, chunked request bodies, and
//! the session/stream observability surfaces.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use bishop_gateway::{Gateway, GatewayConfig, Json, ModelCatalog};
use bishop_model::{DatasetKind, ModelConfig};
use bishop_runtime::{BatchPolicy, OnlineConfig, OnlineServer, RuntimeConfig};
use bishop_session::{SessionId, SessionStoreConfig};

/// The running stack under test.
struct Stack {
    runtime: OnlineServer,
    gateway: Gateway,
}

impl Stack {
    fn boot(online: OnlineConfig, gateway: GatewayConfig) -> Stack {
        let runtime = OnlineServer::start(online);
        let gateway = Gateway::start(gateway, runtime.handle()).expect("bind ephemeral port");
        Stack { runtime, gateway }
    }

    /// Default runtime plus a deliberately tiny extra model so native
    /// streaming runs in milliseconds.
    fn default() -> Stack {
        Self::with_gateway(GatewayConfig::default().with_catalog(mini_catalog()))
    }

    fn with_gateway(gateway: GatewayConfig) -> Stack {
        Self::boot(
            OnlineConfig::new(RuntimeConfig::new(2, BatchPolicy::new(4)))
                .with_batch_timeout(Some(Duration::from_millis(10))),
            gateway,
        )
    }

    fn addr(&self) -> SocketAddr {
        self.gateway.local_addr()
    }

    fn finish(self) {
        self.gateway.shutdown();
        self.runtime.shutdown();
    }
}

fn mini_catalog() -> ModelCatalog {
    ModelCatalog::serving_default().with_model(
        "stream-mini",
        ModelConfig::new("stream-mini", DatasetKind::Cifar10, 1, 4, 8, 16, 2),
        bishop_bundle::TrainingRegime::Bsa,
        bishop_core::SimOptions::baseline(),
    )
}

fn post(path: &str, body: &str, close: bool) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n{}\r\n{body}",
        body.len(),
        if close { "Connection: close\r\n" } else { "" },
    )
    .into_bytes()
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").into_bytes()
}

fn delete(path: &str) -> Vec<u8> {
    format!("DELETE {path} HTTP/1.1\r\nConnection: close\r\n\r\n").into_bytes()
}

/// Sends raw bytes, reads until EOF, returns (status, full response text).
fn raw_roundtrip(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).expect("send");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    (parse_status(&reply), reply)
}

fn parse_status(reply: &str) -> u16 {
    reply
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {reply:?}"))
}

/// Parses the JSON body of a plain (Content-Length) response.
fn body_json(reply: &str) -> Json {
    let body = reply.split_once("\r\n\r\n").expect("response body").1;
    Json::parse(body).unwrap_or_else(|e| panic!("bad body JSON ({e}): {body:?}"))
}

/// De-chunks the body of a `Transfer-Encoding: chunked` response and parses
/// each NDJSON line. Panics if the terminating 0-chunk is missing.
fn dechunk_events(reply: &str) -> Vec<Json> {
    assert!(
        reply.contains("Transfer-Encoding: chunked"),
        "expected a chunked response, got: {reply:?}"
    );
    let raw = reply
        .split_once("\r\n\r\n")
        .expect("chunked body")
        .1
        .as_bytes();
    let mut payload = Vec::new();
    let mut pos = 0;
    loop {
        let line_end = raw[pos..]
            .windows(2)
            .position(|w| w == b"\r\n")
            .map(|i| pos + i)
            .expect("chunk size line");
        let size_text = std::str::from_utf8(&raw[pos..line_end]).expect("UTF-8 size line");
        let size = usize::from_str_radix(size_text.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk size {size_text:?}"));
        pos = line_end + 2;
        if size == 0 {
            break;
        }
        payload.extend_from_slice(&raw[pos..pos + size]);
        pos += size + 2;
    }
    let text = String::from_utf8(payload).expect("UTF-8 NDJSON payload");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad event JSON ({e}): {l:?}")))
        .collect()
}

/// Submits a streamed inference and returns (step events, terminal event).
fn stream_infer(addr: SocketAddr, body: &str) -> (Vec<Json>, Json) {
    let (status, reply) = raw_roundtrip(addr, &post("/v1/infer", body, true));
    assert_eq!(status, 200, "{reply}");
    let mut events = dechunk_events(&reply);
    assert!(!events.is_empty(), "stream carried no events: {reply}");
    let terminal = events.pop().expect("terminal event");
    (events, terminal)
}

fn event_kind(event: &Json) -> &str {
    event
        .get("event")
        .and_then(Json::as_str)
        .expect("every NDJSON line carries an \"event\" discriminator")
}

#[test]
fn streamed_native_infer_delivers_step_events_then_the_result() {
    let stack = Stack::default();
    let (steps, terminal) = stream_infer(
        stack.addr(),
        r#"{"model": "stream-mini", "engine": "native", "seed": 1, "stream": true}"#,
    );

    // Step events land on the wire before the terminal result is written,
    // so a client sees progress before execution completes.
    assert_eq!(steps.len(), 4, "one event per timestep");
    for (i, event) in steps.iter().enumerate() {
        assert_eq!(event_kind(event), "step");
        assert_eq!(event.get("index").and_then(Json::as_u64), Some(i as u64));
        assert_eq!(event.get("total").and_then(Json::as_u64), Some(4));
        assert_eq!(
            event.get("unit").and_then(Json::as_str),
            Some("timestep"),
            "native progress unit is the timestep"
        );
    }
    assert_eq!(event_kind(&terminal), "result");
    assert_eq!(
        terminal.get("engine").and_then(Json::as_str),
        Some("native")
    );
    assert_eq!(
        terminal.get("timesteps_done").and_then(Json::as_u64),
        Some(4)
    );
    let logits = match terminal.get("logits") {
        Some(Json::Array(values)) => values,
        other => panic!("native results carry logits, got {other:?}"),
    };
    assert_eq!(logits.len(), DatasetKind::Cifar10.classes());
    stack.finish();
}

#[test]
fn streamed_simulator_infer_reports_per_layer_progress() {
    let stack = Stack::default();
    let (steps, terminal) = stream_infer(
        stack.addr(),
        r#"{"model": "stream-mini", "engine": "simulator", "seed": 2, "stream": true}"#,
    );
    assert!(!steps.is_empty(), "simulator streams layer progress");
    assert!(steps
        .iter()
        .all(|e| e.get("unit").and_then(Json::as_str) == Some("layer")));
    assert_eq!(event_kind(&terminal), "result");
    assert!(terminal.get("cycles").and_then(Json::as_u64).is_some());
    assert!(terminal.get("energy_mj").and_then(Json::as_f64).is_some());
    stack.finish();
}

#[test]
fn streamed_responses_preserve_keep_alive() {
    let stack = Stack::default();
    let mut stream = TcpStream::connect(stack.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(&post(
            "/v1/infer",
            r#"{"model": "stream-mini", "engine": "native", "seed": 3, "stream": true}"#,
            false,
        ))
        .expect("send streamed");
    // Read one full chunked response (through its 0-chunk terminator).
    let mut buffer = Vec::new();
    let mut chunk = [0u8; 4096];
    while !buffer.windows(7).any(|w| w == b"\r\n0\r\n\r\n") {
        let n = stream.read(&mut chunk).expect("read stream");
        assert!(n > 0, "peer closed mid-stream");
        buffer.extend_from_slice(&chunk[..n]);
    }
    let reply = String::from_utf8(buffer).expect("UTF-8 reply");
    let events = dechunk_events(&reply);
    assert_eq!(event_kind(events.last().unwrap()), "result");

    // The connection is still usable for a second, plain request.
    stream
        .write_all(&post(
            "/v1/infer",
            r#"{"model": "stream-mini", "seed": 4}"#,
            true,
        ))
        .expect("send follow-up");
    let mut follow_up = String::new();
    stream
        .read_to_string(&mut follow_up)
        .expect("read follow-up");
    assert_eq!(parse_status(&follow_up), 200, "{follow_up}");
    stack.finish();
}

/// The tentpole determinism guarantee, end to end over HTTP: a 4-timestep
/// native inference split into two session-continued requests produces
/// bit-identical logits to the single-request path.
#[test]
fn session_split_is_bit_identical_to_a_single_request_on_native() {
    let stack = Stack::default();
    let addr = stack.addr();

    let (_, single) = stream_infer(
        addr,
        r#"{"model": "stream-mini", "engine": "native", "seed": 7, "stream": true}"#,
    );
    let single_logits = single.get("logits").expect("native logits").encode();

    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/sessions",
            r#"{"model": "stream-mini", "engine": "native", "seed": 7}"#,
            true,
        ),
    );
    assert_eq!(status, 200, "{reply}");
    let id = body_json(&reply)
        .get("id")
        .and_then(Json::as_str)
        .expect("session id")
        .to_string();

    // First half: a *non-streamed* continuation (covers the blocking
    // session path). The session's seed wins — none is sent here.
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/infer",
            &format!(r#"{{"model": "stream-mini", "session": "{id}", "timesteps": 2}}"#),
            true,
        ),
    );
    assert_eq!(status, 200, "{reply}");
    let first = body_json(&reply);
    assert_eq!(first.get("session").and_then(Json::as_str), Some(&id[..]));
    assert_eq!(first.get("timesteps_done").and_then(Json::as_u64), Some(2));

    // Second half: streamed, default step count (the remaining horizon).
    let (steps, second) = stream_infer(
        addr,
        &format!(r#"{{"model": "stream-mini", "session": "{id}", "stream": true}}"#),
    );
    // Event indices continue the absolute timestep count across requests.
    assert_eq!(
        steps.first().unwrap().get("index").and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(
        steps.last().unwrap().get("index").and_then(Json::as_u64),
        Some(3)
    );
    assert_eq!(second.get("timesteps_done").and_then(Json::as_u64), Some(4));
    let split_logits = second.get("logits").expect("native logits").encode();
    assert_eq!(
        split_logits, single_logits,
        "two-request continuation diverged from the single-request path"
    );

    // The horizon is now fully consumed: a further default continuation is
    // refused typed.
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/infer",
            &format!(r#"{{"model": "stream-mini", "session": "{id}"}}"#),
            true,
        ),
    );
    assert_eq!(status, 422, "{reply}");
    assert!(reply.contains("session_complete"), "{reply}");
    stack.finish();
}

#[test]
fn session_split_is_bit_identical_to_a_single_request_on_the_simulator() {
    let stack = Stack::default();
    let addr = stack.addr();

    let (_, single) = stream_infer(
        addr,
        r#"{"model": "cifar10-serve", "engine": "simulator", "seed": 5, "stream": true}"#,
    );

    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/sessions",
            r#"{"model": "cifar10-serve", "seed": 5}"#,
            true,
        ),
    );
    assert_eq!(status, 200, "{reply}");
    let created = body_json(&reply);
    // The default engine hosts the session when none is named.
    assert_eq!(
        created.get("engine").and_then(Json::as_str),
        Some("simulator")
    );
    let id = created
        .get("id")
        .and_then(Json::as_str)
        .expect("session id")
        .to_string();

    let (_, first) = stream_infer(
        addr,
        &format!(
            r#"{{"model": "cifar10-serve", "session": "{id}", "timesteps": 3, "stream": true}}"#
        ),
    );
    assert_eq!(first.get("timesteps_done").and_then(Json::as_u64), Some(3));
    let (_, second) = stream_infer(
        addr,
        &format!(r#"{{"model": "cifar10-serve", "session": "{id}", "stream": true}}"#),
    );
    assert_eq!(second.get("timesteps_done").and_then(Json::as_u64), Some(4));
    for field in ["cycles", "energy_mj"] {
        assert_eq!(
            second.get(field).map(Json::encode),
            single.get(field).map(Json::encode),
            "simulated {field} diverged across the split"
        );
    }
    stack.finish();
}

#[test]
fn session_crud_lifecycle_over_http() {
    let stack = Stack::default();
    let addr = stack.addr();

    // Unknown models and non-streaming engines are refused at creation.
    let (status, reply) = raw_roundtrip(addr, &post("/v1/sessions", r#"{"model": "nope"}"#, true));
    assert_eq!(status, 400, "{reply}");
    assert!(reply.contains("unknown_model"));
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/sessions",
            r#"{"model": "cifar10-serve", "engine": "ptb"}"#,
            true,
        ),
    );
    assert_eq!(status, 422, "{reply}");
    assert!(reply.contains("streaming_unsupported"));

    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/sessions",
            r#"{"model": "cifar10-serve", "engine": "native", "seed": 9}"#,
            true,
        ),
    );
    assert_eq!(status, 200, "{reply}");
    let id = body_json(&reply)
        .get("id")
        .and_then(Json::as_str)
        .expect("session id")
        .to_string();
    assert!(id.starts_with("sess-"), "wire id format: {id}");

    let (status, reply) = raw_roundtrip(addr, &get("/v1/sessions"));
    assert_eq!(status, 200, "{reply}");
    let listing = body_json(&reply);
    assert_eq!(listing.get("active").and_then(Json::as_u64), Some(1));
    let sessions = match listing.get("sessions") {
        Some(Json::Array(rows)) => rows,
        other => panic!("sessions listing: {other:?}"),
    };
    assert_eq!(sessions[0].get("id").and_then(Json::as_str), Some(&id[..]));
    assert_eq!(
        sessions[0].get("engine").and_then(Json::as_str),
        Some("native")
    );
    assert_eq!(
        sessions[0].get("in_flight").and_then(Json::as_bool),
        Some(false)
    );

    // A session pinned to native refuses an explicitly conflicting engine.
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/infer",
            &format!(r#"{{"model": "cifar10-serve", "session": "{id}", "engine": "simulator"}}"#),
            true,
        ),
    );
    assert_eq!(status, 422, "{reply}");
    assert!(reply.contains("session_engine_mismatch"));
    // ... and a different model entirely.
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/infer",
            &format!(r#"{{"model": "imagenet100-serve", "session": "{id}"}}"#),
            true,
        ),
    );
    assert_eq!(status, 422, "{reply}");
    assert!(reply.contains("session_model_mismatch"));

    let (status, reply) = raw_roundtrip(addr, &delete(&format!("/v1/sessions/{id}")));
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("evicted"));
    // The id is generation-counted: once evicted it never resolves again.
    let (status, reply) = raw_roundtrip(addr, &delete(&format!("/v1/sessions/{id}")));
    assert_eq!(status, 404, "{reply}");
    assert!(reply.contains("session_not_found"));
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/infer",
            &format!(r#"{{"model": "cifar10-serve", "session": "{id}"}}"#),
            true,
        ),
    );
    assert_eq!(status, 404, "{reply}");
    stack.finish();
}

#[test]
fn in_flight_sessions_refuse_concurrent_resume_and_eviction() {
    let stack = Stack::default();
    let addr = stack.addr();
    let store = std::sync::Arc::clone(stack.gateway.sessions());
    let id = store
        .create("cifar10-serve", "simulator", 1)
        .expect("slot available");
    let lease = store.begin(id).expect("lease");

    let (status, reply) = raw_roundtrip(addr, &delete(&format!("/v1/sessions/{id}")));
    assert_eq!(status, 409, "{reply}");
    assert!(reply.contains("session_in_flight"));
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/infer",
            &format!(r#"{{"model": "cifar10-serve", "session": "{id}"}}"#),
            true,
        ),
    );
    assert_eq!(status, 409, "{reply}");

    // Dropping the lease parks the session again; eviction now succeeds.
    drop(lease);
    let (status, reply) = raw_roundtrip(addr, &delete(&format!("/v1/sessions/{id}")));
    assert_eq!(status, 200, "{reply}");
    stack.finish();
}

#[test]
fn idle_sessions_expire_into_410_gone() {
    let stack = Stack::with_gateway(GatewayConfig::default().with_session_store(
        SessionStoreConfig {
            capacity: 4,
            ttl: Duration::from_millis(40),
        },
    ));
    let addr = stack.addr();
    let (status, reply) = raw_roundtrip(
        addr,
        &post("/v1/sessions", r#"{"model": "cifar10-serve"}"#, true),
    );
    assert_eq!(status, 200, "{reply}");
    let id = body_json(&reply)
        .get("id")
        .and_then(Json::as_str)
        .expect("session id")
        .to_string();

    std::thread::sleep(Duration::from_millis(80));
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/infer",
            &format!(r#"{{"model": "cifar10-serve", "session": "{id}"}}"#),
            true,
        ),
    );
    assert_eq!(status, 410, "{reply}");
    assert!(reply.contains("session_expired"));

    let (status, reply) = raw_roundtrip(addr, &get("/v1/sessions"));
    assert_eq!(status, 200, "{reply}");
    assert_eq!(
        body_json(&reply).get("active").and_then(Json::as_u64),
        Some(0)
    );
    let (status, metrics) = raw_roundtrip(addr, &get("/metrics"));
    assert_eq!(status, 200);
    assert!(
        metrics.contains("bishop_sessions_evicted_total{reason=\"ttl\"} 1"),
        "{metrics}"
    );
    stack.finish();
}

/// A chunked *request* body reaches the runtime like any other: the parser
/// reassembles it before `/v1/infer` decoding.
#[test]
fn chunked_request_bodies_are_reassembled_end_to_end() {
    let stack = Stack::default();
    let body = r#"{"model": "stream-mini", "seed": 6}"#;
    let (head, tail) = body.split_at(12);
    let raw = format!(
        "POST /v1/infer HTTP/1.1\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n\
         {:x}\r\n{head}\r\n{:x}\r\n{tail}\r\n0\r\n\r\n",
        head.len(),
        tail.len(),
    );
    let (status, reply) = raw_roundtrip(stack.addr(), raw.as_bytes());
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"latency_seconds\""));
    stack.finish();
}

#[test]
fn trace_listing_filters_by_session_id() {
    let stack = Stack::default();
    let addr = stack.addr();
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/sessions",
            r#"{"model": "stream-mini", "engine": "native"}"#,
            true,
        ),
    );
    assert_eq!(status, 200, "{reply}");
    let id = body_json(&reply)
        .get("id")
        .and_then(Json::as_str)
        .expect("session id")
        .to_string();

    // One session-tagged request, one plain one.
    let (status, _) = raw_roundtrip(
        addr,
        &post(
            "/v1/infer",
            &format!(r#"{{"model": "stream-mini", "session": "{id}", "timesteps": 1}}"#),
            true,
        ),
    );
    assert_eq!(status, 200);
    let (status, _) = raw_roundtrip(
        addr,
        &post("/v1/infer", r#"{"model": "stream-mini", "seed": 8}"#, true),
    );
    assert_eq!(status, 200);

    // Traces are finished just after the response hits the wire; poll
    // briefly rather than racing it.
    let mut rows = Vec::new();
    for _ in 0..50 {
        let (status, reply) = raw_roundtrip(addr, &get(&format!("/v1/debug/traces?session={id}")));
        assert_eq!(status, 200, "{reply}");
        match body_json(&reply).get("recent") {
            Some(Json::Array(recent)) if !recent.is_empty() => {
                rows = recent.clone();
                break;
            }
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert_eq!(rows.len(), 1, "only the session-tagged trace matches");
    assert_eq!(rows[0].get("session").and_then(Json::as_str), Some(&id[..]));
    stack.finish();
}

#[test]
fn metrics_expose_stream_and_session_families() {
    let stack = Stack::default();
    let addr = stack.addr();
    let (steps, _) = stream_infer(
        addr,
        r#"{"model": "stream-mini", "engine": "native", "seed": 1, "stream": true}"#,
    );
    assert!(!steps.is_empty());
    let (status, reply) = raw_roundtrip(
        addr,
        &post("/v1/sessions", r#"{"model": "stream-mini"}"#, true),
    );
    assert_eq!(status, 200, "{reply}");
    let id = body_json(&reply)
        .get("id")
        .and_then(Json::as_str)
        .expect("session id")
        .to_string();
    let (status, metrics) = raw_roundtrip(addr, &get("/metrics"));
    assert_eq!(status, 200);
    assert!(
        metrics.contains("bishop_stream_events_total{engine=\"native\"} 4"),
        "{metrics}"
    );
    assert!(metrics.contains("bishop_sessions_active 1"), "{metrics}");
    assert!(
        metrics.contains("bishop_sessions_evicted_total{reason=\"explicit\"} 0"),
        "{metrics}"
    );
    let (status, _) = raw_roundtrip(addr, &delete(&format!("/v1/sessions/{id}")));
    assert_eq!(status, 200);
    let (_, metrics) = raw_roundtrip(addr, &get("/metrics"));
    assert!(metrics.contains("bishop_sessions_active 0"), "{metrics}");
    assert!(
        metrics.contains("bishop_sessions_evicted_total{reason=\"explicit\"} 1"),
        "{metrics}"
    );
    stack.finish();
}

/// Refusals knowable from the request profile arrive as plain typed 422s —
/// never after a chunked 200 header has committed.
#[test]
fn streaming_preflight_refuses_before_headers_commit() {
    let stack = Stack::default();
    let addr = stack.addr();
    for body in [
        // Baseline engines have no streaming path.
        r#"{"model": "cifar10-serve", "engine": "ptb", "stream": true}"#,
        // "auto" cannot pin the engine identity a stream/session needs.
        r#"{"model": "cifar10-serve", "engine": "auto", "stream": true}"#,
    ] {
        let (status, reply) = raw_roundtrip(addr, &post("/v1/infer", body, true));
        assert_eq!(status, 422, "{reply}");
        assert!(reply.contains("streaming_unsupported"), "{reply}");
        assert!(
            !reply.contains("Transfer-Encoding"),
            "refusal must be a plain response: {reply}"
        );
    }
    // Overrunning the model horizon is caught at decode, too.
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/infer",
            r#"{"model": "stream-mini", "engine": "native", "timesteps": 9, "stream": true}"#,
            true,
        ),
    );
    assert_eq!(status, 422, "{reply}");
    assert!(reply.contains("timesteps_out_of_range"), "{reply}");
    let sid = {
        let store = stack.gateway.sessions();
        store.create("stream-mini", "native", 1).expect("slot")
    };
    // Bad wire ids never reach the store.
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/infer",
            r#"{"model": "stream-mini", "session": "not-a-session"}"#,
            true,
        ),
    );
    assert_eq!(status, 400, "{reply}");
    let _ = SessionId::parse(&sid.to_string()).expect("wire id round-trips");

    // A continuation without an "engine" field runs on its session's
    // engine, so it is preflighted against that engine — not the registry
    // default. Native has no ECP path: refused plain, streamed or not,
    // before any queue or worker sees the request.
    let (status, reply) = raw_roundtrip(
        addr,
        &post(
            "/v1/sessions",
            r#"{"model": "stream-mini", "engine": "native"}"#,
            true,
        ),
    );
    assert_eq!(status, 200, "{reply}");
    let id = body_json(&reply)
        .get("id")
        .and_then(Json::as_str)
        .expect("session id")
        .to_string();
    for stream in [true, false] {
        let (status, reply) = raw_roundtrip(
            addr,
            &post(
                "/v1/infer",
                &format!(
                    r#"{{"model": "stream-mini", "session": "{id}", "ecp_threshold": 6,
                        "stream": {stream}}}"#
                ),
                true,
            ),
        );
        assert_eq!(status, 422, "stream={stream}: {reply}");
        assert!(reply.contains("ecp_unsupported"), "{reply}");
        assert!(
            !reply.contains("Transfer-Encoding"),
            "refusal must be a plain response: {reply}"
        );
    }
    let (status, reply) = raw_roundtrip(addr, &get("/v1/engines"));
    assert_eq!(status, 200, "{reply}");
    let Json::Array(engines) = body_json(&reply) else {
        panic!("engine listing: {reply}");
    };
    let native = engines
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("native"))
        .expect("native entry");
    assert_eq!(native.get("failed").and_then(Json::as_u64), Some(0));
    // The refusals left the session parked: it continues to its horizon.
    let (steps, terminal) = stream_infer(
        addr,
        &format!(r#"{{"model": "stream-mini", "session": "{id}", "stream": true}}"#),
    );
    assert_eq!(steps.len(), 4);
    assert_eq!(event_kind(&terminal), "result", "{terminal:?}");
    assert_eq!(
        terminal.get("timesteps_done").and_then(Json::as_u64),
        Some(4)
    );
    stack.finish();
}
