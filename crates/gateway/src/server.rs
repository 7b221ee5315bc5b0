//! The gateway server: TCP acceptor, thread-per-connection handlers,
//! routing, and graceful shutdown.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bishop_obs::{EventLevel, EventValue, Stage, TraceContext};
use bishop_runtime::{Rejection, ServerHandle, Ticket};
use bishop_session::{SessionLease, SessionStore, SessionStoreConfig};

use crate::api::{
    decode_infer, decode_session, encode_result, engines_json, error_body, models_json,
    parse_session_id, profile_json, sessions_json, slo_json, step_event_json, trace_json,
    trace_summary_json, ApiError, InferSubmission, ModelCatalog,
};
use crate::http::{Limits, ParseError, Request, RequestReader, Response};
use crate::json::Json;
use crate::metrics::GatewayMetrics;

/// Configuration of a [`Gateway`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Maximum concurrently open connections; excess connections get `503`.
    pub max_connections: u64,
    /// Socket read timeout: a connection stalling mid-request longer than
    /// this gets `408` and is closed (slow-loris defence).
    pub read_timeout: Duration,
    /// HTTP parser size limits.
    pub limits: Limits,
    /// The models this gateway serves.
    pub catalog: ModelCatalog,
    /// Whether `/v1/infer` requests get an end-to-end trace (stage stamps
    /// through the runtime, a row in the trace store, histogram samples).
    /// On by default; the off position is the A/B knob the observability
    /// overhead bench measures. `X-Request-Id` is assigned either way.
    pub trace_requests: bool,
    /// Session-store bounds: slot capacity and idle TTL.
    pub sessions: SessionStoreConfig,
    /// Socket write timeout while a chunked event stream is in flight: a
    /// client draining slower than this is shed (the stream stops, the
    /// session lease is still checked in) so a stalled peer cannot pin a
    /// connection thread for the stream's whole duration.
    pub stream_write_timeout: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            read_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            catalog: ModelCatalog::serving_default(),
            trace_requests: true,
            sessions: SessionStoreConfig::default(),
            stream_write_timeout: Duration::from_secs(5),
        }
    }
}

impl GatewayConfig {
    /// Overrides the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Overrides the read timeout.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Overrides the connection cap.
    pub fn with_max_connections(mut self, max: u64) -> Self {
        self.max_connections = max;
        self
    }

    /// Overrides the parser limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Overrides the model catalog.
    pub fn with_catalog(mut self, catalog: ModelCatalog) -> Self {
        self.catalog = catalog;
        self
    }

    /// Enables or disables per-request tracing (the overhead-bench A/B
    /// knob).
    pub fn with_request_tracing(mut self, trace: bool) -> Self {
        self.trace_requests = trace;
        self
    }

    /// Overrides the session-store bounds (capacity, idle TTL).
    pub fn with_session_store(mut self, sessions: SessionStoreConfig) -> Self {
        self.sessions = sessions;
        self
    }

    /// Overrides the streamed-response write timeout (slow-client shed).
    pub fn with_stream_write_timeout(mut self, timeout: Duration) -> Self {
        self.stream_write_timeout = timeout;
        self
    }
}

/// State shared between the acceptor and every connection thread.
#[derive(Debug)]
struct Shared {
    runtime: ServerHandle,
    catalog: ModelCatalog,
    metrics: GatewayMetrics,
    sessions: Arc<SessionStore>,
    limits: Limits,
    read_timeout: Duration,
    stream_write_timeout: Duration,
    shutting_down: AtomicBool,
    next_request_id: AtomicU64,
    trace_requests: bool,
}

impl Shared {
    /// Allocates the next request id (echoed in `X-Request-Id`). Every id
    /// the gateway hands out comes from here, so ids never repeat.
    fn request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A typed error response under a freshly allocated request id.
    fn refuse(&self, error: &ApiError) -> Response {
        error_response(error, self.request_id())
    }
}

/// The machine-readable error response: `error_body` plus the matching
/// `X-Request-Id` header.
fn error_response(error: &ApiError, request_id: u64) -> Response {
    Response::json(
        error.status,
        &error_body(error.code, &error.message, request_id),
    )
    .with_header("X-Request-Id", &request_id.to_string())
}

/// A `200` JSON reply carrying `X-Request-Id`, or the typed error.
fn reply(result: Result<Json, ApiError>, request_id: u64) -> Response {
    match result {
        Ok(body) => Response::json(200, &body).with_header("X-Request-Id", &request_id.to_string()),
        Err(error) => error_response(&error, request_id),
    }
}

/// Parses a request body as UTF-8 JSON.
fn parse_body(request: &Request) -> Result<Json, ApiError> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| ApiError::new("bad_request", "body is not UTF-8"))?;
    Json::parse(text).map_err(|error| ApiError::new("bad_request", error.to_string()))
}

/// A running HTTP gateway in front of a Bishop online runtime.
///
/// Serves `POST /v1/infer`, `GET /v1/models`, `GET /metrics` (Prometheus
/// text format) and `GET /healthz` until [`Gateway::shutdown`].
#[derive(Debug)]
pub struct Gateway {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Binds the listener and starts accepting connections. The runtime
    /// handle is where admitted inference requests go.
    pub fn start(config: GatewayConfig, runtime: ServerHandle) -> std::io::Result<Gateway> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let sessions = Arc::new(SessionStore::new(config.sessions));
        // Hand the store to the runtime so the metrics sampler scrapes the
        // session gauge/counters alongside the engine series.
        runtime.register_sessions(Arc::clone(&sessions));
        let shared = Arc::new(Shared {
            runtime,
            catalog: config.catalog,
            metrics: GatewayMetrics::new(),
            sessions,
            limits: config.limits,
            read_timeout: config.read_timeout,
            stream_write_timeout: config.stream_write_timeout,
            shutting_down: AtomicBool::new(false),
            next_request_id: AtomicU64::new(0),
            trace_requests: config.trace_requests,
        });

        let acceptor = {
            let shared = Arc::clone(&shared);
            let max_connections = config.max_connections;
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutting_down.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if shared.metrics.active_connections() >= max_connections {
                        shared.metrics.connection_rejected();
                        reject_connection(stream, &shared);
                        continue;
                    }
                    shared.metrics.connection_opened();
                    let shared = Arc::clone(&shared);
                    std::thread::spawn(move || {
                        handle_connection(stream, &shared);
                        shared.metrics.connection_closed();
                    });
                }
            })
        };

        Ok(Gateway {
            local_addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Gateway-side metrics (HTTP counters). Runtime counters live on the
    /// [`ServerHandle`] passed to [`Gateway::start`].
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.shared.metrics
    }

    /// The session store backing `/v1/sessions` and `"session"`-bound
    /// inference (shared with the runtime's metrics sampler).
    pub fn sessions(&self) -> &Arc<SessionStore> {
        &self.shared.sessions
    }

    /// Graceful shutdown: stop accepting, let in-flight connections finish
    /// their current request (keep-alive connections are told to close),
    /// and join the acceptor.
    pub fn shutdown(mut self) {
        self.shared.shutting_down.store(true, Ordering::Release);
        // Wake the blocking accept with a no-op connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Connection threads exit on their own: the next request either
        // completes (with `Connection: close`) or times out. Wait bounded
        // by the read timeout plus slack.
        let deadline =
            std::time::Instant::now() + self.shared.read_timeout + Duration::from_secs(2);
        while self.shared.metrics.active_connections() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// Turns away a connection over the concurrency cap with `503`.
fn reject_connection(mut stream: TcpStream, shared: &Shared) {
    let response = shared
        .refuse(&ApiError::new("connection_limit", "connection limit reached").with_status(503))
        .with_header("Retry-After", "1");
    shared.metrics.response(503);
    if response.write_to(&mut stream, false).is_ok() {
        drain_before_close(&stream);
    }
}

/// Lingering close: the peer may still have request bytes in flight that we
/// never read (a rejected upload, a connection-cap 503). Closing with
/// unread data in the receive queue makes the kernel send RST, which can
/// destroy the error response before the client reads it — so shut down our
/// write side and briefly drain the read side first.
fn drain_before_close(stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut read_half = match stream.try_clone() {
        Ok(half) => half,
        Err(_) => return,
    };
    let _ = read_half.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    // Bounded drain: up to 256 KiB or until EOF/timeout, whichever first.
    for _ in 0..64 {
        match std::io::Read::read(&mut read_half, &mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Serves one connection until close, error, timeout or shutdown.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(shared.read_timeout)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = RequestReader::new(read_half, shared.limits);

    loop {
        match reader.read_request() {
            Ok(Some(request)) => {
                // During shutdown finish this request but close after it.
                let keep_alive =
                    request.keep_alive() && !shared.shutting_down.load(Ordering::Acquire);
                match route(&request, shared) {
                    Routed::Plain(handled) => {
                        shared.metrics.response(handled.response.status);
                        let wrote = handled.response.write_to(&mut writer, keep_alive).is_ok();
                        // The response bytes are on the wire (or the write
                        // failed — either way the request is over): close
                        // the trace. The finish feeds the stage histograms
                        // and the trace store.
                        if let Some(trace) = handled.trace {
                            trace.stamp(Stage::ResponseWrite);
                            shared.runtime.obs().finish(
                                &trace,
                                handled.response.status,
                                handled.error_code.as_deref(),
                            );
                        }
                        if !wrote || !keep_alive {
                            return;
                        }
                    }
                    // A streamed inference: the connection thread owns the
                    // chunked event phase end-to-end.
                    Routed::Stream(plan) => {
                        if !stream_response(&mut writer, plan, keep_alive, shared) {
                            return;
                        }
                    }
                }
            }
            Ok(None) => return, // peer closed cleanly between requests
            Err(error) => {
                // Only errors that owe the client a status are parse/limit
                // failures; idle keep-alive expiry and client aborts are
                // routine and must not inflate the error counter.
                if let Some(status) = error.status() {
                    shared.metrics.parse_error();
                    let (code, message) = match &error {
                        ParseError::BadRequest(m) => ("bad_request", m.as_str()),
                        ParseError::HeadTooLarge => ("head_too_large", "request head too large"),
                        ParseError::BodyTooLarge => ("body_too_large", "request body too large"),
                        ParseError::Unsupported(m) => ("unsupported", m.as_str()),
                        ParseError::BadVersion => ("http_version", "unsupported HTTP version"),
                        ParseError::Timeout { .. } => ("timeout", "timed out reading request"),
                        _ => ("aborted", "request aborted"),
                    };
                    let response = shared.refuse(&ApiError::new(code, message).with_status(status));
                    shared.metrics.response(status);
                    if response.write_to(&mut writer, false).is_ok() {
                        // The failed request's remaining bytes were never
                        // read; drain them so closing doesn't RST the
                        // response out from under the client.
                        drain_before_close(&writer);
                    }
                }
                return;
            }
        }
    }
}

/// The outcome of routing one request: the response to write plus what the
/// connection loop must finish *after* the bytes are on the wire — the
/// request's trace (if `/v1/infer` allocated one) and, for error
/// responses, the stable error code the finished trace records.
struct Handled {
    response: Response,
    trace: Option<Arc<TraceContext>>,
    error_code: Option<String>,
}

impl Handled {
    /// An endpoint response with no per-request trace.
    fn untraced(response: Response) -> Self {
        Self {
            response,
            trace: None,
            error_code: None,
        }
    }
}

/// What routing resolved to: a buffered response the connection loop writes
/// whole, or a streamed inference whose chunked event phase the loop runs.
enum Routed {
    /// A complete response, written in one piece.
    Plain(Handled),
    /// An admitted streamed inference: the connection loop drains the
    /// ticket's progress channel into chunked NDJSON events.
    Stream(StreamPlan),
}

/// Everything the connection loop needs to run one chunked event stream.
struct StreamPlan {
    request_id: u64,
    ticket: Ticket,
    /// The continued session's lease; its id is echoed on the terminal
    /// `"result"` event.
    lease: Option<SessionLease>,
    trace: Option<Arc<TraceContext>>,
    want_timings: bool,
}

/// Routes one parsed request to its endpoint.
fn route(request: &Request, shared: &Shared) -> Routed {
    match (request.method.as_str(), request.path()) {
        ("POST", "/v1/infer") => infer(request, shared),
        _ => Routed::Plain(Handled::untraced(respond(request, shared))),
    }
}

/// Answers every endpoint but `POST /v1/infer`: none carries a trace.
fn respond(request: &Request, shared: &Shared) -> Response {
    match (request.method.as_str(), request.path()) {
        ("GET", "/v1/models") => {
            Response::json(200, &models_json(&shared.catalog, shared.runtime.engines()))
        }
        ("GET", "/v1/engines") => Response::json(
            200,
            &engines_json(shared.runtime.engines(), &shared.runtime.engine_stats()),
        ),
        ("POST", "/v1/sessions") => create_session(request, shared),
        ("GET", "/v1/sessions") => {
            // Expire idled sessions first so the listing never shows a
            // session a continuation request would then find expired.
            shared.sessions.sweep();
            Response::json(200, &sessions_json(&shared.sessions))
        }
        ("DELETE", path) if path.starts_with("/v1/sessions/") => delete_session(path, shared),
        ("GET", "/metrics") => Response::text(
            200,
            "text/plain; version=0.0.4",
            shared.metrics.render_prometheus(
                &shared.runtime.stats(),
                shared.runtime.obs(),
                Some(&shared.sessions.stats()),
            ),
        ),
        ("GET", "/v1/debug/traces") => trace_listing(request, shared),
        ("GET", path) if path.starts_with("/v1/debug/traces/") => trace_detail(path, shared),
        ("GET", "/v1/slo") => {
            let obs = shared.runtime.obs();
            Response::json(200, &slo_json(&obs.slo.evaluate(&obs.timeseries, None)))
        }
        ("GET", "/v1/debug/profile") => {
            Response::json(200, &profile_json(&shared.runtime.obs().profiler.report()))
        }
        ("GET", "/healthz") => healthz(shared),
        (_, "/v1/infer") => method_not_allowed(shared, "POST"),
        (_, "/v1/sessions") => method_not_allowed(shared, "GET, POST"),
        (_, path) if path.starts_with("/v1/sessions/") => method_not_allowed(shared, "DELETE"),
        (_, "/v1/models" | "/v1/engines" | "/metrics" | "/healthz" | "/v1/slo") => {
            method_not_allowed(shared, "GET")
        }
        (_, path) if path.starts_with("/v1/debug/traces") || path == "/v1/debug/profile" => {
            method_not_allowed(shared, "GET")
        }
        _ => shared.refuse(&ApiError::new("not_found", "no such endpoint").with_status(404)),
    }
}

/// `POST /v1/sessions`: create a persistent session slot pinned to a
/// catalogued model, a streaming-capable engine and an input seed.
fn create_session(request: &Request, shared: &Shared) -> Response {
    let request_id = shared.request_id();
    let created = parse_body(request).and_then(|json| {
        let (entry, engine, seed) =
            decode_session(&json, &shared.catalog, shared.runtime.engines())?;
        let id = shared.sessions.create(&entry.name, engine, seed)?;
        Ok(Json::object(vec![
            ("id", Json::string(id.to_string())),
            ("model", Json::string(&entry.name)),
            ("engine", Json::string(engine)),
            ("seed", Json::from_u64(seed)),
            (
                "ttl_seconds",
                Json::Number(shared.sessions.config().ttl.as_secs_f64()),
            ),
        ]))
    });
    reply(created, request_id)
}

/// `DELETE /v1/sessions/<id>`: explicit eviction. In-flight sessions are a
/// `409`; stale or unknown ids a `404`.
fn delete_session(path: &str, shared: &Shared) -> Response {
    let request_id = shared.request_id();
    let token = path
        .strip_prefix("/v1/sessions/")
        .expect("caller matched the prefix");
    let evicted = parse_session_id(token).and_then(|id| {
        shared.sessions.evict(id)?;
        Ok(Json::object(vec![("evicted", Json::string(token))]))
    });
    reply(evicted, request_id)
}

/// `GET /healthz`: real readiness, not liveness theatre. `503 draining`
/// while shutting down; `503 unhealthy` when every registered engine's
/// circuit breaker is open (nothing can serve — a load balancer should
/// stop routing here); `200 ok` otherwise, with the per-engine breaker
/// states so a degraded-but-serving instance is visible at a glance.
fn healthz(shared: &Shared) -> Response {
    let draining = shared.shutting_down.load(Ordering::Acquire);
    let engine_stats = shared.runtime.engine_stats();
    let all_open = !engine_stats.is_empty()
        && engine_stats
            .iter()
            .all(|e| e.breaker.state == bishop_runtime::BreakerState::Open);
    let (status, label) = if draining {
        (503, "draining")
    } else if all_open {
        (503, "unhealthy")
    } else {
        (200, "ok")
    };
    let breakers = engine_stats
        .iter()
        .map(|e| {
            Json::object(vec![
                ("engine", Json::string(e.engine.as_str())),
                ("breaker_state", Json::string(e.breaker.state.label())),
            ])
        })
        .collect();
    Response::json(
        status,
        &Json::object(vec![
            ("status", Json::string(label)),
            (
                "queue_depth",
                Json::from_u64(engine_stats.iter().map(|e| e.queue_depth as u64).sum()),
            ),
            ("engines", Json::Array(breakers)),
        ]),
    )
}

/// `GET /v1/debug/traces`: the retained recent/slowest listings, optionally
/// narrowed by `?engine=<name>` (the engine the request served on),
/// `?session=<id>` (the session the request continued),
/// `?verdict=<chosen|degraded|shed>` (the router's decision, `"auto"`
/// requests only) and `?min_ms=<float>` (total latency floor). Filters
/// compose; a malformed `min_ms` is a `400`.
fn trace_listing(request: &Request, shared: &Shared) -> Response {
    let min_seconds = match request.query_param("min_ms") {
        Some(raw) => match raw.parse::<f64>() {
            Ok(ms) if ms.is_finite() && ms >= 0.0 => Some(ms / 1000.0),
            _ => {
                return shared.refuse(&ApiError::new(
                    "bad_request",
                    "min_ms must be a non-negative number",
                ))
            }
        },
        None => None,
    };
    let engine = request.query_param("engine");
    let session = request.query_param("session");
    let verdict = request.query_param("verdict");
    let keep = |trace: &bishop_obs::FinishedTrace| -> bool {
        if let Some(engine) = engine {
            if trace.snapshot.engine.as_deref() != Some(engine) {
                return false;
            }
        }
        if let Some(session) = session {
            if trace.snapshot.session.as_deref() != Some(session) {
                return false;
            }
        }
        if let Some(verdict) = verdict {
            let recorded = trace.snapshot.router.as_ref().map(|r| r.verdict.label());
            if recorded != Some(verdict) {
                return false;
            }
        }
        if let Some(floor) = min_seconds {
            if trace.total_seconds < floor {
                return false;
            }
        }
        true
    };
    let traces = &shared.runtime.obs().traces;
    let rows = |list: Vec<Arc<bishop_obs::FinishedTrace>>| {
        Json::Array(
            list.iter()
                .filter(|t| keep(t))
                .map(|t| trace_summary_json(t))
                .collect(),
        )
    };
    Response::json(
        200,
        &Json::object(vec![
            ("recent", rows(traces.recent())),
            ("slowest", rows(traces.slowest())),
        ]),
    )
}

/// `GET /v1/debug/traces/<id>`: one finished trace in full (stage spans,
/// batch span id, router decision record).
fn trace_detail(path: &str, shared: &Shared) -> Response {
    let id = path
        .strip_prefix("/v1/debug/traces/")
        .expect("caller matched the prefix");
    let Ok(id) = id.parse::<u64>() else {
        return shared.refuse(&ApiError::new("bad_request", "trace id must be an integer"));
    };
    match shared.runtime.obs().traces.find(id) {
        Some(trace) => Response::json(200, &trace_json(&trace)),
        None => shared.refuse(
            &ApiError::new(
                "trace_not_found",
                "no retained trace with that request id (retention is bounded)",
            )
            .with_status(404),
        ),
    }
}

fn method_not_allowed(shared: &Shared, allow: &str) -> Response {
    shared
        .refuse(&ApiError::new("method_not_allowed", "method not allowed").with_status(405))
        .with_header("Allow", allow)
}

/// A refused `/v1/infer`: the typed error, plus the `Retry-After` seconds
/// of a refusal that retrying later can cure.
struct Refusal {
    error: ApiError,
    retry_after: Option<u64>,
}

impl From<ApiError> for Refusal {
    fn from(error: ApiError) -> Self {
        Self {
            error,
            retry_after: None,
        }
    }
}

/// `POST /v1/infer`: allocate the request id and trace, then [`serve`] it.
/// Every response — success or failure — carries the id in
/// `X-Request-Id`; failures repeat it in the error body.
fn infer(request: &Request, shared: &Shared) -> Routed {
    let request_id = shared.request_id();
    // The trace is born at the edge so its clock covers the whole request:
    // the stamps the runtime adds later all share this origin.
    let trace = shared
        .trace_requests
        .then(|| Arc::new(TraceContext::new(request_id)));
    match serve(request, shared, request_id, trace.as_ref()) {
        Ok(routed) => routed,
        Err(Refusal { error, retry_after }) => {
            let mut response = error_response(&error, request_id);
            if let Some(seconds) = retry_after {
                response = response.with_header("Retry-After", &seconds.to_string());
            }
            Routed::Plain(Handled {
                response,
                trace,
                error_code: Some(error.code.to_string()),
            })
        }
    }
}

/// Decodes (leasing a continued session), admits, then either waits for
/// the ticket (blocking requests) or hands it to the connection loop's
/// chunked event writer (`"stream": true`). A lease still held when this
/// returns an error checks its session back in unchanged.
fn serve(
    request: &Request,
    shared: &Shared,
    request_id: u64,
    trace: Option<&Arc<TraceContext>>,
) -> Result<Routed, Refusal> {
    let json = parse_body(request)?;
    let InferSubmission {
        request: mut runtime_request,
        deadline,
        trace_requested,
        stream,
        lease,
    } = decode_infer(
        &json,
        &shared.catalog,
        shared.runtime.engines(),
        &shared.sessions,
        request_id,
    )?;
    let want_timings = trace_requested || request.query_flag("trace", "1");

    // What the client *asked* for ("auto" included) — the engine whose
    // predicted backlog drain prices a 429's Retry-After.
    let asked_engine = runtime_request.engine.clone();
    if let Some(trace) = trace {
        trace.set_model(&runtime_request.entry.name);
        if let Some(lease) = &lease {
            trace.set_session(&lease.id().to_string());
        }
        trace.stamp(Stage::Parse);
        runtime_request = runtime_request.with_trace(Arc::clone(trace));
    }

    let admitted = match deadline {
        Some(deadline) => shared
            .runtime
            .try_submit_with_deadline(runtime_request, deadline),
        None => shared.runtime.try_submit(runtime_request),
    };
    let ticket = admitted.map_err(|rejection| {
        let error = ApiError::new(rejection.code(), rejection.to_string());
        match rejection {
            // Load-transient sheds: retrying after backoff can succeed.
            // Retry-After is *priced*, not hardcoded: the predicted seconds
            // for the shedding engine's admitted backlog to drain at its
            // calibrated rate (for "auto", the best candidate's), clamped
            // to [1, 60].
            Rejection::QueueFull
            | Rejection::DeadlineUnmeetable
            | Rejection::NoEngineMeetsDeadline => Refusal {
                error: error.with_status(429),
                retry_after: Some(retry_seconds(
                    shared.runtime.predicted_drain_seconds(&asked_engine),
                )),
            },
            // No auto candidate can execute this request shape at all: the
            // client must change the request, so no Retry-After — 422 like
            // any other capability refusal. (The decode preflight reads the
            // same registry order and catches this first; this arm is the
            // backstop.)
            Rejection::NoEngineSupportsRequest => error.with_status(422).into(),
            // The named engine's circuit breaker is open (or, for "auto",
            // every eligible engine's is): 503, with Retry-After priced
            // from the breaker's next half-open probe window rather than
            // backlog drain.
            Rejection::EngineUnavailable => Refusal {
                error: error.with_status(503),
                retry_after: Some(retry_seconds(
                    shared
                        .runtime
                        .breaker_reopen_seconds(&asked_engine)
                        .unwrap_or(1.0),
                )),
            },
            _ => error.with_status(503).into(),
        }
    })?;

    let trace = trace.cloned();
    // Streamed requests hand the admitted ticket to the connection loop:
    // the chunked response is written event-by-event as execution runs.
    if stream {
        return Ok(Routed::Stream(StreamPlan {
            request_id,
            ticket,
            lease,
            trace,
            want_timings,
        }));
    }

    match ticket.wait() {
        Some(Ok(response)) => {
            let timings = trace.as_deref().filter(|_| want_timings);
            let body = encode_result(&response, lease, timings);
            Ok(Routed::Plain(Handled {
                response: reply(Ok(body), request_id),
                trace,
                error_code: None,
            }))
        }
        // A retryable execution fault that outlived the runtime's own
        // retry loop is server health, not the client's request: 503,
        // retry elsewhere/later. Capability refusals stay 422 — the client
        // must change the request profile.
        Some(Err(bishop_runtime::ServeError::Engine(error))) if error.retryable() => Err(Refusal {
            error: ApiError::new(error.code(), error.to_string()).with_status(503),
            retry_after: Some(1),
        }),
        Some(Err(error)) => Err(ApiError::unprocessable(error.code(), error.to_string()).into()),
        None => Err(
            ApiError::new("shutting_down", "server shut down mid-request")
                .with_status(503)
                .into(),
        ),
    }
}

/// A `Retry-After` in whole seconds, clamped to [1, 60].
fn retry_seconds(seconds: f64) -> u64 {
    seconds.ceil().clamp(1.0, 60.0) as u64
}

/// Runs the chunked event phase of one streamed inference: per-step NDJSON
/// events as execution progresses, then a terminal `"result"` (or in-band
/// `"error"`) event and the `0\r\n\r\n` terminator. Returns whether the
/// connection can stay open for another request.
///
/// A client draining slower than the stream write timeout (or gone) is
/// *shed*: writes stop, a `stream_client_shed` event is logged, but the
/// progress channel keeps draining and the ticket is still waited on, so
/// the session lease always checks back in.
fn stream_response(
    writer: &mut TcpStream,
    plan: StreamPlan,
    keep_alive: bool,
    shared: &Shared,
) -> bool {
    let StreamPlan {
        request_id,
        ticket,
        lease,
        trace,
        want_timings,
    } = plan;
    shared.metrics.response(200);
    let head = format!(
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\
         Content-Type: application/x-ndjson\r\nConnection: {}\r\n\
         X-Request-Id: {request_id}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    let _ = writer.set_write_timeout(Some(shared.stream_write_timeout));
    let mut healthy = writer
        .write_all(head.as_bytes())
        .and_then(|()| writer.flush())
        .is_ok();
    if let Some(progress) = ticket.progress() {
        let mut delivered = 0u64;
        // recv() until the worker drops its sender at completion.
        while let Ok(event) = progress.recv() {
            if !healthy {
                continue;
            }
            let mut line = step_event_json(request_id, &event).encode();
            line.push('\n');
            if write_chunk(writer, line.as_bytes()).is_ok() {
                delivered += 1;
            } else {
                healthy = false;
                shared.runtime.obs().events.emit(
                    EventLevel::Warn,
                    "stream_client_shed",
                    &[
                        ("request_id", EventValue::U64(request_id)),
                        ("events_delivered", EventValue::U64(delivered)),
                    ],
                );
            }
        }
    }
    if let Some(trace) = &trace {
        trace.stamp(Stage::StreamWrite);
    }

    // The chunked 200 header is already on the wire, so a late typed
    // refusal arrives in-band as a terminal error event (and the lease, if
    // any, checks the session in unchanged as it drops). The decode
    // preflight makes this path rare (it catches every refusal knowable
    // from the request profile); this is defence-in-depth.
    let (terminal, error_code) = match ticket.wait() {
        Some(Ok(response)) => {
            let timings = trace.as_deref().filter(|_| want_timings);
            let mut encoded = encode_result(&response, lease, timings);
            if let Json::Object(fields) = &mut encoded {
                fields.insert(0, ("event".to_string(), Json::string("result")));
                if let Some(logits) = &response.logits {
                    fields.push((
                        "logits".to_string(),
                        Json::Array(logits.iter().map(|&v| Json::Number(v as f64)).collect()),
                    ));
                }
            }
            (encoded, None)
        }
        outcome => {
            let (code, message) = match outcome {
                Some(Err(error)) => (error.code(), error.to_string()),
                _ => ("shutting_down", "server shut down mid-request".to_string()),
            };
            (
                Json::object(vec![
                    ("event", Json::string("error")),
                    ("request_id", Json::from_u64(request_id)),
                    ("code", Json::string(code)),
                    ("message", Json::string(message)),
                ]),
                Some(code),
            )
        }
    };
    if healthy {
        let mut line = terminal.encode();
        line.push('\n');
        healthy = write_chunk(writer, line.as_bytes())
            .and_then(|()| writer.write_all(b"0\r\n\r\n"))
            .and_then(|()| writer.flush())
            .is_ok();
    }
    let _ = writer.set_write_timeout(None);
    if let Some(trace) = trace {
        trace.stamp(Stage::ResponseWrite);
        shared.runtime.obs().finish(&trace, 200, error_code);
    }
    healthy && keep_alive
}

/// Writes one HTTP/1.1 chunk (`<hex size>\r\n<data>\r\n`) and flushes, so
/// streamed events reach the client as they happen.
fn write_chunk(writer: &mut impl Write, data: &[u8]) -> std::io::Result<()> {
    write!(writer, "{:x}\r\n", data.len())?;
    writer.write_all(data)?;
    writer.write_all(b"\r\n")?;
    writer.flush()
}
