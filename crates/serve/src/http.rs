//! Dependency-free HTTP/1.1 front-end for the micro-batching server.
//!
//! [`HttpServer`] puts a real wire in front of [`PredictServer`] through the
//! readiness-polled event loop of the `poll` module: one event-loop thread
//! multiplexes every connection nonblocking through a raw-syscall epoll
//! instance, complete requests are handed to `connection_workers`
//! dispatcher threads, and both HTTP deadlines live on a
//! [`crate::timer::TimerWheel`]. Tens of thousands of mostly-idle
//! keep-alive sockets cost a slab slot each, not a thread. Each connection
//! speaks HTTP/1.1 with keep-alive, parsed by the incremental
//! [`RequestParser`] below.
//!
//! # Wire protocol
//!
//! | Endpoint | Body | Response |
//! |----------|------|----------|
//! | `POST /predict` | single request object, or `{"items": [...]}` | prediction object, or `{"count": n, "predictions": [...]}` — served by the zoo's **default** model |
//! | `POST /predict/<id>` | as `POST /predict` | the same, served by the tenant registered under `<id>` (`404 unknown_model` otherwise) |
//! | `GET /model` | — | the routing table: default id plus one descriptor per tenant (arch, version, precision, side-state tags, reload counters) |
//! | `GET /model/<id>` | — | one tenant's descriptor |
//! | `POST /admin/reload/<id>` | — | atomic hot-swap of `<id>` to the current contents of its checkpoint file: `200 {"model", "version"}`, `404 unknown_model`, `400 not_reloadable`, `503 reload_failed` (+`Retry-After`) |
//! | `GET /healthz` | — | liveness: `{"status": "ok"}` whenever the process can answer at all |
//! | `GET /readyz` | — | readiness: `200` while accepting work, `503` once draining ([`HttpServer::begin_drain`]) or shut down, or with dead prediction workers (any tenant) |
//! | `GET /stats` | — | queue depth, worker/pool counters, per-endpoint request counters, a per-model object, per-stage latency quantiles and per-domain drift scores (see [`crate::telemetry`]) |
//! | `GET /metrics` | — | Prometheus text exposition (format 0.0.4, `text/plain`) of the same counters, histograms and drift gauges, plus `model`-labelled per-tenant families |
//!
//! Request and prediction objects are specified in [`crate::json`]. Every
//! error response carries `{"error": <code>, "message": <text>}`; statuses:
//!
//! * `400` — malformed request line/headers/body, invalid JSON, schema or
//!   [`dtdbd_data::RequestError`] validation failure (the validation `code`
//!   comes from [`dtdbd_data::RequestError::wire_code`]);
//! * `404` / `405` — unknown path / wrong method (with an `Allow` header);
//! * `408` — a request that did not arrive completely within
//!   `request_timeout` (slow-loris guard);
//! * `413` / `431` — body over `max_body_bytes` / head over `max_head_bytes`;
//! * `503` — the request was shed; the `code` says why and every variant
//!   carries a `Retry-After` header (seconds, derived from queue depth and
//!   drain state): `overloaded` (dispatch queue full, sent before closing
//!   the socket), `worker_crashed` (the
//!   prediction worker serving the request panicked mid-batch; its
//!   supervisor is respawning it) and `deadline_exceeded` (the request's
//!   `request_timeout` budget expired while it sat in the micro-batch
//!   queue).
//!
//! Responses are `application/json` (except `/metrics`, which is the
//! Prometheus `text/plain; version=0.0.4`), always carry `Content-Length`,
//! and honour HTTP/1.0-vs-1.1 keep-alive defaults plus `Connection: close`.
//!
//! Shutdown is graceful and runs on drop: intake stops, the event loop and
//! every dispatcher is joined, and the wrapped [`PredictServer`] then
//! drains its queue through its own [`PredictServer::shutdown`] sequence.

use crate::builder::ConfigError;
use crate::json::{self, Json};
use crate::prom::{MetricKind, PromText};
use crate::server::{PredictError, PredictServer};
use crate::session::Prediction;
use crate::telemetry::{DomainDrift, Stage};
use crate::zoo::{ModelZoo, ReloadError, Tenant, TenantModel};
use dtdbd_data::EncodedRequest;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of the HTTP listener.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`HttpServer::local_addr`]).
    pub addr: String,
    /// Dispatcher threads behind the event loop: each runs one request's
    /// routing and blocking predict wait at a time. Must be positive.
    pub connection_workers: usize,
    /// Parsed requests that may wait for a free dispatcher before the server
    /// starts answering `503 overloaded`.
    pub backlog: usize,
    /// Largest request head (request line + headers) accepted; `431` beyond.
    pub max_head_bytes: usize,
    /// Largest declared body accepted; `413` beyond.
    pub max_body_bytes: usize,
    /// Idle keep-alive deadline: a connection with no request in progress is
    /// closed after this long without bytes (a timer-wheel deadline,
    /// granularity 10 ms, never early).
    pub read_timeout: Duration,
    /// Overall deadline for one request to arrive completely (first byte to
    /// final body byte). Guards against slow-loris clients that keep each
    /// individual read under `read_timeout`; `408` beyond. It also bounds
    /// how long a response may sit unflushed against a stalled reader (cut
    /// without a status — there is no wire left to answer on).
    pub request_timeout: Duration,
}

impl Default for HttpConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            connection_workers: 8,
            backlog: 32,
            max_head_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(30),
        }
    }
}

impl HttpConfig {
    /// Reject a configuration the listener cannot serve with. The builder's
    /// `*_http` constructors call this before any prediction worker starts.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        if self.connection_workers == 0 {
            return Err(ConfigError::ZeroConnectionWorkers);
        }
        Ok(())
    }
}

/// A wire-level failure mapped to an HTTP status + stable error code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// HTTP status to answer with.
    pub status: u16,
    /// Stable machine-readable code (the JSON `"error"` field).
    pub code: &'static str,
    /// Human-readable detail (the JSON `"message"` field).
    pub message: String,
}

impl WireError {
    fn bad_request(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status: 400,
            code,
            message: message.into(),
        }
    }
}

/// A fully parsed request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method, verbatim (e.g. `"POST"`).
    pub method: String,
    /// Request target, verbatim (e.g. `"/predict?x=1"`).
    pub target: String,
    /// Headers in order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (exactly `Content-Length` bytes; empty when absent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target without its query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }
}

/// One step of incremental parsing.
#[derive(Debug)]
pub enum ParseOutcome {
    /// The buffered bytes do not yet hold a complete request.
    NeedMore,
    /// A complete request was parsed (and consumed from the buffer).
    Request(Box<HttpRequest>),
    /// The byte stream is not a parseable request; answer with the error and
    /// close the connection.
    Failed(WireError),
}

/// Incremental HTTP/1.1 request parser.
///
/// Feed it bytes as they arrive ([`RequestParser::feed`]) and poll it for
/// requests ([`RequestParser::poll`]); it consumes exactly one request's
/// bytes per `Request` outcome, so pipelined requests buffered together are
/// handed out one at a time. The parser never panics on any byte sequence —
/// the wire fuzz battery holds it to that.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    max_head_bytes: usize,
    max_body_bytes: usize,
}

const HEAD_END: &[u8] = b"\r\n\r\n";

impl RequestParser {
    /// A parser enforcing the given head/body limits.
    pub fn new(max_head_bytes: usize, max_body_bytes: usize) -> Self {
        Self {
            buf: Vec::new(),
            max_head_bytes,
            max_body_bytes,
        }
    }

    /// Buffer freshly received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (parsed requests are consumed).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether the buffered bytes contain a complete request head
    /// (`\r\n\r\n` seen). Read-only — the event loop uses it to move a
    /// connection from reading-head to reading-body without consuming
    /// anything.
    pub fn head_complete(&self) -> bool {
        find_subsequence(&self.buf, HEAD_END).is_some()
    }

    /// Try to parse one complete request out of the buffered bytes.
    pub fn poll(&mut self) -> ParseOutcome {
        let head_len = match find_subsequence(&self.buf, HEAD_END) {
            Some(i) => i,
            None => {
                if self.buf.len() > self.max_head_bytes {
                    return ParseOutcome::Failed(WireError {
                        status: 431,
                        code: "headers_too_large",
                        message: format!("request head exceeds {} bytes", self.max_head_bytes),
                    });
                }
                return ParseOutcome::NeedMore;
            }
        };
        if head_len > self.max_head_bytes {
            return ParseOutcome::Failed(WireError {
                status: 431,
                code: "headers_too_large",
                message: format!("request head exceeds {} bytes", self.max_head_bytes),
            });
        }
        let (method, target, version, headers) = match parse_head(&self.buf[..head_len]) {
            Ok(parts) => parts,
            Err(e) => return ParseOutcome::Failed(e),
        };
        let content_length = match content_length(&headers) {
            Ok(len) => len,
            Err(e) => return ParseOutcome::Failed(e),
        };
        if content_length > self.max_body_bytes as u64 {
            return ParseOutcome::Failed(WireError {
                status: 413,
                code: "body_too_large",
                message: format!(
                    "declared body of {content_length} bytes exceeds {}",
                    self.max_body_bytes
                ),
            });
        }
        let body_start = head_len + HEAD_END.len();
        // The limit check above ran on the raw u64, so the cast below cannot
        // truncate a hostile near-u64::MAX length on 32-bit targets unless
        // the limit itself is usize::MAX — and then the checked add still
        // refuses to wrap the buffer arithmetic.
        let total = match body_start.checked_add(content_length as usize) {
            Some(total) => total,
            None => {
                return ParseOutcome::Failed(WireError {
                    status: 413,
                    code: "body_too_large",
                    message: format!(
                        "declared body of {content_length} bytes overflows the buffer"
                    ),
                })
            }
        };
        if self.buf.len() < total {
            return ParseOutcome::NeedMore;
        }
        let body = self.buf[body_start..total].to_vec();
        self.buf.drain(..total);
        let keep_alive = keep_alive(version, &headers);
        ParseOutcome::Request(Box::new(HttpRequest {
            method,
            target,
            headers,
            body,
            keep_alive,
        }))
    }
}

fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Version {
    Http10,
    Http11,
}

type Head = (String, String, Version, Vec<(String, String)>);

fn parse_head(head: &[u8]) -> Result<Head, WireError> {
    // The head must be ASCII: printable characters plus tab, with CRLF line
    // separators. Reject anything else before string processing.
    if head
        .iter()
        .any(|&b| !(b == b'\r' || b == b'\n' || b == b'\t' || (0x20..0x7F).contains(&b)))
    {
        return Err(WireError::bad_request(
            "bad_head",
            "request head contains non-ASCII or control bytes",
        ));
    }
    let head = std::str::from_utf8(head).expect("checked ASCII above");
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let (method, target, version) = parse_request_line(request_line)?;
    let mut headers = Vec::new();
    for line in lines {
        headers.push(parse_header_line(line)?);
    }
    Ok((method, target, version, headers))
}

fn parse_request_line(line: &str) -> Result<(String, String, Version), WireError> {
    let mut parts = line.split(' ');
    let (method, target, version_text) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => {
            return Err(WireError::bad_request(
                "bad_request_line",
                format!("malformed request line {line:?}"),
            ))
        }
    };
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(WireError::bad_request(
            "bad_request_line",
            format!("invalid method {method:?}"),
        ));
    }
    if !target.starts_with('/') {
        return Err(WireError::bad_request(
            "bad_request_line",
            format!("request target {target:?} must start with '/'"),
        ));
    }
    let version = match version_text {
        "HTTP/1.1" => Version::Http11,
        "HTTP/1.0" => Version::Http10,
        other => {
            return Err(WireError::bad_request(
                "unsupported_version",
                format!("unsupported protocol version {other:?}"),
            ))
        }
    };
    Ok((method.to_string(), target.to_string(), version))
}

fn parse_header_line(line: &str) -> Result<(String, String), WireError> {
    let (name, value) = line.split_once(':').ok_or_else(|| {
        WireError::bad_request("bad_header", format!("header line {line:?} has no ':'"))
    })?;
    let is_token_char = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
    if name.is_empty() || !name.bytes().all(is_token_char) {
        return Err(WireError::bad_request(
            "bad_header",
            format!("invalid header name {name:?}"),
        ));
    }
    Ok((name.to_ascii_lowercase(), value.trim().to_string()))
}

fn content_length(headers: &[(String, String)]) -> Result<u64, WireError> {
    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(WireError::bad_request(
            "unsupported_transfer_encoding",
            "Transfer-Encoding is not supported; send a Content-Length body",
        ));
    }
    let mut length: Option<u64> = None;
    for (name, value) in headers {
        if name != "content-length" {
            continue;
        }
        let parsed: u64 = value
            .parse()
            .ok()
            .filter(|_| !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit()))
            .ok_or_else(|| {
                WireError::bad_request(
                    "bad_content_length",
                    format!("unparseable Content-Length {value:?}"),
                )
            })?;
        match length {
            Some(existing) if existing != parsed => {
                return Err(WireError::bad_request(
                    "bad_content_length",
                    "conflicting Content-Length headers",
                ))
            }
            _ => length = Some(parsed),
        }
    }
    Ok(length.unwrap_or(0))
}

fn keep_alive(version: Version, headers: &[(String, String)]) -> bool {
    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let has_token = |token: &str| {
        connection
            .as_deref()
            .is_some_and(|v| v.split(',').any(|t| t.trim() == token))
    };
    match version {
        Version::Http11 => !has_token("close"),
        Version::Http10 => has_token("keep-alive"),
    }
}

/// Per-endpoint and per-connection counters surfaced by `GET /stats`.
#[derive(Debug, Default)]
pub struct HttpStats {
    pub(crate) connections: AtomicU64,
    /// Requests shed with `503 overloaded` because the dispatch queue was
    /// full. The field name is part of the `/stats` and `/metrics` wire
    /// contract.
    pub(crate) connections_rejected: AtomicU64,
    /// Connections currently open (accepted and not yet closed).
    pub(crate) open_connections: AtomicU64,
    /// Requests cut at `request_timeout` (slow-loris guard; answered `408`
    /// while a wire exists, silent close for a stalled response reader).
    pub(crate) request_timeouts: AtomicU64,
    /// Idle keep-alive connections closed at `read_timeout`.
    pub(crate) idle_timeouts: AtomicU64,
    /// Entries resident in the event loop's timer wheel (a small
    /// overestimate of live deadlines — lazily cancelled entries linger
    /// until their tick passes).
    pub(crate) timers_armed: AtomicU64,
    predict_calls: AtomicU64,
    items_predicted: AtomicU64,
    healthz_calls: AtomicU64,
    readyz_calls: AtomicU64,
    stats_calls: AtomicU64,
    metrics_calls: AtomicU64,
    model_calls: AtomicU64,
    reload_calls: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
}

impl HttpStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_response(&self, status: u16) {
        match status {
            200..=299 => Self::bump(&self.responses_2xx),
            400..=499 => Self::bump(&self.responses_4xx),
            _ => Self::bump(&self.responses_5xx),
        }
    }

    fn render(&self, ctx: &Ctx) -> Json {
        // Top-level counters keep their single-model shape by reporting the
        // default tenant; the `models` object below carries every tenant.
        let predict = ctx.zoo.default_model();
        let serving = predict.stats();
        let num = |v: u64| Json::Num(v as f64);
        let mut fields = vec![
            ("ready".to_string(), Json::Bool(is_ready(ctx))),
            ("queue_depth".into(), num(serving.queue_depth as u64)),
            ("requests_served".into(), num(serving.requests_served)),
            ("batches".into(), num(serving.batches)),
            ("workers".into(), num(serving.workers as u64)),
            ("workers_alive".into(), num(predict.workers_alive() as u64)),
            ("threads".into(), num(serving.threads as u64)),
            (
                "precision".into(),
                Json::Str(serving.precision.name().to_string()),
            ),
            (
                "pool".into(),
                Json::Obj(vec![
                    ("reuse_hits".into(), num(serving.pool_reuse_hits)),
                    ("alloc_misses".into(), num(serving.pool_alloc_misses)),
                ]),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), num(serving.cache.hits)),
                    ("misses".into(), num(serving.cache.misses)),
                    ("evictions".into(), num(serving.cache.evictions)),
                    ("entries".into(), num(serving.cache.entries as u64)),
                    ("capacity".into(), num(serving.cache.capacity as u64)),
                ]),
            ),
            (
                "sharding".into(),
                Json::Obj(vec![
                    (
                        "embedding_shards".into(),
                        num(serving.embedding_shards as u64),
                    ),
                    // Process-wide: tenants sharing a byte-identical frozen
                    // table contribute its pool bytes once, not per tenant.
                    (
                        "shard_pool_bytes".into(),
                        num(ctx.zoo.shard_pool_bytes_deduped()),
                    ),
                    (
                        "resident_param_bytes_per_worker".into(),
                        num(serving.resident_param_bytes_per_worker),
                    ),
                    (
                        "quantized_param_bytes_per_worker".into(),
                        num(serving.quantized_param_bytes_per_worker),
                    ),
                ]),
            ),
            (
                "routing".into(),
                Json::Obj(vec![
                    (
                        "specialist_queues".into(),
                        num(serving.routing.specialist_queues as u64),
                    ),
                    (
                        "routed_specialist".into(),
                        num(serving.routing.routed_specialist),
                    ),
                    ("routed_shared".into(), num(serving.routing.routed_shared)),
                ]),
            ),
            (
                "supervision".into(),
                Json::Obj(vec![
                    ("worker_panics".into(), num(serving.worker_panics)),
                    ("worker_restarts".into(), num(serving.worker_restarts)),
                    (
                        "requests_deadline_dropped".into(),
                        num(serving.requests_deadline_dropped),
                    ),
                ]),
            ),
            (
                "models".into(),
                Json::Obj(
                    ctx.zoo
                        .tenants()
                        .iter()
                        .map(|tenant| {
                            let model = tenant.model();
                            let stats = model.stats();
                            (
                                tenant.id().to_string(),
                                Json::Obj(vec![
                                    ("version".into(), num(model.version())),
                                    ("reloads".into(), num(tenant.reloads())),
                                    (
                                        "requests_served_total".into(),
                                        num(tenant.requests_served_total()),
                                    ),
                                    ("requests_served_active".into(), num(stats.requests_served)),
                                    ("queue_depth".into(), num(stats.queue_depth as u64)),
                                    ("workers".into(), num(stats.workers as u64)),
                                    ("workers_alive".into(), num(model.workers_alive() as u64)),
                                    ("arch".into(), Json::Str(model.arch().to_string())),
                                    (
                                        "precision".into(),
                                        Json::Str(stats.precision.name().to_string()),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "endpoints".into(),
                Json::Obj(vec![
                    (
                        "predict".into(),
                        num(self.predict_calls.load(Ordering::Relaxed)),
                    ),
                    (
                        "healthz".into(),
                        num(self.healthz_calls.load(Ordering::Relaxed)),
                    ),
                    (
                        "readyz".into(),
                        num(self.readyz_calls.load(Ordering::Relaxed)),
                    ),
                    (
                        "stats".into(),
                        num(self.stats_calls.load(Ordering::Relaxed)),
                    ),
                    (
                        "metrics".into(),
                        num(self.metrics_calls.load(Ordering::Relaxed)),
                    ),
                    (
                        "model".into(),
                        num(self.model_calls.load(Ordering::Relaxed)),
                    ),
                    (
                        "reload".into(),
                        num(self.reload_calls.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "http".into(),
                Json::Obj(vec![
                    (
                        "connections".into(),
                        num(self.connections.load(Ordering::Relaxed)),
                    ),
                    (
                        "connections_rejected".into(),
                        num(self.connections_rejected.load(Ordering::Relaxed)),
                    ),
                    (
                        "open_connections".into(),
                        num(self.open_connections.load(Ordering::Relaxed)),
                    ),
                    (
                        "request_timeouts".into(),
                        num(self.request_timeouts.load(Ordering::Relaxed)),
                    ),
                    (
                        "idle_timeouts".into(),
                        num(self.idle_timeouts.load(Ordering::Relaxed)),
                    ),
                    (
                        "timer_wheel_armed".into(),
                        num(self.timers_armed.load(Ordering::Relaxed)),
                    ),
                    (
                        "items_predicted".into(),
                        num(self.items_predicted.load(Ordering::Relaxed)),
                    ),
                    (
                        "responses_2xx".into(),
                        num(self.responses_2xx.load(Ordering::Relaxed)),
                    ),
                    (
                        "responses_4xx".into(),
                        num(self.responses_4xx.load(Ordering::Relaxed)),
                    ),
                    (
                        "responses_5xx".into(),
                        num(self.responses_5xx.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
        ];
        if let Some(telemetry) = predict.telemetry() {
            let snap = telemetry.snapshot();
            let stages = Stage::ALL
                .iter()
                .map(|&stage| {
                    let total = snap.stage_total(stage);
                    let us = |ns: f64| Json::Num(ns / 1_000.0);
                    (
                        stage.name().to_string(),
                        Json::Obj(vec![
                            ("count".into(), num(total.count)),
                            ("mean_us".into(), us(total.mean_ns())),
                            ("p50_us".into(), us(total.quantile_ns(0.5))),
                            ("p90_us".into(), us(total.quantile_ns(0.9))),
                            ("p99_us".into(), us(total.quantile_ns(0.99))),
                        ]),
                    )
                })
                .collect();
            fields.push(("stages".into(), Json::Obj(stages)));
            fields.push((
                "drift".into(),
                Json::Arr(snap.drift.iter().map(drift_json).collect()),
            ));
            fields.push((
                "predictions_non_finite".into(),
                num(snap.predictions_non_finite),
            ));
        }
        Json::Obj(fields)
    }
}

fn drift_json(d: &DomainDrift) -> Json {
    let opt = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
    Json::Obj(vec![
        ("domain".into(), Json::Num(d.domain as f64)),
        ("live_count".into(), Json::Num(d.live_count as f64)),
        ("live_mean".into(), opt(d.live_mean)),
        ("baseline_count".into(), Json::Num(d.baseline_count as f64)),
        ("baseline_mean".into(), opt(d.baseline_mean)),
        ("mean_shift".into(), opt(d.mean_shift)),
        ("score".into(), opt(d.score)),
    ])
}

pub(crate) struct Ctx {
    pub(crate) zoo: Arc<ModelZoo>,
    pub(crate) stats: HttpStats,
    pub(crate) config: HttpConfig,
    // Read by the event loop and the dispatchers: a busy keep-alive
    // connection gets `Connection: close` on its next response, so shutdown
    // is never blocked behind a client that keeps the wire warm.
    pub(crate) shutdown: AtomicBool,
    // `GET /readyz` answers 503 and `/healthz` keeps saying ok, so a load
    // balancer stops routing here before the hard shutdown starts. The
    // event loop drops its accept interest: the listener fd stays open, so
    // the kernel may still complete a handshake, but that connection is
    // never read before shutdown. Requests in flight complete, and open
    // keep-alive clients are released (`Connection: close` on the next
    // response, shortened idle deadlines).
    pub(crate) draining: AtomicBool,
}

impl Ctx {
    /// Snapshot of the zoo's default tenant — what the single-model
    /// surfaces (bare `/predict`, top-level `/stats`, the connection-level
    /// telemetry recorder) resolve to.
    pub(crate) fn default_model(&self) -> Arc<TenantModel> {
        self.zoo.default_model()
    }

    /// True once either [`HttpServer::begin_drain`] or shutdown flipped:
    /// capacity is not coming back on this listener.
    pub(crate) fn draining_or_shutdown(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || self.shutdown.load(Ordering::SeqCst)
    }

    /// `Retry-After` seconds for a 503 shed against `model`'s queue.
    pub(crate) fn retry_after(&self, model: &PredictServer) -> u64 {
        retry_after_secs(model.queue_depth(), self.draining_or_shutdown())
    }
}

/// Readiness as `GET /readyz` reports it: not draining, not shut down, and
/// every prediction worker of **every** tenant still alive.
fn is_ready(ctx: &Ctx) -> bool {
    if ctx.draining_or_shutdown() {
        return false;
    }
    let (alive, configured) = ctx.zoo.workers_health();
    alive == configured
}

/// The HTTP listener wrapping a [`PredictServer`].
pub struct HttpServer {
    ctx: Arc<Ctx>,
    local_addr: SocketAddr,
    backend: crate::poll::EpollBackend,
}

impl HttpServer {
    /// Bind `config.addr` and start serving `predict` over HTTP. The server
    /// runs as a single-tenant [`ModelZoo`] under
    /// [`crate::zoo::DEFAULT_MODEL_ID`], so the whole multi-model surface
    /// (`/predict/<id>`, `/model`, per-model stats) answers consistently.
    pub fn start(predict: PredictServer, config: HttpConfig) -> io::Result<Self> {
        Self::start_zoo(ModelZoo::single(predict), config)
    }

    /// Bind `config.addr` and serve a multi-tenant [`ModelZoo`]:
    /// `POST /predict/<id>` routes per tenant, bare `POST /predict` serves
    /// the zoo's default id, and `POST /admin/reload/<id>` hot-swaps
    /// file-backed tenants without dropping traffic. Zero
    /// `connection_workers` is an [`io::ErrorKind::InvalidInput`] error.
    pub fn start_zoo(zoo: ModelZoo, config: HttpConfig) -> io::Result<Self> {
        config
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let ctx = Arc::new(Ctx {
            zoo: Arc::new(zoo),
            stats: HttpStats::default(),
            config,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
        });
        let backend = crate::poll::start(listener, Arc::clone(&ctx))?;
        Ok(Self {
            ctx,
            local_addr,
            backend,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the default tenant's active model (e.g. to compare
    /// in-process answers against wire answers in tests). The handle derefs
    /// to its [`PredictServer`] and pins the version it snapshotted — a
    /// hot-swap racing this call never swaps the model out from under it.
    pub fn predict_server(&self) -> Arc<TenantModel> {
        self.ctx.zoo.default_model()
    }

    /// The zoo behind this listener (tenant lookup, programmatic reloads).
    pub fn zoo(&self) -> &Arc<ModelZoo> {
        &self.ctx.zoo
    }

    /// Stop accepting, join the event loop and every dispatcher, then
    /// drain the wrapped [`PredictServer`] (its [`PredictServer::shutdown`]
    /// runs when the last reference drops here). Dropping the listener calls
    /// this too. Idle and half-read connections are closed at once; a
    /// request already dispatched finishes and its response carries
    /// `Connection: close`, so the join is bounded even under sustained
    /// client traffic.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    /// Flip `GET /readyz` to `503`: in-flight and new requests on open
    /// connections still complete and `/healthz` still answers ok, but a
    /// load balancer polling readiness stops sending traffic here. The event
    /// loop drops its **accept interest** — open state machines run to
    /// completion while no new connections are served. Call it ahead of
    /// [`HttpServer::shutdown`] to drain cleanly.
    pub fn begin_drain(&self) {
        self.ctx.draining.store(true, Ordering::SeqCst);
        self.backend.waker.wake(); // let the loop observe the flag now
    }

    fn shutdown_impl(&mut self) {
        self.ctx.draining.store(true, Ordering::SeqCst);
        if self.ctx.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let backend = &mut self.backend;
        backend.waker.wake();
        // The loop closes idle connections, finishes in-flight requests
        // (responses carry `Connection: close`) and exits; dropping its
        // dispatch channel then releases the dispatchers.
        if let Some(event_loop) = backend.event_loop.take() {
            let _ = event_loop.join();
        }
        for dispatcher in backend.dispatchers.drain(..) {
            let _ = dispatcher.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown_impl();
        // After the dispatchers are gone, `self.ctx` is (usually) the
        // last reference: dropping it drains and joins the PredictServer.
    }
}

pub(crate) const CONTENT_TYPE_JSON: &str = "application/json";
const CONTENT_TYPE_PROM: &str = "text/plain; version=0.0.4";

/// While draining, idle keep-alive connections are released after this much
/// quiet time instead of the full `read_timeout` (the event loop re-arms
/// their timer-wheel idle deadlines to this on the drain transition), so a
/// drained listener does not hold sockets it will never serve again.
pub(crate) const DRAIN_IDLE_DEADLINE: Duration = Duration::from_millis(100);

pub(crate) type Routed = (u16, String, &'static str, Vec<(&'static str, String)>);

/// How long a shed client should wait before retrying, in seconds — the
/// **one** function behind every `Retry-After` header this server emits
/// (dispatch shed, predict-path 503s, failed reloads): 5 while
/// `draining` (drain or shutdown — capacity is not coming back here),
/// otherwise scaled with the shed queue's depth — an extra second per 64
/// queued requests, clamped to 1..=30.
pub(crate) fn retry_after_secs(queue_depth: usize, draining: bool) -> u64 {
    if draining {
        return 5;
    }
    (1 + queue_depth as u64 / 64).clamp(1, 30)
}

/// Serve one predict request against `tenant`'s active model. The snapshot
/// is taken once and pins the version for the whole request: a hot-swap
/// flipping this tenant mid-request never changes the model it runs on.
fn predict_route(request: &HttpRequest, ctx: &Ctx, tenant: &Tenant) -> Routed {
    HttpStats::bump(&ctx.stats.predict_calls);
    let model = tenant.model();
    match handle_predict(&request.body, ctx, &model) {
        Ok(body) => (200, body, CONTENT_TYPE_JSON, Vec::new()),
        Err(e) => {
            // Every 503 shed tells the client when to retry.
            let headers = if e.status == 503 {
                vec![("Retry-After", ctx.retry_after(&model).to_string())]
            } else {
                Vec::new()
            };
            (
                e.status,
                error_body(e.code, &e.message),
                CONTENT_TYPE_JSON,
                headers,
            )
        }
    }
}

/// The descriptor `GET /model` / `GET /model/<id>` reports for one tenant.
fn model_descriptor(tenant: &Tenant, ctx: &Ctx) -> Json {
    let model = tenant.model();
    let stats = model.stats();
    Json::Obj(vec![
        ("model".into(), Json::Str(tenant.id().to_string())),
        ("arch".into(), Json::Str(model.arch().to_string())),
        ("version".into(), Json::Num(model.version() as f64)),
        (
            "precision".into(),
            Json::Str(stats.precision.name().to_string()),
        ),
        (
            "default".into(),
            Json::Bool(tenant.id() == ctx.zoo.default_id()),
        ),
        ("reloadable".into(), Json::Bool(tenant.reloadable())),
        ("reloads".into(), Json::Num(tenant.reloads() as f64)),
        (
            "side_state".into(),
            Json::Arr(
                model
                    .side_state_tags()
                    .iter()
                    .map(|tag| Json::Str(tag.clone()))
                    .collect(),
            ),
        ),
        ("workers".into(), Json::Num(stats.workers as f64)),
        (
            "requests_served_total".into(),
            Json::Num(tenant.requests_served_total() as f64),
        ),
    ])
}

fn unknown_model(id: &str) -> Routed {
    (
        404,
        error_body(
            "unknown_model",
            &format!("no model registered under id {id:?}"),
        ),
        CONTENT_TYPE_JSON,
        Vec::new(),
    )
}

fn method_not_allowed(allow: &'static str, hint: &str) -> Routed {
    (
        405,
        error_body("method_not_allowed", hint),
        CONTENT_TYPE_JSON,
        vec![("Allow", allow.to_string())],
    )
}

fn reload_route(id: &str, ctx: &Ctx) -> Routed {
    HttpStats::bump(&ctx.stats.reload_calls);
    match ctx.zoo.reload(id) {
        Ok(version) => (
            200,
            Json::Obj(vec![
                ("model".into(), Json::Str(id.to_string())),
                ("version".into(), Json::Num(version as f64)),
            ])
            .render(),
            CONTENT_TYPE_JSON,
            Vec::new(),
        ),
        Err(e) => {
            let (status, code) = match &e {
                ReloadError::UnknownModel(_) => (404, "unknown_model"),
                ReloadError::NotReloadable(_) => (400, "not_reloadable"),
                ReloadError::Failed(_) => (503, "reload_failed"),
            };
            // A failed reload is retryable (the checkpoint on disk may have
            // been mid-write): like every other 503 it carries Retry-After.
            let headers = if status == 503 {
                vec![(
                    "Retry-After",
                    ctx.retry_after(&ctx.default_model()).to_string(),
                )]
            } else {
                Vec::new()
            };
            (
                status,
                error_body(code, &e.to_string()),
                CONTENT_TYPE_JSON,
                headers,
            )
        }
    }
}

pub(crate) fn route(request: &HttpRequest, ctx: &Ctx) -> Routed {
    let method = request.method.as_str();
    let path = request.path();
    // Parameterised endpoints first; fixed paths fall through to the match.
    if let Some(id) = path.strip_prefix("/predict/") {
        return match method {
            "POST" => match ctx.zoo.tenant(id) {
                Some(tenant) => predict_route(request, ctx, tenant),
                None => unknown_model(id),
            },
            _ => method_not_allowed("POST", &format!("use POST /predict/{id}")),
        };
    }
    if let Some(id) = path.strip_prefix("/model/") {
        return match method {
            "GET" => match ctx.zoo.tenant(id) {
                Some(tenant) => {
                    HttpStats::bump(&ctx.stats.model_calls);
                    (
                        200,
                        model_descriptor(tenant, ctx).render(),
                        CONTENT_TYPE_JSON,
                        Vec::new(),
                    )
                }
                None => unknown_model(id),
            },
            _ => method_not_allowed("GET", &format!("use GET /model/{id}")),
        };
    }
    if let Some(id) = path.strip_prefix("/admin/reload/") {
        return match method {
            "POST" => reload_route(id, ctx),
            _ => method_not_allowed("POST", &format!("use POST /admin/reload/{id}")),
        };
    }
    match (method, path) {
        ("POST", "/predict") => predict_route(request, ctx, ctx.zoo.default_tenant()),
        ("GET", "/model") => {
            HttpStats::bump(&ctx.stats.model_calls);
            let body = Json::Obj(vec![
                (
                    "default".into(),
                    Json::Str(ctx.zoo.default_id().to_string()),
                ),
                (
                    "models".into(),
                    Json::Arr(
                        ctx.zoo
                            .tenants()
                            .iter()
                            .map(|tenant| model_descriptor(tenant, ctx))
                            .collect(),
                    ),
                ),
            ])
            .render();
            (200, body, CONTENT_TYPE_JSON, Vec::new())
        }
        (_, "/model") => method_not_allowed("GET", "use GET /model"),
        ("GET", "/healthz") => {
            HttpStats::bump(&ctx.stats.healthz_calls);
            (
                200,
                Json::Obj(vec![("status".into(), Json::Str("ok".into()))]).render(),
                CONTENT_TYPE_JSON,
                Vec::new(),
            )
        }
        ("GET", "/readyz") => {
            HttpStats::bump(&ctx.stats.readyz_calls);
            let ready = is_ready(ctx);
            let num = |v: u64| Json::Num(v as f64);
            let (alive, configured) = ctx.zoo.workers_health();
            let queue_depth: usize = ctx
                .zoo
                .tenants()
                .iter()
                .map(|t| t.model().queue_depth())
                .sum();
            let body = Json::Obj(vec![
                ("ready".into(), Json::Bool(ready)),
                (
                    "draining".into(),
                    Json::Bool(ctx.draining.load(Ordering::SeqCst)),
                ),
                ("queue_depth".into(), num(queue_depth as u64)),
                ("workers_alive".into(), num(alive as u64)),
                ("workers".into(), num(configured as u64)),
            ])
            .render();
            (
                if ready { 200 } else { 503 },
                body,
                CONTENT_TYPE_JSON,
                Vec::new(),
            )
        }
        ("GET", "/stats") => {
            HttpStats::bump(&ctx.stats.stats_calls);
            (
                200,
                ctx.stats.render(ctx).render(),
                CONTENT_TYPE_JSON,
                Vec::new(),
            )
        }
        ("GET", "/metrics") => {
            HttpStats::bump(&ctx.stats.metrics_calls);
            (200, render_metrics(ctx), CONTENT_TYPE_PROM, Vec::new())
        }
        (_, "/predict") => (
            405,
            error_body("method_not_allowed", "use POST /predict"),
            CONTENT_TYPE_JSON,
            vec![("Allow", "POST".to_string())],
        ),
        (_, path @ ("/healthz" | "/readyz" | "/stats" | "/metrics")) => (
            405,
            error_body("method_not_allowed", &format!("use GET {path}")),
            CONTENT_TYPE_JSON,
            vec![("Allow", "GET".to_string())],
        ),
        (_, path) => (
            404,
            error_body("not_found", &format!("no such endpoint {path:?}")),
            CONTENT_TYPE_JSON,
            Vec::new(),
        ),
    }
}

/// The `GET /metrics` page: every serving counter, stage/kernel latency
/// histogram and per-domain drift score in Prometheus text exposition
/// format 0.0.4 (held to [`crate::prom::lint`] by the wire tests).
fn render_metrics(ctx: &Ctx) -> String {
    // Unlabelled families keep their single-model meaning by reporting the
    // default tenant; the `dtdbd_model_*` families below carry every tenant.
    let default_model = ctx.zoo.default_model();
    let serving = default_model.stats();
    let http = &ctx.stats;
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
    let mut page = PromText::new();

    page.family(
        "dtdbd_http_connections_total",
        MetricKind::Counter,
        "TCP connections accepted by the listener.",
    );
    page.sample("dtdbd_http_connections_total", &[], load(&http.connections));
    page.family(
        "dtdbd_http_connections_rejected_total",
        MetricKind::Counter,
        "Requests shed with 503 because the dispatch queue was full.",
    );
    page.sample(
        "dtdbd_http_connections_rejected_total",
        &[],
        load(&http.connections_rejected),
    );
    page.family(
        "dtdbd_http_open_connections",
        MetricKind::Gauge,
        "Connections currently open (accepted and not yet closed).",
    );
    page.sample(
        "dtdbd_http_open_connections",
        &[],
        load(&http.open_connections),
    );
    page.family(
        "dtdbd_http_timeouts_total",
        MetricKind::Counter,
        "Connections cut by a deadline: kind=request is the slow-loris \
         request_timeout (408), kind=idle the keep-alive read_timeout.",
    );
    for (kind, counter) in [
        ("request", &http.request_timeouts),
        ("idle", &http.idle_timeouts),
    ] {
        page.sample(
            "dtdbd_http_timeouts_total",
            &[("kind", kind)],
            load(counter),
        );
    }
    page.family(
        "dtdbd_http_timer_wheel_armed",
        MetricKind::Gauge,
        "Entries resident in the event loop's timer wheel, including \
         lazily-cancelled ones awaiting their tick.",
    );
    page.sample(
        "dtdbd_http_timer_wheel_armed",
        &[],
        load(&http.timers_armed),
    );
    page.family(
        "dtdbd_http_responses_total",
        MetricKind::Counter,
        "HTTP responses by status class.",
    );
    for (class, counter) in [
        ("2xx", &http.responses_2xx),
        ("4xx", &http.responses_4xx),
        ("5xx", &http.responses_5xx),
    ] {
        page.sample(
            "dtdbd_http_responses_total",
            &[("class", class)],
            load(counter),
        );
    }
    page.family(
        "dtdbd_http_requests_total",
        MetricKind::Counter,
        "Requests by endpoint.",
    );
    for (endpoint, counter) in [
        ("predict", &http.predict_calls),
        ("healthz", &http.healthz_calls),
        ("readyz", &http.readyz_calls),
        ("stats", &http.stats_calls),
        ("metrics", &http.metrics_calls),
        ("model", &http.model_calls),
        ("reload", &http.reload_calls),
    ] {
        page.sample(
            "dtdbd_http_requests_total",
            &[("endpoint", endpoint)],
            load(counter),
        );
    }
    page.family(
        "dtdbd_items_predicted_total",
        MetricKind::Counter,
        "Prediction items received over the wire (batch bodies count each item).",
    );
    page.sample(
        "dtdbd_items_predicted_total",
        &[],
        load(&http.items_predicted),
    );

    page.family(
        "dtdbd_requests_served_total",
        MetricKind::Counter,
        "Requests answered by the prediction workers.",
    );
    page.sample(
        "dtdbd_requests_served_total",
        &[],
        serving.requests_served as f64,
    );
    page.family(
        "dtdbd_batches_total",
        MetricKind::Counter,
        "Coalesced batches dispatched to the prediction workers.",
    );
    page.sample("dtdbd_batches_total", &[], serving.batches as f64);
    page.family(
        "dtdbd_queue_depth",
        MetricKind::Gauge,
        "Requests currently queued for the prediction workers.",
    );
    page.sample("dtdbd_queue_depth", &[], serving.queue_depth as f64);
    page.family(
        "dtdbd_workers",
        MetricKind::Gauge,
        "Configured prediction workers.",
    );
    page.sample("dtdbd_workers", &[], serving.workers as f64);
    page.family(
        "dtdbd_workers_alive",
        MetricKind::Gauge,
        "Prediction workers whose threads are still running.",
    );
    page.sample(
        "dtdbd_workers_alive",
        &[],
        default_model.workers_alive() as f64,
    );
    page.family(
        "dtdbd_ready",
        MetricKind::Gauge,
        "1 while GET /readyz answers 200, else 0.",
    );
    page.sample("dtdbd_ready", &[], if is_ready(ctx) { 1.0 } else { 0.0 });
    page.family(
        "dtdbd_worker_panics_total",
        MetricKind::Counter,
        "Prediction-worker batch-loop panics caught by the supervisor.",
    );
    page.sample(
        "dtdbd_worker_panics_total",
        &[],
        serving.worker_panics as f64,
    );
    page.family(
        "dtdbd_worker_restarts_total",
        MetricKind::Counter,
        "Prediction workers respawned with a fresh session after a panic.",
    );
    page.sample(
        "dtdbd_worker_restarts_total",
        &[],
        serving.worker_restarts as f64,
    );
    page.family(
        "dtdbd_requests_deadline_dropped_total",
        MetricKind::Counter,
        "Requests shed before inference because their deadline budget \
         expired in the micro-batch queue.",
    );
    page.sample(
        "dtdbd_requests_deadline_dropped_total",
        &[],
        serving.requests_deadline_dropped as f64,
    );

    page.family(
        "dtdbd_cache_requests_total",
        MetricKind::Counter,
        "Prediction cache lookups by outcome.",
    );
    for (outcome, v) in [("hit", serving.cache.hits), ("miss", serving.cache.misses)] {
        page.sample(
            "dtdbd_cache_requests_total",
            &[("outcome", outcome)],
            v as f64,
        );
    }
    page.family(
        "dtdbd_cache_evictions_total",
        MetricKind::Counter,
        "Prediction cache LRU evictions.",
    );
    page.sample(
        "dtdbd_cache_evictions_total",
        &[],
        serving.cache.evictions as f64,
    );
    page.family(
        "dtdbd_cache_entries",
        MetricKind::Gauge,
        "Prediction cache entries resident.",
    );
    page.sample("dtdbd_cache_entries", &[], serving.cache.entries as f64);
    page.family(
        "dtdbd_pool_reuse_hits_total",
        MetricKind::Counter,
        "Activation buffers recycled from the per-worker pools.",
    );
    page.sample(
        "dtdbd_pool_reuse_hits_total",
        &[],
        serving.pool_reuse_hits as f64,
    );
    page.family(
        "dtdbd_pool_alloc_misses_total",
        MetricKind::Counter,
        "Activation buffers freshly allocated by the per-worker pools.",
    );
    page.sample(
        "dtdbd_pool_alloc_misses_total",
        &[],
        serving.pool_alloc_misses as f64,
    );
    page.family(
        "dtdbd_routed_total",
        MetricKind::Counter,
        "Requests routed to a specialist queue vs the shared fallback.",
    );
    for (queue, v) in [
        ("specialist", serving.routing.routed_specialist),
        ("shared", serving.routing.routed_shared),
    ] {
        page.sample("dtdbd_routed_total", &[("queue", queue)], v as f64);
    }
    page.family(
        "dtdbd_precision",
        MetricKind::Gauge,
        "1 for the numeric precision the prediction workers run at \
         (fp32 or int8).",
    );
    page.sample(
        "dtdbd_precision",
        &[("precision", serving.precision.name())],
        1.0,
    );
    page.family(
        "dtdbd_quantized_param_bytes_per_worker",
        MetricKind::Gauge,
        "Mean bytes of int8 parameter codes + scales resident per worker \
         (0 under fp32).",
    );
    page.sample(
        "dtdbd_quantized_param_bytes_per_worker",
        &[],
        serving.quantized_param_bytes_per_worker as f64,
    );

    // Per-tenant families: one consistent snapshot of each tenant's active
    // model feeds every family, so a scrape racing a hot-swap stays
    // self-consistent per model id.
    let tenants: Vec<(String, u64, u64, u64, usize, usize)> = ctx
        .zoo
        .tenants()
        .iter()
        .map(|tenant| {
            let model = tenant.model();
            let stats = model.stats();
            (
                tenant.id().to_string(),
                model.version(),
                tenant.reloads(),
                tenant.requests_served_total(),
                model.workers_alive(),
                stats.queue_depth,
            )
        })
        .collect();
    page.family(
        "dtdbd_model_version",
        MetricKind::Gauge,
        "Checkpoint version ordinal each model id serves (1-based, +1 per \
         hot-swap).",
    );
    for (id, version, ..) in &tenants {
        page.sample("dtdbd_model_version", &[("model", id)], *version as f64);
    }
    page.family(
        "dtdbd_model_reloads_total",
        MetricKind::Counter,
        "Successful zero-downtime hot-swaps per model id.",
    );
    for (id, _, reloads, ..) in &tenants {
        page.sample(
            "dtdbd_model_reloads_total",
            &[("model", id)],
            *reloads as f64,
        );
    }
    page.family(
        "dtdbd_model_requests_served_total",
        MetricKind::Counter,
        "Requests served per model id, monotone across checkpoint versions \
         (retired versions fold their counts in at swap time).",
    );
    for (id, _, _, served, ..) in &tenants {
        page.sample(
            "dtdbd_model_requests_served_total",
            &[("model", id)],
            *served as f64,
        );
    }
    page.family(
        "dtdbd_model_workers_alive",
        MetricKind::Gauge,
        "Live prediction workers of each model id's active version.",
    );
    for (id, _, _, _, alive, _) in &tenants {
        page.sample("dtdbd_model_workers_alive", &[("model", id)], *alive as f64);
    }
    page.family(
        "dtdbd_model_queue_depth",
        MetricKind::Gauge,
        "Requests queued for each model id's active version.",
    );
    for (id, _, _, _, _, depth) in &tenants {
        page.sample("dtdbd_model_queue_depth", &[("model", id)], *depth as f64);
    }

    if let Some(telemetry) = default_model.telemetry() {
        let snap = telemetry.snapshot();
        let arch = snap.arch;
        page.family(
            "dtdbd_stage_latency_seconds",
            MetricKind::Histogram,
            "Wall-clock time per request stage; recorder is \"http\" for the \
             connection threads or a prediction worker index.",
        );
        for (recorder, stages) in &snap.recorders {
            for (stage, h) in stages {
                if h.count == 0 {
                    continue; // wire stages on workers (and vice versa) stay structurally empty
                }
                page.histogram(
                    "dtdbd_stage_latency_seconds",
                    &[
                        ("arch", arch),
                        ("recorder", recorder),
                        ("stage", stage.name()),
                    ],
                    h,
                );
            }
        }
        page.family(
            "dtdbd_kernel_latency_seconds",
            MetricKind::Histogram,
            "Wall-clock time per tensor kernel invocation.",
        );
        for (kernel, h) in &snap.kernels {
            if h.count == 0 {
                continue;
            }
            page.histogram(
                "dtdbd_kernel_latency_seconds",
                &[("arch", arch), ("kernel", kernel)],
                h,
            );
        }

        page.family(
            "dtdbd_predictions_non_finite_total",
            MetricKind::Counter,
            "Predictions whose probability was NaN or infinite; counted here \
             and excluded from the drift buckets and mean-shift.",
        );
        page.sample(
            "dtdbd_predictions_non_finite_total",
            &[("arch", arch)],
            snap.predictions_non_finite as f64,
        );
        page.family(
            "dtdbd_domain_predictions_total",
            MetricKind::Counter,
            "Predictions observed per domain by the drift tracker.",
        );
        for d in &snap.drift {
            let domain = d.domain.to_string();
            page.sample(
                "dtdbd_domain_predictions_total",
                &[("arch", arch), ("domain", &domain)],
                d.live_count as f64,
            );
        }
        if snap.drift.iter().any(|d| d.mean_shift.is_some()) {
            page.family(
                "dtdbd_domain_mean_shift",
                MetricKind::Gauge,
                "Absolute shift of the mean fake-probability against the training baseline.",
            );
            for d in &snap.drift {
                if let Some(shift) = d.mean_shift {
                    let domain = d.domain.to_string();
                    page.sample(
                        "dtdbd_domain_mean_shift",
                        &[("arch", arch), ("domain", &domain)],
                        shift,
                    );
                }
            }
        }
        if snap.drift.iter().any(|d| d.score.is_some()) {
            page.family(
                "dtdbd_domain_drift_score",
                MetricKind::Gauge,
                "Bucketed total-variation distance of the live fake-probability \
                 distribution against the training baseline, in [0, 1].",
            );
            for d in &snap.drift {
                if let Some(score) = d.score {
                    let domain = d.domain.to_string();
                    page.sample(
                        "dtdbd_domain_drift_score",
                        &[("arch", arch), ("domain", &domain)],
                        score,
                    );
                }
            }
        }
    }
    page.into_string()
}

fn handle_predict(body: &[u8], ctx: &Ctx, model: &TenantModel) -> Result<String, WireError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| WireError::bad_request("body_not_utf8", "request body is not valid UTF-8"))?;
    let doc = json::parse(text)
        .map_err(|e| WireError::bad_request("bad_json", format!("invalid JSON body: {e}")))?;
    if let Some(items) = doc.get("items") {
        // The batch envelope is as strict as single-request objects:
        // anything next to "items" is a client mistake, not a batch.
        if let Json::Obj(entries) = &doc {
            if let Some((key, _)) = entries.iter().find(|(k, _)| k != "items") {
                return Err(WireError::bad_request(
                    "bad_request",
                    format!("unknown batch field {key:?}"),
                ));
            }
        }
        let items = items
            .as_array()
            .ok_or_else(|| WireError::bad_request("bad_request", "\"items\" must be an array"))?;
        if items.is_empty() {
            return Err(WireError::bad_request(
                "bad_request",
                "\"items\" must not be empty",
            ));
        }
        let encoded = items
            .iter()
            .enumerate()
            .map(|(i, item)| encode_one(item, model, Some(i)))
            .collect::<Result<Vec<EncodedRequest>, WireError>>()?;
        let predictions = predict_all(encoded, ctx, model)?;
        Ok(Json::Obj(vec![
            ("count".into(), Json::Num(predictions.len() as f64)),
            (
                "predictions".into(),
                Json::Arr(predictions.iter().map(json::encode_prediction).collect()),
            ),
        ])
        .render())
    } else {
        let encoded = encode_one(&doc, model, None)?;
        let prediction = predict_all(vec![encoded], ctx, model)?.remove(0);
        Ok(json::encode_prediction(&prediction).render())
    }
}

fn encode_one(
    item: &Json,
    model: &TenantModel,
    index: Option<usize>,
) -> Result<EncodedRequest, WireError> {
    let at = |msg: String| match index {
        Some(i) => format!("item {i}: {msg}"),
        None => msg,
    };
    let request =
        json::decode_request(item).map_err(|msg| WireError::bad_request("bad_request", at(msg)))?;
    model
        .encoder()
        .encode(&request)
        .map_err(|e| WireError::bad_request(e.wire_code(), at(e.to_string())))
}

fn predict_all(
    encoded: Vec<EncodedRequest>,
    ctx: &Ctx,
    model: &TenantModel,
) -> Result<Vec<Prediction>, WireError> {
    ctx.stats
        .items_predicted
        .fetch_add(encoded.len() as u64, Ordering::Relaxed);
    // The wire-level timeout doubles as the inference deadline budget: a
    // request that already waited out its budget in the micro-batch queue is
    // shed there instead of burning a forward pass on an answer nobody is
    // still reading.
    let deadline = Some(Instant::now() + ctx.config.request_timeout);
    // Submit everything before waiting: a multi-item body becomes one
    // coalesced batch on an idle server.
    let handles: Vec<_> = encoded
        .into_iter()
        .map(|e| model.submit_encoded_with_deadline(e, deadline))
        .collect();
    // A crashed prediction worker must degrade to a typed shed response,
    // not take the dispatcher down with it.
    handles
        .into_iter()
        .map(|h| {
            h.wait().map_err(|e| match e {
                PredictError::WorkerCrashed => WireError {
                    status: 503,
                    code: "worker_crashed",
                    message: "prediction worker crashed mid-batch; retry".to_string(),
                },
                PredictError::DeadlineExceeded => WireError {
                    status: 503,
                    code: "deadline_exceeded",
                    message: "request deadline expired in the batch queue".to_string(),
                },
                PredictError::Invalid(e) => WireError::bad_request(e.wire_code(), e.to_string()),
            })
        })
        .collect()
}

pub(crate) fn error_body(code: &str, message: &str) -> String {
    Json::Obj(vec![
        ("error".into(), Json::Str(code.to_string())),
        ("message".into(), Json::Str(message.to_string())),
    ])
    .render()
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Render a complete response — head and body — to one byte buffer, ready
/// for a connection's outgoing buffer in the event loop.
pub(crate) fn response_bytes(
    status: u16,
    body: &str,
    content_type: &str,
    keep_alive: bool,
    extra_headers: &[(&'static str, String)],
) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// A minimal blocking HTTP/1.1 client with keep-alive, for tests, examples
/// and the benchmark. Not a general-purpose client: it assumes the
/// `Content-Length` framing this server always produces.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response as read by [`HttpClient`].
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers in order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, decoded as UTF-8.
    pub body: String,
}

impl ClientResponse {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parse the body as JSON.
    pub fn json(&self) -> Result<Json, json::JsonError> {
        json::parse(&self.body)
    }

    /// `Retry-After` seconds, if the server attached one to a shed response.
    pub fn retry_after(&self) -> Option<u64> {
        self.header("retry-after").and_then(|v| v.parse().ok())
    }
}

fn invalid_data(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

impl HttpClient {
    /// Open a keep-alive connection to the server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::new(),
        })
    }

    /// Issue one request and read its response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: dtdbd\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        self.read_response()
    }

    /// `GET` a path.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// `POST` a JSON body to a path.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 8192];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let head_len = loop {
            if let Some(i) = find_subsequence(&self.buf, HEAD_END) {
                break i;
            }
            self.fill()?;
        };
        let head = String::from_utf8(self.buf[..head_len].to_vec())
            .map_err(|_| invalid_data("non-UTF-8 response head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid_data("malformed status line"))?;
        let mut headers = Vec::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| invalid_data("malformed response header"))?;
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        let content_length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| invalid_data("response missing Content-Length"))?;
        let body_start = head_len + HEAD_END.len();
        while self.buf.len() < body_start + content_length {
            self.fill()?;
        }
        let body = String::from_utf8(self.buf[body_start..body_start + content_length].to_vec())
            .map_err(|_| invalid_data("non-UTF-8 response body"))?;
        self.buf.drain(..body_start + content_length);
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::BatchingConfig;
    use crate::session::InferenceSession;
    use dtdbd_data::{weibo21_spec, GeneratorConfig, MultiDomainDataset, NewsGenerator};
    use dtdbd_models::{ModelConfig, TextCnnModel};
    use dtdbd_tensor::rng::Prng;
    use dtdbd_tensor::ParamStore;
    use std::thread;

    fn parse_bytes(bytes: &[u8]) -> ParseOutcome {
        let mut parser = RequestParser::new(8 * 1024, 1024 * 1024);
        parser.feed(bytes);
        parser.poll()
    }

    fn assert_failed(bytes: &[u8], status: u16, code: &str) {
        match parse_bytes(bytes) {
            ParseOutcome::Failed(e) => {
                assert_eq!((e.status, e.code), (status, code), "{:?}", e.message)
            }
            other => panic!("expected Failed({status}), got {other:?}"),
        }
    }

    #[test]
    fn parses_a_complete_post_with_body() {
        let outcome =
            parse_bytes(b"POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody");
        match outcome {
            ParseOutcome::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.target, "/predict");
                assert_eq!(req.header("host"), Some("x"));
                assert_eq!(req.body, b"body");
                assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn requests_arrive_incrementally_byte_by_byte() {
        let wire = b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n";
        let mut parser = RequestParser::new(1024, 1024);
        for (i, byte) in wire.iter().enumerate() {
            match parser.poll() {
                ParseOutcome::NeedMore => {}
                other => panic!("byte {i}: {other:?}"),
            }
            parser.feed(std::slice::from_ref(byte));
        }
        assert!(matches!(parser.poll(), ParseOutcome::Request(_)));
        assert_eq!(parser.buffered(), 0, "request consumed");
    }

    #[test]
    fn pipelined_requests_come_out_one_at_a_time() {
        let mut parser = RequestParser::new(1024, 1024);
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        match parser.poll() {
            ParseOutcome::Request(r) => assert_eq!(r.target, "/a"),
            other => panic!("{other:?}"),
        }
        match parser.poll() {
            ParseOutcome::Request(r) => assert_eq!(r.target, "/b"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(parser.poll(), ParseOutcome::NeedMore));
    }

    #[test]
    fn malformed_heads_map_to_400() {
        assert_failed(b"NONSENSE\r\n\r\n", 400, "bad_request_line");
        assert_failed(b"GET /x EXTRA HTTP/1.1\r\n\r\n", 400, "bad_request_line");
        assert_failed(b"get /x HTTP/1.1\r\n\r\n", 400, "bad_request_line");
        assert_failed(b"GET x HTTP/1.1\r\n\r\n", 400, "bad_request_line");
        assert_failed(b"GET /x HTTP/2.0\r\n\r\n", 400, "unsupported_version");
        assert_failed(b"GET /x HTTP/1.1\r\nNoColon\r\n\r\n", 400, "bad_header");
        assert_failed(b"GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n", 400, "bad_header");
        assert_failed(
            b"GET /x HTTP/1.1\r\nContent-Length: two\r\n\r\n",
            400,
            "bad_content_length",
        );
        assert_failed(
            b"GET /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
            400,
            "bad_content_length",
        );
        assert_failed(
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            400,
            "unsupported_transfer_encoding",
        );
        assert_failed(b"GET /\xFF HTTP/1.1\r\n\r\n", 400, "bad_head");
    }

    #[test]
    fn oversized_heads_and_bodies_map_to_431_and_413() {
        let mut parser = RequestParser::new(64, 1024);
        parser.feed(b"GET / HTTP/1.1\r\n");
        parser.feed(&[b'a'; 100]);
        match parser.poll() {
            ParseOutcome::Failed(e) => assert_eq!(e.status, 431),
            other => panic!("{other:?}"),
        }

        let mut parser = RequestParser::new(1024, 16);
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 17\r\n\r\n");
        match parser.poll() {
            ParseOutcome::Failed(e) => assert_eq!(e.status, 413),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_content_length_near_u64_max_is_rejected_not_truncated() {
        // Default limits: the pre-cast u64 comparison fires long before any
        // usize arithmetic could truncate or wrap.
        assert_failed(
            b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n",
            413,
            "body_too_large",
        );
        // With the body budget wide open the limit check passes and the
        // checked add is the last line of defence against overflow.
        let mut parser = RequestParser::new(1024, usize::MAX);
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n");
        match parser.poll() {
            ParseOutcome::Failed(e) => {
                assert_eq!((e.status, e.code), (413, "body_too_large"), "{}", e.message)
            }
            other => panic!("expected Failed(413), got {other:?}"),
        }
    }

    #[test]
    fn head_complete_tracks_the_blank_line_without_consuming() {
        let mut parser = RequestParser::new(1024, 1024);
        parser.feed(b"POST / HTTP/1.1\r\nContent-Length: 4\r\n");
        assert!(!parser.head_complete());
        parser.feed(b"\r\n");
        assert!(parser.head_complete());
        parser.feed(b"body");
        assert!(matches!(parser.poll(), ParseOutcome::Request(_)));
        assert!(!parser.head_complete(), "head consumed with its request");
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_header() {
        let req = |bytes: &[u8]| match parse_bytes(bytes) {
            ParseOutcome::Request(r) => r.keep_alive,
            other => panic!("{other:?}"),
        };
        assert!(req(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!req(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!req(b"GET / HTTP/1.0\r\n\r\n"));
        assert!(req(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"));
        assert!(!req(b"GET / HTTP/1.1\r\nConnection: TE, close\r\n\r\n"));
    }

    // --- end-to-end over a real socket -----------------------------------

    fn dataset() -> MultiDomainDataset {
        NewsGenerator::new(weibo21_spec(), GeneratorConfig::tiny()).generate_scaled(8, 0.02)
    }

    fn start_http(ds: &MultiDomainDataset) -> HttpServer {
        let cfg = ModelConfig::tiny(ds);
        let predict = PredictServer::start(BatchingConfig::default(), move |_| {
            let mut store = ParamStore::new();
            let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(7));
            InferenceSession::new(model, store)
        });
        HttpServer::start(predict, HttpConfig::default()).expect("bind ephemeral port")
    }

    #[test]
    fn healthz_stats_and_predict_respond_over_tcp() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();

        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        assert_eq!(
            health.json().unwrap().get("status").and_then(Json::as_str),
            Some("ok")
        );

        let item = &ds.items()[0];
        let body = json::encode_request(&dtdbd_data::InferenceRequest::new(
            item.tokens.clone(),
            item.domain,
        ))
        .render();
        let predict = client.post("/predict", &body).unwrap();
        assert_eq!(predict.status, 200, "{}", predict.body);
        let prob = predict
            .json()
            .unwrap()
            .get("fake_prob")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((0.0..=1.0).contains(&prob));

        let stats = client.get("/stats").unwrap();
        assert_eq!(stats.status, 200);
        let doc = stats.json().unwrap();
        assert_eq!(doc.get("requests_served").and_then(Json::as_u64), Some(1));
        let endpoints = doc.get("endpoints").unwrap();
        assert_eq!(endpoints.get("predict").and_then(Json::as_u64), Some(1));
        assert_eq!(endpoints.get("healthz").and_then(Json::as_u64), Some(1));
        // Kernel/cache tuning is visible on the wire.
        assert!(doc.get("threads").and_then(Json::as_u64).unwrap() >= 1);
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));
        assert!(cache.get("capacity").and_then(Json::as_u64).unwrap() > 0);
        // The same item again is a cache hit, bit-identical on the wire.
        let again = client.post("/predict", &body).unwrap();
        assert_eq!(again.status, 200);
        let again_prob = again
            .json()
            .unwrap()
            .get("fake_prob")
            .and_then(Json::as_f64)
            .unwrap();
        assert_eq!(again_prob.to_bits(), prob.to_bits());
        let doc = client.get("/stats").unwrap().json().unwrap();
        let cache = doc.get("cache").unwrap();
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
        // Telemetry rides along: stage quantiles and drift scores.
        assert_eq!(doc.get("ready").and_then(Json::as_bool), Some(true));
        let inference = doc.get("stages").unwrap().get("inference").unwrap();
        assert_eq!(inference.get("count").and_then(Json::as_u64), Some(1));
        assert!(inference.get("p99_us").and_then(Json::as_f64).unwrap() > 0.0);
        let drift = doc.get("drift").unwrap().as_array().unwrap();
        assert!(!drift.is_empty());
        let observed: u64 = drift
            .iter()
            .map(|d| d.get("live_count").and_then(Json::as_u64).unwrap())
            .sum();
        assert_eq!(observed, 2, "both wire answers feed the drift tracker");
    }

    #[test]
    fn metrics_page_lints_and_reflects_traffic() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();

        let item = &ds.items()[0];
        let body = json::encode_request(&dtdbd_data::InferenceRequest::new(
            item.tokens.clone(),
            item.domain,
        ))
        .render();
        assert_eq!(client.post("/predict", &body).unwrap().status, 200);

        let scrape = client.get("/metrics").unwrap();
        assert_eq!(scrape.status, 200);
        assert_eq!(
            scrape.header("content-type"),
            Some("text/plain; version=0.0.4")
        );
        crate::prom::lint(&scrape.body).unwrap_or_else(|e| panic!("{e}\n---\n{}", scrape.body));
        assert!(
            scrape
                .body
                .contains("dtdbd_http_requests_total{endpoint=\"predict\"} 1"),
            "{}",
            scrape.body
        );
        assert!(
            scrape.body.contains("dtdbd_requests_served_total 1"),
            "{}",
            scrape.body
        );
        // The stage histograms carry real samples once traffic flowed.
        assert!(
            scrape.body.contains("dtdbd_stage_latency_seconds_bucket"),
            "{}",
            scrape.body
        );
        assert!(
            scrape.body.contains("stage=\"inference\""),
            "{}",
            scrape.body
        );
        assert!(
            scrape.body.contains("dtdbd_domain_predictions_total"),
            "{}",
            scrape.body
        );
        // A second scrape observes the first: the metrics counter moved.
        let again = client.get("/metrics").unwrap();
        assert!(
            again
                .body
                .contains("dtdbd_http_requests_total{endpoint=\"metrics\"} 2"),
            "{}",
            again.body
        );

        let wrong_method = client.post("/metrics", "{}").unwrap();
        assert_eq!(wrong_method.status, 405);
        assert_eq!(wrong_method.header("allow"), Some("GET"));
    }

    #[test]
    fn model_discovery_and_per_model_routing_answer() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();

        // The routing table: a single-model server is a one-tenant zoo
        // under the default id.
        let listing = client.get("/model").unwrap();
        assert_eq!(listing.status, 200, "{}", listing.body);
        let doc = listing.json().unwrap();
        assert_eq!(doc.get("default").and_then(Json::as_str), Some("default"));
        let models = doc.get("models").unwrap().as_array().unwrap();
        assert_eq!(models.len(), 1);
        let descriptor = &models[0];
        assert_eq!(
            descriptor.get("model").and_then(Json::as_str),
            Some("default")
        );
        assert_eq!(descriptor.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(
            descriptor.get("reloadable").and_then(Json::as_bool),
            Some(false)
        );
        assert!(!descriptor
            .get("arch")
            .and_then(Json::as_str)
            .unwrap()
            .is_empty());

        let one = client.get("/model/default").unwrap();
        assert_eq!(one.status, 200, "{}", one.body);
        assert_eq!(
            one.json().unwrap().get("model").and_then(Json::as_str),
            Some("default")
        );
        let missing = client.get("/model/nope").unwrap();
        assert_eq!(missing.status, 404);
        assert_eq!(
            missing.json().unwrap().get("error").and_then(Json::as_str),
            Some("unknown_model")
        );
        let wrong_method = client.post("/model", "{}").unwrap();
        assert_eq!(wrong_method.status, 405);
        assert_eq!(wrong_method.header("allow"), Some("GET"));

        // `POST /predict/<id>` answers bit-identically to the bare route.
        let item = &ds.items()[0];
        let body = json::encode_request(&dtdbd_data::InferenceRequest::new(
            item.tokens.clone(),
            item.domain,
        ))
        .render();
        let bare = client.post("/predict", &body).unwrap();
        assert_eq!(bare.status, 200, "{}", bare.body);
        let routed = client.post("/predict/default", &body).unwrap();
        assert_eq!(routed.status, 200, "{}", routed.body);
        let prob = |r: &ClientResponse| {
            r.json()
                .unwrap()
                .get("fake_prob")
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert_eq!(prob(&bare).to_bits(), prob(&routed).to_bits());
        assert_eq!(client.post("/predict/nope", &body).unwrap().status, 404);

        // A resident (non-file) tenant cannot be hot-swapped: typed 400.
        let reload = client.post("/admin/reload/default", "").unwrap();
        assert_eq!(reload.status, 400, "{}", reload.body);
        assert_eq!(
            reload.json().unwrap().get("error").and_then(Json::as_str),
            Some("not_reloadable")
        );
        assert_eq!(client.post("/admin/reload/nope", "").unwrap().status, 404);

        // /stats carries the per-model object and counts the new endpoints.
        let stats = client.get("/stats").unwrap().json().unwrap();
        let per_model = stats.get("models").unwrap().get("default").unwrap();
        assert_eq!(per_model.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(per_model.get("reloads").and_then(Json::as_u64), Some(0));
        assert_eq!(
            per_model
                .get("requests_served_total")
                .and_then(Json::as_u64),
            Some(2)
        );
        let endpoints = stats.get("endpoints").unwrap();
        assert_eq!(endpoints.get("model").and_then(Json::as_u64), Some(2));
        assert_eq!(endpoints.get("reload").and_then(Json::as_u64), Some(2));

        // /metrics grows the model-labelled families and still lints.
        let scrape = client.get("/metrics").unwrap();
        crate::prom::lint(&scrape.body).unwrap_or_else(|e| panic!("{e}\n---\n{}", scrape.body));
        assert!(
            scrape
                .body
                .contains("dtdbd_model_version{model=\"default\"} 1"),
            "{}",
            scrape.body
        );
        assert!(
            scrape
                .body
                .contains("dtdbd_model_requests_served_total{model=\"default\"} 2"),
            "{}",
            scrape.body
        );
    }

    #[test]
    fn readyz_flips_to_503_when_draining_while_healthz_stays_ok() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        // The drain drops the accept interest, so the liveness probe's
        // connection is opened (and served once) before the drain starts.
        let mut probe = HttpClient::connect(server.local_addr()).unwrap();
        assert_eq!(probe.get("/healthz").unwrap().status, 200);

        let ready = client.get("/readyz").unwrap();
        assert_eq!(ready.status, 200, "{}", ready.body);
        let doc = ready.json().unwrap();
        assert_eq!(doc.get("ready").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("draining").and_then(Json::as_bool), Some(false));
        assert!(doc.get("workers_alive").and_then(Json::as_u64).unwrap() >= 1);

        server.begin_drain();
        let draining = client.get("/readyz").unwrap();
        assert_eq!(draining.status, 503);
        let doc = draining.json().unwrap();
        assert_eq!(doc.get("ready").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("draining").and_then(Json::as_bool), Some(true));
        // The response that announced the drain also released the
        // keep-alive client: capacity is not coming back here.
        assert_eq!(draining.header("connection"), Some("close"));
        // Liveness is untouched: an open connection still gets its answer.
        assert_eq!(probe.get("/healthz").unwrap().status, 200);
    }

    #[test]
    fn drain_releases_idle_keep_alive_promptly_under_epoll() {
        let ds = dataset();
        // A read_timeout far beyond what the test tolerates: the prompt cut
        // below can only come from the shortened drain deadline.
        let server = start_http_as(
            &ds,
            HttpConfig {
                read_timeout: Duration::from_secs(30),
                ..HttpConfig::default()
            },
        );
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 2048];
        let n = stream.read(&mut buf).unwrap();
        assert!(
            String::from_utf8_lossy(&buf[..n]).starts_with("HTTP/1.1 200"),
            "first request answered"
        );
        // Idle now. The drain must cut this connection in ~one drain
        // deadline, not the 30 s read_timeout.
        server.begin_drain();
        let t0 = Instant::now();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap(); // EOF, not a reset
        let cut_after = t0.elapsed();
        assert!(
            cut_after < Duration::from_secs(5),
            "idle connection survived {cut_after:?} into the drain"
        );
    }

    #[test]
    fn batch_bodies_answer_in_request_order() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let items: Vec<Json> = ds.items()[..6]
            .iter()
            .map(|item| {
                json::encode_request(&dtdbd_data::InferenceRequest::new(
                    item.tokens.clone(),
                    item.domain,
                ))
            })
            .collect();
        let body = Json::Obj(vec![("items".into(), Json::Arr(items))]).render();
        let response = client.post("/predict", &body).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        let doc = response.json().unwrap();
        assert_eq!(doc.get("count").and_then(Json::as_u64), Some(6));
        let predictions = doc.get("predictions").unwrap().as_array().unwrap();
        assert_eq!(predictions.len(), 6);

        // Same items, one at a time: per-item answers must not depend on
        // their neighbours in the batch body.
        for (i, expected) in predictions.iter().enumerate() {
            let item = &ds.items()[i];
            let single = client
                .post(
                    "/predict",
                    &json::encode_request(&dtdbd_data::InferenceRequest::new(
                        item.tokens.clone(),
                        item.domain,
                    ))
                    .render(),
                )
                .unwrap();
            assert_eq!(
                single.json().unwrap().get("fake_prob"),
                expected.get("fake_prob"),
                "item {i}"
            );
        }
    }

    #[test]
    fn wire_errors_have_the_documented_statuses() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();

        let missing = client.get("/nope").unwrap();
        assert_eq!(missing.status, 404);

        let wrong_method = client.get("/predict").unwrap();
        assert_eq!(wrong_method.status, 405);
        assert_eq!(wrong_method.header("allow"), Some("POST"));

        let bad_json = client.post("/predict", "{not json").unwrap();
        assert_eq!(bad_json.status, 400);
        assert_eq!(
            bad_json.json().unwrap().get("error").and_then(Json::as_str),
            Some("bad_json")
        );

        // Data-layer validation failure surfaces its wire code.
        let out_of_vocab = client
            .post("/predict", r#"{"tokens": [4000000000], "domain": 0}"#)
            .unwrap();
        assert_eq!(out_of_vocab.status, 400);
        assert_eq!(
            out_of_vocab
                .json()
                .unwrap()
                .get("error")
                .and_then(Json::as_str),
            Some("token_out_of_range")
        );

        // An invalid item inside a batch names its index.
        let mixed = client
            .post(
                "/predict",
                r#"{"items": [{"tokens": [1], "domain": 0}, {"tokens": [], "domain": 0}]}"#,
            )
            .unwrap();
        assert_eq!(mixed.status, 400);
        let doc = mixed.json().unwrap();
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("empty_tokens")
        );
        assert!(doc
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("item 1:"));

        // The connection survives 4xx responses (keep-alive) — prove it by
        // asking for health afterwards.
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    }

    #[test]
    fn batch_envelopes_reject_unknown_sibling_fields() {
        let ds = dataset();
        let server = start_http(&ds);
        let mut client = HttpClient::connect(server.local_addr()).unwrap();
        let response = client
            .post(
                "/predict",
                r#"{"items": [{"tokens": [1], "domain": 0}], "optoins": 1}"#,
            )
            .unwrap();
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(response.body.contains("optoins"), "{}", response.body);
    }

    #[test]
    fn shutdown_is_not_blocked_by_a_busy_keep_alive_client() {
        let ds = dataset();
        let server = start_http(&ds);
        let addr = server.local_addr();
        // A well-behaved client that hammers /healthz on one keep-alive
        // connection until the server closes it.
        let client = thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            for _ in 0..100_000 {
                if client.get("/healthz").is_err() {
                    return true; // server closed on us: expected
                }
            }
            false
        });
        thread::sleep(Duration::from_millis(50)); // let the loop get going
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "shutdown blocked behind a busy keep-alive client"
        );
        assert!(client.join().unwrap(), "client never saw the close");
    }

    fn start_http_as(ds: &MultiDomainDataset, config: HttpConfig) -> HttpServer {
        let cfg = ModelConfig::tiny(ds);
        let predict = PredictServer::start(BatchingConfig::default(), move |_| {
            let mut store = ParamStore::new();
            let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(7));
            InferenceSession::new(model, store)
        });
        HttpServer::start(predict, config).expect("bind ephemeral port")
    }

    fn stats_u64(server: &HttpServer, field: &str) -> u64 {
        let mut probe = HttpClient::connect(server.local_addr()).unwrap();
        let doc = probe.get("/stats").unwrap().json().unwrap();
        doc.get("http")
            .unwrap()
            .get(field)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("missing http.{field}"))
    }

    #[test]
    fn slow_loris_requests_hit_the_overall_deadline_under_epoll() {
        let ds = dataset();
        let server = start_http_as(
            &ds,
            HttpConfig {
                read_timeout: Duration::from_millis(500),
                request_timeout: Duration::from_millis(100),
                ..HttpConfig::default()
            },
        );
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // Drip a never-finishing head, each write well inside read_timeout
        // but the whole request far beyond request_timeout.
        let _ = stream.write_all(b"POST /predict HTTP/1.1\r\n");
        for _ in 0..10 {
            thread::sleep(Duration::from_millis(30));
            // Ignore write errors: the server closes once the deadline hits.
            let _ = stream.write_all(b"X-Pad: a\r\n");
        }
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 408"), "{text:?}");
        assert!(stats_u64(&server, "request_timeouts") >= 1);
    }

    #[test]
    fn idle_keep_alive_connections_are_cut_under_epoll() {
        let ds = dataset();
        let server = start_http_as(
            &ds,
            HttpConfig {
                read_timeout: Duration::from_millis(150),
                request_timeout: Duration::from_secs(5),
                ..HttpConfig::default()
            },
        );
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 2048];
        let n = stream.read(&mut buf).unwrap();
        assert!(
            String::from_utf8_lossy(&buf[..n]).starts_with("HTTP/1.1 200"),
            "first request answered"
        );
        // Go idle: the server must cut the connection at read_timeout —
        // promptly, but never before the deadline.
        let t0 = Instant::now();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap(); // EOF, not a reset
        let cut_after = t0.elapsed();
        assert!(
            cut_after < Duration::from_secs(5),
            "idle connection survived {cut_after:?}"
        );
        assert!(
            cut_after >= Duration::from_millis(100),
            "cut {cut_after:?} in, before the idle deadline"
        );
        assert!(stats_u64(&server, "idle_timeouts") >= 1);
    }

    #[test]
    fn epoll_holds_many_idle_connections_above_its_dispatcher_count() {
        let ds = dataset();
        // 2 dispatchers, 50 concurrent keep-alive connections: an idle
        // connection holds a slab slot, never a dispatcher.
        let server = start_http_as(
            &ds,
            HttpConfig {
                connection_workers: 2,
                read_timeout: Duration::from_secs(30),
                ..HttpConfig::default()
            },
        );
        let mut clients: Vec<HttpClient> = (0..50)
            .map(|_| HttpClient::connect(server.local_addr()).unwrap())
            .collect();
        for client in &mut clients {
            assert_eq!(client.get("/healthz").unwrap().status, 200);
        }
        let doc = clients[0].get("/stats").unwrap().json().unwrap();
        let http = doc.get("http").unwrap();
        let open = http.get("open_connections").and_then(Json::as_u64).unwrap();
        assert!(open >= 50, "only {open} connections open");
        let armed = http
            .get("timer_wheel_armed")
            .and_then(Json::as_u64)
            .unwrap();
        assert!(armed >= 1, "idle deadlines should sit on the wheel");
        // Every connection is still serviced on a second round.
        for client in &mut clients {
            assert_eq!(client.get("/healthz").unwrap().status, 200);
        }
    }

    #[test]
    fn a_full_dispatch_queue_sheds_with_503_overloaded() {
        let ds = dataset();
        let cfg = ModelConfig::tiny(&ds);
        // One dispatcher and no backlog: the dispatch queue holds exactly one
        // request behind the one in flight, and every forward pass stalls
        // long enough to keep the dispatcher busy while two more arrive.
        let server = crate::ServerBuilder::new()
            .workers(1)
            .fault_plan(crate::FaultPlan::default().slow_predict(Duration::from_millis(500)))
            .http(HttpConfig {
                connection_workers: 1,
                backlog: 0,
                ..HttpConfig::default()
            })
            .try_start_http(move |_| {
                let mut store = ParamStore::new();
                let model = TextCnnModel::student(&mut store, &cfg, &mut Prng::new(7));
                InferenceSession::new(model, store)
            })
            .expect("valid http configuration");
        let addr = server.local_addr();
        let item = &ds.items()[0];
        let body = json::encode_request(&dtdbd_data::InferenceRequest::new(
            item.tokens.clone(),
            item.domain,
        ))
        .render();
        let stalled = thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            client.post("/predict", &body).unwrap().status
        });
        // The predict counter moves once the only dispatcher has taken the
        // stalled request off the queue.
        let t0 = Instant::now();
        while server.ctx.stats.predict_calls.load(Ordering::SeqCst) == 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "predict never dispatched"
            );
            thread::sleep(Duration::from_millis(2));
        }
        // Two more requests, each on its own connection: one fills the
        // queue, the other finds it full. Which one the loop reads first is
        // up to the kernel, so the assertion is on the pair.
        let contenders: Vec<_> = (0..2)
            .map(|_| {
                thread::spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    client.get("/healthz").unwrap()
                })
            })
            .collect();
        let mut answers: Vec<ClientResponse> = contenders
            .into_iter()
            .map(|handle| handle.join().unwrap())
            .collect();
        answers.sort_by_key(|response| response.status);
        assert_eq!(answers[0].status, 200, "{}", answers[0].body);
        let shed = &answers[1];
        assert_eq!(shed.status, 503, "{}", shed.body);
        assert_eq!(
            shed.json().unwrap().get("error").and_then(Json::as_str),
            Some("overloaded")
        );
        assert!(shed.retry_after().is_some_and(|secs| secs >= 1));
        assert_eq!(shed.header("connection"), Some("close"));
        assert_eq!(stalled.join().unwrap(), 200);

        assert!(stats_u64(&server, "connections_rejected") >= 1);
        // The stall is over: the server answers again.
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.get("/healthz").unwrap().status, 200);
    }

    #[test]
    fn dropping_the_listener_closes_the_port_and_drains() {
        let ds = dataset();
        let server = start_http(&ds);
        let addr = server.local_addr();
        assert_eq!(
            HttpClient::connect(addr)
                .unwrap()
                .get("/healthz")
                .unwrap()
                .status,
            200
        );
        drop(server);
        // The port no longer accepts (either refused, or accepted by a
        // dead listener that immediately closes — both mean no response).
        let refused = match HttpClient::connect(addr) {
            Err(_) => true,
            Ok(mut client) => client.get("/healthz").is_err(),
        };
        assert!(refused, "listener still answering after drop");
    }
}
