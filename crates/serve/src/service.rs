//! The request → response core of the service, socket-free.
//!
//! [`Service::handle_into`] maps one parsed [`Request`] to a sequence of
//! [`ResponsePart`]s pushed into a [`ResponseSink`], and writes one
//! structured log line. Most endpoints emit a single
//! [`ResponsePart::Full`]; a `/v1/batch` of 512 applications or more
//! streams a chunked body as shard results complete. Keeping the core
//! free of sockets means the whole endpoint surface (routing, validation,
//! error mapping, caching, ETags, streaming decisions) is unit-testable
//! without binding a port; the epoll reactor ([`crate::reactor`]) is a
//! pump around it.
//!
//! ## Statelessness and determinism
//!
//! Every response body is a pure function of (endpoint, canonical
//! scenario text, policy spec, shard count). The simulation itself is
//! deterministic, and the JSON/trace renderings iterate `BTreeMap`s —
//! so concurrent identical requests produce byte-identical bodies,
//! strong input-derived ETags are valid, and the response cache can
//! never serve a stale or divergent body. Every `/v1/batch` body, streamed
//! or not, is emitted by one path from [`crate::json::batch_prelude`]
//! \+ [`crate::json::batch_entry_json`] + [`crate::json::BATCH_EPILOGUE`],
//! so the two framings carry the same bytes.
//! Host wall-clock appears only in the request log, never in a body.

use crate::cache::{CachedResponse, ResponseCache};
use crate::config::ServeConfig;
use crate::http::{Request, Response};
use crate::json;
use crate::log::{CacheOutcome, RequestLog, RequestRecord};
use calciom::{
    ConfigError, Error, NullObserver, PolicySpec, Scenario, SimEvent, SimObserver,
    TimelineAggregator, Trace, TraceRecorder,
};
use iobench::{run_scenarios_sharded_streamed, BaselineCache};
use simcore::time::SimTime;
use std::time::Instant;

/// Content type of JSON bodies.
const JSON: &str = "application/json";
/// Content type of `calciom-trace v1` bodies.
const TEXT: &str = "text/plain; charset=utf-8";
/// Header line that starts each scenario document in a `/v1/batch` body.
const SCENARIO_HEADER: &str = "calciom-scenario v1";
/// A `/v1/batch` whose scenarios hold at least this many applications in
/// total streams its body chunked, entry by entry; a smaller batch is
/// collected into one `Content-Length` response.
const STREAM_APPS: usize = 512;
/// Every route the service knows, with its allowed method — the `405`
/// response's `allow` header comes straight from this table.
const ROUTES: &[(&str, &str)] = &[
    ("GET", "/healthz"),
    ("GET", "/v1/policies"),
    ("POST", "/v1/run"),
    ("POST", "/v1/trace"),
    ("POST", "/v1/timeline"),
    ("POST", "/v1/batch"),
];

/// One piece of a response on its way to the wire.
///
/// The service emits either a single [`ResponsePart::Full`], or a
/// streamed sequence `StreamHead (StreamChunk)* (StreamEnd |
/// StreamAbort)`. The transport owns the framing: `Full` is written with
/// `Content-Length`, a stream with `Transfer-Encoding: chunked`
/// ([`Response::serialize_stream_head`] /
/// [`crate::http::chunk_frame`] / [`crate::http::CHUNK_END`]), or
/// close-delimited for an HTTP/1.0 client.
#[derive(Debug)]
pub enum ResponsePart {
    /// A complete response; exactly one exchange.
    Full(Response),
    /// Status + headers of a streamed response. Its `body` is empty;
    /// chunks follow.
    StreamHead(Response),
    /// One span of streamed body bytes (unframed — the transport applies
    /// the chunked coding).
    StreamChunk(Vec<u8>),
    /// The stream completed; the transport writes the terminal chunk.
    StreamEnd,
    /// The stream failed after the head was sent. The carried response
    /// is the error that *would* have been sent (for logs and
    /// materializing sinks); a wire transport can only truncate — close
    /// without the terminal chunk so the client detects the short body.
    StreamAbort(Response),
}

/// Where [`Service::handle_into`] pushes response parts. Implemented by
/// the reactor's completion queue and by [`CollectSink`] for tests,
/// batches under the streaming threshold and the materialized
/// [`Service::handle`].
pub trait ResponseSink {
    /// Receives the next part, in order.
    fn part(&mut self, part: ResponsePart);
}

/// A [`ResponseSink`] that reassembles whatever was emitted into one
/// materialized [`Response`] — the bridge from the streaming interface
/// back to "one request, one `Response`".
#[derive(Debug, Default)]
pub struct CollectSink {
    full: Option<Response>,
    head: Option<Response>,
    chunks: Vec<u8>,
    aborted: Option<Response>,
}

impl CollectSink {
    /// A fresh sink.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The materialized response: the `Full` part if one was emitted, a
    /// completed stream reassembled under its head, or the abort error.
    pub fn into_response(self) -> Response {
        if let Some(error) = self.aborted {
            return error;
        }
        if let Some(full) = self.full {
            return full;
        }
        match self.head {
            Some(mut head) => {
                head.body = self.chunks;
                head
            }
            // The service always emits at least one part; an empty sink
            // means the caller never ran it.
            None => Response::with_body(500, JSON, json::error_json("empty", "no response parts")),
        }
    }
}

impl ResponseSink for CollectSink {
    fn part(&mut self, part: ResponsePart) {
        match part {
            ResponsePart::Full(r) => self.full = Some(r),
            ResponsePart::StreamHead(h) => self.head = Some(h),
            ResponsePart::StreamChunk(c) => self.chunks.extend_from_slice(&c),
            ResponsePart::StreamEnd => {}
            ResponsePart::StreamAbort(e) => self.aborted = Some(e),
        }
    }
}

/// Counts events while forwarding them, so the request log's `events=`
/// column works for any observer.
struct Counting<O> {
    inner: O,
    events: u64,
}

impl<O: SimObserver> Counting<O> {
    fn new(inner: O) -> Self {
        Counting { inner, events: 0 }
    }
}

impl<O: SimObserver> SimObserver for Counting<O> {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        self.events += 1;
        self.inner.on_event(at, event);
    }

    fn wants_progress(&self) -> bool {
        self.inner.wants_progress()
    }
}

/// What the log line needs from one dispatched request.
struct LogMeta {
    status: u16,
    events: u64,
    shards: Option<usize>,
    cache: Option<CacheOutcome>,
}

/// One materialized dispatch: the response plus its log metadata.
struct Handled {
    response: Response,
    events: u64,
    shards: Option<usize>,
    cache: Option<CacheOutcome>,
}

impl Handled {
    fn plain(response: Response) -> Handled {
        Handled {
            response,
            events: 0,
            shards: None,
            cache: None,
        }
    }

    /// Pushes the response into `sink` and returns the log metadata.
    fn emit(self, sink: &mut dyn ResponseSink) -> LogMeta {
        let meta = LogMeta {
            status: self.response.status,
            events: self.events,
            shards: self.shards,
            cache: self.cache,
        };
        sink.part(ResponsePart::Full(self.response));
        meta
    }
}

/// The stateless endpoint surface plus its bounded response cache and
/// request log.
pub struct Service {
    config: ServeConfig,
    cache: ResponseCache,
    log: Box<dyn RequestLog>,
}

impl Service {
    /// A service with the given configuration and log sink.
    pub fn new(config: ServeConfig, log: Box<dyn RequestLog>) -> Self {
        let cache = ResponseCache::with_capacity(config.cache_cap);
        Service { config, cache, log }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The response cache (exposed for tests and stats).
    pub fn cache(&self) -> &ResponseCache {
        &self.cache
    }

    /// Handles one parsed request, materialized: streamed parts are
    /// reassembled into a single [`Response`]. Logs with no connection
    /// id — the unit-test and direct-call entry point.
    pub fn handle(&self, request: &Request) -> Response {
        let mut sink = CollectSink::new();
        self.handle_into(None, request, &mut sink);
        sink.into_response()
    }

    /// Handles one parsed request, pushing response parts into `sink`
    /// as they become available, and logs it. This is the reactor
    /// workers' entry point — a `/v1/batch` past the streaming threshold emits
    /// chunks while later shards are still simulating.
    pub fn handle_into(&self, conn: Option<u64>, request: &Request, sink: &mut dyn ResponseSink) {
        let started = Instant::now();
        let meta = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/batch") => self.batch_into(request, sink),
            _ => self.dispatch(request).emit(sink),
        };
        self.record(conn, request, meta, started);
    }

    /// Serves the request inline **iff** it needs no simulation: trivial
    /// GETs, routing errors, request-shape errors, `If-None-Match`
    /// revalidations, and response-cache hits. Returns `false` without
    /// touching `sink` when real work is required.
    ///
    /// This is the epoll reactor's fast path: a pipelined burst of
    /// cache hits is answered on the reactor thread itself — read once,
    /// serve all, write once — instead of paying a worker-pool
    /// round-trip (two thread hand-offs) per request. Everything served
    /// here is logged exactly as [`Service::handle_into`] would.
    pub fn handle_fast(
        &self,
        conn: Option<u64>,
        request: &Request,
        sink: &mut dyn ResponseSink,
    ) -> bool {
        let started = Instant::now();
        let Some(handled) = self.dispatch_fast(request) else {
            return false;
        };
        let meta = handled.emit(sink);
        self.record(conn, request, meta, started);
        true
    }

    /// Writes the log line of one request handled since `started`.
    fn record(&self, conn: Option<u64>, request: &Request, meta: LogMeta, started: Instant) {
        self.log.record(&RequestRecord {
            conn,
            method: request.method.clone(),
            path: request.path.clone(),
            scenario_hash: (!request.body.is_empty()).then(|| json::fnv64(&request.body)),
            shards: meta.shards,
            status: meta.status,
            events: meta.events,
            wall: started.elapsed(),
            cache: meta.cache,
        });
    }

    /// The dispatch half of [`Service::handle_fast`]. A sustained
    /// stream of identical requests is answered from a raw-bytes memo
    /// with no parsing at all; the first repeat of a cached scenario
    /// pays one parse + canonical-key hash to *install* that memo; and
    /// on a cache miss the parse is simply redone by the worker — the
    /// miss is about to simulate for milliseconds anyway.
    fn dispatch_fast(&self, request: &Request) -> Option<Handled> {
        match (request.method.as_str(), request.path.as_str()) {
            // Cheap to *compute*, not just to look up.
            ("GET", "/healthz") | ("GET", "/v1/policies") => Some(self.dispatch(request)),
            ("POST", "/v1/run") | ("POST", "/v1/trace") | ("POST", "/v1/timeline") => {
                // Level 1: the raw request bytes. The service is a pure
                // function of the request, so identical bytes must get
                // the identical response — lookup is one string compare,
                // no scenario parse. (Revalidations need the ETag
                // protocol; route them through the canonical path.)
                let raw = request
                    .header("if-none-match")
                    .is_none()
                    .then(|| raw_memo_key(request));
                if let Some(key) = &raw {
                    if let Some(hit) = self.cache.get(key) {
                        return Some(hit_handled(hit, None));
                    }
                }
                // Level 2: parse and consult the canonical cache, which
                // absorbs formatting variants of the same scenario.
                let scenario = match self.scenario_from(request) {
                    Ok(s) => s,
                    // A malformed request is answered inline: rejecting
                    // it never needs a simulation worker.
                    Err(response) => return Some(Handled::plain(response)),
                };
                let key = cache_key(&request.path, &scenario);
                self.revalidate_or_hit(request, &key, &json::etag(&key), None, raw.as_deref())
            }
            // Batches can shard/stream: always worker territory.
            ("POST", "/v1/batch") => None,
            // 404/405 are static routing answers.
            _ => Some(self.dispatch(request)),
        }
    }

    /// Builds and logs the response for a request that could not even be
    /// parsed off the wire (the reactor calls this on
    /// [`crate::http::HttpError`]). Such a response always closes the
    /// connection — the byte stream can no longer be framed.
    pub fn handle_unparsable(&self, conn: Option<u64>, status: u16, message: &str) -> Response {
        let response = Response::with_body(status, JSON, json::error_json("http", message));
        self.log.record(&RequestRecord {
            conn,
            method: "-".to_string(),
            path: "-".to_string(),
            scenario_hash: None,
            shards: None,
            status,
            events: 0,
            wall: std::time::Duration::ZERO,
            cache: None,
        });
        response
    }

    fn dispatch(&self, request: &Request) -> Handled {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Handled::plain(Response::with_body(200, TEXT, "ok\n")),
            ("GET", "/v1/policies") => {
                self.serve_cached(request, "GET /v1/policies".to_string(), || {
                    Ok((json::policies_json().into_bytes(), JSON, 0))
                })
            }
            ("POST", "/v1/run") => self.run(request),
            ("POST", "/v1/trace") => self.trace(request),
            ("POST", "/v1/timeline") => self.timeline(request),
            (_, path) => {
                let allowed: Vec<&str> = ROUTES
                    .iter()
                    .filter(|(_, p)| *p == path)
                    .map(|(m, _)| *m)
                    .collect();
                if allowed.is_empty() {
                    Handled::plain(Response::with_body(
                        404,
                        JSON,
                        json::error_json("not-found", &format!("no such endpoint: {path}")),
                    ))
                } else {
                    Handled::plain(
                        Response::with_body(
                            405,
                            JSON,
                            json::error_json(
                                "method-not-allowed",
                                &format!("{path} does not accept {}", request.method),
                            ),
                        )
                        .header("allow", &allowed.join(", ")),
                    )
                }
            }
        }
    }

    /// `POST /v1/run`: scenario text → [`calciom::SessionReport`] JSON.
    fn run(&self, request: &Request) -> Handled {
        let scenario = match self.scenario_from(request) {
            Ok(s) => s,
            Err(response) => return Handled::plain(response),
        };
        let key = cache_key("/v1/run", &scenario);
        self.serve_cached(request, key, || {
            let mut counter = Counting::new(NullObserver);
            let report = scenario
                .run_with(&mut counter)
                .map_err(|e| error_response(&e))?;
            Ok((
                json::report_json(&report).into_bytes(),
                JSON,
                counter.events,
            ))
        })
    }

    /// `POST /v1/trace`: scenario text → replayable `calciom-trace v1`
    /// text, round-trip verified before it is sent.
    fn trace(&self, request: &Request) -> Handled {
        let scenario = match self.scenario_from(request) {
            Ok(s) => s,
            Err(response) => return Handled::plain(response),
        };
        let key = cache_key("/v1/trace", &scenario);
        self.serve_cached(request, key, || {
            let mut counter = Counting::new(TraceRecorder::for_scenario(&scenario));
            let report = scenario
                .run_with(&mut counter)
                .map_err(|e| error_response(&e))?;
            let events = counter.events;
            let text = counter.inner.into_trace().to_text();
            // Round-trip guard: only ship a trace that decodes and replays
            // bit-for-bit to the report this very session produced.
            let verified = Trace::from_text(&text)
                .map(|decoded| decoded.replay_report() == report)
                .unwrap_or(false);
            if !verified {
                return Err(Response::with_body(
                    500,
                    JSON,
                    json::error_json(
                        "trace-roundtrip",
                        "recorded trace failed round-trip verification",
                    ),
                ));
            }
            Ok((text.into_bytes(), TEXT, events))
        })
    }

    /// `POST /v1/timeline`: scenario text → Gantt/bandwidth JSON.
    fn timeline(&self, request: &Request) -> Handled {
        let scenario = match self.scenario_from(request) {
            Ok(s) => s,
            Err(response) => return Handled::plain(response),
        };
        let key = cache_key("/v1/timeline", &scenario);
        self.serve_cached(request, key, || {
            let mut counter = Counting::new(TimelineAggregator::new());
            scenario
                .run_with(&mut counter)
                .map_err(|e| error_response(&e))?;
            let events = counter.events;
            let timeline = counter.inner.finish();
            Ok((json::timeline_json(&timeline).into_bytes(), JSON, events))
        })
    }

    /// `POST /v1/batch`: several concatenated scenario documents fanned
    /// out over the scenario runner, one entry per scenario in request
    /// order. A batch of `STREAM_APPS` applications or more goes out
    /// chunked, each entry as its shard result completes; a smaller one
    /// is collected into one `Content-Length` response by the same path.
    fn batch_into(&self, request: &Request, sink: &mut dyn ResponseSink) -> LogMeta {
        let shards = match self.shard_count(request) {
            Ok(n) => n,
            Err(response) => return Handled::plain(response).emit(sink),
        };
        let scenarios = match self.batch_scenarios(request) {
            Ok(scenarios) => scenarios,
            Err(response) => {
                let mut handled = Handled::plain(response);
                handled.shards = Some(shards);
                return handled.emit(sink);
            }
        };
        let mut key = format!("/v1/batch shards={shards}\n");
        for scenario in &scenarios {
            key.push_str(&scenario.to_text());
        }
        let tag = json::etag(&key);
        if let Some(handled) = self.revalidate_or_hit(request, &key, &tag, Some(shards), None) {
            return handled.emit(sink);
        }
        let apps: usize = scenarios.iter().map(|s| s.apps.len()).sum();
        if apps >= STREAM_APPS {
            return self.run_batch(&scenarios, shards, &key, tag, sink);
        }
        let mut collect = CollectSink::new();
        let meta = self.run_batch(&scenarios, shards, &key, tag, &mut collect);
        sink.part(ResponsePart::Full(collect.into_response()));
        meta
    }

    /// The documents of a `/v1/batch` body, each parsed and validated.
    fn batch_scenarios(&self, request: &Request) -> Result<Vec<Scenario>, Response> {
        let scenarios = split_scenarios(body_text(request)?)
            .into_iter()
            .map(|text| self.prepare(text, request))
            .collect::<Result<Vec<_>, Response>>()?;
        if scenarios.is_empty() {
            return Err(Response::with_body(
                400,
                JSON,
                json::error_json(
                    "scenario-parse",
                    &format!("batch body contains no {SCENARIO_HEADER:?} document"),
                ),
            ));
        }
        Ok(scenarios)
    }

    /// Runs a batch and streams its body into `sink`, caching the whole
    /// body under `key` once it completes. The head goes out lazily, with
    /// the first entry: a configuration error raised while *building*
    /// the sessions must still produce a proper 4xx/5xx status line,
    /// which is only possible while nothing has been sent.
    fn run_batch(
        &self,
        scenarios: &[Scenario],
        shards: usize,
        key: &str,
        tag: String,
        sink: &mut dyn ResponseSink,
    ) -> LogMeta {
        let mut body: Vec<u8> = Vec::new();
        let result =
            run_scenarios_sharded_streamed(scenarios, shards, BaselineCache::global(), |run| {
                let mut chunk = String::new();
                if body.is_empty() {
                    sink.part(ResponsePart::StreamHead(
                        Response::with_body(200, JSON, Vec::new())
                            .header("etag", &tag)
                            .header("x-cache", CacheOutcome::Miss.label()),
                    ));
                    chunk.push_str(&json::batch_prelude(shards, scenarios.len()));
                } else {
                    chunk.push(',');
                }
                chunk.push_str(&json::batch_entry_json(&run));
                body.extend_from_slice(chunk.as_bytes());
                sink.part(ResponsePart::StreamChunk(chunk.into_bytes()));
            });
        let mut meta = LogMeta {
            status: 200,
            events: 0,
            shards: Some(shards),
            cache: Some(CacheOutcome::Miss),
        };
        match result {
            Ok(()) => {
                body.extend_from_slice(json::BATCH_EPILOGUE.as_bytes());
                sink.part(ResponsePart::StreamChunk(
                    json::BATCH_EPILOGUE.as_bytes().to_vec(),
                ));
                sink.part(ResponsePart::StreamEnd);
                // The runner executes unobserved, so no event count is
                // available for the log (recorded as 0).
                self.cache.insert(
                    key,
                    CachedResponse {
                        body,
                        content_type: JSON,
                        etag: tag,
                        events: 0,
                    },
                );
            }
            Err(e) => {
                let error = error_response(&e);
                meta.status = error.status;
                meta.cache = None;
                if body.is_empty() {
                    sink.part(ResponsePart::Full(error));
                } else {
                    // Head already sent: the wire can only truncate.
                    sink.part(ResponsePart::StreamAbort(error));
                }
            }
        }
        meta
    }

    /// The ETag/If-None-Match/response-cache wrapper of the
    /// single-response endpoints. `compute` returns `(body, content_type,
    /// events)` or a ready error response (errors are never cached).
    fn serve_cached(
        &self,
        request: &Request,
        key: String,
        compute: impl FnOnce() -> Result<(Vec<u8>, &'static str, u64), Response>,
    ) -> Handled {
        let tag = json::etag(&key);
        if let Some(handled) = self.revalidate_or_hit(request, &key, &tag, None, None) {
            return handled;
        }
        match compute() {
            Ok((body, content_type, events)) => {
                self.cache.insert(
                    &key,
                    CachedResponse {
                        body: body.clone(),
                        content_type,
                        etag: tag.clone(),
                        events,
                    },
                );
                Handled {
                    response: Response::with_body(200, content_type, body)
                        .header("etag", &tag)
                        .header("x-cache", CacheOutcome::Miss.label()),
                    events,
                    shards: None,
                    cache: Some(CacheOutcome::Miss),
                }
            }
            Err(response) => Handled::plain(response),
        }
    }

    /// The no-simulation half of every cacheable endpoint: a matching
    /// `If-None-Match` becomes a `304`, a response-cache hit is served
    /// as-is, and anything else is `None` — the caller must compute. A
    /// hit is also stored under `memo`, the fast path's raw-bytes key, so
    /// the next identical request skips the parse entirely.
    fn revalidate_or_hit(
        &self,
        request: &Request,
        key: &str,
        tag: &str,
        shards: Option<usize>,
        memo: Option<&str>,
    ) -> Option<Handled> {
        // The ETag is derived from the request's canonical inputs, so a
        // match short-circuits before any simulation work.
        if request.header("if-none-match") == Some(tag) {
            return Some(Handled {
                response: Response {
                    status: 304,
                    headers: vec![("etag".to_string(), tag.to_string())],
                    body: Vec::new(),
                },
                events: 0,
                shards,
                cache: None,
            });
        }
        let hit = self.cache.get(key)?;
        if let Some(memo) = memo {
            self.cache.insert(memo, hit.clone());
        }
        Some(hit_handled(hit, shards))
    }

    /// Parses the single-scenario body of `/v1/run`-shaped endpoints.
    fn scenario_from(&self, request: &Request) -> Result<Scenario, Response> {
        self.prepare(body_text(request)?, request)
    }

    /// Parses one scenario document, applies the `?policy=` override, and
    /// enforces the horizon limit plus full validation.
    fn prepare(&self, text: &str, request: &Request) -> Result<Scenario, Response> {
        let mut scenario =
            Scenario::from_text(text).map_err(|e| error_response(&Error::Scenario(e)))?;
        if let Some(spec_text) = query_param_checked(request, "policy")? {
            let spec = PolicySpec::from_text(&spec_text)
                .map_err(|e| error_response(&Error::Config(ConfigError::Policy(e))))?;
            scenario.arbitration = spec;
        }
        if scenario.horizon.as_secs() > self.config.max_horizon_secs {
            return Err(Response::with_body(
                422,
                JSON,
                json::error_json(
                    "horizon-limit",
                    &format!(
                        "scenario horizon of {}s exceeds this server's limit of {}s",
                        scenario.horizon.as_secs(),
                        self.config.max_horizon_secs
                    ),
                ),
            ));
        }
        scenario
            .validate()
            .map_err(|e| error_response(&Error::Config(e)))?;
        Ok(scenario)
    }

    /// The `?shards=` override of `/v1/batch`, clamped to the configured
    /// shard count (0 or absent → that count): a batch spawns one thread
    /// per shard, so a request may ask for fewer, never for more.
    fn shard_count(&self, request: &Request) -> Result<usize, Response> {
        let cap = self.config.effective_shards();
        match query_param_checked(request, "shards")? {
            None => Ok(cap),
            Some(raw) => match raw.parse::<usize>() {
                Ok(0) => Ok(cap),
                Ok(n) => Ok(n.min(cap)),
                Err(_) => Err(Response::with_body(
                    400,
                    JSON,
                    json::error_json(
                        "bad-request",
                        &format!("shards must be a non-negative integer, got {raw:?}"),
                    ),
                )),
            },
        }
    }
}

/// The level-1 memo key for [`Service::handle_fast`]: the raw request
/// bytes, verbatim (method, target, body). Distinct formatting of the
/// same scenario gets distinct entries here — the canonical cache
/// underneath deduplicates the *computation*; this layer only skips the
/// parse for exact repeats. The `"raw "` prefix keeps it disjoint from
/// canonical keys, which start with the endpoint path.
fn raw_memo_key(request: &Request) -> String {
    let mut key = String::with_capacity(
        request.method.len() + request.path.len() + request.query.len() + request.body.len() + 8,
    );
    key.push_str("raw ");
    key.push_str(&request.method);
    key.push(' ');
    key.push_str(&request.path);
    key.push('?');
    key.push_str(&request.query);
    key.push(' ');
    key.push_str(&String::from_utf8_lossy(&request.body));
    key
}

/// A cache hit as [`Handled`] — one response shape for every cache level
/// and endpoint, so a hit is byte-identical on the wire wherever it is
/// served from.
fn hit_handled(hit: CachedResponse, shards: Option<usize>) -> Handled {
    Handled {
        response: Response::with_body(200, hit.content_type, hit.body)
            .header("etag", &hit.etag)
            .header("x-cache", CacheOutcome::Hit.label()),
        events: hit.events,
        shards,
        cache: Some(CacheOutcome::Hit),
    }
}

/// The canonical cache/ETag key: endpoint + policy label + the
/// scenario's canonical text (the `BaselineCache` key discipline —
/// `from_text ∘ to_text` has already normalized the request body).
fn cache_key(endpoint: &str, scenario: &Scenario) -> String {
    let mut key = format!("{endpoint} policy={}\n", scenario.arbitration);
    key.push_str(&scenario.to_text());
    key
}

/// Maps the typed simulator errors onto the wire: parse problems are the
/// client's fault (`400`), a scenario that parses but cannot be built or
/// validated is unprocessable (`422`), and a simulation that fails at
/// runtime is the server's problem (`500`).
fn error_response(error: &Error) -> Response {
    let (status, kind) = match error {
        Error::Scenario(_) => (400, "scenario-parse"),
        Error::Trace(_) => (400, "trace-parse"),
        Error::Info(_) => (400, "info-parse"),
        Error::Config(ConfigError::Policy(_)) => (422, "policy"),
        Error::Config(_) => (422, "config"),
        Error::Session(_) => (500, "session"),
    };
    Response::with_body(status, JSON, json::error_json(kind, &error.to_string()))
}

/// The request body as UTF-8 text.
fn body_text(request: &Request) -> Result<&str, Response> {
    std::str::from_utf8(&request.body).map_err(|_| {
        Response::with_body(
            400,
            JSON,
            json::error_json("bad-request", "request body is not valid UTF-8"),
        )
    })
}

/// Like [`Request::query_param`], but a parameter that is *present* with
/// broken percent-encoding is a `400`, not a silent absence.
fn query_param_checked(request: &Request, name: &str) -> Result<Option<String>, Response> {
    let present = request
        .query
        .split('&')
        .any(|kv| kv == name || kv.starts_with(&format!("{name}=")));
    if !present {
        return Ok(None);
    }
    match request.query_param(name) {
        Some(value) => Ok(Some(value)),
        None => Err(Response::with_body(
            400,
            JSON,
            json::error_json(
                "bad-request",
                &format!("query parameter {name} has broken percent-encoding"),
            ),
        )),
    }
}

/// Splits a `/v1/batch` body into scenario documents: each line equal to
/// the scenario header starts a new document.
fn split_scenarios(body: &str) -> Vec<&str> {
    let mut starts: Vec<usize> = Vec::new();
    let mut offset = 0;
    for line in body.split_inclusive('\n') {
        if line.trim_end_matches(['\r', '\n']) == SCENARIO_HEADER {
            starts.push(offset);
        }
        offset += line.len();
    }
    if starts.is_empty() {
        // No header at all: hand the whole body to the scenario parser so
        // the client gets its precise BadHeader error back.
        return if body.trim().is_empty() {
            Vec::new()
        } else {
            vec![body]
        };
    }
    let mut docs = Vec::with_capacity(starts.len());
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(body.len());
        docs.push(&body[start..end]);
    }
    docs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::BufferLog;
    use calciom::{AccessPattern, AppConfig, AppId, PfsConfig};
    use std::collections::BTreeMap;

    fn scenario_text() -> String {
        Scenario::builder(PfsConfig::grid5000_rennes())
            .app(AppConfig::new(
                AppId(0),
                "A",
                336,
                AccessPattern::contiguous(8.0e6),
            ))
            .app(
                AppConfig::new(AppId(1), "B", 48, AccessPattern::contiguous(4.0e6))
                    .starting_at_secs(1.0),
            )
            .build()
            .unwrap()
            .to_text()
    }

    fn service() -> Service {
        Service::new(ServeConfig::default(), Box::new(BufferLog::new()))
    }

    /// Forwards records into a shared buffer the test can read.
    struct Fwd(std::sync::Arc<BufferLog>);

    impl RequestLog for Fwd {
        fn record(&self, r: &RequestRecord) {
            self.0.record(r);
        }
    }

    fn post(path: &str, query: &str, body: impl Into<Vec<u8>>) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: query.to_string(),
            headers: BTreeMap::new(),
            body: body.into(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let svc = service();
        assert_eq!(svc.handle(&get("/healthz")).status, 200);
        assert_eq!(svc.handle(&get("/nope")).status, 404);
        let wrong_method = svc.handle(&get("/v1/run"));
        assert_eq!(wrong_method.status, 405);
        assert!(wrong_method
            .headers
            .iter()
            .any(|(n, v)| n == "allow" && v == "POST"));
    }

    #[test]
    fn run_is_deterministic_and_cached() {
        let svc = service();
        let first = svc.handle(&post("/v1/run", "", scenario_text()));
        let second = svc.handle(&post("/v1/run", "", scenario_text()));
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body, "bodies must be byte-identical");
        let outcome = |r: &Response| {
            r.headers
                .iter()
                .find(|(n, _)| n == "x-cache")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(outcome(&first).as_deref(), Some("miss"));
        assert_eq!(outcome(&second).as_deref(), Some("hit"));
        assert_eq!(svc.cache().hits(), 1);
    }

    #[test]
    fn etag_enables_conditional_requests() {
        let svc = service();
        let first = svc.handle(&post("/v1/run", "", scenario_text()));
        let tag = first
            .headers
            .iter()
            .find(|(n, _)| n == "etag")
            .map(|(_, v)| v.clone())
            .unwrap();
        let mut revalidate = post("/v1/run", "", scenario_text());
        revalidate
            .headers
            .insert("if-none-match".to_string(), tag.clone());
        let response = svc.handle(&revalidate);
        assert_eq!(response.status, 304);
        assert!(response.body.is_empty());
    }

    #[test]
    fn policy_override_changes_the_report() {
        let svc = service();
        let base = svc.handle(&post("/v1/run", "", scenario_text()));
        let fcfs = svc.handle(&post("/v1/run", "policy=fcfs", scenario_text()));
        assert_eq!(fcfs.status, 200);
        assert_ne!(base.body, fcfs.body);
        let text = String::from_utf8(fcfs.body).unwrap();
        assert!(text.contains("\"policy\":\"fcfs\""), "{text}");
        // The override names a strategy, so the report says so too.
        assert!(text.contains("\"strategy\":\"fcfs\""), "{text}");
    }

    #[test]
    fn out_of_range_delay_strategy_is_a_policy_422() {
        let svc = service();
        let text = scenario_text();
        assert!(text.contains("strategy = interfering\n"));
        for bound in ["-5.0", "NaN", "inf"] {
            let body = text.replace(
                "strategy = interfering\n",
                &format!("strategy = delay {bound}\n"),
            );
            let response = svc.handle(&post("/v1/run", "", body));
            assert_eq!(response.status, 422, "delay {bound}");
            let json = String::from_utf8(response.body).unwrap();
            assert!(json.contains("\"kind\":\"policy\""), "{json}");
        }
    }

    #[test]
    fn non_finite_dynamic_gamma_is_a_config_422() {
        let svc = service();
        let text = scenario_text()
            .replace("strategy = interfering", "strategy = calciom-dynamic")
            .replace(
                "consider_interference = false",
                "consider_interference = true",
            );
        // The first `interference_gamma` key is the `[policy]` one.
        assert!(text.find("[policy]") < text.find("interference_gamma"));
        let body = text.replacen("interference_gamma = 0.85", "interference_gamma = NaN", 1);
        let response = svc.handle(&post("/v1/run", "", body));
        assert_eq!(response.status, 422);
        let json = String::from_utf8(response.body).unwrap();
        assert!(json.contains("\"kind\":\"config\""), "{json}");
        assert!(json.contains("interference_gamma"), "{json}");
        assert_eq!(svc.handle(&post("/v1/run", "", text)).status, 200);
    }

    #[test]
    fn malformed_scenario_is_a_structured_400() {
        let svc = service();
        let response = svc.handle(&post("/v1/run", "", "not a scenario"));
        assert_eq!(response.status, 400);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"kind\":\"scenario-parse\""), "{text}");
    }

    #[test]
    fn non_finite_pattern_is_a_4xx_not_a_panic() {
        let svc = service();
        let text = scenario_text();
        assert!(text.contains("pattern = contiguous 4000000.0"));
        for bad in ["NaN", "inf"] {
            let body = text.replace(
                "pattern = contiguous 4000000.0",
                &format!("pattern = contiguous {bad}"),
            );
            let response = svc.handle(&post("/v1/run", "", body));
            assert!(
                (400..500).contains(&response.status),
                "{bad}: status {}",
                response.status
            );
        }
        // A valid request right after is still simulated.
        assert_eq!(svc.handle(&post("/v1/run", "", text)).status, 200);
    }

    /// Sets `key` to `value` in every `[section]` block of a scenario
    /// document (every `[app]` block for `app`).
    fn set_key(text: &str, section: &str, key: &str, value: &str) -> String {
        let header = format!("[{section}]");
        let prefix = format!("{key} = ");
        let mut in_section = false;
        let mut replaced = 0;
        let mut out = String::with_capacity(text.len());
        for line in text.lines() {
            if line.starts_with('[') {
                in_section = line == header;
            }
            if in_section && line.starts_with(&prefix) {
                out.push_str(&format!("{prefix}{value}\n"));
                replaced += 1;
            } else {
                out.push_str(line);
                out.push('\n');
            }
        }
        assert!(replaced > 0, "no `{key}` in [{section}]");
        out
    }

    #[test]
    fn nan_in_any_float_key_is_a_4xx() {
        let svc = service();
        let text = scenario_text();
        for (section, key, value) in [
            ("pfs", "server_bw", "NaN"),
            ("pfs", "process_link_bw", "NaN"),
            ("pfs", "interconnect_bw", "NaN"),
            ("pfs", "interference_gamma", "NaN"),
            ("pfs", "cache", "NaN 1000000000.0 500000000.0"),
            ("policy", "interference_gamma", "NaN"),
            ("app", "buffer_bytes", "NaN"),
            ("app", "shuffle_bw", "NaN"),
        ] {
            let body = set_key(&text, section, key, value);
            let response = svc.handle(&post("/v1/run", "", body));
            assert!(
                (400..500).contains(&response.status),
                "[{section}] {key} = {value}: status {}",
                response.status
            );
        }
        assert_eq!(svc.handle(&post("/v1/run", "", text)).status, 200);
    }

    #[test]
    fn non_finite_collective_buffering_is_a_config_422() {
        let svc = service();
        // Strided patterns go through collective buffering, so the
        // buffer size and shuffle bandwidth are both on the data path.
        let text = set_key(
            &set_key(&scenario_text(), "app", "pattern", "strided 65536.0 80"),
            "app",
            "aggregators",
            "4",
        );
        for (key, value) in [
            ("buffer_bytes", "inf"),
            ("buffer_bytes", "NaN"),
            ("shuffle_bw", "NaN"),
            ("shuffle_bw", "inf"),
        ] {
            let response = svc.handle(&post("/v1/run", "", set_key(&text, "app", key, value)));
            assert_eq!(response.status, 422, "{key} = {value}");
            let json = String::from_utf8(response.body).unwrap();
            assert!(json.contains("\"kind\":\"config\""), "{json}");
            assert!(json.contains(key), "{json}");
        }
        assert_eq!(svc.handle(&post("/v1/run", "", text)).status, 200);
    }

    #[test]
    fn unknown_policy_is_a_422() {
        let svc = service();
        let response = svc.handle(&post("/v1/run", "policy=wizardry", scenario_text()));
        assert_eq!(response.status, 422);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"kind\":\"policy\""), "{text}");
    }

    #[test]
    fn broken_policy_encoding_is_a_400_not_silence() {
        let svc = service();
        let response = svc.handle(&post("/v1/run", "policy=rr%2", scenario_text()));
        assert_eq!(response.status, 400);
    }

    #[test]
    fn oversized_horizon_is_a_422() {
        let config = ServeConfig {
            max_horizon_secs: 10.0,
            ..ServeConfig::default()
        };
        let svc = Service::new(config, Box::new(BufferLog::new()));
        let response = svc.handle(&post("/v1/run", "", scenario_text()));
        assert_eq!(response.status, 422);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"kind\":\"horizon-limit\""), "{text}");
    }

    #[test]
    fn trace_round_trips_to_the_run_report() {
        let svc = service();
        let run = svc.handle(&post("/v1/run", "", scenario_text()));
        let trace = svc.handle(&post("/v1/trace", "", scenario_text()));
        assert_eq!(trace.status, 200);
        let decoded = Trace::from_text(std::str::from_utf8(&trace.body).unwrap()).unwrap();
        let replayed = json::report_json(&decoded.replay_report());
        assert_eq!(replayed.into_bytes(), run.body);
    }

    #[test]
    fn timeline_reports_intervals() {
        let svc = service();
        let response = svc.handle(&post("/v1/timeline", "", scenario_text()));
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"intervals\""));
        assert!(text.contains("\"bandwidth\""));
    }

    #[test]
    fn batch_splits_documents_and_reports_each() {
        let svc = service();
        let body = format!("{}{}", scenario_text(), scenario_text());
        let response = svc.handle(&post("/v1/batch", "shards=2", body));
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"scenarios\":2"), "{text}");
        assert!(text.contains("\"shards\":2"));
        assert!(text.contains("\"alone_secs\""));
    }

    #[test]
    fn batch_with_no_documents_is_a_400() {
        let svc = service();
        let response = svc.handle(&post("/v1/batch", "", "  \n"));
        assert_eq!(response.status, 400);
    }

    #[test]
    fn batch_shard_validation() {
        let svc = service();
        let response = svc.handle(&post("/v1/batch", "shards=many", scenario_text()));
        assert_eq!(response.status, 400);
    }

    /// One scenario document holding `apps` small serialized writers.
    fn wide_scenario_text(apps: usize) -> String {
        Scenario::builder(PfsConfig::grid5000_rennes())
            .apps((0..apps).map(|i| {
                AppConfig::new(AppId(i), "w", 8, AccessPattern::contiguous(1.0e6))
                    .starting_at_secs(i as f64 * 0.01)
            }))
            .strategy(calciom::Strategy::FcfsSerialize)
            .build()
            .unwrap()
            .to_text()
    }

    /// A batch body of exactly `STREAM_APPS` applications.
    fn streaming_batch() -> String {
        let half = wide_scenario_text(STREAM_APPS / 2);
        format!("{half}{half}")
    }

    #[test]
    fn streamed_batch_parts_reassemble_to_the_materialized_body() {
        let body = streaming_batch();
        let svc = service();
        let mut sink = CollectSink::new();
        svc.handle_into(
            None,
            &post("/v1/batch", "shards=2", body.clone()),
            &mut sink,
        );
        assert!(sink.full.is_none(), "a cold 512-app batch must stream");
        let head = sink.head.as_ref().expect("stream head was emitted");
        assert_eq!(head.status, 200);
        assert!(head
            .headers
            .iter()
            .any(|(n, v)| n == "x-cache" && v == "miss"));

        // The reference: the same batch through the collecting runner,
        // rendered fragment by fragment.
        let scenarios: Vec<Scenario> = split_scenarios(&body)
            .into_iter()
            .map(|text| Scenario::from_text(text).unwrap())
            .collect();
        let shards = svc.config().effective_shards().min(2);
        let runs =
            iobench::run_scenarios_sharded(&scenarios, shards, &BaselineCache::new()).unwrap();
        let entries: Vec<String> = runs.iter().map(json::batch_entry_json).collect();
        let expected = format!(
            "{}{}{}",
            json::batch_prelude(shards, runs.len()),
            entries.join(","),
            json::BATCH_EPILOGUE
        );
        assert_eq!(
            String::from_utf8(sink.into_response().body).unwrap(),
            expected,
            "de-chunked stream must be byte-identical to the rendered runs"
        );
    }

    #[test]
    fn streamed_batch_is_cached_for_later_hits() {
        let svc = service();
        let first = svc.handle(&post("/v1/batch", "shards=2", streaming_batch()));
        assert_eq!(first.status, 200);
        let mut sink = CollectSink::new();
        svc.handle_into(
            None,
            &post("/v1/batch", "shards=2", streaming_batch()),
            &mut sink,
        );
        assert!(sink.head.is_none(), "a hit is served whole, not streamed");
        let second = sink.into_response();
        assert_eq!(second.body, first.body);
        assert!(second
            .headers
            .iter()
            .any(|(n, v)| n == "x-cache" && v == "hit"));
    }

    #[test]
    fn stream_threshold_triggers_on_total_apps() {
        let svc = service();
        // 255 + 256 = 511 applications: one `Full` response, whatever
        // `?stream=` says, with `Content-Length`-ready headers.
        let below = format!(
            "{}{}",
            wide_scenario_text(STREAM_APPS / 2 - 1),
            wide_scenario_text(STREAM_APPS / 2)
        );
        let mut sink = CollectSink::new();
        svc.handle_into(None, &post("/v1/batch", "stream=1", below), &mut sink);
        assert!(sink.head.is_none(), "below the threshold nothing streams");
        let full = sink.full.expect("one full response");
        assert_eq!(full.status, 200);
        let names: Vec<&str> = full.headers.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["content-type", "etag", "x-cache"]);
        // 256 + 256 = 512: streams, whatever `?stream=` says.
        let mut sink = CollectSink::new();
        svc.handle_into(
            None,
            &post("/v1/batch", "stream=0", streaming_batch()),
            &mut sink,
        );
        assert!(
            sink.head.is_some(),
            "at the app threshold the batch must stream"
        );
    }

    #[test]
    fn oversized_shard_request_is_clamped_to_the_configured_count() {
        let log = std::sync::Arc::new(BufferLog::new());
        let config = ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        };
        let svc = Service::new(config, Box::new(Fwd(log.clone())));
        let body = format!("{}{}", scenario_text(), scenario_text());
        let response = svc.handle(&post("/v1/batch", "shards=64", body));
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.starts_with("{\"shards\":2,"), "{text}");
        assert_eq!(log.records()[0].shards, Some(2));
    }

    #[test]
    fn single_scenario_endpoints_run_cluster_scenarios() {
        use calciom::{ClusterSpec, MachineSpec};
        use simcore::SimDuration;

        let mut scenario = Scenario::from_text(&scenario_text()).unwrap();
        scenario.cluster = Some(ClusterSpec::new(
            1,
            vec![
                MachineSpec {
                    latency: SimDuration::from_millis(1.0),
                    apps: vec![AppId(0)],
                },
                MachineSpec {
                    latency: SimDuration::from_millis(1.0),
                    apps: vec![AppId(1)],
                },
            ],
        ));
        let svc = service();
        let run = svc.handle(&post("/v1/run", "", scenario.to_text()));
        assert_eq!(run.status, 200, "{}", String::from_utf8_lossy(&run.body));
        assert_eq!(
            String::from_utf8(run.body).unwrap(),
            json::report_json(&scenario.run().unwrap())
        );
        for path in ["/v1/trace", "/v1/timeline"] {
            let response = svc.handle(&post(path, "", scenario.to_text()));
            assert_eq!(response.status, 200, "{path}");
        }
    }

    #[test]
    fn split_scenarios_finds_document_boundaries() {
        let one = format!("{SCENARIO_HEADER}\na = 1\n");
        let two = format!("{one}{SCENARIO_HEADER}\nb = 2\n");
        assert_eq!(split_scenarios(&two).len(), 2);
        assert_eq!(split_scenarios(&one), vec![one.as_str()]);
        assert_eq!(split_scenarios("junk"), vec!["junk"]);
        assert!(split_scenarios(" \n").is_empty());
    }

    #[test]
    fn policies_listing_is_cacheable() {
        let svc = service();
        let first = svc.handle(&get("/v1/policies"));
        let second = svc.handle(&get("/v1/policies"));
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body);
        assert!(String::from_utf8(first.body).unwrap().contains("srpf"));
    }

    #[test]
    fn request_log_lines_have_the_contract_columns() {
        let log = std::sync::Arc::new(BufferLog::new());
        let svc = Service::new(ServeConfig::default(), Box::new(Fwd(log.clone())));
        svc.handle_into(
            Some(3),
            &post("/v1/run", "", scenario_text()),
            &mut CollectSink::new(),
        );
        let records = log.records();
        assert_eq!(records.len(), 1);
        let line = records[0].line();
        assert!(
            line.starts_with("method=POST path=/v1/run scenario="),
            "{line}"
        );
        assert!(line.ends_with("cache=miss conn=3"), "{line}");
        assert!(records[0].events > 0, "run streams simulation events");
        assert_eq!(records[0].cache, Some(CacheOutcome::Miss));
        assert_eq!(records[0].conn, Some(3));
    }
}
