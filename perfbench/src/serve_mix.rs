//! The `serve_mixed` workload: `calciom-serve` booted in-process and
//! driven over loopback HTTP by a seeded mix of small, mostly uncached
//! scenario requests.
//!
//! Every body is a distinct-seed `MachineMix` (4–16 applications, one of
//! the five built-in strategies). 70% go to `/v1/run`, 10% each to
//! `/v1/timeline` and `/v1/trace`, and 10% repeat a recent body so they
//! hit the response cache on the reactor's fast path.

use crate::calib::Reference;
use crate::loadgen::{self, exchange_all, ms, open_loop, post_wire, Exchange, Pacing};
use crate::probe::{Counting, Timed};
use crate::report::Report;
use crate::stats::{median, percentile, Summary};
use crate::{peak_rss_mb, process_cpu_time, thread_cpu_time, MetricSet, END_TO_END, PER_LAYER};
use calciom::{
    LocalTransport, NullObserver, Scenario, Session, SimObserver, Strategy, TimelineAggregator,
    TraceRecorder,
};
use serve::json::{fnv64, report_json, timeline_json};
use serve::{CacheOutcome, Request, RequestLog, RequestRecord, ServeConfig, ServerHandle, Service};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::MachineMix;

/// Worker threads of the server (pinned, not one per core).
pub const WORKERS: usize = 2;
/// Keep-alive connections of the load generator.
pub const CONNS: usize = 2;
/// The light rate (requests per second): about a quarter of capacity.
pub const LIGHT_RPS: f64 = 300.0;
/// The heavy rate: about 70% of capacity.
pub const HEAVY_RPS: f64 = 900.0;
/// The `max_rps` ladder, ascending.
pub const LADDER: [f64; 6] = [300.0, 600.0, 900.0, 1200.0, 1500.0, 1800.0];
/// Requests per ladder rung: enough that the p99 has ten samples above it.
const RUNG: usize = 1000;
/// Requests of the heavy-rate phase.
const HEAVY: usize = 1800;
/// Requests of the traced light-rate phase.
const TRACED: usize = 1200;
/// Requests per light-rate segment (one second at the light rate).
const SEGMENT: usize = 300;
/// The latency limit of `max_rps`, on the p99 from due time.
pub const LIMIT_MS: f64 = 10.0;
/// Requests per closed-loop burst (`run_s`).
const BURST: usize = 300;
/// Requests each connection keeps in flight during a burst.
const WINDOW: usize = 4;
/// Closed-loop warm-up requests before anything is timed.
const WARMUP: usize = 200;
/// How long to wait past the last due time for outstanding replies.
const DRAIN: Duration = Duration::from_secs(10);

const ENDPOINTS: [&str; 3] = ["/v1/run", "/v1/timeline", "/v1/trace"];
const STRATEGIES: [Strategy; 5] = [
    Strategy::Interfere,
    Strategy::FcfsSerialize,
    Strategy::Interrupt,
    Strategy::Delay { max_wait_secs: 5.0 },
    Strategy::Dynamic,
];

/// SplitMix64: a tiny seeded generator for the traffic mix.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One request of the mix.
#[derive(Debug, Clone)]
pub struct MixRequest {
    /// Endpoint path.
    pub path: &'static str,
    /// Scenario text.
    pub body: Arc<Vec<u8>>,
    /// Whether it repeats an earlier body (a cache hit by design).
    pub repeat: bool,
}

/// The seeded request stream.
pub struct Mix {
    rng: Rng,
    /// The newest `REPEAT_WINDOW` distinct requests.
    distinct: VecDeque<(&'static str, Arc<Vec<u8>>)>,
}

/// Repeats pick among the last `REPEAT_WINDOW` distinct requests, but
/// not the newest `REPEAT_SKIP`, which may still be in flight.
const REPEAT_WINDOW: usize = 128;
const REPEAT_SKIP: usize = 32;

impl Mix {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Mix {
        Mix {
            rng: Rng(seed ^ 0x5eed_ca1c_0000_0000),
            distinct: VecDeque::new(),
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> MixRequest {
        let roll = self.rng.below(100);
        let n = self.distinct.len();
        if roll >= 90 && n > REPEAT_SKIP {
            let pick = self.rng.below((n - REPEAT_SKIP) as u64) as usize;
            let (path, body) = self.distinct[pick].clone();
            return MixRequest {
                path,
                body,
                repeat: true,
            };
        }
        let path = match roll % 90 {
            0..=69 => ENDPOINTS[0],
            70..=79 => ENDPOINTS[1],
            _ => ENDPOINTS[2],
        };
        let mix = MachineMix {
            apps: 4 + self.rng.below(13) as usize,
            seed: self.rng.next_u64(),
            ..MachineMix::default()
        };
        let strategy = STRATEGIES[self.rng.below(STRATEGIES.len() as u64) as usize];
        let body = Arc::new(mix.scenario(strategy).to_text().into_bytes());
        if self.distinct.len() == REPEAT_WINDOW {
            self.distinct.pop_front();
        }
        self.distinct.push_back((path, Arc::clone(&body)));
        MixRequest {
            path,
            body,
            repeat: false,
        }
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<MixRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// A request-log sink the benchmark owns: keeps every record while
/// enabled, drops them otherwise.
#[derive(Default)]
struct Recorder {
    enabled: AtomicBool,
    records: Mutex<Vec<RequestRecord>>,
}

struct SharedLog(Arc<Recorder>);

impl RequestLog for SharedLog {
    fn record(&self, record: &RequestRecord) {
        if self.0.enabled.load(Ordering::Relaxed) {
            self.0
                .records
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(record.clone());
        }
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        // One connection carries a whole phase; the default per-connection
        // cap would close it mid-phase.
        max_requests_per_conn: 0,
        ..ServeConfig::default()
    }
}

/// What one run does. The untraced run is closed-loop bursts for the
/// whole budget; the traced run has four bursts, then light-rate
/// segments, the heavy rate, the ladder and the traced phase. The
/// request stream is fixed by the seed; how far a run gets into it
/// depends on how fast the host is.
struct Plan {
    /// Closed-loop bursts to run at least.
    bursts: usize,
    /// Keep running bursts until this many seconds have passed.
    burst_seconds: f64,
    segments: usize,
    trace: bool,
}

impl Plan {
    fn new(seconds: f64, trace: bool) -> Plan {
        // The traced run spends most of its budget on the open-loop
        // phases.
        if trace {
            Plan {
                bursts: 4,
                burst_seconds: 0.0,
                segments: ((seconds / 3.0).round() as usize).max(4),
                trace,
            }
        } else {
            Plan {
                bursts: 4,
                burst_seconds: seconds,
                segments: 0,
                trace,
            }
        }
    }
}

/// Requests generated during set-up: the warm-up and the first bursts.
/// The rest of the stream is generated as the run goes, untimed.
const SETUP_REQUESTS: usize = WARMUP + 4 * BURST;

/// The run's request stream: what set-up generated, then the rest of
/// the seeded mix.
struct Stream {
    ready: VecDeque<MixRequest>,
    mix: Mix,
}

impl Stream {
    fn take(&mut self, n: usize) -> Vec<MixRequest> {
        let from_ready = n.min(self.ready.len());
        let mut out: Vec<MixRequest> = self.ready.drain(..from_ready).collect();
        out.extend(self.mix.take(n - from_ready));
        out
    }
}

/// The timed set-up: generate the first requests of the run and boot
/// the server. Repeated between the bursts, so `setup_s` (the median)
/// sees the same host conditions as `run_s`.
struct Setup {
    seed: u64,
    /// Wall seconds per repetition.
    times: Vec<f64>,
    /// Process CPU seconds per repetition.
    cpu: Vec<f64>,
}

impl Setup {
    fn run(&mut self, log: Box<dyn RequestLog>) -> std::io::Result<(Stream, ServerHandle)> {
        let started = Instant::now();
        let cpu0 = process_cpu_time();
        let mut mix = Mix::new(self.seed);
        let ready = mix.take(SETUP_REQUESTS).into();
        let server = serve::start(config(), log)?;
        self.times.push(started.elapsed().as_secs_f64());
        self.cpu
            .push(process_cpu_time().saturating_sub(cpu0).as_secs_f64());
        Ok((Stream { ready, mix }, server))
    }

    /// One more timed repetition, discarded.
    fn repeat(&mut self) -> std::io::Result<()> {
        let (_, server) = self.run(Box::new(SharedLog(Arc::default())))?;
        server.shutdown();
        Ok(())
    }
}

fn latencies(exchanges: &[Exchange]) -> Vec<f64> {
    exchanges.iter().map(Exchange::latency_ms).collect()
}

fn pct(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p).unwrap_or(0.0)
}

/// Checks one phase, untimed: every reply must be a 200 byte-identical
/// to what the in-process `service` answers to the same request. Runs
/// on two threads.
fn verify(service: &Service, requests: &[MixRequest], exchanges: &[Exchange], report: &mut Report) {
    let pairs: Vec<(&MixRequest, &Exchange)> = requests.iter().zip(exchanges).collect();
    let half = pairs.len().div_ceil(2).max(1);
    let bad: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = pairs
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .filter(|(request, exchange)| {
                            let expected = service.handle(&Request {
                                method: "POST".to_string(),
                                path: request.path.to_string(),
                                query: String::new(),
                                headers: BTreeMap::new(),
                                body: request.body.to_vec(),
                            });
                            let served = exchange.reply.as_ref().map(|r| &r.body);
                            !(exchange.ok()
                                && expected.status == 200
                                && served == Some(&expected.body))
                        })
                        .count()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(half)).sum()
    });
    report.attempted += pairs.len() as u64;
    report.failed += bad as u64;
    if bad > 0 {
        report.fail(format!(
            "{bad} of {} responses were not a 200 byte-identical to the in-process service",
            pairs.len()
        ));
    }
}

/// Per-request timings of the in-process replay of one body.
struct Replayed {
    parse_us: f64,
    simulate_us: f64,
    serialize_us: f64,
    visits: u64,
    visit_s: f64,
    transport_s: f64,
    messages: u64,
    events: u64,
    transfers: u64,
    body: Vec<u8>,
}

/// Replays one request in-process, layer by layer: codec parse, session
/// build + execution under the endpoint's observer (over a timed
/// transport), and rendering.
fn replay(request: &MixRequest) -> Option<Replayed> {
    let text = std::str::from_utf8(&request.body).ok()?;
    let t = Instant::now();
    let scenario = Scenario::from_text(text).ok()?;
    let parse_us = t.elapsed().as_secs_f64() * 1e6;

    fn simulate<O: SimObserver>(
        scenario: &Scenario,
        observer: O,
    ) -> Option<(
        calciom::SessionReport,
        Counting<O>,
        Timed<LocalTransport>,
        f64,
    )> {
        let t = Instant::now();
        let session = Session::<Timed<LocalTransport>>::with_transport(scenario).ok()?;
        let handle = session.transport().clone();
        let mut counter = Counting::new(observer);
        let report = session.execute_with(&mut counter).ok()?;
        Some((report, counter, handle, t.elapsed().as_secs_f64() * 1e6))
    }

    let (body, simulate_us, serialize_us, counts) = match request.path {
        "/v1/timeline" => {
            let (report, counter, handle, sim_us) = simulate(&scenario, TimelineAggregator::new())?;
            let counts = (
                report.coordination_messages,
                counter.events,
                counter.transfers,
                handle,
            );
            let t = Instant::now();
            let body = timeline_json(&counter.inner.finish()).into_bytes();
            (body, sim_us, t.elapsed().as_secs_f64() * 1e6, counts)
        }
        "/v1/trace" => {
            let recorder = TraceRecorder::for_scenario(&scenario);
            let (report, counter, handle, sim_us) = simulate(&scenario, recorder)?;
            let counts = (
                report.coordination_messages,
                counter.events,
                counter.transfers,
                handle,
            );
            let t = Instant::now();
            let body = counter.inner.into_trace().to_text().into_bytes();
            (body, sim_us, t.elapsed().as_secs_f64() * 1e6, counts)
        }
        _ => {
            let (report, counter, handle, sim_us) = simulate(&scenario, NullObserver)?;
            let counts = (
                report.coordination_messages,
                counter.events,
                counter.transfers,
                handle,
            );
            let t = Instant::now();
            let body = report_json(&report).into_bytes();
            (body, sim_us, t.elapsed().as_secs_f64() * 1e6, counts)
        }
    };
    let (messages, events, transfers, handle) = counts;
    let clocks = handle.clocks();
    Some(Replayed {
        parse_us,
        simulate_us,
        serialize_us,
        visits: clocks.visits.calls(),
        visit_s: clocks.visits.busy().as_secs_f64(),
        transport_s: clocks.busy().as_secs_f64(),
        messages,
        events,
        transfers,
        body,
    })
}

/// Runs the serve workload for about `seconds` and fills `report`.
pub fn bench(seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let plan = Plan::new(seconds, trace);
    let mut reference = Reference::new();
    reference.probe();
    let log: Arc<Recorder> = Arc::default();

    let mut setup = Setup {
        seed,
        times: Vec::new(),
        cpu: Vec::new(),
    };
    let (mut stream, server) = match setup.run(Box::new(SharedLog(Arc::clone(&log)))) {
        Ok(booted) => booted,
        Err(e) => {
            report.attempted += 1;
            report.failed += 1;
            report.fail(format!("server failed to start: {e}"));
            return;
        }
    };
    let addr = server.addr();
    report.meta("front_end", server.mode().label());
    report.meta("workers", WORKERS);
    report.meta("connections", CONNS);
    report.meta("cache_cap", server.service().config().cache_cap);
    report.meta("light_rps", LIGHT_RPS);
    report.meta("heavy_rps", HEAVY_RPS);
    report.meta("ladder_rps", LADDER.map(|r| r.to_string()).join(","));
    report.meta("rung_requests", RUNG);
    report.meta("limit_ms", LIMIT_MS);

    let result = drive(
        addr,
        &mut stream,
        &plan,
        &mut setup,
        &mut reference,
        &log,
        report,
    );
    server.shutdown();
    if let Err(e) = result {
        report.attempted += 1;
        report.failed += 1;
        report.fail(format!("load generator failed: {e}"));
    }
}

fn drive(
    addr: SocketAddr,
    stream: &mut Stream,
    plan: &Plan,
    setup: &mut Setup,
    reference: &mut Reference,
    log: &Arc<Recorder>,
    report: &mut Report,
) -> std::io::Result<()> {
    let checker = Service::new(config(), Box::new(SharedLog(Arc::default())));
    let wires = |reqs: &[MixRequest]| -> Vec<Vec<u8>> {
        reqs.iter()
            .map(|r| post_wire(addr, r.path, &r.body))
            .collect()
    };
    let burst = |reqs: &[MixRequest]| {
        exchange_all(addr, &wires(reqs), CONNS, Pacing::Window(WINDOW), DRAIN)
    };
    let open = |reqs: &[MixRequest], rate: f64| open_loop(addr, &wires(reqs), rate, CONNS, DRAIN);

    let warm = stream.take(WARMUP);
    let (exchanges, _) = burst(&warm)?;
    verify(&checker, &warm, &exchanges, report);

    // Closed-loop bursts of distinct requests, each checked right after
    // it ran, with set-up repetitions spread among them.
    let mut burst_s = Vec::new();
    let mut burst_cpu = Vec::new();
    // Each burst's CPU time scaled by the host speed around it.
    let mut burst_scaled = Vec::new();
    let started = Instant::now();
    while burst_s.len() < plan.bursts || started.elapsed().as_secs_f64() < plan.burst_seconds {
        let reqs = stream.take(BURST);
        let cpu0 = process_cpu_time();
        let gen0 = thread_cpu_time();
        let (exchanges, wall) = burst(&reqs)?;
        // The server's threads only: the generator (this thread) is
        // the benchmark's own cost.
        let generator = thread_cpu_time().saturating_sub(gen0).as_secs_f64();
        let all = process_cpu_time().saturating_sub(cpu0).as_secs_f64();
        burst_cpu.push(all - generator);
        if !plan.trace {
            burst_scaled.push(Reference::scaled(all - generator, reference.bracket()));
        }
        burst_s.push(wall.as_secs_f64());
        verify(&checker, &reqs, &exchanges, report);
        if !plan.trace {
            setup.repeat()?;
        }
    }
    report.meta("bursts", burst_s.len());
    report.meta("burst_requests", BURST);
    report.meta("burst_window", WINDOW);
    if !plan.trace {
        let mut e2e = MetricSet::new(END_TO_END);
        let setup_cpu = median(&setup.cpu).unwrap_or(0.0);
        report.meta("setup_wall_s", median(&setup.times).unwrap_or(0.0));
        report.meta("setup_cpu_s", setup_cpu);
        report.meta("run_wall_s", median(&burst_s).unwrap_or(0.0));
        report.meta("run_cpu_s", median(&burst_cpu).unwrap_or(0.0));
        report.meta("probe_ms", reference.typical() * 1e3);
        e2e.set("setup_s", Reference::scaled(setup_cpu, reference.typical()));
        e2e.set("run_s", median(&burst_scaled).unwrap_or(0.0));
        e2e.set("peak_rss_mb", peak_rss_mb() - Reference::table_mb());
        e2e.emit(report);
        return Ok(());
    }

    // Open loop at the light rate, in one-second segments (untraced).
    let mut segment_p50 = Vec::new();
    let mut light_lat = Vec::new();
    let mut light_lag = Vec::new();
    for _ in 0..plan.segments {
        let light = stream.take(SEGMENT);
        let exchanges = open(&light, LIGHT_RPS)?;
        let lat = latencies(&exchanges);
        segment_p50.push(pct(&lat, 50.0));
        light_lat.extend(lat);
        light_lag.extend(exchanges.iter().map(Exchange::lag_ms));
        verify(&checker, &light, &exchanges, report);
    }
    let light_p50 = median(&segment_p50).unwrap_or(f64::INFINITY);
    if !Summary::of(&light_lat).is_some_and(|s| s.supported(99.0)) {
        report.fail("light-rate sample too small to support its p99");
    }
    let light_lag = pct(&light_lag, 99.0);
    report.meta("light_samples", light_lat.len());

    let mut layers = MetricSet::new(PER_LAYER);
    layers.set("p50_ms.light", light_p50);
    layers.set("p99_ms.light", pct(&light_lat, 99.0));

    // Heavy rate and the ladder (untraced).
    let heavy = stream.take(HEAVY);
    let exchanges = open(&heavy, HEAVY_RPS)?;
    let heavy_lat = latencies(&exchanges);
    layers.set("p50_ms.heavy", pct(&heavy_lat, 50.0));
    layers.set("p99_ms.heavy", pct(&heavy_lat, 99.0));
    let heavy_lag = pct(
        &exchanges.iter().map(Exchange::lag_ms).collect::<Vec<_>>(),
        99.0,
    );
    layers.set("gen.lag_ms.p99", light_lag.max(heavy_lag));
    verify(&checker, &heavy, &exchanges, report);

    let mut verdicts = Vec::new();
    for rate in LADDER {
        let rung = stream.take(RUNG);
        let exchanges = open(&rung, rate)?;
        let verdict = loadgen::rung_verdict(rate, &exchanges, 99.0, LIMIT_MS);
        report.meta(
            &format!("rung_{rate}"),
            format!(
                "p99_ms={:.3} failed={} backlog_growing={} passes={}",
                verdict.tail_ms, verdict.failed, verdict.backlog_growing, verdict.passes
            ),
        );
        verdicts.push(verdict);
        verify(&checker, &rung, &exchanges, report);
        if !verdict.passes {
            break;
        }
    }
    layers.set("max_rps", loadgen::max_rps(&verdicts));

    // The traced pass: the light rate again with the request log on.
    let traced = stream.take(TRACED);
    log.enabled.store(true, Ordering::Relaxed);
    let exchanges = open(&traced, LIGHT_RPS)?;
    log.enabled.store(false, Ordering::Relaxed);
    let records = std::mem::take(&mut *log.records.lock().unwrap_or_else(|p| p.into_inner()));
    server_side(&traced, &exchanges, &records, &mut layers);
    let traced_p50 = pct(&latencies(&exchanges), 50.0);
    layers.set("trace.overhead_frac", traced_p50 / light_p50 - 1.0);
    in_process(&traced, &exchanges, &mut layers, report);
    verify(&checker, &traced, &exchanges, report);

    layers.set(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    layers.emit(report);
    Ok(())
}

/// Splits the traced phase's client latency into server time (the
/// request log's `wall`) and front-end time (the rest), and reports the
/// cache figures.
fn server_side(
    requests: &[MixRequest],
    exchanges: &[Exchange],
    records: &[RequestRecord],
    layers: &mut MetricSet,
) {
    let mut walls: BTreeMap<(String, u64), VecDeque<Duration>> = BTreeMap::new();
    for r in records {
        if let Some(hash) = r.scenario_hash {
            walls
                .entry((r.path.clone(), hash))
                .or_default()
                .push_back(r.wall);
        }
    }
    let handle_ms: Vec<f64> = records.iter().map(|r| ms(r.wall)).collect();
    layers.set("service.handle_ms.p50", pct(&handle_ms, 50.0));
    layers.set("service.handle_ms.p99", pct(&handle_ms, 99.0));
    let mut frontend = Vec::new();
    let mut hit_ms = Vec::new();
    for (request, ex) in requests.iter().zip(exchanges) {
        let (Some(sent), Some(received)) = (ex.sent, ex.received) else {
            continue;
        };
        let key = (request.path.to_string(), fnv64(&request.body));
        if let Some(wall) = walls.get_mut(&key).and_then(VecDeque::pop_front) {
            frontend.push(ms(received.saturating_duration_since(sent)) - ms(wall));
        }
        if ex.reply.as_ref().is_some_and(|r| r.cache_hit) {
            hit_ms.push(ex.latency_ms());
        }
    }
    layers.set("frontend_ms.p50", pct(&frontend, 50.0));
    layers.set("frontend_ms.p99", pct(&frontend, 99.0));
    let lookups = records.iter().filter(|r| r.cache.is_some()).count();
    let hits = records
        .iter()
        .filter(|r| r.cache == Some(CacheOutcome::Hit))
        .count();
    layers.set("cache.lookups", lookups as f64);
    layers.set("cache.hit_ratio", hits as f64 / lookups.max(1) as f64);
    layers.set("cache.hit_ms.p50", pct(&hit_ms, 50.0));
}

/// Replays the traced phase's distinct bodies in-process and reports the
/// codec, session and rendering split; a rendering that differs from
/// the body the server sent fails the run.
fn in_process(
    requests: &[MixRequest],
    exchanges: &[Exchange],
    layers: &mut MetricSet,
    report: &mut Report,
) {
    let mut parse = Vec::new();
    let mut serialize = Vec::new();
    let mut simulate: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut visits, mut visit_s, mut transport_s, mut messages) = (0, 0.0, 0.0, 0);
    let (mut events, mut transfers, mut sim_s) = (0, 0, 0.0);
    let mut mismatched = 0;
    for (request, ex) in requests.iter().zip(exchanges) {
        if request.repeat {
            continue;
        }
        let Some(r) = replay(request) else {
            mismatched += 1;
            continue;
        };
        if ex.reply.as_ref().map(|reply| &reply.body) != Some(&r.body) {
            mismatched += 1;
        }
        parse.push(r.parse_us);
        serialize.push(r.serialize_us);
        simulate
            .entry(request.path)
            .or_default()
            .push(r.simulate_us);
        visits += r.visits;
        visit_s += r.visit_s;
        transport_s += r.transport_s;
        messages += r.messages;
        events += r.events;
        transfers += r.transfers;
        sim_s += r.simulate_us / 1e6;
    }
    report.attempted += (parse.len() + mismatched) as u64;
    report.failed += mismatched as u64;
    if mismatched > 0 {
        report.fail(format!(
            "{mismatched} in-process traced renderings differ from the served body"
        ));
    }
    layers.set("codec.parse_us", median(&parse).unwrap_or(0.0));
    layers.set("json.serialize_us", median(&serialize).unwrap_or(0.0));
    for (path, name) in [
        ("/v1/run", "simulate_us.run"),
        ("/v1/timeline", "simulate_us.timeline"),
        ("/v1/trace", "simulate_us.trace"),
    ] {
        let xs = simulate.get(path).map_or(&[][..], Vec::as_slice);
        layers.set(name, median(xs).unwrap_or(0.0));
    }
    let engine_s = sim_s - transport_s;
    layers.set("arbiter.calls", visits as f64);
    layers.set("arbiter.busy_s", visit_s);
    layers.set("arbiter.ns_per_call", visit_s * 1e9 / visits.max(1) as f64);
    layers.set("arbiter.messages", messages as f64);
    layers.set("arbiter.share", visit_s / sim_s);
    layers.set("engine.busy_s", engine_s);
    layers.set("engine.events", events as f64);
    layers.set("engine.transfers", transfers as f64);
    layers.set(
        "engine.ns_per_transfer",
        engine_s * 1e9 / transfers.max(1) as f64,
    );
    layers.set("engine.share", engine_s / sim_s);
}
