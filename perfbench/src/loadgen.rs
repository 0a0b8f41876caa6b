//! Load generation over keep-alive HTTP/1.1 connections.
//!
//! [`exchange_all`] drives every connection from a single thread with
//! `ppoll(2)`, under one of two disciplines. Open loop ([`open_loop`])
//! sends every request at its scheduled time whether or not earlier
//! replies have arrived (independent users); latency is measured from
//! the *due* time, so a stall anywhere — server, network or the
//! generator itself — is charged to every request queued behind it.
//! Closed loop ([`Pacing::Window`]) keeps a fixed number of requests in
//! flight per connection (callers that wait for replies).
//!
//! [`rung_verdict`] and [`max_rps`] turn open-loop runs at a ladder of
//! fixed rates into the highest rate that meets a latency limit.

use crate::stats::Summary;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Encodes one POST request.
pub fn post_wire(addr: SocketAddr, path: &str, body: &[u8]) -> Vec<u8> {
    let mut wire = format!(
        "POST {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// One reply as read off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Whether the server answered from its response cache (`x-cache: hit`).
    pub cache_hit: bool,
    /// The body.
    pub body: Vec<u8>,
}

/// Incremental parser of `Content-Length`-framed responses.
#[derive(Debug, Default)]
struct ReplyParser {
    buf: Vec<u8>,
    start: usize,
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed reply: {what}"),
    )
}

impl ReplyParser {
    fn feed(&mut self, bytes: &[u8]) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    fn next(&mut self) -> io::Result<Option<Reply>> {
        let pending = &self.buf[self.start..];
        let Some(head_len) = pending.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&pending[..head_len]).map_err(|_| malformed("head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| malformed("status line"))?;
        let mut length = None;
        let mut cache_hit = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                return Err(malformed("header"));
            };
            let value = value.trim();
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "x-cache" => cache_hit = value == "hit",
                "transfer-encoding" => return Err(malformed("chunked body")),
                _ => {}
            }
        }
        let length = length.ok_or_else(|| malformed("no content-length"))?;
        let body_start = head_len + 4;
        if pending.len() < body_start + length {
            return Ok(None);
        }
        let body = pending[body_start..body_start + length].to_vec();
        self.start += body_start + length;
        Ok(Some(Reply {
            status,
            cache_hit,
            body,
        }))
    }
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Exchange {
    /// When it was due.
    pub due: Option<Instant>,
    /// When the generator wrote it.
    pub sent: Option<Instant>,
    /// When its reply had been read.
    pub received: Option<Instant>,
    /// Requests in flight when it was sent (the backlog it joined).
    pub outstanding: usize,
    /// The reply, `None` if the connection failed first.
    pub reply: Option<Reply>,
}

impl Exchange {
    /// Whether it got a 200.
    pub fn ok(&self) -> bool {
        self.reply.as_ref().is_some_and(|r| r.status == 200)
    }

    /// Latency from the due time (or from sending, for closed-loop
    /// exchanges, which have no schedule) in ms; infinite when the
    /// request failed or was refused, so it misses any limit.
    pub fn latency_ms(&self) -> f64 {
        match (self.due.or(self.sent), self.received) {
            (Some(from), Some(to)) if self.ok() => ms(to.saturating_duration_since(from)),
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent it, in ms.
    pub fn lag_ms(&self) -> f64 {
        match (self.due, self.sent) {
            (Some(due), Some(sent)) => ms(sent.saturating_duration_since(due)),
            _ => 0.0,
        }
    }
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// `ppoll(2)`: nanosecond timeouts on high-resolution timers, so the
/// generator wakes on schedule rather than on the next scheduler tick.
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_long, c_ulong, c_void};
    use std::time::Duration;

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: c_long,
    }

    pub const POLLIN: i16 = 0x1;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Waits until a descriptor is readable or `timeout` passes; returns
    /// the number of ready descriptors (0 on timeout or signal).
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `fds.len()` initialized `PollFd`s with the kernel's
        // `struct pollfd` layout; `ts` outlives the call; a null sigmask
        // leaves the signal mask unchanged.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            return if err.kind() == io::ErrorKind::Interrupted {
                Ok(0)
            } else {
                Err(err)
            };
        }
        Ok(n as usize)
    }
}

/// Head start between connecting and the first due time.
const LEAD: Duration = Duration::from_millis(5);

/// When requests go out.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Open loop: request `i` is due `i / rate` seconds after the start,
    /// whatever has been answered by then.
    Open {
        /// Requests per second.
        rate: f64,
    },
    /// Closed loop: each connection keeps up to `window` requests in
    /// flight and sends its next one as a reply frees a slot.
    Window(usize),
}

/// Sends every request in `wires` over `conns` fresh keep-alive
/// connections (request `i` on connection `i % conns`), paced by
/// `pacing`, from this one thread. Gives up once nothing has been sent
/// or received for `drain`. A connection that fails leaves its
/// unanswered requests without a reply. Returns the exchanges in input
/// order and the wall-clock from the start to the last reply.
pub fn exchange_all(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    conns: usize,
    pacing: Pacing,
    drain: Duration,
) -> io::Result<(Vec<Exchange>, Duration)> {
    let mut streams = (0..conns)
        .map(|_| connect(addr).map(Some))
        .collect::<io::Result<Vec<_>>>()?;
    let mut parsers: Vec<ReplyParser> = (0..conns).map(|_| ReplyParser::default()).collect();
    let mut pending: Vec<VecDeque<usize>> = (0..conns)
        .map(|c| (c..wires.len()).step_by(conns).collect())
        .collect();
    let mut inflight: Vec<VecDeque<usize>> = vec![VecDeque::new(); conns];
    let mut out = vec![Exchange::default(); wires.len()];
    let mut outstanding = 0usize;
    let mut unsent = wires.len();
    let mut chunk = vec![0u8; 64 * 1024];

    // Open loop gives the connections a head start before the first
    // due time; a closed loop starts sending at once.
    let origin = match pacing {
        Pacing::Open { .. } => Instant::now() + LEAD,
        Pacing::Window(_) => Instant::now(),
    };
    let due = |i: usize| match pacing {
        Pacing::Open { rate } => Some(origin + Duration::from_secs_f64(i as f64 / rate)),
        Pacing::Window(_) => None,
    };
    let mut last_reply = origin;
    let mut last_event = origin;
    loop {
        // Send whatever the pacing allows now: every open-loop request
        // that is due, or enough to refill each connection's window.
        let now = Instant::now();
        for c in 0..conns {
            while let Some(&i) = pending[c].front() {
                let ready = match pacing {
                    Pacing::Open { .. } => due(i).is_some_and(|d| d <= now),
                    Pacing::Window(window) => inflight[c].len() < window,
                };
                if !ready {
                    break;
                }
                pending[c].pop_front();
                unsent -= 1;
                out[i].due = due(i);
                let Some(stream) = &mut streams[c] else {
                    continue;
                };
                if stream.write_all(&wires[i]).is_ok() {
                    last_event = Instant::now();
                    out[i].sent = Some(last_event);
                    out[i].outstanding = outstanding;
                    inflight[c].push_back(i);
                    outstanding += 1;
                } else {
                    outstanding -= inflight[c].len();
                    inflight[c].clear();
                    streams[c] = None;
                }
            }
        }
        if unsent == 0 && outstanding == 0 {
            break;
        }
        let now = Instant::now();
        let next_due = pending
            .iter()
            .filter_map(|q| q.front().and_then(|&i| due(i)))
            .min();
        let stalled_at = last_event.max(origin) + drain;
        if next_due.is_none() && now >= stalled_at {
            break;
        }
        // Sleep until the next due time (open loop), or until a reply
        // can arrive.
        let wake = next_due.unwrap_or(stalled_at);
        let live: Vec<usize> = (0..conns).filter(|&c| streams[c].is_some()).collect();
        if live.is_empty() {
            // Nothing can be answered any more; requests not yet due are
            // failures either way.
            break;
        }
        let mut fds: Vec<sys::PollFd> = live
            .iter()
            .filter_map(|&c| streams[c].as_ref())
            .map(|s| sys::PollFd {
                fd: s.as_raw_fd(),
                events: sys::POLLIN,
                revents: 0,
            })
            .collect();
        if sys::wait(&mut fds, wake.saturating_duration_since(now))? == 0 {
            continue;
        }
        let received = Instant::now();
        for (&c, fd) in live.iter().zip(&fds) {
            if fd.revents == 0 {
                continue;
            }
            let Some(stream) = &mut streams[c] else {
                continue;
            };
            let broken = match stream.read(&mut chunk) {
                Ok(0) | Err(_) => true,
                Ok(n) => {
                    parsers[c].feed(&chunk[..n]);
                    loop {
                        match parsers[c].next() {
                            Ok(Some(reply)) => {
                                let Some(i) = inflight[c].pop_front() else {
                                    break true;
                                };
                                out[i].received = Some(received);
                                out[i].reply = Some(reply);
                                outstanding -= 1;
                                last_reply = received;
                                last_event = received;
                            }
                            Ok(None) => break false,
                            Err(_) => break true,
                        }
                    }
                }
            };
            if broken {
                outstanding -= inflight[c].len();
                inflight[c].clear();
                streams[c] = None;
            }
        }
    }
    Ok((out, last_reply.saturating_duration_since(origin)))
}

/// Open loop at `rate` requests per second; see [`exchange_all`].
pub fn open_loop(
    addr: SocketAddr,
    wires: &[Vec<u8>],
    rate: f64,
    conns: usize,
    drain: Duration,
) -> io::Result<Vec<Exchange>> {
    exchange_all(addr, wires, conns, Pacing::Open { rate }, drain).map(|(ex, _)| ex)
}

/// Verdict on one ladder rung.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungVerdict {
    /// Offered rate (requests per second).
    pub rate: f64,
    /// Latency percentile the limit applies to, in ms: infinite when
    /// the sample is too small to support it, or when failed requests,
    /// which count as infinitely slow, reach it.
    pub tail_ms: f64,
    /// Requests that failed or were refused.
    pub failed: usize,
    /// Whether the backlog grew over the rung.
    pub backlog_growing: bool,
    /// Whether the rung met the limit.
    pub passes: bool,
}

/// Whether the in-flight count seen by successive sends trends upward:
/// the last quarter's mean exceeds twice the first quarter's plus two
/// requests. A sustainable rate keeps the backlog flat.
pub fn backlog_growing(outstanding: &[usize]) -> bool {
    let q = outstanding.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len() as f64;
    mean(&outstanding[outstanding.len() - q..]) > 2.0 * mean(&outstanding[..q]) + 2.0
}

/// Judges one rung: it passes iff no request failed or was refused, the
/// `pct` latency percentile (from due time) is at most `limit_ms` and
/// supported by the sample, and the backlog did not grow.
pub fn rung_verdict(rate: f64, exchanges: &[Exchange], pct: f64, limit_ms: f64) -> RungVerdict {
    let latencies: Vec<f64> = exchanges.iter().map(Exchange::latency_ms).collect();
    let failed = exchanges.iter().filter(|e| !e.ok()).count();
    let outstanding: Vec<usize> = exchanges.iter().map(|e| e.outstanding).collect();
    let tail_ms = Summary::of(&latencies)
        .filter(|s| s.supported(pct))
        .and_then(|_| {
            let mut sorted = latencies.clone();
            sorted.sort_by(f64::total_cmp);
            crate::stats::percentile(&sorted, pct)
        })
        .unwrap_or(f64::INFINITY);
    let growing = backlog_growing(&outstanding);
    RungVerdict {
        rate,
        tail_ms,
        failed,
        backlog_growing: growing,
        passes: failed == 0 && !growing && tail_ms <= limit_ms,
    }
}

/// The highest rate of an ascending ladder that passes, counting only
/// rungs below the first failure; 0 when the first rung fails.
pub fn max_rps(rungs: &[RungVerdict]) -> f64 {
    rungs
        .iter()
        .take_while(|r| r.passes)
        .last()
        .map_or(0.0, |r| r.rate)
}
