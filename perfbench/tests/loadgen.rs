//! The open-loop generator, the percentile helper and the `max_rps`
//! ladder.

use calciom_perfbench::loadgen::{
    backlog_growing, max_rps, open_loop, post_wire, rung_verdict, Exchange, Reply,
};
use calciom_perfbench::stats::Summary;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::thread;
use std::time::{Duration, Instant};

/// A one-connection HTTP server that answers requests in order, sleeping
/// `stall` before answering request `stall_at`.
fn stalling_server(stall_at: usize, stall: Duration) -> (SocketAddr, thread::JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        let mut served = 0;
        loop {
            // Serve every complete request buffered so far.
            while let Some(head) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let text = String::from_utf8_lossy(&buf[..head]).to_string();
                let length: usize = text
                    .lines()
                    .find_map(|l| l.strip_prefix("content-length: "))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0);
                if buf.len() < head + 4 + length {
                    break;
                }
                buf.drain(..head + 4 + length);
                if served == stall_at {
                    thread::sleep(stall);
                }
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
                    .expect("reply");
                served += 1;
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return served,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        }
    });
    (addr, handle)
}

#[test]
fn a_stall_is_charged_to_the_requests_queued_behind_it() {
    let stall = Duration::from_millis(80);
    let (addr, server) = stalling_server(2, stall);
    // Ten requests, one every 2 ms, on one connection.
    let wires: Vec<Vec<u8>> = (0..10).map(|_| post_wire(addr, "/x", b"body")).collect();
    let exchanges = open_loop(addr, &wires, 500.0, 1, Duration::from_secs(5)).expect("run");
    assert_eq!(server.join().expect("server"), 10);

    assert!(exchanges.iter().all(Exchange::ok));
    for (i, ex) in exchanges.iter().enumerate() {
        // Open loop: every request went out on schedule, stall or not.
        assert!(
            ex.lag_ms() < 40.0,
            "request {i} sent {} ms late",
            ex.lag_ms()
        );
    }
    assert!(exchanges[0].latency_ms() < 40.0);
    // Request 2 waits the whole stall; request k > 2 was due 2(k-2) ms
    // later and still waits for the rest of it.
    let stall_ms = stall.as_secs_f64() * 1e3;
    for (k, ex) in exchanges.iter().enumerate().skip(2) {
        let owed = stall_ms - 2.0 * (k - 2) as f64;
        assert!(
            ex.latency_ms() >= owed - 5.0,
            "request {k}: latency {} ms, owed {owed} ms",
            ex.latency_ms()
        );
    }
}

#[test]
fn latency_counts_from_the_due_time_not_the_send_time() {
    let due = Instant::now();
    let ex = Exchange {
        due: Some(due),
        sent: Some(due + Duration::from_millis(50)),
        received: Some(due + Duration::from_millis(51)),
        outstanding: 0,
        reply: Some(Reply {
            status: 200,
            cache_hit: false,
            body: Vec::new(),
        }),
    };
    assert!((ex.latency_ms() - 51.0).abs() < 1e-9);
    assert!((ex.lag_ms() - 50.0).abs() < 1e-9);
}

#[test]
fn percentile_helper_reports_median_supported_tail_and_count() {
    let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let s = Summary::of(&xs).expect("non-empty");
    assert_eq!(s.count, 1000);
    assert_eq!(s.p50, 500.0);
    // p99.9 has one sample above it; p99 has exactly ten.
    assert_eq!(s.tail, Some((99.0, 990.0)));
    assert!(s.supported(99.0) && !s.supported(99.9));

    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(
        Summary::of(&hundred).expect("non-empty").tail,
        Some((90.0, 90.0))
    );

    let few = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
    assert_eq!((few.count, few.p50, few.tail), (3, 2.0, None));
    assert_eq!(Summary::of(&[]), None);
}

/// `n` exchanges due 1 ms apart, each answered `latency_ms` after it
/// was due with `status`, joining a backlog of `outstanding(i)`.
fn rung(
    n: usize,
    latency_ms: u64,
    status: u16,
    outstanding: impl Fn(usize) -> usize,
) -> Vec<Exchange> {
    let start = Instant::now();
    (0..n)
        .map(|i| {
            let due = start + Duration::from_millis(i as u64);
            Exchange {
                due: Some(due),
                sent: Some(due),
                received: Some(due + Duration::from_millis(latency_ms)),
                outstanding: outstanding(i),
                reply: Some(Reply {
                    status,
                    cache_hit: false,
                    body: Vec::new(),
                }),
            }
        })
        .collect()
}

#[test]
fn ladder_treats_refusals_and_growing_backlog_as_over_the_limit() {
    let good = rung_verdict(300.0, &rung(1000, 2, 200, |_| 1), 99.0, 10.0);
    assert!(good.passes);

    let slow = rung_verdict(600.0, &rung(1000, 12, 200, |_| 1), 99.0, 10.0);
    assert!(!slow.passes && slow.tail_ms >= 12.0);

    // One refused request fails the rung even though it was fast.
    let mut refused = rung(1000, 2, 200, |_| 1);
    refused[500].reply.as_mut().expect("reply").status = 429;
    let verdict = rung_verdict(900.0, &refused, 99.0, 10.0);
    assert_eq!(verdict.failed, 1);
    assert!(!verdict.passes && verdict.tail_ms.is_finite());

    // A backlog that keeps growing fails the rung even with low latency.
    let growing = rung_verdict(1200.0, &rung(1000, 2, 200, |i| i / 50), 99.0, 10.0);
    assert!(growing.backlog_growing && !growing.passes);
    assert!(!backlog_growing(&[3, 2, 4, 3, 2, 3, 4, 3]));

    // Too few samples to support the p99: not a pass.
    assert!(!rung_verdict(300.0, &rung(500, 2, 200, |_| 1), 99.0, 10.0).passes);

    // max_rps: the highest passing rung below the first failure.
    let pass = |rate| rung_verdict(rate, &rung(1000, 2, 200, |_| 1), 99.0, 10.0);
    assert_eq!(
        max_rps(&[pass(300.0), pass(600.0), verdict, pass(1200.0)]),
        600.0
    );
    assert_eq!(max_rps(&[verdict]), 0.0);
}
