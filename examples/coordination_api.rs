//! Drives the CALCioM coordination protocol directly through the
//! application-facing API of Section III-C (Prepare / Inform / Check /
//! Wait / Release), without the simulation driver — the way an I/O library
//! or a custom middleware would embed it.
//!
//! The coordinators talk to the shared arbiter through a
//! `CoordinationTransport`. This example uses the thread-safe
//! `SharedTransport`; swap in `LocalTransport` for a single-threaded
//! embedding with identical behaviour.
//!
//! Run with `cargo run --release --example coordination_api`.

use calciom::api::{CoordinationTransport, Coordinator, SharedTransport};
use calciom::{
    AccessOutcome, Arbiter, DynamicPolicy, EfficiencyMetric, Granularity, IoInfo, PolicyRegistry,
    Strategy, YieldOutcome,
};
use pfs::AppId;

fn info(app: AppId, procs: u32, total_secs: f64, remaining_secs: f64) -> IoInfo {
    IoInfo {
        app,
        procs,
        files_total: 4,
        rounds_total: 64,
        bytes_total: 32.0e9,
        bytes_remaining: 32.0e9 * remaining_secs / total_secs,
        est_alone_total_secs: total_secs,
        est_alone_remaining_secs: remaining_secs,
        pfs_share: 1.0,
        granularity: Granularity::Round,
    }
}

fn main() {
    // The shared coordination state: the paper's dynamic policy, resolved
    // from its spec by the standard registry, minimizing the
    // CPU·seconds-wasted metric. SharedTransport is Send + Sync, so these
    // coordinators could live on different threads.
    let policy = PolicyRegistry::standard()
        .build(
            &Strategy::Dynamic.spec(),
            &DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
        .expect("a standard policy");
    let transport = SharedTransport::new(Arbiter::with_policy(policy));
    let mut app_a = Coordinator::new(AppId(0), transport.clone());
    let mut app_b = Coordinator::new(AppId(1), transport);

    // Application A (2048 cores, 28 s of I/O ahead) starts its phase.
    app_a.prepare(info(AppId(0), 2048, 28.0, 28.0));
    assert_eq!(app_a.inform(), AccessOutcome::Granted);
    println!("A: Inform() -> granted, starts writing");

    // Application B (2048 cores, 7 s of I/O) arrives while A is writing.
    app_b.prepare(info(AppId(1), 2048, 7.0, 7.0));
    let outcome = app_b.inform();
    println!("B: Inform() -> {outcome:?} (decision pending at A's next coordination point)");
    // The pending-grant invariant: a refused request is queued, not lost.
    assert!(!app_b.wait() && app_b.pending());

    // A reaches its next ADIO-level coordination point with 21 s of work
    // left; interrupting it costs 2048×7 CPU·s, making B wait costs
    // 2048×21 — so A is asked to yield.
    let decision = app_a.yield_point(Some(info(AppId(0), 2048, 28.0, 21.0)));
    println!("A: Release()/Inform()/Check() -> {decision:?}");
    assert_eq!(decision, YieldOutcome::YieldNow);
    assert!(app_b.check(), "B is now authorized");
    println!("B: Check() -> authorized, writes its data");

    // B finishes and releases; A resumes.
    app_b.release();
    assert!(app_a.check());
    println!("B: Release(); A: Check() -> authorized again, resumes its remaining 21 s");
    app_a.release();
    println!("A: Release() at the end of its phase — protocol complete");
}
