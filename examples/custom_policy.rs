//! Plugs a hand-written [`ArbitrationPolicy`] into the arbitration layer
//! and compares it against registry policies on one contended scenario.
//!
//! The policy — "small jobs overlap, big jobs serialize" — is the kind of
//! site-specific rule the paper's closed strategy set could not express:
//! an arriving application with few processes is admitted concurrently
//! (its request streams barely disturb the servers), while large
//! applications queue FCFS behind whoever holds the file system.
//!
//! Run with `cargo run --release --example custom_policy`.

use calciom::arbitration::{ArbiterView, ArbitrationPolicy, PolicySpec, RequestDecision};
use calciom::{
    AccessPattern, AppConfig, AppId, Arbiter, CoordinationTransport, Coordinator, LocalTransport,
    PfsConfig, Scenario,
};

/// Applications at or below this size overlap freely.
const SMALL_PROCS: u32 = 64;

/// The custom rule: ≤ 64-process jobs are admitted concurrently, larger
/// jobs wait their turn. Everything else (queue order, interruption
/// handling, delay timeouts) keeps the paper-faithful defaults.
#[derive(Debug, Clone)]
struct SmallJobsOverlap;

impl ArbitrationPolicy for SmallJobsOverlap {
    fn spec(&self) -> PolicySpec {
        PolicySpec::with_arg("small-jobs-overlap", format!("procs<={SMALL_PROCS}"))
    }

    fn on_request(&mut self, app: AppId, view: &ArbiterView<'_>) -> RequestDecision {
        match view.info_for(app) {
            Some(info) if info.procs <= SMALL_PROCS => RequestDecision::Admit,
            _ => RequestDecision::Queue,
        }
    }

    fn clone_policy(&self) -> Box<dyn ArbitrationPolicy> {
        Box::new(self.clone())
    }
}

fn main() {
    // Drive the custom policy through the raw protocol: a big accessor, a
    // small newcomer (admitted alongside) and a big newcomer (queued).
    let pfs = PfsConfig::grid5000_rennes();
    let transport = LocalTransport::new(Arbiter::with_policy(Box::new(SmallJobsOverlap)));
    println!("policy: {}", transport.with(|arb| arb.policy_label()));

    // Strided patterns give the big writers collective-buffering rounds —
    // i.e. coordination points where time-sliced or preempting policies
    // can act; the small job arrives *last*, so queue-ordering policies
    // visibly differ on it.
    let scenario = Scenario::builder(pfs.clone())
        .app(AppConfig::new(
            AppId(0),
            "big-A",
            720,
            AccessPattern::strided(2.0e6, 8),
        ))
        .app(
            AppConfig::new(AppId(1), "big-B", 512, AccessPattern::strided(2.0e6, 8))
                .starting_at_secs(1.0),
        )
        .app(
            AppConfig::new(AppId(2), "small", 48, AccessPattern::contiguous(4.0e6))
                .starting_at_secs(3.0),
        )
        .build()
        .unwrap();

    let mut coordinators: Vec<Coordinator> = scenario
        .apps
        .iter()
        .map(|app| Coordinator::new(app.id, transport.clone()))
        .collect();
    for (coordinator, app) in coordinators.iter_mut().zip(&scenario.apps) {
        coordinator.prepare(calciom::IoInfo::at_phase_start(
            app,
            &scenario.pfs,
            scenario.granularity,
        ));
        let outcome = coordinator.inform();
        println!("{}: Inform() -> {:?}", app.name, outcome);
    }
    assert!(coordinators[0].check(), "first arrival always granted");
    assert!(!coordinators[1].check(), "big-B queues behind big-A");
    assert!(coordinators[2].check(), "small job overlaps the accessor");
    // The queue drains once the file system is free: both accessors
    // release, then big-B gets the slot.
    coordinators[2].release();
    coordinators[0].release();
    assert!(
        coordinators[1].check(),
        "big-B granted once the system frees"
    );
    coordinators[1].release();
    println!("big-B granted after the accessors released; small overlapped throughout");

    // The same contention, simulated end to end under registry policies:
    // fcfs serializes the late small job behind both big writers, srpf
    // lets it jump the queue, and a round-robin quantum time-slices the
    // big writers against each other.
    println!();
    for name in ["fcfs", "srpf", "rr(2s)"] {
        let mut s = scenario.clone();
        s.arbitration = PolicySpec::from_text(name).unwrap();
        let report = s.run().unwrap();
        let small = report.app(AppId(2)).unwrap().first_phase().io_time();
        println!(
            "{:<8} small-job write time {:>6.2} s (makespan {})",
            report.policy.to_text(),
            small,
            report.makespan
        );
    }
}
