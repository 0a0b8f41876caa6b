//! Cross-crate integration tests: the whole stack (workload model → MPI-IO
//! plans → parallel file system → CALCioM coordination) exercised through
//! the public API, checking the paper's headline claims end to end.

use calciom::{
    AccessPattern, AppConfig, AppId, DynamicPolicy, EfficiencyMetric, Granularity, PfsConfig,
    Scenario, Session, Strategy,
};
use iobench::{compare_policies, dt_range, run_delta_sweep, DeltaSweepConfig};
use std::collections::BTreeMap;

const MB: f64 = 1.0e6;

/// The paper's abstract: "CALCioM is able to prevent a 14× slowdown of a
/// small application competing with a larger one, at a negligible cost for
/// the latter, by allowing the interruption of its ongoing I/O operations."
#[test]
fn headline_claim_small_application_rescued_by_interruption() {
    let pattern = AccessPattern::strided(2.0 * MB, 8);
    let pfs = PfsConfig::grid5000_rennes();
    let big = AppConfig::new(AppId(0), "big", 744, pattern);
    let small = AppConfig::new(AppId(1), "small", 24, pattern).starting_at_secs(3.0);

    let (interfere, interrupt) = (Strategy::Interfere.spec(), Strategy::Interrupt.spec());
    let cmp = compare_policies(
        &pfs,
        &[big, small],
        &[interfere.clone(), interrupt.clone()],
        Granularity::Round,
        DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
    )
    .unwrap();

    let small_interfering = cmp.factor(&interfere, AppId(1)).unwrap();
    let small_interrupt = cmp.factor(&interrupt, AppId(1)).unwrap();
    let big_interrupt = cmp.factor(&interrupt, AppId(0)).unwrap();

    // Without coordination the small application suffers a large slowdown
    // (the paper reports up to 14×; the exact value depends on the platform
    // calibration).
    assert!(
        small_interfering > 6.0,
        "uncoordinated slowdown of the small app: {small_interfering}"
    );
    // With interruption it is almost unaffected...
    assert!(
        small_interrupt < 2.0,
        "interruption should rescue the small app, factor {small_interrupt}"
    );
    // ...at a small cost for the big application (it pays roughly the small
    // application's write time).
    assert!(
        big_interrupt < 1.3,
        "cost for the big application should be small, factor {big_interrupt}"
    );
}

/// Section IV-B: serializing two large identical accesses impacts only the
/// application arriving second, and the first keeps its stand-alone time.
#[test]
fn fcfs_serialization_protects_the_first_arriver() {
    let pattern = AccessPattern::contiguous(32.0 * MB);
    let a = AppConfig::new(AppId(0), "A", 2048, pattern);
    let b = AppConfig::new(AppId(1), "B", 2048, pattern);
    let cfg = DeltaSweepConfig::new(PfsConfig::surveyor(), a, b, dt_range(2.0, 10.0, 4.0))
        .with_strategy(Strategy::FcfsSerialize);
    let sweep = run_delta_sweep(&cfg).unwrap();
    for p in &sweep.points {
        assert!(
            (p.a_io_time - sweep.a_alone).abs() / sweep.a_alone < 0.05,
            "dt={}: A={} alone={}",
            p.dt,
            p.a_io_time,
            sweep.a_alone
        );
        assert!(
            p.b_io_time > sweep.b_alone * 1.3,
            "dt={}: B={}",
            p.dt,
            p.b_io_time
        );
    }
}

/// Section IV-D: the dynamic choice implements the paper's decision rule
/// and never loses to either fixed strategy on the configured metric.
#[test]
fn dynamic_choice_is_never_worse_than_fixed_strategies() {
    let pattern = AccessPattern::strided(4.0 * MB, 1);
    let pfs = PfsConfig::surveyor();
    let a = AppConfig::new(AppId(0), "A", 2048, pattern).with_files(4);
    let b = AppConfig::new(AppId(1), "B", 2048, pattern).with_files(1);

    for dt in [4.0, 12.0, 20.0] {
        let mut b_dt = b.clone();
        b_dt.start = simcore::SimTime::from_secs(dt);
        let alone: BTreeMap<AppId, f64> = BTreeMap::from([
            (
                AppId(0),
                Session::run_alone(a.clone(), pfs.clone()).unwrap(),
            ),
            (
                AppId(1),
                Session::run_alone(b_dt.clone(), pfs.clone()).unwrap(),
            ),
        ]);
        let metric = |strategy: Strategy| -> f64 {
            Scenario::builder(pfs.clone())
                .apps([a.clone(), b_dt.clone()])
                .strategy(strategy)
                .granularity(Granularity::File)
                .policy(DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted))
                .build()
                .unwrap()
                .run()
                .unwrap()
                .metric(EfficiencyMetric::CpuSecondsWasted, &alone)
        };
        let dynamic = metric(Strategy::Dynamic);
        let fcfs = metric(Strategy::FcfsSerialize);
        let interrupt = metric(Strategy::Interrupt);
        assert!(
            dynamic <= 1.05 * fcfs.min(interrupt),
            "dt={dt}: dynamic={dynamic} fcfs={fcfs} interrupt={interrupt}"
        );
    }
}

/// The motivation chain of Section II: the synthetic Intrepid-like trace
/// has many small jobs and enough concurrency that interference is likely,
/// and that likelihood feeds the Section II-B formula.
#[test]
fn workload_analysis_motivates_coordination() {
    let trace = workloads::generate(&workloads::SyntheticTraceConfig {
        jobs: 5_000,
        ..Default::default()
    });
    assert!(trace.fraction_of_jobs_at_most(2048) > 0.4);
    let concurrency = workloads::ConcurrencyDistribution::from_trace(&trace);
    assert!(concurrency.mean() > 3.0);
    let p = workloads::probability_concurrent_io(&concurrency, 0.05);
    assert!(p > 0.3, "interference probability {p}");
}

/// The whole stack stays consistent: bytes accounted by the file system
/// match what the applications asked to write, for every strategy.
#[test]
fn bytes_written_are_conserved_across_strategies() {
    let pattern = AccessPattern::strided(1.0 * MB, 8);
    let apps = vec![
        AppConfig::new(AppId(0), "A", 256, pattern),
        AppConfig::new(AppId(1), "B", 64, pattern).starting_at_secs(1.0),
    ];
    for strategy in [
        Strategy::Interfere,
        Strategy::FcfsSerialize,
        Strategy::Interrupt,
        Strategy::Dynamic,
        Strategy::Delay { max_wait_secs: 2.0 },
    ] {
        let report = Scenario::builder(PfsConfig::grid5000_rennes())
            .apps(apps.clone())
            .strategy(strategy)
            .build()
            .unwrap()
            .run()
            .unwrap();
        for (report_app, cfg) in report.apps.iter().zip(&apps) {
            let written: f64 = report_app.phases.iter().map(|p| p.bytes).sum();
            assert!(
                (written - cfg.bytes_per_phase()).abs() < 1.0,
                "{:?}: app {} wrote {} expected {}",
                strategy,
                cfg.name,
                written,
                cfg.bytes_per_phase()
            );
            // Nothing finishes before it started, and every phase has
            // positive duration.
            for phase in &report_app.phases {
                assert!(phase.end >= phase.io_start);
                assert!(phase.io_start >= phase.requested_start);
                assert!(phase.io_time() > 0.0);
            }
        }
    }
}

/// Coordination comes with bounded message counts (a few per yield point),
/// not with chatter proportional to the data volume.
#[test]
fn coordination_message_count_is_modest() {
    let pattern = AccessPattern::strided(2.0 * MB, 8);
    let apps = vec![
        AppConfig::new(AppId(0), "A", 720, pattern),
        AppConfig::new(AppId(1), "B", 48, pattern).starting_at_secs(1.0),
    ];
    let report = Scenario::builder(PfsConfig::grid5000_rennes())
        .apps(apps)
        .strategy(Strategy::Interrupt)
        .granularity(Granularity::Round)
        .build()
        .unwrap()
        .run()
        .unwrap();
    // One update + one check per round-level yield point for each app, plus
    // the request/release handshakes: well under a thousand messages for
    // this workload, and completely independent of the bytes moved.
    assert!(report.coordination_messages > 4);
    assert!(
        report.coordination_messages < 1000,
        "messages: {}",
        report.coordination_messages
    );
}
