//! Criterion benches: one group per paper figure.
//!
//! Each bench measures a representative slice of the corresponding
//! experiment (a single Δ-graph point, one periodic run, one strategy
//! comparison) so that `cargo bench` completes in minutes while still
//! exercising every code path the figure reproduction uses. The full-
//! resolution figures themselves are produced by the binaries in
//! `src/bin/` (see EXPERIMENTS.md).

use calciom::{
    AccessPattern, AppConfig, AppId, DynamicPolicy, EfficiencyMetric, Granularity, PfsConfig,
    Scenario, Session, Strategy, TimelineAggregator, TraceRecorder,
};
use criterion::{criterion_group, criterion_main, Criterion};
use iobench::{run_delta_sweep, run_periodic, DeltaSweepConfig, PeriodicConfig};
use simcore::SimDuration;
use std::hint::black_box;
use workloads::{generate, ConcurrencyDistribution, SyntheticTraceConfig};

const MB: f64 = 1.0e6;

fn equal_apps(procs: u32, mb_per_proc: f64) -> (AppConfig, AppConfig) {
    let pattern = AccessPattern::contiguous(mb_per_proc * MB);
    (
        AppConfig::new(AppId(0), "A", procs, pattern),
        AppConfig::new(AppId(1), "B", procs, pattern),
    )
}

fn delta_point(pfs: PfsConfig, a: AppConfig, b: AppConfig, strategy: Strategy, dt: f64) -> f64 {
    let cfg = DeltaSweepConfig::new(pfs, a, b, vec![dt])
        .with_strategy(strategy)
        .with_granularity(Granularity::Round);
    run_delta_sweep(&cfg).expect("sweep").points[0].b_io_time
}

fn bench_fig01_workload(c: &mut Criterion) {
    c.bench_function("fig01_trace_generation_and_concurrency", |bench| {
        bench.iter(|| {
            let trace = generate(&SyntheticTraceConfig {
                jobs: 2_000,
                ..Default::default()
            });
            let dist = ConcurrencyDistribution::from_trace(&trace);
            black_box(dist.mean())
        })
    });
}

fn bench_fig02_delta(c: &mut Criterion) {
    c.bench_function("fig02_equal_apps_delta_point", |bench| {
        let (a, b) = equal_apps(336, 16.0);
        bench.iter(|| {
            black_box(delta_point(
                PfsConfig::grid5000_rennes(),
                a.clone(),
                b.clone(),
                Strategy::Interfere,
                2.0,
            ))
        })
    });
}

fn bench_fig03_cache(c: &mut Criterion) {
    c.bench_function("fig03_periodic_writers_with_cache", |bench| {
        let writer = |id: usize, period: f64| {
            AppConfig::new(AppId(id), "w", 336, AccessPattern::contiguous(16.0 * MB))
                .with_periodic_phases(4, SimDuration::from_secs(period))
        };
        bench.iter(|| {
            let result = run_periodic(&PeriodicConfig {
                pfs: PfsConfig::grid5000_nancy(),
                app_a: writer(0, 10.0),
                app_b: Some(writer(1, 7.0)),
            })
            .expect("periodic run");
            black_box(result.a_min())
        })
    });
}

fn bench_fig04_size_sweep(c: &mut Criterion) {
    c.bench_function("fig04_small_vs_big_point", |bench| {
        let pattern = AccessPattern::contiguous(16.0 * MB);
        bench.iter(|| {
            let apps = vec![
                AppConfig::new(AppId(0), "A", 336, pattern),
                AppConfig::new(AppId(1), "B", 8, pattern),
            ];
            let report = Scenario::new(PfsConfig::grid5000_rennes(), apps)
                .run()
                .unwrap();
            black_box(report.app(AppId(1)).unwrap().first_phase().io_time())
        })
    });
}

fn bench_fig05_observed_session(c: &mut Criterion) {
    // The observer-overhead story: the same contended session unobserved
    // (NullObserver — the zero-cost default), folding a timeline, and
    // recording a full trace.
    let scenario = || {
        Scenario::builder(PfsConfig::grid5000_rennes())
            .app(AppConfig::new(
                AppId(0),
                "A",
                720,
                AccessPattern::strided(2.0 * MB, 8),
            ))
            .app(
                AppConfig::new(AppId(1), "B", 48, AccessPattern::contiguous(8.0 * MB))
                    .starting_at_secs(2.0),
            )
            .strategy(Strategy::Interrupt)
            .build()
            .unwrap()
    };
    let mut group = c.benchmark_group("fig05_observed_session");
    group.bench_function("null_observer", |bench| {
        let s = scenario();
        bench.iter(|| black_box(s.run().unwrap().makespan))
    });
    group.bench_function("timeline_aggregator", |bench| {
        let s = scenario();
        bench.iter(|| {
            let mut agg = TimelineAggregator::new();
            Session::new(&s).unwrap().execute_with(&mut agg).unwrap();
            black_box(agg.finish().intervals.len())
        })
    });
    group.bench_function("trace_recorder", |bench| {
        let s = scenario();
        bench.iter(|| {
            let mut recorder = TraceRecorder::for_scenario(&s);
            Session::new(&s)
                .unwrap()
                .execute_with(&mut recorder)
                .unwrap();
            black_box(recorder.into_trace().len())
        })
    });
    group.finish();
}

fn bench_fig06_unequal_delta(c: &mut Criterion) {
    c.bench_function("fig06_unequal_split_delta_point", |bench| {
        let pattern = AccessPattern::strided(2.0 * MB, 8);
        let a = AppConfig::new(AppId(0), "A", 744, pattern);
        let b = AppConfig::new(AppId(1), "B", 24, pattern);
        bench.iter(|| {
            black_box(delta_point(
                PfsConfig::grid5000_rennes(),
                a.clone(),
                b.clone(),
                Strategy::Interfere,
                5.0,
            ))
        })
    });
}

fn bench_fig07_fcfs(c: &mut Criterion) {
    c.bench_function("fig07_surveyor_fcfs_point", |bench| {
        let (a, b) = equal_apps(2048, 32.0);
        bench.iter(|| {
            black_box(delta_point(
                PfsConfig::surveyor(),
                a.clone(),
                b.clone(),
                Strategy::FcfsSerialize,
                4.0,
            ))
        })
    });
}

fn bench_fig08_collective(c: &mut Criterion) {
    c.bench_function("fig08_collective_buffering_point", |bench| {
        let pattern = AccessPattern::strided(1.0 * MB, 16);
        let a = AppConfig::new(AppId(0), "A", 2048, pattern);
        let b = AppConfig::new(AppId(1), "B", 2048, pattern);
        bench.iter(|| {
            black_box(delta_point(
                PfsConfig::surveyor(),
                a.clone(),
                b.clone(),
                Strategy::Interfere,
                5.0,
            ))
        })
    });
}

fn bench_fig09_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig09_policies");
    let pattern = AccessPattern::strided(2.0 * MB, 8);
    for (label, strategy) in [
        ("interfering", Strategy::Interfere),
        ("fcfs", Strategy::FcfsSerialize),
        ("interrupt", Strategy::Interrupt),
    ] {
        group.bench_function(label, |bench| {
            let a = AppConfig::new(AppId(0), "A", 744, pattern);
            let b = AppConfig::new(AppId(1), "B", 24, pattern);
            bench.iter(|| {
                black_box(delta_point(
                    PfsConfig::grid5000_rennes(),
                    a.clone(),
                    b.clone(),
                    strategy,
                    5.0,
                ))
            })
        });
    }
    group.finish();
}

fn bench_fig10_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_interruption_granularity");
    for (label, granularity) in [
        ("file_level", Granularity::File),
        ("round_level", Granularity::Round),
    ] {
        group.bench_function(label, |bench| {
            let pattern = AccessPattern::strided(4.0 * MB, 1);
            let a = AppConfig::new(AppId(0), "A", 2048, pattern).with_files(4);
            let b = AppConfig::new(AppId(1), "B", 2048, pattern).with_files(1);
            bench.iter(|| {
                let cfg =
                    DeltaSweepConfig::new(PfsConfig::surveyor(), a.clone(), b.clone(), vec![6.0])
                        .with_strategy(Strategy::Interrupt)
                        .with_granularity(granularity);
                black_box(run_delta_sweep(&cfg).unwrap().points[0].b_io_time)
            })
        });
    }
    group.finish();
}

fn bench_fig11_dynamic(c: &mut Criterion) {
    c.bench_function("fig11_dynamic_choice_point", |bench| {
        let pattern = AccessPattern::strided(4.0 * MB, 1);
        let a = AppConfig::new(AppId(0), "A", 2048, pattern).with_files(4);
        let b = AppConfig::new(AppId(1), "B", 2048, pattern).with_files(1);
        bench.iter(|| {
            let cfg = DeltaSweepConfig::new(PfsConfig::surveyor(), a.clone(), b.clone(), vec![6.0])
                .with_strategy(Strategy::Dynamic)
                .with_granularity(Granularity::File)
                .with_policy(DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted));
            black_box(run_delta_sweep(&cfg).unwrap().points[0].cpu_seconds_per_core)
        })
    });
}

fn bench_fig12_delay(c: &mut Criterion) {
    c.bench_function("fig12_bounded_delay_point", |bench| {
        let (a, b) = equal_apps(1024, 32.0);
        bench.iter(|| {
            black_box(delta_point(
                PfsConfig::surveyor(),
                a.clone(),
                b.clone(),
                Strategy::Delay { max_wait_secs: 4.0 },
                3.0,
            ))
        })
    });
}

fn bench_kernel_scaling(c: &mut Criterion) {
    // The scale acceptance of the kernel re-founding: no regression on the
    // paper-sized 2-app sessions, and sub-quadratic growth in session
    // wall-clock as the machine mix grows from N = 128 to N = 512. Each
    // iteration is one full `Session` (build + execute) over the very mix
    // `fig13_scale` plots, so the two trajectories stay comparable.
    let session = |n: usize, strategy: Strategy| {
        let scenario = calciom_bench::figures::fig13::mix(n).scenario(strategy);
        move || black_box(scenario.run().unwrap().makespan)
    };
    let mut group = c.benchmark_group("kernel_scaling");
    for (label, strategy) in [
        ("fcfs", Strategy::FcfsSerialize),
        ("interfering", Strategy::Interfere),
        ("dynamic", Strategy::Dynamic),
    ] {
        for n in [2usize, 128, 512] {
            group.bench_function(&format!("{label}_n{n}"), |bench| {
                let mut run = session(n, strategy);
                bench.iter(&mut run)
            });
        }
    }
    // The slowest exact-medium session: delay(5s) at N = 512, where
    // expired budgets put every flow back into one component.
    group.bench_function("delay5s_n512", |bench| {
        let mut run = session(512, Strategy::Delay { max_wait_secs: 5.0 });
        bench.iter(&mut run)
    });
    group.finish();
}

fn bench_policy_overhead(c: &mut Criterion) {
    // The cost of the open arbitration layer: every arbiter decision now
    // crosses a `Box<dyn ArbitrationPolicy>` instead of a `match` on the
    // closed enum. Each iteration drives one full request → yield →
    // release protocol round for 8 applications against the raw
    // `Arbiter`, isolating per-decision dispatch from the simulation
    // (compare against `kernel_scaling`'s fcfs/dynamic sessions for the
    // end-to-end view — the re-founding contract is no regression there).
    use calciom::arbitration::{PolicyRegistry, PolicySpec};
    use calciom::{Arbiter, IoInfo};

    let info = |app: usize| IoInfo {
        app: AppId(app),
        procs: 256,
        files_total: 1,
        rounds_total: 4,
        bytes_total: 1.0e9,
        bytes_remaining: 0.5e9,
        est_alone_total_secs: 10.0,
        est_alone_remaining_secs: 5.0,
        pfs_share: 1.0,
        granularity: Granularity::Round,
    };
    let protocol_round = |arb: &mut Arbiter| {
        for i in 0..8usize {
            arb.update_info(info(i));
            arb.request_access(AppId(i));
        }
        for _ in 0..8 {
            if let Some(&a) = arb.active().first() {
                arb.yield_point(a);
            }
            if let Some(&a) = arb.active().first() {
                arb.release(a);
            }
        }
        black_box(arb.message_count())
    };

    let mut group = c.benchmark_group("policy_overhead");
    // Registry-built policies: three of the paper's strategies and an
    // extended one…
    let registry = PolicyRegistry::standard();
    for spec in [
        Strategy::FcfsSerialize.spec(),
        Strategy::Interrupt.spec(),
        Strategy::Dynamic.spec(),
        PolicySpec::with_arg("rr", "10s"),
    ] {
        group.bench_function(&format!("arbiter_{spec}"), |bench| {
            bench.iter(|| {
                let mut arb = Arbiter::with_policy(
                    registry
                        .build(&spec, &DynamicPolicy::default())
                        .expect("registered"),
                );
                protocol_round(&mut arb)
            })
        });
    }
    // …and the raw cost model alone, as the dispatch-free baseline the
    // dynamic arbiter adds its trait indirection on top of.
    group.bench_function("dynamic_decide_baseline", |bench| {
        let policy = DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted);
        let requester = info(1);
        let accessors = vec![info(0)];
        bench.iter(|| {
            let mut last = None;
            for _ in 0..32 {
                last = Some(policy.decide(black_box(&requester), black_box(&accessors)));
            }
            black_box(last)
        })
    });
    group.finish();
}

criterion_group!(
    name = kernel;
    // One full machine-scale session per iteration: a small sample keeps
    // the group to seconds while the per-N means still expose the
    // growth curve.
    config = Criterion::default().sample_size(5);
    targets = bench_kernel_scaling
);

criterion_group!(
    name = policy;
    // Micro-scale protocol rounds: cheap enough for a larger sample.
    config = Criterion::default().sample_size(20);
    targets = bench_policy_overhead
);

criterion_group!(
    name = figures;
    // Each iteration is a full simulated scenario (milliseconds); a small
    // sample keeps `cargo bench --workspace` to a few minutes while still
    // exercising every figure's code path.
    config = Criterion::default().sample_size(10);
    targets =
        bench_fig01_workload,
        bench_fig02_delta,
        bench_fig03_cache,
        bench_fig04_size_sweep,
        bench_fig05_observed_session,
        bench_fig06_unequal_delta,
        bench_fig07_fcfs,
        bench_fig08_collective,
        bench_fig09_policies,
        bench_fig10_granularity,
        bench_fig11_dynamic,
        bench_fig12_delay
);
criterion_main!(figures, kernel, policy);
