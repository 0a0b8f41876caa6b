//! Property-based tests on the core invariants of the stack:
//! bandwidth-sharing (max-min fairness), the analytic expectation model,
//! the coordination session, and the exchanged-information encoding.

use calciom::{
    AccessPattern, AppConfig, AppId, Granularity, IoInfo, PfsConfig, Scenario, Session,
    SharePolicy, Strategy,
};
use iobench::expected_times;
use proptest::prelude::*;
use simcore::fluid::{FlowSpec, FluidNetwork};
use simcore::SimDuration;

const MB: f64 = 1.0e6;

fn pfs_for_tests() -> PfsConfig {
    PfsConfig {
        num_servers: 8,
        server_bw: 80.0 * MB,
        cache: None,
        interference_gamma: 0.85,
        process_link_bw: 10.0 * MB,
        interconnect_bw: f64::INFINITY,
        share_policy: SharePolicy::ProportionalToProcesses,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weighted max-min fairness never over-commits a constraint and never
    /// hands a flow more than its own rate cap.
    #[test]
    fn fluid_rates_respect_capacities_and_caps(
        capacities in prop::collection::vec(1.0f64..1000.0, 1..4),
        flows in prop::collection::vec(
            (1.0f64..1e6, 1.0f64..64.0, 1.0f64..500.0, prop::collection::vec(0usize..4, 1..4)),
            1..12,
        ),
    ) {
        let mut net = FluidNetwork::new();
        let constraint_ids: Vec<_> = capacities.iter().map(|&c| net.add_constraint(c)).collect();
        let mut flow_ids = Vec::new();
        for (bytes, weight, cap, constraints) in &flows {
            let attached: Vec<_> = constraints
                .iter()
                .map(|&i| constraint_ids[i % constraint_ids.len()])
                .collect();
            flow_ids.push(net.add_flow(FlowSpec::new(*bytes, *weight, *cap, attached)));
        }

        // Per-flow invariants.
        let mut usage = vec![0.0f64; capacities.len()];
        for (id, (_, _, cap, constraints)) in flow_ids.iter().zip(&flows) {
            let rate = net.rate(*id);
            prop_assert!(rate >= -1e-9);
            prop_assert!(rate <= cap + 1e-6, "rate {} exceeds cap {}", rate, cap);
            for &c in constraints {
                usage[c % capacities.len()] += rate;
            }
        }
        // A flow attached to several constraints consumes its rate on each
        // of them at most once; recompute usage precisely per constraint.
        let mut usage = vec![0.0f64; capacities.len()];
        for (id, (_, _, _, constraints)) in flow_ids.iter().zip(&flows) {
            let rate = net.rate(*id);
            let mut seen = std::collections::BTreeSet::new();
            for &c in constraints {
                let idx = c % capacities.len();
                if seen.insert(idx) {
                    usage[idx] += rate;
                }
            }
        }
        for (used, cap) in usage.iter().zip(&capacities) {
            prop_assert!(*used <= cap * (1.0 + 1e-6) + 1e-6, "used {} > cap {}", used, cap);
        }
    }

    /// Advancing the network never creates bytes: transferred + remaining
    /// stays equal to the original volume, and remaining never goes
    /// negative.
    #[test]
    fn fluid_advance_conserves_bytes(
        bytes in prop::collection::vec(1.0f64..1e7, 1..8),
        steps in prop::collection::vec(0.01f64..5.0, 1..10),
    ) {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(50.0 * MB);
        let ids: Vec<_> = bytes
            .iter()
            .map(|&b| net.add_flow(FlowSpec::new(b, 1.0, f64::INFINITY, vec![server])))
            .collect();
        for &s in &steps {
            net.advance(SimDuration::from_secs(s));
        }
        for (id, &b) in ids.iter().zip(&bytes) {
            let p = net.progress(*id).unwrap();
            prop_assert!(p.remaining >= 0.0);
            prop_assert!((p.remaining + p.transferred - b).abs() < 1.0,
                "remaining {} + transferred {} != {}", p.remaining, p.transferred, b);
        }
    }

    /// Differential test of the two sharing media: on an equal-share
    /// topology (one constraint, uncapped flows), the virtual-time model
    /// must agree with the exact max-min solver on *every* observable —
    /// per-flow progress after an arbitrary interleaving of inserts,
    /// pauses, resumes and advances, and the completion time of every
    /// flow — to within integer-tick rounding.
    #[test]
    fn vtfair_matches_fluid_on_equal_share_topologies(
        capacity in 10.0f64..1000.0,
        ops in prop::collection::vec(
            (0usize..4, 1.0f64..1e5, 1.0f64..8.0, 0.01f64..20.0),
            1..40,
        ),
    ) {
        use simcore::fair::VtFairNetwork;

        let mut fluid = FluidNetwork::new();
        let mut fair = VtFairNetwork::new();
        let cf = fluid.add_constraint(capacity);
        let cv = fair.add_constraint(capacity);
        // Paired handles: ops are mirrored verbatim on both networks.
        let mut pairs = Vec::new();
        let mut clock = 0.0f64;
        let mut done_f = std::collections::BTreeMap::new();
        let mut done_v = std::collections::BTreeMap::new();
        let drain = |fluid: &mut FluidNetwork,
                         fair: &mut VtFairNetwork,
                         clock: f64,
                         done_f: &mut std::collections::BTreeMap<_, f64>,
                         done_v: &mut std::collections::BTreeMap<_, f64>| {
            for id in fluid.drain_completed() {
                done_f.insert(id, clock);
            }
            for id in fair.drain_completed() {
                done_v.insert(id, clock);
            }
        };
        for (op, bytes, pick, secs) in &ops {
            match op {
                0 => {
                    let weight = pick.floor();
                    pairs.push((
                        fluid.add_flow(FlowSpec::new(*bytes, weight, f64::INFINITY, vec![cf])),
                        fair.add_flow(FlowSpec::new(*bytes, weight, f64::INFINITY, vec![cv])),
                    ));
                }
                1 if !pairs.is_empty() => {
                    let (a, b) = pairs[(*pick as usize) % pairs.len()];
                    fluid.pause_flow(a);
                    fair.pause_flow(b);
                }
                2 if !pairs.is_empty() => {
                    let (a, b) = pairs[(*pick as usize) % pairs.len()];
                    fluid.resume_flow(a);
                    fair.resume_flow(b);
                }
                3 => {
                    let dt = SimDuration::from_secs(*secs);
                    fluid.advance(dt);
                    fair.advance(dt);
                    clock += dt.as_secs();
                    drain(&mut fluid, &mut fair, clock, &mut done_f, &mut done_v);
                }
                _ => {}
            }
        }

        // Mid-stream progress must already agree.
        for &(a, b) in &pairs {
            let (pa, pb) = (fluid.progress(a), fair.progress(b));
            if let (Some(pa), Some(pb)) = (pa, pb) {
                prop_assert!(
                    (pa.transferred - pb.transferred).abs()
                        <= 1e-6 * pa.transferred.abs().max(1.0) + 1e-3,
                    "progress diverged: fluid {} vs vt-fair {}",
                    pa.transferred,
                    pb.transferred,
                );
            }
        }

        // Resume everything, then run both networks dry: each flow must
        // complete at the same instant on both media.
        for &(a, b) in &pairs {
            fluid.resume_flow(a);
            fair.resume_flow(b);
        }
        drain(&mut fluid, &mut fair, clock, &mut done_f, &mut done_v);
        let mut guard = 0;
        while let Some(dt) = fluid.time_to_next_completion() {
            let dt = dt.max(SimDuration::from_ticks(1));
            fluid.advance(dt);
            fair.advance(dt);
            clock += dt.as_secs();
            drain(&mut fluid, &mut fair, clock, &mut done_f, &mut done_v);
            guard += 1;
            prop_assert!(guard < 10_000, "fluid drain failed to converge");
        }
        // Tick rounding may leave the other medium a straggler completion
        // one tick away; run it dry on the same clock.
        while let Some(dt) = fair.time_to_next_completion() {
            let dt = dt.max(SimDuration::from_ticks(1));
            fair.advance(dt);
            clock += dt.as_secs();
            for id in fair.drain_completed() {
                done_v.insert(id, clock);
            }
            guard += 1;
            prop_assert!(guard < 10_000, "vt-fair drain failed to converge");
        }
        for &(a, b) in &pairs {
            let (ta, tb) = (done_f.get(&a), done_v.get(&b));
            prop_assert!(ta.is_some() && tb.is_some(),
                "a flow finished on one medium only: fluid {ta:?}, vt-fair {tb:?}");
            let (ta, tb) = (ta.unwrap(), tb.unwrap());
            prop_assert!(
                (ta - tb).abs() <= 1e-6 * ta.max(*tb) + 1e-5,
                "completion times diverged: fluid {ta} vs vt-fair {tb}"
            );
        }
    }

    /// The proportional-sharing expectation is symmetric, never faster than
    /// running alone, and never slower than full serialization.
    #[test]
    fn expected_times_are_bounded_and_symmetric(
        ta in 0.5f64..100.0,
        tb in 0.5f64..100.0,
        dt in -120.0f64..120.0,
        wa in 1.0f64..2048.0,
        wb in 1.0f64..2048.0,
    ) {
        let e = expected_times(ta, tb, dt, wa, wb);
        prop_assert!(e.a >= ta - 1e-9);
        prop_assert!(e.b >= tb - 1e-9);
        prop_assert!(e.a <= ta + tb + 1e-9);
        prop_assert!(e.b <= ta + tb + 1e-9);
        let mirrored = expected_times(tb, ta, -dt, wb, wa);
        prop_assert!((e.a - mirrored.b).abs() < 1e-6);
        prop_assert!((e.b - mirrored.a).abs() < 1e-6);
    }

    /// The exchanged information survives the flat (key, value) encoding of
    /// the paper's MPI_Info representation.
    #[test]
    fn io_info_round_trips_through_pairs(
        app in 0usize..64,
        procs in 1u32..200_000,
        files in 1u32..64,
        rounds in 1u32..4096,
        total in 0.0f64..1e13,
        frac in 0.0f64..1.0,
        alone in 0.0f64..1e5,
        share in 0.0f64..1.0,
    ) {
        let info = IoInfo {
            app: AppId(app),
            procs,
            files_total: files,
            rounds_total: rounds,
            bytes_total: total,
            bytes_remaining: total * frac,
            est_alone_total_secs: alone,
            est_alone_remaining_secs: alone * frac,
            pfs_share: share,
            granularity: Granularity::File,
        };
        let back = IoInfo::from_pairs(&info.to_pairs()).unwrap();
        prop_assert_eq!(back, info);
    }
}

proptest! {
    // Full-stack properties run fewer cases: each case is a complete
    // simulation.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any two-application scenario and any strategy: interference
    /// factors are at least 1, every byte is written, and coordinated runs
    /// never finish the pair later than letting them interfere would
    /// (within tolerance), because coordination is work-conserving.
    #[test]
    fn session_invariants_hold_for_random_scenarios(
        procs_a in 16u32..512,
        procs_b in 8u32..256,
        mb_a in 1.0f64..24.0,
        mb_b in 1.0f64..24.0,
        dt in 0.0f64..10.0,
        strided in any::<bool>(),
        strategy_pick in 0usize..4,
    ) {
        let pattern_a = if strided {
            AccessPattern::strided(mb_a * MB / 4.0, 4)
        } else {
            AccessPattern::contiguous(mb_a * MB)
        };
        let pattern_b = AccessPattern::contiguous(mb_b * MB);
        let a = AppConfig::new(AppId(0), "A", procs_a, pattern_a);
        let b = AppConfig::new(AppId(1), "B", procs_b, pattern_b).starting_at_secs(dt);
        let strategy = [
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
        ][strategy_pick];

        let pfs = pfs_for_tests();
        let alone_a = Session::run_alone(a.clone(), pfs.clone()).unwrap();
        let alone_b = Session::run_alone(b.clone(), pfs.clone()).unwrap();
        let report = Scenario::builder(pfs)
            .apps([a.clone(), b.clone()])
            .strategy(strategy)
            .build()
            .unwrap()
            .run()
            .unwrap();

        let ra = report.app(AppId(0)).unwrap();
        let rb = report.app(AppId(1)).unwrap();
        // No application is faster than alone (within a small tolerance).
        prop_assert!(ra.first_phase().io_time() >= alone_a * 0.999);
        prop_assert!(rb.first_phase().io_time() >= alone_b * 0.999);
        // Every byte accounted for.
        prop_assert!((ra.first_phase().bytes - a.bytes_per_phase()).abs() < 1.0);
        prop_assert!((rb.first_phase().bytes - b.bytes_per_phase()).abs() < 1.0);
        // The makespan never exceeds full serialization of both phases plus
        // the start offset (coordination never idles the file system while
        // work is pending).
        let serial_bound = alone_a + alone_b + dt + 1.0;
        prop_assert!(
            report.makespan.as_secs() <= serial_bound * 1.6,
            "makespan {} vs serial bound {}",
            report.makespan.as_secs(),
            serial_bound
        );
    }
}

proptest! {
    // Every case simulates a whole machine mix under *every* registered
    // policy, so a small case count still covers hundreds of sessions.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Starvation freedom of the arbitration layer: on any random
    /// 3–8-application machine mix, every policy the standard registry
    /// knows drives every session to completion before the horizon — no
    /// deadlock, no starved application, and (the pending-grant invariant
    /// at end of run) a drained parked set, observable as every
    /// application finishing all of its phases.
    #[test]
    fn every_registered_policy_is_starvation_free(
        napps in 3usize..9,
        seed in 0u64..10_000,
    ) {
        use workloads::MachineMix;

        let mix = MachineMix {
            apps: napps,
            seed,
            max_procs: 512,
            bytes_per_proc: (0.5 * MB, 2.0 * MB),
            start_window_secs: 10.0,
            ..MachineMix::default()
        };
        let registry = calciom::PolicyRegistry::standard();
        for spec in registry.canonical_specs() {
            let scenario = mix.scenario(spec.clone());
            let report = scenario.run().unwrap_or_else(|e| {
                panic!("{spec}: mix(napps={napps}, seed={seed}) failed: {e}")
            });
            prop_assert_eq!(report.apps.len(), napps);
            for (app_cfg, app_report) in scenario.apps.iter().zip(&report.apps) {
                prop_assert!(
                    app_report.phases.len() == app_cfg.phases as usize,
                    "{}: app {} finished {} of {} phases",
                    spec.to_text(),
                    app_cfg.id,
                    app_report.phases.len(),
                    app_cfg.phases
                );
            }
            prop_assert!(
                report.makespan.as_secs() <= scenario.horizon.as_secs(),
                "{}: makespan beyond the horizon", spec.to_text()
            );
            prop_assert_eq!(&report.policy, &spec);
        }
    }

    /// Starvation freedom of the hierarchical arbiter: on any random
    /// 2–4-machine cluster mix — random per-machine populations, slot
    /// counts and cross-arbiter latencies — every application on every
    /// machine finishes all of its phases before the horizon. The FIFO
    /// root queue plus quantum rotation guarantees every leaf's turn
    /// comes, whatever the draw.
    #[test]
    fn hierarchical_arbitration_is_starvation_free(
        machines in 2usize..5,
        napps in 2usize..5,
        slots in 1u32..3,
        latency_ms in 0u64..2_000,
        seed in 0u64..10_000,
    ) {
        use workloads::{ClusterMix, MachineMix};

        let mix = ClusterMix {
            machines,
            apps_per_machine: napps,
            template: MachineMix {
                seed,
                max_procs: 512,
                bytes_per_proc: (0.5 * MB, 2.0 * MB),
                start_window_secs: 10.0,
                ..MachineMix::default()
            },
            slots: slots.min(machines as u32),
            latency_secs: latency_ms as f64 / 1000.0,
            ..ClusterMix::default()
        };
        let scenario = mix.scenario_hierarchical(Strategy::FcfsSerialize);
        let report = scenario.run().unwrap_or_else(|e| {
            panic!("cluster mix(machines={machines}, napps={napps}, slots={slots}, \
                    latency_ms={latency_ms}, seed={seed}) failed: {e}")
        });
        prop_assert_eq!(report.apps.len(), machines * napps);
        for (app_cfg, app_report) in scenario.apps.iter().zip(&report.apps) {
            prop_assert!(
                app_report.phases.len() == app_cfg.phases as usize,
                "app {} ({}) starved: finished {} of {} phases",
                app_cfg.id,
                app_cfg.name,
                app_report.phases.len(),
                app_cfg.phases
            );
        }
        prop_assert!(
            report.makespan.as_secs() <= scenario.horizon.as_secs(),
            "makespan beyond the horizon"
        );
    }

    /// The policy name/argument codec round-trips for every registered
    /// policy, including randomly parameterized time arguments: text →
    /// spec → policy → spec → text is the identity.
    #[test]
    fn policy_registry_codec_round_trips(
        secs in 0.125f64..600.0,
    ) {
        use calciom::{DynamicPolicy, PolicySpec};

        let registry = calciom::PolicyRegistry::standard();
        let dynamic = DynamicPolicy::default();
        let mut specs = registry.canonical_specs();
        // Randomly parameterized time arguments (shortest-float repr).
        specs.push(PolicySpec::with_arg("delay", format!("{secs}s")));
        specs.push(PolicySpec::with_arg("rr", format!("{secs}s")));
        for spec in specs {
            let text = spec.to_text();
            let parsed = PolicySpec::from_text(&text)
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            prop_assert_eq!(&parsed, &spec);
            let policy = registry
                .build(&parsed, &dynamic)
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            prop_assert_eq!(policy.spec().to_text(), text.clone());
            prop_assert_eq!(policy.label(), text);
        }
    }

    /// `Strategy::from_spec` inverts `Strategy::spec` exactly, delay
    /// bounds bit for bit: any finite non-negative `f64` (subnormals,
    /// huge values and `-0.0` included) survives the `<secs>s` argument
    /// codec.
    #[test]
    fn strategy_spec_inverse_is_exact(bits in any::<u64>()) {
        // Clear the sign bit; map the non-finite exponent onto a finite one.
        let mut secs = f64::from_bits(bits & !(1 << 63));
        if !secs.is_finite() {
            secs = f64::from_bits(secs.to_bits() & !(1 << 52));
        }
        prop_assert!(secs.is_finite() && secs >= 0.0);
        let mut strategies = vec![
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
        ];
        for bound in [secs, -0.0, 0.0, f64::MIN_POSITIVE, f64::MAX] {
            strategies.push(Strategy::Delay { max_wait_secs: bound });
        }
        for strategy in strategies {
            let back = Strategy::from_spec(&strategy.spec());
            match (strategy, back) {
                (
                    Strategy::Delay { max_wait_secs: sent },
                    Some(Strategy::Delay { max_wait_secs: got }),
                ) => prop_assert_eq!(sent.to_bits(), got.to_bits()),
                _ => prop_assert_eq!(back, Some(strategy)),
            }
        }
    }
}
