//! The two machine-scale sweep workloads.
//!
//! Each sweep is [`UNITS`] independent mixes. Each unit runs its scenario
//! list through the one [`iobench::run_scenarios_sharded`] call
//! `fig13`/`fig15` use (one shard, a fresh [`BaselineCache`]), round
//! after round for the whole run. The traced pass executes a unit's
//! sessions again over [`Timed`] transports with a [`Counting`]
//! observer, one after another on the calling thread, to split each
//! session into arbiter and engine time.

use crate::calib::Reference;
use crate::probe::{Counting, Timed};
use crate::report::Report;
use crate::stats::median;
use crate::{peak_rss_mb, process_cpu_time, MetricSet, END_TO_END, PER_LAYER};
use calciom::{
    ClusterStats, ClusterTransport, CoordinationTransport, Error, NullObserver, Scenario, Session,
    SessionReport, SharedTransport, SharingModel, Strategy,
};
use iobench::{run_scenarios_sharded, BaselineCache};
use serve::json::{fnv64, report_json};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::{ClusterMix, MachineMix};

/// The seed whose report digests are pinned in [`Sweep::pinned_digests`]
/// (`fig13`/`fig15`'s seed).
pub const PINNED_SEED: u64 = 2014;

/// Which sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// Four 128-application mixes on the exact max-min medium, all five
    /// strategies each.
    Contended,
    /// Four 1 024-application mixes on the fair-fast medium under the
    /// four coordinated strategies, each with a 32 × 32 hierarchical
    /// session.
    Coordinated,
}

/// Independent units of a sweep. Each unit is one sharded call over
/// its own mix; a unit takes a fifth of a second, short enough that a
/// run holds dozens of samples of it.
pub const UNITS: usize = 4;

/// One labelled scenario of a sweep.
pub struct Job {
    /// Session label (`interfering`, `fcfs`, …, `cluster`).
    pub label: &'static str,
    /// The scenario.
    pub scenario: Scenario,
}

const DELAY: Strategy = Strategy::Delay { max_wait_secs: 5.0 };

/// The mix seed of unit `unit` of a run seeded `seed`; units of nearby
/// run seeds do not share mixes.
pub fn unit_seed(seed: u64, unit: usize) -> u64 {
    seed.wrapping_add((unit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl Sweep {
    /// Generates one unit's scenarios from its mix seed.
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let job = |label, scenario| Job { label, scenario };
        match self {
            Sweep::Contended => {
                let mix = MachineMix {
                    apps: 128,
                    seed,
                    ..MachineMix::default()
                };
                vec![
                    job("interfering", mix.scenario(Strategy::Interfere)),
                    job("fcfs", mix.scenario(Strategy::FcfsSerialize)),
                    job("interrupt", mix.scenario(Strategy::Interrupt)),
                    job("delay5s", mix.scenario(DELAY)),
                    job("dynamic", mix.scenario(Strategy::Dynamic)),
                ]
            }
            Sweep::Coordinated => {
                let mix = MachineMix {
                    apps: 1024,
                    seed,
                    medium: SharingModel::FairFast,
                    ..MachineMix::default()
                };
                // fig15's hierarchical session shape (32 machines, the
                // quantum scaled with them) at 32 applications each.
                let cluster = ClusterMix {
                    machines: 32,
                    apps_per_machine: 32,
                    template: MachineMix {
                        seed,
                        medium: SharingModel::FairFast,
                        ..MachineMix::default()
                    },
                    slots: 1,
                    latency_secs: 0.001,
                    quantum_secs: 30.0 * 32.0,
                };
                vec![
                    job("fcfs", mix.scenario(Strategy::FcfsSerialize)),
                    job("interrupt", mix.scenario(Strategy::Interrupt)),
                    job("delay5s", mix.scenario(DELAY)),
                    job("dynamic", mix.scenario(Strategy::Dynamic)),
                    job(
                        "cluster",
                        cluster.scenario_hierarchical(Strategy::FcfsSerialize),
                    ),
                ]
            }
        }
    }

    /// Every unit's scenarios for a run seeded `seed`, in unit order.
    pub fn units(self, seed: u64) -> Vec<Vec<Job>> {
        (0..UNITS).map(|u| self.jobs(unit_seed(seed, u))).collect()
    }

    /// FNV-64 of `report_json` per session at [`PINNED_SEED`], per unit
    /// in job order.
    pub fn pinned_digests(self) -> &'static [[u64; 5]; UNITS] {
        match self {
            Sweep::Contended => &[
                [
                    0xda75_b805_50a5_a9aa,
                    0x5f4d_0d46_e8d0_fc19,
                    0x370e_e913_bed0_0891,
                    0x1ee4_e3d7_6a3c_3617,
                    0x2ed3_86ed_4909_3dbf,
                ],
                [
                    0xb160_83ed_f623_73a0,
                    0x839c_91da_78c0_d4ea,
                    0xc69a_03bf_3f3b_6722,
                    0x3688_3f1b_e9de_bea6,
                    0x4c34_c695_46a0_ff9c,
                ],
                [
                    0x8e9c_6ca9_9667_ecc1,
                    0x3478_ee1c_b96c_e007,
                    0xce8d_d2f0_7a62_0e9f,
                    0x53bd_d0b6_8e4d_cb4a,
                    0x37b6_3d54_284d_8bbd,
                ],
                [
                    0xa730_38f4_7b48_2151,
                    0x02b2_c9e3_8fb5_5a4c,
                    0x2967_728f_f461_9c34,
                    0x8af5_fbe8_ae7f_a018,
                    0x7545_ae1e_d41a_b656,
                ],
            ],
            Sweep::Coordinated => &[
                [
                    0xe5c6_7c42_496e_5e73,
                    0xac07_6427_0a8a_f76b,
                    0x3108_49fc_b826_0ffd,
                    0x2503_b5ab_ab2e_9b35,
                    0xd08b_7f1d_255c_2b2b,
                ],
                [
                    0xc672_a3fc_2097_9dff,
                    0x7851_4b9f_1aad_e647,
                    0xcc61_52cc_9447_efbb,
                    0x5c76_924c_f9f4_65b9,
                    0x3526_9439_1592_b76c,
                ],
                [
                    0x03f3_e3d1_9c44_3f9c,
                    0x894f_bf59_2f7f_f3e4,
                    0x29b8_261a_3fa2_4f29,
                    0x1346_6b76_6505_945e,
                    0x8354_2e5e_c69a_17cf,
                ],
                [
                    0x5713_4d25_1575_2551,
                    0xfdab_eabb_541c_8509,
                    0xc755_d310_70ae_82eb,
                    0x4451_5690_b9a2_6b1b,
                    0xa891_084b_472a_e212,
                ],
            ],
        }
    }
}

/// The report digest every check compares.
pub fn digest(report: &SessionReport) -> u64 {
    fnv64(report_json(report).as_bytes())
}

/// One untraced sweep: the sharded call's wall-clock and per-session
/// outcomes.
pub struct SweepRun {
    /// Wall-clock of the whole `run_scenarios_sharded` call.
    pub wall: Duration,
    /// Process CPU time of the call.
    pub cpu: Duration,
    /// `ShardedRun::wall` per session, in job order.
    pub session_walls: Vec<Duration>,
    /// Report digest per session, in job order.
    pub digests: Vec<u64>,
    /// Baselines the fresh cache had to simulate.
    pub baseline_misses: u64,
    /// Sessions whose baselines were incomplete or not finite.
    pub bad_baselines: usize,
}

/// Runs the sweep once through the sharded backend.
pub fn run_untraced(jobs: &[Job]) -> Result<SweepRun, Error> {
    let scenarios: Vec<Scenario> = jobs.iter().map(|j| j.scenario.clone()).collect();
    let cache = BaselineCache::new();
    let started = Instant::now();
    let cpu0 = process_cpu_time();
    let runs = run_scenarios_sharded(&scenarios, 1, &cache)?;
    let wall = started.elapsed();
    let cpu = process_cpu_time().saturating_sub(cpu0);
    let bad_baselines = runs
        .iter()
        .zip(&scenarios)
        .filter(|(run, scenario)| {
            run.alone.len() != scenario.apps.len()
                || run.alone.values().any(|s| !s.is_finite() || *s <= 0.0)
        })
        .count();
    Ok(SweepRun {
        wall,
        cpu,
        session_walls: runs.iter().map(|r| r.wall).collect(),
        digests: runs.iter().map(|r| digest(&r.report)).collect(),
        baseline_misses: cache.misses(),
        bad_baselines,
    })
}

/// One session of the traced pass.
pub struct TracedSession {
    /// Session label.
    pub label: &'static str,
    /// Wall-clock of `execute_with` (building excluded, as in
    /// `ShardedRun::wall`).
    pub wall: Duration,
    /// Arbiter-visiting transport calls.
    pub visits: u64,
    /// Time inside them.
    pub visit_busy: Duration,
    /// Time inside the per-step clock hooks.
    pub wakeup_busy: Duration,
    /// Coordination messages the session reported.
    pub messages: u64,
    /// Simulation events emitted.
    pub events: u64,
    /// Transfers started.
    pub transfers: u64,
    /// Arbiter-tree accounting, for the cluster session.
    pub cluster: Option<ClusterStats>,
    /// Report digest.
    pub digest: u64,
}

enum Built {
    Flat(Session<Timed<SharedTransport>>),
    Cluster(Session<Timed<ClusterTransport>>),
}

/// Runs every session once over timed transports, sequentially.
pub fn run_traced(jobs: &[Job]) -> Result<Vec<TracedSession>, Error> {
    let built = jobs
        .iter()
        .map(|job| {
            Ok(if job.scenario.cluster.is_some() {
                Built::Cluster(Session::with_transport(&job.scenario)?)
            } else {
                Built::Flat(Session::with_transport(&job.scenario)?)
            })
        })
        .collect::<Result<Vec<_>, Error>>()?;
    jobs.iter()
        .zip(built)
        .map(|(job, session)| match session {
            Built::Flat(session) => execute_timed(job.label, session, |_| None),
            Built::Cluster(session) => execute_timed(job.label, session, |t| Some(t.stats())),
        })
        .collect()
}

fn execute_timed<T: CoordinationTransport>(
    label: &'static str,
    session: Session<Timed<T>>,
    cluster: impl FnOnce(&T) -> Option<ClusterStats>,
) -> Result<TracedSession, Error> {
    let handle = session.transport().clone();
    let mut counter = Counting::new(NullObserver);
    let started = Instant::now();
    let report = session.execute_with(&mut counter)?;
    let wall = started.elapsed();
    let clocks = handle.clocks();
    Ok(TracedSession {
        label,
        wall,
        visits: clocks.visits.calls(),
        visit_busy: clocks.visits.busy(),
        wakeup_busy: clocks.wakeups.busy(),
        messages: report.coordination_messages,
        events: counter.events,
        transfers: counter.transfers,
        cluster: cluster(handle.inner()),
        digest: digest(&report),
    })
}

/// One set-up batch repeats generation at least this often and this
/// long; batches run before and between the measured rounds, and
/// `setup_s` is the median over every repetition, scaled by the
/// reference.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 0.05;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The median of a sample, 0 when empty.
fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    let values: Vec<f64> = values.into_iter().collect();
    median(&values).unwrap_or(0.0)
}

/// Generates every unit repeatedly, appending each generation's (wall,
/// CPU) seconds to `times`; returns the units.
fn setup(sweep: Sweep, seed: u64, times: &mut Vec<(f64, f64)>) -> Vec<Vec<Job>> {
    let mut units = Vec::new();
    let mut batch = 0.0;
    for rep in 0.. {
        if rep >= SETUP_MIN_REPS && batch >= SETUP_MIN_SECS {
            break;
        }
        let started = Instant::now();
        let cpu0 = process_cpu_time();
        units = sweep.units(seed);
        let t = secs(started.elapsed());
        batch += t;
        times.push((t, secs(process_cpu_time().saturating_sub(cpu0))));
    }
    units
}

/// Checks one untraced unit run against the unit's first run and, at the
/// pinned seed, against the pinned digests. Returns the sessions that
/// failed.
fn check_run(
    unit: usize,
    run: &SweepRun,
    first: &[u64],
    pinned: Option<&[u64; 5]>,
    report: &mut Report,
) -> u64 {
    let mut failed = 0;
    for (i, &d) in run.digests.iter().enumerate() {
        let bad_repeat = d != first[i];
        let bad_pin = pinned.is_some_and(|p| p[i] != d);
        if bad_repeat || bad_pin {
            failed += 1;
            report.fail(format!(
                "unit {unit} session {i} digest {d:016x} (first run {:016x}{})",
                first[i],
                pinned.map_or(String::new(), |p| format!(", pinned {:016x}", p[i]))
            ));
        }
    }
    if run.bad_baselines > 0 {
        failed += run.bad_baselines as u64;
        report.fail(format!(
            "unit {unit}: {} sessions with incomplete baselines",
            run.bad_baselines
        ));
    }
    failed
}

/// Runs one sweep workload for about `seconds` and fills `report`.
pub fn bench(sweep: Sweep, seed: u64, seconds: f64, trace: bool, report: &mut Report) {
    let mut reference = Reference::new();
    reference.probe();
    let mut setup_times = Vec::new();
    let units = setup(sweep, seed, &mut setup_times);
    report.meta("units", UNITS);
    report.meta("sessions", units.iter().map(Vec::len).sum::<usize>());
    report.meta(
        "apps",
        units
            .iter()
            .flatten()
            .map(|j| j.scenario.apps.len())
            .sum::<usize>(),
    );
    report.meta("shards", 1);

    // Rounds of one untraced sharded call per unit for the whole budget,
    // each followed by a reference probe; a traced run alternates each
    // call with a traced pass over the same unit instead, so both see
    // the same host conditions.
    let started = Instant::now();
    let mut rounds: Vec<Vec<SweepRun>> = Vec::new();
    // Host speed (mean of the probes around the call), per round and unit.
    let mut hosts: Vec<Vec<f64>> = Vec::new();
    let mut traced_rounds: Vec<Vec<TracedSession>> = Vec::new();
    while rounds.is_empty() || secs(started.elapsed()) < seconds {
        let mut round = Vec::with_capacity(UNITS);
        let mut host = Vec::with_capacity(UNITS);
        let mut traced = Vec::new();
        let outcome = units.iter().try_for_each(|jobs| {
            round.push(run_untraced(jobs)?);
            if trace {
                traced.extend(run_traced(jobs)?);
            } else {
                host.push(reference.bracket());
            }
            Ok::<(), Error>(())
        });
        if let Err(e) = outcome {
            let sessions: usize = units.iter().map(Vec::len).sum();
            report.attempted += sessions as u64;
            report.failed += sessions as u64;
            report.fail(format!("sweep failed: {e}"));
            return;
        }
        rounds.push(round);
        hosts.push(host);
        if trace {
            traced_rounds.push(traced);
        } else {
            setup(sweep, seed, &mut setup_times);
        }
    }
    let pinned = (seed == PINNED_SEED).then(|| sweep.pinned_digests());
    for round in &rounds {
        for (u, run) in round.iter().enumerate() {
            report.attempted += run.digests.len() as u64;
            report.failed +=
                check_run(u, run, &rounds[0][u].digests, pinned.map(|p| &p[u]), report);
        }
    }
    report.meta("rounds", rounds.len());
    let round_walls: Vec<f64> = rounds
        .iter()
        .map(|r| r.iter().map(|run| secs(run.wall)).sum())
        .collect();
    report.meta("round_walls_s", format!("{round_walls:.3?}"));

    // Each unit's figure is its median over the rounds; the sweep's is
    // the sum over its units.
    let per_unit = |f: &dyn Fn(&SweepRun) -> f64| -> f64 {
        (0..UNITS)
            .map(|u| median_of(rounds.iter().map(|r| f(&r[u]))))
            .sum()
    };
    let run_wall = per_unit(&|r| secs(r.wall));
    let prepare_s =
        per_unit(&|r| secs(r.wall) - r.session_walls.iter().map(|w| secs(*w)).sum::<f64>());

    if !trace {
        let mut e2e = MetricSet::new(END_TO_END);
        let setup_cpu = median_of(setup_times.iter().map(|t| t.1));
        report.meta("setup_wall_s", median_of(setup_times.iter().map(|t| t.0)));
        report.meta("setup_cpu_s", setup_cpu);
        report.meta("run_wall_s", run_wall);
        report.meta("run_cpu_s", per_unit(&|r| secs(r.cpu)));
        report.meta("probe_ms", reference.typical() * 1e3);
        // Every call scaled by the host speed around it.
        let run_s: f64 = (0..UNITS)
            .map(|u| {
                median_of(
                    rounds
                        .iter()
                        .zip(&hosts)
                        .map(|(r, h)| Reference::scaled(secs(r[u].cpu), h[u])),
                )
            })
            .sum();
        e2e.set("setup_s", Reference::scaled(setup_cpu, reference.typical()));
        e2e.set("run_s", run_s);
        e2e.set("peak_rss_mb", peak_rss_mb() - Reference::table_mb());
        e2e.emit(report);
        return;
    }

    // Traced sessions of a round, flattened over the units.
    let jobs: Vec<&Job> = units.iter().flatten().collect();
    let first: Vec<u64> = rounds[0].iter().flat_map(|r| r.digests.clone()).collect();
    for traced in &traced_rounds {
        report.attempted += jobs.len() as u64;
        for (i, session) in traced.iter().enumerate() {
            if session.digest != first[i] {
                report.failed += 1;
                report.fail(format!(
                    "traced {} digest {:016x} != untraced {:016x}",
                    session.label, session.digest, first[i]
                ));
            }
        }
    }

    // Per-layer figures: medians over the traced rounds per session,
    // summed.
    let traced_median = |f: &dyn Fn(&TracedSession) -> f64, i: usize| -> f64 {
        median_of(traced_rounds.iter().map(|t| f(&t[i])))
    };
    let mut layers = MetricSet::new(PER_LAYER);
    let n = jobs.len();
    let wall: Vec<f64> = (0..n)
        .map(|i| traced_median(&|s| secs(s.wall), i))
        .collect();
    let visit: Vec<f64> = (0..n)
        .map(|i| traced_median(&|s| secs(s.visit_busy), i))
        .collect();
    let wakeup: Vec<f64> = (0..n)
        .map(|i| traced_median(&|s| secs(s.wakeup_busy), i))
        .collect();
    let last = &traced_rounds[traced_rounds.len() - 1];
    let flat: Vec<usize> = (0..n).filter(|&i| last[i].cluster.is_none()).collect();
    let total_wall: f64 = wall.iter().sum();

    let arbiter_calls: u64 = flat.iter().map(|&i| last[i].visits).sum();
    let arbiter_busy: f64 = flat.iter().map(|&i| visit[i]).sum();
    layers.set("arbiter.calls", arbiter_calls as f64);
    layers.set("arbiter.busy_s", arbiter_busy);
    layers.set(
        "arbiter.ns_per_call",
        arbiter_busy * 1e9 / arbiter_calls.max(1) as f64,
    );
    layers.set(
        "arbiter.messages",
        flat.iter().map(|&i| last[i].messages).sum::<u64>() as f64,
    );
    layers.set("arbiter.share", arbiter_busy / total_wall);
    let tree: Vec<usize> = (0..n).filter(|&i| last[i].cluster.is_some()).collect();
    let stats: Vec<ClusterStats> = tree.iter().filter_map(|&i| last[i].cluster).collect();
    layers.set(
        "cluster.busy_s",
        tree.iter().fold(0.0, |sum, &i| sum + visit[i] + wakeup[i]),
    );
    layers.set(
        "cluster.root_messages",
        stats.iter().map(|s| s.root_messages()).sum::<u64>() as f64,
    );
    layers.set(
        "cluster.escalations",
        stats.iter().map(|s| s.escalations).sum::<u64>() as f64,
    );
    let engine_busy = total_wall - visit.iter().sum::<f64>() - wakeup.iter().sum::<f64>();
    let transfers: u64 = last.iter().map(|s| s.transfers).sum();
    layers.set("engine.busy_s", engine_busy);
    layers.set(
        "engine.events",
        last.iter().map(|s| s.events).sum::<u64>() as f64,
    );
    layers.set("engine.transfers", transfers as f64);
    layers.set(
        "engine.ns_per_transfer",
        engine_busy * 1e9 / transfers.max(1) as f64,
    );
    layers.set("engine.share", engine_busy / total_wall);
    // Untraced per-session medians, summed over the units per label.
    let mut session_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    for u in 0..UNITS {
        for (i, job) in units[u].iter().enumerate() {
            *session_s.entry(job.label).or_default() +=
                median_of(rounds.iter().map(|r| secs(r[u].session_walls[i])));
        }
    }
    for (label, s) in &session_s {
        layers.set(&format!("session_s.{label}"), *s);
    }
    layers.set("iobench.prepare_s", prepare_s);
    layers.set("iobench.prepare_share", prepare_s / run_wall);
    layers.set(
        "iobench.baseline_misses",
        rounds[0].iter().map(|r| r.baseline_misses).sum::<u64>() as f64,
    );
    layers.set(
        "failed_frac",
        report.failed as f64 / report.attempted as f64,
    );
    let untraced_wall: f64 = session_s.values().sum();
    layers.set("trace.overhead_frac", total_wall / untraced_wall - 1.0);
    report.meta("traced_rounds", traced_rounds.len());
    layers.emit(report);
}
