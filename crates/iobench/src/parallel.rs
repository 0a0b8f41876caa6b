//! Parallel execution of experiment sweeps.
//!
//! A Δ-graph is a sweep of dozens of independent simulations (one per `dt`
//! value per strategy); running them on all available cores keeps the full
//! figure-reproduction suite fast. Every sweep goes through one
//! contiguous-chunk fan-out over scoped threads, exposed two ways:
//!
//! * [`parallel_map_owned`] — an order-preserving, panic-propagating map
//!   that moves each item into the worker thread that processes it;
//! * [`run_scenarios_sharded_streamed`] — the one scenario runner. It
//!   builds every session on the calling thread (over the `Send`
//!   [`SharedTransport`], or a [`ClusterTransport`] for cluster
//!   scenarios), executes them on `shards` workers, resolves each
//!   application's `T_alone` baseline through a [`BaselineCache`], and
//!   hands the results to a sink in input order as they complete.
//!   [`run_scenarios_sharded`] collects the same results into a `Vec`.
//!
//! The simulation is deterministic, so every report is bit-identical to
//! a sequential run's.

use crate::baseline::BaselineCache;
use calciom::{
    ClusterStats, ClusterTransport, Error, Scenario, Session, SessionReport, SharedTransport,
};
use pfs::AppId;
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Applies `f` to every item of `items`, distributing the work over up to
/// `max_threads` worker threads (or the number of available cores if 0),
/// and returns the results in input order. Each item is *moved* into the
/// worker thread that processes it — this is what lets fully-built
/// `Session<SharedTransport>` values (which own their event queues and
/// file-system state) execute off-thread. A panic in `f` propagates.
pub fn parallel_map_owned<T, R, F>(items: Vec<T>, max_threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    fan_out(items, max_threads, f, |result| {
        results.push(result);
        ControlFlow::Continue(())
    });
    results
}

/// The one fan-out behind every parallel entry point: splits `items` into
/// up to `max_threads` contiguous chunks (0 = one per core), runs `f` over
/// each chunk on its own scoped thread, and hands the results to `sink` in
/// input order, each as soon as it and every earlier one are done. With a
/// single worker everything runs inline on the calling thread.
///
/// `sink` returning [`ControlFlow::Break`] stops the fan-out: nothing more
/// is delivered, and each worker stops after the item it is running. A
/// panic in `f` propagates to the caller once every worker has stopped.
fn fan_out<T, R, F>(
    items: Vec<T>,
    max_threads: usize,
    f: F,
    mut sink: impl FnMut(R) -> ControlFlow<()>,
) where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(max_threads, n);
    if workers == 1 {
        for item in items {
            if sink(f(item)).is_break() {
                return;
            }
        }
        return;
    }

    let chunk = n.div_ceil(workers);
    let mut items = items.into_iter();
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    thread::scope(|scope| {
        let f = &f;
        for first in (0..n).step_by(chunk) {
            let batch: Vec<T> = items.by_ref().take(chunk).collect();
            let tx = tx.clone();
            scope.spawn(move || {
                for (index, item) in (first..).zip(batch) {
                    // A send failure means the sink stopped the fan-out.
                    if tx.send((index, f(item))).is_err() {
                        return;
                    }
                }
            });
        }
        drop(tx);

        // Reorder into input order; returning drops `rx`, which is what
        // tells the workers to stop.
        let mut done: Vec<Option<R>> = Vec::with_capacity(n);
        done.resize_with(n, || None);
        let mut next = 0;
        for (index, result) in rx {
            done[index] = Some(result);
            while let Some(result) = done.get_mut(next).and_then(Option::take) {
                next += 1;
                if sink(result).is_break() {
                    return;
                }
            }
        }
    });
}

/// The outcome of one scenario of a sharded sweep: the report, the
/// `T_alone` baseline of every application (served through the sweep's
/// [`BaselineCache`]), and the wall-clock the session's execution took on
/// its worker thread.
#[derive(Debug, Clone)]
pub struct ShardedRun {
    /// The session report.
    pub report: SessionReport,
    /// Stand-alone first-phase I/O time per application — the baselines
    /// machine-wide metrics need ([`SessionReport::metric`]).
    pub alone: BTreeMap<AppId, f64>,
    /// Host wall-clock spent executing the session (excludes building and
    /// baseline lookups) — the scale experiments' throughput signal.
    pub wall: Duration,
    /// Hierarchical-arbitration message accounting, for scenarios that
    /// ran over a [`ClusterTransport`] (`scenario.cluster` set); `None`
    /// for flat runs.
    pub cluster: Option<ClusterStats>,
}

/// A fully-built session ready to move to a worker thread, dispatched on
/// the scenario's coordination topology: flat scenarios run over the
/// [`SharedTransport`], cluster scenarios (`scenario.cluster` set) over a
/// [`ClusterTransport`] — same sweep machinery, same baselines, either
/// way. The cluster variant keeps a clone of the transport handle
/// (transports are shared handles) so the arbiter tree's message
/// accounting survives the session's consumption by `execute`.
enum SessionJob {
    Flat(Session<SharedTransport>),
    Cluster(Session<ClusterTransport>, ClusterTransport),
}

impl SessionJob {
    fn build(scenario: &Scenario) -> Result<SessionJob, Error> {
        if scenario.cluster.is_some() {
            let session = Session::<ClusterTransport>::with_transport(scenario)?;
            let handle = session.transport().clone();
            Ok(SessionJob::Cluster(session, handle))
        } else {
            Ok(SessionJob::Flat(Session::with_transport(scenario)?))
        }
    }

    fn execute(self) -> Result<(SessionReport, Option<ClusterStats>), Error> {
        match self {
            SessionJob::Flat(session) => Ok((session.execute()?, None)),
            SessionJob::Cluster(session, handle) => {
                let report = session.execute()?;
                Ok((report, Some(handle.stats())))
            }
        }
    }
}

/// Runs a batch of independent scenarios and returns one [`ShardedRun`]
/// per scenario, in input order: [`run_scenarios_sharded_streamed`]
/// collected into a `Vec`.
///
/// Passing [`BaselineCache::global`] (or any one cache) shares baselines
/// across all shards — concurrent lookups of the same `(app, pfs)` pair
/// are safe and keep the hit/miss counters consistent (see
/// [`BaselineCache`]'s concurrency contract). Passing a fresh cache per
/// call isolates sweeps instead. Reports are deterministic either way;
/// only `wall` varies between runs.
pub fn run_scenarios_sharded(
    scenarios: &[Scenario],
    shards: usize,
    cache: &BaselineCache,
) -> Result<Vec<ShardedRun>, Error> {
    let mut runs = Vec::with_capacity(scenarios.len());
    run_scenarios_sharded_streamed(scenarios, shards, cache, |run| runs.push(run))?;
    Ok(runs)
}

/// The scenario runner: the list is split into `shards` contiguous
/// batches (0 = one per core), each batch executes on its own worker
/// thread — inline on the calling thread when there is only one — and
/// every run also resolves its applications' `T_alone` baselines through
/// `cache`. Results are handed to `sink` **in input order**, each as soon
/// as it (and every earlier one) has finished, which is what lets
/// `calciom-serve` stream a machine-scale `/v1/batch` response while
/// later shards are still simulating.
///
/// Every session is built up front, so a configuration error in *any*
/// scenario returns `Err` before `sink` sees a single result. A runtime
/// [`Error`] stops the run: `sink` has then been called for every
/// scenario before the first failing one, and that error is returned.
pub fn run_scenarios_sharded_streamed(
    scenarios: &[Scenario],
    shards: usize,
    cache: &BaselineCache,
    mut sink: impl FnMut(ShardedRun),
) -> Result<(), Error> {
    let jobs = scenarios
        .iter()
        .map(|scenario| Ok((SessionJob::build(scenario)?, scenario)))
        .collect::<Result<Vec<_>, Error>>()?;
    let mut outcome = Ok(());
    fan_out(
        jobs,
        shards,
        |(job, scenario)| execute_sharded_job(job, scenario, cache),
        |result| match result {
            Ok(run) => {
                sink(run);
                ControlFlow::Continue(())
            }
            Err(e) => {
                outcome = Err(e);
                ControlFlow::Break(())
            }
        },
    );
    outcome
}

/// Executes one scenario of a sharded sweep and resolves its baselines.
fn execute_sharded_job(
    job: SessionJob,
    scenario: &Scenario,
    cache: &BaselineCache,
) -> Result<ShardedRun, Error> {
    let started = Instant::now();
    let (report, cluster) = job.execute()?;
    let wall = started.elapsed();
    let mut alone = BTreeMap::new();
    for app in &scenario.apps {
        alone.insert(app.id, cache.alone_time(app, &scenario.pfs)?);
    }
    Ok(ShardedRun {
        report,
        alone,
        wall,
        cluster,
    })
}

fn worker_count(max_threads: usize, items: usize) -> usize {
    let workers = if max_threads == 0 {
        thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        max_threads
    };
    workers.min(items).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calciom::Strategy;
    use mpiio::{AccessPattern, AppConfig};
    use pfs::{AppId, PfsConfig};
    use std::sync::Mutex;

    #[test]
    fn preserves_order_and_values() {
        let input: Vec<u64> = (0..257).collect();
        let out = parallel_map_owned(input.clone(), 0, |x| x * 2);
        assert_eq!(out, input.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn works_with_one_thread_and_empty_input() {
        let out = parallel_map_owned(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        let empty: Vec<i32> = parallel_map_owned(Vec::<i32>::new(), 4, |x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = parallel_map_owned(vec![10, 20], 16, |x| x / 10);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    #[should_panic]
    fn panics_propagate() {
        parallel_map_owned(vec![1, 2, 3], 2, |x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn owned_map_moves_non_clone_values_and_preserves_order() {
        struct NotClone(u64);
        let input: Vec<NotClone> = (0..100).map(NotClone).collect();
        let out = parallel_map_owned(input, 4, |x| x.0 * 3);
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        let empty: Vec<u8> = parallel_map_owned(Vec::<NotClone>::new(), 4, |x| x.0 as u8);
        assert!(empty.is_empty());
    }

    fn scenario_grid() -> Vec<Scenario> {
        let pattern = AccessPattern::contiguous(8.0e6);
        [
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
        ]
        .into_iter()
        .map(|strategy| {
            Scenario::builder(PfsConfig::grid5000_rennes())
                .app(AppConfig::new(AppId(0), "A", 336, pattern))
                .app(AppConfig::new(AppId(1), "B", 48, pattern).starting_at_secs(1.0))
                .strategy(strategy)
                .build()
                .unwrap()
        })
        .collect()
    }

    #[test]
    fn parallel_scenario_reports_are_bit_identical_to_sequential() {
        let scenarios = scenario_grid();
        let sequential: Vec<_> = scenarios.iter().map(|s| s.run().unwrap()).collect();
        let parallel: Vec<_> = run_scenarios_sharded(&scenarios, 4, &BaselineCache::new())
            .unwrap()
            .into_iter()
            .map(|run| run.report)
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn run_scenarios_uses_at_least_two_threads() {
        // Record which threads execute the sessions: with 4 scenarios and
        // 4 requested workers, at least two distinct worker threads must
        // participate.
        let scenarios: Vec<Scenario> = scenario_grid().into_iter().chain(scenario_grid()).collect();
        // A Vec of distinct ids, not a hash set: `ThreadId` is not `Ord`,
        // and a linear scan over a handful of workers is plenty.
        let seen: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        let sessions = scenarios
            .iter()
            .map(Session::<SharedTransport>::with_transport)
            .collect::<Result<Vec<_>, Error>>()
            .unwrap();
        let reports: Result<Vec<_>, Error> = parallel_map_owned(sessions, 4, |session| {
            let id = std::thread::current().id();
            let mut ids = seen.lock().unwrap();
            if !ids.contains(&id) {
                ids.push(id);
            }
            drop(ids);
            session.execute()
        })
        .into_iter()
        .collect();
        assert_eq!(reports.unwrap().len(), scenarios.len());
        assert!(
            seen.lock().unwrap().len() >= 2,
            "expected the sweep to fan out over at least two threads"
        );
    }

    #[test]
    fn run_scenarios_surfaces_configuration_errors_before_running() {
        let mut scenarios = scenario_grid();
        scenarios[2].apps.clear();
        let mut delivered = 0;
        let err = run_scenarios_sharded_streamed(&scenarios, 2, &BaselineCache::new(), |_| {
            delivered += 1
        })
        .unwrap_err();
        assert_eq!(err, Error::Config(calciom::ConfigError::NoApplications));
        assert_eq!(delivered, 0, "the sink sees nothing when building fails");
    }

    /// Reports, baselines and cluster stats of a run — everything but the
    /// host wall-clock.
    fn outcome(run: &ShardedRun) -> (SessionReport, BTreeMap<AppId, f64>, Option<ClusterStats>) {
        (run.report.clone(), run.alone.clone(), run.cluster)
    }

    #[test]
    fn streamed_runner_delivers_in_input_order_across_shards() {
        // Eight scenarios over three shards: chunks of 3, 3 and 2 finish
        // in any order, yet the sink sees input order, and every result
        // equals the collected runner's at the same index.
        let scenarios: Vec<Scenario> = scenario_grid().into_iter().chain(scenario_grid()).collect();
        let mut streamed = Vec::new();
        run_scenarios_sharded_streamed(&scenarios, 3, &BaselineCache::new(), |run| {
            streamed.push(run)
        })
        .unwrap();
        let collected = run_scenarios_sharded(&scenarios, 1, &BaselineCache::new()).unwrap();
        assert_eq!(streamed.len(), scenarios.len());
        for ((scenario, run), expected) in scenarios.iter().zip(&streamed).zip(&collected) {
            assert_eq!(run.report, scenario.run().unwrap(), "input order kept");
            assert_eq!(outcome(run), outcome(expected));
        }
    }

    #[test]
    fn streamed_runner_stops_after_the_prefix_before_a_runtime_error() {
        // Scenario 5 builds fine but cannot finish within its horizon:
        // the sink gets exactly scenarios 0..5, then the error returns.
        let mut scenarios: Vec<Scenario> =
            scenario_grid().into_iter().chain(scenario_grid()).collect();
        scenarios[5].horizon = simcore::SimDuration::from_secs(0.5);
        for shards in [1, 2, 3] {
            let mut delivered = Vec::new();
            let err =
                run_scenarios_sharded_streamed(&scenarios, shards, &BaselineCache::new(), |run| {
                    delivered.push(run.report)
                })
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::Session(calciom::SessionError::HorizonExceeded { .. })
                ),
                "{err}"
            );
            let expected: Vec<_> = scenarios[..5].iter().map(|s| s.run().unwrap()).collect();
            assert_eq!(delivered, expected, "shards = {shards}");
        }
    }

    #[test]
    fn sharded_sweep_matches_sequential_and_fills_baselines() {
        let scenarios = scenario_grid();
        let cache = BaselineCache::new();
        let runs = run_scenarios_sharded(&scenarios, 2, &cache).unwrap();
        assert_eq!(runs.len(), scenarios.len());

        for (scenario, run) in scenarios.iter().zip(&runs) {
            assert_eq!(
                run.report,
                scenario.run().unwrap(),
                "reports stay deterministic"
            );
            // Every application got a baseline, served through the cache.
            assert_eq!(run.alone.len(), scenario.apps.len());
            for app in &scenario.apps {
                let expected = Session::run_alone(app.clone(), scenario.pfs.clone()).unwrap();
                assert_eq!(run.alone[&app.id], expected);
            }
        }
        // The grid reuses two applications across four strategies: the
        // shared cache collapses 8 baseline requests onto 2 simulations
        // (give or take races between the two shards on first touch).
        assert_eq!(cache.hits() + cache.misses(), 8);
        assert!(cache.misses() >= 2 && cache.misses() <= 4);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn sharded_sweep_dispatches_cluster_scenarios_to_the_arbiter_tree() {
        use calciom::{ClusterSpec, MachineSpec};
        use simcore::SimDuration;

        // A 2-machine, 1-slot tree alongside flat scenarios in one sweep:
        // the flat runs carry no cluster stats, the tree run reports its
        // root traffic, and the tree run matches `Scenario::run`'s
        // dispatch bit for bit.
        let mut scenarios = scenario_grid();
        let mut clustered = scenarios[1].clone();
        clustered.cluster = Some(ClusterSpec::new(
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
        scenarios.push(clustered.clone());

        let cache = BaselineCache::new();
        let runs = run_scenarios_sharded(&scenarios, 2, &cache).unwrap();
        assert!(runs[..4].iter().all(|r| r.cluster.is_none()));
        let tree = runs[4].cluster.as_ref().expect("cluster stats recorded");
        assert_eq!(tree.machines, 2);
        assert!(tree.escalations > 0, "two contending machines escalate");
        assert_eq!(runs[4].report, clustered.run().unwrap());
        assert_eq!(runs[4].alone.len(), 2);
    }

    #[test]
    fn sharded_sweep_surfaces_configuration_errors_before_running() {
        let mut scenarios = scenario_grid();
        scenarios[1].apps.clear();
        let cache = BaselineCache::new();
        let err = run_scenarios_sharded(&scenarios, 2, &cache).unwrap_err();
        assert_eq!(err, Error::Config(calciom::ConfigError::NoApplications));
        assert!(cache.is_empty(), "nothing runs when building fails");
    }
}
