//! Side-by-side comparison of arbitration policies on one scenario.
//!
//! Figures 9–11 of the paper plot the same workload under several
//! strategies (interfering, FCFS, interruption, CALCioM's dynamic choice).
//! This module runs one scenario once per [`PolicySpec`] — a
//! [`Strategy`](calciom::Strategy)'s spec or any other registry policy —
//! measures the stand-alone baselines, and exposes the per-application
//! interference factors and machine-wide metrics for each policy.

use crate::baseline::BaselineCache;
use crate::parallel::run_scenarios_sharded;
use calciom::{
    AppObservation, DynamicPolicy, EfficiencyMetric, Error, Granularity, PolicySpec, Scenario,
    SessionReport,
};
use mpiio::AppConfig;
use pfs::{AppId, PfsConfig};
use std::collections::BTreeMap;

/// Result of running one scenario under one named arbitration policy.
#[derive(Debug, Clone)]
pub struct PolicyRun {
    /// The policy spec that was in force.
    pub spec: PolicySpec,
    /// The full session report (its [`policy`](SessionReport::policy) is
    /// the spec).
    pub report: SessionReport,
}

impl PolicyRun {
    /// Observed first-phase I/O time of the given application.
    pub fn io_time(&self, app: AppId) -> Option<f64> {
        self.report.app(app).map(|a| a.first_phase().io_time())
    }
}

/// A full policy comparison: stand-alone baselines plus one run per
/// [`PolicySpec`], the paper's strategies and schedules no strategy names
/// (`priority(w=cores)`, `srpf`, `rr(10s)`, …) alike.
#[derive(Debug, Clone)]
pub struct PolicyComparison {
    /// Stand-alone I/O time per application.
    pub alone: BTreeMap<AppId, f64>,
    /// One run per spec, in the order requested.
    pub runs: Vec<PolicyRun>,
}

impl PolicyComparison {
    /// The run for a given spec. Specs compare structurally, so `rr(5s)`
    /// and `rr(10s)` are distinct runs.
    pub fn run(&self, spec: &PolicySpec) -> Option<&PolicyRun> {
        self.runs.iter().find(|r| &r.spec == spec)
    }

    /// The run whose spec text equals `label` (e.g. `"delay(30s)"`).
    pub fn run_labelled(&self, label: &str) -> Option<&PolicyRun> {
        self.runs.iter().find(|r| r.spec.to_text() == label)
    }

    /// Interference factor of `app` under `spec`.
    pub fn factor(&self, spec: &PolicySpec, app: AppId) -> Option<f64> {
        let run = self.run(spec)?;
        let io = run.io_time(app)?;
        let alone = self.alone.get(&app)?;
        Some(calciom::interference_factor(io, *alone))
    }

    /// Machine-wide metric value under `spec`.
    pub fn metric(&self, spec: &PolicySpec, metric: EfficiencyMetric) -> Option<f64> {
        let run = self.run(spec)?;
        Some(run.report.metric(metric, &self.alone))
    }

    /// Observations (procs, observed, alone) for `spec`, e.g. to feed
    /// [`calciom::cpu_seconds_wasted_per_core`].
    pub fn observations(&self, spec: &PolicySpec) -> Option<Vec<AppObservation>> {
        let run = self.run(spec)?;
        Some(run.report.observations(&self.alone))
    }
}

/// Runs the scenario once per policy spec — concurrently, through
/// [`run_scenarios_sharded`] — and collects the comparison. The
/// stand-alone baselines come from the process-wide [`BaselineCache`].
/// Every spec is resolved through the standard
/// [`calciom::PolicyRegistry`]; an unknown name or bad argument surfaces
/// as a typed configuration error before any simulation starts.
pub fn compare_policies(
    pfs: &PfsConfig,
    apps: &[AppConfig],
    specs: &[PolicySpec],
    granularity: Granularity,
    policy: DynamicPolicy,
) -> Result<PolicyComparison, Error> {
    let mut alone = BTreeMap::new();
    for app in apps {
        alone.insert(app.id, BaselineCache::global().alone_time(app, pfs)?);
    }
    let scenarios = specs
        .iter()
        .map(|spec| {
            Ok(Scenario::builder(pfs.clone())
                .apps(apps.to_vec())
                .strategy(spec.clone())
                .granularity(granularity)
                .policy(policy)
                .build()?)
        })
        .collect::<Result<Vec<Scenario>, Error>>()?;
    let runs = run_scenarios_sharded(&scenarios, 0, BaselineCache::global())?
        .into_iter()
        .zip(specs)
        .map(|(run, spec)| PolicyRun {
            spec: spec.clone(),
            report: run.report,
        })
        .collect();
    Ok(PolicyComparison { alone, runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use calciom::Strategy;
    use mpiio::AccessPattern;

    const MB: f64 = 1.0e6;

    fn scenario() -> (PfsConfig, Vec<AppConfig>) {
        // A big application with a long strided I/O phase (many
        // collective-buffering rounds → many interruption points) and a
        // small one with very different I/O requirements arriving 2 s later
        // (the Fig. 9(a)/(b) situation).
        let pfs = PfsConfig::grid5000_rennes();
        let a = AppConfig::new(AppId(0), "A", 720, AccessPattern::strided(2.0 * MB, 8));
        let b = AppConfig::new(AppId(1), "B", 48, AccessPattern::contiguous(8.0 * MB))
            .starting_at_secs(2.0);
        (pfs, vec![a, b])
    }

    fn compare(strategies: &[Strategy]) -> PolicyComparison {
        let (pfs, apps) = scenario();
        let specs: Vec<PolicySpec> = strategies.iter().map(Strategy::spec).collect();
        compare_policies(
            &pfs,
            &apps,
            &specs,
            Granularity::Round,
            DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
        .unwrap()
    }

    #[test]
    fn comparison_covers_all_strategies_and_baselines() {
        let strategies = [
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
            Strategy::Dynamic,
        ];
        let cmp = compare(&strategies);
        assert_eq!(cmp.runs.len(), 4);
        assert_eq!(cmp.alone.len(), 2);
        for s in strategies {
            let spec = s.spec();
            assert!(cmp.run(&spec).is_some());
            assert!(cmp.factor(&spec, AppId(0)).unwrap() >= 1.0);
            assert!(cmp.metric(&spec, EfficiencyMetric::TotalIoTime).unwrap() > 0.0);
            assert_eq!(cmp.observations(&spec).unwrap().len(), 2);
        }
    }

    #[test]
    fn small_app_suffers_most_under_fcfs_and_least_under_interrupt() {
        // Fig. 9(b): when a small application arrives after a big one, FCFS
        // is the worst option for it and interruption the best.
        let cmp = compare(&[
            Strategy::Interfere,
            Strategy::FcfsSerialize,
            Strategy::Interrupt,
        ]);
        let b = AppId(1);
        let factor = |s: Strategy| cmp.factor(&s.spec(), b).unwrap();
        let fcfs = factor(Strategy::FcfsSerialize);
        let interrupt = factor(Strategy::Interrupt);
        let interfere = factor(Strategy::Interfere);
        assert!(
            interrupt < interfere && interfere < fcfs,
            "interrupt={interrupt} interfere={interfere} fcfs={fcfs}"
        );
    }

    #[test]
    fn delay_strategies_with_different_bounds_are_distinct_runs() {
        // The lookup is structural (`PolicySpec: PartialEq`): two
        // bounded-delay runs with different budgets must not shadow each
        // other.
        let short = Strategy::Delay { max_wait_secs: 1.0 };
        let long = Strategy::Delay {
            max_wait_secs: 30.0,
        };
        let cmp = compare(&[short, long]);
        let b = AppId(1);
        assert_eq!(cmp.run(&short.spec()).unwrap().spec, short.spec());
        assert_eq!(cmp.run(&long.spec()).unwrap().spec, long.spec());
        assert!(cmp
            .run(&Strategy::Delay { max_wait_secs: 2.0 }.spec())
            .is_none());
        // The budgets genuinely differ: the long delay serializes B behind
        // A for longer than the short one.
        let io = |s: Strategy| cmp.run(&s.spec()).unwrap().io_time(b).unwrap();
        assert!(io(long) >= io(short));
    }

    #[test]
    fn policy_comparison_mixes_legacy_and_extended_policies() {
        // The policy-keyed sweep runs built-in and enum-inexpressible
        // policies side by side on one scenario, one session per spec.
        let (pfs, apps) = scenario();
        let specs = [
            PolicySpec::new("interfering"),
            PolicySpec::new("fcfs"),
            PolicySpec::with_arg("priority", "w=cores"),
            PolicySpec::new("srpf"),
            PolicySpec::with_arg("rr", "2s"),
        ];
        let cmp = compare_policies(
            &pfs,
            &apps,
            &specs,
            Granularity::Round,
            DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
        .unwrap();
        assert_eq!(cmp.runs.len(), specs.len());
        for spec in &specs {
            let run = cmp.run(spec).unwrap();
            assert_eq!(run.report.policy, *spec);
            assert_eq!(cmp.run_labelled(&spec.to_text()).unwrap().spec, *spec);
            assert!(cmp.factor(spec, AppId(0)).unwrap() >= 1.0);
            assert!(cmp.metric(spec, EfficiencyMetric::TotalIoTime).unwrap() > 0.0);
            assert_eq!(cmp.observations(spec).unwrap().len(), 2);
        }
        // Differently-parameterized specs are distinct runs.
        assert!(cmp.run(&PolicySpec::with_arg("rr", "9s")).is_none());
        // An unknown policy is a typed configuration error.
        let err = compare_policies(
            &pfs,
            &apps,
            &[PolicySpec::new("warp")],
            Granularity::Round,
            DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Error::Config(calciom::ConfigError::Policy(_))
        ));
    }

    #[test]
    fn alone_times_are_positive_and_size_dependent() {
        let (pfs, apps) = scenario();
        let policy = DynamicPolicy::new(EfficiencyMetric::CpuSecondsWasted);
        let alone = compare_policies(&pfs, &apps, &[], Granularity::Round, policy)
            .unwrap()
            .alone;
        // The small application writes less data but is client-limited: its
        // stand-alone time is longer per byte; both must be positive.
        assert!(alone[&AppId(0)] > 0.0);
        assert!(alone[&AppId(1)] > 0.0);
    }
}
