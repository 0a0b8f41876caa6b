//! Multi-machine application mixes: M machines × N applications over one
//! shared parallel file system.
//!
//! The paper coordinates applications *within* one machine; the
//! hierarchical arbitration layer (`calciom::cluster`) extends the
//! mechanism across machines that share a center-wide PFS. [`ClusterMix`]
//! generates the matching workload: each machine draws its own
//! [`MachineMix`] (seed-offset per machine, so machines differ but the
//! whole cluster is a pure function of the configuration), application
//! ids are remapped into one global namespace, and the result packages
//! either as a *hierarchical* scenario (a [`ClusterSpec`] tree: one leaf
//! arbiter per machine under a slot-owning root) or as the *flat*
//! baseline (every application talks to one arbiter) — identical
//! applications, identical horizon, so a flat-vs-hierarchical comparison
//! varies nothing but the coordination topology.
//!
//! ```
//! use workloads::cluster_mix::ClusterMix;
//! use calciom::Strategy;
//!
//! let mix = ClusterMix { machines: 2, apps_per_machine: 4, ..ClusterMix::default() };
//! let hier = mix.scenario_hierarchical(Strategy::FcfsSerialize);
//! let flat = mix.scenario_flat(Strategy::FcfsSerialize);
//! assert_eq!(hier.apps, flat.apps);
//! assert!(hier.cluster.is_some() && flat.cluster.is_none());
//! ```

use crate::machine_mix::MachineMix;
use calciom::cluster::{ClusterSpec, MachineSpec};
use calciom::{PolicySpec, Scenario};
use mpiio::AppConfig;
use pfs::AppId;
use serde::{Deserialize, Serialize};
use simcore::time::SimDuration;

/// Seed offset between consecutive machines' draws (a prime, so machine
/// streams never collide for any base seed).
const MACHINE_SEED_STRIDE: u64 = 10_007;

/// Generator of M-machine cluster mixes over a shared PFS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterMix {
    /// Number of machines (leaf arbiters).
    pub machines: usize,
    /// Applications drawn per machine.
    pub apps_per_machine: usize,
    /// Per-machine draw template: PFS sizing, size buckets, phase
    /// structure, start jitter, medium. Its `apps` and `seed` fields are
    /// overridden per machine (`apps_per_machine`, `seed + m × stride`).
    pub template: MachineMix,
    /// Shared-PFS bandwidth slots the root arbiter owns (how many
    /// machines may access the file system concurrently).
    pub slots: u32,
    /// Cross-arbiter message latency per machine edge, in seconds —
    /// every escalation, grant and slot return between a leaf and the
    /// root is delayed by this much of simulated time.
    pub latency_secs: f64,
    /// Rotation quantum in seconds: how long a machine may hold a
    /// contended slot before the root revokes it. Rotation traffic is
    /// `makespan / quantum` messages, so studies that grow the cluster
    /// (and with it the makespan) scale this with the machine count to
    /// keep root traffic proportional to M rather than to the aggregate
    /// offered load.
    pub quantum_secs: f64,
}

impl Default for ClusterMix {
    fn default() -> Self {
        ClusterMix {
            machines: 2,
            apps_per_machine: 8,
            template: MachineMix::default(),
            slots: 1,
            latency_secs: 0.001,
            quantum_secs: 30.0,
        }
    }
}

impl ClusterMix {
    /// The per-machine generator for machine `m`: the template with the
    /// per-machine application count and a seed-stride offset.
    fn machine_mix(&self, m: usize) -> MachineMix {
        MachineMix {
            apps: self.apps_per_machine,
            seed: self
                .template
                .seed
                .wrapping_add(m as u64 * MACHINE_SEED_STRIDE),
            ..self.template.clone()
        }
    }

    /// All generated applications in global id order: machine `m`'s `i`-th
    /// application becomes `AppId(m × apps_per_machine + i)`, named
    /// `m{m}.mix-{i}`. Deterministic per configuration.
    pub fn applications(&self) -> Vec<AppConfig> {
        let n = self.apps_per_machine;
        (0..self.machines)
            .flat_map(|m| {
                self.machine_mix(m)
                    .applications()
                    .into_iter()
                    .map(move |mut app| {
                        app.id = AppId(m * n + app.id.0);
                        app.name = format!("m{m}.{}", app.name);
                        app
                    })
            })
            .collect()
    }

    /// The arbiter-tree topology: one [`MachineSpec`] per machine with
    /// its global application ids and the uniform edge latency.
    pub fn spec(&self) -> ClusterSpec {
        let n = self.apps_per_machine;
        let mut spec = ClusterSpec::new(
            self.slots,
            (0..self.machines)
                .map(|m| MachineSpec {
                    latency: SimDuration::from_secs(self.latency_secs),
                    apps: (0..n).map(|i| AppId(m * n + i)).collect(),
                })
                .collect(),
        );
        spec.quantum = SimDuration::from_secs(self.quantum_secs);
        spec
    }

    /// The hierarchical scenario: the mix's applications under an
    /// arbiter tree ([`spec`](Self::spec)). The leaves run the policy
    /// unchanged; the tree only adds the slot layer.
    pub fn scenario_hierarchical(&self, policy: impl Into<PolicySpec>) -> Scenario {
        let mut scenario = self.scenario_flat(policy);
        scenario.cluster = Some(self.spec());
        scenario
    }

    /// The flat baseline: the exact same applications and horizon, every
    /// application coordinating through one machine-wide arbiter.
    pub fn scenario_flat(&self, policy: impl Into<PolicySpec>) -> Scenario {
        let mut scenario = self.base_scenario();
        scenario.arbitration = policy.into();
        scenario
    }

    fn base_scenario(&self) -> Scenario {
        let pfs = &self.template.pfs;
        let apps = self.applications();
        // Same horizon rule as `MachineMix`, over the whole cluster: wide
        // enough that even a fully serialized schedule (every machine
        // waiting its turn for the shared PFS) fits.
        let total_alone: f64 = apps
            .iter()
            .map(|a| a.estimate_alone_seconds(pfs) * a.phases.max(1) as f64)
            .sum();
        let longest_period: f64 = apps
            .iter()
            .map(|a| a.phase_interval.as_secs() * a.phases.max(1) as f64)
            .fold(0.0, f64::max);
        let horizon = self.template.start_window_secs
            + longest_period
            + total_alone * 4.0
            + self.latency_secs * 8.0 * self.machines as f64
            + 3600.0;
        let mut scenario = Scenario::new(pfs.clone(), apps);
        scenario.horizon = SimDuration::from_secs(horizon);
        scenario.medium = self.template.medium;
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calciom::{SharingModel, Strategy};

    fn mix(machines: usize, n: usize, seed: u64) -> ClusterMix {
        ClusterMix {
            machines,
            apps_per_machine: n,
            template: MachineMix {
                seed,
                max_procs: 512,
                bytes_per_proc: (0.5e6, 2.0e6),
                ..MachineMix::default()
            },
            ..ClusterMix::default()
        }
    }

    #[test]
    fn ids_are_globally_contiguous_and_machines_differ() {
        let mix = mix(3, 4, 11);
        let apps = mix.applications();
        assert_eq!(apps.len(), 12);
        for (i, app) in apps.iter().enumerate() {
            assert_eq!(app.id, AppId(i));
        }
        assert!(apps[0].name.starts_with("m0."));
        assert!(apps[4].name.starts_with("m1."));
        // Different seed offsets: the machines draw different mixes.
        let m0: Vec<_> = apps[0..4].iter().map(|a| (a.procs, a.start)).collect();
        let m1: Vec<_> = apps[4..8].iter().map(|a| (a.procs, a.start)).collect();
        assert_ne!(m0, m1, "machine draws must not be clones");
        // Deterministic per configuration.
        assert_eq!(apps, mix.applications());
    }

    #[test]
    fn spec_matches_the_applications_and_validates() {
        let mix = mix(3, 4, 11);
        let scenario = mix.scenario_hierarchical(Strategy::FcfsSerialize);
        scenario.validate().expect("cluster scenarios validate");
        let spec = scenario.cluster.as_ref().expect("hierarchical has a tree");
        assert_eq!(spec.machines.len(), 3);
        assert_eq!(spec.slots, 1);
        assert_eq!(
            spec.machines[1].apps,
            vec![AppId(4), AppId(5), AppId(6), AppId(7)]
        );
        assert_eq!(
            spec.machines[0].latency,
            SimDuration::from_secs(mix.latency_secs)
        );
    }

    #[test]
    fn flat_and_hierarchical_share_everything_but_the_tree() {
        let mix = mix(2, 6, 7);
        let flat = mix.scenario_flat(Strategy::FcfsSerialize);
        let hier = mix.scenario_hierarchical(Strategy::FcfsSerialize);
        assert_eq!(flat.apps, hier.apps);
        assert_eq!(flat.horizon, hier.horizon);
        assert!(flat.cluster.is_none());
        assert!(hier.cluster.is_some());
        // The cluster key survives the scenario codec.
        let text = hier.to_text();
        assert!(text.contains("cluster = "), "missing cluster key:\n{text}");
        assert_eq!(Scenario::from_text(&text).unwrap(), hier);
    }

    #[test]
    fn hierarchical_mix_runs_to_completion() {
        let mix = mix(2, 3, 5);
        let hier = mix.scenario_hierarchical(Strategy::FcfsSerialize);
        let report = hier.run().unwrap();
        assert_eq!(report.apps.len(), 6);
        for (cfg, app) in hier.apps.iter().zip(&report.apps) {
            assert_eq!(
                app.phases.len(),
                cfg.phases as usize,
                "app {} starved",
                cfg.id
            );
        }
        // Cross-machine serialization through one slot costs more wall
        // time than the flat arbiter's single queue would, never less.
        let flat = mix.scenario_flat(Strategy::FcfsSerialize).run().unwrap();
        assert!(report.makespan >= flat.makespan);
    }

    #[test]
    fn policy_scenarios_run_on_the_fast_medium() {
        let mut mix = mix(2, 3, 9);
        mix.template.medium = SharingModel::FairFast;
        let scenario = mix.scenario_hierarchical(PolicySpec::with_arg("delay", "30s"));
        assert_eq!(scenario.medium, SharingModel::FairFast);
        let report = scenario.run().unwrap();
        assert_eq!(report.apps.len(), 6);
        assert_eq!(report.policy.to_text(), "delay(30s)");
    }
}
