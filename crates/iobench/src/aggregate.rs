//! Size sweeps: a small application interfering with a big one (Fig. 4).
//!
//! Application A runs on a fixed number of cores while the size of
//! application B varies (8 to 336 cores in the paper). Both start at the
//! same time; the figure reports the observed throughput of each
//! application against B's size, together with the throughput each would
//! achieve alone. The headline observation is that the small application's
//! throughput collapses (≈ 6× lower for an 8-core instance competing with a
//! 336-core one) even though the "fair" file system treats every request
//! stream equally.

use crate::baseline::BaselineCache;
use crate::parallel::{run_scenarios_sharded, ShardedRun};
use calciom::{Error, Scenario};
use mpiio::AppConfig;
use pfs::{AppId, PfsConfig};
use serde::{Deserialize, Serialize};
use simcore::SimTime;

/// Configuration of the size sweep.
#[derive(Debug, Clone)]
pub struct SizeSweepConfig {
    /// The shared file system.
    pub pfs: PfsConfig,
    /// Application A (fixed size).
    pub app_a: AppConfig,
    /// Template for application B; its process count is overridden by each
    /// entry of `b_sizes` (the per-process pattern is kept).
    pub app_b: AppConfig,
    /// The B sizes (process counts) to sweep.
    pub b_sizes: Vec<u32>,
    /// Worker threads (0 = all cores).
    pub threads: usize,
}

/// One point of the size sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizeSweepPoint {
    /// Number of processes of application B.
    pub b_procs: u32,
    /// Observed throughput of A while interfering with B (bytes/s).
    pub a_throughput: f64,
    /// Observed throughput of B while interfering with A (bytes/s).
    pub b_throughput: f64,
    /// Throughput A achieves alone (bytes/s).
    pub a_alone_throughput: f64,
    /// Throughput B achieves alone (bytes/s).
    pub b_alone_throughput: f64,
    /// Slowdown of B relative to running alone.
    pub b_slowdown: f64,
}

/// Runs the size sweep: one two-application scenario per B size, fanned
/// out through [`run_scenarios_sharded`]. The stand-alone baselines come
/// from the process-wide [`BaselineCache`], so A's is simulated once for
/// the whole sweep, not once per B size.
pub fn run_size_sweep(cfg: &SizeSweepConfig) -> Result<Vec<SizeSweepPoint>, Error> {
    let scenarios = cfg
        .b_sizes
        .iter()
        .map(|&procs| {
            let mut app_a = cfg.app_a.clone();
            let mut app_b = cfg.app_b.clone();
            app_a.start = SimTime::ZERO;
            app_b.start = SimTime::ZERO;
            app_b.procs = procs;
            Ok(Scenario::builder(cfg.pfs.clone())
                .apps([app_a, app_b])
                .build()?)
        })
        .collect::<Result<Vec<_>, Error>>()?;
    let runs = run_scenarios_sharded(&scenarios, cfg.threads, BaselineCache::global())?;
    Ok(scenarios
        .iter()
        .zip(&runs)
        .map(|(scenario, run)| size_point(&scenario.apps[0], &scenario.apps[1], run))
        .collect())
}

fn size_point(app_a: &AppConfig, app_b: &AppConfig, run: &ShardedRun) -> SizeSweepPoint {
    // Throughput alone: the phase's bytes over its stand-alone I/O time.
    let alone = |app: &AppConfig| -> f64 {
        match run.alone.get(&app.id) {
            Some(&t) if t > 0.0 => app.bytes_per_phase() / t,
            _ => 0.0,
        }
    };
    let throughput = |id: AppId| -> f64 {
        run.report
            .app(id)
            .map(|a| a.first_phase().throughput())
            .unwrap_or(0.0)
    };
    let a_throughput = throughput(app_a.id);
    let b_throughput = throughput(app_b.id);
    let b_alone_throughput = alone(app_b);
    SizeSweepPoint {
        b_procs: app_b.procs,
        a_throughput,
        b_throughput,
        a_alone_throughput: alone(app_a),
        b_alone_throughput,
        b_slowdown: if b_throughput > 0.0 {
            b_alone_throughput / b_throughput
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiio::AccessPattern;

    const MB: f64 = 1.0e6;

    fn sweep() -> SizeSweepConfig {
        // Fig. 4: A on 336 processes, B from 8 to 336, 16 MB per process.
        let pattern = AccessPattern::contiguous(16.0 * MB);
        SizeSweepConfig {
            pfs: PfsConfig::grid5000_rennes(),
            app_a: AppConfig::new(AppId(0), "A", 336, pattern),
            app_b: AppConfig::new(AppId(1), "B", 8, pattern),
            b_sizes: vec![8, 32, 96, 336],
            threads: 0,
        }
    }

    #[test]
    fn small_b_sees_a_large_slowdown() {
        let points = run_size_sweep(&sweep()).unwrap();
        assert_eq!(points.len(), 4);
        let at8 = &points[0];
        assert_eq!(at8.b_procs, 8);
        // The paper reports a ≈ 6× throughput decrease for the 8-core
        // instance; accept anything clearly disproportionate.
        assert!(
            at8.b_slowdown > 3.0,
            "8-core slowdown was only {}",
            at8.b_slowdown
        );
        // A keeps most of its alone throughput against a tiny B.
        assert!(at8.a_throughput > 0.6 * at8.a_alone_throughput);
    }

    #[test]
    fn slowdown_shrinks_as_b_grows() {
        let points = run_size_sweep(&sweep()).unwrap();
        let first = points.first().unwrap().b_slowdown;
        let last = points.last().unwrap().b_slowdown;
        assert!(
            last < first,
            "equal-sized B should be hurt less than a tiny B ({last} vs {first})"
        );
    }

    #[test]
    fn alone_throughputs_scale_with_size_until_server_limit() {
        let points = run_size_sweep(&sweep()).unwrap();
        let t8 = points[0].b_alone_throughput;
        let t336 = points[3].b_alone_throughput;
        assert!(t336 > 3.0 * t8, "t8={t8} t336={t336}");
    }
}
