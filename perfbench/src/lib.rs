//! End-to-end and per-layer benchmark of the CALCioM stack.
//!
//! Three workloads: two machine-scale sweeps ([`machine`]) and a
//! `calciom-serve` traffic mix ([`serve_mix`]), driven closed loop for
//! the end-to-end figures and open loop at fixed rates in the traced run. A run with
//! tracing off reports the [`END_TO_END`] metrics; a traced run reports
//! the [`PER_LAYER`] metrics, measured from outside the program by the
//! [`probe`] wrappers around the layers' public seams.

pub mod calib;
pub mod loadgen;
pub mod machine;
pub mod probe;
pub mod report;
pub mod serve_mix;
pub mod stats;

use std::collections::BTreeMap;

/// End-to-end metrics (name, unit), reported by every workload with
/// tracing off. `setup_s` and `run_s` are medians of CPU seconds (see
/// [`process_cpu_time`]) scaled by the host speed they ran at (see
/// [`calib::Reference`]); the raw and wall-clock figures are printed
/// alongside. `peak_rss_mb` leaves out the reference's table.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (name, unit), reported by every workload in the
/// traced run. A layer a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("arbiter.calls", "count"),
    ("arbiter.busy_s", "s"),
    ("arbiter.ns_per_call", "ns"),
    ("arbiter.messages", "count"),
    ("arbiter.share", "fraction"),
    ("cluster.busy_s", "s"),
    ("cluster.root_messages", "count"),
    ("cluster.escalations", "count"),
    ("engine.busy_s", "s"),
    ("engine.events", "count"),
    ("engine.transfers", "count"),
    ("engine.ns_per_transfer", "ns"),
    ("engine.share", "fraction"),
    ("session_s.interfering", "s"),
    ("session_s.fcfs", "s"),
    ("session_s.interrupt", "s"),
    ("session_s.delay5s", "s"),
    ("session_s.dynamic", "s"),
    ("session_s.cluster", "s"),
    ("iobench.prepare_s", "s"),
    ("iobench.prepare_share", "fraction"),
    ("iobench.baseline_misses", "count"),
    ("codec.parse_us", "us"),
    ("json.serialize_us", "us"),
    ("simulate_us.run", "us"),
    ("simulate_us.timeline", "us"),
    ("simulate_us.trace", "us"),
    ("service.handle_ms.p50", "ms"),
    ("service.handle_ms.p99", "ms"),
    ("frontend_ms.p50", "ms"),
    ("frontend_ms.p99", "ms"),
    ("cache.hit_ratio", "fraction"),
    ("cache.lookups", "count"),
    ("cache.hit_ms.p50", "ms"),
    ("p50_ms.light", "ms"),
    ("p99_ms.light", "ms"),
    ("p50_ms.heavy", "ms"),
    ("p99_ms.heavy", "ms"),
    ("max_rps", "1/s"),
    ("gen.lag_ms.p99", "ms"),
    ("failed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// A fixed set of named metrics, all starting at 0, emitted in
/// declaration order — so every workload reports the same names.
#[derive(Debug, Clone)]
pub struct MetricSet {
    spec: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    /// All metrics of `spec` at 0.
    pub fn new(spec: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            spec,
            values: spec.iter().map(|(name, _)| (*name, 0.0)).collect(),
        }
    }

    /// Sets one metric.
    ///
    /// # Panics
    /// On a name outside the set — a typo in the benchmark itself.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => panic!("unknown metric {name}"),
        }
    }

    /// Records every metric into `report`.
    pub fn emit(&self, report: &mut report::Report) {
        for (name, unit) in self.spec {
            report.metric(name, self.values[name], unit);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has consumed, all threads (`clock_gettime`
/// with `CLOCK_PROCESS_CPUTIME_ID`). With paravirtualized steal-time
/// accounting the kernel leaves time stolen by other guests out of it.
pub fn process_cpu_time() -> std::time::Duration {
    cpu_clock(2)
}

/// CPU time the calling thread has consumed (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_time() -> std::time::Duration {
    cpu_clock(3)
}

/// Reads a Linux CPU-time clock; zero if the call fails.
fn cpu_clock(clock: std::os::raw::c_int) -> std::time::Duration {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`
    // for the duration of the call; the clock ids are Linux constants.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return std::time::Duration::ZERO;
    }
    std::time::Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
