//! Host-speed reference.
//!
//! The benchmark runs on a guest whose host is shared with other
//! guests. What they do to the shared caches and memory slows memory
//! access by up to 1.8× for minutes at a time, and CPU time does not
//! leave that out: a whole run can read 1.6× slow. [`Reference`] walks a
//! table larger than the private caches at random, a fixed amount of
//! work of the benchmark's own, right after every measured sample. Each
//! sample is scaled by how slow the walks around it ran
//! ([`Reference::bracket`], [`Reference::scaled`]). The walk uses no code of
//! the program, so a change to the program moves the scaled figure as
//! much as the raw one; the raw figures are printed alongside.

use crate::process_cpu_time;
use crate::stats::median;
use std::hint::black_box;

/// Entries of the table (8 MiB of `u64`).
const TABLE: usize = 1 << 20;
/// Random reads per probe.
const READS: usize = 200_000;

/// CPU seconds one probe takes on an undisturbed host: the median over
/// a calm stretch on a 2-vCPU KVM guest (Xeon, family 6 model 143). It
/// fixes the unit of the scaled figures: CPU seconds on that host.
pub const NOMINAL_PROBE_S: f64 = 0.0019;

/// The reference walk and the probes taken over one run.
pub struct Reference {
    table: Vec<u64>,
    /// CPU seconds of every probe, in order.
    pub probes: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Fills the table (every page touched, so it is resident before
    /// anything is measured).
    pub fn new() -> Reference {
        let mut x: u64 = 1;
        let table = (0..TABLE)
            .map(|_| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x
            })
            .collect();
        Reference {
            table,
            probes: Vec::new(),
        }
    }

    /// Size of the table in MB, which every run's peak RSS includes.
    pub fn table_mb() -> f64 {
        (TABLE * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Times one walk and records it.
    pub fn probe(&mut self) {
        let cpu0 = process_cpu_time();
        let mut r: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut sum = 0u64;
        for _ in 0..READS {
            r ^= r << 13;
            r ^= r >> 7;
            r ^= r << 17;
            sum = sum.wrapping_add(self.table[(r as usize) & (TABLE - 1)]);
        }
        black_box(sum);
        self.probes
            .push(process_cpu_time().saturating_sub(cpu0).as_secs_f64());
    }

    /// Takes a probe right after a sample and returns the mean of the
    /// two probes around it, the host's speed while the sample ran.
    pub fn bracket(&mut self) -> f64 {
        self.probe();
        let last = &self.probes[self.probes.len().saturating_sub(2)..];
        last.iter().sum::<f64>() / last.len() as f64
    }

    /// Raw seconds over the host speed they ran at, in the unit of the
    /// undisturbed host: `raw × NOMINAL_PROBE_S / host`.
    pub fn scaled(raw: f64, host: f64) -> f64 {
        raw * NOMINAL_PROBE_S / host
    }

    /// The median probe of the run, 0 before the first.
    pub fn typical(&self) -> f64 {
        median(&self.probes).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_scaled_by_the_mean_of_the_probes_around_it() {
        let mut reference = Reference::new();
        reference.probe();
        let host = reference.bracket();
        let probes = &reference.probes;
        assert_eq!(probes.len(), 2);
        assert!(probes.iter().all(|p| *p > 0.0));
        assert_eq!(host, (probes[0] + probes[1]) / 2.0);
        assert_eq!(Reference::scaled(3.0, 2.0 * NOMINAL_PROBE_S), 1.5);
    }
}
