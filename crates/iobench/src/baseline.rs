//! Shared cache of `T_alone` baselines.
//!
//! Every Δ-graph sweep and strategy comparison needs the stand-alone write
//! time of each application on the target file system — and sweeps ask for
//! the *same* `(AppConfig, PfsConfig)` pair at every point (and figures ask
//! again for every strategy). A [`BaselineCache`] memoizes
//! [`Session::run_alone`] results so each distinct pair is simulated once
//! per process; `delta`, `compare` and `aggregate` go through the
//! process-wide [`BaselineCache::global`].
//!
//! The cache key is the exact text encoding of the single-application
//! scenario `run_alone` executes (start time zeroed, default strategy), so
//! two configurations collide only if they describe bit-identical
//! simulations — in which case the cached value is, by determinism, the
//! value a fresh run would produce.
//!
//! ## Concurrency contract
//!
//! One cache may be shared by concurrent sweeps (the sharded
//! [`run_scenarios_sharded`](crate::run_scenarios_sharded) batches all go
//! through one instance):
//!
//! * **Values** — lookups hold the table lock, simulations run outside it.
//!   Two threads missing on the same pair both simulate, but the
//!   simulation is deterministic, so whichever insert lands last writes
//!   the same value: a cached answer never depends on interleaving.
//! * **Counters** — every request increments *exactly one* of `hits` /
//!   `misses` (atomically), so `hits() + misses()` always equals the total
//!   number of requests, from any mix of threads — including requests
//!   whose baseline simulation fails (they count as misses: a simulation
//!   really was attempted). A duplicated concurrent miss counts as two
//!   misses for the same reason, hence `len() <= misses()`, with equality
//!   once no two threads race on a fresh pair and nothing errors.

use calciom::{Error, Scenario, Session};
use mpiio::AppConfig;
use pfs::{AppId, PfsConfig};
use simcore::SimTime;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The memo table plus its insertion-order queue (the eviction order).
#[derive(Debug, Default)]
struct Table {
    map: BTreeMap<String, f64>,
    order: VecDeque<String>,
}

/// A memo table of stand-alone first-phase I/O times, keyed on the exact
/// `(application, file system)` pair.
///
/// The cache may be bounded: [`BaselineCache::with_capacity`] (or
/// [`BaselineCache::set_capacity`] on a live cache, e.g. the global one
/// inside a long-running server) caps the number of entries, evicting in
/// insertion order once full. A capacity of 0 — the [`BaselineCache::new`]
/// default — means unbounded, which keeps the historical sweep behavior:
/// a figure sweep touches a fixed, small set of pairs and wants them all
/// resident.
#[derive(Debug, Default)]
pub struct BaselineCache {
    table: Mutex<Table>,
    /// Maximum entries; 0 means unbounded.
    capacity: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BaselineCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        BaselineCache::default()
    }

    /// An empty cache holding at most `capacity` entries (0 = unbounded).
    pub fn with_capacity(capacity: usize) -> Self {
        let cache = BaselineCache::new();
        cache.capacity.store(capacity, Ordering::Relaxed);
        cache
    }

    /// Re-bounds a live cache (0 = unbounded). Shrinking below the
    /// current size evicts the oldest entries immediately.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        let mut table = self.table();
        self.evict_over_capacity(&mut table);
    }

    /// The capacity in force (0 = unbounded).
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Locks the memo table. The single place the lock is acquired — and
    /// the single justified panic: a poisoned lock means another sweep
    /// thread died mid-insert, and no baseline answer can be trusted.
    fn table(&self) -> std::sync::MutexGuard<'_, Table> {
        // simlint: allow(R4, poisoned lock means a worker panicked; continuing would serve corrupt baselines)
        self.table.lock().expect("baseline cache lock")
    }

    /// Drops the oldest entries until the table fits the capacity. Must
    /// be called with the lock held (takes the guard's target).
    fn evict_over_capacity(&self, table: &mut Table) {
        let capacity = self.capacity();
        if capacity == 0 {
            return;
        }
        while table.map.len() > capacity {
            let Some(oldest) = table.order.pop_front() else {
                break;
            };
            if table.map.remove(&oldest).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The process-wide cache shared by the sweep harnesses.
    pub fn global() -> &'static BaselineCache {
        static GLOBAL: OnceLock<BaselineCache> = OnceLock::new();
        GLOBAL.get_or_init(BaselineCache::new)
    }

    /// The stand-alone first-phase I/O time of `app` on `pfs` — computed
    /// through [`Session::run_alone`] on the first request for this pair,
    /// served from the cache afterwards. The simulation is deterministic,
    /// so a cached answer is exactly the answer a fresh run would give.
    pub fn alone_time(&self, app: &AppConfig, pfs: &PfsConfig) -> Result<f64, Error> {
        let key = Self::key(app, pfs);
        if let Some(&cached) = self.table().map.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(cached);
        }
        // Count the miss up front so the hits/misses invariant holds even
        // when the simulation below fails, then simulate outside the
        // lock: concurrent misses for the same pair duplicate work but
        // always insert the same deterministic value.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Session::run_alone(app.clone(), pfs.clone())?;
        let mut table = self.table();
        if table.map.insert(key.clone(), value).is_none() {
            table.order.push_back(key);
        }
        self.evict_over_capacity(&mut table);
        Ok(value)
    }

    /// How many requests were answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// How many requests had to run a baseline session.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// How many entries were dropped to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct `(app, pfs)` pairs cached.
    pub fn len(&self) -> usize {
        self.table().map.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached baseline (counters are kept; entries dropped
    /// here do not count as evictions).
    pub fn clear(&self) {
        let mut table = self.table();
        table.map.clear();
        table.order.clear();
    }

    /// The cache key: the *canonical* serialized form of the scenario
    /// [`Session::run_alone`] would execute. Every field the baseline run
    /// is invariant to is normalized away — `run_alone` zeroes the start
    /// time itself, and a stand-alone session's result cannot depend on
    /// the application's id or display name — and the text is passed once
    /// through the codec (`from_text ∘ to_text`), so any two descriptions
    /// of the same baseline simulation share one entry.
    fn key(app: &AppConfig, pfs: &PfsConfig) -> String {
        let mut app = app.clone();
        app.start = SimTime::ZERO;
        app.id = AppId(0);
        app.name = String::new();
        let text = Scenario::new(pfs.clone(), vec![app]).to_text();
        Scenario::from_text(&text)
            .map(|s| s.to_text())
            .unwrap_or(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpiio::AccessPattern;
    use pfs::AppId;

    const MB: f64 = 1.0e6;

    fn app(id: usize, procs: u32, mb: f64) -> AppConfig {
        AppConfig::new(AppId(id), "A", procs, AccessPattern::contiguous(mb * MB))
    }

    #[test]
    fn cache_returns_the_uncached_value_and_stops_simulating() {
        let cache = BaselineCache::new();
        let pfs = PfsConfig::grid5000_rennes();
        let a = app(0, 336, 16.0);

        let uncached = Session::run_alone(a.clone(), pfs.clone()).unwrap();
        let first = cache.alone_time(&a, &pfs).unwrap();
        let second = cache.alone_time(&a, &pfs).unwrap();
        assert_eq!(first, uncached, "cached path must not change results");
        assert_eq!(second, uncached);
        // The session count drops: one simulation for two requests.
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn start_offset_does_not_split_the_cache() {
        // `run_alone` zeroes the start time, so Δ-graph variants of one
        // application share a single baseline entry.
        let cache = BaselineCache::new();
        let pfs = PfsConfig::grid5000_rennes();
        cache.alone_time(&app(0, 336, 16.0), &pfs).unwrap();
        cache
            .alone_time(&app(0, 336, 16.0).starting_at_secs(7.5), &pfs)
            .unwrap();
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn identity_fields_do_not_split_the_cache() {
        // Two descriptions of the same baseline simulation — differing
        // only in application id, display name, and start offset — must
        // share one cache entry: the key is canonical, not literal.
        let cache = BaselineCache::new();
        let pfs = PfsConfig::grid5000_rennes();
        cache.alone_time(&app(0, 336, 16.0), &pfs).unwrap();
        let twin = AppConfig::new(
            AppId(7),
            "same workload, different label",
            336,
            AccessPattern::contiguous(16.0 * MB),
        )
        .starting_at_secs(3.25);
        cache.alone_time(&twin, &pfs).unwrap();
        assert_eq!(cache.misses(), 1, "the twin must hit, not re-simulate");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_pairs_get_distinct_entries() {
        let cache = BaselineCache::new();
        let rennes = PfsConfig::grid5000_rennes();
        let nancy = PfsConfig::grid5000_nancy();
        let t_rennes = cache.alone_time(&app(0, 336, 16.0), &rennes).unwrap();
        let t_nancy = cache.alone_time(&app(0, 336, 16.0), &nancy).unwrap();
        let t_small = cache.alone_time(&app(1, 48, 16.0), &rennes).unwrap();
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.len(), 3);
        assert_ne!(t_rennes, t_nancy);
        assert_ne!(t_rennes, t_small);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_sweeps_keep_counters_consistent() {
        // The documented contract: whatever the interleaving, every
        // request lands in exactly one counter and every cached value is
        // the deterministic simulation result.
        let cache = BaselineCache::new();
        let pfs = PfsConfig::grid5000_rennes();
        let apps: Vec<AppConfig> = (0..4).map(|i| app(i, 48 + 16 * i as u32, 8.0)).collect();
        let expected: Vec<f64> = apps
            .iter()
            .map(|a| Session::run_alone(a.clone(), pfs.clone()).unwrap())
            .collect();

        const THREADS: usize = 8;
        const ROUNDS: usize = 5;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                let apps = &apps;
                let expected = &expected;
                let pfs = &pfs;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // Shards walk the pairs in different orders to
                        // exercise racy first requests.
                        for k in 0..apps.len() {
                            let i = (k + t + round) % apps.len();
                            let got = cache.alone_time(&apps[i], pfs).unwrap();
                            assert_eq!(got, expected[i], "interleaving changed a value");
                        }
                    }
                });
            }
        });

        let requests = (THREADS * ROUNDS * apps.len()) as u64;
        assert_eq!(
            cache.hits() + cache.misses(),
            requests,
            "every request must land in exactly one counter"
        );
        assert_eq!(cache.len(), apps.len());
        // Duplicate concurrent misses are allowed (each one really
        // simulated) but can never exceed one per thread per pair.
        assert!(cache.misses() >= apps.len() as u64);
        assert!(cache.misses() <= (apps.len() * THREADS) as u64);
    }

    #[test]
    fn invalid_configurations_still_error_and_are_not_cached() {
        let cache = BaselineCache::new();
        let mut pfs = PfsConfig::grid5000_rennes();
        pfs.num_servers = 0;
        assert!(cache.alone_time(&app(0, 336, 16.0), &pfs).is_err());
        assert!(cache.is_empty());
        // The counter invariant covers failed requests too: the attempt
        // counts as a miss, so hits + misses still equals total requests.
        assert_eq!(cache.hits() + cache.misses(), 1);
    }

    #[test]
    fn bounded_cache_evicts_in_insertion_order() {
        let cache = BaselineCache::with_capacity(2);
        let pfs = PfsConfig::grid5000_rennes();
        // Three distinct pairs through a capacity-2 cache: the first
        // inserted entry is the one evicted.
        cache.alone_time(&app(0, 336, 16.0), &pfs).unwrap();
        cache.alone_time(&app(0, 48, 16.0), &pfs).unwrap();
        cache.alone_time(&app(0, 112, 16.0), &pfs).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // The evicted (oldest) pair must re-simulate; the resident ones
        // must not.
        cache.alone_time(&app(0, 112, 16.0), &pfs).unwrap();
        assert_eq!(cache.hits(), 1);
        cache.alone_time(&app(0, 336, 16.0), &pfs).unwrap();
        assert_eq!(cache.misses(), 4, "evicted entry re-simulates");
        // Re-caching the value must still give the deterministic answer.
        let direct = Session::run_alone(app(0, 336, 16.0), pfs.clone()).unwrap();
        assert_eq!(cache.alone_time(&app(0, 336, 16.0), &pfs).unwrap(), direct);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately_and_zero_unbounds() {
        let cache = BaselineCache::new();
        assert_eq!(cache.capacity(), 0, "default is unbounded");
        let pfs = PfsConfig::grid5000_rennes();
        for procs in [48, 112, 336] {
            cache.alone_time(&app(0, procs, 16.0), &pfs).unwrap();
        }
        assert_eq!(cache.len(), 3);
        cache.set_capacity(1);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 2);
        cache.set_capacity(0);
        for procs in [48, 112, 336] {
            cache.alone_time(&app(0, procs, 16.0), &pfs).unwrap();
        }
        assert_eq!(cache.len(), 3, "capacity 0 lifts the bound again");
        assert_eq!(cache.evictions(), 2);
    }
}
