//! Layer probes that sit *outside* the program: a timing wrapper around
//! any [`CoordinationTransport`] and a counting [`SimObserver`].
//!
//! Both plug into the trait seams a [`calciom::Session`] is generic
//! over, so the traced run executes the very same simulation code; the
//! benchmark checks that by comparing every traced report with the
//! untraced one.

use calciom::{
    AppId, Arbiter, ConfigError, CoordinationTransport, Scenario, SimEvent, SimObserver,
};
use simcore::SimTime;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Call count and accumulated wall-clock of one timed seam. Shared by
/// every clone of a transport handle.
#[derive(Debug, Default)]
pub struct SeamClock {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl SeamClock {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let result = f();
        // Statistics only: nothing else is published through these.
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        result
    }

    /// Calls timed so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Wall-clock spent inside the timed calls.
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// Clocks of one [`Timed`] transport: `visits` covers the protocol calls
/// that reach an arbiter, `wakeups` the per-step clock hooks
/// (`next_wakeup`, `deliver_due`) a session polls on every loop
/// iteration — work for an arbiter tree, a no-op for flat transports.
#[derive(Debug, Default)]
pub struct TransportClocks {
    /// Arbiter-visiting calls.
    pub visits: SeamClock,
    /// Per-step clock hooks.
    pub wakeups: SeamClock,
}

impl TransportClocks {
    /// Total wall-clock spent inside the transport.
    pub fn busy(&self) -> Duration {
        self.visits.busy() + self.wakeups.busy()
    }
}

/// A [`CoordinationTransport`] that forwards every method to `T` and
/// times it. Every trait method is forwarded, not left to the trait
/// defaults: an arbiter tree overrides routing, grants, message
/// accounting and the clock hooks, and a default would silently turn a
/// wrapped tree back into a flat arbiter.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    inner: T,
    clocks: Arc<TransportClocks>,
}

impl<T> Timed<T> {
    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// The clocks shared by every clone of this handle.
    pub fn clocks(&self) -> &TransportClocks {
        &self.clocks
    }
}

impl<T: CoordinationTransport> CoordinationTransport for Timed<T> {
    fn new(arbiter: Arbiter) -> Self {
        Timed {
            inner: T::new(arbiter),
            clocks: Arc::default(),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut Arbiter) -> R) -> R {
        self.clocks.visits.time(|| self.inner.with(f))
    }

    fn for_scenario(scenario: &Scenario, arbiter: Arbiter) -> Result<Self, ConfigError> {
        Ok(Timed {
            inner: T::for_scenario(scenario, arbiter)?,
            clocks: Arc::default(),
        })
    }

    fn with_app<R>(&self, app: AppId, f: impl FnOnce(&mut Arbiter) -> R) -> R {
        self.clocks.visits.time(|| self.inner.with_app(app, f))
    }

    fn is_granted(&self, app: AppId) -> bool {
        self.clocks.visits.time(|| self.inner.is_granted(app))
    }

    fn message_count(&self) -> u64 {
        self.clocks.visits.time(|| self.inner.message_count())
    }

    fn resumable(&self, waiting: &BTreeSet<AppId>) -> Vec<AppId> {
        self.clocks.visits.time(|| self.inner.resumable(waiting))
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.clocks.wakeups.time(|| self.inner.next_wakeup())
    }

    fn deliver_due(&self, now: SimTime, waiting: &BTreeSet<AppId>) -> Vec<AppId> {
        self.clocks
            .wakeups
            .time(|| self.inner.deliver_due(now, waiting))
    }
}

/// Counts the simulation events a session emits, forwarding each to an
/// inner observer. Progress sampling follows the inner observer, so a
/// counter around [`calciom::NullObserver`] keeps the session on its
/// unsampled path: sampling is extra engine work that the untraced run
/// never does.
#[derive(Debug, Default)]
pub struct Counting<O> {
    /// The wrapped observer.
    pub inner: O,
    /// Every event seen.
    pub events: u64,
    /// `TransferStarted` events — the medium insertions.
    pub transfers: u64,
}

impl<O> Counting<O> {
    /// A counter around `inner`.
    pub fn new(inner: O) -> Self {
        Counting {
            inner,
            events: 0,
            transfers: 0,
        }
    }
}

impl<O: SimObserver> SimObserver for Counting<O> {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        self.events += 1;
        if matches!(event, SimEvent::TransferStarted { .. }) {
            self.transfers += 1;
        }
        self.inner.on_event(at, event);
    }

    fn wants_progress(&self) -> bool {
        self.inner.wants_progress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calciom::{
        AccessPattern, AppConfig, ClusterTransport, NullObserver, PfsConfig, Session,
        SharedTransport, Strategy,
    };
    use workloads::ClusterMix;

    fn two_apps(strategy: Strategy) -> Scenario {
        let pattern = AccessPattern::contiguous(8.0e6);
        Scenario::builder(PfsConfig::grid5000_rennes())
            .app(AppConfig::new(AppId(0), "A", 336, pattern))
            .app(AppConfig::new(AppId(1), "B", 48, pattern).starting_at_secs(1.0))
            .strategy(strategy)
            .build()
            .expect("valid scenario")
    }

    #[test]
    fn counting_null_observer_keeps_progress_sampling_off() {
        assert!(!Counting::new(NullObserver).wants_progress());
    }

    #[test]
    fn timed_flat_transport_reproduces_the_untimed_report() {
        let scenario = two_apps(Strategy::FcfsSerialize);
        let plain = Session::<SharedTransport>::with_transport(&scenario)
            .and_then(Session::execute)
            .expect("plain run");
        let session = Session::<Timed<SharedTransport>>::with_transport(&scenario).expect("build");
        let handle = session.transport().clone();
        let mut counter = Counting::new(NullObserver);
        let timed = session.execute_with(&mut counter).expect("timed run");
        assert_eq!(timed, plain);
        assert!(handle.clocks().visits.calls() > 0);
        assert!(counter.events > 0 && counter.transfers > 0);
    }

    #[test]
    fn timed_cluster_transport_keeps_the_tree() {
        let mix = ClusterMix::default();
        let scenario = mix.scenario_hierarchical(Strategy::FcfsSerialize);
        let plain = Session::<ClusterTransport>::with_transport(&scenario).expect("build");
        let plain_handle = plain.transport().clone();
        let plain_report = plain.execute().expect("plain run");
        let timed = Session::<Timed<ClusterTransport>>::with_transport(&scenario).expect("build");
        let handle = timed.transport().clone();
        assert_eq!(timed.execute().expect("timed run"), plain_report);
        let (a, b) = (plain_handle.stats(), handle.inner().stats());
        assert_eq!(a.root_messages(), b.root_messages());
        assert!(b.escalations > 0, "the tree escalated through the wrapper");
    }
}
