//! # calciom — Cross-Application Layer for Coordinated I/O Management
//!
//! A reproduction of the framework described in *"CALCioM: Mitigating I/O
//! Interference in HPC Systems through Cross-Application Coordination"*
//! (Dorier, Antoniu, Ross, Kimpe, Ibrahim — IPDPS 2014).
//!
//! Concurrent HPC applications that write to a shared parallel file system
//! interfere with each other: storage servers interleave their request
//! streams, breaking each application's individually optimized access
//! pattern and hurting machine-wide efficiency. CALCioM lets the running
//! applications *talk to each other*: each one shares a small amount of
//! information about its ongoing and upcoming I/O ([`IoInfo`], the paper's
//! `MPI_Info` payload) and, based on that shared knowledge and a
//! machine-wide efficiency metric ([`EfficiencyMetric`]), the framework
//! picks one of four strategies ([`Strategy`]):
//!
//! * **Interfere** — let the accesses proceed concurrently,
//! * **FCFS serialize** — the later application waits,
//! * **Interrupt** — the earlier application yields at its next
//!   coordination point and resumes afterwards,
//! * **Dynamic** — pick whichever of the above minimizes the metric, using
//!   the exchanged information ([`DynamicPolicy`]).
//!
//! The arbitration layer is *open*: a scenario names its policy once, as a
//! [`PolicySpec`] (`fcfs`, `delay(30s)`, `priority(w=cores)`, `rr(10s)`,
//! …) that the [`PolicyRegistry`] resolves into an [`ArbitrationPolicy`];
//! the [`Arbiter`] is a pure mechanism engine delegating every decision
//! to it. The paper's five options are registry entries, and each
//! [`Strategy`] variant is shorthand for one of their specs — see the
//! [`arbitration`] module.
//!
//! The crate couples three layers (all part of this reproduction):
//! the [`pfs`] parallel-file-system simulator, the [`mpiio`] MPI-IO model
//! (access patterns, collective buffering, ADIO hook points), and this
//! coordination layer. The [`Session`] type runs a complete scenario and
//! produces per-application, per-phase timings.
//!
//! Execution is *observable*: [`Session::execute_with`] streams every
//! [`SimEvent`] (grants, interruptions, transfer progress, …) to a
//! [`SimObserver`] — record a replayable [`Trace`] with [`TraceRecorder`],
//! derive Gantt/bandwidth views with [`TimelineAggregator`], or fold your
//! own. The [`SessionReport`] is itself derived from that stream, so a
//! recorded trace replays to the same report bit for bit.
//!
//! ## Quick start
//!
//! ```
//! use calciom::{Scenario, Strategy};
//! use mpiio::{AccessPattern, AppConfig};
//! use pfs::{AppId, PfsConfig};
//!
//! // Two 336-process applications, each writing 16 MB per process;
//! // B starts 2 seconds after A.
//! let a = AppConfig::new(AppId(0), "App A", 336, AccessPattern::contiguous(16.0e6));
//! let b = AppConfig::new(AppId(1), "App B", 336, AccessPattern::contiguous(16.0e6))
//!     .starting_at_secs(2.0);
//!
//! // Without coordination they interfere...
//! let interfering = Scenario::builder(PfsConfig::grid5000_rennes())
//!     .apps([a.clone(), b.clone()])
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//!
//! // ...with CALCioM the second one is serialized after the first.
//! let coordinated = Scenario::builder(PfsConfig::grid5000_rennes())
//!     .apps([a, b])
//!     .strategy(Strategy::FcfsSerialize)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//!
//! let t_first = |r: &calciom::SessionReport| r.apps[0].first_phase().io_time();
//! // The first application is protected by serialization.
//! assert!(t_first(&coordinated) < t_first(&interfering));
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod arbiter;
pub mod arbitration;
pub mod cluster;
pub mod error;
pub mod info;
pub mod metrics;
pub mod observe;
pub mod policy;
pub mod scenario;
pub mod session;
pub mod strategy;
pub mod timeline;
pub mod trace;

pub use api::{CoordinationTransport, Coordinator, LocalTransport, SharedTransport};
pub use arbiter::Arbiter;
pub use arbitration::{
    ArbiterView, ArbitrationPolicy, GrantTrigger, ParkReason, PolicyError, PolicyRegistry,
    PolicySpec, RequestDecision, TimeoutDecision, YieldDecision,
};
pub use cluster::{ClusterSpec, ClusterStats, ClusterTransport, MachineLoad, MachineSpec};
pub use error::{
    AppRunState, ClusterConfigError, ConfigError, DeadlockApp, Error, InfoError,
    ScenarioParseError, SessionError, TraceParseError,
};
pub use info::IoInfo;
pub use metrics::{
    cpu_seconds_wasted_per_core, evaluate, interference_factor, AppObservation, EfficiencyMetric,
};
pub use observe::{AppSeed, GrantKind, NullObserver, ReportBuilder, SimEvent, SimObserver};
pub use policy::{DynDecision, DynamicPolicy};
pub use scenario::{Scenario, ScenarioBuilder};
pub use session::{AppReport, PhaseResult, Session, SessionReport};
pub use strategy::{AccessOutcome, Strategy, YieldOutcome};
pub use timeline::{Activity, BandwidthPoint, GanttInterval, Timeline, TimelineAggregator};
pub use trace::{Trace, TraceRecorder};

// Re-export the identifiers users need from the substrate crates so that
// simple programs only have to depend on `calciom`.
pub use mpiio::{AccessPattern, AppConfig, CollectiveConfig, Granularity};
pub use pfs::{AppId, CacheConfig, PfsConfig, SharePolicy};
pub use simcore::fair::SharingModel;
