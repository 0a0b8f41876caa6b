//! Fluid-flow bandwidth-sharing model.
//!
//! Ongoing data transfers are modelled as *flows* draining a fixed number of
//! bytes through one or more capacity *constraints* (client links, the
//! interconnect, storage servers). Whenever the set of active flows or a
//! capacity changes, per-flow rates are recomputed with **weighted max-min
//! fairness** (progressive filling): each flow receives bandwidth
//! proportionally to its weight until it hits its own rate cap or a shared
//! constraint saturates.
//!
//! This is the mechanism that reproduces the paper's central observation
//! (Section II): a parallel file system shares its bandwidth per *request
//! stream*, not per *application*, so an application with many processes
//! crowds out a small one — the small application's interference factor can
//! reach 14× (Fig. 6b) even though the sharing is "fair" at the request
//! level.
//!
//! ## Incremental allocation
//!
//! Rates are recomputed *incrementally*: the network maintains, per
//! constraint, the list of flows currently competing on it, and every
//! mutation (a flow added, removed, paused, resumed or completed; a
//! capacity changed) marks only the finite-capacity constraints it
//! touches. The next rate query re-solves just the affected *components* —
//! the transitive closure of flows connected through binding-capable
//! constraints — and leaves every other flow's allocation untouched.
//! Infinite-capacity constraints never bind, so they never couple
//! components. A *finite* shared constraint does: the default file-system
//! presets have a finite interconnect that every flow crosses, so there
//! all participating flows form one component and each completion re-solves
//! every survivor.
//!
//! The invariant behind this (checked by a from-scratch re-solve after
//! every incremental pass in debug builds): flows in different components
//! share no finite constraint, so the max-min allocation of a component
//! depends only on that component's flows and capacities.
//!
//! ## Storage and summation order
//!
//! Because every solve of a component may touch thousands of flows, the
//! network keeps dense, index-based storage: flow states live in a slab
//! whose freed slots are recycled (storage follows the number of live
//! flows, not the number ever added); a sorted id index maps the public,
//! monotonic [`FlowId`] to its slot; per-constraint membership lists are
//! sorted by id, so a join is normally a push. A component is gathered
//! with epoch-stamped visit marks and one sort of the gathered ids, and
//! the solver reuses its working buffers across calls.
//!
//! Every iteration and every floating-point sum runs in **ascending
//! `FlowId` order** — the flows of a component in the solver, and all
//! flows in [`FluidNetwork::advance`], [`FluidNetwork::aggregate_rate`],
//! [`FluidNetwork::flow_ids`], [`FluidNetwork::completed_flows`] and
//! [`FluidNetwork::stalled_flows`]. That order is the bit-identity
//! invariant: an incremental re-solve yields exactly the bits a
//! from-scratch [`FluidNetwork::recompute`] yields, and rates do not
//! depend on how the storage is laid out.

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Numerical tolerance for byte counts and rates.
pub(crate) const EPS: f64 = 1e-9;
/// A flow whose remaining volume falls below this many bytes is complete.
const COMPLETE_BYTES: f64 = 1e-6;
/// Relative completion slack. `advance` integrates `remaining -= rate · dt`
/// in f64 per step, so a flow advanced in many segments accumulates
/// rounding drift proportional to its volume (about one ulp of `bytes`
/// per step). A flow is therefore snapped complete when its remaining
/// volume is within `bytes · COMPLETE_REL` of zero — comfortably above
/// thousands of steps of drift (~2e-13 · bytes), yet orders of magnitude
/// below the bytes a real flow moves in one simulator tick.
const COMPLETE_REL: f64 = 1e-12;

/// Bytes below which a flow of the given total volume counts as complete.
pub(crate) fn completion_threshold(bytes: f64) -> f64 {
    COMPLETE_BYTES.max(bytes * COMPLETE_REL)
}

/// Handle to a capacity constraint (e.g. one storage server's bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ConstraintId(pub usize);

/// Handle to a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowId(pub u64);

/// Static description of a flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowSpec {
    /// Total number of bytes the flow must transfer.
    pub bytes: f64,
    /// Fair-share weight (typically the number of client processes backing
    /// the flow).
    pub weight: f64,
    /// Upper bound on the flow's own rate in bytes/s (e.g. the aggregate
    /// client-side link bandwidth). May be `f64::INFINITY` if at least one
    /// constraint is attached.
    pub rate_cap: f64,
    /// The shared constraints this flow traverses.
    pub constraints: Vec<ConstraintId>,
}

impl FlowSpec {
    /// Convenience constructor for a flow crossing the given constraints.
    pub fn new(bytes: f64, weight: f64, rate_cap: f64, constraints: Vec<ConstraintId>) -> Self {
        FlowSpec {
            bytes,
            weight,
            rate_cap,
            constraints,
        }
    }
}

#[derive(Debug, Clone)]
struct FlowState {
    spec: FlowSpec,
    remaining: f64,
    transferred: f64,
    rate: f64,
    paused: bool,
}

impl FlowState {
    fn is_complete(&self) -> bool {
        self.remaining <= completion_threshold(self.spec.bytes)
    }

    /// Whether the flow takes part in the allocation.
    fn participates(&self) -> bool {
        !self.paused && !self.is_complete()
    }
}

/// Snapshot of a flow's progress, returned by accessors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlowProgress {
    /// Bytes still to transfer.
    pub remaining: f64,
    /// Bytes transferred so far.
    pub transferred: f64,
    /// Current allocated rate in bytes/s (0 when paused or starved).
    pub rate: f64,
    /// Whether the flow is currently paused.
    pub paused: bool,
}

/// A flow as the index and the membership lists record it: its public id
/// (the sort key) and its slab slot.
#[derive(Debug, Clone, Copy)]
struct FlowRef {
    id: FlowId,
    slot: u32,
}

/// Slot of a removed flow's entry in the id index, until compaction.
const VACANT: u32 = u32::MAX;

/// Working storage for component collection and solving, reused across
/// calls so a re-solve allocates nothing once the buffers have grown.
#[derive(Debug, Clone, Default)]
struct Workspace {
    /// Stamp of the current pass: a flow slot or constraint whose mark
    /// equals it was already reached in this pass.
    epoch: u32,
    flow_mark: Vec<u32>,
    constraint_mark: Vec<u32>,
    stack: Vec<usize>,
    /// The component being solved, in ascending id order.
    component: Vec<FlowRef>,
    /// The finite constraints the component spans.
    span: Vec<usize>,
    cap_left: Vec<f64>,
    weight_on: Vec<f64>,
    /// Solved rates, parallel to `component`.
    rate: Vec<f64>,
    /// Positions in `component` of the flows still being filled.
    unfrozen: Vec<usize>,
}

impl Workspace {
    /// Starts a pass in which every flow and constraint is unvisited.
    fn begin_pass(&mut self, slots: usize, constraints: usize) {
        if self.epoch == u32::MAX {
            self.epoch = 0;
            self.flow_mark.fill(0);
            self.constraint_mark.fill(0);
        }
        self.epoch += 1;
        self.flow_mark.resize(slots, 0);
        self.constraint_mark.resize(constraints, 0);
        self.weight_on.resize(constraints, 0.0);
    }
}

/// The fluid network: a set of constraints and the flows sharing them.
#[derive(Debug, Clone, Default)]
pub struct FluidNetwork {
    capacities: Vec<f64>,
    /// Flow states by slot. A freed slot keeps its last state until a new
    /// flow reuses it; nothing refers to it meanwhile.
    slots: Vec<FlowState>,
    free_slots: Vec<u32>,
    /// Registered flows in ascending id order. A removal leaves a
    /// [`VACANT`] entry, swept out once they make up half the index.
    index: Vec<FlowRef>,
    vacant: usize,
    next_flow: u64,
    /// Per-constraint *participating* flows (neither paused nor complete),
    /// in ascending id order — the adjacency the incremental solver walks.
    members: Vec<Vec<FlowRef>>,
    /// Constraints whose component must be re-solved before the next rate
    /// query (duplicates allowed).
    dirty_constraints: Vec<usize>,
    /// Changed flows that cross no finite constraint (their rate is their
    /// own cap; nobody else is affected).
    dirty_lone: Vec<FlowId>,
    /// Completions since the last [`FluidNetwork::drain_completed`].
    newly_completed: Vec<FlowId>,
    /// The earliest completion at current rates, while it is known: set
    /// by a scan or by a completion-free [`FluidNetwork::advance`], cleared
    /// whenever rates are re-solved.
    next_completion: Option<Option<SimDuration>>,
    /// Boxed: scratch space, so it need not widen every value that
    /// embeds a network.
    work: Box<Workspace>,
}

impl FluidNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a capacity constraint (bytes/s) and returns its handle.
    pub fn add_constraint(&mut self, capacity: f64) -> ConstraintId {
        assert!(capacity >= 0.0, "constraint capacity must be non-negative");
        self.capacities.push(capacity);
        self.members.push(Vec::new());
        ConstraintId(self.capacities.len() - 1)
    }

    /// Number of constraints in the network.
    pub fn constraint_count(&self) -> usize {
        self.capacities.len()
    }

    /// Current capacity of a constraint.
    pub fn capacity(&self, id: ConstraintId) -> f64 {
        self.capacities[id.0]
    }

    /// Updates the capacity of a constraint (used by the PFS layer to model
    /// cache-full transitions and locality-breakage penalties).
    pub fn set_capacity(&mut self, id: ConstraintId, capacity: f64) {
        assert!(capacity >= 0.0, "constraint capacity must be non-negative");
        let old = self.capacities[id.0];
        let changed = if old.is_finite() && capacity.is_finite() {
            (old - capacity).abs() > EPS
        } else {
            old != capacity
        };
        if changed {
            self.capacities[id.0] = capacity;
            self.dirty_constraints.push(id.0);
        }
    }

    /// Registers a new flow and returns its handle. Rates are lazily
    /// recomputed on the next query.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(spec.bytes >= 0.0, "flow volume must be non-negative");
        assert!(spec.weight > 0.0, "flow weight must be positive");
        assert!(
            spec.rate_cap > 0.0,
            "flow rate cap must be positive (use f64::INFINITY for uncapped)"
        );
        assert!(
            spec.rate_cap.is_finite() || !spec.constraints.is_empty(),
            "a flow must have a finite rate cap or at least one constraint"
        );
        for c in &spec.constraints {
            assert!(c.0 < self.capacities.len(), "unknown constraint {c:?}");
        }
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        let state = FlowState {
            remaining: spec.bytes,
            transferred: 0.0,
            rate: 0.0,
            paused: false,
            spec,
        };
        let participates = state.participates();
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = state;
                slot
            }
            None => {
                self.slots.push(state);
                u32::try_from(self.slots.len() - 1).unwrap_or(VACANT)
            }
        };
        assert!(slot != VACANT, "too many concurrent flows");
        // Ids only grow, so the index stays sorted by pushing.
        let flow = FlowRef { id, slot };
        self.index.push(flow);
        if participates {
            self.relink(flow, true);
        }
        id
    }

    /// Removes a flow (complete or not) and returns its final progress.
    pub fn remove_flow(&mut self, id: FlowId) -> Option<FlowProgress> {
        let pos = self.index_position(id)?;
        let flow = self.index[pos];
        if self.slots[flow.slot as usize].participates() {
            self.relink(flow, false);
        }
        self.index[pos].slot = VACANT;
        self.vacant += 1;
        if 2 * self.vacant > self.index.len() {
            self.index.retain(|f| f.slot != VACANT);
            self.vacant = 0;
        }
        self.free_slots.push(flow.slot);
        let st = &self.slots[flow.slot as usize];
        Some(FlowProgress {
            remaining: st.remaining,
            transferred: st.transferred,
            rate: 0.0,
            paused: st.paused,
        })
    }

    /// Pauses a flow: it stops consuming bandwidth but keeps its remaining
    /// volume (used by the interruption strategy).
    pub fn pause_flow(&mut self, id: FlowId) {
        let Some(flow) = self.lookup(id) else {
            return;
        };
        let f = &mut self.slots[flow.slot as usize];
        if f.paused {
            return;
        }
        let was_active = !f.is_complete();
        f.paused = true;
        f.rate = 0.0;
        if was_active {
            self.relink(flow, false);
        }
    }

    /// Resumes a paused flow.
    pub fn resume_flow(&mut self, id: FlowId) {
        let Some(flow) = self.lookup(id) else {
            return;
        };
        let f = &mut self.slots[flow.slot as usize];
        if !f.paused {
            return;
        }
        f.paused = false;
        if !f.is_complete() {
            self.relink(flow, true);
        }
    }

    /// Returns the progress snapshot of a flow.
    pub fn progress(&mut self, id: FlowId) -> Option<FlowProgress> {
        self.ensure_rates();
        self.state(id).map(|f| FlowProgress {
            remaining: f.remaining,
            transferred: f.transferred,
            rate: f.rate,
            paused: f.paused,
        })
    }

    /// True if the flow has transferred all of its bytes.
    pub fn is_complete(&self, id: FlowId) -> bool {
        self.state(id).is_some_and(FlowState::is_complete)
    }

    /// Number of registered flows (complete flows stay registered until
    /// removed).
    pub fn flow_count(&self) -> usize {
        self.index.len() - self.vacant
    }

    /// Iterates over all flow ids in deterministic (insertion id) order.
    pub fn flow_ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.live().map(|f| f.id)
    }

    /// Current rate of a flow in bytes/s.
    pub fn rate(&mut self, id: FlowId) -> f64 {
        self.ensure_rates();
        self.state(id).map(|f| f.rate).unwrap_or(0.0)
    }

    /// Aggregate rate (bytes/s) over all active flows.
    pub fn aggregate_rate(&mut self) -> f64 {
        self.ensure_rates();
        self.live().map(|f| self.slots[f.slot as usize].rate).sum()
    }

    /// Time until the earliest active flow completes at current rates, or
    /// `None` if no active flow is making progress.
    pub fn time_to_next_completion(&mut self) -> Option<SimDuration> {
        self.ensure_rates();
        if let Some(next) = self.next_completion {
            return next;
        }
        let mut best: Option<f64> = None;
        for flow in self.live() {
            let f = &self.slots[flow.slot as usize];
            if f.paused || f.is_complete() || f.rate <= EPS {
                continue;
            }
            let t = f.remaining / f.rate;
            best = Some(best.map_or(t, |b| b.min(t)));
        }
        let next = best.map(SimDuration::from_secs);
        self.next_completion = Some(next);
        next
    }

    /// Advances every active flow by `dt` at its current rate. Flows never
    /// overshoot: remaining volume is clamped at zero.
    ///
    /// Rates are piecewise constant between mutations, so advancing does
    /// *not* by itself invalidate the allocation — only the flows that
    /// complete during the step mark their constraints for an incremental
    /// re-fill.
    pub fn advance(&mut self, dt: SimDuration) {
        self.ensure_rates();
        let secs = dt.as_secs();
        if secs <= 0.0 {
            return;
        }
        let first_completion = self.newly_completed.len();
        // The earliest next completion among the survivors: the same
        // minimum over the same values `time_to_next_completion` scans
        // for, valid as long as nothing completes in this step.
        let mut best: Option<f64> = None;
        for flow in &self.index {
            if flow.slot == VACANT {
                continue;
            }
            let f = &mut self.slots[flow.slot as usize];
            if f.paused || f.rate <= EPS {
                continue;
            }
            let moved = (f.rate * secs).min(f.remaining);
            // simlint: allow(R5, moved is clamped to remaining and the threshold below snaps completion exactly)
            f.remaining -= moved;
            f.transferred += moved;
            // The relative slack snaps a flow complete when per-step f64
            // integration drift would otherwise leave it a few ulps short
            // at its own predicted completion instant (which would cost an
            // extra near-zero event round to mop up).
            if f.is_complete() {
                f.transferred = f.spec.bytes;
                f.remaining = 0.0;
                f.rate = 0.0;
                self.newly_completed.push(flow.id);
            } else {
                let t = f.remaining / f.rate;
                best = Some(best.map_or(t, |b| b.min(t)));
            }
        }
        // Completions free capacity for the survivors of their component.
        for i in first_completion..self.newly_completed.len() {
            let id = self.newly_completed[i];
            if let Some(flow) = self.lookup(id) {
                self.relink(flow, false);
            }
        }
        self.next_completion = if self.newly_completed.len() == first_completion {
            Some(best.map(SimDuration::from_secs))
        } else {
            None
        };
    }

    /// Flows that completed since the last call, in completion order.
    pub fn drain_completed(&mut self) -> Vec<FlowId> {
        std::mem::take(&mut self.newly_completed)
    }

    /// Active (unpaused, incomplete) flows currently allocated a zero
    /// rate — starved by binding constraints (e.g. a zero-capacity
    /// constraint) or by an infinite-cap-on-infinite-constraint
    /// degeneracy. Such flows never produce a completion event, so a
    /// session driving the network would hang without detecting them.
    pub fn stalled_flows(&mut self) -> Vec<FlowId> {
        self.ensure_rates();
        self.live()
            .filter(|f| {
                let f = &self.slots[f.slot as usize];
                f.participates() && f.rate <= EPS
            })
            .map(|f| f.id)
            .collect()
    }

    /// Flows that are complete but still registered.
    pub fn completed_flows(&self) -> Vec<FlowId> {
        self.live()
            .filter(|f| self.slots[f.slot as usize].is_complete())
            .map(|f| f.id)
            .collect()
    }

    /// Forces a full rate recomputation (normally done incrementally).
    pub fn recompute(&mut self) {
        self.dirty_constraints.extend(0..self.capacities.len());
        for flow in &self.index {
            if flow.slot != VACANT && self.slots[flow.slot as usize].spec.constraints.is_empty() {
                self.dirty_lone.push(flow.id);
            }
        }
        self.ensure_rates();
    }

    /// Registered flows in ascending id order.
    fn live(&self) -> impl Iterator<Item = FlowRef> + '_ {
        self.index.iter().copied().filter(|f| f.slot != VACANT)
    }

    /// Position of a registered flow in the id index.
    fn index_position(&self, id: FlowId) -> Option<usize> {
        let pos = self.index.binary_search_by_key(&id, |f| f.id).ok()?;
        (self.index[pos].slot != VACANT).then_some(pos)
    }

    fn lookup(&self, id: FlowId) -> Option<FlowRef> {
        self.index_position(id).map(|pos| self.index[pos])
    }

    fn state(&self, id: FlowId) -> Option<&FlowState> {
        self.lookup(id).map(|f| &self.slots[f.slot as usize])
    }

    /// Adds a flow to (`join`) or removes it from the membership lists of
    /// its constraints and marks the affected part of the network for
    /// re-solving: the finite constraints it crosses, or — when it crosses
    /// none (infinite-only or constraint-free) and so affects nobody
    /// else — the flow itself, for the lone-flow shortcut.
    fn relink(&mut self, flow: FlowRef, join: bool) {
        let mut has_finite = false;
        for c in &self.slots[flow.slot as usize].spec.constraints {
            let members = &mut self.members[c.0];
            let pos = members.partition_point(|m| m.id < flow.id);
            if join {
                // Ids only grow: a new flow lands at the end (a push).
                members.insert(pos, flow);
            } else if members.get(pos).is_some_and(|m| m.id == flow.id) {
                members.remove(pos);
            }
            if self.capacities[c.0].is_finite() {
                has_finite = true;
                self.dirty_constraints.push(c.0);
            }
        }
        if !has_finite {
            self.dirty_lone.push(flow.id);
        }
    }

    /// Re-solves whatever the accumulated mutations touched. Untouched
    /// components keep their rates verbatim.
    fn ensure_rates(&mut self) {
        if self.dirty_constraints.is_empty() && self.dirty_lone.is_empty() {
            return;
        }
        self.next_completion = None;
        for id in std::mem::take(&mut self.dirty_lone) {
            self.solve_lone(id);
        }
        let mut seeds = std::mem::take(&mut self.dirty_constraints);
        seeds.sort_unstable();
        seeds.dedup();
        self.work
            .begin_pass(self.slots.len(), self.capacities.len());
        for seed in seeds {
            if self.capacities[seed].is_finite() {
                self.solve_component(seed);
            } else {
                // The constraint stopped binding (capacity raised to
                // infinity): each member's residual component — and members
                // left without any binding constraint — must be re-solved.
                for i in 0..self.members[seed].len() {
                    let flow = self.members[seed][i];
                    let first_finite = self.slots[flow.slot as usize]
                        .spec
                        .constraints
                        .iter()
                        .find(|c| self.capacities[c.0].is_finite())
                        .map(|c| c.0);
                    match first_finite {
                        Some(c) => self.solve_component(c),
                        None => self.solve_lone(flow.id),
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        self.assert_consistent();
    }

    /// A participating flow with no binding-capable constraint runs at its
    /// own cap (or is starved if it has none — the degenerate
    /// infinite-on-infinite case).
    fn solve_lone(&mut self, id: FlowId) {
        let Some(flow) = self.lookup(id) else {
            return;
        };
        let f = &mut self.slots[flow.slot as usize];
        f.rate = if f.participates() && f.spec.rate_cap.is_finite() {
            f.spec.rate_cap
        } else {
            0.0
        };
    }

    /// Solves the component reachable from `seed` through finite
    /// constraints (skipping it if an earlier seed of this pass already
    /// covered it) and installs the resulting rates.
    fn solve_component(&mut self, seed: usize) {
        if self.work.constraint_mark[seed] == self.work.epoch {
            return;
        }
        self.collect_component(seed);
        if self.work.component.is_empty() {
            return;
        }
        Self::solve(&self.capacities, &self.slots, &mut self.work);
        for (flow, &rate) in self.work.component.iter().zip(&self.work.rate) {
            self.slots[flow.slot as usize].rate = rate;
        }
    }

    /// Gathers into `work.component` the transitive closure of flows
    /// connected to `seed` through finite-capacity constraints, in
    /// ascending id order, and into `work.span` the finite constraints it
    /// spans, marking both as visited in the current pass.
    fn collect_component(&mut self, seed: usize) {
        let Workspace {
            epoch,
            flow_mark,
            constraint_mark,
            stack,
            component,
            span,
            ..
        } = &mut *self.work;
        component.clear();
        span.clear();
        constraint_mark[seed] = *epoch;
        stack.push(seed);
        while let Some(c) = stack.pop() {
            span.push(c);
            for &flow in &self.members[c] {
                let mark = &mut flow_mark[flow.slot as usize];
                if *mark == *epoch {
                    continue;
                }
                *mark = *epoch;
                component.push(flow);
                for c2 in &self.slots[flow.slot as usize].spec.constraints {
                    if constraint_mark[c2.0] != *epoch && self.capacities[c2.0].is_finite() {
                        constraint_mark[c2.0] = *epoch;
                        stack.push(c2.0);
                    }
                }
            }
        }
        component.sort_unstable_by_key(|f| f.id);
        span.sort_unstable();
    }

    /// Weighted max-min fair allocation of `work.component` via
    /// progressive filling: raise every unfrozen flow's rate in lockstep
    /// (proportionally to its weight) until either the flow hits its own
    /// cap or one of its constraints saturates; freeze and repeat. The
    /// rates land in `work.rate`.
    ///
    /// The component must be *closed*: every finite constraint crossed by
    /// a component flow has all of its participating flows in the
    /// component, and `work.span` lists exactly those constraints. The
    /// result then depends only on the component, which is what makes the
    /// incremental path equivalent to a from-scratch solve. (Infinite
    /// constraints are left out of the span: they never limit the
    /// increment and never saturate.)
    fn solve(capacities: &[f64], slots: &[FlowState], work: &mut Workspace) {
        let Workspace {
            component,
            span,
            cap_left,
            weight_on,
            rate,
            unfrozen,
            ..
        } = work;
        let n_constraints = capacities.len();
        cap_left.clear();
        cap_left.extend_from_slice(capacities);
        rate.clear();
        rate.resize(component.len(), 0.0);
        unfrozen.clear();
        unfrozen.extend(0..component.len());
        let state = |i: usize| &slots[component[i].slot as usize];

        let mut guard = 0usize;
        let max_iters = unfrozen.len() + n_constraints + 2;
        while !unfrozen.is_empty() && guard <= max_iters {
            guard += 1;

            // Weight crossing each constraint.
            for &c in span.iter() {
                weight_on[c] = 0.0;
            }
            for &i in unfrozen.iter() {
                let f = state(i);
                for c in &f.spec.constraints {
                    weight_on[c.0] += f.spec.weight;
                }
            }

            // Largest uniform per-weight increment permitted by constraints.
            let mut delta = f64::INFINITY;
            for &c in span.iter() {
                let w = weight_on[c];
                if w > EPS {
                    delta = delta.min((cap_left[c]).max(0.0) / w);
                }
            }
            // ... and by per-flow caps.
            for &i in unfrozen.iter() {
                let f = state(i);
                if f.spec.rate_cap.is_finite() {
                    delta = delta.min((f.spec.rate_cap - rate[i]).max(0.0) / f.spec.weight);
                }
            }

            if !delta.is_finite() {
                // No binding constraint and no finite cap: cannot happen
                // because add_flow requires one of the two; defensively stop.
                break;
            }

            // Apply the increment.
            if delta > 0.0 {
                for &i in unfrozen.iter() {
                    rate[i] += state(i).spec.weight * delta;
                }
                for &c in span.iter() {
                    let w = weight_on[c];
                    if w > EPS {
                        cap_left[c] -= w * delta;
                    }
                }
            }

            // Freeze flows that hit their cap or cross a saturated constraint.
            let before = unfrozen.len();
            unfrozen.retain(|&i| {
                let f = state(i);
                let capped = f.spec.rate_cap.is_finite() && rate[i] >= f.spec.rate_cap - EPS;
                let blocked = f.spec.constraints.iter().any(|c| cap_left[c.0] <= EPS);
                !(capped || blocked)
            });
            if unfrozen.len() == before && delta <= EPS {
                // No progress possible (all remaining flows starved).
                for &i in unfrozen.iter() {
                    rate[i] = 0.0;
                }
                break;
            }
        }
    }

    /// Debug-only invariant: the incrementally maintained allocation must
    /// agree with a from-scratch solve of every component.
    #[cfg(debug_assertions)]
    fn assert_consistent(&mut self) {
        let mut expected: Vec<Option<f64>> = vec![None; self.slots.len()];
        self.work
            .begin_pass(self.slots.len(), self.capacities.len());
        for c in 0..self.capacities.len() {
            if self.work.constraint_mark[c] == self.work.epoch || !self.capacities[c].is_finite() {
                continue;
            }
            self.collect_component(c);
            if self.work.component.is_empty() {
                continue;
            }
            Self::solve(&self.capacities, &self.slots, &mut self.work);
            for (flow, &rate) in self.work.component.iter().zip(&self.work.rate) {
                expected[flow.slot as usize] = Some(rate);
            }
        }
        for flow in self.live() {
            let f = &self.slots[flow.slot as usize];
            let want = if f.participates() {
                match expected[flow.slot as usize] {
                    Some(r) => r,
                    // Not in any finite component: the lone-flow shortcut.
                    None if f.spec.rate_cap.is_finite() => f.spec.rate_cap,
                    None => 0.0,
                }
            } else {
                0.0
            };
            let tolerance = 1e-9 * want.abs().max(1.0);
            debug_assert!(
                (f.rate - want).abs() <= tolerance,
                "incremental allocation diverged for {:?}: have {}, from-scratch {want}",
                flow.id,
                f.rate
            );
        }
    }

    /// Slab slots allocated (live plus recyclable) and id-index entries
    /// (live plus not yet swept), for storage-bound tests.
    #[cfg(test)]
    fn storage_len(&self) -> (usize, usize) {
        (self.slots.len(), self.index.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * b.abs().max(1.0)
    }

    #[test]
    fn single_flow_gets_min_of_cap_and_constraint() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(1000.0, 1.0, 60.0, vec![server]));
        assert!(approx(net.rate(f), 60.0));

        let g = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![server]));
        // f capped at 60 is below its fair share; g takes the rest.
        assert!(approx(net.rate(f), 50.0) || net.rate(f) <= 60.0 + 1e-6);
        assert!(approx(net.rate(f) + net.rate(g), 100.0));
    }

    #[test]
    fn equal_weights_split_evenly() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let a = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        let b = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        assert!(approx(net.rate(a), 50.0));
        assert!(approx(net.rate(b), 50.0));
    }

    #[test]
    fn weights_bias_the_split() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let big = net.add_flow(FlowSpec::new(1e6, 3.0, f64::INFINITY, vec![server]));
        let small = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        assert!(approx(net.rate(big), 75.0));
        assert!(approx(net.rate(small), 25.0));
    }

    #[test]
    fn capped_flow_leaves_spare_bandwidth_to_others() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let capped = net.add_flow(FlowSpec::new(1e6, 1.0, 10.0, vec![server]));
        let open = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        assert!(approx(net.rate(capped), 10.0));
        assert!(approx(net.rate(open), 90.0));
    }

    #[test]
    fn multi_constraint_bottleneck_is_respected() {
        let mut net = FluidNetwork::new();
        let wide = net.add_constraint(1000.0);
        let narrow = net.add_constraint(30.0);
        let through_both = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![wide, narrow]));
        let wide_only = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![wide]));
        assert!(approx(net.rate(through_both), 30.0));
        assert!(approx(net.rate(wide_only), 970.0));
    }

    #[test]
    fn advance_and_completion() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(200.0, 1.0, f64::INFINITY, vec![server]));
        let ttc = net.time_to_next_completion().unwrap();
        assert!(approx(ttc.as_secs(), 2.0));
        net.advance(SimDuration::from_secs(1.0));
        assert!(approx(net.progress(f).unwrap().remaining, 100.0));
        net.advance(SimDuration::from_secs(1.0));
        assert!(net.is_complete(f));
        assert_eq!(net.completed_flows(), vec![f]);
        assert!(net.time_to_next_completion().is_none());
    }

    #[test]
    fn many_segment_flow_completes_at_its_predicted_instant() {
        // Regression for per-step f64 integration drift: a flow advanced
        // in thousands of segments accumulates rounding error in
        // `remaining -= rate * dt` and used to land a few hundred ulps
        // short of the absolute completion threshold at its own predicted
        // completion time, costing an extra near-zero event round. The
        // relative completion slack must absorb that drift.
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(1.0e8 / 7.0); // non-representable rate
        let f = net.add_flow(FlowSpec::new(1.0e9, 1.0, f64::INFINITY, vec![server]));
        let total = net.time_to_next_completion().unwrap();
        // Alternating uneven segments (prime tick counts) so the per-step
        // rounding errors do not telescope away; this pattern accumulates
        // ~1.2e-5 bytes of drift, an order of magnitude above the absolute
        // completion threshold.
        let mut left = total.ticks();
        let mut toggle = true;
        while left > 0 {
            let step = if toggle { 7919 } else { 104_729 }.min(left);
            net.advance(SimDuration::from_ticks(step));
            left -= step;
            toggle = !toggle;
        }
        assert!(
            net.is_complete(f),
            "drift left the flow incomplete at its predicted completion: {:?}",
            net.progress(f).unwrap()
        );
        assert_eq!(net.drain_completed(), vec![f]);
        let p = net.progress(f).unwrap();
        assert_eq!(p.remaining, 0.0);
        assert_eq!(p.transferred, 1.0e9);
    }

    #[test]
    fn stalled_flows_reports_zero_rate_active_flows() {
        let mut net = FluidNetwork::new();
        let dead = net.add_constraint(0.0);
        let live = net.add_constraint(100.0);
        let stuck = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![dead]));
        let ok = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![live]));
        assert_eq!(net.stalled_flows(), vec![stuck]);
        // Paused and completed flows are not "stalled".
        net.pause_flow(stuck);
        assert!(net.stalled_flows().is_empty());
        net.advance(SimDuration::from_secs(10.0));
        assert!(net.is_complete(ok));
        assert!(net.stalled_flows().is_empty());
    }

    #[test]
    fn advance_never_overshoots() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(50.0, 1.0, f64::INFINITY, vec![server]));
        net.advance(SimDuration::from_secs(10.0));
        let p = net.progress(f).unwrap();
        assert_eq!(p.remaining, 0.0);
        assert!(approx(p.transferred, 50.0));
    }

    #[test]
    fn pause_and_resume() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let a = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![server]));
        let b = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![server]));
        net.pause_flow(a);
        assert_eq!(net.rate(a), 0.0);
        assert!(approx(net.rate(b), 100.0), "paused flow frees its share");
        net.advance(SimDuration::from_secs(1.0));
        assert!(approx(net.progress(a).unwrap().remaining, 1000.0));
        net.resume_flow(a);
        assert!(approx(net.rate(a), 50.0));
    }

    #[test]
    fn completion_frees_capacity_for_survivors() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let short = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![server]));
        let long = net.add_flow(FlowSpec::new(1000.0, 1.0, f64::INFINITY, vec![server]));
        // Both run at 50 B/s; the short one finishes after 2 s.
        let ttc = net.time_to_next_completion().unwrap();
        assert!(approx(ttc.as_secs(), 2.0));
        net.advance(ttc);
        assert!(net.is_complete(short));
        assert!(approx(net.rate(long), 100.0));
    }

    #[test]
    fn set_capacity_changes_rates() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        assert!(approx(net.rate(f), 100.0));
        net.set_capacity(server, 10.0);
        assert!(approx(net.rate(f), 10.0));
        assert!(approx(net.capacity(server), 10.0));
    }

    #[test]
    fn remove_flow_returns_progress() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![server]));
        net.advance(SimDuration::from_secs(0.5));
        let p = net.remove_flow(f).unwrap();
        assert!(approx(p.transferred, 50.0));
        assert!(approx(p.remaining, 50.0));
        assert_eq!(net.flow_count(), 0);
        assert!(net.remove_flow(f).is_none());
    }

    #[test]
    fn zero_byte_flow_is_immediately_complete() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let f = net.add_flow(FlowSpec::new(0.0, 1.0, f64::INFINITY, vec![server]));
        assert!(net.is_complete(f));
    }

    #[test]
    fn aggregate_rate_sums_all_flows() {
        let mut net = FluidNetwork::new();
        let s1 = net.add_constraint(100.0);
        let s2 = net.add_constraint(40.0);
        net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![s1]));
        net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![s2]));
        assert!(approx(net.aggregate_rate(), 140.0));
    }

    #[test]
    fn zero_capacity_constraint_starves_flows() {
        let mut net = FluidNetwork::new();
        let dead = net.add_constraint(0.0);
        let f = net.add_flow(FlowSpec::new(100.0, 1.0, f64::INFINITY, vec![dead]));
        assert_eq!(net.rate(f), 0.0);
        assert!(net.time_to_next_completion().is_none());
    }

    #[test]
    #[should_panic]
    fn unknown_constraint_panics() {
        let mut net = FluidNetwork::new();
        net.add_flow(FlowSpec::new(1.0, 1.0, 1.0, vec![ConstraintId(3)]));
    }

    #[test]
    #[should_panic]
    fn uncapped_unconstrained_flow_panics() {
        let mut net = FluidNetwork::new();
        net.add_flow(FlowSpec::new(1.0, 1.0, f64::INFINITY, vec![]));
    }

    // --- Edge cases the property suite does not reach ---

    #[test]
    fn zero_byte_flow_consumes_no_bandwidth() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let empty = net.add_flow(FlowSpec::new(0.0, 5.0, f64::INFINITY, vec![server]));
        let real = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        // The complete flow is excluded from the allocation: despite its
        // larger weight the whole capacity goes to the active flow.
        assert_eq!(net.rate(empty), 0.0);
        assert!(approx(net.rate(real), 100.0));
        assert!(net.completed_flows().contains(&empty));
    }

    #[test]
    fn zero_byte_flow_survives_advance_and_removal() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let empty = net.add_flow(FlowSpec::new(0.0, 1.0, f64::INFINITY, vec![server]));
        net.advance(SimDuration::from_secs(3.0));
        let p = net.progress(empty).unwrap();
        assert_eq!(p.remaining, 0.0);
        assert_eq!(p.transferred, 0.0);
        let removed = net.remove_flow(empty).unwrap();
        assert_eq!(removed.transferred, 0.0);
        assert_eq!(net.flow_count(), 0);
    }

    #[test]
    fn constraint_free_flow_runs_at_its_cap() {
        // A flow attached to no constraints is legal with a finite cap: it
        // models a transfer limited only by the client-side link.
        let mut net = FluidNetwork::new();
        let f = net.add_flow(FlowSpec::new(120.0, 2.0, 40.0, vec![]));
        assert!(approx(net.rate(f), 40.0));
        let ttc = net.time_to_next_completion().unwrap();
        assert!(approx(ttc.as_secs(), 3.0));
        net.advance(ttc);
        assert!(net.is_complete(f));
    }

    #[test]
    fn constraint_free_flows_do_not_contend() {
        let mut net = FluidNetwork::new();
        let a = net.add_flow(FlowSpec::new(1e6, 1.0, 30.0, vec![]));
        let b = net.add_flow(FlowSpec::new(1e6, 9.0, 50.0, vec![]));
        // No shared constraint: each runs at its own cap, weights are moot.
        assert!(approx(net.rate(a), 30.0));
        assert!(approx(net.rate(b), 50.0));
    }

    #[test]
    fn infinite_capacity_constraint_never_binds() {
        let mut net = FluidNetwork::new();
        let infinite = net.add_constraint(f64::INFINITY);
        let narrow = net.add_constraint(25.0);
        let capped = net.add_flow(FlowSpec::new(1e6, 1.0, 10.0, vec![infinite]));
        let through_narrow = net.add_flow(FlowSpec::new(
            1e6,
            1.0,
            f64::INFINITY,
            vec![infinite, narrow],
        ));
        // The infinite constraint limits nobody: the first flow hits its own
        // cap, the second saturates the narrow server.
        assert!(approx(net.rate(capped), 10.0));
        assert!(approx(net.rate(through_narrow), 25.0));
    }

    #[test]
    fn uncapped_flow_on_infinite_constraint_is_starved_not_stuck() {
        // Degenerate: no finite cap and no finite constraint. The allocator
        // cannot assign a finite rate; it must terminate with rate 0 while
        // still serving well-posed flows correctly.
        let mut net = FluidNetwork::new();
        let infinite = net.add_constraint(f64::INFINITY);
        let unbounded = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![infinite]));
        assert_eq!(net.rate(unbounded), 0.0);
        assert!(net.time_to_next_completion().is_none());
        // Advancing past this state neither panics nor creates bytes.
        net.advance(SimDuration::from_secs(1.0));
        let p = net.progress(unbounded).unwrap();
        assert_eq!(p.transferred, 0.0);
        assert!(approx(p.remaining, 1e6));
    }

    #[test]
    fn advance_past_all_completions_is_a_fixpoint() {
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let a = net.add_flow(FlowSpec::new(50.0, 1.0, f64::INFINITY, vec![server]));
        let b = net.add_flow(FlowSpec::new(150.0, 1.0, f64::INFINITY, vec![server]));
        // One giant step completes everything at once (rates are held for
        // the whole step; both flows clamp at zero remaining).
        net.advance(SimDuration::from_secs(1_000.0));
        assert!(net.is_complete(a) && net.is_complete(b));
        assert_eq!(net.completed_flows().len(), 2);
        assert!(net.time_to_next_completion().is_none());
        assert_eq!(net.aggregate_rate(), 0.0);
        // Further advancing is a no-op on progress.
        let before_a = net.progress(a).unwrap();
        let before_b = net.progress(b).unwrap();
        net.advance(SimDuration::from_secs(1_000.0));
        assert_eq!(net.progress(a).unwrap(), before_a);
        assert_eq!(net.progress(b).unwrap(), before_b);
        // And freed capacity is immediately available to a new flow.
        let late = net.add_flow(FlowSpec::new(1e6, 1.0, f64::INFINITY, vec![server]));
        assert!(approx(net.rate(late), 100.0));
    }

    // --- Bit-identity of the incremental path and storage bounds ---

    fn random_capacity(rng: &mut DetRng) -> f64 {
        match rng.below(6) {
            0 => 0.0,
            1 => f64::INFINITY,
            _ => rng.uniform(1.0, 1000.0),
        }
    }

    fn random_flow(rng: &mut DetRng, constraints: &[ConstraintId]) -> FlowSpec {
        let bytes = if rng.below(10) == 0 {
            0.0
        } else {
            rng.uniform(1.0, 5000.0)
        };
        let mut crossed: Vec<ConstraintId> = constraints
            .iter()
            .copied()
            .filter(|_| rng.below(2) == 0)
            .collect();
        crossed.truncate(3);
        let rate_cap = if crossed.is_empty() || rng.below(3) == 0 {
            rng.uniform(1.0, 400.0)
        } else {
            f64::INFINITY
        };
        FlowSpec::new(bytes, rng.uniform(0.5, 8.0), rate_cap, crossed)
    }

    fn assert_ascending(ids: &[FlowId], what: &str) {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "{what} not in ascending id order: {ids:?}"
        );
    }

    /// Rates and aggregate rate after an incremental re-solve must equal —
    /// bit for bit — those of a from-scratch `recompute` of the same
    /// state, and the (possibly cached) next completion must equal a
    /// fresh scan of the flows' progress.
    fn assert_matches_full_recompute(net: &mut FluidNetwork, step: usize) {
        let mut fresh = net.clone();
        fresh.recompute();
        let ids: Vec<FlowId> = net.flow_ids().collect();
        assert_ascending(&ids, "flow_ids");
        assert_eq!(ids, fresh.flow_ids().collect::<Vec<_>>());
        for &id in &ids {
            assert_eq!(
                net.rate(id).to_bits(),
                fresh.rate(id).to_bits(),
                "step {step}: {id:?} rate {} vs from-scratch {}",
                net.rate(id),
                fresh.rate(id)
            );
        }
        assert_eq!(
            net.aggregate_rate().to_bits(),
            fresh.aggregate_rate().to_bits()
        );
        let scanned = ids
            .iter()
            .filter_map(|&id| {
                let p = net.progress(id).unwrap();
                let active = !p.paused && !net.is_complete(id) && p.rate > EPS;
                active.then(|| p.remaining / p.rate)
            })
            .reduce(f64::min)
            .map(SimDuration::from_secs);
        assert_eq!(net.time_to_next_completion(), scanned, "step {step}");
        assert_ascending(&net.completed_flows(), "completed_flows");
        assert_ascending(&net.stalled_flows(), "stalled_flows");
    }

    #[test]
    fn incremental_rates_match_a_full_recompute_bit_for_bit() {
        for seed in 0..32 {
            let mut rng = DetRng::new(seed);
            let mut net = FluidNetwork::new();
            let constraints: Vec<ConstraintId> = (0..1 + rng.below(5))
                .map(|_| net.add_constraint(random_capacity(&mut rng)))
                .collect();
            let mut ids: Vec<FlowId> = Vec::new();
            for step in 0..250 {
                let pick = |rng: &mut DetRng, ids: &[FlowId]| {
                    (!ids.is_empty()).then(|| ids[rng.below(ids.len() as u64) as usize])
                };
                match rng.below(10) {
                    0..=2 => ids.push(net.add_flow(random_flow(&mut rng, &constraints))),
                    3 => {
                        if let Some(id) = pick(&mut rng, &ids) {
                            net.remove_flow(id);
                            ids.retain(|&i| i != id);
                        }
                    }
                    4 => {
                        if let Some(id) = pick(&mut rng, &ids) {
                            net.pause_flow(id);
                        }
                    }
                    5 => {
                        if let Some(id) = pick(&mut rng, &ids) {
                            net.resume_flow(id);
                        }
                    }
                    6 => {
                        let c = constraints[rng.below(constraints.len() as u64) as usize];
                        net.set_capacity(c, random_capacity(&mut rng));
                    }
                    _ => {
                        // Either exactly to the next completion or by an
                        // arbitrary step.
                        let dt = match net.time_to_next_completion() {
                            Some(t) if rng.below(2) == 0 => t,
                            _ => SimDuration::from_secs(rng.uniform(0.0, 5.0)),
                        };
                        net.advance(dt);
                        assert_ascending(&net.drain_completed(), "drain_completed");
                    }
                }
                assert_matches_full_recompute(&mut net, step);
            }
        }
    }

    #[test]
    fn churn_keeps_storage_bounded() {
        // One long-lived flow pins the low end of the id range while
        // 100 000 short flows come and go, never more than 8 live at once.
        let mut net = FluidNetwork::new();
        let server = net.add_constraint(100.0);
        let anchor = net.add_flow(FlowSpec::new(1e12, 1.0, f64::INFINITY, vec![server]));
        let mut live: std::collections::VecDeque<FlowId> = std::collections::VecDeque::new();
        for _ in 0..100_000 {
            live.push_back(net.add_flow(FlowSpec::new(1e3, 1.0, f64::INFINITY, vec![server])));
            if live.len() == 7 {
                let oldest = live.pop_front().unwrap();
                assert!(net.remove_flow(oldest).is_some());
            }
            assert!(net.rate(anchor) > 0.0);
        }
        assert_eq!(net.flow_count(), 7);
        let (slots, index) = net.storage_len();
        assert!(slots <= 8, "slab grew to {slots} slots");
        assert!(index <= 2 * 8 + 1, "id index grew to {index} entries");
        assert_eq!(net.members[server.0].len(), 7);
    }
}
