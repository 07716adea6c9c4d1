//! The instrumented grid machine: energy meter and dependency clocks.

use crate::engine::vec_bytes;
use crate::report::CostReport;
use spatial_sfc::{manhattan, AnyCurve, Curve, CurveKind, GridPoint};
use std::cell::{Cell, OnceCell, RefCell};

/// A processor slot: the position of a processor in the machine's linear
/// (curve) order. Algorithms place one tree vertex per slot, matching the
/// paper's "number of vertices = number of processors" convention.
pub type Slot = u32;

/// One recorded message, available when tracing is enabled via
/// [`MachineBuilder::trace`]. Only tests record traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sending slot.
    pub from: Slot,
    /// Receiving slot.
    pub to: Slot,
    /// Energy charged (Manhattan distance between the slots).
    pub energy: u64,
    /// For a [`Machine::send`], the receiver's clock after the message.
    /// For a message of a [`Machine::round`], the sender's clock + 1:
    /// the clock the message carries to its receiver.
    pub depth_after: u32,
}

/// Side of the smallest square grid anchored at the origin that covers
/// every point (0 for none): the side of a machine built from explicit
/// points.
pub fn covering_side(points: &[GridPoint]) -> u32 {
    points.iter().fold(0, |side, p| side.max(p.x.max(p.y) + 1))
}

/// The placement of a machine whose slots are a curve prefix: slots
/// `0..n_slots` of the curve of family `kind` with side `side`. A
/// family and a side fix the curve ([`CurveKind::with_side`]), so two
/// machines with equal keys place every slot alike, and a charge
/// precomputed for one placement
/// ([`crate::collectives::LayeredBroadcast`]) checks the key instead of
/// comparing `n` points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CurvePrefix {
    /// The curve family.
    pub(crate) kind: CurveKind,
    /// The curve's side.
    pub(crate) side: u32,
    /// How many slots of the curve, from its start.
    pub(crate) n_slots: u32,
}

/// Builder for [`Machine`], allowing optional message tracing.
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    points: Vec<GridPoint>,
    side: u32,
    trace: bool,
}

impl MachineBuilder {
    /// Machine whose slots `0..n` lie on the given space-filling curve.
    pub fn on_curve(kind: CurveKind, n_slots: u32) -> Self {
        let curve: AnyCurve = kind.for_capacity(n_slots as u64);
        // Batch transform: one SWAR pass instead of n scalar calls.
        let mut points = vec![GridPoint::default(); n_slots as usize];
        curve.point_range_batch(0, &mut points);
        MachineBuilder {
            points,
            side: curve.side(),
            trace: false,
        }
    }

    /// Machine with an explicit slot → grid-point placement.
    pub fn from_points(points: Vec<GridPoint>) -> Self {
        let side = covering_side(&points);
        MachineBuilder {
            points,
            side,
            trace: false,
        }
    }

    /// Enables per-message tracing: every charged message records a
    /// [`TraceEvent`]. Only tests trace, on small instances.
    pub fn trace(mut self, enabled: bool) -> Self {
        self.trace = enabled;
        self
    }

    /// Finalizes the machine.
    pub fn build(self) -> Machine {
        let n = self.points.len();
        Machine {
            points: self.points,
            side: self.side,
            curve: None,
            energy: Cell::new(0),
            messages: Cell::new(0),
            work: Cell::new(0),
            clocks: vec![Cell::new(0); n],
            carried: vec![Cell::new(0); n],
            depth: Cell::new(0),
            floor: Cell::new(0),
            barrier_energy: OnceCell::new(),
            trace: self.trace.then(|| RefCell::new(Vec::new())),
        }
    }
}

/// The spatial computer: a set of processor slots with fixed grid
/// positions, an energy/message/work meter, and per-slot dependency
/// clocks whose maximum is the depth of the computation so far.
///
/// A machine can be re-pointed in place onto another curve prefix
/// ([`Machine::repoint`]), so one set of buffers serves trees of any
/// size and geometry in turn. [`Machine::default`] is the empty
/// machine: no slots, nothing allocated.
///
/// The machine is single-threaded. Its charging methods take `&self`
/// and update plain [`Cell`] state, so a machine is `Send` (a service
/// worker owns the machines it lends its tenants) but not `Sync`. Each
/// engine charges from the thread it runs on, and the depth the clocks
/// record is the model's parallelism, not the host's. Every buffer a
/// charge touches is allocated when the machine is built or re-pointed,
/// so no charge allocates (except the trace pushes of a traced
/// machine).
pub struct Machine {
    points: Vec<GridPoint>,
    side: u32,
    /// The curve (kind, side) whose slots `0..n` `points` holds, when
    /// the machine was re-pointed onto one ([`Machine::repoint`]).
    curve: Option<(CurveKind, u32)>,
    energy: Cell<u64>,
    messages: Cell<u64>,
    work: Cell<u64>,
    /// Raw per-slot clocks. A slot's effective clock is
    /// `max(raw, floor)`, so a raw value at or below the floor is
    /// unobservable, which is what lets the closed-form collectives
    /// lift the floor without writing the clocks it covers. A message
    /// stores `max(raw, after)` unconditionally: rewriting an unchanged
    /// value is unobservable, and a conditional store would pay a
    /// data-dependent branch on every message.
    clocks: Vec<Cell<u32>>,
    /// Round staging for [`Machine::round`]: the clock each sender's
    /// messages carry (its effective clock + 1), read before any
    /// receiver of the round is raised.
    carried: Vec<Cell<u32>>,
    /// The largest effective clock, never below the floor.
    depth: Cell<u32>,
    /// Lower bound applied to every clock; lets collectives synchronize
    /// all processors in O(1) accounting work instead of O(n).
    floor: Cell<u32>,
    /// Energy of one whole-machine barrier: a geometry constant,
    /// computed on first use by
    /// [`crate::collectives::closed_form_barrier`].
    pub(crate) barrier_energy: OnceCell<u64>,
    trace: Option<RefCell<Vec<TraceEvent>>>,
}

impl Machine {
    /// Machine whose slots `0..n` lie on the given space-filling curve.
    pub fn on_curve(kind: CurveKind, n_slots: u32) -> Self {
        MachineBuilder::on_curve(kind, n_slots).build()
    }

    /// Machine with an explicit slot → grid-point placement.
    pub fn from_points(points: Vec<GridPoint>) -> Self {
        MachineBuilder::from_points(points).build()
    }

    /// Re-points the machine onto slots `0..n_slots` of `curve` and
    /// resets it: afterwards it is [`Machine::from_points`] over those
    /// curve points, keyed by their curve prefix (curve kind, side and
    /// slot count) — the machine
    /// `Layout::machine` builds for a layout on `curve` and, on a curve
    /// sized for `n_slots`, the placement of [`Machine::on_curve`]. The
    /// tracing setting is kept. The
    /// points are rebuilt, and the cached barrier energy dropped, only
    /// when the curve kind, the curve's side or the slot count differs
    /// from the last re-point; on the same curve only the slots past
    /// the old count are transformed. Allocates only to grow past the
    /// capacity of earlier placements, and then to exactly `n_slots`
    /// ([`Machine::reserve`]).
    pub fn repoint(&mut self, curve: &AnyCurve, n_slots: u32) {
        let key = Some((curve.kind(), curve.side()));
        let n = n_slots as usize;
        if self.curve != key || self.points.len() != n {
            let kept = if self.curve == key {
                self.points.len().min(n)
            } else {
                0
            };
            self.reserve(n);
            self.points.truncate(kept);
            self.points.resize(n, GridPoint::default());
            curve.point_range_batch(kept as u64, &mut self.points[kept..]);
            self.side = covering_side(&self.points);
            self.curve = key;
            self.clocks.resize(n, Cell::new(0));
            self.carried.resize(n, Cell::new(0));
            self.barrier_energy = OnceCell::new();
        }
        self.reset();
    }

    /// Grows the slot buffers so re-points onto up to `n_slots` slots
    /// do not allocate.
    pub fn reserve(&mut self, n_slots: usize) {
        fn grow<T>(buf: &mut Vec<T>, cap: usize) {
            buf.reserve_exact(cap.saturating_sub(buf.len()));
        }
        grow(&mut self.points, n_slots);
        grow(&mut self.clocks, n_slots);
        grow(&mut self.carried, n_slots);
    }

    /// Number of processor slots.
    pub fn n_slots(&self) -> u32 {
        self.points.len() as u32
    }

    /// Side length of the grid: the curve's for [`Machine::on_curve`],
    /// the smallest square covering the points otherwise.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Grid position of a slot.
    #[inline]
    pub fn point_of(&self, s: Slot) -> GridPoint {
        self.points[s as usize]
    }

    /// Grid position of every slot, in slot order.
    pub(crate) fn points(&self) -> &[GridPoint] {
        &self.points
    }

    /// The curve prefix the slots lie on: set by [`Machine::repoint`]
    /// (and so by `Layout::machine`), `None` for a machine built by
    /// [`MachineBuilder`], whatever its points are.
    pub(crate) fn curve_prefix(&self) -> Option<CurvePrefix> {
        self.curve.map(|(kind, side)| CurvePrefix {
            kind,
            side,
            n_slots: self.n_slots(),
        })
    }

    /// Manhattan distance between two slots — the energy one message
    /// between them would cost.
    #[inline]
    pub fn dist(&self, a: Slot, b: Slot) -> u64 {
        manhattan(self.point_of(a), self.point_of(b))
    }

    /// Effective dependency clock of a slot (raw clock clamped from below
    /// by the collective floor).
    #[inline]
    pub fn clock(&self, s: Slot) -> u32 {
        self.clocks[s as usize].get().max(self.floor.get())
    }

    /// The raw per-slot clocks and the floor, for the closed-form
    /// collectives that read every clock in one pass.
    pub(crate) fn raw_clocks(&self) -> (&[Cell<u32>], u32) {
        (&self.clocks, self.floor.get())
    }

    /// Whether the machine records a [`TraceEvent`] per message
    /// ([`MachineBuilder::trace`]). A closed-form charge, which sends
    /// nothing, replays its messages on such a machine instead.
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Sends one message from `from` to `to`: charges the Manhattan
    /// distance as energy and advances the receiver's clock to
    /// `max(clock(to), clock(from) + 1)`.
    ///
    /// Sequential chains of `send` calls therefore accumulate depth
    /// exactly as the model's message-dependency DAG prescribes.
    #[inline]
    pub fn send(&self, from: Slot, to: Slot) {
        let e = self.dist(from, to);
        // `clock(from) + 1` lies above the floor, so the raised raw
        // clock is the receiver's effective clock.
        let clock = &self.clocks[to as usize];
        let depth_after = clock.get().max(self.clock(from) + 1);
        clock.set(depth_after);
        self.depth.set(self.depth.get().max(depth_after));
        self.energy.set(self.energy.get() + e);
        self.messages.set(self.messages.get() + 1);
        if self.trace.is_some() {
            self.record(from, to, e, depth_after);
        }
    }

    /// Appends one message to the trace of a traced machine. Kept out of
    /// line, so the untraced [`Machine::send`] stays small enough to
    /// inline into the engines' message loops.
    #[cold]
    #[inline(never)]
    fn record(&self, from: Slot, to: Slot, energy: u64, depth_after: u32) {
        if let Some(trace) = &self.trace {
            trace.borrow_mut().push(TraceEvent {
                from,
                to,
                energy,
                depth_after,
            });
        }
    }

    /// Sends a batch of *simultaneous* messages (one communication round):
    /// all sender clocks are read before any receiver clock is advanced,
    /// so messages inside one batch never chain on each other.
    pub fn round(&self, msgs: &[(Slot, Slot)]) {
        // Slices bound once: a clock store could otherwise alias the
        // machine's fields, forcing a reload of every buffer per message.
        let (points, clocks, carried) = (&self.points[..], &self.clocks[..], &self.carried[..]);
        // Phase 1: read every sender's clock.
        let floor = self.floor.get();
        for &(from, _) in msgs {
            carried[from as usize].set(clocks[from as usize].get().max(floor) + 1);
        }
        // Phase 2: raise each receiver, in message order. A carried
        // clock lies above the floor, so a raised raw clock is the
        // receiver's effective clock.
        let (mut energy, mut depth) = (0u64, self.depth.get());
        for &(from, to) in msgs {
            energy += manhattan(points[from as usize], points[to as usize]);
            let clock = &clocks[to as usize];
            let raised = clock.get().max(carried[from as usize].get());
            clock.set(raised);
            depth = depth.max(raised);
        }
        self.depth.set(depth);
        self.energy.set(self.energy.get() + energy);
        self.messages.set(self.messages.get() + msgs.len() as u64);
        if let Some(trace) = &self.trace {
            trace
                .borrow_mut()
                .extend(msgs.iter().map(|&(from, to)| TraceEvent {
                    from,
                    to,
                    energy: self.dist(from, to),
                    depth_after: carried[from as usize].get(),
                }));
        }
    }

    /// Charges one local compute step at a slot (work + a clock tick).
    /// The model allows a constant number of operations between messages;
    /// algorithms call this where the constant factor matters for the
    /// work term.
    #[inline]
    pub fn tick(&self, s: Slot) {
        self.work.set(self.work.get() + 1);
        let c = self.clock(s) + 1;
        self.clocks[s as usize].set(c);
        self.depth.set(self.depth.get().max(c));
    }

    /// Bulk-charges energy and message count without touching clocks.
    /// Used by network-stage accounting (e.g. one bitonic stage) where
    /// per-message clock updates would be redundant with a following
    /// [`Machine::advance_all`].
    #[inline]
    pub fn charge_bulk(&self, energy: u64, messages: u64, work: u64) {
        self.energy.set(self.energy.get() + energy);
        self.messages.set(self.messages.get() + messages);
        self.work.set(self.work.get() + work);
    }

    /// Advances every slot's clock to `current max depth + delta` in O(1)
    /// accounting work: a *synchronous* step in which all processors
    /// participate (e.g. one stage of a sorting network or a barrier).
    #[inline]
    pub fn advance_all(&self, delta: u32) {
        let target = self.depth() + delta;
        self.floor.set(target);
        self.depth.set(target);
    }

    /// Current depth: the longest chain of dependent messages charged so
    /// far (maximum over effective clocks).
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth.get()
    }

    /// Total energy charged so far.
    pub fn energy(&self) -> u64 {
        self.energy.get()
    }

    /// Total number of messages charged so far.
    pub fn message_count(&self) -> u64 {
        self.messages.get()
    }

    /// Total local compute work charged so far.
    pub fn work(&self) -> u64 {
        self.work.get()
    }

    /// Heap bytes the machine keeps resident: slot points, raw clocks,
    /// round staging, and the trace of a traced machine.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.points)
            + vec_bytes(&self.clocks)
            + vec_bytes(&self.carried)
            + self.trace.as_ref().map_or(0, |t| vec_bytes(&t.borrow()))
    }

    /// Snapshot of all counters.
    pub fn report(&self) -> CostReport {
        CostReport {
            energy: self.energy(),
            messages: self.message_count(),
            work: self.work(),
            depth: self.depth() as u64,
        }
    }

    /// Charges one synchronous pointer round (the §IV list-ranking
    /// pattern): bulk energy + message count, one unit of work per
    /// message, and a single global clock step.
    #[inline]
    pub fn charge_pointer_round(&self, energy: u64, messages: u64) {
        self.charge_bulk(energy, messages, messages);
        self.advance_all(1);
    }

    /// Drains and returns the recorded trace (empty when tracing is off).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        self.trace.as_ref().map_or_else(Vec::new, RefCell::take)
    }

    /// Resets all counters and clocks (placement is kept).
    pub fn reset(&mut self) {
        *self.energy.get_mut() = 0;
        *self.messages.get_mut() = 0;
        *self.work.get_mut() = 0;
        for c in &mut self.clocks {
            *c.get_mut() = 0;
        }
        *self.depth.get_mut() = 0;
        *self.floor.get_mut() = 0;
        if let Some(trace) = &mut self.trace {
            trace.get_mut().clear();
        }
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::from_points(Vec::new())
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("n_slots", &self.n_slots())
            .field("side", &self.side)
            .field("report", &self.report())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_machine(n: u32) -> Machine {
        // n slots in a single row: dist(i, j) = |i - j|.
        Machine::from_points((0..n).map(|i| GridPoint::new(i, 0)).collect())
    }

    #[test]
    fn send_charges_manhattan_energy() {
        let m = line_machine(10);
        m.send(0, 9);
        assert_eq!(m.energy(), 9);
        assert_eq!(m.message_count(), 1);
        assert_eq!(m.depth(), 1);
    }

    #[test]
    fn chained_sends_accumulate_depth() {
        let m = line_machine(4);
        m.send(0, 1);
        m.send(1, 2);
        m.send(2, 3);
        assert_eq!(m.depth(), 3);
        assert_eq!(m.energy(), 3);
        assert_eq!(m.clock(3), 3);
        assert_eq!(m.clock(0), 0);
    }

    #[test]
    fn independent_sends_do_not_chain() {
        let m = line_machine(6);
        m.send(0, 1);
        m.send(2, 3);
        m.send(4, 5);
        assert_eq!(m.depth(), 1, "disjoint messages are parallel");
    }

    #[test]
    fn round_is_simultaneous() {
        let m = line_machine(4);
        // A relay chain submitted as one round must not chain.
        m.round(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(m.depth(), 1);
        // Submitted as sequential sends it chains.
        let m2 = line_machine(4);
        m2.send(0, 1);
        m2.send(1, 2);
        m2.send(2, 3);
        assert_eq!(m2.depth(), 3);
    }

    #[test]
    fn fan_in_takes_max_of_senders() {
        let m = line_machine(5);
        m.send(0, 1); // clock(1) = 1
        m.send(1, 2); // clock(2) = 2
        m.send(3, 2); // clock(2) stays 2 (fan-in: max(2, 0+1))
        assert_eq!(m.clock(2), 2);
        m.send(2, 4);
        assert_eq!(m.clock(4), 3);
    }

    #[test]
    fn advance_all_lifts_every_clock() {
        let m = line_machine(4);
        m.send(0, 1);
        m.send(1, 2); // depth 2
        m.advance_all(3); // synchronous phase of 3 steps
        assert_eq!(m.depth(), 5);
        for s in 0..4 {
            assert_eq!(m.clock(s), 5, "slot {s} must be lifted by the floor");
        }
        // A message after the barrier builds on the lifted clock.
        m.send(3, 0);
        assert_eq!(m.depth(), 6);
    }

    #[test]
    fn charge_bulk_counts_but_keeps_depth() {
        let m = line_machine(4);
        m.charge_bulk(100, 7, 3);
        assert_eq!(m.energy(), 100);
        assert_eq!(m.message_count(), 7);
        assert_eq!(m.work(), 3);
        assert_eq!(m.depth(), 0);
    }

    #[test]
    fn tick_advances_one_clock() {
        let m = line_machine(2);
        m.tick(0);
        m.tick(0);
        assert_eq!(m.clock(0), 2);
        assert_eq!(m.clock(1), 0);
        assert_eq!(m.work(), 2);
    }

    #[test]
    fn on_curve_placement_matches_curve() {
        use spatial_sfc::{Curve as _, CurveKind};
        let m = Machine::on_curve(CurveKind::Hilbert, 16);
        let c = CurveKind::Hilbert.for_capacity(16);
        for s in 0..16u32 {
            assert_eq!(m.point_of(s), c.point(s as u64));
        }
        assert_eq!(m.side(), 4);
    }

    #[test]
    fn trace_records_messages() {
        let m = MachineBuilder::on_curve(CurveKind::Hilbert, 8)
            .trace(true)
            .build();
        m.send(0, 3);
        m.send(3, 5);
        let tr = m.take_trace();
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[0].from, 0);
        assert_eq!(tr[0].to, 3);
        assert_eq!(tr[1].depth_after, 2);
        assert!(m.take_trace().is_empty(), "trace is drained");
    }

    #[test]
    fn repoint_matches_a_fresh_machine() {
        use crate::collectives::closed_form_barrier;
        use spatial_sfc::Curve as _;
        let mut m = Machine::default();
        assert_eq!(m.n_slots(), 0);
        assert_eq!(m.resident_bytes(), 0, "the empty machine allocates nothing");
        // More slots, then fewer on one curve (only the new tail is
        // transformed), then another side and other kinds.
        for (kind, cap, n) in [
            (CurveKind::Hilbert, 64, 40),
            (CurveKind::Hilbert, 64, 64),
            (CurveKind::Hilbert, 64, 9),
            (CurveKind::Hilbert, 256, 9),
            (CurveKind::Peano, 81, 50),
            (CurveKind::ZOrder, 64, 50),
            (CurveKind::ZOrder, 64, 50),
        ] {
            let curve = kind.for_capacity(cap);
            m.repoint(&curve, n);
            let mut points = vec![GridPoint::default(); n as usize];
            curve.point_range_batch(0, &mut points);
            let fresh = Machine::from_points(points);
            assert_eq!(m.points(), fresh.points(), "{kind} {cap} {n}");
            assert_eq!(m.side(), fresh.side(), "{kind} {cap} {n}");
            assert_eq!(m.report(), CostReport::default(), "reset");
            // The barrier's cached energy is this placement's.
            for machine in [&m, &fresh] {
                machine.send(0, n - 1);
                closed_form_barrier(machine);
            }
            assert_eq!(m.report(), fresh.report(), "{kind} {cap} {n}");
            assert!((0..n).all(|s| m.clock(s) == fresh.clock(s)));
        }
    }

    #[test]
    fn repoint_within_reserve_keeps_the_buffers() {
        let mut m = Machine::default();
        m.reserve(128);
        let bytes = m.resident_bytes();
        for n in [100, 7, 128, 1] {
            m.repoint(&CurveKind::Hilbert.for_capacity(2 * n as u64), n);
            assert_eq!(m.n_slots(), n);
            assert_eq!(m.resident_bytes(), bytes, "n = {n}");
        }
    }

    #[test]
    fn reset_clears_counters() {
        let mut m = line_machine(4);
        m.send(0, 3);
        m.advance_all(2);
        m.reset();
        assert_eq!(m.report(), CostReport::default());
        assert_eq!(m.clock(3), 0);
    }

    #[test]
    fn report_snapshot_diff() {
        let m = line_machine(8);
        m.send(0, 7);
        let before = m.report();
        m.send(7, 0);
        let delta = m.report() - before;
        assert_eq!(delta.energy, 7);
        assert_eq!(delta.messages, 1);
    }

    #[test]
    fn charge_pointer_round_is_bulk_plus_one_step() {
        let m = line_machine(10);
        m.charge_pointer_round(8, 2);
        assert_eq!(m.energy(), 8);
        assert_eq!(m.message_count(), 2);
        assert_eq!(m.work(), 2);
        assert_eq!(m.depth(), 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use spatial_sfc::CurveKind;

    proptest! {
        /// Energy equals the sum of per-message Manhattan distances,
        /// independent of send interleaving.
        #[test]
        fn prop_energy_is_sum_of_distances(
            msgs in proptest::collection::vec((0u32..64, 0u32..64), 1..50)
        ) {
            let m = Machine::on_curve(CurveKind::Hilbert, 64);
            let mut expect = 0u64;
            for &(a, b) in &msgs {
                expect += m.dist(a, b);
                m.send(a, b);
            }
            prop_assert_eq!(m.energy(), expect);
            prop_assert_eq!(m.message_count(), msgs.len() as u64);
        }

        /// Depth is monotone: more messages never decrease it, and it
        /// never exceeds the message count.
        #[test]
        fn prop_depth_monotone_and_bounded(
            msgs in proptest::collection::vec((0u32..32, 0u32..32), 1..40)
        ) {
            let m = Machine::on_curve(CurveKind::Hilbert, 32);
            let mut last = 0;
            for &(a, b) in &msgs {
                m.send(a, b);
                let d = m.depth();
                prop_assert!(d >= last);
                last = d;
            }
            prop_assert!(m.depth() as usize <= msgs.len());
        }

        /// A round never chains its own messages: depth grows by ≤ 1.
        #[test]
        fn prop_round_depth_grows_by_at_most_one(
            msgs in proptest::collection::vec((0u32..32, 0u32..32), 1..40)
        ) {
            let m = Machine::on_curve(CurveKind::Hilbert, 32);
            let before = m.depth();
            m.round(&msgs);
            prop_assert!(m.depth() <= before + 1);
        }

        /// Clocks respect the floor after advance_all.
        #[test]
        fn prop_floor_lifts_all(extra in 1u32..50, slot in 0u32..16) {
            let m = Machine::on_curve(CurveKind::Hilbert, 16);
            m.send(0, 1);
            m.advance_all(extra);
            prop_assert!(m.clock(slot) > extra);
        }
    }
}
