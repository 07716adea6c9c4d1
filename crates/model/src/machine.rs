//! The instrumented grid machine: energy meter and dependency clocks.

use crate::report::CostReport;
use crossbeam::utils::CachePadded;
use parking_lot::Mutex;
use spatial_sfc::{manhattan, AnyCurve, Curve, CurveKind, GridPoint};
#[cfg(debug_assertions)]
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;

/// A processor slot: the position of a processor in the machine's linear
/// (curve) order. Algorithms place one tree vertex per slot, matching the
/// paper's "number of vertices = number of processors" convention.
pub type Slot = u32;

/// One recorded message, available when tracing is enabled via
/// [`MachineBuilder::trace`]. Used by the figure-regeneration examples
/// and by fine-grained tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Sending slot.
    pub from: Slot,
    /// Receiving slot.
    pub to: Slot,
    /// Energy charged (Manhattan distance between the slots).
    pub energy: u64,
    /// Dependency clock of the receiver after the message.
    pub depth_after: u32,
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
        let side = points.iter().map(|p| p.x.max(p.y) + 1).max().unwrap_or(0);
        MachineBuilder {
            points,
            side,
            trace: false,
        }
    }

    /// Enables per-message tracing (adds a lock per message; use only for
    /// small instances and figure generation).
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
            energy: CachePadded::new(AtomicU64::new(0)),
            messages: CachePadded::new(AtomicU64::new(0)),
            work: CachePadded::new(AtomicU64::new(0)),
            clocks: (0..n).map(|_| AtomicU32::new(0)).collect(),
            max_clock: CachePadded::new(AtomicU32::new(0)),
            floor: CachePadded::new(AtomicU32::new(0)),
            barrier_energy: OnceLock::new(),
            staging: Mutex::new(Vec::new()),
            trace: self.trace.then(|| Mutex::new(Vec::new())),
            #[cfg(debug_assertions)]
            session_open: AtomicBool::new(false),
        }
    }
}

/// The spatial computer: a set of processor slots with fixed grid
/// positions, an energy/message/work meter, and per-slot dependency
/// clocks whose maximum is the depth of the computation so far.
///
/// All charging methods take `&self` and are atomic, so a machine is
/// `Sync`. No engine forks host threads to use that: each charges from
/// the thread it runs on, and the depth the clocks record is the
/// model's parallelism, not the host's.
pub struct Machine {
    points: Vec<GridPoint>,
    side: u32,
    energy: CachePadded<AtomicU64>,
    messages: CachePadded<AtomicU64>,
    work: CachePadded<AtomicU64>,
    clocks: Vec<AtomicU32>,
    max_clock: CachePadded<AtomicU32>,
    /// Lower bound applied to every clock; lets collectives synchronize
    /// all processors in O(1) accounting work instead of O(n).
    floor: CachePadded<AtomicU32>,
    /// Energy of one whole-machine barrier: a geometry constant,
    /// computed on first use by [`crate::collectives::barrier_local`].
    pub(crate) barrier_energy: OnceLock<u64>,
    /// Reusable staging buffer for [`Machine::round`]; grows to the
    /// largest round seen and is never shrunk, so steady-state rounds
    /// are allocation-free.
    staging: Mutex<Vec<(Slot, u32, u64)>>,
    trace: Option<Mutex<Vec<TraceEvent>>>,
    /// Set while a [`LocalCharge`] session is open. The session charges
    /// the clocks in place, so nothing else may charge the machine
    /// until it commits (checked in debug builds only).
    #[cfg(debug_assertions)]
    session_open: AtomicBool,
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

    /// Number of processor slots.
    pub fn n_slots(&self) -> u32 {
        self.points.len() as u32
    }

    /// Side length of the (smallest covering) grid.
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
        self.clocks[s as usize]
            .load(Ordering::Relaxed)
            .max(self.floor.load(Ordering::Relaxed))
    }

    /// Whether the machine records a [`TraceEvent`] per message
    /// ([`MachineBuilder::trace`]).
    pub(crate) fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Debug-build check of the [`Machine::begin_local_charge`]
    /// contract: no atomic charge while a session owns the clocks.
    #[inline]
    fn assert_no_session(&self) {
        #[cfg(debug_assertions)]
        assert!(
            !self.session_open.load(Ordering::Relaxed),
            "machine charged while a LocalCharge session is open"
        );
    }

    /// Sends one message from `from` to `to`: charges the Manhattan
    /// distance as energy and advances the receiver's clock to
    /// `max(clock(to), clock(from) + 1)`.
    ///
    /// Sequential chains of `send` calls therefore accumulate depth
    /// exactly as the model's message-dependency DAG prescribes.
    pub fn send(&self, from: Slot, to: Slot) {
        self.assert_no_session();
        let e = self.dist(from, to);
        self.energy.fetch_add(e, Ordering::Relaxed);
        self.messages.fetch_add(1, Ordering::Relaxed);
        let after = self.clock(from) + 1;
        let prev = self.clocks[to as usize].fetch_max(after, Ordering::Relaxed);
        let depth_after = prev.max(after).max(self.floor.load(Ordering::Relaxed));
        self.max_clock.fetch_max(depth_after, Ordering::Relaxed);
        if let Some(trace) = &self.trace {
            trace.lock().push(TraceEvent {
                from,
                to,
                energy: e,
                depth_after,
            });
        }
    }

    /// Sends a batch of *simultaneous* messages (one communication round):
    /// all sender clocks are read before any receiver clock is advanced,
    /// so messages inside one batch never chain on each other.
    pub fn round(&self, msgs: &[(Slot, Slot)]) {
        self.assert_no_session();
        // Phase 1: read sender clocks and distances, staged in a
        // reusable buffer (no allocation once its capacity has grown to
        // the largest round seen; allocation-free algorithms charge
        // through a LocalCharge session with pre-sized scratch instead).
        let mut staged = self.staging.lock();
        staged.clear();
        staged.extend(
            msgs.iter()
                .map(|&(f, t)| (t, self.clock(f) + 1, self.dist(f, t))),
        );
        // Phase 2: apply.
        let mut e_sum = 0u64;
        for &(t, after, e) in staged.iter() {
            e_sum += e;
            let prev = self.clocks[t as usize].fetch_max(after, Ordering::Relaxed);
            self.max_clock.fetch_max(prev.max(after), Ordering::Relaxed);
        }
        self.energy.fetch_add(e_sum, Ordering::Relaxed);
        self.messages
            .fetch_add(msgs.len() as u64, Ordering::Relaxed);
        if let Some(trace) = &self.trace {
            let mut tr = trace.lock();
            for (i, &(t, after, e)) in staged.iter().enumerate() {
                tr.push(TraceEvent {
                    from: msgs[i].0,
                    to: t,
                    energy: e,
                    depth_after: after,
                });
            }
        }
    }

    /// Charges one local compute step at a slot (work + a clock tick).
    /// The model allows a constant number of operations between messages;
    /// algorithms call this where the constant factor matters for the
    /// work term.
    pub fn tick(&self, s: Slot) {
        self.assert_no_session();
        self.work.fetch_add(1, Ordering::Relaxed);
        let c = self.clock(s) + 1;
        self.clocks[s as usize].fetch_max(c, Ordering::Relaxed);
        self.max_clock.fetch_max(c, Ordering::Relaxed);
    }

    /// Bulk-charges energy and message count without touching clocks.
    /// Used by network-stage accounting (e.g. one bitonic stage) where
    /// per-message clock updates would be redundant with a following
    /// [`Machine::advance_all`].
    pub fn charge_bulk(&self, energy: u64, messages: u64, work: u64) {
        self.assert_no_session();
        self.energy.fetch_add(energy, Ordering::Relaxed);
        self.messages.fetch_add(messages, Ordering::Relaxed);
        self.work.fetch_add(work, Ordering::Relaxed);
    }

    /// Advances every slot's clock to `current max depth + delta` in O(1)
    /// accounting work: a *synchronous* step in which all processors
    /// participate (e.g. one stage of a sorting network or a barrier).
    pub fn advance_all(&self, delta: u32) {
        self.assert_no_session();
        let target = self.depth() + delta;
        self.floor.fetch_max(target, Ordering::Relaxed);
        self.max_clock.fetch_max(target, Ordering::Relaxed);
    }

    /// Current depth: the longest chain of dependent messages charged so
    /// far (maximum over effective clocks).
    pub fn depth(&self) -> u32 {
        self.max_clock
            .load(Ordering::Relaxed)
            .max(self.floor.load(Ordering::Relaxed))
    }

    /// Total energy charged so far.
    pub fn energy(&self) -> u64 {
        self.energy.load(Ordering::Relaxed)
    }

    /// Total number of messages charged so far.
    pub fn message_count(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total local compute work charged so far.
    pub fn work(&self) -> u64 {
        self.work.load(Ordering::Relaxed)
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
    pub fn charge_pointer_round(&self, energy: u64, messages: u64) {
        self.charge_bulk(energy, messages, messages);
        self.advance_all(1);
    }

    /// Begins a **local charging session**: a single-threaded view of
    /// the machine that charges messages with plain arithmetic on its
    /// own counters and commits the identical totals (energy, messages,
    /// work, floor, depth) back to the machine in one batch via
    /// [`LocalCharge::commit`].
    ///
    /// This is the hot-path charge hook for phases that issue millions
    /// of fine-grained messages (the treefix COMPACT rounds, the
    /// batched-LCA relay schedules, the layout engine): the accounting math
    /// is exactly [`Machine::send`] / [`Machine::tick`] /
    /// [`Machine::round`] / [`Machine::advance_all`], minus the
    /// read-modify-write atomics.
    ///
    /// **Contract: the session owns the machine's clocks until it
    /// commits.** It charges the per-slot clocks *in place* with
    /// relaxed loads and stores (no snapshot, no merge), so opening and
    /// committing cost O(1) whatever `n_slots`. The caller must not
    /// charge the machine through any other path — atomic charge
    /// methods or a second session — while a session is open; debug
    /// builds assert this. Reading counters ([`Machine::report`],
    /// [`Machine::dist`]) stays allowed.
    ///
    /// On traced machines ([`MachineBuilder::trace`]) the session
    /// records the same per-message [`TraceEvent`]s as the atomic path
    /// (at the atomic path's cost — tracing is for small instances).
    ///
    /// `scratch` holds the round staging; after it has grown to the
    /// largest round batch once, opening and running an untraced
    /// session performs no heap allocation.
    pub fn begin_local_charge<'s>(
        &self,
        scratch: &'s mut LocalChargeScratch,
    ) -> LocalCharge<'_, 's> {
        #[cfg(debug_assertions)]
        assert!(
            !self.session_open.swap(true, Ordering::Relaxed),
            "a LocalCharge session is already open on this machine"
        );
        LocalCharge {
            machine: self,
            clocks: &self.clocks,
            staging: &mut scratch.staging,
            floor: self.floor.load(Ordering::Relaxed),
            max: self.depth(),
            energy: 0,
            messages: 0,
            work: 0,
        }
    }

    /// Drains and returns the recorded trace (empty when tracing is off).
    pub fn take_trace(&self) -> Vec<TraceEvent> {
        match &self.trace {
            Some(tr) => std::mem::take(&mut *tr.lock()),
            None => Vec::new(),
        }
    }

    /// Resets all counters and clocks (placement is kept).
    pub fn reset(&mut self) {
        self.energy = CachePadded::new(AtomicU64::new(0));
        self.messages = CachePadded::new(AtomicU64::new(0));
        self.work = CachePadded::new(AtomicU64::new(0));
        for c in &self.clocks {
            c.store(0, Ordering::Relaxed);
        }
        self.max_clock = CachePadded::new(AtomicU32::new(0));
        self.floor = CachePadded::new(AtomicU32::new(0));
        if let Some(tr) = &self.trace {
            tr.lock().clear();
        }
    }
}

/// Reusable round staging for a [`LocalCharge`] session. One instance
/// serves any number of sessions on any machine; once grown (or
/// pre-sized with [`LocalChargeScratch::with_capacity`]), sessions
/// never allocate. Sessions hold no per-slot state here: they charge
/// the machine's clocks in place.
#[derive(Debug, Default)]
pub struct LocalChargeScratch {
    /// Two-phase staging for [`LocalCharge::round`].
    staging: Vec<(Slot, u32, u64)>,
}

impl LocalChargeScratch {
    /// Empty scratch; the staging grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch pre-sized for round batches of up to `round` messages,
    /// so no session ever allocates.
    pub fn with_capacity(round: usize) -> Self {
        LocalChargeScratch {
            staging: Vec::with_capacity(round),
        }
    }

    /// Grows the staging to hold `round` messages (never shrinks) — the
    /// engine-pool `reserve` hook, so a capacity growth keeps later
    /// sessions allocation-free.
    pub fn reserve(&mut self, round: usize) {
        self.staging
            .reserve(round.saturating_sub(self.staging.len()));
    }
}

/// A sink for communication-round charges: either the [`Machine`]
/// itself (atomic, thread-safe) or a [`LocalCharge`] session
/// (single-threaded, batch-committed). Lets charging helpers — the CSR
/// relay walkers, the broadcast schedules, the list-ranking engine, the
/// layout builder — serve both paths with the identical message
/// pattern.
pub trait RoundCharger {
    /// Charges one batch of simultaneous messages ([`Machine::round`]
    /// semantics: no intra-batch chaining).
    fn charge_round(&mut self, msgs: &[(Slot, Slot)]);

    /// Advances every slot's clock ([`Machine::advance_all`]
    /// semantics).
    fn charge_advance_all(&mut self, delta: u32);

    /// Charges one message ([`Machine::send`] semantics: the receiver's
    /// clock chains on the sender's).
    fn charge_send(&mut self, from: Slot, to: Slot);

    /// Bulk-charges energy, messages, and work without touching clocks
    /// ([`Machine::charge_bulk`] semantics).
    fn charge_bulk(&mut self, energy: u64, messages: u64, work: u64);

    /// Charges one synchronous pointer round
    /// ([`Machine::charge_pointer_round`] semantics): bulk counters plus
    /// one global clock step.
    fn charge_pointer_round(&mut self, energy: u64, messages: u64) {
        self.charge_bulk(energy, messages, messages);
        self.charge_advance_all(1);
    }
}

impl RoundCharger for &Machine {
    fn charge_round(&mut self, msgs: &[(Slot, Slot)]) {
        Machine::round(self, msgs);
    }

    fn charge_advance_all(&mut self, delta: u32) {
        Machine::advance_all(self, delta);
    }

    fn charge_send(&mut self, from: Slot, to: Slot) {
        Machine::send(self, from, to);
    }

    fn charge_bulk(&mut self, energy: u64, messages: u64, work: u64) {
        Machine::charge_bulk(self, energy, messages, work);
    }
}

impl RoundCharger for LocalCharge<'_, '_> {
    fn charge_round(&mut self, msgs: &[(Slot, Slot)]) {
        LocalCharge::round(self, msgs);
    }

    fn charge_advance_all(&mut self, delta: u32) {
        LocalCharge::advance_all(self, delta);
    }

    fn charge_send(&mut self, from: Slot, to: Slot) {
        LocalCharge::send(self, from, to);
    }

    fn charge_bulk(&mut self, energy: u64, messages: u64, work: u64) {
        LocalCharge::charge_bulk(self, energy, messages, work);
    }
}

/// A local charging session over a [`Machine`], created by
/// [`Machine::begin_local_charge`]. Mirrors the machine's accounting
/// semantics exactly.
///
/// The session charges the machine's own per-slot clocks in place, with
/// relaxed loads and stores instead of read-modify-write atomics (it
/// owns them by the `begin_local_charge` contract), and keeps energy,
/// messages, work, floor and depth in plain fields until
/// [`LocalCharge::commit`] applies them. A session dropped without
/// `commit` (only a panicking caller does that) discards those totals
/// but not its clock writes.
///
/// Raw clocks are only ever read through the floor, as
/// `max(raw, floor)`. Any raw value at or below the floor is therefore
/// unobservable, which is what lets [`crate::collectives::barrier_local`]
/// lift the floor without writing the clocks it covers.
///
/// A message's clock write is an unconditional `store(max(raw, after))`
/// rather than a store taken only when `after` is larger. The session
/// owns its clocks until it commits, so rewriting an unchanged value
/// cannot be observed by anyone, while the conditional store costs a
/// data-dependent branch on every message the session charges (the
/// treefix COMPACT rounds and their undo, the relay schedules, the
/// range broadcasts, the layout engine).
pub struct LocalCharge<'m, 's> {
    machine: &'m Machine,
    /// The machine's per-slot raw clocks, charged in place.
    clocks: &'m [AtomicU32],
    /// Staging for the two-phase round application.
    staging: &'s mut Vec<(Slot, u32, u64)>,
    floor: u32,
    max: u32,
    energy: u64,
    messages: u64,
    work: u64,
}

/// Raises a raw clock to at least `after` in place and returns the
/// slot's effective clock under `floor`.
///
/// Stores `max(raw, after)` unconditionally: only the session that owns
/// the clock reads or writes it, so writing back an unchanged value is
/// unobservable, and the branch-free store avoids a mispredicted branch
/// per message (see [`LocalCharge`]).
#[inline]
fn raise_clock(clock: &AtomicU32, after: u32, floor: u32) -> u32 {
    let raised = clock.load(Ordering::Relaxed).max(after);
    clock.store(raised, Ordering::Relaxed);
    raised.max(floor)
}

impl<'m> LocalCharge<'m, '_> {
    /// Number of slots of the underlying machine.
    #[inline]
    pub fn n_slots(&self) -> u32 {
        self.machine.n_slots()
    }

    /// The machine the session charges (geometry, tracing, memoized
    /// collective constants).
    #[inline]
    pub(crate) fn machine(&self) -> &'m Machine {
        self.machine
    }

    /// The raw per-slot clocks and the session's floor; a slot's
    /// effective clock is `max(raw, floor)`.
    #[inline]
    pub(crate) fn raw_clocks(&self) -> (&'m [AtomicU32], u32) {
        (self.clocks, self.floor)
    }

    /// Effective dependency clock of a slot inside the session.
    #[inline]
    pub fn clock(&self, s: Slot) -> u32 {
        self.clocks[s as usize]
            .load(Ordering::Relaxed)
            .max(self.floor)
    }

    /// Local mirror of [`Machine::send`].
    #[inline]
    pub fn send(&mut self, from: Slot, to: Slot) {
        let e = self.machine.dist(from, to);
        self.energy += e;
        self.messages += 1;
        let after = self.clock(from) + 1;
        let eff = raise_clock(&self.clocks[to as usize], after, self.floor);
        self.max = self.max.max(eff);
        if let Some(trace) = &self.machine.trace {
            trace.lock().push(TraceEvent {
                from,
                to,
                energy: e,
                depth_after: eff,
            });
        }
    }

    /// Local mirror of [`Machine::tick`].
    #[inline]
    pub fn tick(&mut self, s: Slot) {
        self.work += 1;
        let c = self.clock(s) + 1;
        self.clocks[s as usize].store(c, Ordering::Relaxed);
        self.max = self.max.max(c);
    }

    /// Local mirror of [`Machine::charge_bulk`]: counters only, no
    /// clock movement.
    #[inline]
    pub fn charge_bulk(&mut self, energy: u64, messages: u64, work: u64) {
        self.energy += energy;
        self.messages += messages;
        self.work += work;
    }

    /// Local mirror of [`Machine::round`]: all sender clocks are read
    /// before any receiver clock is advanced, so messages inside one
    /// batch never chain on each other.
    pub fn round(&mut self, msgs: &[(Slot, Slot)]) {
        self.staging.clear();
        let (clocks, floor, machine) = (self.clocks, self.floor, self.machine);
        self.staging.extend(msgs.iter().map(|&(f, t)| {
            (
                t,
                clocks[f as usize].load(Ordering::Relaxed).max(floor) + 1,
                machine.dist(f, t),
            )
        }));
        let mut e_sum = 0u64;
        for &(t, after, e) in self.staging.iter() {
            e_sum += e;
            let eff = raise_clock(&clocks[t as usize], after, floor);
            self.max = self.max.max(eff);
        }
        self.energy += e_sum;
        self.messages += msgs.len() as u64;
        if let Some(trace) = &self.machine.trace {
            let mut tr = trace.lock();
            for (i, &(t, after, e)) in self.staging.iter().enumerate() {
                tr.push(TraceEvent {
                    from: msgs[i].0,
                    to: t,
                    energy: e,
                    depth_after: after,
                });
            }
        }
    }

    /// Local mirror of [`Machine::advance_all`].
    pub fn advance_all(&mut self, delta: u32) {
        let target = self.depth() + delta;
        if target > self.floor {
            self.floor = target;
        }
        if target > self.max {
            self.max = target;
        }
    }

    /// Current depth as seen by the session.
    pub fn depth(&self) -> u32 {
        self.max.max(self.floor)
    }

    /// Applies the session's totals to the machine — counter sums, the
    /// floor, and the depth — in O(1): the per-slot clocks were charged
    /// in place.
    pub fn commit(self) {
        let m = self.machine;
        m.energy.fetch_add(self.energy, Ordering::Relaxed);
        m.messages.fetch_add(self.messages, Ordering::Relaxed);
        m.work.fetch_add(self.work, Ordering::Relaxed);
        m.floor.fetch_max(self.floor, Ordering::Relaxed);
        m.max_clock.fetch_max(self.max, Ordering::Relaxed);
    }
}

impl Drop for LocalCharge<'_, '_> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        self.machine.session_open.store(false, Ordering::Relaxed);
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
    fn local_charge_matches_atomic_sends() {
        // The same send/tick/advance sequence through a LocalCharge
        // session must produce the identical report and clock state.
        let ops: &[(u32, u32)] = &[(0, 5), (5, 2), (2, 7), (1, 2), (7, 0)];
        let atomic = line_machine(10);
        for &(a, b) in ops {
            atomic.send(a, b);
            atomic.tick(a);
        }
        atomic.advance_all(2);
        atomic.send(3, 4);

        let local = line_machine(10);
        let mut scratch = LocalChargeScratch::new();
        let mut lc = local.begin_local_charge(&mut scratch);
        for &(a, b) in ops {
            lc.send(a, b);
            lc.tick(a);
        }
        lc.advance_all(2);
        lc.send(3, 4);
        lc.commit();

        assert_eq!(atomic.report(), local.report());
        for s in 0..10 {
            assert_eq!(atomic.clock(s), local.clock(s), "slot {s}");
        }
    }

    #[test]
    fn local_charge_round_matches_atomic_round() {
        // Batches where slots are both senders and receivers (the relay
        // chain case) must match Machine::round's two-phase semantics.
        let batches: &[&[(u32, u32)]] = &[
            &[(0, 1), (1, 2), (2, 3)],
            &[(3, 0), (0, 3)],
            &[],
            &[(5, 4), (4, 5), (1, 4)],
        ];
        let atomic = line_machine(8);
        for batch in batches {
            atomic.round(batch);
        }
        let local = line_machine(8);
        let mut scratch = LocalChargeScratch::new();
        let mut lc = local.begin_local_charge(&mut scratch);
        for batch in batches {
            lc.round(batch);
        }
        lc.commit();
        assert_eq!(atomic.report(), local.report());
        for s in 0..8 {
            assert_eq!(atomic.clock(s), local.clock(s), "slot {s}");
        }
    }

    #[test]
    fn local_charge_traces_like_atomic_path() {
        // On traced machines a session records the identical events as
        // the equivalent atomic sends/rounds.
        let build = || {
            MachineBuilder::from_points((0..8).map(|i| GridPoint::new(i, 0)).collect())
                .trace(true)
                .build()
        };
        let atomic = build();
        atomic.send(0, 3);
        atomic.round(&[(3, 1), (1, 5)]);
        atomic.send(5, 2);

        let local = build();
        let mut scratch = LocalChargeScratch::new();
        let mut lc = local.begin_local_charge(&mut scratch);
        lc.send(0, 3);
        lc.round(&[(3, 1), (1, 5)]);
        lc.send(5, 2);
        lc.commit();

        assert_eq!(atomic.take_trace(), local.take_trace());
        assert_eq!(atomic.report(), local.report());
    }

    #[test]
    fn local_charge_resumes_from_prior_state() {
        // Charges before the session are visible inside it, and charges
        // after commit chain on the session's clocks.
        let m = line_machine(8);
        m.send(0, 1);
        m.send(1, 2); // clock(2) = 2
        let mut scratch = LocalChargeScratch::new();
        let mut lc = m.begin_local_charge(&mut scratch);
        assert_eq!(lc.clock(2), 2);
        lc.send(2, 3);
        assert_eq!(lc.depth(), 3);
        lc.commit();
        m.send(3, 4);
        assert_eq!(m.clock(4), 4);
        assert_eq!(m.depth(), 4);
    }

    #[test]
    fn commit_and_drop_release_the_machine() {
        let m = line_machine(4);
        let mut scratch = LocalChargeScratch::new();
        let mut lc = m.begin_local_charge(&mut scratch);
        lc.send(0, 1);
        lc.commit();
        drop(m.begin_local_charge(&mut scratch));
        m.send(1, 2);
        assert_eq!(m.depth(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already open")]
    fn overlapping_sessions_panic() {
        let m = line_machine(4);
        let (mut s1, mut s2) = (LocalChargeScratch::new(), LocalChargeScratch::new());
        let _first = m.begin_local_charge(&mut s1);
        let _second = m.begin_local_charge(&mut s2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "while a LocalCharge session is open")]
    fn atomic_send_during_session_panics() {
        let m = line_machine(4);
        let mut scratch = LocalChargeScratch::new();
        let _lc = m.begin_local_charge(&mut scratch);
        m.send(0, 1);
    }

    #[test]
    fn local_charge_pointer_round_matches_machine() {
        // The bulk/pointer-round mirrors must evolve counters and clocks
        // exactly like the atomic path — the ranking-through-session
        // equivalence the layout differential suite relies on.
        let atomic = line_machine(8);
        atomic.send(0, 1);
        atomic.charge_pointer_round(17, 3);
        atomic.charge_bulk(5, 2, 1);
        atomic.send(4, 5);

        let local = line_machine(8);
        let mut scratch = LocalChargeScratch::new();
        let mut lc = local.begin_local_charge(&mut scratch);
        lc.send(0, 1);
        RoundCharger::charge_pointer_round(&mut lc, 17, 3);
        lc.charge_bulk(5, 2, 1);
        lc.send(4, 5);
        lc.commit();

        assert_eq!(atomic.report(), local.report());
        for s in 0..8 {
            assert_eq!(atomic.clock(s), local.clock(s), "slot {s}");
        }
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

    #[test]
    fn parallel_charging_is_consistent() {
        use rayon::prelude::*;
        let m = line_machine(1000);
        (0..999u32).into_par_iter().for_each(|i| m.send(i, i + 1));
        assert_eq!(m.message_count(), 999);
        assert_eq!(m.energy(), 999);
        // Depth is at least 1 and at most the chain length; with parallel
        // interleaving the exact value varies, but energy must not.
        assert!(m.depth() >= 1);
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
