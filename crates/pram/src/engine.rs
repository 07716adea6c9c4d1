//! The flat-array PRAM simulation engine.
//!
//! [`PramEngine`] is the rebuilt [`crate::reference::PramMachine`]: the
//! rng-dependent *structure* — the hashed cell placement, the
//! per-processor slot geometry, and the cell → grid-point distance
//! table — is built once in [`PramEngine::new`] and reused across any
//! number of runs, and all *charging* goes through a [`PramRun`], which
//! charges the engine's machine access by access or batch by batch.
//!
//! The charge rules are identical to the seed machine, access for
//! access:
//!
//! - a **read** of cell `c` by processor `p` costs `2·dist(p, slot(c))`
//!   energy, 2 messages, 1 work (request + response);
//! - a **write** costs `dist(p, slot(c))` energy, 1 message, 1 work;
//! - **ending a step** lifts every clock by the routing overhead
//!   `⌈log₂(slots)⌉` (the simulation's per-step poly-log routing,
//!   charged conservatively as one `advance_all`).
//!
//! The batched access hooks ([`PramRun::read_batch`] /
//! [`PramRun::write_batch`]) fold a whole synchronous step's accesses
//! into one bulk charge — sums of the identical per-access charges, so
//! the differential suite (`tests/engine_vs_reference.rs`) pins the
//! engine's energy/messages/work/depth/steps bit-for-bit against the
//! seed machine.

use crate::reference::step_overhead_for;
use rand::seq::SliceRandom;
use rand::Rng;
use spatial_model::{manhattan, CostReport, CurveKind, GridPoint, Machine, Slot};

/// The reusable PRAM simulation engine: structure built once, runs
/// charged through [`PramRun`]s.
///
/// Processor `i` occupies grid slot `i`; memory cell `j` lives at the
/// slot chosen by a random permutation drawn at construction (the
/// hashing that makes shared memory location-oblivious). Open a run
/// with [`PramEngine::run`], route every access through it, then
/// [`PramRun::finish`] it.
pub struct PramEngine {
    machine: Machine,
    processors: u32,
    /// Hashed cell placement: `cell_slot[j]` is the grid slot of cell
    /// `j` (kept for slot-level introspection and tests).
    cell_slot: Vec<Slot>,
    /// Distance table: the grid point of every cell's slot, resolved
    /// once so a per-access distance is one subtraction instead of two
    /// indirections through the machine's slot array.
    cell_pt: Vec<GridPoint>,
    step_overhead: u32,
    steps: u32,
}

impl PramEngine {
    /// Engine with `processors` processors and `cells` shared memory
    /// cells hashed over a Hilbert grid of `max(processors, cells)`
    /// slots — the seed machine's exact geometry (and, given the same
    /// `rng`, the identical cell placement).
    pub fn new<R: Rng>(processors: u32, cells: u32, rng: &mut R) -> Self {
        Self::with_curve(CurveKind::Hilbert, processors, cells, rng)
    }

    /// [`PramEngine::new`] on an explicit slot curve (the E8 sweep
    /// varies the curve together with the spatial counterpart's).
    pub fn with_curve<R: Rng>(curve: CurveKind, processors: u32, cells: u32, rng: &mut R) -> Self {
        let slots = processors.max(cells).max(1);
        let machine = Machine::on_curve(curve, slots);
        let mut cell_slot: Vec<Slot> = (0..slots).collect();
        cell_slot.shuffle(rng);
        cell_slot.truncate(cells as usize);
        let cell_pt: Vec<GridPoint> = cell_slot.iter().map(|&s| machine.point_of(s)).collect();
        let step_overhead = step_overhead_for(slots);
        PramEngine {
            machine,
            processors,
            cell_slot,
            cell_pt,
            step_overhead,
            steps: 0,
        }
    }

    /// Number of processors.
    pub fn processors(&self) -> u32 {
        self.processors
    }

    /// Number of shared memory cells.
    pub fn cells(&self) -> u32 {
        self.cell_slot.len() as u32
    }

    /// Grid slot of a memory cell.
    pub fn cell_slot(&self, cell: u32) -> Slot {
        self.cell_slot[cell as usize]
    }

    /// Depth charged per synchronous step: `⌈log₂(slots)⌉`, at least 1.
    pub fn step_overhead(&self) -> u32 {
        self.step_overhead
    }

    /// Number of PRAM steps executed (cumulative until
    /// [`PramEngine::reset`]).
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// The underlying spatial machine (geometry + meters).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Cost snapshot of the underlying spatial machine.
    pub fn report(&self) -> CostReport {
        self.machine.report()
    }

    /// Clears the meters and the step counter; the placement (the
    /// structure the engine exists to retain) is kept.
    pub fn reset(&mut self) {
        self.machine.reset();
        self.steps = 0;
    }

    /// Opens a run. All accesses of a run go through the returned
    /// [`PramRun`], which charges the engine's machine as they happen.
    /// Opening and running performs no heap allocation.
    pub fn run(&mut self) -> PramRun<'_> {
        PramRun {
            machine: &self.machine,
            cell_pt: &self.cell_pt,
            step_overhead: self.step_overhead,
            steps: &mut self.steps,
        }
    }
}

/// One run over a [`PramEngine`]: charges each PRAM access, or each
/// batch of them, to the engine's machine.
pub struct PramRun<'e> {
    machine: &'e Machine,
    cell_pt: &'e [GridPoint],
    step_overhead: u32,
    steps: &'e mut u32,
}

impl PramRun<'_> {
    /// Number of shared memory cells.
    #[inline]
    pub fn cells(&self) -> u32 {
        self.cell_pt.len() as u32
    }

    /// Manhattan distance between processor `proc` and the hashed slot
    /// of `cell` — the energy one message between them costs.
    #[inline]
    pub fn access_dist(&self, proc: u32, cell: u32) -> u64 {
        manhattan(self.machine.point_of(proc), self.cell_pt[cell as usize])
    }

    /// Charges a read of `cell` by `proc`: a request and a response
    /// message across the grid.
    #[inline]
    pub fn read(&mut self, proc: u32, cell: u32) {
        let d = self.access_dist(proc, cell);
        self.machine.charge_bulk(2 * d, 2, 1);
    }

    /// Charges a write to `cell` by `proc`: one message.
    #[inline]
    pub fn write(&mut self, proc: u32, cell: u32) {
        let d = self.access_dist(proc, cell);
        self.machine.charge_bulk(d, 1, 1);
    }

    /// Charges a batch of reads in one bulk update — the sum of the
    /// identical per-access charges (`2·d` energy, 2 messages, 1 work
    /// each), so batching never changes the totals.
    pub fn read_batch<I: IntoIterator<Item = (u32, u32)>>(&mut self, accesses: I) {
        let (mut energy, mut count) = (0u64, 0u64);
        for (proc, cell) in accesses {
            energy += self.access_dist(proc, cell);
            count += 1;
        }
        self.machine.charge_bulk(2 * energy, 2 * count, count);
    }

    /// Charges a batch of writes in one bulk update (`d` energy, 1
    /// message, 1 work each).
    pub fn write_batch<I: IntoIterator<Item = (u32, u32)>>(&mut self, accesses: I) {
        let (mut energy, mut count) = (0u64, 0u64);
        for (proc, cell) in accesses {
            energy += self.access_dist(proc, cell);
            count += 1;
        }
        self.machine.charge_bulk(energy, count, count);
    }

    /// Ends one synchronous PRAM step: lifts every clock by the
    /// routing overhead.
    pub fn end_step(&mut self) {
        self.machine.advance_all(self.step_overhead);
        *self.steps += 1;
    }

    /// Number of PRAM steps executed so far (including this run's).
    pub fn steps(&self) -> u32 {
        *self.steps
    }

    /// Ends the run. Every access was charged as it happened, so this
    /// only releases the engine.
    pub fn finish(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::PramMachine;
    use rand::prelude::*;

    #[test]
    fn engine_matches_seed_geometry_and_charges() {
        // Same rng stream ⇒ same placement ⇒ identical charges for the
        // identical access sequence.
        let mut rng_e = StdRng::seed_from_u64(5);
        let mut rng_r = StdRng::seed_from_u64(5);
        let mut engine = PramEngine::new(300, 500, &mut rng_e);
        let mut seed = PramMachine::new(300, 500, &mut rng_r);
        assert_eq!(engine.cells(), seed.cells());
        assert_eq!(engine.step_overhead(), seed.step_overhead());

        let mut run = engine.run();
        for i in 0..300u32 {
            run.read(i, (i * 13 + 7) % 500);
            run.write(i, (i * 5 + 1) % 500);
        }
        run.end_step();
        run.finish();

        for i in 0..300u32 {
            seed.read(i, (i * 13 + 7) % 500);
            seed.write(i, (i * 5 + 1) % 500);
        }
        seed.end_step();

        assert_eq!(engine.report(), seed.report());
        assert_eq!(engine.steps(), seed.steps());
    }

    #[test]
    fn batched_accesses_equal_singles() {
        let mk = || PramEngine::new(64, 100, &mut StdRng::seed_from_u64(9));
        let pairs: Vec<(u32, u32)> = (0..64u32).map(|i| (i, (i * 31 + 3) % 100)).collect();

        let mut singles = mk();
        let mut run = singles.run();
        for &(p, c) in &pairs {
            run.read(p, c);
        }
        for &(p, c) in &pairs {
            run.write(p, c);
        }
        run.end_step();
        run.finish();

        let mut batched = mk();
        let mut run = batched.run();
        run.read_batch(pairs.iter().copied());
        run.write_batch(pairs.iter().copied());
        run.end_step();
        run.finish();

        assert_eq!(singles.report(), batched.report());
    }

    #[test]
    fn reset_keeps_placement() {
        let mut engine = PramEngine::new(32, 32, &mut StdRng::seed_from_u64(3));
        let slots_before: Vec<u32> = (0..32).map(|c| engine.cell_slot(c)).collect();
        let mut run = engine.run();
        run.read(0, 31);
        run.end_step();
        run.finish();
        assert!(engine.report().energy > 0 || engine.cell_slot(31) == 0);
        assert_eq!(engine.steps(), 1);
        engine.reset();
        assert_eq!(engine.report(), CostReport::default());
        assert_eq!(engine.steps(), 0);
        let slots_after: Vec<u32> = (0..32).map(|c| engine.cell_slot(c)).collect();
        assert_eq!(slots_before, slots_after);
    }

    #[test]
    fn sessions_resume_depth() {
        // Two runs stack their step overheads on the same machine.
        let mut engine = PramEngine::new(1024, 1024, &mut StdRng::seed_from_u64(1));
        let mut run = engine.run();
        run.end_step();
        run.finish();
        let mut run = engine.run();
        run.end_step();
        run.end_step();
        run.finish();
        assert_eq!(engine.steps(), 3);
        assert_eq!(engine.report().depth, 3 * 10);
    }
}
