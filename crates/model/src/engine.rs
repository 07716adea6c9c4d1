//! The uniform engine lifecycle of the session layer.
//!
//! Every retained engine in the workspace (`ContractionEngine`,
//! `RankingEngine`, `LcaEngine`, `LayoutEngine`, `PramEngine`) separates
//! a capacity — how many vertices/elements its flat buffers can serve
//! without reallocating — from the binding — which concrete tree/list it
//! currently answers for. The session layer's engine pool drives all of
//! them through this one trait: grow with [`EngineLifecycle::reserve`]
//! (amortized doubling, the only allocating step), invalidate with
//! [`EngineLifecycle::reset`], and run through the engine's own
//! `bind`/`run`-shaped entry points, which are allocation-free once the
//! capacity suffices. The contraction and ranking engines keep what a
//! run restores in a separate set of run buffers that a caller can
//! lend them (`swap_run`): `reserve` grows the set an engine holds,
//! and a pooled engine, which holds none between runs, grows its
//! structure only.

/// The `reserve`/`reset` half of the uniform `reset/reserve/run` engine
/// lifecycle. The `run` half stays on each engine's inherent API (the
/// signatures differ — queries, values, machines), but capacity
/// management is identical everywhere, which is what lets one pool hold
/// heterogeneous engines.
pub trait EngineLifecycle {
    /// Number of vertices (or list elements) the retained buffers can
    /// currently serve without reallocating.
    fn capacity(&self) -> usize;

    /// Grows the retained buffers so that bindings of up to `cap`
    /// vertices are allocation-free. Never shrinks; a no-op when the
    /// capacity already suffices.
    fn reserve(&mut self, cap: usize);

    /// Clears per-run results and the current binding, keeping every
    /// retained buffer (and therefore the capacity).
    fn reset(&mut self);
}

/// Capacity of an engine's per-round arrays for inputs of up to `cap`
/// vertices or list elements: a generous bound on the `O(log n)` w.h.p.
/// round count of the random-mate contractions. A run that needs more
/// rounds still answers correctly; it only allocates.
pub fn round_capacity(cap: usize) -> usize {
    64 + 8 * (usize::BITS - cap.leading_zeros()) as usize
}

/// Heap bytes a vector keeps resident: its capacity, not its length,
/// because a retained buffer holds its capacity between runs. The
/// `resident_bytes` census of every engine sums these.
pub fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}
