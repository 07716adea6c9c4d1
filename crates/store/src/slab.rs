//! Copy-on-write slabs: owned `Vec<T>` or a borrowed view into a
//! shared [`MappedSnapshot`], promoted to owned on first mutation.
//!
//! The forest layers hold their per-vertex slabs this way: a forest
//! built from a tree owns them, and a forest restored from a snapshot
//! (`spatial_session::SpatialForest::from_mapped`) starts on mapped
//! views. Queries read [`CowSlab::as_slice`] identically either way;
//! the first mutation calls [`CowSlab::make_mut`], which copies the
//! mapped entries into a freshly reserved vector exactly once. The `Arc`
//! keeps the mapped region alive for as long as any view borrows it —
//! and [`MappedSnapshot`] never moves its region after construction,
//! so the captured pointer stays valid for the `Arc`'s lifetime.

use crate::mapped::MappedSnapshot;
use std::sync::Arc;

/// A slab of `Copy` entries that is either owned or a zero-copy view
/// of a mapped snapshot.
pub struct CowSlab<T: Copy> {
    vec: Vec<T>,
    mapped: Option<MappedView<T>>,
}

struct MappedView<T> {
    /// Keeps the region (and therefore `ptr`) alive.
    _snap: Arc<MappedSnapshot>,
    ptr: *const T,
    len: usize,
}

// The view is read-only and the region outlives it via the Arc; the
// raw pointer carries no thread affinity.
unsafe impl<T: Copy + Send + Sync> Send for MappedView<T> {}
unsafe impl<T: Copy + Send + Sync> Sync for MappedView<T> {}

impl<T: Copy> CowSlab<T> {
    /// An owned slab.
    pub fn owned(vec: Vec<T>) -> Self {
        CowSlab { vec, mapped: None }
    }

    /// A mapped view. `slice` must borrow from `snap`'s region — the
    /// constructors on [`MappedSnapshot`] uphold this.
    pub(crate) fn mapped(snap: Arc<MappedSnapshot>, slice: &[T]) -> Self {
        CowSlab {
            vec: Vec::new(),
            mapped: Some(MappedView {
                ptr: slice.as_ptr(),
                len: slice.len(),
                _snap: snap,
            }),
        }
    }

    /// Heap bytes the slab keeps resident: the owned buffer's capacity
    /// (a mapped view holds none; its pages belong to the mapping).
    pub fn resident_bytes(&self) -> usize {
        self.vec.capacity() * std::mem::size_of::<T>()
    }

    /// Whether the slab is still a mapped view (no mutation yet).
    pub fn is_mapped(&self) -> bool {
        self.mapped.is_some()
    }

    /// The entries, whichever backing holds them.
    pub fn as_slice(&self) -> &[T] {
        match &self.mapped {
            Some(view) => unsafe { std::slice::from_raw_parts(view.ptr, view.len) },
            None => &self.vec,
        }
    }

    /// Entry count.
    pub fn len(&self) -> usize {
        match &self.mapped {
            Some(view) => view.len,
            None => self.vec.len(),
        }
    }

    /// Whether the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutable access, promoting a mapped view to owned on first use
    /// (one copy, reserved to at least `min_capacity` entries so the
    /// promotion also pre-sizes for growth).
    pub fn make_mut(&mut self, min_capacity: usize) -> &mut Vec<T> {
        if let Some(view) = self.mapped.take() {
            let slice = unsafe { std::slice::from_raw_parts(view.ptr, view.len) };
            self.vec = Vec::with_capacity(min_capacity.max(view.len));
            self.vec.extend_from_slice(slice);
        }
        &mut self.vec
    }

    /// Reserves capacity for `additional` more entries when owned
    /// (no-op on a mapped view — promotion sizes the copy instead).
    pub fn reserve(&mut self, additional: usize) {
        if self.mapped.is_none() {
            self.vec.reserve(additional);
        }
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for CowSlab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CowSlab")
            .field("mapped", &self.is_mapped())
            .field("len", &self.len())
            .finish()
    }
}

impl MappedSnapshot {
    /// The parents slab as a CoW view over this mapping.
    pub fn parents_slab(self: &Arc<Self>) -> CowSlab<u32> {
        CowSlab::mapped(self.clone(), self.parents())
    }

    /// The weights slab as a CoW view over this mapping.
    pub fn weights_slab(self: &Arc<Self>) -> CowSlab<u64> {
        CowSlab::mapped(self.clone(), self.weights())
    }
}
