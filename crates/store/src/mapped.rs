//! Zero-copy, mmap-backed snapshot reading.
//!
//! [`MappedSnapshot`] opens a v2 snapshot file and serves the three
//! slabs as borrowed `&[u32]`/`&[u64]` views directly over the mapped
//! bytes — no decode, no heap copy of the slabs. The v2 format
//! guarantees every slab offset is 8-byte-aligned and mmap regions are
//! page-aligned, so the overlay casts are alignment-safe (asserted,
//! and pinned by `tests/mapped.rs`). All three per-slab CRCs are
//! verified on open, and so are the slabs' contents (a snapshot whose
//! checksums pass can still hold an order that is not a permutation);
//! after that the region is immutable and shared freely across
//! threads.
//!
//! On non-Unix targets (no `mmap`) the file is read into an 8-byte-
//! aligned heap buffer instead; the view API is identical, only the
//! out-of-core property is lost.
//!
//! Safe in-place patching: incremental checkpoints
//! ([`crate::write_incremental`]) patch the *file* while a reader may
//! still hold a mapping. This is sound because the mapping is private
//! (`MAP_PRIVATE`) and every patched byte range is either the header,
//! a slab tail beyond the mapped generation's `n`, or an extent whose
//! slab the owning forest has already promoted to owned memory — the
//! `n` valid entries a live view can observe never change value.

use crate::snapshot::{slab_offsets, validate_v2_prologue, SnapshotHeader};
use crate::{crc32, ForestSnapshot, StoreError};
use std::path::Path;

#[cfg(unix)]
mod sys {
    use core::ffi::c_void;
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// The backing bytes: a private read-only mapping on Unix, an aligned
/// heap buffer elsewhere. Never mutated after construction.
enum Region {
    #[cfg(unix)]
    Mmap { ptr: *mut u8, len: usize },
    #[allow(dead_code)] // the only variant off-Unix
    Heap { buf: Vec<u64>, len: usize },
}

// The region is read-only after construction: shared access from any
// thread is safe, and the raw pointer is owned (unmapped on drop).
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    #[cfg(unix)]
    fn map(path: &Path) -> std::io::Result<Region> {
        use std::os::unix::io::AsRawFd;
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            // mmap rejects zero-length maps; an empty file can't be a
            // snapshot anyway — hand back an empty heap region and let
            // validation report Truncated.
            return Ok(Region::Heap {
                buf: Vec::new(),
                len: 0,
            });
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Region::Mmap {
            ptr: ptr.cast(),
            len,
        })
    }

    #[cfg(not(unix))]
    fn map(path: &Path) -> std::io::Result<Region> {
        Self::read_aligned(path)
    }

    /// The fallback: the whole file in a `u64`-backed (so 8-aligned)
    /// heap buffer.
    #[allow(dead_code)]
    fn read_aligned(path: &Path) -> std::io::Result<Region> {
        let bytes = std::fs::read(path)?;
        let len = bytes.len();
        let mut buf = vec![0u64; len.div_ceil(8)];
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.as_mut_ptr().cast::<u8>(), len);
        }
        Ok(Region::Heap { buf, len })
    }

    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Region::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Region::Heap { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), *len)
            },
        }
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Region::Mmap { ptr, len } = self {
            unsafe {
                sys::munmap(ptr.cast(), *len);
            }
        }
    }
}

/// A validated v2 snapshot served zero-copy from an mmap'd (or, off-
/// Unix, aligned heap) region. See the module docs for the safety
/// argument around concurrent in-place patching.
pub struct MappedSnapshot {
    region: Region,
    header: SnapshotHeader,
    slab_crcs: [u32; 3],
    parents_off: usize,
    order_off: usize,
    weights_off: usize,
}

impl std::fmt::Debug for MappedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedSnapshot")
            .field("header", &self.header)
            .field("file_len", &self.region.bytes().len())
            .finish()
    }
}

/// The parents-slab entry of the root: it has no parent.
const NO_PARENT: u32 = u32::MAX;

/// Checks the contents a restore relies on, returning
/// [`StoreError::Inconsistent`] naming the first one that fails: the
/// reserved capacity covers the `n` vertices, the parents slab is one
/// tree rooted at the header's root (every entry a vertex id below `n`
/// except the root's, which is [`NO_PARENT`], and every vertex reaching
/// the root), and the order slab is a permutation of `0..n`. Which
/// curve family the header's index names is the forest's to check.
fn check_contents(
    header: &SnapshotHeader,
    parents: &[u32],
    order: &[u32],
) -> Result<(), StoreError> {
    let n = parents.len();
    if header.reserved < n as u64 {
        return Err(StoreError::Inconsistent(
            "reserved capacity below vertex count",
        ));
    }
    if n > 0 && parents.get(header.root as usize) != Some(&NO_PARENT) {
        return Err(StoreError::Inconsistent(
            "root out of range or with a parent",
        ));
    }
    let root = header.root as usize;
    let parent_ok = |(v, &p): (usize, &u32)| (p as usize) < n || (p == NO_PARENT && v == root);
    if !parents.iter().enumerate().all(parent_ok) {
        return Err(StoreError::Inconsistent("parent id out of range"));
    }
    // Every vertex reaches the root: walk up from each vertex to one
    // already known to; a walk that meets its own path is a cycle.
    const UNSEEN: u8 = 0;
    const ON_PATH: u8 = 1;
    const REACHES_ROOT: u8 = 2;
    let mut state = vec![UNSEEN; n];
    if n > 0 {
        state[root] = REACHES_ROOT;
    }
    let mut path = Vec::new();
    for v in 0..n {
        let mut x = v;
        while state[x] == UNSEEN {
            state[x] = ON_PATH;
            path.push(x);
            x = parents[x] as usize;
        }
        if state[x] == ON_PATH {
            return Err(StoreError::Inconsistent("parents contain a cycle"));
        }
        for &y in &path {
            state[y] = REACHES_ROOT;
        }
        path.clear();
    }
    let mut seen = vec![0u64; n.div_ceil(64)];
    for &v in order {
        let (word, bit) = (v as usize / 64, 1u64 << (v % 64));
        if v as usize >= n || seen[word] & bit != 0 {
            return Err(StoreError::Inconsistent("order is not a permutation"));
        }
        seen[word] |= bit;
    }
    Ok(())
}

impl MappedSnapshot {
    /// Maps and validates the v2 snapshot at `path`: magic, version,
    /// header CRC, file length, all three slab CRCs, and the slabs'
    /// contents (reserved capacity, parent ids, order permutation). A
    /// pending incremental-checkpoint delta is applied (crash recovery)
    /// before mapping.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let path = path.as_ref();
        crate::delta::apply_pending_delta(path)?;
        let region = Region::map(path)?;
        let bytes = region.bytes();
        let (header, slab_crcs) = validate_v2_prologue(bytes)?;
        let off = slab_offsets(header.slab_cap());
        if bytes.len() as u64 != off.file_len {
            return Err(StoreError::Truncated);
        }
        let n = header.n as usize;
        let slabs = [
            (off.parents as usize, 4 * n),
            (off.order as usize, 4 * n),
            (off.weights as usize, 8 * n),
        ];
        for ((start, len), &stored) in slabs.into_iter().zip(&slab_crcs) {
            let computed = crc32(&bytes[start..start + len]);
            if stored != computed {
                return Err(StoreError::BadChecksum { stored, computed });
            }
        }
        assert_eq!(
            bytes.as_ptr() as usize % 8,
            0,
            "mapped region must be 8-byte-aligned"
        );
        let snap = MappedSnapshot {
            region,
            header,
            slab_crcs,
            parents_off: off.parents as usize,
            order_off: off.order as usize,
            weights_off: off.weights as usize,
        };
        check_contents(&snap.header, snap.parents(), snap.order())?;
        Ok(snap)
    }

    /// The scalar header.
    pub fn header(&self) -> &SnapshotHeader {
        &self.header
    }

    /// Vertex count (valid entries per slab).
    pub fn n(&self) -> usize {
        self.header.n as usize
    }

    /// Total mapped file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.region.bytes().len() as u64
    }

    /// The stored per-slab CRCs (`[parents, order, weights]`) — the
    /// base-generation identity used by incremental checkpoints.
    pub fn slab_crcs(&self) -> [u32; 3] {
        self.slab_crcs
    }

    fn view<T>(&self, off: usize) -> &[T] {
        let bytes = self.region.bytes();
        let ptr = unsafe { bytes.as_ptr().add(off) };
        debug_assert_eq!(
            ptr as usize % std::mem::align_of::<T>(),
            0,
            "slab view misaligned"
        );
        unsafe { std::slice::from_raw_parts(ptr.cast::<T>(), self.n()) }
    }

    /// Zero-copy view of the parents slab.
    pub fn parents(&self) -> &[u32] {
        self.view(self.parents_off)
    }

    /// Zero-copy view of the layout-order slab.
    pub fn order(&self) -> &[u32] {
        self.view(self.order_off)
    }

    /// Zero-copy view of the weights slab.
    pub fn weights(&self) -> &[u64] {
        self.view(self.weights_off)
    }

    /// Byte span `(offset, len)` of the valid parents entries within
    /// the file — the unit the paging charge model prices.
    pub fn parents_span(&self) -> (u64, u64) {
        (self.parents_off as u64, 4 * self.n() as u64)
    }

    /// Byte span of the valid order entries.
    pub fn order_span(&self) -> (u64, u64) {
        (self.order_off as u64, 4 * self.n() as u64)
    }

    /// Byte span of the valid weights entries.
    pub fn weights_span(&self) -> (u64, u64) {
        (self.weights_off as u64, 8 * self.n() as u64)
    }

    /// Materializes an owned [`ForestSnapshot`] (copies the slabs).
    pub fn to_snapshot(&self) -> ForestSnapshot {
        ForestSnapshot::from_header(
            self.header,
            self.parents().to_vec(),
            self.order().to_vec(),
            self.weights().to_vec(),
        )
    }
}
