//! The versioned, checksummed forest snapshot.
//!
//! Format v2 (all integers little-endian):
//!
//! ```text
//! [magic "SFSN"][version: u32][header_crc: u32]          // 12-byte prologue
//! [curve: u32][root: u32][layout_dirty: u32][rebuilds: u32][grows: u32][n: u32]
//! [reserved: u64][baseline_energy: u64][insertions: u64][tag: u64]
//! [parents_crc: u32][order_crc: u32][weights_crc: u32]   // 68-byte header
//! [parents: cap × u32, 8-padded][order: cap × u32, 8-padded][weights: cap × u64]
//! ```
//!
//! Two properties define the layout:
//!
//! - **Every slab starts 8-byte-aligned** (the prologue + header is 80
//!   bytes; each slab's byte length is padded to a multiple of 8), so a
//!   reader may overlay `&[u32]`/`&[u64]` views directly on the file
//!   bytes — the zero-copy contract behind [`crate::MappedSnapshot`].
//! - **Slabs are capacity-sized**: each slab holds `cap =
//!   max(reserved, n)` entries with a zero tail beyond `n`. Because
//!   `reserved` only changes on a capacity doubling, slab offsets are
//!   *stable across inserts between grows* — the enabler for in-place
//!   extent patching by incremental checkpoints (see [`crate::delta`]).
//!
//! Integrity is split: `header_crc` covers the 68 header bytes, and one
//! CRC-32 per slab covers that slab's `n` *valid* entries (the zero
//! padding is never interpreted and is not covered). Every other
//! version, including the packed v1 layout, fails with
//! [`StoreError::UnsupportedVersion`].
//!
//! Snapshots are only ever produced through [`crate::atomic_write`],
//! which rules out torn files from this writer; the checksums guard
//! against every other producer and against storage corruption. The
//! slabs mirror the in-memory arrays of the dynamic layout (`parents`,
//! the layout's slot → vertex `order`) and the forest (`weights`)
//! verbatim: encoding is a copy, not a traversal.

use crate::{atomic_write, crc32, StoreError};
use std::path::Path;

// The zero-copy overlay (and the slab-CRC byte views below) reinterpret
// the little-endian file bytes as host integers in place.
#[cfg(target_endian = "big")]
compile_error!("spatial-store v2 snapshots require a little-endian host");

/// The four magic bytes every snapshot starts with.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SFSN";

/// The format version this build writes (and the newest it reads).
pub const SNAPSHOT_VERSION: u32 = 2;

pub(crate) const PROLOGUE_BYTES: usize = 12;
/// v2 header: 6 × u32 + 4 × u64 + 3 slab CRCs.
pub(crate) const HEADER_BYTES: usize = 6 * 4 + 4 * 8 + 3 * 4;
/// Offset of the first slab — `12 + 68 = 80`, a multiple of 8.
pub(crate) const SLABS_OFFSET: usize = PROLOGUE_BYTES + HEADER_BYTES;

/// The scalar header shared by every v2 artifact: the snapshot a
/// forest writes ([`ForestSnapshot`]), the reader
/// ([`crate::MappedSnapshot`]), and the incremental checkpoint delta
/// ([`crate::delta`]). Field semantics belong to the
/// forest types; this struct is the format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Curve family, as the forest's stable curve index.
    pub curve: u32,
    /// Root vertex id.
    pub root: u32,
    /// Whether tail appends had left the layout non-light-first.
    pub layout_dirty: bool,
    /// Lifetime light-first rebuild count.
    pub rebuilds: u32,
    /// Lifetime capacity-doubling count.
    pub grows: u32,
    /// Vertex count (valid entries per slab).
    pub n: u32,
    /// Reserved curve capacity (vertex count of the next doubling).
    pub reserved: u64,
    /// Kernel energy right after the last rebuild (the quality-
    /// threshold anchor).
    pub baseline_energy: u64,
    /// Lifetime insert count.
    pub insertions: u64,
    /// Caller-owned tag (the serve layer stores its journal generation
    /// here so a checkpoint can switch journal files crash-safely).
    pub tag: u64,
}

impl SnapshotHeader {
    /// Entries per slab in the v2 file: `max(reserved, n)`. Stable
    /// across inserts until a capacity doubling changes `reserved`.
    pub fn slab_cap(&self) -> u64 {
        self.reserved.max(self.n as u64)
    }

    pub(crate) fn encode(&self, slab_crcs: [u32; 3]) -> [u8; HEADER_BYTES] {
        let mut h = [0u8; HEADER_BYTES];
        h[0..4].copy_from_slice(&self.curve.to_le_bytes());
        h[4..8].copy_from_slice(&self.root.to_le_bytes());
        h[8..12].copy_from_slice(&(self.layout_dirty as u32).to_le_bytes());
        h[12..16].copy_from_slice(&self.rebuilds.to_le_bytes());
        h[16..20].copy_from_slice(&self.grows.to_le_bytes());
        h[20..24].copy_from_slice(&self.n.to_le_bytes());
        h[24..32].copy_from_slice(&self.reserved.to_le_bytes());
        h[32..40].copy_from_slice(&self.baseline_energy.to_le_bytes());
        h[40..48].copy_from_slice(&self.insertions.to_le_bytes());
        h[48..56].copy_from_slice(&self.tag.to_le_bytes());
        h[56..60].copy_from_slice(&slab_crcs[0].to_le_bytes());
        h[60..64].copy_from_slice(&slab_crcs[1].to_le_bytes());
        h[64..68].copy_from_slice(&slab_crcs[2].to_le_bytes());
        h
    }

    /// Parses the 68 header bytes (caller has already checked length
    /// and `header_crc`).
    pub(crate) fn decode(h: &[u8]) -> (SnapshotHeader, [u32; 3]) {
        let u32_at = |o: usize| u32::from_le_bytes(h[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(h[o..o + 8].try_into().unwrap());
        (
            SnapshotHeader {
                curve: u32_at(0),
                root: u32_at(4),
                layout_dirty: u32_at(8) != 0,
                rebuilds: u32_at(12),
                grows: u32_at(16),
                n: u32_at(20),
                reserved: u64_at(24),
                baseline_energy: u64_at(32),
                insertions: u64_at(40),
                tag: u64_at(48),
            },
            [u32_at(56), u32_at(60), u32_at(64)],
        )
    }
}

/// Byte offsets of the three v2 slabs for a given capacity — all
/// multiples of 8 by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlabOffsets {
    pub parents: u64,
    pub order: u64,
    pub weights: u64,
    pub file_len: u64,
}

pub(crate) const fn pad8(bytes: u64) -> u64 {
    (bytes + 7) & !7
}

pub(crate) fn slab_offsets(cap: u64) -> SlabOffsets {
    let parents = SLABS_OFFSET as u64;
    let order = parents + pad8(4 * cap);
    let weights = order + pad8(4 * cap);
    SlabOffsets {
        parents,
        order,
        weights,
        file_len: weights + 8 * cap,
    }
}

/// The in-place byte view of a `u32` slab on a little-endian host.
pub(crate) fn u32_bytes(slab: &[u32]) -> &[u8] {
    unsafe { std::slice::from_raw_parts(slab.as_ptr().cast::<u8>(), 4 * slab.len()) }
}

/// The in-place byte view of a `u64` slab on a little-endian host.
pub(crate) fn u64_bytes(slab: &[u64]) -> &[u8] {
    unsafe { std::slice::from_raw_parts(slab.as_ptr().cast::<u8>(), 8 * slab.len()) }
}

/// The durable image of one forest's structure: everything needed to
/// restore a `DynamicLayout` (and the forest's weights) bit-identical
/// to the live instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForestSnapshot {
    /// Curve family, as the forest's stable curve index.
    pub curve: u32,
    /// Root vertex id.
    pub root: u32,
    /// Whether tail appends had left the layout non-light-first.
    pub layout_dirty: bool,
    /// Lifetime light-first rebuild count.
    pub rebuilds: u32,
    /// Lifetime capacity-doubling count.
    pub grows: u32,
    /// Reserved curve capacity (vertex count of the next doubling).
    pub reserved: u64,
    /// Kernel energy right after the last rebuild (the quality-
    /// threshold anchor).
    pub baseline_energy: u64,
    /// Lifetime insert count.
    pub insertions: u64,
    /// Caller-owned tag (see [`SnapshotHeader::tag`]).
    pub tag: u64,
    /// Parent of every vertex (`u32::MAX` for the root).
    pub parents: Vec<u32>,
    /// The layout's linear order: `order[slot] = vertex`.
    pub order: Vec<u32>,
    /// Subtree-sum weight of every vertex.
    pub weights: Vec<u64>,
}

impl ForestSnapshot {
    /// The scalar header of this snapshot.
    pub fn header(&self) -> SnapshotHeader {
        SnapshotHeader {
            curve: self.curve,
            root: self.root,
            layout_dirty: self.layout_dirty,
            rebuilds: self.rebuilds,
            grows: self.grows,
            n: self.parents.len() as u32,
            reserved: self.reserved,
            baseline_energy: self.baseline_energy,
            insertions: self.insertions,
            tag: self.tag,
        }
    }

    /// Entries per slab in the encoded v2 file (see
    /// [`SnapshotHeader::slab_cap`]).
    pub fn slab_cap(&self) -> u64 {
        self.header().slab_cap()
    }

    /// CRC-32 of each slab's valid entries, in `[parents, order,
    /// weights]` order — the per-slab integrity words of the v2 header,
    /// also used by incremental checkpoints to validate that the base
    /// file on disk is the generation the dirty extents were tracked
    /// against.
    pub fn slab_crcs(&self) -> [u32; 3] {
        [
            crc32(u32_bytes(&self.parents)),
            crc32(u32_bytes(&self.order)),
            crc32(u64_bytes(&self.weights)),
        ]
    }

    /// Serializes the snapshot to its on-disk v2 byte layout.
    pub fn encode(&self) -> Vec<u8> {
        let n = self.parents.len();
        assert_eq!(self.order.len(), n, "order/parents length mismatch");
        assert_eq!(self.weights.len(), n, "weights/parents length mismatch");
        let off = slab_offsets(self.slab_cap());
        let mut bytes = vec![0u8; off.file_len as usize];
        bytes[0..4].copy_from_slice(&SNAPSHOT_MAGIC);
        bytes[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let header = self.header().encode(self.slab_crcs());
        bytes[8..12].copy_from_slice(&crc32(&header).to_le_bytes());
        bytes[PROLOGUE_BYTES..SLABS_OFFSET].copy_from_slice(&header);
        let p = off.parents as usize;
        bytes[p..p + 4 * n].copy_from_slice(u32_bytes(&self.parents));
        let o = off.order as usize;
        bytes[o..o + 4 * n].copy_from_slice(u32_bytes(&self.order));
        let w = off.weights as usize;
        bytes[w..w + 8 * n].copy_from_slice(u64_bytes(&self.weights));
        bytes
    }

    pub(crate) fn from_header(
        h: SnapshotHeader,
        parents: Vec<u32>,
        order: Vec<u32>,
        weights: Vec<u64>,
    ) -> Self {
        ForestSnapshot {
            curve: h.curve,
            root: h.root,
            layout_dirty: h.layout_dirty,
            rebuilds: h.rebuilds,
            grows: h.grows,
            reserved: h.reserved,
            baseline_energy: h.baseline_energy,
            insertions: h.insertions,
            tag: h.tag,
            parents,
            order,
            weights,
        }
    }

    /// Writes the snapshot to `path` via temp-file + atomic rename.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        atomic_write(path, &self.encode())
    }
}

/// Checks magic, version == 2, and the header CRC; returns the parsed
/// header + slab CRCs. Shared by the snapshot reader
/// ([`crate::MappedSnapshot::open`]) and the delta applier.
pub(crate) fn validate_v2_prologue(bytes: &[u8]) -> Result<(SnapshotHeader, [u32; 3]), StoreError> {
    if bytes.len() < PROLOGUE_BYTES {
        return Err(StoreError::Truncated);
    }
    if bytes[0..4] != SNAPSHOT_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    if bytes.len() < SLABS_OFFSET {
        return Err(StoreError::Truncated);
    }
    let stored = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    let computed = crc32(&bytes[PROLOGUE_BYTES..SLABS_OFFSET]);
    if stored != computed {
        return Err(StoreError::BadChecksum { stored, computed });
    }
    Ok(SnapshotHeader::decode(&bytes[PROLOGUE_BYTES..SLABS_OFFSET]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MappedSnapshot;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn sample() -> ForestSnapshot {
        ForestSnapshot {
            curve: 0,
            root: 2,
            layout_dirty: true,
            rebuilds: 3,
            grows: 1,
            reserved: 16,
            baseline_energy: 77,
            insertions: 5,
            tag: 9,
            parents: vec![2, 0, u32::MAX, 1, 1],
            order: vec![2, 0, 1, 3, 4],
            weights: vec![1, 10, 1, 4, 1],
        }
    }

    /// Writes `bytes` to a fresh file and reads it back through the
    /// one snapshot reader, [`MappedSnapshot::open`].
    fn open_bytes(bytes: &[u8]) -> Result<ForestSnapshot, StoreError> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "spatial-store-snap-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, bytes).expect("write snapshot bytes");
        let read = MappedSnapshot::open(&path).map(|m| m.to_snapshot());
        std::fs::remove_file(&path).ok();
        read
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        assert_eq!(open_bytes(&snap.encode()).expect("open"), snap);
    }

    #[test]
    fn v1_readback_compat() {
        // The packed v1 layout is no longer read: a v1 file is refused by
        // its version tag, before any length or checksum check. An empty
        // v1 forest (prologue + 56-byte header) is shorter than the v2
        // header, so this also pins that it is not misreported as
        // truncated.
        let mut v1 = SNAPSHOT_MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.resize(PROLOGUE_BYTES + 6 * 4 + 4 * 8, 0);
        assert!(matches!(
            open_bytes(&v1),
            Err(StoreError::UnsupportedVersion(1))
        ));
        let mut relabelled = sample().encode();
        relabelled[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            open_bytes(&relabelled),
            Err(StoreError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn v2_slabs_are_capacity_sized_and_aligned() {
        let snap = sample();
        let bytes = snap.encode();
        let off = slab_offsets(snap.slab_cap());
        assert_eq!(bytes.len() as u64, off.file_len);
        for o in [off.parents, off.order, off.weights] {
            assert_eq!(o % 8, 0, "slab offset {o} not 8-aligned");
        }
        // cap = reserved (16) here: growing n without growing reserved
        // must keep every slab offset identical.
        let mut grown = snap.clone();
        grown.parents.push(0);
        grown.order.push(5);
        grown.weights.push(2);
        assert_eq!(slab_offsets(grown.slab_cap()), off);
        assert_eq!(grown.encode().len(), bytes.len());
    }

    #[test]
    fn file_roundtrip() {
        let path = std::env::temp_dir().join(format!(
            "spatial-store-snap-roundtrip-{}",
            std::process::id()
        ));
        sample().write_to(&path).expect("write");
        let mapped = MappedSnapshot::open(&path).expect("open");
        assert_eq!(mapped.to_snapshot(), sample());
        drop(mapped);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_corruption() {
        let snap = sample();
        let good = snap.encode();
        let off = slab_offsets(snap.slab_cap());

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(open_bytes(&bad_magic), Err(StoreError::BadMagic)));

        let mut bad_version = good.clone();
        bad_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            open_bytes(&bad_version),
            Err(StoreError::UnsupportedVersion(99))
        ));

        // A flipped bit in the header or in any slab's valid entries
        // fails a checksum (the zero padding is not interpreted and not
        // covered).
        let n = snap.parents.len();
        for at in [
            PROLOGUE_BYTES,
            PROLOGUE_BYTES + 20,
            off.parents as usize,
            off.parents as usize + 4 * n - 1,
            off.order as usize + 4 * n - 1,
            off.weights as usize + 8 * n - 1,
        ] {
            let mut flipped = good.clone();
            flipped[at] ^= 1;
            assert!(
                matches!(open_bytes(&flipped), Err(StoreError::BadChecksum { .. })),
                "flip at {at}"
            );
        }

        // A truncated file fails before the checksum can even be read.
        assert!(matches!(open_bytes(&good[..8]), Err(StoreError::Truncated)));
        assert!(matches!(
            open_bytes(&good[..good.len() - 8]),
            Err(StoreError::Truncated)
        ));
    }

    #[test]
    fn empty_forest_snapshot() {
        let snap = ForestSnapshot {
            curve: 1,
            root: 0,
            layout_dirty: false,
            rebuilds: 0,
            grows: 0,
            reserved: 4,
            baseline_energy: 1,
            insertions: 0,
            tag: 0,
            parents: Vec::new(),
            order: Vec::new(),
            weights: Vec::new(),
        };
        assert_eq!(open_bytes(&snap.encode()).expect("open"), snap);
    }
}
