//! Incremental checkpoints: journal compaction that rewrites only the
//! dirty slab extents against the previous snapshot generation.
//!
//! A full checkpoint rewrites `O(file)` bytes however small the journal
//! tail was. The v2 snapshot layout makes a cheaper contract possible:
//! slabs are capacity-sized, so as long as `reserved` is unchanged (no
//! capacity doubling since the base generation), every slab offset is
//! identical between generations, and the new generation differs from
//! the base only in the header plus a set of **extents** — appended
//! tail entries, individually overwritten weight cells, and (after a
//! rebuild) the order slab.
//!
//! ## The extent protocol
//!
//! 1. Encode a *delta file* (`<snapshot>.delta`, layout below) holding
//!    the complete new header and every dirty extent, and publish it
//!    with [`crate::atomic_write`]. **The rename is the commit point.**
//! 2. Patch the base snapshot in place: header bytes, then each extent
//!    at its absolute offset; `fsync`.
//! 3. Delete the delta file.
//!
//! A crash anywhere is safe: before the rename, the base file is the
//! intact previous generation; after it, recovery re-applies the delta
//! ([`apply_pending_delta`] — every write is an absolute-offset
//! overwrite, so re-application is idempotent at any interleaving,
//! including over a half-patched file). Only after the patch is fully
//! synced is the delta removed.
//!
//! ```text
//! [magic "SFSD"][version: u32][crc: u32]   // crc over everything after
//! [new header: 68 bytes]                   // same encoding as snapshot v2
//! [extent_count: u32]
//! repeated: [slab: u32][start: u64][len: u64][len × entry bytes]
//! ```
//!
//! `slab` is 0 = parents (u32 entries), 1 = order (u32), 2 = weights
//! (u64); `start`/`len` are entry indexes into the capacity-sized slab.
//!
//! The *writer*-side validation ([`write_incremental`]) is strict: the
//! base file must carry the exact per-slab CRCs the caller tracked its
//! dirty extents against, so a stale tracker or a foreign file falls
//! back to a full rewrite instead of silently patching the wrong base.
//! The *apply*-side validation is deliberately weaker (magic, version,
//! file length): it must succeed over a torn half-patched base, whose
//! header bytes cannot be trusted.

use crate::snapshot::{
    slab_offsets, u32_bytes, u64_bytes, validate_v2_prologue, SnapshotHeader, HEADER_BYTES,
    PROLOGUE_BYTES, SLABS_OFFSET, SNAPSHOT_MAGIC,
};
use crate::{atomic_write, crc32, ForestSnapshot, StoreError};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The four magic bytes every incremental-checkpoint delta starts with.
pub const DELTA_MAGIC: [u8; 4] = *b"SFSD";

/// The delta format version this build writes and reads.
pub const DELTA_VERSION: u32 = 1;

/// Where the pending delta for `snapshot_path` lives: the snapshot
/// path with `.delta` appended.
pub fn delta_path(snapshot_path: &Path) -> PathBuf {
    let mut os = snapshot_path.as_os_str().to_os_string();
    os.push(".delta");
    PathBuf::from(os)
}

/// The dirty state a forest tracked since its base generation — the
/// input [`write_incremental`] turns into extents.
#[derive(Debug, Clone, Default)]
pub struct DirtyExtents {
    /// Vertex count at the base generation. Entries `>= base_len` in
    /// every slab are dirty (appends only ever extend the tail).
    pub base_len: u32,
    /// Whether a light-first rebuild rewrote the order slab (the order
    /// is slot-indexed; a rebuild permutes all of it).
    pub order_rewritten: bool,
    /// Individually overwritten weight cells below `base_len`
    /// (unsorted, may contain duplicates).
    pub weight_cells: Vec<u32>,
}

const SLAB_PARENTS: u32 = 0;
const SLAB_ORDER: u32 = 1;
const SLAB_WEIGHTS: u32 = 2;

fn entry_width(slab: u32) -> u64 {
    match slab {
        SLAB_WEIGHTS => 8,
        _ => 4,
    }
}

/// Writes the new generation `snap` over the base snapshot at `path`
/// as an incremental checkpoint, returning the total bytes written
/// (delta file + in-place patch). Returns `Ok(None)` — *fall back to a
/// full rewrite* — when the base is unusable: missing, not v2, a
/// different capacity (a grow happened), a different vertex count than
/// `dirty.base_len`, or per-slab CRCs that don't match
/// `base_slab_crcs` (the generation the caller tracked against).
pub fn write_incremental(
    snapshot_path: impl AsRef<Path>,
    snap: &ForestSnapshot,
    dirty: &DirtyExtents,
    base_slab_crcs: [u32; 3],
) -> Result<Option<u64>, StoreError> {
    let path = snapshot_path.as_ref();
    let bytes = match commit_delta(path, snap, dirty, base_slab_crcs)? {
        Some(b) => b,
        None => return Ok(None),
    };

    // ---- Patch the base in place, then retire the delta. ----
    let patched = patch_base(path, &bytes, None)?;
    std::fs::remove_file(delta_path(path))?;
    Ok(Some(bytes.len() as u64 + patched))
}

/// Steps 1 of the extent protocol: validate the base, encode the delta,
/// and publish it atomically. Returns the delta bytes, or `None` for
/// the full-rewrite fallback. Stopping here is exactly the crash state
/// "committed but not yet applied".
fn commit_delta(
    path: &Path,
    snap: &ForestSnapshot,
    dirty: &DirtyExtents,
    base_slab_crcs: [u32; 3],
) -> Result<Option<Vec<u8>>, StoreError> {
    // Finish any committed-but-unapplied previous checkpoint first, so
    // the base we validate below is a whole generation.
    apply_pending_delta(path)?;

    let header = snap.header();
    let n = header.n;
    if n < dirty.base_len || header.slab_cap() != header.reserved {
        return Ok(None);
    }
    let base = match read_base_header(path) {
        Some(b) => b,
        None => return Ok(None),
    };
    let (base_header, base_crcs) = base;
    if base_header.n != dirty.base_len
        || base_header.reserved != header.reserved
        || base_header.slab_cap() != header.slab_cap()
        || base_crcs != base_slab_crcs
    {
        return Ok(None);
    }
    let off = slab_offsets(header.slab_cap());
    match std::fs::metadata(path) {
        Ok(m) if m.len() == off.file_len => {}
        _ => return Ok(None),
    }

    // ---- Extent list. ----
    let b = dirty.base_len as usize;
    let nn = n as usize;
    let mut extents: Vec<(u32, u64, &[u8])> = Vec::new();
    if nn > b {
        extents.push((SLAB_PARENTS, b as u64, u32_bytes(&snap.parents[b..])));
    }
    if dirty.order_rewritten {
        extents.push((SLAB_ORDER, 0, u32_bytes(&snap.order)));
    } else if nn > b {
        extents.push((SLAB_ORDER, b as u64, u32_bytes(&snap.order[b..])));
    }
    let mut cells: Vec<u32> = dirty
        .weight_cells
        .iter()
        .copied()
        .filter(|&c| (c as usize) < b)
        .collect();
    cells.sort_unstable();
    cells.dedup();
    let mut i = 0;
    while i < cells.len() {
        let start = cells[i] as usize;
        let mut end = start + 1;
        i += 1;
        while i < cells.len() && cells[i] as usize == end {
            end += 1;
            i += 1;
        }
        extents.push((
            SLAB_WEIGHTS,
            start as u64,
            u64_bytes(&snap.weights[start..end]),
        ));
    }
    if nn > b {
        extents.push((SLAB_WEIGHTS, b as u64, u64_bytes(&snap.weights[b..])));
    }

    // ---- Encode + commit the delta. ----
    let header_bytes = header.encode(snap.slab_crcs());
    let mut bytes = Vec::with_capacity(
        SLABS_OFFSET + 4 + extents.iter().map(|e| 20 + e.2.len()).sum::<usize>(),
    );
    bytes.extend_from_slice(&DELTA_MAGIC);
    bytes.extend_from_slice(&DELTA_VERSION.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes()); // crc patched below
    bytes.extend_from_slice(&header_bytes);
    bytes.extend_from_slice(&(extents.len() as u32).to_le_bytes());
    for (slab, start, data) in &extents {
        bytes.extend_from_slice(&slab.to_le_bytes());
        bytes.extend_from_slice(&start.to_le_bytes());
        let len_entries = data.len() as u64 / entry_width(*slab);
        bytes.extend_from_slice(&len_entries.to_le_bytes());
        bytes.extend_from_slice(data);
    }
    let crc = crc32(&bytes[PROLOGUE_BYTES..]);
    bytes[8..12].copy_from_slice(&crc.to_le_bytes());
    atomic_write(delta_path(path), &bytes)?; // the commit point
    Ok(Some(bytes))
}

/// Reads the base file's prologue + header; `None` when missing, too
/// short, or not a valid v2 header.
fn read_base_header(path: &Path) -> Option<(SnapshotHeader, [u32; 3])> {
    let mut file = std::fs::File::open(path).ok()?;
    let mut head = [0u8; SLABS_OFFSET];
    file.read_exact(&mut head).ok()?;
    validate_v2_prologue(&head).ok()
}

/// Applies the pending delta for `snapshot_path`, if one exists:
/// patches the base file and removes the delta. Returns whether a
/// delta was applied. Idempotent and crash-safe — the snapshot reader
/// ([`crate::MappedSnapshot::open`]) calls this before mapping, and
/// the checkpoint writers before they write.
pub fn apply_pending_delta(snapshot_path: impl AsRef<Path>) -> Result<bool, StoreError> {
    let path = snapshot_path.as_ref();
    let dpath = delta_path(path);
    let bytes = match std::fs::read(&dpath) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e.into()),
    };
    patch_base(path, &bytes, None)?;
    std::fs::remove_file(&dpath)?;
    Ok(true)
}

/// Validates `delta` and writes its header + extents into the base
/// snapshot at absolute offsets, fsyncing before returning the number
/// of patched bytes. `limit` (crash injection) stops after that many
/// patched bytes — possibly mid-write — without syncing or erring.
fn patch_base(path: &Path, delta: &[u8], limit: Option<u64>) -> Result<u64, StoreError> {
    // Validate the delta as a whole before touching the base.
    if delta.len() < SLABS_OFFSET + 4 {
        return Err(StoreError::Truncated);
    }
    if delta[0..4] != DELTA_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(delta[4..8].try_into().unwrap());
    if version != DELTA_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let stored = u32::from_le_bytes(delta[8..12].try_into().unwrap());
    let computed = crc32(&delta[PROLOGUE_BYTES..]);
    if stored != computed {
        return Err(StoreError::BadChecksum { stored, computed });
    }
    let header_bytes = &delta[PROLOGUE_BYTES..SLABS_OFFSET];
    let (header, _) = SnapshotHeader::decode(header_bytes);
    // `reserved` (hence the capacity and every slab offset) is
    // identical between the base and the delta's generation, so it is
    // trustworthy even when a previous crash left the base header torn.
    let cap = header.slab_cap();
    let off = slab_offsets(cap);

    let mut ops: Vec<(u64, &[u8])> = Vec::new();
    let mut at = SLABS_OFFSET;
    let count = u32::from_le_bytes(delta[at..at + 4].try_into().unwrap());
    at += 4;
    for _ in 0..count {
        if delta.len() < at + 20 {
            return Err(StoreError::Truncated);
        }
        let slab = u32::from_le_bytes(delta[at..at + 4].try_into().unwrap());
        let start = u64::from_le_bytes(delta[at + 4..at + 12].try_into().unwrap());
        let len = u64::from_le_bytes(delta[at + 12..at + 20].try_into().unwrap());
        at += 20;
        if slab > SLAB_WEIGHTS {
            return Err(StoreError::Inconsistent("unknown delta slab id"));
        }
        let width = entry_width(slab);
        if start.checked_add(len).is_none_or(|end| end > cap) {
            return Err(StoreError::Inconsistent("delta extent beyond capacity"));
        }
        let data_len = (len * width) as usize;
        if delta.len() < at + data_len {
            return Err(StoreError::Truncated);
        }
        let slab_off = match slab {
            SLAB_PARENTS => off.parents,
            SLAB_ORDER => off.order,
            _ => off.weights,
        };
        ops.push((slab_off + start * width, &delta[at..at + data_len]));
        at += data_len;
    }
    if at != delta.len() {
        return Err(StoreError::Truncated);
    }

    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)?;
    let mut base_prologue = [0u8; 8];
    file.read_exact(&mut base_prologue)?;
    if base_prologue[0..4] != SNAPSHOT_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let base_version = u32::from_le_bytes(base_prologue[4..8].try_into().unwrap());
    if base_version != 2 {
        return Err(StoreError::Inconsistent("delta against a non-v2 base"));
    }
    if file.metadata()?.len() != off.file_len {
        return Err(StoreError::Inconsistent("delta/base file length mismatch"));
    }

    // The header patch: new header CRC + new header, one contiguous
    // write at offset 8 (magic + version stay untouched).
    let mut head_patch = [0u8; 4 + HEADER_BYTES];
    head_patch[0..4].copy_from_slice(&crc32(header_bytes).to_le_bytes());
    head_patch[4..].copy_from_slice(header_bytes);

    let mut written = 0u64;
    let budget = limit.unwrap_or(u64::MAX);
    for (offset, data) in std::iter::once((8u64, &head_patch[..])).chain(ops) {
        if written >= budget {
            return Ok(written);
        }
        let take = ((budget - written) as usize).min(data.len());
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(&data[..take])?;
        written += take as u64;
        if take < data.len() {
            return Ok(written); // simulated crash mid-write
        }
    }
    file.sync_all()?;
    Ok(written)
}

/// Crash-injection hook for tests: applies only the first
/// `limit_bytes` patched bytes of the pending delta (possibly tearing
/// a write in half), leaving the delta file in place — exactly the
/// state a kill mid-patch produces. Returns the bytes patched.
/// Crash-injection hook for tests: runs the protocol only through its
/// commit point — the delta is published, the base is untouched — as
/// if the process died between rename and patch. Returns the delta
/// size, or `None` when the base failed writer-side validation.
#[doc(hidden)]
pub fn commit_delta_without_applying_for_tests(
    snapshot_path: impl AsRef<Path>,
    snap: &ForestSnapshot,
    dirty: &DirtyExtents,
    base_slab_crcs: [u32; 3],
) -> Result<Option<u64>, StoreError> {
    Ok(commit_delta(snapshot_path.as_ref(), snap, dirty, base_slab_crcs)?.map(|b| b.len() as u64))
}

#[doc(hidden)]
pub fn partially_apply_pending_delta_for_tests(
    snapshot_path: impl AsRef<Path>,
    limit_bytes: u64,
) -> Result<u64, StoreError> {
    let path = snapshot_path.as_ref();
    let bytes = std::fs::read(delta_path(path))?;
    patch_base(path, &bytes, Some(limit_bytes))
}
