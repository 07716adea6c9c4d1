//! Durable forest persistence: the snapshot + journal split.
//!
//! The engines above this crate keep everything in flat spatially-laid-
//! out arrays, which makes persistence nearly free: a snapshot is the
//! arrays themselves ([`ForestSnapshot`] — straight little-endian
//! `u32`/`u64` slabs behind a checksummed, versioned header, written
//! via temp-file + atomic rename), and the mutation history between
//! snapshots is an append-only journal of fixed-width [`Record`]s
//! (length-prefixed, per-record CRC, torn-tail tolerant on replay).
//! A snapshot has one reader, [`MappedSnapshot::open`], which validates
//! the file and serves its slabs zero-copy. Recovery = open + journal
//! replay; the session layer
//! (`spatial_session::SpatialForest::recover_from`) pins the result
//! bit-identical — answers *and* charges — to the live forest.
//!
//! This crate is deliberately dependency-free and knows nothing about
//! trees or layouts: it moves validated bytes. The semantic mapping
//! (which arrays, what a record means) lives with the forest types; the
//! format contract lives in `DESIGN.md` next to this manifest.

mod atomic;
pub mod delta;
mod journal;
mod log;
mod mapped;
mod slab;
mod snapshot;

pub use atomic::atomic_write;
pub use delta::{
    apply_pending_delta, delta_path, write_incremental, DirtyExtents, DELTA_MAGIC, DELTA_VERSION,
};
pub use journal::{parse_journal, read_journal, JournalWriter, Record, RECORD_BYTES};
pub use log::{append_line, read_lines, LogLines};
pub use mapped::MappedSnapshot;
pub use slab::CowSlab;
pub use snapshot::{ForestSnapshot, SnapshotHeader, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

/// Why a snapshot or journal could not be decoded.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The payload checksum does not match the header.
    BadChecksum {
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum computed over the payload actually read.
        computed: u32,
    },
    /// The file is shorter than its header claims (a torn snapshot
    /// write — impossible through [`atomic_write`], possible for files
    /// produced by other means).
    Truncated,
    /// The contents disagree with themselves although every checksum
    /// passes: a delta and its base snapshot disagree structurally
    /// (capacity, file length, slab ids), so the incremental checkpoint
    /// cannot be applied safely, or a snapshot's contents break what a
    /// restore relies on (reserved capacity below the vertex count,
    /// parents that are not one tree at the root, an order that is not
    /// a permutation; for the forest, a curve index it does not know or
    /// no vertex at all).
    Inconsistent(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::BadMagic => write!(f, "not a forest snapshot (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            StoreError::BadChecksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: header {stored:#010x}, payload {computed:#010x}"
            ),
            StoreError::Truncated => write!(f, "snapshot shorter than its header claims"),
            StoreError::Inconsistent(what) => write!(f, "inconsistent snapshot contents: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the
/// checksum guarding the snapshot payload and each journal record. The
/// table is built at compile time; no external dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::crc32;

    #[test]
    fn crc32_known_vectors() {
        // The standard check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }
}
