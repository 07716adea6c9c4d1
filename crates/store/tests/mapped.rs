//! The mmap-backed reader, the only reader of a snapshot file:
//! zero-copy alignment safety, validation, and exact readback of what
//! the writer encoded. The format's corruption cases (bad magic, other
//! versions, header and slab checksum flips, truncation) run through
//! it in `src/snapshot.rs`'s unit tests.

use spatial_store::{ForestSnapshot, MappedSnapshot, StoreError};

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("spatial-store-mapped-{tag}-{}", std::process::id()))
}

fn sample(n: usize) -> ForestSnapshot {
    ForestSnapshot {
        curve: 0,
        root: 0,
        layout_dirty: false,
        rebuilds: 2,
        grows: 1,
        reserved: (2 * n as u64).max(4),
        baseline_energy: 123,
        insertions: n as u64,
        tag: 41,
        parents: (0..n as u32)
            .map(|v| if v == 0 { u32::MAX } else { (v - 1) / 2 })
            .collect(),
        order: (0..n as u32).rev().collect(),
        weights: (0..n as u64).map(|v| v.wrapping_mul(0x9E37_79B9)).collect(),
    }
}

#[test]
fn zero_copy_views_are_alignment_safe_and_exact() {
    let path = temp_path("align");
    // An odd vertex count exercises the slab padding (4·n not a
    // multiple of 8).
    let snap = sample(501);
    snap.write_to(&path).expect("write");
    let mapped = MappedSnapshot::open(&path).expect("open");

    // The zero-copy contract: every typed view sits on a properly
    // aligned address inside the mapped file.
    assert_eq!(mapped.parents().as_ptr() as usize % 4, 0);
    assert_eq!(mapped.order().as_ptr() as usize % 4, 0);
    assert_eq!(mapped.weights().as_ptr() as usize % 8, 0);
    for (off, _) in [
        mapped.parents_span(),
        mapped.order_span(),
        mapped.weights_span(),
    ] {
        assert_eq!(off % 8, 0, "slab offset {off} not 8-aligned");
    }

    assert_eq!(mapped.parents(), &snap.parents[..]);
    assert_eq!(mapped.order(), &snap.order[..]);
    assert_eq!(mapped.weights(), &snap.weights[..]);
    assert_eq!(mapped.header().tag, 41);
    assert_eq!(mapped.header().reserved, snap.reserved);
    assert_eq!(mapped.to_snapshot(), snap);
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_verifies_per_slab_crcs() {
    let path = temp_path("crc");
    let snap = sample(64);
    snap.write_to(&path).expect("write");

    // Corrupt one weight entry directly on disk: the header CRC still
    // matches, but the weights slab CRC must catch it on open.
    let mut bytes = std::fs::read(&path).expect("read");
    let (woff, _) = MappedSnapshot::open(&path).expect("open").weights_span();
    bytes[woff as usize + 5] ^= 0x10;
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(matches!(
        MappedSnapshot::open(&path),
        Err(StoreError::BadChecksum { .. })
    ));
    std::fs::remove_file(&path).ok();
}

/// A named edit that breaks one invariant of a snapshot's contents.
type Corruption = (&'static str, fn(&mut ForestSnapshot));

#[test]
fn open_checks_the_slab_contents() {
    let path = temp_path("contents");
    let good = sample(64);
    let cases: [Corruption; 7] = [
        ("reserved below n", |s| s.reserved = 63),
        ("parent id at n", |s| s.parents[10] = 64),
        ("a second root", |s| s.parents[10] = u32::MAX),
        ("root out of range", |s| s.root = 64),
        // 10's parent is 4, whose parent is 1: 1 → 10 closes a cycle.
        ("a cycle", |s| s.parents[1] = 10),
        ("order repeats a vertex", |s| s.order[0] = s.order[1]),
        ("order names a vertex at n", |s| s.order[5] = 64),
    ];
    for (what, corrupt) in cases {
        let mut bad = good.clone();
        corrupt(&mut bad);
        bad.write_to(&path).expect("write");
        assert!(
            matches!(
                MappedSnapshot::open(&path),
                Err(StoreError::Inconsistent(_))
            ),
            "{what}"
        );
    }
    good.write_to(&path).expect("write");
    assert_eq!(
        MappedSnapshot::open(&path).expect("open").to_snapshot(),
        good
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn v1_files_are_not_mappable() {
    let path = temp_path("v1");
    // Any version but 2 is refused. The packed v1 layout has no
    // fallback reader any more.
    let good = sample(16).encode();
    for version in [1u32, 99] {
        let mut bytes = good.clone();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            MappedSnapshot::open(&path),
            Err(StoreError::UnsupportedVersion(v)) if v == version
        ));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_and_missing_files_fail_cleanly() {
    let path = temp_path("empty");
    std::fs::write(&path, b"").expect("write");
    assert!(matches!(
        MappedSnapshot::open(&path),
        Err(StoreError::Truncated)
    ));
    std::fs::remove_file(&path).ok();
    assert!(matches!(
        MappedSnapshot::open(temp_path("never-written")),
        Err(StoreError::Io(_))
    ));
}

#[test]
fn mapped_views_survive_cross_thread_sharing() {
    let path = temp_path("threads");
    let snap = sample(256);
    snap.write_to(&path).expect("write");
    let mapped = std::sync::Arc::new(MappedSnapshot::open(&path).expect("open"));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let m = mapped.clone();
            let expect = snap.weights.clone();
            std::thread::spawn(move || {
                assert_eq!(m.weights(), &expect[..]);
                m.parents().iter().map(|&p| p as u64).sum::<u64>()
            })
        })
        .collect();
    for h in handles {
        h.join().expect("join");
    }
    std::fs::remove_file(&path).ok();
}
