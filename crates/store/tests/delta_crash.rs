//! Crash injection for the incremental-checkpoint extent protocol.
//!
//! The protocol's claim: after the delta file is committed (atomic
//! rename), a crash at *any* byte position of the in-place patch is
//! recoverable — re-applying the pending delta yields a base file
//! bit-identical to the one an uninterrupted checkpoint produces.
//! These tests actually kill the patch at every interesting cut point
//! and check exactly that.

use spatial_store::delta::{
    commit_delta_without_applying_for_tests, partially_apply_pending_delta_for_tests,
};
use spatial_store::{
    apply_pending_delta, delta_path, write_incremental, DirtyExtents, ForestSnapshot,
    MappedSnapshot,
};
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spatial-store-delta-{tag}-{}", std::process::id()))
}

fn base_snapshot(n: usize, reserved: u64) -> ForestSnapshot {
    ForestSnapshot {
        curve: 0,
        root: 0,
        layout_dirty: false,
        rebuilds: 0,
        grows: 0,
        reserved,
        baseline_energy: 7,
        insertions: n as u64,
        tag: 1,
        parents: (0..n as u32)
            .map(|v| if v == 0 { u32::MAX } else { (v - 1) / 2 })
            .collect(),
        order: (0..n as u32).collect(),
        weights: vec![1u64; n],
    }
}

/// The base mutated the way a journal tail would: appended vertices,
/// scattered weight overwrites, bumped counters.
fn next_generation(base: &ForestSnapshot, appends: usize) -> (ForestSnapshot, DirtyExtents) {
    let mut snap = base.clone();
    let b = base.parents.len();
    for i in 0..appends {
        let v = (b + i) as u32;
        snap.parents.push(v / 2);
        snap.order.push(v);
        snap.weights.push(100 + i as u64);
    }
    snap.insertions += appends as u64;
    snap.tag += 1;
    let mut dirty = DirtyExtents {
        base_len: b as u32,
        order_rewritten: false,
        weight_cells: Vec::new(),
    };
    // Scattered single cells plus a coalescible run, duplicates
    // included — the writer must sort/dedup/merge them.
    for &c in &[3u32, 17, 4, 5, 3, 40] {
        if (c as usize) < b {
            snap.weights[c as usize] = 1000 + c as u64;
            dirty.weight_cells.push(c);
        }
    }
    (snap, dirty)
}

#[test]
fn recovery_is_bit_identical_at_every_crash_cut() {
    let path = temp_path("cuts");
    let base = base_snapshot(300, 1024);
    base.write_to(&path).expect("write base");
    let base_bytes = std::fs::read(&path).expect("read base");
    let base_crcs = base.slab_crcs();
    let (snap, dirty) = next_generation(&base, 41);

    // Reference: the uninterrupted incremental checkpoint.
    let written = write_incremental(&path, &snap, &dirty, base_crcs)
        .expect("incremental")
        .expect("base should validate");
    assert!(written > 0);
    assert!(!delta_path(&path).exists());
    let reference = std::fs::read(&path).expect("read patched");
    assert_eq!(
        MappedSnapshot::open(&path).expect("open").to_snapshot(),
        snap
    );

    // Now replay the same checkpoint, crashing the patch at a spread
    // of byte cuts: 0 (nothing patched), mid-header, mid-extent, just
    // short of complete.
    std::fs::write(&path, &base_bytes).expect("restore base");
    let delta_len = commit_delta_without_applying_for_tests(&path, &snap, &dirty, base_crcs)
        .expect("commit")
        .expect("base should validate");
    assert!(delta_len > 0);
    let delta_bytes = std::fs::read(delta_path(&path)).expect("read delta");

    let full_patch = partially_apply_pending_delta_for_tests(&path, u64::MAX).expect("full");
    let cuts: Vec<u64> = (0..full_patch)
        .step_by(7)
        .chain([1, full_patch - 1])
        .collect();
    for cut in cuts {
        // Reconstruct the committed-but-unapplied state, then tear.
        std::fs::write(&path, &base_bytes).expect("restore base");
        std::fs::write(delta_path(&path), &delta_bytes).expect("restore delta");
        let torn = partially_apply_pending_delta_for_tests(&path, cut).expect("tear");
        assert!(torn <= cut, "tore past the limit");
        assert!(
            delta_path(&path).exists(),
            "delta must survive a torn patch"
        );

        // Public recovery path: apply the pending delta, then read.
        assert!(apply_pending_delta(&path).expect("recover"));
        assert!(!delta_path(&path).exists());
        let recovered = std::fs::read(&path).expect("read recovered");
        assert_eq!(recovered, reference, "crash at byte {cut} diverged");

        // And the mapped reader (which self-recovers) agrees.
        std::fs::write(&path, &base_bytes).expect("restore base");
        std::fs::write(delta_path(&path), &delta_bytes).expect("restore delta");
        partially_apply_pending_delta_for_tests(&path, cut).expect("tear");
        let mapped = MappedSnapshot::open(&path).expect("mapped self-recovery");
        assert_eq!(mapped.to_snapshot(), snap, "mapped recovery at byte {cut}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn stale_or_grown_base_falls_back_to_full_rewrite() {
    let path = temp_path("fallback");
    let base = base_snapshot(100, 256);
    base.write_to(&path).expect("write base");
    let (snap, dirty) = next_generation(&base, 10);

    // Wrong base CRCs (the tracker is stale) → Ok(None).
    assert!(write_incremental(&path, &snap, &dirty, [1, 2, 3])
        .expect("runs")
        .is_none());

    // A capacity change since the base (grow) → Ok(None).
    let mut grown = snap.clone();
    grown.reserved = 512;
    assert!(write_incremental(&path, &grown, &dirty, base.slab_crcs())
        .expect("runs")
        .is_none());

    // Base vertex count disagreeing with the tracker → Ok(None).
    let mut wrong = dirty.clone();
    wrong.base_len += 1;
    assert!(write_incremental(&path, &snap, &wrong, base.slab_crcs())
        .expect("runs")
        .is_none());

    // The base file is untouched by all three refusals, and no delta
    // is left for the reader to apply.
    assert!(!delta_path(&path).exists());
    assert_eq!(
        MappedSnapshot::open(&path).expect("open").to_snapshot(),
        base
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn incremental_is_much_smaller_than_full_rewrite_on_dirty_tail() {
    let path = temp_path("ratio");
    let base = base_snapshot(4096, 8192);
    base.write_to(&path).expect("write base");
    let full_bytes = std::fs::read(&path).expect("read").len() as u64;
    let (snap, dirty) = next_generation(&base, 16);
    let written = write_incremental(&path, &snap, &dirty, base.slab_crcs())
        .expect("incremental")
        .expect("validates");
    // The acceptance gate for the whole feature: a small dirty tail
    // must not cost anywhere near a full rewrite.
    assert!(
        written * 4 <= full_bytes,
        "incremental wrote {written} of {full_bytes} bytes"
    );
    assert_eq!(
        MappedSnapshot::open(&path).expect("open").to_snapshot(),
        snap
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn rebuild_rewrites_order_slab_and_still_recovers() {
    let path = temp_path("rebuild");
    let base = base_snapshot(200, 512);
    base.write_to(&path).expect("write base");
    let (mut snap, mut dirty) = next_generation(&base, 5);
    snap.order.reverse(); // a light-first rebuild permutes the order
    snap.rebuilds += 1;
    dirty.order_rewritten = true;

    let base_bytes = std::fs::read(&path).expect("read");
    write_incremental(&path, &snap, &dirty, base.slab_crcs())
        .expect("incremental")
        .expect("validates");
    let reference = std::fs::read(&path).expect("read patched");
    assert_eq!(
        MappedSnapshot::open(&path).expect("open").to_snapshot(),
        snap
    );

    // Crash mid-order-extent, recover, compare.
    std::fs::write(&path, &base_bytes).expect("restore");
    commit_delta_without_applying_for_tests(&path, &snap, &dirty, base.slab_crcs())
        .expect("commit")
        .expect("validates");
    partially_apply_pending_delta_for_tests(&path, 150).expect("tear");
    assert!(apply_pending_delta(&path).expect("recover"));
    assert_eq!(std::fs::read(&path).expect("read"), reference);
    std::fs::remove_file(&path).ok();
}
