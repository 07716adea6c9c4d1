//! SWAR batch kernels for the hot curve transforms.
//!
//! The per-element LUT walks in [`crate::hilbert`] and the magic-mask
//! pipeline in [`crate::zorder`] are the inner loop of every machine
//! build and every batch query the engines serve. This module rewrites
//! them as *SWAR* (SIMD-within-a-register) kernels that run on stable
//! Rust — no `core::simd` required — with three tricks, each validated
//! by microbenchmark before it was adopted:
//!
//! 1. **State-lane-packed LUT rows** (Hilbert). The scalar walk loads
//!    `TABLE[state][cell]` — the *address* depends on the previous
//!    step's state, so every step is a dependent load. The packed
//!    tables store all four states' entries in one word per cell
//!    (`ROW[cell] = e₀ | e₁≪16 | e₂≪32 | e₃≪48`); the load address then
//!    depends only on the input coordinates, and the state machine
//!    collapses to an ALU shift-select `(ROW[cell] >> (state·16))`.
//!    This is the "gather-free" packing: the memory system streams
//!    independent loads while the cheap shift chain carries the state.
//! 2. **Const-generic order specialization** (Hilbert). The scalar
//!    walk's `for _ in 0..order/5` has a runtime trip count, which
//!    blocks unrolling and was measured to be the dominant cost. The
//!    batch kernels dispatch once per *chunk* to a `walk::<ORDER>`
//!    monomorphization whose trip count is a compile-time constant.
//! 3. **Fused validation + lane-packed decode** (Z-order). Encode
//!    accumulates the bounds union *inside* the transform pass and
//!    checks it once per chunk (exact, because the grid side is a
//!    power of two: `OR(coords) < side ⟺ ∀ coords < side`). Decode
//!    packs two ≤32-bit curve positions into one `u64` and runs the
//!    5-step magic-mask compact on both lanes at once — the masks are
//!    lane-repeating and every shift stays inside its 32-bit lane
//!    after masking.
//!
//! The pre-PR scalar loops are retained below as `*_chunk_scalar`
//! differential references; the test suite pins every SWAR kernel
//! bit-identical to them, and the `bench-json-sfc` experiment measures
//! the speedup against them.

use crate::geom::GridPoint;
use crate::hilbert::{INDEX1, INDEX2, INDEX4, INDEX5, POINT1, POINT2, POINT4, POINT5};
use crate::zorder::{deinterleave, interleave, interleave_xy};
use crate::Curve;

// ---------------------------------------------------------------------------
// State-lane-packed Hilbert tables.
// ---------------------------------------------------------------------------

/// Packs the four per-state `u16` rows of a Hilbert LUT into one `u64`
/// per cell: lane `s` (bits `16s..16s+16`) holds state `s`'s entry.
const fn pack_u16_lanes<const N: usize>(t: &[[u16; N]; 4]) -> [u64; N] {
    let mut out = [0u64; N];
    let mut i = 0;
    while i < N {
        out[i] = t[0][i] as u64
            | (t[1][i] as u64) << 16
            | (t[2][i] as u64) << 32
            | (t[3][i] as u64) << 48;
        i += 1;
    }
    out
}

/// Packs the four per-state `u8` rows into one `u32` per cell (lane `s`
/// at bits `8s..8s+8`; the 2-level entries use at most 6 bits).
const fn pack_u8_lanes<const N: usize>(t: &[[u8; N]; 4]) -> [u32; N] {
    let mut out = [0u32; N];
    let mut i = 0;
    while i < N {
        out[i] = t[0][i] as u32
            | (t[1][i] as u32) << 8
            | (t[2][i] as u32) << 16
            | (t[3][i] as u32) << 24;
        i += 1;
    }
    out
}

/// [`POINT5`] with all four states packed per cell (12-bit entries in
/// 16-bit lanes).
static POINT5P: [u64; 1024] = pack_u16_lanes(&POINT5);
/// [`INDEX5`] with all four states packed per cell.
static INDEX5P: [u64; 1024] = pack_u16_lanes(&INDEX5);
/// [`POINT4`] packed (10-bit entries in 16-bit lanes).
static POINT4P: [u64; 256] = pack_u16_lanes(&POINT4);
/// [`INDEX4`] packed.
static INDEX4P: [u64; 256] = pack_u16_lanes(&INDEX4);
/// [`POINT2`] packed (6-bit entries in 8-bit lanes).
static POINT2P: [u32; 16] = pack_u8_lanes(&POINT2);
/// [`INDEX2`] packed.
static INDEX2P: [u32; 16] = pack_u8_lanes(&INDEX2);

// ---------------------------------------------------------------------------
// Const-generic Hilbert walks.
// ---------------------------------------------------------------------------

/// Grid coordinate → curve position, specialized per curve order so the
/// step loops have compile-time trip counts (LLVM fully unrolls them).
/// `ORDER` must be in `1..=31`; the caller handles order 0. Out-of-grid
/// coordinates produce garbage but never an out-of-bounds table read
/// (every cell value is masked by construction).
#[inline(always)]
fn hilbert_index_walk<const ORDER: u32>(p: GridPoint) -> u64 {
    let mut xs = p.x << (32 - ORDER);
    let mut ys = p.y << (32 - ORDER);
    let mut state = 0u32;
    let mut d = 0u64;
    if ORDER.is_multiple_of(5) {
        // Ten bits per step through the packed 1024-cell table.
        for _ in 0..ORDER / 5 {
            let cell = (xs >> 27) | ((ys >> 27) << 5);
            xs <<= 5;
            ys <<= 5;
            let e = (INDEX5P[cell as usize] >> (state * 16)) as u16;
            d = (d << 10) | (e & 0x3FF) as u64;
            state = (e >> 10) as u32 & 3;
        }
        return d;
    }
    if ORDER & 1 == 1 {
        let cell = ((xs >> 31) << 1) | (ys >> 31);
        xs <<= 1;
        ys <<= 1;
        // The head step always starts in state 0: plain row access.
        let e = INDEX1[0][cell as usize];
        d = (e & 3) as u64;
        state = (e >> 2) as u32 & 3;
    }
    if ORDER & 2 == 2 {
        let cell = (xs >> 30) | ((ys >> 30) << 2);
        xs <<= 2;
        ys <<= 2;
        let e = (INDEX2P[cell as usize] >> (state * 8)) as u8;
        d = (d << 4) | (e & 15) as u64;
        state = (e >> 4) as u32 & 3;
    }
    for _ in 0..ORDER / 4 {
        let cell = (xs >> 28) | ((ys >> 28) << 4);
        xs <<= 4;
        ys <<= 4;
        let e = (INDEX4P[cell as usize] >> (state * 16)) as u16;
        d = (d << 8) | (e & 255) as u64;
        state = (e >> 8) as u32 & 3;
    }
    d
}

/// Curve position → grid coordinate; the inverse of
/// [`hilbert_index_walk`], same specialization contract.
#[inline(always)]
fn hilbert_point_walk<const ORDER: u32>(index: u64) -> GridPoint {
    let mut t = index << (64 - 2 * ORDER);
    let mut state = 0u32;
    let (mut x, mut y) = (0u32, 0u32);
    if ORDER.is_multiple_of(5) {
        for _ in 0..ORDER / 5 {
            let e = (POINT5P[(t >> 54) as usize] >> (state * 16)) as u16;
            t <<= 10;
            x = (x << 5) | (e & 31) as u32;
            y = (y << 5) | ((e >> 5) & 31) as u32;
            state = (e >> 10) as u32 & 3;
        }
        return GridPoint::new(x, y);
    }
    if ORDER & 1 == 1 {
        let e = POINT1[0][(t >> 62) as usize];
        t <<= 2;
        x = ((e >> 1) & 1) as u32;
        y = (e & 1) as u32;
        state = (e >> 2) as u32 & 3;
    }
    if ORDER & 2 == 2 {
        let e = (POINT2P[(t >> 60) as usize] >> (state * 8)) as u8;
        t <<= 4;
        x = (x << 2) | (e & 3) as u32;
        y = (y << 2) | ((e >> 2) & 3) as u32;
        state = (e >> 4) as u32 & 3;
    }
    for _ in 0..ORDER / 4 {
        let e = (POINT4P[(t >> 56) as usize] >> (state * 16)) as u16;
        t <<= 8;
        x = (x << 4) | (e & 15) as u32;
        y = (y << 4) | ((e >> 4) & 15) as u32;
        state = (e >> 8) as u32 & 3;
    }
    GridPoint::new(x, y)
}

/// Dispatches `$body!(ORDER)` with the runtime order as a const
/// generic argument, for orders `1..=31` (a `u32` grid side is a power
/// of two, so its order is at most 31; order 0 is handled before
/// dispatch).
macro_rules! with_order {
    ($order:expr, $body:ident) => {
        match $order {
            1 => $body!(1),
            2 => $body!(2),
            3 => $body!(3),
            4 => $body!(4),
            5 => $body!(5),
            6 => $body!(6),
            7 => $body!(7),
            8 => $body!(8),
            9 => $body!(9),
            10 => $body!(10),
            11 => $body!(11),
            12 => $body!(12),
            13 => $body!(13),
            14 => $body!(14),
            15 => $body!(15),
            16 => $body!(16),
            17 => $body!(17),
            18 => $body!(18),
            19 => $body!(19),
            20 => $body!(20),
            21 => $body!(21),
            22 => $body!(22),
            23 => $body!(23),
            24 => $body!(24),
            25 => $body!(25),
            26 => $body!(26),
            27 => $body!(27),
            28 => $body!(28),
            29 => $body!(29),
            30 => $body!(30),
            _ => $body!(31),
        }
    };
}

// ---------------------------------------------------------------------------
// Cold panic paths (message-compatible with the scalar per-element
// asserts; the hot loops validate with one fused union check).
// ---------------------------------------------------------------------------

#[cold]
#[inline(never)]
fn bad_point(side: u32, pts: &[GridPoint]) -> ! {
    let p = pts
        .iter()
        .find(|p| p.x >= side || p.y >= side)
        .expect("union check fired without an offending point");
    panic!("{p} outside the {side}×{side} grid");
}

#[cold]
#[inline(never)]
fn bad_index(len: u64, indices: &[u64]) -> ! {
    let i = indices
        .iter()
        .find(|&&i| i >= len)
        .expect("union check fired without an offending index");
    panic!("curve position {i} out of range (len {len})");
}

// ---------------------------------------------------------------------------
// Hilbert chunk kernels.
// ---------------------------------------------------------------------------

/// Batch Hilbert encode over one contiguous chunk:
/// `out[k] = index(pts[k])`. Panics like the scalar path when a point
/// is outside the grid (checked once per chunk via the bounds union).
pub fn hilbert_index_chunk(side: u32, pts: &[GridPoint], out: &mut [u64]) {
    debug_assert_eq!(pts.len(), out.len(), "batch size mismatch");
    let order = side.trailing_zeros();
    let mut union = 0u32;
    if order == 0 {
        for (o, p) in out.iter_mut().zip(pts) {
            union |= p.x | p.y;
            *o = 0;
        }
    } else {
        macro_rules! run {
            ($ord:expr) => {
                for (o, p) in out.iter_mut().zip(pts) {
                    union |= p.x | p.y;
                    *o = hilbert_index_walk::<$ord>(*p);
                }
            };
        }
        with_order!(order, run);
    }
    if union >= side {
        bad_point(side, pts);
    }
}

/// Batch Hilbert decode over one contiguous chunk:
/// `out[k] = point(indices[k])`. Panics like the scalar path when a
/// position is out of range (checked once per chunk via the union).
pub fn hilbert_point_chunk(side: u32, indices: &[u64], out: &mut [GridPoint]) {
    debug_assert_eq!(indices.len(), out.len(), "batch size mismatch");
    let order = side.trailing_zeros();
    let mut union = 0u64;
    if order == 0 {
        for (o, &i) in out.iter_mut().zip(indices) {
            union |= i;
            *o = GridPoint::new(0, 0);
        }
    } else {
        macro_rules! run {
            ($ord:expr) => {
                for (o, &i) in out.iter_mut().zip(indices) {
                    union |= i;
                    *o = hilbert_point_walk::<$ord>(i);
                }
            };
        }
        with_order!(order, run);
    }
    // len = 4^order is a power of two, so the union check is exact.
    if union >> (2 * order) != 0 {
        bad_index((side as u64) * (side as u64), indices);
    }
}

/// Batch Hilbert decode over the contiguous position range
/// `start..start + out.len()`; the caller validates the range.
pub fn hilbert_point_range_chunk(side: u32, start: u64, out: &mut [GridPoint]) {
    let order = side.trailing_zeros();
    if order == 0 {
        out.fill(GridPoint::new(0, 0));
        return;
    }
    macro_rules! run {
        ($ord:expr) => {
            for (k, o) in out.iter_mut().enumerate() {
                *o = hilbert_point_walk::<$ord>(start + k as u64);
            }
        };
    }
    with_order!(order, run);
}

// ---------------------------------------------------------------------------
// Z-order chunk kernels.
// ---------------------------------------------------------------------------

/// Compacts the even bits of both 32-bit lanes of `w` at once: returns
/// the 16-bit results for the low and high lane. The masks repeat per
/// lane and every intermediate shift stays inside its lane after
/// masking, so two Morton codes ride one register.
#[inline]
fn deinterleave_pair(w: u64) -> (u32, u32) {
    let mut x = w & 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    (x as u32, (x >> 32) as u32)
}

/// Decodes two packed curve positions (`lo | hi ≪ 32`, both `< 2³²`)
/// into their grid coordinates.
#[inline]
fn zorder_point_pair(w: u64) -> (GridPoint, GridPoint) {
    let (x0, x1) = deinterleave_pair(w);
    // Bit 31 of `w >> 1` is the high lane's bit 0 leaking across, but
    // it sits at an odd position and the first mask clears it.
    let (y0, y1) = deinterleave_pair(w >> 1);
    (GridPoint::new(x0, y0), GridPoint::new(x1, y1))
}

/// Batch Z-order encode over one contiguous chunk, validation fused
/// into the transform pass (one union check per chunk).
pub fn zorder_index_chunk(side: u32, pts: &[GridPoint], out: &mut [u64]) {
    debug_assert_eq!(pts.len(), out.len(), "batch size mismatch");
    let mut union = 0u32;
    if side as u64 <= 1 << 16 {
        encode_fused(pts, out, &mut union);
    } else {
        for (o, p) in out.iter_mut().zip(pts) {
            union |= p.x | p.y;
            *o = interleave(p.x) | (interleave(p.y) << 1);
        }
    }
    if union >= side {
        bad_point(side, pts);
    }
}

/// The fused-pipeline encode pass for grids up to 2¹⁶ × 2¹⁶.
#[inline]
fn encode_fused(pts: &[GridPoint], out: &mut [u64], union: &mut u32) {
    let mut u = 0u32;
    for (o, p) in out.iter_mut().zip(pts) {
        u |= p.x | p.y;
        *o = interleave_xy(p.x, p.y);
    }
    *union |= u;
}

/// Batch Z-order decode over one contiguous chunk, two positions per
/// register for grids whose positions fit 32 bits.
pub fn zorder_point_chunk(side: u32, indices: &[u64], out: &mut [GridPoint]) {
    debug_assert_eq!(indices.len(), out.len(), "batch size mismatch");
    let len = (side as u64) * (side as u64);
    let mut union = 0u64;
    if len <= 1 << 32 {
        decode_paired(indices, out, &mut union);
    } else {
        for (o, &i) in out.iter_mut().zip(indices) {
            union |= i;
            *o = GridPoint::new(deinterleave(i), deinterleave(i >> 1));
        }
    }
    // len is a power of two, so the union check is exact.
    if union >= len {
        bad_index(len, indices);
    }
}

/// The pair-packed decode pass.
#[inline]
fn decode_paired(indices: &[u64], out: &mut [GridPoint], union: &mut u64) {
    let mut u = 0u64;
    let pairs = indices.len() / 2;
    let (head, tail) = indices.split_at(pairs * 2);
    let (ohead, otail) = out.split_at_mut(pairs * 2);
    for (pair, dst) in head.chunks_exact(2).zip(ohead.chunks_exact_mut(2)) {
        u |= pair[0] | pair[1];
        let (p0, p1) = zorder_point_pair(pair[0] | (pair[1] << 32));
        dst[0] = p0;
        dst[1] = p1;
    }
    if let (Some(&i), Some(o)) = (tail.first(), otail.first_mut()) {
        u |= i;
        *o = GridPoint::new(deinterleave(i), deinterleave(i >> 1));
    }
    *union |= u;
}

/// Batch Z-order decode over the contiguous position range
/// `start..start + out.len()`; the caller validates the range.
pub fn zorder_point_range_chunk(side: u32, start: u64, out: &mut [GridPoint]) {
    let len = (side as u64) * (side as u64);
    if len <= 1 << 32 {
        let pairs = out.len() / 2;
        let (head, tail) = out.split_at_mut(pairs * 2);
        for (k, dst) in head.chunks_exact_mut(2).enumerate() {
            let i = start + 2 * k as u64;
            let (p0, p1) = zorder_point_pair(i | ((i + 1) << 32));
            dst[0] = p0;
            dst[1] = p1;
        }
        if let Some(o) = tail.first_mut() {
            let i = start + 2 * pairs as u64;
            *o = GridPoint::new(deinterleave(i), deinterleave(i >> 1));
        }
    } else {
        for (k, o) in out.iter_mut().enumerate() {
            let i = start + k as u64;
            *o = GridPoint::new(deinterleave(i), deinterleave(i >> 1));
        }
    }
}

// ---------------------------------------------------------------------------
// Retained scalar references (the pre-SWAR batch loops, verbatim).
// The differential tests pin every SWAR kernel bit-identical to these,
// and `bench-json-sfc` reports the speedup against them.
// ---------------------------------------------------------------------------

#[doc(hidden)]
pub fn hilbert_index_chunk_scalar(curve: &crate::HilbertCurve, pts: &[GridPoint], out: &mut [u64]) {
    let side = curve.side();
    for (o, &p) in out.iter_mut().zip(pts) {
        assert!(
            p.x < side && p.y < side,
            "{p} outside the {side}×{side} grid"
        );
        *o = curve.index_unchecked(p);
    }
}

#[doc(hidden)]
pub fn hilbert_point_chunk_scalar(
    curve: &crate::HilbertCurve,
    indices: &[u64],
    out: &mut [GridPoint],
) {
    let len = curve.len();
    for (o, &i) in out.iter_mut().zip(indices) {
        assert!(i < len, "curve position {i} out of range (len {len})");
        *o = curve.point_unchecked(i);
    }
}

#[doc(hidden)]
pub fn zorder_index_chunk_scalar(side: u32, pts: &[GridPoint], out: &mut [u64]) {
    let fused = side as u64 <= 1 << 16;
    for (o, &p) in out.iter_mut().zip(pts) {
        assert!(
            p.x < side && p.y < side,
            "{p} outside the {side}×{side} grid"
        );
        *o = if fused {
            interleave_xy(p.x, p.y)
        } else {
            interleave(p.x) | (interleave(p.y) << 1)
        };
    }
}

#[doc(hidden)]
pub fn zorder_point_chunk_scalar(side: u32, indices: &[u64], out: &mut [GridPoint]) {
    let len = (side as u64) * (side as u64);
    for (o, &i) in out.iter_mut().zip(indices) {
        assert!(i < len, "curve position {i} out of range (len {len})");
        *o = GridPoint::new(deinterleave(i), deinterleave(i >> 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HilbertCurve, ZOrderCurve};

    /// Degenerate batch sizes around the widest lane width (the paired
    /// Z-order decode uses 2-lane words).
    const DEGENERATE_N: [usize; 7] = [0, 1, 2, 3, 4, 5, 7];

    fn sample_indices(len: u64, n: usize) -> Vec<u64> {
        (0..n as u64).map(|k| (k * 2_654_435_761) % len).collect()
    }

    #[test]
    fn hilbert_index_chunk_matches_scalar_all_orders() {
        for order in 0..=10u32 {
            let side = 1u32 << order;
            let c = HilbertCurve::new(side);
            let n = (c.len() as usize).min(1 << 12);
            let pts: Vec<GridPoint> = sample_indices(c.len(), n)
                .iter()
                .map(|&i| c.point(i))
                .collect();
            let mut swar = vec![0u64; n];
            let mut scalar = vec![0u64; n];
            hilbert_index_chunk(side, &pts, &mut swar);
            hilbert_index_chunk_scalar(&c, &pts, &mut scalar);
            assert_eq!(swar, scalar, "order {order}");
        }
    }

    #[test]
    fn hilbert_point_chunk_matches_scalar_all_orders() {
        for order in 0..=10u32 {
            let side = 1u32 << order;
            let c = HilbertCurve::new(side);
            let n = (c.len() as usize).min(1 << 12);
            let idx = sample_indices(c.len(), n);
            let mut swar = vec![GridPoint::default(); n];
            let mut scalar = vec![GridPoint::default(); n];
            hilbert_point_chunk(side, &idx, &mut swar);
            hilbert_point_chunk_scalar(&c, &idx, &mut scalar);
            assert_eq!(swar, scalar, "order {order}");
        }
    }

    #[test]
    fn hilbert_range_chunk_matches_point_chunk() {
        let side = 32u32;
        let c = HilbertCurve::new(side);
        for n in DEGENERATE_N {
            for start in [0u64, 1, 100, c.len() - n as u64] {
                let idx: Vec<u64> = (start..start + n as u64).collect();
                let mut by_range = vec![GridPoint::default(); n];
                let mut by_index = vec![GridPoint::default(); n];
                hilbert_point_range_chunk(side, start, &mut by_range);
                hilbert_point_chunk(side, &idx, &mut by_index);
                assert_eq!(by_range, by_index, "start {start} n {n}");
            }
        }
    }

    #[test]
    fn zorder_chunks_match_scalar_including_odd_tails() {
        for side in [1u32, 2, 4, 16, 64, 1 << 10] {
            let c = ZOrderCurve::new(side);
            for n in DEGENERATE_N {
                let idx = sample_indices(c.len(), n);
                let pts: Vec<GridPoint> = idx.iter().map(|&i| c.point(i)).collect();

                let mut enc_swar = vec![0u64; n];
                let mut enc_ref = vec![0u64; n];
                zorder_index_chunk(side, &pts, &mut enc_swar);
                zorder_index_chunk_scalar(side, &pts, &mut enc_ref);
                assert_eq!(enc_swar, enc_ref, "encode side {side} n {n}");

                let mut dec_swar = vec![GridPoint::default(); n];
                let mut dec_ref = vec![GridPoint::default(); n];
                zorder_point_chunk(side, &idx, &mut dec_swar);
                zorder_point_chunk_scalar(side, &idx, &mut dec_ref);
                assert_eq!(dec_swar, dec_ref, "decode side {side} n {n}");

                // The range kernel's positions must stay on the curve.
                let rn = n.min(c.len() as usize);
                let mut rng_swar = vec![GridPoint::default(); rn];
                zorder_point_range_chunk(side, 0, &mut rng_swar);
                let contiguous: Vec<u64> = (0..rn as u64).collect();
                let mut rng_ref = vec![GridPoint::default(); rn];
                zorder_point_chunk_scalar(side, &contiguous, &mut rng_ref);
                assert_eq!(rng_swar, rng_ref, "range side {side} n {rn}");
            }
        }
    }

    #[test]
    fn hilbert_chunks_handle_degenerate_sizes() {
        for order in [0u32, 1, 3, 5, 8] {
            let side = 1u32 << order;
            let c = HilbertCurve::new(side);
            for n in DEGENERATE_N {
                let idx: Vec<u64> = (0..n as u64).map(|k| k % c.len()).collect();
                let pts: Vec<GridPoint> = idx.iter().map(|&i| c.point(i)).collect();

                let mut enc = vec![0u64; n];
                let mut enc_ref = vec![0u64; n];
                hilbert_index_chunk(side, &pts, &mut enc);
                hilbert_index_chunk_scalar(&c, &pts, &mut enc_ref);
                assert_eq!(enc, enc_ref, "order {order} n {n}");

                let mut dec = vec![GridPoint::default(); n];
                let mut dec_ref = vec![GridPoint::default(); n];
                hilbert_point_chunk(side, &idx, &mut dec);
                hilbert_point_chunk_scalar(&c, &idx, &mut dec_ref);
                assert_eq!(dec, dec_ref, "order {order} n {n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the 8×8 grid")]
    fn hilbert_index_chunk_panics_on_bad_point() {
        let pts = [GridPoint::new(1, 1), GridPoint::new(8, 0)];
        let mut out = [0u64; 2];
        hilbert_index_chunk(8, &pts, &mut out);
    }

    #[test]
    #[should_panic(expected = "curve position 64 out of range (len 64)")]
    fn hilbert_point_chunk_panics_on_bad_index() {
        let idx = [0u64, 64];
        let mut out = [GridPoint::default(); 2];
        hilbert_point_chunk(8, &idx, &mut out);
    }

    #[test]
    #[should_panic(expected = "outside the 4×4 grid")]
    fn zorder_index_chunk_panics_on_bad_point() {
        let pts = [GridPoint::new(0, 0), GridPoint::new(0, 4)];
        let mut out = [0u64; 2];
        zorder_index_chunk(4, &pts, &mut out);
    }

    #[test]
    #[should_panic(expected = "curve position 16 out of range (len 16)")]
    fn zorder_point_chunk_panics_on_bad_index() {
        let idx = [16u64];
        let mut out = [GridPoint::default(); 1];
        zorder_point_chunk(4, &idx, &mut out);
    }

    #[test]
    fn packed_tables_agree_with_sources() {
        for s in 0..4usize {
            for cell in 0..1024usize {
                assert_eq!((POINT5P[cell] >> (s * 16)) as u16 & 0xFFF, POINT5[s][cell]);
                assert_eq!((INDEX5P[cell] >> (s * 16)) as u16 & 0xFFF, INDEX5[s][cell]);
            }
            for cell in 0..256usize {
                assert_eq!((POINT4P[cell] >> (s * 16)) as u16 & 0x3FF, POINT4[s][cell]);
                assert_eq!((INDEX4P[cell] >> (s * 16)) as u16 & 0x3FF, INDEX4[s][cell]);
            }
            for cell in 0..16usize {
                assert_eq!((POINT2P[cell] >> (s * 8)) as u8 & 0x3F, POINT2[s][cell]);
                assert_eq!((INDEX2P[cell] >> (s * 8)) as u8 & 0x3F, INDEX2[s][cell]);
            }
        }
    }
}
