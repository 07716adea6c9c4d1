//! Subtree covers from path decompositions (§VI-B, Fig. 8), stored as
//! a layer-indexed CSR.
//!
//! Given a heavy-path decomposition, the cover contains the subtree
//! rooted at each path's head. Subtrees of the same layer are pairwise
//! disjoint; subtrees across layers nest. In light-first order each
//! cover subtree is a contiguous slot range, which is what lets the LCA
//! algorithm broadcast within subtrees at linear energy (Lemma 13).
//!
//! # Storage
//!
//! The seed implementation kept one heap-allocated `Vec<CoverSubtree>`
//! per layer. The cover is rebuilt for every tree the LCA engine is
//! pointed at and walked once per layer per run, so it is now four flat
//! arrays (`roots`, `parents`, `los`, `his`) plus a `layer_offsets`
//! prefix array: layer `i`'s subtrees occupy the index range
//! `layer_offsets[i] .. layer_offsets[i + 1]`, sorted by range start.
//! One allocation per array, cache-contiguous layer walks, and the
//! `(lo, hi)` pairs the step-4 broadcast loop needs are directly
//! addressable as slices. The seed layout survives as
//! [`crate::reference::ReferenceCover`].

use spatial_layout::Layout;
use spatial_model::vec_bytes;
use spatial_tree::{HeavyPathDecomposition, NodeId, NIL};

/// One cover subtree: rooted at a path head, spanning a contiguous
/// light-first range. A by-value view into the CSR arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverSubtree {
    /// The path head this subtree is rooted at.
    pub root: NodeId,
    /// The root's parent (the candidate LCA answer), `None` for the
    /// tree root's path.
    pub parent: Option<NodeId>,
    /// First slot of the subtree's range.
    pub lo: u32,
    /// One past the last slot of the range.
    pub hi: u32,
}

impl CoverSubtree {
    /// Whether a slot lies inside this subtree's range.
    pub fn contains_slot(&self, slot: u32) -> bool {
        self.lo <= slot && slot < self.hi
    }
}

/// The subtree cover as a layer-indexed CSR over flat slot ranges.
#[derive(Debug, Clone)]
pub struct SubtreeCover {
    /// Path head of each cover subtree.
    roots: Vec<NodeId>,
    /// Parent of each head (`NIL` for the tree root's path).
    parents: Vec<NodeId>,
    /// First slot of each subtree's range.
    los: Vec<u32>,
    /// One past the last slot of each subtree's range.
    his: Vec<u32>,
    /// Layer `i` occupies indices `layer_offsets[i] ..
    /// layer_offsets[i + 1]`, sorted by `lo`.
    layer_offsets: Vec<u32>,
}

impl SubtreeCover {
    /// Heap bytes the cover keeps resident, by capacity.
    pub fn resident_bytes(&self) -> usize {
        vec_bytes(&self.roots)
            + vec_bytes(&self.parents)
            + vec_bytes(&self.los)
            + vec_bytes(&self.his)
            + vec_bytes(&self.layer_offsets)
    }

    /// Builds the cover from a decomposition, a light-first layout, and
    /// subtree sizes, visiting the heads in slot order: one counting
    /// sort by layer places each head at its layer's cursor, so every
    /// layer comes out sorted by range start — no per-layer buffer and
    /// no sort.
    pub fn new(
        parents: &[NodeId],
        layout: &Layout,
        decomposition: &HeavyPathDecomposition,
        sizes: &[u32],
    ) -> Self {
        let order = layout.order();
        let (head, layer) = (&decomposition.head, &decomposition.layer);
        let num_layers = decomposition.num_layers() as usize;
        let mut layer_offsets = vec![0u32; num_layers + 1];
        for &v in order {
            if head[v as usize] == v {
                layer_offsets[layer[v as usize] as usize + 1] += 1;
            }
        }
        for i in 0..num_layers {
            layer_offsets[i + 1] += layer_offsets[i];
        }
        let total = layer_offsets[num_layers] as usize;

        let mut roots = vec![NIL; total];
        let mut head_parents = vec![NIL; total];
        let mut los = vec![0u32; total];
        let mut his = vec![0u32; total];
        let mut cursor: Vec<u32> = layer_offsets[..num_layers].to_vec();
        for (slot, &v) in order.iter().enumerate() {
            if head[v as usize] == v {
                let li = layer[v as usize] as usize;
                let at = cursor[li] as usize;
                cursor[li] += 1;
                roots[at] = v;
                head_parents[at] = parents[v as usize];
                los[at] = slot as u32;
                his[at] = slot as u32 + sizes[v as usize];
            }
        }

        SubtreeCover {
            roots,
            parents: head_parents,
            los,
            his,
            layer_offsets,
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> u32 {
        (self.layer_offsets.len() - 1) as u32
    }

    /// The index range of layer `i` in the flat arrays.
    #[inline]
    pub fn layer_span(&self, i: u32) -> std::ops::Range<usize> {
        self.layer_offsets[i as usize] as usize..self.layer_offsets[i as usize + 1] as usize
    }

    /// The `(lo, hi)` slot-range arrays of layer `i`, sorted by `lo` —
    /// exactly what the step-4 broadcast loop walks.
    #[inline]
    pub fn layer_ranges(&self, i: u32) -> (&[u32], &[u32]) {
        let span = self.layer_span(i);
        (&self.los[span.clone()], &self.his[span])
    }

    /// The subtree at flat index `idx`.
    #[inline]
    pub fn subtree(&self, idx: usize) -> CoverSubtree {
        let parent = self.parents[idx];
        CoverSubtree {
            root: self.roots[idx],
            parent: (parent != NIL).then_some(parent),
            lo: self.los[idx],
            hi: self.his[idx],
        }
    }

    /// The subtrees of layer `i`, sorted by range start.
    pub fn layer(&self, i: u32) -> impl Iterator<Item = CoverSubtree> + '_ {
        self.layer_span(i).map(|idx| self.subtree(idx))
    }

    /// Finds the layer-`i` subtree containing a slot, if any (binary
    /// search; same-layer subtrees are disjoint).
    pub fn find_in_layer(&self, i: u32, slot: u32) -> Option<CoverSubtree> {
        let span = self.layer_span(i);
        let layer_los = &self.los[span.clone()];
        let idx = layer_los.partition_point(|&lo| lo <= slot);
        if idx == 0 {
            return None;
        }
        let cand = self.subtree(span.start + idx - 1);
        cand.contains_slot(slot).then_some(cand)
    }

    /// Total number of cover subtrees.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// Whether the cover is empty (never, for a non-empty tree).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many cover subtrees contain each vertex (the paper: at least
    /// one and at most O(log n)).
    pub fn membership_counts(&self, layout: &Layout) -> Vec<u32> {
        let mut counts = vec![0u32; layout.n() as usize];
        for (&lo, &hi) in self.los.iter().zip(self.his.iter()) {
            for slot in lo..hi {
                counts[layout.vertex_at(slot) as usize] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use spatial_model::CurveKind;
    use spatial_tree::{generators, Tree};

    fn build(t: &Tree) -> (Layout, SubtreeCover) {
        let layout = Layout::light_first(t, CurveKind::Hilbert);
        let sizes = t.subtree_sizes();
        let d = HeavyPathDecomposition::with_sizes(t, &sizes);
        let cover = SubtreeCover::new(t.parents(), &layout, &d, &sizes);
        (layout, cover)
    }

    #[test]
    fn ranges_are_subtree_ranges() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = generators::uniform_random(300, &mut rng);
        let sizes = t.subtree_sizes();
        let (layout, cover) = build(&t);
        for i in 0..cover.num_layers() {
            for s in cover.layer(i) {
                assert_eq!(s.hi - s.lo, sizes[s.root as usize], "root {}", s.root);
                assert_eq!(layout.slot(s.root), s.lo, "head starts its range");
            }
        }
    }

    #[test]
    fn same_layer_disjoint() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = generators::preferential_attachment(500, &mut rng);
        let (_, cover) = build(&t);
        for i in 0..cover.num_layers() {
            let (los, his) = cover.layer_ranges(i);
            for k in 1..los.len() {
                assert!(his[k - 1] <= los[k], "layer {i} overlap");
            }
        }
    }

    #[test]
    fn every_vertex_covered_at_most_log_times() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [50u32, 500, 5000] {
            let t = generators::uniform_random(n, &mut rng);
            let (layout, cover) = build(&t);
            let counts = cover.membership_counts(&layout);
            let bound = (n as f64).log2().ceil() as u32 + 1;
            for v in t.vertices() {
                assert!(counts[v as usize] >= 1, "vertex {v} uncovered");
                assert!(
                    counts[v as usize] <= bound,
                    "vertex {v} in {} > {bound} subtrees",
                    counts[v as usize]
                );
            }
        }
    }

    #[test]
    fn layer_zero_is_whole_tree() {
        let t = generators::comb(40);
        let (_, cover) = build(&t);
        let layer0: Vec<CoverSubtree> = cover.layer(0).collect();
        assert_eq!(layer0.len(), 1);
        assert_eq!(layer0[0].root, t.root());
        assert_eq!(layer0[0].parent, None);
        assert_eq!((layer0[0].lo, layer0[0].hi), (0, 40));
    }

    #[test]
    fn find_in_layer_hits() {
        let t = generators::star(10);
        let (layout, cover) = build(&t);
        // Layer 1: nine singleton subtrees minus the heavy child.
        assert_eq!(cover.layer_span(1).len(), 8);
        for s in cover.layer(1) {
            let found = cover.find_in_layer(1, layout.slot(s.root)).unwrap();
            assert_eq!(found.root, s.root);
        }
        // The root's slot is not in any layer-1 subtree.
        assert!(cover.find_in_layer(1, layout.slot(0)).is_none());
    }

    #[test]
    fn csr_matches_reference_cover() {
        // The CSR cover and the seed nested cover describe the same
        // subtrees, layer by layer, in the same order.
        let mut rng = StdRng::seed_from_u64(5);
        for fam in generators::TreeFamily::ALL {
            let t = fam.generate(257, &mut rng);
            let layout = Layout::light_first(&t, CurveKind::Hilbert);
            let sizes = t.subtree_sizes();
            let d = HeavyPathDecomposition::with_sizes(&t, &sizes);
            let csr = SubtreeCover::new(t.parents(), &layout, &d, &sizes);
            let reference = crate::reference::ReferenceCover::new(&t, &layout, &d, &sizes);
            assert_eq!(csr.num_layers(), reference.num_layers(), "{fam}");
            for i in 0..csr.num_layers() {
                let got: Vec<CoverSubtree> = csr.layer(i).collect();
                assert_eq!(got, reference.layer(i), "{fam} layer {i}");
            }
        }
    }
}
