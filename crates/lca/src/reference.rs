//! The seed batched-LCA implementation, retained verbatim as the
//! differential baseline for the CSR engine in [`crate::batched`].
//!
//! Nothing here is optimized: the cover is a nested `Vec<Vec<_>>`, the
//! per-call state (ranges, heavy children, decomposition, cover) is
//! rebuilt on every invocation, and step 4 rescans the whole query
//! batch per layer with binary searches. Both treefix passes run on the
//! frozen seed contraction engine
//! ([`spatial_treefix::reference::ReferenceEngine`]), so the oracle
//! shares no contraction code with the engine it checks. The `engine_vs_reference`
//! suite pins the optimized engine to this one — identical answers,
//! statistics, and machine charges on arbitrary trees, query batches,
//! and seeds.

use crate::batched::{LcaResult, LcaStats};
use crate::cover::CoverSubtree;
use rand::Rng;
use spatial_layout::Layout;
use spatial_messaging::{local_broadcast, VirtualTree};
use spatial_model::{collectives, Machine};
use spatial_tree::{HeavyPathDecomposition, NodeId, Tree, NIL};
use spatial_treefix::reference::ReferenceEngine;
use spatial_treefix::Add;

/// The seed subtree cover: one `Vec` of subtrees per layer.
#[derive(Debug, Clone)]
pub struct ReferenceCover {
    layers: Vec<Vec<CoverSubtree>>,
}

impl ReferenceCover {
    /// Builds the cover from a decomposition, a light-first layout, and
    /// subtree sizes.
    pub fn new(
        tree: &Tree,
        layout: &Layout,
        decomposition: &HeavyPathDecomposition,
        sizes: &[u32],
    ) -> Self {
        let mut layers = vec![Vec::new(); decomposition.num_layers() as usize];
        for v in tree.vertices() {
            if decomposition.head[v as usize] == v {
                let lo = layout.slot(v);
                let subtree = CoverSubtree {
                    root: v,
                    parent: tree.parent(v),
                    lo,
                    hi: lo + sizes[v as usize],
                };
                layers[decomposition.layer[v as usize] as usize].push(subtree);
            }
        }
        // Sort each layer by range start so queries can binary-search.
        for layer in &mut layers {
            layer.sort_by_key(|s| s.lo);
        }
        ReferenceCover { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> u32 {
        self.layers.len() as u32
    }

    /// The subtrees of one layer, sorted by range start.
    pub fn layer(&self, i: u32) -> &[CoverSubtree] {
        &self.layers[i as usize]
    }

    /// Finds the layer-`i` subtree containing a slot, if any (binary
    /// search; same-layer subtrees are disjoint).
    pub fn find_in_layer(&self, i: u32, slot: u32) -> Option<&CoverSubtree> {
        let layer = &self.layers[i as usize];
        let idx = layer.partition_point(|s| s.lo <= slot);
        if idx == 0 {
            return None;
        }
        let cand = &layer[idx - 1];
        cand.contains_slot(slot).then_some(cand)
    }
}

/// The seed four-step batched LCA (§VI-C), kept as the differential
/// baseline. Same contract as [`crate::batched::batched_lca`].
pub fn batched_lca_reference<R: Rng>(
    machine: &Machine,
    layout: &Layout,
    tree: &Tree,
    queries: &[(NodeId, NodeId)],
    rng: &mut R,
) -> LcaResult {
    let n = tree.n();
    debug_assert_eq!(
        spatial_tree::traversal::verify_light_first(tree, layout.order()),
        Ok(()),
        "batched LCA requires a light-first layout"
    );

    // ---- Step 1: subtree sizes (bottom-up treefix), ranges, and ----
    // ---- ancestor/descendant answers.                           ----
    let ones = vec![Add(1); n as usize];
    let mut tf1 = ReferenceEngine::new(tree, layout, machine, &ones, true);
    let tf1_stats = tf1.contract(rng);
    let sizes: Vec<u32> = tf1
        .uncontract_bottom_up()
        .iter()
        .map(|a| a.0 as u32)
        .collect();
    let range = |v: NodeId| -> (u32, u32) {
        let lo = layout.slot(v);
        (lo, lo + sizes[v as usize])
    };
    let in_range = |v: NodeId, r: (u32, u32)| -> bool {
        let s = layout.slot(v);
        r.0 <= s && s < r.1
    };

    let mut answers = vec![NIL; queries.len()];
    let mut answered_step1 = 0u32;
    for (qi, &(a, b)) in queries.iter().enumerate() {
        assert!(a < n && b < n, "query ({a}, {b}) out of range");
        if a == b || in_range(b, range(a)) {
            // Equal vertices or b a descendant of a: the answer is a.
            answers[qi] = a;
            answered_step1 += 1;
        } else if in_range(a, range(b)) {
            answers[qi] = b;
            answered_step1 += 1;
        }
    }

    // ---- Step 2: every vertex broadcasts its range to its children ----
    // ---- (and its heavy child id, which step 3's indicator needs). ----
    let vt = VirtualTree::with_sizes(tree, &sizes);
    vt.charge_construction(machine, layout);
    let ranges: Vec<(u32, u32)> = (0..n).map(range).collect();
    local_broadcast(machine, layout, &vt, tree, &ranges);
    let heavy: Vec<NodeId> = (0..n)
        .map(|v| {
            tree.children(v)
                .iter()
                .copied()
                .max_by_key(|&c| (sizes[c as usize], c))
                .unwrap_or(NIL)
        })
        .collect();
    let heavy_msg = local_broadcast(machine, layout, &vt, tree, &heavy);

    // ---- Step 3: layers via top-down treefix over the light-edge ----
    // ---- indicator.                                              ----
    let indicator: Vec<Add> = (0..n)
        .map(|v| match heavy_msg[v as usize] {
            Some(h) if h == v => Add(0), // heavy child: continues the path
            None => Add(0),              // root
            _ => Add(1),                 // light edge: starts a new path
        })
        .collect();
    let mut tf3 = ReferenceEngine::new(tree, layout, machine, &indicator, false);
    let tf3_stats = tf3.contract(rng);
    let layer: Vec<u32> = tf3
        .uncontract_top_down(&indicator)
        .iter()
        .map(|a| a.0 as u32)
        .collect();

    // Host-side view of the decomposition for query routing (the
    // machine costs were charged above; this mirrors the distributed
    // state for the answer bookkeeping).
    let decomposition = HeavyPathDecomposition {
        head: (0..n)
            .map(|v| {
                if indicator[v as usize] == Add(1) || tree.parent(v).is_none() {
                    v
                } else {
                    NIL // filled below: non-heads inherit along heavy edges
                }
            })
            .collect(),
        layer: layer.clone(),
        heavy_child: heavy.clone(),
    };
    let mut head = decomposition.head;
    for &v in spatial_tree::traversal::bfs_order(tree).iter() {
        if head[v as usize] == NIL {
            head[v as usize] = head[tree.parent(v).expect("non-root") as usize];
        }
    }
    let decomposition = HeavyPathDecomposition {
        head,
        layer: layer.clone(),
        heavy_child: heavy,
    };
    let cover = ReferenceCover::new(tree, layout, &decomposition, &sizes);

    // ---- Step 4: per layer, broadcast (r(w), r(x)) inside each ----
    // ---- cover subtree, resolve queries, and barrier.          ----
    let resolve = |s: &CoverSubtree, partner: NodeId| -> Option<NodeId> {
        let w = s.parent?;
        let (wlo, whi) = (layout.slot(w), layout.slot(w) + sizes[w as usize]);
        let ps = layout.slot(partner);
        // partner ∈ r(w) \ r(x) ⇒ the answer is w.
        (wlo <= ps && ps < whi && !s.contains_slot(ps)).then_some(w)
    };

    for li in 0..cover.num_layers() {
        // Broadcast within every layer subtree (Lemma 13); ranges of one
        // layer are disjoint, so the broadcasts run in parallel.
        for s in cover.layer(li) {
            if s.hi - s.lo >= 2 {
                collectives::range_broadcast(machine, s.lo, s.hi);
            }
        }
        for (qi, &(a, b)) in queries.iter().enumerate() {
            if answers[qi] != NIL {
                continue;
            }
            if let Some(s) = cover.find_in_layer(li, layout.slot(a)) {
                if let Some(w) = resolve(s, b) {
                    answers[qi] = w;
                    continue;
                }
            }
            if let Some(s) = cover.find_in_layer(li, layout.slot(b)) {
                if let Some(w) = resolve(s, a) {
                    answers[qi] = w;
                }
            }
        }
        // Synchronization barrier before the next layer (§VI-C).
        collectives::barrier(machine);
    }

    debug_assert!(
        answers.iter().all(|&a| a != NIL),
        "Corollary 3 guarantees every query resolves"
    );

    LcaResult {
        answers,
        stats: LcaStats {
            layers: cover.num_layers(),
            answered_step1,
            treefix_rounds: (tf1_stats.compact_rounds, tf3_stats.compact_rounds),
        },
    }
}
