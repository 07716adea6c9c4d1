//! The TRANSFORM virtual tree (§III-D, Fig. 3).
//!
//! For every vertex `v` with children `c₁, …, c_d` (sorted by subtree
//! size, i.e. light-first sibling order), TRANSFORM keeps `C(v) = {c₁,
//! c_{⌊d/2⌋+1}}` as *current* children and hands the remaining siblings
//! to those two heads as *appended* children, recursively. The result:
//! every vertex has at most 2 current heads + 2 appended heads (virtual
//! degree ≤ 4 children), and Lemma 8 shows the light-first storage
//! positions never change.
//!
//! The *relay structure* this produces is, per parent `v`, a balanced
//! binary tree over `v`'s sibling list; a message from `v` to all its
//! children travels down this tree in `O(log d)` hops, with total energy
//! `O(n)` over the whole tree (Theorem 3).

use spatial_layout::Layout;
use spatial_model::{Machine, Slot};
use spatial_tree::{ChildrenCsr, NodeId, Tree, NIL};

/// The virtual (TRANSFORM-ed) tree `T̂` with relay metadata.
#[derive(Debug, Clone)]
pub struct VirtualTree {
    /// Relay parent of each vertex: the vertex it receives its real
    /// parent's messages from (the real parent for current heads, the
    /// adopting sibling for appended heads; `NIL` at the root).
    relay_parent: Vec<NodeId>,
    /// Relay round of each vertex: its depth within its parent's sibling
    /// relay tree (current heads are 1; `0` at the root).
    relay_round: Vec<u32>,
    /// Current-child heads of each vertex (`C(v)` after TRANSFORM),
    /// `NIL`-padded.
    c_heads: Vec<[NodeId; 2]>,
    /// Appended-child heads of each vertex (`A(v)` after TRANSFORM),
    /// `NIL`-padded.
    a_heads: Vec<[NodeId; 2]>,
    /// Maximum relay round (the number of broadcast rounds needed).
    max_round: u32,
}

impl VirtualTree {
    /// Builds the virtual tree, sorting children by subtree size (the
    /// light-first sibling order the layout already uses).
    pub fn new(tree: &Tree) -> Self {
        let sizes = tree.subtree_sizes();
        Self::with_sizes(tree, &sizes)
    }

    /// Builds the virtual tree from precomputed subtree sizes.
    pub fn with_sizes(tree: &Tree, sizes: &[u32]) -> Self {
        Self::with_csr(&ChildrenCsr::by_size(tree, sizes), tree.root())
    }

    /// Builds the virtual tree from light-first child lists (the CSR
    /// an insert epoch already holds for its layout), rooted at `root`.
    pub fn with_csr(sorted: &ChildrenCsr, root: NodeId) -> Self {
        let n = sorted.n() as usize;
        let mut vt = VirtualTree {
            relay_parent: vec![NIL; n],
            relay_round: vec![0; n],
            c_heads: vec![[NIL; 2]; n],
            a_heads: vec![[NIL; 2]; n],
            max_round: 0,
        };

        // Worklist of (vertex, owner of its appended range, lo, hi):
        // A(vertex) = sorted.children(owner)[lo..hi]. A vertex's relay
        // round is set before it is queued, so any visiting order
        // yields the same tree.
        let mut work: Vec<(NodeId, NodeId, u32, u32)> = vec![(root, NIL, 0, 0)];

        while let Some((v, owner, lo, hi)) = work.pop() {
            let vi = v as usize;
            // Split v's own children (C(v)): heads receive sibling
            // sub-ranges owned by v.
            let cs = sorted.children(v);
            let d = cs.len() as u32;
            if d >= 1 {
                let half = d / 2;
                let h1 = cs[0];
                vt.c_heads[vi][0] = h1;
                vt.relay_parent[h1 as usize] = v;
                vt.relay_round[h1 as usize] = 1;
                vt.max_round = vt.max_round.max(1);
                if d >= 2 {
                    let h2 = cs[half as usize];
                    vt.c_heads[vi][1] = h2;
                    vt.relay_parent[h2 as usize] = v;
                    vt.relay_round[h2 as usize] = 1;
                    work.push((h1, v, 1, half));
                    work.push((h2, v, half + 1, d));
                } else {
                    work.push((h1, v, 1, 1));
                }
            }
            // Split v's appended range (A(v)): heads are v's siblings.
            let alen = hi.saturating_sub(lo);
            if alen >= 1 {
                let list = sorted.children(owner);
                let ahalf = alen / 2;
                let g1 = list[lo as usize];
                vt.a_heads[vi][0] = g1;
                vt.relay_parent[g1 as usize] = v;
                vt.relay_round[g1 as usize] = vt.relay_round[vi] + 1;
                vt.max_round = vt.max_round.max(vt.relay_round[g1 as usize]);
                if alen >= 2 {
                    let g2 = list[(lo + ahalf) as usize];
                    vt.a_heads[vi][1] = g2;
                    vt.relay_parent[g2 as usize] = v;
                    vt.relay_round[g2 as usize] = vt.relay_round[vi] + 1;
                    work.push((g1, owner, lo + 1, lo + ahalf));
                    work.push((g2, owner, lo + ahalf + 1, hi));
                } else {
                    work.push((g1, owner, lo + 1, lo + 1));
                }
            }
        }
        vt
    }

    /// Relay parent of `v` (`NIL` at the root): the vertex that forwards
    /// `v`'s real parent's messages to `v`.
    pub fn relay_parent(&self, v: NodeId) -> NodeId {
        self.relay_parent[v as usize]
    }

    /// Relay round of `v`: broadcast hop count within its parent's
    /// sibling relay tree.
    pub fn relay_round(&self, v: NodeId) -> u32 {
        self.relay_round[v as usize]
    }

    /// Current heads `C(v)` (`NIL`-padded).
    pub fn current_heads(&self, v: NodeId) -> [NodeId; 2] {
        self.c_heads[v as usize]
    }

    /// Appended heads `A(v)` (`NIL`-padded).
    pub fn appended_heads(&self, v: NodeId) -> [NodeId; 2] {
        self.a_heads[v as usize]
    }

    /// Number of virtual children of `v` (current + appended heads).
    pub fn virtual_degree(&self, v: NodeId) -> u32 {
        let count = |hs: &[NodeId; 2]| hs.iter().filter(|&&h| h != NIL).count() as u32;
        count(&self.c_heads[v as usize]) + count(&self.a_heads[v as usize])
    }

    /// Maximum broadcast relay rounds (= `O(log Δ)`).
    pub fn max_round(&self) -> u32 {
        self.max_round
    }

    /// Number of vertices.
    pub fn n(&self) -> u32 {
        self.relay_parent.len() as u32
    }

    /// Charges the Fig. 4 reference-passing construction on the machine:
    /// bottom-up over the relay structure, every vertex exchanges a
    /// constant number of reference messages with its relay heads. `O(n)`
    /// energy and `O(log n)` depth (Theorem 3's construction cost).
    pub fn charge_construction(&self, m: &Machine, layout: &Layout) {
        // Round r vertices receive their range references from round r−1
        // adopters — the same balanced structure as a broadcast, plus a
        // constant-factor exchange (request + response).
        for round in 1..=self.max_round {
            let msgs: Vec<(Slot, Slot)> = (0..self.n())
                .filter(|&v| self.relay_round[v as usize] == round)
                .flat_map(|v| {
                    let p = self.relay_parent[v as usize];
                    let (a, b) = (layout.slot(p), layout.slot(v));
                    [(a, b), (b, a)]
                })
                .collect();
            m.round(&msgs);
            m.advance_all(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use spatial_model::CurveKind;
    use spatial_tree::generators;

    /// Collects the *real* children of `p` reachable through the relay
    /// structure rooted at `p`'s current heads.
    fn relayed_children(vt: &VirtualTree, p: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = vt
            .current_heads(p)
            .into_iter()
            .filter(|&h| h != NIL)
            .collect();
        while let Some(x) = stack.pop() {
            out.push(x);
            for h in vt.appended_heads(x) {
                if h != NIL {
                    stack.push(h);
                }
            }
        }
        out.sort_unstable();
        out
    }

    #[test]
    fn virtual_degree_at_most_four() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [1u32, 2, 10, 500] {
            for t in [
                generators::star(n.max(1)),
                generators::uniform_random(n.max(2), &mut rng),
                generators::preferential_attachment(n.max(1), &mut rng),
            ] {
                let vt = VirtualTree::new(&t);
                for v in t.vertices() {
                    assert!(vt.virtual_degree(v) <= 4, "deg({v}) > 4");
                }
            }
        }
    }

    #[test]
    fn relay_covers_exactly_the_children() {
        let mut rng = StdRng::seed_from_u64(3);
        for t in [
            generators::star(64),
            generators::broom(100, 30),
            generators::preferential_attachment(400, &mut rng),
            generators::uniform_random(333, &mut rng),
        ] {
            let vt = VirtualTree::new(&t);
            for p in t.vertices() {
                let mut expect: Vec<NodeId> = t.children(p).to_vec();
                expect.sort_unstable();
                assert_eq!(relayed_children(&vt, p), expect, "parent {p}");
            }
        }
    }

    #[test]
    fn star_relay_is_logarithmic() {
        let t = generators::star(1025);
        let vt = VirtualTree::new(&t);
        // 1024 children: balanced halving gives ~log2(1024) rounds.
        assert!(vt.max_round() <= 12, "rounds {} > 12", vt.max_round());
        assert!(
            vt.max_round() >= 9,
            "rounds {} suspiciously small",
            vt.max_round()
        );
    }

    #[test]
    fn bounded_degree_trees_have_no_appended_heads() {
        let t = generators::perfect_kary(2, 6);
        let vt = VirtualTree::new(&t);
        for v in t.vertices() {
            assert_eq!(vt.appended_heads(v), [NIL, NIL], "vertex {v}");
            assert_eq!(vt.max_round(), 1);
        }
    }

    #[test]
    fn relay_rounds_consistent_with_parents() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = generators::preferential_attachment(1000, &mut rng);
        let vt = VirtualTree::new(&t);
        for v in t.vertices() {
            let rp = vt.relay_parent(v);
            if rp == NIL {
                assert_eq!(v, t.root());
                continue;
            }
            let r = vt.relay_round(v);
            if vt.current_heads(rp).contains(&v) {
                assert_eq!(r, 1, "current head {v}");
            } else {
                assert_eq!(r, vt.relay_round(rp) + 1, "appended head {v}");
            }
        }
    }

    #[test]
    fn construction_linear_energy() {
        let mut per_n = Vec::new();
        for log_n in [12u32, 14] {
            let n = 1u32 << log_n;
            let t = generators::star(n);
            let layout = Layout::light_first(&t, CurveKind::Hilbert);
            let m = layout.machine();
            let vt = VirtualTree::new(&t);
            vt.charge_construction(&m, &layout);
            per_n.push(m.report().energy as f64 / n as f64);
        }
        assert!(
            per_n[1] < per_n[0] * 1.5,
            "construction energy/n should be flat: {per_n:?}"
        );
    }

    #[test]
    fn single_vertex_virtual_tree() {
        let t = Tree::from_parents(0, vec![NIL]);
        let vt = VirtualTree::new(&t);
        assert_eq!(vt.virtual_degree(0), 0);
        assert_eq!(vt.max_round(), 0);
        assert_eq!(vt.relay_parent(0), NIL);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;
    use spatial_tree::generators;

    proptest! {
        /// On any random tree: virtual degree ≤ 4, every non-root has a
        /// relay parent, and relay rounds are consistent with adoption
        /// depth.
        #[test]
        fn prop_virtual_tree_invariants(n in 2u32..400, seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = generators::uniform_random(n, &mut rng);
            let vt = VirtualTree::new(&t);
            for v in t.vertices() {
                prop_assert!(vt.virtual_degree(v) <= 4);
                if v == t.root() {
                    prop_assert_eq!(vt.relay_parent(v), NIL);
                } else {
                    let rp = vt.relay_parent(v);
                    prop_assert!(rp != NIL, "vertex {} unreachable", v);
                    // Relay parents are either the real parent or a
                    // sibling (same real parent).
                    let p = t.parent(v).unwrap();
                    prop_assert!(
                        rp == p || t.parent(rp) == Some(p),
                        "relay parent {} of {} is neither parent nor sibling",
                        rp, v
                    );
                }
            }
        }

        /// The relay forest spans every vertex exactly once (a spanning
        /// arborescence of the tree's vertex set).
        #[test]
        fn prop_relay_forest_spans(n in 2u32..300, seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t = generators::preferential_attachment(n, &mut rng);
            let vt = VirtualTree::new(&t);
            let mut reached = vec![false; n as usize];
            let mut stack = vec![t.root()];
            reached[t.root() as usize] = true;
            while let Some(x) = stack.pop() {
                for h in vt.current_heads(x).into_iter().chain(vt.appended_heads(x)) {
                    if h != NIL {
                        prop_assert!(!reached[h as usize], "vertex {} adopted twice", h);
                        reached[h as usize] = true;
                        stack.push(h);
                    }
                }
            }
            prop_assert!(reached.iter().all(|&r| r));
        }
    }
}
