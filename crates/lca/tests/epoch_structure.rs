//! Differentials for the structure an insert epoch derives from one
//! light-first child CSR, each against an oracle that shares no code
//! with the production construction:
//!
//! - the TRANSFORM relay tree ([`VirtualTree::with_csr`]) against a
//!   recursive reading of §III-D: `C(v) = {c₁, c_{⌊d/2⌋+1}}`, each head
//!   adopting half of the remaining siblings, halved again recursively;
//! - the heavy-path decomposition ([`HeavyPathDecomposition::from_csr`])
//!   against a naive one: the heavy child maximizes `(size, id)`, heads
//!   and layers come from walks up the parent array;
//! - the slot-order [`SubtreeCover`] against the seed
//!   [`ReferenceCover`], on light-first and random layouts;
//! - a structure rebound from a dynamic layout's lent parts
//!   ([`LcaStructure::bind_parts`], run by [`LcaStructure::run_on`])
//!   against fresh [`LcaEngine::new`] builds across a growing tree, and
//!   subtree sums run on the contraction engine it shares against a
//!   freshly bound one.
//!
//! (The seed LCA reference builds its relay tree with the production
//! `VirtualTree`, so `engine_vs_reference` cannot see a change in the
//! relay tree's shape; the first oracle can.)

use rand::prelude::*;
use spatial_layout::{DynamicLayout, Layout};
use spatial_lca::reference::ReferenceCover;
use spatial_lca::{HostLca, LcaEngine, LcaStructure, SubtreeCover};
use spatial_messaging::VirtualTree;
use spatial_model::{CurveKind, EngineLifecycle, Slot};
use spatial_tree::generators::TreeFamily;
use spatial_tree::{ChildrenCsr, HeavyPathDecomposition, NodeId, Tree, NIL};
use spatial_treefix::contraction::ContractionEngine;
use spatial_treefix::{treefix_bottom_up_host, Add};

/// Sizes exercising the empty, single-child and odd/even fan-out cases
/// as well as deep and wide shapes.
const SIZES: [u32; 6] = [1, 2, 3, 17, 256, 1000];

fn trees() -> Vec<(String, Tree)> {
    let mut rng = StdRng::seed_from_u64(0xe90c);
    let mut out = Vec::new();
    for n in SIZES {
        for fam in TreeFamily::ALL {
            out.push((format!("{fam} n={n}"), fam.generate(n, &mut rng)));
        }
    }
    out
}

fn csr_of(t: &Tree) -> ChildrenCsr {
    ChildrenCsr::by_size(t, &t.subtree_sizes())
}

// ---- TRANSFORM oracle ----

/// The relay tree as the oracle reads §III-D.
#[derive(Debug, PartialEq)]
struct Relay {
    parent: Vec<NodeId>,
    round: Vec<u32>,
    current: Vec<[NodeId; 2]>,
    appended: Vec<[NodeId; 2]>,
    max_round: u32,
}

/// The two heads of a sibling list and the sub-lists they adopt:
/// `c₁` takes `c₂ … c_{⌊d/2⌋}`, `c_{⌊d/2⌋+1}` takes the rest.
fn halve(list: &[NodeId]) -> Vec<(NodeId, &[NodeId])> {
    let d = list.len();
    match d {
        0 => vec![],
        1 => vec![(list[0], &list[1..])],
        _ => {
            let second = d / 2 + 1; // 1-based index of the second head
            vec![
                (list[0], &list[1..second - 1]),
                (list[second - 1], &list[second..]),
            ]
        }
    }
}

/// `x` (relay round `round`) adopts the sibling list `rest`: its two
/// appended heads are one round deeper and adopt halves recursively.
fn adopt(r: &mut Relay, x: NodeId, rest: &[NodeId], round: u32) {
    for (k, (g, sub)) in halve(rest).into_iter().enumerate() {
        r.appended[x as usize][k] = g;
        r.parent[g as usize] = x;
        r.round[g as usize] = round + 1;
        r.max_round = r.max_round.max(round + 1);
        adopt(r, g, sub, round + 1);
    }
}

fn transform_oracle(csr: &ChildrenCsr) -> Relay {
    let n = csr.n() as usize;
    let mut r = Relay {
        parent: vec![NIL; n],
        round: vec![0; n],
        current: vec![[NIL; 2]; n],
        appended: vec![[NIL; 2]; n],
        max_round: 0,
    };
    for v in 0..n as NodeId {
        for (k, (h, rest)) in halve(csr.children(v)).into_iter().enumerate() {
            r.current[v as usize][k] = h;
            r.parent[h as usize] = v;
            r.round[h as usize] = 1;
            r.max_round = r.max_round.max(1);
            adopt(&mut r, h, rest, 1);
        }
    }
    r
}

#[test]
fn relay_tree_matches_the_recursive_transform_oracle() {
    for (name, t) in trees() {
        let csr = csr_of(&t);
        let vt = VirtualTree::with_csr(&csr, t.root());
        let got = Relay {
            parent: t.vertices().map(|v| vt.relay_parent(v)).collect(),
            round: t.vertices().map(|v| vt.relay_round(v)).collect(),
            current: t.vertices().map(|v| vt.current_heads(v)).collect(),
            appended: t.vertices().map(|v| vt.appended_heads(v)).collect(),
            max_round: vt.max_round(),
        };
        assert_eq!(got, transform_oracle(&csr), "{name}");
    }
}

// ---- Heavy-path decomposition oracle ----

/// Subtree sizes by walking up from every vertex (no BFS, no CSR).
fn naive_sizes(t: &Tree) -> Vec<u32> {
    let mut sizes = vec![0u32; t.n() as usize];
    for v in t.vertices() {
        let mut x = Some(v);
        while let Some(y) = x {
            sizes[y as usize] += 1;
            x = t.parent(y);
        }
    }
    sizes
}

#[test]
fn decomposition_from_csr_matches_the_naive_oracle() {
    for (name, t) in trees() {
        let sizes = naive_sizes(&t);
        let heavy: Vec<NodeId> = t
            .vertices()
            .map(|v| {
                t.children(v)
                    .iter()
                    .copied()
                    .max_by_key(|&c| (sizes[c as usize], c))
                    .unwrap_or(NIL)
            })
            .collect();
        let is_light = |c: NodeId| t.parent(c).is_some_and(|p| heavy[p as usize] != c);
        // Layer: light edges on the walk up; head: the top of the run
        // of heavy edges above v.
        let layer: Vec<u32> = t
            .vertices()
            .map(|v| {
                let (mut x, mut l) = (v, 0);
                while let Some(p) = t.parent(x) {
                    l += is_light(x) as u32;
                    x = p;
                }
                l
            })
            .collect();
        let head: Vec<NodeId> = t
            .vertices()
            .map(|v| {
                let mut x = v;
                while t.parent(x).is_some() && !is_light(x) {
                    x = t.parent(x).expect("non-root");
                }
                x
            })
            .collect();

        let layout = Layout::light_first(&t, CurveKind::Hilbert);
        let d = HeavyPathDecomposition::from_csr(&csr_of(&t), layout.order());
        assert_eq!(d.heavy_child, heavy, "{name}: heavy children");
        assert_eq!(d.layer, layer, "{name}: layers");
        assert_eq!(d.head, head, "{name}: heads");
        let via_sizes = HeavyPathDecomposition::with_sizes(&t, &sizes);
        assert_eq!(via_sizes.head, d.head, "{name}: with_sizes heads");
        assert_eq!(via_sizes.layer, d.layer, "{name}: with_sizes layers");
    }
}

// ---- Subtree cover oracle ----

#[test]
fn slot_order_cover_matches_the_reference_cover() {
    let mut rng = StdRng::seed_from_u64(0xc0fe);
    for (name, t) in trees() {
        let sizes = t.subtree_sizes();
        let light_first = Layout::light_first(&t, CurveKind::Hilbert);
        let d = HeavyPathDecomposition::from_csr(&csr_of(&t), light_first.order());
        // The light-first layout the engine uses, and a random one: the
        // counting sort must keep every layer in slot order either way.
        let random = Layout::random(&t, CurveKind::Hilbert, &mut rng);
        for layout in [&light_first, &random] {
            let cover = SubtreeCover::new(t.parents(), layout, &d, &sizes);
            let reference = ReferenceCover::new(&t, layout, &d, &sizes);
            assert_eq!(cover.num_layers(), reference.num_layers(), "{name}");
            for li in 0..cover.num_layers() {
                let got: Vec<_> = cover.layer(li).collect();
                assert_eq!(got, reference.layer(li), "{name}: layer {li}");
            }
        }
    }
}

// ---- Engines bound from shared parts ----

fn random_queries(n: u32, count: usize, rng: &mut StdRng) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect()
}

#[test]
fn bind_parts_matches_fresh_engines_on_a_growing_tree() {
    let mut rng = StdRng::seed_from_u64(0xb1d);
    let t0 = TreeFamily::PreferentialAttachment.generate(60, &mut rng);
    let mut dl = DynamicLayout::new(&t0, CurveKind::Hilbert, f64::INFINITY);
    let mut pooled: Option<LcaStructure> = None;
    // The one contraction engine the lent-parts runs and the sums share,
    // as in the session forest.
    let mut shared = ContractionEngine::<Add>::default();
    let mut answers = Vec::new();
    for step in 0..6u64 {
        // Grow by a burst of tail appends, then restore light-first.
        for _ in 0..(20 << step) {
            let p = rng.gen_range(0..dl.n());
            dl.insert_leaf(p);
        }
        dl.rebuild();
        let tree = dl.tree();
        let n = tree.n();
        let (layout, parts) = dl.light_first_parts();
        let engine = match pooled.as_mut() {
            None => pooled.insert(LcaStructure::with_parts(layout, parts)),
            Some(e) => {
                e.bind_parts(layout, parts);
                e
            }
        };
        if n as usize > shared.capacity() {
            shared.reserve((n as usize).next_power_of_two());
        }
        shared.bind_structure(parts.parents, parts.slots, parts.csr);
        let mut fresh = LcaEngine::new(layout, &tree);
        assert!(
            engine.resident_bytes() < fresh.resident_bytes(),
            "step {step}: lent parts are not copied"
        );
        let host = HostLca::new(&tree);
        let slots: Vec<Slot> = tree.vertices().map(|v| layout.slot(v)).collect();
        let weights: Vec<Add> = tree.vertices().map(|v| Add(v as u64 % 7 + 1)).collect();
        let expect_sums = treefix_bottom_up_host(&tree, &weights);

        // LCA over the lent parts, then sums on the shared contraction
        // engine, then LCA again: each matches a fresh engine run for
        // run.
        for round in 0..2u64 {
            let queries = random_queries(n, (n / 3) as usize, &mut rng);
            let seed = 100 * step + round;
            let (m_pooled, m_fresh) = (layout.machine(), layout.machine());
            let stats = engine.run_on(
                parts,
                &mut shared,
                &m_pooled,
                &queries,
                &mut answers,
                &mut StdRng::seed_from_u64(seed),
            );
            let want = fresh.run(&m_fresh, &queries, &mut StdRng::seed_from_u64(seed));
            assert_eq!(answers, want.answers, "step {step} round {round}");
            assert_eq!(stats, want.stats, "step {step} round {round}");
            assert_eq!(
                m_pooled.report(),
                m_fresh.report(),
                "step {step} round {round}"
            );
            for (&(a, b), &w) in queries.iter().zip(&answers) {
                assert_eq!(w, host.query(a, b), "step {step}: lca({a}, {b})");
            }

            let (m_shared, m_bound) = (layout.machine(), layout.machine());
            shared.load(&weights, true);
            shared.contract(&m_shared, &mut StdRng::seed_from_u64(seed ^ 0x5u64));
            let shared_sums = shared.uncontract_bottom_up(&m_shared).to_vec();
            let mut bound = ContractionEngine::with_capacity(n as usize);
            bound.bind_parts(tree.parents(), &slots, parts.csr, &weights, true);
            bound.contract(&m_bound, &mut StdRng::seed_from_u64(seed ^ 0x5u64));
            assert_eq!(
                shared_sums,
                bound.uncontract_bottom_up(&m_bound),
                "step {step}"
            );
            assert_eq!(shared_sums, expect_sums, "step {step}: host sums");
            assert_eq!(
                m_shared.report(),
                m_bound.report(),
                "step {step}: sum charges"
            );
        }
    }
    assert!(dl.stats().grows >= 2, "the tree should outgrow its curve");
}
