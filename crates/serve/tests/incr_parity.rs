//! Property tests for the incremental maintenance path: an
//! `EpochStore` whose `mrbc-incr` engine has been maintained across
//! mutations must be *observationally indistinguishable* — bit for bit,
//! f64-as-bits — from a fresh store loaded with the current graph.
//!
//! Three graph families probe the claim from different angles:
//!
//! * random add/remove sequences on a seeded power-law (R-MAT) graph —
//!   the serving tier's target workload, shallow cones, heavy reuse;
//! * the same sequences on a road-network grid — large diameter, wide
//!   cones, often more than half the sources rebuilt per flip;
//! * exhaustive enumeration: every digraph on 3 vertices under every
//!   applicable single-edge mutation, plus every ordered pair on an
//!   8-vertex graph — the shapes where off-by-one cone tests and DAG
//!   edge-cases actually live.
//!
//! After every epoch bump the full BC vector AND the per-source forward
//! artifacts (distances, path counts) are compared against a fresh
//! store on the current graph. That store answers `forward` before its
//! engine exists, i.e. from a plain Brandes forward pass. Equality is
//! on bits, not on `==`: the maintained path must replay the exact
//! canonical fold, not merely land close.

use mrbc_core::BcConfig;
use mrbc_graph::{generators, CsrGraph, GraphBuilder, VertexId};
use mrbc_serve::{EpochStore, MutateOp};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn store(g: &CsrGraph) -> EpochStore {
    EpochStore::new(g.clone(), BcConfig::default())
}

/// Asserts every serving-visible artifact of `incr` matches a fresh
/// store loaded with its current graph: for each vertex the forward
/// distance and sigma arrays a `Forward` query would return, then the
/// full BC vector.
fn assert_observationally_equal(incr: &EpochStore, ctx: &str) {
    let fresh = store(&incr.graph());
    let (n, _) = incr.graph_info();
    for s in 0..n as VertexId {
        let fa = incr.forward(s);
        let fb = fresh.forward(s);
        assert_eq!(fa.dist, fb.dist, "{ctx}: dist diverged at source {s}");
        assert_eq!(
            bits(&fa.sigma),
            bits(&fb.sigma),
            "{ctx}: sigma diverged at source {s}"
        );
    }
    let a = incr.full_bc();
    let b = fresh.full_bc();
    assert_eq!(bits(&a), bits(&b), "{ctx}: bc diverged");
}

/// Deterministic add/remove stream; op chosen by current edge presence
/// so every probe is applicable.
fn probe(g: &CsrGraph, i: u64, seed: u64) -> Option<(MutateOp, VertexId, VertexId)> {
    let n = g.num_vertices() as u64;
    let b = mrbc_util::splitmix64(i ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let u = (b % n) as VertexId;
    let v = ((b >> 32) % n) as VertexId;
    if u == v {
        return None;
    }
    let op = if g.has_edge(u, v) {
        MutateOp::RemoveEdge
    } else {
        MutateOp::AddEdge
    };
    Some((op, u, v))
}

/// Drives `steps` applied mutations through a store, checking full
/// observational parity with a fresh store after every epoch bump.
fn run_sequence(g: &CsrGraph, steps: usize, seed: u64) {
    let incr = store(g);
    // Warm the maintained store so the engine is resident.
    assert_observationally_equal(&incr, "warmup");
    let mut applied = 0usize;
    let mut i = 0u64;
    while applied < steps {
        let Some((op, u, v)) = probe(&incr.graph(), i, seed) else {
            i += 1;
            continue;
        };
        i += 1;
        let oa = incr.mutate(op, u, v);
        assert!(
            oa.applied,
            "probe {op:?} {u}->{v} not applicable at step {i}"
        );
        applied += 1;
        assert_eq!(incr.epoch(), 1 + applied as u64, "epoch at step {i}");
        assert_observationally_equal(&incr, &format!("seed {seed} step {i}"));
    }
    // The maintained store must actually have maintained something —
    // otherwise this test silently degraded into recompute-vs-recompute.
    let warm = incr.mutate(MutateOp::AddEdge, 0, (g.num_vertices() as VertexId) - 1);
    assert!(
        !warm.applied || warm.maintenance.is_some(),
        "engine was not resident after the sequence"
    );
}

#[test]
fn powerlaw_random_mutation_sequences_preserve_bit_parity() {
    let g = generators::rmat(generators::RmatConfig::new(5, 8), 11);
    for seed in [1u64, 7, 23] {
        run_sequence(&g, 12, seed);
    }
}

#[test]
fn road_random_mutation_sequences_preserve_bit_parity() {
    let g = generators::grid_road_network(generators::RoadNetworkConfig::new(4, 6), 3);
    for seed in [2u64, 9] {
        run_sequence(&g, 12, seed);
    }
}

/// Every digraph on 3 vertices, every applicable single-edge mutation:
/// the store-level analogue of the engine's own exhaustive test, here
/// exercising the full mutate/publish/forward pipeline.
#[test]
fn exhaustive_three_vertex_digraphs_every_mutation() {
    let n = 3usize;
    let pairs: Vec<(VertexId, VertexId)> = (0..n as VertexId)
        .flat_map(|u| (0..n as VertexId).map(move |v| (u, v)))
        .filter(|&(u, v)| u != v)
        .collect();
    for mask in 0..(1u32 << pairs.len()) {
        let g = GraphBuilder::new(n)
            .edges(
                pairs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &p)| p),
            )
            .build();
        for &(u, v) in &pairs {
            let op = if g.has_edge(u, v) {
                MutateOp::RemoveEdge
            } else {
                MutateOp::AddEdge
            };
            let incr = store(&g);
            assert_observationally_equal(&incr, "pre");
            let oa = incr.mutate(op, u, v);
            assert!(oa.applied);
            assert!(
                oa.maintenance.is_some(),
                "warm store must maintain (mask={mask:#b} {u}->{v})"
            );
            assert_observationally_equal(&incr, &format!("mask={mask:#b} {op:?} {u}->{v}"));
        }
    }
}

/// An 8-vertex graph under every ordered-pair mutation — diameters and
/// multi-path counts that 3 vertices cannot express.
#[test]
fn eight_vertex_graph_every_ordered_pair_mutation() {
    let n = 8usize;
    // Cycle plus chords: multiple shortest paths, nontrivial levels.
    let g = GraphBuilder::new(n)
        .edges((0..n as VertexId).map(|u| (u, (u + 1) % n as VertexId)))
        .edge(0, 4)
        .edge(2, 6)
        .edge(5, 1)
        .build();
    for u in 0..n as VertexId {
        for v in 0..n as VertexId {
            if u == v {
                continue;
            }
            let op = if g.has_edge(u, v) {
                MutateOp::RemoveEdge
            } else {
                MutateOp::AddEdge
            };
            let incr = store(&g);
            assert_observationally_equal(&incr, "pre");
            let oa = incr.mutate(op, u, v);
            assert!(oa.applied);
            assert_observationally_equal(&incr, &format!("{op:?} {u}->{v}"));
        }
    }
}
