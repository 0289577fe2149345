//! The serving kernel against its oracles. Every BC answer of
//! `EpochStore` comes from the canonical per-source kernel of
//! `mrbc-incr`; the simulated driver is not on the serving path. These
//! tests pin the store's answers bit for bit to:
//!
//! * the MRBC driver, for `subset_bc` at hosts {1, 2, 4} × batch
//!   {1, 4, 32}, with the engine warm (a fold of its cached δ rows) and
//!   cold (each source streamed through the kernel), on R-MAT and road
//!   graphs, over six-source subsets with duplicates and the empty set;
//! * `IncrEngine::build`, for `full_bc` above the engine bound (the
//!   engine itself is proven equal to the driver in `mrbc-incr`);
//! * `brandes::forward_counts`, for `forward` above the engine bound,
//!   while the forward cache stays within its byte budget.

use mrbc_core::{bc, brandes, Algorithm, BcConfig};
use mrbc_graph::generators::{self, RmatConfig, RoadNetworkConfig};
use mrbc_graph::{CsrGraph, VertexId};
use mrbc_incr::IncrEngine;
use mrbc_serve::store::{ENGINE_MAX_VERTICES, FORWARD_CACHE_BYTES};
use mrbc_serve::{EpochStore, MutateOp};

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The empty set, one six-source list with duplicates, and five seeded
/// six-source draws (which may repeat a source too).
fn subsets(n: usize, seed: u64) -> Vec<Vec<VertexId>> {
    let n = n as u64;
    let mut draw = seed;
    let mut next = || {
        draw = mrbc_util::splitmix64(draw);
        (draw % n) as VertexId
    };
    let (a, b, c) = (next(), next(), next());
    let mut out = vec![Vec::new(), vec![a, b, a, c, b, a]];
    out.extend((0..5).map(|_| (0..6).map(|_| next()).collect()));
    out
}

#[test]
fn subset_bc_matches_the_driver_warm_and_cold_at_every_config() {
    for g in [
        generators::rmat(RmatConfig::new(6, 8), 3),
        generators::grid_road_network(RoadNetworkConfig::new(6, 8), 4),
    ] {
        let cold = EpochStore::new(g.clone(), BcConfig::default());
        let warm = EpochStore::new(g.clone(), BcConfig::default());
        let _ = warm.full_bc();
        for sources in subsets(g.num_vertices(), 17) {
            let mut canon = sources.clone();
            canon.sort_unstable();
            canon.dedup();
            let (from_cold, from_warm) = (cold.subset_bc(&sources), warm.subset_bc(&sources));
            for num_hosts in [1, 2, 4] {
                for batch_size in [1, 4, 32] {
                    let cfg = BcConfig {
                        algorithm: Algorithm::Mrbc,
                        num_hosts,
                        batch_size,
                        ..BcConfig::default()
                    };
                    let want = bits(&bc(&g, &canon, &cfg).bc);
                    let at = format!("{sources:?} hosts={num_hosts} batch={batch_size}");
                    assert_eq!(bits(&from_cold), want, "cold {at}");
                    assert_eq!(bits(&from_warm), want, "warm {at}");
                }
            }
        }
        let m = cold.mutate(MutateOp::AddEdge, 0, 1);
        assert!(
            !m.applied || m.maintenance.is_none(),
            "subset_bc must not build the engine"
        );
    }
}

/// A road grid just above the engine bound.
fn above_bound_grid() -> CsrGraph {
    let g = generators::grid_road_network(RoadNetworkConfig::new(36, 36), 9);
    assert!(g.num_vertices() > ENGINE_MAX_VERTICES);
    g
}

#[test]
fn above_bound_full_bc_streams_the_kernel_bit_for_bit() {
    let g = above_bound_grid();
    let store = EpochStore::new(g.clone(), BcConfig::default());
    assert_eq!(bits(&store.full_bc()), bits(IncrEngine::build(&g).bc()));
    let m = store.mutate(MutateOp::RemoveEdge, 0, 1);
    assert!(
        m.applied && m.maintenance.is_none(),
        "no engine above the bound"
    );
}

#[test]
fn above_bound_forward_cache_stays_within_its_budget() {
    let g = above_bound_grid();
    let n = g.num_vertices();
    assert!(
        n * n * 12 > FORWARD_CACHE_BYTES,
        "the scan must overflow the budget"
    );
    let store = EpochStore::new(g.clone(), BcConfig::default());
    let _ = store.full_bc();
    for s in 0..n as VertexId {
        let fw = store.forward(s);
        let (dist, sigma) = brandes::forward_counts(&g, s);
        assert_eq!(fw.dist, dist, "dist from source {s}");
        assert_eq!(bits(&fw.sigma), bits(&sigma), "sigma from source {s}");
        let held = store.forward_cache_bytes();
        assert!(
            held <= FORWARD_CACHE_BYTES,
            "{held} B cached after source {s}"
        );
    }
    assert!(store.forward_cache_bytes() > 0);
    let last = n as VertexId - 1;
    assert!(std::sync::Arc::ptr_eq(
        &store.forward(last),
        &store.forward(last)
    ));
}
