//! Asynchronous-Brandes BC (ABBC) — the shared-memory baseline.
//!
//! The Lonestar suite's ABBC (Prountzos & Pingali, PPoPP'13) is an
//! asynchronous, worklist-driven BC implementation on shared-memory
//! Galois: no bulk-synchronous rounds at all, which is why it
//! "substantially outperforms" the BSP algorithms on high-diameter graphs
//! like road networks (Table 2) while losing on power-law graphs due to
//! contention, and why it cannot run distributed ("acquiring locks in a
//! distributed setting is costly").
//!
//! This reproduction keeps the asynchronous heart — a chunked
//! work-stealing SSSP over atomic distance labels, with no barriers — and
//! then computes σ and δ in deterministic level-parallel sweeps from the
//! converged distances (the Lonestar operator fuses these steps
//! speculatively; the fused version has the same work profile but
//! unreproducible intermediate states). Work units are counted so the
//! benchmark harness can model execution time on the same [`CostModel`]
//! as the BSP algorithms: ABBC pays per-task worklist overhead but zero
//! barrier cost. The SSSP's work and task counts are charged from the
//! converged distances (each reached vertex relaxes its out-edges once,
//! each level is cut into chunks), not tallied as the threads race: a
//! racing tally depends on the interleaving and the core count, and the
//! counts must be as reproducible as the scores.
//!
//! [`CostModel`]: mrbc_dgalois::CostModel

use crossbeam::deque::{Injector, Steal};
use mrbc_dgalois::CostModel;
use mrbc_graph::{CsrGraph, VertexId, INF_DIST};
use mrbc_util::sync::{ActivityCounter, AtomicMin};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Result of an ABBC run.
#[derive(Clone, Debug)]
pub struct AbbcOutcome {
    /// Betweenness scores restricted to the requested sources.
    pub bc: Vec<f64>,
    /// Total relaxation / accumulation work units across all sources.
    pub work_units: u64,
    /// Total worklist tasks (chunks), one per `chunk_size` vertices of
    /// each distance level — each pays scheduling overhead in the
    /// analytic model.
    pub tasks: u64,
}

impl AbbcOutcome {
    /// Analytic execution-time model on the shared [`CostModel`]:
    /// perfectly overlapped asynchronous compute (no barriers, no
    /// network), divided over `threads`, plus per-task scheduling cost.
    /// Each work unit is an *atomic* relaxation, costed at
    /// [`ATOMIC_COST_FACTOR`]x a plain label update — the cache-line
    /// contention that makes ABBC "slower than the others due to
    /// contention" on power-law graphs (Section 5.3) while it still wins
    /// outright on road networks (no barriers at all).
    pub fn modeled_time(&self, cost: &CostModel, threads: usize) -> f64 {
        let task_overhead = 1e-7; // pop/steal + push amortized
        (self.work_units as f64 * cost.compute_sec_per_unit * ATOMIC_COST_FACTOR
            + self.tasks as f64 * task_overhead)
            / threads.max(1) as f64
    }
}

/// Cost multiplier of an atomic relaxation relative to a plain label
/// update in the analytic time model.
pub const ATOMIC_COST_FACTOR: f64 = 1.5;

/// Chunk size for the worklist; the paper tunes this per input (64 for
/// the road network, 8 for the rest).
pub const DEFAULT_CHUNK_SIZE: usize = 8;

/// Runs ABBC for the given sources.
pub fn abbc_bc(g: &CsrGraph, sources: &[VertexId], chunk_size: usize) -> AbbcOutcome {
    assert!(chunk_size >= 1, "chunk size must be at least 1");
    let n = g.num_vertices();
    let rev = g.reverse();
    // Timing goes through the observability facade (never a direct
    // Instant::now in algorithm code): the span measures the run when a
    // recorder is installed and costs nothing otherwise. Analytic
    // comparisons use `modeled_time`, which stays machine-independent.
    let run_span = mrbc_obs::span("abbc.run", mrbc_obs::Phase::Forward.as_str())
        .arg("n", n as u64)
        .arg("k", sources.len() as u64)
        .arg("chunk", chunk_size as u64);
    let work = AtomicU64::new(0);
    let tasks = AtomicU64::new(0);
    let mut bc = vec![0.0f64; n];

    let dist: Vec<AtomicMin> = (0..n).map(|_| AtomicMin::new(INF_DIST)).collect();
    for &s in sources {
        assert!((s as usize) < n, "source out of range");
        for d in &dist {
            d.set(INF_DIST);
        }
        dist[s as usize].set(0);

        // ---- Asynchronous SSSP: chunked work-stealing relaxation. ----
        async_sssp(g, s, &dist, chunk_size);

        // ---- Level-ordered σ and δ sweeps over the settled distances.
        let dists: Vec<u32> = dist.iter().map(|d| d.get()).collect();
        let max_d = dists
            .iter()
            .filter(|&&d| d != INF_DIST)
            .max()
            .copied()
            .unwrap_or(0);
        let mut levels: Vec<Vec<u32>> = vec![Vec::new(); max_d as usize + 1];
        for v in 0..n as u32 {
            if dists[v as usize] != INF_DIST {
                levels[dists[v as usize] as usize].push(v);
            }
        }
        for level in &levels {
            let relaxations: usize = level.iter().map(|&v| g.out_degree(v)).sum();
            work.fetch_add(relaxations as u64, Ordering::Relaxed);
            tasks.fetch_add(level.len().div_ceil(chunk_size) as u64, Ordering::Relaxed);
        }

        let mut sigma = vec![0.0f64; n];
        sigma[s as usize] = 1.0;
        for level in levels.iter().take(max_d as usize + 1).skip(1) {
            let sig_next: Vec<(u32, f64)> = level
                .par_iter()
                .map(|&v| {
                    let mut acc = 0.0;
                    for &u in rev.out_neighbors(v) {
                        if dists[u as usize].checked_add(1) == Some(dists[v as usize]) {
                            acc += sigma[u as usize];
                        }
                    }
                    work.fetch_add(rev.out_degree(v) as u64, Ordering::Relaxed);
                    (v, acc)
                })
                .collect();
            for (v, sig) in sig_next {
                sigma[v as usize] = sig;
            }
        }

        let mut delta = vec![0.0f64; n];
        for lvl in (0..max_d as usize).rev() {
            let d_next: Vec<(u32, f64)> = levels[lvl]
                .par_iter()
                .map(|&v| {
                    let mut acc = 0.0;
                    for &w in g.out_neighbors(v) {
                        if dists[w as usize] == dists[v as usize] + 1 {
                            acc +=
                                sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
                        }
                    }
                    work.fetch_add(g.out_degree(v) as u64, Ordering::Relaxed);
                    (v, acc)
                })
                .collect();
            for (v, d) in d_next {
                delta[v as usize] = d;
            }
        }
        for v in 0..n {
            if v != s as usize {
                bc[v] += delta[v];
            }
        }
    }

    drop(run_span);
    AbbcOutcome {
        bc,
        work_units: work.load(Ordering::Relaxed),
        tasks: tasks.load(Ordering::Relaxed),
    }
}

/// Chunked asynchronous SSSP: workers steal chunks of active vertices and
/// relax their out-edges with atomic min-updates until global quiescence.
fn async_sssp(g: &CsrGraph, source: VertexId, dist: &[AtomicMin], chunk_size: usize) {
    let injector: Injector<Vec<u32>> = Injector::new();
    injector.push(vec![source]);
    // Queued-vertex count for coarse quiescence; the add-before-publish /
    // settle-after-processing discipline is model-checked under loom in
    // crates/util/tests/loom_sync.rs.
    let active = ActivityCounter::new(1);

    let threads = rayon::current_num_threads().max(1);
    rayon::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| {
                let mut backoff = 0u32;
                loop {
                    match injector.steal() {
                        Steal::Success(chunk) => {
                            backoff = 0;
                            let mut next: Vec<u32> = Vec::with_capacity(chunk_size);
                            for v in &chunk {
                                let dv = dist[*v as usize].get();
                                for &u in g.out_neighbors(*v) {
                                    // Atomic min; the winner re-enqueues.
                                    if dist[u as usize].relax(dv.saturating_add(1)) {
                                        active.add(1);
                                        next.push(u);
                                        if next.len() >= chunk_size {
                                            injector.push(std::mem::replace(
                                                &mut next,
                                                Vec::with_capacity(chunk_size),
                                            ));
                                        }
                                    }
                                }
                            }
                            if !next.is_empty() {
                                injector.push(next);
                            }
                            active.settle(chunk.len() as u64);
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if active.is_quiescent() && injector.is_empty() {
                                break;
                            }
                            backoff = (backoff + 1).min(6);
                            for _ in 0..(1 << backoff) {
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes;
    use mrbc_graph::generators;

    fn assert_bc_close(got: &[f64], want: &[f64]) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() < 1e-9 * w.abs().max(1.0),
                "BC[{i}]: got {g}, want {w}"
            );
        }
    }

    #[test]
    fn matches_brandes_on_shapes() {
        for g in [
            generators::path(20),
            generators::cycle(15),
            generators::star(12),
            generators::rmat(generators::RmatConfig::new(6, 5), 3),
        ] {
            let sources: Vec<u32> = (0..10.min(g.num_vertices() as u32)).collect();
            let out = abbc_bc(&g, &sources, DEFAULT_CHUNK_SIZE);
            assert_bc_close(&out.bc, &brandes::bc_sources(&g, &sources));
        }
    }

    #[test]
    fn matches_brandes_on_random_graphs_repeatedly() {
        // Run several times: async scheduling must not affect results.
        let g = generators::erdos_renyi(120, 0.05, 8);
        let sources: Vec<u32> = (0..12).collect();
        let want = brandes::bc_sources(&g, &sources);
        for _ in 0..3 {
            let out = abbc_bc(&g, &sources, 4);
            assert_bc_close(&out.bc, &want);
        }
    }

    #[test]
    fn chunk_size_does_not_change_results() {
        let g = generators::grid_road_network(generators::RoadNetworkConfig::new(3, 20), 4);
        let sources: Vec<u32> = (0..6).collect();
        let a = abbc_bc(&g, &sources, 1);
        let b = abbc_bc(&g, &sources, 64);
        assert_bc_close(&a.bc, &b.bc);
    }

    #[test]
    fn work_is_counted_and_model_is_finite() {
        let g = generators::cycle(30);
        let out = abbc_bc(&g, &[0, 5], 8);
        assert!(out.work_units > 0);
        assert!(out.tasks > 0);
        let t = out.modeled_time(&CostModel::default(), 48);
        assert!(t > 0.0 && t.is_finite());
    }

    #[test]
    fn empty_sources() {
        let g = generators::path(5);
        let out = abbc_bc(&g, &[], 8);
        assert!(out.bc.iter().all(|&b| b == 0.0));
        assert_eq!(out.work_units, 0);
    }
}
