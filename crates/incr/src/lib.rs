//! Incremental betweenness-centrality maintenance for the serving tier.
//!
//! The offline driver treats every graph as immutable: an edge mutation
//! in `mrbc-serve` drops the whole epoch (full-BC vector plus every
//! per-source forward artifact) and recomputes from scratch, so
//! mutation-to-fresh-epoch latency is Θ(full run) no matter how local
//! the change is. This crate maintains the epoch instead:
//!
//! 1. **Affected-source detection.** For each cached source `s`, a
//!    distance-cone test against the cached `dist_s` array decides
//!    whether the touched edge `(u, v)` can change that source's SSSP
//!    DAG. Adding `(u, v)` affects `s` iff `u` is reachable and
//!    `dist_s(u) + 1 ≤ dist_s(v)` (a shorter path, a new shortest path,
//!    or newly reached `v`); removing it affects `s` iff the edge lay on
//!    the DAG (`dist_s(v) = dist_s(u) + 1` with `u` reachable). Both
//!    tests are *exact*: an unaffected source's distances, path counts,
//!    and dependencies are bitwise unchanged, because the backward fold
//!    filters successors by `dist(w) = dist(u) + 1` and a non-DAG edge
//!    never enters the filtered subsequence.
//! 2. **Canonical rebuild of affected sources only.** Rebuilt artifacts
//!    use the same floating-point contraction and the same ascending
//!    successor fold order as the distributed MRBC kernel, so every
//!    maintained epoch is bit-identical to a fresh full recompute at any
//!    host count and batch size (the PR 3 determinism contract).
//! 3. **Delta adjustment of the full-BC vector.** `BC(v)` is re-folded
//!    from the per-source dependency vectors in ascending source order —
//!    cached vectors for reused sources, fresh ones for rebuilt sources
//!    — reproducing the driver's fold sequence exactly. A literal
//!    subtract-old/add-new would drift in the last ulp; the re-fold is
//!    O(n · sources) flat additions and keeps bit-identity by
//!    construction.
//!
//! One allocation-free kernel, `rebuild_into`, serves both
//! [`IncrEngine::build`] and [`IncrEngine::apply`]: it overwrites a
//! source's existing buffers in place, and `apply` runs it on exactly
//! the sources the cone test marks affected. See DESIGN.md §16.

use mrbc_core::brandes;
use mrbc_graph::{CsrGraph, VertexId, INF_DIST};

/// The two edge mutations the serving tier supports, mirrored here so
/// the engine does not depend on the wire protocol crate (which depends
/// on this one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert a directed edge `(u, v)`.
    Add,
    /// Delete a directed edge `(u, v)`.
    Remove,
}

/// Tuning knobs for the incremental maintenance path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrConfig {
    /// Master switch; `false` restores the drop-and-recompute behaviour.
    pub enabled: bool,
    /// Largest graph the engine will cache artifacts for. The cache is
    /// O(n²) memory (three length-n arrays per source), so the serving
    /// tier only opts in below this bound.
    pub max_vertices: usize,
}

impl Default for IncrConfig {
    fn default() -> Self {
        IncrConfig {
            enabled: true,
            max_vertices: 1024,
        }
    }
}

/// What one [`IncrEngine::apply`] call did, for the serving tier's
/// `sources_reused` / `sources_rebuilt` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrOutcome {
    /// Sources whose cached artifacts survived the epoch bump untouched.
    pub sources_reused: u64,
    /// Sources rebuilt with the canonical kernel this epoch (always
    /// equal to `affected`).
    pub sources_rebuilt: u64,
    /// Sources the cone test marked affected.
    pub affected: u64,
    /// Always `false`: the engine has no full-rebuild fallback. Kept
    /// only so the repository benchmark (`perfbench`), which reads it,
    /// still builds.
    pub fallback_full: bool,
}

/// Per-source SSSP artifacts: BFS distances ([`INF_DIST`] when
/// unreachable), shortest-path counts `σ_s`, and the dependency vector
/// `δ_s` accumulated in canonical successor order.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceArtifacts {
    /// `dist[v]` = BFS distance from the source to `v`.
    pub dist: Vec<u32>,
    /// `sigma[v]` = number of shortest source→`v` paths (exact: integer
    /// valued and far below 2⁵³ for any graph this cache admits).
    pub sigma: Vec<f64>,
    /// `delta[v]` = dependency of the source on `v`.
    pub delta: Vec<f64>,
}

/// Rebuild one source from scratch with the canonical kernel, in place:
/// the queue-free Brandes forward pass ([`brandes::forward_into`]), then
/// the backward fold over the forward pass's own visit order. Every
/// buffer of `art` is overwritten; `order` is caller-owned scratch, so a
/// loop over sources allocates nothing.
fn rebuild_into(g: &CsrGraph, s: VertexId, art: &mut SourceArtifacts, order: &mut Vec<VertexId>) {
    brandes::forward_into(g, s, &mut art.dist, &mut art.sigma, order);
    backward_into(g, &art.dist, &art.sigma, order, &mut art.delta);
}

/// The backward dependency fold, bit-compatible with the distributed
/// MRBC kernel. For each vertex `u` in decreasing BFS-distance order,
/// `δ(u)` starts at 0 and accumulates over the DAG successors `w`
/// (CSR out-neighbours in ascending vertex order, filtered to
/// `dist(w) = dist(u) + 1`):
///
/// ```text
/// m = (1 + δ(w)) / σ(w);   δ(u) += σ(u) · m
/// ```
///
/// This is the exact contraction `bwd_push_host` computes per firing
/// vertex and the exact ascending-pushing-vertex order
/// `fold_pending_flags` folds contributions in, so the result is
/// bitwise equal to the distributed backward phase at any host count
/// and batch size. (The sequential Brandes oracle in `mrbc-core` uses a
/// different association — `σ(u)/σ(w) · (1 + δ(w))` — which is equal in
/// exact arithmetic but not in floats; it must not be used here.)
///
/// A thin wrapper over the kernel `rebuild_into` runs: a counting sort
/// by distance supplies the order the forward pass would have recorded.
pub fn canonical_backward(g: &CsrGraph, dist: &[u32], sigma: &[f64]) -> Vec<f64> {
    let mut start = Vec::new();
    for &d in dist.iter().filter(|&&d| d != INF_DIST) {
        if start.len() <= d as usize + 1 {
            start.resize(d as usize + 2, 0usize);
        }
        start[d as usize + 1] += 1;
    }
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
    let mut order = vec![0; start.last().copied().unwrap_or(0)];
    for (v, &d) in dist.iter().enumerate().filter(|&(_, &d)| d != INF_DIST) {
        order[start[d as usize]] = v as VertexId;
        start[d as usize] += 1;
    }
    let mut delta = vec![0.0; dist.len()];
    backward_into(g, dist, sigma, &order, &mut delta);
    delta
}

/// The backward loop shared by `rebuild_into` and
/// [`canonical_backward`]: walks `order` (reachable vertices in
/// non-decreasing distance) in reverse, so every successor's δ is final
/// before it is read. δ(u) depends only on its successors' values, never
/// on the order of `u`'s level-mates, so any such order gives the same
/// bits. Unreachable vertices get δ = 0.
fn backward_into(g: &CsrGraph, dist: &[u32], sigma: &[f64], order: &[VertexId], delta: &mut [f64]) {
    delta.fill(0.0);
    for &u in order.iter().rev() {
        let next = dist[u as usize] + 1;
        let su = sigma[u as usize];
        let mut acc = 0.0f64;
        for &w in g.out_neighbors(u) {
            if dist[w as usize] == next {
                let m = (1.0 + delta[w as usize]) / sigma[w as usize];
                acc += su * m;
            }
        }
        delta[u as usize] = acc;
    }
}

/// Decide whether a mutation of edge `(u, v)` can change source `s`'s
/// artifacts, judged against the *pre-mutation* distance array. Exact
/// in both directions: `true` iff the rebuilt artifacts can differ.
pub fn source_affected(dist: &[u32], op: EdgeOp, u: VertexId, v: VertexId) -> bool {
    let du = dist[u as usize];
    let dv = dist[v as usize];
    if du == INF_DIST {
        // The new/removed edge hangs off an unreachable vertex: no
        // shortest path from `s` can ever cross it.
        return false;
    }
    match op {
        // A shorter path (du + 1 < dv), an additional shortest path
        // (du + 1 = dv), or a newly reachable head (dv = INF). The
        // condition `du + 1 <= dv` is written `du < dv` (same thing;
        // `du` is finite here).
        EdgeOp::Add => dv == INF_DIST || du < dv,
        // Only edges on the SSSP DAG carry shortest paths.
        EdgeOp::Remove => dv != INF_DIST && dv == du + 1,
    }
}

/// The epoch maintenance engine: cached per-source artifacts plus the
/// folded full-BC vector, kept bit-identical to a fresh full recompute
/// across any sequence of [`apply`](IncrEngine::apply) calls.
#[derive(Debug, Clone)]
pub struct IncrEngine {
    per_source: Vec<SourceArtifacts>,
    bc: Vec<f64>,
}

impl IncrEngine {
    /// Build the engine from scratch: every source through the
    /// canonical kernel, then the ascending-source BC fold.
    pub fn build(g: &CsrGraph) -> IncrEngine {
        let n = g.num_vertices();
        let mut order = Vec::with_capacity(n);
        let blank = SourceArtifacts {
            dist: vec![INF_DIST; n],
            sigma: vec![0.0; n],
            delta: vec![0.0; n],
        };
        let per_source = (0..n as VertexId)
            .map(|s| {
                let mut art = blank.clone();
                rebuild_into(g, s, &mut art, &mut order);
                art
            })
            .collect();
        let mut engine = IncrEngine {
            per_source,
            bc: vec![0.0; n],
        };
        engine.refold_bc();
        engine
    }

    /// Number of vertices the cache covers.
    pub fn num_vertices(&self) -> usize {
        self.per_source.len()
    }

    /// The maintained full-BC vector, bit-identical to the offline
    /// driver's result on the current graph.
    pub fn bc(&self) -> &[f64] {
        &self.bc
    }

    /// Cached artifacts for one source.
    pub fn source(&self, s: VertexId) -> &SourceArtifacts {
        &self.per_source[s as usize]
    }

    /// Maintain the epoch across one edge mutation. `g` is the
    /// *post-mutation* graph; each source's cone test runs against its
    /// cached pre-mutation distances, exactly the affected sources are
    /// rebuilt in place on `g`, and the BC vector is re-folded. No
    /// configuration field changes what `apply` does; the parameter is
    /// kept for callers' source compatibility.
    pub fn apply(
        &mut self,
        g: &CsrGraph,
        op: EdgeOp,
        u: VertexId,
        v: VertexId,
        _cfg: &IncrConfig,
    ) -> IncrOutcome {
        let n = self.per_source.len();
        assert_eq!(g.num_vertices(), n, "mutations never change the vertex set");
        let mut order = Vec::with_capacity(n);
        let mut rebuilt = 0u64;
        for (s, art) in self.per_source.iter_mut().enumerate() {
            if source_affected(&art.dist, op, u, v) {
                rebuild_into(g, s as VertexId, art, &mut order);
                rebuilt += 1;
            }
        }
        self.refold_bc();
        IncrOutcome {
            sources_reused: n as u64 - rebuilt,
            sources_rebuilt: rebuilt,
            affected: rebuilt,
            fallback_full: false,
        }
    }

    /// Re-fold `BC(v) = Σ_{s ≠ v} δ_s(v)` in ascending source order —
    /// the exact per-element addition sequence of the driver's full-BC
    /// fold (sources ascending, self term skipped). Row-major: each δ
    /// row is added into `bc` in turn, which gives every `v` the same
    /// addition sequence as a per-`v` column walk while reading memory
    /// sequentially.
    fn refold_bc(&mut self) {
        self.bc.fill(0.0);
        for (s, art) in self.per_source.iter().enumerate() {
            let (bc_lo, bc_hi) = self.bc.split_at_mut(s);
            let (d_lo, d_hi) = art.delta.split_at(s);
            for (b, d) in bc_lo.iter_mut().zip(d_lo) {
                *b += d;
            }
            for (b, d) in bc_hi.iter_mut().zip(d_hi).skip(1) {
                *b += d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_core::{bc as driver_bc, Algorithm, BcConfig};
    use mrbc_graph::generators::{self, RmatConfig, RoadNetworkConfig};
    use mrbc_graph::GraphBuilder;
    use proptest::prelude::*;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn all_sources(n: usize) -> Vec<VertexId> {
        (0..n as VertexId).collect()
    }

    /// Apply one edge mutation to a CSR graph the way `EpochStore` does.
    fn mutate_graph(g: &CsrGraph, op: EdgeOp, u: VertexId, v: VertexId) -> CsrGraph {
        let n = g.num_vertices();
        match op {
            EdgeOp::Add => GraphBuilder::new(n).edges(g.edges()).edge(u, v).build(),
            EdgeOp::Remove => GraphBuilder::new(n)
                .edges(g.edges().filter(|&(a, b)| (a, b) != (u, v)))
                .build(),
        }
    }

    /// Deterministic mutation stream over vertex ids, alternating
    /// add/remove; skips self loops and inapplicable ops.
    fn probe_mutation(g: &CsrGraph, i: usize) -> Option<(EdgeOp, VertexId, VertexId)> {
        let n = g.num_vertices() as u64;
        let b = mrbc_util::splitmix64(i as u64 ^ 0x51ab_01c2);
        let u = (b % n) as VertexId;
        let v = ((b >> 32) % n) as VertexId;
        if u == v {
            return None;
        }
        let op = if g.has_edge(u, v) {
            EdgeOp::Remove
        } else {
            EdgeOp::Add
        };
        Some((op, u, v))
    }

    /// The keystone: the engine's BC vector is bit-identical to the
    /// distributed MRBC driver at several host counts and batch sizes.
    #[test]
    fn engine_bc_bit_matches_mrbc_driver_across_configs() {
        for g in [
            generators::rmat(RmatConfig::new(5, 8), 11),
            generators::grid_road_network(RoadNetworkConfig::new(4, 6), 3),
        ] {
            let engine = IncrEngine::build(&g);
            let sources = all_sources(g.num_vertices());
            for hosts in [1, 2, 4] {
                for batch in [1, 4, 32] {
                    let cfg = BcConfig {
                        algorithm: Algorithm::Mrbc,
                        num_hosts: hosts,
                        batch_size: batch,
                        ..BcConfig::default()
                    };
                    let full = driver_bc(&g, &sources, &cfg);
                    assert_eq!(
                        bits(engine.bc()),
                        bits(&full.bc),
                        "hosts={hosts} batch={batch}"
                    );
                }
            }
        }
    }

    /// Forward artifacts agree with the Brandes oracle the serving tier
    /// already exposes for point queries.
    #[test]
    fn forward_artifacts_match_brandes_oracle() {
        let g = generators::rmat(RmatConfig::new(5, 8), 7);
        let engine = IncrEngine::build(&g);
        for s in 0..g.num_vertices() as VertexId {
            let (dist, sigma) = brandes::forward_counts(&g, s);
            assert_eq!(engine.source(s).dist, dist);
            assert_eq!(bits(&engine.source(s).sigma), bits(&sigma));
        }
    }

    /// After every mutation in a seeded stream, `apply` must reproduce a
    /// from-scratch rebuild bit for bit — BC vector and all artifacts.
    #[test]
    fn apply_bit_matches_rebuild_across_mutation_streams() {
        for (mut g, label) in [
            (generators::rmat(RmatConfig::new(5, 8), 19), "rmat"),
            (
                generators::grid_road_network(RoadNetworkConfig::new(3, 5), 5),
                "road",
            ),
        ] {
            let cfg = IncrConfig::default();
            let mut engine = IncrEngine::build(&g);
            let mut applied = 0;
            for i in 0.. {
                if applied == 24 {
                    break;
                }
                let Some((op, u, v)) = probe_mutation(&g, i) else {
                    continue;
                };
                applied += 1;
                g = mutate_graph(&g, op, u, v);
                let out = engine.apply(&g, op, u, v, &cfg);
                assert_eq!(
                    out.sources_reused + out.sources_rebuilt,
                    g.num_vertices() as u64,
                    "{label}: counters partition the source set"
                );
                let fresh = IncrEngine::build(&g);
                assert_eq!(bits(engine.bc()), bits(fresh.bc()), "{label} step {i}");
                for s in 0..g.num_vertices() as VertexId {
                    assert_eq!(engine.source(s).dist, fresh.source(s).dist);
                    assert_eq!(bits(&engine.source(s).sigma), bits(&fresh.source(s).sigma));
                    assert_eq!(bits(&engine.source(s).delta), bits(&fresh.source(s).delta));
                }
            }
        }
    }

    /// One source's artifacts as raw bits.
    fn art_bits(a: &SourceArtifacts) -> Vec<u64> {
        let dist = a.dist.iter().map(|&d| u64::from(d));
        dist.chain(bits(&a.sigma)).chain(bits(&a.delta)).collect()
    }

    /// The BC vector and every source's artifacts, as raw bits.
    fn engine_bits(e: &IncrEngine) -> Vec<Vec<u64>> {
        let arts = (0..e.num_vertices() as VertexId).map(|s| art_bits(e.source(s)));
        std::iter::once(bits(e.bc())).chain(arts).collect()
    }

    /// Flips edge `(u, v)` of `g` (removes it if present, else adds it)
    /// on a copy of `engine` and checks the result against a fresh build:
    /// the same bits, exactly the affected sources rebuilt, and every
    /// source the cone test spares bitwise frozen. Returns the engine,
    /// graph and outcome after the flip.
    fn checked_flip(
        engine: &IncrEngine,
        g: &CsrGraph,
        (u, v): (VertexId, VertexId),
        label: &str,
    ) -> (IncrEngine, CsrGraph, IncrOutcome) {
        let op = if g.has_edge(u, v) {
            EdgeOp::Remove
        } else {
            EdgeOp::Add
        };
        let g2 = mutate_graph(g, op, u, v);
        let mut next = engine.clone();
        let out = next.apply(&g2, op, u, v, &IncrConfig::default());
        let fresh = IncrEngine::build(&g2);
        assert!(
            engine_bits(&next) == engine_bits(&fresh),
            "{label}: differs from a build"
        );
        let mut spared = 0;
        for s in 0..g.num_vertices() as VertexId {
            if !source_affected(&engine.source(s).dist, op, u, v) {
                let (was, now) = (art_bits(engine.source(s)), art_bits(fresh.source(s)));
                assert!(was == now, "{label}: spared source {s} changed");
                spared += 1;
            }
        }
        let counts = (out.sources_reused, out.sources_rebuilt, out.fallback_full);
        assert_eq!(counts, (spared, out.affected, false), "{label}");
        (next, g2, out)
    }

    /// Exhaustive cone-test soundness and bit-identity: every digraph on
    /// 3 or 4 vertices under every single-edge flip (64 × 6 and
    /// 4096 × 12), and every 3-vertex digraph under every ordered pair of
    /// flips (64 × 6 × 6). Each step must match a fresh build bit for
    /// bit, and every source the cone test spares must be bitwise frozen.
    /// Runs in about 0.3 s in the debug test profile.
    #[test]
    fn exhaustive_small_digraphs_every_mutation() {
        for n in [3usize, 4] {
            let pairs: Vec<(VertexId, VertexId)> = (0..n as VertexId)
                .flat_map(|u| (0..n as VertexId).map(move |v| (u, v)))
                .filter(|&(u, v)| u != v)
                .collect();
            for mask in 0..1u32 << pairs.len() {
                let edges = pairs
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| mask & (1 << i) != 0);
                let g = GraphBuilder::new(n).edges(edges.map(|(_, &p)| p)).build();
                let base = IncrEngine::build(&g);
                for &first in &pairs {
                    let label = format!("n={n} mask={mask:#b} flip {first:?}");
                    let (mid, g1, _) = checked_flip(&base, &g, first, &label);
                    for &second in pairs.iter().filter(|_| n == 3) {
                        checked_flip(&mid, &g1, second, &format!("{label} then {second:?}"));
                    }
                }
            }
        }
    }

    /// With the full-rebuild fallback gone, a flip that affects more than
    /// half the sources still rebuilds exactly the affected ones and
    /// lands on the bits of a fresh build. A road grid (large diameter,
    /// wide cones) supplies such flips.
    #[test]
    fn wide_cone_flips_rebuild_exactly_the_affected_sources() {
        let mut g = generators::grid_road_network(RoadNetworkConfig::new(4, 8), 5);
        let mut engine = IncrEngine::build(&g);
        let mut wide = 0;
        for i in 0..48 {
            if let Some((_, u, v)) = probe_mutation(&g, i) {
                let out;
                (engine, g, out) = checked_flip(&engine, &g, (u, v), &format!("step {i}"));
                wide += usize::from(2 * out.affected > g.num_vertices() as u64);
            }
        }
        assert!(wide > 0, "no flip affected more than half the sources");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// A mid-size mutation stream stays bit-identical to a fresh
        /// build: 48 flips on R-MAT scale 8 (n = 256) and on a 12 × 24
        /// road grid (n = 288), alternating the removal of a random
        /// existing edge with the insertion of a random absent one,
        /// compared on BC and all three artifacts every 8 steps.
        #[test]
        fn prop_mutation_stream_matches_fresh_build(seed in 0u64..1 << 32) {
            for mut g in [
                generators::rmat(RmatConfig::new(8, 8), seed),
                generators::grid_road_network(RoadNetworkConfig::new(12, 24), seed),
            ] {
                let (n, mut draw) = (g.num_vertices() as u64, seed);
                let mut engine = IncrEngine::build(&g);
                for step in 1..=48 {
                    let remove = step % 2 == 1;
                    let (u, v) = loop {
                        draw = mrbc_util::splitmix64(draw);
                        let (u, v) = ((draw % n) as VertexId, ((draw >> 32) % n) as VertexId);
                        let pick = match remove {
                            true => g.edges().nth((draw % g.num_edges() as u64) as usize),
                            false => Some((u, v)).filter(|_| u != v && !g.has_edge(u, v)),
                        };
                        if let Some(edge) = pick {
                            break edge;
                        }
                    };
                    let op = if remove { EdgeOp::Remove } else { EdgeOp::Add };
                    g = mutate_graph(&g, op, u, v);
                    engine.apply(&g, op, u, v, &IncrConfig::default());
                    if step % 8 == 0 {
                        let fresh = IncrEngine::build(&g);
                        prop_assert!(engine_bits(&engine) == engine_bits(&fresh), "step {}", step);
                    }
                }
            }
        }
    }

    /// Mutations touching a vertex unreachable from `s` leave `s`
    /// unaffected, including the `dist[u] = INF` guard.
    #[test]
    fn unreachable_endpoints_never_affect_a_source() {
        // 0 → 1, 2 isolated: from source 0, edge (2, 1) hangs off an
        // unreachable tail.
        let g = GraphBuilder::new(3).edge(0, 1).build();
        let engine = IncrEngine::build(&g);
        assert!(!source_affected(&engine.source(0).dist, EdgeOp::Add, 2, 1));
        // From source 2 the same edge is the whole frontier.
        assert!(source_affected(&engine.source(2).dist, EdgeOp::Add, 2, 1));
    }
}
