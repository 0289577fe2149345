//! Epoch-versioned result store.
//!
//! The daemon loads one [`CsrGraph`] and serves many queries against it;
//! this store owns the graph plus every cached artifact derived from it,
//! all versioned by a monotonically increasing **epoch** (starting at 1).
//! A mutation rebuilds the CSR and bumps the epoch — readers that pinned
//! the old epoch observe a structured `Stale` refusal instead of a torn
//! mix of old and new answers.
//!
//! Every answer comes from one kernel, the canonical per-source pass of
//! [`mrbc_incr`]. The simulated driver ([`mrbc_core::bc`]) is
//! not on the serving path; the kernel is bit-identical to it at any
//! host count and batch size (the serving-parity contract, DESIGN.md
//! §11). Two regimes, by graph size:
//!
//! * **Up to [`ENGINE_MAX_VERTICES`] vertices**, the first full-BC query
//!   builds the maintenance engine ([`IncrEngine`]), which keeps one
//!   copy of every source's `(dist, σ, δ)`. From then on it answers full
//!   BC (its maintained vector), subset BC (an ascending fold of its
//!   cached δ rows) and `forward` (a shared handle on its artifacts, no
//!   copy). Mutations maintain it instead of dropping it: only affected
//!   sources are rebuilt and BC is re-folded (DESIGN.md §16).
//! * **Above the bound**, or before the engine exists, nothing O(n²) is
//!   kept. Full and subset BC stream their sources through
//!   [`canonical_bc`] in O(n) memory, and `forward` results go into a
//!   cache of at most [`FORWARD_CACHE_BYTES`] that evicts the lowest
//!   source first.
//!
//! Only the scheduler's single worker thread calls the compute methods,
//! so the interior mutex is never contended by long computations — the
//! session threads touch only [`EpochStore::epoch`] (an atomic load) and
//! the cheap metadata accessors.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use mrbc_core::BcConfig;
use mrbc_core::{brandes, postprocess};
use mrbc_graph::{CsrGraph, GraphBuilder, VertexId};
use mrbc_incr::{canonical_bc, EdgeOp, IncrConfig, IncrEngine, IncrOutcome, SourceArtifacts};

use crate::proto::MutateOp;

/// Largest graph the maintenance engine is built for. Its cache is
/// O(n²) memory (20 bytes per source × vertex: 20 MiB at the bound).
pub const ENGINE_MAX_VERTICES: usize = 1024;

/// Byte budget of the forward cache used while no engine is resident.
pub const FORWARD_CACHE_BYTES: usize = 16 << 20;

/// Forward-pass artifacts of one source. `dist` and `sigma` cover all
/// vertices; `delta` is filled only when the handle is the engine's.
pub type ForwardArtifacts = Arc<SourceArtifacts>;

/// Bytes one forward-only cache entry holds on an `n`-vertex graph.
fn forward_entry_bytes(n: usize) -> usize {
    n * (std::mem::size_of::<u32>() + std::mem::size_of::<f64>())
}

/// Result of [`EpochStore::mutate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationOutcome {
    /// Epoch after the call (bumped only when `applied`).
    pub epoch: u64,
    /// False when the mutation was a no-op (edge already in the
    /// requested state, or a self-loop insert).
    pub applied: bool,
    /// What the incremental engine did, when it was resident; `None`
    /// when there was no engine to maintain (never built, or graph
    /// above [`ENGINE_MAX_VERTICES`]) and the caches were dropped.
    pub maintenance: Option<IncrOutcome>,
}

struct StoreInner {
    graph: Arc<CsrGraph>,
    full_bc: Option<Arc<Vec<f64>>>,
    /// Forward-only artifacts; empty while the engine is resident.
    forward: BTreeMap<VertexId, ForwardArtifacts>,
    incr: Option<IncrEngine>,
}

/// The epoch-versioned graph + derived-result store.
pub struct EpochStore {
    epoch: AtomicU64,
    inner: Mutex<StoreInner>,
}

impl EpochStore {
    /// Wraps a loaded graph; the initial epoch is 1. The `BcConfig` is
    /// ignored: every answer comes from the canonical kernel, which is
    /// bit-identical to the driver at any configuration. The parameter
    /// is kept only for callers' source compatibility.
    pub fn new(graph: CsrGraph, _cfg: BcConfig) -> Self {
        EpochStore {
            epoch: AtomicU64::new(1),
            inner: Mutex::new(StoreInner {
                graph: Arc::new(graph),
                full_bc: None,
                forward: BTreeMap::new(),
                incr: None,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, StoreInner> {
        // Poison-tolerance: a panicking worker must not wedge every
        // subsequent query; the data is rebuilt per epoch anyway.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current graph epoch (atomic; safe from any thread).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Vertex count of the resident graph.
    pub fn num_vertices(&self) -> usize {
        self.lock().graph.num_vertices()
    }

    /// `(vertices, edges)` of the resident graph.
    pub fn graph_info(&self) -> (u64, u64) {
        let g = &self.lock().graph;
        (g.num_vertices() as u64, g.num_edges() as u64)
    }

    /// A handle to the resident graph at the current epoch.
    pub fn graph(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.lock().graph)
    }

    /// Bytes held by the forward-only cache (at most
    /// [`FORWARD_CACHE_BYTES`]; 0 while the engine is resident).
    pub fn forward_cache_bytes(&self) -> usize {
        let inner = self.lock();
        inner.forward.len() * forward_entry_bytes(inner.graph.num_vertices())
    }

    /// The full BC vector for the current epoch, computing (and caching)
    /// it on first use. Up to [`ENGINE_MAX_VERTICES`] this builds the
    /// maintenance engine; above it, all `n` sources are streamed
    /// through the kernel.
    pub fn full_bc(&self) -> Arc<Vec<f64>> {
        let graph = {
            let inner = self.lock();
            if let Some(bc) = &inner.full_bc {
                return Arc::clone(bc);
            }
            Arc::clone(&inner.graph)
        };
        // Compute outside the lock: only the worker calls this, and the
        // session threads must keep answering Hello/Stats meanwhile.
        let n = graph.num_vertices();
        let engine = (n > 0 && n <= ENGINE_MAX_VERTICES).then(|| IncrEngine::build(&graph));
        let result = Arc::new(match &engine {
            Some(engine) => engine.bc().to_vec(),
            None => canonical_bc(&graph, &(0..n as VertexId).collect::<Vec<_>>()),
        });
        let mut inner = self.lock();
        // A concurrent mutation may have swapped the graph while we
        // computed; only publish if the graph is still the one we used.
        if Arc::ptr_eq(&inner.graph, &graph) {
            inner.full_bc = Some(Arc::clone(&result));
            if engine.is_some() {
                // The engine holds every source's forward artifacts now.
                inner.forward.clear();
                inner.incr = engine;
            }
        }
        result
    }

    /// The deterministic top-`k` ranking for the current epoch.
    pub fn top_k(&self, k: usize) -> Vec<(VertexId, f64)> {
        postprocess::top_k(&self.full_bc(), k)
    }

    /// Forward artifacts `(dist, σ)` of `s` for the current epoch: the
    /// engine's own copy when it is resident, else a forward pass cached
    /// within [`FORWARD_CACHE_BYTES`].
    pub fn forward(&self, s: VertexId) -> ForwardArtifacts {
        let graph = {
            let inner = self.lock();
            if let Some(engine) = &inner.incr {
                return engine.shared_source(s);
            }
            if let Some(fw) = inner.forward.get(&s) {
                return Arc::clone(fw);
            }
            Arc::clone(&inner.graph)
        };
        let (dist, sigma) = brandes::forward_counts(&graph, s);
        let result = Arc::new(SourceArtifacts {
            dist,
            sigma,
            delta: Vec::new(),
        });
        let mut inner = self.lock();
        if Arc::ptr_eq(&inner.graph, &graph) && inner.incr.is_none() {
            // Evict until the new entry fits; one larger than the whole
            // budget is not cached at all.
            let cap = FORWARD_CACHE_BYTES / forward_entry_bytes(graph.num_vertices()).max(1);
            while inner.forward.len() >= cap && inner.forward.pop_first().is_some() {}
            if cap > 0 {
                inner.forward.insert(s, Arc::clone(&result));
            }
        }
        result
    }

    /// Subset-source BC: scores accumulated from `sources` only
    /// (canonicalized — sorted, deduplicated — first, so duplicate or
    /// shuffled source lists cannot double-count). A fold of the
    /// engine's cached δ rows when it is resident, else a stream of the
    /// sources through the kernel.
    pub fn subset_bc(&self, sources: &[VertexId]) -> Vec<f64> {
        let mut canon = sources.to_vec();
        canon.sort_unstable();
        canon.dedup();
        let graph = {
            let inner = self.lock();
            if let Some(engine) = &inner.incr {
                return engine.subset_bc(&canon);
            }
            Arc::clone(&inner.graph)
        };
        canonical_bc(&graph, &canon)
    }

    /// Applies an edge mutation. `applied` is false when the mutation
    /// was a no-op (edge already in the requested state, or a self-loop
    /// insert — the builder drops self-loops, so claiming success would
    /// desynchronize the epoch). On success the CSR is rebuilt, the
    /// epoch bumped, and the caches either *maintained* (when the
    /// engine is resident: affected sources rebuilt, BC re-folded) or
    /// dropped. Either way, pinned readers of the old epoch turn `Stale`
    /// and fresh reads are bit-identical to a from-scratch recompute.
    pub fn mutate(&self, op: MutateOp, u: VertexId, v: VertexId) -> MutationOutcome {
        let (engine, graph, epoch) = {
            let mut inner = self.lock();
            let g = &inner.graph;
            let applicable = match op {
                MutateOp::AddEdge => u != v && !g.has_edge(u, v),
                MutateOp::RemoveEdge => g.has_edge(u, v),
            };
            if !applicable {
                return MutationOutcome {
                    epoch: self.epoch(),
                    applied: false,
                    maintenance: None,
                };
            }
            let n = g.num_vertices();
            let rebuilt = match op {
                MutateOp::AddEdge => GraphBuilder::new(n).edges(g.edges()).edge(u, v).build(),
                MutateOp::RemoveEdge => GraphBuilder::new(n)
                    .edges(g.edges().filter(|&e| e != (u, v)))
                    .build(),
            };
            inner.graph = Arc::new(rebuilt);
            inner.full_bc = None;
            inner.forward.clear();
            // Take the engine out so maintenance runs outside the lock;
            // session threads keep answering Hello/Stats meanwhile.
            let engine = inner.incr.take();
            let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
            (engine, Arc::clone(&inner.graph), epoch)
        };
        let Some(mut engine) = engine else {
            return MutationOutcome {
                epoch,
                applied: true,
                maintenance: None,
            };
        };
        let edge_op = match op {
            MutateOp::AddEdge => EdgeOp::Add,
            MutateOp::RemoveEdge => EdgeOp::Remove,
        };
        let outcome = engine.apply(&graph, edge_op, u, v, &IncrConfig::default());
        let fresh_bc = Arc::new(engine.bc().to_vec());
        let mut inner = self.lock();
        // Same publish guard as the compute paths: only the scheduler
        // worker mutates, but stay robust if that ever changes — a
        // stale engine is dropped and the next full_bc rebuilds it.
        if Arc::ptr_eq(&inner.graph, &graph) {
            inner.full_bc = Some(fresh_bc);
            inner.incr = Some(engine);
        }
        MutationOutcome {
            epoch,
            applied: true,
            maintenance: Some(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_core::bc;
    use mrbc_graph::generators;

    fn store() -> EpochStore {
        // A path 0 -> 1 -> 2 -> 3 plus a chord 0 -> 2.
        let g = GraphBuilder::new(4)
            .edges([(0, 1), (1, 2), (2, 3), (0, 2)])
            .build();
        EpochStore::new(g, BcConfig::default())
    }

    /// `(epoch, applied)` of a mutation outcome, for terse asserts.
    fn ea(o: MutationOutcome) -> (u64, bool) {
        (o.epoch, o.applied)
    }

    #[test]
    fn epochs_start_at_one_and_bump_only_on_applied_mutations() {
        let s = store();
        assert_eq!(s.epoch(), 1);
        // Adding an existing edge, removing a missing one, and inserting
        // a self-loop are all no-ops.
        assert_eq!(ea(s.mutate(MutateOp::AddEdge, 0, 1)), (1, false));
        assert_eq!(ea(s.mutate(MutateOp::RemoveEdge, 3, 0)), (1, false));
        assert_eq!(ea(s.mutate(MutateOp::AddEdge, 2, 2)), (1, false));
        // A real insert bumps; removing it bumps again.
        assert_eq!(ea(s.mutate(MutateOp::AddEdge, 3, 0)), (2, true));
        assert_eq!(ea(s.mutate(MutateOp::RemoveEdge, 3, 0)), (3, true));
        assert_eq!(s.graph_info(), (4, 4));
    }

    #[test]
    fn full_bc_matches_offline_driver_and_invalidates_on_mutation() {
        let s = store();
        let g = s.graph();
        let sources: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        let offline = bc(&g, &sources, &BcConfig::default()).bc;
        assert_eq!(*s.full_bc(), offline, "cached vector must be bit-identical");
        // Cached: second call returns the same allocation.
        assert!(Arc::ptr_eq(&s.full_bc(), &s.full_bc()));

        let before = s.full_bc();
        s.mutate(MutateOp::AddEdge, 3, 0);
        let after = s.full_bc();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "mutation must drop the cache"
        );
        let offline2 = bc(&s.graph(), &sources, &BcConfig::default()).bc;
        assert_eq!(*after, offline2);
    }

    #[test]
    fn forward_artifacts_cache_and_agree_with_brandes() {
        let s = store();
        let fw = s.forward(0);
        let (dist, sigma) = brandes::forward_counts(&s.graph(), 0);
        assert_eq!(fw.dist, dist);
        assert_eq!(fw.sigma, sigma);
        assert!(Arc::ptr_eq(&s.forward(0), &s.forward(0)));
        // Distinct sources get distinct entries.
        assert!(!Arc::ptr_eq(&s.forward(0), &s.forward(1)));
    }

    #[test]
    fn subset_bc_canonicalizes_sources() {
        let g = generators::rmat(generators::RmatConfig::new(5, 6), 11);
        let s = EpochStore::new(g.clone(), BcConfig::default());
        let messy = [7, 3, 3, 7, 0, 12, 0];
        let canon = [0, 3, 7, 12];
        assert_eq!(s.subset_bc(&messy), bc(&g, &canon, &BcConfig::default()).bc);
    }

    #[test]
    fn top_k_ranks_from_the_cached_vector() {
        let s = store();
        let full = s.full_bc();
        assert_eq!(s.top_k(2), postprocess::top_k(&full, 2));
    }

    #[test]
    fn mutations_are_maintained_incrementally_once_the_engine_is_warm() {
        let s = store();
        // Before the first full-BC query there is nothing to maintain:
        // the mutation is plain drop-and-recompute.
        let cold = s.mutate(MutateOp::AddEdge, 3, 0);
        assert!(cold.applied && cold.maintenance.is_none());
        let _ = s.full_bc(); // builds the engine (n = 4 ≤ the bound)
        let warm = s.mutate(MutateOp::RemoveEdge, 3, 0);
        let m = warm.maintenance.expect("engine resident after full_bc");
        assert_eq!(m.sources_reused + m.sources_rebuilt, 4);
        // Maintained answers stay bit-identical to the offline driver.
        let sources: Vec<VertexId> = (0..4).collect();
        let offline = bc(&s.graph(), &sources, &BcConfig::default()).bc;
        assert_eq!(*s.full_bc(), offline);
        // The maintained epoch also serves forward artifacts from the
        // engine, matching a fresh BFS bitwise.
        let fw = s.forward(1);
        let (dist, sigma) = brandes::forward_counts(&s.graph(), 1);
        assert_eq!((&fw.dist, &fw.sigma), (&dist, &sigma));
    }

    /// With the engine resident, `forward` hands out the engine's own
    /// artifacts: the forward-only cache stays empty, and the cached
    /// entries from before the engine existed are dropped.
    #[test]
    fn resident_engine_forward_shares_its_one_copy() {
        let s = store();
        let _ = s.forward(2);
        assert_eq!(s.forward_cache_bytes(), 4 * 12);
        let _ = s.full_bc();
        assert_eq!(s.forward_cache_bytes(), 0);
        let fw = s.forward(2);
        assert!(Arc::ptr_eq(&fw, &s.forward(2)));
        assert_eq!(s.forward_cache_bytes(), 0);
        assert_eq!(fw.delta.len(), 4, "the engine's artifacts carry δ");
    }
}
