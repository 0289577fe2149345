//! Seeded inputs: the graphs, the churn mutation stream and the read mix.
//!
//! The graphs come from the repository's own generators; the mutation
//! stream and the read mix are generated here. All of them depend on
//! `--seed` only.

use mrbc_graph::generators::{grid_road_network, rmat, RmatConfig, RoadNetworkConfig};
use mrbc_graph::{CsrGraph, GraphBuilder, VertexId};
use mrbc_serve::{MutateOp, Request};

/// A splitmix64 stream: tiny, seedable and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mrbc_util::splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Derives an independent stream seed for one purpose of one run.
fn subseed(seed: u64, purpose: u64) -> u64 {
    mrbc_util::splitmix64(seed ^ mrbc_util::splitmix64(purpose))
}

/// The two graph shapes the workloads run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// R-MAT scale 10, edge factor 8 (Graph500 quadrant weights):
    /// n = 1024, m ≈ 6.7k after removing duplicates and self-loops.
    PowerLaw,
    /// 16 × 64 bidirectional street grid with 5% of the cross streets
    /// removed (first row and column kept): n = 1024, diameter ≈ 80.
    Road,
}

/// Vertex count of both shapes.
pub const N: usize = 1024;

/// The workload graph, from the repository's generators.
pub fn graph(shape: Shape, seed: u64) -> CsrGraph {
    match shape {
        Shape::PowerLaw => rmat(RmatConfig::new(10, 8), seed),
        Shape::Road => grid_road_network(RoadNetworkConfig::new(16, 64), seed),
    }
}

/// One edge mutation: the operation and its endpoints.
pub type Mutation = (MutateOp, VertexId, VertexId);

/// Rebuilds the CSR after `m`, the way the store does on a mutation.
pub fn edit(g: &CsrGraph, (op, u, v): Mutation) -> CsrGraph {
    let b = GraphBuilder::new(g.num_vertices());
    match op {
        MutateOp::AddEdge => b.edges(g.edges()).edge(u, v).build(),
        MutateOp::RemoveEdge => b.edges(g.edges().filter(|&e| e != (u, v))).build(),
    }
}

/// Edges held out of the boot graph so the churn stream always has
/// absent edges of the graph's own shape to add back.
const HELD_OUT: usize = 16;

/// A stationary, always-applicable mutation stream. Even steps remove an
/// edge drawn uniformly from the current graph; odd steps add back one
/// drawn uniformly from the absent pool (the held-out edges plus every
/// removed edge not yet re-added). Every operation therefore changes the
/// graph, the edge count stays within one of the boot graph's, and the
/// graph keeps the generator's shape however long the run lasts — random
/// vertex pairs would miss on removes and would shortcut a road grid's
/// diameter away on adds.
#[derive(Clone, Debug)]
pub struct ChurnStream {
    rng: Rng,
    present: Vec<(VertexId, VertexId)>,
    absent: Vec<(VertexId, VertexId)>,
    step: u64,
}

impl ChurnStream {
    /// Splits the edges of `g` into the boot graph and the held-out pool.
    /// Returns the stream and the boot graph.
    pub fn new(g: &CsrGraph, seed: u64) -> (Self, CsrGraph) {
        let mut rng = Rng::new(subseed(seed, 2));
        let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
        let mut absent = Vec::with_capacity(HELD_OUT);
        for _ in 0..HELD_OUT {
            let i = rng.below(edges.len() as u64) as usize;
            absent.push(edges.swap_remove(i));
        }
        let boot = GraphBuilder::new(g.num_vertices())
            .edges(edges.iter().copied())
            .build();
        let stream = ChurnStream {
            rng,
            present: edges,
            absent,
            step: 0,
        };
        (stream, boot)
    }

    /// The next mutation; it is applicable to the graph the previous
    /// mutations produced.
    pub fn next_op(&mut self) -> Mutation {
        let remove = self.step.is_multiple_of(2);
        self.step += 1;
        let (from, to, op) = if remove {
            (&mut self.present, &mut self.absent, MutateOp::RemoveEdge)
        } else {
            (&mut self.absent, &mut self.present, MutateOp::AddEdge)
        };
        let i = self.rng.below(from.len() as u64) as usize;
        let e = from.swap_remove(i);
        to.push(e);
        (op, e.0, e.1)
    }
}

/// Fixed source pairs for `subset_bc`, so the `serve-read` oracle
/// computes 16 subsets instead of one per request (about a thousand). The
/// daemon does not cache subset answers, so reuse does not change its
/// work.
const SUBSETS: usize = 16;

/// A source set as the program canonicalizes it: sorted, deduplicated.
pub fn canon(sources: &[VertexId]) -> Vec<VertexId> {
    let mut c = sources.to_vec();
    c.sort_unstable();
    c.dedup();
    c
}

/// One read of the mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Read {
    /// `path_info(s, t)`.
    Path(VertexId, VertexId),
    /// `bc_score(v)`.
    Bc(VertexId),
    /// `top_k(10)`.
    TopK,
    /// `subset_bc` over the pair `subsets[i]`.
    Subset(usize),
}

/// The read mix: 50% `path_info`, 20% `bc_score`, 20% `top_k(10)` and
/// 10% `subset_bc` over two sources.
///
/// The repository records no real traffic, so the mix is an assumption.
/// It starts from the `servebench` mix (50% `path_info`, 25% `bc_score`,
/// 25% `top_k(10)`), so both benchmarks weigh the point reads alike.
/// `subset_bc` is not in that mix; it takes 10%, five points from each of
/// `bc_score` and `top_k`, which keeps `path_info` the half-share kind
/// and still gives `subset_bc`, the one read that runs the driver, about a
/// thousand samples in a 15 s `serve-read` run.
#[derive(Clone, Debug)]
pub struct ReadMix {
    rng: Rng,
    pub subsets: Vec<[VertexId; 2]>,
}

pub const TOP_K: u32 = 10;

impl ReadMix {
    /// `stream` separates the clients of one run; the subset pairs depend
    /// on the seed only.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut pairs = Rng::new(subseed(seed, 3));
        let subsets = (0..SUBSETS)
            .map(|_| {
                [
                    pairs.below(N as u64) as VertexId,
                    pairs.below(N as u64) as VertexId,
                ]
            })
            .collect();
        ReadMix {
            rng: Rng::new(subseed(seed, 100 + stream)),
            subsets,
        }
    }

    pub fn next_read(&mut self) -> Read {
        let n = N as u64;
        match self.rng.below(10) {
            0..=4 => Read::Path(self.rng.below(n) as VertexId, self.rng.below(n) as VertexId),
            5..=6 => Read::Bc(self.rng.below(n) as VertexId),
            7..=8 => Read::TopK,
            _ => Read::Subset(self.rng.below(self.subsets.len() as u64) as usize),
        }
    }

    /// The wire request for `read`, pinned to `epoch`.
    pub fn request(&self, read: Read, epoch: u64) -> Request {
        match read {
            Read::Path(s, t) => Request::PathInfo { epoch, s, t },
            Read::Bc(v) => Request::BcScore { epoch, v },
            Read::TopK => Request::TopK { epoch, k: TOP_K },
            Read::Subset(i) => Request::SubsetBc {
                epoch,
                sources: self.subsets[i].to_vec(),
            },
        }
    }
}
