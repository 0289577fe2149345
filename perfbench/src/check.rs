//! The correctness gate: every answer the program gives is compared bit
//! for bit with an oracle computed outside it.

use std::collections::BTreeMap;

use mrbc_core::{bc, brandes, postprocess, BcConfig};
use mrbc_graph::{CsrGraph, VertexId};
use mrbc_incr::IncrEngine;
use mrbc_incr::{EdgeOp, IncrConfig, IncrOutcome};
use mrbc_serve::{MutateOp, Response};

use crate::inputs::{self, Mutation, Read, TOP_K};

/// A read answer reduced to the bits that must match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    Path {
        dist: u32,
        sigma: u64,
    },
    Bc(u64),
    /// Digest of a `top_k` list or a `subset_bc` vector.
    Digest(u64),
}

/// One read the client saw, kept for checking after the timed window.
#[derive(Clone, Copy, Debug)]
pub struct Observed {
    pub epoch: u64,
    pub read: Read,
    pub answer: Answer,
}

pub fn digest(xs: impl IntoIterator<Item = f64>) -> u64 {
    xs.into_iter()
        .fold(0x6d72_6263, |h, x| mrbc_util::splitmix64(h ^ x.to_bits()))
}

fn digest_entries(entries: &[(VertexId, f64)]) -> u64 {
    digest(
        entries
            .iter()
            .flat_map(|&(v, s)| [f64::from_bits(u64::from(v)), s]),
    )
}

/// The answer carried by `resp` to `read` pinned at `epoch`. `Err` is a
/// failed operation (a refusal or a reply of the wrong kind or epoch).
pub fn answer_of(read: Read, resp: &Response, epoch: u64) -> Result<Answer, String> {
    let (got_epoch, answer) = match (read, resp) {
        (Read::Path(..), Response::PathInfo { epoch, dist, sigma }) => (
            *epoch,
            Answer::Path {
                dist: *dist,
                sigma: sigma.to_bits(),
            },
        ),
        (Read::Bc(_), Response::BcValue { epoch, score }) => (*epoch, Answer::Bc(score.to_bits())),
        (Read::TopK, Response::TopKList { epoch, entries }) => {
            (*epoch, Answer::Digest(digest_entries(entries)))
        }
        (Read::Subset(_), Response::SubsetBc { epoch, scores }) => {
            (*epoch, Answer::Digest(digest(scores.iter().copied())))
        }
        (_, other) => return Err(format!("{read:?}: {other:?}")),
    };
    if got_epoch != epoch {
        return Err(format!(
            "{read:?}: answered at epoch {got_epoch}, pinned {epoch}"
        ));
    }
    Ok(answer)
}

/// Expected answers for one epoch's graph, computed lazily and cached.
pub struct Oracle<'a> {
    g: &'a CsrGraph,
    bc: &'a [f64],
    subsets: &'a [[VertexId; 2]],
    forward: BTreeMap<VertexId, (Vec<u32>, Vec<f64>)>,
    top_k: Option<u64>,
    subset: BTreeMap<usize, u64>,
}

impl<'a> Oracle<'a> {
    /// `bc` is the full BC vector of `g` from the canonical kernel.
    pub fn new(g: &'a CsrGraph, bc: &'a [f64], subsets: &'a [[VertexId; 2]]) -> Self {
        Oracle {
            g,
            bc,
            subsets,
            forward: BTreeMap::new(),
            top_k: None,
            subset: BTreeMap::new(),
        }
    }

    pub fn expected(&mut self, read: Read) -> Answer {
        match read {
            Read::Path(s, t) => {
                let (dist, sigma) = self
                    .forward
                    .entry(s)
                    .or_insert_with(|| brandes::forward_counts(self.g, s));
                Answer::Path {
                    dist: dist[t as usize],
                    sigma: sigma[t as usize].to_bits(),
                }
            }
            Read::Bc(v) => Answer::Bc(self.bc[v as usize].to_bits()),
            Read::TopK => Answer::Digest(*self.top_k.get_or_insert_with(|| {
                digest_entries(&postprocess::top_k(self.bc, TOP_K as usize))
            })),
            Read::Subset(i) => {
                let (g, pair) = (self.g, self.subsets[i]);
                Answer::Digest(*self.subset.entry(i).or_insert_with(|| {
                    digest(bc(g, &inputs::canon(&pair), &BcConfig::default()).bc)
                }))
            }
        }
    }

    /// Checks one observed answer; `Err` describes the mismatch.
    pub fn check(&mut self, o: &Observed) -> Result<(), String> {
        let want = self.expected(o.read);
        if want == o.answer {
            Ok(())
        } else {
            Err(format!(
                "epoch {}: {:?} answered {:?}, oracle {:?}",
                o.epoch, o.read, o.answer, want
            ))
        }
    }
}

/// Bit equality of two score vectors.
pub fn bits_equal(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} scores, expected {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(v) => Err(format!(
            "{what}: vertex {v} is {:e}, expected {:e}",
            got[v], want[v]
        )),
    }
}

/// A cold recovery must return exactly the acknowledged mutations, in
/// acknowledgement order.
pub fn recovered_matches(acked: &[Mutation], recovered: &[Mutation]) -> Result<(), String> {
    if let Some(i) = acked.iter().zip(recovered).position(|(a, r)| a != r) {
        return Err(format!(
            "recovered mutation {i} is {:?}, acked {:?}",
            recovered[i], acked[i]
        ));
    }
    if acked.len() != recovered.len() {
        return Err(format!(
            "recovered {} mutations, acked {}",
            recovered.len(),
            acked.len()
        ));
    }
    Ok(())
}

/// Checks a static-graph run: every read against the canonical kernel.
pub fn verify_static(
    g: &CsrGraph,
    subsets: &[[VertexId; 2]],
    observed: &[Observed],
) -> Vec<String> {
    let engine = IncrEngine::build(g);
    let mut oracle = Oracle::new(g, engine.bc(), subsets);
    observed
        .iter()
        .filter_map(|o| oracle.check(o).err())
        .collect()
}

/// Extra work done while a churn run is replayed (the traced run's layer
/// measurements). The default replay only walks the oracle forward.
pub trait ReplayHooks {
    /// Called once per epoch with the reads pinned at it, before the
    /// epoch's mutation is applied.
    fn epoch(&mut self, _replay: &Replay, _reads: &[Observed]) {}
    /// Applies `m` to `replay`.
    fn mutation(&mut self, replay: &mut Replay, m: Mutation) -> IncrOutcome {
        replay.apply(m)
    }
}

/// Plain replay, no extra work.
pub struct NoHooks;
impl ReplayHooks for NoHooks {}

/// Checks a churn run: replays the acknowledged stream from the boot
/// graph, checks every read at its epoch, and checks the daemon's final
/// BC vector against a fresh driver run on the final graph.
pub fn verify_churn(
    boot: &CsrGraph,
    acked: &[Mutation],
    subsets: &[[VertexId; 2]],
    observed: &[Observed],
    final_bc: &[f64],
    hooks: &mut dyn ReplayHooks,
) -> Vec<String> {
    let mut errors = Vec::new();
    let mut replay = Replay::new(boot);
    let mut i = 0;
    loop {
        let epoch = replay.epoch();
        let upto = observed[i..]
            .iter()
            .position(|o| o.epoch != epoch)
            .map_or(observed.len(), |k| i + k);
        hooks.epoch(&replay, &observed[i..upto]);
        let mut oracle = Oracle::new(&replay.g, replay.engine.bc(), subsets);
        errors.extend(
            observed[i..upto]
                .iter()
                .filter_map(|o| oracle.check(o).err()),
        );
        i = upto;
        if replay.applied == acked.len() {
            if i < observed.len() {
                errors.push(format!(
                    "read pinned at epoch {} beyond the acked stream",
                    observed[i].epoch
                ));
            }
            break;
        }
        let next = acked[replay.applied];
        hooks.mutation(&mut replay, next);
    }
    errors.extend(final_bc_check(&replay.g, final_bc).err());
    errors
}

/// The final BC vector equals the simulated driver on the final graph.
pub fn final_bc_check(g: &CsrGraph, final_bc: &[f64]) -> Result<(), String> {
    let sources: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    bits_equal(
        "final BC vs driver",
        final_bc,
        &bc(g, &sources, &BcConfig::default()).bc,
    )
}

/// The oracle side of a churn run: the graph and a maintenance engine
/// walked through the acknowledged stream, one epoch per mutation.
pub struct Replay {
    pub g: CsrGraph,
    pub engine: IncrEngine,
    pub applied: usize,
}

impl Replay {
    pub fn new(boot: &CsrGraph) -> Self {
        Replay {
            g: boot.clone(),
            engine: IncrEngine::build(boot),
            applied: 0,
        }
    }

    /// Epoch of the current graph (the boot graph is epoch 1).
    pub fn epoch(&self) -> u64 {
        self.applied as u64 + 1
    }

    pub fn apply(&mut self, m: Mutation) -> IncrOutcome {
        let g = inputs::edit(&self.g, m);
        self.step(m, g)
    }

    /// Moves to `g`, the graph after `m`, and maintains the engine.
    pub fn step(&mut self, (op, u, v): Mutation, g: CsrGraph) -> IncrOutcome {
        self.g = g;
        self.applied += 1;
        self.engine
            .apply(&self.g, edge_op(op), u, v, &IncrConfig::default())
    }
}

pub fn edge_op(op: MutateOp) -> EdgeOp {
    match op {
        MutateOp::AddEdge => EdgeOp::Add,
        MutateOp::RemoveEdge => EdgeOp::Remove,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{ChurnStream, ReadMix, Shape};

    #[test]
    fn one_seed_gives_identical_graph_and_op_stream() {
        for shape in [Shape::PowerLaw, Shape::Road] {
            let run = |seed| {
                let (mut stream, boot) = ChurnStream::new(&inputs::graph(shape, seed), seed);
                let ops: Vec<Mutation> = (0..300).map(|_| stream.next_op()).collect();
                let mut mix = ReadMix::new(seed, 0);
                let reads: Vec<Read> = (0..300).map(|_| mix.next_read()).collect();
                let boot: Vec<_> = boot.edges().collect();
                (boot, ops, reads, mix.subsets)
            };
            assert_eq!(run(7), run(7), "{shape:?}");
            assert_ne!(run(7).1, run(8).1, "{shape:?}: seeds must matter");
        }
    }

    /// Digest of a graph's edge list.
    fn edge_digest(g: &CsrGraph) -> u64 {
        digest(
            g.edges()
                .map(|(u, v)| f64::from_bits(u64::from(u) << 32 | u64::from(v))),
        )
    }

    #[test]
    fn workload_graphs_are_pinned() {
        // The graphs come from the repository's generators; a change to
        // them changes every workload's input and shows up here.
        assert_eq!(
            edge_digest(&inputs::graph(Shape::PowerLaw, 1)),
            0x5dc4_f6cf_90c7_07a0
        );
        assert_eq!(
            edge_digest(&inputs::graph(Shape::Road, 1)),
            0xf36f_86de_14cc_edce
        );
    }

    #[test]
    fn churn_stream_is_applicable_and_keeps_edge_count() {
        for shape in [Shape::PowerLaw, Shape::Road] {
            let (mut stream, boot) = ChurnStream::new(&inputs::graph(shape, 3), 3);
            let mut g = boot.clone();
            for _ in 0..500 {
                let m = stream.next_op();
                let present = g.has_edge(m.1, m.2);
                assert_eq!(present, m.0 == MutateOp::RemoveEdge, "{shape:?}: {m:?}");
                g = inputs::edit(&g, m);
                assert!(g.num_edges().abs_diff(boot.num_edges()) <= 1);
            }
        }
    }

    #[test]
    fn checker_rejects_one_ulp_and_dropped_mutation() {
        let g = inputs::graph(Shape::PowerLaw, 5);
        let sources: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
        let good = bc(&g, &sources, &BcConfig::default()).bc;
        assert!(final_bc_check(&g, &good).is_ok());
        let mut bad = good.clone();
        let v = bad
            .iter()
            .position(|&x| x > 0.0)
            .expect("some vertex has BC > 0");
        bad[v] = f64::from_bits(bad[v].to_bits() + 1);
        assert!(final_bc_check(&g, &bad).is_err());

        let (mut stream, _) = ChurnStream::new(&g, 5);
        let acked: Vec<Mutation> = (0..6).map(|_| stream.next_op()).collect();
        assert!(recovered_matches(&acked, &acked).is_ok());
        let mut dropped = acked.clone();
        dropped.remove(3);
        assert!(recovered_matches(&acked, &dropped).is_err());
        assert!(recovered_matches(&acked, &acked[..5]).is_err());
    }

    #[test]
    fn replayed_engine_matches_driver_after_churn() {
        let (mut stream, boot) = ChurnStream::new(&inputs::graph(Shape::Road, 2), 2);
        let acked: Vec<Mutation> = (0..4).map(|_| stream.next_op()).collect();
        let mut replay = Replay::new(&boot);
        for &m in &acked {
            replay.apply(m);
        }
        let final_bc = replay.engine.bc().to_vec();
        assert!(verify_churn(&boot, &acked, &[], &[], &final_bc, &mut NoHooks).is_empty());
    }
}
