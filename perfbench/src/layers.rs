//! Per-layer measurements for the traced run.
//!
//! Layers that run on the calling thread are timed by calling their
//! public functions directly, each call inside a span of this benchmark.
//! Layers that run inside daemon threads are read from the counters the
//! program exports (`ServeStats`, `PoolStats`) or measured by replaying
//! the same operation stream in-process against `EpochStore`,
//! `IncrEngine`, `GraphBuilder`, `DurableLog` and `proto`.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use mrbc_core::{bc, brandes, postprocess, BcConfig};
use mrbc_dgalois::{partition, BspStats};
use mrbc_graph::{CsrGraph, VertexId};
use mrbc_incr::{canonical_backward, source_affected, IncrEngine, IncrOutcome};
use mrbc_obs::{self as obs, TraceEvent};
use mrbc_serve::proto::{decode_response, encode_response};
use mrbc_serve::{DurableLog, EpochStore, PoolConfig, Response, ServeStats};
use mrbc_util::wal::WalConfig;

use crate::check::{Observed, Replay, ReplayHooks};
use crate::inputs::{self, Mutation, Read, TOP_K};
use crate::offline::MAIN_TID;
use crate::serving::{Live, CLIENT_TID, KINDS};
use crate::stats::{mean, median, percentile, sorted, Metrics};

/// Every per-layer metric, with its unit, in report order. A workload
/// reports 0 for a layer it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.queue_us.p50", "us"),
    ("server.queue_us.p99", "us"),
    ("server.exec_us.p50", "us"),
    ("server.exec_us.p99", "us"),
    ("server.transport_us.p50", "us"),
    ("sched.coalescing_factor", "ratio"),
    ("proto.encode_us.path_info", "us"),
    ("proto.encode_us.bc_score", "us"),
    ("proto.encode_us.top_k", "us"),
    ("proto.encode_us.subset_bc", "us"),
    ("proto.encode_us.mutate", "us"),
    ("proto.decode_us.path_info", "us"),
    ("proto.decode_us.bc_score", "us"),
    ("proto.decode_us.top_k", "us"),
    ("proto.decode_us.subset_bc", "us"),
    ("proto.decode_us.mutate", "us"),
    ("proto.response_bytes.path_info", "bytes"),
    ("proto.response_bytes.bc_score", "bytes"),
    ("proto.response_bytes.top_k", "bytes"),
    ("proto.response_bytes.subset_bc", "bytes"),
    ("proto.response_bytes.mutate", "bytes"),
    ("store.forward_hit_us", "us"),
    ("store.forward_miss_us", "us"),
    ("store.subset_bc_ms", "ms"),
    ("store.mutate_us", "us"),
    ("core.driver_bc_ms", "ms"),
    ("core.top_k_us", "us"),
    ("graph.edit_us", "us"),
    ("incr.apply_us.p50", "us"),
    ("incr.apply_us.p95", "us"),
    ("incr.cone_us", "us"),
    ("incr.forward_us_per_source", "us"),
    ("incr.backward_us_per_source", "us"),
    ("incr.refold_us", "us"),
    ("incr.affected_frac.p50", "ratio"),
    ("incr.reuse_ratio", "ratio"),
    ("incr.fallback_frac", "ratio"),
    ("incr.build_ms", "ms"),
    ("incr.full_rebuild_ms", "ms"),
    ("incr.artifact_bytes", "bytes"),
    ("pool.broadcast_us", "us"),
    ("pool.routed", "count"),
    ("pool.retries", "count"),
    ("pool.failovers", "count"),
    ("wal.append_durable_us.p50", "us"),
    ("wal.append_durable_us.p99", "us"),
    ("wal.bytes_per_mutation", "bytes"),
    ("dgalois.partition_ms", "ms"),
    ("dgalois.messages", "count"),
    ("dgalois.bytes", "bytes"),
    ("dgalois.load_imbalance", "ratio"),
    ("dgalois.compute_us", "us"),
    ("dgalois.exchange_us", "us"),
    ("bsp_rounds", "count"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("read_qps", "1/s"),
    ("mutate_p50_ms", "ms"),
    ("mutate_p95_ms", "ms"),
    ("mutations_per_s", "1/s"),
    ("bc_sources_per_s", "1/s"),
    ("ops_failed_frac", "ratio"),
    ("obs.overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
    ("unattributed_us", "us"),
];

/// Runs `f` inside a span of this benchmark and returns its result and
/// its wall time in µs.
fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let span = obs::span_on(name, "perfbench", MAIN_TID);
    let t = Instant::now();
    let r = f();
    let us = t.elapsed().as_secs_f64() * 1e6;
    drop(span);
    (r, us)
}

fn hist_q(s: &ServeStats, name: &str, p: u64) -> f64 {
    s.hist(name)
        .map_or(0.0, |h| h.percentile_bucket_lo(p) as f64)
}

/// Scheduler and server counters from `ServeStats` of the traced window:
/// the daemon stamps its queue and exec phases with the trace clock,
/// which reads 0 while no recorder is installed.
pub fn server_metrics(m: &mut Metrics, traced: &Live, untraced: &Live) {
    let s = &traced.stats_after;
    m.set("server.queue_us.p50", hist_q(s, "serve.queue_us", 50), "us");
    m.set("server.queue_us.p99", hist_q(s, "serve.queue_us", 99), "us");
    m.set("server.exec_us.p50", hist_q(s, "serve.exec_us", 50), "us");
    m.set("server.exec_us.p99", hist_q(s, "serve.exec_us", 99), "us");
    if !traced.reads.is_empty() {
        let client = percentile(&sorted(&traced.reads), 50.0);
        m.set(
            "server.transport_us.p50",
            client - hist_q(s, "serve.total_us", 50),
            "us",
        );
    }
    m.set(
        "sched.coalescing_factor",
        untraced.stats_after.coalescing_factor(),
        "ratio",
    );
    m.set("pool.routed", untraced.pool.routed as f64, "count");
    m.set(
        "pool.retries",
        untraced.pool.retries_emitted as f64,
        "count",
    );
    m.set("pool.failovers", untraced.pool.failovers as f64, "count");
}

/// Encode/decode cost and size of one response of each kind seen.
/// Returns the µs per kind (encode + decode) for the closure account.
pub fn proto_metrics(m: &mut Metrics, samples: &[Option<Response>]) -> Vec<f64> {
    const REPS: usize = 200;
    let mut per_kind = vec![0.0; KINDS.len()];
    for (k, resp) in samples.iter().enumerate() {
        let Some(resp) = resp else { continue };
        let (bytes, enc) = timed("proto.encode", || {
            let mut last = Vec::new();
            for _ in 0..REPS {
                last = encode_response(black_box(7), black_box(resp));
            }
            last
        });
        let (_, dec) = timed("proto.decode", || {
            for _ in 0..REPS {
                black_box(decode_response(black_box(&bytes)).expect("own encoding decodes"));
            }
        });
        let (enc, dec) = (enc / REPS as f64, dec / REPS as f64);
        m.set(&format!("proto.encode_us.{}", KINDS[k]), enc, "us");
        m.set(&format!("proto.decode_us.{}", KINDS[k]), dec, "us");
        m.set(
            &format!("proto.response_bytes.{}", KINDS[k]),
            bytes.len() as f64,
            "bytes",
        );
        per_kind[k] = enc + dec;
    }
    per_kind
}

/// Per-call samples of the store and core layers.
#[derive(Default)]
pub struct StoreSamples {
    forward_hit: Vec<f64>,
    forward_miss: Vec<f64>,
    subset: Vec<f64>,
    top_k: Vec<f64>,
    mutate: Vec<f64>,
    seen: BTreeSet<VertexId>,
}

impl StoreSamples {
    /// Replays the reads of one epoch against `store`. A source's first
    /// `forward` of an epoch is a miss; the benchmark then repeats the
    /// call to time a hit.
    fn reads(&mut self, store: &EpochStore, subsets: &[[VertexId; 2]], reads: &[Observed]) {
        for o in reads {
            match o.read {
                Read::Path(s, _) => {
                    if self.seen.insert(s) {
                        self.forward_miss
                            .push(timed("store.forward", || store.forward(s)).1);
                    }
                    self.forward_hit
                        .push(timed("store.forward", || store.forward(s)).1);
                }
                Read::Subset(i) => self
                    .subset
                    .push(timed("store.subset_bc", || store.subset_bc(&subsets[i])).1),
                Read::TopK => {
                    let full = store.full_bc();
                    self.top_k
                        .push(timed("core.top_k", || postprocess::top_k(&full, TOP_K as usize)).1);
                }
                Read::Bc(_) => {}
            }
        }
    }

    fn report(&self, m: &mut Metrics) {
        m.set("store.forward_hit_us", median(&self.forward_hit), "us");
        m.set("store.forward_miss_us", median(&self.forward_miss), "us");
        m.set("store.subset_bc_ms", median(&self.subset) / 1e3, "ms");
        m.set("core.top_k_us", median(&self.top_k), "us");
        m.set("store.mutate_us", median(&self.mutate), "us");
    }
}

/// Reads of a static-graph run replayed against a fresh warm store.
pub fn store_static(m: &mut Metrics, g: &CsrGraph, subsets: &[[VertexId; 2]], reads: &[Observed]) {
    let store = EpochStore::new(g.clone(), BcConfig::default());
    store.full_bc();
    let mut s = StoreSamples::default();
    s.reads(&store, subsets, reads);
    s.report(m);
}

/// Sources per mutation whose forward and backward passes are timed.
const TIMED_SOURCES: usize = 8;

/// The traced churn replay: times each mutation layer by layer on the
/// oracle's own engine, and mirrors the stream into an `EpochStore`.
pub struct ChurnHooks<'a> {
    store: EpochStore,
    subsets: &'a [[VertexId; 2]],
    pub store_samples: StoreSamples,
    edit: Vec<f64>,
    cone: Vec<f64>,
    fwd: Vec<f64>,
    bwd: Vec<f64>,
    apply: Vec<f64>,
    refold: Vec<f64>,
    affected: Vec<f64>,
    outcomes: Vec<IncrOutcome>,
}

impl<'a> ChurnHooks<'a> {
    pub fn new(boot: &CsrGraph, subsets: &'a [[VertexId; 2]]) -> Self {
        let store = EpochStore::new(boot.clone(), BcConfig::default());
        store.full_bc();
        ChurnHooks {
            store,
            subsets,
            store_samples: StoreSamples::default(),
            edit: Vec::new(),
            cone: Vec::new(),
            fwd: Vec::new(),
            bwd: Vec::new(),
            apply: Vec::new(),
            refold: Vec::new(),
            affected: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    pub fn report(&self, m: &mut Metrics) {
        self.store_samples.report(m);
        let apply = sorted(&self.apply);
        m.set("graph.edit_us", median(&self.edit), "us");
        m.set("incr.apply_us.p50", percentile(&apply, 50.0), "us");
        m.set("incr.apply_us.p95", percentile(&apply, 95.0), "us");
        m.set("incr.cone_us", median(&self.cone), "us");
        m.set("incr.forward_us_per_source", median(&self.fwd), "us");
        m.set("incr.backward_us_per_source", median(&self.bwd), "us");
        m.set("incr.refold_us", median(&self.refold), "us");
        m.set("incr.affected_frac.p50", median(&self.affected), "ratio");
        let reused: u64 = self.outcomes.iter().map(|o| o.sources_reused).sum();
        let rebuilt: u64 = self.outcomes.iter().map(|o| o.sources_rebuilt).sum();
        if reused + rebuilt > 0 {
            m.set(
                "incr.reuse_ratio",
                reused as f64 / (reused + rebuilt) as f64,
                "ratio",
            );
        }
        if !self.outcomes.is_empty() {
            let fallbacks = self.outcomes.iter().filter(|o| o.fallback_full).count();
            m.set(
                "incr.fallback_frac",
                fallbacks as f64 / self.outcomes.len() as f64,
                "ratio",
            );
        }
    }
}

impl ReplayHooks for ChurnHooks<'_> {
    fn epoch(&mut self, _replay: &Replay, reads: &[Observed]) {
        self.store_samples.reads(&self.store, self.subsets, reads);
    }

    fn mutation(&mut self, replay: &mut Replay, m: Mutation) -> IncrOutcome {
        let (op, u, v) = m;
        let (_, store_us) = timed("store.mutate", || self.store.mutate(op, u, v));
        self.store_samples.mutate.push(store_us);
        self.store_samples.seen.clear();
        let (g2, edit_us) = timed("graph.edit", || inputs::edit(&replay.g, m));
        let n = g2.num_vertices() as VertexId;
        let eop = crate::check::edge_op(op);
        let (affected, cone_us) = timed("incr.cone", || {
            (0..n)
                .filter(|&s| source_affected(&replay.engine.source(s).dist, eop, u, v))
                .collect::<Vec<_>>()
        });
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        for &s in affected.iter().take(TIMED_SOURCES) {
            let ((dist, sigma), f) = timed("incr.forward", || brandes::forward_counts(&g2, s));
            let (_, b) = timed("incr.backward", || canonical_backward(&g2, &dist, &sigma));
            fwd.push(f);
            bwd.push(b);
        }
        // The oracle's own step, on the graph timed above.
        let (outcome, apply_us) = timed("incr.apply", || replay.step(m, g2));
        let per_source = mean(&fwd) + mean(&bwd);
        self.refold
            .push(apply_us - cone_us - outcome.sources_rebuilt as f64 * per_source);
        self.edit.push(edit_us);
        self.cone.push(cone_us);
        self.fwd.extend(fwd);
        self.bwd.extend(bwd);
        self.apply.push(apply_us);
        self.affected.push(outcome.affected as f64 / f64::from(n));
        self.outcomes.push(outcome);
        outcome
    }
}

/// Engine build (the sequential canonical kernel over every source) and
/// the simulated driver over every source: the named baselines.
pub fn baselines(m: &mut Metrics, boot: &CsrGraph, last: &CsrGraph, driver: Option<f64>) {
    let (_, build_us) = timed("incr.build", || IncrEngine::build(boot));
    let (_, rebuild_us) = timed("incr.build", || IncrEngine::build(last));
    let n = boot.num_vertices() as f64;
    m.set("incr.build_ms", build_us / 1e3, "ms");
    m.set("incr.full_rebuild_ms", rebuild_us / 1e3, "ms");
    m.set("incr.artifact_bytes", n * n * 20.0, "bytes");
    let driver_ms = driver.unwrap_or_else(|| {
        let sources: Vec<VertexId> = (0..boot.num_vertices() as VertexId).collect();
        timed("core.driver_bc", || {
            bc(boot, &sources, &BcConfig::default())
        })
        .1 / 1e3
    });
    m.set("core.driver_bc_ms", driver_ms, "ms");
}

/// Partition time and BSP counters of one driver call under `cfg`.
pub fn dgalois_metrics(m: &mut Metrics, g: &CsrGraph, cfg: &BcConfig, stats: &BspStats) {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            timed("dgalois.partition", || {
                partition(g, cfg.num_hosts, cfg.partition)
            })
            .1
        })
        .collect();
    m.set("dgalois.partition_ms", median(&times) / 1e3, "ms");
    m.set("dgalois.messages", stats.total_messages() as f64, "count");
    m.set("dgalois.bytes", stats.total_bytes() as f64, "bytes");
    m.set("dgalois.load_imbalance", stats.load_imbalance(), "ratio");
    m.set("bsp_rounds", f64::from(stats.num_rounds()), "count");
}

/// `DurableLog::append_durable` timed alone on a scratch directory with
/// the pool's group-commit window, over (a prefix of) the acked stream.
pub fn wal_metrics(m: &mut Metrics, acked: &[Mutation], scratch: &Path, wal_bytes: u64) -> f64 {
    const APPENDS: usize = 100;
    if acked.is_empty() {
        return 0.0;
    }
    drop(std::fs::remove_dir_all(scratch));
    let cfg = WalConfig {
        flush_interval_ms: PoolConfig::default().wal_flush_ms,
        ..WalConfig::default()
    };
    let mut samples = Vec::new();
    if let Ok((log, _)) = DurableLog::open(scratch, cfg) {
        for &(op, u, v) in acked.iter().take(APPENDS) {
            let (r, us) = timed("wal.append_durable", || log.append_durable(op, u, v));
            if r.is_ok() {
                samples.push(us);
            }
        }
    }
    drop(std::fs::remove_dir_all(scratch));
    let s = sorted(&samples);
    m.set("wal.append_durable_us.p50", percentile(&s, 50.0), "us");
    m.set("wal.append_durable_us.p99", percentile(&s, 99.0), "us");
    m.set(
        "wal.bytes_per_mutation",
        wal_bytes as f64 / acked.len() as f64,
        "bytes",
    );
    percentile(&s, 50.0)
}

/// Aggregate of one span name in the trace.
#[derive(Clone, Copy, Default, Debug)]
pub struct SpanRow {
    pub count: u64,
    pub total_us: u64,
    pub self_us: u64,
}

fn trace_arg(e: &TraceEvent) -> u64 {
    e.args
        .iter()
        .find(|(k, _)| *k == "trace")
        .map_or(0, |a| a.1)
}

/// Self time per span name. Spans opened by this benchmark on its main
/// track run with nothing else active, so every span inside one of them
/// is its descendant by containment. Spans of the live window are
/// linked by trace id instead: client span → `pool.route` →
/// `serve.query`. Any other span's self time is its duration.
pub fn span_table(events: &[TraceEvent]) -> BTreeMap<&'static str, SpanRow> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].ts_us, std::cmp::Reverse(events[i].dur_us)));
    let mut child_us = vec![0u64; events.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let e = &events[i];
        while let Some(&top) = stack.last() {
            let t = &events[top];
            // 1 µs of slack: `span_at` and `span` round independently.
            if e.ts_us + e.dur_us <= t.ts_us + t.dur_us + 1 && e.ts_us >= t.ts_us {
                break;
            }
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            child_us[top] += e.dur_us;
            stack.push(i);
        } else if e.tid == MAIN_TID {
            stack.push(i);
        }
    }
    // Trace-linked live spans.
    let mut by_trace: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let t = trace_arg(e);
        if t != 0 {
            by_trace.entry(t).or_default().push(i);
        }
    }
    // The pool broadcasts a mutation to its workers without a trace
    // context; with one client, the route span containing such a worker
    // execution is the one that caused it.
    let routes = starts_of(events, "pool.route");
    for e in events {
        if e.name == "serve.query" && trace_arg(e) == 0 {
            if let Some(r) = containing(events, &routes, e) {
                child_us[r] += e.dur_us;
            }
        }
    }
    for ids in by_trace.values() {
        let sum = |name: &str| -> u64 {
            ids.iter()
                .filter(|&&i| events[i].name == name)
                .map(|&i| events[i].dur_us)
                .sum()
        };
        let (query, route) = (sum("serve.query"), sum("pool.route"));
        for &i in ids {
            match events[i].name {
                "pool.route" => child_us[i] += query,
                _ if events[i].tid >= CLIENT_TID && events[i].tid < MAIN_TID => {
                    child_us[i] += if route > 0 { route } else { query }
                }
                _ => {}
            }
        }
    }
    let mut rows: BTreeMap<&'static str, SpanRow> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let r = rows.entry(e.name).or_default();
        r.count += 1;
        r.total_us += e.dur_us;
        r.self_us += e.dur_us.saturating_sub(child_us[i]);
    }
    rows
}

/// Indices of the spans called `name`, by start time.
fn starts_of(events: &[TraceEvent], name: &str) -> Vec<usize> {
    let mut v: Vec<usize> = (0..events.len())
        .filter(|&i| events[i].name == name)
        .collect();
    v.sort_by_key(|&i| events[i].ts_us);
    v
}

/// The span among `candidates` (sorted by start) whose interval holds `e`.
fn containing(events: &[TraceEvent], candidates: &[usize], e: &TraceEvent) -> Option<usize> {
    let k = candidates.partition_point(|&i| events[i].ts_us <= e.ts_us);
    let &i = candidates[..k].last()?;
    let c = &events[i];
    (e.ts_us + e.dur_us <= c.ts_us + c.dur_us + 1).then_some(i)
}

/// Which layer a span belongs to, for the table.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "serve.query" | "serve.session" | "pool.route" => "serve",
        "batch.forward" | "batch.backward" => "core",
        "compute" | "sync" | "rollback" => "dgalois",
        n if n.starts_with("exchange.") => "dgalois",
        n if n.starts_with("client.") || n == "offline.bc" => "benchmark",
        n => match n.split('.').next() {
            Some("graph") => "graph",
            Some("incr") => "incr",
            Some("store") => "serve",
            Some("proto") => "serve",
            Some("core") => "core",
            Some("wal") => "util::wal",
            Some("dgalois") => "dgalois",
            _ => "other",
        },
    }
}

/// Per-mutation broadcast time, an estimate: ack − worker `Mutate`
/// executions − WAL wait, clamped at 0, median over the window. The
/// executions are the `serve.query` spans inside the client's span (the
/// churn workloads have one client), counted as the union of their
/// intervals, so workers that run one after another add up and workers
/// that overlap count once. The pool emits no span for its own durable
/// wait, so the WAL wait is `wal_p50`, the median `append_durable` of a
/// separate run with the pool's group-commit window.
pub fn broadcast_us(events: &[TraceEvent], wal_p50: f64) -> f64 {
    let mutates = starts_of(events, "client.mutate");
    let mut execs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); events.len()];
    for e in events.iter().filter(|e| e.name == "serve.query") {
        if let Some(c) = containing(events, &mutates, e) {
            execs[c].push((e.ts_us, e.ts_us + e.dur_us));
        }
    }
    let acks: Vec<f64> = mutates
        .iter()
        .map(|&i| (events[i].dur_us as f64 - union_us(&mut execs[i]) - wal_p50).max(0.0))
        .collect();
    median(&acks)
}

/// Total length of the union of `[start, end)` intervals.
fn union_us(intervals: &mut [(u64, u64)]) -> f64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, 0);
    for &(start, end) in intervals.iter() {
        let from = start.max(reach);
        if end > from {
            total += end - from;
            reach = end;
        }
    }
    total as f64
}

/// Writes the trace as Perfetto JSON and returns the per-span table.
pub fn export_trace(dir: &Path, stem: &str, rec: &obs::Recorder) -> String {
    let rows = span_table(rec.events());
    let mut text = String::from("layer\tspan\tcount\ttotal_us\tself_us\n");
    for (name, r) in &rows {
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            layer_of(name),
            name,
            r.count,
            r.total_us,
            r.self_us
        ));
    }
    drop(std::fs::write(
        dir.join(format!("{stem}.trace.json")),
        rec.to_chrome_trace_json(),
    ));
    text
}
