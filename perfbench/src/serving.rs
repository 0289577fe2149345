//! The serving workloads' live phase: an in-process daemon or pool, and
//! closed-loop clients that time every call from the outside.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mrbc_core::BcConfig;
use mrbc_graph::CsrGraph;
use mrbc_obs as obs;
use mrbc_serve::{
    start, start_pool, ClientError, DurableLog, Pool, PoolConfig, PoolStats, Request, Response,
    SchedConfig, ServeClient, ServeConfig, ServeStats, Server, TraceCtx, WorkerSpawn,
};
use mrbc_util::wal::WalConfig;

use crate::check::{self, Observed};
use crate::inputs::{self, ChurnStream, Mutation, ReadMix, Shape, N};

/// Closed-loop client connections of `serve-read`.
const READ_CLIENTS: usize = 2;
/// Reads after each acknowledged mutation in the churn workloads.
const READS_PER_MUTATION: usize = 3;
/// The churn end-to-end metrics cover exactly the first this many
/// mutations (with their reads), so every run and every version of the
/// program times the same operations of a seed's stream. A run keeps
/// going past `--seconds` until it has them; 200 also leaves p95 ten
/// samples beyond it.
pub const MIN_MUTATIONS: usize = 200;
/// Hard stop for that extension, so a traced run (two windows plus their
/// replays) stays well inside three minutes.
const MAX_EXTENSION: Duration = Duration::from_secs(20);
/// Track ids of the benchmark's own spans (the program uses 0..hosts).
pub const CLIENT_TID: u32 = 1000;

/// Response kinds whose encoding the proto layer replays.
pub const KINDS: [&str; 5] = ["path_info", "bc_score", "top_k", "subset_bc", "mutate"];

fn kind_of(req: &Request) -> usize {
    match req {
        Request::PathInfo { .. } => 0,
        Request::BcScore { .. } => 1,
        Request::TopK { .. } => 2,
        Request::SubsetBc { .. } => 3,
        _ => 4,
    }
}

/// What one timed window produced.
#[derive(Default)]
pub struct Live {
    pub wall_s: f64,
    /// Client-observed read latencies, µs; a failed read counts as the
    /// whole window (it misses every latency limit).
    pub reads: Vec<f64>,
    /// Kind index (into [`KINDS`]) of each entry of `reads`.
    pub read_kinds: Vec<usize>,
    /// `Mutate` → `Mutated` latencies, µs.
    pub mutations: Vec<f64>,
    /// Seconds from the start of the window until the first
    /// [`MIN_MUTATIONS`] mutations and their reads were done (the whole
    /// window if it ended before).
    pub counted_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Failure and mismatch descriptions.
    pub errors: Vec<String>,
    pub observed: Vec<Observed>,
    pub acked: Vec<Mutation>,
    /// Daemon counters after warm-up and at the end of the window.
    pub stats_before: ServeStats,
    pub stats_after: ServeStats,
    pub pool: PoolStats,
    /// One response of each kind, for the proto replay.
    pub samples: Vec<Option<Response>>,
    pub wal_bytes: u64,
    pub rss_mb: f64,
}

impl Live {
    /// Counts a failed operation; returns the latency it is recorded
    /// with, the whole window.
    fn fail(&mut self, msg: String) -> f64 {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
        self.wall_s.max(1.0) * 1e6
    }
}

fn call(
    client: &mut ServeClient,
    req: &Request,
    traced: bool,
    tid: u32,
    name: &'static str,
) -> (Result<Response, ClientError>, f64) {
    let ctx = if traced {
        TraceCtx::root()
    } else {
        TraceCtx::NONE
    };
    let span = obs::span_on(name, "perfbench", tid).arg("trace", ctx.trace);
    let t = Instant::now();
    let resp = client.call_traced(ctx, req);
    let us = t.elapsed().as_secs_f64() * 1e6;
    drop(span);
    (resp, us)
}

/// Pins one read at `epoch`, records its latency and answer.
fn read_once(
    out: &mut Live,
    client: &mut ServeClient,
    mix: &mut ReadMix,
    epoch: u64,
    traced: bool,
    tid: u32,
) {
    let read = mix.next_read();
    let req = mix.request(read, epoch);
    let kind = kind_of(&req);
    out.attempted += 1;
    let (resp, us) = call(client, &req, traced, tid, "client.read");
    let answer = resp.map_err(|e| e.to_string()).and_then(|r| {
        let a = check::answer_of(read, &r, epoch);
        out.samples[kind].get_or_insert(r);
        a
    });
    let lat = match answer {
        Ok(answer) => {
            out.observed.push(Observed {
                epoch,
                read,
                answer,
            });
            us
        }
        Err(e) => out.fail(e),
    };
    out.reads.push(lat);
    out.read_kinds.push(kind);
}

fn connect(addr: std::net::SocketAddr) -> Result<ServeClient, String> {
    ServeClient::connect(addr).map_err(|e| format!("connect: {e}"))
}

/// Warm-up: the first full-BC answer builds the incremental engine.
fn warm(client: &mut ServeClient) -> Result<(), String> {
    client
        .bc_score(0, 0)
        .map(|_| ())
        .map_err(|e| format!("warm-up: {e}"))
}

// ---------------------------------------------------------------------
// serve-read
// ---------------------------------------------------------------------

pub struct ReadDaemon {
    pub server: Server,
    pub graph: CsrGraph,
}

/// Generation + daemon start + warm-up until the first full-BC answer.
pub fn setup_read(seed: u64) -> Result<(ReadDaemon, f64), String> {
    let t = Instant::now();
    let graph = inputs::graph(Shape::PowerLaw, seed);
    let server = start(graph.clone(), ServeConfig::default()).map_err(|e| format!("start: {e}"))?;
    warm(&mut connect(server.local_addr())?)?;
    Ok((ReadDaemon { server, graph }, t.elapsed().as_secs_f64()))
}

pub fn run_read(d: &mut ReadDaemon, seed: u64, seconds: f64, traced: bool) -> Result<Live, String> {
    let addr = d.server.local_addr();
    let mut admin = connect(addr)?;
    let epoch = admin.welcome().epoch;
    let stats_before = admin.stats().map_err(|e| e.to_string())?;
    let mut clients = (0..READ_CLIENTS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let parts: Vec<Live> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                scope.spawn(move || {
                    let mut mix = ReadMix::new(seed, i as u64);
                    let mut out = Live {
                        wall_s: seconds,
                        samples: vec![None; KINDS.len()],
                        ..Live::default()
                    };
                    while Instant::now() < deadline {
                        read_once(
                            &mut out,
                            client,
                            &mut mix,
                            epoch,
                            traced,
                            CLIENT_TID + i as u32,
                        );
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = Live {
        wall_s: start.elapsed().as_secs_f64(),
        rss_mb: crate::stats::peak_rss_mb(),
        stats_before,
        samples: vec![None; KINDS.len()],
        ..Live::default()
    };
    for p in parts {
        out.reads.extend(p.reads);
        out.read_kinds.extend(p.read_kinds);
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.errors.extend(p.errors);
        out.observed.extend(p.observed);
        for (slot, s) in out.samples.iter_mut().zip(p.samples) {
            if slot.is_none() {
                *slot = s;
            }
        }
    }
    out.stats_after = admin.stats().map_err(|e| e.to_string())?;
    Ok(out)
}

// ---------------------------------------------------------------------
// churn-powerlaw / churn-road
// ---------------------------------------------------------------------

pub struct ChurnDaemon {
    pub pool: Pool,
    pub stream: ChurnStream,
    pub boot: CsrGraph,
    /// The pool's WAL directory, when it runs with one.
    pub wal_dir: Option<PathBuf>,
}

/// Generation + pool start (2 in-process workers; with `wal_dir`, a WAL
/// at the default group-commit window) + warm-up until the first full-BC
/// answer.
pub fn setup_churn(
    shape: Shape,
    seed: u64,
    wal_dir: Option<&Path>,
) -> Result<(ChurnDaemon, f64), String> {
    if let Some(dir) = wal_dir {
        drop(std::fs::remove_dir_all(dir));
    }
    let t = Instant::now();
    let (stream, boot) = ChurnStream::new(&inputs::graph(shape, seed), seed);
    let spawn = WorkerSpawn::InProcess {
        graph: boot.clone(),
        bc: Box::new(BcConfig::default()),
        sched: SchedConfig::default(),
    };
    let cfg = PoolConfig {
        workers: 2,
        wal_dir: wal_dir.map(Path::to_path_buf),
        ..PoolConfig::default()
    };
    let pool = start_pool(spawn, cfg).map_err(|e| format!("pool start: {e}"))?;
    warm(&mut connect(pool.local_addr())?)?;
    let d = ChurnDaemon {
        pool,
        stream,
        boot,
        wal_dir: wal_dir.map(Path::to_path_buf),
    };
    Ok((d, t.elapsed().as_secs_f64()))
}

/// One client alternating an applied mutation with reads pinned to the
/// acknowledged epoch. Returns the window plus the daemon's final BC
/// vector (read back through `top_k(n)`).
pub fn run_churn(
    d: &mut ChurnDaemon,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Live, Vec<f64>), String> {
    let mut client = connect(d.pool.local_addr())?;
    let mut epoch = client.welcome().epoch;
    let mut mix = ReadMix::new(seed, 0);
    let mut out = Live {
        stats_before: client.stats().map_err(|e| e.to_string())?,
        samples: vec![None; KINDS.len()],
        wall_s: seconds,
        ..Live::default()
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let hard_stop = deadline + MAX_EXTENSION;
    loop {
        let now = Instant::now();
        if (now >= deadline && out.mutations.len() >= MIN_MUTATIONS) || now >= hard_stop {
            break;
        }
        let (op, u, v) = d.stream.next_op();
        let req = Request::Mutate { op, u, v };
        out.attempted += 1;
        let (resp, us) = call(&mut client, &req, traced, CLIENT_TID, "client.mutate");
        match resp {
            Ok(
                r @ Response::Mutated {
                    epoch: e,
                    applied: true,
                },
            ) if e == epoch + 1 => {
                out.mutations.push(us);
                epoch = e;
                out.acked.push((op, u, v));
                out.samples[4].get_or_insert(r);
            }
            other => {
                // The stream only issues applicable mutations, so a
                // refusal or `applied = false` leaves the daemon's graph
                // unknown: stop here.
                let lat = out.fail(format!(
                    "mutate {op:?} ({u}, {v}) at epoch {epoch}: {other:?}"
                ));
                out.mutations.push(lat);
                break;
            }
        }
        for _ in 0..READS_PER_MUTATION {
            read_once(&mut out, &mut client, &mut mix, epoch, traced, CLIENT_TID);
        }
        if out.mutations.len() == MIN_MUTATIONS {
            out.counted_s = start.elapsed().as_secs_f64();
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    if out.counted_s == 0.0 {
        out.counted_s = out.wall_s;
    }
    out.rss_mb = crate::stats::peak_rss_mb();
    out.stats_after = client.stats().map_err(|e| e.to_string())?;
    out.pool = d.pool.pool_stats();
    let (_, entries) = client
        .top_k(epoch, N as u32)
        .map_err(|e| format!("final top_k: {e}"))?;
    let mut final_bc = vec![f64::NAN; N];
    for (v, s) in entries {
        final_bc[v as usize] = s;
    }
    out.wal_bytes = d.wal_dir.as_deref().map_or(0, crate::stats::dir_bytes);
    Ok((out, final_bc))
}

impl Drop for ChurnDaemon {
    fn drop(&mut self) {
        self.pool.shutdown();
        if let Some(dir) = &self.wal_dir {
            drop(std::fs::remove_dir_all(dir));
        }
    }
}

/// Stops the pool, then cold-opens its WAL directory and checks that
/// every acknowledged mutation is recovered, in order. A pool without a
/// WAL has nothing to recover.
pub fn stop_and_recover(mut d: ChurnDaemon, acked: &[Mutation]) -> Result<(), String> {
    d.pool.shutdown();
    let Some(dir) = &d.wal_dir else {
        return Ok(());
    };
    DurableLog::open(dir, WalConfig::default())
        .map_err(|e| format!("cold WAL open: {e}"))
        .and_then(|(_, rec)| check::recovered_matches(acked, &rec.mutations))
}
