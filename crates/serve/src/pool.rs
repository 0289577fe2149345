//! Supervised serve-worker pool: routing front-end, failure detection,
//! respawn, and failover.
//!
//! A [`Pool`] is a front-end daemon that speaks the exact same wire
//! protocol as a single [`crate::server::Server`], but answers by
//! routing every query to one of `W` serve-worker backends, each a full
//! daemon holding the whole graph. Source-scoped queries are routed by
//! **source-range affinity** — contiguous vertex ranges, the same
//! blocked split `BlockedEdgeCut` partitioning uses — so each worker's
//! per-source forward caches stay hot for its range. Affinity is *not*
//! data partitioning: any worker can answer any query, which is exactly
//! what makes failover a re-route instead of a data migration. A
//! `SubsetBc` goes whole to the shard owner of its smallest source:
//! per-source contributions compose exactly only in exact arithmetic
//! (Crescenzi–Fraigniaud–Paz), and summing per-shard f64 partial
//! vectors would re-associate the fold and drift from a single
//! daemon's bits.
//!
//! Supervision reuses the [`mrbc_net::detector`] heartbeat machinery:
//! the supervisor thread probes each worker on the detector's beat
//! schedule; any response is liveness evidence. A worker is declared
//! down on either hard evidence (its TCP connection died) or silence
//! (the detector's `Dead` verdict, which catches `SIGSTOP`-style
//! freezes). Down workers are killed for certain, respawned, re-driven
//! through the `Hello` handshake, and brought to the current epoch by
//! replaying the mutation log; in-flight requests they held fail over
//! to a sibling, and requests that exhaust every sibling or the
//! dispatch deadline surface as [`Response::Retry`] — **never a hang**.
//!
//! The failover state machine per worker:
//!
//! ```text
//!            probes answered                 conn EOF / detector Dead
//!   Ready ─────────────────────▶ Ready ────────────────────────────▶ Down
//!     ▲                                                               │
//!     │   respawn → handshake → replay mutation log → reset detector  │
//!     └───────────────────────────────────────────────────────────────┘
//! ```
//!
//! Chaos clauses from the shared fault DSL are executed here for real:
//! `kill:worker=R@query=N` SIGKILLs worker `R` once the router has
//! dispatched `N` queries to it, and `pause:worker=R:ms=D` freezes it
//! with `SIGSTOP`/`SIGCONT` (process backends only).

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mrbc_core::BcConfig;
use mrbc_faults::{ChurnFault, FaultPlan};
use mrbc_graph::CsrGraph;
use mrbc_net::detector::{DetectorConfig, HeartbeatDetector, PeerStatus};
use mrbc_net::mesh::now_ms;
use mrbc_obs as obs;
use mrbc_util::framing::{self, EnvelopeDecoder};
use mrbc_util::wal::{WalConfig, WalError};

use crate::durable::DurableLog;
use crate::proto::{
    decode_request, decode_response, encode_request, encode_response, MutateOp, Request, Response,
    ServeStats, TraceCtx,
};
use crate::sched::SchedConfig;
use crate::server::{start, ServeConfig, Server};

/// How long pump loops sleep when idle.
const PUMP_IDLE: Duration = Duration::from_millis(1);
/// Supervisor pump period.
const SUPERVISE_EVERY: Duration = Duration::from_millis(5);
/// Deadline for a respawned worker to print its readiness line.
const SPAWN_READY_MS: u64 = 30_000;
/// Deadline for the worker-side `Hello` handshake and log replay steps.
const HANDSHAKE_MS: u64 = 30_000;

/// How the pool obtains its worker backends.
pub enum WorkerSpawn {
    /// Spawn real child processes. The closure builds the `Command` for
    /// each rank; the child must print `SERVE <addr>` on stdout once it
    /// is listening (the `mrbc-cli serve` readiness contract).
    Process(Box<dyn FnMut(usize) -> Command + Send>),
    /// Run workers as in-process [`Server`]s (one thread-pool each).
    /// Used by integration tests, where spawning subprocesses is not
    /// available; "kill" degrades to an abrupt server shutdown.
    InProcess {
        /// The graph every worker loads.
        graph: CsrGraph,
        /// Ignored: workers answer from the canonical kernel, which is
        /// bit-identical to the driver at any configuration. Kept only
        /// for callers' source compatibility.
        bc: Box<BcConfig>,
        /// Worker scheduler knobs.
        sched: SchedConfig,
    },
}

/// Pool configuration.
pub struct PoolConfig {
    /// Front-end bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of serve workers (≥ 1).
    pub workers: usize,
    /// Heartbeat/failure-detection timing.
    pub detector: DetectorConfig,
    /// End-to-end deadline for routing one query, including failover
    /// attempts; expiry surfaces as `Retry { after_ms }`.
    pub dispatch_timeout_ms: u64,
    /// The `after_ms` hint carried by emitted `Retry` responses.
    pub retry_after_ms: u32,
    /// When set, a query unanswered for this long is hedged: dispatched
    /// a second time to a sibling worker, first answer wins.
    pub hedge_after_ms: Option<u64>,
    /// Chaos clauses (`kill:worker=`, `pause:worker=`, `torn:wal@rec=`,
    /// `fsyncfail:ms=`) executed by the supervisor and the WAL.
    pub faults: Option<FaultPlan>,
    /// Write-ahead-log directory. When set, every acknowledged mutation
    /// is fsync-covered before its `Mutated` reply leaves the front-end,
    /// and a restarted front-end recovers snapshot + log replay to the
    /// exact pre-crash epoch. `None` = legacy in-memory-only mode.
    pub wal_dir: Option<PathBuf>,
    /// Group-commit flush interval for the WAL, milliseconds
    /// (0 = fsync per mutation).
    pub wal_flush_ms: u64,
    /// Snapshot + compact the WAL once this many mutations have been
    /// appended since the last snapshot.
    pub wal_snapshot_every: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            detector: DetectorConfig::default(),
            dispatch_timeout_ms: 60_000,
            retry_after_ms: 100,
            hedge_after_ms: None,
            faults: None,
            wal_dir: None,
            wal_flush_ms: 5,
            wal_snapshot_every: 64,
        }
    }
}

/// Pool-level counters (distinct from per-worker [`ServeStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Client sessions accepted by the front-end.
    pub sessions: u64,
    /// Queries routed to workers (excludes Hello/Stats/Shutdown).
    pub routed: u64,
    /// `Retry` responses emitted (deadline or no live worker).
    pub retries_emitted: u64,
    /// Requests re-routed to a sibling after a worker died mid-flight.
    pub failovers: u64,
    /// Straggler queries hedged to a sibling.
    pub hedges: u64,
    /// Workers respawned by the supervisor.
    pub respawns: u64,
    /// Mutations replayed into respawned workers during recovery.
    pub replayed_mutations: u64,
    /// `churn:` storm mutations driven so far (acknowledged or refused
    /// by validation — either way the storm step completed).
    pub churn_driven: u64,
    /// Total storm size from the `churn:` clause (0 = no churn).
    pub churn_total: u64,
}

#[derive(Default)]
struct PoolCounters {
    sessions: AtomicU64,
    routed: AtomicU64,
    retries_emitted: AtomicU64,
    failovers: AtomicU64,
    hedges: AtomicU64,
    respawns: AtomicU64,
    replayed_mutations: AtomicU64,
    churn_driven: AtomicU64,
    churn_total: AtomicU64,
}

impl PoolCounters {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            sessions: self.sessions.load(Ordering::Relaxed),
            routed: self.routed.load(Ordering::Relaxed),
            retries_emitted: self.retries_emitted.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            hedges: self.hedges.load(Ordering::Relaxed),
            respawns: self.respawns.load(Ordering::Relaxed),
            replayed_mutations: self.replayed_mutations.load(Ordering::Relaxed),
            churn_driven: self.churn_driven.load(Ordering::Relaxed),
            churn_total: self.churn_total.load(Ordering::Relaxed),
        }
    }
}

/// What a waiter learns about its dispatched request.
enum WorkerReply {
    /// The worker answered.
    Answer(Response),
    /// The worker's connection died with the request in flight.
    ConnDead,
}

/// A unit of work for a connection's dedicated writer thread.
enum WriteCmd {
    /// A sealed frame to put on the wire.
    Frame(Vec<u8>),
    /// Stop the writer thread (connection teardown).
    Quit,
}

/// One live TCP connection to a worker: a queue into a dedicated writer
/// thread (so no caller ever blocks on socket I/O under a lock), a
/// pending-reply map, and a reader thread that resolves replies and
/// drains the map with [`WorkerReply::ConnDead`] when the stream dies.
struct WorkerConn {
    /// Queue into the writer thread, which owns the write half.
    write_tx: mpsc::Sender<WriteCmd>,
    /// The underlying socket, kept only so [`WorkerConn::sever`] can
    /// `shutdown` it (which takes `&self`); all writes go via the
    /// writer thread's own clone.
    sock: TcpStream,
    pending: Mutex<HashMap<u64, mpsc::Sender<WorkerReply>>>,
    conn_alive: AtomicBool,
    reader: Mutex<Option<JoinHandle<()>>>,
    writer: Mutex<Option<JoinHandle<()>>>,
}

impl WorkerConn {
    /// Registers interest in `id`, then enqueues the sealed request
    /// carrying `ctx` for the writer thread. On a dead queue (writer
    /// thread gone) the registration is rolled back. A socket-level
    /// write failure surfaces asynchronously: the writer thread severs
    /// the stream, the reader notices, and the waiter gets
    /// [`WorkerReply::ConnDead`].
    fn send(
        &self,
        id: u64,
        ctx: TraceCtx,
        req: &Request,
        tx: mpsc::Sender<WorkerReply>,
    ) -> io::Result<()> {
        if !self.conn_alive.load(Ordering::SeqCst) {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "worker down"));
        }
        if let Ok(mut p) = self.pending.lock() {
            p.insert(id, tx);
        }
        let bytes = framing::seal(&encode_request(id, ctx, req));
        let res = self
            .write_tx
            .send(WriteCmd::Frame(bytes))
            .map_err(|_| io::Error::new(io::ErrorKind::NotConnected, "writer gone"));
        if res.is_err() {
            if let Ok(mut p) = self.pending.lock() {
                p.remove(&id);
            }
            self.conn_alive.store(false, Ordering::SeqCst);
        }
        res
    }

    /// Marks the connection dead and fails every in-flight request so
    /// its waiter can fail over instead of sleeping out its deadline.
    /// Also tells the writer thread to exit.
    fn drain_dead(&self) {
        self.conn_alive.store(false, Ordering::SeqCst);
        drop(self.write_tx.send(WriteCmd::Quit));
        if let Ok(mut p) = self.pending.lock() {
            for (_, tx) in p.drain() {
                drop(tx.send(WorkerReply::ConnDead));
            }
        }
    }

    /// [`WorkerConn::drain_dead`] plus a hard socket shutdown, so the
    /// reader thread's blocking `read` returns immediately.
    fn sever(&self) {
        self.drain_dead();
        drop(self.sock.shutdown(std::net::Shutdown::Both));
    }
}

/// The worker process/server behind a slot.
enum Backend {
    /// Not currently running (between death and respawn).
    Down,
    /// A real child process.
    Child(Child),
    /// An in-process server (test mode).
    InProc(Box<Server>),
}

impl Backend {
    /// Kills the backend for certain (SIGKILL for processes).
    fn kill(&mut self) {
        match std::mem::replace(self, Backend::Down) {
            Backend::Down => {}
            Backend::Child(mut child) => {
                drop(child.kill());
                drop(child.wait());
            }
            Backend::InProc(mut server) => server.shutdown(),
        }
    }

    /// Waits up to `timeout_ms` for a child process to exit on its own
    /// (after a protocol goodbye), so the worker's `--trace` /
    /// `--flight-dir` exports finish before any hard kill. Returns true
    /// once the backend is gone.
    fn wait_graceful(&mut self, timeout_ms: u64) -> bool {
        let Backend::Child(child) = self else {
            return false;
        };
        let deadline = now_ms() + timeout_ms;
        loop {
            match child.try_wait() {
                Ok(Some(_)) => {
                    *self = Backend::Down;
                    return true;
                }
                Ok(None) => {}
                Err(_) => return false,
            }
            if now_ms() >= deadline {
                return false;
            }
            thread::sleep(Duration::from_millis(10));
        }
    }

    /// The OS pid, for signal-based chaos clauses.
    fn pid(&self) -> Option<u32> {
        match self {
            Backend::Child(c) => Some(c.id()),
            _ => None,
        }
    }
}

/// Per-worker supervision state.
struct WorkerSlot {
    conn: Mutex<Option<Arc<WorkerConn>>>,
    backend: Mutex<Backend>,
    /// Queries the router has dispatched to this worker (drives the
    /// `kill:worker=R@query=N` trigger).
    dispatched: AtomicU64,
}

struct PoolShared {
    workers: usize,
    dispatch_timeout_ms: u64,
    retry_after_ms: u32,
    hedge_after_ms: Option<u64>,
    slots: Vec<WorkerSlot>,
    detector: Mutex<HeartbeatDetector>,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    /// Highest epoch observed in worker answers (served in `Welcome`).
    epoch: AtomicU64,
    /// `(vertices, edges)` from the first worker handshake.
    graph_info: Mutex<(u64, u64)>,
    /// Every mutation ever accepted, in acceptance order. Guards both
    /// append+broadcast and replay+reattach, so a respawning worker can
    /// never miss or reorder a mutation. Seeded from the WAL on a
    /// durable restart, so respawned workers bootstrap from
    /// snapshot + suffix instead of an empty in-memory history.
    mutation_log: Mutex<Vec<(MutateOp, u32, u32)>>,
    /// The durable write-ahead log (`None` = legacy in-memory mode).
    durable: Option<DurableLog>,
    /// This front-end's fencing generation (0 without a WAL). Sent in
    /// every worker Hello and reported in client Welcomes.
    generation: u64,
    /// Cumulative [`ServeStats`] recovered from the WAL snapshot:
    /// pre-crash counter/histogram totals merged into every
    /// post-restart aggregation so `query stats` survives respawn.
    stats_base: Mutex<ServeStats>,
    /// Mutations appended since the last WAL snapshot compaction.
    wal_snapshot_every: usize,
    counters: PoolCounters,
    /// Down-detected → ready-again durations, ms (chaos harness reads).
    recoveries_ms: Mutex<Vec<u64>>,
}

impl PoolShared {
    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn conn_of(&self, rank: usize) -> Option<Arc<WorkerConn>> {
        let conn = self.slots[rank].conn.lock().ok()?.clone()?;
        if conn.conn_alive.load(Ordering::SeqCst) {
            Some(conn)
        } else {
            None
        }
    }

    fn first_alive(&self) -> Option<usize> {
        (0..self.workers).find(|&r| self.conn_of(r).is_some())
    }

    /// The WAL durability barrier: appends the mutation and blocks until
    /// its covering fsync (a no-op without `--wal-dir`). Every
    /// `Response::Mutated` ack the front-end constructs must be preceded
    /// by this call — the `ackdurable` lint enforces the ordering.
    fn append_durable(&self, op: MutateOp, u: u32, v: u32) -> Result<(), WalError> {
        match &self.durable {
            Some(log) => log.append_durable(op, u, v).map(|_seq| ()),
            None => Ok(()),
        }
    }

    fn retry(&self) -> Response {
        let nth = self
            .counters
            .retries_emitted
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        // A Retry means the routing machinery gave up — exactly the
        // moment the flight recorder's recent history is worth keeping.
        obs::flight::note("pool.retry_emitted", nth, u64::from(self.retry_after_ms));
        obs::flight::dump("retry-emitted");
        Response::Retry {
            after_ms: self.retry_after_ms,
        }
    }
}

/// A running pool front-end. Dropping the handle shuts everything down:
/// front-end threads, supervisor, and every worker backend.
pub struct Pool {
    local_addr: SocketAddr,
    shared: Arc<PoolShared>,
    listener: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    churn: Option<JoinHandle<()>>,
}

/// Starts `cfg.workers` serve workers plus the routing front-end.
pub fn start_pool(spawn: WorkerSpawn, cfg: PoolConfig) -> io::Result<Pool> {
    if cfg.workers == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "pool needs at least one worker",
        ));
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;

    // Open the WAL and recover BEFORE any worker exists: the recovered
    // history seeds the mutation log, so the normal bring-up replay
    // path restores every worker to the exact pre-crash epoch. A
    // corrupt-beyond-snapshot or unsyncable log refuses to start
    // (`InvalidData`, CLI exit code 8) — never a silent fresh start.
    let (durable, recovered) = match &cfg.wal_dir {
        Some(dir) => {
            let wal_cfg = WalConfig {
                flush_interval_ms: cfg.wal_flush_ms,
                torn_at_rec: cfg.faults.as_ref().and_then(|p| p.torn_wal_rec),
                fsyncfail_ms: cfg.faults.as_ref().map_or(0, |p| p.fsyncfail_ms),
                ..WalConfig::default()
            };
            let (log, rec) = DurableLog::open(dir, wal_cfg).map_err(|e| match e {
                WalError::Io(m) => io::Error::other(format!("wal: {m}")),
                other => io::Error::new(io::ErrorKind::InvalidData, format!("{other}")),
            })?;
            obs::flight::note(
                "pool.wal_recovered",
                rec.mutations.len() as u64,
                log.generation(),
            );
            (Some(log), rec)
        }
        None => (None, crate::durable::DurableRecovery::default()),
    };
    let generation = durable.as_ref().map_or(0, DurableLog::generation);

    let shared = Arc::new(PoolShared {
        workers: cfg.workers,
        dispatch_timeout_ms: cfg.dispatch_timeout_ms,
        retry_after_ms: cfg.retry_after_ms,
        hedge_after_ms: cfg.hedge_after_ms,
        slots: (0..cfg.workers)
            .map(|_| WorkerSlot {
                conn: Mutex::new(None),
                backend: Mutex::new(Backend::Down),
                dispatched: AtomicU64::new(0),
            })
            .collect(),
        detector: Mutex::new(HeartbeatDetector::new(cfg.workers, cfg.detector, now_ms())),
        shutdown: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        epoch: AtomicU64::new(1),
        graph_info: Mutex::new((0, 0)),
        mutation_log: Mutex::new(recovered.mutations),
        durable,
        generation,
        stats_base: Mutex::new(recovered.stats),
        wal_snapshot_every: cfg.wal_snapshot_every.max(1),
        counters: PoolCounters::default(),
        recoveries_ms: Mutex::new(Vec::new()),
    });

    let mut spawner = spawn;
    for rank in 0..cfg.workers {
        bring_up_worker(&shared, &mut spawner, rank)
            .map_err(|e| io::Error::new(e.kind(), format!("worker {rank}: {e}")))?;
    }

    let faults = cfg.faults.clone();
    let supervisor = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("pool-supervise".into())
            .spawn(move || supervise_loop(&shared, spawner, faults))?
    };
    let accept = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("pool-listen".into())
            .spawn(move || listener_loop(listener, &shared))?
    };
    // The churn clause runs after the workers are up (graph_info is
    // populated by the handshakes above), so the storm hits a serving
    // pool, not a cold one.
    let churn = match cfg.faults.as_ref().and_then(|p| p.churn) {
        Some(clause) => {
            shared
                .counters
                .churn_total
                .store(clause.edges, Ordering::Relaxed);
            let shared = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("pool-churn".into())
                    .spawn(move || churn_loop(&shared, clause))?,
            )
        }
        None => None,
    };

    Ok(Pool {
        local_addr,
        shared,
        listener: Some(accept),
        supervisor: Some(supervisor),
        churn,
    })
}

impl Pool {
    /// The front-end's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Highest graph epoch observed across workers.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// This front-end's WAL fencing generation (0 without `--wal-dir`).
    pub fn generation(&self) -> u64 {
        self.shared.generation
    }

    /// Pool-level counters snapshot.
    pub fn pool_stats(&self) -> PoolStats {
        self.shared.counters.snapshot()
    }

    /// Down-detected → ready-again durations, in milliseconds, one per
    /// completed worker recovery (the chaos harness's p50/p99 source).
    pub fn recoveries_ms(&self) -> Vec<u64> {
        self.shared
            .recoveries_ms
            .lock()
            .map(|v| v.clone())
            .unwrap_or_default()
    }

    /// Kills worker `rank`'s backend right now (SIGKILL for processes).
    /// The supervisor notices and respawns it; use from tests and the
    /// chaos harness to exercise the failover path on demand.
    pub fn kill_worker(&self, rank: usize) {
        if let Some(slot) = self.shared.slots.get(rank) {
            if let Ok(mut backend) = slot.backend.lock() {
                backend.kill();
            }
            // Sever the connection too: a SIGKILLed process closes its
            // sockets anyway; the in-process mode needs the nudge.
            if let Ok(conn) = slot.conn.lock() {
                if let Some(conn) = conn.as_ref() {
                    conn.sever();
                }
            }
        }
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown without blocking.
    pub fn trigger_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the front-end and supervisor threads exit.
    pub fn wait(&mut self) {
        if let Some(h) = self.listener.take() {
            drop(h.join());
        }
        if let Some(h) = self.churn.take() {
            drop(h.join());
        }
        if let Some(h) = self.supervisor.take() {
            drop(h.join());
        }
    }

    /// Triggers shutdown and joins every thread.
    pub fn shutdown(&mut self) {
        self.trigger_shutdown();
        self.wait();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------
// Worker lifecycle
// ---------------------------------------------------------------------

/// Spawns the backend for `rank` and returns its query address.
fn spawn_backend(spawner: &mut WorkerSpawn, rank: usize) -> io::Result<(Backend, String)> {
    match spawner {
        WorkerSpawn::Process(build) => {
            let mut cmd = build(rank);
            cmd.stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::null());
            let mut child = cmd.spawn()?;
            let stdout = child.stdout.take().ok_or_else(|| {
                io::Error::other("worker child has no stdout despite piped spawn")
            })?;
            // The readiness line is read through a channel so a child
            // that never prints cannot park the supervisor forever.
            let (tx, rx) = mpsc::channel::<String>();
            let reader = thread::Builder::new()
                .name(format!("pool-stdout-{rank}"))
                .spawn(move || {
                    let mut lines = BufReader::new(stdout).lines();
                    for line in &mut lines {
                        let Ok(line) = line else { return };
                        if let Some(addr) = line.strip_prefix("SERVE ") {
                            drop(tx.send(addr.trim().to_string()));
                            break;
                        }
                    }
                    // Keep draining so the child never blocks on a full
                    // stdout pipe.
                    for line in lines {
                        if line.is_err() {
                            return;
                        }
                    }
                })?;
            match rx.recv_timeout(Duration::from_millis(SPAWN_READY_MS)) {
                Ok(addr) => Ok((Backend::Child(child), addr)),
                Err(_) => {
                    drop(child.kill());
                    drop(child.wait());
                    drop(reader.join());
                    Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "worker never printed its SERVE readiness line",
                    ))
                }
            }
        }
        WorkerSpawn::InProcess { graph, sched, .. } => {
            let server = start(
                graph.clone(),
                ServeConfig {
                    addr: "127.0.0.1:0".to_string(),
                    sched: *sched,
                    faults: None,
                },
            )?;
            let addr = server.local_addr().to_string();
            Ok((Backend::InProc(Box::new(server)), addr))
        }
    }
}

/// Connects to a freshly spawned worker and starts its reader and
/// writer threads.
fn connect_worker(
    shared: &Arc<PoolShared>,
    rank: usize,
    addr: &str,
) -> io::Result<Arc<WorkerConn>> {
    let sockaddr: SocketAddr = addr
        .parse()
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "bad worker address"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, Duration::from_millis(HANDSHAKE_MS))?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(Duration::from_millis(HANDSHAKE_MS)))?;
    let read_side = stream.try_clone()?;
    read_side.set_read_timeout(Some(Duration::from_millis(50)))?;
    let write_side = stream.try_clone()?;
    let (write_tx, write_rx) = mpsc::channel();

    let conn = Arc::new(WorkerConn {
        write_tx,
        sock: stream,
        pending: Mutex::new(HashMap::new()),
        conn_alive: AtomicBool::new(true),
        reader: Mutex::new(None),
        writer: Mutex::new(None),
    });

    // The writer thread deliberately captures no `Arc<WorkerConn>`: it
    // holds only its stream clone and the channel receiver, so the
    // connection's refcount can reach zero while the thread is parked
    // on `recv` (the dropped sender wakes and ends it).
    let writer = thread::Builder::new()
        .name(format!("pool-worker-tx-{rank}"))
        .spawn(move || worker_writer_loop(write_side, write_rx))?;
    if let Ok(mut slot) = conn.writer.lock() {
        *slot = Some(writer);
    }

    let reader = {
        let conn = Arc::clone(&conn);
        let shared = Arc::clone(shared);
        thread::Builder::new()
            .name(format!("pool-worker-rx-{rank}"))
            .spawn(move || worker_reader_loop(read_side, &conn, &shared, rank))?
    };
    if let Ok(mut slot) = conn.reader.lock() {
        *slot = Some(reader);
    }
    Ok(conn)
}

/// Owns the write half of one worker connection: drains the frame
/// queue onto the wire. On a write error it severs the socket — the
/// reader thread then fails the in-flight waiters — and exits.
fn worker_writer_loop(mut stream: TcpStream, rx: mpsc::Receiver<WriteCmd>) {
    while let Ok(cmd) = rx.recv() {
        match cmd {
            WriteCmd::Frame(bytes) => {
                if stream.write_all(&bytes).is_err() {
                    drop(stream.shutdown(std::net::Shutdown::Both));
                    break;
                }
            }
            WriteCmd::Quit => break,
        }
    }
}

/// Pumps one worker connection: resolves pending replies, feeds the
/// failure detector, and drains the pending map when the stream dies.
fn worker_reader_loop(
    mut stream: TcpStream,
    conn: &Arc<WorkerConn>,
    shared: &Arc<PoolShared>,
    rank: usize,
) {
    let mut dec = EnvelopeDecoder::new();
    let mut buf = [0u8; 4096];
    loop {
        if !conn.conn_alive.load(Ordering::SeqCst) {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                dec.feed(&buf[..n]);
                loop {
                    let body = match dec.next_body() {
                        Ok(Some(b)) => b,
                        Ok(None) => break,
                        Err(_) => {
                            conn.drain_dead();
                            return;
                        }
                    };
                    let Ok((id, resp)) = decode_response(&body) else {
                        conn.drain_dead();
                        return;
                    };
                    if let Ok(mut d) = shared.detector.lock() {
                        d.heard_from(rank, now_ms());
                    }
                    if let Response::Mutated { epoch, .. }
                    | Response::Welcome { epoch, .. }
                    | Response::SubsetBc { epoch, .. } = &resp
                    {
                        shared.epoch.fetch_max(*epoch, Ordering::SeqCst);
                    }
                    let waiter = conn.pending.lock().ok().and_then(|mut p| p.remove(&id));
                    if let Some(tx) = waiter {
                        drop(tx.send(WorkerReply::Answer(resp)));
                    }
                    // No waiter: a probe or an abandoned/hedged request
                    // that already got its answer elsewhere. Drop it.
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    conn.drain_dead();
}

/// Sends `req` on `conn` carrying `ctx` ([`TraceCtx::NONE`] for pool
/// housekeeping traffic) and waits up to `timeout_ms` for its answer.
fn call_conn(
    shared: &Arc<PoolShared>,
    conn: &Arc<WorkerConn>,
    ctx: TraceCtx,
    req: &Request,
    timeout_ms: u64,
) -> Option<Response> {
    let (tx, rx) = mpsc::channel();
    let id = shared.fresh_id();
    conn.send(id, ctx, req, tx).ok()?;
    match rx.recv_timeout(Duration::from_millis(timeout_ms)) {
        Ok(WorkerReply::Answer(resp)) => Some(resp),
        _ => None,
    }
}

/// Spawn + connect + handshake + mutation-log replay for one rank, then
/// publish the connection. Holds the mutation-log lock across replay and
/// publish so broadcasts serialize against recovery (a respawning worker
/// can neither miss nor double-order a mutation).
fn bring_up_worker(
    shared: &Arc<PoolShared>,
    spawner: &mut WorkerSpawn,
    rank: usize,
) -> io::Result<()> {
    // Any failure past the spawn must kill the backend, or a half-born
    // worker process would leak every time the supervisor retries.
    fn abort(mut backend: Backend, err: io::Error) -> io::Result<()> {
        backend.kill();
        Err(err)
    }

    let (backend, addr) = spawn_backend(spawner, rank)?;
    let conn = match connect_worker(shared, rank, &addr) {
        Ok(c) => c,
        Err(e) => return abort(backend, e),
    };

    // The Hello round trip doubles as an NTP-style clock probe: t0/t2
    // bracket the worker's own monotonic reading t1 (`Welcome.now_us`),
    // giving the trace merger this worker's clock offset.
    let t0 = obs::now_us();
    // The Hello carries this front-end's WAL generation: a worker that
    // has already greeted a newer front-end refuses it (split-brain
    // fencing after a restart race).
    let hello = Request::Hello {
        generation: shared.generation,
    };
    let welcome = call_conn(shared, &conn, TraceCtx::NONE, &hello, HANDSHAKE_MS);
    let t2 = obs::now_us();
    let Some(Response::Welcome {
        vertices,
        edges,
        now_us,
        pid,
        ..
    }) = welcome
    else {
        conn.drain_dead();
        return abort(
            backend,
            io::Error::new(io::ErrorKind::TimedOut, "worker handshake failed"),
        );
    };
    obs::clock_probe(pid, t0, now_us, t2);
    obs::flight::note("pool.worker_up", rank as u64, pid);
    if let Ok(mut info) = shared.graph_info.lock() {
        *info = (vertices, edges);
    }

    {
        let log = match shared.mutation_log.lock() {
            Ok(l) => l,
            Err(_) => return abort(backend, io::Error::other("mutation log poisoned")),
        };
        for &(op, u, v) in log.iter() {
            let req = Request::Mutate { op, u, v };
            let replayed = call_conn(shared, &conn, TraceCtx::NONE, &req, HANDSHAKE_MS);
            let Some(Response::Mutated { epoch, .. }) = replayed else {
                conn.drain_dead();
                drop(log);
                return abort(
                    backend,
                    io::Error::other("mutation replay failed during recovery"),
                );
            };
            // Replay is how a restarted front-end rediscovers the
            // pre-crash epoch: every worker converges to it, and Welcome
            // must advertise it before the first live query.
            shared.epoch.fetch_max(epoch, Ordering::SeqCst);
            shared
                .counters
                .replayed_mutations
                .fetch_add(1, Ordering::Relaxed);
        }
        let slot = &shared.slots[rank];
        if let Ok(mut b) = slot.backend.lock() {
            *b = backend;
        }
        if let Ok(mut c) = slot.conn.lock() {
            *c = Some(conn);
        }
    }
    if let Ok(mut d) = shared.detector.lock() {
        d.reset_peer(rank, now_ms());
    }
    Ok(())
}

/// Tears down whatever remains of worker `rank`.
fn tear_down_worker(shared: &Arc<PoolShared>, rank: usize) {
    let slot = &shared.slots[rank];
    let conn = slot.conn.lock().ok().and_then(|mut c| c.take());
    if let Some(conn) = conn {
        conn.sever();
        let reader = conn.reader.lock().ok().and_then(|mut r| r.take());
        if let Some(h) = reader {
            drop(h.join());
        }
        let writer = conn.writer.lock().ok().and_then(|mut w| w.take());
        if let Some(h) = writer {
            drop(h.join());
        }
    }
    if let Ok(mut backend) = slot.backend.lock() {
        backend.kill();
    }
}

// ---------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------

/// Tracks which one-shot chaos clauses have fired.
struct ChaosState {
    kills_fired: Vec<bool>,
    pauses_fired: Vec<bool>,
}

fn supervise_loop(shared: &Arc<PoolShared>, mut spawner: WorkerSpawn, faults: Option<FaultPlan>) {
    let plan = faults.unwrap_or_default();
    let mut chaos = ChaosState {
        kills_fired: vec![false; plan.worker_kills.len()],
        pauses_fired: vec![false; plan.worker_pauses.len()],
    };
    // Mutations already covered by the recovered snapshot + log need no
    // immediate re-snapshot; start counting from the recovered history.
    let mut last_snap = shared.mutation_log.lock().map(|l| l.len()).unwrap_or(0);

    while !shared.shutdown.load(Ordering::SeqCst) {
        let now = now_ms();

        // Heartbeat probes on the detector's beat schedule: a Stats
        // request per worker whose answer (any answer) is liveness
        // evidence. The reply is discarded — the rx side is dropped —
        // so probes cost one pending-map entry, no waiting.
        let beat = shared.detector.lock().map(|mut d| d.beat_due(now));
        if beat.unwrap_or(false) {
            for rank in 0..shared.workers {
                if let Some(conn) = shared.conn_of(rank) {
                    let (tx, _rx) = mpsc::channel();
                    drop(conn.send(shared.fresh_id(), TraceCtx::NONE, &Request::Stats, tx));
                }
            }
        }

        // Chaos clauses (before liveness, so a kill is noticed on the
        // same pump).
        execute_chaos(shared, &plan, &mut chaos);

        // Liveness: hard evidence (dead connection) or detector verdict.
        for rank in 0..shared.workers {
            let conn_present = shared.slots[rank]
                .conn
                .lock()
                .map(|c| c.is_some())
                .unwrap_or(false);
            if !conn_present {
                continue; // never brought up (start_pool failed earlier)
            }
            let conn_dead = shared.conn_of(rank).is_none();
            let verdict = shared
                .detector
                .lock()
                .map(|mut d| d.status(rank, now))
                .unwrap_or(PeerStatus::Alive);
            if conn_dead || verdict == PeerStatus::Dead {
                // A worker going down is a flight-recorder moment: keep
                // the event ring leading up to the verdict.
                obs::flight::note(
                    "pool.worker_dead",
                    rank as u64,
                    u64::from(verdict == PeerStatus::Dead),
                );
                obs::flight::dump("worker-dead");
                let t0 = now_ms();
                tear_down_worker(shared, rank);
                match bring_up_worker(shared, &mut spawner, rank) {
                    Ok(()) => {
                        shared.counters.respawns.fetch_add(1, Ordering::Relaxed);
                        if let Ok(mut rec) = shared.recoveries_ms.lock() {
                            rec.push(now_ms().saturating_sub(t0));
                        }
                    }
                    Err(_) => {
                        // Spawn failed (resource exhaustion?); leave the
                        // slot down, retry on the next pump. Queries keep
                        // failing over to siblings meanwhile.
                    }
                }
            }
        }

        maybe_snapshot(shared, &mut last_snap, shared.wal_snapshot_every);

        thread::sleep(SUPERVISE_EVERY);
    }

    // Final snapshot before tearing the workers down (their stats are
    // still reachable here), so a clean shutdown restarts from a compact
    // log and `query stats` counters carry across the restart.
    maybe_snapshot(shared, &mut last_snap, 1);

    // Shutdown: stop every worker. Best-effort protocol goodbye first so
    // process workers exit cleanly, then the hard kill. A worker that
    // acknowledged the goodbye gets a grace window to flush its
    // `--trace` / `--flight-dir` exports before tear-down kills it.
    for rank in 0..shared.workers {
        let said_bye = shared
            .conn_of(rank)
            .map(|conn| call_conn(shared, &conn, TraceCtx::NONE, &Request::Shutdown, 500).is_some())
            .unwrap_or(false);
        if said_bye {
            if let Ok(mut backend) = shared.slots[rank].backend.lock() {
                backend.wait_graceful(2000);
            }
        }
        tear_down_worker(shared, rank);
    }
}

/// Writes an epoch snapshot once `every` new mutations have accumulated
/// since the last one (the shutdown path passes `every = 1` to flush any
/// tail). Stats are aggregated *before* taking the mutation-log lock —
/// worker stats calls can block for seconds and must not stall the
/// mutation path — but the snapshot itself is written while holding the
/// lock, so a concurrent append can never land inside the covered range
/// without being in the payload. Lock order (mutation_log → wal state)
/// matches `broadcast_mutate` → `append_durable`, so no deadlock.
fn maybe_snapshot(shared: &Arc<PoolShared>, last_snap: &mut usize, every: usize) {
    let Some(durable) = &shared.durable else {
        return;
    };
    let len_now = shared.mutation_log.lock().map(|l| l.len()).unwrap_or(0);
    if len_now < last_snap.saturating_add(every) {
        return;
    }
    let stats = match aggregate_stats(shared) {
        Response::Stats(s) => s,
        _ => return, // no worker answered; retry on the next pump
    };
    let Ok(log) = shared.mutation_log.lock() else {
        return;
    };
    if log.len() < last_snap.saturating_add(every) {
        return;
    }
    match durable.snapshot(&log, &stats) {
        Ok(seq) => {
            *last_snap = log.len();
            obs::flight::note("pool.wal_snapshot", log.len() as u64, seq);
        }
        Err(_) => {
            // Non-fatal: appends still carry the durability contract on
            // the un-compacted log; the next pump retries.
            obs::flight::note("pool.wal_snapshot_failed", log.len() as u64, 0);
        }
    }
}

/// Executes due `kill:worker=` / `pause:worker=` clauses.
fn execute_chaos(shared: &Arc<PoolShared>, plan: &FaultPlan, chaos: &mut ChaosState) {
    for (i, k) in plan.worker_kills.iter().enumerate() {
        if chaos.kills_fired[i] || k.rank >= shared.workers {
            continue;
        }
        if shared.slots[k.rank].dispatched.load(Ordering::Relaxed) >= k.query {
            chaos.kills_fired[i] = true;
            if let Ok(mut backend) = shared.slots[k.rank].backend.lock() {
                backend.kill();
            }
            if let Some(conn) = shared.conn_of(k.rank) {
                conn.drain_dead();
            }
        }
    }
    for (i, p) in plan.worker_pauses.iter().enumerate() {
        if chaos.pauses_fired[i] || p.rank >= shared.workers {
            continue;
        }
        // Fire once the worker has seen traffic, so the freeze lands
        // mid-load rather than on an idle daemon.
        if shared.slots[p.rank].dispatched.load(Ordering::Relaxed) >= 1 {
            chaos.pauses_fired[i] = true;
            let pid = shared.slots[p.rank]
                .backend
                .lock()
                .ok()
                .and_then(|b| b.pid());
            if let Some(pid) = pid {
                let ms = u64::from(p.ms);
                drop(
                    thread::Builder::new()
                        .name("pool-pause".into())
                        .spawn(move || {
                            drop(
                                Command::new("kill")
                                    .args(["-STOP", &pid.to_string()])
                                    .status(),
                            );
                            thread::sleep(Duration::from_millis(ms));
                            drop(
                                Command::new("kill")
                                    .args(["-CONT", &pid.to_string()])
                                    .status(),
                            );
                        }),
                );
            }
            // In-process workers have no pid to freeze; the clause is a
            // no-op there (tests use process mode for pause coverage).
        }
    }
}

/// The `i`-th mutation of a `churn:edges=K@seed=S` storm over an
/// `n`-vertex graph. Pure function of `(i, seed, n)`: two pools running
/// the same clause over the same graph derive the identical sequence —
/// the parity contract the mutate-heavy smoke asserts. Ops alternate
/// add/remove so the epoch keeps advancing; a self-loop draw is nudged
/// to the next vertex because the store rejects self-loops as no-ops.
fn churn_mutation(i: u64, seed: u64, n: u64) -> (MutateOp, u32, u32) {
    let bits = mrbc_util::splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let u = (bits % n) as u32;
    let mut v = ((bits >> 32) % n) as u32;
    if u == v {
        v = (v + 1) % n as u32;
    }
    let op = if i.is_multiple_of(2) {
        MutateOp::AddEdge
    } else {
        MutateOp::RemoveEdge
    };
    (op, u, v)
}

/// Drives the `churn:` clause: a seeded storm of edge mutations pushed
/// through the same broadcast + durability path client mutations take
/// (WAL append, fsync barrier, replay into respawned workers). A step
/// that cannot currently be accepted (`Retry` — e.g. every worker down
/// mid-respawn) is retried rather than skipped, so the applied sequence
/// never diverges between runs; a `WalFault` means the durability
/// contract itself is broken and aborts the storm, matching what a real
/// client would observe.
fn churn_loop(shared: &Arc<PoolShared>, clause: ChurnFault) {
    let n = shared.graph_info.lock().map(|g| g.0).unwrap_or(0);
    if n < 2 {
        return; // no non-self-loop edge exists to mutate
    }
    for i in 0..clause.edges {
        let (op, u, v) = churn_mutation(i, clause.seed, n);
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match broadcast_mutate(shared, TraceCtx::NONE, op, u, v) {
                Response::Mutated { .. } | Response::Error { .. } => break,
                Response::WalFault { .. } => return,
                _ => thread::sleep(Duration::from_millis(5)),
            }
        }
        shared.counters.churn_driven.fetch_add(1, Ordering::Relaxed);
        // A breath between steps keeps the storm sustained (overlapping
        // queries, kills, snapshots) instead of one opening burst.
        thread::sleep(Duration::from_millis(1));
    }
}

// ---------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------

/// Source-range shard affinity: contiguous vertex ranges, the same
/// blocked split the `BlockedEdgeCut` partitioning policy uses.
fn shard_of(s: u32, vertices: u64, workers: usize) -> usize {
    if vertices == 0 {
        return 0;
    }
    let rank = (u64::from(s)).saturating_mul(workers as u64) / vertices;
    (rank as usize).min(workers - 1)
}

/// Routes one query to `start_rank`, failing over to siblings when a
/// worker dies mid-flight and hedging stragglers when configured. The
/// absolute deadline bounds the whole affair; `None` means "not answered
/// in time" and the caller emits `Retry`.
fn call_worker(
    shared: &Arc<PoolShared>,
    start_rank: usize,
    ctx: TraceCtx,
    req: &Request,
    deadline_ms: u64,
) -> Option<Response> {
    let w = shared.workers;
    let (tx, rx) = mpsc::channel();
    let mut rank = start_rank % w;
    let mut dispatches = 0usize;
    let mut outstanding = 0usize;
    let mut hedged = false;
    // One dispatch per worker plus one hedge is the budget; past that the
    // pool is out of healthy siblings.
    let budget = w + 1;

    loop {
        let now = now_ms();
        if now >= deadline_ms {
            return None;
        }
        if outstanding == 0 {
            // Find the next rank that accepts the dispatch.
            let mut placed = false;
            for _ in 0..w {
                if dispatches >= budget {
                    return None;
                }
                if let Some(conn) = shared.conn_of(rank) {
                    let id = shared.fresh_id();
                    shared.slots[rank]
                        .dispatched
                        .fetch_add(1, Ordering::Relaxed);
                    if conn.send(id, ctx, req, tx.clone()).is_ok() {
                        dispatches += 1;
                        outstanding += 1;
                        placed = true;
                        break;
                    }
                }
                rank = (rank + 1) % w;
            }
            if !placed {
                // No live worker at all: bail out now, the client gets
                // a Retry and the supervisor keeps respawning.
                return None;
            }
        }

        let remaining = deadline_ms.saturating_sub(now_ms());
        if remaining == 0 {
            return None;
        }
        let wait = match shared.hedge_after_ms {
            Some(h) if !hedged && remaining > h => h,
            _ => remaining,
        };
        match rx.recv_timeout(Duration::from_millis(wait)) {
            Ok(WorkerReply::Answer(resp)) => return Some(resp),
            Ok(WorkerReply::ConnDead) => {
                outstanding -= 1;
                shared.counters.failovers.fetch_add(1, Ordering::Relaxed);
                obs::flight::note("pool.failover", rank as u64, ctx.trace);
                rank = (rank + 1) % w;
                // Loop re-dispatches to the next sibling (or keeps
                // waiting on the hedge twin if one is still out).
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if wait == remaining {
                    return None; // deadline spent
                }
                // Hedge window elapsed: duplicate to a sibling, first
                // answer wins, the loser resolves to a dropped entry.
                hedged = true;
                let sibling = (rank + 1) % w;
                if sibling != rank || w == 1 {
                    if let Some(conn) = shared.conn_of(sibling) {
                        let id = shared.fresh_id();
                        if conn.send(id, ctx, req, tx.clone()).is_ok() {
                            obs::flight::note("pool.hedge", sibling as u64, ctx.trace);
                            shared.counters.hedges.fetch_add(1, Ordering::Relaxed);
                            shared.slots[sibling]
                                .dispatched
                                .fetch_add(1, Ordering::Relaxed);
                            dispatches += 1;
                            outstanding += 1;
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return None,
        }
    }
}

/// Aggregated pool stats: per-worker counters summed and their phase
/// histograms merged by name (log-bucketed histograms add bucket-wise),
/// plus the pool's own tier — session count and the hedge/failover/
/// replay counters only the front-end can know.
fn aggregate_stats(shared: &Arc<PoolShared>) -> Response {
    let mut total = ServeStats::default();
    let mut answered = false;
    for rank in 0..shared.workers {
        let Some(conn) = shared.conn_of(rank) else {
            continue;
        };
        if let Some(Response::Stats(s)) =
            call_conn(shared, &conn, TraceCtx::NONE, &Request::Stats, 2_000)
        {
            total.epoch = total.epoch.max(s.epoch);
            total.queries += s.queries;
            total.source_queries += s.source_queries;
            total.batches += s.batches;
            total.batched_sources += s.batched_sources;
            total.busy_rejections += s.busy_rejections;
            total.stale_rejections += s.stale_rejections;
            total.mutations = total.mutations.max(s.mutations);
            // Maintenance work is deterministic and replicated: every
            // worker rebuilds the same sources for the same mutation
            // stream, so (like `mutations`) one worker's counters
            // represent the pool — summing would multiply by fan-out.
            total.sources_reused = total.sources_reused.max(s.sources_reused);
            total.sources_rebuilt = total.sources_rebuilt.max(s.sources_rebuilt);
            total.queue_depth += s.queue_depth;
            total.merge_hists(&s);
            answered = true;
        }
    }
    if !answered {
        return shared.retry();
    }
    let c = &shared.counters;
    total.sessions = c.sessions.load(Ordering::Relaxed);
    total.hedge_fired = c.hedges.load(Ordering::Relaxed);
    total.failover_attempts = c.failovers.load(Ordering::Relaxed);
    total.replay_mutations = c.replayed_mutations.load(Ordering::Relaxed);
    // Fold in the persisted pre-restart base so `query stats` reports
    // cumulative counters across front-end generations, not just since
    // the last respawn. Monotonic-gauge fields (epoch, mutations) take
    // max; flow counters add; queue_depth is instantaneous so the base
    // contributes nothing.
    if let Ok(base) = shared.stats_base.lock() {
        total.epoch = total.epoch.max(base.epoch);
        total.queries += base.queries;
        total.source_queries += base.source_queries;
        total.batches += base.batches;
        total.batched_sources += base.batched_sources;
        total.busy_rejections += base.busy_rejections;
        total.stale_rejections += base.stale_rejections;
        total.mutations = total.mutations.max(base.mutations);
        total.sources_reused = total.sources_reused.max(base.sources_reused);
        total.sources_rebuilt = total.sources_rebuilt.max(base.sources_rebuilt);
        total.sessions += base.sessions;
        total.hedge_fired += base.hedge_fired;
        total.failover_attempts += base.failover_attempts;
        total.replay_mutations += base.replay_mutations;
        total.merge_hists(&base);
    }
    Response::Stats(total)
}

/// Broadcasts a mutation to every live worker in rank order, holding the
/// mutation-log lock so recovery replay serializes against it. Each
/// worker receives `ctx`, so its `serve.query` span joins the client's
/// trace.
fn broadcast_mutate(
    shared: &Arc<PoolShared>,
    ctx: TraceCtx,
    op: MutateOp,
    u: u32,
    v: u32,
) -> Response {
    let Ok(mut log) = shared.mutation_log.lock() else {
        return shared.retry();
    };
    log.push((op, u, v));
    let mut reply: Option<(u64, bool)> = None;
    for rank in 0..shared.workers {
        let Some(conn) = shared.conn_of(rank) else {
            continue;
        };
        let resp = call_conn(
            shared,
            &conn,
            ctx,
            &Request::Mutate { op, u, v },
            shared.dispatch_timeout_ms,
        );
        match resp {
            Some(Response::Mutated { epoch, applied }) => {
                shared.epoch.fetch_max(epoch, Ordering::SeqCst);
                if reply.is_none() {
                    reply = Some((epoch, applied));
                }
            }
            Some(Response::Error { message }) if reply.is_none() => {
                // Validation failure (vertex out of range): identical on
                // every worker, so the first verdict is THE verdict; the
                // entry must not stay in the log either.
                log.pop();
                return Response::Error { message };
            }
            _ => {
                // Dead or slow worker: it will be respawned and replay
                // the log, converging to the same epoch.
            }
        }
    }
    match reply {
        Some((epoch, applied)) => {
            // Durability barrier: the mutation must be fsync-covered in
            // the WAL *before* the acknowledgement exists, or a crash
            // between ack and append would lose an acknowledged write.
            if let Err(e) = shared.append_durable(op, u, v) {
                // The log can no longer honour the contract (fsync
                // failure or injected torn write); refuse the ack. The
                // workers did apply the mutation, but the client was
                // never told it stuck — exactly the at-most-once story
                // a retry against a recovered front-end preserves.
                return Response::WalFault {
                    message: e.to_string(),
                };
            }
            Response::Mutated { epoch, applied }
        }
        None => {
            // Nobody took the mutation; withdraw it so a later retry is
            // not applied twice.
            log.pop();
            shared.retry()
        }
    }
}

/// Routes one decoded request; always returns, never hangs. `ctx` is
/// the trace context the client sent; routed queries get a
/// `pool.route` span in that trace, and workers receive a child
/// context whose parent is the routing span.
fn route(shared: &Arc<PoolShared>, ctx: TraceCtx, req: &Request) -> Response {
    match req {
        Request::Hello { .. } => {
            let (vertices, edges) = shared.graph_info.lock().map(|g| *g).unwrap_or((0, 0));
            Response::Welcome {
                epoch: shared.epoch.load(Ordering::SeqCst),
                vertices,
                edges,
                now_us: obs::now_us(),
                pid: u64::from(std::process::id()),
                generation: shared.generation,
            }
        }
        Request::Stats => aggregate_stats(shared),
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Response::Bye
        }
        req => {
            shared.counters.routed.fetch_add(1, Ordering::Relaxed);
            let span_id = obs::fresh_id();
            let _span = obs::span("pool.route", "pool")
                .arg("trace", ctx.trace)
                .arg("span", span_id)
                .arg("parent", ctx.parent);
            let down = ctx.child(span_id);
            match req {
                Request::Mutate { op, u, v } => broadcast_mutate(shared, down, *op, *u, *v),
                req => {
                    // Source-scoped queries go to their source's shard
                    // owner; a subset goes whole to the owner of its
                    // smallest source (see the module doc).
                    let owner = match req {
                        Request::PathInfo { s, .. } => Some(*s),
                        Request::SubsetBc { sources, .. } => sources.iter().min().copied(),
                        _ => None,
                    };
                    let rank = match owner {
                        Some(s) => {
                            let vertices = shared.graph_info.lock().map(|g| g.0).unwrap_or(0);
                            shard_of(s, vertices, shared.workers)
                        }
                        None => shared.first_alive().unwrap_or(0),
                    };
                    let deadline = now_ms() + shared.dispatch_timeout_ms;
                    call_worker(shared, rank, down, req, deadline).unwrap_or_else(|| shared.retry())
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Front-end listener / sessions
// ---------------------------------------------------------------------

fn listener_loop(listener: TcpListener, shared: &Arc<PoolShared>) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let index = shared.counters.sessions.fetch_add(1, Ordering::Relaxed) + 1;
                let shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name(format!("pool-sess-{index}"))
                    .spawn(move || session_loop(stream, &shared));
                match spawned {
                    Ok(h) => sessions.push(h),
                    Err(_) => {
                        // Thread exhaustion: shed the connection.
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(PUMP_IDLE),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => thread::sleep(PUMP_IDLE),
        }
    }
    for h in sessions {
        drop(h.join());
    }
}

/// Writes one sealed response on a blocking stream.
fn write_frame(stream: &mut TcpStream, id: u64, resp: &Response) -> io::Result<()> {
    stream.write_all(&framing::seal(&encode_response(id, resp)))
}

/// One front-end client session. The stream is blocking with a short
/// read timeout so the loop can observe shutdown; request handling is
/// synchronous (routing blocks this thread, bounded by the dispatch
/// deadline), which preserves per-session response ordering.
fn session_loop(mut stream: TcpStream, shared: &Arc<PoolShared>) {
    if stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .is_err()
        || stream
            .set_write_timeout(Some(Duration::from_millis(10_000)))
            .is_err()
    {
        return;
    }
    let mut dec = EnvelopeDecoder::new();
    let mut greeted = false;
    let mut buf = [0u8; 4096];

    'pump: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => dec.feed(&buf[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        loop {
            let body = match dec.next_body() {
                Ok(Some(b)) => b,
                Ok(None) => break,
                Err(_) => break 'pump,
            };
            let (id, ctx, req) = match decode_request(&body) {
                Ok(triple) => triple,
                Err(e) => {
                    let resp = Response::Error {
                        message: format!("malformed request: {e}"),
                    };
                    drop(write_frame(&mut stream, 0, &resp));
                    break 'pump;
                }
            };
            if !greeted && !matches!(req, Request::Hello { .. }) {
                let resp = Response::Error {
                    message: "handshake required before queries".to_string(),
                };
                drop(write_frame(&mut stream, id, &resp));
                break 'pump;
            }
            if matches!(req, Request::Hello { .. }) {
                greeted = true;
            }
            let is_bye = matches!(req, Request::Shutdown);
            let resp = route(shared, ctx, &req);
            if write_frame(&mut stream, id, &resp).is_err() {
                break 'pump;
            }
            if is_bye {
                break 'pump;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, RetryClient, ServeClient};
    use mrbc_graph::GraphBuilder;

    fn test_graph() -> CsrGraph {
        // A 12-vertex graph with enough structure that BC is nonzero.
        let mut b = GraphBuilder::new(12);
        for v in 0..11u32 {
            b = b.edge(v, v + 1).edge(v + 1, v);
        }
        b.edge(0, 6).edge(6, 0).edge(3, 9).edge(9, 3).build()
    }

    fn test_pool(workers: usize) -> Pool {
        let spawn = WorkerSpawn::InProcess {
            graph: test_graph(),
            bc: Box::default(),
            sched: SchedConfig::default(),
        };
        let cfg = PoolConfig {
            workers,
            dispatch_timeout_ms: 20_000,
            detector: DetectorConfig {
                heartbeat_every_ms: 20,
                suspect_after_ms: 200,
                dead_after_ms: 800,
            },
            ..PoolConfig::default()
        };
        start_pool(spawn, cfg).expect("pool starts")
    }

    fn quick_client(addr: SocketAddr) -> ServeClient {
        ServeClient::connect_with(
            addr,
            &ClientConfig {
                read_timeout: Duration::from_secs(30),
                ..ClientConfig::default()
            },
        )
        .expect("connect")
    }

    #[test]
    fn pool_answers_like_a_single_daemon() {
        let pool = test_pool(2);
        let mut single = {
            let server = start(test_graph(), ServeConfig::default()).expect("daemon");
            ServeClient::connect(server.local_addr()).map(|c| (server, c))
        }
        .expect("single connect");

        let mut c = quick_client(pool.local_addr());
        assert_eq!(c.welcome().vertices, 12);

        // Full-BC answers must be bit-identical to the single daemon's.
        for v in [0u32, 3, 6, 11] {
            let (_, pooled) = c.bc_score(0, v).expect("pool bc");
            let (_, alone) = single.1.bc_score(0, v).expect("single bc");
            assert_eq!(pooled.to_bits(), alone.to_bits(), "bc({v}) diverged");
        }
        let (_, pk) = c.top_k(0, 5).expect("pool topk");
        let (_, sk) = single.1.top_k(0, 5).expect("single topk");
        assert_eq!(pk, sk);

        // Path queries route by shard affinity; answers are exact.
        let (_, d, sigma) = c.path_info(0, 0, 11).expect("path");
        let (_, d2, s2) = single.1.path_info(0, 0, 11).expect("single path");
        assert_eq!((d, sigma.to_bits()), (d2, s2.to_bits()));

        // Source sets spanning multiple shards answer deterministically.
        let sources = [0u32, 1, 5, 10, 11];
        let (_, merged) = c.subset_bc(0, &sources).expect("subset");
        let (_, again) = quick_client(pool.local_addr())
            .subset_bc(0, &sources)
            .expect("subset again");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&merged), bits(&again), "subset is deterministic");
    }

    /// A pooled subset carries a single daemon's bits: 40 seeded
    /// six-source subsets on R-MAT scale 7 over 2 workers, most of them
    /// straddling the shard boundary. Summing per-shard partial vectors
    /// re-associates the f64 fold and drifts on such subsets.
    #[test]
    fn pooled_subset_bc_is_bit_identical_to_a_single_daemon() {
        let g = mrbc_graph::generators::rmat(mrbc_graph::generators::RmatConfig::new(7, 8), 5);
        let n = g.num_vertices() as u64;
        let spawn = WorkerSpawn::InProcess {
            graph: g.clone(),
            bc: Box::default(),
            sched: SchedConfig::default(),
        };
        let cfg = PoolConfig {
            workers: 2,
            dispatch_timeout_ms: 20_000,
            ..PoolConfig::default()
        };
        let pool = start_pool(spawn, cfg).expect("pool starts");
        let server = start(g, ServeConfig::default()).expect("daemon");
        let mut pooled = quick_client(pool.local_addr());
        let mut single = quick_client(server.local_addr());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut draw = 0x5eed_u64;
        for i in 0..40 {
            let sources: Vec<u32> = (0..6)
                .map(|_| {
                    draw = mrbc_util::splitmix64(draw);
                    (draw % n) as u32
                })
                .collect();
            let (_, a) = pooled.subset_bc(0, &sources).expect("pooled subset");
            let (_, b) = single.subset_bc(0, &sources).expect("single subset");
            assert_eq!(bits(&a), bits(&b), "subset {i} {sources:?} diverged");
        }
    }

    #[test]
    fn mutations_broadcast_and_welcome_tracks_epoch() {
        let pool = test_pool(2);
        let mut c = quick_client(pool.local_addr());
        let (e1, applied) = c.mutate(MutateOp::AddEdge, 0, 5).expect("mutate");
        assert!(applied);
        assert_eq!(e1, 2, "epoch bumps from 1 to 2 on every worker");
        // A fresh session sees the new epoch in its Welcome.
        let c2 = quick_client(pool.local_addr());
        assert_eq!(c2.welcome().epoch, 2);
        // Both shards answer post-mutation queries at the same epoch.
        let mut c3 = quick_client(pool.local_addr());
        let (e_a, _, _) = c3.path_info(0, 1, 3).expect("shard 0");
        let (e_b, _, _) = c3.path_info(0, 11, 3).expect("shard 1");
        assert_eq!(e_a, 2, "shard 0 worker applied the mutation");
        assert_eq!(e_b, 2, "shard 1 worker applied the mutation");
        assert_eq!(pool.epoch(), 2);
    }

    /// A traced client mutation reaches every worker under the client's
    /// trace id, so `obs merge` can stitch the broadcast's worker spans
    /// under the front-end's `pool.route` span.
    #[test]
    fn traced_mutation_joins_the_clients_trace() {
        let pool = test_pool(2);
        let mut c = quick_client(pool.local_addr());
        mrbc_obs::install("pool-traced-mutation");
        let ctx = TraceCtx::root();
        let mutate = Request::Mutate {
            op: MutateOp::AddEdge,
            u: 0,
            v: 5,
        };
        let resp = c.call_traced(ctx, &mutate).expect("mutate");
        let rec = mrbc_obs::uninstall().expect("recorder installed");
        assert!(matches!(resp, Response::Mutated { applied: true, .. }));
        let joined = rec
            .events()
            .iter()
            .filter(|e| e.name == "serve.query" && e.args.contains(&("trace", ctx.trace)))
            .count();
        assert_eq!(joined, 2, "each worker's Mutate span carries the trace id");
    }

    #[test]
    fn killed_worker_respawns_and_queries_keep_completing() {
        let pool = test_pool(2);
        let mut c = quick_client(pool.local_addr());
        let (_, before) = c.bc_score(0, 6).expect("bc before kill");

        pool.kill_worker(0);
        // Queries keep completing throughout the respawn window; the
        // RetryClient absorbs any Retry the router emits meanwhile.
        let mut rc = RetryClient::new(
            vec![pool.local_addr().to_string()],
            ClientConfig {
                max_retries: 50,
                backoff_base_ms: 10,
                backoff_max_ms: 100,
                ..ClientConfig::default()
            },
        );
        for _ in 0..10 {
            match rc.call(&Request::BcScore { epoch: 0, v: 6 }).expect("call") {
                Response::BcValue { score, .. } => {
                    assert_eq!(
                        score.to_bits(),
                        before.to_bits(),
                        "bit-exact across failover"
                    );
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        // The supervisor eventually records the respawn.
        let deadline = now_ms() + 30_000;
        while pool.pool_stats().respawns == 0 && now_ms() < deadline {
            thread::sleep(Duration::from_millis(20));
        }
        assert!(pool.pool_stats().respawns >= 1, "worker was respawned");
        assert_eq!(
            pool.recoveries_ms().len() as u64,
            pool.pool_stats().respawns
        );
    }

    #[test]
    fn respawned_worker_replays_mutations() {
        let pool = test_pool(2);
        let mut c = quick_client(pool.local_addr());
        let (e, _) = c.mutate(MutateOp::AddEdge, 2, 7).expect("mutate");
        assert_eq!(e, 2);

        pool.kill_worker(1);
        let deadline = now_ms() + 30_000;
        while pool.pool_stats().respawns == 0 && now_ms() < deadline {
            thread::sleep(Duration::from_millis(20));
        }
        // Shard-1 queries (handled by the respawned worker) answer at
        // the replayed epoch, not a stale one.
        let mut rc = RetryClient::new(
            vec![pool.local_addr().to_string()],
            ClientConfig {
                max_retries: 50,
                backoff_base_ms: 10,
                backoff_max_ms: 100,
                ..ClientConfig::default()
            },
        );
        match rc
            .call(&Request::PathInfo {
                epoch: 0,
                s: 11,
                t: 0,
            })
            .expect("path after respawn")
        {
            Response::PathInfo { epoch, .. } => assert_eq!(epoch, 2, "mutation was replayed"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shard_affinity_is_contiguous_and_total() {
        assert_eq!(shard_of(0, 12, 3), 0);
        assert_eq!(shard_of(3, 12, 3), 0);
        assert_eq!(shard_of(4, 12, 3), 1);
        assert_eq!(shard_of(11, 12, 3), 2);
        // Every vertex maps to a valid rank, ranges are monotone.
        let mut prev = 0usize;
        for s in 0..100u32 {
            let r = shard_of(s, 100, 7);
            assert!(r < 7);
            assert!(r >= prev);
            prev = r;
        }
        // Degenerate inputs stay in range.
        assert_eq!(shard_of(5, 0, 3), 0);
        assert_eq!(shard_of(500, 100, 7), 6);
    }

    #[test]
    fn shutdown_via_protocol_stops_the_pool() {
        let mut pool = test_pool(1);
        let mut c = quick_client(pool.local_addr());
        c.shutdown().expect("bye");
        pool.wait();
        assert!(pool.is_shutting_down());
    }

    /// Runs a pool with the given churn clause to storm completion and
    /// returns its final (epoch, full-BC probe bits) for parity checks.
    fn churn_run(workers: usize, clause: &str) -> (u64, Vec<u64>) {
        let spawn = WorkerSpawn::InProcess {
            graph: test_graph(),
            bc: Box::default(),
            sched: SchedConfig::default(),
        };
        let cfg = PoolConfig {
            workers,
            dispatch_timeout_ms: 20_000,
            faults: Some(clause.parse().expect("churn clause")),
            ..PoolConfig::default()
        };
        let mut pool = start_pool(spawn, cfg).expect("pool starts");
        let deadline = now_ms() + 30_000;
        loop {
            let s = pool.pool_stats();
            if s.churn_total > 0 && s.churn_driven == s.churn_total {
                break;
            }
            assert!(now_ms() < deadline, "churn storm never completed: {s:?}");
            thread::sleep(Duration::from_millis(10));
        }
        let mut c = quick_client(pool.local_addr());
        let epoch = pool.epoch();
        let bits: Vec<u64> = (0..12)
            .map(|v| c.bc_score(0, v).expect("bc after storm").1.to_bits())
            .collect();
        pool.shutdown();
        (epoch, bits)
    }

    #[test]
    fn churn_storms_are_deterministic_across_pools() {
        // Same clause, different worker counts: identical mutation
        // sequence, hence identical final epoch and BC bits.
        let (e1, b1) = churn_run(1, "churn:edges=10@seed=7");
        let (e2, b2) = churn_run(2, "churn:edges=10@seed=7");
        assert!(e1 > 1, "storm must advance the epoch");
        assert_eq!(e1, e2);
        assert_eq!(b1, b2);
        // A different seed drives a different storm.
        let (_, b3) = churn_run(1, "churn:edges=10@seed=8");
        assert_ne!(b1, b3);
    }

    fn durable_pool(workers: usize, wal_dir: &std::path::Path) -> Pool {
        let spawn = WorkerSpawn::InProcess {
            graph: test_graph(),
            bc: Box::default(),
            sched: SchedConfig::default(),
        };
        let cfg = PoolConfig {
            workers,
            dispatch_timeout_ms: 20_000,
            detector: DetectorConfig {
                heartbeat_every_ms: 20,
                suspect_after_ms: 200,
                dead_after_ms: 800,
            },
            wal_dir: Some(wal_dir.to_path_buf()),
            wal_flush_ms: 0, // inline fsync: deterministic for tests
            ..PoolConfig::default()
        };
        start_pool(spawn, cfg).expect("pool starts")
    }

    #[test]
    fn durable_pool_recovers_epoch_stats_and_bc_across_restart() {
        let dir = std::env::temp_dir().join(format!("mrbc-pool-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (bc_before, gen_before, muts_before) = {
            let mut pool = durable_pool(2, &dir);
            let gen = pool.generation();
            assert!(gen >= 1, "WAL assigns a nonzero generation");
            let mut c = quick_client(pool.local_addr());
            assert_eq!(c.welcome().generation, gen);
            let (e1, applied) = c.mutate(MutateOp::AddEdge, 0, 5).expect("m1");
            assert!(applied);
            assert_eq!(e1, 2);
            let (e2, _) = c.mutate(MutateOp::RemoveEdge, 3, 9).expect("m2");
            assert_eq!(e2, 3);
            let (_, score) = c.bc_score(0, 6).expect("bc");
            let stats = c.stats().expect("stats");
            c.shutdown().expect("bye");
            pool.wait();
            (score, gen, stats.mutations)
        };
        assert_eq!(muts_before, 2);

        // A fresh front-end over the same WAL dir recovers the exact
        // acknowledged epoch, a newer generation, the cumulative stats
        // base, and bit-identical BC.
        let mut pool = durable_pool(2, &dir);
        assert!(pool.generation() > gen_before, "generation is monotone");
        let mut c = quick_client(pool.local_addr());
        let w = c.welcome();
        assert_eq!(w.epoch, 3, "recovered to the exact pre-shutdown epoch");
        let (_, score) = c.bc_score(0, 6).expect("bc after recovery");
        assert_eq!(
            score.to_bits(),
            bc_before.to_bits(),
            "bit-identical BC after crash-consistent recovery"
        );
        let stats = c.stats().expect("stats after recovery");
        assert_eq!(
            stats.mutations, 2,
            "mutation counter survives the restart via the stats base"
        );
        assert!(
            stats.queries >= 1,
            "pre-restart query counters merge into post-restart totals"
        );
        c.shutdown().expect("bye");
        pool.wait();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
