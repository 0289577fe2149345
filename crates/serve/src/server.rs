//! The serving daemon: listener, per-session pumps, and the batch worker.
//!
//! Threading model (all std, no async runtime):
//!
//! * one **listener** thread accepts connections on a nonblocking socket
//!   and spawns a session thread per client;
//! * each **session** thread pumps its nonblocking stream — raw bytes in
//!   through an [`EnvelopeDecoder`], responses out — answering cheap
//!   requests (`Hello`, `Stats`) inline and submitting everything else
//!   to the scheduler, replying `Busy` itself when admission fails;
//! * one **worker** thread drains the scheduler in Lemma-8 batches and
//!   executes against the [`EpochStore`], sending answers back through
//!   each job's reply channel. A departed client turns its channel sends
//!   into no-ops, so a mid-stream disconnect never stalls the batch —
//!   the chaos contract.
//!
//! Every loop is a 1 ms-sleep pump gated on one shared shutdown flag
//! (the same pattern as the `mrbc-net` mesh), so `SIGTERM`-less clean
//! shutdown works through the protocol: any client's `Shutdown` request
//! flips the flag, the worker drains its queue, sessions flush and exit,
//! and [`Server::wait`] returns.
//!
//! Fault injection reuses the `mrbc-faults` plan DSL: `stall:ms=D`
//! delays the worker before each batch (surfacing queue buildup →
//! `Busy` under burst), and `hangup:session=N` severs the `N`-th
//! accepted session after its first response (the client-facing chaos
//! clause).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mrbc_core::BcConfig;
use mrbc_faults::FaultPlan;
use mrbc_graph::CsrGraph;
use mrbc_obs as obs;
use mrbc_util::framing::{self, EnvelopeDecoder};

use crate::proto::{encode_response, Request, Response, ServeStats};
use crate::sched::{Job, SchedConfig, Scheduler};
use crate::store::EpochStore;

/// How long pump loops sleep when idle.
const PUMP_IDLE: Duration = Duration::from_millis(1);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Driver configuration used for every BC computation (algorithm,
    /// Lemma-8 batch size, host count, ...).
    pub bc: BcConfig,
    /// Scheduler admission-control knobs.
    pub sched: SchedConfig,
    /// Optional fault plan (`stall:ms=`, `hangup:session=` clauses).
    pub faults: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            bc: BcConfig::default(),
            sched: SchedConfig::default(),
            faults: None,
        }
    }
}

struct Shared {
    store: EpochStore,
    sched: Scheduler,
    shutdown: AtomicBool,
    /// Highest WAL generation any greeting front-end has presented.
    /// A Hello carrying an older nonzero generation is refused — it
    /// comes from a pre-restart front-end that lost a split-brain race.
    max_generation: AtomicU64,
}

impl Shared {
    fn stats(&self) -> ServeStats {
        self.sched
            .counters
            .snapshot(self.store.epoch(), self.sched.queued() as u64)
    }
}

/// A running daemon. Dropping the handle triggers shutdown and joins
/// every thread.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    worker: Option<JoinHandle<()>>,
}

/// Loads `graph` into an epoch store and starts serving on `cfg.addr`.
pub fn start(graph: CsrGraph, cfg: ServeConfig) -> io::Result<Server> {
    let listener = TcpListener::bind(&cfg.addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        store: EpochStore::new(graph, cfg.bc.clone()),
        sched: Scheduler::new(cfg.sched),
        shutdown: AtomicBool::new(false),
        max_generation: AtomicU64::new(0),
    });

    let stall = Duration::from_millis(u64::from(cfg.faults.as_ref().map_or(0, |p| p.stall_ms)));
    let hangups: Vec<u32> = cfg
        .faults
        .as_ref()
        .map_or_else(Vec::new, |p| p.hangups.clone());

    let worker = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("serve-worker".into())
            .spawn(move || worker_loop(&shared, stall))?
    };
    let accept = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("serve-listen".into())
            .spawn(move || listener_loop(listener, &shared, &hangups))?
    };

    Ok(Server {
        local_addr,
        shared,
        listener: Some(accept),
        worker: Some(worker),
    })
}

impl Server {
    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current graph epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.store.epoch()
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// True once shutdown has been requested (by [`Self::trigger_shutdown`]
    /// or a client's `Shutdown` request).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown without blocking; threads wind down on their
    /// next pump iteration.
    pub fn trigger_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until every serving thread has exited. Call after
    /// [`Self::trigger_shutdown`], or rely on a client's `Shutdown`
    /// request flipping the flag.
    pub fn wait(&mut self) {
        if let Some(h) = self.listener.take() {
            drop(h.join());
        }
        if let Some(h) = self.worker.take() {
            drop(h.join());
        }
    }

    /// Triggers shutdown and joins every thread.
    pub fn shutdown(&mut self) {
        self.trigger_shutdown();
        self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn listener_loop(listener: TcpListener, shared: &Arc<Shared>, hangups: &[u32]) {
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let index = shared
                    .sched
                    .counters
                    .sessions
                    .fetch_add(1, Ordering::Relaxed) as u32
                    + 1;
                let sever_after_first = hangups.contains(&index);
                let shared = Arc::clone(shared);
                let spawned = thread::Builder::new()
                    .name(format!("serve-sess-{index}"))
                    .spawn(move || {
                        session_loop(stream, &shared, u64::from(index), sever_after_first)
                    });
                match spawned {
                    Ok(h) => sessions.push(h),
                    Err(_) => {
                        // Thread exhaustion: shed the connection; the
                        // client sees a closed stream and can retry.
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

/// Writes one sealed response, retrying short/blocked writes.
fn write_response(stream: &mut TcpStream, id: u64, resp: &Response) -> io::Result<()> {
    let bytes = framing::seal(&encode_response(id, resp));
    let mut off = 0;
    while off < bytes.len() {
        match stream.write(&bytes[off..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "peer closed")),
            Ok(n) => off += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(PUMP_IDLE),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn session_loop(mut stream: TcpStream, shared: &Arc<Shared>, session: u64, sever: bool) {
    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let _span = obs::span("serve.session", "serve").arg("session", session);
    let (reply_tx, reply_rx) = mpsc::channel::<(u64, Response)>();
    let mut dec = EnvelopeDecoder::new();
    let mut greeted = false;
    let mut written: u64 = 0;
    let mut buf = [0u8; 4096];

    'pump: loop {
        // 1. Socket → decoder.
        match stream.read(&mut buf) {
            Ok(0) => break 'pump, // peer closed
            Ok(n) => dec.feed(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break 'pump,
        }

        // 2. Decoder → requests.
        loop {
            let body = match dec.next_body() {
                Ok(Some(b)) => b,
                Ok(None) => break,
                Err(_) => break 'pump, // unsyncable stream: drop it
            };
            let (id, ctx, req) = match crate::proto::decode_request(&body) {
                Ok(triple) => triple,
                Err(e) => {
                    let resp = Response::Error {
                        message: format!("malformed request: {e}"),
                    };
                    drop(write_response(&mut stream, 0, &resp));
                    break 'pump;
                }
            };
            if !greeted && !matches!(req, Request::Hello { .. }) {
                let resp = Response::Error {
                    message: "handshake required before queries".to_string(),
                };
                drop(write_response(&mut stream, id, &resp));
                break 'pump;
            }
            match req {
                Request::Hello { generation } => {
                    // Generation fencing: remember the highest front-end
                    // generation ever greeted; refuse older nonzero ones
                    // (a stale pre-restart front-end racing its
                    // successor). Ordinary clients send 0 and pass.
                    let prev = shared
                        .max_generation
                        .fetch_max(generation, Ordering::SeqCst);
                    if generation != 0 && generation < prev {
                        let resp = Response::Error {
                            message: format!(
                                "stale generation {generation}: a newer front-end \
                                 (generation {prev}) already owns this worker"
                            ),
                        };
                        drop(write_response(&mut stream, id, &resp));
                        break 'pump;
                    }
                    greeted = true;
                    let (vertices, edges) = shared.store.graph_info();
                    // `now_us` is the t1 of the pool's NTP-style clock
                    // probe; `pid` identifies this process's trace track.
                    let resp = Response::Welcome {
                        epoch: shared.store.epoch(),
                        vertices,
                        edges,
                        now_us: obs::now_us(),
                        pid: u64::from(std::process::id()),
                        generation: shared.max_generation.load(Ordering::SeqCst),
                    };
                    if write_response(&mut stream, id, &resp).is_err() {
                        break 'pump;
                    }
                    written += 1;
                }
                Request::Stats => {
                    if write_response(&mut stream, id, &Response::Stats(shared.stats())).is_err() {
                        break 'pump;
                    }
                    written += 1;
                }
                Request::Shutdown => {
                    drop(write_response(&mut stream, id, &Response::Bye));
                    shared.shutdown.store(true, Ordering::SeqCst);
                    break 'pump;
                }
                req => {
                    let job = Job {
                        session,
                        id,
                        enqueued_us: obs::now_us(),
                        ctx,
                        req,
                        reply: reply_tx.clone(),
                    };
                    if let Err((queued, capacity)) = shared.sched.submit(job) {
                        let resp = Response::Busy { queued, capacity };
                        if write_response(&mut stream, id, &resp).is_err() {
                            break 'pump;
                        }
                        written += 1;
                    }
                }
            }
            if sever && written > 0 {
                break 'pump; // injected hangup: sever after first response
            }
        }

        // 3. Worker replies → socket.
        while let Ok((id, resp)) = reply_rx.try_recv() {
            if write_response(&mut stream, id, &resp).is_err() {
                break 'pump;
            }
            written += 1;
            if sever {
                break 'pump;
            }
        }

        if shared.shutdown.load(Ordering::SeqCst) {
            // Flush any responses the worker already produced, then exit.
            while let Ok((id, resp)) = reply_rx.try_recv() {
                if write_response(&mut stream, id, &resp).is_err() {
                    break;
                }
            }
            break 'pump;
        }
        thread::sleep(PUMP_IDLE);
    }
}

fn worker_loop(shared: &Arc<Shared>, stall: Duration) {
    loop {
        let batch = shared.sched.take_batch();
        if batch.is_empty() {
            if shared.shutdown.load(Ordering::SeqCst) {
                break; // queue drained and shutdown requested
            }
            thread::sleep(PUMP_IDLE);
            continue;
        }
        if !stall.is_zero() {
            thread::sleep(stall); // injected worker stall (fault plan)
        }
        execute_batch(shared, batch);
    }
}

/// Executes one scheduler dispatch, maintaining the Lemma-8 batching
/// counters: a batch "counts" when it contains ≥ 1 source-scoped query,
/// and `batched_sources` accumulates the *distinct* sources the batch
/// needed — the quantity Lemma 8's `k + H` bound is about.
fn execute_batch(shared: &Arc<Shared>, batch: Vec<Job>) {
    let counters = &shared.sched.counters;
    let mut sources: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut source_jobs = 0u64;
    for job in &batch {
        match &job.req {
            Request::PathInfo { s, .. } => {
                sources.insert(*s);
                source_jobs += 1;
            }
            Request::SubsetBc { sources: ss, .. } => {
                sources.extend(ss.iter().copied());
                source_jobs += 1;
            }
            _ => {}
        }
    }
    if source_jobs > 0 {
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters
            .source_queries
            .fetch_add(source_jobs, Ordering::Relaxed);
        counters
            .batched_sources
            .fetch_add(sources.len() as u64, Ordering::Relaxed);
    }

    for job in batch {
        let started = obs::now_us();
        // The execution span carries the originating query's trace
        // context so `mrbc obs merge` can stitch it under the
        // front-end's span on a separate process track.
        let span = obs::span("serve.query", "serve")
            .arg("session", job.session)
            .arg("id", job.id)
            .arg("trace", job.ctx.trace)
            .arg("span", obs::fresh_id())
            .arg("parent", job.ctx.parent);
        let resp = execute_job(shared, &job.req);
        drop(span);
        let done = obs::now_us();
        let queue_us = started.saturating_sub(job.enqueued_us);
        let exec_us = done.saturating_sub(started);
        counters.record_phases(queue_us, exec_us);
        if done > job.enqueued_us {
            obs::histogram_record("serve.latency_us", done - job.enqueued_us);
        }
        obs::flight::note("serve.query", job.ctx.trace, job.id);
        // A dead receiver means the client left: drop the answer, keep
        // the batch going.
        drop(job.reply.send((job.id, resp)));
    }
}

fn execute_job(shared: &Arc<Shared>, req: &Request) -> Response {
    let store = &shared.store;
    let counters = &shared.sched.counters;
    let epoch = store.epoch();
    let pin = req.epoch_pin();
    if pin != 0 && pin != epoch {
        counters.stale_rejections.fetch_add(1, Ordering::Relaxed);
        return Response::Stale {
            requested: pin,
            current: epoch,
        };
    }
    let n = store.num_vertices() as u32;
    let oob = |what: &str, v: u32| Response::Error {
        message: format!("{what} {v} out of range for {n} vertices"),
    };
    match req {
        Request::BcScore { v, .. } => {
            if *v >= n {
                return oob("vertex", *v);
            }
            Response::BcValue {
                epoch,
                score: store.full_bc()[*v as usize],
            }
        }
        Request::TopK { k, .. } => Response::TopKList {
            epoch,
            entries: store.top_k(*k as usize),
        },
        Request::PathInfo { s, t, .. } => {
            if *s >= n {
                return oob("source", *s);
            }
            if *t >= n {
                return oob("target", *t);
            }
            let fw = store.forward(*s);
            Response::PathInfo {
                epoch,
                dist: fw.0[*t as usize],
                sigma: fw.1[*t as usize],
            }
        }
        Request::SubsetBc { sources, .. } => {
            if let Some(&bad) = sources.iter().find(|&&s| s >= n) {
                return oob("source", bad);
            }
            Response::SubsetBc {
                epoch,
                scores: store.subset_bc(sources),
            }
        }
        Request::Mutate { op, u, v } => {
            if *u >= n {
                return oob("vertex", *u);
            }
            if *v >= n {
                return oob("vertex", *v);
            }
            let out = store.mutate(*op, *u, *v);
            if out.applied {
                counters.mutations.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(m) = out.maintenance {
                counters
                    .sources_reused
                    .fetch_add(m.sources_reused, Ordering::Relaxed);
                counters
                    .sources_rebuilt
                    .fetch_add(m.sources_rebuilt, Ordering::Relaxed);
                obs::counter_add("serve.incr.sources_reused", m.sources_reused);
                obs::counter_add("serve.incr.sources_rebuilt", m.sources_rebuilt);
            }
            // lint: allow(ackdurable): worker tier — durability is the pool front-end's job
            Response::Mutated {
                epoch: out.epoch,
                applied: out.applied,
            }
        }
        // Answered inline by the session thread; never queued.
        Request::Hello { .. } | Request::Stats | Request::Shutdown => Response::Error {
            message: "request not queueable".to_string(),
        },
    }
}
