//! The Lemma-8 batch scheduler: admission control + query coalescing.
//!
//! Lemma 8 of the paper says `k` batched sources complete their forward
//! phases in `k + H` rounds instead of `k · H` — amortizing the graph
//! diameter `H` across the batch. The serving translation: when several
//! source-scoped queries (`dist(s, t)`, subset-BC) are pending at once,
//! dispatching them as **one** batch costs one `H`, not one per query.
//! The scheduler therefore drains the queue in contiguous runs of up to
//! `max_batch` queryable jobs, and the worker executes each run as a
//! unit; the observable win is the *coalescing factor* — source-scoped
//! queries per dispatched batch — which exceeds 1 exactly when
//! concurrency exists to exploit.
//!
//! Two policies keep the daemon predictable under load:
//!
//! * **Bounded queue.** `submit` refuses jobs beyond `queue_cap` with a
//!   structured `Busy{queued, capacity}` instead of queueing unboundedly
//!   — latency stays bounded and memory cannot grow without limit.
//! * **Mutation barrier.** A `Mutate` at the queue front is dispatched
//!   *alone*: jobs enqueued before it must see the pre-mutation epoch,
//!   jobs after it the post-mutation epoch, and FIFO dispatch with a
//!   barrier preserves exactly that.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Mutex;

use mrbc_obs::Histogram;

use crate::proto::{Request, Response, ServeStats, TraceCtx};

/// Scheduler tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// Maximum queued jobs before `submit` sheds load with `Busy`.
    pub queue_cap: usize,
    /// Maximum jobs coalesced into one worker dispatch.
    pub max_batch: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            queue_cap: 64,
            max_batch: 8,
        }
    }
}

/// One admitted query, carrying the reply channel of its session.
pub struct Job {
    /// Accept-order index of the owning session (diagnostics).
    pub session: u64,
    /// Client-chosen request id, echoed in the response.
    pub id: u64,
    /// `mrbc_obs::now_us()` at admission (0 when obs is disabled).
    pub enqueued_us: u64,
    /// Trace context the request arrived with (`TraceCtx::NONE` for
    /// uninstrumented clients); the worker tags its execution span with
    /// it so merged timelines correlate across processes.
    pub ctx: TraceCtx,
    /// The admitted request.
    pub req: Request,
    /// Where the worker sends the `(id, response)` pair. A dead receiver
    /// (client hung up) makes the send a no-op — the worker never blocks
    /// on a departed client.
    pub reply: Sender<(u64, Response)>,
}

/// Monotonic serving counters, readable from any thread.
#[derive(Debug, Default)]
pub struct Counters {
    /// Queue-admitted requests.
    pub queries: AtomicU64,
    /// Source-scoped queries executed.
    pub source_queries: AtomicU64,
    /// Dispatches containing ≥ 1 source-scoped query.
    pub batches: AtomicU64,
    /// Distinct sources computed across all batches.
    pub batched_sources: AtomicU64,
    /// `Busy` refusals.
    pub busy_rejections: AtomicU64,
    /// `Stale` refusals.
    pub stale_rejections: AtomicU64,
    /// Applied (epoch-bumping) mutations.
    pub mutations: AtomicU64,
    /// Per-source artifacts reused across epoch bumps by the
    /// incremental maintenance engine.
    pub sources_reused: AtomicU64,
    /// Per-source artifacts rebuilt by the maintenance engine.
    pub sources_rebuilt: AtomicU64,
    /// Accepted client sessions.
    pub sessions: AtomicU64,
    /// Per-phase latency histograms. Always on — the log-bucketed
    /// record path is a handful of integer ops under a short lock, so
    /// quantiles are available from `Stats` even without `--trace`.
    pub phases: Mutex<PhaseHists>,
}

/// The three serving-phase histograms exported via `Stats`.
#[derive(Debug, Default)]
pub struct PhaseHists {
    /// Admission → dispatch wait ("serve.queue_us").
    pub queue: Histogram,
    /// Dispatch → response compute ("serve.exec_us").
    pub exec: Histogram,
    /// Admission → response, end to end ("serve.total_us").
    pub total: Histogram,
}

impl Counters {
    /// Records one executed job's phase latencies (µs).
    pub fn record_phases(&self, queue_us: u64, exec_us: u64) {
        let mut h = self.phases.lock().unwrap_or_else(|e| e.into_inner());
        h.queue.record(queue_us);
        h.exec.record(exec_us);
        h.total.record(queue_us.saturating_add(exec_us));
    }

    /// Snapshot into the wire-level stats struct. `epoch` and
    /// `queue_depth` are instantaneous readings supplied by the caller;
    /// the pool-tier counters (`hedge_fired`, ...) stay zero here and
    /// are filled in by the front-end when it aggregates.
    pub fn snapshot(&self, epoch: u64, queue_depth: u64) -> ServeStats {
        let hists = {
            let h = self.phases.lock().unwrap_or_else(|e| e.into_inner());
            vec![
                ("serve.exec_us".to_string(), h.exec.clone()),
                ("serve.queue_us".to_string(), h.queue.clone()),
                ("serve.total_us".to_string(), h.total.clone()),
            ]
        };
        ServeStats {
            epoch,
            queries: self.queries.load(Ordering::Relaxed),
            source_queries: self.source_queries.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_sources: self.batched_sources.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            stale_rejections: self.stale_rejections.load(Ordering::Relaxed),
            mutations: self.mutations.load(Ordering::Relaxed),
            sources_reused: self.sources_reused.load(Ordering::Relaxed),
            sources_rebuilt: self.sources_rebuilt.load(Ordering::Relaxed),
            sessions: self.sessions.load(Ordering::Relaxed),
            queue_depth,
            hedge_fired: 0,
            failover_attempts: 0,
            replay_mutations: 0,
            hists,
        }
    }
}

/// The bounded FIFO queue between session threads and the batch worker.
pub struct Scheduler {
    cfg: SchedConfig,
    queue: Mutex<VecDeque<Job>>,
    /// Serving counters (sessions and worker both update these).
    pub counters: Counters,
}

impl Scheduler {
    /// Empty scheduler with the given knobs.
    pub fn new(cfg: SchedConfig) -> Self {
        Scheduler {
            cfg,
            queue: Mutex::new(VecDeque::new()),
            counters: Counters::default(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Jobs currently queued.
    pub fn queued(&self) -> usize {
        self.lock().len()
    }

    /// Admits `job`, or sheds it: `Err((queued, capacity))` when the
    /// queue is at capacity. Never blocks.
    pub fn submit(&self, job: Job) -> Result<(), (u32, u32)> {
        let mut q = self.lock();
        if q.len() >= self.cfg.queue_cap {
            self.counters
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Err((q.len() as u32, self.cfg.queue_cap as u32));
        }
        q.push_back(job);
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Takes the next dispatch: a lone `Mutate` if one heads the queue
    /// (the epoch barrier), otherwise the longest non-`Mutate` prefix up
    /// to `max_batch`. Empty when nothing is queued.
    pub fn take_batch(&self) -> Vec<Job> {
        let mut q = self.lock();
        let mut batch = Vec::new();
        if matches!(q.front().map(|j| &j.req), Some(Request::Mutate { .. })) {
            if let Some(job) = q.pop_front() {
                batch.push(job);
            }
            return batch;
        }
        while batch.len() < self.cfg.max_batch {
            match q.front().map(|j| &j.req) {
                Some(Request::Mutate { .. }) | None => break,
                Some(_) => {
                    if let Some(job) = q.pop_front() {
                        batch.push(job);
                    }
                }
            }
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn job(req: Request) -> Job {
        let (tx, _rx) = mpsc::channel();
        // Leak the receiver end deliberately: these tests only exercise
        // queue mechanics, not delivery.
        std::mem::forget(_rx);
        Job {
            session: 0,
            id: 0,
            enqueued_us: 0,
            ctx: TraceCtx::NONE,
            req,
            reply: tx,
        }
    }

    fn query() -> Request {
        Request::BcScore { epoch: 0, v: 0 }
    }

    fn mutate() -> Request {
        Request::Mutate {
            op: crate::proto::MutateOp::AddEdge,
            u: 0,
            v: 1,
        }
    }

    #[test]
    fn bounded_queue_sheds_load_with_capacity_info() {
        let s = Scheduler::new(SchedConfig {
            queue_cap: 2,
            max_batch: 8,
        });
        assert!(s.submit(job(query())).is_ok());
        assert!(s.submit(job(query())).is_ok());
        assert_eq!(s.submit(job(query())), Err((2, 2)));
        assert_eq!(s.counters.busy_rejections.load(Ordering::Relaxed), 1);
        assert_eq!(s.counters.queries.load(Ordering::Relaxed), 2);
        assert_eq!(s.queued(), 2);
    }

    #[test]
    fn batches_coalesce_up_to_max_batch() {
        let s = Scheduler::new(SchedConfig {
            queue_cap: 64,
            max_batch: 3,
        });
        for _ in 0..5 {
            s.submit(job(query())).unwrap();
        }
        assert_eq!(s.take_batch().len(), 3);
        assert_eq!(s.take_batch().len(), 2);
        assert!(s.take_batch().is_empty());
    }

    #[test]
    fn mutations_are_dispatch_barriers() {
        let s = Scheduler::new(SchedConfig {
            queue_cap: 64,
            max_batch: 8,
        });
        s.submit(job(query())).unwrap();
        s.submit(job(query())).unwrap();
        s.submit(job(mutate())).unwrap();
        s.submit(job(query())).unwrap();
        // Pre-mutation queries batch together but stop at the barrier.
        let b1 = s.take_batch();
        assert_eq!(b1.len(), 2);
        assert!(b1.iter().all(|j| !matches!(j.req, Request::Mutate { .. })));
        // The mutation dispatches alone.
        let b2 = s.take_batch();
        assert_eq!(b2.len(), 1);
        assert!(matches!(b2[0].req, Request::Mutate { .. }));
        // Post-mutation queries resume batching.
        assert_eq!(s.take_batch().len(), 1);
    }

    #[test]
    fn counters_snapshot_into_wire_stats() {
        let c = Counters::default();
        c.queries.store(10, Ordering::Relaxed);
        c.source_queries.store(8, Ordering::Relaxed);
        c.batches.store(2, Ordering::Relaxed);
        c.record_phases(100, 300);
        let s = c.snapshot(7, 3);
        assert_eq!(s.epoch, 7);
        assert_eq!(s.queries, 10);
        assert_eq!(s.coalescing_factor(), 4.0);
        assert_eq!(s.queue_depth, 3);
        // Worker snapshots never claim pool-tier activity.
        assert_eq!(s.hedge_fired, 0);
        assert_eq!(s.failover_attempts, 0);
        assert_eq!(s.replay_mutations, 0);
        let q = s.hist("serve.queue_us").expect("queue hist");
        assert_eq!((q.count(), q.sum()), (1, 100));
        let t = s.hist("serve.total_us").expect("total hist");
        assert_eq!(t.sum(), 400);
    }
}
