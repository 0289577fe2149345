//! Chaos benchmark for the supervised serve-worker pool: concurrent
//! retrying clients hammer a pool over real localhost TCP while a chaos
//! thread repeatedly kills workers mid-load. Measures what the
//! supervision layer actually promises —
//!
//! * **zero hung clients**: every client thread joins, every query
//!   terminates (answer or a structured `Retry`, never a stuck socket);
//! * **bit-identical answers**: each completed BC response matches the
//!   fault-free baseline bit for bit (per-source contributions compose
//!   independently, so failover must never change a score);
//! * **bounded recovery**: supervisor detect→respawn→replay latency
//!   percentiles (p50/p99) stay finite and small.
//!
//! Run with: `cargo run --release -p mrbc-bench --bin chaosbench`
//! Pass `--json` to also emit a machine-readable `BENCH_chaos.json`,
//! `--quick` for the single-case CI shape.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mrbc_bench::report::{percentile, Table};
use mrbc_core::BcConfig;
use mrbc_graph::generators;
use mrbc_net::DetectorConfig;
use mrbc_obs::json::JsonWriter;
use mrbc_serve::{
    start_pool, ClientConfig, PoolConfig, Request, Response, RetryClient, SchedConfig, WorkerSpawn,
};

struct Case {
    name: &'static str,
    scale: u32,
    workers: usize,
    clients: usize,
    queries_per_client: usize,
    /// Workers to kill, spaced across the load window.
    kills: usize,
}

struct Measurement {
    name: &'static str,
    workers: usize,
    clients: usize,
    queries: u64,
    completed: u64,
    retried: u64,
    mismatches: u64,
    kills: usize,
    respawns: u64,
    failovers: u64,
    recovery_p50_ms: u64,
    recovery_p99_ms: u64,
}

fn cases(quick: bool) -> Vec<Case> {
    if quick {
        return vec![Case {
            name: "rmat-s6",
            scale: 6,
            workers: 3,
            clients: 4,
            queries_per_client: 20,
            kills: 1,
        }];
    }
    vec![
        Case {
            name: "rmat-s7",
            scale: 7,
            workers: 3,
            clients: 4,
            queries_per_client: 40,
            kills: 2,
        },
        Case {
            name: "rmat-s7",
            scale: 7,
            workers: 4,
            clients: 8,
            queries_per_client: 30,
            kills: 3,
        },
    ]
}

/// One chaos run: pool up, baseline scores, concurrent retrying clients
/// under a worker-killing chaos thread, then verify and measure.
fn run_case(case: &Case) -> Measurement {
    let g = generators::rmat(generators::RmatConfig::new(case.scale, 8), 23);
    let n = g.num_vertices() as u32;
    let cfg = PoolConfig {
        workers: case.workers,
        // Tight detector so respawn latency, not timeout padding,
        // dominates the recovery percentiles.
        detector: DetectorConfig {
            heartbeat_every_ms: 20,
            suspect_after_ms: 200,
            dead_after_ms: 800,
        },
        ..PoolConfig::default()
    };
    let spawn = WorkerSpawn::InProcess {
        graph: g,
        bc: Box::new(BcConfig::default()),
        sched: SchedConfig {
            queue_cap: 256,
            max_batch: 8,
        },
    };
    let mut pool = start_pool(spawn, cfg).expect("pool starts");
    let addr = pool.local_addr().to_string();

    let client_cfg = ClientConfig {
        max_retries: 50,
        backoff_base_ms: 5,
        backoff_max_ms: 100,
        ..ClientConfig::default()
    };

    // Fault-free baseline: the exact bit patterns every later answer
    // must reproduce. Driving it through the pool also warms each
    // worker's epoch cache so the chaos window measures serving, not
    // cold BC computation.
    let probe_vertex = |q: usize| {
        let pick = mrbc_util::splitmix64(q as u64 ^ 0x000c_4a05);
        (pick % u64::from(n)) as u32
    };
    let mut baseline: Vec<u64> = Vec::new();
    {
        let mut c = RetryClient::new(vec![addr.clone()], client_cfg.clone());
        for q in 0..case.queries_per_client {
            match c.call(&Request::BcScore {
                epoch: 0,
                v: probe_vertex(q),
            }) {
                Ok(Response::BcValue { score, .. }) => baseline.push(score.to_bits()),
                other => panic!("baseline query failed: {other:?}"),
            }
        }
    }

    // Chaos thread: SIGKILL-equivalent worker deaths spaced across the
    // load window (round-robin over ranks, supervisor respawns between
    // kills).
    let stop = Arc::new(AtomicBool::new(false));
    let completed = Arc::new(AtomicU64::new(0));
    let retried = Arc::new(AtomicU64::new(0));
    let mismatches = Arc::new(AtomicU64::new(0));
    let total = (case.clients * case.queries_per_client) as u64;
    std::thread::scope(|scope| {
        let pool = &pool;
        {
            let stop = Arc::clone(&stop);
            let completed = Arc::clone(&completed);
            scope.spawn(move || {
                let mut killed = 0usize;
                while killed < case.kills && !stop.load(Ordering::SeqCst) {
                    // Wait until the clients are genuinely mid-load so
                    // the kill lands on in-flight traffic.
                    let due = total * (killed as u64 + 1) / (case.kills as u64 + 1);
                    if completed.load(Ordering::SeqCst) < due {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        continue;
                    }
                    pool.kill_worker(killed % case.workers);
                    killed += 1;
                }
            });
        }
        let mut handles = Vec::new();
        for client_id in 0..case.clients {
            let addr = addr.clone();
            let client_cfg = client_cfg.clone();
            let baseline = &baseline;
            let completed = Arc::clone(&completed);
            let retried = Arc::clone(&retried);
            let mismatches = Arc::clone(&mismatches);
            handles.push(scope.spawn(move || {
                let mut c = RetryClient::new(vec![addr], client_cfg);
                for (q, &expected) in baseline.iter().enumerate() {
                    let v = probe_vertex(q);
                    match c.call(&Request::BcScore { epoch: 0, v }) {
                        Ok(Response::BcValue { score, .. }) => {
                            if score.to_bits() != expected {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // Structured degradation after retries is legal
                        // (never a hang); anything else is a mismatch.
                        Ok(Response::Retry { .. }) | Ok(Response::Busy { .. }) => {
                            retried.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                }
                client_id
            }));
        }
        // Every client must JOIN — a hung client would hang the bench,
        // which is exactly the regression this harness exists to catch.
        for h in handles {
            h.join().expect("client thread hung or panicked");
        }
        stop.store(true, Ordering::SeqCst);
    });

    let stats = pool.pool_stats();
    let mut recoveries = pool.recoveries_ms();
    recoveries.sort_unstable();
    let m = Measurement {
        name: case.name,
        workers: case.workers,
        clients: case.clients,
        queries: total,
        completed: total - retried.load(Ordering::Relaxed),
        retried: retried.load(Ordering::Relaxed),
        mismatches: mismatches.load(Ordering::Relaxed),
        kills: case.kills,
        respawns: stats.respawns,
        failovers: stats.failovers,
        recovery_p50_ms: percentile(&recoveries, 0.50),
        recovery_p99_ms: percentile(&recoveries, 0.99),
    };
    pool.shutdown();
    m
}

fn to_json(ms: &[Measurement]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("mrbc-bench-chaos-v1");
    w.key("cases");
    w.begin_array();
    for m in ms {
        w.begin_object();
        w.key("input");
        w.string(m.name);
        w.key("workers");
        w.float(m.workers as f64);
        w.key("clients");
        w.float(m.clients as f64);
        w.key("queries");
        w.float(m.queries as f64);
        w.key("completed");
        w.float(m.completed as f64);
        w.key("retried");
        w.float(m.retried as f64);
        w.key("bit_mismatches");
        w.float(m.mismatches as f64);
        w.key("kills");
        w.float(m.kills as f64);
        w.key("respawns");
        w.float(m.respawns as f64);
        w.key("failovers");
        w.float(m.failovers as f64);
        w.key("recovery_p50_ms");
        w.float(m.recovery_p50_ms as f64);
        w.key("recovery_p99_ms");
        w.float(m.recovery_p99_ms as f64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn main() {
    mrbc_obs::install("chaosbench");
    let json_out = std::env::args().any(|a| a == "--json");
    let quick = std::env::args().any(|a| a == "--quick");
    let mut tbl = Table::new(
        "pool chaos: worker kills under concurrent retrying client load",
        &[
            "input", "workers", "clients", "queries", "done", "retried", "bitdiff", "kills",
            "respawn", "failover", "rec p50", "rec p99",
        ],
    );
    let mut measurements = Vec::new();
    let mut failed = false;
    for case in cases(quick) {
        let m = run_case(&case);
        // Acceptance: every kill respawned, nothing diverged bitwise.
        if m.mismatches > 0 || m.respawns < m.kills as u64 {
            failed = true;
        }
        tbl.row(vec![
            m.name.into(),
            m.workers.to_string(),
            m.clients.to_string(),
            m.queries.to_string(),
            m.completed.to_string(),
            m.retried.to_string(),
            m.mismatches.to_string(),
            m.kills.to_string(),
            m.respawns.to_string(),
            m.failovers.to_string(),
            format!("{}ms", m.recovery_p50_ms),
            format!("{}ms", m.recovery_p99_ms),
        ]);
        measurements.push(m);
    }
    tbl.print();
    println!(
        "\nbitdiff counts completed responses that diverged from the fault-free\n\
         baseline (must be 0: per-source BC contributions compose independently,\n\
         so failover may delay an answer but never change it); rec p50/p99 is the\n\
         supervisor's detect -> respawn -> replay latency."
    );
    if json_out {
        let doc = to_json(&measurements);
        std::fs::write("BENCH_chaos.json", &doc).expect("write BENCH_chaos.json");
        println!("\nmachine-readable results written to BENCH_chaos.json");
    }
    if failed {
        eprintln!("chaosbench: acceptance violated (bit mismatch or missing respawn)");
        // lint: allow(exit): bench binary's CI gate — nonzero exit is the contract
        std::process::exit(1);
    }
}
