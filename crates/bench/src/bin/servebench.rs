//! Load benchmark for the `mrbc-serve` query daemon: concurrent client
//! threads issue a mixed query workload against an in-process daemon
//! over real localhost TCP, measuring throughput (QPS), per-query
//! latency percentiles, and the Lemma-8 batch-coalescing factor
//! (source-scoped queries per dispatched batch — above 1.0 exactly when
//! concurrency gave the scheduler something to amortize).
//!
//! Run with: `cargo run --release -p mrbc-bench --bin servebench`
//! Pass `--json` to also emit a machine-readable `BENCH_serve.json`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mrbc_bench::report::{percentile, Table};
use mrbc_graph::generators;
use mrbc_obs::json::JsonWriter;
use mrbc_serve::{SchedConfig, ServeClient, ServeConfig, ServeStats};

struct Case {
    name: &'static str,
    scale: u32,
    clients: usize,
    queries_per_client: usize,
    max_batch: usize,
}

struct Measurement {
    name: &'static str,
    clients: usize,
    queries: u64,
    qps: f64,
    p50_us: u64,
    p99_us: u64,
    coalescing: f64,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "rmat-s7",
            scale: 7,
            clients: 1,
            queries_per_client: 100,
            max_batch: 8,
        },
        Case {
            name: "rmat-s7",
            scale: 7,
            clients: 4,
            queries_per_client: 25,
            max_batch: 8,
        },
        Case {
            name: "rmat-s8",
            scale: 8,
            clients: 8,
            queries_per_client: 25,
            max_batch: 8,
        },
    ]
}

/// Drives one case: spawns the daemon, hammers it, reads the counters.
fn run_case(case: &Case) -> (Measurement, ServeStats) {
    let g = generators::rmat(generators::RmatConfig::new(case.scale, 8), 23);
    let n = g.num_vertices() as u32;
    let cfg = ServeConfig {
        sched: SchedConfig {
            queue_cap: 256,
            max_batch: case.max_batch,
        },
        ..ServeConfig::default()
    };
    let mut server = mrbc_serve::start(g, cfg).expect("daemon starts");
    let addr = server.local_addr();

    // Warm the epoch's full-BC cache so the measured window reflects
    // steady-state serving, not the one-off cold computation.
    {
        let mut c = ServeClient::connect(addr).expect("warmup connect");
        c.top_k(0, 1).expect("warmup top_k");
    }

    let total_queries = Arc::new(AtomicU64::new(0));
    let t0 = mrbc_obs::now_us();
    let mut all_latencies: Vec<u64> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client_id in 0..case.clients {
            let total_queries = Arc::clone(&total_queries);
            handles.push(scope.spawn(move || {
                let mut c = ServeClient::connect(addr).expect("connect");
                let mut latencies = Vec::with_capacity(case.queries_per_client);
                for q in 0..case.queries_per_client {
                    let pick = mrbc_util::splitmix64((client_id * 1000 + q) as u64);
                    let s = (pick % u64::from(n)) as u32;
                    let t = ((pick >> 32) % u64::from(n)) as u32;
                    let begin = mrbc_obs::now_us();
                    // Mixed workload: mostly source-scoped dist queries
                    // (the batchable kind), some point bc / top_k reads.
                    match q % 4 {
                        0 => drop(c.bc_score(0, s).expect("bc")),
                        1 => drop(c.top_k(0, 10).expect("top_k")),
                        _ => drop(c.path_info(0, s, t).expect("dist")),
                    }
                    latencies.push(mrbc_obs::now_us() - begin);
                    total_queries.fetch_add(1, Ordering::Relaxed);
                }
                latencies
            }));
        }
        for h in handles {
            all_latencies.extend(h.join().expect("client thread"));
        }
    });
    let secs = (mrbc_obs::now_us() - t0) as f64 / 1e6;

    all_latencies.sort_unstable();
    let stats = server.stats();
    let queries = total_queries.load(Ordering::Relaxed);
    let m = Measurement {
        name: case.name,
        clients: case.clients,
        queries,
        qps: queries as f64 / secs.max(1e-9),
        p50_us: percentile(&all_latencies, 0.50),
        p99_us: percentile(&all_latencies, 0.99),
        coalescing: stats.coalescing_factor(),
    };
    server.shutdown();
    (m, stats)
}

fn to_json(ms: &[Measurement]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema");
    w.string("mrbc-bench-serve-v1");
    w.key("cases");
    w.begin_array();
    for m in ms {
        w.begin_object();
        w.key("input");
        w.string(m.name);
        w.key("clients");
        w.float(m.clients as f64);
        w.key("queries");
        w.float(m.queries as f64);
        w.key("qps");
        w.float(m.qps);
        w.key("p50_latency_us");
        w.float(m.p50_us as f64);
        w.key("p99_latency_us");
        w.float(m.p99_us as f64);
        w.key("coalescing_factor");
        w.float(m.coalescing);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

fn main() {
    // now_us() reads 0 until a recorder is installed; we only need the clock.
    mrbc_obs::install("servebench");
    let json_out = std::env::args().any(|a| a == "--json");
    let mut tbl = Table::new(
        "query-daemon throughput: concurrent clients over TCP localhost",
        &[
            "input", "clients", "queries", "qps", "p50 us", "p99 us", "coalesce",
        ],
    );
    let mut measurements = Vec::new();
    for case in cases() {
        let (m, _) = run_case(&case);
        tbl.row(vec![
            m.name.into(),
            m.clients.to_string(),
            m.queries.to_string(),
            format!("{:.0}", m.qps),
            m.p50_us.to_string(),
            m.p99_us.to_string(),
            format!("{:.2}x", m.coalescing),
        ]);
        measurements.push(m);
    }
    tbl.print();
    println!(
        "\ncoalesce is source-scoped queries per dispatched batch (Lemma 8's\n\
         k + H amortization at the serving layer); it exceeds 1.0 exactly when\n\
         concurrent clients gave the scheduler something to merge."
    );
    if json_out {
        let doc = to_json(&measurements);
        std::fs::write("BENCH_serve.json", &doc).expect("write BENCH_serve.json");
        println!("\nmachine-readable results written to BENCH_serve.json");
    }
}
