//! Golden process-level test of the distributed-trace pipeline: a pool
//! front-end plus two worker OS processes each export their own
//! Chrome-trace file, `mrbc obs merge` stitches them into one Perfetto
//! document, and one query's spans carry a single trace id across all
//! three process tracks. The CI obs smoke job runs exactly this test.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use mrbc_graph::{generators, io};
use mrbc_obs::json::{self, Value};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mrbc-cli"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mrbc-obsproc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

fn write_test_graph(dir: &std::path::Path) -> String {
    let g = generators::rmat(generators::RmatConfig::new(6, 6), 19);
    let path = dir.join("graph.el").to_string_lossy().into_owned();
    io::write_edge_list_file(&g, &path).expect("write graph");
    path
}

fn start_pool(graph: &str, extra: &[&str]) -> (Child, String) {
    let mut cmd = bin();
    cmd.args(["serve", "pool", graph, "--workers", "2"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    let mut child = cmd.spawn().expect("spawn pool");
    let stdout = child.stdout.take().expect("stdout");
    let mut addr = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read line");
        if let Some(a) = line.strip_prefix("SERVE ") {
            addr = a.trim().to_string();
            break;
        }
    }
    assert!(!addr.is_empty(), "pool never printed SERVE");
    (child, addr)
}

fn stop_pool(mut child: Child, addr: &str) {
    let ok = bin()
        .args(["query", addr, "shutdown"])
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    if !ok {
        if let Some(stdin) = child.stdin.as_mut() {
            drop(writeln!(stdin, "QUIT"));
        }
    }
    let _ = child.wait();
}

/// One front-end + two workers, each with its own `--trace` export; a
/// mutation is broadcast to both workers, so a single client trace id
/// must appear on all three process tracks of the merged timeline — and
/// the merged document must pass `mrbc check-json` unchanged.
#[test]
fn merged_trace_correlates_one_query_across_three_processes() {
    let dir = tmpdir("golden");
    let graph = write_test_graph(&dir);
    let fe_trace = dir.join("trace-frontend.json");
    let (pool, addr) = start_pool(
        &graph,
        &[
            "--trace",
            &fe_trace.to_string_lossy(),
            "--trace-dir",
            &dir.to_string_lossy(),
        ],
    );

    // The pool broadcasts every mutation (applied or a no-op) to all
    // workers inside one routed query.
    let out = bin()
        .args(["query", &addr, "mutate", "--add", "1-50"])
        .output()
        .expect("mutate query");
    assert!(out.status.success(), "mutate query failed: {out:?}");

    // A clean shutdown makes every process flush its trace file.
    stop_pool(pool, &addr);
    let w0 = dir.join("trace-worker-0.json");
    let w1 = dir.join("trace-worker-1.json");
    for f in [&fe_trace, &w0, &w1] {
        assert!(f.exists(), "missing trace export {}", f.display());
    }

    // Stitch the three per-process files; the front-end is the clock
    // reference.
    let merged_path = dir.join("merged.json");
    let merge = bin()
        .args(["obs", "merge", "--out", &merged_path.to_string_lossy()])
        .arg(&fe_trace)
        .arg(&w0)
        .arg(&w1)
        .output()
        .expect("obs merge");
    assert!(
        merge.status.success(),
        "obs merge failed: {}",
        String::from_utf8_lossy(&merge.stderr)
    );
    let report = String::from_utf8_lossy(&merge.stdout).into_owned();
    for track in ["track 1:", "track 2:", "track 3:"] {
        assert!(
            report.contains(track),
            "merge report missing {track}:\n{report}"
        );
    }

    // The merged document is a valid mrbc-trace-v1 file in its own
    // right.
    let check = bin()
        .args(["check-json", &merged_path.to_string_lossy()])
        .output()
        .expect("check-json");
    assert!(
        check.status.success(),
        "check-json rejected merged trace: {}",
        String::from_utf8_lossy(&check.stderr)
    );

    // Golden property: some trace id appears in span args on all three
    // merged process tracks (front-end pool.route + both workers'
    // serve.query spans).
    let doc = std::fs::read_to_string(&merged_path).expect("read merged");
    let v = json::parse(&doc).expect("parse merged");
    let events = v
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents");
    let mut pids_by_trace: Vec<(u64, BTreeSet<u64>)> = Vec::new();
    for ev in events {
        let (Some(trace), Some(pid)) = (
            ev.get("args")
                .and_then(|a| a.get("trace"))
                .and_then(Value::as_u64),
            ev.get("pid").and_then(Value::as_u64),
        ) else {
            continue;
        };
        match pids_by_trace.iter_mut().find(|(t, _)| *t == trace) {
            Some((_, pids)) => {
                pids.insert(pid);
            }
            None => {
                pids_by_trace.push((trace, BTreeSet::from([pid])));
            }
        }
    }
    let spanning = pids_by_trace
        .iter()
        .find(|(_, pids)| pids.len() >= 3)
        .map(|(t, _)| *t);
    assert!(
        spanning.is_some(),
        "no trace id spans all three process tracks; saw {pids_by_trace:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Killing a worker mid-run must leave a flight-recorder dump behind
/// (the pool dumps on the Dead verdict), and `mrbc obs last-flight`
/// must find, CRC-check and render it.
#[test]
fn worker_death_leaves_a_readable_flight_dump() {
    let dir = tmpdir("flight");
    let graph = write_test_graph(&dir);
    let (pool, addr) = start_pool(
        &graph,
        &[
            "--flight-dir",
            &dir.to_string_lossy(),
            "--faults",
            "kill:worker=0@query=1",
        ],
    );

    // The kill clause fires on worker 0's first routed query; --retries
    // absorbs the failover.
    let out = bin()
        .args(["query", &addr, "bc", "--v", "7", "--retries", "30"])
        .output()
        .expect("query under fault");
    assert!(out.status.success(), "query failed: {out:?}");
    stop_pool(pool, &addr);

    let dump = bin()
        .args(["obs", "last-flight", "--dir", &dir.to_string_lossy()])
        .output()
        .expect("obs last-flight");
    assert!(
        dump.status.success(),
        "last-flight failed: {}",
        String::from_utf8_lossy(&dump.stderr)
    );
    let text = String::from_utf8_lossy(&dump.stdout).into_owned();
    assert!(text.contains("flight dump"), "unexpected output:\n{text}");
    assert!(
        text.contains("reason"),
        "dump header missing reason:\n{text}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
