//! The repository benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-read|churn-powerlaw|churn-road|offline-mrbc> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It builds the workload's inputs from the seed, sets the system up
//! several times (the median is `setup_s`), measures for `--seconds`,
//! checks every answer against oracles computed outside the program, and
//! prints every metric by name and unit. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. The traced run measures an
//! untraced window first (for the tracing overhead), then a traced
//! window of the same seed, then replays the traced window's operations
//! layer by layer; spans and the per-layer table go to `.perfbench/`.
//! The exit code is nonzero when any check fails.

mod check;
mod inputs;
mod layers;
mod offline;
mod serving;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use mrbc_core::{bc, BcConfig};
use mrbc_obs as obs;
use mrbc_obs::json::JsonWriter;

use check::NoHooks;
use inputs::{ReadMix, Shape};
use serving::Live;
use stats::{mean, median, percentile, sorted, Metrics};

/// The end-to-end metrics every workload reports, with their units. The
/// operation is a read (`serve-read`), a `Mutate` → `Mutated` ack
/// (`churn-*`, durable on `churn-powerlaw`; the first
/// [`serving::MIN_MUTATIONS`] of the window, so every run times the same
/// operations of its seed's stream) or one full `bc` (`offline-mrbc`).
/// The latency is the mean, and no percentile is an end-to-end metric:
/// on the road grid the
/// ack time jumps from an incremental to a full rebuild right at the
/// median affected fraction, so the median flips between the two modes
/// from run to run; reads complete in whole daemon pump cycles (about
/// 1.1 ms each), so a read percentile sits on one plateau or the next
/// depending on how busy the machine is (p90 moved between 3.3 and
/// 4.4 ms across seeds); and p99 reads and p95 acks swing by 15–35%
/// between runs of one seed. The median and the highest percentile with
/// ten samples beyond it are in every run's text report, and the
/// workload-specific p50/p95/p99 are in the traced JSON.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_mean_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Set-ups before and after the timed window; `setup_s` is the median
/// of all of them. Splitting them around the window samples the
/// machine's speed across the run instead of over half a second.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 3;
/// Offline set-up (generation only) takes a tenth of a millisecond, so
/// it runs this often before every full `bc`.
const OFFLINE_SETUPS_PER_RUN: usize = 3;
/// Reads of the traced window replayed against the store (bounds the
/// replay's cost on the read-heavy workload).
const REPLAYED_READS: usize = 4000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".perfbench"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    e2e: Metrics,
    layers: Metrics,
    table: String,
    /// Sample counts and tails, for the human-readable report.
    notes: Vec<String>,
}

impl Report {
    /// Counts a window's operations and its failures, and checks answers.
    fn window(&mut self, live: &Live, wrong: Vec<String>) {
        self.attempted += live.attempted;
        self.failed += live.failed + wrong.len() as u64;
        self.errors.extend(live.errors.iter().cloned());
        self.errors.extend(wrong);
    }
}

/// Runs `setup` `count` times, shutting each system down before the
/// next; returns the last one and appends the set-up times to `times`.
fn setups<T>(
    count: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<(T, f64), String>,
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..count {
        drop(kept.take());
        let (sys, secs) = setup()?;
        times.push(secs);
        kept = Some(sys);
    }
    Ok(kept.expect("count > 0"))
}

fn ms(us_sorted: &[f64], p: f64) -> f64 {
    percentile(us_sorted, p) / 1e3
}

/// "n samples, tail pX = Y ms": the highest percentile with at least ten
/// samples beyond it.
fn tail_note(what: &str, us_sorted: &[f64]) -> String {
    let ladder: Vec<String> = [50.0, 90.0, 95.0, 99.0]
        .iter()
        .map(|&p| format!("p{p} {:.3}", ms(us_sorted, p)))
        .collect();
    match stats::tail_percentile(us_sorted.len()) {
        Some(p) => format!(
            "{what}: {} samples, tail p{p} = {:.3} ms ({} ms)",
            us_sorted.len(),
            ms(us_sorted, p),
            ladder.join(", ")
        ),
        None => format!("{what}: {} samples, too few for a tail", us_sorted.len()),
    }
}

/// Read latency by kind: "kind: n samples, p50 / p99 ms".
fn kind_notes(live: &Live) -> Vec<String> {
    serving::KINDS[..4]
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let lat: Vec<f64> = live
                .reads
                .iter()
                .zip(&live.read_kinds)
                .filter(|&(_, &kind)| kind == k)
                .map(|(&us, _)| us)
                .collect();
            let s = sorted(&lat);
            format!(
                "  {name}: {} reads, p50 {:.3} ms, p99 {:.3} ms",
                s.len(),
                ms(&s, 50.0),
                ms(&s, 99.0)
            )
        })
        .collect()
}

/// Live-window time not covered by a measured layer.
fn closure(m: &mut Metrics, e2e_us: f64, covered_us: f64, ops: usize) {
    if e2e_us > 0.0 && ops > 0 {
        m.set("unattributed_frac", (e2e_us - covered_us) / e2e_us, "ratio");
        m.set("unattributed_us", (e2e_us - covered_us) / ops as f64, "us");
    }
}

/// µs of spans named like `pred` that started inside `[from, to]`, per op.
fn window_span_us(
    events: &[obs::TraceEvent],
    from: u64,
    to: u64,
    pred: impl Fn(&str) -> bool,
) -> f64 {
    events
        .iter()
        .filter(|e| e.ts_us >= from && e.ts_us <= to && pred(e.name))
        .map(|e| e.dur_us as f64)
        .sum()
}

/// Proto cost of the window's operations: per-kind encode + decode.
fn proto_us(live: &Live, per_kind: &[f64]) -> f64 {
    let reads: f64 = live.read_kinds.iter().map(|&k| per_kind[k]).sum();
    reads + live.mutations.len() as f64 * per_kind[4]
}

fn serve_read(a: &Args, r: &mut Report) -> Result<(), String> {
    let subsets = ReadMix::new(a.seed, 0).subsets;
    let mut times = Vec::new();
    let mut d = setups(SETUPS_BEFORE, &mut times, || serving::setup_read(a.seed))?;
    let live = serving::run_read(&mut d, a.seed, a.seconds, false)?;
    let g = d.graph.clone();
    drop(d);
    setups(SETUPS_AFTER, &mut times, || serving::setup_read(a.seed))?;
    let setup_s = median(&times);
    r.window(&live, check::verify_static(&g, &subsets, &live.observed));
    let reads = sorted(&live.reads);
    let qps = live.reads.len() as f64 / live.wall_s;
    r.e2e.set("setup_s", setup_s, "s");
    r.e2e.set("op_mean_ms", mean(&reads) / 1e3, "ms");
    r.e2e.set("ops_per_s", qps, "1/s");
    r.e2e.set("peak_rss_mb", live.rss_mb, "MiB");
    r.layers.set("read_p50_ms", ms(&reads, 50.0), "ms");
    r.layers.set("read_p99_ms", ms(&reads, 99.0), "ms");
    r.layers.set("read_qps", qps, "1/s");
    r.notes.push(tail_note("reads", &reads));
    r.notes.extend(kind_notes(&live));
    if !a.trace {
        return Ok(());
    }
    let m = &mut r.layers;
    let (mut d, _) = serving::setup_read(a.seed)?;
    obs::install("perfbench serve-read");
    let from = obs::now_us();
    let traced = serving::run_read(&mut d, a.seed, a.seconds, true)?;
    let to = obs::now_us();
    drop(d);
    let wrong = check::verify_static(&g, &subsets, &traced.observed);
    layers::server_metrics(m, &traced, &live);
    let per_kind = layers::proto_metrics(m, &traced.samples);
    let replayed = &traced.observed[..traced.observed.len().min(REPLAYED_READS)];
    layers::store_static(m, &g, &subsets, replayed);
    layers::baselines(m, &g, &g, None);
    let sub = bc(&g, &inputs::canon(&subsets[0]), &BcConfig::default());
    layers::dgalois_metrics(
        m,
        &g,
        &BcConfig::default(),
        sub.stats.as_ref().ok_or("driver stats")?,
    );
    let rec = obs::uninstall().ok_or("recorder vanished")?;
    let ev = rec.events();
    let ops = traced.reads.len();
    dgalois_window(m, ev, from, to, ops);
    let queue = hist_diff(&traced, "serve.queue_us");
    let covered =
        window_span_us(ev, from, to, |n| n == "serve.query") + queue + proto_us(&traced, &per_kind);
    closure(m, traced.reads.iter().sum(), covered, ops);
    m.set(
        "obs.overhead_frac",
        mean(&traced.reads) / mean(&live.reads) - 1.0,
        "ratio",
    );
    r.table = layers::export_trace(&a.out, &format!("{}-{}", a.workload, a.seed), &rec);
    r.window(&traced, wrong);
    Ok(())
}

fn hist_diff(live: &Live, name: &str) -> f64 {
    let sum = |s: &mrbc_serve::ServeStats| s.hist(name).map_or(0.0, |h| h.sum() as f64);
    sum(&live.stats_after) - sum(&live.stats_before)
}

/// Host compute and exchange time per workload operation, from the
/// program's own spans in the traced window. MRBC's per-host compute
/// runs inside its `batch.forward` / `batch.backward` spans, around the
/// nested `exchange.*` spans.
fn dgalois_window(m: &mut Metrics, ev: &[obs::TraceEvent], from: u64, to: u64, ops: usize) {
    let ops = ops.max(1) as f64;
    let exchange = window_span_us(ev, from, to, |n| n.starts_with("exchange."));
    let batches = window_span_us(ev, from, to, |n| n.starts_with("batch."));
    m.set(
        "dgalois.compute_us",
        (batches - exchange).max(0.0) / ops,
        "us",
    );
    m.set("dgalois.exchange_us", exchange / ops, "us");
}

/// The mutations the churn end-to-end metrics cover: the first
/// [`serving::MIN_MUTATIONS`] of the window.
fn counted(live: &Live) -> &[f64] {
    &live.mutations[..live.mutations.len().min(serving::MIN_MUTATIONS)]
}

/// A churn workload. `durable` runs the pool with a WAL, so every ack
/// waits for its fsync.
fn churn(a: &Args, shape: Shape, durable: bool, r: &mut Report) -> Result<(), String> {
    let subsets = ReadMix::new(a.seed, 0).subsets;
    let wal = |k: &str| {
        durable.then(|| {
            a.out
                .join(format!("wal-{}-{}-{k}", a.workload, std::process::id()))
        })
    };
    let mut times = Vec::new();
    let mut k = 0;
    let mut setup = || {
        k += 1;
        let dir = wal(&k.to_string());
        serving::setup_churn(shape, a.seed, dir.as_deref())
    };
    let mut d = setups(SETUPS_BEFORE, &mut times, &mut setup)?;
    let (live, final_bc) = serving::run_churn(&mut d, a.seed, a.seconds, false)?;
    let boot = d.boot.clone();
    let recovered = serving::stop_and_recover(d, &live.acked);
    setups(SETUPS_AFTER, &mut times, &mut setup)?;
    let setup_s = median(&times);
    let mut wrong = check::verify_churn(
        &boot,
        &live.acked,
        &subsets,
        &live.observed,
        &final_bc,
        &mut NoHooks,
    );
    wrong.extend(recovered.err());
    r.window(&live, wrong);
    let muts = sorted(&live.mutations);
    let reads = sorted(&live.reads);
    let first = counted(&live);
    let mps = first.len() as f64 / live.counted_s;
    r.e2e.set("setup_s", setup_s, "s");
    r.e2e.set("op_mean_ms", mean(first) / 1e3, "ms");
    r.e2e.set("ops_per_s", mps, "1/s");
    r.e2e.set("peak_rss_mb", live.rss_mb, "MiB");
    r.layers.set("read_p50_ms", ms(&reads, 50.0), "ms");
    r.layers.set("read_p99_ms", ms(&reads, 99.0), "ms");
    r.layers.set("mutate_p50_ms", ms(&muts, 50.0), "ms");
    r.layers.set("mutate_p95_ms", ms(&muts, 95.0), "ms");
    r.layers.set("mutations_per_s", mps, "1/s");
    r.notes
        .push(format!("mutations_applied={}", live.acked.len()));
    r.notes.push(tail_note("mutations", &muts));
    r.notes.push(tail_note("reads", &reads));
    r.notes.extend(kind_notes(&live));
    if stats::beyond(muts.len(), 95.0) < 10 {
        r.notes.push(format!(
            "warning: only {} mutation samples, p95 has fewer than 10 beyond it",
            muts.len()
        ));
    }
    if !a.trace {
        return Ok(());
    }
    let m = &mut r.layers;
    let (mut d, _) = serving::setup_churn(shape, a.seed, wal("traced").as_deref())?;
    obs::install(&format!("perfbench {}", a.workload));
    let from = obs::now_us();
    let (traced, final_bc) = serving::run_churn(&mut d, a.seed, a.seconds, true)?;
    let to = obs::now_us();
    let recovered = serving::stop_and_recover(d, &traced.acked);
    let mut hooks = layers::ChurnHooks::new(&boot, &subsets);
    let mut wrong = check::verify_churn(
        &boot,
        &traced.acked,
        &subsets,
        &traced.observed,
        &final_bc,
        &mut hooks,
    );
    wrong.extend(recovered.err());
    hooks.report(m);
    layers::server_metrics(m, &traced, &live);
    let per_kind = layers::proto_metrics(m, &traced.samples);
    let wal_p50 = if durable {
        let scratch = a
            .out
            .join(format!("walscratch-{}-{}", a.workload, std::process::id()));
        layers::wal_metrics(m, &traced.acked, &scratch, traced.wal_bytes)
    } else {
        0.0
    };
    let last = traced
        .acked
        .iter()
        .fold(boot.clone(), |g, &mu| inputs::edit(&g, mu));
    layers::baselines(m, &boot, &last, None);
    let sub = bc(&boot, &inputs::canon(&subsets[0]), &BcConfig::default());
    layers::dgalois_metrics(
        m,
        &boot,
        &BcConfig::default(),
        sub.stats.as_ref().ok_or("driver stats")?,
    );
    let rec = obs::uninstall().ok_or("recorder vanished")?;
    let ev = rec.events();
    let ops = traced.reads.len() + traced.mutations.len();
    dgalois_window(m, ev, from, to, ops);
    m.set("pool.broadcast_us", layers::broadcast_us(ev, wal_p50), "us");
    let covered =
        window_span_us(ev, from, to, |n| n == "pool.route") + proto_us(&traced, &per_kind);
    let e2e: f64 = traced.reads.iter().chain(&traced.mutations).sum();
    closure(m, e2e, covered, ops);
    m.set(
        "obs.overhead_frac",
        mean(counted(&traced)) / mean(counted(&live)) - 1.0,
        "ratio",
    );
    r.table = layers::export_trace(&a.out, &format!("{}-{}", a.workload, a.seed), &rec);
    r.window(&traced, wrong);
    Ok(())
}

fn offline_mrbc(a: &Args, r: &mut Report) -> Result<(), String> {
    let mut times = Vec::new();
    let (g, _) = offline::setup(a.seed);
    let runs = offline::run(&g, a.seconds, || {
        for _ in 0..OFFLINE_SETUPS_PER_RUN {
            times.push(offline::setup(a.seed).1);
        }
    });
    let rss = stats::peak_rss_mb();
    let canonical = mrbc_incr::IncrEngine::build(&g);
    let mut wrong: Vec<String> = check::bits_equal(
        "offline BC vs canonical kernel",
        &runs.last.bc,
        canonical.bc(),
    )
    .err()
    .into_iter()
    .collect();
    if runs.unstable > 0 {
        wrong.push(format!("{} runs gave different BC bits", runs.unstable));
    }
    r.attempted += runs.walls.len() as u64;
    r.failed += wrong.len() as u64;
    r.errors.extend(wrong);
    let walls = sorted(&runs.walls);
    let stats = runs.last.stats.as_ref().ok_or("driver stats")?;
    let n = g.num_vertices() as f64;
    r.e2e.set("setup_s", median(&times), "s");
    r.e2e.set("op_mean_ms", mean(&walls) * 1e3, "ms");
    r.e2e.set("ops_per_s", n / mean(&walls), "1/s");
    r.e2e.set("peak_rss_mb", rss, "MiB");
    r.layers
        .set("bc_sources_per_s", n / percentile(&walls, 50.0), "1/s");
    r.layers
        .set("bsp_rounds", f64::from(stats.num_rounds()), "count");
    r.notes.push(format!(
        "full bc runs: {} samples, max = {:.3} ms",
        walls.len(),
        percentile(&walls, 100.0) * 1e3
    ));
    if !a.trace {
        return Ok(());
    }
    let m = &mut r.layers;
    let cfg = offline::config();
    layers::dgalois_metrics(m, &g, &cfg, stats);
    obs::install("perfbench offline-mrbc");
    let from = obs::now_us();
    let traced = offline::run(&g, a.seconds, || {});
    let to = obs::now_us();
    layers::baselines(m, &g, &g, Some(median(&runs.walls) * 1e3));
    let rec = obs::uninstall().ok_or("recorder vanished")?;
    let ev = rec.events();
    if let Err(e) = check::bits_equal(
        "traced offline BC vs canonical kernel",
        &traced.last.bc,
        canonical.bc(),
    ) {
        r.errors.push(e);
        r.failed += 1;
    }
    r.attempted += traced.walls.len() as u64;
    dgalois_window(m, ev, from, to, traced.walls.len());
    let rows = layers::span_table(ev);
    let bc_row = rows.get("offline.bc").copied().unwrap_or_default();
    let partition_us =
        m.get("dgalois.partition_ms").unwrap_or(0.0) * 1e3 * traced.walls.len() as f64;
    let covered = (bc_row.total_us - bc_row.self_us) as f64 + partition_us;
    closure(m, bc_row.total_us as f64, covered, traced.walls.len());
    m.set(
        "obs.overhead_frac",
        mean(&traced.walls) / mean(&runs.walls) - 1.0,
        "ratio",
    );
    r.table = layers::export_trace(&a.out, &format!("{}-{}", a.workload, a.seed), &rec);
    Ok(())
}

fn json_line(r: &Report, metrics: &[(String, f64, &str)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.boolean(r.errors.is_empty());
    w.key("attempted");
    w.number(r.attempted);
    w.key("failed");
    w.number(r.failed);
    w.key("metrics");
    w.begin_object();
    for (name, value, unit) in metrics {
        w.key(name);
        w.begin_object();
        w.key("value");
        w.float(*value);
        w.key("unit");
        w.string(unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    w.finish()
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("perfbench: {}: {e}", a.out.display());
        return ExitCode::from(2);
    }
    let mut r = Report::default();
    let ran = match a.workload.as_str() {
        "serve-read" => serve_read(&a, &mut r),
        "churn-powerlaw" => churn(&a, Shape::PowerLaw, true, &mut r),
        // No WAL: its fsync latency on a shared disk swung this
        // workload's ack mean by a fifth from run to run, and the
        // workload exists for the per-source rebuilds. The WAL is
        // measured on churn-powerlaw.
        "churn-road" => churn(&a, Shape::Road, false, &mut r),
        "offline-mrbc" => offline_mrbc(&a, &mut r),
        other => Err(format!("unknown workload {other:?}")),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {}: {e}", a.workload);
        return ExitCode::FAILURE;
    }
    let failed_frac = r.failed as f64 / r.attempted.max(1) as f64;
    r.layers.set("ops_failed_frac", failed_frac, "ratio");
    print_report(&a, &r);
    if a.trace {
        write_layer_table(&a, &r);
    }
    let (names, source) = if a.trace {
        (layers::PER_LAYER, &r.layers)
    } else {
        (END_TO_END, &r.e2e)
    };
    let metrics: Vec<(String, f64, &str)> = names
        .iter()
        .map(|&(name, unit)| (name.to_string(), source.get(name).unwrap_or(0.0), unit))
        .collect();
    println!("{}", json_line(&r, &metrics));
    if r.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run's per-layer table: self time per span, then every
/// per-layer metric (closure and tracing overhead included).
fn write_layer_table(a: &Args, r: &Report) {
    let mut text = r.table.clone();
    text.push_str("\nmetric\tvalue\tunit\n");
    for &(name, unit) in layers::PER_LAYER {
        text.push_str(&format!(
            "{name}\t{:.6}\t{unit}\n",
            r.layers.get(name).unwrap_or(0.0)
        ));
    }
    let path = a.out.join(format!("{}-{}.layers.tsv", a.workload, a.seed));
    if let Err(e) = std::fs::write(&path, text) {
        eprintln!("perfbench: {}: {e}", path.display());
    }
}

fn print_report(a: &Args, r: &Report) {
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    println!("# attempted={} failed={}", r.attempted, r.failed);
    for n in &r.notes {
        println!("# {n}");
    }
    for (name, value, unit) in r.e2e.0.iter().chain(&r.layers.0) {
        println!("{name}\t{value:.6}\t{unit}");
    }
    if !r.table.is_empty() {
        print!("{}", r.table);
    }
    for e in &r.errors {
        eprintln!("perfbench: check failed: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrbc_obs::json::{parse, Value};

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn own(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = parse(&text).expect("valid JSON");
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(layers::PER_LAYER));
    }
}
