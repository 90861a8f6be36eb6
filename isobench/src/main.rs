//! `isobench`: the repository's benchmark.  One process runs one workload
//! on one database and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  `--trace 0` reports the
//! end-to-end metrics; `--trace 1` wraps every layer boundary in spans and
//! reports the per-layer metrics instead.  The line before it carries the
//! run's context (host CPUs, flush policy, sample counts, host steal).
//!
//! ```text
//! cargo run --release --manifest-path isobench/Cargo.toml -- \
//!     --workload ser_contended --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `isobench/README.md` for why each workload exists.

mod closed_loop;
mod rc_durable;
mod ser_contended;
mod si_watched;
mod sys;
mod trace;
mod traced_store;

use closed_loop::{Built, Timing, Workload};
use rc_durable::RcDurable;
use ser_contended::SerContended;
use si_watched::SiWatched;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Count, Span};

/// Client threads, capped by the host's CPUs.
const MAX_CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.  All but the one the run
/// measures on happen in child processes, each as fresh as the run's own.
const SETUPS: usize = 11;
/// A traced run whose spans explain less of `txn` time than this fails.
const MIN_COVERAGE: f64 = 0.8;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: time one set-up in this (fresh) process and print it.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    let mut setup_only = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, not {value}")),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    setup_only = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "isobench: {e}\nusage: isobench --workload <ser_contended|si_watched|rc_durable> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    type Entry = (fn(&Args) -> Report, fn(&Args) -> (f64, f64));
    let (run, setup_once): Entry = match args.workload.as_str() {
        SerContended::NAME => (bench::<SerContended>, setup_once::<SerContended>),
        SiWatched::NAME => (bench::<SiWatched>, setup_once::<SiWatched>),
        RcDurable::NAME => (bench::<RcDurable>, setup_once::<RcDurable>),
        other => {
            eprintln!("isobench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        let (setup_s, insert_us) = setup_once(&args);
        println!("{setup_s} {insert_us}");
        return ExitCode::SUCCESS;
    }
    let report = run(&args);
    for problem in &report.problems {
        eprintln!("isobench: {problem}");
    }
    println!("{}", report.info.render());
    println!("{}", report.result_line());
    ExitCode::SUCCESS
}

struct Report {
    correct: bool,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    info: Json,
}

impl Report {
    fn result_line(&self) -> String {
        let mut metrics = Json::default();
        if self.correct {
            for (name, value, unit) in &self.metrics {
                let mut m = Json::default();
                m.num("value", *value);
                m.str("unit", unit);
                metrics.raw(name, m.render());
            }
        }
        let mut out = Json::default();
        out.raw("correct", self.correct.to_string());
        out.raw("attempted", self.attempted.to_string());
        out.raw("failed", self.failed.to_string());
        out.raw("metrics", metrics.render());
        out.render()
    }
}

fn clients() -> usize {
    sys::host_cpus().min(MAX_CLIENTS)
}

/// Time one set-up; also returns the mean time of its `insert` calls in
/// microseconds per row (taken from spans when the run is traced).
fn timed_setup<W: Workload>(args: &Args) -> (W, Built<W::Client>, f64, f64) {
    trace::set_active(args.trace);
    let started = Instant::now();
    let (w, built) = W::setup(args.seed, clients(), args.trace);
    let setup_s = started.elapsed().as_secs_f64();
    trace::set_active(false);
    let inserts = trace::take().span(Span::EngineInsert).clone();
    let insert_us = trace::per_txn(inserts.total_ns as f64 / 1e3, inserts.calls);
    (w, built, setup_s, insert_us)
}

fn setup_once<W: Workload>(args: &Args) -> (f64, f64) {
    let (_, _, setup_s, insert_us) = timed_setup::<W>(args);
    (setup_s, insert_us)
}

/// One set-up timed in a child process (`--setup-only 1`), which prints
/// its set-up seconds and insert microseconds per row.
fn child_setup(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--setup-only", "1"])
        .output()
        .map_err(|e| format!("starting a set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let numbers: Vec<f64> = text
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    match (out.status.success(), numbers.as_slice()) {
        (true, &[setup_s, insert_us]) => Ok((setup_s, insert_us)),
        _ => Err(format!(
            "set-up process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

fn bench<W: Workload>(args: &Args) -> Report {
    let host_cpus = sys::host_cpus();
    let clients = clients();
    let window = Duration::from_secs(args.seconds);
    let timing = Timing {
        warmup: (window / 5).clamp(Duration::from_millis(500), Duration::from_secs(2)),
        window,
        traced: args.trace,
    };
    let (mut setup_s, mut insert_us) = (Vec::new(), Vec::new());
    let mut problems = Vec::new();
    for _ in 1..SETUPS {
        match child_setup(args) {
            Ok((s, us)) => {
                setup_s.push(s);
                insert_us.push(us);
            }
            Err(e) => problems.push(e),
        }
    }
    let (w, mut built, s, us) = timed_setup::<W>(args);
    setup_s.push(s);
    insert_us.push(us);
    let dir = built.dir.as_ref().map(|d| d.path().to_path_buf());
    let states = std::mem::take(&mut built.clients);
    let mut m = closed_loop::run(&w, &built.db, states, args.seed, &timing, dir.as_deref());
    built.clients = std::mem::take(&mut m.clients);
    let check = w.check(built);

    problems.extend(check.problems);
    problems.extend(m.errors.iter().map(|e| format!("transaction failed: {e}")));
    let window = &m.window;
    let attempted = window.stats.attempted();
    let failed = window.stats.failed;
    if window.stats.commits == 0 || (args.trace && m.traced_commits == 0) {
        problems.push("the window committed no transaction".into());
    }

    let mut info = Json::default();
    info.str("workload", W::NAME);
    info.num("seed", args.seed as f64);
    info.num("clients", clients as f64);
    info.num("host_cpus", host_cpus as f64);
    info.str("flush_policy", &W::flush_policy());
    info.raw("trace", args.trace.to_string());
    info.num("warmup_s", timing.warmup.as_secs_f64());
    info.num("window_s", timing.window.as_secs_f64());
    let latencies = window.stats.latencies_us();
    info.num("txn_samples", latencies.len() as f64);
    let slice_rates: Vec<f64> = window.stats.slices.iter().map(|s| s.len() as f64).collect();
    info.raw("slice_commits", Json::array(&slice_rates));
    info.num("window_txn_per_s", window.txn_per_s());
    info.num(
        "window_txn_p50_us",
        trace::percentile(&latencies, 0.50) as f64,
    );
    info.num(
        "window_txn_p99_us",
        trace::percentile(&latencies, 0.99) as f64,
    );
    info.num("host_steal_share", window.steal_share());
    info.num("deadlock_aborts", window.stats.deadlocks as f64);
    info.num("timeout_aborts", window.stats.timeouts as f64);
    info.num("fcw_aborts", window.stats.fcw as f64);
    info.raw("setup_s_each", Json::array(&setup_s));

    let metrics = if args.trace {
        layer_metrics(&m, check.recover_s, &insert_us, &mut info, &mut problems)
    } else {
        end_to_end_metrics(window, &setup_s)
    };
    info.raw(
        "problems",
        format!(
            "[{}]",
            problems
                .iter()
                .map(|p| Json::quote(p))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    Report {
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        metrics,
        info,
    }
}

type Metric = (String, f64, &'static str);

/// The end-to-end metrics of an untraced window.  Throughput and latency
/// are medians over the window's one-second slices: a burst of host steal
/// moves a few slices, not the median.  CPU and memory are taken over the
/// whole window.
fn end_to_end_metrics(window: &closed_loop::Window, setup_s: &[f64]) -> Vec<Metric> {
    let commits = window.stats.commits;
    let (before, after) = (window.before, window.after);
    let per_slice = |f: &dyn Fn(&Vec<u64>) -> f64| {
        median(&window.stats.slices.iter().map(f).collect::<Vec<_>>())
    };
    vec![
        (
            "txn_per_s".into(),
            per_slice(&|s| s.len() as f64 / closed_loop::SLICE.as_secs_f64()),
            "1/s",
        ),
        (
            "txn_p50_us".into(),
            per_slice(&|s| trace::percentile(s, 0.50) as f64),
            "us",
        ),
        (
            "txn_p99_us".into(),
            per_slice(&|s| trace::percentile(s, 0.99) as f64),
            "us",
        ),
        (
            "cpu_us_per_txn".into(),
            trace::per_txn((after.cpu_s - before.cpu_s) * 1e6, commits),
            "us",
        ),
        (
            "mem_bytes_per_commit".into(),
            trace::per_txn(after.rss as f64 - before.rss as f64, commits),
            "bytes",
        ),
        ("setup_s".into(), median(setup_s), "s"),
    ]
}

/// The per-layer metrics of a traced run: spans from its traced slices,
/// storage counters over the whole window.  Adds the self-time shares to
/// `info`, and a problem when the spans cannot explain the transaction
/// time.
fn layer_metrics<C>(
    m: &closed_loop::Measured<C>,
    recover_s: f64,
    insert_us: &[f64],
    info: &mut Json,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let window = &m.window;
    let table = &m.traced;
    let txns = m.traced_commits;
    let coverage = table.coverage();
    if coverage < MIN_COVERAGE {
        problems.push(format!(
            "spans cover {coverage:.3} of txn time, below {MIN_COVERAGE}: the trace cannot explain it"
        ));
    }
    // Shares of `txn` time (drains fall outside it and can push the sum
    // past 1): each layer's total, and the five largest spans.
    let txn_ns = table.span(Span::Txn).total_ns as f64;
    let mut top: Vec<(&str, f64)> = trace::SPANS
        .iter()
        .map(|&s| (s.name(), table.span(s).self_ns as f64 / txn_ns))
        .collect();
    let mut layers = Json::default();
    for layer in ["txn", "engine.", "storage.", "watch."] {
        let share: f64 = top
            .iter()
            .filter(|(n, _)| n.starts_with(layer))
            .map(|t| t.1)
            .sum();
        layers.num(layer.trim_end_matches('.'), share);
    }
    top.sort_by(|a, b| b.1.total_cmp(&a.1));
    let mut spans = Json::default();
    for (name, share) in top.iter().take(5) {
        spans.num(name, *share);
    }
    info.raw("self_time_share_by_layer", layers.render());
    info.raw("self_time_share_top_spans", spans.render());

    let (before, after) = (window.before.store, window.after.store);
    let per_1k = |count: Count| trace::per_txn(table.count(count) as f64 * 1e3, txns);
    let delta = |a: u64, b: u64| trace::per_txn(b.saturating_sub(a) as f64, window.stats.commits);
    // Mean commits of the untraced (even) over the traced (odd) slices.
    let mean = |parity: usize| {
        let counts: Vec<f64> = window
            .stats
            .slices
            .iter()
            .skip(parity)
            .step_by(2)
            .map(|s| s.len() as f64)
            .collect();
        counts.iter().sum::<f64>() / counts.len().max(1) as f64
    };
    let mut metrics = trace::span_metrics(table, txns);
    metrics.extend([
        (
            "lock.deadlock_aborts_per_1k".into(),
            per_1k(Count::DeadlockAborts),
            "1/1k_txn",
        ),
        (
            "lock.timeout_aborts_per_1k".into(),
            per_1k(Count::TimeoutAborts),
            "1/1k_txn",
        ),
        (
            "engine.fcw_aborts_per_1k".into(),
            per_1k(Count::FcwAborts),
            "1/1k_txn",
        ),
        (
            "storage.versions_per_commit".into(),
            delta(before.versions, after.versions),
            "count/commit",
        ),
        (
            "storage.ebr_backlog".into(),
            after.ebr_backlog as f64,
            "count",
        ),
        (
            "storage.read_lock_acquisitions_per_txn".into(),
            delta(before.read_locks, after.read_locks),
            "count/txn",
        ),
        (
            "storage.fsyncs_per_commit".into(),
            delta(before.fsyncs, after.fsyncs),
            "count/commit",
        ),
        (
            "storage.wal_bytes_per_commit".into(),
            delta(before.wal_bytes, after.wal_bytes),
            "bytes/commit",
        ),
        ("storage.segments".into(), after.segments as f64, "count"),
        ("storage.recover_s".into(), recover_s, "s"),
        (
            "watch.events_per_commit".into(),
            trace::per_txn(table.count(Count::WatchEvents) as f64, txns),
            "count/commit",
        ),
        (
            "watch.pending_max".into(),
            table.watch_pending_max as f64,
            "count",
        ),
        (
            "setup.insert_us_per_row".into(),
            median(insert_us),
            "us/row",
        ),
        ("trace.coverage".into(), coverage, "ratio"),
        ("trace.overhead_ratio".into(), mean(0) / mean(1), "ratio"),
    ]);
    metrics
}

/// A flat JSON object built in insertion order.
#[derive(Default)]
struct Json(Vec<(String, String)>);

impl Json {
    fn quote(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn number(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        }
    }

    fn array(values: &[f64]) -> String {
        let items: Vec<String> = values.iter().map(|&v| Self::number(v)).collect();
        format!("[{}]", items.join(", "))
    }

    fn raw(&mut self, key: &str, value: String) {
        self.0.push((key.to_string(), value));
    }

    fn num(&mut self, key: &str, value: f64) {
        self.raw(key, Self::number(value));
    }

    fn str(&mut self, key: &str, value: &str) {
        self.raw(key, Self::quote(value));
    }

    fn render(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("{}: {v}", Self::quote(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
