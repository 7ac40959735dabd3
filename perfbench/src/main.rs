//! `pwf-perfbench`: end-to-end and per-layer benchmark of the
//! practically-wait-free workspace.
//!
//! ```text
//! pwf-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds a fixed op list from the seed and repeats it in
//! whole passes until `S` seconds have been spent measuring. Every op's
//! output is checked. The last stdout line is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (a run whose passes alternate untraced and traced, with
//! spans recorded only in this harness, around each call into a layer).
//! The exit code is nonzero when any op fails its check.

mod analysis;
mod serve;
mod stats;
mod trace;
mod vet;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::Totals;

/// Set-up blocks timed per run; the median block mean is reported.
const SETUP_BLOCKS: usize = 15;
/// Shortest set-up block, seconds.
const SETUP_BLOCK_S: f64 = 0.02;

/// A workload: runs the op list and reports what it measured.
type Workload = fn(&Run) -> Report;

const WORKLOADS: &[(&str, Workload)] = &[
    ("serve-hot", serve::hot),
    ("serve-cold", serve::cold),
    ("analysis", analysis::run),
    ("vet", vet::run),
];

/// Per-layer metrics printed by a traced run, with units. A workload
/// that bypasses a layer reports it as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.rtt_p50_us", "us"),
    ("serve.engine_p50_us", "us"),
    ("serve.engine_p99_us", "us"),
    ("serve.transport_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.dedup.joins", "count"),
    ("serve.shed", "count"),
    ("serve.compute.sim_ms", "ms"),
    ("serve.compute.chain_ms", "ms"),
    ("hardware.fai.cas_retries", "count"),
    ("hardware.fai.retry_ratio", "ratio"),
    ("chain.dense_ms", "ms"),
    ("chain.operator_ms", "ms"),
    ("markov.solver_iterations", "count"),
    ("markov.states_per_s", "1/s"),
    ("markov.lifting_ms", "ms"),
    ("markov.mixing_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.steps_per_s", "1/s"),
    ("ballsbins.game_ms", "ms"),
    ("ballsbins.throws_per_s", "1/s"),
    ("checker.dpor_ms", "ms"),
    ("checker.executions", "count"),
    ("checker.states", "count"),
    ("checker.transitions", "count"),
    ("checker.audit_ms", "ms"),
    ("checker.shrink_ms", "ms"),
    ("checker.executions_per_s", "1/s"),
    ("checker.cache_hit_ratio", "ratio"),
    ("checker.naive_ms", "ms"),
    ("checker.naive_executions", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Run {
    /// Seed of the op list.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed their check.
    pub failed: u64,
    /// First few failure messages.
    pub errors: Vec<String>,
    /// Set-up wall times, seconds.
    pub setup_s: Vec<f64>,
    /// Untraced pass wall times, seconds.
    pub passes: Vec<f64>,
    /// Traced pass wall times, seconds.
    pub traced_passes: Vec<f64>,
    /// Per untraced pass, the exact p50 and p99 request latency in
    /// milliseconds, and the requests per pass (serve workloads only).
    pub latency: Option<(Vec<f64>, Vec<f64>, usize)>,
    /// Per-layer metric values.
    pub layer: BTreeMap<&'static str, f64>,
    /// Span totals of the traced passes.
    pub totals: Totals,
    /// Human-readable notes.
    pub lines: Vec<String>,
}

impl Report {
    /// Records a failed check that is not tied to a single op.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}

/// Repeats `pass` in whole passes for about `run.seconds`: a pass
/// starts only if the mean pass so far still fits, and at least one
/// runs. A traced run alternates untraced and traced passes and does
/// at least one traced pass. `pass(traced)` returns its wall time in
/// seconds. Returns the untraced and traced wall times.
pub fn drive(run: &Run, mut pass: impl FnMut(bool) -> f64) -> (Vec<f64>, Vec<f64>) {
    let started = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        let trace_this = run.trace && untraced.len() > traced.len();
        let wall = pass(trace_this);
        if trace_this {
            traced.push(wall);
        } else {
            untraced.push(wall);
        }
        let elapsed = started.elapsed().as_secs_f64();
        let mean = elapsed / (untraced.len() + traced.len()) as f64;
        if elapsed + mean > run.seconds && (!run.trace || !traced.is_empty()) {
            return (untraced, traced);
        }
    }
}

/// Times `setup` in [`SETUP_BLOCKS`] blocks of back-to-back calls, each
/// block running for at least [`SETUP_BLOCK_S`], and returns the last
/// result with each block's mean seconds per call. Blocks make a
/// set-up of a microsecond as measurable as one of a second; the
/// previous result is dropped outside the timed call.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut means = Vec::with_capacity(SETUP_BLOCKS);
    let mut last = None;
    for _ in 0..SETUP_BLOCKS {
        let block = Instant::now();
        let (mut calls, mut timed) = (0u32, 0.0);
        while calls == 0 || block.elapsed().as_secs_f64() < SETUP_BLOCK_S {
            drop(last.take());
            let t0 = Instant::now();
            last = Some(setup());
            timed += t0.elapsed().as_secs_f64();
            calls += 1;
        }
        means.push(timed / f64::from(calls));
    }
    (last.expect("at least one set-up"), means)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn usage() -> ! {
    eprintln!(
        "usage: pwf-perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS
            .iter()
            .map(|(n, _)| *n)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> (Workload, &'static str, Run) {
    let mut workload = None;
    let mut run = Run {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                workload = WORKLOADS.iter().find(|(n, _)| *n == value);
            }
            "--seed" => run.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                run.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(run.seconds > 0.0 && run.seconds.is_finite()) {
                    usage();
                }
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let &(name, body) = workload.unwrap_or_else(|| usage());
    (body, name, run)
}

fn json_number(value: f64) -> String {
    // `{}` prints the shortest decimal that round-trips, never an
    // exponent: every digit as measured.
    let s = format!("{value}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() {
    let (body, name, run) = parse_args();
    println!(
        "workload {name}, seed {}, {} s, trace {}, {} cores",
        run.seed,
        run.seconds,
        u8::from(run.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let mut report = body(&run);
    for line in &report.lines {
        println!("  {line}");
    }

    // (name, value, unit, samples)
    let mut metrics: Vec<(&str, f64, &str, usize)> = Vec::new();
    if run.trace {
        let overhead = match (report.passes.is_empty(), report.traced_passes.is_empty()) {
            (false, false) => {
                (stats::median(&report.traced_passes) / stats::median(&report.passes) - 1.0) * 100.0
            }
            _ => 0.0,
        };
        report.layer.insert("obs.trace_overhead_pct", overhead);
        report
            .layer
            .insert("trace.unattributed_pct", report.totals.unattributed_pct());
        println!(
            "  self time per span over {} traced pass(es):",
            report.traced_passes.len()
        );
        report.totals.print_table();
        let bypassed: Vec<&str> = PER_LAYER
            .iter()
            .filter(|(metric, _)| !report.layer.contains_key(metric))
            .map(|(metric, _)| *metric)
            .collect();
        println!(
            "  bypassed by this workload, reported as 0: {}",
            bypassed.join(" ")
        );
        for &(metric, unit) in PER_LAYER {
            let value = report.layer.get(metric).copied().unwrap_or(0.0);
            metrics.push((metric, value, unit, report.traced_passes.len()));
        }
    } else {
        let batch_s = stats::median(&report.passes);
        metrics.push(("batch_s", batch_s, "s", report.passes.len()));
        match report.latency.take() {
            Some((p50, p99, per_pass)) if !p50.is_empty() => {
                println!("  p50_ms, p99_ms: median over passes of each pass's exact percentile, {per_pass} requests per pass");
                metrics.push(("p50_ms", stats::median(&p50), "ms", p50.len()));
                metrics.push(("p99_ms", stats::median(&p99), "ms", p99.len()));
            }
            Some(_) => {
                report.fail("no pass yielded exact percentiles".into());
                metrics.push(("p50_ms", 0.0, "ms", 0));
                metrics.push(("p99_ms", 0.0, "ms", 0));
            }
            None => {
                // A batch workload's only request is the whole pass:
                // its ops differ in cost by orders of magnitude, so no
                // per-op percentile is reported.
                println!("  p50_ms, p99_ms: the batch is one request (median pass wall)");
                metrics.push(("p50_ms", batch_s * 1e3, "ms", report.passes.len()));
                metrics.push(("p99_ms", batch_s * 1e3, "ms", report.passes.len()));
            }
        }
        metrics.push((
            "setup_s",
            stats::median(&report.setup_s),
            "s",
            report.setup_s.len(),
        ));
        let rss = peak_rss_mb().unwrap_or_else(|| {
            report.fail("VmHWM missing from /proc/self/status".into());
            0.0
        });
        metrics.push(("peak_rss_mb", rss, "MB", 1));
    }

    for (metric, value, unit, samples) in &metrics {
        println!("  {metric:<26} {value:>16.6} {unit:<6} (n={samples})");
        if !value.is_finite() {
            report.fail(format!("{metric} is not finite"));
        }
    }
    for e in &report.errors {
        println!("  FAILED: {e}");
    }
    println!(
        "  ops: {} attempted, {} failed",
        report.attempted, report.failed
    );
    let correct = report.failed == 0 && report.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value, unit, _)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    std::process::exit(i32::from(!correct));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric the harness prints is declared in BENCHMARK.json,
    /// with the same unit, and vice versa.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let doc = include_str!("../../BENCHMARK.json");
        for &(metric, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{metric}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        let per_layer = doc
            .split("\"per_layer\"")
            .nth(1)
            .expect("per_layer section");
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
        for (metric, unit) in [
            ("batch_s", "s"),
            ("p50_ms", "ms"),
            ("p99_ms", "ms"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
        ] {
            let entry = format!("\"name\": \"{metric}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        for (workload, _) in WORKLOADS {
            assert!(
                doc.contains(&format!("\"name\": \"{workload}\"")),
                "{workload}"
            );
        }
    }

    #[test]
    fn drive_runs_at_least_one_pass_of_each_kind() {
        let run = Run {
            seed: 0,
            seconds: 1e-9,
            trace: true,
        };
        let (untraced, traced) = drive(&run, |t| if t { 2.0 } else { 1.0 });
        assert_eq!((untraced, traced), (vec![1.0], vec![2.0]));
        let run = Run {
            trace: false,
            ..run
        };
        assert_eq!(drive(&run, |_| 1.0), (vec![1.0], vec![]));
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(1.0), "1.0");
        assert_eq!(json_number(0.1234567891234), "0.1234567891234");
        assert_eq!(json_number(1e-7), "0.0000001");
    }
}
