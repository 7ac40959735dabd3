//! The `vet` workload: the full `pwf vet` target registry, one op per
//! target, each doing what the target's verdict needs — pruned DPOR
//! exploration with the linearizability and lock-freedom audits, the
//! Theorem 3 fair audit on blocking targets, and ddmin shrinking of
//! each mutant's witness.
//!
//! `pwf vet` also enumerates small targets without reduction, only to
//! print a reduction ratio. That enumeration would dominate the pass,
//! so it runs once, outside the timed passes, in the traced run only.

use std::time::Instant;

use pwf_checker::explore::{explore, ExploreOptions, ExploreStats, Violation, ViolationKind};
use pwf_checker::shrink::{reproduces, shrink};
use pwf_checker::target::{CheckTarget, Progress};
use pwf_checker::targets::registry;

use crate::trace::{Totals, Tracer};
use crate::{drive, timed_setup, Report, Run};

/// Each seeded mutant and the length `pwf vet` shrinks its witness to.
const MUTANTS: &[(&str, usize)] = &[
    ("counter-rw-mutant", 8),
    ("stack-aba-mutant", 16),
    ("livelock-mutant", 1),
    ("spinner-pair-mutant", 1),
    ("dedup-lost-wakeup-mutant", 7),
];

/// Targets in the registry.
const TARGETS: usize = 14;

/// `pwf vet`'s naive-enumeration limits: targets whose pruned
/// exploration exceeds `NAIVE_SKIP` executions are skipped, the rest
/// enumerate up to `NAIVE_CAP` executions.
const NAIVE_SKIP: u64 = 200;
const NAIVE_CAP: u64 = 200_000;

/// What one target's op produced: compared bit for bit across passes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdict {
    executions: u64,
    states: u64,
    transitions: u64,
    units: u64,
    shrunk: Option<Vec<usize>>,
}

/// Exploration counters summed over a pass.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    executions: u64,
    states: u64,
    transitions: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Counts {
    fn add(&mut self, s: &ExploreStats) {
        self.executions += s.executions;
        self.states += s.distinct_states;
        self.transitions += s.transitions;
        self.cache_hits += s.cache_hits;
        self.cache_misses += s.cache_misses;
    }
}

fn vet_target(
    target: &CheckTarget,
    jobs: usize,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<Verdict, String> {
    let pruned = ExploreOptions {
        jobs,
        ..ExploreOptions::default()
    };
    let report = t.span("checker.dpor", |_| explore(target, &pruned));
    counts.add(&report.stats);
    let mut violation = report.violation.clone();
    if violation.is_none() && target.progress == Progress::StochasticOnly {
        // The fair audit needs the edge-complete (unpruned) graph.
        let full = t.span("checker.audit", |_| {
            explore(
                target,
                &ExploreOptions {
                    prune: false,
                    ..pruned.clone()
                },
            )
        });
        if let Some(state) = full.graph.fair_livelock() {
            violation = Some(Violation {
                kind: ViolationKind::Livelock,
                schedule: full
                    .graph
                    .witness_prefix(state)
                    .unwrap_or_default()
                    .to_vec(),
                ops: Vec::new(),
            });
        }
    }
    let shrunk = match (violation, target.expect_failure) {
        (None, false) => {
            if target.progress == Progress::LockFree
                && report.graph.completion_free_cycle().is_some()
            {
                return Err("completion-free cycle on a lock-free target".into());
            }
            None
        }
        (None, true) => return Err("mutant not caught".into()),
        (Some(v), false) => return Err(format!("{:?} on a correct target", v.kind)),
        (Some(v), true) => {
            let small = t.span("checker.shrink", |_| shrink(target, v.kind, &v.schedule));
            let want = MUTANTS
                .iter()
                .find(|(name, _)| *name == target.name)
                .map(|&(_, len)| len);
            if want != Some(small.len()) || reproduces(target, v.kind, &small).is_none() {
                return Err(format!(
                    "shrunk to {} steps (pwf vet: {want:?})",
                    small.len()
                ));
            }
            Some(small)
        }
    };
    let s = &report.stats;
    Ok(Verdict {
        executions: s.executions,
        states: s.distinct_states,
        transitions: s.transitions,
        units: s.units,
        shrunk,
    })
}

/// The `vet` workload.
pub fn run(run: &Run) -> Report {
    let mut report = Report::default();
    let (targets, setup_s) = timed_setup(|| {
        let targets = registry();
        for target in &targets {
            drop(target.build());
        }
        targets
    });
    report.setup_s = setup_s;
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let mutants = targets.iter().filter(|t| t.expect_failure).count();
    if targets.len() != TARGETS || mutants != MUTANTS.len() {
        report.fail(format!(
            "registry has {} targets and {mutants} mutants",
            targets.len()
        ));
    }

    let epoch = Instant::now();
    let mut first: Option<Vec<Result<Verdict, String>>> = None;
    let mut totals = Totals::default();
    let mut counts = Counts::default();
    let (untraced, traced) = drive(run, |traced| {
        let mut t = Tracer::new(traced, epoch);
        let mut pass_counts = Counts::default();
        let started = Instant::now();
        let verdicts: Vec<Result<Verdict, String>> = t.span("pass", |t| {
            targets
                .iter()
                .map(|target| vet_target(target, jobs, t, &mut pass_counts))
                .collect()
        });
        let wall = started.elapsed().as_secs_f64();
        for (i, verdict) in verdicts.iter().enumerate() {
            report.attempted += 1;
            let name = targets[i].name;
            match (verdict, first.as_ref().map(|f| &f[i])) {
                (Err(e), _) => report.fail(format!("{name}: {e}")),
                (Ok(v), Some(Ok(f))) if v != f => {
                    report.fail(format!("{name}: verdict differs across passes"))
                }
                _ => {}
            }
        }
        if first.is_none() {
            first = Some(verdicts);
        }
        if traced {
            totals.add(&t.into_spans());
            counts = pass_counts;
        }
        wall
    });
    report.passes = untraced;

    let mut naive_executions = 0u64;
    if run.trace {
        // The reduction-ratio enumeration of `pwf vet`, timed apart.
        let mut t = Tracer::new(true, epoch);
        for (target, verdict) in targets.iter().zip(first.iter().flatten()) {
            let Ok(v) = verdict else { continue };
            if target.expect_failure || v.executions > NAIVE_SKIP {
                continue;
            }
            let naive = t.span("checker.naive", |_| {
                explore(
                    target,
                    &ExploreOptions {
                        prune: false,
                        max_executions: NAIVE_CAP,
                        ..ExploreOptions::default()
                    },
                )
            });
            naive_executions += naive.stats.executions;
        }
        totals.add(&t.into_spans());
    }

    let passes = traced.len().max(1) as f64;
    let dpor_ms = totals.total_ms("checker.dpor") / passes;
    let layer = &mut report.layer;
    layer.insert("checker.dpor_ms", dpor_ms);
    layer.insert("checker.executions", counts.executions as f64);
    layer.insert("checker.states", counts.states as f64);
    layer.insert("checker.transitions", counts.transitions as f64);
    layer.insert(
        "checker.audit_ms",
        totals.total_ms("checker.audit") / passes,
    );
    layer.insert(
        "checker.shrink_ms",
        totals.total_ms("checker.shrink") / passes,
    );
    layer.insert(
        "checker.executions_per_s",
        counts.executions as f64 / (dpor_ms / 1e3).max(1e-9),
    );
    layer.insert(
        "checker.cache_hit_ratio",
        counts.cache_hits as f64 / (counts.cache_hits + counts.cache_misses).max(1) as f64,
    );
    layer.insert("checker.naive_ms", totals.total_ms("checker.naive"));
    layer.insert("checker.naive_executions", naive_executions as f64);
    report.lines.push(format!(
        "{} targets per pass ({mutants} mutants), explorer jobs = {jobs}",
        targets.len()
    ));
    report.traced_passes = traced;
    report.totals = totals;
    report
}
