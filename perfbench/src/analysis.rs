//! The `analysis` workload: one caller thread making the layer calls of
//! the five heaviest fast-profile experiments (`exp_ballsbins`,
//! `exp_scan_chain`, `exp_lifting_scu`, `exp_mixing`, `exp_fai_chain`)
//! at their fast-profile sizes, plus the n = 100 lifting check.
//!
//! Each op checks its own result against a reference, and every pass
//! must reproduce the first pass's results bit for bit.

use std::time::Instant;

use pwf_algorithms::chains::scu::ScuSystemOperator;
use pwf_algorithms::chains::{fai, scan, scu};
use pwf_ballsbins::game::Game;
use pwf_ballsbins::ranges;
use pwf_core::chain_analysis::{analyze, assemble_scu_large, ChainFamily};
use pwf_core::{AlgorithmSpec, SimExperiment};
use pwf_markov::mixing::{lazy_mixing_time, operator_lazy_mixing_time, sparse_lazy_mixing_time};
use pwf_markov::operator::{stationary_operator, TransitionOperator};
use pwf_markov::solve::{GaussSeidelOptions, PowerOptions, SolveStats};
use pwf_rng::rngs::StdRng;
use pwf_rng::{mix64, SeedableRng};

use crate::trace::{Totals, Tracer};
use crate::{drive, timed_setup, Report, Run};

/// Relative tolerance between a game or simulation estimate and the
/// exact chain. Estimates at fast-profile lengths sit within a few
/// percent; this leaves room for any seed.
const SAMPLED_TOL: f64 = 0.15;

/// One layer call (or a small group whose results check each other).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// E8 small n: game phase length vs the dense system chain.
    GameVsChain { n: usize, phases: usize, seed: u64 },
    /// E8 large n: game only.
    GameLarge { n: usize, phases: usize, seed: u64 },
    /// E8 / Lemma 9: range dynamics.
    Ranges { n: usize, phases: usize, seed: u64 },
    /// E16: the scan chain at `(n, s)` vs simulation.
    ScanPoint {
        n: usize,
        s: usize,
        steps: u64,
        seed: u64,
    },
    /// E16: the matrix-free scan operator vs the SCU operator at s = 1.
    ScanOperator { n: usize },
    /// E5: symmetry-reduced lifting check plus the operator solve, and
    /// the dense analysis where it still runs.
    Lifting { n: usize, seed: u64 },
    /// E18: mixing of the stored SCU system chain.
    MixScu { n: usize },
    /// E18: mixing of the implicit SCU operator.
    MixScuOperator { n: usize },
    /// E18: mixing of the stored FAI global chain.
    MixFai { n: usize },
    /// E18: dense vs sparse mixing cross-check.
    MixDense { n: usize },
    /// E7 small n: exact FAI analysis vs simulation.
    FaiSmall { n: usize, steps: u64, seed: u64 },
    /// E7 large n: dense global chain vs matrix-free Gauss–Seidel.
    FaiLarge { n: usize },
}

/// Fast-profile scaling (`ExpConfig::scaled`): a tenth, at least 1000.
fn fast(full: usize) -> usize {
    (full / 10).max(1_000.min(full))
}

/// The op list for `seed`, in experiment order.
pub fn ops(seed: u64) -> Vec<Op> {
    let tag = |t: u64| mix64(seed ^ mix64(t));
    let mut ops = Vec::new();
    for n in [4usize, 16, 64, 128] {
        ops.push(Op::GameVsChain {
            n,
            phases: fast(30_000),
            seed: tag(n as u64),
        });
    }
    for n in [512usize, 2048, 8192, 32768] {
        ops.push(Op::GameLarge {
            n,
            phases: fast(5_000),
            seed: tag(n as u64),
        });
    }
    for n in [16usize, 64, 256] {
        ops.push(Op::Ranges {
            n,
            phases: fast(50_000),
            seed: tag((1 << 32) | n as u64),
        });
    }
    let scan_points = [
        (4, 1),
        (4, 2),
        (4, 3),
        (8, 1),
        (8, 2),
        (8, 3),
        (16, 1),
        (16, 2),
        (16, 3),
        (32, 1),
        (32, 2),
    ];
    for (i, (n, s)) in scan_points.into_iter().enumerate() {
        ops.push(Op::ScanPoint {
            n,
            s,
            steps: fast(500_000) as u64,
            seed: tag((2 << 32) | i as u64),
        });
    }
    ops.push(Op::ScanOperator { n: 64 });
    for n in [2usize, 3, 4, 5, 6, 7, 8, 10, 12, 100] {
        ops.push(Op::Lifting {
            n,
            seed: tag((3 << 32) | n as u64),
        });
    }
    for n in [4usize, 8, 16, 32, 64] {
        ops.push(Op::MixScu { n });
    }
    ops.push(Op::MixScuOperator { n: 128 });
    for n in [4usize, 16, 64, 256, 1024] {
        ops.push(Op::MixFai { n });
    }
    ops.push(Op::MixDense { n: 4 });
    for n in 2..=8 {
        ops.push(Op::FaiSmall {
            n,
            steps: fast(400_000) as u64,
            seed: tag((4 << 32) | n as u64),
        });
    }
    for n in [16usize, 64, 256, 1024, 4096] {
        ops.push(Op::FaiLarge { n });
    }
    ops
}

/// Which experiment an op reproduces (its parent span).
fn experiment(op: &Op) -> &'static str {
    match op {
        Op::GameVsChain { .. } | Op::GameLarge { .. } | Op::Ranges { .. } => "exp_ballsbins",
        Op::ScanPoint { .. } | Op::ScanOperator { .. } => "exp_scan_chain",
        Op::Lifting { .. } => "exp_lifting_scu",
        Op::MixScu { .. } | Op::MixScuOperator { .. } | Op::MixFai { .. } | Op::MixDense { .. } => {
            "exp_mixing"
        }
        Op::FaiSmall { .. } | Op::FaiLarge { .. } => "exp_fai_chain",
    }
}

/// Solver work seen during a pass.
#[derive(Debug, Default, Clone, Copy)]
struct Solves {
    iterations: u64,
    state_iterations: f64,
    wall_ms: f64,
}

impl Solves {
    fn add(&mut self, states: usize, stats: &SolveStats) {
        self.iterations += stats.iterations as u64;
        self.state_iterations += states as f64 * stats.iterations as f64;
        self.wall_ms += stats.wall_ms;
    }
}

/// Counts a pass accumulates beside its spans.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    solves: Solves,
    throws: u64,
    sim_steps: u64,
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs()
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

fn game(
    t: &mut Tracer,
    counts: &mut Counts,
    n: usize,
    warmup: usize,
    phases: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let records = t.span("ballsbins.game", |_| {
        let mut game = Game::new(n);
        game.run_phases(warmup, &mut rng);
        game.run_phases(phases, &mut rng)
    });
    let total: u64 = records.iter().map(|r| r.length).sum();
    counts.throws += total;
    total as f64 / phases as f64
}

fn sim(
    t: &mut Tracer,
    counts: &mut Counts,
    spec: AlgorithmSpec,
    n: usize,
    steps: u64,
    seed: u64,
) -> Result<f64, String> {
    counts.sim_steps += steps;
    t.span("sim.run", |_| {
        SimExperiment::new(spec, n, steps).seed(seed).run()
    })
    .map_err(|e| e.to_string())?
    .system_latency
    .ok_or_else(|| "simulation recorded no completions".to_string())
}

/// Runs one op; returns its result values (for the cross-pass check).
fn execute(op: &Op, t: &mut Tracer, counts: &mut Counts) -> Result<Vec<f64>, String> {
    let opts = PowerOptions::new(500_000, 1e-12);
    match *op {
        Op::GameVsChain { n, phases, seed } => {
            let w_game = game(t, counts, n, 500, phases, seed);
            let w_chain = t
                .span("chain.dense", |_| scu::exact_system_latency(n))
                .map_err(|e| e.to_string())?;
            check(rel(w_game, w_chain) <= SAMPLED_TOL, || {
                format!("game W {w_game} vs chain W {w_chain} at n = {n}")
            })?;
            Ok(vec![w_game, w_chain])
        }
        Op::GameLarge { n, phases, seed } => {
            let w = game(t, counts, n, 100, phases, seed);
            let ratio = w / (n as f64).sqrt();
            check((0.5..4.0).contains(&ratio), || {
                format!("game W/sqrt(n) = {ratio} at n = {n}")
            })?;
            Ok(vec![w])
        }
        Op::Ranges { n, phases, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let stats = t.span("ballsbins.ranges", |_| ranges::measure(n, phases, &mut rng));
            let third = stats.third_range_fraction();
            check(
                stats.counts.iter().sum::<u64>() == phases as u64 && third <= 0.05,
                || format!("range dynamics at n = {n}: {stats:?}"),
            )?;
            Ok(vec![third, stats.longest_third_streak as f64])
        }
        Op::ScanPoint { n, s, steps, seed } => {
            let (w_chain, stats) = t
                .span("chain.operator", |_| {
                    scan::exact_system_latency_with(n, s, &opts, None)
                })
                .map_err(|e| e.to_string())?;
            counts.solves.iterations += stats.iterations as u64;
            let w_sim = sim(t, counts, AlgorithmSpec::Scu { q: 0, s }, n, steps, seed)?;
            check(rel(w_sim, w_chain) <= SAMPLED_TOL, || {
                format!("scan chain W {w_chain} vs sim W {w_sim} at ({n}, {s})")
            })?;
            Ok(vec![w_chain, w_sim])
        }
        Op::ScanOperator { n } => {
            let (w_scan, stats) = t
                .span("chain.operator", |_| {
                    scan::operator_system_latency_with(n, 1, &opts, None)
                })
                .map_err(|e| e.to_string())?;
            counts.solves.iterations += stats.iterations as u64;
            let (w_scu, stats) = t
                .span("chain.operator", |_| {
                    scu::large_system_latency_with(n, &opts, None)
                })
                .map_err(|e| e.to_string())?;
            counts.solves.add(ScuSystemOperator::new(n).len(), &stats);
            check(rel(w_scan, w_scu) <= 1e-9, || {
                format!("scan operator W {w_scan} vs SCU operator W {w_scu} at n = {n}")
            })?;
            Ok(vec![w_scan, w_scu])
        }
        Op::Lifting { n, seed } => {
            let lifting = t
                .span("markov.lifting", |_| {
                    scu::verify_lifting_by_symmetry(n, 2, seed)
                })
                .map_err(|e| e.to_string())?;
            let gate = if n >= 100 { 1e-12 } else { 1e-9 };
            check(lifting.kernel_residual <= gate, || {
                format!(
                    "kernel residual {} > {gate} at n = {n}",
                    lifting.kernel_residual
                )
            })?;
            let large = t
                .span("chain.operator", |_| {
                    assemble_scu_large(&lifting, &opts, None)
                })
                .map_err(|e| e.to_string())?;
            counts.solves.add(large.system_states, &large.solver);
            let mut out = vec![lifting.kernel_residual, large.system_latency];
            if n <= 7 {
                let dense = t
                    .span("chain.dense", |_| analyze(ChainFamily::Scu01, n))
                    .map_err(|e| e.to_string())?;
                check(
                    rel(dense.system_latency, large.system_latency) <= 1e-6,
                    || {
                        format!(
                            "dense W {} vs matrix-free W {} at n = {n}",
                            dense.system_latency, large.system_latency
                        )
                    },
                )?;
                out.push(dense.system_latency);
            }
            Ok(out)
        }
        Op::MixScu { n } => {
            let chain = t
                .span("chain.build", |_| scu::sparse_system_chain(n))
                .map_err(|e| e.to_string())?;
            let starts = [
                chain.state_index(&(n, 0)).expect("initial state"),
                chain.state_index(&(1, n - 1)).expect("post-success state"),
            ];
            let solve = t
                .span("chain.operator", |_| chain.stationary_with(&opts, None))
                .map_err(|e| e.to_string())?;
            counts.solves.add(chain.len(), &solve.stats);
            let mix = t.span("markov.mixing", |_| {
                sparse_lazy_mixing_time(&chain, &solve.pi, &starts, 0.01, 200_000)
            });
            let t_mix = mix.mixing_time.ok_or("SCU chain did not mix")?;
            Ok(vec![t_mix as f64])
        }
        Op::MixScuOperator { n } => {
            let op = ScuSystemOperator::new(n);
            let solve = t
                .span("chain.operator", |_| stationary_operator(&op, &opts, None))
                .map_err(|e| e.to_string())?;
            counts.solves.add(op.len(), &solve.stats);
            let starts = [op.index(n, 0), op.index(1, n - 1)];
            let mix = t.span("markov.mixing", |_| {
                operator_lazy_mixing_time(&op, &solve.pi, &starts, 0.01, 200_000)
            });
            let t_mix = mix.mixing_time.ok_or("SCU operator did not mix")?;
            Ok(vec![t_mix as f64])
        }
        Op::MixFai { n } => {
            let chain = t
                .span("chain.build", |_| fai::sparse_global_chain(n))
                .map_err(|e| e.to_string())?;
            let starts = [
                chain.state_index(&n).expect("state v_n"),
                chain.state_index(&1).expect("state v_1"),
            ];
            let solve = t
                .span("chain.operator", |_| chain.stationary_with(&opts, None))
                .map_err(|e| e.to_string())?;
            counts.solves.add(chain.len(), &solve.stats);
            let mix = t.span("markov.mixing", |_| {
                sparse_lazy_mixing_time(&chain, &solve.pi, &starts, 0.01, 200_000)
            });
            let t_mix = mix.mixing_time.ok_or("FAI chain did not mix")?;
            Ok(vec![t_mix as f64])
        }
        Op::MixDense { n } => {
            let chain = t
                .span("chain.build", |_| scu::system_chain(n))
                .map_err(|e| e.to_string())?;
            let starts = [
                chain.state_index(&(n, 0)).expect("initial state"),
                chain.state_index(&(1, n - 1)).expect("post-success state"),
            ];
            let dense = t
                .span("markov.mixing", |_| {
                    lazy_mixing_time(&chain, &starts, 0.01, 200_000)
                })
                .map_err(|e| e.to_string())?
                .mixing_time
                .ok_or("dense chain did not mix")?;
            let sparse_chain = chain.to_sparse();
            let solve = t
                .span("chain.operator", |_| {
                    sparse_chain.stationary_with(&opts, None)
                })
                .map_err(|e| e.to_string())?;
            counts.solves.add(sparse_chain.len(), &solve.stats);
            let sparse = t
                .span("markov.mixing", |_| {
                    sparse_lazy_mixing_time(&sparse_chain, &solve.pi, &starts, 0.01, 200_000)
                })
                .mixing_time
                .ok_or("sparse chain did not mix")?;
            check(dense == sparse, || {
                format!("dense t_mix {dense} != sparse t_mix {sparse} at n = {n}")
            })?;
            Ok(vec![dense as f64])
        }
        Op::FaiSmall { n, steps, seed } => {
            let report = t
                .span("chain.dense", |_| analyze(ChainFamily::FetchAndInc, n))
                .map_err(|e| e.to_string())?;
            let w_sim = sim(t, counts, AlgorithmSpec::FetchAndInc, n, steps, seed)?;
            check(
                rel(w_sim, report.system_latency) <= SAMPLED_TOL
                    && (report.fairness_identity() - 1.0).abs() <= 1e-6,
                || {
                    format!(
                        "fai n = {n}: chain W {}, sim W {w_sim}, Wi/(nW) {}",
                        report.system_latency,
                        report.fairness_identity()
                    )
                },
            )?;
            Ok(vec![report.system_latency, w_sim])
        }
        Op::FaiLarge { n } => {
            let w = t
                .span("chain.dense", |_| fai::exact_system_latency(n))
                .map_err(|e| e.to_string())?;
            let gs = GaussSeidelOptions::default();
            let w_op = t
                .span("chain.operator", |_| {
                    fai::operator_return_time_of_win_state(n, &gs, None)
                })
                .map_err(|e| e.to_string())?;
            check(rel(w, w_op) <= 1e-6 && w < 2.0 * (n as f64).sqrt(), || {
                format!("fai n = {n}: chain W {w} vs operator return time {w_op}")
            })?;
            Ok(vec![w, w_op])
        }
    }
}

fn fingerprint(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The `analysis` workload.
pub fn run(run: &Run) -> Report {
    let mut report = Report::default();
    let (ops, setup_s) = timed_setup(|| ops(run.seed));
    report.setup_s = setup_s;
    let epoch = Instant::now();
    let mut first: Option<Vec<Result<Vec<u64>, String>>> = None;
    let mut totals = Totals::default();
    let mut counts = Counts::default();
    let (untraced, traced) = drive(run, |traced| {
        let mut t = Tracer::new(traced, epoch);
        let mut pass_counts = Counts::default();
        let started = Instant::now();
        let results: Vec<Result<Vec<u64>, String>> = t.span("pass", |t| {
            ops.iter()
                .map(|op| {
                    t.span(experiment(op), |t| execute(op, t, &mut pass_counts))
                        .map(|v| fingerprint(&v))
                        .map_err(|e| format!("{op:?}: {e}"))
                })
                .collect()
        });
        let wall = started.elapsed().as_secs_f64();
        for (i, result) in results.iter().enumerate() {
            report.attempted += 1;
            match (result, first.as_ref().map(|f| &f[i])) {
                (Err(e), _) => report.fail(e.clone()),
                (Ok(v), Some(Ok(f))) if v != f => {
                    report.fail(format!("{:?}: differs across passes", ops[i]))
                }
                _ => {}
            }
        }
        if first.is_none() {
            first = Some(results);
        }
        if traced {
            totals.add(&t.into_spans());
            counts = pass_counts;
        }
        wall
    });
    report.passes = untraced;

    let passes = traced.len().max(1) as f64;
    let layer = &mut report.layer;
    for (metric, span) in [
        ("chain.dense_ms", "chain.dense"),
        ("chain.operator_ms", "chain.operator"),
        ("markov.lifting_ms", "markov.lifting"),
        ("markov.mixing_ms", "markov.mixing"),
        ("sim.run_ms", "sim.run"),
    ] {
        layer.insert(metric, totals.total_ms(span) / passes);
    }
    layer.insert(
        "ballsbins.game_ms",
        (totals.total_ms("ballsbins.game") + totals.total_ms("ballsbins.ranges")) / passes,
    );
    layer.insert("markov.solver_iterations", counts.solves.iterations as f64);
    layer.insert(
        "markov.states_per_s",
        counts.solves.state_iterations / (counts.solves.wall_ms / 1e3).max(1e-9),
    );
    let sim_s = totals.total_ms("sim.run") / passes / 1e3;
    layer.insert("sim.steps_per_s", counts.sim_steps as f64 / sim_s.max(1e-9));
    // `ranges::measure` returns no phase lengths, so throughput counts
    // the `run_phases` calls alone.
    let game_s = totals.total_ms("ballsbins.game") / passes / 1e3;
    layer.insert(
        "ballsbins.throws_per_s",
        counts.throws as f64 / game_s.max(1e-9),
    );
    report
        .lines
        .push(format!("{} ops per pass, single caller", ops.len()));
    report.traced_passes = traced;
    report.totals = totals;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_is_deterministic_per_seed() {
        assert_eq!(format!("{:?}", ops(5)), format!("{:?}", ops(5)));
        assert_ne!(ops(5), ops(6));
    }

    #[test]
    fn op_list_covers_the_five_experiments() {
        let list = ops(1);
        for name in [
            "exp_ballsbins",
            "exp_scan_chain",
            "exp_lifting_scu",
            "exp_mixing",
            "exp_fai_chain",
        ] {
            assert!(list.iter().any(|op| experiment(op) == name), "{name}");
        }
        assert!(list
            .iter()
            .any(|op| matches!(op, Op::Lifting { n: 100, .. })));
    }
}
