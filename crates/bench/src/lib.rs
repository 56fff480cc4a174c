//! Shared harness utilities for the experiment binaries that regenerate the
//! paper's tables and figures.
//!
//! Binaries (run with `cargo run --release -p rlpta-bench --bin <name>`):
//!
//! * `table2` — IPP vs default CEPTA on the seven held-out test circuits,
//! * `fig5`  — RL-S vs simple and adaptive stepping for CEPTA (27 circuits),
//! * `table3` — RL-S vs adaptive stepping for DPTA (33 circuits),
//! * `ablation` — design-choice ablations (dual agents, public buffer,
//!   priority sampling) on a hard-circuit subset.
//!
//! Every binary also understands the shared observability flags:
//! `--threads N`, `--trace-jsonl <path>` (raw event stream),
//! `--bench-json <path>` (machine-readable [`report::BenchReport`] for the
//! `perfdiff` regression gate) and `--profile` (ASCII self-time tree on
//! stdout, `#`-prefixed so table output stays diffable).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;

use rlpta_circuits::{training_corpus, Benchmark};
use rlpta_core::telemetry::timing;
use rlpta_core::{
    DcEngine, EngineConfig, FanoutSink, JsonlSink, MetricsRegistry, Phase, PtaConfig, PtaKind,
    PtaSolver, RlStepping, RlSteppingConfig, SerStepping, SimpleStepping, Sink, Solution,
    SolveBudget, SolveError, SolveStats, Span, StepController,
};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Step budget used by every experiment (generous; failures count as
/// non-convergent rather than panicking). The values come from
/// [`EngineConfig::experiment`] so the harness and the engine agree.
pub fn experiment_config() -> PtaConfig {
    EngineConfig::experiment().pta()
}

/// Budget applied to the robust-ladder column: experiments must terminate
/// even on decks the ladder cannot crack.
pub fn robust_budget() -> SolveBudget {
    EngineConfig::experiment().budget()
}

/// Value of a `--name <v>` / `--name=<v>` command-line option, if present.
pub fn arg_value(name: &str) -> Option<String> {
    let flag = format!("--{name}");
    let prefixed = format!("--{name}=");
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == flag {
            if let Some(v) = args.next() {
                return Some(v);
            }
        } else if let Some(v) = arg.strip_prefix(&prefixed) {
            return Some(v.to_string());
        }
    }
    None
}

/// Whether a bare `--name` flag is present on the command line.
pub fn arg_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// Pool width for the experiment binaries: `--threads N` on the command
/// line wins, then the `RLPTA_THREADS` environment variable, then serial.
/// `0` sizes the pool to the host. Results are identical at any width —
/// only wall-clock time changes.
pub fn bench_threads() -> usize {
    arg_value("threads")
        .or_else(|| std::env::var("RLPTA_THREADS").ok())
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

/// The shared telemetry sink for the experiment binaries, composing (via
/// [`FanoutSink`]) whichever observability consumers the command line asks
/// for:
///
/// * `--trace-jsonl <path>` (or `RLPTA_TRACE_JSONL`) — stream every event
///   — LU work, NR iterations, PTA steps, RL training, batch fan-out,
///   phase timing — to one line-JSON file;
/// * `--bench-json <path>` / `--profile` — fold events into the process
///   [`MetricsRegistry`] (see [`metrics_registry`]) for reports.
///
/// All batch helpers attach it automatically; `None` (the default) keeps
/// the zero-cost [`rlpta_core::NullSink`] path, timing gated off.
pub fn trace_sink() -> Option<Arc<dyn Sink>> {
    static SINK: OnceLock<Option<Arc<dyn Sink>>> = OnceLock::new();
    SINK.get_or_init(|| {
        let mut fanout = FanoutSink::new();
        if let Some(path) = trace_jsonl_path() {
            match JsonlSink::create(&path) {
                Ok(sink) => fanout = fanout.with(Arc::new(sink)),
                Err(e) => eprintln!("warning: cannot open trace file {path}: {e}"),
            }
        }
        if let Some(metrics) = metrics_registry() {
            fanout = fanout.with(metrics);
        }
        match fanout.len() {
            0 => None,
            _ => Some(Arc::new(fanout) as Arc<dyn Sink>),
        }
    })
    .clone()
}

/// `--trace-jsonl <path>` / `--trace-jsonl=<path>` on the command line
/// wins, then the `RLPTA_TRACE_JSONL` environment variable.
fn trace_jsonl_path() -> Option<String> {
    arg_value("trace-jsonl").or_else(|| std::env::var("RLPTA_TRACE_JSONL").ok())
}

/// `--bench-json <path>`: where to write the machine-readable
/// [`report::BenchReport`], if requested (`RLPTA_BENCH_JSON` as fallback).
pub fn bench_json_path() -> Option<String> {
    arg_value("bench-json").or_else(|| std::env::var("RLPTA_BENCH_JSON").ok())
}

/// Whether `--profile` asked for the ASCII self-time tree on stdout.
pub fn profile_enabled() -> bool {
    arg_flag("profile")
}

/// The process-wide metrics aggregator, live only when `--bench-json` or
/// `--profile` asked for timing collection (so plain table runs keep the
/// no-clock-sampling fast path). Shared with [`trace_sink`] so one event
/// stream feeds both the JSONL trace and the folded statistics.
pub fn metrics_registry() -> Option<Arc<MetricsRegistry>> {
    static REGISTRY: OnceLock<Option<Arc<MetricsRegistry>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| {
            (bench_json_path().is_some() || profile_enabled())
                .then(|| Arc::new(MetricsRegistry::new()))
        })
        .clone()
}

/// Times `body` as [`Phase::GpFit`] on the shared sink (the GP crate has no
/// telemetry dependency, so the harness wraps its training entry point).
/// Without a timing-hungry sink the clock is never sampled.
pub fn time_gp_fit<T>(body: impl FnOnce() -> T) -> T {
    match trace_sink() {
        Some(sink) => timing::time_on(&*sink, Span::default(), Phase::GpFit, body),
        None => body(),
    }
}

/// Standard epilogue for every experiment binary: given the headline
/// series (`rows`, in suite order) and run metadata, writes the
/// `--bench-json` report, prints the `--profile` self-time tree (as
/// `#`-prefixed lines so CI's stdout diff ignores them), and always prints
/// the `# total wall time` trailer the binaries used to print themselves.
pub fn finish_run(
    bench: &str,
    strategy: &str,
    stepping: &str,
    threads: usize,
    rows: &[(String, SolveStats)],
    t0: Instant,
) {
    let wall = t0.elapsed();
    let metrics = metrics_registry();
    if profile_enabled() {
        if let Some(m) = &metrics {
            let rates = m.rates();
            println!("#\n# --- self-time profile ({bench}) ---");
            for line in m.profile_tree().lines() {
                println!("# {line}");
            }
            println!(
                "# rates: {:.0} NR iters/s, {:.0} steps/s, {:.1}% LU replay hit-rate",
                rates.nr_iters_per_sec,
                rates.steps_per_sec,
                100.0 * rates.refactorize_hit_rate,
            );
        }
    }
    if let Some(m) = &metrics {
        // Health columns folded from the certification telemetry: how many
        // solutions were graded, how many rescue refinement steps ran and
        // how many sweep points were quarantined.
        let graded = m.kind_count("Certified");
        let refinements = m.kind_count("RefinementStep");
        let quarantined = m.kind_count("Quarantined");
        if graded + refinements + quarantined > 0 {
            println!(
                "# health: {graded} graded solutions, {refinements} refinement steps, \
                 {quarantined} quarantined points"
            );
        }
    }
    if let Some(path) = bench_json_path() {
        let rep = report::BenchReport::from_run(
            bench,
            strategy,
            stepping,
            threads,
            rows,
            wall,
            metrics.as_deref(),
        );
        match rep.write(&path) {
            Ok(()) => println!("# bench report: {path}"),
            Err(e) => eprintln!("warning: {e}"),
        }
    }
    println!("# total wall time: {:.2}s", wall.as_secs_f64());
}

/// Collapses an engine result to the stats the tables print: errors that
/// carry partial work keep it, total ladder failures absorb every stage,
/// and anything structural warns and counts as an empty failed run.
pub fn stats_of(result: Result<Solution, SolveError>, name: &str) -> SolveStats {
    match result {
        Ok(sol) => sol.stats,
        Err(SolveError::NonConvergent { stats } | SolveError::BudgetExhausted { stats, .. }) => {
            let mut s = stats;
            s.converged = false;
            s
        }
        Err(SolveError::AllStrategiesFailed { attempts }) => {
            let mut stats = SolveStats::default();
            for a in &attempts {
                stats.absorb(&a.stats);
            }
            stats.converged = false;
            stats
        }
        Err(e) => {
            eprintln!("warning: {name} failed structurally: {e}");
            SolveStats::default()
        }
    }
}

/// The evaluation engine behind the batch helpers: one PTA flavour under
/// [`experiment_config`] on `threads` pooled workers.
fn eval_engine(kind: PtaKind, threads: usize) -> DcEngine {
    let mut builder = DcEngine::builder()
        .kind(kind)
        .pta_config(experiment_config())
        .threads(threads);
    if let Some(sink) = trace_sink() {
        builder = builder.telemetry(sink);
    }
    builder.build()
}

/// Runs one benchmark through the full escalation ladder under
/// [`robust_budget`] and reports the certification grade attached to the
/// solution — the `health` column of the stress table. The returned stats
/// accumulate every stage that ran; `converged == false` marks total
/// failure (all strategies or budget).
pub fn run_robust_graded(bench: &Benchmark) -> (SolveStats, String) {
    run_robust_graded_batch(std::slice::from_ref(bench), 1).remove(0)
}

/// [`run_robust_graded`] over a whole suite on `threads` pooled workers,
/// with each row's certification grade (`certified` or `suspect`; `-`
/// marks a failed solve that produced nothing to grade). Rows come back
/// in input order and are identical at any thread count.
pub fn run_robust_graded_batch(
    benches: &[Benchmark],
    threads: usize,
) -> Vec<(SolveStats, String)> {
    let circuits: Vec<_> = benches.iter().map(|b| b.circuit.clone()).collect();
    let mut builder = DcEngine::builder()
        .robust()
        .budget(robust_budget())
        .threads(threads);
    if let Some(sink) = trace_sink() {
        builder = builder.telemetry(sink);
    }
    builder
        .build()
        .solve_batch(&circuits)
        .into_iter()
        .zip(benches)
        .map(|(r, b)| {
            let grade = health_cell(&r);
            (stats_of(r, &b.name), grade)
        })
        .collect()
}

/// `health` cell: the grade of the solution's certification report, `?`
/// for a solution that somehow skipped certification and `-` on failure.
pub fn health_cell(result: &Result<Solution, SolveError>) -> String {
    match result {
        Ok(sol) => sol
            .health
            .as_ref()
            .map_or_else(|| "?".into(), |h| h.grade.name().to_string()),
        Err(_) => "-".into(),
    }
}

/// Runs one benchmark under an arbitrary controller and returns the
/// statistics (`converged == false` inside the stats marks failure) with
/// the controller as the run left it.
pub fn run_with<C: StepController>(
    bench: &Benchmark,
    kind: PtaKind,
    controller: C,
) -> (SolveStats, C) {
    let mut solver = PtaSolver::with_config(kind, controller, experiment_config());
    let stats = stats_of(solver.solve(&bench.circuit), &bench.name);
    (stats, solver.into_controller())
}

/// [`run_with`] over a whole suite on `threads` pooled workers. Every job
/// gets its own clone of `controller` (the per-benchmark evaluation
/// protocol), so the stats are identical at any thread count; the trained
/// clones are discarded — use the serial [`run_with`] to keep learning.
pub fn run_batch_with<C: StepController + Clone + Sync>(
    benches: &[Benchmark],
    kind: PtaKind,
    controller: &C,
    threads: usize,
) -> Vec<SolveStats> {
    let circuits: Vec<_> = benches.iter().map(|b| b.circuit.clone()).collect();
    eval_engine(kind, threads)
        .solve_batch_with(&circuits, controller)
        .into_iter()
        .zip(benches)
        .map(|(r, b)| stats_of(r, &b.name))
        .collect()
}

/// Runs a benchmark with the simple iteration-counting controller.
///
/// Routes through the shared evaluation engine so a `--trace-jsonl` sink
/// sees serial runs too.
pub fn run_simple(bench: &Benchmark, kind: PtaKind) -> SolveStats {
    run_simple_batch(std::slice::from_ref(bench), kind, 1).remove(0)
}

/// [`run_simple`] over a whole suite on `threads` pooled workers.
pub fn run_simple_batch(benches: &[Benchmark], kind: PtaKind, threads: usize) -> Vec<SolveStats> {
    run_batch_with(benches, kind, &SimpleStepping::default(), threads)
}

/// Runs a benchmark with the adaptive SER controller.
///
/// Routes through the shared evaluation engine so a `--trace-jsonl` sink
/// sees serial runs too.
pub fn run_adaptive(bench: &Benchmark, kind: PtaKind) -> SolveStats {
    run_adaptive_batch(std::slice::from_ref(bench), kind, 1).remove(0)
}

/// [`run_adaptive`] over a whole suite on `threads` pooled workers.
pub fn run_adaptive_batch(benches: &[Benchmark], kind: PtaKind, threads: usize) -> Vec<SolveStats> {
    run_batch_with(benches, kind, &SerStepping::default(), threads)
}

/// Pre-trains one RL-S controller across the training corpus (the paper's
/// offline phase), returning it ready for per-circuit online adaptation.
pub fn pretrain_rl(kind: PtaKind, seed: u64, epochs: usize) -> RlStepping {
    pretrain_rl_with(kind, RlSteppingConfig::new(seed), epochs)
}

/// [`pretrain_rl`] from an explicit controller configuration (the
/// ablation variants).
pub fn pretrain_rl_with(kind: PtaKind, config: RlSteppingConfig, epochs: usize) -> RlStepping {
    let mut rl = RlStepping::new(config);
    if let Some(sink) = trace_sink() {
        // TrainStep events flow during the offline phase.
        rl.attach_telemetry(sink, Span::default());
    }
    let corpus = training_corpus();
    for _ in 0..epochs {
        for b in &corpus {
            // Keep the learning regardless of per-circuit success.
            rl = run_with(b, kind, rl).1;
        }
    }
    rl
}

/// Runs a benchmark with a (cloned) pre-trained RL-S controller, online
/// learning enabled — the paper's evaluation protocol.
///
/// Routes through the shared evaluation engine (and so its certification
/// gate), like [`run_simple`] and [`run_adaptive`].
pub fn run_rl(bench: &Benchmark, kind: PtaKind, pretrained: &RlStepping) -> SolveStats {
    run_rl_batch(std::slice::from_ref(bench), kind, pretrained, 1).remove(0)
}

/// [`run_rl`] over a whole suite on `threads` pooled workers: every circuit
/// starts from its own clone of `pretrained` and adapts online in
/// isolation — exactly the serial per-benchmark protocol, so the stats
/// match a [`run_rl`] loop bit for bit at any thread count.
pub fn run_rl_batch(
    benches: &[Benchmark],
    kind: PtaKind,
    pretrained: &RlStepping,
    threads: usize,
) -> Vec<SolveStats> {
    run_batch_with(benches, kind, pretrained, threads)
}

/// Formats `a / b` as the paper's `X.XXx` speedup column (`-` on failure).
pub fn speedup(baseline: &SolveStats, improved: &SolveStats) -> String {
    if !baseline.converged || !improved.converged || improved.nr_iterations == 0 {
        return "-".into();
    }
    format!(
        "{:.2}X",
        baseline.nr_iterations as f64 / improved.nr_iterations as f64
    )
}

/// Formats the paper's step-reduction percentage column.
pub fn step_reduction(baseline: &SolveStats, improved: &SolveStats) -> String {
    if !baseline.converged || !improved.converged || baseline.pta_steps == 0 {
        return "-".into();
    }
    let red = 100.0 * (1.0 - improved.pta_steps as f64 / baseline.pta_steps as f64);
    format!("{red:.2}%")
}

/// `#Ite` cell: the NR iteration count or `N/A` on failure — the paper uses
/// `N/A` for the default-divergent D22 row.
pub fn ite_cell(stats: &SolveStats) -> String {
    if stats.converged {
        stats.nr_iterations.to_string()
    } else {
        "N/A".into()
    }
}

/// `#Ste` cell.
pub fn ste_cell(stats: &SolveStats) -> String {
    if stats.converged {
        stats.pta_steps.to_string()
    } else {
        "N/A".into()
    }
}

/// `LU f/r` cell: full factorizations vs symbolic-replay refactorizations.
/// Printed even on failure — the LU work was spent either way.
pub fn lu_cell(stats: &SolveStats) -> String {
    format!(
        "{}/{}",
        stats.lu_factorizations, stats.lu_refactorizations
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(ite: usize, ste: usize, ok: bool) -> SolveStats {
        SolveStats {
            nr_iterations: ite,
            pta_steps: ste,
            converged: ok,
            ..SolveStats::default()
        }
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup(&stats(100, 10, true), &stats(40, 5, true)), "2.50X");
        assert_eq!(speedup(&stats(100, 10, false), &stats(40, 5, true)), "-");
    }

    #[test]
    fn step_reduction_formatting() {
        assert_eq!(
            step_reduction(&stats(0, 100, true), &stats(0, 25, true)),
            "75.00%"
        );
        assert_eq!(step_reduction(&stats(0, 0, true), &stats(0, 5, true)), "-");
    }

    #[test]
    fn cells() {
        assert_eq!(ite_cell(&stats(7, 2, true)), "7");
        assert_eq!(ite_cell(&stats(7, 2, false)), "N/A");
        assert_eq!(ste_cell(&stats(7, 2, true)), "2");
    }

    #[test]
    fn run_simple_on_small_circuit() {
        let b = rlpta_circuits::by_name("gm1").expect("known");
        let s = run_simple(&b, PtaKind::dpta());
        assert!(s.converged);
        assert!(s.nr_iterations > 0);
    }

    #[test]
    fn run_robust_on_small_circuit() {
        let b = rlpta_circuits::by_name("gm1").expect("known");
        let (s, grade) = run_robust_graded(&b);
        assert!(s.converged);
        assert!(s.nr_iterations > 0);
        assert_ne!(grade, "-");
    }

    #[test]
    fn batch_helpers_match_serial_loops() {
        let benches: Vec<_> = ["gm1", "bias", "D10"]
            .iter()
            .map(|n| rlpta_circuits::by_name(n).expect("known"))
            .collect();
        let kind = PtaKind::dpta();
        let serial: Vec<_> = benches.iter().map(|b| run_simple(b, kind)).collect();
        assert_eq!(run_simple_batch(&benches, kind, 3), serial);
        let serial: Vec<_> = benches.iter().map(|b| run_adaptive(b, kind)).collect();
        assert_eq!(run_adaptive_batch(&benches, kind, 3), serial);
        let serial: Vec<_> = benches.iter().map(run_robust_graded).collect();
        assert_eq!(run_robust_graded_batch(&benches, 3), serial);
    }

    /// The acceptance check behind `fig5 --threads 4`: a pooled batch run
    /// of the whole Fig. 5 corpus is *identical* — solutions, stats and
    /// typed errors — to the serial run. A per-run NR cap keeps the test
    /// fast in debug builds without touching the determinism question.
    #[test]
    fn fig5_batch_is_identical_to_serial_run() {
        let benches = rlpta_circuits::fig5();
        let circuits: Vec<_> = benches.iter().map(|b| b.circuit.clone()).collect();
        let engine = |threads: usize| {
            DcEngine::builder()
                .kind(PtaKind::cepta())
                .pta_config(experiment_config())
                .budget(SolveBudget::UNLIMITED.nr_iterations(5_000))
                .threads(threads)
                .build()
        };
        let serial = engine(1).solve_batch(&circuits);
        let pooled = engine(4).solve_batch(&circuits);
        assert_eq!(serial.len(), pooled.len());
        for (i, (s, p)) in serial.iter().zip(&pooled).enumerate() {
            assert_eq!(s, p, "{} diverged between serial and pooled", benches[i].name);
        }
    }
}
