//! Performance-regression gate: diffs two [`BenchReport`] files.
//!
//! ```text
//! perfdiff <baseline.json> <candidate.json> [--threshold <pct>] \
//!          [--min-count <n>] [--warn-only] [--require-lower <counter>]
//! ```
//!
//! Compares the deterministic work counters (NR iterations, PTA steps,
//! total LU work) and, where both sides carry timing, the per-phase p50 /
//! p99 wall times plus the end-to-end wall clock. A relative increase
//! beyond `--threshold` percent (default 30) is a regression. Phases with
//! fewer than `--min-count` samples (default 5) on either side are skipped
//! — their percentiles are noise. Exit codes: `0` clean, `1` regression
//! (suppressed by `--warn-only`), `2` usage/parse error.
//!
//! `--require-lower <counter>` additionally demands that the candidate's
//! named work counter (`nr_iterations`, `pta_steps`, `lu_factorizations`,
//! `lu_refactorizations`, `lu_total`, `stamp_resolve_total` — the
//! number of recorded `stamp_resolve` spans, i.e. how often a stamp plan
//! had to be compiled rather than replayed — `stamp_write_total`, the
//! number of `stamp_write` spans, i.e. full device evaluations, or
//! `rl_train_total`) is *strictly below* the baseline's — the shape of the
//! CI gate asserting the warm service path beats cold solves. An unmet
//! requirement is a hard failure that `--warn-only` does **not**
//! suppress.
//!
//! Diffing a report against itself always exits 0, whatever the threshold
//! (unless `--require-lower` demands strict improvement).

use rlpta_bench::report::BenchReport;
use std::process::ExitCode;

/// One comparison outcome, ready for the summary table.
struct Delta {
    what: String,
    base: u64,
    cand: u64,
    regressed: bool,
}

fn rel_change(base: u64, cand: u64) -> f64 {
    if base == 0 {
        if cand == 0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cand as f64 - base as f64) / base as f64
    }
}

fn check(deltas: &mut Vec<Delta>, what: impl Into<String>, base: u64, cand: u64, threshold: f64) {
    deltas.push(Delta {
        what: what.into(),
        base,
        cand,
        regressed: rel_change(base, cand) > threshold,
    });
}

/// The named deterministic work counter of a report, for `--require-lower`.
fn counter(report: &BenchReport, name: &str) -> Result<u64, String> {
    Ok(match name {
        "nr_iterations" => report.nr_iterations,
        "pta_steps" => report.pta_steps,
        "lu_factorizations" => report.lu_factorizations,
        "lu_refactorizations" => report.lu_refactorizations,
        "lu_total" => report.lu_factorizations + report.lu_refactorizations,
        // Phase-derived counter: how many stamp-plan resolutions the run
        // performed. Reports without timing carry no phases and count 0.
        "stamp_resolve_total" => report.phase("stamp_resolve").map_or(0, |p| p.count),
        // How many full device evaluations (stamp writes) the run made.
        "stamp_write_total" => report.phase("stamp_write").map_or(0, |p| p.count),
        // Summed RL training wall-time in nanoseconds, gating the batched
        // TD3 kernels against the pre-batching baseline. Nanos rather than
        // a call count because the batch restructuring keeps the number of
        // train steps while collapsing their per-step cost.
        "rl_train_total" => report.phase("rl_train").map_or(0, |p| p.sum_nanos),
        other => {
            return Err(format!(
                "unknown counter {other:?} for --require-lower (expected nr_iterations, \
                 pta_steps, lu_factorizations, lu_refactorizations, lu_total, \
                 stamp_resolve_total, stamp_write_total or rl_train_total)"
            ))
        }
    })
}

/// What the diff concluded.
struct Outcome {
    /// A counter or timing moved beyond the threshold.
    regressed: bool,
    /// A `--require-lower` requirement was not met — never suppressed.
    requirement_failed: bool,
}

fn run() -> Result<Outcome, String> {
    let mut positional = Vec::new();
    // `--require-lower` may repeat: every named counter must improve.
    let mut require_lower = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threshold" || a == "--min-count" {
            // Skip the option's value so it is not mistaken for a path.
            let _ = args.next();
        } else if a == "--require-lower" {
            if let Some(v) = args.next() {
                require_lower.push(v);
            }
        } else if let Some(v) = a.strip_prefix("--require-lower=") {
            require_lower.push(v.to_string());
        } else if !a.starts_with("--") {
            positional.push(a);
        }
    }
    let [baseline_path, candidate_path] = positional.as_slice() else {
        return Err(
            "usage: perfdiff <baseline.json> <candidate.json> [--threshold <pct>] \
             [--min-count <n>] [--warn-only] [--require-lower <counter>]"
                .to_string(),
        );
    };
    let threshold_pct: f64 = match rlpta_bench::arg_value("threshold") {
        Some(v) => v
            .parse()
            .map_err(|e| format!("bad --threshold {v:?}: {e}"))?,
        None => 30.0,
    };
    let min_count: u64 = match rlpta_bench::arg_value("min-count") {
        Some(v) => v
            .parse()
            .map_err(|e| format!("bad --min-count {v:?}: {e}"))?,
        None => 5,
    };
    let threshold = threshold_pct / 100.0;

    let base = BenchReport::load(baseline_path)?;
    let cand = BenchReport::load(candidate_path)?;
    if base.schema_version != cand.schema_version {
        return Err(format!(
            "schema mismatch: baseline v{}, candidate v{}",
            base.schema_version, cand.schema_version
        ));
    }
    println!(
        "perfdiff: {} ({} @ {}) vs {} ({} @ {}), threshold {threshold_pct}%",
        baseline_path, base.bench, base.git_rev, candidate_path, cand.bench, cand.git_rev
    );
    for (label, b, c) in [
        ("bench", &base.bench, &cand.bench),
        ("strategy", &base.strategy, &cand.strategy),
        ("stepping", &base.stepping, &cand.stepping),
    ] {
        if b != c {
            println!("note: {label} differs ({b} vs {c}) — comparing anyway");
        }
    }
    if base.kernel_build != cand.kernel_build {
        println!(
            "note: RL kernel build differs ({} vs {}) — RL phase times are not comparable",
            base.kernel_build.as_deref().unwrap_or("unknown"),
            cand.kernel_build.as_deref().unwrap_or("unknown")
        );
    }
    if base.threads != cand.threads {
        println!(
            "note: thread counts differ ({} vs {}) — wall times are not like-for-like",
            base.threads, cand.threads
        );
    }

    let mut deltas = Vec::new();
    // Deterministic work counters first: immune to machine noise, so any
    // move beyond the threshold is a real algorithmic regression.
    check(&mut deltas, "nr_iterations", base.nr_iterations, cand.nr_iterations, threshold);
    check(&mut deltas, "pta_steps", base.pta_steps, cand.pta_steps, threshold);
    check(
        &mut deltas,
        "lu_total",
        base.lu_factorizations + base.lu_refactorizations,
        cand.lu_factorizations + cand.lu_refactorizations,
        threshold,
    );
    check(
        &mut deltas,
        "non_converged",
        (base.circuits - base.converged) as u64,
        (cand.circuits - cand.converged) as u64,
        // Any newly failing circuit is a regression regardless of ratio.
        0.0,
    );
    // Wall-clock comparisons only where both sides actually timed.
    if base.wall_nanos > 0 && cand.wall_nanos > 0 {
        check(&mut deltas, "wall_time", base.wall_nanos, cand.wall_nanos, threshold);
    }
    let mut skipped = 0usize;
    for bp in &base.phases {
        let Some(cp) = cand.phase(&bp.phase) else {
            println!("note: phase {} absent from candidate", bp.phase);
            continue;
        };
        if bp.count < min_count || cp.count < min_count {
            skipped += 1;
            continue;
        }
        check(&mut deltas, format!("{} p50", bp.phase), bp.p50_nanos, cp.p50_nanos, threshold);
        check(&mut deltas, format!("{} p99", bp.phase), bp.p99_nanos, cp.p99_nanos, threshold);
    }
    if skipped > 0 {
        println!("note: {skipped} phase(s) skipped (fewer than {min_count} samples)");
    }

    let mut regressions = 0usize;
    for d in &deltas {
        let pct = rel_change(d.base, d.cand) * 100.0;
        let verdict = if d.regressed { "REGRESSION" } else { "ok" };
        println!(
            "{:<24} {:>14} -> {:>14}  {:>+8.1}%  {verdict}",
            d.what, d.base, d.cand, pct
        );
        if d.regressed {
            regressions += 1;
        }
    }
    if regressions == 0 {
        println!("perfdiff: no regressions beyond {threshold_pct}%");
    } else {
        println!("perfdiff: {regressions} regression(s) beyond {threshold_pct}%");
    }

    let mut requirement_failed = false;
    for name in &require_lower {
        let b = counter(&base, name)?;
        let c = counter(&cand, name)?;
        if c < b {
            println!("require-lower {name}: {c} < {b}  ok");
        } else {
            println!("require-lower {name}: {c} >= {b}  FAILED (strict improvement required)");
            requirement_failed = true;
        }
    }
    Ok(Outcome {
        regressed: regressions > 0,
        requirement_failed,
    })
}

fn main() -> ExitCode {
    let warn_only = rlpta_bench::arg_flag("warn-only");
    match run() {
        Ok(Outcome {
            requirement_failed: true,
            ..
        }) => {
            // A --require-lower miss is a hard gate: --warn-only never
            // suppresses it.
            ExitCode::from(1)
        }
        Ok(Outcome {
            regressed: false, ..
        }) => ExitCode::SUCCESS,
        Ok(_) if warn_only => {
            println!("perfdiff: --warn-only set, not failing the build");
            ExitCode::SUCCESS
        }
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfdiff: {e}");
            ExitCode::from(2)
        }
    }
}
