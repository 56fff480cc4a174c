//! Stress study beyond the paper's tables: every solver and stepping
//! controller against the pathologically hard DC suite (ring-oscillator
//! metastability, deep-saturation TTL, Darlington stages, ECL, narrow-bias
//! mirrors). Reports convergence and cost per method — the "who even
//! finishes" table that motivates continuation methods in the first place.
//!
//! `--bench-json <path>` reports the escalation-ladder column; `--profile`
//! prints the self-time tree (ladder stages included).

use rlpta_bench::{
    bench_threads, finish_run, pretrain_rl, run_adaptive, run_rl,
    run_robust_graded_batch, run_simple,
};
use rlpta_circuits::stress;
use rlpta_core::prelude::*;
use rlpta_core::{GminStepping, NewtonRaphson, SourceStepping};
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    println!("# Stress suite: convergence and NR-iteration cost per method");
    println!(
        "{:<12}{:>9}{:>9}{:>9}{:>11}{:>11}{:>9}{:>9}{:>11}",
        "Circuit", "newton", "gmin", "source", "dpta-simp", "dpta-ser", "dpta-rl", "robust",
        "health"
    );
    let rl = pretrain_rl(PtaKind::dpta(), 2022, 2);
    let mut rows = 0;
    let mut rl_wins = 0;
    let mut robust_ok = 0;
    let mut report_rows = Vec::new();
    // The robust column runs as one pooled batch, so `--threads` reaches
    // the ladder and its certification; rows are identical at any count.
    let suite = stress();
    let graded = run_robust_graded_batch(&suite, bench_threads());
    for (bench, (robust, health)) in suite.into_iter().zip(graded) {
        let cell = |r: Result<rlpta_core::Solution, rlpta_core::SolveError>| match r {
            Ok(s) => s.stats.nr_iterations.to_string(),
            Err(_) => "FAIL".into(),
        };
        let newton = cell(NewtonRaphson::default().solve(&bench.circuit));
        let gmin = cell(GminStepping::default().solve(&bench.circuit));
        let source = cell(SourceStepping::default().solve(&bench.circuit));
        let simple = run_simple(&bench, PtaKind::dpta());
        let ser = run_adaptive(&bench, PtaKind::dpta());
        let rls = run_rl(&bench, PtaKind::dpta(), &rl);
        let stat = |s: &rlpta_core::SolveStats| {
            if s.converged {
                s.nr_iterations.to_string()
            } else {
                "FAIL".into()
            }
        };
        if ser.converged && rls.converged && rls.nr_iterations < ser.nr_iterations {
            rl_wins += 1;
        }
        if robust.converged {
            robust_ok += 1;
        }
        rows += 1;
        report_rows.push((bench.name.clone(), robust));
        println!(
            "{:<12}{:>9}{:>9}{:>9}{:>11}{:>11}{:>9}{:>9}{:>11}",
            bench.name,
            newton,
            gmin,
            source,
            stat(&simple),
            stat(&ser),
            stat(&rls),
            stat(&robust),
            health
        );
    }
    println!("# RL-S beats adaptive on {rl_wins}/{rows} stress circuits");
    println!("# escalation ladder converges on {robust_ok}/{rows} stress circuits");
    finish_run("stress", "robust", "ladder", bench_threads(), &report_rows, t0);
}
