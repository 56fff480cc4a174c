//! Regenerates **Table 3**: simulation efficiency comparison between the
//! proposed RL-S and adaptive stepping for **DPTA** on 33 circuits —
//! NR iterations (`#Ite`), pseudo steps (`#Ste`), iteration speedup and
//! step-count reduction, with the paper's Average row. The `LU f/r`
//! columns split each run's LU work into full factorizations and
//! symbolic-replay refactorizations. The `# wall:` lines give each
//! stepping column's wall time and RL-S's wall-clock speed-up (RL-S pays
//! for its online training there, which NR iterations do not show).
//!
//! Pass `--trace-jsonl <path>` to stream the run's telemetry events to a
//! line-JSON file, `--bench-json <path>` for a machine-readable report,
//! `--profile` for the self-time tree.

use rlpta_bench::{
    bench_threads, finish_run, ite_cell, lu_cell, pretrain_rl, run_adaptive_batch, run_rl_batch,
    speedup, ste_cell, step_reduction,
};
use rlpta_circuits::table3;
use rlpta_core::prelude::*;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let kind = PtaKind::dpta();
    let threads = bench_threads();
    println!("# Table 3 — RL-S vs adaptive stepping for DPTA");
    println!("# evaluation pool: {threads} thread(s)");
    println!("# RL kernel build: {}", rlpta_rl::kernel::build_name());
    let rl = pretrain_rl(kind, 2022, 2);
    println!(
        "# RL-S pretrained on the training corpus ({} transitions)",
        rl.transitions_seen()
    );
    println!(
        "{:<14}{:>10}{:>8}{:>10}{:>8}{:>12}{:>10}{:>12}{:>12}",
        "Circuits",
        "Ada#Ite",
        "Ada#Ste",
        "RL#Ite",
        "RL#Ste",
        "Speed(#Ite)",
        "Red(#Ste)",
        "AdaLU f/r",
        "RL-LU f/r"
    );

    let benches = table3();
    let start = Instant::now();
    let adaptive = run_adaptive_batch(&benches, kind, threads);
    let wall_adaptive = start.elapsed();
    let start = Instant::now();
    let rls = run_rl_batch(&benches, kind, &rl, threads);
    let wall_rls = start.elapsed();

    let mut ratios = Vec::new();
    let mut reductions = Vec::new();
    for ((bench, a), r) in benches.iter().zip(&adaptive).zip(&rls) {
        let sp = speedup(a, r);
        let red = step_reduction(a, r);
        if a.converged && r.converged {
            ratios.push(a.nr_iterations as f64 / r.nr_iterations as f64);
            reductions.push(100.0 * (1.0 - r.pta_steps as f64 / a.pta_steps as f64));
        }
        println!(
            "{:<14}{:>10}{:>8}{:>10}{:>8}{:>12}{:>10}{:>12}{:>12}",
            bench.name,
            ite_cell(a),
            ste_cell(a),
            ite_cell(r),
            ste_cell(r),
            sp,
            red,
            lu_cell(a),
            lu_cell(r)
        );
    }
    if !ratios.is_empty() {
        let avg_sp = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max_sp = ratios.iter().cloned().fold(f64::MIN, f64::max);
        let avg_red = reductions.iter().sum::<f64>() / reductions.len() as f64;
        println!(
            "{:<14}{:>10}{:>8}{:>10}{:>8}{:>11.2}X{:>9.2}%",
            "Average", "-", "-", "-", "-", avg_sp, avg_red
        );
        println!("# paper: average 16.56X / 60.57%, max 234.23X / 99.79% (their adaptive baseline");
        println!("# degrades catastrophically on oscillation-prone circuits; see EXPERIMENTS.md)");
        println!("# measured max speedup: {max_sp:.2}X");
    }
    // Wall time per stepping column, next to the NR-iteration ratios above
    // (RL-S includes its online training).
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    println!(
        "# wall: adaptive {:.1} ms, rl-s {:.1} ms",
        ms(wall_adaptive),
        ms(wall_rls)
    );
    println!(
        "# wall: RL-S wall-clock speed-up {:.2}X vs adaptive",
        ms(wall_adaptive) / ms(wall_rls)
    );
    let rows: Vec<_> = benches
        .iter()
        .zip(&rls)
        .map(|(b, s)| (b.name.clone(), *s))
        .collect();
    finish_run("table3", "dpta", "rl-s", threads, &rows, t0);
}
