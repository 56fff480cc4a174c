//! Regenerates **Fig. 5**: speed-up of RL-S over conventional stepping
//! strategies (simple and adaptive) for **CEPTA**, on 27 circuits.
//!
//! The output prints the two bar series of the figure (RL-S vs adaptive and
//! RL-S vs simple, NR-iteration ratios) plus an ASCII rendition, then the
//! wall time of each stepping column and RL-S's wall-clock speed-up (RL-S
//! pays for its online training there, which NR iterations do not show).
//!
//! Pass `--threads N` (or set `RLPTA_THREADS`) to evaluate the corpus on a
//! worker pool; the numbers are identical at any width. Pass
//! `--trace-jsonl <path>` to stream the run's telemetry events — RL
//! training steps included — to a line-JSON file, `--bench-json <path>` for
//! a machine-readable report, `--profile` for the self-time tree.

use rlpta_bench::{
    bench_threads, finish_run, lu_cell, pretrain_rl, run_adaptive_batch, run_rl_batch,
    run_simple_batch,
};
use rlpta_circuits::fig5;
use rlpta_core::prelude::*;
use std::time::Instant;

fn bar(ratio: f64) -> String {
    let n = (ratio * 3.0).round().clamp(0.0, 18.0) as usize;
    "#".repeat(n.max(1))
}

fn main() {
    let t0 = Instant::now();
    let kind = PtaKind::cepta();
    let threads = bench_threads();
    println!("# Fig. 5 — speed-up of RL-S over conventional stepping for CEPTA");
    println!("# evaluation pool: {threads} thread(s)");
    println!("# RL kernel build: {}", rlpta_rl::kernel::build_name());
    let rl = pretrain_rl(kind, 2022, 2);
    println!(
        "# RL-S pretrained on the training corpus ({} transitions)",
        rl.transitions_seen()
    );
    println!(
        "{:<14}{:>12}{:>12}{:>12}{:>12}  {:<12}vs simple",
        "Circuit", "simple", "adaptive", "rl-s", "rl LU f/r", "vs adaptive"
    );

    let benches = fig5();
    let timed = |run: &dyn Fn() -> Vec<SolveStats>| {
        let start = Instant::now();
        (run(), start.elapsed())
    };
    let (simple, wall_simple) = timed(&|| run_simple_batch(&benches, kind, threads));
    let (adaptive, wall_adaptive) = timed(&|| run_adaptive_batch(&benches, kind, threads));
    let (rls, wall_rls) = timed(&|| run_rl_batch(&benches, kind, &rl, threads));

    let mut vs_adaptive = Vec::new();
    let mut vs_simple = Vec::new();
    for (((bench, s), a), r) in benches.iter().zip(&simple).zip(&adaptive).zip(&rls) {
        let ratio = |b: &SolveStats| {
            if b.converged && r.converged && r.nr_iterations > 0 {
                Some(b.nr_iterations as f64 / r.nr_iterations as f64)
            } else {
                None
            }
        };
        let ra = ratio(a);
        let rs = ratio(s);
        if let Some(v) = ra {
            vs_adaptive.push(v);
        }
        if let Some(v) = rs {
            vs_simple.push(v);
        }
        println!(
            "{:<14}{:>12}{:>12}{:>12}{:>12}  {:<32}{}",
            bench.name,
            if s.converged {
                s.nr_iterations.to_string()
            } else {
                "N/A".into()
            },
            if a.converged {
                a.nr_iterations.to_string()
            } else {
                "N/A".into()
            },
            if r.converged {
                r.nr_iterations.to_string()
            } else {
                "N/A".into()
            },
            lu_cell(r),
            ra.map_or("-".to_string(), |v| format!("{v:.2}X {}", bar(v))),
            rs.map_or("-".to_string(), |v| format!("{v:.2}X {}", bar(v))),
        );
    }
    let summary = |name: &str, v: &[f64], paper_max: f64| {
        if v.is_empty() {
            return;
        }
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let avg = v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "# RL-S vs {name}: avg {avg:.2}X, max {max:.2}X (paper reports up to {paper_max}X)"
        );
    };
    summary("adaptive", &vs_adaptive, 3.77);
    summary("simple", &vs_simple, 2.71);
    // Wall time per stepping column, next to the NR-iteration ratios above
    // (RL-S includes its online training).
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    println!(
        "# wall: simple {:.1} ms, adaptive {:.1} ms, rl-s {:.1} ms",
        ms(wall_simple),
        ms(wall_adaptive),
        ms(wall_rls)
    );
    println!(
        "# wall: RL-S wall-clock speed-up {:.2}X vs adaptive, {:.2}X vs simple",
        ms(wall_adaptive) / ms(wall_rls),
        ms(wall_simple) / ms(wall_rls)
    );
    let rows: Vec<_> = benches
        .iter()
        .zip(&rls)
        .map(|(b, s)| (b.name.clone(), *s))
        .collect();
    finish_run("fig5", "cepta", "rl-s", threads, &rows, t0);
}
