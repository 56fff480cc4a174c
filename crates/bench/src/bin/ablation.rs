//! Ablation study for the RL-S design choices DESIGN.md calls out:
//! dual agents, the public (collaborative) sample buffer, and TD-error
//! priority sampling. Not a paper table — engineering evidence that each
//! mechanism earns its place.
//!
//! Pass `--trace-jsonl <path>` to stream the runs' telemetry events —
//! pretraining steps included — to a line-JSON file, `--bench-json <path>`
//! for a machine-readable report of the full RL-S variant, `--profile` for
//! the self-time tree.

use rlpta_bench::{bench_threads, finish_run, pretrain_rl_with, run_rl_batch};
use rlpta_circuits::table3;
use rlpta_core::prelude::*;
use std::time::Instant;

/// Pretrain a controller variant across the corpus (serial — learning is
/// carried circuit to circuit) and total its evaluation iterations over a
/// hard-circuit subset on the pooled engine. Returns the per-circuit rows
/// for report emission.
fn evaluate(
    label: &str,
    config: RlSteppingConfig,
    threads: usize,
) -> Vec<(String, rlpta_core::SolveStats)> {
    let kind = PtaKind::dpta();
    let rl = pretrain_rl_with(kind, config, 2);
    let subset = [
        "slowlatch",
        "todd3",
        "schmitfast",
        "ab_integ",
        "e1480",
        "THM5",
        "MOSMEM",
    ];
    let benches: Vec<_> = table3()
        .into_iter()
        .filter(|b| subset.contains(&b.name.as_str()))
        .collect();
    let mut total_ite = 0usize;
    let mut total_ste = 0usize;
    let mut total_lu_f = 0usize;
    let mut total_lu_r = 0usize;
    let mut failures = 0usize;
    let stats = run_rl_batch(&benches, kind, &rl, threads);
    for stats in &stats {
        if stats.converged {
            total_ite += stats.nr_iterations;
            total_ste += stats.pta_steps;
            total_lu_f += stats.lu_factorizations;
            total_lu_r += stats.lu_refactorizations;
        } else {
            failures += 1;
        }
    }
    println!(
        "{label:<28} total #Ite {total_ite:>6}  total #Ste {total_ste:>6}  \
         LU f/r {total_lu_f:>6}/{total_lu_r:<6}  failures {failures}"
    );
    benches
        .iter()
        .zip(stats)
        .map(|(b, s)| (b.name.clone(), s))
        .collect()
}

fn main() {
    let t0 = Instant::now();
    let threads = bench_threads();
    println!("# RL-S ablations on the hard-circuit subset (lower is better)");
    println!("# evaluation pool: {threads} thread(s)");
    let full_rows = evaluate("full RL-S", RlSteppingConfig::new(7), threads);
    evaluate(
        "single agent (no dual)",
        RlSteppingConfig {
            dual_agents: false,
            ..RlSteppingConfig::new(7)
        },
        threads,
    );
    evaluate(
        "uniform sampling (no prio)",
        RlSteppingConfig {
            priority_sampling: false,
            ..RlSteppingConfig::new(7)
        },
        threads,
    );
    evaluate(
        "no public buffer (cap 1)",
        RlSteppingConfig {
            public_capacity: 1,
            ..RlSteppingConfig::new(7)
        },
        threads,
    );
    evaluate(
        "no exploration noise",
        RlSteppingConfig {
            td3: rlpta_rl::Td3Config {
                exploration_noise: 0.0,
                ..rlpta_rl::Td3Config::new(5, 1)
            },
            ..RlSteppingConfig::new(7)
        },
        threads,
    );
    evaluate(
        "conservative growth (m small)",
        RlSteppingConfig {
            forward_m: 1.0 + std::f64::consts::E,
            forward_n: 0.0,
            ..RlSteppingConfig::new(7)
        },
        threads,
    );
    finish_run("ablation", "dpta", "rl-s", threads, &full_rows, t0);
}
