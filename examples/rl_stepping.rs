//! The paper's headline idea end-to-end: pre-train the TD3 dual-agent step
//! controller (RL-S) on a few circuits, then watch it outperform the simple
//! and adaptive baselines on a held-out bistable circuit.
//!
//! ```sh
//! cargo run --release --example rl_stepping
//! ```

use rlpta::circuits::{by_name, training_corpus};
use rlpta::core::{PtaSolver, RlStepping};
use rlpta::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let kind = PtaKind::dpta();

    // Offline phase: one controller learns across the training corpus. The
    // networks and replay buffers survive `reset()`, so experience
    // accumulates circuit over circuit (§4.1 of the paper).
    let mut rl = RlStepping::new(RlSteppingConfig::new(42));
    println!(
        "pre-training RL-S on the {}-circuit corpus…",
        training_corpus().len()
    );
    for epoch in 0..2 {
        for bench in &training_corpus() {
            let mut solver = PtaSolver::with_config(kind, rl.clone(), PtaConfig::default());
            if solver.solve(&bench.circuit).is_ok() {
                rl = solver.controller_mut().clone();
            }
        }
        println!(
            "  epoch {epoch}: {} transitions collected ({} in the public buffer)",
            rl.transitions_seen(),
            rl.public_buffer_len()
        );
    }

    // Evaluation on a held-out circuit (slowlatch: a strongly-coupled
    // bistable, one of the paper's hard rows).
    let bench = by_name("slowlatch").expect("known benchmark");
    println!("\nevaluating on `{}`:", bench.name);

    let mut simple = PtaSolver::with_config(kind, SimpleStepping::default(), PtaConfig::default());
    let s = simple.solve(&bench.circuit)?;
    let mut adaptive = PtaSolver::with_config(kind, SerStepping::default(), PtaConfig::default());
    let a = adaptive.solve(&bench.circuit)?;
    // The learner keeps learning online during the evaluation run.
    let mut rl_solver = PtaSolver::with_config(kind, rl, PtaConfig::default());
    let r = rl_solver.solve(&bench.circuit)?;

    println!(
        "  simple   : {:>4} NR iterations / {:>3} steps",
        s.stats.nr_iterations, s.stats.pta_steps
    );
    println!(
        "  adaptive : {:>4} NR iterations / {:>3} steps",
        a.stats.nr_iterations, a.stats.pta_steps
    );
    println!(
        "  RL-S     : {:>4} NR iterations / {:>3} steps",
        r.stats.nr_iterations, r.stats.pta_steps
    );
    println!(
        "  speedup vs adaptive: {:.2}X iterations, {:.1}% fewer steps",
        a.stats.nr_iterations as f64 / r.stats.nr_iterations as f64,
        100.0 * (1.0 - r.stats.pta_steps as f64 / a.stats.pta_steps as f64)
    );
    Ok(())
}
