//! End-to-end reinforcement-learning stepping: the trained controller must
//! be a *functioning* controller (convergent, learning, transferable).

use rlpta::circuits::by_name;
use rlpta::core::{
    PtaConfig, PtaKind, PtaSolver, RlStepping, RlSteppingConfig, SerStepping, SimpleStepping,
};

fn pretrain(names: &[&str], seed: u64) -> RlStepping {
    let mut rl = RlStepping::new(RlSteppingConfig::new(seed));
    for _ in 0..2 {
        for name in names {
            let bench = by_name(name).unwrap();
            let mut solver = PtaSolver::with_config(PtaKind::dpta(), rl.clone(), PtaConfig::default());
            if solver.solve(&bench.circuit).is_ok() {
                rl = solver.controller_mut().clone();
            }
        }
    }
    rl
}

#[test]
fn rl_controller_solves_unseen_circuit() {
    let rl = pretrain(&["bias", "latch", "gm1"], 11);
    let bench = by_name("SCHMITT").unwrap();
    let mut solver = PtaSolver::with_config(PtaKind::dpta(), rl, PtaConfig::default());
    let sol = solver.solve(&bench.circuit).unwrap();
    assert!(sol.stats.converged);
    assert!(sol.residual_norm(&bench.circuit) < 1e-8);
}

#[test]
fn rl_experience_transfers_across_circuits() {
    let rl = pretrain(&["bias", "latch"], 5);
    let before = rl.transitions_seen();
    assert!(before > 0, "pretraining collected experience");
    // Another run adds to the same experience pool.
    let bench = by_name("gm6").unwrap();
    let mut solver = PtaSolver::with_config(PtaKind::dpta(), rl, PtaConfig::default());
    solver.solve(&bench.circuit).unwrap();
    assert!(solver.controller_mut().transitions_seen() > before);
}

#[test]
fn frozen_policy_is_deterministic() {
    let policy = pretrain(&["bias"], 3).policy();
    let bench = by_name("latch").unwrap();
    let run = || {
        let mut solver =
            PtaSolver::with_config(PtaKind::dpta(), policy.clone(), PtaConfig::default());
        solver.solve(&bench.circuit).unwrap().stats
    };
    let a = run();
    let b = run();
    assert_eq!(a.nr_iterations, b.nr_iterations);
    assert_eq!(a.pta_steps, b.pta_steps);
}

#[test]
fn pretrained_rl_beats_adaptive_on_hard_circuit() {
    // A small-corpus version of the paper's headline claim. Uses one seed
    // and one circuit; the release-mode harness runs the full comparison.
    let rl = pretrain(&["bias", "latch", "gm1", "SCHMITT", "cram"], 2022);
    let bench = by_name("slowlatch").unwrap();

    let mut adaptive = PtaSolver::with_config(PtaKind::dpta(), SerStepping::default(), PtaConfig::default());
    let a = adaptive.solve(&bench.circuit).unwrap().stats;

    let mut rl_solver = PtaSolver::with_config(PtaKind::dpta(), rl, PtaConfig::default());
    let r = rl_solver.solve(&bench.circuit).unwrap().stats;

    assert!(
        r.pta_steps < a.pta_steps,
        "RL-S steps {} !< adaptive steps {}",
        r.pta_steps,
        a.pta_steps
    );
}

#[test]
fn rl_works_with_simple_as_sanity_same_circuit() {
    // Both controllers must find the *same* operating point.
    let bench = by_name("DCOSC").unwrap();
    let mut simple = PtaSolver::with_config(PtaKind::dpta(), SimpleStepping::default(), PtaConfig::default());
    let s = simple.solve(&bench.circuit).unwrap();
    let rl_ctl = RlStepping::new(RlSteppingConfig::new(9));
    let mut rl_solver = PtaSolver::with_config(PtaKind::dpta(), rl_ctl, PtaConfig::default());
    let r = rl_solver.solve(&bench.circuit).unwrap();
    for (a, b) in s.x.iter().zip(&r.x) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }
}
