//! The declare-pass contract: once a [`DeclareScratch`] has grown to a
//! circuit, a declare pass, a [`StampPlan::verify_with`] re-verification
//! and a [`StampPlan::eval_into`] evaluation allocate nothing — the
//! per-call plan check certification runs before every assembly costs no
//! heap traffic. Circuits of another structure fail the check, still
//! without allocating: one of another dimension, and one of the same
//! dimension whose declare pass differs.
//!
//! The counting allocator counts the measuring thread only
//! (`tests/support/counting_alloc.rs`).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

use rlpta_devices::{Diode, DiodeModel, EvalCtx, Node, Resistor, Vsource};
use rlpta_mna::{Circuit, CircuitBuilder, DeclareScratch, StampPlan};

/// An `n`-stage resistor ladder with a diode clamp on every node; with
/// `rewired`, the first resistor skips a node (same dimension and state,
/// another pattern).
fn ladder(n: usize, rewired: bool) -> Circuit {
    let mut b = CircuitBuilder::new("ladder");
    let nodes: Vec<Node> = (0..=n).map(|i| b.node(&format!("n{i}"))).collect();
    b.add(Vsource::new("V1", nodes[0], Node::GROUND, 5.0));
    for i in 0..n {
        let to = if rewired && i == 0 { 2 } else { i + 1 };
        b.add(Resistor::new(format!("R{i}"), nodes[i], nodes[to], 1e3));
        b.add(Diode::new(
            format!("D{i}"),
            nodes[i + 1],
            Node::GROUND,
            DiodeModel::default(),
        ));
    }
    b.build().expect("ladder builds")
}

#[test]
fn declare_verify_and_eval_allocate_nothing_in_steady_state() {
    let (small, large, rewired) = (ladder(5, false), ladder(40, false), ladder(40, true));
    assert_eq!(rewired.dim(), large.dim());
    let plan = StampPlan::resolve(&large, &mut |_| {});
    let mut scratch = DeclareScratch::default();
    assert!(plan.verify_with(&large, &mut scratch));
    let x: Vec<f64> = (0..large.dim()).map(|i| 0.1 * i as f64).collect();
    let ctx = EvalCtx::dc(&x);
    let mut matrix = plan.new_matrix();
    let mut residual = vec![0.0; large.dim()];
    let mut state = large.seeded_state(&x);
    let mut checks = (0, 0, 0);
    let count = allocations(|| {
        for _ in 0..50 {
            checks.0 += usize::from(plan.verify_with(&large, &mut scratch));
            checks.1 += usize::from(!plan.verify_with(&small, &mut scratch));
            checks.2 += usize::from(!plan.verify_with(&rewired, &mut scratch));
            assert!(!scratch.declare(&large).is_empty());
            plan.eval_into(
                &large,
                &ctx,
                &mut matrix,
                &mut residual,
                &mut state,
                &mut |_| {},
            );
        }
    });
    assert_eq!(
        checks,
        (50, 50, 50),
        "the plan matches its own structure only"
    );
    assert_eq!(count, 0, "steady-state declare passes must not allocate");
}
