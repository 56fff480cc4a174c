//! The Newton hot-loop contract: after a run's set-up, an iteration
//! allocates nothing — assembly scatters into the persistent CSR buffer,
//! the LU replay rewrites the workspace's numeric shell, the step is solved
//! in place and the iterate vectors rotate through the Newton workspace.
//! So one [`DcEngine::solve_warm`] call allocates the same number of times
//! whether Newton needs two iterations or many.
//!
//! The counting allocator counts the measuring thread only
//! (`tests/support/counting_alloc.rs`).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

use rlpta_core::prelude::*;
use rlpta_linalg::LuWorkspace;

/// Allocations and Newton iterations of one warm solve.
fn counted_solve(
    engine: &DcEngine,
    circuit: &rlpta_mna::Circuit,
    warm: &[f64],
    ws: &mut LuWorkspace,
) -> (usize, usize) {
    let mut iterations = 0;
    let allocs = allocations(|| {
        let sol = engine
            .solve_warm(circuit, Some(warm), ws)
            .expect("warm solve converges");
        iterations = sol.stats.nr_iterations;
    });
    (allocs, iterations)
}

#[test]
fn solve_warm_allocations_do_not_grow_with_iterations() {
    let circuit = rlpta_netlist::parse(
        "clamp\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\nD2 out 0 DX\n.model DX D(IS=1e-14)\n",
    )
    .expect("deck parses");
    let engine = DcEngine::builder().newton().build();
    let mut ws = LuWorkspace::new();
    let op = engine
        .solve_warm(&circuit, None, &mut ws)
        .expect("cold solve converges")
        .x;
    // A start far from the operating point: the diode limiter walks down
    // over several iterations.
    let far: Vec<f64> = op.iter().map(|v| v + 3.0).collect();

    // Warm-up: both paths once, so lazily initialized state is in place.
    counted_solve(&engine, &circuit, &op, &mut ws);
    counted_solve(&engine, &circuit, &far, &mut ws);

    let (near_allocs, near_iters) = counted_solve(&engine, &circuit, &op, &mut ws);
    let (far_allocs, far_iters) = counted_solve(&engine, &circuit, &far, &mut ws);
    assert!(near_iters <= 2, "warm start took {near_iters} iterations");
    assert!(far_iters >= 6, "far start took only {far_iters} iterations");
    assert_eq!(
        near_allocs, far_allocs,
        "{near_iters} vs {far_iters} Newton iterations allocated differently"
    );
}

/// An `n`-stage resistor ladder with a diode clamp on every node.
fn diode_ladder(n: usize) -> rlpta_mna::Circuit {
    let mut deck = "ladder\nV1 n0 0 5\n".to_string();
    for i in 0..n {
        deck += &format!("R{i} n{i} n{} 1k\nD{i} n{} 0 DX\n", i + 1, i + 1);
    }
    deck += "RL n0 0 10k\n.model DX D(IS=1e-14)\n";
    rlpta_netlist::parse(&deck).expect("ladder parses")
}

/// Allocations and attempted time points of one DPTA + SER solve whose
/// step grows by at most `max_growth` per accepted point.
fn counted_pta(circuit: &rlpta_mna::Circuit, max_growth: f64) -> (usize, usize) {
    use rlpta_core::{PtaSolver, SerStepping};
    let ser = SerStepping::new(1e-3, 1.0, max_growth, 8.0);
    let mut solver = PtaSolver::with_config(PtaKind::dpta(), ser, PtaConfig::default());
    let mut steps = 0;
    let allocs = allocations(|| {
        let sol = solver.solve(circuit).expect("DPTA + SER converges");
        steps = sol.stats.pta_steps + sol.stats.rejected_steps;
    });
    (allocs, steps)
}

/// A PTA time point allocates nothing: the inner Newton run builds its
/// iterate in the buffer of the previous time point, which the solver
/// hands back to the workspace. So on a 5-stage and on a 20-stage diode
/// ladder, a DPTA + SER solve allocates as often when a slower step
/// growth makes it take many more time points.
#[test]
fn pta_time_points_allocate_nothing() {
    for stages in [5, 20] {
        let ladder = diode_ladder(stages);
        let (fast_allocs, fast_steps) = counted_pta(&ladder, 10.0);
        let (slow_allocs, slow_steps) = counted_pta(&ladder, 1.5);
        assert!(
            slow_steps > fast_steps + 20,
            "{stages} stages: {slow_steps} vs {fast_steps} time points"
        );
        assert_eq!(
            fast_allocs, slow_allocs,
            "{stages} stages: {fast_steps} vs {slow_steps} time points allocated differently"
        );
    }
}
