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
