//! The Newton hot-loop contract: after a run's set-up, an iteration
//! allocates nothing — assembly scatters into the persistent CSR buffer,
//! the LU replay rewrites the workspace's numeric shell, the step is solved
//! in place and the iterate vectors rotate through the Newton workspace.
//! So one [`DcEngine::solve_warm`] call allocates the same number of times
//! whether Newton needs two iterations or many. A certification that cannot
//! replay the chain's pattern costs a pinned number more.
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

/// What one DPTA + SER solve did: its allocations, attempted time points,
/// NR iterations and `StampWrite` spans (device evaluations).
struct PtaCount {
    allocs: usize,
    steps: usize,
    rejected: usize,
    iterations: u64,
    stamp_writes: u64,
}

/// One DPTA + SER engine solve whose step grows by at most `max_growth`
/// per accepted point, counted by a [`MetricsRegistry`] sink.
fn counted_pta(circuit: &rlpta_mna::Circuit, max_growth: f64) -> PtaCount {
    use rlpta_core::{MetricsRegistry, Phase, SerStepping};
    use std::sync::Arc;
    let registry = Arc::new(MetricsRegistry::new());
    let engine = DcEngine::builder()
        .kind(PtaKind::dpta())
        .stepping(Stepping::Ser(SerStepping::new(1e-3, 1.0, max_growth, 8.0)))
        .telemetry(registry.clone())
        .build();
    let (mut steps, mut rejected) = (0, 0);
    let allocs = allocations(|| {
        let sol = engine.solve(circuit).expect("DPTA + SER converges");
        steps = sol.stats.pta_steps + sol.stats.rejected_steps;
        rejected = sol.stats.rejected_steps;
    });
    PtaCount {
        allocs,
        steps,
        rejected,
        iterations: registry.kind_count("NrIteration"),
        stamp_writes: registry.summary(Phase::StampWrite).map_or(0, |s| s.count),
    }
}

/// A PTA time point allocates nothing: the inner Newton run builds its
/// iterate in the buffer of the previous time point, which the solver
/// hands back to the workspace, and the device half a time point's
/// convergence check leaves lives in buffers sized once per solve. So on a
/// 5-stage and on a 20-stage diode ladder, a DPTA + SER solve allocates as
/// often when a slower step growth makes it take many more time points,
/// and the counted solves reuse device evaluations (about one `StampWrite`
/// span per NR iteration, although every converged point also runs its
/// check).
#[test]
fn pta_time_points_allocate_nothing() {
    for stages in [5, 20] {
        let ladder = diode_ladder(stages);
        // Warm-up: lazily initialized state is in place before counting.
        counted_pta(&ladder, 10.0);
        let fast = counted_pta(&ladder, 10.0);
        let slow = counted_pta(&ladder, 1.5);
        assert!(
            slow.steps > fast.steps + 20,
            "{stages} stages: {} vs {} time points",
            slow.steps,
            fast.steps
        );
        assert_eq!(
            fast.allocs, slow.allocs,
            "{stages} stages: {} vs {} time points allocated differently",
            fast.steps, slow.steps
        );
        // Under fault injection every evaluation runs, so the seeded
        // draws do not move.
        if cfg!(not(feature = "faults")) {
            for run in [&fast, &slow] {
                let bound = run.iterations + 1 + run.rejected as u64;
                assert!(run.stamp_writes <= bound, "{stages} stages: no reuse ran");
            }
        }
    }
}

/// Work pin: a PTA solve evaluates its devices once per NR iteration. The
/// first iteration of a time point replays the previous point's
/// convergence check, an iteration after a failed check keeps it, and the
/// steady-state test reads its residual, so with no rejected step the
/// `StampWrite` spans (full assemblies) are the NR iterations plus one:
/// the solve's first iteration, which has no check before it. (Fault
/// injection turns the reuse off.)
#[cfg(not(feature = "faults"))]
#[test]
fn pta_stamp_writes_equal_nr_iterations() {
    for stages in [5, 20] {
        let ladder = diode_ladder(stages);
        for growth in [10.0, 1.5] {
            let run = counted_pta(&ladder, growth);
            assert_eq!(
                run.rejected, 0,
                "{stages} stages, growth {growth}: a step was rejected"
            );
            assert_eq!(
                run.stamp_writes,
                run.iterations + 1,
                "{stages} stages, growth {growth}: device evaluations vs NR iterations"
            );
        }
    }
}

/// Work pin: a warm Newton run (the service path) evaluates its devices
/// once per NR iteration plus once for the convergence check that ends
/// it; every check that fails is kept by the iteration after it instead
/// of being evaluated again. (Fault injection turns the reuse off.)
#[cfg(not(feature = "faults"))]
#[test]
fn warm_newton_stamp_writes_equal_iterations_plus_the_converged_check() {
    use rlpta_core::{MetricsRegistry, Phase};
    use std::sync::Arc;
    let circuit = rlpta_netlist::parse(
        "clamp\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\nD2 out 0 DX\n.model DX D(IS=1e-14)\n",
    )
    .expect("deck parses");
    let op = DcEngine::builder()
        .newton()
        .build()
        .solve_warm(&circuit, None, &mut LuWorkspace::new())
        .expect("cold solve converges")
        .x;
    let far: Vec<f64> = op.iter().map(|v| v + 3.0).collect();
    let registry = Arc::new(MetricsRegistry::new());
    let engine = DcEngine::builder()
        .newton()
        .telemetry(registry.clone())
        .build();
    let sol = engine
        .solve_warm(&circuit, Some(&far), &mut LuWorkspace::new())
        .expect("warm solve converges");
    let iterations = sol.stats.nr_iterations as u64;
    assert!(
        iterations >= 6,
        "far start took only {iterations} iterations"
    );
    assert_eq!(registry.kind_count("NrIteration"), iterations);
    let stamp_writes = registry.summary(Phase::StampWrite).map_or(0, |s| s.count);
    assert_eq!(
        stamp_writes,
        iterations + 1,
        "device evaluations of a {iterations}-iteration run"
    );
}

/// Cost pin of a certification that cannot replay the chain's pattern.
/// Certification factorizes in the chain's own LU and replays the pattern
/// Newton recorded only when its pivots are the ones a full factorization
/// picks; it never records a pattern of its own. Entered from a far start,
/// D10's Newton run re-records its pattern at an iterate whose pivots a
/// full factorization no longer picks at the operating point, so every
/// later warm solve of that chain factorizes its certification in full
/// (one fallback), and its Newton replay re-binds the numeric shell the
/// full factorization replaced. Entered from zeros, the same circuit's
/// certifications replay. The fallback costs a fixed number of extra
/// allocations per warm solve, [`CERTIFY_FALLBACK_ALLOCATIONS`].
#[test]
fn a_certification_that_cannot_replay_costs_one_full_factorization() {
    let circuit = rlpta_circuits::by_name("D10").expect("known").circuit;
    let engine = DcEngine::builder().build();
    let op = engine.solve(&circuit).expect("operating point").x;
    let far: Vec<f64> = op
        .iter()
        .enumerate()
        .map(|(k, v)| if k % 2 == 0 { 2.0 * v } else { *v })
        .collect();
    let zeros = vec![0.0; op.len()];
    // Warm solves of a chain entered from `start`: their allocations and
    // LU work (full factorizations, replays, fallbacks), which the
    // workspace counts for Newton and certification alike.
    let chain = |start: &[f64]| {
        let mut ws = LuWorkspace::new();
        let x = engine
            .solve_warm(&circuit, Some(start), &mut ws)
            .expect("entry solve converges")
            .x;
        counted_solve(&engine, &circuit, &x, &mut ws);
        let before = ws.stats();
        let (allocs, iterations) = counted_solve(&engine, &circuit, &x, &mut ws);
        let after = ws.stats();
        assert_eq!(iterations, 1, "a warm solve at its own operating point");
        let work = (
            after.full_factorizations - before.full_factorizations,
            after.refactorizations - before.refactorizations,
            after.fallbacks - before.fallbacks,
        );
        (allocs, work)
    };
    let (replaying, replay_work) = chain(&zeros);
    let (falling_back, fallback_work) = chain(&far);
    // Replaying: Newton's one iteration and certification both replay.
    assert_eq!(replay_work, (0, 2, 0));
    // Falling back: Newton replays, certification factorizes in full.
    assert_eq!(fallback_work, (1, 1, 1));
    assert_eq!(
        falling_back - replaying,
        CERTIFY_FALLBACK_ALLOCATIONS,
        "{falling_back} vs {replaying} allocations"
    );
}

/// The extra allocations of a warm solve whose certification falls back to
/// a full factorization: the factorization's own buffers and the ones the
/// Newton replay after it re-binds. The measured count; lower it when the
/// fallback stops replacing the chain's numeric shell.
const CERTIFY_FALLBACK_ALLOCATIONS: usize = 18;
