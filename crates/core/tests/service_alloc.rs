//! The service job contract: a warm [`SimService::solve`] job allocates a
//! fixed number of times, whatever the size of its circuit. Nothing on the
//! path allocates once per device, per stamp, per unknown or per Newton
//! iteration:
//!
//! * keying the job is one value-free declare pass into the service's
//!   reused key buffers and, for a structure keyed recently, one exact
//!   comparison against the key memo, which allocates nothing; a memo miss
//!   reads the pattern hash off the ordered targets without building a
//!   matrix;
//! * the cache check and certification's plan re-verification are
//!   declare passes of the same kind, and certification runs in the
//!   group's own Newton workspace: it takes the Newton run's converged
//!   check in place (or scatters through the plan, the working matrix,
//!   the residual and the start buffers the chain already holds), and
//!   keeps only its condition-estimate and declare scratches apart;
//! * certification factorizes in the group's own LU workspace, replaying
//!   the pattern the Newton LU holds (the cached one on a hit) into the
//!   numeric shell the Newton replays rewrite, so it runs no full
//!   factorization, records no pattern and sizes no shell of its own;
//! * `solve` runs the job over the caller's circuit, not a copy of it.
//!
//! So a 40-stage ladder's warm job allocates exactly as often as a 5-stage
//! one's, and that count has a ceiling, [`WARM_JOB_ALLOCATIONS`].
//!
//! The counting allocator counts the measuring thread only
//! (`tests/support/counting_alloc.rs`).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

use rlpta_core::prelude::*;
use rlpta_core::KeyScratch;
use rlpta_mna::Circuit;

/// The most allocations one warm `SimService::solve` job may make: the
/// measured count. Debug builds without `faults` also re-certify every
/// point cold inside a `debug_assert`, which costs 39 more.
const WARM_JOB_ALLOCATIONS: usize = if cfg!(all(debug_assertions, not(feature = "faults"))) {
    71
} else {
    32
};

/// An `n`-stage resistor ladder with a diode clamp on every node.
fn ladder(n: usize) -> Circuit {
    let mut deck = "ladder\nV1 n0 0 5\n".to_string();
    for i in 0..n {
        deck += &format!("R{i} n{i} n{} 1k\nD{i} n{} 0 DX\n", i + 1, i + 1);
    }
    deck += "RL n0 0 10k\n.model DX D(IS=1e-14)\n";
    rlpta_netlist::parse(&deck).expect("ladder parses")
}

/// Allocations and Newton iterations of one warm service job.
fn counted_job(service: &mut SimService, circuit: &Circuit) -> (usize, usize) {
    let mut iterations = 0;
    let allocs = allocations(|| {
        let sol = service
            .solve(circuit, JobTicket::default())
            .expect("warm job solves");
        iterations = sol.stats.nr_iterations;
    });
    (allocs, iterations)
}

#[test]
fn warm_service_job_allocations_do_not_grow_with_the_circuit() {
    let (small, large) = (ladder(5), ladder(40));
    let mut service = SimService::builder(DcEngine::builder().build()).build();
    // Cold jobs, then one warm job each, so both structures are cached
    // with a warm start and lazily initialized state is in place.
    for _ in 0..2 {
        counted_job(&mut service, &small);
        counted_job(&mut service, &large);
    }
    let (small_allocs, small_iters) = counted_job(&mut service, &small);
    let (large_allocs, large_iters) = counted_job(&mut service, &large);
    assert_eq!(service.cache_stats().misses, 2, "every later job hit");
    assert_eq!(
        small_allocs, large_allocs,
        "5 vs 40 stages ({small_iters} vs {large_iters} Newton iterations)"
    );
    assert!(
        small_allocs <= WARM_JOB_ALLOCATIONS,
        "a warm job allocated {small_allocs} times, over the ceiling of {WARM_JOB_ALLOCATIONS}"
    );
}

/// Keying a structure the memo remembers allocates nothing, for the
/// circuit it was keyed from and for a copy with new values, at either
/// end of the memo's recency order.
#[test]
fn keying_a_memo_hit_allocates_nothing() {
    let (small, large) = (ladder(5), ladder(40));
    let mut retuned = small.clone();
    assert!(retuned.set_source_dc("V1", 3.3));
    let mut scratch = KeyScratch::default();
    let small_key = StructureKey::of_in(&small, &mut scratch);
    let large_key = StructureKey::of_in(&large, &mut scratch);
    for (circuit, want) in [
        (&small, small_key),
        (&retuned, small_key),
        (&large, large_key),
        (&small, small_key),
    ] {
        let mut key = None;
        let allocs = allocations(|| key = Some(StructureKey::of_in(circuit, &mut scratch)));
        assert_eq!(key, Some(want));
        assert_eq!(allocs, 0, "a memo hit allocated");
    }
}
