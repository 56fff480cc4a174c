//! The service job contract: a warm [`SimService::solve`] job allocates a
//! fixed number of times, whatever the size of its circuit. Nothing on the
//! path allocates once per device, per stamp, per unknown or per Newton
//! iteration:
//!
//! * keying the job is one declare pass into the service's reused key
//!   buffers, its pattern hash is read off the ordered targets without
//!   building a matrix, and the topology fold lists each device's
//!   terminals inline;
//! * the cache check and certification's plan re-verification are
//!   declare passes of the same kind, and certification takes the group's
//!   Newton plan instead of resolving its own;
//! * certification's fresh factorization sizes its factors from the
//!   matrix's entry count;
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
use rlpta_mna::Circuit;

/// The most allocations one warm `SimService::solve` job may make (the
/// count at which keying in the service's buffers and certifying through
/// the group's plan left it; keying through a fresh matrix and resolving
/// a certification plan cost 19 more). Debug builds without `faults`
/// also re-certify every point cold inside a `debug_assert`, which costs
/// 41 more.
const WARM_JOB_ALLOCATIONS: usize = if cfg!(all(debug_assertions, not(feature = "faults"))) {
    100
} else {
    59
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
