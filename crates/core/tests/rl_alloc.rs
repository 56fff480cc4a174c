//! The RL-S controller's allocation contract. Its replay buffers keep
//! transitions as one contiguous slab per field, so cloning a controller
//! (once per circuit when a pretrained policy adapts online) allocates the
//! same number of times however many transitions it holds. And a warm,
//! unfrozen controller whose slabs have stopped growing steps, records and
//! trains without allocating at all.
//!
//! The counting allocator counts the measuring thread only
//! (`tests/support/counting_alloc.rs`).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

use rlpta_core::{RlStepping, RlSteppingConfig, StepController, StepObservation};

/// A controller with small networks (the allocation pattern does not
/// depend on their width), so thousands of train steps stay quick in a
/// debug build.
fn small_config(capacity: usize) -> RlSteppingConfig {
    let mut cfg = RlSteppingConfig::new(11);
    cfg.td3.hidden = vec![8];
    cfg.batch_size = 4;
    cfg.private_capacity = capacity;
    cfg.public_capacity = capacity;
    cfg
}

/// The `i`-th observation of a run that alternates accepted and rejected
/// steps, so both agents act and every step flips the NR flag into the
/// public buffer.
fn observation(i: usize, h: f64) -> StepObservation {
    StepObservation {
        nr_iterations: 2 + i % 9,
        nr_converged: i.is_multiple_of(2),
        residual: 1e-3 / (1 + i % 5) as f64,
        gamma: i.is_multiple_of(2).then_some(1e-2),
        pta_converged: false,
        step: h,
        time: 0.0,
    }
}

/// Steps `rl` until it has recorded `transitions` transitions.
fn drive(rl: &mut RlStepping, transitions: usize) {
    let mut h = rl.initial_step();
    let mut i = 0;
    while rl.transitions_seen() < transitions {
        h = rl.next_step(&observation(i, h));
        i += 1;
    }
}

fn clone_allocations(rl: &RlStepping) -> usize {
    let mut copy = None;
    let allocs = allocations(|| copy = Some(rl.clone()));
    drop(copy);
    allocs
}

#[test]
fn clone_is_o1_and_warm_stepping_allocates_nothing() {
    // Clone cost does not grow with the stored transitions.
    let mut few = RlStepping::new(small_config(4096));
    drive(&mut few, 10);
    let mut many = RlStepping::new(small_config(4096));
    drive(&mut many, 2000);
    assert!(many.public_buffer_len() > 0 && few.public_buffer_len() > 0);
    let (at_10, at_2000) = (clone_allocations(&few), clone_allocations(&many));
    assert_eq!(
        at_10, at_2000,
        "clone allocated {at_10} times at 10 transitions, {at_2000} at 2000"
    );

    // A warm controller whose buffers are full (new transitions overwrite
    // the oldest, so the slabs stop growing) allocates nothing per step,
    // training included.
    let mut warm = RlStepping::new(small_config(64));
    drive(&mut warm, 200);
    let mut h = warm.initial_step();
    let allocs = allocations(|| {
        for i in 0..300 {
            h = warm.next_step(&observation(i, h));
        }
    });
    assert_eq!(
        allocs, 0,
        "300 warm next_step calls allocated {allocs} time(s)"
    );
    assert!(warm.transitions_seen() >= 499, "the counted steps recorded");
}
