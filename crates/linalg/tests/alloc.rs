//! The linear-algebra hot-path contract: once a [`LuWorkspace`] has
//! recorded its pattern and its numeric shell, every further
//! [`LuWorkspace::factorize`] replay plus an in-place
//! [`SparseLu::solve_into`] on reused buffers performs **zero** heap
//! allocations — the replay rewrites the shell's values, the dense replay
//! workspace and the solve scratch are reused, and the structure check is a
//! generation compare.
//!
//! One test only: the counting allocator is process-global, so a second
//! concurrently running test would pollute the count.

use rlpta_linalg::{LuOp, LuWorkspace, SparseLu, Triplet};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn replay_and_solve_into_allocate_nothing_in_steady_state() {
    // An MNA-shaped 40×40 system: strong diagonal, a ring of couplings and
    // a few long-range entries, so the factors carry fill-in.
    let n = 40;
    let mut t = Triplet::new(n, n);
    for i in 0..n {
        t.push(i, i, 4.0 + i as f64 * 0.01);
        t.push(i, (i + 1) % n, -1.0);
        t.push((i + 1) % n, i, -1.0);
        if i % 7 == 0 {
            t.push(i, (i * 3 + 5) % n, 0.5);
        }
    }
    let mut a = t.to_csr();
    let base: Vec<f64> = a.values().to_vec();
    let rhs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let mut ws = LuWorkspace::new();
    let mut x = rhs.clone();
    let mut scratch = Vec::new();

    // Warm-up: the full factorization records the pattern, the first
    // replay and solve size the scratch buffers.
    for _ in 0..2 {
        x.copy_from_slice(&rhs);
        ws.factorize(&a)
            .unwrap()
            .solve_into(&mut x, &mut scratch)
            .unwrap();
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    let mut checksum = 0.0;
    for step in 0..100 {
        // Newton-like value drift on the frozen pattern.
        let scale = 1.0 + 0.001 * step as f64;
        for (v, b) in a.values_mut().iter_mut().zip(&base) {
            *v = b * scale;
        }
        x.copy_from_slice(&rhs);
        let lu = ws.factorize(&a).unwrap();
        lu.solve_into(&mut x, &mut scratch).unwrap();
        checksum += x[0];
        assert_eq!(ws.last_op(), Some(LuOp::Replay));
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "steady-state replays and in-place solves must not allocate"
    );
    assert_eq!(ws.stats().full_factorizations, 1);
    assert_eq!(ws.stats().refactorizations, 101);

    // The last in-place answer is the allocating path's, bit for bit.
    let fresh = SparseLu::factorize(&a).unwrap().solve(&rhs).unwrap();
    assert_eq!(x, fresh);
    assert!(checksum.is_finite());
}
