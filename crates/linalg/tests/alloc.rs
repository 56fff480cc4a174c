//! The linear-algebra hot-path contract: once a [`LuWorkspace`] has
//! recorded its pattern and its numeric shell, every further
//! [`LuWorkspace::factorize`] replay plus an in-place
//! [`SparseLu::solve_into`] on reused buffers performs **zero** heap
//! allocations — the replay rewrites the shell's values, the dense replay
//! workspace and the solve scratch are reused, and the structure check is a
//! generation compare. The same holds for the certification chain: a
//! [`StampSlots`] scatter into the plan's frozen pattern, a
//! fresh-equivalent replay and [`SparseLu::cond_estimate_with`].
//!
//! The counting allocator counts the measuring thread only
//! (`tests/support/counting_alloc.rs`).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

use rlpta_linalg::{CondScratch, CsrMatrix, LuOp, LuWorkspace, SparseLu, StampSlots, Triplet};

#[test]
fn replay_and_solve_into_allocate_nothing_in_steady_state() {
    exact_replay_and_solve_into();
    certification_chain();
}

fn exact_replay_and_solve_into() {
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

    let mut checksum = 0.0;
    let count = allocations(|| {
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
    });
    assert_eq!(
        count, 0,
        "steady-state replays and in-place solves must not allocate"
    );
    assert_eq!(ws.stats().full_factorizations, 1);
    assert_eq!(ws.stats().refactorizations, 101);

    // The last in-place answer is the allocating path's, bit for bit.
    let fresh = SparseLu::factorize(&a).unwrap().solve(&rhs).unwrap();
    assert_eq!(x, fresh);
    assert!(checksum.is_finite());
}

/// Certification's chain on a reused workspace: re-stamp the triplets,
/// convert in place, replay fresh-equivalently, estimate the condition
/// number. The MNA-shaped system has well over 170 triplet entries, so the
/// conversion cannot lean on a stable sort's small-input stack buffer, and
/// voltage-source branches with exact `±1` entries and no diagonal.
/// A certification-shaped system: `k` nodes on two rings of conductances
/// with small shunts, and `m` voltage-source branches; every stamp of a
/// device pushed separately, so positions repeat.
fn certification_stamps() -> (usize, Vec<(usize, usize, f64)>) {
    let (k, m) = (48, 4);
    let mut es: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..k {
        es.push((i, i, 1e-3));
        for j in [(i + 1) % k, (i * 7 + 3) % k] {
            if j != i {
                let g = 1.0 + (i % 5) as f64;
                es.extend([(i, i, g), (j, j, g), (i, j, -g), (j, i, -g)]);
            }
        }
    }
    for b in 0..m {
        let (row, p, q) = (k + b, b * 5, b * 5 + 2);
        es.extend([(p, row, 1.0), (row, p, 1.0), (q, row, -1.0), (row, q, -1.0)]);
    }
    assert!(es.len() > 170);
    (k + m, es)
}

/// A stamp's value at `scale`: the conductances move, the ±1 source
/// incidences do not.
fn scaled(v: f64, scale: f64) -> f64 {
    if v.abs() == 1.0 {
        v
    } else {
        v * scale
    }
}

fn certification_chain() {
    let (n, es) = certification_stamps();
    let targets: Vec<(usize, usize)> = es.iter().map(|&(r, c, _)| (r, c)).collect();
    let (mut a, slots) = StampSlots::build(n, n, &targets);
    let stamp = |a: &mut CsrMatrix, scale: f64| {
        let mut w = slots.writer(a);
        for &(_, _, v) in &es {
            w.write(scaled(v, scale));
        }
        assert!(w.finish());
    };
    let mut ws = LuWorkspace::fresh_equivalent();
    let mut cond = CondScratch::default();
    // Warm-up: a full factorization, then the pattern records on the
    // second sighting and replays from the third.
    for step in 0..3 {
        stamp(&mut a, 1.0 + 0.01 * step as f64);
        let lu = ws.factorize(&a).unwrap();
        lu.cond_estimate_with(&a, &mut cond).unwrap();
    }
    let mut last = (0.0, 0.0);
    let count = allocations(|| {
        for step in 0..100 {
            stamp(&mut a, 1.0 + 0.001 * step as f64);
            let lu = ws.factorize(&a).unwrap();
            last = (
                lu.cond_estimate_with(&a, &mut cond).unwrap(),
                lu.pivot_growth(),
            );
            assert_eq!(ws.last_op(), Some(LuOp::Replay));
        }
    });
    assert_eq!(count, 0, "the warm certification chain must not allocate");
    // And it measured what a cold factorization of the triplet oracle's
    // matrix measures, bit for bit.
    let mut t = Triplet::new(n, n);
    let last_scale = 1.0 + 0.001 * 99.0;
    t.extend(es.iter().map(|&(r, c, v)| (r, c, scaled(v, last_scale))));
    let cold = SparseLu::factorize(&t.to_csr()).unwrap();
    let cold_cond = cold.cond_estimate_with(&a, &mut CondScratch::default());
    assert_eq!(last.0.to_bits(), cold_cond.unwrap().to_bits());
    assert_eq!(last.1.to_bits(), cold.pivot_growth().to_bits());
}
