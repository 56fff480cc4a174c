//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlpta_linalg::{
    norms, CsrMatrix, DenseMatrix, LinalgError, LuOp, LuWorkspace, PatternScratch, ReplayScratch,
    SparseLu, StampSlots, SymbolicLu, Triplet,
};
use std::collections::BTreeMap;

/// A random MNA-like entry list: strong diagonal plus a few off-diagonal
/// couplings.
fn random_entries(rng: &mut StdRng, n: usize) -> Vec<(usize, usize, f64)> {
    let mut es = Vec::new();
    for i in 0..n {
        es.push((i, i, 4.0 + rng.gen::<f64>()));
        for _ in 0..2 {
            let j = rng.gen_range(0..n);
            if j != i {
                es.push((i, j, rng.gen_range(-1.0..1.0)));
            }
        }
    }
    es
}

fn csr_of(n: usize, es: &[(usize, usize, f64)]) -> CsrMatrix {
    let mut t = Triplet::new(n, n);
    for &(r, c, v) in es {
        t.push(r, c, v);
    }
    t.to_csr()
}

/// The retry policy of [`LuWorkspace::factorize`] with a fresh allocation
/// for every factorization — the oracle the persistent shell must match.
struct FreshOracle {
    symbolic: Option<SymbolicLu>,
}

impl FreshOracle {
    fn factorize(&mut self, a: &CsrMatrix) -> Result<(SparseLu, LuOp), LinalgError> {
        if let Some(sym) = &self.symbolic {
            if sym.dim() == a.rows() {
                // A new shell and scratch per replay.
                let mut lu = SparseLu::factorize(&CsrMatrix::identity(1))?;
                match sym.refactorize_into(a, &mut lu, &mut ReplayScratch::default()) {
                    Ok(()) => return Ok((lu, LuOp::Replay)),
                    Err(LinalgError::PatternChanged { .. } | LinalgError::Singular { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        let lu = SparseLu::factorize(a)?;
        self.symbolic = Some(lu.symbolic(a));
        Ok((lu, LuOp::Full))
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Strategy: a random diagonally-dominant sparse square system of size 2..=20
/// together with a right-hand side.
fn dd_system() -> impl Strategy<Value = (CsrMatrix, Vec<f64>)> {
    (2usize..=20).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0..n, 0..n, -1.0f64..1.0), 0..(3 * n));
        let rhs = proptest::collection::vec(-10.0f64..10.0, n);
        (entries, rhs).prop_map(move |(es, b)| {
            let mut t = Triplet::new(n, n);
            let mut row_sum = vec![0.0; n];
            for (r, c, v) in &es {
                if r != c {
                    t.push(*r, *c, *v);
                    row_sum[*r] += v.abs();
                }
            }
            for (i, s) in row_sum.iter().enumerate() {
                // Strict diagonal dominance guarantees nonsingularity.
                t.push(i, i, s + 1.0);
            }
            (t.to_csr(), b)
        })
    })
}

proptest! {
    #[test]
    fn sparse_lu_solves_dd_systems((a, b) in dd_system()) {
        let lu = SparseLu::factorize(&a).expect("dd matrix is nonsingular");
        let x = lu.solve(&b).expect("dims match");
        let ax = a.matvec(&x);
        let resid = norms::diff_inf_norm(&ax, &b);
        let scale = norms::inf_norm(&b).max(1.0);
        prop_assert!(resid <= 1e-8 * scale, "residual {resid}");
    }

    #[test]
    fn sparse_matches_dense_reference((a, b) in dd_system()) {
        let xs = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
        let xd = a.to_dense().lu().unwrap().solve(&b).unwrap();
        for (s, d) in xs.iter().zip(&xd) {
            prop_assert!((s - d).abs() < 1e-8, "{s} vs {d}");
        }
    }

    #[test]
    fn csr_roundtrips_through_dense((a, _b) in dd_system()) {
        let d = a.to_dense();
        let mut t = Triplet::new(d.rows(), d.cols());
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                if d[(i, j)] != 0.0 {
                    t.push(i, j, d[(i, j)]);
                }
            }
        }
        let a2 = t.to_csr();
        // Same dense content even if patterns differ on summed-to-zero slots.
        let x: Vec<f64> = (0..d.cols()).map(|k| k as f64 + 0.5).collect();
        let y1 = a.matvec(&x);
        let y2 = a2.matvec(&x);
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn transpose_is_involution((a, _b) in dd_system()) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_linearity((a, b) in dd_system(), alpha in -3.0f64..3.0) {
        let scaled: Vec<f64> = b.iter().map(|v| alpha * v).collect();
        let y1 = a.matvec(&scaled);
        let y2: Vec<f64> = a.matvec(&b).iter().map(|v| alpha * v).collect();
        for (u, v) in y1.iter().zip(&y2) {
            prop_assert!((u - v).abs() < 1e-9 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn dense_lu_det_of_triangular(v in proptest::collection::vec(0.5f64..4.0, 1..8)) {
        let n = v.len();
        let mut m = DenseMatrix::identity(n);
        for (i, d) in v.iter().enumerate() {
            m[(i, i)] = *d;
        }
        let det = m.lu().unwrap().det();
        let expect: f64 = v.iter().product();
        prop_assert!((det - expect).abs() < 1e-9 * expect.abs());
    }

    #[test]
    fn weighted_tolerance_is_reflexive(x in proptest::collection::vec(-1e6f64..1e6, 1..32)) {
        prop_assert!(norms::within_weighted_tolerance(&x, &x, 1e-3, 1e-6));
    }

    #[test]
    fn inf_norm_triangle_inequality(
        a in proptest::collection::vec(-1e3f64..1e3, 1..16),
    ) {
        let b: Vec<f64> = a.iter().map(|v| v * 0.5 - 1.0).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        prop_assert!(norms::inf_norm(&sum) <= norms::inf_norm(&a) + norms::inf_norm(&b) + 1e-9);
    }

    /// One persistent workspace (numeric shell rewritten in place, replays
    /// that fail mid-column included) solves every matrix of a random
    /// sequence bit-identically to fresh allocations under the same retry
    /// policy: value drift on one working matrix, pattern growth, pattern
    /// shrinkage, pivot decay, NaN entries, patterns seeded from elsewhere
    /// and dimension switches.
    #[test]
    fn workspace_shell_reuse_matches_fresh_allocation(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut n = rng.gen_range(2..12);
        let mut es = random_entries(&mut rng, n);
        let mut a = csr_of(n, &es);
        let base: Vec<f64> = a.values().to_vec();
        let mut ws = LuWorkspace::new();
        let mut oracle = FreshOracle { symbolic: None };
        let (mut x, mut scratch) = (Vec::new(), Vec::new());
        for _ in 0..24 {
            match rng.gen_range(0..7) {
                // Drift the values of the working matrix in place.
                0 if a.nnz() == base.len() => {
                    let s = rng.gen_range(0.5..2.0);
                    for (v, b) in a.values_mut().iter_mut().zip(&base) {
                        *v = b * s;
                    }
                }
                // Grow the pattern.
                1 => {
                    es.push((rng.gen_range(0..n), rng.gen_range(0..n), 0.5));
                    a = csr_of(n, &es);
                }
                // Shrink it: drop an off-diagonal entry.
                2 => {
                    if let Some(k) = es.iter().position(|&(r, c, _)| r != c) {
                        es.remove(k);
                    }
                    a = csr_of(n, &es);
                }
                // Decay a pivot.
                3 => {
                    let i = rng.gen_range(0..n);
                    let mut decayed = es.clone();
                    for e in decayed.iter_mut().filter(|e| e.0 == i && e.1 == i) {
                        e.2 = 1e-9;
                    }
                    a = csr_of(n, &decayed);
                }
                // Poison an entry.
                4 => {
                    let mut poisoned = a.clone();
                    let k = rng.gen_range(0..poisoned.nnz());
                    poisoned.values_mut()[k] = f64::NAN;
                    a = poisoned;
                }
                // Seed a pattern recorded elsewhere (a service cache hit):
                // a superset of the working structure with other values,
                // so the stale shell must be rebound to it and the working
                // matrix re-verified against it.
                5 => {
                    let mut wider = es.clone();
                    wider.push((rng.gen_range(0..n), rng.gen_range(0..n), 0.25));
                    for e in &mut wider {
                        e.2 *= rng.gen_range(0.5..2.0);
                    }
                    let w = csr_of(n, &wider);
                    if let Ok(lu) = SparseLu::factorize(&w) {
                        let sym = lu.symbolic(&w);
                        ws.preload(sym.clone());
                        oracle.symbolic = Some(sym);
                    }
                }
                // Switch dimension.
                _ => {
                    n = rng.gen_range(2..12);
                    es = random_entries(&mut rng, n);
                    a = csr_of(n, &es);
                }
            }
            let b: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
            let want = oracle.factorize(&a);
            let got = ws.factorize(&a);
            match (got, want) {
                (Ok(lu), Ok((fresh, op))) => {
                    x.clear();
                    x.extend_from_slice(&b);
                    lu.solve_into(&mut x, &mut scratch).unwrap();
                    prop_assert_eq!(bits(&x), bits(&fresh.solve(&b).unwrap()));
                    prop_assert_eq!(ws.last_op(), Some(op));
                    if op == LuOp::Full {
                        let cold = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
                        prop_assert_eq!(bits(&x), bits(&cold));
                    }
                }
                (Err(e), Err(f)) => {
                    prop_assert_eq!(e, f);
                    prop_assert!(ws.factorization().is_none());
                }
                (got, want) => {
                    return Err(TestCaseError::fail(format!(
                        "workspace {:?} vs oracle {:?}",
                        got.map(|_| ()),
                        want.map(|_| ())
                    )));
                }
            }
        }
    }

    /// [`StampSlots::pattern_hash_with`] gives the hash and entry count of
    /// the pattern [`StampSlots::pattern_of`] builds, bit for bit, on
    /// target lists with duplicates, empty rows (up to whole empty
    /// shapes) and pushes of every row, one scratch carried across shapes
    /// that grow and shrink.
    #[test]
    fn scratch_pattern_hash_equals_the_built_pattern(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = PatternScratch::default();
        for _ in 0..8 {
            let rows = rng.gen_range(1..20);
            let cols = rng.gen_range(1..20);
            let empty: Vec<bool> = (0..rows).map(|_| rng.gen_bool(0.3)).collect();
            let live: Vec<usize> = (0..rows).filter(|&r| !empty[r]).collect();
            let pushes = if live.is_empty() { 0 } else { rng.gen_range(0..120) };
            let mut targets: Vec<(usize, usize)> = Vec::with_capacity(pushes);
            for _ in 0..pushes {
                let target = if !targets.is_empty() && rng.gen_bool(0.3) {
                    targets[rng.gen_range(0..targets.len())]
                } else {
                    (live[rng.gen_range(0..live.len())], rng.gen_range(0..cols))
                };
                targets.push(target);
            }
            let pattern = StampSlots::pattern_of(rows, cols, &targets);
            prop_assert_eq!(
                StampSlots::pattern_hash_with(rows, cols, &targets, &mut scratch),
                (pattern.pattern_hash(), pattern.nnz())
            );
        }
    }

    /// The one ordering routine behind every push-sequence-to-CSR
    /// conversion, on stamp sequences shaped like the hard cases: many
    /// duplicates, empty rows, and one row (a supply rail) holding most
    /// pushes. A plan scatter through [`StampSlots::build`] equals
    /// [`Triplet::to_csr`] bitwise in pattern and values,
    /// [`StampSlots::pattern_of`] is the same pattern, and both equal an
    /// ordered-map oracle that sums each position in push order.
    #[test]
    fn slot_scatter_equals_triplet_conversion(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = rng.gen_range(1..24);
        let cols = rng.gen_range(1..24);
        let hot = rng.gen_range(0..rows);
        // Rows that never receive a push.
        let empty: Vec<bool> = (0..rows).map(|r| r != hot && rng.gen_bool(0.3)).collect();
        let live: Vec<usize> = (0..rows).filter(|&r| !empty[r]).collect();
        let pushes = rng.gen_range(0..200);
        let mut stamps: Vec<(usize, usize, f64)> = Vec::with_capacity(pushes);
        for _ in 0..pushes {
            let r = if rng.gen_bool(0.7) { hot } else { live[rng.gen_range(0..live.len())] };
            let c = if !stamps.is_empty() && rng.gen_bool(0.4) {
                // Revisit an earlier column of this row when there is one.
                stamps.iter().rev().find(|e| e.0 == r).map_or(rng.gen_range(0..cols), |e| e.1)
            } else {
                rng.gen_range(0..cols)
            };
            // Magnitudes far apart and signed zeros, so a wrong summation
            // order or a zero-then-add shows in the bits.
            let v = match rng.gen_range(0..4) {
                0 => -0.0,
                1 => 1e16 * rng.gen_range(-1.0..1.0),
                _ => rng.gen_range(-1.0..1.0),
            };
            stamps.push((r, c, v));
        }

        let mut t = Triplet::new(rows, cols);
        t.extend(stamps.iter().copied());
        let reference = t.to_csr();
        let targets: Vec<(usize, usize)> = stamps.iter().map(|&(r, c, _)| (r, c)).collect();
        let (mut planned, slots) = StampSlots::build(rows, cols, &targets);
        let mut w = slots.writer(&mut planned);
        for &(_, _, v) in &stamps {
            w.write(v);
        }
        prop_assert!(w.finish());
        prop_assert!(reference.same_pattern(&planned));
        prop_assert_eq!(bits(reference.values()), bits(planned.values()));
        let pattern = StampSlots::pattern_of(rows, cols, &targets);
        prop_assert!(reference.same_pattern(&pattern));
        prop_assert_eq!(pattern.pattern_hash(), reference.pattern_hash());

        let mut oracle: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for &(r, c, v) in &stamps {
            oracle.entry((r, c)).and_modify(|s| *s += v).or_insert(v);
        }
        let got: Vec<(usize, usize, u64)> =
            reference.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect();
        let want: Vec<(usize, usize, u64)> =
            oracle.into_iter().map(|((r, c), v)| (r, c, v.to_bits())).collect();
        prop_assert_eq!(got, want);
    }
}
