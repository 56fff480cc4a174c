//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlpta_linalg::{
    norms, CsrMatrix, DenseMatrix, FnvHasher, LinalgError, LuOp, LuWorkspace, PatternScratch,
    ReplayScratch, SparseLu, StampSlots, SymbolicLu, Triplet,
};
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// The pattern a new workspace records from `a`, if `a` factorizes.
fn recorded(a: &CsrMatrix) -> Option<Arc<SymbolicLu>> {
    let mut ws = LuWorkspace::new();
    ws.factorize(a).ok()?;
    ws.shared_symbolic().cloned()
}

/// The retry policy of [`LuWorkspace::factorize`] with a fresh allocation
/// for every factorization — the oracle the persistent shell must match.
struct FreshOracle {
    symbolic: Option<Arc<SymbolicLu>>,
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
        self.symbolic = recorded(a);
        Ok((lu, LuOp::Full))
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// An MNA-shaped entry list: `k` nodes with small shunts and conductance
/// stamps, and `m` voltage-source branches whose rows and columns carry
/// exact `±1` incidence entries and no diagonal, so pivots tie.
fn mna_entries(rng: &mut StdRng, k: usize, m: usize) -> Vec<(usize, usize, f64)> {
    let mut es = Vec::new();
    for i in 0..k {
        es.push((i, i, 1e-3 * rng.gen_range(0.5..2.0)));
        let j = rng.gen_range(0..k);
        if j != i {
            let g: f64 = rng.gen_range(0.1..10.0);
            es.extend([(i, i, g), (j, j, g), (i, j, -g), (j, i, -g)]);
        }
    }
    for b in 0..m {
        let (row, i, j) = (k + b, rng.gen_range(0..k), rng.gen_range(0..k));
        es.extend([(i, row, 1.0), (row, i, 1.0)]);
        if j != i {
            es.extend([(j, row, -1.0), (row, j, -1.0)]);
        }
    }
    es
}

/// What a caller can observe of a factorization, as bits: its dimension,
/// fill, pivot growth and the solutions of two right-hand sides.
fn observed(lu: &SparseLu) -> Vec<u64> {
    let n = lu.dim();
    let mut out = vec![n as u64, lu.nnz() as u64, lu.pivot_growth().to_bits()];
    for b in [
        (0..n).map(|i| 1.0 + i as f64).collect::<Vec<_>>(),
        (0..n).map(|i| (i as f64).sin()).collect(),
    ] {
        out.extend(bits(&lu.solve(&b).unwrap()));
    }
    out
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
                // A new workspace seeded with a pattern recorded elsewhere
                // (a service cache hit): a superset of the working
                // structure with other values, so the working matrix must
                // be re-verified against it.
                5 => {
                    let mut wider = es.clone();
                    wider.push((rng.gen_range(0..n), rng.gen_range(0..n), 0.25));
                    for e in &mut wider {
                        e.2 *= rng.gen_range(0.5..2.0);
                    }
                    if let Some(sym) = recorded(&csr_of(n, &wider)) {
                        ws = LuWorkspace::with_symbolic(Arc::clone(&sym));
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

    /// One workspace serves a Newton chain's guarded calls and, in
    /// between, certification's fresh-equivalent ones, on matrices of one
    /// MNA structure: value jitter (mostly a converging chain's, now and
    /// then a far point's; rewritten in place or rebuilt), decayed
    /// diagonals and poisoned entries. Half the fresh calls, the first one
    /// always, certify the matrix the latest guarded call factorized.
    /// Every fresh call returns bitwise what
    /// [`SparseLu::factorize`] returns, or fails as it does, and keeps the
    /// recorded pattern (`Arc::ptr_eq`). Every guarded call returns, and
    /// records or keeps its pattern, exactly as on a twin workspace that
    /// never saw a fresh call. Under the `faults` feature the same armed
    /// plan fails the same calls of the workspace and of the twin with a
    /// plain factorization in each fresh call's place: each fresh call
    /// takes exactly one draw. (A pattern the guarded calls re-recorded at
    /// a far point often fails the fresh rule at the near ones, so only the
    /// first fresh call is sure to replay, when no fault fires.)
    #[test]
    fn fresh_and_guarded_calls_share_one_workspace_bitwise(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (k, m) = (rng.gen_range(2..9), rng.gen_range(0..3));
        let n = k + m;
        let es = mna_entries(&mut rng, k, m);
        let mut a = csr_of(n, &es);
        // `(matrix, fresh)` per call; the chain opens with a clean guarded
        // call.
        let mut calls: Vec<(CsrMatrix, bool)> = Vec::new();
        let mut newton = 0;
        for i in 0..32 {
            let fresh = i == 1 || (i > 0 && rng.gen_bool(0.5));
            if fresh && (i == 1 || rng.gen_bool(0.5)) {
                calls.push((calls[newton].0.clone(), true));
                continue;
            }
            let spread = if rng.gen_bool(0.7) { 1e-9 } else { 1e-2 };
            let mut next: Vec<(usize, usize, f64)> = es
                .iter()
                .map(|&(r, c, v)| {
                    // The `±1` incidence entries keep their ties.
                    let scale = if v.abs() == 1.0 {
                        1.0
                    } else {
                        1.0 + spread * rng.gen_range(-1.0..1.0)
                    };
                    (r, c, v * scale)
                })
                .collect();
            match rng.gen_range(0..10) {
                // Decay a diagonal by decades.
                0 if i > 0 => {
                    let d = rng.gen_range(0..k);
                    for e in next.iter_mut().filter(|e| e.0 == d && e.1 == d) {
                        e.2 *= 1e-6;
                    }
                }
                // Poison one stamp.
                1 if i > 0 => {
                    let s = rng.gen_range(0..next.len());
                    next[s].2 = if rng.gen() { f64::NAN } else { f64::INFINITY };
                }
                _ => {}
            }
            let b = csr_of(n, &next);
            if rng.gen_bool(0.8) {
                // Rewritten in place: the structure generation survives.
                a.values_mut().copy_from_slice(b.values());
            } else {
                a = b;
            }
            if !fresh {
                newton = calls.len();
            }
            calls.push((a.clone(), fresh));
        }
        prop_assume!(SparseLu::factorize(&calls[0].0).is_ok());
        // Whether a call left the workspace's pattern handle where it was.
        let kept = |before: Option<Arc<SymbolicLu>>, after: Option<&Arc<SymbolicLu>>| {
            match (before, after) {
                (Some(b), Some(a)) => Arc::ptr_eq(&b, a),
                (b, a) => b.is_none() && a.is_none(),
            }
        };
        #[cfg(feature = "faults")]
        let arm = || rlpta_linalg::faults::arm_singular(seed, 3);
        #[cfg(not(feature = "faults"))]
        let arm = || {};
        arm();
        let mut ws = LuWorkspace::new();
        let got: Vec<_> = calls
            .iter()
            .map(|(a, fresh)| {
                let before = ws.shared_symbolic().cloned();
                let out = if *fresh {
                    ws.factorize_fresh(a).map(observed)
                } else {
                    ws.factorize(a).map(observed)
                };
                let op = if *fresh || out.is_err() { None } else { ws.last_op() };
                (out, op, kept(before, ws.shared_symbolic()))
            })
            .collect();
        arm();
        let mut twin = LuWorkspace::new();
        let want: Vec<_> = calls
            .iter()
            .map(|(a, fresh)| {
                let before = twin.shared_symbolic().cloned();
                let out = if *fresh {
                    SparseLu::factorize(a).map(|lu| observed(&lu))
                } else {
                    twin.factorize(a).map(observed)
                };
                let op = if *fresh || out.is_err() { None } else { twin.last_op() };
                (out, op, kept(before, twin.shared_symbolic()))
            })
            .collect();
        #[cfg(feature = "faults")]
        rlpta_linalg::faults::disarm();
        prop_assert_eq!(got, want);
        let fresh_replays = ws.stats().refactorizations - twin.stats().refactorizations;
        prop_assert!(
            fresh_replays > 0 || cfg!(feature = "faults"),
            "no fresh replay: {:?}",
            ws.stats()
        );
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

/// FNV-1a over the eight little-endian bytes of each word, one byte at a
/// time: the definition [`FnvHasher::write_u64`] must equal bit for bit.
fn fnv1a_bytes(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fnv_words(words: &[u64]) -> u64 {
    let mut h = FnvHasher::new();
    for &w in words {
        h.write_u64(w);
    }
    h.finish()
}

/// Every byte-length boundary (`0`, `0xff`, `0x100`, …, `u64::MAX`),
/// alone and after a prefix word, folds like the byte loop.
#[test]
fn fnv_word_fold_equals_the_byte_loop_at_every_byte_length() {
    let mut boundaries = vec![0u64, u64::MAX];
    for bytes in 1..8 {
        let top = 1u64 << (8 * bytes);
        boundaries.extend([top - 1, top, top + 1]);
    }
    for &v in &boundaries {
        assert_eq!(fnv_words(&[v]), fnv1a_bytes(&[v]), "{v:#x}");
        for &prefix in &boundaries {
            assert_eq!(
                fnv_words(&[prefix, v]),
                fnv1a_bytes(&[prefix, v]),
                "{prefix:#x}, {v:#x}"
            );
        }
    }
}

proptest! {
    /// Arbitrary words, shifted so every byte length is drawn, fold like
    /// the byte loop from an arbitrary running hash.
    #[test]
    fn fnv_word_fold_equals_the_byte_loop(
        prefix in any::<u64>(), v in any::<u64>(), shift in 0u32..64,
    ) {
        let words = [prefix, v >> shift, v];
        prop_assert_eq!(fnv_words(&words), fnv1a_bytes(&words));
    }
}
