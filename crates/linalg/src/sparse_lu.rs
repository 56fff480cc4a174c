//! Gilbert–Peierls left-looking sparse LU with threshold partial pivoting.
//!
//! This is the linear solver behind every Newton–Raphson iteration of the
//! PTA engine. The factorization works column by column:
//!
//! 1. the nonzero pattern of `x = L⁻¹ A(:,j)` is found by a depth-first
//!    search over the graph of the partially-built `L`,
//! 2. the numeric sparse triangular solve runs in topological order,
//! 3. a pivot is chosen among the not-yet-pivoted rows using *threshold*
//!    partial pivoting (the diagonal is kept whenever it is within a factor
//!    of [`SparseLu::PIVOT_THRESHOLD`] of the column maximum, which preserves
//!    the MNA structure and keeps fill-in low).
//!
//! Complexity is proportional to the number of floating-point operations
//! actually performed (the Gilbert–Peierls bound), which is what makes
//! repeated Newton solves on large sparse circuit matrices cheap.

use crate::{CsrMatrix, LinalgError, Triplet};

const EMPTY: usize = usize::MAX;

/// `Err(DimensionMismatch)` unless `a` is square.
pub(crate) fn check_square(a: &CsrMatrix) -> Result<(), LinalgError> {
    if a.rows() == a.cols() {
        Ok(())
    } else {
        Err(LinalgError::DimensionMismatch {
            found: format!("{}x{}", a.rows(), a.cols()),
            expected: "square matrix".into(),
        })
    }
}

/// The seeded singular-pivot fault hook (a no-op without the `faults`
/// feature): consumes one injection draw and fails when it fires, so the
/// callers' recovery paths run without a genuinely defective matrix. Every
/// factorization entry point takes exactly one draw.
#[inline]
pub(crate) fn singular_fault() -> Result<(), LinalgError> {
    #[cfg(feature = "faults")]
    if crate::faults::fire_singular() {
        return Err(LinalgError::Singular {
            step: 0,
            pivot: 0.0,
        });
    }
    Ok(())
}

/// The column permutation `q` that eliminates sparse columns first
/// (ascending nonzero count), so column `q[j]` of `a` is eliminated at step
/// `j`. MNA matrices are nearly symmetric in pattern, so this cheap
/// Markowitz-style static ordering captures most of the fill-in benefit.
/// The sort is stable: equal counts keep natural order, which keeps
/// diagonals near the front.
fn ascending_count(a: &CsrMatrix) -> Vec<usize> {
    let n = a.cols();
    let mut counts = vec![0usize; n];
    for (_, c, _) in a.iter() {
        counts[c] += 1;
    }
    let mut q: Vec<usize> = (0..n).collect();
    q.sort_by_key(|&j| counts[j]);
    q
}

/// Largest absolute value in `vals`; NaN entries are ignored (`f64::max`
/// keeps the running maximum when the candidate is NaN).
fn max_abs(vals: &[f64]) -> f64 {
    vals.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
}

/// Sparse LU factorization `P·A·Q = L·U` of a square [`CsrMatrix`].
///
/// # Example
///
/// ```
/// use rlpta_linalg::{SparseLu, Triplet};
///
/// # fn main() -> Result<(), rlpta_linalg::LinalgError> {
/// let mut t = Triplet::new(3, 3);
/// for i in 0..3 {
///     t.push(i, i, 2.0);
/// }
/// t.push(0, 1, -1.0);
/// t.push(1, 0, -1.0);
/// let lu = SparseLu::factorize(&t.to_csr())?;
/// let x = lu.solve(&[1.0, 0.0, 2.0])?;
/// assert!((2.0 * x[0] - x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    pub(crate) n: usize,
    /// L stored by column (strictly below the pivot; unit diagonal implicit).
    /// Row indices are *original* row ids.
    pub(crate) l_ptr: Vec<usize>,
    pub(crate) l_rows: Vec<usize>,
    pub(crate) l_vals: Vec<f64>,
    /// U stored by column; row indices are *pivot positions* `< j`.
    pub(crate) u_ptr: Vec<usize>,
    pub(crate) u_rows: Vec<usize>,
    pub(crate) u_vals: Vec<f64>,
    /// Diagonal of U per pivot position.
    pub(crate) u_diag: Vec<f64>,
    /// `p[j]` = original row pivoted at step `j`.
    pub(crate) p: Vec<usize>,
    /// Column permutation: column `q[j]` of `A` eliminated at step `j`.
    pub(crate) q: Vec<usize>,
    /// Largest absolute entry of the matrix that was factorized (after
    /// equilibration, when active). Denominator of [`SparseLu::pivot_growth`].
    pub(crate) max_abs_a: f64,
    /// Row equilibration scales `R` when the factorization was computed on
    /// `R·A·C` instead of `A`; [`SparseLu::solve`] applies them transparently.
    pub(crate) row_scale: Option<Vec<f64>>,
    /// Column equilibration scales `C`.
    pub(crate) col_scale: Option<Vec<f64>>,
    /// Id of the [`crate::SymbolicLu`] whose pattern this factorization's
    /// index arrays currently hold, so a replay can rewrite the values in
    /// place; 0 for an unbound factorization (see
    /// [`crate::SymbolicLu::refactorize_into`]).
    pub(crate) shell_of: u64,
}

/// Outcome of iterated refinement ([`SparseLu::solve_refined`]): the
/// refined solution together with the achieved backward residual, so callers
/// (the certification layer in `rlpta-core`) can grade numerical health
/// without recomputing it.
#[derive(Debug, Clone, PartialEq)]
pub struct Refinement {
    /// The refined solution.
    pub x: Vec<f64>,
    /// Infinity norm of `b - A·x` at the returned solution.
    pub residual: f64,
    /// Refinement steps actually applied (0 when the plain solve already sat
    /// at the plateau).
    pub steps: usize,
}

/// Reusable vectors of [`SparseLu::cond_estimate_with`]. Start from
/// `default()`; the buffers size themselves on first use.
#[derive(Debug, Clone, Default)]
pub struct CondScratch {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    work: Vec<f64>,
}

impl SparseLu {
    /// Relative threshold for keeping the diagonal pivot. A diagonal entry is
    /// accepted whenever `|a_jj| >= PIVOT_THRESHOLD * max_i |a_ij|`; this is
    /// the classic SPICE compromise between stability and sparsity.
    pub const PIVOT_THRESHOLD: f64 = 0.1;

    /// Factorizes `a`, eliminating sparse columns first (ascending nonzero
    /// count, a Markowitz-style static ordering that keeps fill-in low on
    /// circuit matrices).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for a non-square matrix and
    /// [`LinalgError::Singular`] when no usable pivot exists in some column.
    pub fn factorize(a: &CsrMatrix) -> Result<Self, LinalgError> {
        check_square(a)?;
        singular_fault()?;
        Self::factorize_ranked(a, None)
    }

    /// The factorization behind [`SparseLu::factorize`], without the
    /// fault hook. When `ranks` is given it receives, per column, the
    /// pivot's rank among the column's not-yet-pivoted rows in topological
    /// order — the position the first-strict-maximum tie-break saw it at,
    /// which a [`crate::LuWorkspace::factorize_fresh`] replay re-checks.
    pub(crate) fn factorize_ranked(
        a: &CsrMatrix,
        mut ranks: Option<&mut Vec<usize>>,
    ) -> Result<Self, LinalgError> {
        check_square(a)?;
        let n = a.rows();
        if let Some(ranks) = ranks.as_deref_mut() {
            ranks.clear();
            ranks.reserve(n);
        }
        let q = ascending_count(a);
        // Column access pattern: work on Aᵀ (CSR of transpose = CSC of A).
        let at = a.transpose();

        // Each factor's off-diagonal part holds at most `nnz(A)` entries
        // plus fill-in: sized for that up front, a factorization without
        // fill allocates the same number of times at any dimension.
        let nnz = a.nnz();
        let mut lu = SparseLu {
            n,
            l_ptr: Vec::with_capacity(n + 1),
            l_rows: Vec::with_capacity(nnz),
            l_vals: Vec::with_capacity(nnz),
            u_ptr: Vec::with_capacity(n + 1),
            u_rows: Vec::with_capacity(nnz),
            u_vals: Vec::with_capacity(nnz),
            u_diag: vec![0.0; n],
            p: vec![EMPTY; n],
            q,
            max_abs_a: max_abs(a.values()),
            row_scale: None,
            col_scale: None,
            shell_of: 0,
        };
        lu.l_ptr.push(0);
        lu.u_ptr.push(0);

        // pinv[orig_row] = pivot position, or EMPTY while unpivoted.
        let mut pinv = vec![EMPTY; n];
        // Dense scatter workspace.
        let mut x = vec![0.0; n];
        // Pattern of the current column (original row ids), topological order.
        let mut topo: Vec<usize> = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        // Explicit DFS stack of (row, next-child-offset).
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);

        for j in 0..n {
            // --- symbolic: reach of A(:, q[j]) in the graph of L ---
            topo.clear();
            let (a_rows, a_vals) = at.row(lu.q[j]);
            for &r in a_rows {
                if visited[r] {
                    continue;
                }
                // Iterative DFS producing reverse-postorder into `topo`.
                stack.push((r, 0));
                visited[r] = true;
                while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                    let pos = pinv[node];
                    let descended = if pos != EMPTY {
                        let lo = lu.l_ptr[pos];
                        let hi = lu.l_ptr[pos + 1];
                        let mut found = None;
                        while lo + *child < hi {
                            let next = lu.l_rows[lo + *child];
                            *child += 1;
                            if !visited[next] {
                                found = Some(next);
                                break;
                            }
                        }
                        found
                    } else {
                        None
                    };
                    match descended {
                        Some(next) => {
                            visited[next] = true;
                            stack.push((next, 0));
                        }
                        None => {
                            stack.pop();
                            topo.push(node);
                        }
                    }
                }
            }
            // topo is in postorder; dependencies of a node appear *before*
            // it, but the triangular solve needs pivoted nodes processed in
            // increasing pivot position. Reverse-postorder gives a valid
            // topological order for the solve below.
            topo.reverse();

            // --- numeric: scatter b, sparse triangular solve ---
            for (&r, &v) in a_rows.iter().zip(a_vals) {
                x[r] = v;
            }
            for &node in &topo {
                let pos = pinv[node];
                if pos == EMPTY {
                    continue;
                }
                let xj = x[node];
                if xj != 0.0 {
                    for k in lu.l_ptr[pos]..lu.l_ptr[pos + 1] {
                        x[lu.l_rows[k]] -= lu.l_vals[k] * xj;
                    }
                }
            }

            // --- pivot selection among unpivoted rows ---
            let mut max_abs = 0.0f64;
            let mut max_row = EMPTY;
            let mut diag_abs = 0.0f64;
            let diag_row = lu.q[j];
            for &r in &topo {
                if pinv[r] == EMPTY {
                    let v = x[r].abs();
                    if v > max_abs {
                        max_abs = v;
                        max_row = r;
                    }
                    if r == diag_row {
                        diag_abs = v;
                    }
                }
            }
            if max_row == EMPTY || max_abs < f64::MIN_POSITIVE {
                // Clean up workspace before bailing out.
                for &r in &topo {
                    x[r] = 0.0;
                    visited[r] = false;
                }
                return Err(LinalgError::Singular {
                    step: j,
                    pivot: max_abs,
                });
            }
            let pivot_row = if diag_abs >= Self::PIVOT_THRESHOLD * max_abs {
                diag_row
            } else {
                max_row
            };
            let pivot = x[pivot_row];

            // --- gather into L and U, reset workspace ---
            for &r in &topo {
                visited[r] = false;
                let v = x[r];
                x[r] = 0.0;
                if r == pivot_row {
                    if let Some(ranks) = ranks.as_deref_mut() {
                        ranks.push(lu.l_rows.len() - lu.l_ptr[j]);
                    }
                    continue;
                }
                let pos = pinv[r];
                // Exact-zero entries (summed-to-zero MNA stamps, exact
                // cancellation) stay *structural*: dropping them here would
                // record a value-dependent pattern that a later
                // [`SymbolicLu::refactorize_into`] of the same structure could
                // fall outside of. The numeric loops skip zeros anyway.
                if pos != EMPTY {
                    lu.u_rows.push(pos);
                    lu.u_vals.push(v);
                } else {
                    lu.l_rows.push(r);
                    lu.l_vals.push(v / pivot);
                }
            }
            lu.u_diag[j] = pivot;
            lu.p[j] = pivot_row;
            pinv[pivot_row] = j;
            lu.l_ptr.push(lu.l_rows.len());
            lu.u_ptr.push(lu.u_rows.len());
        }
        Ok(lu)
    }

    /// Factorizes `a` after row/column equilibration: the factorization runs
    /// on `R·A·C` where `R` scales every row and `C` every column to unit
    /// infinity norm, and [`SparseLu::solve_into`] /
    /// [`SparseLu::solve_transposed_into`] undo the scaling transparently — the
    /// returned factorization still solves the *original* system.
    ///
    /// Equilibration tames pivot growth on badly scaled Jacobians (PTA
    /// pseudo-elements spread entries across many decades) at the cost of an
    /// extra `O(nnz)` pass and a scaled copy of the matrix.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::factorize`].
    pub fn factorize_equilibrated(a: &CsrMatrix) -> Result<Self, LinalgError> {
        check_square(a)?;
        let n = a.rows();
        // R: unit infinity norm per row.
        let mut row_scale = vec![1.0f64; n];
        for (r, scale) in row_scale.iter_mut().enumerate() {
            let (_, vals) = a.row(r);
            let m = max_abs(vals);
            if m.is_finite() && m > 0.0 {
                *scale = 1.0 / m;
            }
        }
        // C: unit infinity norm per column of R·A.
        let mut col_max = vec![0.0f64; n];
        for (r, c, v) in a.iter() {
            col_max[c] = col_max[c].max((row_scale[r] * v).abs());
        }
        let col_scale: Vec<f64> = col_max
            .iter()
            .map(|&m| if m.is_finite() && m > 0.0 { 1.0 / m } else { 1.0 })
            .collect();
        // Scaled copy; Triplet keeps exact zeros structural, so the scaled
        // matrix has the same pattern as `a`.
        let mut t = Triplet::with_capacity(n, n, a.nnz());
        for (r, c, v) in a.iter() {
            t.push(r, c, row_scale[r] * v * col_scale[c]);
        }
        let mut lu = Self::factorize(&t.to_csr())?;
        lu.row_scale = Some(row_scale);
        lu.col_scale = Some(col_scale);
        Ok(lu)
    }

    /// Pivot-growth factor `max|U| / max|A|` of this factorization (both
    /// maxima over the matrix actually factorized, i.e. after equilibration
    /// when active). Growth near 1 means the elimination never amplified
    /// entries; each decade of growth costs roughly a decade of attainable
    /// accuracy. Returns infinity when `U` grew out of a zero matrix and 1
    /// for an empty system.
    pub fn pivot_growth(&self) -> f64 {
        let max_u = max_abs(&self.u_vals).max(max_abs(&self.u_diag));
        if self.max_abs_a > 0.0 {
            (max_u / self.max_abs_a).max(1.0)
        } else if max_u > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }

    /// Dimension of the factorized system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries in `L` and `U` combined (including the
    /// diagonal), a fill-in diagnostic.
    pub fn nnz(&self) -> usize {
        self.l_vals.len() + self.u_vals.len() + self.n
    }

    /// An unbound, zero-dimensional factorization: the starting shell a
    /// [`crate::SymbolicLu::refactorize_into`] replay reshapes to its
    /// pattern.
    pub(crate) fn empty() -> Self {
        SparseLu {
            n: 0,
            l_ptr: Vec::new(),
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_ptr: Vec::new(),
            u_rows: Vec::new(),
            u_vals: Vec::new(),
            u_diag: Vec::new(),
            p: Vec::new(),
            q: Vec::new(),
            max_abs_a: 0.0,
            row_scale: None,
            col_scale: None,
            shell_of: 0,
        }
    }

    /// Solves `A x = b`. Allocating wrapper over [`SparseLu::solve_into`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = b.to_vec();
        self.solve_into(&mut x, &mut Vec::new())?;
        Ok(x)
    }

    /// Solves `A x = b` in place: `x` holds `b` on entry and the solution
    /// on return. `work` is scratch, resized to [`SparseLu::dim`] (so a
    /// reused buffer makes the solve allocation-free). Bit-identical to
    /// [`SparseLu::solve`].
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn solve_into(&self, x: &mut [f64], work: &mut Vec<f64>) -> Result<(), LinalgError> {
        if x.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                found: format!("rhs length {}", x.len()),
                expected: format!("length {}", self.n),
            });
        }
        // `x[orig_row]` starts as b and is progressively eliminated. Under
        // equilibration the factorization holds R·A·C, so solve
        // (R·A·C)·z = R·b and return x = C·z.
        if let Some(r) = &self.row_scale {
            for (xi, ri) in x.iter_mut().zip(r) {
                *xi *= ri;
            }
        }
        work.resize(self.n, 0.0);
        let y = &mut work[..];
        // Forward: L y = P b (unit diagonal).
        for j in 0..self.n {
            let yj = x[self.p[j]];
            y[j] = yj;
            if yj != 0.0 {
                for k in self.l_ptr[j]..self.l_ptr[j + 1] {
                    x[self.l_rows[k]] -= self.l_vals[k] * yj;
                }
            }
        }
        // Backward: U z = y, with U stored column-wise.
        for j in (0..self.n).rev() {
            let zj = y[j] / self.u_diag[j];
            y[j] = zj;
            if zj != 0.0 {
                for k in self.u_ptr[j]..self.u_ptr[j + 1] {
                    y[self.u_rows[k]] -= self.u_vals[k] * zj;
                }
            }
        }
        // Undo the column permutation: x[q[j]] = z[j] (q is a permutation,
        // so every entry of x is overwritten).
        for j in 0..self.n {
            x[self.q[j]] = y[j];
        }
        if let Some(c) = &self.col_scale {
            for (xi, ci) in x.iter_mut().zip(c) {
                *xi *= ci;
            }
        }
        Ok(())
    }

    /// Solves `Aᵀ x = b` in place: `x` holds `b` on entry and the solution
    /// on return; `work` is scratch, resized to [`SparseLu::dim`]. With
    /// `P·A·Q = L·U` this is `Uᵀ y = Qᵀ b` (forward, since `Uᵀ` is lower
    /// triangular), `Lᵀ w = y` (backward, unit diagonal), then `x = Pᵀ w`.
    /// The backward pass writes `w` straight into original-row order, so
    /// no inverse permutation is needed. The certification layer's Hager
    /// condition estimator needs exactly this `A⁻ᵀ` action.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `x.len() != self.dim()`.
    pub fn solve_transposed_into(
        &self,
        x: &mut [f64],
        work: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        if x.len() != self.n {
            return Err(LinalgError::DimensionMismatch {
                found: format!("rhs length {}", x.len()),
                expected: format!("length {}", self.n),
            });
        }
        // Under equilibration the factorization holds B = R·A·C, so
        // Bᵀ = C·Aᵀ·R: solve Bᵀ z = C·b and return x = R·z.
        work.resize(self.n, 0.0);
        let y = &mut work[..];
        for (j, yj) in y.iter_mut().enumerate() {
            let qj = self.q[j];
            *yj = match &self.col_scale {
                Some(c) => x[qj] * c[qj],
                None => x[qj],
            };
        }
        // Forward: Uᵀ y = v, in place. Row j of Uᵀ is column j of U
        // (entries above the diagonal at pivot positions < j, plus the
        // diagonal).
        for j in 0..self.n {
            let mut s = y[j];
            for k in self.u_ptr[j]..self.u_ptr[j + 1] {
                s -= self.u_vals[k] * y[self.u_rows[k]];
            }
            y[j] = s / self.u_diag[j];
        }
        // Backward: Lᵀ w = y (unit diagonal), storing w[j] at x[p[j]]. L's
        // row indices are original row ids pivoted after j, whose entries
        // of x this loop has already overwritten.
        for j in (0..self.n).rev() {
            let mut s = y[j];
            for k in self.l_ptr[j]..self.l_ptr[j + 1] {
                s -= self.l_vals[k] * x[self.l_rows[k]];
            }
            x[self.p[j]] = s;
        }
        if let Some(r) = &self.row_scale {
            for (xi, ri) in x.iter_mut().zip(r) {
                *xi *= ri;
            }
        }
        Ok(())
    }

    /// Hager-style estimate of the 1-norm condition number `κ₁(A) =
    /// ‖A‖₁·‖A⁻¹‖₁`, using a handful of [`SparseLu::solve_into`] /
    /// [`SparseLu::solve_transposed_into`] pairs to lower-bound `‖A⁻¹‖₁` —
    /// never more than five, typically two. `a` must be the matrix this
    /// factorization was computed from (pre-equilibration); its explicit
    /// 1-norm supplies the `‖A‖₁` factor. `scratch` holds the iteration
    /// vectors, so a reused one makes the estimate allocation-free.
    ///
    /// The estimate is a lower bound that is almost always within a small
    /// factor of the truth — exactly the fidelity certification grading
    /// needs (decades matter, digits do not). A non-finite `‖A‖₁` or a
    /// non-finite entry in any Hager solve yields `INFINITY`: a NaN inverse
    /// is never read as perfectly conditioned.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `a` disagrees with the
    /// factorized dimension.
    pub fn cond_estimate_with(
        &self,
        a: &CsrMatrix,
        scratch: &mut CondScratch,
    ) -> Result<f64, LinalgError> {
        if a.rows() != self.n || a.cols() != self.n {
            return Err(LinalgError::DimensionMismatch {
                found: format!("{}x{}", a.rows(), a.cols()),
                expected: format!("{n}x{n}", n = self.n),
            });
        }
        if self.n == 0 {
            return Ok(1.0);
        }
        let n = self.n;
        let CondScratch { x, y, z, work } = scratch;
        // ‖A‖₁ = max column sum of |A| (`y` holds the column sums).
        y.clear();
        y.resize(n, 0.0);
        for (_, c, v) in a.iter() {
            y[c] += v.abs();
        }
        if !y.iter().all(|s| s.is_finite()) {
            return Ok(f64::INFINITY);
        }
        let a_norm = y.iter().fold(0.0f64, |m, &s| m.max(s));

        // Hager's algorithm on A⁻¹: maximize ‖A⁻¹ x‖₁ over ‖x‖₁ = 1.
        let nf = n as f64;
        x.clear();
        x.resize(n, 1.0 / nf);
        let mut inv_norm = 0.0f64;
        let mut last_j = EMPTY;
        for _ in 0..5 {
            y.clear();
            y.extend_from_slice(x);
            self.solve_into(y, work)?;
            let y_norm: f64 = y.iter().map(|v| v.abs()).sum();
            if !y_norm.is_finite() {
                return Ok(f64::INFINITY);
            }
            inv_norm = inv_norm.max(y_norm);
            z.clear();
            z.extend(y.iter().map(|&v| if v >= 0.0 { 1.0 } else { -1.0 }));
            self.solve_transposed_into(z, work)?;
            if !z.iter().all(|v| v.is_finite()) {
                return Ok(f64::INFINITY);
            }
            let (j, z_max) = z
                .iter()
                .enumerate()
                .fold((0, 0.0f64), |(bj, bm), (i, &v)| {
                    if v.abs() > bm {
                        (i, v.abs())
                    } else {
                        (bj, bm)
                    }
                });
            let ztx: f64 = z.iter().zip(x.iter()).map(|(zi, xi)| zi * xi).sum();
            if z_max <= ztx || j == last_j {
                break;
            }
            last_j = j;
            x.iter_mut().for_each(|v| *v = 0.0);
            x[j] = 1.0;
        }
        Ok((a_norm * inv_norm).max(1.0))
    }

    /// Solves `A x = b` and iterates refinement steps until the backward
    /// residual plateaus, up to `max_steps` correction solves.
    ///
    /// Each step computes `r = b - A·x` in working precision, solves
    /// `A·dx = r` on the existing factorization and applies the correction.
    /// Iteration stops when the residual stops improving by at least 2×
    /// (the classic LAPACK `gerfs` plateau rule), reaches machine-level
    /// smallness relative to `b` and `x`, or the cap is hit; a step that
    /// *worsens* the residual is rolled back. The achieved residual is
    /// returned in [`Refinement::residual`] so the certification layer can
    /// grade the solve without re-deriving it.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes disagree with the
    /// factorized system.
    pub fn solve_refined(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        max_steps: usize,
    ) -> Result<Refinement, LinalgError> {
        if a.rows() != self.n || a.cols() != self.n {
            return Err(LinalgError::DimensionMismatch {
                found: format!("{}x{}", a.rows(), a.cols()),
                expected: format!("{n}x{n}", n = self.n),
            });
        }
        let mut x = self.solve(b)?;
        let residual_of = |x: &[f64]| -> (Vec<f64>, f64) {
            let ax = a.matvec(x);
            let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, yi)| bi - yi).collect();
            let norm = r.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            (r, norm)
        };
        let (mut r, mut rnorm) = residual_of(&x);
        // Machine-level floor: refining below eps·(‖b‖ + ‖A‖-ish·‖x‖) only
        // chases rounding noise.
        let floor = f64::EPSILON
            * (max_abs(b) + self.max_abs_a * max_abs(&x)).max(f64::MIN_POSITIVE);
        let mut steps = 0;
        while steps < max_steps && rnorm.is_finite() && rnorm > floor {
            let dx = self.solve(&r)?;
            let candidate: Vec<f64> = x.iter().zip(&dx).map(|(xi, di)| xi + di).collect();
            let (cr, crnorm) = residual_of(&candidate);
            if !crnorm.is_finite() || crnorm >= rnorm {
                // The correction stopped helping; keep the best iterate.
                break;
            }
            x = candidate;
            steps += 1;
            let plateaued = crnorm > 0.5 * rnorm;
            r = cr;
            rnorm = crnorm;
            if plateaued {
                break;
            }
        }
        Ok(Refinement {
            x,
            residual: rnorm,
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplet;
    use rand::prelude::*;

    fn residual_inf(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(yi, bi)| (yi - bi).abs())
            .fold(0.0, f64::max)
    }

    fn transposed_solution(lu: &SparseLu, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        lu.solve_transposed_into(&mut x, &mut Vec::new()).unwrap();
        x
    }

    fn fresh_cond(lu: &SparseLu, a: &CsrMatrix) -> f64 {
        lu.cond_estimate_with(a, &mut CondScratch::default()).unwrap()
    }

    #[test]
    fn ascending_count_orders_by_nnz() {
        // Column nnz counts: col0 -> 3, col1 -> 1, col2 -> 2.
        let mut t = Triplet::new(3, 3);
        for (r, c) in [(0, 0), (1, 0), (2, 0), (1, 1), (0, 2), (2, 2)] {
            t.push(r, c, 1.0);
        }
        assert_eq!(ascending_count(&t.to_csr()), vec![1, 2, 0]);
    }

    #[test]
    fn solves_diagonal_system() {
        let mut t = Triplet::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(1, 1, 4.0);
        t.push(2, 2, -8.0);
        let a = t.to_csr();
        let lu = SparseLu::factorize(&a).unwrap();
        let x = lu.solve(&[2.0, 4.0, 8.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0, -1.0]);
    }

    #[test]
    fn solves_system_requiring_row_pivot() {
        // a11 = 0 forces off-diagonal pivoting.
        let mut t = Triplet::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csr();
        let lu = SparseLu::factorize(&a).unwrap();
        let x = lu.solve(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn matches_dense_lu_on_mna_like_matrix() {
        // Typical MNA pattern: symmetric structure, diagonally dominant-ish.
        let mut t = Triplet::new(4, 4);
        let g = [
            (0, 0, 3.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 4.0),
            (1, 2, -2.0),
            (2, 1, -2.0),
            (2, 2, 5.0),
            (2, 3, -1.0),
            (3, 2, -1.0),
            (3, 3, 2.0),
        ];
        for (r, c, v) in g {
            t.push(r, c, v);
        }
        let a = t.to_csr();
        let b = [1.0, -2.0, 3.0, 0.5];
        let sparse_x = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
        let dense_x = a.to_dense().lu().unwrap().solve(&b).unwrap();
        for (s, d) in sparse_x.iter().zip(&dense_x) {
            assert!((s - d).abs() < 1e-12);
        }
    }

    #[test]
    fn detects_singular_matrix() {
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 4.0);
        let a = t.to_csr();
        assert!(matches!(
            SparseLu::factorize(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn detects_structurally_singular_matrix() {
        // Empty column 1.
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        let a = t.to_csr();
        assert!(matches!(
            SparseLu::factorize(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_rectangular() {
        let a = Triplet::new(2, 3).to_csr();
        assert!(matches!(
            SparseLu::factorize(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn rejects_wrong_rhs_length() {
        let lu = SparseLu::factorize(&CsrMatrix::identity(3)).unwrap();
        assert!(matches!(
            lu.solve(&[1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn random_sparse_systems_solve_accurately() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..20 {
            let n = rng.gen_range(3..30);
            let mut t = Triplet::new(n, n);
            for i in 0..n {
                // Strong diagonal keeps the system well conditioned.
                t.push(i, i, 5.0 + rng.gen::<f64>());
                for _ in 0..3 {
                    let j = rng.gen_range(0..n);
                    t.push(i, j, rng.gen_range(-1.0..1.0));
                }
            }
            let a = t.to_csr();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let lu = SparseLu::factorize(&a).unwrap();
            let x = lu.solve(&b).unwrap();
            let r = residual_inf(&a, &x, &b);
            assert!(r < 1e-9, "trial {trial}: residual {r}");
        }
    }

    #[test]
    fn nnz_reports_fill() {
        let lu = SparseLu::factorize(&CsrMatrix::identity(5)).unwrap();
        assert_eq!(lu.nnz(), 5);
    }

    #[test]
    fn solve_refined_reports_residual_and_steps() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 25;
        let mut t = Triplet::new(n, n);
        for i in 0..n {
            t.push(i, i, 1e-3 + rng.gen::<f64>() * 10.0);
            for _ in 0..2 {
                let j = rng.gen_range(0..n);
                t.push(i, j, rng.gen_range(-2.0..2.0));
            }
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let lu = SparseLu::factorize(&a).unwrap();
        let ref0 = lu.solve_refined(&a, &b, 0).unwrap();
        let ref8 = lu.solve_refined(&a, &b, 8).unwrap();
        assert_eq!(ref0.steps, 0);
        assert!(ref8.steps <= 8);
        // The reported residual matches an independent recomputation.
        assert!((residual_inf(&a, &ref8.x, &b) - ref8.residual).abs() < 1e-14);
        assert!(ref8.residual <= ref0.residual);
        assert!(ref8.residual < 1e-8);
    }

    #[test]
    fn solve_transposed_matches_dense() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let n = rng.gen_range(3..25);
            let mut t = Triplet::new(n, n);
            for i in 0..n {
                t.push(i, i, 4.0 + rng.gen::<f64>());
                for _ in 0..2 {
                    let j = rng.gen_range(0..n);
                    t.push(i, j, rng.gen_range(-1.0..1.0));
                }
            }
            let a = t.to_csr();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let lu = SparseLu::factorize(&a).unwrap();
            let xt = transposed_solution(&lu, &b);
            // Verify Aᵀ·xt = b: the residual of the transposed system.
            let mut r = b.to_vec();
            for (row, col, v) in a.iter() {
                r[col] -= v * xt[row];
            }
            let rnorm = r.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            assert!(rnorm < 1e-9, "transpose residual {rnorm}");
        }
    }

    #[test]
    fn pivot_growth_is_modest_on_well_scaled_matrix() {
        let mut t = Triplet::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 2.0);
        }
        t.push(0, 1, -1.0);
        t.push(1, 0, -1.0);
        let lu = SparseLu::factorize(&t.to_csr()).unwrap();
        let g = lu.pivot_growth();
        assert!((1.0..10.0).contains(&g), "growth {g}");
    }

    #[test]
    fn replayed_factorization_reports_pivot_growth() {
        let mut t = Triplet::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 2.0);
        }
        t.push(0, 1, -1.0);
        t.push(1, 0, -1.0);
        let a = t.to_csr();
        let full = SparseLu::factorize(&a).unwrap();
        let mut ws = crate::LuWorkspace::new();
        ws.factorize(&a).unwrap();
        let growth = ws.factorize(&a).unwrap().pivot_growth();
        assert_eq!(ws.last_op(), Some(crate::LuOp::Replay));
        assert_eq!(full.pivot_growth(), growth);
    }

    #[test]
    fn cond_estimate_tracks_known_conditioning() {
        // Diagonal matrix: κ₁ is exactly max/min diagonal.
        let mut t = Triplet::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1e-6);
        t.push(2, 2, 1.0);
        let a = t.to_csr();
        let lu = SparseLu::factorize(&a).unwrap();
        let k = fresh_cond(&lu, &a);
        assert!((k / 1e6 - 1.0).abs() < 1e-9, "estimate {k}");

        // Identity: perfectly conditioned.
        let i = CsrMatrix::identity(4);
        let k = fresh_cond(&SparseLu::factorize(&i).unwrap(), &i);
        assert!((k - 1.0).abs() < 1e-12);
    }

    /// `[[1, 0], [NaN, 2]]` factorizes (the NaN only reaches `U`), but
    /// every solve through it is NaN: the estimate must read that as
    /// infinitely ill-conditioned, never as `1.0`.
    #[test]
    fn cond_estimate_reads_a_nan_inverse_as_infinite() {
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, f64::NAN);
        t.push(1, 1, 2.0);
        let a = t.to_csr();
        let lu = SparseLu::factorize(&a).unwrap();
        assert!(lu.solve(&[1.0, 1.0]).unwrap().iter().any(|v| v.is_nan()));
        let mut scratch = CondScratch::default();
        assert_eq!(lu.cond_estimate_with(&a, &mut scratch).unwrap(), f64::INFINITY);
        // The scratch carries no state into the next estimate.
        let i = CsrMatrix::identity(2);
        let k = SparseLu::factorize(&i).unwrap().cond_estimate_with(&i, &mut scratch);
        assert_eq!(k.unwrap(), 1.0);
    }

    /// The transposed solve as first written: `Uᵀ` forward, `Lᵀ` backward
    /// through an explicit inverse row permutation, then `x = Pᵀ w`.
    fn solve_transposed_reference(lu: &SparseLu, b: &[f64]) -> Vec<f64> {
        let n = lu.n;
        let mut v: Vec<f64> = (0..n).map(|j| b[lu.q[j]]).collect();
        if let Some(c) = &lu.col_scale {
            for (j, vj) in v.iter_mut().enumerate() {
                *vj = b[lu.q[j]] * c[lu.q[j]];
            }
        }
        let mut y = vec![0.0; n];
        for j in 0..n {
            let mut s = v[j];
            for k in lu.u_ptr[j]..lu.u_ptr[j + 1] {
                s -= lu.u_vals[k] * y[lu.u_rows[k]];
            }
            y[j] = s / lu.u_diag[j];
        }
        let mut pinv = vec![0; n];
        for (j, &row) in lu.p.iter().enumerate() {
            pinv[row] = j;
        }
        for j in (0..n).rev() {
            let mut s = y[j];
            for k in lu.l_ptr[j]..lu.l_ptr[j + 1] {
                s -= lu.l_vals[k] * y[pinv[lu.l_rows[k]]];
            }
            y[j] = s;
        }
        let mut x = vec![0.0; n];
        for j in 0..n {
            x[lu.p[j]] = y[j];
        }
        if let Some(r) = &lu.row_scale {
            for (xi, ri) in x.iter_mut().zip(r) {
                *xi *= ri;
            }
        }
        x
    }

    /// The in-place transposed solve (which writes `Lᵀ`'s unknowns straight
    /// into original-row order) is bitwise the reference formulation, and
    /// a Hager scratch reused across factorizations carries no state from
    /// one estimate into the next.
    #[test]
    fn scratch_forms_are_bitwise_the_reference_ones() {
        let mut rng = StdRng::seed_from_u64(23);
        let (mut work, mut scratch) = (Vec::new(), CondScratch::default());
        for trial in 0..20 {
            let n = rng.gen_range(2..30);
            let mut t = Triplet::new(n, n);
            for i in 0..n {
                t.push(i, i, 1e-3 + rng.gen::<f64>());
                for _ in 0..3 {
                    t.push(i, rng.gen_range(0..n), rng.gen_range(-2.0..2.0));
                }
            }
            let a = t.to_csr();
            let lu = if trial % 2 == 0 {
                SparseLu::factorize(&a)
            } else {
                SparseLu::factorize_equilibrated(&a)
            };
            let Ok(lu) = lu else { continue };
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut x = b.clone();
            lu.solve_transposed_into(&mut x, &mut work).unwrap();
            let want = solve_transposed_reference(&lu, &b);
            assert_eq!(
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            let k = lu.cond_estimate_with(&a, &mut scratch).unwrap();
            assert_eq!(k.to_bits(), fresh_cond(&lu, &a).to_bits());
        }
    }

    #[test]
    fn equilibrated_solve_matches_plain_on_well_scaled_system() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 12;
        let mut t = Triplet::new(n, n);
        for i in 0..n {
            t.push(i, i, 5.0 + rng.gen::<f64>());
            let j = rng.gen_range(0..n);
            t.push(i, j, rng.gen_range(-1.0..1.0));
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let plain = SparseLu::factorize(&a).unwrap().solve(&b).unwrap();
        let lu_eq = SparseLu::factorize_equilibrated(&a).unwrap();
        let eq = lu_eq.solve(&b).unwrap();
        for (u, v) in plain.iter().zip(&eq) {
            assert!((u - v).abs() < 1e-9);
        }
        // Transposed solve honours the scaling too.
        let xt = transposed_solution(&lu_eq, &b);
        let mut r = b.to_vec();
        for (row, col, v) in a.iter() {
            r[col] -= v * xt[row];
        }
        assert!(r.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn equilibration_rescues_badly_scaled_system() {
        // Rows spanning 12 decades: raw threshold pivoting loses accuracy,
        // equilibration restores it.
        let n = 4;
        let mut t = Triplet::new(n, n);
        t.push(0, 0, 1e9);
        t.push(0, 1, 1e9);
        t.push(1, 0, 1.0);
        t.push(1, 1, 2.0);
        t.push(1, 2, 1.0);
        t.push(2, 1, 1e-3);
        t.push(2, 2, 3e-3);
        t.push(2, 3, 1e-3);
        t.push(3, 2, 2.0);
        t.push(3, 3, 5.0);
        let a = t.to_csr();
        let b = [1.0, 2.0, 3.0, 4.0];
        let lu = SparseLu::factorize_equilibrated(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let scaled_r: f64 = a
            .matvec(&x)
            .iter()
            .zip(&b)
            .enumerate()
            .map(|(i, (yi, bi))| {
                let (_, vals) = a.row(i);
                (yi - bi).abs() / vals.iter().fold(1.0f64, |m, v| m.max(v.abs()))
            })
            .fold(0.0, f64::max);
        assert!(scaled_r < 1e-12, "row-scaled residual {scaled_r}");
    }
}
