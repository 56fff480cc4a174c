//! Symbolic/numeric split of the Gilbert–Peierls factorization.
//!
//! A Newton–Raphson solve factorizes the same Jacobian *pattern* hundreds of
//! times with different values: the MNA stamping in `rlpta-mna` keeps
//! summed-to-zero entries structural, so the sparsity pattern is fixed across
//! iterations, PTA steps and sweep points of one circuit. The expensive part
//! of [`SparseLu::factorize`] that depends only on the pattern — the
//! per-column depth-first search over the graph of `L`, the topological
//! ordering, the pivot sequence and the fill-in pattern — can therefore be
//! computed once and replayed.
//!
//! [`SymbolicLu`] records that replayable state (KLU-style): the row/column
//! permutations `p`/`q` and the exact `L`/`U` pattern of a completed
//! factorization. [`SymbolicLu::refactorize_into`] then performs the
//! numeric-only left-looking pass inside the recorded pattern — no DFS, no
//! pivot search — writing into an existing numeric shell, so a replay loop
//! allocates nothing; on the recorded matrix the result is bit-identical to
//! what the full factorization would compute, at a fraction of the cost.
//!
//! Refactorization is *guarded*: it replays only a matrix of exactly the
//! recorded structure ([`SymbolicLu::compatible_with`]). Any other structure
//! (diagonal entries added by a Gmin bump, a dropped entry) fails with
//! [`LinalgError::PatternChanged`], and so does a recorded pivot that decays
//! below [`SymbolicLu::REFACTOR_PIVOT_THRESHOLD`] of its column maximum; the
//! caller then redoes the full factorization (which re-pivots).
//! [`LuWorkspace`] packages that retry policy: call
//! [`LuWorkspace::factorize`] every iteration and it transparently uses the
//! cheap path when it can, over one persistent numeric shell.

use crate::sparse::next_generation;
use crate::sparse_lu::{check_square, singular_fault};
use crate::{CsrMatrix, LinalgError, SparseLu};
use std::sync::Arc;

const EMPTY: usize = usize::MAX;

/// FNV-1a over machine words. The standard library's `DefaultHasher` is
/// keyed per [`std::collections::hash_map::RandomState`] instance, so its
/// values cannot serve as stable cache keys across processes; FNV is
/// deterministic, collision-resistant enough for sparsity patterns (the
/// caller additionally discriminates on dimension and entry count), and
/// needs no dependency. Public so structure-keyed caches above this crate
/// (e.g. `rlpta-core`'s service layer) can fold their own topology data
/// into the same stable key space as [`CsrMatrix::pattern_hash`].
#[derive(Debug, Clone, Copy)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FnvHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// `PRIME^k` for `k` in `0..=8`: the multiplier `k` trailing zero
    /// bytes fold to.
    const PRIME_POW: [u64; 9] = {
        let mut pow = [1u64; 9];
        let mut k = 1;
        while k < 9 {
            pow[k] = pow[k - 1].wrapping_mul(Self::PRIME);
            k += 1;
        }
        pow
    };

    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Self(Self::OFFSET)
    }

    /// Folds one `u64` in as FNV-1a over its eight little-endian bytes.
    /// Bytes above the highest nonzero one fold in a single multiply by
    /// `PRIME^k`: XOR with a zero byte is the identity and wrapping
    /// multiplication is associative, so the value is bit for bit the
    /// byte-at-a-time fold's.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        let (mut h, mut rest, mut folded) = (self.0, v, 0);
        while rest != 0 {
            h ^= rest & 0xff;
            h = h.wrapping_mul(Self::PRIME);
            rest >>= 8;
            folded += 1;
        }
        self.0 = h.wrapping_mul(Self::PRIME_POW[8 - folded]);
    }

    /// Folds one machine word in (as `u64`, so the hash is width-stable).
    #[inline]
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds a word slice in, element order significant.
    pub fn write_slice(&mut self, vs: &[usize]) {
        for &v in vs {
            self.write_usize(v);
        }
    }

    /// The accumulated hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl CsrMatrix {
    /// Deterministic 64-bit hash of the sparsity *structure* (dimensions,
    /// `row_ptr`, `col_indices`) — values do not contribute. Two matrices
    /// with identical structure hash identically whatever their entries,
    /// so the hash keys caches of structure-dependent state such as
    /// [`SymbolicLu`] scatter plans.
    pub fn pattern_hash(&self) -> u64 {
        let mut h = FnvHasher::new();
        h.write_usize(self.rows());
        h.write_usize(self.cols());
        h.write_slice(self.row_ptr());
        h.write_slice(self.col_indices());
        h.finish()
    }
}

/// The pattern half of a completed [`SparseLu`] factorization: permutations
/// plus `L`/`U` sparsity structure, with no numeric values.
///
/// Recorded by a [`LuWorkspace`]; consumed by
/// [`SymbolicLu::refactorize_into`]. Immutable and cheap to clone relative
/// to a full factorization (plain index vectors, no graph work).
///
/// A pattern also carries the pivot ranks of the full factorization it was
/// recorded from: per column, where the pivot stood among the column's
/// unpivoted rows in topological order. With them
/// [`LuWorkspace::factorize_fresh`] can replay the pattern and still
/// return bitwise what [`SparseLu::factorize`] returns.
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    /// Process-unique id of this recorded pattern (clones share it, and
    /// their patterns are identical): the tag a numeric shell carries while
    /// its index arrays hold this pattern.
    id: u64,
    n: usize,
    /// `p[j]` = original row pivoted at step `j`.
    p: Vec<usize>,
    /// Column permutation: column `q[j]` of `A` eliminated at step `j`.
    q: Vec<usize>,
    /// Per column `j`, the rank of the pivot among the column's unpivoted
    /// rows in topological order in the full factorization the pattern
    /// was recorded from ([`SparseLu::factorize_ranked`]). The rule the
    /// ranks serve reads
    /// original rows rather than pivot positions, so the pattern keeps no
    /// inverse row permutation: the ranks take its place.
    ranks: Vec<usize>,
    /// Pattern of `L` by column (original row ids, strictly below pivot).
    l_ptr: Vec<usize>,
    l_rows: Vec<usize>,
    /// `pinv[l_rows[m]]` precomputed — the dense-workspace position every
    /// `L` entry updates, so the hot replay loop does no indirection.
    l_pos: Vec<usize>,
    /// Pattern of `U` by column (pivot positions `< j`), stored in a valid
    /// topological order for the left-looking triangular solve.
    u_ptr: Vec<usize>,
    u_rows: Vec<usize>,
    /// Replay plan for matrices structurally identical to the one the
    /// pattern was recorded from. [`SparseLu::factorize`] keeps exact zeros
    /// structural, so a pattern recorded from the factorization of `a`
    /// itself always validates; `None` (a recording from another matrix)
    /// makes every replay fail with [`LinalgError::PatternChanged`].
    plan: Option<ScatterPlan>,
}

/// Precomputed column-major traversal of the recorded `A` structure: where
/// every raw CSR value of `A` lands in the dense replay workspace. Valid
/// only while `A`'s structure matches the recorded `row_ptr`/`col_indices`
/// arrays exactly, which the replay verifies by structure generation (a
/// clone of the recorded matrix) or else with two slice compares.
#[derive(Debug, Clone)]
struct ScatterPlan {
    /// Structure generation of the recorded matrix.
    source_id: u64,
    a_row_ptr: Vec<usize>,
    a_col_indices: Vec<usize>,
    /// Per processing column `j`: entries `csc_ptr[j]..csc_ptr[j + 1]` of
    /// `src`/`dst`.
    csc_ptr: Vec<usize>,
    /// Index into `A.values()` of each entry, column-major order.
    src: Vec<usize>,
    /// Dense-workspace (pivot-position) destination of each entry.
    dst: Vec<usize>,
}

impl SparseLu {
    /// Records the reusable symbolic pattern of this factorization, with
    /// its pivot ranks `ranks` ([`SparseLu::factorize_ranked`]); the
    /// pattern keeps the buffer.
    ///
    /// `a` must be the matrix this factorization was computed from; its
    /// structure is recorded so later [`SymbolicLu::refactorize_into`]
    /// calls on structurally identical matrices can replay through a
    /// precomputed scatter plan with no per-entry pattern checks.
    ///
    /// # Panics
    ///
    /// Panics if `a` has different dimensions than the factorization.
    pub(crate) fn record(&self, a: &CsrMatrix, ranks: Vec<usize>) -> SymbolicLu {
        assert_eq!(a.rows(), self.n, "pattern/matrix row mismatch");
        assert_eq!(a.cols(), self.n, "pattern/matrix column mismatch");
        let n = self.n;
        debug_assert_eq!(ranks.len(), n, "one rank per column");
        // The inverse row permutation, then the plan builder's scratch:
        // one allocation for both.
        let mut work = vec![EMPTY; 2 * n];
        let (pinv, scratch) = work.split_at_mut(n);
        for (j, &row) in self.p.iter().enumerate() {
            pinv[row] = j;
        }
        let l_pos: Vec<usize> = self.l_rows.iter().map(|&r| pinv[r]).collect();
        let mut sym = SymbolicLu {
            id: next_generation(),
            n,
            p: self.p.clone(),
            q: self.q.clone(),
            ranks,
            l_ptr: self.l_ptr.clone(),
            l_rows: self.l_rows.clone(),
            l_pos,
            u_ptr: self.u_ptr.clone(),
            u_rows: self.u_rows.clone(),
            plan: None,
        };
        sym.plan = sym.build_plan(a, pinv, scratch);
        sym
    }
}

impl SymbolicLu {
    /// Relative pivot-decay tolerance for refactorization. The recorded
    /// pivot row is accepted while `|pivot| >= threshold * max_i |x_i|` over
    /// the not-yet-pivoted rows of the column; below that the recorded pivot
    /// sequence is considered numerically unsafe and the refactorization
    /// bails out so the caller can re-pivot via a full factorization. One
    /// decade looser than [`SparseLu::PIVOT_THRESHOLD`], since the recorded
    /// sequence was chosen against the threshold on a nearby matrix.
    pub const REFACTOR_PIVOT_THRESHOLD: f64 = 0.01;

    /// Dimension of the recorded system.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Whether `a` is structurally identical to the matrix this pattern was
    /// recorded from — the precondition of every replay. A matrix that
    /// fails this check, a structural subset included, makes
    /// [`SymbolicLu::refactorize_into`] fail with
    /// [`LinalgError::PatternChanged`]; a cache layer should treat `false`
    /// as a pattern mismatch and record a fresh analysis.
    pub fn compatible_with(&self, a: &CsrMatrix) -> bool {
        if a.rows() != self.n || a.cols() != self.n {
            return false;
        }
        match &self.plan {
            Some(plan) => {
                plan.source_id == a.structure_id()
                    || (plan.a_row_ptr == a.row_ptr() && plan.a_col_indices == a.col_indices())
            }
            None => false,
        }
    }

    /// Approximate heap footprint in bytes (index vectors, pivot ranks
    /// included, plus the scatter plan). Used by byte-budgeted caches to
    /// meter eviction; exactness is not required, only monotonicity in
    /// pattern size.
    pub fn approx_bytes(&self) -> usize {
        const W: usize = std::mem::size_of::<usize>();
        let own = (self.p.len()
            + self.q.len()
            + self.ranks.len()
            + self.l_ptr.len()
            + self.l_rows.len()
            + self.l_pos.len()
            + self.u_ptr.len()
            + self.u_rows.len())
            * W;
        let plan = self.plan.as_ref().map_or(0, |p| {
            (p.a_row_ptr.len()
                + p.a_col_indices.len()
                + p.csc_ptr.len()
                + p.src.len()
                + p.dst.len())
                * W
        });
        std::mem::size_of::<Self>() + own + plan
    }

    /// Numeric-only factorization of `a` inside the recorded pattern,
    /// written into `lu` in place.
    ///
    /// Replays the recorded pivot sequence and fill pattern with the values
    /// of `a`; given the matrix the pattern was recorded from, the result is
    /// bit-identical to [`SparseLu::factorize`] (same operations in the same
    /// order) at a fraction of the cost.
    ///
    /// `lu` is the numeric shell: any [`SparseLu`] (typically the previous
    /// replay's). A shell already holding this pattern only has its values
    /// rewritten; any other is first reshaped to the pattern, reusing its
    /// allocations. `scratch` holds the dense replay workspace (resized to
    /// the dimension). With a warm shell and scratch the replay allocates
    /// nothing.
    ///
    /// Only a matrix structurally identical to the recorded one
    /// ([`SymbolicLu::compatible_with`]: a clone of it, or equal
    /// `row_ptr`/`col_indices`) replays. It runs through a precomputed
    /// scatter plan: no transpose, no per-entry pattern checks, no
    /// permutation lookups in the inner loop — only the numeric work and
    /// the pivot-decay guard.
    ///
    /// # Errors
    ///
    /// On any error `lu` holds no usable factorization: it is unbound and
    /// its pivots are poisoned with NaN, so a half-written replay can never
    /// pass for a result.
    ///
    /// * [`LinalgError::DimensionMismatch`] — `a` is not `n × n`.
    /// * [`LinalgError::PatternChanged`] — `a`'s structure is not the
    ///   recorded one (`step` 0), or a pivot decayed below
    ///   [`SymbolicLu::REFACTOR_PIVOT_THRESHOLD`] of its column maximum.
    ///   Recoverable: redo [`SparseLu::factorize`], which re-pivots.
    /// * [`LinalgError::Singular`] — only under the `faults` feature, via
    ///   the same seeded injection hook as the full factorization.
    pub fn refactorize_into(
        &self,
        a: &CsrMatrix,
        lu: &mut SparseLu,
        scratch: &mut ReplayScratch,
    ) -> Result<(), LinalgError> {
        // Injected fault, mirroring `SparseLu::factorize`: the numeric
        // path must exercise the same recovery ladders as the full path.
        let out = self
            .check_dim(a)
            .and_then(|()| singular_fault())
            .and_then(|()| self.replay(a, lu, scratch, None));
        Self::poison_on_error(lu, out)
    }

    /// The replay of [`LuWorkspace::factorize_fresh`]: exact-structure
    /// only, and every column's recorded pivot (at its recorded rank among
    /// the column's unpivoted rows in topological order) must be the one
    /// [`SparseLu::factorize`] would pick on these values. Takes no fault
    /// draw; the workspace takes one per call.
    fn refactorize_fresh_into(
        &self,
        a: &CsrMatrix,
        lu: &mut SparseLu,
        scratch: &mut ReplayScratch,
    ) -> Result<(), LinalgError> {
        let out = self.replay(a, lu, scratch, Some(&self.ranks));
        Self::poison_on_error(lu, out)
    }

    /// On error, unbinds `lu` and poisons its pivots with NaN, so a
    /// half-written replay can never pass for a result.
    fn poison_on_error(lu: &mut SparseLu, out: Result<(), LinalgError>) -> Result<(), LinalgError> {
        if out.is_err() {
            lu.shell_of = 0;
            lu.u_diag.fill(f64::NAN);
        }
        out
    }

    /// `Err(DimensionMismatch)` unless `a` is `n × n`.
    fn check_dim(&self, a: &CsrMatrix) -> Result<(), LinalgError> {
        if a.rows() != self.n || a.cols() != self.n {
            return Err(LinalgError::DimensionMismatch {
                found: format!("{}x{}", a.rows(), a.cols()),
                expected: format!("{n}x{n}", n = self.n),
            });
        }
        Ok(())
    }

    /// The numeric replay of a matrix of exactly the recorded structure;
    /// any other fails with `PatternChanged { step: 0 }`. `ranks` selects
    /// the pivot rule: `None` is the Newton decay guard, `Some` the
    /// fresh-equivalent rule (see [`SymbolicLu::commit_column`]).
    fn replay(
        &self,
        a: &CsrMatrix,
        lu: &mut SparseLu,
        scratch: &mut ReplayScratch,
        ranks: Option<&[usize]>,
    ) -> Result<(), LinalgError> {
        let plan = match &self.plan {
            Some(plan) if self.compatible_with(a) => plan,
            _ => return Err(LinalgError::PatternChanged { step: 0 }),
        };
        self.bind(lu);
        // The pivot-growth denominator, so replayed factorizations report
        // [`SparseLu::pivot_growth`] just like full ones.
        lu.max_abs_a = a.values().iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        // Dense workspace indexed by *pivot position*. Stale entries are
        // harmless: every column clears its recorded pattern before use,
        // and nothing outside it is read.
        scratch.x.resize(self.n, 0.0);
        self.replay_plan(a, plan, lu, &mut scratch.x, ranks)
    }

    /// The numeric loop: scatter `a` through the plan, then the bare
    /// left-looking pass with no per-entry pattern checks.
    fn replay_plan(
        &self,
        a: &CsrMatrix,
        plan: &ScatterPlan,
        lu: &mut SparseLu,
        x: &mut [f64],
        ranks: Option<&[usize]>,
    ) -> Result<(), LinalgError> {
        let vals = a.values();
        for j in 0..self.n {
            let ul = self.u_ptr[j];
            let uh = self.u_ptr[j + 1];
            let ll = self.l_ptr[j];
            let lh = self.l_ptr[j + 1];

            // Clear the recorded pattern of this column, then scatter
            // A(:, q[j]) through the precomputed positions.
            for k in ul..uh {
                x[self.u_rows[k]] = 0.0;
            }
            x[j] = 0.0;
            for k in ll..lh {
                x[self.l_pos[k]] = 0.0;
            }
            for t in plan.csc_ptr[j]..plan.csc_ptr[j + 1] {
                x[plan.dst[t]] = vals[plan.src[t]];
            }

            // Numeric left-looking triangular solve: the recorded U entries
            // are stored in a valid topological order, so a linear sweep
            // replays the same floating-point operations as the full
            // factorization's DFS-ordered solve. The plan's closure check
            // guarantees every update lands inside the cleared pattern.
            for k in ul..uh {
                let pos = self.u_rows[k];
                let xj = x[pos];
                lu.u_vals[k] = xj;
                if xj != 0.0 {
                    for m in self.l_ptr[pos]..self.l_ptr[pos + 1] {
                        x[self.l_pos[m]] -= lu.l_vals[m] * xj;
                    }
                }
            }

            self.commit_column(lu, x, j, ll, lh, ranks.map(|r| r[j]))?;
        }
        Ok(())
    }

    /// Makes `lu`'s index arrays hold this pattern (reusing their
    /// allocations) unless they already do. Values are left for the replay
    /// to overwrite: a successful replay writes every one of them.
    fn bind(&self, lu: &mut SparseLu) {
        if lu.shell_of == self.id {
            return;
        }
        lu.n = self.n;
        lu.l_ptr.clone_from(&self.l_ptr);
        lu.l_rows.clone_from(&self.l_rows);
        lu.u_ptr.clone_from(&self.u_ptr);
        lu.u_rows.clone_from(&self.u_rows);
        lu.p.clone_from(&self.p);
        lu.q.clone_from(&self.q);
        lu.l_vals.clear();
        lu.l_vals.resize(self.l_rows.len(), 0.0);
        lu.u_vals.clear();
        lu.u_vals.resize(self.u_rows.len(), 0.0);
        lu.u_diag.clear();
        lu.u_diag.resize(self.n, 0.0);
        lu.row_scale = None;
        lu.col_scale = None;
        lu.shell_of = self.id;
    }

    /// Checks the recorded pivot for column `j`, then commits the pivot and
    /// the scaled `L` column. Without `rank` the check is the Newton decay
    /// guard ([`SymbolicLu::REFACTOR_PIVOT_THRESHOLD`]); with the pivot's
    /// recorded `rank` it is the fresh-equivalent rule
    /// ([`SymbolicLu::fresh_pivot_holds`]).
    #[inline]
    fn commit_column(
        &self,
        lu: &mut SparseLu,
        x: &[f64],
        j: usize,
        ll: usize,
        lh: usize,
        rank: Option<usize>,
    ) -> Result<(), LinalgError> {
        let pivot = x[j];
        let pivot_ok = match rank {
            Some(rank) => self.fresh_pivot_holds(x, j, ll, lh, rank),
            None => {
                let mut max_abs = pivot.abs();
                for k in ll..lh {
                    max_abs = max_abs.max(x[self.l_pos[k]].abs());
                }
                // NaN/Inf pivots and NaN column maxima fail the
                // comparisons.
                pivot.is_finite()
                    && pivot.abs() >= f64::MIN_POSITIVE
                    && pivot.abs() >= Self::REFACTOR_PIVOT_THRESHOLD * max_abs
            }
        };
        if !pivot_ok {
            return Err(LinalgError::PatternChanged { step: j });
        }
        lu.u_diag[j] = pivot;
        for k in ll..lh {
            lu.l_vals[k] = x[self.l_pos[k]] / pivot;
        }
        Ok(())
    }

    /// Whether [`SparseLu::factorize`]'s own pivot rule picks position `j`
    /// in column `j`. The column's candidates are its unpivoted rows in
    /// the full factorization's topological order: the recorded `L` rows
    /// with the pivot inserted at `rank`. The rule, comparison for
    /// comparison: the first strict maximum of `|x|` (NaN never wins), the
    /// diagonal row `q[j]` kept when it is a candidate with
    /// `|x| >= PIVOT_THRESHOLD · max`, and a maximum below `MIN_POSITIVE`
    /// refused (the full factorization reports it singular). Candidates
    /// are `(position, original row)` pairs: the diagonal is recognized
    /// by its row.
    fn fresh_pivot_holds(&self, x: &[f64], j: usize, ll: usize, lh: usize, rank: usize) -> bool {
        let l_entry = |k: usize| (self.l_pos[k], self.l_rows[k]);
        let candidates = (ll..ll + rank)
            .map(l_entry)
            .chain(std::iter::once((j, self.p[j])))
            .chain((ll + rank..lh).map(l_entry));
        let diag_row = self.q[j];
        let (mut max_abs, mut max_pos, mut diag_abs, mut diag_pos) = (0.0f64, EMPTY, 0.0f64, EMPTY);
        for (pos, row) in candidates {
            let v = x[pos].abs();
            if v > max_abs {
                max_abs = v;
                max_pos = pos;
            }
            if row == diag_row {
                (diag_abs, diag_pos) = (v, pos);
            }
        }
        if max_pos == EMPTY || max_abs < f64::MIN_POSITIVE {
            return false;
        }
        let chosen = if diag_abs >= SparseLu::PIVOT_THRESHOLD * max_abs {
            diag_pos
        } else {
            max_pos
        };
        chosen == j
    }

    /// Builds the exact-structure replay plan: column-major traversal of
    /// `a`'s raw CSR entries with their workspace destinations. Returns
    /// `None` when the recorded pattern is not closed under the replay's
    /// scatters and updates; since [`SparseLu::factorize`] keeps exact
    /// zeros structural, that cannot happen for the matrix the pattern was
    /// recorded from, and `None` only defends against a caller passing a
    /// mismatched `a` — such a pattern refuses every replay.
    ///
    /// One counting pass places `a`'s entries straight into processing
    /// order, so a recording allocates the same few times at any size.
    /// `pinv` is the inverse row permutation; `scratch` (`n` entries) is
    /// first the inverse of `q` (the step eliminating each column of `a`),
    /// then the per-step pattern mark.
    fn build_plan(
        &self,
        a: &CsrMatrix,
        pinv: &[usize],
        scratch: &mut [usize],
    ) -> Option<ScatterPlan> {
        let n = self.n;
        let (row_ptr, col_indices) = (a.row_ptr(), a.col_indices());
        for (j, &c) in self.q.iter().enumerate() {
            scratch[c] = j;
        }
        // Entries per step, summed into start offsets.
        let mut csc_ptr = vec![0; n + 1];
        for &c in col_indices {
            csc_ptr[scratch[c] + 1] += 1;
        }
        for j in 0..n {
            csc_ptr[j + 1] += csc_ptr[j];
        }
        // Rows in increasing order fill each step's run in increasing row
        // order, the order the full factorization scatters in. `csc_ptr[j]`
        // serves as step `j`'s cursor and ends at its run's end, that is at
        // `csc_ptr[j + 1]`; shifting restores the start offsets.
        let (mut src, mut dst) = (vec![0; a.nnz()], vec![0; a.nnz()]);
        for r in 0..n {
            for idx in row_ptr[r]..row_ptr[r + 1] {
                let cursor = &mut csc_ptr[scratch[col_indices[idx]]];
                src[*cursor] = idx;
                dst[*cursor] = pinv[r];
                *cursor += 1;
            }
        }
        csc_ptr.copy_within(0..n, 1);
        csc_ptr[0] = 0;
        let mark = scratch;
        mark.fill(EMPTY);
        for j in 0..n {
            for k in self.u_ptr[j]..self.u_ptr[j + 1] {
                mark[self.u_rows[k]] = j;
            }
            mark[j] = j;
            for k in self.l_ptr[j]..self.l_ptr[j + 1] {
                mark[self.l_pos[k]] = j;
            }
            // Every A entry of this column must land inside the pattern.
            if dst[csc_ptr[j]..csc_ptr[j + 1]]
                .iter()
                .any(|&pos| mark[pos] != j)
            {
                return None;
            }
            // Every update target of the triangular pass must land inside
            // the pattern *whatever the values*: validating the closure
            // here once lets the replay skip all per-entry checks.
            for k in self.u_ptr[j]..self.u_ptr[j + 1] {
                let pos = self.u_rows[k];
                for m in self.l_ptr[pos]..self.l_ptr[pos + 1] {
                    if mark[self.l_pos[m]] != j {
                        return None;
                    }
                }
            }
        }
        Some(ScatterPlan {
            source_id: a.structure_id(),
            a_row_ptr: row_ptr.to_vec(),
            a_col_indices: col_indices.to_vec(),
            csc_ptr,
            src,
            dst,
        })
    }
}

/// The reusable buffer of a [`SymbolicLu::refactorize_into`] replay: the
/// dense workspace indexed by pivot position. Start from `default()`; it
/// sizes itself on first use.
#[derive(Debug, Clone, Default)]
pub struct ReplayScratch {
    x: Vec<f64>,
}

/// Counters describing how a [`LuWorkspace`] serviced its factorization
/// requests: the guarded [`LuWorkspace::factorize`] calls and the
/// [`LuWorkspace::factorize_fresh`] calls alike (a certification in a
/// Newton chain's workspace counts here with the chain's Newton runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LuStats {
    /// Full (symbolic + numeric) factorizations performed.
    pub full_factorizations: u64,
    /// Cheap numeric-only refactorizations performed.
    pub refactorizations: u64,
    /// Replay attempts that bailed out and fell back to a full
    /// factorization: a guarded replay refused for a pattern change or a
    /// decayed pivot, or a fresh-equivalent replay refused because a full
    /// factorization would pick another pivot. Each fallback is also
    /// counted in `full_factorizations`.
    pub fallbacks: u64,
}

/// How a [`LuWorkspace`] serviced its most recent factorization request.
///
/// This is the telemetry hook consumed by `rlpta-core`: downstream solvers
/// read it after each [`LuWorkspace::factorize`] call to emit distinct
/// `LuFactorized` / `LuReplayed` events without re-deriving the decision
/// from [`LuStats`] deltas. A [`LuWorkspace::factorize_fresh`] call sets it
/// too, so after a certification it describes certification's call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LuOp {
    /// A full symbolic + numeric factorization ran (first call, pattern
    /// change, pivot-decay fallback, or a fresh-equivalent call whose
    /// replay was refused).
    Full,
    /// The recorded scatter plan was replayed with a numeric-only pass.
    Replay,
}

/// A factorization cache for repeated solves on one matrix pattern.
///
/// Call [`LuWorkspace::factorize`] wherever [`SparseLu::factorize`] was
/// called in a loop: the first call does the full factorization and records
/// its [`SymbolicLu`]; subsequent calls replay the pattern with the cheap
/// numeric pass, transparently falling back to a full factorization (and
/// re-recording the pattern) when the matrix's structure is not the
/// recorded one or a recorded pivot decays.
///
/// The workspace owns one numeric [`SparseLu`] shell over the recorded
/// pattern: every replay rewrites its values in place
/// ([`SymbolicLu::refactorize_into`]) and [`LuWorkspace::factorize`] lends
/// it out, so a replay followed by [`SparseLu::solve_into`] on reused
/// buffers allocates nothing. The pattern itself sits behind an [`Arc`],
/// so caches can share one recorded analysis across workspaces without
/// copying it.
///
/// The workspace is single-circuit state: reuse it across iterations, steps
/// and sweep points of one circuit, and use one workspace per thread — it is
/// `Send` but deliberately not shared.
///
/// # Fresh-equivalent factorizations
///
/// [`LuWorkspace::factorize`] replays under the Newton decay guard: a
/// replay may keep a recorded pivot the full factorization would no longer
/// pick, which is numerically safe but not bit-identical to
/// [`SparseLu::factorize`]. [`LuWorkspace::factorize_fresh`] lends out
/// bitwise what [`SparseLu::factorize`] returns on the same matrix, for a
/// caller whose result must not depend on the workspace's history (a
/// certification in the workspace of the Newton chain it certifies). It
/// replays the recorded pattern only on a matrix of exactly the recorded
/// structure, and only when each column's recorded pivot is the one the
/// full factorization's rule picks on the new values, checked against the
/// pivot ranks the pattern carries. Same structure and same pivots give
/// the same topological order and the same operations, so the replay
/// equals the fresh factorization bit for bit; anything else runs a full
/// factorization. It never records or replaces the pattern, so the guarded
/// calls around it replay exactly as they would without it. Under the
/// `faults` feature it takes exactly one injection draw per call, and a
/// fired draw fails the call.
///
/// # Example
///
/// ```
/// use rlpta_linalg::{LuWorkspace, Triplet};
///
/// # fn main() -> Result<(), rlpta_linalg::LinalgError> {
/// let mut ws = LuWorkspace::new();
/// let (mut x, mut scratch) = (Vec::new(), Vec::new());
/// for scale in [1.0, 2.0, 3.0] {
///     let mut t = Triplet::new(2, 2);
///     t.push(0, 0, 4.0 * scale);
///     t.push(0, 1, 1.0);
///     t.push(1, 0, 1.0);
///     t.push(1, 1, 3.0 * scale);
///     let lu = ws.factorize(&t.to_csr())?;
///     x.clear();
///     x.extend_from_slice(&[1.0, 2.0]);
///     lu.solve_into(&mut x, &mut scratch)?;
/// }
/// // One full factorization, two pattern replays.
/// assert_eq!(ws.stats().full_factorizations, 1);
/// assert_eq!(ws.stats().refactorizations, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuWorkspace {
    symbolic: Option<Arc<SymbolicLu>>,
    /// The pivot ranks of the latest guarded full factorization, until the
    /// recording takes the buffer over ([`SparseLu::record`]).
    ranks: Vec<usize>,
    /// The latest factorization, bound to `symbolic`'s pattern after a
    /// replay or a recording; replays rewrite it in place. Lent out only
    /// while `valid`.
    numeric: SparseLu,
    /// Whether the latest factorization call succeeded, i.e. `numeric` is
    /// the factorization of the matrix it was given.
    valid: bool,
    /// Replay buffers, reused by every replay.
    scratch: ReplayScratch,
    stats: LuStats,
    last_op: Option<LuOp>,
}

impl Default for LuWorkspace {
    fn default() -> Self {
        Self {
            symbolic: None,
            ranks: Vec::new(),
            numeric: SparseLu::empty(),
            valid: false,
            scratch: ReplayScratch::default(),
            stats: LuStats::default(),
            last_op: None,
        }
    }
}

impl LuWorkspace {
    /// An empty workspace; the first [`LuWorkspace::factorize`] call records
    /// the pattern.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-seeded with a previously recorded pattern — the
    /// cross-request reuse hook: a cache that kept the [`SymbolicLu`] of an
    /// earlier solve hands it to a fresh workspace so the *first*
    /// factorization of the new solve is already a cheap numeric replay.
    /// Accepts an owned pattern or a shared `Arc` (no copy).
    ///
    /// Safety against staleness is inherited from
    /// [`LuWorkspace::factorize`]: a seeded pattern that no longer matches
    /// the matrix fails the guarded replay and transparently falls back to
    /// a full, re-recorded factorization (visible as a `fallbacks` bump in
    /// [`LuWorkspace::stats`]) — a stale seed can cost one wasted attempt,
    /// never a wrong result.
    pub fn with_symbolic(symbolic: impl Into<Arc<SymbolicLu>>) -> Self {
        Self {
            symbolic: Some(symbolic.into()),
            ..Self::default()
        }
    }

    /// Factorizes `a`, reusing the recorded symbolic pattern when possible,
    /// and lends out the result: the workspace's numeric shell, valid until
    /// the next call. Replays run under the Newton decay guard; a refused
    /// replay re-pivots and re-records the pattern.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::factorize`]; [`LinalgError::PatternChanged`] is
    /// never surfaced (it triggers the internal fallback).
    pub fn factorize(&mut self, a: &CsrMatrix) -> Result<&SparseLu, LinalgError> {
        self.valid = false;
        if let Some(sym) = &self.symbolic {
            if sym.dim() == a.rows() && a.rows() == a.cols() {
                match sym.refactorize_into(a, &mut self.numeric, &mut self.scratch) {
                    Ok(()) => return Ok(self.lend(LuOp::Replay)),
                    // Structure changed or pivot decayed (or an injected
                    // singular under the `faults` feature): re-pivot from
                    // scratch below.
                    Err(LinalgError::PatternChanged { .. } | LinalgError::Singular { .. }) => {
                        self.stats.fallbacks += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        check_square(a)?;
        singular_fault()?;
        let mut lu = SparseLu::factorize_ranked(a, Some(&mut self.ranks))?;
        let sym = lu.record(a, std::mem::take(&mut self.ranks));
        lu.shell_of = sym.id;
        self.numeric = lu;
        self.symbolic = Some(Arc::new(sym));
        Ok(self.lend(LuOp::Full))
    }

    /// Factorizes `a` to bitwise what [`SparseLu::factorize`] returns (see
    /// the type-level docs): one fault draw, then a pivot-verified replay
    /// of the recorded pattern when `a` has its structure, else a full
    /// factorization. Never records or replaces the pattern.
    ///
    /// # Errors
    ///
    /// Exactly those of [`SparseLu::factorize`] on `a`.
    pub fn factorize_fresh(&mut self, a: &CsrMatrix) -> Result<&SparseLu, LinalgError> {
        self.valid = false;
        check_square(a)?;
        singular_fault()?;
        if let Some(sym) = self.symbolic.as_ref().filter(|s| s.compatible_with(a)) {
            match sym.refactorize_fresh_into(a, &mut self.numeric, &mut self.scratch) {
                Ok(()) => return Ok(self.lend(LuOp::Replay)),
                Err(_) => self.stats.fallbacks += 1,
            }
        }
        self.numeric = SparseLu::factorize_ranked(a, None)?;
        Ok(self.lend(LuOp::Full))
    }

    /// Counts a successful call serviced by `op` and lends out its result.
    fn lend(&mut self, op: LuOp) -> &SparseLu {
        match op {
            LuOp::Replay => self.stats.refactorizations += 1,
            LuOp::Full => self.stats.full_factorizations += 1,
        }
        self.last_op = Some(op);
        self.valid = true;
        &self.numeric
    }

    /// The factorization the latest [`LuWorkspace::factorize`] or
    /// [`LuWorkspace::factorize_fresh`] call lent out, again — `None`
    /// before the first call and after a failed one,
    /// so a half-written replay is never visible.
    pub fn factorization(&self) -> Option<&SparseLu> {
        self.valid.then_some(&self.numeric)
    }

    /// How the most recent *successful* factorization call was serviced;
    /// `None` before the first success. Failed calls leave the previous
    /// value untouched.
    pub fn last_op(&self) -> Option<LuOp> {
        self.last_op
    }

    /// The recorded pattern, if any.
    pub fn symbolic(&self) -> Option<&SymbolicLu> {
        self.symbolic.as_deref()
    }

    /// The recorded pattern as the shared handle a cache keeps (cloning
    /// it is a reference-count bump, not a copy).
    pub fn shared_symbolic(&self) -> Option<&Arc<SymbolicLu>> {
        self.symbolic.as_ref()
    }

    /// Usage counters.
    pub fn stats(&self) -> LuStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Triplet;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn residual_inf(a: &CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
        a.matvec(x)
            .iter()
            .zip(b)
            .map(|(yi, bi)| (yi - bi).abs())
            .fold(0.0, f64::max)
    }

    /// The pattern a workspace records from `a`'s full factorization.
    fn recorded(a: &CsrMatrix) -> SymbolicLu {
        let mut ranks = Vec::new();
        SparseLu::factorize_ranked(a, Some(&mut ranks))
            .unwrap()
            .record(a, ranks)
    }

    /// A replay into a new shell.
    fn replay_new(sym: &SymbolicLu, a: &CsrMatrix) -> Result<SparseLu, LinalgError> {
        let mut lu = SparseLu::empty();
        sym.refactorize_into(a, &mut lu, &mut ReplayScratch::default())?;
        Ok(lu)
    }

    fn random_system(rng: &mut StdRng, n: usize) -> (CsrMatrix, Vec<f64>) {
        let mut t = Triplet::new(n, n);
        for i in 0..n {
            t.push(i, i, 5.0 + rng.gen::<f64>());
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                t.push(i, j, rng.gen_range(-1.0..1.0));
            }
        }
        let b = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        (t.to_csr(), b)
    }

    /// Same matrix, same values: the replay must be bit-identical to the
    /// full factorization (same operations in the same order).
    #[test]
    fn refactorize_is_bit_identical_on_same_matrix() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let n = rng.gen_range(3..40);
            let (a, b) = random_system(&mut rng, n);
            let full = SparseLu::factorize(&a).unwrap();
            let replay = replay_new(&recorded(&a), &a).unwrap();
            assert_eq!(full.solve(&b).unwrap(), replay.solve(&b).unwrap());
        }
    }

    #[test]
    fn refactorize_solves_perturbed_values() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let n = rng.gen_range(3..40);
            let (a, b) = random_system(&mut rng, n);
            let sym = recorded(&a);
            // Same pattern, different values: rebuild with scaled entries.
            let mut t = Triplet::new(n, n);
            for (r, c, v) in a.iter() {
                t.push(r, c, v * rng.gen_range(0.5..2.0));
            }
            let a2 = t.to_csr();
            let lu = replay_new(&sym, &a2).unwrap();
            let x = lu.solve(&b).unwrap();
            assert!(residual_inf(&a2, &x, &b) < 1e-8);
        }
    }

    #[test]
    fn entry_outside_pattern_is_rejected() {
        let mut t = Triplet::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 2.0);
        }
        let a = t.to_csr();
        let sym = recorded(&a);
        // Add an off-diagonal entry the diagonal pattern cannot hold.
        t.push(2, 0, -1.0);
        assert!(matches!(
            replay_new(&sym, &t.to_csr()),
            Err(LinalgError::PatternChanged { .. })
        ));
    }

    #[test]
    fn decayed_pivot_is_rejected() {
        // Recorded with a healthy diagonal, replayed with the (0,0) pivot
        // collapsed relative to the subdiagonal: the recorded pivot choice
        // is no longer within tolerance.
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(1, 1, 3.0);
        let a = t.to_csr();
        let sym = recorded(&a);
        let mut t2 = Triplet::new(2, 2);
        t2.push(0, 0, 1e-9);
        t2.push(1, 0, 1.0);
        t2.push(0, 1, 1.0);
        t2.push(1, 1, 3.0);
        assert!(matches!(
            replay_new(&sym, &t2.to_csr()),
            Err(LinalgError::PatternChanged { .. })
        ));
    }

    #[test]
    fn nan_entry_is_rejected_not_propagated() {
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(1, 1, 2.0);
        let a = t.to_csr();
        let sym = recorded(&a);
        let mut t2 = Triplet::new(2, 2);
        t2.push(0, 0, f64::NAN);
        t2.push(1, 1, 2.0);
        assert!(matches!(
            replay_new(&sym, &t2.to_csr()),
            Err(LinalgError::PatternChanged { .. })
        ));
    }

    #[test]
    fn refactorize_rejects_wrong_dimension() {
        let sym = recorded(&CsrMatrix::identity(3));
        assert!(matches!(
            replay_new(&sym, &CsrMatrix::identity(4)),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn workspace_replays_then_falls_back_on_growth() {
        let mut ws = LuWorkspace::new();
        let mut t = Triplet::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 2.0);
        }
        ws.factorize(&t.to_csr()).unwrap();
        ws.factorize(&t.to_csr()).unwrap();
        assert_eq!(ws.stats().full_factorizations, 1);
        assert_eq!(ws.stats().refactorizations, 1);
        // Grow the pattern (like a Gmin bump adding coupling): fallback.
        t.push(0, 2, -0.5);
        t.push(2, 0, -0.5);
        let x = ws
            .factorize(&t.to_csr())
            .unwrap()
            .solve(&[1.0, 2.0, 3.0])
            .unwrap();
        assert_eq!(ws.stats().fallbacks, 1);
        assert_eq!(ws.stats().full_factorizations, 2);
        // The grown pattern is now the recorded one.
        ws.factorize(&t.to_csr()).unwrap();
        assert_eq!(ws.stats().refactorizations, 2);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    /// Solution bits of `lu` on a fixed right-hand side.
    fn solve_bits(lu: &SparseLu) -> Vec<u64> {
        let b: Vec<f64> = (0..lu.n).map(|i| 1.0 + i as f64).collect();
        lu.solve(&b).unwrap().iter().map(|v| v.to_bits()).collect()
    }

    /// A structure that is a strict subset of the recorded one (an entry
    /// truly absent, not a stored zero) is not the recorded structure: the
    /// replay refuses it and the workspace re-pivots.
    #[test]
    fn workspace_shrunk_pattern_repivots() {
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 4.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 3.0);
        let base = t.to_csr();
        let mut t2 = Triplet::new(2, 2);
        t2.push(0, 0, 4.0);
        t2.push(1, 1, 3.0);
        let subset = t2.to_csr();

        // The bare replay refuses at step 0 and leaves the shell poisoned.
        let sym = recorded(&base);
        let mut shell = SparseLu::factorize(&base).unwrap();
        assert!(matches!(
            sym.refactorize_into(&subset, &mut shell, &mut ReplayScratch::default()),
            Err(LinalgError::PatternChanged { step: 0 })
        ));
        let poisoned = shell.solve(&[4.0, 3.0]).unwrap();
        assert!(poisoned.iter().all(|v| !v.is_finite()));

        // The workspace falls back to one full factorization, bitwise a
        // fresh one, and then replays the subset exactly.
        let mut ws = LuWorkspace::new();
        ws.factorize(&base).unwrap();
        let got = solve_bits(ws.factorize(&subset).unwrap());
        assert_eq!(ws.stats().fallbacks, 1);
        assert_eq!(ws.stats().full_factorizations, 2);
        assert_eq!(ws.last_op(), Some(LuOp::Full));
        assert_eq!(got, solve_bits(&SparseLu::factorize(&subset).unwrap()));
        ws.factorize(&subset).unwrap();
        assert_eq!(ws.last_op(), Some(LuOp::Replay));
        assert_eq!(ws.stats().refactorizations, 1);

        // A Gmin bump's sequence in one workspace: base, a superset with
        // extra entries, base again. Every result is bitwise a fresh
        // factorization of its matrix.
        let mut bumped = Triplet::new(3, 3);
        let mut plain = Triplet::new(3, 3);
        for (r, c, v) in [
            (0, 0, 2.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 2.0),
            (2, 2, 1.0),
        ] {
            plain.push(r, c, v);
            bumped.push(r, c, v);
        }
        bumped.push(1, 2, -0.5);
        bumped.push(2, 1, -0.5);
        let (plain, bumped) = (plain.to_csr(), bumped.to_csr());
        let mut ws = LuWorkspace::new();
        for a in [&plain, &bumped, &plain] {
            let got = solve_bits(ws.factorize(a).unwrap());
            assert_eq!(got, solve_bits(&SparseLu::factorize(a).unwrap()));
        }
        assert_eq!(ws.stats().full_factorizations, 3);
        assert_eq!(ws.stats().fallbacks, 2);
    }

    #[test]
    fn workspace_handles_dimension_switch() {
        let mut ws = LuWorkspace::new();
        ws.factorize(&CsrMatrix::identity(3)).unwrap();
        // Different size: silently re-records rather than erroring.
        ws.factorize(&CsrMatrix::identity(5)).unwrap();
        assert_eq!(ws.stats().full_factorizations, 2);
        assert_eq!(ws.stats().fallbacks, 0);
    }

    #[test]
    fn workspace_surfaces_genuine_singularity() {
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 4.0);
        let mut ws = LuWorkspace::new();
        assert!(matches!(
            ws.factorize(&t.to_csr()),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn pattern_hash_tracks_structure_not_values() {
        let mut rng = StdRng::seed_from_u64(17);
        let (a, _) = random_system(&mut rng, 12);
        // Same structure, different values: hash must agree.
        let mut t = Triplet::new(12, 12);
        for (r, c, v) in a.iter() {
            t.push(r, c, v * 3.5 + 1.0);
        }
        let scaled = t.to_csr();
        assert_eq!(a.pattern_hash(), scaled.pattern_hash());
        // Different structure: hash must differ. Grow by an entry that is
        // genuinely absent from the random pattern.
        let (gr, gc) = (0..12)
            .flat_map(|r| (0..12).map(move |c| (r, c)))
            .find(|&(r, c)| a.get(r, c) == 0.0 && !a.iter().any(|(ar, ac, _)| (ar, ac) == (r, c)))
            .expect("a 12x12 random system with ~48 entries has a hole");
        let mut t2 = Triplet::new(12, 12);
        for (r, c, v) in a.iter() {
            t2.push(r, c, v);
        }
        t2.push(gr, gc, -0.25);
        let grown = t2.to_csr();
        assert_ne!(a.pattern_hash(), grown.pattern_hash());
        // The recorded pattern accepts exactly the matching structure.
        let sym = recorded(&a);
        assert!(sym.compatible_with(&a));
        assert!(sym.compatible_with(&scaled));
        assert!(!sym.compatible_with(&grown));
    }

    #[test]
    fn approx_bytes_grows_with_pattern() {
        let small = recorded(&CsrMatrix::identity(4));
        let mut rng = StdRng::seed_from_u64(5);
        let (a, _) = random_system(&mut rng, 40);
        let big = recorded(&a);
        assert!(small.approx_bytes() > 0);
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn preseeded_workspace_replays_first_call() {
        let mut rng = StdRng::seed_from_u64(33);
        let (a, b) = random_system(&mut rng, 20);
        let sym = Arc::new(recorded(&a));
        let mut ws = LuWorkspace::with_symbolic(Arc::clone(&sym));
        let x = ws.factorize(&a).unwrap().solve(&b).unwrap();
        assert_eq!(ws.stats().full_factorizations, 0);
        assert_eq!(ws.stats().refactorizations, 1);
        assert_eq!(ws.last_op(), Some(LuOp::Replay));
        // Bit-identical to an uncached full factorization.
        let cold = SparseLu::factorize(&a).unwrap();
        assert_eq!(x, cold.solve(&b).unwrap());
        // A fresh-equivalent call replays the seeded pattern the same way
        // and keeps it.
        let mut ws = LuWorkspace::with_symbolic(Arc::clone(&sym));
        let fresh = ws.factorize_fresh(&a).unwrap().solve(&b).unwrap();
        assert_eq!(ws.last_op(), Some(LuOp::Replay));
        assert!(ws.shared_symbolic().is_some_and(|s| Arc::ptr_eq(s, &sym)));
        assert_eq!(fresh, x);
    }

    #[test]
    fn stale_preseed_falls_back_to_full() {
        let a = CsrMatrix::identity(3);
        let sym = recorded(&a);
        let mut t = Triplet::new(3, 3);
        for i in 0..3 {
            t.push(i, i, 2.0);
        }
        t.push(0, 2, -1.0);
        t.push(2, 0, -1.0);
        let grown = t.to_csr();
        let mut ws = LuWorkspace::with_symbolic(sym);
        let x = ws
            .factorize(&grown)
            .unwrap()
            .solve(&[1.0, 2.0, 3.0])
            .unwrap();
        assert_eq!(ws.stats().fallbacks, 1);
        assert_eq!(ws.stats().full_factorizations, 1);
        assert_eq!(ws.last_op(), Some(LuOp::Full));
        assert!(x.iter().all(|v| v.is_finite()));
        // The grown pattern was re-recorded: the next call replays.
        ws.factorize(&grown).unwrap();
        assert_eq!(ws.stats().refactorizations, 1);
    }

    /// A replay that fails after committing some columns leaves a poisoned,
    /// unbound shell — never a plausible half-written factorization — and
    /// the next successful replay into the same shell is bit-identical to
    /// a fresh one.
    #[test]
    fn failed_replay_mid_column_never_leaks_half_written_shell() {
        let mut t = Triplet::new(3, 3);
        for (r, c, v) in [
            (0, 0, 2.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 2.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
            (2, 2, 2.0),
        ] {
            t.push(r, c, v);
        }
        let good = t.to_csr();
        let sym = recorded(&good);
        // Poison the densest column, which the ascending-count ordering
        // eliminates last.
        let mut bad = good.clone();
        let k = (0..bad.nnz())
            .find(|&k| bad.iter().nth(k).is_some_and(|(r, c, _)| (r, c) == (1, 1)))
            .unwrap();
        bad.values_mut()[k] = f64::NAN;

        let mut shell = SparseLu::factorize(&good).unwrap();
        let mut scratch = ReplayScratch::default();
        match sym.refactorize_into(&bad, &mut shell, &mut scratch) {
            Err(LinalgError::PatternChanged { step }) => assert!(step > 0, "failed at {step}"),
            other => panic!("expected a mid-column failure, got {other:?}"),
        }
        let x = shell.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert!(
            x.iter().all(|v| !v.is_finite()),
            "poisoned shell solved to {x:?}"
        );

        sym.refactorize_into(&good, &mut shell, &mut scratch)
            .unwrap();
        let b = [1.0, 2.0, 3.0];
        let fresh = replay_new(&sym, &good).unwrap();
        assert_eq!(shell.solve(&b).unwrap(), fresh.solve(&b).unwrap());
        assert_eq!(
            shell.solve(&b).unwrap(),
            SparseLu::factorize(&good).unwrap().solve(&b).unwrap()
        );

        // Through the workspace: a failed call lends nothing out.
        let mut singular = Triplet::new(3, 3);
        singular.push(0, 0, 1.0);
        let mut ws = LuWorkspace::with_symbolic(sym);
        assert!(ws.factorize(&singular.to_csr()).is_err());
        assert!(ws.factorization().is_none());
        let x = ws.factorize(&good).unwrap().solve(&b).unwrap();
        assert_eq!(x, fresh.solve(&b).unwrap());
        assert!(ws.factorization().is_some());
    }

    /// Matrices sharing a structure generation take the exact path without
    /// a slice compare; a different structure never does, whatever its
    /// generation history.
    #[test]
    fn structure_generation_gates_the_exact_path() {
        let mut rng = StdRng::seed_from_u64(41);
        let (a, b) = random_system(&mut rng, 15);
        let sym = recorded(&a);
        let mut clone = a.clone();
        assert_eq!(clone.structure_id(), a.structure_id());
        for v in clone.values_mut() {
            *v *= 1.5;
        }
        assert!(sym.compatible_with(&clone));
        // Same structure rebuilt from scratch: new generation, still
        // compatible through the slice compare.
        let mut t = Triplet::new(15, 15);
        for (r, c, v) in a.iter() {
            t.push(r, c, v);
        }
        let rebuilt = t.to_csr();
        assert_ne!(rebuilt.structure_id(), a.structure_id());
        assert!(sym.compatible_with(&rebuilt));
        let mut ws = LuWorkspace::with_symbolic(sym.clone());
        let x = ws.factorize(&rebuilt).unwrap().solve(&b).unwrap();
        assert_eq!(x, SparseLu::factorize(&a).unwrap().solve(&b).unwrap());
        // A grown structure is rejected by the exact check.
        t.push(0, 14, 0.25);
        t.push(14, 0, 0.25);
        let grown = t.to_csr();
        if grown.nnz() != a.nnz() {
            assert!(!sym.compatible_with(&grown));
        }
    }

    #[test]
    fn long_replay_sequence_stays_accurate() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 30;
        let (a, b) = random_system(&mut rng, n);
        let mut ws = LuWorkspace::new();
        for _ in 0..50 {
            let mut t = Triplet::new(n, n);
            for (r, c, v) in a.iter() {
                t.push(r, c, v * rng.gen_range(0.8..1.25));
            }
            let ai = t.to_csr();
            let x = ws.factorize(&ai).unwrap().solve(&b).unwrap();
            assert!(residual_inf(&ai, &x, &b) < 1e-8);
        }
        assert_eq!(ws.stats().full_factorizations, 1);
        assert_eq!(ws.stats().refactorizations, 49);
    }

    /// Every field a solve or a report reads, as bits.
    fn fingerprint(lu: &SparseLu) -> Vec<Vec<u64>> {
        let idx = |v: &[usize]| v.iter().map(|&i| i as u64).collect::<Vec<_>>();
        let val = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        vec![
            vec![lu.n as u64, lu.max_abs_a.to_bits()],
            idx(&lu.p),
            idx(&lu.q),
            idx(&lu.l_ptr),
            idx(&lu.l_rows),
            val(&lu.l_vals),
            idx(&lu.u_ptr),
            idx(&lu.u_rows),
            val(&lu.u_vals),
            val(&lu.u_diag),
        ]
    }

    /// An MNA-shaped system: `k` nodes with conductance stamps and `m`
    /// voltage-source branches whose rows and columns carry exact `±1`
    /// incidence entries and no diagonal — the pivot ties and missing
    /// diagonals a fresh-equivalent replay must honour.
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
            let (row, i) = (k + b, rng.gen_range(0..k));
            es.extend([(i, row, 1.0), (row, i, 1.0)]);
            let j = rng.gen_range(0..k);
            if j != i {
                es.extend([(j, row, -1.0), (row, j, -1.0)]);
            }
        }
        es
    }

    proptest! {
        /// [`LuWorkspace::factorize_fresh`] either lends out bitwise what
        /// [`SparseLu::factorize`] returns or fails exactly as it does —
        /// across value jitter on one structure (converted in place, so the
        /// structure generation survives), rebuilt and grown structures,
        /// decayed diagonals, NaN/Inf entries, singular columns and
        /// dimension switches, with guarded calls now and then recording
        /// patterns in between — and replays whenever it can.
        #[test]
        fn fresh_equivalent_replay_is_bitwise_a_fresh_factorization(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut k, mut m) = (rng.gen_range(2..8), rng.gen_range(0..3));
            let mut es = mna_entries(&mut rng, k, m);
            let mut vals: Vec<f64> = es.iter().map(|e| e.2).collect();
            let mut t = Triplet::new(k + m, k + m);
            let mut a = CsrMatrix::default();
            let mut ws = LuWorkspace::new();
            let mut replays = 0;
            for step in 0..40 {
                match rng.gen_range(0..12) {
                    // Grow the pattern.
                    0 => {
                        let n = k + m;
                        es.push((rng.gen_range(0..n), rng.gen_range(0..n), 0.5));
                        vals.push(0.5);
                    }
                    // Decay a diagonal by decades.
                    1 => {
                        let i = rng.gen_range(0..k);
                        for (e, v) in es.iter().zip(vals.iter_mut()) {
                            if e.0 == i && e.1 == i {
                                *v *= 1e-6;
                            }
                        }
                    }
                    // Poison one stamp with NaN or Inf.
                    2 => {
                        let s = rng.gen_range(0..vals.len());
                        vals[s] = if rng.gen() { f64::NAN } else { f64::INFINITY };
                    }
                    // Zero a whole column: singular.
                    3 => {
                        let c = rng.gen_range(0..k + m);
                        for (e, v) in es.iter().zip(vals.iter_mut()) {
                            if e.1 == c {
                                *v = 0.0;
                            }
                        }
                    }
                    // Switch dimension (and structure).
                    4 => {
                        k = rng.gen_range(2..8);
                        m = rng.gen_range(0..3);
                        es = mna_entries(&mut rng, k, m);
                        vals = es.iter().map(|e| e.2).collect();
                        t = Triplet::new(k + m, k + m);
                    }
                    // Restore clean values, then jitter the conductances
                    // (the `±1` incidence entries keep their ties).
                    _ => {
                        for (e, v) in es.iter().zip(vals.iter_mut()) {
                            *v = if e.2.abs() == 1.0 {
                                e.2
                            } else {
                                e.2 * (1.0 + 0.05 * rng.gen_range(-1.0..1.0))
                            };
                        }
                    }
                }
                t.clear();
                for (e, &v) in es.iter().zip(&vals) {
                    t.push(e.0, e.1, v);
                }
                let b = t.to_csr();
                if step % 7 != 6 && b.same_pattern(&a) {
                    // Same structure, rewritten in place: same generation.
                    a.values_mut().copy_from_slice(b.values());
                } else {
                    // A rebuilt matrix: new generation, maybe the same
                    // structure.
                    a = b;
                }
                if rng.gen_bool(0.3) {
                    // A Newton iteration on this matrix: records a pattern
                    // when it cannot replay one.
                    let _ = ws.factorize(&a);
                }
                let guarded = ws.stats().refactorizations;
                let want = SparseLu::factorize(&a);
                let got = ws.factorize_fresh(&a);
                match (got, want) {
                    (Ok(lu), Ok(fresh)) => {
                        prop_assert_eq!(fingerprint(lu), fingerprint(&fresh));
                        if ws.last_op() == Some(LuOp::Replay) {
                            replays += 1;
                            prop_assert_eq!(ws.stats().refactorizations, guarded + 1);
                        }
                    }
                    (Err(e), Err(f)) => {
                        prop_assert_eq!(e, f);
                        prop_assert!(ws.factorization().is_none());
                    }
                    (got, want) => {
                        return Err(TestCaseError::fail(format!(
                            "workspace {:?} vs factorize {:?}",
                            got.map(|_| ()),
                            want.map(|_| ())
                        )));
                    }
                }
            }
            prop_assert!(replays > 0, "no fresh replay in 40 steps: {:?}", ws.stats());
        }
    }
}
