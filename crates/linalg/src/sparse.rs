//! Sparse matrix storage: coordinate (triplet) assembly and CSR.
//!
//! MNA assembly naturally produces *duplicate* coordinate entries (every
//! device "stamps" its conductance contribution independently); the
//! triplet-to-CSR conversion sums duplicates, exactly matching SPICE
//! semantics.

#![allow(clippy::needless_range_loop)]

use crate::DenseMatrix;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of process-unique generation ids: [`CsrMatrix`] structures and
/// recorded [`crate::SymbolicLu`] patterns. Ids start at 1 (0 means "none")
/// and are never reused within a process.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// Coordinate-format (COO) sparse matrix builder.
///
/// Entries pushed at the same `(row, col)` position are **summed** during
/// [`Triplet::to_csr`], matching MNA stamping semantics.
///
/// # Example
///
/// ```
/// use rlpta_linalg::Triplet;
///
/// let mut t = Triplet::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // duplicate: summed
/// let a = t.to_csr();
/// assert_eq!(a.get(0, 0), 3.0);
/// assert_eq!(a.nnz(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Triplet {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl Triplet {
    /// Creates an empty builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty builder with pre-allocated entry capacity.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of raw (pre-summation) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pushes an entry. Duplicates are allowed and summed on conversion.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        assert!(col < self.cols, "col {col} out of bounds ({})", self.cols);
        self.entries.push((row, col, value));
    }

    /// Removes all entries, keeping the allocation. Useful when re-assembling
    /// the Jacobian every Newton iteration.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// `true` when every stored value is finite — the cheap poison check the
    /// Newton loop runs after assembly, before the value reaches the
    /// factorization (a single NaN stamp would otherwise silently corrupt
    /// the whole LU).
    pub fn all_finite(&self) -> bool {
        self.entries.iter().all(|&(_, _, v)| v.is_finite())
    }

    /// Converts to CSR, summing duplicate entries and dropping explicit zeros
    /// that result from cancellation only when the summed value is exactly 0
    /// *and* no entry was pushed there (structural zeros are never created;
    /// summed-to-zero entries are kept so the sparsity pattern is stable
    /// across Newton iterations).
    ///
    /// The entries are ordered by `row_order` and each position's
    /// stamps are summed left to right *in stamping order* —
    /// [`crate::StampSlots`] scatters with the same order, which is what
    /// makes plan-based assembly bit-identical to this path.
    pub fn to_csr(&self) -> CsrMatrix {
        let (mut starts, mut order) = (Vec::new(), Vec::new());
        let positions = self.entries.iter().map(|&(r, c, _)| (r, c));
        row_order(self.rows, positions, &mut starts, &mut order);
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_indices = Vec::with_capacity(self.entries.len());
        let mut values: Vec<f64> = Vec::with_capacity(self.entries.len());
        row_ptr.push(0);
        for r in 0..self.rows {
            let mut last = None;
            for &key in &order[starts[r]..starts[r + 1]] {
                let (c, k) = split_key(key);
                let v = self.entries[k].2;
                if let (true, Some(tail)) = (last == Some(c), values.last_mut()) {
                    *tail += v;
                    continue;
                }
                last = Some(c);
                col_indices.push(c);
                values.push(v);
            }
            row_ptr.push(col_indices.len());
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_indices,
            values,
            structure_id: next_generation(),
        }
    }
}

/// The row-major order every conversion from a push sequence to CSR walks
/// ([`Triplet::to_csr`], [`crate::StampSlots::build`] and
/// [`crate::StampSlots::pattern_of`]): a counting pass buckets the push
/// indices by row, then each row is sorted by `(col, push index)`. The keys
/// are unique, so `sort_unstable` orders exactly like a stable sort by
/// position, and duplicates of one position come out in push order. On
/// return row `r`'s keys are `order[starts[r]..starts[r + 1]]`, each
/// `(col, push)` packed into one `u64` (read back with [`split_key`]) so
/// the row sorts compare plain integers.
///
/// Both buffers are reused: once they have grown to the row and push
/// counts, ordering allocates nothing.
///
/// # Panics
///
/// Panics if a position's row is not below `rows`, or a column or the
/// push count does not fit 32 bits.
pub(crate) fn row_order(
    rows: usize,
    positions: impl Iterator<Item = (usize, usize)> + Clone,
    starts: &mut Vec<usize>,
    order: &mut Vec<u64>,
) {
    starts.clear();
    starts.resize(rows + 1, 0);
    let mut len = 0;
    for (r, _) in positions.clone() {
        starts[r + 1] += 1;
        len += 1;
    }
    assert!(
        u32::try_from(len).is_ok(),
        "{len} pushes exceed the 32-bit key"
    );
    // Exclusive prefix sum, shifted one row up: `starts[r + 1]` becomes
    // row `r`'s first index, the cursor its pushes are placed at. After
    // placement each cursor sits on its row's end, the next row's start.
    let mut at = 0;
    for start in &mut starts[1..] {
        let count = *start;
        *start = at;
        at += count;
    }
    order.clear();
    order.resize(len, 0);
    for (k, (r, c)) in positions.enumerate() {
        let c = u32::try_from(c).expect("column exceeds the 32-bit key");
        order[starts[r + 1]] = u64::from(c) << 32 | k as u64;
        starts[r + 1] += 1;
    }
    for r in 0..rows {
        order[starts[r]..starts[r + 1]].sort_unstable();
    }
}

/// A [`row_order`] key as `(col, push index)`.
#[inline]
pub(crate) fn split_key(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & u64::from(u32::MAX)) as usize)
}

impl Extend<(usize, usize, f64)> for Triplet {
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

/// Compressed sparse row matrix.
///
/// Structurally immutable once built (only values can be rewritten, via
/// [`CsrMatrix::values_mut`]); produced from [`Triplet::to_csr`].
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_indices: Vec<usize>,
    values: Vec<f64>,
    /// Generation of the structure: drawn fresh by every constructor and
    /// copied by `clone`, so equal ids imply equal `row_ptr`/`col_indices`
    /// (the converse need not hold). Not part of equality.
    structure_id: u64,
}

impl Default for CsrMatrix {
    /// The empty `0 × 0` matrix: a placeholder for a buffer that is
    /// filled later.
    fn default() -> Self {
        Self::from_pattern(0, 0, vec![0], Vec::new())
    }
}

impl PartialEq for CsrMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_indices == other.col_indices
            && self.values == other.values
    }
}

impl CsrMatrix {
    /// Builds a matrix from a raw CSR pattern with all values `0.0` — the
    /// frozen-pattern constructor behind [`crate::StampSlots::build`].
    /// `row_ptr` must be monotone with `row_ptr[rows]` entries total and
    /// every column index in bounds; callers in this crate establish that
    /// by construction.
    pub(crate) fn from_pattern(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_indices: Vec<usize>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_indices.len());
        let nnz = col_indices.len();
        Self {
            rows,
            cols,
            row_ptr,
            col_indices,
            values: vec![0.0; nnz],
            structure_id: next_generation(),
        }
    }

    /// Creates an `n × n` identity matrix in CSR form.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_indices: (0..n).collect(),
            values: vec![1.0; n],
            structure_id: next_generation(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Returns the stored value at `(row, col)`, or `0.0` for a structural
    /// zero.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        let (cols, vals) = self.row(row);
        match cols.binary_search(&col) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// The raw row-pointer array (`rows + 1` entries). Together with
    /// [`CsrMatrix::col_indices`] it defines the sparsity structure — two
    /// matrices with equal arrays are structurally identical entry for
    /// entry, which is what [`crate::SymbolicLu`] checks before replaying
    /// its precomputed scatter plan.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Process-unique generation of this matrix's structure. Matrices that
    /// share an id (one is a clone of the other) are structurally
    /// identical, which lets [`crate::SymbolicLu`] skip the slice compare
    /// on repeat replays of one working matrix.
    pub(crate) fn structure_id(&self) -> u64 {
        self.structure_id
    }

    /// The raw column-index array, in row-major entry order.
    pub fn col_indices(&self) -> &[usize] {
        &self.col_indices
    }

    /// The raw value array, aligned with [`CsrMatrix::col_indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the value array. The sparsity structure (row
    /// pointers and column indices) stays frozen — this is the in-place
    /// re-stamping hook used by precompiled assembly plans, which rewrite
    /// the numeric values of a fixed pattern every Newton iteration.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// `true` when `other` has the exact same sparsity structure (shape,
    /// row pointers and column indices), entry for entry. Values are not
    /// compared.
    pub fn same_pattern(&self, other: &CsrMatrix) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_indices == other.col_indices
    }

    /// Borrows the column indices and values of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    pub fn row(&self, row: usize) -> (&[usize], &[f64]) {
        assert!(row < self.rows, "row out of bounds");
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        (&self.col_indices[lo..hi], &self.values[lo..hi])
    }

    /// Matrix–vector product `A · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let mut acc = 0.0;
            for (c, v) in cols.iter().zip(vals) {
                acc += v * x[*c];
            }
            y[i] = acc;
        }
        y
    }

    /// Converts to a dense matrix (for tests and small reference solves).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (c, v) in cols.iter().zip(vals) {
                d[(i, *c)] += v;
            }
        }
        d
    }

    /// Returns the transpose as a new CSR matrix (i.e. CSC view of `self`):
    /// a counting sort by column, so each transposed row lists its entries
    /// in increasing original row order, exactly as [`Triplet::to_csr`]
    /// would sort them.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0; self.cols + 1];
        for &c in &self.col_indices {
            row_ptr[c + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        let mut col_indices = vec![0; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        // `row_ptr[c]` doubles as the insertion cursor of transposed row
        // `c`; afterwards it holds the row's end, so shift it back.
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let slot = &mut row_ptr[self.col_indices[k]];
                col_indices[*slot] = i;
                values[*slot] = self.values[k];
                *slot += 1;
            }
        }
        row_ptr.copy_within(0..self.cols, 1);
        row_ptr[0] = 0;
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_indices,
            values,
            structure_id: next_generation(),
        }
    }

    /// Iterates over `(row, col, value)` entries in row-major order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            matrix: self,
            row: 0,
            idx: 0,
        }
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CsrMatrix {}x{}, nnz={}",
            self.rows,
            self.cols,
            self.nnz()
        )?;
        for (r, c, v) in self.iter() {
            writeln!(f, "  ({r}, {c}) = {v:e}")?;
        }
        Ok(())
    }
}

/// Row-major entry iterator over a [`CsrMatrix`], produced by
/// [`CsrMatrix::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    matrix: &'a CsrMatrix,
    row: usize,
    idx: usize,
}

impl Iterator for Iter<'_> {
    type Item = (usize, usize, f64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.row < self.matrix.rows {
            if self.idx < self.matrix.row_ptr[self.row + 1] {
                let k = self.idx;
                self.idx += 1;
                return Some((self.row, self.matrix.col_indices[k], self.matrix.values[k]));
            }
            self.row += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplet_duplicates_are_summed() {
        let mut t = Triplet::new(3, 3);
        t.push(1, 1, 2.0);
        t.push(1, 1, 3.0);
        t.push(0, 2, -1.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(1, 1), 5.0);
        assert_eq!(a.get(0, 2), -1.0);
        assert_eq!(a.get(2, 2), 0.0);
    }

    #[test]
    fn triplet_clear_keeps_shape() {
        let mut t = Triplet::new(2, 2);
        t.push(0, 0, 1.0);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.rows(), 2);
        assert_eq!(t.to_csr().nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_push_out_of_bounds_panics() {
        let mut t = Triplet::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn csr_matvec_matches_dense() {
        let mut t = Triplet::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(0, 2, 1.0);
        t.push(1, 1, -3.0);
        t.push(2, 0, 4.0);
        t.push(2, 2, 5.0);
        let a = t.to_csr();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(a.matvec(&x), a.to_dense().matvec(&x));
    }

    #[test]
    fn csr_identity() {
        let i = CsrMatrix::identity(4);
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(i.matvec(&x), x.to_vec());
        assert_eq!(i.nnz(), 4);
    }

    #[test]
    fn csr_transpose_roundtrip() {
        let mut t = Triplet::new(2, 3);
        t.push(0, 1, 5.0);
        t.push(1, 2, -2.0);
        let a = t.to_csr();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn csr_iter_row_major_order() {
        let mut t = Triplet::new(2, 2);
        t.push(1, 0, 3.0);
        t.push(0, 1, 1.0);
        t.push(0, 0, 2.0);
        let a = t.to_csr();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(entries, vec![(0, 0, 2.0), (0, 1, 1.0), (1, 0, 3.0)]);
    }

    #[test]
    fn summed_to_zero_entries_stay_structural() {
        // Cancellation keeps the position in the pattern: important so the
        // Jacobian pattern is stable across Newton iterations.
        let mut t = Triplet::new(1, 1);
        t.push(0, 0, 1.0);
        t.push(0, 0, -1.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 1);
        assert_eq!(a.get(0, 0), 0.0);
    }

    fn triplet_of(rows: usize, cols: usize, es: &[(usize, usize, f64)]) -> Triplet {
        let mut t = Triplet::new(rows, cols);
        t.extend(es.iter().copied());
        t
    }

    #[test]
    fn transpose_matches_the_triplet_transpose() {
        let es = [(0, 1, 5.0), (1, 2, -2.0), (1, 0, 4.0), (0, 2, 1.5)];
        let a = triplet_of(2, 3, &es).to_csr();
        let swapped: Vec<_> = es.iter().map(|&(r, c, v)| (c, r, v)).collect();
        assert_eq!(a.transpose(), triplet_of(3, 2, &swapped).to_csr());
    }

    #[test]
    fn extend_trait() {
        let mut t = Triplet::new(2, 2);
        t.extend(vec![(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn display_contains_nnz() {
        let mut t = Triplet::new(1, 1);
        t.push(0, 0, 7.0);
        let s = format!("{}", t.to_csr());
        assert!(s.contains("nnz=1"));
    }
}
