//! Precompiled stamp-slot maps: the write half of two-phase assembly.
//!
//! MNA assembly pushes the same ordered sequence of `(row, col)` targets
//! every Newton iteration — only the *values* change with `x`. A
//! [`StampSlots`] map is built once from that target sequence: it freezes
//! the CSR pattern the sequence produces and records, per push, the direct
//! nnz-slot index the value lands in. Re-assembly then degenerates to a
//! cursor walk over the slot table ([`SlotWriter`]) — no sorting, no
//! hashing, no allocation.
//!
//! Bit-identity with [`crate::Triplet::to_csr`] is the design invariant: the
//! pattern comes from the same ordering routine (a counting pass over rows,
//! then each row sorted by `(col, push)`), and each slot's value is
//! accumulated in push order (first touch assigns, later touches add),
//! which is exactly the left-to-right duplicate summation `to_csr`
//! performs. The first-touch *assignment* (rather than zero-then-add) also
//! preserves signed zeros.

#[cfg(test)]
use crate::sparse::Triplet;
use crate::sparse::{row_order, split_key, CsrMatrix};
use crate::symbolic::FnvHasher;
use std::ops::Range;

/// A frozen map from an ordered stamp sequence to nnz slots of a CSR
/// pattern.
///
/// Built once per structure with [`StampSlots::build`]; evaluation borrows
/// a values buffer through [`StampSlots::writer`] and replays the sequence.
///
/// # Example
///
/// ```
/// use rlpta_linalg::StampSlots;
///
/// // Two pushes onto (0,0), one onto (1,1) — same order every iteration.
/// let targets = [(0, 0), (1, 1), (0, 0)];
/// let (mut a, slots) = StampSlots::build(2, 2, &targets);
/// let mut w = slots.writer(&mut a);
/// w.write(1.0);
/// w.write(5.0);
/// w.write(2.0); // duplicate of (0,0): summed in push order
/// assert!(w.finish());
/// assert_eq!(a.get(0, 0), 3.0);
/// assert_eq!(a.get(1, 1), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StampSlots {
    rows: usize,
    cols: usize,
    /// Per push, `slot << 1 | first_touch`. `first_touch` marks the first
    /// write each slot receives in push order: it assigns instead of
    /// accumulating, so no zeroing pass is needed and `-0.0` stamps
    /// survive bit-exactly.
    refs: Vec<u32>,
}

impl StampSlots {
    /// Resolves `targets` (the push sequence, in order) against the CSR
    /// pattern it induces. Returns the pattern with all values `0.0` plus
    /// the slot map.
    ///
    /// The returned matrix is structurally identical to what a [`Triplet`](crate::Triplet)
    /// receiving pushes at exactly these positions converts to.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds targets or if the pattern exceeds `2^31`
    /// entries (the slot table packs indices into 31 bits).
    pub fn build(rows: usize, cols: usize, targets: &[(usize, usize)]) -> (CsrMatrix, StampSlots) {
        let mut refs = vec![0u32; targets.len()];
        let matrix = Self::walk(rows, cols, targets, |k, slot, first| {
            assert!(
                slot < (u32::MAX >> 1) as usize,
                "pattern too large for slot table"
            );
            refs[k] = (slot as u32) << 1 | u32::from(first);
        });
        (matrix, StampSlots { rows, cols, refs })
    }

    /// The pattern [`StampSlots::build`] freezes for `targets`, without the
    /// slot table: what a [`crate::Triplet`] receiving pushes at exactly
    /// these positions converts to, all values `0.0`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds targets.
    pub fn pattern_of(rows: usize, cols: usize, targets: &[(usize, usize)]) -> CsrMatrix {
        Self::walk(rows, cols, targets, |_, _, _| {})
    }

    /// [`CsrMatrix::pattern_hash`] and entry count of the pattern
    /// [`StampSlots::pattern_of`] builds for `targets`, read straight off
    /// the ordered targets in `scratch`'s buffers: the same bits, with no
    /// matrix built. Once the buffers have grown to the target count, a
    /// call allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds targets.
    pub fn pattern_hash_with(
        rows: usize,
        cols: usize,
        targets: &[(usize, usize)],
        scratch: &mut PatternScratch,
    ) -> (u64, usize) {
        assert_in_bounds(rows, cols, targets);
        let PatternScratch { starts, order } = scratch;
        row_order(rows, targets.iter().copied(), starts, order);
        let row = |r: usize| &order[starts[r]..starts[r + 1]];
        // `pattern_hash` folds the shape, then `row_ptr`, then
        // `col_indices`: the running entry count per row, then every
        // row's distinct columns.
        let mut h = FnvHasher::new();
        h.write_usize(rows);
        h.write_usize(cols);
        h.write_usize(0);
        let mut nnz = 0;
        for r in 0..rows {
            nnz += distinct_cols(row(r)).count();
            h.write_usize(nnz);
        }
        for r in 0..rows {
            for c in distinct_cols(row(r)) {
                h.write_usize(c);
            }
        }
        (h.finish(), nnz)
    }

    /// Orders `targets` as [`crate::Triplet::to_csr`] orders its entries and
    /// deduplicates the positions into a CSR pattern, calling `visit(push,
    /// slot, first_touch)` once per push. Within one position the pushes
    /// arrive in push order, so the first one visited is the slot's first
    /// touch.
    fn walk(
        rows: usize,
        cols: usize,
        targets: &[(usize, usize)],
        mut visit: impl FnMut(usize, usize, bool),
    ) -> CsrMatrix {
        assert_in_bounds(rows, cols, targets);
        let (mut starts, mut order) = (Vec::new(), Vec::new());
        row_order(rows, targets.iter().copied(), &mut starts, &mut order);
        let mut row_ptr = vec![0; rows + 1];
        let mut col_indices = Vec::with_capacity(targets.len());
        for r in 0..rows {
            let mut last = None;
            for &key in &order[starts[r]..starts[r + 1]] {
                let (c, k) = split_key(key);
                let first = last != Some(c);
                if first {
                    col_indices.push(c);
                    last = Some(c);
                }
                visit(k, col_indices.len() - 1, first);
            }
            row_ptr[r + 1] = col_indices.len();
        }
        CsrMatrix::from_pattern(rows, cols, row_ptr, col_indices)
    }

    /// Number of pushes the map expects per evaluation.
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// `true` when the map expects no pushes at all.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Row count of the bound pattern.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count of the bound pattern.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Approximate heap footprint in bytes (for cache byte budgets).
    pub fn approx_bytes(&self) -> usize {
        self.refs.len() * std::mem::size_of::<u32>() + std::mem::size_of::<Self>()
    }

    /// Starts one evaluation pass over `matrix`'s values.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` does not have the shape this map was built for.
    pub fn writer<'a>(&'a self, matrix: &'a mut CsrMatrix) -> SlotWriter<'a> {
        self.writer_range(matrix, 0..self.refs.len())
    }

    /// Starts a pass over the pushes `pushes` of the sequence only: the
    /// writer begins at push cursor `pushes.start` and
    /// [`SlotWriter::finish`] expects it to end at `pushes.end`. Each push
    /// keeps its first-touch flag from the whole sequence, so writing the
    /// segments of a sequence one after another over the same values
    /// buffer (or continuing from a bitwise copy of the values an earlier
    /// segment left) is bitwise one full pass.
    ///
    /// # Panics
    ///
    /// Panics if `matrix` does not have the shape this map was built for
    /// or `pushes` is not a range of the sequence.
    pub fn writer_range<'a>(
        &'a self,
        matrix: &'a mut CsrMatrix,
        pushes: Range<usize>,
    ) -> SlotWriter<'a> {
        assert!(
            matrix.rows() == self.rows && matrix.cols() == self.cols,
            "slot map bound to a {}x{} pattern, got {}x{}",
            self.rows,
            self.cols,
            matrix.rows(),
            matrix.cols(),
        );
        assert!(
            pushes.start <= pushes.end && pushes.end <= self.refs.len(),
            "push range {pushes:?} outside a sequence of {}",
            self.refs.len(),
        );
        SlotWriter {
            refs: &self.refs[..pushes.end],
            values: matrix.values_mut(),
            cursor: pushes.start,
            saw_nonfinite: false,
        }
    }
}

/// Reusable ordering buffers of [`StampSlots::pattern_hash_with`]. Start
/// from `default()`; the buffers size themselves on first use and are
/// kept by later calls.
#[derive(Debug, Clone, Default)]
pub struct PatternScratch {
    starts: Vec<usize>,
    order: Vec<u64>,
}

fn assert_in_bounds(rows: usize, cols: usize, targets: &[(usize, usize)]) {
    for &(r, c) in targets {
        assert!(r < rows, "row {r} out of bounds ({rows})");
        assert!(c < cols, "col {c} out of bounds ({cols})");
    }
}

/// The distinct columns of one row of [`row_order`] keys, in order.
fn distinct_cols(keys: &[u64]) -> impl Iterator<Item = usize> + '_ {
    let mut last = None;
    keys.iter()
        .map(|&key| split_key(key).0)
        .filter(move |&c| last.replace(c) != Some(c))
}

/// One in-place evaluation pass: values are written through the slot table
/// in the declared push order.
///
/// Tracks per-push finiteness (`!v.is_finite()` on any *raw* stamp), which
/// mirrors `Triplet::all_finite` checking raw entries before summation —
/// finite stamps that overflow only in the sum behave identically on both
/// paths.
#[derive(Debug)]
pub struct SlotWriter<'a> {
    refs: &'a [u32],
    values: &'a mut [f64],
    cursor: usize,
    saw_nonfinite: bool,
}

impl SlotWriter<'_> {
    /// Writes the next value of the sequence into its bound slot.
    ///
    /// # Panics
    ///
    /// Panics when called more times than the map declared — that means
    /// the structure drifted since the plan was resolved.
    #[inline]
    pub fn write(&mut self, v: f64) {
        let r = self.refs[self.cursor];
        self.cursor += 1;
        self.saw_nonfinite |= !v.is_finite();
        // A select rather than a branch: the first-touch pattern is
        // irregular enough to defeat branch prediction, and both forms
        // store the same value.
        let slot = &mut self.values[(r >> 1) as usize];
        *slot = if r & 1 == 1 { v } else { *slot + v };
    }

    /// The push cursor: the index in the whole sequence of the next push.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// `true` when every value written so far was finite (checked per raw
    /// stamp, before summation — the same contract as
    /// [`crate::Triplet::all_finite`]).
    pub fn all_finite(&self) -> bool {
        !self.saw_nonfinite
    }

    /// Ends the pass, asserting the full sequence (or the writer's
    /// segment of it) was replayed. Returns [`SlotWriter::all_finite`].
    ///
    /// # Panics
    ///
    /// Panics when fewer pushes arrived than the map declared (structure
    /// drift).
    pub fn finish(self) -> bool {
        assert_eq!(
            self.cursor,
            self.refs.len(),
            "stamp sequence ended early: {} of {} pushes",
            self.cursor,
            self.refs.len(),
        );
        !self.saw_nonfinite
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays `stamps` through both paths and asserts bitwise equality.
    fn assert_paths_match(rows: usize, cols: usize, stamps: &[(usize, usize, f64)]) {
        let mut t = Triplet::new(rows, cols);
        for &(r, c, v) in stamps {
            t.push(r, c, v);
        }
        let reference = t.to_csr();

        let targets: Vec<(usize, usize)> = stamps.iter().map(|&(r, c, _)| (r, c)).collect();
        let (mut planned, slots) = StampSlots::build(rows, cols, &targets);
        assert!(reference.same_pattern(&planned), "pattern mismatch");
        let mut w = slots.writer(&mut planned);
        for &(_, _, v) in stamps {
            w.write(v);
        }
        w.finish();
        for (a, b) in reference.values().iter().zip(planned.values()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn matches_triplet_with_duplicates() {
        assert_paths_match(
            3,
            3,
            &[
                (1, 1, 2.0),
                (0, 2, -1.0),
                (1, 1, 3.0),
                (2, 0, 0.5),
                (1, 1, -5.0),
            ],
        );
    }

    #[test]
    fn signed_zero_survives() {
        // to_csr stores -0.0 verbatim; zero-then-add would flip it to +0.0.
        assert_paths_match(2, 2, &[(0, 0, -0.0), (1, 1, 1.0)]);
    }

    #[test]
    fn summation_order_is_push_order() {
        // Floating-point addition is not associative: 1e16 + 1 + (-1e16)
        // sums to 0.0 in push order but 1.0 if reordered. Both paths must
        // agree exactly.
        assert_paths_match(1, 1, &[(0, 0, 1e16), (0, 0, 1.0), (0, 0, -1e16)]);
    }

    #[test]
    fn nonfinite_is_flagged_per_raw_stamp() {
        let (mut m, slots) = StampSlots::build(1, 1, &[(0, 0), (0, 0)]);
        let mut w = slots.writer(&mut m);
        w.write(f64::INFINITY);
        w.write(f64::NEG_INFINITY);
        // The *sum* is NaN, but the flag reports raw-stamp finiteness.
        assert!(!w.finish());

        // Finite stamps overflowing only in the sum stay "finite" — the
        // triplet path's all_finite checks raw entries too.
        let (mut m, slots) = StampSlots::build(1, 1, &[(0, 0), (0, 0)]);
        let mut w = slots.writer(&mut m);
        w.write(f64::MAX);
        w.write(f64::MAX);
        assert!(w.finish());
        assert!(m.get(0, 0).is_infinite());
    }

    #[test]
    fn empty_sequence_builds_empty_pattern() {
        let (m, slots) = StampSlots::build(4, 4, &[]);
        assert_eq!(m.nnz(), 0);
        assert!(slots.is_empty());
        let mut m = m;
        slots.writer(&mut m).finish();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn build_rejects_out_of_bounds() {
        StampSlots::build(2, 2, &[(2, 0)]);
    }

    #[test]
    #[should_panic(expected = "ended early")]
    fn finish_rejects_short_sequences() {
        let (mut m, slots) = StampSlots::build(1, 1, &[(0, 0), (0, 0)]);
        let mut w = slots.writer(&mut m);
        w.write(1.0);
        w.finish();
    }

    #[test]
    fn segments_from_a_copied_prefix_equal_one_pass() {
        // (0,0) is touched in both segments, (1,1) only in the second:
        // its first touch assigns over whatever the copy left there.
        let targets = [(0, 0), (1, 0), (0, 0), (1, 1), (0, 0)];
        let values = [-0.0, 2.0, 1e16, -0.0, -1e16];
        let (mut whole, slots) = StampSlots::build(2, 2, &targets);
        let mut w = slots.writer(&mut whole);
        for v in values {
            w.write(v);
        }
        assert!(w.finish());

        let mut split = whole.clone();
        split.values_mut().fill(f64::NAN);
        let mut w = slots.writer_range(&mut split, 0..3);
        for v in &values[..3] {
            w.write(*v);
        }
        assert!(w.finish());
        let prefix = split.values().to_vec();
        split.values_mut().fill(7.0);
        split.values_mut().copy_from_slice(&prefix);
        let mut w = slots.writer_range(&mut split, 3..5);
        assert_eq!(w.position(), 3);
        for v in &values[3..] {
            w.write(*v);
        }
        assert!(w.finish());
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&whole), bits(&split));
    }

    #[test]
    #[should_panic(expected = "ended early")]
    fn segment_finish_rejects_short_segments() {
        let (mut m, slots) = StampSlots::build(1, 1, &[(0, 0), (0, 0), (0, 0)]);
        let mut w = slots.writer_range(&mut m, 0..2);
        w.write(1.0);
        w.finish();
    }

    #[test]
    fn writer_reuse_overwrites_previous_values() {
        let (mut m, slots) = StampSlots::build(2, 2, &[(0, 0), (1, 1), (0, 0)]);
        let mut w = slots.writer(&mut m);
        w.write(1.0);
        w.write(2.0);
        w.write(3.0);
        w.finish();
        // Second pass: first touches assign, so nothing leaks across.
        let mut w = slots.writer(&mut m);
        w.write(10.0);
        w.write(20.0);
        w.write(30.0);
        w.finish();
        assert_eq!(m.get(0, 0), 40.0);
        assert_eq!(m.get(1, 1), 20.0);
    }
}
