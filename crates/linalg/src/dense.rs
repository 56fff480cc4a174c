//! Row-major dense matrices with LU and Cholesky factorizations.
//!
//! Dense kernels back the Gaussian-process surrogate (`rlpta-gp`), small RL
//! network algebra, and serve as the reference implementation the sparse
//! solver is validated against.

// Index-based loops mirror the textbook LU/Cholesky formulations and stay
// readable next to them; the iterator forms clippy suggests obscure the
// triangular index ranges.
#![allow(clippy::needless_range_loop)]

use crate::LinalgError;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A row-major dense matrix of `f64`.
///
/// # Example
///
/// ```
/// use rlpta_linalg::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
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

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
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
            let row = self.row(i);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            y[i] = acc;
        }
        y
    }

    /// Transposed matrix–vector product `Aᵀ · x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_transposed dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for i in 0..self.rows {
            let xi = x[i];
            for (j, yj) in y.iter_mut().enumerate() {
                *yj += self.data[i * self.cols + j] * xi;
            }
        }
        y
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Scales every entry in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// LU-factorizes the matrix with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if a pivot is numerically zero and
    /// [`LinalgError::DimensionMismatch`] if the matrix is not square.
    pub fn lu(&self) -> Result<DenseLu, LinalgError> {
        DenseLu::factorize(self)
    }

    /// Cholesky-factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle is read.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a diagonal pivot is
    /// non-positive and [`LinalgError::DimensionMismatch`] if the matrix is
    /// not square.
    pub fn cholesky(&self) -> Result<Cholesky, LinalgError> {
        Cholesky::factorize(self)
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &DenseMatrix {
    type Output = DenseMatrix;

    fn add(self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub for &DenseMatrix {
    type Output = DenseMatrix;

    fn sub(self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch"
        );
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul for &DenseMatrix {
    type Output = DenseMatrix;

    fn mul(self, rhs: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.data[i * rhs.cols + j] += aik * rhs.data[k * rhs.cols + j];
                }
            }
        }
        out
    }
}

impl fmt::Display for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4e}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// LU factorization with partial pivoting of a square [`DenseMatrix`].
///
/// # Example
///
/// ```
/// use rlpta_linalg::DenseMatrix;
///
/// # fn main() -> Result<(), rlpta_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = a.lu()?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12);
/// assert!((x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DenseLu {
    /// Packed L (unit lower, implicit diagonal) and U factors.
    lu: DenseMatrix,
    /// Row permutation: `perm[k]` is the original row index placed at row `k`.
    perm: Vec<usize>,
    /// Sign of the permutation, for determinants.
    sign: f64,
}

impl DenseLu {
    /// Factorizes `a` (which must be square).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] for non-square input and
    /// [`LinalgError::Singular`] if a pivot underflows.
    pub fn factorize(a: &DenseMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                found: format!("{}x{}", a.rows, a.cols),
                expected: "square matrix".into(),
            });
        }
        let n = a.rows;
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        for k in 0..n {
            // Partial pivoting: pick the largest magnitude in column k.
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax < f64::MIN_POSITIVE {
                return Err(LinalgError::Singular {
                    step: k,
                    pivot: pmax,
                });
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let ukj = lu[(k, j)];
                        lu[(i, j)] -= factor * ukj;
                    }
                }
            }
        }
        Ok(Self { lu, perm, sign })
    }

    /// Dimension of the factorized system.
    pub fn dim(&self) -> usize {
        self.lu.rows
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                found: format!("rhs length {}", b.len()),
                expected: format!("length {n}"),
            });
        }
        // Apply permutation, forward substitution (unit L).
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut acc = x[i];
            for j in 0..i {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc;
        }
        // Back substitution (U).
        for i in (0..n).rev() {
            let mut acc = x[i];
            for j in (i + 1)..n {
                acc -= self.lu[(i, j)] * x[j];
            }
            x[i] = acc / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// Cholesky factorization `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// Used by the Gaussian-process surrogate for covariance solves and
/// log-determinants.
///
/// # Example
///
/// ```
/// use rlpta_linalg::DenseMatrix;
///
/// # fn main() -> Result<(), rlpta_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let ch = a.cholesky()?;
/// let x = ch.solve(&[1.0, 1.0])?;
/// assert!((4.0 * x[0] + 2.0 * x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely.
    l: DenseMatrix,
}

impl Cholesky {
    /// Factorizes the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is accessed.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when a pivot is
    /// non-positive, [`LinalgError::DimensionMismatch`] for non-square input.
    pub fn factorize(a: &DenseMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                found: format!("{}x{}", a.rows, a.cols),
                expected: "square matrix".into(),
            });
        }
        let n = a.rows;
        let mut l = DenseMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { row: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(Self { l })
    }

    /// Dimension of the factorized system.
    pub fn dim(&self) -> usize {
        self.l.rows
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn l(&self) -> &DenseMatrix {
        &self.l
    }

    /// Solves `A x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                found: format!("rhs length {}", b.len()),
                expected: format!("length {n}"),
            });
        }
        let mut y = b.to_vec();
        // L y = b
        for i in 0..n {
            let mut acc = y[i];
            for j in 0..i {
                acc -= self.l[(i, j)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        // Lᵀ x = y
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.l[(j, i)] * y[j];
            }
            y[i] = acc / self.l[(i, i)];
        }
        Ok(y)
    }

    /// `log |A| = 2 Σ log L_ii`, needed by the GP marginal likelihood.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn identity_matvec_is_identity() {
        let i3 = DenseMatrix::identity(3);
        let x = vec![1.0, -2.0, 3.5];
        assert_eq!(i3.matvec(&x), x);
    }

    #[test]
    fn from_rows_and_indexing() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_against_hand_computed() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c, DenseMatrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn add_sub_elementwise() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0]]);
        let b = DenseMatrix::from_rows(&[&[3.0, -1.0]]);
        assert_eq!(&a + &b, DenseMatrix::from_rows(&[&[4.0, 1.0]]));
        assert_eq!(&a - &b, DenseMatrix::from_rows(&[&[-2.0, 3.0]]));
    }

    #[test]
    fn lu_solves_small_system() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]);
        let lu = a.lu().unwrap();
        let b = [5.0, -2.0, 9.0];
        let x = lu.solve(&b).unwrap();
        let back = a.matvec(&x);
        for (bi, yi) in b.iter().zip(&back) {
            assert_close(*bi, *yi, 1e-12);
        }
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero in the (0,0) position forces a row swap.
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = a.lu().unwrap();
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert_close(x[0], 3.0, 1e-14);
        assert_close(x[1], 2.0, 1e-14);
    }

    #[test]
    fn lu_detects_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn lu_rejects_rectangular() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn lu_determinant() {
        let a = DenseMatrix::from_rows(&[&[3.0, 1.0], &[2.0, 5.0]]);
        assert_close(a.lu().unwrap().det(), 13.0, 1e-12);
    }

    #[test]
    fn lu_determinant_sign_with_permutation() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert_close(a.lu().unwrap().det(), -1.0, 1e-12);
    }

    #[test]
    fn cholesky_solves_spd_system() {
        let a = DenseMatrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let ch = a.cholesky().unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = ch.solve(&b).unwrap();
        let back = a.matvec(&x);
        for (bi, yi) in b.iter().zip(&back) {
            assert_close(*bi, *yi, 1e-12);
        }
    }

    #[test]
    fn cholesky_log_det_matches_lu() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let ld = a.cholesky().unwrap().log_det();
        assert_close(ld, a.lu().unwrap().det().ln(), 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn solve_rejects_wrong_rhs_len() {
        let a = DenseMatrix::identity(3);
        let lu = a.lu().unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn matvec_transposed_matches_explicit_transpose() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let x = [1.0, -1.0];
        assert_eq!(a.matvec_transposed(&x), a.transpose().matvec(&x));
    }

    #[test]
    fn display_is_nonempty() {
        let a = DenseMatrix::identity(2);
        assert!(!format!("{a}").is_empty());
    }
}
