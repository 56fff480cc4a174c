//! Dense and sparse linear algebra kernels for the `rlpta` circuit simulator.
//!
//! This crate provides exactly the numerical substrate a SPICE-like DC engine
//! needs, implemented from scratch with no external dependencies:
//!
//! * [`DenseMatrix`] — row-major dense matrices with LU (partial pivoting) and
//!   Cholesky factorizations. Used by the Gaussian-process surrogate in
//!   `rlpta-gp` and as a reference implementation in tests.
//! * [`Triplet`] / [`CsrMatrix`] — coordinate-format assembly (duplicate
//!   entries are summed, matching MNA "stamping") and compressed sparse row
//!   storage.
//! * [`SparseLu`] — Gilbert–Peierls left-looking sparse LU with threshold
//!   partial pivoting (plain or equilibrated) and one solve family; with
//!   the [`LuWorkspace`] pattern replay, the workhorse behind every
//!   Newton–Raphson iteration in `rlpta-core`.
//! * [`norms`] — vector norms and SPICE-style weighted convergence norms.
//!
//! # Example
//!
//! ```
//! use rlpta_linalg::{Triplet, SparseLu};
//!
//! # fn main() -> Result<(), rlpta_linalg::LinalgError> {
//! let mut t = Triplet::new(2, 2);
//! t.push(0, 0, 4.0);
//! t.push(0, 1, 1.0);
//! t.push(1, 0, 1.0);
//! t.push(1, 1, 3.0);
//! let a = t.to_csr();
//! let lu = SparseLu::factorize(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panics are unacceptable in the solver hot path: every fallible operation
// must surface as a `LinalgError`. Test code is exempt (it compiles with
// `cfg(test)` and asserts freely).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic))]

mod dense;
mod error;
#[cfg(feature = "faults")]
pub mod faults;
pub mod norms;
mod slots;
mod sparse;
mod sparse_lu;
mod symbolic;

pub use dense::{Cholesky, DenseLu, DenseMatrix};
pub use error::LinalgError;
pub use slots::{PatternScratch, SlotWriter, StampSlots};
pub use sparse::{CsrMatrix, Triplet};
pub use sparse_lu::{CondScratch, Refinement, SparseLu};
pub use symbolic::{FnvHasher, LuOp, LuStats, LuWorkspace, ReplayScratch, SymbolicLu};
