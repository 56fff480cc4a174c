//! Solver resilience layer: escalation ladder, budgets and fault injection.
//!
//! Three pillars, designed together:
//!
//! 1. [`RobustDcSolver`] — the escalation ladder. Tries damped Newton, Gmin
//!    stepping, source stepping, CEPTA, retuned DPTA and Newton homotopy in
//!    order, carrying warm-start state forward where valid, and reports the
//!    full per-stage trail on total failure
//!    ([`SolveError::AllStrategiesFailed`](crate::SolveError::AllStrategiesFailed)).
//! 2. [`SolveBudget`] — uniform resource ceilings (wall-clock deadline,
//!    total NR iterations, outer steps) enforced at every Newton iteration
//!    of every solver, so a caller-supplied deadline holds no matter which
//!    rung is running. Paired with non-finite guards inside the Newton loop
//!    (NaN/Inf in stamps, residuals or updates triggers rollback/damping,
//!    then [`SolveError::NonFinite`](crate::SolveError::NonFinite) — poison
//!    never reaches a returned solution).
//! 3. `FaultPlan` (behind the `faults` feature) — deterministic, seeded
//!    injection of singular pivots, NaN device stamps and oscillating
//!    residuals, so the chaos suite can prove the two guarantees above hold
//!    under fire.

mod budget;
#[cfg(feature = "faults")]
pub mod faults;
mod ladder;

pub use budget::SolveBudget;
pub(crate) use budget::BudgetMeter;
#[cfg(feature = "faults")]
pub use faults::FaultPlan;
pub use ladder::{AttemptReport, LadderStage, RobustDcSolver};

#[cfg(feature = "faults")]
pub(crate) use faults::perturb_residual;
