//! Solver errors.

use crate::recovery::AttemptReport;
use crate::SolveStats;
use rlpta_linalg::LinalgError;
use std::error::Error;
use std::fmt;

/// Where in the solver stack a guard tripped — carried by
/// [`SolveError::NonFinite`] and [`SolveError::BudgetExhausted`] so a
/// post-mortem can tell a poisoned device model from a blown deadline in
/// the pseudo-transient march.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolvePhase {
    /// Device evaluation / MNA assembly (Jacobian or residual stamp).
    DeviceStamp,
    /// Steady-state residual evaluation.
    Residual,
    /// The Newton update `Δx` coming out of the linear solve.
    NewtonUpdate,
    /// Plain Newton–Raphson iteration.
    Newton,
    /// The pseudo-transient time march.
    PseudoTransient,
    /// Gmin or source continuation.
    Continuation,
    /// Newton-homotopy curve tracking.
    Homotopy,
    /// The escalation ladder driving all of the above.
    Escalation,
}

impl fmt::Display for SolvePhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SolvePhase::DeviceStamp => "device stamping",
            SolvePhase::Residual => "residual evaluation",
            SolvePhase::NewtonUpdate => "newton update",
            SolvePhase::Newton => "newton iteration",
            SolvePhase::PseudoTransient => "pseudo-transient march",
            SolvePhase::Continuation => "continuation",
            SolvePhase::Homotopy => "homotopy",
            SolvePhase::Escalation => "escalation ladder",
        };
        f.write_str(name)
    }
}

/// Errors produced by the DC solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The MNA Jacobian was singular and no recovery (Gmin bump) helped.
    Singular(LinalgError),
    /// The solver exhausted its iteration/step budget without converging.
    NonConvergent {
        /// Statistics accumulated up to the failure.
        stats: SolveStats,
    },
    /// A configuration value is out of range.
    InvalidConfig {
        /// Human-readable description.
        detail: String,
    },
    /// A NaN or infinity was detected and could not be recovered by step
    /// rollback/damping. The poison never reaches a returned
    /// [`Solution`](crate::Solution).
    NonFinite {
        /// Where the non-finite value was caught.
        phase: SolvePhase,
    },
    /// A caller-supplied [`SolveBudget`](crate::SolveBudget) ran out
    /// (wall-clock deadline, total-NR-iteration cap or step cap).
    BudgetExhausted {
        /// The phase that was running when the budget tripped.
        phase: SolvePhase,
        /// Work charged against the budget up to the stop.
        stats: SolveStats,
    },
    /// Every stage of the [`RobustDcSolver`](crate::RobustDcSolver)
    /// escalation ladder failed; the per-stage trail tells which strategy
    /// died of what.
    AllStrategiesFailed {
        /// One report per attempted ladder stage, in execution order.
        attempts: Vec<AttemptReport>,
    },
    /// A pooled worker job panicked. The [`DcEngine`](crate::DcEngine)
    /// isolates the panic to the job's own result slot — the pool and the
    /// sibling jobs keep running.
    WorkerPanic {
        /// The panic payload (when it was a string) or a placeholder.
        detail: String,
    },
    /// The solver reported convergence but the independent certification
    /// check (see [`crate::certify`](mod@crate::certify)) rejected the operating point: the
    /// re-evaluated KCL residual was too large even after iterative
    /// refinement and equilibrated refactorization.
    CertificationFailed {
        /// Infinity norm of the independently re-evaluated residual.
        residual_norm: f64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular(e) => write!(f, "singular MNA system: {e}"),
            SolveError::NonConvergent { stats } => write!(
                f,
                "solver did not converge ({} NR iterations, {} steps)",
                stats.nr_iterations, stats.pta_steps
            ),
            SolveError::InvalidConfig { detail } => write!(f, "invalid configuration: {detail}"),
            SolveError::NonFinite { phase } => {
                write!(f, "non-finite value detected during {phase}")
            }
            SolveError::BudgetExhausted { phase, stats } => write!(
                f,
                "solve budget exhausted during {phase} ({} NR iterations, {} steps spent)",
                stats.nr_iterations, stats.pta_steps
            ),
            SolveError::AllStrategiesFailed { attempts } => {
                write!(f, "all {} escalation strategies failed", attempts.len())?;
                for a in attempts {
                    write!(f, "; {}: {}", a.strategy, a.error)?;
                }
                Ok(())
            }
            SolveError::WorkerPanic { detail } => {
                write!(f, "solver worker panicked: {detail}")
            }
            SolveError::CertificationFailed { residual_norm } => {
                write!(
                    f,
                    "solution failed certification (re-evaluated residual {residual_norm:.3e})"
                )
            }
        }
    }
}

impl Error for SolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolveError::Singular(e) => Some(e),
            SolveError::AllStrategiesFailed { attempts } => attempts
                .last()
                .map(|a| a.error.as_ref() as &(dyn Error + 'static)),
            _ => None,
        }
    }
}

impl From<LinalgError> for SolveError {
    fn from(e: LinalgError) -> Self {
        SolveError::Singular(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn display_and_source() {
        let e = SolveError::Singular(LinalgError::Singular {
            step: 2,
            pivot: 0.0,
        });
        assert!(e.to_string().contains("singular"));
        assert!(Error::source(&e).is_some());
        let nc = SolveError::NonConvergent {
            stats: SolveStats::default(),
        };
        assert!(nc.to_string().contains("did not converge"));
    }

    #[test]
    fn non_finite_display_names_phase() {
        let e = SolveError::NonFinite {
            phase: SolvePhase::DeviceStamp,
        };
        assert!(e.to_string().contains("device stamping"), "{e}");
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn budget_exhausted_display_reports_spend() {
        let e = SolveError::BudgetExhausted {
            phase: SolvePhase::PseudoTransient,
            stats: SolveStats {
                nr_iterations: 123,
                pta_steps: 45,
                ..SolveStats::default()
            },
        };
        let s = e.to_string();
        assert!(s.contains("pseudo-transient"), "{s}");
        assert!(s.contains("123"), "{s}");
        assert!(s.contains("45"), "{s}");
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn all_strategies_failed_display_and_source() {
        let inner = SolveError::NonConvergent {
            stats: SolveStats::default(),
        };
        let e = SolveError::AllStrategiesFailed {
            attempts: vec![
                AttemptReport {
                    strategy: "newton",
                    error: Box::new(SolveError::NonFinite {
                        phase: SolvePhase::DeviceStamp,
                    }),
                    stats: SolveStats::default(),
                    elapsed: Duration::from_millis(1),
                },
                AttemptReport {
                    strategy: "gmin",
                    error: Box::new(inner.clone()),
                    stats: SolveStats::default(),
                    elapsed: Duration::from_millis(2),
                },
            ],
        };
        let s = e.to_string();
        assert!(s.contains("all 2 escalation strategies failed"), "{s}");
        assert!(s.contains("newton:"), "{s}");
        assert!(s.contains("gmin:"), "{s}");
        // `source` is the *last* (deepest-escalation) attempt's error.
        let src = Error::source(&e).expect("has source");
        assert_eq!(src.to_string(), inner.to_string());
    }

    #[test]
    fn certification_failed_display_reports_residual() {
        let e = SolveError::CertificationFailed {
            residual_norm: 0.125,
        };
        let s = e.to_string();
        assert!(s.contains("failed certification"), "{s}");
        assert!(s.contains("1.250e-1"), "{s}");
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn all_phases_have_distinct_names() {
        let phases = [
            SolvePhase::DeviceStamp,
            SolvePhase::Residual,
            SolvePhase::NewtonUpdate,
            SolvePhase::Newton,
            SolvePhase::PseudoTransient,
            SolvePhase::Continuation,
            SolvePhase::Homotopy,
            SolvePhase::Escalation,
        ];
        let names: Vec<String> = phases.iter().map(|p| p.to_string()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
