//! Uniform solve budgets: wall-clock deadline, total-NR-iteration cap and
//! step cap, enforced at every Newton iteration and every outer step of
//! every solver in the crate.

use crate::error::{SolveError, SolvePhase};
use crate::SolveStats;
use std::time::{Duration, Instant};

/// Resource ceiling for a solve (or a whole escalation ladder).
///
/// All limits are optional; [`SolveBudget::UNLIMITED`] (the default) imposes
/// none. The deadline is checked on every Newton iteration, so the solver
/// overshoots a wall-clock budget by at most one matrix assembly plus one LU
/// factorization.
///
/// # Example
///
/// ```
/// use rlpta_core::{DcEngine, SolveBudget};
/// use std::time::Duration;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = rlpta_netlist::parse("t\nV1 a 0 2\nR1 a b 1k\nR2 b 0 3k\n")?;
/// let budget = SolveBudget::with_deadline(Duration::from_secs(5));
/// let engine = DcEngine::builder().newton().budget(budget).build();
/// let sol = engine.solve(&c)?;
/// assert!(sol.stats.converged);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveBudget {
    /// Wall-clock ceiling for the whole solve.
    pub wall_clock: Option<Duration>,
    /// Cap on total Newton–Raphson iterations (summed across continuation
    /// stages / pseudo-transient time points).
    pub max_nr_iterations: Option<usize>,
    /// Cap on outer steps (continuation stages, λ points or PTA time points).
    pub max_steps: Option<usize>,
}

impl SolveBudget {
    /// No limits at all — every charge succeeds.
    pub const UNLIMITED: Self = Self {
        wall_clock: None,
        max_nr_iterations: None,
        max_steps: None,
    };

    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Self {
            wall_clock: Some(deadline),
            ..Self::UNLIMITED
        }
    }

    /// Returns a copy with the wall-clock deadline set.
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.wall_clock = Some(deadline);
        self
    }

    /// Returns a copy with the total-NR-iteration cap set.
    #[must_use]
    pub fn nr_iterations(mut self, cap: usize) -> Self {
        self.max_nr_iterations = Some(cap);
        self
    }

    /// Returns a copy with the outer-step cap set.
    #[must_use]
    pub fn steps(mut self, cap: usize) -> Self {
        self.max_steps = Some(cap);
        self
    }

    /// Starts the clock: converts the declarative budget into a running
    /// meter. One meter is threaded through *all* stages of a solve so the
    /// caps are global, not per-stage.
    pub(crate) fn start(&self) -> BudgetMeter {
        BudgetMeter {
            // `checked_add` so a `Duration::MAX`-style budget saturates to
            // "no deadline" instead of panicking on Instant overflow.
            deadline: self
                .wall_clock
                .and_then(|d| Instant::now().checked_add(d)),
            nr_cap: self.max_nr_iterations,
            step_cap: self.max_steps,
            nr_used: 0,
            steps_used: 0,
            phase: SolvePhase::Newton,
        }
    }
}

/// Running enforcement state for a [`SolveBudget`]. Threaded by mutable
/// reference through `newton_iterate`, the PTA loop and the continuation
/// solvers; every charge checks the caps and the deadline and fails with
/// [`SolveError::BudgetExhausted`] once anything runs out.
#[derive(Debug, Clone)]
pub(crate) struct BudgetMeter {
    deadline: Option<Instant>,
    nr_cap: Option<usize>,
    step_cap: Option<usize>,
    nr_used: usize,
    steps_used: usize,
    phase: SolvePhase,
}

impl BudgetMeter {
    /// A meter that never trips — used by the plain `solve()` entry points.
    pub fn unlimited() -> Self {
        SolveBudget::UNLIMITED.start()
    }

    /// Labels subsequent charges with the phase that is running, so a
    /// `BudgetExhausted` error names where the time actually went.
    pub fn set_phase(&mut self, phase: SolvePhase) {
        self.phase = phase;
    }

    /// Work charged so far, as reportable statistics.
    pub fn spent(&self) -> SolveStats {
        SolveStats {
            nr_iterations: self.nr_used,
            pta_steps: self.steps_used,
            ..SolveStats::default()
        }
    }

    fn exhausted(&self) -> SolveError {
        SolveError::BudgetExhausted {
            phase: self.phase,
            stats: self.spent(),
        }
    }

    /// Charges `n` Newton iterations and re-checks every limit.
    pub fn charge_nr(&mut self, n: usize) -> Result<(), SolveError> {
        self.nr_used = self.nr_used.saturating_add(n);
        if matches!(self.nr_cap, Some(cap) if self.nr_used > cap) {
            return Err(self.exhausted());
        }
        self.check_deadline()
    }

    /// Charges `n` outer steps (continuation stages / PTA time points) and
    /// re-checks every limit.
    pub fn charge_step(&mut self, n: usize) -> Result<(), SolveError> {
        self.steps_used = self.steps_used.saturating_add(n);
        if matches!(self.step_cap, Some(cap) if self.steps_used > cap) {
            return Err(self.exhausted());
        }
        self.check_deadline()
    }

    /// Checks only the wall-clock deadline.
    pub fn check_deadline(&self) -> Result<(), SolveError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(self.exhausted()),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let mut m = BudgetMeter::unlimited();
        for _ in 0..10_000 {
            m.charge_nr(1).unwrap();
            m.charge_step(1).unwrap();
        }
    }

    #[test]
    fn nr_cap_trips_with_phase_and_stats() {
        let mut m = SolveBudget::UNLIMITED.nr_iterations(3).start();
        m.set_phase(SolvePhase::PseudoTransient);
        m.charge_nr(2).unwrap();
        m.charge_nr(1).unwrap(); // exactly at cap: still fine
        let err = m.charge_nr(1).unwrap_err();
        match err {
            SolveError::BudgetExhausted { phase, stats } => {
                assert_eq!(phase, SolvePhase::PseudoTransient);
                assert_eq!(stats.nr_iterations, 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn step_cap_trips() {
        let mut m = SolveBudget::UNLIMITED.steps(1).start();
        m.charge_step(1).unwrap();
        assert!(matches!(
            m.charge_step(1),
            Err(SolveError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn elapsed_deadline_trips_immediately() {
        let mut m = SolveBudget::with_deadline(Duration::ZERO).start();
        assert!(matches!(
            m.charge_nr(1),
            Err(SolveError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn huge_deadline_does_not_panic() {
        let m = SolveBudget::with_deadline(Duration::MAX).start();
        m.check_deadline().unwrap();
    }

    #[test]
    fn builder_combines_limits() {
        let b = SolveBudget::UNLIMITED
            .deadline(Duration::from_secs(1))
            .nr_iterations(10)
            .steps(5);
        assert_eq!(b.wall_clock, Some(Duration::from_secs(1)));
        assert_eq!(b.max_nr_iterations, Some(10));
        assert_eq!(b.max_steps, Some(5));
    }
}
