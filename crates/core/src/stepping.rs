//! Time-step control for the PTA loop: the controller trait and the two
//! classical baselines the paper compares against.

use crate::telemetry::{Sink, Span};
use std::sync::Arc;

/// What the PTA loop observed at one attempted time point — the simulation
//  state of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepObservation {
    /// NR iterations spent at this time point (`Iters`).
    pub nr_iterations: usize,
    /// Whether NR converged (`NR_flag`); `false` means the step was
    /// rejected and will be retried with a smaller `h`.
    pub nr_converged: bool,
    /// Infinity norm of the *original* system residual at the accepted
    /// solution (`Res`). For rejected steps this is the residual where NR
    /// gave up.
    pub residual: f64,
    /// Maximum relative change of the solution vs the previous time point
    /// (`Γ`). `None` for rejected steps — there is no new solution to
    /// compare, so no stale value is ever carried.
    pub gamma: Option<f64>,
    /// Whether the PTA reached steady state at this point (`PTA_flag`).
    pub pta_converged: bool,
    /// The step size `h` that produced this observation.
    pub step: f64,
    /// Pseudo time after this point.
    pub time: f64,
}

/// A pluggable PTA time-step policy.
///
/// The PTA loop calls [`StepController::initial_step`] once, then
/// [`StepController::next_step`] after every attempted time point (accepted
/// or rejected) until the run converges or the budget is exhausted. The
/// final call carries `pta_converged == true`, which learning controllers
/// use to collect their terminal reward.
pub trait StepController {
    /// The first step size `h₀`.
    fn initial_step(&mut self) -> f64;

    /// The next step size given the last observation.
    fn next_step(&mut self, obs: &StepObservation) -> f64;

    /// Human-readable controller name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Resets internal state between circuits. Learning controllers keep
    /// their networks but clear per-run episode state.
    fn reset(&mut self) {}

    /// Attaches a telemetry sink so the controller can report internal
    /// events (e.g. [`crate::telemetry::Payload::TrainStep`] from the RL
    /// controller). The span tags every emitted event, letting the engine
    /// label per-job controllers in a batch. Stateless controllers ignore
    /// it — the default is a no-op.
    fn attach_telemetry(&mut self, _sink: Arc<dyn Sink>, _span: Span) {}
}

/// A boxed controller forwards every call, so a policy chosen at run time
/// (the engine's [`Stepping`](crate::Stepping) selector) drives the generic
/// PTA loop like any other.
impl<C: StepController + ?Sized> StepController for Box<C> {
    fn initial_step(&mut self) -> f64 {
        (**self).initial_step()
    }

    fn next_step(&mut self, obs: &StepObservation) -> f64 {
        (**self).next_step(obs)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn attach_telemetry(&mut self, sink: Arc<dyn Sink>, span: Span) {
        (**self).attach_telemetry(sink, span)
    }
}

/// The conventional iteration-counting controller (`IMAX`/`IMIN`, §2.1):
/// grow the step when NR converges quickly, shrink it on rejection.
///
/// This is the paper's "simple stepping" baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SimpleStepping {
    /// Initial step size.
    pub h0: f64,
    /// NR iteration count at or below which the step grows (`IMIN`).
    pub imin: usize,
    /// NR iteration count at or above which the step shrinks (`IMAX`).
    pub imax: usize,
    /// Growth factor applied when NR was easy.
    pub grow: f64,
    /// Shrink divisor applied on rejection (and mild shrink at `IMAX`).
    pub shrink: f64,
    h: f64,
}

impl SimpleStepping {
    /// Creates the controller with explicit parameters.
    pub fn new(h0: f64, imin: usize, imax: usize, grow: f64, shrink: f64) -> Self {
        Self {
            h0,
            imin,
            imax,
            grow,
            shrink,
            h: h0,
        }
    }
}

impl Default for SimpleStepping {
    fn default() -> Self {
        Self::new(1e-3, 8, 20, 2.0, 8.0)
    }
}

impl StepController for SimpleStepping {
    fn initial_step(&mut self) -> f64 {
        self.h = self.h0;
        self.h
    }

    fn next_step(&mut self, obs: &StepObservation) -> f64 {
        if !obs.nr_converged {
            self.h /= self.shrink;
        } else if obs.nr_iterations <= self.imin {
            self.h *= self.grow;
        } else if obs.nr_iterations >= self.imax {
            self.h /= 2.0;
        }
        self.h
    }

    fn name(&self) -> &'static str {
        "simple"
    }

    fn reset(&mut self) {
        self.h = self.h0;
    }
}

/// Switched evolution/relaxation adaptive stepping (Wu et al., the paper's
/// "adaptive" SOTA baseline, the paper's ref \[8\]): the step grows proportionally to the
/// residual decrease, `h_{n+1} = h_n · (‖F_{n−1}‖ / ‖F_n‖)^k`, clamped, with
/// iteration-count moderation and rejection shrink.
#[derive(Debug, Clone, PartialEq)]
pub struct SerStepping {
    /// Initial step size.
    pub h0: f64,
    /// SER exponent `k`.
    pub exponent: f64,
    /// Maximum per-step growth factor.
    pub max_growth: f64,
    /// Shrink divisor on rejection.
    pub shrink: f64,
    h: f64,
    prev_residual: Option<f64>,
}

impl SerStepping {
    /// Creates the controller with explicit parameters.
    pub fn new(h0: f64, exponent: f64, max_growth: f64, shrink: f64) -> Self {
        Self {
            h0,
            exponent,
            max_growth,
            shrink,
            h: h0,
            prev_residual: None,
        }
    }
}

impl Default for SerStepping {
    fn default() -> Self {
        Self::new(1e-3, 1.0, 10.0, 8.0)
    }
}

impl StepController for SerStepping {
    fn initial_step(&mut self) -> f64 {
        self.h = self.h0;
        self.prev_residual = None;
        self.h
    }

    fn next_step(&mut self, obs: &StepObservation) -> f64 {
        if !obs.nr_converged {
            self.h /= self.shrink;
            // A rejection invalidates the residual trend.
            self.prev_residual = None;
            return self.h;
        }
        let mut factor = match self.prev_residual {
            Some(prev) if obs.residual > 0.0 => (prev / obs.residual)
                .powf(self.exponent)
                .clamp(0.2, self.max_growth),
            // No trend yet: grow gently.
            _ => 2.0,
        };
        // The "switched" part of SER: while NR converges effortlessly the
        // controller is in the evolution phase and may keep creeping even if
        // the residual trend is flat (a hard floor of 1 would deadlock on a
        // flat early transient; the paper's adaptive baseline creeps too —
        // that is where its pathological step counts on oscillation-prone
        // circuits come from).
        if obs.nr_iterations <= 3 {
            factor = factor.max(1.1);
        }
        self.prev_residual = Some(obs.residual.max(f64::MIN_POSITIVE));
        self.h *= factor;
        self.h
    }

    fn name(&self) -> &'static str {
        "adaptive-ser"
    }

    fn reset(&mut self) {
        self.h = self.h0;
        self.prev_residual = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(iters: usize, converged: bool, residual: f64) -> StepObservation {
        StepObservation {
            nr_iterations: iters,
            nr_converged: converged,
            residual,
            gamma: converged.then_some(0.1),
            pta_converged: false,
            step: 1e-9,
            time: 0.0,
        }
    }

    #[test]
    fn simple_grows_on_easy_steps() {
        let mut s = SimpleStepping::default();
        let h0 = s.initial_step();
        let h1 = s.next_step(&obs(3, true, 1.0));
        assert!(h1 > h0);
    }

    #[test]
    fn simple_shrinks_on_rejection() {
        let mut s = SimpleStepping::default();
        let h0 = s.initial_step();
        let h1 = s.next_step(&obs(20, false, 1.0));
        assert!(h1 < h0 / 2.0);
    }

    #[test]
    fn simple_moderates_at_imax() {
        let mut s = SimpleStepping::default();
        let h0 = s.initial_step();
        let h1 = s.next_step(&obs(25, true, 1.0));
        assert!((h1 - h0 / 2.0).abs() < 1e-18);
    }

    #[test]
    fn simple_holds_between_imin_imax() {
        let mut s = SimpleStepping::default();
        let h0 = s.initial_step();
        let h1 = s.next_step(&obs(12, true, 1.0));
        assert_eq!(h0, h1);
    }

    #[test]
    fn simple_reset_restores_h0() {
        let mut s = SimpleStepping::default();
        s.initial_step();
        s.next_step(&obs(1, true, 1.0));
        s.reset();
        assert_eq!(s.initial_step(), s.h0);
    }

    #[test]
    fn ser_grows_when_residual_falls() {
        let mut s = SerStepping::default();
        let h0 = s.initial_step();
        let h1 = s.next_step(&obs(5, true, 1.0));
        // Second accepted step with a 5× residual drop grows h by ~5×.
        let h2 = s.next_step(&obs(5, true, 0.2));
        assert!(h1 > h0);
        assert!(h2 / h1 > 4.0 && h2 / h1 < 6.0, "growth {}", h2 / h1);
    }

    #[test]
    fn ser_shrinks_when_residual_rises() {
        let mut s = SerStepping::default();
        s.initial_step();
        s.next_step(&obs(5, true, 1.0));
        let h1 = s.next_step(&obs(5, true, 1.0));
        let h2 = s.next_step(&obs(5, true, 4.0));
        assert!(h2 < h1, "rising residual must slow down: {h2} vs {h1}");
    }

    #[test]
    fn ser_growth_is_clamped() {
        let mut s = SerStepping::default();
        s.initial_step();
        s.next_step(&obs(5, true, 1.0));
        let h1 = s.next_step(&obs(5, true, 1.0));
        let h2 = s.next_step(&obs(5, true, 1e-12));
        assert!(h2 / h1 <= s.max_growth * (1.0 + 1e-12));
    }

    #[test]
    fn ser_rejection_resets_trend() {
        let mut s = SerStepping::default();
        s.initial_step();
        s.next_step(&obs(5, true, 1.0));
        let h_before = s.next_step(&obs(30, false, 1.0));
        // After rejection the next accepted step uses the gentle default.
        let h_after = s.next_step(&obs(5, true, 0.5));
        assert!((h_after / h_before - 2.0).abs() < 1e-12);
    }

    #[test]
    fn names() {
        assert_eq!(SimpleStepping::default().name(), "simple");
        assert_eq!(SerStepping::default().name(), "adaptive-ser");
    }
}
