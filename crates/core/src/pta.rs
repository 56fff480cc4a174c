//! Pseudo-transient analysis: pure PTA, damped DPTA and compound-element
//! CEPTA with pluggable step control.
//!
//! PTA turns the algebraic DC problem `F(x) = 0` into the ODE
//! `F(x) + D·ẋ = 0` by inserting pseudo elements:
//!
//! * a pseudo-capacitor `C_p` from every node to ground,
//! * a pseudo-inductor `L_p` in series with every independent voltage
//!   source (so at `t = 0` the sources are effectively disconnected and the
//!   circuit relaxes from the trivial all-zero state),
//!
//! then marches backward-Euler in pseudo time until the original residual
//! vanishes — the steady state *is* the DC operating point. The three
//! flavours differ in how they damp the pseudo dynamics:
//!
//! * [`PtaKind::Pure`] — plain BE companion models,
//! * [`PtaKind::Damped`] (**DPTA**) — BE with an artificial damping factor
//!   `α ≥ 1` enlarging the effective step in the companion conductances
//!   (`C/(α·h)`), boosted when the solution oscillates (Wu et al. 2014),
//! * [`PtaKind::Cepta`] (**CEPTA**) — compound elements: the node branch is
//!   a capacitor in series with a time-variant resistor `r(t) = r₀·e^{−t/τ}`
//!   and the source branch carries a decaying series resistance, which
//!   suppresses the LC oscillation pure PTA suffers from (Jin et al. 2018).

#![allow(clippy::needless_range_loop)]

use crate::assembly::NewtonWorkspace;
use crate::newton::{newton_iterate, NewtonConfig};
use crate::recovery::BudgetMeter;
use crate::telemetry::{Payload, Phase, StatsFold, Tele};
use crate::{Solution, SolveError, StepController, StepObservation};
use rlpta_devices::{Device, Stamper};
use rlpta_linalg::norms;
use rlpta_mna::{Circuit, ResidualScratch};

/// The inserted pseudo-element values — the `z` vector the IPP stage of the
/// paper predicts: pseudo-capacitance, pseudo-inductance and the CEPTA time
/// constant τ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PtaParams {
    /// Pseudo-capacitance from every node to ground (farads).
    pub c_node: f64,
    /// Pseudo-inductance in series with every voltage source (henries).
    pub l_branch: f64,
    /// CEPTA time constant τ of the decaying pseudo-resistors (seconds).
    pub tau: f64,
}

impl PtaParams {
    /// Builds parameters from the GP-reparameterized `w` vector
    /// (see [`rlpta_gp::transform`]).
    pub fn from_w(w: &[f64]) -> Self {
        assert!(w.len() >= 3, "need 3 solver parameters");
        Self {
            c_node: rlpta_gp::transform::w_to_z(w[0]),
            l_branch: rlpta_gp::transform::w_to_z(w[1]),
            tau: rlpta_gp::transform::w_to_z(w[2]),
        }
    }
}

impl Default for PtaParams {
    /// The default solver setting `z = (1, 1, 1)` — the paper's untuned
    /// baseline the IPP speedups in Table 2 are measured against.
    fn default() -> Self {
        Self {
            c_node: 1.0,
            l_branch: 1.0,
            tau: 1.0,
        }
    }
}

/// DPTA damping configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DptaConfig {
    /// Starting damping factor α (≥ 1).
    pub initial_damping: f64,
    /// Upper bound on α.
    pub max_damping: f64,
    /// Multiplier applied to α when oscillation is detected.
    pub boost: f64,
    /// Per-step decay pulling α back toward 1.
    pub decay: f64,
}

impl Default for DptaConfig {
    fn default() -> Self {
        Self {
            initial_damping: 1.0,
            max_damping: 256.0,
            boost: 4.0,
            decay: 0.9,
        }
    }
}

/// RPTA source-ramping configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RptaConfig {
    /// Pseudo time over which the independent sources ramp from 0 to full
    /// strength (the ramp is `min(1, t/ramp_time)`).
    pub ramp_time: f64,
}

impl Default for RptaConfig {
    fn default() -> Self {
        Self { ramp_time: 1.0 }
    }
}

/// CEPTA compound-element configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CeptaConfig {
    /// Initial value `r₀` of the decaying series pseudo-resistors (ohms).
    pub r0: f64,
}

impl Default for CeptaConfig {
    fn default() -> Self {
        Self { r0: 1e3 }
    }
}

/// PTA flavour.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum PtaKind {
    /// Plain backward-Euler pseudo transients.
    #[default]
    Pure,
    /// Damped PTA (artificially enlarged integration damping).
    Damped(DptaConfig),
    /// Ramping PTA (independent sources ramp up over pseudo time).
    Ramping(RptaConfig),
    /// Compound-element PTA (time-variant series pseudo-resistors).
    Cepta(CeptaConfig),
}

impl PtaKind {
    /// Conventional DPTA with default damping.
    pub fn dpta() -> Self {
        PtaKind::Damped(DptaConfig::default())
    }

    /// Conventional RPTA with the default source ramp.
    pub fn rpta() -> Self {
        PtaKind::Ramping(RptaConfig::default())
    }

    /// Conventional CEPTA with default compound elements.
    pub fn cepta() -> Self {
        PtaKind::Cepta(CeptaConfig::default())
    }

    /// Short lowercase name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            PtaKind::Pure => "pta",
            PtaKind::Damped(_) => "dpta",
            PtaKind::Ramping(_) => "rpta",
            PtaKind::Cepta(_) => "cepta",
        }
    }
}

/// Engine limits and tolerances.
#[derive(Debug, Clone, PartialEq)]
pub struct PtaConfig {
    /// Pseudo-element values.
    pub params: PtaParams,
    /// Inner Newton configuration (per time point).
    pub newton: NewtonConfig,
    /// Maximum attempted time points before giving up.
    pub max_steps: usize,
    /// Smallest allowed step size.
    pub h_min: f64,
    /// Largest allowed step size.
    pub h_max: f64,
    /// Steady-state test: infinity norm of the *original* residual.
    pub steady_ftol: f64,
    /// Consecutive rejected steps at `h_min` before declaring failure.
    pub max_stalled_rejects: usize,
}

impl Default for PtaConfig {
    fn default() -> Self {
        Self {
            params: PtaParams::default(),
            // A tight per-point budget (SPICE ITL4-style): stepping too
            // aggressively fails NR and forces a rollback, which is exactly
            // the cost surface the stepping controllers compete on.
            newton: NewtonConfig {
                max_iterations: 10,
                residual_tol: 1e-9,
                ..NewtonConfig::default()
            },
            max_steps: 50_000,
            h_min: 1e-15,
            h_max: 1e15,
            steady_ftol: 1e-9,
            max_stalled_rejects: 60,
        }
    }
}

/// The PTA solver: a flavour, a configuration and a step controller.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct PtaSolver<C> {
    kind: PtaKind,
    config: PtaConfig,
    controller: C,
}

impl<C: StepController> PtaSolver<C> {
    /// Creates a solver with an explicit configuration. (The engine-level
    /// path is `DcEngine::builder().kind(..).stepping(..)`.)
    pub fn with_config(kind: PtaKind, controller: C, config: PtaConfig) -> Self {
        Self {
            kind,
            config,
            controller,
        }
    }

    /// Replaces the pseudo-element parameters (IPP plugs in here).
    #[must_use]
    pub fn with_params(mut self, params: PtaParams) -> Self {
        self.config.params = params;
        self
    }

    /// The PTA flavour.
    pub fn kind(&self) -> PtaKind {
        self.kind
    }

    /// The engine configuration.
    pub fn config(&self) -> &PtaConfig {
        &self.config
    }

    /// Mutable access to the step controller (e.g. to inspect a trained RL
    /// agent after a run).
    pub fn controller_mut(&mut self) -> &mut C {
        &mut self.controller
    }

    /// Consumes the solver and hands back its step controller — a trained
    /// RL agent moves on to the next circuit without a copy.
    pub fn into_controller(self) -> C {
        self.controller
    }

    /// Runs pseudo-transient analysis to the DC operating point.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Singular`] if the augmented system is structurally
    ///   singular,
    /// * [`SolveError::NonConvergent`] when the step budget is exhausted or
    ///   the controller stalls at `h_min`.
    pub fn solve(&mut self, circuit: &Circuit) -> Result<Solution, SolveError> {
        self.solve_metered(circuit, &mut BudgetMeter::unlimited(), &Tele::disabled())
    }

    /// Runs PTA under an explicit budget meter and telemetry context. The
    /// returned / error-carried [`crate::SolveStats`] are a fold of the
    /// events emitted into `tele` (one `PtaStep` per attempted time point,
    /// plus the inner Newton events).
    pub(crate) fn solve_metered(
        &mut self,
        circuit: &Circuit,
        meter: &mut BudgetMeter,
        tele: &Tele<'_>,
    ) -> Result<Solution, SolveError> {
        let dim = circuit.dim();
        let num_nodes = circuit.num_nodes();
        let params = self.config.params;
        if params.c_node <= 0.0 || params.l_branch <= 0.0 || params.tau <= 0.0 {
            return Err(SolveError::InvalidConfig {
                detail: format!("pseudo parameters must be positive: {params:?}"),
            });
        }

        // Branch unknowns of independent voltage sources get pseudo-Ls.
        let vsrc_branches: Vec<usize> = circuit
            .devices()
            .iter()
            .filter_map(|d| match d {
                Device::Vsource(v) => Some(v.branch()),
                _ => None,
            })
            .collect();

        let fold = StatsFold::default();
        let tele = tele.child(&fold);
        let mut x_time = vec![0.0; dim];
        // Junction-limiting device state, persisted across time points.
        let mut dev_state = circuit.new_state();
        // CEPTA internal capacitor voltages, one per node.
        let mut vc = vec![0.0; num_nodes];
        let mut alpha = match self.kind {
            PtaKind::Damped(d) => d.initial_damping.max(1.0),
            _ => 1.0,
        };
        // DPTA oscillation detector: this and the previous accepted
        // step's update (`prev_dx` valid once `has_prev_dx`).
        let mut dx = vec![0.0; dim];
        let mut prev_dx = vec![0.0; dim];
        let mut has_prev_dx = false;
        let mut stalled_rejects = 0usize;
        // Per-step buffers, reused across every time point: the limiter
        // history to roll back to and the steady-state residual.
        let mut saved_state = dev_state.clone();
        let mut res_orig_vec = vec![0.0; dim];
        let mut res_scratch = ResidualScratch::default();

        self.controller.reset();
        let mut h = self
            .controller
            .initial_step()
            .clamp(self.config.h_min, self.config.h_max);
        let mut t = 0.0;
        // The pseudo-element stamps land on the diagonal (and source
        // branches) every step, so the augmented Jacobian pattern is
        // constant across the whole transient: one symbolic analysis serves
        // every Newton iteration of every time point. The pseudo targets are
        // likewise fixed, so one stamp plan serves the whole transient. The
        // circuit itself never changes between time points, so the
        // workspace carries the device half of each point's convergence
        // check to the next point's first iteration and to the
        // steady-state test.
        let mut ws = NewtonWorkspace::carrying_devices();

        for _ in 0..self.config.max_steps {
            meter.charge_step(1)?;
            // Times the whole attempted point: stamping, the inner Newton
            // run and the controller's step proposal.
            let _step_span = tele.time(Phase::PtaStep);
            let h_eff = alpha * h;
            // CEPTA series resistance at the end of this step.
            let r_t = match self.kind {
                PtaKind::Cepta(c) => c.r0 * (-(t + h) / params.tau).exp(),
                _ => 0.0,
            };
            let g_node = match self.kind {
                PtaKind::Cepta(_) => 1.0 / (r_t + h_eff / params.c_node),
                _ => params.c_node / h_eff,
            };
            let g_branch = params.l_branch / h_eff;
            let kind = self.kind;
            let x_ref = &x_time;
            let vc_ref = &vc;
            let vsrc = vsrc_branches.as_slice();
            let mut pseudo = move |x_cur: &[f64], st: &mut Stamper<'_>| {
                match kind {
                    PtaKind::Pure | PtaKind::Damped(_) | PtaKind::Ramping(_) => {
                        for i in 0..num_nodes {
                            st.res_raw(i, g_node * (x_cur[i] - x_ref[i]));
                            st.jac_raw(i, i, g_node);
                        }
                    }
                    PtaKind::Cepta(_) => {
                        // Series r(t)–C branch to ground; companion current
                        // i = (v − v_c) / (r + h/C).
                        for i in 0..num_nodes {
                            st.res_raw(i, g_node * (x_cur[i] - vc_ref[i]));
                            st.jac_raw(i, i, g_node);
                        }
                    }
                }
                for &br in vsrc {
                    // Pseudo-inductor in series with the source; CEPTA adds
                    // the decaying series resistance.
                    st.res_raw(br, -(g_branch * (x_cur[br] - x_ref[br]) + r_t * x_cur[br]));
                    st.jac_raw(br, br, -(g_branch + r_t));
                }
            };

            // RPTA: independent sources ramp with pseudo time.
            let mut newton_cfg = self.config.newton.clone();
            if let PtaKind::Ramping(r) = self.kind {
                newton_cfg.source_scale = ((t + h) / r.ramp_time).min(1.0);
            }
            saved_state.copy_from_slice(&dev_state);
            let out = newton_iterate(
                circuit,
                &newton_cfg,
                &x_time,
                &mut dev_state,
                &mut pseudo,
                meter,
                &mut ws,
                &tele,
            )?;

            // Steady-state test on the *original* residual. `inf_norm` folds
            // with `f64::max`, which discards NaN — scan for finiteness
            // explicitly, otherwise a poisoned residual reads as 0.0 and a
            // garbage point is declared the operating point. A non-finite
            // original residual demotes the step to a rejection.
            let res_orig = if out.converged {
                ws.original_residual_into(circuit, &out.x, &mut res_orig_vec, &mut res_scratch);
                if res_orig_vec.iter().all(|v| v.is_finite()) {
                    Some(norms::inf_norm(&res_orig_vec))
                } else {
                    None
                }
            } else {
                None
            };

            if let Some(res_orig) = res_orig {
                stalled_rejects = 0;
                let gamma = norms::max_relative_change(&out.x, &x_time, 1e-6);
                t += h;

                // Flavour-specific state updates.
                if let PtaKind::Cepta(_) = self.kind {
                    for i in 0..num_nodes {
                        let i_branch = g_node * (out.x[i] - vc[i]);
                        vc[i] += h_eff / params.c_node * i_branch;
                    }
                }
                if let PtaKind::Damped(d) = self.kind {
                    for ((di, a), b) in dx.iter_mut().zip(&out.x).zip(&x_time) {
                        *di = a - b;
                    }
                    if has_prev_dx {
                        let dot: f64 = dx.iter().zip(&prev_dx).map(|(a, b)| a * b).sum();
                        if dot < 0.0 {
                            alpha = (alpha * d.boost).min(d.max_damping);
                        } else {
                            alpha = (alpha * d.decay).max(1.0);
                        }
                    }
                    std::mem::swap(&mut dx, &mut prev_dx);
                    has_prev_dx = true;
                }
                // The previous time point's buffer builds the next run's
                // iterate.
                ws.bufs.x_out = std::mem::replace(&mut x_time, out.x);

                let ramped_up = match self.kind {
                    PtaKind::Ramping(r) => t >= r.ramp_time,
                    _ => true,
                };
                let steady = ramped_up && res_orig <= self.config.steady_ftol;
                let obs = StepObservation {
                    nr_iterations: out.iterations,
                    nr_converged: true,
                    residual: res_orig,
                    gamma: Some(gamma),
                    pta_converged: steady,
                    step: h,
                    time: t,
                };
                let h_next = self.controller.next_step(&obs);
                tele.emit(Payload::PtaStep {
                    accepted: true,
                    h,
                    h_next,
                    gamma: Some(gamma),
                    nr_iterations: out.iterations,
                    residual: res_orig,
                    pta_converged: steady,
                    time: t,
                });
                if steady {
                    tele.emit(Payload::SolveDone { converged: true });
                    return Ok(Solution {
                        x: x_time,
                        stats: fold.snapshot(),
                        health: None,
                    });
                }
                h = h_next.clamp(self.config.h_min, self.config.h_max);
            } else {
                // Roll back the limiter history along with the solution;
                // the rejected iterate's buffer builds the next run's.
                dev_state.copy_from_slice(&saved_state);
                ws.bufs.x_out = out.x;
                if h <= self.config.h_min * 1.000_001 {
                    stalled_rejects += 1;
                    if stalled_rejects >= self.config.max_stalled_rejects {
                        // Fatal stall: the controller is not consulted (no
                        // next step exists), so the event carries h as-is.
                        tele.emit(Payload::PtaStep {
                            accepted: false,
                            h,
                            h_next: h,
                            gamma: None,
                            nr_iterations: out.iterations,
                            residual: out.residual,
                            pta_converged: false,
                            time: t,
                        });
                        return Err(SolveError::NonConvergent {
                            stats: fold.snapshot(),
                        });
                    }
                }
                let obs = StepObservation {
                    nr_iterations: out.iterations,
                    nr_converged: false,
                    residual: out.residual,
                    gamma: None,
                    pta_converged: false,
                    step: h,
                    time: t,
                };
                let h_next = self.controller.next_step(&obs);
                tele.emit(Payload::PtaStep {
                    accepted: false,
                    h,
                    h_next,
                    gamma: None,
                    nr_iterations: out.iterations,
                    residual: out.residual,
                    pta_converged: false,
                    time: t,
                });
                h = h_next.clamp(self.config.h_min, self.config.h_max);
            }
        }
        Err(SolveError::NonConvergent {
            stats: fold.snapshot(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NewtonRaphson, SerStepping, SimpleStepping};

    fn diode_chain() -> Circuit {
        rlpta_netlist::parse(
            "chain
             V1 in 0 5
             R1 in a 100
             D1 a b DX
             D2 b c DX
             D3 c 0 DX
             R2 b 0 10k
             .model DX D(IS=1e-14)",
        )
        .unwrap()
    }

    #[test]
    fn pure_pta_matches_newton_on_diode_chain() {
        let c = diode_chain();
        let direct = NewtonRaphson::default().solve(&c).unwrap();
        let mut pta = PtaSolver::with_config(PtaKind::Pure, SimpleStepping::default(), PtaConfig::default());
        let sol = pta.solve(&c).unwrap();
        for (a, b) in sol.x.iter().zip(&direct.x) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        assert!(sol.stats.converged);
        assert!(sol.stats.pta_steps > 0);
    }

    #[test]
    fn dpta_solves_bjt_amplifier() {
        let c = rlpta_netlist::parse(
            "amp
             V1 vcc 0 12
             R1 vcc b 47k
             R2 b 0 10k
             RC vcc c 4.7k
             RE e 0 1k
             Q1 c b e QN
             .model QN NPN(IS=1e-15 BF=100)",
        )
        .unwrap();
        let mut pta = PtaSolver::with_config(PtaKind::dpta(), SimpleStepping::default(), PtaConfig::default());
        let sol = pta.solve(&c).unwrap();
        let direct = NewtonRaphson::default().solve(&c).unwrap();
        assert!((sol.voltage(&c, "c").unwrap() - direct.voltage(&c, "c").unwrap()).abs() < 1e-3);
    }

    #[test]
    fn cepta_solves_mos_circuit() {
        let c = rlpta_netlist::parse(
            "mos
             V1 vdd 0 5
             V2 g 0 3
             RL vdd d 10k
             M1 d g 0 0 NM W=10u L=1u
             .model NM NMOS(VTO=1 KP=5e-5)",
        )
        .unwrap();
        let mut pta = PtaSolver::with_config(PtaKind::cepta(), SimpleStepping::default(), PtaConfig::default());
        let sol = pta.solve(&c).unwrap();
        assert!(sol.stats.converged);
        let direct = NewtonRaphson::default().solve(&c).unwrap();
        assert!((sol.voltage(&c, "d").unwrap() - direct.voltage(&c, "d").unwrap()).abs() < 1e-3);
    }

    #[test]
    fn ser_controller_also_converges() {
        let c = diode_chain();
        let mut pta = PtaSolver::with_config(PtaKind::dpta(), SerStepping::default(), PtaConfig::default());
        let sol = pta.solve(&c).unwrap();
        assert!(sol.stats.converged);
    }

    #[test]
    fn rejects_nonpositive_params() {
        let c = diode_chain();
        let mut pta =
            PtaSolver::with_config(PtaKind::Pure, SimpleStepping::default(), PtaConfig::default()).with_params(PtaParams {
                c_node: 0.0,
                l_branch: 1.0,
                tau: 1.0,
            });
        assert!(matches!(
            pta.solve(&c),
            Err(SolveError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn params_from_w_roundtrip() {
        let p = PtaParams::from_w(&[0.0, 0.0, 0.0]);
        assert!((p.c_node - 1.0).abs() < 1e-12);
        assert!((p.l_branch - 1.0).abs() < 1e-12);
        assert!((p.tau - 1.0).abs() < 1e-12);
    }

    #[test]
    fn step_budget_produces_nonconvergent_error() {
        let c = diode_chain();
        let cfg = PtaConfig {
            max_steps: 1,
            ..PtaConfig::default()
        };
        let mut pta = PtaSolver::with_config(PtaKind::Pure, SimpleStepping::default(), cfg);
        assert!(matches!(
            pta.solve(&c),
            Err(SolveError::NonConvergent { .. })
        ));
    }

    #[test]
    fn kind_names() {
        assert_eq!(PtaKind::Pure.name(), "pta");
        assert_eq!(PtaKind::dpta().name(), "dpta");
        assert_eq!(PtaKind::rpta().name(), "rpta");
        assert_eq!(PtaKind::cepta().name(), "cepta");
    }

    #[test]
    fn rpta_solves_diode_chain_and_matches_newton() {
        let c = diode_chain();
        let direct = NewtonRaphson::default().solve(&c).unwrap();
        let mut pta = PtaSolver::with_config(PtaKind::rpta(), SimpleStepping::default(), PtaConfig::default());
        let sol = pta.solve(&c).unwrap();
        assert!(sol.stats.converged);
        for (a, b) in sol.x.iter().zip(&direct.x) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn rpta_does_not_declare_steady_before_full_ramp() {
        // With a long ramp, convergence cannot happen before ramp_time.
        let c = diode_chain();
        let kind = PtaKind::Ramping(RptaConfig { ramp_time: 100.0 });
        let mut pta = PtaSolver::with_config(kind, SimpleStepping::default(), PtaConfig::default());
        let sol = pta.solve(&c).unwrap();
        assert!(sol.stats.converged);
        // The final pseudo time exceeded the ramp; verify through the true
        // residual at full-strength sources.
        assert!(sol.residual_norm(&c) < 1e-8);
    }

    #[test]
    fn solution_stats_populated() {
        let c = diode_chain();
        let mut pta = PtaSolver::with_config(PtaKind::Pure, SimpleStepping::default(), PtaConfig::default());
        let sol = pta.solve(&c).unwrap();
        assert!(sol.stats.nr_iterations >= sol.stats.pta_steps);
        // Every NR iteration sets up at least one linear solve; with one
        // matrix pattern all but the first are cheap replays.
        assert!(sol.stats.lu_total() >= sol.stats.nr_iterations);
        assert!(sol.stats.lu_refactorizations > sol.stats.lu_factorizations);
    }
}
