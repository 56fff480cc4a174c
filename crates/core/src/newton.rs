//! Damped Newton–Raphson with SPICE convergence criteria.

#[allow(deprecated)]
use crate::assembly::AssemblyMode;
use crate::assembly::NewtonWorkspace;
use crate::error::SolvePhase;
use crate::recovery::BudgetMeter;
use crate::telemetry::timing::time_phase;
use crate::telemetry::{Payload, Phase, StatsFold, Tele};
use crate::{Solution, SolveError};
use rlpta_devices::{EvalCtx, Stamper};
use rlpta_linalg::{norms, LuOp};
use rlpta_mna::{Circuit, StampPlan};

/// Extra-stamp hook: `(x, stamper)` — the PTA engine injects pseudo-element
/// companion models through it. The hook must push a fixed Jacobian target
/// sequence (values may depend on `x`, targets must not): it runs in
/// declare mode during stamp-plan resolution and in write mode afterwards.
/// Use the raw (`jac_raw`/`res_raw`) methods — solver indices are already
/// resolved and must not consume fault-injection draws.
pub(crate) type ExtraStamps<'a> = dyn FnMut(&[f64], &mut Stamper<'_>) + 'a;

/// Newton–Raphson configuration (SPICE option-deck equivalents).
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonConfig {
    /// Iteration budget (`ITL1`).
    pub max_iterations: usize,
    /// Relative update tolerance (`RELTOL`).
    pub reltol: f64,
    /// Absolute voltage tolerance (`VNTOL`).
    pub vntol: f64,
    /// Absolute current tolerance (`ABSTOL`).
    pub abstol: f64,
    /// Residual infinity-norm tolerance guarding against false convergence
    /// while device limiting is active.
    pub residual_tol: f64,
    /// Junction shunt conductance (`GMIN`).
    pub gmin: f64,
    /// Independent-source scale λ (1.0 outside source stepping).
    pub source_scale: f64,
    /// Per-iteration clamp on node-voltage updates, in volts; `0.0`
    /// disables global damping (device-level limiting still applies).
    pub max_voltage_step: f64,
    /// Ignored v1 shim: plan assembly is the only Newton path.
    #[deprecated(
        since = "0.1.0",
        note = "plan assembly is the only Newton path; this field is ignored"
    )]
    #[allow(deprecated)]
    pub assembly: AssemblyMode,
}

#[allow(deprecated)]
impl Default for NewtonConfig {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            reltol: 1e-3,
            vntol: 1e-6,
            abstol: 1e-12,
            residual_tol: 1e-6,
            gmin: EvalCtx::DEFAULT_GMIN,
            source_scale: 1.0,
            max_voltage_step: 2.0,
            assembly: AssemblyMode::default(),
        }
    }
}

/// Outcome of one Newton run, successful or not.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NrOutcome {
    /// Final iterate.
    pub x: Vec<f64>,
    /// Iterations spent.
    pub iterations: usize,
    /// Whether the run converged.
    pub converged: bool,
    /// Infinity norm of the (possibly pseudo-augmented) residual at the
    /// final iterate.
    pub residual: f64,
}

/// Runs damped Newton on the circuit plus optional extra stamps (the PTA
/// engine injects pseudo-element companion models through `extra`).
///
/// `state` is the junction-limiting device state (see
/// [`Circuit::new_state`]); callers that solve repeatedly (continuation,
/// PTA) pass a persistent state so the limiter history carries over.
///
/// Returns `Ok` with `converged == false` when the iteration budget runs out
/// (the PTA loop treats that as a rollback signal, not an error); `Err` only
/// on unrecoverable problems: a singular system after Gmin bumps, a
/// non-finite value that step rollback could not clear, or an exhausted
/// [`SolveBudget`](crate::SolveBudget) (`meter` charges one unit per
/// iteration, so wall-clock deadlines are honored to within a single
/// assembly + factorization).
///
/// `ws` carries the stamp plan and the symbolic LU pattern across runs;
/// callers that solve repeatedly on one circuit (PTA steps, continuation
/// stages, sweep points) pass a persistent workspace so every iteration
/// after the first is a pure write pass plus a pattern replay.
///
/// `tele` receives one `NrIteration` per budget-cleared iteration, one
/// `LuFactorized`/`LuReplayed` per factorization attempt (read off the
/// workspace's `last_op`) and a terminal `NrOutcome` on both `Ok` paths —
/// the raw counters of [`crate::SolveStats`] are folds of these events.
// Internal plumbing shared by every solver; the alternative — a context
// struct rebuilt at each call site — would just rename the arguments.
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton_iterate(
    circuit: &Circuit,
    config: &NewtonConfig,
    x0: &[f64],
    state: &mut [f64],
    extra: &mut ExtraStamps<'_>,
    meter: &mut BudgetMeter,
    ws: &mut NewtonWorkspace,
    tele: &Tele<'_>,
) -> Result<NrOutcome, SolveError> {
    let dim = circuit.dim();
    debug_assert_eq!(x0.len(), dim, "x0 dimension mismatch");
    let num_nodes = circuit.num_nodes();
    // Whole-run timing span; the guard emits on every exit path, error
    // returns included.
    let _nr_span = tele.time(Phase::NewtonSolve);

    let mut x = x0.to_vec();
    ws.bufs.start_run(dim, state.len());
    let mut lu_full = 0usize;
    let mut lu_replay = 0usize;
    let mut last_residual = f64::INFINITY;

    // Resolve once per structure; a service-seeded plan skips this.
    ws.ensure_plan(dim, || {
        time_phase!(
            tele,
            Phase::StampResolve,
            StampPlan::resolve(circuit, &mut |st| extra(&x, st))
        )
    });

    for iter in 1..=config.max_iterations {
        meter.charge_nr(1)?;
        tele.emit(Payload::NrIteration { iteration: iter });
        let ctx = EvalCtx {
            x: &x,
            gmin: config.gmin,
            source_scale: config.source_scale,
        };
        let stamps_finite = time_phase!(
            tele,
            Phase::StampWrite,
            ws.eval(circuit, &ctx, state, &mut |st| extra(&x, st))
        );
        #[cfg(feature = "faults")]
        crate::recovery::perturb_residual(&mut ws.bufs.res);

        // Non-finite guard on stamps: a NaN/Inf in the assembled system
        // (device model evaluated out of range, overflowing exponential…)
        // must not reach the factorization. Retreat halfway toward the last
        // clean iterate and retry; each retreat consumes an iteration, so
        // the loop still terminates. With no clean iterate to retreat to,
        // the poison is structural — fail. The check covers every *raw*
        // stamp and every residual entry.
        if !(stamps_finite && ws.bufs.res.iter().all(|v| v.is_finite())) {
            if !ws.bufs.has_prev {
                return Err(SolveError::NonFinite {
                    phase: SolvePhase::DeviceStamp,
                });
            }
            for (xi, pi) in x.iter_mut().zip(&ws.bufs.x_prev) {
                *xi = 0.5 * (*xi + *pi);
            }
            last_residual = f64::INFINITY;
            continue;
        }
        last_residual = norms::inf_norm(&ws.bufs.res);

        // Factorize, escalating a diagonal Gmin shunt on singularity. The
        // escalation runs on a lazily-built (pattern ∪ diagonals) companion
        // matrix whose cumulative summation order matches appending the
        // shunts to the triplet list (the `rlpta-mna::plan` oracle).
        for bump in 0..4 {
            if bump > 0 {
                ws.add_gmin_bump(bump, num_nodes);
            }
            // Deferred timer: full factorize vs symbolic replay is only
            // known after the call.
            let lu_timer = tele.timer();
            match ws.factorize(bump > 0) {
                Ok(LuOp::Replay) => {
                    lu_replay += 1;
                    lu_timer.finish(tele, Phase::LuReplay);
                    tele.emit(Payload::LuReplayed { dim });
                    break;
                }
                Ok(LuOp::Full) => {
                    lu_full += 1;
                    lu_timer.finish(tele, Phase::LuFactorize);
                    tele.emit(Payload::LuFactorized { dim });
                    break;
                }
                // A failed call always went through the full path (replay
                // failures fall back internally), so it counts as an
                // attempted full factorization.
                Err(_) if bump < 3 => {
                    lu_full += 1;
                    lu_timer.finish(tele, Phase::LuFactorize);
                    tele.emit(Payload::LuFactorized { dim });
                }
                Err(e) => {
                    // The local counter feeds only the NrOutcome payload,
                    // which this error return never emits; the event alone
                    // records the final failed attempt.
                    lu_timer.finish(tele, Phase::LuFactorize);
                    tele.emit(Payload::LuFactorized { dim });
                    return Err(SolveError::Singular(e));
                }
            }
        }

        time_phase!(tele, Phase::LuSolve, ws.solve_step())?;
        let bufs = &mut ws.bufs;
        // Non-finite guard on the update: a finite but near-singular system
        // can still produce Inf/NaN through the triangular solves. No
        // damping recovers a direction from NaN — fail structurally.
        if !bufs.dx.iter().all(|v| v.is_finite()) {
            return Err(SolveError::NonFinite {
                phase: SolvePhase::NewtonUpdate,
            });
        }

        // Global damping on node voltages — only meaningful for nonlinear
        // circuits (a linear solve is exact in one full step).
        if config.max_voltage_step > 0.0 && circuit.is_nonlinear() {
            let max_dv = bufs.dx[..num_nodes]
                .iter()
                .map(|v| v.abs())
                .fold(0.0, f64::max);
            if max_dv > config.max_voltage_step {
                let scale = config.max_voltage_step / max_dv;
                for d in bufs.dx.iter_mut() {
                    *d *= scale;
                }
            }
        }

        for ((n, a), b) in bufs.x_new.iter_mut().zip(&x).zip(&bufs.dx) {
            *n = a + b;
        }

        // SPICE per-unknown convergence: voltages against VNTOL, branch
        // currents against ABSTOL.
        let dx_ok = bufs.x_new.iter().zip(&x).enumerate().all(|(i, (n, o))| {
            let atol = if i < num_nodes {
                config.vntol
            } else {
                config.abstol
            };
            (n - o).abs() <= config.reltol * n.abs().max(o.abs()) + atol
        });

        // Rotate buffers: the old iterate becomes the rollback anchor, the
        // candidate becomes the iterate.
        std::mem::swap(&mut x, &mut bufs.x_new);
        std::mem::swap(&mut bufs.x_prev, &mut bufs.x_new);
        bufs.has_prev = true;

        if dx_ok {
            // Re-evaluate the residual at the accepted point to reject
            // false convergence while device limiting is still active: the
            // stamped (linearized-at-the-limited-point) residual can look
            // small while the *true* residual is astronomical, so a point
            // only counts as converged when the limiter state has stopped
            // moving as well (SPICE's "icheck" semantics). The next
            // iteration re-assembles before it factorizes, so this pass
            // builds no Jacobian.
            bufs.state_before.copy_from_slice(state);
            let ctx = EvalCtx {
                x: &x,
                gmin: config.gmin,
                source_scale: config.source_scale,
            };
            time_phase!(
                tele,
                Phase::StampWrite,
                ws.eval_residual(circuit, &ctx, state, &mut |st| extra(&x, st))
            );
            let bufs = &mut ws.bufs;
            #[cfg(feature = "faults")]
            crate::recovery::perturb_residual(&mut bufs.res);
            // `inf_norm` folds with `f64::max`, which *discards* NaN — a
            // poisoned residual would read as 0.0 and convergence-check
            // true. Scan for finiteness first; a poisoned point is simply
            // not converged (the guard at the top of the next iteration
            // handles the retreat).
            if !bufs.res.iter().all(|v| v.is_finite()) {
                last_residual = f64::INFINITY;
                continue;
            }
            last_residual = norms::inf_norm(&bufs.res);
            let limiting_active = state
                .iter()
                .zip(&bufs.state_before)
                .any(|(a, b)| (a - b).abs() > 1e-9);
            if !limiting_active && last_residual <= config.residual_tol {
                tele.emit(Payload::NrOutcome {
                    iterations: iter,
                    converged: true,
                    lu_factorizations: lu_full,
                    lu_refactorizations: lu_replay,
                    residual: last_residual,
                });
                return Ok(NrOutcome {
                    x,
                    iterations: iter,
                    converged: true,
                    residual: last_residual,
                });
            }
        }
    }
    tele.emit(Payload::NrOutcome {
        iterations: config.max_iterations,
        converged: false,
        lu_factorizations: lu_full,
        lu_refactorizations: lu_replay,
        residual: last_residual,
    });
    Ok(NrOutcome {
        x,
        iterations: config.max_iterations,
        converged: false,
        residual: last_residual,
    })
}

/// Plain Newton–Raphson DC solver (no continuation). Converges directly on
/// mildly nonlinear circuits; strongly nonlinear circuits need
/// [`GminStepping`](crate::GminStepping),
/// [`SourceStepping`](crate::SourceStepping) or
/// [`PtaSolver`](crate::PtaSolver).
///
/// # Example
///
/// ```
/// use rlpta_core::NewtonRaphson;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = rlpta_netlist::parse("t\nV1 a 0 2\nR1 a b 1k\nR2 b 0 3k\n")?;
/// let sol = NewtonRaphson::default().solve(&c)?;
/// assert!((sol.voltage(&c, "b").unwrap() - 1.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct NewtonRaphson {
    config: NewtonConfig,
}

impl NewtonRaphson {
    /// In-crate constructor; the public path is
    /// `DcEngine::builder().newton().newton_config(..)`.
    pub(crate) fn from_config(config: NewtonConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &NewtonConfig {
        &self.config
    }

    /// Solves for the DC operating point starting from the zero vector.
    ///
    /// # Errors
    ///
    /// [`SolveError::Singular`] for structurally defective circuits,
    /// [`SolveError::NonConvergent`] when the iteration budget is exhausted.
    pub fn solve(&self, circuit: &Circuit) -> Result<Solution, SolveError> {
        self.solve_from(circuit, &vec![0.0; circuit.dim()])
    }

    /// Solves starting from a caller-provided initial guess (used for
    /// warm starts by the continuation methods).
    ///
    /// # Errors
    ///
    /// See [`NewtonRaphson::solve`].
    pub fn solve_from(&self, circuit: &Circuit, x0: &[f64]) -> Result<Solution, SolveError> {
        self.solve_metered(circuit, x0, &mut BudgetMeter::unlimited(), &Tele::disabled())
    }

    pub(crate) fn solve_metered(
        &self,
        circuit: &Circuit,
        x0: &[f64],
        meter: &mut BudgetMeter,
        tele: &Tele<'_>,
    ) -> Result<Solution, SolveError> {
        newton_solve(circuit, &self.config, x0, meter, tele).0
    }
}

/// One Newton solve on a fresh workspace: seeded limiter state, the run,
/// its `SolveDone`, then a [`Solution`] or [`SolveError::NonConvergent`]
/// whose counters fold the events just emitted. Also returns the final
/// iterate of a non-converged run when it is finite — the warm start the
/// escalation ladder's Newton rung carries forward.
pub(crate) fn newton_solve(
    circuit: &Circuit,
    config: &NewtonConfig,
    x0: &[f64],
    meter: &mut BudgetMeter,
    tele: &Tele<'_>,
) -> (Result<Solution, SolveError>, Option<Vec<f64>>) {
    let fold = StatsFold::default();
    let tele = tele.child(&fold);
    let mut state = circuit.seeded_state(x0);
    let out = match newton_iterate(
        circuit,
        config,
        x0,
        &mut state,
        &mut |_, _| {},
        meter,
        &mut NewtonWorkspace::new(),
        &tele,
    ) {
        Ok(out) => out,
        Err(e) => return (Err(e), None),
    };
    tele.emit(Payload::SolveDone {
        converged: out.converged,
    });
    let stats = fold.snapshot();
    if out.converged {
        (
            Ok(Solution {
                x: out.x,
                stats,
                health: None,
            }),
            None,
        )
    } else {
        let carry = out.x.iter().all(|v| v.is_finite()).then_some(out.x);
        (Err(SolveError::NonConvergent { stats }), carry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_divider() {
        let c = rlpta_netlist::parse("t\nV1 a 0 10\nR1 a b 2k\nR2 b 0 3k\n").unwrap();
        let sol = NewtonRaphson::default().solve(&c).unwrap();
        assert!((sol.voltage(&c, "b").unwrap() - 6.0).abs() < 1e-9);
        assert!(sol.stats.converged);
        assert!(sol.stats.nr_iterations <= 3, "linear should converge fast");
    }

    #[test]
    fn diode_clamp() {
        let c = rlpta_netlist::parse(
            "t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)\n",
        )
        .unwrap();
        let sol = NewtonRaphson::default().solve(&c).unwrap();
        let v = sol.voltage(&c, "out").unwrap();
        assert!(v > 0.55 && v < 0.85, "diode drop {v}");
        assert!(sol.residual_norm(&c) < 1e-6);
    }

    #[test]
    fn bjt_common_emitter_bias() {
        let c = rlpta_netlist::parse(
            "t
             V1 vcc 0 12
             R1 vcc b 100k
             R2 b 0 22k
             RC vcc c 2.2k
             RE e 0 1k
             Q1 c b e QN
             .model QN NPN(IS=1e-15 BF=120)",
        )
        .unwrap();
        let sol = NewtonRaphson::default().solve(&c).unwrap();
        let vb = sol.voltage(&c, "b").unwrap();
        let ve = sol.voltage(&c, "e").unwrap();
        let vc = sol.voltage(&c, "c").unwrap();
        // Forward-active bias: vbe ≈ 0.6–0.8, collector between rails.
        assert!(vb - ve > 0.55 && vb - ve < 0.85, "vbe = {}", vb - ve);
        assert!(vc > ve && vc < 12.0, "vc = {vc}");
    }

    #[test]
    fn mosfet_inverter_logic_high_input() {
        let c = rlpta_netlist::parse(
            "t
             V1 vdd 0 5
             V2 g 0 5
             RL vdd d 10k
             M1 d g 0 0 NM W=20u L=2u
             .model NM NMOS(VTO=1 KP=5e-5)",
        )
        .unwrap();
        let sol = NewtonRaphson::default().solve(&c).unwrap();
        let vd = sol.voltage(&c, "d").unwrap();
        assert!(vd < 1.0, "NMOS on pulls output low, vd = {vd}");
    }

    #[test]
    fn nonconvergence_is_reported_not_looped() {
        // A pathological bistable: two cross-coupled ideal inverting VCVS
        // stages with huge gain make plain NR oscillate from a zero start.
        let c = rlpta_netlist::parse(
            "t
             V1 vdd 0 5
             R1 vdd a 1k
             R2 vdd b 1k
             E1 a 0 b 0 -1000
             E2 b 0 a 0 -1000
             R3 a 0 1k
             R4 b 0 1k
             ",
        )
        .unwrap();
        // This linear system actually solves; use a max_iterations=0-like
        // tight budget on a nonlinear deck instead.
        let hard = rlpta_netlist::parse(
            "t
             V1 in 0 5
             R1 in out 1
             D1 out 0 DX
             .model DX D(IS=1e-14)",
        )
        .unwrap();
        let cfg = NewtonConfig {
            max_iterations: 2,
            ..NewtonConfig::default()
        };
        let err = NewtonRaphson::from_config(cfg).solve(&hard).unwrap_err();
        assert!(matches!(err, SolveError::NonConvergent { .. }));
        let _ = NewtonRaphson::default().solve(&c);
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let c = rlpta_netlist::parse(
            "t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)\n",
        )
        .unwrap();
        let nr = NewtonRaphson::default();
        let cold = nr.solve(&c).unwrap();
        let warm = nr.solve_from(&c, &cold.x).unwrap();
        assert!(
            warm.stats.nr_iterations <= 2,
            "warm start: {}",
            warm.stats.nr_iterations
        );
    }

    #[test]
    fn inductor_acts_as_short() {
        let c = rlpta_netlist::parse("t\nV1 a 0 3\nL1 a b 1m\nR1 b 0 1k\n").unwrap();
        let sol = NewtonRaphson::default().solve(&c).unwrap();
        assert!((sol.voltage(&c, "b").unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn capacitor_acts_as_open() {
        let c = rlpta_netlist::parse("t\nV1 a 0 3\nR1 a b 1k\nC1 b 0 1u\nR2 b 0 1k\n").unwrap();
        let sol = NewtonRaphson::default().solve(&c).unwrap();
        assert!((sol.voltage(&c, "b").unwrap() - 1.5).abs() < 1e-9);
    }
}
