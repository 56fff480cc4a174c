//! Independent solution certification and numerical-health grading.
//!
//! A solver reporting "converged" is a claim about its *own* update norm —
//! not proof the operating point satisfies KCL. This module re-derives the
//! evidence from scratch at the returned iterate: it re-assembles the
//! nonlinear residual `F(x)` (limiter-free, default Gmin, full sources),
//! refactorizes the Jacobian `J(x)` and reads off three health signals:
//!
//! * **residual norm** — `‖F(x)‖_∞`, the direct KCL error,
//! * **condition estimate** — Hager's 1-norm estimate of `κ₁(J)`
//!   ([`SparseLu::cond_estimate_with`]), how much of the residual accuracy
//!   survives the linear algebra,
//! * **pivot growth** — [`SparseLu::pivot_growth`], element growth during
//!   elimination (the classic backward-stability red flag).
//!
//! The three fold into a [`HealthGrade`]:
//!
//! * [`Certified`](HealthGrade::Certified) — residual at or below the
//!   solver's own convergence tolerance **and** no conditioning red flags.
//! * [`Suspect`](HealthGrade::Suspect) — the residual is acceptable but the
//!   factorization looks fragile (huge condition estimate, runaway pivot
//!   growth, or the certification factorization itself failed). The
//!   solution is still returned; downstream consumers decide.
//! * [`Rejected`](HealthGrade::Rejected) — the independently re-evaluated
//!   residual is non-finite or far above tolerance. The engine never
//!   returns such a point as-is.
//!
//! Every engine path runs one gate, the crate-private `certified`: grade
//! the point, attempt an iterative-refinement rescue of a rejected one
//! (plain, then equilibrated), attach the report, and turn a surviving
//! rejection into [`SolveError::CertificationFailed`]. What that error
//! means is the caller's: the ladder demotes the rung and escalates, the
//! warm sweep/service path falls back to the ladder, and the direct Newton
//! and PTA strategies return it.
//!
//! Every certified solve emits one [`Payload::Certified`] telemetry event
//! (after any rescue) and each rescue correction emits
//! [`Payload::RefinementStep`], so the metrics registry counts grades and
//! rescue work per run with no extra bookkeeping. The whole gate runs under
//! one [`Phase::Certify`] timing span.
//!
//! # Warm certification
//!
//! A `CertifyWorkspace` carries certification's own state from one call to
//! the next: a [`StampPlan`], the CSR buffer the plan scatters into, a
//! fresh-equivalent [`LuWorkspace`] and the Hager scratch. A chain's
//! workspace starts from the chain's Newton plan when that plan has no
//! solver extra stamps; otherwise it resolves its own. Either way every
//! call re-verifies the plan against the circuit with a declare pass in
//! the workspace's own buffers and resolves a new plan when the check
//! fails, so a workspace can move between circuits. A plan holds no
//! values and takes no fault draws: it is a pure function of the declare
//! pass it was verified against, so whoever resolved it, plan assembly is
//! bitwise triplet assembly followed by `Triplet::to_csr` (the plan ≡
//! triplet contract the assembly tests pin), and certification stays
//! independent of the solver while sorting nothing. Its numeric path is
//! its own: the seeded limiter state, the scatter and the LU. Its LU
//! pattern is recorded from its own full factorization, never read from
//! the Newton workspace, and a replay is accepted only when every recorded
//! pivot is the one [`SparseLu::factorize`] would choose on the new
//! values — so the replayed factorization is bitwise the fresh one, and a
//! workspace report equals [`certify`]'s whatever the workspace saw
//! before.

use crate::error::SolveError;
use crate::telemetry::{interest, Payload, Phase, Tele};
use crate::Solution;
use rlpta_devices::EvalCtx;
use rlpta_linalg::{norms, CondScratch, CsrMatrix, LuWorkspace, SparseLu};
use rlpta_mna::{Circuit, DeclareScratch, ResidualScratch, StampPlan};
use std::sync::Arc;

/// Residual infinity-norm at or below which a solution can be graded
/// [`HealthGrade::Certified`] — matches the plain Newton solver's default
/// `residual_tol`, so an honestly converged solve certifies cleanly.
pub const RESIDUAL_CERTIFIED: f64 = 1e-6;

/// Residual infinity-norm above which a solution is graded
/// [`HealthGrade::Rejected`] outright (three decades of slack over
/// [`RESIDUAL_CERTIFIED`] for loosened user tolerances).
pub const RESIDUAL_REJECTED: f64 = 1e-3;

/// Condition estimate at or above which an otherwise-clean solution is
/// downgraded to [`HealthGrade::Suspect`]: at `κ₁ ≈ 1e12` roughly twelve of
/// sixteen double-precision digits are lost in the linear solves.
pub const COND_SUSPECT: f64 = 1e12;

/// Pivot growth at or above which an otherwise-clean solution is downgraded
/// to [`HealthGrade::Suspect`] — the same threshold at which the
/// factorization itself switches to equilibration.
pub const GROWTH_SUSPECT: f64 = 1e8;

/// Maximum Newton-correction steps per rescue attempt in `certify_into`.
const RESCUE_STEPS: usize = 3;

/// Refinement-iteration cap per rescue correction.
const RESCUE_REFINEMENT_CAP: usize = 8;

/// Certification verdict on one operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthGrade {
    /// Independently verified: small residual, no conditioning red flags.
    Certified,
    /// Usable but fragile: acceptable residual, questionable numerics.
    Suspect,
    /// The residual check failed; the point must not be trusted.
    Rejected,
}

impl HealthGrade {
    /// Stable lowercase name (used in telemetry and reports).
    pub fn name(&self) -> &'static str {
        match self {
            HealthGrade::Certified => "certified",
            HealthGrade::Suspect => "suspect",
            HealthGrade::Rejected => "rejected",
        }
    }
}

impl std::fmt::Display for HealthGrade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The numerical-health record attached to every engine-returned
/// [`Solution`].
///
/// All float fields are guaranteed finite-or-infinite, never NaN (a NaN
/// measurement is reported as `f64::INFINITY`), so the derived `PartialEq`
/// honours the engine's bit-identical determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// `‖F(x)‖_∞` of the independently re-assembled KCL residual.
    pub residual_norm: f64,
    /// Hager 1-norm condition estimate of `J(x)`; `INFINITY` when the
    /// certification factorization failed.
    pub cond_estimate: f64,
    /// Pivot growth of the certification factorization; `INFINITY` when it
    /// failed.
    pub pivot_growth: f64,
    /// The folded verdict.
    pub grade: HealthGrade,
}

/// Maps NaN to `INFINITY` so reports stay `PartialEq`-comparable.
fn sanitize(v: f64) -> f64 {
    if v.is_nan() {
        f64::INFINITY
    } else {
        v
    }
}

fn grade_of(residual_norm: f64, cond: f64, growth: f64) -> HealthGrade {
    if !residual_norm.is_finite() || residual_norm > RESIDUAL_REJECTED {
        HealthGrade::Rejected
    } else if residual_norm <= RESIDUAL_CERTIFIED && cond < COND_SUSPECT && growth < GROWTH_SUSPECT
    {
        HealthGrade::Certified
    } else {
        HealthGrade::Suspect
    }
}

/// Certification's reusable state: its stamp plan and the buffers of its
/// re-verification, the CSR the plan scatters the Jacobian into, a
/// fresh-equivalent LU workspace and the Hager scratch (see the module
/// docs). Reports do not depend on what the workspace certified before.
#[derive(Debug)]
pub(crate) struct CertifyWorkspace {
    plan: Option<Arc<StampPlan>>,
    declare: DeclareScratch,
    csr: CsrMatrix,
    res: Vec<f64>,
    state: Vec<f64>,
    seed: ResidualScratch,
    lu: LuWorkspace,
    cond: CondScratch,
}

impl Default for CertifyWorkspace {
    fn default() -> Self {
        Self {
            plan: None,
            declare: DeclareScratch::default(),
            csr: CsrMatrix::default(),
            res: Vec::new(),
            state: Vec::new(),
            seed: ResidualScratch::default(),
            lu: LuWorkspace::fresh_equivalent(),
            cond: CondScratch::default(),
        }
    }
}

impl CertifyWorkspace {
    /// Takes `plan` as the workspace's plan when the workspace has none
    /// yet and `plan` carries no solver extra stamps (a plan with them
    /// would under-run the limiter-free scatter). A plan is a pure
    /// function of a declare pass and every call re-verifies it against
    /// its circuit, so a taken plan gives the reports a resolved one would.
    pub(crate) fn adopt_plan(&mut self, plan: &Arc<StampPlan>) {
        if self.plan.is_none() && plan.device_pushes() == plan.len() {
            self.csr = plan.new_matrix();
            self.plan = Some(Arc::clone(plan));
        }
    }

    /// One limiter-free assembly at `x` through the workspace's plan into
    /// `csr` (`J(x)`) and `res` (`F(x)`), after re-verifying the plan
    /// against `circuit` (a new one is resolved when it does not match).
    fn assemble(&mut self, circuit: &Circuit, x: &[f64]) {
        let plan = match self.plan.take() {
            Some(plan) if plan.verify_with(circuit, &mut self.declare) => plan,
            _ => {
                let plan = StampPlan::resolve(circuit, &mut |_| {});
                self.csr = plan.new_matrix();
                Arc::new(plan)
            }
        };
        self.res.resize(circuit.dim(), 0.0);
        self.state.resize(circuit.state_len(), 0.0);
        circuit.seeded_state_into(x, &mut self.state, &mut self.seed);
        plan.eval_into(
            circuit,
            &EvalCtx::dc(x),
            &mut self.csr,
            &mut self.res,
            &mut self.state,
            &mut |_| {},
        );
        self.plan = Some(plan);
    }

    /// [`certify`] on this workspace's buffers; bitwise the same report.
    pub(crate) fn certify(&mut self, circuit: &Circuit, x: &[f64]) -> HealthReport {
        if x.len() != circuit.dim() || !x.iter().all(|v| v.is_finite()) {
            return HealthReport {
                residual_norm: f64::INFINITY,
                cond_estimate: f64::INFINITY,
                pivot_growth: f64::INFINITY,
                grade: HealthGrade::Rejected,
            };
        }
        self.assemble(circuit, x);
        // `inf_norm` folds with `f64::max`, which discards NaN — scan first
        // so a poisoned residual rejects instead of reading as 0.0.
        let residual_norm = if self.res.iter().all(|v| v.is_finite()) {
            norms::inf_norm(&self.res)
        } else {
            f64::INFINITY
        };
        let (cond_estimate, pivot_growth) = match self.lu.factorize(&self.csr) {
            Ok(lu) => (
                sanitize(
                    lu.cond_estimate_with(&self.csr, &mut self.cond)
                        .unwrap_or(f64::INFINITY),
                ),
                sanitize(lu.pivot_growth()),
            ),
            Err(_) => (f64::INFINITY, f64::INFINITY),
        };
        HealthReport {
            residual_norm: sanitize(residual_norm),
            cond_estimate,
            pivot_growth,
            grade: grade_of(residual_norm, cond_estimate, pivot_growth),
        }
    }
}

/// Independently certifies an operating point: re-assembles the residual
/// and Jacobian at `x` from the circuit alone (no solver state) and grades
/// the result. Pure — same circuit and `x` always produce the same report.
pub fn certify(circuit: &Circuit, x: &[f64]) -> HealthReport {
    CertifyWorkspace::default().certify(circuit, x)
}

/// One rescue pass: up to [`RESCUE_STEPS`] Newton corrections at the
/// current iterate, each linear solve iteratively refined to its residual
/// plateau. Mutates `x` only with strictly improving steps; returns the
/// best report seen.
fn rescue_pass(
    ws: &mut CertifyWorkspace,
    circuit: &Circuit,
    x: &mut Vec<f64>,
    equilibrate: bool,
    mut best: HealthReport,
    tele: &Tele<'_>,
) -> HealthReport {
    for step in 1..=RESCUE_STEPS {
        ws.assemble(circuit, x);
        if !ws.res.iter().all(|v| v.is_finite()) {
            break;
        }
        let a = &ws.csr;
        let lu = if equilibrate {
            SparseLu::factorize_equilibrated(a)
        } else {
            SparseLu::factorize(a)
        };
        let Ok(lu) = lu else { break };
        let neg_f: Vec<f64> = ws.res.iter().map(|v| -v).collect();
        let Ok(refined) = lu.solve_refined(a, &neg_f, RESCUE_REFINEMENT_CAP) else {
            break;
        };
        let candidate: Vec<f64> = x.iter().zip(&refined.x).map(|(a, b)| a + b).collect();
        let report = ws.certify(circuit, &candidate);
        tele.emit(Payload::RefinementStep {
            step,
            residual: report.residual_norm,
        });
        if report.residual_norm < best.residual_norm {
            *x = candidate;
            best = report;
            if best.grade != HealthGrade::Rejected {
                break;
            }
        } else {
            // Corrections stopped paying — further steps from the same
            // iterate would recompute the same stall.
            break;
        }
    }
    best
}

/// Certifies `solution` in place on `ws`: grades it, attempts the
/// refinement rescue when the grade is [`HealthGrade::Rejected`] (plain
/// corrections first, then equilibrated refactorization), attaches the
/// final [`HealthReport`] and emits one [`Payload::Certified`] event, all
/// under one [`Phase::Certify`] span. Returns the final grade.
pub(crate) fn certify_into(
    ws: &mut CertifyWorkspace,
    circuit: &Circuit,
    solution: &mut Solution,
    tele: &Tele<'_>,
) -> HealthGrade {
    let _span = tele.time(Phase::Certify);
    let mut report = ws.certify(circuit, &solution.x);
    // The workspace's history must never show in a report. (Not under
    // `faults`: the cold re-grade would take an extra injection draw.)
    #[cfg(all(debug_assertions, not(feature = "faults")))]
    debug_assert_eq!(report, certify(circuit, &solution.x));
    if report.grade == HealthGrade::Rejected && solution.x.iter().all(|v| v.is_finite()) {
        let mut x = solution.x.clone();
        for equilibrate in [false, true] {
            report = rescue_pass(ws, circuit, &mut x, equilibrate, report, tele);
            if report.grade != HealthGrade::Rejected {
                break;
            }
        }
        if report.grade != HealthGrade::Rejected {
            solution.x = x;
        }
    }
    tele.emit_with(interest!("Certified"), || Payload::Certified {
        grade: report.grade.name().to_string(),
        residual: report.residual_norm,
        cond: report.cond_estimate,
        growth: report.pivot_growth,
    });
    let grade = report.grade;
    solution.health = Some(report);
    grade
}

/// The certification gate (see the module docs): [`certify_into`] on
/// `ws`, then a surviving [`HealthGrade::Rejected`] becomes
/// [`SolveError::CertificationFailed`] carrying the final residual.
pub(crate) fn certified(
    ws: &mut CertifyWorkspace,
    circuit: &Circuit,
    mut solution: Solution,
    tele: &Tele<'_>,
) -> Result<Solution, SolveError> {
    if certify_into(ws, circuit, &mut solution, tele) == HealthGrade::Rejected {
        let residual_norm = solution
            .health
            .map_or(f64::INFINITY, |report| report.residual_norm);
        return Err(SolveError::CertificationFailed { residual_norm });
    }
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::NewtonWorkspace;
    use crate::telemetry::{Collector, Span};
    use crate::NewtonRaphson;

    fn diode_clamp() -> Circuit {
        rlpta_netlist::parse("t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)\n")
            .unwrap()
    }

    #[test]
    fn converged_newton_point_certifies() {
        let c = diode_clamp();
        let sol = NewtonRaphson::default().solve(&c).unwrap();
        let report = certify(&c, &sol.x);
        assert_eq!(report.grade, HealthGrade::Certified, "{report:?}");
        assert!(report.residual_norm <= RESIDUAL_CERTIFIED);
        assert!(report.cond_estimate >= 1.0);
        assert!(report.pivot_growth >= 1.0);
    }

    #[test]
    fn perturbed_point_is_rejected() {
        let c = diode_clamp();
        let mut sol = NewtonRaphson::default().solve(&c).unwrap();
        sol.x[0] += 0.5;
        let report = certify(&c, &sol.x);
        assert_eq!(report.grade, HealthGrade::Rejected, "{report:?}");
        assert!(report.residual_norm > RESIDUAL_REJECTED);
    }

    #[test]
    fn non_finite_point_is_rejected_with_finite_free_report() {
        let c = diode_clamp();
        let x = vec![f64::NAN; c.dim()];
        let report = certify(&c, &x);
        assert_eq!(report.grade, HealthGrade::Rejected);
        assert!(!report.residual_norm.is_nan());
        assert!(!report.cond_estimate.is_nan());
        assert!(!report.pivot_growth.is_nan());
    }

    #[test]
    fn wrong_dimension_is_rejected() {
        let c = diode_clamp();
        assert_eq!(certify(&c, &[0.0]).grade, HealthGrade::Rejected);
    }

    #[test]
    fn certify_is_deterministic() {
        let c = diode_clamp();
        let sol = NewtonRaphson::default().solve(&c).unwrap();
        assert_eq!(certify(&c, &sol.x), certify(&c, &sol.x));
    }

    #[test]
    fn rescue_repairs_a_mildly_perturbed_linear_point() {
        // A linear divider: one exact Newton correction from any starting
        // point lands on the operating point, so the rescue must recover a
        // rejected perturbed iterate without escalating.
        let c = rlpta_netlist::parse("t\nV1 a 0 10\nR1 a b 2k\nR2 b 0 3k\n").unwrap();
        let exact = NewtonRaphson::default().solve(&c).unwrap();
        let collector = Arc::new(Collector::default());
        let tele = Tele::root(&*collector, Span::default());
        let mut sol = exact.clone();
        sol.x[0] += 2.0;
        assert_eq!(certify(&c, &sol.x).grade, HealthGrade::Rejected);
        let grade = certify_into(&mut CertifyWorkspace::default(), &c, &mut sol, &tele);
        assert_eq!(grade, HealthGrade::Certified, "{:?}", sol.health);
        for (got, want) in sol.x.iter().zip(&exact.x) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        let events = collector.events();
        assert!(events
            .iter()
            .any(|e| matches!(e.payload, Payload::RefinementStep { .. })));
        assert!(events.iter().any(|e| matches!(
            &e.payload,
            Payload::Certified { grade, .. } if grade == "certified"
        )));
    }

    #[test]
    fn certify_into_attaches_report_and_emits_event() {
        let c = diode_clamp();
        let mut sol = NewtonRaphson::default().solve(&c).unwrap();
        let collector = Arc::new(Collector::default());
        let tele = Tele::root(&*collector, Span::default());
        let grade = certify_into(&mut CertifyWorkspace::default(), &c, &mut sol, &tele);
        assert_eq!(grade, HealthGrade::Certified);
        let health = sol.health.expect("attached");
        assert_eq!(health.grade, HealthGrade::Certified);
        assert_eq!(
            collector
                .events()
                .iter()
                .filter(|e| e.payload.kind() == "Certified")
                .count(),
            1
        );
    }

    /// A report's fields as bits.
    fn report_bits(r: &HealthReport) -> (u64, u64, u64, HealthGrade) {
        (
            r.residual_norm.to_bits(),
            r.cond_estimate.to_bits(),
            r.pivot_growth.to_bits(),
            r.grade,
        )
    }

    /// Along chains of jittered points on one structure, entered after
    /// other structures and dimensions, a long-lived workspace reports
    /// bitwise what the cold [`certify`] reports — and its warm
    /// certifications do replay. So does each circuit's chain workspace,
    /// which took the plan of that circuit's Newton run and, on that
    /// plan, never resolves one of its own.
    #[test]
    fn workspace_reports_equal_cold_certify_bitwise() {
        use rand::prelude::*;
        let mut circuits: Vec<Circuit> = ["gm1", "bias", "D10", "gm6"]
            .iter()
            .map(|n| rlpta_circuits::by_name(n).expect("known circuit").circuit)
            .collect();
        circuits.push(diode_clamp());
        circuits.push(
            rlpta_netlist::parse("t\nV1 a 0 10\nV2 b 0 3\nR1 a c 2k\nR2 b c 3k\nR3 c 0 1k\n")
                .unwrap(),
        );
        let engine = crate::DcEngine::builder().build();
        let points: Vec<Vec<f64>> = circuits
            .iter()
            .map(|c| engine.solve(c).expect("operating point").x)
            .collect();
        // One warm sweep-point solve per circuit leaves a Newton workspace
        // holding that circuit's resolved plan.
        let mut chains: Vec<NewtonWorkspace> = circuits
            .iter()
            .map(|c| {
                let mut nws = NewtonWorkspace::new();
                engine
                    .solve_warm_in(c, None, &mut nws, Span::default())
                    .expect("operating point");
                nws
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut ws = CertifyWorkspace::default();
        for _ in 0..24 {
            let i = rng.gen_range(0..circuits.len());
            // Mostly small jitter (a warm chain); now and then a far point.
            let spread = if rng.gen_bool(0.8) { 1e-4 } else { 0.5 };
            for _ in 0..rng.gen_range(1..8) {
                let x: Vec<f64> = points[i]
                    .iter()
                    .map(|v| v * (1.0 + spread * rng.gen_range(-1.0..1.0)))
                    .collect();
                let warm = ws.certify(&circuits[i], &x);
                let chain = chains[i].certify_workspace().certify(&circuits[i], &x);
                let cold = certify(&circuits[i], &x);
                assert_eq!(report_bits(&warm), report_bits(&cold), "circuit {i}");
                assert_eq!(report_bits(&chain), report_bits(&cold), "chain {i}");
            }
        }
        let stats = ws.lu.stats();
        assert!(stats.refactorizations > 0, "no warm replay: {stats:?}");
        for (i, nws) in chains.iter_mut().enumerate() {
            let newton = Arc::clone(nws.plan().expect("Newton resolved a plan"));
            let held = nws.certify_workspace().plan.clone().expect("plan taken");
            assert!(Arc::ptr_eq(&held, &newton), "chain {i} resolved a plan");
        }
    }

    /// A plan with solver extra stamps (a PTA plan: pseudo-element shunts
    /// on every unknown's diagonal) is never taken: its scatter expects
    /// more pushes than the limiter-free assembly makes. The workspace
    /// resolves its own plan and still reports what cold [`certify`] does.
    #[test]
    fn a_plan_with_extra_stamps_is_never_taken() {
        let c = diode_clamp();
        let x = NewtonRaphson::default().solve(&c).unwrap().x;
        let dim = c.dim();
        let pta_plan = Arc::new(StampPlan::resolve(&c, &mut |st| {
            for i in 0..dim {
                st.jac_raw(i, i, 0.0);
            }
        }));
        assert!(pta_plan.device_pushes() < pta_plan.len());
        let mut ws = CertifyWorkspace::default();
        ws.adopt_plan(&pta_plan);
        assert!(ws.plan.is_none());
        let mut nws = NewtonWorkspace::seeded(LuWorkspace::default(), Some(Arc::clone(&pta_plan)));
        let chain = nws.certify_workspace();
        assert!(chain.plan.is_none());
        let cold = report_bits(&certify(&c, &x));
        assert_eq!(report_bits(&chain.certify(&c, &x)), cold);
        let own = chain.plan.clone().expect("resolved its own");
        assert!(!Arc::ptr_eq(&own, &pta_plan));
        assert_eq!(own.device_pushes(), own.len());
        // A plan without extra stamps is taken, once: a workspace that
        // holds a plan keeps it.
        let bare = Arc::new(StampPlan::resolve(&c, &mut |_| {}));
        ws.adopt_plan(&bare);
        assert!(ws.plan.as_ref().is_some_and(|p| Arc::ptr_eq(p, &bare)));
        ws.adopt_plan(&Arc::new(StampPlan::resolve(&c, &mut |_| {})));
        assert!(ws.plan.as_ref().is_some_and(|p| Arc::ptr_eq(p, &bare)));
    }

    /// Under `faults`, one certification takes exactly one singular-pivot
    /// draw — cold or warm — and a fired draw fails its factorization
    /// (infinite condition and growth) with no full-factorization retry:
    /// the fired sequence is the one plain factorizations see.
    #[cfg(feature = "faults")]
    #[test]
    fn one_certification_takes_exactly_one_singular_draw() {
        let c = diode_clamp();
        let x = NewtonRaphson::default().solve(&c).unwrap().x;
        let (seed, period, calls) = (5, 3, 60);
        rlpta_linalg::faults::arm_singular(seed, period);
        let mut ws = CertifyWorkspace::default();
        let fired: Vec<bool> = (0..calls)
            .map(|_| {
                let r = ws.certify(&c, &x);
                assert_ne!(r.grade, HealthGrade::Rejected);
                r.cond_estimate == f64::INFINITY && r.pivot_growth == f64::INFINITY
            })
            .collect();
        rlpta_linalg::faults::arm_singular(seed, period);
        let id = rlpta_linalg::CsrMatrix::identity(2);
        let want: Vec<bool> = (0..calls)
            .map(|_| SparseLu::factorize(&id).is_err())
            .collect();
        rlpta_linalg::faults::disarm();
        assert_eq!(fired, want);
        assert!(fired.contains(&true) && fired.contains(&false));
        assert!(ws.lu.stats().refactorizations > 0, "warm calls replayed");
    }

    #[test]
    fn grade_names_are_stable() {
        assert_eq!(HealthGrade::Certified.name(), "certified");
        assert_eq!(HealthGrade::Suspect.name(), "suspect");
        assert_eq!(HealthGrade::Rejected.name(), "rejected");
        assert_eq!(HealthGrade::Suspect.to_string(), "suspect");
    }

    #[test]
    fn grade_boundaries() {
        use HealthGrade::*;
        assert_eq!(grade_of(1e-9, 10.0, 2.0), Certified);
        assert_eq!(grade_of(1e-9, COND_SUSPECT, 2.0), Suspect);
        assert_eq!(grade_of(1e-9, 10.0, GROWTH_SUSPECT), Suspect);
        assert_eq!(grade_of(1e-4, 10.0, 2.0), Suspect, "loose but usable");
        assert_eq!(grade_of(1e-2, 10.0, 2.0), Rejected);
        assert_eq!(grade_of(f64::NAN, 10.0, 2.0), Rejected);
        assert_eq!(grade_of(f64::INFINITY, 10.0, 2.0), Rejected);
    }
}
