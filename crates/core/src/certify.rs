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
//! Certification is a pass over the `NewtonWorkspace` of the solve it
//! certifies: a sweep chain's, a service group's, a direct Newton solve's
//! or a ladder run's. It scatters `J(x)` and `F(x)` through the
//! workspace's [`StampPlan`](rlpta_mna::StampPlan) into its working matrix
//! and residual, from the limiter state seeded at `x` in its start
//! buffers, and factorizes `J(x)` in the chain's own
//! [`LuWorkspace`](rlpta_linalg::LuWorkspace). It keeps nothing of its own
//! but the Hager scratch and the declare scratch that re-verifies the
//! plan. Every call re-verifies the installed plan against the circuit
//! with a declare pass and takes it only when it also carries no solver
//! extra stamps (a PTA plan's pseudo-element shunts would be left stale by
//! the limiter-free scatter); otherwise it resolves a device-only plan and
//! installs it. So a chain of plain Newton runs certifies on the plan its
//! Newton run resolved. A ladder certifies every rung's result in the
//! workspace of its Newton rung; a PTA strategy's result certifies in a
//! fresh one, as the workspaces of PTA, continuation and homotopy runs
//! hold plans with extra stamps.
//!
//! Certification also shares the chain's work where that cannot change a
//! bit of the report:
//!
//! * *The converged check.* A Newton run that converges under the default
//!   gmin and full sources, on a plan without extra stamps, ends on a full
//!   assembly at the returned `x`: its convergence check. The workspace
//!   keeps it in place. Certifying that same `x`, bit for bit, uses it
//!   when one limiter pass shows the check's limiter state is a landed
//!   fixed point at `x` and [`Circuit::seeding_lands`] holds there: the
//!   seeding walk would then end on the check's state, so a fresh
//!   assembly would see the check's inputs bit for bit. Any evaluation,
//!   plan install or run start in between forgets the check.
//! * *The Newton LU's pattern.* Certification factorizes with
//!   [`LuWorkspace::factorize_fresh`](rlpta_linalg::LuWorkspace::factorize_fresh),
//!   which replays the pattern the chain's Newton LU recorded (on a
//!   service cache hit, the cached one) and never records or replaces it,
//!   so the Newton runs after a certification replay exactly as they would
//!   without it.
//!
//! Reports stay bitwise [`certify`]'s whatever the workspace held before.
//! A plan holds no values and takes no fault draws: it is a pure function
//! of the declare pass it was verified against, so whoever resolved it,
//! plan assembly is bitwise triplet assembly followed by `Triplet::to_csr`
//! (the plan ≡ triplet contract the assembly tests pin). A pass that does
//! not take the check rewrites every slot, the residual and the seeded
//! state; a taken check is the assembly such a pass would write, and
//! debug builds evaluate afresh and assert it. A replay is accepted only
//! when every recorded pivot is the one [`SparseLu::factorize`] would
//! choose on the new values, checked against the pivot ranks the pattern
//! carries, so the replayed factorization is bitwise the fresh one; any
//! other matrix gets a full factorization. Under `faults` the check is
//! never taken, and a certification takes exactly one singular-injection
//! draw either way.

use crate::assembly::NewtonWorkspace;
use crate::error::SolveError;
use crate::telemetry::{interest, Payload, Phase, Tele};
use crate::Solution;
use rlpta_linalg::{norms, SparseLu};
use rlpta_mna::Circuit;

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

/// [`certify`] in `ws` (see the module docs); bitwise the same report.
pub(crate) fn certify_in(ws: &mut NewtonWorkspace, circuit: &Circuit, x: &[f64]) -> HealthReport {
    if x.len() != circuit.dim() || !x.iter().all(|v| v.is_finite()) {
        return HealthReport {
            residual_norm: f64::INFINITY,
            cond_estimate: f64::INFINITY,
            pivot_growth: f64::INFINITY,
            grade: HealthGrade::Rejected,
        };
    }
    let (a, res, lu, cond) = ws.certify_assembly(circuit, x);
    // `inf_norm` folds with `f64::max`, which discards NaN — scan first
    // so a poisoned residual rejects instead of reading as 0.0.
    let residual_norm = if res.iter().all(|v| v.is_finite()) {
        norms::inf_norm(res)
    } else {
        f64::INFINITY
    };
    let (cond_estimate, pivot_growth) = match lu.factorize_fresh(a) {
        Ok(lu) => (
            sanitize(lu.cond_estimate_with(a, cond).unwrap_or(f64::INFINITY)),
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

/// Independently certifies an operating point: re-assembles the residual
/// and Jacobian at `x` from the circuit alone (no solver state) and grades
/// the result. Pure — same circuit and `x` always produce the same report.
pub fn certify(circuit: &Circuit, x: &[f64]) -> HealthReport {
    certify_in(&mut NewtonWorkspace::new(), circuit, x)
}

/// One rescue pass: up to [`RESCUE_STEPS`] Newton corrections at the
/// current iterate, each linear solve iteratively refined to its residual
/// plateau. Mutates `x` only with strictly improving steps; returns the
/// best report seen.
fn rescue_pass(
    ws: &mut NewtonWorkspace,
    circuit: &Circuit,
    x: &mut Vec<f64>,
    equilibrate: bool,
    mut best: HealthReport,
    tele: &Tele<'_>,
) -> HealthReport {
    for step in 1..=RESCUE_STEPS {
        let (a, res, _, _) = ws.certify_assembly(circuit, x);
        if !res.iter().all(|v| v.is_finite()) {
            break;
        }
        let lu = if equilibrate {
            SparseLu::factorize_equilibrated(a)
        } else {
            SparseLu::factorize(a)
        };
        let Ok(lu) = lu else { break };
        let neg_f: Vec<f64> = res.iter().map(|v| -v).collect();
        let Ok(refined) = lu.solve_refined(a, &neg_f, RESCUE_REFINEMENT_CAP) else {
            break;
        };
        let candidate: Vec<f64> = x.iter().zip(&refined.x).map(|(a, b)| a + b).collect();
        let report = certify_in(ws, circuit, &candidate);
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
    ws: &mut NewtonWorkspace,
    circuit: &Circuit,
    solution: &mut Solution,
    tele: &Tele<'_>,
) -> HealthGrade {
    let _span = tele.time(Phase::Certify);
    let mut report = certify_in(ws, circuit, &solution.x);
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
    ws: &mut NewtonWorkspace,
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
    use crate::assembly::{CERTIFY_EVALS, PLAN_INSTALLS};
    use crate::newton::newton_from;
    use crate::recovery::BudgetMeter;
    use crate::telemetry::{Collector, Span};
    use crate::NewtonRaphson;
    use rlpta_linalg::LuWorkspace;
    use rlpta_mna::{DeclareScratch, StampPlan};
    use std::sync::Arc;

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
        let grade = certify_into(&mut NewtonWorkspace::new(), &c, &mut sol, &tele);
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
        let grade = certify_into(&mut NewtonWorkspace::new(), &c, &mut sol, &tele);
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

    /// Plans installed on this thread while `run` runs.
    fn plan_installs(run: impl FnOnce()) -> usize {
        let before = PLAN_INSTALLS.with(|n| n.get());
        run();
        PLAN_INSTALLS.with(|n| n.get()) - before
    }

    /// What one certification did: whether it evaluated its assembly
    /// rather than take a converged check in place, and how many replays
    /// and full factorizations it ran in the workspace's LU, whose
    /// counters it shares with the chain's Newton runs.
    #[derive(Debug, Clone, Copy, Default)]
    struct CertifyWork {
        evaluated: bool,
        replays: u64,
        fulls: u64,
    }

    /// [`certify_in`], and what it did.
    fn counted_certify(
        ws: &mut NewtonWorkspace,
        c: &Circuit,
        x: &[f64],
    ) -> (HealthReport, CertifyWork) {
        let (evals, lu) = (CERTIFY_EVALS.with(|n| n.get()), ws.lu().stats());
        let report = certify_in(ws, c, x);
        let after = ws.lu().stats();
        let work = CertifyWork {
            evaluated: CERTIFY_EVALS.with(|n| n.get()) > evals,
            replays: after.refactorizations - lu.refactorizations,
            fulls: after.full_factorizations - lu.full_factorizations,
        };
        (report, work)
    }

    /// A Newton run in `ws` from `x0`, its final iterate when it converged.
    fn converge(ws: &mut NewtonWorkspace, c: &Circuit, x0: Option<&[f64]>) -> Option<Vec<f64>> {
        let mut meter = BudgetMeter::unlimited();
        let cfg = crate::NewtonConfig::default();
        newton_from(c, &cfg, x0, &mut meter, ws, &Tele::disabled())
            .ok()
            .filter(|out| out.converged)
            .map(|out| out.x)
    }

    /// Plans a debug build's cold re-certification inside `certify_into`
    /// resolves per certified point.
    const ORACLE_INSTALLS: usize = if cfg!(all(debug_assertions, not(feature = "faults"))) {
        1
    } else {
        0
    };

    /// Along chains of jittered points on one structure, entered after
    /// other structures and dimensions, a long-lived workspace reports
    /// bitwise what the cold [`certify`] reports. So does each circuit's
    /// chain workspace after a warm sweep-point solve: its certifications
    /// run on the plan its Newton run resolved and never resolve one of
    /// their own, never replace the Newton LU's pattern and replay it on
    /// every chain but D10's, and, after a Newton run from a jittered
    /// point, take its converged check in place.
    #[test]
    fn workspace_reports_equal_cold_certify_bitwise() {
        use rand::prelude::*;
        let suite = ["gm1", "bias", "D10", "gm6"];
        let mut circuits: Vec<Circuit> = suite
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
        // holding the plan that circuit's Newton run resolved, the only
        // plan the solve installed besides the cold oracle's.
        let mut chains: Vec<(NewtonWorkspace, Arc<StampPlan>)> = circuits
            .iter()
            .map(|c| {
                let mut nws = NewtonWorkspace::new();
                let installs = plan_installs(|| {
                    engine
                        .solve_warm_in(c, None, &mut nws, Span::default())
                        .expect("operating point");
                });
                assert_eq!(installs, 1 + ORACLE_INSTALLS, "{}", c.title());
                let newton = Arc::clone(nws.plan().expect("Newton resolved a plan"));
                (nws, newton)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut ws = NewtonWorkspace::new();
        let mut checks_taken = 0;
        let mut chain_work = vec![CertifyWork::default(); circuits.len()];
        // A chain certification in the chain's LU, which keeps its pattern.
        let mut certify_chain = |nws: &mut NewtonWorkspace, i: usize, x: &[f64]| {
            let pattern = nws
                .lu()
                .shared_symbolic()
                .cloned()
                .expect("Newton recorded");
            let (report, work) = counted_certify(nws, &circuits[i], x);
            let kept = nws.lu().shared_symbolic().expect("pattern kept");
            assert!(
                Arc::ptr_eq(&pattern, kept),
                "chain {i} replaced its pattern"
            );
            chain_work[i].replays += work.replays;
            chain_work[i].fulls += work.fulls;
            (report, work)
        };
        for _ in 0..24 {
            let i = rng.gen_range(0..circuits.len());
            // Mostly small jitter (a warm chain); now and then a far point.
            let spread = if rng.gen_bool(0.8) { 1e-4 } else { 0.5 };
            for _ in 0..rng.gen_range(1..8) {
                let x: Vec<f64> = points[i]
                    .iter()
                    .map(|v| v * (1.0 + spread * rng.gen_range(-1.0..1.0)))
                    .collect();
                let warm = certify_in(&mut ws, &circuits[i], &x);
                let (chain, _) = certify_chain(&mut chains[i].0, i, &x);
                let cold = certify(&circuits[i], &x);
                assert_eq!(report_bits(&warm), report_bits(&cold), "circuit {i}");
                assert_eq!(report_bits(&chain), report_bits(&cold), "chain {i}");
                if rng.gen_bool(0.3) {
                    if let Some(x) = converge(&mut chains[i].0, &circuits[i], Some(&x)) {
                        let (chain, work) = certify_chain(&mut chains[i].0, i, &x);
                        checks_taken += usize::from(!work.evaluated);
                        let cold = certify(&circuits[i], &x);
                        assert_eq!(report_bits(&chain), report_bits(&cold), "check {i}");
                    }
                }
            }
        }
        // Every chain certifies once more at its own operating point.
        for (i, x) in points.iter().enumerate() {
            let (chain, _) = certify_chain(&mut chains[i].0, i, x);
            let cold = certify(&circuits[i], x);
            assert_eq!(report_bits(&chain), report_bits(&cold), "point {i}");
        }
        // Fault injection never takes a check: its draws must not move.
        assert_eq!(
            checks_taken > 0,
            !cfg!(feature = "faults"),
            "checks taken: {checks_taken}"
        );
        for (i, (nws, newton)) in chains.iter().enumerate() {
            let held = nws.plan().expect("plan kept");
            assert!(Arc::ptr_eq(held, newton), "chain {i} resolved a plan");
        }
        // Each chain's certifications replayed the pattern its Newton LU
        // holds, with no full factorization, except D10's. Its Newton runs
        // from far starts fall back and re-record the pattern at iterates
        // far from the certified points, where a full factorization picks
        // other pivots; certification records no pattern of its own, so
        // that chain factorizes every certification in full. Pinned both
        // ways, so a chain that stops replaying fails here.
        for (i, work) in chain_work.iter().enumerate() {
            let name = suite.get(i).copied().unwrap_or("netlist");
            if name == "D10" {
                assert!(work.replays == 0 && work.fulls > 0, "{name}: {work:?}");
            } else {
                assert!(work.replays > 0 && work.fulls == 0, "{name}: {work:?}");
            }
        }
    }

    /// A warm chain certifies on its own work: once the Newton LU's
    /// pattern holds, its certifications run no full factorization, and a
    /// certification at the iterate a run converged at takes the run's
    /// convergence check in place. At a different iterate, or after an
    /// evaluation between the check and the certification, it evaluates,
    /// and under `faults` it always does. Every report is bitwise the cold
    /// [`certify`]'s.
    #[test]
    fn warm_chain_certifies_on_its_check_and_its_newton_pattern() {
        let mut c = diode_clamp();
        let mut ws = NewtonWorkspace::new();
        let mut warm: Option<Vec<f64>> = None;
        let mut certified = CertifyWork::default();
        let mut calls = 0;
        let mut tally = |work: CertifyWork| {
            certified.replays += work.replays;
            certified.fulls += work.fulls;
            work.evaluated
        };
        for k in 0..8 {
            assert!(c.set_source_dc("V1", 5.0 + 0.25 * k as f64));
            let x = converge(&mut ws, &c, warm.as_deref()).expect("converges");
            assert!(c.seeding_lands(&x), "the seeding walk lands at {x:?}");
            let (report, work) = counted_certify(&mut ws, &c, &x);
            let taken = !tally(work);
            assert_eq!(
                taken,
                !cfg!(feature = "faults"),
                "point {k}: check taken {taken}"
            );
            assert_eq!(report_bits(&report), report_bits(&certify(&c, &x)));
            // One ulp away: evaluated.
            let mut near = x.clone();
            near[0] = f64::from_bits(near[0].to_bits() + 1);
            let (report, work) = counted_certify(&mut ws, &c, &near);
            assert!(
                tally(work),
                "point {k}: a check at another iterate was taken"
            );
            assert_eq!(report_bits(&report), report_bits(&certify(&c, &near)));
            // Converged again, then an evaluation at the same iterate
            // before certifying: evaluated.
            let x = converge(&mut ws, &c, Some(&x)).expect("converges");
            let mut residual = vec![0.0; c.dim()];
            let mut scratch = rlpta_mna::ResidualScratch::default();
            ws.original_residual_into(&c, &x, &mut residual, &mut scratch);
            let (report, work) = counted_certify(&mut ws, &c, &x);
            assert!(
                tally(work),
                "point {k}: a check was taken after an evaluation"
            );
            assert_eq!(report_bits(&report), report_bits(&certify(&c, &x)));
            calls += 3;
            warm = Some(x);
        }
        assert_eq!(certified.fulls, 0, "{certified:?}");
        assert_eq!(certified.replays, calls, "{certified:?}");
    }

    /// A plan with solver extra stamps (a PTA plan: pseudo-element shunts
    /// on every unknown's diagonal) is never scattered through, although
    /// it verifies against its circuit: its extra slots would keep stale
    /// values. Certification resolves and installs a device-only plan in
    /// its place and still reports what cold [`certify`] does. A plan
    /// without extra stamps is taken and kept.
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
        assert!(pta_plan.verify_with(&c, &mut DeclareScratch::default()));
        let cold = report_bits(&certify(&c, &x));
        let mut nws = NewtonWorkspace::seeded(LuWorkspace::default(), Some(Arc::clone(&pta_plan)));
        assert_eq!(report_bits(&certify_in(&mut nws, &c, &x)), cold);
        let own = Arc::clone(nws.plan().expect("resolved its own"));
        assert!(!Arc::ptr_eq(&own, &pta_plan));
        assert_eq!(own.device_pushes(), own.len());
        // A workspace that holds a plan certification takes keeps it:
        // the one it resolved, or one it was seeded with.
        assert_eq!(report_bits(&certify_in(&mut nws, &c, &x)), cold);
        assert!(nws.plan().is_some_and(|p| Arc::ptr_eq(p, &own)));
        let bare = Arc::new(StampPlan::resolve(&c, &mut |_| {}));
        let mut ws = NewtonWorkspace::seeded(LuWorkspace::default(), Some(Arc::clone(&bare)));
        for _ in 0..2 {
            assert_eq!(report_bits(&certify_in(&mut ws, &c, &x)), cold);
            assert!(ws.plan().is_some_and(|p| Arc::ptr_eq(p, &bare)));
        }
    }

    /// A direct Newton solve and a ladder whose Newton rung succeeds each
    /// certify on the plan their Newton run resolved: the only other plan
    /// installed is the cold oracle's of debug builds.
    #[test]
    fn newton_and_ladder_certify_without_a_second_plan() {
        let c = diode_clamp();
        for engine in [
            crate::DcEngine::builder().newton().build(),
            crate::DcEngine::builder().robust().build(),
        ] {
            let installs = plan_installs(|| {
                let sol = engine.solve(&c).expect("operating point");
                assert_eq!(sol.stats.pta_steps, 0, "the Newton rung solved it");
                assert_eq!(sol.health.map(|h| h.grade), Some(HealthGrade::Certified));
            });
            assert_eq!(installs, 1 + ORACLE_INSTALLS);
        }
    }

    /// Under `faults`, one certification takes exactly one singular-pivot
    /// draw — cold or warm, in a workspace whose Newton run resolved the
    /// plan — and a fired draw fails its factorization (infinite condition
    /// and growth) with no full-factorization retry: the fired sequence is
    /// the one plain factorizations see.
    #[cfg(feature = "faults")]
    #[test]
    fn one_certification_takes_exactly_one_singular_draw() {
        let c = diode_clamp();
        let mut ws = NewtonWorkspace::new();
        let (sol, _) = crate::newton::newton_solve(
            &c,
            &crate::NewtonConfig::default(),
            None,
            &mut crate::recovery::BudgetMeter::unlimited(),
            &mut ws,
            &Tele::disabled(),
        );
        let x = sol.unwrap().x;
        let newton = Arc::clone(ws.plan().expect("Newton resolved a plan"));
        let pattern = ws.lu().shared_symbolic().cloned().expect("Newton recorded");
        let (seed, period, calls) = (5, 3, 60);
        let mut replays = 0;
        rlpta_linalg::faults::arm_singular(seed, period);
        let fired: Vec<bool> = (0..calls)
            .map(|_| {
                let (r, work) = counted_certify(&mut ws, &c, &x);
                replays += work.replays;
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
        assert!(replays > 0, "warm calls replayed");
        assert!(ws.plan().is_some_and(|p| Arc::ptr_eq(p, &newton)));
        let kept = ws.lu().shared_symbolic().expect("pattern kept");
        assert!(Arc::ptr_eq(kept, &pattern));
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
