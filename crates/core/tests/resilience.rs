//! Integration tests for the resilience layer: budget deadlines hold in
//! real time, and the escalation ladder dominates every individual strategy
//! on the benchmark suites.

use rlpta_core::telemetry::{Collector, Event, Payload};
use rlpta_core::{
    DcEngine, GminStepping, HealthGrade, LadderStage, NewtonConfig, NewtonHomotopy, NewtonRaphson,
    PtaConfig, PtaKind, PtaSolver, RobustDcSolver, SimpleStepping, SolveBudget, SolveError,
    SourceStepping,
};
use rlpta_mna::Circuit;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A ladder that grinds essentially forever: Newton converges at every
/// pseudo-time point, but the steady-state tolerance is unreachable, so
/// every step is *accepted* and the march would run its hundred-million
/// step budget. Only the wall-clock deadline can stop it — in any build
/// profile.
fn grinding_stages() -> Vec<LadderStage> {
    vec![LadderStage::Cepta(PtaConfig {
        max_steps: 100_000_000,
        steady_ftol: 1e-300,
        newton: NewtonConfig {
            max_iterations: 50,
            ..NewtonConfig::default()
        },
        ..PtaConfig::default()
    })]
}

#[test]
fn budget_deadline_holds_within_factor_two() {
    let c = rlpta_circuits::by_name("SCHMITT")
        .expect("known benchmark")
        .circuit;
    let deadline = Duration::from_millis(250);
    let engine = DcEngine::builder()
        .ladder(grinding_stages())
        .budget(SolveBudget::with_deadline(deadline))
        .build();
    let t0 = Instant::now();
    let result = engine.solve(&c);
    let elapsed = t0.elapsed();
    match result {
        Err(SolveError::BudgetExhausted { stats, .. }) => {
            assert!(
                stats.nr_iterations > 0,
                "the grinder should have done real work before the deadline"
            );
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    // The deadline is checked at every NR iteration, so overshoot is at most
    // one iteration plus scheduling noise — 2× is a generous envelope.
    assert!(
        elapsed < 2 * deadline,
        "deadline {deadline:?} overshot: took {elapsed:?}"
    );
}

/// The ladder must solve every suite circuit that *any* individual strategy
/// solves (the whole point of escalation). Checked over a fast subset
/// spanning diode, BJT and MOS families.
#[test]
fn ladder_dominates_every_individual_strategy() {
    let names = [
        "D10", "D11", "gm1", "bias", "mosamp", "SCHMITT", "latch", "Adding",
    ];
    let robust = RobustDcSolver::default();
    for name in names {
        let c = rlpta_circuits::by_name(name)
            .expect("known benchmark")
            .circuit;
        let individual_solved = NewtonRaphson::default().solve(&c).is_ok()
            || GminStepping::default().solve(&c).is_ok()
            || SourceStepping::default().solve(&c).is_ok()
            || PtaSolver::with_config(
                PtaKind::cepta(),
                SimpleStepping::default(),
                PtaConfig::default(),
            )
            .solve(&c)
            .is_ok()
            || PtaSolver::with_config(
                PtaKind::dpta(),
                SimpleStepping::default(),
                PtaConfig::default(),
            )
            .solve(&c)
            .is_ok()
            || NewtonHomotopy::default().solve(&c).is_ok();
        if individual_solved {
            let sol = robust
                .solve(&c)
                .unwrap_or_else(|e| panic!("{name}: a strategy solves this but the ladder failed: {e}"));
            assert!(sol.stats.converged, "{name}");
            assert!(
                sol.x.iter().all(|v| v.is_finite()),
                "{name}: non-finite solution"
            );
        }
    }
}

/// A ladder run through the engine with a [`Collector`] attached: the
/// outcome and the event stream.
fn traced_ladder(
    circuit: &Circuit,
    stages: Vec<LadderStage>,
) -> (Result<rlpta_core::Solution, SolveError>, Vec<Event>) {
    let sink = Arc::new(Collector::new());
    let out = DcEngine::builder()
        .ladder(stages)
        .telemetry(sink.clone())
        .build()
        .solve(circuit);
    (out, sink.events())
}

fn diode_clamp() -> Circuit {
    rlpta_netlist::parse("t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)\n")
        .unwrap()
}

/// A Newton run with a 1 S junction shunt converges — to the operating
/// point of the shunted circuit, whose KCL residual in the real one is the
/// ~5 mA the shunt carried. Certification rejects it, and the rescue cannot
/// repair it: one undamped correction from the shunted point drives the
/// diode to ~5 V (residual ~6e22), so both passes stop at their first step.
fn shunted_newton() -> NewtonConfig {
    NewtonConfig {
        gmin: 1.0,
        ..NewtonConfig::default()
    }
}

/// The event stream of the demotion ladder below, timing events dropped:
/// the shunted rung, its rejected certification and failed rescue, its
/// `LadderAttempt`, then the default rung and its clean certification.
const DEMOTION_STREAM: &[&str] = &[
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":1}"#,
    r#"{"event":"LuFactorized","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":2}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":3}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":4}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrOutcome","job":null,"worker":0,"iterations":4,"converged":true,"lu_factorizations":1,"lu_refactorizations":3,"residual":0.0}"#,
    r#"{"event":"SolveDone","job":null,"worker":0,"converged":true}"#,
    r#"{"event":"RefinementStep","job":null,"worker":0,"step":1,"residual":6.339779450280506e22}"#,
    r#"{"event":"RefinementStep","job":null,"worker":0,"step":1,"residual":6.339779450280506e22}"#,
    r#"{"event":"Certified","job":null,"worker":0,"grade":"rejected","residual":0.004995004994997871,"cond":1003.0019985262807,"growth":1.0}"#,
    r#"{"event":"LadderAttempt","job":null,"worker":0,"strategy":"newton","error":"solution failed certification (re-evaluated residual 4.995e-3)","nr_iterations":4,"pta_steps":0,"rejected_steps":0,"lu_factorizations":1,"lu_refactorizations":3,"converged":false}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":1}"#,
    r#"{"event":"LuFactorized","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":2}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":3}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":4}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":5}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":6}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":7}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":8}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":9}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":10}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":11}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":12}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrIteration","job":null,"worker":0,"iteration":13}"#,
    r#"{"event":"LuReplayed","job":null,"worker":0,"dim":3}"#,
    r#"{"event":"NrOutcome","job":null,"worker":0,"iterations":13,"converged":true,"lu_factorizations":1,"lu_refactorizations":12,"residual":4.336808689942018e-18}"#,
    r#"{"event":"SolveDone","job":null,"worker":0,"converged":true}"#,
    r#"{"event":"Certified","job":null,"worker":0,"grade":"certified","residual":4.336808689942018e-18,"cond":5.983256398952928,"growth":1.0}"#,
];

/// A rung that claims convergence and fails certification is demoted: the
/// trail records `CertificationFailed` for it and the next rung returns a
/// certified point. The same configuration as a direct Newton strategy has
/// no rung to demote to and surfaces the error itself.
#[test]
fn certification_demotes_a_converged_rung() {
    let c = diode_clamp();
    let (out, events) = traced_ladder(
        &c,
        vec![
            LadderStage::DampedNewton(shunted_newton()),
            LadderStage::DampedNewton(NewtonConfig::default()),
        ],
    );
    let events: Vec<String> = events
        .iter()
        .filter(|e| !e.payload.is_timing())
        .map(Event::to_json)
        .collect();
    let sol = out.expect("the second rung solves the clamp");
    let health = sol.health.as_ref().expect("certified");
    assert_eq!(health.grade, HealthGrade::Certified);
    let attempts: Vec<&String> = events
        .iter()
        .filter(|e| e.contains(r#""event":"LadderAttempt""#))
        .collect();
    assert_eq!(attempts.len(), 1, "{events:#?}");
    assert!(
        attempts[0].contains(r#""strategy":"newton","error":"solution failed certification"#),
        "{}",
        attempts[0]
    );
    assert_eq!(events, DEMOTION_STREAM, "{events:#?}");

    let direct = DcEngine::builder()
        .newton()
        .newton_config(shunted_newton())
        .build()
        .solve(&c);
    match direct {
        Err(SolveError::CertificationFailed { residual_norm }) => {
            assert_eq!(residual_norm, 0.004995004994997871)
        }
        other => panic!("expected CertificationFailed, got {other:?}"),
    }
}

/// The `StageStep (accepted, control)` sequence of a one-rung ladder.
fn stage_steps(circuit: &Circuit, stage: LadderStage) -> Vec<(bool, f64)> {
    traced_ladder(circuit, vec![stage])
        .1
        .into_iter()
        .filter_map(|e| match e.payload {
            Payload::StageStep { accepted, control } => Some((accepted, control)),
            _ => None,
        })
        .collect()
}

/// The adaptive λ ramp's backoff, pinned on `nagle`: source stepping
/// rejects its first λ = 0.1 stage, quarters the increment and then grows
/// it by 1.5 per accepted stage to λ = 1; the Newton homotopy (growth 1.6)
/// turns back at λ ≈ 0.0824 until its increment underflows.
#[test]
fn lambda_ramp_backoff_sequences_are_pinned() {
    let c = rlpta_circuits::by_name("nagle")
        .expect("known benchmark")
        .circuit;
    assert_eq!(
        stage_steps(&c, LadderStage::SourceStepping(SourceStepping::default())),
        [
            (false, 0.1),
            (true, 0.025),
            (true, 0.0625),
            (true, 0.11875000000000001),
            (true, 0.203125),
            (true, 0.3296875),
            (true, 0.51953125),
            (true, 0.804296875),
            (true, 1.0),
        ]
    );
    assert_eq!(
        stage_steps(&c, LadderStage::NewtonHomotopy(NewtonHomotopy::default())),
        [
            (false, 0.1),
            (true, 0.025),
            (true, 0.065),
            (false, 0.129),
            (true, 0.081),
            (false, 0.10660000000000001),
            (false, 0.0874),
            (false, 0.0826),
            (true, 0.0814),
            (true, 0.08204),
            (false, 0.083064),
            (true, 0.08229600000000001),
            (false, 0.0827056),
            (true, 0.08239840000000001),
            (false, 0.08256224000000001),
            (false, 0.08243936000000002),
            (true, 0.08240864),
            (true, 0.082425024),
            (false, 0.0824512384),
            (false, 0.0824315776),
            (false, 0.0824266624),
        ]
    );
}
