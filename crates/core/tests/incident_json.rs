//! Round-trip: the flight recorder's nested incident JSON reads back
//! through the same reader as every other artifact
//! ([`rlpta_core::telemetry::json`], which `perfdiff` trusts for bench
//! reports), so incident files are machine-consumable by the harness
//! tooling, not just human-readable.

use rlpta_core::prelude::*;
use rlpta_core::telemetry::json::{self, Value};
use rlpta_core::{Event, Payload, Sink, Span};
use std::sync::Arc;

#[test]
fn incident_report_parses_with_the_nested_report_reader() {
    let dir = std::env::temp_dir().join(format!("rlpta-incident-json-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let recorder = Arc::new(FlightRecorder::new(32).with_dir(&dir));
    // A budget too starved to converge on a nonlinear deck: the terminal
    // failure at the solve boundary freezes exactly one incident.
    let engine = DcEngine::builder()
        .robust()
        .budget(SolveBudget {
            wall_clock: None,
            max_nr_iterations: Some(1),
            max_steps: None,
        })
        .telemetry(recorder.clone())
        .build();
    let circuit =
        rlpta_netlist::parse("clamp\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)")
            .expect("valid netlist");
    recorder.annotate(None, "clamp", None);
    assert!(engine.solve(&circuit).is_err(), "starved budget must fail");
    assert_eq!(recorder.incident_count(), 1);

    let path = recorder.last_incident_path().expect("incident written");
    let text = std::fs::read_to_string(&path).expect("incident file readable");
    let doc = json::parse_object(&text).expect("incident JSON parses with the report reader");

    assert_eq!(doc.u64_field("incident"), Ok(0));
    assert_eq!(doc.str_field("trigger").as_deref(), Ok("solve_failed"));
    assert_eq!(doc.str_field("label").as_deref(), Ok("clamp"));
    let window = doc.arr_field("window").expect("window is an array");
    assert!(!window.is_empty(), "window should hold the event tail");
    let trigger_event = doc
        .obj_field("trigger_event")
        .expect("trigger_event is an object");
    assert_eq!(
        trigger_event.str_field("event").as_deref(),
        Ok("SolveFailed")
    );
    for key in ["attempts", "trajectory"] {
        assert!(doc.arr_field(key).is_ok(), "{key} should be an array");
    }
    assert!(
        doc.obj_field("phase_nanos").is_ok(),
        "phase_nanos should be an object"
    );
    assert_eq!(
        path.file_name().and_then(|n| n.to_str()),
        Some("incident-none-0000-solve_failed.json")
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Non-finite floats in an incident's PTA trail are written as the
/// strings `"NaN"` and `"inf"`, and read back through the typed `f64`
/// getter — in the derived trajectory and in the raw event window alike.
#[test]
fn incident_non_finite_floats_read_back_through_the_typed_getter() {
    let recorder = FlightRecorder::new(8);
    let emit = |payload| {
        recorder.emit(&Event {
            span: Span::default(),
            payload,
        })
    };
    emit(Payload::PtaStep {
        accepted: true,
        h: f64::INFINITY,
        h_next: 1e-3,
        gamma: Some(f64::NAN),
        nr_iterations: 3,
        residual: f64::NEG_INFINITY,
        pta_converged: false,
        time: 0.5,
    });
    emit(Payload::SolveFailed {
        error: "diverged".into(),
    });
    let incidents = recorder.incidents();
    assert_eq!(incidents.len(), 1);
    let doc = json::parse_object(&incidents[0].to_json()).expect("incident parses");

    let trail = doc.arr_field("trajectory").expect("trajectory is an array");
    assert_eq!(trail.len(), 1);
    let step: &Value = &trail[0];
    assert!(step.f64_field("gamma").expect("NaN gamma reads").is_nan());
    assert_eq!(step.f64_field("h"), Ok(f64::INFINITY));
    assert_eq!(step.f64_field("h_next"), Ok(1e-3));
    assert_eq!(step.f64_field("time"), Ok(0.5));

    let window = doc.arr_field("window").expect("window is an array");
    let pta = window
        .iter()
        .find(|e| e.str_field("event").as_deref() == Ok("PtaStep"))
        .expect("the PTA step is in the window");
    assert!(pta.f64_field("gamma").expect("NaN gamma reads").is_nan());
    assert_eq!(pta.f64_field("h"), Ok(f64::INFINITY));
    assert_eq!(pta.f64_field("residual"), Ok(f64::NEG_INFINITY));
}

/// Byte pin: the starved-budget incident of the first test, with a fixed
/// label and structure key, exactly as `IncidentReport::to_json` writes it.
#[test]
fn starved_budget_incident_matches_golden() {
    let recorder = Arc::new(FlightRecorder::new(32));
    let engine = DcEngine::builder()
        .robust()
        .budget(SolveBudget {
            wall_clock: None,
            max_nr_iterations: Some(1),
            max_steps: None,
        })
        .telemetry(recorder.clone())
        .build();
    let circuit =
        rlpta_netlist::parse("clamp\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)")
            .expect("valid netlist");
    recorder.annotate(None, "clamp", Some(0x0123_4567_89ab_cdef));
    assert!(engine.solve(&circuit).is_err(), "starved budget must fail");
    let golden = r#"{
  "incident": 0,
  "trigger": "solve_failed",
  "job": null,
  "label": "clamp",
  "structure_key": "0123456789abcdef",
  "trigger_event": {"event":"SolveFailed","job":null,"worker":0,"error":"solve budget exhausted during newton iteration (2 NR iterations, 0 steps spent)"},
  "window": [
    {"event":"NrIteration","job":null,"worker":0,"iteration":1},
    {"event":"LuFactorized","job":null,"worker":0,"dim":3},
    {"event":"SolveFailed","job":null,"worker":0,"error":"solve budget exhausted during newton iteration (2 NR iterations, 0 steps spent)"}
  ],
  "attempts": [
  ],
  "trajectory": [
  ],
  "phase_nanos": {
  }
}"#;
    assert_eq!(recorder.incidents()[0].to_json(), golden);
}

/// Byte pin: an incident with every section populated — a PTA trail with
/// a `null` Γ and an infinite step, a ladder attempt, a phase total and
/// an escaped label.
#[test]
fn populated_incident_matches_golden() {
    let recorder = FlightRecorder::new(8);
    recorder.annotate(Some(3), "synthetic \"deck\"", Some(42));
    let stats = SolveStats {
        nr_iterations: 9,
        converged: false,
        ..SolveStats::default()
    };
    for payload in [
        Payload::PtaStep {
            accepted: false,
            h: 1e-3,
            h_next: 2.5e-4,
            gamma: None,
            nr_iterations: 12,
            residual: 3.5,
            pta_converged: false,
            time: 0.0,
        },
        Payload::PtaStep {
            accepted: true,
            h: f64::INFINITY,
            h_next: 1e-3,
            gamma: Some(0.125),
            nr_iterations: 3,
            residual: 1e-9,
            pta_converged: false,
            time: 2.5e-4,
        },
        Payload::LadderAttempt {
            strategy: "newton".into(),
            error: "did not converge".into(),
            stats,
        },
        Payload::PhaseTiming {
            phase: rlpta_core::Phase::LuReplay,
            nanos: 1500,
        },
        Payload::SolveFailed {
            error: "all strategies failed (1 attempts)".into(),
        },
    ] {
        let event = Event {
            span: Span::for_job(3),
            payload,
        };
        recorder.emit(&event);
    }
    let golden = r#"{
  "incident": 0,
  "trigger": "solve_failed",
  "job": 3,
  "label": "synthetic \"deck\"",
  "structure_key": "000000000000002a",
  "trigger_event": {"event":"SolveFailed","job":3,"worker":0,"error":"all strategies failed (1 attempts)"},
  "window": [
    {"event":"PtaStep","job":3,"worker":0,"accepted":false,"h":0.001,"h_next":0.00025,"gamma":null,"nr_iterations":12,"residual":3.5,"pta_converged":false,"time":0.0},
    {"event":"PtaStep","job":3,"worker":0,"accepted":true,"h":"inf","h_next":0.001,"gamma":0.125,"nr_iterations":3,"residual":1e-9,"pta_converged":false,"time":0.00025},
    {"event":"LadderAttempt","job":3,"worker":0,"strategy":"newton","error":"did not converge","nr_iterations":9,"pta_steps":0,"rejected_steps":0,"lu_factorizations":0,"lu_refactorizations":0,"converged":false},
    {"event":"SolveFailed","job":3,"worker":0,"error":"all strategies failed (1 attempts)"}
  ],
  "attempts": [
    {"strategy": "newton", "error": "did not converge", "nr_iterations": 9}
  ],
  "trajectory": [
    {"accepted": false, "h": 0.001, "h_next": 0.00025, "gamma": null, "time": 0.0},
    {"accepted": true, "h": "inf", "h_next": 0.001, "gamma": 0.125, "time": 0.00025}
  ],
  "phase_nanos": {
    "lu_replay": 1500
  }
}"#;
    assert_eq!(recorder.incidents()[0].to_json(), golden);
}
