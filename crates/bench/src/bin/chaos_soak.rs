//! Chaos soak: ≥ 200 seeded fault plans driven through the full engine —
//! serial solves, pooled batches and quarantined sweeps — with the
//! certification layer cross-checked against an independent clean residual
//! re-evaluation.
//!
//! The hard invariant the soak enforces (CI fails on violation): **no
//! fault-corrupted solve is ever graded `certified`** — whenever the engine
//! returns a solution whose fault-free KCL residual exceeds the certifier's
//! own threshold, the attached grade must have been demoted. Batches and
//! sweeps under injected failures must complete with structured partial
//! results (per-slot errors, quarantine lists), never abort the run.
//!
//! A [`FlightRecorder`] is attached to every soak engine, so each failed
//! solve, failed batch slot and quarantined sweep point freezes a
//! self-contained incident report into `--incident-dir` (default
//! `chaos-incidents/`, uploaded as a CI artifact). A second hard invariant
//! rides on it: **exactly one incident per failed/quarantined job and none
//! for a solve that came back certified** — the incident count must equal
//! the failure count, or the soak exits 1.
//!
//! Writes a machine-readable quarantine report (`--out <path>`, stdout
//! otherwise) that CI uploads as an artifact. Requires `--features faults`.

use rlpta_bench::arg_value;
use rlpta_core::certify::RESIDUAL_CERTIFIED;
use rlpta_core::prelude::*;
use rlpta_core::telemetry::json;
use rlpta_core::{FaultPlan, GminStepping, NewtonHomotopy, SourceStepping};
use rlpta_mna::Circuit;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small ladder (short stage caps) so even a run where every stage fails
/// under a constant fault finishes in milliseconds.
fn soak_stages() -> Vec<LadderStage> {
    let newton = NewtonConfig {
        max_iterations: 10,
        ..NewtonConfig::default()
    };
    vec![
        LadderStage::DampedNewton(newton.clone()),
        LadderStage::GminStepping(GminStepping {
            newton: newton.clone(),
            ..GminStepping::default()
        }),
        LadderStage::SourceStepping(SourceStepping {
            min_increment: 0.05,
            newton: newton.clone(),
            ..SourceStepping::default()
        }),
        LadderStage::Cepta(PtaConfig {
            max_steps: 15,
            newton: newton.clone(),
            ..PtaConfig::default()
        }),
        LadderStage::Dpta(PtaConfig {
            max_steps: 15,
            newton: newton.clone(),
            ..PtaConfig::default()
        }),
        LadderStage::NewtonHomotopy(NewtonHomotopy {
            min_step: 0.099,
            newton,
            ..NewtonHomotopy::default()
        }),
    ]
}

fn soak_engine(plan: FaultPlan, threads: usize, recorder: &Arc<FlightRecorder>) -> DcEngine {
    DcEngine::builder()
        .ladder(soak_stages())
        .budget(SolveBudget::with_deadline(Duration::from_secs(30)))
        .threads(threads)
        .retries(1)
        .fault_plan(plan)
        .telemetry(recorder.clone())
        .build()
}

/// `" incident=<path>"` naming the most recently frozen incident file, so
/// violation messages point straight at the evidence.
fn incident_ref(recorder: &FlightRecorder) -> String {
    recorder
        .last_incident_path()
        .map(|p| format!(" incident={}", p.display()))
        .unwrap_or_default()
}

/// Eight plans per seed: three constant (unsurvivable) and five
/// intermittent fault mixes.
fn plans_for(seed: u64) -> Vec<FaultPlan> {
    let period = 2 + seed % 5;
    vec![
        FaultPlan::seeded(seed).singular_pivots(1),
        FaultPlan::seeded(seed).nan_stamps(1),
        FaultPlan::seeded(seed).oscillating_residual(10.0),
        FaultPlan::seeded(seed).singular_pivots(period),
        FaultPlan::seeded(seed).nan_stamps(period * 3),
        FaultPlan::seeded(seed).singular_pivots(period * 2),
        FaultPlan::seeded(seed).nan_stamps(period),
        FaultPlan::seeded(seed)
            .singular_pivots(period * 7)
            .nan_stamps(period * 5)
            .oscillating_residual(1e-9),
    ]
}

#[derive(Default)]
struct Tally {
    plans: usize,
    solves: usize,
    ok: usize,
    certified: usize,
    suspect: usize,
    errors: usize,
    batch_jobs: usize,
    batch_failures: usize,
    sweep_points: usize,
    sweep_quarantined: usize,
    /// Failures the recorder must have frozen exactly one incident for.
    expected_incidents: usize,
    violations: Vec<String>,
}

fn main() {
    let t0 = Instant::now();
    let circuits: Vec<(&str, Circuit)> = ["D10", "gm1", "mosamp"]
        .iter()
        .map(|n| {
            (
                *n,
                rlpta_circuits::by_name(n).expect("known benchmark").circuit,
            )
        })
        .collect();
    let mut tally = Tally::default();

    // One recorder shared across every soak engine: each terminal failure
    // and quarantined point freezes one incident report into the incident
    // directory CI uploads.
    let incident_dir = arg_value("incident-dir").unwrap_or_else(|| "chaos-incidents".to_string());
    let recorder = Arc::new(
        FlightRecorder::with_slots(64, 8)
            .with_dir(&incident_dir)
            .with_incident_cap(10_000),
    );

    // Serial solves: every plan against one rotating circuit. The clean
    // residual re-evaluation runs after the engine's fault guard dropped,
    // so it sees the true KCL mismatch of whatever the engine returned.
    for seed in 0..25u64 {
        for (p, plan) in plans_for(seed).into_iter().enumerate() {
            tally.plans += 1;
            let (name, circuit) = &circuits[(seed as usize + p) % circuits.len()];
            let engine = soak_engine(plan, 1, &recorder);
            recorder.annotate(None, name, None);
            tally.solves += 1;
            match engine.solve(circuit) {
                Ok(sol) => {
                    tally.ok += 1;
                    let Some(health) = sol.health.as_ref() else {
                        tally
                            .violations
                            .push(format!("{name} repro={plan:?}: solution without health"));
                        continue;
                    };
                    match health.grade {
                        HealthGrade::Certified => tally.certified += 1,
                        HealthGrade::Suspect => tally.suspect += 1,
                        HealthGrade::Rejected => {
                            tally.violations.push(format!(
                                "{name} repro={plan:?}: rejected solution escaped the engine"
                            ));
                            continue;
                        }
                    }
                    let clean_residual = sol.residual_norm(circuit);
                    if health.grade == HealthGrade::Certified && clean_residual > RESIDUAL_CERTIFIED
                    {
                        tally.violations.push(format!(
                            "{name} repro={plan:?}: certified but corrupted \
                             (clean residual {clean_residual:.3e})"
                        ));
                    }
                }
                Err(
                    SolveError::AllStrategiesFailed { .. }
                    | SolveError::BudgetExhausted { .. }
                    | SolveError::NonConvergent { .. }
                    | SolveError::CertificationFailed { .. },
                ) => {
                    tally.errors += 1;
                    tally.expected_incidents += 1;
                }
                Err(other) => {
                    tally.expected_incidents += 1;
                    tally.violations.push(format!(
                        "{name} repro={plan:?}: unstructured failure {other}{}",
                        incident_ref(&recorder)
                    ));
                }
            }
        }
    }

    // Pooled batches under constant faults: every slot must come back as a
    // structured error — the batch completes, nothing aborts.
    for seed in 0..5u64 {
        let plan = FaultPlan::seeded(seed).singular_pivots(1);
        let batch: Vec<Circuit> = circuits.iter().map(|(_, c)| c.clone()).collect();
        let results = soak_engine(plan, 3, &recorder).solve_batch(&batch);
        tally.batch_jobs += results.len();
        if results.len() != batch.len() {
            tally.violations.push(format!(
                "repro={plan:?}: batch returned {} slots for {} jobs",
                results.len(),
                batch.len()
            ));
        }
        for (i, r) in results.iter().enumerate() {
            match r {
                Ok(_) => tally.violations.push(format!(
                    "job {i} repro={plan:?}: constant singular pivots produced a solution"
                )),
                Err(_) => {
                    tally.batch_failures += 1;
                    tally.expected_incidents += 1;
                }
            }
        }
    }

    // Faulted sweeps: intermittent singular pivots must degrade to ordered
    // partial results — survivors plus quarantine must cover every value.
    // A deliberately fragile engine (single Newton rung, no retries) so the
    // faults actually defeat some points and the quarantine path runs.
    let sweep_circuit = rlpta_netlist::parse(
        "t\nV1 in 0 0\nR1 in a 100\nD1 a 0 DX\n.model DX D(IS=1e-14)\n",
    )
    .expect("valid netlist");
    let sweep = DcSweep::linear("V1", 0.0, 2.0, 0.125).expect("valid sweep");
    // Seeds 0..3 arm a *constant* fault (period 1): every point must land
    // in quarantine and the report must still come back structured.
    for seed in 0..10u64 {
        let period = if seed < 3 { 1 } else { 2 + seed % 4 };
        let plan = FaultPlan::seeded(seed).singular_pivots(period);
        let fragile = DcEngine::builder()
            .ladder(vec![LadderStage::DampedNewton(NewtonConfig {
                max_iterations: 10,
                ..NewtonConfig::default()
            })])
            .budget(SolveBudget::with_deadline(Duration::from_secs(30)))
            .threads(3)
            .fault_plan(plan)
            .telemetry(recorder.clone())
            .build();
        match fragile.sweep(&sweep_circuit, &sweep) {
            Ok(report) => {
                tally.sweep_points += report.points.len();
                tally.sweep_quarantined += report.quarantined.len();
                tally.expected_incidents += report.quarantined.len();
                if report.points.len() + report.quarantined.len() != sweep.values().len() {
                    tally.violations.push(format!(
                        "repro={plan:?}: sweep covered {}+{} of {} values",
                        report.points.len(),
                        report.quarantined.len(),
                        sweep.values().len()
                    ));
                }
                if !report.quarantined.windows(2).all(|w| w[0].index < w[1].index) {
                    tally
                        .violations
                        .push(format!("repro={plan:?}: quarantine list out of order"));
                }
                if period == 1 && !report.points.is_empty() {
                    tally.violations.push(format!(
                        "repro={plan:?}: {} points survived a constant singular fault",
                        report.points.len()
                    ));
                }
            }
            Err(e) => {
                tally.expected_incidents += 1;
                tally.violations.push(format!(
                    "repro={plan:?}: sweep aborted: {e}{}",
                    incident_ref(&recorder)
                ));
            }
        }
    }

    // The flight-recorder invariant: one frozen incident per failure (solve
    // errors, failed batch slots, quarantined sweep points), zero for
    // anything that came back certified or suspect.
    let incidents = recorder.incident_count();
    if incidents != tally.expected_incidents {
        tally.violations.push(format!(
            "flight recorder froze {incidents} incidents for {} failures \
             ({} dropped){}",
            tally.expected_incidents,
            recorder.dropped_incidents(),
            incident_ref(&recorder)
        ));
    }
    if let Some(e) = recorder.write_error() {
        tally
            .violations
            .push(format!("incident write to {incident_dir} failed: {e}"));
    }

    let report = render_report(&tally, t0.elapsed(), incidents, recorder.dropped_incidents());
    match arg_value("out") {
        Some(path) => {
            std::fs::write(&path, &report).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            println!("# chaos soak report: {path}");
        }
        None => print!("{report}"),
    }
    println!(
        "# chaos soak: {} plans, {} solves ({} ok / {} errors), \
         {} batch jobs, {} sweep points + {} quarantined, \
         {} incidents in {incident_dir}/, {} violations",
        tally.plans,
        tally.solves,
        tally.ok,
        tally.errors,
        tally.batch_jobs,
        tally.sweep_points,
        tally.sweep_quarantined,
        incidents,
        tally.violations.len()
    );
    assert!(
        tally.plans >= 200,
        "soak coverage: only {} plans",
        tally.plans
    );
    if !tally.violations.is_empty() {
        for v in &tally.violations {
            eprintln!("VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}

fn render_report(t: &Tally, wall: Duration, incidents: usize, dropped: usize) -> String {
    let mut s = String::with_capacity(1024);
    let _ = write!(
        s,
        "{{\n  \"bench\": \"chaos_soak\",\n  \"git_rev\": {},\n  \"wall_nanos\": {},\
         \n  \"plans\": {},\n  \"solves\": {},\n  \"ok\": {},\n  \"certified\": {},\
         \n  \"suspect\": {},\n  \"structured_errors\": {},\n  \"batch_jobs\": {},\
         \n  \"batch_failures\": {},\n  \"sweep_points\": {},\n  \"sweep_quarantined\": {},\
         \n  \"expected_incidents\": {},\n  \"incidents\": {incidents},\
         \n  \"dropped_incidents\": {dropped},\n  \"violations\": [",
        json::string(&rlpta_bench::report::git_rev()),
        wall.as_nanos(),
        t.plans,
        t.solves,
        t.ok,
        t.certified,
        t.suspect,
        t.errors,
        t.batch_jobs,
        t.batch_failures,
        t.sweep_points,
        t.sweep_quarantined,
        t.expected_incidents,
    );
    json::push_items(&mut s, &t.violations, |s, v| {
        let _ = write!(s, "{}", json::string(v));
    });
    s.push_str(if t.violations.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    s
}
