//! Engine-level benchmarks: the symbolic/numeric LU split and the stamp
//! plan that every warm Newton iteration rides on, and the pooled batch
//! engine over a corpus.
//!
//! The `symbolic_reuse` group is the acceptance check for the split: on the
//! largest suite circuit (`fadd32`, 132 unknowns) a numeric-only
//! `refactorize` replay must beat a from-scratch `factorize` of the same
//! Jacobian — that gap is what the engine banks at every Newton iteration
//! after the first. The `certify_lu` group prices the same gap for
//! certification: a from-scratch factorization against the pivot-verified
//! fresh-equivalent replay a warm certification workspace runs instead.
//! The `devices` group times one stamp per device kind, one assembly per
//! stamp sink (plan write, triplet, residual-only) and the limiter-only
//! seeding. The `service_job` group prices the fixed costs every service
//! job pays besides Newton: keying its structure, certifying its point on
//! a cold workspace, and the stamp-plan resolve each of those builds on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlpta_bench::{experiment_config, robust_budget};
use rlpta_circuits::by_name;
use rlpta_core::{
    certify, DcEngine, PtaKind, PtaSolver, RlSteppingConfig, SimpleStepping, Stepping,
    StructureKey,
};
use rlpta_devices::{
    Bjt, BjtModel, Device, Diode, DiodeModel, EvalCtx, MosModel, Mosfet, Node, Resistor, Stamper,
};
use rlpta_linalg::{CsrMatrix, LuOp, LuWorkspace, SparseLu, Triplet};
use rlpta_mna::{Circuit, ResidualScratch, StampPlan};

/// A suite circuit and its DC operating point.
fn operating_point(name: &str) -> (Circuit, Vec<f64>) {
    let circuit = by_name(name).expect("known benchmark").circuit;
    let sol = DcEngine::builder()
        .robust()
        .budget(robust_budget())
        .build()
        .solve(&circuit)
        .expect("benchmark circuit solves");
    (circuit, sol.x)
}

/// An empty triplet builder sized for `c`'s Newton system.
fn triplet_for(c: &Circuit) -> Triplet {
    let dim = c.dim();
    Triplet::with_capacity(dim, dim, 16 * c.devices().len() + 2 * dim)
}

/// The Jacobian of a suite circuit at its DC operating point — the exact
/// matrix the warm iterations of a PTA march keep refactorizing, and the
/// one certification factorizes.
fn jacobian_at_operating_point(name: &str) -> CsrMatrix {
    let (c, x) = operating_point(name);
    let mut jac = triplet_for(&c);
    let mut res = vec![0.0; c.dim()];
    let mut state = c.seeded_state(&x);
    c.assemble_into(&EvalCtx::dc(&x), &mut jac, &mut res, &mut state);
    jac.to_csr()
}

fn bench_symbolic_reuse(c: &mut Criterion) {
    let a = jacobian_at_operating_point("fadd32");
    let mut group = c.benchmark_group("symbolic_reuse");
    group.bench_function("full_factorize_fadd32", |b| {
        b.iter(|| SparseLu::factorize(&a).unwrap())
    });
    let mut ws = LuWorkspace::new();
    ws.factorize(&a).unwrap(); // record the symbolic pattern once
    group.bench_function("refactorize_fadd32", |b| {
        b.iter(|| {
            ws.factorize(&a).unwrap();
        })
    });
    // One warm Newton step's linear algebra: a replay into the
    // workspace's numeric shell plus an in-place solve.
    let rhs = vec![1.0; a.rows()];
    let (mut x, mut scratch) = (rhs.clone(), Vec::new());
    group.bench_function("refactorize_solve_into_fadd32", |b| {
        b.iter(|| {
            x.copy_from_slice(&rhs);
            ws.factorize(&a)
                .unwrap()
                .solve_into(&mut x, &mut scratch)
                .unwrap();
        })
    });
    group.finish();
}

/// Certification's factorization, cold versus warm: `SparseLu::factorize`
/// against `LuWorkspace::factorize_fresh` replaying the pattern a Newton
/// factorization of the same Jacobian recorded (bitwise the same
/// factorization, each recorded pivot re-verified against the full
/// factorization's rule), on a mid-size and the largest suite circuit.
fn bench_certify_lu(c: &mut Criterion) {
    let mut group = c.benchmark_group("certify_lu");
    for name in ["gm6", "fadd32"] {
        let a = jacobian_at_operating_point(name);
        group.bench_function(BenchmarkId::new("factorize", name), |b| {
            b.iter(|| SparseLu::factorize(&a).unwrap())
        });
        let mut ws = LuWorkspace::new();
        ws.factorize(&a).unwrap();
        ws.factorize_fresh(&a).unwrap();
        assert_eq!(ws.last_op(), Some(LuOp::Replay));
        group.bench_function(BenchmarkId::new("fresh_equivalent_replay", name), |b| {
            b.iter(|| {
                ws.factorize_fresh(&a).unwrap();
            })
        });
    }
    group.finish();
}

fn bench_batch_engine(c: &mut Criterion) {
    let circuits: Vec<_> = ["D10", "gm1", "bias", "mosamp", "latch", "SCHMITT", "Adding", "D11"]
        .iter()
        .map(|n| by_name(n).expect("known benchmark").circuit)
        .collect();
    let mut group = c.benchmark_group("batch_engine");
    group.sample_size(10);
    for threads in [1usize, 4] {
        let engine = DcEngine::builder()
            .robust()
            .budget(robust_budget())
            .threads(threads)
            .build();
        group.bench_with_input(
            BenchmarkId::new("robust_corpus", threads),
            &engine,
            |b, engine| {
                b.iter(|| {
                    let results = engine.solve_batch(&circuits);
                    assert!(results.iter().all(|r| r.is_ok()));
                })
            },
        );
    }
    group.finish();
}

/// The telemetry zero-cost guard: the engine's default `NullSink` path
/// (every event built and forwarded to a no-op sink) must sit within
/// measurement noise of the same work done with no sink at all — the bare
/// solver followed by the cold certification the engine's gate runs on
/// every returned point. Each bar is the median of its individually timed
/// iterations, printed with their interquartile range: the noise band. A
/// `null_sink_engine` median outside the `no_sink` bar's IQR means event
/// emission grew a hot-path cost — treat that as a regression. The
/// `timing_instrumented_engine` bar turns full timing instrumentation on
/// (a `MetricsRegistry` sink, which wants timing, so every phase samples
/// the clock twice and folds a histogram entry) — the measured price of
/// `--profile`/`--bench-json`, expected to be small but nonzero. The
/// `flight_recorder_engine` bar attaches a [`rlpta_core::FlightRecorder`]
/// instead: ring-buffered event capture without timing, expected within a
/// few percent of the `null_sink_engine` bar (the recorder clones events
/// into preallocated ring slots and never samples the clock; for the
/// plain-old-data payloads of the solver hot loop the clone allocates
/// nothing either). The `rls_*` pair solves the
/// same circuit under a fresh unfrozen RL-S controller: `rls_null_sink_engine`
/// trains without building a single `TrainStep` (`NullSink` keeps no kind),
/// while `rls_collector_engine` computes every train step's losses and
/// keeps them with the rest of the stream, timing included.
fn bench_telemetry_overhead(c: &mut Criterion) {
    let circuit = by_name("gm1").expect("known benchmark").circuit;
    let kind = PtaKind::cepta();
    let mut group = c.benchmark_group("telemetry_overhead");
    group.bench_function("no_sink", |b| {
        b.iter(|| {
            let sol = PtaSolver::with_config(kind, SimpleStepping::default(), experiment_config())
                .solve(&circuit)
                .unwrap();
            certify(&circuit, &sol.x)
        })
    });
    let engine = DcEngine::builder()
        .kind(kind)
        .pta_config(experiment_config())
        .build();
    group.bench_function("null_sink_engine", |b| {
        b.iter(|| engine.solve(&circuit).unwrap())
    });
    let recorder = std::sync::Arc::new(rlpta_core::FlightRecorder::new(64));
    let recorded_engine = DcEngine::builder()
        .kind(kind)
        .pta_config(experiment_config())
        .telemetry(recorder)
        .build();
    group.bench_function("flight_recorder_engine", |b| {
        b.iter(|| recorded_engine.solve(&circuit).unwrap())
    });
    let metrics = std::sync::Arc::new(rlpta_core::MetricsRegistry::new());
    let timed_engine = DcEngine::builder()
        .kind(kind)
        .pta_config(experiment_config())
        .telemetry(metrics)
        .build();
    group.bench_function("timing_instrumented_engine", |b| {
        b.iter(|| timed_engine.solve(&circuit).unwrap())
    });
    let rls_engine = || {
        DcEngine::builder()
            .kind(kind)
            .pta_config(experiment_config())
            .stepping(Stepping::Rl(RlSteppingConfig::new(7)))
    };
    let rls_null = rls_engine().build();
    group.bench_function("rls_null_sink_engine", |b| {
        b.iter(|| rls_null.solve(&circuit).unwrap())
    });
    let collector = std::sync::Arc::new(rlpta_core::Collector::new());
    let rls_collected = rls_engine().telemetry(collector.clone()).build();
    group.bench_function("rls_collector_engine", |b| {
        b.iter(|| {
            let sol = rls_collected.solve(&circuit).unwrap();
            collector.take();
            sol
        })
    });
    group.finish();
}

/// The assembly-layer counterpart of `symbolic_reuse`: one Newton system at
/// the DC operating point, written through the precompiled stamp plan
/// (slot-table scatter into a persistent CSR buffer) versus the triplet
/// reference (rebuild the COO list, then sort and dedup it into CSR). The
/// two are bit-identical by contract, so the gap between the bars is the
/// pure assembly overhead the plan path saves on every Newton iteration.
fn bench_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("assembly");
    for name in ["gm1", "fadd32"] {
        let (circuit, x) = operating_point(name);
        let ctx = EvalCtx::dc(&x);
        let mut res = vec![0.0; circuit.dim()];
        let mut state = circuit.seeded_state(&x);
        let plan = StampPlan::resolve(&circuit, &mut |_| {});
        let mut matrix = plan.new_matrix();
        group.bench_function(BenchmarkId::new("plan_eval_into", name), |b| {
            b.iter(|| {
                plan.eval_into(
                    &circuit,
                    &ctx,
                    &mut matrix,
                    &mut res,
                    &mut state,
                    &mut |_| {},
                )
            })
        });
        let mut jac = triplet_for(&circuit);
        group.bench_function(BenchmarkId::new("assemble_into_to_csr", name), |b| {
            b.iter(|| {
                circuit.assemble_into(&ctx, &mut jac, &mut res, &mut state);
                jac.to_csr()
            })
        });
    }
    group.finish();
}

/// Per-device-kind evidence for the Newton layer: one stamp of a lone
/// diode, BJT, MOSFET and resistor at a forward bias (limiter state
/// already settled, so no limiting fires), then, on two large suite
/// circuits at their operating points, one case per stamp sink: Newton's
/// and certification's `plan_eval` (slot-writer sink), the oracle's
/// `triplet_assemble` (triplet sink, fadd32 only), the PTA steady-state
/// test `residual_into`
/// (residual-only sink) and the limiter-only `seeded_state_into` it starts
/// with.
fn bench_devices(c: &mut Criterion) {
    let mut group = c.benchmark_group("devices");
    let n = Node::new;
    let devices: [(&str, Device, Vec<f64>); 4] = [
        (
            "diode",
            Diode::new("D1", n(0), Node::GROUND, DiodeModel::default()).into(),
            vec![0.65],
        ),
        (
            "bjt",
            Bjt::new("Q1", n(0), n(1), n(2), BjtModel::default()).into(),
            vec![5.0, 0.7, 0.0],
        ),
        (
            "mosfet",
            Mosfet::new("M1", n(0), n(1), n(2), n(2), MosModel::default(), 10.0).into(),
            vec![3.0, 2.0, 0.0],
        ),
        (
            "resistor",
            Resistor::new("R1", n(0), n(1), 1e3).into(),
            vec![1.0, 0.0],
        ),
    ];
    for (kind, device, x) in &devices {
        let ctx = EvalCtx::dc(x);
        let mut jac = Triplet::with_capacity(x.len(), x.len(), 32);
        let mut res = vec![0.0; x.len()];
        let mut state = vec![0.0; device.state_len()];
        for _ in 0..64 {
            device.limit_state(x, &mut state);
        }
        group.bench_function(BenchmarkId::new("stamp", kind), |b| {
            b.iter(|| {
                jac.clear();
                res.fill(0.0);
                device.stamp(&ctx, &mut Stamper::new(&mut jac, &mut res), &mut state);
            })
        });
    }
    for name in ["fadd32", "voter25"] {
        let (circuit, x) = operating_point(name);
        let ctx = EvalCtx::dc(&x);
        let mut res = vec![0.0; circuit.dim()];
        let mut state = circuit.seeded_state(&x);
        let plan = StampPlan::resolve(&circuit, &mut |_| {});
        let mut matrix = plan.new_matrix();
        group.bench_function(BenchmarkId::new("plan_eval", name), |b| {
            b.iter(|| {
                plan.eval_into(
                    &circuit,
                    &ctx,
                    &mut matrix,
                    &mut res,
                    &mut state,
                    &mut |_| {},
                )
            })
        });
        if name == "fadd32" {
            let mut jac = triplet_for(&circuit);
            group.bench_function(BenchmarkId::new("triplet_assemble", name), |b| {
                b.iter(|| circuit.assemble_into(&ctx, &mut jac, &mut res, &mut state))
            });
        }
        let mut scratch = ResidualScratch::default();
        group.bench_function(BenchmarkId::new("residual_into", name), |b| {
            b.iter(|| circuit.residual_into(&x, &mut res, &mut scratch))
        });
        group.bench_function(BenchmarkId::new("seeded_state_into", name), |b| {
            b.iter(|| circuit.seeded_state_into(&x, &mut state, &mut scratch))
        });
    }
    group.finish();
}

/// The per-job fixed costs outside Newton, on a mid-size and the largest
/// suite circuit: `structure_key` (one declare pass ordered into the
/// keyed pattern, plus the topology fold), `certify_cold` (a whole
/// certification on a fresh workspace: plan resolve, limiter seeding, one
/// plan evaluation, a full factorization and the condition estimate) and
/// `plan_resolve` (the declare pass plus the slot-table build).
fn bench_service_job(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_job");
    for name in ["gm6", "fadd32"] {
        let (circuit, x) = operating_point(name);
        group.bench_function(BenchmarkId::new("structure_key", name), |b| {
            b.iter(|| StructureKey::of(&circuit))
        });
        group.bench_function(BenchmarkId::new("certify_cold", name), |b| {
            b.iter(|| certify(&circuit, &x))
        });
        if name == "fadd32" {
            group.bench_function(BenchmarkId::new("plan_resolve", name), |b| {
                b.iter(|| StampPlan::resolve(&circuit, &mut |_| {}))
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_symbolic_reuse,
    bench_certify_lu,
    bench_batch_engine,
    bench_telemetry_overhead,
    bench_assembly,
    bench_devices,
    bench_service_job
);
criterion_main!(benches);
