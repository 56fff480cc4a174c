//! RL-S checkpointing: a trained dual-agent controller persists through
//! `save_policy`/`load_policy`, and the frozen [`RlPolicy`] of a reload
//! replays bit-identical stepping decisions. `TrainStep` telemetry flows
//! only from a learner with telemetry attached, never from a frozen
//! policy, and what the agents learn does not depend on whether the
//! attached sink keeps it.

use rlpta_core::{
    Collector, NullSink, Payload, PtaConfig, PtaKind, PtaSolver, RlPolicy, RlStepping,
    RlSteppingConfig, Sink, Span, StepController, TraceController,
};
use std::sync::Arc;

fn fixed_circuit() -> rlpta_mna::Circuit {
    rlpta_netlist::parse(
        "fix\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)\n",
    )
    .expect("parses")
}

/// Pre-trains a controller across two corpus circuits — enough transitions
/// to pass the warmup gate and run real TD3 updates.
fn trained_controller() -> RlStepping {
    let mut rl = RlStepping::new(RlSteppingConfig::new(7));
    for name in ["gm1", "bias"] {
        let b = rlpta_circuits::by_name(name).expect("known benchmark");
        let mut solver = PtaSolver::with_config(PtaKind::dpta(), rl.clone(), PtaConfig::default());
        let _ = solver.solve(&b.circuit);
        rl = solver.controller_mut().clone();
    }
    rl
}

#[test]
fn reloaded_policy_replays_identical_stepping_decisions() {
    let trained = trained_controller();
    assert!(
        trained.transitions_seen() > 8,
        "pre-training must clear the warmup gate ({} transitions)",
        trained.transitions_seen()
    );
    let mut buf = Vec::new();
    trained.save_policy(&mut buf).expect("policy saves");
    let reloaded =
        RlStepping::load_policy(RlSteppingConfig::new(7), &mut &buf[..]).expect("policy loads");
    // Frozen: no exploration noise, no training — decisions depend only on
    // the persisted networks.
    let c = fixed_circuit();
    let run = |ctl: RlPolicy| {
        let mut solver =
            PtaSolver::with_config(PtaKind::dpta(), TraceController::new(ctl), PtaConfig::default());
        solver.solve(&c).expect("solves");
        solver.controller_mut().entries().to_vec()
    };
    let original = run(trained.policy());
    let restored = run(reloaded.policy());
    assert!(!original.is_empty());
    assert_eq!(
        original, restored,
        "a frozen reload must replay the checkpointed policy bit for bit"
    );
}

/// A frozen run's decisions on the fixed circuit, pinned as literals: NR
/// iterations, PTA steps and an FNV-1a fold of every `next_step` value's
/// bits. Any change to the greedy step (state encoding, agent choice,
/// action maps, inference kernels) moves at least one of them.
#[test]
fn frozen_run_decisions_are_pinned() {
    let policy = trained_controller().policy();
    let mut solver = PtaSolver::with_config(
        PtaKind::dpta(),
        TraceController::new(policy),
        PtaConfig::default(),
    );
    let sol = solver.solve(&fixed_circuit()).expect("solves");
    let fold = solver
        .controller_mut()
        .entries()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, e| {
            (h ^ e.next_step.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(
        (sol.stats.nr_iterations, sol.stats.pta_steps, fold),
        (77, 29, 0x2ac5_848c_1892_f024),
        "frozen decisions moved"
    );
}

#[test]
fn train_step_events_flow_only_while_training() {
    let c = fixed_circuit();
    let train_steps = |sink: &Collector| {
        sink.events()
            .iter()
            .filter(|e| matches!(e.payload, Payload::TrainStep { .. }))
            .count()
    };

    // Training configuration: telemetry attached to the learner.
    let sink = Arc::new(Collector::new());
    let mut rl = trained_controller();
    rl.attach_telemetry(sink.clone(), Span::default());
    let mut solver = PtaSolver::with_config(PtaKind::dpta(), rl.clone(), PtaConfig::default());
    let _ = solver.solve(&c);
    assert!(
        train_steps(&sink) > 0,
        "an unfrozen controller with telemetry must stream TrainStep events"
    );

    // Evaluation configuration: same wiring, frozen policy — silence.
    let frozen_sink = Arc::new(Collector::new());
    let mut policy = rl.policy();
    policy.attach_telemetry(frozen_sink.clone(), Span::default());
    let mut solver = PtaSolver::with_config(PtaKind::dpta(), policy, PtaConfig::default());
    let _ = solver.solve(&c);
    assert_eq!(
        train_steps(&frozen_sink),
        0,
        "a frozen controller must not emit TrainStep events"
    );
}

/// The `TrainStep` losses are computed only for a sink that keeps them;
/// skipping them under `NullSink` must not change the solve or the
/// learned policy by a single bit.
#[test]
fn learning_is_identical_whether_or_not_the_sink_keeps_train_steps() {
    let c = fixed_circuit();
    let trained = trained_controller();
    let run = |sink: Arc<dyn Sink>| {
        let mut rl = trained.clone();
        rl.attach_telemetry(sink, Span::default());
        let mut solver = PtaSolver::with_config(PtaKind::dpta(), rl, PtaConfig::default());
        let sol = solver.solve(&c).expect("solves");
        let mut policy = Vec::new();
        solver
            .into_controller()
            .save_policy(&mut policy)
            .expect("policy saves");
        (sol, policy)
    };
    let collector = Arc::new(Collector::new());
    let (kept, kept_policy) = run(collector.clone());
    let (dropped, dropped_policy) = run(Arc::new(NullSink));
    assert!(
        collector
            .events()
            .iter()
            .any(|e| matches!(e.payload, Payload::TrainStep { .. })),
        "the collector side computed and kept the losses"
    );
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&kept.x), bits(&dropped.x));
    assert_eq!(kept.stats, dropped.stats);
    assert!(kept_policy == dropped_policy, "policies differ after the run");
}
