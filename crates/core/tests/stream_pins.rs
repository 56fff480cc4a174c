//! Byte pins for the event streams the paper's RL-S controller (§4)
//! writes: one engine solve's deterministic stream, line for line as
//! `Event::to_json` encodes it, plus the order of its `PhaseTiming`
//! phases (durations dropped — they are wall-clock). A diff here means
//! the stream or its encoding changed; update the golden file only for a
//! deliberate change.

use rlpta_core::prelude::*;
use rlpta_core::{Collector, Payload, RlSteppingConfig};
use std::sync::Arc;

const RLS_STREAM: &str = include_str!("golden/rls_engine_stream.jsonl");
const RLS_PHASES: &str = include_str!("golden/rls_engine_phases.txt");

#[test]
fn rls_engine_solve_stream_matches_golden() {
    let collector = Arc::new(Collector::new());
    let engine = DcEngine::builder()
        .kind(PtaKind::cepta())
        .stepping(Stepping::Rl(RlSteppingConfig::new(7)))
        .telemetry(collector.clone())
        .build();
    let circuit = rlpta_netlist::parse(
        "clamp\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\nD2 out 0 DX\n.model DX D(IS=1e-14)",
    )
    .expect("valid netlist");
    engine.solve(&circuit).expect("RL-S solves the clamp");
    let events = collector.events();
    let mut stream = String::new();
    let mut phases = String::new();
    for e in &events {
        match &e.payload {
            Payload::PhaseTiming { phase, .. } => {
                phases.push_str(phase.name());
                phases.push('\n');
            }
            _ => {
                stream.push_str(&e.to_json());
                stream.push('\n');
            }
        }
    }
    assert_eq!(stream, RLS_STREAM);
    assert_eq!(phases, RLS_PHASES);
}
