//! The streaming sinks' hot-path contract: after construction, emitting
//! the plain-old-data events of the solver hot loop into an attached
//! flight recorder or metrics registry performs **zero** heap allocations
//! — every ring slot is preallocated and a POD [`Payload`] clones without
//! touching the heap, and every histogram bucket and kind counter is a
//! fixed array slot.
//!
//! The counting allocator counts the measuring thread only
//! (`tests/support/counting_alloc.rs`).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

use rlpta_core::telemetry::{Event, Payload, Phase, Sink, Span};
use rlpta_core::{FlightRecorder, MetricsRegistry};

#[test]
fn emit_allocates_nothing_after_construction() {
    let recorder = FlightRecorder::new(64);
    let span = Span {
        job: Some(0),
        worker: 0,
    };
    // Warm the slot assignment (first emit for a job claims a slot) and
    // fault in any lazily-initialized lock state before counting.
    recorder.emit(&Event {
        span,
        payload: Payload::NrIteration { iteration: 0 },
    });

    let events = [
        Event {
            span,
            payload: Payload::NrIteration { iteration: 1 },
        },
        Event {
            span,
            payload: Payload::LuFactorized { dim: 132 },
        },
        Event {
            span,
            payload: Payload::LuReplayed { dim: 132 },
        },
        Event {
            span,
            payload: Payload::NrOutcome {
                iterations: 7,
                converged: true,
                lu_factorizations: 1,
                lu_refactorizations: 6,
                residual: 1e-12,
            },
        },
    ];

    // 300 emits wrap the 64-deep ring several times over, so both the
    // fill and the steady-state overwrite paths are exercised.
    let count = allocations(|| {
        for i in 0..300 {
            recorder.emit(&events[i % events.len()]);
        }
    });
    assert_eq!(
        count, 0,
        "recorder emit hot path allocated {count} time(s) over 300 POD events"
    );
    // The recorder really did capture the stream (last 64 survive).
    assert_eq!(recorder.window(Some(0)).len(), 64);
}

#[test]
fn registry_emit_allocates_nothing_after_construction() {
    let registry = MetricsRegistry::new();
    let span = Span {
        job: Some(0),
        worker: 0,
    };
    // Fault in any lazily-initialized lock state before counting.
    registry.emit(&Event {
        span,
        payload: Payload::NrIteration { iteration: 0 },
    });

    // Every phase at every power of two from 1 ns to 2^40 ns (about 18
    // minutes), so first samples of each phase and each bucket are all in
    // the measured window, interleaved with counting kinds.
    let mut events = Vec::new();
    for phase in Phase::ALL {
        for exp in 0..=40 {
            events.push(Event {
                span,
                payload: Payload::PhaseTiming {
                    phase,
                    nanos: 1 << exp,
                },
            });
        }
        events.push(Event {
            span,
            payload: Payload::LuReplayed { dim: 132 },
        });
        events.push(Event {
            span,
            payload: Payload::NrIteration { iteration: 1 },
        });
    }
    assert!(events.len() > 300);

    let count = allocations(|| {
        for e in &events {
            registry.emit(e);
        }
    });
    assert_eq!(
        count, 0,
        "registry emit allocated {count} time(s) over {} events",
        events.len()
    );
    for phase in Phase::ALL {
        let s = registry.summary(phase).expect("every phase fired");
        assert_eq!((s.count, s.min_nanos, s.max_nanos), (41, 1, 1 << 40), "{phase:?}");
    }
    assert_eq!(registry.kind_count("PhaseTiming"), 13 * 41);
    assert_eq!(registry.kind_count("NrIteration"), 14);
}
