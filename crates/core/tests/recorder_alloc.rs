//! The flight recorder's hot-path contract: after construction, emitting
//! the plain-old-data events of the solver hot loop into an attached
//! recorder performs **zero** heap allocations — every ring slot is
//! preallocated, and a POD [`Payload`] clones without touching the heap.
//!
//! The counting allocator counts the measuring thread only
//! (`tests/support/counting_alloc.rs`).

#[path = "../../../tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

use rlpta_core::telemetry::{Event, Payload, Sink, Span};
use rlpta_core::FlightRecorder;

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
