//! Property tests for the flight recorder's ring-buffer window semantics
//! and determinism checks that pooled execution freezes and numbers the
//! same incidents as a serial run (after normalizing the
//! scheduler-dependent worker ids away, exactly like the CI incident diff).

use proptest::prelude::*;
use rlpta_core::prelude::*;
use rlpta_core::telemetry::{Event, Payload, Sink, Span};
use std::sync::Arc;

fn nr_event(job: Option<usize>, iteration: usize) -> Event {
    Event {
        span: Span { job, worker: 0 },
        payload: Payload::NrIteration { iteration },
    }
}

proptest! {
    /// After `count` emits into a `depth`-deep ring, the live window holds
    /// exactly the last `min(count, depth)` events, oldest first; the
    /// window an incident freezes additionally ends with the trigger
    /// event itself.
    #[test]
    fn window_is_last_n_in_order(depth in 1usize..64, count in 0usize..200) {
        let rec = FlightRecorder::new(depth);
        for i in 0..count {
            rec.emit(&nr_event(Some(7), i));
        }
        let expect_live = count.min(depth);
        let live: Vec<usize> = rec
            .window(Some(7))
            .iter()
            .map(|e| match e.payload {
                Payload::NrIteration { iteration } => iteration,
                _ => usize::MAX,
            })
            .collect();
        prop_assert_eq!(live.len(), expect_live);
        let first = count - expect_live;
        prop_assert!(
            live.iter().copied().eq(first..count),
            "live window {:?} is not the ordered tail of 0..{}", live, count
        );

        // The trigger lands in the ring first, so the frozen window is the
        // last min(count + 1, depth) events with the trigger as its tail.
        rec.emit(&Event {
            span: Span { job: Some(7), worker: 0 },
            payload: Payload::SolveFailed { error: "boom".into() },
        });
        let incidents = rec.incidents();
        prop_assert_eq!(incidents.len(), 1);
        let frozen = &incidents[0].window;
        prop_assert_eq!(frozen.len(), (count + 1).min(depth));
        prop_assert!(
            matches!(frozen.last().map(|e| &e.payload), Some(Payload::SolveFailed { .. })),
            "frozen window must end with the trigger event"
        );
        let prefix: Vec<usize> = frozen[..frozen.len() - 1]
            .iter()
            .map(|e| match e.payload {
                Payload::NrIteration { iteration } => iteration,
                _ => usize::MAX,
            })
            .collect();
        let first = count - (frozen.len() - 1);
        prop_assert!(
            prefix.iter().copied().eq(first..count),
            "frozen prefix {:?} is not the ordered tail of 0..{}", prefix, count
        );
    }
}

/// The CI determinism normalizer: pool worker ids are the one
/// scheduler-dependent field in an event body.
fn normalize_workers(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(at) = rest.find("\"worker\":") {
        let digits_from = at + "\"worker\":".len();
        out.push_str(&rest[..digits_from]);
        out.push('0');
        rest = rest[digits_from..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

fn failing_batch() -> Vec<rlpta_mna::Circuit> {
    (0..6)
        .map(|i| {
            rlpta_netlist::parse(&format!(
                "clamp{i}\nV1 in 0 {}\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)",
                3.0 + 0.5 * i as f64
            ))
            .expect("valid netlist")
        })
        .collect()
}

/// `sections` resistor–diode stages in a chain from `V1`: big enough that
/// one Newton iteration takes long enough for pooled sweep chunks to
/// overlap.
fn diode_ladder(sections: usize) -> rlpta_mna::Circuit {
    let mut deck = String::from("ladder\nV1 n0 0 3\n.model DX D(IS=1e-14)\n");
    for k in 1..=sections {
        deck.push_str(&format!("R{k} n{} n{k} 1k\nD{k} n{k} 0 DX\n", k - 1));
    }
    rlpta_netlist::parse(&deck).expect("valid netlist")
}

/// A robust engine on `threads` workers whose starved budget fails every
/// job of [`failing_batch`].
fn starved_engine(threads: usize, recorder: &Arc<FlightRecorder>) -> DcEngine {
    DcEngine::builder()
        .robust()
        .budget(SolveBudget {
            wall_clock: None,
            max_nr_iterations: Some(1),
            max_steps: None,
        })
        .threads(threads)
        .telemetry(recorder.clone())
        .build()
}

/// Incident documents of a failing batch and a fully quarantined sweep
/// through one recorder. Batch failures freeze after the pool joins; the
/// sweep's chunk jobs freeze their quarantined points while they run, so
/// at 4 threads those freezes interleave across jobs.
fn incident_bodies(threads: usize) -> Vec<String> {
    let recorder = Arc::new(FlightRecorder::new(64));
    let engine = starved_engine(threads, &recorder);
    let results = engine.solve_batch(&failing_batch());
    assert!(
        results.iter().all(Result::is_err),
        "starved budget must fail every job"
    );
    let sweep = DcSweep::linear("V1", 3.0, 6.0, 0.03125).expect("valid sweep");
    let report = engine
        .sweep(&diode_ladder(40), &sweep)
        .expect("a starved sweep degrades to quarantine");
    assert_eq!(report.quarantined.len(), sweep.values().len());
    let mut bodies: Vec<String> = recorder
        .incidents()
        .iter()
        .map(|i| normalize_workers(&i.to_json()))
        .collect();
    bodies.sort();
    bodies
}

/// A 4-worker pooled batch and sweep freeze byte-identical incident
/// documents to a serial run once worker ids are normalized — incident
/// capture and numbering are scheduling-independent.
#[test]
fn pooled_incidents_match_serial_after_worker_normalization() {
    let serial = incident_bodies(1);
    assert_eq!(
        serial.len(),
        6 + 97,
        "one incident per failed job and point"
    );
    let pooled = incident_bodies(4);
    assert_eq!(serial, pooled);
}

/// Two failing batches through one recorder: each job's incidents are
/// numbered in its own sequence, so job 0's two files carry ordinals 0 and
/// 1 however the pool interleaved the other jobs.
#[test]
fn incidents_are_numbered_per_job_across_batches() {
    for threads in [1, 4] {
        let dir = std::env::temp_dir().join(format!(
            "rlpta-rec-per-job-{}-{threads}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let recorder = Arc::new(FlightRecorder::new(64).with_dir(&dir));
        for _ in 0..2 {
            let engine = starved_engine(threads, &recorder);
            assert!(engine
                .solve_batch(&failing_batch())
                .iter()
                .all(Result::is_err));
        }
        assert!(recorder.write_error().is_none());
        for n in ["0000", "0001"] {
            let path = dir.join(format!("incident-0000-{n}-solve_failed.json"));
            assert!(
                path.is_file(),
                "missing {} at {threads} thread(s)",
                path.display()
            );
        }
        let files = std::fs::read_dir(&dir).expect("incident dir").count();
        assert_eq!(files, 12, "two incidents for each of six jobs");
        std::fs::remove_dir_all(&dir).ok();
    }
}
