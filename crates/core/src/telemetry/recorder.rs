//! Flight recorder: bounded always-on capture with post-mortem incident
//! reports.
//!
//! [`FlightRecorder`] is a [`Sink`] that keeps only the most
//! recent N events per in-flight job in fixed-capacity ring buffers, plus
//! per-job phase-time accumulators and global event-kind / cache counters.
//! Unlike [`JsonlSink`](super::JsonlSink) it can stay attached to a
//! long-lived service forever: memory is bounded at construction and the
//! steady-state `emit` path performs **no heap allocation** for the POD
//! payloads that dominate the hot path (ring slots are pre-sized and
//! reused; payloads carrying `String`s — ladder attempts, certification
//! grades — allocate on clone, but those are per-solve, not per-iteration).
//!
//! When a *trigger* event flows through — [`Payload::SolveFailed`] (the
//! one-per-failure boundary marker, which also carries worker panics),
//! [`Payload::Quarantined`], [`Payload::Watchdog`], or (opt-in)
//! [`Payload::Certified`] with a `"rejected"` grade — the recorder freezes
//! the owning job's window into a self-contained [`IncidentReport`] and,
//! if an incident directory is configured, serializes it to
//! `incident-NNNN-<trigger>.json` (zero-padded sequence numbers, so a
//! serial run's incident set is byte-diffable across CI runs). A per-run
//! cap bounds disk usage; incidents past the cap are counted, not written.
//!
//! The report is designed to answer "why did this solve go wrong" without
//! the full trace: the last-N event window, the ladder attempt trail and
//! gamma/step trajectory tail derived from it, the circuit label and
//! structure-key hash (attached via [`FlightRecorder::annotate`]), cache
//! counters folded from the stream itself, and — when a
//! [`MetricsRegistry`] is attached — a per-phase histogram snapshot.

use super::json::{float, hex_key, or_null, push_items, string};
use super::metrics::MetricsRegistry;
use super::timing::Phase;
use super::{kind_index_of, Event, Payload, Sink, KIND_NAMES};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// What froze a window into an incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// A top-level solve resolved to a terminal error
    /// ([`Payload::SolveFailed`] — also covers worker panics, which the
    /// engine surfaces as `SolveError::WorkerPanic` on the failed slot).
    SolveFailed,
    /// A batch job or sweep point was quarantined
    /// ([`Payload::Quarantined`]).
    Quarantined,
    /// The service watchdog flagged a deadline overrun
    /// ([`Payload::Watchdog`]).
    Watchdog,
    /// A certification graded `"rejected"` flowed by (opt-in via
    /// [`FlightRecorder::trigger_on_rejected`]; off by default because a
    /// mid-ladder rejection often precedes an ultimately certified solve —
    /// terminal rejections already surface as [`Trigger::SolveFailed`]).
    Rejected,
}

impl Trigger {
    /// Stable snake_case name, used in incident filenames and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Trigger::SolveFailed => "solve_failed",
            Trigger::Quarantined => "quarantined",
            Trigger::Watchdog => "watchdog",
            Trigger::Rejected => "rejected",
        }
    }
}

/// One failed ladder rung, as recovered from the event window.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentAttempt {
    /// Strategy name of the failed rung.
    pub strategy: String,
    /// Stringified error the rung died with.
    pub error: String,
    /// NR iterations the rung spent.
    pub nr_iterations: usize,
}

/// One PTA trajectory point, as recovered from the event window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncidentStep {
    /// Whether the point was accepted.
    pub accepted: bool,
    /// Step size of the attempt.
    pub h: f64,
    /// Controller's next-step reply.
    pub h_next: f64,
    /// Max relative solution change Γ (`None` on rejections).
    pub gamma: Option<f64>,
    /// Pseudo time after the point.
    pub time: f64,
}

/// Per-phase histogram snapshot row (from an attached
/// [`MetricsRegistry`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncidentHistogram {
    /// Which phase the row covers.
    pub phase: Phase,
    /// Recorded samples.
    pub count: u64,
    /// Median, nanoseconds.
    pub p50_nanos: u64,
    /// 99th percentile, nanoseconds.
    pub p99_nanos: u64,
}

/// A frozen post-mortem: everything the recorder knew about one job at the
/// moment a trigger fired. Self-contained — serializes to a single nested
/// JSON document via [`IncidentReport::to_json`].
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::exhaustive_structs)] // frozen diagnostic record, additive growth only
pub struct IncidentReport {
    /// Per-run incident sequence number (also in the filename).
    pub seq: usize,
    /// What fired.
    pub trigger: Trigger,
    /// Batch/service job id the window belongs to (`None` for standalone
    /// solves).
    pub job: Option<usize>,
    /// Circuit label attached via [`FlightRecorder::annotate`], if any.
    pub label: Option<String>,
    /// `StructureKey` hash attached via [`FlightRecorder::annotate`].
    pub structure_key: Option<u64>,
    /// The triggering event itself.
    pub trigger_event: Event,
    /// The last-N event window, oldest first (timing events excluded —
    /// they are accumulated into `phase_nanos` instead so windows stay
    /// deterministic).
    pub window: Vec<Event>,
    /// Ladder attempt trail recovered from the window.
    pub attempts: Vec<IncidentAttempt>,
    /// Gamma/step trajectory tail recovered from the window.
    pub trajectory: Vec<IncidentStep>,
    /// Per-phase wall-clock nanoseconds accumulated for this job (all
    /// zero unless some sink in the chain opted into timing).
    pub phase_nanos: Vec<(Phase, u64)>,
    /// Global event-kind counts at freeze time (kind name, count).
    pub event_counts: Vec<(&'static str, u64)>,
    /// Cache counters folded from the stream: hits, misses, evictions.
    pub cache: (u64, u64, u64),
    /// Histogram snapshot from the attached registry, if any.
    pub histograms: Vec<IncidentHistogram>,
}

impl IncidentReport {
    /// Serializes the report as one nested JSON document (no trailing
    /// newline). Every field is deterministic given the event stream —
    /// no wall-clock timestamps — so serial incident sets diff cleanly
    /// across runs; `phase_nanos` only appears when timing was on.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\n  \"incident\": {},\n  \"trigger\": {},\n  \"job\": {},\n  \"label\": {},\
             \n  \"structure_key\": {},\n  \"trigger_event\": {},\n  \"window\": [",
            self.seq,
            string(self.trigger.name()),
            or_null(self.job),
            or_null(self.label.as_deref().map(string)),
            or_null(self.structure_key.map(hex_key)),
            self.trigger_event.to_json(),
        );
        push_items(&mut s, &self.window, |s, e| s.push_str(&e.to_json()));
        s.push_str("\n  ],\n  \"attempts\": [");
        push_items(&mut s, &self.attempts, |s, a| {
            let _ = write!(
                s,
                "{{\"strategy\": {}, \"error\": {}, \"nr_iterations\": {}}}",
                string(&a.strategy),
                string(&a.error),
                a.nr_iterations
            );
        });
        s.push_str("\n  ],\n  \"trajectory\": [");
        push_items(&mut s, &self.trajectory, |s, t| {
            let _ = write!(
                s,
                "{{\"accepted\": {}, \"h\": {}, \"h_next\": {}, \"gamma\": {}, \"time\": {}}}",
                t.accepted,
                float(t.h),
                float(t.h_next),
                or_null(t.gamma.map(float)),
                float(t.time)
            );
        });
        s.push_str("\n  ],\n  \"phase_nanos\": {");
        let phases = self.phase_nanos.iter().filter(|(_, nanos)| *nanos != 0);
        push_items(&mut s, phases, |s, (phase, nanos)| {
            let _ = write!(s, "{}: {nanos}", string(phase.name()));
        });
        s.push_str("\n  },\n  \"event_counts\": {");
        let counts = self.event_counts.iter().filter(|(_, count)| *count != 0);
        push_items(&mut s, counts, |s, (kind, count)| {
            let _ = write!(s, "{}: {count}", string(kind));
        });
        let (hits, misses, evictions) = self.cache;
        let _ = write!(
            s,
            "\n  }},\n  \"cache\": {{\"hits\": {hits}, \"misses\": {misses}, \
             \"evictions\": {evictions}}},\n  \"histograms\": ["
        );
        push_items(&mut s, &self.histograms, |s, h| {
            let _ = write!(
                s,
                "{{\"phase\": {}, \"count\": {}, \"p50_nanos\": {}, \"p99_nanos\": {}}}",
                string(h.phase.name()),
                h.count,
                h.p50_nanos,
                h.p99_nanos
            );
        });
        s.push_str("\n  ]\n}");
        s
    }
}

/// One per-job capture slot: a pre-sized event ring plus phase
/// accumulators and the job annotation.
#[derive(Debug)]
struct JobSlot {
    /// Which job currently owns the slot (`Some(span.job)`); `None` when
    /// the slot is free.
    owner: Option<Option<usize>>,
    ring: Vec<Option<Event>>,
    /// Next write position.
    head: usize,
    /// Events currently held (saturates at capacity).
    len: usize,
    phase_nanos: [u64; Phase::ALL.len()],
    label: Option<String>,
    structure_key: Option<u64>,
    last_used: u64,
}

impl JobSlot {
    fn new(depth: usize) -> Self {
        let mut ring = Vec::with_capacity(depth);
        ring.resize_with(depth, || None);
        Self {
            owner: None,
            ring,
            head: 0,
            len: 0,
            phase_nanos: [0; Phase::ALL.len()],
            label: None,
            structure_key: None,
            last_used: 0,
        }
    }

    /// Clears the window and accumulators but keeps the annotation (a
    /// label set before a solve survives the solve's own incident).
    fn reset_window(&mut self) {
        for e in &mut self.ring {
            *e = None;
        }
        self.head = 0;
        self.len = 0;
        self.phase_nanos = [0; Phase::ALL.len()];
    }

    /// Recycles the slot for a new owner.
    fn assign(&mut self, owner: Option<usize>) {
        self.reset_window();
        self.owner = Some(owner);
        self.label = None;
        self.structure_key = None;
    }

    fn push(&mut self, event: &Event) {
        let cap = self.ring.len();
        if cap == 0 {
            return;
        }
        self.ring[self.head] = Some(event.clone());
        self.head = (self.head + 1) % cap;
        if self.len < cap {
            self.len += 1;
        }
    }

    /// The held window, oldest first.
    fn window(&self) -> Vec<Event> {
        let cap = self.ring.len();
        let mut out = Vec::with_capacity(self.len);
        if cap == 0 {
            return out;
        }
        let start = (self.head + cap - self.len) % cap;
        for i in 0..self.len {
            if let Some(e) = &self.ring[(start + i) % cap] {
                out.push(e.clone());
            }
        }
        out
    }
}

#[derive(Debug)]
struct RecorderState {
    slots: Vec<JobSlot>,
    /// LRU clock.
    tick: u64,
    /// Next incident sequence number.
    seq: usize,
    /// Incidents retained in memory (bounded by the per-run cap).
    incidents: Vec<IncidentReport>,
    /// Incidents suppressed past the cap.
    dropped: usize,
    last_path: Option<PathBuf>,
    kind_counts: [u64; KIND_NAMES.len()],
    write_error: Option<String>,
}

/// Bounded always-on event capture with incident snapshots; see the
/// [module docs](self).
#[derive(Debug)]
pub struct FlightRecorder {
    state: Mutex<RecorderState>,
    dir: Option<PathBuf>,
    max_incidents: usize,
    on_rejected: bool,
    registry: Option<Arc<MetricsRegistry>>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `depth` events per job, with
    /// default limits: 32 concurrent job slots, a 256-incident per-run
    /// cap, no incident directory (reports stay in memory), rejected
    /// certifications not triggering.
    pub fn new(depth: usize) -> Self {
        Self::with_slots(depth, 32)
    }

    /// Like [`FlightRecorder::new`] with an explicit concurrent-job slot
    /// count (slots are recycled least-recently-used when exceeded).
    pub fn with_slots(depth: usize, slots: usize) -> Self {
        let mut v = Vec::with_capacity(slots);
        v.resize_with(slots.max(1), || JobSlot::new(depth));
        Self {
            state: Mutex::new(RecorderState {
                slots: v,
                tick: 0,
                seq: 0,
                incidents: Vec::new(),
                dropped: 0,
                last_path: None,
                kind_counts: [0; KIND_NAMES.len()],
                write_error: None,
            }),
            dir: None,
            max_incidents: 256,
            on_rejected: false,
            registry: None,
        }
    }

    /// Serializes incident reports into `dir` (created on first write) as
    /// `incident-NNNN-<trigger>.json`.
    #[must_use]
    pub fn with_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// Caps how many incidents this recorder will freeze per run; later
    /// triggers are counted in [`FlightRecorder::dropped_incidents`] but
    /// produce no report.
    #[must_use]
    pub fn with_incident_cap(mut self, cap: usize) -> Self {
        self.max_incidents = cap;
        self
    }

    /// Attaches a registry whose per-phase histogram summaries are
    /// snapshotted into every incident.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Also freeze on `Certified { grade: "rejected" }` events. Off by
    /// default: a mid-ladder rejection is routinely rescued by a later
    /// rung, and terminal rejections already arrive as
    /// [`Payload::SolveFailed`].
    #[must_use]
    pub fn trigger_on_rejected(mut self, on: bool) -> Self {
        self.on_rejected = on;
        self
    }

    fn lock(&self) -> MutexGuard<'_, RecorderState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Attaches a circuit label and (optionally) a `StructureKey` hash to
    /// a job's slot, so its incidents are self-identifying. Call before
    /// the solve; the annotation survives incident freezes and is
    /// replaced on the next `annotate` for the same job.
    pub fn annotate(&self, job: Option<usize>, label: &str, structure_key: Option<u64>) {
        let mut st = self.lock();
        st.tick += 1;
        let tick = st.tick;
        let idx = Self::slot_index(&mut st, job, tick);
        let slot = &mut st.slots[idx];
        slot.label = Some(label.to_string());
        slot.structure_key = structure_key;
    }

    /// The event window currently held for `job`, oldest first (empty if
    /// the job has no slot). Test/inspection helper.
    pub fn window(&self, job: Option<usize>) -> Vec<Event> {
        let st = self.lock();
        st.slots
            .iter()
            .find(|s| s.owner == Some(job))
            .map(JobSlot::window)
            .unwrap_or_default()
    }

    /// Incidents frozen so far (capped copies of what was / would have
    /// been written).
    pub fn incidents(&self) -> Vec<IncidentReport> {
        self.lock().incidents.clone()
    }

    /// Number of incidents frozen so far (not counting dropped ones).
    pub fn incident_count(&self) -> usize {
        self.lock().incidents.len()
    }

    /// Triggers suppressed by the per-run cap.
    pub fn dropped_incidents(&self) -> usize {
        self.lock().dropped
    }

    /// Path of the most recently written incident file, if any.
    pub fn last_incident_path(&self) -> Option<PathBuf> {
        self.lock().last_path.clone()
    }

    /// First filesystem error hit while writing incidents, if any (the
    /// recorder never panics the solve path over a full disk).
    pub fn write_error(&self) -> Option<String> {
        self.lock().write_error.clone()
    }

    /// Finds (or recycles, LRU) the slot owning `job`.
    fn slot_index(st: &mut RecorderState, job: Option<usize>, tick: u64) -> usize {
        let mut lru = 0usize;
        let mut lru_tick = u64::MAX;
        for (i, slot) in st.slots.iter().enumerate() {
            if slot.owner == Some(job) {
                st.slots[i].last_used = tick;
                return i;
            }
            if slot.owner.is_none() {
                // Free slots beat evicting a live one.
                if lru_tick != 0 {
                    lru = i;
                    lru_tick = 0;
                }
            } else if slot.last_used < lru_tick {
                lru = i;
                lru_tick = slot.last_used;
            }
        }
        st.slots[lru].assign(job);
        st.slots[lru].last_used = tick;
        lru
    }

    fn trigger_of(&self, payload: &Payload) -> Option<Trigger> {
        match payload {
            Payload::SolveFailed { .. } => Some(Trigger::SolveFailed),
            Payload::Quarantined { .. } => Some(Trigger::Quarantined),
            Payload::Watchdog { .. } => Some(Trigger::Watchdog),
            Payload::Certified { grade, .. } if self.on_rejected && grade == "rejected" => {
                Some(Trigger::Rejected)
            }
            _ => None,
        }
    }

    /// Freezes `slot`'s window into a report; the caller holds the lock.
    fn freeze(&self, st: &mut RecorderState, idx: usize, trigger: Trigger, event: &Event) {
        if st.incidents.len() >= self.max_incidents {
            st.dropped += 1;
            st.slots[idx].reset_window();
            return;
        }
        let seq = st.seq;
        st.seq += 1;
        let slot = &st.slots[idx];
        let window = slot.window();
        let attempts = window
            .iter()
            .filter_map(|e| match &e.payload {
                Payload::LadderAttempt {
                    strategy,
                    error,
                    stats,
                } => Some(IncidentAttempt {
                    strategy: strategy.clone(),
                    error: error.clone(),
                    nr_iterations: stats.nr_iterations,
                }),
                _ => None,
            })
            .collect();
        let trajectory = window
            .iter()
            .filter_map(|e| match e.payload {
                Payload::PtaStep {
                    accepted,
                    h,
                    h_next,
                    gamma,
                    time,
                    ..
                } => Some(IncidentStep {
                    accepted,
                    h,
                    h_next,
                    gamma,
                    time,
                }),
                _ => None,
            })
            .collect();
        let histograms = self
            .registry
            .as_ref()
            .map(|r| {
                r.summaries()
                    .into_iter()
                    .map(|(phase, s)| IncidentHistogram {
                        phase,
                        count: s.count,
                        p50_nanos: s.p50_nanos,
                        p99_nanos: s.p99_nanos,
                    })
                    .collect()
            })
            .unwrap_or_default();
        let kind_count = |kind: &str| kind_index_of(kind).map_or(0, |i| st.kind_counts[i]);
        let report = IncidentReport {
            seq,
            trigger,
            job: event.span.job,
            label: slot.label.clone(),
            structure_key: slot.structure_key,
            trigger_event: event.clone(),
            window,
            attempts,
            trajectory,
            phase_nanos: Phase::ALL
                .iter()
                .enumerate()
                .map(|(i, p)| (*p, slot.phase_nanos[i]))
                .collect(),
            event_counts: KIND_NAMES
                .iter()
                .enumerate()
                .map(|(i, k)| (*k, st.kind_counts[i]))
                .collect(),
            cache: (
                kind_count("CacheHit"),
                kind_count("CacheMiss"),
                kind_count("CacheEvicted"),
            ),
            histograms,
        };
        if let Some(dir) = &self.dir {
            let path = dir.join(format!("incident-{seq:04}-{}.json", trigger.name()));
            let write = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(&path, report.to_json()));
            match write {
                Ok(()) => st.last_path = Some(path),
                Err(e) if st.write_error.is_none() => {
                    st.write_error = Some(format!("{}: {e}", path.display()));
                }
                Err(_) => {}
            }
        }
        st.incidents.push(report);
        st.slots[idx].reset_window();
    }
}

impl Sink for FlightRecorder {
    fn emit(&self, event: &Event) {
        let mut st = self.lock();
        st.tick += 1;
        let tick = st.tick;
        st.kind_counts[event.payload.kind_index()] += 1;
        let idx = Self::slot_index(&mut st, event.span.job, tick);
        if let Payload::PhaseTiming { phase, nanos } = &event.payload {
            // Timing stays out of the window (wall-clock data would make
            // incident bodies nondeterministic); accumulate it instead.
            if let Some(i) = Phase::ALL.iter().position(|p| p == phase) {
                st.slots[idx].phase_nanos[i] += nanos;
            }
            return;
        }
        st.slots[idx].push(event);
        if let Some(trigger) = self.trigger_of(&event.payload) {
            self.freeze(&mut st, idx, trigger, event);
        }
    }

    /// The recorder declines the out-of-band timing layer: attaching it
    /// must not start clock sampling on the hot path. (If another sink in
    /// a fanout opts in, the recorder folds the resulting `PhaseTiming`
    /// events into per-job accumulators.)
    fn wants_timing(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Span;

    fn ev(job: Option<usize>, iteration: usize) -> Event {
        Event {
            span: Span { job, worker: 0 },
            payload: Payload::NrIteration { iteration },
        }
    }

    #[test]
    fn ring_keeps_last_n_in_order() {
        let rec = FlightRecorder::new(4);
        for i in 0..10 {
            rec.emit(&ev(None, i));
        }
        let window = rec.window(None);
        let got: Vec<usize> = window
            .iter()
            .map(|e| match e.payload {
                Payload::NrIteration { iteration } => iteration,
                _ => 0,
            })
            .collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
    }

    #[test]
    fn trigger_freezes_window_and_resets() {
        let rec = FlightRecorder::new(8);
        rec.annotate(None, "gm1", Some(0xdead));
        for i in 0..3 {
            rec.emit(&ev(None, i));
        }
        rec.emit(&Event {
            span: Span::default(),
            payload: Payload::SolveFailed {
                error: "all strategies failed".to_string(),
            },
        });
        let incidents = rec.incidents();
        assert_eq!(incidents.len(), 1);
        let inc = &incidents[0];
        assert_eq!(inc.trigger, Trigger::SolveFailed);
        assert_eq!(inc.label.as_deref(), Some("gm1"));
        assert_eq!(inc.structure_key, Some(0xdead));
        assert_eq!(inc.window.len(), 4, "3 iterations + the trigger event");
        assert!(rec.window(None).is_empty(), "window resets after freeze");
        // Annotation survives the freeze.
        rec.emit(&Event {
            span: Span::default(),
            payload: Payload::SolveFailed {
                error: "again".to_string(),
            },
        });
        assert_eq!(rec.incidents()[1].label.as_deref(), Some("gm1"));
    }

    #[test]
    fn cap_drops_but_counts() {
        let rec = FlightRecorder::new(4).with_incident_cap(2);
        for _ in 0..5 {
            rec.emit(&Event {
                span: Span::default(),
                payload: Payload::SolveFailed {
                    error: "x".to_string(),
                },
            });
        }
        assert_eq!(rec.incident_count(), 2);
        assert_eq!(rec.dropped_incidents(), 3);
    }

    #[test]
    fn rejected_grade_triggers_only_when_opted_in() {
        let certified = |grade: &str| Event {
            span: Span::default(),
            payload: Payload::Certified {
                grade: grade.to_string(),
                residual: 1e-12,
                cond: 1.0,
                growth: 1.0,
            },
        };
        let quiet = FlightRecorder::new(4);
        quiet.emit(&certified("rejected"));
        assert_eq!(quiet.incident_count(), 0);
        let armed = FlightRecorder::new(4).trigger_on_rejected(true);
        armed.emit(&certified("certified"));
        armed.emit(&certified("rejected"));
        assert_eq!(armed.incident_count(), 1);
        assert_eq!(armed.incidents()[0].trigger, Trigger::Rejected);
    }

    #[test]
    fn slots_recycle_lru() {
        let rec = FlightRecorder::with_slots(2, 2);
        rec.emit(&ev(Some(0), 1));
        rec.emit(&ev(Some(1), 1));
        rec.emit(&ev(Some(0), 2)); // touch job 0 so job 1 is LRU
        rec.emit(&ev(Some(2), 1)); // evicts job 1
        assert!(rec.window(Some(1)).is_empty());
        assert_eq!(rec.window(Some(0)).len(), 2);
        assert_eq!(rec.window(Some(2)).len(), 1);
    }

    #[test]
    fn incident_json_mentions_core_fields() {
        let rec = FlightRecorder::new(4);
        rec.annotate(Some(3), "bias", None);
        rec.emit(&Event {
            span: Span {
                job: Some(3),
                worker: 0,
            },
            payload: Payload::Quarantined {
                index: 3,
                value: 0.5,
                error: "budget".to_string(),
            },
        });
        let json = rec.incidents()[0].to_json();
        for needle in [
            "\"trigger\": \"quarantined\"",
            "\"label\": \"bias\"",
            "\"job\": 3",
            "\"window\": [",
            "\"event_counts\": {",
            "\"cache\": {\"hits\": 0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn incident_files_have_deterministic_names() {
        let dir = std::env::temp_dir().join(format!("rlpta-rec-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rec = FlightRecorder::new(4).with_dir(&dir);
        rec.emit(&Event {
            span: Span::default(),
            payload: Payload::SolveFailed {
                error: "x".to_string(),
            },
        });
        rec.emit(&Event {
            span: Span::default(),
            payload: Payload::Quarantined {
                index: 0,
                value: 0.0,
                error: "y".to_string(),
            },
        });
        assert!(dir.join("incident-0000-solve_failed.json").is_file());
        assert!(dir.join("incident-0001-quarantined.json").is_file());
        assert_eq!(
            rec.last_incident_path(),
            Some(dir.join("incident-0001-quarantined.json"))
        );
        assert!(rec.write_error().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
