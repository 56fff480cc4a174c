//! Scoped wall-clock timing spans, carried out-of-band on the telemetry
//! stream.
//!
//! Each instrumented hot boundary is a [`Phase`]. The layer has one clock,
//! [`PhaseTimer`], finished as one [`super::Payload::PhaseTiming`] with
//! the elapsed nanoseconds. Solvers wrap a phase's body in a
//! [`TimedGuard`] (via `Tele::time` or the `time_phase!` macro), which
//! finishes its timer on drop; callers outside the solver layers use
//! [`time_on`]. Timing events ride the same [`super::Sink`]
//! as the deterministic stream but are *out-of-band*: every determinism
//! comparison (serial ≡ parallel proptests, the CI JSONL diff) normalizes
//! them away, because wall-clock durations are scheduler- and load-
//! dependent by nature.
//!
//! The whole layer is gated on [`super::Sink::wants_timing`], resolved once
//! when the root telemetry context is built: under the default
//! [`super::NullSink`] (and any other sink that declines) no
//! `Instant::now()` is ever called — the timer holds `None` and finishing
//! it is a no-op. That keeps the zero-sink hot path free of clock syscalls, which
//! the `telemetry_overhead` criterion group and the unit tests here pin.

use super::{Payload, Sink, Span, Tele};
use std::time::Instant;

/// An instrumented phase of the solve pipeline — the span taxonomy.
///
/// The static [`Phase::parent`] relation describes where a phase *nominally*
/// nests (NR inside a PTA point, stamp/LU inside NR, …) and drives the
/// `--profile` self-time tree. It is an attribution aid, not an invariant:
/// e.g. `NewtonSolve` also runs outside any PTA loop for plain Newton
/// strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Stamp-plan resolution: the structural declare pass binding every
    /// device's `(row, col)` targets to nnz slots (once per structure).
    StampResolve,
    /// MNA matrix stamping: one numeric assembly pass over the devices,
    /// a slot-table scatter through the stamp plan.
    StampWrite,
    /// A full (symbolic + numeric) sparse LU factorization.
    LuFactorize,
    /// A numeric-only scatter-plan LU replay.
    LuReplay,
    /// The forward/backward triangular solve of one Newton step.
    LuSolve,
    /// One complete Newton–Raphson run (all iterations).
    NewtonSolve,
    /// One attempted pseudo-transient time point, accepted or rejected.
    PtaStep,
    /// One rung of the robust escalation ladder.
    LadderStage,
    /// Independent certification of a returned operating point (re-assembly,
    /// factorization, condition estimate and any refinement rescue).
    Certify,
    /// One RL actor forward pass proposing the next step size.
    RlInference,
    /// One TD3 training step (critic + actor + target updates).
    RlTrain,
    /// Fitting the GP surrogate on the accumulated observations.
    GpFit,
    /// One GP acquisition round (candidate scoring + batch evaluation).
    GpAcquisition,
}

impl Phase {
    /// Every phase, in canonical (declaration) order.
    pub const ALL: [Phase; 13] = [
        Phase::StampResolve,
        Phase::StampWrite,
        Phase::LuFactorize,
        Phase::LuReplay,
        Phase::LuSolve,
        Phase::NewtonSolve,
        Phase::PtaStep,
        Phase::LadderStage,
        Phase::Certify,
        Phase::RlInference,
        Phase::RlTrain,
        Phase::GpFit,
        Phase::GpAcquisition,
    ];

    /// Stable snake_case name used in the JSON encoding and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::StampResolve => "stamp_resolve",
            Phase::StampWrite => "stamp_write",
            Phase::LuFactorize => "lu_factorize",
            Phase::LuReplay => "lu_replay",
            Phase::LuSolve => "lu_solve",
            Phase::NewtonSolve => "nr_solve",
            Phase::PtaStep => "pta_step",
            Phase::LadderStage => "ladder_stage",
            Phase::Certify => "certify",
            Phase::RlInference => "rl_inference",
            Phase::RlTrain => "rl_train",
            Phase::GpFit => "gp_fit",
            Phase::GpAcquisition => "gp_acquisition",
        }
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }

    /// The phase this one nominally nests inside (`None` for roots).
    pub fn parent(self) -> Option<Phase> {
        match self {
            Phase::StampResolve
            | Phase::StampWrite
            | Phase::LuFactorize
            | Phase::LuReplay
            | Phase::LuSolve => Some(Phase::NewtonSolve),
            Phase::NewtonSolve | Phase::RlInference | Phase::RlTrain => Some(Phase::PtaStep),
            Phase::PtaStep
            | Phase::LadderStage
            | Phase::Certify
            | Phase::GpFit
            | Phase::GpAcquisition => None,
        }
    }
}

/// The layer's one clock: a sample started at construction and closed by
/// `PhaseTimer::finish` as one [`super::Payload::PhaseTiming`] event.
/// Sites where the phase is only known after the work ran (full factorize
/// vs symbolic replay is read off the workspace afterwards) finish it
/// themselves; [`TimedGuard`] finishes one on drop. Sampling is decided at
/// construction from the root sink's [`super::Sink::wants_timing`]; a
/// non-sampling timer never touches the clock.
#[derive(Debug, Default)]
pub struct PhaseTimer {
    start: Option<Instant>,
}

impl PhaseTimer {
    pub(crate) fn new(enabled: bool) -> Self {
        Self {
            start: enabled.then(Instant::now),
        }
    }

    /// Whether this timer actually sampled the clock.
    pub fn sampling(&self) -> bool {
        self.start.is_some()
    }

    /// Stops the timer, attributing the elapsed time to `phase`.
    pub(crate) fn finish(self, tele: &Tele<'_>, phase: Phase) {
        if let Some(t0) = self.start {
            tele.emit(Payload::PhaseTiming {
                phase,
                nanos: t0.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// A scoped timer: a [`PhaseTimer`] finished as its phase when the guard
/// drops. Built via `Tele::time`; holds no `Instant` (and its drop is a
/// no-op) when the root sink declines timing.
#[derive(Debug)]
pub struct TimedGuard<'t, 'a> {
    tele: &'t Tele<'a>,
    phase: Phase,
    timer: PhaseTimer,
}

impl<'t, 'a> TimedGuard<'t, 'a> {
    pub(crate) fn new(tele: &'t Tele<'a>, phase: Phase) -> Self {
        Self {
            tele,
            phase,
            timer: tele.timer(),
        }
    }

    /// Whether this guard actually sampled the clock.
    pub fn sampling(&self) -> bool {
        self.timer.sampling()
    }
}

impl Drop for TimedGuard<'_, '_> {
    fn drop(&mut self) {
        std::mem::take(&mut self.timer).finish(self.tele, self.phase);
    }
}

/// Times an expression under a phase: `time_phase!(tele, Phase::X, body)`
/// evaluates `body` with a [`TimedGuard`] alive around it and yields the
/// body's value.
macro_rules! time_phase {
    ($tele:expr, $phase:expr, $body:expr) => {{
        let __timing_guard = $tele.time($phase);
        $body
    }};
}
pub(crate) use time_phase;

/// Runs `body` as `phase` on `sink`, tagged `span`: one
/// [`super::Payload::PhaseTiming`] event when the sink wants timing, no
/// clock read otherwise. The entry point for callers outside the solver
/// layers (the bench harness times GP fits with it).
pub fn time_on<T>(sink: &dyn Sink, span: Span, phase: Phase, body: impl FnOnce() -> T) -> T {
    let tele = Tele::root(sink, span);
    time_phase!(tele, phase, body())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Collector, NullSink, Sink, Span};

    #[test]
    fn phase_names_round_trip_and_parents_are_acyclic() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
            // Walking up terminates (no cycles, depth ≤ 2).
            let mut depth = 0;
            let mut cur = p.parent();
            while let Some(q) = cur {
                depth += 1;
                assert!(depth <= 2, "{p:?}: parent chain too deep");
                cur = q.parent();
            }
        }
        assert_eq!(Phase::from_name("no_such_phase"), None);
    }

    /// The zero-cost pin: under `NullSink` (which declines timing) neither
    /// guard flavour samples the clock — no `Instant::now()` on the hot
    /// path — and nothing is emitted.
    #[test]
    fn null_sink_timing_never_samples_the_clock() {
        assert!(!NullSink.wants_timing());
        let tele = Tele::root(&NullSink, Span::default());
        let guard = tele.time(Phase::StampWrite);
        assert!(!guard.sampling());
        drop(guard);
        assert!(!tele.timer().sampling());
        // And a fully disabled context is just as silent.
        assert!(!Tele::disabled().time(Phase::NewtonSolve).sampling());
    }

    #[test]
    fn collector_timing_samples_and_emits_on_drop() {
        let collector = Collector::new();
        assert!(collector.wants_timing());
        let tele = Tele::root(&collector, Span::for_job(3));
        {
            let guard = tele.time(Phase::LuReplay);
            assert!(guard.sampling());
        }
        let timer = tele.timer();
        assert!(timer.sampling());
        timer.finish(&tele, Phase::LuFactorize);
        let events = collector.events();
        assert_eq!(events.len(), 2);
        match &events[0].payload {
            Payload::PhaseTiming { phase, .. } => assert_eq!(*phase, Phase::LuReplay),
            other => panic!("expected PhaseTiming, got {other:?}"),
        }
        assert!(events.iter().all(|e| e.payload.is_timing()));
        assert!(events.iter().all(|e| e.span.job == Some(3)));
    }

    #[test]
    fn time_phase_macro_yields_the_body_value() {
        let collector = Collector::new();
        let tele = Tele::root(&collector, Span::default());
        let v = time_phase!(tele, Phase::StampWrite, 6 * 7);
        assert_eq!(v, 42);
        assert_eq!(collector.len(), 1);
    }
}
