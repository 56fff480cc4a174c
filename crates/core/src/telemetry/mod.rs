//! Unified telemetry: one typed event stream from the LU kernel to the RL
//! trainer.
//!
//! Every solver layer emits [`Event`]s through a pluggable [`Sink`]:
//!
//! * the linear layer reports [`Payload::LuFactorized`] /
//!   [`Payload::LuReplayed`] per factorization (full vs scatter-plan
//!   replay, read off `rlpta_linalg::LuWorkspace::last_op`),
//! * Newton reports [`Payload::NrIteration`] / [`Payload::NrOutcome`],
//! * the PTA loop and transient integrator report [`Payload::PtaStep`],
//!   continuation/homotopy outer stages report [`Payload::StageStep`],
//! * the escalation ladder reports [`Payload::LadderAttempt`],
//! * the RL step controller reports [`Payload::TrainStep`] (training
//!   configuration only — frozen policies are silent),
//! * the GP active-learning oracle reports [`Payload::AcquisitionRound`],
//! * the batch engine reports [`Payload::BatchJob`] / [`Payload::SweepPoint`]
//!   and tags every event with a [`Span`] (job id + worker id) so parallel
//!   runs merge deterministically in input order.
//!
//! The legacy report types are *derived views* over this stream:
//! [`fold_stats`] rebuilds [`SolveStats`], [`fold_trace`] rebuilds the
//! [`TraceEntry`] list, [`fold_attempts`] rebuilds the ladder attempt trail
//! and [`fold_sweep_stats`] rebuilds a sweep's aggregate counters.
//! Internally the solvers themselves use the same fold (a per-solve
//! `StatsFold` registered on the emission path), so the counters they
//! return are definitionally equal to the fold of the events they emitted.
//!
//! Sinks shipping with the crate: [`NullSink`] (default — events are
//! dropped; the hot-path cost is bounded by constructing a small POD
//! payload), [`Collector`] (in-memory, for inspection and tests),
//! [`JsonlSink`] (std-only line-JSON writer with deterministic job-ordered
//! flushing), [`MetricsRegistry`] (streaming per-phase histograms and
//! per-kind occurrence counts, see [`metrics`])
//! and [`FanoutSink`] (tee to several sinks).
//!
//! On top of the deterministic stream sits an *out-of-band* timing layer
//! (see [`timing`]): scoped guards emit [`Payload::PhaseTiming`] with
//! wall-clock nanoseconds per instrumented [`Phase`]. Timing events ride
//! the same sink but are excluded from every determinism comparison, and
//! the whole layer is disabled — no clock reads at all — unless the root
//! sink opts in via [`Sink::wants_timing`].

pub mod json;
pub mod metrics;
pub mod recorder;
pub mod timing;

pub use metrics::{DerivedRates, Histogram, HistogramSummary, MetricsRegistry};
pub use recorder::{FlightRecorder, IncidentReport, Trigger};
pub use timing::Phase;

use crate::solution::SolveStats;
use crate::stepping::StepObservation;
use crate::trace::TraceEntry;
use json::{float, hex_key, or_null, push_field, string};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

/// Where an event came from: the batch job it belongs to and the pool
/// worker that produced it.
///
/// `job` is the submission index within a batch (sweep chunk, corpus
/// circuit) and is deterministic — streams grouped by
/// job id are identical across thread counts. `worker` identifies
/// *scheduling* and is not deterministic; diff tooling normalizes it away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Batch job index (input order), `None` for standalone solves.
    pub job: Option<usize>,
    /// Pool worker index; `0` on the calling thread and in serial runs.
    pub worker: usize,
}

impl Span {
    /// A span for batch job `job` on the worker running the current thread.
    pub fn for_job(job: usize) -> Self {
        Self {
            job: Some(job),
            worker: rlpta_threadpool::current_worker(),
        }
    }
}

/// A typed telemetry payload. Field sets mirror what the corresponding
/// layer knows at emission time; quantities derivable by folding (totals,
/// rates) are intentionally not duplicated here.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A full (symbolic + numeric) sparse LU factorization ran.
    LuFactorized {
        /// Matrix dimension.
        dim: usize,
    },
    /// A cached scatter plan was replayed with a numeric-only pass.
    LuReplayed {
        /// Matrix dimension.
        dim: usize,
    },
    /// One Newton–Raphson iteration started (after passing the budget
    /// check). The count of these events is `SolveStats::nr_iterations`.
    NrIteration {
        /// 1-based iteration index within the current NR run.
        iteration: usize,
    },
    /// A Newton–Raphson run finished without a hard error.
    NrOutcome {
        /// Iterations executed.
        iterations: usize,
        /// Whether the SPICE criteria were met.
        converged: bool,
        /// Full LU factorizations in this run.
        lu_factorizations: usize,
        /// Numeric-only LU replays in this run.
        lu_refactorizations: usize,
        /// Final residual infinity norm.
        residual: f64,
    },
    /// One attempted pseudo-transient (or real transient) time point.
    PtaStep {
        /// Whether the point was accepted (`false` = rolled back).
        accepted: bool,
        /// Step size that produced the attempt.
        h: f64,
        /// The controller's raw reply for the next step (before clamping).
        h_next: f64,
        /// Max relative solution change Γ; `None` on rejected steps.
        gamma: Option<f64>,
        /// NR iterations spent on the attempt.
        nr_iterations: usize,
        /// Residual infinity norm where NR stopped.
        residual: f64,
        /// Whether this point reached pseudo-steady state.
        pta_converged: bool,
        /// Pseudo time after the point.
        time: f64,
    },
    /// One outer stage of a continuation (Gmin/source) or homotopy run.
    /// Folds count every stage as a step and failed stages additionally as
    /// rejections.
    StageStep {
        /// Whether the stage's NR run converged.
        accepted: bool,
        /// The continuation control after the stage (gmin value, source
        /// level λ, or homotopy λ).
        control: f64,
    },
    /// A ladder rung failed and the solver escalated past it.
    LadderAttempt {
        /// Strategy name of the failed rung.
        strategy: String,
        /// Stringified error the rung died with.
        error: String,
        /// Work spent on the rung (fold of the rung's own events).
        stats: SolveStats,
    },
    /// One TD3 training step of the RL step controller. Emitted only when
    /// the controller is unfrozen (training configuration).
    TrainStep {
        /// Which agent trained (`"forward"` or `"backward"`).
        role: String,
        /// Mean absolute TD error of the sampled batch.
        td_error: f64,
        /// Actor objective `−mean Q₁(s, π(s))` over the batch.
        actor_loss: f64,
        /// Critic-1 MSE loss `mean((y − Q₁)²)` over the batch.
        critic_loss: f64,
        /// Transitions currently held in the agent's private buffer.
        buffer_occupancy: usize,
    },
    /// One acquisition round of the GP active-learning (IPP) loop.
    AcquisitionRound {
        /// 1-based round counter of the emitting oracle.
        round: usize,
        /// Candidate parameter vectors evaluated this round.
        evaluations: usize,
        /// Best (lowest) cost observed this round.
        best_cost: f64,
    },
    /// One solved sweep point.
    SweepPoint {
        /// Global point index along the sweep.
        index: usize,
        /// Swept source value at this point.
        value: f64,
        /// Per-point solve counters.
        stats: SolveStats,
    },
    /// A batch job started on the pool.
    BatchJob {
        /// Job index in submission order.
        job: usize,
        /// Total jobs in the batch.
        of: usize,
    },
    /// Terminal event of one strategy run; the last one in a stream wins
    /// when folding the `converged` flag.
    SolveDone {
        /// Whether the run reached the operating point.
        converged: bool,
    },
    /// A returned solution was independently certified (see
    /// [`crate::certify`](mod@crate::certify)). Emitted once per certified solve with the final
    /// grade after any refinement rescue.
    Certified {
        /// Grade name: `"certified"`, `"suspect"` or `"rejected"`.
        grade: String,
        /// Independently re-evaluated residual infinity norm.
        residual: f64,
        /// Hager 1-norm condition estimate of the Jacobian at the solution.
        cond: f64,
        /// Pivot growth of the certification factorization.
        growth: f64,
    },
    /// One iterative-refinement correction step of the certification rescue
    /// path.
    RefinementStep {
        /// 1-based rescue step index.
        step: usize,
        /// Residual infinity norm after the step.
        residual: f64,
    },
    /// A batch job or sweep point exhausted its retries and was quarantined:
    /// the batch/sweep continues and reports the failure as structured
    /// partial output instead of aborting.
    Quarantined {
        /// Job index (batch) or global point index (sweep).
        index: usize,
        /// Swept source value, or `0.0` for batch jobs.
        value: f64,
        /// Stringified terminal error.
        error: String,
    },
    /// A [`SimService`](crate::SimService) request found its circuit's
    /// structure in the plan cache: the solve starts from a shared symbolic
    /// analysis instead of redoing the sparse DFS/pivot work.
    CacheHit {
        /// [`StructureKey`](crate::service::StructureKey) hash of the
        /// request's MNA pattern + device topology.
        key: u64,
        /// MNA system dimension of the request.
        dim: usize,
    },
    /// A service request missed the plan cache (first sighting of the
    /// structure, or a prior entry was evicted/invalidated): the solve runs
    /// a full symbolic analysis and records it for successors.
    CacheMiss {
        /// Structure-key hash of the request.
        key: u64,
        /// MNA system dimension of the request.
        dim: usize,
    },
    /// The plan cache evicted an entry to stay inside its byte budget
    /// (least-recently-used first).
    CacheEvicted {
        /// Structure-key hash of the evicted entry.
        key: u64,
        /// Approximate bytes the eviction reclaimed.
        bytes: usize,
    },
    /// A job passed the service's admission control and entered the
    /// priority queue.
    JobQueued {
        /// Service-assigned job id (submission order).
        job: usize,
        /// Stable priority name (`"low"`, `"normal"`, `"high"`,
        /// `"critical"`).
        priority: String,
        /// Queue depth after the insertion.
        depth: usize,
    },
    /// A queued job was admitted to a worker by the service's drain cycle.
    JobAdmitted {
        /// Service-assigned job id.
        job: usize,
        /// Structure-key hash of the job's circuit — jobs sharing it drain
        /// into the same worker so cached plans stay core-local.
        key: u64,
    },
    /// A top-level solve request (standalone solve, batch slot, sweep, or
    /// warm service job) resolved to a terminal error after every retry and
    /// rescue. Emitted exactly once per failed job at the public
    /// engine/service boundary — never from inner ladder rungs, whose
    /// failures surface as [`Payload::LadderAttempt`] — so it is a reliable
    /// one-per-failure incident trigger for the
    /// [flight recorder](recorder::FlightRecorder).
    SolveFailed {
        /// Stringified terminal [`SolveError`](crate::SolveError).
        error: String,
    },
    /// The service watchdog flagged a job: its queue deadline expired
    /// before admission, or its end-to-end latency exceeded
    /// `deadline × factor`. Elapsed times are wall-clock and therefore
    /// scheduler-dependent; the watchdog is opt-in
    /// (`SimServiceBuilder::watchdog`) so deterministic suites never see
    /// these events. Itself a flight-recorder trigger.
    Watchdog {
        /// Service-assigned job id.
        job: usize,
        /// Observed elapsed wall-clock nanoseconds (queue wait or
        /// end-to-end latency).
        elapsed_nanos: u64,
        /// The limit that was exceeded (deadline × factor), nanoseconds.
        limit_nanos: u64,
    },
    /// Out-of-band wall-clock timing for one scoped phase (see
    /// [`timing`]). Durations are scheduler- and load-dependent, so every
    /// determinism comparison filters these events out (use
    /// [`Payload::is_timing`]); the counting folds ignore them.
    PhaseTiming {
        /// Which instrumented phase the measurement covers.
        phase: Phase,
        /// Elapsed wall-clock nanoseconds.
        nanos: u64,
    },
}

/// Stable kind names, index-aligned with [`Payload::kind_index`]. The
/// counting sinks count into `[u64; KIND_NAMES.len()]` arrays through that
/// index, which keeps their hot path allocation-free.
pub(crate) const KIND_NAMES: [&str; 23] = [
    "LuFactorized",
    "LuReplayed",
    "NrIteration",
    "NrOutcome",
    "PtaStep",
    "StageStep",
    "LadderAttempt",
    "TrainStep",
    "AcquisitionRound",
    "SweepPoint",
    "BatchJob",
    "SolveDone",
    "Certified",
    "RefinementStep",
    "Quarantined",
    "CacheHit",
    "CacheMiss",
    "CacheEvicted",
    "JobQueued",
    "JobAdmitted",
    "SolveFailed",
    "Watchdog",
    "PhaseTiming",
];

/// Index of the kind named `kind` into [`KIND_NAMES`] (`None` for a name
/// no payload carries).
pub(crate) fn kind_index_of(kind: &str) -> Option<usize> {
    KIND_NAMES.iter().position(|k| *k == kind)
}

impl Payload {
    /// Index of this payload's kind into [`KIND_NAMES`]. Exhaustive on
    /// purpose: adding a variant fails compilation here until the name
    /// table grows with it.
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            Payload::LuFactorized { .. } => 0,
            Payload::LuReplayed { .. } => 1,
            Payload::NrIteration { .. } => 2,
            Payload::NrOutcome { .. } => 3,
            Payload::PtaStep { .. } => 4,
            Payload::StageStep { .. } => 5,
            Payload::LadderAttempt { .. } => 6,
            Payload::TrainStep { .. } => 7,
            Payload::AcquisitionRound { .. } => 8,
            Payload::SweepPoint { .. } => 9,
            Payload::BatchJob { .. } => 10,
            Payload::SolveDone { .. } => 11,
            Payload::Certified { .. } => 12,
            Payload::RefinementStep { .. } => 13,
            Payload::Quarantined { .. } => 14,
            Payload::CacheHit { .. } => 15,
            Payload::CacheMiss { .. } => 16,
            Payload::CacheEvicted { .. } => 17,
            Payload::JobQueued { .. } => 18,
            Payload::JobAdmitted { .. } => 19,
            Payload::SolveFailed { .. } => 20,
            Payload::Watchdog { .. } => 21,
            Payload::PhaseTiming { .. } => 22,
        }
    }

    /// Stable kind name (used by [`MetricsRegistry::kind_count`] and the
    /// JSON encoding).
    pub fn kind(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }

    /// Whether this is an out-of-band timing payload — the predicate every
    /// determinism comparison uses to normalize wall-clock data away.
    pub fn is_timing(&self) -> bool {
        matches!(self, Payload::PhaseTiming { .. })
    }
}

/// One telemetry event: a [`Span`] tag plus a typed [`Payload`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Job/worker provenance.
    pub span: Span,
    /// What happened.
    pub payload: Payload,
}

/// A pluggable event consumer.
///
/// Sinks are shared across pool workers (`Send + Sync`) and must tolerate
/// concurrent `emit` calls; events for one job always arrive in program
/// order from a single thread, but events of *different* jobs interleave
/// arbitrarily. Order-sensitive sinks should group by `event.span.job`
/// (see [`Collector::events`] and [`JsonlSink`]).
pub trait Sink: Send + Sync + fmt::Debug {
    /// Consumes one event.
    fn emit(&self, event: &Event);

    /// Flush hook, called by the engine at the end of each entry point
    /// (`solve` / `solve_batch` / `sweep`). Sinks that buffer for
    /// deterministic ordering write out here.
    fn finish(&self) {}

    /// Whether this sink wants [`Payload::PhaseTiming`] events. Resolved
    /// once when the root telemetry context is built: a `false` here means
    /// the solvers never read the clock at all (see [`timing`]). Defaults
    /// to `true`; [`NullSink`] declines.
    fn wants_timing(&self) -> bool {
        true
    }
}

/// The default sink: drops every event. Kept allocation-free so the
/// telemetry layer costs only payload construction when unused (pinned by
/// the `engine` criterion bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl Sink for NullSink {
    fn emit(&self, _event: &Event) {}

    fn wants_timing(&self) -> bool {
        false
    }
}

/// Tees every event to several sinks — e.g. a [`JsonlSink`] trace plus a
/// [`MetricsRegistry`] aggregation on the same run. Timing is enabled iff
/// any member wants it.
#[derive(Debug, Default)]
pub struct FanoutSink {
    sinks: Vec<std::sync::Arc<dyn Sink>>,
}

impl FanoutSink {
    /// An empty fanout (acts like [`NullSink`] until sinks are added).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a member sink, builder-style.
    pub fn with(mut self, sink: std::sync::Arc<dyn Sink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Number of member sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether there are no member sinks.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Sink for FanoutSink {
    fn emit(&self, event: &Event) {
        for s in &self.sinks {
            s.emit(event);
        }
    }

    fn finish(&self) {
        for s in &self.sinks {
            s.finish();
        }
    }

    fn wants_timing(&self) -> bool {
        self.sinks.iter().any(|s| s.wants_timing())
    }
}

fn job_key(job: Option<usize>) -> (u8, usize) {
    match job {
        None => (0, 0),
        Some(j) => (1, j),
    }
}

/// An in-memory sink for inspection and tests.
#[derive(Debug, Default)]
pub struct Collector {
    events: Mutex<Vec<Event>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The collected events, merged deterministically: stably sorted by job
    /// id (un-jobbed events first, then jobs in submission order), with
    /// per-job program order preserved. With this merge, a parallel batch
    /// produces exactly the stream of the serial run modulo worker ids.
    pub fn events(&self) -> Vec<Event> {
        let mut out = self.events.lock().expect("collector lock").clone();
        out.sort_by_key(|e| job_key(e.span.job));
        out
    }

    /// Events in raw arrival order (scheduler-dependent under parallelism).
    pub fn raw_events(&self) -> Vec<Event> {
        self.events.lock().expect("collector lock").clone()
    }

    /// Drains the collector, returning the merged stream.
    pub fn take(&self) -> Vec<Event> {
        let mut out = std::mem::take(&mut *self.events.lock().expect("collector lock"));
        out.sort_by_key(|e| job_key(e.span.job));
        out
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("collector lock").len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for Collector {
    fn emit(&self, event: &Event) {
        self.events.lock().expect("collector lock").push(event.clone());
    }
}

struct JsonlState {
    out: Box<dyn Write + Send>,
    pending: BTreeMap<(u8, usize), Vec<String>>,
    error: bool,
}

impl fmt::Debug for JsonlState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlState")
            .field("pending_jobs", &self.pending.len())
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

/// A std-only line-JSON writer.
///
/// Events are buffered per job and written out on [`Sink::finish`] in job
/// order (un-jobbed events first), so the emitted file is bitwise
/// deterministic across thread counts except for the `"worker"` field.
/// I/O errors are latched: the first failed write disables the sink for
/// the rest of the run rather than panicking inside a solver.
#[derive(Debug)]
pub struct JsonlSink {
    state: Mutex<JsonlState>,
}

impl JsonlSink {
    /// Writes to `path`, truncating any existing file.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(io::BufWriter::new(file)))
    }

    /// Writes to an arbitrary writer.
    pub fn new(out: impl Write + Send + 'static) -> Self {
        Self {
            state: Mutex::new(JsonlState {
                out: Box::new(out),
                pending: BTreeMap::new(),
                error: false,
            }),
        }
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut st = self.state.lock().expect("jsonl lock");
        if st.error {
            return;
        }
        let line = event.to_json();
        st.pending
            .entry(job_key(event.span.job))
            .or_default()
            .push(line);
    }

    fn finish(&self) {
        let mut st = self.state.lock().expect("jsonl lock");
        if st.error {
            return;
        }
        let groups = std::mem::take(&mut st.pending);
        for (_, lines) in groups {
            for line in lines {
                if writeln!(st.out, "{line}").is_err() {
                    st.error = true;
                    return;
                }
            }
        }
        if st.out.flush().is_err() {
            st.error = true;
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.finish();
    }
}

// ---------------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------------

fn push_stats(buf: &mut String, stats: &SolveStats) {
    push_field(buf, "nr_iterations", stats.nr_iterations);
    push_field(buf, "pta_steps", stats.pta_steps);
    push_field(buf, "rejected_steps", stats.rejected_steps);
    push_field(buf, "lu_factorizations", stats.lu_factorizations);
    push_field(buf, "lu_refactorizations", stats.lu_refactorizations);
    push_field(buf, "converged", stats.converged);
}

impl Event {
    /// Encodes the event as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(s, "{{\"event\":{}", string(self.payload.kind()));
        push_field(&mut s, "job", or_null(self.span.job));
        push_field(&mut s, "worker", self.span.worker);
        match &self.payload {
            Payload::LuFactorized { dim } | Payload::LuReplayed { dim } => {
                push_field(&mut s, "dim", dim);
            }
            Payload::NrIteration { iteration } => push_field(&mut s, "iteration", iteration),
            Payload::NrOutcome {
                iterations,
                converged,
                lu_factorizations,
                lu_refactorizations,
                residual,
            } => {
                push_field(&mut s, "iterations", iterations);
                push_field(&mut s, "converged", converged);
                push_field(&mut s, "lu_factorizations", lu_factorizations);
                push_field(&mut s, "lu_refactorizations", lu_refactorizations);
                push_field(&mut s, "residual", float(*residual));
            }
            Payload::PtaStep {
                accepted,
                h,
                h_next,
                gamma,
                nr_iterations,
                residual,
                pta_converged,
                time,
            } => {
                push_field(&mut s, "accepted", accepted);
                push_field(&mut s, "h", float(*h));
                push_field(&mut s, "h_next", float(*h_next));
                push_field(&mut s, "gamma", or_null(gamma.map(float)));
                push_field(&mut s, "nr_iterations", nr_iterations);
                push_field(&mut s, "residual", float(*residual));
                push_field(&mut s, "pta_converged", pta_converged);
                push_field(&mut s, "time", float(*time));
            }
            Payload::StageStep { accepted, control } => {
                push_field(&mut s, "accepted", accepted);
                push_field(&mut s, "control", float(*control));
            }
            Payload::LadderAttempt {
                strategy,
                error,
                stats,
            } => {
                push_field(&mut s, "strategy", string(strategy));
                push_field(&mut s, "error", string(error));
                push_stats(&mut s, stats);
            }
            Payload::TrainStep {
                role,
                td_error,
                actor_loss,
                critic_loss,
                buffer_occupancy,
            } => {
                push_field(&mut s, "role", string(role));
                push_field(&mut s, "td_error", float(*td_error));
                push_field(&mut s, "actor_loss", float(*actor_loss));
                push_field(&mut s, "critic_loss", float(*critic_loss));
                push_field(&mut s, "buffer_occupancy", buffer_occupancy);
            }
            Payload::AcquisitionRound {
                round,
                evaluations,
                best_cost,
            } => {
                push_field(&mut s, "round", round);
                push_field(&mut s, "evaluations", evaluations);
                push_field(&mut s, "best_cost", float(*best_cost));
            }
            Payload::SweepPoint {
                index,
                value,
                stats,
            } => {
                push_field(&mut s, "index", index);
                push_field(&mut s, "value", float(*value));
                push_stats(&mut s, stats);
            }
            Payload::BatchJob { job, of } => {
                // `"job"` is taken by the span tag on every line; the
                // payload's own index serializes as `"index"`.
                push_field(&mut s, "index", job);
                push_field(&mut s, "of", of);
            }
            Payload::SolveDone { converged } => push_field(&mut s, "converged", converged),
            Payload::Certified {
                grade,
                residual,
                cond,
                growth,
            } => {
                push_field(&mut s, "grade", string(grade));
                push_field(&mut s, "residual", float(*residual));
                push_field(&mut s, "cond", float(*cond));
                push_field(&mut s, "growth", float(*growth));
            }
            Payload::RefinementStep { step, residual } => {
                push_field(&mut s, "step", step);
                push_field(&mut s, "residual", float(*residual));
            }
            Payload::Quarantined {
                index,
                value,
                error,
            } => {
                push_field(&mut s, "index", index);
                push_field(&mut s, "value", float(*value));
                push_field(&mut s, "error", string(error));
            }
            Payload::CacheHit { key, dim } | Payload::CacheMiss { key, dim } => {
                push_field(&mut s, "key", hex_key(*key));
                push_field(&mut s, "dim", dim);
            }
            Payload::CacheEvicted { key, bytes } => {
                push_field(&mut s, "key", hex_key(*key));
                push_field(&mut s, "bytes", bytes);
            }
            Payload::JobQueued {
                job,
                priority,
                depth,
            } => {
                push_field(&mut s, "index", job);
                push_field(&mut s, "priority", string(priority));
                push_field(&mut s, "depth", depth);
            }
            Payload::JobAdmitted { job, key } => {
                push_field(&mut s, "index", job);
                push_field(&mut s, "key", hex_key(*key));
            }
            Payload::SolveFailed { error } => push_field(&mut s, "error", string(error)),
            Payload::Watchdog {
                job,
                elapsed_nanos,
                limit_nanos,
            } => {
                push_field(&mut s, "index", job);
                push_field(&mut s, "elapsed_nanos", elapsed_nanos);
                push_field(&mut s, "limit_nanos", limit_nanos);
            }
            Payload::PhaseTiming { phase, nanos } => {
                push_field(&mut s, "phase", string(phase.name()));
                push_field(&mut s, "nanos", nanos);
            }
        }
        s.push('}');
        s
    }

    /// Parses one line produced by [`Event::to_json`] back into an event.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description on malformed input or an
    /// unknown event kind.
    pub fn parse_json(line: &str) -> Result<Event, String> {
        let fields = json::parse_object(line)?;
        let kind = fields.str_field("event")?;
        let job = match fields.get("job") {
            Some(v) if !v.is_null() => Some(fields.usize_field("job")?),
            _ => None,
        };
        let worker = match fields.get("worker") {
            Some(_) => fields.usize_field("worker")?,
            None => 0,
        };
        let payload = match kind.as_str() {
            "LuFactorized" => Payload::LuFactorized {
                dim: fields.usize_field("dim")?,
            },
            "LuReplayed" => Payload::LuReplayed {
                dim: fields.usize_field("dim")?,
            },
            "NrIteration" => Payload::NrIteration {
                iteration: fields.usize_field("iteration")?,
            },
            "NrOutcome" => Payload::NrOutcome {
                iterations: fields.usize_field("iterations")?,
                converged: fields.bool_field("converged")?,
                lu_factorizations: fields.usize_field("lu_factorizations")?,
                lu_refactorizations: fields.usize_field("lu_refactorizations")?,
                residual: fields.f64_field("residual")?,
            },
            "PtaStep" => Payload::PtaStep {
                accepted: fields.bool_field("accepted")?,
                h: fields.f64_field("h")?,
                h_next: fields.f64_field("h_next")?,
                gamma: match fields.get("gamma") {
                    Some(v) if !v.is_null() => Some(fields.f64_field("gamma")?),
                    _ => None,
                },
                nr_iterations: fields.usize_field("nr_iterations")?,
                residual: fields.f64_field("residual")?,
                pta_converged: fields.bool_field("pta_converged")?,
                time: fields.f64_field("time")?,
            },
            "StageStep" => Payload::StageStep {
                accepted: fields.bool_field("accepted")?,
                control: fields.f64_field("control")?,
            },
            "LadderAttempt" => Payload::LadderAttempt {
                strategy: fields.str_field("strategy")?,
                error: fields.str_field("error")?,
                stats: stats_of(&fields)?,
            },
            "TrainStep" => Payload::TrainStep {
                role: fields.str_field("role")?,
                td_error: fields.f64_field("td_error")?,
                actor_loss: fields.f64_field("actor_loss")?,
                critic_loss: fields.f64_field("critic_loss")?,
                buffer_occupancy: fields.usize_field("buffer_occupancy")?,
            },
            "AcquisitionRound" => Payload::AcquisitionRound {
                round: fields.usize_field("round")?,
                evaluations: fields.usize_field("evaluations")?,
                best_cost: fields.f64_field("best_cost")?,
            },
            "SweepPoint" => Payload::SweepPoint {
                index: fields.usize_field("index")?,
                value: fields.f64_field("value")?,
                stats: stats_of(&fields)?,
            },
            "BatchJob" => Payload::BatchJob {
                job: fields.usize_field("index")?,
                of: fields.usize_field("of")?,
            },
            "SolveDone" => Payload::SolveDone {
                converged: fields.bool_field("converged")?,
            },
            "Certified" => Payload::Certified {
                grade: fields.str_field("grade")?,
                residual: fields.f64_field("residual")?,
                cond: fields.f64_field("cond")?,
                growth: fields.f64_field("growth")?,
            },
            "RefinementStep" => Payload::RefinementStep {
                step: fields.usize_field("step")?,
                residual: fields.f64_field("residual")?,
            },
            "Quarantined" => Payload::Quarantined {
                index: fields.usize_field("index")?,
                value: fields.f64_field("value")?,
                error: fields.str_field("error")?,
            },
            "CacheHit" => Payload::CacheHit {
                key: fields.key_field("key")?,
                dim: fields.usize_field("dim")?,
            },
            "CacheMiss" => Payload::CacheMiss {
                key: fields.key_field("key")?,
                dim: fields.usize_field("dim")?,
            },
            "CacheEvicted" => Payload::CacheEvicted {
                key: fields.key_field("key")?,
                bytes: fields.usize_field("bytes")?,
            },
            "JobQueued" => Payload::JobQueued {
                job: fields.usize_field("index")?,
                priority: fields.str_field("priority")?,
                depth: fields.usize_field("depth")?,
            },
            "JobAdmitted" => Payload::JobAdmitted {
                job: fields.usize_field("index")?,
                key: fields.key_field("key")?,
            },
            "SolveFailed" => Payload::SolveFailed {
                error: fields.str_field("error")?,
            },
            "Watchdog" => Payload::Watchdog {
                job: fields.usize_field("index")?,
                elapsed_nanos: fields.u64_field("elapsed_nanos")?,
                limit_nanos: fields.u64_field("limit_nanos")?,
            },
            "PhaseTiming" => {
                let name = fields.str_field("phase")?;
                Payload::PhaseTiming {
                    phase: Phase::from_name(&name)
                        .ok_or_else(|| format!("unknown phase {name:?}"))?,
                    nanos: fields.u64_field("nanos")?,
                }
            }
            other => return Err(format!("unknown event kind {other:?}")),
        };
        Ok(Event {
            span: Span { job, worker },
            payload,
        })
    }
}

/// The [`SolveStats`] fields [`push_stats`] writes.
fn stats_of(fields: &json::Value) -> Result<SolveStats, String> {
    Ok(SolveStats {
        nr_iterations: fields.usize_field("nr_iterations")?,
        pta_steps: fields.usize_field("pta_steps")?,
        rejected_steps: fields.usize_field("rejected_steps")?,
        lu_factorizations: fields.usize_field("lu_factorizations")?,
        lu_refactorizations: fields.usize_field("lu_refactorizations")?,
        converged: fields.bool_field("converged")?,
    })
}

// ---------------------------------------------------------------------------
// Derived views
// ---------------------------------------------------------------------------

/// Folds a stream back into [`SolveStats`] — the derived view behind every
/// solver's returned counters.
///
/// Rules: `nr_iterations` counts [`Payload::NrIteration`]; accepted /
/// rejected [`Payload::PtaStep`]s count as steps / rejections;
/// [`Payload::StageStep`]s count as steps and failed ones additionally as
/// rejections; LU events split into full factorizations and replays; the
/// *last* [`Payload::SolveDone`] decides `converged` (matching
/// [`SolveStats::absorb`]'s last-wins semantics across ladder rungs).
/// Summary payloads ([`Payload::LadderAttempt`], [`Payload::SweepPoint`])
/// are ignored — their embedded stats summarize raw events already in the
/// stream.
pub fn fold_stats<'a>(events: impl IntoIterator<Item = &'a Event>) -> SolveStats {
    let fold = StatsFold::default();
    for e in events {
        fold.apply(&e.payload);
    }
    fold.snapshot()
}

/// Rebuilds the step-controller trace — what [`crate::TraceController`]
/// records — from the stream's [`Payload::PtaStep`] events.
pub fn fold_trace<'a>(events: impl IntoIterator<Item = &'a Event>) -> Vec<TraceEntry> {
    events
        .into_iter()
        .filter_map(|e| match &e.payload {
            Payload::PtaStep {
                accepted,
                h,
                h_next,
                gamma,
                nr_iterations,
                residual,
                pta_converged,
                time,
            } => Some(TraceEntry {
                observation: StepObservation {
                    nr_iterations: *nr_iterations,
                    nr_converged: *accepted,
                    residual: *residual,
                    gamma: *gamma,
                    pta_converged: *pta_converged,
                    step: *h,
                    time: *time,
                },
                next_step: *h_next,
            }),
            _ => None,
        })
        .collect()
}

/// A ladder attempt reconstructed from the stream — the derived form of
/// [`crate::AttemptReport`] (wall-clock time is runtime-only and not part
/// of the stream).
#[derive(Debug, Clone, PartialEq)]
pub struct LadderAttemptView {
    /// Strategy name of the failed rung.
    pub strategy: String,
    /// Stringified error.
    pub error: String,
    /// Work spent on the rung.
    pub stats: SolveStats,
}

/// Rebuilds the escalation-ladder attempt trail from
/// [`Payload::LadderAttempt`] events.
pub fn fold_attempts<'a>(events: impl IntoIterator<Item = &'a Event>) -> Vec<LadderAttemptView> {
    events
        .into_iter()
        .filter_map(|e| match &e.payload {
            Payload::LadderAttempt {
                strategy,
                error,
                stats,
            } => Some(LadderAttemptView {
                strategy: strategy.clone(),
                error: error.clone(),
                stats: *stats,
            }),
            _ => None,
        })
        .collect()
}

/// Rebuilds a sweep's aggregate counters from [`Payload::SweepPoint`]
/// events: per-point stats absorbed in sweep order, `converged` iff every
/// point converged (matching `SweepReport::stats`).
pub fn fold_sweep_stats<'a>(events: impl IntoIterator<Item = &'a Event>) -> SolveStats {
    let mut points: Vec<(usize, SolveStats)> = events
        .into_iter()
        .filter_map(|e| match &e.payload {
            Payload::SweepPoint { index, stats, .. } => Some((*index, *stats)),
            _ => None,
        })
        .collect();
    points.sort_by_key(|(i, _)| *i);
    let mut stats = SolveStats::default();
    let mut all = !points.is_empty();
    for (_, s) in &points {
        stats.absorb(s);
        all &= s.converged;
    }
    stats.converged = all;
    stats
}

// ---------------------------------------------------------------------------
// Internal emission plumbing
// ---------------------------------------------------------------------------

/// Per-solve accumulator applying the [`fold_stats`] rules incrementally.
/// Registered on the emission path by every solver, which makes its
/// returned [`SolveStats`] a derived view of the events it emitted by
/// construction.
#[derive(Debug, Default)]
pub(crate) struct StatsFold {
    nr_iterations: Cell<usize>,
    pta_steps: Cell<usize>,
    rejected_steps: Cell<usize>,
    lu_factorizations: Cell<usize>,
    lu_refactorizations: Cell<usize>,
    converged: Cell<bool>,
}

impl StatsFold {
    pub(crate) fn apply(&self, payload: &Payload) {
        match payload {
            Payload::NrIteration { .. } => {
                self.nr_iterations.set(self.nr_iterations.get() + 1);
            }
            Payload::LuFactorized { .. } => {
                self.lu_factorizations.set(self.lu_factorizations.get() + 1);
            }
            Payload::LuReplayed { .. } => {
                self.lu_refactorizations
                    .set(self.lu_refactorizations.get() + 1);
            }
            Payload::PtaStep { accepted, .. } => {
                if *accepted {
                    self.pta_steps.set(self.pta_steps.get() + 1);
                } else {
                    self.rejected_steps.set(self.rejected_steps.get() + 1);
                }
            }
            Payload::StageStep { accepted, .. } => {
                self.pta_steps.set(self.pta_steps.get() + 1);
                if !accepted {
                    self.rejected_steps.set(self.rejected_steps.get() + 1);
                }
            }
            Payload::SolveDone { converged } => self.converged.set(*converged),
            _ => {}
        }
    }

    pub(crate) fn snapshot(&self) -> SolveStats {
        SolveStats {
            nr_iterations: self.nr_iterations.get(),
            pta_steps: self.pta_steps.get(),
            rejected_steps: self.rejected_steps.get(),
            lu_factorizations: self.lu_factorizations.get(),
            lu_refactorizations: self.lu_refactorizations.get(),
            converged: self.converged.get(),
        }
    }
}

/// The telemetry context threaded through the solver layers: a chain of
/// [`StatsFold`]s (one per nested scope — e.g. ladder total → ladder stage
/// → inner PTA run) plus the user [`Sink`] at the root. Emitting walks the
/// fold chain, then forwards a span-tagged [`Event`] to the sink.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tele<'a> {
    sink: Option<&'a dyn Sink>,
    span: Span,
    fold: Option<&'a StatsFold>,
    parent: Option<&'a Tele<'a>>,
    /// Resolved once at the root from [`Sink::wants_timing`]; when false
    /// the timing guards never read the clock.
    timing: bool,
}

impl<'a> Tele<'a> {
    /// A context with no sink and no folds — for public solver entry
    /// points that only need their own child fold.
    pub(crate) fn disabled() -> Tele<'static> {
        Tele {
            sink: None,
            span: Span::default(),
            fold: None,
            parent: None,
            timing: false,
        }
    }

    /// A root context forwarding to `sink` with every event tagged `span`.
    pub(crate) fn root(sink: &'a dyn Sink, span: Span) -> Tele<'a> {
        Tele {
            sink: Some(sink),
            span,
            fold: None,
            parent: None,
            timing: sink.wants_timing(),
        }
    }

    /// The span this context tags its events with.
    pub(crate) fn span(&self) -> Span {
        self.span
    }

    /// A child context that additionally accumulates into `fold`.
    pub(crate) fn child(&'a self, fold: &'a StatsFold) -> Tele<'a> {
        Tele {
            sink: self.sink,
            span: self.span,
            fold: Some(fold),
            parent: Some(self),
            timing: self.timing,
        }
    }

    /// A scoped timer for `phase`: emits [`Payload::PhaseTiming`] on drop,
    /// or does nothing at all (no clock read) when timing is disabled.
    pub(crate) fn time<'t>(&'t self, phase: Phase) -> timing::TimedGuard<'t, 'a> {
        timing::TimedGuard::new(self, phase)
    }

    /// A deferred-phase timer for sites where the phase is only known
    /// after the fact; finish with [`timing::PhaseTimer::finish`].
    pub(crate) fn timer(&self) -> timing::PhaseTimer {
        timing::PhaseTimer::new(self.timing)
    }

    /// Emits one payload: applies every fold on the chain, then forwards
    /// to the sink (if any).
    pub(crate) fn emit(&self, payload: Payload) {
        let mut node = Some(self);
        while let Some(t) = node {
            if let Some(f) = t.fold {
                f.apply(&payload);
            }
            node = t.parent;
        }
        if let Some(sink) = self.sink {
            sink.emit(&Event {
                span: self.span,
                payload,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(payload: Payload) -> Event {
        Event {
            span: Span::default(),
            payload,
        }
    }

    fn sample_stats() -> SolveStats {
        SolveStats {
            nr_iterations: 12,
            pta_steps: 5,
            rejected_steps: 2,
            lu_factorizations: 3,
            lu_refactorizations: 9,
            converged: true,
        }
    }

    fn all_payloads() -> Vec<Payload> {
        vec![
            Payload::LuFactorized { dim: 7 },
            Payload::LuReplayed { dim: 7 },
            Payload::NrIteration { iteration: 3 },
            Payload::NrOutcome {
                iterations: 4,
                converged: true,
                lu_factorizations: 1,
                lu_refactorizations: 3,
                residual: 1.5e-9,
            },
            Payload::PtaStep {
                accepted: true,
                h: 1e-3,
                h_next: 2e-3,
                gamma: Some(0.25),
                nr_iterations: 4,
                residual: 3.0e-10,
                pta_converged: false,
                time: 0.125,
            },
            Payload::PtaStep {
                accepted: false,
                h: 8.0,
                h_next: 1.0,
                gamma: None,
                nr_iterations: 10,
                residual: f64::NAN,
                pta_converged: false,
                time: 0.125,
            },
            Payload::StageStep {
                accepted: true,
                control: 1e-6,
            },
            Payload::LadderAttempt {
                strategy: "damped-newton".to_string(),
                error: "did not converge: \"hard\"\n".to_string(),
                stats: sample_stats(),
            },
            Payload::TrainStep {
                role: "forward".to_string(),
                td_error: 0.5,
                actor_loss: -1.25,
                critic_loss: 0.0625,
                buffer_occupancy: 48,
            },
            Payload::AcquisitionRound {
                round: 2,
                evaluations: 5,
                best_cost: 41.0,
            },
            Payload::SweepPoint {
                index: 3,
                value: -0.5,
                stats: sample_stats(),
            },
            Payload::BatchJob { job: 1, of: 4 },
            Payload::SolveDone { converged: true },
            Payload::Certified {
                grade: "suspect".to_string(),
                residual: 2.5e-8,
                cond: 1.0e13,
                growth: 4.0,
            },
            Payload::RefinementStep {
                step: 2,
                residual: 1.0e-11,
            },
            Payload::Quarantined {
                index: 7,
                value: -1.5,
                error: "solve budget exhausted during newton iteration".to_string(),
            },
            Payload::PhaseTiming {
                phase: Phase::LuReplay,
                nanos: 123_456_789,
            },
            Payload::CacheHit {
                key: 0xdead_beef_cafe_f00d,
                dim: 33,
            },
            Payload::CacheMiss {
                key: u64::MAX,
                dim: 12,
            },
            Payload::CacheEvicted {
                key: 0x0000_0000_0000_0001,
                bytes: 4096,
            },
            Payload::JobQueued {
                job: 42,
                priority: "high".to_string(),
                depth: 7,
            },
            Payload::JobAdmitted {
                job: 42,
                key: 0x1234_5678_9abc_def0,
            },
            Payload::SolveFailed {
                error: "all strategies failed (6 attempts)".to_string(),
            },
            Payload::Watchdog {
                job: 42,
                elapsed_nanos: 5_000_000_000,
                limit_nanos: 2_000_000_000,
            },
        ]
    }

    #[test]
    fn json_round_trips_every_payload_kind() {
        for (i, payload) in all_payloads().into_iter().enumerate() {
            let event = Event {
                span: Span {
                    job: if i % 2 == 0 { Some(i) } else { None },
                    worker: i % 3,
                },
                payload,
            };
            let line = event.to_json();
            let back = Event::parse_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            // NaN breaks PartialEq; compare the re-encoding instead.
            assert_eq!(back.to_json(), line);
            if !line.contains("NaN") {
                assert_eq!(back, event);
            }
        }
    }

    /// Byte pin: every payload kind's line exactly as [`Event::to_json`]
    /// writes it, jobbed and job-less spans alternating.
    #[test]
    fn json_lines_match_golden() {
        let golden = [
            r#"{"event":"LuFactorized","job":0,"worker":0,"dim":7}"#,
            r#"{"event":"LuReplayed","job":null,"worker":1,"dim":7}"#,
            r#"{"event":"NrIteration","job":2,"worker":2,"iteration":3}"#,
            r#"{"event":"NrOutcome","job":null,"worker":0,"iterations":4,"converged":true,"lu_factorizations":1,"lu_refactorizations":3,"residual":1.5e-9}"#,
            r#"{"event":"PtaStep","job":4,"worker":1,"accepted":true,"h":0.001,"h_next":0.002,"gamma":0.25,"nr_iterations":4,"residual":3e-10,"pta_converged":false,"time":0.125}"#,
            r#"{"event":"PtaStep","job":null,"worker":2,"accepted":false,"h":8.0,"h_next":1.0,"gamma":null,"nr_iterations":10,"residual":"NaN","pta_converged":false,"time":0.125}"#,
            r#"{"event":"StageStep","job":6,"worker":0,"accepted":true,"control":1e-6}"#,
            r#"{"event":"LadderAttempt","job":null,"worker":1,"strategy":"damped-newton","error":"did not converge: \"hard\"\n","nr_iterations":12,"pta_steps":5,"rejected_steps":2,"lu_factorizations":3,"lu_refactorizations":9,"converged":true}"#,
            r#"{"event":"TrainStep","job":8,"worker":2,"role":"forward","td_error":0.5,"actor_loss":-1.25,"critic_loss":0.0625,"buffer_occupancy":48}"#,
            r#"{"event":"AcquisitionRound","job":null,"worker":0,"round":2,"evaluations":5,"best_cost":41.0}"#,
            r#"{"event":"SweepPoint","job":10,"worker":1,"index":3,"value":-0.5,"nr_iterations":12,"pta_steps":5,"rejected_steps":2,"lu_factorizations":3,"lu_refactorizations":9,"converged":true}"#,
            r#"{"event":"BatchJob","job":null,"worker":2,"index":1,"of":4}"#,
            r#"{"event":"SolveDone","job":12,"worker":0,"converged":true}"#,
            r#"{"event":"Certified","job":null,"worker":1,"grade":"suspect","residual":2.5e-8,"cond":10000000000000.0,"growth":4.0}"#,
            r#"{"event":"RefinementStep","job":14,"worker":2,"step":2,"residual":1e-11}"#,
            r#"{"event":"Quarantined","job":null,"worker":0,"index":7,"value":-1.5,"error":"solve budget exhausted during newton iteration"}"#,
            r#"{"event":"PhaseTiming","job":16,"worker":1,"phase":"lu_replay","nanos":123456789}"#,
            r#"{"event":"CacheHit","job":null,"worker":2,"key":"deadbeefcafef00d","dim":33}"#,
            r#"{"event":"CacheMiss","job":18,"worker":0,"key":"ffffffffffffffff","dim":12}"#,
            r#"{"event":"CacheEvicted","job":null,"worker":1,"key":"0000000000000001","bytes":4096}"#,
            r#"{"event":"JobQueued","job":20,"worker":2,"index":42,"priority":"high","depth":7}"#,
            r#"{"event":"JobAdmitted","job":null,"worker":0,"index":42,"key":"123456789abcdef0"}"#,
            r#"{"event":"SolveFailed","job":22,"worker":1,"error":"all strategies failed (6 attempts)"}"#,
            r#"{"event":"Watchdog","job":null,"worker":2,"index":42,"elapsed_nanos":5000000000,"limit_nanos":2000000000}"#,
        ];
        let lines: Vec<String> = all_payloads()
            .into_iter()
            .enumerate()
            .map(|(i, payload)| {
                Event {
                    span: Span {
                        job: (i % 2 == 0).then_some(i),
                        worker: i % 3,
                    },
                    payload,
                }
                .to_json()
            })
            .collect();
        assert_eq!(lines, golden);
    }

    #[test]
    fn json_escapes_are_parsed_back() {
        let e = ev(Payload::LadderAttempt {
            strategy: "a\\b\"c\n\tµ".to_string(),
            error: "\u{1}control".to_string(),
            stats: SolveStats::default(),
        });
        let back = Event::parse_json(&e.to_json()).expect("parse");
        assert_eq!(back, e);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::parse_json("").is_err());
        assert!(Event::parse_json("{}").is_err());
        assert!(Event::parse_json("{\"event\":\"NoSuchKind\"}").is_err());
        assert!(Event::parse_json("{\"event\":\"SolveDone\",\"converged\":true} x").is_err());
    }

    /// `job` must be null, absent or a non-negative whole number, and
    /// `worker` absent or a non-negative whole number: a negative or
    /// fractional job and a non-numeric worker are errors, not job 0,
    /// job 2 or worker 0.
    #[test]
    fn parse_rejects_malformed_span_fields() {
        for line in [
            r#"{"event":"SolveDone","job":-1,"worker":0,"converged":true}"#,
            r#"{"event":"SolveDone","job":2.5,"worker":0,"converged":true}"#,
            r#"{"event":"SolveDone","job":null,"worker":"x","converged":true}"#,
        ] {
            assert!(Event::parse_json(line).is_err(), "{line} parsed");
        }
        let bare = Event::parse_json(r#"{"event":"SolveDone","converged":true}"#).unwrap();
        assert_eq!(bare.span, Span::default());
        let tagged =
            Event::parse_json(r#"{"event":"SolveDone","job":3,"worker":1,"converged":true}"#)
                .unwrap();
        assert_eq!(
            tagged.span,
            Span {
                job: Some(3),
                worker: 1
            }
        );
    }

    #[test]
    fn fold_stats_applies_counting_rules() {
        let events: Vec<Event> = [
            Payload::NrIteration { iteration: 1 },
            Payload::NrIteration { iteration: 2 },
            Payload::LuFactorized { dim: 4 },
            Payload::LuReplayed { dim: 4 },
            Payload::LuReplayed { dim: 4 },
            Payload::PtaStep {
                accepted: true,
                h: 1.0,
                h_next: 2.0,
                gamma: Some(0.1),
                nr_iterations: 2,
                residual: 0.0,
                pta_converged: false,
                time: 1.0,
            },
            Payload::PtaStep {
                accepted: false,
                h: 2.0,
                h_next: 0.25,
                gamma: None,
                nr_iterations: 10,
                residual: 1.0,
                pta_converged: false,
                time: 1.0,
            },
            Payload::StageStep {
                accepted: false,
                control: 0.5,
            },
            // Summary payloads must not double-count.
            Payload::LadderAttempt {
                strategy: "x".to_string(),
                error: "y".to_string(),
                stats: sample_stats(),
            },
            Payload::SweepPoint {
                index: 0,
                value: 0.0,
                stats: sample_stats(),
            },
            Payload::SolveDone { converged: false },
            Payload::SolveDone { converged: true },
        ]
        .into_iter()
        .map(ev)
        .collect();
        let stats = fold_stats(&events);
        assert_eq!(
            stats,
            SolveStats {
                nr_iterations: 2,
                pta_steps: 2, // accepted PtaStep + StageStep
                rejected_steps: 2,
                lu_factorizations: 1,
                lu_refactorizations: 2,
                converged: true, // last SolveDone wins
            }
        );
    }

    #[test]
    fn fold_sweep_stats_orders_by_index_and_ands_convergence() {
        let mk = |index, converged| {
            ev(Payload::SweepPoint {
                index,
                value: index as f64,
                stats: SolveStats {
                    nr_iterations: index + 1,
                    converged,
                    ..Default::default()
                },
            })
        };
        let events = vec![mk(2, true), mk(0, true), mk(1, false)];
        let stats = fold_sweep_stats(&events);
        assert_eq!(stats.nr_iterations, 6);
        assert!(!stats.converged);
        assert!(!fold_sweep_stats(&[]).converged);
    }

    #[test]
    fn collector_merges_jobs_in_input_order() {
        let c = Collector::new();
        let mk = |job, iteration| Event {
            span: Span { job, worker: 0 },
            payload: Payload::NrIteration { iteration },
        };
        // Arrival order scrambles jobs; merge must restore job order while
        // keeping per-job program order.
        c.emit(&mk(Some(1), 10));
        c.emit(&mk(None, 0));
        c.emit(&mk(Some(0), 1));
        c.emit(&mk(Some(1), 11));
        c.emit(&mk(Some(0), 2));
        let order: Vec<(Option<usize>, usize)> = c
            .events()
            .iter()
            .map(|e| match e.payload {
                Payload::NrIteration { iteration } => (e.span.job, iteration),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (None, 0),
                (Some(0), 1),
                (Some(0), 2),
                (Some(1), 10),
                (Some(1), 11)
            ]
        );
        assert_eq!(c.len(), 5);
        assert_eq!(c.take().len(), 5);
        assert!(c.is_empty());
    }

    #[test]
    fn stats_fold_ignores_timing_payloads() {
        let events = vec![
            ev(Payload::NrIteration { iteration: 1 }),
            ev(Payload::PhaseTiming {
                phase: Phase::NewtonSolve,
                nanos: 999,
            }),
            ev(Payload::SolveDone { converged: true }),
        ];
        let stats = fold_stats(&events);
        assert_eq!(stats.nr_iterations, 1);
        assert!(stats.converged);
        let stripped: Vec<Event> = events
            .iter()
            .filter(|e| !e.payload.is_timing())
            .cloned()
            .collect();
        assert_eq!(fold_stats(&stripped), stats, "timing is out-of-band");
    }

    #[test]
    fn fanout_tees_to_all_members_and_resolves_timing() {
        assert!(!FanoutSink::new().wants_timing(), "empty fanout is silent");
        let null_only = FanoutSink::new().with(std::sync::Arc::new(NullSink));
        assert!(!null_only.wants_timing());
        let collector = std::sync::Arc::new(Collector::new());
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        let fan = FanoutSink::new()
            .with(std::sync::Arc::new(NullSink))
            .with(collector.clone())
            .with(registry.clone());
        assert!(fan.wants_timing(), "collector opts in");
        assert_eq!(fan.len(), 3);
        assert!(!fan.is_empty());
        fan.emit(&ev(Payload::SolveDone { converged: true }));
        fan.finish();
        assert_eq!(collector.len(), 1);
        assert_eq!(registry.kind_count("SolveDone"), 1);
    }

    #[test]
    fn jsonl_sink_flushes_in_job_order() {
        let path = std::env::temp_dir().join(format!(
            "rlpta-jsonl-test-{}.jsonl",
            std::process::id()
        ));
        {
            let sink = JsonlSink::create(&path).expect("create");
            let mk = |job| Event {
                span: Span { job, worker: 3 },
                payload: Payload::SolveDone { converged: true },
            };
            sink.emit(&mk(Some(1)));
            sink.emit(&mk(None));
            sink.emit(&mk(Some(0)));
            sink.finish();
        }
        let text = std::fs::read_to_string(&path).expect("read back");
        let jobs: Vec<Option<usize>> = text
            .lines()
            .map(|l| Event::parse_json(l).expect("line parses").span.job)
            .collect();
        assert_eq!(jobs, vec![None, Some(0), Some(1)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tele_chain_applies_all_folds_and_forwards_once() {
        let collector = Collector::new();
        let outer_fold = StatsFold::default();
        let inner_fold = StatsFold::default();
        let root = Tele::root(&collector, Span::for_job(7));
        let outer = root.child(&outer_fold);
        let inner = outer.child(&inner_fold);
        inner.emit(Payload::NrIteration { iteration: 1 });
        inner.emit(Payload::SolveDone { converged: true });
        assert_eq!(outer_fold.snapshot().nr_iterations, 1);
        assert_eq!(inner_fold.snapshot().nr_iterations, 1);
        assert!(outer_fold.snapshot().converged);
        assert_eq!(collector.len(), 2, "sink sees each event exactly once");
        assert_eq!(collector.events()[0].span.job, Some(7));
        // Snapshot equals the batch fold of the captured stream.
        assert_eq!(fold_stats(&collector.events()), inner_fold.snapshot());
    }

    #[test]
    fn fold_trace_maps_pta_steps() {
        let events = vec![
            ev(Payload::PtaStep {
                accepted: true,
                h: 1e-3,
                h_next: 2e-3,
                gamma: Some(0.5),
                nr_iterations: 3,
                residual: 1e-10,
                pta_converged: false,
                time: 1e-3,
            }),
            ev(Payload::NrIteration { iteration: 1 }),
        ];
        let trace = fold_trace(&events);
        assert_eq!(trace.len(), 1);
        assert_eq!(trace[0].next_step, 2e-3);
        assert_eq!(trace[0].observation.step, 1e-3);
        assert!(trace[0].observation.nr_converged);
        assert_eq!(trace[0].observation.gamma, Some(0.5));
    }
}
