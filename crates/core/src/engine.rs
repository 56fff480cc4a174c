//! The batch DC engine: one configurable entry point for every solve shape.
//!
//! [`DcEngine`] replaced the per-solver constructor zoo with a single
//! builder — since v1 it is the only public way to assemble a solve:
//!
//! ```
//! use rlpta_core::{DcEngine, PtaKind, SolveBudget, Stepping};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = rlpta_netlist::parse(
//!     "clamp\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)",
//! )?;
//! let engine = DcEngine::builder()
//!     .kind(PtaKind::cepta())
//!     .stepping(Stepping::default())
//!     .budget(SolveBudget::UNLIMITED)
//!     .threads(1)
//!     .build();
//! let solution = engine.solve(&circuit)?;
//! assert!(solution.stats.converged);
//! # Ok(())
//! # }
//! ```
//!
//! Beyond single solves, the engine runs *batches* — independent jobs on a
//! vendored work-stealing thread pool (`rlpta-threadpool`) with
//! deterministic, submission-ordered results:
//!
//! * [`DcEngine::solve_batch`] — one job per circuit (bench corpora, GP
//!   training evaluations),
//! * [`DcEngine::sweep`] — sweep points in fixed-size chunks with
//!   warm-start handoff at chunk boundaries; output is **bit-identical for
//!   every thread count** (see below).
//!
//! A single [`DcEngine::solve`] runs its strategy serially on the calling
//! thread at every thread count.
//!
//! # Determinism
//!
//! Parallel results must not depend on scheduling. Every entry point
//! upholds: *the same engine configuration produces bitwise-identical
//! results for every `threads` value*, because
//!
//! * jobs never share mutable state — each owns its circuit clone,
//!   controller clone and LU workspace,
//! * results are collected in submission order, not completion order,
//! * the sweep chunk layout is a fixed configuration constant
//!   ([`DcEngine::DEFAULT_SWEEP_CHUNK`]), never derived from the worker
//!   count, and chunk interiors depend only on the serially-computed
//!   boundary solutions.

#[allow(deprecated)]
use crate::assembly::AssemblyMode;
use crate::assembly::NewtonWorkspace;
use crate::certify::{certified, CertifyWorkspace};
use crate::error::{SolveError, SolvePhase};
use crate::newton::{newton_iterate, NewtonConfig, NewtonRaphson};
use crate::pta::{PtaConfig, PtaKind, PtaSolver};
use crate::recovery::{LadderStage, RobustDcSolver, SolveBudget};
use crate::rl_stepping::{RlStepping, RlSteppingConfig};
use crate::stepping::{SerStepping, SimpleStepping, StepController};
use crate::sweep::{DcSweep, QuarantinedPoint, SweepPoint, SweepReport};
use crate::telemetry::{interest, NullSink, Payload, Sink, Span, StatsFold, Tele};
use crate::{Solution, SolveStats};
use rlpta_linalg::LuWorkspace;
use rlpta_mna::Circuit;
use rlpta_threadpool::ThreadPool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Step-control policy selector for the engine builder — the data half of a
/// [`StepController`], cheap to clone into every parallel job.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Stepping {
    /// Iteration-counting `IMAX`/`IMIN` stepping (the paper's "simple").
    Simple(SimpleStepping),
    /// Switched evolution/relaxation (the paper's "adaptive" baseline).
    Ser(SerStepping),
    /// The RL-S TD3 dual-agent controller, built fresh (untrained) per
    /// solve from this configuration. To evaluate a *pre-trained*
    /// controller use [`DcEngine::solve_batch_with`].
    Rl(RlSteppingConfig),
}

impl Default for Stepping {
    fn default() -> Self {
        Stepping::Simple(SimpleStepping::default())
    }
}

impl Stepping {
    /// Short name matching [`StepController::name`].
    pub fn name(&self) -> &'static str {
        match self {
            Stepping::Simple(_) => "simple",
            Stepping::Ser(_) => "adaptive-ser",
            Stepping::Rl(_) => "rl",
        }
    }

    /// A fresh controller for this selector, dispatched at run time.
    fn controller(&self) -> Box<dyn StepController> {
        match self {
            Stepping::Simple(s) => Box::new(s.clone()),
            Stepping::Ser(s) => Box::new(s.clone()),
            Stepping::Rl(cfg) => Box::new(RlStepping::new(cfg.clone())),
        }
    }
}

/// Which solve algorithm the engine drives.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Strategy {
    /// Plain damped Newton–Raphson (no continuation).
    Newton,
    /// One pseudo-transient flavour with the configured [`Stepping`].
    Pta(PtaKind),
    /// The escalation ladder, escalated serially with warm-start carry.
    Robust(Vec<LadderStage>),
}

/// Builder for [`DcEngine`] — the single public entry point to the DC
/// solver stack. Unset options keep production defaults: the robust
/// escalation ladder, simple stepping, unlimited budget, one thread.
#[derive(Debug, Clone)]
pub struct DcEngineBuilder {
    strategy: Strategy,
    stepping: Stepping,
    config: PtaConfig,
    newton: NewtonConfig,
    budget: SolveBudget,
    threads: usize,
    sweep_chunk: usize,
    retries: u32,
    telemetry: Arc<dyn Sink>,
    #[cfg(feature = "faults")]
    fault_plan: Option<crate::recovery::FaultPlan>,
}

impl Default for DcEngineBuilder {
    fn default() -> Self {
        Self {
            strategy: Strategy::Robust(RobustDcSolver::default_ladder()),
            stepping: Stepping::default(),
            config: PtaConfig::default(),
            newton: NewtonConfig::default(),
            budget: SolveBudget::UNLIMITED,
            threads: 1,
            sweep_chunk: DcEngine::DEFAULT_SWEEP_CHUNK,
            retries: 0,
            telemetry: Arc::new(NullSink),
            #[cfg(feature = "faults")]
            fault_plan: None,
        }
    }
}

impl DcEngineBuilder {
    /// Solve with one pseudo-transient flavour (plus the configured
    /// [`Stepping`]) instead of the full ladder.
    #[must_use]
    pub fn kind(mut self, kind: PtaKind) -> Self {
        self.strategy = Strategy::Pta(kind);
        self
    }

    /// Solve with plain damped Newton–Raphson only.
    #[must_use]
    pub fn newton(mut self) -> Self {
        self.strategy = Strategy::Newton;
        self
    }

    /// Solve with the default escalation ladder (the builder default).
    #[must_use]
    pub fn robust(mut self) -> Self {
        self.strategy = Strategy::Robust(RobustDcSolver::default_ladder());
        self
    }

    /// Solve with an explicit escalation ladder.
    #[must_use]
    pub fn ladder(mut self, stages: Vec<LadderStage>) -> Self {
        self.strategy = Strategy::Robust(stages);
        self
    }

    /// Step-control policy for pseudo-transient strategies.
    #[must_use]
    pub fn stepping(mut self, stepping: Stepping) -> Self {
        self.stepping = stepping;
        self
    }

    /// Applies a unified [`EngineConfig`](crate::config::EngineConfig):
    /// sets the PTA limits *and* the solve budget in one call.
    #[must_use]
    pub fn config(mut self, config: crate::config::EngineConfig) -> Self {
        self.budget = config.budget();
        self.config = config.pta();
        self
    }

    /// Raw pseudo-transient limits and tolerances.
    #[must_use]
    pub fn pta_config(mut self, config: PtaConfig) -> Self {
        self.config = config;
        self
    }

    /// Newton options for the [`DcEngineBuilder::newton`] strategy and for
    /// the warm-started point solves inside [`DcEngine::sweep`]. (The PTA
    /// inner loop uses the tighter per-point Newton options carried by
    /// [`PtaConfig`].)
    #[must_use]
    pub fn newton_config(mut self, config: NewtonConfig) -> Self {
        self.newton = config;
        self
    }

    /// Ignored v1 shim: plan assembly is the only Newton path, so every
    /// mode builds the same engine.
    #[deprecated(
        since = "0.1.0",
        note = "plan assembly is the only Newton path; this setting is ignored"
    )]
    #[allow(deprecated)]
    #[must_use]
    pub fn assembly(self, _mode: AssemblyMode) -> Self {
        self
    }

    /// Per-job resource budget (deadline / NR cap / step cap). Every batch
    /// job and sweep point gets a fresh meter from this budget.
    #[must_use]
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Worker-thread count for batch entry points; `0` sizes the pool to
    /// the host, `1` (the default) runs serially on the calling thread.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            rlpta_threadpool::available_threads()
        } else {
            threads
        };
        self
    }

    /// Telemetry sink receiving the unified event stream from every solve
    /// the engine runs — LU kernel operations, Newton iterations, PTA
    /// steps, ladder attempts, batch fan-out and sweep points, each tagged
    /// with its [`Span`]. The default [`NullSink`] drops everything at zero
    /// cost; see [`Collector`](crate::telemetry::Collector) and
    /// [`JsonlSink`](crate::telemetry::JsonlSink) for real consumers.
    #[must_use]
    pub fn telemetry(mut self, sink: Arc<dyn Sink>) -> Self {
        self.telemetry = sink;
        self
    }

    /// Sweep chunk size (points per parallel job). A fixed layout constant:
    /// changing it changes the warm-start chain, so it is deliberately
    /// **not** derived from the thread count — otherwise results would
    /// depend on the machine. Clamped to at least 1.
    #[must_use]
    pub fn sweep_chunk(mut self, points: usize) -> Self {
        self.sweep_chunk = points.max(1);
        self
    }

    /// Extra solve attempts per batch job and per sweep point after a
    /// retryable failure (anything except [`SolveError::InvalidConfig`],
    /// [`SolveError::BudgetExhausted`] and [`SolveError::WorkerPanic`]),
    /// with capped exponential backoff between attempts. The backoff never
    /// runs the job past the wall-clock half of the
    /// [`budget`](DcEngineBuilder::budget). Default `0`: one attempt, no
    /// behavioral change. Retries are deterministic — the solver is a pure
    /// function of its inputs, so a retry only helps against *transient*
    /// causes (injected faults, future external solvers).
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Installs a deterministic fault-injection plan inside **every** job
    /// (batch job, sweep chunk) before it runs, so chaos scenarios
    /// reach pooled workers — [`FaultPlan`](crate::recovery::FaultPlan)
    /// state is thread-local and would otherwise stay on the caller's
    /// thread. Cleared again when each job finishes.
    #[cfg(feature = "faults")]
    #[must_use]
    pub fn fault_plan(mut self, plan: crate::recovery::FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Finalizes the engine.
    pub fn build(self) -> DcEngine {
        DcEngine {
            strategy: self.strategy,
            stepping: self.stepping,
            config: self.config,
            newton: self.newton,
            budget: self.budget,
            threads: self.threads.max(1),
            sweep_chunk: self.sweep_chunk.max(1),
            retries: self.retries,
            telemetry: self.telemetry,
            #[cfg(feature = "faults")]
            fault_plan: self.fault_plan,
        }
    }
}

/// The batch DC-solve engine. Construct via [`DcEngine::builder`].
///
/// Every entry point returns bitwise-identical results for every `threads`
/// value: jobs share no mutable state, results come back in submission
/// order, and the sweep chunk layout is fixed by
/// [`DcEngineBuilder::sweep_chunk`], never by the worker count.
#[derive(Debug, Clone)]
pub struct DcEngine {
    strategy: Strategy,
    stepping: Stepping,
    config: PtaConfig,
    newton: NewtonConfig,
    budget: SolveBudget,
    threads: usize,
    sweep_chunk: usize,
    retries: u32,
    telemetry: Arc<dyn Sink>,
    #[cfg(feature = "faults")]
    fault_plan: Option<crate::recovery::FaultPlan>,
}

impl Default for DcEngine {
    /// The builder defaults: robust ladder, simple stepping, one thread.
    fn default() -> Self {
        Self::builder().build()
    }
}

impl DcEngine {
    /// Default sweep chunk size. Eight points per job keeps the warm-start
    /// chains long enough to pay while giving a typical transfer-curve
    /// sweep enough chunks to fill a small pool.
    pub const DEFAULT_SWEEP_CHUNK: usize = 8;

    /// Starts configuring an engine.
    pub fn builder() -> DcEngineBuilder {
        DcEngineBuilder::default()
    }

    /// Worker-thread count used by the batch entry points.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured solve strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The per-job resource budget.
    pub fn budget(&self) -> &SolveBudget {
        &self.budget
    }

    /// Solves one circuit with the configured strategy.
    ///
    /// # Errors
    ///
    /// The underlying solver's errors ([`SolveError::NonConvergent`],
    /// [`SolveError::Singular`], [`SolveError::AllStrategiesFailed`], …),
    /// plus [`SolveError::BudgetExhausted`] under a finite budget.
    pub fn solve(&self, circuit: &Circuit) -> Result<Solution, SolveError> {
        #[cfg(feature = "faults")]
        let _guard = self.install_faults();
        let tele = Tele::root(&*self.telemetry, Span::default());
        let out = self.solve_serial(circuit, &tele);
        if let Err(e) = &out {
            self.note_solve_failure(Span::default(), e);
        }
        self.telemetry.finish();
        out
    }

    /// Solves every circuit as an independent pooled job; results come back
    /// in input order, one per circuit, failures per slot.
    ///
    /// A panicking job is isolated by the pool and surfaces as
    /// [`SolveError::WorkerPanic`] in its slot only.
    pub fn solve_batch(&self, circuits: &[Circuit]) -> Vec<Result<Solution, SolveError>> {
        let out = self.run_jobs(
            circuits
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    move || {
                        let tele = self.announce_job(i, circuits.len());
                        self.solve_with_retries(|| self.solve_serial(c, &tele)).0
                    }
                })
                .collect::<Vec<_>>(),
        );
        let out = Self::label_panics(out, circuits);
        self.note_batch_failures(&out);
        self.telemetry.finish();
        out
    }

    /// Solves every circuit with a caller-supplied step controller — the
    /// path for evaluating one *pre-trained* RL controller across a corpus:
    /// each job gets its own clone, so training state is shared into every
    /// job but never mutated across jobs.
    ///
    /// Runs the PTA flavour of the configured strategy
    /// ([`PtaKind::default`] when the strategy is not PTA).
    pub fn solve_batch_with<C>(
        &self,
        circuits: &[Circuit],
        controller: &C,
    ) -> Vec<Result<Solution, SolveError>>
    where
        C: StepController + Clone + Sync,
    {
        let out = self.run_jobs(
            circuits
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    move || {
                        let tele = self.announce_job(i, circuits.len());
                        self.solve_with_retries(|| {
                            self.solve_once_with(c, controller.clone(), &tele)
                        })
                        .0
                    }
                })
                .collect::<Vec<_>>(),
        );
        let out = Self::label_panics(out, circuits);
        self.note_batch_failures(&out);
        self.telemetry.finish();
        out
    }

    /// Runs a DC sweep in fixed-size chunks with warm-start handoff at the
    /// chunk boundaries.
    ///
    /// Phase 1 solves the first point of every chunk serially, each
    /// warm-started from the previous boundary solution. Phase 2 solves the
    /// chunk interiors as parallel jobs, warm-starting point-to-point
    /// within the chunk from its boundary. The computation per point is
    /// fully determined by the chunk layout ([`DcEngineBuilder::sweep_chunk`])
    /// — never by the thread count — so the report is bit-identical for
    /// every `threads` value.
    ///
    /// One LU factorization workspace is reused across all points of a
    /// chain (boundary chain and each chunk interior), so after the first
    /// point every Newton iteration replays the recorded symbolic pattern.
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidConfig`] if the swept source does not exist. A
    /// failing point does **not** abort the sweep: after the configured
    /// [`retries`](DcEngineBuilder::retries) it is quarantined
    /// ([`SweepReport::quarantined`]) and the warm-start chain resumes from
    /// the last surviving point (cold when a chunk's own boundary died), so
    /// a pathological bias point costs one entry in the quarantine list
    /// instead of the whole curve.
    pub fn sweep(&self, circuit: &Circuit, sweep: &DcSweep) -> Result<SweepReport, SolveError> {
        #[cfg(feature = "faults")]
        let _guard = self.install_faults();
        let values = sweep.values();
        let source = sweep.source();
        {
            let mut probe = circuit.clone();
            if !probe.set_source_dc(source, values[0]) {
                let err = SolveError::InvalidConfig {
                    detail: format!("no independent source named `{source}`"),
                };
                self.note_solve_failure(Span::default(), &err);
                self.telemetry.finish();
                return Err(err);
            }
        }
        let chunk = self.sweep_chunk;
        let n_chunks = values.len().div_ceil(chunk);

        // Phase 1: chunk boundaries, a serial warm-start chain. Boundary
        // events ride the job-less span (they belong to the shared chain,
        // not to any one chunk job). A failed boundary is quarantined and
        // the chain continues from the last good boundary.
        let mut boundaries: Vec<Result<Solution, QuarantinedPoint>> =
            Vec::with_capacity(n_chunks);
        {
            let tele = Tele::root(&*self.telemetry, Span::default());
            let mut work = circuit.clone();
            let mut ws = NewtonWorkspace::new();
            let mut last_good: Option<Vec<f64>> = None;
            for k in 0..n_chunks {
                let (index, value) = (k * chunk, values[k * chunk]);
                work.set_source_dc(source, value);
                let warm = &mut last_good;
                boundaries.push(self.sweep_chain_point(&work, index, value, warm, &mut ws, &tele));
            }
        }

        // Phase 2: chunk interiors, one pooled job per chunk. Failed points
        // are quarantined inside the job; the chain continues from the last
        // surviving point (cold start when the chunk's boundary itself was
        // quarantined).
        let interiors = self.run_jobs(
            (0..n_chunks)
                .map(|k| {
                    let boundary = &boundaries[k];
                    move || {
                        let tele = self.announce_job(k, n_chunks);
                        let hi = ((k + 1) * chunk).min(values.len());
                        let mut work = circuit.clone();
                        let mut ws = NewtonWorkspace::new();
                        let mut prev: Option<Vec<f64>> = match boundary {
                            Ok(sol) => Some(sol.x.clone()),
                            Err(_) => None,
                        };
                        let mut points = Vec::with_capacity(hi - (k * chunk + 1));
                        let mut quarantined: Vec<QuarantinedPoint> = Vec::new();
                        for (off, &v) in values[k * chunk + 1..hi].iter().enumerate() {
                            let index = k * chunk + 1 + off;
                            work.set_source_dc(source, v);
                            match self.sweep_chain_point(&work, index, v, &mut prev, &mut ws, &tele)
                            {
                                Ok(solution) => points.push(SweepPoint { value: v, solution }),
                                Err(q) => quarantined.push(q),
                            }
                        }
                        Ok((points, quarantined))
                    }
                })
                .collect::<Vec<_>>(),
        );

        // Merge in sweep order. A chunk job that *panicked* quarantines its
        // entire interior (the boundary, solved serially, survives on its
        // own merits).
        let mut points = Vec::with_capacity(values.len());
        let mut quarantined: Vec<QuarantinedPoint> = Vec::new();
        let mut stats = SolveStats::default();
        for (k, (boundary, interior)) in boundaries.into_iter().zip(interiors).enumerate() {
            match boundary {
                Ok(sol) => {
                    stats.absorb(&sol.stats);
                    points.push(SweepPoint {
                        value: values[k * chunk],
                        solution: sol,
                    });
                }
                Err(q) => quarantined.push(q),
            }
            match interior {
                Ok((pts, qs)) => {
                    for p in pts {
                        stats.absorb(&p.solution.stats);
                        points.push(p);
                    }
                    quarantined.extend(qs);
                }
                Err(e) => {
                    let error = e.to_string();
                    let hi = ((k + 1) * chunk).min(values.len());
                    for (index, &value) in values.iter().enumerate().take(hi).skip(k * chunk + 1) {
                        quarantined.push(QuarantinedPoint {
                            index,
                            value,
                            error: error.clone(),
                            attempts: 1,
                        });
                    }
                }
            }
        }
        quarantined.sort_by_key(|q| q.index);
        stats.converged =
            quarantined.is_empty() && points.iter().all(|p| p.solution.stats.converged);
        self.telemetry.finish();
        Ok(SweepReport {
            points,
            stats,
            quarantined,
        })
    }

    /// Solves one circuit with a caller-managed warm start and LU
    /// workspace — the reuse hook for long-lived callers
    /// ([`SimService`](crate::service::SimService)) that carry symbolic
    /// factorization plans and last-known operating points across requests.
    ///
    /// The solve path is exactly the sweep-point path: a damped Newton
    /// iteration seeded from `warm` (zeros when `None`) that replays the
    /// workspace's recorded symbolic pattern when it still matches the
    /// circuit (falling back to a fresh analysis otherwise — a stale
    /// workspace costs time, never correctness), independently certified,
    /// with a defeat escalating to the serial recovery ladder.
    ///
    /// # Errors
    ///
    /// Same surface as [`DcEngine::solve`]; a failed warm attempt only
    /// surfaces an error after the fallback ladder is also defeated.
    pub fn solve_warm(
        &self,
        circuit: &Circuit,
        warm: Option<&[f64]>,
        lu_ws: &mut LuWorkspace,
    ) -> Result<Solution, SolveError> {
        let mut ws = NewtonWorkspace::seeded(std::mem::take(lu_ws), None);
        let out = self.solve_warm_in(circuit, warm, &mut ws, Span::default());
        *lu_ws = ws.into_lu();
        if let Err(e) = &out {
            self.note_solve_failure(Span::default(), e);
            self.telemetry.finish();
        }
        out
    }

    /// [`DcEngine::solve_warm`] over a caller-managed [`NewtonWorkspace`]
    /// — the hook the service layer uses to carry resolved stamp plans
    /// across requests alongside the symbolic LU pattern.
    pub(crate) fn solve_warm_in(
        &self,
        circuit: &Circuit,
        warm: Option<&[f64]>,
        ws: &mut NewtonWorkspace,
        span: Span,
    ) -> Result<Solution, SolveError> {
        #[cfg(feature = "faults")]
        let _guard = self.install_faults();
        let tele = Tele::root(&*self.telemetry, span);
        let out = self
            .solve_with_retries(|| self.solve_sweep_point(circuit, warm, ws, &tele))
            .0;
        self.telemetry.finish();
        out
    }

    /// The engine's telemetry sink, shared so a service layer above the
    /// engine can emit its own events (cache hits, queue admissions) onto
    /// the same stream the solves write to.
    pub fn telemetry(&self) -> Arc<dyn Sink> {
        Arc::clone(&self.telemetry)
    }

    // --- internals -------------------------------------------------------

    /// Emits the one-per-failure [`Payload::SolveFailed`] boundary marker
    /// for a terminally failed request — the flight recorder's primary
    /// incident trigger. Called exactly once per failed job at the public
    /// entry points and by the service layer, never from inner ladder
    /// rungs, so recorders see one trigger per failure.
    pub(crate) fn note_solve_failure(&self, span: Span, error: &impl std::fmt::Display) {
        Tele::root(&*self.telemetry, span).emit_with(interest!("SolveFailed"), || {
            Payload::SolveFailed {
                error: error.to_string(),
            }
        });
    }

    /// [`DcEngine::note_solve_failure`] over every failed slot of a batch
    /// result (worker panics included — the pool surfaced them as
    /// [`SolveError::WorkerPanic`] per slot).
    fn note_batch_failures(&self, out: &[Result<Solution, SolveError>]) {
        for (i, r) in out.iter().enumerate() {
            if let Err(e) = r {
                self.note_solve_failure(Span::for_job(i), e);
            }
        }
    }

    /// A copy of this engine with a different per-job budget — lets the
    /// service layer honor per-ticket budgets without rebuilding the full
    /// configuration.
    pub(crate) fn with_budget(&self, budget: SolveBudget) -> DcEngine {
        let mut engine = self.clone();
        engine.budget = budget;
        engine
    }

    /// A copy of this engine with a different telemetry sink — lets the
    /// service layer splice a flight recorder into an already-built
    /// engine's stream (fanout with the original sink) without rebuilding
    /// the configuration.
    pub(crate) fn with_telemetry(&self, sink: Arc<dyn Sink>) -> DcEngine {
        let mut engine = self.clone();
        engine.telemetry = sink;
        engine
    }

    /// One serial PTA solve with a caller-supplied controller through the
    /// certification gate — the single-job body of
    /// [`DcEngine::solve_batch_with`] and of the PTA strategy, used by the
    /// service layer to run a shared frozen RL policy without spinning up a
    /// batch pool.
    pub(crate) fn solve_once_with<C>(
        &self,
        circuit: &Circuit,
        controller: C,
        tele: &Tele<'_>,
    ) -> Result<Solution, SolveError>
    where
        C: StepController,
    {
        let mut ctrl = controller;
        ctrl.attach_telemetry(self.telemetry.clone(), tele.span());
        let mut solver = PtaSolver::with_config(self.pta_kind_or_default(), ctrl, self.config.clone());
        let mut meter = self.budget.start();
        meter.set_phase(SolvePhase::PseudoTransient);
        let sol = solver.solve_metered(circuit, &mut meter, tele)?;
        certified(&mut CertifyWorkspace::default(), circuit, sol, tele)
    }

    fn pta_kind_or_default(&self) -> PtaKind {
        match &self.strategy {
            Strategy::Pta(kind) => *kind,
            _ => PtaKind::default(),
        }
    }

    /// One circuit through the configured strategy with no intra-solve
    /// parallelism — the body of [`DcEngine::solve`] and of every batch
    /// job. Every success leaves with [`Solution::health`] populated: each
    /// strategy ends in the certification gate, which for the ladder
    /// demotes a rejected rung and for the direct strategies returns
    /// [`SolveError::CertificationFailed`].
    fn solve_serial(&self, circuit: &Circuit, tele: &Tele<'_>) -> Result<Solution, SolveError> {
        match &self.strategy {
            Strategy::Newton => {
                let mut meter = self.budget.start();
                meter.set_phase(SolvePhase::Newton);
                let sol = NewtonRaphson::from_config(self.newton.clone()).solve_metered(
                    circuit,
                    &vec![0.0; circuit.dim()],
                    &mut meter,
                    tele,
                )?;
                certified(&mut CertifyWorkspace::default(), circuit, sol, tele)
            }
            Strategy::Pta(_) => self.solve_once_with(circuit, self.stepping.controller(), tele),
            Strategy::Robust(stages) => RobustDcSolver::from_stages(stages.clone())
                .with_budget(self.budget)
                .solve_with(circuit, tele),
        }
    }

    /// Retry loop used by the batch and sweep entry points: re-runs a solve
    /// up to `self.retries` extra times on retryable errors, sleeping a
    /// capped exponential backoff between attempts (bounded by the job's
    /// wall-clock budget). Returns the final outcome and attempts consumed.
    fn solve_with_retries<F>(&self, mut solve: F) -> (Result<Solution, SolveError>, u32)
    where
        F: FnMut() -> Result<Solution, SolveError>,
    {
        const BACKOFF_CAP_MS: u64 = 50;
        let started = Instant::now();
        let mut attempts = 1u32;
        let mut out = solve();
        while attempts <= self.retries {
            match &out {
                Ok(_)
                | Err(SolveError::InvalidConfig { .. }
                | SolveError::BudgetExhausted { .. }
                | SolveError::WorkerPanic { .. }) => break,
                Err(_) => {}
            }
            let backoff =
                Duration::from_millis((1u64 << (attempts - 1).min(6)).min(BACKOFF_CAP_MS));
            if let Some(deadline) = self.budget.wall_clock {
                if started.elapsed() + backoff >= deadline {
                    break;
                }
            }
            std::thread::sleep(backoff);
            out = solve();
            attempts += 1;
        }
        (out, attempts)
    }

    /// Enriches per-slot [`SolveError::WorkerPanic`] results with the job
    /// index and circuit title, so a panicked batch job is attributable
    /// without cross-referencing the input order.
    fn label_panics(
        results: Vec<Result<Solution, SolveError>>,
        circuits: &[Circuit],
    ) -> Vec<Result<Solution, SolveError>> {
        results
            .into_iter()
            .zip(circuits)
            .enumerate()
            .map(|(i, (r, c))| match r {
                Err(SolveError::WorkerPanic { detail }) => Err(SolveError::WorkerPanic {
                    detail: format!("job {i} (circuit `{}`): {detail}", c.title()),
                }),
                other => other,
            })
            .collect()
    }

    /// One point of a sweep's warm-start chain, the body the boundary
    /// chain and every chunk interior share: solves `work` (its swept
    /// source already set to `value`) with retries from `warm`. On success
    /// it emits [`Payload::SweepPoint`] and advances `warm` to the
    /// solution; on failure it emits [`Payload::Quarantined`] and returns
    /// the quarantine record, leaving `warm` at the last surviving point.
    fn sweep_chain_point(
        &self,
        work: &Circuit,
        index: usize,
        value: f64,
        warm: &mut Option<Vec<f64>>,
        ws: &mut NewtonWorkspace,
        tele: &Tele<'_>,
    ) -> Result<Solution, QuarantinedPoint> {
        let (result, attempts) =
            self.solve_with_retries(|| self.solve_sweep_point(work, warm.as_deref(), ws, tele));
        match result {
            Ok(sol) => {
                tele.emit(Payload::SweepPoint {
                    index,
                    value,
                    stats: sol.stats,
                });
                *warm = Some(sol.x.clone());
                Ok(sol)
            }
            Err(e) => {
                let error = e.to_string();
                tele.emit_with(interest!("Quarantined"), || Payload::Quarantined {
                    index,
                    value,
                    error: error.clone(),
                });
                Err(QuarantinedPoint {
                    index,
                    value,
                    error,
                    attempts,
                })
            }
        }
    }

    /// One sweep point: warm-started damped Newton on the chain's shared
    /// workspace; a region crossing that defeats Newton falls back to the
    /// serial escalation ladder (the engine's own stages when the strategy
    /// is robust, the default ladder otherwise).
    fn solve_sweep_point(
        &self,
        work: &Circuit,
        warm: Option<&[f64]>,
        ws: &mut NewtonWorkspace,
        tele: &Tele<'_>,
    ) -> Result<Solution, SolveError> {
        // The start buffers leave the workspace for the run (Newton borrows
        // the rest of it) and return right after.
        let mut start = std::mem::take(&mut ws.start);
        if warm.is_none() {
            start.zeros.clear();
            start.zeros.resize(work.dim(), 0.0);
        }
        let x0: &[f64] = warm.unwrap_or(&start.zeros);
        let mut meter = self.budget.start();
        meter.set_phase(SolvePhase::Newton);
        start.state.resize(work.state_len(), 0.0);
        work.seeded_state_into(x0, &mut start.state, &mut start.seed);
        let fold = StatsFold::default();
        let point_tele = tele.child(&fold);
        let attempt = newton_iterate(
            work,
            &self.newton,
            x0,
            &mut start.state,
            &mut |_, _| {},
            &mut meter,
            ws,
            &point_tele,
        );
        ws.start = start;
        match attempt {
            Ok(out) if out.converged => {
                point_tele.emit(Payload::SolveDone { converged: true });
                let sol = Solution {
                    x: out.x,
                    stats: fold.snapshot(),
                    health: None,
                };
                // A warm iterate that fails independent certification (even
                // after the rescue) is treated like any other Newton defeat:
                // fall through to the escalation ladder below.
                if let Ok(sol) = certified(ws.certify_workspace(), work, sol, &point_tele) {
                    return Ok(sol);
                }
            }
            Err(e @ SolveError::BudgetExhausted { .. }) => return Err(e),
            _ => {}
        }
        // The failed warm-start attempt's work is not charged to the
        // fallback solution (matching the historical stats), but its events
        // are already on the stream above.
        let stages = match &self.strategy {
            Strategy::Robust(stages) => stages.clone(),
            _ => RobustDcSolver::default_ladder(),
        };
        RobustDcSolver::from_stages(stages)
            .with_budget(self.budget)
            .solve_with(work, tele)
    }

    /// Announces pooled job `job` of `of` on the stream ([`Payload::BatchJob`])
    /// and returns its telemetry root. Called first in every job closure,
    /// on the worker thread, so the span carries the real worker index.
    fn announce_job(&self, job: usize, of: usize) -> Tele<'_> {
        let tele = Tele::root(&*self.telemetry, Span::for_job(job));
        tele.emit(Payload::BatchJob { job, of });
        tele
    }

    /// Runs fallible jobs on the pool, mapping pool-level panics to
    /// [`SolveError::WorkerPanic`] per slot. Installs the configured fault
    /// plan inside each job (and clears it after), so injection reaches
    /// pooled workers whose thread-locals start disarmed. The one pooled
    /// executor: batches, sweep chunks and service drains all run here.
    pub(crate) fn run_jobs<T, F>(&self, jobs: Vec<F>) -> Vec<Result<T, SolveError>>
    where
        T: Send,
        F: FnOnce() -> Result<T, SolveError> + Send,
    {
        #[cfg(feature = "faults")]
        let plan = self.fault_plan;
        let wrapped: Vec<_> = jobs
            .into_iter()
            .map(|job| {
                move || {
                    #[cfg(feature = "faults")]
                    if let Some(p) = plan {
                        p.install();
                    }
                    let out = job();
                    #[cfg(feature = "faults")]
                    if plan.is_some() {
                        crate::recovery::FaultPlan::clear();
                    }
                    out
                }
            })
            .collect();
        ThreadPool::new(self.threads)
            .run(wrapped)
            .into_iter()
            .map(|r| match r {
                Ok(inner) => inner,
                Err(panic) => Err(SolveError::WorkerPanic {
                    detail: panic.to_string(),
                }),
            })
            .collect()
    }

    /// Installs the engine's fault plan on the *calling* thread for serial
    /// entry points; the returned guard restores a disarmed state on drop.
    #[cfg(feature = "faults")]
    fn install_faults(&self) -> Option<FaultGuard> {
        self.fault_plan.map(|plan| {
            plan.install();
            FaultGuard
        })
    }
}

/// Clears the thread-local injectors when a serial faulted solve finishes.
#[cfg(feature = "faults")]
struct FaultGuard;

#[cfg(feature = "faults")]
impl Drop for FaultGuard {
    fn drop(&mut self) {
        crate::recovery::FaultPlan::clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diode_clamp() -> Circuit {
        rlpta_netlist::parse("t\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)\n")
            .unwrap()
    }

    fn corpus() -> Vec<Circuit> {
        vec![
            rlpta_netlist::parse("a\nV1 a 0 10\nR1 a b 2k\nR2 b 0 3k\n").unwrap(),
            diode_clamp(),
            rlpta_netlist::parse(
                "b\nV1 vcc 0 12\nR1 vcc b 100k\nR2 b 0 22k\nRC vcc c 2.2k\nRE e 0 1k\nQ1 c b e QN\n.model QN NPN(IS=1e-15 BF=120)",
            )
            .unwrap(),
        ]
    }

    #[test]
    fn builder_defaults_solve_a_circuit() {
        let engine = DcEngine::builder().build();
        let c = diode_clamp();
        let sol = engine.solve(&c).unwrap();
        assert!(sol.stats.converged);
        let v = sol.voltage(&c, "out").unwrap();
        assert!(v > 0.55 && v < 0.85, "diode drop {v}");
    }

    #[test]
    fn newton_strategy_matches_plain_newton() {
        let c = diode_clamp();
        let via_engine = DcEngine::builder().newton().build().solve(&c).unwrap();
        let direct = crate::NewtonRaphson::default().solve(&c).unwrap();
        assert_eq!(via_engine.x, direct.x);
    }

    #[test]
    fn pta_strategy_solves_with_each_stepping() {
        let c = diode_clamp();
        for stepping in [
            Stepping::Simple(SimpleStepping::default()),
            Stepping::Ser(SerStepping::default()),
        ] {
            let engine = DcEngine::builder()
                .kind(PtaKind::cepta())
                .stepping(stepping.clone())
                .build();
            let sol = engine.solve(&c).unwrap();
            assert!(sol.stats.converged, "stepping {}", stepping.name());
        }
    }

    #[test]
    fn batch_results_identical_serial_vs_parallel() {
        let circuits = corpus();
        let serial = DcEngine::builder()
            .kind(PtaKind::cepta())
            .threads(1)
            .build()
            .solve_batch(&circuits);
        let parallel = DcEngine::builder()
            .kind(PtaKind::cepta())
            .threads(4)
            .build()
            .solve_batch(&circuits);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s, p, "batch solve must not depend on thread count");
        }
    }

    #[test]
    fn batch_preserves_input_order_and_isolates_failures() {
        let mut circuits = corpus();
        // A circuit Newton cannot solve in one iteration and PTA cannot
        // rescue within a 1-step budget: its slot must fail, others succeed.
        circuits.insert(1, diode_clamp());
        let engine = DcEngine::builder()
            .kind(PtaKind::Pure)
            .budget(SolveBudget::UNLIMITED.steps(1))
            .threads(3)
            .build();
        let results = engine.solve_batch(&circuits);
        assert_eq!(results.len(), circuits.len());
        // The linear divider solves in the first PTA step... actually under
        // a 1-step budget even easy circuits may trip; what matters here is
        // slot alignment: every result corresponds to its input circuit.
        for r in &results {
            match r {
                Ok(sol) => assert!(sol.stats.converged),
                Err(e) => assert!(
                    matches!(
                        e,
                        SolveError::BudgetExhausted { .. } | SolveError::NonConvergent { .. }
                    ),
                    "unexpected {e:?}"
                ),
            }
        }
    }

    /// What a robust `solve()` reports, minus wall-clock time: the
    /// solution and its stats, or the failure trail's strategy, error text
    /// and stats per rung.
    type Outcome = Result<(Vec<f64>, SolveStats), Vec<(&'static str, String, SolveStats)>>;

    /// A robust `solve()` is the serial ladder at every thread count: the
    /// same outcome and the same event stream once timing events are
    /// dropped and worker ids zeroed (CI's JSONL diff normalization).
    #[test]
    fn robust_solve_is_thread_invariant() {
        let c = diode_clamp();
        let doomed = NewtonConfig {
            max_iterations: 1,
            ..NewtonConfig::default()
        };
        let ladders = [
            RobustDcSolver::default_ladder(),
            vec![
                LadderStage::DampedNewton(doomed.clone()),
                LadderStage::DampedNewton(doomed),
            ],
        ];
        for stages in ladders {
            let run = |threads: usize| -> (Outcome, Vec<String>) {
                let sink = Arc::new(crate::telemetry::Collector::new());
                let out = DcEngine::builder()
                    .ladder(stages.clone())
                    .threads(threads)
                    .telemetry(sink.clone())
                    .build()
                    .solve(&c);
                let outcome = match out {
                    Ok(sol) => Ok((sol.x, sol.stats)),
                    Err(SolveError::AllStrategiesFailed { attempts }) => Err(attempts
                        .into_iter()
                        .map(|a| (a.strategy, a.error.to_string(), a.stats))
                        .collect()),
                    Err(e) => panic!("unexpected {e:?}"),
                };
                let events = sink
                    .events()
                    .into_iter()
                    .filter(|e| !e.payload.is_timing())
                    .map(|mut e| {
                        e.span.worker = 0;
                        e.to_json()
                    })
                    .collect();
                (outcome, events)
            };
            let serial = run(1);
            match &serial.0 {
                Ok((_, stats)) => assert!(stats.converged),
                Err(trail) => {
                    assert_eq!(trail.len(), 2);
                    assert!(trail.iter().all(|a| a.0 == "newton"));
                }
            }
            assert!(!serial.1.is_empty());
            for threads in [2, 4] {
                assert_eq!(run(threads), serial, "robust solve at {threads} threads");
            }
        }
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        let c = rlpta_netlist::parse(
            "t\nV1 in 0 0\nR1 in a 100\nD1 a 0 DX\n.model DX D(IS=1e-14)\n",
        )
        .unwrap();
        let sweep = DcSweep::linear("V1", 0.0, 2.0, 0.1).unwrap();
        let serial = DcEngine::builder()
            .threads(1)
            .build()
            .sweep(&c, &sweep)
            .unwrap();
        for threads in [2, 4, 7] {
            let parallel = DcEngine::builder()
                .threads(threads)
                .build()
                .sweep(&c, &sweep)
                .unwrap();
            assert_eq!(
                serial, parallel,
                "sweep output depends on thread count {threads}"
            );
        }
    }

    #[test]
    fn sweep_reuses_one_workspace_per_chain() {
        // 21 points, chunk 8 → 3 boundary solves + 3 interior chains. The
        // lu_factorizations aggregate must show far fewer *symbolic*
        // analyses than factorizations — indirectly: the sweep solves all
        // points and each point's Newton work stays tiny with warm starts.
        let c = rlpta_netlist::parse(
            "t\nV1 in 0 0\nR1 in a 100\nD1 a 0 DX\n.model DX D(IS=1e-14)\n",
        )
        .unwrap();
        let sweep = DcSweep::linear("V1", 0.0, 2.0, 0.1).unwrap();
        let report = DcEngine::builder().build().sweep(&c, &sweep).unwrap();
        assert_eq!(report.points.len(), 21);
        assert!(report.stats.converged);
        assert!(report.stats.nr_iterations > 0);
    }

    #[test]
    fn solve_warm_hands_the_recorded_pattern_back() {
        let c = diode_clamp();
        let engine = DcEngine::builder().build();
        let mut ws = LuWorkspace::new();
        let first = engine.solve_warm(&c, None, &mut ws).unwrap();
        assert!(ws.symbolic().is_some(), "pattern returned to the caller");
        let full = ws.stats().full_factorizations;
        engine.solve_warm(&c, Some(&first.x), &mut ws).unwrap();
        assert_eq!(ws.stats().full_factorizations, full, "second call replays it");
    }

    #[test]
    fn sweep_unknown_source_is_invalid_config() {
        let c = diode_clamp();
        let sweep = DcSweep::linear("V99", 0.0, 1.0, 0.5).unwrap();
        assert!(matches!(
            DcEngine::builder().build().sweep(&c, &sweep),
            Err(SolveError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn stepping_names_are_stable() {
        assert_eq!(Stepping::default().name(), "simple");
        assert_eq!(Stepping::Ser(SerStepping::default()).name(), "adaptive-ser");
        assert_eq!(Stepping::Rl(RlSteppingConfig::new(1)).name(), "rl");
    }

    #[test]
    fn threads_zero_means_auto() {
        let engine = DcEngine::builder().threads(0).build();
        assert!(engine.threads() >= 1);
    }
}
