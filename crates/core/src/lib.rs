//! Newton–Raphson, continuation and pseudo-transient DC solvers with
//! pluggable — including reinforcement-learning — time-step control.
//!
//! This crate is the reproduction of the DAC'22 paper's contribution on top
//! of the `rlpta` substrate crates:
//!
//! * [`NewtonRaphson`] — damped Newton with SPICE convergence criteria, the
//!   inner solver of everything else,
//! * [`GminStepping`] / [`SourceStepping`] — classic continuation baselines,
//! * [`PtaSolver`] — pseudo-transient analysis with four flavours
//!   ([`PtaKind`]): pure PTA, damped **DPTA**, source-ramping **RPTA** and
//!   compound-element **CEPTA**, parameterized by [`PtaParams`] (the `z`
//!   the IPP stage predicts),
//! * [`StepController`] implementations: [`SimpleStepping`]
//!   (iteration-counting IMAX/IMIN), [`SerStepping`] (switched
//!   evolution/relaxation, the paper's "adaptive" baseline) and
//!   [`RlStepping`] — the paper's RL-S: TD3 dual agents with a public
//!   sample buffer and TD-error priority sampling, trained online during
//!   the simulation — and [`RlPolicy`], its frozen, shareable greedy
//!   policy,
//! * [`IppOracle`] / [`predict_params`] — the glue binding the
//!   Gaussian-process active learner of `rlpta-gp` to real PTA runs,
//! * [`RobustDcSolver`] — the resilience layer: an escalation ladder over
//!   all of the above with uniform [`SolveBudget`] enforcement, non-finite
//!   guards and (behind the `faults` feature) a deterministic
//!   fault-injection harness ([`recovery`]),
//! * [`DcEngine`] — the single public entry point tying it together:
//!   strategy selection via a builder, symbolic-LU reuse across Newton
//!   iterations and batch execution (corpora, sweeps) on a
//!   deterministic thread pool ([`engine`](crate::DcEngine)),
//! * [`telemetry`] — one typed event stream from the LU kernel up to the
//!   RL trainer, consumed through pluggable [`Sink`]s; the classic report
//!   types ([`SolveStats`], [`TraceEntry`], [`AttemptReport`],
//!   [`SweepReport`]) are derived fold/filter views over it.
//!
//! # Example
//!
//! ```
//! use rlpta_core::{DcEngine, PtaKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = rlpta_netlist::parse(
//!     "clamp
//!      V1 in 0 5
//!      R1 in out 1k
//!      D1 out 0 DX
//!      .model DX D(IS=1e-14)",
//! )?;
//! let engine = DcEngine::builder().kind(PtaKind::Pure).build();
//! let solution = engine.solve(&circuit)?;
//! let v = solution.voltage(&circuit, "out").expect("node exists");
//! assert!(v > 0.5 && v < 0.9); // one diode drop
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Panics are unacceptable in the solver hot path: every failure must come
// back as a structured `SolveError`. Test code is exempt.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::panic))]
// All profiling goes through the telemetry timing layer; stray `dbg!`
// prints would corrupt the deterministic streams CI diffs.
#![warn(clippy::dbg_macro)]

mod ac;
mod assembly;
pub mod certify;
pub mod config;
mod continuation;
mod engine;
mod error;
mod homotopy;
mod ipp;
mod newton;
mod pta;
pub mod recovery;
mod report;
mod rl_stepping;
pub mod service;
mod solution;
mod stepping;
mod sweep;
pub mod telemetry;
mod trace;
mod transient;

pub use ac::{AcPoint, AcStimulus, AcSweep};
#[allow(deprecated)]
pub use assembly::AssemblyMode;
pub use certify::{certify, HealthGrade, HealthReport};
pub use config::EngineConfig;
pub use continuation::{GminStepping, SourceStepping};
pub use engine::{DcEngine, DcEngineBuilder, Stepping, Strategy};
pub use error::{SolveError, SolvePhase};
pub use homotopy::NewtonHomotopy;
pub use ipp::{default_pta_params, predict_params, IppOracle};
pub use newton::{NewtonConfig, NewtonRaphson};
pub use pta::{CeptaConfig, DptaConfig, PtaConfig, PtaKind, PtaParams, PtaSolver, RptaConfig};
#[cfg(feature = "faults")]
pub use recovery::FaultPlan;
pub use recovery::{AttemptReport, LadderStage, RobustDcSolver, SolveBudget};
pub use report::op_report;
pub use rl_stepping::{RlPolicy, RlStepping, RlSteppingConfig};
pub use service::{
    CacheStats, HeartbeatLine, JobId, JobTicket, KeyScratch, Priority, ServiceError,
    ServiceMonitor, ServiceSnapshot, SimService, SimServiceBuilder, StructureKey,
};
pub use solution::{Solution, SolveStats};
pub use stepping::{SerStepping, SimpleStepping, StepController, StepObservation};
pub use sweep::{DcSweep, QuarantinedPoint, SweepPoint, SweepReport};
pub use telemetry::{
    Collector, DerivedRates, Event, FanoutSink, FlightRecorder, Histogram, HistogramSummary,
    IncidentReport, Interest, JsonlSink, MetricsRegistry, NullSink, Payload, Phase, Sink, Span,
    Trigger,
};
pub use trace::{TraceController, TraceEntry};
pub use transient::{Stimulus, Transient, TransientPoint, Waveform};

/// The one-true-path import for applications: the engine, the service and
/// the types every caller of either touches (configuration, step-control
/// policies, budgets, reports, the two error families). Deliberately
/// *excludes* the individual solver types (`NewtonRaphson`, `PtaSolver`,
/// …) — those are research-harness surface; applications drive
/// [`DcEngine`] or [`SimService`].
///
/// ```
/// use rlpta_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let circuit = rlpta_netlist::parse("t\nV1 a 0 1\nR1 a 0 1k")?;
/// let report = DcEngine::builder().build().solve(&circuit)?;
/// assert!(report.stats.converged);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    #[allow(deprecated)]
    pub use crate::assembly::AssemblyMode;
    pub use crate::certify::{HealthGrade, HealthReport};
    pub use crate::config::EngineConfig;
    pub use crate::engine::{DcEngine, DcEngineBuilder, Stepping, Strategy};
    pub use crate::error::{SolveError, SolvePhase};
    pub use crate::newton::NewtonConfig;
    pub use crate::pta::{PtaConfig, PtaKind};
    pub use crate::recovery::{LadderStage, SolveBudget};
    pub use crate::rl_stepping::RlSteppingConfig;
    pub use crate::stepping::{SerStepping, SimpleStepping};
    pub use crate::service::{
        CacheStats, HeartbeatLine, JobId, JobTicket, Priority, ServiceError, ServiceMonitor,
        ServiceSnapshot, SimService, SimServiceBuilder, StructureKey,
    };
    pub use crate::solution::{Solution, SolveStats};
    pub use crate::sweep::{DcSweep, QuarantinedPoint, SweepPoint, SweepReport};
    pub use crate::telemetry::{FlightRecorder, IncidentReport, MetricsRegistry, Trigger};
}
