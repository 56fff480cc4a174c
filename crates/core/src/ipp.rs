//! IPP glue: binds the Gaussian-process active learner of `rlpta-gp` to
//! real PTA runs (the paper's §3 pipeline).

use crate::error::SolvePhase;
use crate::telemetry::timing::time_phase;
use crate::telemetry::{Payload, Phase, Sink, Span, Tele};
use crate::{PtaConfig, PtaKind, PtaParams, PtaSolver, SimpleStepping, SolveBudget};
use rlpta_gp::{ActiveLearner, GpError, IterationOracle};
use rlpta_mna::Circuit;
use std::sync::Arc;

/// Cost assigned to a non-convergent run (log scale — roughly e¹² ≈ 160 000
/// "virtual" iterations, far above any convergent run).
const DIVERGED_COST: f64 = 12.0;

/// An [`IterationOracle`] that runs a real PTA solver on a corpus of
/// training circuits and reports the log-scaled NR iteration count.
///
/// The active learner minimizes this cost; log scaling keeps the GP from
/// being dominated by the occasional thousand-iteration outlier.
pub struct IppOracle<'a> {
    circuits: &'a [Circuit],
    kind: PtaKind,
    config: PtaConfig,
    budget: SolveBudget,
    threads: usize,
    evaluations: usize,
    rounds: usize,
    telemetry: Option<Arc<dyn Sink>>,
}

impl<'a> IppOracle<'a> {
    /// Creates an oracle over `circuits` for the given PTA flavour.
    pub fn new(circuits: &'a [Circuit], kind: PtaKind) -> Self {
        let config = PtaConfig {
            // Keep the training loop cheap: cap the per-run budget.
            max_steps: 4000,
            ..PtaConfig::default()
        };
        Self {
            circuits,
            kind,
            config,
            budget: SolveBudget::UNLIMITED,
            threads: 1,
            evaluations: 0,
            rounds: 0,
            telemetry: None,
        }
    }

    /// Caps every training solve with `budget` (wall-clock / NR iteration /
    /// step ceilings); an exhausted run counts as a divergence.
    #[must_use]
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Evaluates the active learner's per-round proposal batches on
    /// `threads` pooled workers (`0` sizes the pool to the host). The
    /// training *results* are identical at any thread count: each solve is
    /// independent and costs come back in job order.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 {
            rlpta_threadpool::available_threads()
        } else {
            threads
        };
        self
    }

    /// Streams one [`Payload::AcquisitionRound`] event per proposal batch
    /// the active learner evaluates — GP training progress on the same
    /// event stream as the solver work it triggers.
    #[must_use]
    pub fn with_telemetry(mut self, sink: Arc<dyn Sink>) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Total solver invocations so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Runs one solve and returns the raw statistics (used by the
    /// experiment harness for reporting).
    pub fn run_raw(&mut self, circuit: &Circuit, params: PtaParams) -> Option<crate::SolveStats> {
        self.evaluations += 1;
        run_stats(self.kind, &self.config, &self.budget, circuit, params)
    }
}

/// One budgeted PTA solve, shared by the serial and pooled evaluation paths.
fn run_stats(
    kind: PtaKind,
    config: &PtaConfig,
    budget: &SolveBudget,
    circuit: &Circuit,
    params: PtaParams,
) -> Option<crate::SolveStats> {
    let mut solver = PtaSolver::with_config(kind, SimpleStepping::default(), config.clone())
        .with_params(params);
    let mut meter = budget.start();
    meter.set_phase(SolvePhase::PseudoTransient);
    match solver.solve_metered(circuit, &mut meter, &Tele::disabled()) {
        Ok(sol) => Some(sol.stats),
        Err(
            crate::SolveError::NonConvergent { stats }
            | crate::SolveError::BudgetExhausted { stats, .. },
        ) => {
            let mut s = stats;
            s.converged = false;
            Some(s)
        }
        Err(_) => None,
    }
}

/// Log-scaled cost of one run's statistics.
fn stats_cost(stats: Option<crate::SolveStats>) -> f64 {
    match stats {
        Some(stats) if stats.converged => (stats.nr_iterations as f64).max(1.0).ln(),
        _ => DIVERGED_COST,
    }
}

impl IterationOracle for IppOracle<'_> {
    fn evaluate(&mut self, circuit: usize, w: &[f64]) -> f64 {
        let params = PtaParams::from_w(w);
        stats_cost(self.run_raw(&self.circuits[circuit], params))
    }

    /// Pooled override: a round's proposals are independent solves, so run
    /// them concurrently. Oracle evaluation draws no randomness, and costs
    /// return in job order, so training results match the serial oracle
    /// bit for bit.
    fn evaluate_batch(&mut self, jobs: &[(usize, Vec<f64>)]) -> Vec<f64> {
        self.evaluations += jobs.len();
        self.rounds += 1;
        let tele = match &self.telemetry {
            Some(sink) => Tele::root(&**sink, Span::default()),
            None => Tele::disabled(),
        };
        let costs: Vec<f64> = time_phase!(tele, Phase::GpAcquisition, {
            rlpta_threadpool::ThreadPool::new(self.threads)
                .map(jobs, |(circuit, w)| {
                    run_stats(
                        self.kind,
                        &self.config,
                        &self.budget,
                        &self.circuits[*circuit],
                        PtaParams::from_w(w),
                    )
                })
                .into_iter()
                // A panicked job (impossible under normal operation) counts
                // as a divergence rather than aborting a long offline
                // training run.
                .map(|r| stats_cost(r.unwrap_or(None)))
                .collect()
        });
        tele.emit(Payload::AcquisitionRound {
            round: self.rounds,
            evaluations: self.evaluations,
            best_cost: costs.iter().copied().fold(f64::INFINITY, f64::min),
        });
        costs
    }
}

/// Convenience: the untuned default parameters (`z = (1,1,1)`, i.e.
/// `w = 0`) the paper's Table 2 baselines use.
pub fn default_pta_params() -> PtaParams {
    PtaParams::default()
}

/// Online prediction (Eq. 3): proposes [`PtaParams`] for an unseen circuit
/// from a trained [`ActiveLearner`].
///
/// # Errors
///
/// Propagates [`GpError`] when the learner holds no data.
pub fn predict_params(
    learner: &ActiveLearner,
    features: &[f64],
    is_bjt: bool,
    rng: &mut impl rand::Rng,
) -> Result<PtaParams, GpError> {
    let w = learner.predict_best(features, is_bjt, rng)?;
    Ok(PtaParams::from_w(&w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rlpta_gp::{ActiveLearnerConfig, IterationOracle};
    use rlpta_mna::CircuitFeatures;

    fn training_circuits() -> Vec<Circuit> {
        vec![
            rlpta_netlist::parse(
                "c1\nV1 in 0 5\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)",
            )
            .unwrap(),
            rlpta_netlist::parse(
                "c2\nV1 vcc 0 9\nR1 vcc b 56k\nR2 b 0 12k\nRC vcc c 3k\nRE e 0 680\nQ1 c b e QN\n.model QN NPN(IS=1e-15 BF=150)",
            )
            .unwrap(),
        ]
    }

    #[test]
    fn oracle_returns_log_iterations() {
        let circuits = training_circuits();
        let mut oracle = IppOracle::new(&circuits, PtaKind::Pure);
        let cost = oracle.evaluate(0, &[0.0, 0.0, 0.0]);
        assert!(cost > 0.0 && cost < DIVERGED_COST, "cost = {cost}");
        assert_eq!(oracle.evaluations(), 1);
    }

    #[test]
    fn oracle_penalizes_divergence() {
        let circuits = training_circuits();
        let mut oracle = IppOracle::new(&circuits, PtaKind::Pure);
        // Grotesquely mismatched pseudo elements: enormous C with tiny
        // budget makes the run exceed max_steps.
        oracle.config.max_steps = 2;
        let cost = oracle.evaluate(0, &[8.0, -8.0, 0.0]);
        assert_eq!(cost, DIVERGED_COST);
    }

    #[test]
    fn pooled_batch_matches_serial_costs() {
        let circuits = training_circuits();
        let jobs = vec![
            (0usize, vec![0.0, 0.0, 0.0]),
            (1, vec![0.5, -0.5, 0.0]),
            (0, vec![1.0, 1.0, 1.0]),
        ];
        let mut serial = IppOracle::new(&circuits, PtaKind::Pure);
        let expected: Vec<f64> = jobs.iter().map(|(c, w)| serial.evaluate(*c, w)).collect();
        let mut pooled = IppOracle::new(&circuits, PtaKind::Pure).with_threads(3);
        let got = pooled.evaluate_batch(&jobs);
        assert_eq!(got, expected, "pooled batch must match serial bit for bit");
        assert_eq!(pooled.evaluations(), jobs.len());
    }

    /// Byte pin: one pooled acquisition round's stream — its
    /// `GpAcquisition` timing (duration dropped), then the round summary.
    #[test]
    fn acquisition_round_stream_matches_golden() {
        let circuits = training_circuits();
        let collector = Arc::new(crate::telemetry::Collector::new());
        let mut oracle = IppOracle::new(&circuits, PtaKind::Pure)
            .with_threads(2)
            .with_telemetry(collector.clone());
        oracle.evaluate_batch(&[(0, vec![0.0, 0.0, 0.0]), (1, vec![0.5, -0.5, 0.0])]);
        let lines: Vec<String> = collector
            .events()
            .iter()
            .map(|e| match &e.payload {
                Payload::PhaseTiming { phase, .. } => format!("timing {}", phase.name()),
                _ => e.to_json(),
            })
            .collect();
        assert_eq!(
            lines,
            [
                "timing gp_acquisition",
                r#"{"event":"AcquisitionRound","job":null,"worker":0,"round":1,"evaluations":2,"best_cost":4.04305126783455}"#,
            ]
        );
    }

    #[test]
    fn end_to_end_ipp_improves_a_circuit() {
        let circuits = training_circuits();
        let features: Vec<Vec<f64>> = circuits
            .iter()
            .map(|c| CircuitFeatures::extract(c).to_vec())
            .collect();
        let flags: Vec<bool> = circuits
            .iter()
            .map(|c| CircuitFeatures::extract(c).is_bjt)
            .collect();
        let mut learner = ActiveLearner::new(
            features.clone(),
            flags.clone(),
            ActiveLearnerConfig {
                rounds: 1,
                mle_starts: 4,
                ei_candidates: 16,
                w_range: 3.0,
            },
        );
        let mut oracle = IppOracle::new(&circuits, PtaKind::Pure);
        let mut rng = StdRng::seed_from_u64(1);
        learner.offline_train(&mut oracle, &mut rng).unwrap();
        assert!(learner.samples().len() >= 4, "seed + 1 round");
        let params = predict_params(&learner, &features[0], flags[0], &mut rng).unwrap();
        assert!(params.c_node > 0.0 && params.c_node.is_finite());
    }
}
