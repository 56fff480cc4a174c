//! The four workloads, the work counters they tally and the probe that the
//! traced run attaches to the engine's telemetry hook.
//!
//! Every workload is a closed loop with one client on a one-thread engine.
//! A *unit* is one suite replica (`rls_online`, `pta_adaptive`) or one wave
//! of service jobs (`service_hot`, `service_churn`). Unit `i` is a pure
//! function of the seed and `i`, so a second instance of the same workload
//! replays exactly the same work.

use crate::alloc;
use crate::inputs::{self, Template};
use rlpta_core::prelude::*;
use rlpta_core::{certify, Event, MetricsRegistry, RlStepping, Sink};
use rlpta_mna::Circuit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Jobs per `service_hot` wave, as in `service_soak`.
const HOT_WAVE: usize = 200;

/// Waves of `service_churn` hold every pool circuit this many times, so
/// every wave has the same composition.
const CHURN_ROUNDS: usize = 2;

/// Every job of a wave waits for the same `drain`, so their latencies are
/// nearly equal. One latency per wave is kept, at a position that moves
/// by this stride from wave to wave: independent samples, and the
/// benchmark's own memory stays small next to the service's.
const LATENCY_STRIDE: usize = 37;

/// Per-job NR cap of the service engine (the `service_soak` budget).
const SERVICE_NR_CAP: usize = 5_000;

/// Plan-cache budget of `service_churn`: room for a fraction of the pool's
/// structures only, so lookups keep missing, inserting and evicting.
const CHURN_CACHE_BYTES: usize = 64 * 1024;

/// The five `service_soak` topologies, whose plans all fit in the cache.
const HOT_TOPOLOGIES: [&str; 5] = ["gm1", "bias", "D10", "D11", "gm6"];

/// Replica index of `pta_adaptive`'s set-up warm-up, apart from every
/// timed replica.
const WARM_UP_REPLICA: usize = usize::MAX;

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Pretrained RL-S, adapting online, over fig5 replicas.
    RlsOnline,
    /// DPTA with adaptive (SER) stepping over table3 replicas.
    PtaAdaptive,
    /// `SimService` on five cached topologies.
    ServiceHot,
    /// `SimService` over every named topology with a small cache.
    ServiceChurn,
}

impl Name {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Name; 4] = [
        Name::RlsOnline,
        Name::PtaAdaptive,
        Name::ServiceHot,
        Name::ServiceChurn,
    ];

    /// The command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::RlsOnline => "rls_online",
            Name::PtaAdaptive => "pta_adaptive",
            Name::ServiceHot => "service_hot",
            Name::ServiceChurn => "service_churn",
        }
    }

    /// Inverse of [`Name::as_str`].
    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }
}

/// Work counters of a run. The traced and untraced runs of the same units
/// must agree on every field.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Work {
    /// Solves attempted.
    pub solves: u64,
    /// Non-converged + errored + certify-`Rejected` solves.
    pub failed: u64,
    /// Solves that returned an error.
    pub errors: u64,
    /// Solves that returned without converging.
    pub nonconverged: u64,
    /// Newton–Raphson iterations.
    pub nr_iterations: u64,
    /// Accepted pseudo-transient steps.
    pub pta_steps: u64,
    /// Rejected pseudo-transient steps.
    pub rejected_steps: u64,
    /// Full LU factorizations.
    pub lu_factorizations: u64,
    /// Numeric-only LU replays.
    pub lu_refactorizations: u64,
    /// Re-graded solutions: certified, suspect, rejected.
    pub grades: [u64; 3],
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache evictions.
    pub cache_evictions: u64,
    /// Lookups that also reused a resolved stamp plan.
    pub plan_hits: u64,
}

impl Work {
    /// `name=value` pairs, for reports.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("solves", self.solves),
            ("failed", self.failed),
            ("errors", self.errors),
            ("nonconverged", self.nonconverged),
            ("nr_iterations", self.nr_iterations),
            ("pta_steps", self.pta_steps),
            ("rejected_steps", self.rejected_steps),
            ("lu_factorizations", self.lu_factorizations),
            ("lu_refactorizations", self.lu_refactorizations),
            ("certified", self.grades[0]),
            ("suspect", self.grades[1]),
            ("rejected", self.grades[2]),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_evictions", self.cache_evictions),
            ("plan_hits", self.plan_hits),
        ]
    }
}

/// One timed unit.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Time inside the unit's public calls.
    pub wall: Duration,
    /// The unit's entries in [`Run::latencies`].
    pub latencies: std::ops::Range<usize>,
    /// Solves in the unit.
    pub solves: u64,
    /// Solves that converged and were not rejected.
    pub ok: u64,
    /// NR iterations of the unit.
    pub nr_iterations: u64,
}

/// Everything one pass over a run's units records.
#[derive(Debug, Default)]
pub struct Run {
    /// Work counters.
    pub work: Work,
    /// The units, in order.
    pub units: Vec<Unit>,
    /// Per-solve latency: the public solve call, or submit to drain return
    /// for one job per service wave (see [`LATENCY_STRIDE`]).
    pub latencies: Vec<Duration>,
    /// Wrong outputs found by the checks.
    pub problems: Vec<String>,
    /// Traced only: re-grading time of each `certify` call.
    pub certify: Vec<Duration>,
    /// Traced only: each `SimService::submit` call.
    pub submit: Vec<Duration>,
    /// Traced only: each `StructureKey::of` call on a service job.
    pub structure_key: Vec<Duration>,
    /// Traced only: submit return to the job's first solve event.
    pub queue_wait: Vec<Duration>,
    /// Traced only: total time inside `SimService::drain`.
    pub drain: Duration,
    /// Structures resident in the plan cache after the last unit.
    pub resident: usize,
}

impl Run {
    fn problem(&mut self, what: String) {
        const KEEP: usize = 20;
        if self.problems.len() < KEEP {
            self.problems.push(what);
        }
    }

    /// Sum of the unit walls.
    pub fn wall(&self) -> Duration {
        self.units.iter().map(|u| u.wall).sum()
    }
}

/// The traced run's telemetry sink: a gate in front of a
/// [`MetricsRegistry`] (closed during set-up, so only timed units land in
/// it) that also stamps the first event of each expected service job.
#[derive(Debug, Default)]
pub struct Probe {
    /// Per-phase histograms and per-kind counts of the timed units.
    pub registry: MetricsRegistry,
    open: AtomicBool,
    first_event: Mutex<(usize, Vec<Option<Instant>>)>,
}

impl Probe {
    /// Lets events through from now on.
    pub fn open(&self) {
        self.open.store(true, Ordering::SeqCst);
    }

    fn expect_jobs(&self, base: usize, n: usize) {
        let mut g = self.first_event.lock().expect("probe lock");
        g.0 = base;
        g.1.clear();
        g.1.resize(n, None);
    }

    fn first_events(&self) -> Vec<Option<Instant>> {
        self.first_event.lock().expect("probe lock").1.clone()
    }
}

impl Sink for Probe {
    fn emit(&self, event: &Event) {
        if !self.open.load(Ordering::SeqCst) {
            return;
        }
        self.registry.emit(event);
        if let Some(job) = event.span.job {
            let mut g = self.first_event.lock().expect("probe lock");
            let base = g.0;
            if let Some(slot) = job.checked_sub(base).and_then(|i| g.1.get_mut(i)) {
                slot.get_or_insert_with(Instant::now);
            }
        }
    }
}

/// Re-grades one result outside the timers and tallies it; returns
/// whether the solve converged and was not rejected.
fn check(
    name: &str,
    circuit: &Circuit,
    result: Result<Solution, String>,
    run: &mut Run,
    traced: bool,
) -> (bool, u64) {
    run.work.solves += 1;
    let sol = match result {
        Ok(sol) => sol,
        Err(e) => {
            run.work.errors += 1;
            run.work.failed += 1;
            run.problem(format!("{name}: {e}"));
            return (false, 0);
        }
    };
    let s = sol.stats;
    let w = &mut run.work;
    w.nr_iterations += s.nr_iterations as u64;
    w.pta_steps += s.pta_steps as u64;
    w.rejected_steps += s.rejected_steps as u64;
    w.lu_factorizations += s.lu_factorizations as u64;
    w.lu_refactorizations += s.lu_refactorizations as u64;
    let t0 = Instant::now();
    let report = certify(circuit, &sol.x);
    if traced {
        run.certify.push(t0.elapsed());
    }
    let grade = report.grade;
    run.work.grades[match grade {
        HealthGrade::Certified => 0,
        HealthGrade::Suspect => 1,
        HealthGrade::Rejected => 2,
    }] += 1;
    if !s.converged {
        run.work.nonconverged += 1;
    }
    let ok = s.converged && grade != HealthGrade::Rejected;
    if !ok {
        run.work.failed += 1;
    }
    let engine_grade = sol.health.as_ref().map(|h| h.grade);
    if engine_grade != Some(grade) {
        run.problem(format!(
            "{name}: engine graded {engine_grade:?}, the re-grade says {grade}"
        ));
    }
    (ok, s.nr_iterations as u64)
}

// One instance per workload: variant size is moot.
#[allow(clippy::large_enum_variant)]
enum Stepping {
    Rl(RlStepping),
    Ser(SerStepping),
}

struct Suite {
    engine: DcEngine,
    templates: Vec<Template>,
    stepping: Stepping,
    /// Whether replica 0 is jittered too (`false` keeps it the paper suite).
    jitter_first: bool,
}

impl Suite {
    fn unit(&self, index: usize, seed: u64, run: &mut Run, traced: bool) {
        let first = run.latencies.len();
        let mut unit = Unit {
            wall: Duration::ZERO,
            latencies: first..first + self.templates.len(),
            solves: 0,
            ok: 0,
            nr_iterations: 0,
        };
        for (i, t) in self.templates.iter().enumerate() {
            let circuit = if index == 0 && !self.jitter_first {
                t.circuit.clone()
            } else {
                t.jittered(seed, index as u64, i as u64)
            };
            let circuits = std::slice::from_ref(&circuit);
            alloc::counting(traced);
            let t0 = Instant::now();
            let mut out = match &self.stepping {
                Stepping::Rl(rl) => self.engine.solve_batch_with(circuits, rl),
                Stepping::Ser(ser) => self.engine.solve_batch_with(circuits, ser),
            };
            let dt = t0.elapsed();
            alloc::counting(false);
            unit.wall += dt;
            run.latencies.push(dt);
            let result = match out.pop() {
                Some(r) => r.map_err(|e| e.to_string()),
                None => Err("the batch returned no result".to_string()),
            };
            let (ok, nr) = check(&t.name, &circuit, result, run, traced);
            unit.solves += 1;
            unit.ok += u64::from(ok);
            unit.nr_iterations += nr;
        }
        run.units.push(unit);
    }
}

struct Service {
    service: SimService,
    pool: Vec<Template>,
    /// Jobs per wave; also the queue capacity.
    wave: usize,
    next_job: u64,
}

impl Service {
    /// Runs one wave; `seed` is `None` for the unjittered set-up wave.
    fn wave(&mut self, seed: Option<u64>, run: &mut Run, probe: Option<&Probe>) {
        let traced = probe.is_some();
        let base = self.next_job;
        let n = self.wave;
        self.next_job += n as u64;
        let mut keep = Vec::with_capacity(n);
        let mut send = Vec::with_capacity(n);
        for k in 0..n as u64 {
            let (t, circuit) = match seed {
                Some(seed) => inputs::service_job(&self.pool, seed, base + k),
                None => {
                    let t = inputs::topology_of(base + k, self.pool.len());
                    (t, self.pool[t].circuit.clone())
                }
            };
            if traced {
                let t0 = Instant::now();
                std::hint::black_box(StructureKey::of(&circuit));
                run.structure_key.push(t0.elapsed());
            }
            send.push(circuit.clone());
            keep.push((t, circuit));
        }
        if let Some(p) = probe {
            p.expect_jobs(base as usize, n);
        }
        let mut starts = Vec::with_capacity(n);
        let mut queued = Vec::with_capacity(n);
        run.submit.reserve(n);
        let before = self.service.cache_stats();
        alloc::counting(traced);
        let t_wave = Instant::now();
        for (k, circuit) in send.into_iter().enumerate() {
            let ts = Instant::now();
            let id = self.service.submit(circuit, JobTicket::default());
            let te = Instant::now();
            starts.push(ts);
            queued.push(te);
            if traced {
                run.submit.push(te - ts);
            }
            if id.as_ref().ok() != Some(&(base as usize + k)) {
                run.problem(format!("job {}: submit returned {id:?}", base as usize + k));
            }
        }
        let t_drain = Instant::now();
        let results = self.service.drain();
        let t_end = Instant::now();
        alloc::counting(false);
        if traced {
            run.drain += t_end - t_drain;
        }
        let first = run.latencies.len();
        let sampled = (base as usize / n * LATENCY_STRIDE) % n;
        run.latencies.push(t_end - starts[sampled]);
        if let Some(p) = probe {
            for (first, q) in p.first_events().into_iter().zip(&queued) {
                if let Some(f) = first {
                    run.queue_wait.push(f.saturating_duration_since(*q));
                }
            }
        }
        if results.len() != n {
            run.problem(format!("drain returned {} of {n} jobs", results.len()));
        }
        let mut unit = Unit {
            wall: t_end - t_wave,
            latencies: first..run.latencies.len(),
            solves: 0,
            ok: 0,
            nr_iterations: 0,
        };
        for (id, result) in results {
            let Some((t, circuit)) = id.checked_sub(base as usize).and_then(|k| keep.get(k)) else {
                run.problem(format!("drain returned unknown job {id}"));
                continue;
            };
            let name = &self.pool[*t].name;
            let (ok, nr) = check(
                name,
                circuit,
                result.map_err(|e| e.to_string()),
                run,
                traced,
            );
            unit.solves += 1;
            unit.ok += u64::from(ok);
            unit.nr_iterations += nr;
        }
        let after = self.service.cache_stats();
        run.work.cache_hits += after.hits - before.hits;
        run.work.cache_misses += after.misses - before.misses;
        run.work.cache_evictions += after.evictions - before.evictions;
        run.work.plan_hits += after.plan_hits - before.plan_hits;
        run.resident = self.service.cached_structures();
        run.units.push(unit);
    }
}

// One instance per process (two in a traced run): variant size is moot.
#[allow(clippy::large_enum_variant)]
enum Body {
    Suite(Suite),
    Service(Service),
}

/// A workload, set up and ready to run units.
pub struct Workload {
    seed: u64,
    body: Body,
    probe: Option<Arc<Probe>>,
}

/// The pretrained RL-S policy of fig5: `pretrain_rl(cepta, 2022, 2)`.
fn pretrain() -> RlStepping {
    rlpta_bench::pretrain_rl(PtaKind::cepta(), 2022, 2)
}

/// Every named circuit of the pool `service_churn` draws from.
pub fn churn_pool() -> Vec<Template> {
    let mut benches = rlpta_circuits::table2();
    benches.extend(rlpta_circuits::table3());
    benches.extend(rlpta_circuits::training_corpus());
    benches.extend(rlpta_circuits::stress());
    inputs::templates(benches)
}

impl Workload {
    /// Builds the workload: circuit generation, RL pretraining (unless a
    /// pretrained `policy` is handed in) and the unjittered cache-filling
    /// first wave.
    /// With a `probe`, every solve reports to it through the engine's
    /// telemetry hook.
    pub fn setup(
        name: Name,
        seed: u64,
        policy: Option<&RlStepping>,
        probe: Option<Arc<Probe>>,
    ) -> Self {
        let mut builder = DcEngine::builder().threads(1);
        if let Some(p) = &probe {
            builder = builder.telemetry(Arc::clone(p) as Arc<dyn Sink>);
        }
        let suite = |builder: DcEngineBuilder, kind, templates, stepping, jitter_first| {
            Body::Suite(Suite {
                engine: builder
                    .kind(kind)
                    .pta_config(EngineConfig::experiment().pta())
                    .build(),
                templates,
                stepping,
                jitter_first,
            })
        };
        let body = match name {
            Name::RlsOnline => {
                let mut rl = policy.cloned().unwrap_or_else(pretrain);
                rl.unfreeze();
                let templates = inputs::templates(rlpta_circuits::fig5());
                suite(
                    builder,
                    PtaKind::cepta(),
                    templates,
                    Stepping::Rl(rl),
                    false,
                )
            }
            Name::PtaAdaptive => {
                let templates = inputs::templates(rlpta_circuits::table3());
                let ser = Stepping::Ser(SerStepping::default());
                let body = suite(builder, PtaKind::dpta(), templates, ser, true);
                // One warm-up replica on its own jitter stream, so set-up
                // is measured on real solver work rather than generation
                // alone.
                if let Body::Suite(s) = &body {
                    s.unit(WARM_UP_REPLICA, seed, &mut Run::default(), false);
                }
                body
            }
            Name::ServiceHot | Name::ServiceChurn => {
                let pool = match name {
                    Name::ServiceHot => inputs::templates(
                        HOT_TOPOLOGIES
                            .iter()
                            .map(|n| rlpta_circuits::by_name(n).expect("soak topology"))
                            .collect(),
                    ),
                    _ => churn_pool(),
                };
                let engine = builder
                    .budget(SolveBudget::UNLIMITED.nr_iterations(SERVICE_NR_CAP))
                    .build();
                let wave = match name {
                    Name::ServiceHot => HOT_WAVE,
                    _ => CHURN_ROUNDS * pool.len(),
                };
                let mut service = SimService::builder(engine).queue_capacity(wave);
                if name == Name::ServiceChurn {
                    service = service.cache_bytes(CHURN_CACHE_BYTES);
                }
                let mut s = Service {
                    service: service.build(),
                    pool,
                    wave,
                    next_job: 0,
                };
                s.wave(None, &mut Run::default(), None);
                Body::Service(s)
            }
        };
        Self { seed, body, probe }
    }

    /// The pretrained policy of `rls_online`, for a second set-up to reuse.
    pub fn policy(&self) -> Option<&RlStepping> {
        match &self.body {
            Body::Suite(s) => match &s.stepping {
                Stepping::Rl(rl) => Some(rl),
                Stepping::Ser(_) => None,
            },
            Body::Service(_) => None,
        }
    }

    /// Runs timed unit `index` (units must run in order from 0).
    pub fn run_unit(&mut self, index: usize, run: &mut Run) {
        match &mut self.body {
            Body::Suite(s) => s.unit(index, self.seed, run, self.probe.is_some()),
            Body::Service(s) => s.wave(Some(self.seed), run, self.probe.as_deref()),
        }
    }
}
