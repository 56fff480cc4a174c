//! Service soak: replay a synthetic mixed-topology job trace through
//! [`SimService`] and measure what the structure cache buys over cold
//! solves.
//!
//! ```text
//! service_soak [--jobs N] [--batch N] [--threads N] \
//!              [--bench-json <warm.json>] [--bench-json-cold <cold.json>] \
//!              [--trace-jsonl <path>] [--profile]
//! ```
//!
//! The trace draws `--jobs` (default 10 000) requests over a fixed set of
//! benchmark topologies, jittering every independent source by ±1% so each
//! job is a *different* circuit with the *same* structure — exactly the
//! workload the service's structure-keyed plan cache exists for. Every job
//! runs twice:
//!
//! * **cold** — straight through [`DcEngine::solve_warm`] with a fresh
//!   workspace per job (no plan reuse, no warm starts),
//! * **warm** — queued into [`SimService`] in `--batch`-sized waves and
//!   drained, so same-structure jobs share cached symbolic plans and
//!   warm-start vectors across waves.
//!
//! Exit code 1 if the structure cache misses more often than there are
//! topologies or evicts or invalidates anything (every topology fits the
//! default 8 MiB budget, so only first sightings may miss, at any
//! `--jobs`; the hit rate is printed, not gated), the warm path does not
//! do strictly fewer full LU factorizations than the cold path, or the
//! warm path does not run at least 2× fewer `stamp_resolve` passes than
//! the cold path (the structure cache hands each warm job a precompiled
//! stamp plan, so resolution should be rare); the CI `service-soak` job
//! additionally diffs the two `--bench-json` reports with `perfdiff
//! --require-lower lu_total --require-lower stamp_resolve_total`.
//!
//! Both passes run with their own [`MetricsRegistry`] attached, so the
//! cold and warm reports each carry per-phase statistics (and the
//! `stamp_resolve` counts the gate reads) even without `--profile`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlpta_bench::report::BenchReport;
use rlpta_bench::{
    arg_value, bench_json_path, bench_threads, profile_enabled, stats_of, trace_sink,
};
use rlpta_circuits::{by_name, Benchmark};
use rlpta_core::prelude::*;
use rlpta_core::{FanoutSink, MetricsRegistry, Phase, Sink};
use rlpta_devices::Device;
use rlpta_linalg::LuWorkspace;
use rlpta_mna::Circuit;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Topologies of the trace: small, fast rows from the paper's suites so a
/// 10k-job soak stays cheap while still mixing BJT, diode and mirror
/// structures.
const TOPOLOGIES: [&str; 5] = ["gm1", "bias", "D10", "D11", "gm6"];

/// One synthetic request: which topology, and the jittered circuit.
struct TraceJob {
    topology: usize,
    circuit: Circuit,
}

/// Builds the deterministic job trace: round-robin-ish topology draws with
/// every independent source jittered by ±1% (values change, structure
/// never does).
fn build_trace(benches: &[Benchmark], jobs: usize, rng: &mut StdRng) -> Vec<TraceJob> {
    let sources: Vec<Vec<(String, f64)>> = benches
        .iter()
        .map(|b| {
            b.circuit
                .devices()
                .iter()
                .filter_map(|d| match d {
                    Device::Vsource(v) => Some((v.name().to_string(), v.dc())),
                    Device::Isource(i) => Some((i.name().to_string(), i.dc())),
                    _ => None,
                })
                .collect()
        })
        .collect();
    (0..jobs)
        .map(|_| {
            let topology = rng.gen_range(0..benches.len());
            let mut circuit = benches[topology].circuit.clone();
            for (name, dc) in &sources[topology] {
                let jitter = 1.0 + 0.01 * (2.0 * rng.gen::<f64>() - 1.0);
                circuit.set_source_dc(name, dc * jitter);
            }
            TraceJob { topology, circuit }
        })
        .collect()
}

/// Spreads the queue priorities so the soak also exercises ordering.
fn priority_of(job: usize) -> Priority {
    match job {
        j if j % 97 == 0 => Priority::Critical,
        j if j % 13 == 0 => Priority::High,
        j if j % 5 == 0 => Priority::Low,
        _ => Priority::Normal,
    }
}

fn aggregate(rows: &[(String, SolveStats)]) -> SolveStats {
    let mut total = SolveStats::default();
    for (_, s) in rows {
        total.absorb(s);
    }
    total
}

fn run() -> Result<bool, String> {
    let jobs: usize = match arg_value("jobs") {
        Some(v) => v.parse().map_err(|e| format!("bad --jobs {v:?}: {e}"))?,
        None => 10_000,
    };
    let batch: usize = match arg_value("batch") {
        Some(v) => v.parse().map_err(|e| format!("bad --batch {v:?}: {e}"))?,
        None => 200,
    };
    let threads = bench_threads();
    let benches: Vec<Benchmark> = TOPOLOGIES
        .iter()
        .map(|n| by_name(n).expect("soak topologies are known benchmarks"))
        .collect();

    let mut rng = StdRng::seed_from_u64(0xD5EED);
    let trace = build_trace(&benches, jobs, &mut rng);
    println!(
        "service_soak: {jobs} jobs over {} topologies ({}), batch {batch}, {threads} thread(s)",
        benches.len(),
        TOPOLOGIES.join(", "),
    );

    // Each pass gets its own metrics registry so the cold and warm reports
    // carry separately attributable phase statistics — the resolve-count
    // gate below depends on telling the two apart.
    let cold_metrics = Arc::new(MetricsRegistry::new());
    let warm_metrics = Arc::new(MetricsRegistry::new());
    let engine_for = |metrics: &Arc<MetricsRegistry>| {
        let mut fanout = FanoutSink::new().with(metrics.clone() as Arc<dyn Sink>);
        if let Some(sink) = trace_sink() {
            fanout = fanout.with(sink);
        }
        DcEngine::builder()
            .threads(threads)
            .budget(SolveBudget::UNLIMITED.nr_iterations(5_000))
            .telemetry(Arc::new(fanout))
            .build()
    };
    let cold_engine = engine_for(&cold_metrics);
    let engine = engine_for(&warm_metrics);

    // --- Cold pass: every job from scratch, no shared state. ---
    let t_cold = Instant::now();
    let mut cold_rows: Vec<(String, SolveStats)> = benches
        .iter()
        .map(|b| (b.name.clone(), SolveStats::default()))
        .collect();
    for job in &trace {
        let mut ws = LuWorkspace::new();
        let row = &mut cold_rows[job.topology];
        let stats = stats_of(cold_engine.solve_warm(&job.circuit, None, &mut ws), &row.0);
        row.1.absorb(&stats);
    }
    let cold_wall = t_cold.elapsed();
    let cold = aggregate(&cold_rows);

    // --- Warm pass: the same trace through the service, in waves. The
    // flight recorder rides along: a healthy soak must finish with exactly
    // one incident per solve failure and none for the certified bulk.
    let incident_dir =
        arg_value("incident-dir").unwrap_or_else(|| "service-soak-incidents".to_string());
    let t_warm = Instant::now();
    let mut service = SimService::builder(engine.clone())
        .queue_capacity(batch)
        .recorder(64)
        .incident_dir(&incident_dir)
        .build();
    let mut warm_rows: Vec<(String, SolveStats)> = benches
        .iter()
        .map(|b| (b.name.clone(), SolveStats::default()))
        .collect();
    let mut failures = 0usize;
    for wave in trace.chunks(batch) {
        let mut topo_of: Vec<(JobId, usize)> = Vec::with_capacity(wave.len());
        for job in wave {
            let id = service
                .submit(
                    job.circuit.clone(),
                    JobTicket::default().with_priority(priority_of(topo_of.len())),
                )
                .map_err(|e| format!("submit rejected below capacity: {e}"))?;
            topo_of.push((id, job.topology));
        }
        for (id, result) in service.drain() {
            let topology = topo_of
                .iter()
                .find(|(i, _)| *i == id)
                .map(|(_, t)| *t)
                .ok_or_else(|| format!("drain returned unknown job id {id}"))?;
            let stats = match result {
                Ok(sol) => sol.stats,
                Err(ServiceError::Solve(e)) => {
                    failures += 1;
                    stats_of(Err(e), &warm_rows[topology].0)
                }
                Err(e) => return Err(format!("job {id}: unexpected admission error: {e}")),
            };
            warm_rows[topology].1.absorb(&stats);
        }
    }
    let warm_wall = t_warm.elapsed();
    let warm = aggregate(&warm_rows);
    let cache = service.cache_stats();

    // --- Comparison table. ---
    println!("\n{:<8} {:>14} {:>14} {:>12} {:>12}", "circuit", "cold LU f/r", "warm LU f/r", "cold NR", "warm NR");
    for ((name, c), (_, w)) in cold_rows.iter().zip(&warm_rows) {
        println!(
            "{:<8} {:>14} {:>14} {:>12} {:>12}",
            name,
            format!("{}/{}", c.lu_factorizations, c.lu_refactorizations),
            format!("{}/{}", w.lu_factorizations, w.lu_refactorizations),
            c.nr_iterations,
            w.nr_iterations,
        );
    }
    println!(
        "\ncold: {} full LU, {} replays, {} NR iterations in {:.2}s",
        cold.lu_factorizations,
        cold.lu_refactorizations,
        cold.nr_iterations,
        cold_wall.as_secs_f64(),
    );
    println!(
        "warm: {} full LU, {} replays, {} NR iterations in {:.2}s ({} solve failures)",
        warm.lu_factorizations,
        warm.lu_refactorizations,
        warm.nr_iterations,
        warm_wall.as_secs_f64(),
        failures,
    );
    println!(
        "cache: {} hits / {} misses ({} warm) / {} evictions / {} invalidations — {:.1}% hit rate, {} structures resident",
        cache.hits,
        cache.misses,
        cache.warm_misses,
        cache.evictions,
        cache.invalidations,
        100.0 * cache.hit_rate(),
        service.cached_structures(),
    );
    println!(
        "plans: {} hits / {} misses in the stamp-plan cache",
        cache.plan_hits, cache.plan_misses,
    );
    let incidents = service.recorder().map_or(0, |r| r.incident_count());
    println!(
        "incidents: {incidents} frozen in {incident_dir}/ for {failures} solve failure(s)"
    );
    let resolves = |m: &MetricsRegistry| {
        m.summary(Phase::StampResolve).map_or(0, |s| s.count)
    };
    let (cold_resolves, warm_resolves) = (resolves(&cold_metrics), resolves(&warm_metrics));
    println!("stamp resolves: {cold_resolves} cold, {warm_resolves} warm");

    // --- Reports for the perfdiff gate. ---
    if let Some(path) = arg_value("bench-json-cold") {
        BenchReport::from_run(
            "service_soak-cold",
            "robust",
            "simple",
            threads,
            &cold_rows,
            cold_wall,
            Some(&cold_metrics),
        )
        .write(&path)?;
        println!("# cold bench report: {path}");
    }
    if profile_enabled() {
        println!("#\n# --- self-time profile (service_soak warm pass) ---");
        for line in warm_metrics.profile_tree().lines() {
            println!("# {line}");
        }
    }
    if let Some(path) = bench_json_path() {
        BenchReport::from_run(
            "service_soak",
            "robust",
            "simple",
            threads,
            &warm_rows,
            warm_wall,
            Some(&warm_metrics),
        )
        .write(&path)?;
        println!("# bench report: {path}");
    }
    println!("# total wall time: {:.2}s", t_warm.elapsed().as_secs_f64());

    // --- The soak's own acceptance gates. ---
    let mut failed = false;
    // Every topology fits the default budget: a structure may miss only
    // on its first sighting.
    if cache.misses > TOPOLOGIES.len() as u64 || cache.evictions != 0 || cache.invalidations != 0 {
        println!(
            "FAIL: cache missed {} time(s) for {} topologies, evicted {} and invalidated {}",
            cache.misses,
            TOPOLOGIES.len(),
            cache.evictions,
            cache.invalidations,
        );
        failed = true;
    }
    if warm.lu_factorizations >= cold.lu_factorizations {
        println!(
            "FAIL: warm path did {} full LU factorizations, not strictly below cold's {}",
            warm.lu_factorizations, cold.lu_factorizations,
        );
        failed = true;
    }
    // The plan cache hands warm jobs a precompiled stamp plan, so stamp
    // resolution should collapse to roughly one pass per structure: demand
    // at least a 2× reduction over the cold pass.
    if warm_resolves * 2 > cold_resolves {
        println!(
            "FAIL: warm path ran {warm_resolves} stamp_resolve passes, \
             more than half of cold's {cold_resolves}",
        );
        failed = true;
    }
    // A certified solve must never freeze an incident, and every terminal
    // failure must freeze exactly one.
    if incidents != failures {
        println!(
            "FAIL: flight recorder froze {incidents} incidents for {failures} solve failure(s)"
        );
        failed = true;
    }
    if !failed {
        println!(
            "service_soak: OK ({:.1}% hit rate, {} vs {} full LU, {} vs {} stamp resolves)",
            100.0 * cache.hit_rate(),
            warm.lu_factorizations,
            cold.lu_factorizations,
            warm_resolves,
            cold_resolves,
        );
    }
    Ok(failed)
}

fn main() -> ExitCode {
    match run() {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("service_soak: {e}");
            ExitCode::from(2)
        }
    }
}
