//! The repository benchmark: four workloads over the DC engine and
//! `SimService`, each measured end to end (untraced) or per layer (traced).
//!
//! ```text
//! perfbench --workload <rls_online|pta_adaptive|service_hot|service_churn>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs timed units for `--seconds`, sets the workload up five
//! times spread over the run, and prints the end-to-end metrics in
//! reference-host time (see [`to_reference`]). `--trace 1` runs every unit
//! twice, back to back: on an untraced instance and on one with a metrics
//! probe on the engine's telemetry hook. It checks that both did identical
//! work and prints the per-layer metrics. Every returned solution is
//! re-graded with `rlpta_core::certify` outside the timers.
//!
//! The last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; a fuller report with the environment stamp goes
//! to `perfbench/out/`. See `perfbench/README.md` for the metric
//! definitions and which end-to-end metric each layer metric should move.

mod alloc;
mod calib;
mod inputs;
mod workloads;

use rlpta_core::{HistogramSummary, Phase};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workloads::{Name, Probe, Run, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("solves_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("solved_frac", "frac"),
    ("nr_iters_per_solve", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
const PER_LAYER: [(&str, &str); 42] = [
    ("rl.train.count", "count"),
    ("rl.train.s", "s"),
    ("rl.train.p50_us", "us"),
    ("rl.inference.count", "count"),
    ("rl.inference.s", "s"),
    ("linalg.lu_replay.count", "count"),
    ("linalg.lu_replay.s", "s"),
    ("linalg.lu_replay.p50_us", "us"),
    ("linalg.lu_factorize.count", "count"),
    ("linalg.lu_factorize.s", "s"),
    ("linalg.replay_ratio", "frac"),
    ("mna.stamp_write.count", "count"),
    ("mna.stamp_write.s", "s"),
    ("mna.stamp_write.p50_us", "us"),
    ("mna.stamp_resolve.count", "count"),
    ("mna.stamp_resolve.s", "s"),
    ("newton.nr_solve.count", "count"),
    ("newton.nr_solve.s", "s"),
    ("newton.self_s", "s"),
    ("newton.iters", "count"),
    ("alloc.per_nr_iter", "allocs"),
    ("alloc.bytes_per_solve", "bytes"),
    ("pta.step.count", "count"),
    ("pta.step.s", "s"),
    ("pta.rejected_steps", "count"),
    ("certify.count", "count"),
    ("certify.s", "s"),
    ("certify.p50_us", "us"),
    ("certify.share", "frac"),
    ("recovery.ladder_stage.count", "count"),
    ("recovery.ladder_stage.s", "s"),
    ("recovery.ladder_attempts", "count"),
    ("service.submit.p50_us", "us"),
    ("service.structure_key.p50_us", "us"),
    ("service.queue_wait.p50_ms", "ms"),
    ("service.drain.s", "s"),
    ("service.cache.hit_ratio", "frac"),
    ("service.cache.misses", "count"),
    ("service.cache.evictions", "count"),
    ("service.cache.plan_hits", "count"),
    ("service.cache.resident", "count"),
    ("telemetry.overhead_frac", "frac"),
];

/// Units every run completes even when `--seconds` runs out first.
const MIN_UNITS: usize = 4;

/// Replica 0 of `rls_online` is the unjittered fig5 suite and must
/// reproduce the checked-in RL-S column.
const FIG5_CIRCUITS: u64 = 27;
const FIG5_NR_ITERATIONS: u64 = 3_370;

struct Args {
    workload: Name,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Name::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed")?;
    let seed = seed
        .parse()
        .map_err(|e| format!("bad --seed {seed:?}: {e}"))?;
    let seconds = value("--seconds")?;
    let seconds: f64 = seconds
        .parse()
        .map_err(|e| format!("bad --seconds {seconds:?}: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Set-up repetitions of an untraced run, spread over the run; `setup_s`
/// is their median.
const SETUP_REPS: usize = 5;

/// The reference kernel's time on a quiet host (the development
/// machine's Intel Xeon). Every timing metric is expressed at this host
/// speed; see [`to_reference`].
const REFERENCE_KERNEL: Duration = Duration::from_nanos(32_500);

/// Factor that turns a wall time measured between two timings of the
/// reference kernel into reference-host time. The host this benchmark runs
/// on is shared: for seconds at a time something else slows every
/// computation on it down, the same unit by up to 2x. The kernel slows
/// down with it, so wall time × [`REFERENCE_KERNEL`] ÷ kernel time is
/// steady where wall time alone is not.
fn to_reference(before: Duration, after: Duration) -> f64 {
    2.0 * secs(REFERENCE_KERNEL) / secs(before + after)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank quantile of sorted samples, with the count beyond it.
fn quantile(sorted: &[Duration], q: f64) -> (Duration, usize) {
    if sorted.is_empty() {
        return (Duration::ZERO, 0);
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

fn p50(samples: &[Duration]) -> Duration {
    let mut s = samples.to_vec();
    s.sort();
    quantile(&s, 0.5).0
}

/// The highest of p99/p95/p90 with at least 10 samples beyond it (p90 when
/// none qualifies): `(label, value, samples beyond)`.
fn tail(samples: &[Duration]) -> (&'static str, Duration, usize) {
    let mut s = samples.to_vec();
    s.sort();
    for (label, q) in [("p99", 0.99), ("p95", 0.95), ("p90", 0.90)] {
        let (v, beyond) = quantile(&s, q);
        if beyond >= 10 || label == "p90" {
            return (label, v, beyond);
        }
    }
    unreachable!("the p90 arm always returns")
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The environment stamp recorded with every result.
fn env_stamp(seed: u64) -> String {
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    #[cfg(target_arch = "x86_64")]
    let avx2_fma =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2_fma = false;
    format!(
        "{{\"git_rev\": {}, \"nproc\": {nproc}, \"engine_threads\": 1, \"cpu_model\": {}, \
         \"seed\": {seed}, \"avx2_fma\": {avx2_fma}}}",
        json_str(&git_rev),
        json_str(&cpu),
    )
}

/// What one invocation reports.
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Extra report fields, as `"key": value` JSON fragments.
    details: Vec<String>,
}

fn work_json(run: &Run) -> String {
    let fields: Vec<String> = run
        .work
        .fields()
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn end_to_end(args: &Args) -> Outcome {
    let setup = || {
        let before = calib::measure();
        let t0 = Instant::now();
        let w = Workload::setup(args.workload, args.seed, None, None);
        let wall = secs(t0.elapsed());
        (wall * to_reference(before, calib::measure()), w)
    };
    let (first, mut w) = setup();
    let mut setups = vec![first];
    let mut run = Run::default();
    let mut calib = Vec::new();
    let t0 = Instant::now();
    let mut i = 0;
    while i < MIN_UNITS || t0.elapsed().as_secs_f64() < args.seconds {
        // The other set-ups are spread over the run, so that they sample
        // the host's phases like the units do.
        let due = args.seconds * setups.len() as f64 / SETUP_REPS as f64;
        if setups.len() < SETUP_REPS && t0.elapsed().as_secs_f64() >= due {
            setups.push(setup().0);
        }
        calib.push(calib::measure());
        w.run_unit(i, &mut run);
        i += 1;
    }
    calib.push(calib::measure());
    while setups.len() < SETUP_REPS {
        setups.push(setup().0);
    }
    let mut problems = run.problems.clone();
    if args.workload == Name::RlsOnline {
        let u = &run.units[0];
        if u.ok != FIG5_CIRCUITS || u.nr_iterations != FIG5_NR_ITERATIONS {
            problems.push(format!(
                "replica 0 is not the fig5 RL-S column: {}/{FIG5_CIRCUITS} solved in {} NR \
                 iterations, expected {FIG5_CIRCUITS}/{FIG5_CIRCUITS} in {FIG5_NR_ITERATIONS}",
                u.ok, u.nr_iterations
            ));
        }
    }
    // Unit i ran between kernel timings i and i + 1.
    let scale: Vec<f64> = calib.windows(2).map(|c| to_reference(c[0], c[1])).collect();
    let rates: Vec<f64> = run
        .units
        .iter()
        .zip(&scale)
        .map(|(u, k)| ratio(u.solves as f64, secs(u.wall) * k))
        .collect();
    let latencies: Vec<Duration> = run
        .units
        .iter()
        .zip(&scale)
        .flat_map(|(u, k)| {
            run.latencies[u.latencies.clone()]
                .iter()
                .map(|l| l.mul_f64(*k))
        })
        .collect();
    let (tail_label, tail_value, beyond) = tail(&latencies);
    let work = &run.work;
    let values = [
        median(setups.clone()),
        median(rates),
        ms(p50(&latencies)),
        ms(tail_value),
        1.0 - ratio(work.failed as f64, work.solves as f64),
        ratio(work.nr_iterations as f64, work.solves as f64),
        peak_rss_mb(),
    ];
    let setups: Vec<String> = setups.iter().map(|s| json_num(*s)).collect();
    let calib_us: Vec<String> = calib.iter().map(|c| format!("{:.1}", us(*c))).collect();
    let wall_rates: Vec<f64> = run
        .units
        .iter()
        .map(|u| ratio(u.solves as f64, secs(u.wall)))
        .collect();
    let unit_rates: Vec<String> = wall_rates.iter().map(|r| format!("{r:.1}")).collect();
    Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((n, u), v)| (*n, v, *u))
            .collect(),
        attempted: work.solves,
        failed: work.failed,
        problems,
        details: vec![
            format!(
                "\"latency_tail\": {{\"percentile\": {}, \"beyond\": {beyond}, \"samples\": {}}}",
                json_str(tail_label),
                latencies.len()
            ),
            format!("\"setup_reps_s\": [{}]", setups.join(", ")),
            format!("\"units\": {}", run.units.len()),
            format!(
                "\"wall_clock_solves_per_s\": {}",
                json_num(median(wall_rates))
            ),
            format!("\"calib_us\": [{}]", calib_us.join(", ")),
            format!("\"unit_solves_per_s\": [{}]", unit_rates.join(", ")),
            format!("\"work\": {}", work_json(&run)),
        ],
    }
}

fn per_layer(args: &Args) -> Outcome {
    let mut plain = Workload::setup(args.workload, args.seed, None, None);
    let probe = Arc::new(Probe::default());
    let mut probed = Workload::setup(
        args.workload,
        args.seed,
        plain.policy(),
        Some(Arc::clone(&probe)),
    );
    probe.open();
    // Each unit runs untraced and traced back to back, in alternating
    // order, so both passes see the same host phases.
    let (mut untraced, mut traced) = (Run::default(), Run::default());
    let t0 = Instant::now();
    let mut i = 0;
    while i < MIN_UNITS || t0.elapsed().as_secs_f64() < args.seconds {
        if i % 2 == 0 {
            plain.run_unit(i, &mut untraced);
            probed.run_unit(i, &mut traced);
        } else {
            probed.run_unit(i, &mut traced);
            plain.run_unit(i, &mut untraced);
        }
        i += 1;
    }
    let (allocs, bytes) = alloc::totals();
    let overhead: Vec<f64> = traced
        .units
        .iter()
        .zip(&untraced.units)
        .map(|(t, u)| ratio(secs(t.wall), secs(u.wall)) - 1.0)
        .collect();

    let mut problems = traced.problems.clone();
    problems.extend(untraced.problems.iter().cloned());
    if traced.work != untraced.work {
        problems.push(format!(
            "tracing changed the work done: untraced {:?}, traced {:?}",
            untraced.work, traced.work
        ));
    }

    let reg = &probe.registry;
    let phase = |p: Phase| reg.summary(p).unwrap_or_default();
    let count = |s: &HistogramSummary| s.count as f64;
    let total = |s: &HistogramSummary| s.sum_nanos as f64 * 1e-9;
    let p50_us = |s: &HistogramSummary| s.p50_nanos as f64 * 1e-3;
    let (train, infer) = (phase(Phase::RlTrain), phase(Phase::RlInference));
    let (replay, factor) = (phase(Phase::LuReplay), phase(Phase::LuFactorize));
    let (write, resolve) = (phase(Phase::StampWrite), phase(Phase::StampResolve));
    let (nr, step, ladder) = (
        phase(Phase::NewtonSolve),
        phase(Phase::PtaStep),
        phase(Phase::LadderStage),
    );
    let replays = reg.kind_count("LuReplayed") as f64;
    let fulls = reg.kind_count("LuFactorized") as f64;
    let iters = reg.kind_count("NrIteration") as f64;
    let nr_children = total(&resolve) + total(&write) + total(&factor) + total(&replay);
    let certify_s: f64 = traced.certify.iter().map(|d| secs(*d)).sum();
    let work = &traced.work;
    let values = [
        count(&train),
        total(&train),
        p50_us(&train),
        count(&infer),
        total(&infer),
        count(&replay),
        total(&replay),
        p50_us(&replay),
        count(&factor),
        total(&factor),
        ratio(replays, replays + fulls),
        count(&write),
        total(&write),
        p50_us(&write),
        count(&resolve),
        total(&resolve),
        count(&nr),
        total(&nr),
        (total(&nr) - nr_children).max(0.0),
        iters,
        ratio(allocs as f64, iters),
        ratio(bytes as f64, work.solves as f64),
        count(&step),
        total(&step),
        work.rejected_steps as f64,
        traced.certify.len() as f64,
        certify_s,
        us(p50(&traced.certify)),
        ratio(certify_s, secs(untraced.wall())),
        count(&ladder),
        total(&ladder),
        reg.kind_count("LadderAttempt") as f64,
        us(p50(&traced.submit)),
        us(p50(&traced.structure_key)),
        ms(p50(&traced.queue_wait)),
        secs(traced.drain),
        ratio(
            work.cache_hits as f64,
            (work.cache_hits + work.cache_misses) as f64,
        ),
        work.cache_misses as f64,
        work.cache_evictions as f64,
        work.plan_hits as f64,
        traced.resident as f64,
        median(overhead),
    ];
    Outcome {
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|((n, u), v)| (*n, v, *u))
            .collect(),
        attempted: work.solves,
        failed: work.failed,
        problems,
        details: vec![
            format!("\"units\": {}", traced.units.len()),
            format!("\"untraced_wall_s\": {}", json_num(secs(untraced.wall()))),
            format!("\"traced_wall_s\": {}", json_num(secs(traced.wall()))),
            "\"certify_timing\": \"replayed: each returned solution re-graded by rlpta_core::certify\""
                .to_string(),
            format!("\"work\": {}", work_json(&traced)),
        ],
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Name::ALL.map(Name::as_str).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let env = env_stamp(args.seed);
    let out = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    let correct = out.problems.is_empty();

    println!(
        "# perfbench {} seed {} trace {}",
        args.workload.as_str(),
        args.seed,
        u8::from(args.trace)
    );
    println!("# env {env}");
    for (name, value, unit) in &out.metrics {
        println!("{name} = {value} {unit}");
    }
    for d in &out.details {
        println!("# {d}");
    }
    for p in &out.problems {
        println!("# WRONG: {p}");
    }

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    let metrics = format!("{{{}}}", metrics.join(", "));
    let problems: Vec<String> = out.problems.iter().map(|p| json_str(p)).collect();
    let report = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"env\": {env}, \
         \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}, {}, \
         \"problems\": [{}]}}\n",
        json_str(args.workload.as_str()),
        args.seed,
        u8::from(args.trace),
        json_num(args.seconds),
        out.attempted,
        out.failed,
        out.details.join(", "),
        problems.join(", "),
    );
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.as_str(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, report)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .chain(Name::ALL.map(Name::as_str));
        for name in names {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} is missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<Duration> = (1..=400).map(Duration::from_micros).collect();
        assert_eq!(tail(&samples).0, "p95");
        let samples: Vec<Duration> = (1..=1000).map(Duration::from_micros).collect();
        let (label, value, beyond) = tail(&samples);
        assert_eq!(
            (label, value, beyond),
            ("p99", Duration::from_micros(990), 10)
        );
    }
}
