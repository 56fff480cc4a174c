//! Machine-readable bench reports: the stable-schema JSON the `--bench-json`
//! flag writes and the `perfdiff` regression gate consumes.
//!
//! The schema is versioned ([`SCHEMA_VERSION`]); the golden-file test in
//! `tests/report.rs` pins the exact serialized form, so widening the schema
//! requires an explicit version bump alongside the golden update. Encoding
//! is hand-rolled (stable field order, floats that round-trip exactly)
//! with the core telemetry writers; parsing goes through the same nested
//! reader as telemetry events and incident files
//! ([`rlpta_core::telemetry::json`]).

use rlpta_core::telemetry::json::{self, float, push_items, string};
use rlpta_core::{HistogramSummary, MetricsRegistry, Phase, SolveStats};
use std::fmt::Write as _;

/// Version of the serialized [`BenchReport`] layout. Bump only together
/// with the golden file in `tests/golden_bench_report.json`.
pub const SCHEMA_VERSION: u32 = 1;

/// Timing statistics for one instrumented phase, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Stable phase name (see [`rlpta_core::Phase::name`]).
    pub phase: String,
    /// Number of recorded spans.
    pub count: u64,
    /// Exact total.
    pub sum_nanos: u64,
    /// Smallest span.
    pub min_nanos: u64,
    /// Largest span.
    pub max_nanos: u64,
    /// Median span.
    pub p50_nanos: u64,
    /// 90th-percentile span.
    pub p90_nanos: u64,
    /// 99th-percentile span.
    pub p99_nanos: u64,
}

impl PhaseStat {
    fn from_summary(phase: Phase, s: HistogramSummary) -> Self {
        Self {
            phase: phase.name().to_string(),
            count: s.count,
            sum_nanos: s.sum_nanos,
            min_nanos: s.min_nanos,
            max_nanos: s.max_nanos,
            p50_nanos: s.p50_nanos,
            p90_nanos: s.p90_nanos,
            p99_nanos: s.p99_nanos,
        }
    }
}

/// Per-circuit outcome row (the headline series of the emitting binary).
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitRow {
    /// Benchmark circuit name.
    pub circuit: String,
    /// Whether the solve converged.
    pub converged: bool,
    /// NR iterations spent.
    pub nr_iterations: u64,
    /// PTA steps accepted.
    pub pta_steps: u64,
    /// Full LU factorizations.
    pub lu_factorizations: u64,
    /// Numeric-only LU replays.
    pub lu_refactorizations: u64,
}

/// One experiment binary's machine-readable result: run metadata,
/// aggregate work counters, per-circuit rows and per-phase wall-time
/// percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Serialized-layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Emitting binary (`fig5`, `table2`, …).
    pub bench: String,
    /// Solve strategy of the headline series (`cepta`, `dpta`, `robust`, …).
    pub strategy: String,
    /// Step controller of the headline series (`rl-s`, `simple`, `ser`, …).
    pub stepping: String,
    /// Worker-pool width the run used.
    pub threads: usize,
    /// `git rev-parse --short HEAD` at run time (`unknown` outside a
    /// checkout).
    pub git_rev: String,
    /// End-to-end wall time of the binary, nanoseconds.
    pub wall_nanos: u64,
    /// Circuits in the headline series.
    pub circuits: usize,
    /// How many of them converged.
    pub converged: usize,
    /// Total NR iterations across the headline series.
    pub nr_iterations: u64,
    /// Total accepted PTA steps.
    pub pta_steps: u64,
    /// Total full LU factorizations.
    pub lu_factorizations: u64,
    /// Total numeric-only LU replays.
    pub lu_refactorizations: u64,
    /// Fraction of LU solves served by a symbolic replay.
    pub refactorize_hit_rate: f64,
    /// Per-circuit rows of the headline series.
    pub rows: Vec<CircuitRow>,
    /// Per-phase timing statistics (empty when timing was not collected).
    pub phases: Vec<PhaseStat>,
}

impl BenchReport {
    /// Builds a report from the run's aggregated metrics plus metadata.
    /// `rows` is the headline series in suite order.
    pub fn from_run(
        bench: &str,
        strategy: &str,
        stepping: &str,
        threads: usize,
        rows: &[(String, SolveStats)],
        wall: std::time::Duration,
        metrics: Option<&MetricsRegistry>,
    ) -> Self {
        let mut total = SolveStats::default();
        let converged = rows.iter().filter(|(_, s)| s.converged).count();
        for (_, s) in rows {
            total.absorb(s);
        }
        let lu_total = total.lu_factorizations + total.lu_refactorizations;
        Self {
            schema_version: SCHEMA_VERSION,
            bench: bench.to_string(),
            strategy: strategy.to_string(),
            stepping: stepping.to_string(),
            threads,
            git_rev: git_rev(),
            wall_nanos: wall.as_nanos() as u64,
            circuits: rows.len(),
            converged,
            nr_iterations: total.nr_iterations as u64,
            pta_steps: total.pta_steps as u64,
            lu_factorizations: total.lu_factorizations as u64,
            lu_refactorizations: total.lu_refactorizations as u64,
            refactorize_hit_rate: if lu_total == 0 {
                0.0
            } else {
                total.lu_refactorizations as f64 / lu_total as f64
            },
            rows: rows
                .iter()
                .map(|(name, s)| CircuitRow {
                    circuit: name.clone(),
                    converged: s.converged,
                    nr_iterations: s.nr_iterations as u64,
                    pta_steps: s.pta_steps as u64,
                    lu_factorizations: s.lu_factorizations as u64,
                    lu_refactorizations: s.lu_refactorizations as u64,
                })
                .collect(),
            phases: metrics
                .map(|m| {
                    m.summaries()
                        .into_iter()
                        .map(|(p, s)| PhaseStat::from_summary(p, s))
                        .collect()
                })
                .unwrap_or_default(),
        }
    }

    /// Serializes with stable field order and 2-space indentation.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\n  \"schema_version\": {},\n  \"bench\": {},\n  \"strategy\": {},\
             \n  \"stepping\": {},\n  \"threads\": {},\n  \"git_rev\": {},\
             \n  \"wall_nanos\": {},\n  \"circuits\": {},\n  \"converged\": {},\
             \n  \"nr_iterations\": {},\n  \"pta_steps\": {},\n  \"lu_factorizations\": {},\
             \n  \"lu_refactorizations\": {},\n  \"refactorize_hit_rate\": {},\n  \"rows\": [",
            self.schema_version,
            string(&self.bench),
            string(&self.strategy),
            string(&self.stepping),
            self.threads,
            string(&self.git_rev),
            self.wall_nanos,
            self.circuits,
            self.converged,
            self.nr_iterations,
            self.pta_steps,
            self.lu_factorizations,
            self.lu_refactorizations,
            float(self.refactorize_hit_rate),
        );
        push_items(&mut s, &self.rows, |s, r| {
            let _ = write!(
                s,
                "{{\"circuit\": {}, \"converged\": {}, \"nr_iterations\": {}, \
                 \"pta_steps\": {}, \"lu_factorizations\": {}, \"lu_refactorizations\": {}}}",
                string(&r.circuit),
                r.converged,
                r.nr_iterations,
                r.pta_steps,
                r.lu_factorizations,
                r.lu_refactorizations,
            );
        });
        s.push_str(if self.rows.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"phases\": [");
        push_items(&mut s, &self.phases, |s, p| {
            let _ = write!(
                s,
                "{{\"phase\": {}, \"count\": {}, \"sum_nanos\": {}, \"min_nanos\": {}, \
                 \"max_nanos\": {}, \"p50_nanos\": {}, \"p90_nanos\": {}, \"p99_nanos\": {}}}",
                string(&p.phase),
                p.count,
                p.sum_nanos,
                p.min_nanos,
                p.max_nanos,
                p.p50_nanos,
                p.p90_nanos,
                p.p99_nanos,
            );
        });
        s.push_str(if self.phases.is_empty() {
            "]\n}\n"
        } else {
            "\n  ]\n}\n"
        });
        s
    }

    /// Parses a report produced by [`BenchReport::to_json`] (field order
    /// and whitespace are free; unknown fields are ignored for forward
    /// compatibility within a schema version).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed construct.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let obj = json::parse_object(text)?;
        let items = |key: &str| match obj.get(key) {
            Some(_) => obj.arr_field(key),
            None => Ok(&[][..]),
        };
        let phases = items("phases")?
            .iter()
            .map(|o| {
                Ok(PhaseStat {
                    phase: o.str_field("phase")?,
                    count: o.u64_field("count")?,
                    sum_nanos: o.u64_field("sum_nanos")?,
                    min_nanos: o.u64_field("min_nanos")?,
                    max_nanos: o.u64_field("max_nanos")?,
                    p50_nanos: o.u64_field("p50_nanos")?,
                    p90_nanos: o.u64_field("p90_nanos")?,
                    p99_nanos: o.u64_field("p99_nanos")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let rows = items("rows")?
            .iter()
            .map(|o| {
                Ok(CircuitRow {
                    circuit: o.str_field("circuit")?,
                    converged: o.bool_field("converged")?,
                    nr_iterations: o.u64_field("nr_iterations")?,
                    pta_steps: o.u64_field("pta_steps")?,
                    lu_factorizations: o.u64_field("lu_factorizations")?,
                    lu_refactorizations: o.u64_field("lu_refactorizations")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchReport {
            schema_version: obj.u64_field("schema_version")? as u32,
            bench: obj.str_field("bench")?,
            strategy: obj.str_field("strategy")?,
            stepping: obj.str_field("stepping")?,
            threads: obj.usize_field("threads")?,
            git_rev: obj.str_field("git_rev")?,
            wall_nanos: obj.u64_field("wall_nanos")?,
            circuits: obj.usize_field("circuits")?,
            converged: obj.usize_field("converged")?,
            nr_iterations: obj.u64_field("nr_iterations")?,
            pta_steps: obj.u64_field("pta_steps")?,
            lu_factorizations: obj.u64_field("lu_factorizations")?,
            lu_refactorizations: obj.u64_field("lu_refactorizations")?,
            refactorize_hit_rate: obj.f64_field("refactorize_hit_rate")?,
            rows,
            phases,
        })
    }

    /// Reads and parses a report file.
    ///
    /// # Errors
    ///
    /// I/O failures and parse errors, stringified with the path.
    pub fn load(path: &str) -> Result<BenchReport, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Serializes to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write failure, stringified with the path.
    pub fn write(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json()).map_err(|e| format!("cannot write {path}: {e}"))
    }

    /// The phase entry with the given stable name, if present.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.phase == name)
    }
}

/// Short git revision of the working tree, `RLPTA_GIT_REV` override first
/// (CI sets it so containers without a `.git` still stamp reports).
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("RLPTA_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
