//! Live service observability: snapshots, Prometheus exposition,
//! heartbeat stream and the deadline watchdog.
//!
//! [`SimService`] accumulates plain counters as it admits, rejects and
//! completes jobs; [`SimService::snapshot`] freezes them — together with
//! the live queue shape, [`CacheStats`](super::CacheStats), flight-recorder
//! totals and (when a [`MetricsRegistry`] is attached) per-phase latency
//! percentiles — into a [`ServiceSnapshot`]. The snapshot renders two ways:
//!
//! * [`ServiceSnapshot::render_prometheus`]: a Prometheus text exposition
//!   with stable metric names (`rlpta_service_*`), `# HELP`/`# TYPE`
//!   preambles and escaped label values. Scrape it from whatever HTTP
//!   layer embeds the service — the service itself stays transport-free.
//! * [`HeartbeatLine`]: one flat JSON object per beat, appended to a JSONL
//!   file at the interval configured via
//!   [`heartbeat`](super::SimServiceBuilder::heartbeat). `rlpta monitor`
//!   tails that file into an ASCII live view; the line format round-trips
//!   through [`HeartbeatLine::parse`].
//!
//! The **watchdog** ([`watchdog`](super::SimServiceBuilder::watchdog))
//! flags any job whose wall-clock age exceeds `deadline × factor` — both
//! jobs still sitting in the queue (checked on every
//! [`tick`](SimService::tick)) and jobs that overran inside a drain
//! (checked as each group completes). A fire emits
//! [`Payload::Watchdog`](crate::telemetry::Payload::Watchdog), which is
//! itself a flight-recorder trigger, so a wedged job leaves an incident
//! report even if it never returns. The
//! watchdog is off by default: it reads the wall clock, and the service's
//! determinism contract only covers configurations that do not.

use super::{Priority, SimService};
use crate::telemetry::json::{self, push_field};
use crate::telemetry::metrics::HistogramSummary;
use crate::telemetry::timing::Phase;
use crate::telemetry::MetricsRegistry;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Index of a [`Priority`] into the fixed per-priority counter arrays.
pub(super) fn priority_index(p: Priority) -> usize {
    match p {
        Priority::Low => 0,
        Priority::Normal => 1,
        Priority::High => 2,
        Priority::Critical => 3,
    }
}

/// The four priorities in counter-array order (lowest first).
const PRIORITIES: [Priority; 4] = [
    Priority::Low,
    Priority::Normal,
    Priority::High,
    Priority::Critical,
];

/// Health-grade names in counter-array order.
const GRADES: [&str; 3] = ["certified", "suspect", "rejected"];

/// Cumulative service counters, updated inline by submit/drain/solve.
/// Plain fields behind the service's `&mut self` methods — no atomics
/// needed, and snapshots are trivially consistent.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct ServiceCounters {
    /// Admitted jobs, by [`Priority`].
    pub(super) submitted: [u64; 4],
    /// Submissions refused with [`QueueFull`](super::ServiceError::QueueFull).
    pub(super) rejected_queue_full: u64,
    /// Submissions refused with
    /// [`DeadlineUnmeetable`](super::ServiceError::DeadlineUnmeetable).
    pub(super) rejected_deadline: u64,
    /// Jobs that came back `Ok`.
    pub(super) completed: u64,
    /// Jobs that came back `Err` (solve failures, expired deadlines).
    pub(super) solve_failures: u64,
    /// Jobs that finished — successfully or not — after their deadline.
    pub(super) deadline_misses: u64,
    /// Watchdog flags raised (queued and in-flight overruns).
    pub(super) watchdog_fires: u64,
    /// Certified / suspect / rejected grades over completed jobs.
    pub(super) grades: [u64; 3],
}

impl ServiceCounters {
    /// Tallies one finished job: completion vs failure, plus the
    /// certification grade when present.
    pub(super) fn note_result(
        &mut self,
        result: &Result<crate::Solution, super::ServiceError>,
    ) {
        match result {
            Ok(sol) => {
                self.completed += 1;
                if let Some(h) = &sol.health {
                    let idx = match h.grade {
                        crate::certify::HealthGrade::Certified => 0,
                        crate::certify::HealthGrade::Suspect => 1,
                        crate::certify::HealthGrade::Rejected => 2,
                    };
                    self.grades[idx] += 1;
                }
            }
            Err(_) => self.solve_failures += 1,
        }
    }
}

/// Monitor state owned by the service: counters, heartbeat schedule and
/// watchdog configuration. Constructed by
/// [`SimServiceBuilder::build`](super::SimServiceBuilder::build); inspect
/// via [`SimService::monitor`].
#[derive(Debug)]
pub struct ServiceMonitor {
    pub(super) counters: ServiceCounters,
    pub(super) started: Instant,
    pub(super) heartbeat_interval: Option<Duration>,
    pub(super) heartbeat_path: Option<PathBuf>,
    pub(super) last_beat: Option<Instant>,
    pub(super) watchdog_factor: Option<f64>,
    pub(super) registry: Option<Arc<MetricsRegistry>>,
    pub(super) write_error: Option<String>,
}

impl ServiceMonitor {
    pub(super) fn new(
        heartbeat_interval: Option<Duration>,
        heartbeat_path: Option<PathBuf>,
        watchdog_factor: Option<f64>,
        registry: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        Self {
            counters: ServiceCounters::default(),
            started: Instant::now(),
            heartbeat_interval,
            heartbeat_path,
            last_beat: None,
            watchdog_factor,
            registry,
            write_error: None,
        }
    }

    /// The configured heartbeat interval, if any.
    pub fn heartbeat_interval(&self) -> Option<Duration> {
        self.heartbeat_interval
    }

    /// The JSONL file heartbeats append to, if any.
    pub fn heartbeat_path(&self) -> Option<&PathBuf> {
        self.heartbeat_path.as_ref()
    }

    /// The watchdog's `deadline × factor` multiplier, if enabled.
    pub fn watchdog_factor(&self) -> Option<f64> {
        self.watchdog_factor
    }

    /// First heartbeat I/O error, if any (heartbeats never fail a solve).
    pub fn write_error(&self) -> Option<&str> {
        self.write_error.as_deref()
    }
}

/// A point-in-time view of a running [`SimService`]; see the
/// [module docs](self). Obtain via [`SimService::snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
#[non_exhaustive]
pub struct ServiceSnapshot {
    /// Time since the service was built.
    pub uptime: Duration,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Queued jobs by priority (low, normal, high, critical).
    pub queue_by_priority: [usize; 4],
    /// Age of the oldest queued job, if any.
    pub oldest_queued: Option<Duration>,
    /// Cumulative admissions by priority (low, normal, high, critical).
    pub submitted: [u64; 4],
    /// Cumulative queue-full rejections.
    pub rejected_queue_full: u64,
    /// Cumulative unmeetable-deadline rejections.
    pub rejected_deadline: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that came back as errors.
    pub solve_failures: u64,
    /// Jobs that finished after their deadline.
    pub deadline_misses: u64,
    /// Watchdog flags raised.
    pub watchdog_fires: u64,
    /// Certified / suspect / rejected grade counts.
    pub grades: [u64; 3],
    /// Plan-cache counters at snapshot time.
    pub cache: super::CacheStats,
    /// Structures currently cached.
    pub cached_structures: usize,
    /// Incident reports frozen by the attached flight recorder (0 when
    /// none is attached).
    pub incidents: u64,
    /// Incident triggers suppressed by the recorder's per-run cap.
    pub dropped_incidents: u64,
    /// Per-phase latency summaries from the attached registry (empty when
    /// none is attached).
    pub phases: Vec<(Phase, HistogramSummary)>,
}

/// Escapes a Prometheus label value: backslash, double quote and newline
/// per the text exposition format.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn nanos_to_secs(nanos: u64) -> f64 {
    nanos as f64 * 1e-9
}

/// Writes one metric family: its `# HELP` + `# TYPE` preamble, then one
/// `name<sample> value` line per sample, where `sample` completes the
/// series name — empty, a label set from [`label`], or a summary suffix
/// such as `_sum{phase="…"}`.
fn family<S: std::fmt::Display, V: std::fmt::Display>(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    samples: impl IntoIterator<Item = (S, V)>,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (sample, value) in samples {
        let _ = writeln!(out, "{name}{sample} {value}");
    }
}

/// A one-label set, `{key="value"}`, its value escaped.
fn label(key: &str, value: &str) -> String {
    format!("{{{key}=\"{}\"}}", escape_label(value))
}

impl ServiceSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    /// Metric names are a stable scrape contract (`rlpta_service_*`,
    /// golden-tested): fixed order, `# HELP`/`# TYPE` preambles, label
    /// values escaped via [`escape_label`]. Gauges describe "now"; the
    /// `_total` counters are cumulative since service construction.
    pub fn render_prometheus(&self) -> String {
        let mut s = String::with_capacity(4096);
        let by_priority = |counts: [u64; 4]| {
            PRIORITIES
                .iter()
                .zip(counts)
                .map(|(p, n)| (label("priority", p.as_str()), n))
        };
        family(
            &mut s,
            "rlpta_service_uptime_seconds",
            "Seconds since the service was built.",
            "gauge",
            [("", self.uptime.as_secs_f64())],
        );
        family(
            &mut s,
            "rlpta_service_queue_depth",
            "Jobs currently queued, by priority.",
            "gauge",
            by_priority(self.queue_by_priority.map(|n| n as u64)),
        );
        family(
            &mut s,
            "rlpta_service_queue_oldest_seconds",
            "Age of the oldest queued job (0 when the queue is empty).",
            "gauge",
            [(
                "",
                self.oldest_queued.unwrap_or(Duration::ZERO).as_secs_f64(),
            )],
        );
        family(
            &mut s,
            "rlpta_service_jobs_submitted_total",
            "Admitted jobs, by priority.",
            "counter",
            by_priority(self.submitted),
        );
        family(
            &mut s,
            "rlpta_service_jobs_rejected_total",
            "Submissions refused at admission, by reason.",
            "counter",
            [
                (label("reason", "queue_full"), self.rejected_queue_full),
                (
                    label("reason", "deadline_unmeetable"),
                    self.rejected_deadline,
                ),
            ],
        );
        for (name, help, value) in [
            (
                "rlpta_service_jobs_completed_total",
                "Jobs that returned a solution.",
                self.completed,
            ),
            (
                "rlpta_service_solve_failures_total",
                "Jobs that returned an error.",
                self.solve_failures,
            ),
            (
                "rlpta_service_deadline_misses_total",
                "Jobs that finished after their deadline.",
                self.deadline_misses,
            ),
            (
                "rlpta_service_watchdog_fires_total",
                "Jobs flagged past deadline x factor.",
                self.watchdog_fires,
            ),
        ] {
            family(&mut s, name, help, "counter", [("", value)]);
        }
        family(
            &mut s,
            "rlpta_service_health_grades_total",
            "Certification grades over completed jobs.",
            "counter",
            GRADES
                .iter()
                .zip(self.grades)
                .map(|(g, n)| (label("grade", g), n)),
        );
        let cache = &self.cache;
        family(
            &mut s,
            "rlpta_service_cache_lookups_total",
            "Plan-cache lookups, by result.",
            "counter",
            [
                (label("result", "hit"), cache.hits),
                (label("result", "miss"), cache.misses),
                (label("result", "invalidated"), cache.invalidations),
            ],
        );
        family(
            &mut s,
            "rlpta_service_cache_warm_misses_total",
            "Cache misses seeded from the warm-start tier.",
            "counter",
            [("", cache.warm_misses)],
        );
        family(
            &mut s,
            "rlpta_service_cache_evictions_total",
            "Cache entries dropped under the byte budget.",
            "counter",
            [("", cache.evictions)],
        );
        family(
            &mut s,
            "rlpta_service_stamp_plan_lookups_total",
            "Stamp-plan reuse, by result.",
            "counter",
            [
                (label("result", "hit"), cache.plan_hits),
                (label("result", "miss"), cache.plan_misses),
            ],
        );
        family(
            &mut s,
            "rlpta_service_cache_hit_rate",
            "Hit fraction of all cache lookups (0 before the first).",
            "gauge",
            [("", cache.hit_rate())],
        );
        family(
            &mut s,
            "rlpta_service_cached_structures",
            "Structures currently held by the plan cache.",
            "gauge",
            [("", self.cached_structures)],
        );
        family(
            &mut s,
            "rlpta_service_incidents_total",
            "Incident reports frozen by the flight recorder.",
            "counter",
            [("", self.incidents)],
        );
        family(
            &mut s,
            "rlpta_service_incidents_dropped_total",
            "Incident triggers suppressed by the per-run cap.",
            "counter",
            [("", self.dropped_incidents)],
        );
        family(
            &mut s,
            "rlpta_service_phase_seconds",
            "Per-phase wall-time distribution from the metrics registry.",
            "summary",
            self.phases.iter().flat_map(|(phase, h)| {
                let name = escape_label(phase.name());
                [
                    (
                        format!("{{phase=\"{name}\",quantile=\"0.5\"}}"),
                        nanos_to_secs(h.p50_nanos).to_string(),
                    ),
                    (
                        format!("{{phase=\"{name}\",quantile=\"0.99\"}}"),
                        nanos_to_secs(h.p99_nanos).to_string(),
                    ),
                    (
                        format!("_sum{{phase=\"{name}\"}}"),
                        nanos_to_secs(h.sum_nanos).to_string(),
                    ),
                    (format!("_count{{phase=\"{name}\"}}"), h.count.to_string()),
                ]
            }),
        );
        s
    }
}

/// One heartbeat: the scalar core of a [`ServiceSnapshot`] as a flat JSON
/// object (one line, parseable by [`HeartbeatLine::parse`] and by the same
/// minimal scalar-object parser the telemetry JSONL uses). Per-phase
/// latency lands as `p50_<phase>` / `p99_<phase>` nanosecond keys.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct HeartbeatLine {
    /// Service uptime, nanoseconds.
    pub uptime_nanos: u64,
    /// Jobs currently queued.
    pub queue_depth: usize,
    /// Queued jobs by priority (low, normal, high, critical).
    pub queue_by_priority: [usize; 4],
    /// Age of the oldest queued job, nanoseconds (0 when empty).
    pub oldest_queued_nanos: u64,
    /// Cumulative admissions by priority.
    pub submitted: [u64; 4],
    /// Cumulative queue-full rejections.
    pub rejected_queue_full: u64,
    /// Cumulative unmeetable-deadline rejections.
    pub rejected_deadline: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs that came back as errors.
    pub solve_failures: u64,
    /// Jobs that finished after their deadline.
    pub deadline_misses: u64,
    /// Watchdog flags raised.
    pub watchdog_fires: u64,
    /// Certified / suspect / rejected counts.
    pub grades: [u64; 3],
    /// Cache hits so far.
    pub cache_hits: u64,
    /// Cache misses so far.
    pub cache_misses: u64,
    /// Cache hit fraction (0 before the first lookup).
    pub hit_rate: f64,
    /// Structures currently cached.
    pub cached_structures: usize,
    /// Incidents frozen so far.
    pub incidents: u64,
    /// Incident triggers suppressed by the cap.
    pub dropped_incidents: u64,
    /// Per-phase `(phase, p50, p99)` nanoseconds, canonical phase order.
    pub phases: Vec<(Phase, u64, u64)>,
}

impl HeartbeatLine {
    /// Projects a snapshot onto the heartbeat's flat scalar shape.
    pub fn from_snapshot(snap: &ServiceSnapshot) -> Self {
        Self {
            uptime_nanos: snap.uptime.as_nanos() as u64,
            queue_depth: snap.queue_depth,
            queue_by_priority: snap.queue_by_priority,
            oldest_queued_nanos: snap
                .oldest_queued
                .map_or(0, |d| d.as_nanos() as u64),
            submitted: snap.submitted,
            rejected_queue_full: snap.rejected_queue_full,
            rejected_deadline: snap.rejected_deadline,
            completed: snap.completed,
            solve_failures: snap.solve_failures,
            deadline_misses: snap.deadline_misses,
            watchdog_fires: snap.watchdog_fires,
            grades: snap.grades,
            cache_hits: snap.cache.hits,
            cache_misses: snap.cache.misses,
            hit_rate: snap.cache.hit_rate(),
            cached_structures: snap.cached_structures,
            incidents: snap.incidents,
            dropped_incidents: snap.dropped_incidents,
            phases: snap
                .phases
                .iter()
                .map(|(p, h)| (*p, h.p50_nanos, h.p99_nanos))
                .collect(),
        }
    }

    /// Serializes the beat as one flat JSON object, no trailing newline.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = write!(s, "{{\"uptime_nanos\":{}", self.uptime_nanos);
        push_field(&mut s, "queue_depth", self.queue_depth);
        for (i, p) in PRIORITIES.iter().enumerate() {
            push_field(
                &mut s,
                format_args!("queue_{}", p.as_str()),
                self.queue_by_priority[i],
            );
        }
        push_field(&mut s, "oldest_queued_nanos", self.oldest_queued_nanos);
        for (i, p) in PRIORITIES.iter().enumerate() {
            push_field(
                &mut s,
                format_args!("submitted_{}", p.as_str()),
                self.submitted[i],
            );
        }
        for (key, value) in [
            ("rejected_queue_full", self.rejected_queue_full),
            ("rejected_deadline", self.rejected_deadline),
            ("completed", self.completed),
            ("solve_failures", self.solve_failures),
            ("deadline_misses", self.deadline_misses),
            ("watchdog_fires", self.watchdog_fires),
        ] {
            push_field(&mut s, key, value);
        }
        for (g, count) in GRADES.iter().zip(self.grades) {
            push_field(&mut s, g, count);
        }
        push_field(&mut s, "cache_hits", self.cache_hits);
        push_field(&mut s, "cache_misses", self.cache_misses);
        push_field(&mut s, "hit_rate", json::float(self.hit_rate));
        push_field(&mut s, "cached_structures", self.cached_structures);
        push_field(&mut s, "incidents", self.incidents);
        push_field(&mut s, "dropped_incidents", self.dropped_incidents);
        for (phase, p50, p99) in &self.phases {
            push_field(&mut s, format_args!("p50_{}", phase.name()), p50);
            push_field(&mut s, format_args!("p99_{}", phase.name()), p99);
        }
        s.push('}');
        s
    }

    /// Parses one heartbeat line back; the inverse of
    /// [`HeartbeatLine::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first malformed or missing field.
    pub fn parse(line: &str) -> Result<Self, String> {
        let fields = json::parse_object(line)?;
        let mut queue_by_priority = [0usize; 4];
        let mut submitted = [0u64; 4];
        for (i, p) in PRIORITIES.iter().enumerate() {
            queue_by_priority[i] = fields.usize_field(&format!("queue_{}", p.as_str()))?;
            submitted[i] = fields.u64_field(&format!("submitted_{}", p.as_str()))?;
        }
        let mut grades = [0u64; 3];
        for (i, g) in GRADES.iter().enumerate() {
            grades[i] = fields.u64_field(g)?;
        }
        let mut phases = Vec::new();
        for phase in Phase::ALL {
            let p50_key = format!("p50_{}", phase.name());
            if fields.get(&p50_key).is_some() {
                phases.push((
                    phase,
                    fields.u64_field(&p50_key)?,
                    fields.u64_field(&format!("p99_{}", phase.name()))?,
                ));
            }
        }
        Ok(Self {
            uptime_nanos: fields.u64_field("uptime_nanos")?,
            queue_depth: fields.usize_field("queue_depth")?,
            queue_by_priority,
            oldest_queued_nanos: fields.u64_field("oldest_queued_nanos")?,
            submitted,
            rejected_queue_full: fields.u64_field("rejected_queue_full")?,
            rejected_deadline: fields.u64_field("rejected_deadline")?,
            completed: fields.u64_field("completed")?,
            solve_failures: fields.u64_field("solve_failures")?,
            deadline_misses: fields.u64_field("deadline_misses")?,
            watchdog_fires: fields.u64_field("watchdog_fires")?,
            grades,
            cache_hits: fields.u64_field("cache_hits")?,
            cache_misses: fields.u64_field("cache_misses")?,
            hit_rate: fields.f64_field("hit_rate")?,
            cached_structures: fields.usize_field("cached_structures")?,
            incidents: fields.u64_field("incidents")?,
            dropped_incidents: fields.u64_field("dropped_incidents")?,
            phases,
        })
    }
}

impl SimService {
    /// The monitor's configuration and accumulated state.
    pub fn monitor(&self) -> &ServiceMonitor {
        &self.monitor
    }

    /// Freezes the service's observable state into a [`ServiceSnapshot`].
    pub fn snapshot(&self) -> ServiceSnapshot {
        let mut queue_by_priority = [0usize; 4];
        let mut oldest: Option<Duration> = None;
        for job in &self.queue {
            queue_by_priority[priority_index(job.ticket.priority)] += 1;
            let age = job.submitted.elapsed();
            if oldest.is_none_or(|o| age > o) {
                oldest = Some(age);
            }
        }
        let c = &self.monitor.counters;
        ServiceSnapshot {
            uptime: self.monitor.started.elapsed(),
            queue_depth: self.queue.len(),
            queue_by_priority,
            oldest_queued: oldest,
            submitted: c.submitted,
            rejected_queue_full: c.rejected_queue_full,
            rejected_deadline: c.rejected_deadline,
            completed: c.completed,
            solve_failures: c.solve_failures,
            deadline_misses: c.deadline_misses,
            watchdog_fires: c.watchdog_fires,
            grades: c.grades,
            cache: self.cache_stats(),
            cached_structures: self.cached_structures(),
            incidents: self
                .recorder
                .as_ref()
                .map_or(0, |r| r.incident_count() as u64),
            dropped_incidents: self
                .recorder
                .as_ref()
                .map_or(0, |r| r.dropped_incidents() as u64),
            phases: self
                .monitor
                .registry
                .as_ref()
                .map(|r| r.summaries())
                .unwrap_or_default(),
        }
    }

    /// [`ServiceSnapshot::render_prometheus`] over a fresh snapshot.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// One heartbeat over a fresh snapshot (does not write the stream).
    pub fn heartbeat_line(&self) -> HeartbeatLine {
        HeartbeatLine::from_snapshot(&self.snapshot())
    }

    /// Runs the monitor's periodic duties: scans the queue for watchdog
    /// overruns (each queued job fires at most once) and appends a
    /// heartbeat line when the configured interval has elapsed. Called
    /// automatically after every submit/drain/solve; long-idle embeddings
    /// can call it from their own timer for steady heartbeats.
    pub fn tick(&mut self) {
        if let Some(factor) = self.monitor.watchdog_factor {
            let sink = self.engine.telemetry();
            for job in &mut self.queue {
                let Some(deadline) = job.ticket.deadline else {
                    continue;
                };
                let limit = deadline.mul_f64(factor);
                let elapsed = job.submitted.elapsed();
                if elapsed > limit {
                    let fires = &mut self.monitor.counters.watchdog_fires;
                    job.flag_overrun(&*sink, elapsed, limit, fires);
                }
            }
        }
        let due = match (self.monitor.heartbeat_interval, &self.monitor.heartbeat_path) {
            (Some(interval), Some(_)) => self
                .monitor
                .last_beat
                .is_none_or(|t| t.elapsed() >= interval),
            _ => false,
        };
        if due {
            let line = self.heartbeat_line().to_json();
            if let Some(path) = &self.monitor.heartbeat_path {
                let write = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .and_then(|mut f| writeln!(f, "{line}"));
                if let Err(e) = write {
                    if self.monitor.write_error.is_none() {
                        self.monitor.write_error = Some(format!("{}: {e}", path.display()));
                    }
                }
            }
            self.monitor.last_beat = Some(Instant::now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> ServiceSnapshot {
        ServiceSnapshot {
            uptime: Duration::from_millis(1500),
            queue_depth: 3,
            queue_by_priority: [1, 2, 0, 0],
            oldest_queued: Some(Duration::from_millis(250)),
            submitted: [4, 10, 2, 1],
            rejected_queue_full: 2,
            rejected_deadline: 1,
            completed: 12,
            solve_failures: 3,
            deadline_misses: 1,
            watchdog_fires: 2,
            grades: [11, 1, 0],
            cache: super::super::CacheStats {
                hits: 9,
                misses: 3,
                evictions: 1,
                invalidations: 0,
                plan_hits: 8,
                plan_misses: 4,
                warm_misses: 2,
            },
            cached_structures: 2,
            incidents: 3,
            dropped_incidents: 1,
            phases: vec![(
                Phase::LuFactorize,
                HistogramSummary {
                    count: 100,
                    sum_nanos: 2_000_000,
                    min_nanos: 10_000,
                    max_nanos: 50_000,
                    p50_nanos: 20_000,
                    p90_nanos: 40_000,
                    p99_nanos: 48_000,
                },
            )],
        }
    }

    /// The exposition format is a scrape contract: this golden test pins
    /// the exact text for a fully-populated snapshot. A diff here means
    /// dashboards break — change the expectation deliberately or not at
    /// all.
    #[test]
    fn prometheus_exposition_matches_golden() {
        let golden = "\
# HELP rlpta_service_uptime_seconds Seconds since the service was built.
# TYPE rlpta_service_uptime_seconds gauge
rlpta_service_uptime_seconds 1.5
# HELP rlpta_service_queue_depth Jobs currently queued, by priority.
# TYPE rlpta_service_queue_depth gauge
rlpta_service_queue_depth{priority=\"low\"} 1
rlpta_service_queue_depth{priority=\"normal\"} 2
rlpta_service_queue_depth{priority=\"high\"} 0
rlpta_service_queue_depth{priority=\"critical\"} 0
# HELP rlpta_service_queue_oldest_seconds Age of the oldest queued job (0 when the queue is empty).
# TYPE rlpta_service_queue_oldest_seconds gauge
rlpta_service_queue_oldest_seconds 0.25
# HELP rlpta_service_jobs_submitted_total Admitted jobs, by priority.
# TYPE rlpta_service_jobs_submitted_total counter
rlpta_service_jobs_submitted_total{priority=\"low\"} 4
rlpta_service_jobs_submitted_total{priority=\"normal\"} 10
rlpta_service_jobs_submitted_total{priority=\"high\"} 2
rlpta_service_jobs_submitted_total{priority=\"critical\"} 1
# HELP rlpta_service_jobs_rejected_total Submissions refused at admission, by reason.
# TYPE rlpta_service_jobs_rejected_total counter
rlpta_service_jobs_rejected_total{reason=\"queue_full\"} 2
rlpta_service_jobs_rejected_total{reason=\"deadline_unmeetable\"} 1
# HELP rlpta_service_jobs_completed_total Jobs that returned a solution.
# TYPE rlpta_service_jobs_completed_total counter
rlpta_service_jobs_completed_total 12
# HELP rlpta_service_solve_failures_total Jobs that returned an error.
# TYPE rlpta_service_solve_failures_total counter
rlpta_service_solve_failures_total 3
# HELP rlpta_service_deadline_misses_total Jobs that finished after their deadline.
# TYPE rlpta_service_deadline_misses_total counter
rlpta_service_deadline_misses_total 1
# HELP rlpta_service_watchdog_fires_total Jobs flagged past deadline x factor.
# TYPE rlpta_service_watchdog_fires_total counter
rlpta_service_watchdog_fires_total 2
# HELP rlpta_service_health_grades_total Certification grades over completed jobs.
# TYPE rlpta_service_health_grades_total counter
rlpta_service_health_grades_total{grade=\"certified\"} 11
rlpta_service_health_grades_total{grade=\"suspect\"} 1
rlpta_service_health_grades_total{grade=\"rejected\"} 0
# HELP rlpta_service_cache_lookups_total Plan-cache lookups, by result.
# TYPE rlpta_service_cache_lookups_total counter
rlpta_service_cache_lookups_total{result=\"hit\"} 9
rlpta_service_cache_lookups_total{result=\"miss\"} 3
rlpta_service_cache_lookups_total{result=\"invalidated\"} 0
# HELP rlpta_service_cache_warm_misses_total Cache misses seeded from the warm-start tier.
# TYPE rlpta_service_cache_warm_misses_total counter
rlpta_service_cache_warm_misses_total 2
# HELP rlpta_service_cache_evictions_total Cache entries dropped under the byte budget.
# TYPE rlpta_service_cache_evictions_total counter
rlpta_service_cache_evictions_total 1
# HELP rlpta_service_stamp_plan_lookups_total Stamp-plan reuse, by result.
# TYPE rlpta_service_stamp_plan_lookups_total counter
rlpta_service_stamp_plan_lookups_total{result=\"hit\"} 8
rlpta_service_stamp_plan_lookups_total{result=\"miss\"} 4
# HELP rlpta_service_cache_hit_rate Hit fraction of all cache lookups (0 before the first).
# TYPE rlpta_service_cache_hit_rate gauge
rlpta_service_cache_hit_rate 0.75
# HELP rlpta_service_cached_structures Structures currently held by the plan cache.
# TYPE rlpta_service_cached_structures gauge
rlpta_service_cached_structures 2
# HELP rlpta_service_incidents_total Incident reports frozen by the flight recorder.
# TYPE rlpta_service_incidents_total counter
rlpta_service_incidents_total 3
# HELP rlpta_service_incidents_dropped_total Incident triggers suppressed by the per-run cap.
# TYPE rlpta_service_incidents_dropped_total counter
rlpta_service_incidents_dropped_total 1
# HELP rlpta_service_phase_seconds Per-phase wall-time distribution from the metrics registry.
# TYPE rlpta_service_phase_seconds summary
rlpta_service_phase_seconds{phase=\"lu_factorize\",quantile=\"0.5\"} 0.00002
rlpta_service_phase_seconds{phase=\"lu_factorize\",quantile=\"0.99\"} 0.000048
rlpta_service_phase_seconds_sum{phase=\"lu_factorize\"} 0.002
rlpta_service_phase_seconds_count{phase=\"lu_factorize\"} 100
";
        assert_eq!(sample_snapshot().render_prometheus(), golden);
    }

    #[test]
    fn exposition_never_contains_nan() {
        // A fresh snapshot has zero lookups; hit_rate must render as 0,
        // not NaN (the CacheStats guard, pinned at the exposition layer).
        let text = ServiceSnapshot::default().render_prometheus();
        assert!(text.contains("rlpta_service_cache_hit_rate 0\n"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn label_escaping_covers_prometheus_specials() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("say \"hi\""), "say \\\"hi\\\"");
        assert_eq!(escape_label("two\nlines"), "two\\nlines");
    }

    /// Byte pin: the heartbeat line of a fully-populated snapshot.
    #[test]
    fn heartbeat_line_matches_golden() {
        let golden = r#"{"uptime_nanos":1500000000,"queue_depth":3,"queue_low":1,"queue_normal":2,"queue_high":0,"queue_critical":0,"oldest_queued_nanos":250000000,"submitted_low":4,"submitted_normal":10,"submitted_high":2,"submitted_critical":1,"rejected_queue_full":2,"rejected_deadline":1,"completed":12,"solve_failures":3,"deadline_misses":1,"watchdog_fires":2,"certified":11,"suspect":1,"rejected":0,"cache_hits":9,"cache_misses":3,"hit_rate":0.75,"cached_structures":2,"incidents":3,"dropped_incidents":1,"p50_lu_factorize":20000,"p99_lu_factorize":48000}"#;
        let line = HeartbeatLine::from_snapshot(&sample_snapshot()).to_json();
        assert_eq!(line, golden);
    }

    #[test]
    fn heartbeat_line_round_trips() {
        let line = HeartbeatLine::from_snapshot(&sample_snapshot());
        let parsed = HeartbeatLine::parse(&line.to_json()).expect("parse");
        assert_eq!(parsed, line);
        // And the empty default parses too (no phases, rate 0 not NaN).
        let empty = HeartbeatLine::from_snapshot(&ServiceSnapshot::default());
        assert_eq!(empty.hit_rate, 0.0);
        let parsed = HeartbeatLine::parse(&empty.to_json()).expect("parse");
        assert_eq!(parsed, empty);
    }
}
