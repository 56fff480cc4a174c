//! Streaming aggregation of the telemetry stream: per-phase log-bucketed
//! histograms, derived rates, and the `--profile` self-time tree.
//!
//! [`MetricsRegistry`] is a [`Sink`] that folds events as they arrive
//! into fixed arrays: one [`Histogram`] per [`Phase`] (fed by
//! [`Payload::PhaseTiming`]) and one occurrence count per event kind, so
//! `emit` is two array increments and never allocates. A histogram is one
//! array of log-spaced buckets (8 sub-buckets per octave, exact below 16),
//! so a recorded duration is off by at most 12.5 % while `count`/`sum`/
//! `min`/`max` stay exact. Two histograms (or registries) merge by plain
//! bucket addition — exact, commutative and associative — so worker
//! shards can aggregate locally and merge in deterministic job order.

use super::timing::Phase;
use super::{kind_index_of, Event, Payload, Sink, KIND_NAMES};
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};

/// Values below this record exactly (bucket = value).
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per octave above [`LINEAR_MAX`].
const SUB_BITS: u32 = 3;
/// Number of buckets: every `u64` lands in `0..BUCKETS`.
const BUCKETS: usize = bucket_index(u64::MAX) + 1;

const fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let sub = ((v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
        LINEAR_MAX as usize + (exp as usize - 4) * (1 << SUB_BITS) + sub
    }
}

fn bucket_floor(i: usize) -> u64 {
    if (i as u64) < LINEAR_MAX {
        i as u64
    } else {
        let rel = i - LINEAR_MAX as usize;
        let exp = 4 + (rel >> SUB_BITS) as u32;
        let sub = rel as u64 & ((1 << SUB_BITS) - 1);
        (1u64 << exp) + (sub << (exp - SUB_BITS))
    }
}

/// A streaming log-bucketed histogram of `u64` samples (nanoseconds, in
/// this crate's usage).
///
/// `count`, `sum`, `min` and `max` are exact; percentiles are read off the
/// bucket boundaries (≤ 12.5 % relative error, exact below 16). Merging is
/// bucket-wise addition: exact, commutative, associative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Absorbs another histogram by bucket-wise addition. Exact for
    /// `count`/`sum`/`min`/`max` and every bucket population; commutative
    /// and associative, so shard merge order does not matter.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        let min = if self.count == 0 { other.min } else { self.min };
        self.min = min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += n;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0 ..= 1.0`): the inclusive upper edge of the
    /// bucket holding the rank-`⌈q·count⌉` sample, clamped to the observed
    /// `[min, max]`. Monotone in `q` by construction; `percentile(1.0)`
    /// equals `max` exactly. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let hi = if i + 1 == BUCKETS {
                    self.max
                } else {
                    bucket_floor(i + 1) - 1
                };
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Snapshot of the headline statistics.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum_nanos: self.sum(),
            min_nanos: self.min(),
            max_nanos: self.max(),
            p50_nanos: self.percentile(0.50),
            p90_nanos: self.percentile(0.90),
            p99_nanos: self.percentile(0.99),
        }
    }
}

/// Headline statistics of one phase histogram, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum_nanos: u64,
    /// Smallest sample.
    pub min_nanos: u64,
    /// Largest sample.
    pub max_nanos: u64,
    /// Median.
    pub p50_nanos: u64,
    /// 90th percentile.
    pub p90_nanos: u64,
    /// 99th percentile.
    pub p99_nanos: u64,
}

/// Rates derived from the aggregated stream — the quantities the paper's
/// evaluation actually argues about.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DerivedRates {
    /// Newton iterations per second of in-Newton wall time.
    pub nr_iters_per_sec: f64,
    /// Fraction of LU solves served by a numeric-only symbolic replay.
    pub refactorize_hit_rate: f64,
    /// Attempted PTA time points per second of in-PTA wall time.
    pub steps_per_sec: f64,
}

/// One histogram per phase (fired when its `count > 0`) and one count per
/// event kind, indexed by [`Phase::index`] and [`Payload::kind_index`].
#[derive(Debug, Clone, Default)]
struct RegistryInner {
    phases: [Histogram; Phase::ALL.len()],
    kinds: [u64; KIND_NAMES.len()],
}

impl RegistryInner {
    /// One phase's histogram, `None` if the phase never fired.
    fn fired(&self, phase: Phase) -> Option<&Histogram> {
        Some(&self.phases[phase.index()]).filter(|h| h.count > 0)
    }
}

/// A [`Sink`] folding the event stream into per-phase histograms and
/// per-kind counts as it arrives. Safe to share across pool workers; for
/// shard-local aggregation, give each shard its own registry and
/// [`MetricsRegistry::merge_from`] them in job order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().expect("metrics lock")
    }

    /// Snapshot of one phase's histogram statistics (`None` if the phase
    /// never fired).
    pub fn summary(&self, phase: Phase) -> Option<HistogramSummary> {
        self.lock().fired(phase).map(Histogram::summary)
    }

    /// Snapshots of every phase that fired, in canonical phase order.
    pub fn summaries(&self) -> Vec<(Phase, HistogramSummary)> {
        let g = self.lock();
        Phase::ALL
            .into_iter()
            .filter_map(|p| Some((p, g.fired(p)?.summary())))
            .collect()
    }

    /// A clone of one phase's raw histogram (`None` if the phase never
    /// fired).
    pub fn histogram(&self, phase: Phase) -> Option<Histogram> {
        self.lock().fired(phase).cloned()
    }

    /// Occurrence count for one event kind (0 if never seen).
    pub fn kind_count(&self, kind: &str) -> u64 {
        let g = self.lock();
        kind_index_of(kind).map_or(0, |i| g.kinds[i])
    }

    /// Absorbs another registry (a worker shard) into this one. Histogram
    /// merge is exact and order-independent; call in deterministic job
    /// order anyway so ties in downstream reporting stay reproducible.
    /// No two locks are held at once (the shard is copied first), so a
    /// registry may merge itself, doubling every count.
    pub fn merge_from(&self, shard: &MetricsRegistry) {
        let other = shard.lock().clone();
        let mut mine = self.lock();
        for (h, o) in mine.phases.iter_mut().zip(&other.phases) {
            h.merge(o);
        }
        for (count, n) in mine.kinds.iter_mut().zip(other.kinds) {
            *count += n;
        }
    }

    /// Derived rates over everything aggregated so far. Rates whose
    /// denominator is empty come back as 0.
    pub fn rates(&self) -> DerivedRates {
        let g = self.lock();
        let per_sec = |count: u64, phase: Phase| -> f64 {
            let nanos = g.phases[phase.index()].sum();
            if nanos == 0 {
                0.0
            } else {
                count as f64 / (nanos as f64 * 1e-9)
            }
        };
        let kind = |k: &str| kind_index_of(k).map_or(0, |i| g.kinds[i]);
        let full = kind("LuFactorized");
        let replay = kind("LuReplayed");
        DerivedRates {
            nr_iters_per_sec: per_sec(kind("NrIteration"), Phase::NewtonSolve),
            refactorize_hit_rate: if full + replay == 0 {
                0.0
            } else {
                replay as f64 / (full + replay) as f64
            },
            steps_per_sec: per_sec(kind("PtaStep"), Phase::PtaStep),
        }
    }

    /// Renders the ASCII self-time tree for `--profile`: phases laid out by
    /// the static [`Phase::parent`] hierarchy, with per-node self time =
    /// total − Σ(children), clamped at 0. A sampled phase whose parent has
    /// no samples prints at the root (a warm service job runs Newton outside
    /// any PTA step). Self time is an attribution aid — a child phase can
    /// also run outside its nominal parent (see [`Phase::parent`]) — but
    /// totals and percentiles are exact per phase.
    pub fn profile_tree(&self) -> String {
        let summaries = {
            let g = self.lock();
            Phase::ALL.map(|p| g.fired(p).map(Histogram::summary))
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>11} {:>11} {:>10} {:>10}",
            "phase", "count", "total", "self", "p50", "p99"
        );
        fn visit(
            out: &mut String,
            summaries: &[Option<HistogramSummary>; Phase::ALL.len()],
            phase: Phase,
            depth: usize,
        ) {
            let Some(s) = summaries[phase.index()] else {
                return;
            };
            let children_sum: u64 = Phase::ALL
                .into_iter()
                .filter(|c| c.parent() == Some(phase))
                .filter_map(|c| summaries[c.index()])
                .map(|c| c.sum_nanos)
                .sum();
            let self_nanos = s.sum_nanos.saturating_sub(children_sum);
            let label = format!("{}{}", "  ".repeat(depth), phase.name());
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>11} {:>11} {:>10} {:>10}",
                label,
                s.count,
                fmt_nanos(s.sum_nanos),
                fmt_nanos(self_nanos),
                fmt_nanos(s.p50_nanos),
                fmt_nanos(s.p99_nanos),
            );
            for c in Phase::ALL {
                if c.parent() == Some(phase) {
                    visit(out, summaries, c, depth + 1);
                }
            }
        }
        for p in Phase::ALL {
            if p.parent().is_none_or(|q| summaries[q.index()].is_none()) {
                visit(&mut out, &summaries, p, 0);
            }
        }
        out
    }
}

/// Human-readable duration for the profile tree.
fn fmt_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}us", n / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", n / 1e6)
    } else {
        format!("{:.2}s", n / 1e9)
    }
}

impl Sink for MetricsRegistry {
    fn emit(&self, event: &Event) {
        let mut g = self.lock();
        g.kinds[event.payload.kind_index()] += 1;
        if let Payload::PhaseTiming { phase, nanos } = event.payload {
            g.phases[phase.index()].record(nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Span;

    #[test]
    fn bucket_boundaries_are_consistent() {
        for v in (0..2000u64).chain([1 << 20, (1 << 20) + 12_345, u64::MAX]) {
            let i = bucket_index(v);
            let floor = bucket_floor(i);
            assert!(floor <= v, "floor({i}) = {floor} > {v}");
            // Next bucket's floor is above v (bucket really contains v).
            if i < bucket_index(u64::MAX) {
                assert!(bucket_floor(i + 1) > v, "v={v} spills into bucket {}", i + 1);
            }
            // Relative error of the floor representative ≤ 12.5 %.
            assert!((v - floor) as f64 <= 0.125 * v as f64 + 1.0);
        }
    }

    #[test]
    fn exact_stats_and_monotone_percentiles() {
        let mut h = Histogram::new();
        for v in [5u64, 5, 17, 100, 1_000, 50_000, 50_000, 2_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 5 + 5 + 17 + 100 + 1_000 + 50_000 + 50_000 + 2_000_000);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 2_000_000);
        let (p50, p90, p99) = (h.percentile(0.5), h.percentile(0.9), h.percentile(0.99));
        assert!(h.min() <= p50 && p50 <= p90 && p90 <= p99 && p99 <= h.max());
        assert_eq!(h.percentile(1.0), 2_000_000);
        assert_eq!(Histogram::new().percentile(0.5), 0);
    }

    #[test]
    fn merge_preserves_count_and_sum_exactly() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for (i, v) in [3u64, 9, 27, 81, 243, 729, 6_561].iter().enumerate() {
            whole.record(*v);
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab, whole, "shard merge must equal the unsharded fold");
    }

    #[test]
    fn registry_folds_timing_and_counts_kinds() {
        let reg = MetricsRegistry::new();
        let emit = |p: Payload| {
            reg.emit(&Event {
                span: Span::default(),
                payload: p,
            })
        };
        emit(Payload::PhaseTiming {
            phase: Phase::NewtonSolve,
            nanos: 2_000_000_000,
        });
        emit(Payload::NrIteration { iteration: 1 });
        emit(Payload::NrIteration { iteration: 2 });
        emit(Payload::LuFactorized { dim: 8 });
        emit(Payload::LuReplayed { dim: 8 });
        emit(Payload::LuReplayed { dim: 8 });
        let s = reg.summary(Phase::NewtonSolve).expect("recorded");
        assert_eq!(s.count, 1);
        assert_eq!(s.sum_nanos, 2_000_000_000);
        assert_eq!(reg.summary(Phase::GpFit), None);
        assert_eq!(reg.kind_count("NrIteration"), 2);
        let rates = reg.rates();
        assert!((rates.nr_iters_per_sec - 1.0).abs() < 1e-12);
        assert!((rates.refactorize_hit_rate - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(rates.steps_per_sec, 0.0);
    }

    #[test]
    fn shard_merge_matches_single_registry() {
        let shard_a = MetricsRegistry::new();
        let shard_b = MetricsRegistry::new();
        let whole = MetricsRegistry::new();
        for i in 0..20u64 {
            let e = Event {
                span: Span::default(),
                payload: Payload::PhaseTiming {
                    phase: Phase::LuReplay,
                    nanos: 100 * (i + 1),
                },
            };
            whole.emit(&e);
            if i % 2 == 0 { &shard_a } else { &shard_b }.emit(&e);
        }
        let merged = MetricsRegistry::new();
        merged.merge_from(&shard_a);
        merged.merge_from(&shard_b);
        assert_eq!(
            merged.histogram(Phase::LuReplay),
            whole.histogram(Phase::LuReplay)
        );
        assert_eq!(merged.kind_count("PhaseTiming"), 20);
    }

    #[test]
    fn self_merge_doubles_every_count() {
        let reg = MetricsRegistry::new();
        let emit = |payload: Payload| {
            reg.emit(&Event {
                span: Span::default(),
                payload,
            })
        };
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            for k in 0..=i as u32 {
                emit(Payload::PhaseTiming {
                    phase,
                    nanos: 3u64.pow(k) + i as u64,
                });
            }
        }
        emit(Payload::NrIteration { iteration: 1 });
        emit(Payload::LuReplayed { dim: 4 });
        let phases = Phase::ALL.map(|p| reg.histogram(p).expect("every phase fired"));
        let kinds = KIND_NAMES.map(|k| reg.kind_count(k));
        // Locking the registry twice at once would never return.
        reg.merge_from(&reg);
        for (p, h) in Phase::ALL.into_iter().zip(&phases) {
            let doubled = reg.histogram(p).expect("still fired");
            assert_eq!(doubled.count(), 2 * h.count(), "{p:?}");
            assert_eq!(doubled.sum(), 2 * h.sum(), "{p:?}");
            assert_eq!((doubled.min(), doubled.max()), (h.min(), h.max()), "{p:?}");
            assert_eq!(doubled.buckets, h.buckets.map(|n| 2 * n), "{p:?}");
        }
        for (k, n) in KIND_NAMES.into_iter().zip(kinds) {
            assert_eq!(reg.kind_count(k), 2 * n, "{k}");
        }
        assert_eq!(reg.kind_count("PhaseTiming"), 2 * 91);
    }

    #[test]
    fn profile_tree_nests_and_clamps_self_time() {
        let reg = MetricsRegistry::new();
        let emit = |phase: Phase, nanos: u64| {
            reg.emit(&Event {
                span: Span::default(),
                payload: Payload::PhaseTiming { phase, nanos },
            })
        };
        emit(Phase::PtaStep, 10_000_000);
        emit(Phase::NewtonSolve, 8_000_000);
        emit(Phase::StampResolve, 1_000_000);
        emit(Phase::StampWrite, 2_000_000);
        emit(Phase::LuReplay, 4_000_000);
        let tree = reg.profile_tree();
        let pta = tree.lines().position(|l| l.trim_start().starts_with("pta_step"));
        let nr = tree.lines().position(|l| l.trim_start().starts_with("nr_solve"));
        let resolve = tree
            .lines()
            .position(|l| l.trim_start().starts_with("stamp_resolve"));
        let write = tree
            .lines()
            .position(|l| l.trim_start().starts_with("stamp_write"));
        assert!(
            pta < nr && nr < resolve && resolve < write,
            "hierarchy order broken:\n{tree}"
        );
        // nr_solve self = 8ms − (1ms + 2ms + 4ms) = 1ms.
        let nr_line = tree.lines().nth(nr.expect("nr line")).expect("line");
        assert!(nr_line.contains("1.0ms"), "self-time missing: {nr_line}");
        // Phases that never fired are absent.
        assert!(!tree.contains("gp_fit"));
    }

    #[test]
    fn profile_tree_roots_phases_whose_parent_never_fired() {
        // A warm service job: Newton with its children, no PTA step.
        let reg = MetricsRegistry::new();
        for (phase, nanos) in [
            (Phase::NewtonSolve, 8_000_000),
            (Phase::StampWrite, 2_000_000),
            (Phase::LuReplay, 4_000_000),
        ] {
            reg.emit(&Event {
                span: Span::default(),
                payload: Payload::PhaseTiming { phase, nanos },
            });
        }
        let tree = reg.profile_tree();
        let lines: Vec<&str> = tree.lines().skip(1).collect();
        assert_eq!(lines.len(), 3, "every sampled phase prints:\n{tree}");
        assert!(lines[0].starts_with("nr_solve "), "Newton at the root:\n{tree}");
        assert!(lines[0].contains("2.0ms"), "self time 8 − 2 − 4 ms:\n{tree}");
        assert!(lines[1].starts_with("  stamp_write "), "{tree}");
        assert!(lines[2].starts_with("  lu_replay "), "{tree}");
        assert!(!tree.contains("pta_step"));
    }
}
