//! The long-lived simulation service: cross-request reuse above the engine.
//!
//! [`DcEngine`] deliberately owns no state between calls — every solve is a
//! pure function of its inputs, which is what makes batches and sweeps
//! deterministic. Production traffic, however, is dominated by *repeats*:
//! millions of requests share a handful of circuit topologies and differ
//! only in parameter values. [`SimService`] is the layer that exploits
//! that, owning four pieces of cross-request state:
//!
//! 1. **A structure-keyed plan cache.** [`StructureKey`] hashes the
//!    MNA sparsity pattern together with the device topology (kinds,
//!    terminal wiring, branch unknowns) — and deliberately *not* parameter
//!    values, so a 1 kΩ and a 2 kΩ divider share a key. Each entry holds the
//!    [`SymbolicLu`] scatter plan recorded by an earlier solve (an
//!    [`Arc`], shared with the workspaces that replay it) and the resolved
//!    [`StampPlan`] (so warm jobs skip stamp resolution and go straight to
//!    the slot-table write pass, and certify through the same plan). The
//!    key comes from one structural declare pass in the service's own
//!    [`KeyScratch`], so admitting a job assembles nothing and builds no
//!    matrix. Eviction is LRU under a byte budget that only the newest
//!    plan may exceed alone. The service owns the cache and touches it
//!    only between pool runs, through `&mut self`, so it takes no locks.
//!    A cached entry whose stamp plan no longer matches the circuit's
//!    declare pass, or whose symbolic LU no longer matches that plan's
//!    pattern (a hash collision, or a structural change that kept the
//!    key), is **invalidated and re-recorded, never replayed stale** — and
//!    even a bypassed check would be caught by [`LuWorkspace`]'s own
//!    guarded-replay fallback, so staleness can cost time, not
//!    correctness.
//! 2. **A warm-start tier.** Each structure's last certified operating
//!    point, keyed by [`StructureKey`] under its own LRU order and byte
//!    meter, so it outlives the eviction of its (far larger) plan. Hits and
//!    misses alike start Newton from it: a plan miss still resolves its
//!    plan and factorizes fresh, but from the remembered point instead of
//!    from zeros ([`CacheStats::warm_misses`]). The warm iterate is
//!    certified like any other, and falls through to the full recovery
//!    ladder when Newton fails or certification rejects it. An invalidated
//!    plan takes its structure's warm vector with it.
//! 3. **A bounded priority job queue with admission control.** Work enters
//!    as ([`Circuit`], [`JobTicket`]) pairs; a full queue refuses new work
//!    with [`ServiceError::QueueFull`] and a ticket whose deadline cannot
//!    be met refuses with [`ServiceError::DeadlineUnmeetable`] — callers
//!    get backpressure instead of unbounded latency. [`SimService::drain`]
//!    executes the queue on the engine's thread pool, grouping jobs that
//!    share a [`StructureKey`] into the same worker so a cached plan is
//!    fetched once and stays core-local for the whole group (the group also
//!    forms a warm-start chain, like a sweep chunk).
//! 4. **A shared RL-policy handle.** A frozen, checkpointed
//!    [`RlStepping`] policy is loaded once at service construction and
//!    cloned per job that needs it (a cold solve the plain Newton path
//!    cannot crack), instead of being re-loaded per request.
//!
//! Every cache and queue transition is published on the engine's telemetry
//! stream ([`Payload::CacheHit`], [`Payload::CacheMiss`],
//! [`Payload::CacheEvicted`], [`Payload::JobQueued`],
//! [`Payload::JobAdmitted`]), so the existing [`MetricsRegistry`] counts
//! them with no further wiring.
//!
//! # Determinism
//!
//! Draining inherits the engine's contract: job grouping and intra-group
//! order depend only on submission order and ticket priorities, group
//! chains reuse one workspace exactly like sweep chunks, and results come
//! back keyed by [`JobId`] in submission order — the same queue drains to
//! bit-identical solutions at every thread count.
//!
//! # Example
//!
//! ```
//! use rlpta_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = rlpta_netlist::parse(
//!     "divider\nV1 in 0 5\nR1 in out 1k\nR2 out 0 1k",
//! )?;
//! let mut service = SimService::builder(DcEngine::builder().build()).build();
//! let a = service.submit(circuit.clone(), JobTicket::default())?;
//! let b = service.submit(circuit.clone(), JobTicket::default())?;
//! let results = service.drain();
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|(_, r)| r.is_ok()));
//! assert_eq!((results[0].0, results[1].0), (a, b));
//! // Same structure, same drain: one group, one cache lookup (a miss —
//! // the cache was empty), the plan shared inside the group.
//! assert_eq!(service.cache_stats().misses, 1);
//! // A later request replays the now-cached symbolic analysis:
//! service.submit(circuit, JobTicket::default())?;
//! service.drain();
//! assert_eq!(service.cache_stats().hits, 1);
//! # Ok(())
//! # }
//! ```

// The service types are this crate's outward-facing v1 surface: every
// public struct must stay extensible without a major version bump.
#![deny(clippy::exhaustive_structs)]

pub mod observe;

pub use observe::{HeartbeatLine, ServiceMonitor, ServiceSnapshot};

use crate::assembly::NewtonWorkspace;
use crate::engine::DcEngine;
use crate::error::SolveError;
use crate::recovery::SolveBudget;
use crate::rl_stepping::{RlStepping, RlSteppingConfig};
use crate::telemetry::{
    interest, FanoutSink, FlightRecorder, MetricsRegistry, Payload, Sink, Span, Tele,
};
use crate::Solution;
use observe::priority_index;
use rlpta_devices::Device;
use rlpta_linalg::{FnvHasher, LuWorkspace, PatternScratch, StampSlots, SymbolicLu};
use rlpta_mna::{Circuit, DeclareScratch, StampPlan};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies one submitted job; returned by [`SimService::submit`] and
/// carried back by [`SimService::drain`]. Ids are assigned in submission
/// order and never reused within a service instance.
pub type JobId = usize;

// ---------------------------------------------------------------------------
// StructureKey
// ---------------------------------------------------------------------------

/// A stable digest of a circuit's *structure*: the MNA sparsity pattern
/// plus the device topology (kinds, terminal wiring, branch-unknown
/// layout). Parameter values are deliberately excluded — circuits that
/// differ only in component values share a key, which is exactly the
/// population whose symbolic LU analysis is interchangeable.
///
/// The pattern comes from one structural declare pass
/// ([`DeclareScratch::declare`]): the declared Jacobian targets, ordered
/// by the same routine every triplet conversion uses and hashed as they
/// come, with no matrix built. No device equation is evaluated into a
/// matrix, nothing is sorted globally and no fault-injection draw is
/// taken; the hash is bit for bit the one a triplet assembly at `x = 0`
/// would give.
///
/// The key carries the MNA dimension and pattern entry count alongside the
/// hash, so two keys are equal only when hash *and* both counts agree;
/// beyond that, every cache hit re-verifies the cached stamp plan against
/// the circuit and the cached symbolic LU against that plan's pattern
/// before replaying — a collision is detected, counted as an
/// invalidation, and re-analyzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StructureKey {
    dim: usize,
    nnz: usize,
    hash: u64,
}

impl StructureKey {
    /// Computes the key for `circuit` from one declare pass: device stamps
    /// touch the same matrix positions at every operating point, so the
    /// declared pattern is the circuit's pattern. Allocating wrapper over
    /// [`StructureKey::of_in`].
    pub fn of(circuit: &Circuit) -> Self {
        Self::of_in(circuit, &mut KeyScratch::default())
    }

    /// [`StructureKey::of`] in `scratch`'s buffers, with the same value:
    /// the pattern hash is read straight off the ordered declared targets
    /// ([`StampSlots::pattern_hash_with`]), so no matrix is built, and
    /// once the buffers have grown to the circuit a key allocates nothing.
    pub fn of_in(circuit: &Circuit, scratch: &mut KeyScratch) -> Self {
        let dim = circuit.dim();
        let targets = scratch.declare.declare(circuit);
        let (pattern_hash, nnz) =
            StampSlots::pattern_hash_with(dim, dim, targets, &mut scratch.pattern);
        let mut h = FnvHasher::new();
        h.write_u64(pattern_hash);
        h.write_usize(circuit.num_nodes());
        h.write_usize(circuit.num_branches());
        h.write_usize(circuit.state_len());
        for device in circuit.devices() {
            h.write_u64(device_tag(device));
            h.write_usize(device.branch_count());
            for node in device.nodes() {
                h.write_u64(node.index().map_or(u64::MAX, |i| i as u64));
            }
        }
        Self {
            dim,
            nnz,
            hash: h.finish(),
        }
    }

    /// MNA dimension of the keyed structure.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entry count of the keyed sparsity pattern.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The combined pattern + topology hash (the value carried by the
    /// cache telemetry events).
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// Reusable buffers of [`StructureKey::of_in`]: the declare pass's and
/// the pattern ordering's. Start from `default()`; the buffers size
/// themselves on first use and are kept by later keys, of any structure.
/// A [`SimService`] keys every job in one of these.
#[derive(Debug, Clone, Default)]
pub struct KeyScratch {
    declare: DeclareScratch,
    pattern: PatternScratch,
}

impl fmt::Display for StructureKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}/d{}n{}", self.hash, self.dim, self.nnz)
    }
}

/// Stable per-variant tag; the wildcard arm covers future device kinds
/// added behind `#[non_exhaustive]` (they still key distinctly from every
/// current kind, just not from each other until given a tag).
fn device_tag(device: &Device) -> u64 {
    match device {
        Device::Resistor(_) => 1,
        Device::Capacitor(_) => 2,
        Device::Inductor(_) => 3,
        Device::Vsource(_) => 4,
        Device::Isource(_) => 5,
        Device::Vcvs(_) => 6,
        Device::Vccs(_) => 7,
        Device::Cccs(_) => 8,
        Device::Ccvs(_) => 9,
        Device::Diode(_) => 10,
        Device::Bjt(_) => 11,
        Device::Mosfet(_) => 12,
        Device::Jfet(_) => 13,
        _ => u64::MAX,
    }
}

// ---------------------------------------------------------------------------
// Tickets and errors
// ---------------------------------------------------------------------------

/// Scheduling class of a [`JobTicket`]. Higher priorities drain first (and
/// lead their topology group's warm-start chain); within a priority, jobs
/// run in submission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[non_exhaustive]
pub enum Priority {
    /// Background work: bulk re-characterization, speculative solves.
    Low,
    /// Interactive traffic (the default).
    #[default]
    Normal,
    /// Latency-sensitive traffic.
    High,
    /// Drop-everything traffic (e.g. a solve blocking a tape-out check).
    Critical,
}

impl Priority {
    /// Short lowercase name, used in telemetry events.
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
            Priority::Critical => "critical",
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Per-job scheduling contract handed to [`SimService::submit`]: a
/// priority class, an optional deadline (measured from submission) and an
/// optional per-job [`SolveBudget`] overriding the engine's.
///
/// Construct with [`JobTicket::default`] and the `with_*` methods:
///
/// ```
/// use rlpta_core::service::{JobTicket, Priority};
/// use std::time::Duration;
///
/// let ticket = JobTicket::default()
///     .with_priority(Priority::High)
///     .with_deadline(Duration::from_secs(5));
/// assert_eq!(ticket.priority, Priority::High);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub struct JobTicket {
    /// Scheduling class; see [`Priority`].
    pub priority: Priority,
    /// Latest acceptable completion, measured from submission. `None`
    /// means the job waits as long as it takes.
    pub deadline: Option<Duration>,
    /// Per-job resource budget; `None` inherits the engine's budget.
    pub budget: Option<SolveBudget>,
}

impl JobTicket {
    /// Returns the ticket with a different [`Priority`].
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Returns the ticket with a completion deadline (from submission).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the ticket with a per-job [`SolveBudget`] override.
    #[must_use]
    pub fn with_budget(mut self, budget: SolveBudget) -> Self {
        self.budget = Some(budget);
        self
    }
}

/// Errors surfaced by [`SimService`] — the service-side siblings of
/// [`SolveError`], shaped the same way (non-exhaustive, actionable
/// [`Display`](fmt::Display) context, [`Error::source`] chaining) so
/// callers handle one error family end to end.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// The bounded job queue is full; the caller should retry after a
    /// drain, shed load, or build the service with a larger
    /// [`queue_capacity`](SimServiceBuilder::queue_capacity).
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The ticket's deadline cannot be met — it is zero, shorter than the
    /// job's own wall-clock solve budget, or it expired while the job
    /// waited in the queue. Resubmit with a looser deadline, a higher
    /// [`Priority`], or a tighter budget.
    DeadlineUnmeetable {
        /// The deadline the ticket asked for.
        deadline: Duration,
        /// Why it cannot be met.
        detail: String,
    },
    /// The solve itself failed; see the wrapped [`SolveError`].
    Solve(SolveError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { capacity } => write!(
                f,
                "job queue full ({capacity} jobs queued); drain the service or \
                 raise queue_capacity"
            ),
            ServiceError::DeadlineUnmeetable { deadline, detail } => write!(
                f,
                "deadline of {deadline:?} cannot be met: {detail}"
            ),
            ServiceError::Solve(e) => write!(f, "solve failed: {e}"),
        }
    }
}

impl Error for ServiceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServiceError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for ServiceError {
    fn from(e: SolveError) -> Self {
        ServiceError::Solve(e)
    }
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// Cache effectiveness counters, cumulative since service construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups that found a compatible plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by LRU eviction under the byte budget.
    pub evictions: u64,
    /// Entries dropped because the cached stamp plan no longer matched the
    /// circuit's declare pass, or the cached symbolic LU the plan's
    /// pattern (hash collision or structural drift): counted as a miss
    /// *and* an invalidation.
    pub invalidations: u64,
    /// Lookups that handed the group a cached stamp plan — the group skips
    /// stamp resolution entirely. Every hit carries its verified plan, so
    /// this equals `hits`.
    pub plan_hits: u64,
    /// Lookups that had to resolve a stamp plan: a cold structure or an
    /// invalidated entry. Equals `misses`.
    pub plan_misses: u64,
    /// Misses whose structure still had a warm start in the warm-start
    /// tier: the plan was evicted, but Newton starts from the structure's
    /// last certified operating point instead of from zeros. A subset of
    /// `misses`.
    pub warm_misses: u64,
}

impl CacheStats {
    /// Hit fraction of all lookups; `0.0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One least-recently-used store keyed by structure: each entry carries
/// its byte size and last-use tick. Ticks come from the owning
/// [`PlanCache`]'s one counter and are unique, so the LRU victim is unique
/// and eviction order never depends on `HashMap` iteration order.
struct Lru<V> {
    entries: HashMap<StructureKey, LruEntry<V>>,
    bytes: usize,
}

struct LruEntry<V> {
    value: V,
    bytes: usize,
    last_used: u64,
}

impl<V> Default for Lru<V> {
    fn default() -> Self {
        Self {
            entries: HashMap::new(),
            bytes: 0,
        }
    }
}

impl<V> Lru<V> {
    /// The value under `key`, marked as used at `tick`.
    fn touch(&mut self, key: &StructureKey, tick: u64) -> Option<&V> {
        let entry = self.entries.get_mut(key)?;
        entry.last_used = tick;
        Some(&entry.value)
    }

    /// Inserts or replaces `key`'s entry. Evicts nothing.
    fn insert(&mut self, key: StructureKey, value: V, bytes: usize, tick: u64) {
        self.remove(&key);
        self.bytes += bytes;
        self.entries.insert(
            key,
            LruEntry {
                value,
                bytes,
                last_used: tick,
            },
        );
    }

    fn remove(&mut self, key: &StructureKey) {
        if let Some(dead) = self.entries.remove(key) {
            self.bytes -= dead.bytes;
        }
    }

    /// Evicts the least-recently-used entry other than `keep`, returning
    /// its key and size; `None` when `keep` is all that is left.
    fn evict_lru_except(&mut self, keep: &StructureKey) -> Option<(StructureKey, usize)> {
        let victim = self
            .entries
            .iter()
            .filter(|(k, _)| *k != keep)
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, e)| (*k, e.bytes))?;
        self.remove(&victim.0);
        Some(victim)
    }
}

/// The structure-keyed cache: a plan tier (symbolic LU plus stamp plan per
/// structure) and a warm-start tier (each structure's last certified
/// operating point), two [`Lru`] stores under one byte budget each. The
/// warm tier is metered apart so a structure's warm start (tens of bytes)
/// survives the eviction of its plan (kilobytes). The service owns the
/// cache and touches it only between pool runs, so it needs no locks, and
/// its behavior is a pure function of the request sequence.
struct PlanCache {
    plans: Lru<(Arc<SymbolicLu>, Arc<StampPlan>)>,
    warm: Lru<Vec<f64>>,
    /// Byte budget of each tier.
    budget: usize,
    tick: u64,
    stats: CacheStats,
}

/// What a lookup hands the group: the cached symbolic LU and stamp plan on
/// a hit (both verified against the circuit), the warm start whenever the
/// warm tier still holds one.
struct CacheSeed {
    cached: Option<(Arc<SymbolicLu>, Arc<StampPlan>)>,
    warm: Option<Vec<f64>>,
}

impl PlanCache {
    fn new(budget: usize) -> Self {
        Self {
            plans: Lru::default(),
            warm: Lru::default(),
            budget,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks `key` up, verifying the cached entry against `circuit`: its
    /// stamp plan must still match the circuit's declare pass, and its
    /// symbolic LU the plan's pattern. An entry failing either check is
    /// removed (invalidation), together with the structure's warm start,
    /// and reported as a miss — the service re-resolves and re-records
    /// rather than scattering through a stale plan, replaying a stale
    /// analysis or seeding a foreign point. The warm start comes from the
    /// warm tier, on hits and misses alike. The plan check's declare pass
    /// runs in `declare`, the service's keying buffers.
    fn lookup(
        &mut self,
        key: &StructureKey,
        circuit: &Circuit,
        declare: &mut DeclareScratch,
        tele: &Tele<'_>,
    ) -> CacheSeed {
        let tick = self.next_tick();
        let invalidated = self.plans.entries.get(key).is_some_and(|entry| {
            let (symbolic, plan) = &entry.value;
            !(plan.verify_with(circuit, declare) && symbolic.compatible_with(plan.pattern()))
        });
        if invalidated {
            self.plans.remove(key);
            self.warm.remove(key);
        }
        let cached = self
            .plans
            .touch(key, tick)
            .map(|(symbolic, plan)| (Arc::clone(symbolic), Arc::clone(plan)));
        let warm = self.warm.touch(key, tick).cloned();

        let stats = &mut self.stats;
        if cached.is_some() {
            stats.hits += 1;
            stats.plan_hits += 1;
        } else {
            stats.misses += 1;
            stats.plan_misses += 1;
            stats.invalidations += u64::from(invalidated);
            stats.warm_misses += u64::from(warm.is_some());
        }
        let (hash, dim) = (key.hash, key.dim);
        tele.emit(if cached.is_some() {
            Payload::CacheHit { key: hash, dim }
        } else {
            Payload::CacheMiss { key: hash, dim }
        });
        CacheSeed { cached, warm }
    }

    /// Inserts or refreshes the plan entry for `key`, then evicts
    /// least-recently-used plans (never the one just inserted) until the
    /// tier is back under its budget. The newest plan always stays, even
    /// one larger than the whole budget.
    fn insert(
        &mut self,
        key: StructureKey,
        symbolic: Arc<SymbolicLu>,
        plan: Arc<StampPlan>,
        tele: &Tele<'_>,
    ) {
        let tick = self.next_tick();
        let bytes = symbolic.approx_bytes() + plan.approx_bytes();
        self.plans.insert(key, (symbolic, plan), bytes, tick);
        while self.plans.bytes > self.budget {
            let Some((victim, bytes)) = self.plans.evict_lru_except(&key) else {
                break;
            };
            self.stats.evictions += 1;
            tele.emit(Payload::CacheEvicted {
                key: victim.hash,
                bytes,
            });
        }
    }

    /// Stores `x` as `key`'s warm start, evicting least-recently-used warm
    /// starts until it fits the tier's budget. Unlike the plan tier, this
    /// tier never exceeds its budget: a vector larger than the whole
    /// budget is not kept.
    fn insert_warm(&mut self, key: StructureKey, x: Vec<f64>) {
        let tick = self.next_tick();
        let bytes = std::mem::size_of_val(x.as_slice());
        self.warm.remove(&key);
        if bytes > self.budget {
            return;
        }
        self.warm.insert(key, x, bytes, tick);
        while self.warm.bytes > self.budget && self.warm.evict_lru_except(&key).is_some() {}
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Configures a [`SimService`]; see the [module docs](self) for the
/// architecture. Obtain via [`SimService::builder`].
#[derive(Clone)]
pub struct SimServiceBuilder {
    engine: DcEngine,
    queue_capacity: usize,
    cache_bytes: usize,
    warm_starts: bool,
    policy: Option<Arc<RlStepping>>,
    recorder_depth: Option<usize>,
    recorder: Option<Arc<FlightRecorder>>,
    incident_dir: Option<PathBuf>,
    incident_cap: Option<usize>,
    heartbeat: Option<Duration>,
    heartbeat_path: Option<PathBuf>,
    watchdog_factor: Option<f64>,
    registry: Option<Arc<MetricsRegistry>>,
}

impl SimServiceBuilder {
    /// Maximum queued jobs before [`SimService::submit`] refuses with
    /// [`ServiceError::QueueFull`]. Default 1024; clamped to at least 1.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Byte budget of the cache. Default 8 MiB. It bounds two tiers
    /// separately:
    ///
    /// * the plan tier (symbolic LU pattern plus stamp plan per
    ///   structure) stays within it, except that it always keeps its
    ///   newest plan, even one larger than the whole budget;
    /// * the warm-start tier (one last certified operating point per
    ///   structure, 8 bytes per unknown) gets the whole figure to itself
    ///   and never exceeds it.
    ///
    /// Warm vectors are small next to plans (all 62 structures of a mixed
    /// 91-circuit corpus take ~7 KiB), so a budget that churns plans can
    /// still keep every warm start resident.
    #[must_use]
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Ignored v1 shim: the cache is one LRU store per tier, owned by the
    /// service, so there are no shards to count.
    #[deprecated(
        since = "0.1.0",
        note = "the plan cache is no longer sharded; this setting is ignored"
    )]
    #[must_use]
    pub fn cache_shards(self, _shards: usize) -> Self {
        self
    }

    /// Whether each structure's last certified operating point is kept in
    /// the warm-start tier and seeds subsequent solves of the same
    /// structure, on plan hits and plan misses alike (default `true`).
    /// Disable to make every service solve start from zeros — cached-plan
    /// replay alone is bit-identical to a cold solve, which is what the
    /// bit-identity proptests pin down.
    #[must_use]
    pub fn warm_starts(mut self, enabled: bool) -> Self {
        self.warm_starts = enabled;
        self
    }

    /// Shares a pre-trained stepping policy across all jobs. The policy is
    /// frozen at build time (training disabled, greedy deterministic
    /// actions) and cloned per job that needs it — a cold solve that the
    /// warm Newton path and its recovery ladder cannot crack gets one
    /// RL-steered PTA attempt before the failure is surfaced.
    #[must_use]
    pub fn policy(mut self, policy: Arc<RlStepping>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Loads a checkpointed policy (see [`RlStepping::save_policy`]) and
    /// installs it via [`SimServiceBuilder::policy`].
    ///
    /// # Errors
    ///
    /// I/O or format errors from [`RlStepping::load_policy`].
    pub fn policy_from_reader(
        self,
        config: RlSteppingConfig,
        r: &mut dyn std::io::BufRead,
    ) -> std::io::Result<Self> {
        let mut policy = RlStepping::load_policy(config, r)?;
        policy.freeze();
        Ok(self.policy(Arc::new(policy)))
    }

    /// Attaches a [`FlightRecorder`] keeping the last `depth` events per
    /// in-flight job, teed into the engine's telemetry stream. Incidents
    /// stay in memory unless [`incident_dir`](Self::incident_dir) is also
    /// set. See the [recorder docs](crate::telemetry::recorder).
    #[must_use]
    pub fn recorder(mut self, depth: usize) -> Self {
        self.recorder_depth = Some(depth);
        self
    }

    /// Attaches a pre-configured recorder (e.g. one built with
    /// [`FlightRecorder::trigger_on_rejected`] or a custom slot count, or
    /// one shared with other engines). Overrides
    /// [`recorder`](Self::recorder) / [`incident_dir`](Self::incident_dir)
    /// / [`incident_cap`](Self::incident_cap), which configure the
    /// service-built recorder only.
    #[must_use]
    pub fn recorder_with(mut self, recorder: Arc<FlightRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Directory the service-built recorder serializes incident reports
    /// into (implies [`recorder`](Self::recorder) at a default depth of 64
    /// if no depth was set).
    #[must_use]
    pub fn incident_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.incident_dir = Some(dir.into());
        self
    }

    /// Per-run incident cap for the service-built recorder (default 256).
    #[must_use]
    pub fn incident_cap(mut self, cap: usize) -> Self {
        self.incident_cap = Some(cap);
        self
    }

    /// Appends one [`HeartbeatLine`] to the path set via
    /// [`heartbeat_path`](Self::heartbeat_path) whenever `interval` has
    /// elapsed at a [`tick`](SimService::tick) (ticks run after every
    /// submit/drain/solve).
    #[must_use]
    pub fn heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = Some(interval);
        self
    }

    /// JSONL file the heartbeat stream appends to (implies
    /// [`heartbeat`](Self::heartbeat) at a default 1 s interval if no
    /// interval was set). `rlpta monitor` tails this file.
    #[must_use]
    pub fn heartbeat_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.heartbeat_path = Some(path.into());
        self
    }

    /// Enables the deadline watchdog: any job older than
    /// `deadline × factor` is flagged once with [`Payload::Watchdog`]
    /// (a flight-recorder trigger). `factor` is clamped to at least 1.
    /// Off by default — the watchdog reads the wall clock, so the
    /// determinism contract only covers services without it.
    #[must_use]
    pub fn watchdog(mut self, factor: f64) -> Self {
        self.watchdog_factor = Some(if factor < 1.0 { 1.0 } else { factor });
        self
    }

    /// Tees `registry` into the engine's telemetry stream and snapshots
    /// its per-phase histograms into [`ServiceSnapshot::phases`] and every
    /// incident report.
    #[must_use]
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Finalizes the service. Any installed policy is frozen here, so a
    /// still-training controller cannot leak nondeterminism into the
    /// service path. A configured recorder or metrics registry is teed
    /// into the engine's telemetry sink here, so every event the engine
    /// emits while serving also reaches them.
    pub fn build(self) -> SimService {
        let policy = self.policy.map(|p| {
            if p.is_frozen() {
                p
            } else {
                let mut frozen = (*p).clone();
                frozen.freeze();
                Arc::new(frozen)
            }
        });
        let recorder = match self.recorder {
            Some(rec) => Some(rec),
            None if self.recorder_depth.is_some() || self.incident_dir.is_some() => {
                let mut rec = FlightRecorder::new(self.recorder_depth.unwrap_or(64));
                if let Some(dir) = &self.incident_dir {
                    rec = rec.with_dir(dir);
                }
                if let Some(cap) = self.incident_cap {
                    rec = rec.with_incident_cap(cap);
                }
                if let Some(reg) = &self.registry {
                    rec = rec.with_registry(Arc::clone(reg));
                }
                Some(Arc::new(rec))
            }
            None => None,
        };
        let engine = if recorder.is_some() || self.registry.is_some() {
            let mut fan = FanoutSink::new().with(self.engine.telemetry());
            if let Some(reg) = &self.registry {
                fan = fan.with(Arc::clone(reg) as Arc<dyn Sink>);
            }
            if let Some(rec) = &recorder {
                fan = fan.with(Arc::clone(rec) as Arc<dyn Sink>);
            }
            self.engine.with_telemetry(Arc::new(fan))
        } else {
            self.engine
        };
        SimService {
            cache: PlanCache::new(self.cache_bytes),
            keys: KeyScratch::default(),
            queue: Vec::new(),
            next_id: 0,
            queue_capacity: self.queue_capacity,
            warm_starts: self.warm_starts,
            policy,
            recorder,
            monitor: ServiceMonitor::new(
                self.heartbeat
                    .or(self.heartbeat_path.as_ref().map(|_| Duration::from_secs(1))),
                self.heartbeat_path,
                self.watchdog_factor,
                self.registry,
            ),
            engine,
        }
    }
}

/// One queued job, with its structure keyed at admission time. The queue
/// owns its circuits; [`SimService::solve`] runs a job over the caller's.
struct QueuedJob<C = Circuit> {
    seq: JobId,
    circuit: C,
    ticket: JobTicket,
    submitted: Instant,
    key: StructureKey,
    /// Whether the watchdog already flagged this job (each job fires at
    /// most once, queued or in flight).
    watchdog_flagged: bool,
}

impl<C> QueuedJob<C> {
    /// The watchdog's one fire: flags the job (at most once over its
    /// life), counts the fire in `fires` and emits [`Payload::Watchdog`]
    /// on the job's span.
    fn flag_overrun(
        &mut self,
        sink: &dyn Sink,
        elapsed: Duration,
        limit: Duration,
        fires: &mut u64,
    ) {
        if self.watchdog_flagged {
            return;
        }
        self.watchdog_flagged = true;
        *fires += 1;
        Tele::root(sink, Span::for_job(self.seq)).emit(Payload::Watchdog {
            job: self.seq,
            elapsed_nanos: elapsed.as_nanos() as u64,
            limit_nanos: limit.as_nanos() as u64,
        });
    }
}

/// The long-lived simulation service; see the [module docs](self).
pub struct SimService {
    engine: DcEngine,
    cache: PlanCache,
    /// The buffers every admission keys in and every cache check verifies
    /// in.
    keys: KeyScratch,
    queue: Vec<QueuedJob>,
    next_id: JobId,
    queue_capacity: usize,
    warm_starts: bool,
    policy: Option<Arc<RlStepping>>,
    recorder: Option<Arc<FlightRecorder>>,
    monitor: ServiceMonitor,
}

impl SimService {
    /// Starts configuring a service around `engine`. The engine's
    /// telemetry sink and thread count are inherited by the service.
    pub fn builder(engine: DcEngine) -> SimServiceBuilder {
        SimServiceBuilder {
            engine,
            queue_capacity: 1024,
            cache_bytes: 8 * 1024 * 1024,
            warm_starts: true,
            policy: None,
            recorder_depth: None,
            recorder: None,
            incident_dir: None,
            incident_cap: None,
            heartbeat: None,
            heartbeat_path: None,
            watchdog_factor: None,
            registry: None,
        }
    }

    /// The attached flight recorder, if any (inspect incidents, windows
    /// and drop counts; see [`FlightRecorder`]).
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The engine this service drives.
    pub fn engine(&self) -> &DcEngine {
        &self.engine
    }

    /// Jobs currently waiting for [`SimService::drain`].
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Cumulative plan-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Number of structures whose plans are currently cached (the
    /// warm-start tier is not counted).
    pub fn cached_structures(&self) -> usize {
        self.cache.plans.entries.len()
    }

    /// Bytes currently held by the warm-start tier; never more than the
    /// [`cache_bytes`](SimServiceBuilder::cache_bytes) budget.
    pub fn warm_start_bytes(&self) -> usize {
        self.cache.warm.bytes
    }

    /// Admits one job into the queue, returning its [`JobId`].
    ///
    /// Admission keys the circuit's structure once (the key groups the job
    /// at drain time) and applies backpressure:
    ///
    /// # Errors
    ///
    /// [`ServiceError::QueueFull`] when the queue is at capacity;
    /// [`ServiceError::DeadlineUnmeetable`] when the ticket's deadline is
    /// zero or shorter than the job's own wall-clock solve budget.
    pub fn submit(&mut self, circuit: Circuit, ticket: JobTicket) -> Result<JobId, ServiceError> {
        if self.queue.len() >= self.queue_capacity {
            self.monitor.counters.rejected_queue_full += 1;
            return Err(ServiceError::QueueFull {
                capacity: self.queue_capacity,
            });
        }
        let job = self.admit(circuit, ticket)?;
        let seq = job.seq;
        self.queue.push(job);
        let sink = self.engine.telemetry();
        Tele::root(&*sink, Span::default()).emit_with(interest!("JobQueued"), || {
            Payload::JobQueued {
                job: seq,
                priority: ticket.priority.as_str().to_string(),
                depth: self.queue.len(),
            }
        });
        self.tick();
        Ok(seq)
    }

    /// Admission control shared by [`SimService::submit`] and
    /// [`SimService::solve`]: refuses (and counts) a ticket whose deadline
    /// is zero or shorter than the job's own wall-clock solve budget, then
    /// keys the circuit's structure and assigns the job its id.
    fn admit<C: Borrow<Circuit>>(
        &mut self,
        circuit: C,
        ticket: JobTicket,
    ) -> Result<QueuedJob<C>, ServiceError> {
        if let Some(deadline) = ticket.deadline {
            let wall = ticket
                .budget
                .as_ref()
                .map_or(self.engine.budget().wall_clock, |b| b.wall_clock);
            let detail = if deadline.is_zero() {
                Some("deadline is zero".to_string())
            } else {
                wall.filter(|wall| *wall > deadline).map(|wall| {
                    format!("the job's wall-clock solve budget ({wall:?}) alone exceeds it")
                })
            };
            if let Some(detail) = detail {
                self.monitor.counters.rejected_deadline += 1;
                return Err(ServiceError::DeadlineUnmeetable { deadline, detail });
            }
        }
        let key = StructureKey::of_in(circuit.borrow(), &mut self.keys);
        let seq = self.next_id;
        self.next_id += 1;
        self.monitor.counters.submitted[priority_index(ticket.priority)] += 1;
        if let Some(rec) = &self.recorder {
            rec.annotate(Some(seq), circuit.borrow().title(), Some(key.hash));
        }
        Ok(QueuedJob {
            seq,
            circuit,
            ticket,
            submitted: Instant::now(),
            key,
            watchdog_flagged: false,
        })
    }

    /// Executes every queued job and returns `(id, result)` pairs in
    /// submission order.
    ///
    /// Jobs are ordered by ([`Priority`] descending, submission order),
    /// then grouped by [`StructureKey`]; each group runs as one job on the
    /// engine's thread pool, sharing a single pre-seeded Newton workspace
    /// (symbolic LU pattern and stamp plan, when cached) and (when
    /// enabled) a warm-start chain seeded from the warm-start tier. After
    /// the pool completes, each group's final plans and last certified
    /// operating point refresh the cache.
    pub fn drain(&mut self) -> Vec<(JobId, Result<Solution, ServiceError>)> {
        let mut jobs = std::mem::take(&mut self.queue);
        if jobs.is_empty() {
            return Vec::new();
        }
        jobs.sort_by_key(|j| (std::cmp::Reverse(j.ticket.priority), j.seq));

        // Group by structure, groups ordered by their best job.
        let mut group_of: HashMap<StructureKey, usize> = HashMap::new();
        let mut groups: Vec<(StructureKey, Vec<QueuedJob>)> = Vec::new();
        for job in jobs {
            match group_of.get(&job.key) {
                Some(&g) => groups[g].1.push(job),
                None => {
                    group_of.insert(job.key, groups.len());
                    groups.push((job.key, vec![job]));
                }
            }
        }

        let sink = self.engine.telemetry();
        let tele = Tele::root(&*sink, Span::default());
        let engine = &self.engine;
        let policy = self.policy.as_ref();
        let (warm_starts, watchdog_factor) = (self.warm_starts, self.monitor.watchdog_factor);
        // Cache lookups happen serially up front (one per group — the
        // whole group rides one seed), so the drain's cache transitions
        // are independent of worker scheduling. Each group's key and job
        // ids stay outside its closure, so a group whose worker panics
        // still answers for every one of its jobs.
        let mut group_ids = Vec::with_capacity(groups.len());
        let mut closures = Vec::with_capacity(groups.len());
        for (key, jobs) in groups {
            let seed = self
                .cache
                .lookup(&key, &jobs[0].circuit, &mut self.keys.declare, &tele);
            for job in &jobs {
                tele.emit(Payload::JobAdmitted {
                    job: job.seq,
                    key: key.hash,
                });
            }
            group_ids.push((key, jobs.iter().map(|j| j.seq).collect::<Vec<_>>()));
            closures.push(move || {
                Ok(run_group(
                    engine,
                    policy,
                    warm_starts,
                    jobs,
                    seed,
                    watchdog_factor,
                ))
            });
        }
        let pooled = engine.run_jobs(closures);

        let mut out: Vec<(JobId, Result<Solution, ServiceError>)> = Vec::new();
        for ((key, ids), group) in group_ids.into_iter().zip(pooled) {
            out.extend(self.group_results(key, ids, group, &tele));
        }
        out.sort_by_key(|(id, _)| *id);
        for (_, result) in &out {
            self.monitor.counters.note_result(result);
        }
        self.tick();
        out
    }

    /// Convenience path for a single request: runs `circuit` through the
    /// cache (without touching the queue) and returns the solution.
    ///
    /// # Errors
    ///
    /// [`ServiceError::DeadlineUnmeetable`] under an impossible deadline;
    /// otherwise the wrapped [`SolveError`] surface.
    pub fn solve(
        &mut self,
        circuit: &Circuit,
        ticket: JobTicket,
    ) -> Result<Solution, ServiceError> {
        let job = self.admit(circuit, ticket)?;
        let key = job.key;
        let sink = self.engine.telemetry();
        let tele = Tele::root(&*sink, Span::default());
        let seed = self
            .cache
            .lookup(&key, circuit, &mut self.keys.declare, &tele);
        tele.emit(Payload::JobAdmitted {
            job: job.seq,
            key: key.hash,
        });
        let group = run_group(
            &self.engine,
            self.policy.as_ref(),
            self.warm_starts,
            vec![job],
            seed,
            self.monitor.watchdog_factor,
        );
        let result = match self.write_back(key, group, &tele).pop() {
            Some((_, result)) => result,
            None => Err(ServiceError::Solve(SolveError::WorkerPanic {
                detail: "service group produced no result".to_string(),
            })),
        };
        self.monitor.counters.note_result(&result);
        self.tick();
        result
    }

    /// Expands one group's pooled outcome into its per-job results. A
    /// finished group is folded back through [`SimService::write_back`]; a
    /// group whose worker panicked fails each of its jobs `ids` with the
    /// panic, each marked with one [`Payload::SolveFailed`].
    fn group_results(
        &mut self,
        key: StructureKey,
        ids: Vec<JobId>,
        pooled: Result<GroupOutcome, SolveError>,
        tele: &Tele<'_>,
    ) -> Vec<(JobId, Result<Solution, ServiceError>)> {
        match pooled {
            Ok(group) => self.write_back(key, group, tele),
            Err(e) => ids
                .into_iter()
                .map(|id| {
                    self.engine.note_solve_failure(Span::for_job(id), &e);
                    (id, Err(ServiceError::Solve(e.clone())))
                })
                .collect(),
        }
    }

    /// Folds one finished group back into the service — shared by
    /// [`SimService::drain`] and [`SimService::solve`]: counts its watchdog
    /// fires and deadline misses, caches its recorded plans and (with warm
    /// starts on) its last certified point under `key`, and returns its
    /// per-job results.
    fn write_back(
        &mut self,
        key: StructureKey,
        group: GroupOutcome,
        tele: &Tele<'_>,
    ) -> Vec<(JobId, Result<Solution, ServiceError>)> {
        self.monitor.counters.watchdog_fires += group.watchdog_fires;
        self.monitor.counters.deadline_misses += group.deadline_misses;
        if let Some((symbolic, plan)) = group.recorded {
            self.cache.insert(key, symbolic, plan, tele);
        }
        if let Some(warm) = group.warm {
            self.cache.insert_warm(key, warm);
        }
        group.results
    }
}

/// What one structure group hands back to the drain loop.
struct GroupOutcome {
    results: Vec<(JobId, Result<Solution, ServiceError>)>,
    /// The workspace's symbolic LU pattern and resolved stamp plan after
    /// the chain — refresh the cache. `None` when no Newton run recorded
    /// them (every job expired in the queue before a cold seed).
    recorded: Option<(Arc<SymbolicLu>, Arc<StampPlan>)>,
    /// Last certified operating point of the chain (the seed's, if no job
    /// succeeded); always `None` with warm starts off.
    warm: Option<Vec<f64>>,
    /// In-flight watchdog flags raised inside the group (for the monitor's
    /// counters — the events themselves already went to the sink).
    watchdog_fires: u64,
    /// Jobs that finished (either way) past their deadline.
    deadline_misses: u64,
}

/// Runs one structure group: a warm-start chain over jobs sharing a
/// [`StructureKey`], all sharing one Newton workspace. Never panics on
/// solver failures — every error comes back as a value in its job's slot,
/// and every failed slot is marked with exactly one
/// [`Payload::SolveFailed`] on the job's span (the flight-recorder
/// trigger).
fn run_group<C: Borrow<Circuit>>(
    engine: &DcEngine,
    policy: Option<&Arc<RlStepping>>,
    warm_starts: bool,
    jobs: Vec<QueuedJob<C>>,
    seed: CacheSeed,
    watchdog_factor: Option<f64>,
) -> GroupOutcome {
    // A cache-shared stamp plan makes the whole chain a pure write pass:
    // the first Newton run skips stamp resolution. A warm-only seed (a plan
    // miss) resolves and factorizes fresh, from the remembered point.
    let CacheSeed { cached, warm } = seed;
    let mut ws = match cached {
        Some((symbolic, plan)) => {
            NewtonWorkspace::seeded(LuWorkspace::with_symbolic(symbolic), Some(plan))
        }
        None => NewtonWorkspace::new(),
    };
    let mut warm = warm.filter(|_| warm_starts);
    let sink = engine.telemetry();
    let mut watchdog_fires = 0u64;
    let mut deadline_misses = 0u64;
    let mut results = Vec::with_capacity(jobs.len());
    for mut job in jobs {
        let span = Span::for_job(job.seq);
        if let Some(deadline) = job.ticket.deadline {
            if job.submitted.elapsed() > deadline {
                let err = ServiceError::DeadlineUnmeetable {
                    deadline,
                    detail: "deadline expired while the job was queued".to_string(),
                };
                deadline_misses += 1;
                // A queued job that silently aged out is exactly what the
                // watchdog exists to flag; the submit-time check already
                // proved the deadline was meetable, so expiry here means
                // the service sat on it too long.
                if let Some(factor) = watchdog_factor {
                    let (elapsed, limit) = (job.submitted.elapsed(), deadline.mul_f64(factor));
                    job.flag_overrun(&*sink, elapsed, limit, &mut watchdog_fires);
                }
                engine.note_solve_failure(span, &err);
                results.push((job.seq, Err(err)));
                continue;
            }
        }
        let budgeted;
        let eng = match job.ticket.budget {
            Some(b) => {
                budgeted = engine.with_budget(b);
                &budgeted
            }
            None => engine,
        };
        let circuit = job.circuit.borrow();
        let warm_ref = warm.as_deref().filter(|w| w.len() == circuit.dim());
        let solved = match eng.solve_warm_in(circuit, warm_ref, &mut ws, span) {
            Ok(sol) => Ok(sol),
            Err(first) => match policy {
                // The shared frozen policy gets one RL-steered PTA attempt
                // before the failure surfaces; it cannot make the outcome
                // worse (the original error is kept when it also fails).
                Some(p) if circuit.is_nonlinear() => {
                    let tele = Tele::root(&*sink, span);
                    match eng.solve_once_with(circuit, (**p).clone(), &tele) {
                        Ok(sol) => Ok(sol),
                        Err(_) => Err(first),
                    }
                }
                _ => Err(first),
            },
        };
        if let Some(deadline) = job.ticket.deadline {
            let elapsed = job.submitted.elapsed();
            if elapsed > deadline {
                deadline_misses += 1;
            }
            if let Some(factor) = watchdog_factor {
                let limit = deadline.mul_f64(factor);
                if elapsed > limit {
                    job.flag_overrun(&*sink, elapsed, limit, &mut watchdog_fires);
                }
            }
        }
        match solved {
            Ok(sol) => {
                if warm_starts {
                    warm.get_or_insert_with(Vec::new).clone_from(&sol.x);
                }
                results.push((job.seq, Ok(sol)));
            }
            Err(e) => {
                // The one-per-failure boundary marker, emitted after the
                // RL rescue has had its chance.
                engine.note_solve_failure(span, &e);
                results.push((job.seq, Err(ServiceError::Solve(e))));
            }
        }
    }
    GroupOutcome {
        results,
        recorded: ws.lu().shared_symbolic().cloned().zip(ws.plan().cloned()),
        warm,
        watchdog_fires,
        deadline_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Collector, MetricsRegistry};

    fn divider(r2: &str) -> Circuit {
        rlpta_netlist::parse(&format!("div\nV1 in 0 5\nR1 in out 1k\nR2 out 0 {r2}\n"))
            .expect("parse")
    }

    fn clamp(level: &str) -> Circuit {
        rlpta_netlist::parse(&format!(
            "clamp\nV1 in 0 {level}\nR1 in out 1k\nD1 out 0 DX\n.model DX D(IS=1e-14)\n"
        ))
        .expect("parse")
    }

    /// A group whose pooled worker panicked still answers for every job it
    /// held: one `WorkerPanic` error per submitted id, in id order, each
    /// marked with one `SolveFailed` on its job's span.
    #[test]
    fn panicked_group_fails_each_of_its_jobs() {
        let collector = Arc::new(Collector::new());
        let mut service =
            SimService::builder(DcEngine::builder().telemetry(collector.clone()).build()).build();
        let key = StructureKey::of(&divider("1k"));
        let panic = SolveError::WorkerPanic {
            detail: "boom".to_string(),
        };
        let results =
            service.group_results(key, vec![2, 5, 9], Err(panic.clone()), &Tele::disabled());
        let ids: Vec<JobId> = results.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, [2, 5, 9]);
        for (_, r) in &results {
            match r {
                Err(ServiceError::Solve(e)) => assert_eq!(*e, panic),
                other => panic!("expected a worker panic, got {other:?}"),
            }
        }
        let marked: Vec<Option<usize>> = collector
            .events()
            .iter()
            .filter(|e| matches!(e.payload, Payload::SolveFailed { .. }))
            .map(|e| e.span.job)
            .collect();
        assert_eq!(marked, [Some(2), Some(5), Some(9)]);
    }

    #[test]
    fn key_ignores_parameter_values_but_not_structure() {
        let a = StructureKey::of(&divider("1k"));
        let b = StructureKey::of(&divider("47k"));
        assert_eq!(a, b, "parameter delta must not change the key");
        let c = StructureKey::of(&clamp("5"));
        assert_ne!(a, c, "different topology must change the key");
        assert_ne!(
            StructureKey::of(&divider("1k")).hash(),
            0,
            "hash must be populated"
        );
    }

    #[test]
    fn cached_plan_replay_is_bit_identical_to_cold() {
        // Warm-start vectors change the Newton iterate (a different x0
        // converges to a different point in the last-ulp sense), so the
        // bit-identity contract is pinned with them disabled: the cached
        // *symbolic plan* replays the exact float ops of a cold analysis.
        let mut service = SimService::builder(DcEngine::builder().build())
            .warm_starts(false)
            .build();
        let cold = service.solve(&clamp("5"), JobTicket::default()).expect("cold");
        let replay = service.solve(&clamp("5"), JobTicket::default()).expect("replay");
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.invalidations, 0);
        assert_eq!(cold.x, replay.x);
    }

    #[test]
    fn plan_counters_track_stamp_resolution_reuse() {
        let mut service = SimService::builder(DcEngine::builder().build())
            .warm_starts(false)
            .build();
        // Cold structure: the group resolves its own plan (a plan miss)…
        service.solve(&clamp("5"), JobTicket::default()).expect("cold");
        let stats = service.cache_stats();
        assert_eq!(stats.plan_misses, 1);
        assert_eq!(stats.plan_hits, 0);
        // …and caches it, so repeats (even with different parameter values)
        // skip resolution entirely.
        service.solve(&clamp("3"), JobTicket::default()).expect("warm");
        service.solve(&clamp("7"), JobTicket::default()).expect("warm");
        let stats = service.cache_stats();
        assert_eq!(stats.plan_hits, 2);
        assert_eq!(stats.plan_misses, 1);
    }

    #[test]
    fn warm_started_repeat_certifies_and_stays_close() {
        let mut service = SimService::builder(DcEngine::builder().build()).build();
        let cold = service.solve(&clamp("5"), JobTicket::default()).expect("cold");
        let warm = service.solve(&clamp("5"), JobTicket::default()).expect("warm");
        assert_eq!(service.cache_stats().hits, 1);
        assert!(warm.stats.converged);
        let health = warm.health.as_ref().expect("graded");
        assert!(health.grade != crate::certify::HealthGrade::Rejected);
        for (a, b) in cold.x.iter().zip(&warm.x) {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn drain_groups_by_structure_and_returns_submission_order() {
        let collector = Arc::new(Collector::new());
        let engine = DcEngine::builder()
            .threads(2)
            .telemetry(collector.clone())
            .build();
        let mut service = SimService::builder(engine).build();
        let ids: Vec<JobId> = [clamp("5"), divider("1k"), clamp("3"), divider("2k")]
            .into_iter()
            .map(|c| service.submit(c, JobTicket::default()).expect("admit"))
            .collect();
        let results = service.drain();
        assert_eq!(
            results.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            ids,
            "results come back in submission order"
        );
        for (id, r) in &results {
            assert!(r.is_ok(), "job {id}: {r:?}");
        }
        // Two structures → two misses, and the two repeats rode their
        // group's seed/workspace (no further lookups), so no hits yet…
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 2);
        // …until the next drain, which hits both.
        for c in [clamp("4"), divider("3k")] {
            service.submit(c, JobTicket::default()).expect("admit");
        }
        let results = service.drain();
        assert!(results.iter().all(|(_, r)| r.is_ok()));
        assert_eq!(service.cache_stats().hits, 2);
        let queued = collector
            .events()
            .iter()
            .filter(|e| matches!(e.payload, Payload::JobQueued { .. }))
            .count();
        assert_eq!(queued, 6);
    }

    fn two_stage_clamp(level: &str) -> Circuit {
        rlpta_netlist::parse(&format!(
            "clamp2\nV1 in 0 {level}\nR1 in a 1k\nR2 a out 1k\nD1 out 0 DX\n\
             .model DX D(IS=1e-14)\n"
        ))
        .expect("parse")
    }

    #[test]
    fn drain_is_thread_invariant() {
        // Two drains of the same mix: the second runs on cache hits with
        // the default budget, and on warm-tier misses with a budget too
        // small for more than one plan.
        let solve_all = |threads: usize, small_budget: bool| {
            let engine = DcEngine::builder().threads(threads).build();
            let mut builder = SimService::builder(engine);
            if small_budget {
                builder = builder.cache_bytes(256);
            }
            let mut service = builder.build();
            let mut solutions = Vec::new();
            for _ in 0..2 {
                for c in [
                    clamp("5"),
                    divider("1k"),
                    two_stage_clamp("3"),
                    clamp("2"),
                    clamp("7"),
                    divider("9k"),
                ] {
                    service.submit(c, JobTicket::default()).expect("admit");
                }
                solutions.extend(
                    service
                        .drain()
                        .into_iter()
                        .map(|(id, r)| (id, r.expect("solves").x)),
                );
            }
            (solutions, service.cache_stats())
        };
        for small_budget in [false, true] {
            let serial = solve_all(1, small_budget);
            assert_eq!(
                serial.1.warm_misses > 0,
                small_budget,
                "small budget must churn plans: {:?}",
                serial.1
            );
            for threads in [2, 4] {
                assert_eq!(
                    serial,
                    solve_all(threads, small_budget),
                    "threads={threads} small_budget={small_budget}"
                );
            }
        }
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let mut service = SimService::builder(DcEngine::builder().build())
            .queue_capacity(2)
            .build();
        service.submit(divider("1k"), JobTicket::default()).expect("1");
        service.submit(divider("2k"), JobTicket::default()).expect("2");
        let err = service
            .submit(divider("3k"), JobTicket::default())
            .expect_err("full");
        assert_eq!(err, ServiceError::QueueFull { capacity: 2 });
        assert!(err.to_string().contains("queue_capacity"), "{err}");
        // Draining frees the queue.
        assert_eq!(service.drain().len(), 2);
        service.submit(divider("3k"), JobTicket::default()).expect("free again");
    }

    #[test]
    fn impossible_deadlines_are_refused_at_admission() {
        let mut service = SimService::builder(DcEngine::builder().build()).build();
        let zero = service
            .submit(
                divider("1k"),
                JobTicket::default().with_deadline(Duration::ZERO),
            )
            .expect_err("zero deadline");
        assert!(matches!(zero, ServiceError::DeadlineUnmeetable { .. }));
        let budget = SolveBudget {
            wall_clock: Some(Duration::from_secs(60)),
            ..SolveBudget::UNLIMITED
        };
        let tight = service
            .submit(
                divider("1k"),
                JobTicket::default()
                    .with_deadline(Duration::from_millis(1))
                    .with_budget(budget),
            )
            .expect_err("budget exceeds deadline");
        match &tight {
            ServiceError::DeadlineUnmeetable { detail, .. } => {
                assert!(detail.contains("budget"), "{detail}");
            }
            other => panic!("wrong error: {other:?}"),
        }
        assert_eq!(service.queue_depth(), 0);
    }

    #[test]
    fn solve_applies_the_same_deadline_admission_as_submit() {
        // Regression: `solve` used to refuse only zero deadlines, so it ran
        // a ticket `submit` refuses — one whose budget exceeds its deadline.
        let mut service = SimService::builder(DcEngine::builder().build()).build();
        let budget = SolveBudget {
            wall_clock: Some(Duration::from_secs(60)),
            ..SolveBudget::UNLIMITED
        };
        let ticket = JobTicket::default()
            .with_deadline(Duration::from_millis(1))
            .with_budget(budget);
        let err = service
            .solve(&divider("1k"), ticket)
            .expect_err("budget exceeds deadline");
        assert!(matches!(err, ServiceError::DeadlineUnmeetable { .. }), "{err:?}");
        let snap = service.snapshot();
        assert_eq!(snap.rejected_deadline, 1);
        assert_eq!(snap.completed, 0);
        assert_eq!(service.cache_stats().misses, 0, "refused before lookup");
    }

    #[test]
    fn priorities_run_first_but_results_stay_in_submission_order() {
        let mut service = SimService::builder(DcEngine::builder().build()).build();
        let low = service
            .submit(clamp("5"), JobTicket::default().with_priority(Priority::Low))
            .expect("low");
        let critical = service
            .submit(
                clamp("5"),
                JobTicket::default().with_priority(Priority::Critical),
            )
            .expect("critical");
        let results = service.drain();
        assert_eq!(results[0].0, low);
        assert_eq!(results[1].0, critical);
        assert!(results.iter().all(|(_, r)| r.is_ok()));
    }

    #[test]
    fn byte_budget_evicts_lru_structure() {
        let engine = DcEngine::builder().build();
        // A budget below any plan: only the newest plan stays resident.
        let mut service = SimService::builder(engine).cache_bytes(1).build();
        service.solve(&divider("1k"), JobTicket::default()).expect("a");
        service.solve(&clamp("5"), JobTicket::default()).expect("b");
        let stats = service.cache_stats();
        assert!(stats.evictions >= 1, "expected evictions, got {stats:?}");
        assert_eq!(service.cached_structures(), 1, "budget holds one entry");
    }

    /// Bytes of every plan resident in the cache, summed entry by entry.
    fn resident_plan_bytes(service: &SimService) -> usize {
        service.cache.plans.entries.values().map(|e| e.bytes).sum()
    }

    #[test]
    fn resident_bytes_stay_within_the_budget() {
        // Twelve named structures, drained in overlapping windows of five
        // under a budget that holds only a few of their plans at once.
        const NAMES: [&str; 12] = [
            "D10", "D11", "D22", "gm1", "gm6", "bias", "SCHMITT", "schmitfast", "TRISTABLE",
            "latch", "mosamp", "UA733",
        ];
        const BUDGET: usize = 16 * 1024;
        let structures: Vec<Circuit> = NAMES
            .iter()
            .map(|name| rlpta_circuits::by_name(name).expect("named circuit").circuit)
            .collect();
        let mut service = SimService::builder(DcEngine::builder().build())
            .cache_bytes(BUDGET)
            .build();
        for wave in 0..6 {
            for j in 0..5 {
                let circuit = structures[(wave * 5 + j) % NAMES.len()].clone();
                service.submit(circuit, JobTicket::default()).expect("admit");
            }
            service.drain();
            let resident = resident_plan_bytes(&service);
            assert!(
                resident <= BUDGET || service.cached_structures() == 1,
                "wave {wave}: {resident} B of plans in {} entries over a {BUDGET} B budget",
                service.cached_structures()
            );
            assert!(service.warm_start_bytes() <= BUDGET, "wave {wave}");
        }
        assert!(service.cache_stats().evictions > 0, "the budget must churn plans");
    }

    #[test]
    #[allow(deprecated)]
    fn cache_shards_is_an_ignored_shim() {
        let run = |shards: Option<usize>| {
            let mut builder = SimService::builder(DcEngine::builder().build()).cache_bytes(256);
            if let Some(shards) = shards {
                builder = builder.cache_shards(shards);
            }
            let mut service = builder.build();
            let mut solutions = Vec::new();
            for _ in 0..2 {
                for c in [clamp("5"), divider("1k"), two_stage_clamp("3"), clamp("2")] {
                    service.submit(c, JobTicket::default()).expect("admit");
                }
                solutions.extend(
                    service
                        .drain()
                        .into_iter()
                        .map(|(id, r)| (id, r.expect("solves").x)),
                );
            }
            (solutions, service.cache_stats())
        };
        let sharded = run(Some(8));
        assert!(sharded.1.evictions > 0, "{:?}", sharded.1);
        assert_eq!(sharded, run(None));
    }

    #[test]
    fn stale_stamp_plan_is_an_invalidation() {
        let mut service = SimService::builder(DcEngine::builder().build()).build();
        let owner = divider("1k");
        service.solve(&owner, JobTicket::default()).expect("owner");
        // The same pattern (and node numbering), the devices in another
        // order: the cached symbolic LU still fits, the stamp sequence
        // does not. Posing under the owner's key, it must not be a hit.
        let reordered =
            rlpta_netlist::parse("div\nV1 in 0 5\nR2 out 0 1k\nR1 in out 1k\n").expect("parse");
        let plan_of = |c: &Circuit| StampPlan::resolve(c, &mut |_| {});
        assert!(plan_of(&owner)
            .pattern()
            .same_pattern(plan_of(&reordered).pattern()));
        let key = StructureKey::of(&owner);
        let sink = service.engine().telemetry();
        let seed = service.cache.lookup(
            &key,
            &reordered,
            &mut service.keys.declare,
            &Tele::root(&*sink, Span::default()),
        );
        assert!(seed.cached.is_none() && seed.warm.is_none());
        let stats = service.cache_stats();
        assert_eq!((stats.invalidations, stats.hits, stats.misses), (1, 0, 2));
        assert_eq!((stats.plan_hits, stats.plan_misses), (0, 2));
        assert_eq!(service.cached_structures(), 0);
        assert_eq!(service.warm_start_bytes(), 0);
    }

    #[test]
    fn invalidation_drops_the_warm_start_too() {
        let mut service = SimService::builder(DcEngine::builder().build()).build();
        let owner = clamp("5");
        service.solve(&owner, JobTicket::default()).expect("owner");
        assert!(service.warm_start_bytes() > 0, "owner left a warm start");
        // A circuit with another pattern posing under the owner's key: what
        // a hash collision (or structural drift that kept the key) looks
        // like to the lookup.
        let key = StructureKey::of(&owner);
        let foreign = two_stage_clamp("5");
        let sink = service.engine().telemetry();
        let seed = service.cache.lookup(
            &key,
            &foreign,
            &mut service.keys.declare,
            &Tele::root(&*sink, Span::default()),
        );
        assert!(seed.cached.is_none());
        assert!(seed.warm.is_none(), "a foreign point must not seed the job");
        let stats = service.cache_stats();
        assert_eq!((stats.invalidations, stats.misses), (1, 2));
        assert_eq!(stats.warm_misses, 0);
        assert_eq!(service.cached_structures(), 0);
        assert_eq!(service.warm_start_bytes(), 0, "the warm start went too");
        // The owner's next request is a plain cold miss.
        service.solve(&owner, JobTicket::default()).expect("owner again");
        let stats = service.cache_stats();
        assert_eq!((stats.misses, stats.warm_misses), (3, 0));
    }

    #[test]
    fn cache_events_reach_the_metrics_registry() {
        let registry = Arc::new(MetricsRegistry::new());
        let engine = DcEngine::builder().telemetry(registry.clone()).build();
        let mut service = SimService::builder(engine).build();
        service.solve(&clamp("5"), JobTicket::default()).expect("cold");
        service.solve(&clamp("5"), JobTicket::default()).expect("warm");
        assert_eq!(registry.kind_count("CacheMiss"), 1);
        assert_eq!(registry.kind_count("CacheHit"), 1);
        assert_eq!(registry.kind_count("JobAdmitted"), 2);
    }

    #[test]
    fn service_error_family_converts_and_chains() {
        let inner = SolveError::CertificationFailed { residual_norm: 1.0 };
        let err: ServiceError = inner.clone().into();
        assert_eq!(err, ServiceError::Solve(inner));
        assert!(Error::source(&err).is_some());
        assert!(err.to_string().contains("solve failed"), "{err}");
        let dl = ServiceError::DeadlineUnmeetable {
            deadline: Duration::from_secs(1),
            detail: "expired".to_string(),
        };
        assert!(Error::source(&dl).is_none());
        assert!(dl.to_string().contains("cannot be met"), "{dl}");
    }

    #[test]
    fn hit_rate_is_zero_not_nan_before_first_lookup() {
        // Regression: an empty CacheStats must report 0.0, never NaN —
        // NaN here would leak into exposition output and perfdiff JSON.
        let stats = CacheStats::default();
        assert_eq!(stats.hit_rate(), 0.0);
        assert!(stats.hit_rate().is_finite());
        let service = SimService::builder(DcEngine::builder().build()).build();
        assert_eq!(service.cache_stats().hit_rate(), 0.0);
        let text = service.render_prometheus();
        assert!(
            text.contains("rlpta_service_cache_hit_rate 0\n"),
            "{text}"
        );
        assert!(!text.contains("NaN"), "{text}");
    }

    #[test]
    fn recorder_freezes_one_incident_per_failure_and_none_for_success() {
        // Warm starts off: a warm-started repeat would converge in one
        // iteration and dodge the starved budget below.
        let mut service = SimService::builder(DcEngine::builder().build())
            .recorder(16)
            .warm_starts(false)
            .build();
        // Certified solves leave no incidents…
        service.solve(&clamp("5"), JobTicket::default()).expect("ok");
        let rec = Arc::clone(service.recorder().expect("attached"));
        assert_eq!(rec.incident_count(), 0);
        // …while a starved solve leaves exactly one, annotated with the
        // label and structure key attached at admission.
        let starved = SolveBudget {
            max_nr_iterations: Some(1),
            ..SolveBudget::UNLIMITED
        };
        service
            .solve(&clamp("5"), JobTicket::default().with_budget(starved))
            .expect_err("starved");
        assert_eq!(rec.incident_count(), 1);
        let incidents = rec.incidents();
        let inc = &incidents[0];
        assert_eq!(inc.trigger, crate::telemetry::Trigger::SolveFailed);
        assert_eq!(inc.label.as_deref(), Some("clamp"));
        assert!(inc.structure_key.is_some());
        let snap = service.snapshot();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.solve_failures, 1);
        assert_eq!(snap.incidents, 1);
        assert_eq!(snap.grades[0] + snap.grades[1], 1, "one graded success");
    }

    #[test]
    fn watchdog_flags_overdue_queued_jobs_once() {
        let collector = Arc::new(Collector::new());
        let engine = DcEngine::builder().telemetry(collector.clone()).build();
        let mut service = SimService::builder(engine)
            .recorder(8)
            .watchdog(1.0)
            .build();
        service
            .submit(
                divider("1k"),
                JobTicket::default().with_deadline(Duration::from_millis(2)),
            )
            .expect("admit");
        std::thread::sleep(Duration::from_millis(10));
        service.tick();
        service.tick(); // a queued job fires at most once
        assert_eq!(service.snapshot().watchdog_fires, 1);
        let fires = collector
            .events()
            .iter()
            .filter(|e| matches!(e.payload, Payload::Watchdog { .. }))
            .count();
        assert_eq!(fires, 1);
        // The watchdog event is itself a recorder trigger…
        let rec = Arc::clone(service.recorder().expect("attached"));
        assert_eq!(rec.incidents()[0].trigger, crate::telemetry::Trigger::Watchdog);
        // …and the eventual drain surfaces the expiry as a failed job
        // without re-firing the watchdog.
        let results = service.drain();
        assert!(matches!(
            results[0].1,
            Err(ServiceError::DeadlineUnmeetable { .. })
        ));
        let snap = service.snapshot();
        assert_eq!(snap.watchdog_fires, 1);
        assert!(snap.deadline_misses >= 1);
        assert_eq!(snap.solve_failures, 1);
    }

    #[test]
    fn heartbeat_appends_parseable_lines() {
        let path = std::env::temp_dir().join(format!(
            "rlpta-heartbeat-test-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut service = SimService::builder(DcEngine::builder().build())
            .heartbeat(Duration::ZERO)
            .heartbeat_path(path.clone())
            .build();
        service.solve(&divider("1k"), JobTicket::default()).expect("a");
        service.solve(&divider("2k"), JobTicket::default()).expect("b");
        let text = std::fs::read_to_string(&path).expect("heartbeat file");
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "expected two beats, got: {text}");
        let last = HeartbeatLine::parse(lines.last().expect("line")).expect("parse");
        assert_eq!(last.completed, 2);
        assert_eq!(last.cache_hits, 1);
        assert!(service.monitor().write_error().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_registry_feeds_snapshot_phases_and_incidents() {
        let registry = Arc::new(MetricsRegistry::new());
        let mut service = SimService::builder(DcEngine::builder().build())
            .metrics(registry.clone())
            .recorder(8)
            .warm_starts(false)
            .build();
        service.solve(&clamp("5"), JobTicket::default()).expect("ok");
        let snap = service.snapshot();
        assert!(
            !snap.phases.is_empty(),
            "attached registry must surface phase summaries"
        );
        // The registry also reaches the recorder: incidents carry its
        // histogram snapshot.
        let starved = SolveBudget {
            max_nr_iterations: Some(1),
            ..SolveBudget::UNLIMITED
        };
        service
            .solve(&clamp("5"), JobTicket::default().with_budget(starved))
            .expect_err("starved");
        let rec = service.recorder().expect("attached");
        assert!(!rec.incidents()[0].histograms.is_empty());
    }

    #[test]
    fn frozen_policy_is_shared_not_retrained() {
        let mut policy = RlStepping::new(RlSteppingConfig::new(7));
        policy.freeze();
        let engine = DcEngine::builder().build();
        let mut service = SimService::builder(engine)
            .policy(Arc::new(policy))
            .build();
        // A healthy circuit never needs the policy, but the handle must
        // not break the normal path.
        let sol = service.solve(&clamp("5"), JobTicket::default()).expect("solve");
        assert!(sol.stats.converged);
    }
}
