//! Lock-free per-barrier statistics and episode telemetry.
//!
//! Every backend records how many episodes completed, how many arrivals it
//! saw, and — crucially for reproducing the paper's Sec. 8 measurement —
//! how many waits actually *stalled* and for how long. A stall that
//! escalates to a deschedule corresponds to the Encore context save/restore
//! the paper identifies as the dominant synchronization cost.
//!
//! On top of the flat counters, [`BarrierStats`] maintains per-episode
//! telemetry:
//!
//! * a fixed-bucket power-of-two-nanosecond **stall-time histogram**
//!   ([`StallHistogram`]) — bucket `i` counts stalls whose duration in
//!   nanoseconds satisfies `2^i <= ns < 2^(i+1)` (bucket 0 also absorbs
//!   zero), so the whole `u64` range is covered by 64 buckets;
//! * **arrival spread** — the time between the first and last `arrive`
//!   of an episode, the direct measure of how much drift the fuzzy
//!   barrier region absorbed, sampled on one episode in
//!   [`SPREAD_SAMPLE_PERIOD`];
//! * **per-participant** stall/probe counters, which expose asymmetric
//!   load (one slow stream stalls everyone else, Sec. 8).
//!
//! Telemetry must not put back the shared hot spot the barrier protocols
//! exist to remove (Sec. 1). Each participant therefore owns a padded slot
//! that only it writes, with plain loads and stores; snapshots sum the
//! slots. An episode that does not stall makes one shared write for
//! telemetry — the completer's episode count — and reads the clock only
//! when it is sampled. The stall path and the fault paths update shared
//! counters. Nothing allocates after construction.

use crate::spin::{AdaptiveSpin, StallPolicy};
use crate::token::WaitOutcome;
use fuzzy_util::CachePadded;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of histogram buckets: one per power of two of a `u64` value.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Episode `e` has its arrival spread measured when
/// `e % SPREAD_SAMPLE_PERIOD == 0`; only those episodes' arrivals read the
/// clock.
pub const SPREAD_SAMPLE_PERIOD: u64 = 64;

/// A lock-free fixed-bucket histogram over power-of-two ranges.
///
/// Bucket `i` counts recorded values `v` with `floor(log2(v)) == i`
/// (bucket 0 also counts `v == 0`). For barrier stalls the recorded value
/// is nanoseconds, so bucket 10 ≈ 1–2 µs, bucket 20 ≈ 1–2 ms, and so on;
/// `u64::MAX` saturates into the last bucket.
#[derive(Debug)]
pub struct StallHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for StallHistogram {
    fn default() -> Self {
        StallHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl StallHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value lands in: `floor(log2(v))`, with 0 for 0.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (63 - value.leading_zeros()) as usize
        }
    }

    /// Inclusive lower and upper bound of bucket `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= HISTOGRAM_BUCKETS`.
    #[must_use]
    pub fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HISTOGRAM_BUCKETS);
        let lo = if i == 0 { 0 } else { 1u64 << i };
        let hi = if i == 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        };
        (lo, hi)
    }

    /// Records one observation of `value`.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time copy of a [`StallHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Count per power-of-two bucket; see [`StallHistogram::bucket_bounds`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    #[must_use]
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 <= q <= 1.0`) of the recorded values, or `None` when empty.
    /// A coarse estimate — resolution is one power of two.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(StallHistogram::bucket_bounds(i).1);
            }
        }
        Some(u64::MAX)
    }

    /// Adds another snapshot's counts into this one (for aggregation
    /// across barriers or participants).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
    }
}

/// Arrival-spread accumulator over the sampled episodes, written by each
/// sampled episode's completer.
#[derive(Debug, Default)]
struct SpreadTracker {
    /// Sum of spreads over measured episodes.
    total_nanos: AtomicU64,
    /// Largest spread seen.
    max_nanos: AtomicU64,
    /// Spread of the most recently measured episode.
    last_nanos: AtomicU64,
    /// Episodes with a measured spread.
    episodes: AtomicU64,
}

/// One participant's counters, adaptive history and last sampled arrival
/// stamp. A participant's slot has a single writer — that participant — so
/// each update is a Relaxed load and store. The overflow slot, shared by
/// ids outside the participant range, adds with RMWs and keeps no stamp.
///
/// Slots are padded, not over-aligned: the trailing gap keeps the fields of
/// neighbouring slots in an array at least a 64-byte cache line apart at
/// any address, and a plain allocation is cheaper to build than a
/// 128-aligned one (which `CachePadded` elements need). `repr(C)` keeps
/// the gap last.
#[derive(Debug, Default)]
#[repr(C)]
struct Slot {
    /// True for the overflow slot.
    shared: bool,
    /// Arrivals; for a barrier built on [`crate::EpisodeCore`] this is
    /// also the participant's next episode number.
    arrivals: AtomicU64,
    waits: AtomicU64,
    stalls: AtomicU64,
    stall_nanos: AtomicU64,
    probes: AtomicU64,
    /// Wait-cost EWMAs feeding [`StallPolicy::Adaptive`] budget sizing.
    adaptive: AdaptiveSpin,
    /// `episode + 1` of the last sampled arrival; 0 when none, and while
    /// the stamp is rewritten.
    stamp_key: AtomicU64,
    /// That arrival's time, in ns since the stats anchor.
    stamp_nanos: AtomicU64,
    _gap: [u64; 8],
}

impl Slot {
    fn add(&self, cell: &AtomicU64, value: u64) {
        if self.shared {
            cell.fetch_add(value, Ordering::Relaxed);
        } else {
            let sum = cell.load(Ordering::Relaxed).wrapping_add(value);
            cell.store(sum, Ordering::Relaxed);
        }
    }

    /// Stores the stamp `(key, nanos)`. The key is cleared first, so a
    /// reader that finds `key` on both sides of its read of the time (see
    /// [`Self::stamp_of`]) read this write's time.
    fn stamp(&self, key: u64, nanos: u64) {
        self.stamp_key.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        self.stamp_nanos.store(nanos, Ordering::Relaxed);
        self.stamp_key.store(key, Ordering::Release);
    }

    /// The stamped time if the stamp is keyed `key`. If the owner is
    /// rewriting the stamp meanwhile, the re-read of the key fails: the
    /// acquire fence pairs with the writer's release fence.
    fn stamp_of(&self, key: u64) -> Option<u64> {
        if self.stamp_key.load(Ordering::Acquire) != key {
            return None;
        }
        let nanos = self.stamp_nanos.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        (self.stamp_key.load(Ordering::Relaxed) == key).then_some(nanos)
    }
}

/// Telemetry recorder for one barrier.
///
/// Construct with [`BarrierStats::with_participants`] to get one padded
/// slot per participant `0..n`; each participant's own arrivals and waits
/// touch only its slot. The plain [`BarrierStats::new`] keeps only the
/// aggregate view: every id lands in a shared overflow slot.
#[derive(Debug)]
pub struct BarrierStats {
    /// One slot per participant, written only by that participant.
    slots: Box<[Slot]>,
    /// Ids outside `0..n`.
    overflow: CachePadded<Slot>,
    /// The one shared RMW of an episode: its completer's count.
    episodes: CachePadded<AtomicU64>,
    spread: SpreadTracker,
    deschedules: AtomicU64,
    timeouts: AtomicU64,
    evictions: AtomicU64,
    poisonings: AtomicU64,
    stall_hist: StallHistogram,
    /// Monotonic time origin for arrival stamps.
    anchor: Instant,
}

impl Default for BarrierStats {
    fn default() -> Self {
        Self::with_participants(0)
    }
}

impl BarrierStats {
    /// Creates a zeroed, participant-blind statistics block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a statistics block with one slot per participant `0..n`.
    /// All storage is allocated here; recording never allocates.
    #[must_use]
    pub fn with_participants(n: usize) -> Self {
        BarrierStats {
            slots: (0..n).map(|_| Slot::default()).collect(),
            overflow: CachePadded::new(Slot {
                shared: true,
                ..Slot::default()
            }),
            episodes: CachePadded::new(AtomicU64::new(0)),
            spread: SpreadTracker::default(),
            deschedules: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            poisonings: AtomicU64::new(0),
            stall_hist: StallHistogram::new(),
            anchor: Instant::now(),
        }
    }

    fn slot(&self, id: usize) -> &Slot {
        self.slots.get(id).map_or(&self.overflow, |slot| slot)
    }

    fn all_slots(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter().chain(std::iter::once(&*self.overflow))
    }

    fn now_nanos(&self) -> u64 {
        u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records participant `id`'s arrival for `episode`. On a sampled
    /// episode it also stamps the arrival time into `id`'s slot.
    ///
    /// Public so that [`crate::SplitBarrier`] implementations outside this
    /// crate (the `fuzzy-net` message-passing backend) can feed the same
    /// telemetry schema as the in-process backends.
    #[inline]
    pub fn record_arrival(&self, id: usize, episode: u64) {
        let slot = self.slot(id);
        slot.add(&slot.arrivals, 1);
        if episode.is_multiple_of(SPREAD_SAMPLE_PERIOD) && !slot.shared {
            slot.stamp(episode.wrapping_add(1), self.now_nanos());
        }
    }

    /// Records participant `id`'s arrival and returns its episode number:
    /// the arrivals it made before this one. `id` must be a participant.
    #[inline]
    pub(crate) fn next_arrival(&self, id: usize) -> u64 {
        let episode = self.slots[id].arrivals.load(Ordering::Relaxed);
        self.record_arrival(id, episode);
        episode
    }

    /// Records the completion of `episode`. Call exactly once per episode,
    /// from whichever participant observes completion first. On a sampled
    /// episode this folds its arrival spread: max − min over the stamps
    /// keyed to `episode`, so arrivals for later episodes never count.
    pub fn record_episode(&self, episode: u64) {
        self.episodes.fetch_add(1, Ordering::Relaxed);
        if !episode.is_multiple_of(SPREAD_SAMPLE_PERIOD) {
            return;
        }
        let key = episode.wrapping_add(1);
        let (mut first, mut last) = (u64::MAX, 0);
        for t in self.slots.iter().filter_map(|slot| slot.stamp_of(key)) {
            first = first.min(t);
            last = last.max(t);
        }
        if first > last {
            return; // no arrival of `episode` was stamped
        }
        let spread = last - first;
        self.spread.total_nanos.fetch_add(spread, Ordering::Relaxed);
        self.spread.max_nanos.fetch_max(spread, Ordering::Relaxed);
        self.spread.last_nanos.store(spread, Ordering::Relaxed);
        self.spread.episodes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed wait by participant `id`: its counters and
    /// adaptive history, and on a stall the shared histogram.
    #[inline]
    pub fn record_wait(&self, id: usize, outcome: &WaitOutcome) {
        let slot = self.slot(id);
        slot.add(&slot.waits, 1);
        let nanos = u64::try_from(outcome.stall_time.as_nanos()).unwrap_or(u64::MAX);
        // Every completed wait — including the instant ones, which pull
        // the EWMAs toward zero — feeds the adaptive budget history.
        slot.adaptive.observe(outcome.probes, nanos);
        if outcome.stalled {
            slot.add(&slot.stalls, 1);
            slot.add(&slot.stall_nanos, nanos);
            slot.add(&slot.probes, outcome.probes);
            self.stall_hist.record(nanos);
        }
        if outcome.descheduled {
            self.deschedules.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a wait that expired at its deadline. The time spent stalled
    /// before giving up goes into the same stall histogram and per
    /// participant attribution as a successful stalled wait — a timeout
    /// *is* a stall, just one that was cut short — plus the dedicated
    /// `timeouts` counter. `waits`/`stalls` are untouched so the
    /// waits-equals-arrivals invariant keeps holding once the wait is
    /// eventually retried to completion.
    pub fn record_timeout(&self, id: usize, report: &crate::spin::SpinReport) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
        let nanos = u64::try_from(report.waited.as_nanos()).unwrap_or(u64::MAX);
        let slot = self.slot(id);
        slot.adaptive.observe(report.probes, nanos);
        slot.add(&slot.stall_nanos, nanos);
        slot.add(&slot.probes, report.probes);
        self.stall_hist.record(nanos);
        if report.descheduled {
            self.deschedules.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a participant eviction (mask shrink due to failure).
    pub fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a poisoning transition (only the first `poison` call after a
    /// clear counts).
    pub fn record_poisoning(&self) {
        self.poisonings.fetch_add(1, Ordering::Relaxed);
    }

    /// Resolves a stall policy for participant `id`'s next wait:
    /// [`StallPolicy::Adaptive`] is sized from `id`'s own wait-cost EWMAs,
    /// everything else passes through unchanged. Backends call this at the
    /// top of their wait path.
    #[must_use]
    pub fn resolve_policy(&self, id: usize, policy: StallPolicy) -> StallPolicy {
        self.slot(id).adaptive.resolve(policy)
    }

    /// Takes a consistent-enough snapshot for reporting: the participant
    /// slots are summed, each field read individually with relaxed
    /// ordering (exact cross-field consistency is not needed for
    /// statistics).
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        let sum = |field: fn(&Slot) -> &AtomicU64| -> u64 {
            self.all_slots()
                .map(|slot| field(slot).load(Ordering::Relaxed))
                .fold(0, u64::wrapping_add)
        };
        StatsSnapshot {
            episodes: self.episodes.load(Ordering::Relaxed),
            arrivals: sum(|s| &s.arrivals),
            waits: sum(|s| &s.waits),
            stalls: sum(|s| &s.stalls),
            deschedules: self.deschedules.load(Ordering::Relaxed),
            stall_time: Duration::from_nanos(sum(|s| &s.stall_nanos)),
            probes: sum(|s| &s.probes),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            poisonings: self.poisonings.load(Ordering::Relaxed),
        }
    }

    /// Takes the full telemetry snapshot: flat counters plus the stall
    /// histogram, arrival spread, adaptive history and per-participant
    /// counters.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            base: self.snapshot(),
            stall_hist: self.stall_hist.snapshot(),
            spread: SpreadSnapshot {
                episodes: self.spread.episodes.load(Ordering::Relaxed),
                total: Duration::from_nanos(self.spread.total_nanos.load(Ordering::Relaxed)),
                max: Duration::from_nanos(self.spread.max_nanos.load(Ordering::Relaxed)),
                last: Duration::from_nanos(self.spread.last_nanos.load(Ordering::Relaxed)),
            },
            adaptive: AdaptiveSnapshot::pooled(self.all_slots().map(|slot| &slot.adaptive)),
            per_participant: self
                .slots
                .iter()
                .map(|p| ParticipantSnapshot {
                    arrivals: p.arrivals.load(Ordering::Relaxed),
                    waits: p.waits.load(Ordering::Relaxed),
                    stalls: p.stalls.load(Ordering::Relaxed),
                    stall_time: Duration::from_nanos(p.stall_nanos.load(Ordering::Relaxed)),
                    probes: p.probes.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of [`BarrierStats`]' flat counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Completed barrier episodes.
    pub episodes: u64,
    /// Total arrivals across all participants and episodes.
    pub arrivals: u64,
    /// Total waits (should equal arrivals when the protocol is followed).
    pub waits: u64,
    /// Waits that found synchronization incomplete and had to stall.
    pub stalls: u64,
    /// Stalls that escalated to a yield or park (context switch analogue).
    pub deschedules: u64,
    /// Total wall-clock time spent stalled, summed over participants.
    pub stall_time: Duration,
    /// Total wait probes performed while stalled.
    pub probes: u64,
    /// Bounded waits that expired at their deadline.
    pub timeouts: u64,
    /// Participants evicted from the barrier (mask shrinks due to failure).
    pub evictions: u64,
    /// Poisoning transitions (unpoisoned barrier marked poisoned).
    pub poisonings: u64,
}

impl StatsSnapshot {
    /// Fraction of waits that stalled, in `[0, 1]`. Returns 0 when no waits
    /// have happened yet.
    #[must_use]
    pub fn stall_rate(&self) -> f64 {
        if self.waits == 0 {
            0.0
        } else {
            self.stalls as f64 / self.waits as f64
        }
    }

    /// Mean stall time per wait (not per stall), the per-synchronization
    /// overhead comparable to the paper's µs-per-barrier numbers.
    #[must_use]
    pub fn mean_stall_per_wait(&self) -> Duration {
        per_count(self.stall_time, self.waits)
    }
}

/// `total / count`, truncated to whole nanoseconds and exact for any
/// `u64` count (zero when `count` is zero).
fn per_count(total: Duration, count: u64) -> Duration {
    if count == 0 {
        return Duration::ZERO;
    }
    let nanos = total.as_nanos() / u128::from(count);
    Duration::new(
        u64::try_from(nanos / 1_000_000_000).unwrap_or(u64::MAX),
        (nanos % 1_000_000_000) as u32,
    )
}

/// Arrival-spread summary: per-episode gap between first and last arrival,
/// over the sampled episodes (one in [`SPREAD_SAMPLE_PERIOD`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpreadSnapshot {
    /// Episodes with a measured spread.
    pub episodes: u64,
    /// Sum of spreads over those episodes.
    pub total: Duration,
    /// Largest single-episode spread.
    pub max: Duration,
    /// Spread of the most recently completed episode.
    pub last: Duration,
}

impl SpreadSnapshot {
    /// Mean spread per measured episode.
    #[must_use]
    pub fn mean(&self) -> Duration {
        per_count(self.total, self.episodes)
    }
}

/// One participant's view of the counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParticipantSnapshot {
    /// Arrivals performed by this participant.
    pub arrivals: u64,
    /// Waits performed by this participant.
    pub waits: u64,
    /// Waits that stalled.
    pub stalls: u64,
    /// Total time this participant spent stalled.
    pub stall_time: Duration,
    /// Probes performed while stalled.
    pub probes: u64,
}

/// A point-in-time copy of the adaptive wait-cost history backing
/// [`StallPolicy::Adaptive`] budget sizing, pooled over the participants:
/// each keeps its own history, and each EWMA here is their mean weighted
/// by observations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveSnapshot {
    /// Waits folded into the EWMAs so far.
    pub observations: u64,
    /// EWMA of per-wait predicate probes.
    pub ewma_probes: u64,
    /// EWMA of per-wait stall time.
    pub ewma_stall: Duration,
}

impl AdaptiveSnapshot {
    fn pooled<'a>(histories: impl Iterator<Item = &'a AdaptiveSpin>) -> Self {
        let (mut observations, mut probes, mut stall) = (0u64, 0u128, 0u128);
        for h in histories {
            let n = h.observations();
            observations = observations.wrapping_add(n);
            probes += u128::from(n) * u128::from(h.ewma_probes());
            stall += u128::from(n) * h.ewma_stall().as_nanos();
        }
        let mean = |weighted: u128| {
            u64::try_from(weighted / u128::from(observations.max(1))).unwrap_or(u64::MAX)
        };
        AdaptiveSnapshot {
            observations,
            ewma_probes: mean(probes),
            ewma_stall: Duration::from_nanos(mean(stall)),
        }
    }
}

/// Relaxed counters for the async (poll-based) barrier frontend.
///
/// Tracked separately from [`BarrierStats`] on purpose: the flat
/// [`StatsSnapshot`] feeds schema-pinned experiment exports, so async-only
/// counters live in their own block rather than widening a frozen shape.
/// All record methods are public — `fuzzy-sched`'s executor records steal
/// events into its own instance; `fuzzy-barrier`'s `AsyncBarrier` records
/// the parking-protocol events.
#[derive(Debug, Default)]
pub struct AsyncStats {
    parked: AtomicU64,
    resumed: AtomicU64,
    drains: AtomicU64,
    wakes: AtomicU64,
    polls: AtomicU64,
    steals: AtomicU64,
}

impl AsyncStats {
    /// Creates a zeroed counter block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a waiter registering a waker (first `Poll::Pending`).
    pub fn record_parked(&self) {
        self.parked.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a previously parked waiter completing its episode.
    pub fn record_resumed(&self) {
        self.resumed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one drain sweep over the parked-waiter registry.
    pub fn record_drain(&self) {
        self.drains.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` wakers invoked by a drain.
    pub fn record_wakes(&self, n: u64) {
        if n > 0 {
            self.wakes.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one `Future::poll` of a barrier future.
    pub fn record_poll(&self) {
        self.polls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a task stolen from another worker's run queue.
    pub fn record_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> AsyncSnapshot {
        AsyncSnapshot {
            parked: self.parked.load(Ordering::Relaxed),
            resumed: self.resumed.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
            wakes: self.wakes.load(Ordering::Relaxed),
            polls: self.polls.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`AsyncStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AsyncSnapshot {
    /// Waiters that registered a waker (first pending poll).
    pub parked: u64,
    /// Previously parked waiters that completed their episode.
    pub resumed: u64,
    /// Drain sweeps over the parked-waiter registry.
    pub drains: u64,
    /// Wakers invoked by drains.
    pub wakes: u64,
    /// Barrier-future polls.
    pub polls: u64,
    /// Tasks stolen from another worker's run queue.
    pub steals: u64,
}

impl AsyncSnapshot {
    /// Adds another snapshot's counts into this one (for aggregation
    /// across barriers or executors).
    pub fn merge(&mut self, other: &AsyncSnapshot) {
        self.parked = self.parked.saturating_add(other.parked);
        self.resumed = self.resumed.saturating_add(other.resumed);
        self.drains = self.drains.saturating_add(other.drains);
        self.wakes = self.wakes.saturating_add(other.wakes);
        self.polls = self.polls.saturating_add(other.polls);
        self.steals = self.steals.saturating_add(other.steals);
    }
}

/// Per-peer link counters for a message-passing barrier (the `fuzzy-net`
/// crate).
///
/// Like [`AsyncStats`], this lives beside [`BarrierStats`] rather than
/// inside it: the flat [`StatsSnapshot`] feeds schema-pinned experiment
/// exports, so transport-only counters get their own block. One instance
/// covers one mesh endpoint; the `per-peer` rows are indexed by mesh rank
/// (the local rank's row stays zero).
#[derive(Debug)]
pub struct NetStats {
    retries: AtomicU64,
    decode_errors: AtomicU64,
    poison_frames: AtomicU64,
    nacks: AtomicU64,
    per_peer: Vec<LinkCounters>,
}

#[derive(Debug, Default)]
struct LinkCounters {
    sent: AtomicU64,
    received: AtomicU64,
    retries: AtomicU64,
}

impl NetStats {
    /// Creates a zeroed counter block for a mesh of `nodes` endpoints.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        NetStats {
            retries: AtomicU64::new(0),
            decode_errors: AtomicU64::new(0),
            poison_frames: AtomicU64::new(0),
            nacks: AtomicU64::new(0),
            per_peer: (0..nodes).map(|_| LinkCounters::default()).collect(),
        }
    }

    /// Records one frame sent to `peer`. Out-of-range ranks are counted in
    /// the aggregate only (snapshot totals still add up).
    pub fn record_send(&self, peer: usize) {
        if let Some(link) = self.per_peer.get(peer) {
            link.sent.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one frame received from `peer`.
    pub fn record_recv(&self, peer: usize) {
        if let Some(link) = self.per_peer.get(peer) {
            link.received.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one retransmission (send retry or nack-triggered resend)
    /// toward `peer`.
    pub fn record_retry(&self, peer: usize) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        if let Some(link) = self.per_peer.get(peer) {
            link.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a frame that failed to decode (bad magic/version/length).
    pub fn record_decode_error(&self) {
        self.decode_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a poison frame sent or delivered.
    pub fn record_poison_frame(&self) {
        self.poison_frames.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a nack frame sent (a receiver asking for a retransmission).
    pub fn record_nack(&self) {
        self.nacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> NetSnapshot {
        let per_peer: Vec<PeerLinkSnapshot> = self
            .per_peer
            .iter()
            .enumerate()
            .map(|(peer, link)| PeerLinkSnapshot {
                peer,
                sent: link.sent.load(Ordering::Relaxed),
                received: link.received.load(Ordering::Relaxed),
                retries: link.retries.load(Ordering::Relaxed),
            })
            .collect();
        NetSnapshot {
            frames_sent: per_peer.iter().map(|p| p.sent).sum(),
            frames_received: per_peer.iter().map(|p| p.received).sum(),
            retries: self.retries.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
            poison_frames: self.poison_frames.load(Ordering::Relaxed),
            nacks: self.nacks.load(Ordering::Relaxed),
            per_peer,
        }
    }
}

/// A point-in-time copy of [`NetStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Total frames sent across all links.
    pub frames_sent: u64,
    /// Total frames received across all links.
    pub frames_received: u64,
    /// Retransmissions (send retries plus nack-triggered resends).
    pub retries: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// Poison frames sent or delivered.
    pub poison_frames: u64,
    /// Nack frames sent.
    pub nacks: u64,
    /// Per-peer link rows, indexed by mesh rank.
    pub per_peer: Vec<PeerLinkSnapshot>,
}

/// One peer's row in a [`NetSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerLinkSnapshot {
    /// The peer's mesh rank.
    pub peer: usize,
    /// Frames sent to this peer.
    pub sent: u64,
    /// Frames received from this peer.
    pub received: u64,
    /// Retransmissions toward this peer.
    pub retries: u64,
}

/// The full telemetry picture: flat counters, stall histogram, arrival
/// spread, adaptive-policy state, and per-participant counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// The flat counters (same values as [`BarrierStats::snapshot`]).
    pub base: StatsSnapshot,
    /// Power-of-two-nanosecond histogram of individual stall durations.
    pub stall_hist: HistogramSnapshot,
    /// Per-episode first-to-last arrival gap summary.
    pub spread: SpreadSnapshot,
    /// Wait-cost EWMAs driving [`StallPolicy::Adaptive`] budget sizing.
    pub adaptive: AdaptiveSnapshot,
    /// Per-participant counters; empty for participant-blind stats.
    pub per_participant: Vec<ParticipantSnapshot>,
}

impl TelemetrySnapshot {
    /// Wraps a flat snapshot with empty telemetry — the default
    /// [`crate::SplitBarrier::telemetry`] for backends that only track flat
    /// counters.
    #[must_use]
    pub fn from_base(base: StatsSnapshot) -> Self {
        TelemetrySnapshot {
            base,
            ..TelemetrySnapshot::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_of_fresh_stats_is_zero() {
        let s = BarrierStats::new().snapshot();
        assert_eq!(s, StatsSnapshot::default());
        assert_eq!(s.stall_rate(), 0.0);
        assert_eq!(s.mean_stall_per_wait(), Duration::ZERO);
    }

    #[test]
    fn record_wait_accumulates() {
        let stats = BarrierStats::new();
        stats.record_arrival(0, 0);
        stats.record_wait(
            0,
            &WaitOutcome {
                episode: 0,
                stalled: true,
                descheduled: true,
                probes: 12,
                stall_time: Duration::from_micros(3),
            },
        );
        stats.record_wait(0, &WaitOutcome::default());
        let s = stats.snapshot();
        assert_eq!(s.arrivals, 1);
        assert_eq!(s.waits, 2);
        assert_eq!(s.stalls, 1);
        assert_eq!(s.deschedules, 1);
        assert_eq!(s.probes, 12);
        assert!((s.stall_rate() - 0.5).abs() < f64::EPSILON);
    }

    #[test]
    fn mean_stall_divides_by_waits() {
        let stats = BarrierStats::new();
        for _ in 0..4 {
            stats.record_wait(
                0,
                &WaitOutcome {
                    episode: 0,
                    stalled: true,
                    descheduled: false,
                    probes: 1,
                    stall_time: Duration::from_micros(8),
                },
            );
        }
        let s = stats.snapshot();
        assert_eq!(s.mean_stall_per_wait(), Duration::from_micros(8));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 holds 0 and 1; bucket i holds [2^i, 2^(i+1)).
        assert_eq!(StallHistogram::bucket_index(0), 0);
        assert_eq!(StallHistogram::bucket_index(1), 0);
        assert_eq!(StallHistogram::bucket_index(2), 1);
        assert_eq!(StallHistogram::bucket_index(3), 1);
        assert_eq!(StallHistogram::bucket_index(4), 2);
        assert_eq!(StallHistogram::bucket_index(1023), 9);
        assert_eq!(StallHistogram::bucket_index(1024), 10);
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = StallHistogram::bucket_bounds(i);
            assert_eq!(StallHistogram::bucket_index(lo.max(1)), i);
            assert_eq!(StallHistogram::bucket_index(hi), i);
            if i > 0 {
                let (_, prev_hi) = StallHistogram::bucket_bounds(i - 1);
                assert_eq!(prev_hi + 1, lo, "buckets must tile the u64 range");
            }
        }
    }

    #[test]
    fn histogram_saturates_at_u64_max() {
        let h = StallHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        let s = h.snapshot();
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(s.total(), 2);
        assert_eq!(s.max_bucket(), Some(HISTOGRAM_BUCKETS - 1));
    }

    #[test]
    fn histogram_quantiles() {
        let h = StallHistogram::new();
        for _ in 0..9 {
            h.record(100); // bucket 6 (64..127)
        }
        h.record(1 << 20); // bucket 20
        let s = h.snapshot();
        assert_eq!(s.quantile_upper_bound(0.5), Some(127));
        assert_eq!(s.quantile_upper_bound(1.0), Some((1 << 21) - 1));
        assert_eq!(HistogramSnapshot::default().quantile_upper_bound(0.5), None);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let a = StallHistogram::new();
        let b = StallHistogram::new();
        a.record(10);
        b.record(10);
        b.record(1000);
        let mut sa = a.snapshot();
        sa.merge(&b.snapshot());
        assert_eq!(sa.buckets[StallHistogram::bucket_index(10)], 2);
        assert_eq!(sa.buckets[StallHistogram::bucket_index(1000)], 1);
        assert_eq!(sa.total(), 3);
    }

    #[test]
    fn empty_episode_telemetry_snapshot() {
        let t = BarrierStats::with_participants(3).telemetry();
        assert_eq!(t.base, StatsSnapshot::default());
        assert!(t.stall_hist.is_empty());
        assert_eq!(t.spread, SpreadSnapshot::default());
        assert_eq!(t.spread.mean(), Duration::ZERO);
        assert_eq!(t.per_participant.len(), 3);
        assert!(t
            .per_participant
            .iter()
            .all(|p| *p == ParticipantSnapshot::default()));
    }

    #[test]
    fn spread_measures_first_to_last_arrival() {
        let stats = BarrierStats::with_participants(2);
        stats.record_arrival(0, 0);
        std::thread::sleep(Duration::from_millis(2));
        stats.record_arrival(1, 0);
        stats.record_episode(0);
        let t = stats.telemetry();
        assert_eq!(t.spread.episodes, 1);
        assert!(t.spread.last >= Duration::from_millis(2), "{:?}", t.spread);
        assert_eq!(t.spread.last, t.spread.max);
        assert_eq!(t.spread.last, t.spread.total);
        // The next sampled episode re-arms cleanly.
        stats.record_arrival(0, SPREAD_SAMPLE_PERIOD);
        stats.record_arrival(1, SPREAD_SAMPLE_PERIOD);
        stats.record_episode(SPREAD_SAMPLE_PERIOD);
        let t = stats.telemetry();
        assert_eq!(t.spread.episodes, 2);
        assert!(t.spread.last <= t.spread.max);
    }

    #[test]
    fn means_stay_exact_past_two_to_the_32_samples() {
        let waits = 1u64 << 33;
        let per = Duration::from_micros(3);
        let s = StatsSnapshot {
            waits,
            stall_time: per * 1024 * (1 << 23),
            ..StatsSnapshot::default()
        };
        assert_eq!(s.mean_stall_per_wait(), per);
        let spread = SpreadSnapshot {
            episodes: waits,
            total: s.stall_time,
            ..SpreadSnapshot::default()
        };
        assert_eq!(spread.mean(), per);
    }

    #[test]
    fn overlapping_episode_does_not_pollute_the_spread() {
        let stats = BarrierStats::with_participants(2);
        stats.record_arrival(0, 0);
        stats.record_arrival(1, 0);
        std::thread::sleep(Duration::from_millis(2));
        // Participant 0 runs ahead into episode 1 before episode 0's
        // completion is recorded.
        stats.record_arrival(0, 1);
        stats.record_episode(0);
        let t = stats.telemetry();
        assert_eq!(t.spread.episodes, 1);
        assert!(t.spread.last < Duration::from_millis(2), "{:?}", t.spread);
    }

    #[test]
    fn only_sampled_episodes_measure_the_spread() {
        let stats = BarrierStats::with_participants(1);
        for episode in 0..3 * SPREAD_SAMPLE_PERIOD {
            let e = stats.next_arrival(0);
            assert_eq!(e, episode, "the arrival count is the episode");
            stats.record_episode(e);
        }
        let t = stats.telemetry();
        assert_eq!(t.base.episodes, 3 * SPREAD_SAMPLE_PERIOD);
        assert_eq!(t.spread.episodes, 3);
    }

    #[test]
    fn adaptive_snapshot_pools_the_participants() {
        let stats = BarrierStats::with_participants(2);
        let wait = |probes| WaitOutcome {
            episode: 0,
            stalled: true,
            descheduled: false,
            probes,
            stall_time: Duration::from_nanos(probes * 10),
        };
        stats.record_wait(0, &wait(100));
        for _ in 0..3 {
            stats.record_wait(1, &wait(20));
        }
        let a = stats.telemetry().adaptive;
        assert_eq!(a.observations, 4);
        assert_eq!(a.ewma_probes, (100 + 3 * 20) / 4);
        assert_eq!(a.ewma_stall, Duration::from_nanos((1000 + 3 * 200) / 4));
        // Each participant's policy is sized from its own history.
        assert_eq!(
            stats.resolve_policy(0, StallPolicy::adaptive()),
            StallPolicy::SpinYield { spin_limit: 200 }
        );
        assert_eq!(
            stats.resolve_policy(1, StallPolicy::adaptive()),
            StallPolicy::SpinYield { spin_limit: 40 }
        );
    }

    #[test]
    fn fault_counters_accumulate() {
        let stats = BarrierStats::with_participants(2);
        stats.record_timeout(
            1,
            &crate::spin::SpinReport {
                probes: 40,
                descheduled: true,
                waited: Duration::from_micros(9),
                timed_out: true,
            },
        );
        stats.record_eviction();
        stats.record_poisoning();
        let t = stats.telemetry();
        assert_eq!(t.base.timeouts, 1);
        assert_eq!(t.base.evictions, 1);
        assert_eq!(t.base.poisonings, 1);
        assert_eq!(t.base.deschedules, 1);
        assert_eq!(t.base.stall_time, Duration::from_micros(9));
        assert_eq!(t.stall_hist.total(), 1, "timeout stall lands in the hist");
        assert_eq!(t.per_participant[1].probes, 40);
        // Waits/stalls untouched: the arrival has not completed its wait.
        assert_eq!(t.base.waits, 0);
        assert_eq!(t.base.stalls, 0);
    }

    #[test]
    fn per_participant_counters_attribute_stalls() {
        let stats = BarrierStats::with_participants(2);
        stats.record_arrival(0, 0);
        stats.record_arrival(1, 0);
        stats.record_wait(
            1,
            &WaitOutcome {
                episode: 0,
                stalled: true,
                descheduled: false,
                probes: 7,
                stall_time: Duration::from_micros(5),
            },
        );
        stats.record_wait(0, &WaitOutcome::default());
        let t = stats.telemetry();
        assert_eq!(t.per_participant[0].stalls, 0);
        assert_eq!(t.per_participant[1].stalls, 1);
        assert_eq!(t.per_participant[1].probes, 7);
        assert_eq!(t.per_participant[1].stall_time, Duration::from_micros(5));
        assert_eq!(t.stall_hist.total(), 1);
        // Out-of-range ids (from participant-blind callers) are ignored,
        // not a panic.
        stats.record_wait(9, &WaitOutcome::default());
        assert_eq!(stats.snapshot().waits, 3);
    }

    #[test]
    fn waits_feed_the_adaptive_history() {
        let stats = BarrierStats::with_participants(2);
        stats.record_wait(
            0,
            &WaitOutcome {
                episode: 0,
                stalled: true,
                descheduled: false,
                probes: 64,
                stall_time: Duration::from_nanos(400),
            },
        );
        let t = stats.telemetry();
        assert_eq!(t.adaptive.observations, 1);
        assert_eq!(t.adaptive.ewma_probes, 64);
        assert_eq!(t.adaptive.ewma_stall, Duration::from_nanos(400));
        // Short recorded waits produce a budget near twice the EWMA, so an
        // adaptive policy resolves to a concrete SpinYield in that range.
        let resolved = stats.resolve_policy(0, StallPolicy::adaptive());
        assert_eq!(resolved, StallPolicy::SpinYield { spin_limit: 128 });
        // Non-adaptive policies are untouched.
        assert_eq!(
            stats.resolve_policy(0, StallPolicy::Spin),
            StallPolicy::Spin
        );
        // Timeouts count as (expensive) waits in the history too.
        stats.record_timeout(
            1,
            &crate::spin::SpinReport {
                probes: 1_000,
                descheduled: true,
                waited: Duration::from_millis(10),
                timed_out: true,
            },
        );
        assert_eq!(stats.telemetry().adaptive.observations, 2);
        assert!(stats.telemetry().adaptive.ewma_stall > Duration::from_nanos(400));
    }

    #[test]
    fn net_stats_aggregates_match_per_peer_rows() {
        let net = NetStats::new(3);
        net.record_send(1);
        net.record_send(2);
        net.record_send(2);
        net.record_recv(1);
        net.record_retry(2);
        net.record_decode_error();
        net.record_poison_frame();
        net.record_nack();
        let snap = net.snapshot();
        assert_eq!(snap.frames_sent, 3);
        assert_eq!(snap.frames_received, 1);
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.decode_errors, 1);
        assert_eq!(snap.poison_frames, 1);
        assert_eq!(snap.nacks, 1);
        assert_eq!(snap.per_peer.len(), 3);
        assert_eq!(snap.per_peer[2].sent, 2);
        assert_eq!(snap.per_peer[2].retries, 1);
        assert_eq!(snap.per_peer[0].sent, 0);
        // Out-of-range ranks never panic and never skew the per-peer rows.
        net.record_send(99);
        assert_eq!(
            net.snapshot().per_peer.iter().map(|p| p.sent).sum::<u64>(),
            3
        );
    }
}
