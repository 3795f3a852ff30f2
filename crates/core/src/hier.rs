//! Topology-aware hierarchical split-phase barrier.
//!
//! Flat backends make every participant touch globally shared state each
//! episode: one counter word (centralized/counting) or O(log N) pairwise
//! flags spanning all participants (dissemination). [`HierBarrier`]
//! localizes arrival traffic instead: participants are partitioned into
//! contiguous *shards*, each shard owns its own cache-line-padded arrivals
//! word, and only the last arriver of a shard — its *leader* for that
//! episode — takes part in the top level: a flat
//! [`DisseminationBarrier`] or [`TreeBarrier`] with one participant per
//! shard. Release is broadcast back per shard through a shard-local epoch
//! word, so steady-state waiters poll a line that only their own shard
//! writes.
//!
//! The shape follows the cluster-hierarchical barriers used on manycore
//! RISC-V fabrics (see PAPERS.md): arrival cost is O(shard) contention on
//! a private line plus O(log shards) leader traffic, instead of O(N) on
//! one hot line. The fuzzy split is fully preserved — `arrive` never
//! blocks, even for the leader, whose top-level sign-in is non-blocking.

use crate::dissemination::DisseminationBarrier;
use crate::episode::{ArrivalProtocol, EpisodeCore};
use crate::spin::StallPolicy;
use crate::sync::{Atomic, RealSync, SyncOps};
use crate::tree::TreeBarrier;
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// How shard leaders synchronize once every member of their shard has
/// arrived.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TopLevel {
    /// A [`DisseminationBarrier`] over the shards: no shared word at all,
    /// `ceil(log2(shards))` rounds, each shard discovers completion
    /// itself. The default.
    #[default]
    Dissemination,
    /// A fan-in-2 [`TreeBarrier`] over the shards: the root publishes a
    /// single global episode word that all shards' waiters poll until
    /// their shard epoch catches up.
    Tree,
}

/// Per-shard arrival state. Each shard is wrapped in a `CachePadded` so
/// the hot `count` word of one shard never false-shares with another's.
#[derive(Debug)]
struct Shard<S: SyncOps> {
    /// Remaining arrivals in the shard's current episode (counts down
    /// from `expected`).
    count: S::AtomicUsize,
    /// Live members of the shard (shrinks on eviction; 0 = dead shard).
    expected: S::AtomicUsize,
    /// Highest episode goal broadcast to this shard's waiters — the
    /// shard-local release word.
    epoch: S::AtomicU64,
    /// Episodes this shard has fully arrived for (its sign-in counter).
    arrived: S::AtomicU64,
}

/// The top level: a flat barrier whose participant `k` is shard `k`.
#[derive(Debug)]
enum Top<S: SyncOps> {
    Dissemination(DisseminationBarrier<S>),
    Tree(TreeBarrier<S>),
}

impl<S: SyncOps> Top<S> {
    fn protocol(&self) -> &dyn ArrivalProtocol<Domain = S> {
        match self {
            Top::Dissemination(d) => d,
            Top::Tree(t) => t,
        }
    }
}

/// A hierarchical split-phase barrier: sharded arrival words, a
/// configurable leader protocol over shards, and per-shard release
/// broadcast.
///
/// Participant `id` belongs to shard `id / shard_size` (shards are
/// contiguous, so co-scheduled neighbours share a shard and its arrival
/// line). The last member to arrive in a shard re-arms the shard counter
/// and *signs the shard in* at the top level without blocking; waiters
/// poll their shard's epoch word, falling back to the top level until the
/// first of them observes completion and broadcasts it into the epoch
/// word for the rest.
///
/// [`HierBarrier::new`] pairs the hierarchy with
/// [`StallPolicy::adaptive`]: sharding shortens the common wait, and the
/// adaptive budget stops paying long spin budgets when waits are long
/// anyway — the two halves of this backend's performance story.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{HierBarrier, SplitBarrier};
///
/// let b = HierBarrier::new(1);
/// let token = b.arrive(0);
/// let outcome = b.wait(token);
/// assert!(!outcome.stalled);
/// ```
#[derive(Debug)]
pub struct HierBarrier<S: SyncOps = RealSync> {
    core: EpisodeCore<S>,
    shard_size: usize,
    shards: Box<[CachePadded<Shard<S>>]>,
    top: Top<S>,
    /// Highest global episode goal a waiter has observed complete; feeds
    /// this barrier's episode count.
    episode: CachePadded<S::AtomicU64>,
}

impl HierBarrier {
    /// Default shard size: 8 participants share one arrival word, the
    /// sweet spot between shard-local contention and leader count for
    /// line-sized sharing domains.
    pub const DEFAULT_SHARD_SIZE: usize = 8;

    /// Creates a hierarchical barrier for `n` participants with the
    /// default shard size, a dissemination top level, and — unlike the
    /// flat backends — [`StallPolicy::adaptive`], this backend's
    /// canonical configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_policy(n, StallPolicy::adaptive())
    }

    /// Creates a barrier with an explicit [`StallPolicy`] (default shard
    /// size and top level).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_policy(n: usize, policy: StallPolicy) -> Self {
        Self::with_shards(n, Self::DEFAULT_SHARD_SIZE, TopLevel::default(), policy)
    }

    /// Creates a barrier with explicit shard size and top-level protocol.
    /// `shard_size` is clamped to `1..=n`; size 1 degenerates to a pure
    /// top-level barrier over singleton shards, size `n` to a single
    /// centralized shard.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `shard_size == 0`.
    #[must_use]
    pub fn with_shards(n: usize, shard_size: usize, top: TopLevel, policy: StallPolicy) -> Self {
        Self::with_shards_in(n, shard_size, top, policy)
    }
}

impl<S: SyncOps> HierBarrier<S> {
    /// Creates a barrier in an explicit [`SyncOps`] domain — `RealSync` in
    /// production, instrumented shadow state under the `fuzzy-check` model
    /// checker.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `shard_size == 0`.
    #[must_use]
    pub fn with_shards_in(
        n: usize,
        shard_size: usize,
        top_level: TopLevel,
        policy: StallPolicy,
    ) -> Self {
        let core = EpisodeCore::new(n, policy);
        assert!(shard_size > 0, "a shard needs at least one member");
        let shard_size = shard_size.min(n);
        let m = n.div_ceil(shard_size);
        let shards = (0..m)
            .map(|k| {
                let members = shard_size.min(n - k * shard_size);
                CachePadded::new(Shard {
                    count: S::AtomicUsize::new(members),
                    expected: S::AtomicUsize::new(members),
                    epoch: S::AtomicU64::new(0),
                    arrived: S::AtomicU64::new(0),
                })
            })
            .collect();
        let top = match top_level {
            TopLevel::Dissemination => {
                Top::Dissemination(DisseminationBarrier::with_policy_in(m, policy))
            }
            TopLevel::Tree => Top::Tree(TreeBarrier::with_fan_in_in(m, 2, policy)),
        };
        HierBarrier {
            core,
            shard_size,
            shards,
            top,
            episode: CachePadded::new(S::AtomicU64::new(0)),
        }
    }

    /// The stall policy waits use.
    #[must_use]
    pub fn policy(&self) -> StallPolicy {
        self.core.policy()
    }

    /// The (clamped) shard size.
    #[must_use]
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// Number of shards (`ceil(n / shard_size)`).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The leader protocol over shards.
    #[must_use]
    pub fn top_level(&self) -> TopLevel {
        match self.top {
            Top::Dissemination(_) => TopLevel::Dissemination,
            Top::Tree(_) => TopLevel::Tree,
        }
    }

    /// Participants still in the barrier (construction count minus
    /// evictions).
    #[must_use]
    pub fn remaining_participants(&self) -> usize {
        self.core.remaining()
    }

    fn shard_of(&self, id: usize) -> usize {
        id / self.shard_size
    }

    /// One arrival (real or eviction stand-in) against shard `k`'s
    /// count-down word. The member that completes the shard re-arms the
    /// counter and signs the shard in at the top level — *without
    /// blocking*, preserving the fuzzy split for the leader too.
    fn shard_arrival(&self, k: usize) {
        let shard = &self.shards[k];
        if shard.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Re-arm BEFORE the sign-in: the sign-in can transitively
            // complete the top level and release this shard's waiters,
            // which may immediately re-arrive and must find a full
            // counter. The expectation is re-read because members may
            // have been evicted meanwhile.
            let expected = shard.expected.load(Ordering::Acquire);
            shard.count.store(expected, Ordering::Release);
            let episode = shard.arrived.fetch_add(1, Ordering::AcqRel);
            self.top.protocol().arrive_at(k, episode);
        }
    }

    /// The wait predicate: is episode `goal` (1-based) complete from
    /// shard `k`'s point of view? The shard epoch word is the fast path;
    /// the first waiter to observe top-level completion broadcasts it
    /// there so the rest of the shard stops touching global state.
    ///
    /// The `arrived >= goal` gate is the fuzzy guard: the top may only be
    /// asked about — and so may only drive — a shard that has fully
    /// arrived. Incoming top-level signals prove only that the *other*
    /// shards arrived; relaying them for a shard with stragglers would
    /// release its waiters early.
    fn episode_done(&self, k: usize, goal: u64) -> bool {
        let shard = &self.shards[k];
        if shard.epoch.load(Ordering::Acquire) >= goal {
            return true;
        }
        if shard.arrived.load(Ordering::Acquire) < goal || !self.top_released(k, goal) {
            return false;
        }
        // An episode completed by an eviction may have had no waiter, so
        // count every goal this observation newly covers.
        for episode in self.episode.fetch_max(goal, Ordering::AcqRel)..goal {
            self.core.stats().record_episode(episode);
        }
        shard.epoch.fetch_max(goal, Ordering::AcqRel);
        true
    }

    /// Top-level completion of `goal` for the signed-in shard `k`. A
    /// dissemination top stuck on a relay helps along: it drives every
    /// other signed-in shard's rounds (whose own waiters may simply not be
    /// polling right now), one sweep per round at most, so a single
    /// probing waiter can discover a globally complete episode by itself.
    /// A live shard that has not signed in ends the probe early: `goal`
    /// cannot be complete without it.
    fn top_released(&self, k: usize, goal: u64) -> bool {
        if self.top.protocol().released(k, goal - 1) {
            return true;
        }
        let Top::Dissemination(top) = &self.top else {
            return false;
        };
        for _ in 0..top.rounds() {
            for j in (0..self.shards.len()).filter(|&j| j != k) {
                if self.shards[j].arrived.load(Ordering::Acquire) >= goal {
                    top.released(j, goal - 1);
                } else if !top.core().is_departed(j) {
                    return false;
                }
            }
            if top.released(k, goal - 1) {
                return true;
            }
        }
        false
    }
}

impl<S: SyncOps> ArrivalProtocol for HierBarrier<S> {
    type Domain = S;

    fn core(&self) -> &EpisodeCore<S> {
        &self.core
    }

    fn arrive_at(&self, id: usize, _episode: u64) {
        self.shard_arrival(self.shard_of(id));
    }

    fn released(&self, id: usize, episode: u64) -> bool {
        // Like the dissemination backend, this may drive shards through
        // their pending top-level rounds.
        self.episode_done(self.shard_of(id), episode + 1)
    }

    fn stand_in(&self, id: usize) {
        let k = self.shard_of(id);
        // Shrink the shard's expectation BEFORE the stand-in arrival so
        // the shard's re-armer picks up the shrunk value (same discipline
        // as the flat backends).
        let prev = self.shards[k].expected.fetch_sub(1, Ordering::AcqRel);
        if prev == 1 {
            // Last live member: the shard dies and leaves the top level
            // the way an evicted participant leaves a flat barrier. (The
            // core keeps a live participant, hence a live shard, so the
            // top is never emptied; a shard with waiters has live
            // members, so it never dies under them.)
            let top = self.top.protocol();
            top.core()
                .depart(k)
                .expect("another shard has a live member");
            top.stand_in(k);
        } else {
            self.shard_arrival(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BarrierError, Deadline, SplitBarrier};
    use std::sync::Arc;

    /// Every (n, shard_size) shape used by the sweeps below, including
    /// non-power-of-two N and both degenerate shard sizes.
    const SHAPES: &[(usize, usize)] = &[
        (1, 1),
        (2, 1),
        (2, 2),
        (3, 1),
        (3, 2),
        (3, 3),
        (4, 2),
        (5, 2),
        (5, 5),
        (6, 4),
        (7, 1),
        (7, 3),
        (7, 7),
        (9, 4),
        (13, 4),
    ];

    const TOPS: &[TopLevel] = &[TopLevel::Dissemination, TopLevel::Tree];

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        let _ = HierBarrier::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn zero_shard_size_panics() {
        let _ = HierBarrier::with_shards(4, 0, TopLevel::Dissemination, StallPolicy::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        let b = HierBarrier::new(2);
        let _ = b.arrive(2);
    }

    #[test]
    fn default_configuration_is_adaptive_dissemination() {
        let b = HierBarrier::new(20);
        assert!(matches!(b.policy(), StallPolicy::Adaptive { .. }));
        assert_eq!(b.top_level(), TopLevel::Dissemination);
        assert_eq!(b.shard_size(), HierBarrier::DEFAULT_SHARD_SIZE);
        assert_eq!(b.shard_count(), 3);
    }

    #[test]
    fn shard_shapes_and_clamping() {
        let b: HierBarrier =
            HierBarrier::with_shards(5, 100, TopLevel::Dissemination, StallPolicy::default());
        assert_eq!(b.shard_size(), 5, "shard size clamps to n");
        assert_eq!(b.shard_count(), 1);
        let b: HierBarrier = HierBarrier::with_shards(7, 1, TopLevel::Tree, StallPolicy::default());
        assert_eq!(b.shard_count(), 7, "size 1 degenerates to pure top level");
    }

    #[test]
    fn episodes_advance_in_order_for_all_shapes() {
        for &top in TOPS {
            for &(n, shard) in SHAPES {
                let b = HierBarrier::with_shards(n, shard, top, StallPolicy::default());
                // Single-threaded full rotation: everyone arrives, then
                // everyone waits (the fuzzy split — no arrive may block).
                for e in 0..5u64 {
                    let tokens: Vec<_> = (0..n).map(|id| b.arrive(id)).collect();
                    for t in tokens {
                        assert_eq!(t.episode(), e, "{top:?} n={n} shard={shard}");
                        assert!(b.is_complete(&t));
                        let o = b.wait(t);
                        assert!(!o.stalled);
                    }
                }
                let s = b.stats();
                assert_eq!(s.episodes, 5, "{top:?} n={n} shard={shard}");
                assert_eq!(s.arrivals, 5 * n as u64);
                assert_eq!(s.waits, 5 * n as u64);
            }
        }
    }

    #[test]
    fn many_threads_many_shapes() {
        let episodes = 60u64;
        for &top in TOPS {
            for &(n, shard) in &[(3usize, 2usize), (4, 2), (5, 2), (7, 3), (9, 4), (13, 4)] {
                let b = Arc::new(HierBarrier::with_shards(
                    n,
                    shard,
                    top,
                    StallPolicy::yielding(),
                ));
                std::thread::scope(|s| {
                    for id in 0..n {
                        let b = Arc::clone(&b);
                        s.spawn(move || {
                            for e in 0..episodes {
                                let t = b.arrive(id);
                                let o = b.wait(t);
                                assert_eq!(o.episode, e, "{top:?} n={n} shard={shard}");
                            }
                        });
                    }
                });
                let s = b.stats();
                assert_eq!(s.episodes, episodes, "{top:?} n={n} shard={shard}");
                assert_eq!(s.arrivals, episodes * n as u64);
                assert_eq!(s.waits, episodes * n as u64);
            }
        }
    }

    #[test]
    fn adaptive_policy_end_to_end() {
        // The default (adaptive) configuration, multi-threaded: budgets
        // resolve per wait from live history without disturbing counts.
        let n = 6;
        let b = Arc::new(HierBarrier::with_shards(
            n,
            2,
            TopLevel::Dissemination,
            StallPolicy::adaptive(),
        ));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..100u64 {
                        let t = b.arrive(id);
                        assert_eq!(b.wait(t).episode, e);
                    }
                });
            }
        });
        let t = b.telemetry();
        assert_eq!(t.base.episodes, 100);
        assert_eq!(t.adaptive.observations, 100 * n as u64);
    }

    #[test]
    fn barrier_actually_separates_phases() {
        use std::sync::atomic::AtomicU64;
        for &top in TOPS {
            let n = 5;
            let cells: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
            let b = Arc::new(HierBarrier::with_shards(n, 2, top, StallPolicy::yielding()));
            std::thread::scope(|s| {
                for id in 0..n {
                    let b = Arc::clone(&b);
                    let cells = Arc::clone(&cells);
                    s.spawn(move || {
                        for phase in 1..=200u64 {
                            cells[id].store(phase, Ordering::Release);
                            let t = b.arrive(id);
                            b.wait(t);
                            // Cross-shard read: id 0 (shard 0) checks id
                            // n-1 (last shard) and vice versa.
                            let neighbour = cells[(id + 1) % n].load(Ordering::Acquire);
                            assert!(
                                neighbour >= phase,
                                "{top:?}: participant {id} saw stale phase {neighbour} < {phase}"
                            );
                            let t = b.arrive(id);
                            b.wait(t);
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn stall_detection_sees_late_arriver() {
        // Participants in *different* shards: the early one must stall
        // until the late shard signs in through the top level.
        let b = Arc::new(HierBarrier::with_shards(
            2,
            1,
            TopLevel::Dissemination,
            StallPolicy::yielding(),
        ));
        std::thread::scope(|s| {
            let early = Arc::clone(&b);
            s.spawn(move || {
                let t = early.arrive(0);
                let o = early.wait(t);
                assert_eq!(o.episode, 0);
            });
            let late = Arc::clone(&b);
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                let t = late.arrive(1);
                let o = late.wait(t);
                assert!(!o.stalled, "the last arriver completes the episode");
            });
        });
        assert!(
            b.stats().stalls >= 1,
            "the early thread should have stalled"
        );
    }

    #[test]
    fn stalled_participant_times_out_then_eviction_recovers() {
        for &top in TOPS {
            let n = 5;
            let b = Arc::new(HierBarrier::with_shards(n, 2, top, StallPolicy::yielding()));
            std::thread::scope(|s| {
                for id in 0..4 {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        let t = b.arrive(id);
                        let err = b
                            .wait_deadline(t, Deadline::after(std::time::Duration::from_millis(30)))
                            .unwrap_err();
                        assert_eq!(err, BarrierError::Timeout { episode: 0 }, "{top:?}");
                    });
                }
            });
            // Participant 4 is the sole member of the last shard: evicting
            // it kills that shard entirely, exercising ghost sign-ins
            // (dissemination) / tree shrinking (tree).
            b.evict(4).unwrap();
            assert_eq!(b.remaining_participants(), 4);
            std::thread::scope(|s| {
                for id in 0..4 {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        let t = b.arrive(id);
                        let o = b.wait(t);
                        assert_eq!(o.episode, 1, "{top:?}");
                    });
                }
            });
            let stats = b.stats();
            assert_eq!(stats.timeouts, 4, "{top:?}");
            assert_eq!(stats.evictions, 1);
            assert_eq!(stats.episodes, 2);
        }
    }

    #[test]
    fn whole_shard_eviction_mid_group() {
        // Kill an *interior* shard ({2,3} of shards {0,1},{2,3},{4}) while
        // nobody has arrived, then run episodes over the survivors.
        for &top in TOPS {
            let b = Arc::new(HierBarrier::with_shards(5, 2, top, StallPolicy::yielding()));
            b.evict(2).unwrap();
            b.evict(3).unwrap();
            assert_eq!(b.remaining_participants(), 3);
            std::thread::scope(|s| {
                for id in [0usize, 1, 4] {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        for e in 0..30u64 {
                            let t = b.arrive(id);
                            assert_eq!(b.wait(t).episode, e, "{top:?}");
                        }
                    });
                }
            });
            assert_eq!(b.stats().episodes, 30, "{top:?}");
        }
    }

    #[test]
    fn eviction_completes_in_flight_episode() {
        for &top in TOPS {
            let b: HierBarrier = HierBarrier::with_shards(3, 2, top, StallPolicy::yielding());
            // Shard {0,1}: 0 arrives; shard {2}: 2 arrives. Evicting 1
            // supplies the missing arrival and completes episode 0.
            let t0 = b.arrive(0);
            let t2 = b.arrive(2);
            assert!(!b.is_complete(&t0), "{top:?}");
            b.evict(1).unwrap();
            assert_eq!(b.wait(t0).episode, 0, "{top:?}");
            assert_eq!(b.wait(t2).episode, 0, "{top:?}");
            assert_eq!(b.stats().episodes, 1);
        }
    }

    #[test]
    fn telemetry_per_participant_attribution() {
        let n = 4;
        let b = Arc::new(HierBarrier::with_shards(
            n,
            2,
            TopLevel::Dissemination,
            StallPolicy::yielding(),
        ));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..20u64 {
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
        let t = b.telemetry();
        assert_eq!(t.per_participant.len(), n);
        let per: u64 = t.per_participant.iter().map(|p| p.arrivals).sum();
        assert_eq!(per, 20 * n as u64);
        assert_eq!(t.base, b.stats());
    }
}
