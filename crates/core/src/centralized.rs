//! Centralized (single-counter) split-phase barrier.

use crate::episode::{ArrivalProtocol, EpisodeCore};
use crate::error::BarrierError;
use crate::spin::StallPolicy;
use crate::sync::{Atomic, RealSync, SyncOps};
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// A centralized split-phase barrier: one shared count-down word plus a
/// 64-bit episode number that plays the role of the classic sense flag.
///
/// This is the epoch-based variant of the sense-reversing centralized
/// barrier. The last participant to arrive resets the counter and bumps the
/// episode; waiters spin until the episode advances past the one captured
/// in their [`crate::ArrivalToken`]. A 64-bit epoch has no reuse hazard,
/// which is the only job the sense flag performs in the boolean
/// formulation.
///
/// The shared counter is the **hot-spot** the paper warns about (Sec. 1):
/// every participant performs a read-modify-write on the same cache line
/// per episode, so arrival cost grows linearly with contention. The
/// [`crate::DisseminationBarrier`] and [`crate::TreeBarrier`] backends avoid
/// it; keeping this backend around is what lets the experiment suite show
/// the contrast.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{CentralBarrier, SplitBarrier};
///
/// let b = CentralBarrier::new(1);
/// let token = b.arrive(0);
/// let outcome = b.wait(token);
/// assert!(!outcome.stalled);
/// ```
#[derive(Debug)]
pub struct CentralBarrier<S: SyncOps = RealSync> {
    core: EpisodeCore<S>,
    /// Remaining arrivals in the current episode (counts down from the
    /// core's live count).
    count: CachePadded<S::AtomicUsize>,
    /// Number of completed episodes; the release word waiters spin on.
    episode: CachePadded<S::AtomicU64>,
}

impl CentralBarrier {
    /// Creates a barrier for `n` participants with the default stall policy.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self::with_policy(n, StallPolicy::default())
    }

    /// Creates a barrier with an explicit [`StallPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_policy(n: usize, policy: StallPolicy) -> Self {
        Self::with_policy_in(n, policy)
    }
}

impl<S: SyncOps> CentralBarrier<S> {
    /// Creates a barrier in an explicit [`SyncOps`] domain — `RealSync` in
    /// production, instrumented shadow state under the `fuzzy-check` model
    /// checker.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_policy_in(n: usize, policy: StallPolicy) -> Self {
        CentralBarrier {
            core: EpisodeCore::new(n, policy),
            count: CachePadded::new(S::AtomicUsize::new(n)),
            episode: CachePadded::new(S::AtomicU64::new(0)),
        }
    }

    /// The stall policy waits use.
    #[must_use]
    pub fn policy(&self) -> StallPolicy {
        self.core.policy()
    }

    /// Participants still in the barrier (the construction count minus
    /// departures via [`Self::leave`] and evictions).
    #[must_use]
    pub fn remaining_participants(&self) -> usize {
        self.core.remaining()
    }

    /// Permanently removes participant `id` from the barrier — the
    /// analogue of C++20 `std::barrier::arrive_and_drop`, useful when
    /// streams are destroyed dynamically (Sec. 5). The departure counts
    /// as an arrival for the current episode (possibly completing it);
    /// subsequent episodes expect one fewer participant. The departed
    /// participant must not call `arrive` or `wait` again.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range, already left or was evicted, or if
    /// called when only one participant remains (a barrier needs at least
    /// one).
    pub fn leave(&self, id: usize) {
        match self.core.depart(id) {
            Ok(()) => {}
            Err(BarrierError::EmptyGroup) => {
                panic!("the last remaining participant cannot leave the barrier")
            }
            Err(e) => panic!("CentralBarrier::leave({id}): {e}"),
        }
        self.core.begin_arrival(id);
        self.count_down();
    }

    /// One arrival (real, departing, or stand-in) against the count-down
    /// word. The departure paths shrink the core's live count BEFORE this
    /// decrement: the episode resetter reads it after winning the count,
    /// and the RMW chain on `count` orders the shrink before that read.
    #[inline]
    fn count_down(&self) {
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arriver: re-arm the counter for the next episode, then
            // publish completion. The order matters — participants released
            // by the episode bump may immediately arrive again and must see
            // a full counter.
            self.count.store(self.core.remaining(), Ordering::Release);
            let episode = self.episode.fetch_add(1, Ordering::Release);
            self.core.stats().record_episode(episode);
        }
    }
}

impl<S: SyncOps> ArrivalProtocol for CentralBarrier<S> {
    type Domain = S;

    fn core(&self) -> &EpisodeCore<S> {
        &self.core
    }

    #[inline]
    fn arrive_at(&self, _id: usize, _episode: u64) {
        self.count_down();
    }

    #[inline]
    fn released(&self, _id: usize, episode: u64) -> bool {
        self.episode.load(Ordering::Acquire) > episode
    }

    fn stand_in(&self, _id: usize) {
        self.count_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitBarrier;
    use std::sync::Arc;

    #[test]
    #[should_panic(expected = "at least one participant")]
    fn zero_participants_panics() {
        let _ = CentralBarrier::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_id_panics() {
        let b = CentralBarrier::new(2);
        let _ = b.arrive(2);
    }

    #[test]
    fn episodes_advance_in_order() {
        let b = CentralBarrier::new(1);
        for e in 0..5 {
            let t = b.arrive(0);
            assert_eq!(t.episode(), e);
            assert!(b.is_complete(&t));
            b.wait(t);
        }
    }

    #[test]
    fn four_threads_thousand_episodes() {
        let n = 4;
        let b = Arc::new(CentralBarrier::new(n));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..1000u64 {
                        let t = b.arrive(id);
                        let o = b.wait(t);
                        assert_eq!(o.episode, e);
                    }
                });
            }
        });
        let s = b.stats();
        assert_eq!(s.episodes, 1000);
        assert_eq!(s.arrivals, 4000);
        assert_eq!(s.waits, 4000);
    }

    #[test]
    fn barrier_actually_separates_phases() {
        // Writer/reader pairs: each thread writes its cell before the
        // barrier and reads its neighbour's after; the value must always be
        // the neighbour's write from the same phase.
        use std::sync::atomic::AtomicU64;
        let n = 4;
        let cells: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let b = Arc::new(CentralBarrier::new(n));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                let cells = Arc::clone(&cells);
                s.spawn(move || {
                    for phase in 1..=500u64 {
                        cells[id].store(phase, Ordering::Release);
                        let t = b.arrive(id);
                        b.wait(t);
                        let neighbour = cells[(id + 1) % n].load(Ordering::Acquire);
                        assert!(
                            neighbour >= phase,
                            "participant {id} saw stale phase {neighbour} < {phase}"
                        );
                        // A second barrier keeps phases from overlapping the
                        // next store.
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
    }

    #[test]
    fn leaving_shrinks_the_barrier() {
        let b = Arc::new(CentralBarrier::new(3));
        std::thread::scope(|s| {
            // Participant 2 runs one episode, then leaves.
            let b2 = Arc::clone(&b);
            s.spawn(move || {
                let t = b2.arrive(2);
                b2.wait(t);
                b2.leave(2);
            });
            for id in 0..2 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..50 {
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
        assert_eq!(b.remaining_participants(), 2);
        assert_eq!(b.stats().episodes, 50);
    }

    #[test]
    fn leave_can_complete_the_current_episode() {
        let b = Arc::new(CentralBarrier::new(2));
        std::thread::scope(|s| {
            let b0 = Arc::clone(&b);
            s.spawn(move || {
                let t = b0.arrive(0);
                // Participant 1 never arrives — it leaves instead, which
                // must release us.
                let o = b0.wait(t);
                assert_eq!(o.episode, 0);
            });
            let b1 = Arc::clone(&b);
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                b1.leave(1);
            });
        });
        assert_eq!(b.remaining_participants(), 1);
        // The lone survivor can keep synchronizing with itself.
        let t = b.arrive(0);
        assert!(!b.wait(t).stalled);
    }

    #[test]
    #[should_panic(expected = "last remaining participant")]
    fn last_participant_cannot_leave() {
        let b = CentralBarrier::new(1);
        b.leave(0);
    }

    #[test]
    fn evict_after_leave_is_rejected() {
        // One departure record: a left participant is not evicted again,
        // so the barrier keeps expecting both survivors.
        let b = CentralBarrier::new(3);
        b.leave(2);
        assert_eq!(
            b.evict(2).unwrap_err(),
            BarrierError::NotAParticipant { id: 2 }
        );
        assert_eq!(b.remaining_participants(), 2);
        let t0 = b.arrive(0);
        assert!(!b.is_complete(&t0), "episode 0 still waits for 1");
        let t1 = b.arrive(1);
        assert_eq!(b.wait(t0).episode, 0);
        assert_eq!(b.wait(t1).episode, 0);
    }

    #[test]
    #[should_panic(expected = "not in the barrier mask")]
    fn leave_after_evict_panics() {
        let b = CentralBarrier::new(3);
        b.evict(2).unwrap();
        b.leave(2);
    }

    #[test]
    fn stall_detection_sees_late_arriver() {
        let b = Arc::new(CentralBarrier::new(2));
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
                // The last arriver completes the episode itself, so it
                // must not stall.
                assert!(!o.stalled);
            });
        });
        assert!(
            b.stats().stalls >= 1,
            "the early thread should have stalled"
        );
    }
}
