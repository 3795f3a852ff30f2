//! Dissemination split-phase barrier — O(log n) rounds, no hot spot.

use crate::episode::{ArrivalProtocol, EpisodeCore};
use crate::spin::StallPolicy;
use crate::sync::{Atomic, RealSync, SyncOps};
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// A dissemination barrier with a split-phase interface.
///
/// In round *r* participant *i* signals participant *(i + 2^r) mod n* and
/// waits for the signal from *(i − 2^r) mod n*; after ⌈log₂ n⌉ rounds every
/// participant transitively knows that everyone arrived. No word is written
/// on behalf of more than one participant, so there is no hot spot — this
/// is the "best possible software implementation" with logarithmic cost
/// that the paper cites (\[4\] in Sec. 1).
///
/// The split is cooperative: [`crate::SplitBarrier::arrive`] performs the
/// round-0 signal and returns; later rounds progress inside
/// [`crate::SplitBarrier::is_complete`] / [`crate::SplitBarrier::wait`]
/// probes. Signals carry monotone episode numbers, so late observers of an
/// overwritten slot still see a value at least as large as the one they
/// wait for. All protocol state only grows (`fetch_max`), so any number of
/// threads may drive the rounds of a participant that has arrived — the
/// property [`crate::HierBarrier`] relies on when it runs this protocol
/// over its shards.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{DisseminationBarrier, SplitBarrier};
///
/// let b = DisseminationBarrier::new(1);
/// let t = b.arrive(0);
/// assert!(!b.wait(t).stalled);
/// ```
#[derive(Debug)]
pub struct DisseminationBarrier<S: SyncOps = RealSync> {
    core: EpisodeCore<S>,
    n: usize,
    rounds: u32,
    /// `flags[r * n + i]`: highest episode for which the round-`r` signal
    /// aimed at participant `i` has been sent. Every driver of the sender
    /// may write the slot, so writes are `fetch_max`: the value only grows.
    ///
    /// False-sharing audit: every slot is individually [`CachePadded`], so
    /// two participants' flags can never share a line regardless of layout.
    /// The slots are kept in **one** round-major allocation (rather than a
    /// `Vec` per round) so the outer spine is a single pointer-width block:
    /// the per-round `Vec` headers (ptr/len/cap triples, 24 bytes apiece)
    /// previously sat adjacent in the spine and were re-read on every probe
    /// next to their neighbours' headers — read-only sharing, but still a
    /// needless dependent load per round. A flat slice makes the indexing
    /// arithmetic (`r * n + i`) and drops one indirection per flag access.
    flags: Box<[CachePadded<S::AtomicU64>]>,
    /// `progress[id]`: rounds participant `id` has completed, summed over
    /// all episodes — episode `e` is done for `id` once it reaches
    /// `(e + 1) * rounds`. Advanced only by `fetch_max`, so concurrent
    /// drivers of one id (its own waits, a helper probing its token, a
    /// hierarchical barrier's help-along sweep) agree: a stale driver's
    /// update is a no-op, and a probe that once saw completion sees it
    /// forever. Cross-participant synchronization flows through `flags`:
    /// their `fetch_max` writes pair with the `Acquire` loads in
    /// [`Self::flag_ready`], transitively across all ⌈log₂ n⌉ rounds.
    progress: Box<[CachePadded<S::AtomicU64>]>,
    /// Highest episode any participant has fully completed (for stats).
    completed: CachePadded<S::AtomicU64>,
}

impl DisseminationBarrier {
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

impl<S: SyncOps> DisseminationBarrier<S> {
    /// Creates a barrier in an explicit [`SyncOps`] domain — `RealSync` in
    /// production, instrumented shadow state under the `fuzzy-check` model
    /// checker.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn with_policy_in(n: usize, policy: StallPolicy) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        let rounds = usize::BITS - (n - 1).leading_zeros(); // ceil(log2 n); 0 for n == 1
        let flags = (0..rounds as usize * n)
            .map(|_| CachePadded::new(S::AtomicU64::new(0)))
            .collect();
        DisseminationBarrier {
            core: EpisodeCore::new(n, policy),
            n,
            rounds,
            flags,
            progress: (0..n)
                .map(|_| CachePadded::new(S::AtomicU64::new(0)))
                .collect(),
            completed: CachePadded::new(S::AtomicU64::new(0)),
        }
    }

    /// Number of signalling rounds per episode (⌈log₂ n⌉).
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    fn partner(&self, id: usize, round: u32) -> usize {
        (id + (1usize << round)) % self.n
    }

    /// Inverse of [`Self::partner`]: the participant whose round-`round`
    /// signal is aimed at `id`. (`2^round < n` holds for every valid round,
    /// so the subtraction cannot underflow modulo `n`.)
    fn source(&self, id: usize, round: u32) -> usize {
        (id + self.n - (1usize << round)) % self.n
    }

    fn signal(&self, from: usize, round: u32, goal: u64) {
        let target = self.partner(from, round);
        self.flags[round as usize * self.n + target].fetch_max(goal, Ordering::AcqRel);
    }

    /// True once the round-`round` signal aimed at `receiver` is available
    /// for goal `goal` (= episode + 1): either actually stored in the flag
    /// slot, or *deducible* because the sender was evicted.
    ///
    /// Eviction leaves the signalling pattern untouched — no slot is ever
    /// written on the evicted participant's behalf. Instead, receivers
    /// close over the ghost: an evicted sender's arrival is waived (it is
    /// no longer part of the surviving set), so its round-`r` signal counts
    /// as sent once every signal *it* would have needed for rounds `0..r`
    /// is itself available, recursively. The recursion strictly decreases
    /// the round, so it terminates; every input (flag slots, eviction
    /// flags) is monotone, so the predicate is monotone and a probe that
    /// once returned true can never regress — no wakeup can be lost.
    fn flag_ready(&self, receiver: usize, round: u32, goal: u64) -> bool {
        if self.flags[round as usize * self.n + receiver].load(Ordering::Acquire) >= goal {
            return true;
        }
        let sender = self.source(receiver, round);
        self.ghost_sent(sender, round, goal)
    }

    /// Would the evicted `sender` have sent its round-`round` signal for
    /// `goal`? False for live senders.
    fn ghost_sent(&self, sender: usize, round: u32, goal: u64) -> bool {
        if !self.core.is_departed(sender) {
            return false;
        }
        (0..round).all(|r| self.flag_ready(sender, r, goal))
    }

    /// Advances participant `id` through as many rounds as the received
    /// signals allow, up to the end of `episode`, without blocking.
    /// Returns true once all of `episode`'s rounds are complete. The
    /// caller guarantees `id` has arrived for `episode`; a driver that
    /// lags behind another only repeats `fetch_max` writes already made.
    fn try_progress(&self, id: usize, episode: u64) -> bool {
        let rounds = u64::from(self.rounds);
        let base = episode * rounds;
        let target = base + rounds;
        loop {
            let done = self.progress[id].load(Ordering::Acquire);
            if done >= target {
                return true;
            }
            // Usually `id` is already within `episode`, and a failed spin
            // probe skips the 64-bit division; only a driver catching up on
            // an earlier episode's rounds pays for it.
            let (goal, round) = if done >= base {
                (episode + 1, (done - base) as u32)
            } else {
                (done / rounds + 1, (done % rounds) as u32)
            };
            if !self.flag_ready(id, round, goal) {
                return false;
            }
            if round + 1 < self.rounds {
                self.signal(id, round + 1, goal);
            }
            self.progress[id].fetch_max(done + 1, Ordering::AcqRel);
            if done + 1 == goal * rounds {
                // This participant has completed episode `goal - 1`;
                // record it once globally.
                self.record_completion(goal);
            }
        }
    }

    /// Records episode `goal - 1` once globally, by whichever participant
    /// first completes its rounds.
    fn record_completion(&self, goal: u64) {
        if self.completed.fetch_max(goal, Ordering::AcqRel) < goal {
            self.core.stats().record_episode(goal - 1);
        }
    }
}

impl<S: SyncOps> ArrivalProtocol for DisseminationBarrier<S> {
    type Domain = S;

    fn core(&self) -> &EpisodeCore<S> {
        &self.core
    }

    fn arrive_at(&self, id: usize, episode: u64) {
        if self.rounds == 0 {
            // Single participant: the episode is complete on arrival.
            self.record_completion(episode + 1);
        } else {
            self.signal(id, 0, episode + 1);
        }
    }

    fn released(&self, id: usize, episode: u64) -> bool {
        self.try_progress(id, episode)
    }

    fn stand_in(&self, _id: usize) {
        // Nothing to do: the core's departure RMW flips every survivor's
        // ghost-closure predicate — see [`Self::flag_ready`]. The evicted
        // participant's pending arrival for the in-flight episode is waived
        // vacuously, and no flag slot gains a second writer.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitBarrier;
    use std::sync::Arc;

    #[test]
    fn round_counts() {
        assert_eq!(DisseminationBarrier::new(1).rounds(), 0);
        assert_eq!(DisseminationBarrier::new(2).rounds(), 1);
        assert_eq!(DisseminationBarrier::new(3).rounds(), 2);
        assert_eq!(DisseminationBarrier::new(4).rounds(), 2);
        assert_eq!(DisseminationBarrier::new(5).rounds(), 3);
        assert_eq!(DisseminationBarrier::new(8).rounds(), 3);
        assert_eq!(DisseminationBarrier::new(9).rounds(), 4);
    }

    #[test]
    fn partners_wrap_around() {
        let b = DisseminationBarrier::new(5);
        assert_eq!(b.partner(3, 0), 4);
        assert_eq!(b.partner(4, 0), 0);
        assert_eq!(b.partner(3, 1), 0);
        assert_eq!(b.partner(2, 2), 1);
    }

    #[test]
    fn single_participant_instant() {
        let b = DisseminationBarrier::new(1);
        for e in 0..5 {
            let t = b.arrive(0);
            assert!(b.is_complete(&t));
            assert_eq!(b.wait(t).episode, e);
        }
        assert_eq!(b.stats().episodes, 5);
    }

    #[test]
    fn non_power_of_two_participants() {
        for n in [2usize, 3, 5, 6, 7] {
            let b = Arc::new(DisseminationBarrier::new(n));
            std::thread::scope(|s| {
                for id in 0..n {
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        for e in 0..200u64 {
                            let t = b.arrive(id);
                            assert_eq!(b.wait(t).episode, e, "n={n} id={id}");
                        }
                    });
                }
            });
            assert_eq!(b.stats().episodes, 200, "n={n}");
        }
    }

    #[test]
    fn eviction_over_all_survivor_counts_and_victims() {
        // Survivor counts 2..=9 (so n = 3..=10, covering non-powers of two
        // and the power-of-two edges), evicting each id once. The victim
        // completes episode 0 and is then evicted; survivors must complete
        // episodes 1 and 2 through the ghost-signal closure.
        for survivors in 2usize..=9 {
            let n = survivors + 1;
            for victim in 0..n {
                let b = Arc::new(DisseminationBarrier::new(n));
                std::thread::scope(|s| {
                    let bv = Arc::clone(&b);
                    let victim_thread = s.spawn(move || {
                        let t = bv.arrive(victim);
                        assert_eq!(bv.wait(t).episode, 0);
                    });
                    for id in (0..n).filter(|&id| id != victim) {
                        let b = Arc::clone(&b);
                        s.spawn(move || {
                            for e in 0..3u64 {
                                let t = b.arrive(id);
                                assert_eq!(b.wait(t).episode, e, "n={n} victim={victim} id={id}");
                            }
                        });
                    }
                    victim_thread.join().unwrap();
                    b.evict(victim).unwrap();
                });
                assert_eq!(b.stats().evictions, 1, "n={n} victim={victim}");
            }
        }
    }

    #[test]
    fn a_helper_may_drive_a_waiting_participant() {
        // Two drivers of id 0: each episode a helper thread probes
        // participant 0's token while 0 itself waits on it.
        use crate::ArrivalToken;
        use std::sync::atomic::AtomicU64;
        let n = 3;
        let phases = 500u64;
        let b = DisseminationBarrier::with_policy(n, StallPolicy::yielding());
        let cells: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        // Episodes participant 0 has arrived for.
        let arrived = AtomicU64::new(0);
        let (b, cells, arrived) = (&b, &cells, &arrived);
        std::thread::scope(|s| {
            for id in 0..n {
                s.spawn(move || {
                    let episode = || {
                        let t = b.arrive(id);
                        if id == 0 {
                            arrived.fetch_add(1, Ordering::Release);
                        }
                        b.wait(t);
                    };
                    for phase in 1..=phases {
                        cells[id].store(phase, Ordering::Release);
                        episode();
                        let v = cells[(id + n - 1) % n].load(Ordering::Acquire);
                        assert!(v >= phase, "stale read {v} in phase {phase}");
                        episode();
                    }
                });
            }
            s.spawn(move || {
                for e in 0..2 * phases {
                    while arrived.load(Ordering::Acquire) <= e {
                        std::thread::yield_now();
                    }
                    let t = ArrivalToken::new(0, e);
                    while !b.is_complete(&t) {
                        std::thread::yield_now();
                    }
                    // Participant 0 may have arrived for e + 1 by now; a
                    // completed probe must stay completed regardless.
                    assert!(b.is_complete(&t), "episode {e} regressed");
                    if e > 0 {
                        let prev = ArrivalToken::new(0, e - 1);
                        assert!(b.is_complete(&prev), "episode {} regressed", e - 1);
                    }
                }
            });
        });
        assert_eq!(b.stats().episodes, 2 * phases);
    }

    #[test]
    fn separates_phases_with_real_data() {
        use std::sync::atomic::AtomicU64;
        let n = 4;
        let cells: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let b = Arc::new(DisseminationBarrier::new(n));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                let cells = Arc::clone(&cells);
                s.spawn(move || {
                    for phase in 1..=300u64 {
                        cells[id].store(phase, Ordering::Release);
                        let t = b.arrive(id);
                        b.wait(t);
                        let v = cells[(id + n - 1) % n].load(Ordering::Acquire);
                        assert!(v >= phase, "stale read {v} in phase {phase}");
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
    }
}
