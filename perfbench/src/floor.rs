//! The reference floor: Scott's fuzzy variant of the sense-reversing
//! centralized barrier (Shared-Memory Synchronization, Fig. 5.7).
//!
//! Arrival is one fetch-and-increment on a shared counter; the last
//! arriver resets the counter and flips the global sense. Departure spins
//! until the global sense matches the participant's own. Nothing is
//! recorded, so the floor prices the protocol alone: the default
//! `FuzzyBarrier`'s episode minus this one is what the rest of its layers
//! (telemetry, poison and deadline plumbing) cost.

use fuzzy_barrier::WaitOutcome;
use fuzzy_util::CachePadded;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Spin probes before a waiter starts yielding: the default
/// `StallPolicy::SpinYield` budget, so the floor stalls like the barrier it
/// is compared with.
const SPIN_LIMIT: u64 = 1 << 10;

/// Participant-private state. Only its owner touches it; the atomics are
/// there only to make the barrier `Sync`.
#[derive(Debug)]
struct Local {
    sense: AtomicBool,
    episode: AtomicU64,
}

/// Scott's fuzzy sense-reversing barrier for a fixed set of participants.
#[derive(Debug)]
pub struct ScottBarrier {
    n: usize,
    count: CachePadded<AtomicUsize>,
    sense: CachePadded<AtomicBool>,
    local: Vec<CachePadded<Local>>,
}

/// An arrival: the sense the participant departs on, and its episode.
#[derive(Debug)]
pub struct ScottToken {
    sense: bool,
    episode: u64,
}

impl ScottBarrier {
    /// A barrier for `n` participants (ids `0..n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        ScottBarrier {
            n,
            count: CachePadded::new(AtomicUsize::new(0)),
            sense: CachePadded::new(AtomicBool::new(true)),
            local: (0..n)
                .map(|_| {
                    CachePadded::new(Local {
                        sense: AtomicBool::new(true),
                        episode: AtomicU64::new(0),
                    })
                })
                .collect(),
        }
    }

    /// Participant `id` arrives; never blocks.
    pub fn arrive(&self, id: usize) -> ScottToken {
        let local = &self.local[id];
        let sense = !local.sense.load(Ordering::Relaxed);
        local.sense.store(sense, Ordering::Relaxed);
        let episode = local.episode.load(Ordering::Relaxed);
        local.episode.store(episode + 1, Ordering::Relaxed);
        // The last arriver's Release store of the sense pairs with the
        // waiters' Acquire load in `wait`; the counter reset before it is
        // therefore visible to every arrival of the next episode, which
        // happens only after its participant's `wait` returned.
        if self.count.fetch_add(1, Ordering::AcqRel) == self.n - 1 {
            self.count.store(0, Ordering::Relaxed);
            self.sense.store(sense, Ordering::Release);
        }
        ScottToken { sense, episode }
    }

    /// Departs: spins (then yields) until the episode of `token` released.
    pub fn wait(&self, token: ScottToken) -> WaitOutcome {
        let mut probes = 0u64;
        let mut descheduled = false;
        while self.sense.load(Ordering::Acquire) != token.sense {
            probes += 1;
            if probes <= SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                descheduled = true;
                std::thread::yield_now();
            }
        }
        WaitOutcome {
            episode: token.episode,
            stalled: probes > 0,
            descheduled,
            probes,
            stall_time: Duration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_participant_never_stalls() {
        let b = ScottBarrier::new(1);
        for e in 0..100 {
            let out = b.wait(b.arrive(0));
            assert_eq!(out.episode, e);
            assert!(!out.stalled);
        }
    }

    /// Two threads stay in lockstep: after a participant's wait for episode
    /// `e` returns, its peer has arrived for `e` and has not arrived for
    /// `e + 2` (it cannot pass the next release without us).
    #[test]
    fn keeps_two_threads_in_lockstep() {
        const EPISODES: u64 = 20_000;
        let b = ScottBarrier::new(2);
        let arrived = [AtomicU64::new(0), AtomicU64::new(0)];
        std::thread::scope(|s| {
            for id in 0..2 {
                let (b, arrived) = (&b, &arrived);
                s.spawn(move || {
                    for e in 0..EPISODES {
                        arrived[id].store(e + 1, Ordering::SeqCst);
                        let token = b.arrive(id);
                        std::hint::black_box(e * 7);
                        let out = b.wait(token);
                        assert_eq!(out.episode, e);
                        let peer = arrived[1 - id].load(Ordering::SeqCst);
                        assert!(
                            (e + 1..=e + 2).contains(&peer),
                            "participant {id} released from {e} with peer at {peer}"
                        );
                    }
                });
            }
        });
        assert_eq!(b.count.load(Ordering::SeqCst), 0);
    }
}
