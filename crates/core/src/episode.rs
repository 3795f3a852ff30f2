//! The episode core shared by the five thread backends.
//!
//! The backends differ only in how arrivals are *combined* — one counter,
//! a packed counter, pairwise dissemination rounds, a combining tree, or
//! sharded words under a leader protocol (Sec. 1 of the paper). Everything
//! around that — token stamping, the poison word, eviction bookkeeping,
//! telemetry and the poison-aware bounded wait — lives once, here, in
//! [`EpisodeCore`]. A backend supplies only its [`ArrivalProtocol`]; the
//! blanket `impl<P: ArrivalProtocol> SplitBarrier for P` does the rest.
//!
//! # Contract
//!
//! * Each live participant arrives exactly once per episode.
//! * Only a participant that has not yet arrived for the in-flight episode
//!   may be evicted: [`ArrivalProtocol::stand_in`] is its arrival.
//! * Departure ([`SplitBarrier::evict`], or `CentralBarrier::leave`) is
//!   permanent; a departed id never arrives again and cannot depart twice.
//! * Completion wins: a wait whose episode completed reports success even
//!   if the barrier was poisoned or the deadline passed meanwhile.

use crate::error::BarrierError;
use crate::failure::{self, Deadline, OnTimeout, WaitPolicy};
use crate::spin::StallPolicy;
use crate::stats::{BarrierStats, StatsSnapshot, TelemetrySnapshot};
use crate::sync::{Atomic, RealSync, SyncOps};
use crate::token::{ArrivalToken, WaitOutcome};
use crate::SplitBarrier;
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// The per-barrier state every backend shares: participant count, stall
/// policy, the poison word, permanent departure flags with a live count,
/// and [`BarrierStats`], whose per-participant arrival counts stamp the
/// tokens.
#[derive(Debug)]
pub struct EpisodeCore<S: SyncOps = RealSync> {
    n: usize,
    policy: StallPolicy,
    /// Non-zero once the barrier is poisoned (see [`SplitBarrier::poison`]).
    poisoned: CachePadded<S::AtomicU32>,
    /// Per-participant departure flags (non-zero once evicted or left).
    /// Unpadded: each is written once, at departure, so they never bounce
    /// between cores, and a plain allocation is cheaper to build.
    departed: Box<[S::AtomicU32]>,
    /// Participants not yet departed; guards against emptying the barrier.
    live: CachePadded<S::AtomicUsize>,
    stats: BarrierStats,
}

impl<S: SyncOps> EpisodeCore<S> {
    /// Creates the core for `n` participants waiting under `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub(crate) fn new(n: usize, policy: StallPolicy) -> Self {
        assert!(n > 0, "a barrier needs at least one participant");
        EpisodeCore {
            n,
            policy,
            poisoned: CachePadded::new(S::AtomicU32::new(0)),
            departed: (0..n).map(|_| S::AtomicU32::new(0)).collect(),
            live: CachePadded::new(S::AtomicUsize::new(n)),
            stats: BarrierStats::with_participants(n),
        }
    }

    /// Number of participants the barrier was built for.
    #[must_use]
    pub(crate) fn participants(&self) -> usize {
        self.n
    }

    /// The stall policy waits use unless a [`WaitPolicy`] overrides it.
    #[must_use]
    pub(crate) fn policy(&self) -> StallPolicy {
        self.policy
    }

    /// Participants that have not departed.
    #[must_use]
    pub(crate) fn remaining(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// True once participant `id` has departed (evicted or left).
    #[must_use]
    pub(crate) fn is_departed(&self, id: usize) -> bool {
        self.departed[id].load(Ordering::Acquire) != 0
    }

    /// The barrier's telemetry recorder.
    #[must_use]
    pub(crate) fn stats(&self) -> &BarrierStats {
        &self.stats
    }

    /// Permanently claims participant `id`'s departure and shrinks the
    /// live count. The caller then performs the departed participant's
    /// stand-in arrival.
    ///
    /// An already-departed id is rejected before the `EmptyGroup` guard: a
    /// dead id stays dead regardless of how many live remain. The claim
    /// RMW re-checks it, so racing departures of one id succeed once.
    /// (Concurrent departures that race past the `EmptyGroup` check toward
    /// an empty barrier are a contract violation.)
    ///
    /// # Errors
    ///
    /// [`BarrierError::InvalidParticipant`] if `id >= n`,
    /// [`BarrierError::NotAParticipant`] if `id` already departed, and
    /// [`BarrierError::EmptyGroup`] if `id` is the last live participant.
    pub(crate) fn depart(&self, id: usize) -> Result<(), BarrierError> {
        if id >= self.n {
            return Err(BarrierError::InvalidParticipant {
                id,
                capacity: self.n,
            });
        }
        if self.is_departed(id) {
            return Err(BarrierError::NotAParticipant { id });
        }
        if self.remaining() <= 1 {
            return Err(BarrierError::EmptyGroup);
        }
        if self.departed[id].fetch_max(1, Ordering::AcqRel) != 0 {
            return Err(BarrierError::NotAParticipant { id });
        }
        self.live.fetch_sub(1, Ordering::AcqRel);
        Ok(())
    }

    /// Stamps participant `id`'s arrival: returns its episode number, the
    /// count of its earlier arrivals.
    #[inline]
    pub(crate) fn begin_arrival(&self, id: usize) -> u64 {
        assert!(
            id < self.n,
            "participant id {id} out of range for {} participants",
            self.n
        );
        self.stats.next_arrival(id)
    }

    fn poison(&self) {
        if self.poisoned.fetch_max(1, Ordering::AcqRel) == 0 {
            self.stats.record_poisoning();
        }
    }

    fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire) != 0
    }

    /// The poison-aware bounded wait every wait flavor funnels through.
    #[inline]
    fn wait(
        &self,
        token: &ArrivalToken,
        deadline: Deadline,
        policy: StallPolicy,
        released: impl FnMut() -> bool,
    ) -> Result<WaitOutcome, BarrierError> {
        // Adaptive policies become a concrete budget sized by this
        // participant's wait-cost history; everything else passes through.
        let policy = self.stats.resolve_policy(token.id, policy);
        let result = failure::guarded_wait::<S>(policy, deadline, token.episode, released, || {
            self.is_poisoned()
        });
        match result {
            Ok(outcome) => {
                self.stats.record_wait(token.id, &outcome);
                Ok(outcome)
            }
            Err(fault) => {
                if matches!(fault.error, BarrierError::Timeout { .. }) {
                    self.stats.record_timeout(token.id, &fault.report);
                }
                Err(fault.error)
            }
        }
    }
}

/// How a backend combines arrivals: the only part of a barrier that is not
/// in its [`EpisodeCore`]. Implementing it makes the type a
/// [`SplitBarrier`]. The core is built inside this crate, so the five
/// stock backends are its implementations.
pub trait ArrivalProtocol: Send + Sync {
    /// The sync domain of the protocol's atomics.
    type Domain: SyncOps;

    /// The shared episode state.
    fn core(&self) -> &EpisodeCore<Self::Domain>;

    /// Records participant `id`'s arrival for `episode`, after the core
    /// has stamped it. Never blocks.
    fn arrive_at(&self, id: usize, episode: u64);

    /// True once `episode` is complete from participant `id`'s point of
    /// view. Must be monotone; may help drive the protocol's rounds.
    fn released(&self, id: usize, episode: u64) -> bool;

    /// Eviction's stand-in arrival for `id`, called once the core has
    /// claimed its departure: covers the in-flight episode and removes
    /// `id` from every later one.
    fn stand_in(&self, id: usize);
}

impl<P: ArrivalProtocol> SplitBarrier for P {
    #[inline]
    fn arrive(&self, id: usize) -> ArrivalToken {
        let episode = self.core().begin_arrival(id);
        self.arrive_at(id, episode);
        ArrivalToken::new(id, episode)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.released(token.id, token.episode)
    }

    #[inline]
    fn wait(&self, token: ArrivalToken) -> WaitOutcome {
        let core = self.core();
        match core.wait(&token, Deadline::never(), core.policy, || {
            self.released(token.id, token.episode)
        }) {
            Ok(outcome) => outcome,
            Err(e) => panic!("barrier wait failed: {e} (use wait_deadline to recover)"),
        }
    }

    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        let core = self.core();
        core.wait(&token, deadline, core.policy, || {
            self.released(token.id, token.episode)
        })
    }

    fn wait_with(
        &self,
        token: ArrivalToken,
        policy: &WaitPolicy,
    ) -> Result<WaitOutcome, BarrierError> {
        let core = self.core();
        let backoff = policy.backoff.unwrap_or(core.policy);
        let result = core.wait(&token, policy.arm(), backoff, || {
            self.released(token.id, token.episode)
        });
        if matches!(result, Err(BarrierError::Timeout { .. }))
            && policy.on_timeout == OnTimeout::Poison
        {
            core.poison();
        }
        result
    }

    fn poison(&self) {
        self.core().poison();
    }

    fn clear_poison(&self) {
        self.core().poisoned.store(0, Ordering::Release);
    }

    fn is_poisoned(&self) -> bool {
        self.core().is_poisoned()
    }

    fn evict(&self, id: usize) -> Result<(), BarrierError> {
        self.core().depart(id)?;
        self.core().stats.record_eviction();
        self.stand_in(id);
        Ok(())
    }

    fn participants(&self) -> usize {
        self.core().n
    }

    fn stats(&self) -> StatsSnapshot {
        self.core().stats.snapshot()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.core().stats.telemetry()
    }
}
