//! The fault contract, table-driven over every stock backend: poisoning,
//! bounded waits, timeout escalation and eviction behave the same whether
//! arrivals are combined by a counter, dissemination rounds, a tree or
//! shards.

use fuzzy_barrier::{
    BarrierError, CentralBarrier, CountingBarrier, Deadline, DisseminationBarrier, HierBarrier,
    OnTimeout, SplitBarrier, StallPolicy, TopLevel, TreeBarrier, WaitPolicy,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

type Factory = fn(usize) -> Arc<dyn SplitBarrier>;

/// Every backend, with hier sharded by two so that `n >= 3` spans shards
/// under both top-level protocols.
fn backends() -> [(&'static str, Factory); 6] {
    [
        ("central", |n| Arc::new(CentralBarrier::new(n))),
        ("counting", |n| Arc::new(CountingBarrier::new(n))),
        ("dissemination", |n| Arc::new(DisseminationBarrier::new(n))),
        ("tree", |n| Arc::new(TreeBarrier::new(n))),
        ("hier", |n| {
            Arc::new(HierBarrier::with_shards(
                n,
                2,
                TopLevel::Dissemination,
                StallPolicy::yielding(),
            ))
        }),
        ("hier-tree", |n| {
            Arc::new(HierBarrier::with_shards(
                n,
                2,
                TopLevel::Tree,
                StallPolicy::yielding(),
            ))
        }),
    ]
}

#[test]
fn poison_releases_a_never_deadline_waiter() {
    for (name, make) in backends() {
        let b = make(2);
        thread::scope(|s| {
            let waiter = s.spawn(|| {
                let t = b.arrive(0);
                b.wait_deadline(t, Deadline::never())
            });
            thread::sleep(Duration::from_millis(5));
            b.poison();
            assert_eq!(
                waiter.join().unwrap().unwrap_err(),
                BarrierError::Poisoned { episode: 0 },
                "{name}"
            );
        });
        assert!(b.is_poisoned(), "{name}");
        assert_eq!(b.stats().poisonings, 1, "{name}");
        // Recovery: clear the poison, evict the participant that never
        // arrived, and the survivor synchronizes alone from then on.
        b.clear_poison();
        assert!(!b.is_poisoned(), "{name}");
        b.evict(1).unwrap();
        let t = b.arrive(0);
        assert_eq!(b.wait(t).episode, 1, "{name}");
    }
}

#[test]
fn plain_wait_panics_on_poison() {
    for (name, make) in backends() {
        let b = make(2);
        let t = b.arrive(0);
        b.poison();
        let payload = catch_unwind(AssertUnwindSafe(|| b.wait(t))).unwrap_err();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(
            message.contains("use wait_deadline to recover"),
            "{name}: {message}"
        );
    }
}

#[test]
fn completion_wins_over_poison() {
    for (name, make) in backends() {
        let b = make(1);
        let t = b.arrive(0); // n == 1: the episode completes on arrival
        b.poison();
        let o = b
            .wait_deadline(t, Deadline::never())
            .unwrap_or_else(|e| panic!("{name}: completed episode lost to {e}"));
        assert_eq!(o.episode, 0, "{name}");
    }
}

#[test]
fn wait_with_poison_on_timeout_releases_peers() {
    // Participant 2 never arrives. Participant 0 escalates its timeout,
    // under a backoff override, to a poisoning that releases participant
    // 1's unbounded wait.
    for (name, make) in backends() {
        let b = make(3);
        thread::scope(|s| {
            let escalator = s.spawn(|| {
                let t = b.arrive(0);
                let policy = WaitPolicy::new()
                    .deadline(Duration::from_millis(20))
                    .backoff(StallPolicy::yielding())
                    .on_timeout(OnTimeout::Poison);
                b.wait_with(t, &policy)
            });
            let peer = s.spawn(|| {
                let t = b.arrive(1);
                b.wait_deadline(t, Deadline::never())
            });
            assert_eq!(
                escalator.join().unwrap().unwrap_err(),
                BarrierError::Timeout { episode: 0 },
                "{name}"
            );
            assert_eq!(
                peer.join().unwrap().unwrap_err(),
                BarrierError::Poisoned { episode: 0 },
                "{name}"
            );
        });
        assert!(b.is_poisoned(), "{name}");
        assert_eq!(b.stats().timeouts, 1, "{name}");
    }
}

#[test]
fn evict_guards_reject_bad_ids() {
    for (name, make) in backends() {
        let b = make(3);
        assert_eq!(
            b.evict(5).unwrap_err(),
            BarrierError::InvalidParticipant { id: 5, capacity: 3 },
            "{name}"
        );
        b.evict(1).unwrap();
        assert_eq!(
            b.evict(1).unwrap_err(),
            BarrierError::NotAParticipant { id: 1 },
            "{name}"
        );
        b.evict(2).unwrap();
        assert_eq!(b.evict(0).unwrap_err(), BarrierError::EmptyGroup, "{name}");
        // The lone survivor still synchronizes: its arrival joins the
        // evictees' stand-in arrivals to complete episode 0.
        let t = b.arrive(0);
        assert_eq!(b.wait(t).episode, 0, "{name}");
        assert_eq!(b.stats().evictions, 2, "{name}");
    }
}

#[test]
fn timeout_then_evict_then_recovery() {
    // Participant 3 stalls before arriving. Peers observe a Timeout
    // instead of deadlocking, the straggler is evicted, and the survivors
    // complete the next episode.
    for (name, make) in backends() {
        let b = make(4);
        thread::scope(|s| {
            for id in 0..3 {
                let b = &b;
                s.spawn(move || {
                    let t = b.arrive(id);
                    let deadline = Deadline::after(Duration::from_millis(30));
                    assert_eq!(
                        b.wait_deadline(t, deadline).unwrap_err(),
                        BarrierError::Timeout { episode: 0 },
                        "{name}"
                    );
                });
            }
        });
        b.evict(3).unwrap();
        thread::scope(|s| {
            for id in 0..3 {
                let b = &b;
                s.spawn(move || {
                    let t = b.arrive(id);
                    assert_eq!(b.wait(t).episode, 1, "{name}");
                });
            }
        });
        let stats = b.stats();
        assert_eq!(stats.timeouts, 3, "{name}");
        assert_eq!(stats.evictions, 1, "{name}");
    }
}

#[test]
fn abort_consumes_the_token_and_poisons() {
    for (name, make) in backends() {
        let b = make(2);
        let t = b.arrive(0);
        b.abort(t);
        assert!(b.is_poisoned(), "{name}");
    }
}
