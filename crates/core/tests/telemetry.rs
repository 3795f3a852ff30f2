//! Integration tests for the telemetry layer: all backends agree on the
//! flat counters, per-participant counters attribute work correctly, and
//! the dissemination barrier survives a non-power-of-two episode stress.

use fuzzy_barrier::{
    CentralBarrier, CountingBarrier, DisseminationBarrier, HierBarrier, SplitBarrier, StallPolicy,
    TopLevel, TreeBarrier,
};
use std::sync::Arc;

fn run_schedule(b: &dyn SplitBarrier, n: usize, episodes: u64) {
    std::thread::scope(|s| {
        for id in 0..n {
            s.spawn(move || {
                for _ in 0..episodes {
                    let t = b.arrive(id);
                    // A small asymmetric region so some participants arrive
                    // late and others stall.
                    let mut acc = 0u64;
                    for i in 0..(id as u64 * 120) {
                        acc = acc.wrapping_add(i);
                    }
                    std::hint::black_box(acc);
                    b.wait(t);
                }
            });
        }
    });
}

/// Every backend must report the same `episodes` and `arrivals` for the
/// same protocol-following schedule, in both the flat snapshot and the
/// telemetry snapshot.
#[test]
fn all_backends_report_identical_episode_and_arrival_counts() {
    let n = 4;
    let episodes = 80;
    let backends: Vec<(&str, Box<dyn SplitBarrier>)> = vec![
        ("central", Box::new(CentralBarrier::new(n))),
        ("counting", Box::new(CountingBarrier::new(n))),
        ("dissemination", Box::new(DisseminationBarrier::new(n))),
        ("tree", Box::new(TreeBarrier::new(n))),
        (
            "hier",
            Box::new(HierBarrier::with_shards(
                n,
                2,
                TopLevel::Dissemination,
                StallPolicy::default(),
            )),
        ),
        (
            "hier-tree",
            Box::new(HierBarrier::with_shards(
                n,
                2,
                TopLevel::Tree,
                StallPolicy::default(),
            )),
        ),
    ];
    for (name, b) in &backends {
        run_schedule(&**b, n, episodes);
        let t = b.telemetry();
        assert_eq!(t.base.episodes, episodes, "{name}");
        assert_eq!(t.base.arrivals, episodes * n as u64, "{name}");
        assert_eq!(t.base.waits, episodes * n as u64, "{name}");
        assert_eq!(t.base, b.stats(), "{name}: telemetry base != stats()");
        // Telemetry internal consistency.
        assert_eq!(t.stall_hist.total(), t.base.stalls, "{name}");
        assert_eq!(t.per_participant.len(), n, "{name}");
        let per_arrivals: u64 = t.per_participant.iter().map(|p| p.arrivals).sum();
        let per_stalls: u64 = t.per_participant.iter().map(|p| p.stalls).sum();
        assert_eq!(per_arrivals, t.base.arrivals, "{name}");
        assert_eq!(per_stalls, t.base.stalls, "{name}");
        for (id, p) in t.per_participant.iter().enumerate() {
            assert_eq!(p.arrivals, episodes, "{name} participant {id}");
            assert_eq!(p.waits, episodes, "{name} participant {id}");
        }
        assert!(t.spread.episodes <= t.base.episodes, "{name}");
        assert!(t.spread.max >= t.spread.mean(), "{name}");
    }
}

/// Repeated-episode stress at participant counts that are NOT powers of
/// two: the dissemination wrap-around partner math (`(i + 2^r) mod n`)
/// must stay correct across many episode reuses of the same flag slots.
#[test]
fn dissemination_non_power_of_two_episode_stress() {
    for n in [3usize, 5, 6, 7, 11] {
        let episodes = 600u64;
        let b = Arc::new(DisseminationBarrier::with_policy(n, StallPolicy::default()));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..episodes {
                        let t = b.arrive(id);
                        // Jitter the region length per (id, episode) so the
                        // arrival order keeps changing.
                        let mut acc = 0u64;
                        for i in 0..((id as u64 + e) % 17) * 40 {
                            acc = acc.wrapping_add(i);
                        }
                        std::hint::black_box(acc);
                        let o = b.wait(t);
                        assert_eq!(o.episode, e, "n={n} id={id}");
                    }
                });
            }
        });
        let t = b.telemetry();
        assert_eq!(t.base.episodes, episodes, "n={n}");
        assert_eq!(t.base.arrivals, episodes * n as u64, "n={n}");
        for (id, p) in t.per_participant.iter().enumerate() {
            assert_eq!(p.arrivals, episodes, "n={n} id={id}");
        }
    }
}

/// The trait's default `telemetry()` (used by backends without native
/// telemetry) must still carry the flat counters.
#[test]
fn default_telemetry_wraps_stats() {
    struct Flat(CentralBarrier);
    impl SplitBarrier for Flat {
        fn arrive(&self, id: usize) -> fuzzy_barrier::ArrivalToken {
            self.0.arrive(id)
        }
        fn is_complete(&self, token: &fuzzy_barrier::ArrivalToken) -> bool {
            self.0.is_complete(token)
        }
        fn wait(&self, token: fuzzy_barrier::ArrivalToken) -> fuzzy_barrier::WaitOutcome {
            self.0.wait(token)
        }
        fn participants(&self) -> usize {
            self.0.participants()
        }
        fn stats(&self) -> fuzzy_barrier::StatsSnapshot {
            self.0.stats()
        }
        // telemetry() deliberately not overridden.
    }
    let b = Flat(CentralBarrier::new(1));
    for _ in 0..5 {
        let t = b.arrive(0);
        b.wait(t);
    }
    let t = b.telemetry();
    assert_eq!(t.base.episodes, 5);
    assert!(t.stall_hist.is_empty());
    assert!(t.per_participant.is_empty());
}
