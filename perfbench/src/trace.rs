//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! A span names the call, the participant that made it, the episode it
//! belonged to (the identifier every span of one episode shares), and its
//! start and duration. Wait spans also carry the [`WaitOutcome`] the layer
//! returned, so the stall policy's share can be picked out of them. Spans
//! stay in memory during the run and are written out when it ends.

use fuzzy_barrier::WaitOutcome;
use fuzzy_util::SplitMix64;
use std::io::Write;
use std::time::Instant;

/// Which public function a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SplitBarrier::arrive` on the default `FuzzyBarrier`.
    CentralArrive,
    /// `SplitBarrier::wait` on the default `FuzzyBarrier`.
    CentralWait,
    /// A `stats()` snapshot of the layer under test.
    Stats,
    /// `AsyncBarrier::arrive_async`.
    AsyncArrive,
    /// Awaiting a `BarrierFuture` until it is ready.
    AsyncAwait,
    /// `ReconfigBarrier::arrive`.
    ReconfigArrive,
    /// `ReconfigBarrier::wait`.
    ReconfigWait,
    /// `ReconfigBarrier::join` through `wait_active`.
    ReconfigJoin,
    /// `ReconfigBarrier::leave`.
    ReconfigLeave,
    /// `SplitBarrier::arrive` on a `NetBarrier` endpoint.
    NetArrive,
    /// `SplitBarrier::wait` on a `NetBarrier` endpoint.
    NetWait,
    /// The generated work (a control: it must not move).
    Work,
}

impl Kind {
    const ALL: [Kind; 12] = [
        Kind::CentralArrive,
        Kind::CentralWait,
        Kind::Stats,
        Kind::AsyncArrive,
        Kind::AsyncAwait,
        Kind::ReconfigArrive,
        Kind::ReconfigWait,
        Kind::ReconfigJoin,
        Kind::ReconfigLeave,
        Kind::NetArrive,
        Kind::NetWait,
        Kind::Work,
    ];

    /// The span's name in the written trace.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CentralArrive => "centralized.arrive",
            Kind::CentralWait => "centralized.wait",
            Kind::Stats => "stats.snapshot",
            Kind::AsyncArrive => "async.arrive_async",
            Kind::AsyncAwait => "async.await",
            Kind::ReconfigArrive => "reconfig.arrive",
            Kind::ReconfigWait => "reconfig.wait",
            Kind::ReconfigJoin => "reconfig.join_to_active",
            Kind::ReconfigLeave => "reconfig.leave",
            Kind::NetArrive => "net.arrive",
            Kind::NetWait => "net.wait",
            Kind::Work => "work",
        }
    }
}

/// One timed call (its kind is the log it is kept in).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub participant: u32,
    pub episode: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// The wait's outcome, for wait spans.
    pub outcome: Option<WaitOutcome>,
}

/// Spans kept per kind and participant; past this, a uniform reservoir.
const KEEP_PER_KIND: usize = 1 << 15;

/// Spans of one kind written out per workload run, so the dump stays a
/// few megabytes.
const WRITE_PER_KIND: usize = 8192;

/// One participant's spans, kept in memory until the run ends.
///
/// Each kind keeps its own bounded reservoir, so a rare call (a leave, a
/// snapshot) is never crowded out by a frequent one.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    participant: u32,
    kept: Vec<Vec<Span>>,
    seen: Vec<u64>,
    rng: SplitMix64,
}

impl SpanLog {
    /// An empty log for `participant`; times are relative to `origin`.
    pub fn new(origin: Instant, participant: usize, seed: u64) -> Self {
        SpanLog {
            origin,
            participant: participant as u32,
            kept: Kind::ALL.iter().map(|_| Vec::new()).collect(),
            seen: vec![0; Kind::ALL.len()],
            rng: SplitMix64::seed_from_u64(seed ^ participant as u64),
        }
    }

    /// Records a call that started at `start` and has just returned.
    #[inline]
    pub fn end(&mut self, kind: Kind, episode: u64, start: Instant) {
        self.end_wait(kind, episode, start, None);
    }

    /// Records a wait that started at `start` and returned `outcome`.
    #[inline]
    pub fn end_wait(
        &mut self,
        kind: Kind,
        episode: u64,
        start: Instant,
        outcome: Option<WaitOutcome>,
    ) {
        let now = Instant::now();
        let span = Span {
            participant: self.participant,
            episode,
            start_ns: start.duration_since(self.origin).as_nanos() as u64,
            dur_ns: now.duration_since(start).as_nanos() as u64,
            outcome,
        };
        let k = kind as usize;
        let seen = self.seen[k];
        self.seen[k] += 1;
        if self.kept[k].len() < KEEP_PER_KIND {
            self.kept[k].push(span);
        } else {
            let j = self.rng.range_u64(0, seen) as usize;
            if j < KEEP_PER_KIND {
                self.kept[k][j] = span;
            }
        }
    }

    /// Retained spans of one kind.
    pub fn spans(&self, kind: Kind) -> &[Span] {
        &self.kept[kind as usize]
    }

    /// Calls of one kind made, retained or not.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.seen[kind as usize]
    }
}

/// Every log of one traced workload run.
#[derive(Debug, Default)]
pub struct Trace {
    pub logs: Vec<SpanLog>,
}

impl Trace {
    /// Retained spans of `kind` across all participants.
    pub fn spans(&self, kind: Kind) -> impl Iterator<Item = &Span> {
        self.logs.iter().flat_map(move |l| l.spans(kind))
    }

    /// Sorted durations of the retained spans of `kind` that pass `keep`.
    pub fn durations(&self, kind: Kind, keep: impl Fn(&Span) -> bool) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .spans(kind)
            .filter(|s| keep(s))
            .map(|s| s.dur_ns.min(u64::from(u32::MAX)) as u32)
            .collect();
        v.sort_unstable();
        v
    }

    /// Calls of `kind` made across all participants.
    pub fn calls(&self, kind: Kind) -> u64 {
        self.logs.iter().map(|l| l.calls(kind)).sum()
    }

    /// Writes up to [`WRITE_PER_KIND`] spans of each kind, shared evenly
    /// among the participants, as tab-separated lines: workload, span,
    /// participant, episode, start_ns, dur_ns, stalled, probes.
    pub fn write(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        let per_log = WRITE_PER_KIND / self.logs.len().max(1);
        for log in &self.logs {
            for kind in Kind::ALL {
                for s in log.spans(kind).iter().take(per_log) {
                    let (stalled, probes) = s.outcome.map_or((String::new(), String::new()), |o| {
                        (u8::from(o.stalled).to_string(), o.probes.to_string())
                    });
                    writeln!(
                        out,
                        "{workload}\t{}\t{}\t{}\t{}\t{}\t{stalled}\t{probes}",
                        kind.name(),
                        s.participant,
                        s.episode,
                        s.start_ns,
                        s.dur_ns
                    )?;
                }
            }
        }
        Ok(())
    }
}
