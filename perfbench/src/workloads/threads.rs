//! `solo` and `lockstep`: the default `FuzzyBarrier` (the centralized
//! backend) on one and on two threads, and the Scott floor in the same
//! two shapes.

use super::{
    run_out, run_participants, timed_setup, Ctx, Pace, RunOut, Stop, STATS_EVERY, STEPS_PER_US,
    TABLE,
};
use crate::floor::{ScottBarrier, ScottToken};
use crate::measure::{busy, table};
use crate::trace::{Kind, SpanLog};
use fuzzy_barrier::{ArrivalToken, FuzzyBarrier, SplitBarrier, WaitOutcome};
use fuzzy_util::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

/// Episodes per `solo` sample: a clock read costs about a fifth of a solo
/// episode, so solo times batches.
const SOLO_BATCH: u64 = 64;

/// A barrier the two shapes can run: the program's `FuzzyBarrier` or the
/// floor.
pub trait Phased: Sync {
    type Token;
    fn arrive(&self, id: usize) -> Self::Token;
    fn wait(&self, token: Self::Token) -> WaitOutcome;
    /// Takes the statistics snapshot a traced run times.
    fn snapshot(&self);
}

impl Phased for FuzzyBarrier {
    type Token = ArrivalToken;

    fn arrive(&self, id: usize) -> ArrivalToken {
        SplitBarrier::arrive(self, id)
    }

    fn wait(&self, token: ArrivalToken) -> WaitOutcome {
        SplitBarrier::wait(self, token)
    }

    fn snapshot(&self) {
        black_box(SplitBarrier::stats(self));
    }
}

impl Phased for ScottBarrier {
    type Token = ScottToken;

    fn arrive(&self, id: usize) -> ScottToken {
        ScottBarrier::arrive(self, id)
    }

    fn wait(&self, token: ScottToken) -> WaitOutcome {
        ScottBarrier::wait(self, token)
    }

    fn snapshot(&self) {}
}

/// One episode in the paper's shape: `work` steps of phase work, arrive,
/// `region` steps of barrier-region work, wait.
#[inline]
fn episode<const TRACE: bool, B: Phased>(
    b: &B,
    id: usize,
    e: u64,
    work: u32,
    region: u32,
    log: &mut SpanLog,
) -> WaitOutcome {
    if !TRACE {
        if work > 0 {
            busy(work);
        }
        let token = b.arrive(id);
        if region > 0 {
            busy(region);
        }
        return b.wait(token);
    }
    if work > 0 {
        let t = Instant::now();
        busy(work);
        log.end(Kind::Work, e, t);
    }
    let t = Instant::now();
    let token = b.arrive(id);
    log.end(Kind::CentralArrive, e, t);
    if region > 0 {
        let t = Instant::now();
        busy(region);
        log.end(Kind::Work, e, t);
    }
    let t = Instant::now();
    let out = b.wait(token);
    log.end_wait(Kind::CentralWait, e, t, Some(out));
    out
}

/// Times a statistics snapshot every [`STATS_EVERY`] episodes.
#[inline]
fn maybe_snapshot<const TRACE: bool, B: Phased>(b: &B, e: u64, log: &mut SpanLog) {
    if TRACE && e.is_multiple_of(STATS_EVERY) {
        let t = Instant::now();
        b.snapshot();
        log.end(Kind::Stats, e, t);
    }
}

/// `solo`: `FuzzyBarrier::new(1)`, region 0.
pub fn solo<const TRACE: bool>(ctx: &Ctx) -> RunOut {
    let (b, setup) = timed_setup(|| FuzzyBarrier::new(1));
    solo_loop::<TRACE, _>(ctx, &b, setup)
}

/// The floor in the `solo` shape.
pub fn floor_solo(ctx: &Ctx) -> RunOut {
    let (b, setup) = timed_setup(|| ScottBarrier::new(1));
    solo_loop::<false, _>(ctx, &b, setup)
}

fn solo_loop<const TRACE: bool, B: Phased>(ctx: &Ctx, b: &B, setup: Vec<f64>) -> RunOut {
    let (mut parts, cpu_ns) = run_participants(
        ctx,
        1,
        Pace::start(ctx, SOLO_BATCH),
        |id, pace: Option<Pace>| {
            let mut pace = pace.expect("the only participant keeps the pace");
            let mut log = SpanLog::new(ctx.origin, id, ctx.seed);
            let (mut e, mut failed) = (0u64, 0u64);
            loop {
                for _ in 0..SOLO_BATCH {
                    let out = episode::<TRACE, B>(b, id, e, 0, 0, &mut log);
                    failed += u64::from(out.episode != e);
                    e += 1;
                    maybe_snapshot::<TRACE, B>(b, e, &mut log);
                }
                if pace.tick() {
                    break;
                }
            }
            Part {
                episodes: e,
                failed,
                pace: Some(pace),
                log,
            }
        },
    );
    let solo = parts.pop().expect("one participant");
    let mut out = run_out(
        solo.pace.expect("solo pace"),
        solo.episodes,
        solo.episodes,
        solo.failed,
        cpu_ns,
        setup,
    );
    if TRACE {
        out.trace.logs.push(solo.log);
    }
    out
}

/// `lockstep` inputs: each thread's phase work, and the barrier region of
/// each phase.
#[derive(Debug)]
pub struct LockstepInputs {
    work: [Vec<u32>; 2],
    region: Vec<u32>,
}

impl LockstepInputs {
    /// Phase work is 4–8 µs per thread, so the two threads arrive a mean
    /// ~1.3 µs apart; the region is drawn from 0 to twice that, so some
    /// phases absorb the skew and some stall.
    pub fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x010C_57E9);
        let (lo, hi) = (4 * STEPS_PER_US, 8 * STEPS_PER_US);
        let skew = (hi - lo) / 3;
        LockstepInputs {
            work: [
                table(&mut rng, TABLE, lo, hi),
                table(&mut rng, TABLE, lo, hi),
            ],
            region: table(&mut rng, TABLE, 0, 2 * skew),
        }
    }
}

/// `lockstep`: `FuzzyBarrier::new(2)` on two threads running barrier-
/// separated phases.
pub fn lockstep<const TRACE: bool>(ctx: &Ctx) -> RunOut {
    let inputs = LockstepInputs::generate(ctx.seed);
    let (b, setup) = timed_setup(|| FuzzyBarrier::new(2));
    lockstep_loop::<TRACE, _>(ctx, &b, &inputs, setup)
}

/// The floor in the `lockstep` shape, on the same inputs.
pub fn floor_lockstep(ctx: &Ctx) -> RunOut {
    let inputs = LockstepInputs::generate(ctx.seed);
    let (b, setup) = timed_setup(|| ScottBarrier::new(2));
    lockstep_loop::<false, _>(ctx, &b, &inputs, setup)
}

struct Part {
    episodes: u64,
    failed: u64,
    pace: Option<Pace>,
    log: SpanLog,
}

fn lockstep_loop<const TRACE: bool, B: Phased>(
    ctx: &Ctx,
    b: &B,
    inputs: &LockstepInputs,
    setup: Vec<f64>,
) -> RunOut {
    let stop = Stop::new();
    let (parts, cpu_ns) =
        run_participants(ctx, 2, Pace::start(ctx, 1), |id, mut pace: Option<Pace>| {
            let mut log = SpanLog::new(ctx.origin, id, ctx.seed);
            let (mut e, mut failed) = (0u64, 0u64);
            loop {
                let i = e as usize % TABLE;
                let out =
                    episode::<TRACE, B>(b, id, e, inputs.work[id][i], inputs.region[i], &mut log);
                failed += u64::from(out.episode != e);
                if let Some(p) = pace.as_mut() {
                    if p.tick() {
                        stop.stop_after(e + 1);
                    }
                    maybe_snapshot::<TRACE, B>(b, e + 1, &mut log);
                }
                let last = stop.is_last(e);
                e += 1;
                if last {
                    break;
                }
            }
            Part {
                episodes: e,
                failed,
                pace,
                log,
            }
        });
    let mut parts = parts.into_iter();
    let lead = parts.next().expect("controller");
    let peer = parts.next().expect("peer");
    let mut out = run_out(
        lead.pace.expect("controller pace"),
        lead.episodes,
        lead.episodes + peer.episodes,
        lead.failed + peer.failed,
        cpu_ns,
        setup,
    );
    out.check(lead.episodes == peer.episodes, || {
        format!(
            "lockstep participants ran {} and {} episodes",
            lead.episodes, peer.episodes
        )
    });
    if TRACE {
        out.trace.logs.extend([lead.log, peer.log]);
    }
    out
}
