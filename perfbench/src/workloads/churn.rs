//! `churn`: `ReconfigBarrier` over the centralized backend, capacity 3,
//! two threads. Both threads are members in every epoch. The controller
//! also drives the third slot, split-phase: it joins it, arrives and waits
//! for both of its members for K epochs, then leaves it. So membership
//! installs (the write path) happen beside arrivals (the read path).
//!
//! No member ever leaves and rejoins on its own: its peer could finish
//! alone and leave the rejoiner in `wait_active` for good.

use super::{
    run_out, run_participants, timed_setup, Counter, Ctx, Pace, RunOut, Stop, STATS_EVERY,
    STEPS_PER_US, TABLE,
};
use crate::measure::{busy, table};
use crate::trace::{Kind, SpanLog};
use fuzzy_barrier::{
    BarrierError, CentralBarrier, MemberHandle, ReconfigBarrier, ReconfigToken, SplitBarrier,
    WaitOutcome,
};
use fuzzy_util::SplitMix64;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const CAPACITY: usize = 3;

/// Generated `churn` inputs.
#[derive(Debug)]
struct ChurnInputs {
    /// Each thread's barrier region per epoch (0–1 µs).
    region: [Vec<u32>; 2],
    /// Epochs the third slot stays a member, per cycle (4–16).
    hold: Vec<u32>,
    /// Epochs between its leave and the next join, per cycle (1–4; at
    /// least one, so the freed slot is installed before it is claimed
    /// again).
    rest: Vec<u32>,
}

impl ChurnInputs {
    fn generate(seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x00C4_0251);
        ChurnInputs {
            region: [
                table(&mut rng, TABLE, 0, STEPS_PER_US),
                table(&mut rng, TABLE, 0, STEPS_PER_US),
            ],
            hold: table(&mut rng, TABLE, 4, 16),
            rest: table(&mut rng, TABLE, 1, 4),
        }
    }
}

fn central(n: usize) -> Arc<dyn SplitBarrier> {
    Arc::new(CentralBarrier::new(n))
}

/// One participant's calls into the layer, with its episode count and log.
struct Member<'a, const TRACE: bool> {
    barrier: &'a ReconfigBarrier,
    log: SpanLog,
    epoch: u64,
    failed: u64,
}

impl<const TRACE: bool> Member<'_, TRACE> {
    fn arrive(&mut self, handle: &MemberHandle) -> Result<ReconfigToken, BarrierError> {
        if !TRACE {
            return self.barrier.arrive(handle);
        }
        let t = Instant::now();
        let token = self.barrier.arrive(handle);
        self.log.end(Kind::ReconfigArrive, self.epoch, t);
        token
    }

    fn wait(&mut self, token: &ReconfigToken) -> Result<(), BarrierError> {
        let out: Result<WaitOutcome, BarrierError> = if TRACE {
            let t = Instant::now();
            let out = self.barrier.wait(token);
            self.log.end_wait(
                Kind::ReconfigWait,
                self.epoch,
                t,
                out.as_ref().ok().copied(),
            );
            out
        } else {
            self.barrier.wait(token)
        };
        self.failed += u64::from(out?.episode != self.epoch);
        Ok(())
    }

    fn work(&mut self, steps: u32) {
        if TRACE {
            let t = Instant::now();
            busy(steps);
            self.log.end(Kind::Work, self.epoch, t);
        } else {
            busy(steps);
        }
    }

    /// One epoch in which `handles` all arrive, the region runs, and all
    /// wait.
    fn epoch(&mut self, handles: &[MemberHandle], region: u32) -> Result<(), BarrierError> {
        let mut tokens = [None, None];
        for (slot, handle) in tokens.iter_mut().zip(handles) {
            *slot = Some(self.arrive(handle)?);
        }
        self.work(region);
        for token in tokens.iter().flatten() {
            self.wait(token)?;
        }
        self.epoch += 1;
        Ok(())
    }
}

struct Part {
    epochs: u64,
    failed: u64,
    /// Membership changes installed: one per join, one per leave.
    installs: u64,
    error: Option<BarrierError>,
    pace: Option<Pace>,
    log: SpanLog,
}

pub fn churn<const TRACE: bool>(ctx: &Ctx) -> RunOut {
    let inputs = ChurnInputs::generate(ctx.seed);
    let ((barrier, handles), setup) = timed_setup(|| ReconfigBarrier::new(CAPACITY, 2, central));
    let stop = Stop::new();
    let (parts, cpu_ns) =
        run_participants(ctx, 2, Pace::start(ctx, 1), |id, mut pace: Option<Pace>| {
            let mut m = Member::<TRACE> {
                barrier: &barrier,
                log: SpanLog::new(ctx.origin, id, ctx.seed),
                epoch: 0,
                failed: 0,
            };
            let mut installs = 0;
            let result = match pace.as_mut() {
                Some(pace) => drive(&mut m, handles[0], &inputs, pace, &stop, &mut installs),
                None => follow(&mut m, handles[1], &inputs, &stop),
            };
            let error = result.err();
            if error.is_some() {
                // Release the peer rather than leave it waiting on us.
                barrier.poison();
            }
            Part {
                epochs: m.epoch,
                failed: m.failed + u64::from(error.is_some()),
                installs,
                error,
                pace,
                log: m.log,
            }
        });
    let mut parts = parts.into_iter();
    let lead = parts.next().expect("controller");
    let peer = parts.next().expect("member");
    let mut out = run_out(
        lead.pace.expect("controller pace"),
        lead.epochs,
        lead.epochs + peer.epochs,
        lead.failed + peer.failed,
        cpu_ns,
        setup,
    );
    for err in [&lead.error, &peer.error].into_iter().flatten() {
        out.problems.push(format!("churn: {err}"));
    }
    out.check(
        barrier.epoch() == lead.epochs && peer.epochs == lead.epochs,
        || {
            format!(
                "final epoch {} but the threads ran {} and {} epochs",
                barrier.epoch(),
                lead.epochs,
                peer.epochs
            )
        },
    );
    let members = barrier.members();
    out.check(members == 2, || {
        format!("the group ended with {members} members")
    });
    out.counters = vec![Counter::ratio(
        "reconfig.installs_per_kepoch",
        1000 * lead.installs,
        lead.epochs,
    )];
    if TRACE {
        out.trace.logs.extend([lead.log, peer.log]);
    }
    out
}

/// The controller: its own member in every epoch, plus the third slot's
/// join / hold / leave cycles. It decides the stop only between cycles,
/// when the group has its two permanent members.
fn drive<const TRACE: bool>(
    m: &mut Member<'_, TRACE>,
    me: MemberHandle,
    inputs: &ChurnInputs,
    pace: &mut Pace,
    stop: &Stop,
    installs: &mut u64,
) -> Result<(), BarrierError> {
    let region = |m: &Member<'_, TRACE>| inputs.region[0][m.epoch as usize % TABLE];
    let mut time_up = false;
    for cycle in 0.. {
        let t = TRACE.then(Instant::now);
        let ticket = m.barrier.join()?;
        m.epoch(&[me], region(m))?;
        time_up |= pace.tick();
        let third = m.barrier.wait_active(&ticket);
        if let Some(t) = t {
            m.log.end(Kind::ReconfigJoin, m.epoch, t);
        }
        *installs += 1;
        for _ in 0..inputs.hold[cycle % TABLE] {
            m.epoch(&[me, third], region(m))?;
            time_up |= pace.tick();
            if TRACE && m.epoch.is_multiple_of(STATS_EVERY) {
                let t = Instant::now();
                black_box(m.barrier.stats());
                m.log.end(Kind::Stats, m.epoch, t);
            }
        }
        let t = TRACE.then(Instant::now);
        m.barrier.leave(third)?;
        if let Some(t) = t {
            m.log.end(Kind::ReconfigLeave, m.epoch, t);
        }
        *installs += 1;
        for _ in 0..inputs.rest[cycle % TABLE] {
            m.epoch(&[me], region(m))?;
            time_up |= pace.tick();
        }
        if time_up {
            stop.stop_after(m.epoch);
            m.epoch(&[me], region(m))?;
            pace.tick();
            return Ok(());
        }
    }
    unreachable!("the cycle loop only ends by returning")
}

/// The other permanent member: one arrival and wait per epoch.
fn follow<const TRACE: bool>(
    m: &mut Member<'_, TRACE>,
    me: MemberHandle,
    inputs: &ChurnInputs,
    stop: &Stop,
) -> Result<(), BarrierError> {
    loop {
        let e = m.epoch;
        m.epoch(&[me], inputs.region[1][e as usize % TABLE])?;
        if stop.is_last(e) {
            return Ok(());
        }
    }
}
