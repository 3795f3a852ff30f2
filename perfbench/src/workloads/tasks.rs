//! `tasks`: `AsyncBarrier` over the centralized backend, with 64 logical
//! participants multiplexed on an `AsyncExecutor` of two workers. The only
//! workload where waker parking, drains and work stealing do the work.

use super::{
    run_out, timed_setup, Counter, Ctx, Pace, RunOut, Stop, STATS_EVERY, STEPS_PER_US, TABLE,
};
use crate::measure::{busy, process_cpu_ns, table};
use crate::trace::{Kind, SpanLog};
use fuzzy_barrier::{AsyncBarrier, CentralBarrier, SplitBarrier};
use fuzzy_sched::AsyncExecutor;
use fuzzy_util::SplitMix64;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const TASKS: usize = 64;
const WORKERS: usize = 2;

/// What one logical participant did.
struct TaskOut {
    id: usize,
    episodes: u64,
    failed: u64,
    pace: Option<Pace>,
    log: SpanLog,
}

pub fn tasks<const TRACE: bool>(ctx: &Ctx) -> RunOut {
    // Each task's region averages ~30 ns, so each worker does ~1 µs of work
    // per episode for its 32 tasks; the async layer is nearly the whole
    // episode.
    let mut rng = SplitMix64::seed_from_u64(ctx.seed ^ 0x7A5C);
    let regions: Arc<Vec<Vec<u32>>> = Arc::new(
        (0..TASKS)
            .map(|_| {
                table(
                    &mut rng,
                    TABLE,
                    0,
                    STEPS_PER_US * 2 * WORKERS as u32 / TASKS as u32,
                )
            })
            .collect(),
    );
    let ((pool, barrier), setup) = timed_setup(|| {
        // `is_complete` on the centralized backend is a pure read, so the
        // release drain needs no help rounds (as in `run_async_episodes`).
        let barrier = AsyncBarrier::new(CentralBarrier::new(TASKS)).with_help_rounds(0);
        (AsyncExecutor::new(WORKERS), Arc::new(barrier))
    });
    let stop = Arc::new(Stop::new());
    let outs = Arc::new(Mutex::new(Vec::with_capacity(TASKS)));
    let mut lead_pace = Some(Pace::start(ctx, 1));
    let ctx = *ctx;
    let cpu0 = process_cpu_ns();
    for id in 0..TASKS {
        let (barrier, regions, stop, outs) = (
            Arc::clone(&barrier),
            Arc::clone(&regions),
            Arc::clone(&stop),
            Arc::clone(&outs),
        );
        let mut pace = if id == 0 { lead_pace.take() } else { None };
        pool.spawn(async move {
            let mut log = SpanLog::new(ctx.origin, id, ctx.seed);
            if let Some(p) = pace.as_mut() {
                p.restart(&ctx);
            }
            let (mut e, mut failed) = (0u64, 0u64);
            loop {
                let region = regions[id][e as usize % TABLE];
                let result = if TRACE {
                    let t = Instant::now();
                    let future = barrier.arrive_async(id);
                    log.end(Kind::AsyncArrive, e, t);
                    let t = Instant::now();
                    busy(region);
                    log.end(Kind::Work, e, t);
                    let t = Instant::now();
                    let result = future.await;
                    log.end_wait(Kind::AsyncAwait, e, t, result.as_ref().ok().copied());
                    result
                } else {
                    let future = barrier.arrive_async(id);
                    busy(region);
                    future.await
                };
                match result {
                    Ok(out) => failed += u64::from(out.episode != e),
                    Err(_) => {
                        failed += 1;
                        break;
                    }
                }
                if let Some(p) = pace.as_mut() {
                    if p.tick() {
                        stop.stop_after(e + 1);
                    }
                    if TRACE && (e + 1).is_multiple_of(STATS_EVERY) {
                        let t = Instant::now();
                        black_box(barrier.async_stats());
                        log.end(Kind::Stats, e + 1, t);
                    }
                }
                let last = stop.is_last(e);
                e += 1;
                if last {
                    break;
                }
            }
            outs.lock()
                .expect("no task panics while holding the results lock")
                .push(TaskOut {
                    id,
                    episodes: e,
                    failed,
                    pace,
                    log,
                });
        });
    }
    pool.wait_idle();
    let cpu_ns = process_cpu_ns() - cpu0;
    let steals = pool.steals();
    drop(pool);

    let mut tasks = std::mem::take(
        &mut *outs
            .lock()
            .expect("no task panics while holding the results lock"),
    );
    tasks.sort_by_key(|t| t.id);
    let lead_episodes = tasks[0].episodes;
    let pace = tasks[0].pace.take().expect("task 0 keeps the pace");
    let mut out = run_out(
        pace,
        lead_episodes,
        tasks.iter().map(|t| t.episodes).sum(),
        tasks.iter().map(|t| t.failed).sum(),
        cpu_ns,
        setup,
    );
    let ragged = tasks.iter().filter(|t| t.episodes != lead_episodes).count();
    out.check(tasks.len() == TASKS && ragged == 0, || {
        format!(
            "{} of {TASKS} tasks finished, {ragged} ran a different episode count",
            tasks.len()
        )
    });
    let front = barrier.async_stats();
    out.check(front.parked == front.resumed, || {
        format!(
            "{} futures parked but {} resumed",
            front.parked, front.resumed
        )
    });
    let arrivals = SplitBarrier::stats(barrier.as_ref()).arrivals;
    out.counters = vec![
        Counter::ratio("async.polls_per_arrival", front.polls, arrivals),
        Counter::ratio("async.parked_per_arrival", front.parked, arrivals),
        Counter::ratio("async.wakes_per_drain", front.wakes, front.drains),
        Counter::ratio("async.steals_per_episode", steals, lead_episodes),
    ];
    if TRACE {
        out.trace.logs = tasks.into_iter().map(|t| t.log).collect();
    }
    out
}
