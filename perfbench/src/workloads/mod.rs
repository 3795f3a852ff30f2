//! The five workloads. Each is a closed loop: a participant starts its next
//! episode only after its previous one released. Every input is drawn from
//! the seed before the clock starts, and no workload runs more participant
//! threads than the host's two CPUs.

pub mod churn;
pub mod mesh;
pub mod tasks;
pub mod threads;

use crate::measure::{
    allowed_cpus, interquartile_mean, pin_current_thread, process_cpu_ns, quantile, ratio, Samples,
};
use crate::trace::Trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// [`crate::measure::busy`] steps per microsecond of work, roughly, on the
/// reference host (2-vCPU Xeon, ~0.23 ns a step). Only the ratio between
/// inputs matters; the traced run times the work itself.
pub const STEPS_PER_US: u32 = 4400;

/// Entries in each generated input table; episodes cycle through it.
pub const TABLE: usize = 4096;

/// Episode samples kept per round (64 KiB, touched before the clock
/// starts). Most rounds fill it, so what the samples hold barely depends
/// on throughput.
pub const SAMPLE_CAP: usize = 1 << 14;

/// In traced runs, the controller times a `stats()` snapshot this often.
pub const STATS_EVERY: u64 = 256;

/// How one run of a workload is made.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the episode loop runs, over all rounds.
    pub seconds: f64,
    /// Rounds the run is split into; see [`in_rounds`].
    pub rounds: usize,
    /// Which round this is (set by [`in_rounds`]).
    pub round: usize,
    /// Time zero of the span log.
    pub origin: Instant,
}

impl Ctx {
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one run of a workload measured and checked.
#[derive(Debug)]
pub struct RunOut {
    /// What each round measured.
    pub rounds: Vec<Round>,
    /// Seconds each set-up took.
    pub setup_s: Vec<f64>,
    /// Arrivals of all participants together.
    pub arrivals: u64,
    /// Checked operations (every arrival's wait, plus the end-of-run
    /// checks), and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed checks.
    pub problems: Vec<String>,
    /// Spans, in traced runs.
    pub trace: Trace,
    /// Per-layer figures read from the program's own counters.
    pub counters: Vec<Counter>,
}

/// A per-layer figure from the program's counters: a total, or a ratio of
/// totals (so rounds pool exactly).
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    pub name: &'static str,
    num: f64,
    den: Option<f64>,
}

impl Counter {
    pub fn total(name: &'static str, num: u64) -> Self {
        Counter {
            name,
            num: num as f64,
            den: None,
        }
    }

    pub fn ratio(name: &'static str, num: u64, den: u64) -> Self {
        Counter {
            name,
            num: num as f64,
            den: Some(den as f64),
        }
    }

    pub fn value(&self) -> f64 {
        self.den.map_or(self.num, |den| ratio(self.num, den))
    }
}

/// What one round measured on the controller.
#[derive(Debug)]
pub struct Round {
    /// Episodes completed, warm-up included.
    episodes: u64,
    /// Process CPU time (all threads) over the round.
    cpu_ns: u64,
    /// Episode durations after the warm-up; each value spans `per_sample`
    /// episodes, and together they cover `elapsed`.
    samples: Samples,
    per_sample: f64,
    elapsed: Duration,
}

impl Round {
    /// An episode-time quantile, in ns per episode.
    pub fn episode_ns(&self, q: f64) -> f64 {
        quantile(&self.samples.sorted(), q) / self.per_sample
    }

    /// Episodes per second after the warm-up.
    pub fn episodes_per_s(&self) -> f64 {
        self.samples.count() as f64 * self.per_sample / self.elapsed.as_secs_f64()
    }

    pub fn cpu_ns_per_episode(&self) -> f64 {
        ratio(self.cpu_ns as f64, self.episodes as f64)
    }

    /// Episode samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples.count()
    }
}

impl RunOut {
    /// A figure over the whole run: the mean of its middle half of rounds,
    /// so neither a few rounds a host hiccup slowed nor a split between
    /// faster and slower CPUs decides it.
    pub fn over_rounds(&self, figure: impl Fn(&Round) -> f64) -> f64 {
        let values: Vec<f64> = self.rounds.iter().map(figure).collect();
        interquartile_mean(&values)
    }

    /// Pools another round of the same workload into this one.
    fn absorb(&mut self, other: RunOut) {
        self.rounds.extend(other.rounds);
        self.setup_s.extend(other.setup_s);
        self.arrivals += other.arrivals;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.trace.logs.extend(other.trace.logs);
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters) {
            mine.num += theirs.num;
            mine.den = mine.den.zip(theirs.den).map(|(a, b)| a + b);
        }
    }

    /// Counts one end-of-run check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// Runs `round` `ctx.rounds` times, each for an equal share of the run,
/// and pools what the rounds measured. Every round builds the program's
/// objects and starts its threads afresh, on CPUs that rotate from round
/// to round (see [`run_participants`]), so thread placement and per-CPU
/// speed average out within one run instead of shifting whole runs.
pub fn in_rounds(ctx: &Ctx, round: impl Fn(&Ctx) -> RunOut) -> RunOut {
    let rounds = ctx.rounds.max(1);
    let share = |round| Ctx {
        seconds: ctx.seconds / rounds as f64,
        round,
        ..*ctx
    };
    let mut pooled = round(&share(0));
    for r in 1..rounds {
        pooled.absorb(round(&share(r)));
    }
    pooled
}

/// Set-ups timed per round: the program's objects are built this many
/// times in a row and the last build is used, so one cold build cannot
/// set a round's figure.
const SETUP_REPS: usize = 3;

/// Builds the program's objects [`SETUP_REPS`] times, timing each build
/// in seconds, and keeps the last. Earlier builds are torn down untimed.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let start = Instant::now();
        let value = build();
        times.push(start.elapsed().as_secs_f64());
        built = Some(value);
    }
    (built.expect("at least one set-up"), times)
}

/// The controller's stop decision. The controller publishes the last
/// episode before its own arrival for it, so every participant learns it
/// from that episode's release.
#[derive(Debug)]
pub struct Stop(AtomicU64);

impl Stop {
    pub fn new() -> Self {
        Stop(AtomicU64::new(u64::MAX))
    }

    /// Makes `episode` the last one.
    pub fn stop_after(&self, episode: u64) {
        self.0.store(episode, Ordering::SeqCst);
    }

    /// True once `episode`, just completed, was the last.
    pub fn is_last(&self, episode: u64) -> bool {
        episode >= self.0.load(Ordering::SeqCst)
    }
}

/// Start-up a round runs before its clock starts, so thread start and
/// cold caches stay out of the samples.
const WARMUP: Duration = Duration::from_millis(20);

/// The controller's clock: one read per episode (or batch). After the
/// warm-up each read is recorded as a sample, and the round ends once the
/// warm-up plus the round's share of the run has passed.
#[derive(Debug)]
pub struct Pace {
    /// Episodes between two ticks.
    per_tick: u64,
    warm: Instant,
    from: Option<Instant>,
    last: Instant,
    deadline: Instant,
    pub samples: Samples,
    decided: bool,
}

impl Pace {
    /// Starts the clock for a round of `ctx.seconds`, ticked once per
    /// `per_tick` episodes.
    pub fn start(ctx: &Ctx, per_tick: u64) -> Self {
        let samples = Samples::new(SAMPLE_CAP, ctx.seed);
        let mut pace = Pace {
            per_tick,
            warm: Instant::now(),
            from: None,
            last: Instant::now(),
            deadline: Instant::now(),
            samples,
            decided: false,
        };
        pace.restart(ctx);
        pace
    }

    /// Starts the clock again, e.g. once every participant is ready.
    pub fn restart(&mut self, ctx: &Ctx) {
        let now = Instant::now();
        self.warm = now + WARMUP;
        self.from = None;
        self.last = now;
        self.deadline = self.warm + ctx.duration();
    }

    /// Records the episode (or batch) that just ended; returns true, once,
    /// when the round's time is up.
    #[inline]
    pub fn tick(&mut self) -> bool {
        let now = Instant::now();
        if self.from.is_some() {
            self.samples.record(now - self.last);
        } else if now >= self.warm {
            self.from = Some(now);
        }
        self.last = now;
        if !self.decided && now >= self.deadline {
            self.decided = true;
            return true;
        }
        false
    }

    /// The round this clock measured, given the controller's episode count
    /// and the process CPU time over the round.
    fn into_round(self, episodes: u64, cpu_ns: u64) -> Round {
        Round {
            episodes,
            cpu_ns,
            samples: self.samples,
            per_sample: self.per_tick as f64,
            elapsed: self.from.map_or(Duration::ZERO, |from| self.last - from),
        }
    }
}

/// Runs `body(id, pace)` on `n` participant threads, all released at
/// once. Participant 0 is the controller and gets the round's `pace`,
/// allocated by the caller's thread (so every round's buffers come from
/// the same thread) and restarted at the release. Participant `id` is pinned to the allowed CPU
/// `id + ctx.round` (modulo their number): on a virtual machine one CPU
/// can run slower than the other for minutes, and rotating makes every run
/// sample both. Threads the program starts itself are not pinned. The
/// process CPU time is read from the release until every participant has
/// returned.
///
/// # Panics
///
/// Panics if a participant panicked.
pub fn run_participants<T: Send>(
    ctx: &Ctx,
    n: usize,
    pace: Pace,
    body: impl Fn(usize, Option<Pace>) -> T + Sync,
) -> (Vec<T>, u64) {
    let gate = Barrier::new(n + 1);
    let mut lead = Some(pace);
    let cpus = allowed_cpus();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|id| {
                let (body, gate) = (&body, &gate);
                let mut pace = if id == 0 { lead.take() } else { None };
                let cpu = (!cpus.is_empty()).then(|| cpus[(id + ctx.round) % cpus.len()]);
                s.spawn(move || {
                    if let Some(cpu) = cpu {
                        pin_current_thread(cpu);
                    }
                    gate.wait();
                    if let Some(p) = pace.as_mut() {
                        p.restart(ctx);
                    }
                    body(id, pace)
                })
            })
            .collect();
        gate.wait();
        let cpu0 = process_cpu_ns();
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("participant panicked"))
            .collect();
        (outs, process_cpu_ns() - cpu0)
    })
}

/// A fresh result for a run that measured `pace`: the controller's
/// `episodes`, all participants' `arrivals`, of which `failed` returned a
/// wrong episode or an error.
pub fn run_out(
    pace: Pace,
    episodes: u64,
    arrivals: u64,
    failed: u64,
    cpu_ns: u64,
    setup_s: Vec<f64>,
) -> RunOut {
    RunOut {
        rounds: vec![pace.into_round(episodes, cpu_ns)],
        setup_s,
        arrivals,
        attempted: arrivals,
        failed,
        problems: Vec::new(),
        trace: Trace::default(),
        counters: Vec::new(),
    }
}
