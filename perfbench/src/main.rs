//! The fuzzy-barrier episode-stack benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <solo|lockstep|tasks|churn|mesh> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs one workload untraced for `--seconds` and
//! prints the end-to-end metrics. With `--trace 1` it runs every workload
//! twice, untraced then traced, timing each call into each layer, and
//! prints the per-layer metrics, each from the workload it is predicted to
//! move (see `perfbench/README.md`). Both modes check the program's
//! outputs and end with one JSON line: `correct`, `attempted`, `failed`,
//! `metrics`.

mod floor;
mod measure;
mod trace;
mod workloads;

use fuzzy_util::Json;
use measure::{median, peak_rss_kb, quantile, ratio, Host};
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Kind, Span, Trace};
use workloads::{churn, mesh, tasks, threads, Ctx, Round, RunOut};

/// Directory (relative to the working directory) for the span dump and
/// the mesh's socket files.
pub const OUT_DIR: &str = ".perfbench_out";

/// Length of one round (see `workloads::in_rounds`). Short rounds let a
/// run average over many thread placements.
const ROUND_SECONDS: f64 = 0.5;

/// Rounds in a run of `seconds`.
fn rounds(seconds: f64) -> usize {
    (seconds / ROUND_SECONDS).ceil() as usize
}

/// A run that has not finished by then is hung: give up with an error.
const WATCHDOG: Duration = Duration::from_secs(170);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Solo,
    Lockstep,
    Tasks,
    Churn,
    Mesh,
}

impl Workload {
    const ALL: [Workload; 5] = [
        Workload::Solo,
        Workload::Lockstep,
        Workload::Tasks,
        Workload::Churn,
        Workload::Mesh,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo",
            Workload::Lockstep => "lockstep",
            Workload::Tasks => "tasks",
            Workload::Churn => "churn",
            Workload::Mesh => "mesh",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn run(self, ctx: &Ctx, traced: bool) -> RunOut {
        workloads::in_rounds(ctx, |ctx| self.round(ctx, traced))
    }

    fn round(self, ctx: &Ctx, traced: bool) -> RunOut {
        match (self, traced) {
            (Workload::Solo, false) => threads::solo::<false>(ctx),
            (Workload::Solo, true) => threads::solo::<true>(ctx),
            (Workload::Lockstep, false) => threads::lockstep::<false>(ctx),
            (Workload::Lockstep, true) => threads::lockstep::<true>(ctx),
            (Workload::Tasks, false) => tasks::tasks::<false>(ctx),
            (Workload::Tasks, true) => tasks::tasks::<true>(ctx),
            (Workload::Churn, false) => churn::churn::<false>(ctx),
            (Workload::Churn, true) => churn::churn::<true>(ctx),
            (Workload::Mesh, false) => mesh::mesh::<false>(ctx),
            (Workload::Mesh, true) => mesh::mesh::<true>(ctx),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <solo|lockstep|tasks|churn|mesh> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// One reported number.
#[derive(Debug, Clone)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The controller's episode-time quantile, in ns per episode.
fn episode_ns(run: &RunOut, q: f64) -> f64 {
    run.over_rounds(|r| r.episode_ns(q))
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(run: &RunOut) -> Vec<Metric> {
    vec![
        metric(
            "episodes_per_s",
            run.over_rounds(Round::episodes_per_s),
            "1/s",
        ),
        metric("episode_ns.p50", episode_ns(run, 0.50), "ns"),
        metric("episode_ns.p99", episode_ns(run, 0.99), "ns"),
        metric(
            "cpu_ns_per_episode",
            run.over_rounds(Round::cpu_ns_per_episode),
            "ns",
        ),
        metric("setup_s", median(&run.setup_s), "s"),
        metric("peak_rss_kb", peak_rss_kb(), "kB"),
    ]
}

/// A per-layer metric and the end-to-end metric it should move.
struct Prediction {
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
}

/// Every per-layer metric, in report order, with its prediction. The
/// workload each is measured on is the first word of `moves`.
const PREDICTIONS: &[Prediction] = &[
    p(
        "centralized.arrive_ns.p50",
        "ns",
        "solo episode_ns.p50, lockstep episodes_per_s",
    ),
    p(
        "centralized.wait_ns.p50",
        "ns",
        "solo episode_ns.p50, lockstep episodes_per_s",
    ),
    p("centralized.stall_rate", "ratio", "lockstep episodes_per_s"),
    p("centralized.overhead_ns", "ns", "solo episode_ns.p50"),
    p(
        "spin.stall_ns.p50",
        "ns",
        "lockstep episode_ns.p99, cpu_ns_per_episode; solo unchanged",
    ),
    p(
        "spin.stall_ns.p99",
        "ns",
        "lockstep episode_ns.p99, cpu_ns_per_episode; solo unchanged",
    ),
    p(
        "spin.probes_per_stall",
        "count",
        "lockstep cpu_ns_per_episode; solo unchanged",
    ),
    p(
        "spin.deschedule_rate",
        "ratio",
        "lockstep episode_ns.p99, cpu_ns_per_episode",
    ),
    p(
        "stats.snapshot_ns",
        "ns",
        "solo episode_ns.p50; mesh barely",
    ),
    p(
        "floor.episode_ns",
        "ns",
        "solo: yardstick, moves only with the host",
    ),
    p(
        "floor.lockstep_episode_ns",
        "ns",
        "lockstep: yardstick, moves only with the host",
    ),
    p(
        "async.arrive_ns.p50",
        "ns",
        "tasks episode_ns.p50, cpu_ns_per_episode",
    ),
    p(
        "async.await_ns.p50",
        "ns",
        "tasks episode_ns.p50, cpu_ns_per_episode",
    ),
    p(
        "async.await_ns.p99",
        "ns",
        "tasks episode_ns.p50, cpu_ns_per_episode",
    ),
    p(
        "async.polls_per_arrival",
        "count",
        "tasks cpu_ns_per_episode",
    ),
    p("async.parked_per_arrival", "count", "tasks episode_ns.p50"),
    p("async.wakes_per_drain", "count", "tasks episode_ns.p50"),
    p(
        "async.steals_per_episode",
        "count",
        "tasks episode_ns.p50, cpu_ns_per_episode",
    ),
    p("reconfig.arrive_ns.p50", "ns", "churn episodes_per_s"),
    p(
        "reconfig.arrive_ns.p99",
        "ns",
        "churn episodes_per_s, episode_ns.p99",
    ),
    p("reconfig.wait_ns.p50", "ns", "churn episodes_per_s"),
    p(
        "reconfig.join_to_active_ns.p50",
        "ns",
        "churn episode_ns.p99",
    ),
    p("reconfig.leave_ns.p50", "ns", "churn episode_ns.p99"),
    p(
        "reconfig.installs_per_kepoch",
        "count",
        "churn episode_ns.p99",
    ),
    p("net.arrive_ns.p50", "ns", "mesh episode_ns.p50"),
    p("net.wait_ns.p50", "ns", "mesh episode_ns.p50"),
    p("net.frames_per_arrival", "count", "mesh episode_ns.p50"),
    p("net.retries", "count", "mesh episode_ns.p99"),
    p("net.decode_errors", "count", "mesh error_rate"),
    p(
        "work.ns_per_episode.lockstep",
        "ns",
        "lockstep: control, must not move",
    ),
    p(
        "work.ns_per_episode.tasks",
        "ns",
        "tasks: control, must not move",
    ),
    p(
        "work.ns_per_episode.churn",
        "ns",
        "churn: control, must not move",
    ),
    p(
        "work.ns_per_episode.mesh",
        "ns",
        "mesh: control, must not move",
    ),
    p(
        "trace.overhead.solo",
        "ratio",
        "solo: traced / untraced episode_ns.p50",
    ),
    p(
        "trace.overhead.lockstep",
        "ratio",
        "lockstep: traced / untraced episode_ns.p50",
    ),
    p(
        "trace.overhead.tasks",
        "ratio",
        "tasks: traced / untraced episode_ns.p50",
    ),
    p(
        "trace.overhead.churn",
        "ratio",
        "churn: traced / untraced episode_ns.p50",
    ),
    p(
        "trace.overhead.mesh",
        "ratio",
        "mesh: traced / untraced episode_ns.p50",
    ),
];

const fn p(name: &'static str, unit: &'static str, moves: &'static str) -> Prediction {
    Prediction { name, unit, moves }
}

/// p50 (or another quantile) of the spans of `kind`.
fn span_ns(t: &Trace, kind: Kind, q: f64) -> f64 {
    quantile(&t.durations(kind, |_| true), q)
}

/// Mean work per participant and episode: the generated work, timed.
fn work_ns(run: &RunOut) -> f64 {
    let t = &run.trace;
    let kept: Vec<&Span> = t.spans(Kind::Work).collect();
    let mean = ratio(
        kept.iter().map(|s| s.dur_ns as f64).sum(),
        kept.len() as f64,
    );
    ratio(mean * t.calls(Kind::Work) as f64, run.arrivals as f64)
}

/// The per-layer metrics, each from its own workload's traced run.
fn per_layer(
    runs: &[(Workload, RunOut, RunOut)],
    floor_solo: &RunOut,
    floor_lock: &RunOut,
) -> Vec<(&'static str, f64)> {
    let get = |w: Workload| {
        let (_, plain, traced) = runs.iter().find(|r| r.0 == w).expect("every workload ran");
        (plain, traced)
    };
    let (solo_plain, solo) = get(Workload::Solo);
    let (_, lockstep) = get(Workload::Lockstep);
    let (_, tasks) = get(Workload::Tasks);
    let (_, churn) = get(Workload::Churn);
    let (_, mesh) = get(Workload::Mesh);

    let waits: Vec<&Span> = lockstep.trace.spans(Kind::CentralWait).collect();
    let stalls: Vec<_> = waits
        .iter()
        .filter_map(|s| s.outcome.filter(|o| o.stalled))
        .collect();
    let stall_ns = lockstep
        .trace
        .durations(Kind::CentralWait, |s| s.outcome.is_some_and(|o| o.stalled));
    let floor_ns = episode_ns(floor_solo, 0.5);
    let counter = |run: &RunOut, name: &str| {
        run.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0.0, |c| c.value())
    };

    let mut out = vec![
        (
            "centralized.arrive_ns.p50",
            span_ns(&solo.trace, Kind::CentralArrive, 0.5),
        ),
        (
            "centralized.wait_ns.p50",
            span_ns(&solo.trace, Kind::CentralWait, 0.5),
        ),
        (
            "centralized.stall_rate",
            ratio(stalls.len() as f64, waits.len() as f64),
        ),
        (
            "centralized.overhead_ns",
            episode_ns(solo_plain, 0.5) - floor_ns,
        ),
        ("spin.stall_ns.p50", quantile(&stall_ns, 0.5)),
        ("spin.stall_ns.p99", quantile(&stall_ns, 0.99)),
        (
            "spin.probes_per_stall",
            ratio(
                stalls.iter().map(|o| o.probes as f64).sum(),
                stalls.len() as f64,
            ),
        ),
        (
            "spin.deschedule_rate",
            ratio(
                stalls.iter().filter(|o| o.descheduled).count() as f64,
                stalls.len() as f64,
            ),
        ),
        ("stats.snapshot_ns", span_ns(&solo.trace, Kind::Stats, 0.5)),
        ("floor.episode_ns", floor_ns),
        ("floor.lockstep_episode_ns", episode_ns(floor_lock, 0.5)),
        (
            "async.arrive_ns.p50",
            span_ns(&tasks.trace, Kind::AsyncArrive, 0.5),
        ),
        (
            "async.await_ns.p50",
            span_ns(&tasks.trace, Kind::AsyncAwait, 0.5),
        ),
        (
            "async.await_ns.p99",
            span_ns(&tasks.trace, Kind::AsyncAwait, 0.99),
        ),
    ];
    for name in [
        "async.polls_per_arrival",
        "async.parked_per_arrival",
        "async.wakes_per_drain",
        "async.steals_per_episode",
    ] {
        out.push((name, counter(tasks, name)));
    }
    out.extend([
        (
            "reconfig.arrive_ns.p50",
            span_ns(&churn.trace, Kind::ReconfigArrive, 0.5),
        ),
        (
            "reconfig.arrive_ns.p99",
            span_ns(&churn.trace, Kind::ReconfigArrive, 0.99),
        ),
        (
            "reconfig.wait_ns.p50",
            span_ns(&churn.trace, Kind::ReconfigWait, 0.5),
        ),
        (
            "reconfig.join_to_active_ns.p50",
            span_ns(&churn.trace, Kind::ReconfigJoin, 0.5),
        ),
        (
            "reconfig.leave_ns.p50",
            span_ns(&churn.trace, Kind::ReconfigLeave, 0.5),
        ),
        (
            "reconfig.installs_per_kepoch",
            counter(churn, "reconfig.installs_per_kepoch"),
        ),
        (
            "net.arrive_ns.p50",
            span_ns(&mesh.trace, Kind::NetArrive, 0.5),
        ),
        ("net.wait_ns.p50", span_ns(&mesh.trace, Kind::NetWait, 0.5)),
    ]);
    for name in ["net.frames_per_arrival", "net.retries", "net.decode_errors"] {
        out.push((name, counter(mesh, name)));
    }
    out.extend([
        ("work.ns_per_episode.lockstep", work_ns(lockstep)),
        ("work.ns_per_episode.tasks", work_ns(tasks)),
        ("work.ns_per_episode.churn", work_ns(churn)),
        ("work.ns_per_episode.mesh", work_ns(mesh)),
    ]);
    let overhead = |w: Workload| {
        let (plain, traced) = get(w);
        ratio(episode_ns(traced, 0.5), episode_ns(plain, 0.5))
    };
    out.extend([
        ("trace.overhead.solo", overhead(Workload::Solo)),
        ("trace.overhead.lockstep", overhead(Workload::Lockstep)),
        ("trace.overhead.tasks", overhead(Workload::Tasks)),
        ("trace.overhead.churn", overhead(Workload::Churn)),
        ("trace.overhead.mesh", overhead(Workload::Mesh)),
    ]);
    out
}

/// Adds a run's checks to the totals and reports its failures on stderr.
fn tally(label: &str, run: &RunOut, attempted: &mut u64, failed: &mut u64) {
    *attempted += run.attempted;
    *failed += run.failed;
    for problem in &run.problems {
        eprintln!("perfbench: {label}: {problem}");
    }
    if run.failed > 0 && run.problems.is_empty() {
        eprintln!("perfbench: {label}: {} operations failed", run.failed);
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = Json::obj();
    for x in metrics {
        m = m.field(
            &x.name,
            Json::obj().field("value", x.value).field("unit", x.unit),
        );
    }
    Json::obj()
        .field("correct", correct)
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", m)
        .to_string_compact()
}

fn host_line(host: &Host, args: &Args) -> String {
    Json::obj()
        .field(
            "host",
            Json::obj()
                .field("nproc", host.nproc as u64)
                .field("cpu_model", host.cpu_model.as_str())
                .field("clocksource", host.clocksource.as_str())
                .field("clock_read_ns", host.clock_read_ns)
                .field("rustc", host.rustc)
                .field("commit", host.commit.as_str()),
        )
        .field("workload", args.workload.name())
        .field("seed", args.seed)
        .field("seconds", args.seconds)
        .field("trace", args.trace)
        .to_string_compact()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; a workload is hung");
        std::process::exit(3);
    });
    let origin = Instant::now();
    let host = Host::probe();
    println!("{}", host_line(&host, &args));

    let (mut attempted, mut failed) = (0, 0);
    let metrics = if args.trace {
        traced_sweep(&args, origin, &mut attempted, &mut failed)
    } else {
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            rounds: rounds(args.seconds),
            round: 0,
            origin,
        };
        let run = args.workload.run(&ctx, false);
        tally(args.workload.name(), &run, &mut attempted, &mut failed);
        let metrics = end_to_end(&run);
        for m in &metrics {
            println!("metric {:<20} {:>16.3} {}", m.name, m.value, m.unit);
        }
        println!(
            "metric {:<20} {:>16.3} ratio  ({failed} of {attempted} operations failed; \
             {} episode samples)",
            "error_rate",
            ratio(failed as f64, attempted as f64),
            run.rounds.iter().map(Round::samples).sum::<u64>()
        );
        metrics
    };
    println!(
        "{}",
        json_line(failed == 0, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// The traced run: every workload untraced then traced, plus the floor in
/// both shapes, in equal slices of `--seconds`. Writes the spans to
/// [`OUT_DIR`] and returns the per-layer metrics.
fn traced_sweep(
    args: &Args,
    origin: Instant,
    attempted: &mut u64,
    failed: &mut u64,
) -> Vec<Metric> {
    let slices = 2 * Workload::ALL.len() + 2;
    let seconds = args.seconds / slices as f64;
    let ctx = Ctx {
        seed: args.seed,
        seconds,
        rounds: rounds(seconds),
        round: 0,
        origin,
    };
    let runs: Vec<(Workload, RunOut, RunOut)> = Workload::ALL
        .into_iter()
        .map(|w| {
            let plain = w.run(&ctx, false);
            let traced = w.run(&ctx, true);
            tally(w.name(), &plain, attempted, failed);
            tally(
                &format!("{} (traced)", w.name()),
                &traced,
                attempted,
                failed,
            );
            (w, plain, traced)
        })
        .collect();
    let floor_solo = workloads::in_rounds(&ctx, threads::floor_solo);
    let floor_lock = workloads::in_rounds(&ctx, threads::floor_lockstep);
    tally("floor solo", &floor_solo, attempted, failed);
    tally("floor lockstep", &floor_lock, attempted, failed);

    let path = format!("{OUT_DIR}/trace.tsv");
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::File::create(&path))
        .map(std::io::BufWriter::new)
        .and_then(|mut out| {
            runs.iter()
                .try_for_each(|(w, _, traced)| traced.trace.write(w.name(), &mut out))?;
            out.flush()
        });
    match written {
        Ok(()) => println!("spans written to {path}"),
        Err(err) => eprintln!("perfbench: writing {path}: {err}"),
    }

    let values = per_layer(&runs, &floor_solo, &floor_lock);
    PREDICTIONS
        .iter()
        .map(|pred| {
            let value = values
                .iter()
                .find(|v| v.0 == pred.name)
                .unwrap_or_else(|| panic!("{} was not derived", pred.name))
                .1;
            println!(
                "layer {:<32} {:>14.3} {:<6} moves {}",
                pred.name, value, pred.unit, pred.moves
            );
            metric(pred.name, value, pred.unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// The metrics the benchmark prints are exactly those `BENCHMARK.json`
    /// declares, and so are the workloads.
    #[test]
    fn benchmark_json_matches_the_code() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let layer: Vec<String> = PREDICTIONS.iter().map(|p| p.name.to_string()).collect();
        assert_eq!(names(&doc, "per_layer"), layer);
        let e2e = [
            "episodes_per_s",
            "episode_ns.p50",
            "episode_ns.p99",
            "cpu_ns_per_episode",
            "setup_s",
            "peak_rss_kb",
        ];
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
    }
}
