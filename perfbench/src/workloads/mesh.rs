//! `mesh`: two `NetBarrier` endpoints over Unix-domain sockets in one
//! process, one participant thread per endpoint, default `NetConfig`. The
//! only workload where frames cross the kernel.

use super::{
    run_out, run_participants, timed_setup, Counter, Ctx, Pace, RunOut, Stop, STATS_EVERY,
    STEPS_PER_US, TABLE,
};
use crate::measure::{busy, table};
use crate::trace::{Kind, SpanLog};
use fuzzy_barrier::SplitBarrier;
use fuzzy_net::{NetBarrier, NetConfig, SocketTransport};
use fuzzy_util::SplitMix64;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 2;

/// A formed two-endpoint mesh; dropping it shuts both endpoints down.
struct Mesh([Arc<NetBarrier>; NODES]);

impl Drop for Mesh {
    fn drop(&mut self) {
        for endpoint in &self.0 {
            endpoint.shutdown();
        }
    }
}

/// Forms both endpoints concurrently (rank 0 accepts while rank 1
/// connects), as two processes of a mesh would.
fn form(dir: &Path) -> Mesh {
    let (t0, t1) = std::thread::scope(|s| {
        let peer = s.spawn(|| SocketTransport::unix(1, NODES, dir));
        let own = SocketTransport::unix(0, NODES, dir);
        (own, peer.join().expect("mesh rank 1 panicked"))
    });
    let start = |t: Result<SocketTransport, _>| {
        let t = t.unwrap_or_else(|err| panic!("forming the socket mesh failed: {err}"));
        NetBarrier::start(Arc::new(t), NetConfig::new())
    };
    Mesh([start(t0), start(t1)])
}

/// Where the mesh's socket files live: a relative path inside the working
/// directory, short enough for `sun_path` wherever that directory is.
fn socket_dir() -> PathBuf {
    Path::new(crate::OUT_DIR).join(format!("mesh-{}", std::process::id()))
}

struct Part {
    episodes: u64,
    failed: u64,
    pace: Option<Pace>,
    log: SpanLog,
}

pub fn mesh<const TRACE: bool>(ctx: &Ctx) -> RunOut {
    // A small region (0–2 µs) per participant and episode.
    let mut rng = SplitMix64::seed_from_u64(ctx.seed ^ 0x3E5);
    let regions = [
        table(&mut rng, TABLE, 0, 2 * STEPS_PER_US),
        table(&mut rng, TABLE, 0, 2 * STEPS_PER_US),
    ];
    let dir = socket_dir();
    std::fs::create_dir_all(&dir).expect("creating the socket directory");
    let (mesh, setup) = timed_setup(|| form(&dir));
    let stop = Stop::new();
    let (parts, cpu_ns) = run_participants(
        ctx,
        NODES,
        Pace::start(ctx, 1),
        |id, mut pace: Option<Pace>| {
            let b = &mesh.0[id];
            let mut log = SpanLog::new(ctx.origin, id, ctx.seed);
            let (mut e, mut failed) = (0u64, 0u64);
            loop {
                let region = regions[id][e as usize % TABLE];
                let out = if TRACE {
                    let t = Instant::now();
                    let token = b.arrive(0);
                    log.end(Kind::NetArrive, e, t);
                    let t = Instant::now();
                    busy(region);
                    log.end(Kind::Work, e, t);
                    let t = Instant::now();
                    let out = b.wait(token);
                    log.end_wait(Kind::NetWait, e, t, Some(out));
                    out
                } else {
                    let token = b.arrive(0);
                    busy(region);
                    b.wait(token)
                };
                failed += u64::from(out.episode != e);
                if let Some(p) = pace.as_mut() {
                    if p.tick() {
                        stop.stop_after(e + 1);
                    }
                    if TRACE && (e + 1).is_multiple_of(STATS_EVERY) {
                        let t = Instant::now();
                        black_box(SplitBarrier::stats(b.as_ref()));
                        log.end(Kind::Stats, e + 1, t);
                    }
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
        },
    );
    let net: Vec<_> = mesh.0.iter().map(|b| b.net_stats()).collect();
    drop(mesh);
    let _ = std::fs::remove_dir_all(&dir);

    let mut parts = parts.into_iter();
    let lead = parts.next().expect("rank 0");
    let peer = parts.next().expect("rank 1");
    let arrivals = lead.episodes + peer.episodes;
    let mut out = run_out(
        lead.pace.expect("rank 0 pace"),
        lead.episodes,
        arrivals,
        lead.failed + peer.failed,
        cpu_ns,
        setup,
    );
    out.check(lead.episodes == peer.episodes, || {
        format!(
            "endpoints ran {} and {} episodes",
            lead.episodes, peer.episodes
        )
    });
    let sent: u64 = net.iter().map(|n| n.frames_sent).sum();
    let received: u64 = net.iter().map(|n| n.frames_received).sum();
    out.check(sent == received, || {
        format!("{sent} frames sent but {received} received")
    });
    // Dissemination over N endpoints sends ceil(log2 N) frames an arrival.
    let rounds = u64::from(usize::BITS - (NODES - 1).leading_zeros());
    out.check(sent == rounds * arrivals, || {
        format!("{sent} frames for {arrivals} arrivals, expected {rounds} each")
    });
    out.counters = vec![
        Counter::ratio("net.frames_per_arrival", sent, arrivals),
        Counter::total("net.retries", net.iter().map(|n| n.retries).sum()),
        Counter::total(
            "net.decode_errors",
            net.iter().map(|n| n.decode_errors).sum(),
        ),
    ];
    if TRACE {
        out.trace.logs.extend([lead.log, peer.log]);
    }
    out
}
