//! Clocks, sample sets, process counters and the host record shared by
//! every workload.

use fuzzy_util::SplitMix64;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `iters` steps of a dependent multiply-add chain: the generated
/// work of a phase or barrier region. One step costs a fraction of a
/// nanosecond (see [`crate::workloads::STEPS_PER_US`]);
/// the traced run times it (`work.ns_per_episode.*`) so a change in the
/// program can be told apart from a change in the work.
#[inline]
pub fn busy(iters: u32) -> u64 {
    let mut x = u64::from(black_box(iters)) | 1;
    for i in 0..iters {
        x = x
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(u64::from(i));
    }
    black_box(x)
}

/// Draws `len` values uniform in `[lo, hi]` from `rng`: one generated
/// input table (work or region lengths, in [`busy`] steps).
pub fn table(rng: &mut SplitMix64, len: usize, lo: u32, hi: u32) -> Vec<u32> {
    (0..len)
        .map(|_| rng.range_u64(u64::from(lo), u64::from(hi)) as u32)
        .collect()
}

/// A bounded, uniformly sampled set of nanosecond durations.
///
/// The buffer is allocated and touched up front, so peak RSS does not grow
/// with throughput; past its capacity the set keeps a uniform reservoir
/// sample, so quantiles stay unbiased however long the run.
#[derive(Debug)]
pub struct Samples {
    buf: Vec<u32>,
    cap: usize,
    seen: u64,
    rng: SplitMix64,
}

impl Samples {
    /// A sample set holding at most `cap` values; `seed` drives the
    /// reservoir's replacement choices.
    pub fn new(cap: usize, seed: u64) -> Self {
        let mut buf = vec![u32::MAX; cap];
        buf.clear();
        Samples {
            buf,
            cap,
            seen: 0,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// Adds one duration.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos() as u64);
    }

    /// Adds one duration given in nanoseconds (saturating at `u32::MAX`).
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        let v = ns.min(u64::from(u32::MAX)) as u32;
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            let j = self.rng.range_u64(0, self.seen) as usize;
            if j < self.cap {
                self.buf[j] = v;
            }
        }
        self.seen += 1;
    }

    /// Number of durations recorded (not only those retained).
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// The sorted retained values.
    pub fn sorted(&self) -> Vec<u32> {
        let mut v = self.buf.clone();
        v.sort_unstable();
        v
    }
}

/// Nearest-rank quantile of sorted values; 0 for an empty set.
pub fn quantile(sorted: &[u32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of the middle half of `values` (all of them when there are
/// fewer than four).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    ratio(middle.iter().sum(), middle.len() as f64)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words in a CPU mask: glibc's `cpu_set_t`, 1024 CPUs.
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on, in order; empty if unknown.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is writable and exactly as long as the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`. A refused pin leaves the thread
/// where the scheduler put it.
pub fn pin_current_thread(cpu: usize) {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is readable and exactly as long as the size passed;
    // pid 0 names the calling thread. Failure only means no pin.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed by the whole process so far, in ns.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant the kernel accepts; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size of the process (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Median cost of one `Instant::now()` over nine batches, in ns.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 20_000;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS)
        })
        .collect();
    median(&batches)
}

/// The host a result was measured on.
#[derive(Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub clocksource: String,
    pub clock_read_ns: f64,
    pub rustc: &'static str,
    pub commit: String,
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Self {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            .unwrap_or_else(|| "unknown".into());
        let clocksource = read("/sys/devices/system/clocksource/clocksource0/current_clocksource")
            .trim()
            .to_string();
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            clocksource: if clocksource.is_empty() {
                "unknown".into()
            } else {
                clocksource
            },
            clock_read_ns: clock_read_ns(),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
        }
    }
}

/// The commit checked out in the working directory, read straight from
/// `.git` so no search leaves the directory.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0, 100.0]), 2.5);
        assert_eq!(interquartile_mean(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn reservoir_keeps_capacity_and_counts_everything() {
        let mut s = Samples::new(8, 1);
        for ns in 0..1000 {
            s.record_ns(ns);
        }
        assert_eq!(s.count(), 1000);
        assert_eq!(s.sorted().len(), 8);
    }
}
