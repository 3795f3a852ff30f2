//! Micro-benchmarks for the fuzzy-barrier suite.
//!
//! Most rows measure single-participant protocol costs, simulator
//! throughput and compiler pipeline latency. The `episode_pair/*` rows
//! time an episode between two threads, which needs two CPUs to measure
//! the barrier rather than the scheduler. The oversubscribed comparisons
//! live in `exp_backend_faceoff` and the simulator experiments
//! (`exp_hotspot_scaling`, `exp_encore`).
//!
//! Formerly a criterion harness; the build environment is offline, so a
//! small self-timing loop (`bench`) reports median-of-batches ns/iter.

use fuzzy_barrier::{
    CentralBarrier, CountingBarrier, DisseminationBarrier, HierBarrier, ProcMask, ReconfigBarrier,
    SplitBarrier, StallPolicy, TopLevel, TreeBarrier,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Times `f` over several batches and prints the median ns/iter.
fn bench<F: FnMut()>(name: &str, mut f: F) {
    // Warm-up, then pick a batch size targeting ~2ms per batch.
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = t.elapsed();
        if elapsed.as_millis() >= 2 || iters >= 1 << 24 {
            break;
        }
        iters *= 2;
    }
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let median = samples[samples.len() / 2];
    println!("{name:<44} {median:>12.1} ns/iter   ({iters} iters/batch)");
}

/// The five backends for `n` participants, hier with both tops. Hier
/// uses singleton shards, so with two or more participants every episode
/// goes through its top level.
fn backends(n: usize) -> Vec<(&'static str, Box<dyn SplitBarrier>)> {
    let hier = |top| Box::new(HierBarrier::with_shards(n, 1, top, StallPolicy::default()));
    vec![
        ("central", Box::new(CentralBarrier::new(n))),
        ("counting", Box::new(CountingBarrier::new(n))),
        ("dissemination", Box::new(DisseminationBarrier::new(n))),
        ("tree", Box::new(TreeBarrier::new(n))),
        ("hier", hier(TopLevel::Dissemination)),
        ("hier-tree", hier(TopLevel::Tree)),
    ]
}

/// Cost of one arrive+wait episode per backend (single participant: the
/// uncontended fast path every design should make cheap), then the same
/// episode through `ReconfigBarrier` over the centralized backend.
fn bench_backends() {
    for (name, b) in &backends(1) {
        bench(&format!("episode_uncontended/{name}"), || {
            let t = b.arrive(0);
            black_box(b.wait(t));
        });
    }
    let (b, handles) = ReconfigBarrier::new(1, 1, |n| {
        Arc::new(CentralBarrier::new(n)) as Arc<dyn SplitBarrier>
    });
    bench("episode_uncontended/reconfig", || {
        let t = b.arrive(&handles[0]).expect("the only member is active");
        black_box(b.wait(&t).expect("a lone member's epoch completes"));
    });
}

/// Cost of one arrive+wait episode with two participants on two threads:
/// a partner thread runs the same episodes as the timed loop.
fn bench_pairs() {
    for (name, b) in &backends(2) {
        // The last episode the partner runs; unknown until timing ends.
        let last = AtomicU64::new(u64::MAX);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut e = 0;
                while e <= last.load(Ordering::Acquire) {
                    let t = b.arrive(1);
                    b.wait(t);
                    e += 1;
                }
            });
            let mut done = 0;
            bench(&format!("episode_pair/{name}"), || {
                let t = b.arrive(0);
                black_box(b.wait(t));
                done += 1;
            });
            // The partner may already be waiting on episode `done`; run it
            // together. The store happens-before that episode completes,
            // so the partner stops after it.
            last.store(done, Ordering::Release);
            let t = b.arrive(0);
            b.wait(t);
        });
    }
}

/// Split-phase with a region of useful work vs point synchronization:
/// the protocol overhead should stay constant as the region grows.
fn bench_region_overlap() {
    for region in [0u64, 32, 256] {
        let b = CentralBarrier::new(1);
        bench(&format!("arrive_region_wait/{region}"), || {
            let t = b.arrive(0);
            let mut acc = 0u64;
            for i in 0..region {
                acc = acc.wrapping_add(i);
            }
            black_box(acc);
            black_box(b.wait(t));
        });
    }
}

/// Mask operations used on every subset-barrier arrival.
fn bench_masks() {
    let mask: ProcMask = (0..64).step_by(3).collect();
    bench("mask_rank_of", || {
        black_box(mask.rank_of(black_box(33)));
    });
}

/// Simulator throughput: a two-processor barrier-per-iteration loop.
fn bench_simulator() {
    use fuzzy_sim::assembler::assemble_program;
    use fuzzy_sim::machine::{Machine, MachineConfig};
    let src = "\
.stream
    li r1, 0
    li r2, 64
loop:
    addi r1, r1, 1
B:  nop
B:  blt r1, r2, loop
    halt
.stream
    li r1, 0
    li r2, 64
loop:
    addi r1, r1, 1
B:  nop
B:  blt r1, r2, loop
    halt
";
    let program = assemble_program(src).expect("assembles");
    bench("sim_64_synchronized_iterations", || {
        let mut m = Machine::new(program.clone(), MachineConfig::default()).expect("loads");
        black_box(m.run(1_000_000).expect("runs"));
    });
}

/// Compiler pipeline latency: Poisson body from AST to reordered regions.
fn bench_compiler() {
    use fuzzy_compiler::ast::*;
    use fuzzy_compiler::{deps, lower, reorder};
    let nest = {
        let k = VarId(0);
        let i = VarId(1);
        let j = VarId(2);
        let p = ArrayId(0);
        let acc = |di: i64, dj: i64| {
            Expr::Access(ArrayAccess::new(
                p,
                vec![Subscript::var(i, di), Subscript::var(j, dj)],
            ))
        };
        LoopNest {
            arrays: vec![ArrayDecl {
                name: "P".into(),
                dims: vec![4, 4],
                base: 0,
            }],
            seq_var: k,
            seq_lo: 1,
            seq_hi: 20,
            private_vars: vec![i, j],
            body: vec![Stmt::Assign(Assign {
                target: ArrayAccess::new(p, vec![Subscript::var(i, 0), Subscript::var(j, 0)]),
                value: Expr::div_const(
                    Expr::add(
                        Expr::add(Expr::add(acc(0, 1), acc(0, -1)), acc(1, 0)),
                        acc(-1, 0),
                    ),
                    4,
                ),
            })],
            var_names: vec!["k".into(), "i".into(), "j".into()],
        }
    };
    bench("compile_poisson_to_regions", || {
        let info = deps::analyze(black_box(&nest));
        let body = lower::lower_body(&nest, &info.marked_for_carried());
        black_box(reorder::reorder(&body));
    });
}

/// Scheduling policies: full dispatch sequence for 10k iterations.
fn bench_schedulers() {
    use fuzzy_sched::self_sched::{
        chunk_sequence, FixedChunk, GuidedSelfScheduling, SelfScheduling,
    };
    bench("dispatch_10k_iters/self", || {
        black_box(chunk_sequence(10_000, 8, &SelfScheduling));
    });
    bench("dispatch_10k_iters/chunk64", || {
        black_box(chunk_sequence(10_000, 8, &FixedChunk(64)));
    });
    bench("dispatch_10k_iters/gss", || {
        black_box(chunk_sequence(10_000, 8, &GuidedSelfScheduling));
    });
}

fn main() {
    bench_backends();
    bench_pairs();
    bench_region_overlap();
    bench_masks();
    bench_simulator();
    bench_compiler();
    bench_schedulers();
}
