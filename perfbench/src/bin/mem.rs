//! The memory pass: one untimed run of one world under the counting
//! allocator, in a process of its own so its peak resident memory is that
//! world's. Prints allocations per simulated event (first event through
//! `conclude`) and the process's peak resident memory as one JSON line.
//! Kept apart from the timed pass, which uses the system allocator.
//!
//! Usage: `perfbench-mem --workload <name> --seed <n> --world <i>`, where
//! `i` picks the `i`-th world seed of benchmark seed `n`.

use smapp_bench::count_alloc::{allocs, CountingAlloc};
use smapp_perfbench::world::{build, Workload};
use smapp_perfbench::{arg, world_seed};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = arg(&args, "--workload")
        .and_then(|w| Workload::parse(&w))
        .expect("--workload bulk_ecmp|churn_fleet|lossy_ecmp");
    let seed: u64 = arg(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .expect("--seed <u64>");
    let index: u64 = arg(&args, "--world")
        .and_then(|s| s.parse().ok())
        .expect("--world <index>");
    let world = build(workload, world_seed(seed, index), false);
    let before = allocs();
    let out = world.run();
    let allocs = allocs() - before;
    for p in &out.problems {
        eprintln!("{p}");
    }
    println!(
        "{{\"failed\": {}, \"allocs_per_event\": {}, \"peak_rss_mb\": {}}}",
        u8::from(!out.problems.is_empty()),
        allocs as f64 / out.summary.events as f64,
        peak_rss_mb()
    );
}
