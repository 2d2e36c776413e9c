//! # smapp-perfbench — the simulator's benchmark
//!
//! Builds each workload's world from the crates' public constructors
//! ([`world`]), times it on the host clock, and ends every run in
//! `smapp_pm::verify::conclude`. A separate traced pass wraps every layer
//! in timing delegates ([`prof`]) and prices the sub-layers inside the host
//! by replaying inputs captured from that same run ([`replay`]).
//! `run.py` drives the passes; `README.md` lists the workloads, metrics and
//! predictions.

pub mod prof;
pub mod replay;
pub mod world;

/// World seeds a benchmark `--seed` may use; the sets of two benchmark
/// seeds are disjoint.
pub const WORLDS_PER_SEED: u64 = 16;

/// The `i`-th world seed of benchmark seed `seed`.
pub fn world_seed(seed: u64, i: u64) -> u64 {
    assert!(i < WORLDS_PER_SEED, "world index {i} out of range");
    seed.wrapping_mul(WORLDS_PER_SEED).wrapping_add(i)
}

/// The world seeds the timed and traced passes of `workload` cycle
/// through, so every seed runs several times and its trajectory digest is
/// compared across repetitions.
pub fn world_seeds(workload: world::Workload, seed: u64) -> Vec<u64> {
    (0..workload.worlds_per_run())
        .map(|i| world_seed(seed, i))
        .collect()
}

/// Parse `--name value` pairs; returns the value of `name` or `None`.
pub fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}
