//! The timed pass (`--trace 0`) and the traced pass (`--trace 1`) of one
//! workload. Prints one JSON line: the runs attempted and failed, and the
//! metrics of the pass, each with its unit.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! A run fails when the oracle or a stream tap reports a violation, the
//! transfer or a GET does not finish, its trajectory digest differs from
//! an earlier run of the same world seed, or (once per pass, before
//! timing) the twin-parity check against the scenario's own world fails.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use smapp_perfbench::prof::{self, Layer, Profile};
use smapp_perfbench::replay;
use smapp_perfbench::world::{build, twin_parity, Outcome, Workload};
use smapp_perfbench::{arg, world_seeds};

/// Failure bookkeeping shared by both passes.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// First digest seen per world seed.
    digests: HashMap<u64, u64>,
}

impl Tally {
    fn record(&mut self, seed: u64, out: &Outcome) {
        self.attempted += 1;
        let mut problems = out.problems.clone();
        let first = *self.digests.entry(seed).or_insert(out.digest);
        if first != out.digest {
            problems.push(format!(
                "seed {seed}: trajectory digest {:016x} differs from an earlier run's {first:016x}",
                out.digest
            ));
        }
        self.fail_if(problems);
    }

    fn fail_if(&mut self, problems: Vec<String>) {
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("FAIL {p}");
            }
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Runs at least every world seed once, then until `seconds` have passed.
fn keep_going(i: usize, worlds: usize, start: Instant, seconds: Duration) -> bool {
    i < worlds || start.elapsed() < seconds
}

/// A set-up burst builds a world at least this many times...
const SETUP_BURST_MIN: usize = 4;
/// ...and for at least this long: an ECMP world takes microseconds to
/// build, the fleet a quarter of a millisecond.
const SETUP_BURST_TIME: Duration = Duration::from_millis(5);

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The fastest of a burst of constructions of `seed`'s world, seconds.
fn setup_burst(workload: Workload, seed: u64) -> f64 {
    let start = Instant::now();
    let mut fastest = f64::MAX;
    let mut n = 0;
    while n < SETUP_BURST_MIN || start.elapsed() < SETUP_BURST_TIME {
        let t = Instant::now();
        let world = build(workload, seed, false);
        fastest = fastest.min(t.elapsed().as_secs_f64());
        drop(world);
        n += 1;
    }
    fastest
}

fn timed_pass(workload: Workload, seeds: &[u64], seconds: Duration, tally: &mut Tally) -> Metrics {
    // On a shared VM, other tenants' load can slow the simulator by up to
    // 50% for stretches of 5 to 60 s (seen on a 2-vCPU Xeon VM); a seed's
    // fastest run is its least disturbed one, and the median over seeds
    // spans the inputs.
    let mut best = vec![f64::MAX; seeds.len()];
    // Set-up is timed in a burst after every run, so it samples the whole
    // pass as the runs do; its speed flips between levels 30% apart every
    // second or so, and the fastest burst is the least disturbed one. The
    // bursts run on a thread that builds and never runs a world: on the
    // heap the runs churn, a build is slower by an amount that follows the
    // machine's load. The main thread waits for each burst, so nothing
    // runs alongside a timed run.
    let mut setup = f64::MAX;
    let (to_setup, jobs) = mpsc::channel::<u64>();
    let (done, from_setup) = mpsc::channel::<f64>();
    let start = Instant::now();
    let mut i = 0;
    std::thread::scope(|s| {
        s.spawn(move || {
            for seed in jobs {
                let _ = done.send(setup_burst(workload, seed));
            }
        });
        while keep_going(i, seeds.len(), start, seconds) {
            let k = i % seeds.len();
            let out = build(workload, seeds[k], false).run();
            tally.record(seeds[k], &out);
            best[k] = best[k].min(out.wall_s());
            to_setup.send(seeds[k]).expect("set-up thread alive");
            setup = setup.min(from_setup.recv().expect("set-up thread alive"));
            i += 1;
        }
        drop(to_setup);
    });
    eprintln!("timed pass: {i} runs, fastest per world seed {best:.4?}");
    vec![("wall_s", median(best), "s"), ("setup_s", setup, "s")]
}

/// One traced run's per-layer figures, before replay prices are applied.
struct LayerRun {
    plain: Outcome,
    traced: Outcome,
    prof: Profile,
}

fn self_s(p: &Profile, l: Layer) -> f64 {
    p.self_ns[l as usize] as f64 * 1e-9
}

fn traced_pass(workload: Workload, seeds: &[u64], seconds: Duration, tally: &mut Tally) -> Metrics {
    let mut runs: Vec<LayerRun> = Vec::new();
    let mut samples = None;
    let start = Instant::now();
    let mut i = 0;
    while keep_going(i, seeds.len(), start, seconds) {
        let seed = seeds[i % seeds.len()];
        let plain = build(workload, seed, false).run();
        tally.record(seed, &plain);
        let world = build(workload, seed, true);
        prof::reset(world.host_mask());
        let traced = world.run();
        let mut prof = prof::take();
        // The delegates must not change the trajectory.
        tally.record(seed, &traced);
        if samples.is_none() {
            samples = Some(std::mem::take(&mut prof.samples));
        }
        runs.push(LayerRun {
            plain,
            traced,
            prof,
        });
        i += 1;
    }
    eprintln!("traced pass: {i} plain + {i} traced runs");
    let prices = replay::price(&samples.unwrap_or_default());
    if prices.is_none() {
        tally.fail_if(vec!["no segment payload captured for the replays".into()]);
    }
    let prices = prices.unwrap_or_default();

    // Each metric is the median over the traced runs of its per-run value.
    let mut per_run: Vec<Vec<(&'static str, f64, &'static str)>> = Vec::new();
    for r in &runs {
        let p = &r.prof;
        let ev = r.traced.summary.events as f64;
        let wrapped_ns: u64 = p.self_ns.iter().sum();
        let core_s = r.traced.run_s - wrapped_ns as f64 * 1e-9;
        let host_s = self_s(p, Layer::Host);
        let apps_s = self_s(p, Layer::Apps);
        let tap_bytes = (r.traced.tap_sent + r.traced.tap_recvd) as f64;
        let tap_s = tap_bytes * prices.tap_ns_per_byte * 1e-9;
        // The sending tap runs inside the app's write; the receiving tap
        // and the wire codec inside the host's stack.
        let tap_recvd_s = r.traced.tap_recvd as f64 * prices.tap_ns_per_byte * 1e-9;
        let tap_sent_s = tap_s - tap_recvd_s;
        let wire_s =
            (p.host_rx as f64 * prices.decode_ns + p.host_tx as f64 * prices.encode_ns) * 1e-9;
        let records: u64 = p.trace.iter().sum();
        let ns_per_call =
            |l: Layer| ratio(p.self_ns[l as usize] as f64, p.calls[l as usize] as f64);
        let [sends, .., drops, _] = p.trace;
        let mut m = vec![
            ("sim.events", ev, "count"),
            (
                "sim.events_per_s",
                ratio(r.plain.summary.events as f64, r.plain.run_s),
                "1/s",
            ),
            (
                "sim.sim_s_per_wall_s",
                ratio(r.plain.summary.ended_at.as_secs_f64(), r.plain.run_s),
                "s/s",
            ),
            (
                "sim.peak_queue",
                r.traced.summary.peak_queue as f64,
                "count",
            ),
            ("sim.core.self_s", core_s, "s"),
            ("sim.core.ns_per_event", ratio(core_s * 1e9, ev), "ns"),
            ("sim.router.self_s", self_s(p, Layer::Router), "s"),
            ("sim.router.ns_per_pkt", ns_per_call(Layer::Router), "ns"),
            ("sim.oracle.self_s", self_s(p, Layer::Oracle), "s"),
            (
                "sim.oracle.ns_per_record",
                ratio(p.self_ns[Layer::Oracle as usize] as f64, records as f64),
                "ns",
            ),
        ];
        for (name, &n) in TRACE_NAMES.iter().zip(&p.trace) {
            m.push((name, n as f64, "count"));
        }
        m.extend([
            (
                "sim.link.drop_ratio",
                ratio(drops as f64, sends as f64),
                "ratio",
            ),
            ("pm.host.self_s", host_s, "s"),
            ("pm.host.ns_per_call", ns_per_call(Layer::Host), "ns"),
            ("pm.kernel_hook.self_s", self_s(p, Layer::KernelHook), "s"),
            ("pm.verify.self_s", r.traced.conclude_s, "s"),
            ("mptcp.apps.self_s", apps_s, "s"),
            ("mptcp.retransmits", r.traced.retransmits as f64, "count"),
            ("core.controller.self_s", self_s(p, Layer::Controller), "s"),
            ("netlink.frames", p.nl_frames as f64, "count"),
            (
                "netlink.decode.est_s",
                p.nl_frames as f64 * prices.nl_decode_ns * 1e-9,
                "s",
            ),
            ("tcp.check.bytes", tap_bytes, "count"),
            ("tcp.check.est_s", tap_s, "s"),
            ("tcp.wire.segments", (p.host_rx + p.host_tx) as f64, "count"),
            ("tcp.wire.est_s", wire_s, "s"),
            (
                "trace.overhead_ratio",
                ratio(r.traced.wall_s(), r.plain.wall_s()),
                "ratio",
            ),
            (
                "prof.wrapped_share",
                ratio(wrapped_ns as f64 * 1e-9, r.traced.run_s),
                "ratio",
            ),
            (
                "prof.host_replay_share",
                ratio(tap_recvd_s + wire_s, host_s),
                "ratio",
            ),
            ("prof.apps_replay_share", ratio(tap_sent_s, apps_s), "ratio"),
            ("prof.tap_share", ratio(tap_s, r.plain.wall_s()), "ratio"),
        ]);
        // The spans are disjoint pieces of the event loop, so they can never
        // cover more than its wall time; if they do, the profiler is broken.
        if core_s < 0.0 {
            tally.fail_if(vec![format!(
                "wrapped self time exceeds traced wall by {:.6} s",
                -core_s
            )]);
        }
        per_run.push(m);
    }
    let mut out: Metrics = Vec::new();
    for (j, &(name, _, unit)) in per_run[0].iter().enumerate() {
        out.push((name, median(per_run.iter().map(|m| m[j].1).collect()), unit));
    }
    // The replayed prices are taken after the runs, warm, on a machine whose
    // speed drifts, so a share above 1 is reported, not failed.
    for (name, v, _) in &out {
        if name.ends_with("_replay_share") && *v > 1.0 {
            eprintln!("WARN {name} = {v:.3}: replay estimate exceeds its layer's self time");
        }
    }
    out
}

/// Metric names of `Profile::trace`, in its order.
const TRACE_NAMES: [&str; 5] = [
    "sim.trace.send",
    "sim.trace.enqueue",
    "sim.trace.tx_start",
    "sim.trace.drop",
    "sim.trace.deliver",
];

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let workload = arg(&args, "--workload")
        .and_then(|w| Workload::parse(&w))
        .expect("--workload bulk_ecmp|churn_fleet|lossy_ecmp");
    let seed: u64 = arg(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .expect("--seed <u64>");
    let seconds = Duration::from_secs(
        arg(&args, "--seconds")
            .and_then(|s| s.parse().ok())
            .expect("--seconds <whole seconds>"),
    );
    let traced = match arg(&args, "--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => panic!("--trace 0|1"),
    };
    let seeds = world_seeds(workload, seed);
    let mut tally = Tally::default();

    // Twin parity, untimed; it also warms the allocator and caches.
    if let Some(mismatches) = twin_parity(workload, seeds[0]) {
        tally.attempted += 1;
        tally.fail_if(mismatches);
    }

    let metrics = if traced {
        traced_pass(workload, &seeds, seconds, &mut tally)
    } else {
        timed_pass(workload, &seeds, seconds, &mut tally)
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
