//! The CI perf/parity regression gate.
//!
//! `perf_report --smoke` writes a JSON report; the `perf_gate` binary runs
//! this module's [`check`] over it and exits non-zero when a hard
//! invariant regressed:
//!
//! * `parallel_parity` must be `true` — a parallel sweep that changes any
//!   trajectory is a correctness bug, not noise.
//! * `fig2c_trajectory_parity` must be `true` or `null` (smoke runs skip
//!   the baseline comparison) — per-seed simulation trajectories must
//!   reproduce the recorded baseline bit-for-bit.
//! * Aggregate smoke throughput (total events / total wall seconds) must
//!   stay within a **generous** factor of the committed baseline
//!   ([`SMOKE_BASELINE_EVENTS_PER_SEC`]). CI runners vary wildly, so the
//!   default threshold only catches order-of-magnitude collapses
//!   (accidental debug builds, quadratic regressions), not percent-level
//!   noise — the honest perf numbers live in `BENCH_PR10.json`.
//! * The fig2c/refresh row may not drop more than [`FIG2C_MAX_DROP`]
//!   below the best committed BENCH figure
//!   ([`FIG2C_BEST_COMMITTED_EVENTS_PER_SEC`]) — the **ratchet** that
//!   would have caught the PR4→PR9 creeping collapse. Allocation counts
//!   are wall-clock-independent, so each scenario row must also stay
//!   under its committed `allocs_per_event` ceiling
//!   ([`ALLOC_CEILINGS`]). Both checks are disabled together with the
//!   aggregate floor when `min_ratio` is `0.0` (instrumented builds).
//! * Every scenario registered in [`crate::scenarios::ALL`] must appear in
//!   the report — a new scenario cannot silently skip benchmarking.
//! * The generated-scenario fuzz corpus must have run with **zero**
//!   protocol-invariant oracle violations; a missing fuzz section fails
//!   the gate too (the corpus cannot silently stop running).
//! * The corpus slice's union feature coverage (`coverage_bits`) must
//!   **strictly exceed** the recorded dynamics-only baseline
//!   (`baseline_coverage_bits`) — the adversarial middleboxes and the
//!   traffic mix cannot silently stop contributing behavior.
//! * The fleet's sockdiag sweep must have run (`diag.probes > 0`) and its
//!   overhead must stay at **at most one calendar event per probe**
//!   (`extra_events <= probes`): probes are read-only by contract, so any
//!   additional event means introspection perturbed the trajectory.
//!
//! The parser is deliberately tiny and hand-rolled (the workspace carries
//! no serde): it only reads the flat `"key": value` shapes `perf_report`
//! emits.

/// Aggregate smoke events/sec committed as the gate baseline, measured
/// with `perf_report --smoke --jobs 2` on the reference machine.
/// Update when the smoke workload composition changes materially — last
/// re-measured after the PR-10 zero-alloc hot-path work (pooled buffers,
/// SoA calendar queue, scratch-buffer pump loop).
pub const SMOKE_BASELINE_EVENTS_PER_SEC: f64 = 1_350_000.0;

/// Default minimum fraction of [`SMOKE_BASELINE_EVENTS_PER_SEC`] a smoke
/// run must reach: generous enough for slow shared CI runners, tight
/// enough to catch an accidental debug build (~30× slower) or an
/// algorithmic collapse.
pub const DEFAULT_MIN_RATIO: f64 = 0.05;

/// Best committed fig2c/refresh single-thread events/sec measured under
/// the current conditions — always-on protocol-invariant oracle, stream
/// taps and counting allocator; figures from before those layers are not
/// comparable. Raised from `BENCH_PR10.json`'s 1,582,459 with the
/// word-wide stream-tap digest: interleaved `perf_report --jobs 1` runs
/// on a 2-vCPU Xeon gave a best of 2.09M events/sec (1.27–2.09M over
/// three runs) against 1.23M (1.13–1.23M) for the byte-serial digest.
/// The constant sits below that best so the shorter, noisier smoke row
/// (1.48–2.27M on the same machine) clears the floor. This is the
/// **ratchet**: raise it when a change commits a faster figure, never
/// lower it to absorb a regression.
pub const FIG2C_BEST_COMMITTED_EVENTS_PER_SEC: f64 = 1_750_000.0;

/// Maximum fraction the report's fig2c/refresh row may drop below
/// [`FIG2C_BEST_COMMITTED_EVENTS_PER_SEC`] before the ratchet fails the
/// gate. 25% absorbs run-to-run noise on the reference machine while
/// catching the PR4→PR9 class of creeping regression (−79%) immediately.
pub const FIG2C_MAX_DROP: f64 = 0.25;

/// Per-scenario `allocs_per_event` ceilings, pinned just above the PR-10
/// measured values (smoke and full mode, whichever is higher — short
/// smoke runs amortize setup allocations over fewer events). Keyed by
/// scenario name; every variant of a scenario shares its ceiling. The
/// tier-1 `alloc_ceilings` test re-measures each scenario against this
/// table, and [`check`] enforces it on every emitted report.
pub const ALLOC_CEILINGS: &[(&str, f64)] = &[
    ("fig2a", 0.35),
    ("fig2b", 0.25),
    ("fig2c", 0.20),
    ("fig3", 0.15),
    ("sec42", 0.15),
    ("fleet", 0.55),
    ("handover", 0.20),
    ("flap", 0.20),
    ("middlebox", 0.20),
    ("cdn", 1.10),
    ("fuzz", 0.90),
];

/// The committed allocs/event ceiling for a scenario (any variant).
pub fn alloc_ceiling(scenario: &str) -> Option<f64> {
    ALLOC_CEILINGS
        .iter()
        .find(|(name, _)| *name == scenario)
        .map(|(_, ceiling)| *ceiling)
}

/// Gate verdict: what was read and which invariants failed.
#[derive(Debug)]
pub struct GateReport {
    /// The report's `parallel_parity` flag.
    pub parallel_parity: Option<bool>,
    /// The report's `fig2c_trajectory_parity` flag (`None` = JSON `null`).
    pub fig2c_parity: Option<bool>,
    /// Scenario row names found (`"fig2a/backup"`, …).
    pub scenario_names: Vec<String>,
    /// The report's fuzz-corpus oracle-violation count (`None` = missing).
    pub fuzz_violations: Option<u64>,
    /// The corpus slice's union feature-coverage bits (`None` = missing).
    pub fuzz_coverage_bits: Option<u64>,
    /// The dynamics-only coverage floor recorded alongside it.
    pub fuzz_baseline_bits: Option<u64>,
    /// The fleet's sockdiag probe count (`None` = missing section).
    pub diag_probes: Option<u64>,
    /// Calendar events the probed fleet run cost beyond an unprobed one.
    pub diag_extra_events: Option<u64>,
    /// Aggregate events/sec over all scenario rows.
    pub events_per_sec: f64,
    /// Human-readable failed invariants; empty = gate passes.
    pub failures: Vec<String>,
}

impl GateReport {
    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Find `"key": <scalar>` in `json` and return the raw scalar text.
fn raw_value<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Parse a `true`/`false`/`null` flag.
fn flag(json: &str, key: &str) -> Option<bool> {
    match raw_value(json, key) {
        Some("true") => Some(true),
        Some("false") => Some(false),
        _ => None,
    }
}

/// Check a `perf_report` JSON against the gate invariants. `min_ratio`
/// scales [`SMOKE_BASELINE_EVENTS_PER_SEC`]; pass
/// [`DEFAULT_MIN_RATIO`] for the CI default, or `0.0` to disable the
/// throughput check (e.g. under instrumented builds).
pub fn check(json: &str, min_ratio: f64) -> GateReport {
    let mut failures = Vec::new();

    let parallel_parity = flag(json, "parallel_parity");
    if parallel_parity != Some(true) {
        failures.push(format!(
            "parallel_parity is {parallel_parity:?}, expected Some(true): \
             --jobs N trajectories diverged from --jobs 1"
        ));
    }

    // `null` (smoke mode) is acceptable; an explicit `false` is not.
    let fig2c_parity = flag(json, "fig2c_trajectory_parity");
    if fig2c_parity == Some(false) {
        failures.push(
            "fig2c_trajectory_parity is false: per-seed trajectory diverged \
             from the recorded baseline"
                .to_string(),
        );
    }

    // Scenario rows: one object per line in the emitted JSON.
    let mut scenario_names = Vec::new();
    let mut events_total = 0.0f64;
    let mut wall_total = 0.0f64;
    let mut fig2c_events_per_sec = None;
    for line in json.lines() {
        let line = line.trim_start();
        if !line.starts_with('{') || !line.contains("\"workload\":") {
            continue;
        }
        let Some(name) = raw_value(line, "name").map(|v| v.trim_matches('"').to_string()) else {
            continue;
        };
        let events: f64 = raw_value(line, "events")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        let wall: f64 = raw_value(line, "wall_s")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        events_total += events;
        wall_total += wall;
        if min_ratio > 0.0 {
            // Per-scenario allocator-pressure ceiling: the measurement
            // pass reports allocations/event per row; a breach is a
            // hot-path regression regardless of wall-clock. Disabled
            // together with the throughput checks (`min_ratio` 0.0) for
            // instrumented/debug runs, where concurrent test cells share
            // the process-wide counter.
            let scenario = name.split('/').next().unwrap_or(&name);
            let allocs_per_event: Option<f64> =
                raw_value(line, "allocs_per_event").and_then(|v| v.parse().ok());
            match (alloc_ceiling(scenario), allocs_per_event) {
                (Some(ceiling), Some(ape)) => {
                    if ape > ceiling {
                        failures.push(format!(
                            "scenario {name}: {ape:.2} allocs/event breaches the \
                             committed ceiling {ceiling:.2} — the hot path \
                             regressed allocator pressure"
                        ));
                    }
                }
                (Some(_), None) => failures.push(format!(
                    "scenario {name} carries no allocs_per_event — allocator \
                     pressure was not measured"
                )),
                (None, _) => {}
            }
        }
        if name == "fig2c/refresh" && wall > 0.0 {
            fig2c_events_per_sec = Some(events / wall);
        }
        scenario_names.push(name);
    }
    let events_per_sec = if wall_total > 0.0 {
        events_total / wall_total
    } else {
        0.0
    };

    // The fig2c throughput ratchet: the reference row may not drop more
    // than [`FIG2C_MAX_DROP`] below the best committed BENCH_*.json
    // figure. Disabled together with the aggregate floor (`min_ratio`
    // 0.0) for instrumented/debug builds, where wall-clock means nothing.
    if min_ratio > 0.0 {
        let ratchet_floor = FIG2C_BEST_COMMITTED_EVENTS_PER_SEC * (1.0 - FIG2C_MAX_DROP);
        match fig2c_events_per_sec {
            Some(eps) if eps < ratchet_floor => failures.push(format!(
                "fig2c/refresh at {eps:.0} events/sec dropped more than \
                 {:.0}% below the best committed figure \
                 {FIG2C_BEST_COMMITTED_EVENTS_PER_SEC:.0} (ratchet floor \
                 {ratchet_floor:.0})",
                FIG2C_MAX_DROP * 100.0
            )),
            Some(_) => {}
            None => failures.push(
                "report carries no fig2c/refresh row — the ratchet \
                 reference scenario was not measured"
                    .to_string(),
            ),
        }
    }

    for want in crate::scenarios::ALL {
        if !scenario_names
            .iter()
            .any(|n| n.split('/').next() == Some(*want))
        {
            failures.push(format!(
                "scenario {want} is registered but missing from the report \
                 — it skipped benchmarking"
            ));
        }
    }

    // Fuzz corpus: the generated scenarios must have run (cases > 0),
    // oracle-clean (violations == 0).
    let fuzz_violations = raw_value(json, "violations").and_then(|v| v.parse::<u64>().ok());
    match fuzz_violations {
        Some(0) => {}
        Some(n) => failures.push(format!(
            "fuzz corpus reported {n} protocol-invariant oracle violation(s) — \
             replay the offending seed with `fuzz -- --replay <seed>`"
        )),
        None => failures.push(
            "report carries no fuzz violation count — the generated-scenario \
             corpus did not run"
                .to_string(),
        ),
    }
    let fuzz_cases = raw_value(json, "cases").and_then(|v| v.parse::<u64>().ok());
    if fuzz_violations.is_some() && fuzz_cases.unwrap_or(0) == 0 {
        failures.push(
            "fuzz section reports zero generated cases — the corpus silently \
             stopped running"
                .to_string(),
        );
    }

    // Corpus feature coverage must strictly beat the dynamics-only
    // derivation over the same seeds: a corpus that stops reaching the
    // adversarial-middlebox / traffic-mix feature space regressed even if
    // it stays oracle-clean.
    let fuzz_coverage_bits = raw_value(json, "coverage_bits").and_then(|v| v.parse::<u64>().ok());
    let fuzz_baseline_bits =
        raw_value(json, "baseline_coverage_bits").and_then(|v| v.parse::<u64>().ok());
    match (fuzz_coverage_bits, fuzz_baseline_bits) {
        (Some(cov), Some(base)) => {
            if cov <= base {
                failures.push(format!(
                    "fuzz corpus coverage is {cov} feature bits, not above the \
                     dynamics-only baseline of {base} — the corpus no longer \
                     exercises the extended feature space"
                ));
            }
        }
        _ => failures.push(
            "report carries no fuzz coverage_bits/baseline_coverage_bits — \
             the corpus coverage floor was not measured"
                .to_string(),
        ),
    }

    // Sockdiag plane: the sweep must have run, and since probes are
    // read-only its whole cost is the probe calendar events themselves.
    let diag_probes = raw_value(json, "probes").and_then(|v| v.parse::<u64>().ok());
    let diag_extra_events = raw_value(json, "extra_events").and_then(|v| v.parse::<u64>().ok());
    match (diag_probes, diag_extra_events) {
        (Some(0), _) => failures.push(
            "diag section reports zero sockdiag probes — the fleet's \
             introspection sweep silently stopped running"
                .to_string(),
        ),
        (Some(probes), Some(extra)) => {
            if extra > probes {
                failures.push(format!(
                    "sockdiag overhead is {extra} extra events for {probes} \
                     probes — probes must cost at most one calendar event \
                     each and perturb nothing"
                ));
            }
        }
        _ => failures.push(
            "report carries no diag probes/extra_events — sockdiag probe \
             overhead was not measured"
                .to_string(),
        ),
    }

    let floor = SMOKE_BASELINE_EVENTS_PER_SEC * min_ratio;
    if events_per_sec < floor {
        failures.push(format!(
            "aggregate {events_per_sec:.0} events/sec is below the gate \
             floor {floor:.0} ({min_ratio} x committed baseline \
             {SMOKE_BASELINE_EVENTS_PER_SEC:.0})"
        ));
    }

    GateReport {
        parallel_parity,
        fig2c_parity,
        scenario_names,
        fuzz_violations,
        fuzz_coverage_bits,
        fuzz_baseline_bits,
        diag_probes,
        diag_extra_events,
        events_per_sec,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature report in the exact shape `perf_report` emits, with one
    /// row per registered scenario.
    fn sample(parity: &str, fig2c: &str, events: u64) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"sweep\": {{\"jobs\": 2, \"parallel_parity\": {parity}}},\n"
        ));
        s.push_str("  \"scenarios\": [\n");
        let n = crate::scenarios::ALL.len();
        for (i, name) in crate::scenarios::ALL.iter().enumerate() {
            // The ratchet keys on the real fig2c/refresh row name.
            let variant = if *name == "fig2c" { "refresh" } else { "v" };
            s.push_str(&format!(
                "    {{\"name\": \"{name}/{variant}\", \"workload\": \"w\", \"runs\": 1, \
                 \"wall_s\": 0.5000, \"events\": {events}, \"events_per_sec\": 1, \
                 \"allocs_per_event\": 0.1, \"peak_queue\": 10, \"sim_s\": 1.0}}{}\n",
                if i + 1 < n { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(
            "  \"fuzz\": {\"cases\": 4, \"violations\": 0, \"coverage_bits\": 54, \
             \"baseline_coverage_bits\": 40},\n",
        );
        s.push_str(
            "  \"diag\": {\"probes\": 120, \"conns\": 110, \"subflows\": 200, \
             \"extra_events\": 120},\n",
        );
        s.push_str(&format!("  \"fig2c_trajectory_parity\": {fig2c}\n"));
        s.push_str("}\n");
        s
    }

    #[test]
    fn healthy_report_passes() {
        let json = sample("true", "null", 10_000_000);
        let r = check(&json, DEFAULT_MIN_RATIO);
        assert!(r.passed(), "failures: {:?}", r.failures);
        assert_eq!(r.parallel_parity, Some(true));
        assert_eq!(r.fig2c_parity, None);
        assert_eq!(r.scenario_names.len(), crate::scenarios::ALL.len());
        assert!(r.events_per_sec > 1_000_000.0);
    }

    #[test]
    fn parity_regression_fails() {
        let r = check(&sample("false", "null", 10_000_000), DEFAULT_MIN_RATIO);
        assert!(!r.passed());
        assert!(r.failures.iter().any(|f| f.contains("parallel_parity")));
    }

    #[test]
    fn fig2c_baseline_divergence_fails_but_null_is_fine() {
        let r = check(&sample("true", "false", 10_000_000), DEFAULT_MIN_RATIO);
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("fig2c_trajectory_parity")));
        let r = check(&sample("true", "true", 10_000_000), DEFAULT_MIN_RATIO);
        assert!(r.passed(), "failures: {:?}", r.failures);
    }

    #[test]
    fn throughput_collapse_fails_but_zero_ratio_disables() {
        // 100 events over 0.5 s per row: far below any sane floor.
        let slow = sample("true", "null", 100);
        assert!(!check(&slow, DEFAULT_MIN_RATIO).passed());
        assert!(check(&slow, 0.0).passed());
    }

    /// Rewrite one field on the fig2c/refresh row only, leaving every
    /// other row untouched.
    fn patch_fig2c_row(json: &str, from: &str, to: &str) -> String {
        json.lines()
            .map(|l| {
                if l.contains("fig2c/refresh") {
                    l.replace(from, to)
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn fig2c_ratchet_fails_on_30_percent_regression() {
        // The fig2c row's events over its 0.5 s wall at a given drop from
        // the best committed figure.
        let events_at = |drop: f64| {
            let events = FIG2C_BEST_COMMITTED_EVENTS_PER_SEC * (1.0 - drop) * 0.5;
            format!("\"events\": {}", events as u64)
        };
        // A 30% drop is below the 25% ratchet floor. The other rows keep
        // 20M events/sec, so the aggregate floor stays green and only the
        // ratchet can fail.
        let json = sample("true", "null", 10_000_000);
        let regressed = patch_fig2c_row(&json, "\"events\": 10000000", &events_at(0.30));
        let r = check(&regressed, DEFAULT_MIN_RATIO);
        assert!(!r.passed());
        assert!(
            r.failures.iter().any(|f| f.contains("ratchet floor")),
            "failures: {:?}",
            r.failures
        );
        // Ratio 0.0 (instrumented builds) disables the ratchet.
        assert!(check(&regressed, 0.0).passed());
        // A 20% drop stays inside the 25% allowance.
        let ok = patch_fig2c_row(&json, "\"events\": 10000000", &events_at(0.20));
        assert!(check(&ok, DEFAULT_MIN_RATIO).passed());
    }

    #[test]
    fn missing_fig2c_reference_row_fails_ratchet() {
        let renamed = sample("true", "null", 10_000_000).replace("fig2c/refresh", "fig2c/other");
        let r = check(&renamed, DEFAULT_MIN_RATIO);
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("no fig2c/refresh row")));
    }

    #[test]
    fn alloc_ceiling_breach_fails() {
        // 0.50 allocs/event against fig2c's 0.20 ceiling.
        let json = sample("true", "null", 10_000_000);
        let hot = patch_fig2c_row(
            &json,
            "\"allocs_per_event\": 0.1",
            "\"allocs_per_event\": 0.5",
        );
        let r = check(&hot, DEFAULT_MIN_RATIO);
        assert!(!r.passed());
        assert!(
            r.failures
                .iter()
                .any(|f| f.contains("breaches the committed ceiling")),
            "failures: {:?}",
            r.failures
        );
        // Ratio 0.0 (instrumented builds, shared alloc counter) disables it.
        assert!(check(&hot, 0.0).passed());
    }

    #[test]
    fn missing_allocs_per_event_fails() {
        let json = sample("true", "null", 10_000_000);
        let unmeasured = patch_fig2c_row(&json, "\"allocs_per_event\": 0.1, ", "");
        let r = check(&unmeasured, DEFAULT_MIN_RATIO);
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("allocator pressure was not measured")));
    }

    #[test]
    fn ceiling_table_covers_every_registered_scenario() {
        for name in crate::scenarios::ALL {
            assert!(
                alloc_ceiling(name).is_some(),
                "scenario {name} has no committed allocs/event ceiling"
            );
        }
    }

    #[test]
    fn zero_fuzz_cases_fails() {
        let empty = sample("true", "null", 10_000_000).replace("\"cases\": 4", "\"cases\": 0");
        let r = check(&empty, DEFAULT_MIN_RATIO);
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("zero generated cases")));
    }

    #[test]
    fn fuzz_violations_fail_and_missing_section_fails() {
        let bad =
            sample("true", "null", 10_000_000).replace("\"violations\": 0", "\"violations\": 3");
        let r = check(&bad, DEFAULT_MIN_RATIO);
        assert_eq!(r.fuzz_violations, Some(3));
        assert!(r.failures.iter().any(|f| f.contains("oracle violation")));

        let sample_fuzz_line = sample("true", "null", 10_000_000)
            .lines()
            .find(|l| l.contains("\"fuzz\":"))
            .expect("sample carries a fuzz line")
            .to_string();
        let gone = sample("true", "null", 10_000_000).replace(&format!("{sample_fuzz_line}\n"), "");
        let r = check(&gone, DEFAULT_MIN_RATIO);
        assert_eq!(r.fuzz_violations, None);
        assert!(r.failures.iter().any(|f| f.contains("corpus did not run")));
    }

    #[test]
    fn coverage_not_above_baseline_fails() {
        let flat = sample("true", "null", 10_000_000)
            .replace("\"coverage_bits\": 54", "\"coverage_bits\": 40");
        let r = check(&flat, DEFAULT_MIN_RATIO);
        assert_eq!(r.fuzz_coverage_bits, Some(40));
        assert_eq!(r.fuzz_baseline_bits, Some(40));
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("dynamics-only baseline")));
    }

    #[test]
    fn missing_coverage_fields_fail() {
        let gone = sample("true", "null", 10_000_000).replace(
            ", \"coverage_bits\": 54, \
             \"baseline_coverage_bits\": 40",
            "",
        );
        let r = check(&gone, DEFAULT_MIN_RATIO);
        assert_eq!(r.fuzz_coverage_bits, None);
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("coverage floor was not measured")));
    }

    #[test]
    fn diag_overhead_and_missing_section_fail() {
        // Healthy sample: extra_events == probes passes (checked by
        // healthy_report_passes). One event too many fails.
        let heavy = sample("true", "null", 10_000_000)
            .replace("\"extra_events\": 120", "\"extra_events\": 121");
        let r = check(&heavy, DEFAULT_MIN_RATIO);
        assert_eq!(r.diag_probes, Some(120));
        assert_eq!(r.diag_extra_events, Some(121));
        assert!(r.failures.iter().any(|f| f.contains("sockdiag overhead")));

        let silent = sample("true", "null", 10_000_000).replace("\"probes\": 120", "\"probes\": 0");
        let r = check(&silent, DEFAULT_MIN_RATIO);
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("zero sockdiag probes")));

        let sample_diag_line = sample("true", "null", 10_000_000)
            .lines()
            .find(|l| l.contains("\"diag\":"))
            .expect("sample carries a diag line")
            .to_string();
        let gone = sample("true", "null", 10_000_000).replace(&format!("{sample_diag_line}\n"), "");
        let r = check(&gone, DEFAULT_MIN_RATIO);
        assert_eq!(r.diag_probes, None);
        assert!(r
            .failures
            .iter()
            .any(|f| f.contains("overhead was not measured")));
    }

    #[test]
    fn missing_scenario_fails_coverage() {
        let json = sample("true", "null", 10_000_000).replace("\"fleet/v\"", "\"fleeb/v\"");
        let r = check(&json, DEFAULT_MIN_RATIO);
        assert!(r.failures.iter().any(|f| f.contains("scenario fleet")));
    }

    #[test]
    fn sample_matches_serializer_field_order() {
        // The synthetic sample mimics the serializer's row shape; keep the
        // first parsed name consistent with it. True end-to-end coverage
        // against `PerfReport::to_json` lives in
        // `perf::tests::smoke_report_runs_and_serializes`, which pipes a
        // real report through `check`.
        let json = sample("true", "null", 5_000_000);
        let r = check(&json, DEFAULT_MIN_RATIO);
        assert_eq!(
            r.scenario_names[0],
            format!("{}/v", crate::scenarios::ALL[0])
        );
    }
}
