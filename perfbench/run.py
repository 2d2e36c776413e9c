#!/usr/bin/env python3
"""Benchmark of the smapp simulator: end-to-end wall time and a per-layer
trace, for one workload per invocation.

    python3 perfbench/run.py --workload bulk_ecmp --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds `perfbench/` (a cargo package of its
own that depends on the repository's crates by path) into
`$CARGO_TARGET_DIR`, or `.bench_build` when that is unset, then runs two
passes:

* the memory pass (`perfbench-mem`): one run of each of several worlds under
  the counting allocator, each in a process of its own, for
  `mem.allocs_per_event` and `peak_rss_mb` (means over the worlds);
* the timed pass (`--trace 0`) or the traced pass (`--trace 1`) of
  `perfbench`, for the remaining metrics.

It prints a machine fingerprint, every metric of the pass by name with its
unit, and as its last line one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics of BENCHMARK.json, `--trace 1` its per-layer metrics. The exit code
is 0 only when every run was correct; a failed build exits without a result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from statistics import mean

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
PASS_TIMEOUT_S = 150
# Worlds of the memory pass, one process each: every world seed a
# benchmark seed may use. Peak memory of bulk_ecmp ranges from 15 to 21 MB
# across world seeds (receive-side reordering depends on which paths the
# subflows hash onto), so the pass reports the mean over all of them.
MEM_WORLDS = 16

# Limits the traced pass validates the profiler against (see README.md).
VALIDATION = {
    "prof.wrapped_share": "<= 1 (spans never cover more than the traced wall)",
    "prof.host_replay_share": "<= 1 (receive tap + wire codec inside pm.host.self_s)",
    "prof.apps_replay_share": "<= 1 (send tap inside mptcp.apps.self_s)",
    "prof.tap_share": "~0.47 on bulk_ecmp (ROADMAP tap ablation)",
}


# Child processes still running; each leads a process group of its own.
LIVE = []


def start(cmd, env=None):
    """Start `cmd` from the repository root in its own process group."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=sys.stderr,
        text=True,
        start_new_session=True,
    )
    LIVE.append(proc)
    return proc


def kill(proc):
    """Kill `proc`'s whole process group and wait for `proc`."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def finish(proc, timeout):
    """Wait for `proc`; on timeout kill its process group. Returns (exit code
    or None on timeout, stdout)."""
    try:
        out, _ = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        kill(proc)
        print(f"timed out after {timeout} s: {' '.join(proc.args)}", file=sys.stderr)
        code, out = None, ""
    LIVE.remove(proc)
    return code, out


def on_signal(signum, _frame):
    """Stopped from outside: stop every child first."""
    for proc in list(LIVE):
        kill(proc)
    sys.exit(128 + signum)


def run_all(cmds, timeout, parallel=1):
    """Run `cmds`, `parallel` at a time; returns their parsed last JSON
    lines, or None if any of them failed."""
    results = []
    for i in range(0, len(cmds), parallel):
        procs = [start(cmd) for cmd in cmds[i:i + parallel]]
        for code, out in [finish(p, timeout) for p in procs]:
            res = last_json(out) if code == 0 else None
            if res is None:
                print(f"pass failed (exit {code})", file=sys.stderr)
                return None
            results.append(res)
    return results


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def command_out(cmd):
    try:
        return subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def source_rev():
    """The git commit when the checkout is a repository; otherwise a digest
    of the sources the benchmark builds from."""
    rev = command_out(["git", "rev-parse", "HEAD"])
    if rev:
        return rev
    h = hashlib.sha256()
    for top in ("Cargo.lock", "crates", "vendor", "perfbench"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs
        )
        for p in paths:
            if p.endswith((".rs", ".toml", ".lock", ".py")):
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def fingerprint():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            model = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), ""
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "rustc": command_out(["rustc", "-V"]),
        "rev": source_rev(),
        "profile": "release",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["bulk_ecmp", "churn_fleet", "lossy_ecmp"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    a = ap.parse_args()
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)

    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = start(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", MANIFEST],
        env,
    )
    if finish(build, BUILD_TIMEOUT_S)[0] != 0:
        print("benchmark build failed", file=sys.stderr)
        return 2

    bins = os.path.join(target, "release")
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    mem = run_all(
        [[os.path.join(bins, "perfbench-mem")] + common + ["--world", str(i)]
         for i in range(MEM_WORLDS)],
        PASS_TIMEOUT_S,
        parallel=2,
    )
    timed = mem and run_all(
        [[os.path.join(bins, "perfbench")] + common
         + ["--seconds", str(a.seconds), "--trace", str(a.trace)]],
        PASS_TIMEOUT_S,
    )
    if not timed:
        return 3
    main_pass = timed[0]

    if a.trace:
        metrics = dict(main_pass["metrics"])
        metrics["mem.allocs_per_event"] = {
            "value": mean(m["allocs_per_event"] for m in mem), "unit": "count"}
    else:
        metrics = {
            "wall_s": main_pass["metrics"]["wall_s"],
            "setup_s": main_pass["metrics"]["setup_s"],
            "peak_rss_mb": {
                "value": mean(m["peak_rss_mb"] for m in mem), "unit": "MB"},
        }
    attempted = main_pass["attempted"] + len(mem)
    failed = main_pass["failed"] + sum(m["failed"] for m in mem)

    print("# fingerprint " + json.dumps(fingerprint(), sort_keys=True))
    print(f"# workload {a.workload} seed {a.seed} seconds {a.seconds} trace {a.trace}")
    for name, m in metrics.items():
        note = f"  [{VALIDATION[name]}]" if name in VALIDATION else ""
        print(f"{name:28s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'ops_failed':28s} {failed}/{attempted} runs")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
