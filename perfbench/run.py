#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/bench.exe with dune
into the build directory ($CARGO_TARGET_DIR if set, else .bench_build)
and runs it. The last line of the output is the JSON result.
Cost-model fingerprints and traced-run spans go to <build dir>/perfbench-out.

An untraced run (--trace 0) is split over PROCESSES bench.exe processes
run one after the other, each measuring S/PROCESSES seconds. Consecutive
processes on the same inputs differed by up to 35% in the speed of
steady compiled code on a 2-vCPU KVM guest, and not with address-space
randomization off: one process is one draw of the layout, and the run
averages over several. The end-to-end metrics are
the processes' mean (geometric for unit_ms_geomean), the median for
setup_s, and for peak_rss_mb the largest peak resident set size of a
process. A traced run is one process. The exit code is 0 only if every
process exited 0.
"""

import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
PROCESSES = 5


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def git_rev():
    if not os.path.isdir(".git"):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_bench(cmd, timeout):
    """Runs cmd, killed after timeout seconds; returns (exit code, stdout,
    peak RSS in MB). The child is reaped with wait4 for its own rusage."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def with_option(args, name, value):
    i = args.index(name)
    return args[:i + 1] + [value] + args[i + 2:]


def combine(name, values):
    if name == "setup_s":
        return statistics.median(values)
    if name == "unit_ms_geomean":
        return math.exp(statistics.fmean(math.log(v) for v in values))
    return statistics.fmean(values)


def main():
    needed = ["dune-project", "lib", os.path.join("perfbench", "dune")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        log("run from the repository root; missing: " + ", ".join(missing))
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = ["dune", "build", "--root", ".", "--build-dir", build_dir, "--cache", "disabled",
             "--display", "quiet", "./perfbench/bench.exe"]
    try:
        # dune's output goes to stderr so the result stays the last stdout line
        built = subprocess.run(build, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("build timed out")
        return 2
    if built.returncode != 0:
        log("build failed")
        return 2
    out_dir = os.path.join(build_dir, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    exe = os.path.join(build_dir, "default", "perfbench", "bench.exe")
    args = sys.argv[1:] + ["--out-dir", out_dir, "--rev", git_rev()]
    untraced = option(args, "--trace") == "0"
    try:
        seconds = float(option(args, "--seconds"))
    except (TypeError, ValueError):
        seconds = None
    processes = PROCESSES if untraced and seconds else 1
    if processes > 1:
        args = with_option(args, "--seconds", repr(seconds / processes))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    runs = []
    for i in range(processes):
        code, out, rss_mb = run_bench([exe] + args, max(1.0, deadline - time.monotonic()))
        lines = out.rstrip("\n").splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stdout.write(out)
            log(f"benchmark process {i + 1} exited {code} without a result")
            return code or 2
        runs.append((code, lines[:-1], result, rss_mb))
    code, header, result, rss_mb = runs[0]
    if processes == 1:
        if untraced:
            result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
            header.append(f"# {'peak_rss_mb':<32} {rss_mb:>14} MB")
        print("\n".join(header))
        print(json.dumps(result), flush=True)
        return code
    # the first process's header without its figures, then one line per
    # process and the run's figures
    own = set(result["metrics"]) | {"failed_ratio"}
    print("\n".join(line for line in header if line.split()[1:2] and line.split()[1] not in own))
    for i, (c, _, r, rss) in enumerate(runs):
        figures = " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
        print(f"# process {i + 1}/{processes} exit={c} failed={r['failed']}/{r['attempted']} "
              f"{figures} peak_rss_mb={rss:.6g}")
    metrics = {name: {"value": combine(name, [r["metrics"][name]["value"] for _, _, r, _ in runs]),
                      "unit": m["unit"]}
               for name, m in result["metrics"].items()}
    metrics["peak_rss_mb"] = {"value": max(rss for _, _, _, rss in runs), "unit": "MB"}
    combined = {"correct": all(r["correct"] for _, _, r, _ in runs),
                "attempted": sum(r["attempted"] for _, _, r, _ in runs),
                "failed": sum(r["failed"] for _, _, r, _ in runs),
                "metrics": metrics}
    print(f"# failed_ratio {combined['failed'] / max(1, combined['attempted'])!r} "
          f"({combined['failed']} of {combined['attempted']} units)")
    for name, m in metrics.items():
        print(f"# {name:<32} {m['value']!r:>14} {m['unit']}")
    print(json.dumps(combined), flush=True)
    return next((c for c, _, _, _ in runs if c != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
