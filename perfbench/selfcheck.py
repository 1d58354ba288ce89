#!/usr/bin/env python3
"""Self-check of the benchmark itself (not part of the timed runs).

    python3 perfbench/selfcheck.py [workload ...]

Run it from the repository root. For each workload (all by default) it
checks that:
  * a normal run exits 0, reports "correct": true and prints exactly the
    metrics BENCHMARK.json lists, with --trace 0 and with --trace 1;
  * a run against a deliberately wrong interpreter reference
    (--corrupt-reference) exits non-zero and reports "correct": false;
  * a run whose stored cost-model fingerprint for the seed has been
    altered exits non-zero.
It also checks that the command fails, without printing a result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 1 if any check fails.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

SECONDS = "1"
BUILD_DIR = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def run(args, cwd="."):
    cmd = ["python3", "perfbench/run.py"] + args
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    expected = {"0": [m["name"] for m in spec["end_to_end"]],
                "1": [m["name"] for m in spec["per_layer"]]}
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in workloads:
        for trace in ("0", "1"):
            p = run(["--workload", w, "--seed", "7", "--seconds", SECONDS, "--trace", trace])
            r = last_json(p.stdout)
            expect(p.returncode == 0 and r is not None and r["correct"],
                   f"{w} --trace {trace}: exits 0 with a correct result")
            expect(r is not None and sorted(r["metrics"]) == sorted(expected[trace]),
                   f"{w} --trace {trace}: prints exactly the metrics BENCHMARK.json lists")
        p = run(["--workload", w, "--seed", "7", "--seconds", SECONDS, "--trace", "0",
                 "--corrupt-reference"])
        r = last_json(p.stdout)
        expect(p.returncode != 0 and r is not None and not r["correct"] and r["failed"] > 0,
               f"{w}: a wrong reference makes the run fail")
        # the file name carries the build's digest, as bench.exe names it
        with open(os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe"), "rb") as f:
            build = hashlib.md5(f.read()).hexdigest()[:12]
        stored = os.path.join(BUILD_DIR, "perfbench-out", f"fingerprint-{w}-seed7-{build}.txt")
        expect(os.path.exists(stored), f"{w}: the seed's fingerprint is stored")
        if os.path.exists(stored):
            with open(stored) as f:
                text = f.read()
            with open(stored, "w") as f:
                f.write(text.replace(" ", " 1", 1))
            p = run(["--workload", w, "--seed", "7", "--seconds", SECONDS, "--trace", "0"])
            with open(stored, "w") as f:
                f.write(text)
            r = last_json(p.stdout)
            expect(p.returncode != 0 and r is not None and not r["correct"],
                   f"{w}: a changed cost-model fingerprint makes the run fail")

    bare = os.path.join(BUILD_DIR, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    p = run(["--workload", workloads[0], "--seed", "7", "--seconds", SECONDS, "--trace", "0"],
            cwd=bare)
    expect(p.returncode != 0 and last_json(p.stdout) is None,
           "fails without a result outside a full checkout")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
