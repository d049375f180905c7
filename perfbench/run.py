#!/usr/bin/env python3
"""Repo benchmark: builds perfbench from source and runs one workload.

  python3 perfbench/run.py --workload hot_zipf --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root, run records and span dumps to its
out/ directory. Every metric is printed by name and unit; the last line of
standard output is the result JSON. A build, self-test or correctness
failure exits nonzero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} failed: {error}")
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                fail(f"build failed; see {log_path}\n{tail}")


def source_stamp():
    """The git commit when run from a clone, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if sha.returncode == 0:
                return sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name) for d, _, names in os.walk(path)
            for name in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "none (source sha256 " + digest.hexdigest()[:16] + ")"


def print_overhead(records, workload, seed):
    """Tracing overhead: this traced run against the untraced run of the
    same workload and seed, metric by metric."""
    plain_path, traced_path = (
        os.path.join(records, f"{workload}-seed{seed}-trace{t}.json")
        for t in (0, 1))
    if not os.path.exists(plain_path):
        print("tracing overhead: no untraced run of this workload and seed "
              "yet; run it with --trace 0 to compare")
        return
    with open(plain_path) as f:
        plain = json.load(f)["end_to_end"]
    with open(traced_path) as f:
        traced = json.load(f)["end_to_end"]
    print("tracing overhead (traced run vs untraced run, same seed)")
    for name, metric in plain.items():
        if name not in traced:
            continue
        before, after = metric["value"], traced[name]["value"]
        change = f"{100.0 * (after - before) / before:+.1f}%" if before else "n/a"
        print(f"  {name:14s} {before:14.6g} -> {after:14.6g} "
              f"{metric['unit']:6s} {change}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]

    out = build_dir()
    build(out)
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        fail("self-test failed\n" + selftest.stdout[-3000:])

    records = os.path.join(out, "out")
    os.makedirs(records, exist_ok=True)
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out_dir", records, "--git_sha", source_stamp()]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        print("\n".join(lines))
        fail(f"{args.workload} exited with code {run.returncode}")
    result = json.loads(lines[-1])
    if sorted(result["metrics"]) != sorted(expected):
        print("\n".join(lines[:-1]))
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(result['metrics'])} vs {sorted(expected)}")
    print("\n".join(lines[:-1]))
    if args.trace:
        print_overhead(records, args.workload, args.seed)
    print(lines[-1])


if __name__ == "__main__":
    main()
