#!/usr/bin/env python3
"""Build and run the gTop-k wall-clock benchmark for one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (a Cargo package of its own that depends on the
repository's crates by path) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs it with the kernel pool pinned to one thread
per rank (`GTOPK_THREADS=1`), and relays its output. The last line printed
is the result object; the exit code is non-zero if the build, a check or
the result's shape fails.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The benchmark binary must end well within the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(why):
    print(f"perfbench: {why}", file=sys.stderr)
    sys.exit(2)


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}, [w["name"] for w in bench["workloads"]]


def check_result(line, expected):
    """The reason `line` is not a well-formed result, or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys are {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        return f"metrics {got} do not match BENCHMARK.json {expected}"
    for name, m in result["metrics"].items():
        if type(m.get("value")) not in (int, float):
            return f"metric {name} has no numeric value"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail(f"no program source next to the benchmark (expected {ROOT}/crates)")
    expected, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; one of {workloads}")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")],
            cwd=ROOT, env=env, stdout=sys.stderr,
        )
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if build.returncode != 0:
        fail("build failed")

    git_rev = tool_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(
        os.path.join(ROOT, ".git")) else None
    print(f"run: git rev {git_rev or 'unknown (not a git checkout)'}, "
          f"{tool_output(['rustc', '--version']) or 'rustc unknown'}", flush=True)

    env["GTOPK_THREADS"] = "1"
    try:
        proc = subprocess.Popen(
            [os.path.join(target, "release", "gtopk-perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        )
    except OSError as e:
        fail(f"cannot start the benchmark binary: {e}")
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = None
    for line in proc.stdout:
        if last is not None:
            print(last, flush=True)
        last = line.rstrip("\n")
    code = proc.wait()
    watchdog.cancel()
    if code < 0:
        fail(f"the benchmark was stopped after {RUN_TIMEOUT_S} s")
    why = check_result(last or "", expected)
    if why:
        print(last, file=sys.stderr)
        fail(f"malformed result: {why}")
    print(last, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
