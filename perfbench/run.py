#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the benchmark and the CLI into
.bench_build, runs one workload, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}, with the metric
units taken from BENCHMARK.json.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones (0 for a layer the workload does
not touch).  Exits non-zero, printing no result, when it cannot run.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
TARGETS = ["./perfbench/perfbench.exe", "./bin/caffeine_cli.exe"]
NEEDED = ["dune-project", "lib", "bin", os.path.join("examples", "netlists", "cs_amp.sp")]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def run_group(argv, cwd, timeout, env=None, capture=False):
    """Run argv in its own process group, which is killed when it ends.

    Returns (exit code, captured stdout); the code is None on timeout.
    """
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE if capture else None,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        out, code = None, None
    # Nothing the run started may outlive it.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    return code, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    root = os.getcwd()
    missing = [p for p in NEEDED if not os.path.exists(os.path.join(root, p))]
    if missing:
        return fail("not the root of a checkout (missing %s)" % ", ".join(missing))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail("unknown workload %r" % args.workload)

    # Everything dune writes stays in the checkout: its build directory,
    # and no shared cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", root, "--build-dir", os.path.join(root, BUILD_DIR)]
    code, _ = run_group(build + TARGETS, root, 850, env=env)
    if code != 0:
        return fail("build failed")

    exe = os.path.join(root, BUILD_DIR, "default", "perfbench", "perfbench.exe")
    argv = [exe, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    code, out = run_group(argv, root, RUN_TIMEOUT_S, capture=True)
    if code is None:
        return fail("timed out after %.0f s" % (time.monotonic() - started))
    lines = out.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)
    if code != 0 or len(results) != 1:
        return fail("workload exited with code %d" % code)
    result = json.loads(results[0][len("RESULT "):])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    measured = result["metrics"]
    extra = sorted(set(measured) - set(units))
    if extra:
        return fail("metrics missing from BENCHMARK.json: %s" % ", ".join(extra))
    absent = [name for name in units if name not in measured]
    if absent and not args.trace:
        return fail("end-to-end metrics not measured: %s" % ", ".join(absent))
    metrics = {}
    for name, unit in units.items():
        value = measured.get(name, 0.0)  # a layer this workload does not touch
        if not math.isfinite(value):
            return fail("metric %s is not finite" % name)
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
