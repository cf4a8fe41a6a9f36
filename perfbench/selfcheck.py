#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark (about a minute, mostly the build).

    python3 perfbench/selfcheck.py

Runs every workload at minimal size through run.py, untraced and traced, and
checks that each run reports exactly the metrics BENCHMARK.json lists, with
their units, as finite numbers (end-to-end ones non-zero), and passes the
correctness gate. Then checks that the gate is wired: a run whose repeats
disagree (--break-gate) and a run with an IBARB_* override set must both
exit non-zero. Exits non-zero on the first problem.
"""
import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def fail(msg):
    print(f"selfcheck: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(workload, trace, extra=(), env=None):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None), done


def check_result(workload, trace, expected):
    code, res, done = run(workload, trace)
    if code != 0 or res is None:
        fail(f"{workload} trace={trace} exited {code}:\n{done.stderr[-3000:]}")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        fail(f"{workload}: gate not passed: {res}")
    got = res["metrics"]
    if set(got) != set(expected):
        fail(f"{workload} trace={trace}: missing "
             f"{sorted(set(expected) - set(got))}, unlisted "
             f"{sorted(set(got) - set(expected))}")
    for name, metric in got.items():
        value = metric.get("value")
        if metric.get("unit") != expected[name]:
            fail(f"{workload}: {name} unit {metric.get('unit')!r}, "
                 f"BENCHMARK.json says {expected[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: {name} = {value!r} is not a finite number")
        if trace == 0 and value == 0:
            fail(f"{workload}: end-to-end metric {name} is 0")
    print(f"selfcheck: {workload} trace={trace}: {len(got)} metrics ok",
          file=sys.stderr)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        check_result(workload, 0, end_to_end)
        check_result(workload, 1, per_layer)

    for workload in workloads:
        code, res, _ = run(workload, 0, ["--break-gate"])
        if code == 0 or res is None or res["correct"] is not False \
                or res["failed"] < 1:
            fail(f"{workload}: a digest mismatch did not fail the run "
                 f"(exit {code}, {res})")
    env = dict(os.environ, IBARB_SHARDS="2")
    code, res, _ = run(workloads[0], 0, env=env)
    if code == 0 or res is not None:
        fail("a set IBARB_SHARDS did not refuse the run")
    print("selfcheck: ok", file=sys.stderr)


if __name__ == "__main__":
    main()
