#!/usr/bin/env python3
"""Repository benchmark: builds the driver, runs one workload, checks it.

    python3 perfbench/run.py --workload lookup_flood --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

Each workload run is one fresh driver process (peak RSS is process-wide and
monotone).  The script prints every metric by name with its unit and the
direction that is better, then, as the last stdout line, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end set, with --trace 1 the per-layer set from a traced run.
Exit status is 0 only when the build succeeded and the correctness gate
passed.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("lookup_flood", "ring_cached", "churn_heal")
DRIVER_TIMEOUT_S = 175


def metric_tables():
    """The end-to-end and per-layer metric lists, from BENCHMARK.json: each
    maps a name to its (unit, better)."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return tuple({m["name"]: (m["unit"], m["better"]) for m in spec[key]}
                     for key in ("end_to_end", "per_layer"))
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metric lists from BENCHMARK.json: {e}")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def whole_number(flag, text, lo, hi):
    """Strict non-negative integer in [lo, hi]; names the flag on error."""
    if not text.isdigit() or not lo <= int(text) <= hi:
        fail(f"{flag}: expected a whole number in [{lo}, {hi}], got {text!r}")
    return int(text)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="one of %s, or 'all'" % ", ".join(WORKLOADS))
    p.add_argument("--seed", required=True)
    p.add_argument("--seconds", default="10")
    p.add_argument("--trace", default="0")
    a = p.parse_args(argv)
    if a.workload != "all" and a.workload not in WORKLOADS:
        fail(f"--workload: unknown workload {a.workload!r} "
             f"(known: {', '.join(WORKLOADS)}, all)")
    a.seed = whole_number("--seed", a.seed, 0, 2**64 - 1)
    a.seconds = whole_number("--seconds", a.seconds, 1, 120)
    a.trace = whole_number("--trace", a.trace, 0, 1)
    return a


def build():
    """Configures and builds the driver; returns its path.  Output goes to
    stderr so the last stdout line stays the result."""
    out = BUILD_DIR
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "perfbench_driver",
         "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    driver = out / "perfbench_driver"
    if not driver.is_file():
        fail(f"build produced no driver at {driver}")
    return driver


def provenance():
    try:
        desc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
        rev = desc.stdout.strip() if desc.returncode == 0 else ""
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    return rev or "unknown (not a git checkout)"


def run_driver(driver, workload, args):
    cmd = [str(driver), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        prof = BUILD_DIR / "profile"
        prof.mkdir(parents=True, exist_ok=True)
        cmd += ["--collapsed", str(prof / f"{workload}.collapsed")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver exceeded {DRIVER_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    if done.returncode not in (0, 1):
        fail(f"{workload}: driver exited {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload}: driver printed no result")
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{workload}: unreadable driver result: {e}")
    # The driver's verdict must agree with its exit status.
    if res.get("correct") != (done.returncode == 0):
        fail(f"{workload}: driver exit {done.returncode} contradicts "
             f"correct={res.get('correct')}")
    return res


def report(res, table, section):
    c = res["counts"]
    print(f"== {res['workload']} seed={res['seed']} peers={res['peers']} "
          f"correct={res['correct']}")
    print(f"   ops attempted={res['attempted']} failed={res['failed']} "
          f"(no actor {c['ops_no_actor']}, stuck joins {c['joins_stuck']}, "
          f"join retries {c['join_retries']}) "
          f"rounds={c['rounds']} traced_rounds={c['traced_rounds']}")
    print(f"   samples: lookups={c['lookup_samples']} of "
          f"{c['lookups_issued']} issued, joins={c['join_samples']}, "
          f"set-ups={c['setup_samples']}; events={c['events']} "
          f"messages={c['messages']}")
    print(f"   digests: stream={res['stream_digest']} sim={res['sim_digest']}")
    for err in res["gate_errors"]:
        print(f"   GATE FAILURE: {err}")
    values = res[section]
    metrics = {}
    for name, (unit, better) in table.items():
        if name not in values:
            fail(f"{res['workload']}: driver did not report {name}")
        v = values[name]
        metrics[name] = {"value": v, "unit": unit}
        print(f"   {name:40s} {v:>18.6g} {unit:13s} ({better} is better)")
    return metrics


def main(argv):
    args = parse_args(argv)
    end_to_end, per_layer = metric_tables()
    driver = build()
    print(f"perfbench: revision {provenance()}, host threads "
          f"{os.cpu_count()}, driver {driver}")
    table, section = ((per_layer, "per_layer") if args.trace
                      else (end_to_end, "end_to_end"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in workloads:
        res = run_driver(driver, w, args)
        prov = res["provenance"]
        print(f"   build={prov['build_type']} ndebug={prov['ndebug']} "
              f"routing={prov['routing']} compiler={prov['compiler']}")
        m = report(res, table, section)
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({f"{w}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
