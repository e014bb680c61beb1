#!/usr/bin/env python3
"""Self-tests of the benchmark: determinism, trace neutrality, arguments.

    python3 perfbench/tests/test_determinism.py

Builds the driver (through run.py) and runs every workload at the size the
benchmark measures, one round each (--seconds 1): about two minutes on a
4-thread x86-64 host.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402  (perfbench/run.py)

SIMULATED = ("lookup_success", "lookup_p50_ms", "lookup_p99_ms", "join_p50_ms",
             "join_p99_ms", "msgs_per_op", "peers_per_lookup",
             "data_availability")
DRIVER = None
RUNS = {}  # (workload, seed, trace) -> (driver result, op stream bytes)


def driver(*args, check=True):
    """Runs the driver; returns (exit code, parsed last line or None, stderr)."""
    done = subprocess.run([str(DRIVER), *args], capture_output=True,
                          text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else None
    if check:
        assert done.returncode == 0, done.stderr
    return done.returncode, res, done.stderr


def one_round(workload, seed, trace):
    """One --seconds 1 driver run (a traced run adds a traced round), with
    its dumped op stream; each distinct run is made once per test file."""
    key = (workload, seed, trace)
    if key not in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "stream")
            res = driver("--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", str(trace),
                         "--dump-stream", path)[1]
            with open(path, "rb") as f:
                RUNS[key] = (res, f.read())
    return RUNS[key]


class Determinism(unittest.TestCase):
    def test_same_seed_same_stream_and_outcomes(self):
        for w in run.WORKLOADS:
            a, a_stream = one_round(w, 7, 0)
            b, b_stream = one_round(w, 7, 1)  # its first round is untraced
            self.assertEqual(a_stream, b_stream, w)
            self.assertEqual(a["stream_digest"], b["stream_digest"], w)
            self.assertEqual(a["sim_digest"], b["sim_digest"], w)
            for m in SIMULATED:
                self.assertEqual(a["end_to_end"][m], b["end_to_end"][m],
                                 f"{w} {m}")

    def test_tracing_does_not_perturb_the_simulation(self):
        per_layer = run.metric_tables()[1]
        for w in run.WORKLOADS:
            plain = one_round(w, 7, 0)[0]
            traced = one_round(w, 7, 1)[0]
            self.assertTrue(traced["correct"], traced["gate_errors"])
            self.assertGreaterEqual(traced["counts"]["traced_rounds"], 1)
            self.assertEqual(plain["sim_digest"], traced["traced_sim_digest"],
                             w)
            for name in per_layer:
                self.assertIn(name, traced["per_layer"], f"{w} {name}")

    def test_different_seed_changes_the_stream(self):
        for w in run.WORKLOADS:
            a, a_stream = one_round(w, 7, 0)
            c, c_stream = one_round(w, 8, 0)
            self.assertNotEqual(a_stream, c_stream, w)
            self.assertNotEqual(a["stream_digest"], c["stream_digest"], w)


class Arguments(unittest.TestCase):
    BAD = [
        (["--workload", "nope", "--seed", "1"], "--workload"),
        (["--workload", "ring_cached", "--seed", "abc"], "--seed"),
        (["--workload", "ring_cached", "--seed", "-3"], "--seed"),
        (["--workload", "ring_cached", "--seed", "1", "--seconds", "-5"],
         "--seconds"),
        (["--workload", "ring_cached", "--seed", "1", "--seconds", "2.5"],
         "--seconds"),
        (["--workload", "ring_cached", "--seed", "1", "--trace", "2"],
         "--trace"),
    ]

    def test_driver_rejects_bad_arguments_by_name(self):
        for args, flag in self.BAD:
            code, res, err = driver(*args, check=False)
            self.assertEqual(code, 2, args)
            self.assertIsNone(res, args)
            self.assertIn(flag, err, args)

    def test_runner_rejects_bad_arguments_by_name(self):
        for args, flag in self.BAD:
            done = subprocess.run(
                [sys.executable, str(run.BENCH_DIR / "run.py"), *args],
                capture_output=True, text=True, timeout=60)
            self.assertNotEqual(done.returncode, 0, args)
            self.assertEqual(done.stdout.strip(), "", args)
            self.assertIn(flag, done.stderr, args)


if __name__ == "__main__":
    DRIVER = run.build()
    unittest.main()
