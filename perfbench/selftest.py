#!/usr/bin/env python3
"""Tests of the benchmark itself; outside pytest's default collection.

    python3 perfbench/selftest.py

Runs every workload through the tracer twice at one seed and requires its
output checks to pass, its output digest and its exact counters to repeat,
and the layer self times to add up to the traced wall time.  Also checks
that the wrappers are removed again, that the host-speed probe samples a
call and leaves no timer or handler behind, and that the benchmark
refuses to run without the qdemux sources.
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKDIR = ROOT / ".perfbench_out" / "selftest"
SEED = 7

# Counters that must be nonzero on each workload: the layers it exists for.
MUST_COUNT = {
    "accumulate": ("sfg.pump_solves", "montecarlo.runs", "montecarlo.photons_drawn",
                   "detection.events_in", "events.pairs_examined"),
    "demux_scan": ("sfg.pump_solves", "sfg.mismatch_points", "montecarlo.runs",
                   "analysis.fits"),
    "car_sweep": ("montecarlo.runs", "detection.events_out", "analysis.fits"),
    "tag_roundtrip": ("events.rows", "events.file_bytes", "events.pairs_examined"),
}


def traced_call(tracer, workload):
    with tracer:
        with tracer.root("call"):
            out = workload.call()
    spans, counts = tracer.take()
    return out, spans, counts


class WorkloadTraceTest(unittest.TestCase):
    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    def test_each_workload_repeats_exactly(self) -> None:
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                workload = cls(SEED, WORKDIR / name)
                workload.prepare()
                workload.setup()
                tracer = tracing.Tracer()
                first, spans, counts = traced_call(tracer, workload)
                self.assertEqual(workload.check(first), [])
                # Digest before the second call: the CLI workloads' digests
                # read the output files, which that call overwrites.
                first_digest = workload.digest(first)
                second, _, counts_again = traced_call(tracer, workload)
                self.assertEqual(workload.check(second), [])
                self.assertEqual(counts, counts_again)
                self.assertEqual(first_digest, workload.digest(second))
                for counter in MUST_COUNT[name]:
                    self.assertGreater(counts[counter], 0, counter)

                root = spans[0]
                self.assertIsNone(root[3])
                layers = tracing.self_times(spans)
                self.assertAlmostEqual(sum(layers.values()), root[5] - root[4], delta=1e-6)
                self.assertTrue(all(t >= -1e-6 for t in layers.values()), layers)

    def test_wrappers_cover_reexports_and_are_removed(self) -> None:
        from qdemux import cli, events, montecarlo

        original_run = montecarlo.generate_run
        original_assemble = events.EventStream.__dict__["from_unsorted"]
        tracer = tracing.Tracer()
        with tracer:
            self.assertIsNot(cli.generate_run, original_run)
            self.assertIs(cli.generate_run, montecarlo.generate_run)
            self.assertIs(montecarlo.histogram, events.histogram)
        self.assertIs(montecarlo.generate_run, original_run)
        self.assertIs(cli.generate_run, original_run)
        self.assertIs(events.EventStream.__dict__["from_unsorted"], original_assemble)


class HostSpeedTest(unittest.TestCase):
    def test_samples_during_a_call_and_cleans_up(self) -> None:
        speed = hostspeed.HostSpeed()
        before = signal.getsignal(signal.SIGALRM)

        def busy():
            end = time.perf_counter() + 4 * hostspeed.PERIOD_S
            while time.perf_counter() < end:
                pass
            return "done"

        start = time.perf_counter()
        self.assertEqual(speed.sampled(busy), "done")
        elapsed = time.perf_counter() - start
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        net, scaled = speed.scale_sampled(elapsed)
        self.assertGreaterEqual(len(speed._samples), 2)
        self.assertAlmostEqual(net, elapsed - sum(speed._samples))
        self.assertGreater(scaled, 0.0)


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_to_run_without_sources(self) -> None:
        bare = WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "accumulate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
