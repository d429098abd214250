#!/usr/bin/env python3
"""Benchmark for qdemux: four workloads, end-to-end and per-layer metrics.

Run from the root of a qdemux checkout:

    python3 perfbench/run.py --workload accumulate --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: import qdemux and build the workload's ScenarioConfig, in a
  fresh process; the median of the processes run three at a time between
  timed calls.
* ``wall_s``: median wall time of one workload call, over the calls that
  fit in ``--seconds`` after one warm-up call.
* ``peak_rss_mb``: peak resident memory of a fresh process that runs only
  this workload once.

``setup_s`` and ``wall_s`` are given at the host's reference speed (see
``hostspeed.py``): each time is scaled by a fixed probe timed beside it,
because the shared host's speed drifts by tens of percent over minutes.
The unscaled medians are printed beside them.

It also prints, without gating on it, ``sim_s_per_s``: simulated (or
analysed) accumulation seconds per wall second, the README's "a 60-second
accumulation simulates in well under a second" as a number.

``--trace 1`` is a separate run that wraps qdemux's public functions (see
``tracing.py``), alternates untraced and traced calls for ``--seconds`` and
reports each layer's self time, exact work counters, the uncovered
remainder and the tracing overhead.  Its spans go to
``.perfbench_out/spans-<workload>-seed<n>.json``.

Every call's outputs are checked; a call that raises or fails its check
counts in ``failed``, and ``error_rate`` = failed / attempted.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the load is one process and its thread.  Set
# before numpy loads, here and (by inheritance) in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# No transparent huge pages for numpy arrays, so that the resident memory
# of a large array does not depend on whether the kernel has them free.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("accumulate", "demux_scan", "car_sweep", "tag_roundtrip")
SETUPS_PER_GAP = 3
MIN_CALLS = 3
CHILD_TIMEOUT_S = 120


def use_checkout_source() -> None:
    """Import qdemux from this checkout's ``src``, and from nowhere else."""
    if not (SRC / "qdemux" / "__init__.py").is_file():
        sys.exit(f"error: no qdemux sources at {SRC / 'qdemux'}; "
                 "run the benchmark from the root of a qdemux checkout")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def _check_imported_source() -> None:
    import qdemux

    if not Path(qdemux.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"error: qdemux imported from {qdemux.__file__}, not from {SRC}")


def environment() -> dict:
    """Commit, interpreter, numpy, core count and CPU model of this run."""
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
    }


# ---------------------------------------------------------------------------
# Child processes: fresh interpreters for set-up time and peak memory.


def _peak_rss_kb() -> int:
    """Peak resident set of this process since its exec, in KiB.

    ``ru_maxrss`` is not used: Linux folds the high-water mark of the
    address space a process replaces at exec into it, so a child spawned
    by a large parent reports the parent's peak.  ``VmHWM`` belongs to the
    new address space alone.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _child_main(kind: str, name: str, seed: int, workdir: Path) -> None:
    start = time.perf_counter()
    from workloads import WORKLOADS

    _check_imported_source()
    workload = WORKLOADS[name](seed, workdir)
    if kind == "setup":
        workload.setup()
        raw = time.perf_counter() - start
        from hostspeed import HostSpeed

        print(json.dumps({"raw_setup_s": raw, "setup_s": HostSpeed().after(raw)}))
        return
    workload.prepare()
    workload.setup()
    try:
        out = workload.call()
    except Exception as exc:  # noqa: BLE001 - reported as a failed call
        print(json.dumps({"problems": [f"call raised {exc!r}"], "digest": None}))
        return
    print(json.dumps({
        "peak_rss_mb": _peak_rss_kb() / 1024.0,
        "problems": workload.check(out),
        "digest": workload.digest(out),
    }))


def _run_child(kind: str, name: str, seed: int, workdir: Path) -> dict:
    # A fixed hash seed: with a random one, the peak memory of one input
    # moves by several MB from process to process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", kind,
         "--workload", name, "--seed", str(seed), "--workdir", str(workdir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, env=env,
    )
    if done.returncode != 0:
        sys.exit(f"error: {kind} process for {name} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# In-process calls.


class Tally:
    """Attempted and failed calls, with the first digest as the reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None
        self._last_failed = False

    def record(self, problems: list[str], digest: str | None) -> None:
        self.attempted += 1
        self._last_failed = False
        if digest is not None:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                problems = problems + ["output digest differs from the first call's"]
        for problem in problems:
            self.flag(problem)

    def flag(self, problem: str) -> None:
        """Mark the last recorded call as failed, with a reason."""
        self.problems.append(problem)
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True

    def call(self, workload, body=None) -> float | None:
        """One checked call; returns its wall time, or None when it raised."""
        start = time.perf_counter()
        try:
            out = body() if body is not None else workload.call()
        except Exception as exc:  # noqa: BLE001 - a failed call, counted
            self.record([f"call raised {exc!r}"], None)
            return None
        elapsed = time.perf_counter() - start
        self.record(workload.check(out), workload.digest(out))
        return elapsed


def _time_left(deadline: float, rounds: list[float]) -> bool:
    """Whether one more round of the median length ends before the deadline."""
    expected = statistics.median(rounds) if rounds else 0.0
    return time.perf_counter() + expected <= deadline


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    from hostspeed import HostSpeed
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    tally = Tally()
    deadline = time.perf_counter() + seconds
    workload.setup()
    tally.call(workload)  # warm-up, checked but not timed

    # The host's speed drifts over tens of seconds, so the fresh processes
    # run in the gaps between timed calls, spread over the whole window.
    rss = _run_child("rss", name, seed, workdir)
    tally.record(rss["problems"], rss["digest"])
    speed = HostSpeed()
    setups: list[dict] = []
    walls: list[tuple[float, float]] = []  # (raw, scaled) per timed call
    rounds: list[float] = []
    calls = 0
    while calls < MIN_CALLS or _time_left(deadline, rounds):
        start = time.perf_counter()
        setups += [_run_child("setup", name, seed, workdir) for _ in range(SETUPS_PER_GAP)]
        calls += 1
        elapsed = tally.call(workload, lambda: speed.sampled(workload.call))
        if elapsed is not None:
            walls.append(speed.scale_sampled(elapsed))
        rounds.append(time.perf_counter() - start)

    def med(values):
        return statistics.median(values) if values else float("nan")

    raw_wall = med([w[0] for w in walls])
    return {
        "tally": tally,
        "notes": {"setup_s": f"median of {len(setups)} fresh processes; unscaled "
                             f"{med([s['raw_setup_s'] for s in setups]):.4g} s",
                  "wall_s": f"median of {len(walls)} timed calls after 1 warm-up; "
                            f"unscaled {raw_wall:.4g} s",
                  "sim_s_per_s": f"{workload.sim_seconds / raw_wall:.4g} simulated s "
                                 "per (unscaled) wall s"},
        "metrics": {
            "setup_s": _metric(med([s["setup_s"] for s in setups]), "s"),
            "wall_s": _metric(med([w[1] for w in walls]), "s"),
            "peak_rss_mb": _metric(rss.get("peak_rss_mb", float("nan")), "MB"),
        },
    }


def measure_traced(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    """Per-layer metrics: untraced and traced calls, alternating."""
    from tracing import COUNTERS, LAYERS, ROOT_LAYER, Tracer, self_times
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    tally = Tally()
    deadline = time.perf_counter() + seconds
    workload.setup()
    tally.call(workload)  # warm-up

    def untraced():
        workload.setup()
        return workload.call()

    tracer = Tracer()

    def traced():
        with tracer:
            with tracer.root("setup"):
                workload.setup()
            with tracer.root("call"):
                return workload.call()

    plain: list[float] = []
    rows: list[tuple[float, dict, dict, list]] = []
    pairs = 0
    while pairs < MIN_CALLS or _time_left(deadline, [r[0] + p for r, p in zip(rows, plain)]):
        pairs += 1
        elapsed = tally.call(workload, untraced)
        if elapsed is not None:
            plain.append(elapsed)
        elapsed = tally.call(workload, traced)
        spans, counts = tracer.take()
        if elapsed is not None:
            if rows and counts != rows[0][2]:
                tally.flag("exact counters differ between traced calls")
            rows.append((elapsed, self_times(spans), counts, spans))

    def med(values):
        return statistics.median(values) if values else float("nan")

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = _metric(med([r[1][layer] for r in rows]), "s")
    first_counts = rows[0][2] if rows else dict.fromkeys(COUNTERS, 0)
    for counter in COUNTERS:
        metrics[counter] = _metric(first_counts[counter], "count")
    events_in = first_counts["detection.events_in"]
    metrics["detection.kept_ratio"] = _metric(
        first_counts["detection.events_out"] / events_in if events_in else 0.0, "ratio")
    traced_wall = med([r[0] for r in rows])
    plain_wall = med(plain)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.untraced_wall_s"] = _metric(plain_wall, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")
    metrics["trace.uncovered_s"] = _metric(med([r[1][ROOT_LAYER] for r in rows]), "s")
    metrics["trace.spans"] = _metric(len(rows[0][3]) if rows else 0, "count")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "columns": ["id", "name", "layer", "parent", "start_s", "end_s"],
        "calls": [{"wall_s": r[0], "spans": r[3]} for r in rows],
    }) + "\n")
    return {
        "tally": tally,
        "notes": {"trace": f"{len(rows)} traced and {len(plain)} untraced calls; "
                           f"spans in {spans_path.relative_to(ROOT)}"},
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------


def _report(name: str, seed: int, result: dict, out) -> None:
    tally = result["tally"]
    rate = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"workload {name}  seed {seed}  attempted {tally.attempted}  failed {tally.failed}"
          f"  error_rate {rate:.4g}", file=out)
    for key, note in result["notes"].items():
        print(f"  [{key}] {note}", file=out)
    for key, m in result["metrics"].items():
        print(f"  {key:<26} {m['value']:>14.6g} {m['unit']}", file=out)
    for problem in tally.problems[:20]:
        print(f"  FAILED CHECK: {problem}", file=out)
    print(f"digest {name} seed={seed} sha256={tally.digest}", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "rss"), help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_source()

    if args.child:
        _child_main(args.child, args.workload, args.seed, args.workdir)
        return 0

    _check_imported_source()
    print("env " + json.dumps(environment(), sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    measure_fn = measure_traced if args.trace else measure
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        workdir = OUT / "work" / f"{name}-seed{args.seed}-{os.getpid()}"
        try:
            result = measure_fn(name, args.seed, args.seconds, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        _report(name, args.seed, result, sys.stdout)
        attempted += result["tally"].attempted
        failed += result["tally"].failed
        prefix = f"{name}:" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
