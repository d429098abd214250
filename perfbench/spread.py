#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads accumulate,car_sweep --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --record perfbench/baseline.json
    python3 perfbench/spread.py --seeds 11-20 --against perfbench/baseline.json

Each run is ``run.py --trace 0`` for BENCHMARK.json's ``run_seconds``.
For every workload and metric it prints the median of the per-run values
and the spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  Each
spread is compared with the metric's bound in BENCHMARK.json.
``--against`` also compares each median with that of a recorded set: it
may be worse by at most the bound.  ``--record`` writes the runs, the
summary, the output digests and the environment to a JSON file.
The exit code is 1 when a call failed or a spread or median is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str | None]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digest = next((line.rsplit("sha256=", 1)[1] for line in lines if line.startswith("digest ")),
                  None)
    return json.loads(lines[-1]), digest


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a range '1-10' or a list '3,5,8'")
    parser.add_argument("--record", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    record: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs, digests = [], {}
        for seed in seeds:
            result, digest = run_once(workload, seed, seconds)
            runs.append(result)
            digests[seed] = digest
            shown = "  ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}  {shown}",
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarize([r["metrics"][name]["value"] for r in runs])
            s = summary[name]
            bound = bounds[name]
            ok = s["spread"] <= bound
            steady &= ok
            verdict = f"bound {bound}  {'ok' if ok else 'TOO WIDE'}"
            verdict += "" if s["spread"] < bound / 3 else "  (above a third of the bound)"
            if workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                change = (s["median"] - before) / before
                worse = change if better[name] == "lower" else -change
                steady &= worse <= bound
                verdict += (f"  vs recorded {before:.6g}: {change:+.3f}"
                            f"{'' if worse <= bound else '  WORSE THAN BOUND'}")
            print(f"  {name:<24} median {s['median']:.6g}  spread {s['spread']:.4f}  {verdict}")
        failed = sum(r["failed"] for r in runs)
        steady &= failed == 0
        if workload in earlier:
            recorded = {int(k): v for k, v in earlier[workload]["digests"].items()}
            common = [seed for seed in seeds if seed in recorded]
            differ = [seed for seed in common if digests[seed] != recorded[seed]]
            print(f"  digests of {len(common)} common seeds: "
                  f"{'all equal' if not differ else f'DIFFER at seeds {differ}'}")
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs), "failed": failed,
            "digests": digests, "metrics": summary,
        }
    if args.record:
        sys.path.insert(0, str(BENCH_DIR))
        from run import environment

        record["environment"] = environment()
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
