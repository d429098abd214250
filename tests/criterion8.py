"""Criterion 8's Monte Carlo cross-check, and a pull study of it over master seeds.

``cross_check(config, master_seed)`` runs the criterion's scenario at its
five powers and returns each point's measured and expected CAR with the
estimator's sigma; ``test_criterion_08_car_shape_and_monte_carlo_agreement``
gates every |pull| at ``GATE_SIGMA`` for the baseline's own master seed.

Run as a script, it repeats the check over N master seeds (the baseline's
own, then 1 .. N-1) and writes JSON: per power and over all powers the
mean, its standard error and the sd of the signed pulls, a KS p-value
against N(0, 1), and the share of master seeds at which the gate fails.
A correct model fails a 2-sigma gate at one of five independent powers
at about 1 - 0.955**5 = 21 % of seeds.  It runs one worker process per
CPU and is not part of the test run::

    python tests/criterion8.py --seeds 240 --out pulls.json
"""

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from multiprocessing import get_context
from pathlib import Path

import numpy as np
from scipy.stats import kstest

if __name__ == "__main__":  # run as a script: import this tree's package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from qdemux import analysis, detection  # noqa: E402
from qdemux.config import load_config  # noqa: E402
from qdemux.events import CoincidenceConfig, histogram  # noqa: E402
from qdemux.montecarlo import detection_arms, generate_run, sub_seed  # noqa: E402
from qdemux.ring_source import RingSpectrumModel  # noqa: E402

POWERS_UW = (50.0, 100.0, 200.0, 400.0, 800.0)
DURATION_S = 60.0
BACKGROUND_START_NS = 2.5
GATE_SIGMA = 2.0


@dataclass(frozen=True)
class CarPoint:
    power_uw: float
    car_mc: float
    # the measured center window holds true plus accidental coincidences,
    # the analytic ratio counts true only: the expectation is CAR + 1
    car_expected: float
    sigma: float

    @property
    def pull(self) -> float:
        return (self.car_mc - self.car_expected) / self.sigma


def cross_check(config, master_seed, duration_s=DURATION_S):
    """Monte Carlo against analytic CAR at each of ``POWERS_UW``.

    The scenario has negligible correlation time so the window captures all
    true pairs, no dead time, elevated darks and a wide histogram span for a
    well-measured accidental floor, and a window that is an exact odd
    multiple of the bin so window integrals are not quantized.
    """
    base = replace(
        config,
        ring=RingSpectrumModel(fsr_ghz=2000.0, fwhm_mhz=24500.0, q_factor=1e4),
        apd1=replace(config.apd1, dark_rate_hz=20000.0, dead_time_us=0.0,
                     timing_jitter_sigma_ps=0.0),
        apd2=replace(config.apd2, dark_rate_hz=20000.0, dead_time_us=0.0,
                     timing_jitter_sigma_ps=0.0),
        coincidence=CoincidenceConfig(window_ns=0.8, histogram_bin_ps=160,
                                      histogram_span_ns=20.0),
        include_umis=False,
        simulate_all_channels=False,
    )
    arm_sig, arm_idl = detection_arms(base)
    window_ns = base.coincidence.window_ns
    points = []
    for p in POWERS_UW:
        cfg = replace(base, chip_power_uw=p, duration_s=duration_s,
                      seed=sub_seed(master_seed, "acceptance8", str(p)))
        run = generate_run(cfg)
        hist = histogram(run.signal_stream, run.active_idler_stream, cfg.coincidence)
        est = analysis.car_from_histogram(hist, window_ns,
                                          background_start_ns=BACKGROUND_START_NS)
        expected = float(detection.car_curve(cfg.rates, arm_sig, arm_idl, window_ns, p))
        # sigma of the estimator under the model (expected counts, not the
        # noisy observed ones): standard practice for a cross-validation pull
        c_true, acc_per_window = detection.coincidence_rates(cfg.rates, arm_sig, arm_idl,
                                                             window_ns, p)
        bg_width_ns = 2.0 * (base.coincidence.histogram_span_ns - BACKGROUND_START_NS)
        e_center = (c_true + acc_per_window) * duration_s
        e_bg = acc_per_window * (bg_width_ns / window_ns) * duration_s
        sigma = (expected + 1.0) * np.sqrt(1.0 / e_center + 1.0 / e_bg)
        points.append(CarPoint(p, float(est.car), expected + 1.0, float(sigma)))
    return points


def _summary(pulls):
    pulls = np.asarray(pulls)
    return {"n": int(pulls.size), "mean": float(pulls.mean()),
            "mean_se": float(pulls.std(ddof=1) / np.sqrt(pulls.size)),
            "sd": float(pulls.std(ddof=1)),
            "ks_p_vs_unit_normal": float(kstest(pulls, "norm").pvalue)}


def _study_one(args):
    master_seed, duration_s = args
    return master_seed, cross_check(load_config(None), master_seed, duration_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=240,
                        help="number of master seeds: the baseline's own, then 1 .. N-1")
    parser.add_argument("--duration", type=float, default=DURATION_S,
                        help="seconds per run (the criterion's: %(default)s)")
    parser.add_argument("--out", type=Path, help="JSON file (default: stdout)")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2")
    own = load_config(None).seed
    seeds = [own, *range(1, args.seeds)]
    start = time.perf_counter()
    with get_context("spawn").Pool(os.cpu_count()) as pool:
        results = dict(pool.map(_study_one, [(s, args.duration) for s in seeds]))
    pulls = np.array([[pt.pull for pt in results[s]] for s in seeds])  # seed x power
    failing = [s for s, row in zip(seeds, pulls) if np.any(np.abs(row) > GATE_SIGMA)]
    report = {
        "scenario": "criterion 8 Monte Carlo cross-check (tests/criterion8.py)",
        "duration_s": args.duration,
        "master_seeds": f"{own} (the baseline's own) and 1-{args.seeds - 1}",
        "powers_uw": list(POWERS_UW),
        "gate_sigma": GATE_SIGMA,
        "per_power": {f"{p:g}": _summary(pulls[:, i]) for i, p in enumerate(POWERS_UW)},
        "all_powers": _summary(pulls.ravel()),
        "gate_failures": len(failing),
        "gate_failure_share": len(failing) / len(seeds),
        "failing_master_seeds": failing,
        "own_seed_points": [dict(asdict(pt), pull=pt.pull) for pt in results[own]],
        "wall_s": round(time.perf_counter() - start, 1),
    }
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
