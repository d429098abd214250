"""Criterion 8's Monte Carlo cross-check, and a pull study of it over master seeds.

``cross_check(config, master_seed)`` runs the check at five powers in a
config of scenario cell ``CELL`` (``tests/scenarios.py``); criterion 8
gates every |pull| at ``GATE_SIGMA`` at the baseline's own master seed.
Run as a script, it sweeps the check over N master seeds (the baseline's
own, then 1 .. N-1).  A correct model fails the gate at about
1 - 0.955**5 = 21 % of seeds::

    python tests/criterion8.py --seeds 240 --out pulls.json
"""

import argparse
import json
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # run as a script: import this tree's package
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from qdemux import analysis, detection  # noqa: E402
from qdemux.config import load_config  # noqa: E402
from qdemux.events import histogram  # noqa: E402
from qdemux.montecarlo import detection_arms, generate_run, sub_seed  # noqa: E402
from scenarios import sweep  # noqa: E402

CELL = "car_cross_check"
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
    """Monte Carlo against analytic CAR at each of ``POWERS_UW`` in ``config``."""
    arm_sig, arm_idl = detection_arms(config)
    window_ns = config.coincidence.window_ns
    points = []
    for p in POWERS_UW:
        cfg = replace(config, chip_power_uw=p, duration_s=duration_s,
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
        bg_width_ns = 2.0 * (config.coincidence.histogram_span_ns - BACKGROUND_START_NS)
        e_center = (c_true + acc_per_window) * duration_s
        e_bg = acc_per_window * (bg_width_ns / window_ns) * duration_s
        sigma = (expected + 1.0) * np.sqrt(1.0 / e_center + 1.0 / e_bg)
        points.append(CarPoint(p, float(est.car), expected + 1.0, float(sigma)))
    return points


def pulls(config, master_seed, duration_s=DURATION_S):
    """``cross_check``'s signed pulls by power: the check the pull study sweeps."""
    return {f"{pt.power_uw:g}": pt.pull for pt in cross_check(config, master_seed, duration_s)}


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
    report = {
        "check": "criterion 8 Monte Carlo CAR cross-check (tests/criterion8.py)",
        "duration_s": args.duration,
        "master_seeds": f"{own} (the baseline's own) and 1-{args.seeds - 1}",
        **sweep(partial(pulls, duration_s=args.duration), [CELL],
                [own, *range(1, args.seeds)], GATE_SIGMA),
    }
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
