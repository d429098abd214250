"""One grid of scenario cells and one seed sweep for the statistical checks.

``CELLS`` names each scenario once, as an edit of the baseline config;
``GRID`` is the baseline's grid.  ``sweep`` runs a check, which maps
(config, master seed) to named pulls, in cells over master seeds.
"""

import os
import time
from dataclasses import replace
from multiprocessing import get_context

import numpy as np
from scipy.stats import kstest

from qdemux.config import load_config
from qdemux.events import CoincidenceConfig
from qdemux.ring_source import RingSpectrumModel


def _detectors(config, **fields):
    """``config`` with the same edit to both detectors."""
    return replace(config, apd1=replace(config.apd1, **fields),
                   apd2=replace(config.apd2, **fields))


GRID = {
    "baseline": lambda c: c,
    "no_umis": lambda c: replace(c, include_umis=False),
    "unconverted": lambda c: replace(c, convert_signal=False),
    "50uW": lambda c: replace(c, chip_power_uw=50.0),
    "800uW": lambda c: replace(c, chip_power_uw=800.0),
    "no_darks_no_jitter": lambda c: _detectors(c, dark_rate_hz=0.0, timing_jitter_sigma_ps=0.0),
    "heavy_dead_time": lambda c: _detectors(c, dead_time_us=100.0),
    "one_channel": lambda c: replace(c, simulate_all_channels=False),
}

CELLS = {
    **GRID,
    # criterion 8: negligible correlation time so the window captures all
    # true pairs, no dead time, elevated darks and a wide histogram span for
    # a well-measured accidental floor, and a window that is an exact odd
    # multiple of the bin so window integrals are not quantized
    "car_cross_check": lambda c: replace(
        _detectors(c, dark_rate_hz=20000.0, dead_time_us=0.0, timing_jitter_sigma_ps=0.0),
        ring=RingSpectrumModel(fsr_ghz=2000.0, fwhm_mhz=24500.0, q_factor=1e4),
        coincidence=CoincidenceConfig(window_ns=0.8, histogram_bin_ps=160,
                                      histogram_span_ns=20.0),
        include_umis=False, simulate_all_channels=False),
}


def pull_statistics(pulls):
    """n, mean, its standard error, sd and KS p-value against N(0, 1)."""
    n, sd = len(pulls), float(np.std(pulls, ddof=1))
    return {"n": n, "mean": float(np.mean(pulls)), "mean_se": float(sd / np.sqrt(n)),
            "sd": sd, "ks_p_vs_unit_normal": float(kstest(pulls, "norm").pvalue)}


def pull_report(seeds, rows, gate_sigma):
    """Statistics of ``rows``, one {point: pull} per master seed of ``seeds``."""
    points = list(rows[0])
    table = np.array([[row[p] for p in points] for row in rows])  # seed x point
    failing = [s for s, row in zip(seeds, table) if np.any(np.abs(row) > gate_sigma)]
    return {"per_point": {p: pull_statistics(table[:, i]) for i, p in enumerate(points)},
            "all_points": pull_statistics(table.ravel()),
            "gate_failures": len(failing),
            "gate_failure_share": len(failing) / len(seeds),
            "failing_master_seeds": failing}


def sweep(check, cells, seeds, gate_sigma):
    """``pull_report`` of ``check`` per cell of ``cells``, over master ``seeds``.

    One spawned worker per CPU this process may use runs ``check``, so it
    must pickle: a module-level function, or a ``functools.partial`` of one.
    """
    start = time.perf_counter()
    tasks = [(CELLS[cell](load_config(None)), seed) for cell in cells for seed in seeds]
    with get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        rows = pool.starmap(check, tasks)
    n = len(seeds)
    return {"gate_sigma": gate_sigma,
            "cells": {cell: pull_report(seeds, rows[i * n:(i + 1) * n], gate_sigma)
                      for i, cell in enumerate(cells)},
            "wall_s": round(time.perf_counter() - start, 1)}
