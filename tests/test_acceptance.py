"""Acceptance suite: one test per release criterion, with fixed tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -rA`` or on
failure).  Criterion 5a is expected to fail with the shipped published
index fits: the solved phase-matching temperature for the quoted poling
period sits tens of kelvin away from the bench's 29.5 degC for every
published congruent-LiNbO3 dispersion model available here, and the
failure is reported with the full numeric analysis rather than hidden by
a loosened tolerance.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from qdemux import analysis, cli, detection, franson, sfg
from qdemux.config import load_config

from qdemux.events import histogram, read_streams
from qdemux.franson import FringeModel, outcome_distribution
from qdemux.montecarlo import (
    demux_crosstalk,
    detection_arms,
    fringe_scan,
    generate_run,
)

import criterion8
from scenarios import CELLS


def _report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{'  (' + detail + ')' if detail else ''}",
          flush=True)
    return ok


@pytest.fixture(scope="module")
def config():
    return load_config(None)

GRID_TABLE_NM = {
    "C20": 1561.42, "C22": 1559.79, "C24": 1558.17, "C34": 1550.12,
    "C44": 1542.14, "C46": 1540.56, "C48": 1538.98,
}


def test_criterion_01_channel_table_replication(tmp_path):
    start = time.monotonic()
    code = cli.main(["plan", "--out", str(tmp_path)])
    elapsed = time.monotonic() - start
    rows = (tmp_path / "plan.csv").read_text().strip().splitlines()[1:]
    values = {r.split(",")[1]: float(r.split(",")[2]) for r in rows}
    deviations = {ch: abs(values[ch] - ref) for ch, ref in GRID_TABLE_NM.items()}
    ok = (code == 0 and len(values) == 7 and elapsed < 1.0
          and all(d <= 0.005 for d in deviations.values()))
    assert _report("1 channel-table replication", ok,
                   f"max deviation {max(deviations.values()) * 1000:.2f} pm, "
                   f"runtime {elapsed:.3f} s")


def test_criterion_02_loss_ledger(config):
    report = detection.loss_report(config.signal_ledger, config.idler_ledger)
    checks = {
        "sfg_module_db": 8.59,
        "idler_total_db": 13.99,
        "signal_optical_db": 15.59,
        "signal_total_db": 18.59,
    }
    ok = all(abs(report[key] - ref) <= 0.01 for key, ref in checks.items())
    assert _report("2 loss ledger", ok,
                   ", ".join(f"{report[k]:.2f}" for k in checks))


def test_criterion_03_conversion_calibration(config):
    eta_550 = sfg.quantum_efficiency(config.curve, 550.0)
    lam3 = sfg.sfg_wavelength(795.0, 1560.0)
    round_trip_ok = True
    for eta in (0.05, 0.38, 0.93):
        ep = sfg.power_efficiency(eta, 1560.0, lam3)
        round_trip_ok &= abs(sfg.quantum_from_power(ep, 1560.0, lam3) - eta) <= 1e-12
    ok = abs(eta_550 - 0.380) <= 0.001 and round_trip_ok
    assert _report("3 conversion-efficiency calibration", ok,
                   f"eta(550 mW) = {eta_550:.6f}")


def test_criterion_04_interferometer_tuning(config):
    fiber_period = franson.temperature_tuning_period_k(config.idler_umi)
    ktp_period = franson.temperature_tuning_period_k(config.signal_umi)
    check = franson.tuning_consistency_report(config.signal_umi, stated_length_mm=163.48)
    ok = (
        abs(fiber_period - 0.585) <= 0.001
        and abs(ktp_period - 1.16) <= 0.001
        and not check["consistent"]
        and abs(check["period_from_stated_length_k"] - 0.100) <= 0.001
        and abs(check["implied_length_for_configured_period_mm"] - 14.14) <= 0.05
    )
    assert _report("4 interferometer tuning periods", ok,
                   f"fiber {fiber_period:.4f} K, crystal {ktp_period:.4f} K, "
                   f"stated-length check flags {check['period_from_stated_length_k']:.4f} K")


def test_criterion_05a_qpm_temperature(config):
    solved = sfg.solve_qpm_temperature(config.crystal, 795.0, 1560.0)
    # diagnostic context: what each published fit would need
    gayer = config.crystal
    lam3 = sfg.sfg_wavelength(795.0, 1560.0)
    n = gayer.sellmeier.index
    mism = (n(lam3 * 1e-3, 29.5) / (lam3 * 1e-9)
            - n(0.795, 29.5) / 795e-9 - n(1.560, 29.5) / 1560e-9)
    required_period_um = 1e6 / mism
    print(f"  solved QPM temperature: {solved:.2f} degC (bench: 29.5 degC)")
    print(f"  poling period the fit needs at 29.5 degC: {required_period_um:.4f} um "
          f"(device: {gayer.poling_period_um} um)")
    print(f"  index shift equivalent at {lam3:.1f} nm: "
          f"{(mism - 1e6 / 7.3) * lam3 * 1e-9 * -1:.2e}")
    ok = abs(solved - 29.5) <= 10.0
    assert _report("5a QPM temperature within +-10 K of 29.5 degC", ok,
                   f"solved {solved:.2f} degC with {gayer.sellmeier.name}")


def test_criterion_05b_channel_pumps_inside_window(config):
    pumps = {}
    for pair in config.plan:
        pumps[pair.signal_label] = sfg.solve_pump_wavelength(
            config.crystal, pair.signal, config.sfg_pump.window_nm)
    ok = all(790.0 <= p <= 800.0 for p in pumps.values()) and len(pumps) == 3
    assert _report("5b channel pumps solvable in 790-800 nm", ok,
                   ", ".join(f"{k}: {v:.3f} nm" for k, v in pumps.items()))


def test_criterion_06_franson_properties():
    # exact normalization of the outcome distribution
    ok_sum = True
    for v in np.linspace(0.0, 1.0, 11):
        for phi in np.linspace(0.0, 2.0 * np.pi, 23):
            d = outcome_distribution(FringeModel(visibility=float(v),
                                                 signal_phase_rad=float(phi)))
            ok_sum &= abs(sum(d.values()) - 1.0) <= 1e-12

    # phase-averaged central fraction = 1/2, by quadrature
    def center(phi):
        return outcome_distribution(FringeModel(1.0, signal_phase_rad=phi))["center"]

    mean_center, _ = quad(center, 0.0, 2.0 * np.pi)
    mean_center /= 2.0 * np.pi
    sides = 2.0 / 16.0
    fraction = mean_center / (mean_center + sides)
    ok_quad = abs(fraction - 0.5) <= 1e-9

    # noiseless synthetic fringes recover the injected visibility
    ok_fit = True
    for v0 in (0.2, 0.9622, 1.0):
        phases = np.arange(10) * 2.0 * np.pi / 10.0
        counts = 5000.0 * (1.0 + v0 * np.cos(phases))
        scan = analysis.FringeScan(tuple(
            analysis.FringePoint(phase_rad=float(p), center_counts=float(c))
            for p, c in zip(phases, counts)))
        ok_fit &= abs(analysis.fit_visibility(scan).v_raw - v0) <= 1e-6

    ok = ok_sum and ok_quad and ok_fit
    assert _report("6 two-photon outcome properties", ok,
                   f"phase-averaged central fraction {fraction:.12f}")


def test_criterion_07_replica_fringe_visibilities(config):
    start = time.monotonic()
    phases = np.arange(8) * 2.0 * np.pi / 8.0
    results = {}
    for pair in config.plan:
        cfg = replace(config, active_label=pair.signal_label,
                      convert_signal=True, simulate_all_channels=False)
        scan = fringe_scan(cfg, phases, accumulation_s=60.0,
                           scan_name=f"acceptance7:{pair.signal_label}")
        results[pair.label] = analysis.fit_visibility(scan)
    elapsed = time.monotonic() - start

    ok = elapsed < 120.0
    for label, res in results.items():
        ok &= res.v_raw >= 0.89
        ok &= res.v_net >= res.v_raw
        ok &= res.bell_violating
    detail = ", ".join(
        f"{label}: raw {res.v_raw:.4f} net {res.v_net:.4f}"
        for label, res in results.items())
    assert _report("7 replica fringe visibilities", ok,
                   f"{detail}; wall {elapsed:.1f} s")


def test_criterion_08_car_shape_and_monte_carlo_agreement(config):
    # (a) unique interior maximum with dark counts on
    arm_sig, arm_idl = detection_arms(config)
    powers = np.linspace(5.0, 3000.0, 1500)
    car = detection.car_curve(config.rates, arm_sig, arm_idl,
                              config.coincidence.window_ns, powers)
    imax = int(np.argmax(car))
    interior = 0 < imax < len(powers) - 1
    unimodal = np.all(np.diff(car[:imax + 1]) > 0) and np.all(np.diff(car[imax:]) < 0)

    # (b) conversion loss plus detector darks shift the optimum up in power
    arm_before, _ = detection_arms(replace(config, convert_signal=False))
    car_before = detection.car_curve(config.rates, arm_before, arm_idl,
                                     config.coincidence.window_ns, powers)
    shift_ok = powers[imax] > powers[int(np.argmax(car_before))]

    # (c) Monte Carlo CAR against the analytic curve, 2 sigma at 5 powers, in
    # criterion8.py's scenario cell (its pull study sweeps it over seeds)
    points = criterion8.cross_check(CELLS[criterion8.CELL](config), config.seed)
    mc_ok = all(abs(pt.pull) <= criterion8.GATE_SIGMA for pt in points)
    details = [f"P={pt.power_uw:.0f}: mc {pt.car_mc:.2f} vs {pt.car_expected:.2f} "
               f"+-{pt.sigma:.2f} ({abs(pt.pull):.2f} sigma)" for pt in points]

    ok = interior and unimodal and shift_ok and mc_ok
    assert _report(
        "8 CAR shape and MC agreement", ok,
        f"argmax {powers[imax]:.0f} uW (direct: "
        f"{powers[int(np.argmax(car_before))]:.0f} uW); " + "; ".join(details))


def test_criterion_09_demux_selectivity(config):
    xtalk = demux_crosstalk(config, duration_s=60.0)
    matrix = xtalk["matrix"]
    ok = True
    details = []
    for sig_label, row in matrix.items():
        matched_idler = "I" + sig_label[1:]
        for idler_label, cell in row.items():
            if idler_label == matched_idler:
                floor = max(cell.background_per_window, 1.0)
                ok &= cell.center >= 10.0 * floor
                details.append(f"{sig_label}/{idler_label}: {cell.center} "
                               f"vs floor {floor:.2f}")
            else:
                pull = abs(cell.center - cell.background_per_window) / cell.sigma
                ok &= pull <= 3.0
    assert _report("9 demultiplexer selectivity", ok, "; ".join(details))


def test_criterion_10_determinism_and_io(tmp_path, config):
    # byte-identical repeat of a full stochastic subcommand
    args = ["fringe", "--channel", "S2", "--points", "4", "--duration", "5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out_a)]) == 0
    assert cli.main(args + ["--out", str(out_b)]) == 0
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("fringe_S2.csv", "fringe_S2_visibility.json")
    )

    # write -> read -> analyze equals the in-memory analysis exactly
    cfg = replace(config, duration_s=5.0, simulate_all_channels=False)
    run = generate_run(cfg)
    from qdemux.events import write_streams
    path = write_streams([run.signal_stream, run.active_idler_stream],
                         tmp_path / "tags.csv")
    streams, _ = read_streams(path)
    h_mem = histogram(run.signal_stream, run.active_idler_stream, cfg.coincidence)
    h_file = histogram(streams[0], streams[1], cfg.coincidence)
    io_exact = (np.array_equal(h_mem.counts, h_file.counts)
                and h_mem.total_pairs_examined == h_file.total_pairs_examined)
    car_mem = analysis.car_from_histogram(h_mem, cfg.coincidence.window_ns)
    car_file = analysis.car_from_histogram(h_file, cfg.coincidence.window_ns)
    io_exact &= car_mem == car_file

    ok = identical and io_exact
    assert _report("10 determinism and I/O closure", ok)
