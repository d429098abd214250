"""Command-line front end: scenario runs, sweeps, and canned reports.

Every subcommand reads the baseline scenario (optionally overridden by
``--config``), writes fixed-precision CSV/JSON files into ``--out``, and
drops a ``manifest.json`` recording the scenario name, config digest,
seed, tool and numpy versions, and produced files.  Outputs are
byte-reproducible for a given config, seed and numpy version (the random
draws rest on numpy's ``Generator`` algorithms, which numpy may change
between versions); only the manifest's wall-clock field varies.

Exit codes: 0 success, 1 configuration/usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, analysis, detection, ring_source, sfg
from .channel_plan import channel_wavelength
from .config import ConfigError, build_config, config_digest, load_config_dict
from .detection import format_ledger_table, loss_report
from .events import central_window_counts, histogram, read_manifest, read_streams, write_streams
from .montecarlo import (
    OperatingPoint,
    ScenarioConfig,
    demux_crosstalk,
    detection_arms,
    fringe_scan,
    generate_run,
    operating_point,
    sub_seed,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _positive(kind, floor=0, sep=None):
    """An argparse ``type``: a ``kind`` (int or float) that is finite, above zero
    and at least ``floor``; with ``sep``, a list of them joined by ``sep``."""
    def one(text: str):
        value = kind(text)
        if not (0 < value < math.inf and value >= floor):
            raise argparse.ArgumentTypeError(
                f"must be at least {floor}, got {text}" if floor else
                f"must be positive, got {text}")
        return value

    def parse(text: str):
        return [one(item) for item in text.split(sep)] if sep else one(text)
    parse.__name__ = kind.__name__  # argparse's "invalid int value: 'x'" names it
    return parse


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.  Each returns the list of files written (relative names).


def _cmd_plan(args, config: ScenarioConfig, outdir: Path) -> list[str]:
    pump = config.plan[0].pump.index
    rows = [["Pump", f"C{pump}", f"{channel_wavelength(pump):.4f}"]]
    for pair in config.plan:
        rows += [[f"Signal {pair.signal_label[1:]}", pair.signal.name,
                  f"{pair.signal.center_wavelength_nm:.4f}"],
                 [f"Idler {pair.idler_label[1:]}", pair.idler.name,
                  f"{pair.idler.center_wavelength_nm:.4f}"]]
    rows.sort(key=lambda r: r[1])
    if args.format == "json":
        payload = [{"name": n, "channel": c, "wavelength_nm": float(w)} for n, c, w in rows]
        _write_json(outdir / "plan.json", payload)
        return ["plan.json"]
    _write_csv(outdir / "plan.csv", ["name", "channel", "wavelength_nm"], rows)
    return ["plan.csv"]


def _cmd_ring(args, config: ScenarioConfig, outdir: Path) -> list[str]:
    ring = config.ring
    half_span_ghz = args.span_fsr * ring.fsr_ghz / 2.0
    step_ghz = args.step_mhz / 1000.0
    offsets = np.arange(-half_span_ghz, half_span_ghz + step_ghz / 2, step_ghz)
    freqs_thz = ring.reference_resonance_thz + offsets * 1e-3
    trans = ring_source.transmission(ring, freqs_thz)
    rows = [[f"{f * 1e3:.6f}", f"{t:.9f}"] for f, t in zip(freqs_thz, trans)]
    _write_csv(outdir / "ring_transmission.csv", ["frequency_ghz", "transmission"], rows)
    return ["ring_transmission.csv"]


def _cmd_qpm(args, config: ScenarioConfig, outdir: Path) -> list[str]:
    crystal = config.crystal
    design_signal = sfg.matched_signal_nm(crystal, config.sfg_pump.wavelength_nm)

    lo, hi = config.sfg_pump.window_nm
    pumps = np.linspace(lo, hi, args.points)
    rel = sfg.relative_efficiency(crystal, pumps, design_signal)
    rows = [[f"{p:.4f}", f"{r:.9e}"] for p, r in zip(pumps, rel)]
    _write_csv(outdir / "qpm_pump_tuning.csv", ["pump_nm", "relative_efficiency"], rows)

    temps = np.linspace(crystal.temperature_c - args.temp_span / 2,
                        crystal.temperature_c + args.temp_span / 2, args.points)
    rel = sfg.relative_efficiency(crystal, config.sfg_pump.wavelength_nm, design_signal, temps)
    rows = [[f"{t:.4f}", f"{r:.9e}"] for t, r in zip(temps, rel)]
    _write_csv(outdir / "qpm_temperature_tuning.csv",
               ["temperature_c", "relative_efficiency"], rows)

    solutions = {}
    for pair in config.plan:
        pump_nm = sfg.solve_pump_wavelength(crystal, pair.signal, config.sfg_pump.window_nm)
        solutions[pair.signal_label] = {
            "signal_channel": pair.signal.name,
            "signal_nm": pair.signal.center_wavelength_nm,
            "pump_nm": pump_nm,
            "residual_mismatch_rad_m": sfg.phase_mismatch(
                crystal, pump_nm, pair.signal.center_wavelength_nm),
        }
    payload = {
        "sellmeier": crystal.sellmeier.name,
        "sellmeier_citation": crystal.sellmeier.citation,
        "crystal_temperature_c": crystal.temperature_c,
        "design_signal_nm": design_signal,
        "acceptance_fwhm_ghz": sfg.acceptance_fwhm_ghz(crystal, config.sfg_pump.wavelength_nm),
        "adjacent_channel_suppression": {
            "detuning_ghz": 200.0,
            "relative_efficiency": float(sfg.acceptance(
                crystal, config.sfg_pump.wavelength_nm, 200.0)),
        },
        "channel_pumps": solutions,
    }
    _write_json(outdir / "qpm_solutions.json", payload)
    return ["qpm_pump_tuning.csv", "qpm_temperature_tuning.csv", "qpm_solutions.json"]


def _cmd_sfg_eff(args, config: ScenarioConfig, outdir: Path) -> list[str]:
    design_signal = sfg.matched_signal_nm(config.crystal, config.sfg_pump.wavelength_nm)
    lam3 = sfg.sfg_wavelength(config.sfg_pump.wavelength_nm, design_signal)
    powers = np.linspace(0.0, args.max_mw, args.points)
    rows = []
    for p in powers:
        eta_q = sfg.quantum_efficiency(config.curve, float(p))
        eta_p = sfg.power_efficiency(eta_q, design_signal, lam3)
        rows.append([f"{p:.2f}", f"{eta_q:.9f}", f"{eta_p:.9f}"])
    _write_csv(outdir / "sfg_efficiency.csv",
               ["pump_power_mw", "quantum_efficiency", "power_efficiency"], rows)
    return ["sfg_efficiency.csv"]


def _cmd_car(args, config: ScenarioConfig, outdir: Path) -> list[str]:
    op = operating_point(config)
    arm_signal, arm_idler = detection_arms(config, op)
    window = config.coincidence.window_ns
    powers = np.linspace(args.min_uw, args.max_uw, args.points)
    car = detection.car_curve(config.rates, arm_signal, arm_idler, window, powers,
                              label=config.active_pair.label)
    rows = [[f"{p:.2f}", f"{c:.6f}"] for p, c in zip(powers, car)]
    _write_csv(outdir / "car_analytic.csv", ["pump_uw", "car"], rows)

    rows = []
    for p in args.mc_powers:
        cfg = replace(config, chip_power_uw=p, include_umis=False,
                      simulate_all_channels=False, duration_s=args.duration,
                      seed=sub_seed(config.seed, "car-mc", f"{p}"))
        run = generate_run(cfg, op)
        hist = histogram(run.signal_stream, run.active_idler_stream, cfg.coincidence)
        # no interferometers, so no side peaks: the background starts at half the span
        est = analysis.car_from_histogram(hist, window, background_start_ns=hist.span_ps / 2000.0)
        rows.append([f"{p:.2f}", f"{est.car:.6f}", f"{est.sigma:.6f}",
                     f"{est.center_counts}", f"{est.background_per_window:.3f}",
                     str(est.lower_bound).lower()])
    _write_csv(outdir / "car_mc.csv",
               ["pump_uw", "car", "sigma", "center_counts", "background_per_window",
                "lower_bound"],
               rows)
    return ["car_analytic.csv", "car_mc.csv"]


def _fringe_phases(points: int) -> np.ndarray:
    return np.arange(points) * 2.0 * np.pi / points


def _run_fringe(config: ScenarioConfig, points: int, duration: float, before: bool,
                scan_name: str, op: OperatingPoint | None = None):
    cfg = replace(
        config,
        convert_signal=not before,
        simulate_all_channels=False,
    )
    scan = fringe_scan(cfg, _fringe_phases(points), duration, scan_name=scan_name, op=op)
    result = analysis.fit_visibility(scan)
    return scan, result


def _fringe_rows(scan: analysis.FringeScan, result: analysis.VisibilityResult) -> list[list[str]]:
    fitted = analysis.fitted_curve(result, scan.phases())
    rows = []
    for point, fit in zip(scan.points, fitted):
        rows.append([
            f"{point.phase_rad:.6f}",
            f"{point.temperature_k:.6f}" if point.temperature_k is not None else "",
            f"{point.center_counts:.0f}",
            f"{point.background_counts:.3f}",
            f"{np.sqrt(max(point.center_counts, 1)):.3f}",
            f"{fit:.3f}",
        ])
    return rows


_FRINGE_HEADER = ["phase_rad", "temperature_k", "center_counts",
                  "background_counts", "poisson_error", "fitted_counts"]


def _cmd_fringe(args, config: ScenarioConfig, outdir: Path) -> list[str]:
    channel = config.active_label
    scan, result = _run_fringe(config, args.points, args.duration, args.before,
                               scan_name=f"fringe:{channel}")
    stem = f"fringe_{channel}{'_before' if args.before else ''}"
    _write_csv(outdir / f"{stem}.csv", _FRINGE_HEADER, _fringe_rows(scan, result))
    _write_json(outdir / f"{stem}_visibility.json",
                analysis.visibility_result_to_dict(result))
    return [f"{stem}.csv", f"{stem}_visibility.json"]


def _cmd_demux(args, config: ScenarioConfig, outdir: Path) -> list[str]:
    # first, so that each after-conversion scan reuses its channel's crosstalk operating
    # point (simulating fewer channels, it reads only its own channel's acceptance)
    xtalk = demux_crosstalk(config, duration_s=args.duration)
    files: list[str] = []
    cells: dict[str, dict[str, analysis.VisibilityResult | None]] = {}
    table_json: dict[str, dict] = {}
    for pair in config.plan:
        label = pair.signal_label
        cells[pair.label] = {}
        table_json[pair.label] = {}
        for kind, before, duration in (
            ("before", True, args.duration_before),
            ("after", False, args.duration_after),
        ):
            scan, result = _run_fringe(replace(config, active_label=label), args.points,
                                       duration, before, scan_name=f"demux-fringe:{label}:{kind}",
                                       op=None if before else xtalk["runs"][label].op)
            cells[pair.label][kind] = result
            table_json[pair.label][kind] = analysis.visibility_result_to_dict(result)
            stem = f"fringe_{label}_{kind}"
            _write_csv(outdir / f"{stem}.csv", _FRINGE_HEADER, _fringe_rows(scan, result))
            files.append(f"{stem}.csv")

    table = analysis.visibility_report(cells)
    (outdir / "visibility_table.txt").write_text(table + "\n")
    _write_json(outdir / "visibility_table.json", table_json)
    files.extend(["visibility_table.txt", "visibility_table.json"])
    print(table)

    rows = []
    for sig_label, row in sorted(xtalk["matrix"].items()):
        for idl_label, cell in sorted(row.items()):
            rows.append([
                sig_label, idl_label, f"{cell.center}",
                f"{cell.background_per_window:.3f}", f"{cell.sigma:.3f}",
            ])
    _write_csv(outdir / "crosstalk_matrix.csv",
               ["addressed", "idler", "center_counts", "background_per_window", "sigma"],
               rows)
    _write_json(outdir / "pump_solutions.json", xtalk["pump_nm"])
    files.extend(["crosstalk_matrix.csv", "pump_solutions.json"])

    if args.emit_tags:
        for pair in config.plan:
            run = xtalk["runs"][pair.signal_label]
            streams = [run.signal_stream] + [
                run.idler_streams[p.idler_label] for p in config.plan
            ]
            name = f"tags_{pair.signal_label}.csv"
            write_streams(streams, outdir / name, config_digest=args._digest)
            files.extend([name, f"tags_{pair.signal_label}.manifest.json"])
    return files


def _cmd_loss(args, config: ScenarioConfig, outdir: Path) -> list[str]:
    report = loss_report(config.signal_ledger, config.idler_ledger)
    lines = [
        format_ledger_table(config.signal_ledger),
        "",
        format_ledger_table(config.idler_ledger),
        "",
        f"SFG module subtotal:            {report['sfg_module_db']:6.2f} dB",
        f"idler arm total:                {report['idler_total_db']:6.2f} dB",
        f"signal arm optical (no det.):   {report['signal_optical_db']:6.2f} dB",
        f"signal arm total (with det.):   {report['signal_total_db']:6.2f} dB",
    ]
    text = "\n".join(lines)
    print(text)
    if args.format == "json":
        payload = {
            "report": report,
            "signal_entries": [asdict(e) for e in config.signal_ledger.entries],
            "idler_entries": [asdict(e) for e in config.idler_ledger.entries],
        }
        _write_json(outdir / "loss_report.json", payload)
        return ["loss_report.json"]
    (outdir / "loss_report.txt").write_text(text + "\n")
    return ["loss_report.txt"]


def _cmd_analyze(args, config: ScenarioConfig, outdir: Path) -> list[str]:
    labels = read_manifest(args.tags)["labels"]
    if not (args.a and args.b) and len(labels) < 2:
        raise ValueError(f"{args.tags}: tag file has channels {labels}; analyze needs two "
                         "channels, or both --a and --b")
    label_a = args.a or labels[0]
    label_b = args.b or labels[1]
    if label_a not in labels or label_b not in labels:
        raise ValueError(
            f"channels {label_a!r}/{label_b!r} not in tag file {sorted(labels)}"
        )
    # only the two histogrammed streams are built (see read_streams)
    streams, manifest = read_streams(args.tags, labels=[label_a, label_b])
    by_label = {s.label: s for s in streams}
    hist = histogram(by_label[label_a], by_label[label_b], config.coincidence)
    rows = [[f"{c}", f"{n}"] for c, n in zip(hist.centers_ps, hist.counts)]
    _write_csv(outdir / "histogram.csv", ["delay_ps", "count"], rows)

    window = config.coincidence.window_ns
    win = central_window_counts(hist, window, side_delay_ns=config.signal_umi.delay_ns)
    est = analysis.car_from_windows(win)
    stats = {
        "labels": [label_a, label_b],
        "total_pairs_examined": hist.total_pairs_examined,
        "center_counts": win.center,
        "early_counts": win.early,
        "late_counts": win.late,
        "background_per_window": win.background_per_window,
        "car": est.car,
        "car_sigma": est.sigma,
        "car_lower_bound": est.lower_bound,
        "source_digest": manifest.get("config_digest", ""),
    }
    _write_json(outdir / "stats.json", stats)
    return ["histogram.csv", "stats.json"]


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="qdemux", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"qdemux {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, default=None, help="JSON scenario overrides")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p = sub.add_parser("plan", help="channel plan wavelengths (grid table)")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("ring", help="microring transmission sweep")
    common(p)
    p.add_argument("--span-fsr", type=_positive(float), default=8.0)
    p.add_argument("--step-mhz", type=_positive(float), default=50.0)
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("qpm", help="phase-matching tuning curves and channel pumps")
    common(p)
    p.add_argument("--points", type=_positive(int), default=801)
    p.add_argument("--temp-span", type=_positive(float), default=20.0)
    p.set_defaults(func=_cmd_qpm)

    p = sub.add_parser("sfg-eff", help="conversion efficiency vs pump power")
    common(p)
    p.add_argument("--max-mw", type=_positive(float), default=1000.0)
    p.add_argument("--points", type=_positive(int), default=201)
    p.set_defaults(func=_cmd_sfg_eff)

    p = sub.add_parser("car", help="analytic CAR curve plus Monte Carlo checks")
    common(p)
    p.add_argument("--duration", type=float, default=20.0, help="per-run accumulation [s]")
    p.add_argument("--min-uw", type=_positive(float), default=10.0)
    p.add_argument("--max-uw", type=_positive(float), default=2000.0)
    p.add_argument("--points", type=_positive(int), default=200)
    p.add_argument("--mc-powers", type=_positive(float, sep=","), default="50,100,200,400,800")
    p.set_defaults(func=_cmd_car)

    p = sub.add_parser("fringe", help="two-photon fringe scan for one channel")
    common(p)
    p.add_argument("--duration", type=float, default=300.0, help="per-run accumulation [s]")
    p.add_argument("--channel", type=str, default=None, help="sets run.active_channel")
    p.add_argument("--points", type=_positive(int, floor=4), default=8)
    p.add_argument("--before", action="store_true",
                   help="measure the source directly, without conversion")
    p.set_defaults(func=_cmd_fringe)

    p = sub.add_parser("demux", help="three-channel end-to-end report")
    common(p)
    p.add_argument("--duration", type=float, default=60.0, help="per-run accumulation [s]")
    p.add_argument("--points", type=_positive(int, floor=4), default=8)
    p.add_argument("--duration-before", type=_positive(float), default=30.0)
    p.add_argument("--duration-after", type=_positive(float), default=300.0)
    p.add_argument("--emit-tags", action="store_true")
    p.set_defaults(func=_cmd_demux)

    p = sub.add_parser("loss", help="loss ledger report")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("analyze", help="histogram and CAR from a timestamp file")
    common(p)
    p.add_argument("--tags", type=Path, required=True)
    p.add_argument("--a", type=str, default=None, help="first channel label")
    p.add_argument("--b", type=str, default=None, help="second channel label")
    p.set_defaults(func=_cmd_analyze)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg_dict = load_config_dict(args.config)
        flags = {"seed": args.seed, "duration_s": getattr(args, "duration", None),
                 "active_channel": getattr(args, "channel", None)}
        if isinstance(cfg_dict["run"], dict):  # build_config refuses any other run
            cfg_dict["run"].update({k: v for k, v in flags.items() if v is not None})
        config = build_config(cfg_dict)
        digest = config_digest(cfg_dict)
    except ConfigError as exc:
        source = args.config if args.config else "<baseline>"
        print(f"config error ({source}): {exc}", file=sys.stderr)
        return 1

    outdir = args.out if args.out is not None else Path("qdemux_out") / args.command
    outdir.mkdir(parents=True, exist_ok=True)
    args._digest = digest

    start = time.monotonic()
    try:
        files = args.func(args, config, outdir)
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_json(outdir / "manifest.json", {
        "scenario": args.command,
        "config_digest": digest,
        "seed": config.seed,
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "files": sorted(files),
        "runtime_s": time.monotonic() - start,
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
