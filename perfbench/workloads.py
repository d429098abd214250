"""The benchmark's four workloads, each built from a seed.

A workload has three phases:

* ``prepare()`` makes inputs that are not part of what a user pays for
  (the tag-file streams of ``tag_roundtrip``); it is never timed.
* ``setup()`` builds the workload's ``ScenarioConfig`` the way the CLI
  does: the set-up every CLI call pays.  Import plus this is ``setup_s``.
* ``call()`` is the timed operation; ``check(out)`` returns the problems
  found in its outputs (empty when they are correct) and ``digest(out)``
  a SHA-256 of the output bytes.

Every qdemux function is called through its module attribute, so the
traced run's wrappers see the call.  Checks do not depend on the order of
random draws: they compare counts with analytic laws at 5 sigma, or
outputs with an independent in-memory computation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from qdemux import analysis, cli, config, events, montecarlo, ring_source

# Outputs must stand this many Poisson sigmas from what they are compared to.
SIGMAS = 5.0


def _scenario(seed: int, duration_s: float | None) -> dict:
    raw = config.load_config_dict(None)
    raw["run"]["seed"] = seed
    if duration_s is not None:
        raw["run"]["duration_s"] = duration_s
    return raw


def _tree_digest(outdir: Path) -> str:
    """SHA-256 over every file of a CLI output directory, by name.

    ``manifest.json`` enters without its wall-clock ``runtime_s``.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("runtime_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.relative_to(outdir).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def _stream_digest(h, stream) -> None:
    h.update(stream.label.encode() + b"\0")
    h.update(np.ascontiguousarray(stream.timestamps_ps).tobytes())


def _quiet_cli(argv: list[str]) -> int:
    """Run the CLI in-process with its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read_csv(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


class Workload:
    name = ""
    sim_seconds = 0.0  # simulated or analysed accumulation seconds per call
    duration_s: float | None = None  # the scenario's run.duration_s

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)

    @property
    def outdir(self) -> Path:
        return self.workdir / "out"

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        self.config = config.build_config(_scenario(self.seed, self.duration_s))

    def call(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError


class Accumulate(Workload):
    """The README's headline run: 60 s, three channels, interferometers on."""

    name = "accumulate"
    sim_seconds = 60.0
    duration_s = 60.0

    def call(self):
        cfg = self.config
        run = montecarlo.generate_run(cfg)
        hist = events.histogram(run.signal_stream, run.active_idler_stream, cfg.coincidence)
        win = events.central_window_counts(
            hist, cfg.coincidence.window_ns, side_delay_ns=cfg.signal_umi.delay_ns)
        return run, hist, win

    def expected_rates(self) -> dict[str, float]:
        """Analytic detected singles rates [1/s] for each stream of a run.

        Each arm's photon term is halved by its interferometer, darks are
        added, and the non-paralyzable dead-time law N/(1 + N tau) applies.
        The converted arm counts only the active channel's photons: the
        neighbours leak through the conversion acceptance (7e-4 each at
        200 GHz) about half a sigma in a 60 s run.
        """
        cfg = self.config
        arm_signal, arm_idler = montecarlo.detection_arms(cfg)

        def detected(side, arm, label):
            photons = ring_source.singles_rate(cfg.rates, cfg.chip_power_uw, side,
                                               arm.efficiency(), 0.0, label)
            n = photons / 2.0 + arm.detector.dark_rate_hz
            return n / (1.0 + n * arm.detector.dead_time_us * 1e-6)

        rates = {cfg.signal_stream_label: detected("signal", arm_signal, cfg.active_pair.label)}
        for pair in cfg.plan:
            rates[pair.idler_label] = detected("idler", arm_idler, pair.label)
        return rates

    def check(self, out) -> list[str]:
        run, _hist, win = out
        if not hasattr(self, "_expected"):
            self._expected = self.expected_rates()
        problems = []
        streams = [run.signal_stream, *run.idler_streams.values()]
        for stream in streams:
            expected = self._expected[stream.label] * stream.duration_s
            sigma = math.sqrt(expected)
            if abs(stream.count - expected) > SIGMAS * sigma:
                problems.append(
                    f"{stream.label}: {stream.count} singles, expected "
                    f"{expected:.0f} +- {sigma:.0f}")
        floor = win.background_per_window
        sigma = math.sqrt(max(win.center, 1) + win.background_sigma_per_window**2)
        if not win.center - floor > SIGMAS * sigma:
            problems.append(f"central peak {win.center} not {SIGMAS} sigma above {floor:.2f}")
        return problems

    def digest(self, out) -> str:
        run, hist, _win = out
        h = hashlib.sha256()
        for stream in (run.signal_stream, *run.idler_streams.values()):
            _stream_digest(h, stream)
        h.update(hist.counts.astype(np.int64).tobytes())
        return h.hexdigest()


class _CliWorkload(Workload):
    def argv(self) -> list[str]:
        raise NotImplementedError

    def call(self):
        return _quiet_cli(self.argv() + ["--seed", str(self.seed), "--out", str(self.outdir)])

    def check(self, rc) -> list[str]:
        if rc != 0:
            return [f"qdemux {self.argv()[0]} exited {rc}"]
        return self.check_files()

    def digest(self, rc) -> str:
        return _tree_digest(self.outdir)


class DemuxScan(_CliWorkload):
    """`qdemux demux` at its default structure with short accumulations.

    3 channels x before/after x 8 points of 2 s fringe runs, plus 3
    crosstalk runs.  The crosstalk runs last 8 s, not 2 s: a matched
    cell collects about 13 coincidences per second, and 2 s put it right
    at the 5 sigma line the check asks for.
    """

    name = "demux_scan"
    points, fringe_s, crosstalk_s = 8, 2.0, 8.0
    duration_s = crosstalk_s
    sim_seconds = 3 * 2 * points * fringe_s + 3 * crosstalk_s

    def argv(self) -> list[str]:
        return ["demux", "--points", str(self.points), "--duration", str(self.crosstalk_s),
                "--duration-before", str(self.fringe_s),
                "--duration-after", str(self.fringe_s)]

    def check_files(self) -> list[str]:
        problems = []
        for addressed, idler, center, floor, sigma in _read_csv(
                self.outdir / "crosstalk_matrix.csv"):
            if addressed[1:] != idler[1:]:
                continue
            if not float(center) - float(floor) > SIGMAS * float(sigma):
                problems.append(
                    f"crosstalk {addressed}/{idler}: {center} counts not {SIGMAS} sigma "
                    f"above {floor}")
        return problems


class CarSweep(_CliWorkload):
    """`qdemux car` with defaults: 200 analytic points, 5 x 20 s Monte Carlo runs."""

    name = "car_sweep"
    duration_s = 20.0
    sim_seconds = 5 * duration_s

    def argv(self) -> list[str]:
        return ["car"]

    def check_files(self) -> list[str]:
        problems = []
        for fname, rows in (("car_analytic.csv", 200), ("car_mc.csv", 5)):
            got = len(_read_csv(self.outdir / fname))
            if got != rows:
                problems.append(f"{fname}: {got} rows, expected {rows}")
        return problems


class TagRoundtrip(Workload):
    """Write the four streams of a 60 s baseline run, then `qdemux analyze` them.

    The streams are made untimed in ``prepare()`` and kept in an .npz
    beside the outputs, so a fresh process can load them without
    simulating.
    """

    name = "tag_roundtrip"
    sim_seconds = 60.0
    labels = ("S2'", "I2")

    @property
    def tags(self) -> Path:
        return self.workdir / "tags.csv"

    def prepare(self) -> None:
        cache = self.workdir / "streams.npz"
        raw = _scenario(self.seed, None)
        self.source_digest = config.config_digest(raw)
        if cache.exists():
            with np.load(cache) as data:
                meta = json.loads(str(data["meta"]))
                self.streams = [
                    events.EventStream(label, data[f"t{i}"], meta["duration_s"], meta["seed"])
                    for i, label in enumerate(meta["labels"])
                ]
            return
        cfg = config.build_config(raw)
        run = montecarlo.generate_run(cfg)
        self.streams = [run.signal_stream] + [run.idler_streams[p.idler_label] for p in cfg.plan]
        meta = {"labels": [s.label for s in self.streams],
                "duration_s": cfg.duration_s, "seed": cfg.seed}
        np.savez(cache, meta=json.dumps(meta),
                 **{f"t{i}": s.timestamps_ps for i, s in enumerate(self.streams)})

    def call(self):
        events.write_streams(self.streams, self.tags, config_digest=self.source_digest)
        return _quiet_cli(["analyze", "--tags", str(self.tags), "--a", self.labels[0],
                           "--b", self.labels[1], "--seed", str(self.seed),
                           "--out", str(self.outdir)])

    def _file_digest(self) -> str:
        h = hashlib.sha256(self.tags.read_bytes())
        h.update(self.tags.with_suffix(".manifest.json").read_bytes())
        return h.hexdigest()

    def check(self, rc) -> list[str]:
        if rc != 0:
            return [f"qdemux analyze exited {rc}"]
        problems = []
        # A full read-back once; later calls must write the same bytes.
        file_digest = self._file_digest()
        if not hasattr(self, "_verified_file"):
            back, _manifest = events.read_streams(self.tags)
            for written, read in zip(self.streams, back, strict=True):
                if written.label != read.label or not np.array_equal(
                        written.timestamps_ps, read.timestamps_ps):
                    problems.append(f"stream {written.label!r} did not read back equal")
            if problems:
                return problems
            self._verified_file = file_digest
            self._expected_stats, self._expected_hist = self.expected_outputs()
        elif file_digest != self._verified_file:
            return ["tag file bytes differ from the verified write"]
        stats = json.loads((self.outdir / "stats.json").read_text())
        for key, value in self._expected_stats.items():
            if stats.get(key) != value:
                problems.append(f"stats.json {key}: {stats.get(key)!r}, expected {value!r}")
        if _read_csv(self.outdir / "histogram.csv") != self._expected_hist:
            problems.append("histogram.csv differs from the in-memory histogram")
        return problems

    def expected_outputs(self) -> tuple[dict, list[list[str]]]:
        """The analyze outputs computed from the in-memory streams."""
        by_label = {s.label: s for s in self.streams}
        cfg = self.config
        a, b = (by_label[label] for label in self.labels)
        hist = events.histogram(a, b, cfg.coincidence)
        window = cfg.coincidence.window_ns
        win = events.central_window_counts(hist, window, side_delay_ns=cfg.signal_umi.delay_ns)
        est = analysis.car_from_histogram(hist, window)
        stats = {
            "labels": list(self.labels),
            "total_pairs_examined": hist.total_pairs_examined,
            "center_counts": win.center,
            "early_counts": win.early,
            "late_counts": win.late,
            "background_per_window": win.background_per_window,
            "car": est.car,
            "car_sigma": est.sigma,
            "car_lower_bound": est.lower_bound,
            "source_digest": self.source_digest,
        }
        rows = [[f"{c}", f"{n}"] for c, n in zip(hist.centers_ps, hist.counts)]
        return stats, rows

    def digest(self, rc) -> str:
        h = hashlib.sha256(self._file_digest().encode())
        h.update(_tree_digest(self.outdir).encode())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (Accumulate, DemuxScan, CarSweep, TagRoundtrip)}
