"""Layer spans recorded from outside qdemux, for the benchmark's traced run.

:class:`Tracer` replaces the public functions of each qdemux module with
wrappers that record a span (name, layer, start, end, parent) and count
the work passing through.  The replacement covers every binding of the
function in every ``qdemux`` module namespace, because modules call
functions they imported by name (``montecarlo`` calls ``apply_detector``,
``histogram`` and ``central_window_counts`` through its own namespace,
``cli`` calls ``generate_run`` through its).  Wrappers record only inside
a root span opened with :meth:`Tracer.root`, so the benchmark's own
output checks stay out of the numbers.  Leaving the ``with`` block puts
every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

import numpy as np


def _stream_rows(streams) -> int:
    return int(sum(s.count for s in streams))


def _tag_bytes(csv_path) -> int:
    csv_path = os.fspath(csv_path)
    manifest = os.path.splitext(csv_path)[0] + ".manifest.json"
    return os.path.getsize(csv_path) + os.path.getsize(manifest)


def _count_pump_solve(counts, args, kwargs, result):
    counts["sfg.pump_solves"] += 1


def _count_run(counts, args, kwargs, result):
    counts["montecarlo.runs"] += 1


def _count_drawn(counts, args, kwargs, result):
    # from_unsorted(cls, label, timestamps_ps, duration_s, seed)
    stamps = args[2] if len(args) > 2 else kwargs["timestamps_ps"]
    counts["montecarlo.photons_drawn"] += int(np.size(stamps))


def _count_detect(counts, args, kwargs, result):
    stream = args[0] if args else kwargs["stream"]
    counts["detection.events_in"] += stream.count
    counts["detection.events_out"] += result.count


def _count_pairs(counts, args, kwargs, result):
    counts["events.pairs_examined"] += result.total_pairs_examined


def _count_fit(counts, args, kwargs, result):
    counts["analysis.fits"] += 1


def _count_write(counts, args, kwargs, result):
    streams = args[0] if args else kwargs["streams"]
    counts["events.rows"] += _stream_rows(streams)
    counts["events.file_bytes"] += _tag_bytes(result)


def _count_read(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["events.rows"] += _stream_rows(result[0])
    counts["events.file_bytes"] += _tag_bytes(path)


# (module, attribute, layer, counter hook).  A layer's time is the self
# time of its spans: span duration minus the time its child spans cover.
SPAN_TARGETS = (
    ("qdemux.config", "load_config_dict", "config.build", None),
    ("qdemux.config", "config_digest", "config.build", None),
    ("qdemux.config", "build_config", "config.build", None),
    ("qdemux.sfg", "solve_pump_wavelength", "sfg.solve", _count_pump_solve),
    ("qdemux.sfg", "matched_signal_nm", "sfg.solve", None),
    ("qdemux.sfg", "acceptance", "sfg.solve", None),
    ("qdemux.sfg", "solve_qpm_temperature", "sfg.solve", None),
    ("qdemux.montecarlo", "generate_run", "montecarlo.sample", _count_run),
    ("qdemux.montecarlo", "fringe_scan", "montecarlo.pipeline", None),
    ("qdemux.montecarlo", "demux_crosstalk", "montecarlo.pipeline", None),
    ("qdemux.montecarlo", "detection_arms", "detection.car_curve", None),
    ("qdemux.franson", "sample_pair_paths", "franson.route", None),
    ("qdemux.franson", "sample_single_paths", "franson.route", None),
    ("qdemux.events", "EventStream.from_unsorted", "events.assemble", _count_drawn),
    ("qdemux.detection", "apply_detector", "detection.detect", _count_detect),
    ("qdemux.detection", "car_curve", "detection.car_curve", None),
    ("qdemux.events", "histogram", "events.histogram", _count_pairs),
    ("qdemux.events", "central_window_counts", "events.windows", None),
    ("qdemux.analysis", "fit_visibility", "analysis.fit", _count_fit),
    ("qdemux.analysis", "car_from_histogram", "analysis.fit", _count_fit),
    ("qdemux.events", "write_streams", "events.write", _count_write),
    ("qdemux.events", "read_streams", "events.read", _count_read),
    ("qdemux.cli", "main", "cli.self", None),
)

ROOT_LAYER = "uncovered"

LAYERS = tuple(dict.fromkeys(t[2] for t in SPAN_TARGETS))

COUNTERS = (
    "sfg.pump_solves",
    "sfg.mismatch_points",
    "montecarlo.runs",
    "montecarlo.photons_drawn",
    "detection.events_in",
    "detection.events_out",
    "events.pairs_examined",
    "analysis.fits",
    "events.rows",
    "events.file_bytes",
)


class Tracer:
    """Context manager that wraps qdemux for as long as it is entered.

    ``spans`` holds ``[id, name, layer, parent_id, start_s, end_s]`` rows
    in the order they opened; ``counts`` holds the exact counters.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers --------------------------------

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, tuple[object, object]] = {}
        for module_name, attr, layer, hook in SPAN_TARGETS:
            module = importlib.import_module(module_name)
            name = f"{module_name.removeprefix('qdemux.')}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                wrapped = classmethod(self._span_wrapper(original.__func__, name, layer, hook))
                self._set(cls, method, wrapped)
            else:
                original = getattr(module, attr)
                wrappers[id(original)] = (original, self._span_wrapper(original, name, layer, hook))
        sfg = importlib.import_module("qdemux.sfg")
        mismatch = sfg.phase_mismatch
        wrappers[id(mismatch)] = (mismatch, self._mismatch_counter(mismatch))

        for module_name, module in list(sys.modules.items()):
            if module_name != "qdemux" and not module_name.startswith("qdemux."):
                continue
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, key, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def _span_wrapper(self, fn, name: str, layer: str, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = len(spans)
            row = [sid, name, layer, stack[-1], clock(), 0.0]
            spans.append(row)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                row[5] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _mismatch_counter(self, fn):
        # phase_mismatch runs ~10^4 times per demux call: count the points
        # it evaluates (from the argument sizes) without opening a span.
        stack, counts = self._stack, self.counts

        def wrapper(crystal, pump_nm, signal_nm, temperature_c=None):
            if stack:
                counts["sfg.mismatch_points"] += np.broadcast(
                    pump_nm, signal_nm, temperature_c).size
            return fn(crystal, pump_nm, signal_nm, temperature_c)

        return functools.wraps(fn)(wrapper)

    # -- recording -------------------------------------------------------------

    @contextmanager
    def root(self, name: str):
        """Open a root span; wrapped calls record only inside one."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        sid = len(self.spans)
        row = [sid, name, ROOT_LAYER, None, time.perf_counter(), 0.0]
        self.spans.append(row)
        self._stack.append(sid)
        try:
            yield
        finally:
            row[5] = time.perf_counter()
            self._stack.pop()

    def take(self) -> tuple[list[list], dict[str, int]]:
        """Return the spans and counts recorded so far and start afresh.

        Span ids restart at 0, so an id is the span's index in its list.
        """
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.update(dict.fromkeys(COUNTERS, 0))
        return spans, counts


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per layer: each span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    for _sid, _name, _layer, parent, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = dict.fromkeys(LAYERS + (ROOT_LAYER,), 0.0)
    for sid, _name, layer, _parent, start, end in spans:
        out[layer] += (end - start) - child_time[sid]
    return out
