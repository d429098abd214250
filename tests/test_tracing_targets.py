"""The benchmark's tracer wraps qdemux functions by name; each name must exist.

``perfbench/tracing.py`` is read, not imported as a package, and no bytecode
is written next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _span_targets(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_TARGETS


def test_every_span_target_resolves_in_qdemux(monkeypatch):
    targets = _span_targets(monkeypatch)
    assert ("qdemux.events", "EventStream.from_unsorted") in {t[:2] for t in targets}
    missing = []
    for module_name, attr, _layer, _hook in targets:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # the tracer replaces a method through the class __dict__
        if owner is None or name not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"traced names missing from qdemux: {missing}"
