"""The benchmark's four workloads run and pass their own checks on this tree.

An exception here is what ends a benchmark run with exit 1, so a renamed or
re-signed qdemux function that ``perfbench/workloads.py`` calls, or a
baseline config it cannot build, fails this test first.  The file is read,
not imported as a package, and no bytecode is written next to it.  Nothing
is timed.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["accumulate", "demux_scan", "car_sweep", "tag_roundtrip"])
def test_workload_runs_and_passes_its_check(monkeypatch, tmp_path, name):
    workload = _workloads(monkeypatch)[name](1, tmp_path)
    workload.prepare()
    workload.setup()
    out = workload.call()
    assert workload.check(out) == []
    assert re.fullmatch(r"[0-9a-f]{64}", workload.digest(out))
