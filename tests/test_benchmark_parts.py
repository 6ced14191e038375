"""The benchmark's workloads call blindjam and read its results; a change to a
result type or signature they use must fail here, not only in the benchmark
run. Each workload runs at its "tiny" size and its own checks must pass."""
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["rate", "lattice"])
def test_workload_runs_and_passes_its_checks(name, seed, tmp_path):
    wl = _workloads()
    workload = wl.Workload(wl.WORKLOADS[name], seed, wl.SIZES["tiny"], str(tmp_path))
    checked, _ = workload.check(workload.run())
    assert checked.attempted > 0
    assert checked.failed == 0, f"{checked.failed} of {checked.attempted} cells failed"
