"""The library names that the benchmark harness wraps or captures still
resolve, so that a refactor cannot silently zero a per-layer metric or
empty the capture a workload check reads, and the harness's own workload
calls and its self-check still run against the library."""

import dataclasses
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Targets whose functions were deleted from the library; their spans read 0
# until the harness drops them.
DEAD = {
    ("mixsense.scaledtgd", "run_scaledtgd"),
    ("mixsense.scaledtgd", "residuals"),
    ("mixsense.synth", "Dataset.design_rows"),
}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    traced = [(module, path) for _, module, path, _ in _load("tracing").TARGETS]
    captured = re.findall(r'capture_returns\("([\w.]+)", "([\w.]+)"\)',
                          (PERFBENCH / "run.py").read_text())
    assert ("mixsense.initialization", "lift_and_factor") in captured
    return sorted(set(traced + captured) - DEAD)


@pytest.mark.parametrize("module, path", _targets())
def test_target_resolves(module, path):
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{module}.{path} is gone from the library"


def test_workload_calls_run():
    # streamed_budget at 30% of its samples: setup, sample, solve and the
    # stored-mode check as the harness calls them
    workloads = _load("workloads")
    wl = dataclasses.replace(workloads.WORKLOADS["streamed_budget"], N=6480)
    gt, cfg = workloads.setup(wl, 0)
    dataset = workloads.sample(wl, gt, 0)
    # the budget holds 40% of the entries as float64, so 80% of the rows as
    # float32
    assert dataset.designs_flat.dtype == np.float32
    assert dataset.stored_rows == 2 * wl.stored_budget // (workloads.N_DIM * workloads.N_DIM)
    assert 0 < dataset.stored_rows < dataset.N
    report = workloads.solve(dataset, cfg)
    assert workloads.check_dataset_budget(wl, dataset) is None
    assert workloads.check_matches_stored(wl, gt, cfg, 0, dataset, report, []) is None


def test_selfcheck_passes():
    # every workload check still accepts true results and trips on corrupted ones
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=PERFBENCH.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.startswith("ok") for line in lines), proc.stdout
