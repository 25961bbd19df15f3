"""The library names that the benchmark harness wraps or captures still
resolve, so that a refactor cannot silently zero a per-layer metric or
empty the capture a workload check reads."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Targets whose functions were deleted from the library; their spans read 0
# until the harness drops them.
DEAD = {
    ("mixsense.scaledtgd", "run_scaledtgd"),
    ("mixsense.scaledtgd", "residuals"),
    ("mixsense.synth", "Dataset.design_rows"),
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    traced = [(module, path) for _, module, path, _ in _tracing().TARGETS]
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
