"""Spans around calls into the library's layers, for the traced run.

While a `Tracer` is installed, the public functions listed in `TARGETS` are
replaced, in every ``mixsense`` module that holds them, by wrappers that
record a span (name, start, end, parent, trial, rows). Spans stay in memory
until the run writes them out. A target the library no longer has is listed
in `Tracer.absent`, and its metrics read 0; the run goes on.
"""

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

# (span name, module, attribute path, what the call returns when it reads rows)
TARGETS = [
    ("pipeline", "mixsense.pipeline", "run_pipeline", None),
    ("synth.sample", "mixsense.synth", "sample_dataset", None),
    ("synth.read", "mixsense.synth", "Dataset.iter_design_blocks", "blocks"),
    ("synth.read", "mixsense.synth", "Dataset.design_rows", "rows"),
    ("spectral.data_matrix", "mixsense.spectral", "data_matrix", None),
    ("spectral.subspace", "mixsense.spectral", "subspace_estimate", None),
    ("initialization.compress", "mixsense.initialization", "compress_samples", None),
    ("initialization.lift", "mixsense.initialization", "lift_and_factor", None),
    ("mlr_tensor.solve", "mixsense.mlr_tensor", "solve_mlr", None),
    ("mlr_tensor.moments", "mixsense.mlr_tensor", "moments", None),
    ("mlr_tensor.power", "mixsense.mlr_tensor", "robust_tensor_power", None),
    ("scaledtgd.run", "mixsense.scaledtgd", "run_scaledtgd", None),
    ("scaledtgd.residuals", "mixsense.scaledtgd", "residuals", None),
    ("scaledtgd.truncation", "mixsense.scaledtgd", "truncation_set", None),
    ("scaledtgd.update", "mixsense.scaledtgd", "_update", None),
]

# span record fields
NAME, START, END, PARENT, TRIAL, ROWS = range(6)


def _patch(module: str, path: str, make_wrapper: Callable) -> Optional[list]:
    """Replace the object at `module`.`path` wherever a ``mixsense`` module
    holds it, or the class attribute when `path` names one. Returns the undo
    records, or None when the object does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    original = getattr(owner, attr, None)
    if original is None:
        return None
    wrapper = make_wrapper(original)
    if outer:
        holders = [(owner, attr)]
    else:
        holders = [
            (mod, name)
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "mixsense" or mod_name.startswith("mixsense.")
            for name, value in list(vars(mod).items())
            if value is original
        ]
    for holder, name in holders:
        setattr(holder, name, wrapper)
    return [(holder, name, original) for holder, name in holders]


@contextmanager
def _patched(patches: List[list]):
    try:
        yield
    finally:
        for undo in reversed(patches):
            for holder, name, original in reversed(undo):
                setattr(holder, name, original)


@contextmanager
def capture_returns(module: str, path: str):
    """Collect the return values of one library function while active; the
    list stays empty when the function does not exist."""
    results: list = []

    def make_wrapper(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            results.append(out)
            return out
        return wrapper

    undo = _patch(module, path, make_wrapper)
    with _patched([undo] if undo else []):
        yield results


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.trial = 0
        self.absent: List[str] = []
        self._stack: List[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.trial, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, rows: int = 0) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ROWS] = rows
        self._stack.pop()

    def _wrapper(self, name: str, reads: Optional[str]) -> Callable:
        def make_wrapper(fn):
            if reads == "blocks":
                @functools.wraps(fn)
                def gen_wrapper(*args, **kwargs):
                    it = fn(*args, **kwargs)
                    while True:
                        idx, rows = self._open(name), 0
                        try:
                            item = next(it)
                            rows = len(item[2])
                        except StopIteration:
                            return
                        finally:
                            self._close(idx, rows)
                        yield item
                return gen_wrapper

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx, rows = self._open(name), 0
                try:
                    out = fn(*args, **kwargs)
                    if reads == "rows":
                        rows = len(out)
                    return out
                finally:
                    self._close(idx, rows)
            return wrapper
        return make_wrapper

    @contextmanager
    def installed(self):
        patches = []
        for name, module, path, reads in TARGETS:
            undo = _patch(module, path, self._wrapper(name, reads))
            if undo is None:
                if f"{module}.{path}" not in self.absent:
                    self.absent.append(f"{module}.{path}")
            else:
                patches.append(undo)
        with _patched(patches):
            yield self

    def to_json(self) -> Dict:
        return {
            "fields": ["name", "start", "end", "parent", "trial", "rows"],
            "spans": self.spans,
            "absent": self.absent,
        }


def layer_times(spans: List[list], trial: int) -> Dict[str, Dict[str, float]]:
    """Total and self seconds, rows and calls per span name within one
    trial; self time excludes the time covered by direct child spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    out: Dict[str, Dict[str, float]] = {}
    for idx, span in enumerate(spans):
        if span[TRIAL] != trial:
            continue
        dur = span[END] - span[START]
        agg = out.setdefault(span[NAME], {"total": 0.0, "self": 0.0, "rows": 0, "calls": 0})
        agg["total"] += dur
        agg["self"] += dur - child_time[idx]
        agg["rows"] += span[ROWS]
        agg["calls"] += 1
    return out


def rows_under(spans: List[list], trial: int, ancestor: str) -> int:
    """Rows read by `synth.read` spans of one trial that run inside an
    `ancestor` span."""
    total = 0
    for span in spans:
        if span[NAME] != "synth.read" or span[TRIAL] != trial:
            continue
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != ancestor:
            parent = spans[parent][PARENT]
        if parent is not None:
            total += span[ROWS]
    return total
