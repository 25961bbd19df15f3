"""mixsense benchmark: time whole trials (draw a dataset, recover all K
matrices), check every result, and print the metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload stored_desk --seed 0 --seconds 40 --trace 0

``--trace 0`` times trials with no instrumentation and reports the
end-to-end metrics; ``--trace 1`` records spans around the library's layers
and reports the per-layer metrics. Trials run one after another in this
process while the next one is expected to end within ``--seconds`` of wall
time (at least one trial). Per-trial records, the environment and any spans
go to ``perfbench/out/``. The last line on stdout is the result object.
"""

import os

# One BLAS thread, fixed before numpy loads: results and iteration counts
# depend on the thread count down to the last bit, and one thread is
# steadier than two on a small shared host. Never more than nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

try:
    import workloads  # puts the checkout's src first on sys.path
except ImportError as exc:
    sys.exit(f"cannot import the library from this checkout: {exc}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from mixsense import MixsenseError, PipelineStageError  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
# Set-up is timed in this many fresh interpreters, half before the trials and
# half after them, so that a run's set-up samples the host at both ends of
# the run; setup_s is their median.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
# Trial-0 values of these per-layer metrics are reported: they are exact
# counts or sizes, so they repeat for a given seed whatever the trial count.
FIRST_TRIAL_METRICS = (
    "synth.rows_read", "synth.dataset_mb", "scaledtgd.iters",
    "scaledtgd.passes_per_iter", "scaledtgd.kept_frac",
)
# Per-layer units by name suffix, first match wins; anything else is a count.
UNITS = (("_per_s", "1/s"), ("_ms", "ms"), ("_mb", "MB"), ("_s", "s"),
         ("_frac", "ratio"), ("_per_iter", "ratio"))
FAILURE_TAGS = ("sample", "stage1", "stage2", "stage3", "pipeline", "check")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    return args


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until it has imported the
    library and built the first trial's ground truth and config."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def _solve(d, cfg, trial: dict):
    """Run the solver and append its time to the trial; on failure, tag the
    trial with the stage and return None."""
    start = time.perf_counter()
    try:
        return workloads.solve(d, cfg)
    except PipelineStageError as exc:
        trial["failure"] = [exc.stage, str(exc)]
    except (MixsenseError, np.linalg.LinAlgError) as exc:
        trial["failure"] = ["pipeline", str(exc)]
    finally:
        trial["solve_s"].append(time.perf_counter() - start)
    return None


def run_trial(wl, seed: int, tracer=None):
    """One trial: draw the dataset and solve, both timed; then check the
    result. With a tracer, the dataset is drawn traced and solved three
    times: untraced, traced, and untraced again for the overhead ratio."""
    gt, cfg = workloads.setup(wl, seed)
    trial = {"seed": seed, "failure": None, "solve_s": []}
    start = time.perf_counter()
    try:
        if tracer is None:
            d = workloads.sample(wl, gt, seed)
        else:
            with tracer.installed():
                d = workloads.sample(wl, gt, seed)
    except MixsenseError as exc:
        trial["failure"] = ["sample", str(exc)]
        trial["trial_s"] = time.perf_counter() - start
        return trial, None, None
    trial["sample_s"] = time.perf_counter() - start
    rss_after_sample = rss_bytes()
    with tracing.capture_returns("mixsense.initialization", "lift_and_factor") as lifted:
        report = _solve(d, cfg, trial)
    trial["trial_s"] = time.perf_counter() - start
    trial["work_mem_mb"] = (peak_rss_bytes() - rss_after_sample) / 2**20
    if tracer is not None and report is not None:
        # the first solve of a dataset runs slower, so the overhead compares
        # the traced solve with a second untraced one
        with tracer.installed():
            traced = _solve(d, cfg, trial)
        _solve(d, cfg, trial)
        if traced is not None and not workloads.same_bits(report.estimates, traced.estimates):
            trial["failure"] = ["check", "traced solve differs from the untraced one"]
    if report is None or trial["failure"]:
        return trial, d, report
    inits = [f.product() for f in lifted]
    try:
        problem = workloads.check_dataset_budget(wl, d) or wl.check(
            wl, gt, cfg, seed, d, report, inits)
    except MixsenseError as exc:
        problem = f"check raised {exc}"
    if problem:
        trial["failure"] = ["check", problem]
    return trial, d, report


def layer_values(tracer, t: int, d, report) -> dict:
    """Per-layer metrics of trial `t` from its spans and its report."""
    times = tracing.layer_times(tracer.spans, t)

    def total(name):
        return times.get(name, {}).get("total", 0.0)

    def self_time(name):
        return times.get(name, {}).get("self", 0.0)

    reads = times.get("synth.read", {"rows": 0, "total": 0.0})
    comps = report.per_component if report is not None else []
    iters = sum(len(c.trace) - 1 for c in comps)
    kept = sum(sum(c.trace.kept_counts[:-1]) for c in comps)
    run_s = total("scaledtgd.run")
    N = d.N if d is not None else 0
    stage3_rows = tracing.rows_under(tracer.spans, t, "scaledtgd.run")
    return {
        "synth.sample_s": total("synth.sample"),
        "synth.rows_read": reads["rows"],
        "synth.read_s": reads["total"],
        "synth.rows_per_s": reads["rows"] / reads["total"] if reads["total"] else 0.0,
        "synth.dataset_mb": workloads.dataset_mb(d) if d is not None else 0.0,
        "spectral.data_matrix_s": total("spectral.data_matrix"),
        "spectral.subspace_s": total("spectral.subspace"),
        "initialization.compress_s": total("initialization.compress"),
        "initialization.lift_s": total("initialization.lift"),
        "mlr_tensor.solve_s": total("mlr_tensor.solve"),
        "mlr_tensor.moments_s": total("mlr_tensor.moments"),
        "mlr_tensor.power_s": total("mlr_tensor.power"),
        "scaledtgd.run_s": run_s,
        "scaledtgd.iters": iters,
        "scaledtgd.iter_ms": 1000.0 * run_s / iters if iters else 0.0,
        "scaledtgd.residuals_s": self_time("scaledtgd.residuals"),
        "scaledtgd.truncation_s": self_time("scaledtgd.truncation"),
        "scaledtgd.update_s": self_time("scaledtgd.update"),
        "scaledtgd.passes_per_iter": stage3_rows / N / iters if iters else 0.0,
        "scaledtgd.kept_frac": kept / (N * iters) if iters else 0.0,
        "pipeline.self_s": self_time("pipeline"),
    }


def measure(wl, seed: int, seconds: float, tracer=None):
    """Run trials, each with its check, while another one of the same wall
    time as the last still ends within `seconds`; at least one."""
    trials, layers = [], []
    start = time.perf_counter()
    for t in itertools.count():
        if tracer is not None:
            tracer.trial = t
        begin = time.perf_counter()
        trial, d, report = run_trial(wl, seed + workloads.TRIAL_STRIDE * t, tracer)
        trials.append(trial)
        if tracer is not None:
            layers.append(layer_values(tracer, t, d, report))
        del d, report
        now = time.perf_counter()
        trial["wall_s"] = now - begin
        if now - start + (now - begin) > seconds:
            return trials, layers


def end_to_end(trials, setup_times) -> dict:
    failed = sum(1 for tr in trials if tr["failure"])
    solves = [tr["solve_s"][0] for tr in trials if tr["solve_s"]]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "trial_s": (statistics.median(tr["trial_s"] for tr in trials), "s"),
        "solve_s": (statistics.median(solves) if solves else 0.0, "s"),
        # peak RSS cannot be reset without writing under /proc, so only the
        # run's first trial measures the solver's working set
        "work_mem_mb": (trials[0].get("work_mem_mb", 0.0), "MB"),
        "pass_frac": (1.0 - failed / len(trials), "ratio"),
    }


def per_layer(trials, layers) -> dict:
    out = {}
    for name in layers[0]:
        if name in FIRST_TRIAL_METRICS:
            value = layers[0][name]
        else:
            value = statistics.median(layer[name] for layer in layers)
        unit = next((u for suffix, u in UNITS if name.endswith(suffix)), "count")
        out[name] = (value, unit)
    for tag in FAILURE_TAGS:
        out[f"pipeline.failures.{tag}"] = (
            sum(1 for tr in trials if tr["failure"] and tr["failure"][0] == tag), "count")
    solves = [tr["solve_s"] for tr in trials if len(tr["solve_s"]) == 3]
    out["trace.overhead"] = (
        statistics.median(s[1] for s in solves) / statistics.median(s[2] for s in solves)
        if solves else 0.0, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    print(json.dumps({"env": env}, sort_keys=True))

    tracer = tracing.Tracer() if args.trace else None
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup_times = [probe_setup(wl.name, args.seed) for _ in range(probes)]
    trials, layers = measure(wl, args.seed, args.seconds, tracer)
    setup_times += [probe_setup(wl.name, args.seed) for _ in range(probes)]
    metrics = per_layer(trials, layers) if args.trace else end_to_end(trials, setup_times)

    OUT.mkdir(exist_ok=True)
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "env": env,
              "setup_s": setup_times, "trials": trials, "layers": layers}
    if tracer is not None:
        detail["trace_spans"] = tracer.to_json()
        if tracer.absent:
            print(f"absent spans: {tracer.absent}", file=sys.stderr)
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh)
    for tr in trials:
        if tr["failure"]:
            print(f"trial seed {tr['seed']} failed in {tr['failure'][0]}: {tr['failure'][1]}",
                  file=sys.stderr)
    failed = sum(1 for tr in trials if tr["failure"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(trials),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
