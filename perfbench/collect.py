"""Run the benchmark once per seed and summarize each metric over the runs:
median, quartiles and the quartile spread as a share of the median.

    python3 perfbench/collect.py --workload stored_desk --seeds 0 1 2 3 4 \\
        --seconds 30 --trace 0 --out perfbench/out/desk.json

Runs go one after another, each as its own process, from the root of the
checkout. The summary is printed and, with ``--out``, written as JSON with
every run's result line.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"seed {seed}: exit code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        env = json.loads(lines[0])["env"] if len(lines) > 1 else None
        runs.append({"seed": seed, "env": env, "result": result})
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    names = runs[0]["result"]["metrics"]
    summary = {
        name: summarize([r["result"]["metrics"][name]["value"] for r in runs]) for name in names
    }
    for name, s in summary.items():
        print(f"{name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, fh, indent=1, sort_keys=True)
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
