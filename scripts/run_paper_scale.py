#!/usr/bin/env python3
"""Full-scale run (n = 120, N = 64800). The dense designs would need ~7.5 GB,
so under the default budget the dataset stores the first 27,777 rows (~43%,
~3.2 GB) and regenerates the rest from per-sample seeds on every pass.
Expect about 17 minutes single-threaded for the one trial: a run of seed 0
at the paper's step scale of 1.3 took 1,002 s on one BLAS thread, ~12 s per
stage-3 iteration over 80, 78 and 79 steps (see the README); the derived
step scale of 1.904 has not been run at this scale. Writes summary.csv,
report.json, and trace.csv under out/paper."""

import pathlib
import sys

from mixsense.cli import main

HERE = pathlib.Path(__file__).resolve().parent.parent
CONFIG = HERE / "configs" / "paper_scale.json"
OUT = HERE / "out" / "paper"

if __name__ == "__main__":
    print("full-scale run: most design rows are regenerated, this takes a while...")
    code = main(["run", "--config", str(CONFIG), "--out", str(OUT)])
    print(f"outputs in {OUT}")
    sys.exit(code)
