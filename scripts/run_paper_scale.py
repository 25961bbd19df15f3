#!/usr/bin/env python3
"""Full-scale run (n = 120, N = 64800). The dense designs would need ~7.5 GB,
so under the default budget the dataset stores the first 27,777 rows (~43%,
~3.2 GB) and regenerates the rest from per-sample seeds on every pass;
expect a long single-threaded run (tens of minutes). Writes summary.csv,
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
    code = code or main(["trace", "--config", str(CONFIG), "--out", str(OUT)])
    print(f"outputs in {OUT}")
    sys.exit(code)
