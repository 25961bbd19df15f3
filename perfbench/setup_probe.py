"""Set-up probe for the benchmark's setup_s metric.

Imports the library and builds the first trial's ground truth and solver
config, as a benchmark run does before its first trial, then prints
``ready``. Usage: ``python3 perfbench/setup_probe.py <workload> <seed>``.
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.setup(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print("ready", flush=True)
