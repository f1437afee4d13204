#!/usr/bin/env python3
"""Run every bundled scenario through the CLI into out/<name>/.

Desk-scale reproduction of the figure pipelines: signal design reports,
input/response time series, and moment-constrained response bounds as CSV.
Plotting is left to external tools.
"""

import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy loads: a threaded product can round its
# sums in another order, which changed the last digits of the bounds CSVs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from markovdesign.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / "out"

RUNS = [
    ("fig3_visco", ["design", "simulate", "bounds"]),
    ("fig4_dielectric", ["design", "verify", "simulate", "bounds"]),
    ("fig5_plasma", ["design", "simulate", "bounds"]),
    ("fig6_freq_target", ["design", "simulate", "bounds"]),
    ("fig7_regions", ["region"]),
]


def run() -> int:
    for name, commands in RUNS:
        scenario = SCENARIOS / f"{name}.json"
        out_dir = OUT / name
        for command in commands:
            print(f"== {name}: {command}")
            code = main([command, "--scenario", str(scenario), "--out", str(out_dir)])
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(run())
