"""Run every workload once and print the end-to-end metrics, one row per workload.

    python3 bench/report.py [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own `run.py` process, one after another, so that
peak RSS and timings belong to that workload alone. Cells are blank where a
metric does not apply to a workload.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    rows: dict[str, dict[str, str]] = {}
    columns: dict[str, str] = {}  # metric name -> unit, in first-seen order
    machine = ""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        cells = rows.setdefault(name, {"correct": str(result["correct"]).lower()})
        for line in lines:
            kind, _, rest = line.partition(" ")
            if kind == "machine":
                info = json.loads(rest)
                machine = ", ".join(f"{k}={info[k]}" for k in ("nproc", "python", "numpy", "cpu"))
            elif kind == "metric":
                metric, value, unit = rest.split()[:3]
                columns.setdefault(metric, unit)
                cells[metric] = f"{float(value):.4g}"

    print(f"machine: {machine}")
    headers = ["workload", "correct"] + [f"{m} [{u}]" for m, u in columns.items()]
    table = [[name, cells["correct"]] + [cells.get(m, "") for m in columns]
             for name, cells in rows.items()]
    widths = [max(len(row[i]) for row in [headers] + table) for i in range(len(headers))]
    for row in [headers] + table:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return status


if __name__ == "__main__":
    sys.exit(main())
