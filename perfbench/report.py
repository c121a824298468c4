#!/usr/bin/env python3
"""Run the benchmark on several workloads and seeds and print one table.

    python3 perfbench/report.py --seeds 1 2 3 --seconds 20
    python3 perfbench/report.py --workloads cli --seeds 1 --trace 1

Each run is a separate ``run.py`` process, one at a time.  For every workload
and metric the table gives the median over seeds, the quartiles and the
spread (interquartile distance over median) next to the bound that
BENCHMARK.json fixes.  The table also goes to ``perfbench/out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {}
    status = 0
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                status = 1
            runs.append(result)
            print(f"{w} seed {seed}: attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr)
        if not runs:
            continue
        print(f"\n== {w} ({len(runs)} runs) ==")
        print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s} unit")
        table = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            table[name] = {"values": values, "median": med, "q1": q1, "q3": q3, "spread": spread,
                           "unit": first["unit"], "bound": bounds.get(name)}
            bound = "" if bounds.get(name) is None else f"{bounds[name]:.2f}"
            print(f"{name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:>6s} {first['unit']}")
        report[w] = table
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
