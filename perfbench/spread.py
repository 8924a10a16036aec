"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads serve_point,serve_bulk --seeds 1-10 --seconds 5

runs each workload once per seed, each run a fresh process, and prints per
metric the median and the quartile spread (Q3 - Q1) / median, with the
quartiles from ``statistics.quantiles(values, n=4)``. Every raw result is
appended to ``--out`` (JSON lines) as it arrives.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--out", default=os.path.join(ROOT, ".pbtrace", "spread.jsonl"))
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    os.makedirs(os.path.dirname(a.out), exist_ok=True)
    rc = 0
    for w in a.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for s in seeds(a.seeds):
            t0 = time.perf_counter()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(s),
                 "--seconds", str(a.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
            )
            walls.append(time.perf_counter() - t0)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                print(f"{w} seed {s}: exit {p.returncode}", flush=True)
                rc = 1
                continue
            res = json.loads(lines[-1])
            with open(a.out, "a") as f:
                f.write(json.dumps({"workload": w, "seed": s, "wall_s": walls[-1], **res}) + "\n")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {len(walls)} runs, wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / med
            else:
                spread = float("nan")
            b = bounds.get(name)
            flag = "" if b is None or spread <= b / 3 else ("  > bound/3" if spread <= b else "  > BOUND")
            print(f"  {name:<20} median {med:>12.4f}  spread {spread:7.4f}  bound {b}{flag}", flush=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
