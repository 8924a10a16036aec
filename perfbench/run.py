"""Benchmark entry point.

One run:

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 6 --trace 0

prints progress on stderr and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run (spans written to ``.pbtrace/`` in the checkout). A failed output check
makes ``correct`` false and the exit code 1.

Every workload, one after another, with a table of every metric:

    python3 perfbench/run.py --workload all --seed 1 --seconds 6

Run from the root of a checkout; the engine is imported from there.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CAP_S = 170
WORKLOAD_NAMES = ["index", "serve_point", "serve_bulk"]


def log(msg: str) -> None:
    print(f"[perfbench {time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> int:
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)
    try:
        import lucene_net_ray.pipelines.build  # noqa: F401
    except ImportError as e:
        log(f"cannot import the engine from {ROOT}: {e}")
        return 3
    import harness
    import workloads

    t_run = time.perf_counter()
    lock = open(os.path.join(ROOT, ".pbw.lock"), "w")
    deadline = time.monotonic() + 60
    while True:  # one run at a time per checkout: runs share .pbw/
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            break
        except BlockingIOError:
            if time.monotonic() > deadline:
                log("another benchmark run holds .pbw.lock")
                return 1
            time.sleep(0.5)
    wl = workloads.WORKLOADS[workload](ROOT, os.path.join(ROOT, ".pbw"), seed, seconds)
    log(f"{workload}: corpus ready ({wl.corpus.max_doc} docs, {wl.corpus.distinct_terms} terms)")
    crashed = None
    try:
        with harness.RayRun(wl.work, CAP_S - (time.perf_counter() - t_run)) as rr:
            rr.settle()
            log(f"ray up in {rr.boot_s:.2f} s, settled after {rr.settle_s:.2f} s")
            wl.run(rr, traced, log)
            if traced:
                wl.metrics["ray.boot_s"] = rr.boot_s
                os.makedirs(os.path.join(ROOT, ".pbtrace"), exist_ok=True)
                wl.tracer.write(os.path.join(ROOT, ".pbtrace", f"{workload}-{seed}.jsonl"))
    except Exception as e:  # the run is over; report it as failed
        crashed = f"{type(e).__name__}: {e}"
        traceback.print_exc(file=sys.stderr)
    for err in wl.errors:
        log(f"CHECK FAILED {err}")
    if crashed:
        log(f"RUN FAILED {crashed}")
        return 1
    names = workloads.PER_LAYER if traced else workloads.END_TO_END
    if traced:
        for name in names:
            wl.metrics.setdefault(name, 0.0)  # layers this workload leaves idle
    missing = [n for n in names if n not in wl.metrics]
    if missing:
        log(f"RUN FAILED metrics not measured: {missing}")
        return 1
    log(f"inputs {json.dumps(wl.inputs)}")
    if traced:
        report_layers(wl)
    result = {
        "correct": wl.failed == 0,
        "attempted": max(1, wl.attempted),
        "failed": wl.failed,
        "metrics": {n: {"value": float(wl.metrics[n]), "unit": u} for n, u in names.items()},
    }
    log(f"{workload} done in {time.perf_counter() - t_run:.1f} s, error_ratio "
        f"{wl.failed / max(1, wl.attempted):.4f} ({wl.failed}/{wl.attempted})")
    print(json.dumps(result), flush=True)
    return 0 if wl.failed == 0 else 1


def report_layers(wl) -> None:
    """Self time, count and share of the traced phase per span name."""
    st, tot, cnt = wl.tracer.self_times(), wl.tracer.totals(), wl.tracer.counts()
    roots = sum(s.end - s.start for s in wl.tracer.spans if s.parent is None)
    log(f"{'span':<22}{'count':>7}{'total_s':>10}{'self_s':>10}{'self/roots':>11}")
    for name in sorted(st, key=lambda n: -st[n]):
        log(f"{name:<22}{cnt[name]:>7}{tot[name]:>10.4f}{st[name]:>10.4f}{st[name] / max(roots, 1e-9):>11.3f}")


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own process; a table of every metric."""
    rc = 0
    rows = []
    for w in WORKLOAD_NAMES:
        for t in ([0, 1] if traced else [0]):
            p = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(t)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                rc = 1
                rows.append((w, "FAILED", f"exit {p.returncode}", ""))
                continue
            res = json.loads(lines[-1])
            ratio = res["failed"] / res["attempted"]
            rows.append((w, "error_ratio", f"{ratio:.4f}", f"{res['failed']}/{res['attempted']}"))
            for name, m in res["metrics"].items():
                rows.append((w, name, f"{m['value']:.4f}", m["unit"]))
    for r in rows:
        print(f"{r[0]:<14}{r[1]:<26}{r[2]:>16}  {r[3]}")
    return rc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.workload == "all":
        return run_all(a.seed, a.seconds, bool(a.trace))
    return run_one(a.workload, a.seed, a.seconds, bool(a.trace))


if __name__ == "__main__":
    sys.exit(main())
