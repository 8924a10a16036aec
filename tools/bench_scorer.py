"""In-process scorer micro-benchmark on perfbench's serve_bulk queries.

Builds perfbench's corpus for ``--seed`` (perfbench/gen.py, the benchmark's
own corpus parameters), indexes it with ``build_index`` into 2-segment
shards as the benchmark does, then times ``Searcher(use_actors=False)
.batch_search`` over the serve_bulk queries in batches of 32. Prints the
best-of-``--reps`` wall time, the ms per batch and an md5 of every (query,
doc, score) result, so a scorer change can be A/B-timed and checked for
identical results without a full benchmark run. The same md5 over
per-query ``Searcher.search`` must match the batch one; the script exits 1
when it does not. Run from the root of a checkout:

    python tools/bench_scorer.py [--seed 1] [--queries 800] [--reps 3]
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402
import workloads  # noqa: E402  (the benchmark's corpus and serving settings)


def _md5(parsed: list, hits: dict) -> str:
    """md5 of every (query, doc, repr(score)) of ``hits``, in query order."""
    h = hashlib.md5()
    for name, _q in parsed:
        h.update(f"{name}:{[(d, repr(s)) for d, s in hits[name]]}\n".encode())
    return h.hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--queries", type=int, default=800)
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--work", default=None, help="directory for the corpus cache and index (default: a temp dir)")
    args = ap.parse_args()

    import ray

    from lucene_net_ray.pipelines.build import build_index
    from lucene_net_ray.pipelines.search import Searcher
    from lucene_net_ray.query import parse_query

    work = args.work or tempfile.mkdtemp(prefix="bench_scorer_")
    try:
        corpus, corpus_dir = gen.cached_corpus(os.path.join(work, "corpus"), workloads.CORPUS, args.seed)
        qs = gen.bulk_queries(gen.term_pools(corpus), workloads.BULK_BATCH + args.queries, args.seed)
        qs = qs[workloads.BULK_BATCH :]  # the ones serve_bulk measures
        index_dir = os.path.join(work, "index")
        shutil.rmtree(index_dir, ignore_errors=True)
        ray.init(num_cpus=1, include_dashboard=False, log_to_driver=False, object_store_memory=256 << 20)
        try:
            meta = build_index(corpus_dir, index_dir, target_rows_per_segment=workloads.ROWS_PER_SEGMENT)
        finally:
            ray.shutdown()

        parsed = [(str(i), parse_query(q)) for i, q in enumerate(qs)]
        b = workloads.BULK_BATCH
        best = float("inf")
        digest = None
        for _ in range(args.reps):
            searcher = Searcher(meta, num_actors=workloads.NUM_GROUPS, use_actors=False)
            searcher._df_table  # noqa: B018  (the one-off term-table load stays out of the timing)
            t0 = time.perf_counter()
            hits = {}
            for lo in range(0, len(parsed), b):
                hits.update(searcher.batch_search(parsed[lo : lo + b], k=workloads.K))
            best = min(best, time.perf_counter() - t0)
            rep_digest = _md5(parsed, hits)
            if digest is not None and rep_digest != digest:
                raise SystemExit("results differ between repetitions")
            digest = rep_digest
        per_query = _md5(parsed, {name: searcher.search(q, k=workloads.K) for name, q in parsed})
        print(f"queries {len(qs)}  batch {b}  best of {args.reps}: {best:.3f} s  "
              f"({len(qs) / best:.0f} q/s, {best * 1e3 * b / len(qs):.2f} ms per batch)  results md5 {digest}  "
              f"per-query md5 {per_query}")
        if per_query != digest:
            print("batch_search and per-query search differ", file=sys.stderr)
            sys.exit(1)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
