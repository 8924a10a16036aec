"""In-process segment-build micro-benchmark on perfbench's index corpora.

Builds perfbench's warm corpus, then the ``index`` workload's pass corpora
for ``--seed`` in the workload's order (perfbench/gen.py and
perfbench/workloads.py: the benchmark's own corpus parameters, seeds and
rows per segment), each shard through ``build_segment`` in this process, so
the analyzer's memo caches see the corpora in the order a build worker does.
Prints, per corpus, the ms per segment and the build layers each segment's
``meta.json`` records (analysis / invert / write), then one md5 over every
segment file except ``meta.json``. A change to the build must leave that md5
as it is. Run from the root of a checkout:

    python tools/bench_build.py [--seed 1] [--work DIR]
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
import workloads  # noqa: E402  (the benchmark's corpora and segment size)

LAYERS = ("analysis_sec", "invert_sec", "write_sec")


def _corpora(cache: str, seed: int) -> list[tuple[str, str, int]]:
    """(label, corpus dir, rows per segment): the warm corpus, then the
    pass corpora, the main seed's last, as ``IndexWorkload`` runs them."""
    _c, warm_dir = gen.cached_corpus(cache, workloads.WARM_CORPUS, seed + workloads.WARM_SEED_OFFSET)
    out = [("warm", warm_dir, workloads.WARM_ROWS_PER_SEGMENT)]
    for p in range(workloads.INDEX_PASSES - 1, -1, -1):
        pass_seed = seed + p * workloads.PASS_SEED_OFFSET
        _c, d = gen.cached_corpus(cache, workloads.CORPUS, pass_seed)
        out.append((f"pass seed {pass_seed}", d, workloads.ROWS_PER_SEGMENT))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--work", default=None, help="directory for the corpus cache and segments (default: a temp dir)")
    args = ap.parse_args()

    import pyarrow as pa

    from lucene_net_ray.functions.analysis import Analyzer
    from lucene_net_ray.sources.sharding import plan_shards, read_shard
    from lucene_net_ray.state.segment import build_segment

    pa.set_cpu_count(1)  # as a build task runs
    work = args.work or tempfile.mkdtemp(prefix="bench_build_")
    digest = hashlib.md5()
    try:
        corpora = _corpora(os.path.join(work, "corpus"), args.seed)
        analyzer = Analyzer()
        for c_i, (label, corpus_dir, rows) in enumerate(corpora):
            out_dir = os.path.join(work, "segments", str(c_i))
            shutil.rmtree(out_dir, ignore_errors=True)
            metas = []
            t0 = time.perf_counter()
            for shard in plan_shards(corpus_dir, target_rows=rows):
                row = shard.to_row()
                metas.append(build_segment(
                    read_shard(row, columns=["content"]), seg_id=row["shard_id"],
                    doc_base=row["doc_base"], out_dir=out_dir, analyzer=analyzer,
                ))
            wall = time.perf_counter() - t0
            layers = "  ".join(  # a build older than the layer metrics records none
                f"{k[:-4]} {sum(m['metrics'][k] for m in metas) * 1e3 / len(metas):.0f}"
                for k in LAYERS if k in metas[0]["metrics"]
            )
            print(f"{label}: {len(metas)} segments  {wall * 1e3 / len(metas):.0f} ms per segment  "
                  f"(meta.json ms per segment: {layers or 'none'})")
            for m in metas:
                seg_dir = os.path.join(out_dir, m["name"])
                for f in sorted(os.listdir(seg_dir)):
                    if f != "meta.json":
                        with open(os.path.join(seg_dir, f), "rb") as fh:
                            digest.update(f"{c_i}/{m['name']}/{f}:".encode() + fh.read())
        print(f"segment files md5 {digest.hexdigest()}")
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
        else:
            shutil.rmtree(os.path.join(work, "segments"), ignore_errors=True)


if __name__ == "__main__":
    main()
