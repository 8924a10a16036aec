"""Index build pipeline: Parquet corpus -> inverted segments, via Ray Data.

Reference lifecycle being re-expressed (SURVEY.md §3.1): documents ->
thread-private DWPT builders -> flush -> commit. Here: deterministic shards
(`sources.sharding`) -> Dataset of shard descriptors -> ``map_batches`` of
stateless segment-build tasks -> per-segment committed directories -> one
atomic index manifest. Ray's streaming executor provides the backpressure
that DocumentsWriterStallControl hand-rolls
(/root/reference/src/Lucene.Net.Core/Index/DocumentsWriterStallControl.cs:58-75).

Resume: a shard whose segment directory already has a committed ``meta.json``
is skipped (its meta is returned from the checkpoint instead of rebuilding) —
the analog of `segments_N` generations + IndexFileDeleter ref-counting
(/root/reference/src/Lucene.Net.Core/Index/IndexWriter.cs:3532-3777).
"""

from __future__ import annotations

import json
import os
import time

import pyarrow as pa
import ray
import ray.data

from ..functions.analysis import Analyzer
from ..sources.sharding import plan_shards, read_shard
from ..state.index import IndexMeta, write_index_manifest
from ..state.segment import build_segment


def _build_segment_task(
    batch: pa.Table,
    *,
    out_dir: str,
    analyzer_kind: str,
    content_column: str,
    stored_columns: tuple[str, ...],
    index_options: str = "freqs",
    store_term_vectors: bool = False,
    analyzer_obj=None,
    payload_delimiter: str | None = None,
) -> pa.Table:
    """Stateless map_batches task: each input row describes one shard.

    The build is partition-private (DWPT analog) so plain tasks beat an actor
    pool here: no per-stage actor startup, and a task keeps no state worth
    an actor. Each shard's token dictionary is analyzed in Arrow
    (``analyze_token_dictionary``); only the few tokens outside its class
    reach the Python lexer, whose module-level memo caches outlive a task
    within a Ray worker process. Analyzer construction is microseconds.
    """
    # each task is scheduled at num_cpus=1 — pyarrow's default per-process
    # thread pool (= all cores) would oversubscribe the node N-fold across
    # concurrent tasks (measured 6-10x per-task slowdown); pin it to 1
    if pa.cpu_count() != 1:
        pa.set_cpu_count(1)
    analyzer = analyzer_obj if analyzer_obj is not None else Analyzer(kind=analyzer_kind)
    metas = []
    for row in batch.to_pylist():
        needed = sorted({content_column, *stored_columns})  # prune at the read
        tbl = read_shard(row, columns=needed)
        meta = build_segment(
            tbl,
            seg_id=row["shard_id"],
            doc_base=row["doc_base"],
            out_dir=os.path.join(out_dir, "segments"),
            analyzer=analyzer,
            content_column=content_column,
            stored_columns=stored_columns,
            index_options=index_options,
            store_term_vectors=store_term_vectors,
            payload_delimiter=payload_delimiter,
            lineage={
                "path": row["path"],
                "row_groups": list(row["row_groups"]),
                "num_rows": row["num_rows"],
            },
        )
        metas.append(
            {
                "seg_id": meta["seg_id"],
                "doc_count": meta["doc_count"],
                "sum_ttf": meta["sum_ttf"],
                "term_count": meta["term_count"],
                "postings": meta["postings"],
                "postings_bytes": meta["postings_bytes"],
                "content_bytes": meta.get("content_bytes", 0),
                "build_sec": meta["metrics"]["build_sec"],
            }
        )
    return pa.Table.from_pylist(metas)


def build_index(
    input_path: str | list[str],
    out_dir: str,
    *,
    content_column: str = "content",
    stored_columns: tuple[str, ...] = (),
    analyzer_kind: str = "standard",
    analyzer: object | None = None,
    target_rows_per_segment: int = 100_000,
    concurrency: int | None = None,
    index_options: str = "freqs",
    store_term_vectors: bool = False,
    payload_delimiter: str | None = None,
) -> IndexMeta:
    """Build (or resume) an index from a Parquet corpus. Returns IndexMeta.

    ``analyzer`` accepts a configured Analyzer / ChainAnalyzer / NGramAnalyzer
    INSTANCE (pickled into the build tasks) — for chains the simple
    ``analyzer_kind`` string cannot express; it overrides analyzer_kind."""
    t0 = time.perf_counter()
    if payload_delimiter is not None and index_options not in ("positions", "offsets"):
        raise ValueError("payload_delimiter requires index_options='positions' or 'offsets'")
    os.makedirs(os.path.join(out_dir, "segments"), exist_ok=True)
    shards = plan_shards(input_path, target_rows=target_rows_per_segment)
    if not shards:
        raise ValueError(f"no parquet input under {input_path}")

    # one block per shard -> one build task per segment, scheduled/backpressured
    # by the streaming executor; `concurrency` optionally caps in-flight tasks.
    # Default cap: ~75% of cluster CPUs — raylet/object-store/driver processes
    # need headroom, and full oversubscription measured 1.5-2x slower walls.
    if concurrency is None:
        try:
            cpus = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            cpus = 8
        if cpus >= 16:
            concurrency = max(8, cpus - 4)
    # from_items already yields one block per shard descriptor -> one build
    # task per segment; no repartition needed
    ds = ray.data.from_items([s.to_row() for s in shards])
    seg_rows = ds.map_batches(
        _build_segment_task,
        fn_kwargs={
            "out_dir": out_dir,
            "analyzer_kind": analyzer_kind,
            "analyzer_obj": analyzer,
            "content_column": content_column,
            "stored_columns": tuple(stored_columns),
            "index_options": index_options,
            "store_term_vectors": store_term_vectors,
            "payload_delimiter": payload_delimiter,
        },
        batch_size=None,
        batch_format="pyarrow",
        num_cpus=1,
        **({"concurrency": concurrency} if concurrency else {}),
    ).take_all()

    seg_rows.sort(key=lambda r: r["seg_id"])
    manifest = {
        "version": 1,
        "index_options": index_options,
        "payload_delimiter": payload_delimiter,
        "analyzer": (analyzer.config() if analyzer is not None else Analyzer(kind=analyzer_kind).config()),
        "content_column": content_column,
        "segments": seg_rows,
        "max_doc": int(sum(r["doc_count"] for r in seg_rows)),
        "content_bytes": int(sum(r.get("content_bytes", 0) for r in seg_rows)),
        "sum_ttf": int(sum(r["sum_ttf"] for r in seg_rows)),
        "build_sec": round(time.perf_counter() - t0, 4),
    }
    write_index_manifest(out_dir, manifest)
    return IndexMeta(out_dir)


def build_index_from_table(table: pa.Table, out_dir: str, **kwargs) -> IndexMeta:
    """Convenience for tests: write the table to parquet, then build."""
    import pyarrow.parquet as pq

    src = os.path.join(out_dir, "_corpus")
    os.makedirs(src, exist_ok=True)
    # row groups sized to the segment target: shard planning is row-group
    # granular, so a single huge row group would defeat target_rows_per_segment
    rg = kwargs.get("target_rows_per_segment", 100_000)
    pq.write_table(table, os.path.join(src, "corpus.parquet"), row_group_size=rg)
    return build_index(src, out_dir, **kwargs)
