"""Index maintenance: one segment rewrite behind addIndexes, expunge-deletes,
compaction and the splitters; add/update docs; reopen.

Every operation that derives new segments from committed ones only PLANS its
output segments and runs the one Ray task ``_rewrite_segment`` over the plan
(the SegmentMerger analog, reference Index/SegmentMerger.cs:89-176). An output
segment is a list of source segments, each with the local docIDs it drops;
the output's docIDs are the sources' live docs in order, densely re-based
(MappingMultiDocsEnum semantics, reference Codecs/MappingMultiDocsEnum.cs), so
docFreq / sumTotalTermFreq shrink to the live docs. A single source that
drops nothing is copied verbatim. The plan builders:

  add_indexes      IndexWriter.AddIndexes analog (reference Index/IndexWriter.cs
                   AddIndexes(Directory[])): every foreign segment verbatim,
                   re-based after the ones before it.
  split_index      IndexSplitter analog: contiguous runs of segments, each
                   part re-based from 0.
  expunge_deletes  IndexWriter.ForceMergeDeletes analog: each segment minus
                   its tombstoned docs.
  split_index_round_robin / split_index_by_filter
                   MultiPassIndexSplitter / PKIndexSplitter analogs: each
                   segment minus the docs another part keeps.
  compact_segments (tiered.py) TieredMergePolicy merges: runs of whole
                   segments into one.

Besides those:
  add_documents    IndexWriter.AddDocument flush analog: append one new
                   segment to a committed index (NRT-style small flush).
  update_documents IndexWriter.UpdateDocument analog (IndexWriter.cs:1801):
                   atomically delete-by-key then add the replacements.
  reopen           SearcherManager.MaybeRefresh analog (reference
                   Search/SearcherManager.cs): a new point-in-time Searcher
                   from the current committed manifest; cheap because
                   segments are immutable.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..state.index import IndexMeta, write_index_manifest

# weakest first: a rewritten segment keeps positions only if every source has them
_INDEX_OPTIONS = ("freqs", "positions", "offsets")


def _seg_meta_row(meta: dict) -> dict:
    return {
        "seg_id": meta["seg_id"],
        "doc_count": meta["doc_count"],
        "sum_ttf": meta["sum_ttf"],
        "term_count": meta["term_count"],
        "postings": meta.get("postings", 0),
        "postings_bytes": meta.get("postings_bytes", 0),
        "build_sec": meta.get("metrics", {}).get("build_sec", 0.0),
    }


def _cat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _live_postings(readers: list, lives: list[np.ndarray], with_pos: bool):
    """Decode each source's doc, frq and pos streams once, drop the postings
    of dead docs, renumber live docs densely in source order, and order all
    postings term-major. Returns (terms, codes, docs, tfs, pos_deltas) for
    ``write_terms_and_postings``. One stable sort by term code keeps each
    term's postings in source order, hence in new docID order (the order
    ``lexsort((docs, codes))`` gives); it is linear on one source, which is
    already sorted. A posting's position run is self-contained (its first
    delta is absolute), so the pos stream follows by a run-wise gather."""
    import pyarrow.compute as pc

    from ..functions import codec

    # union term dict: Arrow's string sort is UTF-8 byte order, the dict order
    denc = pa.concat_arrays([r.term_column for r in readers]).dictionary_encode()
    by_term = pc.sort_indices(denc.dictionary).to_numpy()
    vocab = denc.dictionary.take(by_term)
    rank = np.empty(by_term.size, dtype=np.int64)
    rank[by_term] = np.arange(by_term.size)
    term_code = rank[denc.indices.to_numpy(zero_copy_only=False)]

    codes, docs, tfs, pos, run_start = [], [], [], [], []
    first_term = doc_base = occ_base = 0
    for r, live in zip(readers, lives):
        n_terms = len(r.terms)
        if n_terms:
            df = r._df.astype(np.int64)
            post = r._post
            deltas = codec.vbyte_decode(post[: int(r._doc_off[-1] + r._doc_len[-1])]).astype(np.int64)
            tf = codec.vbyte_decode(
                post[int(r._frq_off[0]) : int(r._frq_off[-1] + r._frq_len[-1])]
            ).astype(np.int64)
            starts = np.concatenate(([0], np.cumsum(df)))[:-1]
            cum = np.cumsum(deltas)
            local = cum - np.repeat(cum[starts] - deltas[starts], df)
            keep = live[local]
            codes.append(np.repeat(term_code[first_term : first_term + n_terms], df)[keep])
            docs.append((np.cumsum(live) - 1 + doc_base)[local[keep]])
            tfs.append(tf[keep])
            if with_pos:
                p = codec.vbyte_decode(
                    post[int(r._pos_off[0]) : int(r._pos_off[-1] + r._pos_len[-1])]
                ).astype(np.int64)
                pos.append(p)
                run_start.append((occ_base + np.cumsum(tf) - tf)[keep])
                occ_base += p.size
        first_term += n_terms
        doc_base += int(live.sum())
    codes = _cat(codes)
    order = np.argsort(codes, kind="stable")
    codes, docs, tfs = codes[order], _cat(docs)[order], _cat(tfs)[order]
    present = np.zeros(by_term.size, dtype=bool)
    present[codes] = True
    pos_deltas = None
    if with_pos:
        run_off = np.cumsum(tfs) - tfs
        idx = np.repeat(_cat(run_start)[order] - run_off, tfs) + np.arange(int(tfs.sum()))
        pos_deltas = _cat(pos)[idx]
    return vocab.filter(pa.array(present)), (np.cumsum(present) - 1)[codes], docs, tfs, pos_deltas


def _rewrite_segment(batch: pa.Table) -> pa.Table:
    """One Ray task per output segment: write ``seg{new_id}`` under
    ``out_dir`` from the live docs of its sources (``sources[i]`` minus the
    local docIDs ``dead[i]``), docIDs from ``new_base``, and commit it like
    a build (resume-skip, fsynced meta.json, temp dir renamed into place).
    Returns the segments' manifest rows."""
    from ..state.segment import (
        SegmentReader,
        commit_segment_dir,
        committed_segment_meta,
        write_terms_and_postings,
    )

    out_rows = []
    for spec in batch.to_pylist():
        seg_name = f"seg{spec['new_id']:06d}"
        final_dir = os.path.join(spec["out_dir"], "segments", seg_name)
        meta = committed_segment_meta(final_dir)
        if meta is None:
            tmp = final_dir + f".tmp{os.getpid()}"
            os.makedirs(tmp, exist_ok=True)
            src_dirs = spec["sources"]
            readers = [SegmentReader(d) for d in src_dirs]
            lives = []
            docs_tbls = []
            for d, r, dead in zip(src_dirs, readers, spec["dead"]):
                live = np.ones(r.doc_count, dtype=bool)
                live[np.asarray(dead, dtype=np.int64)] = False
                lives.append(live)
                t = pq.read_table(os.path.join(d, "docs.parquet"))
                docs_tbls.append(t.filter(pa.array(live)) if dead else t)
            docs_tbl = pa.concat_tables(docs_tbls, promote_options="default")
            index_options = min(
                (r.meta.get("index_options", "freqs") for r in readers), key=_INDEX_OPTIONS.index
            )
            if len(readers) == 1 and not spec["dead"][0]:
                for f in ("terms.parquet", "postings.bin"):
                    shutil.copy2(os.path.join(src_dirs[0], f), os.path.join(tmp, f))
                enc = {k: readers[0].meta[k] for k in ("term_count", "postings", "postings_bytes")}
            else:
                terms, codes, docs, tfs, pos_deltas = _live_postings(
                    readers, lives, index_options != "freqs"
                )
                enc = write_terms_and_postings(
                    tmp,
                    uniq_terms=terms,
                    codes=codes,
                    docs_sorted=docs,
                    tfs_sorted=tfs,
                    pos_deltas=pos_deltas,
                    norms=docs_tbl.column("norm").to_numpy(),
                )
            n_docs = docs_tbl.num_rows
            docs_tbl = docs_tbl.set_column(
                docs_tbl.column_names.index("doc_id"),
                "doc_id",
                pa.array(spec["new_base"] + np.arange(n_docs, dtype=np.int64)),
            )
            pq.write_table(docs_tbl, os.path.join(tmp, "docs.parquet"))
            sum_ttf = int(docs_tbl.column("field_len").to_numpy().astype(np.int64).sum())
            meta = {
                **readers[0].meta,
                **enc,
                "seg_id": spec["new_id"],
                "name": seg_name,
                "doc_base": int(spec["new_base"]),
                "doc_count": n_docs,
                "sum_ttf": sum_ttf,
                "index_options": index_options,
                "lineage": spec["lineage"],
            }
            meta["metrics"] = {**meta.get("metrics", {}), "tokens": sum_ttf}
            commit_segment_dir(tmp, final_dir, meta)
        out_rows.append(_seg_meta_row(meta))
    return pa.Table.from_pylist(out_rows)


def _rewrite(out_dir: str, plan: list[dict]) -> list[dict]:
    """Run ``_rewrite_segment`` over a plan, one task per output segment.
    The plan lists the output segments in new seg_id order, each a dict of
    ``sources`` (segment dirs), ``n_docs`` (its live doc count),
    ``lineage`` and optionally ``dead`` (per source, the local docIDs it
    drops). Returns the new segments' manifest rows in seg_id order."""
    import ray.data

    specs = []
    new_base = 0
    for new_id, seg in enumerate(plan):
        specs.append(
            {"dead": [[] for _ in seg["sources"]], **seg,
             "new_id": new_id, "new_base": new_base, "out_dir": out_dir}
        )
        new_base += seg["n_docs"]
    os.makedirs(os.path.join(out_dir, "segments"), exist_ok=True)
    rows = (
        ray.data.from_items(specs)
        .map_batches(_rewrite_segment, batch_size=None, batch_format="pyarrow", num_cpus=1)
        .take_all()
    )
    return sorted(rows, key=lambda r: r["seg_id"])


def _commit_manifest(out_dir: str, like: IndexMeta, seg_rows: list[dict], **fields) -> IndexMeta:
    """Write ``out_dir``'s manifest over ``seg_rows``: analyzer, content
    column and index options from ``like``, then ``fields``."""
    write_index_manifest(
        out_dir,
        {
            "version": 1,
            "index_options": like.manifest.get("index_options", "freqs"),
            "analyzer": like.manifest.get("analyzer"),
            "content_column": like.manifest.get("content_column"),
            "segments": seg_rows,
            "max_doc": int(sum(r["doc_count"] for r in seg_rows)),
            "sum_ttf": int(sum(r["sum_ttf"] for r in seg_rows)),
            **fields,
        },
    )
    return IndexMeta(out_dir)


def add_indexes(out_dir: str, *source_indexes: str | IndexMeta) -> IndexMeta:
    """Combine several committed indexes into a new one (copy-based import).

    Segments are renumbered sequentially; docIDs are re-based by prefix sums
    over the source order (deterministic: sources in the order given, each
    source's segments in seg_id order). A source's tombstoned docs are not
    imported. Analyzer configs must match.
    """
    sources = [s if isinstance(s, IndexMeta) else IndexMeta(s) for s in source_indexes]
    if not sources:
        raise ValueError("no source indexes")
    analyzers = {json.dumps(s.manifest.get("analyzer"), sort_keys=True) for s in sources}
    if len(analyzers) != 1:
        raise ValueError("cannot add indexes with different analyzer configs")
    index_opts = {s.manifest.get("index_options", "freqs") for s in sources}
    plan = [
        {**seg, "lineage": {"imported_from": seg["sources"][0]}}
        for src in sources
        for seg in _keep_plan(src, _alive(src))
    ]
    return _commit_manifest(
        out_dir,
        sources[0],
        _rewrite(out_dir, plan),
        index_options=index_opts.pop() if len(index_opts) == 1 else "freqs",
        added_from=[s.index_dir for s in sources],
    )


def split_index(index_dir: str | IndexMeta, out_dirs: list[str]) -> list[IndexMeta]:
    """IndexSplitter analog (reference Misc/Index/IndexSplitter.cs): partition
    an index's segments contiguously into len(out_dirs) standalone indexes,
    re-basing docIDs per part (each part's docIDs restart at 0). Tombstoned
    docs are dropped, and so is a segment with no live doc."""
    src = index_dir if isinstance(index_dir, IndexMeta) else IndexMeta(index_dir)
    n_parts = len(out_dirs)
    seg_dirs = src.segment_dirs
    if n_parts < 1 or n_parts > len(seg_dirs):
        raise ValueError(f"cannot split {len(seg_dirs)} segments into {n_parts} parts")
    row_of = dict(zip(seg_dirs, src.manifest["segments"]))
    live = _keep_plan(src, _alive(src))
    # contiguous slices, sizes as even as possible
    base, extra = divmod(len(seg_dirs), n_parts)
    out = []
    i = 0
    for p, out_dir in enumerate(out_dirs):
        take = base + (1 if p < extra else 0)
        part = set(seg_dirs[i : i + take])
        plan = [
            {**seg, "lineage": {"split_from": seg["sources"][0]}}
            for seg in live
            if seg["sources"][0] in part
        ]
        i += take
        # keep the source row's extra keys (content_bytes, sort range)
        seg_rows = [
            {**row_of[seg["sources"][0]], **new} for seg, new in zip(plan, _rewrite(out_dir, plan))
        ]
        out.append(_commit_manifest(out_dir, src, seg_rows, split_from=src.index_dir))
    return out


def _keep_plan(src: IndexMeta, keep: np.ndarray) -> list[dict]:
    """Rewrite plan keeping only the sorted global docIDs ``keep``: each
    source segment with a kept doc becomes one output segment, minus the
    rest of its docs; segments with none are dropped."""
    plan = []
    base = 0
    for seg_dir, row in zip(src.segment_dirs, src.manifest["segments"]):
        count = row["doc_count"]
        lo, hi = np.searchsorted(keep, [base, base + count])
        if hi > lo:
            dead = np.setdiff1d(np.arange(count), keep[lo:hi] - base, assume_unique=True)
            plan.append(
                {"sources": [seg_dir], "dead": [dead.tolist()], "n_docs": int(hi - lo),
                 "lineage": {"expunged_from": seg_dir, "n_deleted": int(dead.size)}}
            )
        base += count
    return plan


def _alive(src: IndexMeta) -> np.ndarray:
    from ..state.deletes import load_deleted

    return np.setdiff1d(
        np.arange(src.max_doc, dtype=np.int64), load_deleted(src.index_dir), assume_unique=True
    )


def expunge_deletes(index_dir: str | IndexMeta, out_dir: str) -> IndexMeta:
    """Drop tombstoned docs from every segment, densely remapping docIDs.

    ForceMergeDeletes analog: 100%-deleted segments are dropped, surviving
    segments are renumbered, docIDs are re-based by prefix sums over live
    counts, and docFreq / ttf / sum_ttf shrink to the live corpus (authentic
    post-expunge Lucene statistics — idf changes are expected). Runs one Ray
    task per segment; each segment's dead local docIDs ship in its task's
    plan row (at extreme delete volumes this would become a Dataset join
    against the docs tables instead).
    """
    src = index_dir if isinstance(index_dir, IndexMeta) else IndexMeta(index_dir)
    alive = _alive(src)
    seg_rows = _rewrite(out_dir, _keep_plan(src, alive))
    return _commit_manifest(
        out_dir, src, seg_rows, expunged_from=src.index_dir, n_expunged=int(src.max_doc - alive.size)
    )


def add_documents(
    index_dir: str,
    table: pa.Table,
    *,
    stored_columns: tuple[str, ...] = (),
) -> IndexMeta:
    """Append one new segment to a committed index (NRT-style small flush).

    The analyzer / content column / index options come from the index's own
    manifest, so the new segment is guaranteed chain-compatible."""
    from ..functions.analysis import Analyzer
    from ..state.segment import build_segment

    src = IndexMeta(index_dir)
    cfg = src.manifest.get("analyzer") or {"kind": "standard"}
    analyzer = Analyzer(
        kind=cfg.get("kind", "standard"),
        stop_words=frozenset(cfg.get("stop_words", [])),
        max_token_length=cfg.get("max_token_length", 255),
        ascii_fold=cfg.get("ascii_fold", False),
    )
    new_id = 1 + max(r["seg_id"] for r in src.manifest["segments"]) if src.manifest["segments"] else 0
    meta = build_segment(
        table,
        seg_id=new_id,
        doc_base=src.max_doc,
        out_dir=os.path.join(index_dir, "segments"),
        analyzer=analyzer,
        content_column=src.manifest.get("content_column", "content"),
        stored_columns=stored_columns,
        index_options=src.manifest.get("index_options", "freqs"),
        lineage={"added_via": "add_documents"},
    )
    manifest = dict(src.manifest)
    manifest["segments"] = src.manifest["segments"] + [_seg_meta_row(meta)]
    manifest["max_doc"] = src.max_doc + meta["doc_count"]
    manifest["sum_ttf"] = src.sum_ttf + meta["sum_ttf"]
    write_index_manifest(index_dir, manifest)
    return IndexMeta(index_dir)


def update_documents(
    index_dir: str,
    table: pa.Table,
    key_column: str,
    *,
    stored_columns: tuple[str, ...] = (),
) -> dict:
    """UpdateDocument analog: tombstone every doc whose stored ``key_column``
    matches a key in ``table``, then append the replacements as a new segment
    (reference IndexWriter.cs:1801 UpdateDocument = delete-by-term + add).

    Requires ``key_column`` to have been a stored column at build time.
    Returns {"deleted": n, "added": n}."""
    src = IndexMeta(index_dir)
    keys = set(table.column(key_column).to_pylist())
    doomed: list[int] = []
    for seg_dir in src.segment_dirs:
        t = pq.read_table(os.path.join(seg_dir, "docs.parquet"), columns=["doc_id", key_column])
        mask = pa.compute.is_in(t.column(key_column), value_set=pa.array(sorted(keys)))
        doomed.extend(t.filter(mask).column("doc_id").to_pylist())
    if doomed:
        from ..state.deletes import write_deletes

        write_deletes(index_dir, doomed)
    cols = tuple(dict.fromkeys((key_column, *stored_columns)))
    add_documents(index_dir, table, stored_columns=cols)
    return {"deleted": len(doomed), "added": table.num_rows}


def reopen(index_dir: str, num_actors: int = 4, use_actors: bool = False):
    """Fresh point-in-time Searcher over the current committed manifest."""
    from .search import Searcher

    return Searcher(IndexMeta(index_dir), num_actors=num_actors, use_actors=use_actors)


def sort_index(
    input_path: str | list[str],
    out_dir: str,
    *,
    sort_field: str,
    descending: bool = False,
    target_rows_per_segment: int = 100_000,
    **build_kwargs,
) -> IndexMeta:
    """SortingMergePolicy analog (reference Index/Sorter/SortingMergePolicy.cs
    + SortingAtomicReader.cs): build the index in ``sort_field`` order. The
    Ray-Data expression is STRONGER than the reference's within-segment
    sort: one global ``ds.sort`` range-partitions the corpus, so segments
    are disjoint sort-key ranges and a sorted search can skip whole
    segments, not just early-terminate within one (the
    EarlyTerminatingSortingCollector.cs win, lifted to the segment level).

    The manifest records ``sorted_by`` and each segment's exact (min, max)
    key — first/last row of its docs table, exact because docs are written
    in sort order. ``sort_field`` is added to stored_columns automatically.
    """
    import pyarrow.parquet as pq
    import ray.data

    from .build import build_index

    stored = tuple(build_kwargs.pop("stored_columns", ()))
    if sort_field not in stored:
        stored = (*stored, sort_field)
    sorted_dir = os.path.join(out_dir, "_sorted_corpus")
    if not os.path.exists(os.path.join(sorted_dir, "_done")):
        os.makedirs(sorted_dir, exist_ok=True)
        ds = ray.data.read_parquet(input_path)
        ds.sort(sort_field, descending=descending).write_parquet(
            sorted_dir, row_group_size=target_rows_per_segment
        )
        with open(os.path.join(sorted_dir, "_done"), "w") as f:
            f.write("ok")
    meta = build_index(
        sorted_dir,
        out_dir,
        stored_columns=stored,
        target_rows_per_segment=target_rows_per_segment,
        **build_kwargs,
    )
    # exact per-segment key ranges: first/last row of the sorted docs table
    manifest = dict(meta.manifest)
    seg_rows = [dict(r) for r in manifest["segments"]]
    for d, row in zip(meta.segment_dirs, seg_rows):
        pf = pq.ParquetFile(os.path.join(d, "docs.parquet"))
        first = pf.read_row_group(0, columns=[sort_field]).column(sort_field)[0].as_py()
        last = pf.read_row_group(
            pf.metadata.num_row_groups - 1, columns=[sort_field]
        ).column(sort_field)[-1].as_py()
        pf.close()
        lo, hi = (last, first) if descending else (first, last)
        row["sort_min"], row["sort_max"] = lo, hi
    manifest["segments"] = seg_rows
    manifest["sorted_by"] = [sort_field, bool(descending)]
    write_index_manifest(out_dir, manifest)
    return IndexMeta(out_dir)


def split_index_round_robin(
    index_dir: str | IndexMeta, out_dirs: list[str]
) -> list[IndexMeta]:
    """MultiPassIndexSplitter analog (reference
    Misc/Index/MultiPassIndexSplitter.cs: N passes over the source, each
    keeping every Nth doc via negated-deletes views, then rewriting): part p
    keeps live docs with position % N == p; each part is one segment
    rewrite per source segment minus the docs it does not keep (the
    reference's N passes, parallelized)."""
    src = index_dir if isinstance(index_dir, IndexMeta) else IndexMeta(index_dir)
    n = len(out_dirs)
    if n < 1:
        raise ValueError("need at least one output")
    alive = _alive(src)
    return [_split_part(src, alive[p::n], out_dir) for p, out_dir in enumerate(out_dirs)]


def _split_part(src: IndexMeta, keep: np.ndarray, out_dir: str) -> IndexMeta:
    """One splitter output: ``src`` with only the global docIDs ``keep``."""
    seg_rows = _rewrite(out_dir, _keep_plan(src, keep))
    return _commit_manifest(out_dir, src, seg_rows, split_from=src.index_dir)


def split_index_by_filter(
    index_dir: str | IndexMeta, out_a: str, out_b: str, q
) -> tuple[IndexMeta, IndexMeta]:
    """PKIndexSplitter analog (reference Misc/Index/PKIndexSplitter.cs:
    partition one index into two by a query/filter — docs MATCHING ``q`` go
    to ``out_a``, the rest to ``out_b``, both densely renumbered with
    authentic post-split statistics).

    Plan: evaluate the filter once (per-segment scorers, membership only),
    then rewrite every segment twice, once minus the docs the other side
    keeps — the same rewrite ForceMergeDeletes runs, so remapping and stat
    shrinkage are already tested. The matching-id array is the only
    driver-resident state (8 bytes/doc; the reference's per-segment bitset
    equivalent)."""
    from .search import Searcher

    src = index_dir if isinstance(index_dir, IndexMeta) else IndexMeta(index_dir)
    s = Searcher(src, use_actors=False)
    matching = np.unique(
        np.array([d for d, _ in s.scored_docs(q)], dtype=np.int64)
    )
    alive = _alive(src)
    match_alive = np.intersect1d(matching, alive, assume_unique=True)
    rest_alive = np.setdiff1d(alive, match_alive, assume_unique=True)
    return _split_part(src, match_alive, out_a), _split_part(src, rest_alive, out_b)
