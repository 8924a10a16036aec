"""Segment merge — the one true shuffle (SURVEY.md §2.5, §7.4).

Reference analog: SegmentMerger's k-way merge of sorted TermsEnums with docID
remapping (/root/reference/src/Lucene.Net.Core/Index/SegmentMerger.cs:89-176)
driven by TieredMergePolicy. Because per-segment docID ranges are disjoint and
ordered (doc_base prefix sums), a term's merged posting list is the
concatenation of its per-segment lists in segment order — no re-sort, just an
O(1) splice of each chunk's first vByte delta (codec.splice_first_delta) and a
block-directory rebase.

Physical plan (round 2 — scale-safe serving):
  map side    one task per segment emits (term, bucket, blobs, blocks) rows.
              Blobs are ZERO-COPY Arrow LargeBinary slices of the mmap'd
              postings file (offsets reused from the term dict — no per-term
              Python loop), first-docids decoded by a vectorized varint scan.
  shuffle     ``sort(term, bucket, seg_id)`` — Ray Data's sort range-
              partitions on sampled term boundaries, so output blocks are
              DISJOINT TERM RANGES in global order (the TieredMergePolicy
              budget is the bucket_size cap on chunk width).
  reduce      consecutive (term, bucket) runs within each sorted block are
              spliced into one chunk row; runs crossing block boundaries stay
              as separate chunk rows (the reader concatenates chunks in
              (bucket, first_seg) order, which is docID order).
  write       the sorted-parts store (state/sorted_parts.py): one Parquet
              part file per output block, renamed into place, + per-part
              [min, max] entries in the manifest — the reader bisects them
              and reads ONLY matching row groups per term, so serving
              memory is O(1 part), never O(index).

Skew handling (head terms like 'public'/'import' with df ~ corpus size):
the key is (term, bucket) with bucket = seg_id // bucket_size, so no reduce
row ever holds more than ``bucket_size`` segments' worth of one term's
postings; head terms stay SHARDED as multiple chunk rows and are consumed
chunk-wise. This is the explicit answer to "a head posting list must never
sit in one reduce task" (SURVEY.md §4 skew row).

Global term statistics (df/ttf summed across segments) use the same map side
without blobs via ``global_term_stats`` (small rows only).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions import codec
from ..state.index import IndexMeta, write_index_manifest
from ..state.segment import FifoCache, SegmentReader, postings_elems
from ..state.sorted_parts import SortedParts, covering, write_sorted_parts
from .search import SERVING_ACTOR_OPTIONS, Searcher, _SegmentGroup


def _blob_array(buf: np.ndarray, offs: np.ndarray, lens: np.ndarray) -> pa.LargeBinaryArray:
    """Zero-copy LargeBinaryArray of per-term stream slices.

    Relies on the segment layout invariant that each stream family is
    contiguous in term order (offs[i] + lens[i] == offs[i+1]), so the term
    dict's offset arrays double as Arrow binary offsets into the mmap'd file.
    """
    n = offs.size
    offsets = np.zeros(n + 1, dtype=np.int64)
    if n:
        assert np.array_equal(offs[1:], offs[:-1] + lens[:-1]), "streams not contiguous"
        offsets[:n] = offs
        offsets[n] = offs[-1] + lens[-1]
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n, [None, pa.py_buffer(offsets), pa.py_buffer(buf)]
    )


def _first_varints(buf: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Vectorized decode of the FIRST vByte value at each offset (the first
    doc-delta of each term's stream = its first local docID)."""
    out = np.zeros(offs.size, dtype=np.uint64)
    active = np.arange(offs.size)
    k = 0
    while active.size:
        b = buf[offs[active] + k]
        out[active] |= (b & np.uint64(0x7F)).astype(np.uint64) << np.uint64(7 * k)
        active = active[(b & 0x80) != 0]
        k += 1
    return out.astype(np.int64)


def _empty_blob_array(n: int) -> pa.LargeBinaryArray:
    return pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        n,
        [None, pa.py_buffer(np.zeros(n + 1, dtype=np.int64)), pa.py_buffer(np.empty(0, dtype=np.uint8))],
    )


def _segment_term_rows(batch: pa.Table, *, with_blobs: bool, bucket_size: int = 8) -> pa.Table:
    """flat_map one segment-descriptor row -> one row per term in the segment.

    Fully vectorized: blobs are zero-copy slices, first/last docids come from
    a vectorized varint scan and the block directory's list offsets.
    """
    out_tables = []
    for row in batch.to_pylist():
        seg_dir = row["seg_dir"]
        r = SegmentReader(seg_dir)
        n = len(r.terms)
        if n == 0:
            continue
        terms_arr = r._terms
        cols: dict = {
            "term": terms_arr,
            "seg_id": pa.array(np.full(n, row["seg_id"], dtype=np.int64)),
            "bucket": pa.array(np.full(n, row["seg_id"] // bucket_size, dtype=np.int64)),
            "df": pa.array(r.df_array.astype(np.int64)),
            "ttf": pa.array(r.ttf_array.astype(np.int64)),
        }
        if with_blobs:
            post = r._post
            doc_off = r._doc_off.astype(np.int64)
            doc_len = r._doc_len.astype(np.int64)
            base = row["doc_base"]
            first_docs = _first_varints(post, doc_off)
            blk_last = pq.read_table(
                os.path.join(seg_dir, "terms.parquet"), columns=["blk_last_doc"]
            ).column("blk_last_doc").combine_chunks()
            if isinstance(blk_last, pa.ChunkedArray):
                blk_last = blk_last.combine_chunks()
            blk_offs = blk_last.offsets.to_numpy()
            blk_flat = blk_last.flatten().to_numpy()
            last_docs = blk_flat[blk_offs[1:] - 1]
            if r.has_positions:
                pos_arr = _blob_array(post, r._pos_off.astype(np.int64), r._pos_len.astype(np.int64))
            else:
                pos_arr = _empty_blob_array(n)
            cols.update(
                {
                    "doc_blob": _blob_array(post, doc_off, doc_len),
                    "frq_blob": _blob_array(post, r._frq_off.astype(np.int64), r._frq_len.astype(np.int64)),
                    "pos_blob": pos_arr,
                    "first_doc": pa.array(first_docs + base),
                    "last_doc": pa.array(last_docs + base),
                    "blk_last_doc": _rebase_list(blk_last, base),
                    "blk_doc_boff": _list_col(r, "blk_doc_boff"),
                    "blk_frq_boff": _list_col(r, "blk_frq_boff"),
                    "blk_max_tf": _list_col(r, "blk_max_tf"),
                    "blk_min_normb": _list_col(r, "blk_min_normb"),
                }
            )
        out_tables.append(pa.table(cols))
    return pa.concat_tables(out_tables) if out_tables else pa.table({})


def _list_col(r: SegmentReader, name: str):
    arr = r._blocks_tbl.column(name).combine_chunks()
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return arr


def _rebase_list(chunked, base: int):
    arr = chunked.combine_chunks() if isinstance(chunked, pa.ChunkedArray) else chunked
    flat = pa.compute.add(arr.flatten(), base)
    return pa.ListArray.from_arrays(arr.offsets, flat)


def global_term_stats(index: IndexMeta) -> ray.data.Dataset:
    """(term, df, ttf) summed across segments via a groupby(term) shuffle.

    Rows are small (no posting blobs): each segment's term table is already
    per-term pre-aggregated, so this is the cheapest possible exchange.
    """
    seg_rows = [
        {"seg_dir": d, "seg_id": r["seg_id"], "doc_base": 0}
        for d, r in zip(index.segment_dirs, index.manifest["segments"])
    ]
    ds = ray.data.from_items(seg_rows).repartition(len(seg_rows))
    terms = ds.map_batches(
        _segment_term_rows, fn_kwargs={"with_blobs": False}, batch_format="pyarrow", batch_size=None
    )
    agg = terms.groupby("term").sum(["df", "ttf"])
    return agg.rename_columns({"sum(df)": "df", "sum(ttf)": "ttf"})


def high_freq_terms(index: IndexMeta, k: int = 20) -> ray.data.Dataset:
    """Top-k terms by document frequency (HighFreqTerms analog,
    /root/reference/src/Lucene.Net.Misc/Misc/HighFreqTerms.cs) — also the
    skew-detection probe for merge bucketing."""
    stats = global_term_stats(index)
    return stats.sort(["df", "term"], descending=[True, False]).limit(k)


def _one_chunk(arr):
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if isinstance(arr, pa.ChunkedArray):  # older pyarrow returns 1-chunk ChunkedArray
        arr = arr.chunk(0) if arr.num_chunks else pa.array([], type=arr.type)
    return arr


def _ragged_indices(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat index array [starts[0]..starts[0]+lens[0]) ++ [starts[1]..) ...
    — the vectorized variable-length gather/scatter primitive."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    excl = np.concatenate(([0], np.cumsum(lens)[:-1]))
    return np.repeat(starts - excl, lens) + np.arange(total, dtype=np.int64)


def _merge_sorted_batch(batch: pa.Table) -> pa.Table:
    """Splice consecutive (term, bucket) runs of a SORTED block into chunk
    rows. The sort guarantees blocks are disjoint term ranges; a run that
    crosses a block boundary simply yields one chunk row per side.

    Fully vectorized (round 3): run boundaries come from a shifted term
    compare, blob concatenation per run is a zero-copy re-offsetting of the
    Arrow binary buffer (consecutive rows ARE the concatenation), and only
    the first vByte of each chunk's doc stream is rewritten — via one
    vectorized varint encode + two ragged scatters — mirroring
    codec.splice_first_delta's O(1)-per-chunk rebase without ever
    materializing Python rows (SegmentMerger.cs:89-176 splice semantics).
    """
    if batch.num_rows == 0:
        return batch
    n = batch.num_rows
    term = _one_chunk(batch.column("term")).to_numpy(zero_copy_only=False)
    bucket = _one_chunk(batch.column("bucket")).to_numpy()
    seg_id = _one_chunk(batch.column("seg_id")).to_numpy()
    df = _one_chunk(batch.column("df")).to_numpy()
    ttf = _one_chunk(batch.column("ttf")).to_numpy()
    first_doc = _one_chunk(batch.column("first_doc")).to_numpy()
    last_doc = _one_chunk(batch.column("last_doc")).to_numpy()

    is_start = np.ones(n, dtype=bool)
    if n > 1:
        is_start[1:] = (term[1:] != term[:-1]) | (bucket[1:] != bucket[:-1])
    run_start = np.flatnonzero(is_start)
    edges = np.append(run_start, n)
    run_id = np.cumsum(is_start) - 1  # row -> run

    def _bin_bufs(name):
        arr = _one_chunk(batch.column(name))
        offs = np.frombuffer(arr.buffers()[1], dtype=np.int64)[
            arr.offset : arr.offset + len(arr) + 1
        ]
        buf = arr.buffers()[2]
        data = np.frombuffer(buf, dtype=np.uint8) if buf is not None else np.empty(0, np.uint8)
        return offs, data

    # frq/pos: per-run concat == slice of the shared data buffer (zero-copy)
    frq_offs, frq_data = _bin_bufs("frq_blob")
    pos_offs, pos_data = _bin_bufs("pos_blob")

    def _runs_binary(offs, data):
        new_offs = np.ascontiguousarray(offs[edges])
        return pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), run_start.size, [None, pa.py_buffer(new_offs), pa.py_buffer(data)]
        )

    # doc: rewrite each chunk's FIRST varint (absolute for the run head,
    # gap-from-previous-chunk for the rest), reuse every other byte
    doc_offs, doc_data = _bin_bufs("doc_blob")
    row_len = doc_offs[1:] - doc_offs[:-1]
    k = np.zeros(n, dtype=np.int64)  # old first-varint byte length
    active = np.flatnonzero(row_len > 0)
    j = 0
    while active.size:
        b = doc_data[doc_offs[active] + j]
        j += 1
        done = (b & 0x80) == 0
        k[active[done]] = j
        active = active[~done]
    prev_last = np.empty(n, dtype=np.int64)
    if n:
        prev_last[0] = 0
        prev_last[1:] = last_doc[:-1]
    v = np.where(is_start, first_doc, first_doc - prev_last).astype(np.uint64)
    assert (row_len > 0).all(), "df>=1 invariant: no empty doc streams reach merge"
    new_lens = codec.vbyte_lengths(v)
    new_heads = codec.vbyte_encode(v, lens=new_lens)
    head_offs = np.concatenate(([0], np.cumsum(new_lens)))
    tail_len = row_len - k
    out_row_len = new_lens + tail_len
    out_offs = np.concatenate(([0], np.cumsum(out_row_len)))
    out_data = np.empty(int(out_offs[-1]), dtype=np.uint8)
    out_data[_ragged_indices(out_offs[:-1], new_lens)] = new_heads[
        _ragged_indices(head_offs[:-1], new_lens)
    ]
    out_data[_ragged_indices(out_offs[:-1] + new_lens, tail_len)] = doc_data[
        _ragged_indices(doc_offs[:-1] + k, tail_len)
    ]
    doc_arr = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(),
        run_start.size,
        [None, pa.py_buffer(np.ascontiguousarray(out_offs[edges])), pa.py_buffer(out_data)],
    )

    # block directory columns: per-run concat of the list rows, with
    # blk_doc_boff rebased to the chunk's position in the spliced output
    # stream (+ the first-varint length change for intra-chunk blocks) and
    # blk_frq_boff rebased to the chunk's frq position within the run
    shift = new_lens - k
    dest_row_start = out_offs[:-1] - out_offs[run_start][run_id]
    frq_row_start = frq_offs[:-1] - frq_offs[run_start][run_id]

    def _list_parts(name):
        arr = _one_chunk(batch.column(name))
        loffs = arr.offsets.to_numpy()
        vals = arr.values
        # trim to the used contiguous range, local offsets
        local = loffs - loffs[0]
        flat = vals.slice(loffs[0], loffs[-1] - loffs[0])
        return local, flat

    def _runs_list(local, flat_arr):
        return pa.ListArray.from_arrays(
            pa.array(local[edges], type=pa.int32()), flat_arr
        )

    bl_local, bl_flat = _list_parts("blk_last_doc")
    mt_local, mt_flat = _list_parts("blk_max_tf")
    nb_local, nb_flat = _list_parts("blk_min_normb")
    db_local, db_flat = _list_parts("blk_doc_boff")
    fb_local, fb_flat = _list_parts("blk_frq_boff")
    llen_db = db_local[1:] - db_local[:-1]
    db_np = db_flat.to_numpy()
    new_db = np.where(
        db_np > 0, db_np + np.repeat(shift, llen_db), 0
    ) + np.repeat(dest_row_start, llen_db)
    llen_fb = fb_local[1:] - fb_local[:-1]
    new_fb = fb_flat.to_numpy() + np.repeat(frq_row_start, llen_fb)

    return pa.table(
        {
            "term": pa.array(term[run_start]),
            "bucket": pa.array(bucket[run_start], type=pa.int64()),
            "df": pa.array(np.add.reduceat(df, run_start), type=pa.int64()),
            "ttf": pa.array(np.add.reduceat(ttf, run_start), type=pa.int64()),
            "first_seg": pa.array(seg_id[run_start], type=pa.int64()),
            "doc_blob": doc_arr,
            "frq_blob": _runs_binary(frq_offs, frq_data),
            "pos_blob": _runs_binary(pos_offs, pos_data),
            "blk_last_doc": _runs_list(bl_local, bl_flat),
            "blk_doc_boff": _runs_list(db_local, pa.array(new_db, type=pa.int64())),
            "blk_frq_boff": _runs_list(fb_local, pa.array(new_fb, type=pa.int64())),
            "blk_max_tf": _runs_list(mt_local, mt_flat),
            "blk_min_normb": _runs_list(nb_local, nb_flat),
        }
    )


@ray.remote(num_cpus=0.5)
def _copy_file(src: str, dst: str) -> None:
    """Cross-filesystem docs copy, one task per segment (never the driver)."""
    import shutil

    tmp = dst + ".tmp"
    shutil.copyfile(src, tmp)
    os.replace(tmp, dst)


#: merged manifest format: 3 = sorted-parts entries {"file", "min", "max", "rows"}
MERGED_VERSION = 3


def _merged_manifest(out_dir: str) -> dict:
    """The manifest committed at ``out_dir``. A merged index of another
    format version is refused: its parts entries would be misread."""
    with open(os.path.join(out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    if manifest.get("version") != MERGED_VERSION:
        raise ValueError(
            f"{out_dir} holds a version-{manifest.get('version')} merged index, not "
            f"version {MERGED_VERSION}: run merge_index() again into a fresh directory"
        )
    return manifest


def merge_index(index: IndexMeta | str, out_dir: str, *, bucket_size: int = 8) -> str:
    """Compact a segmented index into a term-range-partitioned merged index.

    ForceMerge analog (/root/reference/src/Lucene.Net.Core/Index/IndexWriter.cs:2099)
    with TieredMergePolicy's bounded-inputs-per-merge idea expressed as the
    (term, bucket) shuffle key. Output under ``out_dir``:
      parts/*.parquet        chunk rows (term, bucket, blobs, blocks), sorted
                             by term: a sorted-parts store keyed on term
      docs/docs-*.parquet    per-source-segment doc tables (global docIDs)
      manifest.json          version 3; includes the store's per-part
                             [min, max] entries
    Postings in the merged index carry GLOBAL docIDs.

    Raises if the source index has un-expunged delete tombstones: a
    concatenative merge would resurrect deleted docs. Run
    ``maintenance.expunge_deletes`` first (IndexWriter.ForceMergeDeletes
    analog), then merge the expunged index.
    """
    index = index if isinstance(index, IndexMeta) else IndexMeta(index)
    if os.path.exists(os.path.join(out_dir, "manifest.json")):
        _merged_manifest(out_dir)  # refuses an older format
        return out_dir  # resume: the atomic manifest write IS the commit
    from ..state.deletes import load_deleted

    if load_deleted(index.index_dir).size:
        raise ValueError(
            f"index {index.index_dir} has delete tombstones; run "
            "expunge_deletes() before merge_index() (a concatenative merge "
            "would resurrect deleted docs)"
        )
    os.makedirs(os.path.join(out_dir, "docs"), exist_ok=True)

    seg_rows = [
        {"seg_dir": d, "seg_id": r["seg_id"], "doc_base": _doc_base(index, r["seg_id"])}
        for d, r in zip(index.segment_dirs, index.manifest["segments"])
    ]
    ds = ray.data.from_items(seg_rows).repartition(len(seg_rows))
    term_rows = ds.map_batches(
        _segment_term_rows,
        fn_kwargs={"with_blobs": True, "bucket_size": bucket_size},
        batch_format="pyarrow",
        batch_size=None,
    )
    # Coalesce the per-segment blocks before the sort. Ray's sort-map stage
    # emits one partition SLICE per (input block x output range); with one
    # block per segment that is n_segments^2 slices, and slices under Ray's
    # ~100 KB inline threshold are stored in the DRIVER'S in-process object
    # store — measured ~1.1 GB of driver heap per 2M docs (O(data) driver
    # memory, a scale-killer). Sizing the sort's partition count from the
    # postings volume keeps every slice comfortably above the inline
    # threshold (driver stays flat) and sizes the output part files for
    # range-pruned serving (~target_part_bytes each).
    total_bytes = sum(r.get("postings_bytes", 0) for r in index.manifest["segments"])
    target_part_bytes = 256 << 20
    n_parts = max(8, min(len(seg_rows), total_bytes // target_part_bytes + 1))
    merged = term_rows.repartition(n_parts).sort(["term", "bucket", "seg_id"]).map_batches(
        _merge_sorted_batch, batch_format="pyarrow", batch_size=None
    )
    parts_meta = write_sorted_parts(merged, os.path.join(out_dir, "parts"), "term")

    # docs: per-segment doc tables already carry global docIDs, so "copying"
    # them is pure data movement that must NOT stream through the driver (at
    # 100 TB the docs store is the whole corpus). Hardlink when the merged
    # dir shares a filesystem with the source (O(1) per segment); otherwise
    # one Ray task per segment does the byte copy in parallel.
    copy_jobs = []
    for d in index.segment_dirs:
        src = os.path.join(d, "docs.parquet")
        dst = os.path.join(out_dir, "docs", os.path.basename(d) + ".parquet")
        if os.path.exists(dst):
            continue
        try:
            os.link(src, dst)
        except OSError:
            copy_jobs.append((src, dst))
    if copy_jobs:
        ray.get([_copy_file.remote(s, t) for s, t in copy_jobs])

    write_index_manifest(
        out_dir,
        {
            "version": MERGED_VERSION,
            "kind": "merged",
            "max_doc": index.max_doc,
            "sum_ttf": index.sum_ttf,
            "bucket_size": bucket_size,
            "index_options": index.manifest.get("index_options", "freqs"),
            "payload_delimiter": index.manifest.get("payload_delimiter"),
            "source": index.index_dir,
            "analyzer": index.manifest.get("analyzer"),
            "content_column": index.manifest.get("content_column", "content"),
            "segments": index.manifest["segments"],
            "parts": parts_meta,
        },
    )
    return out_dir


def _doc_base(index: IndexMeta, seg_id: int) -> int:
    base = 0
    for r in index.manifest["segments"]:
        if r["seg_id"] == seg_id:
            return base
        base += r["doc_count"]
    raise KeyError(seg_id)


class _LazyNorms:
    """Global norm-byte accessor backed by per-segment docs files.

    Norms are ONE BYTE per doc, so any index a single process would serve
    flattens into trivial memory (8M docs = 8 MB). Below ``flat_budget``
    docs the whole array materializes on first access (one pass over the
    per-segment files) and lookups are plain fancy indexing — the per-block
    lookups of a WAND walk must not pay a dict+searchsorted round per call,
    and a count-bounded cache thrashes catastrophically when segments >>
    cache slots (measured: 20k parquet re-reads for ONE head-term query on
    a 1000-segment index). Above the budget, per-segment slices live in a
    BYTE-budgeted FIFO cache."""

    def __init__(
        self,
        files: list[str],
        bases: np.ndarray,
        counts: np.ndarray,
        max_cached_bytes: int = 256 << 20,
        flat_budget: int = 64_000_000,
    ):
        self._files = files
        self._bases = bases
        self._counts = counts
        self._max_cached_bytes = max_cached_bytes
        self._cache: dict[int, np.ndarray] = {}
        self._cache_bytes = 0
        self._total = int(counts.sum()) if len(counts) else 0
        self._flat: np.ndarray | None = None
        self._use_flat = self._total <= flat_budget

    def _load(self, s: int) -> np.ndarray:
        arr = self._cache.get(s)
        if arr is None:
            arr = pq.read_table(self._files[s], columns=["norm"]).column("norm").to_numpy()
            while self._cache and self._cache_bytes + arr.nbytes > self._max_cached_bytes:
                k0 = next(iter(self._cache))
                self._cache_bytes -= self._cache.pop(k0).nbytes
            self._cache[s] = arr
            self._cache_bytes += arr.nbytes
        return arr

    def _flatten(self) -> np.ndarray:
        if self._flat is None:
            self._flat = np.empty(self._total, dtype=np.uint8)
            for s, f in enumerate(self._files):
                arr = pq.read_table(f, columns=["norm"]).column("norm").to_numpy()
                self._flat[self._bases[s] : self._bases[s] + self._counts[s]] = arr
        return self._flat

    def __getitem__(self, docids) -> np.ndarray:
        if self._use_flat:
            return self._flatten()[docids]
        docids = np.asarray(docids, dtype=np.int64)
        segs = np.searchsorted(self._bases, docids, side="right") - 1
        out = np.empty(docids.shape, dtype=np.uint8)
        for s in np.unique(segs):
            m = segs == s
            out[m] = self._load(int(s))[docids[m] - self._bases[s]]
        return out


class _MergedDocs:
    """What every merged reader serves from the per-segment docs files
    (shared storage): collection stats, global norms, stored columns."""

    def __init__(self, out_dir: str, manifest: dict):
        self.manifest = manifest
        self.doc_base = 0
        self.doc_count = manifest["max_doc"]
        self.sum_ttf = manifest["sum_ttf"]
        segs = manifest["segments"]
        docs_dir = os.path.join(out_dir, "docs")
        self._docs_files = [
            os.path.join(docs_dir, f"seg{r['seg_id']:06d}.parquet") for r in segs
        ]
        counts = np.array([r["doc_count"] for r in segs], dtype=np.int64)
        bases = np.concatenate(([0], np.cumsum(counts)[:-1]))
        self.norms = _LazyNorms(self._docs_files, bases, counts)

    @property
    def has_positions(self) -> bool:
        return self.manifest.get("index_options") in ("positions", "offsets")

    def doc_values(self, field: str) -> np.ndarray:
        """Stored column across all segments (concatenated, global order)."""
        parts = [
            pq.read_table(f, columns=[field]).column(field).to_numpy(zero_copy_only=False)
            for f in self._docs_files
        ]
        return np.concatenate(parts)


class MergedIndexReader(_MergedDocs):
    """Scale-safe facade over a merged (term-range-partitioned) index.

    Exposes the SegmentReader surface the scorer needs — postings() returns
    GLOBAL docids (doc_base 0, norms indexed globally) — so SegmentScorer
    works unchanged. Per-term access goes through the sorted-parts store
    ``parts`` (state/sorted_parts.py): it bisects the parts manifest and
    reads ONLY the matching row groups of the covering part file(s), so
    resident state is O(parts manifest + one part's rows), never O(index).
    Head terms are several chunk rows, concatenated in (bucket, first_seg) =
    docID order.
    """

    _BLOB_COLS = ["term", "bucket", "first_seg", "df", "ttf", "doc_blob", "frq_blob", "pos_blob"]

    def __init__(self, out_dir: str):
        super().__init__(out_dir, _merged_manifest(out_dir))
        self.out_dir = out_dir
        # parts.parts_read counts the part files lookups touched (scale tests)
        self.parts = SortedParts(os.path.join(out_dir, "parts"), self.manifest["parts"], "term")
        self._terms_cache: np.ndarray | None = None
        self._handles: dict[str, int] = {}  # WAND term handles
        self._handle_rows: dict[int, dict] = {}
        self._handle_seq = 0
        self._stats_cache = FifoCache(self._STATS_CACHE_TERMS)
        # decoded postings, element-budgeted like SegmentReader's (serving
        # hits the same head terms on every query; the per-term footer +
        # row-group read was the merged p50's dominant cost)
        self._post_cache = FifoCache(self._POSTINGS_CACHE_ELEMS, postings_elems)

    def _rows_for_term(self, term: str, columns: list[str]) -> pa.Table | None:
        t = self.parts.read(term, term, columns)
        if t is not None and t.num_rows > 1:
            t = t.sort_by([("bucket", "ascending"), ("first_seg", "ascending")])
        return t

    # -- block-max WAND surface ---------------------------------------------
    # term_index/blocks/postings_block_range mirror SegmentReader so the
    # scorer's auto-mode WAND works over the merged layout too. A term
    # "handle" caches the term's chunk blobs + a concatenated block
    # directory; chunk-start blocks are flagged because each chunk's first
    # delta is ABSOLUTE (splice semantics), so only intra-chunk blocks
    # rebase against the previous block's last doc.

    def term_index(self, term: str) -> int:
        h = self._handles.get(term)
        if h is not None and (h == -1 or h in self._handle_rows):
            return h
        t = self._rows_for_term(
            term,
            self._BLOB_COLS
            + ["blk_last_doc", "blk_doc_boff", "blk_frq_boff", "blk_max_tf", "blk_min_normb"],
        )
        if t is None:
            self._handles[term] = -1
            return -1
        doc_parts, frq_parts = [], []
        last_doc, doc_boff, frq_boff, max_tf, min_normb, chunk_start = [], [], [], [], [], []
        dbase = fbase = 0
        for i in range(t.num_rows):
            db = t.column("doc_blob")[i].as_py()
            fb = t.column("frq_blob")[i].as_py()
            bl = t.column("blk_last_doc")[i].as_py()
            dbo = t.column("blk_doc_boff")[i].as_py()
            fbo = t.column("blk_frq_boff")[i].as_py()
            mtf = t.column("blk_max_tf")[i].as_py()
            mnb = t.column("blk_min_normb")[i].as_py()
            doc_parts.append(db)
            frq_parts.append(fb)
            last_doc.extend(bl)
            doc_boff.extend(dbase + b for b in dbo)
            frq_boff.extend(fbase + b for b in fbo)
            max_tf.extend(mtf)
            min_normb.extend(mnb)
            chunk_start.extend([j == 0 for j in range(len(bl))])
            dbase += len(db)
            fbase += len(fb)
        handle = {
            "doc": np.frombuffer(b"".join(doc_parts), dtype=np.uint8),
            "frq": np.frombuffer(b"".join(frq_parts), dtype=np.uint8),
            "blocks": {
                "last_doc": np.asarray(last_doc, dtype=np.int64),
                "doc_boff": np.asarray(doc_boff, dtype=np.int64),
                "frq_boff": np.asarray(frq_boff, dtype=np.int64),
                "max_tf": np.asarray(max_tf, dtype=np.int64),
                "min_normb": np.asarray(min_normb, dtype=np.uint8),
                "chunk_start": np.asarray(chunk_start, dtype=bool),
            },
        }
        # bounded cache keyed by a monotonic handle id: evicting the OLDEST
        # entries can never invalidate the handful of handles a single query
        # holds (cap >> query arity)
        while len(self._handle_rows) >= 256:
            oldest = next(iter(self._handle_rows))
            del self._handle_rows[oldest]
        self._handle_seq += 1
        h = self._handle_seq
        self._handles[term] = h
        self._handle_rows[h] = handle
        if len(self._handles) > 4 * 256:
            self._handles = {t: i for t, i in self._handles.items() if i in self._handle_rows or i == -1}
        return h

    def blocks(self, h: int) -> dict[str, np.ndarray]:
        return self._handle_rows[h]["blocks"]

    def postings_block_range(self, h: int, blk_lo: int, blk_hi: int, blocks: dict):
        """Decode blocks [blk_lo, blk_hi) — must not span a chunk boundary
        except at blk_lo (WAND decodes one block at a time)."""
        hd = self._handle_rows[h]
        boffs = blocks["doc_boff"]
        foffs = blocks["frq_boff"]
        nb = boffs.size
        cs = blocks["chunk_start"]
        assert blk_hi == blk_lo + 1 or not cs[blk_lo + 1 : blk_hi].any(), (
            "block range spans a chunk boundary"
        )
        dend = boffs[blk_hi] if blk_hi < nb else hd["doc"].size
        fend = foffs[blk_hi] if blk_hi < nb else hd["frq"].size
        from ..functions import codec as _codec

        docids, tfs = _codec.decode_postings(
            hd["doc"][boffs[blk_lo] : dend], hd["frq"][foffs[blk_lo] : fend]
        )
        if blk_lo > 0 and docids.size and not cs[blk_lo]:
            docids += blocks["last_doc"][blk_lo - 1]
        return docids, tfs, blk_lo * 128

    # -- SegmentReader surface ----------------------------------------------
    @property
    def terms(self) -> np.ndarray:
        """Unique sorted vocabulary. Loaded lazily (column-pruned, no blobs)
        and cached — used only by multi-term expansions; the scale path for a
        10^12-doc corpus is `terms_in_range` against the parts manifest."""
        if self._terms_cache is None:
            cols = [
                t.column("term").to_numpy(zero_copy_only=False) for t in self.parts.scan(["term"])
            ]
            allt = np.concatenate(cols) if cols else np.empty(0, dtype=object)
            self._terms_cache = np.unique(allt)
        return self._terms_cache

    def terms_in_range(self, lo: str, hi: str) -> np.ndarray:
        """Sorted unique terms in [lo, hi] reading only covering parts."""
        t = self.parts.read(lo, hi, ["term"])
        if t is None:
            return np.empty(0, dtype=object)
        return np.unique(t.column("term").to_numpy(zero_copy_only=False))

    def iter_term_parts(self, part_filter=None):
        """Stream the vocabulary one part at a time (sorted unique per
        chunk). Unbounded multi-term scans (FuzzyQuery prefix_length=0,
        leading-wildcard) consume this instead of `terms`, keeping O(1 part)
        resident at 10^9-term vocabularies. Chunks arrive in ascending
        global term order; duplicates can only occur at part boundaries, so
        callers dedupe their (small) match sets, not the stream.
        ``part_filter(min, max) -> bool`` vetoes parts from manifest bounds
        alone — a vetoed part costs zero I/O (parts.parts_read counts only
        parts actually read; tests assert the fuzzy automaton skips most
        parts)."""
        for t in self.parts.scan(["term"], part_filter):
            yield np.unique(t.column("term").to_numpy(zero_copy_only=False))

    # 32M elements ~ 512 MB of int64 pairs: sized so even head terms of a
    # multi-million-doc slice stay cached in a serving actor (re-decoding a
    # head term re-allocates ~100 MB, which this sandbox VM's ~25 MB/s
    # page-fault ceiling turns into seconds per query)
    _POSTINGS_CACHE_ELEMS = 32_000_000
    _STATS_CACHE_TERMS = 65_536

    def term_stats(self, term: str) -> tuple[int, int]:
        hit = self._stats_cache.get(term)
        if hit is not None:
            return hit
        t = self._rows_for_term(term, ["term", "bucket", "first_seg", "df", "ttf"])
        if t is None:
            out = (0, 0)
        else:
            out = (
                int(pa.compute.sum(t.column("df")).as_py()),
                int(pa.compute.sum(t.column("ttf")).as_py()),
            )
        self._stats_cache.put(term, out)
        return out

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        hit = self._post_cache.get(term)
        if hit is not None:
            return hit
        t = self._rows_for_term(term, self._BLOB_COLS)
        if t is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        # preallocate ONE output pair from the df column and decode each
        # chunk into its slice — a list-of-chunks + concatenate doubles the
        # fresh-allocation volume, which dominates head-term latency on
        # allocation-slow hosts
        total = int(pa.compute.sum(t.column("df")).as_py())
        d = np.empty(total, dtype=np.int64)
        tf = np.empty(total, dtype=np.int64)
        pos = 0
        for i in range(t.num_rows):
            cd, ctf = codec.decode_postings(
                t.column("doc_blob")[i].as_py(), t.column("frq_blob")[i].as_py()
            )
            d[pos : pos + cd.size] = cd
            tf[pos : pos + cd.size] = ctf
            pos += cd.size
        d.flags.writeable = False
        tf.flags.writeable = False
        self._post_cache.put(term, (d, tf))
        return d, tf

    @property
    def has_offsets(self) -> bool:
        return self.manifest.get("index_options") == "offsets"

    @property
    def has_payloads(self) -> bool:
        return self.manifest.get("payload_delimiter") is not None

    def position_payloads(self, docid: int) -> np.ndarray:
        """float32 payload per position for a GLOBAL docid — pos_payload
        lives in the per-segment docs files and rides through the merge
        unchanged (same carry as pos_start/pos_end)."""
        if not self.has_payloads:
            raise ValueError("index was not built with a payload_delimiter")
        s, local = self._seg_of(docid)
        t = pq.read_table(self._docs_files[s], columns=["pos_payload"])
        return np.asarray(
            t.column("pos_payload")[local].values.to_numpy(zero_copy_only=False),
            dtype=np.float32,
        )

    def _seg_of(self, docid: int) -> tuple[int, int]:
        s = int(np.searchsorted(self.norms._bases, docid, side="right") - 1)
        return s, docid - int(self.norms._bases[s])

    def position_char_offsets(self, docid: int) -> tuple[np.ndarray, np.ndarray]:
        """(starts, ends) per-position char offsets for a GLOBAL docid —
        docs files carry pos_start/pos_end through the merge unchanged, so
        the merged layout serves PostingsHighlighter too."""
        if not self.has_offsets:
            raise ValueError("index was not built with index_options='offsets'")
        s, local = self._seg_of(docid)
        t = pq.read_table(self._docs_files[s], columns=["pos_start", "pos_end"])
        return (
            np.asarray(t.column("pos_start")[local].values.to_numpy(zero_copy_only=False), dtype=np.int64),
            np.asarray(t.column("pos_end")[local].values.to_numpy(zero_copy_only=False), dtype=np.int64),
        )

    def stored_value(self, docid: int, field: str):
        """One doc's stored column value — reads only the owning segment's
        docs file (column-pruned), never the whole store."""
        s, local = self._seg_of(docid)
        t = pq.read_table(self._docs_files[s], columns=[field])
        return t.column(field)[local].as_py()

    def positions(self, term: str):
        """(docids, tfs, flat_positions, occ_offsets) — see SegmentReader."""
        if not self.has_positions:
            raise ValueError("merged index was built without positions")
        t = self._rows_for_term(term, self._BLOB_COLS)
        e = np.empty(0, dtype=np.int64)
        if t is None:
            return e, e, e, np.zeros(1, dtype=np.int64)
        doc_parts, tf_parts, flat_parts = [], [], []
        for i in range(t.num_rows):
            d, tf = codec.decode_postings(
                t.column("doc_blob")[i].as_py(), t.column("frq_blob")[i].as_py()
            )
            deltas = codec.vbyte_decode(
                np.frombuffer(t.column("pos_blob")[i].as_py(), dtype=np.uint8)
            ).astype(np.int64)
            occ = np.concatenate(([0], np.cumsum(tf)))
            flat = np.cumsum(deltas)
            if d.size > 1:
                flat -= np.repeat(np.concatenate(([0], flat[occ[1:-1] - 1])), tf)
            doc_parts.append(d)
            tf_parts.append(tf)
            flat_parts.append(flat)
        docids = np.concatenate(doc_parts)
        tfs = np.concatenate(tf_parts)
        flatp = np.concatenate(flat_parts)
        return docids, tfs, flatp, np.concatenate(([0], np.cumsum(tfs)))


class MergedSearcher(Searcher):
    """The Searcher over a merged index: one in-process shard holding the
    merged reader (same results as the segmented Searcher — asserted by the
    merge-equivalence tests)."""

    def __init__(self, out_dir: str):
        self.reader = MergedIndexReader(out_dir)
        field = self.reader.manifest.get("content_column", "content")
        super().__init__(out_dir, use_actors=False, groups=[_SegmentGroup([self.reader], field)])


@ray.remote(**SERVING_ACTOR_OPTIONS)
class MergedRangeActor:
    """Serves a CONTIGUOUS term-range slice of a merged index: the actor's
    MergedIndexReader is trimmed to its part files, so resident memory is
    O(its slice of the parts manifest + bounded postings cache) — the merged
    layout's answer to the segment-group serving actors. Actor order follows
    global term order, and within one term the chunk order across part files
    IS docID order, so cross-actor results concatenate without re-sorting."""

    def __init__(self, out_dir: str, part_indices: list[int]):
        self.reader = MergedIndexReader(out_dir)
        self.reader.parts = self.reader.parts.subset(part_indices)

    def postings_many(self, terms: list[str]) -> dict:
        return {t: self.reader.postings(t) for t in terms}

    def positions_many(self, terms: list[str]) -> dict:
        return {t: self.reader.positions(t) for t in terms}

    def stats_many(self, terms: list[str]) -> dict:
        return {t: self.reader.term_stats(t) for t in terms}

    def terms_in_range(self, lo: str, hi: str):
        return self.reader.terms_in_range(lo, hi)

    def term_parts(self) -> list:
        return list(self.reader.iter_term_parts())


class _ShardedMergedReader(_MergedDocs):
    """SegmentReader surface backed by a MergedRangeActor group: per-term
    lookups route to the covering actor(s) (lazy, cached); norms and stored
    docs come from the local per-segment files (shared storage). No `blocks`
    attribute, so the scorer's WAND path cleanly falls back to exhaustive."""

    def __init__(self, out_dir: str, actors: list, bounds: list[tuple[str, str]], manifest: dict):
        super().__init__(out_dir, manifest)
        self._actors = actors
        self._mins = [lo for lo, _ in bounds]  # ascending actor term ranges
        self._maxs = [hi for _, hi in bounds]
        # bounded like MergedIndexReader's own caches; an evicted term is
        # fetched again on its next lookup
        self._post = FifoCache(MergedIndexReader._POSTINGS_CACHE_ELEMS, postings_elems)
        self._pos = FifoCache(MergedIndexReader._POSTINGS_CACHE_ELEMS, postings_elems)
        self._stats = FifoCache(MergedIndexReader._STATS_CACHE_TERMS)

    # -- batched prefetch (one round trip per actor for a whole query) ------
    def prefetch(self, terms: list[str], *, positions: bool = False) -> None:
        positions = positions and self.has_positions
        self._fetch(
            [t for t in terms if not (t in self._post and t in self._stats and (not positions or t in self._pos))],
            positions,
        )

    def _fetch(self, terms: list[str], positions: bool = False) -> tuple[dict, dict, dict]:
        """Postings, stats and (with ``positions``) positions of ``terms``
        with one round trip per covering actor; a term no actor covers is
        absent from the result. Returns them and caches them."""
        per_actor: dict[int, list[str]] = {}
        for t in dict.fromkeys(terms):
            for i in covering(self._mins, self._maxs, t, t):
                per_actor.setdefault(i, []).append(t)
        futs = []
        for i, ts in per_actor.items():
            futs.append((ts, self._actors[i].postings_many.remote(ts),
                         self._actors[i].stats_many.remote(ts),
                         self._actors[i].positions_many.remote(ts) if positions else None))
        post: dict[str, tuple] = {}
        stats: dict[str, tuple] = {}
        pos: dict[str, tuple] = {}
        for ts, pf, sf, posf in futs:  # actor order == docID order
            posts = ray.get(pf)
            st = ray.get(sf)
            poss = ray.get(posf) if posf is not None else {}
            for t in ts:
                d, tf = posts[t]
                if t in post:  # term straddles an actor boundary
                    d0, tf0 = post[t]
                    d, tf = np.concatenate((d0, d)), np.concatenate((tf0, tf))
                post[t] = (d, tf)
                df, ttf = st[t]
                if t in stats:
                    df, ttf = df + stats[t][0], ttf + stats[t][1]
                stats[t] = (df, ttf)
                if t in poss:
                    if t in pos:
                        d0, tf0, fl0, oc0 = pos[t]
                        d1, tf1, fl1, oc1 = poss[t]
                        pos[t] = (
                            np.concatenate((d0, d1)),
                            np.concatenate((tf0, tf1)),
                            np.concatenate((fl0, fl1)),
                            np.concatenate((oc0, oc1[1:] + oc0[-1])),
                        )
                    else:
                        pos[t] = poss[t]
        for cache, got in ((self._post, post), (self._stats, stats), (self._pos, pos)):
            for t, v in got.items():
                cache.put(t, v)
        return post, stats, pos

    def postings(self, term: str):
        hit = self._post.get(term)
        if hit is None:
            e = np.empty(0, dtype=np.int64)
            hit = self._fetch([term])[0].get(term, (e, e))
        return hit

    def term_stats(self, term: str):
        hit = self._stats.get(term)
        if hit is None:
            hit = self._fetch([term])[1].get(term, (0, 0))
        return hit

    def positions(self, term: str):
        hit = self._pos.get(term)
        if hit is None and self.has_positions:
            hit = self._fetch([term], positions=True)[2].get(term)
        if hit is None:
            e = np.empty(0, dtype=np.int64)
            hit = (e, e, e, np.zeros(1, dtype=np.int64))
        return hit

    def terms_in_range(self, lo: str, hi: str) -> np.ndarray:
        futs = [
            self._actors[i].terms_in_range.remote(lo, hi)
            for i in covering(self._mins, self._maxs, lo, hi)
        ]
        parts = [p for p in ray.get(futs) if p.size]
        return np.unique(np.concatenate(parts)) if parts else np.empty(0, dtype=object)

    def iter_term_parts(self, part_filter=None):
        # ascending term order across actors
        for a, alo, ahi in zip(self._actors, self._mins, self._maxs):
            # coarse actor-range veto; each actor's own parts are filtered
            # again block-wise by the caller's walk
            if part_filter is not None and not part_filter(alo, ahi):
                continue
            yield from ray.get(a.term_parts.remote())


class ShardedMergedSearcher(Searcher):
    """The Searcher over a MergedRangeActor group: the parts manifest is
    split into `num_actors` contiguous term ranges, each served by one
    actor. The one in-process shard's reader prefetches a query's postings
    with ONE round trip per covering actor, then scores locally — asserted
    result-identical to the single-process MergedSearcher in tests."""

    def __init__(self, out_dir: str, num_actors: int = 4):
        local = MergedIndexReader(out_dir)
        entries = local.parts.entries  # ascending term ranges
        n = max(1, min(num_actors, len(entries)))
        groups = [range(g * len(entries) // n, (g + 1) * len(entries) // n) for g in range(n)]
        groups = [g for g in groups if g]
        self._actors = [MergedRangeActor.remote(out_dir, list(g)) for g in groups]
        bounds = [(entries[g[0]]["min"], entries[g[-1]]["max"]) for g in groups]
        self.reader = _ShardedMergedReader(out_dir, self._actors, bounds, local.manifest)
        field = local.manifest.get("content_column", "content")
        super().__init__(out_dir, use_actors=False, groups=[_SegmentGroup([self.reader], field)])
