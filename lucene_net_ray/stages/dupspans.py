"""Exact duplicate-substring span detection (training-data dedup at the
SUBSTRING level, not whole-document level).

Reference point: whole-document and near-dup dedup (`stages/dedup.py`)
removes documents; this stage finds the REPEATED PASSAGES inside kept
documents — the "exact substring deduplication" step of modern LM
training-data pipelines (Lee et al. 2022, "Deduplicating Training Data
Makes Language Models Better", which uses a suffix array; at Ray Data
scale the equivalent exact computation is a windowed token-hash shuffle,
below). The op the rest of the pipeline consumes: per doc, the maximal
token spans covered by any ``window_tokens``-token window whose exact
text occurs >= 2 times in the corpus (within-doc repeats count too).

Semantics (mirrored 1:1 by the DuckDB oracle in driver_contract.py):

  tokens   = the doc's ``\\S+`` runs (ASCII whitespace split, RE2 semantics)
  windows  = every consecutive ``w``-token slice, keyed by md5 of the
             single-space-joined window text
  dup      = window keys with global occurrence count >= 2
  spans    = per doc, merge overlapping/adjacent dup windows
             (pos_next <= pos_prev + w) into maximal islands ->
             (doc_id, span_start, span_end, n_windows), token indices,
             end exclusive

Scale design (the whole point — 100 TB corpora):

  stage 1  map_batches window kernel: ZERO Python per token — the batch's
           text is whitespace-collapsed once (Arrow RE2 kernel), token
           boundaries come from ONE numpy scan of the utf8 data buffer
           (space byte 0x20 cannot occur inside a UTF-8 multibyte
           sequence), and each window's md5 is hashed straight off a
           memoryview slice of that buffer (no window string is ever
           materialized). One md5 per window is the irreducible cost of
           an oracle-shared exact key; a production variant could swap in
           a rolling 128-bit polynomial at ~w x less hashed bytes.
           Emits (doc, pos, h1, h2) — 28 B/window, ~= 28 B/token.
  stage 2  ONE keyed exchange on (h1, h2) (stages/exchange.py: a bounded
           bucket count, not one group per distinct window), and each
           bucket marks duplicates with a single lexsort + run-length
           pass. No driver-side dup set, no broadcast — the dup side can
           be arbitrarily large. This
           exchange is O(total tokens) rows, the same asymptotic traffic
           a distributed suffix-array build pays.
  stage 3  dup positions only (usually a small fraction of the corpus)
           re-shuffle by doc_id to merge islands, again lexsort +
           vectorized segmented reduce. Skew-safe: a doc's dup positions
           are bounded by its token count.

The 128-bit key equality set is EXACTLY the oracle's (both are full md5),
so Ray and DuckDB agree bit-for-bit, collisions included.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .exchange import keyed_exchange


def _window_rows(
    batch: pa.Table, *, text_column: str, id_column: str, w: int
) -> pa.Table:
    """(doc, pos, h1, h2) per w-token window of each doc in batch."""
    col = batch.column(text_column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # collapse ASCII whitespace runs to single spaces (RE2 \s, matching the
    # oracle's regexp_extract_all(text, '\S+') token stream), trim edges
    norm = pc.utf8_trim(pc.replace_substring_regex(col, r"\s+", " "), " ")
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    odt = np.int64 if pa.types.is_large_string(norm.type) else np.int32
    offs = np.frombuffer(norm.buffers()[1], dtype=odt)[
        norm.offset : norm.offset + len(norm) + 1
    ]
    buf = norm.buffers()[2]
    mv = memoryview(buf) if buf is not None else memoryview(b"")
    whole = np.frombuffer(mv, dtype=np.uint8) if len(mv) else np.empty(0, np.uint8)

    ids = batch.column(id_column).to_numpy(zero_copy_only=False)
    md5 = hashlib.md5
    digests = bytearray()
    out_doc: list[np.ndarray] = []
    out_pos: list[np.ndarray] = []
    for d in range(len(norm)):
        lo, hi = int(offs[d]), int(offs[d + 1])
        if hi <= lo:
            continue
        spaces = np.flatnonzero(whole[lo:hi] == 32)
        n_tok = spaces.size + 1
        if n_tok < w:
            continue
        starts = np.empty(n_tok, dtype=np.int64)
        starts[0] = 0
        starts[1:] = spaces + 1
        ends = np.empty(n_tok, dtype=np.int64)
        ends[:-1] = spaces
        ends[-1] = hi - lo
        n_win = n_tok - w + 1
        ws = starts[:n_win] + lo
        we = ends[w - 1 :] + lo
        digests += b"".join(
            md5(mv[int(s) : int(e)]).digest() for s, e in zip(ws, we)
        )
        out_doc.append(np.full(n_win, ids[d], dtype=np.int64))
        out_pos.append(np.arange(n_win, dtype=np.int64))
    if not out_doc:
        return pa.table(
            {
                "doc": pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "h1": pa.array([], type=pa.int64()),
                "h2": pa.array([], type=pa.int64()),
            }
        )
    dg = np.frombuffer(bytes(digests), dtype="<u8").reshape(-1, 2)
    h1 = dg[:, 0].view(np.int64)
    h2 = dg[:, 1].view(np.int64)
    return pa.table(
        {
            "doc": pa.array(np.concatenate(out_doc)),
            "pos": pa.array(np.concatenate(out_pos)),
            "h1": pa.array(h1),
            "h2": pa.array(h2),
        }
    )


def _mark_dups(group: pa.Table) -> pa.Table:
    """Within one exchange bucket: keep (doc, pos) of windows whose exact
    128-bit key occurs >= 2 times globally (bucket holds ALL rows of each
    of its keys). One lexsort + run-length pass, no Python per row."""
    n = group.num_rows
    if n == 0:
        return pa.table(
            {
                "doc": pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
            }
        )
    h1 = group.column("h1").to_numpy(zero_copy_only=False)
    h2 = group.column("h2").to_numpy(zero_copy_only=False)
    doc = group.column("doc").to_numpy(zero_copy_only=False)
    pos = group.column("pos").to_numpy(zero_copy_only=False)
    order = np.lexsort((h2, h1))
    s1, s2 = h1[order], h2[order]
    newrun = (s1[1:] != s1[:-1]) | (s2[1:] != s2[:-1])
    run_id = np.concatenate(([0], np.cumsum(newrun)))
    run_len = np.bincount(run_id)
    keep = run_len[run_id] >= 2
    kept = order[keep]
    return pa.table({"doc": pa.array(doc[kept]), "pos": pa.array(pos[kept])})


def _merge_islands(group: pa.Table, *, w: int) -> pa.Table:
    """Within one doc-keyed exchange bucket: merge each doc's dup positions into
    maximal spans. Sorted positions + fixed window length w mean the
    running max island end is simply prev_pos + w, so island breaks are
    pos_i > pos_{i-1} + w (or a doc change) — one lexsort + reduceat."""
    n = group.num_rows
    if n == 0:
        return pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "span_start": pa.array([], type=pa.int64()),
                "span_end": pa.array([], type=pa.int64()),
                "n_windows": pa.array([], type=pa.int64()),
            }
        )
    doc = group.column("doc").to_numpy(zero_copy_only=False)
    pos = group.column("pos").to_numpy(zero_copy_only=False)
    order = np.lexsort((pos, doc))
    d2, p2 = doc[order], pos[order]
    brk = np.empty(n, dtype=bool)
    brk[0] = True
    brk[1:] = (d2[1:] != d2[:-1]) | (p2[1:] > p2[:-1] + w)
    starts = np.flatnonzero(brk)
    ends = np.concatenate((starts[1:], [n])) - 1
    return pa.table(
        {
            "doc_id": pa.array(d2[starts]),
            "span_start": pa.array(p2[starts]),
            "span_end": pa.array(p2[ends] + w),
            "n_windows": pa.array((ends - starts + 1).astype(np.int64)),
        }
    )


def duplicate_spans(
    ds: ray.data.Dataset,
    *,
    window_tokens: int = 8,
    text_column: str = "text",
    id_column: str = "doc_id",
) -> ray.data.Dataset:
    """Maximal duplicated-substring spans per doc:
    (doc_id, span_start, span_end, n_windows), token indices, end
    exclusive, sorted by (doc_id, span_start)."""
    w = int(window_tokens)
    if w < 1:
        raise ValueError("window_tokens must be >= 1")
    return _duplicate_spans_unsorted(
        ds, w=w, text_column=text_column, id_column=id_column
    ).sort(["doc_id", "span_start"])


def _duplicate_spans_unsorted(
    ds: ray.data.Dataset, *, w: int, text_column: str, id_column: str
) -> ray.data.Dataset:
    """The span engine without the final presentation sort — the doc-stats
    rollup consumes this directly so it doesn't pay a full-corpus sort
    whose order its own groupby re-shuffle would immediately destroy."""
    wins = ds.map_batches(
        _window_rows,
        batch_format="pyarrow",
        fn_kwargs={"text_column": text_column, "id_column": id_column, "w": w},
    )
    marked = keyed_exchange(wins, ["h1", "h2"], _mark_dups)
    return keyed_exchange(marked, "doc", lambda g: _merge_islands(g, w=w))


def duplicate_span_doc_stats(
    ds: ray.data.Dataset,
    *,
    window_tokens: int = 8,
    text_column: str = "text",
    id_column: str = "doc_id",
) -> ray.data.Dataset:
    """Per-doc rollup of duplicate_spans: (doc_id, n_spans, dup_tokens) for
    docs that contain at least one duplicated span. dup_tokens counts the
    distinct tokens covered (islands are disjoint by construction)."""
    w = int(window_tokens)
    if w < 1:
        raise ValueError("window_tokens must be >= 1")
    spans = _duplicate_spans_unsorted(
        ds, w=w, text_column=text_column, id_column=id_column
    )

    def per_doc(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "covered": pc.subtract(
                    batch.column("span_end"), batch.column("span_start")
                ),
            }
        )
        return (
            t.group_by(["doc_id"])
            .aggregate([("covered", "sum"), ([], "count_all")])
            .rename_columns(["doc_id", "dup_tokens", "n_spans"])
        )

    # spans are already doc-contiguous (sorted); a doc can straddle two
    # blocks, so finish with a tiny keyed reduce over the partials
    agg = (
        spans.map_batches(per_doc, batch_format="pyarrow")
        .groupby("doc_id")
        .sum(["dup_tokens", "n_spans"])
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_spans": batch.column("sum(n_spans)").cast(pa.int64()),
                "dup_tokens": batch.column("sum(dup_tokens)").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort("doc_id")
