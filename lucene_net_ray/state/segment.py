"""Immutable inverted-index segments: build, write, read.

A segment is the unit of parallel index construction and of checkpoint/resume
(reference analog: one flushed DWPT segment,
/root/reference/src/Lucene.Net.Core/Index/DocumentsWriterPerThread.cs:509).

On-disk layout (one directory per segment):
  terms.parquet    term dict sorted in UTF-8 byte order (= Arrow string order):
                   term, df, ttf, doc_off/doc_len, frq_off/frq_len and the
                   per-128-doc block directory as list columns
                   (last_doc, doc_boff, frq_boff, max_tf, min_normb)
  postings.bin     concatenated per-term vByte doc-delta + freq streams
  docs.parquet     one row per doc in local docID order: global doc_id, norm
                   byte, field length, content sha256, stored id columns
  meta.json        doc_base, doc_count, sum_ttf, term_count, lineage, metrics
                   (build_sec and its layers analysis_sec / invert_sec /
                   write_sec)

The inversion is allocation-light and vectorized: Arrow splits whitespace
tokens (contiguous buffers) and analyzes the shard's UNIQUE whitespace tokens
as one dictionary; under the standard chain only the tokens that are not
plain ASCII alphanumeric or dotted runs reach the Python analyzer (memoized
across tasks). Term ids are vocabulary ranks, and all per-occurrence work —
term-id expansion, (term, doc[, position]) sorting, tf counting,
delta/vByte/block math — is integer numpy (reduceat over per-term
boundaries). A doc-at-a-time fallback path covers analyzers
that cannot split on whitespace (keyword); both paths are asserted
byte-identical by a hypothesis property test.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions import codec
from ..functions.analysis import Analyzer, analyze_token_dictionary
from ..functions.norms import encode_norm_array

BLOCK_SIZE = codec.BLOCK_SIZE


_WS_CODES_CACHE: np.ndarray | None = None


def _ws_codepoints() -> np.ndarray:
    """Unicode whitespace codepoints (matches str.split / Arrow ws split;
    none exist above U+3000)."""
    global _WS_CODES_CACHE
    if _WS_CODES_CACHE is None:
        _WS_CODES_CACHE = np.array(
            [c for c in range(0x3001) if chr(c).isspace()], dtype=np.int32
        )
    return _WS_CODES_CACHE


def _ws_token_char_offsets(texts: list[str], ws_counts: np.ndarray):
    """(starts, ends) codepoint offsets of every whitespace token, doc-major,
    aligned with pc.utf8_split_whitespace's flattened output. Vectorized over
    the whole shard: one utf-32 decode + boolean transition masks (costs a
    transient 4 bytes/char — the price of offsets-at-index mode)."""
    n = len(texts)
    joined = "".join(texts)
    doc_lens = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
    doc_starts = np.concatenate(([0], np.cumsum(doc_lens)))
    codes = (
        np.frombuffer(joined.encode("utf-32-le"), dtype=np.int32)
        if joined
        else np.empty(0, dtype=np.int32)
    )
    is_ws = np.isin(codes, _ws_codepoints())
    # Arrow splits on whitespace RUNS and keeps empty edge tokens, so a doc
    # has (ws runs + 1) tokens; token k spans between run k-1's end and run
    # k's start. Find run boundaries globally, with doc joins forcing breaks.
    run_start = is_ws.copy()
    run_end = is_ws.copy()
    if codes.size:
        run_start[1:] &= ~is_ws[:-1]
        run_end[:-1] &= ~is_ws[1:]
        inner = doc_starts[1:-1]
        inner = inner[(inner > 0) & (inner < codes.size)]
        if inner.size:
            run_start[inner] = is_ws[inner]
            run_end[inner - 1] = is_ws[inner - 1]
    rs_global = np.flatnonzero(run_start)
    re_global = np.flatnonzero(run_end) + 1
    run_doc = np.searchsorted(doc_starts, rs_global, side="right") - 1
    runs_per_doc = np.bincount(run_doc, minlength=n)
    counts = runs_per_doc + 1
    assert np.array_equal(counts, ws_counts), (
        "offsets mode: whitespace model diverged from Arrow's split"
    )
    tok_offs = np.concatenate(([0], np.cumsum(counts)))
    total = int(tok_offs[-1])
    tok_s = np.zeros(total, dtype=np.int64)
    tok_e = np.empty(total, dtype=np.int64)
    tok_e[tok_offs[1:] - 1] = doc_lens  # last token of each doc ends at len
    if rs_global.size:
        run_rank = np.arange(rs_global.size, dtype=np.int64) - np.concatenate(
            ([0], np.cumsum(runs_per_doc[:-1]))
        )[run_doc]
        tok_s[tok_offs[run_doc] + 1 + run_rank] = re_global - doc_starts[run_doc]
        tok_e[tok_offs[run_doc] + run_rank] = rs_global - doc_starts[run_doc]
    return tok_s, tok_e


def atomic_write_json(path: str, obj: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def committed_segment_meta(final_dir: str) -> dict | None:
    """The meta of the segment committed at ``final_dir``, or None: a task
    that finds its output already committed skips the work (resume)."""
    path = os.path.join(final_dir, "meta.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def commit_segment_dir(tmp_dir: str, final_dir: str, meta: dict) -> None:
    """Commit a fully written temp segment dir: fsync its meta.json, then
    rename the dir into place, so a crash leaves at most a ``.tmp<pid>``
    dir that no reader opens (two-phase-commit analog of
    IndexWriter.Commit, reference IndexWriter.cs:3719-3777). A task that
    lost a race with a retry of itself drops its own copy."""
    atomic_write_json(os.path.join(tmp_dir, "meta.json"), meta)
    if os.path.exists(final_dir):
        shutil.rmtree(tmp_dir, ignore_errors=True)
    else:
        os.replace(tmp_dir, final_dir)


def build_segment(
    table: pa.Table,
    *,
    seg_id: int,
    doc_base: int,
    out_dir: str,
    analyzer: Analyzer | None = None,
    content_column: str = "content",
    stored_columns: tuple[str, ...] = (),
    lineage: dict | None = None,
    index_options: str = "freqs",  # "freqs" | "positions" | "offsets" (FieldInfo.IndexOptions analog)
    store_term_vectors: bool = False,  # per-doc (term, tf) columns in docs.parquet
    payload_delimiter: str | None = None,  # DelimitedPayloadTokenFilter analog
) -> dict:
    """Tokenize + invert one partition of the corpus and write a segment.

    Writes to ``{out_dir}/seg{seg_id:06d}`` via a temp dir + atomic rename, so
    a crashed build never leaves a half-segment behind (two-phase-commit
    analog of IndexWriter.Commit, reference IndexWriter.cs:3719-3777).
    Returns the segment meta dict.
    """
    t0 = time.perf_counter()
    analyzer = analyzer or Analyzer()
    seg_name = f"seg{seg_id:06d}"
    final_dir = os.path.join(out_dir, seg_name)
    committed = committed_segment_meta(final_dir)
    if committed is not None:
        return committed
    tmp_dir = final_dir + f".tmp{os.getpid()}"
    os.makedirs(tmp_dir, exist_ok=True)

    content_arr = table.column(content_column)
    if isinstance(content_arr, pa.ChunkedArray):
        content_arr = content_arr.combine_chunks()
    n_docs = len(content_arr)
    content_bytes = int(pc.sum(pc.binary_length(content_arr)).as_py() or 0)

    pos_offset_cols = None
    payload_cols = None
    # --- analysis + inversion, allocation-light ---------------------------
    # Whitespace pre-split happens in Arrow (contiguous buffers) and the
    # shard's UNIQUE whitespace tokens are analyzed as one dictionary
    # (analyze_token_dictionary): ASCII alphanumeric and dotted tokens in
    # Arrow, only the rest through the Python analyzer (memoized across
    # tasks). Everything per-occurrence is integer numpy. Tokens never span
    # whitespace in the grammar, so analyzing per whitespace-token is exactly
    # analyzing the document.
    if payload_delimiter is not None and index_options not in ("positions", "offsets"):
        raise ValueError("payload_delimiter requires index_options='positions' or 'offsets'")
    if analyzer.kind not in ("keyword", "chain", "ngram", "pattern", "wikipedia") and n_docs:
        ws = pc.utf8_split_whitespace(content_arr)
        ws_counts = pc.list_value_length(ws).to_numpy(zero_copy_only=False).astype(np.int64)
        flat_ws = pc.list_flatten(ws)
        denc = flat_ws.dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        idx = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq_ws = denc.dictionary
        with_pos = index_options in ("positions", "offsets")
        # DelimitedPayloadTokenFilter analog (reference
        # Analysis/Payloads/DelimitedPayloadTokenFilter.cs:28 + FloatEncoder):
        # ws token "term|0.75" indexes as "term" carrying per-position payload
        # 0.75. Stripping happens on the UNIQUE tokens (memo-friendly); a
        # trailing chunk that does not parse as a float leaves the token
        # intact with no payload (the reference's FloatEncoder would throw —
        # documented deviation: we treat it as payload-less).
        tok_payload = None
        if payload_delimiter is not None:
            stripped = uniq_ws.to_pylist()
            tok_payload = np.full(len(stripped), np.nan, dtype=np.float32)
            for u_i, u in enumerate(stripped):
                head, sep, tail = u.rpartition(payload_delimiter)
                if sep:
                    try:
                        tok_payload[u_i] = np.float32(tail)
                        stripped[u_i] = head
                    except ValueError:
                        pass
            uniq_ws = pa.array(stripped, type=pa.string())
        # per-unique-token analysis -> CSR of term values (+ relative
        # positions); a term's id is its rank in the vocabulary, which is
        # sorted in UTF-8 byte order (= Python str order)
        uniq_offs, uniq_term_vals, uniq_rels_np, n_raw = analyze_token_dictionary(analyzer, uniq_ws)
        tenc = uniq_term_vals.dictionary_encode()
        vocab_order = pc.sort_indices(tenc.dictionary).to_numpy()
        rank_of_id = np.empty(vocab_order.size, dtype=np.int64)
        rank_of_id[vocab_order] = np.arange(vocab_order.size)
        uniq_vals_np = rank_of_id[tenc.indices.to_numpy(zero_copy_only=False)]
        uniq_terms = tenc.dictionary.take(vocab_order).cast(pa.string())
        t_analysis = time.perf_counter()
        uniq_lens = np.diff(uniq_offs)
        # expand: per occurrence of unique token u, its term-id run
        occ_lens = uniq_lens[idx]
        occ_starts = uniq_offs[idx]
        total_terms = int(occ_lens.sum())
        doc_of_ws = np.repeat(np.arange(n_docs, dtype=np.int64), ws_counts)
        if occ_lens.size == 0 or int(occ_lens.max()) <= 1:
            # fast path (standard analyzers): every ws token maps to 0 or 1
            # terms, so the range-expand degenerates to a boolean mask —
            # saves two O(total_terms) np.repeats on the hot build path
            sel = occ_lens.astype(bool)
            src = occ_starts[sel]

            def _expand(arr: np.ndarray) -> np.ndarray:
                return arr[sel]
        else:
            # standard numpy range-expand idiom (multi-term analyzers:
            # synonym/shingle chains)
            cum = np.concatenate(([0], np.cumsum(occ_lens)[:-1]))
            ids = np.arange(total_terms, dtype=np.int64) - np.repeat(cum, occ_lens)
            src = np.repeat(occ_starts, occ_lens) + ids

            def _expand(arr: np.ndarray) -> np.ndarray:
                return np.repeat(arr, occ_lens)

        flat_term_ids = uniq_vals_np[src]
        flat_doc_idx = _expand(doc_of_ws)
        field_lens = np.bincount(flat_doc_idx, minlength=n_docs).astype(np.int64)

        pos_offset_cols = None
        if with_pos and total_terms:
            # absolute position = per-doc cumulative raw-token base + relative
            occ_nraw = n_raw[idx]
            total_cum = np.cumsum(occ_nraw) - occ_nraw
            ws_doc_starts = np.concatenate(([0], np.cumsum(ws_counts)[:-1]))
            safe_starts = np.minimum(ws_doc_starts, max(total_cum.size - 1, 0))
            doc_start_vals = total_cum[safe_starts] if total_cum.size else np.zeros(n_docs, dtype=np.int64)
            base_occ = total_cum - np.repeat(doc_start_vals, ws_counts)
            flat_positions = _expand(base_occ) + uniq_rels_np[src]
            order = np.lexsort((flat_positions, flat_doc_idx, flat_term_ids))
            r_sorted = flat_term_ids[order]
            d_sorted = flat_doc_idx[order]
            p_sorted = flat_positions[order]
            # run-length boundaries of (term, doc) pairs -> postings + tfs
            pair_change = np.concatenate(
                ([True], (r_sorted[1:] != r_sorted[:-1]) | (d_sorted[1:] != d_sorted[:-1]))
            )
            pstarts = np.flatnonzero(pair_change)
            pends = np.concatenate((pstarts[1:], [r_sorted.size]))
            codes = r_sorted[pstarts]
            docs_sorted = d_sorted[pstarts]
            tfs_sorted = (pends - pstarts).astype(np.int64)
            # position deltas: within a (term,doc) run, first = pos, rest = gaps
            pos_deltas = np.empty(p_sorted.size, dtype=np.int64)
            pos_deltas[1:] = p_sorted[1:] - p_sorted[:-1]
            pos_deltas[pstarts] = p_sorted[pstarts]
            n_post = codes.size
            if index_options == "offsets":
                # per-doc position -> enclosing-ws-token char range, stored
                # as docs.parquet list columns (PostingsHighlighter's offsets
                # source — IndexOptions...AND_OFFSETS analog, factored per
                # doc instead of per posting so merges carry it unchanged)
                tok_s, tok_e = _ws_token_char_offsets(
                    content_arr.to_pylist(), ws_counts
                )
                ps_flat = np.repeat(tok_s, occ_nraw).astype(np.int32)
                pe_flat = np.repeat(tok_e, occ_nraw).astype(np.int32)
                per_doc = np.bincount(
                    doc_of_ws, weights=occ_nraw, minlength=n_docs
                ).astype(np.int64)
                loffs = pa.array(
                    np.concatenate(([0], np.cumsum(per_doc))).astype(np.int32)
                )
                pos_offset_cols = {
                    "pos_start": pa.ListArray.from_arrays(loffs, pa.array(ps_flat)),
                    "pos_end": pa.ListArray.from_arrays(loffs, pa.array(pe_flat)),
                }
            if tok_payload is not None:
                # per-position payload (position space == the offsets one):
                # each ws-token occurrence's payload covers all raw positions
                # it consumed; stored per doc so merges carry it unchanged
                pay_flat = np.repeat(tok_payload[idx], occ_nraw)
                per_doc_p = np.bincount(
                    doc_of_ws, weights=occ_nraw, minlength=n_docs
                ).astype(np.int64)
                ploffs = pa.array(
                    np.concatenate(([0], np.cumsum(per_doc_p))).astype(np.int32)
                )
                payload_cols = {
                    "pos_payload": pa.ListArray.from_arrays(
                        ploffs, pa.array(pay_flat, type=pa.float32())
                    )
                }
        else:
            # (term, doc) -> tf via one integer sort: key = term_id*n_docs + doc
            if total_terms:
                key = flat_term_ids * n_docs + flat_doc_idx
                uniq_key, tfs_sorted = np.unique(key, return_counts=True)
                tfs_sorted = tfs_sorted.astype(np.int64)
                codes = uniq_key // n_docs
                docs_sorted = uniq_key % n_docs
            else:
                codes = np.empty(0, dtype=np.int64)
                tfs_sorted = np.empty(0, dtype=np.int64)
                docs_sorted = np.empty(0, dtype=np.int64)
            pos_deltas = None
            n_post = codes.size
    else:
        if index_options in ("positions", "offsets"):
            raise NotImplementedError(
                "positions/offsets indexing requires a whitespace-splittable analyzer "
                f"(kind={analyzer.kind!r} unsupported)"
            )
        pos_deltas = None
        contents = content_arr.to_pylist()
        token_lists = [analyzer(c) for c in contents]
        field_lens = np.array([len(t) for t in token_lists], dtype=np.int64)
        flat_tokens = [tok for toks in token_lists for tok in toks]
        doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), field_lens)
        t_analysis = time.perf_counter()
        if flat_tokens:
            pairs = pa.table(
                {"term": pa.array(flat_tokens, type=pa.string()), "doc": pa.array(doc_idx)}
            )
            counted = pairs.group_by(["term", "doc"]).aggregate([([], "count_all")])
            counted = counted.sort_by([("term", "ascending"), ("doc", "ascending")])
            term_dict = counted.column("term").combine_chunks().dictionary_encode()
            if isinstance(term_dict, pa.ChunkedArray):
                term_dict = term_dict.combine_chunks()
            codes = term_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            uniq_terms = term_dict.dictionary
            docs_sorted = counted.column("doc").to_numpy()
            tfs_sorted = counted.column("count_all").to_numpy().astype(np.int64)
        else:
            codes = np.empty(0, dtype=np.int64)
            uniq_terms = pa.array([], type=pa.string())
            docs_sorted = np.empty(0, dtype=np.int64)
            tfs_sorted = np.empty(0, dtype=np.int64)
        n_post = codes.size
    t_invert = time.perf_counter()

    # per-row sha256 straight from the Arrow utf8 buffer (memoryview slices
    # — no Python-string materialization of the corpus shard)
    sha: list[str] = []
    for ch in (content_arr.chunks if isinstance(content_arr, pa.ChunkedArray) else [content_arr]):
        odt = np.int64 if pa.types.is_large_string(ch.type) else np.int32
        offs = np.frombuffer(ch.buffers()[1], dtype=odt)[ch.offset : ch.offset + len(ch) + 1]
        mv = memoryview(ch.buffers()[2]) if ch.buffers()[2] is not None else memoryview(b"")
        sha.extend(
            hashlib.sha256(mv[offs[i] : offs[i + 1]]).hexdigest() for i in range(len(ch))
        )
    norms = encode_norm_array(field_lens)

    enc = write_terms_and_postings(
        tmp_dir,
        uniq_terms=uniq_terms,
        codes=codes,
        docs_sorted=docs_sorted,
        tfs_sorted=tfs_sorted,
        pos_deltas=pos_deltas,
        norms=norms,
    )
    n_terms = enc["term_count"]
    n_post = enc["postings"]

    # --- docs.parquet -----------------------------------------------------
    docs_cols = {
        "doc_id": pa.array(doc_base + np.arange(n_docs, dtype=np.int64)),
        "norm": pa.array(norms, type=pa.uint8()),
        "field_len": pa.array(field_lens.astype(np.int32)),
        "sha256": pa.array(sha, type=pa.string()),
    }
    if store_term_vectors and n_post:
        # per-doc mini inverted index (TermVectorsFormat analog): re-sort the
        # (term, doc, tf) triples by doc and emit list columns
        tv_order = np.lexsort((codes, docs_sorted))
        tv_docs = docs_sorted[tv_order]
        tv_terms = codes[tv_order]
        tv_tfs = tfs_sorted[tv_order]
        counts_per_doc = np.bincount(tv_docs, minlength=n_docs).astype(np.int32)
        offsets = np.concatenate(([0], np.cumsum(counts_per_doc))).astype(np.int32)
        term_strs = uniq_terms.take(pa.array(tv_terms, type=pa.int64()))
        docs_cols["tvec_terms"] = pa.ListArray.from_arrays(pa.array(offsets), term_strs)
        docs_cols["tvec_tfs"] = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(tv_tfs, type=pa.int32())
        )
    elif store_term_vectors:
        empty_off = pa.array(np.zeros(n_docs + 1, dtype=np.int32))
        docs_cols["tvec_terms"] = pa.ListArray.from_arrays(empty_off, pa.array([], type=pa.string()))
        docs_cols["tvec_tfs"] = pa.ListArray.from_arrays(empty_off, pa.array([], type=pa.int32()))
    if index_options == "offsets":
        if pos_offset_cols is None:  # empty/degenerate shard
            empty_off = pa.array(np.zeros(n_docs + 1, dtype=np.int32))
            pos_offset_cols = {
                "pos_start": pa.ListArray.from_arrays(empty_off, pa.array([], type=pa.int32())),
                "pos_end": pa.ListArray.from_arrays(empty_off, pa.array([], type=pa.int32())),
            }
        docs_cols.update(pos_offset_cols)
    if payload_delimiter is not None:
        if payload_cols is None:  # empty/degenerate shard
            empty_off = pa.array(np.zeros(n_docs + 1, dtype=np.int32))
            payload_cols = {
                "pos_payload": pa.ListArray.from_arrays(
                    empty_off, pa.array([], type=pa.float32())
                )
            }
        docs_cols.update(payload_cols)
    for col in stored_columns:
        if col in table.column_names:
            docs_cols[col] = table.column(col)
    pq.write_table(pa.table(docs_cols), os.path.join(tmp_dir, "docs.parquet"))
    t_write = time.perf_counter()

    meta = {
        "seg_id": seg_id,
        "name": seg_name,
        "doc_base": int(doc_base),
        "doc_count": int(n_docs),
        "sum_ttf": int(field_lens.sum()),
        "term_count": int(n_terms),
        "postings": int(n_post),
        "postings_bytes": enc["postings_bytes"],
        "content_bytes": content_bytes,
        "index_options": index_options,
        "store_term_vectors": store_term_vectors,
        "payload_delimiter": payload_delimiter,
        "lineage": lineage or {},
        # build layers: analysis (ws split + token dictionary analysis + term
        # ranks), invert (postings, positions, offsets, payloads) and write
        # (sha256, norms, vByte encode, parquet files); they sum to build_sec
        # up to rounding
        "metrics": {
            "build_sec": round(t_write - t0, 4),
            "analysis_sec": round(t_analysis - t0, 4),
            "invert_sec": round(t_invert - t_analysis, 4),
            "write_sec": round(t_write - t_invert, 4),
            "tokens": int(field_lens.sum()),
        },
        "analyzer": analyzer.config(),
    }
    commit_segment_dir(tmp_dir, final_dir, meta)
    return meta


def write_terms_and_postings(
    tmp_dir: str,
    *,
    uniq_terms: pa.Array,
    codes: np.ndarray,
    docs_sorted: np.ndarray,
    tfs_sorted: np.ndarray,
    pos_deltas: np.ndarray | None,
    norms: np.ndarray,
) -> dict:
    """Encode term-major posting arrays into terms.parquet + postings.bin.

    Inputs are term-major sorted: codes[i] is the (term-rank) of posting i,
    non-decreasing; docs_sorted/tfs_sorted are the posting's local docID/freq;
    pos_deltas (optional) is the per-occurrence position-delta stream aligned
    with the postings (first delta of each posting is the absolute position).
    Shared by the segment builder and by the segment rewrite behind
    compaction, expunge-deletes and the splitters (which re-encodes the live
    postings of one or more source segments). Returns {"term_count",
    "postings", "postings_bytes"}.
    """
    n_post = codes.size
    if n_post:
        starts = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
    else:
        starts = np.empty(0, dtype=np.int64)
    ends = np.concatenate((starts[1:], [n_post])).astype(np.int64) if n_post else np.empty(0, dtype=np.int64)
    n_terms = starts.size
    df = (ends - starts).astype(np.int64)
    ttf = np.add.reduceat(tfs_sorted, starts) if n_post else np.empty(0, dtype=np.int64)

    # --- per-term delta gaps, computed globally ---------------------------
    deltas = np.empty(n_post, dtype=np.int64)
    if n_post:
        deltas[1:] = docs_sorted[1:] - docs_sorted[:-1]
        deltas[starts] = docs_sorted[starts]

    doc_lens_b = codec.vbyte_lengths(deltas)
    frq_lens_b = codec.vbyte_lengths(tfs_sorted)
    doc_stream = codec.vbyte_encode(deltas, lens=doc_lens_b)
    frq_stream = codec.vbyte_encode(tfs_sorted, lens=frq_lens_b)
    doc_cum = np.concatenate(([0], np.cumsum(doc_lens_b)))
    frq_cum = np.concatenate(([0], np.cumsum(frq_lens_b)))

    # per-term stream extents (bytes)
    term_doc_start_b = doc_cum[starts] if n_post else np.empty(0, dtype=np.int64)
    term_doc_end_b = doc_cum[ends] if n_post else np.empty(0, dtype=np.int64)
    term_frq_start_b = frq_cum[starts] if n_post else np.empty(0, dtype=np.int64)
    term_frq_end_b = frq_cum[ends] if n_post else np.empty(0, dtype=np.int64)

    # --- block directory: block starts every 128 postings within each term
    nblocks_per_term = ((df + BLOCK_SIZE - 1) // BLOCK_SIZE).astype(np.int64)
    blk_term = np.repeat(np.arange(n_terms, dtype=np.int64), nblocks_per_term)
    total_blocks = int(nblocks_per_term.sum())
    if total_blocks:
        blk_offsets = np.concatenate(([0], np.cumsum(nblocks_per_term)))
        # index of each block within its term
        blk_in_term = np.arange(total_blocks, dtype=np.int64) - blk_offsets[blk_term]
        blk_start = starts[blk_term] + blk_in_term * BLOCK_SIZE
        blk_end = np.minimum(blk_start + BLOCK_SIZE, ends[blk_term])
        blk_last_doc = docs_sorted[blk_end - 1]
        blk_max_tf = np.maximum.reduceat(tfs_sorted, blk_start)
        norm_by_post = norms[docs_sorted] if n_post else np.empty(0, dtype=np.uint8)
        blk_min_normb = np.maximum.reduceat(norm_by_post, blk_start)
        # byte offsets relative to the term's stream start
        blk_doc_boff = doc_cum[blk_start] - term_doc_start_b[blk_term]
        blk_frq_boff = frq_cum[blk_start] - term_frq_start_b[blk_term]
    else:
        blk_offsets = np.zeros(n_terms + 1, dtype=np.int64)
        blk_last_doc = blk_max_tf = blk_doc_boff = blk_frq_boff = np.empty(0, dtype=np.int64)
        blk_min_normb = np.empty(0, dtype=np.uint8)

    # --- optional positions stream (delta-gapped within each posting) -----
    if pos_deltas is not None and n_post:
        pos_lens_b = codec.vbyte_lengths(pos_deltas)
        pos_stream = codec.vbyte_encode(pos_deltas, lens=pos_lens_b)
        pos_cum_b = np.concatenate(([0], np.cumsum(pos_lens_b)))
        occ_cum = np.concatenate(([0], np.cumsum(tfs_sorted)))  # posting -> occurrence offset
        term_pos_start_b = pos_cum_b[occ_cum[starts]]
        term_pos_end_b = pos_cum_b[occ_cum[ends]]
    else:
        pos_stream = np.empty(0, dtype=np.uint8)
        term_pos_start_b = np.zeros(n_terms, dtype=np.int64)
        term_pos_end_b = np.zeros(n_terms, dtype=np.int64)

    # --- write postings.bin: [doc streams][frq streams][pos streams] ------
    post_path = os.path.join(tmp_dir, "postings.bin")
    doc_total = int(doc_cum[-1]) if n_post else 0
    frq_total = int(frq_cum[-1]) if n_post else 0
    doc_off_abs = term_doc_start_b.astype(np.int64)
    frq_off_abs = (doc_total + term_frq_start_b).astype(np.int64)
    pos_off_abs = (doc_total + frq_total + term_pos_start_b).astype(np.int64)
    with open(post_path, "wb") as f:
        f.write(doc_stream.tobytes())
        f.write(frq_stream.tobytes())
        f.write(pos_stream.tobytes())

    # --- terms.parquet ----------------------------------------------------
    list_off = blk_offsets.astype(np.int32)
    terms_table = pa.table(
        {
            "term": uniq_terms,
            "df": df.astype(np.int32),
            "ttf": ttf,
            "doc_off": doc_off_abs,
            "doc_len": (term_doc_end_b - term_doc_start_b).astype(np.int64),
            "frq_off": frq_off_abs,
            "frq_len": (term_frq_end_b - term_frq_start_b).astype(np.int64),
            "pos_off": pos_off_abs,
            "pos_len": (term_pos_end_b - term_pos_start_b).astype(np.int64),
            "blk_last_doc": pa.ListArray.from_arrays(list_off, pa.array(blk_last_doc, type=pa.int64())),
            "blk_doc_boff": pa.ListArray.from_arrays(list_off, pa.array(blk_doc_boff, type=pa.int64())),
            "blk_frq_boff": pa.ListArray.from_arrays(list_off, pa.array(blk_frq_boff, type=pa.int64())),
            "blk_max_tf": pa.ListArray.from_arrays(list_off, pa.array(blk_max_tf, type=pa.int64())),
            "blk_min_normb": pa.ListArray.from_arrays(list_off, pa.array(blk_min_normb, type=pa.uint8())),
        }
    )
    pq.write_table(terms_table, os.path.join(tmp_dir, "terms.parquet"))

    return {
        "term_count": int(n_terms),
        "postings": int(n_post),
        "postings_bytes": int(doc_cum[-1] + frq_cum[-1]) if n_post else 0,
    }


def _one(_value) -> int:
    return 1


def postings_elems(post) -> int:
    """Cache cost of (docids, tfs[, flat positions, offsets]): one for the
    entry itself, so an empty one (an absent term) still counts, plus its
    docids and, when it has them, its positions."""
    return 1 + post[0].size + (post[2].size if len(post) > 2 else 0)


class FifoCache(dict):
    """A dict that holds at most ``budget`` units, ``cost(value)`` units an
    entry (one by default). ``put`` evicts the oldest entries first to make
    room, and keeps no value that costs more than the whole budget (its
    caller still returns it); insert only through ``put``."""

    def __init__(self, budget: int, cost=_one):
        super().__init__()
        self.budget, self.cost, self.used = budget, cost, 0

    def put(self, key, value) -> None:
        if key in self:
            self.used -= self.cost(self.pop(key))
        c = self.cost(value)
        if c > self.budget:
            return
        while self and self.used + c > self.budget:
            self.used -= self.cost(self.pop(next(iter(self))))
        self[key] = value
        self.used += c

    def clear(self) -> None:
        super().clear()
        self.used = 0


class SegmentReader:
    """Read-side view of one segment: term dict in RAM, postings via mmap."""

    def __init__(self, seg_dir: str):
        self.seg_dir = seg_dir
        with open(os.path.join(seg_dir, "meta.json")) as f:
            self.meta = json.load(f)
        t = pq.read_table(os.path.join(seg_dir, "terms.parquet"))
        self._terms = t.column("term").combine_chunks()
        # numpy views for binary-search + posting access
        self._term_np = np.asarray(self._terms.to_pylist(), dtype=object)
        for col in ("df", "ttf", "doc_off", "doc_len", "frq_off", "frq_len"):
            setattr(self, "_" + col, t.column(col).to_numpy())
        self.has_positions = "pos_off" in t.column_names and self.meta.get("index_options") in ("positions", "offsets")
        if "pos_off" in t.column_names:
            self._pos_off = t.column("pos_off").to_numpy()
            self._pos_len = t.column("pos_len").to_numpy()
        self._blocks_tbl = t.select(
            ["blk_last_doc", "blk_doc_boff", "blk_frq_boff", "blk_max_tf", "blk_min_normb"]
        )
        self._norms: np.ndarray | None = None  # lazy: merge/stats paths never need them
        self.doc_base = self.meta["doc_base"]
        self.doc_count = self.meta["doc_count"]
        self.sum_ttf = self.meta["sum_ttf"]
        self._post = np.memmap(os.path.join(seg_dir, "postings.bin"), dtype=np.uint8, mode="r") \
            if os.path.getsize(os.path.join(seg_dir, "postings.bin")) else np.empty(0, dtype=np.uint8)
        self._post_cache = FifoCache(self._POSTINGS_CACHE_ELEMS, postings_elems)

    @property
    def norms(self) -> np.ndarray:
        """Per-doc norm bytes, loaded on first scoring use (column-pruned —
        the docs table's sha/stored columns stay on disk)."""
        if self._norms is None:
            self._norms = (
                pq.read_table(os.path.join(self.seg_dir, "docs.parquet"), columns=["norm"])
                .column("norm")
                .to_numpy()
            )
        return self._norms

    def term_vector(self, local_doc: int) -> dict[str, int]:
        """Per-doc term->tf (requires store_term_vectors=True at build)."""
        tbl = pq.read_table(
            os.path.join(self.seg_dir, "docs.parquet"), columns=["tvec_terms", "tvec_tfs"]
        )
        terms = tbl.column("tvec_terms")[local_doc].as_py()
        tfs = tbl.column("tvec_tfs")[local_doc].as_py()
        return dict(zip(terms, tfs))

    @property
    def has_offsets(self) -> bool:
        return self.meta.get("index_options") == "offsets"

    def position_char_offsets(self, local_doc: int) -> tuple[np.ndarray, np.ndarray]:
        """(starts, ends) codepoint offsets of the ws token covering each
        position of one doc — the PostingsHighlighter offsets source
        (reference Postingshighlight/PostingsHighlighter.cs:91 reads offsets
        from the postings enum; here they live per-doc in docs.parquet so
        merges carry them unchanged). Lazy, column-pruned, cached."""
        if not self.has_offsets:
            raise ValueError("index was not built with index_options='offsets'")
        if not hasattr(self, "_pos_off_tbl"):
            self._pos_off_tbl = pq.read_table(
                os.path.join(self.seg_dir, "docs.parquet"),
                columns=["pos_start", "pos_end"],
            )
        s = self._pos_off_tbl.column("pos_start")[local_doc]
        e = self._pos_off_tbl.column("pos_end")[local_doc]
        return (
            np.asarray(s.values.to_numpy(zero_copy_only=False), dtype=np.int64),
            np.asarray(e.values.to_numpy(zero_copy_only=False), dtype=np.int64),
        )

    @property
    def has_payloads(self) -> bool:
        return self.meta.get("payload_delimiter") is not None

    def position_payloads(self, local_doc: int) -> np.ndarray:
        """float32 payload per position of one doc (NaN = no payload) — the
        per-position payload store behind PayloadTermQuery / payload spans
        (reference Analysis/Payloads/DelimitedPayloadTokenFilter.cs:28,
        Search/Payloads/PayloadTermQuery.cs:36; payloads live per-doc in
        docs.parquet like the offsets columns, so merges carry them
        unchanged). Lazy, column-pruned, cached."""
        if not self.has_payloads:
            raise ValueError("index was not built with a payload_delimiter")
        if not hasattr(self, "_payload_tbl"):
            self._payload_tbl = pq.read_table(
                os.path.join(self.seg_dir, "docs.parquet"), columns=["pos_payload"]
            )
        p = self._payload_tbl.column("pos_payload")[local_doc]
        return np.asarray(p.values.to_numpy(zero_copy_only=False), dtype=np.float32)

    def doc_values(self, field: str) -> "np.ndarray":
        """Stored docs-table column as numpy (cached) — DocValues analog."""
        if not hasattr(self, "_dv_cache"):
            self._dv_cache = {}
        if field not in self._dv_cache:
            tbl = pq.read_table(os.path.join(self.seg_dir, "docs.parquet"), columns=[field])
            self._dv_cache[field] = tbl.column(field).to_numpy(zero_copy_only=False)
        return self._dv_cache[field]

    def term_index(self, term: str) -> int:
        """Binary search the sorted term dict; -1 if absent."""
        i = np.searchsorted(self._term_np, term)
        if i < len(self._term_np) and self._term_np[i] == term:
            return int(i)
        return -1

    def term_stats(self, term: str) -> tuple[int, int]:
        """(df, ttf) of a term in this segment (0, 0 if absent)."""
        i = self.term_index(term)
        if i < 0:
            return 0, 0
        return int(self._df[i]), int(self._ttf[i])

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(local docids, tfs) for a term; empty arrays if absent."""
        i = self.term_index(term)
        if i < 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        return self.postings_by_index(i)

    # serving actors hit the same head terms on every query of a batch; the
    # decode (vByte scan + cumsum) dominated bulk-eval profiles, so decoded
    # postings live in a bounded FIFO cache. Budget is in ELEMENTS, not
    # terms, so one head posting list cannot blow the actor's heap. Arrays
    # are returned read-only: every consumer must copy before mutating.
    _POSTINGS_CACHE_ELEMS = 4_000_000  # ~64 MB of int64 pairs per reader

    def postings_by_index(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        hit = self._post_cache.get(i)
        if hit is not None:
            return hit
        do, dl = self._doc_off[i], self._doc_len[i]
        fo, fl = self._frq_off[i], self._frq_len[i]
        d, tf = codec.decode_postings(self._post[do : do + dl], self._post[fo : fo + fl])
        d.flags.writeable = False
        tf.flags.writeable = False
        self._post_cache.put(i, (d, tf))
        return d, tf

    def positions(self, term: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(docids, tfs, flat_positions, occ_offsets) for a term.

        flat_positions holds every occurrence position; posting j's positions
        are flat_positions[occ_offsets[j]:occ_offsets[j+1]] (len == tfs[j]).
        """
        if not self.has_positions:
            raise ValueError(f"segment {self.seg_dir} was built without positions")
        i = self.term_index(term)
        if i < 0:
            e = np.empty(0, dtype=np.int64)
            return e, e, e, np.zeros(1, dtype=np.int64)
        docids, tfs = self.postings_by_index(i)
        po, pl = self._pos_off[i], self._pos_len[i]
        deltas = codec.vbyte_decode(self._post[po : po + pl]).astype(np.int64)
        occ_offsets = np.concatenate(([0], np.cumsum(tfs)))
        # positions are delta-gapped within each posting: cumsum then rebase
        flat = np.cumsum(deltas)
        if docids.size > 1:
            flat -= np.repeat(np.concatenate(([0], flat[occ_offsets[1:-1] - 1])), tfs)
        return docids, tfs, flat, occ_offsets

    def blocks(self, i: int) -> dict[str, np.ndarray]:
        """Block directory arrays for term index i."""
        row = self._blocks_tbl.slice(i, 1)
        return {
            "last_doc": np.asarray(row.column("blk_last_doc")[0].as_py(), dtype=np.int64),
            "doc_boff": np.asarray(row.column("blk_doc_boff")[0].as_py(), dtype=np.int64),
            "frq_boff": np.asarray(row.column("blk_frq_boff")[0].as_py(), dtype=np.int64),
            "max_tf": np.asarray(row.column("blk_max_tf")[0].as_py(), dtype=np.int64),
            "min_normb": np.asarray(row.column("blk_min_normb")[0].as_py(), dtype=np.uint8),
        }

    def postings_block_range(self, i: int, blk_lo: int, blk_hi: int, blocks: dict) -> tuple[np.ndarray, np.ndarray, int]:
        """Decode only blocks [blk_lo, blk_hi) of term i.

        Returns (docids, tfs, first_posting_index). The first delta of a
        non-initial block is relative to the previous block's last doc.
        """
        do = self._doc_off[i]
        fo = self._frq_off[i]
        dl = self._doc_len[i]
        fl = self._frq_len[i]
        boffs = blocks["doc_boff"]
        foffs = blocks["frq_boff"]
        nb = boffs.size
        dstart = boffs[blk_lo]
        dend = boffs[blk_hi] if blk_hi < nb else dl
        fstart = foffs[blk_lo]
        fend = foffs[blk_hi] if blk_hi < nb else fl
        docids, tfs = codec.decode_postings(
            self._post[do + dstart : do + dend], self._post[fo + fstart : fo + fend]
        )
        if blk_lo > 0 and docids.size:
            docids += blocks["last_doc"][blk_lo - 1]  # rebase: deltas continue from prev block's last doc
        return docids, tfs, blk_lo * BLOCK_SIZE

    @property
    def terms(self) -> np.ndarray:
        return self._term_np

    @property
    def term_column(self) -> pa.Array:
        """The sorted term dict as the Arrow string column it was read as."""
        return self._terms

    @property
    def df_array(self) -> np.ndarray:
        return self._df

    @property
    def ttf_array(self) -> np.ndarray:
        return self._ttf
