"""check_index: full self-validation of a committed index.

CheckIndex analog (/root/reference/src/Lucene.Net.Core/Index/CheckIndex.cs:795-806):
re-walks every posting list and cross-checks the redundant statistics —
df == len(postings), ttf == sum(tf), docIDs strictly increasing and in-range,
block directory consistent with decoded postings (last_doc/max_tf/min_normb),
segment sum_ttf == sum of doc field lengths, norm bytes re-derivable from
field lengths, doc_bases contiguous.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq

from ..functions.norms import encode_norm_array
from ..state.index import IndexMeta
from ..state.segment import BLOCK_SIZE, SegmentReader


def check_index(index: IndexMeta | str) -> dict:
    """Raises AssertionError on corruption; returns summary counters."""
    index = index if isinstance(index, IndexMeta) else IndexMeta(index)
    expected_base = 0
    totals = {"segments": 0, "docs": 0, "terms": 0, "postings": 0}
    for seg_dir, seg in zip(index.segment_dirs, index.manifest["segments"]):
        r = SegmentReader(seg_dir)
        assert r.doc_base == expected_base, f"{seg_dir}: doc_base gap"
        expected_base += r.doc_count

        docs = pq.read_table(os.path.join(seg_dir, "docs.parquet"))
        field_len = docs.column("field_len").to_numpy()
        assert int(field_len.sum()) == r.sum_ttf, f"{seg_dir}: sum_ttf mismatch"
        assert np.array_equal(encode_norm_array(field_len), r.norms), f"{seg_dir}: norms"
        doc_ids = docs.column("doc_id").to_numpy()
        assert np.array_equal(doc_ids, r.doc_base + np.arange(r.doc_count)), f"{seg_dir}: doc_ids"
        if r.has_offsets:
            # offsets mode: every position of every doc must map to a valid,
            # non-inverted char range
            ps = docs.column("pos_start")
            pe = docs.column("pos_end")
            for d in range(r.doc_count):
                s_arr = np.asarray(ps[d].as_py(), dtype=np.int64)
                e_arr = np.asarray(pe[d].as_py(), dtype=np.int64)
                assert s_arr.size == e_arr.size, f"{seg_dir} doc {d}: offsets arity"
                assert (s_arr <= e_arr).all(), f"{seg_dir} doc {d}: inverted offsets"

        sum_ttf_from_terms = 0
        for i in range(len(r.terms)):
            docids, tfs = r.postings_by_index(i)
            assert docids.size == r.df_array[i], f"{seg_dir} term {i}: df"
            assert int(tfs.sum()) == r.ttf_array[i], f"{seg_dir} term {i}: ttf"
            assert (tfs >= 1).all(), f"{seg_dir} term {i}: zero freq"
            if docids.size:
                assert (np.diff(docids) > 0).all(), f"{seg_dir} term {i}: docs out of order"
                assert 0 <= docids[0] and docids[-1] < r.doc_count, f"{seg_dir} term {i}: range"
            blocks = r.blocks(i)
            nb = (docids.size + BLOCK_SIZE - 1) // BLOCK_SIZE
            assert blocks["last_doc"].size == nb, f"{seg_dir} term {i}: block count"
            for bi in range(nb):
                lo, hi = bi * BLOCK_SIZE, min((bi + 1) * BLOCK_SIZE, docids.size)
                assert blocks["last_doc"][bi] == docids[hi - 1], f"{seg_dir} term {i} blk {bi}: last"
                assert blocks["max_tf"][bi] == tfs[lo:hi].max(), f"{seg_dir} term {i} blk {bi}: max_tf"
                assert blocks["min_normb"][bi] == r.norms[docids[lo:hi]].max(), (
                    f"{seg_dir} term {i} blk {bi}: min_normb"
                )
            if r.has_positions:
                pdocs, ptfs, flat, occ = r.positions(str(r.terms[i]))
                assert np.array_equal(pdocs, docids), f"{seg_dir} term {i}: pos docs"
                assert flat.size == int(tfs.sum()), f"{seg_dir} term {i}: pos count"
                for j in range(pdocs.size):
                    seg = flat[occ[j] : occ[j + 1]]
                    assert (np.diff(seg) > 0).all() if seg.size > 1 else True, (
                        f"{seg_dir} term {i} doc {j}: positions out of order"
                    )
                    assert seg.size == tfs[j], f"{seg_dir} term {i} doc {j}: pos/freq"
            sum_ttf_from_terms += int(tfs.sum())
            totals["postings"] += docids.size
        assert sum_ttf_from_terms == r.sum_ttf, f"{seg_dir}: terms ttf vs docs"
        totals["segments"] += 1
        totals["docs"] += r.doc_count
        totals["terms"] += len(r.terms)
    assert expected_base == index.max_doc, "manifest max_doc mismatch"
    return totals


def check_merged_index(out_dir: str) -> dict:
    """CheckIndex for the merged (term-range-partitioned) layout: the
    sorted-parts store's own check (manifest covers every part file with
    exact, ascending term ranges); per term, chunk df/ttf sums match the
    decoded postings, docIDs are globally strictly increasing across chunks
    in (bucket, first_seg) order and in-range; global df/ttf sums reconcile
    against the source manifest."""
    from ..functions import codec
    from ..pipelines.merge import MergedIndexReader

    r = MergedIndexReader(out_dir)
    r.parts.check()
    totals = {"parts": len(r.parts.entries), "terms": 0, "postings": 0, "sum_ttf": 0}
    # per-term validation over the vocabulary (full walk, like CheckIndex)
    for term in r.terms.tolist():
        tbl = r._rows_for_term(term, r._BLOB_COLS)
        df_sum = ttf_sum = 0
        prev_last = -1
        n_decoded = 0
        tf_total = 0
        for i in range(tbl.num_rows):
            d, tf = codec.decode_postings(
                tbl.column("doc_blob")[i].as_py(), tbl.column("frq_blob")[i].as_py()
            )
            assert d.size == tbl.column("df")[i].as_py(), f"{term} chunk {i}: df"
            assert int(tf.sum()) == tbl.column("ttf")[i].as_py(), f"{term} chunk {i}: ttf"
            if d.size:
                assert (np.diff(d) > 0).all(), f"{term} chunk {i}: docs out of order"
                assert d[0] > prev_last, f"{term}: chunks overlap in docid space"
                assert d[-1] < r.doc_count, f"{term}: docid out of range"
                prev_last = int(d[-1])
            df_sum += d.size
            ttf_sum += int(tf.sum())
            n_decoded += d.size
            tf_total += int(tf.sum())
        gdf, gttf = r.term_stats(term)
        assert (gdf, gttf) == (df_sum, ttf_sum), f"{term}: stats vs decoded"
        totals["terms"] += 1
        totals["postings"] += n_decoded
        totals["sum_ttf"] += tf_total
    assert totals["sum_ttf"] == r.sum_ttf, "merged sum_ttf mismatch"
    return totals
