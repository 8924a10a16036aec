"""Corpus-statistics operators: n-gram counts, PMI collocations, TF-IDF.

The corpus-report layer every large-scale text pipeline carries next to the
index: global n-gram frequency tables (vocabulary reports, contamination
screens), PMI collocation mining (phrase/compound discovery for tokenizer and
synonym curation), and per-document TF-IDF top terms (keyword extraction /
MoreLikeThis seeding — reference semantics:
/root/reference/src/Lucene.Net.Queries/Mlt/MoreLikeThis.cs:664 builds the
same tf*idf(term) ranking per document).

Token semantics match the repo's _TOKS_CTE contract analyzer exactly
([a-z0-9]+ runs minus English stopwords, in document order) so every result
here is SQL-oracle-able in DuckDB.

Scale plan (all three ops share it):
- Per-batch combiner: the (key, n) partial counts are produced vectorized
  inside map_batches BEFORE any shuffle (pyarrow binary_join_element_wise +
  value_counts), so exchange rows ~ distinct keys per batch, never token
  occurrences.
- ONE keyed exchange on the gram (stages/exchange.py) with an in-bucket
  pyarrow group_by sum — exact counts.
- Global top-k = union of per-block local top-k, so the driver sees at most
  (exchange buckets) * k candidate rows.
- PMI's unigram attachment uses the union-with-carrier-columns co-partition
  join (the repo's asof/range-join pattern): unigram rows and bigram rows
  meet inside ONE keyed exchange per gram position — no vocab-sized
  broadcast, no driver-side join.
"""

from __future__ import annotations

import math
import re as _re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.analysis import ENGLISH_STOP_WORDS
from .exchange import keyed_exchange
from .textstats import _split_ws

_SUBTOK_MEMO: dict[str, tuple] = {}

_SEP = "\x1f"  # joins the n tokens of one n-gram into a single count key


def _doc_token_stream(batch: pa.Table, text_column: str):
    """(occ_tok object-array in stream order, occ_doc row index per
    occurrence) with _TOKS_CTE semantics. Analysis runs once per UNIQUE
    whitespace token (memoized); expansion is numpy."""
    uniq, idx, doc_idx, n = _split_ws(batch, text_column)
    memo = _SUBTOK_MEMO
    sub_lists = []
    for u in uniq:
        v = memo.get(u)
        if v is None:
            v = tuple(t for t in _re.findall(r"[a-z0-9]+", u) if t not in ENGLISH_STOP_WORDS)
            if len(memo) < 2_000_000:
                memo[u] = v
        sub_lists.append(v)
    lens = np.array([len(v) for v in sub_lists], dtype=np.int64)
    flat_sub = np.array([t for v in sub_lists for t in v], dtype=object)
    offs = np.concatenate(([0], np.cumsum(lens)))
    occ_lens = lens[idx]
    total = int(occ_lens.sum())
    if total == 0:
        return np.empty(0, dtype=object), np.empty(0, dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(occ_lens)))
    flat_idx = (
        np.repeat(offs[idx], occ_lens)
        + np.arange(total, dtype=np.int64)
        - np.repeat(bounds[:-1], occ_lens)
    )
    occ_tok = flat_sub[flat_idx]
    occ_doc = np.repeat(doc_idx, occ_lens)
    return occ_tok, occ_doc


def _empty_counts(key: str = "gram") -> pa.Table:
    return pa.table({key: pa.array([], type=pa.string()), "n": pa.array([], type=pa.int64())})


def ngram_partials(batch: pa.Table, *, n: int = 2, text_column: str = "text") -> pa.Table:
    """Per-batch (gram, n) partial counts of adjacent analyzer-token n-grams
    (never crossing a document boundary). Fully vectorized: join via
    pyarrow binary_join_element_wise, count via value_counts."""
    occ_tok, occ_doc = _doc_token_stream(batch, text_column)
    m = len(occ_tok)
    if m < n:
        return _empty_counts()
    keep = np.ones(m - n + 1, dtype=bool)
    for j in range(1, n):
        keep &= occ_doc[j : m - n + 1 + j] == occ_doc[: m - n + 1]
    idxs = np.flatnonzero(keep)
    if len(idxs) == 0:
        return _empty_counts()
    cols = [pa.array(occ_tok[idxs + j], type=pa.string()) for j in range(n)]
    grams = pc.binary_join_element_wise(*cols, _SEP)
    vc = pc.value_counts(grams)
    return pa.table({"gram": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())})


def _count_reduce(ds, key: str = "gram"):
    """Keyed-exchange exact count reduce of (key, n) partial rows. Output
    keeps the invariant: each distinct key appears in exactly one output row."""

    def merge(group: pa.Table) -> pa.Table:
        agg = group.select([key, "n"]).group_by(key).aggregate([("n", "sum")])
        return agg.rename_columns([key, "n"])

    return keyed_exchange(ds, key, merge)


def _split_gram_columns(tbl: pa.Table, n: int, gram_col: str = "gram") -> dict[str, pa.Array]:
    split = [s.split(_SEP) for s in tbl.column(gram_col).to_pylist()]
    return {f"t{j + 1}": pa.array([p[j] for p in split], type=pa.string()) for j in range(n)}


def ngram_counts_topk(
    ds,
    *,
    n: int = 2,
    k: int = 100,
    text_column: str = "text",
) -> pa.Table:
    """Global top-k adjacent n-grams by exact count (ties: gram ascending).

    Returns a driver-side pyarrow Table of at most k rows with one string
    column per gram position (t1..tn) plus the count. Global top-k ⊆ union
    of per-block local top-k (each gram's exact count lives in exactly one
    post-reduce block), so the driver collects ≤ blocks * k rows."""
    counts = _count_reduce(
        ds.map_batches(lambda b: ngram_partials(b, n=n, text_column=text_column), batch_format="pyarrow"),
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        cnt = batch.column("n").to_numpy(zero_copy_only=False)
        g = np.asarray(batch.column("gram").to_pylist(), dtype=object)
        order = np.lexsort((g, -cnt))[:k]
        return batch.select(["gram", "n"]).take(pa.array(order))

    cand = counts.map_batches(local_topk, batch_format="pyarrow").to_pandas()
    if len(cand) == 0 or "n" not in cand.columns:
        cols = {f"t{j + 1}": pa.array([], type=pa.string()) for j in range(n)}
        cols["n"] = pa.array([], type=pa.int64())
        return pa.table(cols)
    cnt = cand["n"].to_numpy()
    g = cand["gram"].to_numpy()
    order = np.lexsort((g, -cnt))[:k]
    cols = _split_gram_columns(
        pa.table({"gram": pa.array(g[order].tolist(), type=pa.string())}), n
    )
    cols["n"] = pa.array(cnt[order].astype(np.int64))
    return pa.table(cols)


def pmi_bigrams_topk(
    ds,
    *,
    k: int = 50,
    min_count: int = 5,
    text_column: str = "text",
) -> pa.Table:
    """Top-k bigram collocations by PMI (ties: rounded PMI desc, t1, t2 asc).

    PMI(x,y) = ln( (c_xy/N_bi) / ((c_x/N_uni)(c_y/N_uni)) ), computed in the
    exact f64 op order mirrored by the SQL oracle:
        ln(((c_xy * N_uni / c_x) * N_uni / c_y) / N_bi)
    and rounded half-away-from-zero to 6 decimals (DuckDB ROUND). Bigrams
    below min_count are dropped BEFORE the unigram attachment, so the join
    input is already report-shaped.

    Unigram attachment: bigram rows and unigram-count rows are tagged and
    unioned, then co-partitioned by ONE keyed exchange on the gram
    position's token — the count transfers inside the group (no broadcast,
    no driver join). Two passes: t1 then t2.
    """
    import ray.data  # noqa: F401

    bi = _count_reduce(
        ds.map_batches(lambda b: ngram_partials(b, n=2, text_column=text_column), batch_format="pyarrow"),
    )
    uni = _count_reduce(
        ds.map_batches(lambda b: ngram_partials(b, n=1, text_column=text_column), batch_format="pyarrow"),
    ).materialize()
    # totals are exact sums of the (already exact) count tables
    n_uni = int(uni.sum("n") or 0)
    bi = bi.materialize()
    n_bi = int(bi.sum("n") or 0)
    if n_uni == 0 or n_bi == 0:
        return pa.table(
            {
                "t1": pa.array([], type=pa.string()),
                "t2": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
                "pmi": pa.array([], type=pa.float64()),
            }
        )

    def explode(batch: pa.Table) -> pa.Table:
        cols = _split_gram_columns(batch, 2)
        cols["n"] = batch.column("n")
        return pa.table(cols)

    surviving = bi.map_batches(explode, batch_format="pyarrow").filter(
        expr=f"n >= {min_count}"
    )

    def attach(pos_col: str, out_col: str):
        """Return a fn pipeline attaching unigram count of pos_col as out_col."""

        def tag_bi(batch: pa.Table) -> pa.Table:
            cols = {c: batch.column(c) for c in batch.column_names}
            cols["__key"] = batch.column(pos_col)
            cols["__uc"] = pa.nulls(batch.num_rows, type=pa.int64())
            cols["__side"] = pa.array(np.ones(batch.num_rows, dtype=np.int8))
            return pa.table(cols)

        def tag_uni(batch: pa.Table, schema_cols: list[tuple]) -> pa.Table:
            nrows = batch.num_rows
            cols = {}
            for c, typ in schema_cols:
                cols[c] = pa.nulls(nrows, type=typ)
            cols["__key"] = batch.column("gram")
            cols["__uc"] = batch.column("n")
            cols["__side"] = pa.array(np.zeros(nrows, dtype=np.int8))
            return pa.table(cols)

        def resolve(group: pa.Table) -> pa.Table:
            side = group.column("__side").to_numpy(zero_copy_only=False)
            keys = np.asarray(group.column("__key").to_pylist(), dtype=object)
            ucs = group.column("__uc").to_numpy(zero_copy_only=False)
            lut = {k: int(c) for k, c in zip(keys[side == 0], ucs[side == 0])}
            bidx = np.flatnonzero(side == 1)
            sub = group.take(pa.array(bidx))
            attached = pa.array(
                [lut.get(x, 0) for x in keys[bidx]], type=pa.int64()
            )
            out = {
                c: sub.column(c)
                for c in sub.column_names
                if c not in ("__key", "__uc", "__side")
            }
            out[out_col] = attached
            return pa.table(out)

        return tag_bi, tag_uni, resolve

    cur = surviving
    for pos_col, out_col in (("t1", "c_x"), ("t2", "c_y")):
        tag_bi, tag_uni, resolve = attach(pos_col, out_col)
        sch = cur.schema()
        schema_cols = tuple(zip(sch.names, sch.types))
        bi_tagged = cur.map_batches(tag_bi, batch_format="pyarrow")
        uni_tagged = uni.map_batches(
            lambda b, sc=schema_cols: tag_uni(b, list(sc)), batch_format="pyarrow"
        )
        cur = keyed_exchange([bi_tagged, uni_tagged], "__key", resolve)

    def score_topk(batch: pa.Table) -> pa.Table:
        cxy = batch.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        cx = batch.column("c_x").to_numpy(zero_copy_only=False).astype(np.float64)
        cy = batch.column("c_y").to_numpy(zero_copy_only=False).astype(np.float64)
        pmi = np.log(((cxy * n_uni / cx) * n_uni / cy) / n_bi)
        # half-away rounding to 6 decimals, matching DuckDB ROUND
        r = np.sign(pmi) * np.floor(np.abs(pmi) * 1e6 + 0.5) / 1e6
        t1 = np.asarray(batch.column("t1").to_pylist(), dtype=object)
        t2 = np.asarray(batch.column("t2").to_pylist(), dtype=object)
        order = np.lexsort((t2, t1, -r))[:k]
        return pa.table(
            {
                "t1": pa.array(t1[order].tolist(), type=pa.string()),
                "t2": pa.array(t2[order].tolist(), type=pa.string()),
                "n": batch.column("n").take(pa.array(order)),
                "pmi": pa.array(r[order], type=pa.float64()),
            }
        )

    cand = cur.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    if len(cand) == 0 or "t1" not in cand.columns:
        return pa.table(
            {
                "t1": pa.array([], type=pa.string()),
                "t2": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
                "pmi": pa.array([], type=pa.float64()),
            }
        )
    t1 = cand["t1"].to_numpy()
    t2 = cand["t2"].to_numpy()
    r = cand["pmi"].to_numpy()
    order = np.lexsort((t2, t1, -r))[:k]
    return pa.table(
        {
            "t1": pa.array(t1[order].tolist(), type=pa.string()),
            "t2": pa.array(t2[order].tolist(), type=pa.string()),
            "n": pa.array(cand["n"].to_numpy()[order].astype(np.int64)),
            "pmi": pa.array(r[order], type=pa.float64()),
        }
    )


def doc_term_partials(batch: pa.Table, *, id_column: str = "doc_id", text_column: str = "text") -> pa.Table:
    """Exact per-document (doc_id, tok, tf) rows — exact, not partial,
    because each document is wholly contained in one input row/batch."""
    occ_tok, occ_doc = _doc_token_stream(batch, text_column)
    ids = batch.column(id_column).to_numpy(zero_copy_only=False)
    if len(occ_tok) == 0:
        return pa.table(
            {
                id_column: pa.array([], type=batch.column(id_column).type),
                "tok": pa.array([], type=pa.string()),
                "tf": pa.array([], type=pa.int64()),
            }
        )
    # count per (doc, tok) via a composite key join, vectorized
    docs = pa.array(ids[occ_doc])
    toks = pa.array(occ_tok, type=pa.string())
    tbl = pa.table({id_column: docs, "tok": toks})
    agg = tbl.group_by([id_column, "tok"]).aggregate([([], "count_all")])
    return pa.table(
        {
            id_column: agg.column(id_column),
            "tok": agg.column("tok"),
            "tf": pc.cast(agg.column("count_all"), pa.int64()),
        }
    )


def tfidf_top_terms(
    ds,
    *,
    k: int = 3,
    id_column: str = "doc_id",
    text_column: str = "text",
):
    """Per-document top-k terms by tf·idf, idf = ln(N_docs / df) in the exact
    f64 op order `tf * ln(N * 1.0 / df)` mirrored by the SQL oracle, rounded
    half-away to 6 decimals; ties by token ascending. Output columns:
    (doc_id, rank, tok, tfidf).

    Two bounded shuffles: a keyed exchange on tok (df computed in-bucket
    from the exact (doc, tok, tf) rows and attached — no vocab broadcast),
    then groupby(doc) for the per-doc top-k. Reference analog: MoreLikeThis
    interesting-terms ranking (Queries/Mlt/MoreLikeThis.cs:664)."""
    import ray.data  # noqa: F401

    n_docs = ds.count()
    rows = ds.map_batches(
        lambda b: doc_term_partials(b, id_column=id_column, text_column=text_column),
        batch_format="pyarrow",
    )
    def attach_df(group: pa.Table) -> pa.Table:
        # each (doc, tok) appears exactly once globally → df = row count per tok
        toks = np.asarray(group.column("tok").to_pylist(), dtype=object)
        tu, inv, cnts = np.unique(toks, return_inverse=True, return_counts=True)
        tf = group.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        df = cnts[inv].astype(np.float64)
        s = tf * np.log(n_docs * 1.0 / df)
        r = np.sign(s) * np.floor(np.abs(s) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                id_column: group.column(id_column),
                "tok": group.column("tok"),
                "tfidf": pa.array(r, type=pa.float64()),
            }
        )

    def doc_topk(group: pa.Table) -> pa.Table:
        s = group.column("tfidf").to_numpy(zero_copy_only=False)
        t = np.asarray(group.column("tok").to_pylist(), dtype=object)
        order = np.lexsort((t, -s))[:k]
        sub = group.take(pa.array(order))
        return pa.table(
            {
                id_column: sub.column(id_column),
                "rank": pa.array(np.arange(1, sub.num_rows + 1, dtype=np.int64)),
                "tok": sub.column("tok"),
                "tfidf": sub.column("tfidf"),
            }
        )

    scored = keyed_exchange(rows, "tok", attach_df)
    return scored.groupby(id_column).map_groups(doc_topk, batch_format="pyarrow")
