"""Text-analysis operators for large-scale training-data pipelines.

All are batch transforms over Arrow batches (map_batches, zero-copy in),
designed to stream: no full materialization, no cross-row state. Formulas are
deliberately expressible in ANSI SQL so the driver's DuckDB oracle can verify
them value-exactly (see __ray_entry__.oracle_sql).

Round-2 vectorization (the round-1 kernels looped Python per row/char in the
innermost loop of 10^12-row pipelines): counting runs on Arrow compute
(``count_substring_regex``), analyzer/stopword/marker work runs once per
UNIQUE whitespace token (dictionary-encode + process-wide memo — the same
pattern as the segment builder, state/segment.py), and per-doc combination is
integer numpy (bincount / add.at). The rolling-hash fingerprint is a closed
form in mod-2^64 arithmetic (natural uint64 wraparound), so the doc combine
is one vectorized multiply-add instead of a per-character loop.

Operators: per-doc token counting (analyzer + whitespace + BPE-ish regex),
language ID (stopword-list n-gram heuristic), quality scoring
(length/punct/stopword ratios), and document fingerprinting (rolling hash).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.analysis import ENGLISH_STOP_WORDS, Analyzer
from .exchange import keyed_exchange

# A BPE-ish pre-tokenization regex (GPT-2 style, simplified): word pieces,
# numbers, punctuation runs. The three alternatives match disjoint character
# classes, so re2 (Arrow) and Python re count identical non-overlapping runs.
BPE_RE_STR = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]+"

# Tiny seed stopword lists per language for the n-gram/stopword heuristic.
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "is", "of", "to", "in", "a", "that", "it", "for"),
    "es": ("el", "la", "de", "que", "y", "en", "los", "se", "del", "las"),
    "de": ("der", "die", "und", "das", "ist", "von", "den", "mit", "für", "auf"),
    "fr": ("le", "la", "et", "les", "des", "est", "un", "une", "dans", "que"),
}
_SORTED_LANGS = sorted(LANG_MARKERS)

_analyzer = Analyzer()
_TERM_COUNT_MEMO: dict[str, int] = {}  # unique ws token -> analyzer term count
_QUALITY_TOK_MEMO: dict[str, tuple[int, int]] = {}  # token -> (nonempty, n_alnum)


def md5_hex_utf8(col: "pa.Array | pa.ChunkedArray") -> list[str]:
    """md5 hex digest per string, hashing the Arrow utf8 data buffer directly
    (memoryview slices — no per-row Python str materialization / re-encode).
    Matches DuckDB's md5(text) byte-for-byte, so SQL-oracled dedup entries
    stay hash-exact."""
    import hashlib

    chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
    out: list[str] = []
    for ch in chunks:
        if len(ch) == 0:
            continue
        odt = np.int64 if pa.types.is_large_string(ch.type) else np.int32
        offs = np.frombuffer(ch.buffers()[1], dtype=odt)[ch.offset : ch.offset + len(ch) + 1]
        buf = ch.buffers()[2]
        mv = memoryview(buf) if buf is not None else memoryview(b"")
        out.extend(hashlib.md5(mv[offs[i] : offs[i + 1]]).hexdigest() for i in range(len(ch)))
    return out


def _split_ws(batch: pa.Table, text_column: str):
    """(flat unique-encoded ws tokens, per-occurrence doc index, n_docs).

    Uses utf8_split_whitespace + dictionary_encode; empty tokens (leading/
    trailing whitespace artifacts) are kept in the stream and must be handled
    by the per-unique lookup (they contribute 0 everywhere)."""
    col = batch.column(text_column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    ws = pc.utf8_split_whitespace(col)
    counts = pc.list_value_length(ws).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(ws)
    denc = flat.dictionary_encode()
    if isinstance(denc, pa.ChunkedArray):
        denc = denc.combine_chunks()
    idx = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq = denc.dictionary.to_pylist()
    doc_idx = np.repeat(np.arange(len(col), dtype=np.int64), counts)
    return uniq, idx, doc_idx, len(col)


def token_count_batch(batch: pa.Table, *, text_column: str = "text") -> pa.Table:
    """Per-doc token counts: whitespace, analyzer (post-stop), and BPE-ish.

    Columns out: doc id passthrough + n_ws / n_terms / n_bpe (int64).
    """
    col = batch.column(text_column)
    n_bpe = pc.count_substring_regex(col, BPE_RE_STR).to_numpy(zero_copy_only=False).astype(np.int64)
    # analyzer term counts: analyze only the UNIQUE ws tokens (tokens never
    # span whitespace), then expand per occurrence and bincount per doc;
    # n_ws (maximal \S+ runs == non-empty ws tokens) rides the same split
    uniq, idx, doc_idx, n = _split_ws(batch, text_column)
    memo = _TERM_COUNT_MEMO
    uc = np.empty(len(uniq), dtype=np.int64)
    nonempty_u = np.empty(len(uniq), dtype=np.int64)
    for i, u in enumerate(uniq):
        v = memo.get(u)
        if v is None:
            v = len(_analyzer(u))
            if len(memo) < 2_000_000:
                memo[u] = v
        uc[i] = v
        nonempty_u[i] = 1 if u else 0
    n_ws = np.bincount(
        doc_idx, weights=nonempty_u[idx].astype(np.float64), minlength=n
    ).astype(np.int64)
    n_terms = np.bincount(doc_idx, weights=uc[idx].astype(np.float64), minlength=n).astype(np.int64)
    out = {c: batch.column(c) for c in batch.column_names if c != text_column}
    out.update(
        {
            "n_ws": pa.array(n_ws),
            "n_terms": pa.array(n_terms),
            "n_bpe": pa.array(n_bpe),
        }
    )
    return pa.table(out)


def lang_id_batch(batch: pa.Table, *, text_column: str = "text") -> pa.Table:
    """Heuristic language ID: argmax of per-language marker-word hit counts.

    Deterministic tie-break: higher count wins, then language code ascending;
    docs with zero hits everywhere get 'und'. SQL-expressible (the oracle
    reproduces the same counts with list_filter + the same word lists).
    """
    uniq, idx, doc_idx, n = _split_ws(batch, text_column)
    uniq_np = np.asarray(uniq, dtype=object)
    counts = np.zeros((len(_SORTED_LANGS), n), dtype=np.int64)
    for li, lang in enumerate(_SORTED_LANGS):
        member = np.isin(uniq_np, np.asarray(LANG_MARKERS[lang], dtype=object))
        occ = member[idx]
        if occ.any():
            counts[li] = np.bincount(doc_idx[occ], minlength=n)
    best_n = counts.max(axis=0)
    best_li = counts.argmax(axis=0)  # first max = lang-code-ascending tie-break
    langs = np.where(best_n > 0, np.asarray(_SORTED_LANGS, dtype=object)[best_li], "und")
    out = {c: batch.column(c) for c in batch.column_names if c != text_column}
    out["pred_lang"] = pa.array(langs.tolist(), type=pa.string())
    out["marker_hits"] = pa.array(best_n, type=pa.int64())
    return pa.table(out)


def quality_score_batch(batch: pa.Table, *, text_column: str = "text") -> pa.Table:
    """Quality features + score, all with SQL-parity integer/float math:

      n_chars, n_tokens (whitespace), stop_ratio = stopword tokens / tokens,
      alpha_ratio = alnum chars / chars,
      score = stop_ratio * 0.5 + least(n_tokens, 100)/100 * 0.3 + alpha_ratio * 0.2
    """
    col = batch.column(text_column)
    n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.int64)
    uniq, idx, doc_idx, n = _split_ws(batch, text_column)
    # n_tokens / n_alpha derived from the SAME split instead of two extra
    # full-text RE2 scans (a measured ~10x on this kernel); RE2's [\pL\pN]
    # char class is exactly Python str.isalnum (categories L* + Nd/Nl/No);
    # per-UNIQUE-token counts are memoized across batches like the analyzer
    # term counts. SEMANTICS NOTE: n_tokens counts non-empty UNICODE-
    # whitespace-split tokens (str.split), the boundary the sibling n_stop
    # count has always used — which differs from RE2's ASCII-only \s for
    # docs containing NBSP/U+3000/etc (those now separate tokens, arguably
    # the better definition); stages/packing.py keeps the ASCII \S+ rule,
    # so budget/packing token totals can differ on such docs.
    memo = _QUALITY_TOK_MEMO
    nonempty_u = np.empty(len(uniq), dtype=np.int64)
    alnum_u = np.empty(len(uniq), dtype=np.int64)
    for i, u in enumerate(uniq):
        v = memo.get(u)
        if v is None:
            v = (1 if u else 0, sum(c.isalnum() for c in u))
            if len(memo) < 2_000_000:
                memo[u] = v
        nonempty_u[i] = v[0]
        alnum_u[i] = v[1]
    n_tokens = np.bincount(
        doc_idx, weights=nonempty_u[idx].astype(np.float64), minlength=n
    ).astype(np.int64)
    n_alpha = np.bincount(
        doc_idx, weights=alnum_u[idx].astype(np.float64), minlength=n
    ).astype(np.int64)
    stop_member = np.isin(np.asarray(uniq, dtype=object), np.asarray(sorted(ENGLISH_STOP_WORDS), dtype=object))
    occ = stop_member[idx]
    n_stop = np.bincount(doc_idx[occ], minlength=n).astype(np.int64) if occ.any() else np.zeros(n, dtype=np.int64)
    stop_ratio = np.divide(n_stop, n_tokens, out=np.zeros(n, dtype=np.float64), where=n_tokens > 0)
    alpha_ratio = np.divide(n_alpha, n_chars, out=np.zeros(n, dtype=np.float64), where=n_chars > 0)
    score = stop_ratio * 0.5 + np.minimum(n_tokens, 100) / 100.0 * 0.3 + alpha_ratio * 0.2
    quality = [round(float(s), 6) for s in score]  # Python round, as round 1
    out = {c: batch.column(c) for c in batch.column_names if c != text_column}
    out.update(
        {
            "n_chars": pa.array(n_chars),
            "n_tokens": pa.array(n_tokens),
            "n_stop": pa.array(n_stop),
            "n_alpha": pa.array(n_alpha),
            "quality": pa.array(quality, type=pa.float64()),
        }
    )
    return pa.table(out)


FP_BASE = np.uint64(1_000_003)
FP_CHAR_BASE = np.uint64(131)
_WORD_HASH_MEMO: dict[str, int] = {}
_FP_POWS = None  # lazily-grown powers of FP_BASE mod 2^64


def _word_hash(w: str) -> int:
    """Per-word polynomial hash mod 2^64 (memoized per unique token)."""
    h = _WORD_HASH_MEMO.get(w)
    if h is None:
        hv = np.uint64(0)
        cb = FP_CHAR_BASE
        with np.errstate(over="ignore"):
            for cp in map(ord, w):
                hv = hv * cb + np.uint64(cp)
        h = int(hv)
        if len(_WORD_HASH_MEMO) < 2_000_000:
            _WORD_HASH_MEMO[w] = h
    return h


def _fp_pows(n: int) -> np.ndarray:
    global _FP_POWS
    if _FP_POWS is None or _FP_POWS.size < n:
        size = max(n, 1024)
        with np.errstate(over="ignore"):
            _FP_POWS = np.concatenate(
                ([np.uint64(1)], np.cumprod(np.full(size - 1, FP_BASE, dtype=np.uint64)))
            )
    return _FP_POWS


def fingerprint_batch(batch: pa.Table, *, text_column: str = "text") -> pa.Table:
    """Order-sensitive document fingerprint: polynomial rolling hash over the
    whitespace token stream in mod-2^64 arithmetic. Equal texts => equal
    fingerprints; cheap pre-filter for exact dedup at scale (8 bytes instead
    of a 32-byte sha). Closed form — per-token weight is FP_BASE^(L-1-i), so
    the doc combine is one vectorized multiply-add over all occurrences.
    """
    uniq, idx, doc_idx, n = _split_ws(batch, text_column)
    # drop '' artifacts of utf8_split_whitespace so the stream == text.split()
    uniq_np = np.asarray(uniq, dtype=object)
    keep = (uniq_np[idx] != "") if len(uniq) else np.zeros(0, dtype=bool)
    occ_doc = doc_idx[keep]
    uhash = np.fromiter((_word_hash(u) for u in uniq), dtype=np.uint64, count=len(uniq))
    occ_h = uhash[idx[keep]]
    # per-doc occurrence position -> exponent L-1-i
    L = np.bincount(occ_doc, minlength=n).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(L)[:-1]))
    pos = np.arange(occ_doc.size, dtype=np.int64) - starts[occ_doc]
    exp = L[occ_doc] - 1 - pos
    pows = _fp_pows(int(L.max()) + 1 if n and L.size else 1)
    with np.errstate(over="ignore"):
        contrib = (occ_h + np.uint64(1)) * pows[exp]
        fps = np.zeros(n, dtype=np.uint64)
        np.add.at(fps, occ_doc, contrib)
    out = {c: batch.column(c) for c in batch.column_names if c != text_column}
    out["fingerprint"] = pa.array(fps.view(np.int64), type=pa.int64())
    return pa.table(out)


def repetition_stats_batch(batch: pa.Table, *, text_column: str = "text") -> pa.Table:
    """Gopher-style repetition signals (Rae et al. 2021 §A1.1 quality
    filters — the standard web-corpus repetition rules): per doc over
    whitespace tokens,

      top_token_frac  = occurrences of the most frequent token / n_tokens
      distinct_frac   = distinct tokens / n_tokens
      top_2gram_frac  = occurrences of the most frequent bigram / (n_tokens-1)

    Docs dominated by one token/bigram or with collapsed vocabulary are
    boilerplate/spam candidates. Fully vectorized: ONE dictionary-encode of
    the batch's tokens, lexsort run-length counting for per-(doc, token)
    and per-(doc, bigram) tallies — no hashing, so counts are EXACT and
    SQL-oracle-parity. Ratios rounded half-away at 6 decimals."""
    uniq, idx, doc_idx, n = _split_ws(batch, text_column)
    nonempty = np.fromiter((len(u) > 0 for u in uniq), dtype=bool, count=len(uniq))
    keep = nonempty[idx] if idx.size else np.zeros(0, dtype=bool)
    idx, doc_idx = idx[keep], doc_idx[keep]
    n_tok = np.bincount(doc_idx, minlength=n).astype(np.int64)

    def _run_max_per_doc(keys: tuple, docs: np.ndarray) -> np.ndarray:
        """max run length per doc, runs = equal tuples of (docs, *keys)."""
        out = np.zeros(n, dtype=np.int64)
        m = docs.size
        if m == 0:
            return out
        order = np.lexsort(keys[::-1] + (docs,))
        cols = [docs[order]] + [k[order] for k in keys]
        change = np.zeros(m - 1, dtype=bool) if m > 1 else np.zeros(0, dtype=bool)
        for c in cols:
            if m > 1:
                change |= c[1:] != c[:-1]
        starts = np.concatenate(([0], np.flatnonzero(change) + 1, [m]))
        lens = np.diff(starts)
        rdocs = cols[0][starts[:-1]]
        # max run per doc: sort runs by (doc, -len), take first of each doc
        o2 = np.lexsort((-lens, rdocs))
        d2, l2 = rdocs[o2], lens[o2]
        firsts = np.concatenate(([True], d2[1:] != d2[:-1]))
        out[d2[firsts]] = l2[firsts]
        return out

    top_tok = _run_max_per_doc((idx,), doc_idx)
    # distinct tokens per doc = number of (doc, token) runs per doc
    distinct = np.zeros(n, dtype=np.int64)
    if doc_idx.size:
        order = np.lexsort((idx, doc_idx))
        d2, i2 = doc_idx[order], idx[order]
        firsts = np.concatenate(([True], (d2[1:] != d2[:-1]) | (i2[1:] != i2[:-1])))
        distinct = np.bincount(d2[firsts], minlength=n).astype(np.int64)
    # bigrams: consecutive same-doc token pairs
    if doc_idx.size > 1:
        same = doc_idx[1:] == doc_idx[:-1]
        top_bi = _run_max_per_doc((idx[:-1][same], idx[1:][same]), doc_idx[:-1][same])
    else:
        top_bi = np.zeros(n, dtype=np.int64)

    def _frac(num, den):
        f = np.divide(num, den, out=np.zeros(n, dtype=np.float64), where=den > 0)
        return np.floor(f * 1e6 + 0.5) / 1e6

    out = {c: batch.column(c) for c in batch.column_names if c != text_column}
    out.update({
        "n_tokens": pa.array(n_tok),
        "top_token_frac": pa.array(_frac(top_tok, n_tok)),
        "distinct_frac": pa.array(_frac(distinct, n_tok)),
        "top_2gram_frac": pa.array(_frac(top_bi, np.maximum(n_tok - 1, 0))),
    })
    return pa.table(out)


def lm_quality_scores(
    ds: "ray.data.Dataset",
    reference_ds: "ray.data.Dataset | None" = None,
    *,
    text_column: str = "text",
    grams: int = 2,
) -> "ray.data.Dataset":
    """Language-model quality scoring (the perplexity-filter stage of LLM
    data pipelines, public CCNet/GPT-3 methodology): train a stupid-backoff
    n-gram LM on ``reference_ds`` (default: the corpus itself) with ONE Ray
    aggregation, broadcast the model-sized count table via ray.put, and give
    every doc its mean token log-probability (higher = more natural text).
    Adds ``lm_logprob`` (float64). Deterministic; rows-only check (no SQL
    analog for the backoff LM)."""
    import math

    import ray

    from ..pipelines.suggest import FreeTextSuggester

    sg = FreeTextSuggester(reference_ds or ds, text_column=text_column, grams=grams)
    counts_ref = ray.put((sg.count_table(), sg._total_uni))
    analyzer = sg._analyzer
    alpha = FreeTextSuggester.ALPHA
    floor = 1e-9

    def score(batch: pa.Table) -> pa.Table:
        counts, total_uni = ray.get(counts_ref)
        out = []
        for text in batch.column(text_column).to_pylist():
            toks = analyzer(text)
            if not toks:
                out.append(math.log(floor))
                continue
            lp = 0.0
            for i, tok in enumerate(toks):
                p = 0.0
                # longest context first, stupid backoff
                for order in range(min(i, grams - 1), -1, -1):
                    ctx = " ".join(toks[i - order : i])
                    gram = (ctx + " " + tok) if ctx else tok
                    c = counts.get(gram)
                    if c:
                        denom = counts.get(ctx, 0) if order else total_uni
                        if denom:
                            p = (alpha ** (min(i, grams - 1) - order)) * c / denom
                            break
                lp += math.log(max(p, floor))
            out.append(lp / len(toks))
        return batch.append_column("lm_logprob", pa.array(out, type=pa.float64()))

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# PII scrub / redaction
# ---------------------------------------------------------------------------

PII_PATTERNS = {
    # RE2 syntax (pyarrow and DuckDB both compile these with RE2, so the
    # Ray operator and the SQL oracle see identical match semantics)
    "email": r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}",
    "phone": r"\d{2}-\d{3}-\d{3}-\d{4}",
    "ip": r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}",
}


def pii_scrub(
    ds,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
    patterns: dict[str, str] | None = None,
    order: tuple[str, ...] = ("email", "phone", "ip"),
):
    """Redact PII-shaped substrings from a text column, streaming.

    Per batch: counts per pattern are taken on the ORIGINAL text (one
    vectorized ``count_substring_regex`` per pattern), then replacements are
    applied sequentially in ``order`` (email before ip so an address's dotted
    local part can never be half-eaten by the ip pattern). Patterns compile
    once per process inside Arrow's RE2 cache; no Python row loop. Returns
    (id, n_<pattern>... , scrubbed). Purely element-wise — embarrassingly
    parallel at any scale."""
    import pyarrow as pa
    import pyarrow.compute as pc

    pats = patterns or PII_PATTERNS

    def scrub(batch: pa.Table) -> pa.Table:
        txt = batch.column(text_column)
        cols = {id_column: batch.column(id_column)}
        for name, pat in pats.items():
            cols[f"n_{name}"] = pc.count_substring_regex(txt, pat).cast(pa.int64())
        red = txt
        for name in order:
            red = pc.replace_substring_regex(red, pats[name], f"<{name.upper()}>")
        cols["scrubbed"] = red
        return pa.table(cols)

    return ds.map_batches(scrub, batch_format="pyarrow")


def _group_term_partials(
    batch: pa.Table, *, group_column: str, text_column: str
) -> pa.Table:
    """Per-batch (group, token, n) partial counts with the _TOKS_CTE analyzer
    semantics ([a-z0-9]+ runs minus stopwords) — the combiner before the
    trending-terms shuffle. Analysis runs once per UNIQUE ws token (memoized
    subtoken lists), expansion and pair counting are numpy."""
    import re as _re

    uniq, idx, doc_idx, n = _split_ws(batch, text_column)
    memo = _SUBTOK_MEMO
    sub_lists = []
    for u in uniq:
        v = memo.get(u)
        if v is None:
            v = tuple(
                t for t in _re.findall(r"[a-z0-9]+", u) if t not in ENGLISH_STOP_WORDS
            )
            if len(memo) < 2_000_000:
                memo[u] = v
        sub_lists.append(v)
    lens = np.array([len(v) for v in sub_lists], dtype=np.int64)
    flat_sub = np.array(
        [t for v in sub_lists for t in v], dtype=object
    )
    offs = np.concatenate(([0], np.cumsum(lens)))
    occ_lens = lens[idx]
    total = int(occ_lens.sum())
    groups = batch.column(group_column).to_numpy(zero_copy_only=False)
    if total == 0:
        return pa.table(
            {
                group_column: pa.array([], type=batch.column(group_column).type),
                "tok": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
            }
        )
    bounds = np.concatenate(([0], np.cumsum(occ_lens)))
    flat_idx = (
        np.repeat(offs[idx], occ_lens)
        + np.arange(total, dtype=np.int64)
        - np.repeat(bounds[:-1], occ_lens)
    )
    occ_tok = flat_sub[flat_idx]
    occ_grp = groups[np.repeat(doc_idx, occ_lens)]
    gu, gcodes = np.unique(occ_grp, return_inverse=True)
    tu, tcodes = np.unique(occ_tok, return_inverse=True)
    combined = gcodes.astype(np.int64) * len(tu) + tcodes
    pairs, counts = np.unique(combined, return_counts=True)
    return pa.table(
        {
            group_column: pa.array((gu[pairs // len(tu)]).tolist()),
            "tok": pa.array((tu[pairs % len(tu)]).tolist(), type=pa.string()),
            "n": pa.array(counts.astype(np.int64)),
        }
    )


_SUBTOK_MEMO: dict[str, tuple] = {}


def top_terms_per_group(
    ds: "ray.data.Dataset",
    *,
    group_column: str = "lang",
    text_column: str = "text",
    k: int = 5,
) -> "ray.data.Dataset":
    """Trending terms: the top-k analyzer tokens per group by exact count
    (ties by token asc) — the windowed/grouped text top-k every corpus
    dashboard and data-mixing report needs.

    Plan: per-batch (group, token) partial counts (combiner BEFORE the
    shuffle), ONE keyed exchange on (group, token) with an in-bucket lexsort run-length
    merge (the repo's standard reduce — Ray's per-key aggregate measured
    ~6x slower on mostly-unique keys), then a len(groups)-sized final top-k
    pass. Exchange rows ~ distinct (batch, group, token), never token
    occurrences."""
    import ray.data  # noqa: F401

    def partials(batch: pa.Table) -> pa.Table:
        return _group_term_partials(
            batch, group_column=group_column, text_column=text_column
        )

    def merge(group: pa.Table) -> pa.Table:
        g = np.asarray(group.column(group_column).to_pylist(), dtype=object)
        t = np.asarray(group.column("tok").to_pylist(), dtype=object)
        n = group.column("n").to_numpy(zero_copy_only=False)
        gu, gc = np.unique(g, return_inverse=True)
        tu, tc = np.unique(t, return_inverse=True)
        combined = gc.astype(np.int64) * len(tu) + tc
        order = np.argsort(combined, kind="stable")
        c2, n2 = combined[order], n[order]
        newrun = np.concatenate(([True], c2[1:] != c2[:-1]))
        starts = np.flatnonzero(newrun)
        sums = np.add.reduceat(n2, starts)
        keys = c2[starts]
        return pa.table(
            {
                group_column: pa.array((np.asarray(gu, dtype=object)[keys // len(tu)]).tolist()),
                "tok": pa.array((np.asarray(tu, dtype=object)[keys % len(tu)]).tolist(), type=pa.string()),
                "n": pa.array(sums.astype(np.int64)),
            }
        )

    def topk(group: pa.Table) -> pa.Table:
        n = group.column("n").to_numpy(zero_copy_only=False)
        t = np.asarray(group.column("tok").to_pylist(), dtype=object)
        order = np.lexsort((t, -n))[:k]
        return group.take(pa.array(order))

    counts = keyed_exchange(
        ds.map_batches(partials, batch_format="pyarrow"), [group_column, "tok"], merge
    )
    return counts.groupby(group_column).map_groups(topk, batch_format="pyarrow")
