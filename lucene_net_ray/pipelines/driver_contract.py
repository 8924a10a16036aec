"""Driver-contract implementations: queries() callables + matching DuckDB SQL.

Each operator from SURVEY.md §2 (plus the training-data-pipeline operators)
gets a callable(sf_dir) running the REAL Ray pipelines over the driver's
test tables, and — where SQL-expressible — an independent ANSI-SQL oracle
string producing identically-named columns with identical values.

Float policy: BM25 entries rank/score in float64 using the engine's index
data (postings, byte315 norm bytes, global stats all come from the built
index; only the final arithmetic is f64 so DuckDB can reproduce it exactly —
the byte315 quantization is embedded in the SQL as a length->decoded-norm
bucket table from norms.length_bucket_table). The engine's float32
Lucene-exact scoring path is verified separately against the brute-force
oracle in tests/.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ..functions.analysis import ENGLISH_STOP_WORDS
from ..functions.norms import BYTE315_DECODE, NORM_TABLE, length_bucket_table
from ..state.index import IndexMeta
from ..state.segment import SegmentReader

K1, B = 1.2, 0.75
STOPS_SQL = ", ".join(f"'{w}'" for w in sorted(ENGLISH_STOP_WORDS))
TOK_RE_SQL = "[a-z0-9]+"

# fixed query constants over the driver's documents vocabulary
TERM = "merge"
OR_TERMS = ("merge", "spark", "window")
AND_TERMS = ("merge", "spark")
MSM_TERMS = ("merge", "spark", "window", "vector")
PHRASE_TERMS = ("merge", "spark")
TOPK = 10

_TOKS_CTE = (
    "toks AS (SELECT doc_id, unnest(list_filter(regexp_extract_all(text, '[a-z0-9]+'), "
    f"t -> t NOT IN ({STOPS_SQL}))) AS tok FROM documents)"
)


# ---------------------------------------------------------------------------
# shared: per-sf index build (cached, resumable)
# ---------------------------------------------------------------------------

def _index_for(sf_dir: str) -> tuple[IndexMeta, np.ndarray]:
    """Build (or reuse) an index over sf_dir/documents.parquet.

    Returns (IndexMeta, orig_doc_id array indexed by engine-global docID).
    """
    from .build import build_index

    slug = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    out = os.path.join("/tmp", "lnr_index_cache3", slug)
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "manifest.json")):
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            content_column="text",
            stored_columns=("doc_id", "lang", "n_chars", "source"),
            target_rows_per_segment=2000,
            index_options="positions",
        )
    meta = IndexMeta(out)
    parts = []
    for d in meta.segment_dirs:
        parts.append(pq.read_table(os.path.join(d, "docs.parquet"), columns=["doc_id"]))
    orig = pa.concat_tables(parts).column("doc_id").to_numpy()
    return meta, orig


def _documents_ds(sf_dir: str) -> ray.data.Dataset:
    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))


def _bm25_f64(meta: IndexMeta, orig: np.ndarray, terms: list[str]) -> dict[str, dict[int, float]]:
    """Per-term f64 BM25 partial scores keyed by ORIGINAL doc_id.

    Mirrors the SQL formula exactly: avgdl = sum_ttf*1.0/N,
    idf = ln(1 + (N - df + 0.5)/(df + 0.5)),
    score = idf*2.2*tf/(tf + 1.2*((1-0.75) + 0.75*dl_dec/avgdl)),
    dl_dec = float64(NORM_TABLE[norm_byte]).
    """
    readers = [SegmentReader(d) for d in meta.segment_dirs]
    n_docs = meta.max_doc
    avgdl = meta.sum_ttf * 1.0 / n_docs
    out: dict[str, dict[int, float]] = {}
    for t in terms:
        df = sum(r.term_stats(t)[0] for r in readers)
        scores: dict[int, float] = {}
        if df > 0:
            idf = math.log(1 + (n_docs - df + 0.5) / (df + 0.5))
            for r in readers:
                docids, tfs = r.postings(t)
                if docids.size == 0:
                    continue
                dl_dec = NORM_TABLE[r.norms[docids]].astype(np.float64)
                cache = 1.2 * ((1 - 0.75) + 0.75 * dl_dec / avgdl)
                s = idf * 2.2 * tfs.astype(np.float64) / (tfs + cache)
                gids = docids + r.doc_base
                for g, sc in zip(gids.tolist(), s.tolist()):
                    scores[int(orig[g])] = sc
        out[t] = scores
    return out


def _topk_frame(scores: dict[int, float], k: int = TOPK) -> pd.DataFrame:
    # rank by the ROUNDED score: raw f64 sums differ between numpy and DuckDB
    # in the last ulps (summation order / parallel aggregation), which would
    # flip ranks of near-ties
    items = sorted(
        scores.items(), key=lambda kv: (-(math.floor(kv[1] * 1e4 + 0.5) / 1e4), kv[0])
    )[:k]
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(items) + 1, dtype=np.int64),
            "doc_id": np.array([d for d, _ in items], dtype=np.int64),
            "score": np.array(
                [math.floor(s * 1e4 + 0.5) / 1e4 for _, s in items], dtype=np.float64
            ),  # half-away rounding, matching DuckDB ROUND
        }
    )


def _bm25_rank_sql(terms: tuple[str, ...], having: str | None = None, k: int = TOPK) -> str:
    """BM25 top-k SQL: per-term GLOBAL df (Lucene semantics — df is the term's
    docFreq across the whole index even under MUST/minShouldMatch
    restriction), doc filter applied only to which docs get scored."""
    buckets = length_bucket_table(1_000_000)
    bucket_rows = ", ".join(f"({lo}, {hi}, {float(NORM_TABLE[b])!r})" for lo, hi, b in buckets)
    tl = ", ".join(f"'{t}'" for t in terms)
    sel_cte = (
        f",\nsel AS (SELECT doc_id FROM tfs GROUP BY doc_id HAVING count(*) {having})"
        if having
        else ""
    )
    sel_where = "WHERE tfs.doc_id IN (SELECT doc_id FROM sel)" if having else ""
    return f"""
WITH {_TOKS_CTE},
dl AS (SELECT doc_id, count(*) AS n_terms FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n_docs,
         (SELECT count(*) FROM toks) AS sum_ttf
),
buckets(lo, hi, dl_dec) AS (VALUES {bucket_rows}),
tfs AS (SELECT doc_id, tok, count(*) AS tf FROM toks WHERE tok IN ({tl}) GROUP BY doc_id, tok),
dfs AS (SELECT tok, count(*) AS df FROM tfs GROUP BY tok){sel_cte},
scored AS (
  SELECT tfs.doc_id,
         sum(
           ln(1 + ((SELECT n_docs FROM stats) - dfs.df + 0.5) / (dfs.df + 0.5))
           * 2.2 * tfs.tf
           / (tfs.tf + 1.2 * ((1 - 0.75) + 0.75 * b.dl_dec
                / ((SELECT sum_ttf FROM stats) * 1.0 / (SELECT n_docs FROM stats))))
         ) AS score
  FROM tfs
  JOIN dl ON dl.doc_id = tfs.doc_id
  JOIN dfs ON dfs.tok = tfs.tok
  JOIN buckets b ON dl.n_terms BETWEEN b.lo AND b.hi
  {sel_where}
  GROUP BY tfs.doc_id
)
SELECT CAST(row_number() OVER (ORDER BY ROUND(score, 4) DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, ROUND(score, 4) AS score
FROM scored ORDER BY ROUND(score, 4) DESC, doc_id ASC LIMIT {k}
"""


def _phrase_rank_sql(terms: tuple[str, ...], k: int = TOPK) -> str:
    """Exact phrase BM25 SQL: phrase freq = adjacent raw-token runs (positions
    equal raw indices for this corpus: every raw token is kept or a stopword,
    each consuming one position), weight = sum of per-term idfs."""
    buckets = length_bucket_table(1_000_000)
    bucket_rows = ", ".join(f"({lo}, {hi}, {float(NORM_TABLE[b])!r})" for lo, hi, b in buckets)
    tl = ", ".join(f"'{t}'" for t in terms)
    adj = " AND ".join(f"ts[i + {i}] = '{t}'" for i, t in enumerate(terms))
    return f"""
WITH {_TOKS_CTE},
dl AS (SELECT doc_id, count(*) AS n_terms FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n_docs,
         (SELECT count(*) FROM toks) AS sum_ttf
),
buckets(lo, hi, dl_dec) AS (VALUES {bucket_rows}),
dfs AS (SELECT tok, count(DISTINCT doc_id) AS df FROM toks WHERE tok IN ({tl}) GROUP BY tok),
idfsum AS (
  SELECT sum(ln(1 + ((SELECT n_docs FROM stats) - df + 0.5) / (df + 0.5))) AS w
  FROM dfs
),
raw AS (SELECT doc_id, regexp_extract_all(text, '[a-z0-9]+') AS ts FROM documents),
freqs AS (
  SELECT doc_id,
         len(list_filter(generate_series(1, len(ts) - {len(terms) - 1}), i -> {adj})) AS freq
  FROM raw WHERE len(ts) >= {len(terms)}
),
scored AS (
  SELECT f.doc_id,
         (SELECT w FROM idfsum) * 2.2 * f.freq
         / (f.freq + 1.2 * ((1 - 0.75) + 0.75 * b.dl_dec
              / ((SELECT sum_ttf FROM stats) * 1.0 / (SELECT n_docs FROM stats)))) AS score
  FROM freqs f
  JOIN dl ON dl.doc_id = f.doc_id
  JOIN buckets b ON dl.n_terms BETWEEN b.lo AND b.hi
  WHERE f.freq > 0 AND (SELECT count(*) FROM dfs) = {len(terms)}
)
SELECT CAST(row_number() OVER (ORDER BY ROUND(score, 4) DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, ROUND(score, 4) AS score
FROM scored ORDER BY ROUND(score, 4) DESC, doc_id ASC LIMIT {k}
"""


def _dismax_rank_sql(terms: tuple[str, ...], tie: float, k: int = TOPK) -> str:
    buckets = length_bucket_table(1_000_000)
    bucket_rows = ", ".join(f"({lo}, {hi}, {float(NORM_TABLE[b])!r})" for lo, hi, b in buckets)
    tl = ", ".join(f"'{t}'" for t in terms)
    return f"""
WITH {_TOKS_CTE},
dl AS (SELECT doc_id, count(*) AS n_terms FROM toks GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents) AS n_docs,
         (SELECT count(*) FROM toks) AS sum_ttf
),
buckets(lo, hi, dl_dec) AS (VALUES {bucket_rows}),
tfs AS (SELECT doc_id, tok, count(*) AS tf FROM toks WHERE tok IN ({tl}) GROUP BY doc_id, tok),
dfs AS (SELECT tok, count(*) AS df FROM tfs GROUP BY tok),
per_term AS (
  SELECT tfs.doc_id,
         ln(1 + ((SELECT n_docs FROM stats) - dfs.df + 0.5) / (dfs.df + 0.5))
         * 2.2 * tfs.tf
         / (tfs.tf + 1.2 * ((1 - 0.75) + 0.75 * b.dl_dec
              / ((SELECT sum_ttf FROM stats) * 1.0 / (SELECT n_docs FROM stats)))) AS s
  FROM tfs
  JOIN dl ON dl.doc_id = tfs.doc_id
  JOIN dfs ON dfs.tok = tfs.tok
  JOIN buckets b ON dl.n_terms BETWEEN b.lo AND b.hi
),
scored AS (
  SELECT doc_id, max(s) + {tie} * (sum(s) - max(s)) AS score
  FROM per_term GROUP BY doc_id
)
SELECT CAST(row_number() OVER (ORDER BY ROUND(score, 4) DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, ROUND(score, 4) AS score
FROM scored ORDER BY ROUND(score, 4) DESC, doc_id ASC LIMIT {k}
"""


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def q_token_counts(sf_dir: str):
    from ..stages.textstats import token_count_batch

    ds = _documents_ds(sf_dir).map_batches(token_count_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_ws", "n_terms", "n_bpe"])


def q_collection_stats(sf_dir: str):
    meta, _ = _index_for(sf_dir)
    from .merge import global_term_stats

    distinct_terms = global_term_stats(meta).count()
    return pd.DataFrame(
        {
            "max_doc": [np.int64(meta.max_doc)],
            "sum_ttf": [np.int64(meta.sum_ttf)],
            "distinct_terms": [np.int64(distinct_terms)],
            "avgdl": [round(meta.sum_ttf * 1.0 / meta.max_doc, 6)],
        }
    )


def q_term_df_top100(sf_dir: str):
    meta, _ = _index_for(sf_dir)
    from .merge import high_freq_terms

    return high_freq_terms(meta, k=100).select_columns(["term", "df", "ttf"])


def q_term_range_terms(sf_dir: str):
    meta, _ = _index_for(sf_dir)
    from .merge import global_term_stats

    stats = global_term_stats(meta)
    filt = stats.map_batches(
        lambda t: t.filter(
            pa.compute.and_(
                pa.compute.greater_equal(t.column("term"), "k"),
                pa.compute.less(t.column("term"), "s"),
            )
        ),
        batch_format="pyarrow",
    )
    return filt.select_columns(["term", "df", "ttf"])


def q_bm25_term_topk(sf_dir: str):
    meta, orig = _index_for(sf_dir)
    per_term = _bm25_f64(meta, orig, [TERM])
    return _topk_frame(per_term[TERM])


def q_bm25_or_topk(sf_dir: str):
    meta, orig = _index_for(sf_dir)
    per_term = _bm25_f64(meta, orig, list(OR_TERMS))
    total: dict[int, float] = defaultdict(float)
    for t in OR_TERMS:
        for d, s in per_term[t].items():
            total[d] += s
    return _topk_frame(total)


def q_bm25_and_topk(sf_dir: str):
    meta, orig = _index_for(sf_dir)
    per_term = _bm25_f64(meta, orig, list(AND_TERMS))
    common = set(per_term[AND_TERMS[0]])
    for t in AND_TERMS[1:]:
        common &= set(per_term[t])
    total = {d: sum(per_term[t][d] for t in AND_TERMS) for d in common}
    return _topk_frame(total)


def q_bm25_msm_topk(sf_dir: str):
    meta, orig = _index_for(sf_dir)
    per_term = _bm25_f64(meta, orig, list(MSM_TERMS))
    count: dict[int, int] = defaultdict(int)
    total: dict[int, float] = defaultdict(float)
    for t in MSM_TERMS:
        for d, s in per_term[t].items():
            count[d] += 1
            total[d] += s
    total = {d: s for d, s in total.items() if count[d] >= 2}
    return _topk_frame(total)


def q_phrase_topk(sf_dir: str):
    """Exact phrase BM25 top-k: phrase frequency from the index's position
    streams, arithmetic in f64 (idf-sum weight) mirroring the SQL oracle."""
    meta, orig = _index_for(sf_dir)
    readers = [SegmentReader(d) for d in meta.segment_dirs]
    n_docs = meta.max_doc
    avgdl = meta.sum_ttf * 1.0 / n_docs
    terms = list(PHRASE_TERMS)
    dfs = {t: sum(r.term_stats(t)[0] for r in readers) for t in terms}
    if any(dfs[t] == 0 for t in terms):
        return _topk_frame({})
    idf_sum = sum(math.log(1 + (n_docs - dfs[t] + 0.5) / (dfs[t] + 0.5)) for t in terms)
    scores: dict[int, float] = {}
    SHIFT = np.int64(1) << np.int64(32)
    for r in readers:
        keysets = []
        ok = True
        for i, t in enumerate(terms):
            docids, tfs, flat, _occ = r.positions(t)
            if docids.size == 0:
                ok = False
                break
            keysets.append(np.repeat(docids, tfs) * SHIFT + (flat - i + len(terms)))
        if not ok:
            continue
        common = keysets[0]
        for ks in keysets[1:]:
            common = np.intersect1d(common, ks, assume_unique=True)
        if common.size == 0:
            continue
        docs, freqs = np.unique(common // SHIFT, return_counts=True)
        dl_dec = NORM_TABLE[r.norms[docs]].astype(np.float64)
        cache = 1.2 * ((1 - 0.75) + 0.75 * dl_dec / avgdl)
        s = idf_sum * 2.2 * freqs.astype(np.float64) / (freqs + cache)
        for g, sc in zip((docs + r.doc_base).tolist(), s.tolist()):
            scores[int(orig[g])] = sc
    return _topk_frame(scores)


def q_dismax_topk(sf_dir: str):
    """DisjunctionMax over term scores: max + tie*(sum-max), f64 arithmetic."""
    meta, orig = _index_for(sf_dir)
    per_term = _bm25_f64(meta, orig, list(OR_TERMS))
    tie = 0.3
    total: dict[int, float] = defaultdict(float)
    best: dict[int, float] = defaultdict(lambda: -1e300)
    for t in OR_TERMS:
        for d, s in per_term[t].items():
            total[d] += s
            if s > best[d]:
                best[d] = s
    scores = {d: best[d] + tie * (total[d] - best[d]) for d in total}
    return _topk_frame(scores)


def q_lm_dirichlet_topk(sf_dir: str):
    """LM-Dirichlet top-k in the f64 SQL-mirroring form (engine index data:
    postings, byte315 norm bytes, global ttf; formula per
    LMDirichletSimilarity.cs: max(0, ln(1+tf/(mu*p_c)) + ln(mu/(dl+mu))),
    p_c = (ttf+1)/(T+1), mu = 2000)."""
    meta, orig = _index_for(sf_dir)
    readers = [SegmentReader(d) for d in meta.segment_dirs]
    T = meta.sum_ttf
    mu = 2000.0
    ttf = sum(r.term_stats(TERM)[1] for r in readers)
    p_c = (ttf + 1.0) / (T + 1.0)
    scores: dict[int, float] = {}
    for r in readers:
        docids, tfs = r.postings(TERM)
        if docids.size == 0:
            continue
        dl_dec = NORM_TABLE[r.norms[docids]].astype(np.float64)
        s = np.maximum(
            0.0,
            np.log(1 + tfs.astype(np.float64) / (mu * p_c)) + np.log(mu / (dl_dec + mu)),
        )
        for g, sc in zip((docids + r.doc_base).tolist(), s.tolist()):
            scores[int(orig[g])] = sc
    return _topk_frame(scores)


def q_bool_not_count(sf_dir: str):
    meta, orig = _index_for(sf_dir)
    per_term = _bm25_f64(meta, orig, ["merge", "spark"])
    n = len(set(per_term["merge"]) - set(per_term["spark"]))
    return pd.DataFrame({"n": [np.int64(n)]})


# count-style gates for the two human query surfaces: integer results, so
# the float32 engine vs f64 SQL divergence cannot bite
XML_FILTER_QUERY = """
<FilteredQuery>
  <Filter><BooleanFilter>
     <Clause occurs="must"><NumericRangeFilter fieldName="n_chars" lowerTerm="150" upperTerm="400" type="long"/></Clause>
     <Clause occurs="should"><TermsFilter fieldName="content">merge spark</TermsFilter></Clause>
  </BooleanFilter></Filter>
  <Query><MatchAllDocsQuery/></Query>
</FilteredQuery>
"""


def q_duplicate_filter_docs(sf_dir: str):
    """DuplicateFilter(field=lang, keep=first): surviving ORIGINAL doc_ids.
    Per-reader semantics == global min-per-key here because the contract
    index at sf0.01 builds a single segment (500 docs < 2000/segment) and
    engine docIDs follow input doc_id order — asserted, so a layout change
    fails loudly instead of silently diverging from the SQL oracle."""
    from ..query import DuplicateFilter, FilteredQuery, MatchAllDocsQuery
    from .search import Searcher

    meta, orig = _index_for(sf_dir)
    assert len(meta.segment_dirs) == 1, "oracle requires the single-segment layout"
    s = Searcher(meta, use_actors=False)
    q = FilteredQuery(query=MatchAllDocsQuery(), filter=DuplicateFilter(field="lang"))
    kept = sorted(int(orig[d]) for d, _ in s.search(q, k=meta.max_doc))
    return pd.DataFrame({"doc_id": np.array(kept, dtype=np.int64)})


def q_xml_filtered_count(sf_dir: str):
    """XML query surface end-to-end: CoreParser-analog parse of a
    BooleanFilter(NumericRangeFilter + TermsFilter) over MatchAll,
    counted through the Searcher."""
    from ..xmlparser import parse_xml_query
    from .search import Searcher

    meta, _ = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    return pd.DataFrame({"n": [np.int64(s.count(parse_xml_query(XML_FILTER_QUERY)))]})


def q_simple_parser_count(sf_dir: str):
    """SimpleQueryParser surface end-to-end: 'merge + spark + -window'
    (AND, AND, AND-NOT via the negation wrapper), counted."""
    from ..query import parse_simple
    from .search import Searcher

    meta, _ = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    return pd.DataFrame({"n": [np.int64(s.count(parse_simple("merge + spark + -window")))]})


def q_flexible_parser_counts(sf_dir: str):
    """Flexible (StandardQueryParser/PrecedenceQueryParser analog) surface
    end-to-end over ONE query string, 'merge AND spark OR window':
      n_std  — StandardQueryParser FLATTENS precedence -> +merge +spark window
               (SHOULD optional next to MUSTs => docs with merge AND spark);
      n_prec — PrecedenceQueryParser keeps the tree -> (merge AND spark) OR window;
      n_num  — numeric-config field: 'n_chars:{150 TO 400] AND merge' becomes
               an exclusive-lower docvalues range filter AND'd with a term.
    The std/prec split is the defining semantic difference between the two
    reference parsers (BooleanQuery2ModifierNodeProcessor.cs vs
    Precedence/Processors/BooleanModifiersQueryNodeProcessor.cs)."""
    from ..flexible import PrecedenceQueryParser, StandardQueryParser
    from .search import Searcher

    meta, _ = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    text = "merge AND spark OR window"
    n_std = s.count(StandardQueryParser().parse(text))
    n_prec = s.count(PrecedenceQueryParser().parse(text))
    pn = StandardQueryParser().set_numeric_config("n_chars", "long")
    n_num = s.count(pn.parse("n_chars:{150 TO 400] AND merge"))
    return pd.DataFrame(
        {
            "n_std": [np.int64(n_std)],
            "n_prec": [np.int64(n_prec)],
            "n_num": [np.int64(n_num)],
        }
    )


def q_function_valuesources(sf_dir: str):
    """FunctionQuery with index-bound ValueSources as the primary score:
    per-doc f64 of  log(1+termfreq('spark'))*idf('spark') + 3*rord('lang')
                    + 100*norm() + where(n_chars > 300, 0.5, 0)
    over EVERY live doc (k = maxDoc -> no top-k cutoff instability).
    Exercises TermFreqValueSource (postings-aligned freq),
    IDFValueSource (ln(maxDoc/(df+1))+1), ReverseOrdFieldSource (global
    sorted-distinct ords), NormValueSource (byte315 decode) and the numeric
    docvalues read, computed segment-side by function_partial."""
    from .expressions import function_query
    from .search import Searcher

    meta, orig = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    expr = (
        "log(1 + termfreq('spark')) * idf('spark') + 3.0*rord('lang')"
        " + 100.0*norm() + where(n_chars > 300, 0.5, 0.0)"
    )
    hits = function_query(s, expr, k=meta.max_doc)
    return pd.DataFrame(
        {
            "doc_id": np.array([int(orig[g]) for g, _ in hits], dtype=np.int64),
            "fscore": np.array([sc for _, sc in hits], dtype=np.float64),
        }
    )


def q_prefix_doc_count(sf_dir: str):
    from ..query import PrefixQuery
    from .search import Searcher

    meta, _ = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    n = s.count(PrefixQuery(prefix="sp"))
    return pd.DataFrame({"n": [np.int64(n)]})


def q_regexp_doc_count(sf_dir: str):
    """RegexpQuery through the real engine: docs containing any term matching
    the anchored regex (constant-score rewrite over the sorted term dict)."""
    from ..query import RegexpQuery
    from .search import Searcher

    meta, _ = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    n = s.count(RegexpQuery(pattern="sp[a-z]*k"))
    return pd.DataFrame({"n": [np.int64(n)]})


def q_stemmed_term_df(sf_dir: str):
    """EnglishAnalyzer (Porter-stemmed) index over the documents table:
    top-100 stemmed terms by df. Rows-only check (DuckDB's stem() lives in
    the fts extension, unavailable offline); the stemmer itself is verified
    against the Porter paper's vectors in tests/test_analysis_chains.py."""
    from .build import build_index
    from .merge import global_term_stats

    slug = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    out = os.path.join("/tmp", "lnr_index_cache_en", slug)
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "manifest.json")):
        build_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            content_column="text",
            analyzer_kind="english",
            target_rows_per_segment=2000,
        )
    stats = global_term_stats(IndexMeta(out))
    return stats.sort(["df", "term"], descending=[True, False]).limit(100)


def q_semi_join_orders(sf_dir: str):
    """JoinUtil-style semi-join: orders whose customer is in nation 1
    (from side gathered via Ray aggregate, broadcast membership filter)."""
    from .joins import semi_join

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    ).filter(expr="c_nationkey == 1")
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_orderkey", "o_custkey"]
    )
    return semi_join(orders, "o_custkey", cust, "c_custkey")


def q_anti_join_customers(sf_dir: str):
    """Anti-join: customers with no order above 450k (non-empty at any sf)."""
    from .joins import semi_join

    cust = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    orders = ray.data.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    ).filter(expr="o_totalprice > 450000")
    return semi_join(cust, "c_custkey", orders, "o_custkey", negate=True)


def q_block_join_scores(sf_dir: str):
    """ToParentBlockJoin ScoreMode.Avg: orders (parents) scored by the avg
    l_extendedprice of their qty>=45 lineitems (children); parents with no
    matching child dropped."""
    from .joins import block_join_parent_scores

    li = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_quantity", "l_extendedprice"],
    )

    def child_score(batch: pa.Table) -> np.ndarray:
        q = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        p = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        return np.where(q >= 45, p, np.nan)

    return block_join_parent_scores(
        li, parent_key="l_orderkey", child_score=child_score, score_mode="avg"
    )


def q_facet_lang_counts(sf_dir: str):
    ds = _documents_ds(sf_dir)

    def has_term(batch: pa.Table) -> pa.Table:
        keep = [TERM in t.split() for t in batch.column("text").to_pylist()]
        return batch.filter(pa.array(keep)).select(["lang"])

    matched = ds.map_batches(has_term, batch_format="pyarrow")
    agg = matched.groupby("lang").count()
    return agg.rename_columns({"count()": "n_docs"})


def q_group_top2_per_lang(sf_dir: str):
    from ..stages.textstats import token_count_batch

    ds = _documents_ds(sf_dir).map_batches(token_count_batch, batch_format="pyarrow")

    def top2(group: pa.Table) -> pa.Table:
        idx = np.lexsort(
            (group.column("doc_id").to_numpy(), -group.column("n_terms").to_numpy())
        )[:2]
        return group.take(pa.array(idx)).select(["lang", "doc_id", "n_terms"])

    return ds.groupby("lang").map_groups(top2, batch_format="pyarrow")


def q_group_heads(sf_dir: str):
    """AllGroupHeadsCollector through the real engine: for every lang group,
    the single best doc matching TERM by (n_chars DESC, doc_id ASC).
    Reference: Grouping/AbstractAllGroupHeadsCollector.cs:12."""
    from ..query import TermQuery
    from .collectors import all_group_heads
    from .search import Searcher

    meta, _ = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    rows = all_group_heads(
        s, TermQuery(term=TERM), "lang", [("n_chars", True), ("doc_id", False)]
    )
    return pd.DataFrame(
        {
            "lang": [r["group"] for r in rows],
            "doc_id": np.array([r["doc_id"] for r in rows], dtype=np.int64),
            "n_chars": np.array([r["n_chars"] for r in rows], dtype=np.int64),
        }
    )


def q_group_distinct_counts(sf_dir: str):
    """DistinctValuesCollector through the real engine: per lang group, the
    number of distinct n_chars values among docs matching TERM.
    Reference: Grouping/AbstractDistinctValuesCollector.cs:14."""
    from ..query import TermQuery
    from .collectors import distinct_values
    from .search import Searcher

    meta, _ = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    rows = distinct_values(s, TermQuery(term=TERM), "lang", "n_chars")
    return pd.DataFrame(
        {
            "lang": [r["group"] for r in rows],
            "n_distinct": np.array([r["n_distinct"] for r in rows], dtype=np.int64),
        }
    )


def q_group_facet_counts(sf_dir: str):
    """GroupFacetCollector through the real engine: grouped faceting — per
    source facet value, the count of DISTINCT lang groups among docs
    matching TERM (each group counts once per facet value).
    Reference: Grouping/AbstractGroupFacetCollector.cs:18."""
    from ..query import TermQuery
    from .collectors import group_facets
    from .search import Searcher

    meta, _ = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    entries = group_facets(s, TermQuery(term=TERM), "lang", "source")
    return pd.DataFrame(
        {
            "facet_value": [v for v, _ in entries],
            "n_groups": np.array([n for _, n in entries], dtype=np.int64),
        }
    )


FUNC_SORT_EXPR = "(n_chars % 97) * 1000000.0 + doc_id % 999983"


def q_function_sort_topk(sf_dir: str):
    """FunctionQuery as the PRIMARY ranking (Queries/Function/FunctionQuery.cs):
    top-10 docs under MatchAll scored by a doc-values formula — equivalently,
    sort-by-ValueSource. The formula is integer-valued in f64 and injective
    over doc_id, so ranks are exact against the SQL oracle."""
    from .expressions import function_query
    from .search import Searcher

    meta, orig = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    hits = function_query(s, FUNC_SORT_EXPR, k=TOPK)
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(hits) + 1, dtype=np.int64),
            "doc_id": np.array([int(orig[g]) for g, _ in hits], dtype=np.int64),
            "score": np.array([sc for _, sc in hits], dtype=np.float64),
        }
    )


def q_function_scale_topk(sf_dir: str):
    """ScaleFloatFunction as primary ranking: scale(n_chars, 0, 100) over
    the corpus's GLOBAL min/max (distributed per-segment partials). Raw f64
    arithmetic matches DuckDB bit-for-bit (same op order); equal n_chars tie
    exactly, re-ranked by original doc_id on the driver."""
    from .expressions import function_query
    from .search import Searcher

    meta, orig = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    hits = function_query(s, "scale(n_chars, 0.0, 100.0)", k=4 * TOPK)
    rows = sorted(
        ((math.floor(sc * 1e6 + 0.5) / 1e6, int(orig[g])) for g, sc in hits),
        key=lambda x: (-x[0], x[1]),
    )[:TOPK]
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(rows) + 1, dtype=np.int64),
            "doc_id": np.array([d for _, d in rows], dtype=np.int64),
            "score": np.array([sc for sc, _ in rows], dtype=np.float64),
        }
    )


def q_drill_sideways(sf_dir: str):
    """DrillSideways over (lang, length bucket): filters lang='en' &
    bucket='long'; each dimension's counts drop its own filter. Output:
    one row per (dim, value) with its sideways count."""
    from .facets import drill_sideways

    def bucketize(batch: pa.Table) -> pa.Table:
        b = pa.compute.if_else(
            pa.compute.greater_equal(batch.column("n_chars"), 300), "long", "short"
        )
        return batch.append_column("len_bucket", b)

    ds = _documents_ds(sf_dir).map_batches(bucketize, batch_format="pyarrow")
    res = drill_sideways(ds, {"lang": "en", "len_bucket": "long"})
    rows = []
    for dim, counts in res["facets"].items():
        for r in counts.take_all():
            rows.append({"dim": dim, "value": r[dim], "n_docs": np.int64(r["n_docs"])})
    return pd.DataFrame(rows, columns=["dim", "value", "n_docs"]).sort_values(
        ["dim", "value"]
    ).reset_index(drop=True)


def q_taxonomy_counts(sf_dir: str):
    """Taxonomy rollup counts over synthetic lang/bucket paths."""
    from .facets import taxonomy_counts

    def pathize(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").to_pylist()
        chars = batch.column("n_chars").to_pylist()
        paths = [f"{l}/{'long' if c >= 300 else 'short'}" for l, c in zip(langs, chars)]
        return batch.append_column("path", pa.array(paths, type=pa.string()))

    ds = _documents_ds(sf_dir).map_batches(pathize, batch_format="pyarrow")
    return taxonomy_counts(ds, "path")


def q_nb_classify(sf_dir: str):
    """Naive Bayes trained on (text, lang), applied back to the corpus.
    SQL-oracled as of r4: the prediction (argmax of log_prior + sum of
    Laplace-smoothed log likelihoods, ties by label asc) mirrors exactly —
    the engine sums per occurrence, the SQL sums tf*ln(p) per distinct
    token; equal in reals, and the argmax absorbs the ulp difference."""
    from ..stages.classify import classify_dataset, train_naive_bayes

    ds = _documents_ds(sf_dir)
    model = train_naive_bayes(ds, text_column="text", label_column="lang")
    out = classify_dataset(ds, model, text_column="text")
    return out.select_columns(["doc_id", "lang", "pred_label"])


def q_sort_top15_longest(sf_dir: str):
    ds = _documents_ds(sf_dir).select_columns(["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(15)


def q_dedup_exact(sf_dir: str):
    from ..stages.dedup import exact_dedup

    return exact_dedup(_documents_ds(sf_dir))


def q_dedup_exact_canonical(sf_dir: str):
    """Exact dedup over canonicalized text (lower + whitespace collapse +
    trim): conflates case/formatting variants before hashing."""
    from ..stages.dedup import exact_dedup

    return exact_dedup(_documents_ds(sf_dir), canonicalize=True)


def q_dedup_fingerprint(sf_dir: str):
    from ..stages.textstats import fingerprint_batch

    ds = _documents_ds(sf_dir).map_batches(fingerprint_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "fingerprint"])


def q_minhash_pairs(sf_dir: str):
    from ..stages.dedup import minhash_lsh_pairs

    return minhash_lsh_pairs(_documents_ds(sf_dir), threshold=0.35, shingle_size=2)


def q_simhash_pairs(sf_dir: str):
    from ..stages.dedup import simhash_pairs

    return simhash_pairs(_documents_ds(sf_dir), max_hamming=8)


def q_ngram_jaccard_pairs(sf_dir: str):
    from ..stages.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(
        _documents_ds(sf_dir), shingle_size=2, threshold=0.03, max_shingle_df=100_000
    )


def q_pii_scrub(sf_dir: str):
    """PII redaction over a deterministic contact-card corpus derived from
    the customer table (the synthetic documents carry no digits, so the
    entry synthesizes phone/email/ip values from c_custkey/c_name the same
    way on the Ray and SQL sides, then exercises the real scrub operator)."""
    import numpy as np

    from ..stages.textstats import pii_scrub

    def contact(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k = batch.column("c_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        name = batch.column("c_name")
        user = pc.replace_substring_regex(pc.utf8_lower(name), "[^a-z0-9]+", ".")

        def seg(vals, width):
            return vals.astype(f"U{width}")

        dash = np.full(k.size, "-", dtype="U1")
        dot = np.full(k.size, ".", dtype="U1")
        ph = seg(k % 90 + 10, 2)
        for part in (dash, seg(k * 3 % 900 + 100, 3), dash, seg(k * 7 % 900 + 100, 3), dash, seg(k * 11 % 9000 + 1000, 4)):
            ph = np.char.add(ph, part)
        ip = seg(k % 256, 3)
        for part in (dot, seg(k * 7 % 256, 3), dot, seg(k * 13 % 256, 3), dot, seg(k * 31 % 256, 3)):
            ip = np.char.add(ip, part)
        text = pc.binary_join_element_wise(
            name,
            " can be reached at ",
            pa.array(ph, type=pa.string()),
            " email ",
            user,
            "@example.com last login ",
            pa.array(ip, type=pa.string()),
            "",
        )
        return pa.table({"doc_id": pa.array(k, type=pa.int64()), "text": text})

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_name"]
    ).map_batches(contact, batch_format="pyarrow")
    return pii_scrub(ds)


def q_neardup_clusters(sf_dir: str):
    """Connected components over exact-Jaccard near-dup pairs: each doc in a
    pair gets its component's min doc_id as cluster_id (the dedup
    representative). A 0.5 threshold keeps template-family components
    compact so the recursive-CTE oracle's transitive closure stays small."""
    from ..stages.dedup import neardup_clusters, ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _documents_ds(sf_dir), shingle_size=2, threshold=0.5, max_shingle_df=100_000
    )
    return neardup_clusters(pairs)


def q_embed_neardup_pairs(sf_dir: str):
    from ..stages.dedup import embedding_neardup_pairs

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return embedding_neardup_pairs(ds, threshold=0.4)


def q_embed_neardup_lsh(sf_dir: str):
    """Scale path: LSH-bucketed near-dup pairs (approximate — rows-only
    check; subset-of-exact + recall asserted in test_dedup_ann.py). A high
    threshold keeps driver-corpus recall near 1 with multi-probe."""
    from ..stages.dedup import embedding_neardup_pairs

    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    return embedding_neardup_pairs(ds, threshold=0.4, method="lsh", bits=6, probes=3)


def _merged_for(sf_dir: str) -> str:
    """Merge (or reuse) the cached documents index into a merged layout. The
    cache dir is named after the merged format version, so a cache of an
    older format is never reopened."""
    from .merge import MERGED_VERSION, merge_index

    meta, _ = _index_for(sf_dir)
    out = f"{meta.index_dir}_merged_v{MERGED_VERSION}"
    merge_index(meta, out, bucket_size=4)
    return out


def q_merged_multiterm_counts(sf_dir: str):
    """Round-3 scale-fix gate: prefix / wildcard / regexp / range / fuzzy
    rewrites served from the MERGED (term-range-partitioned) layout — the
    candidate slice comes from terms_in_range (covering parts only), with an
    assertion that the full vocabulary is never concat-loaded. Counts must
    hash-match the same SQL oracle as the segmented entries."""
    from ..query import FuzzyQuery, PrefixQuery, RegexpQuery, TermRangeQuery, WildcardQuery
    from .merge import MergedSearcher

    m = MergedSearcher(_merged_for(sf_dir))
    rows = [
        {"q": "fuzzy", "n": np.int64(m.count(FuzzyQuery(term="spark", max_edits=1, prefix_length=1)))},
        {"q": "prefix", "n": np.int64(m.count(PrefixQuery(prefix="sp")))},
        {"q": "range", "n": np.int64(m.count(TermRangeQuery(lower="spa", upper="spz")))},
        {"q": "regexp", "n": np.int64(m.count(RegexpQuery(pattern="sp[a-z]*k")))},
        {"q": "wildcard", "n": np.int64(m.count(WildcardQuery(pattern="sp?rk")))},
    ]
    assert m.reader._terms_cache is None, "merged multiterm loaded the full vocabulary"
    return pd.DataFrame(rows, columns=["q", "n"])


def q_media_neardup(sf_dir: str):
    """Multimodal near-dup pairs over a deterministic synthetic media corpus
    with injected duplicates (rows-only; decode is honestly stubbed — the
    banding/Hamming plumbing is what this exercises)."""
    import pyarrow as pa_

    from ..stages.multimodal import MEDIA_SCHEMA, media_neardup_pairs, synthesize_media_table

    rows = synthesize_media_table(96, seed=5).to_pylist()
    for i, (src, new) in enumerate([(0, 200), (3, 201), (7, 202), (11, 203)]):
        dup = dict(rows[src])
        dup["content_id"] = new
        rows.append(dup)
    ds = ray.data.from_arrow(pa_.Table.from_pylist(rows, schema=MEDIA_SCHEMA))
    return media_neardup_pairs(ds, max_hamming=4)


def q_tumbling_windows(sf_dir: str):
    """Hourly tumbling-window aggregate over events. Hash-exact oracle."""
    from ..stages.windows import tumbling_window_agg

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    return tumbling_window_agg(ds, window_us=3_600_000_000)


PERCOLATE_QUERIES = {
    "alert_merge_and_spark": "+merge +spark",
    "alert_vector": "vector",
    "alert_window_or_stream": "window stream",
}


def q_percolate(sf_dir: str):
    """Percolation: documents matched against 3 registered saved-search
    queries (AND pair, single term, OR pair)."""
    from ..stages.percolate import percolate

    ds = _documents_ds(sf_dir)
    return percolate(ds, PERCOLATE_QUERIES)


def q_hopping_windows(sf_dir: str):
    """1h windows hopping every 15min over events (overlap factor 4)."""
    from ..stages.windows import hopping_window_agg

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    return hopping_window_agg(ds)


FUNNEL_STEPS = ("view", "click", "purchase")
FUNNEL_CUT = "2024-01-04 00:00:00"  # first 3 days: counts differentiate


def q_funnel_counts(sf_dir: str):
    """Ordered funnel view -> click -> purchase: users reaching each step
    under greedy first-match with (ts, event_id) ordering."""
    from ..stages.windows import funnel_counts

    import datetime as _dt

    cut = _dt.datetime.fromisoformat(FUNNEL_CUT)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet")).map_batches(
        lambda b: b.filter(pa.compute.less(b.column("ts"), pa.scalar(cut, type=pa.timestamp("us")))),
        batch_format="pyarrow",
    )
    return funnel_counts(ds, FUNNEL_STEPS)


def q_sessionize(sf_dir: str):
    """30-minute-gap session windows per user over events. Hash-exact
    oracle (lag-over-partition sessionization in SQL)."""
    from ..stages.windows import sessionize

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    return sessionize(ds, gap_us=1_800_000_000)


def q_lm_quality(sf_dir: str):
    """Backoff-LM quality scores over the documents table (perplexity-filter
    analog). SQL-oracled as of r4: the grams=2 stupid backoff is bigram
    c/ctx_count, else 0.4*unigram/total (position 0 unweighted), mean of
    ln() per doc — exact integer-ratio f64; the per-doc ln-sum order is the
    only divergence and the gate's 6dp rounding absorbs it."""
    from ..stages.textstats import lm_quality_scores

    ds = _documents_ds(sf_dir)
    out = lm_quality_scores(ds, text_column="text", grams=2)
    return out.select_columns(["doc_id", "lm_logprob"]).to_pandas()


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: 10 lowest-md5(text) docs per lang.
    Hash-exact oracle (row_number over md5 order in SQL)."""
    from ..stages.clean import stratified_sample

    ds = _documents_ds(sf_dir)
    out = stratified_sample(ds, "lang", 10, id_column="doc_id", text_column="text")
    return out.select_columns(["doc_id", "lang"])


# target mixture for the mix_sources contract entry — shared by the Ray call
# and the SQL CASE so both compare identical threshold strings
MIX_WEIGHTS = {
    "src0": 1.0,   # keep all
    "src1": 0.75,
    "src2": 0.5,
    "src3": 0.25,
    "src4": 0.1,
    "src5": 0.0,   # drop entirely
    # src6..src19 absent -> dropped
    "src7": 0.9,
    "src8": 0.33,
}


# (label, lower, upper, include_lower, include_upper) — overlapping on
# purpose: RangeFacetCounts counts a doc in EVERY containing range
FACET_RANGES = [
    ("short", None, 200, True, False),
    ("medium", 200, 400, True, False),
    ("long", 400, None, True, True),
    ("mid_overlap", 150, 350, True, True),
]


# geo test points synthesized deterministically from doc_id (integer
# arithmetic — bit-identical on both sides); center = San Francisco
GEO_CENTER = (37.77, -122.42)
GEO_RADIUS_KM = 6000.0


def _geo_synth(batch: pa.Table) -> pa.Table:
    d = batch.column("doc_id").to_numpy(zero_copy_only=False)
    lat = (d * 7919 % 18000) / 100.0 - 90.0
    lon = (d * 104729 % 36000) / 100.0 - 180.0
    return pa.table({"doc_id": batch.column("doc_id"),
                     "lat": pa.array(lat), "lon": pa.array(lon)})


def q_geo_distance(sf_dir: str):
    """PointVectorStrategy-style distance filter: bbox pre-filter + exact
    haversine verify; returns (doc_id, distance rounded 6)."""
    from ..stages.spatial import distance_filter

    pts = _documents_ds(sf_dir).select_columns(["doc_id"]).map_batches(
        _geo_synth, batch_format="pyarrow"
    )
    out = distance_filter(
        pts, lat_column="lat", lon_column="lon",
        center_lat=GEO_CENTER[0], center_lon=GEO_CENTER[1],
        radius_km=GEO_RADIUS_KM,
    )

    def fin(batch: pa.Table) -> pa.Table:
        dk = batch.column("distance_km").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "distance_km": pa.array(np.floor(dk * 1e6 + 0.5) / 1e6),
        })

    return out.map_batches(fin, batch_format="pyarrow")


GEO_JOIN_RADIUS_KM = 2500.0


def q_geo_distance_join(sf_dir: str):
    """Exact all-pairs-within-radius spatial self-join over the synthesized
    points (|lat| <= 80 operator domain), grid-cell bucketed."""
    from ..stages.spatial import distance_join_pairs

    pts = (
        _documents_ds(sf_dir)
        .select_columns(["doc_id"])
        .map_batches(_geo_synth, batch_format="pyarrow")
        .map_batches(
            lambda b: b.filter(pa.compute.less_equal(pa.compute.abs(b.column("lat")), 80.0)),
            batch_format="pyarrow",
        )
    )
    out = distance_join_pairs(
        pts, lat_column="lat", lon_column="lon", id_column="doc_id",
        radius_km=GEO_JOIN_RADIUS_KM,
    )

    def fin(batch: pa.Table) -> pa.Table:
        dk = batch.column("distance_km").to_numpy(zero_copy_only=False)
        return pa.table({
            "id_a": batch.column("id_a"),
            "id_b": batch.column("id_b"),
            "distance_km": pa.array(np.floor(dk * 1e6 + 0.5) / 1e6),
        })

    return out.map_batches(fin, batch_format="pyarrow")


def q_facet_range_counts(sf_dir: str):
    """Range facet counts over documents.n_chars (overlapping ranges)."""
    from .facets import range_counts

    ds = _documents_ds(sf_dir)
    return range_counts(ds, "n_chars", FACET_RANGES)


CHUNK_TOKENS, CHUNK_OVERLAP = 32, 8


def q_chunk_documents(sf_dir: str):
    """Sliding-window chunking: 32-token windows, 8-token overlap."""
    from ..stages.chunk import chunk_documents

    return chunk_documents(
        _documents_ds(sf_dir), chunk_tokens=CHUNK_TOKENS, overlap_tokens=CHUNK_OVERLAP
    )


def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition signals over whitespace tokens."""
    from ..stages.textstats import repetition_stats_batch

    ds = _documents_ds(sf_dir).map_batches(
        lambda b: repetition_stats_batch(b, text_column="text"), batch_format="pyarrow"
    )
    return ds.select_columns(
        ["doc_id", "n_tokens", "top_token_frac", "distinct_frac", "top_2gram_frac"]
    )


def q_mix_sources(sf_dir: str):
    """Deterministic weighted source mixing: keep each source at its target
    fraction via the md5(text) uniform draw. Hash-exact oracle."""
    from ..stages.clean import mix_sources

    ds = _documents_ds(sf_dir)
    out = mix_sources(ds, MIX_WEIGHTS, source_column="source", text_column="text")
    return out.select_columns(["doc_id", "source"])


def q_decontaminate(sf_dir: str):
    """Training-set decontamination: contaminant grams = first 8 ws tokens
    of docs 0-4 (derived in SQL the same way); kept = docs whose text does
    not contain any gram as a substring. Hash-exact oracle."""
    from ..stages.decontam import contaminant_grams, decontaminate

    bench = (
        pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
        .filter(pa.compute.less(pa.compute.field("doc_id"), 5))
        .sort_by("doc_id")
    )
    grams = contaminant_grams(bench.column("text").to_pylist(), ngram=8)
    ds = _documents_ds(sf_dir)
    kept = decontaminate(ds, grams, text_column="text", method="substring")
    return kept.select_columns(["doc_id"])


def q_freetext_suggest(sf_dir: str):
    """FreeTextSuggester (shingle LM + stupid backoff) over the documents
    table: top next-token suggestions for three complete 1-token contexts.
    SQL-oracled as of r4: order-1 candidates score cnt(bigram)/cnt(context)
    and the order-0 backoff scores 0.4*cnt(unigram)/total, higher order
    winning per token — all exact integer-ratio f64 both sides. (The
    analyzer here keeps stopwords: Analyzer(stop_words=None).)"""
    from .suggest import FreeTextSuggester

    ds = _documents_ds(sf_dir)
    sg = FreeTextSuggester(ds, text_column="text", grams=3)
    rows = []
    for ctx in ["public ", "import ", "the "]:
        for tok, score in sg.lookup(ctx, k=5):
            rows.append({"context": ctx.strip(), "token": tok, "score": score})
    import pandas as pd

    return pd.DataFrame(rows, columns=["context", "token", "score"])


def q_infix_suggest(sf_dir: str):
    """AnalyzingInfixSuggester over the documents table (surface=text,
    weight=n_chars, id=doc_id): query 'merge sp' = exact term 'merge' AND a
    token with prefix 'sp' anywhere in the suggestion, top-10 by weight desc
    (ties by id). The token store is parquet, token-range routed — the
    driver holds only the parts manifest."""
    from .suggest import AnalyzingInfixSuggester

    slug = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    store = os.path.join("/tmp", "lnr_infix_cache", slug)
    os.makedirs(store, exist_ok=True)
    sug = AnalyzingInfixSuggester(
        _documents_ds(sf_dir),
        store_dir=store,
        surface_column="text",
        weight_column="n_chars",
        id_column="doc_id",
    )
    rows = sug.lookup("merge sp", k=TOPK)
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(rows) + 1, dtype=np.int64),
            "doc_id": np.array([r["sid"] for r in rows], dtype=np.int64),
            "weight": np.array([r["weight"] for r in rows], dtype=np.int64),
        }
    )


def q_block_group_topk(sf_dir: str):
    """BlockGroupingCollector analog over lineitem blocks (l_orderkey):
    top-10 blocks by best matching child (l_quantity >= 45 scored by
    l_extendedprice), top-2 children per block."""
    from .joins import block_group_top_k

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice"],
    )

    def score(batch: pa.Table) -> np.ndarray:
        v = batch.column("l_extendedprice").to_numpy(zero_copy_only=False).astype(np.float64)
        q = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        return np.where(q >= 45, v, np.nan)

    out = block_group_top_k(
        ds, block_key="l_orderkey", child_id="l_linenumber", child_score=score,
        k_groups=10, k_per_group=2,
    )
    out["block"] = out["block"].astype(np.int64)
    out["child"] = out["child"].astype(np.int64)
    return out


def q_asof_purchase_view(sf_dir: str):
    """As-of join over the events table: each purchase matched to the same
    user's LATEST view at or before it (ties by view event_id desc) —
    feature-engineering attribution, one bounded coarse-hash shuffle."""
    from .joins import asof_join

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def only(kind):
        def f(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pa.compute.equal(batch.column("event_type"), kind)
            ).select(["event_id", "ts", "user_id"])

        return f

    left = ev.map_batches(only("purchase"), batch_format="pyarrow")
    right = ev.map_batches(only("view"), batch_format="pyarrow")
    out = asof_join(
        left, right, on="user_id", ts="ts",
        right_keep={"event_id": "view_event_id"}, tie="event_id",
    )

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "purchase_id": batch.column("event_id").cast(pa.int64()),
                "user_id": batch.column("user_id").cast(pa.int64()),
                "view_event_id": batch.column("view_event_id").cast(pa.int64()),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


def q_range_join_views(sf_dir: str):
    """Range join over events: ALL views by the same user within the hour
    before each purchase (attribution window; one coarse-hash shuffle,
    probe-row kernel)."""
    from .joins import range_join

    ev = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "event_type"],
    )

    def only(kind):
        def f(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pa.compute.equal(batch.column("event_type"), kind)
            ).select(["event_id", "ts", "user_id"])

        return f

    left = ev.map_batches(only("purchase"), batch_format="pyarrow")
    right = ev.map_batches(only("view"), batch_format="pyarrow")
    out = range_join(
        left, right, on="user_id", ts="ts",
        window=np.timedelta64(1, "h"), right_keep={"event_id": "view_event_id"},
    )

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "purchase_id": batch.column("event_id").cast(pa.int64()),
                "view_event_id": batch.column("view_event_id").cast(pa.int64()),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


def q_sorted_index_top15(sf_dir: str):
    """sort_index + EarlyTerminatingSortingCollector analog: index built in
    n_chars-descending order (range-partitioned segments), top-15 docs
    matching TERM by (n_chars DESC, doc_id ASC) with segment skipping."""
    from ..query import TermQuery
    from .collectors import search_sorted
    from .maintenance import sort_index
    from .search import Searcher

    slug = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    out = os.path.join("/tmp", "lnr_sorted_cache", slug)
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "manifest.json")):
        sort_index(
            os.path.join(sf_dir, "documents.parquet"),
            out,
            sort_field="n_chars",
            descending=True,
            content_column="text",
            stored_columns=("doc_id",),
            target_rows_per_segment=100,
        )
    else:
        meta0 = IndexMeta(out)
        if "sorted_by" not in meta0.manifest:  # stale pre-sort cache
            raise RuntimeError("sorted cache corrupt; remove /tmp/lnr_sorted_cache")
    s = Searcher(IndexMeta(out), use_actors=False)
    rows = search_sorted(
        s, TermQuery(term=TERM), [("n_chars", True), ("doc_id", False)], k=15
    )
    return pd.DataFrame(
        {
            "doc_id": np.array([r["doc_id"] for r in rows], dtype=np.int64),
            "n_chars": np.array([r["n_chars"] for r in rows], dtype=np.int64),
        }
    )


def q_spell_suggest(sf_dir: str):
    """Classic n-gram SpellChecker over the index's term dictionary
    (LuceneDictionary analog): suggestions for four misspellings. Rows-only
    (the gram-candidate cut has no faithful SQL mirror; distances are
    unit-tested against published vectors in tests/test_spell.py)."""
    from .search import Searcher
    from .spell import SpellChecker

    meta, _ = _index_for(sf_dir)
    s = Searcher(meta, use_actors=False)
    slug = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    store = os.path.join("/tmp", "lnr_spell_cache", slug)
    os.makedirs(store, exist_ok=True)
    sc = SpellChecker.from_searcher(s, store_dir=store)
    rows = []
    for w in ("mrege", "spakr", "windwo", "vectro"):
        for rank, (sug, score) in enumerate(sc.suggest_similar(w, 3), 1):
            rows.append((w, rank, sug, math.floor(score * 1e6 + 0.5) / 1e6))
    return pd.DataFrame(rows, columns=["word", "rank", "suggestion", "score"])


def q_spell_lev_topk(sf_dir: str):
    """DirectSpellChecker-style exhaustive variant, SQL-exact: rank the WHOLE
    index vocabulary by LevensteinDistance similarity (1 - d/max(len),
    integer edit distance -> bit-identical f64 both sides) for three
    misspellings; accuracy cut 0.34, rank by ROUNDED score then term.
    Complements the rows-only gram-candidate spell_suggest entry with a
    hash-exact gate on the distance kernel + vocab scan."""
    from .merge import global_term_stats
    from .spell import levenstein_distance

    meta, _ = _index_for(sf_dir)
    words = ("mrege", "spakr", "windwo")

    def score(batch: pa.Table) -> pa.Table:
        terms = batch.column("term").to_pylist()
        w_out, s_out, sc_out = [], [], []
        for w in words:
            for t in terms:
                sim = levenstein_distance(w, t)
                if sim > 0.34:
                    w_out.append(w)
                    s_out.append(t)
                    sc_out.append(math.floor(sim * 1e6 + 0.5) / 1e6)
        return pa.table(
            {
                "word": pa.array(w_out, type=pa.string()),
                "suggestion": pa.array(s_out, type=pa.string()),
                "score": pa.array(sc_out, type=pa.float64()),
            }
        )

    cand = global_term_stats(meta).map_batches(score, batch_format="pyarrow")
    df = cand.to_pandas()  # candidate-sized: terms within distance of 3 words
    df = df.sort_values(["word", "score", "suggestion"], ascending=[True, False, True])
    df["rank"] = df.groupby("word").cumcount() + 1
    df = df[df["rank"] <= 5].reset_index(drop=True)
    return df[["word", "rank", "suggestion", "score"]].astype(
        {"rank": np.int64, "score": np.float64}
    )


def q_assoc_facet_sums(sf_dir: str):
    """Association facets over synthetic lang/len-bucket taxonomy paths:
    per label (every prefix level), SUM(n_chars) and doc count."""
    from .facets import association_facet_sums

    def pathize(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").to_pylist()
        chars = batch.column("n_chars").to_pylist()
        paths = [f"{l}/{'long' if c >= 300 else 'short'}" for l, c in zip(langs, chars)]
        return batch.append_column("path", pa.array(paths, type=pa.string()))

    ds = _documents_ds(sf_dir).map_batches(pathize, batch_format="pyarrow")
    out = association_facet_sums(ds, "path", "n_chars", taxonomy=True)

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "facet": batch.column("facet"),
                "sum_chars": batch.column("sum_value").cast(pa.int64()),
                "n_docs": batch.column("n_docs").cast(pa.int64()),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


def q_training_shards(sf_dir: str):
    """End-to-end training prep (clean -> chunk -> pack -> sharded write):
    the packing sidecar (chunk -> training-sequence map) is the verified
    surface — dedup winner selection, window arithmetic, and the global
    token stream all mirrored in one SQL chain."""
    from .training import prepare_training_shards

    slug = hashlib.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    out = os.path.join("/tmp", "lnr_training_cache", slug)
    prepare_training_shards(
        os.path.join(sf_dir, "documents.parquet"),
        out,
        chunk_tokens=CHUNK_TOKENS,
        overlap_tokens=CHUNK_OVERLAP,
        pack_budget=2048,
        num_shards=8,
    )
    ds = ray.data.read_parquet(os.path.join(out, "packing"))

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "chunk_uid": batch.column("doc_id").cast(pa.int64()),
                "n_tokens": batch.column("n_tokens").cast(pa.int64()),
                "start_tok": batch.column("start_tok").cast(pa.int64()),
                "first_seq": batch.column("first_seq").cast(pa.int64()),
                "last_seq": batch.column("last_seq").cast(pa.int64()),
            }
        )

    return ds.map_batches(fin, batch_format="pyarrow")


def q_trending_terms(sf_dir: str):
    """Top-5 analyzer tokens per lang by exact count (combiner-before-
    shuffle + coarse-hash reduce + per-group top-k; ties by token asc)."""
    from ..stages.textstats import top_terms_per_group

    ds = _documents_ds(sf_dir)
    out = top_terms_per_group(
        ds.select_columns(["lang", "text"]), group_column="lang", k=5
    )
    return out.select_columns(["lang", "tok", "n"])


def q_ngram_counts(sf_dir: str):
    """Global top-100 adjacent analyzer-token bigrams by exact count."""
    from ..stages.corpus import ngram_counts_topk

    ds = _documents_ds(sf_dir)
    return ngram_counts_topk(ds.select_columns(["doc_id", "text"]), n=2, k=100)


def q_pmi_bigrams(sf_dir: str):
    """Top-50 bigram collocations by PMI (min bigram count 5)."""
    from ..stages.corpus import pmi_bigrams_topk

    ds = _documents_ds(sf_dir)
    return pmi_bigrams_topk(ds.select_columns(["doc_id", "text"]), k=50, min_count=5)


def q_tfidf_top_terms(sf_dir: str):
    """Per-document top-3 terms by tf*ln(N/df)."""
    from ..stages.corpus import tfidf_top_terms

    ds = _documents_ds(sf_dir)
    out = tfidf_top_terms(ds.select_columns(["doc_id", "text"]), k=3)
    return out.select_columns(["doc_id", "rank", "tok", "tfidf"])


def q_clean_corpus_ids(sf_dir: str):
    """End-to-end cleaning pipeline: kept (doc_id, quality) after a quality
    floor + exact dedup keep-first."""
    import shutil
    import tempfile

    from ..stages.clean import clean_corpus

    out = tempfile.mkdtemp(prefix="lnr_clean_")
    try:
        clean_corpus(
            os.path.join(sf_dir, "documents.parquet"), out, min_quality=0.3, dedup=True
        )
        t = pq.read_table(out, columns=["doc_id", "quality"])
        dfr = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
        dfr["quality"] = np.floor(dfr["quality"] * 1e6 + 0.5) / 1e6
        return dfr
    finally:
        shutil.rmtree(out, ignore_errors=True)


def q_lang_id(sf_dir: str):
    from ..stages.textstats import lang_id_batch

    ds = _documents_ds(sf_dir).map_batches(lang_id_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "pred_lang", "marker_hits"])


def q_quality_scores(sf_dir: str):
    from ..stages.textstats import quality_score_batch

    ds = _documents_ds(sf_dir).map_batches(quality_score_batch, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_chars", "n_tokens", "n_stop", "n_alpha", "quality"])


def q_ann_brute_topk(sf_dir: str):
    from ..stages.ann import brute_force_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    qmask = pa.compute.less(emb.column("vec_id"), 5)
    qtbl = emb.filter(qmask).sort_by("vec_id")
    queries = np.array(qtbl.column("embedding").to_pylist(), dtype=np.float64)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    rows = brute_force_topk(ds, queries, k=TOPK, query_ids=qtbl.column("vec_id").to_pylist())
    return pd.DataFrame(rows, columns=["query_id", "rank", "vec_id", "cosine"])


def q_decontaminate_semantic(sf_dir: str):
    """Semantic decontamination: corpus embeddings whose max cosine vs the
    5 benchmark vectors (vec_id < 5) stays under 0.95; the benchmark rows
    themselves (cos=1) must drop. The compared output is the kept ID SET —
    the audit similarity column is excluded because numpy's pairwise
    summation and DuckDB list_cosine_similarity's sequential summation
    disagree in the last ulp on ~0.2% of values, flipping round-6 digits;
    the membership decision is ulp-robust (no value sits near 0.95)."""
    from ..stages.decontam import decontaminate_semantic

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    bench = emb.filter(pa.compute.less(emb.column("vec_id"), 5)).sort_by("vec_id")
    bvecs = np.array(bench.column("embedding").to_pylist(), dtype=np.float64)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    out = decontaminate_semantic(ds, bvecs, threshold=0.95)
    return out.select_columns(["vec_id"])


def q_ann_sq8_topk(sf_dir: str):
    """SQ8-quantized cosine top-k (int8 codes + per-vector scale, 4x
    smaller embedding storage). Approximate through quantization error
    only -> rows-only check."""
    from ..stages.ann import quantize_embeddings, sq8_brute_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    qtbl = emb.filter(pa.compute.less(emb.column("vec_id"), 5)).sort_by("vec_id")
    queries = np.array(qtbl.column("embedding").to_pylist(), dtype=np.float64)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    qds = quantize_embeddings(ds)
    rows = sq8_brute_topk(qds, queries, k=TOPK, query_ids=qtbl.column("vec_id").to_pylist())
    return pd.DataFrame(rows, columns=["query_id", "rank", "vec_id", "cosine"])


def q_ann_lsh_topk(sf_dir: str):
    from ..stages.ann import lsh_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    qtbl = emb.filter(pa.compute.less(emb.column("vec_id"), 5)).sort_by("vec_id")
    queries = np.array(qtbl.column("embedding").to_pylist(), dtype=np.float64)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    rows = lsh_topk(ds, queries, k=TOPK, bits=4)
    return pd.DataFrame(rows, columns=["query_id", "rank", "vec_id", "cosine"])


def q_ann_ivf_topk(sf_dir: str):
    """IVF coarse-quantizer ANN (rows-only — approximate; recall vs brute
    force asserted in test_dedup_ann.py). Bounded training sample, broadcast
    centroids, probe-limited batch scoring, distributed reduce."""
    from ..stages.ann import ivf_topk

    emb = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    qtbl = emb.filter(pa.compute.less(emb.column("vec_id"), 5)).sort_by("vec_id")
    queries = np.array(qtbl.column("embedding").to_pylist(), dtype=np.float64)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))
    rows = ivf_topk(ds, queries, k=TOPK, n_clusters=16, n_probe=6, train_sample=20_000)
    return pd.DataFrame(rows, columns=["query_id", "rank", "vec_id", "cosine"])


def q_multimodal_features(sf_dir: str):
    from ..stages.multimodal import media_feature_pipeline, synthesize_media_table

    media = synthesize_media_table(96, seed=5)
    ds = ray.data.from_arrow(media)
    out = media_feature_pipeline(ds)
    return out.select_columns(
        ["content_id", "modality", "payload_bytes", "width", "height", "duration_sec", "resize_scale"]
    )


def q_pack_sequences(sf_dir: str):
    from ..stages.packing import pack_sequences

    ds = pack_sequences(
        _documents_ds(sf_dir), budget=256, part_rows=100, text_column="text"
    )
    return ds.select_columns(["doc_id", "n_tokens", "start_tok", "first_seq", "last_seq"])


def q_pack_whole(sf_dir: str):
    from ..stages.packing import pack_sequences_whole

    ds = pack_sequences_whole(
        _documents_ds(sf_dir), budget=256, part_rows=100, text_column="text"
    )
    return ds.select_columns(["doc_id", "n_tokens", "seq_id", "seq_fill", "oversize"])


def q_dup_spans(sf_dir: str):
    """Exact duplicate-substring spans (Lee-et-al-style substring dedup):
    maximal token spans covered by an 8-token window whose exact text
    occurs >= 2 times corpus-wide. See stages/dupspans.py for the
    windowed-md5 shuffle design; the oracle mirrors it with DuckDB
    md5(array_to_string(...)) + gaps-and-islands."""
    from ..stages.dupspans import duplicate_spans

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return duplicate_spans(ds, window_tokens=8)


def q_dup_span_docs(sf_dir: str):
    """Per-doc duplicated-substring rollup: span count + distinct tokens
    covered, docs with >= 1 duplicated span only."""
    from ..stages.dupspans import duplicate_span_doc_stats

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )
    return duplicate_span_doc_stats(ds, window_tokens=8)


def q_sessionize_salted(sf_dir: str):
    """The hot-user-safe sessionize (events grouped by (user, 6h block),
    boundary sessions reconciled exactly — stages/windows.py salted
    section). SAME oracle as session_windows: the driver proves the scale
    path hash-exact."""
    from ..stages.windows import sessionize_salted

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    return sessionize_salted(ds, gap_us=1_800_000_000, salt_us=21_600_000_000)


def q_funnel_counts_salted(sf_dir: str):
    """The hot-user-safe funnel (per-(user, 6h block) transition vectors
    composed per user). SAME oracle as funnel_counts."""
    from ..stages.windows import funnel_counts_salted

    import datetime as _dt

    cut = _dt.datetime.fromisoformat(FUNNEL_CUT)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet")).map_batches(
        lambda b: b.filter(pa.compute.less(b.column("ts"), pa.scalar(cut, type=pa.timestamp("us")))),
        batch_format="pyarrow",
    )
    return funnel_counts_salted(ds, FUNNEL_STEPS, salt_us=21_600_000_000)


def q_simple_faceted_counts(sf_dir: str):
    """contrib/SimpleFacetedSearch analog (SimpleFacetedSearch.cs:36-54):
    hits of a query counted per CARTESIAN (lang, source) value group,
    zero-hit groups eliminated. The reference intersects per-field-value
    OpenBitSets; a composite-key groupby over the matched docs is the same
    computation expressed docs-side and stays distributed."""
    ds = _documents_ds(sf_dir)

    def has_term(batch: pa.Table) -> pa.Table:
        keep = [TERM in t.split() for t in batch.column("text").to_pylist()]
        return batch.filter(pa.array(keep)).select(["lang", "source"])

    matched = ds.map_batches(has_term, batch_format="pyarrow")
    return matched.groupby(["lang", "source"]).count().rename_columns(
        {"count()": "n_docs"}
    )


def q_line_dedup(sf_dir: str):
    """C4/CCNet-style global exact line dedup (stages/linededup.py): every
    duplicate line keeps only its first (doc_id, line_no) occurrence. The
    single-line test corpus is re-lined into 8-token lines first (linify —
    a deterministic fixture mirrored verbatim by the oracle's
    list_transform slicing); zero-token docs are excluded on both sides."""
    from ..stages.linededup import line_dedup, linify_batch

    ds = (
        _documents_ds(sf_dir)
        .select_columns(["doc_id", "text"])
        # zero-TOKEN docs (oracle: no [^ ]+ match) — strip spaces only, so
        # a tab-only doc stays in on both sides
        .filter(lambda r: bool(r["text"].strip(" ")))
        .map_batches(linify_batch, batch_format="pyarrow")
    )
    return line_dedup(ds)


def q_budget_select(sf_dir: str):
    """Token-budget corpus selection: keep the highest-quality docs (6-dp
    quality from stages/textstats, ties by doc_id) until a 15k-token global
    budget is exhausted — a distributed two-pass prefix sum over an integer
    quality key (stages/select.py). Oracle: SUM(...) OVER (ORDER BY quality
    DESC, doc_id) window, kept iff running total <= budget."""
    from ..stages.select import budget_select

    return budget_select(_documents_ds(sf_dir), budget_tokens=15_000)


def q_length_quantiles(sf_dir: str):
    """Exact per-lang token-count percentiles via a (lang, n_tokens)
    histogram reduce (stages/select.py) — quantile_disc semantics, verified
    against DuckDB's selection rule exhaustively."""
    from ..stages.select import length_quantiles

    return length_quantiles(_documents_ds(sf_dir))


def q_sampled_facet_counts(sf_dir: str):
    """RandomSamplingFacetsCollector analog: facet counts over a
    deterministic md5-draw sample of the hit set, amortized back up by the
    inverse sampling ratio (pipelines/facets.py sampled_facet_counts)."""
    from .facets import sampled_facet_counts

    return sampled_facet_counts(
        _documents_ds(sf_dir), term=TERM, facet_column="lang", fraction=0.5
    )


def q_corpus_shuffle(sf_dir: str):
    """Deterministic global corpus shuffle (training-order randomization):
    dense rank in (md5(text), doc_id) order, assigned with NO all-to-all
    sort — 4096 hash-range buckets + driver prefix sum over bucket counts
    (stages/select.py corpus_shuffle_ranks)."""
    from ..stages.select import corpus_shuffle_ranks

    return corpus_shuffle_ranks(
        _documents_ds(sf_dir).select_columns(["doc_id", "text"])
    )


def q_neardup_dedup_kept(sf_dir: str):
    """End-to-end near-duplicate REMOVAL — the step real pipelines run on
    the cluster output: exact-Jaccard pairs -> connected components ->
    keep only each component's min doc_id (plus every unclustered doc).
    Composes three tested stages; one extra broadcast of the (tiny)
    loser set: components-sized, never corpus-sized."""
    from ..stages.dedup import neardup_clusters, ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(
        _documents_ds(sf_dir), shingle_size=2, threshold=0.5, max_shingle_df=100_000
    )
    clusters = neardup_clusters(pairs).to_pandas()
    losers = set(
        clusters.loc[clusters["doc_id"] != clusters["cluster_id"], "doc_id"]
    )

    loser_arr = np.fromiter(losers, dtype=np.int64, count=len(losers))

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mask = pa.array(~np.isin(ids, loser_arr), type=pa.bool_())
        return batch.select(["doc_id"]).filter(mask)

    return _documents_ds(sf_dir).map_batches(keep, batch_format="pyarrow")


def q_dataset_split(sf_dir: str):
    """DatasetSplitter analog (train/test/cv corpus split by deterministic
    md5-draw, stages/clean.py dataset_split): per-doc split labels."""
    from ..stages.clean import dataset_split

    return dataset_split(
        _documents_ds(sf_dir).select_columns(["doc_id", "text"]),
        test_fraction=0.2,
        cv_fraction=0.1,
    ).select_columns(["doc_id", "split"])


QUERIES = {
    "corpus_shuffle": q_corpus_shuffle,
    "neardup_dedup_kept": q_neardup_dedup_kept,
    "dataset_split": q_dataset_split,
    "sampled_facet_counts": q_sampled_facet_counts,
    "line_dedup": q_line_dedup,
    "budget_select": q_budget_select,
    "length_quantiles": q_length_quantiles,
    "dup_spans": q_dup_spans,
    "dup_span_docs": q_dup_span_docs,
    "session_windows_salted": q_sessionize_salted,
    "funnel_counts_salted": q_funnel_counts_salted,
    "simple_faceted_counts": q_simple_faceted_counts,
    "tfidf_top_terms": q_tfidf_top_terms,
    "assoc_facet_sums": q_assoc_facet_sums,
    "training_shards": q_training_shards,
    "flexible_parser_counts": q_flexible_parser_counts,
    "function_valuesources": q_function_valuesources,
    "hopping_windows": q_hopping_windows,
    "media_neardup": q_media_neardup,
    "session_windows": q_sessionize,
    "funnel_counts": q_funnel_counts,
    "percolate_matches": q_percolate,
    "ann_sq8_topk": q_ann_sq8_topk,
    "ann_ivf_topk": q_ann_ivf_topk,
    "pack_sequences": q_pack_sequences,
    "pack_whole": q_pack_whole,
    "decontaminate_kept": q_decontaminate,
    "decontaminate_semantic": q_decontaminate_semantic,
    "stratified_sample": q_stratified_sample,
    "mix_sources": q_mix_sources,
    "repetition_stats": q_repetition_stats,
    "chunk_documents": q_chunk_documents,
    "facet_range_counts": q_facet_range_counts,
    "xml_filtered_count": q_xml_filtered_count,
    "simple_parser_count": q_simple_parser_count,
    "duplicate_filter_docs": q_duplicate_filter_docs,
    "block_join_scores": q_block_join_scores,
    "geo_distance": q_geo_distance,
    "geo_distance_join": q_geo_distance_join,
    "lm_quality_scores": q_lm_quality,
    "tumbling_windows": q_tumbling_windows,
    "clean_corpus_ids": q_clean_corpus_ids,
    "lang_id": q_lang_id,
    "quality_scores": q_quality_scores,
    "ann_brute_topk": q_ann_brute_topk,
    "ann_lsh_topk": q_ann_lsh_topk,
    "multimodal_features": q_multimodal_features,
    "token_counts": q_token_counts,
    "collection_stats": q_collection_stats,
    "term_df_top100": q_term_df_top100,
    "term_range_terms": q_term_range_terms,
    "bm25_term_topk": q_bm25_term_topk,
    "bm25_or_topk": q_bm25_or_topk,
    "bm25_and_topk": q_bm25_and_topk,
    "bm25_msm_topk": q_bm25_msm_topk,
    "phrase_topk": q_phrase_topk,
    "dismax_topk": q_dismax_topk,
    "bool_not_count": q_bool_not_count,
    "lm_dirichlet_topk": q_lm_dirichlet_topk,
    "prefix_doc_count": q_prefix_doc_count,
    "regexp_doc_count": q_regexp_doc_count,
    "merged_multiterm_counts": q_merged_multiterm_counts,
    "stemmed_term_df": q_stemmed_term_df,
    "semi_join_orders": q_semi_join_orders,
    "anti_join_customers": q_anti_join_customers,
    "facet_lang_counts": q_facet_lang_counts,
    "group_top2_per_lang": q_group_top2_per_lang,
    "group_heads": q_group_heads,
    "group_distinct_counts": q_group_distinct_counts,
    "group_facet_counts": q_group_facet_counts,
    "function_sort_topk": q_function_sort_topk,
    "function_scale_topk": q_function_scale_topk,
    "sort_top15_longest": q_sort_top15_longest,
    "drill_sideways_counts": q_drill_sideways,
    "taxonomy_counts": q_taxonomy_counts,
    "nb_classify": q_nb_classify,
    "dedup_exact": q_dedup_exact,
    "dedup_exact_canonical": q_dedup_exact_canonical,
    "dedup_fingerprint": q_dedup_fingerprint,
    "minhash_pairs": q_minhash_pairs,
    "simhash_pairs": q_simhash_pairs,
    "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
    "neardup_clusters": q_neardup_clusters,
    "pii_scrub": q_pii_scrub,
    "embed_neardup_pairs": q_embed_neardup_pairs,
    "embed_neardup_lsh": q_embed_neardup_lsh,
    "freetext_suggest": q_freetext_suggest,
    "infix_suggest": q_infix_suggest,
    "spell_suggest": q_spell_suggest,
    "spell_lev_topk": q_spell_lev_topk,
    "block_group_topk": q_block_group_topk,
    "sorted_index_top15": q_sorted_index_top15,
    "asof_purchase_view": q_asof_purchase_view,
    "range_join_views": q_range_join_views,
    "trending_terms": q_trending_terms,
    "ngram_counts": q_ngram_counts,
    "pmi_bigrams": q_pmi_bigrams,
}


# ---------------------------------------------------------------------------
# oracle SQL
# ---------------------------------------------------------------------------

def oracle_sql() -> dict[str, str]:
    langs = {
        "de": ("der", "die", "und", "das", "ist", "von", "den", "mit", "für", "auf"),
        "en": ("the", "and", "is", "of", "to", "in", "a", "that", "it", "for"),
        "es": ("el", "la", "de", "que", "y", "en", "los", "se", "del", "las"),
        "fr": ("le", "la", "et", "les", "des", "est", "un", "une", "dans", "que"),
    }
    lang_counts = ", ".join(
        f"len(list_filter(regexp_extract_all(text, '[a-z0-9]+'), t -> t IN "
        f"({', '.join(repr(w) for w in ws)}))) AS s_{lang}"
        for lang, ws in langs.items()
    )
    from ..stages.clean import mix_threshold_hex

    mix_case = (
        "CASE source "
        + " ".join(
            f"WHEN '{s}' THEN '{mix_threshold_hex(f)}'" for s, f in MIX_WEIGHTS.items()
        )
        + " ELSE '00000000' END"
    )
    def _rng_pred(lo, hi, inc_lo, inc_hi):
        parts = []
        if lo is not None:
            parts.append(f"n_chars {'>=' if inc_lo else '>'} {lo}")
        if hi is not None:
            parts.append(f"n_chars {'<=' if inc_hi else '<'} {hi}")
        return " AND ".join(parts) or "TRUE"

    range_union = "\nUNION ALL ".join(
        f"SELECT '{label}' AS label, count(*) AS n_docs FROM documents "
        f"WHERE {_rng_pred(lo, hi, il, ih)}"
        for label, lo, hi, il, ih in FACET_RANGES
    )
    _DUP_W = 8
    _DUP_SPANS_SQL = f"""
WITH toks AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS t FROM documents),
win AS (SELECT doc_id, unnest(generate_series(1, len(t) - {_DUP_W} + 1)) - 1 AS pos, t
        FROM toks WHERE len(t) >= {_DUP_W}),
win2 AS (SELECT doc_id, pos,
                md5(array_to_string(t[pos + 1 : pos + {_DUP_W}], ' ')) AS key
         FROM win),
dup AS (SELECT key FROM win2 GROUP BY key HAVING count(*) >= 2),
marked AS (SELECT w.doc_id, w.pos FROM win2 w JOIN dup USING(key)),
isl AS (SELECT doc_id, pos,
               CASE WHEN pos - lag(pos) OVER (PARTITION BY doc_id ORDER BY pos)
                         <= {_DUP_W} THEN 0 ELSE 1 END AS brk
        FROM marked),
grp AS (SELECT doc_id, pos,
               sum(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS g
        FROM isl)
SELECT doc_id, min(pos) AS span_start,
       CAST(max(pos) + {_DUP_W} AS BIGINT) AS span_end,
       count(*) AS n_windows
FROM grp GROUP BY doc_id, g ORDER BY doc_id, span_start
"""
    d = {
        "line_dedup": """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '[^ ]+') AS t FROM documents
  WHERE len(regexp_extract_all(text, '[^ ]+')) > 0),
lin AS (
  SELECT doc_id,
    list_transform(range(0, CAST(ceil(len(t)/8.0) AS BIGINT)),
                   i -> array_to_string(t[CAST(i*8+1 AS BIGINT):CAST(i*8+8 AS BIGINT)], ' ')) AS ls
  FROM toks),
flat AS (
  SELECT doc_id, unnest(ls) AS line, generate_subscripts(ls, 1) - 1 AS line_no FROM lin),
kept AS (
  SELECT doc_id, line_no, line,
         row_number() OVER (PARTITION BY line ORDER BY doc_id, line_no) AS rn
  FROM flat)
SELECT doc_id, string_agg(line, chr(10) ORDER BY line_no) AS text
FROM kept WHERE rn = 1 GROUP BY doc_id ORDER BY doc_id
""",
        "budget_select": f"""
WITH f AS (
  SELECT doc_id,
    CAST(length(text) AS BIGINT) AS n_chars,
    CAST(len(regexp_extract_all(text, '[a-z0-9]+')) AS BIGINT) AS n_tokens,
    CAST(len(list_filter(regexp_extract_all(text, '[a-z0-9]+'), t -> t IN ({STOPS_SQL}))) AS BIGINT) AS n_stop,
    CAST(length(regexp_replace(text, '[^a-zA-Z0-9]', '', 'g')) AS BIGINT) AS n_alpha
  FROM documents),
s AS (
  SELECT doc_id, n_tokens,
    ROUND(CASE WHEN n_tokens = 0 THEN 0.0 ELSE n_stop * 1.0 / n_tokens END * 0.5
        + least(n_tokens, 100) / 100.0 * 0.3
        + CASE WHEN n_chars = 0 THEN 0.0 ELSE n_alpha * 1.0 / n_chars END * 0.2, 6) AS quality
  FROM f),
c AS (
  SELECT doc_id, n_tokens, quality,
    SUM(n_tokens) OVER (ORDER BY quality DESC, doc_id) AS cum_tokens
  FROM s)
SELECT doc_id, n_tokens, quality, CAST(cum_tokens AS BIGINT) AS cum_tokens
FROM c WHERE cum_tokens <= 15000 ORDER BY doc_id
""",
        "length_quantiles": """
SELECT lang,
  CAST(count(*) AS BIGINT) AS n_docs,
  quantile_disc(n, 0.25) AS q25,
  quantile_disc(n, 0.50) AS q50,
  quantile_disc(n, 0.75) AS q75,
  quantile_disc(n, 0.90) AS q90,
  quantile_disc(n, 0.95) AS q95,
  quantile_disc(n, 0.99) AS q99
FROM (SELECT lang, CAST(len(regexp_extract_all(text, '[a-z0-9]+')) AS BIGINT) AS n
      FROM documents)
GROUP BY lang ORDER BY lang
""",
        "dup_spans": _DUP_SPANS_SQL,
        "dup_span_docs": f"""
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_spans,
       CAST(sum(span_end - span_start) AS BIGINT) AS dup_tokens
FROM ({_DUP_SPANS_SQL}) GROUP BY doc_id ORDER BY doc_id
""",
        "xml_filtered_count": f"""
WITH {_TOKS_CTE}
SELECT count(*) AS n FROM documents d
WHERE d.n_chars >= 150 AND d.n_chars <= 400
  AND EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id
              AND t.tok IN ('merge', 'spark'))
""",
        "simple_parser_count": f"""
WITH {_TOKS_CTE}
SELECT count(*) AS n FROM documents d
WHERE EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = 'merge')
  AND EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = 'spark')
  AND NOT EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = 'window')
""",
        "lm_quality_scores": """
WITH toks0 AS (SELECT doc_id, regexp_extract_all(text, '[a-z0-9]+') AS l FROM documents),
uni AS (SELECT u.tok, count(*) AS cnt
        FROM (SELECT unnest(l) AS tok FROM toks0) u GROUP BY 1),
tot AS (SELECT sum(cnt) AS t FROM uni),
pairs AS (SELECT unnest(list_zip(l[1:len(l)-1], l[2:len(l)])) AS z FROM toks0),
big AS (SELECT z[1] AS w1, z[2] AS w2, count(*) AS cnt FROM pairs GROUP BY 1, 2),
pos AS (SELECT doc_id, unnest(l) AS tok,
               unnest(list_prepend(CAST(NULL AS VARCHAR), l[1:len(l)-1])) AS prev
        FROM toks0),
lps AS (
  SELECT p.doc_id,
         CASE WHEN p.prev IS NOT NULL AND b.cnt IS NOT NULL
              THEN ln(b.cnt * 1.0 / up.cnt)
              WHEN p.prev IS NOT NULL
              THEN ln(0.4 * u.cnt / (SELECT t FROM tot))
              ELSE ln(u.cnt * 1.0 / (SELECT t FROM tot))
         END AS lp
  FROM pos p
  JOIN uni u ON u.tok = p.tok
  LEFT JOIN big b ON b.w1 = p.prev AND b.w2 = p.tok
  LEFT JOIN uni up ON up.tok = p.prev
),
agg AS (SELECT doc_id, sum(lp) / count(*) AS lm_logprob FROM lps GROUP BY doc_id)
SELECT d.doc_id,
       COALESCE(a.lm_logprob, ln(0.000000001)) AS lm_logprob
FROM documents d LEFT JOIN agg a ON a.doc_id = d.doc_id
ORDER BY d.doc_id
""",
        "freetext_suggest": """
WITH toks0 AS (SELECT regexp_extract_all(text, '[a-z0-9]+') AS l FROM documents),
uni AS (SELECT u.tok, count(*) AS cnt
        FROM (SELECT unnest(l) AS tok FROM toks0) u GROUP BY 1),
tot AS (SELECT sum(cnt) AS t FROM uni),
pairs AS (SELECT unnest(list_zip(l[1:len(l)-1], l[2:len(l)])) AS z FROM toks0),
big AS (SELECT z[1] AS w1, z[2] AS w2, count(*) AS cnt FROM pairs GROUP BY 1, 2),
ctxs(ctx) AS (VALUES ('public'), ('import'), ('the')),
o1 AS (SELECT c.ctx, b.w2 AS token, b.cnt * 1.0 / u.cnt AS score
       FROM ctxs c JOIN big b ON b.w1 = c.ctx JOIN uni u ON u.tok = c.ctx),
o0 AS (SELECT c.ctx, u.tok AS token, 0.4 * u.cnt / (SELECT t FROM tot) AS score
       FROM ctxs c CROSS JOIN uni u
       WHERE NOT EXISTS (SELECT 1 FROM o1
                         WHERE o1.ctx = c.ctx AND o1.token = u.tok)),
ranked AS (SELECT ctx AS context, token, score,
                  row_number() OVER (PARTITION BY ctx
                                     ORDER BY score DESC, token) AS rn
           FROM (SELECT * FROM o1 UNION ALL SELECT * FROM o0))
SELECT context, token, score FROM ranked WHERE rn <= 5
ORDER BY context, rn
""",
        "pack_whole": r"""
WITH RECURSIVE
tf AS (SELECT doc_id,
              CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n,
              doc_id // 100 AS part,
              row_number() OVER (PARTITION BY doc_id // 100 ORDER BY doc_id) AS rn
       FROM documents),
walk AS (
  SELECT part, rn, doc_id, n, CAST(0 AS BIGINT) AS seq, n AS fill
  FROM tf WHERE rn = 1
  UNION ALL
  SELECT t.part, t.rn, t.doc_id, t.n,
         CASE WHEN w.fill > 0 AND w.fill + t.n > 256 THEN w.seq + 1 ELSE w.seq END,
         CASE WHEN w.fill > 0 AND w.fill + t.n > 256 THEN t.n ELSE w.fill + t.n END
  FROM walk w JOIN tf t ON t.part = w.part AND t.rn = w.rn + 1
)
SELECT doc_id, n AS n_tokens, (part << 32) | seq AS seq_id,
       fill AS seq_fill, n > 256 AS oversize
FROM walk ORDER BY doc_id
""",
        "nb_classify": f"""
WITH {_TOKS_CTE},
labels AS (SELECT DISTINCT lang AS label FROM documents),
cls AS (SELECT lang AS label, count(*) AS doc_count FROM documents GROUP BY lang),
tok_cnt AS (SELECT d.lang AS label, t.tok, count(*) AS n
            FROM toks t JOIN documents d USING (doc_id) GROUP BY 1, 2),
cls_tok AS (SELECT label, sum(n) AS tokens FROM tok_cnt GROUP BY label),
vsize AS (SELECT count(DISTINCT tok) AS v FROM toks),
doc_tf AS (SELECT doc_id, tok, count(*) AS tf FROM toks GROUP BY doc_id, tok),
contrib AS (
  SELECT dt.doc_id, l.label,
         sum(dt.tf * ln((COALESCE(tc.n, 0) + 1.0)
                        / (ct.tokens + (SELECT v FROM vsize)))) AS s
  FROM doc_tf dt
  CROSS JOIN labels l
  LEFT JOIN tok_cnt tc ON tc.label = l.label AND tc.tok = dt.tok
  JOIN cls_tok ct ON ct.label = l.label
  GROUP BY dt.doc_id, l.label
),
scored AS (
  SELECT d.doc_id, d.lang, l.label,
         ln(cl.doc_count * 1.0 / (SELECT count(*) FROM documents))
           + COALESCE(co.s, 0.0) AS score
  FROM documents d
  CROSS JOIN labels l
  JOIN cls cl ON cl.label = l.label
  LEFT JOIN contrib co ON co.doc_id = d.doc_id AND co.label = l.label
)
SELECT doc_id, lang, label AS pred_label
FROM (SELECT *, row_number() OVER (PARTITION BY doc_id
                                   ORDER BY score DESC, label) AS rn
      FROM scored)
WHERE rn = 1 ORDER BY doc_id
""",
        "spell_lev_topk": f"""
WITH {_TOKS_CTE},
vocab AS (SELECT DISTINCT tok FROM toks),
cand AS (
  SELECT w.word, v.tok AS suggestion,
         1.0 - levenshtein(w.word, v.tok)
               / CAST(greatest(length(w.word), length(v.tok)) AS DOUBLE) AS sim
  FROM (VALUES ('mrege'), ('spakr'), ('windwo')) AS w(word)
  CROSS JOIN vocab v
),
ranked AS (
  SELECT word, suggestion, ROUND(sim, 6) AS score,
         row_number() OVER (PARTITION BY word
                            ORDER BY ROUND(sim, 6) DESC, suggestion) AS rank
  FROM cand WHERE sim > 0.34
)
SELECT word, CAST(rank AS BIGINT) AS rank, suggestion, score
FROM ranked WHERE rank <= 5 ORDER BY word, rank
""",
        "function_valuesources": f"""
WITH {_TOKS_CTE},
dl AS (SELECT doc_id, count(*) AS n_terms FROM toks GROUP BY doc_id),
nb(lo, hi, norm_dec) AS (VALUES (0, 0, {float(BYTE315_DECODE[255])!r}), {", ".join(f"({lo}, {hi}, {float(BYTE315_DECODE[b])!r})" for lo, hi, b in length_bucket_table(1_000_000))}),
tfs AS (SELECT doc_id, count(*) AS tf FROM toks WHERE tok = 'spark' GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM documents) AS n,
                 (SELECT count(DISTINCT doc_id) FROM toks WHERE tok = 'spark') AS df,
                 (SELECT count(DISTINCT lang) FROM documents) AS card),
ords AS (SELECT doc_id, dense_rank() OVER (ORDER BY lang) - 1 AS o FROM documents)
SELECT d.doc_id,
  ln(1 + COALESCE(tfs.tf, 0)) * (ln((SELECT n FROM stats) / ((SELECT df FROM stats) + 1.0)) + 1.0)
  + 3.0 * ((SELECT card FROM stats) - 1 - ords.o)
  + 100.0 * nb.norm_dec
  + CASE WHEN d.n_chars > 300 THEN 0.5 ELSE 0.0 END AS fscore
FROM documents d
JOIN ords ON ords.doc_id = d.doc_id
LEFT JOIN tfs ON tfs.doc_id = d.doc_id
LEFT JOIN dl ON dl.doc_id = d.doc_id
JOIN nb ON COALESCE(dl.n_terms, 0) BETWEEN nb.lo AND nb.hi
ORDER BY d.doc_id
""",
        "flexible_parser_counts": f"""
WITH {_TOKS_CTE},
has AS (
  SELECT d.doc_id,
         EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = 'merge') AS h_merge,
         EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = 'spark') AS h_spark,
         EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = 'window') AS h_window,
         d.n_chars
  FROM documents d
)
SELECT
  (SELECT count(*) FROM has WHERE h_merge AND h_spark) AS n_std,
  (SELECT count(*) FROM has WHERE (h_merge AND h_spark) OR h_window) AS n_prec,
  (SELECT count(*) FROM has WHERE n_chars > 150 AND n_chars <= 400 AND h_merge) AS n_num
""",
        "duplicate_filter_docs": """
SELECT min(doc_id) AS doc_id FROM documents GROUP BY lang ORDER BY 1
""",
        "assoc_facet_sums": """
WITH p AS (
  SELECT lang || '/' || CASE WHEN n_chars >= 300 THEN 'long' ELSE 'short' END AS path,
         n_chars
  FROM documents
)
SELECT facet, CAST(sum(n_chars) AS BIGINT) AS sum_chars, count(*) AS n_docs
FROM (
  SELECT lang AS facet, n_chars FROM documents
  UNION ALL
  SELECT path, n_chars FROM p
)
GROUP BY facet ORDER BY facet
""",
        "training_shards": rf"""
WITH kept AS (
  SELECT d.doc_id, d.text FROM documents d
  WHERE d.doc_id = (SELECT min(doc_id) FROM documents d2 WHERE d2.text = d.text)
),
ts AS (
  SELECT doc_id, list_filter(regexp_split_to_array(text, '\s+'), t -> t <> '') AS toks
  FROM kept
),
idx AS (
  SELECT doc_id, toks,
         unnest(generate_series(0, len(toks) - 1, {CHUNK_TOKENS - CHUNK_OVERLAP})) AS st
  FROM ts WHERE len(toks) > 0
),
chunks AS (
  SELECT doc_id * 1000000 + CAST(st / {CHUNK_TOKENS - CHUNK_OVERLAP} AS BIGINT) AS chunk_uid,
         least({CHUNK_TOKENS}, len(toks) - st) AS n_tokens
  FROM idx
),
ordered AS (
  SELECT chunk_uid, CAST(n_tokens AS BIGINT) AS n_tokens,
         CAST(sum(n_tokens) OVER (ORDER BY chunk_uid
              ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - n_tokens AS BIGINT)
           AS start_tok
  FROM chunks
)
SELECT chunk_uid, n_tokens, start_tok,
       start_tok // 2048 AS first_seq,
       greatest(start_tok // 2048, (start_tok + n_tokens - 1) // 2048) AS last_seq
FROM ordered
""",
        "trending_terms": f"""
WITH {_TOKS_CTE},
cnt AS (
  SELECT d.lang, t.tok, count(*) AS n
  FROM toks t JOIN documents d USING (doc_id)
  GROUP BY d.lang, t.tok
)
SELECT lang, tok, n FROM (
  SELECT lang, tok, n,
         row_number() OVER (PARTITION BY lang ORDER BY n DESC, tok ASC) AS rn
  FROM cnt
) WHERE rn <= 5 ORDER BY lang, tok
""",
        "ngram_counts": f"""
WITH lst AS (
  SELECT doc_id, list_filter(regexp_extract_all(text, '[a-z0-9]+'), t -> t NOT IN ({STOPS_SQL})) AS l
  FROM documents),
bg AS (SELECT l[i] AS t1, l[i+1] AS t2 FROM lst, unnest(range(1, len(l))) AS u(i))
SELECT t1, t2, count(*) AS n FROM bg GROUP BY t1, t2
ORDER BY n DESC, t1 || chr(31) || t2 ASC LIMIT 100
""",
        "pmi_bigrams": f"""
WITH lst AS (
  SELECT doc_id, list_filter(regexp_extract_all(text, '[a-z0-9]+'), t -> t NOT IN ({STOPS_SQL})) AS l
  FROM documents),
uni AS (SELECT unnest(l) AS tok FROM lst),
ucnt AS (SELECT tok, count(*) AS c FROM uni GROUP BY tok),
nu AS (SELECT count(*) AS v FROM uni),
bg AS (SELECT l[i] AS t1, l[i+1] AS t2 FROM lst, unnest(range(1, len(l))) AS u(i)),
nb AS (SELECT count(*) AS v FROM bg),
bcnt AS (SELECT t1, t2, count(*) AS n FROM bg GROUP BY t1, t2 HAVING count(*) >= 5),
scored AS (
  SELECT t1, t2, n,
    ROUND(ln(((n * 1.0 * (SELECT v FROM nu) / ux.c) * (SELECT v FROM nu) / uy.c) / (SELECT v FROM nb)), 6) AS pmi
  FROM bcnt JOIN ucnt ux ON ux.tok = bcnt.t1 JOIN ucnt uy ON uy.tok = bcnt.t2)
SELECT t1, t2, n, pmi FROM scored ORDER BY pmi DESC, t1 ASC, t2 ASC LIMIT 50
""",
        "tfidf_top_terms": f"""
WITH {_TOKS_CTE},
tfs AS (SELECT doc_id, tok, count(*) AS tf FROM toks GROUP BY doc_id, tok),
dfs AS (SELECT tok, count(*) AS df FROM tfs GROUP BY tok),
nd AS (SELECT count(*) AS v FROM documents),
scored AS (
  SELECT tfs.doc_id, tfs.tok,
    ROUND(tf * ln((SELECT v FROM nd) * 1.0 / df), 6) AS tfidf,
    row_number() OVER (PARTITION BY tfs.doc_id
      ORDER BY ROUND(tf * ln((SELECT v FROM nd) * 1.0 / df), 6) DESC, tfs.tok ASC) AS rank
  FROM tfs JOIN dfs ON dfs.tok = tfs.tok)
SELECT doc_id, CAST(rank AS BIGINT) AS rank, tok, tfidf FROM scored WHERE rank <= 3
ORDER BY doc_id, rank
""",
        "range_join_views": """
SELECT l.event_id AS purchase_id, r.event_id AS view_event_id
FROM (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase') l
JOIN (SELECT event_id, user_id, ts FROM events WHERE event_type = 'view') r
  ON l.user_id = r.user_id
 AND r.ts <= l.ts AND r.ts >= l.ts - INTERVAL 1 HOUR
""",
        "asof_purchase_view": """
WITH l AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'purchase'),
r AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'view'),
j AS (
  SELECT l.event_id AS purchase_id, l.user_id, r.event_id AS view_event_id,
         row_number() OVER (
           PARTITION BY l.event_id ORDER BY r.ts DESC, r.event_id DESC
         ) AS rn
  FROM l JOIN r ON l.user_id = r.user_id AND r.ts <= l.ts
)
SELECT purchase_id, user_id, view_event_id FROM j WHERE rn = 1
""",
        "sorted_index_top15": f"""
WITH {_TOKS_CTE}
SELECT doc_id, n_chars FROM documents d
WHERE EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = '{TERM}')
ORDER BY n_chars DESC, doc_id ASC LIMIT 15
""",
        "block_group_topk": """
WITH scored AS (
  SELECT l_orderkey AS block, l_linenumber AS child, l_extendedprice AS score
  FROM lineitem WHERE l_quantity >= 45
), ranked AS (
  SELECT block, child, score,
         row_number() OVER (PARTITION BY block ORDER BY score DESC, child ASC) AS rank,
         max(score) OVER (PARTITION BY block) AS best
  FROM scored
), top_blocks AS (
  SELECT block FROM (SELECT DISTINCT block, best FROM ranked)
  ORDER BY best DESC, block ASC LIMIT 10
)
SELECT r.block, r.rank, r.child, r.score
FROM ranked r JOIN top_blocks t USING (block)
WHERE r.rank <= 2
""",
        "group_heads": f"""
WITH {_TOKS_CTE},
m AS (
  SELECT d.lang, d.doc_id, d.n_chars FROM documents d
  WHERE EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = '{TERM}')
)
SELECT lang, doc_id, n_chars FROM (
  SELECT lang, doc_id, n_chars,
         row_number() OVER (PARTITION BY lang ORDER BY n_chars DESC, doc_id ASC) AS rn
  FROM m
) WHERE rn = 1 ORDER BY lang
""",
        "group_distinct_counts": f"""
WITH {_TOKS_CTE}
SELECT lang, count(DISTINCT n_chars) AS n_distinct FROM documents d
WHERE EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = '{TERM}')
GROUP BY lang ORDER BY lang
""",
        "group_facet_counts": f"""
WITH {_TOKS_CTE}
SELECT source AS facet_value, count(DISTINCT lang) AS n_groups FROM documents d
WHERE EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = '{TERM}')
GROUP BY source ORDER BY facet_value
""",
        "infix_suggest": f"""
WITH {_TOKS_CTE},
m AS (
  SELECT d.doc_id, d.n_chars FROM documents d
  WHERE EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = 'merge')
    AND EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok LIKE 'sp%')
)
SELECT row_number() OVER (ORDER BY n_chars DESC, doc_id ASC) AS rank,
       doc_id, n_chars AS weight
FROM m ORDER BY rank LIMIT {TOPK}
""",
        "function_scale_topk": f"""
WITH s AS (SELECT min(n_chars) AS mn, max(n_chars) AS mx FROM documents),
sc AS (
  SELECT doc_id,
         (n_chars - mn) / (mx - mn) * (100.0 - 0.0) + 0.0 AS raw
  FROM documents, s
)
SELECT row_number() OVER (ORDER BY raw DESC, doc_id ASC) AS rank,
       doc_id, round(raw, 6) AS score
FROM sc ORDER BY rank LIMIT {TOPK}
""",
        "function_sort_topk": f"""
SELECT row_number() OVER (
         ORDER BY (n_chars % 97) * 1000000.0 + doc_id % 999983 DESC, doc_id ASC
       ) AS rank,
       doc_id,
       (n_chars % 97) * 1000000.0 + doc_id % 999983 AS score
FROM documents
ORDER BY rank LIMIT {TOPK}
""",
        "geo_distance": f"""
WITH pts AS (
  SELECT doc_id,
         (doc_id * 7919 % 18000) / 100.0 - 90.0 AS lat,
         (doc_id * 104729 % 36000) / 100.0 - 180.0 AS lon
  FROM documents
), d AS (
  SELECT doc_id,
         2 * 6371.0088 * asin(sqrt(
           pow(sin((radians({GEO_CENTER[0]}) - radians(lat)) / 2), 2)
           + cos(radians(lat)) * cos(radians({GEO_CENTER[0]}))
             * pow(sin((radians({GEO_CENTER[1]}) - radians(lon)) / 2), 2)
         )) AS dist
  FROM pts
)
SELECT doc_id, round(dist, 6) AS distance_km FROM d
WHERE dist <= {GEO_RADIUS_KM} ORDER BY doc_id
""",
        "geo_distance_join": f"""
WITH pts AS (
  SELECT doc_id,
         (doc_id * 7919 % 18000) / 100.0 - 90.0 AS lat,
         (doc_id * 104729 % 36000) / 100.0 - 180.0 AS lon
  FROM documents
  WHERE abs((doc_id * 7919 % 18000) / 100.0 - 90.0) <= 80.0
), pr AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b,
         2 * 6371.0088 * asin(sqrt(
           pow(sin((radians(b.lat) - radians(a.lat)) / 2), 2)
           + cos(radians(a.lat)) * cos(radians(b.lat))
             * pow(sin((radians(b.lon) - radians(a.lon)) / 2), 2)
         )) AS dist
  FROM pts a JOIN pts b ON a.doc_id < b.doc_id
)
SELECT id_a, id_b, round(dist, 6) AS distance_km FROM pr
WHERE dist <= {GEO_JOIN_RADIUS_KM} ORDER BY id_a, id_b
""",
        "block_join_scores": """
SELECT l_orderkey AS parent,
       round(avg(l_extendedprice) FILTER (WHERE l_quantity >= 45), 6) AS score,
       count(*) FILTER (WHERE l_quantity >= 45) AS n_matches
FROM lineitem
GROUP BY l_orderkey
HAVING count(*) FILTER (WHERE l_quantity >= 45) > 0
ORDER BY parent
""",
        "percolate_matches": f"""
WITH {_TOKS_CTE}
SELECT doc_id, 'alert_merge_and_spark' AS query_name FROM documents d
WHERE EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = 'merge')
  AND EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = 'spark')
UNION ALL
SELECT doc_id, 'alert_vector' FROM documents d
WHERE EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id AND t.tok = 'vector')
UNION ALL
SELECT doc_id, 'alert_window_or_stream' FROM documents d
WHERE EXISTS (SELECT 1 FROM toks t WHERE t.doc_id = d.doc_id
              AND t.tok IN ('window', 'stream'))
ORDER BY query_name, doc_id
""",
        "funnel_counts": f"""
WITH ev AS (
  SELECT * FROM events WHERE ts < TIMESTAMP '{FUNNEL_CUT}'
), s1 AS (
  SELECT user_id, min(ROW(ts, event_id)) AS r FROM ev
  WHERE event_type = 'view' GROUP BY user_id
), s2 AS (
  SELECT e.user_id, min(ROW(e.ts, e.event_id)) AS r
  FROM ev e JOIN s1 ON e.user_id = s1.user_id
  WHERE e.event_type = 'click' AND ROW(e.ts, e.event_id) > s1.r
  GROUP BY e.user_id
), s3 AS (
  SELECT e.user_id, min(ROW(e.ts, e.event_id)) AS r
  FROM ev e JOIN s2 ON e.user_id = s2.user_id
  WHERE e.event_type = 'purchase' AND ROW(e.ts, e.event_id) > s2.r
  GROUP BY e.user_id
)
SELECT 1 AS step, 'view' AS event_type, (SELECT count(*) FROM s1) AS n_users
UNION ALL SELECT 2, 'click', (SELECT count(*) FROM s2)
UNION ALL SELECT 3, 'purchase', (SELECT count(*) FROM s3)
ORDER BY step
""",
        "decontaminate_semantic": """
WITH bench AS (
  SELECT embedding AS bv FROM embeddings WHERE vec_id < 5
), mx AS (
  SELECT e.vec_id,
         max(list_cosine_similarity(e.embedding, b.bv)) AS m
  FROM embeddings e CROSS JOIN bench b
  GROUP BY e.vec_id
)
SELECT vec_id FROM mx WHERE m < 0.95 ORDER BY vec_id
""",
        "chunk_documents": rf"""
WITH ts AS (
  SELECT doc_id, list_filter(regexp_split_to_array(text, '\s+'), t -> t <> '') AS toks
  FROM documents
), idx AS (
  SELECT doc_id, toks,
         unnest(generate_series(0, len(toks) - 1, {CHUNK_TOKENS - CHUNK_OVERLAP})) AS st
  FROM ts WHERE len(toks) > 0
)
SELECT doc_id,
       CAST(st / {CHUNK_TOKENS - CHUNK_OVERLAP} AS BIGINT) AS chunk_id,
       array_to_string(toks[st + 1 : st + {CHUNK_TOKENS}], ' ') AS chunk_text,
       least({CHUNK_TOKENS}, len(toks) - st) AS n_tokens
FROM idx ORDER BY doc_id, chunk_id
""",
        "repetition_stats": r"""
WITH ts AS (
  SELECT doc_id, list_filter(regexp_split_to_array(text, '\s+'), t -> t <> '') AS toks
  FROM documents
), tok AS (
  SELECT doc_id, unnest(toks) AS t FROM ts
), tcnt AS (
  SELECT doc_id, t, count(*) AS c FROM tok GROUP BY doc_id, t
), bi AS (
  SELECT doc_id,
         unnest(list_transform(generate_series(1, len(toks) - 1),
                               i -> toks[i] || ' ' || toks[i + 1])) AS g
  FROM ts WHERE len(toks) >= 2
), bcnt AS (
  SELECT doc_id, g, count(*) AS c FROM bi GROUP BY doc_id, g
), agg AS (
  SELECT ts.doc_id,
         len(ts.toks) AS n_tokens,
         coalesce((SELECT max(c) FROM tcnt WHERE tcnt.doc_id = ts.doc_id), 0) AS top_tok,
         coalesce((SELECT count(*) FROM tcnt WHERE tcnt.doc_id = ts.doc_id), 0) AS n_distinct,
         coalesce((SELECT max(c) FROM bcnt WHERE bcnt.doc_id = ts.doc_id), 0) AS top_bi
  FROM ts
)
SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
       round(CASE WHEN n_tokens > 0 THEN top_tok * 1.0 / n_tokens ELSE 0 END, 6) AS top_token_frac,
       round(CASE WHEN n_tokens > 0 THEN n_distinct * 1.0 / n_tokens ELSE 0 END, 6) AS distinct_frac,
       round(CASE WHEN n_tokens > 1 THEN top_bi * 1.0 / (n_tokens - 1) ELSE 0 END, 6) AS top_2gram_frac
FROM agg ORDER BY doc_id
""",
        "facet_range_counts": f"""
{range_union}
ORDER BY label
""",
        "mix_sources": f"""
SELECT doc_id, source FROM documents
WHERE substr(md5(text), 1, 8) < {mix_case}
ORDER BY doc_id
""",
        "token_counts": f"""
SELECT doc_id,
  CAST(len(regexp_extract_all(text, '[a-z0-9]+')) AS BIGINT) AS n_ws,
  CAST(len(list_filter(regexp_extract_all(text, '[a-z0-9]+'), t -> t NOT IN ({STOPS_SQL}))) AS BIGINT) AS n_terms,
  CAST(len(regexp_extract_all(text, '[a-z0-9]+')) AS BIGINT) AS n_bpe
FROM documents ORDER BY doc_id
""",
        "collection_stats": f"""
WITH {_TOKS_CTE}
SELECT (SELECT count(*) FROM documents) AS max_doc,
       (SELECT count(*) FROM toks) AS sum_ttf,
       (SELECT count(DISTINCT tok) FROM toks) AS distinct_terms,
       ROUND((SELECT count(*) FROM toks) * 1.0 / (SELECT count(*) FROM documents), 6) AS avgdl
""",
        "term_df_top100": f"""
WITH {_TOKS_CTE}
SELECT tok AS term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM toks GROUP BY tok ORDER BY df DESC, term ASC LIMIT 100
""",
        "term_range_terms": f"""
WITH {_TOKS_CTE}
SELECT tok AS term, count(DISTINCT doc_id) AS df, count(*) AS ttf
FROM toks WHERE tok >= 'k' AND tok < 's' GROUP BY tok ORDER BY term
""",
        "bm25_term_topk": _bm25_rank_sql((TERM,)),
        "bm25_or_topk": _bm25_rank_sql(OR_TERMS),
        "bm25_and_topk": _bm25_rank_sql(AND_TERMS, having="= 2"),
        "bm25_msm_topk": _bm25_rank_sql(MSM_TERMS, having=">= 2"),
        "phrase_topk": _phrase_rank_sql(PHRASE_TERMS),
        "dismax_topk": _dismax_rank_sql(OR_TERMS, tie=0.3),
        "lm_dirichlet_topk": f"""
WITH {_TOKS_CTE},
dl AS (SELECT doc_id, count(*) AS n_terms FROM toks GROUP BY doc_id),
stats AS (SELECT (SELECT count(*) FROM toks) AS sum_ttf),
buckets(lo, hi, dl_dec) AS (VALUES {", ".join(f"({lo}, {hi}, {float(NORM_TABLE[b])!r})" for lo, hi, b in length_bucket_table(1_000_000))}),
tfs AS (SELECT doc_id, count(*) AS tf FROM toks WHERE tok = '{TERM}' GROUP BY doc_id),
ttf AS (SELECT count(*) AS v FROM toks WHERE tok = '{TERM}'),
scored AS (
  SELECT tfs.doc_id,
         greatest(0.0,
           ln(1 + tfs.tf / (2000.0 * ((SELECT v FROM ttf) + 1.0) / ((SELECT sum_ttf FROM stats) + 1.0)))
           + ln(2000.0 / (b.dl_dec + 2000.0))
         ) AS score
  FROM tfs
  JOIN dl ON dl.doc_id = tfs.doc_id
  JOIN buckets b ON dl.n_terms BETWEEN b.lo AND b.hi
)
SELECT CAST(row_number() OVER (ORDER BY ROUND(score, 4) DESC, doc_id ASC) AS BIGINT) AS rank,
       doc_id, ROUND(score, 4) AS score
FROM scored ORDER BY ROUND(score, 4) DESC, doc_id ASC LIMIT {TOPK}
""",
        "bool_not_count": f"""
WITH {_TOKS_CTE}
SELECT count(*) AS n FROM (
  SELECT doc_id FROM toks WHERE tok = 'merge'
  EXCEPT
  SELECT doc_id FROM toks WHERE tok = 'spark'
)
""",
        "prefix_doc_count": f"""
WITH {_TOKS_CTE}
SELECT count(DISTINCT doc_id) AS n FROM toks WHERE tok LIKE 'sp%'
""",
        "semi_join_orders": """
SELECT o_orderkey, o_custkey FROM orders
WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_nationkey = 1)
""",
        "anti_join_customers": """
SELECT c_custkey FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_totalprice > 450000)
""",
        "regexp_doc_count": f"""
WITH {_TOKS_CTE}
SELECT count(DISTINCT doc_id) AS n FROM toks WHERE regexp_matches(tok, '^(?:sp[a-z]*k)$')
""",
        "tumbling_windows": """
SELECT CAST(floor(epoch_us(ts) / 3600000000) AS BIGINT) AS win,
       event_type AS key,
       count(*) AS n_events,
       round(sum(value), 6) AS sum_value
FROM events GROUP BY 1, 2
""",
        "hopping_windows": """
WITH ex AS (
  SELECT event_type, value,
         unnest(generate_series(
           greatest(CAST(floor(epoch_us(ts) / 900000000) AS BIGINT) - 3, 0),
           CAST(floor(epoch_us(ts) / 900000000) AS BIGINT)
         )) AS win_start
  FROM events
)
SELECT win_start, event_type AS key, count(*) AS n_events,
       round(sum(value), 6) AS sum_value
FROM ex GROUP BY 1, 2 ORDER BY 1, 2
""",
        "session_windows": """
WITH o AS (
  SELECT user_id, ts, event_id, value,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch_us(ts) - lag(epoch_us(ts)) OVER w > 1800000000
              THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
), s AS (
  SELECT *, SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS sid
  FROM o
)
SELECT user_id, CAST(sid AS BIGINT) AS session_id, count(*) AS n_events,
       round(sum(value), 6) AS sum_value, min(epoch_us(ts)) AS start_us
FROM s GROUP BY user_id, sid
""",
        "stratified_sample": """
WITH ranked AS (
  SELECT doc_id, lang,
         row_number() OVER (PARTITION BY lang ORDER BY md5(text), doc_id) AS rn
  FROM documents
)
SELECT doc_id, lang FROM ranked WHERE rn <= 10
""",
        "decontaminate_kept": """
WITH bench AS (
  SELECT array_to_string(string_split(text, ' ')[1:8], ' ') AS gram
  FROM documents WHERE doc_id < 5
)
SELECT d.doc_id FROM documents d
WHERE NOT EXISTS (
  SELECT 1 FROM bench b WHERE b.gram <> '' AND contains(d.text, b.gram)
)
""",
        "merged_multiterm_counts": f"""
WITH {_TOKS_CTE},
counts AS (
  SELECT 'prefix' AS q, count(DISTINCT doc_id) AS n FROM toks WHERE tok LIKE 'sp%'
  UNION ALL SELECT 'wildcard', count(DISTINCT doc_id) FROM toks WHERE tok LIKE 'sp_rk'
  UNION ALL SELECT 'regexp', count(DISTINCT doc_id) FROM toks
    WHERE regexp_matches(tok, '^(?:sp[a-z]*k)$')
  UNION ALL SELECT 'range', count(DISTINCT doc_id) FROM toks WHERE tok BETWEEN 'spa' AND 'spz'
  UNION ALL SELECT 'fuzzy', count(DISTINCT doc_id) FROM toks
    WHERE tok LIKE 's%' AND levenshtein(tok, 'spark') <= 1
)
SELECT q, n FROM counts ORDER BY q
""",
        "facet_lang_counts": f"""
WITH {_TOKS_CTE}
SELECT d.lang, count(*) AS n_docs
FROM documents d
WHERE d.doc_id IN (SELECT DISTINCT doc_id FROM toks WHERE tok = '{TERM}')
GROUP BY d.lang ORDER BY d.lang
""",
        "group_top2_per_lang": f"""
WITH {_TOKS_CTE},
nt AS (SELECT d.doc_id, d.lang, (SELECT count(*) FROM toks WHERE toks.doc_id = d.doc_id) AS n_terms
       FROM documents d),
ranked AS (SELECT lang, doc_id, n_terms,
           row_number() OVER (PARTITION BY lang ORDER BY n_terms DESC, doc_id ASC) AS rn
           FROM nt)
SELECT lang, doc_id, n_terms FROM ranked WHERE rn <= 2 ORDER BY lang, doc_id
""",
        "sort_top15_longest": """
SELECT doc_id, n_chars FROM documents ORDER BY n_chars DESC, doc_id ASC LIMIT 15
""",
        "drill_sideways_counts": """
WITH d AS (SELECT lang, CASE WHEN n_chars >= 300 THEN 'long' ELSE 'short' END AS len_bucket
           FROM documents)
SELECT dim, value, n_docs FROM (
  SELECT 'lang' AS dim, lang AS value, count(*) AS n_docs
  FROM d WHERE len_bucket = 'long' GROUP BY lang
  UNION ALL
  SELECT 'len_bucket' AS dim, len_bucket AS value, count(*) AS n_docs
  FROM d WHERE lang = 'en' GROUP BY len_bucket
) ORDER BY dim, value
""",
        "taxonomy_counts": """
WITH d AS (SELECT lang || '/' || CASE WHEN n_chars >= 300 THEN 'long' ELSE 'short' END AS p
           FROM documents)
SELECT path, count(*) AS n_docs FROM (
  SELECT split_part(p, '/', 1) AS path FROM d
  UNION ALL
  SELECT p AS path FROM d
) GROUP BY path ORDER BY path
""",
        "dedup_exact": """
SELECT md5(text) AS text_hash, min(doc_id) AS kept_doc_id, count(*) AS n_dups
FROM documents GROUP BY md5(text) ORDER BY text_hash
""",
        "dedup_exact_canonical": r"""
SELECT md5(trim(regexp_replace(lower(text), '\s+', ' ', 'g'))) AS text_hash,
       min(doc_id) AS kept_doc_id, count(*) AS n_dups
FROM documents GROUP BY 1 ORDER BY text_hash
""",
        "ngram_jaccard_pairs": """
WITH toks AS (SELECT doc_id, regexp_extract_all(text, '[a-z0-9]+') AS ts FROM documents),
sh AS (SELECT doc_id,
       list_distinct(list_transform(generate_series(1, len(ts) - 1), i -> ts[i] || ' ' || ts[i+1])) AS gs
       FROM toks WHERE len(ts) >= 2),
sizes AS (SELECT doc_id, len(gs) AS sz FROM sh),
ex AS (SELECT doc_id, unnest(gs) AS g FROM sh),
co AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
       FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
       GROUP BY 1, 2),
j AS (SELECT doc_a, doc_b,
      ROUND(inter * 1.0 / (sa.sz + sb.sz - inter), 6) AS jaccard
      FROM co JOIN sizes sa ON sa.doc_id = co.doc_a JOIN sizes sb ON sb.doc_id = co.doc_b)
SELECT doc_a, doc_b, jaccard FROM j WHERE jaccard >= 0.03 ORDER BY doc_a, doc_b
""",
        "pii_scrub": """
WITH t AS (
  SELECT c_custkey AS doc_id,
    c_name || ' can be reached at ' ||
    CAST(c_custkey%90 + 10 AS VARCHAR) || '-' || CAST(c_custkey*3%900 + 100 AS VARCHAR) || '-' ||
    CAST(c_custkey*7%900 + 100 AS VARCHAR) || '-' || CAST(c_custkey*11%9000 + 1000 AS VARCHAR) ||
    ' email ' || regexp_replace(lower(c_name), '[^a-z0-9]+', '.', 'g') || '@example.com last login ' ||
    CAST(c_custkey%256 AS VARCHAR) || '.' || CAST(c_custkey*7%256 AS VARCHAR) || '.' ||
    CAST(c_custkey*13%256 AS VARCHAR) || '.' || CAST(c_custkey*31%256 AS VARCHAR) AS text
  FROM customer)
SELECT doc_id,
  CAST(len(regexp_extract_all(text, '[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}')) AS BIGINT) AS n_email,
  CAST(len(regexp_extract_all(text, '\d{2}-\d{3}-\d{3}-\d{4}')) AS BIGINT) AS n_phone,
  CAST(len(regexp_extract_all(text, '\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}')) AS BIGINT) AS n_ip,
  regexp_replace(regexp_replace(regexp_replace(text,
    '[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}', '<EMAIL>', 'g'),
    '\d{2}-\d{3}-\d{3}-\d{4}', '<PHONE>', 'g'),
    '\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}', '<IP>', 'g') AS scrubbed
FROM t ORDER BY doc_id
""",
        "neardup_dedup_kept": """
WITH RECURSIVE toks AS (SELECT doc_id, regexp_extract_all(text, '[a-z0-9]+') AS ts FROM documents),
sh AS (SELECT doc_id,
       list_distinct(list_transform(generate_series(1, len(ts) - 1), i -> ts[i] || ' ' || ts[i+1])) AS gs
       FROM toks WHERE len(ts) >= 2),
sizes AS (SELECT doc_id, len(gs) AS sz FROM sh),
ex AS (SELECT doc_id, unnest(gs) AS g FROM sh),
co AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
       FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
       GROUP BY 1, 2),
p AS (SELECT doc_a, doc_b FROM co
      JOIN sizes sa ON sa.doc_id = co.doc_a JOIN sizes sb ON sb.doc_id = co.doc_b
      WHERE inter * 1.0 / (sa.sz + sb.sz - inter) >= 0.5),
e AS (SELECT doc_a AS u, doc_b AS v FROM p UNION ALL SELECT doc_b, doc_a FROM p),
reach(node, lab) AS (
  SELECT u, u FROM e UNION SELECT u, v FROM e
  UNION
  SELECT e.u, r.lab FROM e JOIN reach r ON r.node = e.v
),
losers AS (SELECT node AS doc_id FROM reach GROUP BY node HAVING node != MIN(lab))
SELECT d.doc_id FROM documents d
WHERE d.doc_id NOT IN (SELECT doc_id FROM losers) ORDER BY d.doc_id
""",
        "neardup_clusters": """
WITH RECURSIVE toks AS (SELECT doc_id, regexp_extract_all(text, '[a-z0-9]+') AS ts FROM documents),
sh AS (SELECT doc_id,
       list_distinct(list_transform(generate_series(1, len(ts) - 1), i -> ts[i] || ' ' || ts[i+1])) AS gs
       FROM toks WHERE len(ts) >= 2),
sizes AS (SELECT doc_id, len(gs) AS sz FROM sh),
ex AS (SELECT doc_id, unnest(gs) AS g FROM sh),
co AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
       FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
       GROUP BY 1, 2),
p AS (SELECT doc_a, doc_b FROM co
      JOIN sizes sa ON sa.doc_id = co.doc_a JOIN sizes sb ON sb.doc_id = co.doc_b
      WHERE inter * 1.0 / (sa.sz + sb.sz - inter) >= 0.5),
e AS (SELECT doc_a AS u, doc_b AS v FROM p UNION ALL SELECT doc_b, doc_a FROM p),
reach(node, lab) AS (
  SELECT u, u FROM e UNION SELECT u, v FROM e
  UNION
  SELECT e.u, r.lab FROM e JOIN reach r ON r.node = e.v
)
SELECT node AS doc_id, MIN(lab) AS cluster_id FROM reach GROUP BY node ORDER BY doc_id
""",
        "embed_neardup_pairs": """
WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v FROM embeddings)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       ROUND(list_cosine_similarity(a.v, b.v), 6) AS cosine
FROM e a JOIN e b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.v, b.v) >= 0.4
ORDER BY vec_a, vec_b
""",
        "clean_corpus_ids": f"""
WITH f AS (
  SELECT doc_id, text,
    CAST(length(text) AS BIGINT) AS n_chars,
    CAST(len(regexp_extract_all(text, '[a-z0-9]+')) AS BIGINT) AS n_tokens,
    CAST(len(list_filter(regexp_extract_all(text, '[a-z0-9]+'), t -> t IN ({STOPS_SQL}))) AS BIGINT) AS n_stop,
    CAST(length(regexp_replace(text, '[^a-zA-Z0-9]', '', 'g')) AS BIGINT) AS n_alpha
  FROM documents),
scored AS (
  SELECT doc_id, text,
    CASE WHEN n_tokens = 0 THEN 0.0 ELSE n_stop * 1.0 / n_tokens END * 0.5
    + least(n_tokens, 100) / 100.0 * 0.3
    + CASE WHEN n_chars = 0 THEN 0.0 ELSE n_alpha * 1.0 / n_chars END * 0.2 AS quality
  FROM f),
qualified AS (SELECT * FROM scored WHERE quality >= 0.3),
kept AS (SELECT min(doc_id) AS doc_id FROM qualified GROUP BY md5(text))
SELECT q.doc_id, ROUND(q.quality, 6) AS quality
FROM qualified q JOIN kept k ON q.doc_id = k.doc_id ORDER BY q.doc_id
""",
        "lang_id": f"""
WITH scores AS (SELECT doc_id, {lang_counts} FROM documents),
mx AS (SELECT doc_id, s_de, s_en, s_es, s_fr, greatest(s_de, s_en, s_es, s_fr) AS m FROM scores)
SELECT doc_id,
  CASE WHEN m = 0 THEN 'und'
       WHEN s_de = m THEN 'de'
       WHEN s_en = m THEN 'en'
       WHEN s_es = m THEN 'es'
       ELSE 'fr' END AS pred_lang,
  CAST(m AS BIGINT) AS marker_hits
FROM mx ORDER BY doc_id
""",
        "quality_scores": f"""
WITH f AS (
  SELECT doc_id,
    CAST(length(text) AS BIGINT) AS n_chars,
    CAST(len(regexp_extract_all(text, '[a-z0-9]+')) AS BIGINT) AS n_tokens,
    CAST(len(list_filter(regexp_extract_all(text, '[a-z0-9]+'), t -> t IN ({STOPS_SQL}))) AS BIGINT) AS n_stop,
    CAST(length(regexp_replace(text, '[^a-zA-Z0-9]', '', 'g')) AS BIGINT) AS n_alpha
  FROM documents)
SELECT doc_id, n_chars, n_tokens, n_stop, n_alpha,
  ROUND(CASE WHEN n_tokens = 0 THEN 0.0 ELSE n_stop * 1.0 / n_tokens END * 0.5
      + least(n_tokens, 100) / 100.0 * 0.3
      + CASE WHEN n_chars = 0 THEN 0.0 ELSE n_alpha * 1.0 / n_chars END * 0.2, 6) AS quality
FROM f ORDER BY doc_id
""",
        "ann_brute_topk": f"""
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < 5),
scored AS (SELECT q.query_id, e.vec_id, list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.qe AS DOUBLE[])) AS c
           FROM embeddings e CROSS JOIN q),
ranked AS (SELECT query_id, vec_id, c,
           row_number() OVER (PARTITION BY query_id ORDER BY c DESC, vec_id ASC) AS rank
           FROM scored)
SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id, ROUND(c, 6) AS cosine
FROM ranked WHERE rank <= {TOPK} ORDER BY query_id, rank
""",
        # concat-split sequence packing: global token cumsum in doc_id order,
        # 256-token windows (mirrors stages/packing.pack_sequences exactly;
        # GREATEST guards the zero-token-doc case, where end-1 < start)
        "pack_sequences": """
WITH c AS (
  SELECT doc_id, CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens
  FROM documents
), w AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS start_tok
  FROM c
)
SELECT doc_id, n_tokens, start_tok,
       start_tok // 256 AS first_seq,
       GREATEST(start_tok // 256, (start_tok + n_tokens - 1) // 256) AS last_seq
FROM w ORDER BY doc_id
""",
    }
    # the salted scale-path entries share their unsalted twins' oracles:
    # identical semantics, so a driver hash match proves the salted
    # execution exact, not merely self-consistent
    d["session_windows_salted"] = d["session_windows"]
    d["funnel_counts_salted"] = d["funnel_counts"]
    from ..stages.clean import mix_threshold_hex as _mth

    d["corpus_shuffle"] = """
SELECT doc_id,
  CAST(row_number() OVER (ORDER BY md5(text), doc_id) - 1 AS BIGINT) AS shuffle_rank
FROM documents ORDER BY doc_id
"""
    d["dataset_split"] = f"""
SELECT doc_id,
  CASE WHEN substr(md5(text), 1, 8) < '{_mth(0.2)}' THEN 'test'
       WHEN substr(md5(text), 1, 8) < '{_mth(0.2 + 0.1)}' THEN 'cv'
       ELSE 'train' END AS split
FROM documents ORDER BY doc_id
"""
    d["sampled_facet_counts"] = f"""
WITH {_TOKS_CTE}
, hits AS (
  SELECT d.lang, substr(md5(d.text), 1, 8) AS h
  FROM documents d
  WHERE d.doc_id IN (SELECT DISTINCT doc_id FROM toks WHERE tok = '{TERM}')),
tot AS (SELECT count(*) AS n FROM hits),
samp AS (SELECT * FROM hits WHERE h < '{_mth(0.5)}'),
stot AS (SELECT count(*) AS n FROM samp)
SELECT lang, count(*) AS n_sampled,
       CAST(count(*) * (SELECT n FROM tot) // (SELECT n FROM stot) AS BIGINT) AS est
FROM samp GROUP BY lang ORDER BY lang
"""
    d["simple_faceted_counts"] = f"""
WITH {_TOKS_CTE}
SELECT d.lang, d.source, count(*) AS n_docs
FROM documents d
WHERE d.doc_id IN (SELECT DISTINCT doc_id FROM toks WHERE tok = '{TERM}')
GROUP BY d.lang, d.source ORDER BY d.lang, d.source
"""
    return d
