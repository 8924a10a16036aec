"""Collector-side operators beyond plain top-k-by-score (SURVEY.md §2.7).

  search_sorted     TopFieldCollector + Sort/SortField analog: top-k matching
                    docs ordered by stored doc-values columns
                    (/root/reference/src/Lucene.Net.Core/Search/TopFieldCollector.cs:36)
  facet_counts      FacetsCollector + counts analog: per-value doc counts of
                    matching docs (/root/reference/src/Lucene.Net.Facet/FacetsCollector.cs:34)
  group_top_k       two-pass grouping analog: top groups by best hit, top docs
                    per group (/root/reference/src/Lucene.Net.Grouping/GroupingSearch.cs:17)
  more_like_this    top tf-idf terms of a text -> SHOULD query
                    (/root/reference/src/Lucene.Net.Queries/Mlt/MoreLikeThis.cs:127)
  common_terms_query high-df terms demoted to an optional low-boost subquery
                    (/root/reference/src/Lucene.Net.Queries/CommonTermsQuery.cs:56)
  suggest_terms     DirectSpellChecker analog: nearest terms by edit distance
                    then df (/root/reference/src/Lucene.Net.Suggest/Spell/DirectSpellChecker.cs)
  MemoryIndex       single-document in-RAM index for percolation
                    (/root/reference/src/Lucene.Net.Memory/MemoryIndex.cs:162)
  FieldRangeFilter / FilteredQuery  numeric/text predicate over the docs table
                    ANDed into scoring (Filter -> DocIdSet analog; the
                    idiomatic Ray/Arrow replacement for trie-encoded
                    NumericRangeQuery per SURVEY.md §2.6)
"""

from __future__ import annotations

import heapq
import os
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np
import pyarrow.parquet as pq

from ..functions import similarity as sim
from ..functions.analysis import Analyzer
from ..query import BooleanClause, BooleanQuery, FieldRangeFilter, FilteredQuery, Query, TermQuery
from .scorer import SegmentScorer
from .search import Searcher


# ---------------------------------------------------------------------------
# sorted search / facets / grouping (driver-side merges over per-segment work)
# ---------------------------------------------------------------------------

def _group_call(searcher: Searcher, method: str, q: Query, *args) -> list:
    """Rewrite ``q``, then invoke a _SegmentGroup collector partial on every
    group (actor or local), returning per-group results. Round 2: these used
    to require use_actors=False and pulled every matching doc to the driver;
    now the actors compute segment-side partials and the driver only merges
    summaries (the driver-contract Dataset versions remain the pure-Ray-Data
    expression of the same operators)."""
    return searcher._call(method, *searcher._rewrite_and_stats(q), *args)


def search_sorted(
    searcher: Searcher,
    q: Query,
    sort_fields: list[tuple[str, bool]],  # (field, descending)
    k: int = 10,
) -> list[dict]:
    """Top-k matching docs by stored-field sort; docID breaks ties (SortField
    semantics with the implicit final doc order). Per-segment top-k partials
    merge on the driver.

    When the index was built with sort_index() and the leading sort field
    matches the index order, each group early-terminates across its
    range-partitioned segments (EarlyTerminatingSortingCollector analog);
    ``searcher.last_segments_evaluated`` records how many segments were
    actually scored for tests/diagnostics."""
    from .search import _sort_key_fn

    fields = [f for f, _ in sort_fields]
    rows: list[tuple] = []
    sorted_by = getattr(searcher, "index", None) and searcher.index.manifest.get(
        "sorted_by"
    )
    if sorted_by and list(sort_fields[0]) == [sorted_by[0], bool(sorted_by[1])]:
        import os as _os

        ranges = {
            _os.path.basename(d.rstrip("/")): (r["sort_min"], r["sort_max"])
            for d, r in zip(
                searcher.index.segment_dirs, searcher.index.manifest["segments"]
            )
        }
        n_eval = 0
        for part, ne in _group_call(
            searcher, "sorted_partial_early", q, list(sort_fields), k, ranges
        ):
            rows.extend((tuple(kv), gid) for kv, gid in part)
            n_eval += ne
        searcher.last_segments_evaluated = n_eval
    else:
        for part in _group_call(searcher, "sorted_partial", q, list(sort_fields), k):
            rows.extend((tuple(kv), gid) for kv, gid in part)
        searcher.last_segments_evaluated = None
    rows.sort(key=_sort_key_fn(sort_fields))
    return [
        {"doc_id": gid, **{f: _pyval(v) for f, v in zip(fields, key_vals)}}
        for key_vals, gid in rows[:k]
    ]


def _pyval(v):
    return v.item() if isinstance(v, np.generic) else v


def facet_counts(searcher: Searcher, q: Query, field: str) -> dict[str, int]:
    """Doc counts per facet value among matching docs (per-actor Counters,
    driver sums values — never raw matches)."""
    out: Counter = Counter()
    for part in _group_call(searcher, "facet_partial", q, field):
        out.update(part)
    return dict(out)


def group_top_k(
    searcher: Searcher, q: Query, group_field: str, k_groups: int = 10, k_per_group: int = 2
) -> list[dict]:
    """Top groups by their best hit's (score, docid), top docs per group.
    Per-actor per-group partial top-k merge associatively on the driver."""
    groups: dict = defaultdict(list)
    for part in _group_call(searcher, "group_partial", q, group_field, k_per_group):
        for v, hits in part.items():
            groups[v].extend((np.float32(s), gid) for s, gid in hits)
    ranked = []
    for v, hits in groups.items():
        hits.sort(key=lambda h: (-h[0], h[1]))
        ranked.append((v, hits[:k_per_group]))
    ranked.sort(key=lambda g: (-g[1][0][0], g[1][0][1]))
    return [
        {
            "group": _pyval(v),
            "hits": [{"doc_id": d, "score": float(s)} for s, d in hits],
        }
        for v, hits in ranked[:k_groups]
    ]


def field_stats(searcher: Searcher, fields: list[str]) -> dict[str, tuple]:
    """Global (min, max) per stored field over LIVE docs — one partial per
    segment group, scalars to the driver (feeds the ScaleFloatFunction
    analog in expressions.function_query)."""
    out: dict = {}
    for part in searcher._call("field_minmax_partial", list(fields)):
        for f, (mn, mx) in part.items():
            cur = out.get(f)
            out[f] = (
                (mn, mx)
                if cur is None
                else (min(cur[0], mn), max(cur[1], mx))
            )
    return out


def all_group_heads(
    searcher: Searcher, q: Query, group_field: str, sort_fields: list[tuple[str, bool]]
) -> list[dict]:
    """AllGroupHeadsCollector analog (reference
    Grouping/AbstractAllGroupHeadsCollector.cs:12): the single most relevant
    matching doc (group head) for EVERY group, by the given sort. Per-shard
    vectorized heads merge per-group on the driver; result rows carry the
    group value, head doc id, and the sort-key values, ordered by group."""
    from .search import _sort_key_fn

    key_fn = _sort_key_fn(sort_fields)
    heads: dict = {}
    for part in _group_call(searcher, "group_heads_partial", q, group_field, list(sort_fields)):
        for g, row in part.items():
            cur = heads.get(g)
            if cur is None or key_fn(tuple(row)) < key_fn(tuple(cur)):
                heads[g] = row
    fields = [f for f, _ in sort_fields]
    return [
        {
            "group": _pyval(g),
            "head_doc": gid,  # engine-global docid of the head
            **{f: _pyval(v) for f, v in zip(fields, key_vals)},
        }
        for g, (key_vals, gid) in sorted(heads.items(), key=lambda kv: kv[0])
    ]


def all_groups(searcher: Searcher, q: Query, group_field: str) -> list:
    """AllGroupsCollector analog (reference
    Grouping/AbstractAllGroupsCollector.cs): every distinct group value with
    at least one matching doc, sorted. Reuses the facet partial (value
    counts) and discards the counts."""
    return sorted(facet_counts(searcher, q, group_field).keys())


def distinct_values(
    searcher: Searcher,
    q: Query,
    group_field: str,
    count_field: str,
    *,
    groups: list | None = None,
) -> list[dict]:
    """DistinctValuesCollector analog (reference
    Grouping/AbstractDistinctValuesCollector.cs:14): for each group (or the
    given subset, mirroring the second-pass top-N restriction), the set of
    distinct ``count_field`` values among matching docs. Per-shard distinct
    (group, value) pairs union on the driver — bounded by the fields'
    cardinality product, never by doc count."""
    wanted = set(groups) if groups is not None else None
    out: dict = defaultdict(set)
    for part in _group_call(searcher, "pair_partial", q, group_field, count_field):
        for g, v in part:
            if wanted is None or g in wanted:
                out[g].add(v)
    return [
        {"group": _pyval(g), "values": sorted(vals), "n_distinct": len(vals)}
        for g, vals in sorted(out.items(), key=lambda kv: kv[0])
    ]


def group_facets(
    searcher: Searcher,
    q: Query,
    group_field: str,
    facet_field: str,
    *,
    min_count: int = 1,
    prefix: str | None = None,
    order_by_count: bool = False,
) -> list[tuple]:
    """GroupFacetCollector analog (reference
    Grouping/AbstractGroupFacetCollector.cs:18 / TermGroupFacetCollector):
    grouped faceting — each group contributes at most ONCE per facet value,
    so counts are "number of distinct groups with this facet" among matching
    docs. Supports the reference's facet prefix, minCount, and
    orderByCount-vs-lexicographic result orders."""
    per_facet: dict = defaultdict(set)
    for part in _group_call(searcher, "pair_partial", q, group_field, facet_field):
        for g, v in part:
            if prefix is None or str(v).startswith(prefix):
                per_facet[v].add(g)
    entries = [
        (_pyval(v), len(gs)) for v, gs in per_facet.items() if len(gs) >= min_count
    ]
    if order_by_count:
        entries.sort(key=lambda e: (-e[1], e[0]))
    else:
        entries.sort(key=lambda e: e[0])
    return entries


# ---------------------------------------------------------------------------
# query-building utilities
# ---------------------------------------------------------------------------

def more_like_this(
    searcher: Searcher,
    text: str,
    *,
    max_query_terms: int = 25,
    min_term_freq: int = 1,
    min_doc_freq: int = 1,
    field: str = "content",
    analyzer: Analyzer | None = None,
) -> Query:
    """Extract the text's top tf-idf terms and build a SHOULD query."""
    analyzer = analyzer or Analyzer()
    tf = Counter(analyzer(text))
    terms = [t for t, f in tf.items() if f >= min_term_freq]
    # one stats gather for all candidate terms
    df = searcher._stats_for_terms(terms, field)
    n = searcher.index.max_doc
    scored = []
    for t in terms:
        d = df.get(t, 0)
        if d < min_doc_freq or d == 0:
            continue
        scored.append((float(sim.idf(d, n)) * tf[t], t))
    scored.sort(key=lambda x: (-x[0], x[1]))
    top = [t for _, t in scored[:max_query_terms]]
    return BooleanQuery(
        clauses=tuple(BooleanClause(TermQuery(field=field, term=t), "SHOULD") for t in top)
    )


def more_like_this_by_doc(
    searcher: Searcher,
    doc_id: int,
    *,
    max_query_terms: int = 25,
    min_doc_freq: int = 1,
    field: str = "content",
) -> Query:
    """MoreLikeThis.Like(docID) analog — requires store_term_vectors=True at
    build; reads the doc's term vector instead of re-analyzing text."""
    tf = next((tv for tv in searcher._call("term_vector", doc_id) if tv is not None), None)
    if tf is None:
        raise KeyError(f"doc {doc_id} not in index")
    df = searcher._stats_for_terms(sorted(tf), field)
    n = searcher.index.max_doc
    scored = [
        (float(sim.idf(df[t], n)) * c, t)
        for t, c in tf.items()
        if df.get(t, 0) >= min_doc_freq
    ]
    scored.sort(key=lambda x: (-x[0], x[1]))
    return BooleanQuery(
        clauses=tuple(
            BooleanClause(TermQuery(field=field, term=t), "SHOULD")
            for _, t in scored[:max_query_terms]
        )
    )


def fuzzy_like_this(
    searcher: Searcher,
    texts: "dict[str, str] | str",
    *,
    max_num_terms: int = 50,
    max_edits: int = 1,
    prefix_length: int = 0,
    max_variants_per_term: int = 50,
    ignore_tf: bool = False,
    analyzer: Analyzer | None = None,
) -> Query:
    """FuzzyLikeThisQuery analog (reference
    contrib/Queries/FuzzyLikeThisQuery.cs:33 AddTerms/Rewrite): a fuzzified
    MoreLikeThis. Per analyzed source term, fuzzy variants are expanded
    index-wide; each variant scores similarity^2 x idf, where the idf uses
    the SOURCE term's df (all variants of one term share it — the
    reference's 'store the df so all variants use same idf'), falling back
    to the variants' average df when the source term is absent. The global
    top ``max_num_terms`` variants become the query: one boosted TermQuery
    per source term with a single surviving variant, a nested SHOULD group
    per source term with several (BooleanQuery(true)'s coord-free nesting).
    ``texts`` is {field: text} or a bare string for the 'content' field.
    ``ignore_tf`` wraps each variant in ConstantScoreQuery — flattening tf
    AND length norm, a documented divergence from FuzzyTermQuery's
    tf=sqrt(min(tf,1)) which only flattens tf."""
    import heapq as _hq

    from ..query import ConstantScoreQuery, FuzzyQuery

    analyzer = analyzer or Analyzer()
    if isinstance(texts, str):
        texts = {"content": texts}
    n_docs = searcher.index.max_doc
    heap: list[tuple[float, str, str, tuple[str, str]]] = []  # (score, field, variant, src)
    counter = 0
    for field, text in texts.items():
        for term in dict.fromkeys(analyzer(text)):  # unique, first-seen order
            variants = searcher.expand(
                FuzzyQuery(
                    field=field,
                    term=term,
                    max_edits=max_edits,
                    prefix_length=prefix_length,
                    max_expansions=max_variants_per_term,
                ),
            )
            if not variants:
                continue
            dfs = searcher._stats_for_terms(sorted({v for v, _ in variants} | {term}), field)
            df = dfs.get(term, 0)
            if df == 0:
                df = sum(dfs.get(v, 0) for v, _ in variants) // len(variants)
            idf = float(sim.idf(df, n_docs))
            for v, s in variants:
                score = (s * s) * idf
                counter += 1
                item = (score, -counter, field, v, (field, term))
                if len(heap) < max_num_terms:
                    _hq.heappush(heap, item)
                else:
                    _hq.heappushpop(heap, item)
    by_source: dict[tuple[str, str], list[tuple[str, str, float]]] = {}
    for score, _, field, v, src in sorted(heap, reverse=True):
        by_source.setdefault(src, []).append((field, v, score))

    def leaf(field: str, term: str, boost: float) -> Query:
        tq = TermQuery(boost=boost, field=field, term=term)
        return ConstantScoreQuery(boost=boost, query=TermQuery(field=field, term=term)) if ignore_tf else tq

    clauses = []
    for variants_of in by_source.values():
        if len(variants_of) == 1:
            f, v, sc = variants_of[0]
            clauses.append(BooleanClause(leaf(f, v, sc), "SHOULD"))
        else:
            clauses.append(
                BooleanClause(
                    BooleanQuery(
                        clauses=tuple(
                            BooleanClause(leaf(f, v, sc), "SHOULD") for f, v, sc in variants_of
                        )
                    ),
                    "SHOULD",
                )
            )
    return BooleanQuery(clauses=tuple(clauses))


def match_phrase_prefix(
    searcher: Searcher,
    text: str,
    *,
    field: str = "content",
    max_expansions: int = 50,
    slop: int = 0,
    analyzer: Analyzer | None = None,
) -> Query:
    """Phrase-prefix query (the classic search-as-you-type primitive; in
    Lucene terms a MultiPhraseQuery whose LAST position holds the prefix's
    expansions — MultiPhraseQuery.cs:47's documented use-case, and how
    QueryParser-based systems implement incomplete trailing terms). The
    prefix expands index-wide through the same bounded terms_in_range walk
    as PrefixQuery (never the whole vocabulary); an unexpandable prefix
    yields a query matching nothing."""
    from ..query import MultiPhraseQuery, PrefixQuery, TermQuery

    analyzer = analyzer or Analyzer()
    terms, positions = analyzer.analyze_text_positions(text)
    if not terms:
        return BooleanQuery()
    last = terms[-1]
    expansions = searcher.expand(PrefixQuery(field=field, prefix=last, max_expansions=max_expansions))
    exp_terms = tuple(t for t, _ in expansions[:max_expansions])
    if not exp_terms:
        return BooleanQuery()  # no term completes the prefix: match nothing
    if len(terms) == 1:
        if len(exp_terms) == 1:
            return TermQuery(field=field, term=exp_terms[0])
        return BooleanQuery(
            clauses=tuple(
                BooleanClause(TermQuery(field=field, term=t), "SHOULD") for t in exp_terms
            )
        )
    return MultiPhraseQuery(
        field=field,
        positions_terms=tuple((t,) for t in terms[:-1]) + (exp_terms,),
        slop=slop,
        positions=tuple(positions),
    )


def query_rescore(
    searcher: Searcher,
    hits: list[tuple[int, float]],
    second_query: Query,
    *,
    weight: float = 1.0,
) -> list[tuple[int, float]]:
    """QueryRescorer analog (reference Search/QueryRescorer.cs:28 +
    Rescorer.cs): re-rank first-pass hits with a second query; new score =
    first + weight x second for docs the second query matches, first alone
    otherwise (QueryRescorer.Rescore's default Combine). Ties broken by
    docID ascending like TopDocs. The second query is evaluated through the
    normal distributed path (the reference advances it only over the hit
    docs; with hits already a small top-k list, the second pass here is one
    scored_docs call — selective second queries stay cheap, and a
    MatchAll-ish second pass belongs in expressions.rescore instead)."""
    smap = dict(searcher.scored_docs(second_query))
    out = []
    for d, s in hits:
        s2 = smap.get(d)
        ns = np.float32(s) if s2 is None else np.float32(
            np.float32(s) + np.float32(weight) * np.float32(s2)
        )
        out.append((d, float(ns)))
    out.sort(key=lambda x: (-x[1], x[0]))
    return out


def common_terms_query(
    searcher: Searcher,
    terms: list[str],
    *,
    max_term_frequency: float = 0.01,
    high_freq_boost: float = 1.0,
    field: str = "content",
) -> Query:
    """CommonTermsQuery rewrite: low-df terms MUST-ish (SHOULD main clause),
    high-df terms demoted to a separate optional subquery."""
    df = searcher._stats_for_terms(terms, field)
    n = max(searcher.index.max_doc, 1)
    low = [t for t in terms if df.get(t, 0) / n <= max_term_frequency]
    high = [t for t in terms if t not in low]
    clauses = [BooleanClause(TermQuery(field=field, term=t), "SHOULD") for t in low]
    if high:
        sub = BooleanQuery(
            boost=high_freq_boost,
            clauses=tuple(BooleanClause(TermQuery(field=field, term=t), "SHOULD") for t in high),
        )
        clauses.append(BooleanClause(sub, "SHOULD"))
    return BooleanQuery(clauses=tuple(clauses))


def suggest_terms(
    searcher: Searcher, term: str, *, max_edits: int = 2, k: int = 5, field: str = "content"
) -> list[tuple[str, int, int]]:
    """[(term, edit_distance, global df)] nearest dictionary terms
    (DirectSpellChecker analog, ranked by distance then df desc)."""
    from ..query import FuzzyQuery
    from .scorer import _edit_distance_capped as ed

    fuzzy = FuzzyQuery(field=field, term=term, max_edits=max_edits, max_expansions=1000)
    cands = [t for t, _ in searcher.expand(fuzzy)]
    df = searcher._stats_for_terms(cands, field)
    ranked = sorted(
        ((t, ed(term, t, max_edits), df.get(t, 0)) for t in cands if t != term),
        key=lambda x: (x[1], -x[2], x[0]),
    )
    return ranked[:k]


def highlight(
    searcher: Searcher,
    text: str,
    q: Query,
    *,
    fragment_size: int = 10,
    max_fragments: int = 2,
    pre: str = "<b>",
    post: str = "</b>",
    analyzer: Analyzer | None = None,
    field: str = "content",
) -> list[str]:
    """Highlighter analog (reference Highlighter/Highlight/Highlighter.cs:29):
    re-analyze the text, score fixed-width token windows by the summed idf
    weight of matching query terms, return the best fragments with matches
    wrapped. fragment_size is in whitespace tokens; idf is from ``field``,
    the field the text comes from."""
    from ..functions.analysis import analyze_with_positions

    analyzer = analyzer or Analyzer()
    qterms = {t for t in _all_terms(q)}
    df = searcher._stats_for_terms(sorted(qterms), field)
    n = searcher.index.max_doc
    weight = {t: float(sim.idf(df.get(t, 0), n)) if df.get(t, 0) else 0.1 for t in qterms}

    raw = text.split()
    # token -> analyzed terms per whitespace token (positions == ws index here
    # only approximately; we match on analyzed terms of each ws token)
    tok_terms = [set(analyzer(w)) for w in raw]
    scores = np.zeros(max(len(raw) - fragment_size + 1, 1))
    hit = [bool(ts & qterms) for ts in tok_terms]
    for i in range(len(scores)):
        scores[i] = sum(
            weight[t] for j in range(i, min(i + fragment_size, len(raw))) for t in (tok_terms[j] & qterms)
        )
    order = np.argsort(-scores, kind="stable")
    chosen: list[tuple[int, int]] = []
    for i in order:
        if scores[i] <= 0:
            break
        s, e = int(i), int(min(i + fragment_size, len(raw)))
        if any(not (e <= cs or s >= ce) for cs, ce in chosen):
            continue  # overlap with an already-chosen fragment
        chosen.append((s, e))
        if len(chosen) >= max_fragments:
            break
    chosen.sort()
    frags = []
    for s, e in chosen:
        words = [
            (pre + w + post) if hit[j] else w for j, w in enumerate(raw[s:e], start=s)
        ]
        frags.append(" ".join(words))
    return frags


def _all_terms(q: Query) -> set[str]:
    from .scorer import query_terms

    return query_terms(q)


def postings_highlight(
    searcher: Searcher,
    docid: int,
    q: Query,
    *,
    field: str | None = None,
    max_passages: int = 2,
    pre: str = "<b>",
    post: str = "</b>",
) -> list[str]:
    """PostingsHighlighter analog (reference
    Postingshighlight/PostingsHighlighter.cs:91): snippets come from INDEXED
    positions + per-doc char offsets and the STORED text — the document is
    never re-analyzed (the `highlight` path re-tokenizes every hit, the
    expensive per-snippet cost at serving scale). Requires the index built
    with index_options='offsets' and the text column in stored_columns.

    Passages are sentence-ish spans ([.!?\\n] breaks — the BreakIterator
    analog); each passage scores the summed idf weight of its query-term
    matches; the top `max_passages` return in document order with matches
    wrapped at their exact stored offsets."""
    import re as _re

    qterms = sorted(_all_terms(q))
    if hasattr(searcher, "reader"):  # MergedSearcher: one merged reader
        r = searcher.reader
        field = field or "content"
        local = docid
        text = r.stored_value(docid, field)
        df = {t: r.term_stats(t)[0] for t in qterms}
        n = r.doc_count
    else:
        field = field or searcher.field
        if not hasattr(searcher, "_ph_readers"):
            from ..state.segment import SegmentReader

            searcher._ph_readers = [SegmentReader(d) for d in searcher.index.segment_dirs]
        r = None
        for cand in searcher._ph_readers:
            if cand.doc_base <= docid < cand.doc_base + cand.doc_count:
                r = cand
                break
        if r is None:
            raise ValueError(f"docid {docid} outside index doc range")
        local = docid - r.doc_base
        text = r.doc_values(field)[local]
        df = searcher._stats_for_terms(qterms)
        n = searcher.index.max_doc
    starts, ends = r.position_char_offsets(local)
    ranges: list[tuple[int, int, float]] = []
    for t in qterms:
        w = float(sim.idf(df.get(t, 0), n)) if df.get(t, 0) else 0.1
        docids, tfs, flat, occ = r.positions(t)
        j = int(np.searchsorted(docids, local))
        if j < docids.size and docids[j] == local:
            for p in flat[occ[j] : occ[j + 1]]:
                if p < starts.size:
                    ranges.append((int(starts[p]), int(ends[p]), w))
    if not ranges:
        return []
    spans = [(m.start(), m.end()) for m in _re.finditer(r"[^.!?\n]+[.!?\n]*", text)]
    if not spans:
        spans = [(0, len(text))]
    scored = []
    for si, (s, e) in enumerate(spans):
        sc = sum(w for rs, re_, w in set(ranges) if s <= rs and re_ <= e)
        if sc > 0:
            scored.append((-sc, si))
    scored.sort()
    chosen = sorted(si for _, si in scored[:max_passages])
    frags = []
    for si in chosen:
        s, e = spans[si]
        inside = sorted({(rs, re_) for rs, re_, _ in ranges if s <= rs and re_ <= e})
        out, cur = [], s
        for rs, re_ in inside:
            if rs < cur:  # overlapping token range (same ws token, two terms)
                continue
            out.append(text[cur:rs])
            out.append(pre + text[rs:re_] + post)
            cur = re_
        out.append(text[cur:e])
        frags.append("".join(out).strip())
    return frags


def knn_classify(
    searcher: Searcher,
    text: str,
    *,
    label_field: str,
    k: int = 10,
    max_query_terms: int = 25,
) -> tuple[str, dict[str, int]]:
    """KNearestNeighborClassifier analog (reference
    Classification/KNearestNeighborClassifier.cs:35): MoreLikeThis query ->
    top-k neighbours -> majority vote over their stored label column.
    Returns (label, vote counts); ties break on label asc."""
    q = more_like_this(searcher, text, max_query_terms=max_query_terms)
    hits = searcher.search(q, k=k)
    if not hits:
        return "", {}
    votes: Counter = Counter()
    for part in searcher._call("stored_values", label_field, sorted({d for d, _ in hits})):
        votes.update(str(v) for _d, v in part)
    label = sorted(votes.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
    return label, dict(votes)


def function_rescore(
    searcher: Searcher,
    q: Query,
    score_fn,
    *,
    fields: list[str] | None = None,
    k: int = 10,
    window: int = 100,
    ispec: dict | None = None,
) -> list[tuple[int, float]]:
    """CustomScoreQuery / FunctionQuery analog (reference Search/Function/,
    Queries/Function/ ValueSource tree): retrieve a candidate window by BM25,
    rescore with a user numpy expression over (scores, {field: values}).

    score_fn(scores: np.ndarray, values: dict[str, np.ndarray]) -> np.ndarray

    ``ispec`` (from expressions.bind_index_expression) switches to the
    function_partial that also materializes per-doc index-bound sources
    (termfreq/norm/ord/sub-query scores) segment-side.
    """
    fields = fields or []
    rows = []
    if ispec is not None:
        parts = _group_call(
            searcher, "function_partial", q, fields, score_fn, window, ispec
        )
    else:
        parts = _group_call(searcher, "rescore_partial", q, fields, score_fn, window)
    for part in parts:
        rows.extend(part)
    rows.sort(key=lambda h: (-h[1], h[0]))
    return rows[:k]


def suggest_completions(
    searcher: Searcher, prefix: str, k: int = 5, *, field: str = "content"
) -> list[tuple[str, int]]:
    """Prefix completion from the term dictionary ranked by global df
    (AnalyzingSuggester-style payload = popularity; reference
    Suggest/Suggest/Analyzing/AnalyzingSuggester.cs:88 — FST replaced by the
    sorted term dict's prefix range)."""
    from ..query import PrefixQuery

    cands = [t for t, _ in searcher.expand(PrefixQuery(field=field, prefix=prefix))]
    df = searcher._stats_for_terms(cands, field)
    ranked = sorted(((t, df.get(t, 0)) for t in cands), key=lambda x: (-x[1], x[0]))
    return ranked[:k]


class MemoryIndex:
    """Single-document in-RAM index: percolate queries against one doc.

    Collection stats are the document itself (maxDoc=1), like the reference's
    MemoryIndex. ``score(query) > 0`` means the doc matches.
    """

    def __init__(self, text: str, analyzer: Analyzer | None = None):
        from ..oracle import OracleIndex

        self._oracle = OracleIndex([text], analyzer=analyzer)

    def score(self, q: Query) -> float:
        s = self._oracle._eval(0, q)
        return float(s) if s is not None else 0.0
