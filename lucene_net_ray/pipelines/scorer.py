"""Per-segment query evaluation: vectorized scoring over decoded postings,
BM25 by default, any Similarity plug-in (functions/similarity*.py) otherwise.

Replicates the reference's scorer algebra (SURVEY.md §2.6) with numpy set ops
instead of doc-at-a-time iterators:
  ConjunctionScorer   float32 sum in cost-ascending clause order
                      (/root/reference/src/Lucene.Net.Core/Search/ConjunctionScorer.cs:134-141)
  DisjunctionSumScorer double accumulator cast to float32
                      (/root/reference/src/Lucene.Net.Core/Search/DisjunctionSumScorer.cs:80-83)
  ReqOptSumScorer     req float32 + opt float32
  ReqExclScorer       exclusion filter, req score passthrough
  MinShouldMatchSumScorer count>=n variant
  MultiTermQuery      expansion against the segment term dict (rewrite modes:
                      constant-score for prefix/wildcard/range, top-terms
                      scoring with distance boosts for fuzzy)

Scores are float32 at exactly the reference's rounding points (similarity.py),
so per-doc scores are identical to a doc-at-a-time evaluation. Classic's
queryNorm and coord hooks apply per top-level query and per boolean.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from ..functions.lev_automaton import LevenshteinDFA
from ..functions.similarity import BM25, Similarity
from ..query import (
    BooleanClause,
    BooleanQuery,
    BoostingQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    FilteredQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    MultiPhraseQuery,
    PhraseQuery,
    PrefixQuery,
    Query,
    QueryFilter,
    RegexpQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
)
from ..state.segment import SegmentReader

# Auto-mode WAND thresholds, set from tools/bench_wand.py measurements on
# synthetic segments with pareto tfs + realistic norm spread (2M & 10M docs,
# the north-rule head-term regime):
#   single term:  df=10k 0.24x | 100k 1.2-2.0x | 500k 2.6x | 2M 3.7-3.8x |
#                 5M 4.5x | 10M 24x   -> crossover ~100k; 500k adds margin
#                 for flat-tf corpora (bench.py's uniform synthetic still
#                 loses at 150k).
#   2-term OR:    sum_df 0.6M 0.22x | 10M 1.25x | 15M 8.1x -> >= 10M wins.
#   3+-term OR:   17M 1.07x | 17.6M 0.34x -> stays exhaustive (sparse terms
#                 smear across the dense terms' zone grid; one vectorized
#                 decode+score wins). mode="wand" still forces any shape.
WAND_MIN_DF = 500_000       # single-term queries
WAND_MIN_OR_DF = 10_000_000  # 2-term disjunctions (summed df)


def auto_wand(tw: list[tuple[str, float]], reader, df: dict) -> bool:
    """Whether auto mode scores a query of WAND's shape, whose [(term,
    boost)] wand.is_wand_eligible returned as ``tw``, with block-max WAND on
    ``reader``: only on a reader with block metadata, and by the global
    ``df`` and the table above, single terms from WAND_MIN_DF, 2-term ORs
    from WAND_MIN_OR_DF summed df, larger disjunctions never (one
    vectorized pass wins)."""
    if not hasattr(reader, "blocks"):
        return False
    sum_df = sum(df.get(t, 0) for t, _ in tw)
    return (len(tw) == 1 and sum_df >= WAND_MIN_DF) or (len(tw) == 2 and sum_df >= WAND_MIN_OR_DF)


#: leaves that name an index field (term-bearing or multi-term)
FIELD_LEAVES = (TermQuery, PhraseQuery, MultiPhraseQuery, PrefixQuery, TermRangeQuery, WildcardQuery, FuzzyQuery, RegexpQuery)
#: nodes with query children (everything else is a leaf to map_leaves)
_INNER_NODES = (BooleanQuery, DisjunctionMaxQuery, ConstantScoreQuery, FilteredQuery, QueryFilter, BoostingQuery)


def map_leaves(q, fn):
    """The one query-tree traversal: rebuild ``q`` with ``fn`` applied to
    every leaf. It descends into boolean clauses, DisMax disjuncts,
    ``.query`` of ConstantScore/Filtered queries and of a QueryFilter, and
    BoostingQuery's match and context; every other node is a leaf. A node
    whose children ``fn`` returned unchanged is returned as it was, so a
    walk that only collects allocates no tree."""
    if not isinstance(q, _INNER_NODES):
        return fn(q)
    if isinstance(q, BooleanQuery):
        subs = [map_leaves(c.query, fn) for c in q.clauses]
        if all(s is c.query for s, c in zip(subs, q.clauses)):
            return q
        return dataclasses.replace(q, clauses=tuple(BooleanClause(s, c.occur) for s, c in zip(subs, q.clauses)))
    if isinstance(q, DisjunctionMaxQuery):
        subs = tuple(map_leaves(d, fn) for d in q.disjuncts)
        return q if all(s is d for s, d in zip(subs, q.disjuncts)) else dataclasses.replace(q, disjuncts=subs)
    if isinstance(q, (ConstantScoreQuery, FilteredQuery, QueryFilter)):
        kids = {"query": map_leaves(q.query, fn)}
        if isinstance(getattr(q, "filter", None), QueryFilter):
            kids["filter"] = map_leaves(q.filter, fn)
    else:
        kids = {"match": map_leaves(q.match, fn), "context": map_leaves(q.context, fn)}
    if all(v is getattr(q, k) for k, v in kids.items()):
        return q
    return dataclasses.replace(q, **kids)


def query_leaves(q: Query) -> list[Query]:
    out: list[Query] = []
    map_leaves(q, lambda leaf: out.append(leaf) or leaf)
    return out


def query_field_terms(q: Query) -> set[tuple[str, str]]:
    """(field, term) of every literal term in a query tree (the global stats
    pass; multi-field stats are per field)."""
    out: set[tuple[str, str]] = set()
    for leaf in query_leaves(q):
        if isinstance(leaf, TermQuery):
            out.add((leaf.field, leaf.term))
        elif isinstance(leaf, PhraseQuery):
            out.update((leaf.field, t) for t in leaf.terms)
        elif isinstance(leaf, MultiPhraseQuery):
            out.update((leaf.field, t) for terms in leaf.positions_terms for t in terms)
    return out


def query_terms(q: Query) -> set[str]:
    """All literal terms referenced by a query tree (for the global stats pass)."""
    return {t for _f, t in query_field_terms(q)}


def query_fields(q: Query) -> set[str]:
    """All index fields referenced by term-bearing leaves of a query tree
    (used by Searcher to reject queries against fields the index lacks —
    a parsed 'title:foo' must not silently search the content postings)."""
    return {leaf.field for leaf in query_leaves(q) if isinstance(leaf, FIELD_LEAVES)}


def can_match(q, has):
    """False only where ``q`` matches no doc of a shard whose term dict
    answers ``has(field, term)`` (BooleanWeight's null scorer, Elasticsearch's
    can_match). ``has`` may return one bool per shard as a numpy array; the
    answer then is such an array too. It mirrors SegmentScorer._evaluate: a
    term needs its term, a phrase every position filled, a boolean every
    MUST and enough SHOULDs (MUST_NOT only removes docs), a DisMax any
    disjunct; the filtering and boosting wrappers look at the query they
    score. Multi-term leaves expand per segment and MatchAll matches
    anything, so they and every other node count as a match."""
    if isinstance(q, TermQuery):
        return has(q.field, q.term)
    if isinstance(q, (PhraseQuery, MultiPhraseQuery)):
        slots = [(t,) for t in q.terms] if isinstance(q, PhraseQuery) else q.positions_terms
        ok = bool(slots)
        for terms in slots:
            any_term = False
            for t in terms:
                any_term = any_term | has(q.field, t)
            ok = ok & any_term
        return ok
    if isinstance(q, DisjunctionMaxQuery):
        ok = False
        for d in q.disjuncts:
            ok = ok | can_match(d, has)
        return ok
    if isinstance(q, (ConstantScoreQuery, FilteredQuery, QueryFilter)):
        return can_match(q.query, has)
    if isinstance(q, BoostingQuery):
        return can_match(q.match, has)
    if isinstance(q, BooleanQuery):
        musts = [can_match(c.query, has) for c in q.clauses if c.occur == "MUST"]
        shoulds = [can_match(c.query, has) for c in q.clauses if c.occur == "SHOULD"]
        msm = q.min_should_match
        if msm > len(shoulds):
            return False
        ok = True
        for m in musts:
            ok = ok & m
        need = msm if musts else max(1, msm)
        return ok & (sum(shoulds) >= need) if need else ok
    return True


#: sorts above any real token (tokens are never runs of U+10FFFF)
_TERM_CEILING = "\U0010FFFF" * 4


def _terms_in_range(reader, lo: str, hi: str) -> np.ndarray:
    """Sorted unique candidate terms in [lo, hi], WITHOUT materializing the
    full vocabulary: MergedIndexReader answers from only the manifest parts
    covering the range (pruned Parquet reads); a plain SegmentReader slices
    its already-resident sorted dict with binary search. This is the
    AutomatonTermsEnum discipline (Search/MultiTermQuery.cs:64 — walk the
    dict range, never load it whole)."""
    f = getattr(reader, "terms_in_range", None)
    if f is not None:
        return f(lo, hi)
    terms = reader.terms
    i = np.searchsorted(terms, lo, side="left")
    j = np.searchsorted(terms, hi, side="right")
    return terms[i:j]


def _iter_term_chunks(reader, part_filter=None):
    """Vocabulary as a stream of sorted chunks — one merged part (or one
    segment dict) resident at a time. Only unbounded scans (leading
    wildcard, regexp with no literal head, fuzzy prefix_length=0) pay this
    full pass; bounded scans go through `_terms_in_range`. ``part_filter``
    (lo, hi) -> bool lets a caller (the fuzzy automaton) veto whole parts
    from their manifest bounds before any bytes are read."""
    f = getattr(reader, "iter_term_parts", None)
    if f is not None:
        try:
            yield from f(part_filter=part_filter)
        except TypeError:  # reader without the filter seam
            yield from f()
    else:
        yield reader.terms


def _fuzzy_matches_blocked(
    dfa, base: str, cand: np.ndarray, cap: int, matched: dict, block: int = 8192
) -> None:
    """Collect fuzzy matches from a SORTED candidate array into ``matched``
    (term -> distance), hybrid automaton/DP: ``next_valid_string`` jumps
    over blocks containing no accepted string (binary-search skip, possibly
    many blocks per jump); viable blocks run the vectorized DP. Match set is
    identical to running the DP over everything (property-tested)."""
    n = cand.size
    i = 0
    while i < n:
        j = min(i + block, n)
        nxt = dfa.next_valid_string(str(cand[i]))
        if nxt is None:
            break
        if nxt > str(cand[j - 1]):
            # no accepted string up to the block end: jump the gap
            i = int(np.searchsorted(cand, nxt, side="left"))
            continue
        sub = cand[i:j]
        dists = _edit_distances_vectorized(base, sub, cap)
        keep = dists <= cap
        for t, d in zip(sub[keep], dists[keep].tolist()):
            matched[str(t)] = d  # part-boundary dupes collapse here
        i = j


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two SORTED unique docid arrays via binary search —
    postings are always sorted, so np.intersect1d's concat-and-sort
    (O((n+m) log(n+m)) and a 2x temporary) is wasted work; this is
    O(min log max) with a min-sized output."""
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return a
    idx = np.searchsorted(b, a)
    valid = idx < b.size
    hit = np.zeros(a.size, dtype=bool)
    hit[valid] = b[idx[valid]] == a[valid]
    return a[hit]


#: the dense accumulator zeroes one slot per docid up to the largest; it is
#: used while the clauses hold at least one posting per this many slots.
#: Timed on 2 and 4 random clauses over 6 000 docids (1 CPU), the sparse
#: path took 2.7x the dense one at 1 slot per posting, 1.1x at 8 and 0.95x
#: at 16; serve_bulk's OR queries, a head term each, all take the dense path
_DENSE_SLOTS_PER_POSTING = 8


def _disjunction_sum(clauses) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Union of [(sorted unique docids, float32 scores)] clauses: (docids
    ascending, float64 score sums, int32 match counts). A doc's sum is its
    clauses' scores added in clause order to a float64 zero, the
    DisjunctionSumScorer accumulator (DisjunctionSumScorer.cs:80-83); a
    clause scoring 0 still counts as a match.

    Dense clauses accumulate into a table indexed by docid, BooleanScorer's
    bucket table (Search/BooleanScorer.cs:59-90), with no sort; sparse ones
    into their sorted union. Both are exact: docids are unique within a
    clause, so a fancy-index ``+=`` adds each score once. The table is sized
    from the clauses, not from a reader, so it fits any docid space."""
    clauses = [(d, s) for d, s in clauses if d.size]
    if not clauses:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int32)
    n = max(int(d[-1]) for d, _ in clauses) + 1
    if sum(d.size for d, _ in clauses) * _DENSE_SLOTS_PER_POSTING >= n:
        acc = np.zeros(n, dtype=np.float64)
        cnt = np.zeros(n, dtype=np.int32)
        for d, s in clauses:
            acc[d] += s
            cnt[d] += 1
        docs = np.flatnonzero(cnt)
        return docs, acc[docs], cnt[docs]
    docs = np.unique(np.concatenate([d for d, _ in clauses]))
    acc = np.zeros(docs.size, dtype=np.float64)
    cnt = np.zeros(docs.size, dtype=np.int32)
    for d, s in clauses:
        ix = np.searchsorted(docs, d)
        acc[ix] += s
        cnt[ix] += 1
    return docs, acc, cnt


def top_k_order(docs: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the best ``k`` hits by (score desc, docid asc): exactly
    ``np.lexsort((docs, -scores))[:k]``, ties, infinities and -0.0 included.
    ``np.partition`` finds the k-th best score and only the hits at least as
    good are sorted, as TopScoreDocCollector keeps only hits that beat its
    queue's bottom. NaN, which no threshold orders, takes the full sort."""
    neg = -scores
    if not 0 < k < neg.size or np.isnan(neg).any():
        return np.lexsort((docs, neg))[:k]
    cand = np.flatnonzero(neg <= np.partition(neg, k - 1)[k - 1])
    return cand[np.lexsort((docs[cand], neg[cand]))[:k]]


def top_hits(docs, scores, k: int, search_after=None, doc_base: int = 0) -> list[tuple[int, float]]:
    """[(docid + doc_base, score)] of the best ``k`` local hits ranked after
    the ``search_after`` cursor (score, global docid), if one is given."""
    if search_after is not None:
        a_score = np.float32(search_after[0])
        a_doc = search_after[1] - doc_base
        m = (scores < a_score) | ((scores == a_score) & (docs > a_doc))
        docs, scores = docs[m], scores[m]
    return [(int(docs[i]) + doc_base, float(scores[i])) for i in top_k_order(docs, scores, k)]


def expand_multiterm(reader: SegmentReader, q: Query) -> list[tuple[str, float]]:
    """Matching (term, boost) pairs from this segment's term dict.

    Every query type with a literal prefix bound takes its candidate slice
    via `_terms_in_range` — on the merged layout that reads only covering
    parts, never the whole vocabulary. Unbounded patterns stream the dict
    chunk-by-chunk; the match set (small) is deduped, never the stream.
    """
    if isinstance(q, PrefixQuery):
        cand = _terms_in_range(reader, q.prefix, q.prefix + _TERM_CEILING)
        return [(str(t), 1.0) for t in cand]
    if isinstance(q, TermRangeQuery):
        lo = q.lower if q.lower is not None else ""
        hi = q.upper if q.upper is not None else _TERM_CEILING
        cand = _terms_in_range(reader, lo, hi)
        if q.lower is not None and not q.include_lower:
            cand = cand[cand > q.lower]
        if q.upper is not None and not q.include_upper:
            cand = cand[cand < q.upper]
        return [(str(t), 1.0) for t in cand]
    if isinstance(q, WildcardQuery):
        head = re.match(r"^[^*?]*", q.pattern).group()
        rx = re.compile(re.escape(q.pattern).replace(r"\*", ".*").replace(r"\?", ".") + r"\Z")
        if head:
            cand = _terms_in_range(reader, head, head + _TERM_CEILING)
            return [(str(t), 1.0) for t in cand if rx.match(t)]
        hits: list[str] = []
        for chunk in _iter_term_chunks(reader):
            hits.extend(str(t) for t in chunk if rx.match(t))
        return [(t, 1.0) for t in sorted(set(hits))]
    if isinstance(q, RegexpQuery):
        # literal-prefix range scan (RegexpQuery.cs:49 automaton-walk analog):
        # only the dict range sharing the pattern's literal head is scanned,
        # then the compiled regex (anchored both ends) filters it
        head_m = re.match(r"^[^\\.\[\]()*+?{|^$]*", q.pattern)
        head = head_m.group() if head_m else ""
        rx = re.compile(r"(?:" + q.pattern + r")\Z")
        if head:
            cand = _terms_in_range(reader, head, head + _TERM_CEILING)
            return [(str(t), 1.0) for t in cand if rx.match(t)][: q.max_expansions]
        hits = []
        for chunk in _iter_term_chunks(reader):
            hits.extend(str(t) for t in chunk if rx.match(t))
            # chunks stream in ascending term order: once a chunk completes
            # with >= cap distinct hits, no later chunk can beat them
            if len(set(hits)) >= q.max_expansions:
                break
        return [(t, 1.0) for t in sorted(set(hits))][: q.max_expansions]
    if isinstance(q, FuzzyQuery):
        base = q.term
        pref = base[: q.prefix_length]
        matched: dict[str, int] = {}
        # Levenshtein automaton (functions/lev_automaton.py — the
        # FuzzyTermsEnum/LevenshteinAutomata.cs walk): prunes whole merged
        # parts via manifest [min, max] bounds WITHOUT reading them, then
        # skips dead blocks inside each surviving chunk; only
        # automaton-viable blocks pay the vectorized DP. Never slower than
        # the plain DP by more than one next_valid_string per block; at
        # 10^9-term vocab the walk touches O(neighborhood) parts, not all.
        dfa = LevenshteinDFA(base, q.max_edits)
        if pref:
            chunks = [_terms_in_range(reader, pref, pref + _TERM_CEILING)]
        else:
            chunks = _iter_term_chunks(reader, part_filter=dfa.can_match_range)
        for cand in chunks:
            _fuzzy_matches_blocked(dfa, base, cand, q.max_edits, matched)
        out = []
        for t, d in matched.items():
            if d == 0:
                boost = 1.0
            else:
                # FuzzyTermsEnum boost: 1 - d / min(|term|,|text|)
                boost = 1.0 - d / min(len(t), len(base))
            out.append((t, boost))
        out.sort(key=lambda tb: (-tb[1], tb[0]))  # TopTermsRewrite: best first
        return out[: q.max_expansions]
    raise TypeError(f"not a multi-term query: {q!r}")


def _edit_distances_vectorized(base: str, terms: np.ndarray, cap: int) -> np.ndarray:
    """Levenshtein distance of ``base`` to every candidate term, vectorized
    across the dictionary slice: the DP runs |base| x max_len VECTOR steps
    over an (n_terms, max_len) codepoint matrix instead of a Python loop per
    term (the per-segment dict is millions of terms at corpus scale; the
    automaton-free numpy sweep is the scale answer until an FST exists).
    Terms longer than |base|+cap or shorter than |base|-cap get cap+1."""
    n = terms.size
    if n == 0:
        return np.empty(0, dtype=np.int64)
    lens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=n)
    out = np.full(n, cap + 1, dtype=np.int64)
    sel = np.flatnonzero(np.abs(lens - len(base)) <= cap)
    if sel.size == 0:
        return out
    cand = terms[sel]
    clens = lens[sel]
    maxlen = int(clens.max())
    chars = np.full((sel.size, maxlen), -1, dtype=np.int32)
    for i, t in enumerate(cand):  # one pass to build the codepoint matrix
        chars[i, : len(t)] = np.frombuffer(t.encode("utf-32-le"), dtype=np.int32)
    prev = np.broadcast_to(np.arange(maxlen + 1, dtype=np.int32), (sel.size, maxlen + 1)).copy()
    for bi, ch in enumerate(base):
        cur = np.empty_like(prev)
        cur[:, 0] = bi + 1
        code = np.int32(ord(ch))
        sub = prev[:, :-1] + (chars != code)
        dele = prev[:, 1:] + 1
        best = np.minimum(sub, dele)
        # insertion needs the running minimum along the row: cur[j] depends on
        # cur[j-1]; do the scan with a logarithmic min-prefix over (best - j)
        shifted = np.minimum.accumulate(
            np.concatenate((cur[:, :1], best), axis=1) - np.arange(maxlen + 1, dtype=np.int32),
            axis=1,
        )
        cur = np.minimum(
            np.concatenate((cur[:, :1], best), axis=1),
            shifted + np.arange(maxlen + 1, dtype=np.int32) ,
        )
        prev = cur
    out[sel] = prev[np.arange(sel.size), clens]
    return out


def _edit_distance_capped(a: str, b: str, cap: int) -> int:
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return cap + 1
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        lo = cap + 1
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a[i - 1] != b[j - 1]))
            lo = min(lo, cur[j])
        if lo > cap:
            return cap + 1
        prev = cur
    return prev[lb]


class _PP:
    """PhrasePositions port: position = doc position - query offset."""

    __slots__ = ("plist", "offset", "rpt_group", "rpt_ind", "pos", "idx")

    def __init__(self, plist, offset, rpt_group=-1, rpt_ind=0):
        self.plist = plist
        self.offset = offset
        self.rpt_group = rpt_group
        self.rpt_ind = rpt_ind
        self.pos = 0
        self.idx = 0

    def first(self) -> None:
        self.pos = self.plist[0]
        self.idx = 1

    def next(self) -> bool:
        if self.idx >= len(self.plist):
            return False
        self.pos = self.plist[self.idx]
        self.idx += 1
        return True


def _sloppy_phrase_freq_rpts(slots: list[tuple[list[int], int, str]], slop: int) -> float:
    """SloppyPhraseScorer.PhraseFreq port WITH repeating terms
    (/root/reference/src/Lucene.Net.Core/Search/SloppyPhraseScorer.cs:104-146,
    repeat handling :160-210, :338-383 — single-term repeat groups, the
    no-multi-term-postings case since our phrase terms are literals).

    slots: [(adjusted position list, query offset, term)] per query slot.
    The PhraseQueue is a linear-scan min (phrase arity is tiny), which makes
    Lucene's re-queue bookkeeping after collision resolution unnecessary
    while preserving the identical visit order (position, then offset)."""
    pps = [ _PP(pl, off) for pl, off, _t in slots ]
    # repeat groups: slots sharing a term, sorted by offset (GatherRptGroups)
    by_term: dict[str, list[int]] = {}
    for i, (_pl, _off, t) in enumerate(slots):
        by_term.setdefault(t, []).append(i)
    rpt_groups: list[list[_PP]] = []
    for t, idxs in by_term.items():
        if len(idxs) > 1:
            group = sorted((pps[i] for i in idxs), key=lambda p: p.offset)
            for gi, p in enumerate(group):
                p.rpt_group = len(rpt_groups)
                p.rpt_ind = gi
            rpt_groups.append(group)

    for p in pps:
        p.first()

    def tp_pos(p: _PP) -> int:
        return p.pos + p.offset

    def collide(p: _PP) -> _PP | None:
        for p2 in rpt_groups[p.rpt_group]:
            if p2 is not p and tp_pos(p2) == tp_pos(p):
                return p2
        return None

    def lesser(a: _PP, b: _PP) -> _PP:
        if a.pos < b.pos or (a.pos == b.pos and a.offset < b.offset):
            return a
        return b

    # AdvanceRepeatGroups (simple case): rg[j] advances j times
    for rg in rpt_groups:
        for j in range(1, len(rg)):
            for _ in range(j):
                if not rg[j].next():
                    return 0.0
    end = max(p.pos for p in pps)

    queue = list(pps)

    def pop_min() -> _PP:
        m = min(queue, key=lambda p: (p.pos, p.offset))
        queue.remove(m)
        return m

    freq = np.float32(0.0)
    pp = pop_min()
    match_length = end - pp.pos
    nxt = min(queue, key=lambda p: (p.pos, p.offset)).pos if queue else pp.pos

    def advance_pp(p: _PP) -> bool:
        nonlocal end
        if not p.next():
            return False
        if p.pos > end:
            end = p.pos
        return True

    def advance_rpts(p: _PP) -> bool:
        if p.rpt_group < 0:
            return True
        while True:
            other = collide(p)
            if other is None:
                return True
            p = lesser(p, other)
            if not advance_pp(p):
                return False

    while advance_pp(pp):
        if rpt_groups and not advance_rpts(pp):
            break
        if pp.pos > nxt:
            if match_length <= slop:
                freq = np.float32(freq + np.float32(1.0 / (match_length + 1.0)))
            queue.append(pp)
            pp = pop_min()
            nxt = min(queue, key=lambda p: (p.pos, p.offset)).pos if queue else pp.pos
            match_length = end - pp.pos
        else:
            ml2 = end - pp.pos
            if ml2 < match_length:
                match_length = ml2
    if match_length <= slop:
        freq = np.float32(freq + np.float32(1.0 / (match_length + 1.0)))
    return float(freq)


def _sloppy_phrase_freq(plists: list[list[int]], slop: int) -> float:
    """PhraseFreq() port: plists = per-term offset-adjusted position lists
    (sorted ascending, non-repeating terms). Returns float32 freq."""
    import heapq

    if len(plists) == 1:
        return float(len(plists[0]))  # every position is a 0-length match
    iters = [iter(pl) for pl in plists]
    cur = []
    end = -1
    for i, it in enumerate(iters):
        p = next(it)
        cur.append(p)
        end = max(end, p)
    pq = [(p, i) for i, p in enumerate(cur)]
    heapq.heapify(pq)
    freq = np.float32(0.0)

    pos, i = heapq.heappop(pq)
    match_length = end - pos
    nxt = pq[0][0]
    while True:
        # AdvancePP: next position of term i, update end
        p = next(iters[i], None)
        if p is None:
            break
        if p > end:
            end = p
        if p > nxt:  # done minimizing current match length
            if match_length <= slop:
                freq = np.float32(freq + np.float32(1.0 / (match_length + 1.0)))
            heapq.heappush(pq, (p, i))
            pos, i = heapq.heappop(pq)
            nxt = pq[0][0]
            match_length = end - pos
        else:
            ml2 = end - p
            if ml2 < match_length:
                match_length = ml2
            pos = p
    if match_length <= slop:
        freq = np.float32(freq + np.float32(1.0 / (match_length + 1.0)))
    return float(freq)


class SegmentScorer:
    """Evaluates a query tree against one segment with index-global stats.

    ``similarity`` (functions/similarity*.py) supplies the per-term math;
    every similarity runs through this one query algebra."""

    def __init__(self, reader: SegmentReader, global_stats: dict, similarity: Similarity = BM25()):
        """global_stats: {"max_doc": N, "sum_ttf": S, "df": {term: global df}},
        plus {"ttf": {term: total term freq}} for the LM/DFR/IB similarities."""
        self.reader = reader
        self.stats = global_stats
        self.sim = similarity.bind(global_stats)
        self._qn = None  # queryNorm of the top-level query being evaluated

    # -- term-level ---------------------------------------------------------
    def score_term(self, q: TermQuery) -> tuple[np.ndarray, np.ndarray]:
        """(local docids sorted, float32 scores) for one term clause."""
        docids, tfs = self.reader.postings(q.term)
        if docids.size == 0:
            return docids, np.empty(0, dtype=np.float32)
        w = self.sim.weight((q.term,), q.boost, self._qn)
        return docids, self.sim.score(w, tfs, docids, self.reader)

    # -- tree evaluation ----------------------------------------------------
    def evaluate(self, q: Query) -> tuple[np.ndarray, np.ndarray]:
        """(local docids sorted asc, float32 scores)."""
        if self.sim.query_norm is None or self._qn is not None:
            return self._evaluate(q)
        # one queryNorm per top-level query (IndexSearcher.CreateNormalizedWeight)
        self._qn = self.sim.query_norm(self._norm_sum(q))
        try:
            return self._evaluate(q)
        finally:
            self._qn = None

    def _norm_sum(self, q: Query) -> float:
        """Sum of squared query weights under ``q`` (getValueForNormalization):
        a boolean adds its non-prohibited clauses, a DisMax its max plus
        tie^2 times the rest, each times boost^2; constant-score and
        multi-term leaves add nothing."""
        if isinstance(q, TermQuery):
            return self.sim.norm_value((q.term,), q.boost)
        if isinstance(q, PhraseQuery):
            return self.sim.norm_value(q.terms, q.boost)
        if isinstance(q, MultiPhraseQuery):
            return self.sim.norm_value([t for ts in q.positions_terms for t in ts], q.boost)
        if isinstance(q, FilteredQuery):  # the engine applies neither wrapper's boost
            return self._norm_sum(q.query)
        if isinstance(q, BoostingQuery):
            return self._norm_sum(q.match)
        if isinstance(q, BooleanQuery):
            total = sum(self._norm_sum(c.query) for c in q.clauses if c.occur != "MUST_NOT")
        elif isinstance(q, DisjunctionMaxQuery) and q.disjuncts:
            subs = [self._norm_sum(d) for d in q.disjuncts]
            total = max(subs) + (sum(subs) - max(subs)) * q.tie_breaker * q.tie_breaker
        else:
            return 0.0
        return total * q.boost * q.boost

    def _evaluate(self, q: Query) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(q, TermQuery):
            return self.score_term(q)
        if isinstance(q, MatchAllDocsQuery):
            n = self.reader.doc_count
            return np.arange(n, dtype=np.int64), np.full(n, np.float32(q.boost), dtype=np.float32)
        if isinstance(q, ConstantScoreQuery):
            docids, _ = self.evaluate(q.query)
            return docids, np.full(docids.size, np.float32(q.boost), dtype=np.float32)
        if isinstance(q, (PrefixQuery, TermRangeQuery, WildcardQuery, RegexpQuery)):
            # ConstantScoreAutoRewrite semantics: matching docs score = boost
            expansions = expand_multiterm(self.reader, q)
            if not expansions:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
            docs = [self.reader.postings(t)[0] for t, _ in expansions]
            union = np.unique(np.concatenate(docs))
            return union, np.full(union.size, np.float32(q.boost), dtype=np.float32)
        if isinstance(q, FuzzyQuery):
            expansions = expand_multiterm(self.reader, q)
            if not expansions:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
            sub = BooleanQuery(
                boost=q.boost,
                clauses=tuple(
                    BooleanClause(TermQuery(field=q.field, term=t, boost=bst), "SHOULD")
                    for t, bst in expansions
                ),
            )
            return self.evaluate(sub)
        if isinstance(q, FilteredQuery):
            docs, scores = self.evaluate(q.query)
            if docs.size == 0:
                return docs, scores
            keep = self._filter_keep(q.filter, docs)
            return docs[keep], scores[keep]
        if isinstance(q, BoostingQuery):
            docs, scores = self.evaluate(q.match)
            if docs.size:
                ctx_docs, _ = self.evaluate(q.context)
                if ctx_docs.size:
                    demoted = np.isin(docs, ctx_docs, assume_unique=True)
                    scores = scores.copy()
                    scores[demoted] = (scores[demoted] * np.float32(q.demote)).astype(np.float32)
            return docs, scores
        if isinstance(q, (PhraseQuery, MultiPhraseQuery)):
            return self._evaluate_phrase(q)
        if isinstance(q, DisjunctionMaxQuery):
            return self._evaluate_dismax(q)
        if isinstance(q, BooleanQuery):
            return self._evaluate_boolean(q)
        raise TypeError(f"unsupported query: {q!r}")

    def _filter_keep(self, f, docs: np.ndarray) -> np.ndarray:
        """Boolean keep-mask for ``docs`` under a FilteredQuery filter:
        FieldRangeFilter (docs-table predicate, evaluated only at the
        candidate docs), QueryFilter (posting-list doc set,
        QueryWrapperFilter.cs:31 — scores untouched), DuplicateFilter
        (first/last doc per key value), CachedFilter (doc set memoized per
        scorer, CachingWrapperFilter.cs:33)."""
        from ..query import CachedFilter, DuplicateFilter, FieldRangeFilter

        if isinstance(f, CachedFilter):
            cache = self.__dict__.setdefault("_filter_cache", {})
            allowed = cache.get(f.filter)
            if allowed is None:
                allowed = cache[f.filter] = self._filter_docset(f.filter)
            return np.isin(docs, allowed, assume_unique=True)
        if isinstance(f, QueryFilter):
            fdocs, _ = self.evaluate(f.query)
            return np.isin(docs, fdocs, assume_unique=True)
        if isinstance(f, DuplicateFilter):
            return np.isin(docs, self._duplicate_docset(f), assume_unique=True)
        from ..query import ChainedFilter as _CF

        if isinstance(f, _CF):
            return np.isin(docs, self._filter_docset(f), assume_unique=True)
        if isinstance(f, FieldRangeFilter):
            vals = self.reader.doc_values(f.field)
            keep = np.ones(docs.size, dtype=bool)
            if f.lower is not None:
                keep &= (vals[docs] >= f.lower) if f.include_lower else (vals[docs] > f.lower)
            if f.upper is not None:
                keep &= (vals[docs] <= f.upper) if f.include_upper else (vals[docs] < f.upper)
            return keep
        raise TypeError(f"unsupported filter: {f!r}")

    def _filter_docset(self, f) -> np.ndarray:
        """Sorted array of ALL docids a filter allows (the cached form)."""
        from ..query import ChainedFilter, DuplicateFilter, FieldRangeFilter

        if isinstance(f, ChainedFilter):
            # ChainedFilter.cs sequential fold over sorted docid sets
            if not f.clauses:
                return np.empty(0, dtype=np.int64)
            result = self._filter_docset(f.clauses[0][0])
            for sub, op in f.clauses[1:]:
                dset = self._filter_docset(sub)
                if op == "AND":
                    result = np.intersect1d(result, dset, assume_unique=True)
                elif op == "OR":
                    result = np.union1d(result, dset)
                elif op == "ANDNOT":
                    result = np.setdiff1d(result, dset, assume_unique=True)
                elif op == "XOR":
                    result = np.setxor1d(result, dset, assume_unique=True)
                else:
                    raise ValueError(f"unknown ChainedFilter op: {op!r}")
            return result.astype(np.int64)
        if isinstance(f, QueryFilter):
            fdocs, _ = self.evaluate(f.query)
            return fdocs
        if isinstance(f, DuplicateFilter):
            return self._duplicate_docset(f)
        if isinstance(f, FieldRangeFilter):
            vals = self.reader.doc_values(f.field)
            keep = np.ones(len(vals), dtype=bool)
            if f.lower is not None:
                keep &= (vals >= f.lower) if f.include_lower else (vals > f.lower)
            if f.upper is not None:
                keep &= (vals <= f.upper) if f.include_upper else (vals < f.upper)
            return np.flatnonzero(keep).astype(np.int64)
        raise TypeError(f"unsupported filter: {f!r}")

    def _duplicate_docset(self, f) -> np.ndarray:
        """Docids surviving DuplicateFilter: per distinct non-null key value,
        the lowest (keep='first') or highest docID in this reader. One
        stable argsort over the key column; null keys excluded (the
        reference's full-validation mode starts all-invalid)."""
        import pandas as pd

        vals = self.reader.doc_values(f.field)
        idx = np.flatnonzero(~pd.isnull(vals)).astype(np.int64)
        if idx.size == 0:
            return idx
        order = np.argsort(vals[idx], kind="stable")
        sv = vals[idx][order]
        first = np.concatenate(([True], sv[1:] != sv[:-1]))
        if f.keep == "first":
            winners = idx[order[first]]
        else:
            last = np.concatenate((first[1:], [True]))
            winners = idx[order[last]]
        winners.sort()
        return winners

    @staticmethod
    def _union_postings_keys(plist):
        """Merge several terms' positions postings into one
        (docids, tfs, flat, occ) tuple — the UnionDocsAndPositionsEnum
        analog. Exact (doc, position) duplicates (terms stacked at one
        position by a synonym-style filter) are deduped."""
        SHIFT = np.int64(1) << np.int64(32)
        keys = []
        for docids, tfs, flat, occ in plist:
            keys.append(np.repeat(docids, tfs) * SHIFT + flat)
        u = np.unique(np.concatenate(keys))
        docs = u // SHIFT
        pos = u % SHIFT
        docids, tfs = np.unique(docs, return_counts=True)
        occ = np.concatenate(([0], np.cumsum(tfs)))
        return docids, tfs, pos, occ

    def _evaluate_phrase(self, q) -> tuple[np.ndarray, np.ndarray]:
        """PhraseQuery and MultiPhraseQuery; a phrase is a multi-phrase with
        one term per position. Each position takes the union of its terms'
        postings (UnionDocsAndPositionsEnum analog, MultiPhraseQuery.cs:521)
        without df=0 terms, so a phrase with a df=0 term matches nothing.
        slop=0 intersects aligned positions (ExactPhraseScorer); slop>0 runs
        the SloppyPhraseScorer sweep with each position one pseudo-term,
        positions with identical term SETS taking the repeating-terms path.
        tf = phrase frequency; weight = the similarity's weight of EVERY term
        in declaration order (MultiPhraseWeight: df=0 terms included)."""
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
        slot_terms = [(t,) for t in q.terms] if isinstance(q, PhraseQuery) else q.positions_terms
        if not slot_terms:
            return empty
        qpos = q.term_positions()
        slot_posts = []
        for terms in slot_terms:
            plist = [self.reader.positions(t) for t in terms if self.stats["df"].get(t, 0) != 0]
            plist = [post for post in plist if post[0].size]
            if not plist:
                return empty  # a position no term can fill: no phrase match
            slot_posts.append(plist[0] if len(plist) == 1 else self._union_postings_keys(plist))
        w = self.sim.weight([t for terms in slot_terms for t in terms], q.boost, self._qn)
        SHIFT = np.int64(1) << np.int64(32)
        if q.slop == 0:
            # per-slot (docid, adjusted position) keys; anchor = pos - qpos_i
            qmax = max(qpos)
            keysets = []
            for (docids, tfs, flat, occ), p in zip(slot_posts, qpos):
                doc_per_occ = np.repeat(docids, tfs)
                keysets.append(doc_per_occ * SHIFT + (flat - p + qmax))
            common = keysets[0]
            for ks in keysets[1:]:
                common = _intersect_sorted(common, ks)
            if common.size == 0:
                return empty
            docs, freqs = np.unique(common // SHIFT, return_counts=True)
            docs = docs.astype(np.int64)
            return docs, self.sim.score(w, freqs, docs, self.reader)
        # sloppy: pseudo-term per slot, named by its term set so identical
        # sets are recognized as repeats
        names = ["|".join(sorted(terms)) for terms in slot_terms]
        has_rpts = len(set(names)) != len(names)
        common = slot_posts[0][0]
        for docids, *_ in slot_posts[1:]:
            common = _intersect_sorted(common, docids)
        if common.size == 0:
            return empty
        out_docs, out_freqs = [], []
        for doc in common.tolist():
            slots = []
            for (docids, tfs, flat, occ), name, p in zip(slot_posts, names, qpos):
                j = int(np.searchsorted(docids, doc))
                slots.append(((flat[occ[j] : occ[j + 1]] - p).tolist(), p, name))
            if has_rpts:
                f = _sloppy_phrase_freq_rpts(slots, q.slop)
            else:
                f = _sloppy_phrase_freq([pl for pl, _p, _t in slots], q.slop)
            if f > 0:
                out_docs.append(doc)
                out_freqs.append(f)
        if not out_docs:
            return empty
        docs = np.array(out_docs, dtype=np.int64)
        freqs = np.array(out_freqs, dtype=np.float32)
        return docs, self.sim.score(w, freqs, docs, self.reader)

    def _evaluate_dismax(self, q: DisjunctionMaxQuery) -> tuple[np.ndarray, np.ndarray]:
        """DisjunctionMaxScorer: max + tieBreaker * (sum - max) per doc."""
        evals = [self.evaluate(d) for d in q.disjuncts]
        evals = [(d, s) for d, s in evals if d.size]
        if not evals:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        union, ssum, _ = _disjunction_sum(evals)
        smax = np.full(union.size, -np.inf, dtype=np.float32)
        for d, s in evals:
            ix = np.searchsorted(union, d)
            smax[ix] = np.maximum(smax[ix], s)
        tie = np.float32(q.tie_breaker)
        scores = (smax + tie * (ssum.astype(np.float32) - smax)).astype(np.float32)
        if q.boost != 1.0:
            scores = (scores * np.float32(q.boost)).astype(np.float32)
        return union, scores

    def _evaluate_boolean(self, q: BooleanQuery) -> tuple[np.ndarray, np.ndarray]:
        musts = [c.query for c in q.clauses if c.occur == "MUST"]
        shoulds = [c.query for c in q.clauses if c.occur == "SHOULD"]
        nots = [c.query for c in q.clauses if c.occur == "MUST_NOT"]
        msm = q.min_should_match
        if msm > len(shoulds):
            # Lucene matches nothing when minNrShouldMatch exceeds the optional
            # clause count (BooleanQuery.cs: scorer can never satisfy the bound)
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)

        must_evals = [self.evaluate(m) for m in musts]
        should_evals = [self.evaluate(s) for s in shoulds]

        # --- required side: leapfrog intersection, cost-ascending f32 sum ---
        # cost = GLOBAL df (not per-segment postings size) so the float32
        # summation order is identical across segments and in the oracle;
        # the reference uses per-leaf docFreq (ConjunctionScorer.cs:47-51) —
        # same order in the single-segment case, last-ulp-equivalent otherwise.
        req_docs = req_scores = None
        if must_evals:
            order = sorted(range(len(must_evals)), key=lambda i: (self._cost(musts[i]), i))
            req_docs = must_evals[order[0]][0]
            for i in order[1:]:
                req_docs = _intersect_sorted(req_docs, must_evals[i][0])
            req_scores = np.zeros(req_docs.size, dtype=np.float32)
            for i in order:  # sequential float32 adds in cost order
                d, s = must_evals[i]
                idx = np.searchsorted(d, req_docs)
                req_scores = (req_scores + s[idx]).astype(np.float32)

        # --- optional side: union, double-accumulated sum, match counts ----
        opt_docs = opt_scores = opt_counts = None
        if should_evals:
            opt_docs, acc, opt_counts = _disjunction_sum(should_evals)
            opt_scores = acc.astype(np.float32)

        # --- combine -------------------------------------------------------
        if req_docs is not None:
            docs, scores = req_docs, req_scores
            if opt_docs is not None:
                if msm > 0:
                    keep = opt_counts >= msm
                    strict_docs = opt_docs[keep]
                    mask = np.isin(docs, strict_docs, assume_unique=True)
                    docs, scores = docs[mask], scores[mask]
                idx = np.searchsorted(opt_docs, docs)
                valid = (idx < opt_docs.size) & (opt_docs[np.minimum(idx, opt_docs.size - 1)] == docs) if opt_docs.size else np.zeros(docs.size, bool)
                add = np.zeros(docs.size, dtype=np.float32)
                add[valid] = opt_scores[idx[valid]]
                scores = (scores + add).astype(np.float32)  # ReqOptSumScorer f32 add
        elif opt_docs is not None:
            need = max(msm, 1)
            keep = opt_counts >= need
            docs, scores = opt_docs[keep], opt_scores[keep]
        else:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)

        if self.sim.coord is not None:  # Classic: times overlap / maxOverlap
            overlap = np.full(docs.size, len(musts), dtype=np.int32)
            if opt_docs is not None and opt_docs.size:
                i = np.minimum(np.searchsorted(opt_docs, docs), opt_docs.size - 1)
                hit = opt_docs[i] == docs
                overlap[hit] += opt_counts[i[hit]]
            coord = self.sim.coord(overlap, len(musts) + len(shoulds))
            scores = (scores * coord).astype(np.float32)

        for nq in nots:
            nd, _ = self.evaluate(nq)
            if nd.size and docs.size:
                mask = ~np.isin(docs, nd, assume_unique=True)
                docs, scores = docs[mask], scores[mask]

        if q.boost != 1.0:
            scores = (scores * np.float32(q.boost)).astype(np.float32)
        return docs, scores

    def _cost(self, q: Query) -> int:
        if isinstance(q, TermQuery):  # LM stats may carry no df: clause order
            return self.stats.get("df", {}).get(q.term, 0)
        return self.stats["max_doc"]

    def top_k(
        self,
        q: Query,
        k: int,
        search_after: tuple[float, int] | None = None,
        mode: str = "auto",
        exclude_local: np.ndarray | None = None,
    ) -> list[tuple[int, float]]:
        """[(global docid, float32 score)] by (score desc, docid asc), length<=k.

        mode: 'auto' uses block-max WAND for term/pure-disjunction queries
        (result-preserving pruning) when the similarity has a block bound,
        'exhaustive' forces full evaluation, 'wand' forces WAND (error if
        the query shape or the similarity is ineligible).
        exclude_local: deleted (liveDocs) local docids — forces the
        exhaustive path so masking happens before top-k selection.
        """
        if exclude_local is not None and exclude_local.size:
            docs, scores = self.evaluate(q)
            keep = ~np.isin(docs, exclude_local, assume_unique=True)
            return top_hits(docs[keep], scores[keep], k, search_after, self.reader.doc_base)
        if mode == "wand" and self.sim.block_bound is None:
            raise ValueError(f"{type(self.sim).__name__} has no WAND bound")
        if mode in ("auto", "wand") and self.sim.block_bound is not None:
            from .wand import is_wand_eligible, wand_top_k

            tw = is_wand_eligible(q) if hasattr(self.reader, "blocks") else None
            if tw is not None:
                if mode == "wand" or auto_wand(tw, self.reader, self.stats["df"]):
                    weights = [(t, self.sim.weight((t,), boost)) for t, boost in tw]
                    hits = wand_top_k(self.reader, weights, self.sim, k, search_after)
                    return [(d + self.reader.doc_base, s) for d, s in hits]
            elif mode == "wand":
                raise ValueError(f"query not WAND-eligible: {q!r}")
        docs, scores = self.evaluate(q)
        return top_hits(docs, scores, k, search_after, self.reader.doc_base)

    def count(self, q: Query) -> int:
        docs, _ = self.evaluate(q)
        return int(docs.size)


#: top_k_batch drops its shared term scores once they hold this many bytes
#: of docids and scores, so a batch holds at most this much more than one
#: query's own postings. perfbench's 6 000-doc segments hold ~3 MB for a
#: 32-query batch; a 1M-doc segment fills it after about 5 head terms of
#: df 500 000 (12 bytes a posting)
_BATCH_SCORE_BYTES = 32 << 20

#: the most (query, docid) cells one batch table holds (2 MB of float64,
#: ~5 MB with its ranking's temporaries): a 32-query batch shares one table
#: over segments of up to 8 192 docs, and a segment of 262 144 docs or more
#: gets one row, the per-query dense path
_BATCH_CELLS = 1 << 18


def top_k_batch(reader, stats: dict, queries: list, k: int, dels: np.ndarray) -> list[list[tuple[int, float]]]:
    """``SegmentScorer(reader, stats).top_k(q, k, exclude_local=dels)`` for
    each of ``queries``, bit for bit, with the batch's term work shared:
    the batch has one ``stats``, so each distinct (term, boost) is decoded
    and scored once for every query that names it, up to
    _BATCH_SCORE_BYTES of kept scores.

    A bare TermQuery, or a flat SHOULD disjunction of them (the shape WAND
    takes), that auto mode keeps off WAND ranks those shared scores; every
    other query runs top_k. A disjunction is summed as _disjunction_sum
    sums it: the same float64 adds in clause order, a clause scoring 0
    still a match. One with at least one posting per
    _DENSE_SLOTS_PER_POSTING docs of the reader adds into the next row of a
    table of at most _BATCH_CELLS cells, BooleanScorer's bucket table for a
    whole batch, whose rows are ranked together when it is full; the others
    take the sparse union."""
    from .wand import is_wand_eligible

    scorer = SegmentScorer(reader, stats)
    n = reader.doc_count
    # blocks of up to _TABLE_BLOCK docids, at least 8k of them per row
    block = min(_TABLE_BLOCK, max(1, n // (8 * max(k, 1))))
    width = -(-n // block) * block
    out: list = [[] for _ in queries]
    # term scores by (term, repr(boost)): a -0.0 boost does not score as 0.0
    scored: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
    held = 0
    acc = hit = None
    table: list[int] = []  # the query position of each filled row

    def rank():
        a, h = acc[: len(table)], hit[: len(table)]
        if dels.size:
            a[:, dels] = 0.0
            h[:, dels] = False
        for i, hits in zip(table, _table_top_k(a, h, k, block, reader.doc_base)):
            out[i] = hits
        a.fill(0.0)
        h.fill(False)
        table.clear()

    for i, q in enumerate(queries):
        tw = is_wand_eligible(q)
        if tw is None or (not dels.size and auto_wand(tw, reader, stats["df"])):
            out[i] = scorer.top_k(q, k, exclude_local=dels)
            continue
        if held > _BATCH_SCORE_BYTES:
            scored.clear()
            held = 0
        clauses = []
        for t, b in tw:
            key = (t, repr(b))
            if key not in scored:
                scored[key] = scorer.score_term(TermQuery(term=t, boost=b))
                held += scored[key][0].nbytes + scored[key][1].nbytes
            clauses.append(scored[key])
        if isinstance(q, TermQuery):
            docs, scores = clauses[0]
        elif sum(d.size for d, _ in clauses) * _DENSE_SLOTS_PER_POSTING >= n:
            if acc is None:
                rows = min(len(queries) - i, max(1, _BATCH_CELLS // max(width, 1)))
                acc = np.zeros((rows, width), dtype=np.float64)
                hit = np.zeros((rows, width), dtype=bool)
            a, h = acc[len(table)], hit[len(table)]
            for d, s in clauses:
                a[d] += s
                h[d] = True
            table.append(i)
            if len(table) == len(acc):
                rank()
            continue
        else:
            docs, sums, _cnt = _disjunction_sum(clauses)
            scores = sums.astype(np.float32)
        if dels.size:
            keep = ~np.isin(docs, dels, assume_unique=True)
            docs, scores = docs[keep], scores[keep]
        out[i] = top_hits(docs, scores, k, None, reader.doc_base)
    if table:
        rank()
    return out


#: _table_top_k bounds each row's k-th best by the k-th best of the minimums
#: of blocks of this many docids
_TABLE_BLOCK = 64


def _table_top_k(acc: np.ndarray, hit: np.ndarray, k: int, block: int, doc_base: int) -> list[list[tuple[int, float]]]:
    """top_hits of each row of a batch table: the docids where ``hit``,
    scored float32(``acc``), best ``k`` by (score desc, docid asc), exactly
    as top_k_order ranks them (NaN last). ``acc`` is 0 wherever ``hit`` is
    not, and its width is a multiple of ``block``.

    Rank keys are the negated scores, so 0 where a row has no hit. Per row,
    one np.partition over the minimum key of each ``block`` docids finds a
    bound on the k-th best key; when the bound is below 0, only hits reach
    it and every hit at or under it is a candidate, else all the row's hits
    are. One lexsort of the candidates by (row, key, docid) ranks them."""
    scores = acc.astype(np.float32)
    key = np.negative(scores)
    cand = hit
    r, width = key.shape
    if 0 < k < width // block:
        mins = key.reshape(r, width // block, block).min(axis=2)
        bound = np.partition(mins, k - 1, axis=1)[:, k - 1 : k]
        cand = np.where(bound < 0, key <= bound, hit)
    flat = np.flatnonzero(cand)
    rows, docs = flat // width, flat % width
    order = np.lexsort((docs, key.ravel()[flat], rows))
    rows, docs = rows[order], docs[order]
    starts = np.searchsorted(rows, np.arange(r + 1))
    out = []
    for i in range(r):
        d = docs[starts[i] : min(starts[i] + k, starts[i + 1])]
        out.append(list(zip((d + doc_base).tolist(), scores[i, d].tolist())))
    return out
