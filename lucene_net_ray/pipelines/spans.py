"""Span queries over position streams (SURVEY.md §2.6 Spans row).

  SpanTermQuery   one span (pos, pos+1) per occurrence
  SpanNearQuery   ordered: the EXACT NearSpansOrdered automaton (r5) —
                  StretchToOrder + ShrinkToAfterShortestMatch with the
                  reference's overlap-allowing order predicate, permanent
                  iterator advances, and the emission multiset (see
                  _near_ordered; reference NearSpansOrdered.cs:247-433);
                  unordered: the EXACT NearSpansUnordered cell-queue (r5) —
                  Max.End - Min.Start - totalLength <= slop, queue-min
                  advance, emission multiset, Max-cell pointer quirk
                  preserved (see _near_unordered)
  SpanOrQuery     merged span stream
  SpanNotQuery    include spans that do not overlap any exclude span
  SpanFirstQuery  spans with end <= n

Scoring matches SpanScorer.SetFreqCurrentDoc
(/root/reference/src/Lucene.Net.Core/Search/Spans/SpanScorer.cs:72-87):
freq += float32(1 / ((end - start) + 1)) per span, weight = f32-summed idfs
of all terms in the tree, same BM25 tf curve as phrases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..functions.similarity import BM25
from ..query import Query


@dataclass(frozen=True)
class SpanTermQuery(Query):
    field: str = "content"
    term: str = ""


@dataclass(frozen=True)
class SpanNearQuery(Query):
    clauses: tuple = ()
    slop: int = 0
    in_order: bool = True
    field: str = "content"


@dataclass(frozen=True)
class SpanOrQuery(Query):
    clauses: tuple = ()
    field: str = "content"


@dataclass(frozen=True)
class SpanNotQuery(Query):
    include: Query = None
    exclude: Query = None
    field: str = "content"


@dataclass(frozen=True)
class SpanFirstQuery(Query):
    match: Query = None
    end: int = 1
    field: str = "content"


@dataclass(frozen=True)
class SpanPositionRangeQuery(Query):
    """Spans of `match` whose positions fall in [start, end) — the
    SpanPositionRangeQuery analog (Search/Spans/SpanPositionRangeQuery.cs);
    SpanFirstQuery is the start=0 special case."""

    match: Query = None
    start: int = 0
    end: int = 1
    field: str = "content"


@dataclass(frozen=True)
class PayloadTermQuery(Query):
    """SpanTermQuery scored with a payload factor: score = span score ×
    PayloadFunction over the payloads at the matched positions (reference
    Search/Payloads/PayloadTermQuery.cs:36 with Min/Max/AveragePayloadFunction;
    payloads come from the DelimitedPayloadTokenFilter analog's per-position
    store). Positions without a payload are skipped; a doc whose matches
    carry no payloads scores with factor 1.0 (PayloadFunction.DocScore's
    numPayloadsSeen==0 branch). include_span_score=False reproduces the
    reference's payload-only scoring mode."""

    field: str = "content"
    term: str = ""
    func: str = "avg"  # "avg" | "min" | "max"
    include_span_score: bool = True


@dataclass(frozen=True)
class PayloadNearQuery(Query):
    """SpanNearQuery scored with a payload factor over every payload-carrying
    position inside each matched span (PayloadNearQuery.cs:42 analog)."""

    clauses: tuple = ()
    slop: int = 0
    in_order: bool = True
    func: str = "avg"
    field: str = "content"
    include_span_score: bool = True


@dataclass(frozen=True)
class SpanPayloadCheckQuery(Query):
    """Keep only spans of `match` whose in-order sequence of payload-carrying
    position payloads equals `payloads` exactly, as float32
    (Search/Spans/SpanPayloadCheckQuery.cs:34 compares collected payload
    bytes; the float32 store makes that an exact float compare here)."""

    match: Query = None
    payloads: tuple = ()
    field: str = "content"


@dataclass(frozen=True)
class SpanMultiTermQuery(Query):
    """A multi-term query (Prefix/Wildcard/Fuzzy/TermRange/Regexp) embedded
    in a span tree (SpanMultiTermQueryWrapper analog, reference
    Search/Spans/SpanMultiTermQueryWrapper.cs). Must be rewritten to a
    SpanOrQuery of matched terms (rewrite_span_multiterm) before
    evaluation — ComplexPhraseQueryParser's lowering."""

    query: Query = None
    field: str = "content"


def rewrite_span_multiterm(searcher, q):
    """Searcher-level rewrite: expand every SpanMultiTermQuery against the
    whole index (union over segments, like the fuzzy TopTermsRewrite) so df
    stats and evaluation see one fixed span tree."""
    if isinstance(q, SpanMultiTermQuery):
        expansions = searcher.expand(q.query)
        return SpanOrQuery(
            clauses=tuple(SpanTermQuery(field=q.field, term=t) for t, _ in expansions),
            field=q.field,
        )
    if isinstance(q, SpanNearQuery):
        return SpanNearQuery(
            clauses=tuple(rewrite_span_multiterm(searcher, c) for c in q.clauses),
            slop=q.slop,
            in_order=q.in_order,
            field=q.field,
            boost=q.boost,
        )
    if isinstance(q, SpanOrQuery):
        return SpanOrQuery(
            clauses=tuple(rewrite_span_multiterm(searcher, c) for c in q.clauses),
            field=q.field,
            boost=q.boost,
        )
    if isinstance(q, SpanNotQuery):
        return SpanNotQuery(
            include=rewrite_span_multiterm(searcher, q.include),
            exclude=rewrite_span_multiterm(searcher, q.exclude),
            field=q.field,
            boost=q.boost,
        )
    if isinstance(q, SpanFirstQuery):
        return SpanFirstQuery(
            match=rewrite_span_multiterm(searcher, q.match),
            end=q.end,
            field=q.field,
            boost=q.boost,
        )
    if isinstance(q, SpanPositionRangeQuery):
        return SpanPositionRangeQuery(
            match=rewrite_span_multiterm(searcher, q.match),
            start=q.start,
            end=q.end,
            field=q.field,
            boost=q.boost,
        )
    if isinstance(q, SpanPayloadCheckQuery):
        return SpanPayloadCheckQuery(
            match=rewrite_span_multiterm(searcher, q.match),
            payloads=q.payloads,
            field=q.field,
            boost=q.boost,
        )
    if isinstance(q, PayloadNearQuery):
        return PayloadNearQuery(
            clauses=tuple(rewrite_span_multiterm(searcher, c) for c in q.clauses),
            slop=q.slop,
            in_order=q.in_order,
            func=q.func,
            field=q.field,
            include_span_score=q.include_span_score,
            boost=q.boost,
        )
    return q


def span_terms(q) -> set[str]:
    if isinstance(q, (SpanTermQuery, PayloadTermQuery)):
        return {q.term}
    if isinstance(q, (SpanNearQuery, SpanOrQuery, PayloadNearQuery)):
        out: set[str] = set()
        for c in q.clauses:
            out |= span_terms(c)
        return out
    if isinstance(q, SpanNotQuery):
        return span_terms(q.include) | span_terms(q.exclude)
    if isinstance(q, (SpanFirstQuery, SpanPositionRangeQuery, SpanPayloadCheckQuery)):
        return span_terms(q.match)
    raise TypeError(q)


def _positions_by_doc(reader, term: str) -> dict[int, list[int]]:
    docids, tfs, flat, occ = reader.positions(term)
    return {
        int(d): flat[occ[j] : occ[j + 1]].tolist() for j, d in enumerate(docids.tolist())
    }


def _span_payload_seq(payloads: np.ndarray, start: int, end: int) -> list[float]:
    """In-order payloads of the payload-carrying positions inside [start, end)."""
    hi = min(end, payloads.size)
    if start >= hi:
        return []
    window = payloads[start:hi]
    return window[~np.isnan(window)].tolist()


def enumerate_spans(
    q, pos_maps: dict[str, dict[int, list[int]]], doc: int, payload_of=None
) -> list[tuple[int, int]]:
    """Sorted (start, end) spans of q in one doc ([] when no match).

    ``payload_of(doc) -> float32[positions]`` is required only when the tree
    contains a SpanPayloadCheckQuery."""
    if isinstance(q, (SpanTermQuery, PayloadTermQuery)):
        pl = pos_maps[q.term].get(doc, [])
        return [(p, p + 1) for p in pl]
    if isinstance(q, SpanOrQuery):
        out: list[tuple[int, int]] = []
        for c in q.clauses:
            out.extend(enumerate_spans(c, pos_maps, doc, payload_of))
        # SpanOrQuery merges clause streams through a priority queue
        # (SpanOrQuery.cs SpanQueue, ordered by start then end) and emits
        # DUPLICATES when clauses produce the same span — multiset kept
        return sorted(out)
    if isinstance(q, SpanFirstQuery):
        return [s for s in enumerate_spans(q.match, pos_maps, doc, payload_of) if s[1] <= q.end]
    if isinstance(q, SpanPositionRangeQuery):
        return [
            s for s in enumerate_spans(q.match, pos_maps, doc, payload_of)
            if s[0] >= q.start and s[1] <= q.end
        ]
    if isinstance(q, SpanPayloadCheckQuery):
        if payload_of is None:
            raise ValueError("SpanPayloadCheckQuery needs a payload-enabled index")
        want = [float(np.float32(p)) for p in q.payloads]
        pay = payload_of(doc)
        return [
            (s, e)
            for s, e in enumerate_spans(q.match, pos_maps, doc, payload_of)
            if _span_payload_seq(pay, s, e) == want
        ]
    if isinstance(q, SpanNotQuery):
        inc = enumerate_spans(q.include, pos_maps, doc, payload_of)
        exc = enumerate_spans(q.exclude, pos_maps, doc, payload_of)
        return [
            (s, e)
            for s, e in inc
            if not any(es < e and s < ee for es, ee in exc)  # overlap test
        ]
    if isinstance(q, (SpanNearQuery, PayloadNearQuery)):
        sub = [enumerate_spans(c, pos_maps, doc, payload_of) for c in q.clauses]
        if any(not s for s in sub):
            return []
        return (
            _near_ordered(sub, q.slop) if q.in_order else _near_unordered(sub, q.slop)
        )
    raise TypeError(q)


def _spans_ordered(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """NearSpansOrdered.DocSpansOrdered (reference NearSpansOrdered.cs:306-309):
    a before b iff start_a < start_b, or equal starts and end_a < end_b.
    Overlap IS allowed — only non-overlapping gaps count toward slop."""
    return a[1] < b[1] if a[0] == b[0] else a[0] < b[0]


def _near_ordered(sub: list[list[tuple[int, int]]], slop: int) -> list[tuple[int, int]]:
    """EXACT NearSpansOrdered automaton over one doc's per-clause sorted
    span lists (reference NearSpansOrdered.cs:247-433): repeat
    StretchToOrder (advance each later clause until ordered after its
    predecessor) then ShrinkToAfterShortestMatch (walk the earlier clauses
    backwards, advancing each as far as possible while still ordered
    before the chain; slop accumulates only positive gaps
    MatchStart - prevEnd; the advances are PERMANENT, which is what makes
    successive matches come from successive spans). The emission MULTISET
    is returned (no dedup): SpanScorer counts every Next() match toward
    freq, so e.g. "t1 near t3" over "t1 t3 t3" matches ONCE — the t1
    iterator exhausts — where a per-last-span enumeration would say twice."""
    n = len(sub)
    if n == 1:
        return list(sub[0])
    idx = [0] * n
    out: list[tuple[int, int]] = []
    in_doc = True
    while in_doc:
        # StretchToOrder (reference :315-336)
        ok = True
        for i in range(1, n):
            while not _spans_ordered(sub[i - 1][idx[i - 1]], sub[i][idx[i]]):
                idx[i] += 1
                if idx[i] >= len(sub[i]):
                    ok = False
                    in_doc = False
                    break
            if not ok:
                break
        if not ok:
            break
        # ShrinkToAfterShortestMatch (reference :343-433)
        match_start, match_end = sub[n - 1][idx[n - 1]]
        last_start, last_end = match_start, match_end
        match_slop = 0
        for i in range(n - 2, -1, -1):
            prev_start, prev_end = sub[i][idx[i]]
            while True:  # advance prev until after (last_start, last_end)
                idx[i] += 1
                if idx[i] >= len(sub[i]):
                    in_doc = False  # check remaining clauses for final match
                    break
                pp = sub[i][idx[i]]
                if not _spans_ordered(pp, (last_start, last_end)):
                    break
                prev_start, prev_end = pp
            if match_start > prev_end:  # only non-overlap adds to slop
                match_slop += match_start - prev_end
            match_start = prev_start
            last_start, last_end = prev_start, prev_end
        if match_slop <= slop:
            out.append((match_start, match_end))
    return out


def _near_unordered(sub: list[list[tuple[int, int]]], slop: int) -> list[tuple[int, int]]:
    """EXACT NearSpansUnordered simulation (reference NearSpansUnordered.cs):
    each clause holds one current span (a SpansCell); match iff
    Max.End() - Min().Start() - totalLength <= slop, emitting
    (Min().Start(), Max.End()); then the queue-min cell (DocSpansOrdered
    order: start, ties by end) advances and the loop repeats until it
    exhausts. Two reference behaviors preserved deliberately: the emission
    multiset is kept (freq parity), and Max is a CELL POINTER updated only
    when an advancing cell's end EXCEEDS the current Max's end
    (SpansCell.Adjust, :115-121) — when the Max cell itself advances to a
    shorter span, Max.End() shrinks with it even if another live cell now
    has a larger end (quirk-parity with the 4.x iterator)."""
    n = len(sub)
    idx = [0] * n
    cur = [sub[i][0] for i in range(n)]
    total_len = sum(e - s for s, e in cur)
    maxc = 0  # InitList adjusts cells in query order; strict > to replace
    for i in range(1, n):
        if cur[i][1] > cur[maxc][1]:
            maxc = i
    out: list[tuple[int, int]] = []
    while True:
        mn = min(range(n), key=lambda i: (cur[i][0], cur[i][1], i))
        if cur[maxc][1] - cur[mn][0] - total_len <= slop:
            out.append((cur[mn][0], cur[maxc][1]))
        idx[mn] += 1
        if idx[mn] >= len(sub[mn]):
            break
        total_len -= cur[mn][1] - cur[mn][0]
        cur[mn] = sub[mn][idx[mn]]
        total_len += cur[mn][1] - cur[mn][0]
        if cur[mn][1] > cur[maxc][1]:
            maxc = mn
    return out


class SpanEvaluator:
    """Evaluate a span query against one segment (positions index required)."""

    def __init__(self, reader, global_stats: dict):
        self.reader = reader
        self.stats = global_stats
        self.sim = BM25().bind(global_stats)

    def evaluate(self, q) -> tuple[np.ndarray, np.ndarray]:
        terms = sorted(span_terms(q))
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))
        pos_maps = {}
        cand: set[int] | None = None
        for t in terms:
            pos_maps[t] = _positions_by_doc(self.reader, t)
        # candidate docs: union for OR-rooted trees, pruned inside enumerate
        cand = set()
        for t in terms:
            cand |= set(pos_maps[t].keys())
        payload_of = (
            self.reader.position_payloads
            if getattr(self.reader, "has_payloads", False)
            else None
        )
        pay_root = isinstance(q, (PayloadTermQuery, PayloadNearQuery))
        docs_out, freqs_out, factors = [], [], []
        for doc in sorted(cand):
            spans = enumerate_spans(q, pos_maps, doc, payload_of)
            if not spans:
                continue
            freq = np.float32(0.0)
            for s, e in spans:
                freq = np.float32(freq + np.float32(1.0 / ((e - s) + 1.0)))
            docs_out.append(doc)
            freqs_out.append(float(freq))
            if pay_root:
                pay = payload_of(doc) if payload_of is not None else np.empty(0, np.float32)
                vals: list[float] = []
                for s, e in spans:
                    vals.extend(_span_payload_seq(pay, s, e))
                if vals:
                    agg = {"avg": lambda v: sum(v) / len(v), "min": min, "max": max}[q.func]
                    factors.append(float(np.float32(agg(vals))))
                else:  # PayloadFunction.DocScore: no payloads seen -> 1.0
                    factors.append(1.0)
        if not docs_out:
            return empty
        docs = np.array(docs_out, dtype=np.int64)
        freqs = np.array(freqs_out, dtype=np.float32)
        if pay_root and not q.include_span_score:
            # payload-only scoring mode (PayloadTermQuery.PayloadTermWeight
            # with includeSpanScore=false): score = payload factor * boost
            scores = (np.array(factors, dtype=np.float32) * np.float32(q.boost)).astype(np.float32)
            return docs, scores
        w = self.sim.weight([t for t in terms if self.stats["df"].get(t, 0) > 0], q.boost)
        scores = self.sim.score(w, freqs, docs, self.reader)
        if pay_root:  # span score × payload factor (PayloadTermQuery.cs:141)
            scores = (scores * np.array(factors, dtype=np.float32)).astype(np.float32)
        return docs, scores


def span_search(searcher, q, k: int = 10) -> list[tuple[int, float]]:
    """Top-k span search over a Searcher (actor-pool or in-process: the
    per-segment evaluation runs inside the segment groups)."""
    from .search import merge_top_docs

    q = rewrite_span_multiterm(searcher, q)
    terms = sorted(span_terms(q))
    df = searcher._stats_for_terms(terms, q.field)
    stats = {"max_doc": searcher.index.max_doc, "sum_ttf": searcher.index.sum_ttf, "df": df}
    per_seg = [hits for part in searcher._call("span_partial", q, stats, k) for hits in part]
    return merge_top_docs(per_seg, k)
