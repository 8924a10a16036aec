"""Block-max WAND top-k pruning for term / pure-disjunction queries.

Strictly result-preserving (SURVEY.md §7.2.6): per-128-doc-block metadata
(max_tf, min_normb — codec.encode_postings) gives a true upper bound on any
doc's score inside the block (the similarity's block_bound; only BM25 has
one). The docid axis is cut into zones at the union of all terms' block
boundaries.

Round-2 scheme (the round-1 per-zone Python sweep lost to one vectorized
decode below ~5M summed df): all zone bounds are computed VECTORIZED up
front (one searchsorted per term over the zone array), zones are visited in
DESCENDING bound order, and the scan stops at the first zone whose bound is
strictly below the current k-th score — everything after it is smaller by
construction. Correctness under any visit order: the heap is totally ordered
by (score, -docid), so the final top-k is the unique global top-k under
Lucene's (score desc, docID asc) rule no matter the processing order
(TopScoreDocCollector's in-order rejection of equal scores selects exactly
this set). Bounds are rounded UP one float32 ulp before comparing, and the
stop condition is strict (<), so a zone that could contain an equal-score
smaller-docid winner is never skipped.

Blocks are decoded lazily and at most once per term (postings_block_range).
"""

from __future__ import annotations

import heapq

import numpy as np

from ..functions.similarity import Similarity
from ..state.segment import SegmentReader
from .scorer import _disjunction_sum, top_k_order


def wand_top_k(
    reader: SegmentReader,
    term_weights: list[tuple[str, np.float32]],
    similarity: Similarity,
    k: int,
    search_after: tuple[float, int] | None = None,
) -> list[tuple[int, float]]:
    """[(local docid, float32 score)] top-k of sum-of-term-scores (SHOULD sum).

    term_weights: [(term, weight)] from ``similarity`` (bound to the
    index-global stats). Results identical to exhaustive evaluation.
    """
    terms = []
    for term, w in term_weights:
        if w <= 0:
            continue
        ti = reader.term_index(term)
        if ti < 0:
            continue
        blocks = reader.blocks(ti)
        ub = similarity.block_bound(w, blocks["max_tf"], blocks["min_normb"])
        terms.append(
            {
                "ti": ti,
                "w": np.float32(w),
                "blocks": blocks,
                "last": blocks["last_doc"],
                "ub": ub.astype(np.float64),
                "cache_blk": {},  # block idx -> (docids, tfs)
            }
        )
    if not terms:
        return []

    # zone boundaries: union of all block last-docs (zone z = (lo[z], hi[z]])
    bounds = np.unique(np.concatenate([t["last"] for t in terms]))
    zone_lo = np.concatenate(([0], bounds[:-1] + 1))
    n_zones = bounds.size

    # vectorized per-zone bound: for each term, the covering block per zone
    zone_bound = np.zeros(n_zones, dtype=np.float64)
    covers = []  # per term: (block idx per zone, valid mask)
    for t in terms:
        bi = np.searchsorted(t["last"], zone_lo)
        valid = bi < t["last"].size
        zone_bound[valid] += t["ub"][bi[valid]]
        covers.append((bi, valid))
    # one-ulp-up float32 rounding: the real score is f32(f64 sum of f32 term
    # scores) and must never exceed the bound we prune against
    safe_bounds = np.nextafter(zone_bound.astype(np.float32), np.float32(np.inf))

    order = np.argsort(-safe_bounds, kind="stable")  # descending bound

    heap: list[tuple[np.float32, int]] = []  # (score, -docid) min-heap of top-k
    a_score = np.float32(search_after[0]) if search_after else None
    a_doc = (search_after[1] - reader.doc_base) if search_after else None

    # Adaptive bail-out: the zone walk is a Python loop, worth it only when
    # block-max pruning actually skips zones. After PROBE zones, count how
    # many remaining zones still bound >= the k-th score (one vectorized
    # pass); if pruning is not converging, abandon the walk and score
    # exhaustively (vectorized over full postings) — same exact result.
    # Corpora with uniform tf/norm spread (zero skip headroom) otherwise
    # turn a 100 ms query into tens of seconds at 10^7 df.
    PROBE = 256

    for zi, z in enumerate(order.tolist()):
        if len(heap) >= k and safe_bounds[z] < heap[0][0]:
            break  # every remaining zone bounds strictly lower
        if zi == PROBE and len(heap) >= k:
            remaining = np.count_nonzero(safe_bounds[order[zi:]] >= heap[0][0])
            if remaining > 4 * PROBE:
                return _exhaustive_top_k(reader, term_weights, similarity, k, search_after)
        lo = int(zone_lo[z])
        hi = int(bounds[z])
        zone_docs: list[np.ndarray] = []
        zone_scores: list[np.ndarray] = []
        for t, (bi_arr, valid) in zip(terms, covers):
            if not valid[z]:
                continue
            bi = int(bi_arr[z])
            blk = t["cache_blk"].get(bi)
            if blk is None:
                docids, tfs, _ = reader.postings_block_range(t["ti"], bi, bi + 1, t["blocks"])
                blk = (docids, tfs)
                t["cache_blk"][bi] = blk
            docids, tfs = blk
            m = (docids >= lo) & (docids <= hi)
            if not m.any():
                continue
            d = docids[m]
            s = similarity.score(t["w"], tfs[m], d, reader)
            zone_docs.append(d)
            zone_scores.append(s)
        if not zone_docs:
            continue
        if len(zone_docs) == 1:
            uniq, final = zone_docs[0], zone_scores[0]
        else:
            uniq, acc, _ = _disjunction_sum(zip(zone_docs, zone_scores))
            final = acc.astype(np.float32)
        if a_score is not None:
            keep = (final < a_score) | ((final == a_score) & (uniq > a_doc))
            uniq, final = uniq[keep], final[keep]
        if len(heap) >= k:
            # vectorized pre-filter: strict improvements, plus equal scores
            # with smaller docid (the heap's total order handles the rest)
            cand = np.flatnonzero(
                (final > heap[0][0]) | ((final == heap[0][0]) & (-uniq > heap[0][1]))
            )
        else:
            cand = np.arange(uniq.size)
        for i in cand.tolist():
            item = (np.float32(final[i]), -int(uniq[i]))
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif item > heap[0]:
                heapq.heapreplace(heap, item)

    out = [(-nd, float(s)) for s, nd in heap]
    out.sort(key=lambda h: (-h[1], h[0]))
    return out


def _exhaustive_top_k(
    reader,
    term_weights: list[tuple[str, np.float32]],
    similarity: Similarity,
    k: int,
    search_after: tuple[float, int] | None,
) -> list[tuple[int, float]]:
    """Vectorized full-decode scoring with identical float semantics to the
    zone walk (f32 term scores, f64 accumulate, f32 final)."""
    docs_l, scores_l = [], []
    for term, w in term_weights:
        if w <= 0:
            continue
        d, tf = reader.postings(term)
        if d.size == 0:
            continue
        s = similarity.score(np.float32(w), tf, d, reader)
        docs_l.append(d)
        scores_l.append(s)
    if not docs_l:
        return []
    if len(docs_l) == 1:
        uniq, final = docs_l[0], scores_l[0]
    else:
        uniq, acc, _ = _disjunction_sum(zip(docs_l, scores_l))
        final = acc.astype(np.float32)
    if search_after is not None:
        a_score = np.float32(search_after[0])
        a_doc = search_after[1] - reader.doc_base
        keep = (final < a_score) | ((final == a_score) & (uniq > a_doc))
        uniq, final = uniq[keep], final[keep]
    idx = top_k_order(uniq, final, k)
    return [(int(uniq[i]), float(final[i])) for i in idx]


def is_wand_eligible(q) -> list[tuple[str, float]] | None:
    """Return [(term, boost)] if q is a term or pure SHOULD-of-terms
    disjunction (minShouldMatch<=1, no boost nesting surprises), else None."""
    from ..query import BooleanQuery, TermQuery

    if isinstance(q, TermQuery):
        return [(q.term, q.boost)]
    if isinstance(q, BooleanQuery) and q.min_should_match <= 1 and q.boost == 1.0:
        out = []
        for c in q.clauses:
            if c.occur != "SHOULD" or not isinstance(c.query, TermQuery):
                return None
            out.append((c.query.term, c.query.boost))
        return out if out else None
    return None
