"""Search serving: actor-pool segment readers + driver-side TopDocs merge.

Reference flow (SURVEY.md §3.3): open point-in-time view -> ONE global stats
pass (idf/avgdl are index-global even though scoring is per-segment,
/root/reference/src/Lucene.Net.Core/Search/IndexSearcher.cs:1001-1013) ->
per-leaf scorers -> TopDocs.Merge with (score desc, docID asc) tie-break
(/root/reference/src/Lucene.Net.Core/Search/TopDocs.cs:251-320,
 /root/reference/src/Lucene.Net.Core/Search/HitQueue.cs:78-88).

Here: ``Searcher`` is the one driver for every layout. It owns the rewrite
(fuzzy leaves expand index-wide, at any depth), the stats pass, the fan-out
(``_call``) and the top-k merge, over a list of shards that answer one
protocol (term_dfs / term_stats / expand / top_k / top_k_many / count). The
stats calls are keyed by field, as Lucene's TermStatistics are:
term_stats({field: [terms]}) -> {field: {term: (df, ttf)}}, and term_dfs()
-> {field: Arrow IPC (term, df)}, or None for a merged reader. The shards:
  segmented   _SegmentGroup over segment dirs, in-process or as a
              SegmentGroupActor (term dict in RAM, postings mmap'd; loaded
              once per actor, reused across queries)
  merged      one in-process _SegmentGroup over a MergedIndexReader, or over
              a _ShardedMergedReader for range actors (pipelines/merge.py)
  multi-field _MultiFieldGroup per segment slice, one _SegmentGroup per
              field (pipelines/multifield.py)
The driver broadcasts (query, global stats, k), shards return top-k, the
driver heap-merges. For batch evaluation of a query SET, `batch_search`
amortizes one round-trip over many queries and one stats pass over their
terms; each group then scores the batch at once per reader
(``scorer.top_k_batch``: every distinct term scored once, the dense flat
ORs summed in a shared bucket table of bounded size), with the hits of one
query at a time.

At cluster scale the actor pool is sized to nodes x cores and each actor owns
a disjoint group of segments. Global df comes from a per-field term table
the driver gathers once from the groups' term dicts, so a point query is one
fan-out; merged layouts, whose readers keep no whole term dict, gather df
from the shards per query instead.

The table also records which groups hold each term, so search, count and
scored_docs skip the groups where the rewritten query cannot match
(``scorer.can_match``: a missing required term, or no optional term
present) — BooleanWeight's null scorer and Elasticsearch's can_match phase,
decided on the driver with no extra round trip. A query no group can match
returns no hits without a fan-out; a skipped group would have returned
none, so results are unchanged. ``Searcher.fanout`` counts the shards
called and skipped. Layouts without a table reach every shard.
"""

from __future__ import annotations

import functools
import heapq
import os
import time
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..query import BooleanClause, BooleanQuery, FuzzyQuery, Query, TermQuery
from ..state.index import IndexMeta
from ..state.segment import SegmentReader
from .scorer import (
    SegmentScorer,
    can_match,
    expand_multiterm,
    map_leaves,
    query_field_terms,
    query_fields,
    query_terms,
    top_hits,
    top_k_batch,
    top_k_order,
)


def _sort_key_fn(sort_fields):
    """Tuple sort key honoring per-field descending flags (strings too)."""

    class _NegStr(str):
        def __lt__(self, other):  # noqa: D105
            return str.__gt__(self, other)

    def key(row):
        key_vals, gid = row
        out = []
        for (f, desc), v in zip(sort_fields, key_vals):
            if isinstance(v, (int, float, np.number)) and not isinstance(v, bool):
                out.append(-v if desc else v)
            else:
                out.append(_NegStr(v) if desc else v)
        out.append(gid)
        return tuple(out)

    return key


class TimeExceededError(Exception):
    """TimeLimitingCollector.TimeExceededException analog: carries the hits
    collected before the budget ran out (reference
    Search/TimeLimitingCollector.cs; greedy mode returns them instead)."""

    def __init__(self, partial: list):
        super().__init__(f"time limit exceeded after {len(partial)} hits")
        self.partial = partial


class _SegmentGroup:
    """In-process group of segments (shared by local searcher and actors).

    ``field`` is the one index field the segments were built over; the
    stats calls are keyed by it, so every shard answers the same
    (field, term) protocol. ``deleted`` is the index-global tombstone array
    (liveDocs analog); each reader's local slice is computed once here. At
    cluster scale the array ships once per actor at construction (or per
    refresh), not per query.
    """

    def __init__(self, segments: list, field: str, deleted: list[int] | None = None):
        """``segments``: segment directories, or readers already open (a
        merged index is one group over its MergedIndexReader)."""
        self.readers = [SegmentReader(d) if isinstance(d, str) else d for d in segments]
        self.field = field
        dels = np.asarray(deleted if deleted is not None else [], dtype=np.int64)
        self.deleted_local = []
        for r in self.readers:
            lo, hi = r.doc_base, r.doc_base + r.doc_count
            sel = dels[(dels >= lo) & (dels < hi)] - lo
            self.deleted_local.append(sel)

    def term_stats(self, wanted: dict[str, list[str]]) -> dict[str, dict[str, tuple[int, int]]]:
        """{field: {term: (df, ttf)}} summed over this group's readers, for
        the wanted terms of this group's field (absent terms: (0, 0))."""
        if self.field not in wanted:
            return {}
        terms = wanted[self.field]
        stats = np.zeros((len(terms), 2), dtype=np.int64)
        for r in self.readers:
            if hasattr(r, "prefetch"):  # range-sharded merged reader: one
                r.prefetch(terms)  # round trip per covering actor
            stats += np.array([r.term_stats(t) for t in terms], dtype=np.int64).reshape(-1, 2)
        return {self.field: {t: tuple(st) for t, st in zip(terms, stats.tolist())}}

    def term_dfs(self) -> dict[str, bytes] | None:
        """{field: (term, df) of every term in this group's segments}, sorted,
        df summed over the segments (deleted docs included, as in
        term_stats); None unless every reader is a SegmentReader, since a
        merged reader is built never to hold its whole term dict. Sent as an
        Arrow IPC stream: plain bytes cross the actor boundary without Ray's
        Arrow serializer, whose first use in a fresh actor took ~0.7 s (1 CPU)."""
        if not all(isinstance(r, SegmentReader) for r in self.readers):
            return None
        t, _ = _sum_df([pa.table({"term": r.term_column, "df": r.df_array.astype(np.int64)}) for r in self.readers])
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, t.schema) as w:
            w.write_table(t)
        return {self.field: sink.getvalue().to_pybytes()}

    def expand(self, q: Query) -> list[tuple[str, float]]:
        seen: dict[str, float] = {}
        for r in self.readers:
            for t, b in expand_multiterm(r, q):
                seen.setdefault(t, b)
        return sorted(seen.items())

    def top_k(
        self, q: Query, stats: dict, k: int, search_after=None, budget: dict | None = None
    ) -> list[tuple[int, float]]:
        """budget: {"time_limit_s": float|None, "early_docs": int|None,
        "greedy": bool} — TimeLimitingCollector / EarlyTerminating analogs.
        The time check runs between segments (our collection unit); greedy
        returns the partial hits, non-greedy raises TimeExceededError."""
        deadline = None
        early_docs = None
        greedy = False
        if budget:
            if budget.get("time_limit_s") is not None:
                deadline = time.monotonic() + budget["time_limit_s"]
            early_docs = budget.get("early_docs")
            greedy = bool(budget.get("greedy"))
        merged: list[tuple[int, float]] = []
        for r, dels in zip(self.readers, self.deleted_local):
            if deadline is not None and time.monotonic() > deadline:
                merged.sort(key=lambda h: (-h[1], h[0]))
                if greedy:
                    return merged[:k]
                raise TimeExceededError(merged[:k])
            if early_docs is not None:
                merged.extend(
                    self._early_top_k(r, dels, q, stats, k, search_after, early_docs)
                )
            else:
                merged.extend(
                    SegmentScorer(r, stats).top_k(q, k, search_after, exclude_local=dels)
                )
        merged.sort(key=lambda h: (-h[1], h[0]))
        return merged[:k]

    @staticmethod
    def _early_top_k(r, dels, q, stats, k, search_after, early_docs):
        """EarlyTerminatingSortingCollector semantics: per segment, only the
        FIRST ``early_docs`` matching docs (docID order) are collected."""
        scorer = SegmentScorer(r, stats)
        docs, scores = scorer.evaluate(q)
        if dels.size and docs.size:
            keep = ~np.isin(docs, dels, assume_unique=True)
            docs, scores = docs[keep], scores[keep]
        return top_hits(docs[:early_docs], scores[:early_docs], k, search_after, r.doc_base)

    def top_k_many(self, queries: list[Query], stats: dict, k: int) -> list[list[tuple[int, float]]]:
        """top_k of many queries under one stats dict in ONE actor
        round-trip — the bulk-serving path's amortization of per-call
        overhead. Each reader scores them as one batch (scorer.top_k_batch:
        each distinct term scored once, one bucket table for the dense flat
        ORs); the per-reader hits of each query merge as in top_k, so
        the results are top_k's."""
        merged: list[list[tuple[int, float]]] = [[] for _ in queries]
        for r, dels in zip(self.readers, self.deleted_local):
            for hits, seg_hits in zip(merged, top_k_batch(r, stats, queries, k, dels)):
                hits.extend(seg_hits)
        for hits in merged:
            hits.sort(key=lambda h: (-h[1], h[0]))
        return [hits[:k] for hits in merged]

    def count(self, q: Query, stats: dict) -> int:
        return sum(int(docs.size) for _r, docs, _s in self._matching(q, stats))

    # --- collector partials (facet / sorted / grouping run on the actors;
    # the driver only merges per-group summaries, never raw matches) --------
    def _matching(self, q: Query, stats: dict):
        for r, dels in zip(self.readers, self.deleted_local):
            docs, scores = SegmentScorer(r, stats).evaluate(q)
            if dels.size and docs.size:
                keep = ~np.isin(docs, dels, assume_unique=True)
                docs, scores = docs[keep], scores[keep]
            if docs.size:
                yield r, docs, scores

    def facet_partial(self, q: Query, stats: dict, field: str) -> dict:
        out: Counter = Counter()
        for r, docs, _s in self._matching(q, stats):
            out.update(Counter(r.doc_values(field)[docs].tolist()))
        return dict(out)

    def sorted_partial(self, q: Query, stats: dict, sort_fields: list, k: int) -> list:
        """Per-segment top-k rows [(key_vals tuple, global docid)] — safe
        pre-truncation before the driver's k-way merge."""
        rows: list = []
        for r, docs, _s in self._matching(q, stats):
            vals = {f: r.doc_values(f)[docs] for f, _ in sort_fields}
            seg_rows = [
                (tuple(vals[f][i] for f, _ in sort_fields), int(docs[i]) + r.doc_base)
                for i in range(docs.size)
            ]
            seg_rows.sort(key=_sort_key_fn(sort_fields))
            rows.extend(seg_rows[:k])
        return rows

    def group_partial(
        self, q: Query, stats: dict, group_field: str, k_per_group: int
    ) -> dict:
        """{group value: per-group top hits [(score, gid)]} truncated per
        segment — associative under the driver's re-sort merge."""
        from collections import defaultdict

        groups: dict = defaultdict(list)
        for r, docs, scores in self._matching(q, stats):
            vals = r.doc_values(group_field)[docs]
            for gid, v, s in zip((docs + r.doc_base).tolist(), vals.tolist(), scores.tolist()):
                groups[v].append((float(np.float32(s)), gid))
        return {
            v: sorted(hits, key=lambda h: (-h[0], h[1]))[:k_per_group]
            for v, hits in groups.items()
        }

    def field_minmax_partial(self, fields: list) -> dict:
        """{field: (min, max)} over this shard's LIVE docs."""
        out: dict = {}
        for r, dels in zip(self.readers, self.deleted_local):
            for f in fields:
                vals = r.doc_values(f)
                if dels.size:
                    keep = np.ones(len(vals), dtype=bool)
                    keep[dels] = False
                    vals = vals[keep]
                if len(vals) == 0:
                    continue
                mn, mx = vals.min(), vals.max()
                cur = out.get(f)
                out[f] = (
                    (mn, mx) if cur is None else (min(cur[0], mn), max(cur[1], mx))
                )
        return {f: (v[0].item() if hasattr(v[0], "item") else v[0],
                    v[1].item() if hasattr(v[1], "item") else v[1])
                for f, v in out.items()}

    def sorted_partial_early(
        self, q: Query, stats: dict, sort_fields: list, k: int, ranges: dict
    ) -> tuple:
        """EarlyTerminatingSortingCollector analog
        (Index/Sorter/EarlyTerminatingSortingCollector.cs): when the index is
        range-partitioned by the leading sort field (sort_index), this group
        walks ITS readers in key order and stops once k rows are collected
        and the next reader's best possible key is strictly worse than the
        kth (ties continue — exactness over eagerness). Returns
        (rows like sorted_partial, n_segments_evaluated)."""
        field, desc = sort_fields[0]
        order = sorted(
            range(len(self.readers)),
            key=lambda i: ranges[os.path.basename(self.readers[i].seg_dir.rstrip("/"))][
                1 if desc else 0
            ],
            reverse=bool(desc),
        )
        key_fn = _sort_key_fn(sort_fields)
        rows: list = []
        n_eval = 0
        for pos, i in enumerate(order):
            r, dels = self.readers[i], self.deleted_local[i]
            docs, scores = SegmentScorer(r, stats).evaluate(q)
            if dels.size and docs.size:
                keep = ~np.isin(docs, dels, assume_unique=True)
                docs = docs[keep]
            n_eval += 1
            if docs.size:
                vals = {f: r.doc_values(f)[docs] for f, _ in sort_fields}
                seg_rows = [
                    (
                        tuple(vals[f][j] for f, _ in sort_fields),
                        int(docs[j]) + r.doc_base,
                    )
                    for j in range(docs.size)
                ]
                seg_rows.sort(key=key_fn)
                rows.extend(seg_rows[:k])
                rows.sort(key=key_fn)
                rows = rows[:k]
            if len(rows) >= k and pos + 1 < len(order):
                nxt = self.readers[order[pos + 1]]
                nb = ranges[os.path.basename(nxt.seg_dir.rstrip("/"))][1 if desc else 0]
                kth = rows[k - 1][0][0]
                worse = nb < kth if desc else nb > kth
                if worse:
                    break
        return rows, n_eval

    def group_heads_partial(
        self, q: Query, stats: dict, group_field: str, sort_fields: list
    ) -> dict:
        """{group value: (key_vals tuple, global docid)} — the best matching
        doc per group within this shard by the sort order (AllGroupHeads
        partial; associative under the driver's per-group min merge).
        Reference: Grouping/AbstractAllGroupHeadsCollector.cs:12."""
        heads: dict = {}
        key_fn = _sort_key_fn(sort_fields)
        for r, docs, _s in self._matching(q, stats):
            gvals = r.doc_values(group_field)[docs]
            cols = [r.doc_values(f)[docs] for f, _ in sort_fields]
            keys = []
            for c, (_f, desc) in zip(cols, sort_fields):
                codes = (
                    c
                    if np.issubdtype(c.dtype, np.number)
                    else np.unique(c, return_inverse=True)[1]
                )
                keys.append(-codes if desc else codes)
            gids = docs + r.doc_base
            order = np.lexsort((gids, *keys[::-1]))
            # first occurrence per group in sort order = segment-local head
            _uniq, first = np.unique(gvals[order], return_index=True)
            for j in first.tolist():
                i = int(order[j])
                row = (tuple(col[i] for col in cols), int(gids[i]))
                g = gvals[i]
                cur = heads.get(g)
                if cur is None or key_fn(row) < key_fn(cur):
                    heads[g] = row
        return heads

    def pair_partial(self, q: Query, stats: dict, field_a: str, field_b: str) -> list:
        """Distinct (field_a value, field_b value) pairs among matching docs —
        the shared partial behind DistinctValues and GroupFacet collectors
        (associative under set union on the driver)."""
        out: set = set()
        for r, docs, _s in self._matching(q, stats):
            a = r.doc_values(field_a)[docs]
            b = r.doc_values(field_b)[docs]
            ua, ca = np.unique(a, return_inverse=True)
            ub, cb = np.unique(b, return_inverse=True)
            ua, ub = ua.tolist(), ub.tolist()
            for p in np.unique(ca.astype(np.int64) * len(ub) + cb).tolist():
                out.add((ua[p // len(ub)], ub[p % len(ub)]))
        return list(out)

    def span_partial(self, q, stats: dict, k: int) -> list:
        """Per-segment span-query top-k (SpanEvaluator runs actor-side)."""
        from .spans import SpanEvaluator

        out = []
        for r, dels in zip(self.readers, self.deleted_local):
            docs, scores = SpanEvaluator(r, stats).evaluate(q)
            if dels.size and docs.size:
                keep = ~np.isin(docs, dels, assume_unique=True)
                docs, scores = docs[keep], scores[keep]
            order = top_k_order(docs, scores, k)
            out.append([(int(docs[i]) + r.doc_base, float(scores[i])) for i in order])
        return out

    def rescore_partial(
        self, q: Query, stats: dict, fields: list[str], score_fn, window: int
    ) -> list:
        """Per-segment rescore window [(gid, new_score)] for function scoring
        (score_fn ships to the actor via cloudpickle)."""
        rows: list = []
        for r, docs, scores in self._matching(q, stats):
            vals = {f: r.doc_values(f)[docs] for f in fields}
            new_scores = np.asarray(score_fn(scores, vals), dtype=np.float64)
            gids = docs + r.doc_base
            order = top_k_order(gids, new_scores, window)
            rows.extend((int(gids[i]), float(new_scores[i])) for i in order)
        return rows

    def function_partial(
        self, q: Query, stats: dict, fields: list[str], score_fn, window: int, ispec: dict
    ) -> list:
        """rescore_partial plus per-doc index-bound ValueSources (reference
        Queries/Function/ValueSources/): raw term freqs aligned to the
        candidate docs, byte315-decoded norms, global-ord lookups, and
        sub-query scores with default fill — all vectorized per segment."""
        from ..functions.norms import BYTE315_DECODE

        def _align(src_docs, src_vals, docs, default, dtype=np.float64):
            """Scatter (src_docs -> src_vals) onto the sorted candidate docs."""
            out = np.full(docs.size, default, dtype=dtype)
            if src_docs.size:
                idx = np.searchsorted(src_docs, docs)
                idx_c = np.minimum(idx, src_docs.size - 1)
                m = src_docs[idx_c] == docs
                out[m] = src_vals[idx_c[m]]
            return out

        rows: list = []
        for r, docs, scores in self._matching(q, stats):
            vals = {f: r.doc_values(f)[docs] for f in fields}
            for t in ispec.get("tf_terms", ()):
                pdocs, ptfs = r.postings(t)
                vals[f"__tf:{t}"] = _align(pdocs, ptfs, docs, 0.0)
            if ispec.get("norm"):
                vals["__norm"] = BYTE315_DECODE[r.norms[docs]].astype(np.float64)
            for fld, gvals in ispec.get("ords", {}).items():
                fv = r.doc_values(fld)[docs]
                vals[f"__ord:{fld}"] = np.searchsorted(gvals, fv).astype(np.float64)
            for qstr, (subq, substats, defval) in ispec.get("queries", {}).items():
                qdocs, qscores = SegmentScorer(r, substats).evaluate(subq)
                vals[f"__query:{qstr}"] = _align(qdocs, qscores, docs, defval)
            new_scores = np.asarray(score_fn(scores, vals), dtype=np.float64)
            gids = docs + r.doc_base
            order = top_k_order(gids, new_scores, window)
            rows.extend((int(gids[i]), float(new_scores[i])) for i in order)
        return rows

    def scored_docs(self, q: Query, stats: dict) -> list[tuple[int, float]]:
        """All matching live (global docid, score) — for tests/oracles."""
        out = []
        for r, docs, scores in self._matching(q, stats):
            out.extend(zip((docs + r.doc_base).tolist(), scores.tolist()))
        return out

    def term_vector(self, docid: int) -> dict | None:
        """The stored term vector of a global docid, None if no segment of
        this group holds it."""
        for r in self.readers:
            if r.doc_base <= docid < r.doc_base + r.doc_count:
                return r.term_vector(docid - r.doc_base)
        return None

    def stored_values(self, field: str, docids: list[int]) -> list:
        """[(global docid, stored ``field`` value)] for the docids this group
        holds."""
        out = []
        for r in self.readers:
            local = [d - r.doc_base for d in docids if r.doc_base <= d < r.doc_base + r.doc_count]
            if local:
                vals = r.doc_values(field)
                out.extend((d + r.doc_base, vals[d]) for d in local)
        return out


def _sum_df(tables: list[pa.Table]) -> tuple[pa.Table, np.ndarray]:
    """(term, int64 df) tables, each sorted by term with unique terms -> one
    such table, df summed (UTF-8 byte order, which is Python's str order),
    and which tables hold each of its terms: a packed uint8 matrix
    (np.packbits), one row per term and one bit per table. A sort and a sum
    over each run of equal terms: on the bench index (1 CPU) it took half
    the time and memory of a hash group_by."""
    if len(tables) == 1:
        return tables[0], np.packbits(np.ones((tables[0].num_rows, 1), dtype=bool), axis=1)
    t = pa.concat_tables(tables)
    order = pc.sort_indices(t, [("term", "ascending")])
    t = t.take(order)
    source = np.repeat(np.arange(len(tables)), [x.num_rows for x in tables])[order.to_numpy()]
    term = t.column("term").combine_chunks()
    first = np.ones(len(term), dtype=bool)  # first row of each term's run
    first[1:] = pc.not_equal(term[1:], term[:-1]).to_numpy(zero_copy_only=False)
    starts = np.flatnonzero(first)
    df = np.add.reduceat(t.column("df").to_numpy(), starts)
    present = np.zeros((starts.size, len(tables)), dtype=bool)
    present[np.cumsum(first) - 1, source] = True
    return pa.table({"term": term.take(starts), "df": df}), np.packbits(present, axis=1)


def _find(keys: np.ndarray, terms: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The row of each of ``terms`` in the sorted, non-empty ``keys``, and
    whether the term is at that row. Searching all keys but the last keeps
    every row in range."""
    want = np.asarray(terms, dtype=object)
    i = np.searchsorted(keys[:-1], want)
    return i, keys[i] == want


# Serving actors restart after a crash and retry the calls it cut off: every
# call is read-only, and a restarted actor reloads the same immutable files
# from the same constructor arguments (global df stays on the driver, so
# nothing has to be sent to it again).
SERVING_ACTOR_OPTIONS = {"max_restarts": 3, "max_task_retries": 3}

SegmentGroupActor = ray.remote(**SERVING_ACTOR_OPTIONS)(_SegmentGroup)


def merge_top_docs(per_shard: list[list[tuple[int, float]]], k: int) -> list[tuple[int, float]]:
    """TopDocs.Merge: k-way merge by (score desc, global docID asc)."""
    heap = []
    for hits in per_shard:
        for doc, score in hits:
            heap.append((-np.float32(score), doc))
    heapq.heapify(heap)
    out = []
    while heap and len(out) < k:
        ns, doc = heapq.heappop(heap)
        out.append((doc, float(np.float32(-ns))))
    return out


class QueryEvalStage:
    """Actor-pool map_batches stage: evaluate a Dataset of query strings.

    Round-2 sharded design: the stage actors hold NO index. A fixed group of
    SegmentGroupActor handles (each owning a DISJOINT segment slice — memory
    per actor = 1/G of the index) is created once and shared by every stage
    actor; each query batch is scattered to all groups in one remote call per
    group (``top_k_many``) and gathered/merged per query. This reuses the
    per-query Searcher's group topology for the bulk path, replacing the
    round-1 design that replicated the FULL index into every stage actor.
    Global df comes from each searcher's term table, loaded here, at
    dispatcher start-up, so no batch pays for it. A batch is one
    ``batch_search``: one stats dict for all its queries, and each group
    scores them together per segment (``_SegmentGroup.top_k_many``).
    """

    def __init__(
        self,
        index_dir: str,
        k: int = 10,
        group_handles: list | None = None,
        replica_sets: list[list] | None = None,
    ):
        meta = IndexMeta(index_dir)
        if replica_sets:
            # R independent group sets (each a full partition of the index);
            # batches round-robin across replicas for throughput while each
            # actor still holds only 1/G of the index
            self.searchers = [Searcher(meta, groups=g) for g in replica_sets]
        elif group_handles is not None:
            self.searchers = [Searcher(meta, groups=group_handles)]
        else:  # in-process fallback (tests / no shared actors)
            self.searchers = [Searcher(meta, use_actors=False)]
        for searcher in self.searchers:  # load the term tables now, not in a batch
            searcher._df_table  # noqa: B018
        self._rr = 0
        self.k = k

    @property
    def searcher(self):
        s = self.searchers[self._rr % len(self.searchers)]
        self._rr += 1
        return s

    def __call__(self, batch):
        from ..query import parse_query

        parsed = []
        for row in batch.to_pylist():
            try:
                parsed.append((row["query_id"], parse_query(row["query"])))
            except Exception:
                continue
        out = {"query_id": [], "rank": [], "doc_id": [], "score": []}
        if parsed:
            hits_by_name = self.searcher.batch_search(
                [(str(qid), q) for qid, q in parsed], k=self.k
            )
            for qid, _q in parsed:
                for rank, (doc, score) in enumerate(hits_by_name[str(qid)], 1):
                    out["query_id"].append(qid)
                    out["rank"].append(rank)
                    out["doc_id"].append(doc)
                    out["score"].append(float(score))
        return pa.table(
            {
                "query_id": pa.array(out["query_id"], type=pa.int64()),
                "rank": pa.array(out["rank"], type=pa.int64()),
                "doc_id": pa.array(out["doc_id"], type=pa.int64()),
                "score": pa.array(out["score"], type=pa.float64()),
            }
        )


def evaluate_query_dataset(
    index_dir: str,
    queries_ds,
    *,
    k: int = 10,
    concurrency=(1, 8),
    batch_size: int = 64,
    num_groups: int = 8,
    group_replicas: int = 1,
    share_groups: bool = True,
):
    """queries Dataset (query_id, query) -> hits Dataset (query_id, rank, doc_id, score).

    With share_groups (default) the index lives in shared segment-group
    actors (1/num_groups of the index each); the map_batches actors are
    lightweight dispatchers, so index size is bounded by a worker's share,
    not replicated per dispatcher. ``group_replicas`` adds independent group
    sets batches round-robin over — use when group actors (not dispatchers
    or cores) are the bottleneck; per-actor memory stays 1/num_groups.
    Measured on the 200k bench index (32 cpus): G=8/R=1 119 QPS vs 102 for
    full per-dispatcher replication at 8x the memory; R>1 oversubscribes
    this box and loses (85/46 QPS at R=2/3) — raise R only with the cores
    to back it."""
    fn_kwargs = {"index_dir": index_dir, "k": k}
    if share_groups:
        meta = IndexMeta(index_dir)
        sets = [
            Searcher(meta, num_actors=num_groups, use_actors=True).groups
            for _ in range(max(1, group_replicas))
        ]
        if len(sets) == 1:
            fn_kwargs["group_handles"] = sets[0]
        else:
            fn_kwargs["replica_sets"] = sets
    return queries_ds.map_batches(
        QueryEvalStage,
        fn_constructor_kwargs=fn_kwargs,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


class Searcher:
    """IndexSearcher analog and the one serving driver: it rewrites a query
    once against the whole index, gathers its statistics once, fans it out
    to the shards where it can match (all of them without a term table) and
    merges their top-k. A shard answers term_dfs / term_stats / expand /
    top_k / top_k_many / count; it is a ``_SegmentGroup`` over segments or a
    merged reader, a multi-field group, or the actor handle of one.
    ``fanout`` counts the shards each fan-out called and skipped.
    use_actors=False runs in-process (tests)."""

    def __init__(
        self,
        index: IndexMeta | str,
        num_actors: int = 4,
        use_actors: bool = True,
        groups: list | None = None,
    ):
        """``groups`` adopts EXISTING shards instead of creating them (shared
        topology — e.g. the bulk-eval dispatchers all talk to one fixed
        SegmentGroupActor set); they are actor handles unless use_actors is
        False."""
        self.index = index if isinstance(index, IndexMeta) else IndexMeta(index)
        self.field = self.index.manifest.get("content_column", "content")
        self.fields = [self.field]
        self.use_actors = use_actors
        if groups is None:
            from ..state.deletes import load_deleted

            seg_dirs = self.index.segment_dirs
            n = max(1, min(num_actors, len(seg_dirs)))
            deleted = load_deleted(self.index.index_dir).tolist()
            shard = SegmentGroupActor.remote if use_actors else _SegmentGroup
            groups = [shard(seg_dirs[i::n], self.field, deleted) for i in range(n)]
        self.groups = groups
        self.fanout: Counter = Counter()

    def _call(self, method: str, *args, shards: list[int] | None = None) -> list:
        """One fan-out: ``method`` with ``args`` on the shards at the
        ``shards`` indexes (default: every shard), results in that order;
        ``fanout`` counts the shards called and skipped. The only place that
        tells an actor handle from an in-process shard."""
        targets = self.groups if shards is None else [self.groups[i] for i in shards]
        self.fanout["shards_called"] += len(targets)
        self.fanout["shards_skipped"] += len(self.groups) - len(targets)
        if not self.use_actors:
            return [getattr(g, method)(*args) for g in targets]
        try:
            return ray.get([getattr(g, method).remote(*args) for g in targets])
        except ray.exceptions.RayTaskError as e:
            if isinstance(e.cause, TimeExceededError):
                raise e.cause from None
            raise

    # --- the rewrite and the global stats pass ----------------------------
    def expand(self, q: Query) -> list[tuple[str, float]]:
        """Index-wide expansion of a multi-term query: the union of the
        shards' expansions (first-seen boost wins), sorted by term."""
        seen: dict[str, float] = {}
        for part in self._call("expand", q):
            for t, b in part:
                seen.setdefault(t, b)
        return sorted(seen.items())

    def _rewrite_and_stats(self, q: Query) -> tuple[Query, dict]:
        """The rewritten query and its stats pass."""
        q = self._rewrite(q)
        return q, self._query_stats(q)

    def _rewrite(self, q: Query) -> Query:
        """Searcher-level TopTermsRewrite: every FuzzyQuery leaf, at any
        depth, becomes a SHOULD BooleanQuery of its best index-wide
        expansions, so every shard scores one term set with real df."""

        def fuzzy(node: Query) -> Query:
            if not isinstance(node, FuzzyQuery):
                return node
            top = sorted(self.expand(node), key=lambda tb: (-tb[1], tb[0]))[: node.max_expansions]
            return BooleanQuery(
                boost=node.boost,
                clauses=tuple(
                    BooleanClause(TermQuery(field=node.field, term=t, boost=b), "SHOULD")
                    for t, b in top
                ),
            )

        return map_leaves(q, fuzzy)

    def _field(self, field: str | None) -> str:
        """The index field a stats request names. On a single-field index,
        None and the parser's default name 'content' mean the column the
        index was built over; a field the index lacks raises ValueError, so
        a parsed 'title:foo' cannot silently search the content postings."""
        if field in self.fields:
            return field
        if field in (None, "content") and len(self.fields) == 1:
            return self.field
        raise ValueError(
            f"field {field!r} is not in this index, which has {self.fields} "
            "(use MultiFieldSearcher for multi-field docs)"
        )

    def _query_stats(self, q: Query) -> dict:
        for f in sorted(query_fields(q)):
            self._field(f)
        df = self._gather_df(sorted(query_terms(q)))
        return {"max_doc": self.index.max_doc, "sum_ttf": self.index.sum_ttf, "df": df}

    @functools.cached_property
    def _df_table(self) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] | None:
        """The index's global term table, gathered with ONE term_dfs fan-out
        on first use: {field: (sorted terms as an object array, their int64
        df, presence)}, the df the same sums term_stats returns; presence is
        _sum_df's packed bits, bit g set where shard g holds the term. None
        when a shard keeps no table (merged readers). Driver memory is
        O(vocabulary), about the term dicts of one group actor."""
        parts = self._call("term_dfs")
        if any(p is None for p in parts):
            return None
        table = {}
        for f in parts[0]:
            t, present = _sum_df([pa.ipc.open_stream(p[f]).read_all() for p in parts])
            table[f] = t.column("term").to_numpy(), t.column("df").to_numpy(), present
        return table

    def _can_match_shards(self, q: Query) -> list[int] | None:
        """Indexes of the shards where ``q`` (rewritten) can match, by
        can_match over the term table's presence bits; None (every shard)
        when there is no table."""
        if self._df_table is None:
            return None
        n = len(self.groups)
        by_field: dict[str, list[str]] = {}
        for f, t in query_field_terms(q):
            by_field.setdefault(self._field(f), []).append(t)
        held = {}
        for f, terms in by_field.items():
            keys, _dfs, present = self._df_table[f]
            bits = np.zeros((len(terms), n), dtype=bool)
            if keys.size:
                i, hit = _find(keys, terms)
                bits = np.unpackbits(present[i], axis=1, count=n).astype(bool) & hit[:, None]
            held.update(zip(((f, t) for t in terms), bits))
        ok = can_match(q, lambda f, t: held[(self._field(f), t)])
        return np.flatnonzero(np.broadcast_to(ok, n)).tolist()

    def _term_stats(self, wanted: dict[str, list[str]]) -> dict[str, dict[str, tuple[int, int]]]:
        """Global {field: {term: (df, ttf)}} of the wanted (field, term)
        pairs (absent: (0, 0)), summed over ONE term_stats fan-out."""
        out = {f: dict.fromkeys(terms, (0, 0)) for f, terms in wanted.items()}
        for part in self._call("term_stats", wanted):
            for f, stats in part.items():
                for t, (d, tt) in stats.items():
                    d0, tt0 = out[f][t]
                    out[f][t] = (d0 + d, tt0 + tt)
        return out

    def _gather_df(self, terms: list[str], field: str | None = None) -> dict[str, int]:
        """Global df of ``terms`` in ``field`` (absent: 0), binary-searched
        in the term table; without one, summed over a term_stats fan-out."""
        field = self._field(field)
        if not terms:
            return {}
        if self._df_table is None:
            return {t: d for t, (d, _tt) in self._term_stats({field: terms})[field].items()}
        keys, dfs, _present = self._df_table[field]
        if not keys.size:
            return dict.fromkeys(terms, 0)
        i, hit = _find(keys, terms)
        return dict(zip(terms, np.where(hit, dfs[i], 0).tolist()))

    def _stats_for_terms(self, terms: list[str], field: str | None = None) -> dict[str, int]:
        """_gather_df under the collectors' name (MLT/CommonTerms/suggest/highlight)."""
        return self._gather_df(terms, field)

    def search(
        self,
        q: Query,
        k: int = 10,
        search_after: tuple[float, int] | None = None,
        *,
        time_limit_s: float | None = None,
        early_terminate_docs: int | None = None,
        greedy: bool = False,
    ) -> list[tuple[int, float]]:
        """time_limit_s / early_terminate_docs: per-group collection budgets
        (TimeLimitingCollector / EarlyTerminatingSortingCollector analogs).
        A non-greedy timeout raises TimeExceededError with the partial hits."""
        q, stats = self._rewrite_and_stats(q)
        budget = None
        if time_limit_s is not None or early_terminate_docs is not None:
            budget = {
                "time_limit_s": time_limit_s,
                "early_docs": early_terminate_docs,
                "greedy": greedy,
            }
        shards = self._can_match_shards(q)
        return merge_top_docs(self._call("top_k", q, stats, k, search_after, budget, shards=shards), k)

    def count(self, q: Query) -> int:
        q, stats = self._rewrite_and_stats(q)
        return sum(self._call("count", q, stats, shards=self._can_match_shards(q)))

    def scored_docs(self, q: Query) -> list[tuple[int, float]]:
        q, stats = self._rewrite_and_stats(q)
        out = [h for hits in self._call("scored_docs", q, stats, shards=self._can_match_shards(q)) for h in hits]
        out.sort(key=lambda h: h[0])
        return out

    def batch_search(self, queries: list[tuple[str, Query]], k: int = 10) -> dict[str, list[tuple[int, float]]]:
        """Evaluate many queries with ONE top_k_many round-trip per group
        (amortizes actor-call overhead over the whole batch). The batch
        shares one stats dict, gathered once for the union of its terms:
        each reader looks df up by term, so extra terms change no score, and
        the groups score each distinct term once per batch."""
        qs = [self._rewrite(q) for _name, q in queries]
        stats = self._query_stats(BooleanQuery(clauses=tuple(BooleanClause(q, "SHOULD") for q in qs)))
        per_group = self._call("top_k_many", qs, stats, k)
        return {
            name: merge_top_docs([pg[i] for pg in per_group], k)
            for i, (name, _q) in enumerate(queries)
        }
