"""Multi-field documents: per-field postings/norms/stats, field-aware scoring.

Lucene's data model is multi-field (SURVEY.md §1.1): a Term is (field, bytes),
norms and collection statistics are PER FIELD, and a BooleanQuery may mix
clauses over different fields (MultiFieldQueryParser). Scoring is per-field
independent — idf/avgdl come from the clause's field — while the boolean
algebra combines matches in the shared docID space.

Here each field gets its own index under ``{out}/fields/{field}`` built from
the SAME deterministic shard plan, so local/global docIDs line up across
fields by construction. ``MultiFieldSegmentScorer`` dispatches every leaf
clause (term/phrase/expansion) to its field's reader, stats and similarity;
the combination logic is inherited unchanged from SegmentScorer. Per-field
analyzers (PerFieldAnalyzerWrapper analog) are a dict field -> analyzer kind.
"""

from __future__ import annotations

import os

import numpy as np
import ray

from ..query import Query, TermQuery
from ..state.index import IndexMeta
from ..state.segment import SegmentReader
from .scorer import FIELD_LEAVES, SegmentScorer, query_field_terms, query_fields
from .search import SERVING_ACTOR_OPTIONS, Searcher, _SegmentGroup


def build_multi_field_index(
    input_path: str | list[str],
    out_dir: str,
    *,
    fields: tuple[str, ...],
    analyzers: dict[str, str] | None = None,
    stored_columns: tuple[str, ...] = (),
    target_rows_per_segment: int = 100_000,
    index_options: str = "freqs",
) -> dict[str, IndexMeta]:
    """One index per field from the same shard plan (aligned docIDs)."""
    from .build import build_index

    analyzers = analyzers or {}
    out = {}
    for field in fields:
        out[field] = build_index(
            input_path,
            os.path.join(out_dir, "fields", field),
            content_column=field,
            analyzer_kind=analyzers.get(field, "standard"),
            stored_columns=stored_columns,
            target_rows_per_segment=target_rows_per_segment,
            index_options=index_options,
        )
    return out


class MultiFieldSegmentScorer(SegmentScorer):
    """SegmentScorer whose leaf evaluations dispatch on the clause's field."""

    def __init__(self, readers: dict[str, SegmentReader], stats: dict):
        """stats: {"fields": {field: {max_doc, sum_ttf, df:{term:df}}}}."""
        self._readers = readers
        self._field_stats = stats["fields"]
        default_field = next(iter(readers))
        super().__init__(readers[default_field], stats["fields"][default_field])
        self._sims = {f: self.sim.bind(fs) for f, fs in self._field_stats.items()}

    def score_term(self, q):
        if self.stats["df"].get(q.term, 0) <= 0:  # absent from its field
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        return super().score_term(q)

    def evaluate(self, q: Query):
        if not isinstance(q, FIELD_LEAVES):
            return super().evaluate(q)
        if q.field not in self._readers:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        # focus the inherited leaf logic on this field's reader, stats and
        # similarity (bound to the field's avgdl)
        saved = (self.reader, self.stats, self.sim)
        self.reader, self.stats, self.sim = (
            self._readers[q.field], self._field_stats[q.field], self._sims[q.field]
        )
        try:
            return super().evaluate(q)
        finally:
            self.reader, self.stats, self.sim = saved

    def _cost(self, q):
        if isinstance(q, TermQuery):
            fs = self._field_stats.get(q.field)
            return fs["df"].get(q.term, 0) if fs else 0
        return self.stats["max_doc"]

    def top_k(self, q, k, search_after=None, mode="auto"):
        # WAND binds block metadata to ONE reader; field-dispatching queries
        # must stay on the exhaustive path (still vectorized per field)
        return super().top_k(q, k, search_after, mode="exhaustive")


class _MultiFieldGroup:
    """One segment slice's readers for ALL fields (shared by the in-process
    searcher and the actor pool — each actor holds 1/G of every per-field
    index, so a query scatters once and gathers per-group top-k). Each
    field's segments form one ``_SegmentGroup``, and the stats calls are the
    union of theirs; a segment's scorer sees every field's reader of that
    segment."""

    def __init__(self, field_seg_dirs: dict[str, list[str]]):
        self.by_field = {f: _SegmentGroup(dirs, f) for f, dirs in field_seg_dirs.items()}
        n_segments = len(next(iter(field_seg_dirs.values())))
        self.segments = [
            {f: g.readers[si] for f, g in sorted(self.by_field.items())} for si in range(n_segments)
        ]

    def term_dfs(self) -> dict[str, bytes]:
        return {f: b for g in self.by_field.values() for f, b in g.term_dfs().items()}

    def term_stats(self, wanted: dict[str, list[str]]) -> dict[str, dict[str, tuple[int, int]]]:
        return {f: st for g in self.by_field.values() for f, st in g.term_stats(wanted).items()}

    def expand(self, q) -> list[tuple[str, float]]:
        g = self.by_field.get(q.field)
        return g.expand(q) if g is not None else []

    def top_k(self, q, stats: dict, k: int, search_after=None, budget=None) -> list[tuple[int, float]]:
        if budget:
            raise ValueError("collection budgets need a single-field index")
        hits: list[tuple[int, float]] = []
        for readers in self.segments:
            hits.extend(MultiFieldSegmentScorer(readers, stats).top_k(q, k, search_after))
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:k]

    def top_k_many(self, queries: list[Query], stats: dict, k: int) -> list[list[tuple[int, float]]]:
        return [self.top_k(q, stats, k) for q in queries]

    def count(self, q, stats: dict) -> int:
        return sum(MultiFieldSegmentScorer(readers, stats).count(q) for readers in self.segments)


MultiFieldGroupActor = ray.remote(**SERVING_ACTOR_OPTIONS)(_MultiFieldGroup)


class MultiFieldSearcher(Searcher):
    """The Searcher over a multi-field index directory: it inherits the
    rewrite, search and count, and assembles statistics per field.

    use_actors=True shards the aligned per-field segment lists across
    ``num_actors`` group actors (each holds 1/G of EVERY field's index, so
    per-field docIDs stay aligned within an actor)."""

    def __init__(self, out_dir: str, num_actors: int = 4, use_actors: bool = False):
        fields_dir = os.path.join(out_dir, "fields")
        fields = sorted(os.listdir(fields_dir))
        self.metas = {f: IndexMeta(os.path.join(fields_dir, f)) for f in fields}
        seg_dirs = {f: m.segment_dirs for f, m in self.metas.items()}
        n_segs = {len(v) for v in seg_dirs.values()}
        if len(n_segs) != 1:
            raise ValueError("per-field indexes have different segment counts")
        n_segments = n_segs.pop()
        n = max(1, min(num_actors, n_segments))
        slices = [list(range(n_segments))[i::n] for i in range(n)]
        group_dirs = [
            {f: [seg_dirs[f][si] for si in sl] for f in fields} for sl in slices
        ]
        shard = MultiFieldGroupActor.remote if use_actors else _MultiFieldGroup
        groups = [shard(g) for g in group_dirs]
        super().__init__(self.metas[fields[0]], use_actors=use_actors, groups=groups)
        self.fields = fields

    def _query_stats(self, q: Query) -> dict:
        """{"fields": {field: {max_doc, sum_ttf, df}}}, df of the tree's
        (field, term) pairs from the driver's term table; a field the index
        lacks raises ValueError, as in Searcher."""
        for f in query_fields(q):
            self._field(f)
        wanted: dict[str, set[str]] = {f: set() for f in self.fields}
        for f, t in query_field_terms(q):
            wanted[self._field(f)].add(t)
        return {
            "fields": {
                f: {"max_doc": m.max_doc, "sum_ttf": m.sum_ttf, "df": self._gather_df(sorted(wanted[f]), f)}
                for f, m in self.metas.items()
            }
        }
