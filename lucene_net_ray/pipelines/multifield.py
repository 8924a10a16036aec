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

from ..query import (
    FuzzyQuery,
    PhraseQuery,
    PrefixQuery,
    Query,
    RegexpQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
)
from ..state.index import IndexMeta
from ..state.segment import SegmentReader
from .scorer import SegmentScorer, expand_multiterm, query_terms
from .search import merge_top_docs

_FIELD_LEAVES = (TermQuery, PrefixQuery, TermRangeQuery, WildcardQuery, FuzzyQuery, PhraseQuery, RegexpQuery)


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
        if not isinstance(q, _FIELD_LEAVES):
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
    index, so a query scatters once and gathers per-group top-k)."""

    def __init__(self, field_seg_dirs: dict[str, list[str]]):
        self.readers = {
            f: [SegmentReader(d) for d in dirs] for f, dirs in field_seg_dirs.items()
        }
        self.fields = sorted(self.readers)
        self.n_segments = len(next(iter(self.readers.values())))

    def term_stats(self, wanted: dict[str, list[str]]) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for f, terms in wanted.items():
            readers = self.readers.get(f, [])
            out[f] = {t: sum(r.term_stats(t)[0] for r in readers) for t in terms}
        return out

    def top_k(self, q, stats: dict, k: int) -> list[tuple[int, float]]:
        hits: list[tuple[int, float]] = []
        for si in range(self.n_segments):
            readers = {f: self.readers[f][si] for f in self.fields}
            hits.extend(MultiFieldSegmentScorer(readers, stats).top_k(q, k))
        hits.sort(key=lambda h: (-h[1], h[0]))
        return hits[:k]

    def count(self, q, stats: dict) -> int:
        total = 0
        for si in range(self.n_segments):
            readers = {f: self.readers[f][si] for f in self.fields}
            total += MultiFieldSegmentScorer(readers, stats).count(q)
        return total


import ray as _ray  # noqa: E402

MultiFieldGroupActor = _ray.remote(_MultiFieldGroup)


class MultiFieldSearcher:
    """Searcher over a multi-field index directory.

    use_actors=True shards the aligned per-field segment lists across
    ``num_actors`` group actors (each holds 1/G of EVERY field's index, so
    per-field docIDs stay aligned within an actor)."""

    def __init__(self, out_dir: str, num_actors: int = 4, use_actors: bool = False):
        fields_dir = os.path.join(out_dir, "fields")
        self.fields = sorted(os.listdir(fields_dir))
        self.metas = {f: IndexMeta(os.path.join(fields_dir, f)) for f in self.fields}
        seg_dirs = {f: m.segment_dirs for f, m in self.metas.items()}
        n_segs = {len(v) for v in seg_dirs.values()}
        if len(n_segs) != 1:
            raise ValueError("per-field indexes have different segment counts")
        self.n_segments = n_segs.pop()
        self.max_doc = next(iter(self.metas.values())).max_doc
        self.use_actors = use_actors
        n = max(1, min(num_actors, self.n_segments))
        slices = [list(range(self.n_segments))[i::n] for i in range(n)]
        group_dirs = [
            {f: [seg_dirs[f][si] for si in sl] for f in self.fields} for sl in slices
        ]
        if use_actors:
            self.groups = [MultiFieldGroupActor.remote(g) for g in group_dirs]
        else:
            self.groups = [_MultiFieldGroup(g) for g in group_dirs]
        self._readers = self.groups[0].readers if not use_actors and n == 1 else None

    def _stats_for(self, q: Query) -> dict:
        from ..query import BooleanQuery, PhraseQuery, TermQuery

        # collect terms per field referenced by the tree
        per_field: dict[str, set[str]] = {}

        def walk(node):
            if isinstance(node, TermQuery):
                per_field.setdefault(node.field, set()).add(node.term)
            elif isinstance(node, PhraseQuery):
                per_field.setdefault(node.field, set()).update(node.terms)
            elif isinstance(node, BooleanQuery):
                for c in node.clauses:
                    walk(c.query)
            elif hasattr(node, "query") and isinstance(getattr(node, "query"), Query):
                walk(node.query)
            elif hasattr(node, "disjuncts"):
                for d in node.disjuncts:
                    walk(d)

        walk(q)
        wanted = {f: sorted(per_field.get(f, ())) for f in self.fields}
        if self.use_actors:
            import ray

            parts = ray.get([g.term_stats.remote(wanted) for g in self.groups])
        else:
            parts = [g.term_stats(wanted) for g in self.groups]
        fields_stats = {}
        for f in self.fields:
            df: dict[str, int] = {t: 0 for t in wanted[f]}
            for p in parts:
                for t, d in p.get(f, {}).items():
                    df[t] += d
            fields_stats[f] = {
                "max_doc": self.metas[f].max_doc,
                "sum_ttf": self.metas[f].sum_ttf,
                "df": df,
            }
        return {"fields": fields_stats}

    def search(self, q: Query, k: int = 10) -> list[tuple[int, float]]:
        stats = self._stats_for(q)
        if self.use_actors:
            import ray

            per = ray.get([g.top_k.remote(q, stats, k) for g in self.groups])
        else:
            per = [g.top_k(q, stats, k) for g in self.groups]
        return merge_top_docs(per, k)

    def count(self, q: Query) -> int:
        stats = self._stats_for(q)
        if self.use_actors:
            import ray

            return sum(ray.get([g.count.remote(q, stats) for g in self.groups]))
        return sum(g.count(q, stats) for g in self.groups)
