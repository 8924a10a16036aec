"""Multi-field documents: per-field postings/norms/stats + mixed-field queries."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_net_ray.oracle import OracleIndex
from lucene_net_ray.pipelines.multifield import (
    MultiFieldSearcher,
    build_multi_field_index,
)
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.query import BooleanClause, BooleanQuery, PhraseQuery, TermQuery, parse_query

TITLES = [
    "alpha release notes",
    "beta quickstart guide",
    "alpha api reference",
    "gamma troubleshooting",
    "beta release checklist",
]
BODIES = [
    "the alpha build ships tokenizer fixes and faster merge",
    "install beta then run the quickstart sample",
    "api reference for the query parser and scorer",
    "troubleshooting merge failures and slow builds",
    "checklist covers release sign off and alpha regressions",
]


@pytest.fixture(scope="module")
def mf(tmp_path_factory):
    src = tmp_path_factory.mktemp("mf_src")
    out = str(tmp_path_factory.mktemp("mf_idx"))
    pq.write_table(
        pa.table({"title": TITLES, "body": BODIES}),
        str(src / "docs.parquet"),
        row_group_size=3,
    )
    build_multi_field_index(
        str(src), out, fields=("title", "body"), target_rows_per_segment=3,
        index_options="positions",
    )
    return (
        MultiFieldSearcher(out),
        OracleIndex(TITLES),
        OracleIndex(BODIES),
        out,
    )


def test_single_field_queries_match_field_oracles(mf):
    searcher, title_oracle, body_oracle, out = mf
    q = TermQuery(field="title", term="alpha")
    hits = searcher.search(q, k=10)
    expected = title_oracle.top_k(TermQuery(term="alpha"), 10)
    assert [d for d, _ in hits] == [d for d, _ in expected]
    for (d1, s1), (d2, s2) in zip(hits, expected):
        assert np.float32(s1) == np.float32(s2)

    q = TermQuery(field="body", term="merge")
    hits = searcher.search(q, k=10)
    expected = body_oracle.top_k(TermQuery(term="merge"), 10)
    assert [d for d, _ in hits] == [d for d, _ in expected]
    for (d1, s1), (d2, s2) in zip(hits, expected):
        assert np.float32(s1) == np.float32(s2)


def test_field_stats_are_independent(mf):
    searcher, title_oracle, body_oracle, _ = mf
    # 'alpha' df: titles 2, bodies 2 but avgdl/N differ per field -> scores differ
    ht = searcher.search(TermQuery(field="title", term="alpha"), k=1)
    hb = searcher.search(TermQuery(field="body", term="alpha"), k=1)
    assert ht and hb
    assert np.float32(ht[0][1]) != np.float32(hb[0][1])


def test_mixed_field_conjunction(mf):
    searcher, title_oracle, body_oracle, _ = mf
    q = BooleanQuery(
        clauses=(
            BooleanClause(TermQuery(field="title", term="beta"), "MUST"),
            BooleanClause(TermQuery(field="body", term="quickstart"), "MUST"),
        )
    )
    hits = searcher.search(q, k=10)
    t_match = {d: title_oracle._term_score(d, "beta", 1.0) for d in range(5)}
    b_match = {d: body_oracle._term_score(d, "quickstart", 1.0) for d in range(5)}
    expected = []
    for d in range(5):
        if t_match[d] is not None and b_match[d] is not None:
            # conjunction: f32 sum in global-df cost order (df equal -> clause order)
            expected.append((d, float(np.float32(t_match[d] + b_match[d]))))
    expected.sort(key=lambda h: (-h[1], h[0]))
    assert [(d, np.float32(s)) for d, s in hits] == [(d, np.float32(s)) for d, s in expected]
    assert searcher.count(q) == len(expected)


def test_mixed_field_parser_and_dismax(mf):
    searcher, *_ = mf
    q = parse_query("title:alpha body:merge")
    hits = searcher.search(q, k=10)
    assert hits  # SHOULD across fields unions
    ids = {d for d, _ in hits}
    assert 0 in ids  # alpha title + merge body


def test_field_phrase(mf):
    searcher, _, body_oracle, _ = mf
    q = PhraseQuery(field="body", terms=("query", "parser"))
    hits = searcher.search(q, k=10)
    expected = body_oracle.top_k(PhraseQuery(terms=("query", "parser")), 10)
    assert [d for d, _ in hits] == [d for d, _ in expected] == [2]


def test_field_qualified_phrase_parses(mf):
    """``body:"query parser"`` is one phrase on body (classic syntax), not
    body:query OR a default-field parser."""
    searcher, *_ = mf
    q = parse_query('body:"query parser"~1')
    assert q == PhraseQuery(field="body", terms=("query", "parser"), slop=1, positions=(0, 1))
    assert [d for d, _ in searcher.search(q, k=10)] == [2]


def test_unknown_field_raises(mf):
    """A typo in a query's field name is an error, not an empty answer."""
    searcher, *_ = mf
    for q in (TermQuery(field="nosuch", term="alpha"), parse_query("title:alpha nosuch:alpha")):
        with pytest.raises(ValueError, match="nosuch"):
            searcher.search(q, k=5)


def test_per_field_analyzers(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(
        pa.table({"code": ["FooBar BAZ", "foobar baz"], "text": ["FooBar BAZ", "foobar baz"]}),
        str(src / "d.parquet"),
    )
    out = str(tmp_path / "idx")
    build_multi_field_index(
        str(src), out, fields=("code", "text"),
        analyzers={"code": "whitespace", "text": "standard"},
        target_rows_per_segment=10,
    )
    s = MultiFieldSearcher(out)
    # whitespace analyzer is case-sensitive: 'FooBar' only in doc 0
    assert {d for d, _ in s.search(TermQuery(field="code", term="FooBar"), k=5)} == {0}
    assert s.search(TermQuery(field="code", term="foobar"), k=5)[0][0] == 1
    # standard analyzer lowercases: both docs match 'foobar'
    assert {d for d, _ in s.search(TermQuery(field="text", term="foobar"), k=5)} == {0, 1}


def test_parse_multi_field_expansion(mf):
    searcher, *_ = mf
    from lucene_net_ray.query import parse_multi_field

    # each MUST clause may match in EITHER field:
    # alpha: titles {0,2} + bodies {0,4}; release: titles {0,4} + bodies {4}
    q = parse_multi_field("+alpha +release", fields=("title", "body"))
    hits = searcher.search(q, k=10)
    assert {d for d, _ in hits} == {0, 4}
    # explicit field prefixes are untouched
    q2 = parse_multi_field("title:alpha", fields=("title", "body"))
    from lucene_net_ray.query import TermQuery
    assert isinstance(q2, TermQuery) and q2.field == "title"


def test_multifield_actor_parity(tmp_path):
    """MultiFieldSearcher actor path equals the in-process path."""
    import pyarrow as pa

    from lucene_net_ray.pipelines.multifield import MultiFieldSearcher, build_multi_field_index
    from lucene_net_ray.query import parse_multi_field

    docs = pa.table(
        {
            "title": [f"title term{i % 5} alpha" for i in range(30)],
            "body": [f"body content word{i % 7} beta gamma" for i in range(30)],
        }
    )
    import pyarrow.parquet as pq

    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(docs, str(src / "d.parquet"), row_group_size=10)
    out = str(tmp_path / "mf")
    build_multi_field_index(str(src), out, fields=("title", "body"), target_rows_per_segment=10)
    local = MultiFieldSearcher(out, use_actors=False)
    actors = MultiFieldSearcher(out, num_actors=2, use_actors=True)
    for qs in ["alpha", "title:term1 body:beta", "term2 gamma"]:
        q = parse_multi_field(qs, fields=("title", "body"))
        lh = local.search(q, k=8)
        ah = actors.search(q, k=8)
        assert [(d, np.float32(s)) for d, s in lh] == [(d, np.float32(s)) for d, s in ah], qs
        assert local.count(q) == actors.count(q)


@pytest.mark.parametrize("use_actors", [False, True], ids=["in_process", "actors"])
def test_fuzzy_boosting_and_multiphrase(mf, use_actors):
    """Fuzzy leaves expand against their own field, and BoostingQuery and
    MultiPhraseQuery leaves get per-field stats, in-process and on actors."""
    from lucene_net_ray.query import BoostingQuery, FuzzyQuery, MultiPhraseQuery

    _, title_oracle, _, out = mf
    s = MultiFieldSearcher(out, num_actors=2, use_actors=use_actors)
    alpha = s.search(TermQuery(field="title", term="alpha"), k=10)
    assert sorted(d for d, _ in alpha) == [0, 2]

    # alpho~1 -> alpha at edit distance 1: boost 1 - 1/5
    fuzzy = s.search(FuzzyQuery(field="title", term="alpho", max_edits=1), k=10)
    want = title_oracle.top_k(TermQuery(term="alpha", boost=0.8), 10)
    assert [(d, np.float32(x)) for d, x in fuzzy] == [(d, np.float32(x)) for d, x in want]

    # context never matches: the match query's hits and scores are unchanged
    q = BoostingQuery(
        match=TermQuery(field="title", term="alpha"),
        context=TermQuery(field="body", term="quickstart"),
        demote=0.5,
    )
    assert s.search(q, k=10) == alpha
    assert s.count(q) == 2

    mp = MultiPhraseQuery(field="title", positions_terms=(("alpha",), ("api", "release")))
    hits = s.search(mp, k=10)
    assert sorted(d for d, _ in hits) == [0, 2]
    assert all(x > 0 for _, x in hits)
    assert s.count(mp) == 2


def _field_searchers(out: str, use_actors: bool) -> tuple[MultiFieldSearcher, dict[str, Searcher]]:
    """The multi-field searcher, and a single-field Searcher over each
    field's own index (built from the same shard plan)."""
    kw = {"num_actors": 2, "use_actors": use_actors}
    singles = {f: Searcher(os.path.join(out, "fields", f), **kw) for f in ("title", "body")}
    return MultiFieldSearcher(out, **kw), singles


@pytest.mark.parametrize("use_actors", [False, True], ids=["in_process", "actors"])
def test_collectors_match_single_field_index(mf, use_actors):
    """Every collector that gathers df answers on a multi-field searcher as
    it does on a single-field index of the field it names."""
    from lucene_net_ray.pipelines.collectors import (
        common_terms_query,
        highlight,
        more_like_this,
        suggest_completions,
        suggest_terms,
    )

    multi, singles = _field_searchers(mf[3], use_actors)
    for field, single in singles.items():
        q = TermQuery(field=field, term="alpha")
        calls = {
            "mlt": lambda s: more_like_this(s, "alpha release notes on the api", field=field),
            "common": lambda s: common_terms_query(
                s, ["alpha", "release", "reference"], max_term_frequency=0.3, field=field
            ),
            "suggest_terms": lambda s: suggest_terms(s, "alpho", field=field),
            "highlight": lambda s: highlight(s, "an alpha build with release notes", q, fragment_size=3, field=field),
            "completions": lambda s: suggest_completions(s, "re", field=field),
        }
        for name, call in calls.items():
            got, want = call(multi), call(single)
            assert got == want, (field, name)
            assert want.clauses if isinstance(want, BooleanQuery) else want, (field, name)  # non-trivial
        assert multi.search(q, k=5) == single.search(q, k=5)


def test_unknown_field_stats_raise(mf):
    """A stats request for a field the index lacks raises instead of giving
    df 0; the parser's default 'content' is an alias only on a single-field
    index."""
    from lucene_net_ray.pipelines.collectors import more_like_this

    multi, singles = _field_searchers(mf[3], use_actors=False)
    assert multi._stats_for_terms(["alpha"], "title") == {"alpha": 2}
    for field in ("nosuch", "content", None):
        with pytest.raises(ValueError):
            multi._stats_for_terms(["alpha"], field)
    with pytest.raises(ValueError, match="nosuch"):
        more_like_this(multi, "alpha", field="nosuch")
    title = singles["title"]
    assert title._stats_for_terms(["alpha"], "content") == title._stats_for_terms(["alpha"]) == {"alpha": 2}
    with pytest.raises(ValueError, match="body"):
        title._stats_for_terms(["alpha"], "body")


@pytest.mark.parametrize("use_actors", [False, True], ids=["in_process", "actors"])
def test_search_is_one_fanout_per_query(mf, use_actors, monkeypatch):
    """df comes from the driver's per-field term table, so after the first
    query (which loads it) a multi-field search is one top_k fan-out."""
    multi, _ = _field_searchers(mf[3], use_actors)
    multi.search(TermQuery(field="title", term="alpha"), k=5)
    calls: list[str] = []
    real = Searcher._call
    monkeypatch.setattr(
        Searcher, "_call", lambda self, method, *args, **kw: calls.append(method) or real(self, method, *args, **kw)
    )
    for text in ("title:alpha body:merge", "+title:beta +body:quickstart", 'body:"query parser"', "title:zyzzyva"):
        calls.clear()
        multi.search(parse_query(text), k=5)
        assert calls == ["top_k"], text
