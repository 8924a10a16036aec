"""Collector operators: sorted search, facets, grouping, filters, MLT,
CommonTerms, suggest, MemoryIndex, and the Classic (TF-IDF) similarity."""

import inspect
import math

import numpy as np
import pytest

from lucene_net_ray.oracle import OracleIndex
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.collectors import (
    MemoryIndex,
    all_group_heads,
    all_groups,
    common_terms_query,
    distinct_values,
    facet_counts,
    group_facets,
    group_top_k,
    more_like_this,
    search_sorted,
    suggest_terms,
)
from lucene_net_ray.functions.similarity_classic import Classic
from lucene_net_ray.pipelines.scorer import SegmentScorer
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.query import (
    BooleanQuery,
    FieldRangeFilter,
    FilteredQuery,
    TermQuery,
    parse_query,
)
from lucene_net_ray.sources.corpus import generate_corpus
from lucene_net_ray.state.index import IndexMeta
from lucene_net_ray.state.segment import SegmentReader


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    corpus = generate_corpus(300, seed=55)
    idx = str(tmp_path_factory.mktemp("coll_idx"))
    build_index_from_table(
        corpus, idx, target_rows_per_segment=80, stored_columns=("lang", "repo"),
        store_term_vectors=True,
    )
    searcher = Searcher(idx, use_actors=False)
    oracle = OracleIndex(corpus.column("content").to_pylist())
    return corpus, searcher, oracle


def _matching_docs(oracle, q):
    return {d for d in range(oracle.max_doc) if oracle._eval(d, q) is not None}


def test_search_sorted_by_numeric_field(setup):
    corpus, searcher, oracle = setup
    q = parse_query("public")
    # sort by field_len desc (numeric column stored in docs table)
    rows = search_sorted(searcher, q, [("field_len", True)], k=5)
    match = _matching_docs(oracle, q)
    expected = sorted(match, key=lambda d: (-oracle.lens[d], d))[:5]
    assert [r["doc_id"] for r in rows] == expected
    assert [r["field_len"] for r in rows] == [oracle.lens[d] for d in expected]


def test_search_sorted_by_string_field_desc(setup):
    corpus, searcher, oracle = setup
    langs = corpus.column("lang").to_pylist()
    q = parse_query("public")
    rows = search_sorted(searcher, q, [("lang", True)], k=5)
    match = _matching_docs(oracle, q)
    expected = sorted(match, key=lambda d: (_neg(langs[d]), d))[:5]
    assert [r["doc_id"] for r in rows] == expected


class _neg(str):
    def __lt__(self, o):
        return str.__gt__(self, o)


def test_facet_counts(setup):
    corpus, searcher, oracle = setup
    langs = corpus.column("lang").to_pylist()
    q = parse_query("public")
    counts = facet_counts(searcher, q, "lang")
    match = _matching_docs(oracle, q)
    expected = {}
    for d in match:
        expected[langs[d]] = expected.get(langs[d], 0) + 1
    assert counts == expected


def test_group_top_k(setup):
    corpus, searcher, oracle = setup
    langs = corpus.column("lang").to_pylist()
    q = parse_query("query")
    groups = group_top_k(searcher, q, "lang", k_groups=4, k_per_group=2)
    hits = {d: s for d, s in ((d, oracle._eval(d, q)) for d in range(oracle.max_doc)) if s is not None}
    by_lang = {}
    for d, s in hits.items():
        by_lang.setdefault(langs[d], []).append((np.float32(s), d))
    for g in groups:
        expected = sorted(by_lang[g["group"]], key=lambda h: (-h[0], h[1]))[:2]
        assert [(h["doc_id"], np.float32(h["score"])) for h in g["hits"]] == [
            (d, s) for s, d in expected
        ]


def test_all_group_heads(setup):
    corpus, searcher, oracle = setup
    langs = corpus.column("lang").to_pylist()
    q = parse_query("public")
    rows = all_group_heads(searcher, q, "lang", [("field_len", True)])
    match = _matching_docs(oracle, q)
    expected = {}
    for d in sorted(match, key=lambda d: (-oracle.lens[d], d)):
        expected.setdefault(langs[d], d)
    assert {r["group"]: r["head_doc"] for r in rows} == expected
    assert [r["group"] for r in rows] == sorted(expected)  # ordered by group
    for r in rows:
        assert r["field_len"] == oracle.lens[r["head_doc"]]


def test_all_group_heads_multi_sort_with_string_field(setup):
    corpus, searcher, oracle = setup
    langs = corpus.column("lang").to_pylist()
    repos = corpus.column("repo").to_pylist()
    q = parse_query("public")
    rows = all_group_heads(searcher, q, "lang", [("repo", False), ("field_len", True)])
    match = _matching_docs(oracle, q)
    expected = {}
    for d in sorted(match, key=lambda d: (repos[d], -oracle.lens[d], d)):
        expected.setdefault(langs[d], d)
    assert {r["group"]: r["head_doc"] for r in rows} == expected


def test_all_groups(setup):
    corpus, searcher, oracle = setup
    langs = corpus.column("lang").to_pylist()
    q = parse_query("public")
    match = _matching_docs(oracle, q)
    assert all_groups(searcher, q, "lang") == sorted({langs[d] for d in match})


def test_distinct_values(setup):
    corpus, searcher, oracle = setup
    langs = corpus.column("lang").to_pylist()
    repos = corpus.column("repo").to_pylist()
    q = parse_query("public")
    match = _matching_docs(oracle, q)
    expected = {}
    for d in match:
        expected.setdefault(langs[d], set()).add(repos[d])
    rows = distinct_values(searcher, q, "lang", "repo")
    assert {r["group"]: set(r["values"]) for r in rows} == expected
    assert all(r["n_distinct"] == len(r["values"]) for r in rows)
    # top-N group restriction (second-pass semantics)
    some = sorted(expected)[:2]
    rows2 = distinct_values(searcher, q, "lang", "repo", groups=some)
    assert [r["group"] for r in rows2] == some


def test_group_facets(setup):
    corpus, searcher, oracle = setup
    langs = corpus.column("lang").to_pylist()
    repos = corpus.column("repo").to_pylist()
    q = parse_query("public")
    match = _matching_docs(oracle, q)
    pairs = {(repos[d], langs[d]) for d in match}
    expected = {}
    for repo, lang in pairs:
        expected.setdefault(repo, set()).add(lang)
    ent = group_facets(searcher, q, "lang", "repo")
    assert dict(ent) == {v: len(gs) for v, gs in expected.items()}
    assert [v for v, _ in ent] == sorted(expected)  # lexicographic default
    by_count = group_facets(searcher, q, "lang", "repo", order_by_count=True)
    assert by_count == sorted(ent, key=lambda e: (-e[1], e[0]))
    mc = max(n for _, n in ent)
    assert group_facets(searcher, q, "lang", "repo", min_count=mc) == [
        e for e in ent if e[1] >= mc
    ]
    pfx = sorted(expected)[0][:4]
    assert group_facets(searcher, q, "lang", "repo", prefix=pfx) == [
        e for e in ent if e[0].startswith(pfx)
    ]


def test_filtered_query(setup):
    corpus, searcher, oracle = setup
    q = FilteredQuery(
        query=TermQuery(term="public"),
        filter=FieldRangeFilter(field="field_len", lower=20, upper=60),
    )
    hits = searcher.search(q, k=50)
    match = {d for d in _matching_docs(oracle, TermQuery(term="public")) if 20 <= oracle.lens[d] <= 60}
    assert {d for d, _ in hits} <= match
    assert searcher.count(q) == len(match)
    # scores unchanged by the filter
    for d, s in hits:
        assert np.float32(s) == oracle._eval(d, TermQuery(term="public"))


def test_more_like_this(setup):
    corpus, searcher, oracle = setup
    text = "zyzzyva quux zyzzyva public"
    q = more_like_this(searcher, text, max_query_terms=3)
    terms = {c.query.term for c in q.clauses}
    assert "zyzzyva" in terms  # high tf x high idf
    assert len(terms) <= 3
    hits = searcher.search(q, k=5)
    assert hits  # finds the rare-term docs


def test_common_terms_query(setup):
    corpus, searcher, oracle = setup
    q = common_terms_query(searcher, ["public", "zyzzyva"], max_term_frequency=0.2)
    # 'public' is in most docs -> demoted into the nested optional subquery
    flat = [c.query for c in q.clauses]
    nested = [x for x in flat if isinstance(x, BooleanQuery)]
    assert len(nested) == 1
    assert {c.query.term for c in nested[0].clauses} == {"public"}
    assert {x.term for x in flat if isinstance(x, TermQuery)} == {"zyzzyva"}


def test_suggest_terms(setup):
    corpus, searcher, oracle = setup
    out = suggest_terms(searcher, "publik", max_edits=2, k=3)
    assert out[0][0] == "public"
    assert out[0][1] == 1  # edit distance


def test_memory_index_percolation(setup):
    mi = MemoryIndex("the quick brown fox")
    assert mi.score(TermQuery(term="quick")) > 0
    assert mi.score(TermQuery(term="zebra")) == 0.0
    assert mi.score(parse_query("+quick +brown")) > 0
    assert mi.score(parse_query("+quick +zebra")) == 0.0


def test_classic_similarity_term(setup):
    corpus, searcher, oracle = setup
    meta = IndexMeta(searcher.index.index_dir)
    reader = SegmentReader(meta.segment_dirs[0])
    q = TermQuery(term="query")
    _, stats = searcher._rewrite_and_stats(q)
    cls = SegmentScorer(reader, stats, Classic())
    docs, scores = cls.evaluate(q)
    # hand-compute for the first matching doc
    from lucene_net_ray.functions.norms import byte315_to_float

    d0 = int(docs[0])
    tf = reader.postings("query")[1][0]
    n = stats["max_doc"]
    df = stats["df"]["query"]
    idf = np.float32(math.log(n / (df + 1.0)) + 1.0)
    qw = idf  # boost 1
    qn = np.float32(1.0 / math.sqrt(float(qw) * float(qw)))
    expected = np.float32(
        np.float32(np.sqrt(np.float32(tf))) * idf * np.float32(qw * qn)
        * np.float32(byte315_to_float(int(reader.norms[d0])))
    )
    assert np.isclose(scores[0], expected, rtol=1e-6)
    # ranking sanity: all scores positive, sorted retrieval works
    top = cls.top_k(q, 5)
    assert all(s > 0 for _, s in top)


def test_classic_similarity_boolean_coord(setup):
    corpus, searcher, oracle = setup
    meta = IndexMeta(searcher.index.index_dir)
    reader = SegmentReader(meta.segment_dirs[0])
    q = parse_query("query token")
    _, stats = searcher._rewrite_and_stats(q)
    cls = SegmentScorer(reader, stats, Classic())
    docs, scores = cls.evaluate(q)
    # docs matching both clauses must outrank same docs' single-clause score
    both = np.intersect1d(reader.postings("query")[0], reader.postings("token")[0])
    if both.size:
        i = np.searchsorted(docs, both[0])
        assert scores[i] > 0


def test_highlight(setup):
    corpus, searcher, oracle = setup
    from lucene_net_ray.pipelines.collectors import highlight

    text = "noise words here public query noise more filler tokens beyond the window public again"
    frags = highlight(searcher, text, parse_query("public query"), fragment_size=4, max_fragments=2)
    assert frags
    assert any("<b>public</b>" in f and "<b>query</b>" in f for f in frags)
    # fragments don't overlap and highlight only query terms
    for f in frags:
        assert "<b>noise</b>" not in f


def test_knn_classify(setup):
    corpus, searcher, oracle = setup
    from lucene_net_ray.pipelines.collectors import knn_classify

    # classify a text resembling a real doc; label = lang column
    text = corpus.column("content")[5].as_py()
    expected_lang = corpus.column("lang")[5].as_py()
    label, votes = knn_classify(searcher, text, label_field="lang", k=5)
    assert label in {"csharp", "python", "java", "markdown"}
    assert sum(votes.values()) <= 5
    # the most similar doc is the doc itself -> its lang gets at least a vote
    assert votes.get(expected_lang, 0) >= 1


def test_function_rescore(setup):
    corpus, searcher, oracle = setup
    from lucene_net_ray.pipelines.collectors import function_rescore

    q = parse_query("public")
    # rescore = bm25 * 0 + field_len  -> ranking by field length desc
    hits = function_rescore(
        searcher, q, lambda s, v: v["field_len"].astype(float), fields=["field_len"], k=5
    )
    match = _matching_docs(oracle, q)
    expected = sorted(match, key=lambda d: (-oracle.lens[d], d))[:5]
    assert [d for d, _ in hits] == expected
    # boost-by-score identity keeps BM25 order
    hits2 = function_rescore(searcher, q, lambda s, v: s.astype(np.float64), k=5)
    assert [d for d, _ in hits2] == [d for d, _ in searcher.search(q, k=5)]


def test_suggest_completions(setup):
    corpus, searcher, oracle = setup
    from lucene_net_ray.pipelines.collectors import suggest_completions

    out = suggest_completions(searcher, "ra", k=5)
    assert out and all(t.startswith("ra") for t, _ in out)
    # ranked by df desc; every df matches the oracle
    dfs = [df for _, df in out]
    assert dfs == sorted(dfs, reverse=True)
    for t, df in out:
        assert oracle.df[t] == df


def test_time_limiting_and_early_terminating(tmp_path):
    """TimeLimitingCollector / EarlyTerminatingSortingCollector analogs."""
    import pytest

    from lucene_net_ray.pipelines.search import Searcher, TimeExceededError
    from lucene_net_ray.query import TermQuery

    import pyarrow as pa

    docs = ["filler doc"] * 5 + ["target once"] + ["filler doc"] * 3 + [
        "target target target heavy"
    ]
    idx = str(tmp_path / "idx")
    from lucene_net_ray.pipelines.build import build_index_from_table

    build_index_from_table(pa.table({"content": docs}), idx, target_rows_per_segment=20)
    s = Searcher(idx, use_actors=False)
    q = TermQuery(term="target")
    full = s.search(q, k=5)
    assert [d for d, _ in full] == [9, 5]  # heavy doc first

    # early termination after the FIRST matching doc (docID order): only
    # doc 5 is collected, the better doc 9 is never reached
    early = s.search(q, k=5, early_terminate_docs=1)
    assert [d for d, _ in early] == [5]

    # a zero time budget trips before any segment is collected
    with pytest.raises(TimeExceededError) as ei:
        s.search(q, k=5, time_limit_s=-1.0)
    assert ei.value.partial == []
    # greedy mode returns the partial result instead of raising
    assert s.search(q, k=5, time_limit_s=-1.0, greedy=True) == []
    # a generous budget behaves identically to no budget
    assert s.search(q, k=5, time_limit_s=60.0) == full


def test_collectors_work_through_actors(tmp_path):
    """Round-2 convergence: facet/sorted/group/rescore run as per-actor
    partials (previously required use_actors=False and pulled all matches to
    the driver). Actor results must equal the in-process results."""
    import pyarrow as pa

    from lucene_net_ray.pipelines.build import build_index_from_table
    from lucene_net_ray.pipelines.collectors import (
        facet_counts,
        function_rescore,
        group_top_k,
        search_sorted,
    )
    from lucene_net_ray.pipelines.search import Searcher
    from lucene_net_ray.query import TermQuery

    docs = []
    langs = []
    for i in range(40):
        docs.append(f"shared term plus word{i % 7}")
        langs.append(["en", "de", "fr"][i % 3])
    tbl = pa.table({"content": docs, "lang": langs, "val": list(range(40))})
    idx = str(tmp_path / "idx")
    build_index_from_table(tbl, idx, target_rows_per_segment=10,
                           stored_columns=("lang", "val"))
    local = Searcher(idx, use_actors=False)
    actors = Searcher(idx, num_actors=3, use_actors=True)
    q = TermQuery(term="shared")
    assert facet_counts(actors, q, "lang") == facet_counts(local, q, "lang")
    assert search_sorted(actors, q, [("val", True)], k=7) == search_sorted(
        local, q, [("val", True)], k=7
    )
    assert group_top_k(actors, q, "lang", k_groups=3, k_per_group=2) == group_top_k(
        local, q, "lang", k_groups=3, k_per_group=2
    )
    fn = lambda scores, vals: vals["val"] * 1.0  # noqa: E731
    assert function_rescore(actors, q, fn, fields=["val"], k=5) == function_rescore(
        local, q, fn, fields=["val"], k=5
    )
    from lucene_net_ray.pipelines.collectors import (
        all_group_heads,
        distinct_values,
        group_facets,
    )

    assert all_group_heads(actors, q, "lang", [("val", True)]) == all_group_heads(
        local, q, "lang", [("val", True)]
    )
    assert distinct_values(actors, q, "lang", "val") == distinct_values(
        local, q, "lang", "val"
    )
    assert group_facets(actors, q, "lang", "val") == group_facets(local, q, "lang", "val")


def test_boosting_query(tmp_path):
    """BoostingQuery: context matches demote, never add docs."""
    import pyarrow as pa

    from lucene_net_ray.pipelines.build import build_index_from_table
    from lucene_net_ray.pipelines.search import Searcher
    from lucene_net_ray.query import BoostingQuery, TermQuery

    docs = ["wanted plain", "wanted spammy junk", "only junk here"]
    idx = str(tmp_path / "idx")
    build_index_from_table(pa.table({"content": docs}), idx)
    s = Searcher(idx, use_actors=False)
    q = BoostingQuery(match=TermQuery(term="wanted"), context=TermQuery(term="junk"), demote=0.1)
    hits = s.search(q, k=5)
    assert [d for d, _ in hits] == [0, 1]  # doc 2 (context-only) absent
    base = dict(s.scored_docs(TermQuery(term="wanted")))
    got = dict(hits)
    assert np.float32(got[0]) == np.float32(base[0])  # undemoted unchanged
    assert np.float32(got[1]) == np.float32(np.float32(base[1]) * np.float32(0.1))


def test_fuzzy_like_this(setup):
    """FuzzyLikeThisQuery.cs: fuzzy variants of source terms, sim^2 x idf
    boosts sharing the SOURCE term's df, grouped per source term."""
    from lucene_net_ray.pipelines.collectors import fuzzy_like_this
    from lucene_net_ray.query import ConstantScoreQuery

    corpus, searcher, oracle = setup
    q = fuzzy_like_this(searcher, "publik zyzzyva", max_edits=1)
    assert isinstance(q, BooleanQuery) and q.clauses
    # collect (term, boost) leaves per clause group
    flat = {}
    for c in q.clauses:
        node = c.query
        if isinstance(node, BooleanQuery):
            for l in node.clauses:
                flat[l.query.term] = l.query.boost
        else:
            flat[node.term] = node.boost
    assert "public" in flat    # 1 edit from 'publik'
    assert "zyzzyva" in flat   # exact match, similarity 1.0
    # exact-match variant boost is pure idf; fuzzied variant strictly below
    # its source idf (similarity < 1 squared)
    if "publik" not in flat:
        n = searcher.index.max_doc
        df_pub = searcher._stats_for_terms(["public"])["public"]
        import lucene_net_ray.functions.similarity as sim
        # source term absent -> avg variant df fallback was used; just check order
        assert flat["public"] > 0
    hits = searcher.search(q, k=5)
    assert hits
    # ignore_tf mode produces constant-score leaves
    q2 = fuzzy_like_this(searcher, "publik", max_edits=1, ignore_tf=True)
    leaves2 = []
    for c in q2.clauses:
        node = c.query
        leaves2 += [l.query for l in node.clauses] if isinstance(node, BooleanQuery) else [node]
    assert all(isinstance(l, ConstantScoreQuery) for l in leaves2)


def test_query_rescore(setup):
    """QueryRescorer.cs: first + weight x second on second-pass matches,
    docID tiebreak, non-matches keep the first-pass score."""
    from lucene_net_ray.pipelines.collectors import query_rescore

    corpus, searcher, oracle = setup
    first = searcher.search(TermQuery(term="public"), k=20)
    assert first
    second_q = TermQuery(term="query")
    second = dict(searcher.scored_docs(second_q))
    out = query_rescore(searcher, first, second_q, weight=2.0)
    assert {d for d, _ in out} == {d for d, _ in first}  # rescore never adds/drops
    fmap = dict(first)
    for d, s in out:
        exp = np.float32(fmap[d]) if d not in second else np.float32(
            np.float32(fmap[d]) + np.float32(2.0) * np.float32(second[d]))
        assert np.float32(s) == exp
    # sorted by new score desc, docid asc
    assert out == sorted(out, key=lambda x: (-x[1], x[0]))
    # weight 0 keeps first-pass order/scores
    same = query_rescore(searcher, first, second_q, weight=0.0)
    assert [(d, np.float32(s)) for d, s in same] == sorted(
        [(d, np.float32(s)) for d, s in first], key=lambda x: (-x[1], x[0]))


def test_more_like_this_by_doc(setup):
    from lucene_net_ray.pipelines.collectors import more_like_this_by_doc

    _, searcher, _ = setup
    q = more_like_this_by_doc(searcher, 5)
    assert q.clauses
    assert 5 in {d for d, _ in searcher.search(q, k=3)}


class TestThroughActors:
    """Every test above that takes ``setup``, again on an actor-backed
    Searcher over the same index: helpers that reach segments must go
    through the shards, which are actor handles here."""

    @pytest.fixture(scope="class")
    def setup(self, setup):
        corpus, local, oracle = setup
        return corpus, Searcher(local.index, num_actors=2, use_actors=True), oracle


for _name, _test in list(globals().items()):
    if _name.startswith("test_") and "setup" in inspect.signature(_test).parameters:
        setattr(TestThroughActors, _name, staticmethod(_test))
