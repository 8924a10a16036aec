"""``can_match``: the conservative rule by which a point query skips the
shards whose term dicts cannot produce a hit.

  * a table of every rule, with ``has`` answering one shard: the leaves,
    booleans (MUST, SHOULD with and without min_should_match, a
    min_should_match above the SHOULD count, MUST_NOT only), DisMax, the
    wrappers, and the leaves that expand per segment
  * the same rules with ``has`` answering every shard at once (numpy)
  * soundness: each query the table rules out finds nothing on a real
    one-group index whose vocabulary is the held terms, fuzzy leaves are
    pruned after the rewrite, and ``Searcher`` calls no shard for them
"""

import numpy as np
import pyarrow as pa
import pytest

from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.scorer import can_match
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.query import (
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
    QueryFilter,
    RegexpQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
)

HELD = {"apple", "berry"}
APPLE, BERRY, XRAY, YAK = (TermQuery(term=t) for t in ("apple", "berry", "xray", "yak"))


def _bool(*clauses, msm=0):
    return BooleanQuery(clauses=tuple(BooleanClause(q, o) for o, q in clauses), min_should_match=msm)


def _dismax(*qs):
    return DisjunctionMaxQuery(disjuncts=qs)


CASES = {
    "term held": (APPLE, True),
    "term absent": (XRAY, False),
    "phrase all held": (PhraseQuery(terms=("apple", "berry")), True),
    "phrase one absent": (PhraseQuery(terms=("apple", "xray")), False),
    "phrase empty": (PhraseQuery(terms=()), False),
    "multiphrase every position filled": (MultiPhraseQuery(positions_terms=(("xray", "apple"), ("berry",))), True),
    "multiphrase a position empty": (MultiPhraseQuery(positions_terms=(("apple",), ("xray", "yak"))), False),
    "must all held": (_bool(("MUST", APPLE), ("MUST", BERRY)), True),
    "must one absent": (_bool(("MUST", APPLE), ("MUST", XRAY)), False),
    "must, absent should": (_bool(("MUST", APPLE), ("SHOULD", XRAY)), True),
    "must, msm unmet": (_bool(("MUST", APPLE), ("SHOULD", XRAY), ("SHOULD", BERRY), msm=2), False),
    "must, msm met": (_bool(("MUST", APPLE), ("SHOULD", XRAY), ("SHOULD", BERRY), msm=1), True),
    "should none held": (_bool(("SHOULD", XRAY), ("SHOULD", YAK)), False),
    "should one held": (_bool(("SHOULD", XRAY), ("SHOULD", APPLE)), True),
    "should, msm unmet": (_bool(("SHOULD", XRAY), ("SHOULD", APPLE), msm=2), False),
    "should, msm met": (_bool(("SHOULD", BERRY), ("SHOULD", APPLE), msm=2), True),
    "msm above the should count": (_bool(("SHOULD", APPLE), msm=2), False),
    "msm above the should count, with a must": (_bool(("MUST", APPLE), ("SHOULD", BERRY), msm=2), False),
    "must_not only": (_bool(("MUST_NOT", APPLE)), False),
    "must_not of an absent term only": (_bool(("MUST_NOT", XRAY)), False),
    "must_not ignored": (_bool(("MUST", APPLE), ("MUST_NOT", APPLE)), True),
    "empty boolean": (BooleanQuery(), False),
    "nested": (_bool(("MUST", _dismax(XRAY, _bool(("SHOULD", YAK), ("SHOULD", BERRY))))), True),
    "nested, none held": (_bool(("MUST", APPLE), ("MUST", _dismax(XRAY, _bool(("SHOULD", YAK))))), False),
    "dismax any": (_dismax(XRAY, APPLE), True),
    "dismax none": (_dismax(XRAY, YAK), False),
    "dismax empty": (DisjunctionMaxQuery(), False),
    "constant score": (ConstantScoreQuery(query=XRAY), False),
    "constant score held": (ConstantScoreQuery(query=APPLE), True),
    "filtered": (FilteredQuery(query=XRAY, filter=QueryFilter(query=APPLE)), False),
    "filtered held": (FilteredQuery(query=APPLE, filter=QueryFilter(query=XRAY)), True),
    "query filter": (QueryFilter(query=XRAY), False),
    "boosting, match absent": (BoostingQuery(match=XRAY, context=APPLE, demote=0.5), False),
    "boosting, context absent": (BoostingQuery(match=APPLE, context=XRAY, demote=0.5), True),
    "match all": (MatchAllDocsQuery(), True),
    "prefix": (PrefixQuery(prefix="zz"), True),
    "wildcard": (WildcardQuery(pattern="x*"), True),
    "regexp": (RegexpQuery(pattern="x.*"), True),
    "range": (TermRangeQuery(lower="x", upper="z"), True),
}


@pytest.mark.parametrize("name", list(CASES))
def test_rule_table(name):
    q, want = CASES[name]
    assert bool(can_match(q, lambda _f, t: t in HELD)) is want


def test_rules_per_shard_at_once():
    """``has`` answering one bool per shard: shard 0 holds apple, shard 1
    berry."""
    shards = ({"apple"}, {"berry"})

    def has(_f, t):
        return np.array([t in held for held in shards])

    table = [
        (APPLE, [True, False]),
        (_bool(("MUST", APPLE), ("MUST", BERRY)), [False, False]),
        (_bool(("SHOULD", APPLE), ("SHOULD", BERRY)), [True, True]),
        (_bool(("MUST", APPLE), ("SHOULD", BERRY), msm=1), [False, False]),
        (_bool(("SHOULD", APPLE), ("SHOULD", BERRY), ("SHOULD", XRAY), msm=2), [False, False]),
        (PhraseQuery(terms=("apple", "berry")), [False, False]),
        (MultiPhraseQuery(positions_terms=(("apple", "berry"),)), [True, True]),
        (_dismax(XRAY, BERRY), [False, True]),
        (MatchAllDocsQuery(), [True, True]),
        (_bool(("MUST_NOT", APPLE)), [False, False]),
    ]
    for q, want in table:
        assert np.broadcast_to(can_match(q, has), 2).tolist() == want, q


@pytest.fixture(scope="module")
def one_group(tmp_path_factory):
    docs = ["apple berry", "apple", "berry apple berry", "berry", "apple apple berry apple"]
    root = tmp_path_factory.mktemp("can_match")
    build_index_from_table(pa.table({"content": docs}), str(root / "idx"), index_options="positions")
    s = Searcher(str(root / "idx"), num_actors=1, use_actors=False)
    assert s._df_table["content"][0].tolist() == sorted(HELD)
    return s


@pytest.mark.parametrize("name", [n for n, (q, want) in CASES.items() if not want and not isinstance(q, QueryFilter)])
def test_ruled_out_queries_find_nothing(one_group, name):
    q, _ = CASES[name]
    rq, stats = one_group._rewrite_and_stats(q)
    (group,) = one_group.groups
    assert group.top_k(rq, stats, 10) == [] and group.count(rq, stats) == 0
    before = one_group.fanout.copy()
    assert one_group.search(q, k=10) == [] and one_group.count(q) == 0
    assert one_group.fanout - before == {"shards_skipped": 2}


def test_fuzzy_leaves_are_pruned_after_the_rewrite(one_group):
    s = one_group
    for q, want in ((FuzzyQuery(term="xrayz", max_edits=1), []), (FuzzyQuery(term="applf", max_edits=1), [0])):
        rq, _ = s._rewrite_and_stats(q)
        assert s._can_match_shards(rq) == want, q
        assert bool(s.search(q, k=10)) == bool(want), q
