"""Every similarity runs through SegmentScorer's one query algebra:
min_should_match, nested booleans, phrases and DisMax behave the same under
BM25, Classic, SweetSpot, LM, DFR and IB; only BM25 takes the WAND path."""

import math

import numpy as np
import pyarrow as pa
import pytest

from lucene_net_ray.functions.norms import byte315_to_float
from lucene_net_ray.functions.similarity import BM25
from lucene_net_ray.functions.similarity_classic import Classic, SweetSpot
from lucene_net_ray.functions.similarity_dfr import DFR, IB
from lucene_net_ray.functions.similarity_lm import LMDirichlet, LMJelinekMercer
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.scorer import SegmentScorer
from lucene_net_ray.query import (
    BooleanClause,
    BooleanQuery,
    DisjunctionMaxQuery,
    PhraseQuery,
    TermQuery,
)
from lucene_net_ray.state.index import IndexMeta
from lucene_net_ray.state.segment import SegmentReader

SIMILARITIES = {
    "bm25": BM25(),
    "classic": Classic(),
    "sweetspot": SweetSpot(ln_min=1, ln_max=3),
    "lm_dirichlet": LMDirichlet(),
    "lm_jelinek_mercer": LMJelinekMercer(),
    "dfr": DFR(),
    "ib": IB(),
}


def T(term, boost=1.0):
    return TermQuery(term=term, boost=boost)


def B(*clauses, msm=0, boost=1.0):
    return BooleanQuery(
        clauses=tuple(BooleanClause(q, occ) for q, occ in clauses), min_should_match=msm, boost=boost
    )


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("tiny"))
    docs = ["alpha beta", "alpha gamma", "beta delta"]
    meta = build_index_from_table(pa.table({"content": docs}), idx, index_options="positions")
    reader = SegmentReader(IndexMeta(idx).segment_dirs[0])
    terms = ["alpha", "beta", "gamma", "delta"]
    stats = {
        "max_doc": meta.max_doc,
        "sum_ttf": meta.sum_ttf,
        "df": {t: reader.term_stats(t)[0] for t in terms},
        "ttf": {t: reader.term_stats(t)[1] for t in terms},
    }
    return reader, stats


@pytest.mark.parametrize("name", SIMILARITIES)
def test_min_should_match_under_every_similarity(tiny, name):
    reader, stats = tiny
    sc = SegmentScorer(reader, stats, SIMILARITIES[name])
    q = B((T("alpha"), "SHOULD"), (T("beta"), "SHOULD"), msm=2)
    docs, scores = sc.evaluate(q)
    assert docs.tolist() == [0]
    assert [d for d, _ in sc.top_k(q, 10)] == [0]
    assert sc.count(q) == 1


@pytest.mark.parametrize("name", SIMILARITIES)
def test_nested_phrase_and_dismax_under_every_similarity(tiny, name):
    reader, stats = tiny
    sc = SegmentScorer(reader, stats, SIMILARITIES[name])
    nested = B((B((T("alpha"), "SHOULD"), (T("beta"), "SHOULD")), "MUST"), (T("delta"), "MUST_NOT"))
    assert sc.evaluate(nested)[0].tolist() == [0, 1]
    assert sc.evaluate(PhraseQuery(terms=("alpha", "beta")))[0].tolist() == [0]
    assert sc.evaluate(PhraseQuery(terms=("beta", "alpha"), slop=2))[0].tolist() == [0]
    assert sc.evaluate(PhraseQuery(terms=("beta", "alpha")))[0].tolist() == []
    # DisMax with tie 0 keeps each doc's best disjunct score
    d_a, s_a = sc.evaluate(T("alpha"))
    d_b, s_b = sc.evaluate(T("beta"))
    docs, scores = sc.evaluate(DisjunctionMaxQuery(disjuncts=(T("alpha"), T("beta"))))
    assert docs.tolist() == [0, 1, 2]
    best = {}
    for d, s in list(zip(d_a.tolist(), s_a.tolist())) + list(zip(d_b.tolist(), s_b.tolist())):
        best[d] = max(best.get(d, s), s)
    assert scores.tolist() == [best[d] for d in docs.tolist()]
    assert np.all(np.isfinite(scores)) and scores.dtype == np.float32


@pytest.mark.parametrize("name", [n for n in SIMILARITIES if n != "bm25"])
def test_wand_only_under_bm25(tiny, name):
    reader, stats = tiny
    sc = SegmentScorer(reader, stats, SIMILARITIES[name])
    q = B((T("alpha"), "SHOULD"), (T("beta"), "SHOULD"))
    with pytest.raises(ValueError):
        sc.top_k(q, 2, mode="wand")
    assert sc.top_k(q, 2, mode="auto") == sc.top_k(q, 2, mode="exhaustive")
    bm25 = SegmentScorer(reader, stats)
    assert bm25.top_k(q, 2, mode="wand") == bm25.top_k(q, 2, mode="exhaustive")


def test_classic_query_norm_and_coord_hand_vector(tiny):
    """+alpha beta under Classic: queryNorm over both clauses' squared query
    weights, coord(2, 2) for doc 0 and coord(1, 2) for doc 1."""
    reader, stats = tiny
    sc = SegmentScorer(reader, stats, Classic())
    n = stats["max_doc"]
    idf = {t: np.float32(math.log(n / (stats["df"][t] + 1.0)) + 1.0) for t in ("alpha", "beta")}
    qn = np.float32(1.0 / math.sqrt(float(idf["alpha"]) ** 2 + float(idf["beta"]) ** 2))

    def term(t, doc):  # tf is 1 everywhere in this corpus
        norm = np.float32(byte315_to_float(int(reader.norms[doc])))
        return np.float32(np.float32(1.0) * idf[t] * np.float32(idf[t] * qn) * norm)

    docs, scores = sc.evaluate(B((T("alpha"), "MUST"), (T("beta"), "SHOULD")))
    assert docs.tolist() == [0, 1]
    assert scores[0] == np.float32(term("alpha", 0) + term("beta", 0))
    assert scores[1] == np.float32(term("alpha", 1) * np.float32(0.5))


def test_classic_query_norm_cancels_a_lone_boost(tiny):
    """queryNorm is taken once over the whole tree, boost^2 included: a
    boolean whose only clause is boosted scores like the bare clause."""
    reader, stats = tiny
    sc = SegmentScorer(reader, stats, Classic())
    docs, plain = sc.evaluate(T("alpha"))
    docs_b, boosted = sc.evaluate(B((T("alpha"), "SHOULD"), boost=4.0))
    assert docs_b.tolist() == docs.tolist()
    np.testing.assert_allclose(boosted, plain, rtol=1e-6)
