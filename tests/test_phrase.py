"""PhraseQuery / positions / DisjunctionMaxQuery vs the brute-force oracle
(ExactPhraseScorer + DisjunctionMaxScorer semantics)."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_net_ray.oracle import OracleIndex
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.query import (
    DisjunctionMaxQuery,
    PhraseQuery,
    TermQuery,
    parse_query,
)
from lucene_net_ray.sources.corpus import generate_corpus
from lucene_net_ray.state.index import IndexMeta
from lucene_net_ray.state.segment import SegmentReader

DOCS = [
    "quick brown fox jumps",
    "quick the brown fox",          # stopword gap between quick and brown
    "brown quick fox",
    "quick brown quick brown dog",  # phrase freq 2
    "the quick brown cat",
    "quick fox brown",
    "wholly unrelated text here",
]


@pytest.fixture(scope="module")
def phrase_setup(tmp_path_factory):
    idx = str(tmp_path_factory.mktemp("phrase_idx"))
    tbl = pa.table({"content": DOCS})
    build_index_from_table(tbl, idx, target_rows_per_segment=3, index_options="positions")
    oracle = OracleIndex(DOCS)
    return Searcher(idx, use_actors=False), oracle, idx


def _same(engine_hits, oracle_hits):
    assert [d for d, _ in engine_hits] == [d for d, _ in oracle_hits]
    for (d1, s1), (d2, s2) in zip(engine_hits, oracle_hits):
        assert np.float32(s1) == np.float32(s2), (d1, s1, s2)


def test_positions_round_trip(phrase_setup):
    _, _, idx = phrase_setup
    meta = IndexMeta(idx)
    r = SegmentReader(meta.segment_dirs[0])
    assert r.has_positions
    docids, tfs, flat, occ = r.positions("quick")
    # doc 0: "quick brown fox jumps" -> quick at position 0
    assert docids[0] == 0 and flat[occ[0]:occ[1]].tolist() == [0]
    # doc 1 (local): "quick the brown fox" -> quick at 0
    d3 = np.flatnonzero(docids == 1)
    assert d3.size == 1


def test_exact_phrase_matches_adjacency(phrase_setup):
    searcher, oracle, _ = phrase_setup
    q = parse_query('"quick brown"')
    hits = searcher.search(q, k=10)
    _same(hits, oracle.top_k(q, 10))
    ids = {d for d, _ in hits}
    assert 0 in ids and 3 in ids and 4 in ids
    assert 1 not in ids  # stopword gap breaks exact adjacency
    assert 2 not in ids and 5 not in ids  # wrong order


def test_phrase_with_stopword_gap_in_query(phrase_setup):
    searcher, oracle, _ = phrase_setup
    # query "quick the brown": analyzed to quick@0, brown@2 -> matches doc 1
    q = parse_query('"quick the brown"')
    assert q.term_positions() == (0, 2)
    hits = searcher.search(q, k=10)
    _same(hits, oracle.top_k(q, 10))
    # the position gap matches ANY middle token (Lucene semantics):
    # doc 1 "quick the brown" and doc 5 "quick fox brown" both align
    assert {d for d, _ in hits} == {1, 5}


def test_phrase_freq_affects_score(phrase_setup):
    searcher, oracle, _ = phrase_setup
    q = PhraseQuery(terms=("quick", "brown"))
    hits = dict(searcher.search(q, k=10))
    # doc 3 has phrase freq 2; its raw tf-component must exceed a freq-1 doc
    # of the same length class - just assert oracle equality and freq-2 doc wins
    _same(sorted(hits.items(), key=lambda h: (-h[1], h[0])), oracle.top_k(q, 10))


def test_phrase_absent_term(phrase_setup):
    searcher, oracle, _ = phrase_setup
    q = PhraseQuery(terms=("quick", "zzzznope"))
    assert searcher.search(q, k=10) == []


def test_phrase_on_synthetic_corpus_multiseg(tmp_path):
    corpus = generate_corpus(300, seed=77)
    idx = str(tmp_path / "idx")
    build_index_from_table(corpus, idx, target_rows_per_segment=60, index_options="positions")
    oracle = OracleIndex(corpus.column("content").to_pylist())
    searcher = Searcher(idx, use_actors=False)
    for qs in ['"public import"', '"import class"', '"rare1 rare2"']:
        q = parse_query(qs)
        _same(searcher.search(q, k=10), oracle.top_k(q, 10))


def test_dismax(phrase_setup):
    searcher, oracle, _ = phrase_setup
    q = DisjunctionMaxQuery(
        disjuncts=(TermQuery(term="quick"), TermQuery(term="fox")), tie_breaker=0.3
    )
    _same(searcher.search(q, k=10), oracle.top_k(q, 10))
    q0 = DisjunctionMaxQuery(disjuncts=(TermQuery(term="quick"), TermQuery(term="fox")))
    _same(searcher.search(q0, k=10), oracle.top_k(q0, 10))


def test_freqs_only_index_rejects_phrase(tmp_path):
    idx = str(tmp_path / "idx")
    build_index_from_table(pa.table({"content": DOCS}), idx, target_rows_per_segment=100)
    s = Searcher(idx, use_actors=False)
    with pytest.raises(ValueError):
        s.search(PhraseQuery(terms=("quick", "brown")), k=5)


# --- sloppy phrase: hand-derived SloppyPhraseScorer.PhraseFreq vectors ------

def test_sloppy_freq_hand_vectors():
    from lucene_net_ray.pipelines.scorer import _sloppy_phrase_freq

    # "a b"~1 on "a x b": a@0, b@2 -> adjusted a=[0], b=[1]; matchLength 1
    assert _sloppy_phrase_freq([[0], [1]], 1) == pytest.approx(0.5)
    # same but slop 0 -> no match
    assert _sloppy_phrase_freq([[0], [1]], 0) == 0.0
    # transposed "b a": adjusted a=[1], b=[-1]; distance 2
    assert _sloppy_phrase_freq([[1], [-1]], 1) == 0.0
    assert _sloppy_phrase_freq([[1], [-1]], 2) == pytest.approx(1 / 3)
    # exact adjacency: distance 0 -> slop factor 1
    assert _sloppy_phrase_freq([[0], [0]], 0) == pytest.approx(1.0)
    # two exact occurrences -> freq 2
    assert _sloppy_phrase_freq([[0, 5], [0, 5]], 0) == pytest.approx(2.0)


def test_sloppy_phrase_engine_vs_oracle(tmp_path):
    docs = [
        "quick brown fox",          # exact
        "quick red brown fox",      # gap 1
        "brown quick fox",          # transposed
        "quick aa bb cc brown",     # gap 3
        "nothing here",
    ]
    idx = str(tmp_path / "idx")
    build_index_from_table(
        pa.table({"content": docs}), idx, target_rows_per_segment=3, index_options="positions"
    )
    oracle = OracleIndex(docs)
    searcher = Searcher(idx, use_actors=False)
    for slop in (1, 2, 3):
        q = PhraseQuery(terms=("quick", "brown"), slop=slop)
        hits = searcher.search(q, k=10)
        expected = oracle.top_k(q, 10)
        assert [d for d, _ in hits] == [d for d, _ in expected], slop
        for (d1, s1), (d2, s2) in zip(hits, expected):
            assert np.float32(s1) == np.float32(s2)
    # slop=1 matches docs 0,1 and the transposed doc only at slop>=2
    ids1 = {d for d, _ in searcher.search(PhraseQuery(terms=("quick", "brown"), slop=1), k=10)}
    assert ids1 == {0, 1}
    ids2 = {d for d, _ in searcher.search(PhraseQuery(terms=("quick", "brown"), slop=2), k=10)}
    assert ids2 == {0, 1, 2}
    ids3 = {d for d, _ in searcher.search(PhraseQuery(terms=("quick", "brown"), slop=3), k=10)}
    assert ids3 == {0, 1, 2, 3}


def test_sloppy_parser_syntax(tmp_path):
    q = parse_query('"quick brown"~2')
    assert isinstance(q, PhraseQuery) and q.slop == 2
    q = parse_query('"public static"^2')
    assert isinstance(q, PhraseQuery) and q.boost == 2.0


def test_sloppy_phrase_repeating_terms(tmp_path):
    """SloppyPhraseScorer repeat handling (SloppyPhraseScorer.cs:338-383):
    repeated query terms must bind to DISTINCT document positions."""
    from lucene_net_ray.pipelines.scorer import _sloppy_phrase_freq_rpts

    # "my my"~2 over doc "my x my": positions my@[0,2]
    slots = [([0, 2], 0, "my"), ([-1, 1], 1, "my")]
    assert _sloppy_phrase_freq_rpts(slots, 2) == np.float32(0.5)  # window len 1
    # doc "my my": adjacent -> exact-distance match
    slots = [([0, 1], 0, "my"), ([-1, 0], 1, "my")]
    assert _sloppy_phrase_freq_rpts(slots, 2) == np.float32(1.0)
    # doc with only ONE 'my' can never match "my my"
    slots = [([0], 0, "my"), ([-1], 1, "my")]
    assert _sloppy_phrase_freq_rpts(slots, 4) == 0.0
    # "ho my my"~1 over "ho my my"
    slots = [([0], 0, "ho"), ([0, 1], 1, "my"), ([-1, 0], 2, "my")]
    assert _sloppy_phrase_freq_rpts(slots, 1) == np.float32(1.0)


def test_sloppy_phrase_repeats_through_engine(tmp_path):
    import pyarrow as pa

    from lucene_net_ray.pipelines.build import build_index_from_table
    from lucene_net_ray.pipelines.search import Searcher
    from lucene_net_ray.query import parse_query

    docs = [
        "my dog my cat",      # my@0,2 -> "my my"~2 window len 2 -> 1/3
        "my my twice here",   # adjacent -> 1.0
        "only one my here",   # single occurrence -> no match
        "nothing relevant",
    ]
    idx = str(tmp_path / "idx")
    build_index_from_table(pa.table({"content": docs}), idx,
                           index_options="positions", target_rows_per_segment=2)
    s = Searcher(idx, use_actors=False)
    q = parse_query('"my my"~2')
    hits = s.search(q, k=5)
    assert [d for d, _ in hits] == [1, 0]
    assert s.count(q) == 2


# -- MultiPhraseQuery -------------------------------------------------------

def test_multi_phrase_single_terms_equals_phrase(phrase_setup):
    """One term per position == plain PhraseQuery, scores bit-identical."""
    from lucene_net_ray.query import MultiPhraseQuery

    searcher, _, _ = phrase_setup
    pq = PhraseQuery(terms=("quick", "brown"))
    mq = MultiPhraseQuery(positions_terms=(("quick",), ("brown",)))
    hp = searcher.search(pq, k=10)
    hm = searcher.search(mq, k=10)
    assert [d for d, _ in hp] == [d for d, _ in hm]
    assert [np.float32(s) for _, s in hp] == [np.float32(s) for _, s in hm]


def test_multi_phrase_union_matches(phrase_setup):
    """'quick (fox|brown)': doc5 'quick fox ...' joins the 'quick brown' docs."""
    from lucene_net_ray.query import MultiPhraseQuery

    searcher, _, _ = phrase_setup
    mq = MultiPhraseQuery(positions_terms=(("quick",), ("fox", "brown")))
    ids = {d for d, _ in searcher.search(mq, k=10)}
    only_brown = {d for d, _ in searcher.search(PhraseQuery(terms=("quick", "brown")), k=10)}
    only_fox = {d for d, _ in searcher.search(PhraseQuery(terms=("quick", "fox")), k=10)}
    assert ids == only_brown | only_fox
    assert 5 in ids  # "quick fox brown"


def test_multi_phrase_freq_and_empty_position(phrase_setup):
    from lucene_net_ray.query import MultiPhraseQuery

    searcher, _, _ = phrase_setup
    # doc3 "quick brown quick brown dog" has phrase freq 2: it must outrank
    # freq-1 docs of equal length... just assert it matches and is ranked first
    mq = MultiPhraseQuery(positions_terms=(("quick",), ("brown", "cat")))
    hits = searcher.search(mq, k=10)
    assert hits[0][0] == 3
    # a position only fillable by absent terms matches nothing
    none = MultiPhraseQuery(positions_terms=(("quick",), ("zzznope",)))
    assert searcher.search(none, k=10) == []


def test_multi_phrase_sloppy(phrase_setup):
    from lucene_net_ray.query import MultiPhraseQuery

    searcher, _, _ = phrase_setup
    # doc1 "quick the brown fox": gap 1 -> needs slop 1
    exact = MultiPhraseQuery(positions_terms=(("quick",), ("brown", "cat")))
    sloppy = MultiPhraseQuery(positions_terms=(("quick",), ("brown", "cat")), slop=1)
    ids_exact = {d for d, _ in searcher.search(exact, k=10)}
    ids_sloppy = {d for d, _ in searcher.search(sloppy, k=10)}
    assert 1 not in ids_exact and 1 in ids_sloppy
    assert ids_exact <= ids_sloppy
    # sloppy with single terms == sloppy PhraseQuery, scores identical
    mq1 = MultiPhraseQuery(positions_terms=(("quick",), ("fox",)), slop=2)
    pq1 = PhraseQuery(terms=("quick", "fox"), slop=2)
    hm = searcher.search(mq1, k=10)
    hp = searcher.search(pq1, k=10)
    assert [(d, np.float32(s)) for d, s in hm] == [(d, np.float32(s)) for d, s in hp]


def test_match_phrase_prefix(phrase_setup):
    """Search-as-you-type: last term expands as a prefix inside the phrase."""
    from lucene_net_ray.pipelines.collectors import match_phrase_prefix
    from lucene_net_ray.query import MultiPhraseQuery

    searcher, _, _ = phrase_setup
    q = match_phrase_prefix(searcher, "quick bro")
    assert isinstance(q, MultiPhraseQuery)
    # "bro" completes to "brown": same docs as the full phrase
    full = {d for d, _ in searcher.search(PhraseQuery(terms=("quick", "brown")), k=10)}
    got = {d for d, _ in searcher.search(q, k=10)}
    assert got == full and got
    # a prefix matching several terms unions them: "quick f|c" -> fox/cat
    q2 = match_phrase_prefix(searcher, "quick f")
    ids2 = {d for d, _ in searcher.search(q2, k=10)}
    assert 5 in ids2  # "quick fox brown"
    # unexpandable prefix matches nothing
    q3 = match_phrase_prefix(searcher, "quick zzz")
    assert searcher.search(q3, k=10) == []
    # single-term input degrades to prefix semantics
    q4 = match_phrase_prefix(searcher, "qui")
    assert {d for d, _ in searcher.search(q4, k=10)} >= full
