"""The generator's facts against the brute-force oracle, on a small corpus.

    python3 -m pytest perfbench/tests -q

Every fact the benchmark checks the engine against (``max_doc``, ``sum_ttf``,
each term's df, the query-term classes) comes from the generator, so these
tests pin it to ``oracle.OracleIndex``, which shares no code with the
engine's postings path.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(os.path.dirname(HERE)))

import gen  # noqa: E402
from lucene_net_ray.functions.analysis import Analyzer  # noqa: E402
from lucene_net_ray.oracle import OracleIndex  # noqa: E402
from lucene_net_ray.query import parse_query  # noqa: E402

SMALL = gen.Params(docs=3_000, vocab=20_000, mean_len=40.0, rows_per_group=500)


@pytest.fixture(scope="module")
def corpus():
    return gen.generate(SMALL, seed=3)


@pytest.fixture(scope="module")
def oracle(corpus):
    return OracleIndex(corpus.contents)


def test_same_seed_same_corpus(corpus):
    again = gen.generate(SMALL, seed=3)
    assert again.contents == corpus.contents
    assert np.array_equal(again.df, corpus.df)
    assert gen.generate(SMALL, seed=4).contents != corpus.contents


def test_every_vocabulary_entry_is_one_distinct_term():
    vocab = gen.make_vocab(np.random.default_rng([11, 0]), 20_000)
    a = Analyzer()
    terms = [a(w) for w in vocab]
    assert all(len(t) == 1 for t in terms)
    assert len({t[0] for t in terms}) == len(vocab)
    shapes = {"host": 0, "num": 0, "camel": 0}
    for w in vocab:
        if w.startswith("org."):
            shapes["host"] += 1
        elif any(ch.isdigit() for ch in w):
            shapes["num"] += 1
        elif w != w.lower():
            shapes["camel"] += 1
    assert all(v > 0 for v in shapes.values()), shapes


def test_collection_stats_match_oracle(corpus, oracle):
    assert oracle.max_doc == corpus.max_doc
    assert oracle.sum_ttf == corpus.sum_ttf
    assert len(oracle.df) == corpus.distinct_terms


def test_df_matches_oracle(corpus, oracle):
    for word, d in zip(corpus.vocab, corpus.df):
        assert oracle.df.get(word.lower(), 0) == d, word


def test_stopwords_present_but_not_indexed(corpus, oracle):
    tokens = " ".join(corpus.contents).split()
    assert set(gen.STOPWORDS) <= set(tokens)
    assert not set(gen.STOPWORDS) & set(oracle.df)


def test_query_streams_use_the_promised_term_classes(corpus, oracle):
    pools = gen.term_pools(corpus)
    assert all(1 <= oracle.df[t] <= gen.RARE_MAX_DF for t in pools.rare)
    assert all(oracle.df[t] > gen.RARE_MAX_DF for t in pools.mid + pools.head)
    n = 200
    for qs in (gen.point_queries(pools, n, 3), gen.bulk_queries(pools, n, 3)):
        assert len(qs) == n
        for q in qs:
            for t in gen.query_terms(q):
                assert oracle.df[t] >= 1
            parse_query(q)  # every generated query parses
    point = gen.point_queries(pools, n, 3)
    assert point == gen.point_queries(pools, n, 3)
    single = sum(1 for q in point if len(q.split()) == 1)
    assert 0.4 < single / n < 0.6


def test_query_properties(corpus):
    pools = gen.term_pools(corpus)
    df_of = gen.df_lookup(corpus)
    bulk = gen.query_properties(gen.bulk_queries(pools, 500, 3), df_of)
    point = gen.query_properties(gen.point_queries(pools, 100, 3), df_of)
    assert bulk["cold_share"] < point["cold_share"]
    assert bulk["mean_query_df"] > gen.RARE_MAX_DF


def test_oracle_answers_generated_queries(corpus, oracle):
    pools = gen.term_pools(corpus)
    for q in gen.point_queries(pools, 30, 5):
        hits = oracle.top_k(parse_query(q), 10)
        if " " not in q:  # a single rare term always matches its df docs
            assert len(hits) == min(10, oracle.df[q])


def test_cache_round_trip(tmp_path):
    c1, d1 = gen.cached_corpus(str(tmp_path), SMALL, 3)
    c2, d2 = gen.cached_corpus(str(tmp_path), SMALL, 3)
    assert d1 == d2
    assert c1.contents == c2.contents
    assert np.array_equal(c1.df, c2.df)
    assert (c1.sum_ttf, c1.content_bytes) == (c2.sum_ttf, c2.content_bytes)
    for s in range(4, 8):
        gen.cached_corpus(str(tmp_path), SMALL, s, keep=3)
    assert len(os.listdir(tmp_path)) == 3
