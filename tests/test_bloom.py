"""Codecs/Bloom analog, now a standalone primitive: single-hash term
fuzzy-sets, and the serving path that no longer uses them.

Contract of ``FuzzySet`` pinned from the reference
(Codecs/Bloom/FuzzySet.cs, DefaultBloomFilterFactory.cs): never a false
negative; sized to ~10% saturation and downsized before save; not saved when
>90% full. A build writes no ``bloom.bin``: df comes from the searcher's
per-field term table, and a shard's field-keyed term_stats reads its term
dicts directly. An index that still carries ``bloom.bin`` from an older
build opens and answers identically; the reader ignores the file.
"""

import os
import random

import numpy as np
import pyarrow as pa
import pytest

from lucene_net_ray.functions.bloom import FuzzySet, build_term_bloom, _hash_many
from lucene_net_ray.oracle import OracleIndex
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.merge import MergedSearcher, merge_index
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.query import parse_query
from lucene_net_ray.state.checkindex import check_index
from lucene_net_ray.state.segment import SegmentReader


def test_no_false_negatives_and_bounded_fp():
    terms = [f"term{i:06d}" for i in range(50_000)]
    s = build_term_bloom(terms)
    assert s is not None
    assert s.may_contain_many(terms).all()
    fp = s.may_contain_many([f"zz{i}" for i in range(10_000)]).mean()
    assert fp < 0.25  # single-hash set at ~10% saturation
    assert s.saturation() <= 0.11


def test_downsize_preserves_membership():
    big = FuzzySet.create_for_quality(50_000)
    big.add_many(["x", "y", "z"])
    small = big.downsize()
    assert small.mask < big.mask  # three terms fold into the smallest set
    assert small.may_contain_many(["x", "y", "z"]).all()
    a = build_term_bloom([f"a{i}" for i in range(1000)])
    b = build_term_bloom(["x", "y", "z"])  # much smaller set
    assert a.mask > b.mask
    assert a.may_contain_many([f"a{i}" for i in range(1000)]).all()
    assert b.may_contain("x") and b.may_contain("z")


def test_save_load_roundtrip(tmp_path):
    s = build_term_bloom(["alpha", "beta", "gamma"])
    p = str(tmp_path / "bloom.bin")
    s.save(p)
    t = FuzzySet.load(p)
    assert t.mask == s.mask and (t.words == s.words).all()
    assert t.may_contain("alpha") and t.may_contain("gamma")


def test_hash_vectorization_matches_itself():
    # arrow-array and python-list inputs hash identically
    terms = ["", "a", "abc", "ü" * 40, "longer-term-here"]
    assert (_hash_many(terms) == _hash_many(pa.array(terms))).all()


def test_empty_and_saturated():
    s = build_term_bloom([])
    assert s is not None and not s.may_contain("anything")
    # >90% saturation -> None (the reference's don't-save rule): the size cap
    # (2^26 bits) forces saturation with enough distinct values, so emulate
    # with a tiny hand-built set instead of 60M terms
    tiny = FuzzySet(np.full(1, ~np.uint64(0)), 63)
    assert tiny.saturation() == 1.0


VOCAB = "echo foxtrot golf hotel".split()  # repeats, so ttf differs from df
DOCS = [f"alpha bravo doc{i} shared" for i in range(20)] + [f"charlie delta doc{i} shared" for i in range(20, 40)]
DOCS += [" ".join(random.Random(i).choices(VOCAB, k=6)) for i in range(40, 60)]
PROBE = ["alpha", "charlie", "shared", "doc5", "doc25", "golf", "zyzzyva", "qqq", ""]
QUERIES = ["alpha", "shared", "alpha OR charlie", "doc7 doc27", "zzz alpha", "+golf -echo", '"alpha bravo"']


@pytest.fixture(scope="module")
def bloom_index(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bloomidx") / "idx")
    meta = build_index_from_table(
        pa.table({"content": DOCS}), out, target_rows_per_segment=20, index_options="positions"
    )
    assert len(meta.segment_dirs) == 3
    return meta


def _ttf(oracle: OracleIndex, term: str) -> int:
    return sum(d.get(term, 0) for d in oracle.docs)


def test_build_writes_no_bloom(bloom_index):
    for d in bloom_index.segment_dirs:
        assert not os.path.exists(os.path.join(d, "bloom.bin")), d


def test_field_keyed_term_stats_match_oracle(bloom_index, tmp_path):
    """term_stats({field: terms}) -> {field: {term: (df, ttf)}}: summed over
    the groups it equals the oracle's df and ttf, on the segmented and the
    merged layout; a group asked only for another field answers nothing."""
    oracle = OracleIndex(DOCS)
    want = {t: (oracle.df.get(t, 0), _ttf(oracle, t)) for t in PROBE}
    assert want["shared"] == (40, 40) and want["zyzzyva"] == (0, 0)
    assert want["golf"][1] > want["golf"][0]
    s = Searcher(bloom_index, num_actors=2, use_actors=False)
    assert s._term_stats({"content": PROBE}) == {"content": want}
    summed = dict.fromkeys(PROBE, (0, 0))
    for g in s.groups:
        part = g.term_stats({"content": PROBE, "title": ["alpha"]})
        assert list(part) == ["content"]
        for t, (df, ttf) in part["content"].items():
            summed[t] = (summed[t][0] + df, summed[t][1] + ttf)
        assert g.term_stats({"title": ["alpha"]}) == {}
    assert summed == want
    merged = str(tmp_path / "merged")
    merge_index(bloom_index.index_dir, merged)
    assert MergedSearcher(merged)._term_stats({"content": PROBE}) == {"content": want}


def test_leftover_bloom_file_answers_identically(bloom_index, tmp_path):
    """An index whose segments still carry bloom.bin from an older build
    checks clean and gives the same df and hits as without it."""
    import shutil

    old = str(tmp_path / "old")
    shutil.copytree(bloom_index.index_dir, old)
    s_new = Searcher(bloom_index, use_actors=False)
    s_old = Searcher(old, use_actors=False)
    for d in s_old.index.segment_dirs:
        build_term_bloom(SegmentReader(d).term_column).save(os.path.join(d, "bloom.bin"))
    assert check_index(old) == check_index(bloom_index)
    assert s_old._stats_for_terms(PROBE) == s_new._stats_for_terms(PROBE)
    assert s_old._df_table["content"][0].tolist() == s_new._df_table["content"][0].tolist()
    for text in QUERIES:
        q = parse_query(text)
        assert s_old.search(q, k=10) == s_new.search(q, k=10), text
        assert s_old.count(q) == s_new.count(q), text


def test_df_lookup_makes_no_fanout(bloom_index):
    """Once the term table is loaded, df of present and absent terms comes
    from the driver alone: no shard is called."""
    s = Searcher(bloom_index, use_actors=False)
    assert s._df_table is not None
    calls = []
    real = s._call
    s._call = lambda method, *args: calls.append(method) or real(method, *args)
    got = s._stats_for_terms(["zzzz-not-there-1", "alpha", "zzzz-not-there-2"])
    assert got == {"zzzz-not-there-1": 0, "alpha": 20, "zzzz-not-there-2": 0}
    assert calls == []


def test_search_results_identical_without_term_table(bloom_index, monkeypatch):
    """The term table gives the same results as df gathered from the
    shards' term_stats, the path of layouts that keep no table."""
    s_table = Searcher(bloom_index, use_actors=False)
    s_fanout = Searcher(bloom_index, use_actors=False)
    monkeypatch.setattr(s_fanout, "_df_table", None)
    assert s_table._stats_for_terms(PROBE) == s_fanout._stats_for_terms(PROBE)
    for text in QUERIES:
        q = parse_query(text)
        assert s_table.search(q, k=10) == s_fanout.search(q, k=10), text
