"""Codecs/Bloom analog: single-hash term fuzzy-sets.

Contract pinned from the reference
(Codecs/Bloom/FuzzySet.cs, DefaultBloomFilterFactory.cs,
BloomFilteringPostingsFormat.cs): never a false negative; sized to ~10%
saturation and downsized before save; not saved when >90% full; used to
answer 'definitely absent' before touching the term dictionary (a segment
group's term_stats). The searcher's own df lookups go to its term table.
"""

import numpy as np
import pyarrow as pa
import pytest

from lucene_net_ray.functions.bloom import FuzzySet, build_term_bloom, _hash_many
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.query import parse_query


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


@pytest.fixture(scope="module")
def bloom_index(tmp_path_factory):
    docs = pa.table(
        {
            "doc_id": pa.array(range(40), pa.int64()),
            "content": pa.array(
                [f"alpha bravo doc{i} shared" for i in range(20)]
                + [f"charlie delta doc{i} shared" for i in range(20, 40)]
            ),
        }
    )
    out = str(tmp_path_factory.mktemp("bloomidx") / "idx")
    meta = build_index_from_table(docs, out, content_column="content", target_rows_per_segment=20)
    return meta


def test_build_writes_bloom_and_reader_loads(bloom_index):
    import os

    from lucene_net_ray.state.segment import SegmentReader

    assert len(bloom_index.segment_dirs) == 2
    for d in bloom_index.segment_dirs:
        assert os.path.exists(os.path.join(d, "bloom.bin"))
        r = SegmentReader(d)
        bl = r.term_bloom
        assert bl is not None
        assert bl.may_contain_many(list(r.terms)).all()


def test_group_term_stats_with_bloom_exact(bloom_index):
    s = Searcher(bloom_index, use_actors=False)
    # the driver's term table and the groups' bloom-skipping term_stats both
    # agree with brute force for present + absent terms
    probe = ["alpha", "charlie", "shared", "doc5", "doc25", "zyzzyva", "qqq"]
    want = {"alpha": 20, "charlie": 20, "shared": 40, "doc5": 1, "doc25": 1,
            "zyzzyva": 0, "qqq": 0}
    assert s._stats_for_terms(probe) == want
    summed = dict.fromkeys(probe, 0)
    for g in s.groups:
        for t, (df, _ttf) in g.term_stats(probe).items():
            summed[t] += df
    assert summed == want


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
    for text in ("alpha", "shared", "alpha OR charlie", "doc7 doc27", "zzz alpha"):
        q = parse_query(text)
        assert s_table.search(q, k=10) == s_fanout.search(q, k=10), text


def test_term_bloom_flag_disables_write(tmp_path):
    import os

    docs = pa.table(
        {"doc_id": pa.array(range(5), pa.int64()),
         "content": pa.array([f"alpha doc{i}" for i in range(5)])}
    )
    from lucene_net_ray.pipelines.build import build_index_from_table

    out = str(tmp_path / "nobloom")
    meta = build_index_from_table(docs, out, content_column="content", term_bloom=False)
    for d in meta.segment_dirs:
        assert not os.path.exists(os.path.join(d, "bloom.bin"))
    # search still correct, just no fast-negative path
    s = Searcher(meta, use_actors=False)
    assert s._stats_for_terms(["alpha", "zzz"]) == {"alpha": 5, "zzz": 0}
    assert s.groups[0].term_stats(["alpha", "zzz"]) == {"alpha": [5, 5], "zzz": [0, 0]}
