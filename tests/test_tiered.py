"""TieredMergePolicy selection + segment-level compaction."""

import numpy as np
import pyarrow as pa

from lucene_net_ray.oracle import OracleIndex
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.pipelines.tiered import compact_segments, plan_merges
from lucene_net_ray.query import parse_query
from lucene_net_ray.sources.corpus import generate_corpus
from lucene_net_ray.state.checkindex import check_index


def test_plan_merges_policy():
    # 20 tiny equal segments -> policy wants them merged down toward one tier
    sizes = [1 << 20] * 20  # all below the 2MB floor
    merges = plan_merges(sizes)
    assert merges, "tiny segments must be selected for merging"
    assert all(2 <= len(g) <= 10 for g in merges)
    # a huge segment is never grouped beyond the merged-size cap
    sizes = [6 << 30, 1 << 20, 1 << 20]
    merges = plan_merges(sizes, max_merged_bytes=5 << 30)
    for g in merges:
        assert 0 not in g  # the 6GB segment stays alone
    # few big same-tier segments: nothing to do
    assert plan_merges([1 << 30] * 3) == []


def test_compact_segments_equivalence(tmp_path):
    corpus = generate_corpus(240, seed=17)
    contents = corpus.column("content").to_pylist()
    idx = str(tmp_path / "idx")
    build_index_from_table(corpus, idx, target_rows_per_segment=20,
                          index_options="positions")  # 12 tiny segments
    # force aggressive compaction so several merges actually run
    out = str(tmp_path / "compacted")
    compacted = compact_segments(idx, out, segs_per_tier=2.0, max_merge_at_once=4)
    assert len(compacted.manifest["segments"]) < 12
    check_index(compacted)
    assert compacted.max_doc == 240
    assert compacted.sum_ttf == Searcher(idx, use_actors=False).index.sum_ttf

    oracle = OracleIndex(contents)
    s = Searcher(compacted, use_actors=False)
    for qs in ["public", "+public +query", "query token score", '"public static"', "zyzzyva"]:
        q = parse_query(qs)
        hits = s.search(q, k=10)
        expected = oracle.top_k(q, 10)
        assert [d for d, _ in hits] == [d for d, _ in expected], qs
        for (d1, s1), (d2, s2) in zip(hits, expected):
            assert np.float32(s1) == np.float32(s2)


def _assert_matches_oracle(index, contents, queries):
    oracle = OracleIndex(contents)
    s = Searcher(index, use_actors=False)
    for qs in queries:
        q = parse_query(qs)
        hits = s.search(q, k=10)
        expected = oracle.top_k(q, 10)
        assert [d for d, _ in hits] == [d for d, _ in expected], qs
        for (_, s1), (_, s2) in zip(hits, expected):
            assert np.float32(s1) == np.float32(s2), qs


def test_compact_mixed_index_options(tmp_path):
    """A merged segment keeps positions only if every source has them: a
    positions segment merged with a freqs one gives a freqs segment that
    checks clean, not one whose meta claims positions it does not hold."""
    from lucene_net_ray.pipelines.maintenance import add_indexes, split_index
    from lucene_net_ray.state.segment import SegmentReader

    a_corpus, b_corpus = generate_corpus(60, seed=1), generate_corpus(60, seed=2)
    a_docs = a_corpus.column("content").to_pylist()
    a = build_index_from_table(a_corpus, str(tmp_path / "a"), target_rows_per_segment=30,
                               index_options="positions")
    b = build_index_from_table(b_corpus, str(tmp_path / "b"), target_rows_per_segment=30)
    mixed = add_indexes(str(tmp_path / "mixed"), a, b)  # 2 positions + 2 freqs segments

    one = compact_segments(mixed, str(tmp_path / "one"), segs_per_tier=2.0, max_merge_at_once=4)
    assert one.manifest["merge_plan"] == [[0, 1, 2, 3]]
    assert SegmentReader(one.segment_dirs[0]).meta["index_options"] == "freqs"
    check_index(one)
    _assert_matches_oracle(one, a_docs + b_corpus.column("content").to_pylist(),
                           ["public", "+public +query", "query token score"])

    # merging only the positions segments keeps their positions
    part = compact_segments(mixed, str(tmp_path / "part"), segs_per_tier=2.0, max_merge_at_once=2)
    assert part.manifest["merge_plan"] == [[0, 1], [2], [3]]
    assert SegmentReader(part.segment_dirs[0]).meta["index_options"] == "positions"
    check_index(part)
    positional = split_index(part, [str(tmp_path / f"p{i}") for i in range(3)])[0]
    _assert_matches_oracle(positional, a_docs, ['"public static"', '+public "query token"'])


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=40, max_value=90),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["public", "query", "zyzzyva", "quux"]),
)
def test_lifecycle_random_property(tmp_path_factory, n_docs, seed, del_term):
    """delete -> expunge -> compact -> search == oracle over the live docs."""
    from lucene_net_ray.pipelines.maintenance import expunge_deletes
    from lucene_net_ray.query import TermQuery
    from lucene_net_ray.state.deletes import delete_by_query

    corpus = generate_corpus(n_docs, seed=seed)
    contents = corpus.column("content").to_pylist()
    base = tmp_path_factory.mktemp("life")
    idx = str(base / "idx")
    build_index_from_table(corpus, idx, target_rows_per_segment=13)
    delete_by_query(idx, TermQuery(term=del_term))
    exp = expunge_deletes(idx, str(base / "exp"))
    check_index(exp)
    comp = compact_segments(exp, str(base / "cmp"), segs_per_tier=2.0)
    check_index(comp)
    live = [c for c in contents if del_term not in c.split()]
    assert comp.max_doc == len(live)
    oracle = OracleIndex(live)
    s = Searcher(comp, use_actors=False)
    for qs in ["public", "+public +query", "query token"]:
        q = parse_query(qs)
        hits = s.search(q, k=10)
        expected = oracle.top_k(q, 10)
        assert [d for d, _ in hits] == [d for d, _ in expected], (qs, del_term)
        for (_, s1), (_, s2) in zip(hits, expected):
            assert np.float32(s1) == np.float32(s2)
