"""Merge equivalence (SURVEY.md §5d): P-partition index + groupby(term) merge
== 1-partition index — same stats, same postings, same query results."""

import numpy as np
import pytest

from lucene_net_ray.oracle import OracleIndex
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.merge import (
    MergedSearcher,
    global_term_stats,
    high_freq_terms,
    merge_index,
)
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.query import parse_query
from lucene_net_ray.sources.corpus import generate_corpus
from lucene_net_ray.state.checkindex import check_index
from lucene_net_ray.state.index import IndexMeta


@pytest.fixture(scope="module")
def setup(tmp_path_factory):
    corpus = generate_corpus(300, seed=21)
    oracle = OracleIndex(corpus.column("content").to_pylist())
    idx = str(tmp_path_factory.mktemp("idx"))
    build_index_from_table(corpus, idx, target_rows_per_segment=50)  # 6 segments
    merged_dir = str(tmp_path_factory.mktemp("merged"))
    merge_index(idx, merged_dir, bucket_size=2)  # force multi-chunk head terms
    return IndexMeta(idx), merged_dir, oracle


def test_check_index(setup):
    meta, _, oracle = setup
    totals = check_index(meta)
    assert totals["docs"] == oracle.max_doc
    assert totals["segments"] == 6


def test_global_term_stats_match_oracle(setup):
    meta, _, oracle = setup
    stats = {r["term"]: (r["df"], r["ttf"]) for r in global_term_stats(meta).take_all()}
    assert len(stats) == len(oracle.df)
    for term, df in oracle.df.items():
        assert stats[term][0] == df, term
    ttf_oracle = {}
    for docc in oracle.docs:
        for t, tf in docc.items():
            ttf_oracle[t] = ttf_oracle.get(t, 0) + tf
    for term, (d, tt) in stats.items():
        assert tt == ttf_oracle[term], term


def test_high_freq_terms(setup):
    meta, _, oracle = setup
    top = high_freq_terms(meta, k=5).take_all()
    expected = sorted(oracle.df.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    assert [(r["term"], r["df"]) for r in top] == expected


def test_merged_head_terms_are_chunked(setup):
    _, merged_dir, _ = setup
    from lucene_net_ray.pipelines.merge import MergedIndexReader

    r = MergedIndexReader(merged_dir)
    rows = r._rows_for_term("public", ["term", "bucket", "first_seg", "df"])
    assert rows.num_rows >= 2  # sharded across buckets, never one reduce blob


def test_merged_postings_equal_segmented(setup):
    meta, merged_dir, oracle = setup
    from lucene_net_ray.pipelines.merge import MergedIndexReader
    from lucene_net_ray.state.segment import SegmentReader

    mr = MergedIndexReader(merged_dir)
    readers = [SegmentReader(d) for d in meta.segment_dirs]
    for term in ["public", "query", "zyzzyva", "x86_64"]:
        parts = []
        for r in readers:
            d, t = r.postings(term)
            parts.append((d + r.doc_base, t))
        seg_docs = np.concatenate([p[0] for p in parts])
        seg_tfs = np.concatenate([p[1] for p in parts])
        m_docs, m_tfs = mr.postings(term)
        assert np.array_equal(m_docs, seg_docs), term
        assert np.array_equal(m_tfs, seg_tfs), term
        df, ttf = mr.term_stats(term)
        assert df == oracle.df.get(term, 0)


def test_merged_search_equals_oracle_and_segmented(setup):
    meta, merged_dir, oracle = setup
    seg_searcher = Searcher(meta, use_actors=False)
    m = MergedSearcher(merged_dir)
    for qs in ["public", "+public +query", "query token score", "+query -public", "zyzzyva"]:
        q = parse_query(qs)
        mh = m.search(q, k=10)
        sh = seg_searcher.search(q, k=10)
        oh = oracle.top_k(q, 10)
        assert [d for d, _ in mh] == [d for d, _ in oh]
        for (d1, s1), (d2, s2) in zip(mh, oh):
            assert np.float32(s1) == np.float32(s2)
        assert mh == sh
        assert m.count(q) == oracle.count(q)


def test_merged_reader_is_lazy(setup):
    """Round-2 scale fix: the merged reader must hold O(parts manifest)
    state, loading part rows and norms only for terms/docs actually touched
    (the round-1 reader concat-all'ed the whole merged index)."""
    _, merged_dir, _ = setup
    from lucene_net_ray.pipelines.merge import MergedIndexReader

    r = MergedIndexReader(merged_dir)
    assert r._terms_cache is None  # vocabulary not materialized on open
    assert not r.norms._cache and r.norms._flat is None  # no norms on open
    assert r.parts.parts_read == 0
    d, t = r.postings("public")
    assert d.size > 0
    assert r.parts.parts_read <= len(r.parts.entries)  # only covering parts touched
    # norms load lazily when scoring first needs them (flat regime here:
    # 1 byte/doc, whole array ~ doc_count bytes)
    _ = r.norms[d[:5]]
    assert r.norms._flat is not None and r.norms._flat.size == r.doc_count
    # absent term resolves from the manifest / row-group stats alone
    before = r.parts.parts_read
    assert r.term_stats("zzzz_not_a_term_zzzz") == (0, 0)
    assert r.parts.parts_read - before <= 1


def test_merged_multiterm_never_loads_full_vocab(setup):
    """Round-3 scale fix: prefix/wildcard/regexp/range/fuzzy rewrites on the
    merged layout must take their candidate slice via terms_in_range (only
    covering parts), never the concat-everything `terms` property — the
    round-2 O(1 part)-resident guarantee has to survive multi-term queries
    (reference: Search/MultiTermQuery.cs:64 AutomatonTermsEnum walks the
    dict range without materializing it)."""
    meta, merged_dir, _ = setup
    seg = Searcher(meta, use_actors=False)
    m = MergedSearcher(merged_dir)
    for qs in ["pub*", "qu?ry", "/qu[a-z]+/", "[pa TO pz]", "query~1"]:
        q = parse_query(qs)
        assert m.search(q, k=10) == seg.search(q, k=10), qs
        assert m.count(q) == seg.count(q), qs
    assert m.reader._terms_cache is None  # full vocabulary never concat-loaded


def test_merged_fuzzy_unbounded_streams_parts(setup):
    """prefix_length=0 fuzzy has no dict bound: it must stream the parts
    one at a time (iter_term_parts), still without touching `terms`."""
    meta, merged_dir, _ = setup
    from lucene_net_ray.pipelines.scorer import expand_multiterm
    from lucene_net_ray.query import FuzzyQuery

    m = MergedSearcher(merged_dir)
    seg = Searcher(meta, use_actors=False)
    fq = FuzzyQuery(field="content", term="query", max_edits=1, prefix_length=0)
    assert m.search(fq, k=10) == seg.search(fq, k=10)
    assert m.reader._terms_cache is None
    # expansion sets agree with a single-segment full-dict reference
    from lucene_net_ray.state.segment import SegmentReader

    segs = [SegmentReader(d) for d in meta.segment_dirs]
    ref = set()
    for r in segs:
        ref |= {t for t, _ in expand_multiterm(r, fq)}
    got = {t for t, _ in expand_multiterm(m.reader, fq)}
    assert got == ref


def test_merged_wand_equals_exhaustive(setup):
    """Block-max WAND over the merged (term-range-partitioned) layout:
    chunk-start blocks carry absolute first deltas, so only intra-chunk
    blocks rebase — forced-WAND results must equal exhaustive exactly."""
    meta, merged_dir, oracle = setup
    from lucene_net_ray.pipelines.merge import MergedIndexReader
    from lucene_net_ray.pipelines.scorer import SegmentScorer
    from lucene_net_ray.query import BooleanClause, BooleanQuery, TermQuery

    r = MergedIndexReader(merged_dir)
    queries = [
        TermQuery(term="public"),
        TermQuery(term="zyzzyva"),
        BooleanQuery(clauses=(BooleanClause(TermQuery(term="public"), "SHOULD"),
                              BooleanClause(TermQuery(term="query"), "SHOULD"))),
    ]
    for q in queries:
        from lucene_net_ray.pipelines.scorer import query_terms

        df = {t: r.term_stats(t)[0] for t in query_terms(q)}
        stats = {"max_doc": r.doc_count, "sum_ttf": r.sum_ttf, "df": df}
        sc = SegmentScorer(r, stats)
        exh = sc.top_k(q, 10, mode="exhaustive")
        wnd = sc.top_k(q, 10, mode="wand")
        assert exh == wnd, q
        # oracle parity too (scores and ids)
        expected = oracle.top_k(q, 10)
        assert [d for d, _ in wnd] == [d for d, _ in expected]


def test_check_merged_index(setup):
    meta, merged_dir, oracle = setup
    from lucene_net_ray.state.checkindex import check_merged_index

    totals = check_merged_index(merged_dir)
    assert totals["terms"] == len(oracle.df)
    assert totals["sum_ttf"] == meta.sum_ttf
    assert totals["parts"] >= 1


def test_merge_resume_and_crash_safety(tmp_path):
    """merge_index commits via the manifest: a committed merge is skipped on
    re-run, and a crashed run's partial parts never poison the retry."""
    import os

    corpus = generate_corpus(80, seed=33)
    idx = str(tmp_path / "idx")
    build_index_from_table(corpus, idx, target_rows_per_segment=20)
    out = str(tmp_path / "m")
    merge_index(idx, out)
    mtimes = {f: os.path.getmtime(os.path.join(out, "parts", f))
              for f in os.listdir(os.path.join(out, "parts"))}
    merge_index(idx, out)  # no-op resume
    assert mtimes == {f: os.path.getmtime(os.path.join(out, "parts", f))
                      for f in os.listdir(os.path.join(out, "parts"))}
    # simulate a crash: stale partial parts dir, no manifest
    out2 = str(tmp_path / "m2")
    os.makedirs(os.path.join(out2, "parts.tmp99999"))
    open(os.path.join(out2, "parts.tmp99999", "junk.parquet"), "w").write("junk")
    merge_index(idx, out2)
    from lucene_net_ray.pipelines.merge import MergedSearcher
    from lucene_net_ray.state.checkindex import check_merged_index

    check_merged_index(out2)
    s = Searcher(idx, use_actors=False)
    ms = MergedSearcher(out2)
    q = parse_query("public")
    assert ms.search(q, k=10) == s.search(q, k=10)


def test_version2_merged_manifest_is_refused(setup, tmp_path):
    """A merged dir of the older format (per-part term_min/term_max) is
    refused on open and on a resuming merge_index, not misread."""
    import json
    import os
    import shutil

    from lucene_net_ray.pipelines.merge import MergedIndexReader

    meta, merged_dir, _ = setup
    old = str(tmp_path / "v2")
    shutil.copytree(merged_dir, old)
    with open(os.path.join(old, "manifest.json")) as f:
        manifest = json.load(f)
    manifest["version"] = 2
    manifest["parts"] = [
        {"file": p["file"], "term_min": p["min"], "term_max": p["max"], "rows": p["rows"]}
        for p in manifest["parts"]
    ]
    with open(os.path.join(old, "manifest.json"), "w") as f:
        json.dump(manifest, f)
    with pytest.raises(ValueError, match="merge_index"):
        MergedIndexReader(old)
    with pytest.raises(ValueError, match="merge_index"):
        merge_index(meta, old)


def test_sharded_merged_searcher_equals_local(setup):
    """Round-3: term-range-sharded merged serving actors — every query type
    must be result-identical to the single-process MergedSearcher (and hence
    to the oracle), with each actor holding only its slice of the parts
    manifest."""
    from lucene_net_ray.pipelines.merge import ShardedMergedSearcher

    meta, merged_dir, _ = setup
    local = MergedSearcher(merged_dir)
    sharded = ShardedMergedSearcher(merged_dir, num_actors=3)
    assert len(sharded._actors) >= 2  # genuinely sharded
    for qs in [
        "public",
        "+public +query",
        "query token score",
        "+query -public",
        "pub*",
        "qu?ry",
        "/qu[a-z]+/",
        "[pa TO pz]",
        "query~1",
    ]:
        q = parse_query(qs)
        assert sharded.search(q, k=10) == local.search(q, k=10), qs
        assert sharded.count(q) == local.count(q), qs


def test_serving_caches_are_bounded(setup, monkeypatch):
    """The merged and range-sharded readers' term caches are FIFO-bounded
    (patched down to a few entries here): answers stay the same, no term a
    call returns is lost to that call's own evictions, and an evicted or
    oversized postings entry is fetched again, never served empty."""
    from lucene_net_ray.pipelines.merge import MergedIndexReader, ShardedMergedSearcher

    _, merged_dir, oracle = setup
    queries = ["public", "query token score", "+public +query", "zyzzyva public", "query~1"]
    ref = MergedSearcher(merged_dir)
    want = {q: ref.search(parse_query(q), k=10) for q in queries}
    words = {w for q in queries for w in q.replace("+", "").replace("~1", "").split()}
    mid = sorted((t for t in oracle.df if t not in words), key=lambda t: (oracle.df[t], t))[:8]
    head = max(oracle.df, key=oracle.df.get)
    want_post = {t: ref.reader.postings(t) for t in mid + [head]}

    monkeypatch.setattr(MergedIndexReader, "_STATS_CACHE_TERMS", 3)
    monkeypatch.setattr(MergedIndexReader, "_POSTINGS_CACHE_ELEMS", 100)
    merged = MergedSearcher(merged_dir)
    sharded = ShardedMergedSearcher(merged_dir, num_actors=2)
    for s in (merged, sharded):
        for _ in range(2):
            for q in queries:
                assert s.search(parse_query(q), k=10) == want[q], q
        assert s._stats_for_terms(mid[:3]) == {t: oracle.df[t] for t in mid[:3]}
        # five terms against a 3-term stats cache: the call still returns all
        assert s._stats_for_terms([mid[0]] + mid[3:7]) == {t: oracle.df[t] for t in [mid[0]] + mid[3:7]}

    readers = [
        (merged.reader, merged.reader._post_cache, merged.reader._stats_cache),
        (sharded.reader, sharded.reader._post, sharded.reader._stats),
    ]
    for r, post_cache, stats_cache in readers:
        for t in mid:
            r.postings(t)
            r.term_stats(t)
        assert post_cache.used <= 100 and len(stats_cache) <= 3
        assert mid[0] not in post_cache and mid[0] not in stats_cache
        for t in mid + [head]:
            d, tf = r.postings(t)
            assert np.array_equal(d, want_post[t][0]) and np.array_equal(tf, want_post[t][1]), t
            assert r.term_stats(t)[0] == oracle.df[t], t
        assert head not in post_cache  # more postings than the whole budget

    # absent terms inside the actors' term ranges: an empty entry costs a unit
    absent = [t + s for t in sorted(oracle.df) for s in ("qx", "qy") if t + s not in oracle.df][:150]
    assert len(absent) > 100
    r = sharded.reader
    r.prefetch(absent)
    assert len(r._post) <= r._post.used <= 100 and len(r._stats) <= 3
    for t in absent[:2] + absent[-2:]:
        assert r.postings(t)[0].size == 0 and r.term_stats(t) == (0, 0), t
