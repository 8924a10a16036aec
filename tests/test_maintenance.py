"""addIndexes + NRT reopen + queries-as-dataset batch evaluation."""

import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from lucene_net_ray.oracle import OracleIndex
from lucene_net_ray.pipelines.build import build_index_from_table
from lucene_net_ray.pipelines.maintenance import add_indexes, reopen
from lucene_net_ray.pipelines.search import Searcher
from lucene_net_ray.query import parse_query
from lucene_net_ray.sources.corpus import generate_corpus
from lucene_net_ray.state.checkindex import check_index


def test_add_indexes_equals_single_build(tmp_path):
    c1 = generate_corpus(120, seed=1)
    c2 = generate_corpus(80, seed=2)
    combined_contents = c1.column("content").to_pylist() + c2.column("content").to_pylist()
    idx1 = str(tmp_path / "i1")
    idx2 = str(tmp_path / "i2")
    build_index_from_table(c1, idx1, target_rows_per_segment=50)
    build_index_from_table(c2, idx2, target_rows_per_segment=50)
    merged = add_indexes(str(tmp_path / "combined"), idx1, idx2)
    assert merged.max_doc == 200
    check_index(merged)

    oracle = OracleIndex(combined_contents)
    s = Searcher(merged, use_actors=False)
    for qs in ["public", "+public +query", "query token score", "zyzzyva"]:
        q = parse_query(qs)
        hits = s.search(q, k=10)
        expected = oracle.top_k(q, 10)
        assert [d for d, _ in hits] == [d for d, _ in expected]
        for (d1, s1), (d2, s2) in zip(hits, expected):
            assert np.float32(s1) == np.float32(s2)


def test_reopen_sees_added_segments(tmp_path):
    c1 = generate_corpus(60, seed=3)
    idx1 = str(tmp_path / "i1")
    build_index_from_table(c1, idx1, target_rows_per_segment=60)
    combined = str(tmp_path / "combined")
    add_indexes(combined, idx1)
    s = reopen(combined)
    n1 = s.count(parse_query("public"))
    # "commit" more docs by re-running add_indexes with an extra source
    c2 = generate_corpus(60, seed=4)
    idx2 = str(tmp_path / "i2")
    build_index_from_table(c2, idx2, target_rows_per_segment=60)
    add_indexes(combined, idx1, idx2)
    s2 = reopen(combined)
    assert s2.index.max_doc == 120
    assert s2.count(parse_query("public")) >= n1


def test_checkindex_validates_positions(tmp_path):
    corpus = generate_corpus(80, seed=5)
    idx = str(tmp_path / "idx")
    build_index_from_table(corpus, idx, target_rows_per_segment=40, index_options="positions")
    totals = check_index(idx)
    assert totals["docs"] == 80


def test_queries_as_dataset(tmp_path):
    import ray.data

    from lucene_net_ray.pipelines.search import evaluate_query_dataset

    corpus = generate_corpus(150, seed=6)
    idx = str(tmp_path / "idx")
    build_index_from_table(corpus, idx, target_rows_per_segment=50)
    oracle = OracleIndex(corpus.column("content").to_pylist())
    queries = [
        {"query_id": 0, "query": "public"},
        {"query_id": 1, "query": "+public +query"},
        {"query_id": 2, "query": "query token score"},
        {"query_id": 3, "query": "((broken"},  # unparseable -> skipped
    ]
    qds = ray.data.from_items(queries)
    hits = evaluate_query_dataset(idx, qds, k=5, concurrency=(1, 2)).take_all()
    by_q = {}
    for h in hits:
        by_q.setdefault(h["query_id"], []).append((h["rank"], h["doc_id"], h["score"]))
    assert 3 not in by_q
    for qid, qs in [(0, "public"), (1, "+public +query"), (2, "query token score")]:
        expected = oracle.top_k(parse_query(qs), 5)
        got = sorted(by_q[qid])
        assert [d for _, d, _ in got] == [d for d, _ in expected]
        for (_, d1, s1), (d2, s2) in zip(got, expected):
            assert np.float32(s1) == np.float32(s2)


def test_delete_documents_livedocs(tmp_path):
    from lucene_net_ray.query import TermQuery
    from lucene_net_ray.state.deletes import delete_by_query, load_deleted

    corpus = generate_corpus(100, seed=8)
    idx = str(tmp_path / "idx")
    build_index_from_table(corpus, idx, target_rows_per_segment=40)
    s0 = Searcher(idx, use_actors=False)
    q = parse_query("zyzzyva")
    before_ids = {d for d, _ in s0.scored_docs(q)}
    assert before_ids
    n_before = s0.count(parse_query("public"))

    # delete all docs containing zyzzyva
    n_del = delete_by_query(idx, TermQuery(term="zyzzyva"))
    assert n_del == len(before_ids)
    assert set(load_deleted(idx).tolist()) == before_ids

    s1 = reopen(idx)
    assert s1.count(q) == 0
    assert s1.search(q, k=10) == []
    # other docs still searchable; deleted docs excluded from other queries too
    pub_ids = {d for d, _ in s1.scored_docs(parse_query("public"))}
    assert not (pub_ids & before_ids)
    assert s1.count(parse_query("public")) <= n_before
    # Lucene semantics: df/idf unchanged until expunge -> surviving doc scores
    # identical to pre-delete scores
    pre = dict(s0.scored_docs(parse_query("public")))
    post = dict(s1.scored_docs(parse_query("public")))
    for d, sc in post.items():
        assert np.float32(sc) == np.float32(pre[d])
    # tombstone generations accumulate
    delete_by_query(idx, TermQuery(term="quux"))
    s2 = reopen(idx)
    assert s2.count(parse_query("quux")) == 0
    assert s2.count(q) == 0


def _sha_of(index, doc_ids):
    """Map global docIDs -> content sha256 via the docs tables (docIDs are
    ephemeral across expunge/merge, shas are the stable identity)."""
    import os

    import pyarrow.parquet as pq

    out = {}
    for d in index.segment_dirs:
        t = pq.read_table(os.path.join(d, "docs.parquet"), columns=["doc_id", "sha256"])
        for i, s in zip(t.column("doc_id").to_pylist(), t.column("sha256").to_pylist()):
            out[i] = s
    return [out[i] for i in doc_ids]


def test_expunge_deletes(tmp_path):
    from lucene_net_ray.pipelines.maintenance import expunge_deletes
    from lucene_net_ray.pipelines.merge import MergedSearcher, merge_index
    from lucene_net_ray.query import TermQuery
    from lucene_net_ray.state.deletes import delete_by_query, load_deleted

    corpus = generate_corpus(100, seed=21)
    idx = str(tmp_path / "idx")
    meta = build_index_from_table(corpus, idx, target_rows_per_segment=30, index_options="positions")
    s0 = Searcher(idx, use_actors=False)
    doomed = {d for d, _ in s0.scored_docs(TermQuery(term="zyzzyva"))}
    assert doomed
    df_pub_before = s0._stats_for_terms(["public"])["public"]
    n_del = delete_by_query(idx, TermQuery(term="zyzzyva"))
    assert n_del == len(doomed)
    s_del = reopen(idx)
    live_pub = s_del.scored_docs(parse_query("public"))

    # merging a tombstoned index must refuse (would resurrect deletes)
    import pytest

    with pytest.raises(ValueError, match="expunge"):
        merge_index(idx, str(tmp_path / "bad_merged"))

    exp = expunge_deletes(idx, str(tmp_path / "expunged"))
    check_index(exp)
    assert exp.max_doc == 100 - n_del
    assert load_deleted(exp.index_dir).size == 0
    s1 = Searcher(exp, use_actors=False)
    assert s1.count(TermQuery(term="zyzzyva")) == 0
    # docFreq shrinks to the live corpus (authentic post-expunge stats)
    df_pub_after = s1._stats_for_terms(["public"])["public"]
    n_doomed_with_pub = sum(1 for d, _ in s0.scored_docs(TermQuery(term="public")) if d in doomed)
    assert df_pub_after == df_pub_before - n_doomed_with_pub
    # same live docs match (compared by content sha — docIDs were remapped)
    exp_hits = s1.scored_docs(parse_query("public"))
    assert sorted(_sha_of(exp, [d for d, _ in exp_hits])) == sorted(
        _sha_of(meta, [d for d, _ in live_pub])
    )
    # phrase/position streams survive the rewrite
    assert s1.count(parse_query('"public static"')) == len(
        {d for d, _ in s1.scored_docs(parse_query('"public static"'))}
    )
    # expunged index merges cleanly and serves identically
    merged_dir = merge_index(exp, str(tmp_path / "merged"))
    ms = MergedSearcher(merged_dir)
    for qs in ["public", "+public +query", "query token score"]:
        q = parse_query(qs)
        assert ms.search(q, k=10) == s1.search(q, k=10), qs


def test_update_documents(tmp_path):
    from lucene_net_ray.pipelines.maintenance import update_documents

    docs = pa.table(
        {
            "doc_key": ["a", "b", "c", "d"],
            "content": [
                "original alpha content",
                "original beta content",
                "original gamma content",
                "original delta content",
            ],
        }
    )
    idx = str(tmp_path / "idx")
    build_index_from_table(docs, idx, target_rows_per_segment=2, stored_columns=("doc_key",))
    s0 = Searcher(idx, use_actors=False)
    assert s0.count(parse_query("beta")) == 1
    res = update_documents(
        idx,
        pa.table({"doc_key": ["b"], "content": ["replacement epsilon content"]}),
        "doc_key",
    )
    assert res == {"deleted": 1, "added": 1}
    s1 = reopen(idx)
    assert s1.count(parse_query("beta")) == 0  # old version tombstoned
    assert s1.count(parse_query("epsilon")) == 1  # replacement visible
    assert s1.count(parse_query("alpha")) == 1  # untouched docs intact
    assert s1.index.max_doc == 5  # tombstones linger until expunge
    # updating the same key again replaces the replacement
    update_documents(idx, pa.table({"doc_key": ["b"], "content": ["second zeta version"]}), "doc_key")
    s2 = reopen(idx)
    assert s2.count(parse_query("epsilon")) == 0
    assert s2.count(parse_query("zeta")) == 1


def test_term_vectors(tmp_path):
    from collections import Counter

    import pyarrow as pa

    from lucene_net_ray.functions.analysis import analyze
    from lucene_net_ray.state.segment import SegmentReader

    docs = ["alpha beta alpha", "gamma delta", "the only stopwords are the a an"]
    idx = str(tmp_path / "idx")
    build_index_from_table(
        pa.table({"content": docs}), idx, target_rows_per_segment=10,
        store_term_vectors=True,
    )
    from lucene_net_ray.state.index import IndexMeta

    r = SegmentReader(IndexMeta(idx).segment_dirs[0])
    for i, d in enumerate(docs):
        assert r.term_vector(i) == dict(Counter(analyze(d))), d


def test_mlt_by_doc(tmp_path):
    import pyarrow as pa

    from lucene_net_ray.pipelines.collectors import more_like_this_by_doc

    docs = ["zyzzyva obsidian rare words", "zyzzyva obsidian rare tokens",
            "totally different content here", "common common common words"]
    idx = str(tmp_path / "idx")
    build_index_from_table(pa.table({"content": docs}), idx, store_term_vectors=True)
    s = Searcher(idx, use_actors=False)
    q = more_like_this_by_doc(s, 0, max_query_terms=4)
    hits = s.search(q, k=3)
    # doc 0 itself ranks first; near-dup doc 1 next
    assert [d for d, _ in hits][:2] == [0, 1]


def test_add_and_split_drop_tombstoned_docs(tmp_path):
    """add_indexes and split_index import only a source's live docs: a doc
    deleted in the source must not come back in the copy."""
    from lucene_net_ray.pipelines.maintenance import split_index
    from lucene_net_ray.query import TermQuery
    from lucene_net_ray.state.deletes import delete_by_query

    idx = str(tmp_path / "idx")
    build_index_from_table(generate_corpus(60, seed=7), idx, target_rows_per_segment=20)
    n_del = delete_by_query(idx, TermQuery(term="public"))
    assert n_del > 0
    q = parse_query("public")
    added = add_indexes(str(tmp_path / "added"), idx)
    check_index(added)
    assert added.max_doc == 60 - n_del
    assert Searcher(added, use_actors=False).count(q) == 0
    parts = split_index(idx, [str(tmp_path / "p0"), str(tmp_path / "p1")])
    assert sum(p.max_doc for p in parts) == 60 - n_del
    for p in parts:
        check_index(p)
        assert Searcher(p, use_actors=False).count(q) == 0


def test_split_index_round_trip(tmp_path):
    from lucene_net_ray.pipelines.maintenance import split_index
    from lucene_net_ray.state.checkindex import check_index

    corpus = generate_corpus(120, seed=12)
    contents = corpus.column("content").to_pylist()
    idx = str(tmp_path / "idx")
    build_index_from_table(corpus, idx, target_rows_per_segment=30)  # 4 segments
    parts = split_index(idx, [str(tmp_path / "p0"), str(tmp_path / "p1")])
    assert [p.max_doc for p in parts] == [60, 60]
    for p in parts:
        check_index(p)
    # each part searches exactly its slice (vs per-slice oracle)
    for pi, p in enumerate(parts):
        oracle = OracleIndex(contents[pi * 60 : (pi + 1) * 60])
        s = Searcher(p, use_actors=False)
        q = parse_query("public")
        hits = s.search(q, k=5)
        expected = oracle.top_k(q, 5)
        assert [d for d, _ in hits] == [d for d, _ in expected]
        for (d1, s1), (d2, s2) in zip(hits, expected):
            assert np.float32(s1) == np.float32(s2)
    # add_indexes(split parts) reconstructs the original
    from lucene_net_ray.pipelines.maintenance import add_indexes

    rejoined = add_indexes(str(tmp_path / "rejoined"), *[p.index_dir for p in parts])
    full_oracle = OracleIndex(contents)
    s = Searcher(rejoined, use_actors=False)
    q = parse_query("query token")
    hits = s.search(q, k=10)
    expected = full_oracle.top_k(q, 10)
    assert [d for d, _ in hits] == [d for d, _ in expected]


def test_bulk_eval_sharded_partition_invariance(tmp_path):
    """Round-2 scale fix: bulk eval shards the index across a fixed group of
    shared actors (1/G of the index each) instead of replicating the full
    index per stage actor — results must be invariant to both the
    segmentation and the group count."""
    import ray.data

    from lucene_net_ray.pipelines.search import evaluate_query_dataset

    corpus = generate_corpus(200, seed=31)
    idx_a = str(tmp_path / "a")  # 2 segments
    idx_b = str(tmp_path / "b")  # 7 segments
    build_index_from_table(corpus, idx_a, target_rows_per_segment=100)
    build_index_from_table(corpus, idx_b, target_rows_per_segment=30)
    queries = [
        {"query_id": 0, "query": "public"},
        {"query_id": 1, "query": "+public +query"},
        {"query_id": 2, "query": "query token score"},
        {"query_id": 3, "query": "zyzzyva"},
    ]

    def run(idx, groups):
        qds = ray.data.from_items(queries)
        hits = evaluate_query_dataset(idx, qds, k=8, concurrency=(1, 2), num_groups=groups).take_all()
        return sorted((h["query_id"], h["rank"], h["doc_id"], np.float32(h["score"])) for h in hits)

    base = run(idx_a, 1)
    assert base
    assert run(idx_a, 3) == base  # group-count invariant
    assert run(idx_b, 4) == base  # segmentation invariant


def test_split_index_by_filter(tmp_path):
    """PKIndexSplitter analog: matching docs land in index A, the rest in B;
    both densely renumbered with correct post-split stats and searchable."""
    import numpy as np
    import pyarrow as pa

    from lucene_net_ray.pipelines.build import build_index_from_table
    from lucene_net_ray.pipelines.maintenance import split_index_by_filter
    from lucene_net_ray.pipelines.search import Searcher
    from lucene_net_ray.query import TermQuery

    docs = [
        f"{'keep' if i % 3 == 0 else 'drop'} common token{i % 5} body"
        for i in range(60)
    ]
    tbl = pa.table({"content": docs, "orig": list(range(60))})
    idx = str(tmp_path / "src")
    build_index_from_table(tbl, idx, target_rows_per_segment=13, stored_columns=("orig",))

    a, b = split_index_by_filter(
        idx, str(tmp_path / "a"), str(tmp_path / "b"), TermQuery(term="keep")
    )
    n_keep = sum(1 for d in docs if d.startswith("keep"))
    assert a.max_doc == n_keep
    assert b.max_doc == 60 - n_keep
    sa, sb = Searcher(a, use_actors=False), Searcher(b, use_actors=False)
    # A contains exactly the matching docs (orig ids preserved as stored col)
    import os

    import pyarrow.parquet as pq

    orig_a = sorted(
        v
        for d in a.segment_dirs
        for v in pq.read_table(os.path.join(d, "docs.parquet"), columns=["orig"])
        .column("orig")
        .to_pylist()
    )
    assert orig_a == [i for i in range(60) if i % 3 == 0]
    # B has no 'keep' docs at all; 'common' matches everything in each half
    assert sb.count(TermQuery(term="keep")) == 0
    assert sa.count(TermQuery(term="common")) == n_keep
    assert sb.count(TermQuery(term="common")) == 60 - n_keep
    # dense renumbering: every docid < max_doc reachable
    hits = sa.search(TermQuery(term="common"), k=60)
    assert {d for d, _ in hits} == set(range(n_keep))


def test_split_index_round_robin(tmp_path):
    """MultiPassIndexSplitter analog: part p keeps every Nth live doc; parts
    are disjoint, cover the source, and renumber densely."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_net_ray.pipelines.build import build_index_from_table
    from lucene_net_ray.pipelines.maintenance import split_index_round_robin

    docs = [f"body token{i % 4} common" for i in range(45)]
    tbl = pa.table({"content": docs, "orig": list(range(45))})
    idx = str(tmp_path / "src")
    build_index_from_table(tbl, idx, target_rows_per_segment=10, stored_columns=("orig",))

    parts = split_index_round_robin(idx, [str(tmp_path / f"p{i}") for i in range(3)])
    assert [m.max_doc for m in parts] == [15, 15, 15]
    seen = []
    for p, m in enumerate(parts):
        origs = sorted(
            v
            for d in m.segment_dirs
            for v in pq.read_table(os.path.join(d, "docs.parquet"), columns=["orig"])
            .column("orig").to_pylist()
        )
        assert origs == list(range(p, 45, 3))
        seen.extend(origs)
    assert sorted(seen) == list(range(45))


def _data_sha(index) -> dict:
    """sha256 of every segment's data files (not meta.json, whose lineage
    names the source dirs)."""
    out = {}
    for d in index.segment_dirs:
        for f in ("terms.parquet", "postings.bin", "docs.parquet"):
            with open(os.path.join(d, f), "rb") as fh:
                out[f"{os.path.basename(d)}/{f}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.mark.parametrize("op", ["compact", "expunge"])
def test_rewrite_resumes_after_crash(tmp_path, op):
    """A crash between temp-write and rename leaves some output segments
    committed and a ``.tmp<pid>`` dir of another process; re-running skips
    the committed segments, ignores the debris, and commits an index
    byte-identical to a clean run. Re-running over a finished output
    changes nothing."""
    from lucene_net_ray.pipelines.maintenance import expunge_deletes
    from lucene_net_ray.pipelines.tiered import compact_segments
    from lucene_net_ray.query import TermQuery
    from lucene_net_ray.state.deletes import delete_by_query

    idx = str(tmp_path / "idx")
    build_index_from_table(generate_corpus(120, seed=7), idx, target_rows_per_segment=20,
                           index_options="positions")  # 6 segments
    if op == "expunge":
        assert delete_by_query(idx, TermQuery(term="zyzzyva"))

        def run(out):
            return expunge_deletes(idx, out)
    else:
        def run(out):
            return compact_segments(idx, out, segs_per_tier=2.0, max_merge_at_once=4)

    def digest(index):
        with open(os.path.join(index.index_dir, "manifest.json"), "rb") as f:
            return {"manifest.json": hashlib.sha256(f.read()).hexdigest(), **_data_sha(index)}

    clean = run(str(tmp_path / "clean"))
    assert len(clean.segment_dirs) >= 2
    segs = tmp_path / "crashed" / "segments"
    segs.mkdir(parents=True)
    shutil.copytree(clean.segment_dirs[0], segs / "seg000000")
    debris = segs / "seg000001.tmp99999999"
    debris.mkdir()
    shutil.copy(os.path.join(clean.segment_dirs[1], "terms.parquet"), debris)
    (debris / "postings.bin").write_bytes(b"\x80 torn write")
    resumed = run(str(tmp_path / "crashed"))
    check_index(resumed)
    assert digest(resumed) == digest(clean)
    assert not debris.exists()  # the commit removed the torn temp dir
    assert sorted(os.listdir(segs)) == sorted(os.path.basename(d) for d in clean.segment_dirs)
    assert digest(run(str(tmp_path / "crashed"))) == digest(clean)


def test_split_matches_expunge_of_tombstoned_clone(tmp_path):
    """The splitters drop the docs a part does not keep in the segment
    rewrite itself. Each part must equal the older route to it: a copy of
    the index carrying the complement as tombstones, then expunge_deletes."""
    from lucene_net_ray.pipelines.maintenance import (
        expunge_deletes,
        split_index_by_filter,
        split_index_round_robin,
    )
    from lucene_net_ray.query import TermQuery
    from lucene_net_ray.state.deletes import delete_by_query, load_deleted, write_deletes
    from lucene_net_ray.state.index import IndexMeta, write_index_manifest

    corpus = generate_corpus(150, seed=9)
    idx = str(tmp_path / "idx")
    src = build_index_from_table(corpus.append_column("orig", pa.array(range(150))), idx,
                                 target_rows_per_segment=25, index_options="positions",
                                 stored_columns=("orig",))
    assert delete_by_query(idx, TermQuery(term="zyzzyva"))  # already-dead docs stay dead
    all_ids = np.arange(src.max_doc, dtype=np.int64)
    alive = np.setdiff1d(all_ids, load_deleted(idx))
    matching = [d for d, _ in Searcher(idx, use_actors=False).scored_docs(TermQuery(term="public"))]
    match_alive = np.intersect1d(alive, matching)

    parts = [*split_index_by_filter(idx, str(tmp_path / "a"), str(tmp_path / "b"),
                                    TermQuery(term="public")),
             *split_index_round_robin(idx, [str(tmp_path / f"r{p}") for p in range(3)])]
    keeps = [match_alive, np.setdiff1d(alive, match_alive), *(alive[p::3] for p in range(3))]
    for i, (part, keep) in enumerate(zip(parts, keeps)):
        clone = str(tmp_path / f"clone{i}")
        for d in src.segment_dirs:
            shutil.copytree(d, os.path.join(clone, "segments", os.path.basename(d)))
        write_index_manifest(clone, dict(src.manifest))
        write_deletes(clone, np.setdiff1d(all_ids, keep))
        ref = expunge_deletes(clone, str(tmp_path / f"ref{i}"))
        assert part.max_doc == keep.size
        assert part.manifest["segments"] == ref.manifest["segments"]
        assert _data_sha(part) == _data_sha(ref)
        check_index(part)
