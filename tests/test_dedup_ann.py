"""Dedup + ANN + multimodal operators: semantic correctness on crafted data."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from lucene_net_ray.stages.ann import brute_force_topk, lsh_topk
from lucene_net_ray.stages.dedup import (
    MinHasher,
    exact_dedup,
    minhash_lsh_pairs,
    ngram_jaccard_pairs,
    simhash_pairs,
)


def _docs_ds(texts):
    return ray.data.from_items(
        [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    )


def test_exact_dedup_keeps_min_id():
    texts = ["alpha beta", "gamma delta", "alpha beta", "alpha beta", "epsilon"]
    rows = exact_dedup(_docs_ds(texts)).take_all()
    by_hash = {r["text_hash"]: r for r in rows}
    assert len(rows) == 3
    dup = [r for r in rows if r["n_dups"] == 3]
    assert len(dup) == 1 and dup[0]["kept_doc_id"] == 0


def test_minhash_finds_near_duplicates():
    base = "the quick brown fox jumps over the lazy dog " * 5
    near = base.replace("lazy", "sleepy")  # one token changed out of 45
    far = "completely different content with other words entirely " * 5
    rows = minhash_lsh_pairs(
        _docs_ds([base, near, far]), threshold=0.5, shingle_size=3
    ).take_all()
    pairs = {(r["doc_a"], r["doc_b"]) for r in rows}
    assert (0, 1) in pairs
    assert all(2 not in p for p in pairs)


def test_minhash_estimator_quality():
    mh = MinHasher(num_perm=128, shingle_size=2)
    a = "w" + " w".join(str(i) for i in range(100))
    b = "w" + " w".join(str(i) for i in range(50, 150))
    sa, sb = mh.signature(a), mh.signature(b)
    est = float((sa == sb).mean())
    sha, shb = set(mh.shingles(a).tolist()), set(mh.shingles(b).tolist())
    true_j = len(sha & shb) / len(sha | shb)
    assert abs(est - true_j) < 0.15


def test_simhash_near_duplicates():
    base = "the quick brown fox jumps over the lazy dog " * 3
    near = base.replace("dog", "cat")
    far = "zzz yyy xxx www vvv uuu ttt " * 4
    rows = simhash_pairs(_docs_ds([base, near, far]), max_hamming=12).take_all()
    pairs = {(r["doc_a"], r["doc_b"]) for r in rows}
    assert (0, 1) in pairs
    assert (0, 2) not in pairs and (1, 2) not in pairs


def test_ngram_jaccard_exact_value():
    a = "a b c d e"   # 2-grams: ab bc cd de
    b = "a b c x y"   # 2-grams: ab bc cx xy
    rows = ngram_jaccard_pairs(
        _docs_ds([a, b]), shingle_size=2, threshold=0.01
    ).take_all()
    assert len(rows) == 1
    # |inter| = {ab, bc} = 2; |union| = 6 -> 1/3
    assert rows[0]["jaccard"] == pytest.approx(1 / 3, abs=1e-6)


def test_brute_force_ann_matches_numpy():
    rng = np.random.default_rng(0)
    vecs = rng.standard_normal((200, 16)).astype(np.float32)
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(200)]
    )
    queries = vecs[:3].astype(np.float64)
    rows = brute_force_topk(ds, queries, k=5)
    v64 = vecs.astype(np.float64)
    vn = v64 / np.linalg.norm(v64, axis=1, keepdims=True)
    for qi in range(3):
        sims = vn @ (queries[qi] / np.linalg.norm(queries[qi]))
        expected = np.lexsort((np.arange(200), -sims))[:5]
        got = [r["vec_id"] for r in rows if r["query_id"] == qi]
        assert got == expected.tolist()
        assert got[0] == qi  # self-similarity = 1


def test_lsh_ann_recall():
    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((500, 16)).astype(np.float32)
    ds = ray.data.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(500)]
    )
    queries = vecs[:5].astype(np.float64)
    rows = lsh_topk(ds, queries, k=5, bits=4)
    # the query vector itself shares its own bucket -> rank-1 self hit
    for qi in range(5):
        got = [r for r in rows if r["query_id"] == qi]
        assert got and got[0]["vec_id"] == qi


def test_multimodal_pipeline_plumbing():
    from lucene_net_ray.stages.multimodal import (
        DecodeStage,
        media_feature_pipeline,
        synthesize_media_table,
    )

    tbl = synthesize_media_table(24, seed=9)
    out = media_feature_pipeline(ray.data.from_arrow(tbl), concurrency=(1, 2)).take_all()
    assert len(out) == 24
    for r in out:
        assert "payload" not in r  # payload dropped after decode
        assert len(r["feature"]) == 16
        if r["modality"] == "image":
            assert r["width"] >= 64 and 0 < r["resize_scale"] <= 4.0
    # determinism
    out2 = media_feature_pipeline(ray.data.from_arrow(tbl), concurrency=(1, 2)).take_all()
    key = lambda r: r["content_id"]
    assert sorted(out, key=key) == sorted(out2, key=key)
    # strict mode demands real codecs (not installed here)
    with pytest.raises(NotImplementedError):
        DecodeStage(strict=True)


def test_embedding_neardup_pairs():
    import numpy as np
    import ray.data

    from lucene_net_ray.stages.dedup import embedding_neardup_pairs

    rng = np.random.default_rng(4)
    base = rng.standard_normal((20, 16))
    # vectors 0/1 near-identical, 2/3 near-identical, rest random
    base[1] = base[0] + 0.01 * rng.standard_normal(16)
    base[3] = base[2] + 0.01 * rng.standard_normal(16)
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(20)]
    ds = ray.data.from_items(rows)
    got = embedding_neardup_pairs(ds, threshold=0.95).take_all()
    pairs = {(r["vec_a"], r["vec_b"]) for r in got}
    assert (0, 1) in pairs and (2, 3) in pairs
    for r in got:
        assert r["vec_a"] < r["vec_b"]
        assert r["cosine"] >= 0.95
    # symmetric duplicates never emitted twice
    assert len(pairs) == len(got)


def test_embedding_neardup_lsh_recall():
    """The LSH-bucketed path (round-3 scale fix: no corpus take_all, no
    all-pairs matmul) must find near-identical pairs, emit a subset of the
    exact answer with identical cosines, and never duplicate a pair even
    when it co-occurs in several probe buckets."""
    import numpy as np
    import ray.data

    from lucene_net_ray.stages.dedup import embedding_neardup_pairs

    rng = np.random.default_rng(11)
    base = rng.standard_normal((60, 16))
    for a, b in [(0, 1), (2, 3), (10, 11), (20, 21)]:
        base[b] = base[a] + 0.01 * rng.standard_normal(16)
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(60)]
    ds = ray.data.from_items(rows)
    exact = {
        (r["vec_a"], r["vec_b"]): r["cosine"]
        for r in embedding_neardup_pairs(ds, threshold=0.95).take_all()
    }
    got = embedding_neardup_pairs(
        ds, threshold=0.95, method="lsh", bits=6, probes=3
    ).take_all()
    lsh = {(r["vec_a"], r["vec_b"]): r["cosine"] for r in got}
    assert len(lsh) == len(got)  # probe-bucket co-occurrence deduped
    assert set(lsh) <= set(exact)  # never a false positive
    for k, v in lsh.items():
        assert v == exact[k]  # same rounded cosine as the exact path
    # near-identical vectors (cos ~ 0.9999) collide in every bucket: full recall
    assert {(0, 1), (2, 3), (10, 11), (20, 21)} <= set(lsh)


def test_embedding_neardup_exact_is_blockwise(monkeypatch):
    """The exact path must never pull the corpus to the driver: take_all on
    the input dataset is forbidden (only the result, nq-pairs-sized, is)."""
    import numpy as np
    import ray.data

    from lucene_net_ray.stages.dedup import embedding_neardup_pairs

    rng = np.random.default_rng(5)
    base = rng.standard_normal((30, 8))
    base[7] = base[6] + 0.001 * rng.standard_normal(8)
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(30)]
    ds = ray.data.from_items(rows).repartition(4)  # force multiple blocks
    called = {"n": 0}
    orig = ray.data.Dataset.take_all

    def spy(self, *a, **k):
        called["n"] += 1
        return orig(self, *a, **k)

    monkeypatch.setattr(ray.data.Dataset, "take_all", spy)
    result = embedding_neardup_pairs(ds, threshold=0.95)
    assert called["n"] == 0  # building the pipeline materializes nothing
    pairs = {(r["vec_a"], r["vec_b"]) for r in result.take_all()}
    assert (6, 7) in pairs


def test_multimodal_frame_sampling():
    import ray.data

    from lucene_net_ray.stages.multimodal import (
        FrameSampleStage,
        media_feature_pipeline,
        synthesize_media_table,
    )

    media = synthesize_media_table(30, seed=9)
    ds = media_feature_pipeline(ray.data.from_arrow(media))
    frames = ds.map_batches(
        FrameSampleStage,
        fn_constructor_kwargs={"fps": 2.0, "max_frames": 6},
        batch_format="pyarrow",
        batch_size=16,
        concurrency=(1, 2),
    ).take_all()
    by_content = {}
    for f in frames:
        by_content.setdefault(f["content_id"], []).append(f)
    assert len(by_content) == 30
    for cid, fs in by_content.items():
        mod = fs[0]["modality"]
        if mod == "image":
            assert len(fs) == 1 and fs[0]["timestamp_sec"] == 0.0
        else:
            assert 1 <= len(fs) <= 6
            assert [f["frame_index"] for f in sorted(fs, key=lambda x: x["frame_index"])] == list(range(len(fs)))
        for f in fs:
            assert len(f["frame_feature"]) == 16
    # deterministic across runs
    frames2 = ds.map_batches(
        FrameSampleStage,
        fn_constructor_kwargs={"fps": 2.0, "max_frames": 6},
        batch_format="pyarrow", batch_size=16, concurrency=(1, 2),
    ).take_all()
    key = lambda f: (f["content_id"], f["frame_index"])  # noqa: E731
    assert sorted(frames, key=key) == sorted(frames2, key=key)


def test_ivf_topk_recall():
    """IVF coarse-quantizer ANN: bounded driver sample, broadcast centroids,
    probe-limited scoring — recall vs brute force must be high at generous
    n_probe and exact when probing every cluster."""
    import numpy as np
    import ray.data

    from lucene_net_ray.stages.ann import brute_force_topk, ivf_topk

    rng = np.random.default_rng(8)
    base = rng.standard_normal((400, 16))
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(400)]
    ds = ray.data.from_items(rows)
    queries = base[:5] + 0.01 * rng.standard_normal((5, 16))
    exact = brute_force_topk(ds, queries, k=5)
    # probing ALL clusters degenerates to exact brute force
    full = ivf_topk(ds, queries, k=5, n_clusters=8, n_probe=8, train_sample=400)
    assert full == exact
    # limited probes: each query's own near-identical vector must be found,
    # and recall@5 stays high
    approx = ivf_topk(ds, queries, k=5, n_clusters=8, n_probe=3, train_sample=400)
    got = {(r["query_id"], r["vec_id"]) for r in approx}
    want = {(r["query_id"], r["vec_id"]) for r in exact}
    assert all((qi, qi) in got for qi in range(5))
    assert len(got & want) / len(want) >= 0.6
    # every returned cosine matches the exact cosine for that pair
    exact_map = {(r["query_id"], r["vec_id"]): r["cosine"] for r in exact}
    for r in approx:
        key = (r["query_id"], r["vec_id"])
        if key in exact_map:
            assert r["cosine"] == exact_map[key]


def test_ivf_topk_deterministic():
    """The same vectors give the same IVF answer, run after run and in any
    row or block order: the k-means training sample is picked and ordered
    by vec_id, not by which block arrives first."""
    import numpy as np
    import ray.data

    from lucene_net_ray.stages.ann import ivf_topk

    rng = np.random.default_rng(11)
    base = rng.standard_normal((300, 8))
    rows = [{"vec_id": i, "embedding": base[i].tolist()} for i in range(300)]
    queries = base[:6] + 0.05 * rng.standard_normal((6, 8))
    kw = dict(k=5, n_clusters=12, n_probe=2)
    ds = ray.data.from_items(rows, override_num_blocks=4)
    first = ivf_topk(ds, queries, **kw)
    assert len(first) == 30
    assert ivf_topk(ds, queries, **kw) == first
    assert ivf_topk(ray.data.from_items(rows[::-1], override_num_blocks=3), queries, **kw) == first
    # a sample smaller than the data is still the same rows in any order
    small = dict(kw, train_sample=100)
    assert ivf_topk(ds, queries, **small) == ivf_topk(
        ray.data.from_items(rows[::-1], override_num_blocks=5), queries, **small
    )


def test_media_neardup_pairs():
    """Multimodal near-dup composition: decode -> feature -> 64-bit code ->
    band-bucketed Hamming pairs. With the deterministic fake decoder,
    identical payloads give identical codes (hamming 0); distinct payloads
    land far apart."""
    import pyarrow as pa
    import ray.data

    from lucene_net_ray.stages.multimodal import (
        MEDIA_SCHEMA,
        media_neardup_pairs,
        synthesize_media_table,
    )

    tbl = synthesize_media_table(30, seed=9).to_pylist()
    # duplicate three payloads under new content ids
    for src, new in [(0, 100), (4, 101), (8, 102)]:
        dup = dict(tbl[src])
        dup["content_id"] = new
        tbl.append(dup)
    ds = ray.data.from_arrow(pa.Table.from_pylist(tbl, schema=MEDIA_SCHEMA))
    got = media_neardup_pairs(ds, max_hamming=4).take_all()
    pairs = {(r["content_a"], r["content_b"]): r["hamming"] for r in got}
    assert pairs.get((0, 100)) == 0
    assert pairs.get((4, 101)) == 0
    assert pairs.get((8, 102)) == 0
    # each pair emitted once despite colliding in all bands
    assert len(pairs) == len(got)


def test_neardup_clusters_components():
    import pyarrow as pa

    import ray.data
    from lucene_net_ray.stages.dedup import neardup_clusters

    # a 4-chain (diameter 3), a 2-clique, a triangle — min id labels each
    pairs = ray.data.from_arrow(
        pa.table({"doc_a": [9, 3, 2, 5, 100, 200, 100], "doc_b": [3, 2, 1, 7, 200, 300, 300]})
    )
    got = {
        r["doc_id"]: r["cluster_id"] for r in neardup_clusters(pairs).take_all()
    }
    assert got == {1: 1, 2: 1, 3: 1, 9: 1, 5: 5, 7: 5, 100: 100, 200: 100, 300: 100}


def test_neardup_clusters_max_iter_guard():
    import pyarrow as pa
    import pytest as _pt

    import ray.data
    from lucene_net_ray.stages.dedup import neardup_clusters

    # a path graph needs ~diameter rounds; max_iter=1 cannot converge
    pairs = ray.data.from_arrow(
        pa.table({"doc_a": [5, 4, 3, 2], "doc_b": [4, 3, 2, 1]})
    )
    with _pt.raises(RuntimeError, match="converge"):
        neardup_clusters(pairs, max_iter=1)


def test_sq8_quantization_roundtrip_and_recall():
    """SQ8: per-component error <= scale/2; quantized top-k recall vs exact
    brute force stays high on real embeddings."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from lucene_net_ray.stages.ann import (
        brute_force_topk,
        quantize_embeddings,
        sq8_brute_topk,
    )

    emb = pq.read_table("/root/testdata/sf0.001/embeddings.parquet")
    ds = ray.data.from_arrow(emb)
    qds = quantize_embeddings(ds).materialize()
    # roundtrip error bound on one batch
    qt = qds.take_batch(50, batch_format="pyarrow")
    orig = np.array(emb.column("embedding").to_pylist()[: qt.num_rows], dtype=np.float64)
    codes = np.array(qt.column("code").to_pylist(), dtype=np.float64)
    scale = qt.column("scale").to_numpy(zero_copy_only=False).astype(np.float64)
    err = np.abs(codes * scale[:, None] - orig)
    assert (err <= scale[:, None] / 2 + 1e-9).all()
    # storage: int8 codes are 4x smaller than the float32 column
    assert pa.types.is_int8(qt.column("code").type.value_type)

    queries = orig[:3]
    exact = brute_force_topk(ds, queries, k=10)
    approx = sq8_brute_topk(qds, queries, k=10)
    rec = []
    for qi in range(3):
        e = {r["vec_id"] for r in exact if r["query_id"] == qi}
        a = {r["vec_id"] for r in approx if r["query_id"] == qi}
        rec.append(len(e & a) / len(e))
    assert sum(rec) / len(rec) >= 0.8, rec
    # rank-1 self-match survives quantization
    for qi in range(3):
        top = [r for r in approx if r["query_id"] == qi and r["rank"] == 1][0]
        assert top["vec_id"] == qi


def test_exact_dedup_canonicalize():
    """Normalize-before-hash mode: case + whitespace variants conflate;
    operation order (collapse, then trim) matches the SQL oracle on edge
    whitespace like leading tabs."""
    import pyarrow as pa
    import ray.data

    from lucene_net_ray.stages.dedup import exact_dedup

    t = pa.table({
        "doc_id": [1, 2, 3, 4],
        "text": ["Hello  World", "hello world", "\thello   world  ", "different"],
    })
    out = exact_dedup(ray.data.from_arrow(t), canonicalize=True).to_pandas()
    assert len(out) == 2
    row = out[out.n_dups == 3].iloc[0]
    assert row["kept_doc_id"] == 1
    # without canonicalization all four are distinct
    plain = exact_dedup(ray.data.from_arrow(t)).to_pandas()
    assert len(plain) == 4
