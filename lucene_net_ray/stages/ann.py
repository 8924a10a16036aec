"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — the query matrix is normalized once,
``ray.put`` once, and every map_batches task does ONE numpy matmul per batch
against it (broadcast, never re-shipped per batch), emitting per-batch local
top-k rows; a tiny groupby(query_id) reduce keeps the global top-k. Linear
scan per batch, fully vectorized, embarrassingly parallel — the right
baseline at any corpus size.

Scale path: LSH-bucketed variant (random hyperplane signs -> bucket key);
queries probe only their own bucket (+ optional multi-probe neighbors), so
each query touches ~1/2^bits of the corpus. Approximate by construction —
verified in tests for recall against brute force, not exactness.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray
import ray.data


def _as_matrix(col: pa.ChunkedArray) -> np.ndarray:
    arr = col.combine_chunks()
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    n = len(arr)
    return flat.reshape(n, -1)


def _round6(x: float) -> float:
    return math.floor(x * 1e6 + 0.5) / 1e6 if x >= 0 else -math.floor(-x * 1e6 + 0.5) / 1e6


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def brute_force_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    *,
    k: int = 10,
    id_column: str = "vec_id",
    vec_column: str = "embedding",
    query_ids: list[int] | None = None,
) -> list[dict]:
    """Exact cosine top-k for each query vector.

    Returns rows {query_id, rank, vec_id, cosine} sorted by
    (query_id, cosine desc, vec_id asc). Cosine computed in float64.
    """
    q = np.asarray(queries, dtype=np.float64)
    qn = _normalize(q)
    q_ref = ray.put(qn)  # broadcast once
    qids = query_ids or list(range(q.shape[0]))

    def score_batch(batch: pa.Table) -> pa.Table:
        qmat = ray.get(q_ref)
        vecs = _normalize(_as_matrix(batch.column(vec_column)))
        ids = batch.column(id_column).to_numpy()
        sims = vecs @ qmat.T  # (batch, nq)
        nq = qmat.shape[0]
        kk = min(k, sims.shape[0])
        out_q, out_id, out_sim = [], [], []
        for qi in range(nq):
            col = sims[:, qi]
            idx = np.lexsort((ids, -col))[:kk]  # local top-k, ties by vec_id
            out_q.extend([qids[qi]] * kk)
            out_id.extend(ids[idx].tolist())
            out_sim.extend(col[idx].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_sim, type=pa.float64()),
            }
        )

    partials = ds.map_batches(score_batch, batch_format="pyarrow", batch_size=4096)

    # distributed reduce: k rows per (query, batch) -> global k per query via
    # groupby(query_id).map_groups; the driver only collects the nq*k result
    final = partials.groupby("query_id").map_groups(
        lambda g: _topk_group(g, k), batch_format="pyarrow"
    )
    rows = sorted(final.take_all(), key=lambda r: (r["query_id"], r["rank"]))
    return rows


def _topk_group(group: pa.Table, k: int) -> pa.Table:
    """Global top-k of one query's partial hits (ties by vec_id asc)."""
    sims = group.column("cosine").to_numpy()
    ids = group.column("vec_id").to_numpy()
    idx = np.lexsort((ids, -sims))[:k]
    return pa.table(
        {
            "query_id": group.column("query_id").take(pa.array(idx)),
            "rank": pa.array(np.arange(1, idx.size + 1, dtype=np.int64)),
            "vec_id": pa.array(ids[idx], type=pa.int64()),
            "cosine": pa.array([_round6(float(s)) for s in sims[idx]], type=pa.float64()),
        }
    )


class LshIndexStage:
    """Actor-pool stage: assign random-hyperplane LSH bucket keys.

    Hyperplanes are built once per actor from the seed (stateful init),
    applied vectorized per batch.
    """

    def __init__(self, dim: int, bits: int = 8, seed: int = 99):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((bits, dim))
        self.bits = bits

    def key_for(self, vecs: np.ndarray) -> np.ndarray:
        signs = (vecs @ self.planes.T) > 0
        return (signs.astype(np.int64) * (1 << np.arange(self.bits, dtype=np.int64))).sum(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = _as_matrix(batch.column("embedding"))
        keys = self.key_for(vecs)
        return batch.append_column("bucket", pa.array(keys, type=pa.int64()))


def lsh_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    *,
    k: int = 10,
    bits: int = 6,
    seed: int = 99,
    id_column: str = "vec_id",
    vec_column: str = "embedding",
) -> list[dict]:
    """Approximate cosine top-k: only the query's own LSH bucket is scanned."""
    q = np.asarray(queries, dtype=np.float64)
    dim = q.shape[1]
    stage = LshIndexStage(dim, bits=bits, seed=seed)
    bucketed = ds.map_batches(
        LshIndexStage,
        fn_constructor_kwargs={"dim": dim, "bits": bits, "seed": seed},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )
    qkeys = stage.key_for(q)
    wanted = pa.array(sorted({int(x) for x in qkeys}), type=pa.int64())

    def keep_wanted(batch: pa.Table) -> pa.Table:
        mask = pa.compute.is_in(batch.column("bucket"), value_set=wanted)
        return batch.filter(mask)

    sub = bucketed.map_batches(keep_wanted, batch_format="pyarrow")

    # score candidates batch-wise against the broadcast query matrix (each
    # query only sees rows of its own bucket), then reduce distributed —
    # the round-1 take_all() gathered the whole candidate set on the driver,
    # which dies on skewed buckets at corpus scale
    qn = _normalize(q)
    qn_ref = ray.put(qn)
    qkeys_list = [int(x) for x in qkeys]

    def score_candidates(batch: pa.Table) -> pa.Table:
        qmat = ray.get(qn_ref)
        if batch.num_rows == 0 or id_column not in batch.column_names:
            return pa.table(
                {
                    "query_id": pa.array([], type=pa.int64()),
                    "vec_id": pa.array([], type=pa.int64()),
                    "cosine": pa.array([], type=pa.float64()),
                }
            )
        vecs = _normalize(_as_matrix(batch.column(vec_column)))
        ids = batch.column(id_column).to_numpy()
        buckets = batch.column("bucket").to_numpy()
        out_q, out_id, out_sim = [], [], []
        for qi in range(qmat.shape[0]):
            m = buckets == qkeys_list[qi]
            if not m.any():
                continue
            sims = vecs[m] @ qmat[qi]
            bids = ids[m]
            idx = np.lexsort((bids, -sims))[: min(k, sims.size)]  # local top-k
            out_q.extend([qi] * idx.size)
            out_id.extend(bids[idx].tolist())
            out_sim.extend(sims[idx].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_sim, type=pa.float64()),
            }
        )

    partials = sub.map_batches(score_candidates, batch_format="pyarrow", batch_size=4096)
    final = partials.groupby("query_id").map_groups(
        lambda g: _topk_group(g, k), batch_format="pyarrow"
    )
    return sorted(final.take_all(), key=lambda r: (r["query_id"], r["rank"]))


def _kmeans_cosine(sample: np.ndarray, n_clusters: int, iters: int, seed: int) -> np.ndarray:
    """Spherical k-means on NORMALIZED vectors (cosine == dot): numpy Lloyd
    iterations over the (bounded) training sample. Returns normalized
    centroids (n_clusters, dim)."""
    rng = np.random.default_rng(seed)
    n = sample.shape[0]
    cents = sample[rng.choice(n, size=min(n_clusters, n), replace=False)].copy()
    for _ in range(iters):
        assign = np.argmax(sample @ cents.T, axis=1)
        for c in range(cents.shape[0]):
            m = assign == c
            if m.any():
                cents[c] = sample[m].mean(axis=0)
        cents = _normalize(cents)
    return cents


def _training_sample(ds: ray.data.Dataset, n: int, id_column: str, vec_column: str) -> np.ndarray:
    """About ``n`` normalized vectors of ``ds``, chosen and ordered by their
    ids alone, so k-means trains on the same sample in the same order
    however the Dataset's blocks arrive (a ``limit`` keeps whichever rows
    come first): every row when ``ds`` holds at most ``n``, else the rows
    whose hashed id falls in one of ceil(count / n) buckets. Rows are sorted
    by id; only the sample reaches the driver."""
    stride = np.uint64(max(1, -(-ds.count() // n)))
    cols = ds.select_columns([id_column, vec_column])
    if stride > 1:

        def pick(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_column).to_numpy().astype(np.uint64)
            h = (ids * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)  # Fibonacci hash
            return batch.filter(pa.array(h % stride == 0))

        cols = cols.map_batches(pick, batch_format="pyarrow")
    rows = sorted(cols.take_all(), key=lambda r: r[id_column])[:n]
    return _normalize(np.asarray([r[vec_column] for r in rows], dtype=np.float64))


def ivf_topk(
    ds: ray.data.Dataset,
    queries: np.ndarray,
    *,
    k: int = 10,
    n_clusters: int = 64,
    n_probe: int = 8,
    train_sample: int = 100_000,
    iters: int = 10,
    seed: int = 5,
    id_column: str = "vec_id",
    vec_column: str = "embedding",
    query_ids: list[int] | None = None,
) -> list[dict]:
    """IVF (inverted-file) approximate cosine top-k — the coarse-quantizer
    scale path next to LSH: spherical k-means over a BOUNDED training sample
    (about `train_sample` rows, picked by id, reach the driver), centroids broadcast
    once via ray.put, every batch scores only rows whose cluster is among
    each query's `n_probe` nearest centroids, and the global answer reduces
    through the same groupby(query_id).map_groups as brute force. Per-query
    work ~ n_probe/n_clusters of the corpus; recall tested against brute
    force. Returns rows {query_id, rank, vec_id, cosine}."""
    q = np.asarray(queries, dtype=np.float64)
    qn = _normalize(q)
    qids = query_ids or list(range(q.shape[0]))

    sample = _training_sample(ds, train_sample, id_column, vec_column)
    cents = _kmeans_cosine(sample, n_clusters, iters, seed)
    cents_ref = ray.put(cents)
    qn_ref = ray.put(qn)
    # per-query probe sets (nq x n_probe), tiny — broadcast with the task
    probes = np.argsort(-(qn @ cents.T), axis=1)[:, : min(n_probe, cents.shape[0])]
    probe_sets = [frozenset(int(c) for c in row) for row in probes]

    def score_batch(batch: pa.Table) -> pa.Table:
        cmat = ray.get(cents_ref)
        qmat = ray.get(qn_ref)
        vecs = _normalize(_as_matrix(batch.column(vec_column)))
        ids = batch.column(id_column).to_numpy()
        clusters = np.argmax(vecs @ cmat.T, axis=1)
        out_q, out_id, out_sim = [], [], []
        for qi in range(qmat.shape[0]):
            m = np.isin(clusters, list(probe_sets[qi]))
            if not m.any():
                continue
            sims = vecs[m] @ qmat[qi]
            bids = ids[m]
            idx = np.lexsort((bids, -sims))[: min(k, sims.size)]
            out_q.extend([qids[qi]] * idx.size)
            out_id.extend(bids[idx].tolist())
            out_sim.extend(sims[idx].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_sim, type=pa.float64()),
            }
        )

    partials = ds.map_batches(score_batch, batch_format="pyarrow", batch_size=4096)
    final = partials.groupby("query_id").map_groups(
        lambda g: _topk_group(g, k), batch_format="pyarrow"
    )
    return sorted(final.take_all(), key=lambda r: (r["query_id"], r["rank"]))


# ---------------------------------------------------------------------------
# SQ8 scalar quantization — 4x smaller embedding storage/IO at 100 TB
# ---------------------------------------------------------------------------

def quantize_embeddings(
    ds: ray.data.Dataset,
    *,
    id_column: str = "vec_id",
    vec_column: str = "embedding",
) -> ray.data.Dataset:
    """Symmetric per-vector int8 scalar quantization (the standard SQ8
    layout): code_i = round(127 * x_i / max|x|), stored as list<int8> plus
    the float32 ``scale`` = max|x| / 127 that dequantizes it. One streaming
    map_batches pass; the output is ~4x smaller than the float32 column —
    at 100 TB of embeddings that is the difference between spilling and
    fitting the object store. Reconstruction error per component is
    <= scale/2 (one quantization step)."""

    def quant(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_column)).astype(np.float64)
        n, d = m.shape
        mx = np.abs(m).max(axis=1)
        mx = np.where(mx == 0, 1.0, mx)
        scale = (mx / 127.0).astype(np.float32)
        codes = np.clip(np.rint(m / scale[:, None].astype(np.float64)), -127, 127).astype(np.int8)
        return pa.table(
            {
                id_column: batch.column(id_column),
                "code": pa.ListArray.from_arrays(
                    pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32)),
                    pa.array(codes.reshape(-1)),
                ),
                "scale": pa.array(scale),
            }
        )

    return ds.map_batches(quant, batch_format="pyarrow")


def sq8_brute_topk(
    qds: ray.data.Dataset,
    queries: np.ndarray,
    *,
    k: int = 10,
    id_column: str = "vec_id",
    query_ids: list[int] | None = None,
) -> list[dict]:
    """Cosine top-k over an SQ8-quantized dataset (quantize_embeddings
    output): codes dequantize per batch (codes x scale, then re-normalized
    — the scale cancels in cosine but normalization does not, since
    rounding perturbs direction), scored exactly like brute_force_topk.
    Approximate only through the quantization error; same distributed
    reduce (per-batch local top-k -> groupby(query_id) global top-k)."""
    q = np.asarray(queries, dtype=np.float64)
    qn = _normalize(q)
    q_ref = ray.put(qn)
    qids = query_ids or list(range(q.shape[0]))

    def score_batch(batch: pa.Table) -> pa.Table:
        qmat = ray.get(q_ref)
        code_col = batch.column("code")
        if isinstance(code_col, pa.ChunkedArray):
            code_col = code_col.combine_chunks()
        flat = pa.compute.list_flatten(code_col).to_numpy(zero_copy_only=False)
        n = batch.num_rows
        codes = flat.reshape(n, -1).astype(np.float64)
        scale = batch.column("scale").to_numpy(zero_copy_only=False).astype(np.float64)
        vecs = _normalize(codes * scale[:, None])
        ids = batch.column(id_column).to_numpy()
        sims = vecs @ qmat.T
        kk = min(k, sims.shape[0])
        out_q, out_id, out_sim = [], [], []
        for qi in range(qmat.shape[0]):
            col = sims[:, qi]
            idx = np.lexsort((ids, -col))[:kk]
            out_q.extend([qids[qi]] * kk)
            out_id.extend(ids[idx].tolist())
            out_sim.extend(col[idx].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_id, type=pa.int64()),
                "cosine": pa.array(out_sim, type=pa.float64()),
            }
        )

    partials = qds.map_batches(score_batch, batch_format="pyarrow", batch_size=4096)
    final = partials.groupby("query_id").map_groups(
        lambda g: _topk_group(g, k), batch_format="pyarrow"
    )
    return sorted(final.take_all(), key=lambda r: (r["query_id"], r["rank"]))
