"""Deduplication operators for training-data pipelines, Ray-Data-first.

Every operator is a composition of map_batches / flat_map-style batch
transforms and ONE keyed shuffle (the LSH/bucket groupby) — the same
partitioning discipline as the index merge. No driver-side loops over rows.

  exact_dedup        md5(text) hash-partition + per-group min(doc_id)
  fingerprint_dedup  64-bit rolling-hash pre-filter variant (cheaper shuffle
                     key than a 32-char hex at 10^12 rows)
  minhash_lsh_pairs  word-shingle MinHash signatures -> banded LSH buckets ->
                     candidate pairs -> exact Jaccard verification
  simhash_pairs      64-bit SimHash -> 16-bit band buckets -> Hamming verify
  ngram_jaccard_pairs exact set-similarity join via shared-shingle inverted
                     index (co-occurrence counting), head-shingle capped

Scale notes: verification joins signature/set data back to candidate pairs.
At test scale the small side is broadcast once via ray.put and read inside
map_batches (never re-shipped per batch); at 10^12 rows the same pipelines
swap the broadcast for a hash join on doc_id — the bucket groupby, the only
wide exchange, is unchanged. Head protection: buckets larger than
``max_bucket`` emit no pairs (quadratic blowup guard), mirroring the index
merge's head-term sharding.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min

from .exchange import keyed_exchange

MERSENNE = (1 << 61) - 1


def _round6(x: float) -> float:
    """Round half away from zero at 6 decimals (DuckDB ROUND semantics —
    Python's round() is half-even and diverges on values like 5/128)."""
    return math.floor(x * 1e6 + 0.5) / 1e6


def _stable_hash64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode(), digest_size=8).digest(), "little")


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(
    ds: ray.data.Dataset,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
    canonicalize: bool = False,
) -> ray.data.Dataset:
    """One row per distinct text: (text_hash, kept doc = min id, dup count).

    ``canonicalize=True`` hashes lower(text) with whitespace runs collapsed
    to single spaces, then trimmed — the standard normalize-before-dedup
    mode that conflates case/formatting variants (all-vectorized Arrow
    kernels; SQL-equivalent, same operation ORDER so edge whitespace
    hashes identically:
    md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))).
    """

    def add_hash(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from .textstats import md5_hex_utf8

        col = batch.column(text_column)
        if canonicalize:
            col = pc.utf8_trim_whitespace(
                pc.replace_substring_regex(pc.utf8_lower(col), r"\s+", " ")
            )
        hashes = md5_hex_utf8(col)
        return batch.append_column("text_hash", pa.array(hashes, type=pa.string())).drop_columns(
            [c for c in batch.column_names if c not in (id_column,)]
        )

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    agg = hashed.groupby("text_hash").aggregate(
        Min(id_column), Count()
    )
    return agg.rename_columns({f"min({id_column})": "kept_doc_id", "count()": "n_dups"})


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

class MinHasher:
    """Stateful (actor-pool) stage: seeded permutations built once per actor."""

    def __init__(self, num_perm: int = 64, shingle_size: int = 3, seed: int = 1234):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_size = shingle_size

    _tok_cache: dict[str, int] = {}  # per-process unique-token hash memo

    def _shingles_raw(self, text: str) -> np.ndarray:
        """shingles() body without the errstate guard — call inside an
        ``np.errstate(over="ignore")`` block (hoisted once per batch in
        __call__; the per-doc context-manager entry/exit was ~25% of the
        stage's wall time)."""
        toks = text.split()
        k = self.shingle_size
        if not toks:
            return np.empty(0, dtype=np.uint64)
        cache = self._tok_cache
        hs = np.empty(len(toks), dtype=np.uint64)
        for i, t in enumerate(toks):
            h = cache.get(t)
            if h is None:
                h = _stable_hash64(t)
                if len(cache) < 2_000_000:
                    cache[t] = h
            hs[i] = h
        P = np.uint64(0x9E3779B97F4A7C15)
        if len(toks) < k:
            out = hs[:1].copy()
            for j in range(1, len(toks)):
                out = out * P + hs[j : j + 1]
            return np.unique(out)
        n_win = len(toks) - k + 1
        out = hs[:n_win].copy()
        for j in range(1, k):
            out = out * P + hs[j : j + n_win]
        return np.unique(out)

    def shingles(self, text: str) -> np.ndarray:
        """Distinct shingle hashes, vectorized: per-token stable hashes
        (memoized) combined by a rolling polynomial over k-windows."""
        with np.errstate(over="ignore"):
            return self._shingles_raw(text)

    def signature(self, text: str) -> np.ndarray:
        sh = self.shingles(text)
        if sh.size == 0:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        # universal multiply-add hash mod 2^64 (uint64 wraparound), min over
        # shingles — one vectorized (num_perm x m) matrix per doc
        with np.errstate(over="ignore"):
            m = self.a[:, None] * sh[None, :] + self.b[:, None]
        return m.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n = len(texts)
        sigs = np.full((n, self.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        with np.errstate(over="ignore"):
            # errstate hoisted batch-wide (per-doc context entry/exit was
            # ~25% of the stage); per-doc matrix+min beats a batched
            # minimum.reduceat here (measured 1.7x) — reduceat's per-segment
            # reduction is scalar while .min(axis=1) is SIMD
            shingle_list = [self._shingles_raw(t) for t in texts]
            n_sh = np.fromiter((s.size for s in shingle_list), dtype=np.int64, count=n)
            a, b = self.a[:, None], self.b[:, None]
            for i, sh in enumerate(shingle_list):
                if sh.size:
                    sigs[i] = (a * sh[None, :] + b).min(axis=1)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "sig": pa.ListArray.from_arrays(
                    pa.array(np.arange(0, (n + 1) * self.num_perm, self.num_perm, dtype=np.int32)),
                    pa.array(sigs.reshape(-1)),
                ),
                "n_shingles": pa.array(n_sh),
            }
        )


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_size: int = 3,
    threshold: float = 0.5,
    max_bucket: int = 200,
    seed: int = 1234,
) -> ray.data.Dataset:
    """Near-duplicate pairs (doc_a < doc_b, est_jaccard >= threshold).

    est_jaccard = fraction of matching MinHash components — the standard
    unbiased Jaccard estimator; banded bucketing makes the candidate
    generation subquadratic.
    """
    r = num_perm // bands
    sigs = ds.map_batches(
        MinHasher,
        fn_constructor_kwargs={"num_perm": num_perm, "shingle_size": shingle_size, "seed": seed},
        batch_format="pyarrow",
        concurrency=(1, 8),
    )

    def to_band_rows(batch: pa.Table) -> pa.Table:
        # fully vectorized band keying: the r band components fold through a
        # numpy FNV-1a sweep (any deterministic chunk->key function buckets
        # identical chunks identically — the candidate set is unchanged vs
        # the old per-row blake2b-of-joined-string key, modulo ~2^-64
        # collisions both schemes share). r x bands vector ops per batch,
        # zero Python rows.
        n = batch.num_rows
        empty = pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "band": pa.array([], type=pa.int32()),
            "key": pa.array([], type=pa.uint64()),
            "sig": pa.array([], type=pa.list_(pa.uint64())),
        })
        if n == 0:
            return empty
        sig_col = batch.column("sig")
        if isinstance(sig_col, pa.ChunkedArray):
            sig_col = sig_col.combine_chunks()
        flat = pa.compute.list_flatten(sig_col).to_numpy(zero_copy_only=False)
        sigs = flat.reshape(n, num_perm)
        doc = batch.column("doc_id").to_numpy(zero_copy_only=False)
        FNV_OFF = np.uint64(0xCBF29CE484222325)
        FNV_P = np.uint64(0x100000001B3)
        keys = np.empty((n, bands), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for bi in range(bands):
                k = np.full(n, FNV_OFF, dtype=np.uint64)
                for j in range(r):
                    k = (k ^ sigs[:, bi * r + j]) * FNV_P
                keys[:, bi] = k
            band_ids = np.tile(np.arange(bands, dtype=np.int32), n)
            key_flat = keys.reshape(-1)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc, bands)),
                "band": pa.array(band_ids),
                "key": pa.array(key_flat),
                "sig": pa.ListArray.from_arrays(
                    pa.array(np.arange(0, (n * bands + 1) * num_perm, num_perm, dtype=np.int32)),
                    pa.array(np.repeat(sigs, bands, axis=0).reshape(-1)),
                ),
            }
        )

    band_rows = sigs.map_batches(to_band_rows, batch_format="pyarrow")

    def bucket_pairs(group: pa.Table) -> pa.Table:
        # vectorized run detection (lexsort + boundary diff) and, per
        # bucket, one broadcast (m, m, num_perm) equality -> pair Jaccards;
        # no to_pylist, no per-pair Python
        out_a, out_b, est = [], [], []
        n = group.num_rows
        if n:
            band = group.column("band").to_numpy(zero_copy_only=False)
            key = group.column("key").to_numpy(zero_copy_only=False)
            doc = group.column("doc_id").to_numpy(zero_copy_only=False)
            sig_col = group.column("sig")
            if isinstance(sig_col, pa.ChunkedArray):
                sig_col = sig_col.combine_chunks()
            sigs = pa.compute.list_flatten(sig_col).to_numpy(zero_copy_only=False).reshape(n, -1)
            order = np.lexsort((doc, key, band))
            b2, k2, d2, s2 = band[order], key[order], doc[order], sigs[order]
            newrun = (b2[1:] != b2[:-1]) | (k2[1:] != k2[:-1])
            starts = np.concatenate(([0], np.flatnonzero(newrun) + 1, [n]))
            for si in range(starts.size - 1):
                s, e = int(starts[si]), int(starts[si + 1])
                m = e - s
                if not (2 <= m <= max_bucket):  # head-bucket guard
                    continue
                dd = d2[s:e]
                ss = s2[s:e]
                iu, ju = np.triu_indices(m, 1)
                jac = (ss[iu] == ss[ju]).mean(axis=1)
                mask = (jac >= threshold) & (dd[iu] != dd[ju])
                if mask.any():
                    out_a.extend(dd[iu[mask]].tolist())
                    out_b.extend(dd[ju[mask]].tolist())
                    # _round6 vectorized (half away from zero at 6 decimals)
                    est.extend((np.floor(jac[mask] * 1e6 + 0.5) / 1e6).tolist())
        return pa.table(
            {
                "doc_a": pa.array(out_a, type=pa.int64()),
                "doc_b": pa.array(out_b, type=pa.int64()),
                "est_jaccard": pa.array(est, type=pa.float64()),
            }
        )

    # per-call cost dominates fine-grained map_groups (one call per LSH
    # bucket), so buckets share a call and split exact (band, key) runs inside
    pairs = keyed_exchange(band_rows, ["band", "key"], bucket_pairs)
    # a pair can surface from several bands: keep one row per pair
    return (
        pairs.groupby(["doc_a", "doc_b"])
        .aggregate(Max("est_jaccard"))
        .rename_columns({"max(est_jaccard)": "est_jaccard"})
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

_SIMHASH_BITS: dict[str, np.ndarray] = {}  # token -> {-1,+1}^64 (memoized)
_BIT_IDX = np.arange(64, dtype=np.uint64)
_BIT_VAL = 1 << np.arange(64, dtype=np.uint64)


def _simhash64(tokens: list[str]) -> int:
    if not tokens:
        return 0
    from collections import Counter

    counts = Counter(tokens)
    mat = np.empty((len(counts), 64), dtype=np.int64)
    tfs = np.empty(len(counts), dtype=np.int64)
    for i, (tok, tf) in enumerate(counts.items()):
        bits = _SIMHASH_BITS.get(tok)
        if bits is None:
            h = np.uint64(_stable_hash64(tok))
            bits = (((h >> _BIT_IDX) & np.uint64(1)).astype(np.int64) * 2) - 1
            if len(_SIMHASH_BITS) < 2_000_000:
                _SIMHASH_BITS[tok] = bits
        mat[i] = bits
        tfs[i] = tf
    acc = (mat * tfs[:, None]).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) * _BIT_VAL).sum())


def simhash_pairs(
    ds: ray.data.Dataset, *, max_hamming: int = 3, max_bucket: int = 500
) -> ray.data.Dataset:
    """Near-dup pairs by 64-bit SimHash with Hamming distance <= max_hamming.

    Candidate generation: 4 x 16-bit bands (pigeonhole: any pair within
    Hamming 3 agrees on at least one band); verification is exact popcount.
    """

    def add_simhash(batch: pa.Table) -> pa.Table:
        # per-doc Counter + memoized per-token bit rows. Measured AGAINST a
        # batch-vectorized dictionary-encode + bincount scatter-add variant:
        # the row path wins 3x warm — per-doc unique sets are tiny (~50)
        # while the batched gather materializes an (occurrences x 64) int64
        # intermediate; "vectorize the hot loop" loses to cache locality
        # here, so this loop stays by measurement, not neglect.
        hs = [_simhash64(t.split()) for t in batch.column("text").to_pylist()]
        return pa.table({"doc_id": batch.column("doc_id"),
                         "simhash": pa.array([h - (1 << 63) for h in hs], type=pa.int64())})

    sh = ds.map_batches(add_simhash, batch_format="pyarrow")

    def to_band_rows(batch: pa.Table) -> pa.Table:
        # vectorized band extraction: 4 shifts over the uint64 view, doc-major
        # row order (np.repeat / tile) identical to the old per-row loop
        n = batch.num_rows
        doc = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sh64 = batch.column("simhash").to_numpy(zero_copy_only=False)
        h = (sh64.astype(np.int64).view(np.uint64) + np.uint64(1 << 63))  # wraps back to raw
        bis = np.arange(4, dtype=np.uint64)
        keys = ((h[:, None] >> (np.uint64(16) * bis[None, :])) & np.uint64(0xFFFF)).astype(np.int64)
        band_ids = np.tile(np.arange(4, dtype=np.int32), n)
        key_flat = keys.reshape(-1)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc, 4)),
                "band": pa.array(band_ids),
                "key": pa.array(key_flat),
                "simhash": pa.array(np.repeat(sh64, 4)),
            }
        )

    band_rows = sh.map_batches(to_band_rows, batch_format="pyarrow")

    def bucket_pairs(group: pa.Table) -> pa.Table:
        # lexsort run detection + per-bucket broadcast XOR-popcount
        # (bit_count on the uint8 view) — no Python rows or per-pair loop
        out_a, out_b, dist = [], [], []
        n = group.num_rows
        if n:
            band = group.column("band").to_numpy(zero_copy_only=False)
            key = group.column("key").to_numpy(zero_copy_only=False)
            doc = group.column("doc_id").to_numpy(zero_copy_only=False)
            sh = group.column("simhash").to_numpy(zero_copy_only=False).view(np.uint64)
            order = np.lexsort((doc, key, band))
            b2, k2, d2, h2 = band[order], key[order], doc[order], sh[order]
            newrun = (b2[1:] != b2[:-1]) | (k2[1:] != k2[:-1])
            starts = np.concatenate(([0], np.flatnonzero(newrun) + 1, [n]))
            for si in range(starts.size - 1):
                s, e = int(starts[si]), int(starts[si + 1])
                m = e - s
                if not (2 <= m <= max_bucket):
                    continue
                dd, hh = d2[s:e], h2[s:e]
                iu, ju = np.triu_indices(m, 1)
                x = (hh[iu] ^ hh[ju]).view(np.uint8).reshape(-1, 8)
                d = np.unpackbits(x, axis=1).sum(axis=1).astype(np.int64)
                mask = (d <= max_hamming) & (dd[iu] != dd[ju])
                if mask.any():
                    out_a.extend(dd[iu[mask]].tolist())
                    out_b.extend(dd[ju[mask]].tolist())
                    dist.extend(d[mask].tolist())
        return pa.table(
            {
                "doc_a": pa.array(out_a, type=pa.int64()),
                "doc_b": pa.array(out_b, type=pa.int64()),
                "hamming": pa.array(dist, type=pa.int64()),
            }
        )

    pairs = keyed_exchange(band_rows, ["band", "key"], bucket_pairs)
    return (
        pairs.groupby(["doc_a", "doc_b"])
        .aggregate(Min("hamming"))
        .rename_columns({"min(hamming)": "hamming"})
    )


# ---------------------------------------------------------------------------
# exact n-gram Jaccard via shared-shingle co-occurrence
# ---------------------------------------------------------------------------

def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    *,
    shingle_size: int = 3,
    threshold: float = 0.5,
    max_shingle_df: int = 200,
) -> ray.data.Dataset:
    """EXACT Jaccard >= threshold pairs over word-shingle sets.

    |A ∩ B| from a shared-shingle inverted index (groupby shingle ->
    per-bucket pair counting, head shingles dropped like stop terms);
    |A|, |B| joined back via a broadcast of per-doc set sizes (small side;
    becomes a hash join at petabyte scale).
    """

    def to_shingle_rows(batch: pa.Table) -> pa.Table:
        doc_ids, sh_hashes, sizes = [], [], []
        for row in batch.to_pylist():
            toks = row["text"].split()
            k = shingle_size
            grams = (
                {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}
                if len(toks) >= k
                else ({" ".join(toks)} if toks else set())
            )
            for g in grams:
                doc_ids.append(row["doc_id"])
                sh_hashes.append(_stable_hash64(g) - (1 << 63))
                sizes.append(len(grams))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "shingle": pa.array(sh_hashes, type=pa.int64()),
                "set_size": pa.array(sizes, type=pa.int64()),
            }
        )

    shingle_rows = ds.map_batches(to_shingle_rows, batch_format="pyarrow")

    def co_pairs(group: pa.Table) -> pa.Table:
        # vectorized: lexsort + run boundaries, then ONE triu_indices per
        # run SIZE (runs of equal size batched together) so the pair
        # expansion is a handful of numpy gathers, not a Python loop per
        # candidate pair. Pair order within a run matches the old
        # combinations() order (doc_a = earlier doc in sorted run).
        n = group.num_rows
        a_parts, b_parts, sa_parts, sb_parts = [], [], [], []
        if n:
            sh = group.column("shingle").to_numpy(zero_copy_only=False)
            doc = group.column("doc_id").to_numpy(zero_copy_only=False)
            size = group.column("set_size").to_numpy(zero_copy_only=False)
            order = np.lexsort((doc, sh))
            s2, d2, z2 = sh[order], doc[order], size[order]
            newrun = s2[1:] != s2[:-1]
            starts = np.concatenate(([0], np.flatnonzero(newrun) + 1, [n]))
            lens = np.diff(starts)
            keep = (lens >= 2) & (lens <= max_shingle_df)  # head-shingle guard
            for m in np.unique(lens[keep]):
                run_starts = starts[:-1][keep & (lens == m)]
                iu, ju = np.triu_indices(int(m), 1)
                # (runs, pairs_per_run) index matrix -> flat gathers
                ia = (run_starts[:, None] + iu[None, :]).reshape(-1)
                ib = (run_starts[:, None] + ju[None, :]).reshape(-1)
                a_parts.append(d2[ia])
                b_parts.append(d2[ib])
                sa_parts.append(z2[ia])
                sb_parts.append(z2[ib])
        out_a = np.concatenate(a_parts) if a_parts else np.empty(0, np.int64)
        out_b = np.concatenate(b_parts) if b_parts else np.empty(0, np.int64)
        sa = np.concatenate(sa_parts) if sa_parts else np.empty(0, np.int64)
        sb = np.concatenate(sb_parts) if sb_parts else np.empty(0, np.int64)
        return pa.table(
            {
                "doc_a": pa.array(out_a),
                "doc_b": pa.array(out_b),
                "size_a": pa.array(sa),
                "size_b": pa.array(sb),
                "co": pa.array(np.ones(out_a.size, dtype=np.int64)),
            }
        )

    co = keyed_exchange(shingle_rows, "shingle", co_pairs)

    # per-pair reduction: Ray's groupby().aggregate() over ~1M mostly-unique
    # (doc_a, doc_b) keys spends minutes in its per-group reducer (measured
    # 55-63 s for 1.27M rows at sf0.1, two-key and packed-key alike), so the
    # reduction is a keyed exchange on the pair instead: ONE vectorized
    # lexsort + run-length reduce per bucket — 57 s -> ~3 s end-to-end,
    # identical output

    def reduce_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "doc_a": pa.array([], type=pa.int64()),
            "doc_b": pa.array([], type=pa.int64()),
            "jaccard": pa.array([], type=pa.float64()),
        })
        n = group.num_rows
        if n == 0:
            return empty
        a = group.column("doc_a").to_numpy(zero_copy_only=False)
        b = group.column("doc_b").to_numpy(zero_copy_only=False)
        sa = group.column("size_a").to_numpy(zero_copy_only=False)
        sb = group.column("size_b").to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a2, b2, sa2, sb2 = a[order], b[order], sa[order], sb[order]
        newrun = (a2[1:] != a2[:-1]) | (b2[1:] != b2[:-1])
        starts = np.concatenate(([0], np.flatnonzero(newrun) + 1))
        inter = np.diff(np.concatenate((starts, [n]))).astype(np.float64)  # co is 1/row
        fa, fb = a2[starts], b2[starts]
        union = sa2[starts].astype(np.float64) + sb2[starts].astype(np.float64) - inter
        j = np.where(union > 0, inter / np.where(union > 0, union, 1.0), 0.0)
        jr = np.floor(j * 1e6 + 0.5) / 1e6  # half-away, like DuckDB ROUND
        keep = jr >= threshold
        return pa.table(
            {
                "doc_a": pa.array(fa[keep]),
                "doc_b": pa.array(fb[keep]),
                "jaccard": pa.array(jr[keep], type=pa.float64()),
            }
        )

    return keyed_exchange(co, ["doc_a", "doc_b"], reduce_pairs)


# ---------------------------------------------------------------------------
# embedding-cosine near-duplicates
# ---------------------------------------------------------------------------

def _round6_array(c: np.ndarray) -> np.ndarray:
    """Half-away-from-zero rounding at 1e-6 (DuckDB ROUND), vectorized."""
    return np.sign(c) * np.floor(np.abs(c) * 1e6 + 0.5) / 1e6


def _pair_table(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> pa.Table:
    return pa.table(
        {
            "vec_a": pa.array(a, type=pa.int64()),
            "vec_b": pa.array(b, type=pa.int64()),
            "cosine": pa.array(_round6_array(c), type=pa.float64()),
        }
    )


def _block_pair_hits(
    ids_i: np.ndarray, mi: np.ndarray, ids_j: np.ndarray, mj: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, cosine) for all cross pairs of two normalized blocks with
    cosine >= threshold, oriented a < b — one matmul, mask, np.nonzero."""
    sims = mi @ mj.T
    mask = (sims >= threshold) & (ids_i[:, None] < ids_j[None, :])
    r, col = np.nonzero(mask)
    return ids_i[r], ids_j[col], sims[r, col]


def embedding_neardup_pairs(
    ds: "ray.data.Dataset",
    *,
    threshold: float = 0.4,
    id_column: str = "vec_id",
    vec_column: str = "embedding",
    method: str = "exact",
    bits: int = 8,
    probes: int = 0,
    seed: int = 77,
    max_bucket: int = 20000,
) -> "ray.data.Dataset":
    """All pairs (a < b) with cosine(embedding_a, embedding_b) >= threshold.

    ``method="exact"``: block x block cross product. The (id, normalized
    vector) blocks are materialized ONCE into the OBJECT STORE (never the
    driver — the driver holds only refs), and one Ray task per unordered
    block pair does a single matmul; pair (x, y) is emitted exactly once by
    the one task holding both blocks. O(n^2) total flops is inherent to an
    exact low-threshold answer, but it is spread over B(B+1)/2 independent
    tasks with O(block^2) memory each — no all-pairs matrix, no driver
    materialization (the round-2 version take_all()'d the corpus).

    ``method="lsh"``: the corpus-scale path — random-hyperplane bucketing
    (same family as ann.LshIndexStage) with optional single-bit multi-probe
    (``probes`` extra buckets per row), exact pairs WITHIN each bucket via
    groupby(bucket).map_groups, then a (vec_a, vec_b) groupby dedupes pairs
    that co-occur in several probe buckets. Approximate recall (tested
    against exact); buckets above ``max_bucket`` rows are skipped like the
    MinHash/SimHash head-bucket guard.

    Output: (vec_a, vec_b, cosine) with cosine rounded half-away at 1e-6.
    """
    if method == "lsh":
        return _embedding_neardup_lsh(
            ds,
            threshold=threshold,
            id_column=id_column,
            vec_column=vec_column,
            bits=bits,
            probes=probes,
            seed=seed,
            max_bucket=max_bucket,
        )

    from .ann import _as_matrix, _normalize

    def norm_block(batch: pa.Table) -> pa.Table:
        m = _normalize(_as_matrix(batch.column(vec_column)))
        vec = pa.FixedSizeListArray.from_arrays(
            pa.array(m.ravel(), type=pa.float64()), m.shape[1] if m.size else 1
        )
        return pa.table({"id": batch.column(id_column).cast(pa.int64()), "vec": vec})

    blocks = ds.select_columns([id_column, vec_column]).map_batches(
        norm_block, batch_format="pyarrow"
    )
    refs = [r for r in blocks.to_arrow_refs()]  # object-store resident, driver keeps refs
    pair_items = [
        {"i": i, "j": j} for i in range(len(refs)) for j in range(i, len(refs))
    ]

    def block_pairs(batch: pa.Table) -> pa.Table:
        outs = []
        for i, j in zip(batch.column("i").to_pylist(), batch.column("j").to_pylist()):
            ti = ray.get(refs[i])
            ids_i = ti.column("id").to_numpy()
            mi = _as_matrix(ti.column("vec"))
            if i == j:
                ids_j, mj = ids_i, mi
            else:
                tj = ray.get(refs[j])
                ids_j = tj.column("id").to_numpy()
                mj = _as_matrix(tj.column("vec"))
            a, b, c = _block_pair_hits(ids_i, mi, ids_j, mj, threshold)
            if i != j:  # cross pairs oriented the other way too
                a2, b2, c2 = _block_pair_hits(ids_j, mj, ids_i, mi, threshold)
                a, b, c = np.concatenate((a, a2)), np.concatenate((b, b2)), np.concatenate((c, c2))
            outs.append(_pair_table(a, b, c))
        return pa.concat_tables(outs) if outs else _pair_table(
            np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
        )

    return ray.data.from_items(pair_items).map_batches(
        block_pairs, batch_format="pyarrow", batch_size=1
    )


def _embedding_neardup_lsh(
    ds: "ray.data.Dataset",
    *,
    threshold: float,
    id_column: str,
    vec_column: str,
    bits: int,
    probes: int,
    seed: int,
    max_bucket: int,
) -> "ray.data.Dataset":
    """LSH-bucketed near-dup pairs: subquadratic, no driver materialization.

    Each row lands in its sign-pattern bucket plus ``probes`` single-bit-flip
    neighbor buckets (multi-probe raises recall for borderline pairs); exact
    cosine runs only within buckets. Mirrors the MinHash band design
    (shingle->band->bucket groupby) that is already the scale-correct shape.
    """
    from .ann import _as_matrix, _normalize

    dim = len(ds.take(1)[0][vec_column])
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((bits, dim))
    planes_ref = ray.put(planes)

    def to_buckets(batch: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        m = _normalize(_as_matrix(batch.column(vec_column)))
        signs = (m @ pl.T) > 0
        keys = (signs.astype(np.int64) << np.arange(bits, dtype=np.int64)).sum(axis=1)
        ids = batch.column(id_column).cast(pa.int64()).to_numpy()
        n = ids.size
        reps = 1 + probes
        all_keys = np.empty(n * reps, dtype=np.int64)
        all_keys[:n] = keys
        for p in range(probes):  # flip bit p — one neighbor bucket per probe
            all_keys[n * (p + 1) : n * (p + 2)] = keys ^ (1 << p)
        tiled = np.tile(m, (reps, 1))  # vectors stored NORMALIZED
        vec = pa.FixedSizeListArray.from_arrays(
            pa.array(tiled.ravel(), type=pa.float64()), m.shape[1] if m.size else 1
        )
        return pa.table(
            {
                "bucket": pa.array(all_keys, type=pa.int64()),
                "id": pa.array(np.tile(ids, reps), type=pa.int64()),
                "vec": vec,
            }
        )

    bucketed = ds.select_columns([id_column, vec_column]).map_batches(
        to_buckets, batch_format="pyarrow"
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n < 2 or n > max_bucket:  # head-bucket quadratic guard
            return _pair_table(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
        ids = group.column("id").to_numpy()
        m = _as_matrix(group.column("vec"))  # already normalized
        a, b, c = _block_pair_hits(ids, m, ids, m, threshold)
        return _pair_table(a, b, c)

    pairs = bucketed.groupby("bucket").map_groups(bucket_pairs, batch_format="pyarrow")
    # a pair found in several probe buckets dedupes here (cosine identical)
    agg = pairs.groupby(["vec_a", "vec_b"]).min("cosine")
    return agg.rename_columns({"min(cosine)": "cosine"})


# ---------------------------------------------------------------------------
# near-dup clustering (connected components over pair output)
# ---------------------------------------------------------------------------

def neardup_clusters(
    pairs: ray.data.Dataset,
    *,
    src: str = "doc_a",
    dst: str = "doc_b",
    max_iter: int = 50,
) -> ray.data.Dataset:
    """Connected components over a near-dup pair stream: every doc that
    appears in ``pairs`` gets ``cluster_id`` = the smallest doc id reachable
    through the pair graph (the canonical dedup-cluster representative).

    Distributed min-label propagation: labels start as each node's own id and
    each round every node takes the min of its own label and its neighbors'
    labels, until no label changes. Converges in graph-diameter rounds —
    near-dup graphs are unions of small dense cliques (template families), so
    a handful of rounds in practice; ``max_iter`` is a guard, not a budget
    (raises if the graph somehow hasn't converged). Each round is two keyed
    shuffles: one keyed exchange that resolves neighbor labels
    (vectorized searchsorted inside each bucket — the same bounded-bucket
    discipline as the LSH pair stages, no per-row Python in the group UDF)
    and one groupby(node).min aggregate. Label state is one row per distinct
    node — bounded and materialized between rounds (an iterative algorithm,
    like the IVF trainer; intermediate pair streams are never materialized).
    The big-graph literature's large-star/small-star contraction (Kiveris et
    al., "Connected Components in MapReduce and Beyond", SoCC'14) drops in
    here if diameter ever matters; pair graphs from LSH banding do not need
    it.
    """

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "nbr": pa.array(np.concatenate([b, a]), type=pa.int64()),
            }
        )

    # materialize once: the edge list is re-read every round (and lives in
    # the object store, spillable); leaving it lazy would re-run the whole
    # upstream pair pipeline once per propagation round
    edges = pairs.select_columns([src, dst]).map_batches(
        both_dirs, batch_format="pyarrow"
    ).materialize()

    # initial labels: min(own id, min neighbor id) in one aggregate
    def self_rows(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"), "nbr": batch.column("node")})

    init = edges.union(edges.map_batches(self_rows, batch_format="pyarrow"))
    labels = (
        init.groupby("node").min("nbr").rename_columns({"min(nbr)": "lab"})
    ).materialize()

    def tag_consumers(batch: pa.Table) -> pa.Table:
        # consumer row: "node wants the label of key=nbr"
        key = batch.column("nbr")
        return pa.table(
            {
                "key": key,
                "node": batch.column("node"),
                "lab": pa.nulls(batch.num_rows, type=pa.int64()),
            }
        )

    def tag_owners(batch: pa.Table) -> pa.Table:
        # owner row: "key's current label is lab"
        key = batch.column("node")
        return pa.table(
            {
                "key": key,
                "node": pa.nulls(batch.num_rows, type=pa.int64()),
                "lab": batch.column("lab"),
            }
        )

    def resolve(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy(zero_copy_only=False)
        node = group.column("node").to_numpy(zero_copy_only=False)
        lab = group.column("lab").to_numpy(zero_copy_only=False)
        own = ~pa.compute.is_null(group.column("lab")).to_numpy(zero_copy_only=False)
        lk, lv = key[own].astype(np.int64), lab[own].astype(np.int64)
        o = np.argsort(lk, kind="stable")
        lk, lv = lk[o], lv[o]
        ck = key[~own].astype(np.int64)
        cn = node[~own].astype(np.int64)
        pos = np.searchsorted(lk, ck)
        # every consumer's key has an owner row by construction (labels cover
        # every node that appears in edges)
        out_node = np.concatenate([lk, cn])
        out_lab = np.concatenate([lv, lv[pos]])
        return pa.table(
            {
                "node": pa.array(out_node, type=pa.int64()),
                "lab": pa.array(out_lab, type=pa.int64()),
            }
        )

    prev_sum = None
    for _ in range(max_iter):
        resolved = keyed_exchange(
            [
                edges.map_batches(tag_consumers, batch_format="pyarrow"),
                labels.map_batches(tag_owners, batch_format="pyarrow"),
            ],
            "key",
            resolve,
        )
        labels = (
            resolved.groupby("node").min("lab").rename_columns({"min(lab)": "lab"})
        ).materialize()
        # labels only ever decrease; an unchanged sum is a fixpoint
        s = labels.sum("lab")
        if s == prev_sum:
            break
        prev_sum = s
    else:
        raise RuntimeError(f"neardup_clusters did not converge in {max_iter} rounds")

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": batch.column("node"), "cluster_id": batch.column("lab")}
        )

    return labels.map_batches(rename, batch_format="pyarrow")
