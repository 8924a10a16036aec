"""One keyed exchange for every coarse-hash shuffle.

A keyed exchange co-locates every row of a key so a vectorized kernel can
reduce it: each row gets a bucket from its key columns, the Dataset is
grouped by bucket, and the kernel runs once per bucket on all rows of each of
the bucket's keys. Grouping by a bounded int bucket, not by the key itself,
keeps the shuffle sorting one small int column and keeps the number of
kernel calls bounded, however many distinct keys there are (DS2's point that
skew control belongs in one place).

The bucket is deterministic across processes — never Python ``hash()``,
whose per-process salt would split a key between workers — and computed
without a Python loop over rows: int keys are mixed as 64-bit words, string
and binary keys are dictionary-encoded and only the dictionary's bytes are
hashed (a polynomial over the utf8 buffer, reduced per string with
``np.add.reduceat``); other types hash as their string cast. Multi-column
keys fold the column hashes in order. Nulls hash to one fixed value, so all
null keys share a bucket.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

#: bucket count of every keyed exchange: it bounds the kernel calls per
#: exchange and, with the sort shuffle's partitions, the rows per call
BUCKETS = 256

_BUCKET_COLUMN = "__xbucket"
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_NULL = np.uint64(0x2545F4914F6CDD1D)


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: a bijective 64-bit avalanche."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _bytes_hash(arr: pa.Array) -> np.ndarray:
    """64-bit hash of each value of a null-free string/binary array: the
    polynomial sum of (byte + 1) * GOLDEN^(bytes left), length mixed in."""
    n = len(arr)
    large = pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type)
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int64 if large else np.int32)
    offs = offs[arr.offset : arr.offset + n + 1].astype(np.int64)
    lens = np.diff(offs)
    h = np.zeros(n, dtype=np.uint64)
    total = int(offs[-1] - offs[0]) if n else 0
    if total:
        data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[offs[0] : offs[-1]]
        with np.errstate(over="ignore"):
            powers = np.cumprod(np.full(int(lens.max()), _GOLDEN, dtype=np.uint64))
            powers = np.concatenate(([np.uint64(1)], powers[:-1]))
            left = np.repeat(offs[1:] - offs[0], lens) - 1 - np.arange(total)
            terms = (data.astype(np.uint64) + np.uint64(1)) * powers[left]
            nonempty = lens > 0
            h[nonempty] = np.add.reduceat(terms, (offs[:-1] - offs[0])[nonempty])
    with np.errstate(over="ignore"):
        return _mix(h ^ (lens.astype(np.uint64) * _GOLDEN))


def _array_hash(arr: pa.Array) -> np.ndarray:
    """64-bit hash per value of one Arrow array; equal values hash equal
    whatever the chunking or (for ints, strings) the width of the type."""
    t = arr.type
    if pa.types.is_integer(t):
        words = pc.cast(arr.fill_null(0), pa.int64(), safe=False)
        h = _mix(words.to_numpy(zero_copy_only=False).view(np.uint64) ^ _GOLDEN)
        if arr.null_count:
            h = np.where(arr.is_null().to_numpy(zero_copy_only=False), _NULL, h)
        return h
    if not (
        pa.types.is_string(t) or pa.types.is_large_string(t)
        or pa.types.is_binary(t) or pa.types.is_large_binary(t)
    ):
        return _array_hash(pc.cast(arr, pa.string()))
    enc = pc.dictionary_encode(arr)
    vals = np.append(_bytes_hash(enc.dictionary), _NULL)  # a null indexes the last slot
    return vals[enc.indices.fill_null(len(vals) - 1).to_numpy(zero_copy_only=False)]


def key_buckets(table: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """int64 bucket in [0, BUCKETS) per row of ``table`` from its ``keys``
    columns; the same key gets the same bucket in every process."""
    if not table.num_rows:
        return np.empty(0, dtype=np.int64)
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for key in keys:
        col = table.column(key)
        chunks = col.chunks if isinstance(col, pa.ChunkedArray) else [col]
        col_h = np.concatenate([_array_hash(c) for c in chunks if len(c)])
        with np.errstate(over="ignore"):
            h = _mix(h * _GOLDEN ^ col_h)
    return (h % np.uint64(BUCKETS)).astype(np.int64)


def keyed_exchange(inputs, keys: str | Sequence[str], fn: Callable[[pa.Table], pa.Table]):
    """``fn`` with every row of a key in one call: rows are bucketed by
    ``key_buckets``, grouped by bucket, and each bucket reaches ``fn`` as one
    pyarrow Table (the bucket column dropped), holding all rows of each of
    its keys — usually several keys, which ``fn`` splits itself (a lexsort +
    run-length pass). ``inputs`` is a Dataset, or a list of Datasets with
    one schema that meet in the exchange (a co-partition join); each is
    bucketed in a map stage that fuses with its producer, before the union."""
    keys = [keys] if isinstance(keys, str) else list(keys)

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            _BUCKET_COLUMN, pa.array(key_buckets(batch, keys), type=pa.int64())
        )

    def per_bucket(group: pa.Table) -> pa.Table:
        return fn(group.drop_columns([_BUCKET_COLUMN]))

    # Ray names the stage in its plan and stats after this function
    per_bucket.__name__ = getattr(fn, "__name__", "keyed_exchange")
    first, *rest = [
        ds.map_batches(add_bucket, batch_format="pyarrow")
        for ds in (inputs if isinstance(inputs, list) else [inputs])
    ]
    return (
        (first.union(*rest) if rest else first)
        .groupby(_BUCKET_COLUMN)
        .map_groups(per_bucket, batch_format="pyarrow")
    )
