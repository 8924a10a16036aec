"""The keyed exchange (stages/exchange.py): one deterministic key -> bucket
function for every coarse-hash shuffle, and the groupby that hands each
bucket's whole keys to one kernel call."""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data

from lucene_net_ray.stages.exchange import BUCKETS, key_buckets, keyed_exchange


def _table() -> pa.Table:
    rng = np.random.default_rng(7)
    n = 400
    words = np.array(["alpha", "beta", "", "gamma delta", "ünïcode", "x" * 300])
    ints = rng.integers(-(1 << 40), 1 << 40, n)
    ints[::7] = 0
    return pa.table(
        {
            "i": pa.array(ints, type=pa.int64()),
            "s": pa.array(words[rng.integers(0, words.size, n)].tolist()),
            "u": pa.array(rng.integers(0, 1 << 63, n, dtype=np.uint64)),
            "n": pa.array([None if j % 5 == 0 else j % 3 for j in range(n)], type=pa.int64()),
            "t": pa.array([None if j % 4 == 0 else f"k{j % 9}" for j in range(n)]),
        }
    )


KEYSETS = [["i"], ["s"], ["u"], ["n"], ["t"], ["s", "i"], ["t", "n"]]


@ray.remote
def _remote_buckets(table: pa.Table, keys: list[str]) -> np.ndarray:
    return key_buckets(table, keys)


@pytest.mark.parametrize("keys", KEYSETS, ids=["+".join(k) for k in KEYSETS])
def test_same_bucket_in_a_ray_task_and_on_the_driver(ray_session, keys):
    t = _table()
    here = key_buckets(t, keys)
    there = ray.get(_remote_buckets.remote(t, keys))
    assert np.array_equal(here, there)
    assert here.dtype == np.int64
    assert here.min() >= 0 and here.max() < BUCKETS


@pytest.mark.parametrize("keys", KEYSETS, ids=["+".join(k) for k in KEYSETS])
def test_equal_keys_share_a_bucket(keys):
    t = _table()
    b = key_buckets(t, keys)
    rows = list(zip(*(t.column(k).to_pylist() for k in keys)))
    first = {}
    for r, bucket in zip(rows, b.tolist()):
        assert first.setdefault(r, bucket) == bucket


def test_chunking_and_type_width_do_not_move_a_key():
    t = _table()
    whole = key_buckets(t, ["s", "i"])
    chunked = pa.Table.from_batches(t.to_batches(max_chunksize=37))
    assert chunked.column("s").num_chunks > 1
    assert np.array_equal(key_buckets(chunked, ["s", "i"]), whole)
    narrow = pa.table(
        {
            "s": t.column("s").cast(pa.large_string()),
            "i": pa.array([v % 1000 for v in t.column("i").to_pylist()], type=pa.int32()),
        }
    )
    wide = narrow.set_column(1, "i", narrow.column("i").cast(pa.int64()))
    assert np.array_equal(key_buckets(narrow, ["s", "i"]), key_buckets(wide, ["s", "i"]))
    assert np.array_equal(
        key_buckets(narrow, ["s"]), key_buckets(t.select(["s"]), ["s"])
    )


def test_nulls_share_one_bucket_and_empty_input():
    t = pa.table({"k": pa.array([None, "a", None, "b"])})
    b = key_buckets(t, ["k"])
    assert b[0] == b[2]
    empty = pa.table({"k": pa.array([], type=pa.string()), "v": pa.array([], type=pa.int64())})
    assert key_buckets(empty, ["k", "v"]).shape == (0,)


def test_keys_spread_over_buckets():
    t = pa.table({"k": pa.array([f"term{j}" for j in range(20_000)])})
    counts = np.bincount(key_buckets(t, ["k"]), minlength=BUCKETS)
    mean = 20_000 / BUCKETS
    assert counts.min() > 0.5 * mean and counts.max() < 1.5 * mean


def test_every_row_of_a_key_reaches_one_call(ray_session):
    rng = np.random.default_rng(3)
    n = 3000
    keys = rng.integers(0, 900, n)
    tbl = pa.table(
        {
            "k": pa.array([f"w{k}" for k in keys]),
            "j": pa.array(keys % 4),
            "row": pa.array(np.arange(n)),
        }
    )

    def per_call(group: pa.Table) -> pa.Table:
        assert "__xbucket" not in group.column_names
        call = f"{group.column('row')[0].as_py()}"  # any row names its call
        return pa.table(
            {
                "k": group.column("k"),
                "j": group.column("j"),
                "row": group.column("row"),
                "call": pa.array([call] * group.num_rows),
            }
        )

    # two inputs of one schema meet in the exchange, as in a co-partition join
    sides = [
        ray.data.from_arrow(tbl.slice(0, 1000)),
        ray.data.from_arrow(tbl.slice(1000)).repartition(5),
    ]
    out = keyed_exchange(sides, ["k", "j"], per_call).to_pandas()
    assert sorted(out["row"]) == list(range(n))
    calls = out.groupby(["k", "j"])["call"].nunique()
    assert (calls == 1).all()
    assert out["call"].nunique() > 1


def test_empty_blocks_pass_through(ray_session):
    tbl = pa.table({"k": pa.array([1, 2, 1], type=pa.int64()), "v": pa.array([1, 2, 3])})
    ds = ray.data.from_arrow(tbl).repartition(3).filter(lambda r: r["v"] != 2)

    def total(group: pa.Table) -> pa.Table:
        return pa.table({"k": group.column("k")[:1], "v": [sum(group.column("v").to_pylist())]})

    got = keyed_exchange(ds, "k", total).to_pandas()
    assert got.to_dict("records") == [{"k": 1, "v": 4}]
