"""The sorted-parts store (state/sorted_parts.py) behind the merged index,
the suggesters and the spell checker."""

import os
import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from lucene_net_ray.state.sorted_parts import SortedParts, covering, write_sorted_parts


class _Blocks:
    """A key-sorted stand-in Dataset with fixed output blocks: write_parquet
    writes one part file per block, as Ray Data does."""

    def __init__(self, *tables: pa.Table):
        self.tables = tables

    def write_parquet(self, path: str, row_group_size: int) -> None:
        for i, t in enumerate(self.tables):
            pq.write_table(t, os.path.join(path, f"part-{i:03d}.parquet"), row_group_size=row_group_size)


def _kv(keys, start=0):
    return pa.table({"k": pa.array(keys, type=pa.string()),
                     "v": pa.array(range(start, start + len(keys)), type=pa.int64())})


def test_covering_matches_linear_scan():
    rng = random.Random(7)
    for _ in range(500):
        keys = sorted(rng.choices(range(60), k=rng.randint(1, 40)))
        cuts = sorted(rng.sample(range(1, len(keys)), rng.randint(0, len(keys) - 1)))
        parts = [keys[a:b] for a, b in zip([0] + cuts, cuts + [len(keys)])]
        mins = [p[0] for p in parts]
        maxs = [p[-1] for p in parts]
        lo = rng.randint(-5, 65)
        hi = lo + rng.randint(0, 20)
        want = [i for i in range(len(parts)) if mins[i] <= hi and lo <= maxs[i]]
        assert list(covering(mins, maxs, lo, hi)) == want, (mins, maxs, lo, hi)


def test_straddling_key_reads_both_parts_in_order(tmp_path):
    d = str(tmp_path / "parts")
    entries = write_sorted_parts(
        _Blocks(_kv(["a", "b", "m"]), _kv(["m", "m", "x"], 3), _kv(["y", "z"], 6)), d, "k"
    )
    assert [(e["min"], e["max"], e["rows"]) for e in entries] == [
        ("a", "m", 3), ("m", "x", 3), ("y", "z", 2)
    ]
    store = SortedParts(d, entries, "k")
    t = store.read("m", "m", ["v"])
    assert t.column("v").to_pylist() == [2, 3, 4]
    assert store.parts_read == 2
    assert store.read("c", "l") is None
    assert store.read("b", "n").column("k").to_pylist() == ["b", "m", "m", "m"]
    store.check()


def test_empty_parts_are_dropped(tmp_path):
    d = str(tmp_path / "parts")
    entries = write_sorted_parts(_Blocks(_kv(["a", "c"]), _kv([]), _kv(["d"], 2)), d, "k")
    assert [e["file"] for e in entries] == ["part-000.parquet", "part-002.parquet"]
    assert sorted(os.listdir(d)) == ["part-000.parquet", "part-002.parquet"]
    SortedParts(d, entries, "k").check()


def test_write_replaces_stale_parts_and_temp_dirs(tmp_path):
    """A crashed build leaves part files and a temp dir behind; the next
    write serves none of them and leaves no temp dir."""
    d = str(tmp_path / "parts")
    os.makedirs(d)
    pq.write_table(_kv(["ghost"]), os.path.join(d, "crashed_000000.parquet"))
    os.makedirs(d + ".tmp99999")
    entries = write_sorted_parts(_Blocks(_kv(["a", "b"])), d, "k")
    assert sorted(os.listdir(tmp_path)) == ["parts"]
    assert os.listdir(d) == ["part-000.parquet"]
    store = SortedParts(d, entries, "k")
    assert store.read("ghost", "ghost") is None
    store.check()


def test_row_groups_prune_inside_a_part(tmp_path):
    d = str(tmp_path / "parts")
    keys = [f"t{i:05d}" for i in range(2000)]  # 4 row groups of 512 rows
    entries = write_sorted_parts(_Blocks(_kv(keys)), d, "k")
    store = SortedParts(d, entries, "k")
    assert store._row_groups(0, "t01500", "t01500") == [2]
    assert store.read("t01500", "t01500", ["v"]).column("v").to_pylist() == [1500]
    assert store.read("t00510", "t00515").num_rows == 6


def test_scan_subset_and_part_filter(tmp_path):
    d = str(tmp_path / "parts")
    entries = write_sorted_parts(
        _Blocks(_kv(["a", "b"]), _kv(["c", "d"], 2), _kv(["e", "f"], 4)), d, "k"
    )
    store = SortedParts(d, entries, "k")
    assert [t.column("k").to_pylist() for t in store.scan(["k"])] == [["a", "b"], ["c", "d"], ["e", "f"]]
    assert store.parts_read == 3
    kept = [t.column("k").to_pylist() for t in store.scan(["k"], lambda lo, hi: hi >= "d")]
    assert kept == [["c", "d"], ["e", "f"]]
    tail = store.subset([2, 1])
    assert [e["min"] for e in tail.entries] == ["c", "e"]
    assert tail.read("a", "z").column("v").to_pylist() == [2, 3, 4, 5]
    assert tail.parts_read == 2


def test_check_catches_a_stray_part(tmp_path):
    d = str(tmp_path / "parts")
    entries = write_sorted_parts(_Blocks(_kv(["a"])), d, "k")
    pq.write_table(_kv(["b"]), os.path.join(d, "stray.parquet"))
    with pytest.raises(AssertionError, match="manifest != dir"):
        SortedParts(d, entries, "k").check()


def test_ray_sorted_dataset_round_trip(tmp_path):
    rng = random.Random(3)
    keys = [f"w{rng.randint(0, 300):03d}" for _ in range(2000)]
    ds = ray.data.from_arrow(_kv(keys)).repartition(6).sort("k")
    d = str(tmp_path / "parts")
    store = SortedParts(d, write_sorted_parts(ds, d, "k"), "k")
    store.check()
    assert len(store.entries) >= 2
    assert sum(e["rows"] for e in store.entries) == len(keys)
    for key in ["w000", "w150", keys[7], "w300", "w999"]:
        got = store.read(key, key)
        assert (0 if got is None else got.num_rows) == keys.count(key), key
