"""Query-time joins (JoinUtil analog) over Ray Datasets."""

import pyarrow as pa
import ray.data

from lucene_net_ray.pipelines.joins import block_join_parents, semi_join


def _tables():
    cust = ray.data.from_items(
        [{"custkey": i, "nation": i % 3} for i in range(9)]
    )
    orders = ray.data.from_items(
        [{"orderkey": 100 + i, "custkey": i % 6} for i in range(12)]
    )
    return cust, orders


def test_semi_join():
    cust, orders = _tables()
    nation1 = cust.filter(expr="nation == 1")  # custkeys 1, 4, 7
    got = semi_join(orders, "custkey", nation1, "custkey").take_all()
    assert sorted(r["orderkey"] for r in got) == sorted(
        100 + i for i in range(12) if (i % 6) in (1, 4)
    )


def test_anti_join():
    cust, orders = _tables()
    got = semi_join(cust, "custkey", orders, "custkey", negate=True).take_all()
    # orders reference custkeys 0..5 -> customers 6,7,8 are orphans
    assert sorted(r["custkey"] for r in got) == [6, 7, 8]


def test_block_join_parents():
    rows = []
    for parent in range(4):
        for child in range(3):
            rows.append({"parent": parent, "val": parent * 10 + child})
    ds = ray.data.from_items(rows)
    # keep blocks where ANY child has val % 10 == 2 (all of them) vs a
    # selective predicate (only parent 2 has a val == 22)
    out = block_join_parents(
        ds, parent_key="parent",
        child_match=lambda g: pa.compute.equal(g.column("val"), 22),
    ).take_all()
    assert sorted(r["val"] for r in out) == [20, 21, 22]
    out_all = block_join_parents(
        ds, parent_key="parent",
        child_match=lambda g: pa.compute.greater_equal(g.column("val"), 10),
        mode="all",
    ).take_all()
    assert {r["parent"] for r in out_all} == {1, 2, 3}


def test_block_join_parent_scores():
    """ToParentBlockJoinQuery ScoreMode.Avg/Max/Total/None over
    co-partitioned children; NaN = non-matching child."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from lucene_net_ray.pipelines.joins import block_join_parent_scores

    rows = pa.table({
        "parent": [1, 1, 1, 2, 2, 3],
        "val": [10.0, 20.0, 99.0, 5.0, 7.0, 1.0],
        "ok": [True, True, False, True, True, False],
    })

    def cs(batch):
        v = batch.column("val").to_numpy(zero_copy_only=False)
        ok = batch.column("ok").to_numpy(zero_copy_only=False)
        return np.where(ok, v, np.nan)

    ds = ray.data.from_arrow(rows)
    for mode, expect in [
        ("avg", {1: 15.0, 2: 6.0}),
        ("max", {1: 20.0, 2: 7.0}),
        ("total", {1: 30.0, 2: 12.0}),
        ("none", {1: 0.0, 2: 0.0}),
    ]:
        out = block_join_parent_scores(
            ds, parent_key="parent", child_score=cs, score_mode=mode
        ).to_pandas().set_index("parent")
        assert 3 not in out.index  # no matching child
        assert out["score"].to_dict() == expect, mode
    assert out["n_matches"].to_dict() == {1: 2, 2: 2}


def test_semi_join_large_from_side_takes_shuffle_path():
    """Round-4 guard: a from side over the broadcast budget must NOT
    take_all the key set to the driver — the keyed-exchange join runs
    instead and produces identical results (semi and anti, int and string
    keys)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from lucene_net_ray.pipelines import joins

    rng = np.random.default_rng(11)
    to_tbl = pa.table(
        {
            "k": rng.integers(0, 500, size=2000),
            "v": np.arange(2000),
            "s": [f"s{i % 37}" for i in range(2000)],
        }
    )
    from_tbl = pa.table({"fk": rng.integers(0, 700, size=3000)})
    to_ds = ray.data.from_arrow(to_tbl).repartition(4)
    from_ds = ray.data.from_arrow(from_tbl).repartition(4)

    expect_keys = set(from_tbl.column("fk").to_pylist())
    expect_semi = sorted(
        v for k, v in zip(to_tbl.column("k").to_pylist(), to_tbl.column("v").to_pylist())
        if k in expect_keys
    )
    expect_anti = sorted(
        v for k, v in zip(to_tbl.column("k").to_pylist(), to_tbl.column("v").to_pylist())
        if k not in expect_keys
    )

    # budget=1 forces the shuffle path; broadcast gather must never run
    orig = joins.gather_keys
    joins.gather_keys = lambda *a, **kw: (_ for _ in ()).throw(AssertionError("broadcast path used"))
    try:
        semi = joins.semi_join(to_ds, "k", from_ds, "fk", broadcast_key_budget=1)
        anti = joins.semi_join(to_ds, "k", from_ds, "fk", negate=True, broadcast_key_budget=1)
        got_semi = sorted(semi.to_pandas()["v"].tolist())
        got_anti = sorted(anti.to_pandas()["v"].tolist())
    finally:
        joins.gather_keys = orig
    assert got_semi == expect_semi
    assert got_anti == expect_anti

    # string keys route through the dictionary-encoded string hash
    to_s = ray.data.from_arrow(pa.table({"name": [f"s{i % 37}" for i in range(300)],
                                         "v": list(range(300))}))
    from_s = ray.data.from_arrow(pa.table({"name": [f"s{i}" for i in range(0, 37, 2)]}))
    semi_s = joins.semi_join(to_s, "name", from_s, "name", broadcast_key_budget=1)
    exp = sorted(v for i, v in enumerate(range(300)) if (i % 37) % 2 == 0)
    assert sorted(semi_s.to_pandas()["v"].tolist()) == exp

    # small from side still broadcasts (the JoinUtil regime)
    small = joins.semi_join(to_ds, "k", from_ds, "fk")
    assert sorted(small.to_pandas()["v"].tolist()) == expect_semi


def test_block_group_top_k():
    """BlockGroupingCollector analog: top blocks by best child score with
    per-block top children — vs a brute-force pandas oracle."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from lucene_net_ray.pipelines.joins import block_group_top_k

    rng = np.random.default_rng(5)
    n = 3000
    tbl = pa.table(
        {
            "blk": rng.integers(0, 200, size=n),
            "cid": np.arange(n),
            "val": np.round(rng.random(n) * 100, 2),
            "q": rng.integers(0, 60, size=n),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(5)

    def score(batch):
        v = batch.column("val").to_numpy(zero_copy_only=False).astype(float)
        q = batch.column("q").to_numpy(zero_copy_only=False)
        return np.where(q >= 45, v, np.nan)

    got = block_group_top_k(
        ds, block_key="blk", child_id="cid", child_score=score,
        k_groups=7, k_per_group=2,
    )

    import pandas as pd

    df = tbl.to_pandas()
    df = df[df["q"] >= 45].copy()
    df["rank"] = (
        df.sort_values(["val", "cid"], ascending=[False, True])
        .groupby("blk").cumcount() + 1
    )
    best = df.groupby("blk")["val"].max()
    chosen = best.sort_values(ascending=False).index.tolist()
    chosen = sorted(chosen, key=lambda b: (-best[b], b))[:7]
    exp = df[(df["blk"].isin(chosen)) & (df["rank"] <= 2)]
    exp_set = {(r.blk, r.rank, r.cid, r.val) for r in exp.itertuples()}
    got_set = {(r.block, r.rank, r.child, r.score) for r in got.itertuples()}
    assert got_set == exp_set
    # group order = best-score order
    assert list(dict.fromkeys(got["block"])) == chosen


def test_asof_join_backward():
    """As-of join vs a brute-force oracle: latest right with ts <= left.ts
    per key, ties by tie-column desc; inner and left variants."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from lucene_net_ray.pipelines.joins import asof_join

    rng = np.random.default_rng(17)
    nl, nr = 800, 600
    left = pa.table(
        {
            "k": rng.integers(0, 40, size=nl),
            "ts": rng.integers(0, 10_000, size=nl),
            "lid": np.arange(nl),
        }
    )
    right = pa.table(
        {
            "k": rng.integers(0, 50, size=nr),
            "ts": rng.integers(0, 10_000, size=nr),
            "rid": np.arange(nr),
            "val": np.round(rng.random(nr), 3),
        }
    )
    lds = ray.data.from_arrow(left).repartition(4)
    rds = ray.data.from_arrow(right).repartition(3)

    got = asof_join(
        lds, rds, on="k", ts="ts",
        right_keep={"rid": "rid", "val": "val"}, tie="rid",
    ).to_pandas().sort_values("lid").reset_index(drop=True)

    # brute force
    rdf = right.to_pandas()
    rows = []
    for k, t, lid in zip(left["k"].to_pylist(), left["ts"].to_pylist(), left["lid"].to_pylist()):
        cand = rdf[(rdf["k"] == k) & (rdf["ts"] <= t)]
        if len(cand):
            best = cand.sort_values(["ts", "rid"], ascending=[False, False]).iloc[0]
            rows.append((k, t, lid, int(best["rid"]), float(best["val"])))
    exp = pd.DataFrame(rows, columns=["k", "ts", "lid", "rid", "val"]).sort_values(
        "lid"
    ).reset_index(drop=True)
    assert len(got) == len(exp)
    assert got[["lid", "rid", "val"]].equals(exp[["lid", "rid", "val"]])

    # left join keeps unmatched lefts with nulls
    got_l = asof_join(
        lds, rds, on="k", ts="ts", right_keep={"rid": "rid"}, tie="rid", how="left",
    ).to_pandas()
    assert len(got_l) == nl
    matched_ids = set(exp["lid"])
    assert set(got_l[got_l["rid"].notna()]["lid"]) == matched_ids


def test_asof_join_inclusive_and_ties():
    import pyarrow as pa
    import ray.data

    from lucene_net_ray.pipelines.joins import asof_join

    left = pa.table({"k": [1, 1, 2], "ts": [10, 5, 10], "lid": [0, 1, 2]})
    right = pa.table(
        {"k": [1, 1, 1, 2], "ts": [10, 10, 4, 11], "rid": [7, 9, 3, 5]}
    )
    got = (
        asof_join(
            ray.data.from_arrow(left), ray.data.from_arrow(right),
            on="k", ts="ts", right_keep={"rid": "rid"}, tie="rid",
        )
        .to_pandas().sort_values("lid").reset_index(drop=True)
    )
    # lid 0: ts=10 matches rights at ts=10 inclusively; tie rid 9 > 7
    # lid 1: ts=5 -> right ts=4 (rid 3); lid 2: right ts=11 > 10 -> no match
    assert got["lid"].tolist() == [0, 1]
    assert got["rid"].tolist() == [9, 3]


def test_range_join_window_pairs():
    """Range join vs brute force: ALL pairs with right.ts in
    [left.ts - window, left.ts], inclusive both ends, per key."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from lucene_net_ray.pipelines.joins import range_join

    rng = np.random.default_rng(23)
    nl, nr = 500, 700
    left = pa.table(
        {"k": rng.integers(0, 30, size=nl), "ts": rng.integers(0, 5000, size=nl),
         "lid": np.arange(nl)}
    )
    right = pa.table(
        {"k": rng.integers(0, 35, size=nr), "ts": rng.integers(0, 5000, size=nr),
         "rid": np.arange(nr)}
    )
    got = range_join(
        ray.data.from_arrow(left).repartition(4),
        ray.data.from_arrow(right).repartition(3),
        on="k", ts="ts", window=100, right_keep={"rid": "rid"},
    ).to_pandas()
    got_set = {(r.lid, r.rid) for r in got.itertuples()}

    ldf, rdf = left.to_pandas(), right.to_pandas()
    exp = set()
    for k, t, lid in zip(ldf["k"], ldf["ts"], ldf["lid"]):
        m = rdf[(rdf["k"] == k) & (rdf["ts"] >= t - 100) & (rdf["ts"] <= t)]
        exp |= {(lid, rid) for rid in m["rid"]}
    assert got_set == exp
    assert len(got) == len(exp)  # no duplicate pair emission


def test_range_join_inclusive_bounds_and_timestamps():
    import numpy as np
    import pyarrow as pa
    import ray.data

    from lucene_net_ray.pipelines.joins import range_join

    base = np.datetime64("2024-01-01T00:00:00", "us")
    left = pa.table({"k": [1], "ts": [base + np.timedelta64(100, "s")], "lid": [0]})
    right = pa.table(
        {
            "k": [1, 1, 1, 1],
            "ts": [base, base + np.timedelta64(40, "s"),
                   base + np.timedelta64(100, "s"), base + np.timedelta64(101, "s")],
            "rid": [0, 1, 2, 3],
        }
    )
    got = range_join(
        ray.data.from_arrow(left), ray.data.from_arrow(right),
        on="k", ts="ts", window=np.timedelta64(60, "s"), right_keep={"rid": "rid"},
    ).to_pandas()
    # [ts-60s, ts] inclusive: rid 1 (t-60<t-40? in) and rid 2 (== ts); rid 0
    # is 100s before (outside), rid 3 is after
    assert sorted(got["rid"].tolist()) == [1, 2]
