"""Query-time joins — JoinUtil analog over Ray Datasets.

Reference: /root/reference/src/Lucene.Net.Join/JoinUtil.cs:18 —
``CreateJoinQuery(fromField, fromQuery, toField)`` runs the "from" query,
collects the matching docs' fromField terms (TermsCollector.cs), and rewrites
to a query matching any "to" doc whose toField holds one of them. The
index-time parent/child block join (ToParentBlockJoinQuery.cs:74) maps to
``block_join_parents`` over co-partitioned parent/child rows.

Ray-Data-first plan (SURVEY.md §2.7 "Joins" row): the from side's distinct
key set is gathered with a Ray aggregate (it is the SMALL side by
construction — a query's match set), broadcast once via ``ray.put``, and the
to side streams through a set-membership ``map_batches`` filter. No
all-to-all shuffle: the only exchange is the distinct-key aggregate. When
the from side is NOT small (semi-joining two full tables), that is exactly
``Dataset.join`` / the keyed exchange of stages/exchange.py instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..stages.exchange import keyed_exchange


def gather_keys(from_ds: ray.data.Dataset, from_field: str) -> np.ndarray:
    """Distinct from-side keys via a groupby aggregate (TermsCollector
    analog). The distinct set — not the rows — comes back to the driver."""
    distinct = from_ds.select_columns([from_field]).groupby(from_field).count()
    vals = [r[from_field] for r in distinct.take_all()]
    return np.asarray(sorted(v for v in vals if v is not None))


def _semi_join_shuffle(
    to_ds: ray.data.Dataset,
    to_field: str,
    distinct_keys: ray.data.Dataset,
    from_field: str,
    *,
    negate: bool,
) -> ray.data.Dataset:
    """Large-from-side fallback: ONE keyed exchange of BOTH sides on the key,
    membership tested inside each bucket. The distinct key set never
    touches the driver."""
    to_schema = to_ds.schema()  # Ray Schema wrapper: .names + pyarrow .types
    names = list(to_schema.names)
    types = list(to_schema.types)

    def tag_to(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "__from", pa.array(np.zeros(batch.num_rows, dtype=bool))
        )

    def tag_from(batch: pa.Table) -> pa.Table:
        col = batch.column(from_field)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        arrays = []
        for name, typ in zip(names, types):
            if name == to_field:
                arrays.append(col.cast(typ))
            else:
                arrays.append(pa.nulls(batch.num_rows, typ))
        t = pa.table(dict(zip(names, arrays)))
        return t.append_column(
            "__from", pa.array(np.ones(batch.num_rows, dtype=bool))
        )

    def in_group(group: pa.Table) -> pa.Table:
        from_mask = group.column("__from")
        keys = group.filter(from_mask).column(to_field).unique()
        to_rows = group.filter(pc.invert(from_mask))
        m = pc.is_in(to_rows.column(to_field), value_set=keys)
        if negate:
            m = pc.invert(pc.fill_null(m, False))
        return to_rows.filter(m).drop_columns(["__from"])

    return keyed_exchange(
        [
            to_ds.map_batches(tag_to, batch_format="pyarrow"),
            distinct_keys.map_batches(tag_from, batch_format="pyarrow"),
        ],
        to_field,
        in_group,
    )


def semi_join(
    to_ds: ray.data.Dataset,
    to_field: str,
    from_ds: ray.data.Dataset,
    from_field: str,
    *,
    negate: bool = False,
    broadcast_key_budget: int = 2_000_000,
) -> ray.data.Dataset:
    """to-side rows whose ``to_field`` is (not, if negate) in the from side's
    distinct ``from_field`` set. JoinUtil semi-join / anti-join semantics.

    The distinct key set is usually query-match-sized (JoinUtil's regime):
    it broadcasts once via ``ray.put`` and the to side streams through a
    membership filter. A from side with more than ``broadcast_key_budget``
    distinct keys would OOM the driver on the old unconditional ``take_all``
    — such inputs now route to the keyed-exchange join instead (round-4
    guard; the distinct COUNT is checked first, a row-count aggregate that
    brings no values back)."""
    distinct = (
        from_ds.select_columns([from_field]).groupby(from_field).count().materialize()
    )
    n_distinct = distinct.count()
    if n_distinct > broadcast_key_budget:
        return _semi_join_shuffle(
            to_ds,
            to_field,
            distinct.select_columns([from_field]),
            from_field,
            negate=negate,
        )
    vals = [r[from_field] for r in distinct.take_all()]
    keys = np.asarray(sorted(v for v in vals if v is not None))
    keys_ref = ray.put(keys)

    def filt(batch: pa.Table) -> pa.Table:
        ks = ray.get(keys_ref)
        mask = pc.is_in(batch.column(to_field), value_set=pa.array(ks))
        if negate:
            mask = pc.invert(pc.fill_null(mask, False))
        return batch.filter(mask)

    return to_ds.map_batches(filt, batch_format="pyarrow")


def block_join_parents(
    ds: ray.data.Dataset,
    *,
    parent_key: str,
    child_match: "callable",
    mode: str = "any",
) -> ray.data.Dataset:
    """ToParentBlockJoinQuery analog for co-partitioned parent/child rows:
    keep groups (blocks) sharing ``parent_key`` where ``child_match(batch)``
    holds for any/all children. ``child_match`` is a vectorized predicate
    batch -> BooleanArray. The groupby shuffles by parent key — the
    'parent/child must be co-located' assumption the reference encodes by
    indexing blocks contiguously is expressed here as the partitioning key."""
    if mode not in ("any", "all"):
        raise ValueError(mode)

    def reduce_group(group: pa.Table) -> pa.Table:
        m = child_match(group)
        arr = m.to_numpy(zero_copy_only=False).astype(bool)
        ok = arr.any() if mode == "any" else arr.all()
        return group if ok else group.slice(0, 0)

    return ds.groupby(parent_key).map_groups(reduce_group, batch_format="pyarrow")


def asof_join(
    left_ds: ray.data.Dataset,
    right_ds: ray.data.Dataset,
    *,
    on: str,
    ts: str,
    right_keep: dict | None = None,
    tie: str | None = None,
    how: str = "inner",
) -> ray.data.Dataset:
    """As-of join: each left row matches the LATEST right row with the same
    ``on`` key and ``right.ts <= left.ts`` (backward direction — the
    feature-engineering staple Ray Data lacks natively; the charter's custom
    -operator case (a)). Ties on the right timestamp break by ``tie``
    descending (pass the right side's id column for determinism).

    Plan: both sides meet in ONE keyed exchange on the key
    (stages/exchange.py); inside each bucket a single lexsort over
    the interleaved rows + a segmented cumulative-max computes every match
    vectorized — no per-key loop, no per-row search. ``right_keep`` maps
    right columns to output names (default {ts: ts+'_right'});
    ``how='left'`` emits unmatched left rows with nulls.
    """
    if how not in ("inner", "left"):
        raise ValueError(how)
    right_keep = dict(right_keep or {ts: f"{ts}_right"})
    l_schema = left_ds.schema()
    l_names = list(l_schema.names)
    l_types = list(l_schema.types)
    r_cols = [on, ts] + [c for c in right_keep if c not in (on, ts)]
    if tie and tie not in r_cols:
        r_cols.append(tie)

    r_schema = right_ds.schema()
    r_types = {n: t for n, t in zip(r_schema.names, r_schema.types)}

    def norm_left(batch: pa.Table) -> pa.Table:
        t = batch
        for c in r_cols:
            t = t.append_column(f"__r_{c}", pa.nulls(batch.num_rows, r_types[c]))
        return t.append_column(
            "__right", pa.array(np.zeros(batch.num_rows, dtype=bool))
        )

    def norm_right(batch: pa.Table) -> pa.Table:
        cols = {}
        for name, typ in zip(l_names, l_types):
            if name == on:
                cols[name] = batch.column(on).cast(typ)
            elif name == ts:
                cols[name] = batch.column(ts).cast(typ)
            else:
                cols[name] = pa.nulls(batch.num_rows, typ)
        for c in r_cols:
            cols[f"__r_{c}"] = batch.column(c)
        t = pa.table(cols)
        return t.append_column(
            "__right", pa.array(np.ones(batch.num_rows, dtype=bool))
        )

    sides = [
        left_ds.map_batches(norm_left, batch_format="pyarrow"),
        right_ds.select_columns(r_cols).map_batches(norm_right, batch_format="pyarrow"),
    ]

    def in_group(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return group.drop_columns(["__right"])
        key = group.column(on).to_numpy(zero_copy_only=False)
        tsv = group.column(ts).to_numpy(zero_copy_only=False)
        is_r = group.column("__right").to_numpy(zero_copy_only=False)
        tiev = (
            group.column(f"__r_{tie}").to_numpy(zero_copy_only=False)
            if tie
            else np.zeros(n)
        )
        # rights sort BEFORE lefts at equal ts (<= is inclusive); among
        # equal-ts rights the tie column ascending puts the winner last
        side = (~is_r).astype(np.int8)
        tie_sort = np.where(is_r, tiev, np.zeros_like(tiev))
        kcodes = np.unique(key, return_inverse=True)[1]
        order = np.lexsort((tie_sort, side, tsv, kcodes))
        k2, r2 = kcodes[order], is_r[order]
        idx = np.arange(n, dtype=np.int64)
        run = np.concatenate(([True], k2[1:] != k2[:-1])).cumsum() - 1
        m = np.where(r2, run * np.int64(n) + idx, -1)
        cm = np.maximum.accumulate(m)
        valid = (cm >= 0) & (cm // n == run)
        right_pos = np.where(valid, cm % n, -1)
        left_mask = ~r2
        lp = idx[left_mask]
        rp = right_pos[left_mask]
        matched = rp >= 0
        if how == "inner":
            lp, rp = lp[matched], rp[matched]
            matched = np.ones(lp.size, dtype=bool)
        left_rows = group.take(pa.array(order[lp]))
        out = left_rows.select(l_names)
        for c, out_name in right_keep.items():
            col = group.column(f"__r_{c}").take(
                pa.array(np.where(matched, order[np.maximum(rp, 0)], 0))
            )
            if not matched.all():
                col = pa.compute.if_else(pa.array(matched), col, pa.nulls(lp.size, col.type))
            out = out.append_column(out_name, col)
        return out

    return keyed_exchange(sides, on, in_group)


def range_join(
    left_ds: ray.data.Dataset,
    right_ds: ray.data.Dataset,
    *,
    on: str,
    ts: str,
    window,
    right_keep: dict | None = None,
) -> ray.data.Dataset:
    """Range (interval) join: ALL pairs with the same ``on`` key and
    ``left.ts - window <= right.ts <= left.ts`` — the bounded-window sibling
    of asof_join (the charter's other custom-operator example; sessions,
    attribution windows, feature lookback).

    Plan: same single keyed exchange as asof_join; inside each bucket
    the window bounds come from PROBE ROWS — every left contributes a lower
    probe at ts-window and an upper probe at ts, one lexsort orders
    (key, ts, lower<right<upper), and an exclusive cumsum of right rows
    read at the probe positions yields each left's right-range without any
    per-key or per-row search. Pair emission is the repeat/arange ragged
    expansion. No composite-key overflow, no per-key Python loop.
    """
    right_keep = dict(right_keep or {ts: f"{ts}_right"})
    l_schema = left_ds.schema()
    l_names = list(l_schema.names)
    l_types = list(l_schema.types)
    r_schema = right_ds.schema()
    r_types = {n: t for n, t in zip(r_schema.names, r_schema.types)}
    r_cols = list(dict.fromkeys([on, ts, *right_keep]))

    # the asof_join union discipline: null-pad the right side to the left
    # schema plus __r_* carrier columns, ONE keyed exchange co-locates
    # both sides, the kernel splits them in-group — nothing crosses the
    # driver
    def norm_left(batch: pa.Table) -> pa.Table:
        t = batch
        for c in r_cols:
            t = t.append_column(f"__r_{c}", pa.nulls(batch.num_rows, r_types[c]))
        return t.append_column(
            "__right", pa.array(np.zeros(batch.num_rows, dtype=bool))
        )

    def norm_right(batch: pa.Table) -> pa.Table:
        cols = {}
        for name, typ in zip(l_names, l_types):
            cols[name] = (
                batch.column(on).cast(typ) if name == on else pa.nulls(batch.num_rows, typ)
            )
        for c in r_cols:
            cols[f"__r_{c}"] = batch.column(c)
        t = pa.table(cols)
        return t.append_column(
            "__right", pa.array(np.ones(batch.num_rows, dtype=bool))
        )

    sides = [
        left_ds.map_batches(norm_left, batch_format="pyarrow"),
        right_ds.select_columns(r_cols).map_batches(norm_right, batch_format="pyarrow"),
    ]

    def join_group(group: pa.Table) -> pa.Table:
        is_r = group.column("__right")
        right = group.filter(is_r)
        left = group.filter(pa.compute.invert(is_r))
        right_view = pa.table(
            {c: right.column(f"__r_{c}") for c in r_cols}
        )
        return _range_join_tables(
            left, right_view, on=on, ts=ts, window=window,
            l_names=l_names, right_keep=right_keep,
        )

    return keyed_exchange(sides, on, join_group)


def _empty_pairs(group: pa.Table, l_names, right_keep, right: pa.Table | None):
    cols = {n: group.column(n).slice(0, 0) for n in l_names}
    for c, out_name in right_keep.items():
        typ = right.column(c).type if right is not None else pa.int64()
        cols[out_name] = pa.nulls(0, typ)
    return pa.table(cols)


def _range_join_tables(
    left: pa.Table, right: pa.Table, *, on, ts, window, l_names, right_keep
) -> pa.Table:
    """The probe-row kernel over two already-co-partitioned tables."""
    lk = left.column(on).to_numpy(zero_copy_only=False)
    lt = left.column(ts).to_numpy(zero_copy_only=False)
    rk = right.column(on).to_numpy(zero_copy_only=False)
    rt = right.column(ts).to_numpy(zero_copy_only=False)
    nl, nr = lk.size, rk.size
    if nl == 0 or nr == 0:
        return _empty_pairs(left, l_names, right_keep, right)
    keys = np.concatenate((lk, lk, rk))
    # numpy datetime64 arithmetic handles timestamp windows; ints pass through
    tss = np.concatenate(((lt - window), lt, rt))
    # side order at equal ts: lower probe (0) < right (1) < upper probe (2)
    side = np.concatenate(
        (np.zeros(nl, np.int8), np.full(nl, 2, np.int8), np.ones(nr, np.int8))
    )
    order = np.lexsort((side, tss, keys))
    is_right = side[order] == 1
    # exclusive prefix count of rights at every sorted position: at a lower
    # probe (sorts before equal-ts rights) it excludes them; at an upper
    # probe (sorts after) it includes them — inclusive [ts-window, ts]
    excl = np.concatenate(([0], np.cumsum(is_right)))[:-1]
    pos_of = np.empty(2 * nl + nr, dtype=np.int64)
    pos_of[order] = np.arange(order.size)
    lo = excl[pos_of[:nl]]
    hi = excl[pos_of[nl : 2 * nl]]
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _empty_pairs(left, l_names, right_keep, right)
    # right rows in sorted order -> their indices in the right table
    right_order = order[np.flatnonzero(is_right)] - 2 * nl
    left_idx = np.repeat(np.arange(nl), counts)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    slot = np.repeat(lo, counts) + np.arange(total) - np.repeat(bounds[:-1], counts)
    right_idx = right_order[slot]
    out = left.select(l_names).take(pa.array(left_idx))
    for c, out_name in right_keep.items():
        out = out.append_column(out_name, right.column(c).take(pa.array(right_idx)))
    return out


def block_group_top_k(
    ds: ray.data.Dataset,
    *,
    block_key: str,
    child_id: str,
    child_score: "callable",
    k_groups: int = 10,
    k_per_group: int = 2,
) -> "pd.DataFrame":
    """BlockGroupingCollector analog (reference
    Grouping/BlockGroupingCollector.cs: groups are CONTIGUOUS doc blocks —
    here rows sharing ``block_key`` in co-partitioned data, the same
    assumption block_join encodes): top ``k_groups`` blocks by their best
    matching child's score, with each block's top ``k_per_group`` children.

    ``child_score(batch) -> float64 ndarray`` scores children (NaN = no
    match). Scale plan mirrors block_join_parent_scores: per-batch
    vectorized per-block top-k partials (one lexsort), a keyed exchange on
    block to merge them (exchange rows ~ k_per_group per (batch, block)), then ONE
    k_groups-sized sort+limit — the driver sees only the final page.
    Returns a pandas frame (block, rank, child, score) in group order.
    """
    import pandas as pd

    def partials(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "block": pa.array([], type=pa.int64()),
            "child": pa.array([], type=pa.int64()),
            "score": pa.array([], type=pa.float64()),
        })
        if batch.num_rows == 0:
            return empty
        scores = np.asarray(child_score(batch), dtype=np.float64)
        blocks = batch.column(block_key).to_numpy(zero_copy_only=False)
        ids = batch.column(child_id).to_numpy(zero_copy_only=False)
        m = ~np.isnan(scores)
        if not m.any():
            return empty
        blocks, ids, scores = blocks[m], ids[m], scores[m]
        order = np.lexsort((ids, -scores, blocks))
        b2, i2, s2 = blocks[order], ids[order], scores[order]
        # rank within block = position since block start; keep < k_per_group
        newrun = np.concatenate(([True], b2[1:] != b2[:-1]))
        starts = np.flatnonzero(newrun)
        rank = np.arange(b2.size) - np.repeat(starts, np.diff(np.concatenate((starts, [b2.size]))))
        keep = rank < k_per_group
        return pa.table({
            "block": pa.array(b2[keep].astype(np.int64)),
            "child": pa.array(i2[keep].astype(np.int64)),
            "score": pa.array(s2[keep]),
        })

    def merge(group: pa.Table) -> pa.Table:
        b = group.column("block").to_numpy(zero_copy_only=False)
        i = group.column("child").to_numpy(zero_copy_only=False)
        s = group.column("score").to_numpy(zero_copy_only=False)
        order = np.lexsort((i, -s, b))
        b2, i2, s2 = b[order], i[order], s[order]
        newrun = np.concatenate(([True], b2[1:] != b2[:-1]))
        starts = np.flatnonzero(newrun)
        rank = np.arange(b2.size) - np.repeat(
            starts, np.diff(np.concatenate((starts, [b2.size])))
        )
        keep = rank < k_per_group
        best = np.repeat(s2[starts], np.diff(np.concatenate((starts, [b2.size]))))[keep]
        return pa.table({
            "block": pa.array(b2[keep]),
            "rank": pa.array((rank[keep] + 1).astype(np.int64)),
            "child": pa.array(i2[keep]),
            "score": pa.array(s2[keep]),
            "best": pa.array(best),
        })

    merged = keyed_exchange(ds.map_batches(partials, batch_format="pyarrow"), "block", merge)
    # top blocks by (best child score desc, block asc): page-sized result
    page = merged.sort(["best", "block", "rank"], descending=[True, False, False]).limit(
        k_groups * k_per_group * 2
    ).to_pandas()
    chosen = []
    for blk in page["block"]:
        if blk not in chosen:
            chosen.append(blk)
        if len(chosen) == k_groups:
            break
    out = page[page["block"].isin(chosen)].drop(columns=["best"])
    out = out.sort_values(["block", "rank"]).reset_index(drop=True)
    # order groups by best-score rank, not block id
    key = {b: i for i, b in enumerate(chosen)}
    out = out.sort_values(by=["block", "rank"], key=lambda c: c.map(key) if c.name == "block" else c)
    return out.reset_index(drop=True)


def block_join_parent_scores(
    ds: ray.data.Dataset,
    *,
    parent_key: str,
    child_score: "callable",
    score_mode: str = "avg",
) -> ray.data.Dataset:
    """ToParentBlockJoinQuery ScoreMode analog (reference
    Join/ToParentBlockJoinQuery.cs:74 with ScoreMode None/Avg/Max/Total —
    how matching children's scores aggregate to their parent).
    ``child_score(batch) -> float64 ndarray`` scores each child row, NaN =
    child does not match; parents with no matching child are dropped.
    Returns Dataset(parent, score, n_matches).

    Scale plan: per-batch vectorized partials (sum/count/max per parent via
    one argsort + run-length reduce — a combiner before the shuffle, so the
    exchange carries one row per (block, parent), not per child), then the
    keyed exchange on parent with an in-bucket vectorized merge —
    never one Ray aggregate per parent key."""
    if score_mode not in ("none", "avg", "max", "total"):
        raise ValueError(score_mode)

    def partials(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "parent": pa.array([], type=pa.int64()),
            "s_sum": pa.array([], type=pa.float64()),
            "s_max": pa.array([], type=pa.float64()),
            "n": pa.array([], type=pa.int64()),
        })
        if batch.num_rows == 0:
            return empty
        scores = np.asarray(child_score(batch), dtype=np.float64)
        pk = batch.column(parent_key).to_numpy(zero_copy_only=False)
        m = ~np.isnan(scores)
        if not m.any():
            return empty
        pk, scores = pk[m], scores[m]
        order = np.argsort(pk, kind="stable")
        p2, s2 = pk[order], scores[order]
        newrun = p2[1:] != p2[:-1]
        starts = np.concatenate(([0], np.flatnonzero(newrun) + 1))
        ends = np.concatenate((starts[1:], [p2.size]))
        sums = np.add.reduceat(s2, starts)
        maxs = np.maximum.reduceat(s2, starts)
        return pa.table({
            "parent": pa.array(p2[starts].astype(np.int64)),
            "s_sum": pa.array(sums),
            "s_max": pa.array(maxs),
            "n": pa.array((ends - starts).astype(np.int64)),
        })

    def merge(group: pa.Table) -> pa.Table:
        p = group.column("parent").to_numpy(zero_copy_only=False)
        ssum = group.column("s_sum").to_numpy(zero_copy_only=False)
        smax = group.column("s_max").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        order = np.argsort(p, kind="stable")
        p2, ssum2, smax2, n2 = p[order], ssum[order], smax[order], n[order]
        newrun = p2[1:] != p2[:-1]
        starts = np.concatenate(([0], np.flatnonzero(newrun) + 1))
        tot = np.add.reduceat(ssum2, starts)
        mx = np.maximum.reduceat(smax2, starts)
        cnt = np.add.reduceat(n2, starts)
        if score_mode == "avg":
            score = tot / cnt
        elif score_mode == "total":
            score = tot
        elif score_mode == "max":
            score = mx
        else:  # "none": match-only semantics, parent score 0
            score = np.zeros(starts.size)
        return pa.table({
            "parent": pa.array(p2[starts]),
            "score": pa.array(np.floor(score * 1e6 + 0.5) / 1e6),  # DuckDB ROUND
            "n_matches": pa.array(cnt),
        })

    return keyed_exchange(ds.map_batches(partials, batch_format="pyarrow"), "parent", merge)
