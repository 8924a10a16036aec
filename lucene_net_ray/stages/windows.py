"""Windowed aggregates over event streams (the custom-operator class the
charter calls out: "a windowed aggregate ... as a composition of map_batches
+ groupby().map_groups + sort").

  tumbling_window_agg  fixed epoch-aligned windows: the window id is a pure
                       per-row function (vectorized in map_batches), so the
                       ONLY exchange is the final groupby(win, keys) over
                       already-partial aggregates — no sort, no sessions
                       state. Partitioning assumption: none (stateless).
  sessionize           session windows (gap > timeout splits): needs all of
                       one user's events together, so it is ONE
                       groupby(user).map_groups; inside the group the sort +
                       gap-split + per-session reduce are vectorized numpy.
                       Partitioning assumption: a single user's events fit a
                       worker. For corpora where that can fail, the salted
                       variants below (sessionize_salted /
                       funnel_counts_salted) remove the bound exactly —
                       no task ever holds more than one (user, time-block)
                       of events — and are driver-proven hash-exact against
                       the SAME SQL oracles.

Both are SQL-expressible (epoch arithmetic / lag-over-partition
sessionization) and carry hash-exact oracles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from .exchange import keyed_exchange


def tumbling_window_agg(
    ds: ray.data.Dataset,
    *,
    window_us: int = 3_600_000_000,
    ts_column: str = "ts",
    value_column: str = "value",
    key_column: str = "event_type",
) -> ray.data.Dataset:
    """(win, key, n_events, sum_value) per epoch-aligned tumbling window."""

    def bucket(batch: pa.Table) -> pa.Table:
        us = batch.column(ts_column).cast(pa.int64()).to_numpy()
        win = us // window_us
        t = pa.table(
            {
                "win": pa.array(win, type=pa.int64()),
                "key": batch.column(key_column),
                "value": batch.column(value_column).cast(pa.float64()),
            }
        )
        # combiner-before-shuffle: pre-aggregate within the batch
        return (
            t.group_by(["win", "key"])
            .aggregate([("value", "sum"), ([], "count_all")])
            .rename_columns(["win", "key", "value_sum", "n"])
        )

    agg = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["win", "key"])
        .sum(["value_sum", "n"])
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "win": batch.column("win"),
                "key": batch.column("key"),
                "n_events": batch.column("sum(n)").cast(pa.int64()),
                "sum_value": pa.array(
                    np.round(batch.column("sum(value_sum)").to_numpy(), 6),
                    type=pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def hopping_window_agg(
    ds: ray.data.Dataset,
    *,
    window_us: int = 3_600_000_000,
    hop_us: int = 900_000_000,
    ts_column: str = "ts",
    value_column: str = "value",
    key_column: str = "event_type",
) -> ray.data.Dataset:
    """(win_start, key, n_events, sum_value) per epoch-aligned HOPPING
    (sliding) window of length ``window_us`` advancing every ``hop_us`` —
    the overlapping counterpart of tumbling_window_agg. An event at time t
    lands in every window whose start lies in (t - window_us, t]; the
    per-event replication factor is the constant window_us / hop_us (each
    event is emitted to its windows BEFORE the batch-local pre-aggregation,
    so the exchange still carries one row per (batch, window, key), not
    per event). window_us must be a multiple of hop_us."""
    if window_us % hop_us != 0:
        raise ValueError("window_us must be a multiple of hop_us")
    k = window_us // hop_us

    def bucket(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        us = pc.cast(pc.cast(batch.column(ts_column), pa.timestamp("us")), pa.int64())
        us = us.to_numpy(zero_copy_only=False)
        base = us // hop_us  # last window start index containing the event
        n = us.size
        # replicate each event into its k windows: start index base-k+1..base
        offs = np.arange(k, dtype=np.int64)
        win = (base[:, None] - offs[None, :]).reshape(-1)
        keep = win >= 0  # clamp at epoch start, like generate_series in SQL
        vals = np.repeat(
            batch.column(value_column).cast(pa.float64()).to_numpy(zero_copy_only=False), k
        )
        keys = batch.column(key_column).take(
            pa.array(np.repeat(np.arange(n, dtype=np.int64), k))
        )
        t = pa.table(
            {
                "win_start": pa.array(win[keep]),
                "key": keys.filter(pa.array(keep)),
                "value": pa.array(vals[keep]),
            }
        )
        return (
            t.group_by(["win_start", "key"])
            .aggregate([("value", "sum"), ([], "count_all")])
            .rename_columns(["win_start", "key", "value_sum", "n"])
        )

    agg = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["win_start", "key"])
        .sum(["value_sum", "n"])
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "win_start": batch.column("win_start"),
                "key": batch.column("key"),
                "n_events": batch.column("sum(n)").cast(pa.int64()),
                "sum_value": pa.array(
                    np.round(batch.column("sum(value_sum)").to_numpy(), 6),
                    type=pa.float64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def sessionize(
    ds: ray.data.Dataset,
    *,
    gap_us: int = 1_800_000_000,
    ts_column: str = "ts",
    user_column: str = "user_id",
    value_column: str = "value",
    id_column: str = "event_id",
) -> ray.data.Dataset:
    """(user_id, session_id, n_events, sum_value, start_us) session windows:
    a new session starts when the gap to the previous event of the same user
    exceeds ``gap_us``. session_id numbers sessions per user from 1 in time
    order (ties broken by event id — deterministic on both engine and SQL
    sides)."""

    def split_sessions(group: pa.Table) -> pa.Table:
        t = group.sort_by([(ts_column, "ascending"), (id_column, "ascending")])
        us = t.column(ts_column).cast(pa.int64()).to_numpy()
        vals = t.column(value_column).cast(pa.float64()).to_numpy()
        brk = np.ones(us.size, dtype=np.int64)
        if us.size > 1:
            brk[1:] = (us[1:] - us[:-1] > gap_us).astype(np.int64)
        sid = np.cumsum(brk)
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], us.size)
        uid = t.column(user_column)[0].as_py()
        return pa.table(
            {
                "user_id": pa.array(np.full(starts.size, uid), type=pa.int64()),
                "session_id": pa.array(sid[starts], type=pa.int64()),
                "n_events": pa.array(ends - starts, type=pa.int64()),
                "sum_value": pa.array(
                    np.round(np.add.reduceat(vals, starts), 6), type=pa.float64()
                ),
                "start_us": pa.array(us[starts], type=pa.int64()),
            }
        )

    return ds.groupby(user_column).map_groups(split_sessions, batch_format="pyarrow")


def funnel_counts(
    ds: "ray.data.Dataset",
    steps: "tuple[str, ...]",
    *,
    user_column: str = "user_id",
    type_column: str = "event_type",
    ts_column: str = "ts",
    id_column: str = "event_id",
) -> "ray.data.Dataset":
    """Ordered funnel analysis: per user, greedy first-match walk through
    ``steps`` (each step's event must be strictly LATER than the matched
    previous step's); returns (step, event_type, n_users) = how many users
    reached each step. The standard product-analytics funnel, expressed as
    ONE groupby(user) shuffle with a vectorized per-group walk (events of a
    user sort once; each step is a searchsorted over the matching subset).

    Event order is true (ts, event_id) lexicographic comparison (the SQL
    oracle mirrors it with ROW(ts, event_id) struct ordering — no composite
    integer key, so no overflow and no id-range assumption). Partitioning
    assumption (documented like sessionize's): one user's events fit one
    group task."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    nsteps = len(steps)
    step_of = {s: i for i, s in enumerate(steps)}

    def per_user(group: pa.Table) -> pa.Table:
        uid = group.column(user_column)[0].as_py()
        ts_us = pc.cast(group.column(ts_column), pa.timestamp("us")).cast(pa.int64())
        ts_us = ts_us.to_numpy(zero_copy_only=False)
        eid = group.column(id_column).to_numpy(zero_copy_only=False)
        types = group.column(type_column).to_pylist()
        order = np.lexsort((eid, ts_us))
        ts2, id2 = ts_us[order], eid[order]
        tcodes = np.array([step_of.get(t, -1) for t in types], dtype=np.int64)[order]
        prev_ts, prev_id = np.int64(-(2**62)), np.int64(-1)
        reached = 0
        for si in range(nsteps):
            sel = tcodes == si
            tt, ii = ts2[sel], id2[sel]
            later = (tt > prev_ts) | ((tt == prev_ts) & (ii > prev_id))
            j = np.argmax(later) if later.any() else -1
            if j < 0:
                break
            prev_ts, prev_id = tt[j], ii[j]
            reached = si + 1
        return pa.table({
            "user_id": pa.array([uid], type=pa.int64()),
            "reached": pa.array([reached], type=pa.int64()),
        })

    per = ds.groupby(user_column).map_groups(per_user, batch_format="pyarrow")

    def expand(batch: pa.Table) -> pa.Table:
        # user reaching step k counts toward steps 1..k (funnel is cumulative)
        r = batch.column("reached").to_numpy(zero_copy_only=False)
        out_step, out_n = [], []
        for si in range(1, nsteps + 1):
            out_step.append(si)
            out_n.append(int((r >= si).sum()))
        return pa.table({"step": pa.array(out_step, type=pa.int64()),
                         "n_users": pa.array(out_n, type=pa.int64())})

    agg = per.map_batches(expand, batch_format="pyarrow").groupby("step").sum("n_users")
    agg = agg.rename_columns({"sum(n_users)": "n_users"})

    def label(batch: pa.Table) -> pa.Table:
        s = batch.column("step").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "event_type", pa.array([steps[i - 1] for i in s], type=pa.string())
        )

    return agg.map_batches(label, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Salted variants: the hot-user scale path
# ---------------------------------------------------------------------------
#
# sessionize/funnel_counts above shuffle ALL of a user's events into one
# group task — correct at any realistic fan-out, but a pathological user
# with 10^9 events would overflow a worker (the documented caveat). The
# *_salted variants below remove that bound: events group by
# (user, ts // salt_us) so no task ever holds more than one time-block of
# one user, and the cross-block state is reconciled exactly:
#
#   sessionize_salted  per-block sessions carry their block ordinal; the
#                      only sessions a block boundary can affect are each
#                      block's FIRST and LAST (events are time-partitioned,
#                      so the only cross-block link is last-event(b) ->
#                      first-event(b')). A per-user walk over the
#                      *boundary summaries only* (2 rows per non-empty
#                      block) merges boundary chains and assigns global
#                      session-id offsets; interior sessions then pick up
#                      their ids in one keyed join. Unrounded per-session
#                      sums travel through the merge and are rounded once
#                      at emit. Counts/ids/timestamps are exactly equal to
#                      the unsalted path; float sums agree up to fp
#                      REASSOCIATION on boundary-crossing sessions (the
#                      merge adds per-block partials, (a+b)+(c+d), where
#                      the unsalted path adds event-by-event) — identical
#                      after the 6-dp emit rounding except on adversarial
#                      values sitting exactly at a rounding boundary.
#   funnel_counts_salted  the greedy walk is a finite state machine whose
#                      cross-block state is JUST the step index (any event
#                      of a later block is strictly later than any event
#                      of an earlier one, so the (ts,id) tie-break never
#                      crosses blocks). Each (user, block) task computes
#                      the block's full transition vector f: entry-step ->
#                      exit-step; a per-user pass composes the vectors in
#                      block order. Per-user phase-2 data = one small row
#                      per non-empty block, never the events.
#
# Equivalence with the unsalted operators (including salt_us < gap_us,
# which chains merges across many blocks) is pytest-verified on random
# streams, and both salted entries ship with the SAME DuckDB oracles as
# their unsalted twins — the driver proves the scale path hash-exact.


def sessionize_salted(
    ds: ray.data.Dataset,
    *,
    gap_us: int = 1_800_000_000,
    salt_us: int = 21_600_000_000,
    ts_column: str = "ts",
    user_column: str = "user_id",
    value_column: str = "value",
    id_column: str = "event_id",
) -> ray.data.Dataset:
    """sessionize() with the hot-user bound removed: identical output, but
    no reduce task ever holds more than one exchange bucket of
    (user, ts//salt_us) blocks. All three exchanges are keyed exchanges
    (stages/exchange.py) with vectorized multi-group kernels (the repo's
    reduce idiom — one lexsort + segmented reduces per bucket, never a
    Ray task per tiny group)."""
    if salt_us < 1:
        raise ValueError("salt_us must be >= 1")

    def add_keys(batch: pa.Table) -> pa.Table:
        us = batch.column(ts_column).cast(pa.int64()).to_numpy()
        return pa.table(
            {
                "user_id": batch.column(user_column).cast(pa.int64()),
                "_blk": pa.array(us // salt_us),
                "_ts": pa.array(us),
                "_id": batch.column(id_column).cast(pa.int64()),
                "_val": batch.column(value_column).cast(pa.float64()),
            }
        )

    def local_sessions(group: pa.Table) -> pa.Table:
        """Per-(user, block) sessions for EVERY group in the bucket at
        once: one lexsort, segmented gap-split, reduceat sums (the same
        left-to-right accumulation as the unsalted path)."""
        n = group.num_rows
        if n == 0:
            # same column ORDER as the non-empty path (raw_sum 6th), so
            # every emitted block shares one schema
            empty = pa.array([], type=pa.int64())
            return pa.table(
                {
                    "user_id": empty,
                    "_blk": empty,
                    "ordinal": empty,
                    "n_local": empty,
                    "n_events": empty,
                    "raw_sum": pa.array([], type=pa.float64()),
                    "start_us": empty,
                    "last_us": empty,
                }
            )
        u = group.column("user_id").to_numpy()
        b = group.column("_blk").to_numpy()
        ts = group.column("_ts").to_numpy()
        eid = group.column("_id").to_numpy()
        val = group.column("_val").to_numpy()
        order = np.lexsort((eid, ts, b, u))
        u, b, ts, val = u[order], b[order], ts[order], val[order]
        newgrp = np.empty(n, dtype=bool)
        newgrp[0] = True
        newgrp[1:] = (u[1:] != u[:-1]) | (b[1:] != b[:-1])
        brk = newgrp.copy()
        brk[1:] |= (ts[1:] - ts[:-1]) > gap_us
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], n)
        m = starts.size
        sess_new = newgrp[starts]
        grp_id = np.cumsum(sess_new) - 1
        grp_first = np.flatnonzero(sess_new)
        ordinal = np.arange(m, dtype=np.int64) - grp_first[grp_id] + 1
        n_local = np.bincount(grp_id)[grp_id]
        return pa.table(
            {
                "user_id": pa.array(u[starts]),
                "_blk": pa.array(b[starts]),
                "ordinal": pa.array(ordinal),
                "n_local": pa.array(n_local.astype(np.int64)),
                "n_events": pa.array((ends - starts).astype(np.int64)),
                "raw_sum": pa.array(np.add.reduceat(val, starts), type=pa.float64()),
                "start_us": pa.array(ts[starts]),
                "last_us": pa.array(ts[ends - 1]),
            }
        )

    local = (
        keyed_exchange(
            ds.map_batches(add_keys, batch_format="pyarrow"),
            ["user_id", "_blk"],
            local_sessions,
        )
        # consumed twice below (boundary walk + interior join); the rows
        # are per-SESSION summaries — output-sized, not event-sized — so
        # this is the one materialization the two-pass algorithm pays
        .materialize()
    )

    def keep_boundary(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        o = batch.column("ordinal")
        return batch.filter(pc.or_(pc.equal(o, 1), pc.equal(o, batch.column("n_local"))))

    def walk_bucket(group: pa.Table) -> pa.Table:
        """Sequential per-user boundary walk (blocks in time order) for all
        users in the bucket — numpy arrays in, Python loop only over the
        small boundary-summary rows."""
        uarr = group.column("user_id").to_numpy()
        barr = group.column("_blk").to_numpy()
        oarr = group.column("ordinal").to_numpy()
        nlarr = group.column("n_local").to_numpy()
        nearr = group.column("n_events").to_numpy()
        rsarr = group.column("raw_sum").to_numpy()
        suarr = group.column("start_us").to_numpy()
        luarr = group.column("last_us").to_numpy()
        if uarr.size == 0:
            return pa.table(
                {
                    **{c: pa.array([], type=pa.int64()) for c in
                       ("user_id", "_blk", "kind", "a", "b")},
                    "s": pa.array([], type=pa.float64()),
                    **{c: pa.array([], type=pa.int64()) for c in
                       ("t", "cf", "ordinal", "n_local")},
                }
            )
        order = np.lexsort((oarr, barr, uarr))
        kind, uo, c1, c2, c3, c4, c5 = [], [], [], [], [], [], []

        def emit_final(uid, sid, n, s, start):
            kind.append(0); uo.append(uid)
            c1.append(sid); c2.append(n); c3.append(s); c4.append(start); c5.append(0)

        def emit_offset(uid, blk, off, consumed_first):
            kind.append(1); uo.append(uid)
            c1.append(blk); c2.append(off); c3.append(0.0); c4.append(0)
            c5.append(1 if consumed_first else 0)

        i = 0
        nrows = order.size
        while i < nrows:
            uid = uarr[order[i]]
            # walk this user's blocks
            next_id = 1
            open_s = None  # [n_events, raw_sum, start_us, last_us]
            while i < nrows and uarr[order[i]] == uid:
                j = order[i]
                blk = barr[j]
                jlast = j
                if i + 1 < nrows and uarr[order[i + 1]] == uid and barr[order[i + 1]] == blk:
                    jlast = order[i + 1]
                    i += 1
                i += 1
                n = int(nlarr[j])
                f_n, f_sum = int(nearr[j]), float(rsarr[j])
                f_start, f_last = int(suarr[j]), int(luarr[j])
                l_n, l_sum = int(nearr[jlast]), float(rsarr[jlast])
                l_start, l_last = int(suarr[jlast]), int(luarr[jlast])
                merged = open_s is not None and f_start - open_s[3] <= gap_us
                if merged:
                    open_s[0] += f_n
                    open_s[1] += f_sum
                    open_s[3] = f_last
                    if n == 1:
                        emit_offset(uid, blk, 0, True)
                    else:
                        emit_final(uid, next_id, open_s[0], open_s[1], open_s[2])
                        emit_offset(uid, blk, next_id - 1, True)
                        next_id += 1 + max(0, n - 2)
                        open_s = [l_n, l_sum, l_start, l_last]
                else:
                    if open_s is not None:
                        emit_final(uid, next_id, open_s[0], open_s[1], open_s[2])
                        next_id += 1
                    if n == 1:
                        emit_offset(uid, blk, 0, True)
                        open_s = [f_n, f_sum, f_start, f_last]
                    else:
                        emit_offset(uid, blk, next_id - 1, False)
                        next_id += n - 1
                        open_s = [l_n, l_sum, l_start, l_last]
            if open_s is not None:
                emit_final(uid, next_id, open_s[0], open_s[1], open_s[2])
        ua = np.array(uo, dtype=np.int64)
        ka = np.array(kind, dtype=np.int64)
        aa = np.array(c1, dtype=np.int64)
        # finals route to a unique pass-through key (-1 - sid): no real
        # block is negative, so they never meet an offset row
        blk_key = np.where(ka == 0, -1 - aa, aa)
        return pa.table(
            {
                "user_id": pa.array(ua),
                "_blk": pa.array(blk_key),
                "kind": pa.array(ka),
                "a": pa.array(aa),
                "b": pa.array(np.array(c2, dtype=np.int64)),
                "s": pa.array(np.array(c3, dtype=np.float64)),
                "t": pa.array(np.array(c4, dtype=np.int64)),
                "cf": pa.array(np.array(c5, dtype=np.int64)),
                "ordinal": pa.array(np.zeros(ua.size, dtype=np.int64)),
                "n_local": pa.array(np.zeros(ua.size, dtype=np.int64)),
            }
        )

    phase2 = keyed_exchange(
        local.map_batches(keep_boundary, batch_format="pyarrow"), "user_id", walk_bucket
    )

    def interior_joinable(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "_blk": batch.column("_blk"),
                "kind": pa.array(np.full(n, 2, dtype=np.int64)),
                "a": pa.array(np.zeros(n, dtype=np.int64)),
                "b": batch.column("n_events"),
                "s": batch.column("raw_sum"),
                "t": batch.column("start_us"),
                "cf": pa.array(np.zeros(n, dtype=np.int64)),
                "ordinal": batch.column("ordinal"),
                "n_local": batch.column("n_local"),
            }
        )

    def resolve_bucket(group: pa.Table) -> pa.Table:
        """Vectorized id assignment for every (user, block) run in the
        bucket: offset rows scatter to their run, interiors keep
        session_id = offset + ordinal unless consumed by a boundary
        merge; finals pass through."""
        n = group.num_rows
        u = group.column("user_id").to_numpy()
        bk = group.column("_blk").to_numpy()
        kind = group.column("kind").to_numpy()
        a = group.column("a").to_numpy()
        b = group.column("b").to_numpy()
        s = group.column("s").to_numpy()
        t = group.column("t").to_numpy()
        cf = group.column("cf").to_numpy()
        ordn = group.column("ordinal").to_numpy()
        nloc = group.column("n_local").to_numpy()
        if n == 0:
            return pa.table(
                {
                    **{c: pa.array([], type=pa.int64()) for c in
                       ("user_id", "session_id", "n_events")},
                    "sum_value": pa.array([], type=pa.float64()),
                    "start_us": pa.array([], type=pa.int64()),
                }
            )
        order = np.lexsort((kind, bk, u))
        u, bk, kind, a, b, s, t, cf, ordn, nloc = (
            x[order] for x in (u, bk, kind, a, b, s, t, cf, ordn, nloc)
        )
        newrun = np.empty(n, dtype=bool)
        newrun[0] = True
        newrun[1:] = (u[1:] != u[:-1]) | (bk[1:] != bk[:-1])
        run_id = np.cumsum(newrun) - 1
        nruns = int(run_id[-1]) + 1 if n else 0
        run_off = np.zeros(nruns, dtype=np.int64)
        run_cf = np.zeros(nruns, dtype=np.int64)
        offs = kind == 1
        run_off[run_id[offs]] = b[offs]
        run_cf[run_id[offs]] = cf[offs]
        finals = kind == 0
        keep_int = (kind == 2) & (ordn != nloc) & ~(
            (ordn == 1) & (run_cf[run_id] == 1)
        )
        out_u = np.concatenate([u[finals], u[keep_int]])
        out_sid = np.concatenate([a[finals], run_off[run_id[keep_int]] + ordn[keep_int]])
        out_n = np.concatenate([b[finals], b[keep_int]])
        out_sum = np.concatenate([s[finals], s[keep_int]])
        out_start = np.concatenate([t[finals], t[keep_int]])
        return pa.table(
            {
                "user_id": pa.array(out_u),
                "session_id": pa.array(out_sid),
                "n_events": pa.array(out_n),
                "sum_value": pa.array(np.round(out_sum, 6), type=pa.float64()),
                "start_us": pa.array(out_start),
            }
        )

    return keyed_exchange(
        [phase2, local.map_batches(interior_joinable, batch_format="pyarrow")],
        ["user_id", "_blk"],
        resolve_bucket,
    )


def funnel_counts_salted(
    ds: "ray.data.Dataset",
    steps: "tuple[str, ...]",
    *,
    salt_us: int = 21_600_000_000,
    user_column: str = "user_id",
    type_column: str = "event_type",
    ts_column: str = "ts",
    id_column: str = "event_id",
) -> "ray.data.Dataset":
    """funnel_counts() with the hot-user bound removed via state-machine
    composition: per-(user, time-block) transition vectors (entry step ->
    exit step; cross-block state is JUST the step index since any event of
    a later block is strictly later in ts), composed per user in block
    order. Identical output. Both exchanges are keyed exchanges with
    multi-group kernels."""
    import pyarrow.compute as pc

    if salt_us < 1:
        raise ValueError("salt_us must be >= 1")
    nsteps = len(steps)
    step_of = {s: i for i, s in enumerate(steps)}

    def add_keys(batch: pa.Table) -> pa.Table:
        us = pc.cast(
            pc.cast(batch.column(ts_column), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        types = batch.column(type_column).to_pylist()
        tcodes = np.array([step_of.get(t, -1) for t in types], dtype=np.int64)
        return pa.table(
            {
                "user_id": batch.column(user_column).cast(pa.int64()),
                "_blk": pa.array(us // salt_us),
                "_ts": pa.array(us),
                "_id": batch.column(id_column).cast(pa.int64()),
                "_tc": pa.array(tcodes),
            }
        )

    def block_transitions(group: pa.Table) -> pa.Table:
        """Transition vectors for every (user, block) run in the bucket:
        one lexsort, then a small walk per run (nsteps searchsorteds)."""
        n = group.num_rows
        if n == 0:
            cols = {c: pa.array([], type=pa.int64())
                    for c in ("user_id", "_blk")}
            for s in range(nsteps + 1):
                cols[f"f{s}"] = pa.array([], type=pa.int64())
            return pa.table(cols)
        u = group.column("user_id").to_numpy()
        b = group.column("_blk").to_numpy()
        ts = group.column("_ts").to_numpy()
        eid = group.column("_id").to_numpy()
        tc = group.column("_tc").to_numpy()
        order = np.lexsort((eid, ts, b, u))
        u, b, tc = u[order], b[order], tc[order]
        newrun = np.empty(n, dtype=bool)
        newrun[0] = True
        newrun[1:] = (u[1:] != u[:-1]) | (b[1:] != b[:-1])
        starts = np.flatnonzero(newrun)
        ends = np.append(starts[1:], n)
        out_u, out_b = u[starts], b[starts]
        trans = np.empty((starts.size, nsteps + 1), dtype=np.int64)
        for r in range(starts.size):
            seg = tc[starts[r] : ends[r]]
            idx = [np.flatnonzero(seg == si) for si in range(nsteps)]
            for s in range(nsteps + 1):
                cur = -1
                reached = s
                for si in range(s, nsteps):
                    arr = idx[si]
                    j = np.searchsorted(arr, cur + 1)
                    if j >= arr.size:
                        break
                    cur = int(arr[j])
                    reached = si + 1
                trans[r, s] = reached
        cols = {
            "user_id": pa.array(out_u),
            "_blk": pa.array(out_b),
        }
        for s in range(nsteps + 1):
            cols[f"f{s}"] = pa.array(trans[:, s])
        return pa.table(cols)

    per_block = keyed_exchange(
        ds.map_batches(add_keys, batch_format="pyarrow"),
        ["user_id", "_blk"],
        block_transitions,
    )

    def compose_bucket(group: pa.Table) -> pa.Table:
        """Per-user composition of transition vectors in block order, for
        all users in the bucket."""
        n = group.num_rows
        if n == 0:
            return pa.table(
                {"user_id": pa.array([], type=pa.int64()),
                 "reached": pa.array([], type=pa.int64())}
            )
        u = group.column("user_id").to_numpy()
        b = group.column("_blk").to_numpy()
        fs = np.stack(
            [group.column(f"f{s}").to_numpy() for s in range(nsteps + 1)],
            axis=1,
        )
        order = np.lexsort((b, u))
        u, fs = u[order], fs[order]
        newu = np.empty(n, dtype=bool)
        newu[0] = True
        newu[1:] = u[1:] != u[:-1]
        starts = np.flatnonzero(newu)
        ends = np.append(starts[1:], n)
        out_u = u[starts]
        reached = np.empty(starts.size, dtype=np.int64)
        for r in range(starts.size):
            s = 0
            for row in range(starts[r], ends[r]):
                s = int(fs[row, s])
            reached[r] = s
        return pa.table(
            {
                "user_id": pa.array(out_u),
                "reached": pa.array(reached),
            }
        )

    per = keyed_exchange(per_block, "user_id", compose_bucket)

    def expand(batch: pa.Table) -> pa.Table:
        r = batch.column("reached").to_numpy(zero_copy_only=False)
        out_step = list(range(1, nsteps + 1))
        out_n = [int((r >= si).sum()) for si in out_step]
        return pa.table(
            {
                "step": pa.array(out_step, type=pa.int64()),
                "n_users": pa.array(out_n, type=pa.int64()),
            }
        )

    agg = (
        per.map_batches(expand, batch_format="pyarrow")
        .groupby("step")
        .sum("n_users")
        .rename_columns({"sum(n_users)": "n_users"})
    )

    def label(batch: pa.Table) -> pa.Table:
        s = batch.column("step").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "event_type",
            pa.array([steps[i - 1] for i in s], type=pa.string()),
        )

    return agg.map_batches(label, batch_format="pyarrow")
