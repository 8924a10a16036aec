"""Geo filtering and nearest-neighbor over lat/lon doc-values columns.

The reference ships Lucene.Net.Spatial (prefix-tree / geohash indexing over
Spatial4n shapes, e.g. RecursivePrefixTreeStrategy.cs:35 and
PointVectorStrategy.cs:30 — the latter is literally two numeric doc-values
fields queried by range + distance filter). This module is the
PointVectorStrategy analog re-expressed Ray-Data-first: coordinates are
plain float64 columns, a bounding-box pre-filter is two vectorized range
predicates (the strategy's two NumericRangeQuerys), and the exact haversine
distance check runs only on the box survivors — the same
filter-bbox-then-verify plan the reference executes, minus the tree.

Scale: both filters are single streaming map_batches passes (no shuffle);
nearest_k is the ANN reduce pattern — per-batch local top-k, ONE
groupby().map_groups global reduce, driver sees k rows.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import ray
import ray.data

from .exchange import keyed_exchange

EARTH_RADIUS_KM = 6371.0088  # IUGG mean Earth radius, like Spatial4n's


def haversine_km(
    lat1: "np.ndarray | float",
    lon1: "np.ndarray | float",
    lat2: "np.ndarray | float",
    lon2: "np.ndarray | float",
) -> np.ndarray:
    """Vectorized great-circle distance in km (float64 haversine)."""
    la1, lo1, la2, lo2 = (np.radians(np.asarray(x, dtype=np.float64)) for x in (lat1, lon1, lat2, lon2))
    dlat = la2 - la1
    dlon = lo2 - lo1
    a = np.sin(dlat / 2.0) ** 2 + np.cos(la1) * np.cos(la2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(a))


def _bbox_for_radius(lat: float, lon: float, radius_km: float) -> tuple:
    """Lat/lon bounding box of the spherical cap (the pre-filter the
    reference's PointVectorStrategy issues as two NumericRangeQuerys).
    The longitude half-width is the cap's TRUE maximum deviation
    asin(sin(delta)/cos(lat)) — the naive delta/cos(lat) underestimates it
    for large radii because the cap bulges poleward of the center
    latitude. Full longitude range when the cap reaches a pole; no
    dateline wrap (the synthetic corpora never span it — documented
    assumption rather than hidden)."""
    delta = radius_km / EARTH_RADIUS_KM  # angular radius
    dlat = math.degrees(delta)
    if abs(lat) + dlat >= 90.0 or delta >= math.pi / 2:
        return lat - dlat, lat + dlat, -180.0, 180.0
    sin_ratio = math.sin(delta) / math.cos(math.radians(lat))
    if sin_ratio >= 1.0:
        return lat - dlat, lat + dlat, -180.0, 180.0
    dlon = math.degrees(math.asin(sin_ratio))
    return lat - dlat, lat + dlat, lon - dlon, lon + dlon


def bbox_filter(
    ds: ray.data.Dataset,
    *,
    lat_column: str,
    lon_column: str,
    min_lat: float,
    max_lat: float,
    min_lon: float,
    max_lon: float,
) -> ray.data.Dataset:
    """Rows inside the inclusive lat/lon box — two vectorized range
    predicates, one streaming pass."""
    import pyarrow.compute as pc

    def keep(batch: pa.Table) -> pa.Table:
        la = batch.column(lat_column)
        lo = batch.column(lon_column)
        m = pc.and_(
            pc.and_(pc.greater_equal(la, min_lat), pc.less_equal(la, max_lat)),
            pc.and_(pc.greater_equal(lo, min_lon), pc.less_equal(lo, max_lon)),
        )
        return batch.filter(pc.fill_null(m, False))

    return ds.map_batches(keep, batch_format="pyarrow")


def distance_filter(
    ds: ray.data.Dataset,
    *,
    lat_column: str,
    lon_column: str,
    center_lat: float,
    center_lon: float,
    radius_km: float,
    distance_column: str | None = "distance_km",
) -> ray.data.Dataset:
    """Rows within ``radius_km`` of the center: bbox pre-filter + exact
    haversine verify per batch (PointVectorStrategy's plan). Appends the
    distance as ``distance_column`` (None to skip)."""
    lo_lat, hi_lat, lo_lon, hi_lon = _bbox_for_radius(center_lat, center_lon, radius_km)
    pre = bbox_filter(
        ds, lat_column=lat_column, lon_column=lon_column,
        min_lat=lo_lat, max_lat=hi_lat, min_lon=lo_lon, max_lon=hi_lon,
    )

    def verify(batch: pa.Table) -> pa.Table:
        la = batch.column(lat_column).to_numpy(zero_copy_only=False)
        lo = batch.column(lon_column).to_numpy(zero_copy_only=False)
        d = haversine_km(la, lo, center_lat, center_lon)
        keep = d <= radius_km
        out = batch.filter(pa.array(keep))
        if distance_column is not None:
            out = out.append_column(distance_column, pa.array(d[keep]))
        return out

    return pre.map_batches(verify, batch_format="pyarrow")


def distance_join_pairs(
    ds: ray.data.Dataset,
    *,
    lat_column: str,
    lon_column: str,
    id_column: str,
    radius_km: float,
    lat_cap: float = 80.0,
    max_cell: int | None = None,
) -> ray.data.Dataset:
    """EXACT all-pairs-within-radius self-join (id_a < id_b, distance_km):
    the spatial analog of the shingle/LSH near-dup joins, and the operation
    the reference's prefix-tree intersects cells for
    (RecursivePrefixTreeStrategy.cs:35).

    Plan: grid cells sized to the radius (lat step = the angular radius;
    lon step = the same widened by 1/cos(lat_cap) so it stays conservative
    at every allowed latitude, with wraparound at the dateline). Every
    point is emitted to its cell and the 8 neighbors (9x row amplification
    — constant, not quadratic), so any pair within the radius shares at
    least one cell. One groupby(cell) shuffle; per cell a vectorized
    pairwise haversine; duplicate discoveries collapse through the
    keyed exchange on the pair. Points with |lat| > ``lat_cap`` are rejected
    (polar caps would need special-cased banding — documented domain
    limit, not a silent wrong answer). ``max_cell`` optionally SKIPS cells
    with more members (dense-city skew guard) — that makes the join
    approximate; the default None stays exact."""
    delta_deg = math.degrees(radius_km / EARTH_RADIUS_KM)
    dlat = delta_deg
    dlon = delta_deg / math.cos(math.radians(lat_cap))
    nlon = max(1, int(math.ceil(360.0 / dlon)))
    dlon = 360.0 / nlon
    nlat = int(math.ceil(180.0 / dlat)) + 2

    def emit_cells(batch: pa.Table) -> pa.Table:
        la = batch.column(lat_column).to_numpy(zero_copy_only=False)
        lo = batch.column(lon_column).to_numpy(zero_copy_only=False)
        ids = batch.column(id_column).to_numpy(zero_copy_only=False)
        if np.abs(la).max(initial=0.0) > lat_cap:
            raise ValueError(
                f"distance_join_pairs: |lat| > lat_cap={lat_cap} present; "
                "polar points are outside this operator's domain"
            )
        iy = np.floor((la + 90.0) / dlat).astype(np.int64)
        ix = np.floor((lo + 180.0) / dlon).astype(np.int64) % nlon
        outs = []
        for di in (-1, 0, 1):
            yy = iy + di
            ok = (yy >= 0) & (yy < nlat)
            for dj in (-1, 0, 1):
                xx = (ix + dj) % nlon
                cell = yy * nlon + xx
                outs.append(
                    pa.table({
                        "cell": pa.array(cell[ok]),
                        "id": pa.array(ids[ok]),
                        "lat": pa.array(la[ok]),
                        "lon": pa.array(lo[ok]),
                    })
                )
        return pa.concat_tables(outs)

    def cell_pairs(group: pa.Table) -> pa.Table:
        empty = pa.table({
            "id_a": pa.array([], type=pa.int64()),
            "id_b": pa.array([], type=pa.int64()),
            "distance_km": pa.array([], type=pa.float64()),
        })
        # a group may span several cells (coarse grouping inside Ray);
        # split by cell via lexsort runs
        n = group.num_rows
        if n < 2:
            return empty
        cell = group.column("cell").to_numpy(zero_copy_only=False)
        ids = group.column("id").to_numpy(zero_copy_only=False)
        la = group.column("lat").to_numpy(zero_copy_only=False)
        lo = group.column("lon").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, cell))
        c2, i2, la2, lo2 = cell[order], ids[order], la[order], lo[order]
        newrun = c2[1:] != c2[:-1]
        starts = np.concatenate(([0], np.flatnonzero(newrun) + 1, [n]))
        a_parts, b_parts, d_parts = [], [], []
        for si in range(starts.size - 1):
            s, e = int(starts[si]), int(starts[si + 1])
            m = e - s
            if m < 2 or (max_cell is not None and m > max_cell):
                continue
            iu, ju = np.triu_indices(m, 1)
            dd = haversine_km(la2[s:e][iu], lo2[s:e][iu], la2[s:e][ju], lo2[s:e][ju])
            ia, ib = i2[s:e][iu], i2[s:e][ju]
            keep = (dd <= radius_km) & (ia != ib)
            if keep.any():
                lo_id = np.minimum(ia[keep], ib[keep])
                hi_id = np.maximum(ia[keep], ib[keep])
                a_parts.append(lo_id)
                b_parts.append(hi_id)
                d_parts.append(dd[keep])
        if not a_parts:
            return empty
        return pa.table({
            "id_a": pa.array(np.concatenate(a_parts)),
            "id_b": pa.array(np.concatenate(b_parts)),
            "distance_km": pa.array(np.concatenate(d_parts)),
        })

    def dedup_pairs(group: pa.Table) -> pa.Table:
        a = group.column("id_a").to_numpy(zero_copy_only=False)
        b = group.column("id_b").to_numpy(zero_copy_only=False)
        d = group.column("distance_km").to_numpy(zero_copy_only=False)
        order = np.lexsort((b, a))
        a2, b2, d2 = a[order], b[order], d[order]
        first = np.concatenate(([True], (a2[1:] != a2[:-1]) | (b2[1:] != b2[:-1])))
        return pa.table({
            "id_a": pa.array(a2[first]),
            "id_b": pa.array(b2[first]),
            "distance_km": pa.array(d2[first]),
        })

    pairs = (
        ds.map_batches(emit_cells, batch_format="pyarrow")
        .groupby("cell")
        .map_groups(cell_pairs, batch_format="pyarrow")
    )
    return keyed_exchange(pairs, ["id_a", "id_b"], dedup_pairs)


def nearest_k(
    ds: ray.data.Dataset,
    *,
    lat_column: str,
    lon_column: str,
    id_column: str,
    center_lat: float,
    center_lon: float,
    k: int = 10,
) -> list[dict]:
    """k nearest rows to the center by haversine distance: per-batch local
    top-k, one global reduce; ties by id ascending. Driver collects only k
    rows."""

    def local_topk(batch: pa.Table) -> pa.Table:
        la = batch.column(lat_column).to_numpy(zero_copy_only=False)
        lo = batch.column(lon_column).to_numpy(zero_copy_only=False)
        ids = batch.column(id_column).to_numpy(zero_copy_only=False)
        d = haversine_km(la, lo, center_lat, center_lon)
        idx = np.lexsort((ids, d))[: min(k, d.size)]
        return pa.table({
            "gid": pa.array(np.zeros(idx.size, dtype=np.int64)),
            id_column: pa.array(ids[idx]),
            "distance_km": pa.array(d[idx]),
        })

    def global_topk(group: pa.Table) -> pa.Table:
        ids = group.column(id_column).to_numpy(zero_copy_only=False)
        d = group.column("distance_km").to_numpy(zero_copy_only=False)
        idx = np.lexsort((ids, d))[:k]
        return pa.table({
            id_column: pa.array(ids[idx]),
            "distance_km": pa.array(d[idx]),
            "rank": pa.array(np.arange(1, idx.size + 1, dtype=np.int64)),
        })

    out = (
        ds.map_batches(local_topk, batch_format="pyarrow")
        .groupby("gid")
        .map_groups(global_topk, batch_format="pyarrow")
    )
    return sorted(out.take_all(), key=lambda r: r["rank"])
