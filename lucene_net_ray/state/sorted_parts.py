"""Key-sorted Parquet parts plus a per-part [min, max] manifest.

The one storage layout behind the merged index (pipelines/merge.py), the
suggesters (pipelines/suggest.py) and the spell checker (pipelines/spell.py),
SURVEY §2.5 and §2.7. ``write_sorted_parts`` writes an already key-sorted
Dataset one part file per block and returns the manifest entries
``{"file", "min", "max", "rows"}``; the caller commits them in its own
manifest. ``SortedParts`` serves them: a lookup bisects the sorted bounds and
reads only the row groups of the covering parts whose statistics meet the
key range, so a reader holds the entries and one part's rows, never the
store.

Parts of one sorted store are ordered and overlap at most at one shared
boundary key (a key whose rows straddle two blocks); such a key is read from
both parts, in entry order.
"""

from __future__ import annotations

import bisect
import os
import shutil
from typing import Callable, Iterator

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: Small row groups make point lookups cheap: a read prunes by the key
#: column's row-group statistics, so the unit of I/O per key is one row group
#: (512 merged chunk rows ~ a few hundred KB), not one part file.
ROW_GROUP_SIZE = 512
_OPEN_FILES = 64


def covering(mins: list, maxs: list, lo, hi) -> range:
    """Indices of the ranges [mins[i], maxs[i]] that meet [lo, hi]. Both
    lists ascend (sorted, at most boundary-overlapping ranges), so two
    bisections find them."""
    return range(bisect.bisect_left(maxs, lo), bisect.bisect_right(mins, hi))


def write_sorted_parts(ds, part_dir: str, key: str) -> list[dict]:
    """Write the key-sorted ``ds`` as ``part_dir`` and return its entries.

    Parts are written into ``<part_dir>.tmp<pid>`` and renamed into place
    only once their bounds are read, after removing every stale
    ``<part_dir>*`` sibling: a crashed build never leaves part files for
    the retry to mix in. Bounds are the exact first and last key of each
    part (footer string statistics may be truncated); empty parts are
    dropped."""
    parent, name = os.path.split(os.path.normpath(part_dir))
    os.makedirs(parent, exist_ok=True)
    for stale in os.listdir(parent):
        if stale.startswith(name):
            shutil.rmtree(os.path.join(parent, stale), ignore_errors=True)
    tmp = f"{part_dir}.tmp{os.getpid()}"
    os.makedirs(tmp)
    ds.write_parquet(tmp, row_group_size=ROW_GROUP_SIZE)
    entries = []
    for f in sorted(os.listdir(tmp)):
        if not f.endswith(".parquet"):
            continue
        path = os.path.join(tmp, f)
        with pq.ParquetFile(path) as pf:
            rows = pf.metadata.num_rows
            if rows:
                lo = pf.read_row_group(0, columns=[key]).column(key)[0].as_py()
                last = pf.read_row_group(pf.metadata.num_row_groups - 1, columns=[key])
                entries.append({"file": f, "min": lo, "max": last.column(key)[-1].as_py(), "rows": rows})
        if not rows:
            os.remove(path)
    entries.sort(key=lambda e: (e["min"], e["max"]))
    os.replace(tmp, part_dir)
    return entries


class SortedParts:
    """Reader over one sorted-parts store. ``parts_read`` counts the part
    files a read or scan actually opened, so tests can assert that lookups
    stay routed."""

    def __init__(self, part_dir: str, entries: list[dict], key: str):
        self.dir = part_dir
        self.entries = entries
        self.key = key
        self._mins = [e["min"] for e in entries]
        self._maxs = [e["max"] for e in entries]
        self.parts_read = 0
        self._files: dict[int, pq.ParquetFile] = {}  # open handles (footer reuse)
        self._rg_bounds: dict[int, list] = {}  # part -> per-row-group (min, max)

    def subset(self, indices) -> "SortedParts":
        """A reader over the parts at ``indices`` (a serving actor's slice)."""
        return SortedParts(self.dir, [self.entries[i] for i in sorted(indices)], self.key)

    def _file(self, i: int) -> pq.ParquetFile:
        pf = self._files.get(i)
        if pf is None:
            if len(self._files) >= _OPEN_FILES:
                self._files.pop(next(iter(self._files))).close()
            pf = self._files[i] = pq.ParquetFile(os.path.join(self.dir, self.entries[i]["file"]))
        return pf

    def _row_groups(self, i: int, lo, hi) -> list[int]:
        bounds = self._rg_bounds.get(i)
        if bounds is None:
            md = self._file(i).metadata
            rg0 = md.row_group(0)
            c = next(j for j in range(rg0.num_columns) if rg0.column(j).path_in_schema == self.key)
            bounds = []
            for g in range(md.num_row_groups):
                st = md.row_group(g).column(c).statistics
                bounds.append((st.min, st.max) if st is not None and st.has_min_max else None)
            self._rg_bounds[i] = bounds
        return [g for g, b in enumerate(bounds) if b is None or (b[0] <= hi and lo <= b[1])]

    def read(self, lo, hi, columns: list[str] | None = None) -> pa.Table | None:
        """Rows with ``lo <= key <= hi`` (the key column always included),
        in key order, or None when there are none."""
        if columns is not None:
            columns = list(dict.fromkeys([self.key, *columns]))
        tables = []
        for i in covering(self._mins, self._maxs, lo, hi):
            rgs = self._row_groups(i, lo, hi)
            if not rgs:
                continue
            self.parts_read += 1
            t = self._file(i).read_row_groups(rgs, columns=columns)
            k = t.column(self.key)
            t = t.filter(pc.and_(pc.greater_equal(k, lo), pc.less_equal(k, hi)))
            if t.num_rows:
                tables.append(t)
        return pa.concat_tables(tables) if tables else None

    def scan(
        self, columns: list[str] | None = None, part_filter: Callable | None = None
    ) -> Iterator[pa.Table]:
        """Each part's rows in key order, one part resident at a time.
        ``part_filter(min, max) -> bool`` vetoes a part from its bounds
        alone, before any of its bytes are read."""
        for i, e in enumerate(self.entries):
            if part_filter is not None and not part_filter(e["min"], e["max"]):
                continue
            self.parts_read += 1
            yield self._file(i).read(columns=columns)

    def check(self) -> None:
        """CheckIndex for the store: the entries list exactly the part files
        on disk, in ascending key ranges; each part is key-sorted with exact
        bounds and row count."""
        on_disk = sorted(f for f in os.listdir(self.dir) if f.endswith(".parquet"))
        assert sorted(e["file"] for e in self.entries) == on_disk, "parts manifest != dir"
        assert all(a <= b for a, b in zip(self._maxs, self._mins[1:])), "part ranges overlap"
        for e, t in zip(self.entries, self.scan([self.key])):
            keys = t.column(self.key).to_pylist()
            assert keys == sorted(keys), f"{e['file']}: rows not key-sorted"
            assert keys[0] == e["min"] and keys[-1] == e["max"], f"{e['file']}: range"
            assert t.num_rows == e["rows"], f"{e['file']}: row count"
