"""Global exact line-level deduplication (the C4/CCNet-style cleanup).

Every line keeps only its FIRST occurrence across the whole corpus — first
in (doc_id, line_no) order — and later duplicate occurrences are dropped
from their documents; a document whose lines are all dropped disappears
from the output. This is the exact-line variant of the family next to
``stages/dupspans.py`` (substring spans) and ``stages/dedup.py`` (whole
documents); no reference analog (search library) — charter §8.2 territory.

Scale shape (100 TB): explode is a vectorized Arrow split (one row per
line, carrying (line, composite rank ``doc_id * 2^20 + line_no``)); the
winner per distinct line is a keyed exchange on the line
(stages/exchange.py — the shuffle sorts a small-int bucket column, never
strings) with a vectorized first-per-code min inside each bucket, so the
reduce output is one row per DISTINCT line and no per-line Python group
ever runs; the input is coalesced to 2 x cluster CPUs blocks, so the
exploded stream reaches the exchange in that many (stages/clean.py
lesson). Reassembly buckets 8k
documents per group and joins each document's kept lines with one
vectorized ``pc.binary_join``.
Two keyed exchanges total, the honest price of a global dedup.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .exchange import keyed_exchange

#: line_no packs into the low bits of the winner rank; 2^20 lines per doc
#: is asserted at explode time (doc_id then must fit 2^43 — it does for any
#: corpus this engine addresses; revisit the split if either bound moves)
_LINE_BITS = 20
_LINE_CAP = 1 << _LINE_BITS


_EXPLODE_EMPTY = pa.table(
    {
        "line": pa.array([], type=pa.string()),
        "rank": pa.array([], type=pa.int64()),
    }
)


def _explode(batch: pa.Table, *, text_column: str, id_column: str, delim: str) -> pa.Table:
    if batch.num_rows == 0:  # an upstream filter can empty a whole block
        return _EXPLODE_EMPTY
    col = batch.column(text_column)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lines = pc.split_pattern(col, delim)
    counts = pc.list_value_length(lines).to_numpy(zero_copy_only=False).astype(np.int64)
    if counts.size and int(counts.max()) >= _LINE_CAP:
        raise ValueError(f"document exceeds {_LINE_CAP} lines; raise _LINE_BITS")
    flat = pc.list_flatten(lines)
    ids = batch.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= (1 << (63 - _LINE_BITS))):
        raise ValueError(
            f"doc ids must be in [0, 2^{63 - _LINE_BITS}) for the rank packing"
        )
    doc_of_line = np.repeat(ids, counts)
    offs = np.concatenate(([0], np.cumsum(counts)[:-1]))
    line_no = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(offs, counts)
    rank = (doc_of_line << _LINE_BITS) | line_no
    return pa.table({"line": flat, "rank": pa.array(rank)})


def line_dedup(
    ds: ray.data.Dataset,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
    delim: str = "\n",
    docs_per_group_bits: int = 13,
) -> ray.data.Dataset:
    """Rows (doc_id, text) with every globally-duplicate line reduced to its
    first occurrence; fully-deduplicated documents are dropped (mirroring
    the oracle's GROUP BY over kept lines only).

    The input is coalesced to 2 × cluster CPUs blocks before the explode,
    so the line stream reaches the winner exchange in that many blocks (the
    sort shuffle's bookkeeping is quadratic in block count, the
    stages/clean.py lesson) and the explode fuses with the exchange's
    bucketing; reassembly
    groups 2^``docs_per_group_bits`` documents per task and joins lines
    with one vectorized ``pc.binary_join`` per group, never a per-document
    Python group."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    exploded = ds.repartition(max(16, 2 * cpus)).map_batches(
        _explode,
        batch_format="pyarrow",
        fn_kwargs={"text_column": text_column, "id_column": id_column, "delim": delim},
    )

    def win(group: pa.Table) -> pa.Table:
        """Min rank per distinct line of one exchange bucket, vectorized
        (dictionary-encode + sort + first-per-code)."""
        lines = group.column("line")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        denc = lines.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        rank = group.column("rank").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((rank, codes))
        c = codes[order]
        starts = np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))
        return pa.table(
            {
                "line": denc.dictionary.take(pa.array(c[starts])),
                "min_rank": pa.array(rank[order][starts]),
            }
        )

    winners = keyed_exchange(exploded, "line", win)

    def decode(batch: pa.Table) -> pa.Table:
        rank = batch.column("min_rank").to_numpy(zero_copy_only=False).astype(np.int64)
        doc = rank >> _LINE_BITS
        return pa.table(
            {
                id_column: pa.array(doc),
                "line_no": pa.array(rank & (_LINE_CAP - 1)),
                "line": batch.column("line"),
                "dbucket": pa.array(doc >> docs_per_group_bits),
            }
        )

    kept = winners.map_batches(decode, batch_format="pyarrow")

    def reassemble(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            group, sort_keys=[(id_column, "ascending"), ("line_no", "ascending")]
        )
        group = group.take(order)
        ids = group.column(id_column).to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
        # int64 offsets + LargeList: a group can legally hold > 2^31 lines
        # (2^13 docs x up to 2^20 lines each), so int32 offsets could wrap
        offsets = pa.array(np.concatenate((starts, [ids.size])).astype(np.int64))
        lines = group.column("line")
        if isinstance(lines, pa.ChunkedArray):
            lines = lines.combine_chunks()
        lists = pa.LargeListArray.from_arrays(offsets, lines)
        return pa.table(
            {
                id_column: pa.array(ids[starts]),
                text_column: pc.binary_join(lists, delim),
            }
        )

    return kept.groupby("dbucket").map_groups(reassemble, batch_format="pyarrow")


def linify_batch(
    batch: pa.Table, *, tokens_per_line: int = 8, text_column: str = "text"
) -> pa.Table:
    """Deterministic test shim: re-line single-line text into
    ``tokens_per_line``-token lines (the contract entry's input fixture —
    the operator's real input is pre-lined text). Mirrored verbatim by the
    oracle's list_transform slicing; tokens are maximal non-space runs."""
    col = batch.column(text_column)
    out = []
    for t in col.to_pylist():
        toks = [w for w in t.split(" ") if w]
        out.append(
            "\n".join(
                " ".join(toks[i : i + tokens_per_line])
                for i in range(0, len(toks), tokens_per_line)
            )
        )
    cols = {c: batch.column(c) for c in batch.column_names if c != text_column}
    cols[text_column] = pa.array(out, type=pa.string())
    return pa.table(cols)
