"""Tiered merge policy + segment-level compaction (segmented -> segmented).

Reference: /root/reference/src/Lucene.Net.Core/Index/TieredMergePolicy.cs:79-86
— candidate merges take <=10 segments, tiers allow ~10 same-size segments,
small segments are rounded up to a 2 MB floor so "many tiny flushes" count as
one tier, merged segments are capped (5 GB). ``plan_merges`` reproduces that
selection over segment postings_bytes; ``compact_segments`` turns the chosen
merges into a plan for the one segment rewrite of ``maintenance`` (the
SegmentMerger analog, SegmentMerger.cs:89-176 concatenative semantics: docIDs
re-based by input order, term dicts unioned, each term's postings in segment
order); untouched segments are copied verbatim.

This is the maintenance path for indexes that accumulate small NRT flushes
via add_documents: compaction keeps the SEGMENTED form (actor serving,
deletes, add_indexes all keep working), unlike merge_index which produces
the term-partitioned serving layout.
"""

from __future__ import annotations

import numpy as np

from ..state.index import IndexMeta

DEFAULT_MAX_MERGE_AT_ONCE = 10  # TieredMergePolicy.cs:79 maxMergeAtOnce
DEFAULT_SEGS_PER_TIER = 10.0    # :86 segmentsPerTier
DEFAULT_FLOOR_BYTES = 2 << 20   # :83 floorSegmentMB = 2 MB
DEFAULT_MAX_MERGED_BYTES = 5 << 30  # :81 maxMergedSegmentMB = 5 GB


def plan_merges(
    sizes: list[int],
    *,
    max_merge_at_once: int = DEFAULT_MAX_MERGE_AT_ONCE,
    segs_per_tier: float = DEFAULT_SEGS_PER_TIER,
    floor_bytes: int = DEFAULT_FLOOR_BYTES,
    max_merged_bytes: int = DEFAULT_MAX_MERGED_BYTES,
) -> list[list[int]]:
    """Choose merges like TieredMergePolicy.FindMerges: while the index has
    more segments than the tier budget allows, greedily merge runs of the
    smallest (floored) segments, bounded by max_merge_at_once and the merged
    size cap. Returns groups of segment ORDINALS (into ``sizes``)."""
    floored = [max(s, floor_bytes) for s in sizes]
    total = sum(floored)
    # allowed segment count: sum over tiers of segsPerTier (levels by size)
    allowed = 0.0
    level_size = float(floor_bytes)
    remaining = float(total)
    while True:
        seg_count_level = remaining / level_size
        if seg_count_level < segs_per_tier:
            allowed += np.ceil(seg_count_level)
            break
        allowed += segs_per_tier
        remaining -= segs_per_tier * level_size
        level_size *= max_merge_at_once
    merges: list[list[int]] = []
    order = sorted(range(len(sizes)), key=lambda i: floored[i])  # smallest first
    taken: set[int] = set()
    n_after = len(sizes)
    while n_after > max(1, int(allowed)):
        group: list[int] = []
        gsize = 0
        for i in order:
            if i in taken:
                continue
            if len(group) >= max_merge_at_once:
                break
            if group and gsize + floored[i] > max_merged_bytes:
                continue
            group.append(i)
            gsize += floored[i]
        if len(group) < 2:
            break
        taken.update(group)
        merges.append(sorted(group))  # keep docID order inside the merge
        n_after -= len(group) - 1
    return merges


def compact_segments(
    index_dir: str | IndexMeta,
    out_dir: str,
    **policy,
) -> IndexMeta:
    """Apply the tiered policy and execute the merges (one Ray task each).

    Consecutive segments merge in docID order, so the compacted index's
    global docIDs are IDENTICAL to the source's (contiguous-run splice) when
    the policy picks contiguous runs; otherwise docIDs are re-based in the
    new segment order — results match by content like any merge. Requires no
    tombstones (expunge first)."""
    from ..state.deletes import load_deleted
    from .maintenance import _commit_manifest, _rewrite

    src = index_dir if isinstance(index_dir, IndexMeta) else IndexMeta(index_dir)
    if load_deleted(src.index_dir).size:
        raise ValueError("index has tombstones; run expunge_deletes before compaction")
    rows = src.manifest["segments"]
    merges = plan_merges([r.get("postings_bytes", 0) for r in rows], **policy)
    # each merge sits where its first segment was; untouched segments stay singletons
    first = {g[0]: g for g in merges}
    merged = {i for g in merges for i in g}
    groups = [first.get(i, [i]) for i in range(len(rows)) if i in first or i not in merged]
    plan = []
    for grp in groups:
        dirs = [src.segment_dirs[i] for i in grp]
        n_docs = sum(rows[i]["doc_count"] for i in grp)
        plan.append({"sources": dirs, "n_docs": n_docs, "lineage": {"compacted_from": dirs}})
    return _commit_manifest(
        out_dir,
        src,
        _rewrite(out_dir, plan),
        compacted_from=src.index_dir,
        merge_plan=[[int(i) for i in g] for g in groups],
    )
