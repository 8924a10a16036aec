"""Index-level manifest and point-in-time reader metadata.

The manifest is the analog of Lucene's ``segments_N``
(/root/reference/src/Lucene.Net.Core/Index/SegmentInfos.cs:261): an atomically
renamed JSON file listing committed segments plus collection-level stats.
Search opens a point-in-time view from it (DirectoryReader.Open analog).

Collection statistics for scoring are INDEX-GLOBAL (SURVEY.md §3.3 step 2):
``max_doc`` and ``sum_ttf`` come from the manifest; per-term global df/ttf are
summed across segments at query time (cheap: one term-dict lookup per
segment), mirroring TermContext walking every leaf
(/root/reference/src/Lucene.Net.Core/Index/TermContext.cs).
"""

from __future__ import annotations

import json
import os
import shutil

from .segment import atomic_write_json


def write_index_manifest(out_dir: str, manifest: dict) -> None:
    """Commit ``manifest`` atomically, then delete the temp segment dirs it
    does not list (IndexFileDeleter analog): a crashed segment write leaves
    a ``segNNNNNN.tmp<pid>`` dir, and once a manifest is committed no task
    of that commit is still writing one."""
    atomic_write_json(os.path.join(out_dir, "manifest.json"), manifest)
    seg_root = os.path.join(out_dir, "segments")
    if os.path.isdir(seg_root):
        listed = {f"seg{r['seg_id']:06d}" for r in manifest.get("segments", [])}
        for name in os.listdir(seg_root):
            if ".tmp" in name and name not in listed:
                shutil.rmtree(os.path.join(seg_root, name), ignore_errors=True)


class IndexMeta:
    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "manifest.json")) as f:
            self.manifest = json.load(f)
        self.max_doc: int = self.manifest["max_doc"]
        self.sum_ttf: int = self.manifest["sum_ttf"]

    @property
    def segment_dirs(self) -> list[str]:
        return [
            os.path.join(self.index_dir, "segments", f"seg{r['seg_id']:06d}")
            for r in self.manifest["segments"]
        ]

    @property
    def avgdl_inputs(self) -> tuple[int, int]:
        return self.sum_ttf, self.max_doc
