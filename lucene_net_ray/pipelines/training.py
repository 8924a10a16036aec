"""End-to-end training-data preparation: the flagship composition of the
stage library — clean -> chunk -> pack -> hash-sharded resumable write.

This is the pipeline a 100-TB pretraining corpus actually runs: every step
is one of the repo's tested streaming operators, composed without any
driver-side materialization; the output is PARTITIONED parquet (one
directory per deterministic hash shard) plus a run manifest, so a re-run
skips completed work (the charter's resumable-output requirement — never
one giant file).

  1. clean      quality filter + exact dedup (stages/clean.py: md5 winner
                inside a bounded coarse-hash groupby)
  2. chunk      sliding token windows with provenance (stages/chunk.py,
                fully vectorized)
  3. pack       concat-split sequence assignment over the chunk stream
                (stages/packing.py: per-part offsets, ONE keyed exchange)
  4. write      chunks partitioned by md5 hash shard + a packing sidecar
                (chunk -> training-sequence map); `_done` manifest commits
                the run atomically

Resume is per-STAGE, not just per-run: each stage commits its own
`_stage_<name>.json` manifest (written atomically after the stage's
parquet lands), so a mid-run kill re-runs only the stage that was in
flight — a half-written stage directory without its manifest is cleared
and redone; committed stages are skipped untouched. At 100 TB that means
a worker-pool crash during packing never re-pays the clean+chunk cost.
Every manifest also records a sha1 fingerprint of the run parameters:
re-running into the same out_dir with DIFFERENT arguments invalidates and
recomputes (no silent reuse of old-parameter output).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..state.segment import atomic_write_json


def _stage(out_dir: str, name: str, stage_dir: str, run, params_fp: str) -> dict:
    """Run one resumable stage: skip if its manifest is committed FOR THE
    SAME run parameters, clear a half-written (or stale-parameter) directory
    otherwise, and commit the manifest atomically. The fingerprint guard
    means re-running into the same out_dir with different arguments
    recomputes instead of silently reusing old-parameter output."""
    manifest_path = os.path.join(out_dir, f"_stage_{name}.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            result = json.load(f)
        if result.get("params_fp") == params_fp:
            return result
        os.remove(manifest_path)  # parameters changed: invalidate the stage
    if os.path.exists(stage_dir):
        shutil.rmtree(stage_dir)  # uncommitted partial output from a kill
    result = run() or {}
    result["params_fp"] = params_fp
    atomic_write_json(manifest_path, result)
    return result


def prepare_training_shards(
    input_path: str,
    out_dir: str,
    *,
    text_column: str = "text",
    id_column: str = "doc_id",
    min_quality: float = 0.0,
    dedup: bool = True,
    chunk_tokens: int = 256,
    overlap_tokens: int = 32,
    pack_budget: int = 2048,
    num_shards: int = 16,
) -> dict:
    """Returns the run manifest: rows in/kept, chunks, sequences, out_dir.
    A completed run (``_done`` present) returns immediately — resume is
    skip-by-manifest, like the index builder."""
    from ..stages.chunk import chunk_documents
    from ..stages.clean import clean_corpus
    from ..stages.packing import pack_sequences

    params_fp = hashlib.sha1(
        json.dumps(
            {
                "input_path": input_path,
                "text_column": text_column,
                "id_column": id_column,
                "min_quality": min_quality,
                "dedup": dedup,
                "chunk_tokens": chunk_tokens,
                "overlap_tokens": overlap_tokens,
                "pack_budget": pack_budget,
                "num_shards": num_shards,
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()

    done_path = os.path.join(out_dir, "_done")
    if os.path.exists(done_path):
        with open(done_path) as f:
            manifest = json.load(f)
        if manifest.get("params_fp") == params_fp:
            return manifest  # completed run: no input access at all
        os.remove(done_path)  # different parameters: rebuild via the stages
    os.makedirs(out_dir, exist_ok=True)

    def _run_clean() -> dict:
        # fail fast on a missing id/text column (otherwise the error
        # surfaces deep inside the clean stage's sort as an opaque FieldRef
        # miss). INSIDE the stage runner: a resume whose clean stage is
        # already committed never touches the input again (the input may
        # legitimately be gone once cleaned/ exists).
        schema_names = ray.data.read_parquet(input_path).schema().names
        for col, what in ((id_column, "id_column"), (text_column, "text_column")):
            if col not in schema_names:
                raise ValueError(
                    f"{what}={col!r} not in input schema {schema_names} — the "
                    "pipeline needs a stable integer id per doc (resume identity)"
                )
        return clean_corpus(
            input_path,
            cleaned_dir,
            text_column=text_column,
            id_column=id_column,
            min_quality=min_quality,
            dedup=dedup,
        )

    cleaned_dir = os.path.join(out_dir, "cleaned")
    summary = _stage(out_dir, "clean", cleaned_dir, _run_clean, params_fp)

    mask = num_shards - 1 if (num_shards & (num_shards - 1)) == 0 else None

    def add_keys(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        c = batch.column("chunk_id").to_numpy(zero_copy_only=False)
        uid = d * np.int64(1_000_000) + c  # chunk ids are window counts ≪ 1e6
        with np.errstate(over="ignore"):
            h = uid.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        shard = (
            (h >> np.uint64(40)).astype(np.int64) & mask
            if mask is not None
            else ((h >> np.uint64(40)) % np.uint64(num_shards)).astype(np.int64)
        )
        return batch.append_column("chunk_uid", pa.array(uid)).append_column(
            "shard", pa.array(shard)
        )

    chunks_dir = os.path.join(out_dir, "chunks")

    def run_chunk_stage() -> dict:
        chunks = chunk_documents(
            ray.data.read_parquet(cleaned_dir).select_columns(
                [id_column, text_column]
            ),
            chunk_tokens=chunk_tokens,
            overlap_tokens=overlap_tokens,
            text_column=text_column,
            id_column=id_column,
        )
        keyed = chunks.map_batches(add_keys, batch_format="pyarrow")
        keyed.write_parquet(chunks_dir, partition_cols=["shard"])
        return {"chunks_dir": chunks_dir}

    _stage(out_dir, "chunks", chunks_dir, run_chunk_stage, params_fp)

    packing_dir = os.path.join(out_dir, "packing")

    def run_pack_stage() -> dict:
        # chunk uids are doc_id*1e6 + window: part_rows must scale with that
        # spacing or the per-part offset dict becomes corpus-sized (one part
        # per ~1000 source docs here)
        packing = pack_sequences(
            ray.data.read_parquet(chunks_dir),
            budget=pack_budget,
            text_column="chunk_text",
            id_column="chunk_uid",
            part_rows=1_000_000 * 1000,
        )
        packing.write_parquet(packing_dir)
        return {"packing_dir": packing_dir}

    _stage(out_dir, "packing", packing_dir, run_pack_stage, params_fp)

    stats = ray.data.read_parquet(packing_dir)
    n_chunks = stats.count()
    n_seq = int(stats.max("last_seq") or -1) + 1
    manifest = {
        "rows_in": summary["rows_in"],
        "rows_kept": summary["rows_kept"],
        "n_chunks": n_chunks,
        "n_sequences": n_seq,
        "num_shards": num_shards,
        "pack_budget": pack_budget,
        "out_dir": out_dir,
        "params_fp": params_fp,
    }
    atomic_write_json(done_path, manifest)
    return manifest
