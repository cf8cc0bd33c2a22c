"""Per-partition checkpointing with lineage + stage metrics (north_rule).

Replaces the reference's single-file pickle cache keyed by filename
(``/root/reference/dataset/data_utils.py:40-64``, ``dataset_baseline.py:42-44``)
with a resumable, partitioned layout:

    out_dir/
      part-0000/MANIFEST.json   # lineage (input fingerprint) + metrics
      part-0000/data/*.parquet  # stage output for that partition
      part-0001/...

A rerun fingerprints each partition's input; a partition whose manifest
matches is SKIPPED (its parquet is reused), so a killed run resumes from the
last completed partition.  Output is never one giant file; downstream reads
``out_dir/part-*/data``.

``pipelines/kg.py::build_kg_resumable`` runs the KG build through it: one
partition per group of transcript Parquet files, then nodes and edges
chained on those partitions' fingerprints.  Retries and resumes are
partition-granular rather than whole-job (the reference restarts the entire
run on any crash, SURVEY §4).
"""

from __future__ import annotations

from ..sources.readers import read_parquet_clean

import glob
import hashlib
import json
import os
import time


def fingerprint(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:32]


def partition_ranges(n_items: int, n_partitions: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) ranges covering 0..n_items."""
    if n_items <= 0:
        return [(0, 0)]
    n_partitions = max(1, min(n_partitions, n_items))
    step = (n_items + n_partitions - 1) // n_partitions
    return [(lo, min(lo + step, n_items)) for lo in range(0, n_items, step)]


def manifest_path(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, f"part-{part:04d}", "MANIFEST.json")


def is_partition_done(out_dir: str, part: int, fp: str) -> bool:
    path = manifest_path(out_dir, part)
    if not os.path.exists(path):
        return False
    try:
        with open(path) as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError):
        return False
    return manifest.get("input_fingerprint") == fp and manifest.get(
        "status"
    ) == "complete"


def run_partitioned(
    out_dir: str,
    partitions: list[dict],
    run_partition,
    stage: str = "triples",
) -> dict:
    """Run ``run_partition(part_spec) -> Dataset`` per partition, resumably.

    ``partitions``: list of JSON-serializable partition specs (the lineage);
    each spec's fingerprint decides skip-vs-recompute.  Returns a summary with
    per-partition metrics.
    """
    import re
    import shutil

    os.makedirs(out_dir, exist_ok=True)
    # remove stale partitions beyond the current partitioning: a rerun with
    # fewer partitions must not leave old overlapping ranges on disk (they
    # would silently duplicate data in read_all_partitions)
    for d in glob.glob(os.path.join(out_dir, "part-*")):
        m = re.fullmatch(r"part-(\d+)", os.path.basename(d))
        if m and int(m.group(1)) >= len(partitions):
            shutil.rmtree(d, ignore_errors=True)
    summary = {"stage": stage, "partitions": [], "skipped": 0, "ran": 0}
    for part, spec in enumerate(partitions):
        fp = fingerprint(spec)
        part_dir = os.path.join(out_dir, f"part-{part:04d}")
        data_dir = os.path.join(part_dir, "data")
        if is_partition_done(out_dir, part, fp):
            summary["skipped"] += 1
            summary["partitions"].append({"part": part, "status": "skipped"})
            continue
        t0 = time.time()
        # overwrite: drops any partial output of a killed run
        run_partition(spec).write_parquet(data_dir, mode="overwrite")
        rows_out = read_parquet_clean(data_dir).count()
        wall = time.time() - t0
        os.makedirs(part_dir, exist_ok=True)
        manifest = {
            "status": "complete",
            "partition": part,
            "stage": stage,
            "input_fingerprint": fp,
            "lineage": spec,
            "metrics": {"rows_out": rows_out, "wall_time_s": round(wall, 3)},
            "completed_at_unix": int(time.time()),
        }
        tmp = manifest_path(out_dir, part) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(tmp, manifest_path(out_dir, part))  # atomic publish
        summary["ran"] += 1
        summary["partitions"].append(
            {"part": part, "status": "ran", **manifest["metrics"]}
        )
    return summary


def read_all_partitions(out_dir: str):
    """Dataset over every completed partition's parquet.

    Only partitions whose manifest says ``status == complete`` are read — a
    run killed mid ``write_parquet`` leaves partial parquet with no (or a
    stale) manifest, which must not leak into downstream reads.
    """
    import re

    files: list[str] = []
    for d in sorted(glob.glob(os.path.join(out_dir, "part-*"))):
        m = re.fullmatch(r"part-(\d+)", os.path.basename(d))
        if not m:
            continue
        path = os.path.join(d, "MANIFEST.json")
        try:
            with open(path) as f:
                manifest = json.load(f)
        except (OSError, json.JSONDecodeError):
            continue
        if manifest.get("status") == "complete":
            files.extend(sorted(glob.glob(os.path.join(d, "data", "*.parquet"))))
    return read_parquet_clean(files)
