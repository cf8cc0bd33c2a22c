"""Canonicalization: linked mention stream -> deduplicated node table.

The wide shuffle of the pipeline (SURVEY §2.6 G4), executed as a two-phase
salted aggregate so one skewed head entity (the fixture corpus routes ~25% of
person mentions to one entity on purpose) cannot pin a single reducer:

1. in-batch combine (``map_batches``): mentions collapse to at most one
   partial row per (entity_id, salt) per batch — the map-side combiner;
2. a hash-bucketed merge on (entity_id, salt) collapses partials per salt
   bucket (vectorized over every entity in a bucket —
   ``functions.grouping.bucketed_group_apply``);
3. a hash-bucketed merge on entity_id folds the ≤ SALT_BUCKETS remaining
   rows per entity into the final node.

Deterministic outputs: entity_type is the lexicographic min of observed
mention types for unlinked nodes (KB type wins for linked nodes), aliases are
the sorted distinct observed surfaces, all independent of partitioning.

Every step works per distinct key, not per row: the combiner groups a batch
by dictionary codes (the salt computed once per distinct ``conv_id``), and
the merges build each sorted JSON-list union with one sort
(``functions.grouping.union_json_lists``).

Why the salt stays: the map-side combiner already folds a hot entity into
one row per batch and salt, and the benchmark corpus has no entity the
second phase needs spreading for.  But the benchmark tracer
(``perfbench/workloads.py``) recognises the canonicalization merges by
their key tuples and counts the combiner's partials at the
``("entity_id", "salt")`` merge, so removing the phase breaks the traced
``kg_build`` run.  It goes once the library reports its own run records
(ROADMAP item 1).
"""

from __future__ import annotations

import json
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

SALT_BUCKETS = 16

NODE_SCHEMA = pa.schema(
    [
        ("entity_id", pa.string()),
        ("canonical_name", pa.string()),
        ("entity_type", pa.string()),
        ("mention_count", pa.int64()),
        ("aliases_json", pa.string()),
    ]
)


def _salt(conv_id: str) -> int:
    return zlib.crc32(conv_id.encode()) % SALT_BUCKETS


def partial_nodes(batch: pa.Table) -> pa.Table:
    """Phase-1 map-side combiner: one partial row per (entity_id, salt),
    in order of first occurrence.  The salt is computed once per distinct
    ``conv_id``, and the type and surface sets are built by one sort per
    column (``grouping.sorted_distinct_json``)."""
    from ..functions.grouping import (
        factorize,
        group_codes,
        sorted_distinct_json,
    )

    conv, first = group_codes(batch["conv_id"])
    salts = np.array(
        [_salt(c) for c in batch["conv_id"].take(pa.array(first)).to_pylist()],
        dtype=np.int32)[conv]
    key, first = group_codes(batch["entity_id"], salts)
    idx = pa.array(first)

    def json_set(col: str) -> pa.Array:
        return sorted_distinct_json(key, len(first), *factorize(batch[col]))

    return pa.table({
        "entity_id": batch["entity_id"].take(idx),
        "salt": pa.array(salts[first], pa.int32()),
        "canonical_name": batch["canonical_name"].take(idx),
        "types_json": json_set("mention_type"),
        "surfaces_json": json_set("surface"),
        "count": np.bincount(key, minlength=len(first)).astype(np.int64),
    })


def _merge_partials_bucket(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    """Vectorized merge of phase-1 partials over every key in a bucket.
    canonical_name is constant per entity_id (KB canonical for linked ids,
    normalized surface for unlinked), so 'first' is deterministic; the type
    and surface sets are the sorted distinct unions of the partials' lists
    (``grouping.union_json_lists``)."""
    from ..functions.grouping import union_json_lists

    g = df.groupby(keys)
    agg = g.agg(canonical_name=("canonical_name", "first"),
                count=("count", "sum")).reset_index()
    agg["count"] = agg["count"].astype("int64")
    groups = g.ngroup().to_numpy()
    for col in ("types_json", "surfaces_json"):
        agg[col] = union_json_lists(groups, len(agg), df[col]).to_numpy(
            zero_copy_only=False)
    return agg


def _merge_salt_bucket(df: pd.DataFrame) -> pd.DataFrame:
    out = _merge_partials_bucket(df, ["entity_id", "salt"])
    out["salt"] = np.int32(0)
    return out[["entity_id", "salt", "canonical_name", "types_json",
                "surfaces_json", "count"]]


def _finalize_bucket(
    df: pd.DataFrame, kb_type_by_id: dict[str, str]
) -> pd.DataFrame:
    merged = _merge_partials_bucket(df, ["entity_id"])
    kb_type = merged["entity_id"].map(kb_type_by_id)
    min_type = merged["types_json"].map(
        lambda tj: min(json.loads(tj), default="Text"))
    return pd.DataFrame(
        {
            "entity_id": merged["entity_id"],
            "canonical_name": merged["canonical_name"],
            "entity_type": kb_type.fillna(min_type),
            "mention_count": merged["count"].astype("int64"),
            "aliases_json": merged["surfaces_json"],
        }
    )


def canonicalize_nodes(linked_mentions_ds, kb_rows: list[dict] | None = None):
    """Linked mention Dataset -> node Dataset (two-phase salted aggregate)."""
    if kb_rows is None:
        from ..sources.kb import build_alias_kb

        kb_rows = build_alias_kb()
    kb_type_by_id = {r["entity_id"]: r["entity_type"] for r in kb_rows}

    from ..functions.grouping import bucketed_group_apply

    partials = linked_mentions_ds.map_batches(
        partial_nodes, batch_format="pyarrow"
    )
    per_salt = bucketed_group_apply(
        partials, ["entity_id", "salt"], _merge_salt_bucket
    )
    nodes = bucketed_group_apply(
        per_salt, "entity_id",
        lambda df: _finalize_bucket(df, kb_type_by_id),
        empty_result=NODE_SCHEMA,
    )
    return nodes
