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
    """Phase-1 map-side combiner: one partial row per (entity_id, salt)."""
    acc: dict[tuple[str, int], dict] = {}
    eids = batch["entity_id"].to_pylist()
    convs = batch["conv_id"].to_pylist()
    canons = batch["canonical_name"].to_pylist()
    mtypes = batch["mention_type"].to_pylist()
    surfaces = batch["surface"].to_pylist()
    for i in range(batch.num_rows):
        key = (eids[i], _salt(convs[i]))
        a = acc.get(key)
        if a is None:
            a = acc[key] = {
                "canonical_name": canons[i],
                "types": set(),
                "surfaces": set(),
                "count": 0,
            }
        a["types"].add(mtypes[i])
        a["surfaces"].add(surfaces[i])
        a["count"] += 1
    return pa.Table.from_pydict(
        {
            "entity_id": pa.array([k[0] for k in acc], pa.string()),
            "salt": pa.array([k[1] for k in acc], pa.int32()),
            "canonical_name": pa.array(
                [a["canonical_name"] for a in acc.values()], pa.string()
            ),
            "types_json": pa.array(
                [json.dumps(sorted(a["types"]), ensure_ascii=False)
                 for a in acc.values()],
                pa.string(),
            ),
            "surfaces_json": pa.array(
                [json.dumps(sorted(a["surfaces"]), ensure_ascii=False)
                 for a in acc.values()],
                pa.string(),
            ),
            "count": pa.array([a["count"] for a in acc.values()], pa.int64()),
        }
    )


def _union_json_col(df: pd.DataFrame, keys: list[str], col: str) -> pd.Series:
    """Per-key sorted distinct union of JSON-list column values, vectorized
    via explode → drop_duplicates; returns a keyed Series of JSON strings."""
    t = df[keys].copy()
    t["v"] = df[col].map(json.loads)
    t = t.explode("v").drop_duplicates().sort_values(keys + ["v"])
    return t.groupby(keys)["v"].agg(
        lambda s: json.dumps(list(s), ensure_ascii=False)
    )


def _merge_partials_bucket(df: pd.DataFrame, keys: list[str]) -> pd.DataFrame:
    """Vectorized merge of phase-1 partials over every key in a bucket.
    canonical_name is constant per entity_id (KB canonical for linked ids,
    normalized surface for unlinked), so 'first' is deterministic."""
    agg = df.groupby(keys, as_index=False).agg(
        canonical_name=("canonical_name", "first"), count=("count", "sum")
    )
    agg["count"] = agg["count"].astype("int64")
    types = _union_json_col(df, keys, "types_json").rename("types_json")
    surfaces = _union_json_col(df, keys, "surfaces_json").rename(
        "surfaces_json"
    )
    return agg.merge(types.reset_index(), on=keys).merge(
        surfaces.reset_index(), on=keys
    )


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
        lambda tj: min(json.loads(tj)) if json.loads(tj) else "Text"
    )
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
    )
    return nodes
