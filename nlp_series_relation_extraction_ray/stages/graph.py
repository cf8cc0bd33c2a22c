"""Graph materialize: triples -> deduplicated, weighted edge table (G5).

Edge identity = (src_id, dst_id, predicate, qualifiers); exact dedup is a
hash-partition + per-group reduce: an in-batch combiner first collapses each
batch to one partial row per edge key (carrying partial weight + a capped
provenance sample), then one ``groupby(edge_key)`` merges partials.  Entity
ids come from the broadcast-KB linker (map-side, no shuffle join).

Provenance is a deterministic sample: the lexicographically-first
``PROVENANCE_CAP`` "(conv_id, turn_idx)" refs — capped so a hot edge cannot
grow an unbounded list column at corpus scale.
"""

from __future__ import annotations

import json

import pandas as pd
import pyarrow as pa

from .linking import EntityLinker

PROVENANCE_CAP = 16

EDGE_SCHEMA = pa.schema(
    [
        ("src_id", pa.string()),
        ("dst_id", pa.string()),
        ("predicate", pa.string()),
        ("qualifiers_json", pa.string()),
        ("weight", pa.int64()),
        ("provenance_json", pa.string()),
    ]
)


class EdgePartials:
    """Map-side combiner: triple batch -> partial edge rows (one per worker
    process through ``worker_cached``)."""

    def __init__(self, alias_index_ref=None):
        self.linker = EntityLinker(alias_index_ref=alias_index_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        acc: dict[tuple, dict] = {}
        objs = batch["object_json"].to_pylist()
        otypes_l = batch["object_type_json"].to_pylist()
        subjects = batch["subject"].to_pylist()
        stypes = batch["subject_type"].to_pylist()
        preds = batch["predicate"].to_pylist()
        convs = batch["conv_id"].to_pylist()
        turns = batch["turn_idx"].to_pylist()
        for i in range(batch.num_rows):
            obj = json.loads(objs[i])
            otypes = json.loads(otypes_l[i])
            src_id, _ = self.linker.link_one(subjects[i], stypes[i])
            dst_id, _ = self.linker.link_one(
                obj.get("@value", ""), otypes.get("@value", "Text")
            )
            qualifiers = {k: v for k, v in obj.items() if k != "@value"}
            key = (
                src_id,
                dst_id,
                preds[i],
                json.dumps(qualifiers, ensure_ascii=False, sort_keys=True),
            )
            prov = f"{convs[i]}:{turns[i]}"
            a = acc.setdefault(key, {"weight": 0, "prov": []})
            a["weight"] += 1
            a["prov"].append(prov)
        for a in acc.values():
            # dedup BEFORE capping: duplicate (edge, prov) rows in one batch
            # must not evict distinct refs the global merge would keep
            a["prov"] = sorted(set(a["prov"]))[:PROVENANCE_CAP]
        return pa.Table.from_pydict(
            {
                "src_id": pa.array([k[0] for k in acc], pa.string()),
                "dst_id": pa.array([k[1] for k in acc], pa.string()),
                "predicate": pa.array([k[2] for k in acc], pa.string()),
                "qualifiers_json": pa.array([k[3] for k in acc], pa.string()),
                "weight": pa.array([a["weight"] for a in acc.values()], pa.int64()),
                "provenance_json": pa.array(
                    [json.dumps(a["prov"]) for a in acc.values()], pa.string()
                ),
            }
        )


_EDGE_KEY = ["src_id", "dst_id", "predicate", "qualifiers_json"]


def _merge_edges_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized merge over every edge key in a hash bucket: weights sum
    via groupby, provenance lists explode → dedup → sort → cap."""
    w = df.groupby(_EDGE_KEY, as_index=False)["weight"].sum()
    w["weight"] = w["weight"].astype("int64")
    p = df[_EDGE_KEY].copy()
    p["prov"] = df["provenance_json"].map(json.loads)
    p = p.explode("prov").drop_duplicates().sort_values(_EDGE_KEY + ["prov"])
    prov = (
        p.groupby(_EDGE_KEY)["prov"]
        .agg(lambda s: json.dumps(list(s)[:PROVENANCE_CAP]))
        .rename("provenance_json")
        .reset_index()
    )
    return w.merge(prov, on=_EDGE_KEY)


def _task_edge_partials(batch: pa.Table, ref_key, alias_index_ref) -> pa.Table:
    from .base import worker_cached

    stage = worker_cached(
        "edges",
        lambda: EdgePartials(alias_index_ref=alias_index_ref),
        ref_key,
    )
    return stage(batch)


def materialize_edges(triples_ds, alias_index_ref=None):
    """Triples Dataset -> deduplicated weighted edges Dataset.

    Task-based combiner with a per-worker cached linker (cheap state); the
    dedup itself is a hash-bucketed merge of partials (vectorized over all
    edge keys in a bucket — edge-key cardinality scales with the corpus, so
    a per-group reduce would pay per-group frame overhead).
    """
    from ..functions.grouping import bucketed_group_apply

    ref_key = alias_index_ref.hex() if alias_index_ref is not None else "kb"
    partials = triples_ds.map_batches(
        _task_edge_partials,
        fn_kwargs={"ref_key": ref_key, "alias_index_ref": alias_index_ref},
        batch_format="pyarrow",
    )
    return bucketed_group_apply(partials, _EDGE_KEY, _merge_edges_bucket)
