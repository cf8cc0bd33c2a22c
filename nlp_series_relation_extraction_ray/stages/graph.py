"""Graph materialize: triples -> deduplicated, weighted edge table (G5).

Edge identity = (src_id, dst_id, predicate, qualifiers); exact dedup is a
hash-partition + per-group reduce: an in-batch combiner first collapses each
batch to one partial row per edge key (carrying partial weight + a capped
provenance sample), then one ``groupby(edge_key)`` merges partials.  Entity
ids come from the broadcast-KB linker (map-side, no shuffle join), called
once per batch for subjects and objects together, so each distinct
``(surface, type)`` pair is scored once.  The combiner groups by dictionary
codes and parses each distinct object JSON once; the merge's provenance
union is one sort (``functions.grouping.union_json_lists``).

Provenance is a deterministic sample: the lexicographically-first
``PROVENANCE_CAP`` "(conv_id, turn_idx)" refs — capped so a hot edge cannot
grow an unbounded list column at corpus scale.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

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
    process through ``worker_cached``).

    Each distinct ``(object_json, object_type_json)`` pair is parsed and its
    qualifiers encoded once; subjects and objects are linked together in
    one ``link_many`` call, so a pair is scored once per batch whichever
    side it is on."""

    def __init__(self, alias_index_ref=None):
        self.linker = EntityLinker(alias_index_ref=alias_index_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.grouping import (
            factorize,
            group_codes,
            sorted_distinct_json,
        )

        n = batch.num_rows
        obj_codes, first = group_codes(batch["object_json"],
                                       batch["object_type_json"])
        idx = pa.array(first)
        dst_surface, dst_type, quals = [], [], []
        for oj, otj in zip(batch["object_json"].take(idx).to_pylist(),
                           batch["object_type_json"].take(idx).to_pylist()):
            obj, otypes = json.loads(oj), json.loads(otj)
            dst_surface.append(obj.get("@value", ""))
            dst_type.append(otypes.get("@value", "Text"))
            quals.append(json.dumps(
                {k: v for k, v in obj.items() if k != "@value"},
                ensure_ascii=False, sort_keys=True))
        back = pa.array(obj_codes)

        def per_row(values):
            return pa.array(values, pa.string()).take(back)

        ids, _ = self.linker.link_many(
            pa.concat_arrays([batch["subject"].combine_chunks(),
                              per_row(dst_surface)]),
            pa.concat_arrays([batch["subject_type"].combine_chunks(),
                              per_row(dst_type)]))
        src, dst, qual = ids[:n], ids[n:], per_row(quals)
        edge, first = group_codes(src, dst, batch["predicate"], qual)
        idx = pa.array(first)
        prov = pc.binary_join_element_wise(
            batch["conv_id"], pc.cast(batch["turn_idx"], pa.string()), ":")
        # dedup BEFORE capping: duplicate (edge, prov) rows in one batch
        # must not evict distinct refs the global merge would keep
        return pa.table({
            "src_id": src.take(idx),
            "dst_id": dst.take(idx),
            "predicate": batch["predicate"].take(idx),
            "qualifiers_json": qual.take(idx),
            "weight": np.bincount(edge, minlength=len(first)).astype(np.int64),
            "provenance_json": sorted_distinct_json(
                edge, len(first), *factorize(prov), cap=PROVENANCE_CAP,
                ensure_ascii=True),
        })


_EDGE_KEY = ["src_id", "dst_id", "predicate", "qualifiers_json"]


def _merge_edges_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized merge over every edge key in a hash bucket: weights sum
    via groupby; provenance is the sorted distinct union of the partials'
    lists, capped (``grouping.union_json_lists``)."""
    from ..functions.grouping import union_json_lists

    g = df.groupby(_EDGE_KEY)
    out = g["weight"].sum().reset_index()
    out["weight"] = out["weight"].astype("int64")
    out["provenance_json"] = union_json_lists(
        g.ngroup().to_numpy(), len(out), df["provenance_json"],
        cap=PROVENANCE_CAP, ensure_ascii=True).to_numpy(zero_copy_only=False)
    return out


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
    return bucketed_group_apply(partials, _EDGE_KEY, _merge_edges_bucket,
                                empty_result=EDGE_SCHEMA)
