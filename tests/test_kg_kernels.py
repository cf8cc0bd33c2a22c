"""Equivalence of the KG map-side combiners and merges with their earlier
per-row forms.

Each ``_ref_*`` function below is the loop the kernel used to be: mentions
built row by row, every mention linked with ``link_one``, partial nodes and
partial edges folded into Python dicts, and the merges' JSON-list unions as
a per-group ``agg(lambda ...)``.  They serve as oracles: the kernels must
return the same tables — values, types and row order — on random triple
batches.  The batches hold a hot entity, edges with more than
``PROVENANCE_CAP`` provenance refs, duplicate refs within one batch,
qualifier slots, non-ASCII surfaces and conversation ids, and unlinked
literal types.
"""

import json
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from nlp_series_relation_extraction_ray.sources.kb import (
    build_alias_index,
    build_alias_kb,
)
from nlp_series_relation_extraction_ray.stages import canonicalize as canon
from nlp_series_relation_extraction_ray.stages import graph
from nlp_series_relation_extraction_ray.stages.format_spo import TRIPLE_SCHEMA
from nlp_series_relation_extraction_ray.stages.linking import (
    EntityLinker,
    mentions_from_triples,
)

INDEX = build_alias_index()
KB_TYPE_BY_ID = {r["entity_id"]: r["entity_type"] for r in build_alias_kb()}

# ---------------------------------------------------------------- oracles


def _ref_mentions_from_triples(batch: pa.Table) -> pa.Table:
    out = {"surface": [], "mention_type": [], "conv_id": [], "turn_idx": []}
    convs = batch["conv_id"].to_pylist()
    turns = batch["turn_idx"].to_pylist()
    subjects = batch["subject"].to_pylist()
    stypes = batch["subject_type"].to_pylist()
    otypes_l = batch["object_type_json"].to_pylist()
    ovals = batch["object_value"].to_pylist()
    for i in range(batch.num_rows):
        out["surface"].append(subjects[i])
        out["mention_type"].append(stypes[i])
        out["conv_id"].append(convs[i])
        out["turn_idx"].append(turns[i])
        otypes = json.loads(otypes_l[i])
        out["surface"].append(ovals[i])
        out["mention_type"].append(otypes.get("@value", "Text"))
        out["conv_id"].append(convs[i])
        out["turn_idx"].append(turns[i])
    return pa.Table.from_pydict({
        "surface": pa.array(out["surface"], pa.string()),
        "mention_type": pa.array(out["mention_type"], pa.string()),
        "conv_id": pa.array(out["conv_id"], pa.string()),
        "turn_idx": pa.array(out["turn_idx"], pa.int32()),
    })


def _ref_link(linker: EntityLinker, batch: pa.Table) -> pa.Table:
    ids, canons = [], []
    for s, t in zip(batch["surface"].to_pylist(),
                    batch["mention_type"].to_pylist()):
        eid, cn = linker.link_one(s, t)
        ids.append(eid)
        canons.append(cn)
    return batch.append_column(
        "entity_id", pa.array(ids, pa.string())
    ).append_column("canonical_name", pa.array(canons, pa.string()))


def _ref_salt(conv_id: str) -> int:
    return zlib.crc32(conv_id.encode()) % canon.SALT_BUCKETS


def _ref_partial_nodes(batch: pa.Table) -> pa.Table:
    acc: dict = {}
    eids = batch["entity_id"].to_pylist()
    convs = batch["conv_id"].to_pylist()
    canons = batch["canonical_name"].to_pylist()
    mtypes = batch["mention_type"].to_pylist()
    surfaces = batch["surface"].to_pylist()
    for i in range(batch.num_rows):
        key = (eids[i], _ref_salt(convs[i]))
        a = acc.get(key)
        if a is None:
            a = acc[key] = {"canonical_name": canons[i], "types": set(),
                            "surfaces": set(), "count": 0}
        a["types"].add(mtypes[i])
        a["surfaces"].add(surfaces[i])
        a["count"] += 1
    vals = list(acc.values())
    return pa.Table.from_pydict({
        "entity_id": pa.array([k[0] for k in acc], pa.string()),
        "salt": pa.array([k[1] for k in acc], pa.int32()),
        "canonical_name": pa.array([a["canonical_name"] for a in vals],
                                   pa.string()),
        "types_json": pa.array(
            [json.dumps(sorted(a["types"]), ensure_ascii=False)
             for a in vals], pa.string()),
        "surfaces_json": pa.array(
            [json.dumps(sorted(a["surfaces"]), ensure_ascii=False)
             for a in vals], pa.string()),
        "count": pa.array([a["count"] for a in vals], pa.int64()),
    })


def _ref_edge_partials(linker: EntityLinker, batch: pa.Table) -> pa.Table:
    acc: dict = {}
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
        src_id, _ = linker.link_one(subjects[i], stypes[i])
        dst_id, _ = linker.link_one(obj.get("@value", ""),
                                    otypes.get("@value", "Text"))
        qualifiers = {k: v for k, v in obj.items() if k != "@value"}
        key = (src_id, dst_id, preds[i],
               json.dumps(qualifiers, ensure_ascii=False, sort_keys=True))
        a = acc.setdefault(key, {"weight": 0, "prov": []})
        a["weight"] += 1
        a["prov"].append(f"{convs[i]}:{turns[i]}")
    for a in acc.values():
        a["prov"] = sorted(set(a["prov"]))[:graph.PROVENANCE_CAP]
    vals = list(acc.values())
    return pa.Table.from_pydict({
        "src_id": pa.array([k[0] for k in acc], pa.string()),
        "dst_id": pa.array([k[1] for k in acc], pa.string()),
        "predicate": pa.array([k[2] for k in acc], pa.string()),
        "qualifiers_json": pa.array([k[3] for k in acc], pa.string()),
        "weight": pa.array([a["weight"] for a in vals], pa.int64()),
        "provenance_json": pa.array([json.dumps(a["prov"]) for a in vals],
                                    pa.string()),
    })


def _ref_union_json_col(df, keys, col):
    t = df[keys].copy()
    t["v"] = df[col].map(json.loads)
    t = t.explode("v").drop_duplicates().sort_values(keys + ["v"])
    return t.groupby(keys)["v"].agg(
        lambda s: json.dumps(list(s), ensure_ascii=False))


def _ref_merge_partials_bucket(df, keys):
    agg = df.groupby(keys, as_index=False).agg(
        canonical_name=("canonical_name", "first"), count=("count", "sum"))
    agg["count"] = agg["count"].astype("int64")
    types = _ref_union_json_col(df, keys, "types_json").rename("types_json")
    surfaces = _ref_union_json_col(df, keys, "surfaces_json").rename(
        "surfaces_json")
    return agg.merge(types.reset_index(), on=keys).merge(
        surfaces.reset_index(), on=keys)


def _ref_merge_edges_bucket(df):
    key = graph._EDGE_KEY
    w = df.groupby(key, as_index=False)["weight"].sum()
    w["weight"] = w["weight"].astype("int64")
    p = df[key].copy()
    p["prov"] = df["provenance_json"].map(json.loads)
    p = p.explode("prov").drop_duplicates().sort_values(key + ["prov"])
    prov = (p.groupby(key)["prov"]
            .agg(lambda s: json.dumps(list(s)[:graph.PROVENANCE_CAP]))
            .rename("provenance_json").reset_index())
    return w.merge(prov, on=key)


# ---------------------------------------------------------------- inputs

# (surface, type) pools: KB names and aliases (linked, some ambiguous),
# unknown non-ASCII names (``m:`` ids) and literals (``lit:`` ids)
_NAMED = sorted(INDEX)[:40] + ["不存在实体", "Ünïcode名", "x y"]
_TYPES = ["人物", "企业", "地点", "作品", "Text", "Number", "Date", "气候",
          "语言"]
_LITERALS = ["2008年1月5日", "42", "温带", "汉语", "Ωmega", ""]
_PREDICATES = ["父亲", "获奖", "出生地", "创始人"]
_CONVS = [f"conv-{i:06d}" for i in range(30)] + ["对话-α", "conv-é"]
_HOT = sorted(INDEX)[0]


def _random_batch(rng: np.random.RandomState, n: int) -> pa.Table:
    rows = []
    for _ in range(n):
        # the hot entity: 30% of the rows, all on one edge
        hot = rng.rand() < 0.3
        subj = _HOT if hot else _NAMED[rng.randint(len(_NAMED))]
        stype = "人物" if hot else _TYPES[rng.randint(len(_TYPES))]
        if hot:
            oval = _LITERALS[0]
        elif rng.rand() < 0.5:
            oval = _LITERALS[rng.randint(len(_LITERALS))]
        else:
            oval = _NAMED[rng.randint(len(_NAMED))]
        otype = "Date" if hot else _TYPES[rng.randint(len(_TYPES))]
        obj, obj_type = {"@value": oval}, {"@value": otype}
        if not hot and rng.rand() < 0.3:  # N-ary: qualifier slots
            obj["inWork"] = _NAMED[rng.randint(len(_NAMED))]
            obj["onDate"] = _LITERALS[rng.randint(len(_LITERALS))]
            obj_type["inWork"], obj_type["onDate"] = "作品", "Date"
        if not hot and rng.rand() < 0.05:  # no @value type slot
            obj_type.pop("@value")
        pred = "获奖" if hot else _PREDICATES[rng.randint(len(_PREDICATES))]
        # few turns: the hot edge repeats refs within the batch
        rows.append((_CONVS[rng.randint(len(_CONVS))], int(rng.randint(4)),
                     "baseline", pred, subj, stype,
                     json.dumps(obj, ensure_ascii=False, sort_keys=True),
                     json.dumps(obj_type, ensure_ascii=False, sort_keys=True),
                     oval))
    cols = list(zip(*rows)) if rows else [()] * len(TRIPLE_SCHEMA)
    return pa.Table.from_arrays(
        [pa.array(list(c), f.type) for c, f in zip(cols, TRIPLE_SCHEMA)],
        schema=TRIPLE_SCHEMA)


def _batches(seed: int) -> list[pa.Table]:
    rng = np.random.RandomState(seed)
    return [_random_batch(rng, n) for n in (1, 7, 300, 600)]


def _frames_equal(got: pd.DataFrame, want: pd.DataFrame) -> None:
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True))


# ---------------------------------------------------------------- tests


def test_random_batches_cover_the_edge_cases():
    """The generator reaches what the oracles must be checked on."""
    linker = EntityLinker(alias_index=INDEX)
    edges = pa.concat_tables(
        _ref_edge_partials(linker, b) for b in _batches(0)).to_pandas()
    hot = edges[edges["src_id"] == linker.link_one(_HOT, "人物")[0]]
    assert hot["weight"].max() > graph.PROVENANCE_CAP
    assert any(len(json.loads(p)) == graph.PROVENANCE_CAP
               for p in hot["provenance_json"])
    assert (edges["weight"] > edges["provenance_json"].map(
        lambda p: len(json.loads(p)))).any()  # duplicate refs in a batch
    assert (edges["qualifiers_json"] != "{}").any()
    assert edges["dst_id"].str.startswith("lit:").any()
    assert edges["src_id"].str.startswith("m:").any()
    assert edges["provenance_json"].str.contains(r"\u", regex=False).any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_map_kernels_match_reference(seed):
    """Mentions, linking, partial nodes and partial edges equal the row
    loops: same values, types and row order."""
    linker = EntityLinker(alias_index=INDEX)
    edge_stage = graph.EdgePartials()
    for batch in _batches(seed):
        mentions = mentions_from_triples(batch)
        assert mentions.equals(_ref_mentions_from_triples(batch))
        linked = linker(mentions)
        assert linked.equals(_ref_link(linker, mentions))
        assert canon.partial_nodes(linked).equals(_ref_partial_nodes(linked))
        assert edge_stage(batch).equals(_ref_edge_partials(linker, batch))


@pytest.mark.parametrize("seed", [0, 3])
def test_merges_match_reference(seed):
    """The salt, node and edge merges over the partials of several batches
    equal the per-group ``agg(lambda ...)`` forms, row order included."""
    linker = EntityLinker(alias_index=INDEX)
    batches = _batches(seed)
    nodes = pa.concat_tables(
        canon.partial_nodes(linker(mentions_from_triples(b)))
        for b in batches).to_pandas()
    edges = pa.concat_tables(
        _ref_edge_partials(linker, b) for b in batches).to_pandas()

    for keys in (["entity_id", "salt"], ["entity_id"]):
        _frames_equal(canon._merge_partials_bucket(nodes, keys),
                      _ref_merge_partials_bucket(nodes, keys))
    _frames_equal(graph._merge_edges_bucket(edges),
                  _ref_merge_edges_bucket(edges))
    merged = _ref_merge_partials_bucket(nodes, ["entity_id"])
    final = canon._finalize_bucket(nodes, KB_TYPE_BY_ID)
    assert final["aliases_json"].tolist() == merged["surfaces_json"].tolist()


def test_link_one_runs_once_per_distinct_pair(monkeypatch):
    """Linking a batch and building its edge partials each call
    ``link_one`` once per distinct ``(surface, mention_type)`` pair of the
    batch; for the edges that counts subjects and objects together."""
    calls = []
    real = EntityLinker.link_one

    def spy(self, surface, mention_type):
        calls.append((surface, mention_type))
        return real(self, surface, mention_type)

    monkeypatch.setattr(EntityLinker, "link_one", spy)
    linker = EntityLinker(alias_index=INDEX)
    edge_stage = graph.EdgePartials()
    for batch in _batches(4):
        mentions = mentions_from_triples(batch)
        pairs = set(zip(mentions["surface"].to_pylist(),
                        mentions["mention_type"].to_pylist()))
        calls.clear()
        linker(mentions)
        assert sorted(calls) == sorted(pairs)

        objs = [json.loads(o).get("@value", "")
                for o in batch["object_json"].to_pylist()]
        otypes = [json.loads(o).get("@value", "Text")
                  for o in batch["object_type_json"].to_pylist()]
        pairs = (set(zip(batch["subject"].to_pylist(),
                         batch["subject_type"].to_pylist()))
                 | set(zip(objs, otypes)))
        calls.clear()
        edge_stage(batch)
        assert sorted(calls) == sorted(pairs)
