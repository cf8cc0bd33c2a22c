"""End-to-end KG pipeline tests under Ray: extraction P/R, reconstruction
invariant, linking, canonicalization (skew), edge dedup, determinism."""

import json

import pytest

from nlp_series_relation_extraction_ray.functions.evaluation import (
    evaluate_entities,
    evaluate_triples,
)
from nlp_series_relation_extraction_ray.pipelines.extract import (
    _synthetic_gold,
    extract_triples,
)
from nlp_series_relation_extraction_ray.pipelines.kg import (
    build_kg,
    reconstruct_conversations,
)
from nlp_series_relation_extraction_ray.sources import kb as kbmod
from nlp_series_relation_extraction_ray.sources import transcripts as t

N = 120


@pytest.fixture(scope="module")
def transcripts(ray_session):
    import ray  # noqa: F401

    return t.transcripts_dataset(N)


def total_gold(n):
    return sum(
        1 for i in range(n) for j in range(t.n_turns(i)) if t.fact_for(i, j)
    )


@pytest.mark.parametrize("head", ["baseline", "mpn", "mhs", "biaffine"])
def test_extraction_pr_meets_target(ray_session, head):
    triples = extract_triples(t.transcripts_dataset(N), head=head)
    m = evaluate_triples(triples, _synthetic_gold, total_gold(N))
    # BASELINE.md target: P/R >= 0.95; oracle-scored decode is exact
    assert m["precision"] >= 0.95 and m["recall"] >= 0.95
    assert m["precision"] == 1.0 and m["recall"] == 1.0


def test_entity_eval(ray_session):
    ents = extract_triples(t.transcripts_dataset(N), head="mhs", emit="entities")

    def gold_entities(conv_id, turn_idx):
        from nlp_series_relation_extraction_ray.stages.mhs_head import (
            build_gold_typed_spoes,
        )
        from nlp_series_relation_extraction_ray.stages.base import (
            get_head,
        )

        gold = _synthetic_gold(conv_id, turn_idx)
        ex = get_head("mhs").preprocess(t.turn_text(
            int(conv_id.rsplit("-", 1)[1]), turn_idx))
        _, sub_ent_list = build_gold_typed_spoes(ex["tokens"], gold)
        return sub_ent_list

    m = evaluate_entities(ents, gold_entities)
    assert m["entity_recall"] == 100.0


def test_extract_unknown_emit_raises(ray_session):
    """A misspelt ``emit`` must fail loudly, not silently emit triples."""
    with pytest.raises(ValueError, match="emit 'entity'"):
        extract_triples(t.transcripts_dataset(2), emit="entity")


def test_reconstruction_invariant(ray_session, transcripts):
    """groupby(conv_id)+sort(turn_idx) must reproduce the generated per-turn
    text exactly even though rows are emitted shuffled."""
    import hashlib

    rec = reconstruct_conversations(transcripts).to_pandas()
    assert len(rec) == N
    rec = rec.set_index("conv_id")
    for i in (0, 7, 63, N - 1):
        digest = hashlib.sha256()
        for j in range(t.n_turns(i)):
            digest.update(t.turn_text(i, j).encode())
            digest.update(b"\x00")
        row = rec.loc[t.conv_id(i)]
        assert row["n_turns"] == t.n_turns(i)
        assert row["text_sha"] == digest.hexdigest()


def test_full_kg_build(ray_session, tmp_path):
    out = str(tmp_path / "kg")
    res = build_kg(t.transcripts_dataset(N), head="baseline", out_dir=out)
    _check_kg(res)


def _check_kg(res):
    nodes = res["nodes"].to_pandas()
    edges = res["edges"].to_pandas()

    # schema contract
    assert set(nodes.columns) >= {
        "entity_id", "canonical_name", "entity_type", "mention_count",
        "aliases_json",
    }
    assert set(edges.columns) >= {
        "src_id", "dst_id", "predicate", "qualifiers_json", "weight",
        "provenance_json",
    }

    # skewed head entity dominates mentions (fixture routes ~25% of person
    # slots to person 0)
    top = nodes.sort_values(
        ["mention_count", "entity_id"], ascending=[False, True]
    ).iloc[0]
    assert top["entity_id"] == "E-person-000"

    # weights: sum of edge weights == triple count
    assert int(edges["weight"].sum()) == res["triples"].count()
    assert (edges["weight"] >= 1).all()

    # qualifiers survive on N-ary edges
    award = edges[edges["predicate"] == "获奖"]
    assert len(award) > 0
    q = json.loads(award.iloc[0]["qualifiers_json"])
    assert {"inWork", "onDate", "period"} <= set(q)

    # provenance capped and sorted
    for pj in edges["provenance_json"]:
        prov = json.loads(pj)
        assert len(prov) <= 16
        assert prov == sorted(prov)


def _sorted_frame(ds):
    df = ds.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_full_kg_build_distributed_plan(ray_session, tmp_path, monkeypatch):
    """With the grouped-merge row limit at 0 every merge of ``build_kg``
    takes the distributed plan; the KG passes the same checks and equals
    the default plan's KG."""
    from nlp_series_relation_extraction_ray.functions import grouping

    want = build_kg(t.transcripts_dataset(N), head="baseline",
                    out_dir=str(tmp_path / "default"))
    monkeypatch.setattr(grouping, "SINGLE_BLOCK_MAX_ROWS", 0)
    res = build_kg(t.transcripts_dataset(N), head="baseline",
                   out_dir=str(tmp_path / "distributed"))
    _check_kg(res)
    for key in ("nodes", "edges"):
        assert _sorted_frame(res[key]).equals(_sorted_frame(want[key])), key


def test_reconstruction_plans_agree(ray_session, transcripts, monkeypatch):
    """Conversation reconstruction gives the same rows under both plans."""
    from nlp_series_relation_extraction_ray.functions import grouping

    want = _sorted_frame(reconstruct_conversations(transcripts))
    monkeypatch.setattr(grouping, "SINGLE_BLOCK_MAX_ROWS", 0)
    got = _sorted_frame(reconstruct_conversations(transcripts))
    assert len(got) == N
    assert got.equals(want)


def test_linking_alias_and_ambiguity():
    from nlp_series_relation_extraction_ray.stages.linking import EntityLinker

    idx = kbmod.build_alias_index()
    linker = EntityLinker(alias_index=idx)
    # canonical surface -> its KB id
    eid, canon = linker.link_one("宏宇集团", "企业")
    assert eid == "E-org-000" and canon == "宏宇集团"
    # suffix-stripped alias resolves to the same entity
    eid2, canon2 = linker.link_one("宏宇", "企业")
    assert eid2 == "E-org-000" and canon2 == "宏宇集团"
    # literal mention -> literal node id
    eid3, _ = linker.link_one("2008年1月5日", "Date")
    assert eid3.startswith("lit:")
    # unknown named mention -> m: id
    eid4, _ = linker.link_one("不存在实体", "人物")
    assert eid4 == "m:不存在实体"
    # deterministic across instances
    linker2 = EntityLinker(alias_index=idx)
    assert linker2.link_one("宏宇", "企业") == (eid2, canon2)


def test_kg_determinism(ray_session, tmp_path):
    """Two builds give the same KG, the second written into the first's
    output directory: a rerun replaces each stage, never appends to it."""
    out = str(tmp_path / "kg")

    def build():
        res = build_kg(t.transcripts_dataset(60), head="mpn", out_dir=out)
        return {"triples": res["triples"].count(),
                **{key: _sorted_frame(res[key]) for key in ("nodes", "edges")}}

    a, b = build(), build()
    assert a["triples"] == b["triples"]
    for key in ("nodes", "edges"):
        assert a[key].equals(b[key]), key


def test_cli_extract_twice_replaces_output(ray_session, tmp_path):
    from nlp_series_relation_extraction_ray import cli
    from nlp_series_relation_extraction_ray.sources.readers import (
        read_parquet_clean,
    )

    out = str(tmp_path / "triples")
    argv = ["extract", "--input", "synthetic:30", "--output", out]
    cli.main(argv)
    rows = read_parquet_clean(out).count()
    cli.main(argv)
    assert rows > 0 and read_parquet_clean(out).count() == rows


def test_kg_node_degrees_matches_edge_table(ray_session, tmp_path):
    """Package-level degree aggregate: totals must reconcile with the edge
    table exactly (sum of out_degree == sum of in_degree == |edges|)."""
    import pandas as pd

    from nlp_series_relation_extraction_ray.pipelines.kg import (
        kg_node_degrees,
    )

    res = build_kg(t.transcripts_dataset(80), head="baseline",
                   out_dir=str(tmp_path / "kg"))
    edges = res["edges"].to_pandas()
    deg = kg_node_degrees(res["edges"]).to_pandas()
    assert deg["out_degree"].sum() == len(edges)
    assert deg["in_degree"].sum() == len(edges)
    assert deg["out_weight"].sum() == edges["weight"].sum()
    # spot-check one entity against a pandas recomputation
    eid = edges["src_id"].iloc[0]
    want = (edges["src_id"] == eid).sum()
    got = deg.loc[deg["entity_id"] == eid, "out_degree"].iloc[0]
    assert got == want


def test_explode_complex_slots(ray_session):
    """Slot explosion: every triple contributes exactly its object_json
    keys, in sorted order per turn."""
    import json

    import ray

    from nlp_series_relation_extraction_ray.pipelines.extract import (
        explode_complex_slots,
        extract_triples,
    )

    triples = extract_triples(t.transcripts_dataset(60), head="mpn")
    tdf = triples.to_pandas()
    slots = explode_complex_slots(triples).to_pandas()
    want_rows = sum(len(json.loads(x)) for x in tdf["object_json"])
    assert len(slots) == want_rows
    # every N-ary predicate surfaces its qualifier slots
    assert {"@value"} < set(slots["slot_key"])
    got_26 = slots[slots["predicate"] == "获奖"]["slot_key"].unique()
    assert set(got_26) == {"@value", "inWork", "onDate", "period"}
