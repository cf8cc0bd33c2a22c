"""The shared graph kernels (`functions/graphs.py`): the canonical pair
builder, the propagation budget of `min_label_components` through both
callers (int labels via `dup_clusters`, string labels via
`kg_components`), and its per-call stats record.

Every test here runs with the grouped-merge row limit at 0, so the
kernels' merges take the distributed plan even at these sizes."""

import logging

import numpy as np
import pandas as pd
import pytest


@pytest.fixture(autouse=True)
def _distributed_merges(monkeypatch):
    from nlp_series_relation_extraction_ray.functions import grouping

    monkeypatch.setattr(grouping, "SINGLE_BLOCK_MAX_ROWS", 0)


def _dup_clusters(n, **kw):
    """Path 0-1-…-(n-1) through dup_clusters → {doc_id: cluster_id}."""
    import ray

    from nlp_series_relation_extraction_ray.stages.dedup import dup_clusters

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64)}))
    pairs = ray.data.from_pandas(pd.DataFrame(
        {"doc_a": np.arange(n - 1), "doc_b": np.arange(1, n)}
    ).astype("int64"))
    got = dup_clusters(docs, pairs, **kw).to_pandas()
    return dict(zip(got["doc_id"], got["cluster_id"]))


def _kg_components(n, **kw):
    """Path n0-n1-…-n(n-1) through kg_components → {entity: component}."""
    import ray

    from nlp_series_relation_extraction_ray.pipelines.kg import kg_components

    names = [f"n{i}" for i in range(n)]
    edges = ray.data.from_pandas(pd.DataFrame(
        {"src_id": names[1:], "dst_id": names[:-1]}))
    got = kg_components(edges, **kw).to_pandas()
    return dict(zip(got["entity_id"], got["component_id"]))


CALLERS = pytest.mark.parametrize(
    "components", [_dup_clusters, _kg_components],
    ids=["int_labels", "string_labels"],
)


@CALLERS
def test_budget_extends_past_max_iters(ray_session, caplog, components):
    """max_iters=1 is below the 5-node path's diameter (4 rounds): the loop
    warns, extends, and still equals the union-find plan."""
    with caplog.at_level(logging.WARNING):
        dist = components(5, max_iters=1, small_edge_limit=0)
    assert dist == components(5)
    assert len(set(dist.values())) == 1
    assert any("no fixpoint after max_iters=1" in r.getMessage()
               for r in caplog.records)


@CALLERS
def test_budget_hard_cap_raises(ray_session, components):
    """A 10-node path needs 9 rounds; max_iters=1 caps the loop at 8."""
    with pytest.raises(RuntimeError, match="within 8 rounds"):
        components(10, max_iters=1, small_edge_limit=0)


def _stats(caplog):
    recs = [r for r in caplog.records if hasattr(r, "stats")
            and r.name.endswith("functions.graphs")]
    assert len(recs) == 1
    return recs[0].stats


def test_components_stats_record(ray_session, caplog):
    """One record per call: plan, directed edge count, rounds run — the
    4-node path converges in 3 rounds (its diameter)."""
    import ray

    from nlp_series_relation_extraction_ray.functions.graphs import (
        min_label_components,
    )

    pairs = ray.data.from_pandas(
        pd.DataFrame({"u": [0, 1, 2], "v": [1, 2, 3]}).astype("int64"))
    logger = "nlp_series_relation_extraction_ray.functions.graphs"
    with caplog.at_level(logging.INFO, logger=logger):
        dist = min_label_components(pairs, small_edge_limit=0).to_pandas()
    assert _stats(caplog) == {
        "plan": "distributed", "directed_edges": 6, "rounds": 3}
    caplog.clear()
    with caplog.at_level(logging.INFO, logger=logger):
        local = min_label_components(pairs).to_pandas()
    assert _stats(caplog) == {
        "plan": "driver", "directed_edges": 6, "rounds": 0}
    assert sorted(zip(dist["node"], dist["label"])) == [
        (n, 0) for n in range(4)]
    assert local["label"].tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("drop_loops", [True, False])
def test_undirected_pairs_canonical_distinct(ray_session, drop_loops):
    import ray

    from nlp_series_relation_extraction_ray.functions.graphs import (
        undirected_pairs,
    )

    edges = ray.data.from_pandas([
        pd.DataFrame({"s": ["b", "a", "c"], "d": ["a", "b", "c"]}),
        pd.DataFrame({"s": ["a", "d", "c"], "d": ["b", "c", "c"]}),
    ])
    df = undirected_pairs(edges, "s", "d", drop_loops=drop_loops).to_pandas()
    got = sorted(zip(df["u"], df["v"]))
    want = [("a", "b"), ("c", "d")] + ([] if drop_loops else [("c", "c")])
    assert got == sorted(want)


@pytest.mark.parametrize("small_edge_limit", [2_000_000, 0])
def test_empty_int_pairs_give_int64_labels(ray_session, small_edge_limit):
    """A typed empty int64 pair input keeps int64 ``(node, label)``
    columns, at the default gate and at the gate that forces the
    distributed plan for any non-empty input (an empty input has nothing
    to propagate, so both run union-find on the driver)."""
    import ray

    from nlp_series_relation_extraction_ray.functions.graphs import (
        min_label_components,
    )
    from nlp_series_relation_extraction_ray.functions.grouping import (
        _collect,
    )

    pairs = ray.data.from_pandas(
        pd.DataFrame({"u": [], "v": []}).astype("int64"))
    got = _collect(min_label_components(
        pairs, small_edge_limit=small_edge_limit).materialize())
    assert got.empty
    assert dict(got.dtypes) == {"node": np.dtype("int64"),
                                "label": np.dtype("int64")}
