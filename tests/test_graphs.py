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

from nlp_series_relation_extraction_ray.functions import graphs


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


def _force_propagation(m, max_iters=graphs.MAX_ITERS):
    """Gate 0 forces the distributed plan for any non-empty pair input."""
    m.setattr(graphs, "DRIVER_MAX_PAIRS", 0)
    m.setattr(graphs, "MAX_ITERS", max_iters)


@CALLERS
def test_budget_extends_past_max_iters(ray_session, caplog, monkeypatch,
                                       components):
    """MAX_ITERS=1 is below the 5-node path's diameter (4 rounds): the loop
    warns, extends, and still equals the union-find plan."""
    with monkeypatch.context() as m, caplog.at_level(logging.WARNING):
        _force_propagation(m, max_iters=1)
        dist = components(5)
    assert dist == components(5)
    assert len(set(dist.values())) == 1
    assert any("no fixpoint after max_iters=1" in r.getMessage()
               for r in caplog.records)


@CALLERS
def test_budget_hard_cap_raises(ray_session, monkeypatch, components):
    """A 10-node path needs 9 rounds; MAX_ITERS=1 caps the loop at 8."""
    _force_propagation(monkeypatch, max_iters=1)
    with pytest.raises(RuntimeError, match="within 8 rounds"):
        components(10)


def _stats(caplog):
    recs = [r for r in caplog.records if hasattr(r, "stats")
            and r.name.endswith("functions.graphs")]
    assert len(recs) == 1
    return recs[0].stats


def test_components_stats_record(ray_session, caplog, monkeypatch):
    """One record per call: op, plan, pair count, rounds run — the 4-node
    path converges in 3 rounds (its diameter)."""
    import ray

    from nlp_series_relation_extraction_ray.functions.graphs import (
        min_label_components,
    )

    pairs = ray.data.from_pandas(
        pd.DataFrame({"u": [0, 1, 2], "v": [1, 2, 3]}).astype("int64"))
    logger = "nlp_series_relation_extraction_ray.functions.graphs"
    with monkeypatch.context() as m, \
            caplog.at_level(logging.INFO, logger=logger):
        _force_propagation(m)
        dist = min_label_components(pairs).to_pandas()
    assert _stats(caplog) == {"op": "min_label_components",
                              "plan": "distributed", "pairs": 3, "rounds": 3}
    caplog.clear()
    with caplog.at_level(logging.INFO, logger=logger):
        local = min_label_components(pairs).to_pandas()
    assert _stats(caplog) == {"op": "min_label_components",
                              "plan": "driver", "pairs": 3, "rounds": 0}
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


@pytest.mark.parametrize("driver_max_pairs", [2_000_000, 0])
def test_empty_int_pairs_give_int64_labels(ray_session, monkeypatch,
                                           driver_max_pairs):
    """A typed empty int64 pair input keeps int64 ``(node, label)``
    columns, at a gate above the input and at the gate that forces the
    distributed plan for any non-empty input (an empty input has nothing
    to propagate, so both run union-find on the driver)."""
    import ray

    from nlp_series_relation_extraction_ray.functions.graphs import (
        min_label_components,
    )
    from nlp_series_relation_extraction_ray.functions.grouping import (
        _collect,
    )

    monkeypatch.setattr(graphs, "DRIVER_MAX_PAIRS", driver_max_pairs)
    pairs = ray.data.from_pandas(
        pd.DataFrame({"u": [], "v": []}).astype("int64"))
    got = _collect(min_label_components(pairs).materialize())
    assert got.empty
    assert dict(got.dtypes) == {"node": np.dtype("int64"),
                                "label": np.dtype("int64")}
