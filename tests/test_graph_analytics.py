"""Graph analytics over the KG edge table: degree-ordered triangle
counting (`kg_triangles`), fixed-iteration PageRank (`kg_pagerank`) and
k-core (`kg_kcore`) — semantics pinned on hand-built graphs with known
answers — the one graph-plan record every gated operator logs, and typed
zero-row output on an empty edge table."""

import logging

import numpy as np
import pandas as pd
import pytest

from nlp_series_relation_extraction_ray.functions import graphs


def _edges_ds(pairs):
    import ray

    df = pd.DataFrame(pairs, columns=["src_id", "dst_id"])
    df["predicate"] = "p"
    df["weight"] = 1
    return ray.data.from_pandas(df)


def test_kg_triangles_k4_plus_pendant(ray_session):
    """K4 on {a,b,c,d} has 4 triangles, every K4 node in exactly 3;
    a pendant edge (d,e) adds none.  Directed duplicates / reverse edges /
    self-loops must not change the undirected count."""
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_triangles

    k4 = [(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]]
    noisy = k4 + [("b", "a"), ("c", "a"), ("e", "d"), ("a", "a")]
    got = (
        kg_triangles(_edges_ds(noisy))
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    want = pd.DataFrame(
        {"node": list("abcd"), "n_triangles": [3, 3, 3, 3]}
    )
    pd.testing.assert_frame_equal(got[want.columns], want)


def test_kg_triangles_two_components(ray_session):
    """Two disjoint triangles count independently; a square (4-cycle,
    no chord) contributes nothing."""
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_triangles

    edges = [("a", "b"), ("b", "c"), ("a", "c"),
             ("x", "y"), ("y", "z"), ("x", "z"),
             ("p", "q"), ("q", "r"), ("r", "s"), ("s", "p")]
    got = kg_triangles(_edges_ds(edges)).to_pandas()
    counts = dict(zip(got["node"], got["n_triangles"].astype(int)))
    assert counts == {n: 1 for n in "abcxyz"}


def _pagerank_reference(edges, damping, n_iter):
    nodes = sorted({u for u, _ in edges} | {v for _, v in edges})
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    adj = sorted(set(edges))
    outdeg = np.zeros(n)
    for u, _ in adj:
        outdeg[idx[u]] += 1
    r = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        contrib = np.zeros(n)
        for u, v in adj:
            contrib[idx[v]] += r[idx[u]] / outdeg[idx[u]]
        dangling = r[outdeg == 0].sum()
        r = (1 - damping) / n + damping * (contrib + dangling / n)
    return dict(zip(nodes, r))


@pytest.mark.parametrize("driver_max_pairs", [1_000_000, 0])
def test_kg_pagerank_matches_dense_reference(ray_session, monkeypatch,
                                             driver_max_pairs):
    """Fixed-iteration PageRank equals the pure-Python dense power
    iteration (same damping/iterations/dangling handling) to float
    precision, on a graph with a hub, a dangling node, and a cycle —
    for BOTH physical plans (the driver's numpy iteration and the
    shuffle-join plan, forced via DRIVER_MAX_PAIRS=0)."""
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_pagerank

    monkeypatch.setattr(graphs, "DRIVER_MAX_PAIRS", driver_max_pairs)

    edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"),
             ("c", "d"),  # d is dangling (no out-edges)
             ("e", "a"), ("e", "c"), ("a", "b")]  # duplicate edge ignored
    got = kg_pagerank(_edges_ds(edges), damping=0.85, n_iter=5).to_pandas()
    want = _pagerank_reference(edges, 0.85, 5)
    assert set(got["node"]) == set(want)
    for _, row in got.iterrows():
        assert row["rank"] == pytest.approx(want[row["node"]], abs=1e-9)
    # ranks remain a distribution (mass conservation incl. dangling)
    assert got["rank"].sum() == pytest.approx(1.0, abs=1e-9)


def test_kg_pagerank_uniform_on_symmetric_cycle(ray_session):
    """On a directed cycle every node must keep exactly rank 1/n."""
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_pagerank

    cyc = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    got = kg_pagerank(_edges_ds(cyc), n_iter=4).to_pandas()
    assert np.allclose(got["rank"], 0.25, atol=1e-12)


def test_kg_triangles_distributed_path_matches_local(ray_session,
                                                    monkeypatch):
    """DRIVER_MAX_PAIRS=0 forces the 6-stage distributed plan; it must be
    value-identical to the size-gated driver-local fast path."""
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_triangles

    k4 = [(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]]
    edges = k4 + [("e", "d"), ("x", "y"), ("y", "z"), ("x", "z")]
    local = kg_triangles(_edges_ds(edges)).to_pandas()
    monkeypatch.setattr(graphs, "DRIVER_MAX_PAIRS", 0)
    dist = kg_triangles(_edges_ds(edges)).to_pandas()
    key = lambda df: df.sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(key(local), key(dist[local.columns]))


@pytest.mark.parametrize("driver_max_pairs", [2_000_000, 0])
def test_kg_kcore_known_graph(ray_session, monkeypatch, driver_max_pairs):
    """K4 {a,b,c,d} is a 3-core; a triangle {d,e,f} hanging off it is a
    2-core; a pendant chain g-h off node a is the 1-core fringe.
    Self-loops and duplicate/reversed edges must not change anything.
    Both physical plans (driver-local peel and distributed phase peeling,
    forced via DRIVER_MAX_PAIRS=0) agree."""
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_kcore

    monkeypatch.setattr(graphs, "DRIVER_MAX_PAIRS", driver_max_pairs)

    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "d"),                      # K4
             ("d", "e"), ("e", "f"), ("f", "d"),  # triangle at d
             ("a", "g"), ("g", "h"),          # pendant chain
             ("b", "a"), ("a", "a")]          # reverse dup + self-loop
    got = kg_kcore(_edges_ds(edges)).to_pandas().set_index(
        "entity_id")["core"].to_dict()
    want = {"a": 3, "b": 3, "c": 3, "d": 3, "e": 2, "f": 2, "g": 1, "h": 1}
    assert got == want


def test_kg_kcore_check_all_true(ray_session):
    """The boolean gate verdicts are all TRUE on the known graph."""
    from nlp_series_relation_extraction_ray.pipelines.kg import (
        kg_kcore_check,
    )

    edges = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e")]
    out = kg_kcore_check(_edges_ds(edges))
    assert len(out) == 5
    assert out["core_match"].all()
    assert bool(out["count_ok"].all())


# ---- the graph-plan record ----------------------------------------------

K4_PENDANT = [(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]
              ] + [("d", "e")]  # 7 canonical pairs, 5 nodes


def _path_pairs():
    import ray

    return ray.data.from_pandas(
        pd.DataFrame({"u": [0, 1, 2], "v": [1, 2, 3]}).astype("int64"))


def _dup_clusters_path():
    import ray

    from nlp_series_relation_extraction_ray.stages.dedup import dup_clusters

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64)}))
    pairs = ray.data.from_pandas(
        pd.DataFrame({"doc_a": [0, 1, 2], "doc_b": [1, 2, 3]}).astype("int64"))
    return dup_clusters(docs, pairs)


def _kg(name):
    from nlp_series_relation_extraction_ray.pipelines import kg

    return lambda: getattr(kg, name)(_edges_ds(K4_PENDANT))


# caller -> (the record's op and pairs, the record's rounds on the
# distributed plan, the call); PageRank's pairs are its distinct directed
# edges
GATED = {
    "min_label_components": (
        "min_label_components", 3, 3,
        lambda: graphs.min_label_components(_path_pairs())),
    "dup_clusters": ("min_label_components", 3, 3, _dup_clusters_path),
    "kg_components": ("min_label_components", 7, 2, _kg("kg_components")),
    "kg_triangles": ("kg_triangles", 7, 0, _kg("kg_triangles")),
    "kg_kcore": ("kg_kcore", 7, 2, _kg("kg_kcore")),
    "kg_pagerank": ("kg_pagerank", 7, 5, _kg("kg_pagerank")),
}


@pytest.mark.parametrize("below", [0, 1], ids=["at_count", "below_count"])
@pytest.mark.parametrize("caller", list(GATED))
def test_graph_plan_record(ray_session, caplog, monkeypatch, caller, below):
    """Each call logs exactly one graph-plan record.  With
    ``DRIVER_MAX_PAIRS`` equal to the input's count the plan is
    ``driver`` (0 rounds); one below it is ``distributed`` — so every op
    counts the pairs its record reports, in one unit."""
    op, pairs, rounds, run = GATED[caller]
    monkeypatch.setattr(graphs, "DRIVER_MAX_PAIRS", pairs - below)
    logger = graphs.logger.name
    with caplog.at_level(logging.INFO, logger=logger):
        run().materialize()
    recs = [r.stats for r in caplog.records
            if r.name == logger and hasattr(r, "stats")]
    plan = "distributed" if below else "driver"
    assert recs == [{"op": op, "plan": plan, "pairs": pairs,
                     "rounds": rounds if below else 0}]


def _count_executions(monkeypatch):
    """A list that gets one entry per Ray Data execution started while the
    test runs: the names of its physical operators, upstream first."""
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        names = []

        def walk(op):
            for dep in op.input_dependencies:
                walk(dep)
            names.append(op.name)

        walk(dag)
        calls.append(names)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return calls


FIVE_EDGES = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e")]


@pytest.mark.parametrize("op", [
    "kg_pagerank", "kg_kcore", "kg_triangles", "kg_components",
])
def test_graph_operator_executions(ray_session, monkeypatch, op):
    """On the driver plan an operator builds its pair table (one Ray Data
    execution) and hands back a materialized result (one more to read
    it): at most 2 executions."""
    from nlp_series_relation_extraction_ray.pipelines import kg

    edges = _edges_ds(FIVE_EDGES)
    calls = _count_executions(monkeypatch)
    out = getattr(kg, op)(edges).to_pandas()
    assert len(calls) <= 2
    assert len(out) == (3 if op == "kg_triangles" else 5)


@pytest.mark.parametrize("check, fewer_than", [
    ("kg_kcore_check", 17), ("kg_pagerank_check", 23),
])
def test_checks_build_their_input_once(ray_session, monkeypatch, check,
                                       fewer_than):
    """Each check builds its pair or adjacency table once and runs the
    distributed kernel on it directly, so it starts fewer Ray Data
    executions than the 17 (k-core) and 23 (PageRank) of the version that
    rebuilt the table for its reference (and, for PageRank, ran the dense
    plan's degree pass first); its verdicts stay all TRUE."""
    from nlp_series_relation_extraction_ray.pipelines import kg

    edges = _edges_ds(FIVE_EDGES)
    calls = _count_executions(monkeypatch)
    out = getattr(kg, check)(edges)
    assert len(calls) < fewer_than
    assert len(out) == 5
    assert out.drop(columns="node").all().all()


# op -> its documented output columns
GRAPH_OUTPUTS = {
    "kg_components": ["entity_id", "component_id"],
    "kg_triangles": ["node", "n_triangles"],
    "kg_pagerank": ["node", "rank"],
    "kg_kcore": ["entity_id", "core"],
    "kg_pagerank_check": ["node", "within_tol", "sum_ok"],
    "kg_kcore_check": ["node", "core_match", "count_ok"],
}


@pytest.mark.parametrize("op", list(GRAPH_OUTPUTS))
def test_empty_edge_table_gives_typed_zero_rows(ray_session, op):
    """An empty edge table gives zero rows with the documented columns,
    typed like the output on a non-empty graph.  Ray skips a map UDF on
    a zero-row block, so the pair tables keep their columns only through
    their builders' ``empty_result`` hints."""
    from nlp_series_relation_extraction_ray.functions.grouping import (
        _collect,
    )
    from nlp_series_relation_extraction_ray.pipelines import kg

    def run(pairs):
        out = getattr(kg, op)(_edges_ds(pairs))
        return out if isinstance(out, pd.DataFrame) else _collect(
            out.materialize())

    empty = run([])
    assert len(empty) == 0
    assert list(empty.columns) == GRAPH_OUTPUTS[op]
    pd.testing.assert_series_equal(empty.dtypes, run(FIVE_EDGES).dtypes)
