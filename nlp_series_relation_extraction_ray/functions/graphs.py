"""Undirected-graph kernels shared by the graph operators, and their one
size gate.

``undirected_pairs`` is the one builder of the canonical pair table
(distinct ``(u, v)`` with ``u < v``) that components, triangles and k-core
start from; PageRank starts from the distinct directed edges
(``kg._adjacency``).  ``min_label_components`` is the one
connected-components kernel: ``kg_components`` (string labels) and
``dedup.dup_clusters`` (int64 labels) keep only their own output shaping
around it.

``graph_plan`` is the gate of every graph operator: up to
``DRIVER_MAX_PAIRS`` rows of the operator's pair table (canonical pairs;
directed edges for PageRank) it runs on the driver over the collected
table, above it its distributed plan runs.  Each gated call logs one
``{op, plan, pairs, rounds}`` record.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd

logger = logging.getLogger(__name__)

# rows of the operator's pair table (canonical pairs; directed edges for
# PageRank); at most this runs on the driver
DRIVER_MAX_PAIRS = 1_000_000
MAX_ITERS = 25  # propagation rounds before the budget warning (hard cap 8x)


def log_plan(op: str, plan: str, pairs: int, rounds: int) -> None:
    """A call's one INFO record; its ``stats`` attribute holds ``op``,
    ``plan`` (``driver`` or ``distributed``), ``pairs`` (the input edge
    count) and ``rounds`` (0 on the driver)."""
    stats = {"op": op, "plan": plan, "pairs": pairs, "rounds": rounds}
    logger.info("graph plan: op=%s plan=%s pairs=%d rounds=%d",
                op, plan, pairs, rounds, extra={"stats": stats})


def graph_plan(op: str, pairs, driver, distributed):
    """``driver(frame)`` over the collected pair table ``pairs`` (counted
    from block metadata: no execution) up to ``DRIVER_MAX_PAIRS`` rows,
    else ``distributed(pairs) -> (result, rounds)``'s result; logged."""
    from .grouping import _collect

    n = pairs.count()
    if n <= DRIVER_MAX_PAIRS:
        plan, out, rounds = "driver", driver(_collect(pairs)), 0
    else:
        plan = "distributed"
        out, rounds = distributed(pairs)
    log_plan(op, plan, n, rounds)
    return out


def undirected_pairs(edges_ds, src: str, dst: str, drop_loops: bool):
    """Distinct canonical pairs ``(u, v)`` with ``u = min``, ``v = max`` of
    each ``(src, dst)`` edge, as strings (the entity-id type), materialized.
    A map-side ``drop_duplicates`` per block, then one bucketed pair-keyed
    reduce makes them distinct globally.  ``drop_loops=True`` gives the
    simple graph; with ``False`` a self-loop stays as ``(x, x)``, so its
    endpoint stays in the node universe.  Ray skips ``canon`` on a
    zero-row block, so an empty input gets its typed columns from the
    ``empty_result`` hint."""
    from .grouping import bucketed_group_apply

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        a, b = df[src].astype(str), df[dst].astype(str)
        out = pd.DataFrame({"u": np.minimum(a, b), "v": np.maximum(a, b)})
        if drop_loops:
            out = out[out["u"] != out["v"]]
        return out.drop_duplicates()

    return bucketed_group_apply(
        edges_ds.map_batches(canon, batch_format="pandas"), ["u", "v"],
        lambda df: df.drop_duplicates(),
        empty_result={"u": "object", "v": "object"},
    ).materialize()


def _edge_rows(df: pd.DataFrame) -> pd.DataFrame:
    """Both directions of each pair as forward-reduce edge rows: keyed by
    the source, which forwards its label to ``dst``.  ``label`` is unused
    (filled with the source)."""
    src = pd.concat([df["u"], df["v"]], ignore_index=True)
    return pd.DataFrame({
        "key": src, "dst": pd.concat([df["v"], df["u"]], ignore_index=True),
        "label": src, "is_label": False,
    })


def _union_find(ep: pd.DataFrame) -> pd.DataFrame:
    """Driver-local (node, label) over a collected pair frame; union by
    min, so each root is its component's minimum — the converged
    propagation label.  Rows come out sorted by node, typed like ``u``; a
    column-less input (a zero-row map output: Ray skips the UDF for an
    empty block, whose schema is then lost) gives int64, not float64."""
    if not len(ep.columns):
        ep = pd.DataFrame({"u": [], "v": []}, dtype="int64")
    parent: dict = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = r, parent[x]
        return r

    us, vs = ep["u"].tolist(), ep["v"].tolist()
    for a, b in zip(us, vs):
        ra, rb = find(a), find(b)
        if ra < rb:
            parent[rb] = ra
        elif rb < ra:
            parent[ra] = rb
    nodes = sorted(set(us) | set(vs))
    dtype = ep["u"].dtype
    return pd.DataFrame({
        "node": pd.Series(nodes, dtype=dtype),
        "label": pd.Series([find(n) for n in nodes], dtype=dtype),
    })


def _take_min(df: pd.DataFrame) -> pd.DataFrame:
    """Per-node min over the node's own label row(s) and the labels its
    neighbours forwarded; ``dropped`` is 1 where the min fell below the
    node's own label — the fixpoint test counts those."""
    new = df.groupby("node", sort=False)["label"].min()
    old = df[df["own"]].groupby("node", sort=False)["label"].min()
    return pd.DataFrame({
        "node": new.index,
        "label": new.to_numpy(),
        "dropped": (new < old.reindex(new.index)).to_numpy(np.int64),
    })


def _init_rows(df: pd.DataFrame) -> pd.DataFrame:
    # init == round 1: every edge's dst sees itself (own) and its source
    return pd.DataFrame({
        "node": pd.concat([df["dst"], df["dst"]], ignore_index=True),
        "label": pd.concat([df["dst"], df["key"]], ignore_index=True),
        "own": np.repeat([True, False], len(df)),
    })


def _label_rows(df: pd.DataFrame) -> pd.DataFrame:
    # a label row for node ``key``; ``dst`` is unused (filled with key)
    return pd.DataFrame({"key": df["node"], "dst": df["node"],
                         "label": df["label"], "is_label": True})


def _forward(df: pd.DataFrame) -> pd.DataFrame:
    """Per key node: its label row re-emits as the node's own row, and
    each of its edge rows carries the label to the edge's dst."""
    lab = df[df["is_label"]][["key", "label"]]
    e = df[~df["is_label"]][["key", "dst"]]
    own = lab.rename(columns={"key": "node"})
    own["own"] = True
    fwd = e.merge(lab, on="key")[["dst", "label"]].rename(
        columns={"dst": "node"})
    fwd["own"] = False
    return pd.concat([own, fwd], ignore_index=True)


def _propagate(pairs):
    """Distributed min-label propagation over the pair table: ``(labels,
    rounds)``, as :func:`min_label_components` describes it."""
    from .grouping import bucketed_group_apply

    edges = pairs.map_batches(_edge_rows, batch_format="pandas").materialize()
    labels = bucketed_group_apply(
        edges.map_batches(_init_rows, batch_format="pandas"), "node",
        _take_min,
    ).materialize()
    hard_cap = max(MAX_ITERS * 8, MAX_ITERS + 1)
    rounds = 0
    while True:
        if rounds == hard_cap:
            raise RuntimeError(
                f"min_label_components: label propagation did not "
                f"converge within {hard_cap} rounds — graph diameter "
                f"exceeds the iteration budget; raise MAX_ITERS"
            )
        rounds += 1
        msgs = bucketed_group_apply(
            labels.map_batches(_label_rows, batch_format="pandas")
            .union(edges), "key", _forward,
        )
        labels = bucketed_group_apply(msgs, "node", _take_min).materialize()
        if not labels.sum("dropped"):
            break
        if rounds == MAX_ITERS:
            logger.warning(
                "min_label_components: no fixpoint after max_iters=%d "
                "rounds; extending to %d (graph diameter exceeds budget)",
                MAX_ITERS, hard_cap,
            )
    out = labels.map_batches(lambda df: df[["node", "label"]],
                             batch_format="pandas")
    return out, rounds


def min_label_components(pairs_ds):
    """(node, label) for every node incident to a pair of ``pairs_ds``
    (columns ``u``, ``v``; any orderable dtype, e.g. int64 or string);
    ``label`` is the minimum node of the node's connected component.

    Through :func:`graph_plan`: on the driver, union-find runs over the
    collected pair list.  The distributed plan is min-label propagation:
    init folds in round 1 (label = min of self and neighbours), then each
    round is one label⋈edge forward reduce plus one per-node min reduce.
    Label rows and edge rows are told apart by an ``is_label`` flag.
    Labels only decrease, so the per-node min reduce also counts the
    nodes whose label dropped, and a round with none is an exact
    fixpoint; rounds = the largest distance from a node to its component
    minimum (at most the diameter).  Past ``MAX_ITERS`` rounds the loop
    warns and extends to a hard cap of ``8 * MAX_ITERS``, beyond which it
    raises ``RuntimeError`` rather than return unconverged labels.
    """
    import ray

    return graph_plan(
        "min_label_components", pairs_ds.materialize(),
        lambda ep: ray.data.from_pandas(_union_find(ep)), _propagate,
    )
