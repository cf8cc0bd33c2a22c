"""Full KG-construction pipeline (north_star):

    transcripts ─ extract (tasks) ─ triples ─┬─ mentions → link → canonicalize → nodes
                                             └─ edge combine → dedup/weight → edges

Extraction runs as task-based ``map_batches`` with a per-worker cached
extractor (``extract_triples``), fused with the read.

Stage boundaries are Parquet directories: ``out_dir/triples``,
``out_dir/nodes``, ``out_dir/edges``.  Triples are written once and re-read by
the two downstream consumers — re-reading them beats re-executing the
extraction lineage twice.  ``build_kg`` runs the stages in one session;
``build_kg_resumable`` runs them over transcript Parquet shards with the
manifest checkpoints of ``state/checkpoint.py``, so a rerun skips the
partitions that finished.

Also hosts conversation reconstruction (G3): a ``conv_id``-keyed merge +
intra-group sort by ``turn_idx`` — the stage that witnesses the per-turn text
invariant from BASELINE.json's ``input_hint``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from .extract import extract_triples


def _summarize_conversations(df: pd.DataFrame) -> pd.DataFrame:
    """One summary row per ``conv_id`` of a multi-conversation frame:
    sorted by (``conv_id``, ``turn_idx``), then one pass over the sorted
    texts computes each conversation's digest."""
    df = df.sort_values(["conv_id", "turn_idx"], kind="stable")
    g = df.groupby("conv_id", sort=False)
    conv = df["conv_id"].to_numpy()
    starts = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
    ends = np.r_[starts[1:], len(df)]
    texts = df["text"].tolist()
    return pd.DataFrame({
        "conv_id": conv[starts],
        "n_turns": g.size().to_numpy(np.int64),
        "turn_idx_sum": g["turn_idx"].sum().to_numpy(np.int64),
        "n_roles": g["role"].nunique().to_numpy(np.int64),
        # t1 NUL t2 NUL ... tn NUL: the per-turn rolling digest's bytes
        "text_sha": [
            hashlib.sha256(("\x00".join(texts[a:b]) + "\x00").encode())
            .hexdigest() for a, b in zip(starts, ends)
        ],
    })


def reconstruct_conversations(transcripts_ds):
    """Per-conversation summary after restoring stable turn order.

    Rows arrive physically shuffled; each conversation is sorted by
    ``turn_idx`` before the text digest, so the digest is a pure function
    of the conversation content — the per-turn text-equality invariant.
    """
    from ..functions.grouping import bucketed_group_apply

    return bucketed_group_apply(
        transcripts_ds, "conv_id", _summarize_conversations,
        empty_result={"conv_id": "object", "n_turns": "int64",
                      "turn_idx_sum": "int64", "n_roles": "int64",
                      "text_sha": "object"},
    )


def kg_nodes(triples_ds, alias_index_ref=None):
    """Triples -> canonical node table (link + salted canonicalization)."""
    from ..stages.canonicalize import canonicalize_nodes
    from ..stages.linking import mentions_from_triples, task_link

    mentions = triples_ds.map_batches(
        mentions_from_triples, batch_format="pyarrow"
    )
    ref_key = alias_index_ref.hex() if alias_index_ref is not None else "kb"
    linked = mentions.map_batches(
        task_link,
        fn_kwargs={"ref_key": ref_key, "alias_index_ref": alias_index_ref},
        batch_format="pyarrow",
    )
    return canonicalize_nodes(linked)


def kg_edges(triples_ds, alias_index_ref=None):
    from ..stages.graph import materialize_edges

    return materialize_edges(triples_ds, alias_index_ref=alias_index_ref)


def build_kg(transcripts_ds, head: str = "baseline", out_dir: str | None = None):
    """Run the full pipeline in one session; returns {triples, nodes, edges}
    Datasets.

    With ``out_dir`` set, each stage is written to ``{out_dir}/<name>``
    Parquet, replacing what an earlier run left there, and downstream stages
    read it back; without it everything stays in-memory lineage (tests).
    Nothing is skipped on a rerun: :func:`build_kg_resumable` is the build
    that resumes.
    """
    import ray

    from ..sources.readers import read_parquet_clean

    triples = extract_triples(transcripts_ds, head=head)
    if out_dir:
        triples_dir = f"{out_dir}/triples"
        # Ray appends by default: a rerun would add a second copy
        triples.write_parquet(triples_dir, mode="overwrite")
        # metadata-free re-read: pandas footer metadata makes the fragment
        # schemas unhashable (Ray then logs "Failed to hash the schemas"
        # and loses its schema-dedup fast path on every downstream stage)
        triples = read_parquet_clean(triples_dir)

    from ..sources.kb import build_alias_index

    alias_ref = ray.put(build_alias_index())

    nodes = kg_nodes(triples, alias_index_ref=alias_ref)
    edges = kg_edges(triples, alias_index_ref=alias_ref)
    if out_dir:
        nodes_dir = f"{out_dir}/nodes"
        edges_dir = f"{out_dir}/edges"
        nodes.write_parquet(nodes_dir, mode="overwrite")
        edges.write_parquet(edges_dir, mode="overwrite")
        nodes = read_parquet_clean(nodes_dir)
        edges = read_parquet_clean(edges_dir)
    return {"triples": triples, "nodes": nodes, "edges": edges}


def build_kg_resumable(paths, out_dir: str, head: str = "baseline",
                       n_partitions: int = 8) -> dict:
    """The KG build over transcript Parquet (a directory or a list of
    files) with partition-granular resume at every stage (extract →
    link/canonicalize → graph), through the manifest checkpoints of
    ``state/checkpoint.py``: a killed run reruns only the partitions whose
    manifest is missing or stale.

    The sorted file list is split into at most ``n_partitions`` extraction
    partitions.  Each partition's spec holds its file paths and byte sizes,
    ``head`` and the engine tag, so a rewritten shard reruns.  The nodes
    and edges specs embed every extraction partition's fingerprint, so a
    changed extraction invalidates them while an unchanged rerun skips all
    three stages.  Nodes and edges are global reduces over the full triples
    table, so each is one partition (their shuffles parallelize
    internally).  Returns ``{summary, triples, nodes, edges}``, the summary
    keyed by ``extract``/``nodes``/``edges``.
    """
    import os

    import ray

    from ..sources.kb import build_alias_index
    from ..sources.readers import parquet_files, read_parquet_clean
    from ..stages.base import TURN_COLUMNS
    from ..state.checkpoint import (
        fingerprint,
        partition_ranges,
        read_all_partitions,
        run_partitioned,
    )

    files = parquet_files(paths)
    if not files:
        # zero partitions would clear every checkpoint under out_dir
        raise ValueError(f"no Parquet files in {paths!r}")
    specs = [
        {"kind": "parquet_shard", "files": files[lo:hi],
         "bytes": [os.path.getsize(f) for f in files[lo:hi]],
         "head": head, "engine": "v1"}
        for lo, hi in partition_ranges(len(files), n_partitions)
    ]

    def run_extract(spec: dict):
        return extract_triples(
            read_parquet_clean(spec["files"], columns=TURN_COLUMNS), head=head)

    triples_dir = f"{out_dir}/triples"
    summary = {"extract": run_partitioned(triples_dir, specs, run_extract,
                                          stage=f"triples-{head}")}
    upstream = [fingerprint(spec) for spec in specs]
    alias_ref = ray.put(build_alias_index())
    for stage, build in (("nodes", kg_nodes), ("edges", kg_edges)):
        summary[stage] = run_partitioned(
            f"{out_dir}/{stage}",
            [{"kind": f"kg_{stage}", "head": head, "upstream": upstream}],
            lambda spec, build=build: build(read_all_partitions(triples_dir),
                                            alias_index_ref=alias_ref),
            stage=stage,
        )
    return {"summary": summary,
            **{name: read_all_partitions(f"{out_dir}/{name}")
               for name in ("triples", "nodes", "edges")}}


def kg_node_degrees(edges_ds):
    """Graph analytics over the materialized edge table: per-node out/in
    degree and weighted degree — a second-order aggregate proving the edge
    table is queryable as a graph.  Shape: map-side partials (one row per
    entity per batch) + one hash-bucketed vectorized reduce; entity
    cardinality never concentrates on a single reducer."""
    from ..functions.grouping import two_phase_agg

    def endpoint_rows(df: pd.DataFrame) -> pd.DataFrame:
        # one row per edge endpoint: the src row carries the out-degree
        # terms, the dst row the in-degree terms
        one = np.ones(len(df), dtype=np.int64)
        zero = np.zeros(len(df), dtype=np.int64)
        w = df["weight"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "entity_id": np.concatenate([df["src_id"].to_numpy(),
                                         df["dst_id"].to_numpy()]),
            "out_degree": np.concatenate([one, zero]),
            "out_weight": np.concatenate([w, zero]),
            "in_degree": np.concatenate([zero, one]),
            "in_weight": np.concatenate([zero, w]),
        })

    return two_phase_agg(
        edges_ds, "entity_id",
        {c: (c, "sum") for c in ("out_degree", "out_weight", "in_degree",
                                 "in_weight")},
        prep=endpoint_rows,
    )


def _local_triangles(pdf: pd.DataFrame):
    """Driver-local degree-ordered triangle count over a bounded canonical
    pair list — same orientation rule and output schema as the distributed
    plan in :func:`kg_triangles`."""
    from collections import Counter, defaultdict

    import ray

    deg: Counter = Counter()
    edge_set = set(zip(pdf["u"], pdf["v"]))  # canonical: u < v (as str)
    for u, v in edge_set:
        deg[u] += 1
        deg[v] += 1
    fwd: defaultdict = defaultdict(list)
    for u, v in edge_set:
        if (deg[u], u) < (deg[v], v):
            fwd[u].append(v)
        else:
            fwd[v].append(u)
    tri: Counter = Counter()
    for s, nbrs in fwd.items():
        nbrs = sorted(nbrs)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                a, b = nbrs[i], nbrs[j]
                key = (a, b) if a < b else (b, a)
                if key in edge_set:
                    tri[s] += 1
                    tri[a] += 1
                    tri[b] += 1
    out = pd.DataFrame(
        {"node": pd.Series(list(tri.keys()), dtype=str),
         "n_triangles": pd.Series(list(tri.values()), dtype="int64")}
    )
    return ray.data.from_pandas(out)


def _pair_degrees(pairs_ds):
    """(node, deg) over a canonical undirected pair table (u, v)."""
    from ..functions.grouping import two_phase_agg

    def endpoints(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": pd.concat([df["u"], df["v"]], ignore_index=True)})

    return two_phase_agg(pairs_ds, "node", {"deg": ("node", "count")},
                         prep=endpoints)


def kg_triangles(edges_ds):
    """Per-node triangle counts over the undirected KG entity graph —
    degree-ordered distributed triangle enumeration.

    The scale problem with the naive node-iterator (every node emits all
    neighbor pairs) is hub entities: a node of degree d generates d²/2
    wedges.  The standard fix (node-iterator++ / Schank & Wagner 2005):
    orient each undirected edge from its LOWER-(degree, id) endpoint to the
    higher one; every node's FORWARD degree is then O(sqrt(m)), so total
    wedge volume is O(m^{3/2}) regardless of hubs.  Stages (all bucketed
    reduces / shuffle joins — nothing corpus-scale on the driver):

    1. canonical undirected pairs (u<v, loops dropped, distinct);
    2. degree per node (partial + bucketed merge);
    3. two shuffle joins attach (deg_u, deg_v) to each pair; orientation is
       then a row op;
    4. wedge generation grouped by oriented source (vectorized self-merge
       per bucket, forward-degree-bounded);
    5. wedge⋈edge match on the closing pair (union + bucketed reduce):
       each matched wedge is one triangle, emitting its 3 corners;
    6. per-node count (bucketed reduce).

    Oracle: 3-way self-join over the same canonical pair set in DuckDB.

    Size-gated through ``graphs.graph_plan``: entity graphs are edge-dedup
    OUTPUTS and typically fit far under ``graphs.DRIVER_MAX_PAIRS``
    canonical pairs even when the mention corpus is 100 TB; below the gate
    the degree-ordered enumeration runs driver-local on the collected pair
    list (identical algorithm and output), above it the full 6-stage
    distributed plan runs (one pass: 0 rounds in the plan record).
    """
    from ..functions.graphs import graph_plan, undirected_pairs

    pairs = undirected_pairs(edges_ds, "src_id", "dst_id", drop_loops=True)
    return graph_plan("kg_triangles", pairs, _local_triangles,
                      lambda p: (_triangles_distributed(p), 0))


def _triangles_distributed(pairs):
    """Stages 2-6 of :func:`kg_triangles` over the canonical pair table."""
    from ..functions.grouping import bucketed_group_apply, two_phase_agg
    from ..functions.joins import shuffle_join

    deg = _pair_degrees(pairs)

    # attach both endpoint degrees (two shuffle joins against the degree
    # table — NOT a broadcast: entity cardinality is corpus-scale)
    def key_u(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"node": "u", "deg": "deg_u"})

    def key_v(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"node": "v", "deg": "deg_v"})

    with_du = shuffle_join(
        pairs, deg.map_batches(key_u, batch_format="pandas"), on="u"
    )
    with_dv = shuffle_join(
        with_du, deg.map_batches(key_v, batch_format="pandas"), on="v"
    )

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        # forward direction: lower (deg, id) -> higher (deg, id)
        u_first = (df["deg_u"] < df["deg_v"]) | (
            (df["deg_u"] == df["deg_v"]) & (df["u"] < df["v"])
        )
        return pd.DataFrame(
            {
                "src": np.where(u_first, df["u"], df["v"]),
                "fwd": np.where(u_first, df["v"], df["u"]),
            }
        )

    oriented = with_dv.map_batches(orient, batch_format="pandas")

    wedge_cols = ["a", "b", "src", "is_edge"]

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized wedge generation: self-merge forward adjacency per src
        m = df.merge(df, on="src", suffixes=("_1", "_2"))
        m = m[m["fwd_1"] < m["fwd_2"]]
        # closing pair canonical order: both forward neighbors, min first
        return pd.DataFrame(
            {
                "a": m["fwd_1"].to_numpy(),
                "b": m["fwd_2"].to_numpy(),
                "src": m["src"].to_numpy(),
                "is_edge": np.int8(0),
            }
        )

    wedge_rows = bucketed_group_apply(oriented, "src", wedges)

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "a": df["u"].to_numpy(),
                "b": df["v"].to_numpy(),
                "src": "",
                "is_edge": np.int8(1),
            },
            columns=wedge_cols,
        )

    tagged = wedge_rows.union(
        pairs.map_batches(edge_rows, batch_format="pandas")
    )

    def match(df: pd.DataFrame) -> pd.DataFrame:
        # a wedge (src; a, b) closes iff the canonical pair (a, b) is an
        # edge; every match is a distinct triangle {src, a, b}
        e = df[df["is_edge"] == 1][["a", "b"]]
        w = df[df["is_edge"] == 0]
        tri = w.merge(e, on=["a", "b"])
        if tri.empty:
            return pd.DataFrame({"node": pd.Series([], dtype=str),
                                 "n_triangles": pd.Series([], dtype="int64")})
        corners = pd.concat(
            [tri["src"], tri["a"], tri["b"]], ignore_index=True
        )
        out = corners.value_counts().rename_axis("node").reset_index(
            name="n_triangles"
        )
        out["n_triangles"] = out["n_triangles"].astype("int64")
        return out

    matched = bucketed_group_apply(tagged, ["a", "b"], match)
    return two_phase_agg(matched, "node",
                         {"n_triangles": ("n_triangles", "sum")})


def _adjacency(edges_ds):
    """Distinct directed ``(src, dst)`` entity-id pairs as strings,
    materialized: a map-side ``drop_duplicates`` per block, then one
    bucketed pair-keyed reduce makes them distinct globally.  Ray skips
    ``to_edges`` on a zero-row block, so an empty input gets its typed
    columns from the ``empty_result`` hint."""
    from ..functions.grouping import bucketed_group_apply

    def to_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"src": df["src_id"].astype(str), "dst": df["dst_id"].astype(str)}
        ).drop_duplicates()

    return bucketed_group_apply(
        edges_ds.map_batches(to_edges, batch_format="pandas"), ["src", "dst"],
        lambda df: df.drop_duplicates(),
        empty_result={"src": "object", "dst": "object"},
    ).materialize()


def kg_pagerank(edges_ds, damping: float = 0.85, n_iter: int = 5):
    """PageRank over the directed KG entity graph (distinct src→dst edges),
    fixed-iteration power method — the engine's iterative-analytics shape.

    Size-gated through ``graphs.graph_plan`` on the distinct directed
    edges, like the other graph operators:

    - **driver** (up to ``graphs.DRIVER_MAX_PAIRS`` edges): the collected
      adjacency runs :func:`_pagerank_local`, a numpy ``bincount`` power
      iteration (0 rounds in the plan record).
    - **distributed** (larger): :func:`_pagerank_shuffle` — per iteration
      one shuffle join sends each node's rank to its out-edges and one
      bucketed reduce sums per destination; ranks re-materialize per round
      so lineage stays one-iteration deep.  Dangling mass recovers in
      closed form from the emitted-contribution sum (O(1) driver scalar
      per round).  The plan record reports ``rounds`` = ``n_iter``.

    Both plans run the same update rule; floats → rows-only driver check;
    :func:`kg_pagerank_check` verifies shuffle plan == driver plan, and
    pytest pins both plans against an independent reference.
    """
    import ray

    from ..functions.graphs import graph_plan

    return graph_plan(
        "kg_pagerank", _adjacency(edges_ds),
        lambda ep: ray.data.from_pandas(_pagerank_local(ep, damping, n_iter)),
        lambda adj: (_pagerank_shuffle(adj, damping, n_iter), n_iter),
    )


def _pagerank_shuffle(adj, damping: float, n_iter: int):
    """The shuffle-join PageRank plan (see ``kg_pagerank``) over the
    materialized adjacency ``adj``."""
    from ..functions.grouping import bucketed_group_apply
    from ..functions.joins import shuffle_join

    # node universe (src ∪ dst, distinct) — stays a Dataset
    def nodes_of(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"node": pd.concat([df["src"], df["dst"]], ignore_index=True)}
        ).drop_duplicates()

    nodes = bucketed_group_apply(
        adj.map_batches(nodes_of, batch_format="pandas"), "node",
        lambda df: df.drop_duplicates(),
    ).materialize()
    n_nodes = nodes.count()

    # out-degree → per-edge emission probability, attached once
    def outdeg(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("src", as_index=False).agg(outdeg=("dst", "size"))
        out["outdeg"] = out["outdeg"].astype("int64")
        return out

    deg = bucketed_group_apply(adj, "src", outdeg)
    adj_p = shuffle_join(adj, deg, on="src").map_batches(
        lambda df: pd.DataFrame(
            {"src": df["src"], "dst": df["dst"],
             "p": 1.0 / df["outdeg"].to_numpy()}
        ),
        batch_format="pandas",
    ).materialize()

    def init_rank(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"src": df["node"], "rank": 1.0 / n_nodes})

    ranks = nodes.map_batches(init_rank, batch_format="pandas").materialize()

    base = (1.0 - damping) / n_nodes
    for _ in range(n_iter):
        contrib = shuffle_join(adj_p, ranks, on="src").map_batches(
            lambda df: pd.DataFrame(
                {"node": df["dst"],
                 "c": df["p"].to_numpy() * df["rank"].to_numpy()}
            ),
            batch_format="pandas",
        ).materialize()
        emitted = contrib.sum("c") or 0.0
        # non-dangling nodes emit their whole rank: dangling mass is the
        # remainder of the total (ranks always sum to 1 up to float error)
        dangling = max(0.0, 1.0 - emitted)

        def contrib_merge(df: pd.DataFrame) -> pd.DataFrame:
            out = df.groupby("node", as_index=False)["c"].sum()
            return out

        summed = bucketed_group_apply(contrib, "node", contrib_merge)

        # every node gets the base + dangling share even with no in-edges:
        # union zero-contribution rows for the full node universe
        zeros = nodes.map_batches(
            lambda df: pd.DataFrame({"node": df["node"], "c": 0.0}),
            batch_format="pandas",
        )
        extra = base + damping * dangling / n_nodes

        def fold_rank(df: pd.DataFrame) -> pd.DataFrame:
            out = df.groupby("node", as_index=False)["c"].sum()
            return pd.DataFrame(
                {"src": out["node"],
                 "rank": extra + damping * out["c"].to_numpy()}
            )

        ranks = bucketed_group_apply(
            summed.union(zeros), "node", fold_rank
        ).materialize()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"src": "node"})[["node", "rank"]]

    return ranks.map_batches(finish, batch_format="pandas")


def _pagerank_local(ep: pd.DataFrame, damping: float,
                    n_iter: int) -> pd.DataFrame:
    """(node, rank) sorted by node: :func:`kg_pagerank`'s power iteration
    over a collected adjacency frame ``(src, dst)`` as numpy ``bincount``
    folds — the driver plan and :func:`kg_pagerank_check`'s reference."""
    nodes = sorted(set(ep["src"]) | set(ep["dst"]))
    n = len(nodes)
    if not n:
        return pd.DataFrame({"node": pd.Series([], dtype=object),
                             "rank": pd.Series([], dtype="float64")})
    idx = {node: i for i, node in enumerate(nodes)}
    src = ep["src"].map(idx).to_numpy()
    dst = ep["dst"].map(idx).to_numpy()
    outdeg = np.bincount(src, minlength=n)
    r = np.full(n, 1.0 / n)
    safe_deg = np.where(outdeg == 0, 1, outdeg)
    for _ in range(n_iter):
        contrib = np.bincount(dst, weights=r[src] / safe_deg[src],
                              minlength=n)
        dangling = float(r[outdeg == 0].sum())
        r = (1.0 - damping) / n + damping * (contrib + dangling / n)
    return pd.DataFrame({"node": nodes, "rank": r})


def kg_components(edges_ds):
    """(entity_id, component_id) — weakly-connected components of the KG
    entity graph; ``component_id`` is the lexicographically-minimum
    entity_id in the component.  The KG analogue of dedup's
    ``dup_clusters``: it answers "which entities are transitively linked
    at all", the first cut for subgraph routing / per-component jobs.

    Canonical pairs (loops kept, so a self-loop's endpoint joins the node
    universe) go through :func:`~..functions.graphs.min_label_components`
    with string labels (min = lexicographic): driver-local union-find up
    to ``graphs.DRIVER_MAX_PAIRS`` pairs, distributed min-label
    propagation above.  Node universe = every edge endpoint (entities with
    no edges are trivial singletons and are not emitted — matching the
    oracle's edge-derived universe).
    """
    import ray

    from ..functions.graphs import min_label_components, undirected_pairs
    from ..functions.grouping import _collect

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        out = df.rename(
            columns={"node": "entity_id", "label": "component_id"}
        )
        return out.astype({"entity_id": "string", "component_id": "string"})

    pairs = undirected_pairs(edges_ds, "src_id", "dst_id", drop_loops=False)
    labels = min_label_components(pairs)
    if not pairs.count():  # Ray skips ``rename`` on a zero-row block
        return ray.data.from_pandas(rename(_collect(labels)))
    return labels.map_batches(rename, batch_format="pandas")


def kg_edges_named(edges_ds, nodes_ds):
    """Edge enrichment: attach src/dst canonical names to every edge — the
    human-readable KG export (and the generic pattern for decorating a
    corpus-scale edge list with a corpus-scale node attribute).

    Two shuffle joins on the entity id — at 100 TB the node table is
    corpus-scale (every distinct canonicalized entity), so a broadcast
    would not survive; each join moves only the projected (id, name)
    pairs plus the edge columns already in flight.  Nodes are unique by
    ``entity_id`` (canonicalization's group key), so both joins are 1:1.
    """
    from ..functions.joins import shuffle_join

    names = nodes_ds.select_columns(["entity_id", "canonical_name"])

    def as_src(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"entity_id": "src_id",
                                  "canonical_name": "src_name"})

    def as_dst(df: pd.DataFrame) -> pd.DataFrame:
        return df.rename(columns={"entity_id": "dst_id",
                                  "canonical_name": "dst_name"})

    edges = edges_ds.select_columns(
        ["src_id", "dst_id", "predicate", "qualifiers_json", "weight"]
    )
    with_src = shuffle_join(
        edges, names.map_batches(as_src, batch_format="pandas"), on="src_id"
    )
    named = shuffle_join(
        with_src, names.map_batches(as_dst, batch_format="pandas"),
        on="dst_id",
    )
    # final projection as a fused pandas reorder, NOT a standalone Project
    # op: the join reduce emits merge-ordered columns, and mixing those
    # bundles with Project-ordered ones is exactly the benign-but-noisy
    # "RefBundle with a different schema" (column order) divergence
    final_cols = ["src_id", "src_name", "dst_id", "dst_name", "predicate",
                  "qualifiers_json", "weight"]
    return named.map_batches(
        lambda df: df[final_cols], batch_format="pandas"
    )


def kg_pagerank_check(edges_ds, damping: float = 0.85, n_iter: int = 5):
    """Boolean-verdict accuracy gate for :func:`kg_pagerank` (the one KG
    query whose floats make it rows-only): per node,
    ``|shuffle_plan_rank − driver_plan_rank| ≤ 1e-9`` plus a global
    ``|Σ rank − 1| ≤ 1e-6`` verdict, emitted as literal booleans —
    the SQL oracle emits the node universe + literal TRUE, so a
    hash-exact driver match IS the fixed-point check (same pattern as
    the sketch ``*_check`` queries).

    The checked side is the SHUFFLE-JOIN plan (``_pagerank_shuffle`` —
    the 100-TB path, one rank⋈edge join + one per-destination reduce per
    iteration); the reference is the driver plan, :func:`_pagerank_local`,
    over the same adjacency table, collected.  Collecting it is bounded by
    the canonical-entity vocabulary squared (edges are the OUTPUT of
    canonicalization's reduce), not by corpus size.  An empty table gives
    zero rows; like ``graph_plan``'s distributed side, the shuffle plan
    never sees one.
    """
    from ..functions.grouping import _collect

    adj = _adjacency(edges_ds)
    ref = _pagerank_local(_collect(adj), damping, n_iter)
    got = (_pagerank_shuffle(adj, damping, n_iter).to_pandas() if len(ref)
           else ref)
    ranks = got.set_index("node")["rank"].reindex(ref["node"])
    # NaN-safe: a node missing from the shuffle plan compares False
    within = np.abs(ranks.to_numpy() - ref["rank"].to_numpy()) <= 1e-9
    sum_ok = bool(abs(float(ranks.fillna(0.0).sum()) - 1.0) <= 1e-6) and (
        len(got) == len(ref)
    )
    return pd.DataFrame({"node": ref["node"], "within_tol": within,
                         "sum_ok": sum_ok})


def _kcore_local(pairs) -> dict[str, int]:
    """Driver-local core-number reference: phase peeling (for ascending k,
    repeatedly delete nodes with current degree < k; a node deleted in
    phase k has core number k−1).  Bounded-graph path + the independent
    reference for the boolean gate."""
    from collections import defaultdict

    adj: dict[str, set] = defaultdict(set)
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    deg = {n: len(s) for n, s in adj.items()}
    core: dict[str, int] = {}
    alive = set(adj)
    k = 1
    while alive:
        while True:
            low = [n for n in alive if deg[n] < k]
            if not low:
                break
            for n in low:
                core[n] = k - 1
                alive.discard(n)
                for m in adj[n]:
                    if m in alive:
                        deg[m] -= 1
        k += 1
    return core


def kg_kcore(edges_ds):
    """(entity_id, core) — k-core decomposition of the undirected simple
    KG entity graph (self-loops dropped): ``core`` is the largest k such
    that the node survives in the subgraph where every node has degree
    ≥ k.  The density-stratification analytic next to degrees / triangles
    / pagerank / components: core number separates hub-dense regions from
    peripheral tendrils.

    Size-gated through ``graphs.graph_plan``, like :func:`kg_components`:
    up to ``graphs.DRIVER_MAX_PAIRS`` pairs the collected pair list peels
    driver-local; above it, :func:`_kcore_distributed` runs.
    """
    import ray

    from ..functions.graphs import graph_plan, undirected_pairs

    pairs = undirected_pairs(edges_ds, "src_id", "dst_id", drop_loops=True)
    core = graph_plan(
        "kg_kcore", pairs, lambda ep: _kcore_local(zip(ep["u"], ep["v"])),
        _kcore_distributed,
    )
    nodes = sorted(core)
    return ray.data.from_pandas(pd.DataFrame(
        {"entity_id": pd.array(nodes, dtype="string"),
         "core": pd.array([core[n] for n in nodes], dtype="int64")}
    ))


def _kcore_distributed(pairs) -> tuple[dict[str, int], int]:
    """Distributed phase peeling over the canonical pair table: ``(core
    numbers, rounds)``.  A round is ONE bucketed degree reduce over the
    active edge table, after a map-side filter against the broadcast set
    of nodes the last round removed.  The driver holds only node-bounded
    state (degrees, alive set, cores: the canonical entity vocabulary),
    while the edge table itself stays distributed throughout."""
    import ray

    def degrees(active) -> dict:
        df = _pair_degrees(active).to_pandas()
        return dict(zip(df["node"], df["deg"]))

    deg = degrees(pairs)
    alive = set(deg)
    core: dict[str, int] = {}
    active = pairs
    k = rounds = 1
    while alive:
        low = {n for n in alive if deg.get(n, 0) < k}
        if not low:
            k += 1  # the degrees are unchanged: no new round
            continue
        for n in low:
            core[n] = k - 1
        alive -= low
        if not alive:
            break
        low_ref = ray.put(frozenset(low))

        def drop_removed(df: pd.DataFrame) -> pd.DataFrame:
            rm = ray.get(low_ref)
            return df[~df["u"].isin(rm) & ~df["v"].isin(rm)]

        active = active.map_batches(
            drop_removed, batch_format="pandas"
        ).materialize()  # one-round-deep lineage, like pagerank's ranks
        deg = degrees(active)
        rounds += 1
    return core, rounds


def kg_kcore_check(edges_ds):
    """Boolean-verdict gate for :func:`kg_kcore` (same pattern as
    :func:`kg_pagerank_check`): the DISTRIBUTED phase-peeling plan
    (:func:`_kcore_distributed`) must agree exactly, node for node, with
    the independent driver-local peeling reference over the same pair
    table — emitted as literal booleans whose SQL oracle is the
    edge-endpoint node universe + TRUE (self-loop-only nodes excluded,
    matching the simple-graph semantics).  Integer core numbers make the
    verdict exact (no ε needed).  An empty table gives zero rows; like
    ``graph_plan``'s distributed side, the distributed plan never sees
    one."""
    from ..functions.graphs import undirected_pairs
    from ..functions.grouping import _collect

    pairs = undirected_pairs(edges_ds, "src_id", "dst_id", drop_loops=True)
    ep = _collect(pairs)
    ref = _kcore_local(zip(ep["u"], ep["v"]))
    got = _kcore_distributed(pairs)[0] if ref else {}
    nodes = sorted(ref)
    return pd.DataFrame({
        "node": pd.Series(nodes, dtype=object),
        "core_match": np.array([got.get(n) == ref[n] for n in nodes], bool),
        "count_ok": len(got) == len(nodes),
    })
