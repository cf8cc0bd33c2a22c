#!/usr/bin/env python
"""Benchmark harness.

Default: runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32)`` and prints ONE JSON line:

    {"metric": "kg_pipeline_wall", "value": <sec>, "unit": "sec",
     "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
     "n_turns": ..., "triples": ..., "triples_per_sec": ...}

``--scaling``: runs the identical extraction job twice in FRESH processes
(default num_cpus=4 then num_cpus=16, each pinned to exactly that many
physical cores via taskset) on the same input and reports both throughputs
+ scaling efficiency ``eff = (thr_hi / thr_lo) / 4`` — the sandbox
stand-in for the north_rule's N vs 4N node cluster comparison.  The 4→16
default keeps the 32-core box unsaturated at both ends so per-core
conditions match real cluster nodes; ``--cpus-lo 8 --cpus-hi 32``
reproduces the saturated measurement (capped ~0.69 by the machine's own
raw-task ceiling — see BASELINE.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

DEFAULT_SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DEFAULT_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
CONV_MULTIPLIER = 4  # bench corpus: 4 conversations per document row


def _n_convs(sf_dir: str, multiplier: int = CONV_MULTIPLIER) -> int:
    import pyarrow.parquet as pq

    return (
        pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
        * multiplier
    )


def _warmup() -> None:
    """Spawn the task workers before the timed region (first pipeline
    in a fresh session otherwise pays process spawn + import per worker)."""
    import pandas as pd
    import ray

    from nlp_series_relation_extraction_ray.functions.grouping import (
        bucketed_group_apply,
    )
    from nlp_series_relation_extraction_ray.pipelines.extract import (
        extract_triples,
    )
    from nlp_series_relation_extraction_ray.sources.transcripts import (
        transcripts_dataset,
    )

    extract_triples(transcripts_dataset(2000), head="baseline").count()
    # warm the shuffle/reduce path too (groupby Sort spawns its own
    # workers): the first shuffle query otherwise pays the fleet spawn —
    # the round-3 near-dup cold/warm gap (10.2 vs 6.9 s) was exactly this
    ds = ray.data.range(20_000).map_batches(
        lambda df: pd.DataFrame({"k": df["id"] % 97, "v": df["id"]}),
        batch_format="pandas",
    )
    bucketed_group_apply(
        ds, "k", lambda df: df.groupby("k", as_index=False)["v"].sum()
    ).count()
    time.sleep(2)


def _count_turns(n_convs: int) -> int:
    from nlp_series_relation_extraction_ray.sources.transcripts import n_turns

    return sum(n_turns(i) for i in range(n_convs))


def bench_extraction(
    sf_dir: str, head: str = "baseline", multiplier: int = CONV_MULTIPLIER
) -> dict:
    """Headline job: transcript synthesis -> extraction -> triple count."""
    from nlp_series_relation_extraction_ray.pipelines.extract import (
        extract_triples,
    )
    from nlp_series_relation_extraction_ray.sources.transcripts import (
        transcripts_dataset,
    )

    n_convs = _n_convs(sf_dir, multiplier)
    t0 = time.time()
    triples = extract_triples(transcripts_dataset(n_convs), head=head).count()
    wall = time.time() - t0
    n_turns_total = _count_turns(n_convs)
    return {
        "head": head,
        "wall_s": round(wall, 3),
        "n_convs": n_convs,
        "n_turns": n_turns_total,
        "triples": triples,
        "triples_per_sec": round(triples / wall, 1),
        "turns_per_sec": round(n_turns_total / wall, 1),
    }


def bench_kg(sf_dir: str) -> dict:
    from nlp_series_relation_extraction_ray.pipelines.kg import build_kg
    from nlp_series_relation_extraction_ray.sources.transcripts import (
        transcripts_dataset,
    )

    out_dir = "/tmp/bench_kg_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    n_convs = _n_convs(sf_dir)
    t0 = time.time()
    res = build_kg(
        transcripts_dataset(n_convs), head="baseline", out_dir=out_dir
    )
    n_triples = res["triples"].count()
    n_nodes = res["nodes"].count()
    n_edges = res["edges"].count()
    wall = time.time() - t0
    return {
        "wall_s": round(wall, 3),
        "triples": n_triples,
        "nodes": n_nodes,
        "edges": n_edges,
        "triples_per_sec": round(n_triples / wall, 1),
    }


def bench_ivf_split(sf_dir: str) -> dict:
    """IVF physically partitioned index: time the one-off build and the
    probe separately (the build writes the whole bucketed corpus +
    centroids; the probe opens only the probed buckets' files — lumping
    them hid the probe-side pruning win)."""
    import shutil

    import ray

    from nlp_series_relation_extraction_ray.stages.similarity import (
        build_ivf_index,
        knn_ivf_partitioned,
        load_queries_parquet,
    )

    from nlp_series_relation_extraction_ray.sources.readers import (
        read_parquet_clean,
    )

    idx = "/tmp/bench_ivf_index"
    shutil.rmtree(idx, ignore_errors=True)
    embs = read_parquet_clean(f"{sf_dir}/embeddings.parquet")
    t0 = time.time()
    build_ivf_index(embs, idx)
    build_s = round(time.time() - t0, 3)
    queries = load_queries_parquet(f"{sf_dir}/embeddings.parquet", 5)
    t0 = time.time()
    rows = knn_ivf_partitioned(embs, idx, queries=queries).count()
    probe_s = round(time.time() - t0, 3)
    return {"build_s": build_s, "probe_s": probe_s, "rows": rows}


def bench_queries(sf_dir: str) -> dict:
    import __ray_entry__ as entry

    picks = [
        "q1_pricing_summary",
        "q3_top_orders",
        "events_user_stats",
        "docs_exact_dedup",
        "docs_near_dup_pairs",
        "docs_ngram_jaccard",
        "docs_simhash_near_dup",
        "docs_dup_clusters",
        "docs_dedup_keep",
        "docs_token_stats",
        "docs_langid",
        "emb_knn_bruteforce",
        "emb_knn_ivf",
        "events_sessionize_salted",
        "events_attribution",
        "transcripts_reconstruct",
        # round-3 additions
        "events_type_quantiles",
        "events_distinct_users",
        "events_hopping_counts",
        "events_user_hll",
        "q5_local_supplier_revenue",
        "q10_returned_revenue",
        "orders_priority_exists",
        "orders_priority_exists_bloom",
        "docs_posting_lists",
        "docs_lang_source_rollup",
        "docs_repetition",
        "docs_decontaminate",
        "docs_pii_redact",
        "docs_tfidf_terms",
        "kg_triangles",
        "kg_pagerank",
        "kg_components",
        "docs_chunks",
        "docs_stratified_sample",
        "docs_substring_dup",
        "docs_bottomk_sample",
        "docs_lang_source_cube",
        "events_funnel",
        "events_retention",
        "events_value_quantiles_hist",
        "emb_kmeans_clusters",
        # round-4 additions
        "q18_large_orders",
        "events_running_total",
        "docs_search_and",
        "docs_quality_filter",
        "kg_edges_named",
        "emb_semantic_dedup",
        "events_user_hll_check",
        "docs_top_tokens_mg_check",
        "parts_above_brand_avg",
        "events_user_type_pivot",
        "region_nations_list",
        "docs_near_dup_check",
        "emb_ivf_recall_check",
        "events_value_ma_1h",
        "docs_langid_confusion",
        "docs_training_corpus",
        "emb_knn_lsh",
        "docs_edit_dist_pairs",
        # round-5 additions.  Parity-only (correctness artifacts, not
        # throughput pipelines): eval_extraction_pr_trained (one-off
        # deterministic training dominates) and kg_pagerank_check (runs
        # the shuffle-join plan against the driver plan on a
        # vocabulary-bounded graph, so its wall is 5 iterations of pure
        # all-to-all coordination by design).
        "events_type_stats_var",
        "events_hivalue_except_users",
        "events_hivalue_intersect_users",
        "lineitem_discount_bands",
        "events_user_ntile",
        "docs_url_domains",
        "docs_rare_token_stats",
        "custs_priority_mode",
        "kg_kcore",
        "events_full_coverage_users",
    ]
    qs = entry.queries()
    # the KG build cost is reported by bench_kg; pre-warm the shared edge
    # checkpoint so the graph-analytics rows time the analytics alone
    entry._kg_edges_checkpoint(sf_dir)
    out = {}
    for name in picks:
        t0 = time.time()
        res = qs[name](sf_dir)
        # consume (count triggers full streaming execution); pandas results
        # (late-materialization queries) are already driver-side
        n = res.count() if hasattr(res, "to_pandas") and hasattr(
            res, "iter_batches"
        ) else len(res)
        out[name] = round(time.time() - t0, 3)
        out[f"{name}_rows"] = n
    ivf = bench_ivf_split(sf_dir)
    out["emb_knn_ivf_build"] = ivf["build_s"]
    out["emb_knn_ivf_partitioned"] = ivf["probe_s"]  # probe-only wall
    out["emb_knn_ivf_partitioned_rows"] = ivf["rows"]
    return out


def bench_trained(sf_dir: str, trials: int = 3) -> dict:
    """Trained-scorer extraction: task-based ``map_batches`` with real
    (28 MB) weights broadcast once and read once per worker process.

    Runs ``trials`` timed passes and reports ALL walls plus the min: the
    first pass pays each worker's weights fetch and stage build — the warm
    passes are the steady-state number a long-running cluster job sees,
    the cold-warm gap is that one-off cost."""
    import ray

    from nlp_series_relation_extraction_ray.sources.transcripts import (
        transcripts_dataset,
    )
    from nlp_series_relation_extraction_ray.stages.trained_scorer import (
        extract_triples_trained,
        train_baseline_scorer,
    )

    t0 = time.time()
    weights = train_baseline_scorer()
    train_s = time.time() - t0
    wref = ray.put(weights)
    n_convs = _n_convs(sf_dir)
    walls = []
    triples = 0
    for _ in range(trials):
        t0 = time.time()
        triples = extract_triples_trained(
            transcripts_dataset(n_convs), wref
        ).count()
        walls.append(round(time.time() - t0, 3))
    wall = min(walls)
    return {
        "train_s": round(train_s, 1),
        "extract_wall_s": wall,
        "extract_walls_all": walls,
        "extract_wall_cold_s": walls[0],
        "triples": triples,
        "triples_per_sec": round(triples / wall, 1),
    }


def run_full(sf_dir: str, num_cpus: int) -> dict:
    import ray

    ray.init(
        address="local", num_cpus=num_cpus, include_dashboard=False,
        ignore_reinit_error=True,
    )
    try:
        _warmup()
        extract = bench_extraction(sf_dir, head="baseline")
        kg = bench_kg(sf_dir)
        trained = bench_trained(sf_dir)
        queries = bench_queries(sf_dir)
    finally:
        ray.shutdown()
    return {
        "metric": "kg_pipeline_wall",
        "value": kg["wall_s"],
        "unit": "sec",
        "queries": {
            k: v for k, v in queries.items() if not k.endswith("_rows")
        },
        "query_rows": {
            k[:-5]: v for k, v in queries.items() if k.endswith("_rows")
        },
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "n_turns": extract["n_turns"],
        "triples": extract["triples"],
        "extract_wall_s": extract["wall_s"],
        "triples_per_sec": extract["triples_per_sec"],
        "turns_per_sec": extract["turns_per_sec"],
        "kg": kg,
        "trained_scorer": trained,
    }


def run_child_extraction(
    sf_dir: str, num_cpus: int, multiplier: int = CONV_MULTIPLIER * 16
) -> None:
    """Scaling child: extraction-only headline in a fresh Ray session."""
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    try:
        _warmup()
        # large corpus (~1.6M turns at sf0.1 with the default multiplier):
        # the scaling job must be large enough that fixed scheduling
        # overhead does not mask the parallel speedup
        # best of 3 trials: single-node wall clock is noisy (turbo, page
        # cache); the best trial is the least-contended estimate
        trials = [
            bench_extraction(sf_dir, head="baseline", multiplier=multiplier)
            for _ in range(3)
        ]
        res = min(trials, key=lambda r: r["wall_s"])
        res["hwctl_turns_per_sec"] = _hardware_control(num_cpus)
    finally:
        ray.shutdown()
    print(json.dumps({**res, "num_cpus": num_cpus}))


def _hardware_control(num_workers: int) -> float:
    """Embarrassingly-parallel raw-Ray-task control: the same per-turn work
    with NO Ray Data, no shuffles, no pipeline — its N→4N scaling is the
    single-node hardware ceiling (CPU frequency / memory subsystem under
    full load), against which pipeline efficiency is normalized."""
    import ray

    @ray.remote
    def work(lo: int, hi: int) -> int:
        from nlp_series_relation_extraction_ray.sources.transcripts import (
            fact_for,
            n_turns,
            turn_text,
        )
        from nlp_series_relation_extraction_ray.stages import get_head

        h = get_head("baseline")
        cnt = 0
        for i in range(lo, hi):
            for j in range(n_turns(i)):
                spo = fact_for(i, j)
                gold = [spo] if spo else []
                ex = h.preprocess(turn_text(i, j))
                sc = h.oracle_scores(ex, gold)
                cnt += len(h.decode(ex, sc)[1])
        return cnt

    ray.get([work.remote(0, 50) for _ in range(num_workers)])  # warm
    convs = 3000
    t0 = time.time()
    ray.get(
        [work.remote(k * convs, (k + 1) * convs) for k in range(num_workers)]
    )
    wall = time.time() - t0
    total_turns = sum(3 + i % 5 for i in range(num_workers * convs))
    return round(total_turns / wall, 1)


def run_scaling(
    sf_dir: str,
    cpus_lo: int = 4,
    cpus_hi: int = 16,
    multiplier: int = CONV_MULTIPLIER * 8,
) -> dict:
    """N vs 4N parallelism in fresh processes on the same input.

    The DEFAULT pair is 4→16: it leaves the 32-core box unsaturated at both
    ends, so per-core performance stays constant like on a real N→4N node
    cluster — the faithful cluster-analog measurement.  The saturating
    8→32 pair (``--cpus-lo 8 --cpus-hi 32``) folds in the machine's genuine
    per-core degradation under full load (the raw-task hardware control
    measures that ceiling; see BASELINE.md).
    """
    results = {}
    pin = shutil.which("taskset") is not None and not os.environ.get(
        "GRAFT_NO_PIN"
    )
    for cpus in (cpus_lo, cpus_hi):
        cmd = [sys.executable, __file__, "--child-extract",
               "--sf-dir", sf_dir, "--num-cpus", str(cpus),
               "--multiplier", str(multiplier)]
        if pin:
            # pin the child to exactly `cpus` physical cores: a cluster
            # node's workers cannot migrate onto idle sibling cores for
            # turbo headroom, so an unpinned low-cpu run on a mostly-idle
            # 32-core box overstates per-core throughput and understates
            # scaling efficiency
            cmd = ["taskset", "-c", f"0-{cpus - 1}"] + cmd
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=3600,
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(
                f"scaling child (num_cpus={cpus}) failed "
                f"(rc={proc.returncode}):\n{proc.stderr[-2000:]}"
            )
        line = proc.stdout.strip().splitlines()[-1]
        results[cpus] = json.loads(line)
    thr_lo = results[cpus_lo]["triples_per_sec"]
    thr_hi = results[cpus_hi]["triples_per_sec"]
    eff = (thr_hi / thr_lo) / (cpus_hi / cpus_lo)
    hw_lo = results[cpus_lo].get("hwctl_turns_per_sec")
    hw_hi = results[cpus_hi].get("hwctl_turns_per_sec")
    out = {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "sf": sf_dir,
        f"throughput_cpus{cpus_lo}": thr_lo,
        f"throughput_cpus{cpus_hi}": thr_hi,
        f"wall_cpus{cpus_lo}": results[cpus_lo]["wall_s"],
        f"wall_cpus{cpus_hi}": results[cpus_hi]["wall_s"],
        "triples": results[cpus_hi]["triples"],
    }
    if hw_lo and hw_hi:
        hw_eff = (hw_hi / hw_lo) / (cpus_hi / cpus_lo)
        out["hardware_ceiling_eff"] = round(hw_eff, 3)
        # pipeline efficiency normalized to what this single node's raw
        # parallelism ceiling allows (a real N->4N node cluster has constant
        # per-core performance, so this is the cluster-scaling estimate)
        out["normalized_eff"] = round(eff / hw_eff, 3)
    return out


def dump_stats(sf_dir: str, num_cpus: int) -> None:
    """Materialize the headline extraction and write its per-operator
    ds.stats() breakdown (wall time, CPU, memory per stage)."""
    import ray

    from nlp_series_relation_extraction_ray.pipelines.extract import (
        extract_triples,
    )
    from nlp_series_relation_extraction_ray.sources.transcripts import (
        transcripts_dataset,
    )

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)
    try:
        _warmup()
        ds = extract_triples(
            transcripts_dataset(_n_convs(sf_dir)), head="baseline",
        ).materialize()
        path = "/tmp/bench_extract_stats.txt"
        with open(path, "w") as f:
            f.write(ds.stats())
        print(json.dumps({"stats_file": path, "rows": ds.count()}))
    finally:
        ray.shutdown()


# pytest pins for the queries that are rows-only BY DESIGN (hash-family /
# approximate / float-valued operators that are not faithfully
# SQL-expressible).  Every queries() entry without an oracle_sql() row MUST
# appear here — run_parity errors on an unpinned rows-only query, so the
# map cannot silently drift out of sync with __ray_entry__.
ROWS_ONLY_PINS = {
    "docs_near_dup_pairs":
        "tests/test_training_data_ops.py::test_near_dup_pairs_find_planted_dups",
    "docs_minhash_clusters":
        "tests/test_training_data_ops.py::test_minhash_clusters_group_planted_dups",
    "docs_simhash":
        "tests/test_training_data_ops.py::test_simhash_hamming",
    "docs_simhash_near_dup":
        "tests/test_training_data_ops.py::test_simhash_near_dup_pairs",
    "docs_simhash_clusters":
        "tests/test_training_data_ops.py::test_dup_clusters_distributed_path_matches_fast",
    "emb_dup_pairs":
        "tests/test_training_data_ops.py::test_embedding_dup_pairs_planted",
    "docs_fingerprints":
        "tests/test_training_data_ops.py::test_rolling_hash_properties",
    "emb_knn_ivf":
        "tests/test_training_data_ops.py::test_knn_ivf_recall",
    "emb_knn_ivf_partitioned":
        "tests/test_training_data_ops.py::test_knn_ivf_partitioned_prunes_and_matches",
    "emb_kmeans_clusters":
        "tests/test_round3_ops.py::test_kmeans_cluster_stats_matches_numpy_reference",
    "emb_semantic_dedup":
        "tests/test_training_data_ops.py::test_semantic_dedup_drops_planted_near_dups",
    "emb_knn_lsh":
        "tests/test_training_data_ops.py::test_knn_lsh_recall_on_clustered_vectors",
    "multimodal_image_decode":
        "tests/test_training_data_ops.py::test_multimodal_plumbing",
    "multimodal_image_resize":
        "tests/test_training_data_ops.py::test_multimodal_plumbing",
    "multimodal_audio_features":
        "tests/test_training_data_ops.py::test_multimodal_real_audio_branch",
    "multimodal_video_frames":
        "tests/test_training_data_ops.py::test_multimodal_plumbing",
    "kg_pagerank":
        "tests/test_graph_analytics.py::test_kg_pagerank_matches_dense_reference",
    "kg_kcore":
        "tests/test_graph_analytics.py::test_kg_kcore_known_graph",
    "events_user_hll":
        "tests/test_sketches.py::test_events_user_hll_matches_exact_within_bound",
    "docs_top_tokens_mg":
        "tests/test_sketches.py::test_docs_top_tokens_mg_finds_exact_heavy_hitters",
    "events_value_quantiles_hist":
        "tests/test_sketches.py::test_events_value_quantiles_hist_close_to_exact",
}

PARITY_TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _canon_for_hash(df):
    """Driver-compare canonical form: columns sorted by name, every value
    stringified (floats at 12 significant digits so a last-ulp divergence
    between DuckDB's and Ray's float pipelines doesn't flip the row sort),
    rows sorted by all columns."""
    import numpy as np
    import pandas as pd

    out = {}
    for c in sorted(df.columns):
        col = df[c]
        if pd.api.types.is_float_dtype(col):
            out[c] = np.array(["%.12g" % v for v in col.to_numpy()])
        elif pd.api.types.is_bool_dtype(col):
            out[c] = col.map({True: "true", False: "false"}).to_numpy()
        else:
            out[c] = col.astype(str).to_numpy()
    cf = pd.DataFrame(out)
    if len(cf):
        cf = cf.sort_values(list(cf.columns), kind="mergesort")
    return cf.reset_index(drop=True)


def _frame_hash(cf) -> str:
    import hashlib

    h = hashlib.sha256()
    h.update("\x1e".join(cf.columns).encode())
    for c in cf.columns:
        h.update(b"\x1d")
        h.update("\x1f".join(cf[c].tolist()).encode())
    return h.hexdigest()


def _to_pandas(res):
    if hasattr(res, "iter_batches"):  # ray.data.Dataset
        return res.to_pandas()
    if hasattr(res, "to_pandas"):  # pyarrow.Table
        return res.to_pandas()
    return res


def run_parity(sf_dir: str, out_path: str) -> dict:
    """The builder-side replica of the driver's correctness gate, as a
    reproducible artifact: EVERY queries() entry runs against its
    oracle_sql() DuckDB mirror at ``sf_dir`` and gets a driver-format row
    ``{rows_match, schema_match, hash_match, ray_rows, oracle_rows,
    wall_s, err}``; rows-only queries (no oracle by design) are enumerated
    with their named pytest pin.  Ray must already be initialised."""
    import duckdb

    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in PARITY_TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf_dir}/{t}.parquet')"
        )
    qs = entry.queries()
    oracles = entry.oracle_sql()
    results: dict[str, dict] = {}
    for name, fn in qs.items():
        t0 = time.time()
        row: dict = {}
        try:
            rdf = _to_pandas(fn(sf_dir))
            row["ray_rows"] = int(len(rdf))
            sql = oracles.get(name)
            if sql is None:
                pin = ROWS_ONLY_PINS.get(name)
                if pin is None:
                    raise RuntimeError(
                        f"rows-only query {name!r} has no pytest pin in "
                        "ROWS_ONLY_PINS — add one"
                    )
                row.update({
                    "rows_match": None, "schema_match": None,
                    "hash_match": None, "rows_only": True,
                    "pytest_pin": pin,
                })
            else:
                odf = con.execute(sql).df()
                rcf, ocf = _canon_for_hash(rdf), _canon_for_hash(odf)
                row.update({
                    "oracle_rows": int(len(odf)),
                    "rows_match": len(rdf) == len(odf),
                    "schema_match": list(rcf.columns) == list(ocf.columns),
                    "hash_match": _frame_hash(rcf) == _frame_hash(ocf),
                    "rows_only": False,
                })
        except Exception as e:  # noqa: BLE001 — artifact records the error
            row["err"] = f"{type(e).__name__}: {e}"[:500]
        row["wall_s"] = round(time.time() - t0, 3)
        results[name] = row
        status = ("ERR" if "err" in row
                  else "rows-only" if row.get("rows_only")
                  else "OK" if row.get("hash_match")
                  else "MISMATCH")
        print(f"[parity] {name}: {status} ({row['wall_s']}s)",
              file=sys.stderr, flush=True)
    checked = [r for r in results.values()
               if not r.get("rows_only") and "err" not in r]
    summary = {
        "sf": sf_dir,
        "n_queries": len(results),
        "n_checked": len(checked),
        "n_hash_exact": sum(1 for r in checked if r["hash_match"]),
        "n_rows_only": sum(1 for r in results.values()
                           if r.get("rows_only")),
        "n_err": sum(1 for r in results.values() if "err" in r),
    }
    artifact = {"summary": summary, "queries": results}
    with open(out_path, "w") as f:
        json.dump(artifact, f, indent=1, sort_keys=True)
    return summary


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    ap.add_argument("--num-cpus", type=int, default=DEFAULT_CPUS)
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--cpus-lo", type=int, default=4)
    ap.add_argument("--cpus-hi", type=int, default=16)
    ap.add_argument("--multiplier", type=int, default=CONV_MULTIPLIER * 8)
    ap.add_argument("--stats", action="store_true",
                    help="dump ds.stats() of the headline extraction to "
                         "/tmp/bench_extract_stats.txt")
    ap.add_argument("--child-extract", action="store_true")
    ap.add_argument("--parity", action="store_true",
                    help="run every queries() entry vs its oracle_sql() "
                         "DuckDB mirror (driver-format rows) and write "
                         "--parity-out; default sf dir is sf0.01")
    ap.add_argument("--parity-out",
                    default=str(Path(__file__).resolve().parent
                                / "PARITY_r06.json"))
    args = ap.parse_args()

    if args.child_extract:
        run_child_extraction(args.sf_dir, args.num_cpus, args.multiplier)
        return
    if args.parity:
        import ray

        sf = (args.sf_dir if args.sf_dir != DEFAULT_SF_DIR
              or os.environ.get("GRAFT_SF_DIR")
              else "/root/testdata/sf0.01")
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False, ignore_reinit_error=True)
        try:
            print(json.dumps(run_parity(sf, args.parity_out)))
        finally:
            ray.shutdown()
        return
    if args.scaling:
        print(json.dumps(run_scaling(
            args.sf_dir, args.cpus_lo, args.cpus_hi, args.multiplier)))
        return
    if args.stats:
        dump_stats(args.sf_dir, args.num_cpus)
        return
    full = run_full(args.sf_dir, args.num_cpus)
    # the driver parses the LAST stdout line from a bounded tail capture;
    # the full per-query maps outgrew it in round 3 ("parsed": null), so
    # they go to a sidecar file and the final printed line stays compact
    detail_path = str(Path(__file__).resolve().parent / "BENCH_DETAIL.json")
    with open(detail_path, "w") as f:
        json.dump(full, f, indent=1, sort_keys=True)
    qsecs = full["queries"].values()
    compact = {
        "metric": full["metric"],
        "value": full["value"],
        "unit": full["unit"],
        "sf": full["sf"],
        "num_cpus": full["num_cpus"],
        "n_turns": full["n_turns"],
        "triples": full["triples"],
        "extract_wall_s": full["extract_wall_s"],
        "triples_per_sec": full["triples_per_sec"],
        "turns_per_sec": full["turns_per_sec"],
        "kg": full["kg"],
        "trained_scorer": full["trained_scorer"],
        "queries_run": len(full["queries"]),
        "queries_total_s": round(sum(qsecs), 3),
        "queries_max_s": round(max(qsecs), 3),
        "detail": detail_path,
    }
    print(json.dumps(compact))


if __name__ == "__main__":
    main()
