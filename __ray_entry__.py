"""Driver contract for the Ray-Data KG construction engine.

``entry()`` runs the flagship pipeline (transcript synthesis -> triple
extraction) at sf0.001 scale.  ``queries()`` exposes one callable per
implemented operator/pipeline (SURVEY §2); ``oracle_sql()`` gives the DuckDB
mirror for each SQL-expressible one.  The synthetic transcript corpus is a
pure function of ``documents.doc_id`` (BASELINE.json input_hint shape), which
is what makes the extraction pipelines SQL-verifiable end-to-end: the oracle
reproduces the gold triples by integer arithmetic, and oracle-scored decode
is exact (pinned by pytest round-trip tests).

Ray is initialised by the driver BEFORE this module is imported: nothing here
calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))


import pyarrow as pa
import pyarrow.parquet as pq

EXTRACT_COLS = [
    "conv_id", "turn_idx", "predicate", "subject", "subject_type",
    "object_json", "object_value",
]


def _n_convs(sf_dir: str) -> int:
    return pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows


def _transcripts(sf_dir: str):
    from nlp_series_relation_extraction_ray.sources.transcripts import (
        transcripts_dataset,
    )

    return transcripts_dataset(_n_convs(sf_dir))


def _extract(sf_dir: str, head: str):
    from nlp_series_relation_extraction_ray.pipelines.extract import (
        extract_triples,
    )

    ds = extract_triples(_transcripts(sf_dir), head=head)
    return ds.select_columns(EXTRACT_COLS)


def _fixture_gold(sf_dir: str):
    from nlp_series_relation_extraction_ray.sources.transcripts import (
        gold_triples_rows,
    )

    tbl = gold_triples_rows(_n_convs(sf_dir))
    return tbl.select(EXTRACT_COLS)


def _complex_slots(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.extract import (
        explode_complex_slots,
    )

    return explode_complex_slots(_extract(sf_dir, "mpn"))


def _reconstruct(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.kg import (
        reconstruct_conversations,
    )

    rec = reconstruct_conversations(_transcripts(sf_dir))
    return rec.select_columns(["conv_id", "n_turns", "turn_idx_sum", "n_roles"])


# The three KG queries (nodes / edges / node_degrees) share one extracted
# triples checkpoint per (sf_dir, head): extraction lineage runs once and the
# materialized result (small — triples are the *output* of the reduce-heavy
# stage) is reused, exactly like the production path where kg_* stages read
# one written triples dir (state/checkpoint.py).  Same for the broadcast
# alias index.
_SHARED_CACHE: dict[Any, Any] = {}


def _triples_checkpoint(sf_dir: str, head: str = "baseline"):
    key = ("triples", sf_dir, head)
    if key not in _SHARED_CACHE:
        _SHARED_CACHE[key] = extract_triples_full(sf_dir, head).materialize()
    return _SHARED_CACHE[key]


def extract_triples_full(sf_dir: str, head: str):
    from nlp_series_relation_extraction_ray.pipelines.extract import (
        extract_triples,
    )

    return extract_triples(_transcripts(sf_dir), head=head)


def _alias_index_ref():
    import ray

    from nlp_series_relation_extraction_ray.sources.kb import build_alias_index

    if "alias_index" not in _SHARED_CACHE:
        _SHARED_CACHE["alias_index"] = ray.put(build_alias_index())
    return _SHARED_CACHE["alias_index"]


def _kg_nodes(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_nodes

    nodes = kg_nodes(_triples_checkpoint(sf_dir),
                     alias_index_ref=_alias_index_ref())
    return nodes.select_columns(
        ["entity_id", "canonical_name", "entity_type", "mention_count",
         "aliases_json"]
    )


def _kg_edges(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_edges

    return kg_edges(_triples_checkpoint(sf_dir),
                    alias_index_ref=_alias_index_ref())


def _docs(sf_dir: str):
    from nlp_series_relation_extraction_ray.sources.readers import (
        read_parquet_clean,
    )

    return read_parquet_clean(f"{sf_dir}/documents.parquet")


def _embs(sf_dir: str):
    from nlp_series_relation_extraction_ray.sources.readers import (
        read_parquet_clean,
    )

    return read_parquet_clean(f"{sf_dir}/embeddings.parquet")


def _emb_dups(sf_dir: str):
    """Embedding-cosine near-dup over the corpus plus planted duplicates:
    the first 20 vectors get slightly-perturbed copies (vec_id + 1_000_000),
    which the detector must recover (the raw corpus has no near-dups)."""
    import ray

    from nlp_series_relation_extraction_ray.stages.dedup import (
        embedding_dup_pairs,
    )

    def plant(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = batch["vec_id"].to_pylist()
        vecs = batch["embedding"].to_pylist()
        out_ids, out_vecs = list(ids), list(vecs)
        for vid, vec in zip(ids, vecs):
            if vid < 20:
                v = np.asarray(vec, dtype=np.float32)
                v = v + 0.001 * np.sin(np.arange(len(v)) + vid)
                out_ids.append(vid + 1_000_000)
                out_vecs.append(v.tolist())
        return pa.Table.from_pydict(
            {
                "vec_id": pa.array(out_ids, pa.int64()),
                "embedding": pa.array(out_vecs, pa.list_(pa.float32())),
            }
        )

    ds = _embs(sf_dir).select_columns(["vec_id", "embedding"]).map_batches(
        plant, batch_format="pyarrow"
    )
    return embedding_dup_pairs(ds, threshold=0.99)


def _kg_edges_checkpoint(sf_dir: str):
    """Materialized edge table shared by the graph-analytics queries
    (degrees / triangles / pagerank) — the edge-build shuffles run once,
    like the production path reading one written edges dir."""
    key = ("kg_edges", sf_dir)
    if key not in _SHARED_CACHE:
        _SHARED_CACHE[key] = _kg_edges(sf_dir).materialize()
    return _SHARED_CACHE[key]


def _kg_nodes_checkpoint(sf_dir: str):
    """Materialized node table for queries that JOIN against nodes
    (edge enrichment) — canonicalization runs once per sf_dir."""
    key = ("kg_nodes", sf_dir)
    if key not in _SHARED_CACHE:
        _SHARED_CACHE[key] = _kg_nodes(sf_dir).materialize()
    return _SHARED_CACHE[key]


def _kg_edges_named(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_edges_named

    return kg_edges_named(
        _kg_edges_checkpoint(sf_dir), _kg_nodes_checkpoint(sf_dir)
    )


def _kg_node_degrees(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.kg import (
        kg_node_degrees,
    )

    return kg_node_degrees(_kg_edges_checkpoint(sf_dir))


def _kg_triangles(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_triangles

    return kg_triangles(_kg_edges_checkpoint(sf_dir))


def _kg_pagerank(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_pagerank

    return kg_pagerank(_kg_edges_checkpoint(sf_dir))


def _kg_components(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_components

    return kg_components(_kg_edges_checkpoint(sf_dir))


def _kg_pagerank_check(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.kg import (
        kg_pagerank_check,
    )

    return kg_pagerank_check(_kg_edges_checkpoint(sf_dir))


def _kg_kcore(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_kcore

    return kg_kcore(_kg_edges_checkpoint(sf_dir))


def _kg_kcore_check(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.kg import (
        kg_kcore_check,
    )

    return kg_kcore_check(_kg_edges_checkpoint(sf_dir))


def _dup_clusters(sf_dir: str):
    from nlp_series_relation_extraction_ray.stages import dedup as dd

    key = ("dup_clusters", sf_dir)
    if key not in _SHARED_CACHE:
        _SHARED_CACHE[key] = dd.dup_clusters(
            _docs(sf_dir), dd.ngram_jaccard_pairs(_docs(sf_dir))
        ).materialize()
    return _SHARED_CACHE[key]


def _clean_corpus(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.dataprep import (
        clean_corpus,
    )

    # reuse the materialized dup_clusters checkpoint shared with
    # docs_dup_clusters / docs_dedup_keep (one pair-graph build per run)
    return clean_corpus(sf_dir, clusters_ds=_dup_clusters(sf_dir))


def _near_dup_pairs(sf_dir: str):
    """Materialized MinHash/LSH pair graph, shared between the
    ``docs_near_dup_pairs`` query and the cluster chain built on it (the
    pair table is the small OUTPUT of the 3-shuffle LSH job — exactly
    what production would write to a pairs dir and re-read)."""
    from nlp_series_relation_extraction_ray.stages import dedup as dd

    key = ("near_dup_pairs", sf_dir)
    if key not in _SHARED_CACHE:
        _SHARED_CACHE[key] = dd.near_dup_pairs_distributed(
            _docs(sf_dir)
        ).materialize()
    return _SHARED_CACHE[key]


def _simhash_pairs(sf_dir: str):
    """Materialized SimHash band-LSH pair graph (shared like
    :func:`_near_dup_pairs`)."""
    from nlp_series_relation_extraction_ray.stages import dedup as dd

    key = ("simhash_pairs", sf_dir)
    if key not in _SHARED_CACHE:
        _SHARED_CACHE[key] = dd.simhash_near_dup_pairs(
            _docs(sf_dir)
        ).materialize()
    return _SHARED_CACHE[key]


def _minhash_clusters(sf_dir: str):
    """Connected components over the DISTRIBUTED MinHash/LSH pair graph —
    the full LSH dedup decision chain (shingle → minhash → band bucket →
    verify → cluster) end-to-end.  Rows-only check: the hash family is not
    SQL-expressible; semantics are pinned by the planted-duplicate pytest
    and by dup_clusters' own recursive-CTE-verified propagation."""
    from nlp_series_relation_extraction_ray.stages import dedup as dd

    key = ("minhash_clusters", sf_dir)
    if key not in _SHARED_CACHE:
        _SHARED_CACHE[key] = dd.dup_clusters(
            _docs(sf_dir), _near_dup_pairs(sf_dir)
        ).materialize()
    return _SHARED_CACHE[key]


EVAL_HEADS = ("baseline", "mpn", "mhs", "biaffine", "baseline_wp")


def _eval_pr(sf_dir: str):
    """Per-head corpus P/R/F1 vs gold (the BASELINE.md >=0.95 gate), as a
    table: (head, tp, fp, fn, precision, recall, f1).  SQL-verified: the
    oracle (``fixture_sql.eval_pr_sql``) re-computes the DuIE exact-match
    comparator as a predicted⋈gold join over the fixture-derived tables, so
    a broken extraction mismatches on tp/fp."""
    import pandas as pd

    from nlp_series_relation_extraction_ray.functions.evaluation import (
        evaluate_triples,
    )
    from nlp_series_relation_extraction_ray.pipelines.extract import (
        _synthetic_gold,
        extract_triples,
    )
    from nlp_series_relation_extraction_ray.sources.transcripts import (
        total_gold as total_gold_fn,
    )

    n = _n_convs(sf_dir)
    total_gold = total_gold_fn(n)  # closed form: O(1) in corpus size
    rows = []
    for head in EVAL_HEADS:
        m = evaluate_triples(
            extract_triples(_transcripts(sf_dir), head=head),
            _synthetic_gold, total_gold,
        )
        rows.append({"head": head, **{k: m[k] for k in
                                      ("tp", "fp", "fn", "precision",
                                       "recall", "f1")}})
    return pd.DataFrame(rows)


# (head, extract_fn_name, train_fn_name, train_kwargs) for the LEARNED
# quality gate.  The recipes are the deterministic reduced budgets whose
# measured P/R at sf0.001 AND sf0.01 is identical (the synthetic corpus is
# periodic, so the ratios are scale-invariant) and clears the 0.95 floor:
# baseline P=.9946/R=.9862, mpn P=.97x/R=1.0 (bumped budget), mhs
# P=.9881/R=1.0, biaffine P=.9774/R=.9862 — see BASELINE.md round 5.
TRAINED_EVAL_SPECS = (
    ("baseline-trained", "extract_triples_trained", "train_baseline_scorer",
     dict(n_train_convs=1200, epochs=30)),
    ("mpn-trained", "extract_triples_trained_mpn", "train_mpn_scorer",
     dict(n_train_convs=900, subject_epochs=25, po_epochs=20)),
    ("mhs-trained", "extract_triples_trained_mhs", "train_mhs_scorer",
     dict(n_train_convs=700, span_epochs=20, pair_epochs=15)),
    ("biaffine-trained", "extract_triples_trained_biaffine",
     "train_biaffine_scorer",
     dict(n_train_convs=700, span_epochs=20, pair_epochs=15)),
)
TRAINED_PR_FLOOR = 0.95


def _trained_weights_ref(train_fn_name: str, train_kwargs: dict):
    """Train once per process (deterministic recipe, fixture corpus —
    independent of sf_dir) and broadcast via ``ray.put``."""
    import ray

    from nlp_series_relation_extraction_ray.stages import trained_scorer as tsc

    key = ("trained_weights", train_fn_name, tuple(sorted(train_kwargs.items())))
    if key not in _SHARED_CACHE:
        _SHARED_CACHE[key] = ray.put(
            getattr(tsc, train_fn_name)(**train_kwargs)
        )
    return _SHARED_CACHE[key]


def _eval_pr_trained(sf_dir: str):
    """The BASELINE.md P/R ≥ 0.95 quality gate for the LEARNED path, as a
    boolean-verdict table: (head, pr_ge_95, rc_ge_95) for all four trained
    heads, same DuIE exact-match comparator as ``eval_extraction_pr``.  The
    oracle emits the head list + literal TRUE, so a hash-exact driver match
    IS the quality gate (the full training recipes are deterministic and
    measure F1 0.98–1.0, making the booleans stable)."""
    import pandas as pd

    from nlp_series_relation_extraction_ray.functions.evaluation import (
        evaluate_triples,
    )
    from nlp_series_relation_extraction_ray.pipelines.extract import (
        _synthetic_gold,
    )
    from nlp_series_relation_extraction_ray.sources.transcripts import (
        total_gold as total_gold_fn,
    )
    from nlp_series_relation_extraction_ray.stages import trained_scorer as tsc

    n = _n_convs(sf_dir)
    total_gold = total_gold_fn(n)
    rows = []
    for head, extract_fn_name, train_fn_name, train_kwargs in (
            TRAINED_EVAL_SPECS):
        wref = _trained_weights_ref(train_fn_name, train_kwargs)
        triples = getattr(tsc, extract_fn_name)(_transcripts(sf_dir), wref)
        m = evaluate_triples(triples, _synthetic_gold, total_gold)
        rows.append({
            "head": head,
            "pr_ge_95": bool(m["precision"] >= TRAINED_PR_FLOOR),
            "rc_ge_95": bool(m["recall"] >= TRAINED_PR_FLOOR),
        })
    return pd.DataFrame(rows)


def _query_matrix(sf_dir: str, n_queries: int = 5):
    """One pruned query-vector load shared by every kNN query: the
    ``vec_id < n`` predicate pushes into the parquet read (row-group
    pruning), so picking 5 vectors never scans the corpus — and the three
    kNN queries stop paying three corpus scans for the same 5 rows."""
    from nlp_series_relation_extraction_ray.stages.similarity import (
        load_queries_parquet,
    )

    key = ("knn_queries", sf_dir, n_queries)
    if key not in _SHARED_CACHE:
        _SHARED_CACHE[key] = load_queries_parquet(
            f"{sf_dir}/embeddings.parquet", n_queries
        )
    return _SHARED_CACHE[key]


def _ivf_index_dir(sf_dir: str) -> str:
    """Build (or reuse) the physically bucket-partitioned parquet index for
    this corpus under /tmp.  A finished on-disk index (centroids.npy
    present) is reused even across processes — rebuilding into it would
    duplicate every vector (write_parquet appends unique per-run files).
    The directory is keyed on ``sf_dir`` and on the source of
    ``stages/similarity.py``, so an index that another version of the
    bucket assignment wrote is never reused."""
    import hashlib
    import os

    from nlp_series_relation_extraction_ray.stages import similarity

    key = ("ivf_index", sf_dir)
    if key not in _SHARED_CACHE:
        tag = hashlib.md5(sf_dir.encode())
        tag.update(Path(similarity.__file__).read_bytes())
        index_dir = f"/tmp/ivf_index_{tag.hexdigest()[:12]}"
        if not os.path.exists(os.path.join(index_dir, "centroids.npy")):
            similarity.build_ivf_index(_embs(sf_dir), index_dir)
        _SHARED_CACHE[key] = index_dir
    return _SHARED_CACHE[key]


def _knn_ivf_partitioned(sf_dir: str):
    """IVF top-k against a PHYSICALLY bucket-partitioned parquet index
    (built once per sf_dir under /tmp): probe-time reads open only the
    probed bucket partitions' files."""
    from nlp_series_relation_extraction_ray.stages.similarity import (
        knn_ivf_partitioned,
    )

    return knn_ivf_partitioned(
        _embs(sf_dir), _ivf_index_dir(sf_dir), queries=_query_matrix(sf_dir)
    )


def _media_decode(sf_dir: str):
    import ray

    from nlp_series_relation_extraction_ray.stages.multimodal import (
        decode_media,
        synth_media_table,
    )

    n = min(_n_convs(sf_dir), 200)
    return decode_media(ray.data.from_arrow(synth_media_table(n)), kind="image")


def _media_video(sf_dir: str):
    import ray

    from nlp_series_relation_extraction_ray.stages.multimodal import (
        decode_media,
        synth_media_table,
    )

    n = min(_n_convs(sf_dir), 200)
    return decode_media(
        ray.data.from_arrow(synth_media_table(n, kind="video")), kind="video"
    )


def _media_audio(sf_dir: str):
    import ray

    from nlp_series_relation_extraction_ray.stages.multimodal import (
        decode_media,
        synth_media_table,
    )

    n = min(_n_convs(sf_dir), 200)
    return decode_media(
        ray.data.from_arrow(synth_media_table(n, kind="audio")), kind="audio"
    )


def _media_resize(sf_dir: str):
    import ray

    from nlp_series_relation_extraction_ray.stages.multimodal import (
        decode_media,
        synth_media_table,
    )

    n = min(_n_convs(sf_dir), 200)
    return decode_media(
        ray.data.from_arrow(synth_media_table(n, kind="image")),
        kind="resize",
    )


def entry() -> Any:
    """Flagship: full extraction over the sf0.001-scale synthetic corpus."""
    return _extract("/root/testdata/sf0.001", "baseline")


def queries() -> dict[str, Callable[[str], Any]]:
    q: dict[str, Callable[[str], Any]] = {
        "fixture_gold_triples": _fixture_gold,
        "extract_triples_baseline": lambda sf: _extract(sf, "baseline"),
        "extract_triples_mpn": lambda sf: _extract(sf, "mpn"),
        "extract_triples_mhs": lambda sf: _extract(sf, "mhs"),
        "extract_triples_biaffine": lambda sf: _extract(sf, "biaffine"),
        # the WordPiece-tokenized baseline: genuine subword splitting
        # end-to-end; same gold oracle (the subword round trip is lossless)
        "extract_triples_baseline_wordpiece":
            lambda sf: _extract(sf, "baseline_wp"),
        "extract_complex_slots": _complex_slots,
        "transcripts_reconstruct": _reconstruct,
        "kg_nodes": _kg_nodes,
        "kg_edges": _kg_edges,
        "kg_node_degrees": _kg_node_degrees,
        # graph analytics: degree-ordered triangle enumeration (SQL-exact
        # vs a 3-way self-join) and fixed-iteration PageRank (floats →
        # rows-only; fixed-point pinned vs a dense reference in pytest)
        "kg_triangles": _kg_triangles,
        "kg_pagerank": _kg_pagerank,
        # boolean-verdict fixed-point gate for pagerank (per-node
        # |shuffle-plan − dense-reference| ≤ 1e-9 + Σrank≈1 as literal
        # booleans; oracle = node universe + literal TRUE → driver-checkable)
        "kg_pagerank_check": _kg_pagerank_check,
        # k-core decomposition (density stratification; integer cores —
        # iterative peeling is not SQL-expressible, so the decomposition
        # itself is rows-only and the _check gate is the driver-checkable
        # distributed-vs-reference verdict)
        "kg_kcore": _kg_kcore,
        "kg_kcore_check": _kg_kcore_check,
        # weakly-connected components of the entity graph (SQL-exact vs a
        # recursive-CTE transitive closure, like docs_dup_clusters)
        "kg_components": _kg_components,
    }

    from nlp_series_relation_extraction_ray.pipelines import relational as rel
    from nlp_series_relation_extraction_ray.stages import (
        dedup as dd,
        similarity as sim,
        textstats as ts,
    )

    q.update(
        {
            # relational operators (aggregate / broadcast join / shuffle
            # join / sort / limit)
            "q1_pricing_summary": rel.q1_pricing_summary,
            "q3_top_orders": rel.q3_top_orders,
            "suppliers_per_region": rel.suppliers_per_region,
            "events_user_stats": rel.events_user_stats,
            "events_sessionize": rel.events_sessionize,
            "events_sessionize_salted": rel.events_sessionize_salted,
            "events_prev_lag": rel.events_prev_lag,
            # two-stream as-of join (view -> purchase last-touch attribution)
            "events_attribution": rel.events_attribution,
            # sessionized funnel conversion (view -> later purchase/session)
            "events_funnel": rel.events_funnel,
            # cohort retention triangle (first-activity cohort × day offset)
            "events_retention": rel.events_retention,
            # fixed tumbling-window aggregate (windowed streaming semantics)
            "events_window_counts": rel.events_window_counts,
            # EXISTS semi-join (orders with a returned lineitem)
            "orders_priority_exists": rel.orders_priority_exists,
            # NOT-EXISTS anti-join (customers with no urgent order)
            "custs_no_urgent_order": rel.custs_no_urgent_order,
            # argmin join (cheapest supplier per part, decomposable reduce)
            "part_cheapest_supplier": rel.part_cheapest_supplier,
            # hopping/sliding windows (map-side explode to 4 windows/event)
            "events_hopping_counts": rel.events_hopping_counts,
            # exact distributed COUNT(DISTINCT) via pair-dedup shuffle
            "events_distinct_users": rel.events_distinct_users,
            # full TPC-H Q5 shape: 6-table multi-way join, two shuffles
            "q5_local_supplier_revenue": rel.q5_local_supplier_revenue,
            # Q10 shape: top-k ranking join with late name materialization
            "q10_returned_revenue": rel.q10_returned_revenue,
            # exact per-type order statistics via distribution reduce
            "events_type_quantiles": rel.events_type_quantiles,
            # Bloom-pruned EXISTS (exact result; bounded broadcast bitmap)
            "orders_priority_exists_bloom": rel.orders_priority_exists_bloom,
            # inverted index: bounded-df posting lists
            "docs_posting_lists": rel.docs_posting_lists,
            # ROLLUP: three grouping levels in one shuffle
            "docs_lang_source_rollup": rel.docs_lang_source_rollup,
            # CUBE: all four grouping levels, still one shuffle
            "docs_lang_source_cube": rel.docs_lang_source_cube,
            "docs_top_tokens": rel.docs_top_tokens,
            "docs_top2_per_lang": rel.docs_top2_per_lang,
            # tf-idf term ranking: broadcast corpus df + row-local rank
            "docs_tfidf_terms": rel.docs_tfidf_terms,
            "events_value_median": rel.events_value_median,
            "parts_brand_stats": rel.parts_brand_stats,
            "docs_train_test_split": lambda sf: ts.train_test_split(_docs(sf)),
            # dedup family
            "docs_exact_dedup": lambda sf: dd.exact_dedup(_docs(sf)),
            "docs_near_dup_pairs": _near_dup_pairs,
            "docs_ngram_jaccard":
                lambda sf: dd.ngram_jaccard_pairs(_docs(sf)),
            # connected components over the exact pair graph: the
            # keep-one-per-cluster dedup decision, SQL-verified against a
            # recursive-CTE transitive closure
            "docs_dup_clusters": _dup_clusters,
            # ...and the APPLY step: one representative + member count per
            # cluster (shares the materialized clusters checkpoint)
            "docs_dedup_keep": lambda sf: dd.dedup_keep(_dup_clusters(sf)),
            # LSH-pair-graph clustering (the MinHash dedup decision chain)
            "docs_minhash_clusters": _minhash_clusters,
            # flagship prep composition: dedup -> quality -> langid -> split
            "docs_clean_corpus": _clean_corpus,
            "docs_simhash": lambda sf: dd.simhash_table(_docs(sf)),
            "docs_simhash_near_dup": _simhash_pairs,
            # clustering over the SimHash band-LSH pair graph (same
            # min-label propagation as the MinHash/exact chains)
            "docs_simhash_clusters": lambda sf: dd.dup_clusters(
                _docs(sf), _simhash_pairs(sf)
            ),
            "emb_dup_pairs": _emb_dups,
            # GPT-3-style eval-set decontamination: n-gram collision vs a
            # broadcast benchmark n-gram set (benchmark = doc_id % 97 == 0)
            "docs_decontaminate": lambda sf: dd.decontaminate(_docs(sf)),
            # text analysis
            "docs_token_stats": lambda sf: ts.token_stats(_docs(sf)),
            # Gopher-style duplicate-n-gram repetition signals
            "docs_repetition": lambda sf: ts.repetition_stats(_docs(sf)),
            "docs_quality": lambda sf: ts.quality_stats(_docs(sf)),
            "docs_langid": lambda sf: ts.langid(_docs(sf)),
            "docs_fingerprints": lambda sf: ts.fingerprints(_docs(sf)),
            # PII redaction over deterministically-planted emails/IPv4s
            "docs_pii_redact":
                lambda sf: ts.pii_redact(ts.plant_pii(_docs(sf))),
            # fixed-size token chunking (RAG / training sequence prep)
            "docs_chunks": lambda sf: ts.chunk_documents(_docs(sf)),
            # deterministic per-language stratified sampling
            "docs_stratified_sample":
                lambda sf: ts.stratified_sample(_docs(sf)),
            # bottom-k hash sampling (distributed reservoir stand-in)
            "docs_bottomk_sample": lambda sf: ts.bottomk_sample(_docs(sf)),
            # substring-level dup pairs (Lee et al. 2022 flavor): sampled
            # char-gram fingerprints over planted shared boilerplate
            "docs_substring_dup": lambda sf: dd.substring_dup_pairs(
                dd.plant_boilerplate(_docs(sf))
            ),
            # similarity search
            "emb_knn_bruteforce": lambda sf: sim.knn_bruteforce(
                _embs(sf), queries=_query_matrix(sf)
            ),
            "emb_knn_ivf": lambda sf: sim.knn_ivf(
                _embs(sf), queries=_query_matrix(sf)
            ),
            "emb_knn_ivf_partitioned": _knn_ivf_partitioned,
            # embedding-space k-means clustering stats (broadcast centroids
            # + streaming argmax assignment; rows-only, numpy-pinned)
            "emb_kmeans_clusters": lambda sf: sim.kmeans_cluster_stats(
                _embs(sf)
            ),
            # multimodal plumbing (stubbed decode kernels)
            "multimodal_image_decode": _media_decode,
            "multimodal_audio_features": _media_audio,
            # frame sampling over opaque video payloads (flat_map shape,
            # payload-sized batches; decode kernel stubbed, plumbing real)
            "multimodal_video_frames": _media_video,
            # the DuIE-style eval gate itself, as a queryable result
            "eval_extraction_pr": _eval_pr,
            # ...and the LEARNED-path quality gate (trained heads vs gold,
            # same comparator) as a boolean-verdict table
            "eval_extraction_pr_trained": _eval_pr_trained,
        }
    )

    from nlp_series_relation_extraction_ray.functions import sketches as sk

    q.update(
        {
            # mergeable constant-memory sketches (scale path for the exact
            # distinct-count / heavy-hitter operators; bounds pinned by
            # test_sketches.py)
            "events_user_hll": sk.events_user_hll,
            "docs_top_tokens_mg": sk.docs_top_tokens_mg,
            # histogram-quantile sketch: the constant-shuffle counterpart
            # of the exact events_type_quantiles distribution reduce
            "events_value_quantiles_hist": sk.events_value_quantiles_hist,
            # boolean-verdict accuracy checks: the sketch's published error
            # bound as a decidable predicate — the SQL oracle emits the
            # exact values + literal TRUE, so a hash-exact match IS the
            # bound check (driver-verified, not rows-only)
            "events_user_hll_check": sk.events_user_hll_check,
            "docs_top_tokens_mg_check": sk.docs_top_tokens_mg_check,
            "events_value_quantiles_hist_check":
                sk.events_value_quantiles_hist_check,
        }
    )

    q.update(
        {
            # HAVING-filtered fact⋈fact join + top-k late materialization
            "q18_large_orders": rel.q18_large_orders,
            # cumulative per-user window (SUM OVER ... UNBOUNDED PRECEDING)
            "events_running_total": rel.events_running_total,
            # boolean AND retrieval (vectorized map-side scan)
            "docs_search_and": rel.docs_search_and,
            # percentile-cutoff quality filter (two-pass, exact p25)
            "docs_quality_filter": rel.docs_quality_filter,
            # KG edge enrichment: two shuffle joins against the node table
            "kg_edges_named": _kg_edges_named,
            # SemDeDup-flavor semantic dedup over embedding clusters
            # (rows-only: k-means + float cosine; planted-dup pytest)
            "emb_semantic_dedup": lambda sf: sim.semantic_dedup_keep(
                _embs(sf)
            ),
            # correlated scalar subquery, decorrelated to agg+broadcast
            "parts_above_brand_avg": rel.parts_above_brand_avg,
            # conditional aggregation / PIVOT (map-side crosstab partials)
            "events_user_type_pivot": rel.events_user_type_pivot,
            # grouped collect (string_agg) over a broadcast dimension join
            "region_nations_list": rel.region_nations_list,
            # image resize actor stage (rows-only: stubbed kernel,
            # real plumbing — same contract as image decode)
            "multimodal_image_resize": _media_resize,
            # approximate-operator accuracy gates (boolean-verdict, same
            # pattern as the sketch *_check queries): LSH high-similarity
            # recall + in-bucket precision; IVF per-query recall@k
            "docs_near_dup_check": lambda sf: dd.near_dup_check(
                _docs(sf), pairs_df=_near_dup_pairs(sf)
            ),
            "emb_ivf_recall_check": lambda sf: sim.ivf_recall_check(
                _embs(sf)
            ),
            # RANGE-frame (time-offset) moving window, peers included
            "events_value_ma_1h": rel.events_value_ma_1h,
            # predicted-vs-labeled confusion matrix (eval aggregate)
            "docs_langid_confusion": lambda sf: ts.langid_confusion(
                _docs(sf)
            ),
            # flagship prep chain v2: clean_corpus + decontaminate +
            # PII redact + fixed-size chunking, one verified composition
            "docs_training_corpus": _training_corpus,
            # hyperplane multi-table LSH ANN (second index family next to
            # IVF; rows-only — see the regime note in its docstring, the
            # planted-cluster pytest pins recall)
            "emb_knn_lsh": lambda sf: sim.knn_lsh(_embs(sf)),
            # exact edit-distance fuzzy near-dup over distinct-text reps
            "docs_edit_dist_pairs": lambda sf: dd.edit_dist_pairs(
                _docs(sf)
            ),
            # RANK() with ties (gap ranking; output size data-dependent)
            "parts_price_rank": rel.parts_price_rank,
        }
    )

    q.update(
        {
            # round 5: exact variance/stddev via integer moments reduce
            "events_type_stats_var": rel.events_type_stats_var,
            # EXCEPT / INTERSECT set operators (shared per-user flag kernel)
            "events_hivalue_except_users": rel.events_hivalue_except_users,
            "events_hivalue_intersect_users":
                rel.events_hivalue_intersect_users,
            # broadcast RANGE join (interval dim table, searchsorted probe)
            "lineitem_discount_bands": rel.lineitem_discount_bands,
            # NTILE window function (exact tile-size rule, total order key)
            "events_user_ntile": rel.events_user_ntile,
            # URL/domain extraction + per-domain rollup (crawl accounting)
            "docs_url_domains": lambda sf: ts.url_domain_stats(
                ts.plant_urls(_docs(sf))
            ),
            # rare-token quality signal (inverted broadcast: the COMMON
            # set is the scale-free side; planted df-controlled tokens)
            "docs_rare_token_stats": lambda sf: ts.rare_token_stats(
                ts.plant_rare_tokens(_docs(sf)), _n_convs(sf)
            ),
            # MODE aggregate with deterministic tie-break (argmax reduce)
            "custs_priority_mode": rel.custs_priority_mode,
            # relational DIVISION (division-by-counting, broadcast divisor)
            "events_full_coverage_users": rel.events_full_coverage_users,
        }
    )
    return q


def _clean_corpus_sql() -> str:
    from nlp_series_relation_extraction_ray.pipelines.dataprep import (
        clean_corpus_sql,
    )

    return clean_corpus_sql()


def _training_corpus(sf_dir: str):
    from nlp_series_relation_extraction_ray.pipelines.dataprep import (
        training_corpus,
    )

    return training_corpus(sf_dir, clusters_ds=_dup_clusters(sf_dir))


def _training_corpus_sql() -> str:
    from nlp_series_relation_extraction_ray.pipelines.dataprep import (
        training_corpus_sql,
    )

    return training_corpus_sql()


def oracle_sql() -> dict[str, str]:
    from nlp_series_relation_extraction_ray.functions import sketches as sk
    from nlp_series_relation_extraction_ray.pipelines import relational as rel
    from nlp_series_relation_extraction_ray.sources import fixture_sql as fsql
    from nlp_series_relation_extraction_ray.stages import (
        dedup as dd,
        similarity as sim,
        textstats as ts,
    )

    gold = fsql.gold_triples_sql()
    return {
        "fixture_gold_triples": gold,
        "extract_triples_baseline": gold,
        "extract_triples_mpn": gold,
        "extract_triples_mhs": gold,
        "extract_triples_biaffine": gold,
        "extract_triples_baseline_wordpiece": gold,
        "extract_complex_slots": fsql.gold_slots_sql(),
        "transcripts_reconstruct": fsql.reconstruct_sql(),
        "kg_nodes": fsql.kg_nodes_sql(),
        "kg_edges": fsql.kg_edges_sql(),
        "kg_node_degrees": f"""WITH edges AS ({fsql.kg_edges_sql()}),
o AS (SELECT src_id AS entity_id, COUNT(*) AS out_degree,
        CAST(SUM(weight) AS BIGINT) AS out_weight FROM edges GROUP BY src_id),
i AS (SELECT dst_id AS entity_id, COUNT(*) AS in_degree,
        CAST(SUM(weight) AS BIGINT) AS in_weight FROM edges GROUP BY dst_id)
SELECT COALESCE(o.entity_id, i.entity_id) AS entity_id,
  CAST(COALESCE(out_degree, 0) AS BIGINT) AS out_degree,
  CAST(COALESCE(out_weight, 0) AS BIGINT) AS out_weight,
  CAST(COALESCE(in_degree, 0) AS BIGINT) AS in_degree,
  CAST(COALESCE(in_weight, 0) AS BIGINT) AS in_weight
FROM o FULL OUTER JOIN i ON o.entity_id = i.entity_id""",
        "kg_triangles": f"""WITH edges AS ({fsql.kg_edges_sql()}),
und AS (SELECT DISTINCT LEAST(src_id, dst_id) AS u,
               GREATEST(src_id, dst_id) AS v
        FROM edges WHERE src_id <> dst_id),
tri AS (SELECT e1.u AS a, e1.v AS b, e2.v AS c
        FROM und e1 JOIN und e2 ON e2.u = e1.v
        JOIN und e3 ON e3.u = e1.u AND e3.v = e2.v)
SELECT node, COUNT(*) AS n_triangles FROM (
  SELECT a AS node FROM tri
  UNION ALL SELECT b FROM tri
  UNION ALL SELECT c FROM tri
) GROUP BY node""",
        "kg_components": f"""WITH RECURSIVE e0 AS ({fsql.kg_edges_sql()}),
p AS (SELECT DISTINCT LEAST(src_id, dst_id) AS u,
             GREATEST(src_id, dst_id) AS v FROM e0),
e AS (SELECT u, v FROM p UNION SELECT v, u FROM p),
r(u, v) AS (
  SELECT u, u FROM (SELECT DISTINCT u FROM e)
  UNION
  SELECT e.u, r.v FROM e JOIN r ON e.v = r.u
)
SELECT u AS entity_id, MIN(v) AS component_id FROM r GROUP BY u""",
        # pagerank fixed-point gate: oracle = edge-endpoint node universe +
        # literal TRUE verdicts (hash-exact match IS the |Δ|≤ε check)
        "kg_pagerank_check": f"""WITH edges AS ({fsql.kg_edges_sql()}),
n AS (SELECT src_id AS node FROM edges
      UNION SELECT dst_id AS node FROM edges)
SELECT node, TRUE AS within_tol, TRUE AS sum_ok FROM n""",
        # k-core gate: node universe of the SIMPLE graph (self-loop-only
        # nodes excluded) + literal TRUE verdicts
        "kg_kcore_check": f"""WITH edges AS ({fsql.kg_edges_sql()}),
e AS (SELECT src_id, dst_id FROM edges WHERE src_id <> dst_id),
n AS (SELECT src_id AS node FROM e UNION SELECT dst_id AS node FROM e)
SELECT node, TRUE AS core_match, TRUE AS count_ok FROM n""",
        "q1_pricing_summary": rel.Q1_SQL,
        "q3_top_orders": rel.Q3_SQL,
        "suppliers_per_region": rel.Q5_SQL,
        "events_user_stats": rel.EVENTS_SQL,
        "events_sessionize": rel.SESSIONIZE_SQL,
        # the salted two-phase variant must be indistinguishable in output
        # from the single-phase one — same oracle
        "events_sessionize_salted": rel.SESSIONIZE_SQL,
        "events_prev_lag": rel.PREV_LAG_SQL,
        "events_attribution": rel.ATTRIBUTION_SQL,
        "events_funnel": rel.FUNNEL_SQL,
        "events_retention": rel.RETENTION_SQL,
        "events_window_counts": rel.WINDOW_COUNTS_SQL,
        "orders_priority_exists": rel.PRIORITY_EXISTS_SQL,
        "custs_no_urgent_order": rel.NO_URGENT_SQL,
        "part_cheapest_supplier": rel.CHEAPEST_SUPPLIER_SQL,
        "events_hopping_counts": rel.HOPPING_COUNTS_SQL,
        "events_distinct_users": rel.DISTINCT_USERS_SQL,
        "q5_local_supplier_revenue": rel.Q5_FULL_SQL,
        "q10_returned_revenue": rel.Q10_SQL,
        "events_type_quantiles": rel.TYPE_QUANTILES_SQL,
        "orders_priority_exists_bloom": rel.BLOOM_EXISTS_SQL,
        "docs_posting_lists": rel.POSTING_LISTS_SQL,
        "docs_lang_source_rollup": rel.ROLLUP_SQL,
        "docs_lang_source_cube": rel.CUBE_SQL,
        "docs_repetition": ts.REPETITION_SQL,
        "docs_top_tokens": rel.TOP_TOKENS_SQL,
        "docs_top2_per_lang": rel.TOP2_PER_LANG_SQL,
        "docs_tfidf_terms": rel.TFIDF_TERMS_SQL,
        "events_value_median": rel.VALUE_MEDIAN_SQL,
        "parts_brand_stats": rel.PARTS_SQL,
        "docs_train_test_split": ts.train_test_split_sql(),
        "docs_exact_dedup": dd.EXACT_DEDUP_SQL,
        "docs_ngram_jaccard": dd.NGRAM_JACCARD_SQL,
        "docs_decontaminate": dd.DECONTAMINATE_SQL,
        "docs_pii_redact": ts.PII_REDACT_SQL,
        "docs_chunks": ts.CHUNK_SQL,
        "docs_stratified_sample": ts.STRATIFIED_SAMPLE_SQL,
        "docs_bottomk_sample": ts.BOTTOMK_SAMPLE_SQL,
        "docs_substring_dup": dd.SUBSTRING_DUP_SQL,
        "docs_dup_clusters": dd.dup_clusters_sql(dd.NGRAM_JACCARD_SQL),
        "docs_clean_corpus": _clean_corpus_sql(),
        "docs_dedup_keep": dd.dedup_keep_sql(dd.NGRAM_JACCARD_SQL),
        "docs_token_stats": ts.TOKEN_STATS_SQL,
        "docs_quality": ts.QUALITY_SQL,
        "docs_langid": ts.LANGID_SQL,
        "emb_knn_bruteforce": sim.knn_sql(),
        "eval_extraction_pr": fsql.eval_pr_sql(EVAL_HEADS),
        # learned-path quality gate: oracle = head list + literal TRUE
        "eval_extraction_pr_trained": """SELECT head,
  TRUE AS pr_ge_95, TRUE AS rc_ge_95
FROM (VALUES ('baseline-trained'), ('mpn-trained'), ('mhs-trained'),
             ('biaffine-trained')) AS t(head)""",
        # sketch-accuracy boolean verdicts: oracle = exact values + TRUE
        "events_user_hll_check": sk.HLL_CHECK_SQL,
        "docs_top_tokens_mg_check": sk.MG_CHECK_SQL,
        "events_value_quantiles_hist_check": sk.HIST_CHECK_SQL,
        "q18_large_orders": rel.Q18_SQL,
        "events_running_total": rel.RUNNING_TOTAL_SQL,
        "docs_search_and": rel.SEARCH_AND_SQL,
        "docs_quality_filter": rel.QUALITY_FILTER_SQL,
        "parts_above_brand_avg": rel.ABOVE_BRAND_AVG_SQL,
        "events_user_type_pivot": rel.USER_TYPE_PIVOT_SQL,
        "region_nations_list": rel.REGION_NATIONS_SQL,
        "docs_near_dup_check": dd.NEAR_DUP_CHECK_SQL,
        "docs_edit_dist_pairs": dd.EDIT_DIST_SQL,
        "parts_price_rank": rel.PRICE_RANK_SQL,
        "events_type_stats_var": rel.TYPE_STATS_VAR_SQL,
        "events_hivalue_except_users": rel.HIVALUE_EXCEPT_SQL,
        "events_hivalue_intersect_users": rel.HIVALUE_INTERSECT_SQL,
        "lineitem_discount_bands": rel.DISCOUNT_BANDS_SQL,
        "events_user_ntile": rel.USER_NTILE_SQL,
        "docs_url_domains": ts.URL_DOMAINS_SQL,
        "docs_rare_token_stats": ts.RARE_TOKEN_STATS_SQL,
        "custs_priority_mode": rel.PRIORITY_MODE_SQL,
        "events_full_coverage_users": rel.FULL_COVERAGE_SQL,
        "emb_ivf_recall_check": sim.IVF_RECALL_CHECK_SQL,
        "events_value_ma_1h": rel.VALUE_MA_1H_SQL,
        "docs_langid_confusion": ts.LANGID_CONFUSION_SQL,
        "docs_training_corpus": _training_corpus_sql(),
        "kg_edges_named": f"""WITH edges AS ({fsql.kg_edges_sql()}),
nodes AS ({fsql.kg_nodes_sql()})
SELECT e.src_id, ns.canonical_name AS src_name,
  e.dst_id, nd.canonical_name AS dst_name,
  e.predicate, e.qualifiers_json, e.weight
FROM edges e
JOIN nodes ns ON ns.entity_id = e.src_id
JOIN nodes nd ON nd.entity_id = e.dst_id""",
        # docs_near_dup_pairs / docs_simhash / docs_fingerprints /
        # emb_dup_pairs / emb_knn_ivf / multimodal_image_decode are
        # intentionally rows-only (hash-family and approximate operators are
        # not faithfully SQL-expressible); their semantics are pinned by
        # pytest goldens instead.
    }
