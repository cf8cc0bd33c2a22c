"""Round-3 operators: kg_components (both plans), fixed-size chunking,
stratified sampling, substring-level dup pairs."""

import pandas as pd
import pyarrow as pa
import pytest


def _edges_ds(pairs):
    import ray

    return ray.data.from_pandas(
        pd.DataFrame(pairs, columns=["src_id", "dst_id"])
    )


EDGES = [
    # chain a-b-c-d (multi-hop), separate pair x-y, self-loop z-z,
    # reversed duplicate edge d->c
    ("ent_b", "ent_a"), ("ent_b", "ent_c"), ("ent_c", "ent_d"),
    ("ent_d", "ent_c"), ("ent_x", "ent_y"), ("ent_z", "ent_z"),
]

EXPECTED = {
    "ent_a": "ent_a", "ent_b": "ent_a", "ent_c": "ent_a", "ent_d": "ent_a",
    "ent_x": "ent_x", "ent_y": "ent_x", "ent_z": "ent_z",
}


def test_kg_components_driver_local(ray_session):
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_components

    got = kg_components(_edges_ds(EDGES)).to_pandas()
    assert dict(zip(got["entity_id"], got["component_id"])) == EXPECTED


def test_kg_components_distributed_matches_local(ray_session, monkeypatch):
    """DRIVER_MAX_PAIRS=0 forces the string-label propagation plan; it must
    be value-identical to the union-find fast path (incl. the multi-hop
    chain, which needs >1 propagation round)."""
    from nlp_series_relation_extraction_ray.functions import graphs
    from nlp_series_relation_extraction_ray.pipelines.kg import kg_components

    monkeypatch.setattr(graphs, "DRIVER_MAX_PAIRS", 0)
    dist = kg_components(_edges_ds(EDGES)).to_pandas()
    assert dict(zip(dist["entity_id"], dist["component_id"])) == EXPECTED


def test_chunk_documents_shapes(ray_session):
    import ray

    from nlp_series_relation_extraction_ray.stages.textstats import (
        chunk_documents,
    )

    docs = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": [1, 2, 3],
                # 5 tokens / exactly 3 tokens (one full chunk) / empty text
                "text": ["a b c d e", "x y z", ""],
            }
        )
    )
    got = (
        chunk_documents(docs, chunk_tokens=3)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    assert got["chunk_text"].tolist() == ["a b c", "d e", "x y z", ""]
    assert got["n_tokens"].tolist() == [3, 2, 3, 1]  # ''.split(' ') == ['']


def test_stratified_sample_rates_and_stability(ray_session):
    import ray

    from nlp_series_relation_extraction_ray.stages.textstats import (
        stratified_sample,
    )

    df = pd.DataFrame(
        {
            "doc_id": range(2000),
            "lang": ["en" if i % 2 == 0 else "zh" for i in range(2000)],
            "n_chars": [10] * 2000,
        }
    )
    got = stratified_sample(ray.data.from_pandas(df)).to_pandas()
    en = got[got["lang"] == "en"]
    zh = got[got["lang"] == "zh"]
    assert len(zh) == 1000  # unlisted stratum keeps everything
    assert 230 <= len(en) <= 370  # ~30% of 1000

    # growth stability: membership of existing rows never changes when the
    # corpus grows (hash of doc_id, not position)
    bigger = pd.concat(
        [df, pd.DataFrame({"doc_id": range(2000, 3000), "lang": "en",
                           "n_chars": 10})],
        ignore_index=True,
    )
    got2 = stratified_sample(ray.data.from_pandas(bigger)).to_pandas()
    assert set(got["doc_id"]) == set(got2[got2["doc_id"] < 2000]["doc_id"])


def test_substring_dup_recovers_planted_blocks(ray_session):
    """Docs 13k and 13k+1 share a planted boilerplate block; the sampled
    char-gram detector must recover (nearly all of) those pairs, while two
    docs with completely disjoint text never pair."""
    import ray

    from nlp_series_relation_extraction_ray.stages.dedup import (
        plant_boilerplate,
        substring_dup_pairs,
    )

    n = 260  # 20 planted pair groups
    docs = ray.data.from_pandas(
        pd.DataFrame(
            {
                "doc_id": range(n),
                # per-doc unique filler so natural cross-doc sharing is zero
                "text": [
                    " ".join(f"tok{i}w{j}" for j in range(40))
                    for i in range(n)
                ],
            }
        )
    )
    got = substring_dup_pairs(plant_boilerplate(docs)).to_pandas()
    planted = {(13 * k, 13 * k + 1) for k in range(n // 13)}
    found = set(zip(got["doc_a"], got["doc_b"]))
    assert found <= planted  # no false pairs on disjoint filler
    # content-defined 1/16 sampling over ~45 in-block grams: a pair is
    # missed only if none of its grams sample (p ≈ 0.95 per pair)
    assert len(found) >= len(planted) - 4
    assert (got["n_shared"] >= 1).all()


def test_substring_dup_df_cap_drops_boilerplate_floods(ray_session):
    """A gram shared by more docs than max_df is boilerplate noise and must
    not explode the pair cartesian — the group is dropped entirely."""
    import ray

    from nlp_series_relation_extraction_ray.stages.dedup import (
        substring_dup_pairs,
    )

    shared = "Z" * 60  # one 60-char run: every 40-gram identical
    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(100), "text": [shared] * 100})
    )
    got = substring_dup_pairs(docs, max_df=8).to_pandas()
    assert len(got) == 0


def test_bottomk_sample_matches_global_sort(ray_session):
    """Partial bottom-k + single-block final == global hash order head(k),
    regardless of how rows are batched."""
    import hashlib

    import ray

    from nlp_series_relation_extraction_ray.stages.textstats import (
        bottomk_sample,
    )

    df = pd.DataFrame(
        {"doc_id": range(700), "lang": ["en"] * 700, "n_chars": 1}
    )
    got = bottomk_sample(
        ray.data.from_pandas(df).repartition(9), k=25
    ).to_pandas()
    expect = sorted(
        range(700), key=lambda d: hashlib.md5(str(d).encode()).hexdigest()
    )[:25]
    assert got["doc_id"].tolist() == expect
    assert got["sample_rank"].tolist() == list(range(1, 26))


def test_kmeans_cluster_stats_matches_numpy_reference(ray_session):
    """Distributed assignment partials == a driver-local numpy pass with
    the same deterministic centroids."""
    import hashlib

    import numpy as np
    import ray

    from nlp_series_relation_extraction_ray.stages.similarity import (
        _normalize,
        kmeans_centroids,
        kmeans_cluster_stats,
    )

    rng = np.random.RandomState(11)
    mat = rng.randn(600, 16)
    emb = ray.data.from_pandas(
        pd.DataFrame(
            {"vec_id": range(600), "embedding": [v.tolist() for v in mat]}
        )
    ).repartition(5)
    got = (
        kmeans_cluster_stats(emb, n_clusters=8, train_sample=600)
        .to_pandas()
        .sort_values("cluster")
        .reset_index(drop=True)
    )

    vecs = _normalize(mat.astype(np.float64))
    # train sample = whole set here, but the operator samples in
    # bottom-k-of-md5(vec_id) order (uniform deterministic sample) — the
    # reference must stack rows in that same order for centroids to match
    order = sorted(range(600),
                   key=lambda v: hashlib.md5(str(v).encode()).hexdigest())
    cents = kmeans_centroids(_normalize(
        np.stack([np.asarray(mat[i], dtype=np.float64) for i in order])
    ), 8)
    sims = vecs @ cents.T
    assign = sims.argmax(axis=1)
    milli = np.floor(sims[np.arange(len(vecs)), assign] * 1000 + 0.5)
    for c in got["cluster"]:
        mask = assign == c
        row = got[got["cluster"] == c].iloc[0]
        assert row["n_vecs"] == int(mask.sum())
        assert row["sum_sim_milli"] == int(milli[mask].sum())
    assert got["n_vecs"].sum() == 600
