"""Training-data operators: dedup family, similarity search, text analysis,
multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs(ray_session):
    import ray

    return ray.data.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def embs(ray_session):
    import ray

    return ray.data.read_parquet(f"{SF}/embeddings.parquet")


def test_exact_dedup_counts(docs):
    from nlp_series_relation_extraction_ray.stages.dedup import exact_dedup

    df = exact_dedup(docs).to_pandas()
    assert df["n_copies"].sum() == 500
    assert df["keep_doc_id"].is_unique


def test_near_dup_pairs_find_planted_dups(docs):
    """Docs whose text ends in ' dup' are near-copies of some base doc; the
    MinHash+LSH pipeline must surface high-Jaccard pairs involving them."""
    from nlp_series_relation_extraction_ray.stages.dedup import (
        near_dup_pairs_distributed,
    )

    pairs = near_dup_pairs_distributed(docs, threshold=0.7).to_pandas()
    assert len(pairs) > 0
    assert (pairs["jaccard_pct"] >= 70).all()
    assert (pairs["doc_a"] < pairs["doc_b"]).all()
    # every reported pair must be a genuine near-dup (verified Jaccard),
    # and the planted ' dup' docs should be involved in at least one pair
    texts = docs.to_pandas().set_index("doc_id")["text"]
    dup_ids = set(texts[texts.str.endswith("dup")].index)
    involved = set(pairs["doc_a"]) | set(pairs["doc_b"])
    assert dup_ids & involved


def test_minhash_estimates_jaccard():
    from nlp_series_relation_extraction_ray.stages.dedup import (
        jaccard,
        minhash_signature,
        word_shingles,
    )

    a = word_shingles("the quick brown fox jumps over the lazy dog " * 5)
    b = word_shingles("the quick brown fox jumps over the lazy cat " * 5)
    true_j = jaccard(a, b)
    est = (minhash_signature(a) == minhash_signature(b)).mean()
    assert abs(est - true_j) < 0.25


def test_simhash_hamming(docs):
    from nlp_series_relation_extraction_ray.stages.dedup import (
        hamming64,
        simhash64,
        simhash_table,
    )

    t = simhash_table(docs).to_pandas()
    assert len(t) == 500 and t["simhash_hex"].str.len().eq(16).all()
    # near-identical texts -> small hamming distance; unrelated -> large
    base = "spark merge sort filter join " * 10
    close = hamming64(simhash64(base), simhash64(base + "extra"))
    far = hamming64(
        simhash64(base),
        simhash64("completely different words entirely unrelated content"),
    )
    assert close < far


def test_simhash_near_dup_pairs(docs):
    """Band-LSH over SimHash surfaces the planted ' dup' near-copies with
    small Hamming distance, verified exactly."""
    from nlp_series_relation_extraction_ray.stages.dedup import (
        hamming64,
        simhash64,
        simhash_near_dup_pairs,
    )

    pairs = simhash_near_dup_pairs(docs, max_hamming=8).to_pandas()
    assert len(pairs) > 0
    assert (pairs["hamming"] <= 8).all()
    assert (pairs["doc_a"] < pairs["doc_b"]).all()
    texts = docs.to_pandas().set_index("doc_id")["text"]
    # every reported pair's exact Hamming distance matches the fingerprint
    for row in pairs.head(20).itertuples(index=False):
        h = hamming64(simhash64(texts[row.doc_a]), simhash64(texts[row.doc_b]))
        assert h == row.hamming
    dup_ids = set(texts[texts.str.endswith("dup")].index)
    assert dup_ids & (set(pairs["doc_a"]) | set(pairs["doc_b"]))


def test_embedding_dup_pairs_planted(embs, ray_session):
    import ray

    from nlp_series_relation_extraction_ray.stages.dedup import (
        embedding_dup_pairs,
    )

    df = embs.to_pandas().head(50)
    vecs = [np.asarray(v, dtype=np.float32) for v in df["embedding"]]
    ids = list(df["vec_id"])
    # plant: ids 9000+i duplicates of i (i < 5)
    for i in range(5):
        ids.append(9000 + i)
        vecs.append(vecs[i] + 0.0005)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float32())
                ),
            }
        )
    )
    pairs = embedding_dup_pairs(ds, threshold=0.99).to_pandas()
    found = {(a, b) for a, b in zip(pairs["vec_a"], pairs["vec_b"])}
    assert {(i, 9000 + i) for i in range(5)} <= found


def test_knn_ivf_recall(embs):
    from nlp_series_relation_extraction_ray.stages.similarity import (
        knn_bruteforce,
        knn_ivf,
    )

    bf = knn_bruteforce(embs, n_queries=5, k=10).to_pandas()
    ivf = knn_ivf(embs, n_queries=5, k=10, n_clusters=8, n_probe=6).to_pandas()
    recalls = []
    for q in range(5):
        gt = set(bf[bf["query_id"] == q]["neighbor_id"])
        got = set(ivf[ivf["query_id"] == q]["neighbor_id"])
        recalls.append(len(gt & got) / len(gt))
    assert np.mean(recalls) >= 0.8


def test_ivf_index_dir_keyed_on_similarity_source(tmp_path, monkeypatch):
    """A corpus's on-disk IVF index is reused while
    ``stages/similarity.py`` is unchanged, and a changed source gives a
    fresh directory that is built anew (the build is faked; the corpus
    path is this test's own, so no real index directory is touched)."""
    import os
    import shutil
    from pathlib import Path

    import __ray_entry__ as entry
    from nlp_series_relation_extraction_ray.stages import similarity

    built = []

    def fake_build(embs, index_dir):
        os.makedirs(index_dir)
        np.save(os.path.join(index_dir, "centroids.npy"), np.zeros(1))
        built.append(index_dir)

    monkeypatch.setattr(similarity, "build_ivf_index", fake_build)
    monkeypatch.setattr(entry, "_embs", lambda sf_dir: None)
    sf_dir = str(tmp_path / "sf")
    source = Path(similarity.__file__).read_bytes()

    def index_dir(src: bytes) -> str:
        copy = tmp_path / "similarity.py"
        copy.write_bytes(src)
        monkeypatch.setattr(similarity, "__file__", str(copy))
        entry._SHARED_CACHE.pop(("ivf_index", sf_dir), None)
        return entry._ivf_index_dir(sf_dir)

    try:
        first = index_dir(source)
        assert index_dir(source) == first and built == [first]
        changed = index_dir(source + b"\n# changed\n")
        assert changed != first and built == [first, changed]
    finally:
        entry._SHARED_CACHE.pop(("ivf_index", sf_dir), None)
        for d in built:
            shutil.rmtree(d, ignore_errors=True)


def test_knn_ivf_partitioned_prunes_and_matches(embs, tmp_path):
    """The physically partitioned IVF index must (a) return exactly the
    in-memory IVF result for the same centroids and (b) open only the
    probed buckets' files at read time."""
    import glob

    from nlp_series_relation_extraction_ray.stages.similarity import (
        _probe_sets,
        build_ivf_index,
        knn_ivf,
        knn_ivf_partitioned,
        load_queries,
        probed_index_files,
    )

    idx = str(tmp_path / "ivf")
    build_ivf_index(embs, idx, n_clusters=8)
    got = (
        knn_ivf_partitioned(embs, idx, n_queries=5, k=10, n_probe=4)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    want = (
        knn_ivf(embs, n_queries=5, k=10, n_clusters=8, n_probe=4)
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)

    # pruning is real: the probed file set is a strict subset of the index
    import numpy as np_

    centroids = np_.load(f"{idx}/centroids.npy")
    q_mat, _ = load_queries(embs, 5)
    union = set().union(*_probe_sets(q_mat, centroids, 4))
    probed = probed_index_files(idx, union)
    all_files = glob.glob(f"{idx}/bucket_part=*/*.parquet")
    assert len(probed) < len(all_files)
    assert set(probed) <= set(all_files)


def test_langid_deterministic(docs):
    from nlp_series_relation_extraction_ray.stages.textstats import langid

    df = langid(docs).to_pandas()
    assert set(df["lang_pred"].unique()) <= {"en", "fr", "de", "es", "und"}
    assert len(df) == 500


def test_rolling_hash_properties():
    from nlp_series_relation_extraction_ray.stages.textstats import (
        rolling_hash,
    )

    assert rolling_hash("abc") != rolling_hash("acb")
    assert rolling_hash("same text") == rolling_hash("same text")


def test_multimodal_plumbing(ray_session):
    import ray

    from nlp_series_relation_extraction_ray.stages.multimodal import (
        FrameSampleStage,
        ImageDecodeStage,
        decode_media,
        synth_media_table,
    )

    media = ray.data.from_arrow(synth_media_table(30))
    out = decode_media(media, kind="image").to_pandas()
    assert len(out) == 30
    assert (out["width"] >= 64).all() and (out["height"] >= 64).all()
    assert out["features"].map(len).eq(8).all()
    # deterministic: same payload -> same decode
    stage = ImageDecodeStage(fake=True)
    t = synth_media_table(3)
    assert stage(t).equals(stage(t))
    # frame sampling flat-maps one row per sampled frame
    frames = FrameSampleStage(every_n=10)(synth_media_table(2, kind="video"))
    assert frames.num_rows >= 2 * 3
    assert set(frames.schema.names) == {"media_id", "frame_idx", "frame_sha"}
    # resize: fixed target dims, deterministic digest
    from nlp_series_relation_extraction_ray.stages.multimodal import (
        AudioFeatureStage,
        ImageResizeStage,
    )

    rs = ImageResizeStage(target=(224, 224))(synth_media_table(5))
    assert (pd.Series(rs["width"].to_pylist()) == 224).all()
    assert rs["resized_sha"].to_pylist() == ImageResizeStage(
        target=(224, 224))(synth_media_table(5))["resized_sha"].to_pylist()
    # audio features: bounded duration, fixed feature dim, actor-pool drive
    au = decode_media(
        ray.data.from_arrow(synth_media_table(20, kind="audio")),
        kind="audio",
    ).to_pandas()
    assert len(au) == 20
    assert au["duration_ms"].between(500, 10000).all()
    assert au["features"].map(len).eq(12).all()


def test_shuffle_join_basic(ray_session):
    import ray

    from nlp_series_relation_extraction_ray.functions.joins import (
        broadcast_join,
        shuffle_join,
    )

    left = ray.data.from_pandas(
        pd.DataFrame({"k": [1, 2, 2, 3], "lv": ["a", "b", "c", "d"]})
    )
    right = ray.data.from_pandas(
        pd.DataFrame({"k": [2, 3, 4], "rv": ["x", "y", "z"]})
    )
    out = shuffle_join(left, right, on="k").to_pandas().sort_values(
        ["k", "lv"]).reset_index(drop=True)
    assert list(out["k"]) == [2, 2, 3]
    assert list(out["rv"]) == ["x", "x", "y"]

    b = broadcast_join(
        left, pd.DataFrame({"k": [2, 3, 4], "rv": ["x", "y", "z"]}),
        left_on="k", right_on="k",
    ).to_pandas().sort_values(["k", "lv"]).reset_index(drop=True)
    assert list(b["rv"]) == ["x", "x", "y"]


def test_near_dup_distributed_matches_fast_path(docs):
    from nlp_series_relation_extraction_ray.stages.dedup import (
        near_dup_pairs_distributed,
        near_dup_pairs_driver_debug,
    )

    a = near_dup_pairs_driver_debug(docs).to_pandas().sort_values(
        ["doc_a", "doc_b"]).reset_index(drop=True)
    b = near_dup_pairs_distributed(docs).to_pandas().sort_values(
        ["doc_a", "doc_b"]).reset_index(drop=True)
    assert len(a) > 0
    assert a.equals(b)


def test_canonicalize_merges_alias_variants(ray_session):
    """Two alias surface forms of one KB entity collapse into a single node
    with merged aliases and summed mention counts through the full salted
    two-phase aggregate."""
    import json

    import ray

    from nlp_series_relation_extraction_ray.stages.canonicalize import (
        canonicalize_nodes,
    )
    from nlp_series_relation_extraction_ray.stages.linking import EntityLinker
    from nlp_series_relation_extraction_ray.sources.kb import build_alias_index

    linker = EntityLinker(alias_index=build_alias_index())
    surfaces = ["宏宇集团"] * 3 + ["宏宇"] * 2  # canonical + stripped alias
    rows = {
        "surface": surfaces,
        "mention_type": ["企业"] * 5,
        "conv_id": [f"conv-{i:06d}" for i in range(5)],
        "turn_idx": [0] * 5,
    }
    batch = pa.table(
        {
            "surface": pa.array(rows["surface"], pa.string()),
            "mention_type": pa.array(rows["mention_type"], pa.string()),
            "conv_id": pa.array(rows["conv_id"], pa.string()),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
        }
    )
    linked = ray.data.from_arrow(linker(batch))
    nodes = canonicalize_nodes(linked).to_pandas()
    assert len(nodes) == 1
    node = nodes.iloc[0]
    assert node["entity_id"] == "E-org-000"
    assert node["mention_count"] == 5
    assert json.loads(node["aliases_json"]) == ["宏宇", "宏宇集团"]
    assert node["entity_type"] == "企业"


def test_ngram_jaccard_bounded_reducers_exact(ray_session):
    """A degenerate corpus (single lang, single length bucket) must still
    produce the exact all-pairs result while the sub-block salting splits
    the block across many bounded cells (no one-reducer quadratic)."""
    import ray

    from nlp_series_relation_extraction_ray.stages.dedup import (
        _word_ngrams,
        ngram_jaccard_pairs,
    )

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    texts = []
    for i in range(90):
        words = base.split()
        words[i % len(words)] = f"w{i % 7}"  # small deterministic edits
        texts.append(" ".join(words))
    df = pd.DataFrame(
        {
            "doc_id": np.arange(90, dtype=np.int64),
            "lang": "en",
            "text": texts,
            "n_chars": [len(base)] * 90,  # one shared length bucket
        }
    )
    docs_ds = ray.data.from_pandas(df)

    # brute-force all-pairs ground truth
    sets_ = [_word_ngrams(t, 3) for t in texts]
    want = []
    for a in range(90):
        for b in range(a + 1, 90):
            union = len(sets_[a] | sets_[b])
            pct = (100 * len(sets_[a] & sets_[b]) // union) if union else 100
            if pct >= 30:
                want.append((a, b, pct))
    want_df = pd.DataFrame(
        want, columns=["doc_a", "doc_b", "jaccard_pct"]
    ).astype("int64")

    for max_block in (8, 1000):  # salted (s=12 cells) and unsalted (s=1)
        got = (
            ngram_jaccard_pairs(docs_ds, max_block=max_block)
            .to_pandas()
            .sort_values(["doc_a", "doc_b"])
            .reset_index(drop=True)
            .astype("int64")
        )
        pd.testing.assert_frame_equal(
            got,
            want_df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True),
        )


def test_simhash_hot_band_capped(ray_session):
    """A flood of identical short docs (every band bucket degenerate) must
    not explode the candidate cartesian; a genuine near-dup pair outside the
    flood is still found."""
    import ray

    from nlp_series_relation_extraction_ray.stages.dedup import (
        hamming64,
        simhash64,
        simhash_near_dup_pairs,
    )

    base = " ".join(f"tok{i}" for i in range(60))
    variant = None
    for i in range(60):  # deterministic search for a hamming<=3 edit
        words = base.split()
        words[i] = f"alt{i}"
        cand = " ".join(words)
        if hamming64(simhash64(base), simhash64(cand)) <= 3:
            variant = cand
            break
    assert variant is not None

    texts = ["spam spam spam"] * 200 + [base, variant]
    df = pd.DataFrame(
        {"doc_id": np.arange(202, dtype=np.int64), "text": texts}
    )
    pairs = simhash_near_dup_pairs(
        ray.data.from_pandas(df), max_bucket=64
    ).to_pandas()
    # the flood's buckets (size 200 > max_bucket) are dropped entirely
    flood = set(range(200))
    assert not [
        1 for r in pairs.itertuples()
        if r.doc_a in flood and r.doc_b in flood
    ]
    # the planted pair survives in its own (non-degenerate) band buckets
    assert ((pairs["doc_a"] == 200) & (pairs["doc_b"] == 201)).any()


def test_payload_sized_batching(ray_session):
    """batch_size must derive from payload bytes, not row counts."""
    import ray

    from nlp_series_relation_extraction_ray.stages.multimodal import (
        payload_sized_batch,
        synth_media_table,
    )

    ds = ray.data.from_arrow(synth_media_table(50))
    small = payload_sized_batch(ds, target_batch_bytes=1 << 20)
    tiny = payload_sized_batch(ds, target_batch_bytes=400)
    assert small > tiny >= 1
    # a 4 MB target over ~160-byte fake payloads caps at max_batch
    assert payload_sized_batch(ds, target_batch_bytes=4 << 20) == 256

    # video flat_map path (the multimodal_video_frames driver query): the
    # per-payload frame count is a pure function of payload bytes, so the
    # row count is deterministic, and decode_media's default batch sizing
    # is payload-byte-derived for video exactly as for images
    import math

    from nlp_series_relation_extraction_ray.stages.multimodal import (
        FrameSampleStage,
        decode_media,
    )

    vids = synth_media_table(6, kind="video")
    a = FrameSampleStage(every_n=10)(vids)
    assert a.equals(FrameSampleStage(every_n=10)(vids))
    expected = sum(
        math.ceil((30 + len(p) % 90) / 10)
        for p in vids["payload"].to_pylist()
    )
    assert a.num_rows == expected
    vds = ray.data.from_arrow(vids)
    assert decode_media(vds, kind="video").count() == expected
    assert payload_sized_batch(vds, target_batch_bytes=400) >= 1


@pytest.mark.skipif(
    not pytest.importorskip("importlib").util.find_spec("PIL"),
    reason="PIL not installed (real image branch is exercised where it is)",
)
def test_multimodal_real_image_branch(ray_session):
    """Real-library branch: PIL decode + resize over genuine PNG payloads
    (runs wherever PIL exists; the container ships without it)."""
    import io

    import PIL.Image
    import ray

    from nlp_series_relation_extraction_ray.stages.multimodal import (
        decode_media,
    )

    payloads = []
    for i in range(6):
        img = PIL.Image.new("RGB", (32 + i, 24 + i), color=(i * 40, 10, 200))
        buf = io.BytesIO()
        img.save(buf, format="PNG")
        payloads.append(buf.getvalue())
    tbl = pa.table(
        {
            "media_id": pa.array(range(6), pa.int64()),
            "kind": pa.array(["image"] * 6),
            "payload": pa.array(payloads, pa.binary()),
            "meta_json": pa.array(["{}"] * 6),
        }
    )
    out = decode_media(
        ray.data.from_arrow(tbl), kind="image", fake=False
    ).to_pandas().sort_values("media_id")
    assert list(out["width"]) == [32 + i for i in range(6)]
    assert list(out["height"]) == [24 + i for i in range(6)]
    rs = decode_media(
        ray.data.from_arrow(tbl), kind="resize", fake=False
    ).to_pandas()
    assert (rs["width"] == 224).all() and rs["resized_sha"].is_unique


@pytest.mark.skipif(
    not pytest.importorskip("importlib").util.find_spec("soundfile"),
    reason="soundfile not installed (real audio branch runs where it is)",
)
def test_multimodal_real_audio_branch(ray_session):
    import io

    import ray
    import soundfile as sf

    from nlp_series_relation_extraction_ray.stages.multimodal import (
        decode_media,
    )

    payloads = []
    for i in range(4):
        t = np.linspace(0, 1, 8000, endpoint=False)
        wave = (0.1 * (i + 1)) * np.sin(2 * np.pi * 440 * t)
        buf = io.BytesIO()
        sf.write(buf, wave.astype(np.float32), 8000, format="WAV")
        payloads.append(buf.getvalue())
    tbl = pa.table(
        {
            "media_id": pa.array(range(4), pa.int64()),
            "kind": pa.array(["audio"] * 4),
            "payload": pa.array(payloads, pa.binary()),
            "meta_json": pa.array(["{}"] * 4),
        }
    )
    out = decode_media(
        ray.data.from_arrow(tbl), kind="audio", fake=False
    ).to_pandas().sort_values("media_id")
    assert (out["duration_ms"] == 1000).all()
    assert (out["n_samples"] == 8000).all()
    # louder waves -> larger RMS features
    rms = out["features"].map(lambda f: float(np.mean(f)))
    assert rms.is_monotonic_increasing


def test_dup_clusters_multihop_chain(ray_session):
    """Label propagation must traverse multi-hop chains: pairs
    (0,1)(1,2)(2,3)(7,9) -> components {0,1,2,3}, {7,9}, singletons else."""
    import ray

    from nlp_series_relation_extraction_ray.stages.dedup import dup_clusters

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(12, dtype=np.int64)})
    )
    pairs = ray.data.from_pandas(
        pd.DataFrame(
            {"doc_a": [0, 1, 2, 7], "doc_b": [1, 2, 3, 9]}
        ).astype("int64")
    )
    got = dup_clusters(docs, pairs).to_pandas().sort_values(
        "doc_id"
    ).reset_index(drop=True)
    want = {i: i for i in range(12)}
    want.update({1: 0, 2: 0, 3: 0, 9: 7})
    assert dict(zip(got["doc_id"], got["cluster_id"])) == want


def test_dup_clusters_empty_pairs(ray_session, monkeypatch):
    """No pairs: every doc is its own cluster, and the label table that
    reaches the union with the int64 self rows is int64 too, at the
    default gate and at the gate that forces the distributed plan."""
    import ray

    from nlp_series_relation_extraction_ray.functions import graphs
    from nlp_series_relation_extraction_ray.functions.grouping import (
        _collect,
    )
    from nlp_series_relation_extraction_ray.stages.dedup import dup_clusters

    components = graphs.min_label_components
    labels = []

    def spy(pairs_ds):
        out = components(pairs_ds).materialize()
        labels.append(_collect(out))
        return out

    monkeypatch.setattr(graphs, "min_label_components", spy)
    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64)})
    )
    pairs = ray.data.from_pandas(
        pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                      "doc_b": pd.Series([], dtype="int64")})
    )
    for driver_max_pairs in (graphs.DRIVER_MAX_PAIRS, 0):
        monkeypatch.setattr(graphs, "DRIVER_MAX_PAIRS", driver_max_pairs)
        got = dup_clusters(docs, pairs).to_pandas()
        assert (got["doc_id"] == got["cluster_id"]).all() and len(got) == 5
    assert len(labels) == 2
    for frame in labels:
        assert frame.empty
        assert dict(frame.dtypes) == {"node": np.dtype("int64"),
                                      "label": np.dtype("int64")}


def test_dedup_keep_apply_step(ray_session):
    import ray

    from nlp_series_relation_extraction_ray.stages.dedup import (
        dedup_keep,
        dup_clusters,
    )

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(8, dtype=np.int64)})
    )
    pairs = ray.data.from_pandas(
        pd.DataFrame({"doc_a": [0, 1, 5], "doc_b": [1, 2, 6]}).astype("int64")
    )
    keep = dedup_keep(dup_clusters(docs, pairs)).to_pandas().sort_values(
        "cluster_id"
    ).reset_index(drop=True)
    want = pd.DataFrame(
        {
            "cluster_id": [0, 3, 4, 5, 7],
            "keep_doc_id": [0, 3, 4, 5, 7],
            "n_members": [3, 1, 1, 2, 1],
        }
    ).astype("int64")
    pd.testing.assert_frame_equal(keep, want)


def test_minhash_clusters_group_planted_dups(docs):
    """dup_clusters over the DISTRIBUTED LSH pair graph: every verified
    near-dup pair must land in one cluster, non-dup docs stay singletons,
    and the cluster id is the minimum member id."""
    from nlp_series_relation_extraction_ray.stages.dedup import (
        dup_clusters,
        near_dup_pairs_distributed,
    )

    pairs = near_dup_pairs_distributed(docs, threshold=0.7)
    pairs_df = pairs.to_pandas()
    clusters = dup_clusters(docs, pairs).to_pandas()

    lab = clusters.set_index("doc_id")["cluster_id"]
    assert len(clusters) == docs.count()  # every doc labeled exactly once
    # pair members co-cluster
    assert (
        lab.loc[pairs_df["doc_a"]].to_numpy()
        == lab.loc[pairs_df["doc_b"]].to_numpy()
    ).all()
    # cluster id == min member id
    assert (clusters.groupby("cluster_id")["doc_id"].min()
            == clusters.groupby("cluster_id")["doc_id"].min().index).all()
    # docs in no pair are singletons
    incident = set(pairs_df["doc_a"]) | set(pairs_df["doc_b"])
    solo = clusters[~clusters["doc_id"].isin(incident)]
    assert (solo["cluster_id"] == solo["doc_id"]).all()


def test_part_cheapest_supplier_tie_break(ray_session, tmp_path):
    """Argmin join: min price wins; exact-cent ties break on suppkey; the
    map-side combine and the bucketed merge apply the same selection."""
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        part_cheapest_supplier,
    )

    df = pd.DataFrame(
        {
            "l_partkey": [1, 1, 1, 2, 2, 3],
            "l_suppkey": [9, 3, 5, 7, 2, 4],
            # part 1: 5.00 tie between supp 3 and 9 -> 3 wins;
            # part 2: 1.99 < 2.00; part 3: single row
            "l_extendedprice": [5.0, 5.0, 6.0, 2.0, 1.99, 8.5],
        }
    )
    df.to_parquet(tmp_path / "lineitem.parquet", index=False)

    got = (
        part_cheapest_supplier(str(tmp_path))
        .to_pandas()
        .sort_values("l_partkey")
        .reset_index(drop=True)
    )
    want = pd.DataFrame(
        {
            "l_partkey": [1, 2, 3],
            "best_suppkey": [3, 2, 4],
            "min_price_cents": [500, 199, 850],
        }
    )
    pd.testing.assert_frame_equal(got[want.columns].astype("int64"), want)


def test_repetition_flag_rule(ray_session, tmp_path):
    """Integer flag rule: dup-3-gram fraction >= 0.2 OR dup-word fraction
    >= 0.5; boundary docs pin the >= edges."""
    from nlp_series_relation_extraction_ray.stages.textstats import (
        repetition_stats,
    )

    docs = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                # unique words: no repetition at all
                "alpha beta gamma delta epsilon",
                # phrase repeated 3x + unique tail: 13 words / 7 distinct
                # (dup-word 6/13 < 0.5, word rule NOT triggered) but 11
                # 3-grams / 7 distinct -> dup3 4/11 >= 0.2 -> flagged by
                # the 3-gram rule alone
                "a b c a b c a b c u v w x",
                # 4 words 2 distinct -> dup-word frac exactly 0.5 (>= edge)
                "w w y y",
            ],
        }
    )
    docs.to_parquet(tmp_path / "documents.parquet", index=False)
    got = (
        repetition_stats(__import__("ray").data.read_parquet(
            str(tmp_path / "documents.parquet")
        ))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["repetitive_flag"].tolist() == [False, True, True]
    assert got.loc[1, "n_3grams"] == 11
    assert got.loc[1, "n_distinct_3grams"] == 7
    assert got.loc[1, "n_words"] == 13
    assert got.loc[1, "n_distinct_words"] == 7
    assert got.loc[2, "n_words"] == 4
    assert got.loc[2, "n_distinct_words"] == 2


def test_decontaminate_flags_ngram_overlap(docs):
    """Non-benchmark docs sharing a 4-gram with a benchmark doc (doc_id %
    97 == 0) are flagged; benchmark docs are excluded from the output."""
    from nlp_series_relation_extraction_ray.stages.dedup import (
        DECON_BENCH_MOD,
        _distinct_word_ngrams,
        benchmark_ngram_set,
        decontaminate,
    )

    out = decontaminate(docs).to_pandas().set_index("doc_id")
    texts = docs.to_pandas().set_index("doc_id")["text"]
    assert not any(i % DECON_BENCH_MOD == 0 for i in out.index)
    assert len(out) == sum(1 for i in texts.index if i % DECON_BENCH_MOD)
    bench = benchmark_ngram_set(docs)
    for did in list(out.index)[:50]:
        g = _distinct_word_ngrams(texts[did], 4)
        assert out.loc[did, "n_grams"] == len(g)
        assert out.loc[did, "n_hit_grams"] == len(g & bench)
        assert out.loc[did, "contaminated"] == (len(g & bench) > 0)
    assert out["contaminated"].any()  # synthetic vocab guarantees overlap


def test_pii_redact_planted(docs):
    """Planted emails/IPs are counted and fully scrubbed; untouched docs
    pass through byte-identical."""
    from nlp_series_relation_extraction_ray.stages.textstats import (
        pii_redact,
        plant_pii,
    )

    out = pii_redact(plant_pii(docs)).to_pandas().set_index("doc_id")
    texts = docs.to_pandas().set_index("doc_id")["text"]
    for did, row in out.iterrows():
        assert "@" not in row["clean_text"]
        if did % 7 == 0:
            assert row["n_emails"] == 1
            assert "<EMAIL>" in row["clean_text"]
        if did % 11 == 0:
            assert row["n_ips"] == 1
            assert "<IP>" in row["clean_text"]
        if did % 7 and did % 11:
            assert row["clean_text"] == texts[did]
            assert row["n_emails"] == 0 and row["n_ips"] == 0


def test_dup_clusters_distributed_path_matches_fast(ray_session,
                                                   monkeypatch):
    """DRIVER_MAX_PAIRS=0 forces the shuffle-round propagation loop; it
    must match the union-find fast path on a multi-hop chain graph."""
    import ray

    from nlp_series_relation_extraction_ray.functions import graphs
    from nlp_series_relation_extraction_ray.stages.dedup import dup_clusters

    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": np.arange(12, dtype=np.int64)})
    )
    pairs = ray.data.from_pandas(
        pd.DataFrame(
            {"doc_a": [0, 1, 2, 7], "doc_b": [1, 2, 3, 9]}
        ).astype("int64")
    )
    fast = dup_clusters(docs, pairs).to_pandas()
    monkeypatch.setattr(graphs, "DRIVER_MAX_PAIRS", 0)
    dist = dup_clusters(docs, pairs).to_pandas()
    key = lambda df: df.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(key(fast), key(dist))


def test_semantic_dedup_drops_planted_near_dups(ray_session):
    """SemDeDup-style keep/drop: within a k-means cell, every vector whose
    cosine to an already-kept LOWER-ID member clears the threshold is
    dropped; the lowest id of each duplicate set survives."""
    import ray

    from nlp_series_relation_extraction_ray.stages.similarity import (
        semantic_dedup_keep,
    )

    rng = np.random.RandomState(7)
    base = rng.randn(40, 16).astype(np.float32)
    # plant: ids 100/101/102 identical; 200/201 near-identical (cos ~0.999)
    base[10] = base[11] = base[12]
    base[20] = base[21] + rng.randn(16).astype(np.float32) * 1e-3
    ids = np.arange(40, dtype=np.int64)
    ids[10:13] = [100, 101, 102]
    ids[20:22] = [200, 201]
    ds = ray.data.from_arrow(
        pa.Table.from_pydict(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [v.tolist() for v in base], pa.list_(pa.float32())
                ),
            }
        )
    )
    out = semantic_dedup_keep(
        ds, n_clusters=4, threshold=0.97, train_sample=40
    ).to_pandas().set_index("vec_id")
    assert len(out) == 40  # every vector classified exactly once
    assert bool(out.loc[100, "keep"])          # lowest id of the triple
    assert not bool(out.loc[101, "keep"])
    assert not bool(out.loc[102, "keep"])
    assert bool(out.loc[200, "keep"])
    assert not bool(out.loc[201, "keep"])
    # determinism: identical second run
    out2 = semantic_dedup_keep(
        ds, n_clusters=4, threshold=0.97, train_sample=40
    ).to_pandas().set_index("vec_id")
    pd.testing.assert_frame_equal(out.sort_index(), out2.sort_index())
    # sub-cell capping still classifies everything exactly once
    capped = semantic_dedup_keep(
        ds, n_clusters=2, threshold=0.97, train_sample=40, max_cell=8
    ).to_pandas()
    assert len(capped) == 40
    assert set(capped["vec_id"]) == set(ids.tolist())


def test_tfidf_hybrid_paths_identical(ray_session):
    """The three df-attach plans (all-heavy broadcast, all-light shuffle
    join, mixed hybrid) must produce identical top-k tables."""
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        docs_tfidf_terms,
    )

    def run(thr):
        return (
            docs_tfidf_terms(SF, heavy_df_threshold=thr)
            .to_pandas()
            .sort_values(["doc_id", "rank"])
            .reset_index(drop=True)
        )

    default = run(None)       # scale-free n_docs/200 default
    all_heavy = run(2)        # every token clears the threshold
    all_light = run(10**9)    # nothing does: pure shuffle join
    mixed = run(45)           # sf0.001 dfs straddle 45: both branches live
    pd.testing.assert_frame_equal(default, all_heavy)
    pd.testing.assert_frame_equal(default, all_light)
    pd.testing.assert_frame_equal(default, mixed)


def test_tfidf_union_blocks_share_one_schema(ray_session, monkeypatch):
    """The mixed plan unions the map-side heavy rows with the shuffle-join
    light rows; every block of that union carries one schema (the join's
    NaN-promoted float64 columns are cast back before the union)."""
    import ray
    from ray.data.block import BlockAccessor

    from nlp_series_relation_extraction_ray.functions import grouping
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        docs_tfidf_terms,
    )

    real = grouping.bucketed_group_apply
    schemas = []

    def spy(ds, keys, fn, *args, **kwargs):
        if keys == "doc_id":  # the rank merge over the union
            ds = ds.materialize()
            for bundle in ds.iter_internal_ref_bundles():
                for block in ray.get(list(bundle.block_refs)):
                    schemas.append(BlockAccessor.for_block(block)
                                   .to_arrow().schema.remove_metadata())
        return real(ds, keys, fn, *args, **kwargs)

    monkeypatch.setattr(grouping, "bucketed_group_apply", spy)
    docs_tfidf_terms(SF, heavy_df_threshold=45).materialize()
    assert len(schemas) > 1
    assert all(s == schemas[0] for s in schemas), set(map(str, schemas))


def test_knn_lsh_recall_on_clustered_vectors(ray_session):
    """Multi-table hyperplane LSH must recover the exact top-k in its
    design regime (angularly tight clusters, cos ~0.9); see the regime
    note in knn_lsh's docstring for why the weakly-separated corpus
    embeddings are IVF's job instead."""
    import ray

    from nlp_series_relation_extraction_ray.stages.similarity import (
        knn_bruteforce,
        knn_lsh,
    )

    rng = np.random.RandomState(5)
    centers = rng.randn(10, 64)
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    vecs, ids = [], []
    for i in range(600):
        v = centers[i % 10] + 0.05 * rng.randn(64)
        vecs.append((v / np.linalg.norm(v)).astype(np.float32))
        ids.append(i)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": pa.array(
                    [v.tolist() for v in vecs], pa.list_(pa.float32())
                ),
            }
        )
    )
    bf = knn_bruteforce(ds, n_queries=5, k=10).to_pandas()
    lsh = knn_lsh(ds, n_queries=5, k=10).to_pandas()
    for q in range(5):
        gt = set(bf.loc[bf["query_id"] == q, "neighbor_id"])
        got = set(lsh.loc[lsh["query_id"] == q, "neighbor_id"])
        assert len(gt & got) / len(gt) >= 0.8, q
    # determinism
    again = knn_lsh(ds, n_queries=5, k=10).to_pandas()
    pd.testing.assert_frame_equal(
        lsh.sort_values(["query_id", "rank"]).reset_index(drop=True),
        again.sort_values(["query_id", "rank"]).reset_index(drop=True),
    )
