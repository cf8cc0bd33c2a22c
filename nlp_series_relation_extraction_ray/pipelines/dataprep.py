"""Flagship training-data-prep composition: dedup → quality → langid →
split, end-to-end as ONE streaming pipeline with a SQL-exact oracle.

This is the pipeline a 100 TB pretraining-corpus run would actually
execute before tokenization: drop exact and near duplicates (keep one
representative per duplicate cluster), drop low-quality documents, tag
language, and assign a growth-stable train/val/test split.  Every stage
reuses an already-SQL-verified operator (``dup_clusters`` over the exact
n-gram Jaccard pair graph, the ``quality_stats`` flag rule, the ``langid``
argmax rule, the hash-based ``train_test_split``), so the composition
itself is SQL-expressible and the whole chain is verified value-exact.

Scale shape: the per-doc flags (quality/lang/split) are ONE row-local
``map_batches`` pass over the corpus — no shuffle; the duplicate-cluster
labels come from the bounded-reducer pair kernel + min-label propagation
(``functions/graphs.py``); one final doc-keyed bucketed reduce joins the
two sides and applies the keep predicate vectorized.  Nothing corpus-sized
touches the driver, and the output streams (``write_parquet``-able,
partitionable by ``split``).
"""

from __future__ import annotations

from ..sources.readers import read_parquet_clean

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages import textstats as ts
from ..stages.dedup import (
    NGRAM_JACCARD_SQL,
    dup_clusters,
    dup_clusters_sql,
    ngram_jaccard_pairs,
)

_FLAG_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("cluster_id", pa.int64()),
        ("quality_flag", pa.int8()),
        ("lang_pred", pa.string()),
        ("split", pa.string()),
        ("side", pa.string()),
    ]
)


def _doc_flags(batch: pa.Table) -> pa.Table:
    """Row-local quality/lang/split flags — the exact rules of
    ``textstats.quality_stats`` / ``langid`` / ``train_test_split``."""
    stop = set(ts.STOPWORDS)
    markers = {k: set(v) for k, v in ts.LANG_MARKERS.items()}
    priority = ("en", "de", "es", "fr")

    ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
    quality, langs = [], []
    for t in batch["text"].to_pylist():
        words = t.split(" ")
        n_stop = sum(1 for w in words if w in stop)
        quality.append(int(20 <= len(words) <= 500 and n_stop >= 1))
        counts = {
            lang: sum(1 for w in words if w in markers[lang])
            for lang in ("en", "fr", "de", "es")
        }
        best = priority[0]
        for lang in priority[1:]:
            if counts[lang] > counts[best]:
                best = lang
        langs.append(best if counts[best] > 0 else "und")

    bucket = ((ids.astype(np.uint64) * ts._SPLIT_MULT) % ts._SPLIT_MOD) % 100
    split = np.where(bucket < 90, "train", np.where(bucket < 95, "val", "test"))

    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "cluster_id": pa.array([-1] * len(ids), pa.int64()),
            "quality_flag": pa.array(quality, pa.int8()),
            "lang_pred": pa.array(langs, pa.string()),
            "split": pa.array(split.tolist(), pa.string()),
            "side": pa.array(["f"] * len(ids), pa.string()),
        }
    )


def clean_corpus(sf_dir: str, clusters_ds=None):
    """(doc_id, lang_pred, split) for documents that survive the full prep
    chain: duplicate-cluster representative (exact dups are Jaccard-100
    pairs, so the cluster keep subsumes exact dedup) AND quality_flag.

    ``clusters_ds`` lets callers reuse an already-materialized
    ``dup_clusters`` result (the driver contract shares one checkpoint
    across dedup queries).
    """
    import ray

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet")
    if clusters_ds is None:
        clusters_ds = dup_clusters(docs, ngram_jaccard_pairs(docs))

    flags = docs.map_batches(_doc_flags, batch_format="pyarrow")

    def cluster_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return _FLAG_SCHEMA.empty_table()
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"].cast(pa.int64()),
                "cluster_id": batch["cluster_id"].cast(pa.int64()),
                "quality_flag": pa.array([0] * n, pa.int8()),
                "lang_pred": pa.array([""] * n, pa.string()),
                "split": pa.array([""] * n, pa.string()),
                "side": pa.array(["c"] * n, pa.string()),
            }
        )

    cl = clusters_ds.map_batches(cluster_rows, batch_format="pyarrow")

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        f = df[df["side"] == "f"]
        c = df[df["side"] == "c"][["doc_id", "cluster_id"]]
        m = f.drop(columns=["cluster_id", "side"]).merge(c, on="doc_id")
        m = m[(m["cluster_id"] == m["doc_id"]) & (m["quality_flag"] == 1)]
        out = m[["doc_id", "lang_pred", "split"]].copy()
        out["doc_id"] = out["doc_id"].astype("int64")
        return out

    from ..functions.grouping import bucketed_group_apply

    return bucketed_group_apply(flags.union(cl), "doc_id", keep)


def clean_corpus_sql() -> str:
    """DuckDB mirror: the recursive-CTE cluster oracle joined with the
    quality/langid/split rules — value-exact against :func:`clean_corpus`."""
    clusters = dup_clusters_sql(NGRAM_JACCARD_SQL)
    lang = ts.LANGID_SQL
    sp = ts.train_test_split_sql()
    return f"""WITH clusters AS ({clusters}),
lang AS ({lang}),
sp AS ({sp}),
q AS (
  SELECT doc_id,
    (len(string_split(text, ' ')) BETWEEN 20 AND 500
     AND len(list_filter(string_split(text, ' '),
                         x -> x IN ({ts._STOP_SQL}))) >= 1) AS quality_flag
  FROM documents
)
SELECT q.doc_id, lang.lang_pred, sp.split
FROM q
JOIN clusters c ON c.doc_id = q.doc_id
JOIN lang ON lang.doc_id = q.doc_id
JOIN sp ON sp.doc_id = q.doc_id
WHERE c.cluster_id = q.doc_id AND q.quality_flag"""


def training_corpus(sf_dir: str, clusters_ds=None, chunk_tokens: int = 64):
    """Round-4 flagship prep chain v2 — :func:`clean_corpus` extended to
    the full pre-tokenization pipeline: dedup-keep ∧ quality ∧
    NOT-contaminated (GPT-3-style eval-set collision) → PII redaction →
    fixed-size token chunking.  Output one row per training chunk:
    ``(doc_id, chunk_idx, chunk_text, n_tokens, lang_pred, split)``.

    Scale shape: the survivor predicate joins three doc-keyed streams
    (clean-corpus flags, decontamination flags, document text) in ONE
    bucketed reduce; planting (test fixture), redaction and chunking are
    row-local map/flat-map passes downstream — text crosses exactly one
    shuffle, already filtered to survivors.  Benchmark documents
    (``doc_id % 97 == 0``) are excluded by construction, exactly as the
    standalone decontamination operator does.
    """
    import ray

    from ..stages.dedup import decontaminate
    from ..stages.textstats import (
        _PII_EMAIL_RE,
        _PII_IP_RE,
        chunk_documents,
        plant_pii,
    )

    docs = read_parquet_clean(f"{sf_dir}/documents.parquet")
    kept = clean_corpus(sf_dir, clusters_ds)
    decon = decontaminate(docs)

    def kept_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "lang_pred": df["lang_pred"],
                "split": df["split"],
                "ok": True,
                "text": "",
                "side": "k",
            }
        )

    def decon_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "lang_pred": "",
                "split": "",
                "ok": ~df["contaminated"].astype(bool),
                "text": "",
                "side": "d",
            }
        )

    def text_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "lang_pred": "",
                "split": "",
                "ok": True,
                "text": df["text"],
                "side": "t",
            }
        )

    unioned = (
        kept.map_batches(kept_rows, batch_format="pandas")
        .union(decon.map_batches(decon_rows, batch_format="pandas"))
        .union(
            docs.select_columns(["doc_id", "text"]).map_batches(
                text_rows, batch_format="pandas"
            )
        )
    )

    def survivors(df: pd.DataFrame) -> pd.DataFrame:
        k = df[df["side"] == "k"][["doc_id", "lang_pred", "split"]]
        d = df[(df["side"] == "d") & df["ok"]][["doc_id"]]
        t = df[df["side"] == "t"][["doc_id", "text"]]
        m = k.merge(d, on="doc_id").merge(t, on="doc_id")
        m["doc_id"] = m["doc_id"].astype("int64")
        return m

    from ..functions.grouping import bucketed_group_apply

    surv = bucketed_group_apply(unioned, "doc_id", survivors)

    def redact_chunk(batch: pa.Table) -> pa.Table:
        out = {"doc_id": [], "chunk_idx": [], "chunk_text": [],
               "n_tokens": [], "lang_pred": [], "split": []}
        for did, t, lang, split in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist(),
            batch["lang_pred"].to_pylist(), batch["split"].to_pylist(),
        ):
            # planting mirrors plant_pii / the oracle CTE (test fixture:
            # the synthetic corpus has no organic PII)
            if did % 7 == 0:
                t += f" contact user{did}@example.com now"
            if did % 11 == 0:
                t += f" from 10.0.{did % 256}.1 logged"
            t = _PII_EMAIL_RE.sub("<EMAIL>", t)
            t = _PII_IP_RE.sub("<IP>", t)
            toks = t.split(" ")
            n_chunks = -(-len(toks) // chunk_tokens)
            for i in range(n_chunks):
                piece = toks[i * chunk_tokens : (i + 1) * chunk_tokens]
                out["doc_id"].append(did)
                out["chunk_idx"].append(i)
                out["chunk_text"].append(" ".join(piece))
                out["n_tokens"].append(len(piece))
                out["lang_pred"].append(lang)
                out["split"].append(split)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "chunk_idx": pa.array(out["chunk_idx"], pa.int64()),
                "chunk_text": pa.array(out["chunk_text"], pa.string()),
                "n_tokens": pa.array(out["n_tokens"], pa.int64()),
                "lang_pred": pa.array(out["lang_pred"], pa.string()),
                "split": pa.array(out["split"], pa.string()),
            }
        )

    # silence unused-import lints for the documented building blocks the
    # fused map reproduces (plant_pii / chunk_documents semantics)
    _ = (plant_pii, chunk_documents)
    return surv.map_batches(redact_chunk, batch_format="pyarrow")


def training_corpus_sql(chunk_tokens: int = 64) -> str:
    """DuckDB mirror of :func:`training_corpus` — clean-corpus CTE ∧
    NOT-contaminated, then the PII planting/redaction CTE and the chunk
    explosion, value-exact."""
    from ..stages.dedup import DECONTAMINATE_SQL
    from ..stages.textstats import PII_EMAIL_PAT, PII_IP_PAT

    c = chunk_tokens
    return f"""WITH cc AS ({clean_corpus_sql()}),
dec AS ({DECONTAMINATE_SQL}),
keepers AS (
  SELECT cc.doc_id, cc.lang_pred, cc.split
  FROM cc JOIN dec ON dec.doc_id = cc.doc_id
  WHERE NOT dec.contaminated
),
planted AS (
  SELECT doc_id,
    text
    || CASE WHEN doc_id % 7 = 0
         THEN ' contact user' || doc_id || '@example.com now' ELSE '' END
    || CASE WHEN doc_id % 11 = 0
         THEN ' from 10.0.' || (doc_id % 256) || '.1 logged' ELSE '' END
    AS text
  FROM documents
),
red AS (
  SELECT doc_id,
    regexp_replace(
      regexp_replace(text, '{PII_EMAIL_PAT}', '<EMAIL>', 'g'),
      '{PII_IP_PAT}', '<IP>', 'g') AS clean_text
  FROM planted
),
t AS (
  SELECT k.doc_id, k.lang_pred, k.split,
         string_split(red.clean_text, ' ') AS toks
  FROM keepers k JOIN red ON red.doc_id = k.doc_id
),
ex AS (
  SELECT doc_id, lang_pred, split, toks,
    unnest(generate_series(0,
      CAST(ceil(len(toks) / {c}.0) AS INT) - 1)) AS i
  FROM t
)
SELECT doc_id, CAST(i AS BIGINT) AS chunk_idx,
  array_to_string(list_slice(toks, i * {c} + 1, (i + 1) * {c}), ' ')
    AS chunk_text,
  CAST(len(list_slice(toks, i * {c} + 1, (i + 1) * {c})) AS BIGINT)
    AS n_tokens,
  lang_pred, split
FROM ex"""
