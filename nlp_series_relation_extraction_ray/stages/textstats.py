"""Text analysis over the ``documents`` table: token stats, quality
signals, language-ID, fingerprints.  All vectorizable per batch; integer
outputs so the DuckDB oracle matches value-exact (float ratios are
derivable downstream from the integer components)."""

from __future__ import annotations

from ..sources.readers import table_from_pandas

import hashlib
import re

import pandas as pd
import pyarrow as pa

WORD_RE = re.compile(r"[A-Za-z0-9_]+|[^A-Za-z0-9_\s]")

STOPWORDS = ("the", "a", "of", "and", "to", "in", "is")

# distinctive per-language marker words for the n-gram/stopword heuristic
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "en": ("the", "and", "of"),
    "fr": ("le", "la", "les", "et"),
    "de": ("der", "die", "das", "und"),
    "es": ("el", "los", "las", "y"),
}
_ROLL_BASE = 1_000_003
_ROLL_MOD = (1 << 61) - 1


def token_stats(docs_ds):
    """(doc_id, n_tokens, n_distinct_tokens, total_token_chars,
    n_regex_tokens): whitespace tokens + a BPE-ish regex tokenization."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        n_tokens, n_distinct, total_chars, n_regex = [], [], [], []
        for t in texts:
            words = t.split(" ")
            n_tokens.append(len(words))
            n_distinct.append(len(set(words)))
            total_chars.append(sum(len(w) for w in words))
            n_regex.append(len(WORD_RE.findall(t)))
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_distinct_tokens": pa.array(n_distinct, pa.int64()),
                "total_token_chars": pa.array(total_chars, pa.int64()),
                "n_regex_tokens": pa.array(n_regex, pa.int64()),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow")


TOKEN_STATS_SQL = r"""
SELECT doc_id,
  len(string_split(text, ' ')) AS n_tokens,
  len(list_distinct(string_split(text, ' '))) AS n_distinct_tokens,
  CAST(list_sum(list_transform(string_split(text, ' '), x -> strlen(x)))
    AS BIGINT) AS total_token_chars,
  len(regexp_extract_all(text, '[A-Za-z0-9_]+|[^A-Za-z0-9_\s]'))
    AS n_regex_tokens
FROM documents
"""


def quality_stats(docs_ds):
    """(doc_id, n_words, n_distinct_words, n_stopwords, n_long_words,
    quality_flag): length/stopword/diversity signals for corpus filtering."""

    stop = set(STOPWORDS)

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        cols = {k: [] for k in ("n_words", "n_distinct_words", "n_stopwords",
                                "n_long_words", "quality_flag")}
        for t in texts:
            words = t.split(" ")
            n_stop = sum(1 for w in words if w in stop)
            n_long = sum(1 for w in words if len(w) > 6)
            cols["n_words"].append(len(words))
            cols["n_distinct_words"].append(len(set(words)))
            cols["n_stopwords"].append(n_stop)
            cols["n_long_words"].append(n_long)
            cols["quality_flag"].append(
                20 <= len(words) <= 500 and n_stop >= 1
            )
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "n_words": pa.array(cols["n_words"], pa.int64()),
                "n_distinct_words": pa.array(cols["n_distinct_words"],
                                             pa.int64()),
                "n_stopwords": pa.array(cols["n_stopwords"], pa.int64()),
                "n_long_words": pa.array(cols["n_long_words"], pa.int64()),
                "quality_flag": pa.array(cols["quality_flag"], pa.bool_()),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow")


_STOP_SQL = ", ".join(f"'{w}'" for w in STOPWORDS)
QUALITY_SQL = f"""
SELECT doc_id,
  len(string_split(text, ' ')) AS n_words,
  len(list_distinct(string_split(text, ' '))) AS n_distinct_words,
  len(list_filter(string_split(text, ' '), x -> x IN ({_STOP_SQL})))
    AS n_stopwords,
  len(list_filter(string_split(text, ' '), x -> strlen(x) > 6))
    AS n_long_words,
  (len(string_split(text, ' ')) BETWEEN 20 AND 500
   AND len(list_filter(string_split(text, ' '), x -> x IN ({_STOP_SQL}))) >= 1)
    AS quality_flag
FROM documents
"""


_MARKER_SETS = {k: set(v) for k, v in LANG_MARKERS.items()}
_LANG_PRIORITY = ("en", "de", "es", "fr")


def _predict_lang(text: str) -> tuple[dict[str, int], str]:
    """Marker-word counts per language and their argmax, ties broken by
    the fixed priority en > de > es > fr ('und' when every count is 0)."""
    words = text.split(" ")
    row = {lang: sum(1 for w in words if w in marks)
           for lang, marks in _MARKER_SETS.items()}
    best = max(_LANG_PRIORITY, key=row.__getitem__)  # first max wins
    return row, (best if row[best] > 0 else "und")


def langid(docs_ds):
    """(doc_id, lang_pred, c_en, c_fr, c_de, c_es): marker-word heuristic
    (:func:`_predict_lang`, mirrored exactly by LANGID_SQL)."""

    def fn(batch: pa.Table) -> pa.Table:
        counts = {k: [] for k in LANG_MARKERS}
        preds = []
        for t in batch["text"].to_pylist():
            row, pred = _predict_lang(t)
            for lang, c in row.items():
                counts[lang].append(c)
            preds.append(pred)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "lang_pred": pa.array(preds, pa.string()),
                "c_en": pa.array(counts["en"], pa.int64()),
                "c_fr": pa.array(counts["fr"], pa.int64()),
                "c_de": pa.array(counts["de"], pa.int64()),
                "c_es": pa.array(counts["es"], pa.int64()),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def _marker_count_sql(lang: str) -> str:
    words = ", ".join(f"'{w}'" for w in LANG_MARKERS[lang])
    return (
        f"len(list_filter(string_split(text, ' '), x -> x IN ({words})))"
    )


LANGID_SQL = f"""
WITH c AS (
  SELECT doc_id,
    {_marker_count_sql('en')} AS c_en,
    {_marker_count_sql('fr')} AS c_fr,
    {_marker_count_sql('de')} AS c_de,
    {_marker_count_sql('es')} AS c_es
  FROM documents
)
SELECT doc_id,
  CASE WHEN c_en = 0 AND c_fr = 0 AND c_de = 0 AND c_es = 0 THEN 'und'
       WHEN c_en >= c_fr AND c_en >= c_de AND c_en >= c_es THEN 'en'
       WHEN c_de >= c_fr AND c_de >= c_es THEN 'de'
       WHEN c_es >= c_fr THEN 'es'
       ELSE 'fr' END AS lang_pred,
  c_en, c_fr, c_de, c_es
FROM c
"""


def repetition_stats(docs_ds):
    """(doc_id, n_words, n_distinct_words, n_2grams, n_distinct_2grams,
    n_3grams, n_distinct_3grams, repetitive_flag): Gopher-style repetition
    signals for corpus filtering (Rae et al. 2021 §A1.1 use duplicate
    n-gram fractions to drop boilerplate/templated documents).

    All outputs are integers — the dup fractions are ratios of the
    reported counts, and the flag rule is pure integer arithmetic, so the
    DuckDB oracle matches value-exact (no float thresholds to drift).
    Row-local map: vectorizes trivially at 100 TB (no shuffle).
    """

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        cols = {k: [] for k in (
            "n_words", "n_distinct_words", "n_2grams", "n_distinct_2grams",
            "n_3grams", "n_distinct_3grams", "repetitive_flag")}
        for t in texts:
            w = t.split(" ")
            g2 = [f"{w[i]} {w[i + 1]}" for i in range(len(w) - 1)]
            g3 = [f"{w[i]} {w[i + 1]} {w[i + 2]}" for i in range(len(w) - 2)]
            nw, dw = len(w), len(set(w))
            n2, d2 = len(g2), len(set(g2))
            n3, d3 = len(g3), len(set(g3))
            # dup-3-gram fraction >= 0.2 OR dup-word fraction >= 0.5,
            # in integer arithmetic (10*dup3 >= 2*n3  <=>  dup3/n3 >= 0.2)
            flag = (n3 > 0 and 10 * (n3 - d3) >= 2 * n3) or (
                2 * (nw - dw) >= nw
            )
            for k, v in (("n_words", nw), ("n_distinct_words", dw),
                         ("n_2grams", n2), ("n_distinct_2grams", d2),
                         ("n_3grams", n3), ("n_distinct_3grams", d3),
                         ("repetitive_flag", flag)):
                cols[k].append(v)
        out = {"doc_id": batch["doc_id"]}
        for k in cols:
            typ = pa.bool_() if k == "repetitive_flag" else pa.int64()
            out[k] = pa.array(cols[k], typ)
        return pa.Table.from_pydict(out)

    return docs_ds.map_batches(fn, batch_format="pyarrow")


REPETITION_SQL = """
WITH g AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
), n AS (
  SELECT doc_id, w,
    list_transform(generate_series(1, len(w) - 1),
                   i -> w[i] || ' ' || w[i + 1]) AS g2,
    list_transform(generate_series(1, len(w) - 2),
                   i -> w[i] || ' ' || w[i + 1] || ' ' || w[i + 2]) AS g3
  FROM g
)
SELECT doc_id,
  len(w) AS n_words,
  len(list_distinct(w)) AS n_distinct_words,
  len(g2) AS n_2grams,
  len(list_distinct(g2)) AS n_distinct_2grams,
  len(g3) AS n_3grams,
  len(list_distinct(g3)) AS n_distinct_3grams,
  ((len(g3) > 0 AND 10 * (len(g3) - len(list_distinct(g3))) >= 2 * len(g3))
   OR 2 * (len(w) - len(list_distinct(w))) >= len(w)) AS repetitive_flag
FROM n
"""


def rolling_hash(text: str) -> int:
    """Polynomial rolling hash (document fingerprint)."""
    h = 0
    for ch in text:
        h = (h * _ROLL_BASE + ord(ch)) % _ROLL_MOD
    return h


def fingerprints(docs_ds):
    """(doc_id, md5_hex, rolling_hex): exact + rolling fingerprints."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "md5_hex": pa.array(
                    [hashlib.md5(t.encode()).hexdigest() for t in texts],
                    pa.string(),
                ),
                "rolling_hex": pa.array(
                    [f"{rolling_hash(t):016x}" for t in texts], pa.string()
                ),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow")


MD5_FINGERPRINT_SQL = """
SELECT doc_id, md5(text) AS md5_hex FROM documents
"""


# --- deterministic train/val/test split (hash-based, leakage-free) --------

_SPLIT_MULT = 2654435761  # Knuth multiplicative hash
_SPLIT_MOD = 1 << 32


def train_test_split(docs_ds, train_pct: int = 90, val_pct: int = 5):
    """(doc_id, bucket, split): stable hash split on the key, so membership
    never changes as the corpus grows (the requirement for training-data
    pipelines; random_shuffle-based splits re-deal on every run)."""

    def fn(batch: pa.Table) -> pa.Table:
        import numpy as np

        ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.uint64)
        bucket = ((ids * _SPLIT_MULT) % _SPLIT_MOD) % 100
        split = np.where(
            bucket < train_pct, "train",
            np.where(bucket < train_pct + val_pct, "val", "test"),
        )
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "bucket": pa.array(bucket.astype("int64"), pa.int64()),
                "split": pa.array(split.tolist(), pa.string()),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def train_test_split_sql(train_pct: int = 90, val_pct: int = 5) -> str:
    # HUGEINT keeps the product exact at any doc_id (BIGINT overflows above
    # ~3.5e9); the Python side is already exact — uint64 wraparound is mod
    # 2^64 and the final modulus 2^32 divides it, so (x mod 2^64) mod 2^32
    # == x mod 2^32
    h = f"(CAST(doc_id AS HUGEINT) * {_SPLIT_MULT}) % {_SPLIT_MOD} % 100"
    return f"""
SELECT doc_id,
  CAST({h} AS BIGINT) AS bucket,
  CASE WHEN {h} < {train_pct}
         THEN 'train'
       WHEN {h}
         < {train_pct + val_pct} THEN 'val'
       ELSE 'test' END AS split
FROM documents
"""


# --- PII redaction ---------------------------------------------------------

# simple RE2-compatible patterns so the DuckDB oracle (regexp_replace /
# regexp_extract_all) matches the Python `re` semantics byte-for-byte
PII_EMAIL_PAT = r"[A-Za-z0-9_.]+@[A-Za-z0-9_.]+"
PII_IP_PAT = r"[0-9]+\.[0-9]+\.[0-9]+\.[0-9]+"
_PII_EMAIL_RE = re.compile(PII_EMAIL_PAT)
_PII_IP_RE = re.compile(PII_IP_PAT)


def plant_pii(docs_ds):
    """Deterministically append synthetic PII (emails / IPv4s) to a subset
    of documents, as a pure function of ``doc_id`` — the raw corpus has no
    PII, so redaction would be vacuous without planting.  Mirrored exactly
    by the oracle's planting CTE."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = []
        for did, t in zip(ids, texts):
            if did % 7 == 0:
                t += f" contact user{did}@example.com now"
            if did % 11 == 0:
                t += f" from 10.0.{did % 256}.1 logged"
            out.append(t)
        return pa.Table.from_pydict(
            {"doc_id": batch["doc_id"], "text": pa.array(out, pa.string())}
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


def pii_redact(docs_ds):
    """(doc_id, clean_text, n_emails, n_ips): regex PII redaction — emails
    then IPv4 addresses replaced with typed placeholders; counts measured
    on the original text.  Row-local compiled-regex map (no shuffle); at
    100 TB this is a pure streaming stage."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        clean, n_emails, n_ips = [], [], []
        for t in texts:
            n_emails.append(len(_PII_EMAIL_RE.findall(t)))
            n_ips.append(len(_PII_IP_RE.findall(t)))
            t = _PII_EMAIL_RE.sub("<EMAIL>", t)
            t = _PII_IP_RE.sub("<IP>", t)
            clean.append(t)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "clean_text": pa.array(clean, pa.string()),
                "n_emails": pa.array(n_emails, pa.int64()),
                "n_ips": pa.array(n_ips, pa.int64()),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow")


PII_REDACT_SQL = rf"""
WITH planted AS (
  SELECT doc_id,
    text
    || CASE WHEN doc_id % 7 = 0
         THEN ' contact user' || doc_id || '@example.com now' ELSE '' END
    || CASE WHEN doc_id % 11 = 0
         THEN ' from 10.0.' || (doc_id % 256) || '.1 logged' ELSE '' END
    AS text
  FROM documents
)
SELECT doc_id,
  regexp_replace(
    regexp_replace(text, '{PII_EMAIL_PAT}', '<EMAIL>', 'g'),
    '{PII_IP_PAT}', '<IP>', 'g') AS clean_text,
  len(regexp_extract_all(text, '{PII_EMAIL_PAT}')) AS n_emails,
  len(regexp_extract_all(text, '{PII_IP_PAT}')) AS n_ips
FROM planted
"""


# --- fixed-size token chunking (RAG / training sequence prep) --------------


def chunk_documents(docs_ds, chunk_tokens: int = 64):
    """(doc_id, chunk_idx, chunk_text, n_tokens): split every document into
    fixed-size non-overlapping whitespace-token chunks — the sequence-prep
    step feeding training/embedding jobs.  Pure per-row ``flat_map`` (no
    shuffle; a 100 TB corpus streams through block by block); token
    boundaries mirror DuckDB ``string_split(text, ' ')`` exactly (empty
    tokens preserved) so the oracle matches byte-for-byte."""

    def fn(batch: pa.Table) -> pa.Table:
        out_id, out_idx, out_text, out_n = [], [], [], []
        ids = batch["doc_id"].to_pylist()
        for did, t in zip(ids, batch["text"].to_pylist()):
            toks = t.split(" ")
            n_chunks = -(-len(toks) // chunk_tokens)
            for i in range(n_chunks):
                piece = toks[i * chunk_tokens : (i + 1) * chunk_tokens]
                out_id.append(did)
                out_idx.append(i)
                out_text.append(" ".join(piece))
                out_n.append(len(piece))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "chunk_idx": pa.array(out_idx, pa.int64()),
                "chunk_text": pa.array(out_text, pa.string()),
                "n_tokens": pa.array(out_n, pa.int64()),
            }
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


def chunk_documents_sql(chunk_tokens: int = 64) -> str:
    c = chunk_tokens
    return f"""
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
ex AS (SELECT doc_id, toks,
         unnest(generate_series(0,
           CAST(ceil(len(toks) / {c}.0) AS INT) - 1)) AS i
       FROM t)
SELECT doc_id, CAST(i AS BIGINT) AS chunk_idx,
  array_to_string(list_slice(toks, i * {c} + 1, (i + 1) * {c}), ' ')
    AS chunk_text,
  CAST(len(list_slice(toks, i * {c} + 1, (i + 1) * {c})) AS BIGINT)
    AS n_tokens
FROM ex
"""


CHUNK_SQL = chunk_documents_sql()


# --- stratified sampling ---------------------------------------------------

# per-stratum keep rates (percent): downsample the dominant language so the
# sampled corpus is roughly language-balanced; unlisted langs keep all rows
STRATA_RATES: dict[str, int] = {"en": 30}
_SAMPLE_MULT = 2246822519  # decorrelated from the split hash multiplier


def stratified_sample(docs_ds, rates: dict[str, int] | None = None):
    """(doc_id, lang, n_chars): deterministic per-stratum hash sampling —
    each language keeps ``rates[lang]`` percent of its rows (default 100),
    decided by a stable multiplicative hash of ``doc_id`` so membership
    never changes as the corpus grows (same requirement as
    :func:`train_test_split`; a ``random_sample`` re-deals every run).
    Pure per-row filter: no shuffle, no driver state — the 100 TB shape."""
    rates = STRATA_RATES if rates is None else rates

    def fn(batch: pa.Table) -> pa.Table:
        import numpy as np

        df = batch.to_pandas()
        ids = df["doc_id"].to_numpy(dtype=np.uint64)
        bucket = ((ids * _SAMPLE_MULT) % _SPLIT_MOD) % 100
        rate = df["lang"].map(lambda lg: rates.get(lg, 100)).to_numpy()
        keep = df[bucket < rate][["doc_id", "lang", "n_chars"]]
        return table_from_pandas(keep, preserve_index=False)

    return docs_ds.select_columns(["doc_id", "lang", "n_chars"]).map_batches(
        fn, batch_format="pyarrow"
    )


def stratified_sample_sql(rates: dict[str, int] | None = None) -> str:
    rates = STRATA_RATES if rates is None else rates
    cases = " ".join(
        f"WHEN lang = '{lg}' THEN {r}" for lg, r in sorted(rates.items())
    )
    # HUGEINT: exact product at any doc_id (see train_test_split_sql); the
    # Python uint64 side is exact because 2^32 divides the 2^64 wrap modulus
    return f"""
SELECT doc_id, lang, n_chars FROM documents
WHERE (CAST(doc_id AS HUGEINT) * {_SAMPLE_MULT}) % {_SPLIT_MOD} % 100
      < (CASE {cases} ELSE 100 END)
"""


STRATIFIED_SAMPLE_SQL = stratified_sample_sql()


def bottomk_sample(docs_ds, k: int = 50):
    """(doc_id, lang, sample_rank): a deterministic uniform k-sample of the
    corpus — the k smallest ``md5(doc_id)`` values (bottom-k hashing, the
    distributed stand-in for reservoir sampling: reservoirs are
    order-dependent and re-deal across runs/partitionings; the bottom-k of
    a content hash is a pure function of the key set).

    Scale shape: each batch keeps only its k smallest hashes (partial
    bottom-k), then one single-block final ranks the ≤ k × #blocks
    survivors — no global sort, nothing corpus-sized anywhere."""

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()[["doc_id", "lang"]]
        df["h"] = [
            hashlib.md5(str(d).encode()).hexdigest() for d in df["doc_id"]
        ]
        return table_from_pandas(
            df.sort_values("h").head(k), preserve_index=False
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.sort_values("h").head(k).reset_index(drop=True)
        out["sample_rank"] = pd.Series(range(1, len(out) + 1), dtype="int64")
        return out[["doc_id", "lang", "sample_rank"]]

    return (
        docs_ds.select_columns(["doc_id", "lang"])
        .map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final, batch_format="pandas", batch_size=None)
    )


def bottomk_sample_sql(k: int = 50) -> str:
    return f"""
SELECT doc_id, lang,
  CAST(row_number() OVER (ORDER BY md5(CAST(doc_id AS VARCHAR)))
       AS BIGINT) AS sample_rank
FROM documents
ORDER BY md5(CAST(doc_id AS VARCHAR)) LIMIT {k}
"""


BOTTOMK_SAMPLE_SQL = bottomk_sample_sql()


def langid_confusion(docs_ds):
    """(lang, lang_pred, n): predicted-vs-labeled language confusion
    matrix — the model-evaluation aggregate every labeling stage needs.

    Pure map-side partials (the prediction is row-local, the partial is a
    ≤ |langs|² count table per batch) and one merge: at 10¹²
    docs the shuffle carries #batches × ≤25 rows.
    """
    from ..functions.grouping import two_phase_agg

    def predictions(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "lang": df["lang"],
            "lang_pred": [_predict_lang(t)[1] for t in df["text"]],
        })

    return two_phase_agg(
        docs_ds.select_columns(["text", "lang"]), ["lang", "lang_pred"],
        {"n": ("lang_pred", "count")}, prep=predictions,
    )


LANGID_CONFUSION_SQL = f"""
WITH p AS ({LANGID_SQL})
SELECT d.lang, p.lang_pred, COUNT(*) AS n
FROM documents d JOIN p USING (doc_id)
GROUP BY d.lang, p.lang_pred
"""


# --- round 5: URL/domain extraction (crawl-style per-domain stats) --------

# one pattern for both sides: the path tail stops at a space, tab or
# newline in Python ``re`` and in DuckDB's RE2 alike (``\s`` and ``[^ ]``
# would disagree on tab-separated URLs)
URL_PAT = r"https://([a-z0-9.-]+)/[^ \t\n]*"
_URL_RE = re.compile(URL_PAT)


def plant_urls(docs_ds):
    """Deterministically append synthetic URLs to a subset of documents
    (pure function of ``doc_id`` — the raw corpus has none), mirrored by
    the oracle's planting CTE.  ``doc_id % 3 == 0`` gets one URL on domain
    ``site{doc_id % 23}``; ``% 13 == 0`` adds a second URL on domain
    ``site{doc_id % 7}`` (same-domain repeats when the residues collide,
    so distinct-doc and URL counts genuinely differ)."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = []
        for did, t in zip(ids, texts):
            if did % 3 == 0:
                t += f" see https://site{did % 23}.example.org/p/{did} ok"
            if did % 13 == 0:
                t += f" and https://site{did % 7}.example.org/q/{did} too"
            out.append(t)
        return pa.Table.from_pydict(
            {"doc_id": batch["doc_id"], "text": pa.array(out, pa.string())}
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


def url_domain_stats(docs_ds):
    """(domain, n_urls, n_docs) — compiled-regex URL extraction + per-domain
    rollup, the CommonCrawl-style per-domain accounting stage.

    Map side: extract per row, count URLs, and dedupe (doc, domain) pairs
    WITHIN the row (a document is atomic to one batch, so per-row dedup is
    global dedup) — the exchange carries one row per (batch, domain) with
    partial counts, never the text.  The domain universe is bounded (site
    key-space), so the merge input stays small."""

    from collections import Counter

    from ..functions.grouping import two_phase_agg

    def domain_rows(df: pd.DataFrame) -> pd.DataFrame:
        hits = [(d, n) for t in df["text"]
                for d, n in Counter(_URL_RE.findall(t)).items()]
        return pd.DataFrame(
            {"domain": pd.Series([d for d, _ in hits], dtype=object),
             "n_urls": pd.Series([n for _, n in hits], dtype="int64")})

    return two_phase_agg(
        docs_ds, "domain",
        {"n_urls": ("n_urls", "sum"), "n_docs": ("domain", "count")},
        prep=domain_rows,
    )


URL_DOMAINS_SQL = f"""
WITH planted AS (
  SELECT doc_id,
    text
    || CASE WHEN doc_id % 3 = 0 THEN ' see https://site' || (doc_id % 23)
         || '.example.org/p/' || doc_id || ' ok' ELSE '' END
    || CASE WHEN doc_id % 13 = 0 THEN ' and https://site' || (doc_id % 7)
         || '.example.org/q/' || doc_id || ' too' ELSE '' END AS text
  FROM documents
),
hits AS (
  SELECT doc_id,
    UNNEST(regexp_extract_all(text, '{URL_PAT}', 1))
      AS domain
  FROM planted
)
SELECT domain, COUNT(*) AS n_urls, COUNT(DISTINCT doc_id) AS n_docs
FROM hits GROUP BY domain
"""


# --- round 5: rare-token quality scoring (CCNet/Gopher-flavor signal) -----


def plant_rare_tokens(docs_ds):
    """Deterministically append tokens with controlled document frequency
    (pure function of ``doc_id``; the raw synthetic vocabulary has min
    df ≥ 10 so the rare signal would be vacuous without planting):
    ``doc_id % 5 == 0`` gets the globally-unique token ``tok<doc_id>``
    (df = 1 → always rare); ``doc_id % 2 == 0`` gets ``semi<doc_id % 50>``
    (df = n_docs/100 → lands exactly ON the corpus-relative threshold, the
    boundary case: common).  Mirrored by the oracle's planting CTE."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = []
        for did, t in zip(ids, texts):
            if did % 5 == 0:
                t += f" tok{did}"
            if did % 2 == 0:
                t += f" semi{did % 50}"
            out.append(t)
        return pa.Table.from_pydict(
            {"doc_id": batch["doc_id"], "text": pa.array(out, pa.string())}
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


def rare_token_stats(docs_ds, n_docs: int, rare_df_threshold: int | None = None):
    """(doc_id, n_distinct, rare_tokens, rare_frac) — per-document count of
    DISTINCT tokens whose corpus document-frequency is below the
    corpus-relative threshold (default ``max(2, n_docs // 100)``), the
    rare-vocabulary quality signal LM-pipeline filters use (a document
    dominated by corpus-rare tokens is boilerplate, code, or noise).

    Scale shape — the INVERTED broadcast: the rare set is
    vocabulary-sized (unbounded), but the COMMON set (df ≥ threshold) is
    scale-free by the same argument as tf-idf's heavy head (Σdf is the
    corpus token-pair count, so #common ≤ 100 × avg distinct tokens/doc
    at any corpus size).  One distributed df reduce builds the common set,
    ``ray.put`` broadcasts it, and scoring is a pure row-local map:
    ``rare = n_distinct − |tokens ∩ common|``.  No corpus-sized state
    ever reaches the driver or a single reducer."""
    import ray

    from ..functions.grouping import text_tokens, two_phase_agg

    if rare_df_threshold is None:
        rare_df_threshold = max(2, n_docs // 100)

    # distinct (doc, token) per row: docs are row-atomic, so per-row dedup
    # is global dedup; keep only the common set
    common_tbl = two_phase_agg(
        docs_ds, "token", {"df": ("token", "count")},
        prep=lambda df: text_tokens(df, distinct=True),
        having=lambda g: g["df"] >= rare_df_threshold,
    ).to_pandas()
    common_ref = ray.put(frozenset(common_tbl.get("token", ())))

    def score(batch: pa.Table) -> pa.Table:
        common = ray.get(common_ref)
        ids, nd, rare, frac = [], [], [], []
        for did, t in zip(batch["doc_id"].to_pylist(),
                          batch["text"].to_pylist()):
            toks = set(t.split(" "))
            n = len(toks)
            r = sum(1 for tk in toks if tk not in common)
            ids.append(did)
            nd.append(n)
            rare.append(r)
            frac.append(r / n if n else 0.0)
        return pa.Table.from_pydict({
            "doc_id": pa.array(ids, pa.int64()),
            "n_distinct": pa.array(nd, pa.int64()),
            "rare_tokens": pa.array(rare, pa.int64()),
            "rare_frac": pa.array(frac, pa.float64()),
        })

    return docs_ds.map_batches(score, batch_format="pyarrow")


def rare_token_stats_sql() -> str:
    """The threshold is computed IN SQL from the corpus row count
    (``GREATEST(2, n_docs // 100)``), mirroring the Ray side's
    ``max(2, n_docs // 100)`` — the oracle stays valid at any sf."""
    return """
WITH planted AS (
  SELECT doc_id,
    text
    || CASE WHEN doc_id % 5 = 0 THEN ' tok' || doc_id ELSE '' END
    || CASE WHEN doc_id % 2 = 0 THEN ' semi' || (doc_id % 50) ELSE '' END
      AS text
  FROM documents
),
tok AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token
  FROM planted
),
df AS (SELECT token, COUNT(*) AS df FROM tok GROUP BY token),
thr AS (SELECT GREATEST(2, COUNT(*) // 100) AS v FROM documents)
SELECT t.doc_id,
  COUNT(*) AS n_distinct,
  CAST(SUM(CASE WHEN df.df < thr.v THEN 1 ELSE 0 END)
    AS BIGINT) AS rare_tokens,
  CAST(SUM(CASE WHEN df.df < thr.v THEN 1 ELSE 0 END)
       AS DOUBLE) / COUNT(*) AS rare_frac
FROM tok t JOIN df ON t.token = df.token, thr
GROUP BY t.doc_id
"""


RARE_TOKEN_STATS_SQL = rare_token_stats_sql()
