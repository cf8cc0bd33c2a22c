"""Deduplication operators over the ``documents`` table.

Exact dedup is a hash-partition + per-group-first (map-side partials, one
small groupby).  Near-dup is MinHash+LSH: shingle → minhash signature →
band buckets → ``groupby(band, bucket)`` candidate generation → exact
n-gram-Jaccard verification — the scale-correct shape (candidates only ever
meet inside one band bucket; no all-pairs pass).  SimHash gives a 64-bit
per-doc fingerprint for Hamming-distance near-dup.  Embedding cosine dup
finds vector-level duplicates via blocked matmul against a broadcast matrix.
"""

from __future__ import annotations

from ..sources.readers import table_from_pandas

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

# ---- exact dedup ---------------------------------------------------------


def md5_hex(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def exact_dedup(docs_ds):
    """(text_md5, keep_doc_id, n_copies): canonical representative per text."""
    from ..functions.grouping import two_phase_agg

    return two_phase_agg(
        docs_ds, "text_md5",
        {"keep_doc_id": ("doc_id", "min"), "n_copies": ("doc_id", "count")},
        prep=lambda df: df.assign(
            text_md5=[md5_hex(t) for t in df["text"]]),
    )


EXACT_DEDUP_SQL = """
SELECT md5(text) AS text_md5, MIN(doc_id) AS keep_doc_id,
  COUNT(*) AS n_copies
FROM documents GROUP BY md5(text)
"""


# ---- MinHash + LSH near-dup ----------------------------------------------

NUM_PERM = 64
NUM_BANDS = 16  # 4 rows/band
_MERSENNE = (1 << 61) - 1


def _perm_params(num_perm: int = NUM_PERM) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(17)
    a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.int64)
    b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.int64)
    return a, b


_PERM_A, _PERM_B = _perm_params()


def word_shingles(text: str, n: int = 3) -> set[int]:
    """Hashed word n-gram shingles."""
    words = text.split()
    if len(words) < n:
        grams = [" ".join(words)] if words else []
    else:
        grams = [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]
    return {
        int.from_bytes(hashlib.blake2b(g.encode(), digest_size=8).digest(),
                       "big") % _MERSENNE
        for g in grams
    }


def minhash_signature(shingles: set[int]) -> np.ndarray:
    if not shingles:
        return np.full(NUM_PERM, _MERSENNE, dtype=np.int64)
    sh = np.fromiter(shingles, dtype=np.int64)[:, None]  # [S, 1]
    hashed = (sh * _PERM_A[None, :] + _PERM_B[None, :]) % _MERSENNE
    return hashed.min(axis=0)


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def minhash_band_rows(batch: pa.Table) -> pa.Table:
    """doc batch -> (band, bucket, doc_id) rows for the LSH groupby."""
    rows_per_band = NUM_PERM // NUM_BANDS
    out = {"band": [], "bucket": [], "doc_id": []}
    for i in range(batch.num_rows):
        sig = minhash_signature(word_shingles(batch["text"][i].as_py()))
        did = batch["doc_id"][i].as_py()
        for band in range(NUM_BANDS):
            seg = sig[band * rows_per_band : (band + 1) * rows_per_band]
            bucket = hashlib.blake2b(seg.tobytes(), digest_size=8).hexdigest()
            out["band"].append(band)
            out["bucket"].append(bucket)
            out["doc_id"].append(did)
    return pa.Table.from_pydict(
        {
            "band": pa.array(out["band"], pa.int32()),
            "bucket": pa.array(out["bucket"], pa.string()),
            "doc_id": pa.array(out["doc_id"], pa.int64()),
        }
    )


def _lsh_candidates(docs_ds, max_bucket: int):
    """bands -> hash-bucketed (band, bucket) co-location -> candidate pairs.

    LSH-bucket cardinality ≈ 16 × #docs, so the reduce is vectorized over
    every (band, bucket) group in a hash bucket at once: per-group sizes
    via ``transform("size")`` (skipping singletons and >``max_bucket``
    degenerates), then a self-merge emits each group's pair cartesian —
    no per-group Python.
    """
    from ..functions.grouping import bucketed_group_apply

    bands = docs_ds.map_batches(minhash_band_rows, batch_format="pyarrow")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["band", "bucket", "doc_id"])
        sz = d.groupby(["band", "bucket"])["doc_id"].transform("size")
        d = d[(sz >= 2) & (sz <= max_bucket)]
        p = d.merge(d, on=["band", "bucket"], suffixes=("_a", "_b"))
        p = p.loc[p["doc_id_a"] < p["doc_id_b"], ["doc_id_a", "doc_id_b"]]
        p = p.rename(columns={"doc_id_a": "doc_a", "doc_id_b": "doc_b"})
        p = p.drop_duplicates()
        return p.astype({"doc_a": "int64", "doc_b": "int64"})

    return bucketed_group_apply(bands, ["band", "bucket"], bucket_pairs)


def near_dup_pairs_distributed(
    docs_ds, threshold: float = 0.7, max_bucket: int = 64
):
    """Fully-distributed MinHash/LSH near-dup — the 100 TB shape (nothing
    corpus-sized touches the driver), in THREE shuffles total:

    1. candidate generation (band-bucket co-location, vectorized);
    2. text attach: each candidate explodes into one row per member doc
       (``slot`` 0/1), unions with the doc table, and one doc-keyed
       bucketed reduce pins each side's text — a single shuffle replaces
       two sequential shuffle joins;
    3. pair assembly: a pair-keyed bucketed reduce joins the two sides,
       de-dups cross-band duplicates, and runs the exact word-3-gram
       Jaccard verification in-bucket.

    Same output contract as :func:`near_dup_pairs_driver_debug`.
    """
    from ..functions.grouping import bucketed_group_apply

    cand = _lsh_candidates(docs_ds, max_bucket)

    def explode_sides(df: pd.DataFrame) -> pd.DataFrame:
        a = pd.DataFrame(
            {"doc_id": df["doc_a"], "pair_a": df["doc_a"],
             "pair_b": df["doc_b"], "slot": np.int8(0)}
        )
        b = pd.DataFrame(
            {"doc_id": df["doc_b"], "pair_a": df["doc_a"],
             "pair_b": df["doc_b"], "slot": np.int8(1)}
        )
        out = pd.concat([a, b], ignore_index=True)
        out["text"] = pd.Series([None] * len(out), dtype="object")
        return out

    sides = cand.map_batches(explode_sides, batch_format="pandas")

    def doc_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "pair_a": np.int64(-1),
                "pair_b": np.int64(-1),
                "slot": np.int8(-1),
                "text": df["text"],
            }
        )

    docs = docs_ds.select_columns(["doc_id", "text"]).map_batches(
        doc_rows, batch_format="pandas"
    )

    def attach_text(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized over every doc in the bucket: pin the doc's text onto
        # each of its candidate-side rows
        texts = df.loc[df["slot"] == -1, ["doc_id", "text"]]
        side = df[df["slot"] >= 0].drop(columns="text")
        return side.merge(texts, on="doc_id")[
            ["pair_a", "pair_b", "slot", "text"]
        ]

    with_text = bucketed_group_apply(sides.union(docs), "doc_id", attach_text)

    def assemble_verify(df: pd.DataFrame) -> pd.DataFrame:
        # cross-band duplicate candidates collapse here (pair key is
        # co-located), then the exact Jaccard check runs per pair
        df = df.drop_duplicates(["pair_a", "pair_b", "slot"])
        a = df[df["slot"] == 0].rename(columns={"text": "text_a"})
        b = df[df["slot"] == 1][["pair_a", "pair_b", "text"]].rename(
            columns={"text": "text_b"}
        )
        m = a.merge(b, on=["pair_a", "pair_b"])
        out_a, out_b, out_j = [], [], []
        for row in m.itertuples(index=False):
            j = jaccard(word_shingles(row.text_a), word_shingles(row.text_b))
            if j >= threshold:
                out_a.append(int(row.pair_a))
                out_b.append(int(row.pair_b))
                out_j.append(int(round(j * 100)))
        return pd.DataFrame(
            {
                "doc_a": pd.Series(out_a, dtype="int64"),
                "doc_b": pd.Series(out_b, dtype="int64"),
                "jaccard_pct": pd.Series(out_j, dtype="int64"),
            }
        )

    return bucketed_group_apply(
        with_text, ["pair_a", "pair_b"], assemble_verify
    )


def near_dup_pairs_driver_debug(
    docs_ds, threshold: float = 0.7, max_bucket: int = 64
):
    """DEBUG-ONLY MinHash/LSH near-dup: candidate verification runs on the
    driver (``cand.to_pandas()`` + a per-doc text dict).  Useful for
    inspecting candidates on small corpora; it is NOT the production path —
    the engine exposes :func:`near_dup_pairs_distributed`, which keeps
    candidates and verification fully in Datasets (proven value-equal by
    ``test_near_dup_distributed_matches_fast_path``).

    Returns (doc_a, doc_b, jaccard_pct:int64) with doc_a < doc_b.  Buckets
    larger than ``max_bucket`` are skipped (degenerate content; logged at
    scale) to bound the in-bucket pair blowup.
    """
    import ray

    cand = _lsh_candidates(docs_ds, max_bucket)
    # dedup candidates across bands (tiny relative to corpus)
    cand_df = cand.to_pandas().drop_duplicates()
    if cand_df.empty:
        return ray.data.from_pandas(
            pd.DataFrame({"doc_a": pd.Series([], dtype="int64"),
                          "doc_b": pd.Series([], dtype="int64"),
                          "jaccard_pct": pd.Series([], dtype="int64")})
        )

    # verify: join candidate pairs back to texts via broadcast of needed docs
    needed = set(cand_df["doc_a"]) | set(cand_df["doc_b"])

    def collect_texts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["doc_id"].isin(needed)][["doc_id", "text"]]
        return table_from_pandas(df, preserve_index=False)

    texts = docs_ds.map_batches(collect_texts, batch_format="pyarrow").to_pandas()
    text_by_id = dict(zip(texts["doc_id"], texts["text"]))
    sh_cache: dict[int, set] = {}

    def sh(did: int) -> set:
        s = sh_cache.get(did)
        if s is None:
            s = sh_cache[did] = word_shingles(text_by_id[did])
        return s

    rows = []
    for a, b in zip(cand_df["doc_a"], cand_df["doc_b"]):
        j = jaccard(sh(int(a)), sh(int(b)))
        if j >= threshold:
            rows.append((int(a), int(b), int(round(j * 100))))
    out = pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard_pct"]).astype(
        {"doc_a": "int64", "doc_b": "int64", "jaccard_pct": "int64"}
    )
    return ray.data.from_pandas(out)


# ---- exact n-gram Jaccard (SQL-verifiable dedup kernel) ------------------


def _salted_cells(ds, salts_ref, cache_key: str):
    """Vectorized sub-block salting replicator shared by the exact-kernel
    pair operators (n-gram Jaccard, edit distance): every row whose block
    ``(lang, lb)`` has salt count ``s`` replicates to the ``s`` cells
    ``(min(u, v), max(u, v))`` for ``v`` in ``0..s-1``, ``u = doc_id % s``.

    ``index.repeat``-based — no per-row Python loop: the rep table is
    corpus-order cardinality on a crawl corpus, so the replication map
    stage must stay a C-path kernel.  Extra input columns (e.g. the
    edit-distance ``home`` flag) pass through untouched.
    """
    import ray

    from ..stages.base import worker_cached

    def replicate(df: pd.DataFrame) -> pd.DataFrame:
        lut = worker_cached(
            cache_key,
            lambda: pd.Series(ray.get(salts_ref), dtype="int64"),
            salts_ref.hex(),
        )
        out = df.reset_index(drop=True)
        if len(out):
            key = pd.MultiIndex.from_arrays([out["lang"], out["lb"]])
            s_arr = (
                lut.reindex(key).fillna(1).to_numpy(dtype=np.int64)
            )
            rep = np.repeat(np.arange(len(out), dtype=np.int64), s_arr)
            out = out.iloc[rep].reset_index(drop=True)
            s_rep = np.repeat(s_arr, s_arr)
            u = out["doc_id"].to_numpy() % s_rep
            starts = np.cumsum(s_arr) - s_arr
            v = np.arange(len(out), dtype=np.int64) - np.repeat(
                starts, s_arr
            )
            out["salt"] = u.astype("int32")
            out["ci"] = np.minimum(u, v).astype("int32")
            out["cj"] = np.maximum(u, v).astype("int32")
        else:
            for c in ("salt", "ci", "cj"):
                out[c] = pd.Series([], dtype="int32")
        return out

    return ds.map_batches(replicate, batch_format="pandas")


def ngram_jaccard_pairs(docs_ds, n: int = 3, min_pct: int = 30,
                        max_block: int = 32):
    """(doc_a, doc_b, jaccard_pct) — EXACT word-n-gram Jaccard for every
    doc pair within a (lang, length-bucket) blocking group.

    Unlike MinHash (probabilistic) this is the exact kernel, made tractable
    by blocking: only docs sharing ``(lang, n_chars // 64)`` are compared
    (near-dups barely change length, so recall loss is confined to edits
    crossing a length boundary — the standard blocking trade-off).
    ``jaccard_pct`` uses integer arithmetic (``100 * |∩| // |∪|``) so the
    DuckDB oracle matches bit-for-bit.

    BOUNDED REDUCERS (replicated sub-block partitioning): block sizes grow
    linearly with the corpus, so the in-block pair cartesian must never
    land on one reducer.  A tiny counting pass (block-cardinality output —
    #langs × #length-buckets rows, broadcast via ``ray.put``) sizes each
    block's salt count ``s = ceil(count / max_block)``; each doc (salt
    ``u = doc_id % s``) is replicated to the ``s`` cells ``(min(u,v),
    max(u,v))`` and each cell compares in-salt (``ci == cj``) or cross-salt
    pairs — every in-block pair meets in EXACTLY one cell, so the output is
    identical to the all-pairs kernel while no reducer ever holds more than
    ``2 * max_block`` docs (≤ ``max_block²`` comparisons).  Total work is
    still O(block²) — that is the exact kernel's semantics; for corpus-wide
    near-dup detection use :func:`near_dup_pairs_distributed`, whose LSH
    candidates bound total work too.
    """
    import ray

    from ..functions.grouping import bucketed_group_apply, two_phase_agg

    def add_block(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "lang", "text"]].copy()
        out["lb"] = (df["n_chars"] // 64).astype("int64")
        return out

    blocked = docs_ds.map_batches(add_block, batch_format="pandas")

    # pass 1: per-block doc counts (tiny — one row per (lang, lb) per batch;
    # block cardinality is bounded at any corpus
    # size, unlike block membership).  Column-pruned: the counting read
    # ships only (lang, n_chars), never text.
    counts = two_phase_agg(
        docs_ds.select_columns(["lang", "n_chars"]), ["lang", "lb"],
        {"cnt": ("lb", "count")},
        prep=lambda df: df.assign(lb=(df["n_chars"] // 64).astype("int64")),
    ).to_pandas()
    salts = {
        (r.lang, int(r.lb)): -(-int(r.cnt) // max_block)
        for r in counts.itertuples(index=False)
    }
    salts_ref = ray.put(salts)

    cells = _salted_cells(blocked, salts_ref, "ngram_salts")

    def cell_pairs(df: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b, pcts = [], [], []
        # a doc is copied to every salted cell of its own (lang, lb) block
        # and groupby visits a block's cells in a row: build its n-gram set
        # once per block, not once per cell, and hold one block's sets
        ngram_sets: dict[int, set[str]] = {}
        block = None

        def sets_of(g: pd.DataFrame) -> list[set[str]]:
            out = []
            for doc_id, text in zip(g["doc_id"].tolist(), g["text"].tolist()):
                s = ngram_sets.get(doc_id)
                if s is None:
                    s = ngram_sets[doc_id] = _word_ngrams(text, n)
                out.append(s)
            return out

        def compare(ids_a, sets_a, ids_b, sets_b, cross: bool):
            for ii in range(len(ids_a)):
                jr = range(len(ids_b)) if cross else range(ii + 1, len(ids_b))
                for jj in jr:
                    sa, sb = sets_a[ii], sets_b[jj]
                    union = len(sa | sb)
                    pct = (100 * len(sa & sb) // union) if union else 100
                    if pct >= min_pct:
                        a, b = int(ids_a[ii]), int(ids_b[jj])
                        rows_a.append(min(a, b))
                        rows_b.append(max(a, b))
                        pcts.append(pct)

        for (lang, lb, ci, cj), g in df.groupby(["lang", "lb", "ci", "cj"]):
            if (lang, lb) != block:
                block = (lang, lb)
                ngram_sets.clear()
            if len(g) < 2:
                continue
            if ci == cj:  # in-salt cell: ordered all-pairs
                g = g.sort_values("doc_id")
                ids = g["doc_id"].to_numpy()
                sets_ = sets_of(g)
                compare(ids, sets_, ids, sets_, cross=False)
            else:  # cross-salt cell: side-A × side-B
                ga = g[g["salt"] == ci]
                gb = g[g["salt"] == cj]
                compare(ga["doc_id"].to_numpy(), sets_of(ga),
                        gb["doc_id"].to_numpy(), sets_of(gb), cross=True)
        return pd.DataFrame(
            {
                "doc_a": pd.Series(rows_a, dtype="int64"),
                "doc_b": pd.Series(rows_b, dtype="int64"),
                "jaccard_pct": pd.Series(pcts, dtype="int64"),
            }
        )

    return bucketed_group_apply(cells, ["lang", "lb", "ci", "cj"], cell_pairs)


def _word_ngrams(text: str, n: int) -> set[str]:
    """Distinct word n-grams as strings (SQL-mirrorable: no hashing)."""
    words = text.split(" ")
    if len(words) < n:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


def ngram_jaccard_sql(min_pct: int = 30) -> str:
    return f"""
WITH s AS (
  SELECT doc_id, lang, n_chars // 64 AS lb,
    list_distinct(
      CASE WHEN len(string_split(text, ' ')) < 3
           THEN [text]
           ELSE list_transform(
             generate_series(1, len(string_split(text, ' ')) - 2),
             i -> string_split(text, ' ')[i] || ' ' ||
                  string_split(text, ' ')[i+1] || ' ' ||
                  string_split(text, ' ')[i+2])
      END) AS grams
  FROM documents
),
pairs AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
    len(list_intersect(a.grams, b.grams)) AS inter,
    len(list_distinct(list_concat(a.grams, b.grams))) AS uni
  FROM s a JOIN s b
    ON a.lang = b.lang AND a.lb = b.lb AND a.doc_id < b.doc_id
)
SELECT doc_a, doc_b,
  CAST(CASE WHEN uni = 0 THEN 100 ELSE 100 * inter // uni END AS BIGINT)
    AS jaccard_pct
FROM pairs
WHERE (CASE WHEN uni = 0 THEN 100 ELSE 100 * inter // uni END) >= {min_pct}
"""


NGRAM_JACCARD_SQL = ngram_jaccard_sql()


# ---- SimHash -------------------------------------------------------------


def simhash64(text: str) -> int:
    """64-bit SimHash over word features."""
    acc = np.zeros(64, dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    for w in text.split():
        h = np.uint64(
            int.from_bytes(
                hashlib.blake2b(w.encode(), digest_size=8).digest(), "big"
            )
        )
        bits = (h >> shifts) & np.uint64(1)
        acc += np.where(bits == 1, 1, -1)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def simhash_table(docs_ds):
    """(doc_id, simhash_hex) per document."""

    def fn(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "simhash_hex": pa.array(
                    [f"{simhash64(t):016x}" for t in batch["text"].to_pylist()],
                    pa.string(),
                ),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def simhash_near_dup_pairs(docs_ds, max_hamming: int = 3,
                           max_bucket: int = 64):
    """(doc_a, doc_b, hamming:int64) near-dup pairs by SimHash distance.

    Band-LSH over the 64-bit fingerprint: split into 4 × 16-bit bands; two
    docs within Hamming distance ≤ 3 of each other are GUARANTEED to agree
    on at least one whole band (pigeonhole) — the default threshold.
    Larger ``max_hamming`` trades recall guarantees for looser matching
    (on short texts distances ≥ 8 admit many false positives; verify with
    exact Jaccard downstream).  Candidates co-locate
    via ``groupby(band, band_value)`` (hash-bucketed, vectorized
    self-merge), then the exact Hamming check verifies — the same
    bucketed shape as MinHash/LSH, no all-pairs pass.

    ``max_bucket`` caps degenerate band buckets exactly like the MinHash
    path: a hot 16-bit band value (templated/short docs sharing e.g. an
    all-zero band) would otherwise make the in-bucket candidate cartesian
    explode before the Hamming filter.  Pairs inside a dropped bucket can
    still surface through one of the doc pair's three other bands; truly
    identical floods are exact-dedup's job, not near-dup's.
    """
    import pyarrow as pa

    from ..functions.grouping import bucketed_group_apply

    def band_rows(batch: pa.Table) -> pa.Table:
        out = {"band": [], "band_value": [], "doc_id": [], "simhash": []}
        for i in range(batch.num_rows):
            h = simhash64(batch["text"][i].as_py())
            did = batch["doc_id"][i].as_py()
            for band in range(4):
                out["band"].append(band)
                out["band_value"].append((h >> (band * 16)) & 0xFFFF)
                out["doc_id"].append(did)
                out["simhash"].append(h)
        return pa.Table.from_pydict(
            {
                "band": pa.array(out["band"], pa.int32()),
                "band_value": pa.array(out["band_value"], pa.int32()),
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                # uint64 keeps the full fingerprint in an Arrow-native type
                "simhash": pa.array(
                    [x & 0xFFFFFFFFFFFFFFFF for x in out["simhash"]],
                    pa.uint64(),
                ),
            }
        )

    bands = docs_ds.map_batches(band_rows, batch_format="pyarrow")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["band", "band_value", "doc_id"])
        sz = d.groupby(["band", "band_value"])["doc_id"].transform("size")
        d = d[(sz >= 2) & (sz <= max_bucket)]
        p = d.merge(d, on=["band", "band_value"], suffixes=("_a", "_b"))
        p = p[p["doc_id_a"] < p["doc_id_b"]]
        if len(p) == 0:
            return pd.DataFrame(
                {"doc_a": pd.Series([], dtype="int64"),
                 "doc_b": pd.Series([], dtype="int64"),
                 "hamming": pd.Series([], dtype="int64")}
            )
        x = p["simhash_a"].to_numpy(dtype=np.uint64) ^ p[
            "simhash_b"
        ].to_numpy(dtype=np.uint64)
        # vectorized popcount via byte-view lookup
        lut = np.unpackbits(
            np.arange(256, dtype=np.uint8)[:, None], axis=1
        ).sum(axis=1)
        ham = lut[x.view(np.uint8).reshape(len(x), 8)].sum(axis=1)
        out = pd.DataFrame(
            {
                "doc_a": p["doc_id_a"].to_numpy(dtype=np.int64),
                "doc_b": p["doc_id_b"].to_numpy(dtype=np.int64),
                "hamming": ham.astype(np.int64),
            }
        )
        out = out[out["hamming"] <= max_hamming]
        return out.drop_duplicates(["doc_a", "doc_b"])

    cand = bucketed_group_apply(bands, ["band", "band_value"], bucket_pairs)
    # cross-band dedup of surviving pairs
    return bucketed_group_apply(
        cand, ["doc_a", "doc_b"],
        lambda df: df.drop_duplicates(["doc_a", "doc_b"]),
    )


# ---- embedding cosine near-dup ------------------------------------------


def embedding_dup_pairs(
    emb_ds,
    threshold: float = 0.99,
    n_clusters: int = 32,
    train_sample: int = 2048,
):
    """(vec_a, vec_b) pairs with cosine >= threshold, vec_a < vec_b.

    IVF-bucketed distributed shape: a bounded sample trains coarse k-means
    centroids (the only driver-side data), every vector is assigned to its
    **two** nearest centroids (multi-probe, so a near-dup pair straddling a
    Voronoi boundary still meets in at least one bucket — at thr≈0.99 the
    two vectors are nearly identical, so their top-2 centroid sets
    intersect), then ``groupby(bucket)`` runs the all-pairs cosine check
    inside each bucket and a final pair-key groupby de-dups pairs surfaced
    by both probes.  Nothing corpus-sized touches the driver; bucket size
    is N/n_clusters, so at corpus scale ``n_clusters`` grows with N (and
    the bucketed table becomes a physical Parquet partition, see
    similarity.py).
    """
    import ray

    from ..functions.grouping import bucketed_group_apply
    from .similarity import _normalize, kmeans_centroids

    sample = emb_ds.limit(train_sample).to_pandas()
    train = _normalize(
        np.stack(sample["embedding"].to_numpy()).astype(np.float64)
    )
    centroids = kmeans_centroids(train, n_clusters)
    cref = ray.put(centroids)

    def bucketize(batch: pa.Table) -> pa.Table:
        cents_ = ray.get(cref)
        vecs = np.stack(
            [np.asarray(v, dtype=np.float64)
             for v in batch["embedding"].to_pylist()]
        )
        vecs = _normalize(vecs)
        ids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        top2 = np.argsort(-(vecs @ cents_.T), axis=1)[:, :2]
        out_id, out_bucket, out_vec = [], [], []
        for r in range(len(ids)):
            # float64 bytes, not a list column: the vector rides the
            # pandas shuffle as a plain binary value (hashable schema)
            blob = vecs[r].tobytes()
            for b in {int(x) for x in top2[r]}:
                out_id.append(int(ids[r]))
                out_bucket.append(b)
                out_vec.append(blob)
        return pa.Table.from_pydict(
            {
                "vec_id": pa.array(out_id, pa.int64()),
                "bucket": pa.array(out_bucket, pa.int32()),
                "emb_f64": pa.array(out_vec, pa.binary()),
            }
        )

    bucketed = emb_ds.map_batches(bucketize, batch_format="pyarrow")

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        mat = np.stack([np.frombuffer(b, dtype=np.float64)
                        for b in g["emb_f64"]])
        ids = g["vec_id"].to_numpy()
        sims = mat @ mat.T
        ii, jj = np.where(sims >= threshold)
        keep = ii < jj
        a = ids[ii[keep]]
        b = ids[jj[keep]]
        lo = np.minimum(a, b).astype("int64")
        hi = np.maximum(a, b).astype("int64")
        return pd.DataFrame({"vec_a": lo, "vec_b": hi}).drop_duplicates()

    def buckets_pairs(df: pd.DataFrame) -> pd.DataFrame:
        outs = [bucket_pairs(g) for _, g in df.groupby("bucket",
                                                       sort=False)]
        return pd.concat(outs, ignore_index=True)

    pairs = bucketed_group_apply(
        bucketed, "bucket", buckets_pairs,
        empty_result={"vec_a": "int64", "vec_b": "int64"},
    )
    # cross-probe pair de-dup: a pair whose vectors share both top-2
    # centroids appears in two buckets
    return bucketed_group_apply(
        pairs, ["vec_a", "vec_b"],
        lambda df: df.drop_duplicates(["vec_a", "vec_b"]),
    )


# ---- near-dup clustering (connected components over the pair graph) ------


def dup_clusters(docs_ds, pairs_ds):
    """(doc_id, cluster_id) — connected components of the near-dup pair
    graph; ``cluster_id`` is the minimum doc_id in the component (docs in
    no pair are their own singleton cluster).  This is the operator that
    turns pairwise dedup output into "keep one doc per duplicate cluster".

    The components come from
    :func:`~..functions.graphs.min_label_components` over the pair graph
    with int64 labels, restricted to PAIR-INCIDENT nodes: near-dups are a
    small fraction of any corpus, so the label table is pair-graph-sized,
    never corpus-sized.  Up to ``graphs.DRIVER_MAX_PAIRS`` pairs (the
    normal dedup regime) union-find runs on the driver; above it,
    distributed min-label propagation runs for up to ``graphs.MAX_ITERS``
    rounds (extended to a hard cap, then ``RuntimeError``).  One final
    doc-keyed bucketed reduce attaches the labels to the full doc table (a
    label is ≤ its doc_id, so the attach is a plain min over {self-row,
    label-row}) — the ONLY corpus-wide shuffle in the operator.  Nothing
    corpus-sized touches the driver.
    """
    from ..functions.graphs import min_label_components
    from ..functions.grouping import bucketed_group_apply

    def self_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].astype("int64")
        return pd.DataFrame({"node": ids, "label": ids})

    def as_uv(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"u": df["doc_a"].astype("int64"),
                             "v": df["doc_b"].astype("int64")})

    def take_min(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("node", as_index=False)["label"].min()
        return out.astype("int64").rename(
            columns={"node": "doc_id", "label": "cluster_id"})

    singles = docs_ds.select_columns(["doc_id"]).map_batches(
        self_rows, batch_format="pandas"
    )
    labels = min_label_components(
        pairs_ds.map_batches(as_uv, batch_format="pandas"))
    return bucketed_group_apply(singles.union(labels), "node", take_min)


def dup_clusters_sql(pairs_sql: str) -> str:
    """Recursive-CTE oracle: transitive closure of the (symmetrized) pair
    graph, cluster id = min reachable doc_id; singletons fall back to their
    own id via the LEFT JOIN."""
    return f"""WITH RECURSIVE
p AS ({pairs_sql}),
e AS (SELECT doc_a AS u, doc_b AS v FROM p
      UNION SELECT doc_b, doc_a FROM p),
r(u, v) AS (
  SELECT u, u FROM (SELECT DISTINCT u FROM e)
  UNION
  SELECT e.u, r.v FROM e JOIN r ON e.v = r.u
)
SELECT d.doc_id,
  CAST(COALESCE(m.cid, d.doc_id) AS BIGINT) AS cluster_id
FROM documents d
LEFT JOIN (SELECT u, MIN(v) AS cid FROM r GROUP BY u) m
  ON d.doc_id = m.u"""


def dedup_keep(clusters_ds):
    """(cluster_id, keep_doc_id, n_members) — the APPLY step of near-dup
    dedup: one representative (the min doc_id == the cluster id) per
    cluster, with member counts.  A cluster-keyed two-phase min/count
    over :func:`dup_clusters` output."""
    from ..functions.grouping import two_phase_agg

    return two_phase_agg(
        clusters_ds, "cluster_id",
        {"keep_doc_id": ("doc_id", "min"), "n_members": ("doc_id", "count")},
    )


def dedup_keep_sql(pairs_sql: str) -> str:
    return f"""WITH clusters AS ({dup_clusters_sql(pairs_sql)})
SELECT cluster_id, MIN(doc_id) AS keep_doc_id,
  COUNT(*) AS n_members
FROM clusters GROUP BY cluster_id"""


# ---- benchmark decontamination -------------------------------------------

DECON_N = 4  # n-gram order: production decontamination uses 8-13-grams
# (GPT-3, Brown et al. 2020 appx. C); the synthetic vocabulary is ~30 words
# so 4-grams give a comparable collision profile at test scale
DECON_BENCH_MOD = 97  # "benchmark" = docs with doc_id % 97 == 0


def _distinct_word_ngrams(text: str, n: int) -> set[str]:
    w = text.split(" ")
    return {" ".join(w[i:i + n]) for i in range(len(w) - n + 1)}


def benchmark_ngram_set(
    docs_ds, n: int = DECON_N, bench_mod: int = DECON_BENCH_MOD
) -> set[str]:
    """Distinct word n-grams of the benchmark documents, collected on the
    driver.  The benchmark side of decontamination is genuinely tiny (eval
    suites are MBs against a 100 TB corpus — in production it arrives as
    its own small input, not a filter over the corpus), so collect + one
    ``ray.put`` broadcast is the scale-correct shape; only the corpus-side
    membership check streams."""

    def grams(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out: set[str] = set()
        for did, t in zip(ids, texts):
            if did % bench_mod == 0:
                out |= _distinct_word_ngrams(t, n)
        return pa.Table.from_pydict({"gram": pa.array(sorted(out),
                                                      pa.string())})

    bench: set[str] = set()
    for b in docs_ds.map_batches(grams, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        bench.update(b["gram"].to_pylist())
    return bench


def decontaminate(
    docs_ds, n: int = DECON_N, bench_mod: int = DECON_BENCH_MOD
):
    """(doc_id, n_grams, n_hit_grams, contaminated) for every NON-benchmark
    document: how many of its distinct word n-grams collide with the
    broadcast benchmark n-gram set (GPT-3-style eval-set decontamination).
    Row-local membership map against a broadcast set — no shuffle; the
    corpus side streams."""
    import ray

    bref = ray.put(benchmark_ngram_set(docs_ds, n, bench_mod))

    def fn(batch: pa.Table) -> pa.Table:
        from .base import worker_cached

        bench = worker_cached("decon_bench",
                              lambda: ray.get(bref),
                              bref.hex())
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = {"doc_id": [], "n_grams": [], "n_hit_grams": [],
               "contaminated": []}
        for did, t in zip(ids, texts):
            if did % bench_mod == 0:
                continue
            g = _distinct_word_ngrams(t, n)
            hits = len(g & bench)
            out["doc_id"].append(did)
            out["n_grams"].append(len(g))
            out["n_hit_grams"].append(hits)
            out["contaminated"].append(hits > 0)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out["doc_id"], pa.int64()),
                "n_grams": pa.array(out["n_grams"], pa.int64()),
                "n_hit_grams": pa.array(out["n_hit_grams"], pa.int64()),
                "contaminated": pa.array(out["contaminated"], pa.bool_()),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow")


DECONTAMINATE_SQL = f"""
WITH g AS (
  SELECT doc_id, list_distinct(list_transform(
    generate_series(1, len(string_split(text, ' ')) - {DECON_N - 1}),
    i -> array_to_string(string_split(text, ' ')[i:i + {DECON_N - 1}], ' ')
  )) AS grams
  FROM documents
),
bench AS (
  SELECT DISTINCT unnest(grams) AS gram FROM g
  WHERE doc_id % {DECON_BENCH_MOD} = 0
),
d AS (
  SELECT doc_id, unnest(grams) AS gram FROM g
  WHERE doc_id % {DECON_BENCH_MOD} <> 0
),
hits AS (
  SELECT d.doc_id, COUNT(b.gram) AS n_hit
  FROM d LEFT JOIN bench b USING (gram) GROUP BY d.doc_id
)
SELECT g.doc_id, CAST(len(grams) AS BIGINT) AS n_grams,
  CAST(COALESCE(h.n_hit, 0) AS BIGINT) AS n_hit_grams,
  COALESCE(h.n_hit, 0) > 0 AS contaminated
FROM g LEFT JOIN hits h ON g.doc_id = h.doc_id
WHERE g.doc_id % {DECON_BENCH_MOD} <> 0
"""


# ---- substring-level duplication (sampled char-gram fingerprints) ---------

SUBSTR_GRAM = 40  # char-gram length
SUBSTR_MAX_DF = 64  # grams in more docs than this are boilerplate noise
_SUBSTR_PLANT_MOD = 13


def plant_boilerplate(docs_ds, mod: int = _SUBSTR_PLANT_MOD):
    """Deterministically append a shared boilerplate block to doc pairs
    (docs ``13k`` and ``13k+1`` share block ``k``) — substring-level
    duplication the document-level kernels cannot see, as a pure function
    of ``doc_id`` (mirrored by the oracle's planting CTE)."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        out = []
        for did, t in zip(ids, texts):
            if did % mod <= 1:
                block = f"COMMON-BOILERPLATE-NOTICE-{did // mod} " * 3
                t = f"{t} {block}"
            out.append(t)
        return pa.Table.from_pydict(
            {"doc_id": batch["doc_id"], "text": pa.array(out, pa.string())}
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


def substring_dup_pairs(docs_ds, gram: int = SUBSTR_GRAM,
                        max_df: int = SUBSTR_MAX_DF):
    """(doc_a, doc_b, n_shared): doc pairs sharing sampled ``gram``-char
    substrings — substring-level dedup à la "Deduplicating Training Data
    Makes Language Models Better" (Lee et al. 2022), which document-level
    MinHash misses (a license header pasted into otherwise-different docs).

    CONTENT-DEFINED sampling (the winnowing/MOSS family): a position's
    char-gram is kept iff ``md5(gram)`` starts with hex ``'0'`` (1/16) —
    selection depends only on the substring's bytes, so the same shared
    block samples the same grams in every doc regardless of its offset
    (position-strided sampling would misalign across docs).  md5 keeps the
    DuckDB oracle exact.

    Scale shape: per-row gram emission (distinct per doc) → one
    gram-keyed bucketed reduce (df filter ``2..max_df`` bounds every
    group's pair cartesian, exactly the LSH ``max_bucket`` pattern —
    ultra-common grams are boilerplate noise, not dup signal) → one
    pair-keyed reduce summing shared-gram counts.  Two shuffles, nothing
    on the driver."""
    from ..functions.grouping import bucketed_group_apply, two_phase_agg

    def gram_rows(batch: pa.Table) -> pa.Table:
        out_g, out_id = [], []
        ids = batch["doc_id"].to_pylist()
        for did, t in zip(ids, batch["text"].to_pylist()):
            seen = set()
            for i in range(len(t) - gram + 1):
                g = t[i : i + gram]
                if g not in seen and hashlib.md5(
                    g.encode()
                ).hexdigest().startswith("0"):
                    seen.add(g)
            out_g.extend(seen)
            out_id.extend([did] * len(seen))
        return pa.Table.from_pydict(
            {
                "g": pa.array(out_g, pa.string()),
                "doc_id": pa.array(out_id, pa.int64()),
            }
        )

    grams = docs_ds.map_batches(gram_rows, batch_format="pyarrow")

    def gram_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates(["g", "doc_id"])
        sz = d.groupby("g")["doc_id"].transform("size")
        d = d[(sz >= 2) & (sz <= max_df)]
        p = d.merge(d, on="g", suffixes=("_a", "_b"))
        p = p.loc[p["doc_id_a"] < p["doc_id_b"], ["doc_id_a", "doc_id_b"]]
        out = p.groupby(["doc_id_a", "doc_id_b"], as_index=False).size()
        out.columns = ["doc_a", "doc_b", "n_shared"]
        return out.astype("int64")

    per_gram = bucketed_group_apply(grams, "g", gram_pairs)
    return two_phase_agg(per_gram, ["doc_a", "doc_b"],
                         {"n_shared": ("n_shared", "sum")})


SUBSTRING_DUP_SQL = f"""
WITH planted AS (
  SELECT doc_id,
    CASE WHEN doc_id % {_SUBSTR_PLANT_MOD} <= 1
      THEN text || ' ' || repeat(
        'COMMON-BOILERPLATE-NOTICE-'
        || CAST(doc_id // {_SUBSTR_PLANT_MOD} AS VARCHAR) || ' ', 3)
      ELSE text END AS text
  FROM documents
),
pos AS (
  SELECT doc_id, text,
    unnest(generate_series(1, len(text) - {SUBSTR_GRAM - 1})) AS i
  FROM planted
),
dg AS (
  SELECT DISTINCT doc_id, substr(text, i, {SUBSTR_GRAM}) AS g
  FROM pos
  WHERE substr(md5(substr(text, i, {SUBSTR_GRAM})), 1, 1) = '0'
),
keep AS (
  SELECT g FROM dg GROUP BY g
  HAVING COUNT(*) BETWEEN 2 AND {SUBSTR_MAX_DF}
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
  COUNT(DISTINCT a.g) AS n_shared
FROM dg a JOIN keep USING (g) JOIN dg b USING (g)
WHERE a.doc_id < b.doc_id
GROUP BY a.doc_id, b.doc_id
"""


def near_dup_check(docs_ds, pairs_df=None, threshold: float = 0.7,
                   high_pct: int = 90):
    """Boolean-verdict accuracy gate for the MinHash/LSH chain — the
    approximate operator's guarantees as a driver-decidable predicate
    (same pattern as the sketch ``*_check`` queries):

    - PRECISION: every surfaced pair's in-bucket exact verification must
      clear the threshold (restated from the output data, not assumed).
    - RECALL at the high end: every pair whose EXACT blocked word-3-gram
      Jaccard (:func:`ngram_jaccard_pairs`, SQL-expressible) reaches
      ``high_pct`` — far above the LSH S-curve knee for 128 perms — must
      appear in the LSH pair set.

    Emits one row ``(n_high_pairs, n_high_covered, all_pairs_verified)``;
    the DuckDB oracle computes ``n_high_pairs`` exactly and expects
    ``n_high_covered = n_high_pairs`` and ``TRUE`` — a hash-exact match IS
    the bound check.  Driver-side data is pair-graph-sized (a diagnostics
    query, bounded by the corpus dup rate, not its size)."""
    if pairs_df is None:
        pairs_df = near_dup_pairs_distributed(
            docs_ds, threshold=threshold
        ).to_pandas()
    elif hasattr(pairs_df, "to_pandas"):
        pairs_df = pairs_df.to_pandas()
    truth = ngram_jaccard_pairs(docs_ds, min_pct=high_pct).to_pandas()
    lsh_set = set(zip(pairs_df["doc_a"], pairs_df["doc_b"]))
    covered = int(sum(
        (a, b) in lsh_set
        for a, b in zip(truth["doc_a"], truth["doc_b"])
    ))
    verified = bool(
        (pairs_df["jaccard_pct"] >= int(round(threshold * 100))).all()
    )
    return pd.DataFrame(
        {
            "n_high_pairs": pd.Series([len(truth)], dtype="int64"),
            "n_high_covered": pd.Series([covered], dtype="int64"),
            "all_pairs_verified": pd.Series([verified], dtype="bool"),
        }
    )


def near_dup_check_sql(high_pct: int = 90) -> str:
    return f"""
WITH p AS ({ngram_jaccard_sql(min_pct=high_pct)})
SELECT COUNT(*) AS n_high_pairs, COUNT(*) AS n_high_covered,
       TRUE AS all_pairs_verified
FROM p
"""


NEAR_DUP_CHECK_SQL = near_dup_check_sql()


def banded_levenshtein(a: str, b: str, k: int) -> int:
    """Edit distance, capped: returns ``k + 1`` as soon as the true
    distance provably exceeds ``k`` (Ukkonen early exit — for unrelated
    texts the row minimum crosses ``k`` within ~k rows, so the common
    case costs O(k·|b|) instead of O(|a|·|b|)).  Vectorized row DP: the
    insertion chain's left-to-right dependency resolves with one
    ``minimum.accumulate`` pass (cur[j] = min over l≤j of cur[l]+(j−l))."""
    la, lb = len(a), len(b)
    if abs(la - lb) > k:
        return k + 1
    if la == 0 or lb == 0:
        return max(la, lb)
    bn = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    idx = np.arange(lb + 1, dtype=np.int64)
    prev = idx.copy()
    for i, ca in enumerate(a, 1):
        sub = prev[:-1] + (bn != ord(ca))
        cur = np.empty(lb + 1, dtype=np.int64)
        cur[0] = i
        cur[1:] = np.minimum(prev[1:] + 1, sub)
        chain = np.minimum.accumulate(cur - idx) + idx
        cur = np.minimum(cur, chain)
        if cur.min() > k:
            return k + 1
        prev = cur
    return int(min(prev[-1], k + 1))


def edit_dist_pairs(docs_ds, max_dist: int = 8, max_block: int = 32):
    """(doc_a, doc_b, dist) — fuzzy-match near-dup via EXACT character
    edit distance ≤ ``max_dist`` between distinct-text representatives,
    compared within (lang, length-bucket) blocks — with adjacent-bucket
    spill, so pairs straddling a bucket boundary are found too (a
    dist ≤ k pair has |len diff| ≤ k).  The third dedup
    similarity family next to set-overlap (Jaccard) and bit-fingerprint
    (SimHash): edit distance catches small in-place edits that shift
    every downstream shingle.

    Scale shape, in order:
    1. DISTINCT-REP REDUCE: one md5-keyed bucketed reduce collapses the
       corpus to one representative (min doc_id) per distinct text —
       exact duplicates (the bulk of a crawled corpus) never reach the
       quadratic kernel.
    2. The same blocking + replicated sub-block salting as
       :func:`ngram_jaccard_pairs`: a counting pass sizes per-block salt
       counts, every rep replicates to its cells, every in-block pair
       meets in exactly one cell, and no reducer holds more than
       ``2·max_block`` reps.
    3. In-cell compare runs :func:`banded_levenshtein` (O(k·len) with
       early exit), with the length-difference prefilter free from the
       blocking key.

    Oracle: DuckDB ``levenshtein()`` over the same reps/blocks
    (``EDIT_DIST_SQL``) — value-exact.
    """
    import ray

    from ..functions.grouping import bucketed_group_apply

    def rep_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df[["doc_id", "lang", "n_chars", "text"]].copy()
        out["md5"] = [md5_hex(t) for t in out["text"]]
        return out.sort_values("doc_id").groupby(
            "md5", as_index=False
        ).first()

    def rep_merge(df: pd.DataFrame) -> pd.DataFrame:
        out = df.sort_values("doc_id").groupby(
            "md5", as_index=False
        ).first()
        out["lb"] = (out["n_chars"] // 64).astype("int64")
        return out[["doc_id", "lang", "lb", "n_chars", "text"]].astype(
            {"doc_id": "int64", "n_chars": "int64"}
        )

    reps = bucketed_group_apply(
        docs_ds.select_columns(
            ["doc_id", "lang", "n_chars", "text"]
        ).map_batches(rep_partial, batch_format="pandas"),
        "md5",
        rep_merge,
    )

    # BOUNDARY SPILL: a near-dup pair at dist ≤ max_dist has
    # |len diff| ≤ max_dist, so a cross-bucket pair forces the higher
    # text's ``n_chars % 64 < max_dist`` — replicating exactly those reps
    # to the adjacent LOWER bucket (as non-home "visitors") makes every
    # boundary-straddling pair meet once, in the lower bucket.  Visitor ×
    # visitor pairs are skipped (they meet natively in their own bucket),
    # so no pair is emitted twice.  Cost: ≤ max_dist/64 of reps get one
    # extra blocking row.
    def block_rows(df: pd.DataFrame) -> pd.DataFrame:
        native = df.assign(home=True)
        spill = df[(df["n_chars"] % 64 < max_dist) & (df["lb"] > 0)].copy()
        spill["lb"] = spill["lb"] - 1
        spill["home"] = False
        out = pd.concat([native, spill], ignore_index=True)
        return out[["doc_id", "lang", "lb", "home", "text"]]

    blocked = reps.map_batches(
        block_rows, batch_format="pandas"
    ).materialize()  # blocked rep table ~ distinct-text size, reused twice

    counts = (
        blocked.map_batches(
            lambda df: df.groupby(["lang", "lb"], as_index=False).agg(
                cnt=("doc_id", "size")
            ),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["lang", "lb"], as_index=False)["cnt"].sum()
    )
    salts = {
        (r.lang, int(r.lb)): -(-int(r.cnt) // max_block)
        for r in counts.itertuples(index=False)
    }
    salts_ref = ray.put(salts)

    cells = _salted_cells(blocked, salts_ref, "editdist_salts")

    def cell_pairs(df: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b, dists = [], [], []

        def compare(ids_a, txt_a, home_a, ids_b, txt_b, home_b,
                    cross: bool):
            for ii in range(len(ids_a)):
                jr = range(len(ids_b)) if cross else range(ii + 1, len(ids_b))
                for jj in jr:
                    if not (home_a[ii] or home_b[jj]):
                        # visitor × visitor: this pair meets natively in
                        # its own (higher) bucket — skip to avoid dupes
                        continue
                    d = banded_levenshtein(txt_a[ii], txt_b[jj], max_dist)
                    if d <= max_dist:
                        a, b = int(ids_a[ii]), int(ids_b[jj])
                        rows_a.append(min(a, b))
                        rows_b.append(max(a, b))
                        dists.append(d)

        for (_, _, ci, cj), g in df.groupby(["lang", "lb", "ci", "cj"]):
            if len(g) < 2:
                continue
            if ci == cj:
                g = g.sort_values("doc_id")
                compare(g["doc_id"].to_numpy(), g["text"].tolist(),
                        g["home"].to_numpy(),
                        g["doc_id"].to_numpy(), g["text"].tolist(),
                        g["home"].to_numpy(),
                        cross=False)
            else:
                ga = g[g["salt"] == ci]
                gb = g[g["salt"] == cj]
                compare(ga["doc_id"].to_numpy(), ga["text"].tolist(),
                        ga["home"].to_numpy(),
                        gb["doc_id"].to_numpy(), gb["text"].tolist(),
                        gb["home"].to_numpy(),
                        cross=True)
        return pd.DataFrame(
            {
                "doc_a": pd.Series(rows_a, dtype="int64"),
                "doc_b": pd.Series(rows_b, dtype="int64"),
                "dist": pd.Series(dists, dtype="int64"),
            }
        )

    return bucketed_group_apply(
        cells, ["lang", "lb", "ci", "cj"], cell_pairs,
        empty_result={"doc_a": "int64", "doc_b": "int64", "dist": "int64"},
    )


def edit_dist_sql(max_dist: int = 8) -> str:
    # mirrors the Ray blocking exactly, INCLUDING the adjacent-bucket
    # spill: same-bucket pairs, plus cross-bucket pairs where the
    # higher-bucket text sits within max_dist of the bucket floor
    # (n_chars % 64 < max_dist) — the only way a dist ≤ max_dist pair can
    # straddle a boundary, since |len diff| ≤ edit distance
    return f"""
WITH reps AS (
  SELECT MIN(doc_id) AS doc_id, text FROM documents GROUP BY text
),
rr AS (
  SELECT r.doc_id, r.text, d.lang, d.n_chars // 64 AS lb,
         d.n_chars % 64 AS lr
  FROM reps r JOIN documents d ON d.doc_id = r.doc_id
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
  CAST(levenshtein(a.text, b.text) AS BIGINT) AS dist
FROM rr a JOIN rr b
  ON a.lang = b.lang AND a.doc_id < b.doc_id
 AND (a.lb = b.lb
      OR (b.lb = a.lb + 1 AND b.lr < {max_dist})
      OR (a.lb = b.lb + 1 AND a.lr < {max_dist}))
WHERE levenshtein(a.text, b.text) <= {max_dist}
"""


EDIT_DIST_SQL = edit_dist_sql()
