"""Mergeable streaming sketches: HyperLogLog distinct counting and
Misra–Gries heavy hitters.

Both are the constant-memory scale path for aggregates whose exact forms
(`events_distinct_users`, `docs_top_tokens`) shuffle one row per distinct
key: a sketch partial is a FIXED-SIZE summary per batch (2^p registers /
k counters), the merge is associative and commutative, so the reduce
moves #batches × O(1) bytes regardless of corpus cardinality.  Exact
operators stay the oracle; the sketches carry published error bounds
(HLL: ~1.04/sqrt(2^p) relative error, Flajolet et al. 2007; MG: counts
under-estimated by at most n/(k+1), Misra & Gries 1982) pinned by tests.

Shapes, not classes: a partial is a plain numpy array / dict so it
serializes cheaply through the object store inside arrow blocks.
"""

from __future__ import annotations

from ..sources.readers import table_from_pandas

from ..sources.readers import read_parquet_clean

import hashlib
from collections import Counter

import numpy as np

# --- HyperLogLog -----------------------------------------------------------

HLL_P = 12  # 4096 registers -> ~1.6% relative error
_HLL_M = 1 << HLL_P


def _hash64(values) -> np.ndarray:
    """Deterministic 64-bit hashes (md5-based: stable across processes,
    unlike Python's salted hash())."""
    out = np.empty(len(values), dtype=np.uint64)
    for i, v in enumerate(values):
        h = hashlib.md5(str(v).encode()).digest()
        out[i] = int.from_bytes(h[:8], "little")
    return out


def hll_partial(values) -> np.ndarray:
    """Fold a batch of values into a fresh register array (uint8[2^p])."""
    regs = np.zeros(_HLL_M, dtype=np.uint8)
    if len(values) == 0:
        return regs
    h = _hash64(values)
    idx = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    rest = h << np.uint64(HLL_P)  # remaining 64-p bits, left-aligned
    # rho = position of the leftmost 1-bit in the remaining bits (1-based)
    rho = np.ones(len(h), dtype=np.uint8)
    mask = np.uint64(1) << np.uint64(63)
    rem = rest.copy()
    # vectorized leading-zero count over the 64-p usable bits
    for _ in range(64 - HLL_P):
        zero = (rem & mask) == 0
        if not zero.any():
            break
        rho[zero] += 1
        rem = rem << np.uint64(1)
        rem[~zero] = mask  # freeze finished lanes
    np.maximum.at(regs, idx, rho)
    return regs


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Register-wise max: associative, commutative, idempotent."""
    return np.maximum(a, b)


def hll_estimate(regs: np.ndarray) -> int:
    """Standard HLL estimator with the small-range (linear counting)
    correction."""
    m = float(_HLL_M)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.power(2.0, -regs.astype(np.float64)).sum()
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)
    return int(round(est))


# --- Misra–Gries heavy hitters --------------------------------------------


def mg_partial(tokens, k: int) -> dict[str, int]:
    """One-pass Misra–Gries summary of a token stream with k counters."""
    c: Counter = Counter()
    for t in tokens:
        if t in c:
            c[t] += 1
        elif len(c) < k:
            c[t] = 1
        else:
            dead = [key for key in c if c[key] == 1]
            for key in c:
                c[key] -= 1
            for key in dead:
                del c[key]
    return dict(c)


def mg_merge(a: dict[str, int], b: dict[str, int], k: int) -> dict[str, int]:
    """Merge two MG summaries (Agarwal et al. 2013): add counts, then
    subtract the (k+1)-th largest and drop non-positive counters.  The
    result keeps the combined streams' n/(k+1) under-estimate bound."""
    c = Counter(a)
    c.update(b)
    if len(c) <= k:
        return dict(c)
    cut = sorted(c.values(), reverse=True)[k]
    return {t: n - cut for t, n in c.items() if n - cut > 0}


# --- Bloom filter (broadcast semi-join pre-filter) -------------------------


def _mix64(x: np.ndarray, seed: int) -> np.ndarray:
    """splitmix64-style integer mixer: deterministic, vectorized, stable
    across processes (no Python hash salt)."""
    z = x.astype(np.uint64) + np.uint64(
        (seed * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    )
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bloom_bit_positions(keys: np.ndarray, m_bits: int,
                         k_hashes: int) -> np.ndarray:
    """[len(keys), k] bit indices via double hashing h1 + i*h2 (Kirsch &
    Mitzenmacher 2006: two independent hashes simulate k)."""
    h1 = _mix64(keys, 1)
    h2 = _mix64(keys, 2) | np.uint64(1)  # odd, so strides cover the table
    i = np.arange(k_hashes, dtype=np.uint64)
    return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)).astype(
        np.int64
    )


def bloom_partial(keys: np.ndarray, m_bits: int, k_hashes: int) -> np.ndarray:
    """Fold a batch of int64 keys into a fresh bitmap (uint8[m/8])."""
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    if len(keys) == 0:
        return bits
    pos = _bloom_bit_positions(np.asarray(keys, dtype=np.int64), m_bits,
                               k_hashes).ravel()
    np.bitwise_or.at(bits, pos >> 3, np.uint8(1) << (pos & 7).astype(np.uint8))
    return bits


def bloom_fold(bitmaps, m_bits: int) -> np.ndarray:
    """OR-fold per-batch bitmaps (associative/commutative/idempotent)."""
    acc = np.zeros(m_bits // 8, dtype=np.uint8)
    for b in bitmaps:
        acc |= b
    return acc


def bloom_may_contain(bits: np.ndarray, keys: np.ndarray, m_bits: int,
                      k_hashes: int) -> np.ndarray:
    """Vectorized membership probe: True = maybe present (one-sided error:
    never a false negative), False = definitely absent."""
    if len(keys) == 0:
        return np.zeros(0, dtype=bool)
    pos = _bloom_bit_positions(np.asarray(keys, dtype=np.int64), m_bits,
                               k_hashes)
    hit = (bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
    return hit.all(axis=1).astype(bool)


# --- Dataset-level operators ----------------------------------------------


def events_user_hll(sf_dir: str):
    """Approximate distinct users per event type via mergeable HLL
    sketches — the constant-shuffle counterpart of the exact
    ``events_distinct_users``.

    The partial is #types × 4 KiB of registers per batch (independent of
    user cardinality); the tiny groupby merges register-wise.  Rows-only
    driver check (a hash family is not SQL-expressible); the error bound
    vs the exact count is pinned by ``test_sketches.py``.
    """
    import pandas as pd
    import pyarrow as pa
    import ray

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        rows = [
            {"event_type": et, "regs": hll_partial(g["user_id"].to_numpy())
             .tobytes()}
            for et, g in df.groupby("event_type")
        ]
        return pa.Table.from_pylist(
            rows,
            schema=pa.schema(
                [("event_type", pa.string()), ("regs", pa.binary())]
            ),
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            regs = np.zeros(_HLL_M, dtype=np.uint8)
            for blob in g["regs"]:
                regs = hll_merge(regs, np.frombuffer(blob, dtype=np.uint8))
            rows.append({"event_type": et,
                         "n_users_approx": hll_estimate(regs)})
        return pd.DataFrame(rows)

    from .grouping import bucketed_group_apply

    # #batches x #types fixed-size register rows
    return bucketed_group_apply(
        partials, "event_type", merge,
        empty_result={"event_type": "object", "n_users_approx": "int64"},
    )


def docs_top_tokens_mg(sf_dir: str, k: int = 20, counters: int = 256):
    """Approximate heavy-hitter tokens via mergeable Misra–Gries
    summaries — the constant-shuffle counterpart of the exact
    ``docs_top_tokens`` (whose combiner still shuffles one row per
    DISTINCT token; MG caps the partial at ``counters`` entries no matter
    the vocabulary).

    Returns the top-``k`` surviving counters ordered by under-estimate.
    Guarantee (pinned by test): any token with true count > n/(counters+1)
    survives, and reported counts under-estimate by at most n/(counters+1).
    """
    import pandas as pd
    import pyarrow as pa
    import ray

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )

    # one summary per batch as ONE list-valued row, so the fold stage sees
    # summary boundaries without any tagging scheme
    summary_schema = pa.schema(
        [
            ("tokens", pa.list_(pa.string())),
            ("mg_counts", pa.list_(pa.int64())),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        toks: list[str] = []
        for t in batch["text"].to_pylist():
            toks.extend(t.split(" "))
        summ = mg_partial(toks, counters)
        return pa.Table.from_pydict(
            {
                "tokens": [list(summ.keys())],
                "mg_counts": [list(summ.values())],
            },
            schema=summary_schema,
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def fold(batch: pa.Table) -> pa.Table:
        acc: dict[str, int] = {}
        for toks, cnts in zip(
            batch["tokens"].to_pylist(), batch["mg_counts"].to_pylist()
        ):
            acc = mg_merge(acc, dict(zip(toks, cnts)), counters)
        return pa.Table.from_pydict(
            {
                "tokens": [list(acc.keys())],
                "mg_counts": [list(acc.values())],
            },
            schema=summary_schema,
        )

    # summaries are ≤ counters entries each: fold within each block first
    # (tree-reduce level 1), then one task folds the survivors — the same
    # associative merge at both levels
    merged = (
        partials.map_batches(fold, batch_format="pyarrow")
        .repartition(1)
        .map_batches(fold, batch_format="pyarrow", batch_size=None)
    )

    def explode(batch: pa.Table) -> pa.Table:
        toks = batch["tokens"].to_pylist()[0]
        cnts = batch["mg_counts"].to_pylist()[0]
        return pa.Table.from_pydict(
            {
                "token": pa.array(toks, pa.string()),
                "mg_count": pa.array(cnts, pa.int64()),
            }
        )

    def topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().sort_values(
            ["mg_count", "token"], ascending=[False, True]
        ).head(k)
        return table_from_pandas(df, preserve_index=False)

    # the fold output is ONE summary row (≤ counters entries): explode and
    # rank it in-task — a Sort all-to-all over one tiny block buys nothing
    return merged.map_batches(explode, batch_format="pyarrow").map_batches(
        topk, batch_format="pyarrow", batch_size=None
    )


# --- fixed-histogram quantile sketch ----------------------------------------

HIST_BINS = 1024


def hist_partial(values: np.ndarray, lo: float, hi: float,
                 bins: int = HIST_BINS) -> np.ndarray:
    """Fold a batch of values into fixed equi-width bin counts (int64[bins])
    over the known [lo, hi] range."""
    counts = np.zeros(bins, dtype=np.int64)
    if len(values) == 0 or hi <= lo:
        counts[0] += len(values)
        return counts
    idx = np.clip(
        ((values - lo) / (hi - lo) * bins).astype(np.int64), 0, bins - 1
    )
    np.add.at(counts, idx, 1)
    return counts


def hist_quantile(counts: np.ndarray, q: float, lo: float, hi: float) -> float:
    """Value of the q-quantile from merged bin counts: upper edge of the
    first bin whose cumulative count reaches ceil(q*n) — within one bin
    width (hi-lo)/bins of the exact order statistic."""
    n = int(counts.sum())
    if n == 0:
        return lo
    target = max(1, int(np.ceil(q * n)))
    b = int(np.searchsorted(np.cumsum(counts), target))
    return lo + (hi - lo) * (b + 1) / len(counts)


def _value_ranges(ds):
    """(event_type, lo, hi): exact per-type value range, a two-phase
    min/max over O(#types) partial rows."""
    from .grouping import two_phase_agg

    return two_phase_agg(
        ds, "event_type", {"lo": ("value", "min"), "hi": ("value", "max")},
    ).to_pandas()


def events_value_quantiles_hist(sf_dir: str, bins: int = HIST_BINS):
    """Approximate per-type value quantiles (p50/p90/p99) via a mergeable
    fixed-histogram sketch — the constant-shuffle counterpart of the exact
    ``events_type_quantiles`` distribution reduce (which shuffles one row
    per DISTINCT value; the histogram partial is a fixed ``bins × 8`` bytes
    per batch no matter the value cardinality).

    Two passes: (1) exact per-type min/max (an O(#types) aggregate), whose
    tiny result broadcasts into (2) per-type bin-count partials merged by
    vector add.  Deterministic; error ≤ one bin width (max-min)/bins per
    quantile, pinned against the exact operator by ``test_sketches.py``.
    Rows-only driver check (bin edges are not an SQL-faithful quantile).
    """
    import pandas as pd
    import pyarrow as pa
    import ray

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    # pass 1: per-type exact range — partials are O(#types) rows
    ranges = _value_ranges(ds)
    range_ref = ray.put(
        {r.event_type: (float(r.lo), float(r.hi))
         for r in ranges.itertuples(index=False)}
    )

    def partial(batch: pa.Table) -> pa.Table:
        from ..stages.base import worker_cached

        rng = worker_cached("hist_ranges",
                            lambda: ray.get(range_ref),
                            range_ref.hex())
        df = batch.to_pandas()
        rows = []
        for et, g in df.groupby("event_type"):
            lo, hi = rng[et]
            rows.append(
                {"event_type": et,
                 "counts": hist_partial(
                     g["value"].to_numpy(dtype=np.float64), lo, hi, bins
                 ).tobytes()}
            )
        return pa.Table.from_pylist(
            rows,
            schema=pa.schema(
                [("event_type", pa.string()), ("counts", pa.binary())]
            ),
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rng = ray.get(range_ref)
        rows = []
        for et, g in df.groupby("event_type", sort=False):
            counts = np.zeros(bins, dtype=np.int64)
            for blob in g["counts"]:
                counts += np.frombuffer(blob, dtype=np.int64)
            lo, hi = rng[et]
            rows.append({
                "event_type": et,
                "n": int(counts.sum()),
                "p50": hist_quantile(counts, 0.50, lo, hi),
                "p90": hist_quantile(counts, 0.90, lo, hi),
                "p99": hist_quantile(counts, 0.99, lo, hi),
            })
        return pd.DataFrame(rows)

    from .grouping import bucketed_group_apply

    # the merge input is #batches × #types fixed-size summary rows
    return bucketed_group_apply(
        partials, "event_type", merge,
        empty_result={"event_type": "object", "n": "int64",
                      "p50": "float64", "p90": "float64", "p99": "float64"},
    )


# --- boolean-verdict bound checks (driver-verifiable sketch accuracy) -------
#
# A hash family is not SQL-expressible, but its PUBLISHED ERROR BOUND is a
# decidable predicate — so each sketch gets a companion query that computes
# both the sketch and its exact counterpart and returns booleans, while the
# SQL oracle returns the exact values plus literal TRUE.  A hash-exact
# driver match therefore *is* the bound check (the driver verifies the
# accuracy claim, not just row counts).


def events_user_hll_check(sf_dir: str):
    """(event_type, n_users, within_bound): the HLL estimate must sit
    within the 3-sigma Flajolet bound (3 x 1.04/sqrt(2^p) ~ 4.9% at p=12)
    of the exact distinct count.  Both sides are existing operators; the
    comparison joins two #event_type-sized results on the driver."""
    import pandas as pd

    from ..pipelines.relational import events_distinct_users

    approx = events_user_hll(sf_dir).to_pandas()
    exact = events_distinct_users(sf_dir).to_pandas()
    m = exact.merge(approx, on="event_type")
    bound = 3 * 1.04 / (_HLL_M ** 0.5)
    ok = (m["n_users_approx"] - m["n_users"]).abs() / m["n_users"] <= bound
    return pd.DataFrame(
        {
            "event_type": m["event_type"],
            "n_users": m["n_users"].astype("int64"),
            "within_bound": ok.astype(bool),
        }
    )


HLL_CHECK_SQL = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_users,
       TRUE AS within_bound
FROM events GROUP BY event_type
"""


def docs_top_tokens_mg_check(sf_dir: str, counters: int = 256):
    """(token, cnt, in_mg, count_within_bound) for every token whose TRUE
    count exceeds n/(counters+1) — the Misra-Gries survival guarantee set.
    Checks both guarantees: each such token survives the merged summary,
    and its reported count under-estimates by at most n/(counters+1).

    The exact side is a map-side count combiner + one token-keyed bucketed
    reduce; the guarantee set is bounded (< counters+1 tokens by
    definition), so the final comparison is a tiny driver-side join."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from .grouping import text_tokens, two_phase_agg

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["text"]
    )

    counts = two_phase_agg(ds, "token", {"cnt": ("token", "count")},
                           prep=text_tokens).materialize()
    agg = counts.sum("cnt")
    n = int(agg) if not isinstance(agg, dict) else int(agg["sum(cnt)"])
    thresh = n / (counters + 1)

    def keep_guaranteed(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater(pc.multiply(batch["cnt"], counters + 1), n)
        )

    heavy = counts.map_batches(
        keep_guaranteed, batch_format="pyarrow"
    ).to_pandas()

    mg = docs_top_tokens_mg(sf_dir, k=counters, counters=counters).to_pandas()
    mg_map = dict(zip(mg["token"], mg["mg_count"].astype(int)))

    in_mg = heavy["token"].isin(mg_map).to_numpy()
    under = np.array(
        [
            t in mg_map and 0 <= c - mg_map[t] <= thresh
            for t, c in zip(heavy["token"], heavy["cnt"])
        ],
        dtype=bool,
    )
    out = pd.DataFrame(
        {
            "token": heavy["token"],
            "cnt": heavy["cnt"].astype("int64"),
            "in_mg": in_mg,
            "count_within_bound": under,
        }
    )
    return out.sort_values("token").reset_index(drop=True)


def mg_check_sql(counters: int = 256) -> str:
    return f"""
WITH tok AS (
  SELECT unnest(string_split(text, ' ')) AS token FROM documents
),
cnt AS (SELECT token, COUNT(*) AS cnt FROM tok GROUP BY token),
tot AS (SELECT SUM(cnt) AS n FROM cnt)
SELECT token, cnt, TRUE AS in_mg, TRUE AS count_within_bound
FROM cnt, tot
WHERE cnt * {counters + 1} > n
"""


MG_CHECK_SQL = mg_check_sql()


def events_value_quantiles_hist_check(sf_dir: str, bins: int = HIST_BINS):
    """(event_type, p50_ok, p90_ok): the histogram-sketch quantiles must
    land within one bin width ((max-min)/bins per type) of the exact
    quantile_disc values from the ``events_type_quantiles`` distribution
    reduce (which reports integer cents — the 0.005 rounding slack is added
    to the bound).  Both inputs are #event_type-sized results."""
    import pandas as pd

    from ..pipelines.relational import events_type_quantiles

    approx = events_value_quantiles_hist(sf_dir, bins=bins).to_pandas()
    exact = events_type_quantiles(sf_dir).to_pandas()

    # per-type value range (same two-column pruned read as the sketch)
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "value"]
    )

    ranges = _value_ranges(ds)
    m = approx.merge(exact, on="event_type").merge(ranges, on="event_type")
    width = (m["hi"] - m["lo"]) / bins
    slack = width + 0.005 + 1e-9  # bin width + cents rounding
    p50_ok = (m["p50"] - m["p50_cents"] / 100.0).abs() <= slack
    p90_ok = (m["p90"] - m["p90_cents"] / 100.0).abs() <= slack
    return pd.DataFrame(
        {
            "event_type": m["event_type"],
            "p50_ok": p50_ok.astype(bool),
            "p90_ok": p90_ok.astype(bool),
        }
    )


HIST_CHECK_SQL = """
SELECT event_type, TRUE AS p50_ok, TRUE AS p90_ok
FROM events GROUP BY event_type
"""
