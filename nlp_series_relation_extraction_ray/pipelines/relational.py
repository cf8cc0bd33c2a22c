"""Relational pipelines over the TPC-H-ish tables (read → prune → partial
aggregate → small groupby), demonstrating the engine's aggregate / join /
sort / limit operators in their scale-correct shapes:

- column pruning at the read (``read_parquet(columns=...)``),
- map-side partial aggregation before every groupby (the combiner),
- broadcast joins for dimension tables, shuffle join for fact⋈fact,
- fixed-point cents for money sums (order-independent, oracle-exact).
"""

from __future__ import annotations

from ..sources.readers import table_from_pandas

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.joins import broadcast_join, cents, shuffle_join


def _read(sf_dir: str, table: str, columns=None):
    from ..sources.readers import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


def _read_clean(path, columns=None):
    from ..sources.readers import read_parquet_clean

    return read_parquet_clean(path, columns=columns)


# --- Q1: pricing summary (filter -> partial agg -> groupby merge) ---------

_Q1_CUTOFF = np.datetime64("1998-09-03")  # l_shipdate < this


def q1_pricing_summary(sf_dir: str):
    from ..functions.grouping import two_phase_agg

    ds = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate",
        ],
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"].to_numpy() < _Q1_CUTOFF]
        price = df["l_extendedprice"].to_numpy()
        disc = df["l_discount"].to_numpy()
        tax = df["l_tax"].to_numpy()
        return df.assign(
            # round-to-nearest like the SQL CAST(l_quantity AS BIGINT):
            # plain astype truncates toward zero and only agrees on
            # integral TPC-H quantities
            qty=np.rint(df["l_quantity"].to_numpy()).astype(np.int64),
            base_cents=cents(price),
            disc_cents=cents(price * (1.0 - disc)),
            charge_cents=cents(price * (1.0 - disc) * (1.0 + tax)),
        )

    # partials are #batches × 6 rows, never a lineitem row
    return two_phase_agg(
        ds, ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("qty", "sum"),
            "sum_base_cents": ("base_cents", "sum"),
            "sum_disc_cents": ("disc_cents", "sum"),
            "sum_charge_cents": ("charge_cents", "sum"),
            "count_order": ("qty", "count"),
        },
        prep=prep,
    )


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
  CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
  CAST(SUM(CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
    AS sum_base_cents,
  CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
    AS BIGINT)) AS BIGINT) AS sum_disc_cents,
  CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * (1 + l_tax) * 100
    + 0.5) AS BIGINT)) AS BIGINT) AS sum_charge_cents,
  COUNT(*) AS count_order
FROM lineitem
WHERE l_shipdate < TIMESTAMP '1998-09-03'
GROUP BY l_returnflag, l_linestatus
"""


# --- Q3-ish: top revenue orders for one segment (broadcast dim join) ------


def q3_top_orders(sf_dir: str, segment: str = "BUILDING", k: int = 10):
    """Top-k revenue orders for one customer segment.

    Scale shape: **only the filtered custkey set is broadcast** (customer is
    a dimension table, read column-pruned on the driver).  Both fact tables
    — orders and lineitem — stream through ``map_batches``; the semi-join
    orders⋈lineitem on orderkey is a single union + ``groupby(l_orderkey)``
    shuffle (orders rows are key-markers with ``is_order=1``, lineitem rows
    are map-side revenue partials with ``is_order=0``), so nothing
    fact-scale ever touches the driver.
    """
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    cust_keys = set(
        pc.filter(
            cust["c_custkey"], pc.equal(cust["c_mktsegment"], segment)
        ).to_pylist()
    )
    ck_ref = ray.put(cust_keys)

    partial_schema = pa.schema(
        [
            ("l_orderkey", pa.int64()),
            ("revenue_cents", pa.int64()),
            ("is_order", pa.int8()),
        ]
    )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    from ..stages.base import worker_cached

    def order_markers(batch: pa.Table) -> pa.Table:
        # cache the deserialized set per worker process: ray.get of a plain
        # Python set unpickles it on EVERY call otherwise (at a real
        # segment's ~30M custkeys that's a per-batch unpickle)
        keys = worker_cached(
            "q3_custkeys", lambda: ray.get(ck_ref), ck_ref.hex()
        )
        df = batch.to_pandas()
        df = df[df["o_custkey"].isin(keys)]
        if df.empty:
            return partial_schema.empty_table()
        return pa.Table.from_pydict(
            {
                "l_orderkey": pa.array(
                    df["o_orderkey"].astype("int64"), pa.int64()
                ),
                "revenue_cents": pa.array([0] * len(df), pa.int64()),
                "is_order": pa.array([1] * len(df), pa.int8()),
            }
        )

    markers = orders.map_batches(order_markers, batch_format="pyarrow")

    line = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def revenue_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return partial_schema.empty_table()
        df = df.assign(
            revenue_cents=cents(
                df["l_extendedprice"].to_numpy()
                * (1.0 - df["l_discount"].to_numpy())
            )
        )
        g = df.groupby("l_orderkey", as_index=False)["revenue_cents"].sum()
        g["l_orderkey"] = g["l_orderkey"].astype("int64")
        g["is_order"] = np.int8(0)
        return table_from_pandas(g, preserve_index=False).cast(
            partial_schema
        )

    partials = line.map_batches(revenue_partial, batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized over every orderkey in the bucket; inner-join
        # semantics: emit only orders in the segment (a marker row
        # present) that have lineitem revenue rows.  Each bucket emits
        # only its LOCAL top-k (an orderkey lives in exactly one bucket,
        # tie-break identical to the global sort), so the global sort
        # ranks #buckets × k rows instead of every qualifying order.
        rev = df[df["is_order"] == 0].groupby(
            "l_orderkey", as_index=False
        )["revenue_cents"].sum()
        present = df.loc[df["is_order"] == 1, "l_orderkey"].unique()
        out = rev[rev["l_orderkey"].isin(present)].rename(
            columns={"l_orderkey": "o_orderkey"}
        )
        out["o_orderkey"] = out["o_orderkey"].astype("int64")
        out["revenue_cents"] = out["revenue_cents"].astype("int64")
        return out.sort_values(
            ["revenue_cents", "o_orderkey"], ascending=[False, True]
        ).head(k)

    from ..functions.grouping import bucketed_group_apply

    per_order = bucketed_group_apply(
        markers.union(partials), "l_orderkey", merge
    )

    def global_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["revenue_cents", "o_orderkey"], ascending=[False, True]
        ).head(k)

    # survivors are ≤ #buckets × k rows: one coalesced block sorts them
    # in-task, skipping a full Sort all-to-all over tiny blocks
    return per_order.repartition(1).map_batches(
        global_topk, batch_format="pandas", batch_size=None
    )


Q3_SQL = """
SELECT l_orderkey AS o_orderkey,
  CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
    AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem
JOIN orders ON l_orderkey = o_orderkey
JOIN customer ON o_custkey = c_custkey
WHERE c_mktsegment = 'BUILDING'
GROUP BY l_orderkey
ORDER BY revenue_cents DESC, o_orderkey
LIMIT 10
"""


# --- Q5-ish: suppliers per region (shuffle join + broadcast dim) ----------


def suppliers_per_region(sf_dir: str):
    sup = _read(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey"])
    nation = _read(sf_dir, "nation",
                   columns=["n_nationkey", "n_name", "n_regionkey"])

    def cast_key(batch: pa.Table) -> pa.Table:
        # align join key dtype across sides
        idx = batch.schema.get_field_index("nationkey")
        return batch.set_column(
            idx, "nationkey", batch["nationkey"].cast(pa.int64())
        )

    sup = sup.rename_columns({"s_nationkey": "nationkey"}).map_batches(
        cast_key, batch_format="pyarrow"
    )
    nation = nation.rename_columns({"n_nationkey": "nationkey"}).map_batches(
        cast_key, batch_format="pyarrow"
    )
    joined = shuffle_join(
        sup, nation, on="nationkey",
        l_cols=["s_suppkey"], r_cols=["n_name", "n_regionkey"],
    )

    region = _read(sf_dir, "region", columns=["r_regionkey", "r_name"]).to_pandas()
    region["r_regionkey"] = region["r_regionkey"].astype("int64")

    def cast_regionkey(batch: pa.Table) -> pa.Table:
        idx = batch.schema.get_field_index("n_regionkey")
        return batch.set_column(
            idx, "n_regionkey", batch["n_regionkey"].cast(pa.int64())
        )

    # region is broadcast via ray.put (read per node, not re-pickled into
    # every task closure)
    with_region = broadcast_join(
        joined.map_batches(cast_regionkey, batch_format="pyarrow"),
        region, left_on="n_regionkey", right_on="r_regionkey",
    ).select_columns(["r_name", "n_name", "s_suppkey"])

    from ..functions.grouping import two_phase_agg

    # map-side partial count: the merge sees #batches × #(region, nation)
    # partial rows — never a supplier row
    return two_phase_agg(
        with_region, ["r_name", "n_name"],
        {"n_suppliers": ("s_suppkey", "count")},
    )


Q5_SQL = """
SELECT r_name, n_name, COUNT(*) AS n_suppliers
FROM supplier
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name, n_name
"""


# --- events: per-user activity aggregate (windowed-style groupby) ---------


def events_user_stats(sf_dir: str):
    ds = _read(sf_dir, "events",
               columns=["user_id", "event_type", "value", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.assign(value_cents=cents(df["value"].to_numpy()))
        g = df.groupby("user_id").agg(
            n_events=("user_id", "size"),
            value_cents=("value_cents", "sum"),
            first_ts=("ts", "min"),
            last_ts=("ts", "max"),
            types_list=("event_type", lambda s: "\x00".join(sorted(set(s)))),
        ).reset_index()
        return table_from_pandas(g, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized over all users in the bucket
        agg = df.groupby("user_id", as_index=False).agg(
            n_events=("n_events", "sum"),
            value_cents=("value_cents", "sum"),
            first_ts=("first_ts", "min"),
            last_ts=("last_ts", "max"),
        )
        # distinct event types per user: explode the packed type lists and
        # count distinct — vectorized, no per-group lambda
        t = df[["user_id"]].assign(t=df["types_list"].str.split("\x00"))
        t = t.explode("t").drop_duplicates()
        n_types = t.groupby("user_id").size().rename("n_types").reset_index()
        out = agg.merge(n_types, on="user_id")
        out["user_id"] = out["user_id"].astype("int64")
        for c in ("n_events", "value_cents", "n_types"):
            out[c] = out[c].astype("int64")
        return out

    from ..functions.grouping import bucketed_group_apply

    return bucketed_group_apply(partials, "user_id", merge)


EVENTS_SQL = """
SELECT user_id,
  COUNT(*) AS n_events,
  CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
    AS value_cents,
  MIN(ts) AS first_ts,
  MAX(ts) AS last_ts,
  COUNT(DISTINCT event_type) AS n_types
FROM events GROUP BY user_id
"""


# --- part-dimension stats (small-table aggregate) -------------------------


def parts_brand_stats(sf_dir: str):
    from ..functions.grouping import two_phase_agg

    ds = _read(sf_dir, "part",
               columns=["p_brand", "p_size", "p_retailprice"])

    # 25 brands × #batches partial rows
    return two_phase_agg(
        ds, "p_brand",
        {
            "n_parts": ("p_brand", "count"),
            "sum_retail_cents": ("retail_cents", "sum"),
            "max_size": ("p_size", "max"),
        },
        prep=lambda df: df.assign(
            retail_cents=cents(df["p_retailprice"].to_numpy()),
            p_size=df["p_size"].astype("int64"),  # the oracle's BIGINT MAX
        ),
    )


PARTS_SQL = """
SELECT p_brand,
  COUNT(*) AS n_parts,
  CAST(SUM(CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
    AS sum_retail_cents,
  CAST(MAX(p_size) AS BIGINT) AS max_size
FROM part GROUP BY p_brand
"""


# --- sessionization: gap-based windowed aggregate (custom operator) -------

SESSION_GAP_MIN = 30


def events_sessionize(sf_dir: str, gap_minutes: int = SESSION_GAP_MIN):
    """Per-user session stats with a >gap_minutes inactivity boundary.

    The streaming-window custom operator (SURVEY §2.9 notes the reference
    has none; this is the windowed-aggregate shape a transcript corpus
    needs).  Partitioning assumption: ``groupby(user_id)`` co-locates one
    user's full event history on one reducer; ordering is restored
    in-group by (ts, event_id), never assumed from block order.  Skewed
    users would be handled like canonicalization's salt (two-phase split
    of a user's timeline at stable boundaries) — not needed at these
    cardinalities.
    """
    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts"])
    gap = np.timedelta64(gap_minutes * 60, "s")

    def sessionize(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized over every user in the bucket: session boundaries are
        # user changes or >gap inactivity; a global cumsum of boundaries
        # gives session ids unique across users within the bucket
        df = df.sort_values(["user_id", "ts", "event_id"])
        ts = df["ts"].to_numpy()
        users = df["user_id"].to_numpy()
        new_session = np.ones(len(df), dtype=bool)
        if len(df) > 1:
            new_session[1:] = (users[1:] != users[:-1]) | (
                (ts[1:] - ts[:-1]) > gap
            )
        sid = np.cumsum(new_session)
        per_sess = (
            pd.DataFrame({"user_id": users, "sid": sid})
            .groupby(["user_id", "sid"], as_index=False)
            .size()
        )
        out = per_sess.groupby("user_id", as_index=False).agg(
            n_sessions=("sid", "size"),
            max_session_events=("size", "max"),
            n_events=("size", "sum"),
        )
        for c in out.columns:
            out[c] = out[c].astype("int64")
        return out

    from ..functions.grouping import bucketed_group_apply

    return bucketed_group_apply(ds, "user_id", sessionize)


# --- heavy-hitter token counts (pre-aggregate before the wide groupby) ---


def docs_top_tokens(sf_dir: str, k: int = 20):
    """Top-k corpus tokens by frequency (ties broken lexicographically).

    The heavy-hitter shape: token counts are pre-aggregated inside each
    batch (the combiner), so the wide ``groupby(token)`` shuffles one row
    per (token, batch) instead of one per occurrence — with a hot token in
    every document this is the difference between shuffling O(corpus) and
    O(vocab x blocks).
    """
    from ..functions.grouping import text_tokens, two_phase_agg

    ds = _read(sf_dir, "documents", columns=["text"])
    counts = two_phase_agg(ds, "token", {"cnt": ("token", "count")},
                           prep=text_tokens)
    return counts.sort(["cnt", "token"], descending=[True, False]).limit(k)


TOP_TOKENS_SQL = """
SELECT token, COUNT(*) AS cnt
FROM (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
GROUP BY token
ORDER BY cnt DESC, token
LIMIT 20
"""


# --- per-group top-k (the ROW_NUMBER window shape) ------------------------


def docs_top2_per_lang(sf_dir: str, k: int = 2):
    """Top-k docs per language by (n_chars desc, doc_id asc).

    The per-group-sort window operator: groups co-locate via the hash
    bucket shuffle, then one vectorized sort + ``groupby.head(k)`` ranks
    every language in the bucket at once — no global sort, no per-group
    Python (mirrors ``ROW_NUMBER() OVER (PARTITION BY lang ORDER BY ...)``).
    """
    from ..functions.grouping import bucketed_group_apply

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "n_chars"])

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["lang", "n_chars", "doc_id"], ascending=[True, False, True]
        )
        out = df.groupby("lang", as_index=False).head(k).copy()
        out["rank"] = out.groupby("lang").cumcount() + 1
        for c in ("doc_id", "n_chars", "rank"):
            out[c] = out[c].astype("int64")
        return out[["lang", "rank", "doc_id", "n_chars"]]

    return bucketed_group_apply(ds, "lang", topk)


TOP2_PER_LANG_SQL = """
SELECT lang, CAST(rn AS BIGINT) AS rank, doc_id, n_chars
FROM (
  SELECT lang, doc_id, n_chars,
    ROW_NUMBER() OVER (PARTITION BY lang
                       ORDER BY n_chars DESC, doc_id) AS rn
  FROM documents
)
WHERE rn <= 2
"""


# --- per-user order-statistic aggregate (discrete median) -----------------


def events_value_median(sf_dir: str):
    """Per-user discrete median of event value (in cents).

    Order-statistic aggregate: each user's values co-locate via the hash
    bucket shuffle; the bucket reduce sorts once and picks every user's
    lower-median element vectorized (``quantile_disc`` semantics: the
    value at index ``ceil(q·n) - 1`` of the sorted list).  Exact — not a
    sketch — so the SQL oracle matches bit-for-bit; at corpus scale swap
    the in-bucket exact selection for a mergeable quantile sketch.
    """
    from ..functions.grouping import bucketed_group_apply

    ds = _read(sf_dir, "events", columns=["user_id", "value"])

    def add_cents(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "value_cents": cents(df["value"].to_numpy()),
            }
        )

    def median_disc(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "value_cents"])
        g = df.groupby("user_id")
        n = g["value_cents"].transform("size").to_numpy()
        pos_in_group = g.cumcount().to_numpy()
        # lower median: index ceil(0.5*n) - 1 == (n - 1) // 2 of the sorted
        # group (DuckDB quantile_disc(0.5))
        take = pos_in_group == (n - 1) // 2
        out = df.loc[take, ["user_id", "value_cents"]].rename(
            columns={"value_cents": "median_cents"}
        )
        out["n_events"] = n[take]
        out["median_cents"] = out["median_cents"].astype("int64")
        out["n_events"] = out["n_events"].astype("int64")
        return out

    partials = ds.map_batches(add_cents, batch_format="pandas")
    return bucketed_group_apply(partials, "user_id", median_disc)


VALUE_MEDIAN_SQL = """
SELECT user_id,
  CAST(quantile_disc(CAST(FLOOR(value * 100 + 0.5) AS BIGINT), 0.5)
    AS BIGINT) AS median_cents,
  COUNT(*) AS n_events
FROM events GROUP BY user_id
"""


# --- as-of lag: previous same-user event (ordered windowed lookup) --------


def events_prev_lag(sf_dir: str):
    """Per event: gap to the user's previous event (an as-of self-join).

    Ray shape: ``groupby(user_id)`` co-locates each user's history, the
    in-group sort restores time order, and the lag is a vectorized shift —
    the generic as-of/range-join pattern (sort-merge within partitions).
    Output gap in microseconds (int64; -1 for the first event).
    """
    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def lag(df: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pass over every user in the bucket: sort by
        # (user, ts, event_id), diff, and reset the gap at user boundaries
        df = df.sort_values(["user_id", "ts", "event_id"])
        # normalize to us explicitly (arrow timestamp[us] survives into
        # pandas as datetime64[us]; ns-resolution frames would differ)
        ts_us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        users = df["user_id"].to_numpy()
        gap = np.empty(len(df), dtype=np.int64)
        if len(df):
            gap[0] = -1
            gap[1:] = ts_us[1:] - ts_us[:-1]
            gap[np.flatnonzero(users[1:] != users[:-1]) + 1] = -1
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "prev_gap_us": gap,
            }
        )

    from ..functions.grouping import bucketed_group_apply

    return bucketed_group_apply(ds, "user_id", lag)


PREV_LAG_SQL = """
SELECT event_id, user_id,
  CAST(COALESCE(date_diff('microsecond',
    LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id), ts), -1)
    AS BIGINT) AS prev_gap_us
FROM events
"""


def events_sessionize_salted(
    sf_dir: str,
    gap_minutes: int = SESSION_GAP_MIN,
    window_hours: int = 6,
):
    """Sessionize with the skewed-user mitigation: a hot user's timeline no
    longer pins one reducer.

    Two-phase split at STABLE time boundaries (fixed ``window_hours``
    windows of the epoch clock — a pure function of ``ts``, independent of
    partitioning):

    1. shuffle on (user_id, window_id): each reducer sessionizes one
       user-window slice vectorized and emits a compact partial —
       (n_sessions m, first/last session sizes, max size, first/last event
       ts, n_events).  A user with 10⁹ events across a year spreads over
       ~1500 independent window partials instead of one reducer.
    2. shuffle the per-window partials on user_id (tiny: windows, not
       events) and fold them in time order: adjacent windows whose
       boundary gap ≤ threshold merge the tail session of one with the
       head session of the next.

    Output contract identical to :func:`events_sessionize` (same
    ``SESSIONIZE_SQL`` oracle — the split is invisible in the result).
    """
    from ..functions.grouping import bucketed_group_apply

    ds = _read(sf_dir, "events", columns=["user_id", "event_id", "ts"])
    gap = np.timedelta64(gap_minutes * 60, "s")
    window_us = window_hours * 3600 * 1_000_000

    def add_window(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        ts_us = df["ts"].astype("datetime64[us]").astype("int64")
        df["window_id"] = (ts_us // window_us).astype("int64")
        return df

    def window_partials(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized sessionize of every (user, window) slice in the bucket
        df = df.sort_values(["user_id", "window_id", "ts", "event_id"])
        users = df["user_id"].to_numpy()
        wins = df["window_id"].to_numpy()
        ts = df["ts"].to_numpy()
        new = np.ones(len(df), dtype=bool)
        if len(df) > 1:
            new[1:] = (
                (users[1:] != users[:-1])
                | (wins[1:] != wins[:-1])
                | ((ts[1:] - ts[:-1]) > gap)
            )
        sid = np.cumsum(new)
        frame = pd.DataFrame(
            {"user_id": users, "window_id": wins, "sid": sid, "ts": ts}
        )
        sess = frame.groupby(
            ["user_id", "window_id", "sid"], as_index=False
        ).agg(n=("sid", "size"))
        # sid ascends with time within a (user, window), and groupby sorts
        # keys, so first/last rows are the head/tail sessions
        part = sess.groupby(["user_id", "window_id"], as_index=False).agg(
            m=("sid", "size"),
            n_first=("n", "first"),
            n_last=("n", "last"),
            max_all=("n", "max"),
            n_events=("n", "sum"),
        )
        span = frame.groupby(["user_id", "window_id"], as_index=False).agg(
            first_ts=("ts", "min"), last_ts=("ts", "max")
        )
        out = part.merge(span, on=["user_id", "window_id"])
        for c in ("user_id", "window_id", "m", "n_first", "n_last",
                  "max_all", "n_events"):
            out[c] = out[c].astype("int64")
        return out

    partials = bucketed_group_apply(
        ds.map_batches(add_window, batch_format="pandas"),
        ["user_id", "window_id"], window_partials,
    )

    def fold_user(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for user, g in df.groupby("user_id"):
            g = g.sort_values("window_id")
            closed_count = 0
            closed_max = 0
            tail_n = 0
            last_ts = None
            for w in g.itertuples(index=False):
                if last_ts is not None and (w.first_ts - last_ts) <= gap:
                    if w.m == 1:
                        tail_n += w.n_first
                        closed_max = max(closed_max, int(w.max_all))
                    else:
                        closed_max = max(
                            closed_max, tail_n + int(w.n_first),
                            int(w.max_all),
                        )
                        closed_count += int(w.m) - 1
                        tail_n = int(w.n_last)
                else:
                    if last_ts is not None:
                        closed_count += 1
                        closed_max = max(closed_max, tail_n)
                    closed_max = max(closed_max, int(w.max_all))
                    closed_count += int(w.m) - 1
                    tail_n = int(w.n_last)
                last_ts = w.last_ts
            closed_count += 1
            closed_max = max(closed_max, tail_n)
            rows.append(
                (int(user), closed_count, closed_max,
                 int(g["n_events"].sum()))
            )
        return pd.DataFrame(
            rows,
            columns=["user_id", "n_sessions", "max_session_events",
                     "n_events"],
        ).astype("int64")

    return bucketed_group_apply(partials, "user_id", fold_user)


SESSIONIZE_SQL = f"""
WITH o AS (
  SELECT user_id, event_id, ts,
    LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
  FROM events
), marked AS (
  SELECT user_id, event_id, ts,
    CASE WHEN prev_ts IS NULL
              OR ts - prev_ts > INTERVAL {SESSION_GAP_MIN} MINUTE
         THEN 1 ELSE 0 END AS is_new
  FROM o
), sess AS (
  SELECT user_id,
    SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
      AS sid
  FROM marked
), per_sess AS (
  SELECT user_id, sid, COUNT(*) AS n FROM sess GROUP BY user_id, sid
)
SELECT user_id, COUNT(*) AS n_sessions, MAX(n) AS max_session_events,
  CAST(SUM(n) AS BIGINT) AS n_events
FROM per_sess GROUP BY user_id
"""


# --- as-of JOIN between two event streams (view -> purchase attribution) --


def events_attribution(sf_dir: str):
    """For each purchase event, the user's most recent PRIOR view event —
    a genuine two-stream as-of join (last-touch attribution), not a lag
    within one stream.

    Semantics (deterministic): a view matches iff ``(v.ts, v.event_id) <
    (p.ts, p.event_id)`` lexicographically; the latest such view wins.
    Purchases with no prior view are dropped (inner as-of).  ``lag_ms`` is
    the purchase-minus-view gap in milliseconds (exact int64 arithmetic on
    the microsecond timestamps).

    Ray shape: column-pruned read filtered to the two event types, one
    ``user_id``-bucketed reduce; inside each bucket a single vectorized
    sort + per-user forward-fill carries the latest view onto every later
    row — the sort-merge-within-partitions as-of pattern.  Hot users cost
    O(their events) in one reducer; for adversarial skew the sessionize
    salting pattern (stable time windows + per-window partials carrying
    the window's last view) applies unchanged.
    """
    ds = _read(
        sf_dir, "events",
        columns=["user_id", "event_id", "ts", "event_type"],
    ).map_batches(
        # vectorized pre-filter (a row-level .filter(fn) would call Python
        # per row); at corpus scale pair with a row-group predicate
        lambda df: df[df["event_type"].isin(("view", "purchase"))],
        batch_format="pandas",
    )

    def attribute(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        ts_us = df["ts"].astype("datetime64[us]").astype("int64")
        is_view = (df["event_type"] == "view").to_numpy()
        work = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64").to_numpy(),
                "event_id": df["event_id"].astype("int64").to_numpy(),
                "ts_us": ts_us.to_numpy(),
                "view_id": np.where(is_view, df["event_id"], np.nan),
                "view_ts": np.where(is_view, ts_us, np.nan),
            }
        )
        # latest view so far, per user; purchase rows are never views, so
        # the forward-fill can only carry (ts, event_id)-earlier views
        g = work.groupby("user_id")
        work["lv_id"] = g["view_id"].ffill()
        work["lv_ts"] = g["view_ts"].ffill()
        out = work[~is_view & work["lv_id"].notna()]
        return pd.DataFrame(
            {
                "event_id": out["event_id"].astype("int64"),
                "user_id": out["user_id"].astype("int64"),
                "view_event_id": out["lv_id"].astype("int64"),
                "lag_ms": ((out["ts_us"] - out["lv_ts"].astype("int64"))
                           // 1000).astype("int64"),
            }
        )

    from ..functions.grouping import bucketed_group_apply

    return bucketed_group_apply(ds, "user_id", attribute)


ATTRIBUTION_SQL = """
WITH pv AS (
  SELECT user_id, event_id, ts, event_type,
    LAST_VALUE(CASE WHEN event_type = 'view' THEN event_id END IGNORE NULLS)
      OVER (PARTITION BY user_id ORDER BY ts, event_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS view_event_id,
    LAST_VALUE(CASE WHEN event_type = 'view' THEN ts END IGNORE NULLS)
      OVER (PARTITION BY user_id ORDER BY ts, event_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS view_ts
  FROM events WHERE event_type IN ('view', 'purchase')
)
SELECT event_id, user_id, CAST(view_event_id AS BIGINT) AS view_event_id,
  CAST(date_diff('microsecond', view_ts, ts) // 1000 AS BIGINT) AS lag_ms
FROM pv
WHERE event_type = 'purchase' AND view_event_id IS NOT NULL
"""


# --- tumbling-window aggregate (fixed 1-hour windows) ---------------------


def events_window_counts(sf_dir: str):
    """Per-(event_type, hour-window) tumbling-window aggregate.

    The fixed-window counterpart of the gap-based ``events_sessionize``:
    the window id is a pure function of the row (``floor(ts, 1h)``), so no
    per-user ordering is needed — each batch computes complete partial
    windows locally (map-side combine) and one low-cardinality bucketed
    shuffle merges them.  Cardinality into the shuffle is
    #event_types × #hours, not #events — at 100 TB (~10¹² events over a
    year) that is ~40k groups, a trivial reduce.
    """
    from ..functions.grouping import two_phase_agg

    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])
    return two_phase_agg(
        ds, ["event_type", "window_start"],
        {"n_events": ("value_cents", "count"),
         "value_cents": ("value_cents", "sum")},
        prep=lambda df: df.assign(
            window_start=df["ts"].dt.floor("h"),
            value_cents=cents(df["value"].to_numpy()),
        ),
    )


WINDOW_COUNTS_SQL = """
SELECT event_type, date_trunc('hour', ts) AS window_start,
  COUNT(*) AS n_events,
  CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
    AS value_cents
FROM events GROUP BY event_type, date_trunc('hour', ts)
"""


# --- EXISTS semi-join: orders with a qualifying lineitem ------------------


def orders_priority_exists(sf_dir: str, returnflag: str = "R"):
    """Order counts per priority where EXISTS a returned ('R') lineitem.

    The EXISTS semi-join shape: neither fact table is materialized or
    broadcast.  Lineitem streams to per-batch DISTINCT qualifying orderkeys
    (map-side dedup shrinks the shuffle to ≤ one row per orderkey per
    batch); orders stream to (orderkey, priority) markers; one union +
    bucketed groupby on orderkey applies the EXISTS test; the surviving
    priorities pre-count inside each bucket, so the final groupby reduces
    #buckets × #priorities rows to the 5-row result.
    """
    qual_schema = pa.schema(
        [
            ("okey", pa.int64()),
            ("o_orderpriority", pa.string()),
            ("is_line", pa.int8()),
        ]
    )

    line = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])

    def qual_markers(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keys = df.loc[df["l_returnflag"] == returnflag, "l_orderkey"].unique()
        if len(keys) == 0:
            return qual_schema.empty_table()
        return pa.Table.from_pydict(
            {
                "okey": pa.array(keys.astype("int64"), pa.int64()),
                "o_orderpriority": pa.array([""] * len(keys), pa.string()),
                "is_line": pa.array([1] * len(keys), pa.int8()),
            }
        )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])

    def order_rows(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            return qual_schema.empty_table()
        return pa.Table.from_pydict(
            {
                "okey": pa.array(df["o_orderkey"].astype("int64"), pa.int64()),
                "o_orderpriority": pa.array(
                    df["o_orderpriority"], pa.string()
                ),
                "is_line": pa.array([0] * len(df), pa.int8()),
            }
        )

    qual = line.map_batches(qual_markers, batch_format="pyarrow")
    ords = orders.map_batches(order_rows, batch_format="pyarrow")

    return _exists_priority_counts(qual, ords)


def _exists_priority_counts(qual, ords):
    """(o_orderpriority, n_orders) over the union of qualifying-lineitem
    markers (``is_line`` 1) and order rows (``is_line`` 0), both keyed by
    ``okey``: one bucketed EXISTS reduce pre-counts the surviving orders'
    priorities per bucket, then a final merge sums the
    5 priorities × #buckets pre-counts."""
    from ..functions.grouping import bucketed_group_apply, two_phase_agg

    def exists_reduce(df: pd.DataFrame) -> pd.DataFrame:
        present = df.loc[df["is_line"] == 1, "okey"].unique()
        o = df[df["is_line"] == 0]
        return o[o["okey"].isin(present)].groupby(
            "o_orderpriority", as_index=False).agg(n_orders=("okey", "size"))

    per_bucket = bucketed_group_apply(qual.union(ords), "okey", exists_reduce)
    return two_phase_agg(per_bucket, "o_orderpriority",
                         {"n_orders": ("n_orders", "sum")})


PRIORITY_EXISTS_SQL = """
SELECT o_orderpriority, COUNT(*) AS n_orders
FROM orders
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
GROUP BY o_orderpriority
"""


# --- anti-join: customers with orders but no URGENT order -----------------


def custs_no_urgent_order(sf_dir: str):
    """Customers with ≥1 order and NO '1-URGENT' order (distributed
    anti-join).

    Per-batch partial flags (order count, urgent count per custkey) shrink
    the shuffle to ≤ one row per customer per batch; the bucketed merge
    applies the NOT-EXISTS filter vectorized.  Nothing is broadcast — the
    excluded side is corpus-scale (any customer may have an urgent order),
    so a broadcast anti-join would not survive 100 TB; this is the
    union-shuffle form.
    """
    from ..functions.grouping import two_phase_agg

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])
    return two_phase_agg(
        ds, "o_custkey",
        {"n_orders": ("o_custkey", "count"),
         "n_urgent": ("urgent", "sum")},
        prep=lambda df: df.assign(
            urgent=(df["o_orderpriority"] == "1-URGENT").astype("int64")),
        having=lambda g: g["n_urgent"] == 0,
    ).drop_columns(["n_urgent"])


NO_URGENT_SQL = """
SELECT o_custkey, COUNT(*) AS n_orders
FROM orders
WHERE o_custkey NOT IN (SELECT o_custkey FROM orders
                        WHERE o_orderpriority = '1-URGENT')
GROUP BY o_custkey
"""


# --- argmin join: cheapest supplier per part ------------------------------


def part_cheapest_supplier(sf_dir: str):
    """Per part: the supplier of its cheapest lineitem (argmin join).

    The argmin reduce is decomposable: each batch keeps one best
    (cents, suppkey) row per partkey (map-side combine — shuffle carries
    ≤ one row per part per batch), and the bucketed merge repeats the same
    selection.  Ties break on (cents, suppkey) lexicographically, matching
    the ``ROW_NUMBER`` oracle exactly; prices compare in fixed-point cents
    so the argmin is order-independent.
    """
    ds = _read(
        sf_dir, "lineitem",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )

    def best_of(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["l_partkey", "min_price_cents", "best_suppkey"]
        )
        out = df.groupby("l_partkey", as_index=False).first()
        for c in ("l_partkey", "best_suppkey", "min_price_cents"):
            out[c] = out[c].astype("int64")
        return out[["l_partkey", "best_suppkey", "min_price_cents"]]

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = pd.DataFrame(
            {
                "l_partkey": df["l_partkey"],
                "best_suppkey": df["l_suppkey"],
                "min_price_cents": cents(df["l_extendedprice"].to_numpy()),
            }
        )
        return table_from_pandas(best_of(df), preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    from ..functions.grouping import bucketed_group_apply

    return bucketed_group_apply(partials, "l_partkey", best_of)


CHEAPEST_SUPPLIER_SQL = """
SELECT l_partkey, best_suppkey, min_price_cents FROM (
  SELECT l_partkey,
    l_suppkey AS best_suppkey,
    CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS min_price_cents,
    ROW_NUMBER() OVER (
      PARTITION BY l_partkey
      ORDER BY CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT), l_suppkey
    ) AS rn
  FROM lineitem
) WHERE rn = 1
"""


# --- hopping (sliding) window aggregate -----------------------------------


def events_hopping_counts(sf_dir: str):
    """Per-(event_type, window) HOPPING-window aggregate: 1-hour windows
    every 15 minutes, so each event contributes to exactly 4 overlapping
    windows.

    The sliding counterpart of the tumbling ``events_window_counts``: the
    window set is still a pure row function (floor ts to the 15-min hop,
    subtract k hops for k=0..3), so the explode happens map-side inside
    the batch (vectorized ``np.repeat``/tile — no per-row loop, no join)
    and partial windows complete locally before one low-cardinality merge.
    Shuffle cardinality is #types × #hops (4× the tumbling case, still
    ~160k groups/year at 10¹² events) — the explode multiplies the partial
    COUNTS, never the event rows.
    """
    from ..functions.grouping import two_phase_agg

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])
    hop = pd.Timedelta(minutes=15)

    def explode_windows(df: pd.DataFrame) -> pd.DataFrame:
        # each event to its 4 covering windows, vectorized
        base = df["ts"].dt.floor("15min").to_numpy()
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].to_numpy(), 4),
                "window_start": np.repeat(base, 4)
                - np.tile(np.arange(4), len(df)) * hop.to_timedelta64(),
            }
        )

    return two_phase_agg(
        ds, ["event_type", "window_start"],
        {"n_events": ("window_start", "count")}, prep=explode_windows,
    )


HOPPING_COUNTS_SQL = """
SELECT event_type,
  time_bucket(INTERVAL '15 minutes', ts) - k.k * INTERVAL '15 minutes'
    AS window_start,
  COUNT(*) AS n_events
FROM events
CROSS JOIN (SELECT unnest(generate_series(0, 3)) AS k) k
GROUP BY event_type, window_start
"""


# --- exact distributed COUNT(DISTINCT) ------------------------------------


def events_distinct_users(sf_dir: str):
    """Exact distinct users per event type (distributed COUNT DISTINCT).

    The partial dedups (event_type, user_id) pairs inside each batch, so
    the shuffle carries ≤ one row per pair per batch, not per event; the
    bucketed reduce dedups globally (a pair lands in exactly one hash
    bucket) and pre-counts per type within the bucket, so the final
    groupby reduces #buckets × #types rows.  The approximate counterpart
    (mergeable HyperLogLog sketches, constant memory per group) is
    ``events_user_hll`` in ``functions/sketches.py``.
    """
    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().drop_duplicates()
        df["user_id"] = df["user_id"].astype("int64")
        return table_from_pandas(df, preserve_index=False)

    partials = ds.map_batches(partial, batch_format="pyarrow")

    def bucket_count(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        out = d.groupby("event_type", as_index=False).agg(
            n_users=("user_id", "size")
        )
        out["n_users"] = out["n_users"].astype("int64")
        return out

    from ..functions.grouping import bucketed_group_apply

    per_bucket = bucketed_group_apply(
        partials, ["event_type", "user_id"], bucket_count
    )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("event_type", as_index=False)["n_users"].sum()

    # #types x #buckets pre-counts
    return bucketed_group_apply(per_bucket, "event_type", final)


DISTINCT_USERS_SQL = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type
"""


# --- Q5: local-supplier revenue per nation (multi-way join) ---------------


def q5_local_supplier_revenue(
    sf_dir: str, region: str = "ASIA",
    date_lo: str = "1996-01-01", date_hi: str = "1997-01-01",
):
    """TPC-H Q5 shape: revenue per nation from lineitems where the customer
    and the supplier sit in the same nation of one region, for one order
    year — the engine's multi-way join showcase.

    Physical plan (two shuffles total, nothing corpus-scale on the driver):

    - region ⋈ nation and supplier are DIMENSION tables → broadcast as
      ``ray.put`` lookup dicts (nation is ~25 rows; supplier is 1/15th of
      customer and two int columns after pruning — at 100 TB, if supplier
      outgrows worker heaps, it drops into the marker-union below exactly
      like customer does).
    - customer streams to (custkey, nationkey) markers, pre-filtered to the
      region's nations; orders stream date-filtered to (orderkey, custkey);
      shuffle #1 on custkey attaches the customer nation to each order.
    - lineitem streams to (orderkey, supplier-nation, revenue_cents)
      partials, pre-filtered to the region's suppliers via the broadcast
      map; shuffle #2 on orderkey applies the SAME-NATION test
      (c_nationkey == s_nationkey) and pre-aggregates per nation inside
      each bucket, so the final reduce sees #buckets × #nations rows.
    """
    import pyarrow.parquet as pq
    import ray

    from ..stages.base import worker_cached

    nat = pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    ).to_pandas()
    reg = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).to_pandas()
    rkey = set(reg.loc[reg["r_name"] == region, "r_regionkey"].astype("int64"))
    nat = nat[nat["n_regionkey"].astype("int64").isin(rkey)]
    nation_name = dict(
        zip(nat["n_nationkey"].astype("int64"), nat["n_name"])
    )  # region-filtered: membership test AND name lookup

    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    sup = sup[sup["s_nationkey"].astype("int64").isin(nation_name)]
    supp_nation_ref = ray.put(
        dict(zip(sup["s_suppkey"].astype("int64"),
                 sup["s_nationkey"].astype("int64")))
    )
    nation_keys_ref = ray.put(set(nation_name))

    lo = np.datetime64(date_lo)
    hi = np.datetime64(date_hi)

    # shuffle #1: orders (date-filtered) ⋈ customer (region-filtered)
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def cust_markers(df: pd.DataFrame) -> pd.DataFrame:
        nk = worker_cached(
            "q5_nations",
            lambda: ray.get(nation_keys_ref),
            nation_keys_ref.hex(),
        )
        df = df[df["c_nationkey"].astype("int64").isin(nk)]
        # named o_custkey up front: shuffle_join joins on one key column,
        # and Dataset.rename_columns would inject an Arrow-only Project op
        # onto these pandas blocks
        return pd.DataFrame(
            {
                "o_custkey": df["c_custkey"].astype("int64"),
                "c_nationkey": df["c_nationkey"].astype("int64"),
            }
        )

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def order_rows(df: pd.DataFrame) -> pd.DataFrame:
        d = df["o_orderdate"].to_numpy()
        df = df[(d >= lo) & (d < hi)]
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "o_custkey": df["o_custkey"].astype("int64"),
            }
        )

    owned = shuffle_join(
        orders.map_batches(order_rows, batch_format="pandas"),
        cust.map_batches(cust_markers, batch_format="pandas"),
        on="o_custkey",
    ).select_columns(["o_orderkey", "c_nationkey"])

    # shuffle #2: (order, customer-nation) ⋈ lineitem revenue partials
    pair_schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("nationkey", pa.int64()),
            ("revenue_cents", pa.int64()),
            ("is_line", pa.int8()),
        ]
    )

    def order_side(df: pd.DataFrame) -> pa.Table:
        # arrow out, cast to the shared pair_schema: both union sides must
        # emit the same block format AND schema or the union's bundle
        # stream is schema-divergent
        out = pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "nationkey": df["c_nationkey"].astype("int64"),
                "revenue_cents": np.int64(0),
                "is_line": np.int8(0),
            }
        )
        return table_from_pandas(out, preserve_index=False).cast(
            pair_schema
        )

    line = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def line_side(batch: pa.Table) -> pa.Table:
        sn = worker_cached(
            "q5_suppliers",
            lambda: ray.get(supp_nation_ref),
            supp_nation_ref.hex(),
        )
        df = batch.to_pandas()
        nk = df["l_suppkey"].astype("int64").map(sn)
        df = df.assign(nationkey=nk)[nk.notna()]
        if df.empty:
            return pair_schema.empty_table()
        out = pd.DataFrame(
            {
                "o_orderkey": df["l_orderkey"].astype("int64"),
                "nationkey": df["nationkey"].astype("int64"),
                "revenue_cents": cents(
                    df["l_extendedprice"].to_numpy()
                    * (1.0 - df["l_discount"].to_numpy())
                ),
                "is_line": np.int8(1),
            }
        )
        return table_from_pandas(out, preserve_index=False).cast(
            pair_schema
        )

    unioned = owned.map_batches(order_side, batch_format="pandas").union(
        line.map_batches(line_side, batch_format="pyarrow")
    )

    def same_nation_reduce(df: pd.DataFrame) -> pd.DataFrame:
        o = df[df["is_line"] == 0][["o_orderkey", "nationkey"]]
        l = df[df["is_line"] == 1]
        m = l.merge(o, on="o_orderkey", suffixes=("", "_cust"))
        m = m[m["nationkey"] == m["nationkey_cust"]]
        out = m.groupby("nationkey", as_index=False)["revenue_cents"].sum()
        out["nationkey"] = out["nationkey"].astype("int64")
        out["revenue_cents"] = out["revenue_cents"].astype("int64")
        return out

    from ..functions.grouping import bucketed_group_apply, two_phase_agg

    per_bucket = bucketed_group_apply(unioned, "o_orderkey",
                                      same_nation_reduce)
    per_nation = two_phase_agg(per_bucket, "nationkey",
                               {"revenue_cents": ("revenue_cents", "sum")})

    def named(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_name": df["nationkey"].map(nation_name).astype(object),
            "revenue_cents": df["revenue_cents"],
        })

    return per_nation.map_batches(named, batch_format="pandas")


Q5_FULL_SQL = """
SELECT n_name,
  CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
    AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1997-01-01'
GROUP BY n_name
"""


# --- per-type exact quantiles (distribution reduce) -----------------------


_QUANT_FRACS = ((25, 100, "p25_cents"), (50, 100, "p50_cents"),
                (75, 100, "p75_cents"), (90, 100, "p90_cents"))


def events_type_quantiles(sf_dir: str):
    """Exact p25/p50/p75/p90 of event value (cents) per event type.

    Unlike the per-user median (many small groups), an event TYPE holds a
    corpus-scale fraction of all rows, so sorting raw values in one
    reducer would not survive.  The scale shape is a DISTRIBUTION reduce:
    values are discrete (fixed-point cents), so the partial is per-(type,
    cents) COUNTS — bounded by value precision, not row count — one
    bucketed merge dedups the distribution, and the tiny per-type final
    stage walks the cumulative counts to the exact order statistic
    (``quantile_disc``: sorted index ``ceil(q·n) - 1``, computed in
    integer arithmetic).  At 10¹² events the shuffle moves #distinct-cents
    × #types rows (~10⁶), never the events.
    """
    from ..functions.grouping import bucketed_group_apply, two_phase_agg

    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    dist = two_phase_agg(
        ds, ["event_type", "value_cents"],
        {"cnt": ("value_cents", "count")},
        prep=lambda df: df.assign(value_cents=cents(df["value"].to_numpy())),
    )

    def quantiles(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in df.sort_values("value_cents").groupby(
                "event_type", sort=False):
            vals = g["value_cents"].to_numpy()
            cum = g["cnt"].to_numpy().cumsum()
            n = int(cum[-1])
            row = {"event_type": et, "n_events": n}
            for num, den, name in _QUANT_FRACS:
                idx = (n * num + den - 1) // den - 1  # ceil(q*n) - 1, exact
                row[name] = int(vals[np.searchsorted(cum, idx + 1)])
            rows.append(row)
        return pd.DataFrame(rows)

    # merged distribution is #distinct-cents x #types rows (bounded by
    # value precision): the final walks each type's cumulative counts
    return bucketed_group_apply(
        dist, "event_type", quantiles,
        empty_result={"event_type": "object", "n_events": "int64",
                      **{name: "int64" for *_, name in _QUANT_FRACS}},
    )


TYPE_QUANTILES_SQL = """
SELECT event_type, COUNT(*) AS n_events,
  CAST(quantile_disc(c, 0.25) AS BIGINT) AS p25_cents,
  CAST(quantile_disc(c, 0.50) AS BIGINT) AS p50_cents,
  CAST(quantile_disc(c, 0.75) AS BIGINT) AS p75_cents,
  CAST(quantile_disc(c, 0.90) AS BIGINT) AS p90_cents
FROM (SELECT event_type,
             CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS c FROM events)
GROUP BY event_type
"""


# --- bloom-filter-accelerated EXISTS semi-join ----------------------------


def orders_priority_exists_bloom(sf_dir: str, returnflag: str = "R",
                                 m_bits: int = 1 << 20, k_hashes: int = 4):
    """Same result as ``orders_priority_exists``, with a broadcast Bloom
    filter pruning the probe side BEFORE the shuffle.

    Scale motivation: in the plain semi-join every order row enters the
    union shuffle even though only a fraction have a returned lineitem.
    Here a ~128 KiB Bloom bitmap is built from the qualifying keys (one
    pass over lineitem: per-batch bitmaps OR-fold — the fold input is
    #batches × m/8 bytes, constant per batch), broadcast via ``ray.put``,
    and orders drop map-side unless the filter MAY contain their key.
    Bloom false positives pass the filter but are removed by the exact
    in-bucket EXISTS verify, so the result — and the SQL oracle — is
    bit-identical to the exact operator; only the shuffle volume changes
    (≈ qualifying fraction + fp rate).
    """
    import ray

    from ..functions.sketches import bloom_fold, bloom_may_contain, bloom_partial
    from ..stages.base import worker_cached

    line = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])

    def line_bloom(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keys = df.loc[df["l_returnflag"] == returnflag, "l_orderkey"]
        bits = bloom_partial(keys.to_numpy("int64"), m_bits, k_hashes)
        return pa.Table.from_pydict(
            {"bits": pa.array([bits.tobytes()], pa.binary())}
        )

    # fold the per-batch bitmaps: tiny summary dataset (one fixed-size row
    # per input batch), so driver-side take is bounded by batch COUNT
    blobs = [
        np.frombuffer(r["bits"], dtype=np.uint8)
        for r in line.map_batches(line_bloom, batch_format="pyarrow")
        .take_all()
    ]
    bloom_ref = ray.put(bloom_fold(blobs, m_bits))

    qual_schema = pa.schema(
        [
            ("okey", pa.int64()),
            ("o_orderpriority", pa.string()),
            ("is_line", pa.int8()),
        ]
    )

    def qual_markers(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        keys = df.loc[df["l_returnflag"] == returnflag, "l_orderkey"].unique()
        if len(keys) == 0:
            return qual_schema.empty_table()
        return pa.Table.from_pydict(
            {
                "okey": pa.array(keys.astype("int64"), pa.int64()),
                "o_orderpriority": pa.array([""] * len(keys), pa.string()),
                "is_line": pa.array([1] * len(keys), pa.int8()),
            }
        )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])

    def order_rows_pruned(batch: pa.Table) -> pa.Table:
        bits = worker_cached(
            "bloom", lambda: ray.get(bloom_ref), bloom_ref.hex()
        )
        df = batch.to_pandas()
        keys = df["o_orderkey"].to_numpy("int64")
        df = df[bloom_may_contain(bits, keys, m_bits, k_hashes)]
        if df.empty:
            return qual_schema.empty_table()
        return pa.Table.from_pydict(
            {
                "okey": pa.array(df["o_orderkey"].astype("int64"), pa.int64()),
                "o_orderpriority": pa.array(
                    df["o_orderpriority"], pa.string()
                ),
                "is_line": pa.array([0] * len(df), pa.int8()),
            }
        )

    qual = line.map_batches(qual_markers, batch_format="pyarrow")
    ords = orders.map_batches(order_rows_pruned, batch_format="pyarrow")

    return _exists_priority_counts(qual, ords)


# the Bloom pre-filter is an exact-result optimization: same oracle
BLOOM_EXISTS_SQL = PRIORITY_EXISTS_SQL


# --- inverted index: bounded-df posting lists -----------------------------


def docs_posting_lists(sf_dir: str, min_df: int = 20, max_df: int = 400):
    """Inverted index over document tokens: one (token, df, doc_id) row per
    posting, restricted to tokens with ``min_df <= df <= max_df``.

    The df band is the scale contract: ``max_df`` excludes stopword-class
    tokens exactly like a production stop list, so a token's posting group
    (which co-locates on one reducer) is bounded by max_df rows — no hub
    token can concentrate a corpus-scale posting list on one worker.  The
    partial dedups (token, doc) pairs per batch (each doc lives in one
    batch, so per-batch dedup is global dedup); the single bucketed
    shuffle groups by token, where df = group size and the band filter
    runs vectorized.
    """
    import ray

    from ..functions.grouping import bucketed_group_apply

    ds = _read_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def pairs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        e = (
            df.assign(token=df["text"].str.split(" "))
            .explode("token")[["doc_id", "token"]]
            .drop_duplicates()
        )
        return pa.Table.from_pydict(
            {
                "token": pa.array(e["token"], pa.string()),
                "doc_id": pa.array(e["doc_id"].astype("int64"), pa.int64()),
            }
        )

    def band_filter(df: pd.DataFrame) -> pd.DataFrame:
        dfreq = df.groupby("token")["doc_id"].transform("size")
        out = df[(dfreq >= min_df) & (dfreq <= max_df)].copy()
        out["df"] = dfreq[(dfreq >= min_df) & (dfreq <= max_df)].astype(
            "int64"
        )
        return out[["token", "df", "doc_id"]]

    return bucketed_group_apply(
        ds.map_batches(pairs, batch_format="pyarrow"), "token", band_filter
    )


POSTING_LISTS_SQL = """
WITH pairs AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token
  FROM documents
), df AS (
  SELECT token, COUNT(*) AS df FROM pairs GROUP BY token
)
SELECT p.token, df.df, p.doc_id
FROM pairs p JOIN df ON p.token = df.token
WHERE df.df BETWEEN 20 AND 400
"""


# --- Q10 shape: top-k customers by returned revenue -----------------------


def q10_returned_revenue(
    sf_dir: str, date_lo: str = "1996-01-01", date_hi: str = "1996-04-01",
    k: int = 20,
):
    """TPC-H Q10 shape: top-k customers by revenue from RETURNED lineitems
    of one order quarter — ranking join with LATE MATERIALIZATION.

    - lineitem streams to (orderkey, revenue_cents) partials, filtered to
      returnflag='R' map-side; orders stream date-filtered to (orderkey,
      custkey); shuffle #1 on orderkey attaches custkey to revenue.
    - shuffle #2 reduces revenue per custkey in hash buckets; each bucket
      emits only its local top-k (a custkey lives in exactly one bucket),
      so the global sort ranks #buckets × k rows.
    - customer NAMES never enter a shuffle: only after the top-k custkeys
      are known does one pushdown-filtered read of the customer table
      attach c_name/nation — at 100 TB the name columns of 10⁸ customers
      stay in storage.  Ties break on custkey ascending (both sides).
    """
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    lo = np.datetime64(date_lo)
    hi = np.datetime64(date_hi)

    line = _read(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_returnflag", "l_extendedprice",
                 "l_discount"],
    )

    def line_rev(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_returnflag"] == "R"]
        out = pd.DataFrame(
            {
                "l_orderkey": df["l_orderkey"].astype("int64"),
                "revenue_cents": cents(
                    df["l_extendedprice"].to_numpy()
                    * (1.0 - df["l_discount"].to_numpy())
                ),
            }
        )
        return out.groupby("l_orderkey", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum")
        ).astype("int64")

    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def order_rows(df: pd.DataFrame) -> pd.DataFrame:
        d = df["o_orderdate"].to_numpy()
        df = df[(d >= lo) & (d < hi)]
        return pd.DataFrame(
            {
                "l_orderkey": df["o_orderkey"].astype("int64"),
                "o_custkey": df["o_custkey"].astype("int64"),
            }
        )

    joined = shuffle_join(
        line.map_batches(line_rev, batch_format="pandas"),
        orders.map_batches(order_rows, batch_format="pandas"),
        on="l_orderkey",
    ).select_columns(["o_custkey", "revenue_cents"])

    def topk_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("o_custkey", as_index=False).agg(
            revenue_cents=("revenue_cents", "sum")
        ).astype("int64")
        return g.sort_values(
            ["revenue_cents", "o_custkey"], ascending=[False, True]
        ).head(k)

    from ..functions.grouping import bucketed_group_apply

    # survivors are ≤ #buckets × k rows — rank them in the same driver
    # collect that late materialization needs anyway (no Sort all-to-all)
    ranked = (
        bucketed_group_apply(joined, "o_custkey", topk_bucket)
        .to_pandas()
        .sort_values(["revenue_cents", "o_custkey"],
                     ascending=[False, True])
        .head(k)
    )

    # late materialization: fetch names for exactly the k winners
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name"],
        filters=pc.field("c_custkey").isin(ranked["o_custkey"].tolist()),
    ).to_pandas()
    out = ranked.merge(
        cust, left_on="o_custkey", right_on="c_custkey"
    )[["o_custkey", "c_name", "revenue_cents"]]
    out["o_custkey"] = out["o_custkey"].astype("int64")
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    return out


Q10_SQL = """
SELECT o_custkey, c_name,
  CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount) * 100 + 0.5)
    AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer, orders, lineitem
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_returnflag = 'R'
  AND o_orderdate >= TIMESTAMP '1996-01-01'
  AND o_orderdate < TIMESTAMP '1996-04-01'
GROUP BY o_custkey, c_name
ORDER BY revenue_cents DESC, o_custkey LIMIT 20
"""


# --- ROLLUP: multi-level aggregate in one shuffle -------------------------


def docs_lang_source_rollup(sf_dir: str):
    """Doc counts + total chars by (lang, source) with ROLLUP subtotals:
    leaf rows, per-lang subtotals, and the grand total — three grouping
    levels in ONE shuffle.

    The scale trick: the map-side partial emits each batch's aggregate at
    ALL three levels (the level key is a row function of the group key),
    so subtotals never require a second pass over the leaves — the single
    bucketed merge reduces 3 × (#langs × #sources) partial rows per batch.
    NULL rollup markers are materialized as the 'ALL' sentinel on both the
    Ray and SQL sides (COALESCE), keeping the hash compare exact.
    """
    return _lang_source_grouping_sets(
        sf_dir, [("lang", "source"), ("lang",), ()]
    )


def _lang_source_grouping_sets(sf_dir: str, levels):
    """(lang, source, n_docs, total_chars) over GROUPING SETS ``levels``:
    each document row is repeated once per level map-side, with the
    columns a level rolls up set to 'ALL', so every level merges in the
    same (lang, source)-keyed combiner and shuffle."""
    from ..functions.grouping import two_phase_agg

    ds = _read_clean(
        f"{sf_dir}/documents.parquet", columns=["lang", "source", "n_chars"]
    )

    def per_level(df: pd.DataFrame) -> pd.DataFrame:
        return pd.concat(
            [df.assign(**{c: "ALL" for c in ("lang", "source")
                          if c not in kept}) for kept in levels],
            ignore_index=True,
        )

    return two_phase_agg(
        ds, ["lang", "source"],
        {"n_docs": ("n_chars", "count"), "total_chars": ("n_chars", "sum")},
        prep=per_level,
    )


ROLLUP_SQL = """
SELECT COALESCE(lang, 'ALL') AS lang, COALESCE(source, 'ALL') AS source,
  COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY ROLLUP(lang, source)
"""


# --- TF-IDF term ranking (corpus-wide df broadcast + row-local rank) ------


_TF_DF_SCHEMA = pa.schema([("doc_id", pa.int64()), ("token", pa.string()),
                           ("tf", pa.int64()), ("df", pa.int64())])


def docs_tfidf_terms(sf_dir: str, k: int = 3,
                     heavy_df_threshold: int | None = None):
    """Top-k distinctive terms per document, ranked by (tf DESC, df ASC,
    token ASC) — the tf-idf ordering (frequent in the doc, rare across the
    corpus) kept integer-exact so the SQL oracle matches value-for-value.

    Scale shape (no vocabulary-sized driver state — the corpus
    document-frequency table stays DISTRIBUTED):

    1. tf rows ``(doc_id, token, tf)`` are a pure map-side explode
       (tf is computable within one row).
    2. df is built with an in-batch distinct-per-doc combiner and one
       token-keyed bucketed merge — a distributed ``(token, df)`` table.
    3. df attach is a HYBRID join split by frequency:
       - HEAVY tokens (``df >= heavy_df_threshold``) are collected and
         broadcast via ``ray.put``.  The default threshold is
         ``n_docs / 200`` — SCALE-FREE by construction: a heavy token
         appears in ≥ 0.5% of documents, so there are at most
         ``200 × avg_tokens_per_doc`` of them at ANY corpus size (a
         hundred thousand entries for natural text), never the
         vocabulary.
         These are exactly the shuffle-skew keys (stopwords), so
         broadcasting them also removes every hot reducer.
       - LIGHT tokens shuffle-join against the distributed light-df table;
         every light key has < threshold rows, so no reducer hotspot.
       Either side short-circuits when empty (a controlled small
       vocabulary has no light tail; a near-unique id-like column has no
       heavy head) — the common single-branch corpora pay one pass.
    4. One doc-keyed bucketed reduce ranks top-k per doc (vectorized
       groupby-cumcount, never per-row Python).

    When both branches are live they re-execute the map-side explode (Ray
    Data recomputes shared lineage rather than caching it): three
    streaming column-pruned passes over ``text`` total — a deliberate
    trade against materializing the corpus-sized (doc, token, tf) explode
    in the object store."""
    import ray

    import pyarrow.parquet as pq

    if heavy_df_threshold is None:
        n_docs = pq.ParquetFile(
            f"{sf_dir}/documents.parquet"
        ).metadata.num_rows
        heavy_df_threshold = max(2, n_docs // 200)

    from ..functions.grouping import (
        bucketed_group_apply, text_tokens, two_phase_agg,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def tf_rows(batch: pa.Table) -> pa.Table:
        from collections import Counter

        doc_ids: list[int] = []
        toks: list[str] = []
        tfs: list[int] = []
        for did, t in zip(batch["doc_id"].to_pylist(),
                          batch["text"].to_pylist()):
            for tok, cnt in Counter(t.split(" ")).items():
                doc_ids.append(did)
                toks.append(tok)
                tfs.append(cnt)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "token": pa.array(toks, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
            }
        )

    tf_ds = ds.map_batches(tf_rows, batch_format="pyarrow")
    df_tbl = two_phase_agg(
        ds, "token", {"df": ("token", "count")},
        prep=lambda df: text_tokens(df, distinct=True),
    ).materialize()

    import pyarrow.compute as pc

    def keep_heavy(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["df"],
                                             heavy_df_threshold))

    def keep_light(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["df"], heavy_df_threshold))

    # heavy side: bounded collect (≤ Σtf / threshold entries), broadcast
    heavy_pd = df_tbl.map_batches(
        keep_heavy, batch_format="pyarrow"
    ).to_pandas()
    heavy_map = (
        dict(zip(heavy_pd["token"], heavy_pd["df"].astype(int)))
        if "token" in heavy_pd.columns else {}
    )  # empty filter result drops the schema entirely
    heavy_ref = ray.put(heavy_map)
    light_df_tbl = df_tbl.map_batches(keep_light, batch_format="pyarrow")
    # df_tbl is materialized and token-scale (tiny next to the explode), so
    # counting the light side is cheap — and when a corpus has NO light
    # tokens (every token clears the threshold, common for small controlled
    # vocabularies), the whole split/shuffle-join branch is dead weight:
    # attach everything map-side and skip the second explode recompute
    n_light = light_df_tbl.count()

    def split_heavy(batch: pa.Table) -> pa.Table:
        """Attach df map-side for heavy tokens; mark the light rest with
        df = -1 so the shuffle join only carries light rows."""
        from ..stages.base import worker_cached

        heavy = worker_cached("tfidf_heavy",
                              lambda: ray.get(heavy_ref),
                              heavy_ref.hex())
        df = batch.to_pandas()
        # Series.map(dict) is the C-path lookup; misses become -1
        df["df"] = df["token"].map(heavy).fillna(-1).astype("int64")
        return table_from_pandas(df, preserve_index=False)

    def keep_attached(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.greater_equal(batch["df"], 0))

    def keep_unattached(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.less(batch["df"], 0)).drop_columns(["df"])

    tagged = tf_ds.map_batches(split_heavy, batch_format="pyarrow")
    if n_light == 0:
        # all-heavy corpus: every tf row attaches map-side in one pass
        attached = tagged
    else:
        heavy_rows = tagged.map_batches(keep_attached,
                                        batch_format="pyarrow")
        light_rows = tagged.map_batches(keep_unattached,
                                        batch_format="pyarrow")

        from ..functions.joins import shuffle_join

        # the join NaN-promotes its one-side int columns to float64; cast
        # back so every block of the union carries the heavy side's schema
        light_joined = shuffle_join(light_rows, light_df_tbl, on="token")
        attached = heavy_rows.union(light_joined.map_batches(
            lambda t: t.select(_TF_DF_SCHEMA.names).cast(_TF_DF_SCHEMA),
            batch_format="pyarrow"))

    def rank_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["doc_id", "tf", "df", "token"],
            ascending=[True, False, True, True],
        )
        df["rank"] = (df.groupby("doc_id").cumcount() + 1).astype("int64")
        out = df[df["rank"] <= k]
        return out[["doc_id", "rank", "token", "tf", "df"]].reset_index(
            drop=True
        )

    return bucketed_group_apply(attached, "doc_id", rank_bucket)


def tfidf_terms_sql(k: int = 3) -> str:
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
),
tf AS (
  SELECT doc_id, token, COUNT(*) AS tf FROM tok GROUP BY doc_id, token
),
df AS (
  SELECT token, COUNT(DISTINCT doc_id) AS df FROM tok GROUP BY token
),
r AS (
  SELECT tf.doc_id, tf.token, tf.tf, df.df,
    ROW_NUMBER() OVER (PARTITION BY tf.doc_id
                       ORDER BY tf.tf DESC, df.df, tf.token) AS rn
  FROM tf JOIN df USING (token)
)
SELECT doc_id, CAST(rn AS BIGINT) AS rank, token, tf, df
FROM r WHERE rn <= {k}
"""


TFIDF_TERMS_SQL = tfidf_terms_sql()


# --- sessionized funnel conversion (view -> purchase within a session) ----


def events_funnel(sf_dir: str, gap_minutes: int = SESSION_GAP_MIN):
    """(user_id, n_sessions, n_converting): how many of each user's
    sessions contain a view followed by a STRICTLY LATER purchase — the
    funnel-conversion window operator composed on top of sessionize's
    boundary rule (same >gap inactivity split, same (ts, event_id)
    restored ordering).

    Scale shape: identical to ``events_sessionize`` — a column-pruned read
    and ONE user-keyed bucketed reduce; sessions, the view/purchase
    extrema and the per-user counts all reduce vectorized inside the
    bucket (no per-session Python, nothing on the driver)."""
    ds = _read(sf_dir, "events",
               columns=["user_id", "event_id", "ts", "event_type"])
    gap = np.timedelta64(gap_minutes * 60, "s")

    def funnel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        ts = df["ts"].to_numpy()
        users = df["user_id"].to_numpy()
        new_session = np.ones(len(df), dtype=bool)
        if len(df) > 1:
            new_session[1:] = (users[1:] != users[:-1]) | (
                (ts[1:] - ts[:-1]) > gap
            )
        sid = np.cumsum(new_session)
        et = df["event_type"].to_numpy()
        per = pd.DataFrame(
            {
                "user_id": users,
                "sid": sid,
                "view_ts": np.where(et == "view", ts, np.datetime64("NaT")),
                "purch_ts": np.where(et == "purchase", ts,
                                     np.datetime64("NaT")),
            }
        ).groupby(["user_id", "sid"], as_index=False).agg(
            v=("view_ts", "min"), p=("purch_ts", "max")
        )
        per["converts"] = (
            per["v"].notna() & per["p"].notna() & (per["v"] < per["p"])
        )
        out = per.groupby("user_id", as_index=False).agg(
            n_sessions=("sid", "size"), n_converting=("converts", "sum")
        )
        return out.astype("int64")

    from ..functions.grouping import bucketed_group_apply

    return bucketed_group_apply(ds, "user_id", funnel)


FUNNEL_SQL = f"""
WITH o AS (
  SELECT user_id, event_id, ts, event_type,
    LAG(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
  FROM events
), marked AS (
  SELECT user_id, event_id, ts, event_type,
    CASE WHEN prev_ts IS NULL
              OR ts - prev_ts > INTERVAL {SESSION_GAP_MIN} MINUTE
         THEN 1 ELSE 0 END AS is_new
  FROM o
), sess AS (
  SELECT user_id, event_type, ts,
    SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id
                      ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
      AS sid
  FROM marked
), per_sess AS (
  SELECT user_id, sid,
    MIN(CASE WHEN event_type = 'view' THEN ts END) AS v,
    MAX(CASE WHEN event_type = 'purchase' THEN ts END) AS p
  FROM sess GROUP BY user_id, sid
)
SELECT user_id, COUNT(*) AS n_sessions,
  CAST(SUM(CASE WHEN v IS NOT NULL AND p IS NOT NULL AND v < p
                THEN 1 ELSE 0 END) AS BIGINT) AS n_converting
FROM per_sess GROUP BY user_id
"""


def docs_lang_source_cube(sf_dir: str):
    """Doc counts + total chars by (lang, source) with CUBE subtotals —
    all FOUR grouping levels (leaf, per-lang, per-source, grand) in ONE
    shuffle: the same map-side multi-level partial as
    :func:`docs_lang_source_rollup`, plus the (ALL, source) level ROLLUP
    cannot express.  Still one bucketed merge over
    4 × (#langs × #sources) partial rows per batch."""
    return _lang_source_grouping_sets(
        sf_dir, [("lang", "source"), ("lang",), ("source",), ()]
    )


CUBE_SQL = """
SELECT COALESCE(lang, 'ALL') AS lang, COALESCE(source, 'ALL') AS source,
  COUNT(*) AS n_docs, CAST(SUM(n_chars) AS BIGINT) AS total_chars
FROM documents GROUP BY CUBE (lang, source)
"""


# --- cohort retention (first-activity cohort × day offset) -----------------


def events_retention(sf_dir: str):
    """(cohort_day, day_offset, n_users): classic retention triangle —
    users grouped by their first-activity day; how many were active again
    ``day_offset`` days later.

    Scale shape: ONE user-keyed bucketed reduce does all the per-user work
    (first day = min, distinct active days, offsets) — a user's whole
    history is co-located, so the per-(cohort, offset) user counts it
    emits are exact partials — then one tiny merge over
    #days × #offsets groups.  No user table ever broadcasts; the corpus
    streams through a single wide shuffle (same partitioning key as
    sessionize, reusable across both)."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {"user_id": df["user_id"],
             "day": df["ts"].dt.floor("D")}
        ).drop_duplicates()
        first = d.groupby("user_id")["day"].transform("min")
        out = pd.DataFrame(
            {
                "cohort_day": first,
                "day_offset": (d["day"] - first).dt.days.astype("int64"),
            }
        ).groupby(["cohort_day", "day_offset"], as_index=False).size()
        out.columns = ["cohort_day", "day_offset", "n_users"]
        out["n_users"] = out["n_users"].astype("int64")
        return out

    from ..functions.grouping import bucketed_group_apply, two_phase_agg

    return two_phase_agg(
        bucketed_group_apply(ds, "user_id", per_user),
        ["cohort_day", "day_offset"], {"n_users": ("n_users", "sum")},
    )


RETENTION_SQL = """
WITH d AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events
), f AS (
  SELECT user_id, MIN(day) AS first_day FROM d GROUP BY user_id
)
SELECT f.first_day AS cohort_day,
  CAST(date_diff('day', f.first_day, d.day) AS BIGINT) AS day_offset,
  COUNT(*) AS n_users
FROM d JOIN f USING (user_id)
GROUP BY 1, 2
"""


# --- Q18: HAVING-filtered fact⋈fact join + top-k late materialization ----


def q18_large_orders(sf_dir: str, min_qty: float = 300.0, k: int = 20):
    """TPC-H Q18 shape: customers holding the largest orders whose total
    lineitem quantity exceeds ``min_qty``.

    Scale shape: lineitem streams to per-orderkey quantity partials
    (map-side combiner), one bucketed merge applies the HAVING filter —
    after which only the qualifying orderkeys (a tiny, threshold-controlled
    fraction) move.  Shuffle #2 attaches order header columns
    (fact⋈filtered-fact on orderkey); per-batch partial top-k by
    totalprice bounds the driver collect at #batches × k rows; customer
    names late-materialize via one pushdown-filtered read of exactly the
    k winners (as in :func:`q10_returned_revenue` — name columns of 10⁸
    customers never leave storage).
    """
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..functions.grouping import empty_frame, two_phase_agg

    min_qty_cents = int(round(min_qty * 100))

    line = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
    qualifying = two_phase_agg(
        line, "l_orderkey", {"qty_cents": ("qty_cents", "sum")},
        prep=lambda df: df.assign(
            qty_cents=cents(df["l_quantity"].to_numpy())),
        having=lambda g: g["qty_cents"] > min_qty_cents,
    )

    orders = _read(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def order_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_orderkey": df["o_orderkey"].astype("int64"),
                "o_custkey": df["o_custkey"].astype("int64"),
                "total_cents": cents(df["o_totalprice"].to_numpy()),
            }
        )

    joined = shuffle_join(
        qualifying,
        orders.map_batches(order_rows, batch_format="pandas"),
        on="l_orderkey",
    )

    def topk_batch(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["total_cents", "l_orderkey"], ascending=[False, True]
        ).head(k)

    ranked = joined.map_batches(topk_batch, batch_format="pandas").to_pandas()
    if len(ranked) == 0:  # no order clears the bar: the join emits nothing
        return empty_frame({"o_orderkey": "int64", "o_custkey": "int64",
                            "c_name": "object", "total_cents": "int64",
                            "qty_cents": "int64"})
    ranked = ranked.sort_values(["total_cents", "l_orderkey"],
                                ascending=[False, True]).head(k)

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name"],
        filters=pc.field("c_custkey").isin(ranked["o_custkey"].tolist()),
    ).to_pandas()
    out = ranked.merge(cust, left_on="o_custkey", right_on="c_custkey")
    out = out.rename(columns={"l_orderkey": "o_orderkey"})[
        ["o_orderkey", "o_custkey", "c_name", "total_cents", "qty_cents"]
    ]
    for c in ("o_orderkey", "o_custkey", "total_cents", "qty_cents"):
        out[c] = out[c].astype("int64")
    return out


def q18_sql(min_qty: float = 300.0, k: int = 20) -> str:
    return f"""
SELECT o.o_orderkey, o.o_custkey, c.c_name,
  CAST(FLOOR(o.o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents,
  CAST(SUM(CAST(FLOOR(l.l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT)
    AS qty_cents
FROM orders o
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY o.o_orderkey, o.o_custkey, c.c_name, o.o_totalprice
HAVING SUM(CAST(FLOOR(l.l_quantity * 100 + 0.5) AS BIGINT))
  > {int(round(min_qty * 100))}
ORDER BY total_cents DESC, o.o_orderkey LIMIT {k}
"""


Q18_SQL = q18_sql()


# --- cumulative window: per-user running total ----------------------------


def events_running_total(sf_dir: str):
    """Per event: the user's cumulative value sum up to and including it
    (``SUM OVER (PARTITION BY user ORDER BY ts) ROWS UNBOUNDED PRECEDING``).

    Same physical plan as :func:`events_prev_lag` — ``groupby(user_id)``
    co-locates each user's history, the in-group sort restores time order,
    and the running total is a vectorized cumsum with a subtraction reset
    at user boundaries (no per-user Python loop).  Fixed-point cents keep
    the sum order-independent and oracle-exact.
    """
    from ..functions.grouping import bucketed_group_apply

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_id", "ts", "value"])

    def running(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        users = df["user_id"].to_numpy()
        c = cents(df["value"].to_numpy())
        cum = np.cumsum(c)
        # reset at user boundaries: subtract the cumulative total at each
        # user's start (propagated forward) — one vectorized pass
        starts = np.zeros(len(df), dtype=np.int64)
        if len(df):
            boundary = np.flatnonzero(users[1:] != users[:-1]) + 1
            starts[boundary] = cum[boundary - 1]
            starts = np.maximum.accumulate(starts)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "running_cents": cum - starts,
            }
        )

    return bucketed_group_apply(ds, "user_id", running)


RUNNING_TOTAL_SQL = """
SELECT event_id, user_id,
  CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
    OVER (PARTITION BY user_id ORDER BY ts, event_id
          ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    AS BIGINT) AS running_cents
FROM events
"""


# --- boolean AND retrieval scan -------------------------------------------


def docs_search_and(sf_dir: str, tokens: tuple[str, ...] = ("window", "sort")):
    """Documents containing ALL query tokens (boolean AND retrieval).

    Without a prebuilt index the scale-honest plan is a fully vectorized
    map-side scan: zero shuffles, zero driver state — each Arrow batch is
    filtered with ``pyarrow.compute.match_substring`` on space-padded text
    (exact token-boundary match in this single-space-separated corpus; a
    tokenizer-backed membership test replaces the padding trick for
    punctuated corpora).  The indexed alternative reads only the query
    tokens' posting lists (:func:`docs_posting_lists` materializes them);
    intersection then moves #matching-docs rows instead of scanning text.
    """
    import pyarrow.compute as pc

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def scan(batch: pa.Table) -> pa.Table:
        padded = pc.binary_join_element_wise(
            pa.scalar(" "), batch["text"], pa.scalar(" "), ""
        )
        mask = None
        for tok in tokens:
            m = pc.match_substring(padded, f" {tok} ")
            mask = m if mask is None else pc.and_(mask, m)
        return batch.filter(mask).select(["doc_id"])

    return ds.map_batches(scan, batch_format="pyarrow")


def search_and_sql(tokens: tuple[str, ...] = ("window", "sort")) -> str:
    conds = " AND ".join(
        f"list_contains(string_split(text, ' '), '{t}')" for t in tokens
    )
    return f"SELECT doc_id FROM documents WHERE {conds}"


SEARCH_AND_SQL = search_and_sql()


# --- percentile-cutoff quality filter (two-pass corpus filter) ------------


def docs_quality_filter(sf_dir: str, q_num: int = 1, q_den: int = 4):
    """Keep documents whose distinct-word count is at or above the corpus
    p25 — the percentile-thresholded quality filter every training-data
    pipeline runs (absolute thresholds drift as the corpus mixes; a
    percentile cutoff self-calibrates).

    Two-pass shape: pass 1 computes the per-doc signal once and
    materializes it (two int64 columns — ~16 B/row, negligible next to
    the text corpus it summarizes); its value DISTRIBUTION (per-count
    counts, bounded by max document length, not corpus size) folds to the
    driver where the exact order statistic ``ceil(q·n) − 1`` is read off
    the cumulative counts.  Pass 2 re-filters the materialized signal
    against the scalar cutoff — the text column is scanned exactly once.
    """
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def signal(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "n_distinct_words": pa.array(
                    [len(set(t.split(" "))) for t in texts], pa.int64()
                ),
            }
        )

    stats = ds.map_batches(signal, batch_format="pyarrow").materialize()

    def val_counts(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas().groupby(
            "n_distinct_words", as_index=False
        ).agg(cnt=("doc_id", "size"))
        df["cnt"] = df["cnt"].astype("int64")
        return table_from_pandas(df, preserve_index=False)

    hist = (
        stats.map_batches(val_counts, batch_format="pyarrow")
        .to_pandas()
        .groupby("n_distinct_words", as_index=False)["cnt"].sum()
        .sort_values("n_distinct_words")
    )
    cum = hist["cnt"].to_numpy().cumsum()
    n = int(cum[-1])
    idx = (n * q_num + q_den - 1) // q_den - 1  # ceil(q*n) - 1, exact
    cutoff = int(
        hist["n_distinct_words"].to_numpy()[np.searchsorted(cum, idx + 1)]
    )

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(
            pc.greater_equal(batch["n_distinct_words"], cutoff)
        )

    return stats.map_batches(keep, batch_format="pyarrow")


QUALITY_FILTER_SQL = """
WITH q AS (
  SELECT doc_id,
    len(list_distinct(string_split(text, ' '))) AS n_distinct_words
  FROM documents
), c AS (
  SELECT quantile_disc(n_distinct_words, 0.25) AS cut FROM q
)
SELECT doc_id, n_distinct_words FROM q, c WHERE n_distinct_words >= cut
"""


# --- correlated scalar subquery: rows above their group's average ---------


def parts_above_brand_avg(sf_dir: str):
    """Parts priced strictly above their brand's average retail price —
    the correlated-scalar-subquery shape (``WHERE x > (SELECT AVG ...
    correlated on brand)``).

    Decorrelated the way every engine plans it: one pass builds per-brand
    (sum_cents, n) partials (map-side combiner; #brands rows move, not
    parts), the merged per-brand averages — a GROUP-cardinality dimension,
    unlike the corpus-cardinality percentile in
    :func:`docs_quality_filter` — broadcast via ``ray.put``, and a second
    streaming pass filters map-side.  The comparison runs in integer
    cross-multiplication (``price_cents · n > sum_cents``), so no float
    average ever exists to disagree with the oracle.
    """
    import ray

    from ..functions.grouping import two_phase_agg

    ds = _read(sf_dir, "part",
               columns=["p_partkey", "p_brand", "p_retailprice"])
    brand = two_phase_agg(
        ds, "p_brand",
        {"sum_cents": ("price_cents", "sum"), "n": ("p_brand", "count")},
        prep=lambda df: df.assign(
            price_cents=cents(df["p_retailprice"].to_numpy())),
    ).to_pandas()
    bref = ray.put(
        {b: (int(s), int(n)) for b, s, n in
         zip(brand["p_brand"], brand["sum_cents"], brand["n"])}
    )

    def above(df: pd.DataFrame) -> pd.DataFrame:
        from ..stages.base import worker_cached

        m = worker_cached("brand_avg", lambda: ray.get(bref), bref.hex())
        price = cents(df["p_retailprice"].to_numpy())
        sums = df["p_brand"].map(lambda b: m[b][0]).to_numpy(np.int64)
        ns = df["p_brand"].map(lambda b: m[b][1]).to_numpy(np.int64)
        keep = price * ns > sums
        out = pd.DataFrame(
            {
                "p_partkey": df["p_partkey"].astype("int64"),
                "p_brand": df["p_brand"],
                "price_cents": price,
            }
        )
        return out[keep].reset_index(drop=True)

    return ds.map_batches(above, batch_format="pandas")


ABOVE_BRAND_AVG_SQL = """
WITH b AS (
  SELECT p_brand,
    SUM(CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT)) AS sum_cents,
    COUNT(*) AS n
  FROM part GROUP BY p_brand
)
SELECT p.p_partkey, p.p_brand,
  CAST(FLOOR(p.p_retailprice * 100 + 0.5) AS BIGINT) AS price_cents
FROM part p JOIN b USING (p_brand)
WHERE CAST(FLOOR(p.p_retailprice * 100 + 0.5) AS BIGINT) * b.n > b.sum_cents
"""


# --- pivot / conditional aggregation ---------------------------------------

_EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_user_type_pivot(sf_dir: str):
    """Per-user event counts pivoted to one column per event type
    (``COUNT(*) FILTER (WHERE type = ...)``) — the conditional-aggregation
    / PIVOT shape.

    The pivot happens MAP-SIDE (a pandas crosstab per batch against the
    closed type universe), so the shuffle carries one wide partial row per
    (user, batch) — #types integer columns — and the merge is a plain sum
    per user; at 10¹² events the exchange scales with users, not events.
    """
    from ..functions.grouping import two_phase_agg

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    cols = {f"n_{t}": t for t in _EVENT_TYPES}

    def one_hot(df: pd.DataFrame) -> pd.DataFrame:
        # closed type universe: one 0/1 column per type, absent types zero
        et = df["event_type"]
        return df[["user_id"]].assign(
            **{c: (et == t).astype("int64") for c, t in cols.items()})

    return two_phase_agg(ds, "user_id", {c: (c, "sum") for c in cols},
                         prep=one_hot)


USER_TYPE_PIVOT_SQL = f"""
SELECT user_id,
  {", ".join(
      f"COUNT(*) FILTER (WHERE event_type = '{t}') AS n_{t}"
      for t in _EVENT_TYPES
  )}
FROM events GROUP BY user_id
"""


# --- grouped collect (string_agg) ------------------------------------------


def region_nations_list(sf_dir: str):
    """Per region: the sorted comma-joined list of its nation names — the
    grouped-collect (``string_agg`` / ``collect_list``) aggregate.

    Nation⋈region is a broadcast dimension join; the collect itself is a
    bucketed reduce whose per-group payload is bounded by the group's
    member count (here 5; at corpus scale a collect over an unbounded
    group needs the provenance-style cap used in ``stages/graph.py``).
    """
    from ..functions.grouping import bucketed_group_apply

    nations = _read(sf_dir, "nation",
                    columns=["n_name", "n_regionkey"])
    regions = _read(sf_dir, "region",
                    columns=["r_regionkey", "r_name"]).to_pandas()
    joined = broadcast_join(nations, regions,
                            left_on="n_regionkey", right_on="r_regionkey")

    def collect(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("r_name")["n_name"].apply(
            lambda s: ",".join(sorted(s))
        )
        out = g.reset_index().rename(columns={"n_name": "nations"})
        out["n_nations"] = out["nations"].str.count(",") + 1
        out["n_nations"] = out["n_nations"].astype("int64")
        return out

    return bucketed_group_apply(
        joined, "r_name", collect,
        empty_result={"r_name": "object", "nations": "object",
                      "n_nations": "int64"},
    )


REGION_NATIONS_SQL = """
SELECT r_name, string_agg(n_name, ',' ORDER BY n_name) AS nations,
  COUNT(*) AS n_nations
FROM nation JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name
"""


# --- RANGE-frame moving window (time-based, not row-based) ------------------


def events_value_ma_1h(sf_dir: str):
    """Per event: the user's value sum over the trailing ONE HOUR
    (``SUM OVER (PARTITION BY user ORDER BY ts RANGE BETWEEN INTERVAL 1
    HOUR PRECEDING AND CURRENT ROW)``) — the RANGE window frame, whose
    bounds are time offsets rather than row counts (and whose frame
    includes ts-peers, unlike ROWS).

    Same one-shuffle plan as the other per-user windows; within a bucket
    the frame sums are cumulative-sum differences at binary-searched time
    bounds (``cum[hi] − cum[lo]``), vectorized per user segment.
    """
    from ..functions.grouping import bucketed_group_apply

    W_US = 3_600_000_000  # 1 hour in microseconds

    def ma(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"])
        ts_us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        c = cents(df["value"].to_numpy())
        users = df["user_id"].to_numpy()
        out = np.empty(len(df), dtype=np.int64)
        # user segments are contiguous after the sort; per segment the
        # frame is cum[hi] - cum[lo] with hi/lo from two vectorized
        # searchsorteds (hi side='right' pulls in ts-peers, lo side='left'
        # keeps the inclusive PRECEDING bound)
        seg = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        for s, e in zip(seg, np.r_[seg[1:], len(df)]):
            t = ts_us[s:e]
            cum = np.r_[0, np.cumsum(c[s:e])]
            lo = np.searchsorted(t, t - W_US, side="left")
            hi = np.searchsorted(t, t, side="right")
            out[s:e] = cum[hi] - cum[lo]
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "user_id": df["user_id"].astype("int64"),
                "ma_cents": out,
            }
        )

    ds = _read(sf_dir, "events",
               columns=["user_id", "event_id", "ts", "value"])
    return bucketed_group_apply(ds, "user_id", ma)


VALUE_MA_1H_SQL = """
SELECT event_id, user_id,
  CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
    OVER (PARTITION BY user_id ORDER BY ts
          RANGE BETWEEN INTERVAL 1 HOUR PRECEDING AND CURRENT ROW)
    AS BIGINT) AS ma_cents
FROM events
"""


# --- RANK() with ties (gap ranking, vs ROW_NUMBER's arbitrary tie-break) ---


def parts_price_rank(sf_dir: str, k: int = 3):
    """Per brand: every part whose price RANK is ≤ k — ``RANK()`` (ties
    share a rank and create gaps), distinct from the ROW_NUMBER top-k of
    ``docs_top2_per_lang``: a price tie at rank k returns ALL tied rows,
    so group output size is data-dependent.

    One brand-keyed bucketed reduce; within a bucket the rank is fully
    vectorized: row_number by (brand, price desc, key) then the per-
    (brand, price) MIN row_number — exactly RANK's definition.
    """
    from ..functions.grouping import bucketed_group_apply

    ds = _read(sf_dir, "part",
               columns=["p_partkey", "p_brand", "p_retailprice"])

    def rank_bucket(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "p_brand": df["p_brand"],
                "p_partkey": df["p_partkey"].astype("int64"),
                "price_cents": cents(df["p_retailprice"].to_numpy()),
            }
        ).sort_values(["p_brand", "price_cents", "p_partkey"],
                      ascending=[True, False, True])
        rn = out.groupby("p_brand").cumcount() + 1
        out["rank"] = rn.groupby(
            [out["p_brand"], out["price_cents"]]
        ).transform("min").astype("int64")
        return out[out["rank"] <= k].reset_index(drop=True)

    return bucketed_group_apply(ds, "p_brand", rank_bucket)


def parts_price_rank_sql(k: int = 3) -> str:
    return f"""
SELECT p_brand, p_partkey, price_cents, rank FROM (
  SELECT p_brand, p_partkey,
    CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT) AS price_cents,
    RANK() OVER (PARTITION BY p_brand
                 ORDER BY CAST(FLOOR(p_retailprice * 100 + 0.5) AS BIGINT)
                 DESC) AS rank
  FROM part
) WHERE rank <= {k}
"""


PRICE_RANK_SQL = parts_price_rank_sql()


# --- round 5: exact variance / set ops / range join / NTILE ---------------


def _var_value(n: int, sc: int, sc2: int) -> float:
    """Population variance in value units from exact (n, Σc, Σc²) cents
    totals, in the oracle's double arithmetic: each total is cast to double
    first, then ``(Σc² − Σc·Σc/n) / n / 10⁴`` left to right."""
    return (float(sc2) - float(sc) * float(sc) / n) / n / 10000.0


def events_type_stats_var(sf_dir: str):
    """Per-type variance/stddev via decomposable (n, Σc, Σc²) integer
    partials over fixed-point cents — the moments reduce.

    The raw-double Welford/naive float sums differ across partitionings in
    the last ulp; summing exact int64 cents (and cents²) makes the merge
    order-independent, then :func:`_var_value` evaluates the oracle's own
    double expression on the exact totals, so both sides round the same
    way at any scale (``Σc·Σc`` is a double product on both, even once it
    exceeds 2^53).  Partial Σc² per batch stays far below int64 (cents ≤
    ~10⁶, squared 10¹² × batch rows); the cross-batch merge runs in Python
    ints (arbitrary precision) inside the tiny 5-group final, so no corpus
    size overflows the totals.
    """
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        c = cents(df["value"].to_numpy())
        g = pd.DataFrame({"event_type": df["event_type"], "c": c,
                          "c2": c * c})
        out = g.groupby("event_type", as_index=False).agg(
            n=("c", "size"), sum_c=("c", "sum"), sum_c2=("c2", "sum"))
        return table_from_pandas(out, preserve_index=False)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, grp in df.groupby("event_type"):
            # Python-int totals: exact at any corpus size (the group count
            # here is the event-type universe, not the corpus)
            n = int(grp["n"].sum())
            sc = sum(int(v) for v in grp["sum_c"])
            sc2 = sum(int(v) for v in grp["sum_c2"])
            var_value = _var_value(n, sc, sc2)
            rows.append({
                "event_type": et, "n": n, "sum_cents": sc,
                "var_value": var_value,
                "stddev_value": float(np.sqrt(var_value)),
            })
        out = pd.DataFrame(rows)
        out["n"] = out["n"].astype("int64")
        out["sum_cents"] = out["sum_cents"].astype("int64")
        return out

    from ..functions.grouping import bucketed_group_apply

    return bucketed_group_apply(
        ds.map_batches(partial, batch_format="pyarrow"), "event_type", merge,
        empty_result={"event_type": "object", "n": "int64",
                      "sum_cents": "int64", "var_value": "float64",
                      "stddev_value": "float64"},
    )


TYPE_STATS_VAR_SQL = """
WITH m AS (
  SELECT event_type,
    COUNT(*) AS n,
    SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS sum_c,
    SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)
        * CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS sum_c2
  FROM events GROUP BY event_type
)
SELECT event_type, CAST(n AS BIGINT) AS n, CAST(sum_c AS BIGINT) AS sum_cents,
  (CAST(sum_c2 AS DOUBLE)
   - (CAST(sum_c AS DOUBLE) * CAST(sum_c AS DOUBLE)) / CAST(n AS DOUBLE))
   / CAST(n AS DOUBLE) / 10000.0 AS var_value,
  SQRT((CAST(sum_c2 AS DOUBLE)
   - (CAST(sum_c AS DOUBLE) * CAST(sum_c AS DOUBLE)) / CAST(n AS DOUBLE))
   / CAST(n AS DOUBLE) / 10000.0) AS stddev_value
FROM m
"""


HI_VALUE_CENTS = 9000  # value >= 90.00, in exact cents


def _users_by_type_flags(sf_dir: str):
    """Per-user presence flags for the set-operator family: one map-side
    dedup partial (distinct (user, has_hi_purchase, has_hi_view) per
    batch) and one bucketed OR-merge per user — the INTERSECT/EXCEPT
    kernel.  The exchange carries at most one row per (batch, user), never
    the events."""
    from ..functions.grouping import two_phase_agg

    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        et = df["event_type"]
        hi = cents(df["value"].to_numpy()) >= HI_VALUE_CENTS
        return df[["user_id"]].assign(
            hi_purchase=((et == "purchase") & hi).astype("int64"),
            hi_view=((et == "view") & hi).astype("int64"),
        )

    return two_phase_agg(
        ds, "user_id",
        {"hi_purchase": ("hi_purchase", "max"), "hi_view": ("hi_view", "max")},
        prep=flags,
    )


def events_hivalue_except_users(sf_dir: str):
    """EXCEPT set operator: distinct users with a high-value (≥ 90.00)
    purchase and NO high-value view.  Shares the flag kernel with the
    INTERSECT variant — one shuffle, map-side dedup bounds the exchange at
    distinct users per batch."""
    flags = _users_by_type_flags(sf_dir)
    return flags.map_batches(
        lambda df: df.loc[
            (df["hi_purchase"] == 1) & (df["hi_view"] == 0), ["user_id"]
        ],
        batch_format="pandas",
    )


_HI_PURCHASE = ("SELECT user_id FROM events WHERE event_type = 'purchase' "
                "AND CAST(FLOOR(value * 100 + 0.5) AS BIGINT) >= 9000")
_HI_VIEW = ("SELECT user_id FROM events WHERE event_type = 'view' "
            "AND CAST(FLOOR(value * 100 + 0.5) AS BIGINT) >= 9000")

HIVALUE_EXCEPT_SQL = f"""
{_HI_PURCHASE}
EXCEPT
{_HI_VIEW}
"""


def events_hivalue_intersect_users(sf_dir: str):
    """INTERSECT set operator: distinct users with BOTH a high-value
    purchase and a high-value view (same flag kernel as EXCEPT)."""
    flags = _users_by_type_flags(sf_dir)
    return flags.map_batches(
        lambda df: df.loc[
            (df["hi_purchase"] == 1) & (df["hi_view"] == 1), ["user_id"]
        ],
        batch_format="pandas",
    )


HIVALUE_INTERSECT_SQL = f"""
{_HI_PURCHASE}
INTERSECT
{_HI_VIEW}
"""


# discount bands for the broadcast range join: [lo, hi) in exact cents of
# discount-percent (l_discount ∈ [0, 0.1] in TPC-H) — a closed static dim
DISCOUNT_BANDS = [
    ("none", 0.00, 0.02),
    ("low", 0.02, 0.05),
    ("mid", 0.05, 0.08),
    ("high", 0.08, 1.01),
]


def lineitem_discount_bands(sf_dir: str):
    """Broadcast RANGE join: lineitem.l_discount ⋈ a small interval table
    (``lo <= d < hi``), then a per-band revenue rollup.

    The scale shape for joining a fact column to a SMALL set of intervals:
    ship the band edges to every task (they are a constant here; a real
    dim table would go via ``ray.put``) and resolve each row's band with
    one vectorized ``np.searchsorted`` against the sorted ``lo`` edges —
    no shuffle at all until the 4-group final.  Band membership is decided
    on exact integer "discount cents" (``floor(d*1000+0.5)``), so float
    edge cases land identically here and in the SQL oracle.
    """
    from ..functions.grouping import two_phase_agg

    ds = _read(sf_dir, "lineitem",
               columns=["l_discount", "l_extendedprice"])
    names = np.array([b[0] for b in DISCOUNT_BANDS])
    # exact per-mille edges: 0, 20, 50, 80, 1010
    los = np.array([int(np.floor(b[1] * 1000 + 0.5)) for b in DISCOUNT_BANDS]
                   + [int(np.floor(DISCOUNT_BANDS[-1][2] * 1000 + 0.5))],
                   dtype=np.int64)

    def band_rows(df: pd.DataFrame) -> pd.DataFrame:
        d_mille = np.floor(
            df["l_discount"].to_numpy(dtype=np.float64) * 1000 + 0.5
        ).astype(np.int64)
        band_ix = np.searchsorted(los, d_mille, side="right") - 1
        return pd.DataFrame({
            "band": names[band_ix],
            "revenue_cents": cents(df["l_extendedprice"].to_numpy()),
        })

    return two_phase_agg(
        ds, "band",
        {"n_items": ("band", "count"),
         "revenue_cents": ("revenue_cents", "sum")},
        prep=band_rows,
    )


def _discount_bands_values() -> str:
    return ", ".join(
        f"('{n}', {int(np.floor(lo * 1000 + 0.5))}, "
        f"{int(np.floor(hi * 1000 + 0.5))})"
        for n, lo, hi in DISCOUNT_BANDS
    )


DISCOUNT_BANDS_SQL = f"""
WITH bands(band, lo_mille, hi_mille) AS (VALUES {_discount_bands_values()}),
li AS (SELECT CAST(FLOOR(l_discount * 1000 + 0.5) AS BIGINT) AS d_mille,
              CAST(FLOOR(l_extendedprice * 100 + 0.5) AS BIGINT) AS rev_cents
       FROM lineitem)
SELECT band, COUNT(*) AS n_items,
  CAST(SUM(rev_cents) AS BIGINT) AS revenue_cents
FROM li JOIN bands ON li.d_mille >= bands.lo_mille
                  AND li.d_mille < bands.hi_mille
GROUP BY band
"""


def events_user_ntile(sf_dir: str, n_tiles: int = 4):
    """NTILE(4) OVER (PARTITION BY user_id ORDER BY ts, event_id) — the
    tile-assignment window function: one bucketed shuffle on user_id, then
    a fully vectorized in-bucket kernel (lexsort + cumcount + the exact
    NTILE size rule: the first ``n mod k`` tiles get ``⌈n/k⌉`` rows).
    The (ts, event_id) order key is a total order (event_id unique), so
    tile assignment is deterministic — SQL-exact."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    from ..functions.grouping import bucketed_group_apply

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort").reset_index(drop=True)
        g = df.groupby("user_id")
        r = g.cumcount().to_numpy()
        n = g["user_id"].transform("size").to_numpy()
        small = n // n_tiles          # base tile size
        big = n % n_tiles             # first `big` tiles get small+1
        cut = big * (small + 1)       # rows covered by the big tiles
        # r < cut → tile r // (small+1); else big + (r-cut) // small
        # (small == 0 only when n < k, and then every row is r < cut)
        safe_small = np.where(small == 0, 1, small)
        tile = np.where(
            r < cut, r // (small + 1), big + (r - cut) // safe_small
        ) + 1
        return pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "user_id": df["user_id"].astype("int64"),
            "tile": tile.astype("int64"),
        })

    return bucketed_group_apply(ds, "user_id", assign)


USER_NTILE_SQL = """
SELECT event_id, user_id,
  CAST(NTILE(4) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT)
    AS tile
FROM events
"""


def custs_priority_mode(sf_dir: str):
    """MODE aggregate: each customer's most-frequent order priority, ties
    broken lexicographically (DuckDB's ``mode()`` leaves ties unspecified,
    so the oracle uses an explicit ROW_NUMBER over the same (cnt DESC,
    priority ASC) order — deterministic on both sides).

    Decomposable shape: the (cust, priority) COUNT is a two-phase
    aggregate (map-side partials collapse each batch to its distinct
    pairs), then one customer-keyed bucketed reduce takes the argmax — the
    exchanges carry distinct (cust, priority) pairs (≤ 5 rows/cust), never
    the orders.
    """
    from ..functions.grouping import bucketed_group_apply, two_phase_agg

    ds = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])
    counts = two_phase_agg(
        ds, ["o_custkey", "o_orderpriority"],
        {"cnt": ("o_orderpriority", "count")},
    )

    def mode(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized argmax with the tie rule: sort (cnt DESC, prio ASC)
        # then take the first row per customer
        ranked = df.sort_values(
            ["o_custkey", "cnt", "o_orderpriority"],
            ascending=[True, False, True], kind="mergesort",
        )
        out = ranked.groupby("o_custkey", as_index=False).first()
        out = out.rename(columns={"o_orderpriority": "mode_priority",
                                  "cnt": "n_orders_at_mode"})
        return out[["o_custkey", "mode_priority", "n_orders_at_mode"]]

    return bucketed_group_apply(counts, "o_custkey", mode)


PRIORITY_MODE_SQL = """
WITH c AS (
  SELECT o_custkey, o_orderpriority, COUNT(*) AS cnt
  FROM orders GROUP BY o_custkey, o_orderpriority
),
r AS (
  SELECT o_custkey, o_orderpriority, cnt,
    ROW_NUMBER() OVER (PARTITION BY o_custkey
                       ORDER BY cnt DESC, o_orderpriority ASC) AS rn
  FROM c
)
SELECT o_custkey, o_orderpriority AS mode_priority,
  CAST(cnt AS BIGINT) AS n_orders_at_mode
FROM r WHERE rn = 1
"""


HI_COVER_CENTS = 10000  # value >= 100.00, in exact cents


def events_full_coverage_users(sf_dir: str):
    """Relational DIVISION: users with a high-value (≥ 100.00) event of
    EVERY event type that occurs among high-value events — the
    "suppliers-of-all-parts" query shape, done as division-by-counting.

    Scale shape: map-side distinct (user, type) pairs per batch (the
    exchange is bounded by #types rows per user per batch, never the
    events), one user-keyed bucketed reduce counts each user's distinct
    types, and the divisor — the global distinct-type count — folds from
    the SAME partials through a tiny coalesced reduce and ships as one
    broadcast scalar.  No corpus-sized side ever concentrates.
    """
    import ray

    ds = _read(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        hi = df[cents(df["value"].to_numpy()) >= HI_COVER_CENTS]
        out = hi[["user_id", "event_type"]].drop_duplicates()
        return table_from_pandas(out, preserve_index=False)

    pairs = ds.map_batches(partial, batch_format="pyarrow").materialize()

    # divisor: global distinct type count (type universe is tiny)
    k = int(
        pairs.map_batches(
            lambda df: df[["event_type"]].drop_duplicates(),
            batch_format="pandas",
        ).to_pandas()["event_type"].nunique()
    )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.drop_duplicates()
            .groupby("user_id", as_index=False)
            .agg(n_types=("event_type", "nunique"))
        )
        out = out[out["n_types"] == k][["user_id"]]
        out["user_id"] = out["user_id"].astype("int64")
        return out

    from ..functions.grouping import bucketed_group_apply

    return bucketed_group_apply(pairs, "user_id", merge)


FULL_COVERAGE_SQL = """
WITH hi AS (
  SELECT user_id, event_type FROM events
  WHERE CAST(FLOOR(value * 100 + 0.5) AS BIGINT) >= 10000
),
n AS (SELECT COUNT(DISTINCT event_type) AS k FROM hi)
SELECT user_id FROM hi
GROUP BY user_id
HAVING COUNT(DISTINCT event_type) = (SELECT k FROM n)
"""
