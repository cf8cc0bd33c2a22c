"""Join strategies for Ray Data (the reference has no relational joins —
SURVEY §2.5 — but an engine at corpus scale needs them).

Two physical strategies, chosen by side size:

- ``broadcast_join``: the small side is ``ray.put`` once as a hash map and
  probed inside ``map_batches`` — a map-side hash join, zero shuffle.  Use
  whenever one side fits comfortably in a worker heap (dimension tables).
- ``shuffle_join``: each projected side is materialized once, and the
  shuffle fabric's size gate (``grouping.merge_plan``, one plan record per
  call) picks where the join runs.  When both sides together fit the
  single-block limits, they are collected through the driver and joined
  there by one pandas merge: no union and no further Ray Data execution.
  Above the limits both sides are tagged and unioned, one hash-bucket
  shuffle co-locates matching keys, and each bucket runs the same merge —
  the general path for two large tables.  Skewed keys hurt the shuffle
  exactly like any other; pre-filter and pre-project before calling.
  Either way a non-key column that only one side has comes out
  NaN-compatible (int→float64, bool→object), as the union's null-fill
  requires.  On the driver plan, driver memory holds both sides and the
  joined output.
"""

from __future__ import annotations

from ..sources.readers import table_from_pandas

import numpy as np
import pandas as pd
import pyarrow as pa


def _pandas_dtypes(ds) -> dict[str, np.dtype]:
    """Column -> numpy dtype map from a Dataset's schema (arrow or pandas
    blocks; arrow types map through ``to_pandas_dtype``)."""
    sch = ds.schema()
    out: dict[str, np.dtype] = {}
    for name, t in zip(sch.names, sch.types):
        try:
            out[name] = np.dtype(t.to_pandas_dtype())
        except (AttributeError, TypeError):
            try:
                out[name] = np.dtype(t)
            except TypeError:
                out[name] = np.dtype("object")
    return out


def broadcast_join(
    large_ds,
    small_df: pd.DataFrame,
    left_on: str,
    right_on: str,
    how: str = "inner",
):
    """Probe-side map join: ``large_ds`` ⋈ broadcast ``small_df``.

    The small side ships to each task via Ray's object store (zero-copy
    reads per node, not per batch).
    """
    import ray

    small_ref = ray.put(small_df)

    def probe(batch: pa.Table) -> pa.Table:
        small = ray.get(small_ref)
        df = batch.to_pandas()
        out = df.merge(small, how=how, left_on=left_on, right_on=right_on)
        return table_from_pandas(out, preserve_index=False)

    return large_ds.map_batches(probe, batch_format="pyarrow")


def shuffle_join(left_ds, right_ds, on, l_cols=None, r_cols=None):
    """Inner hash join of two Datasets on ``on``, planned by the shuffle
    fabric's size gate (``grouping.merge_plan``).

    Projects each side first (never move unused columns) and materializes
    it once, so its schema and size come from the block metadata and no
    upstream runs twice.  Small sides are joined on the driver; larger ones
    are unioned with a side tag and hash-bucketed on the key, and each
    bucket joins every key in it at once.  ``on`` may be one column or a
    list (composite keys).
    """
    import ray

    from .grouping import hash_bucket_apply, merge_plan

    on = [on] if isinstance(on, str) else list(on)
    if l_cols is not None:
        left_ds = left_ds.select_columns(list(dict.fromkeys(on + l_cols)))
    if r_cols is not None:
        right_ds = right_ds.select_columns(list(dict.fromkeys(on + r_cols)))
    left_ds, right_ds = left_ds.materialize(), right_ds.materialize()
    # union() unifies schemas (null-filling the other side's columns), so
    # remember each side's real column set to re-project inside the group
    l_names = list(left_ds.schema().names)
    r_names = list(right_ds.schema().names)

    # normalize both sides to the SAME column set AND dtypes before the
    # union: reindex alone fills a side's missing columns with NaN
    # (float64) while the owning side keeps int64/bool, so the two sides'
    # blocks carry genuinely different schemas through the shuffle.  A
    # common dtype map — promote a column missing on one side to its
    # NaN-compatible dtype on BOTH sides — makes every union block
    # schema-identical.  Join keys exist on both sides, so key dtypes are
    # never promoted; non-key promotions (int→float64, exact below 2^53)
    # match what the in-bucket pandas concat did implicitly anyway.  The
    # driver plan applies the same casts, so both plans give equal frames.
    all_names = list(dict.fromkeys(l_names + r_names))
    l_types = _pandas_dtypes(left_ds)
    r_types = _pandas_dtypes(right_ds)

    def _null_ok(dt: np.dtype) -> np.dtype:
        if dt.kind in "iu":
            return np.dtype("float64")
        if dt.kind == "b":
            return np.dtype("object")
        return dt

    target: dict[str, np.dtype] = {}
    for c in all_names:
        if c in l_types and c in r_types:
            lt, rt = l_types[c], r_types[c]
            if lt == rt:
                target[c] = lt
            elif lt.kind in "iuf" and rt.kind in "iuf":
                target[c] = np.promote_types(lt, rt)
            else:
                target[c] = np.dtype("object")
        else:
            target[c] = _null_ok(l_types.get(c) or r_types[c])

    def cast(df: pd.DataFrame) -> pd.DataFrame:
        df = df.reindex(columns=all_names)
        casts = {c: t for c, t in target.items() if df[c].dtype != t}
        return df.astype(casts) if casts else df

    def tag(side: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return cast(df).assign(__side=side)

        return fn

    def join(l: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pandas merge joins EVERY key at once (merge handles
        # the per-key cartesian); a per-group merge would pay frame
        # construction per distinct key.  Merge on empty sides still yields
        # the full joined column set, so downstream stages always see a
        # stable schema
        return l.reindex(columns=l_names).merge(
            r.reindex(columns=r_names), on=on)

    def join_bucket(df: pd.DataFrame) -> pd.DataFrame:
        return join(df[df["__side"] == "l"], df[df["__side"] == "r"])

    plan, n_buckets = merge_plan(on, left_ds, right_ds)
    if plan == "single":
        return ray.data.from_pandas(
            join(cast(left_ds.to_pandas()), cast(right_ds.to_pandas())))
    tagged = left_ds.map_batches(tag("l"), batch_format="pandas").union(
        right_ds.map_batches(tag("r"), batch_format="pandas")
    )
    return hash_bucket_apply(tagged, on, join_bucket, n_buckets)


def cents(x: np.ndarray | pd.Series) -> np.ndarray:
    """Deterministic fixed-point money: floor(x*100 + 0.5) as int64.

    Matches DuckDB ``CAST(FLOOR(x*100 + 0.5) AS BIGINT)`` bit-for-bit, so
    distributed sums are order-independent integers (raw double sums differ
    across engines/partitionings in the last ulp).
    """
    arr = np.asarray(x, dtype=np.float64)
    return np.floor(arr * 100.0 + 0.5).astype(np.int64)
