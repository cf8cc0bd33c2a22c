"""Grouped merges: the one place that picks a merge plan.

``Dataset.groupby(key).map_groups(fn)`` calls ``fn`` once per group with a
per-group pandas frame — correct, but at 10⁶+ distinct keys the per-group
frame construction dominates (100 µs × 10⁶ groups ≈ minutes of pure
overhead).  ``bucketed_group_apply`` hands its UDF whole multi-group
frames instead, and the UDF runs a *vectorized* ``df.groupby(key)`` over
thousands of keys at once.

It materializes its input once and reads the rows and bytes from the block
metadata; ``merge_plan`` turns them into a plan (the one size gate, which
``joins.shuffle_join`` uses too), and the two plans differ only in where
``fn`` runs:

- ``single``: at or below ``SINGLE_BLOCK_MAX_ROWS`` rows and
  ``SINGLE_BLOCK_MAX_BYTES`` bytes, the input is collected through the
  driver and ``fn`` runs once over all of it on the driver; the output is
  a materialized dataset (``from_pandas``), so no further Ray Data
  execution runs and a downstream ``materialize()`` is free.  Driver
  memory holds the input (which the byte limit bounds) and ``fn``'s
  output.  Most merges here see such inputs, because the map-side
  combiners already shrink corpus-sized inputs to key-sized partials,
  while a sort all-to-all costs about a second of fixed coordination and
  even a one-task job costs tens of milliseconds, however small its input
  is.
- ``distributed``: above either limit, rows are shuffled on
  ``hash(key) % n_buckets`` with ``n_buckets`` = 2 × the cluster's CPUs,
  and ``fn`` runs once per bucket (``hash_bucket_apply``).  Every row of a
  key lands in exactly one bucket, since the hash is a pure function of
  the key columns.

Either way the output is the concatenation of ``fn``'s frames — the same
rows as per-group ``map_groups``, in no guaranteed order.  Each call logs
one INFO record whose ``stats`` attribute holds the keys, the plan, the
input rows and bytes and the bucket count.

The hash is ``pandas.util.hash_pandas_object`` (fixed internal key —
deterministic across processes and machines, vectorized over the column).

``two_phase_agg`` is the declarative form of the most common reduce on top
of it: a decomposable ``GROUP BY`` (sum / count / min / max) stated once,
with the map-side combiner and the merge both derived from one spec.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa

logger = logging.getLogger(__name__)

# an input at or below both limits is merged in one block (the single plan)
SINGLE_BLOCK_MAX_ROWS = 50_000
SINGLE_BLOCK_MAX_BYTES = 64 << 20


def _bucket_of(df: pd.DataFrame, keys: list[str], n_buckets: int) -> np.ndarray:
    if len(df) == 0:
        # hash_pandas_object raises on empty object-dtype columns
        return np.array([], dtype=np.int32)
    h = np.zeros(len(df), dtype=np.uint64)
    for ki, k in enumerate(keys):
        s = df[k]
        if pd.api.types.is_numeric_dtype(s):
            # canonicalize: an int64 key NaN-upcast to float64 in another
            # block must hash identically (2 vs 2.0); exact for |v| < 2^53
            s = s.astype("float64")
        # per-column hash_key salt: with one shared hash function, rows
        # whose key columns carry equal (or swapped) values would XOR to
        # the same bucket (h^h=0) — a reducer-skew hotspot when key
        # columns correlate
        h ^= pd.util.hash_pandas_object(
            s, index=False, hash_key=f"{ki:016d}"
        ).to_numpy(dtype=np.uint64)
    return (h % np.uint64(n_buckets)).astype(np.int32)


def empty_frame(spec: dict[str, str]) -> pd.DataFrame:
    """Zero-row pandas frame with an explicit dtype per column.

    The one sanctioned way to emit "nothing" from a map/reduce UDF: a bare
    ``pd.DataFrame()`` is schema-less, and schema-divergent empty blocks
    are what produce Ray Data's ``RefBundle with a different schema`` /
    ``Failed to hash the schemas`` warnings — and, at scale, what breaks
    downstream union/write stages.
    """
    return pd.DataFrame(
        {c: pd.Series([], dtype=dt) for c, dt in spec.items()}
    )


def _coerce_empty(empty_result) -> pd.DataFrame | None:
    """Normalize the ``empty_result`` hint (spec dict or zero-row frame)."""
    if empty_result is None:
        return None
    if isinstance(empty_result, dict):
        return empty_frame(empty_result)
    return empty_result.iloc[0:0]


def _collect(ds) -> pd.DataFrame:
    """A materialized dataset as one pandas frame.  ``to_pandas`` also
    merges a mix of Arrow and pandas blocks (a union of pyarrow and pandas
    map outputs), but drops every column of a zero-row result; the columns
    then come from the schema."""
    df = ds.to_pandas()
    sch = None if len(df.columns) else ds.schema()
    if sch is None:
        return df
    if isinstance(sch.base_schema, pa.Schema):
        return sch.base_schema.empty_table().to_pandas()
    return empty_frame(dict(zip(sch.names, sch.base_schema.types)))


def merge_plan(keys: list[str], *inputs) -> tuple[str, int]:
    """The size gate: ``(plan, n_buckets)`` for a merge of the materialized
    ``inputs`` (rows and bytes summed over them, read from the block
    metadata), as the module docstring states it.  Logs the call's one
    plan record."""
    import ray

    rows = sum(d.count() for d in inputs)
    nbytes = sum(d.size_bytes() for d in inputs)
    if rows <= SINGLE_BLOCK_MAX_ROWS and nbytes <= SINGLE_BLOCK_MAX_BYTES:
        plan, n_buckets = "single", 1
    else:
        plan = "distributed"
        n_buckets = 2 * max(1, int(ray.cluster_resources().get("CPU", 1)))
    stats = {"keys": keys, "plan": plan, "rows": rows, "bytes": nbytes,
             "n_buckets": n_buckets}
    logger.info("merge plan: keys=%s plan=%s rows=%d bytes=%d n_buckets=%d",
                keys, plan, rows, nbytes, n_buckets, extra={"stats": stats})
    return plan, n_buckets


def hash_bucket_apply(ds, keys: list[str], fn, n_buckets: int):
    """The distributed plan: ``fn`` once per ``hash(keys) % n_buckets``
    bucket, after one sort shuffle on the bucket id.

    Sentinel rows: when the distinct-key count is SMALL (a handful of
    cluster ids, a tiny test fixture), Ray's sort shuffle produces empty
    partitions (more range boundaries than distinct ``__bucket`` values),
    and empty partitions bypass the UDF and surface as schema-less bundles
    (the ``RefBundle with a different schema`` warnings — and, at scale,
    schema-divergent empty blocks in downstream unions/writes).  So one
    sentinel row per bucket id is appended to every non-empty input block
    (the block's own first row, ``__bucket`` overwritten — dtypes exactly
    preserved, ``n_buckets`` extra rows per block) and every bucket value
    is always populated; sentinels are dropped before ``fn`` runs.
    """

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        if len(df) == 0 and not all(k in df.columns for k in keys):
            # degenerate empty block (e.g. schema-less artifact): it holds
            # no rows, so it contributes nothing — canonical minimal schema
            return pd.DataFrame({"__bucket": pd.Series([], dtype="int32"),
                                 "__sentinel": pd.Series([], dtype="bool")})
        df["__bucket"] = _bucket_of(df, keys, n_buckets)
        df["__sentinel"] = False
        if len(df) > 0:
            sent = df.iloc[np.zeros(n_buckets, dtype=np.int64)].copy()
            sent["__bucket"] = np.arange(n_buckets, dtype=np.int32)
            sent["__sentinel"] = True
            df = pd.concat([df, sent], ignore_index=True)
        return df

    def apply(df: pd.DataFrame) -> pd.DataFrame:
        if "__sentinel" in df.columns:
            df = df[~df["__sentinel"]].drop(columns=["__sentinel", "__bucket"])
        return fn(df)

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(apply, batch_format="pandas")
    )


def bucketed_group_apply(ds, keys, fn, empty_result=None):
    """``fn(df) -> DataFrame`` over frames that each hold whole groups of
    ``keys``, merged by the plan the input's size selects (module
    docstring).

    ``fn`` sees all rows of many whole groups at once and must itself group
    by ``keys`` (vectorized ``df.groupby``) — it is never handed a partial
    group.

    ``empty_result``: optional OUTPUT-schema hint (``{col: dtype}`` spec or
    a zero-row frame).  Degenerate zero-row inputs then yield a typed empty
    frame instead of a schema-less ``pd.DataFrame()``, keeping every block
    of the stage schema-identical (no per-op guards needed downstream).
    Without the hint, a zero-row frame that still carries the key columns
    is probed through ``fn`` (vectorized groupby UDFs return typed empties
    naturally); only a schema-less zero-row input with no hint falls back
    to the schema-less empty.
    """
    import ray

    keys = [keys] if isinstance(keys, str) else list(keys)
    empty_out = _coerce_empty(empty_result)
    ds = ds.materialize()
    plan, n_buckets = merge_plan(keys, ds)

    def apply(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            if empty_out is not None:
                return empty_out.copy()
            if not all(k in df.columns for k in keys):
                # schema-less zero-row frame and no hint: emit nothing (fn
                # would not know this schema either)
                return pd.DataFrame()
        return fn(df)

    if plan == "single":
        return ray.data.from_pandas(apply(_collect(ds)))
    return hash_bucket_apply(ds, keys, apply, n_buckets)


# how a per-batch partial of each aggregate merges across batches: a count
# merges by summing the partial counts, the others merge with themselves
_MERGE_OF = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def two_phase_agg(ds, keys, aggs, prep=None, having=None):
    """``SELECT keys, aggs FROM ds GROUP BY keys [HAVING ...]`` as a
    map-side combiner plus one merge.

    ``aggs`` maps each output column to ``(input_col, how)``, ``how`` one
    of ``"sum"``, ``"count"`` (non-null rows of ``input_col``), ``"min"``,
    ``"max"``.

    - Map side: ``prep(df)`` (a row-local pandas transform: filter, derive
      columns, explode), then a per-batch ``groupby(keys)`` — the shuffle
      carries at most one row per key per batch, never the input rows.
    - Reduce side: the merge rule follows from ``how`` (``_MERGE_OF``);
      sums and counts come out as int64 (exact integer / fixed-point
      cents), min/max and the key columns keep their input dtype.
      ``having(df) -> bool mask`` filters the MERGED groups, so a key that
      passes only on its global total is kept.  The merge runs through
      :func:`bucketed_group_apply`, which picks its plan.

    Output: keys, then ``aggs`` in spec order; no guaranteed row order.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    unknown = {how for _, how in aggs.values()} - set(_MERGE_OF)
    if unknown:
        raise ValueError(f"two_phase_agg: unsupported aggregate(s) {unknown}")
    merge_spec = {out: (out, _MERGE_OF[how]) for out, (_, how) in aggs.items()}
    as_int64 = {out: "int64" for out, (_, how) in aggs.items()
                if how in ("sum", "count")}

    def group(df: pd.DataFrame, spec: dict) -> pd.DataFrame:
        # one groupby, one reduction per column: ~3x less fixed cost than
        # named ``.agg(**spec)``, which the merge pays once per bucket
        g = df.groupby(keys)
        return pd.DataFrame(
            {out: getattr(g[col], how)() for out, (col, how) in spec.items()}
        ).reset_index()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return group(prep(df) if prep is not None else df, aggs)

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:  # typed empty when the block carries a schema
            return df.reindex(columns=keys + list(aggs))
        out = group(df, merge_spec).astype(as_int64)
        if having is not None:
            out = out[having(out)].reset_index(drop=True)
        return out

    return bucketed_group_apply(
        ds.map_batches(partial, batch_format="pandas"), keys, merge)


def text_tokens(df: pd.DataFrame, distinct: bool = False) -> pd.DataFrame:
    """``prep`` for token aggregates: one ``token`` row per space-separated
    token of ``df["text"]`` (``text.split(" ")``, the SQL oracles'
    ``string_split(text, ' ')``); ``distinct`` keeps each token once per
    row — the per-document set behind a document frequency."""
    toks = df["text"].str.split(" ")
    if distinct:
        toks = toks.map(set)
    return pd.DataFrame({"token": toks.explode()}, dtype=object)
