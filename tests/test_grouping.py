"""bucketed_group_apply (the grouped merge and its plan gate),
two_phase_agg (the declarative combiner + merge on top of it) and
shuffle_join (the join the same gate plans).

The inputs here are small, so the default limits pick the single-block
plan; ``_force_distributed`` sets the row limit to 0 so the same cases
also run the hash-bucket shuffle."""

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _force_distributed(monkeypatch):
    from nlp_series_relation_extraction_ray.functions import grouping

    monkeypatch.setattr(grouping, "SINGLE_BLOCK_MAX_ROWS", 0)


def _set_plan(monkeypatch, default_plan: bool):
    """``default_plan=False`` forces the distributed plan."""
    if not default_plan:
        _force_distributed(monkeypatch)


def test_bucketed_group_apply_matches_per_group(ray_session, monkeypatch):
    """Hash-bucketed vectorized reduce must equal a per-group reduce for
    every key, with keys spread across many input blocks."""
    import ray

    _force_distributed(monkeypatch)

    from nlp_series_relation_extraction_ray.functions.grouping import (
        bucketed_group_apply,
    )

    rng = np.random.RandomState(7)
    df = pd.DataFrame(
        {
            "k": rng.randint(0, 500, size=5000),
            "s": [f"key-{i % 37}" for i in range(5000)],
            "v": rng.randint(0, 1000, size=5000).astype("int64"),
        }
    )
    ds = ray.data.from_pandas(
        [df.iloc[i : i + 250] for i in range(0, len(df), 250)]
    )

    def merge(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby(["k", "s"], as_index=False)["v"].sum()
        out["v"] = out["v"].astype("int64")
        return out

    got = (
        bucketed_group_apply(ds, ["k", "s"], merge)
        .to_pandas()
        .sort_values(["k", "s"])
        .reset_index(drop=True)
    )
    want = (
        df.groupby(["k", "s"], as_index=False)["v"]
        .sum()
        .sort_values(["k", "s"])
        .reset_index(drop=True)
    )
    got["k"] = got["k"].astype(want["k"].dtype)
    pd.testing.assert_frame_equal(got, want)


def test_bucketed_group_apply_key_never_split(ray_session, monkeypatch):
    """Every row of a key must appear in exactly one bucket invocation."""
    import ray

    _force_distributed(monkeypatch)

    from nlp_series_relation_extraction_ray.functions.grouping import (
        bucketed_group_apply,
    )

    df = pd.DataFrame({"k": list(range(200)) * 5, "v": 1})
    ds = ray.data.from_pandas(
        [df.iloc[i : i + 100] for i in range(0, len(df), 100)]
    )

    def counts(bucket: pd.DataFrame) -> pd.DataFrame:
        out = bucket.groupby("k", as_index=False)["v"].sum()
        out["v"] = out["v"].astype("int64")
        return out

    got = bucketed_group_apply(ds, "k", counts).to_pandas()
    # if a key were split across buckets it would surface as two partial rows
    assert got["k"].is_unique
    assert (got["v"] == 5).all()


def _frame(n: int = 3000) -> pd.DataFrame:
    rng = np.random.RandomState(11)
    return pd.DataFrame(
        {
            "k": rng.randint(0, 40, size=n).astype("int64"),
            "s": [f"key-{i % 7}" for i in range(n)],
            "v": rng.randint(-500, 1000, size=n).astype("int64"),
        }
    )


_AGGS = {
    "total": ("v", "sum"),
    "n": ("v", "count"),
    "lo": ("v", "min"),
    "hi": ("v", "max"),
}


def _sorted(df: pd.DataFrame, keys) -> pd.DataFrame:
    return df.sort_values(keys).reset_index(drop=True)


def _want(df: pd.DataFrame, keys) -> pd.DataFrame:
    return _sorted(df.groupby(keys, as_index=False).agg(**_AGGS), keys)


@pytest.mark.parametrize("default_plan", [False, True])
@pytest.mark.parametrize("n_blocks", [1, 7])
@pytest.mark.parametrize("keys", [["k"], ["s"], ["k", "s"]])
def test_two_phase_agg_matches_pandas_groupby(ray_session, monkeypatch, keys,
                                              n_blocks, default_plan):
    """sum/count/min/max over int, string and compound keys equal one
    pandas groupby, for any input block count and both merge plans."""
    import ray

    _set_plan(monkeypatch, default_plan)

    from nlp_series_relation_extraction_ray.functions.grouping import (
        two_phase_agg,
    )

    df = _frame()
    ds = ray.data.from_pandas(df).repartition(n_blocks)
    got = _sorted(two_phase_agg(ds, keys, _AGGS).to_pandas(), keys)
    want = _want(df, keys)
    assert list(got.columns) == keys + list(_AGGS)
    for c in ("total", "n"):
        assert got[c].dtype == np.int64
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("default_plan", [False, True])
def test_two_phase_agg_prep_filters_everything(ray_session, monkeypatch,
                                               default_plan):
    """A prep that drops every row yields zero rows, not a crash."""
    import ray

    _set_plan(monkeypatch, default_plan)

    from nlp_series_relation_extraction_ray.functions.grouping import (
        two_phase_agg,
    )

    ds = ray.data.from_pandas(_frame()).repartition(4)
    out = two_phase_agg(ds, "k", _AGGS, prep=lambda df: df[df["v"] > 10**6])
    assert out.count() == 0
    assert len(out.to_pandas()) == 0


@pytest.mark.parametrize("default_plan", [False, True])
def test_two_phase_agg_having_sees_global_totals(ray_session, monkeypatch,
                                                 default_plan):
    """HAVING filters merged groups: key 1 reaches the bar only on its
    total across blocks (no single block passes), key 2 never does."""
    import ray

    _set_plan(monkeypatch, default_plan)

    from nlp_series_relation_extraction_ray.functions.grouping import (
        two_phase_agg,
    )

    df = pd.DataFrame({"k": [1, 1, 1, 2, 2, 2], "v": [4, 4, 4, 1, 1, 1]})
    ds = ray.data.from_pandas([df.iloc[i:i + 2] for i in range(0, 6, 2)])
    got = two_phase_agg(
        ds, "k", {"total": ("v", "sum")},
        having=lambda g: g["total"] > 10,
    ).to_pandas()
    assert got.to_dict("list") == {"k": [1], "total": [12]}


def test_two_phase_agg_rejects_unknown_aggregate(ray_session):
    import ray

    from nlp_series_relation_extraction_ray.functions.grouping import (
        two_phase_agg,
    )

    with pytest.raises(ValueError, match="median"):
        two_phase_agg(ray.data.from_pandas(_frame()), "k",
                      {"m": ("v", "median")})


def _grouping_stats(caplog, kind: str) -> list[dict]:
    """The ``stats`` of the grouping records of one kind: ``"plan"`` (one
    per merge or join) or ``"bucket_rows"`` (one per distributed call)."""
    return [r.stats for r in caplog.records if hasattr(r, "stats")
            and r.name.endswith("functions.grouping") and kind in r.stats]


def _plan_stats(caplog):
    recs = _grouping_stats(caplog, "plan")
    assert len(recs) == 1
    return recs[0]


def test_plan_record(ray_session, caplog, monkeypatch):
    """One record per call: keys, plan, input rows and bytes, buckets.  A
    small input takes the single plan; a zero row or byte limit forces the
    distributed plan with 2 buckets per cluster CPU."""
    import ray

    from nlp_series_relation_extraction_ray.functions import grouping

    ds = ray.data.from_pandas(_frame(200)).materialize()
    nbytes = ds.size_bytes()
    logger = "nlp_series_relation_extraction_ray.functions.grouping"

    def run():
        caplog.clear()
        with caplog.at_level(logging.INFO, logger=logger):
            out = grouping.bucketed_group_apply(
                ds, "k", lambda df: df.groupby("k", as_index=False)["v"].sum())
            assert out.to_pandas()["v"].sum() == _frame(200)["v"].sum()
        return _plan_stats(caplog)

    assert run() == {"keys": ["k"], "plan": "single", "rows": 200,
                     "bytes": nbytes, "n_buckets": 1}
    n_buckets = 2 * int(ray.cluster_resources()["CPU"])
    with monkeypatch.context() as m:
        m.setattr(grouping, "SINGLE_BLOCK_MAX_ROWS", 0)
        assert run() == {"keys": ["k"], "plan": "distributed", "rows": 200,
                         "bytes": nbytes, "n_buckets": n_buckets}
    with monkeypatch.context() as m:
        m.setattr(grouping, "SINGLE_BLOCK_MAX_BYTES", nbytes - 1)
        assert run()["plan"] == "distributed"


def test_bucket_rows_record(ray_session, caplog, monkeypatch):
    """A distributed call logs one record of the rows each bucket received:
    the input rows per ``hash(keys) % n_buckets``, summing to the input."""
    import ray

    from nlp_series_relation_extraction_ray.functions import grouping

    _force_distributed(monkeypatch)
    df = _frame(500)
    n_buckets = 2 * int(ray.cluster_resources()["CPU"])
    with caplog.at_level(logging.INFO, logger=grouping.__name__):
        grouping.bucketed_group_apply(
            ray.data.from_pandas(df).repartition(3), ["k", "s"],
            lambda d: d.groupby(["k", "s"], as_index=False)["v"].sum(),
        ).materialize()
    want = np.bincount(grouping._bucket_of(df, ["k", "s"], n_buckets),
                       minlength=n_buckets).tolist()
    assert _grouping_stats(caplog, "bucket_rows") == [
        {"keys": ["k", "s"], "n_buckets": n_buckets, "bucket_rows": want}]
    assert sum(want) == len(df)


def _sums_udf():
    """Grouped sum and count over ``(k, s)``; built in a closure so that
    Ray ships it to the workers by value."""
    def sums(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["k", "s"], as_index=False)
        return g.agg(total=("v", "sum"), n=("v", "count"))

    return sums


def _block_rows(ds) -> list[int]:
    return [meta.num_rows for bundle in ds.iter_internal_ref_bundles()
            for _, meta in bundle.blocks]


def test_distributed_plan_is_layout_invariant(ray_session, monkeypatch):
    """The forced distributed plan gives the same rows for any input block
    layout: 1, 7 or 64 blocks, zero-row blocks among the input, and a union
    of pyarrow and pandas map outputs.  Only non-empty buckets produce a
    block, so no output block is empty."""
    import ray

    from nlp_series_relation_extraction_ray.functions.grouping import (
        bucketed_group_apply,
    )

    _force_distributed(monkeypatch)
    _sums = _sums_udf()
    df = _frame(2000)
    want = _sorted(_sums(df), ["k", "s"])
    empty = df.iloc[0:0]
    half = len(df) // 2
    layouts = {
        f"repartition({n})": ray.data.from_pandas(df).repartition(n)
        for n in (1, 7, 64)
    }
    layouts["zero-row blocks"] = ray.data.from_arrow([
        pa.Table.from_pandas(d, preserve_index=False)
        for d in (empty, df.iloc[:half], empty, df.iloc[half:], empty)])
    layouts["pyarrow + pandas"] = ray.data.from_pandas(
        df.iloc[:half]).map_batches(lambda t: t, batch_format="pyarrow").union(
        ray.data.from_pandas(df.iloc[half:]).map_batches(
            lambda d: d, batch_format="pandas"))
    for name, ds in layouts.items():
        out = bucketed_group_apply(ds, ["k", "s"], _sums)
        assert all(n > 0 for n in _block_rows(out)), name
        got = _sorted(out.to_pandas(), ["k", "s"])
        pd.testing.assert_frame_equal(got, want, obj=name)


def test_few_keys_into_more_buckets(ray_session):
    """Two distinct keys into four buckets: at most two reduce tasks run,
    each block they return holds rows, and every key is merged once.  An
    empty output of the merge is dropped unless every output is empty."""
    import ray

    from nlp_series_relation_extraction_ray.functions.grouping import (
        hash_bucket_apply,
    )

    _sums = _sums_udf()
    df = pd.DataFrame({"k": [1, 2] * 50, "s": "x", "v": np.arange(100)})
    ds = ray.data.from_pandas([df.iloc[i:i + 25] for i in range(0, 100, 25)])
    out = hash_bucket_apply(ds, ["k", "s"], _sums, 4)
    rows = _block_rows(out)
    assert 1 <= len(rows) <= 2 and all(n > 0 for n in rows)
    pd.testing.assert_frame_equal(_sorted(out.to_pandas(), ["k", "s"]),
                                  _sorted(_sums(df), ["k", "s"]))
    # an empty output of fn is dropped, unless every output is empty: one
    # empty block then carries the schema
    out = hash_bucket_apply(ds, ["k", "s"],
                            lambda d: _sums(d[d["k"] == 1]), 4)
    assert _block_rows(out) == [1]
    out = hash_bucket_apply(ds, ["k", "s"], lambda d: _sums(d.iloc[0:0]), 4)
    assert _block_rows(out) == [0]
    assert out.schema().names == ["k", "s", "total", "n"]


def test_reduce_task_crash_is_retried(ray_session, monkeypatch, tmp_path):
    """A reduce task whose worker dies is re-run by Ray from the split
    outputs, and the result equals the run without the crash."""
    import os

    import ray

    from nlp_series_relation_extraction_ray.functions.grouping import (
        bucketed_group_apply,
    )

    _force_distributed(monkeypatch)
    _sums = _sums_udf()
    marker = str(tmp_path / "crashed")

    def crash_once(d: pd.DataFrame) -> pd.DataFrame:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return _sums(d)
        os._exit(1)

    df = _frame(1000)
    ds = ray.data.from_pandas(df).repartition(4)
    want = _sorted(bucketed_group_apply(ds, ["k", "s"], _sums).to_pandas(),
                   ["k", "s"])
    got = _sorted(bucketed_group_apply(ds, ["k", "s"], crash_once)
                  .to_pandas(), ["k", "s"])
    assert os.path.exists(marker)
    pd.testing.assert_frame_equal(got, want)


def test_package_installs_no_log_filter():
    """Importing the package leaves Ray's executor and pandas-block
    warnings as Ray reports them."""
    import nlp_series_relation_extraction_ray  # noqa: F401

    for name in ("ray.data._internal.execution.streaming_executor_state",
                 "ray.data._internal.pandas_block"):
        assert logging.getLogger(name).filters == []


def _dtypes(ds) -> dict[str, str]:
    sch = ds.schema()
    return dict(zip(sch.names, map(str, sch.base_schema.types)))


def test_single_plan_is_materialized_with_typed_empties(ray_session):
    """The single plan runs the merge on the driver and returns a
    materialized dataset; zero-row inputs keep a typed schema, from the
    ``empty_result`` hint or from the merge itself."""
    import ray
    from ray.data.dataset import MaterializedDataset

    from nlp_series_relation_extraction_ray.functions.grouping import (
        bucketed_group_apply,
        two_phase_agg,
    )

    def sums(df):
        return df.groupby("k", as_index=False)["v"].sum()

    ds = ray.data.from_pandas(_frame()).repartition(3)
    out = bucketed_group_apply(ds, "k", sums)
    assert isinstance(out, MaterializedDataset)
    assert out.to_pandas()["v"].sum() == _frame()["v"].sum()

    hint = {"k": "int64", "n": "int32", "label": "object"}
    empty = bucketed_group_apply(ray.data.from_pandas(_frame().iloc[0:0]),
                                 "k", sums, empty_result=hint)
    assert isinstance(empty, MaterializedDataset)
    assert empty.count() == 0
    # to_pandas() of zero rows drops the columns, so read the schema
    assert _dtypes(empty) == hint

    none = two_phase_agg(ds, "k", _AGGS, prep=lambda df: df[df["v"] > 10**6])
    assert isinstance(none, MaterializedDataset)
    assert none.count() == 0
    assert _dtypes(none) == dict.fromkeys(["k", *_AGGS], "int64")


def _counted(path):
    """Identity pandas UDF that appends one byte to ``path`` per call (the
    calls run in worker processes, so a file is the shared counter)."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        with open(path, "a") as f:
            f.write(".")
        return df

    return fn


@pytest.mark.parametrize("default_plan", [False, True])
def test_shuffle_join_runs_each_side_once(ray_session, monkeypatch, caplog,
                                          tmp_path, default_plan):
    """Each side's upstream UDF runs once per input block under both
    plans: no schema probe and no second pass over a side.  The join logs
    one plan record, and the forced row limit forces the shuffle."""
    import ray

    _set_plan(monkeypatch, default_plan)

    from nlp_series_relation_extraction_ray.functions.joins import (
        shuffle_join,
    )

    left = pd.DataFrame({"k": np.arange(30) % 10, "lv": np.arange(30)})
    right = pd.DataFrame({"k": np.arange(8), "rv": np.arange(8) * 10})
    lds = ray.data.from_pandas(
        [left.iloc[i:i + 10] for i in range(0, 30, 10)]
    ).map_batches(_counted(tmp_path / "l"), batch_format="pandas",
                  batch_size=None)
    rds = ray.data.from_pandas([right.iloc[:4], right.iloc[4:]]).map_batches(
        _counted(tmp_path / "r"), batch_format="pandas", batch_size=None)
    with caplog.at_level(
            logging.INFO,
            logger="nlp_series_relation_extraction_ray.functions.grouping"):
        out = shuffle_join(lds, rds, on="k").to_pandas()
    assert len(out) == len(left.merge(right, on="k")) == 24
    assert (tmp_path / "l").read_text() == "..."
    assert (tmp_path / "r").read_text() == ".."
    assert _plan_stats(caplog)["plan"] == (
        "single" if default_plan else "distributed")


@pytest.mark.parametrize("on", ["k", "s", ["k", "s"]],
                         ids=["int", "string", "composite"])
def test_shuffle_join_plans_give_identical_frames(ray_session, monkeypatch,
                                                  on):
    """The driver join and the hash-bucket join return the same rows with
    the same dtypes, including the NaN-compatible promotion of one-side
    int and bool columns (int→float64, bool→object)."""
    import ray

    from nlp_series_relation_extraction_ray.functions import grouping
    from nlp_series_relation_extraction_ray.functions.joins import (
        shuffle_join,
    )

    n = 120
    left = pd.DataFrame({
        "k": (np.arange(n) % 13).astype("int64"),
        "s": [f"s{i % 5}" for i in range(n)],
        "lv": np.arange(n, dtype="int64"),
        "flag": np.arange(n) % 3 == 0,
    })
    right = pd.DataFrame({
        "k": (np.arange(40) % 17).astype("int64"),
        "s": [f"s{i % 4}" for i in range(40)],
        "rv": np.arange(40, dtype="float64") / 4,
    })

    def run():
        lds = ray.data.from_pandas([left.iloc[:60], left.iloc[60:]])
        rds = ray.data.from_pandas(right)
        out = shuffle_join(lds, rds, on=on).to_pandas()
        return out.sort_values(["lv", "rv"]).reset_index(drop=True)

    driver = run()
    with monkeypatch.context() as m:
        m.setattr(grouping, "SINGLE_BLOCK_MAX_ROWS", 0)
        shuffled = run()
    assert len(driver) > 0
    assert driver["lv"].dtype == np.float64
    assert driver["flag"].dtype == object
    pd.testing.assert_frame_equal(driver, shuffled)


def test_text_tokens_counts_and_document_frequency():
    from collections import Counter

    from nlp_series_relation_extraction_ray.functions.grouping import (
        text_tokens,
    )

    df = pd.DataFrame({"text": ["a b a", "b c", ""]})
    assert Counter(text_tokens(df)["token"]) == Counter(
        {"a": 2, "b": 2, "c": 1, "": 1})
    assert Counter(text_tokens(df, distinct=True)["token"]) == Counter(
        {"a": 1, "b": 2, "c": 1, "": 1})
