"""Hand-built fixtures for round-4 operator semantics that the synthetic
corpus may not exercise: RANGE-frame peer inclusion, HAVING boundary,
token-boundary AND matching, pivot closed-universe zeros."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def tmp_sf(tmp_path_factory, ray_session):
    """A tiny synthetic sf_dir with hand-placed edge cases."""
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("r4sf")
    # events: user 1 has two events at the SAME timestamp (RANGE peers),
    # plus one exactly 1h earlier (inclusive PRECEDING bound) and one
    # 1h+1us earlier (outside the frame)
    t0 = np.datetime64("2024-01-01T12:00:00.000000")
    h = np.timedelta64(3600_000_000, "us")
    us = np.timedelta64(1, "us")
    events = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "ts": pa.array(
                [t0 - h - us, t0 - h, t0, t0, t0 + us],
                pa.timestamp("us"),
            ),
            "user_id": pa.array([1, 1, 1, 1, 1], pa.int64()),
            "event_type": pa.array(["view"] * 5, pa.string()),
            "value": pa.array([1.0, 2.0, 4.0, 8.0, 16.0], pa.float64()),
            "props": pa.array([""] * 5, pa.string()),
        }
    )
    pq.write_table(events, str(d / "events.parquet"))
    # lineitem/orders/customer: one order EXACTLY at the HAVING threshold
    # (sum qty == 300 -> excluded), one just above (300.01 -> included)
    lineitem = pa.table(
        {
            "l_orderkey": pa.array([10, 10, 20, 20], pa.int64()),
            "l_partkey": pa.array([1, 2, 1, 2], pa.int64()),
            "l_suppkey": pa.array([1, 1, 1, 1], pa.int64()),
            "l_linenumber": pa.array([1, 2, 1, 2], pa.int32()),
            "l_quantity": pa.array([150.0, 150.0, 150.0, 150.01],
                                   pa.float64()),
            "l_extendedprice": pa.array([1.0] * 4, pa.float64()),
            "l_discount": pa.array([0.0] * 4, pa.float64()),
            "l_tax": pa.array([0.0] * 4, pa.float64()),
            "l_returnflag": pa.array(["N"] * 4, pa.string()),
            "l_linestatus": pa.array(["O"] * 4, pa.string()),
            "l_shipdate": pa.array([np.datetime64("2024-01-01", "us")] * 4,
                                   pa.timestamp("us")),
        }
    )
    pq.write_table(lineitem, str(d / "lineitem.parquet"))
    orders = pa.table(
        {
            "o_orderkey": pa.array([10, 20], pa.int64()),
            "o_custkey": pa.array([7, 7], pa.int64()),
            "o_orderstatus": pa.array(["O", "O"], pa.string()),
            "o_totalprice": pa.array([100.0, 200.0], pa.float64()),
            "o_orderdate": pa.array([np.datetime64("2024-01-01", "us")] * 2,
                                    pa.timestamp("us")),
            "o_orderpriority": pa.array(["1-URGENT"] * 2, pa.string()),
        }
    )
    pq.write_table(orders, str(d / "orders.parquet"))
    customer = pa.table(
        {
            "c_custkey": pa.array([7], pa.int64()),
            "c_name": pa.array(["Customer#7"], pa.string()),
            "c_nationkey": pa.array([0], pa.int32()),
            "c_acctbal": pa.array([0.0], pa.float64()),
            "c_mktsegment": pa.array(["BUILDING"], pa.string()),
        }
    )
    pq.write_table(customer, str(d / "customer.parquet"))
    # part: planted price ties — two parts tie at the top (rank 1,1,3)
    # and two tie exactly AT rank 3 (all tied rows must be returned)
    part = pa.table(
        {
            "p_partkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "p_name": pa.array([f"part{i}" for i in range(5)], pa.string()),
            "p_brand": pa.array(["B1"] * 5, pa.string()),
            "p_type": pa.array(["t"] * 5, pa.string()),
            "p_size": pa.array([1] * 5, pa.int32()),
            "p_retailprice": pa.array(
                [9.99, 9.99, 5.00, 5.00, 1.00], pa.float64()
            ),
        }
    )
    pq.write_table(part, str(d / "part.parquet"))
    # documents: token-boundary traps for AND retrieval ("window" inside
    # "windowing" must NOT match; start/end-of-text tokens must)
    documents = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                [
                    "window stuff sort",          # both, at edges
                    "windowing table sorting",    # substrings only -> no
                    "sort a window",              # both, reversed order
                    "window only here",           # one of two -> no
                ],
                pa.string(),
            ),
            "lang": pa.array(["en"] * 4, pa.string()),
            "source": pa.array(["web"] * 4, pa.string()),
            "n_chars": pa.array([17, 23, 13, 16], pa.int64()),
        }
    )
    pq.write_table(documents, str(d / "documents.parquet"))
    return str(d)


def _oracle(tmp_sf, sql):
    con = duckdb.connect()
    for t in ("events", "lineitem", "orders", "customer", "documents",
              "part"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * "
            f"FROM read_parquet('{tmp_sf}/{t}.parquet')"
        )
    return con.execute(sql).df()


def test_range_frame_peers_and_inclusive_bound(tmp_sf):
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        VALUE_MA_1H_SQL,
        events_value_ma_1h,
    )

    got = (
        events_value_ma_1h(tmp_sf)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # event 3 and 4 share ts: RANGE includes BOTH peers in each frame,
    # plus event 2 exactly 1h earlier (inclusive), NOT event 1 (1h+1us)
    by_id = got.set_index("event_id")["ma_cents"]
    assert by_id[3] == by_id[4] == (200 + 400 + 800)
    assert by_id[5] == (400 + 800 + 1600)  # event 2 now outside the frame
    want = _oracle(tmp_sf, VALUE_MA_1H_SQL).sort_values(
        "event_id"
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, want.astype({c: got[c].dtype for c in got.columns})
    )


def test_q18_having_boundary_exact(tmp_sf):
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        q18_sql,
        q18_large_orders,
    )

    got = q18_large_orders(tmp_sf).reset_index(drop=True)
    # order 10 sums to exactly 300 -> HAVING strict > excludes it
    assert got["o_orderkey"].tolist() == [20]
    assert got["qty_cents"].tolist() == [30001]
    want = _oracle(tmp_sf, q18_sql())
    pd.testing.assert_frame_equal(
        got, want.astype({c: got[c].dtype for c in got.columns})
    )


def test_q18_no_qualifying_order_is_typed_empty(tmp_sf):
    """A bar above every order's total quantity: zero rows with the full
    output schema, equal to the (empty) SQL result."""
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        q18_sql,
        q18_large_orders,
    )

    got = q18_large_orders(tmp_sf, min_qty=10_000.0)
    want = _oracle(tmp_sf, q18_sql(min_qty=10_000.0))
    assert len(want) == 0
    assert list(got.columns) == [
        "o_orderkey", "o_custkey", "c_name", "total_cents", "qty_cents"
    ]
    pd.testing.assert_frame_equal(
        got, want.astype({c: got[c].dtype for c in got.columns}),
        check_index_type=False,
    )


def test_search_and_token_boundaries(tmp_sf):
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        docs_search_and,
        search_and_sql,
    )

    got = sorted(
        docs_search_and(tmp_sf, tokens=("window", "sort"))
        .to_pandas()["doc_id"]
        .tolist()
    )
    assert got == [1, 3]  # substring-only doc 2 and single-token doc 4 out
    want = sorted(
        _oracle(tmp_sf, search_and_sql(("window", "sort")))["doc_id"]
    )
    assert got == want


def test_pivot_closed_universe_zeros(tmp_sf):
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        USER_TYPE_PIVOT_SQL,
        events_user_type_pivot,
    )

    got = events_user_type_pivot(tmp_sf).to_pandas()
    # only 'view' events exist: every other type column must be 0, not
    # absent (closed universe)
    assert got.loc[0, "n_view"] == 5
    for c in ("n_click", "n_error", "n_purchase", "n_signup"):
        assert got.loc[0, c] == 0
    want = _oracle(tmp_sf, USER_TYPE_PIVOT_SQL)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)].reset_index(drop=True),
        want[sorted(want.columns)].astype(
            {c: got[c].dtype for c in got.columns}
        ),
    )


def test_rank_with_ties_returns_all_tied_rows(tmp_sf):
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        parts_price_rank,
        parts_price_rank_sql,
    )

    got = (
        parts_price_rank(tmp_sf, k=3)
        .to_pandas()
        .sort_values(["p_partkey"])
        .reset_index(drop=True)
    )
    # RANK(): 9.99/9.99 -> rank 1,1; 5.00/5.00 -> rank 3,3 (gap skips 2);
    # ALL four rows return for k=3 even though that is 4 rows
    assert got["p_partkey"].tolist() == [1, 2, 3, 4]
    assert got["rank"].tolist() == [1, 1, 3, 3]
    want = _oracle(tmp_sf, parts_price_rank_sql(3)).sort_values(
        ["p_partkey"]
    ).reset_index(drop=True)[got.columns.tolist()]
    pd.testing.assert_frame_equal(
        got, want.astype({c: got[c].dtype for c in got.columns})
    )
