"""Hand-built fixtures for round-5 operator semantics: NTILE tile-size
rule, range-join band boundaries, EXCEPT/INTERSECT flags, exact-moments
variance, URL-domain dedup-within-doc, and the pagerank boolean gate."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def tmp_sf(tmp_path_factory, ray_session):
    """Tiny synthetic sf_dir with hand-placed round-5 edge cases."""
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("r5sf")
    t0 = np.datetime64("2024-01-01T12:00:00.000000")
    s = np.timedelta64(1_000_000, "us")
    # user 1: 10 events (NTILE(4) sizes 3,3,2,2) — one HI purchase (95),
    #   views all low-value -> EXCEPT keeps user 1
    # user 2: 3 events (< k -> tiles 1,2,3) — HI view (92) + HI purchase
    #   (100) -> INTERSECT keeps user 2
    # user 3: 1 low-value purchase only -> neither
    n1, n2 = 10, 3
    ev = {
        "event_id": list(range(1, n1 + 1)) + [101, 102, 103] + [201],
        "ts": [t0 + i * s for i in range(n1)]
        + [t0, t0 + s, t0 + 2 * s] + [t0],
        "user_id": [1] * n1 + [2] * n2 + [3],
        "event_type": ["view"] * (n1 - 1) + ["purchase"]
        + ["view", "purchase", "view"] + ["purchase"],
        "value": [float(i) for i in range(n1 - 1)] + [95.0]
        + [92.0, 100.0, 4.0] + [10.0],
        "props": [""] * (n1 + n2 + 1),
    }
    events = pa.table(
        {
            "event_id": pa.array(ev["event_id"], pa.int64()),
            "ts": pa.array(ev["ts"], pa.timestamp("us")),
            "user_id": pa.array(ev["user_id"], pa.int64()),
            "event_type": pa.array(ev["event_type"], pa.string()),
            "value": pa.array(ev["value"], pa.float64()),
            "props": pa.array(ev["props"], pa.string()),
        }
    )
    pq.write_table(events, str(d / "events.parquet"))
    # lineitem: one row exactly ON each band edge (lo <= d < hi)
    discounts = [0.0, 0.02, 0.05, 0.08, 0.1, 0.019]
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(range(1, len(discounts) + 1), pa.int64()),
            "l_partkey": pa.array([1] * len(discounts), pa.int64()),
            "l_suppkey": pa.array([1] * len(discounts), pa.int64()),
            "l_linenumber": pa.array([1] * len(discounts), pa.int32()),
            "l_quantity": pa.array([1.0] * len(discounts), pa.float64()),
            "l_extendedprice": pa.array(
                [100.0] * len(discounts), pa.float64()
            ),
            "l_discount": pa.array(discounts, pa.float64()),
            "l_tax": pa.array([0.0] * len(discounts), pa.float64()),
            "l_returnflag": pa.array(["N"] * len(discounts), pa.string()),
            "l_linestatus": pa.array(["O"] * len(discounts), pa.string()),
            "l_shipdate": pa.array(
                [np.datetime64("2024-01-01", "us")] * len(discounts),
                pa.timestamp("us"),
            ),
        }
    )
    pq.write_table(lineitem, str(d / "lineitem.parquet"))
    # documents: doc 0 plants BOTH URLs on the SAME domain (3|0 and 13|0,
    # 0%23 == 0%7 == 0) -> n_urls=2, n_docs=1 for site0; doc 39 plants two
    # DIFFERENT domains (39%23=16, 39%7=4); docs 1,2 plant nothing
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 39], pa.int64()),
            "text": pa.array(["alpha", "beta", "gamma", "delta"],
                             pa.string()),
            "lang": pa.array(["en"] * 4, pa.string()),
            "source": pa.array(["s"] * 4, pa.string()),
        }
    )
    pq.write_table(docs, str(d / "documents.parquet"))
    return str(d)


def _con(tmp_sf, tables=("events", "lineitem", "documents")):
    c = duckdb.connect()
    for t in tables:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{tmp_sf}/{t}.parquet')"
        )
    return c


def test_ntile_size_rule(tmp_sf):
    """NTILE(4) over 10 rows -> tile sizes 3,3,2,2 in order; over 3 rows
    -> tiles 1,2,3 — and the whole table matches DuckDB."""
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        USER_NTILE_SQL,
        events_user_ntile,
    )

    got = (
        events_user_ntile(tmp_sf)
        .to_pandas()
        .sort_values(["user_id", "event_id"])
        .reset_index(drop=True)
    )
    u1 = got[got["user_id"] == 1]["tile"].tolist()
    assert u1 == [1, 1, 1, 2, 2, 2, 3, 3, 4, 4]
    u2 = got[got["user_id"] == 2]["tile"].tolist()
    assert u2 == [1, 2, 3]
    want = (
        _con(tmp_sf).execute(USER_NTILE_SQL).df()
        .sort_values(["user_id", "event_id"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got, want.astype({"tile": "int64"}), check_dtype=False
    )


def test_discount_band_edges(tmp_sf):
    """Band membership is lo <= d < hi on exact per-mille cents: 0.02 is
    'low' (not 'none'), 0.05 'mid', 0.08 and 0.1 'high' — vs DuckDB."""
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        DISCOUNT_BANDS_SQL,
        lineitem_discount_bands,
    )

    got = (
        lineitem_discount_bands(tmp_sf).to_pandas()
        .sort_values("band").reset_index(drop=True)
    )
    by_band = dict(zip(got["band"], got["n_items"]))
    assert by_band == {"none": 2, "low": 1, "mid": 1, "high": 2}
    want = (
        _con(tmp_sf).execute(DISCOUNT_BANDS_SQL).df()
        .sort_values("band").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_set_operators(tmp_sf):
    """EXCEPT keeps the hi-purchase-no-hi-view user (1); INTERSECT keeps
    the hi-both user (2); the low-value-only user (3) appears in neither —
    and both match their DuckDB set-operator oracles."""
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        HIVALUE_EXCEPT_SQL,
        HIVALUE_INTERSECT_SQL,
        events_hivalue_except_users,
        events_hivalue_intersect_users,
    )

    only = sorted(
        events_hivalue_except_users(tmp_sf).to_pandas()["user_id"]
    )
    both = sorted(
        events_hivalue_intersect_users(tmp_sf).to_pandas()["user_id"]
    )
    assert only == [1]
    assert both == [2]
    con = _con(tmp_sf)
    assert sorted(con.execute(HIVALUE_EXCEPT_SQL).df()["user_id"]) == only
    assert sorted(
        con.execute(HIVALUE_INTERSECT_SQL).df()["user_id"]
    ) == both


def test_type_stats_var_matches_numpy(tmp_sf):
    """Exact-moments variance equals numpy's population variance on the
    cents-quantized values, and the SQL oracle hash-matches."""
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        TYPE_STATS_VAR_SQL,
        events_type_stats_var,
    )

    got = (
        events_type_stats_var(tmp_sf).to_pandas()
        .sort_values("event_type").reset_index(drop=True)
    )
    raw = pd.read_parquet(f"{tmp_sf}/events.parquet")
    for _, row in got.iterrows():
        v = raw[raw["event_type"] == row["event_type"]]["value"].to_numpy()
        c = np.floor(v * 100 + 0.5)
        assert row["var_value"] == pytest.approx(
            np.var(c) / 1e4, rel=1e-12
        )
    want = (
        _con(tmp_sf).execute(TYPE_STATS_VAR_SQL).df()
        .sort_values("event_type").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_url_domains_within_doc_dedup(tmp_sf):
    """Doc 0 plants two URLs on ONE domain -> n_urls=2 but n_docs=1;
    doc 39 contributes one URL to each of two domains — vs DuckDB."""
    from nlp_series_relation_extraction_ray.stages.textstats import (
        URL_DOMAINS_SQL,
        plant_urls,
        url_domain_stats,
    )
    from nlp_series_relation_extraction_ray.sources.readers import (
        read_parquet_clean,
    )

    docs = read_parquet_clean(f"{tmp_sf}/documents.parquet")
    got = (
        url_domain_stats(plant_urls(docs)).to_pandas()
        .sort_values("domain").reset_index(drop=True)
    )
    row0 = got[got["domain"] == "site0.example.org"].iloc[0]
    assert (row0["n_urls"], row0["n_docs"]) == (2, 1)
    assert set(got["domain"]) == {
        "site0.example.org", "site16.example.org", "site4.example.org"
    }
    want = (
        _con(tmp_sf).execute(URL_DOMAINS_SQL).df()
        .sort_values("domain").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_url_tail_stops_at_tab(tmp_path, ray_session):
    """Two URLs separated by a tab (and a newline after) are two hits on
    BOTH sides — the Python and DuckDB patterns share one tail class.
    doc_id 1 gets no planted URL."""
    import pyarrow.parquet as pq

    from nlp_series_relation_extraction_ray.sources.readers import (
        read_parquet_clean,
    )
    from nlp_series_relation_extraction_ray.stages.textstats import (
        URL_DOMAINS_SQL,
        plant_urls,
        url_domain_stats,
    )

    pq.write_table(
        pa.table({
            "doc_id": pa.array([1], pa.int64()),
            "text": pa.array(
                ["see https://a.example.org/x\thttps://b.example.org/y\nz"],
                pa.string()),
        }),
        str(tmp_path / "documents.parquet"),
    )
    got = (
        url_domain_stats(plant_urls(read_parquet_clean(
            str(tmp_path / "documents.parquet")))).to_pandas()
        .sort_values("domain").reset_index(drop=True)
    )
    assert got.to_dict("list") == {
        "domain": ["a.example.org", "b.example.org"],
        "n_urls": [1, 1], "n_docs": [1, 1],
    }
    want = (
        _con(str(tmp_path), tables=("documents",))
        .execute(URL_DOMAINS_SQL).df()
        .sort_values("domain").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_var_value_uses_oracle_double_arithmetic():
    """With Σc above 2^53 the exact big-int product Σc·Σc and the SQL's
    double product round apart (here by the whole variance); the merge
    must evaluate the oracle's double expression."""
    from nlp_series_relation_extraction_ray.pipelines.relational import (
        _var_value,
    )

    n, sc = 2, 2**53 + 1
    sc2 = (sc * sc + 1) // 2

    def dbl(v):
        return f"CAST(CAST('{v}' AS HUGEINT) AS DOUBLE)"

    want = duckdb.connect().execute(
        f"SELECT ({dbl(sc2)} - {dbl(sc)} * {dbl(sc)} / CAST({n} AS DOUBLE))"
        f" / CAST({n} AS DOUBLE) / 10000.0"
    ).fetchone()[0]
    exact_product = (sc2 - (sc * sc) / n) / n / 10000.0
    assert exact_product != want
    assert _var_value(n, sc, sc2) == want


def test_kg_pagerank_check_all_true(ray_session):
    """The boolean gate verdicts are all TRUE on a hub + dangling + cycle
    graph (shuffle-plan pagerank vs the driver plan's numpy reference)."""
    import ray

    from nlp_series_relation_extraction_ray.pipelines.kg import (
        kg_pagerank_check,
    )

    pairs = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a"), ("c", "d"),
             ("e", "a"), ("e", "c"), ("a", "b")]
    df = pd.DataFrame(pairs, columns=["src_id", "dst_id"])
    df["predicate"] = "p"
    df["weight"] = 1
    out = kg_pagerank_check(ray.data.from_pandas(df))
    assert len(out) == 5
    assert out["within_tol"].all()
    assert out["sum_ok"].all()


def test_rare_token_threshold_boundary(ray_session):
    """A token with df EXACTLY at the corpus-relative threshold is common
    (strict <); the globally-unique planted tokens are rare.  Hand-built
    200-doc corpus: threshold = max(2, 200//100) = 2, so the df=2 token
    'pair' is common and each doc's unique 'tok<i>' is rare."""
    import pyarrow as pa
    import ray

    from nlp_series_relation_extraction_ray.stages.textstats import (
        rare_token_stats,
    )

    n = 200
    texts = [f"alpha beta tok{i}" + (" pair" if i < 2 else "")
             for i in range(n)]
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    got = rare_token_stats(docs, n).to_pandas().set_index("doc_id")
    # every doc: alpha/beta common (df=200), tok<i> rare (df=1)
    assert (got["rare_tokens"] == 1).all()
    # docs 0,1 carry 'pair' (df=2 == threshold -> common): 4 distinct
    assert got.loc[0, "n_distinct"] == 4
    assert got.loc[0, "rare_tokens"] == 1
    assert got.loc[5, "n_distinct"] == 3
    assert abs(got.loc[5, "rare_frac"] - 1 / 3) < 1e-15


def test_edit_dist_cross_boundary_pair(ray_session):
    """The r4 recall hole: lengths 63 and 65 land in length-buckets 0 and
    1, so without adjacent-bucket spill a dist-2 pair is never compared.
    Ground truth is an UNBLOCKED DuckDB levenshtein self-join over the
    fixture — the blocked distributed kernel must recover every pair,
    including the boundary-straddling one (this test fails on the
    pre-spill blocking)."""
    import pyarrow as pa
    import ray

    from nlp_series_relation_extraction_ray.stages.dedup import (
        edit_dist_pairs,
    )

    texts = [
        "x" * 63,          # doc 0: bucket 0
        "x" * 65,          # doc 1: bucket 1 — dist 2 from doc 0, boundary
        "x" * 64,          # doc 2: bucket 1 — dist 1 from doc 1
        "y" * 40,          # doc 3: far from everything
        "x" * 63 + "abc",  # doc 4: 66 chars, dist 3 from doc 0
    ]
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    got = edit_dist_pairs(docs, max_dist=8).to_pandas()
    got_pairs = set(zip(got["doc_a"], got["doc_b"]))
    con = duckdb.connect()
    con.execute("CREATE TABLE d(doc_id BIGINT, text VARCHAR)")
    for i, t in enumerate(texts):
        con.execute("INSERT INTO d VALUES (?, ?)", [i, t])
    truth = con.execute(
        """SELECT a.doc_id, b.doc_id FROM d a JOIN d b
           ON a.doc_id < b.doc_id
           WHERE levenshtein(a.text, b.text) <= 8"""
    ).fetchall()
    assert got_pairs == set(truth)
    assert (0, 1) in got_pairs  # the cross-boundary pair specifically
