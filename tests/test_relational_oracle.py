"""Local replica of the driver's correctness gate: run every registered query
on sf0.001 and compare against its DuckDB oracle — row count, schema (by
sorted column names), and order-insensitive values."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from ocr_proofreader_ray.pipelines.registry import all_oracles, all_queries

SF_DIR = "/root/testdata/sf0.001"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return c


ORACLES = all_oracles()
QUERIES = all_queries()

pytestmark = pytest.mark.usefixtures("no_ray_groupby_aggregate")


def _assert_matches_oracle(con, name, sf_dir=SF_DIR):
    got = canon(to_pandas(QUERIES[name](sf_dir)))
    want = canon(con.sql(ORACLES[name]).df())
    assert list(got.columns) == list(want.columns), (
        f"{name}: columns {list(got.columns)} vs {list(want.columns)}"
    )
    assert len(got) == len(want), f"{name}: rows {len(got)} vs {len(want)}"
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)
    # Driver-style representation check: the real gate hashes canonical
    # VALUES, so a pandas extension dtype (Int64 <NA>) or an int/float
    # mismatch fails it even when assert_frame_equal(check_dtype=False)
    # passes — caught live in round 3 on q_lead_lag_orders.  Exact floats
    # (engine contract) make this hash stable.
    h_got = pd.util.hash_pandas_object(got, index=False).sum()
    h_want = pd.util.hash_pandas_object(want, index=False).sum()
    assert h_got == h_want, (
        f"{name}: value-hash mismatch (dtypes {dict(got.dtypes.astype(str))} "
        f"vs {dict(want.dtypes.astype(str))})"
    )


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_query_matches_oracle(ray_session, con, name):
    _assert_matches_oracle(con, name)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_query_matches_oracle_ray_split(ray_session, ray_default_split, con,
                                        name):
    _assert_matches_oracle(con, name)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_query_matches_oracle_all_exchange(ray_session, all_exchange, con,
                                           name):
    _assert_matches_oracle(con, name)


def test_count_distinct_users_null_event_type(ray_session, tmp_path):
    """A null event_type is a group, as in SQL; Ray's sort-based groupby
    raised ``TypeError`` comparing it with a string key once the input
    spans two blocks (one per file)."""
    import pyarrow.parquet as pq

    events = tmp_path / "events.parquet"
    events.mkdir()
    pq.write_table(pa.table({
        "event_type": pa.array(["click", None, "view"]),
        "user_id": pa.array([1, 1, 2], pa.int64()),
    }), str(events / "a.parquet"))
    pq.write_table(pa.table({
        "event_type": pa.array([None, "click", "buy"]),
        "user_id": pa.array([3, 1, 2], pa.int64()),
    }), str(events / "b.parquet"))
    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM "
              f"read_parquet('{events}/*.parquet')")
    got = canon(to_pandas(QUERIES["q_count_distinct_users"](str(tmp_path))))
    want = canon(c.sql(ORACLES["q_count_distinct_users"]).df())
    assert len(want) == 4
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


# rows each query's SQL returns over the null-flag lineitem below
_NULL_FLAG_ROWS = {
    "q_price_quartiles": 3, "q_price_percentiles_cont": 3,
    "q_price_mad": 2, "q_winsorized_prices": 2, "q_minmax_scaled": 5,
}


@pytest.mark.parametrize("plan", ["default", "all_exchange"])
@pytest.mark.parametrize("name", sorted(_NULL_FLAG_ROWS))
def test_order_statistics_null_returnflag(ray_session, tmp_path, request,
                                          name, plan):
    """A null ``l_returnflag`` follows each query's SQL: the ``GROUP BY``
    queries keep a null group (sorting the group keys raised
    ``TypeError`` on it), and the ``JOIN ... USING (l_returnflag)``
    queries drop the null-flag rows, as the join does.  ``all_exchange``
    runs the bisection plan of the order statistics."""
    import pyarrow.parquet as pq

    if plan == "all_exchange":
        request.getfixturevalue("all_exchange")
    lineitem = tmp_path / "lineitem.parquet"
    lineitem.mkdir()
    pq.write_table(pa.table({
        "l_orderkey": pa.array([1, 1, 2, 3], pa.int64()),
        "l_linenumber": pa.array([1, 2, 1, 1], pa.int64()),
        "l_returnflag": pa.array(["A", None, "R", "A"]),
        "l_extendedprice": pa.array([10.0, 20.5, 30.25, 40.0]),
    }), str(lineitem / "a.parquet"))
    pq.write_table(pa.table({
        "l_orderkey": pa.array([4, 5, 5, 6], pa.int64()),
        "l_linenumber": pa.array([1, 1, 2, 1], pa.int64()),
        "l_returnflag": pa.array([None, "R", None, "A"]),
        "l_extendedprice": pa.array([15.0, 25.0, 35.5, 45.75]),
    }), str(lineitem / "b.parquet"))
    c = duckdb.connect()
    c.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
              f"read_parquet('{lineitem}/*.parquet')")
    got = canon(to_pandas(QUERIES[name](str(tmp_path))))
    want = canon(c.sql(ORACLES[name]).df())
    assert len(want) == _NULL_FLAG_ROWS[name]
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


@pytest.mark.parametrize("plan", ["default", "all_exchange"])
def test_rank_in_segment_null_segment(ray_session, tmp_path, request, plan):
    """A null market segment is its own ranking partition, as in SQL; Ray's
    sort-based ``map_groups`` raised ``TypeError`` on a null string key
    once the input spanned two blocks."""
    import pyarrow.parquet as pq

    if plan == "all_exchange":
        request.getfixturevalue("all_exchange")
    customer = tmp_path / "customer.parquet"
    customer.mkdir()
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3, 4], pa.int64()),
        "c_mktsegment": pa.array(["A", None, "B", None]),
    }), str(customer / "a.parquet"))
    pq.write_table(pa.table({
        "c_custkey": pa.array([5, 6, 7, 8], pa.int64()),
        "c_mktsegment": pa.array([None, "A", None, "A"]),
    }), str(customer / "b.parquet"))
    pq.write_table(pa.table({
        "o_custkey": pa.array([1, 2, 3, 4, 5, 6, 7, 8, 2, 8], pa.int64()),
        "o_totalprice": pa.array([5.0, 3.0, 1.0, 3.0, 9.0, 5.0, 2.0, 4.0,
                                  1.0, 1.0]),
    }), str(tmp_path / "orders.parquet"))
    c = duckdb.connect()
    c.execute(f"CREATE VIEW customer AS SELECT * FROM "
              f"read_parquet('{customer}/*.parquet')")
    c.execute(f"CREATE VIEW orders AS SELECT * FROM "
              f"read_parquet('{tmp_path}/orders.parquet')")
    got = canon(to_pandas(QUERIES["q_rank_in_segment"](str(tmp_path))))
    want = canon(c.sql(ORACLES["q_rank_in_segment"]).df())
    assert want["segment"].isna().sum() == 3
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


@pytest.mark.parametrize("plan", ["default", "all_exchange"])
def test_latest_event_null_user_and_ts(ray_session, tmp_path, request, plan):
    """A null user_id is one PARTITION BY group and a null ts sorts last,
    as in SQL: a join on (user_id, max ts) would drop both."""
    import pyarrow.parquet as pq

    if plan == "all_exchange":
        request.getfixturevalue("all_exchange")
    pq.write_table(pa.table({
        "user_id": pa.array([1, None, None, 2, 2, 3, 3], pa.int64()),
        "event_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        "ts": pa.array([1, 5, 7, None, None, None, 4], pa.timestamp("us")),
        "event_type": pa.array(["a", "b", "c", "d", "e", "f", "g"]),
    }), str(tmp_path / "events.parquet"))
    c = duckdb.connect()
    c.execute(f"CREATE VIEW events AS SELECT * FROM "
              f"read_parquet('{tmp_path}/events.parquet')")
    got = canon(to_pandas(QUERIES["q_latest_event"](str(tmp_path))))
    want = canon(c.sql(ORACLES["q_latest_event"]).df())
    assert sorted(want["event_id"]) == [1, 3, 4, 7]
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_every_oracle_has_query():
    assert set(ORACLES) <= set(QUERIES)


def test_registry_names_match_functions():
    """Each registered name must point at the function of the same name —
    a ``@register`` decorator landing on the wrong def (e.g. a helper
    inserted above the query during a refactor) silently swaps the
    driver-contract callable; caught live in round 3 on q_ann_ivf."""
    for name, fn in QUERIES.items():
        assert fn.__name__ == name, (
            f"registry entry {name!r} is bound to {fn.__name__!r}"
        )
