"""Null keys and null values follow each query's registered SQL.

Small tables with a null user, customer, price, name, segment,
language and text run through the queries that cut rows into key groups (windows,
sessions, gap fill, blocking, per-group heads) and are compared with
DuckDB by the oracle gate's own check."""

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from datetime import date, datetime

from test_relational_oracle import QUERIES, _assert_matches_oracle

pytestmark = pytest.mark.usefixtures("no_ray_groupby_aggregate")


def _ts(day, hour, minute=0):
    return datetime(2024, 1, day, hour, minute)


# each table is two files, so the rows of one key span two blocks
_TABLES = {
    "events": pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        # the null user's two events are 3 hours apart: two sessions
        "user_id": pa.array([1, None, 1, None, 2, 2, 1], pa.int64()),
        "event_type": pa.array(["click", "click", "view", "click", "buy",
                                "click", None]),
        "ts": pa.array([_ts(1, 10), _ts(1, 9), _ts(1, 10, 10), _ts(1, 12),
                        _ts(2, 8), _ts(3, 8), _ts(2, 9)],
                       pa.timestamp("us")),
    }),
    "orders": pa.table({
        "o_orderkey": pa.array([1, 2, 3, 4, 5, 6, 7, 8, 9], pa.int64()),
        "o_custkey": pa.array([1, None, 1, None, 2, 3, 1, 4, 4], pa.int64()),
        "o_orderdate": pa.array([date(2024, 1, d)
                                 for d in (1, 2, 5, 3, 4, 4, 3, 1, 2)],
                                pa.date32()),
        # a null price between two of customer 1's prices, and customer
        # 4's first price null: null deltas, a running sum that skips it
        # and one that is null before any price
        "o_totalprice": pa.array([100.0, 200.0, 150.0, 300.0, 50.0, 75.0,
                                  None, None, 20.0]),
    }),
    "customer": pa.table({
        "c_custkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
        # "a" and "b" are one edit from each other and from "ab"; a null
        # name is no edit from anything
        "c_name": pa.array(["ab", None, "a", "b", "abc"]),
        "c_mktsegment": pa.array(["A", "B", None, "A", None]),
    }),
    "documents": pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        "lang": pa.array(["en", None, "en", None, "de", "de"]),
        # a null text has no tokens; an empty one is one '' token
        "text": pa.array(["the cat sat", "the dog", None, None, "",
                          "der hund der"]),
    }),
}

_QUERIES = [
    "q_user_sessions", "q_lead_lag_orders", "q_running_revenue",
    "q_events_resampled", "q_fuzzy_name_pairs", "q_segment_dedup",
    "q_heavy_hitters", "q_latest_event", "q_rank_in_segment",
    "q_tfidf_top_terms",
]


@pytest.fixture(scope="module")
def null_tables(tmp_path_factory):
    """(sf_dir, DuckDB connection) over the null-holding tables."""
    root = tmp_path_factory.mktemp("nulls")
    con = duckdb.connect()
    for name, table in _TABLES.items():
        out = root / f"{name}.parquet"
        out.mkdir()
        half = table.num_rows // 2
        pq.write_table(table.slice(0, half), str(out / "a.parquet"))
        pq.write_table(table.slice(half), str(out / "b.parquet"))
        con.execute(f"CREATE VIEW {name} AS SELECT * FROM "
                    f"read_parquet('{out}/*.parquet')")
    return str(root), con


@pytest.mark.parametrize("plan", ["default", "all_exchange"])
@pytest.mark.parametrize("name", _QUERIES)
def test_null_inputs_match_oracle(ray_session, null_tables, request, name,
                                  plan):
    if plan == "all_exchange":
        request.getfixturevalue("all_exchange")
    sf_dir, con = null_tables
    _assert_matches_oracle(con, name, sf_dir)


@pytest.mark.parametrize("plan", ["default", "all_exchange"])
def test_heavy_hitters_approx_keeps_null_language(ray_session, null_tables,
                                                  request, plan):
    if plan == "all_exchange":
        request.getfixturevalue("all_exchange")
    got = QUERIES["q_heavy_hitters_approx"](null_tables[0])
    assert set(got.column("lang").to_pylist()) == {"en", "de", None}
    null_lang = got.filter(got.column("lang").is_null())
    assert sorted(null_lang.column("tok").to_pylist()) == ["dog", "the"]
