"""Generic relational operator surface (SURVEY.md §2.B), DuckDB-oracle-checked.

Every query reads Parquet with pruned columns, stays vectorized
(pyarrow.compute inside ``map_batches``), and keeps shuffles to the minimum
the semantics require: grouped aggregates shuffle compact rows or group keys;
dimension joins broadcast; only genuine fact-fact joins hash-partition.

**Float determinism contract**: the driver hash-compares values, and a sum of
doubles is order-dependent in its last ulps — a distributed aggregate and a
single-threaded SQL engine WILL disagree.  Every monetary/float aggregate is
therefore expressed in integer units: per-row ``floor(x * scale + 0.5)`` is
bit-identical in both engines (same IEEE expression over the same operand),
and integer sums are exact in any order.  Averages divide two exact integers
with an identical division sequence in both engines.  Column names match the
oracle SQL exactly (the driver sorts columns by name before hashing).
"""

from __future__ import annotations

from datetime import datetime

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ocr_proofreader_ray.functions import hll
from ocr_proofreader_ray.ops.agg import (
    grouped_agg,
    grouped_sketch,
    grouped_top_k,
    run_ids,
    run_positions,
    run_starts,
    shared_runs,
)
from ocr_proofreader_ray.ops.exchange import exchange
from ocr_proofreader_ray.ops.io import read_parquet
from ocr_proofreader_ray.ops.join import (
    asof_join,
    join,
    semi_anti,
    shuffle_join,
)
from ocr_proofreader_ray.pipelines.registry import register
from ocr_proofreader_ray.state.manifest import fingerprint_files


def t(sf_dir: str, name: str, columns: list[str] | None = None) -> "ray.data.Dataset":
    """Pruned Parquet scan of one testdata table (B1), through
    ``ops.io.read_parquet``: a table no bigger than one Ray block is read
    unsplit, so the read fuses with the query's first map instead of
    launching 2 x CPUs tasks per operator for a few KB of rows."""
    return read_parquet(f"{sf_dir}/{name}.parquet", columns=columns)


def imod(col, m: int):
    """Integer modulo for non-negative keys (pyarrow has no mod kernel)."""
    return pc.subtract(col, pc.multiply(pc.divide(col, m), m))


def to_units(col, scale: float):
    """floor(x*scale + 0.5) as int64 — the exact-integer money trick."""
    return pc.cast(
        pc.floor(pc.add(pc.multiply(col, pa.scalar(float(scale))), pa.scalar(0.5))),
        pa.int64(),
    )


# ---------------------------------------------------------------------------
# B5 — grouped aggregate (TPC-H Q1 style)
# ---------------------------------------------------------------------------

@register(
    "q1_pricing_summary",
    sql="""
    SELECT l_returnflag, l_linestatus,
           sum(l_quantity)                            AS sum_qty,
           CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
                                                      AS sum_base_price_cents,
           CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 10000 + 0.5)
                         AS BIGINT)) AS BIGINT)       AS sum_disc_price_ucents,
           sum(l_quantity) / count(*)                 AS avg_qty,
           count(*)                                   AS count_order
    FROM lineitem
    WHERE l_shipdate <= TIMESTAMP '2000-09-01'
    GROUP BY l_returnflag, l_linestatus
    """,
)
def q1_pricing_summary(sf_dir: str):
    ds = t(sf_dir, "lineitem",
           ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_shipdate"])

    def prep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less_equal(
            b.column("l_shipdate"),
            pa.scalar(datetime(2000, 9, 1), pa.timestamp("us")),
        ))
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "l_linestatus": b.column("l_linestatus"),
            "l_quantity": b.column("l_quantity"),
            "base_cents": to_units(b.column("l_extendedprice"), 100),
            "disc_ucents": to_units(
                pc.multiply(b.column("l_extendedprice"),
                            pc.subtract(pa.scalar(1.0), b.column("l_discount"))),
                10000),
        })

    ds = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    # 6 groups: combiner partials + driver-side final merge (ops/agg.py) —
    # no all-to-all shuffle of input rows
    agg = grouped_agg(ds, ["l_returnflag", "l_linestatus"], [
        ("l_quantity", "sum", "sum_qty"),
        ("base_cents", "sum", "sum_base_price_cents"),
        ("disc_ucents", "sum", "sum_disc_price_ucents"),
        (None, "count", "count_order"),
    ])
    avg_qty = pc.divide(agg.column("sum_qty"),
                        pc.cast(agg.column("count_order"), pa.float64()))
    return agg.add_column(5, "avg_qty", avg_qty)


# ---------------------------------------------------------------------------
# B2/B3/B4 — projection + scalar functions, filter, global aggregate (Q6 style)
# ---------------------------------------------------------------------------

@register(
    "q6_forecast_revenue",
    sql="""
    SELECT CAST(sum(CAST(floor(l_extendedprice * l_discount * 10000 + 0.5)
                         AS BIGINT)) AS BIGINT) AS revenue_ucents,
           count(*)                             AS n_rows
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '1996-01-01'
      AND l_shipdate <  TIMESTAMP '1997-01-01'
      AND l_discount >= 0.03 AND l_discount <= 0.07
      AND l_quantity < 24
    """,
)
def q6_forecast_revenue(sf_dir: str):
    ds = t(sf_dir, "lineitem",
           ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])

    def prep(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.greater_equal(b.column("l_shipdate"),
                                 pa.scalar(datetime(1996, 1, 1), pa.timestamp("us"))),
                pc.less(b.column("l_shipdate"),
                        pa.scalar(datetime(1997, 1, 1), pa.timestamp("us"))),
            ),
            pc.and_(
                pc.and_(pc.greater_equal(b.column("l_discount"), pa.scalar(0.03)),
                        pc.less_equal(b.column("l_discount"), pa.scalar(0.07))),
                pc.less(b.column("l_quantity"), pa.scalar(24.0)),
            ),
        )
        b = b.filter(m)
        rev = pc.multiply(b.column("l_extendedprice"), b.column("l_discount"))
        return pa.table({"rev_ucents": to_units(rev, 10000)})

    ds = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(ds, [], [("rev_ucents", "sum", "revenue_ucents"),
                                (None, "count", "n_rows")])


@register(
    "q_scalar_fns",
    sql="""
    SELECT o_orderkey,
           year(o_orderdate)              AS yr,
           month(o_orderdate)             AS mon,
           o_totalprice * 2               AS double_price,
           lower(o_orderpriority)         AS prio_lower,
           substr(o_orderstatus, 1, 1)    AS status_c
    FROM orders
    WHERE o_orderkey % 10 = 0
    """,
)
def q_scalar_fns(sf_dir: str):
    ds = t(sf_dir, "orders",
           ["o_orderkey", "o_orderdate", "o_totalprice", "o_orderpriority",
            "o_orderstatus"])

    def fn(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(imod(b.column("o_orderkey"), 10), 0))
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "yr": pc.year(b.column("o_orderdate")),
            "mon": pc.month(b.column("o_orderdate")),
            "double_price": pc.multiply(b.column("o_totalprice"), pa.scalar(2.0)),
            "prio_lower": pc.utf8_lower(b.column("o_orderpriority")),
            "status_c": pc.utf8_slice_codeunits(b.column("o_orderstatus"), 0, 1),
        })

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "q_global_stats",
    sql="""
    SELECT min(o_totalprice) AS min_price, max(o_totalprice) AS max_price,
           (CAST(CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                      AS BIGINT) AS DOUBLE) / 100) / count(*) AS avg_price,
           count(*) AS n
    FROM orders
    """,
)
def q_global_stats(sf_dir: str):
    ds = t(sf_dir, "orders", ["o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_totalprice": b.column("o_totalprice"),
            "cents": to_units(b.column("o_totalprice"), 100),
        })

    ds = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    agg = grouped_agg(ds, [], [("o_totalprice", "min", "min_price"),
                               ("o_totalprice", "max", "max_price"),
                               ("cents", "sum", "sum_cents"),
                               (None, "count", "n")]).to_pylist()[0]
    avg = (float(agg["sum_cents"]) / 100) / agg["n"]
    return pa.table({
        "min_price": pa.array([agg["min_price"]], pa.float64()),
        "max_price": pa.array([agg["max_price"]], pa.float64()),
        "avg_price": pa.array([avg], pa.float64()),
        "n": pa.array([agg["n"]], pa.int64()),
    })


# ---------------------------------------------------------------------------
# B6 — distinct / count-distinct
# ---------------------------------------------------------------------------

@register(
    "q_distinct_segments",
    sql="SELECT DISTINCT c_mktsegment FROM customer",
)
def q_distinct_segments(sf_dir: str):
    ds = t(sf_dir, "customer", ["c_mktsegment"])
    # few distinct values: per-batch distinct partials, driver-side union
    return grouped_agg(ds, ["c_mktsegment"],
                       [(None, "count", "n")]).select(["c_mktsegment"])


def _hll_users(rows: pa.Table) -> np.ndarray:
    """HLL registers of the rows' non-null user_ids."""
    regs = hll.empty_registers()
    users = pc.drop_null(rows.column("user_id"))
    hll.add_int_keys(regs, users.to_numpy().astype(np.uint64))
    return regs


@register("q_approx_distinct_users")  # sketch: rows-only driver check
def q_approx_distinct_users(sf_dir: str):
    """HLL approximate count-distinct per event_type — the scale path for
    B6 when exact pair-dedup would itself be a huge shuffle.  Each batch
    folds its user_ids into one 4 KiB sketch per event_type (a null
    event_type is a group; a null user_id is no user); sketches merge by
    elementwise max on the driver.  NOTHING shuffles — the network moves
    n_blocks x n_types x 4 KiB regardless of input size.  Accuracy ~1.6%
    (asserted vs exact in tests/test_hll.py)."""
    ds = t(sf_dir, "events", ["event_type", "user_id"])
    merged = grouped_sketch(ds, "event_type", _hll_users, hll.merge)
    types = sorted(merged, key=lambda v: (v is None, v or ""))
    return pa.table({
        "event_type": pa.array(types, pa.string()),
        "approx_users": pa.array(
            [int(round(hll.estimate(merged[et]))) for et in types],
            pa.int64()),
    })


@register(
    "q_count_distinct_users",
    sql="""
    SELECT event_type, count(DISTINCT user_id) AS n_users
    FROM events GROUP BY event_type
    """,
)
def q_count_distinct_users(sf_dir: str):
    ds = t(sf_dir, "events", ["event_type", "user_id"])
    # exact distinct: dedupe on (event_type, user_id) first (a null
    # event_type is a group), then a combiner count per event_type
    pairs = grouped_agg(ds, ["event_type", "user_id"], [], as_dataset=True)
    return grouped_agg(pairs, ["event_type"], [(None, "count", "n_users")])


# ---------------------------------------------------------------------------
# B7 — joins: broadcast dimension chain and fact-fact shuffle join
# ---------------------------------------------------------------------------

@register(
    "q_nation_revenue",
    sql="""
    SELECT n.n_name AS nation,
           CAST(sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS revenue_cents,
           count(*) AS n_orders
    FROM orders o
    JOIN customer c ON o.o_custkey = c.c_custkey
    JOIN nation n   ON c.c_nationkey = n.n_nationkey
    GROUP BY n.n_name
    """,
)
def q_nation_revenue(sf_dir: str):
    import pyarrow.parquet as pq

    orders = t(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    # nation is genuinely tiny (25 rows) — always read on the driver; the
    # customer side (collapsed to a custkey -> nation map) is sized by
    # ops.join.join
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": b.column("o_custkey"),
            "cents": to_units(b.column("o_totalprice"), 100),
        })

    orders = orders.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def cust_nation(cust: pa.Table) -> pa.Table:
        return cust.join(nation, keys=["c_nationkey"],
                         right_keys=["n_nationkey"]).select(
            ["c_custkey", "n_name"]).rename_columns(["c_custkey", "nation"])

    cust = t(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        cust_nation, batch_format="pyarrow", zero_copy_batch=True)
    joined = join(orders, cust, ["o_custkey"], ["c_custkey"])
    return grouped_agg(joined, ["nation"], [
        ("cents", "sum", "revenue_cents"),
        (None, "count", "n_orders"),
    ])


@register(
    "q_order_priority_revenue",
    sql="""
    SELECT o.o_orderpriority,
           CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 10000
                               + 0.5) AS BIGINT)) AS BIGINT) AS revenue_ucents,
           count(*) AS n_items
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    GROUP BY o.o_orderpriority
    """,
)
def q_order_priority_revenue(sf_dir: str):
    """Fact-fact join with a size-gated plan (B7).

    The projected orders side (key + priority) goes through
    ``ops.join.join``: it broadcasts while its materialized Arrow bytes fit
    the driver bound (``ops.agg._DRIVER_MAX_BYTES``) — the same bound as
    every join; above it, ONE hash-partition exchange
    joins both fact sides (that plan stays oracle-gated at every scale via
    `q_order_priority_revenue_salted`, which always takes the exchange,
    and pinned equal by the forced-path test).  (A
    pre-aggregate-lineitem-per-order variant was measured 4x SLOWER — the
    extra Ray groupby is itself a full sort shuffle; pre-aggregation pays
    off only when it replaces the shuffle, not when it adds one.)"""
    li = t(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(b: pa.Table) -> pa.Table:
        r = pc.multiply(b.column("l_extendedprice"),
                        pc.subtract(pa.scalar(1.0), b.column("l_discount")))
        return pa.table({"l_orderkey": b.column("l_orderkey"),
                         "rev_ucents": to_units(r, 10000)})

    li = li.map_batches(rev, batch_format="pyarrow", zero_copy_batch=True)
    orders = t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = join(li, orders, ["l_orderkey"], ["o_orderkey"])
    return grouped_agg(joined, ["o_orderpriority"], [
        ("rev_ucents", "sum", "revenue_ucents"),
        (None, "count", "n_items"),
    ])


@register(
    "q_order_priority_revenue_salted",
    sql="""
    SELECT o.o_orderpriority,
           CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 10000
                               + 0.5) AS BIGINT)) AS BIGINT) AS revenue_ucents,
           count(*) AS n_items
    FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
    GROUP BY o.o_orderpriority
    """,
)
def q_order_priority_revenue_salted(sf_dir: str):
    """The same fact-fact join under skew salting (salt=4): every left row
    takes a salt, the right side replicates once per salt, and __salt joins
    as an extra key — identical results to the unsalted plan (same oracle),
    with a dominant key spread over 4 partitions.  Registered end-to-end so
    the salting path sits behind the driver's correctness gate, not only a
    unit test."""
    li = t(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(b: pa.Table) -> pa.Table:
        r = pc.multiply(b.column("l_extendedprice"),
                        pc.subtract(pa.scalar(1.0), b.column("l_discount")))
        return pa.table({"l_orderkey": b.column("l_orderkey"),
                         "rev_ucents": to_units(r, 10000)})

    li = li.map_batches(rev, batch_format="pyarrow", zero_copy_batch=True)
    orders = t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    joined = shuffle_join(li, orders, on=("l_orderkey",),
                          right_on=("o_orderkey",), salt=4)
    return grouped_agg(joined, ["o_orderpriority"], [
        ("rev_ucents", "sum", "revenue_ucents"),
        (None, "count", "n_items"),
    ])


@register(
    "q_urgent_order_revenue",
    sql="""
    SELECT CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 10000
                               + 0.5) AS BIGINT)) AS BIGINT) AS revenue_ucents,
           count(*) AS n_items
    FROM lineitem l
    JOIN orders o ON l.l_orderkey = o.o_orderkey
    WHERE o.o_orderpriority = '1-URGENT'
    """,
)
def q_urgent_order_revenue(sf_dir: str):
    """Selective fact-fact join (B7 scale path).

    Orders shrink ~5x under the priority predicate.  ``ops.join.join``
    materializes the filtered orders once and broadcasts them while they
    fit the driver bound — lineitem streams through one Arrow join that
    drops the ~80% of its rows with no urgent order — or hash-exchanges
    both sides above it (the DuckDB oracle pins bit-exact results)."""
    li = t(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def rev(b: pa.Table) -> pa.Table:
        r = pc.multiply(b.column("l_extendedprice"),
                        pc.subtract(pa.scalar(1.0), b.column("l_discount")))
        return pa.table({"l_orderkey": b.column("l_orderkey"),
                         "rev_ucents": to_units(r, 10000)})

    li = li.map_batches(rev, batch_format="pyarrow", zero_copy_batch=True)
    orders = t(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    orders = orders.map_batches(
        lambda b: b.filter(pc.equal(b.column("o_orderpriority"),
                                    pa.scalar("1-URGENT"))),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = join(li, orders, ["l_orderkey"], ["o_orderkey"])
    # grouped on the constant priority column, then projected away → the
    # combiner aggregate machinery handles the keyless-global case too
    tab = grouped_agg(joined, ["o_orderpriority"], [
        ("rev_ucents", "sum", "revenue_ucents"),
        (None, "count", "n_items"),
    ])
    if tab.num_rows == 0:
        # a keyless SQL aggregate always yields ONE row (NULL sum, count 0)
        # even over an empty join — match that shape exactly
        return pa.table({
            "revenue_ucents": pa.array([None], pa.int64()),
            "n_items": pa.array([0], pa.int64()),
        })
    return tab.select(["revenue_ucents", "n_items"])


# ---------------------------------------------------------------------------
# B8 — semi / anti join
# ---------------------------------------------------------------------------

@register(
    "q_customers_with_orders",
    sql="""
    SELECT c_custkey, c_name FROM customer
    WHERE c_custkey IN (SELECT o_custkey FROM orders)
    """,
)
def q_customers_with_orders(sf_dir: str):
    ds = t(sf_dir, "customer", ["c_custkey", "c_name"])
    return semi_anti(ds, t(sf_dir, "orders", ["o_custkey"]),
                     on="c_custkey", keys_on="o_custkey")


@register(
    "q_customers_without_orders",
    sql="""
    SELECT c_custkey, c_name FROM customer
    WHERE c_custkey NOT IN (
        SELECT o_custkey FROM orders
        WHERE o_orderdate < TIMESTAMP '1996-01-01')
    """,
)
def q_customers_without_orders(sf_dir: str):
    """Anti join: customers with no orders before 1996 (the date filter keeps
    the result non-empty at every sf — every customer has *some* order).
    Above the driver bound the anti join stays EXACT through the exchange
    (a Bloom key set would wrongly drop customers on false positives)."""
    ds = t(sf_dir, "customer", ["c_custkey", "c_name"])
    cut = pa.scalar(datetime(1996, 1, 1), pa.timestamp("us"))
    early = t(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
        lambda o: o.filter(pc.less(o.column("o_orderdate"), cut)),
        batch_format="pyarrow", zero_copy_batch=True)
    return semi_anti(ds, early, on="c_custkey", keys_on="o_custkey",
                     anti=True)


# ---------------------------------------------------------------------------
# B9 — sort / top-k / limit
# ---------------------------------------------------------------------------

@register(
    "q_top_customers",
    sql="""
    SELECT o_custkey,
           CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
               AS revenue_cents,
           count(*) AS n_orders
    FROM orders GROUP BY o_custkey
    ORDER BY revenue_cents DESC, o_custkey ASC LIMIT 10
    """,
)
def q_top_customers(sf_dir: str):
    ds = t(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": b.column("o_custkey"),
            "cents": to_units(b.column("o_totalprice"), 100),
        })

    # high-cardinality key: kept a Dataset; only partials merge, never
    # input rows
    agg = grouped_agg(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["o_custkey"],
        [("cents", "sum", "revenue_cents"), (None, "count", "n_orders")],
        as_dataset=True,
    )
    # deterministic total order: integer revenue desc, key asc; local top-k
    # per block + one merge instead of a global range sort
    return grouped_top_k(agg, [], [("revenue_cents", "descending"),
                                   ("o_custkey", "ascending")], 10)


# ---------------------------------------------------------------------------
# B11 — set operations
# ---------------------------------------------------------------------------

@register(
    "q_union_segments",
    sql="""
    SELECT c_custkey, c_mktsegment FROM customer WHERE c_mktsegment = 'BUILDING'
    UNION ALL
    SELECT c_custkey, c_mktsegment FROM customer WHERE c_mktsegment = 'MACHINERY'
    """,
)
def q_union_segments(sf_dir: str):
    def seg_filter(value):
        def fn(b: pa.Table) -> pa.Table:
            return b.filter(pc.equal(b.column("c_mktsegment"), value))
        return fn

    a = t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        seg_filter("BUILDING"), batch_format="pyarrow", zero_copy_batch=True)
    b = t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        seg_filter("MACHINERY"), batch_format="pyarrow", zero_copy_batch=True)
    return a.union(b)


def _building(sf_dir: str) -> "ray.data.Dataset":
    """BUILDING-segment customers: the key side of the set-op semi/anti
    joins."""
    return t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda c: c.filter(pc.equal(c.column("c_mktsegment"), "BUILDING")),
        batch_format="pyarrow", zero_copy_batch=True)


@register(
    "q_intersect_custkeys",
    sql="""
    SELECT DISTINCT o_custkey AS custkey FROM orders
    INTERSECT
    SELECT c_custkey AS custkey FROM customer WHERE c_mktsegment = 'BUILDING'
    """,
)
def q_intersect_custkeys(sf_dir: str):
    """INTERSECT via distinct + semi join — ``ops.join.semi_anti``
    broadcasts the BUILDING key set while its distinct keys fit the join
    budget and hash-exchanges both sides above it."""
    ds = t(sf_dir, "orders", ["o_custkey"])
    distinct = grouped_agg(ds, ["o_custkey"], [], as_dataset=True)
    out = semi_anti(distinct, _building(sf_dir), on="o_custkey",
                    keys_on="c_custkey")
    return out.map_batches(
        lambda b: b.rename_columns(["custkey"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


@register(
    "q_except_custkeys",
    sql="""
    SELECT DISTINCT o_custkey AS custkey FROM orders
    EXCEPT
    SELECT c_custkey AS custkey FROM customer WHERE c_mktsegment = 'BUILDING'
    """,
)
def q_except_custkeys(sf_dir: str):
    ds = t(sf_dir, "orders", ["o_custkey"])
    distinct = grouped_agg(ds, ["o_custkey"], [], as_dataset=True)
    out = semi_anti(distinct, _building(sf_dir), on="o_custkey",
                    keys_on="c_custkey", anti=True)
    return out.map_batches(
        lambda b: b.rename_columns(["custkey"]),
        batch_format="pyarrow", zero_copy_batch=True,
    )


# ---------------------------------------------------------------------------
# B13 — JSON scalar functions
# ---------------------------------------------------------------------------

@register(
    "q_json_props",
    sql="""
    SELECT event_type,
           CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT)
               AS sum_k,
           count(*) AS n
    FROM events GROUP BY event_type
    """,
)
def q_json_props(sf_dir: str):
    import json

    ds = t(sf_dir, "events", ["event_type", "props"])

    def parse(b: pa.Table) -> pa.Table:
        ks = [json.loads(p).get("k") for p in b.column("props").to_pylist()]
        return pa.table({
            "event_type": b.column("event_type"),
            "k": pa.array(ks, pa.int64()),
        })

    ds = ds.map_batches(parse, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(ds, ["event_type"], [
        ("k", "sum", "sum_k"), (None, "count", "n"),
    ])


# ---------------------------------------------------------------------------
# B14 — batch time-window aggregation (tumbling day windows)
# ---------------------------------------------------------------------------

@register(
    "q_events_daily",
    sql="""
    SELECT event_type, date_trunc('day', ts) AS day,
           count(*) AS n_events,
           CAST(sum(CAST(floor(value * 1000 + 0.5) AS BIGINT)) AS BIGINT)
               AS sum_value_milli
    FROM events GROUP BY event_type, day
    """,
)
def q_events_daily(sf_dir: str):
    ds = t(sf_dir, "events", ["event_type", "ts", "value"])

    def trunc(b: pa.Table) -> pa.Table:
        day = pc.floor_temporal(b.column("ts"), unit="day")
        return pa.table({
            "event_type": b.column("event_type"),
            "day": day,
            "value_milli": to_units(b.column("value"), 1000),
        })

    ds = ds.map_batches(trunc, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(ds, ["event_type", "day"], [
        (None, "count", "n_events"),
        ("value_milli", "sum", "sum_value_milli"),
    ])


# ---------------------------------------------------------------------------
# window functions: rank within group, gap-based sessionization
# ---------------------------------------------------------------------------

@register(
    "q_rank_in_segment",
    sql="""
    WITH rev AS (
        SELECT c.c_mktsegment AS segment, o.o_custkey AS custkey,
               CAST(sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT))
                    AS BIGINT) AS revenue_cents
        FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
        GROUP BY segment, custkey
    ), ranked AS (
        SELECT segment, custkey, revenue_cents,
               row_number() OVER (PARTITION BY segment
                                  ORDER BY revenue_cents DESC, custkey ASC)
                   AS rnk
        FROM rev
    )
    SELECT segment, custkey, revenue_cents, CAST(rnk AS BIGINT) AS rnk
    FROM ranked WHERE rnk <= 3
    """,
)
def q_rank_in_segment(sf_dir: str):
    """Window row_number per group: top-3 customers by revenue in each
    market segment.  Revenue per customer via combiner partials
    (high-cardinality key, kept a Dataset), joined to its segment through
    ``ops.join.join``; ``grouped_top_k`` keeps each segment's top 3 under a
    deterministic total order (a null segment is its own partition), and
    the row numbers are assigned on the driver over at most segments x 3
    rows."""
    orders = t(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": b.column("o_custkey"),
            "cents": to_units(b.column("o_totalprice"), 100),
        })

    rev = grouped_agg(
        orders.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["o_custkey"], [("cents", "sum", "revenue_cents")], as_dataset=True,
    )
    cust = t(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda c: c.rename_columns(["c_custkey", "segment"]),
        batch_format="pyarrow", zero_copy_batch=True)
    rev = join(rev, cust, ["o_custkey"], ["c_custkey"])
    order = [("revenue_cents", "descending"), ("o_custkey", "ascending")]
    top = grouped_top_k(rev, ["segment"], order, 3)
    top = top.take(pc.sort_indices(top, [("segment", "ascending")] + order))
    rnk = run_positions(run_starts(top, ["segment"])) + 1
    return pa.table({
        "segment": top.column("segment"),
        "custkey": top.column("o_custkey"),
        "revenue_cents": top.column("revenue_cents"),
        "rnk": pa.array(rnk, pa.int64()),
    })


@register(
    "q_user_sessions",
    sql="""
    WITH ordered AS (
        SELECT user_id,
               CASE WHEN lag(ts) OVER w IS NULL
                         OR ts - lag(ts) OVER w > INTERVAL 30 MINUTE
                    THEN 1 ELSE 0 END AS new_session
        FROM events
        WINDOW w AS (PARTITION BY user_id ORDER BY ts)
    )
    SELECT user_id,
           CAST(sum(new_session) AS BIGINT) AS n_sessions,
           count(*) AS n_events
    FROM ordered GROUP BY user_id
    """,
)
def q_user_sessions(sf_dir: str, gap_minutes: int = 30):
    """Gap-based sessionization (the batch analogue of a session window):
    a user's events split into sessions at >30-minute gaps.

    Users are co-grouped by one hash exchange on user_id (one call per
    partition, not per user — see the MinHash lesson): all events of one
    user land in one partition, which sorts them and cuts its users with
    ``ops.agg.run_starts`` (a null user is one user, as in SQL's
    ``PARTITION BY``).  A row opens a session when it opens its user or
    its lag ts is null, or the gap from it is over ``gap_minutes``.  A
    null ts sorts last: a user's first null-ts row opens no session (its
    gap is NULL) and each later one opens one (its lag is NULL)."""
    ds = t(sf_dir, "events", ["user_id", "ts"])
    gap = np.timedelta64(gap_minutes * 60, "s")

    def sessionize(rows: pa.Table) -> pa.Table:
        rows = rows.take(pc.sort_indices(
            rows, [("user_id", "ascending"), ("ts", "ascending")]))
        ts = rows.column("ts").to_numpy()
        new = run_starts(rows, ["user_id"])
        new[1:] |= np.isnat(ts[:-1]) | (ts[1:] - ts[:-1] > gap)
        out = pa.table({
            "user_id": rows.column("user_id"),
            "n_sessions": pa.array(new.astype(np.int64)),
        }).group_by("user_id").aggregate([("n_sessions", "sum"),
                                          ([], "count_all")])
        return pa.table({"user_id": out.column("user_id"),
                         "n_sessions": out.column("n_sessions_sum"),
                         "n_events": out.column("count_all")})

    return exchange(ds, ["user_id"], sessionize)


# ---------------------------------------------------------------------------
# B17 (round 3) — as-of join, moving-window aggregate, stratified sample,
# pivot: the non-equi / window / stratification surface, all oracle-checked
# ---------------------------------------------------------------------------

@register(
    "q_asof_latest_order",
    sql="""
    WITH ord AS (
        SELECT o_custkey, o_orderdate, max(o_orderkey) AS o_orderkey
        FROM orders GROUP BY o_custkey, o_orderdate
    )
    SELECT e.event_id, e.user_id, o.o_orderkey
    FROM events e ASOF JOIN ord o
      ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
    """,
)
def q_asof_latest_order(sf_dir: str):
    """As-of join (non-equi): each event matched to the user's most recent
    order at or before the event timestamp — ``ops/join.py::asof_join``,
    one hash exchange + per-partition vectorized ``merge_asof``.  Ties on
    (custkey, orderdate) resolve to the max o_orderkey INSIDE the
    partition (``right_tiebreak``) — same semantics as the oracle's
    pre-reduce, without a separate aggregate shuffle."""
    ev = t(sf_dir, "events", ["event_id", "user_id", "ts"])
    orders = t(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"])
    joined = asof_join(ev, orders, on="user_id", right_on="o_custkey",
                       left_ts="ts", right_ts="o_orderdate",
                       right_tiebreak="o_orderkey")
    return joined.map_batches(
        lambda b: b.select(["event_id", "user_id", "o_orderkey"]),
        batch_format="pyarrow", zero_copy_batch=True)


@register(
    "q_revenue_moving_7d",
    sql="""
    WITH daily AS (
        SELECT strftime(o_orderdate, '%Y-%m-%d') AS day,
               CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                    AS BIGINT) AS rev_cents
        FROM orders GROUP BY day
    )
    SELECT day, rev_cents,
           CAST(sum(rev_cents) OVER (ORDER BY day
                    ROWS BETWEEN 6 PRECEDING AND CURRENT ROW) AS BIGINT)
               AS rev_7d_cents
    FROM daily
    """,
)
def q_revenue_moving_7d(sf_dir: str):
    """Moving-window aggregate: 7-row trailing revenue sum over the daily
    series.  The heavy half (per-day grouped sum) is the distributed
    combiner aggregate; the window itself runs on the DAY-count-bounded
    driver table as one numpy cumsum — a day series is tiny at any corpus
    scale, so a distributed window would shuffle for nothing."""
    orders = t(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "day": pc.strftime(b.column("o_orderdate"), format="%Y-%m-%d"),
            "cents": to_units(b.column("o_totalprice"), 100),
        })

    daily = grouped_agg(
        orders.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["day"], [("cents", "sum", "rev_cents")])
    daily = daily.take(pc.sort_indices(daily,
                                       sort_keys=[("day", "ascending")]))
    rev = daily.column("rev_cents").to_numpy()
    c = np.cumsum(rev)
    roll = c.copy()
    roll[7:] = c[7:] - c[:-7]
    return pa.table({
        "day": daily.column("day"),
        "rev_cents": daily.column("rev_cents"),
        "rev_7d_cents": pa.array(roll, pa.int64()),
    })


@register(
    "q_stratified_sample_lang",
    sql="""
    SELECT lang, doc_id FROM (
        SELECT lang, doc_id,
               row_number() OVER (PARTITION BY lang
                                  ORDER BY (doc_id * 96731) % 1000003,
                                           doc_id) AS rn
        FROM documents) WHERE rn <= 3
    """,
)
def q_stratified_sample_lang(sf_dir: str, k: int = 3):
    """Deterministic stratified sample: k docs per language, chosen by an
    arithmetic hash rank both engines compute identically (no RNG).
    ``ops/agg.py::grouped_top_k``: each block keeps its local per-group
    top-k, the driver merges blocks x groups x k survivor rows — no
    global sort, no shuffle."""
    docs = t(sf_dir, "documents", ["doc_id", "lang"])

    def hkey(b: pa.Table) -> pa.Table:
        h = imod(pc.multiply(b.column("doc_id"), pa.scalar(96731)), 1000003)
        return pa.table({"lang": b.column("lang"),
                         "doc_id": b.column("doc_id"),
                         "hkey": pc.cast(h, pa.int64())})

    sampled = grouped_top_k(
        docs.map_batches(hkey, batch_format="pyarrow", zero_copy_batch=True),
        ["lang"], [("hkey", "ascending"), ("doc_id", "ascending")], k)
    return sampled.select(["lang", "doc_id"])


@register(
    "q_revenue_pivot",
    sql="""
    SELECT CAST(year(o_orderdate) AS BIGINT) AS yr,
           CAST(sum(CASE WHEN o_orderpriority = '1-URGENT'
                         THEN c ELSE 0 END) AS BIGINT) AS urgent_cents,
           CAST(sum(CASE WHEN o_orderpriority = '2-HIGH'
                         THEN c ELSE 0 END) AS BIGINT) AS high_cents,
           CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                         THEN c ELSE 0 END) AS BIGINT) AS other_cents
    FROM (SELECT o_orderdate, o_orderpriority,
                 CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS c
          FROM orders)
    GROUP BY yr
    """,
)
def q_revenue_pivot(sf_dir: str):
    """Pivot (conditional aggregation): revenue by year split into priority
    columns — per-batch vectorized if_else masks feed the combiner
    aggregate, so the pivot costs exactly one grouped sum."""
    orders = t(sf_dir, "orders",
               ["o_orderdate", "o_orderpriority", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        c = to_units(b.column("o_totalprice"), 100)
        pr = b.column("o_orderpriority")
        urgent = pc.equal(pr, pa.scalar("1-URGENT"))
        high = pc.equal(pr, pa.scalar("2-HIGH"))
        other = pc.invert(pc.or_(urgent, high))
        zero = pa.scalar(0, pa.int64())
        return pa.table({
            "yr": pc.cast(pc.year(b.column("o_orderdate")), pa.int64()),
            "u": pc.if_else(urgent, c, zero),
            "h": pc.if_else(high, c, zero),
            "o": pc.if_else(other, c, zero),
        })

    return grouped_agg(
        orders.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["yr"], [("u", "sum", "urgent_cents"),
                 ("h", "sum", "high_cents"),
                 ("o", "sum", "other_cents")])


# ---------------------------------------------------------------------------
# B10 — deterministic systematic sample: a modulo filter on the key, so
# the rows are the same at any parallelism and SQL can agree
# ---------------------------------------------------------------------------

@register(
    "q_systematic_sample",
    sql="""
    SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem
    WHERE l_orderkey % 97 = 0
    """,
)
def q_systematic_sample(sf_dir: str):
    ds = t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])
    return ds.map_batches(
        lambda b: b.filter(pc.equal(imod(b.column("l_orderkey"), 97), 0)),
        batch_format="pyarrow", zero_copy_batch=True,
    )


@register("q_value_quantiles_approx")  # mergeable sketch: rows-only check
def q_value_quantiles_approx(sf_dir: str):
    """Approximate per-event-type quantiles of the continuous ``value``
    column via mergeable KLL sketches (functions/kll.py).

    The exact-percentile trick used for integer doc lengths (value
    histogram, state bounded by distinct values) does not survive floats —
    distinct count ∝ rows — so this is the scale path: every batch emits
    one few-KB sketch per event type, the driver merges per type and reads
    p50/p90/p99.  Rank error <= ~1.7/k of n (k=400 → ~0.4%), pinned by
    tests against exact ranks; n_events is exact (sketch n merges by
    addition)."""
    from ocr_proofreader_ray.functions.kll import KLLSketch
    ds = t(sf_dir, "events", ["event_type", "value"])

    def build(rows: pa.Table) -> KLLSketch:
        sk = KLLSketch(k=400)
        sk.add_batch(rows.column("value").to_numpy())
        return sk

    merged = grouped_sketch(ds, "event_type", build, KLLSketch.merge)

    out = {"event_type": [], "n_events": [], "p50": [], "p90": [], "p99": []}
    for etype in sorted(merged, key=lambda v: (v is None, v or "")):
        sk = merged[etype]
        q50, q90, q99 = sk.quantiles([0.5, 0.9, 0.99])
        out["event_type"].append(etype)
        out["n_events"].append(sk.n)
        out["p50"].append(q50)
        out["p90"].append(q90)
        out["p99"].append(q99)
    return pa.table({
        "event_type": pa.array(out["event_type"], pa.string()),
        "n_events": pa.array(out["n_events"], pa.int64()),
        "p50": pa.array(out["p50"], pa.float64()),
        "p90": pa.array(out["p90"], pa.float64()),
        "p99": pa.array(out["p99"], pa.float64()),
    })


# ---------------------------------------------------------------------------
# B18 (round 3) — statistical aggregates, lead/lag windows, rollup
# ---------------------------------------------------------------------------

@register(
    "q_corr_qty_price",
    sql="""
    WITH p AS (
        SELECT l_returnflag,
               CAST(floor(l_quantity + 0.5) AS BIGINT)      AS ix,
               CAST(floor(l_extendedprice + 0.5) AS BIGINT) AS iy
        FROM lineitem
    ), s AS (
        SELECT l_returnflag,
               CAST(count(*)    AS BIGINT) AS n,
               CAST(sum(ix)     AS BIGINT) AS sx,
               CAST(sum(iy)     AS BIGINT) AS sy,
               CAST(sum(ix*ix)  AS BIGINT) AS sxx,
               CAST(sum(iy*iy)  AS BIGINT) AS syy,
               CAST(sum(ix*iy)  AS BIGINT) AS sxy
        FROM p GROUP BY l_returnflag
    )
    SELECT l_returnflag, n,
           (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
            - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
           / sqrt((CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
                   - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE))
                  * (CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
                     - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE)))
               AS corr_qty_price,
           (CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
            - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE))
           / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)) AS covar_pop
    FROM s
    """,
)
def q_corr_qty_price(sf_dir: str):
    """Pearson correlation / population covariance per return flag (B18).

    A correlation is a ratio of moment sums, so the distributed part is the
    same exact-integer combiner as every money aggregate here: per-row
    integer units, per-batch ``group_by`` partials, driver merge of <=3
    group rows.  The float math happens ONCE on the final exact integers
    with the identical IEEE expression the oracle uses — n*sxy - sx*sy over
    doubles is correctly rounded the same way in both engines, so the hash
    compare stays bit-exact (module header contract).  Operand bounds: iy
    <= ~6e5 dollars, so sum(iy*iy) stays under 2^63 to ~sf10 and under
    2^53 (exact double) at test scales; a 100-TB run would widen partials
    to two-limb int64 pairs, the combiner shape is unchanged."""
    ds = t(sf_dir, "lineitem", ["l_returnflag", "l_quantity",
                                "l_extendedprice"])

    def prep(b: pa.Table) -> pa.Table:
        ix = to_units(b.column("l_quantity"), 1)
        iy = to_units(b.column("l_extendedprice"), 1)
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "ix": ix, "iy": iy,
            "ixx": pc.multiply(ix, ix),
            "iyy": pc.multiply(iy, iy),
            "ixy": pc.multiply(ix, iy),
        })

    s = grouped_agg(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["l_returnflag"], [
            (None, "count", "n"),
            ("ix", "sum", "sx"), ("iy", "sum", "sy"),
            ("ixx", "sum", "sxx"), ("iyy", "sum", "syy"),
            ("ixy", "sum", "sxy"),
        ])
    n = s.column("n").to_numpy().astype(np.float64)
    sx = s.column("sx").to_numpy().astype(np.float64)
    sy = s.column("sy").to_numpy().astype(np.float64)
    sxx = s.column("sxx").to_numpy().astype(np.float64)
    syy = s.column("syy").to_numpy().astype(np.float64)
    sxy = s.column("sxy").to_numpy().astype(np.float64)
    num = n * sxy - sx * sy
    corr = num / np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
    covar = num / (n * n)
    return pa.table({
        "l_returnflag": s.column("l_returnflag"),
        "n": s.column("n"),
        "corr_qty_price": pa.array(corr, pa.float64()),
        "covar_pop": pa.array(covar, pa.float64()),
    })


@register(
    "q_lead_lag_orders",
    sql="""
    WITH c AS (
        SELECT o_orderkey, o_custkey, o_orderdate,
               CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
        FROM orders
    )
    SELECT o_orderkey, o_custkey, cents,
           cents - lag(cents) OVER (PARTITION BY o_custkey
                                    ORDER BY o_orderdate, o_orderkey)
               AS delta_cents
    FROM c
    """,
)
def q_lead_lag_orders(sf_dir: str):
    """Partitioned lead/lag window (B18): each order's price delta from the
    same customer's previous order.

    Same co-group plan as ``q_user_sessions``: ONE hash exchange on
    custkey, then a vectorized sort + shift inside each partition — all
    rows of one customer land in one partition, so the lag boundary mask
    (``ops.agg.run_starts``; a null custkey is one customer) is local.
    The first order per customer gets a null delta, matching SQL
    ``lag``, and so does an order whose price or lag price is null."""
    ds = t(sf_dir, "orders",
           ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "o_custkey": b.column("o_custkey"),
            "o_orderdate": b.column("o_orderdate"),
            "cents": to_units(b.column("o_totalprice"), 100),
        })

    def lag_in_part(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[
            ("o_custkey", "ascending"), ("o_orderdate", "ascending"),
            ("o_orderkey", "ascending")])
        g = g.take(idx)
        missing = g.column("cents").is_null().to_numpy()
        cents = pc.fill_null(g.column("cents"), 0).to_numpy()
        delta = np.zeros_like(cents)
        delta[1:] = cents[1:] - cents[:-1]
        # null on a customer's first order and where either price is null
        null = run_starts(g, ["o_custkey"]) | missing
        null[1:] |= missing[:-1]
        return pa.table({
            "o_orderkey": g.column("o_orderkey"),
            "o_custkey": g.column("o_custkey"),
            "cents": g.column("cents"),
            "delta_cents": pa.array(delta, type=pa.int64(), mask=null),
        })

    ds = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return exchange(ds, ["o_custkey"], lag_in_part)


_PRIORITY_STATUS = ["o_orderpriority", "o_orderstatus"]


def _revenue_strata(sf_dir: str, strata: list[list[str]]) -> pa.Table:
    """Revenue cents and order count of ``orders`` per grouping set in
    ``strata`` (each a subset of (priority, status); a column outside the
    set is NULL), as ``GROUP BY ROLLUP``/``CUBE`` return them.

    One distributed pass computes only the FINEST stratum via the combiner
    engine; every stratum is then re-aggregated from those few rows on the
    driver (|priorities| x |statuses| rows at any corpus scale) — rolling
    up partials instead of re-scanning is the whole point of the
    operator, and integer cents keep every stratum hash-exact."""
    orders = t(sf_dir, "orders", _PRIORITY_STATUS + ["o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderpriority": b.column("o_orderpriority"),
            "o_orderstatus": b.column("o_orderstatus"),
            "cents": to_units(b.column("o_totalprice"), 100),
        })

    fine = grouped_agg(
        orders.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        _PRIORITY_STATUS, [
            ("cents", "sum", "revenue_cents"),
            (None, "count", "n_orders"),
        ])

    def roll(keys: list[str]) -> pa.Table:
        agg = fine.group_by(keys).aggregate(
            [("revenue_cents", "sum"), ("n_orders", "sum")])
        cols = {c: (agg.column(c) if c in keys
                    else pa.nulls(agg.num_rows, pa.string()))
                for c in _PRIORITY_STATUS}
        cols["revenue_cents"] = pc.cast(agg.column("revenue_cents_sum"),
                                        pa.int64())
        cols["n_orders"] = pc.cast(agg.column("n_orders_sum"), pa.int64())
        return pa.table(cols)

    return pa.concat_tables([roll(keys) for keys in strata])


@register(
    "q_rollup_revenue",
    sql="""
    SELECT o_orderpriority, o_orderstatus,
           CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS revenue_cents,
           count(*) AS n_orders
    FROM orders
    GROUP BY ROLLUP (o_orderpriority, o_orderstatus)
    """,
)
def q_rollup_revenue(sf_dir: str):
    """ROLLUP hierarchy aggregate (B18): (priority, status), (priority),
    and grand-total strata in one result (``_revenue_strata``)."""
    return _revenue_strata(sf_dir, [_PRIORITY_STATUS, ["o_orderpriority"],
                                    []])


@register(
    "q_cube_revenue",
    sql="""
    SELECT o_orderpriority, o_orderstatus,
           CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS revenue_cents,
           count(*) AS n_orders
    FROM orders
    GROUP BY CUBE (o_orderpriority, o_orderstatus)
    """,
)
def q_cube_revenue(sf_dir: str):
    """CUBE aggregate (B18): the rollup's strata plus the (NULL, status)
    marginal (``_revenue_strata``)."""
    return _revenue_strata(sf_dir, [_PRIORITY_STATUS, ["o_orderpriority"],
                                    ["o_orderstatus"], []])


@register(
    "q_running_revenue",
    sql="""
    WITH c AS (
        SELECT o_orderkey, o_custkey, o_orderdate,
               CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
        FROM orders
    )
    SELECT o_orderkey, o_custkey, cents,
           CAST(sum(cents) OVER (
               PARTITION BY o_custkey
               ORDER BY o_orderdate, o_orderkey
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
           ) AS BIGINT) AS running_cents
    FROM c
    """,
)
def q_running_revenue(sf_dir: str):
    """Cumulative window frame (B18): each order's running per-customer
    revenue total in (date, key) order — SQL ``sum() OVER (... ROWS
    UNBOUNDED PRECEDING)``.

    Same single-exchange co-group plan as ``q_lead_lag_orders``: one hash
    exchange on custkey, then one sort and one cumsum per partition, less
    the total before each customer's run (``ops.agg.run_starts``; a null
    custkey is one customer).  A null price adds nothing, and a running
    total over no price yet is null, as SQL's ``sum`` skips nulls.
    Integer cents keep every running total hash-exact."""
    ds = t(sf_dir, "orders",
           ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "o_custkey": b.column("o_custkey"),
            "o_orderdate": b.column("o_orderdate"),
            "cents": to_units(b.column("o_totalprice"), 100),
        })

    def cumsum_in_part(rows: pa.Table) -> pa.Table:
        g = rows.take(pc.sort_indices(rows, [
            ("o_custkey", "ascending"), ("o_orderdate", "ascending"),
            ("o_orderkey", "ascending")]))
        starts = run_starts(g, ["o_custkey"])
        ids = run_ids(starts)
        priced = g.column("cents").is_valid().to_numpy().astype(np.int64)
        cents = pc.fill_null(g.column("cents"), 0).to_numpy()
        total, seen = np.cumsum(cents), np.cumsum(priced)
        # minus the running sums before each customer's first order
        total -= (total - cents)[starts][ids]
        seen -= (seen - priced)[starts][ids]
        return pa.table({
            "o_orderkey": g.column("o_orderkey"),
            "o_custkey": g.column("o_custkey"),
            "cents": g.column("cents"),
            "running_cents": pa.array(total, pa.int64(), mask=seen == 0),
        })

    ds = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
    return exchange(ds, ["o_custkey"], cumsum_in_part)


_MELT_MEASURES = ["l_quantity", "l_extendedprice", "l_discount", "l_tax"]


@register(
    "q_melt_lineitem",
    sql=" UNION ALL ".join(
        f"SELECT l_orderkey, l_linenumber, '{m}' AS measure, {m} AS value "
        "FROM lineitem" for m in _MELT_MEASURES),
)
def q_melt_lineitem(sf_dir: str):
    """UNPIVOT / melt reshape (B2): lineitem's four numeric measures to
    long form (l_orderkey, l_linenumber, measure, value).

    Pure per-batch reshape — no shuffle, no state; each Arrow batch emits
    its four stacked sub-tables, so the operator streams at read
    bandwidth and the output stays block-parallel at any corpus size."""
    ds = t(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"] + _MELT_MEASURES)

    def melt(b: pa.Table) -> pa.Table:
        parts = [
            pa.table({
                "l_orderkey": b.column("l_orderkey"),
                "l_linenumber": b.column("l_linenumber"),
                "measure": pa.array([m] * b.num_rows, pa.string()),
                "value": pc.cast(b.column(m), pa.float64()),
            })
            for m in _MELT_MEASURES
        ]
        return pa.concat_tables(parts)

    return ds.map_batches(melt, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------------------
# B7+ — non-equi interval join (range-count form)
# ---------------------------------------------------------------------------


@register(
    "q_ship_window_counts",
    sql="""
    SELECT o_orderkey,
           count(l_shipdate) AS window_ships,
           CAST(sum(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS window_revenue_cents
    FROM orders LEFT JOIN lineitem
      ON l_shipdate >= o_orderdate
     AND l_shipdate < o_orderdate + INTERVAL 7 DAY
    GROUP BY o_orderkey
    """,
)
def q_ship_window_counts(sf_dir: str):
    """Non-equi interval join: per order, the count and revenue of ALL
    lineitems (any order) shipped inside [o_orderdate, o_orderdate + 7d).

    Plan: ``range_count_join`` — the lineitem side reduces to a bounded
    per-calendar-day histogram (combiner ``grouped_agg``; merged state =
    distinct days, corpus-independent), broadcast once as prefix-sum
    arrays; orders stream through one vectorized ``searchsorted`` probe.
    No all-to-all exchange, no pair materialization — a pairwise inequality
    join here would be |orders| x |7-day lineitems| quadratic."""
    from ocr_proofreader_ray.ops.join import range_count_join

    orders = t(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    li = t(sf_dir, "lineitem", ["l_shipdate", "l_extendedprice"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_shipdate": b.column("l_shipdate"),
            "cents": to_units(b.column("l_extendedprice"), 100),
        })

    li = li.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    out = range_count_join(
        orders, "o_orderdate", li, "l_shipdate", window_days=7,
        count_name="window_ships",
        sum_col="cents", sum_name="window_revenue_cents")
    return out.drop_columns(["o_orderdate"])


# ---------------------------------------------------------------------------
# B14 — NTILE window over exact distributed order statistics
# ---------------------------------------------------------------------------


@register(
    "q_ntile_customers",
    sql="""
    SELECT c_custkey, c_mktsegment, c_acctbal,
           CAST(ntile(4) OVER (PARTITION BY c_mktsegment
                               ORDER BY c_acctbal, c_custkey) AS BIGINT)
               AS tile
    FROM customer
    """,
)
def q_ntile_customers(sf_dir: str, tiles: int = 4):
    """NTILE(4) per market segment ordered by (c_acctbal, c_custkey).

    The naive window plan sorts every partition; at corpus scale a segment
    is corpus-sized.  Instead the tile boundaries are ORDER STATISTICS —
    rank i*q + min(i, r) per segment — computed exactly with
    ``grouped_kth_smallest`` (driver gather under the size gate,
    distributed bisection counting above it: O(log range) cheap combiner
    passes, driver state O(segments x tiles) at any corpus size).  Rows
    then stream through one searchsorted probe against the broadcast
    boundaries.  Ordering key packs (cents, custkey) into one int64
    (custkey < 2^33; |cents| < 2^30 — both hold for TPC-H shapes)."""
    from ocr_proofreader_ray.ops.selection import grouped_kth_smallest

    ds = t(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])

    def composite(b: pa.Table) -> pa.Table:
        comp = pc.add(
            pc.multiply(to_units(b.column("c_acctbal"), 100),
                        pa.scalar(1 << 33, pa.int64())),
            b.column("c_custkey"))
        return b.append_column("__comp", comp)

    ds = ds.map_batches(composite, batch_format="pyarrow",
                        zero_copy_batch=True).materialize()

    def ranks_for(n: int) -> list[int]:
        q, r = divmod(n, tiles)
        # NTILE: first r tiles take q+1 rows; boundary = last rank of tile i
        return [i * q + min(i, r) for i in range(1, tiles)
                if i * q + min(i, r) >= 1]

    bounds = grouped_kth_smallest(ds, "c_mktsegment", "__comp", ranks_for)
    ref = ray.put({g: np.asarray([v for v in vs if v is not None], np.int64)
                   for g, (_n, vs) in bounds.items()})

    def assign(b: pa.Table) -> pa.Table:
        bmap = ray.get(ref)
        segs = b.column("c_mktsegment").to_numpy()
        comp = np.asarray(b.column("__comp"))
        tile = np.ones(len(comp), np.int64)
        for g, bv in bmap.items():
            m = segs == g
            if m.any() and len(bv):
                tile[m] = np.searchsorted(bv, comp[m], side="left") + 1
        return b.drop_columns(["__comp"]).append_column(
            "tile", pa.array(tile, pa.int64()))

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------------------
# B5+ — string_agg / listagg per group (bounded-distinct combiner)
# ---------------------------------------------------------------------------


@register(
    "q_nation_segments",
    sql="""
    SELECT n_name, string_agg(c_mktsegment, ',' ORDER BY c_mktsegment)
               AS segments
    FROM (SELECT DISTINCT n_name, c_mktsegment
          FROM nation JOIN customer ON c_nationkey = n_nationkey)
    GROUP BY n_name
    """,
)
def q_nation_segments(sf_dir: str):
    """Per nation, the sorted distinct market segments of its customers,
    comma-joined — distributed string_agg(DISTINCT .. ORDER BY ..).

    The combiner is the scale story: per-batch DISTINCT (nationkey,
    segment) pairs, merged by a ``grouped_agg`` whose state is bounded by
    nations x segments (125), never by customer count.  The 25-row nation
    dimension joins on the driver; the concatenation itself touches only
    the bounded distinct table."""
    cust = t(sf_dir, "customer", ["c_nationkey", "c_mktsegment"])
    pairs = grouped_agg(cust, ["c_nationkey", "c_mktsegment"],
                        [(None, "count", "c")])

    import pyarrow.parquet as pq
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    names = dict(zip(nation.column("n_nationkey").to_pylist(),
                     nation.column("n_name").to_pylist()))
    by_nation: dict = {}
    for nk, seg in zip(pairs.column("c_nationkey").to_pylist(),
                       pairs.column("c_mktsegment").to_pylist()):
        by_nation.setdefault(names[nk], []).append(seg)
    rows = sorted(by_nation)
    return pa.table({
        "n_name": pa.array(rows, pa.string()),
        "segments": pa.array([",".join(sorted(by_nation[n])) for n in rows],
                             pa.string()),
    })


# ---------------------------------------------------------------------------
# B5+ — grouped mode (most frequent value, deterministic tie-break)
# ---------------------------------------------------------------------------


@register(
    "q_quantity_mode",
    sql="""
    SELECT l_returnflag, l_quantity AS mode_qty, c AS mode_count FROM (
      SELECT l_returnflag, l_quantity, count(*) AS c,
             row_number() OVER (PARTITION BY l_returnflag
                                ORDER BY count(*) DESC, l_quantity) AS rn
      FROM lineitem GROUP BY l_returnflag, l_quantity) WHERE rn = 1
    """,
)
def q_quantity_mode(sf_dir: str):
    """Per return flag, the most frequent l_quantity (ties -> smallest
    value — deterministic, unlike SQL ``mode()``).

    Combiner state is bounded by distinct (flag, quantity) combinations
    (3 x 50 here), independent of row count; for unbounded value domains
    the CMS heavy-hitter path (q_heavy_hitters_approx) is the plan."""
    li = t(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])
    counts = grouped_agg(li, ["l_returnflag", "l_quantity"],
                         [(None, "count", "c")])
    best: dict = {}
    for flag, qty, c in zip(counts.column("l_returnflag").to_pylist(),
                            counts.column("l_quantity").to_pylist(),
                            counts.column("c").to_pylist()):
        cur = best.get(flag)
        if cur is None or (-c, qty) < (-cur[1], cur[0]):
            best[flag] = (qty, c)
    flags = sorted(best)
    return pa.table({
        "l_returnflag": pa.array(flags, pa.string()),
        "mode_qty": pa.array([best[f][0] for f in flags], pa.float64()),
        "mode_count": pa.array([best[f][1] for f in flags], pa.int64()),
    })


@register(
    "q_customer_orders_outer",
    sql="""
    SELECT COALESCE(c_custkey, o_custkey) AS c_custkey, c_mktsegment,
           o_orderkey,
           CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents
    FROM customer FULL JOIN orders ON o_custkey = c_custkey
    """,
)
def q_customer_orders_outer(sf_dir: str):
    """FULL OUTER fact-fact join (B7): every customer with each of their
    orders, plus customers with no orders (null order columns) and — were
    any present — orders with no customer (null customer columns).

    Outer semantics compose per partition because the hash exchange
    co-locates ALL rows of a key on both sides: a partition-local full
    outer is then exactly the global full outer (non-matches of either
    side surface in the partition that owns their key).  Broadcast plans
    cannot do this — right-side non-matches are invisible to a streamed
    left — so ``ops.join.join`` always exchanges a full outer join.  Money
    stays per-row exact-integer cents (no sums)."""
    cust = t(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    orders = t(sf_dir, "orders", ["o_custkey", "o_orderkey", "o_totalprice"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "o_custkey": b.column("o_custkey"),
            "o_orderkey": b.column("o_orderkey"),
            "total_cents": to_units(b.column("o_totalprice"), 100),
        })

    orders = orders.map_batches(cents, batch_format="pyarrow",
                                zero_copy_batch=True)
    return join(cust, orders, ["c_custkey"], ["o_custkey"],
                join_type="full outer")


@register(
    "q_ordered_orders",
    sql="""
    SELECT o_orderkey,
           CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents,
           CAST(row_number() OVER (
                ORDER BY floor(o_totalprice * 100 + 0.5) DESC, o_orderkey)
                AS BIGINT) AS pos
    FROM orders
    """,
)
def q_ordered_orders(sf_dir: str):
    """Global sort (B9+): every order ranked by (total price DESC,
    orderkey ASC) with its EXACT global position — the full distributed
    sort, not a top-k.

    ``global_sort_position`` (ops/sort.py) is the sample-based
    range-partitioned plan: bounded key sample -> range boundaries -> ONE
    exchange -> per-range local sort, with global offsets known before the
    exchange from a bounded histogram.  The descending+tie order packs
    into one unique ascending int64 key ((-cents) << 33 | orderkey), which
    is what makes the output permutation deterministic and the position
    column hash-comparable against the SQL window oracle."""
    from ocr_proofreader_ray.ops.sort import global_sort_position

    orders = t(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def pack(b: pa.Table) -> pa.Table:
        cents = to_units(b.column("o_totalprice"), 100)
        key = pc.add(
            pc.multiply(pc.negate_checked(cents),
                        pa.scalar(1 << 33, pa.int64())),
            b.column("o_orderkey"))
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "total_cents": cents,
            "__key": key,
        })

    packed = orders.map_batches(pack, batch_format="pyarrow",
                                zero_copy_batch=True)
    out = global_sort_position(packed, "__key", position_name="pos")
    return out.drop_columns(["__key"])


@register(
    "q_price_quartiles",
    sql="""
    SELECT l_returnflag,
           quantile_disc(cents, 0.25) AS p25_cents,
           quantile_disc(cents, 0.50) AS p50_cents,
           quantile_disc(cents, 0.75) AS p75_cents
    FROM (SELECT l_returnflag,
                 CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS cents
          FROM lineitem)
    GROUP BY l_returnflag
    """,
)
def q_price_quartiles(sf_dir: str):
    """EXACT p25/p50/p75 of the extended price per return flag
    (``quantile_disc`` semantics: the value at rank ceil(n*q), probed
    against DuckDB at n=4..7).

    Complements q_doc_length_quantiles: the value-histogram combiner there
    is bounded by DISTINCT VALUES, which works for lengths but not for a
    ~10^7-distinct money domain.  Here the three ranks per group are
    order statistics from ``grouped_kth_smallest`` — driver gather under
    the size gate, distributed bisection counting above it, so the plan is
    exact at any corpus size with O(groups x 3) driver state."""
    from ocr_proofreader_ray.ops.selection import grouped_kth_smallest

    li = t(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "cents": to_units(b.column("l_extendedprice"), 100),
        })

    ds = li.map_batches(cents, batch_format="pyarrow",
                        zero_copy_batch=True).materialize()
    vals = grouped_kth_smallest(
        ds, "l_returnflag", "cents",
        lambda n: [-(-n * q // 100) for q in (25, 50, 75)])
    flags = sorted(vals, key=lambda f: (f is None, f))  # NULL last
    return pa.table({
        "l_returnflag": pa.array(flags, pa.string()),
        "p25_cents": pa.array([vals[f][1][0] for f in flags], pa.int64()),
        "p50_cents": pa.array([vals[f][1][1] for f in flags], pa.int64()),
        "p75_cents": pa.array([vals[f][1][2] for f in flags], pa.int64()),
    })


@register(
    "q_events_resampled",
    sql="""
    SELECT s.user_id, s.event_type, d.day, COALESCE(c.n, 0) AS n
    FROM (SELECT DISTINCT user_id, event_type FROM events) s
    CROSS JOIN (SELECT unnest(generate_series(
        (SELECT min(date_trunc('day', ts)) FROM events),
        (SELECT max(date_trunc('day', ts)) FROM events),
        INTERVAL 1 DAY)) AS day) d
    LEFT JOIN (SELECT user_id, event_type, date_trunc('day', ts) AS day,
                      count(*) AS n
               FROM events GROUP BY ALL) c
      ON c.user_id = s.user_id AND c.event_type = s.event_type
     AND c.day = d.day
    """,
)
def q_events_resampled(sf_dir: str):
    """Time-series resample with gap fill (B14+): every observed
    (user_id, event_type) series re-emitted on the full daily grid of the
    corpus window, missing days zero-filled — the densification step any
    per-entity daily model input needs (the grid is ~3x the observed slots
    on this data).

    Scale plan: ONE combiner ``grouped_agg`` reduces events to observed
    (series, day) counts — state bounded by series x days, never raw
    events — returned as a Dataset (merged on the driver or in a hash
    exchange of the partials, by their count); the global [min, max] day
    pair broadcasts as two scalars; then one hash exchange on user_id (a
    series is (user, type), so all of a user's series co-locate) fills
    every series of a partition in one vectorized call, so the corpus-sized series dimension stays
    block-parallel end to end and nothing grid-sized touches the driver."""
    ev = t(sf_dir, "events", ["user_id", "event_type", "ts"])

    def day_col(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b.column("user_id"),
            "event_type": b.column("event_type"),
            "day": pc.floor_temporal(
                pc.cast(b.column("ts"), pa.timestamp("us")), unit="day"),
        })

    days = ev.map_batches(day_col, batch_format="pyarrow",
                          zero_copy_batch=True)
    counts = grouped_agg(days, ["user_id", "event_type", "day"],
                         [(None, "count", "n")], as_dataset=True).materialize()
    span = grouped_agg(counts, [], [("day", "min", "lo"),
                                    ("day", "max", "hi")]).to_pylist()[0]
    lo, hi = (np.datetime64(span[c], "us") for c in ("lo", "hi"))
    one_day = np.timedelta64(1, "D")
    # no ts at all: generate_series(NULL, NULL) is no day
    grid = (np.array([], lo.dtype) if np.isnat(lo)
            else np.arange(lo, hi + one_day, one_day))
    n_days = len(grid)

    # one Python call fills MANY series vectorized instead of one call per
    # series — per-series Python overhead was the wall-time at sf0.1
    def fill_many(rows: pa.Table) -> pa.Table:
        series = ["user_id", "event_type"]
        rows = rows.take(pc.sort_indices(
            rows, [(c, "ascending") for c in series]))
        starts = run_starts(rows, series)
        codes = run_ids(starts)
        k = int(starts.sum())
        # a null user or type is a series, yet its counts never join it
        # (NULL = NULL is not true): its days stay 0
        day = rows.column("day").to_numpy()
        hit = ~np.isnat(day)
        for c in series:
            hit &= rows.column(c).is_valid().to_numpy()
        arr = np.zeros(k * n_days, np.int64)
        arr[codes[hit] * n_days + (day[hit] - lo) // one_day] = np.asarray(
            rows.column("n"))[hit]
        each = pa.array(np.repeat(np.arange(k), n_days))
        return pa.table({
            "user_id": rows.column("user_id").filter(starts).take(each),
            "event_type": rows.column("event_type").filter(starts).take(each),
            "day": pa.array(np.tile(grid, k)),
            "n": arr,
        })

    return exchange(counts, ["user_id"], fill_many)


@register(
    "q_quantity_percentiles",
    sql="""
    SELECT l_orderkey, l_linenumber, l_returnflag, l_quantity,
           percent_rank() OVER (PARTITION BY l_returnflag
                                ORDER BY l_quantity) AS pct_rank,
           cume_dist() OVER (PARTITION BY l_returnflag
                             ORDER BY l_quantity) AS cume
    FROM lineitem
    """,
)
def q_quantity_percentiles(sf_dir: str):
    """percent_rank + cume_dist window over every lineitem row (B14+).

    The naive window plan sorts each partition (corpus-sized at scale).
    Both functions only depend on the row's VALUE within its group, so
    over a bounded value domain (50 quantities x 3 flags) the whole
    window collapses to: one combiner count histogram -> driver rank
    tables (rank = count(<v)+1, RANK tie semantics; pct = (rank-1)/(n-1);
    cume = count(<=v)/n — exact-int operands, so the float divisions are
    bit-identical to the SQL engine's) -> ONE broadcast searchsorted
    lookup as rows stream.  No shuffle, no sort, row output stays
    block-parallel."""
    li = t(sf_dir, "lineitem",
           ["l_orderkey", "l_linenumber", "l_returnflag", "l_quantity"])
    counts = grouped_agg(li, ["l_returnflag", "l_quantity"],
                         [(None, "count", "c")])

    lut: dict = {}
    by_flag: dict = {}
    for f, q, c in zip(counts.column("l_returnflag").to_pylist(),
                       counts.column("l_quantity").to_pylist(),
                       counts.column("c").to_pylist()):
        by_flag.setdefault(f, []).append((q, c))
    for f, qc in by_flag.items():
        qc.sort()
        vals = np.asarray([q for q, _ in qc], np.float64)
        cnts = np.asarray([c for _, c in qc], np.int64)
        n = int(cnts.sum())
        below = np.concatenate([[0], np.cumsum(cnts)[:-1]])  # count(< v)
        le = np.cumsum(cnts)                                 # count(<= v)
        pct = (below.astype(np.float64)
               / float(n - 1 if n > 1 else 1))               # rank-1 = below
        cume = le.astype(np.float64) / float(n)
        lut[f] = (vals, pct, cume)
    ref = ray.put(lut)

    def assign(b: pa.Table) -> pa.Table:
        m = ray.get(ref)
        flags = b.column("l_returnflag").to_numpy()
        qty = np.asarray(b.column("l_quantity"), np.float64)
        pct = np.empty(len(qty), np.float64)
        cume = np.empty(len(qty), np.float64)
        for f, (vals, p, c) in m.items():
            mask = flags == f
            if mask.any():
                idx = np.searchsorted(vals, qty[mask])
                pct[mask] = p[idx]
                cume[mask] = c[idx]
        return b.append_column("pct_rank", pa.array(pct, pa.float64())) \
                .append_column("cume", pa.array(cume, pa.float64()))

    return li.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


@register(
    "q_latest_event",
    sql="""
    SELECT user_id, event_id, ts, event_type FROM (
      SELECT user_id, event_id, ts, event_type,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY ts DESC, event_id ASC) AS rn
      FROM events) WHERE rn = 1
    """,
)
def q_latest_event(sf_dir: str):
    """Latest row per key (the recrawl pattern: keep the newest version of
    each url/user) — window ``row_number`` semantics with a deterministic
    tie-break, without a global sort.

    ``grouped_top_k`` with k=1 keeps each block's first row per user in
    (ts DESC, event_id ASC) order, and the same head merges the survivors
    on the driver or inside a hash exchange on user_id, by their count, so
    the state is one row per user and block.  It keeps SQL's partition
    semantics that a join on the key would lose: a null user_id is one
    partition, and a null ts sorts last."""
    ev = t(sf_dir, "events", ["user_id", "event_id", "ts", "event_type"])
    return grouped_top_k(ev, ["user_id"], [("ts", "descending"),
                                           ("event_id", "ascending")], 1,
                         as_dataset=True)


def _stale(marker: str, fingerprint: str) -> bool:
    """True unless ``marker`` holds ``fingerprint``: a derived export is
    keyed on its source's ``state.manifest.fingerprint_files`` (path, size
    and mtime in ns), so a same-size rewrite within one second rebuilds
    it."""
    import os as _os

    if not _os.path.exists(marker):
        return True
    with open(marker) as f:
        return f.read().strip() != fingerprint


@register(
    "q_csv_source_roundtrip",
    sql="""
    SELECT c_mktsegment, count(*) AS n,
           CAST(sum(CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT)
               AS bal_cents
    FROM customer GROUP BY c_mktsegment
    """,
)
def q_csv_source_roundtrip(sf_dir: str):
    """CSV source path (B1 source breadth): the customer table exported to
    CSV once per run, re-read with ``ray.data.read_csv``, and aggregated —
    proving the engine's source surface is not parquet-only and that the
    CSV round trip is value-exact (the cents quantization happens after
    the re-read, so any CSV float drift would fail the oracle hash)."""
    import os
    import shutil

    out = os.path.join("/tmp/opr_csv_src",
                       os.path.basename(os.path.normpath(sf_dir)))
    marker = os.path.join(out, "_done")
    fp = fingerprint_files([f"{sf_dir}/customer.parquet"])
    if _stale(marker, fp):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out, exist_ok=True)
        t(sf_dir, "customer", ["c_mktsegment", "c_acctbal"]) \
            .write_csv(os.path.join(out, "customer.csv"))
        with open(marker, "w") as f:
            f.write(fp)

    ds = ray.data.read_csv(os.path.join(out, "customer.csv"))

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_mktsegment": b.column("c_mktsegment"),
            "cents": to_units(pc.cast(b.column("c_acctbal"), pa.float64()),
                              100),
        })

    return grouped_agg(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["c_mktsegment"], [(None, "count", "n"), ("cents", "sum", "bal_cents")])


@register(
    "q_json_source_roundtrip",
    sql="""
    SELECT s_nationkey, count(*) AS n,
           CAST(sum(CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT)
               AS bal_cents
    FROM supplier GROUP BY s_nationkey
    """,
)
def q_json_source_roundtrip(sf_dir: str):
    """JSON-lines source path (B1 source breadth, completing the
    parquet/CSV/JSON source matrix): the supplier table exported to JSON
    once per run, re-read with ``ray.data.read_json``, and aggregated.

    Floats do NOT survive a JSON text roundtrip bit-exactly (measured:
    pandas-side serialization drops ulps), so the cents quantization runs
    BEFORE the sink — integers roundtrip exactly, and the oracle hash
    then proves the whole JSON write→read→aggregate path value-exact."""
    import os
    import shutil

    out = os.path.join("/tmp/opr_json_src",
                       os.path.basename(os.path.normpath(sf_dir)))
    marker = os.path.join(out, "_done")
    fp = fingerprint_files([f"{sf_dir}/supplier.parquet"])
    if _stale(marker, fp):
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out, exist_ok=True)

        def quantize(b: pa.Table) -> pa.Table:
            return pa.table({
                "s_nationkey": b.column("s_nationkey"),
                "bal_cents": to_units(b.column("s_acctbal"), 100),
            })

        t(sf_dir, "supplier", ["s_nationkey", "s_acctbal"]) \
            .map_batches(quantize, batch_format="pyarrow",
                         zero_copy_batch=True) \
            .write_json(os.path.join(out, "supplier.json"))
        with open(marker, "w") as f:
            f.write(fp)

    ds = ray.data.read_json(os.path.join(out, "supplier.json"))
    return grouped_agg(ds, ["s_nationkey"],
                       [(None, "count", "n"), ("bal_cents", "sum", "bal_cents")])


@register(
    "q_price_percentiles_cont",
    sql="""
    SELECT l_returnflag,
           quantile_cont(cents, 0.25) AS p25,
           quantile_cont(cents, 0.50) AS p50,
           quantile_cont(cents, 0.75) AS p75
    FROM (SELECT l_returnflag,
                 CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS cents
          FROM lineitem)
    GROUP BY l_returnflag
    """,
)
def q_price_percentiles_cont(sf_dir: str):
    """INTERPOLATED (``quantile_cont``/``percentile_cont``) p25/p50/p75 per
    return flag — the other standard percentile semantics next to
    q_price_quartiles' ``quantile_disc``.

    quantile_cont(q) = v[floor(h)] + (h - floor(h)) * (v[ceil(h)] -
    v[floor(h)]) with h = (n-1)*q over the 0-based sorted values (probed
    against DuckDB at n=4..7, exact float equality).  The engine fetches
    the two order statistics per (group, q) with ``grouped_kth_smallest``
    (driver gather under the size gate, distributed bisection above) and
    interpolates on the driver with the IDENTICAL float expression —
    exact-integer inputs make the interpolation hash-exact."""
    import math

    from ocr_proofreader_ray.ops.selection import grouped_kth_smallest

    li = t(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "cents": to_units(b.column("l_extendedprice"), 100),
        })

    ds = li.map_batches(cents, batch_format="pyarrow",
                        zero_copy_batch=True).materialize()
    qs = (0.25, 0.50, 0.75)

    def ranks_for(n: int) -> list[int]:
        # 1-based floor/ceil ranks per q, deduplicated
        return sorted({r for q in qs
                       for r in (math.floor((n - 1) * q) + 1,
                                 math.ceil((n - 1) * q) + 1)})

    vals = grouped_kth_smallest(ds, "l_returnflag", "cents", ranks_for)
    flags = sorted(vals, key=lambda f: (f is None, f))  # NULL last
    cols: dict = {"l_returnflag": pa.array(flags, pa.string())}
    for q, name in zip(qs, ("p25", "p50", "p75")):
        out = []
        for g in flags:
            n, vs = vals[g]
            h = (n - 1) * q
            by_rank = dict(zip(ranks_for(n), vs))
            lo = by_rank[math.floor(h) + 1]
            hi = by_rank[math.ceil(h) + 1]
            out.append(lo + (h - math.floor(h)) * (hi - lo))
        cols[name] = pa.array(out, pa.float64())
    return pa.table(cols)


@register(
    "q_winsorized_prices",
    sql="""
    WITH cents AS (
      SELECT l_returnflag,
             CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS c
      FROM lineitem
    ), bounds AS (
      SELECT l_returnflag,
             quantile_disc(c, 0.01) AS lo, quantile_disc(c, 0.99) AS hi
      FROM cents GROUP BY l_returnflag
    )
    SELECT cents.l_returnflag, count(*) AS n,
           CAST(sum(LEAST(GREATEST(c, lo), hi)) AS BIGINT)
               AS winsorized_cents
    FROM cents JOIN bounds ON cents.l_returnflag = bounds.l_returnflag
    GROUP BY cents.l_returnflag
    """,
)
def q_winsorized_prices(sf_dir: str):
    """Winsorized aggregate (outlier-robust statistics): per return flag,
    the price sum with values clipped to that group's exact [p01, p99] —
    the standard robust-mean prep before fitting on noisy web data.

    Composition of existing primitives: the two clip thresholds per group
    are EXACT order statistics from ``grouped_kth_smallest`` (rank =
    ceil(n*q), the pinned quantile_disc semantics); rows then stream
    through one vectorized clamp + the usual combiner sum — integer cents
    end-to-end, so the distributed sum is order-invariant and
    hash-exact."""
    from ocr_proofreader_ray.ops.selection import grouped_kth_smallest

    li = t(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def prep(b: pa.Table) -> pa.Table:
        # the SQL join USING (l_returnflag) drops null flags
        b = b.filter(pc.is_valid(b.column("l_returnflag")))
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "c": to_units(b.column("l_extendedprice"), 100),
        })

    ds = li.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True).materialize()
    bounds = grouped_kth_smallest(
        ds, "l_returnflag", "c", lambda n: [-(-n * q // 100) for q in (1, 99)])
    ref = ray.put({g: (int(v[0]), int(v[1]))
                   for g, (_n, v) in bounds.items()})

    def clamp(b: pa.Table) -> pa.Table:
        m = ray.get(ref)
        flags = b.column("l_returnflag").to_numpy()
        c = np.asarray(b.column("c"), np.int64).copy()
        for g, (lo, hi) in m.items():
            mask = flags == g
            c[mask] = np.clip(c[mask], lo, hi)
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "w": pa.array(c, pa.int64()),
        })

    clipped = ds.map_batches(clamp, batch_format="pyarrow",
                             zero_copy_batch=True)
    return grouped_agg(clipped, ["l_returnflag"],
                       [(None, "count", "n"), ("w", "sum", "winsorized_cents")])


@register(
    "q_price_histogram",
    sql="""
    WITH cents AS (
      SELECT l_returnflag,
             CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS c
      FROM lineitem
    ), s AS (SELECT min(c) AS lo, max(c) AS hi FROM cents)
    SELECT l_returnflag,
           CAST(LEAST((c - lo) * 20 // (hi - lo + 1), 19) AS BIGINT) AS bin,
           count(*) AS n
    FROM cents, s GROUP BY l_returnflag, bin
    """,
)
def q_price_histogram(sf_dir: str, bins: int = 20):
    """Equi-width histogram per group (the dashboard / distribution-shift
    primitive): 20 bins over the GLOBAL price range, counted per return
    flag.

    Two passes, both bounded: a global min/max aggregate (two ints), then
    a combiner count over (flag, bin) — merged state is groups x bins at
    any corpus size.  Bin math is pure integer arithmetic
    ((c - lo) * bins // (hi - lo + 1)), identical in both engines."""
    li = t(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "c": to_units(b.column("l_extendedprice"), 100),
        })

    cents = li.map_batches(prep, batch_format="pyarrow",
                           zero_copy_batch=True).materialize()
    span = grouped_agg(cents, [], [("c", "min", "lo"),
                                   ("c", "max", "hi")]).to_pylist()[0]
    lo, hi = int(span["lo"]), int(span["hi"])
    width_den = hi - lo + 1

    def to_bin(b: pa.Table) -> pa.Table:
        c = np.asarray(b.column("c"), np.int64)
        bin_ = np.minimum((c - lo) * bins // width_den, bins - 1)
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "bin": pa.array(bin_, pa.int64()),
        })

    binned = cents.map_batches(to_bin, batch_format="pyarrow",
                               zero_copy_batch=True)
    return grouped_agg(binned, ["l_returnflag", "bin"],
                       [(None, "count", "n")])


@register(
    "q_data_quality_audit",
    sql="""
    SELECT 'rows' AS chk, count(*) AS v FROM orders
    UNION ALL SELECT 'null_custkey',
        count(*) FILTER (WHERE o_custkey IS NULL) FROM orders
    UNION ALL SELECT 'null_orderdate',
        count(*) FILTER (WHERE o_orderdate IS NULL) FROM orders
    UNION ALL SELECT 'negative_totalprice',
        count(*) FILTER (WHERE o_totalprice < 0) FROM orders
    UNION ALL SELECT 'duplicate_orderkeys',
        count(*) - count(DISTINCT o_orderkey) FROM orders
    """,
)
def q_data_quality_audit(sf_dir: str):
    """Data-quality audit (the validation stage every ingest pipeline runs
    before training): row count, per-column null counts, range violations,
    and key-uniqueness violations as one (chk, v) metric table.

    Scalar checks are ONE combiner pass (per-batch is_null / comparison
    sums -> a one-row merge).  Uniqueness is the only check that needs the
    key space: distinct count via per-batch-distinct partials and one
    distinct-keys merge kept as a Dataset (the q_count_distinct_users
    plan), so the query only reads the merged keys' count."""
    orders = t(sf_dir, "orders",
               ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        return pa.table({
            "rows": pa.array([b.num_rows], pa.int64()),
            "null_custkey": pa.array(
                [pc.sum(pc.cast(pc.is_null(b.column("o_custkey")),
                                pa.int64())).as_py() or 0], pa.int64()),
            "null_orderdate": pa.array(
                [pc.sum(pc.cast(pc.is_null(b.column("o_orderdate")),
                                pa.int64())).as_py() or 0], pa.int64()),
            "negative_totalprice": pa.array(
                [pc.sum(pc.cast(pc.fill_null(pc.less(
                    b.column("o_totalprice"), 0.0), False),
                    pa.int64())).as_py() or 0], pa.int64()),
            "one": pa.array([1], pa.int8()),
        })

    merged = grouped_agg(
        orders.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True),
        ["one"],
        [("rows", "sum", "rows"),
         ("null_custkey", "sum", "null_custkey"),
         ("null_orderdate", "sum", "null_orderdate"),
         ("negative_totalprice", "sum", "negative_totalprice")])
    n_rows = int(merged.column("rows")[0].as_py())

    # exact distinct keys: per-batch distinct partials, then one merge of
    # the distinct keys — the query keeps only their count
    distinct_keys = grouped_agg(
        orders.select_columns(["o_orderkey"]), ["o_orderkey"], [],
        as_dataset=True).count()

    checks = [
        ("rows", n_rows),
        ("null_custkey", int(merged.column("null_custkey")[0].as_py())),
        ("null_orderdate", int(merged.column("null_orderdate")[0].as_py())),
        ("negative_totalprice",
         int(merged.column("negative_totalprice")[0].as_py())),
        ("duplicate_orderkeys", n_rows - int(distinct_keys)),
    ]
    return pa.table({
        "chk": pa.array([c for c, _ in checks], pa.string()),
        "v": pa.array([v for _, v in checks], pa.int64()),
    })


def _dist_is_1(a: str, b: str) -> bool:
    """Exact Levenshtein == 1 (substitution or single indel — NO
    transposition, matching SQL levenshtein semantics)."""
    la, lb = len(a), len(b)
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if abs(la - lb) != 1:
        return False
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # a is shorter: b minus one char == a
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


@register(
    "q_fuzzy_name_pairs",
    sql="""
    SELECT a.c_custkey AS custkey_a, b.c_custkey AS custkey_b
    FROM customer a, customer b
    WHERE a.c_custkey < b.c_custkey
      AND levenshtein(a.c_name, b.c_name) = 1
    """,
)
def q_fuzzy_name_pairs(sf_dir: str):
    """Fuzzy string self-join: all customer pairs whose names are exactly
    one edit apart — the entity-resolution / near-duplicate-record shape.

    The quadratic cross join collapses with SymSpell delete-variant
    blocking (public knowledge): every name emits itself plus its len(s)
    single-deletion variants as blocking keys; any two strings within
    edit distance 1 share at least one key, so candidate pairs live
    inside tiny key buckets (names identical except one position).  One
    hash exchange on the key generates and VERIFIES pairs in place —
    names ride with the band rows, so no join, no broadcast; exactness
    comes from the in-bucket Levenshtein==1 check.  Pairs found via
    several keys dedup through the usual combiner."""
    cust = t(sf_dir, "customer", ["c_custkey", "c_name"])

    def block(b: pa.Table) -> pa.Table:
        ids_in = b.column("c_custkey").to_pylist()
        names_in = b.column("c_name").to_pylist()
        ids, names, keys = [], [], []
        for cid, name in zip(ids_in, names_in):
            if name is None:
                continue  # levenshtein(NULL, x) is NULL: no pair
            variants = [name] + [name[:i] + name[i + 1:]
                                 for i in range(len(name))]
            ids.extend([cid] * len(variants))
            names.extend([name] * len(variants))
            keys.extend(variants)
        return pa.table({
            "c_custkey": pa.array(ids, pa.int64()),
            "c_name": pa.array(names, pa.string()),
            "key": pa.array(keys, pa.string()),
        })

    blocked = cust.map_batches(block, batch_format="pyarrow",
                               zero_copy_batch=True)

    def part_pairs(rows: pa.Table) -> pa.Table:
        rows = rows.take(pc.sort_indices(
            rows, [("key", "ascending"), ("c_custkey", "ascending")]))
        # a customer once per key ("aa" emits "a" twice), ids ascending
        rows = rows.filter(run_starts(rows, ["key", "c_custkey"]))
        rows, cuts = shared_runs(rows, ["key"])
        ids = rows.column("c_custkey").to_pylist()
        names = rows.column("c_name").to_pylist()
        out_a, out_b = [], []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            for i in range(lo, hi):
                for j in range(i + 1, hi):
                    if _dist_is_1(names[i], names[j]):
                        out_a.append(ids[i])
                        out_b.append(ids[j])
        return pa.table({"custkey_a": pa.array(out_a, pa.int64()),
                         "custkey_b": pa.array(out_b, pa.int64())})

    pairs = exchange(blocked, ["key"], part_pairs)
    deduped = grouped_agg(pairs, ["custkey_a", "custkey_b"],
                          [(None, "count", "c")])
    return deduped.select(["custkey_a", "custkey_b"])


@register(
    "q_partition_pruned_read",
    sql="""
    SELECT user_id, count(*) AS n,
           CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
               AS value_cents
    FROM events WHERE event_type = 'click' GROUP BY user_id
    """,
)
def q_partition_pruned_read(sf_dir: str):
    """Hive-partitioned layout + prune-at-read (B1/B16): the events table
    is written ONCE per run partitioned by event_type
    (``write_parquet(partition_cols=...)`` — one directory per value, the
    resumable-output layout the brief mandates), and the query then reads
    ONLY the ``event_type=click`` directory — the other four partitions
    never leave storage.  At 100 TB this is the difference between
    scanning a fifth of the table and all of it."""
    import os
    import shutil

    root = os.path.join("/tmp/opr_part_events",
                        os.path.basename(os.path.normpath(sf_dir)))
    marker = os.path.join(root, "_done")
    fp = fingerprint_files([f"{sf_dir}/events.parquet"])
    if _stale(marker, fp):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root, exist_ok=True)
        t(sf_dir, "events", ["event_type", "user_id", "value"]) \
            .write_parquet(os.path.join(root, "events"),
                           partition_cols=["event_type"])
        with open(marker, "w") as f:
            f.write(fp)

    ds = read_parquet(
        os.path.join(root, "events", "event_type=click"),
        columns=["user_id", "value"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b.column("user_id"),
            "cents": to_units(pc.cast(b.column("value"), pa.float64()), 100),
        })

    return grouped_agg(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"], [(None, "count", "n"), ("cents", "sum", "value_cents")])


@register("q_approx_overlap_users")  # sketch estimate: rows-only check
def q_approx_overlap_users(sf_dir: str):
    """Approximate audience-overlap via HLL inclusion-exclusion: the
    estimated number of users who BOTH clicked and purchased, from three
    4 KiB mergeable sketches (|A∩B| ≈ |A| + |B| - |A∪B|, where the union
    sketch is the elementwise max of the two) — the classic no-shuffle
    plan for set overlap across corpus-sized key sets.  Exact overlap for
    the same inputs is the semi-join plan; the test pins the estimate
    within HLL error of exact."""
    which = pa.array(["click", "purchase"])
    ds = t(sf_dir, "events", ["event_type", "user_id"]).map_batches(
        lambda b: b.filter(pc.is_in(b.column("event_type"), value_set=which)),
        batch_format="pyarrow", zero_copy_batch=True)
    merged = grouped_sketch(ds, "event_type", _hll_users, hll.merge)
    click, purchase = (merged.get(et, hll.empty_registers())
                       for et in ("click", "purchase"))
    est_a = hll.estimate(click)
    est_b = hll.estimate(purchase)
    est_u = hll.estimate(hll.merge(click, purchase))
    return pa.table({
        "clicked_est": pa.array([int(round(est_a))], pa.int64()),
        "purchased_est": pa.array([int(round(est_b))], pa.int64()),
        "overlap_est": pa.array([int(round(est_a + est_b - est_u))],
                                pa.int64()),
    })


@register(
    "q_ordered_customers",
    sql="""
    SELECT c_custkey, c_name,
           CAST(row_number() OVER (ORDER BY c_name) AS BIGINT) AS pos
    FROM customer
    """,
)
def q_ordered_customers(sf_dir: str):
    """Global sort on a STRING key (B9+): every customer ranked by name —
    the same sample-based range-partitioned plan as q_ordered_orders, with
    string range boundaries (codepoint comparisons match SQL binary
    collation) and the unique name itself as the key."""
    from ocr_proofreader_ray.ops.sort import global_sort_position

    cust = t(sf_dir, "customer", ["c_custkey", "c_name"])
    return global_sort_position(cust, "c_name", position_name="pos")


@register(
    "q_price_mad",
    sql="""
    WITH cents AS (
      SELECT l_returnflag,
             CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS c
      FROM lineitem
    ), med AS (
      SELECT l_returnflag, quantile_disc(c, 0.5) AS median_cents
      FROM cents GROUP BY l_returnflag
    )
    SELECT cents.l_returnflag, median_cents,
           quantile_disc(abs(c - median_cents), 0.5) AS mad_cents
    FROM cents JOIN med USING (l_returnflag)
    GROUP BY cents.l_returnflag, median_cents
    """,
)
def q_price_mad(sf_dir: str):
    """Median absolute deviation per group — the robust dispersion
    statistic (median of |x - median|), exact at any scale via TWO
    ``grouped_kth_smallest`` passes: the group medians broadcast (a few
    ints), rows stream through one |x - med| map, and the second
    selection runs over the derived values.  quantile_disc rank
    semantics (ceil(n*q)) on both engines; integer cents end-to-end."""
    from ocr_proofreader_ray.ops.selection import grouped_kth_smallest

    li = t(sf_dir, "lineitem", ["l_returnflag", "l_extendedprice"])

    def prep(b: pa.Table) -> pa.Table:
        # the SQL join USING (l_returnflag) drops null flags
        b = b.filter(pc.is_valid(b.column("l_returnflag")))
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "c": to_units(b.column("l_extendedprice"), 100),
        })

    ds = li.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True).materialize()
    def median_rank(n: int) -> list[int]:
        return [-(-n * 50 // 100)]

    med = {g: int(v[0])
           for g, (_n, v) in grouped_kth_smallest(ds, "l_returnflag", "c",
                                                  median_rank).items()}
    mref = ray.put(med)

    def abs_dev(b: pa.Table) -> pa.Table:
        m = ray.get(mref)
        flags = b.column("l_returnflag").to_numpy()
        c = np.asarray(b.column("c"), np.int64).copy()
        for g, mv in m.items():
            mask = flags == g
            c[mask] = np.abs(c[mask] - mv)
        return pa.table({"l_returnflag": b.column("l_returnflag"),
                         "d": pa.array(c, pa.int64())})

    dev = ds.map_batches(abs_dev, batch_format="pyarrow",
                         zero_copy_batch=True).materialize()
    mad = grouped_kth_smallest(dev, "l_returnflag", "d", median_rank)
    flags = sorted(med)
    return pa.table({
        "l_returnflag": pa.array(flags, pa.string()),
        "median_cents": pa.array([med[f] for f in flags], pa.int64()),
        "mad_cents": pa.array([int(mad[f][1][0]) for f in flags], pa.int64()),
    })


@register(
    "q_funnel_users",
    sql="""
    SELECT count(*) AS n_funnel_users FROM (
      SELECT user_id FROM events GROUP BY user_id
      HAVING min(CASE WHEN event_type = 'click' THEN ts END)
           < max(CASE WHEN event_type = 'purchase' THEN ts END))
    """,
)
def q_funnel_users(sf_dir: str):
    """Funnel analysis: users whose first click precedes their last
    purchase (click -> purchase conversion).  Conditional aggregates as
    masked columns (null outside the event type; pyarrow min/max skip
    nulls), merged per user through the combiner into a Dataset — only
    (user, two timestamps) partial rows merge — then a streaming
    comparison filter and a metadata count.  Null comparisons (users
    missing either event) drop in the filter, matching SQL HAVING."""
    ev = t(sf_dir, "events", ["user_id", "event_type", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        et = b.column("event_type")
        ts = pc.cast(b.column("ts"), pa.timestamp("us"))
        return pa.table({
            "user_id": b.column("user_id"),
            "click_ts": pc.if_else(pc.equal(et, "click"), ts,
                                   pa.nulls(b.num_rows, pa.timestamp("us"))),
            "purch_ts": pc.if_else(pc.equal(et, "purchase"), ts,
                                   pa.nulls(b.num_rows, pa.timestamp("us"))),
        })

    merged = grouped_agg(
        ev.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id"],
        [("click_ts", "min", "first_click"),
         ("purch_ts", "max", "last_purchase")], as_dataset=True)

    def keep_converted(b: pa.Table) -> pa.Table:
        mask = pc.fill_null(pc.less(b.column("first_click"),
                                    b.column("last_purchase")), False)
        return b.filter(mask)

    n = merged.map_batches(keep_converted, batch_format="pyarrow",
                           zero_copy_batch=True).count()
    return pa.table({"n_funnel_users": pa.array([n], pa.int64())})


@register(
    "q_retention_cohorts",
    sql="""
    WITH first_day AS (
      SELECT user_id, min(date_trunc('day', ts)) AS cohort
      FROM events GROUP BY user_id
    ), activity AS (
      SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events
    )
    SELECT cohort, day, count(*) AS n_active
    FROM activity JOIN first_day USING (user_id)
    GROUP BY cohort, day
    """,
)
def q_retention_cohorts(sf_dir: str):
    """Retention cohort matrix: users bucketed by their first-seen day,
    counted on every day they were active — the standard growth-analytics
    artifact, composed from three primitives:

    1. cohort assignment: per-user min activity day (combiner partials,
       kept a Dataset — user cardinality is corpus-sized);
    2. distinct (user, day) activity via the same machinery;
    3. both sides meet on user through ``ops.join.join`` (the cohort side
       broadcasts under the driver bound, both sides hash-exchange above
       it), and the (cohort, day) count that follows is a days²-bounded
       combiner.
    Above the driver bound the driver only ever sees the final matrix."""
    ev = t(sf_dir, "events", ["user_id", "ts"])

    def day_col(b: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": b.column("user_id"),
            "day": pc.floor_temporal(
                pc.cast(b.column("ts"), pa.timestamp("us")), unit="day"),
        })

    days = ev.map_batches(day_col, batch_format="pyarrow",
                          zero_copy_batch=True).materialize()
    first_day = grouped_agg(days, ["user_id"], [("day", "min", "cohort")],
                            as_dataset=True)
    activity = grouped_agg(days, ["user_id", "day"], [], as_dataset=True)
    activity = activity.map_batches(
        lambda b: b.rename_columns(["uid", "day"]),
        batch_format="pyarrow", zero_copy_batch=True)
    joined = join(activity, first_day, ["uid"], ["user_id"])
    return grouped_agg(joined, ["cohort", "day"],
                       [(None, "count", "n_active")])


@register(
    "q_minmax_scaled",
    sql="""
    WITH cents AS (
      SELECT l_orderkey, l_linenumber, l_returnflag,
             CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS c
      FROM lineitem
    ), s AS (
      SELECT l_returnflag, min(c) AS lo, max(c) AS hi
      FROM cents GROUP BY l_returnflag
    )
    SELECT l_orderkey, l_linenumber, cents.l_returnflag,
           CAST(c - lo AS DOUBLE) / (hi - lo) AS scaled
    FROM cents JOIN s USING (l_returnflag)
    """,
)
def q_minmax_scaled(sf_dir: str):
    """Per-group min-max feature scaling (the standard [0,1] normalizer):
    one bounded combiner computes each group's exact-integer (min, max),
    broadcasts them, and every row streams through one vectorized
    (c - lo) / (hi - lo) — both operands exact ints, so the float division
    is the identical IEEE operation in both engines and the row-level
    output hash-matches the SQL oracle.  No shuffle, no sort."""
    li = t(sf_dir, "lineitem",
           ["l_orderkey", "l_linenumber", "l_returnflag", "l_extendedprice"])

    def prep(b: pa.Table) -> pa.Table:
        # the SQL join USING (l_returnflag) drops null flags
        b = b.filter(pc.is_valid(b.column("l_returnflag")))
        return pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "l_linenumber": b.column("l_linenumber"),
            "l_returnflag": b.column("l_returnflag"),
            "c": to_units(b.column("l_extendedprice"), 100),
        })

    ds = li.map_batches(prep, batch_format="pyarrow",
                        zero_copy_batch=True).materialize()
    span = grouped_agg(ds, ["l_returnflag"],
                       [("c", "min", "lo"), ("c", "max", "hi")])
    ref = ray.put({g: (int(lo), int(hi)) for g, lo, hi in
                   zip(span.column("l_returnflag").to_pylist(),
                       span.column("lo").to_pylist(),
                       span.column("hi").to_pylist())})

    def scale(b: pa.Table) -> pa.Table:
        m = ray.get(ref)
        flags = b.column("l_returnflag").to_numpy()
        c = np.asarray(b.column("c"), np.int64)
        scaled = np.empty(len(c), np.float64)
        for g, (lo, hi) in m.items():
            mask = flags == g
            scaled[mask] = (c[mask] - lo).astype(np.float64) / (hi - lo)
        return b.drop_columns(["c"]).append_column(
            "scaled", pa.array(scaled, pa.float64()))

    return ds.map_batches(scale, batch_format="pyarrow", zero_copy_batch=True)
