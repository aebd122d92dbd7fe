"""The one exchange (``ops/exchange.py``): every key's rows meet in one
call, on awkward keys too, and with range routing every key range does;
``grouped_agg``'s exchange merge built on it equals the driver merge; and
no other module partitions rows."""

import ast
import datetime
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from fixtures.gen_golden_queries import SF_DIR

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(REPO, "ocr_proofreader_ray")

# key columns + payload; several rows per key, nulls and non-ASCII keys
_KEY_CASES = {
    "int_with_nulls": (["k"], pa.table({
        "k": pa.array([1, None, 3, 1, None, 7, 3, 2**40, -5, -5], pa.int64()),
        "v": pa.array(range(10), pa.int64()),
    })),
    "string_multibyte_and_null": (["k"], pa.table({
        "k": pa.array(["é", None, "日本", "é", "ß", None, "😀", "e", "日本",
                       "ß"]),
        "v": pa.array(range(10), pa.int64()),
    })),
    "two_columns": (["a", "b"], pa.table({
        "a": pa.array(["x", "x", None, "y", None, "x", "y", "y", None, "x"]),
        "b": pa.array([1, 2, 1, None, 1, 1, None, 2, None, 2], pa.int32()),
        "v": pa.array(range(10), pa.int64()),
    })),
}


def _blocks(tab: pa.Table, n: int = 3):
    import ray.data

    step = -(-tab.num_rows // n)
    return ray.data.from_arrow(
        [tab.slice(i, step) for i in range(0, tab.num_rows, step)])


def _key_tuples(tab: pa.Table, keys: list[str]) -> list[tuple]:
    return list(zip(*(tab.column(k).to_pylist() for k in keys)))


@pytest.mark.parametrize("case", sorted(_KEY_CASES))
def test_exchange_routes_each_key_to_one_call(ray_session, case):
    import uuid

    from ocr_proofreader_ray.ops.agg import gather
    from ocr_proofreader_ray.ops.exchange import exchange

    keys, tab = _KEY_CASES[case]

    def fn(rows: pa.Table) -> pa.Table:
        n = rows.num_rows
        return rows.append_column(
            "call", pa.array([uuid.uuid4().hex] * n)).append_column(
            "seen", pa.array([",".join(rows.column_names)] * n))

    out = gather(exchange(_blocks(tab), keys, fn))
    # fn saw ds's own columns, never the partition column
    assert set(out.column("seen").to_pylist()) == {",".join(tab.column_names)}
    calls: dict = {}
    for key, call in zip(_key_tuples(out, keys), out.column("call").to_pylist()):
        calls.setdefault(key, set()).add(call)
    assert all(len(c) == 1 for c in calls.values()), calls
    assert len(set.union(*calls.values())) > 1  # rows spread over partitions
    # together the calls saw exactly the input rows
    got = out.select(tab.column_names).sort_by("v")
    assert got.to_pylist() == tab.sort_by("v").to_pylist()


@pytest.mark.parametrize("keys,bounds", [
    ([9, -4, 0, 7, 3, 3, 12, -4, 5, 1],
     np.array([0, 3, 10], np.int64)),
    (["é", "日本", "e", "ß", "😀", "a", "日本", "zz", "é", "b"],
     np.array(["b", "ß", "日本"], dtype=object)),
], ids=["int", "string_multibyte"])
def test_range_exchange_routes_each_range_to_one_call(ray_session, keys,
                                                      bounds):
    """With ``bounds``, partition i holds exactly the keys in
    [bounds[i-1], bounds[i]) — one call per nonempty range."""
    import uuid

    from ocr_proofreader_ray.ops.agg import gather
    from ocr_proofreader_ray.ops.exchange import exchange

    tab = pa.table({"k": keys, "v": pa.array(range(len(keys)), pa.int64())})

    def fn(rows: pa.Table) -> pa.Table:
        return rows.append_column(
            "call", pa.array([uuid.uuid4().hex] * rows.num_rows))

    out = gather(exchange(_blocks(tab), ["k"], fn, bounds=bounds))
    want = np.searchsorted(bounds, np.array(keys, dtype=object), "right")
    ranges: dict = {}
    for v, call in zip(out.column("v").to_pylist(),
                       out.column("call").to_pylist()):
        ranges.setdefault(call, set()).add(int(want[v]))
    assert all(len(r) == 1 for r in ranges.values()), ranges
    assert len(ranges) == len(set(want.tolist()))
    got = out.select(tab.column_names).sort_by("v")
    assert got.to_pylist() == tab.to_pylist()


def test_exchange_rejects_reserved_partition_column(ray_session):
    import ray.data

    from ocr_proofreader_ray.ops.exchange import exchange

    ds = ray.data.from_arrow(pa.table({"k": [1], "__part": [0]}))
    with pytest.raises(Exception, match="__part"):
        exchange(ds, ["k"], lambda rows: rows).materialize()


@pytest.mark.parametrize("case", sorted(_KEY_CASES))
def test_co_exchange_meets_both_sides_with_typed_empty_sides(ray_session,
                                                             case):
    from ocr_proofreader_ray.ops.agg import gather
    from ocr_proofreader_ray.ops.exchange import co_exchange

    keys, tab = _KEY_CASES[case]
    # the right side holds only some keys, under other column names and
    # one shared non-key name with another type
    rkeys = [f"r_{k}" for k in keys]
    right = tab.slice(0, 4).rename_columns(rkeys + ["v"])
    right = right.set_column(right.num_columns - 1, "v",
                             pc.cast(right.column("v"), pa.float64()))

    def fn(lrows: pa.Table, rrows: pa.Table) -> pa.Table:
        # runs in a worker: module-level helpers of this file don't resolve
        assert lrows.schema == tab.schema
        assert rrows.schema == right.schema
        lk = set(zip(*(lrows.column(k).to_pylist() for k in keys)))
        rk = set(zip(*(rrows.column(k).to_pylist() for k in rkeys)))
        return pa.table({
            "n_left": [lrows.num_rows], "n_right": [rrows.num_rows],
            "left_keys": [json.dumps(sorted(lk, key=repr))],
            "right_keys": [json.dumps(sorted(rk, key=repr))],
        })

    out = gather(
        co_exchange(_blocks(tab), _blocks(right, 2), keys, rkeys, fn))
    assert sum(out.column("n_left").to_pylist()) == tab.num_rows
    assert sum(out.column("n_right").to_pylist()) == right.num_rows
    # a right key's partition holds that key's left rows too
    for lk, rk in zip(out.column("left_keys").to_pylist(),
                      out.column("right_keys").to_pylist()):
        assert ({tuple(k) for k in json.loads(rk)}
                <= {tuple(k) for k in json.loads(lk)})
    # some partition got left rows only: its right side arrived empty,
    # typed (fn checked the schema)
    assert 0 in out.column("n_right").to_pylist()


# ---------------------------------------------------------------------------
# grouped_agg: the exchange merge equals the driver merge
# ---------------------------------------------------------------------------

_DAY = datetime.datetime(2024, 3, 1)
_AGG_CASES = {
    "null_string_key": (["k"], [("v", "sum", "s"), (None, "count", "n")],
                        pa.table({
                            "k": pa.array(["a", None, "b", None, "a", "c"]),
                            "v": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
                        })),
    "multibyte_utf8_keys": (["k"], [("v", "max", "mx"), ("v", "min", "mn")],
                            pa.table({
                                "k": pa.array(["é", "日本", "ß", "é", "😀",
                                               "日本", "e", "ß"]),
                                "v": pa.array([5, 1, 2, 7, 3, 8, 0, 4],
                                              pa.int64()),
                            })),
    "two_column_key_with_nulls": (
        ["a", "b"], [("v", "sum", "s")],
        pa.table({
            "a": pa.array(["x", None, "x", None, "y", "x"]),
            "b": pa.array([1, 1, None, None, 2, 1], pa.int64()),
            "v": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
        })),
    "whole_second_timestamp_us": (
        ["day"], [("ts", "min", "first"), (None, "count", "n")],
        pa.table({
            "day": pa.array([_DAY, _DAY, _DAY + datetime.timedelta(days=1)],
                            pa.timestamp("us")),
            "ts": pa.array([_DAY + datetime.timedelta(hours=5),
                            _DAY + datetime.timedelta(seconds=9),
                            _DAY + datetime.timedelta(days=1, minutes=3)],
                           pa.timestamp("us")),
        })),
    "empty_input": (["k"], [("v", "sum", "s"), (None, "count", "n")],
                    pa.table({"k": pa.array([], pa.string()),
                              "v": pa.array([], pa.int64())})),
}


@pytest.mark.parametrize("case", sorted(_AGG_CASES))
def test_grouped_agg_distributed_final_equals_driver(ray_session, monkeypatch,
                                                      case):
    import ray.data

    from ocr_proofreader_ray.ops import agg
    from ocr_proofreader_ray.ops.agg import gather, grouped_agg

    keys, aggs, tab = _AGG_CASES[case]
    ds = _blocks(tab) if tab.num_rows else ray.data.from_arrow(tab)
    want = grouped_agg(ds, keys, aggs)
    # bound 0: any partial row takes the exchange merge
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    got = gather(grouped_agg(ds, keys, aggs, as_dataset=True))
    if not want.num_rows:
        assert got is None
        return
    assert got.schema == want.schema
    order = [(c, "ascending") for c in keys]
    assert got.sort_by(order).to_pylist() == want.sort_by(order).to_pylist()


# ---------------------------------------------------------------------------
# guard: rows are partitioned only in ops/exchange.py
# ---------------------------------------------------------------------------

# the one exchange (hash and range routing); everything else partitions
# through it
_MAP_GROUPS_ALLOWED = {
    ("ops/exchange.py", None),
}


def _map_groups_calls():
    """(module path, top-level function) of every ``.map_groups(`` call
    under the package."""
    for root, _dirs, files in os.walk(PKG):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, PKG).replace(os.sep, "/")
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for top in tree.body:
                for node in ast.walk(top):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "map_groups"):
                        yield rel, getattr(top, "name", None)


def test_rows_are_partitioned_only_through_ops_exchange():
    calls = list(_map_groups_calls())
    assert calls  # the walk found the package's own exchanges
    stray = [(rel, fn) for rel, fn in calls
             if (rel, None) not in _MAP_GROUPS_ALLOWED
             and (rel, fn) not in _MAP_GROUPS_ALLOWED]
    assert not stray, (
        f"map_groups outside ops/exchange.py: {stray} — partition rows "
        "with ops.exchange.exchange / co_exchange")


def test_grouped_agg_forms_share_typed_schema_on_empty_input(ray_session):
    """An empty input still yields the typed result schema in both result
    contracts (a Dataset with ``schema() is None`` leaves a downstream
    ``select_columns`` nothing to work from)."""
    import ray.data

    from ocr_proofreader_ray.ops.agg import grouped_agg

    keys, aggs, tab = _AGG_CASES["empty_input"]
    want = grouped_agg(ray.data.from_arrow(tab), keys, aggs)
    got = grouped_agg(ray.data.from_arrow(tab), keys, aggs, as_dataset=True)
    assert want.num_rows == 0 and got.count() == 0
    assert want.schema == pa.schema([("k", pa.string()), ("s", pa.int64()),
                                     ("n", pa.int64())])
    assert got.schema().base_schema == want.schema


def test_agg_does_not_import_ray_aggregates():
    """No module of the package imports Ray's sort-based aggregates: every
    grouped aggregate runs through ``ops.agg``."""
    modules = set()
    for root, _dirs, files in os.walk(PKG):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    modules.add(node.module)
                elif isinstance(node, ast.Import):
                    modules.update(a.name for a in node.names)
    assert not {m for m in modules if m and m.startswith("ray.data.aggregate")}


def test_num_partitions_sized_from_source_bytes(ray_session, monkeypatch):
    """A read→map plan is sized by its Read's byte estimate and a
    materialized input by its block bytes (``Dataset.input_files()`` is
    empty for both, so neither may fall back to the fixed guess), and the
    exchange's result does not depend on the partition count."""
    import math

    from ocr_proofreader_ray.ops import exchange as ex
    from ocr_proofreader_ray.ops.agg import gather
    from ocr_proofreader_ray.pipelines.relational import t

    read = t(SF_DIR, "lineitem", ["l_orderkey", "l_quantity"])
    mapped = read.map_batches(lambda b: b, batch_format="pyarrow")
    mat = mapped.materialize()
    assert mapped.input_files() == [] and mat.input_files() == []

    def sums(ds):
        out = gather(ex.exchange(
            ds, ["l_orderkey"], lambda rows: rows.group_by("l_orderkey")
            .aggregate([("l_quantity", "sum")])))
        return sorted(zip(*out.to_pydict().values()))

    want = sums(mapped)
    budget = max(1, read.size_bytes() // 40)
    monkeypatch.setattr(ex, "_JOIN_PARTITION_INPUT_BYTES", budget)
    assert ex.num_partitions(mapped) == math.ceil(read.size_bytes() / budget)
    assert ex.num_partitions(mat) == math.ceil(mat.size_bytes() / budget)
    assert ex.num_partitions(mapped, mat) == math.ceil(
        (read.size_bytes() + mat.size_bytes()) / budget)
    assert ex.num_partitions(mapped) > 8
    assert sums(mapped) == sums(mat) == want


def test_exchanges_run_no_limit_probe(ray_session, monkeypatch):
    """The joins read each side's schema without a ``limit=1`` execution:
    a side whose schema Ray cannot infer is materialized once and feeds
    the exchange, so no executed DAG holds a Limit operator, and the
    materialization costs no more executions than the probe did."""
    from ray.data._internal.execution.operators.limit_operator import (
        LimitOperator,
    )
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    from ocr_proofreader_ray.pipelines.registry import all_queries

    runs = []
    real = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        ops, limits = [dag], 0
        while ops:
            op = ops.pop()
            limits += isinstance(op, LimitOperator)
            ops.extend(op.input_dependencies)
        runs.append(limits)
        return real(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    queries = all_queries()
    # executions per query while shuffle_join still probed schemas (one
    # Limit DAG each)
    for name, before in [("q_urgent_order_revenue", 4),
                         ("q_customer_orders_outer", 2)]:
        runs.clear()
        out = queries[name](SF_DIR)
        if not isinstance(out, pa.Table):
            out.to_pandas()
        assert runs and not any(runs), (name, runs)
        assert len(runs) <= before, (name, len(runs))
