"""Query code names no join plan: every join goes through ``ops.join.join``
or ``ops.join.semi_anti``, which size what they would broadcast, and a
materialized right side that several joins read is gathered and put once."""

import ast
import gc
import os
import weakref

import pyarrow as pa

from fixtures.gen_golden_queries import SF_DIR as SF

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "ocr_proofreader_ray")

# plan-naming join functions; pipeline modules call none of them except the
# salted query, whose salted exchange is the thing it exists to check
_PLAN_CALLS = {"join_table", "broadcast_join", "shuffle_join",
               "shuffle_semi_anti"}
_PLAN_CALLS_ALLOWED = {
    ("relational.py", "q_order_priority_revenue_salted", "shuffle_join"),
}


def _plan_calls():
    """(module, top-level function, callee) of every plan-naming join call
    under ``pipelines/``."""
    root = os.path.join(PKG, "pipelines")
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                fn = node.func
                callee = (fn.id if isinstance(fn, ast.Name)
                          else fn.attr if isinstance(fn, ast.Attribute)
                          else None)
                if callee in _PLAN_CALLS:
                    yield name, getattr(top, "name", None), callee


def test_pipelines_name_no_join_plan():
    assert set(_plan_calls()) == _PLAN_CALLS_ALLOWED


def _count_puts(monkeypatch, column: str) -> list:
    """Rows of every Arrow table holding ``column`` that goes to
    ``ray.put`` from now on."""
    import ray

    puts = []
    real = ray.put

    def put(value, *args, **kwargs):
        if isinstance(value, pa.Table) and column in value.column_names:
            puts.append(value.num_rows)
        return real(value, *args, **kwargs)

    monkeypatch.setattr(ray, "put", put)
    return puts


def test_minhash_verification_ships_its_set_table_once(ray_session,
                                                       monkeypatch):
    """``_verify_pairs`` joins one set table on doc_a and then on doc_b:
    it is gathered and put once per verification, not once per join."""
    import ocr_proofreader_ray.ops.join as j
    import ocr_proofreader_ray.pipelines.dedup as dedup

    puts = _count_puts(monkeypatch, "els")
    gathers = []
    real_gather = j.gather

    def gather(ds):
        rows = real_gather(ds)
        if rows is not None and "els" in rows.column_names:
            gathers.append(rows.num_rows)
        return rows

    monkeypatch.setattr(j, "gather", gather)
    out = dedup.q_dedup_minhash(SF)
    rows = out.num_rows if isinstance(out, pa.Table) else out.count()
    assert rows > 0
    assert len(puts) == 1 and puts[0] > 0
    assert gathers == puts


def test_broadcast_memo_dies_with_its_dataset(ray_session, monkeypatch):
    import ray

    import ocr_proofreader_ray.ops.join as j

    left = ray.data.from_arrow(pa.table({"k": [1, 2, 3], "v": [10, 20, 30]}))
    right = ray.data.from_arrow(
        pa.table({"rk": [1, 3, 4], "w": ["a", "c", "d"]})).materialize()
    puts = _count_puts(monkeypatch, "w")
    inner = j.join(left, right, ["k"], ["rk"])
    outer = j.join(left, right, ["k"], ["rk"], join_type="left outer")
    assert puts == [3]
    assert right in j._BROADCAST_REFS
    assert sorted(inner.to_pandas()["w"]) == ["a", "c"]
    assert sorted(outer.to_pandas()["w"].fillna("-")) == ["-", "a", "c"]

    n = len(j._BROADCAST_REFS)
    alive = weakref.ref(right)
    del right
    gc.collect()
    assert alive() is None
    assert len(j._BROADCAST_REFS) == n - 1


def test_latest_event_gathers_nothing_above_the_bounds(ray_session,
                                                       all_exchange,
                                                       monkeypatch):
    """With every bound at 0 the per-user head merges inside a hash
    exchange, so no key-sized lookup reaches the driver."""
    import ocr_proofreader_ray.ops.agg as agg
    import ocr_proofreader_ray.ops.join as j
    import ocr_proofreader_ray.pipelines.relational as rel

    calls = []

    def refuse(ds):
        calls.append(ds)

    monkeypatch.setattr(agg, "gather", refuse)
    monkeypatch.setattr(j, "gather", refuse)
    df = rel.q_latest_event(SF).to_pandas()
    assert calls == []
    assert len(df) > 0 and df["user_id"].is_unique


def test_urgent_order_revenue_gathers_its_orders_once(ray_session,
                                                      monkeypatch):
    """Under the bound the filtered orders reach the driver once, for the
    broadcast join; no key prefilter gathers them a second time."""
    import ocr_proofreader_ray.ops.join as j
    import ocr_proofreader_ray.pipelines.relational as rel

    gathers = []
    real_gather = j.gather

    def gather(ds):
        rows = real_gather(ds)
        gathers.append(0 if rows is None else rows.num_rows)
        return rows

    monkeypatch.setattr(j, "gather", gather)
    out = rel.q_urgent_order_revenue(SF)
    assert out.column("n_items")[0].as_py() > 0
    assert len(gathers) == 1 and gathers[0] > 0


# run in its own Ray session with a 160 MiB object store: a 96 MB broadcast
# still pinned after its join leaves no room for a second one, which Ray
# then allocates in a fallback file outside the store's shared arena
_PIN_SCRIPT = """
import gc, sys
import numpy as np, pyarrow as pa, ray
ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR", object_store_memory=160 << 20)
ray.data.DataContext.get_current().enable_progress_bars = False
from ocr_proofreader_ray.ops.join import broadcast_join

def arena(ref):
    addr = ray.get(ref).column(0).chunk(0).buffers()[1].address
    for line in open("/proc/self/maps"):
        lo, hi = (int(v, 16) for v in line.split()[0].split("-"))
        if lo <= addr < hi:
            return line.split()[5]

n = 6_000_000
ref = ray.put(pa.table({"rk": np.arange(n), "w": np.arange(n)}))
first = arena(ref)
left = ray.data.from_arrow(pa.table({"k": [1, 5, n - 1]}))
rows = broadcast_join(left, ref, ["k"], ["rk"]).take_all()
assert sorted(r["w"] for r in rows) == [1, 5, n - 1]
del ref, left
gc.collect()
second = arena(ray.put(pa.table({"rk": np.arange(n), "w": np.arange(n)})))
ray.shutdown()
print(first == second)
"""


def test_finished_broadcast_join_pins_nothing():
    """A worker keeps no fetched broadcast: a fetched Arrow table is a
    zero-copy view of its object, so a worker that kept it would pin the
    object after the join and its driver ref are gone.  Then a second
    broadcast of the same size no longer fits the store's arena."""
    import subprocess
    import sys

    repo = os.path.dirname(PKG)
    out = subprocess.run([sys.executable, "-c", _PIN_SCRIPT], cwd=repo,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.split()[-1] == "True"
