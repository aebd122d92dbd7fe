"""HyperLogLog sketch (documented approximate extension, SURVEY.md §2.C)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from ocr_proofreader_ray.functions import hll


def test_estimate_accuracy_across_scales():
    rng = np.random.RandomState(5)
    for true_n in (50, 1_000, 50_000, 500_000):
        keys = rng.randint(0, 1 << 62, size=true_n, dtype=np.int64)
        keys = np.unique(keys)  # exact distinct count
        regs = hll.empty_registers()
        hll.add_int_keys(regs, keys.astype(np.uint64))
        est = hll.estimate(regs)
        assert est == pytest.approx(len(keys), rel=0.05), true_n


def test_merge_equals_union():
    rng = np.random.RandomState(6)
    a_keys = rng.randint(0, 1 << 62, size=10_000, dtype=np.int64)
    b_keys = rng.randint(0, 1 << 62, size=10_000, dtype=np.int64)
    ra, rb, ru = (hll.empty_registers() for _ in range(3))
    hll.add_int_keys(ra, a_keys.astype(np.uint64))
    hll.add_int_keys(rb, b_keys.astype(np.uint64))
    hll.add_int_keys(ru, np.concatenate([a_keys, b_keys]).astype(np.uint64))
    assert (hll.merge(ra, rb) == ru).all()  # merge is exactly union


def test_deterministic():
    keys = np.arange(1000, dtype=np.uint64)
    r1, r2 = hll.empty_registers(), hll.empty_registers()
    hll.add_int_keys(r1, keys)
    hll.add_int_keys(r2, keys[::-1].copy())  # order-independent
    assert (r1 == r2).all()


def test_query_vs_exact(ray_session):
    from ocr_proofreader_ray.pipelines.registry import all_queries

    q = all_queries()
    sf = "/root/testdata/sf0.01"
    approx = {r["event_type"]: r["approx_users"]
              for r in q["q_approx_distinct_users"](sf).to_pylist()}
    exact = {r["event_type"]: r["n_users"]
             for r in q["q_count_distinct_users"](sf).to_pandas().to_dict("records")}
    assert set(approx) == set(exact)
    for et in exact:
        assert approx[et] == pytest.approx(exact[et], rel=0.06), et


def test_overlap_estimate_within_hll_error(ray_session):
    import duckdb

    from ocr_proofreader_ray.pipelines.relational import (
        q_approx_overlap_users,
    )

    sf = "/root/testdata/sf0.01"
    got = q_approx_overlap_users(sf)
    exact = duckdb.sql(f"""
        SELECT count(*) FROM (
          SELECT user_id FROM read_parquet('{sf}/events.parquet')
          WHERE event_type = 'click'
          INTERSECT
          SELECT user_id FROM read_parquet('{sf}/events.parquet')
          WHERE event_type = 'purchase')
    """).fetchone()[0]
    est = got.column("overlap_est")[0].as_py()
    # inclusion-exclusion compounds the ~1.6% HLL error of three sketches
    assert abs(est - exact) <= max(10, 0.1 * exact)


def _events(tmp_path, parts):
    """An events table of one file per (event_type, user_id) part, read
    as one block per file."""
    root = tmp_path / "events.parquet"
    root.mkdir()
    for i, (types, users) in enumerate(parts):
        pq.write_table(pa.table({"event_type": pa.array(types, pa.string()),
                                 "user_id": pa.array(users, pa.int64())}),
                       root / f"part-{i}.parquet")
    return str(tmp_path)


def test_approx_distinct_users_keeps_null_event_type(ray_session, tmp_path):
    """A null event_type is a group of its own, named None and sorted
    last, and its sketches merge across blocks like any other."""
    from ocr_proofreader_ray.pipelines.relational import (
        q_approx_distinct_users,
    )

    sf = _events(tmp_path, [(["view", None, "click"], [1, 2, 3]),
                            ([None, "view"], [4, 5])])
    assert q_approx_distinct_users(sf).to_pylist() == [
        {"event_type": "click", "approx_users": 1},
        {"event_type": "view", "approx_users": 2},
        {"event_type": None, "approx_users": 2}]


def test_approx_distinct_users_ignores_null_user_id(ray_session, tmp_path):
    from ocr_proofreader_ray.pipelines.relational import (
        q_approx_distinct_users,
    )

    sf = _events(tmp_path, [(["click", "click"], [1, None]),
                            (["click"], [2])])
    assert q_approx_distinct_users(sf).to_pylist() == [
        {"event_type": "click", "approx_users": 2}]
