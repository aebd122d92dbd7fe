"""Unit tests for ops/selection.py (exact grouped order statistics) and
ops/join.py::range_count_join (non-equi interval count/sum join)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ocr_proofreader_ray.ops import agg
from ocr_proofreader_ray.ops.join import range_count_join
from ocr_proofreader_ray.ops.selection import grouped_kth_smallest


def _ds(table: pa.Table, blocks: int = 4):
    return ray.data.from_arrow(table).repartition(blocks)


def _ranks_oracle(df: pd.DataFrame, ranks_for) -> dict:
    out = {}
    for g, sub in df.groupby("g"):
        v = np.sort(sub["v"].to_numpy())
        out[g] = (len(v), [int(v[k - 1]) if 1 <= k <= len(v) else None
                           for k in ranks_for(len(v))])
    return out


def _all_ranks(n):
    return list(range(1, n + 1))


def test_grouped_kth_driver_vs_bisect_equal(ray_session, monkeypatch):
    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], size=500),
        "v": rng.integers(-1000, 1000, size=500, dtype=np.int64),
    })
    t = pa.table({"g": pa.array(df["g"]), "v": pa.array(df["v"], pa.int64())})
    def ranks_for(n):
        return [1, 2, n // 2, n, n + 5]

    want = _ranks_oracle(df, ranks_for)
    got_driver = grouped_kth_smallest(_ds(t), "g", "v", ranks_for)
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    got_bisect = grouped_kth_smallest(_ds(t), "g", "v", ranks_for)
    assert got_driver == want
    assert got_bisect == want


def test_grouped_kth_duplicate_values(ray_session, monkeypatch):
    # many ties: k-th order statistic must count duplicates, not collapse
    t = pa.table({
        "g": pa.array(["x"] * 10),
        "v": pa.array([5, 5, 5, 1, 1, 9, 9, 9, 9, 2], pa.int64()),
    })
    def ranks_for(n):
        return [1, 2, 3, 4, 5, 6, 7, 10]

    want = {"x": (10, [1, 1, 2, 5, 5, 5, 9, 9])}
    assert grouped_kth_smallest(_ds(t, 2), "g", "v", ranks_for) == want
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    assert grouped_kth_smallest(_ds(t, 2), "g", "v", ranks_for) == want


def test_grouped_kth_negative_and_single(ray_session, monkeypatch):
    t = pa.table({
        "g": pa.array(["a", "a", "b"]),
        "v": pa.array([-7, -3, 42], pa.int64()),
    })
    want = {"a": (2, [-7, -3]), "b": (1, [42])}
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    assert grouped_kth_smallest(_ds(t, 2), "g", "v", _all_ranks) == want


def test_grouped_kth_nan_group_key_is_null_group(ray_session, monkeypatch):
    # a float NaN group key joins the null group (dropna=False), in both plans
    t = pa.table({
        "g": pa.array([1.5, float("nan"), None, 1.5, float("nan")],
                      pa.float64()),
        "v": pa.array([4, 8, 6, 2, 7], pa.int64()),
    })
    want = {1.5: (2, [2, 4]), None: (3, [6, 7, 8])}
    assert grouped_kth_smallest(_ds(t, 2), "g", "v", _all_ranks) == want
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    assert grouped_kth_smallest(_ds(t, 2), "g", "v", _all_ranks) == want


def _window_oracle(left_days, right_days, right_vals, window):
    counts, sums = [], []
    for d in left_days:
        if d is None:
            counts.append(0)
            sums.append(None)
            continue
        sel = [v for rd, v in zip(right_days, right_vals)
               if rd is not None and d <= rd < d + window]
        counts.append(len(sel))
        sums.append(sum(sel) if sel else None)
    return counts, sums


def test_range_count_join_matches_bruteforce(ray_session):
    rng = np.random.default_rng(3)
    base = np.datetime64("2020-01-01", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    ldays = rng.integers(0, 60, size=200).tolist()
    rdays = rng.integers(-5, 70, size=400).tolist()
    rvals = rng.integers(1, 100, size=400, dtype=np.int64).tolist()

    left = pa.table({
        "id": pa.array(range(200), pa.int64()),
        "ts": pa.array([base + d * day for d in ldays],
                       pa.timestamp("us")),
    })
    right = pa.table({
        "rts": pa.array([base + d * day for d in rdays],
                        pa.timestamp("us")),
        "val": pa.array(rvals, pa.int64()),
    })
    out = range_count_join(
        _ds(left, 3), "ts", _ds(right, 5), "rts", window_days=7,
        count_name="n", sum_col="val", sum_name="s",
    ).to_pandas().sort_values("id")

    want_n, want_s = _window_oracle(ldays, rdays, rvals, 7)
    assert out["n"].tolist() == want_n
    got_s = [None if pd.isna(x) else int(x) for x in out["s"]]
    assert got_s == want_s
    # exact int64 sums survive end-to-end (float-determinism contract)
    assert out["s"].dtype in (np.dtype("int64"), np.dtype("float64"), object) \
        or str(out["s"].dtype) == "Int64"


def test_range_count_join_null_left_ts(ray_session):
    base = np.datetime64("2020-01-01", "us")
    left = pa.table({
        "id": pa.array([0, 1], pa.int64()),
        "ts": pa.array([base, None], pa.timestamp("us")),
    })
    right = pa.table({
        "rts": pa.array([base, base, None], pa.timestamp("us")),
    })
    out = range_count_join(
        _ds(left, 1), "ts", _ds(right, 1), "rts", window_days=1,
        count_name="n",
    ).to_pandas().sort_values("id")
    # null right ts never matches; null left ts -> count 0
    assert out["n"].tolist() == [2, 0]


def test_range_count_join_zero_match_window_is_null_sum(ray_session):
    """Pin the null-vs-0 contract for orders whose window matches nothing:
    SQL ``LEFT JOIN`` + ``sum`` yields NULL (count 0), and the engine's
    prefix-sum probe must agree — the oracle for q_ship_window_counts
    relies on this (no sf0.01 order happens to hit the case, so it is
    planted here)."""
    base = np.datetime64("2020-01-01", "us")
    day = np.timedelta64(1, "D").astype("timedelta64[us]")
    left = pa.table({
        "id": pa.array([0, 1], pa.int64()),
        # id=1's 7-day window [100, 107) contains no right rows
        "ts": pa.array([base, base + 100 * day], pa.timestamp("us")),
    })
    right = pa.table({
        "rts": pa.array([base, base + 3 * day], pa.timestamp("us")),
        "val": pa.array([10, 20], pa.int64()),
    })
    out = range_count_join(
        _ds(left, 1), "ts", _ds(right, 1), "rts", window_days=7,
        count_name="n", sum_col="val", sum_name="s",
    ).to_pandas().sort_values("id")
    assert out["n"].tolist() == [2, 0]
    assert int(out["s"].iloc[0]) == 30
    assert pd.isna(out["s"].iloc[1])


def test_percentiles_cont_edge_group_sizes(ray_session, tmp_path):
    """quantile_cont edges: n=1 (all quartiles = the value) and n=2
    (interpolation between the two values), verified against DuckDB."""
    import duckdb
    import pyarrow.parquet as pq

    from ocr_proofreader_ray.pipelines.relational import (
        q_price_percentiles_cont,
    )

    sf = str(tmp_path)
    pq.write_table(pa.table({
        "l_returnflag": pa.array(["A", "B", "B"], pa.string()),
        "l_extendedprice": pa.array([10.00, 1.00, 2.00], pa.float64()),
    }), f"{sf}/lineitem.parquet")
    got = q_price_percentiles_cont(sf).to_pandas() \
        .sort_values("l_returnflag").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW lineitem AS SELECT * FROM "
        f"read_parquet('{sf}/lineitem.parquet')")
    from ocr_proofreader_ray.pipelines.registry import all_oracles
    want = con.sql(all_oracles()["q_price_percentiles_cont"]).df() \
        .sort_values("l_returnflag").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
