"""Unit semantics of the round-3 ops: as-of join (backward, inner,
per-key) and per-group top-k (stratified selection)."""

import pyarrow as pa
import pytest


def _ts(s: str):
    import pandas as pd

    return pd.Timestamp(s)


def test_asof_join_backward_inner_semantics(ray_session):
    import ray.data

    from ocr_proofreader_ray.ops.join import asof_join

    left = ray.data.from_arrow(pa.table({
        "eid": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "k": pa.array([10, 10, 10, 20, 30], pa.int64()),
        "ts": pa.array([_ts("2024-01-05"), _ts("2024-01-10"),
                        _ts("2024-01-01"), _ts("2024-01-05"),
                        _ts("2024-01-05")]),
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([10, 10, 20], pa.int64()),
        "rid": pa.array([100, 101, 200], pa.int64()),
        "rts": pa.array([_ts("2024-01-03"), _ts("2024-01-08"),
                         _ts("2024-01-05")]),
    }))
    out = {r["eid"]: r["rid"] for r in
           asof_join(left, right, on="k", right_on="rk",
                     left_ts="ts", right_ts="rts").take_all()}
    assert out == {
        1: 100,  # latest right at/before 01-05 is 01-03
        2: 101,  # 01-08 <= 01-10
        4: 200,  # exact-match timestamps join (allow_exact_matches)
        # eid 3 (before any right) and eid 5 (key 30 unmatched) drop
    }


def test_asof_join_tiebreak_picks_max(ray_session):
    """Duplicate right (key, ts) rows with right_tiebreak: the max tiebreak
    value must win, deterministically, without a pre-reduce."""
    import ray.data

    from ocr_proofreader_ray.ops.join import asof_join

    left = ray.data.from_arrow(pa.table({
        "eid": pa.array([1], pa.int64()),
        "k": pa.array([10], pa.int64()),
        "ts": pa.array([_ts("2024-01-05")]),
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([10, 10, 10], pa.int64()),
        "rid": pa.array([102, 100, 101], pa.int64()),
        "rts": pa.array([_ts("2024-01-03")] * 3),
    })).repartition(3)
    out = asof_join(left, right, on="k", right_on="rk",
                    left_ts="ts", right_ts="rts",
                    right_tiebreak="rid").take_all()
    assert [r["rid"] for r in out] == [102]


def test_asof_join_preserves_dtypes_and_drops_null_ts(ray_session):
    """code-review r03: the union's null padding upcast LEFT int columns to
    float64 (only right ones were restored), and a single NaT timestamp
    crashed merge_asof — ints must come back int64 and null-ts rows must
    drop (SQL inner ASOF semantics)."""
    import ray.data

    from ocr_proofreader_ray.ops.join import asof_join

    left = ray.data.from_arrow(pa.table({
        "eid": pa.array([1, 2, 3], pa.int64()),
        "k": pa.array([10, 10, 10], pa.int64()),
        "ts": pa.array([_ts("2024-01-05"), None, _ts("2024-01-06")]),
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([10, 10], pa.int64()),
        "rid": pa.array([100, 101], pa.int64()),
        "rts": pa.array([_ts("2024-01-03"), None]),
    }))
    out = asof_join(left, right, on="k", right_on="rk",
                    left_ts="ts", right_ts="rts")
    tab = pa.Table.from_pylist(out.take_all())
    assert sorted(tab.column("eid").to_pylist()) == [1, 3]  # NaT row gone
    schema = out.schema()
    for name in ("eid", "k", "rid"):
        assert schema.base_schema.field(name).type == pa.int64(), name


def test_grouped_top_k_keeps_null_group(ray_session):
    """code-review r03: a null group key is a stratum (SQL PARTITION BY
    keeps NULL partitions) — pandas' dropna default must not eat it."""
    import ray.data

    from ocr_proofreader_ray.ops.agg import grouped_top_k

    tab = pa.table({
        "g": pa.array(["a", "a", "a", None, None], pa.string()),
        "v": pa.array([3, 1, 2, 5, 4], pa.int64()),
    })
    out = grouped_top_k(ray.data.from_arrow(tab).repartition(2),
                        ["g"], [("v", "ascending")], 2)
    rows = sorted(((r["g"] or "~"), r["v"]) for r in out.to_pylist())
    assert rows == [("a", 1), ("a", 2), ("~", 4), ("~", 5)]


def test_head_keeps_int64_values_exact():
    """A null in an int64 column must not round its other values through
    float64: ids above 2^53 keep their low bits, in the group key and in
    a value column."""
    from ocr_proofreader_ray.ops.agg import group_head

    big = 2 ** 53 + 1
    tab = pa.table({
        "user_id": pa.array([big, None, big], pa.int64()),
        "ts": pa.array([1, 2, 3], pa.int64()),
        "v": pa.array([big + 2, None, big], pa.int64()),
    })
    out = group_head(tab, ["user_id"], [("ts", "descending")], 1)
    assert sorted(out.to_pylist(), key=lambda r: r["ts"]) == [
        {"user_id": None, "ts": 2, "v": None},
        {"user_id": big, "ts": 3, "v": big},
    ]
    assert out.schema == tab.schema


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_head_rows_and_group_order_match_pandas_head(seed):
    """``group_head`` keeps the rows a pandas ``groupby(dropna=False).head(k)``
    keeps after the sort, in the same order within each group."""
    import numpy as np
    import pyarrow.compute as pc

    from ocr_proofreader_ray.ops.agg import group_head

    rng = np.random.default_rng(seed)
    n = 300
    tab = pa.table({
        "g": pa.array([None if x == 0 else f"g{x}"
                       for x in rng.integers(0, 6, n)], pa.string()),
        "h": pa.array(rng.integers(0, 2, n), pa.int64()),
        "v": pa.array(rng.integers(0, 20, n), pa.int64()),
        "i": pa.array(np.arange(n), pa.int64()),
    })
    order = [("v", "descending"), ("i", "ascending")]
    df = tab.take(pc.sort_indices(tab, sort_keys=order)).to_pandas()
    want = df.groupby(["g", "h"], sort=False, dropna=False).head(3)
    got = group_head(tab, ["g", "h"], order, 3).to_pandas()

    def per_group(d):
        out = {}
        for g, h, i in zip(d["g"], d["h"], d["i"]):
            out.setdefault((g, h), []).append(i)
        return out

    assert per_group(got) == per_group(want)


def test_asof_join_rejects_column_collision(ray_session):
    import ray.data

    from ocr_proofreader_ray.ops.join import asof_join

    a = ray.data.from_arrow(pa.table({"k": [1], "ts": [1]}))
    b = ray.data.from_arrow(pa.table({"k": [1], "rts": [1]}))
    with pytest.raises(ValueError):
        asof_join(a, b, on="k", right_on="k", left_ts="ts", right_ts="rts")


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_asof_join_matches_pandas_reference(ray_session, seed):
    """Randomized cross-check: the distributed as-of join must equal a
    single-frame pandas merge_asof over the same data (right side unique
    per (key, ts) — the op's documented determinism precondition)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from ocr_proofreader_ray.ops.join import asof_join

    rng = np.random.RandomState(seed)
    n_l, n_r = 400, 120
    left = pd.DataFrame({
        "eid": np.arange(n_l),
        "k": rng.randint(0, 20, n_l),
        "ts": pd.to_datetime(rng.randint(0, 10_000, n_l), unit="s"),
    })
    right = (pd.DataFrame({
        "rk": rng.randint(0, 25, n_r),
        "rts": pd.to_datetime(rng.randint(0, 10_000, n_r), unit="s"),
        "rid": np.arange(n_r),
    }).groupby(["rk", "rts"], as_index=False).agg(rid=("rid", "max")))

    want = pd.merge_asof(
        left.sort_values("ts", kind="stable"),
        right.sort_values("rts", kind="stable"),
        left_on="ts", right_on="rts", left_by="k", right_by="rk",
        direction="backward")
    want = (want[want["rk"].notna()]
            .astype({"rk": "int64", "rid": "int64"})
            [["eid", "k", "rid"]].sort_values("eid").reset_index(drop=True))

    got_ds = asof_join(
        ray.data.from_arrow(pa.Table.from_pandas(left)).repartition(5),
        ray.data.from_arrow(pa.Table.from_pandas(right[["rk", "rts", "rid"]])
                            ).repartition(3),
        on="k", right_on="rk", left_ts="ts", right_ts="rts")
    got = (pd.DataFrame(got_ds.take_all())[["eid", "k", "rid"]]
           .sort_values("eid").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_grouped_top_k_per_group_and_determinism(ray_session):
    import numpy as np
    import ray.data

    from ocr_proofreader_ray.ops.agg import grouped_top_k

    rng = np.random.RandomState(0)
    n = 5000
    tab = pa.table({
        "g": pa.array(rng.randint(0, 5, n), pa.int64()),
        "v": pa.array(rng.permutation(n), pa.int64()),
    })
    # single-member group: fewer rows than k must be fine
    tab = pa.concat_tables([tab, pa.table({"g": pa.array([99], pa.int64()),
                                           "v": pa.array([7], pa.int64())})])
    ds = ray.data.from_arrow(tab).repartition(8)
    out = grouped_top_k(ds, ["g"], [("v", "ascending")], 3)

    df = tab.to_pandas()
    want = (df.sort_values("v").groupby("g").head(3)
            .sort_values(["g", "v"]).reset_index(drop=True))
    got = (out.to_pandas().sort_values(["g", "v"]).reset_index(drop=True))
    assert got.equals(want)

    again = grouped_top_k(ray.data.from_arrow(tab).repartition(3),
                          ["g"], [("v", "ascending")], 3)
    assert (again.to_pandas().sort_values(["g", "v"])
            .reset_index(drop=True).equals(want))


def test_asof_join_ids_above_2_53_survive(ray_session):
    """64-bit snowflake/hash ids exceed float64's 2^53 integer range; the
    partition must never round-trip them through plain float64 (ADVICE r03:
    the null-padded union upcast every int column before merge_asof)."""
    import ray.data

    from ocr_proofreader_ray.ops.join import asof_join

    big = 2**60 + 1  # not representable in float64 (rounds to 2^60)
    left = ray.data.from_arrow(pa.table({
        "eid": pa.array([big, big + 3], pa.int64()),
        "k": pa.array([big + 1, big + 2], pa.int64()),
        "ts": pa.array([_ts("2024-01-05"), _ts("2024-01-05")]),
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([big + 1, big + 2], pa.int64()),
        "rid": pa.array([big + 5, big + 6], pa.int64()),
        "rts": pa.array([_ts("2024-01-03"), _ts("2024-01-04")]),
    }))
    out = {r["eid"]: r["rid"] for r in
           asof_join(left, right, on="k", right_on="rk",
                     left_ts="ts", right_ts="rts").take_all()}
    # float64 rounding would collapse big+1 and big+2 into the same key
    # (wrong matches) and corrupt the payload ids
    assert out == {big: big + 5, big + 3: big + 6}


def test_asof_join_float_ts_nan_dropped(ray_session):
    """ADVICE r04: float-typed (non-temporal) ts columns carry NaN rather
    than null; those rows must drop with the same inner semantics instead
    of reaching merge_asof (where an unsorted NaN key raises)."""
    import math

    import ray.data

    from ocr_proofreader_ray.ops.join import asof_join

    left = ray.data.from_arrow(pa.table({
        "eid": pa.array([1, 2, 3, 4], pa.int64()),
        "k": pa.array([10, 10, 10, 10], pa.int64()),
        "ts": pa.array([5.0, float("nan"), 9.0, None], pa.float64()),
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([10, 10], pa.int64()),
        "rid": pa.array([100, 101], pa.int64()),
        "rts": pa.array([4.0, float("nan")], pa.float64()),
    }))
    got = asof_join(left, right, on="k", right_on="rk",
                    left_ts="ts", right_ts="rts").take_all()
    out = {r["eid"]: r["rid"] for r in got}
    assert out == {1: 100, 3: 100}  # NaN/null ts rows on both sides drop
    assert not any(isinstance(r["rts"], float) and math.isnan(r["rts"])
                   for r in got)


def test_run_helpers_cut_null_keys_as_one_run():
    """Integer, timestamp and string keys cut the same runs: 0 and null
    differ, ids above 2^53 stay apart and the null keys make one run."""
    import numpy as np

    from ocr_proofreader_ray.ops.agg import (
        run_bounds,
        run_ids,
        run_positions,
        run_starts,
        shared_runs,
    )

    big = 2 ** 53
    keys = [0, 0, big, big + 1, None, None]
    tab = pa.table({
        "i": pa.array(keys, pa.int64()),
        "ts": pa.array(keys, pa.timestamp("us")),
        "s": pa.array([None if k is None else str(k) for k in keys]),
        "row": pa.array(range(6), pa.int64()),
    })
    starts = run_starts(tab, ["i"])
    assert starts.tolist() == [True, False, True, True, True, False]
    for col in ("ts", "s"):
        assert run_starts(tab, [col]).tolist() == starts.tolist()
    assert run_bounds(starts).tolist() == [0, 2, 3, 4, 6]
    assert run_ids(starts).tolist() == [0, 0, 1, 2, 3, 3]
    assert run_positions(starts).tolist() == [0, 1, 0, 0, 0, 1]
    rows, bounds = shared_runs(tab, ["i"])
    assert rows.column("row").to_pylist() == [0, 1, 4, 5]
    assert bounds.tolist() == [0, 2, 4]
    empty, bounds = shared_runs(tab.slice(0, 0), ["i"])
    assert empty.num_rows == 0 and bounds.tolist() == [0]
    assert run_starts(tab.slice(0, 0), ["i"]).dtype == np.bool_
