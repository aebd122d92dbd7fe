"""shuffle_join outer semantics: per-partition outer composes to the global
outer because the exchange co-locates all rows of a key from both sides."""

import pyarrow as pa
import ray

from ocr_proofreader_ray.ops.join import shuffle_join


def _sorted_rows(ds, cols):
    import pandas as pd

    df = ds.to_pandas().sort_values(cols, na_position="last")
    return [
        tuple(None if pd.isna(v) else (int(v) if isinstance(v, float) else v)
              for v in row)
        for row in df.itertuples(index=False)
    ]


def test_full_outer_emits_both_null_directions(ray_session):
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 7], pa.int64()),
        "lv": pa.array(["a", "b", "c", "g"], pa.string()),
    })).repartition(3)
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([2, 2, 9], pa.int64()),
        "rv": pa.array([20, 21, 90], pa.int64()),
    })).repartition(2)

    out = shuffle_join(left, right, on=("k",), right_on=("rk",),
                       join_type="full outer")
    rows = set(_sorted_rows(out, ["k", "rv"]))
    # matches, left-only nulls (1,3,7), and the right-only row (9)
    assert rows == {
        (2, "b", 20), (2, "b", 21),
        (1, "a", None), (3, "c", None), (7, "g", None),
        (9, None, 90),
    }


def test_left_outer_keeps_unmatched_left_only(ray_session):
    left = ray.data.from_arrow(pa.table({
        "k": pa.array([1, 2], pa.int64()),
        "lv": pa.array(["a", "b"], pa.string()),
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array([2, 9], pa.int64()),
        "rv": pa.array([20, 90], pa.int64()),
    }))
    out = shuffle_join(left, right, on=("k",), right_on=("rk",),
                       join_type="left outer")
    rows = set(_sorted_rows(out, ["k"]))
    assert rows == {(1, "a", None), (2, "b", 20)}
