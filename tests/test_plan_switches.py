"""Size-gated physical-plan switches (VERDICT r02 #4/#5/#6/#7): forcing the
at-scale plan on small inputs must produce bit-identical results to the
small-input fast path, and derived partition counts must respond to bytes."""

import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _canon(result) -> pd.DataFrame:
    if isinstance(result, pa.Table):
        df = result.to_pandas()
    elif isinstance(result, pd.DataFrame):
        df = result
    else:
        df = result.to_pandas()  # ray Dataset
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def test_heavy_hitters_ray_final_matches_driver(ray_session, monkeypatch):
    import ocr_proofreader_ray.ops.agg as agg
    import ocr_proofreader_ray.pipelines.text_analysis as ta

    driver = _canon(ta.q_heavy_hitters(SF))
    driver_bg = _canon(ta.q_bigram_heavy_hitters(SF))
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    forced = _canon(ta.q_heavy_hitters(SF))
    forced_bg = _canon(ta.q_bigram_heavy_hitters(SF))
    pd.testing.assert_frame_equal(driver, forced, check_dtype=False,
                                  check_exact=True)
    pd.testing.assert_frame_equal(driver_bg, forced_bg, check_dtype=False,
                                  check_exact=True)
    assert len(driver) > 0 and len(driver_bg) > 0


def test_customer_join_shuffle_fallback_matches_broadcast(ray_session,
                                                          monkeypatch):
    import ocr_proofreader_ray.ops.agg as agg
    import ocr_proofreader_ray.pipelines.relational as rel

    nation_b = _canon(rel.q_nation_revenue(SF))
    rank_b = _canon(rel.q_rank_in_segment(SF))
    prio_b = _canon(rel.q_order_priority_revenue(SF))
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    nation_s = _canon(rel.q_nation_revenue(SF))
    rank_s = _canon(rel.q_rank_in_segment(SF))
    prio_s = _canon(rel.q_order_priority_revenue(SF))
    pd.testing.assert_frame_equal(nation_b, nation_s, check_dtype=False,
                                  check_exact=True)
    pd.testing.assert_frame_equal(rank_b, rank_s, check_dtype=False,
                                  check_exact=True)
    pd.testing.assert_frame_equal(prio_b, prio_s, check_dtype=False,
                                  check_exact=True)
    assert len(nation_b) > 0 and len(rank_b) > 0 and len(prio_b) > 0


def test_salted_shuffle_join_matches_unsalted(ray_session):
    """Skew salting (VERDICT r02 missing #4): a hot left key spread over R
    salt partitions with an R-replicated right side must produce exactly
    the unsalted join's rows."""
    import numpy as np
    import ray.data

    from ocr_proofreader_ray.ops.join import shuffle_join

    rng = np.random.RandomState(3)
    keys = np.where(rng.rand(5000) < 0.8, 7, rng.randint(0, 100, 5000))
    left = ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.int64()),
        "l_val": pa.array(np.arange(5000), pa.int64()),
    }))
    right = ray.data.from_arrow(pa.table({
        "rk": pa.array(np.arange(100), pa.int64()),
        "r_val": pa.array(np.arange(100) * 10, pa.int64()),
    }))

    def rows(ds):
        return sorted((r["k"], r["l_val"], r["r_val"]) for r in ds.take_all())

    plain = rows(shuffle_join(left, right, on=("k",), right_on=("rk",)))
    salted = rows(shuffle_join(left, right, on=("k",), right_on=("rk",),
                               salt=8))
    assert plain == salted
    assert len(plain) == 5000  # every left row matched exactly once

    with pytest.raises(ValueError):
        shuffle_join(left, right, on=("k",), right_on=("rk",),
                     join_type="left_outer", salt=8)


def test_derived_partitions_respond_to_input_bytes(ray_session, monkeypatch):
    import ray.data

    import ocr_proofreader_ray.ops.exchange as ex

    ds = ray.data.read_parquet(f"{SF}/events.parquet")
    small = ex.num_partitions(ds)
    # shrink the per-partition budget: the count must scale with bytes —
    # and with the r02 cap removed it must be free to exceed 512
    monkeypatch.setattr(ex, "_JOIN_PARTITION_INPUT_BYTES", 16)
    big = ex.num_partitions(ds)
    assert big > small
    assert big > 512


def test_user_sessions_partitions_derived_not_hardcoded(ray_session,
                                                        monkeypatch):
    import ocr_proofreader_ray.ops.exchange as ex
    import ocr_proofreader_ray.pipelines.relational as rel

    base = _canon(rel.q_user_sessions(SF))
    # forcing a different derived count must not change results (pure
    # partitioning knob), proving the literal-64 assumption is gone
    monkeypatch.setattr(ex, "_JOIN_PARTITION_INPUT_BYTES", 1 << 10)
    repartitioned = _canon(rel.q_user_sessions(SF))
    pd.testing.assert_frame_equal(base, repartitioned, check_dtype=False,
                                  check_exact=True)


def test_heavy_hitters_null_lang_stratum(ray_session, tmp_path, monkeypatch):
    """code-review r03: a null lang row must neither crash the bigram
    partial nor vanish from the driver-merge plan, and driver == forced-Ray
    output must hold on such data."""
    import pyarrow.parquet as pq

    import ocr_proofreader_ray.ops.agg as agg
    import ocr_proofreader_ray.pipelines.text_analysis as ta

    tab = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "lang": pa.array(["en", None, "en"], pa.string()),
        "text": pa.array(["a b a", "x y x y", "a b c"], pa.string()),
        "source": pa.array(["s"] * 3, pa.string()),
        "n_chars": pa.array([5, 7, 5], pa.int64()),
    })
    pq.write_table(tab, str(tmp_path / "documents.parquet"))

    uni = _canon(ta.q_heavy_hitters(str(tmp_path)))
    bg = _canon(ta.q_bigram_heavy_hitters(str(tmp_path)))
    assert uni["lang"].isna().any()   # NULL stratum present
    assert bg["lang"].isna().any()
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    pd.testing.assert_frame_equal(uni, _canon(ta.q_heavy_hitters(str(tmp_path))),
                                  check_dtype=False, check_exact=True)
    pd.testing.assert_frame_equal(bg, _canon(ta.q_bigram_heavy_hitters(str(tmp_path))),
                                  check_dtype=False, check_exact=True)


def test_semi_anti_shuffle_fallback_matches_broadcast(ray_session,
                                                      monkeypatch):
    """shuffle_semi_anti (the fact-sized-key-side plan: both sides
    hash-partition, per-partition is_in) must select exactly the rows the
    broadcast key-set plan selects, for all four gated queries."""
    import ocr_proofreader_ray.ops.agg as agg
    import ocr_proofreader_ray.pipelines.relational as rel

    with_b = _canon(rel.q_customers_with_orders(SF))
    without_b = _canon(rel.q_customers_without_orders(SF))
    inter_b = _canon(rel.q_intersect_custkeys(SF))
    exc_b = _canon(rel.q_except_custkeys(SF))
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    with_s = _canon(rel.q_customers_with_orders(SF))
    without_s = _canon(rel.q_customers_without_orders(SF))
    inter_s = _canon(rel.q_intersect_custkeys(SF))
    exc_s = _canon(rel.q_except_custkeys(SF))
    for b, s in [(with_b, with_s), (without_b, without_s),
                 (inter_b, inter_s), (exc_b, exc_s)]:
        pd.testing.assert_frame_equal(b, s, check_dtype=False,
                                      check_exact=True)
        assert len(b) > 0


def test_shuffle_semi_anti_null_and_string_keys(ray_session):
    """Direct op equivalence on awkward inputs: string keys, null probe
    keys, null key-side rows, duplicate keys on both sides."""
    import ray.data

    from ocr_proofreader_ray.ops.join import (
        broadcast_semi_anti,
        shuffle_semi_anti,
    )

    data = pa.table({
        "k": pa.array(["a", "b", None, "c", "a", "d"]),
        "v": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
    })
    keys = pa.table({
        "kk": pa.array(["a", "c", "c", None, "zz"]),
    })
    ds = ray.data.from_arrow(data).repartition(3)
    kds = ray.data.from_arrow(keys).repartition(2)
    for anti in (False, True):
        want = _canon(broadcast_semi_anti(
            ray.data.from_arrow(data), keys.column("kk").combine_chunks(),
            on="k", anti=anti))
        got = _canon(shuffle_semi_anti(ds, kds, on="k", keys_on="kk",
                                       anti=anti))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_shuffle_semi_anti_accepts_any_column_name(ray_session):
    """The exchange carries each side under side-scoped layout columns, so
    no input column name is reserved: inputs named like the exchange's
    own internals (``__key``, ``__part``, ``__side``, ``__l0``) on either
    side must select exactly the rows the broadcast plan selects."""
    import ray.data

    from ocr_proofreader_ray.ops.join import (
        broadcast_semi_anti,
        shuffle_semi_anti,
    )

    data = pa.table({
        "k": pa.array([1, 2, 3, 4], pa.int64()),
        "__key": pa.array([0, 0, 1, 1], pa.int64()),
        "__part": pa.array(["a", "b", "c", "d"]),
        "__side": pa.array([9, 9, 9, 9], pa.int8()),
    })
    keys = pa.table({
        "__key": pa.array([2, 4, 4, 7], pa.int64()),
        "__l0": pa.array([5, 6, 7, 8], pa.int64()),
    })
    for anti in (False, True):
        want = _canon(broadcast_semi_anti(
            ray.data.from_arrow(data), keys.column("__key").combine_chunks(),
            on="k", anti=anti))
        got = _canon(shuffle_semi_anti(
            ray.data.from_arrow(data), ray.data.from_arrow(keys),
            on="k", keys_on="__key", anti=anti))
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)
        assert len(got) == 2
