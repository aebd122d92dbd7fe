"""Bloom filter + the key prefilter before a shuffle join (VERDICT r01
missing #5)."""

import numpy as np
import pyarrow as pa
import pytest

from ocr_proofreader_ray.functions.bloom import BloomFilter, build_bloom


def test_bloom_no_false_negatives_and_low_fpp():
    keys = pa.array(np.arange(0, 50_000, 2, dtype=np.int64))  # evens
    f = BloomFilter(25_000, fpp=0.01)
    f.add_column(keys)
    # every inserted key must test positive
    assert f.contains_column(keys).all()
    # odd keys were never inserted: false-positive rate near the target
    probe = pa.array(np.arange(1, 50_001, 2, dtype=np.int64))
    fpp = f.contains_column(probe).mean()
    assert fpp < 0.03


def test_bloom_string_keys():
    keys = pa.array([f"user-{i}" for i in range(1000)])
    f = BloomFilter(1000, fpp=0.01)
    f.add_column(keys)
    assert f.contains_column(keys).all()
    other = pa.array([f"ghost-{i}" for i in range(1000)])
    assert f.contains_column(other).mean() < 0.05


def test_bloom_probes_dictionary_keys_as_their_values():
    """A key hashes as the exchange hashes it: a dictionary array probes
    as its values, so a dictionary-encoded key side or probe side never
    turns a member into a false negative."""
    keys = pa.array([f"user-{i}" for i in range(1000)])
    f = BloomFilter(1000)
    f.add_column(keys)
    assert f.contains_column(keys.dictionary_encode()).all()
    g = BloomFilter(1000)
    g.add_column(keys.dictionary_encode())
    assert g.contains_column(keys).all()


def test_bloom_merge_is_union():
    a, b = BloomFilter(100, 0.01), BloomFilter(100, 0.01)
    a.add_column(pa.array([1, 2, 3], pa.int64()))
    b.add_column(pa.array([4, 5, 6], pa.int64()))
    a.merge(b)
    assert a.contains_column(pa.array([1, 4, 6], pa.int64())).all()


def test_distributed_build_and_prefiltered_join_exactness(ray_session,
                                                          monkeypatch):
    """A Bloom prefilter before the join must give bit-identical join
    results (the filter is a superset prefilter; the exact Arrow join
    resolves false positives)."""
    import ray.data

    from ocr_proofreader_ray.ops import agg
    from ocr_proofreader_ray.ops.join import prefilter, shuffle_join

    def make_left():
        rng = np.random.RandomState(5)
        return ray.data.from_arrow(pa.table({
            "k": pa.array(rng.randint(0, 10_000, size=20_000), pa.int64()),
            "v": pa.array(np.arange(20_000), pa.int64()),
        }))

    def make_right():
        return ray.data.from_arrow(pa.table({
            "k2": pa.array(np.arange(0, 10_000, 7), pa.int64()),  # selective
            "w": pa.array(np.arange(0, 10_000, 7) * 2, pa.int64()),
        }))

    # distributed build finds every right key
    f = build_bloom(make_right(), "k2", n_keys_estimate=2000)
    assert f.contains_column(
        pa.array(np.arange(0, 10_000, 7), pa.int64())).all()

    plain = shuffle_join(make_left(), make_right(),
                         on=("k",), right_on=("k2",)).take_all()
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)  # the Bloom plan
    right = make_right()
    bloomed = shuffle_join(prefilter(make_left(), right, on="k", keys_on="k2"),
                           right, on=("k",), right_on=("k2",)).take_all()
    key = lambda r: (r["k"], r["v"], r["w"])
    assert sorted(map(key, plain)) == sorted(map(key, bloomed))
    assert len(plain) > 0


@pytest.mark.parametrize("bound", ["exact", "bloom"])
@pytest.mark.parametrize("kind", ["int", "str"])
def test_prefilter_keeps_every_present_key(ray_session, monkeypatch, bound,
                                           kind):
    """``prefilter`` never drops a row whose key is among the keys — a null
    key included — whether the keys are a driver array or a Dataset (two
    key columns), on the exact broadcast plan and on the Bloom plan; on
    the exact plan it keeps nothing else, and an empty key side keeps
    nothing."""
    import ray.data

    from ocr_proofreader_ray.ops import agg
    from ocr_proofreader_ray.ops.join import prefilter

    if bound == "bloom":
        monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    vals = list(range(200)) + [None]
    if kind == "str":
        vals = [None if v is None else f"k\u00e9{v}" for v in vals]
    typ = pa.int64() if kind == "int" else pa.string()
    ds = ray.data.from_arrow(pa.table({
        "k": pa.array(vals * 2, typ),
        "row": pa.array(np.arange(2 * len(vals)), pa.int64()),
    }))
    present = set(vals[::3]) | {None}
    keys = pa.array(sorted(present - {None}) + [None], typ)
    half = len(keys) // 2
    keys_ds = ray.data.from_arrow(pa.table({"a": keys[:half],
                                            "b": keys[half:]}))
    want = {r for r, k in zip(range(2 * len(vals)), vals * 2)
            if k in present}
    for got in (prefilter(ds, keys, on="k"),
                prefilter(ds, keys_ds, on="k", keys_on=["a", "b"])):
        rows = {r["row"] for r in got.take_all()}
        assert want <= rows
        if bound == "exact":
            assert rows == want
    no_keys = ray.data.from_arrow(pa.table({"a": pa.array([], typ)}))
    assert prefilter(ds, no_keys, on="k", keys_on="a").count() == 0
