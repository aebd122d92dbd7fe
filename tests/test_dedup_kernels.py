"""The dedup driver kernels are array code: ``_bucket_pairs`` (candidate
pairs from band buckets) and ``_min_labels`` (connected components).
Each must return exactly what its former Python-object kernel returned,
kept here as the reference: the pandas ``groupby`` pair expansion and the
dict union-find."""

import numpy as np
import pyarrow as pa
import pytest

from ocr_proofreader_ray.pipelines import dedup as dd


def _reference_pairs(rows: pa.Table, bucket_cols: list[str],
                     star_cap: int) -> set:
    """The pandas expansion ``_candidate_pairs`` ran per partition: a
    bucket's key with a null drops out of ``groupby``."""
    g = rows.to_pandas()
    dup = g[g.duplicated(bucket_cols, keep=False)]
    out = set()
    for _, ids in dup.groupby(bucket_cols, sort=False)["doc_id"]:
        u = np.unique(ids.to_numpy())
        if len(u) > star_cap:
            out.update((int(u[0]), int(b)) for b in u[1:])
        elif len(u) > 1:
            ia, ib = np.triu_indices(len(u), k=1)
            out.update(zip(u[ia].tolist(), u[ib].tolist()))
    return out


def _reference_clusters(pairs: pa.Table) -> list:
    """Driver union-find (path compression + union by min)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    for a, b in zip(pairs.column("doc_a").to_pylist(),
                    pairs.column("doc_b").to_pylist()):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return [(m, find(m)) for m in sorted(parent)]


def _band_table(rng, n_rows: int, star_cap: int, grouped: bool) -> pa.Table:
    """Band rows whose buckets hold 1 .. star_cap + 3 docs (so below, at
    and above the cap), with docs repeated inside a bucket and pairs
    repeated across buckets, and (grouped) null lang / source values."""
    doc, band, key = [], [], []
    while len(doc) < n_rows:
        size = int(rng.integers(1, star_cap + 4))
        members = rng.choice(200, size=size, replace=True)  # repeats too
        b, k = int(rng.integers(0, 4)), int(rng.integers(-3, 3))
        doc += members.tolist()
        band += [b] * size
        key += [k] * size
    cols = {
        "doc_id": pa.array(doc, pa.int64()),
        "band_id": pa.array(band, pa.int32()),
        "band_key": pa.array(key, pa.int64()),
    }
    if grouped:
        langs = np.array(["en", "de", None], dtype=object)
        cols["lang"] = pa.array(langs[rng.integers(0, 3, len(doc))].tolist(),
                                pa.string())
        cols["source"] = pa.array(
            [None if rng.random() < 0.1 else "s" for _ in doc], pa.string())
    return pa.table(cols)


def _pair_set(t: pa.Table) -> list:
    return list(zip(t.column("doc_a").to_pylist(),
                    t.column("doc_b").to_pylist()))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("grouped", [False, True])
def test_bucket_pairs_match_pandas_reference(seed, grouped):
    rng = np.random.default_rng(seed)
    star_cap = int(rng.integers(2, 8))
    rows = _band_table(rng, int(rng.integers(20, 400)), star_cap, grouped)
    cols = (["lang", "source"] if grouped else []) + ["band_id", "band_key"]
    got = dd._bucket_pairs(rows, cols, star_cap)
    pairs = _pair_set(got)
    assert got.schema == pa.schema([("doc_a", pa.int64()),
                                    ("doc_b", pa.int64())])
    assert len(pairs) == len(set(pairs))        # each pair once
    assert all(a < b for a, b in pairs)
    assert set(pairs) == _reference_pairs(rows, cols, star_cap)


def test_bucket_pairs_cap_edges_and_empty():
    """A bucket of exactly ``star_cap`` docs emits all pairs, one more
    emits star edges; an empty input emits no rows."""
    cap = dd._STAR_BUCKET_CAP
    rows = pa.table({
        "doc_id": pa.array(list(range(cap)) + list(range(1000, 1001 + cap)),
                           pa.int64()),
        "band_id": pa.array([0] * (2 * cap + 1), pa.int32()),
        "band_key": pa.array([1] * cap + [2] * (cap + 1), pa.int64()),
    })
    cols = ["band_id", "band_key"]
    pairs = set(_pair_set(dd._bucket_pairs(rows, cols, cap)))
    assert pairs == _reference_pairs(rows, cols, cap)
    assert len(pairs) == cap * (cap - 1) // 2 + cap
    empty = dd._bucket_pairs(rows.slice(0, 0), cols, cap)
    assert empty.num_rows == 0
    assert empty.schema.field("doc_a").type == pa.int64()


def _edges(pairs: list) -> pa.Table:
    return pa.table({
        "doc_a": pa.array([min(p) for p in pairs], pa.int64()),
        "doc_b": pa.array([max(p) for p in pairs], pa.int64()),
    })


def _clusters(t: pa.Table) -> list:
    return list(zip(t.column("doc_id").to_pylist(),
                    t.column("rep_id").to_pylist()))


@pytest.mark.parametrize("seed", range(12))
def test_min_labels_match_union_find(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 300))
    ids = rng.choice(1 << 40, size=n, replace=False)
    pairs = []
    for _ in range(int(rng.integers(1, 2 * n))):
        a, b = rng.choice(ids, size=2, replace=False)
        pairs.append((int(a), int(b)))
    pairs += pairs[: len(pairs) // 4]                      # duplicate pairs
    chain = rng.permutation(ids)[: n // 2]                 # long chain
    pairs += list(zip(chain[:-1].tolist(), chain[1:].tolist()))
    hub = int(ids[0])                                      # star
    pairs += [(hub, int(x)) for x in ids[1: n // 3]]
    t = _edges(pairs)
    assert _clusters(dd.dedup_clusters(t)) == _reference_clusters(t)


def test_min_labels_adversarial_chain_and_empty():
    """A chain whose ids rise away from its min end, and one that zigzags,
    resolve to the min; an empty pair set gives an empty typed table."""
    up = [(i, i + 1) for i in range(500)]
    zig = [(10_000 + i, 10_000 + (i + 1) * 7919 % 1000) for i in range(999)]
    t = _edges(up + zig)
    assert _clusters(dd.dedup_clusters(t)) == _reference_clusters(t)
    empty = dd.dedup_clusters(_edges([]))
    assert empty.num_rows == 0
    assert empty.schema == pa.schema([("doc_id", pa.int64()),
                                      ("rep_id", pa.int64())])


def test_label_propagation_resolves_a_falling_chain(ray_session,
                                                   monkeypatch):
    """The distributed plan converges on a chain whose ids fall away from
    its min (0 - 80 - 79 - ... - 1): a local min at the far end must not
    make the min travel one hop per round past the round cap."""
    from ocr_proofreader_ray.ops import agg

    path = [0] + list(range(80, 0, -1))
    t = _edges(list(zip(path[:-1], path[1:])))
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    assert _clusters(dd.dedup_clusters(t)) == _reference_clusters(t)
