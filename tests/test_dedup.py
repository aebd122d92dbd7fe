"""Unit tests for sketching primitives + the MinHash-LSH near-dup pipeline
on constructed near-duplicates (driver brief: dedup operators)."""

import numpy as np
import pyarrow as pa
import pytest

from ocr_proofreader_ray.functions.sketches import (
    MinHasher,
    hamming64,
    shingles,
    simhash64,
    stable_hash32,
    stable_hash64,
)


def _reference_verify(rows, pairs, element_rows, thr_num, thr_den):
    """Broadcast-set verification (what ``minhash_lsh_pairs(token_sets=)``
    ran): one Python set per doc, one pass over the (doc_a, doc_b) pairs;
    returns the kept (doc_a, doc_b, inter, uni) tuples."""
    sets = {r["doc_id"]: set(element_rows(r["text"])) for r in rows}
    out = set()
    for a, b in pairs:
        sa, sb = sets.get(a, set()), sets.get(b, set())
        inter, uni = len(sa & sb), len(sa | sb)
        if uni and inter * thr_den >= thr_num * uni:
            out.add((a, b, inter, uni))
    return out


def _as_set(recs):
    return {(r["doc_a"], r["doc_b"], r["inter"], r["uni"]) for r in recs}


# the two plans of ops.join: broadcast (exact prefilter, broadcast joins)
# and exchange (Bloom prefilter, hash-exchange joins), forced by the one
# driver bound
_PLANS = ["broadcast", "exchange"]


def _force_plan(monkeypatch, plan):
    from ocr_proofreader_ray.ops import agg

    if plan == "exchange":
        monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)


def test_stable_hashes_are_process_independent():
    # pinned values: guard against accidental use of salted hash()
    assert stable_hash32("hello") == 907060870
    assert stable_hash64("hello") == stable_hash64("hello")
    assert stable_hash64("hello") != stable_hash64("hellp")


def test_shingles_basic():
    toks = "a b c d".split()
    assert len(shingles(toks, 3)) == 2
    assert shingles([], 3) == set()
    assert len(shingles(["x"], 3)) == 1  # short doc → whole-doc shingle


def test_minhash_similarity_tracks_jaccard():
    mh = MinHasher(num_perm=256)
    base = [f"tok{i}" for i in range(100)]
    a = shingles(base, 3)
    b = shingles(base[:90] + [f"other{i}" for i in range(10)], 3)
    sa, sb = mh.signature(a), mh.signature(b)
    est = (sa == sb).mean()
    true_j = len(a & b) / len(a | b)
    assert abs(est - true_j) < 0.15


def test_minhash_identical_docs_identical_signatures():
    mh = MinHasher()
    s = shingles("the quick brown fox jumps".split(), 3)
    assert np.array_equal(mh.signature(s), mh.signature(set(s)))


def test_simhash_near_duplicates_close():
    from collections import Counter

    doc = Counter(("word%d" % (i % 50) for i in range(200)))
    near = Counter(doc)
    near["extra_token"] = 1
    far = Counter(("other%d" % i for i in range(100)))
    assert hamming64(simhash64(doc), simhash64(near)) <= 8
    assert hamming64(simhash64(doc), simhash64(far)) > 10


def test_minhash_lsh_pipeline_finds_planted_dups(ray_session, monkeypatch):
    import ray.data

    from ocr_proofreader_ray.ops import agg
    from ocr_proofreader_ray.pipelines.dedup import (
        _band_rows,
        _candidate_pairs,
        _shingle_elements,
        _verify_pairs,
    )

    base = " ".join(f"tok{i % 40}x{i % 7}" for i in range(120))
    near = base.replace("tok3x3", "changed", 1)  # ~1 token differs
    other = " ".join(f"zzz{i}" for i in range(120))
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": near},
        {"doc_id": 3, "text": other},
        {"doc_id": 4, "text": base},  # exact dup of 1
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    for bound in (agg._DRIVER_MAX_BYTES, 0):  # broadcast, exchange
        monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", bound)
        pairs = _verify_pairs(ds, _candidate_pairs(_band_rows(ds, 3)),
                              _shingle_elements(3), thr_num=500_000,
                              thr_den=1_000_000).take_all()
        found = {(p["doc_a"], p["doc_b"]) for p in pairs}
        assert (1, 4) in found          # exact dup
        assert (1, 2) in found          # near dup
        assert not any(3 in p for p in found)  # unrelated doc clean


def test_embedding_neardup_pairs(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from ocr_proofreader_ray.pipelines.dedup import q_dedup_embedding

    rng = np.random.RandomState(3)
    base = rng.standard_normal(16).astype(np.float32)
    vecs = [base, base + 1e-4 * rng.standard_normal(16).astype(np.float32),
            rng.standard_normal(16).astype(np.float32)]
    tab = pa.table({
        "vec_id": pa.array([0, 1, 2], pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array([0, 0, 0], pa.int32()),
    })
    pq.write_table(tab, str(tmp_path / "embeddings.parquet"))
    pairs = q_dedup_embedding(str(tmp_path)).take_all()
    keys = {(p["vec_a"], p["vec_b"]) for p in pairs}
    assert keys == {(0, 1)}


def test_embedding_null_label_is_a_group(ray_session, tmp_path):
    """Rows with a null label pair among themselves, as one group, and
    never with a labelled row; the input spans two files."""
    import pyarrow.parquet as pq

    from ocr_proofreader_ray.pipelines.dedup import q_dedup_embedding

    rng = np.random.RandomState(5)
    base = rng.standard_normal(16).astype(np.float32)
    vecs = [base + 1e-4 * rng.standard_normal(16).astype(np.float32)
            for _ in range(6)]
    emb = tmp_path / "embeddings.parquet"
    emb.mkdir()
    for part, ids, labels in (("a", [0, 1, 2], [0, None, 0]),
                              ("b", [3, 4, 5], [None, 0, 1])):
        pq.write_table(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([vecs[i].tolist() for i in ids],
                                  pa.list_(pa.float32())),
            "label": pa.array(labels, pa.int32()),
        }), str(emb / f"{part}.parquet"))
    pairs = q_dedup_embedding(str(tmp_path)).take_all()
    assert sorted((p["vec_a"], p["vec_b"]) for p in pairs) == [
        (0, 2), (0, 4), (1, 3), (2, 4)]


def test_embedding_scheme_two_widths_agree(ray_session, tmp_path):
    """VERDICT r02 #2: the planted near-dup pair must be recalled at both
    the narrow (8-bit) and wide (16-bit) hyperplane bucketing, and the
    width chooser must respond to corpus size."""
    import pyarrow.parquet as pq

    from ocr_proofreader_ray.pipelines.dedup import (
        _emb_scheme,
        q_dedup_embedding,
    )

    rng = np.random.RandomState(7)
    base = rng.standard_normal(32).astype(np.float32)
    vecs = [base, base + 1e-4 * rng.standard_normal(32).astype(np.float32)]
    vecs += [rng.standard_normal(32).astype(np.float32) for _ in range(40)]
    tab = pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * len(vecs), pa.int32()),
    })
    pq.write_table(tab, str(tmp_path / "embeddings.parquet"))

    for scheme in ((8, 10), (16, 18)):
        pairs = q_dedup_embedding(str(tmp_path), scheme=scheme).take_all()
        assert {(p["vec_a"], p["vec_b"]) for p in pairs} == {(0, 1)}, scheme

    # expected bucket population corpus/2^bits tracks the 256-member target
    assert _emb_scheme(1_000)[0] == 8
    assert _emb_scheme(256 * (1 << 16))[0] == 16
    assert _emb_scheme(10**12)[0] == 24
    # wider keys demand more tables to hold the same miss probability
    assert _emb_scheme(10**12)[1] > _emb_scheme(1_000)[1]


def test_minhash_shuffle_verify_matches_broadcast(ray_session, monkeypatch):
    """VERDICT r01 #1: the scale-safe exchange verification must produce
    the identical pair set as broadcast Python-set verification."""
    import ray.data

    from ocr_proofreader_ray.pipelines.dedup import (
        _band_rows,
        _candidate_pairs,
        _shingle_elements,
        _verify_pairs,
        minhash_lsh_pairs,
    )

    rng = np.random.RandomState(11)
    rows = []
    base = " ".join(f"tok{i % 40}x{i % 7}" for i in range(120))
    rows.append({"doc_id": 1, "text": base})
    rows.append({"doc_id": 2, "text": base.replace("tok3x3", "changed", 1)})
    rows.append({"doc_id": 3, "text": " ".join(f"zzz{i}" for i in range(120))})
    rows.append({"doc_id": 4, "text": base})
    rows.append({"doc_id": 5, "text": ""})  # empty doc: must not pair
    for d in range(6, 30):  # background corpus
        words = [f"w{rng.randint(0, 500)}" for _ in range(60)]
        rows.append({"doc_id": d, "text": " ".join(words)})
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))

    pairs = _candidate_pairs(_band_rows(ds, 3))
    old = _reference_verify(
        rows, [(p["doc_a"], p["doc_b"]) for p in pairs.take_all()],
        lambda text: shingles((text or "").split(), 3),
        thr_num=500_000, thr_den=1_000_000)
    new = minhash_lsh_pairs(ds, shingle_n=3,
                            jaccard_threshold=0.5).take_all()

    assert old == _as_set(new)
    assert (1, 4) in {(r["doc_a"], r["doc_b"]) for r in new}

    # the default broadcasts at this size; force the exchange plan too and
    # pin all three paths identical
    _force_plan(monkeypatch, "exchange")
    shuffled = _verify_pairs(ds, pairs, _shingle_elements(3),
                             thr_num=500_000, thr_den=1_000_000)
    assert _as_set(shuffled.take_all()) == _as_set(new)


def test_simhash_hamming_finds_planted_neardups(ray_session):
    """VERDICT r01 #4: Hamming-ball banding must find docs whose SimHash
    differs in 1-3 bits (verified precondition), and skip distant docs."""
    from collections import Counter

    import ray.data

    from ocr_proofreader_ray.pipelines.dedup import simhash_hamming_pairs

    base = " ".join(f"word{i % 50}" for i in range(200))
    near = base + " extra_token"  # tiny perturbation → few flipped bits
    far = " ".join(f"other{i}" for i in range(100))
    # precondition: the planted pair really is within the Hamming ball
    d_near = hamming64(simhash64(Counter(base.split())),
                       simhash64(Counter(near.split())))
    d_far = hamming64(simhash64(Counter(base.split())),
                      simhash64(Counter(far.split())))
    assert d_near <= 3 < d_far

    ds = ray.data.from_arrow(pa.Table.from_pylist([
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": near},
        {"doc_id": 3, "text": far},
        {"doc_id": 4, "text": base},  # identical → distance 0
    ]))
    pairs = simhash_hamming_pairs(ds).to_pylist()
    found = {(p["doc_a"], p["doc_b"]): p["hamming"] for p in pairs}
    assert found[(1, 4)] == 0
    assert found[(1, 2)] == d_near
    assert found[(2, 4)] == d_near
    assert not any(3 in k for k in found)


def test_lsh_flood_bucket_emits_star_pairs(ray_session):
    """VERDICT r02 #1: m identical templated pages (boilerplate flood) must
    produce O(m) candidate pairs — star edges to the bucket min — not m^2/2,
    and still resolve to ONE dedup cluster with the min doc_id as rep."""
    import ray.data

    from ocr_proofreader_ray.pipelines.dedup import (
        _band_rows,
        _candidate_pairs,
        dedup_clusters,
        minhash_lsh_pairs,
    )

    m = 10_000
    template = " ".join(f"boiler{i}" for i in range(12))
    tab = pa.table({
        "doc_id": pa.array(np.arange(1, m + 1), pa.int64()),
        "text": pa.array([template] * m),
    })
    ds = ray.data.from_arrow(tab)

    cand = _candidate_pairs(_band_rows(ds, 3))  # Dataset (r04: streams)
    assert cand.count() == m - 1           # star, not all-pairs
    cand_pd = cand.to_pandas()
    assert set(cand_pd["doc_a"]) == {1}    # bucket min

    pairs = minhash_lsh_pairs(ds, shingle_n=3, jaccard_threshold=0.5)
    clusters = dedup_clusters(pairs)
    assert clusters.num_rows == m
    assert set(clusters.column("rep_id").to_pylist()) == {1}


def test_star_cap_below_threshold_keeps_all_pairs(ray_session):
    """Buckets at or below star_cap keep exact all-pairs emission — forcing
    star_cap low on the same corpus must switch the plan (star) while the
    default returns every pair of the 4-dup group."""
    import ray.data

    from ocr_proofreader_ray.pipelines.dedup import minhash_lsh_pairs

    base = " ".join(f"tok{i % 40}x{i % 7}" for i in range(120))
    rows = [{"doc_id": d, "text": base} for d in (1, 2, 3, 4)]
    rows.append({"doc_id": 5, "text": " ".join(f"zzz{i}" for i in range(120))})
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))

    full = minhash_lsh_pairs(ds, shingle_n=3, jaccard_threshold=0.5)
    keys = {(r["doc_a"], r["doc_b"]) for r in full.take_all()}
    assert keys == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}

    star = minhash_lsh_pairs(ds, shingle_n=3, jaccard_threshold=0.5,
                             star_cap=2)
    star_keys = {(r["doc_a"], r["doc_b"]) for r in star.take_all()}
    assert star_keys == {(1, 2), (1, 3), (1, 4)}


def test_simhash_hamming_two_key_widths_agree(ray_session):
    """VERDICT r02 #2: planted near-dup recall must hold at both the narrow
    (4 blocks, concat 1 → 16-bit keys) and wide (6 blocks, concat 3 →
    ~31-bit keys) banding schemes, with identical verified output — the
    exact Hamming verification makes width a pure bucketing choice."""
    import ray.data

    from ocr_proofreader_ray.pipelines.dedup import (
        _sim_scheme,
        simhash_hamming_pairs,
    )

    base = " ".join(f"word{i % 50}" for i in range(200))
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base + " extra_token"},
        {"doc_id": 3, "text": " ".join(f"other{i}" for i in range(100))},
        {"doc_id": 4, "text": base},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))

    results = []
    for scheme in ((4, 1), (6, 3)):
        pairs = simhash_hamming_pairs(ds, scheme=scheme)
        results.append({(r["doc_a"], r["doc_b"]): r["hamming"]
                        for r in pairs.to_pylist()})
    assert results[0] == results[1]
    assert results[0][(1, 4)] == 0
    assert (1, 2) in results[0]
    assert not any(3 in k for k in results[0])
    # the width chooser: small corpora narrow, trillion-scale wide
    assert _sim_scheme(10_000) == (4, 1)
    assert _sim_scheme(10**12) == (6, 3)


def test_simhash_hamming_degenerate_buckets_stay_linear(ray_session):
    """ADVICE r02: empty docs (simhash 0) must emit no pairs, and m docs
    with IDENTICAL fingerprints must produce O(m) star edges, not m^2/2."""
    import ray.data

    from ocr_proofreader_ray.pipelines.dedup import simhash_hamming_pairs

    m = 500
    template = " ".join(f"boiler{i % 30}" for i in range(80))
    rows = [{"doc_id": d, "text": template} for d in range(1, m + 1)]
    rows += [{"doc_id": m + 1, "text": ""},
             {"doc_id": m + 2, "text": "   \n\t "},
             {"doc_id": m + 3, "text": None}]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))

    pairs = simhash_hamming_pairs(ds).to_pylist()
    assert len(pairs) == m - 1                     # star, not all-pairs
    assert all(p["doc_a"] == 1 and p["hamming"] == 0 for p in pairs)
    assert not any(p["doc_b"] > m for p in pairs)  # empty docs pair-free


def test_dedup_keep_drops_cluster_members(ray_session, tmp_path):
    """q_dedup_keep must drop exactly the non-representative members of
    near-dup clusters and keep everything else."""
    import pyarrow.parquet as pq

    from ocr_proofreader_ray.pipelines.dedup import q_dedup_keep

    base = " ".join(f"tok{i % 40}x{i % 7}" for i in range(120))
    rows = [
        {"doc_id": 1, "text": base, "lang": "en", "source": "a"},
        {"doc_id": 2, "text": base, "lang": "en", "source": "a"},
        {"doc_id": 3, "text": base.replace("tok3x3", "changed", 1),
         "lang": "en", "source": "a"},
        {"doc_id": 4, "text": " ".join(f"zzz{i}" for i in range(120)),
         "lang": "de", "source": "b"},
    ]
    pq.write_table(pa.Table.from_pylist(rows),
                   str(tmp_path / "documents.parquet"))
    kept = sorted(r["doc_id"] for r in q_dedup_keep(str(tmp_path)).take_all())
    assert kept == [1, 4]  # 2 and 3 collapse into 1's cluster


def test_label_propagation_matches_union_find(ray_session, monkeypatch):
    """VERDICT r02 #9: the distributed min-label-propagation fallback must
    produce exactly the union-find components — including a long chain
    (multi-round convergence) and an isolated pair."""
    from ocr_proofreader_ray.pipelines.dedup import (
        _clusters_label_propagation,
        dedup_clusters,
    )

    rng = np.random.RandomState(5)
    edges = [(int(a), int(b)) for a, b in
             rng.randint(0, 60, size=(80, 2)) if a != b]
    edges += [(1000 + i, 1001 + i) for i in range(6)]  # 7-node chain
    edges += [(5000, 5001)]
    pairs = pa.table({
        "doc_a": pa.array([min(e) for e in edges], pa.int64()),
        "doc_b": pa.array([max(e) for e in edges], pa.int64()),
    })

    import ocr_proofreader_ray.ops.agg as agg

    uf = dedup_clusters(pairs)                       # driver kernel
    # bound 0 forces the distributed path through the public switch
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    lp = dedup_clusters(pairs)
    assert uf.column("doc_id").to_pylist() == lp.column("doc_id").to_pylist()
    assert uf.column("rep_id").to_pylist() == lp.column("rep_id").to_pylist()
    # chain resolved to its min across 6 hops (multi-round + pointer jump)
    reps = dict(zip(lp.column("doc_id").to_pylist(),
                    lp.column("rep_id").to_pylist()))
    assert all(reps[1000 + i] == 1000 for i in range(7))
    assert reps[5001] == 5000
    assert _clusters_label_propagation is dedup_clusters.__globals__[
        "_clusters_label_propagation"]  # the switch targets the real impl


def test_cand_elements_bloom_path_identical(ray_session, monkeypatch):
    """Forcing the Bloom semi-filter (broadcast bound 0) must yield the same
    verified pairs as the exact key-set path — FPs only waste explode work."""
    import ray.data

    from ocr_proofreader_ray.ops import agg
    from ocr_proofreader_ray.pipelines.dedup import (
        _band_rows,
        _candidate_pairs,
        _shingle_elements,
        _verify_pairs,
    )

    base = " ".join(f"tok{i % 40}x{i % 7}" for i in range(120))
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base.replace("tok3x3", "changed", 1)},
        {"doc_id": 3, "text": " ".join(f"zzz{i}" for i in range(120))},
        {"doc_id": 4, "text": base},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    pairs = _candidate_pairs(_band_rows(ds, 3))

    results = []
    for bound in (agg._DRIVER_MAX_BYTES, 0):  # exact, then forced Bloom
        monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", bound)
        out = _verify_pairs(ds, pairs, _shingle_elements(3),
                            thr_num=500_000, thr_den=1_000_000)
        results.append(_as_set(out.take_all()))
    assert results[0] == results[1]
    assert any(p[:2] == (1, 4) for p in results[0])


def test_segment_dedup_planted(ray_session, tmp_path):
    """A doc identical to an earlier one keeps ZERO windows; a doc sharing
    an aligned 10-token prefix loses exactly that window; unique docs keep
    everything."""
    import pyarrow.parquet as pq

    from ocr_proofreader_ray.pipelines.dedup import q_segment_dedup

    first = " ".join(f"w{i}" for i in range(25))          # 3 windows
    prefix_share = " ".join(f"w{i}" for i in range(10)) + " " + \
        " ".join(f"x{i}" for i in range(10))              # 2 windows, 1st shared
    unique = " ".join(f"u{i}" for i in range(12))         # 2 windows
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [first, first, prefix_share, unique],
        "lang": ["en"] * 4,
        "source": ["s"] * 4,
    }), str(tmp_path / "documents.parquet"))

    got = {r["doc_id"]: (r["n_segments"], r["n_kept"])
           for r in q_segment_dedup(str(tmp_path)).take_all()}
    assert got == {1: (3, 3), 2: (3, 0), 3: (2, 1), 4: (2, 2)}


def test_segment_dedup_ray_final_path(ray_session, monkeypatch):
    """Forced-low merge bound exercises the at-scale exchange merge: same
    values as the driver merge, returned as a Dataset."""
    from ocr_proofreader_ray.ops import agg
    from ocr_proofreader_ray.pipelines import dedup as dmod

    sf = "/root/testdata/sf0.001"
    driver = dmod.q_segment_dedup(sf).to_pandas()
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    ray_final = dmod.q_segment_dedup(sf)
    assert hasattr(ray_final, "to_pandas") and not isinstance(
        ray_final, pa.Table)
    got = ray_final.to_pandas()
    key = ["doc_id"]
    import pandas as pd
    pd.testing.assert_frame_equal(
        driver.sort_values(key).reset_index(drop=True),
        got[driver.columns].sort_values(key).reset_index(drop=True))


def test_candidate_pairs_ray_exchange_branch_equivalent(ray_session,
                                                        monkeypatch):
    """Force the above-gate exchange pair dedup (the 100-TB path that
    normally needs >20M partial pair rows) and pin it identical to the
    driver merge — same distinct pair set, streaming all the way."""
    import ray.data

    import ocr_proofreader_ray.ops.agg as agg
    import ocr_proofreader_ray.ops.exchange as ex
    import ocr_proofreader_ray.pipelines.dedup as dd

    base = " ".join(f"tok{i % 40}x{i % 7}" for i in range(120))
    rows = [{"doc_id": d, "text": base} for d in (1, 2, 3, 4)]
    rows += [{"doc_id": d, "text": " ".join(f"u{d}w{i}" for i in range(60))}
             for d in range(5, 40)]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))

    # three-way pin across the bound: the bands-driver fast path (default
    # at this size), the exchange + driver pair merge (a bound under the
    # band rows' bytes but over the pair partials'), and the fully
    # distributed exchange + exchange pair merge must emit one set
    calls = []

    def spy(name):
        def run(ds, keys, fn):
            calls.append(name)
            return ex.exchange(ds, keys, fn)
        return run

    monkeypatch.setattr(dd, "exchange", spy("bands"))
    monkeypatch.setattr(agg, "exchange", spy("pairs"))
    bands = dd._band_rows(ds, 3).materialize()
    small = dd._candidate_pairs(bands).to_pandas()
    assert calls == []
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", bands.size_bytes() - 1)
    mid = dd._candidate_pairs(bands).to_pandas()
    assert calls == ["bands"]
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    big = dd._candidate_pairs(bands).to_pandas()
    assert calls == ["bands", "bands", "pairs"]

    canon = lambda df: sorted(map(tuple, df[["doc_a", "doc_b"]].to_numpy()))
    assert canon(small) == canon(mid) == canon(big)
    assert len(small) == len(set(canon(small)))  # globally distinct
    assert (1, 2) in canon(small)


def test_candidate_pairs_bands_fast_path_bounded_by_pair_count(
        ray_session, monkeypatch):
    """A dup-dense input has few band rows but many pairs: once the pair
    bound of its buckets (16 B a pair) exceeds _DRIVER_MAX_BYTES while the
    band rows still fit it, the bucket-key exchange runs instead of the
    driver expansion, with the same pairs."""
    import ray.data

    import ocr_proofreader_ray.ops.agg as agg
    import ocr_proofreader_ray.ops.exchange as ex
    import ocr_proofreader_ray.pipelines.dedup as dd

    base = " ".join(f"tok{i % 40}x{i % 7}" for i in range(120))
    rows = [{"doc_id": d, "text": base} for d in range(1, 31)]
    rows += [{"doc_id": d, "text": " ".join(f"u{d}w{i}" for i in range(60))}
             for d in range(31, 40)]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    want = dd._candidate_pairs(dd._band_rows(ds, 3)).to_pandas()

    keys = []

    def spy(ds, key_cols, fn):
        keys.append(list(key_cols))
        return ex.exchange(ds, key_cols, fn)

    monkeypatch.setattr(dd, "exchange", spy)
    # the bands fit; the 30 identical docs' 32 shared buckets bound
    # 32 x C(30, 2) pairs, which do not
    bands = dd._band_rows(ds, 3).materialize()
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", bands.size_bytes())
    assert 16 * 32 * (30 * 29 // 2) > bands.size_bytes()
    got = dd._candidate_pairs(bands).to_pandas()

    assert ["band_id", "band_key"] in keys
    canon = lambda df: sorted(map(tuple, df[["doc_a", "doc_b"]].to_numpy()))
    assert canon(got) == canon(want)
    assert len(canon(want)) == 30 * 29 // 2


def test_verify_pairs_streaming_shuffle_threshold_joins(ray_session,
                                                        monkeypatch):
    """Force the fully-streaming verify plan (Bloom prefilter + both set
    joins hash-exchanged + threshold map) and pin it equal to the
    broadcast plan."""
    import ray.data

    import ocr_proofreader_ray.pipelines.dedup as dd

    base = " ".join(f"tok{i % 40}x{i % 7}" for i in range(120))
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base.replace("tok3x3", "changed", 1)},
        {"doc_id": 3, "text": " ".join(f"zzz{i}" for i in range(120))},
        {"doc_id": 4, "text": base},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    pairs = dd._candidate_pairs(dd._band_rows(ds, 3))

    want = dd._verify_pairs(ds, pairs, dd._shingle_elements(3),
                            thr_num=500_000, thr_den=1_000_000).to_pandas()
    _force_plan(monkeypatch, "exchange")
    got = dd._verify_pairs(ds, pairs, dd._shingle_elements(3),
                           thr_num=500_000, thr_den=1_000_000).to_pandas()
    canon = lambda df: sorted(map(tuple, df.to_numpy()))
    assert canon(got) == canon(want)
    assert any(r[:2] == (1, 4) for r in canon(got))


def _verify_by_hand(rows, pairs, thr_num, thr_den):
    import ray.data

    from ocr_proofreader_ray.pipelines.dedup import _verify_pairs

    def _int_elements(text):
        # element ids written out in the text: set sizes are set by hand
        return [int(tok) for tok in (text or "").split()]

    docs = ray.data.from_arrow(pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", pa.int64()),
                                ("text", pa.string())])))
    pair_ds = ray.data.from_arrow(pa.table({
        "doc_a": pa.array([a for a, _ in pairs], pa.int64()),
        "doc_b": pa.array([b for _, b in pairs], pa.int64()),
    })).materialize()
    got = _verify_pairs(docs, pair_ds, _int_elements,
                        thr_num=thr_num, thr_den=thr_den).take_all()
    want = _reference_verify(rows, pairs, _int_elements, thr_num, thr_den)
    assert _as_set(got) == want
    assert len(got) == len(want)  # one row per kept pair
    return _as_set(got)


@pytest.mark.parametrize("plan", _PLANS)
def test_verify_pairs_keeps_pair_at_threshold(ray_session, monkeypatch,
                                              plan):
    """inter * den == num * uni is kept; a repeated element counts once."""
    _force_plan(monkeypatch, plan)
    rows = [
        {"doc_id": 1, "text": "1 2 3 4"},
        {"doc_id": 2, "text": "1 2 3 5 5"},   # inter 3, uni 5 with doc 1
        {"doc_id": 3, "text": "1 2 6 7"},     # inter 2, uni 6 with doc 1
    ]
    got = _verify_by_hand(rows, [(1, 2), (1, 3)], thr_num=3, thr_den=5)
    assert got == {(1, 2, 3, 5)}


@pytest.mark.parametrize("plan", _PLANS)
def test_verify_pairs_empty_text_doc(ray_session, monkeypatch, plan):
    """An empty or null text is an empty set: it never passes a positive
    threshold, and a pair of two empty sets (uni = 0) never passes."""
    _force_plan(monkeypatch, plan)
    rows = [
        {"doc_id": 1, "text": "1 2 3"},
        {"doc_id": 2, "text": ""},
        {"doc_id": 3, "text": None},
    ]
    pairs = [(1, 2), (1, 3), (2, 3)]
    assert _verify_by_hand(rows, pairs, thr_num=1, thr_den=2) == set()
    assert _verify_by_hand(rows, pairs, thr_num=0, thr_den=2) == {
        (1, 2, 0, 3), (1, 3, 0, 3)}


@pytest.mark.parametrize("plan", _PLANS)
def test_verify_pairs_one_doc_in_many_pairs(ray_session, monkeypatch, plan):
    """A hub doc in 40 pairs meets every partner with its own set."""
    _force_plan(monkeypatch, plan)
    hub = " ".join(str(i) for i in range(40))
    rows = [{"doc_id": 1, "text": hub}]
    rows += [{"doc_id": d, "text": " ".join(str(i) for i in range(d, 40 + d))}
             for d in range(2, 42)]
    pairs = [(1, d) for d in range(2, 42)]
    got = _verify_by_hand(rows, pairs, thr_num=1, thr_den=2)
    # partner d shares 40 - d elements of a 40 + d union: kept to d = 13
    assert got == {(1, d, 40 - d, 40 + d) for d in range(2, 14)}
