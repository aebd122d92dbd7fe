"""PII scrubbing, normalization, heavy hitters, dedup clusters (round 2
LLM-pipeline operators).  The SQL-expressible ones are also covered by the
oracle replica in test_relational_oracle.py; these tests plant inputs the
synthetic tables don't contain (emails, phone numbers, near-dup chains)."""

import pyarrow as pa

from ocr_proofreader_ray.pipelines.dedup import dedup_clusters
from ocr_proofreader_ray.pipelines.text_analysis import scrub_pii_batch


def test_scrub_planted_pii():
    b = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array([
            "contact me at alice.smith+work@example.co.uk today",
            "call +14155551234 or mail bob@ex.io",
            "nothing sensitive here",
        ]),
    })
    out = scrub_pii_batch(b).column("scrubbed").to_pylist()
    assert out[0] == "contact me at <EMAIL> today"
    assert out[1] == "call <PHONE> or mail <EMAIL>"
    assert out[2] == "nothing sensitive here"


def test_dedup_clusters_transitive():
    # chain 1-2, 2-3 plus island 7-8: components {1,2,3} and {7,8}
    pairs = pa.table({
        "doc_a": pa.array([2, 1, 7], pa.int64()),
        "doc_b": pa.array([3, 2, 8], pa.int64()),
    })
    out = dedup_clusters(pairs)
    got = dict(zip(out.column("doc_id").to_pylist(),
                   out.column("rep_id").to_pylist()))
    assert got == {1: 1, 2: 1, 3: 1, 7: 7, 8: 7}


def test_dedup_clusters_empty():
    pairs = pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64())})
    assert dedup_clusters(pairs).num_rows == 0


def test_cluster_pipeline_on_planted_chain(ray_session):
    """A~B and B~C at jaccard 0.5 without A~C: the cluster must still unite
    all three (transitivity is the point of resolution)."""
    import ray.data

    from ocr_proofreader_ray.pipelines.dedup import minhash_lsh_pairs

    a = [f"a{i}" for i in range(60)]
    c = [f"c{i}" for i in range(60)]
    b = a[:50] + c[:50]  # J(a,b) = J(b,c) = 50/110 ≈ 0.45, J(a,c) = 0
    rows = [
        {"doc_id": 1, "text": " ".join(a)},
        {"doc_id": 2, "text": " ".join(b)},
        {"doc_id": 3, "text": " ".join(c)},
        {"doc_id": 4, "text": " ".join(f"z{i}" for i in range(60))},
    ]
    ds = ray.data.from_arrow(pa.Table.from_pylist(rows))
    pairs = minhash_lsh_pairs(ds, shingle_n=1, jaccard_threshold=0.4)
    found = {(r["doc_a"], r["doc_b"]) for r in pairs.take_all()}
    assert (1, 2) in found and (2, 3) in found and (1, 3) not in found
    clusters = dedup_clusters(pairs)
    got = dict(zip(clusters.column("doc_id").to_pylist(),
                   clusters.column("rep_id").to_pylist()))
    assert got == {1: 1, 2: 1, 3: 1}


def test_cms_overestimates_never_under():
    import numpy as np

    from ocr_proofreader_ray.functions.cms import CountMinSketch

    rng = np.random.RandomState(7)
    keys = rng.randint(0, 2**62, size=5000).astype(np.uint64)
    weights = rng.randint(1, 50, size=5000)
    true = {}
    for k_, w in zip(keys.tolist(), weights.tolist()):
        true[k_] = true.get(k_, 0) + w
    sk = CountMinSketch(width=1 << 14, depth=4)
    sk.add(keys, weights)
    uk = np.fromiter(true.keys(), dtype=np.uint64)
    est = sk.estimate(uk)
    tv = np.fromiter(true.values(), dtype=np.int64)
    assert (est >= tv).all()
    # total mass small vs width -> estimates are near-exact on average
    assert float((est - tv).mean()) < 5.0

    # mergeability: two half-sketches sum to the whole
    a, b = CountMinSketch(1 << 14, 4), CountMinSketch(1 << 14, 4)
    a.add(keys[:2500], weights[:2500])
    b.add(keys[2500:], weights[2500:])
    a.merge(b)
    assert np.array_equal(a.counts, sk.counts)


def test_heavy_hitters_approx_matches_exact_on_planted(ray_session, tmp_path):
    """Planted corpus where CMS error << count gaps: approx == exact."""
    import pyarrow.parquet as pq

    from ocr_proofreader_ray.pipelines.text_analysis import (
        q_heavy_hitters,
        q_heavy_hitters_approx,
    )

    texts, langs, ids = [], [], []
    doc = 0
    for lang in ("en", "de"):
        words = []
        for i in range(30):
            words += [f"{lang}hh{i}"] * (100 - 3 * i)  # clear frequency gaps
        for i in range(500):
            words.append(f"{lang}rare{i}")
        for start in range(0, len(words), 200):
            texts.append(" ".join(words[start:start + 200]))
            langs.append(lang)
            ids.append(doc)
            doc += 1
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "lang": pa.array(langs),
                             "text": pa.array(texts)}),
                   str(tmp_path / "documents.parquet"))

    exact = q_heavy_hitters(str(tmp_path))
    approx = q_heavy_hitters_approx(str(tmp_path))
    to_set = lambda t: {(l, tok, c) for l, tok, c in zip(
        t.column(0).to_pylist(), t.column(1).to_pylist(),
        t.column(2).to_pylist())}
    assert to_set(approx) == to_set(exact)


def test_pack_sequences_invariants(ray_session):
    import pandas as pd
    import pyarrow.parquet as pq

    from ocr_proofreader_ray.pipelines.text_analysis import q_pack_sequences

    sf = "/root/testdata/sf0.001"
    budget = 256
    packs = q_pack_sequences(sf, budget=budget).to_pandas()
    n_docs_total = pq.read_metadata(f"{sf}/documents.parquet").num_rows

    # coverage: every document lands in exactly one pack
    assert int(packs["n_docs"].sum()) == n_docs_total
    # budget respected except single-doc whale packs (flagged)
    over = packs[packs["overflow"]]
    assert (over["n_docs"] == 1).all()
    assert (packs.loc[~packs["overflow"], "total_tokens"] <= budget).all()
    # pack ids unique; fill_frac consistent with totals
    assert packs["pack_id"].is_unique
    assert (packs["fill_frac"] * budget - packs["total_tokens"]).abs().max() < 1e-9

    # determinism: a second run yields the identical table (packing happens
    # within fixed doc_id ranges, independent of block boundaries)
    packs2 = q_pack_sequences(sf, budget=budget).to_pandas()
    key = ["pack_id"]
    pd.testing.assert_frame_equal(
        packs.sort_values(key).reset_index(drop=True),
        packs2.sort_values(key).reset_index(drop=True))


def test_mixture_sample_rates(ray_session):
    from ocr_proofreader_ray.pipelines.text_analysis import q_mixture_sample

    got = q_mixture_sample("/root/testdata/sf0.001").to_pandas()
    assert len(got) > 0
    # every source's selected permille stays under its rate bound
    idx = got["source"].str[3:].astype(int)
    rate = (idx * 37) % 900 + 50
    assert ((got["doc_id"] % 1000) < rate).all()


def test_contamination_screen_finds_planted_probe(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from ocr_proofreader_ray.pipelines.text_analysis import (
        q_contamination_screen,
    )

    # doc 0 supplies the probe (chars 50:90); docs 40/41 are "contaminated"
    # with that exact span mid-text, doc 42 is clean
    base = " ".join(f"w{i}" for i in range(40))  # > 90 chars
    probe = base[50:90]
    texts = {0: base}
    for i in range(1, 20):
        texts[i] = f"filler {i:03d} " * 20  # unique even at probe offset
    texts[40] = "prefix text " + probe + " suffix text"
    texts[41] = probe * 2
    texts[42] = "completely unrelated content with no overlap at all " * 3
    ids = sorted(texts)
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()),
                  "text": pa.array([texts[i] for i in ids])}),
        str(tmp_path / "documents.parquet"))

    got = q_contamination_screen(str(tmp_path)).to_pandas()
    hits = {r.probe_id: r.n_matched for r in got.itertuples()}
    # probe 0 matches its source plus the two planted docs
    assert hits[0] == 3
    # every filler probe matches only itself
    assert all(v == 1 for k, v in hits.items() if k != 0)


def test_source_cap_paths_equivalent(ray_session, monkeypatch):
    """Driver-merge and shuffle plans of q_source_cap must select the
    identical capped corpus (both exact; also oracle-pinned in
    test_relational_oracle.py)."""
    import pandas as pd

    import ocr_proofreader_ray.ops.agg as agg
    from ocr_proofreader_ray.pipelines.text_analysis import q_source_cap

    sf = "/root/testdata/sf0.001"

    def canon(r):
        df = r.to_pandas() if not isinstance(r, pd.DataFrame) else r
        return df.sort_values(["source", "doc_id"]).reset_index(drop=True)

    a = canon(q_source_cap(sf))
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    b = canon(q_source_cap(sf))
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    # every source holds at most the cap, with the lowest doc_ids kept
    sizes = a.groupby("source")["doc_id"].count()
    assert (sizes <= 10).all()


def test_typicality_broadcast_and_join_paths_equivalent(ray_session,
                                                        monkeypatch):
    """The broadcast and shuffle-join plans of q_typicality_buckets' count
    join, and the driver and bisection plans of its tercile selection,
    must produce identical per-doc scores and terciles (both exact;
    oracle-pinned in test_relational_oracle.py)."""
    import pandas as pd

    from ocr_proofreader_ray.ops import agg, join, selection
    from ocr_proofreader_ray.pipelines.text_analysis import (
        q_typicality_buckets,
    )

    sf = "/root/testdata/sf0.001"

    def canon(r):
        df = r.to_pandas() if not isinstance(r, pd.DataFrame) else r
        return df.sort_values(["doc_id"]).reset_index(drop=True)

    broadcast_bytes = []
    real_gathered = join._gathered

    def gathered(ds):
        ds, table = real_gathered(ds)
        broadcast_bytes.append(ds.size_bytes())
        return ds, table

    with monkeypatch.context() as m:
        m.setattr(join, "_gathered", gathered)
        a = canon(q_typicality_buckets(sf))
    with monkeypatch.context() as m:
        m.setattr(agg, "_DRIVER_MAX_BYTES", 0)
        b = canon(q_typicality_buckets(sf))
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    # distributed bisection selection must find the identical thresholds
    # (and so identical terciles) as the driver gather: a bound at the
    # count table's bytes keeps the count join a broadcast and bisects
    # the larger (lang, score) selection input
    bisected = []
    real_bisect = selection._kth_bisect

    def bisect(*args):
        bisected.append(args)
        return real_bisect(*args)

    with monkeypatch.context() as m:
        m.setattr(agg, "_DRIVER_MAX_BYTES", max(broadcast_bytes))
        m.setattr(selection, "_kth_bisect", bisect)
        c = canon(q_typicality_buckets(sf))
    assert bisected
    pd.testing.assert_frame_equal(a, c, check_dtype=False)
    # terciles split each language into near-equal thirds (exact order
    # statistics: sizes differ by at most the tie mass at the cut)
    for lang, g in a.groupby("lang"):
        n = len(g)
        counts = g["tercile"].value_counts()
        assert set(counts.index) <= {0, 1, 2}
        if n >= 3:
            assert counts.get(0, 0) >= 1 and counts.get(2, 0) >= 1


def test_bm25_topk_matches_pure_python(ray_session):
    import math

    import pyarrow.parquet as pq

    from ocr_proofreader_ray.pipelines.text_analysis import (
        _BM25_B,
        _BM25_K1,
        _BM25_QUERY,
        q_bm25_topk,
    )

    sf = "/root/testdata/sf0.001"
    t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    rows = list(zip(t.column("doc_id").to_pylist(),
                    t.column("text").to_pylist()))
    toks = {d: (txt or "").split(" ") for d, txt in rows}
    n = len(rows)
    avgdl = sum(len(v) for v in toks.values()) / n
    scores = {}
    for term in _BM25_QUERY:
        df = sum(1 for v in toks.values() if term in v)
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for d, v in toks.items():
            tf = v.count(term)
            dl_norm = _BM25_K1 * (1.0 - _BM25_B + _BM25_B * len(v) / avgdl)
            scores[d] = scores.get(d, 0.0) + idf * tf * (_BM25_K1 + 1.0) / (tf + dl_norm)
    want = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]

    got = q_bm25_topk(sf)
    got_rows = list(zip(got.column("doc_id").to_pylist(),
                        got.column("score").to_pylist()))
    assert [d for d, _ in got_rows] == [d for d, _ in want]
    for (_, gs), (_, ws) in zip(got_rows, want):
        assert abs(gs - ws) < 1e-12
