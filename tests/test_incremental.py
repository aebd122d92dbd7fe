"""Incremental cross-snapshot MinHash dedup (pipelines/incremental.py):
planted duplicates across and within increments, batch equivalence on the
planted fixture, idempotent re-increment of copies, index growth."""

import numpy as np
import pyarrow as pa
import ray

from ocr_proofreader_ray.pipelines.dedup import dedup_clusters, minhash_lsh_pairs
from ocr_proofreader_ray.pipelines.incremental import (
    bootstrap_index,
    dedup_increment,
)


def _text(rng, n_words=30, vocab=1000):
    return " ".join(f"w{rng.integers(0, vocab)}" for _ in range(n_words))


def _docs(rows):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string()),
    })).repartition(3)


def _keep_ids(res) -> list[int]:
    """Sorted doc ids of an exact increment's kept Dataset."""
    from ocr_proofreader_ray.ops.agg import gather

    keep = gather(res["keep"])
    return [] if keep is None else sorted(keep.column("doc_id").to_pylist())


def _fixture():
    rng = np.random.default_rng(42)
    texts = {i: _text(rng) for i in range(1, 11)}
    old = [(i, texts[i]) for i in range(1, 11)]
    old.append((11, texts[1]))          # in-bootstrap duplicate of doc 1
    t22 = _text(rng)
    new = [
        (20, texts[2]),                 # duplicate of retained corpus doc
        (21, t22), (22, t22),           # duplicate pair within increment
        (23, _text(rng)),               # unique
        (24, texts[1]),                 # dup of doc 1 via DROPPED doc 11
    ]
    return old, new


def test_increment_drops_and_keeps(ray_session, tmp_path):
    old, new = _fixture()
    work = str(tmp_path / "w1")
    drop_old = bootstrap_index(_docs(old), work)
    assert drop_old.to_pylist() == [11]

    kept_old = _docs([r for r in old if r[0] != 11])
    res = dedup_increment(_docs(new), kept_old, work, "inc-1")
    assert res["keep_ids"].to_pylist() == [21, 23]
    assert res["n_new"] == 5
    assert res["n_dropped_vs_corpus"] == 2      # 20 and 24
    assert res["n_dropped_within_increment"] == 1  # 22

    # equivalence with the batch plan on the planted fixture
    pairs = minhash_lsh_pairs(_docs(old + new), shingle_n=3,
                              jaccard_threshold=0.5)
    clusters = dedup_clusters(pairs)
    batch_drop = {d for d, r in zip(clusters.column("doc_id").to_pylist(),
                                    clusters.column("rep_id").to_pylist())
                  if d != r}
    batch_keep = sorted({r[0] for r in old + new} - batch_drop)
    inc_keep = sorted([r[0] for r in old if r[0] != 11]
                      + res["keep_ids"].to_pylist())
    assert inc_keep == batch_keep


def test_second_increment_of_copies_all_dropped(ray_session, tmp_path):
    old, new = _fixture()
    work = str(tmp_path / "w2")
    bootstrap_index(_docs(old), work)
    kept_old = _docs([r for r in old if r[0] != 11])
    res1 = dedup_increment(_docs(new), kept_old, work, "inc-1")

    # copies of the SURVIVORS of increment 1 under fresh ids: the index
    # grew, so every copy must now be dropped vs the corpus
    by_id = dict(new)
    copies = [(30, by_id[21]), (31, by_id[23])]
    corpus2 = _docs([r for r in old if r[0] != 11]
                    + [r for r in new if r[0] in res1["keep_ids"].to_pylist()])
    res2 = dedup_increment(_docs(copies), corpus2, work, "inc-2")
    assert res2["keep_ids"].to_pylist() == []
    assert res2["n_dropped_vs_corpus"] == 2



def _as_four_column_index(batch_dir: str) -> None:
    """Rewrite an index batch in the layout band rows had while they
    carried a ``part`` int32 partition column as a fourth column."""
    import glob

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    files = glob.glob(f"{batch_dir}/*.parquet")
    assert files
    for f in files:
        tab = pq.read_table(f)
        assert tab.column_names == ["doc_id", "band_id", "band_key"]
        part = pc.cast(pc.bit_wise_and(tab.column("band_key"), 127),
                       pa.int32())
        pq.write_table(tab.append_column("part", part), f)


def test_increment_over_index_batch_with_part_column(ray_session, tmp_path):
    """An index written with the four-column band layout still unions
    with new three-column band rows: two increments over it (the second
    reads a mixed-layout index) give the same keep ids and drop counts as
    over an all-new index."""
    old, new = _fixture()
    by_id = dict(new)
    copies = [(30, by_id[21]), (31, by_id[23])]
    kept_old = [r for r in old if r[0] != 11]
    corpus2 = kept_old + [r for r in new if r[0] in (21, 23)]
    runs = []
    for legacy in (False, True):
        work = str(tmp_path / f"w{int(legacy)}")
        bootstrap_index(_docs(old), work)
        if legacy:
            _as_four_column_index(f"{work}/band_index/bootstrap")
        res1 = dedup_increment(_docs(new), _docs(kept_old), work, "inc-1")
        res2 = dedup_increment(_docs(copies), _docs(corpus2), work, "inc-2")
        runs.append([
            (r["keep_ids"].to_pylist(), r["n_new"], r["n_dropped_vs_corpus"],
             r["n_dropped_within_increment"]) for r in (res1, res2)])
    assert runs[0] == runs[1]
    assert runs[0] == [([21, 23], 5, 2, 1), ([], 2, 2, 0)]

def test_disjoint_increment_all_kept(ray_session, tmp_path):
    rng = np.random.default_rng(7)
    old = [(i, _text(rng)) for i in range(1, 6)]
    new = [(i, _text(rng)) for i in range(10, 15)]
    work = str(tmp_path / "w3")
    bootstrap_index(_docs(old), work)
    res = dedup_increment(_docs(new), _docs(old), work, "inc-1")
    assert res["keep_ids"].to_pylist() == [10, 11, 12, 13, 14]
    assert res["n_dropped_vs_corpus"] == 0
    assert res["n_dropped_within_increment"] == 0


def test_bloom_touch_path_equals_broadcast(ray_session, tmp_path, monkeypatch):
    from ocr_proofreader_ray.ops import agg

    old, new = _fixture()
    results = {}
    for label, bound in [("broadcast", agg._DRIVER_MAX_BYTES),
                         ("bloom", 0)]:
        monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", bound)
        work = str(tmp_path / label)
        bootstrap_index(_docs(old), work)
        kept_old = _docs([r for r in old if r[0] != 11])
        res = dedup_increment(_docs(new), kept_old, work, "inc-1")
        results[label] = res["keep_ids"].to_pylist()
    assert results["broadcast"] == results["bloom"] == [21, 23]


def test_empty_increment_is_noop(ray_session, tmp_path):
    import numpy as np

    rng = np.random.default_rng(1)
    old = [(i, _text(rng)) for i in range(1, 6)]
    work = str(tmp_path / "w4")
    bootstrap_index(_docs(old), work)
    empty = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
    }))
    res = dedup_increment(empty, _docs(old), work, "empty-inc")
    assert res["keep_ids"].to_pylist() == []
    assert res["n_new"] == 0


def test_exact_incremental_planted_fixture(ray_session, tmp_path):
    """Incremental exact dedup: drop byte-identical re-crawls against the
    persisted key index AND within the increment; keep everything else."""
    import pyarrow.parquet as pq

    from ocr_proofreader_ray.pipelines.incremental import (
        q_dedup_exact_incremental,
    )

    rows = [
        # corpus half (doc_id <= (1+20)//2 = 10)
        {"doc_id": 1, "text": "alpha body"},
        {"doc_id": 2, "text": "alpha body"},     # in-corpus exact dup of 1
        {"doc_id": 3, "text": "beta body"},
        # increment half
        {"doc_id": 11, "text": "alpha body"},    # re-crawl: drops vs corpus
        {"doc_id": 12, "text": "gamma body"},
        {"doc_id": 13, "text": "gamma body"},    # within-increment dup of 12
        {"doc_id": 20, "text": "delta body"},
    ]
    pq.write_table(pa.Table.from_pylist(rows),
                   str(tmp_path / "documents.parquet"))
    out = {(r["doc_id"], r["phase"])
           for r in q_dedup_exact_incremental(str(tmp_path)).take_all()}
    assert out == {(1, "bootstrap"), (3, "bootstrap"),
                   (12, "inc-1"), (20, "inc-1")}
    # re-run (same tag) is idempotent: the per-tag index dir overwrites
    out2 = {(r["doc_id"], r["phase"])
            for r in q_dedup_exact_incremental(str(tmp_path)).take_all()}
    assert out2 == out


def test_exact_increment_appends_index(ray_session, tmp_path):
    """A second increment must dedup against keys the FIRST increment
    admitted (the append-only index grows per tag)."""
    from ocr_proofreader_ray.pipelines.incremental import (
        bootstrap_exact_index,
        dedup_exact_increment,
    )

    def _docs(rows):
        return ray.data.from_arrow(pa.Table.from_pylist(
            [{"doc_id": d, "text": t} for d, t in rows]))

    work = str(tmp_path / "w")
    bootstrap_exact_index(_docs([(1, "a"), (2, "b")]), work)
    r1 = dedup_exact_increment(_docs([(10, "c"), (11, "a")]), work, "inc-1")
    assert _keep_ids(r1) == [10]
    assert r1["n_dropped_vs_corpus"] == 1
    # "c" is now retained: a later increment re-crawling it must drop it
    r2 = dedup_exact_increment(_docs([(20, "c"), (21, "d")]), work, "inc-2")
    assert _keep_ids(r2) == [21]
    assert r2["n_dropped_vs_corpus"] == 1
    assert r2["n_dropped_within"] == 0


def test_exact_increment_exchange_plan_matches_driver(ray_session, tmp_path,
                                                      monkeypatch):
    """With the merge and broadcast bounds at 0 the increment collapses,
    filters the index and anti-joins through exchanges; keep ids, both drop
    counters and the appended index batch equal the driver plan's."""
    import os

    import pyarrow.parquet as pq

    from ocr_proofreader_ray.ops import agg
    from ocr_proofreader_ray.pipelines.incremental import (
        _EXACT_INDEX_SUBDIR,
        bootstrap_exact_index,
        dedup_exact_increment,
    )

    old, new = _fixture()
    new = new + [(30, old[3][1]), (31, "fresh text"), (32, "fresh text")]

    def run(work: str):
        bootstrap_exact_index(_docs(old), work)
        res = dedup_exact_increment(_docs(new), work, "inc-1")
        batch = pq.ParquetDataset(
            os.path.join(work, _EXACT_INDEX_SUBDIR, "inc-1")).read()
        return (_keep_ids(res), res["n_dropped_vs_corpus"],
                res["n_dropped_within"],
                sorted(zip(batch.column("h1").to_pylist(),
                           batch.column("h2").to_pylist())))

    driver = run(str(tmp_path / "driver"))
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    assert run(str(tmp_path / "exchange")) == driver
    assert driver[:3] == ([21, 23, 31], 3, 2)
    assert len(driver[3]) == 3


def test_exact_index_refuses_other_hash_stamp(ray_session, tmp_path):
    """The persisted exact index records the hash implementation behind its
    keys; an increment refuses an index whose stamp is missing or names
    another one, and a matching stamp changes no result."""
    import json
    import os
    from importlib.metadata import version

    import duckdb
    import pytest

    from ocr_proofreader_ray.pipelines.incremental import (
        _EXACT_INDEX_STAMP,
        bootstrap_exact_index,
        dedup_exact_increment,
        q_dedup_exact_incremental,
    )
    from ocr_proofreader_ray.pipelines.registry import all_oracles

    work = str(tmp_path / "w")
    bootstrap_exact_index(_docs([(1, "a"), (2, "b")]), work)
    stamp_path = os.path.join(work, _EXACT_INDEX_STAMP)
    with open(stamp_path) as f:
        stamp = json.load(f)
    assert stamp == {"hash": "polars.Series.hash",
                     "polars": version("polars")}
    r = dedup_exact_increment(_docs([(10, "c"), (11, "a")]), work, "inc-1")
    assert _keep_ids(r) == [10]

    with open(stamp_path, "w") as f:
        json.dump({**stamp, "polars": "0.0.0"}, f)
    with pytest.raises(RuntimeError, match="re-bootstrap"):
        dedup_exact_increment(_docs([(20, "d")]), work, "inc-2")
    os.remove(stamp_path)
    with pytest.raises(RuntimeError, match="re-bootstrap"):
        dedup_exact_increment(_docs([(20, "d")]), work, "inc-2")

    # the registered query (bootstrap writes the stamp, the increment checks
    # it) still equals its DuckDB oracle
    from fixtures.gen_golden_queries import SF_DIR as sf

    got = {(r["doc_id"], r["phase"])
           for r in q_dedup_exact_incremental(sf).take_all()}
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = set(con.sql(all_oracles()["q_dedup_exact_incremental"]).fetchall())
    assert got == want
