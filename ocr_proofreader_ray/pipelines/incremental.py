"""Incremental (cross-snapshot) MinHash dedup.

The 100-TB-relevant shape of near-dup dedup is not "dedup one frozen
corpus" — it is "a new crawl snapshot arrives every week; drop its docs
that duplicate the ALREADY-RETAINED corpus (or each other) WITHOUT
reprocessing the corpus".  The state that makes this possible is the
**band index**: the (doc_id, band_id, band_key) LSH rows of every retained
document, persisted as append-only parquet under a work dir.  Per
increment the plan is:

1. band the new docs (`dedup._band_rows` — the exact machinery the batch
   path uses, so incremental and batch agree on candidate generation);
2. SEMI-FILTER the index to buckets touched by the new docs through
   `ops.join.prefilter` — the new band-key set is increment-sized and
   broadcasts exactly while it fits the driver bound (a Bloom
   filter above it); the corpus-sized index streams through ONE filter,
   nothing corpus-sized shuffles;
3. candidate pairs over (touched-index ∪ new bands) via the shared
   star-capped bucket pair generation, kept only where at least one side
   is new;
4. exact verification via the shared set-join plan
   (`dedup._verify_pairs`) over (retained-corpus ∪ increment) docs: only
   candidate docs map to element sets, so old docs are touched only if an
   LSH bucket put them in a pair, and the sets meet the pairs through
   `ops.join.join`;
5. cluster the verified pairs: a component containing ANY retained old
   doc drops all of its new members; an all-new component keeps its min
   doc_id.  With increments arriving in ascending doc_id order this
   reproduces the batch keep rule (rep = component min) whenever the
   connecting pairs survive — the planted-fixture equivalence is pinned
   by tests; chains that run EXCLUSIVELY through a doc the bootstrap
   itself dropped can differ (greedy-incremental semantics, the standard
   tradeoff for this plan);
6. append the kept new docs' band rows to the index — append-only files,
   so a failed increment re-runs cleanly.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ocr_proofreader_ray.ops.agg import gather, grouped_agg, materialized
from ocr_proofreader_ray.ops.io import read_parquet
from ocr_proofreader_ray.ops.join import (
    broadcast_semi_anti,
    join,
    prefilter,
    semi_anti,
)
from ocr_proofreader_ray.pipelines.dedup import (
    _band_rows,
    _candidate_pairs,
    _shingle_elements,
    _verify_pairs,
    dedup_clusters,
)

_INDEX_SUBDIR = "band_index"

# stage wall-times of the most recent q_dedup_incremental run (VERDICT r04
# next-steps #3: the slowest bench-slice query gets a per-stage split the
# bench JSON can report); written by the timed sections below, read by
# bench.py — keys are <phase>_<stage>_sec
_LAST_TIMINGS: dict[str, float] = {}


def last_stage_timings() -> dict[str, float]:
    """Per-stage wall-times (seconds) of the most recent incremental-dedup
    query run in this process; empty until one runs."""
    return dict(_LAST_TIMINGS)


@contextmanager
def _timed(timings: dict | None, key: str):
    if timings is None:
        yield
        return
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = round(time.perf_counter() - t0, 4)


def _index_dir(work_dir: str, subdir: str) -> str:
    d = os.path.join(work_dir, subdir)
    os.makedirs(d, exist_ok=True)
    return d


_INDEX_COLUMNS = ["doc_id", "band_id", "band_key"]


def _write_index_batch(work_dir: str, subdir: str, rows: "ray.data.Dataset",
                       columns: list[str], batch_tag: str) -> None:
    """Write one batch of ``rows``' ``columns`` as new parquet files under
    ``subdir/batch_tag`` (append-only: a re-run of a failed increment
    overwrites its own tag, nothing else)."""
    import shutil

    out = os.path.join(_index_dir(work_dir, subdir), batch_tag)
    if os.path.exists(out):
        shutil.rmtree(out)
    # consolidate files: the default one-file-per-block write fragments a
    # batch into ~30 KB files whose open/footer overhead dominates the
    # increment's index re-read (the r04 bench's slowest-slice stage)
    rows.select_columns(columns).write_parquet(out, min_rows_per_file=500_000)


def bootstrap_index(docs: "ray.data.Dataset", work_dir: str,
                    shingle_n: int = 3,
                    jaccard_threshold: float = 0.5,
                    timings: dict | None = None) -> pa.Array:
    """Batch-dedup the initial corpus, persist the retained docs' band
    index under ``work_dir``; returns the dropped doc ids (the keep set is
    everything else — callers keep their corpus store and drop these)."""
    from ocr_proofreader_ray.pipelines.dedup import minhash_lsh_pairs

    with _timed(timings, "bootstrap_band_sec"):
        docs = materialized(docs)
        # band ONCE: minhash signatures dominate banding cost, and the same
        # materialized band rows serve pair generation and the index write
        bands = _band_rows(docs, shingle_n).materialize()
    with _timed(timings, "bootstrap_verify_sec"):
        pairs = minhash_lsh_pairs(docs, shingle_n=shingle_n,
                                  jaccard_threshold=jaccard_threshold,
                                  bands=bands).materialize()
    with _timed(timings, "bootstrap_cluster_sec"):
        clusters = dedup_clusters(pairs)
        drop = clusters.filter(
            pc.not_equal(clusters.column("doc_id"),
                         clusters.column("rep_id"))
        ).column("doc_id").combine_chunks()
    with _timed(timings, "bootstrap_index_write_sec"):
        if len(drop):
            bands = broadcast_semi_anti(bands, drop, on="doc_id", anti=True)
        _write_index_batch(work_dir, _INDEX_SUBDIR, bands, _INDEX_COLUMNS,
                           "bootstrap")
    return drop


def dedup_increment(
    new_docs: "ray.data.Dataset",
    corpus_docs: "ray.data.Dataset",
    work_dir: str,
    batch_tag: str,
    shingle_n: int = 3,
    jaccard_threshold: float = 0.5,
    timings: dict | None = None,
) -> dict:
    """Dedup ``new_docs`` against the persisted band index (and itself).

    ``corpus_docs`` is the retained corpus (doc_id, text) — read only for
    the candidate docs' verification element sets.  Returns a dict with the kept
    new ids plus drop lineage counts, and appends the kept band rows to
    the index under ``batch_tag``.
    """
    with _timed(timings, "inc_band_sec"):
        new_docs = materialized(new_docs)  # banded + verified + id-scanned
        if new_docs.count() == 0:
            # empty increment: nothing to dedup, nothing to index
            return {
                "keep_ids": pa.array([], pa.int64()),
                "n_new": 0,
                "n_dropped_vs_corpus": 0,
                "n_dropped_within_increment": 0,
            }
        new_bands = _band_rows(new_docs, shingle_n).materialize()

        new_ids = gather(new_docs.select_columns(["doc_id"])
                         ).column("doc_id").combine_chunks().unique()
        new_id_set = set(new_ids.to_pylist())

        # 2. touched index buckets: the new band-key set is increment-sized
        # (32 keys/doc); over-selection from a cross-band key collision only
        # admits old rows whose old-old pairs are filtered out below
        new_keys = (
            gather(new_bands.select_columns(["band_key"]))
            # docs with an empty shingle set band to no rows
            or pa.table({"band_key": pa.array([], pa.int64())})
        ).column("band_key").combine_chunks().unique()
    _t_pairs0 = time.perf_counter()
    # an index batch written before the band rows lost their partition
    # column carries a fourth ``part`` column: select the three index
    # columns so old and new batches union with the new band rows
    index = read_parquet(_index_dir(work_dir, _INDEX_SUBDIR),
                         columns=_INDEX_COLUMNS)
    # a Bloom false positive only admits old rows whose old-old pairs are
    # dropped below — results identical, waste bounded
    touched = prefilter(index, new_keys, on="band_key")

    # 3. shared star-capped pair generation; keep pairs touching a new doc
    # (new_ids is increment-sized — safe to close over and ship per task)
    pairs = _candidate_pairs(touched.union(new_bands))

    def touches_new(b: pa.Table) -> pa.Table:
        return b.filter(pc.or_(
            pc.is_in(b.column("doc_a"), value_set=new_ids),
            pc.is_in(b.column("doc_b"), value_set=new_ids)))

    pairs = pairs.map_batches(touches_new, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    if timings is not None:
        # spans index read + touched-bucket semi filter + candidate pair
        # generation (_candidate_pairs materializes its output eagerly)
        timings["inc_pairs_sec"] = round(time.perf_counter() - _t_pairs0, 4)

    # 4. exact verification over (corpus ∪ increment); element sets are
    # built for candidate docs only on both sides
    thr_num = int(jaccard_threshold * 1_000_000)
    with _timed(timings, "inc_verify_sec"):
        verified = _verify_pairs(
            corpus_docs.select_columns(["doc_id", "text"])
            .union(new_docs.select_columns(["doc_id", "text"])),
            pairs, _shingle_elements(shingle_n),
            thr_num=thr_num, thr_den=1_000_000).materialize()

    # 5. component rule: any old member -> drop all new members;
    # all-new component -> keep min
    with _timed(timings, "inc_cluster_sec"):
        clusters = dedup_clusters(verified)
    comp: dict[int, list[int]] = {}
    comp_has_old: dict[int, bool] = {}
    for d, r in zip(clusters.column("doc_id").to_pylist(),
                    clusters.column("rep_id").to_pylist()):
        if d in new_id_set:
            comp.setdefault(r, []).append(d)
        else:
            comp_has_old[r] = True
    dropped_vs_corpus: list[int] = []
    dropped_within: list[int] = []
    for r, members in comp.items():
        if comp_has_old.get(r):
            dropped_vs_corpus.extend(members)
        else:
            dropped_within.extend(m for m in members if m != min(members))
    drop_set = set(dropped_vs_corpus) | set(dropped_within)
    keep_ids = pa.array(
        sorted(i for i in new_id_set if i not in drop_set), pa.int64())

    # 6. append kept band rows (append-only, re-runnable per tag)
    with _timed(timings, "inc_index_write_sec"):
        _write_index_batch(
            work_dir, _INDEX_SUBDIR,
            broadcast_semi_anti(new_bands, keep_ids, on="doc_id"),
            _INDEX_COLUMNS, batch_tag)
    return {
        "keep_ids": keep_ids,
        "n_new": len(new_id_set),
        "n_dropped_vs_corpus": len(dropped_vs_corpus),
        "n_dropped_within_increment": len(dropped_within),
    }


from ocr_proofreader_ray.pipelines.registry import register  # noqa: E402
from ocr_proofreader_ray.pipelines.relational import t  # noqa: E402


def _midpoint_doc_id(sf_dir: str) -> int:
    """(min + max) // 2 of the documents' doc_id: the snapshot split point."""
    span = grouped_agg(t(sf_dir, "documents", ["doc_id"]), [],
                       [("doc_id", "min", "lo"),
                        ("doc_id", "max", "hi")]).to_pylist()[0]
    return (int(span["lo"]) + int(span["hi"])) // 2


def _split_at(docs: "ray.data.Dataset", cut: int) -> tuple:
    """``docs`` split on doc_id at ``cut``: the retained snapshot
    (doc_id <= cut) and the crawl increment (doc_id > cut)."""
    def below(b: pa.Table) -> pa.Table:
        return b.filter(pc.less_equal(b.column("doc_id"), cut))

    def above(b: pa.Table) -> pa.Table:
        return b.filter(pc.greater(b.column("doc_id"), cut))

    return tuple(docs.map_batches(fn, batch_format="pyarrow",
                                  zero_copy_batch=True)
                 for fn in (below, above))


def _tag_phase(phase: str):
    """Batch fn: a batch's doc_ids with the snapshot ``phase`` that
    admitted them."""
    def fn(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b.column("doc_id"),
            "phase": pa.array([phase] * b.num_rows, pa.string()),
        })
    return fn


@register("q_dedup_incremental")  # sketch-based incremental plan: rows-only
def q_dedup_incremental(sf_dir: str):
    """Cross-snapshot dedup demonstration over the documents table: the
    lower doc_id half bootstraps the corpus + band index, the upper half
    arrives as a crawl increment and dedups against the index WITHOUT
    re-banding the retained corpus.  Returns the final keep list with the
    phase each survivor was admitted in."""
    import shutil

    tm: dict[str, float] = {}
    docs = t(sf_dir, "documents", ["doc_id", "text"])
    with _timed(tm, "minmax_scan_sec"):
        # id-only read: the min/max split point must not pay a text scan
        cut = _midpoint_doc_id(sf_dir)

    old, new = _split_at(docs, cut)

    work_dir = os.path.join(
        "/tmp/opr_incremental", os.path.basename(os.path.normpath(sf_dir)))
    shutil.rmtree(work_dir, ignore_errors=True)

    with _timed(tm, "split_sec"):
        old = materialized(old)
    drop_old = bootstrap_index(old, work_dir, timings=tm)
    with _timed(tm, "kept_old_sec"):
        kept_old = old
        if len(drop_old):
            kept_old = broadcast_semi_anti(old, drop_old, on="doc_id",
                                           anti=True)
        kept_old = materialized(kept_old)

    res = dedup_increment(new, kept_old, work_dir, "inc-1", timings=tm)
    _LAST_TIMINGS.clear()
    _LAST_TIMINGS.update(tm)

    # stream the (corpus-sized) keep list out as a Dataset — only the
    # increment's keep ids (increment-sized by assumption) sit on the driver
    old_part = kept_old.select_columns(["doc_id"]).map_batches(
        _tag_phase("bootstrap"), batch_format="pyarrow", zero_copy_batch=True)
    new_part = ray.data.from_arrow(pa.table({
        "doc_id": res["keep_ids"],
        "phase": pa.array(["inc-1"] * len(res["keep_ids"]), pa.string()),
    }))
    return old_part.union(new_part)


# ---------------------------------------------------------------------------
# incremental EXACT dedup (persisted content-hash index) — the cheap sibling
# of the banded plan above: a weekly crawl drops byte-identical re-crawls
# against the retained corpus without re-hashing it
# ---------------------------------------------------------------------------

_EXACT_INDEX_SUBDIR = "exact_index"
_EXACT_INDEX_COLUMNS = ["h1", "h2"]
# beside the index directory, not in it: read_parquet would read any file
# inside it
_EXACT_INDEX_STAMP = "exact_index.hash.json"


def _exact_hash_stamp() -> dict:
    """The hash implementation behind the persisted content keys.  polars
    does not promise ``Series.hash`` output across versions, so keys from
    another polars version would silently never match.  The version comes
    from package metadata: importing polars here would load it into the
    driver, which only hashes in worker tasks."""
    from importlib.metadata import version

    return {"hash": "polars.Series.hash", "polars": version("polars")}


def _write_exact_hash_stamp(work_dir: str) -> None:
    path = os.path.join(work_dir, _EXACT_INDEX_STAMP)
    with open(path + ".tmp", "w") as f:
        json.dump(_exact_hash_stamp(), f, sort_keys=True)
    os.replace(path + ".tmp", path)


def _check_exact_hash_stamp(work_dir: str) -> None:
    """Refuse an index whose keys another hash implementation wrote."""
    path = os.path.join(work_dir, _EXACT_INDEX_STAMP)
    try:
        with open(path) as f:
            stamp = json.load(f)
    except FileNotFoundError:
        stamp = None
    if stamp != _exact_hash_stamp():
        raise RuntimeError(
            f"exact-dedup index under {work_dir} was written with hash "
            f"{stamp}, but this process hashes with {_exact_hash_stamp()}; "
            "its keys would not match — re-bootstrap the index")


def bootstrap_exact_index(docs: "ray.data.Dataset", work_dir: str) -> dict:
    """Exact-dedup the initial corpus (keep min doc_id per 128-bit content
    key — `dedup.content_keys_batch`), persist the retained keys and the
    hash stamp beside them, return {"keep": (h1, h2, doc_id) Dataset}."""
    from ocr_proofreader_ray.pipelines.dedup import content_keys_batch

    keyed = docs.map_batches(content_keys_batch, batch_format="pyarrow",
                             zero_copy_batch=True)
    # corpus-sized distinct: a Dataset, persisted straight from the merge
    keep = grouped_agg(keyed, ["h1", "h2"],
                       [("doc_id", "min", "doc_id")], as_dataset=True,
                       ).materialize()
    _write_index_batch(work_dir, _EXACT_INDEX_SUBDIR, keep,
                       _EXACT_INDEX_COLUMNS, "bootstrap")
    _write_exact_hash_stamp(work_dir)
    return {"keep": keep}


def dedup_exact_increment(new_docs: "ray.data.Dataset", work_dir: str,
                          batch_tag: str) -> dict:
    """Drop increment docs whose content key is already in the persisted
    exact index (or duplicates a smaller doc_id within the increment).

    Scale shape: the increment collapses to one (h1, h2, doc_id) row per
    content key through ``grouped_agg``; the corpus-sized index STREAMS
    through ``semi_anti`` on the h1 lane (a broadcast of the increment's
    h1 set while it fits, else an exchange), so only the matched key rows
    (duplicate-bounded + ~|index|·|new|/2^64 expected h1-lane false
    positives) survive.  The exact (h1, h2) anti join of the increment
    against them is ``ops.join.join``: it broadcasts the matched rows
    while their bytes fit the driver bound and hash-exchanges both
    sides above it.  Nothing
    corpus-sized ever concentrates.  Returns the kept (h1, h2, doc_id)
    rows as a Dataset and the drop counts; appends the kept keys under
    ``batch_tag``.  Raises ``RuntimeError`` when the index's hash stamp is
    missing or names another hash implementation.
    """
    from ocr_proofreader_ray.pipelines.dedup import content_keys_batch

    _check_exact_hash_stamp(work_dir)

    keyed = new_docs.map_batches(content_keys_batch, batch_format="pyarrow",
                                 zero_copy_batch=True)
    # within-increment collapse
    new_keys = grouped_agg(keyed, ["h1", "h2"], [("doc_id", "min", "doc_id")],
                           as_dataset=True).materialize()
    n_new_distinct = new_keys.count()
    if n_new_distinct == 0:
        return {"keep": new_keys, "n_dropped_vs_corpus": 0,
                "n_dropped_within": 0}

    matched = semi_anti(
        read_parquet(_index_dir(work_dir, _EXACT_INDEX_SUBDIR)), new_keys,
        on="h1").materialize()
    # h1/h2 are never null, so no null-key semantics apply
    kept = join(new_keys, matched, ["h1", "h2"], join_type="left anti")
    kept = kept.materialize()
    n_dropped_vs_corpus = n_new_distinct - kept.count()
    n_dropped_within = (
        # rows that collapsed into another increment row's key
        # (input rows minus distinct keys)
        int(new_docs.count()) - n_new_distinct)

    _write_index_batch(work_dir, _EXACT_INDEX_SUBDIR, kept,
                       _EXACT_INDEX_COLUMNS, batch_tag)
    return {"keep": kept, "n_dropped_vs_corpus": n_dropped_vs_corpus,
            "n_dropped_within": n_dropped_within}


@register(
    "q_dedup_exact_incremental",
    sql="""
    WITH cut AS (
      SELECT (min(doc_id) + max(doc_id)) // 2 AS c FROM documents),
    old_keep AS (
      SELECT min(doc_id) AS doc_id, text FROM documents
      WHERE doc_id <= (SELECT c FROM cut) GROUP BY text),
    new_keep AS (
      SELECT min(doc_id) AS doc_id FROM documents
      WHERE doc_id > (SELECT c FROM cut)
        AND text NOT IN (SELECT text FROM old_keep)
      GROUP BY text)
    SELECT doc_id, 'bootstrap' AS phase FROM old_keep
    UNION ALL
    SELECT doc_id, 'inc-1' AS phase FROM new_keep
    """,
)
def q_dedup_exact_incremental(sf_dir: str):
    """Cross-snapshot EXACT dedup over the documents table (lower doc_id
    half = retained corpus, upper half = crawl increment), via the
    persisted content-key index — the byte-identical-re-crawl filter every
    crawl pipeline runs before the fuzzier near-dup passes.

    Hash-exact DuckDB oracle: with increments arriving in ascending doc_id
    order, incremental exact dedup equals batch exact dedup (global min
    doc_id per text), which SQL expresses directly; engine/oracle equality
    additionally assumes no 128-bit content-key collision (probability
    ~n²/2^128-ish — see q_dedup_exact's strength note)."""
    import shutil

    docs = t(sf_dir, "documents", ["doc_id", "text"])
    cut = _midpoint_doc_id(sf_dir)

    # materialized: the increment is both counted (within-drop lineage)
    # and hashed — unmaterialized it would re-run the filter per consumer
    old, new = (half.materialize() for half in _split_at(docs, cut))

    work_dir = os.path.join(
        "/tmp/opr_exact_incremental",
        os.path.basename(os.path.normpath(sf_dir)))
    shutil.rmtree(work_dir, ignore_errors=True)

    boot = bootstrap_exact_index(old, work_dir)
    res = dedup_exact_increment(new, work_dir, "inc-1")

    old_part = boot["keep"].select_columns(["doc_id"]).map_batches(
        _tag_phase("bootstrap"), batch_format="pyarrow", zero_copy_batch=True)
    new_part = res["keep"].map_batches(_tag_phase("inc-1"),
                                       batch_format="pyarrow",
                                       zero_copy_batch=True)
    return old_part.union(new_part)
