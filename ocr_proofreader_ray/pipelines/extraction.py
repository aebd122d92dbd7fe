"""The flagship two-pass extraction pipeline (SURVEY.md §3.2).

    PASS 1 : read pages (one flat read over every pending chunk) → one
             fused task per byte-bounded Arrow block: extract_main_text
             (rows tagged with their source chunk) → raw_extracted/ write
             → token partial counts → token_counts/ write
    DICT   : per-language summed top-k over the compact (lang, token,
             count) partials (document text never shuffles) →
             deterministic min_count/top_k policy → lang_dict.parquet
    PASS 2 : read raw_extracted (flat) → size-bucket sort (skew: biggest
             docs first, homogeneous batches) → Corrector actor pool (dict
             loaded once per actor) → extracted/ write

Each pass is ONE streaming Ray Data execution over every pending chunk,
with one corrector pool in pass 2: pipeline and pool start-up are paid
once, and no execution barrier idles the cluster between chunks
(per-chunk executions measured 2.6x slower at sf0.1).

Chunks are still the checkpoint-resume unit.  The write stage puts each
batch's rows of chunk K in ``<root>/.pending/chunk-K/<url-hash>.parquet``
and returns one small result row per file; the driver drains those rows and,
as soon as chunk K's rows reach the expected count, promotes
``.pending/chunk-K`` to ``chunk-K`` and records the chunk's manifest JSON
(input fingerprint + lineage counters summed from the results).  A rerun
skips completed chunks (see state/manifest.py); a crash loses only the
chunks not yet committed.

Design notes for 100 TB scale:
* Extraction reads only (url, html, lang) — column pruning at the Parquet
  footer; the html binary column dies inside the extract stage.
* Pass 2 reads the much smaller raw_extracted text, so HTML parsing happens
  exactly once per page even though the pipeline is two-pass.
* The dictionary shuffle moves per-batch (lang, token, count) partials —
  orders of magnitude smaller than the corpus.
* All per-row transforms are pure functions of (row, frozen dict) →
  byte-identical output at any parallelism (north_rule).
"""

from __future__ import annotations

import glob as globmod
import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from ocr_proofreader_ray.config import ExtractionConfig
from ocr_proofreader_ray.functions.dictionary import apply_dict_policy, save_dicts
from ocr_proofreader_ray.ops.agg import grouped_sum_top_k
from ocr_proofreader_ray.stages.corrector import Corrector
from ocr_proofreader_ray.stages.extract import (
    extract_batch,
    tokenize_count_batch,
)
from ocr_proofreader_ray.state import manifest as mstate


def discover_files(input_paths: list[str] | str) -> list[str]:
    if isinstance(input_paths, str):
        input_paths = [input_paths]
    files: list[str] = []
    for p in input_paths:
        if os.path.isdir(p):
            files.extend(globmod.glob(os.path.join(p, "*.parquet")))
        elif any(ch in p for ch in "*?["):
            files.extend(globmod.glob(p))
        else:
            files.append(p)
    return sorted(set(files))


def make_chunks(files: list[str], files_per_chunk: int) -> list[list[str]]:
    if files_per_chunk <= 0 or files_per_chunk >= len(files):
        return [files]
    return [files[i:i + files_per_chunk] for i in range(0, len(files), files_per_chunk)]


def input_chunks(cfg: ExtractionConfig) -> list[list[str]]:
    """The input files of ``cfg``, split into checkpoint chunks."""
    files = discover_files(cfg.input_paths)
    if not files:
        raise FileNotFoundError(f"no parquet inputs under {cfg.input_paths!r}")
    return make_chunks(files, cfg.files_per_chunk)


# --------------------------------------------------------------------------
# per-chunk pending writes and their commit
# --------------------------------------------------------------------------

# rows per pass-2 output file at most: Ray's read splits inputs into ~2xCPU
# blocks, and a file per block fragments a chunk into hundreds of ~1 MB
# files (measured: 208/chunk at sf0.1); 50k rows ≈ 30-60 MB
_MIN_ROWS_PER_FILE = 50_000

_SUMMED = ("rows", "html_bytes", "n_chars", "truncated")


def _pending_dir(root: str, chunk_id: int) -> str:
    return os.path.join(root, ".pending", f"chunk-{chunk_id:05d}")


def _sum_col(t: pa.Table, col: str) -> int:
    if col not in t.schema.names:
        return 0
    return int(pc.sum(pc.cast(t.column(col), pa.int64())).as_py() or 0)


def _write_pending(batch: pa.Table, sinks: list[tuple]) -> pa.Table:
    """Write each chunk's rows of ``batch`` (tagged by its ``chunk_id``
    column) through every ``(root, transform, compression)`` sink to
    ``<root>/.pending/chunk-K/<name>``, and return one result row per chunk
    written: ``(chunk_id, name, rows, html_bytes, n_chars, truncated)``.

    ``name`` hashes the rows' urls, so a retried task overwrites its file
    instead of adding a second copy of the rows."""
    cids = batch.column("chunk_id")
    data = batch.drop_columns(["chunk_id"])
    uniq = pc.unique(cids)
    out = {"chunk_id": [], "name": [], **{k: [] for k in _SUMMED}}
    for cid in uniq.to_pylist():
        part = (data if len(uniq) == 1
                else data.filter(pc.equal(cids, pa.scalar(cid, cids.type))))
        digest = hashlib.sha1()
        for url in part.column("url").to_pylist():
            digest.update((url or "").encode() + b"\0")
        name = digest.hexdigest() + ".parquet"
        for root, transform, compression in sinks:
            d = _pending_dir(root, cid)
            os.makedirs(d, exist_ok=True)
            pq.write_table(transform(part) if transform else part,
                           os.path.join(d, name), compression=compression)
        out["chunk_id"].append(cid)
        out["name"].append(name)
        out["rows"].append(part.num_rows)
        for col in _SUMMED[1:]:
            out[col].append(_sum_col(part, col))
    return pa.table(out, schema=pa.schema(
        [("chunk_id", pa.int32()), ("name", pa.string())]
        + [(k, pa.int64()) for k in _SUMMED]))


def _sweep_pending(roots) -> None:
    """Drop the uncommitted writes a crashed run left behind."""
    for root in roots:
        shutil.rmtree(os.path.join(root, ".pending"), ignore_errors=True)


def _promote(root: str, chunk_id: int, names: set[str]) -> None:
    """Atomically replace ``chunk-K`` with ``.pending/chunk-K``, keeping only
    the files the write results reported (an empty dir for a chunk with no
    rows)."""
    src = _pending_dir(root, chunk_id)
    final = os.path.join(root, f"chunk-{chunk_id:05d}")
    os.makedirs(src, exist_ok=True)
    for f in os.listdir(src):
        if f not in names:  # left by a task attempt whose result was lost
            os.remove(os.path.join(src, f))
    if os.path.isdir(final):
        shutil.rmtree(final)
    os.replace(src, final)


def _commit_stream(results, roots, expected: dict[int, int],
                   on_commit) -> float:
    """Drain the write results and commit each chunk as its last row lands.

    Chunk K is promoted in every root, then ``on_commit(K, sums)`` records
    it, as soon as its summed ``rows`` reach ``expected[K]``.  A count above
    the expected one, a file name reported twice for one chunk, and a chunk
    still short when the stream ends all raise.  Returns the seconds spent
    committing."""
    sums = {cid: dict.fromkeys(_SUMMED, 0) for cid in expected}
    names: dict[int, set[str]] = {cid: set() for cid in expected}
    spent = 0.0

    def commit(cid: int) -> None:
        nonlocal spent
        t = time.perf_counter()
        for root in roots:
            _promote(root, cid, names[cid])
        on_commit(cid, sums[cid])
        spent += time.perf_counter() - t

    for cid, n in expected.items():
        if n == 0:
            commit(cid)
    for batch in results:
        for r in batch.to_pylist():
            cid = r["chunk_id"]
            if r["name"] in names[cid]:
                raise RuntimeError(
                    f"chunk {cid}: two batches wrote {r['name']} (duplicate "
                    "urls?) — the second would replace the first")
            names[cid].add(r["name"])
            s = sums[cid]
            for k in _SUMMED:
                s[k] += r[k]
            if s["rows"] > expected[cid]:
                raise RuntimeError(f"chunk {cid}: {s['rows']} rows written, "
                                   f"expected {expected[cid]}")
            if s["rows"] == expected[cid]:
                commit(cid)
    short = {cid: (s["rows"], expected[cid]) for cid, s in sums.items()
             if s["rows"] < expected[cid]}
    if short:
        raise RuntimeError(
            f"stream ended with chunks short of rows (written, expected): "
            f"{short}")
    return spent


# --------------------------------------------------------------------------
# stage callables (module-level for clean serialization)
# --------------------------------------------------------------------------

class _Pass1Stage:
    """Fused pass-1 task: extract → raw write → token partial counts →
    counts write, per byte-bounded block.  Each row's chunk comes from its
    input file path (include_paths), so one flat read serves every chunk
    with no per-chunk branches (`Dataset.union` of branches measured ~2x
    slower)."""

    def __init__(self, cfg: ExtractionConfig, path_to_chunk: dict[str, int]):
        self.path_to_chunk = path_to_chunk
        self.max_html_bytes = cfg.whale_max_html_bytes
        # snappy for the raw INTERMEDIATE (written once, read once on pass
        # 2's critical path — cheap decompress beats zstd's ~30% size win
        # there); counts stay zstd
        self.sinks = [(cfg.raw_dir, None, "snappy"),
                      (cfg.counts_dir, tokenize_count_batch, "zstd")]

    def _chunk_ids(self, batch: pa.Table) -> pa.Array:
        paths = batch.column("path").to_pylist()
        lookup = self.path_to_chunk
        cids = [lookup.get(p, lookup.get(os.path.abspath(p), -1))
                for p in paths]
        if -1 in cids:
            # ADVICE r02: an unmapped path would land its rows in a chunk
            # the commit never expects.  Fail loudly; the only known cause
            # is a Ray path-normalization change.
            bad = sorted({p for p, c in zip(paths, cids) if c == -1})[:3]
            raise RuntimeError(
                f"extract: input path(s) not in the chunk map, e.g. {bad} "
                "— path normalization mismatch between discovery and read")
        return pa.array(cids, pa.int32())

    def __call__(self, batch: pa.Table) -> pa.Table:
        chunk_col = self._chunk_ids(batch)
        out = extract_batch(batch.drop_columns(["path"]),
                            max_html_bytes=self.max_html_bytes)
        return _write_pending(out.append_column("chunk_id", chunk_col),
                              self.sinks)


class _CorrectorStage(Corrector):
    def __call__(self, batch: pa.Table) -> pa.Table:
        # rows are tagged with their source chunk for the per-chunk write;
        # the column rides around the correction (rows map 1:1) and back
        # onto the output
        chunk_col = batch.column("chunk_id")
        batch = batch.drop_columns(["chunk_id"])
        return super().__call__(batch).append_column("chunk_id", chunk_col)


def _tag_chunk_from_dir(b: pa.Table) -> pa.Table:
    """Recover chunk identity from the ``chunk-000NN`` directory of each
    row's source file (include_paths read) — lets pass 2 do ONE flat read
    over every pending chunk instead of per-chunk branches."""
    paths = b.column("path").to_pylist()
    cids = [int(os.path.basename(os.path.dirname(p)).rsplit("-", 1)[1])
            for p in paths]
    return (b.drop_columns(["path"])
            .append_column("chunk_id", pa.array(cids, pa.int32())))


# --------------------------------------------------------------------------
# passes
# --------------------------------------------------------------------------

def run_pass1_group(cfg: ExtractionConfig, chunks: list[list[str]]) -> dict:
    """Extract + tokenize every chunk whose pass-1 record is missing or
    stale, in ONE streaming execution, committing each chunk (raw text,
    token counts, manifest record) as its last row is written.

    Returns ``{"chunks": chunks run, "commit_sec": driver commit time}``."""
    m1 = mstate.Manifest(cfg.manifest_dir, "pass1")
    # the whale cap changes pass-1 OUTPUT for the same input bytes, so it is
    # part of the fingerprint: resuming with a different cap must invalidate
    # completed chunks or resumed output would no longer be byte-identical
    # to a fresh run
    fps = {cid: (mstate.fingerprint_files(files)
                 + f":cap={cfg.whale_max_html_bytes}")
           for cid, files in enumerate(chunks)}
    pending = {cid: chunks[cid] for cid, fp in fps.items()
               if not m1.completed(cid, fp)}
    _sweep_pending((cfg.raw_dir, cfg.counts_dir))
    if not pending:
        return {"chunks": 0, "commit_sec": 0.0}
    expected = {cid: sum(pq.read_metadata(f).num_rows for f in files)
                for cid, files in pending.items()}
    path_to_chunk = {os.path.abspath(p): cid
                     for cid, files in pending.items() for p in files}

    t0 = time.time()
    ds = ray.data.read_parquet(
        [p for files in pending.values() for p in files],
        columns=["url", "html", "lang"], include_paths=True)
    ds = ds.map_batches(
        _Pass1Stage(cfg, path_to_chunk),
        batch_format="pyarrow",
        batch_size=None,  # byte-bounded blocks: whale pages can't blow memory
        num_cpus=1,
        zero_copy_batch=True,
    )

    def record(cid: int, s: dict) -> None:
        m1.record_done(cid, fps[cid], pending[cid], {"extract": {
            "rows_in": expected[cid],
            "rows_out": s["rows"],
            "bytes_in": s["html_bytes"],
            "bytes_out": s["n_chars"],
            "docs_truncated": s["truncated"],
        }}, time.time() - t0)

    spent = _commit_stream(
        ds.iter_batches(batch_format="pyarrow", batch_size=None),
        (cfg.raw_dir, cfg.counts_dir), expected, record)
    return {"chunks": len(pending), "commit_sec": round(spent, 3)}


def build_dictionary(cfg: ExtractionConfig) -> str:
    """Global (lang, token) frequency aggregate → deterministic dictionary.

    The counts files are already per-batch partial aggregates (A4), so the
    remaining merge is one ``grouped_sum_top_k`` over (lang, token)
    partials, which also applies the per-language top_k.  Null-lang rows
    never enter the dictionary."""
    files = sorted(globmod.glob(f"{cfg.counts_dir}/chunk-*/*.parquet"))
    top = grouped_sum_top_k(ray.data.read_parquet(files), "lang", "token",
                            "count", cfg.dict_top_k)
    top = top.filter(pc.is_valid(top.column("lang")))
    lang_dicts: dict[str, dict[str, int]] = {}
    for lang, token, freq in zip(top.column("lang").to_pylist(),
                                 top.column("token").to_pylist(),
                                 top.column("count").to_pylist()):
        lang_dicts.setdefault(lang, {})[token] = int(freq)
    # min_count after top-k keeps the same set as before it: both cut on
    # freq.  The policy also gives a canonical, sorted, deterministic file
    lang_dicts = {
        lang: apply_dict_policy(d, min_count=cfg.dict_min_count, top_k=cfg.dict_top_k)
        for lang, d in lang_dicts.items()
    }
    tmp = cfg.dict_path + ".tmp"
    save_dicts(lang_dicts, tmp)
    os.replace(tmp, cfg.dict_path)
    return cfg.dict_path


def _lpt_order(b: pa.Table) -> pa.Table:
    """Size-bucketed batching (north_star): whale pages are already
    isolated into their own blocks by Ray's byte-bounded block splitting
    (the explicit repartition); within each block, order biggest-first so
    whale batches dispatch to the actor pool before the long tail of small
    pages (LPT scheduling) and each batch is size-homogeneous.  A LOCAL
    per-block sort — a global sort paid a full all-to-all shuffle of the
    text column (~5.5 s at 50 k docs) for ordering that only matters
    within a block."""
    idx = pc.sort_indices(b, sort_keys=[("n_chars", "descending")])
    return b.take(idx)


def _corrector_concurrency(cfg: ExtractionConfig) -> tuple[int, int] | int:
    concurrency = cfg.correct_concurrency
    if concurrency is None:
        ncpu = int(ray.cluster_resources().get("CPU", 4))
        # Fixed prestarted pool of ncpu - max(2, ncpu/4): the reserved CPUs
        # run the read + LPT + write TASKS that feed and drain the pool.
        # Measured at sf0.1 (2M pages): round 2 showed reserving only 2
        # CPUs at 32 starves those tasks (pass-2 31.9s with a 30-actor pool
        # vs 16.0s with 28); after the round-4 corrector kernel wins the
        # optimum moved NARROWER — the pool finishes its compute faster, so
        # feeding/draining dominates: pass-2 13.2s with 28 actors vs
        # ~10.0s with 22-26 (swept 20/22/24/26/28).  At 8 CPUs the
        # compute-bound optimum stays (6,6) — this formula keeps it.
        # Autoscale ramp idles ~45% of pool-seconds; tmpfs-vs-disk was a
        # wash (the reserve is about CPU slots, not disk).
        w = max(1, ncpu - max(2, ncpu // 4))
        concurrency = (w, w)
    return concurrency


def run_pass2_group(cfg: ExtractionConfig, chunks: list[list[str]]) -> dict:
    """Correct every chunk whose pass-2 record is missing or stale, in ONE
    streaming execution with one corrector actor pool (pool start-up — N
    actors x dictionary load — is paid once per pass, not per chunk: 54 s
    vs 13 s for the same 8-chunk workload at sf0.1/32), committing each
    chunk as its last row is written.  Every chunk needs a pass-1 record.

    Returns ``{"chunks": chunks run, "commit_sec": driver commit time}``."""
    m1 = mstate.Manifest(cfg.manifest_dir, "pass1")
    m2 = mstate.Manifest(cfg.manifest_dir, "pass2")
    # Pass-2 outputs depend on the chunk's input, the frozen dictionary AND
    # the fix-log: a dictionary rebuild (triggered by any changed/new pass-1
    # chunk) or an edited fix-log must invalidate every pass-2 chunk whose
    # corrections could differ, or resumed outputs would no longer be
    # byte-identical to a fresh run.  The fingerprint covers all three.
    dict_fp = mstate.fingerprint_content(cfg.dict_path)
    if cfg.fix_log_path:
        dict_fp += ":" + mstate.fingerprint_content(cfg.fix_log_path)
    # pass-2 consumes pass-1's raw text, so its fingerprint carries the cap
    # too: a cap change with a coincidentally unchanged dictionary must
    # still re-correct the re-extracted chunks
    dict_fp += f":cap={cfg.whale_max_html_bytes}"
    fps = {cid: mstate.fingerprint_files(files) + ":" + dict_fp
           for cid, files in enumerate(chunks)}
    pending = [cid for cid, fp in fps.items() if not m2.completed(cid, fp)]
    _sweep_pending((cfg.out_dir,))
    if not pending:
        return {"chunks": 0, "commit_sec": 0.0}
    extract = {cid: m1.load(cid)["counters"]["extract"] for cid in pending}
    expected = {cid: extract[cid]["rows_out"] for cid in pending}

    t0 = time.time()

    def record(cid: int, s: dict) -> None:
        m2.record_done(cid, fps[cid], chunks[cid], {
            "extract": extract[cid],
            "correct": {
                "rows_in": extract[cid]["rows_out"],
                "rows_out": s["rows"],
                "bytes_in": extract[cid]["bytes_out"],
                "bytes_out": s["n_chars"],
            },
        }, time.time() - t0)

    raw_files = [f for cid in pending
                 for f in sorted(globmod.glob(
                     f"{cfg.raw_dir}/chunk-{cid:05d}/*.parquet"))]
    results = []
    if raw_files:
        ds = ray.data.read_parquet(
            raw_files,
            columns=["url", "lang", "raw_text", "n_chars", "truncated"],
            include_paths=True)
        ds = ds.map_batches(_tag_chunk_from_dir, batch_format="pyarrow",
                            zero_copy_batch=True)
        ds = ds.map_batches(_lpt_order, batch_format="pyarrow",
                            zero_copy_batch=True)
        ds = ds.map_batches(
            _CorrectorStage,
            fn_constructor_args=(cfg.dict_path, cfg.fix_log_path),
            batch_format="pyarrow",
            batch_size=cfg.correct_batch_size,
            concurrency=_corrector_concurrency(cfg),
            num_cpus=1,
            zero_copy_batch=True,
        )
        # a chunk's last rows wait in the write bundle until it fills, so it
        # holds at most an average chunk's rows: no chunk's commit waits on
        # a 50k-row bundle.  (The smallest chunk's rows would bound the
        # wait tighter, but one tiny chunk would then shrink every file.)
        ds = ds.map_batches(
            _write_pending,
            fn_args=([(cfg.out_dir, None, "zstd")],),
            batch_format="pyarrow",
            batch_size=max(1, min(_MIN_ROWS_PER_FILE,
                                  sum(expected.values()) // len(expected))),
            zero_copy_batch=True,
        )
        results = ds.iter_batches(batch_format="pyarrow", batch_size=None)
    spent = _commit_stream(results, (cfg.out_dir,), expected, record)
    return {"chunks": len(pending), "commit_sec": round(spent, 3)}


# --------------------------------------------------------------------------
# driver entry point
# --------------------------------------------------------------------------

def run_extraction(cfg: ExtractionConfig) -> "ray.data.Dataset":
    """Run (or resume) the full two-pass pipeline; returns the final Dataset."""
    chunks = input_chunks(cfg)
    os.makedirs(cfg.work_dir, exist_ok=True)

    timings = {"pass1_sec": 0.0, "dict_sec": 0.0, "pass2_sec": 0.0}
    t0 = time.time()
    pass1 = run_pass1_group(cfg, chunks)
    timings["pass1_sec"] = time.time() - t0

    if pass1["chunks"] or not os.path.exists(cfg.dict_path):
        t0 = time.time()
        build_dictionary(cfg)
        timings["dict_sec"] = time.time() - t0

    t0 = time.time()
    pass2 = run_pass2_group(cfg, chunks)
    timings["pass2_sec"] = time.time() - t0

    # per-stage wall-time split for the scaling analysis (BASELINE.md):
    # facts about where the time went, written next to the manifests
    timings = {k: round(v, 3) for k, v in timings.items()}
    timings["counters_sec"] = round(
        pass1["commit_sec"] + pass2["commit_sec"], 3)
    timings["pass1_stages"] = pass1
    with open(os.path.join(cfg.work_dir, "timings.json"), "w") as f:
        json.dump(timings, f, indent=1)

    out_files = sorted(globmod.glob(f"{cfg.out_dir}/chunk-*/*.parquet"))
    return ray.data.read_parquet(out_files)
