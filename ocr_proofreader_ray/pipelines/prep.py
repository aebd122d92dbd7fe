"""Composed LLM training-data prep pipeline (the end-to-end artifact).

Chains the engine's hygiene stages the way a production corpus build does —
each stage writes a partitioned parquet corpus under a work dir and the
next stage streams from it (the same materialize-between-passes shape as
the two-pass extraction flagship; a failed stage re-runs from its input):

    documents → near-dup dedup → decontaminate → per-source cap
              → mixture sample → final corpus

Every stage reuses the registered operator's own machinery (one
definition per rule): the MinHash cluster drop set, the probe-substring
decontamination filter, q_source_cap's exact per-source head, and the
shared ``mixture_pick`` rule.  The query returns the per-stage lineage
table (stage, rows_in, rows_out) — the corpus itself is the written
parquet, like any real pipeline run.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc

from ocr_proofreader_ray.ops.io import read_parquet
from ocr_proofreader_ray.ops.join import broadcast_semi_anti, semi_anti
from ocr_proofreader_ray.pipelines.registry import register
from ocr_proofreader_ray.pipelines.relational import _stale, t
from ocr_proofreader_ray.state.manifest import fingerprint_files


def _run_stage(work: str, stage: str, parent_fp: str, build_ds) -> tuple:
    """Checkpointed stage execution: the stage's output directory carries a
    marker holding the FINGERPRINT CHAIN (source parquet path, size and
    mtime in ns folded through every upstream stage name).  A fresh marker
    means the written parquet is the deterministic output of the same
    inputs — the stage is skipped WITHOUT building its dataset
    (``build_ds`` is a thunk, so a resumed run pays nothing for completed
    stages, the same checkpoint-resume contract as the extraction
    flagship)."""
    import hashlib

    fp = hashlib.sha256(f"{parent_fp}|{stage}".encode()).hexdigest()[:32]
    out = os.path.join(work, stage)
    marker = os.path.join(out, "_ok")
    if not _stale(marker, fp):
        return out, fp, True
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    build_ds().write_parquet(os.path.join(out, "documents.parquet"))
    with open(marker, "w") as f:
        f.write(fp)
    return out, fp, False


def _stage_rows(stage_dir: str) -> int:
    return read_parquet(os.path.join(stage_dir, "documents.parquet")).count()


@register("q_llm_prep_corpus")  # composed pipeline: rows-only driver check
def q_llm_prep_corpus(sf_dir: str, resume: bool = False):
    """Run the full prep chain over the documents table; return lineage.

    ``resume=True`` skips stages whose checkpoint marker carries
    the current fingerprint chain — a killed run re-executes only from its
    first incomplete stage, and a testdata regeneration (source parquet
    size/mtime change) invalidates everything downstream.  The outputs
    are deterministic, so resumed and fresh runs are identical (pinned by
    tests).  The registered default is a FRESH run so driver/bench
    timings measure real compute, not the skip path."""
    from ocr_proofreader_ray.pipelines.dedup import q_dedup_clusters
    from ocr_proofreader_ray.pipelines.text_analysis import (
        _corpus_probes,
        mixture_pick,
        q_source_cap,
    )

    work = os.path.join("/tmp/opr_llm_prep",
                        os.path.basename(os.path.normpath(sf_dir)))
    if not resume:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work, exist_ok=True)
    src_fp = fingerprint_files([f"{sf_dir}/documents.parquet"])

    docs = t(sf_dir, "documents")
    n_in = docs.count()
    lineage = [("input", n_in, n_in)]

    # 1. near-dup dedup: drop non-representative cluster members (the drop
    # set is bounded by the duplicate count, not the corpus)
    def build_dedup():
        clusters = q_dedup_clusters(sf_dir)
        drop = clusters.filter(
            pc.not_equal(clusters.column("doc_id"),
                         clusters.column("rep_id"))
        ).column("doc_id").combine_chunks()
        if len(drop):
            return broadcast_semi_anti(docs, drop, on="doc_id", anti=True)
        return docs

    s1, fp1, _ = _run_stage(work, "s1_dedup", src_fp, build_dedup)
    n1 = _stage_rows(s1)
    lineage.append(("near_dup_dedup", n_in, n1))

    # 2. decontaminate: probes come from the ORIGINAL corpus (benchmark
    # probes are external to the corpus being cleaned)
    def build_decontam():
        probes = _corpus_probes(sf_dir)

        def decontam(b: pa.Table) -> pa.Table:
            hit = pa.array([False] * b.num_rows, pa.bool_())
            for _pid, probe in probes:
                hit = pc.or_(hit, pc.fill_null(
                    pc.match_substring(b.column("text"), probe), False))
            return b.filter(pc.invert(hit))

        s1_docs = read_parquet(os.path.join(s1, "documents.parquet"))
        return s1_docs.map_batches(decontam, batch_format="pyarrow",
                                   zero_copy_batch=True)

    s2, fp2, _ = _run_stage(work, "s2_decontam", fp1, build_decontam)
    n2 = _stage_rows(s2)
    lineage.append(("decontaminate", n1, n2))

    # 3. per-source quota cap: the registered operator computes the exact
    # survivor ids over the stage-2 corpus; semi-filter the full rows
    def build_capped():
        s2_docs = read_parquet(os.path.join(s2, "documents.parquet"))
        return semi_anti(s2_docs, q_source_cap(s2), on="doc_id")

    s3, fp3, _ = _run_stage(work, "s3_source_cap", fp2, build_capped)
    n3 = _stage_rows(s3)
    lineage.append(("source_cap", n2, n3))

    # 4. mixture sample: the shared systematic rule, pure filter
    def build_sampled():
        s3_docs = read_parquet(os.path.join(s3, "documents.parquet"))
        return s3_docs.map_batches(mixture_pick, batch_format="pyarrow",
                                   zero_copy_batch=True)

    final, _fp4, _ = _run_stage(work, "final", fp3, build_sampled)
    n4 = _stage_rows(final)
    lineage.append(("mixture_sample", n3, n4))

    return pa.table({
        "stage": pa.array([s for s, _, _ in lineage], pa.string()),
        "rows_in": pa.array([i for _, i, _ in lineage], pa.int64()),
        "rows_out": pa.array([o for _, _, o in lineage], pa.int64()),
    })
