"""Cluster job entrypoint for the extraction pipeline — the artifact you
hand to ``ray job submit`` on a fixed-size multi-node cluster (the
north-rule's N / 4N-node runs)::

    ray job submit --address http://<head>:8265 --working-dir . -- \
        python jobs/extract_job.py \
            --input '/mnt/crawl/pages-*.parquet' \
            --work-dir /mnt/shared/extract-run-1 \
            --files-per-chunk 64

Inside the job, ``ray.init(address="auto")`` attaches to the hosting
cluster; the SAME entrypoint smoke-runs single-node with
``RAY_JOB_ADDRESS=local`` (used by the sandbox test — no cluster here).
The work dir is the resume point: re-submitting the identical command
after a mid-crawl failure skips every chunk whose manifest fingerprint
is already committed (`pipelines/extraction.py` pass-1/pass-2
manifests), so a lost node costs the chunks not yet committed, not the
run.

Emits one JSON line with row counts, per-stage lineage counters and
wall time — the per-cluster-size throughput record that the N vs 4N
scaling comparison in BENCH/BASELINE.md is computed from.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _sum_counters(manifest_dir: str) -> dict:
    """Total per-stage lineage counters across committed chunk manifests."""
    import glob

    totals: dict[str, dict[str, int]] = {}
    for path in sorted(glob.glob(
            os.path.join(manifest_dir, "pass2", "chunk-*.json"))):
        with open(path) as f:
            rec = json.load(f)
        for stage, ctrs in (rec.get("counters") or {}).items():
            agg = totals.setdefault(stage, {})
            for k, v in ctrs.items():
                agg[k] = agg.get(k, 0) + int(v)
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="extract_job")
    parser.add_argument("--input", required=True, help="parquet path/glob/dir")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--files-per-chunk", type=int, default=64)
    parser.add_argument("--fix-log", default=None)
    args = parser.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        address = os.environ.get("RAY_JOB_ADDRESS", "auto")
        kwargs = {"address": address, "logging_level": "ERROR"}
        if address == "local":  # sandbox smoke path: no cluster to attach to
            kwargs["include_dashboard"] = False
        ray.init(**kwargs)

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from ocr_proofreader_ray.config import ExtractionConfig
    from ocr_proofreader_ray.pipelines.extraction import run_extraction

    cfg = ExtractionConfig(
        input_paths=args.input,
        work_dir=args.work_dir,
        files_per_chunk=args.files_per_chunk,
        fix_log_path=args.fix_log,
    )
    t0 = time.time()
    ds = run_extraction(cfg)
    rows = ds.count()
    wall = time.time() - t0
    print(json.dumps({
        "rows": rows,
        "wall_sec": round(wall, 3),
        "docs_per_sec": round(rows / wall, 1) if wall > 0 else None,
        "out_dir": cfg.out_dir,
        "counters": _sum_counters(cfg.manifest_dir),
        "cluster_cpus": int(ray.cluster_resources().get("CPU", 0)),
    }))
    if owns_session:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
