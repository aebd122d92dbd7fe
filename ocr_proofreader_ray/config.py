"""Extraction pipeline configuration (SURVEY.md §3.2)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ExtractionConfig:
    """All knobs of the two-pass extraction pipeline.

    Scale guidance (100 TB / multi-node): ``files_per_chunk`` bounds the
    checkpoint-resume unit (each pass is one streaming execution over every
    pending chunk; a chunk commits as its last row is written);
    ``correct_batch_size`` × actor-pool size bounds corrector heap;
    extraction batches are byte-bounded by Ray's block splitting
    (``batch_size=None``), so whale pages cannot blow a worker's memory.
    """

    input_paths: list[str] | str = ""
    work_dir: str = "/tmp/opr_work"

    # Pass-1 dictionary policy (deterministic → byte-identical output)
    dict_min_count: int = 8
    dict_top_k: int = 50_000

    # persistent fix-log (state/fixlog.py): accepted corrections applied as
    # an override layer in pass 2; None → no overrides
    fix_log_path: str | None = None

    # parallelism / batching
    correct_batch_size: int = 128
    # None → fixed pool of ncpu - max(2, ncpu//4) actors (the reserved CPUs
    # run the read/LPT/write tasks feeding the pool; measured in
    # BASELINE.md round 2) — see pipelines/extraction.py _corrector_concurrency
    correct_concurrency: tuple[int, int] | int | None = None

    # whale-page hard cap (SURVEY.md §7 hard-parts): a single html value
    # larger than this is truncated to the cap BEFORE parsing — Ray's
    # byte-bounded blocks isolate whales between rows but cannot split one
    # value, so one unbounded page would still sit whole in a worker heap.
    # Truncated docs are flagged in the raw output (``truncated`` column)
    # and counted in the per-chunk manifest; 0/None disables the cap.
    whale_max_html_bytes: int | None = 32 << 20

    # checkpoint-resume granularity: input files per chunk; 0 → single chunk
    files_per_chunk: int = 64

    # no longer changes execution: each pass is one streaming execution over
    # every pending chunk.  Still accepted so existing callers keep working.
    chunks_per_exec: int = 8

    @property
    def raw_dir(self) -> str:
        return f"{self.work_dir}/raw_extracted"

    @property
    def counts_dir(self) -> str:
        return f"{self.work_dir}/token_counts"

    @property
    def dict_path(self) -> str:
        return f"{self.work_dir}/lang_dict.parquet"

    @property
    def out_dir(self) -> str:
        return f"{self.work_dir}/extracted"

    @property
    def manifest_dir(self) -> str:
        return f"{self.work_dir}/manifest"
