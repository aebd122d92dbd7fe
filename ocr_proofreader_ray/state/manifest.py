"""Checkpoint manifest + per-partition lineage counters (SURVEY.md §2 A11/A12).

Resume model (BASELINE.json north_rule: "resumable from checkpoint with
per-partition lineage + metrics"):

* The pipeline executes in **chunks** of input files.  Each chunk's outputs
  are written under a pending dir and atomically renamed into place once
  all its rows are written; then a manifest JSON is recorded with the input
  fingerprint (paths, sizes, mtimes) and the chunk's per-stage counters,
  summed from the write stage's results (pipelines/extraction.py).
* On restart, a chunk whose manifest exists *and* whose input fingerprint
  still matches is skipped entirely — nothing is recomputed, outputs are
  reused.  A changed fingerprint invalidates the chunk (its outputs are
  rewritten).
"""

from __future__ import annotations

import hashlib
import json
import os
import time


def fingerprint_content(path: str) -> str:
    """Content hash of one small file (e.g. the dictionary parquet) — size
    alone can miss a rebuild that changed bytes but not length."""
    h = hashlib.sha1()
    try:
        with open(path, "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    except OSError:
        h.update(b"<missing>")
    return h.hexdigest()


def fingerprint_files(paths: list[str]) -> str:
    """Hash of each input's path, size and mtime (ns): a rewrite that keeps
    the size still changes the mtime, so it invalidates the chunk."""
    h = hashlib.sha1()
    for p in sorted(paths):
        try:
            st = os.stat(p)
            stamp = f"{st.st_size}:{st.st_mtime_ns}"
        except OSError:
            stamp = "-1"
        h.update(f"{p}:{stamp};".encode())
    return h.hexdigest()


class Manifest:
    """Directory of per-chunk JSON records for one pass."""

    def __init__(self, root: str, pass_name: str):
        self.dir = os.path.join(root, pass_name)
        os.makedirs(self.dir, exist_ok=True)

    def _path(self, chunk_id: int) -> str:
        return os.path.join(self.dir, f"chunk-{chunk_id:05d}.json")

    def completed(self, chunk_id: int, fingerprint: str) -> bool:
        try:
            with open(self._path(chunk_id)) as f:
                rec = json.load(f)
            return rec.get("status") == "done" and rec.get("fingerprint") == fingerprint
        except (OSError, json.JSONDecodeError):
            return False

    def record_done(self, chunk_id: int, fingerprint: str, files: list[str],
                    counters: dict, wall_sec: float) -> None:
        rec = {
            "chunk_id": chunk_id,
            "status": "done",
            "fingerprint": fingerprint,
            "files": files,
            "counters": counters,
            "wall_sec": round(wall_sec, 3),
            "recorded_at": time.time(),
        }
        tmp = self._path(chunk_id) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(rec, f, indent=1)
        os.replace(tmp, self._path(chunk_id))

    def load(self, chunk_id: int) -> dict | None:
        try:
            with open(self._path(chunk_id)) as f:
                return json.load(f)
        except (OSError, json.JSONDecodeError):
            return None
