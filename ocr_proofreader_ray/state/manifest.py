"""Checkpoint manifest + per-partition lineage counters (SURVEY.md §2 A11/A12).

Resume model (BASELINE.json north_rule: "resumable from checkpoint with
per-partition lineage + metrics"):

* The pipeline executes in **chunks** of input files.  Each chunk's outputs
  are written under a pending dir and atomically renamed into place once
  all its rows are written; then a manifest JSON is recorded with the input
  fingerprint (paths + sizes) and the chunk's per-stage counters, summed
  from the write stage's results (pipelines/extraction.py).
* On restart, a chunk whose manifest exists *and* whose input fingerprint
  still matches is skipped entirely — nothing is recomputed, outputs are
  reused.  A changed fingerprint invalidates the chunk (its outputs are
  rewritten).
* Optional live-progress counters go to a named Ray actor (LineageActor),
  updated fire-and-forget per batch; the manifest does not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import ray


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
    h = hashlib.sha1()
    for p in sorted(paths):
        try:
            size = os.path.getsize(p)
        except OSError:
            size = -1
        h.update(f"{p}:{size};".encode())
    return h.hexdigest()


@ray.remote(num_cpus=0)
class LineageActor:
    """Accumulates (chunk, stage) -> counter dict.  num_cpus=0 so it never
    competes with pipeline stages for a slot."""

    def __init__(self) -> None:
        self._counters: dict[str, dict[str, int]] = {}

    def record(self, chunk_id: int, stage: str, rows_in: int, rows_out: int,
               bytes_in: int, bytes_out: int) -> None:
        key = f"{chunk_id}/{stage}"
        c = self._counters.setdefault(
            key, {"rows_in": 0, "rows_out": 0, "bytes_in": 0, "bytes_out": 0,
                  "batches": 0},
        )
        c["rows_in"] += rows_in
        c["rows_out"] += rows_out
        c["bytes_in"] += bytes_in
        c["bytes_out"] += bytes_out
        c["batches"] += 1

    def snapshot(self) -> dict[str, dict[str, int]]:
        return self._counters


_ACTOR_CACHE: dict[str, "ray.actor.ActorHandle"] = {}


def get_lineage_actor(name: str):
    """Worker-side cached lookup of the named lineage actor."""
    handle = _ACTOR_CACHE.get(name)
    if handle is None:
        handle = ray.get_actor(name)
        _ACTOR_CACHE[name] = handle
    return handle


def report(name: str | None, chunk_id: int, stage: str, rows_in: int,
           rows_out: int, bytes_in: int, bytes_out: int) -> None:
    """Fire-and-forget counter delta to the live-progress actor: zero
    hot-path cost (a synchronous ray.get per batch measured ~40% of total
    pipeline wall time at 3900 batches).  Nothing waits for these deltas;
    they are advisory telemetry only."""
    if not name:
        return
    try:
        get_lineage_actor(name).record.remote(
            chunk_id, stage, rows_in, rows_out, bytes_in, bytes_out
        )
    except Exception:
        pass  # lineage is advisory; never fail the data path


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
                    counters: dict, wall_sec: float, extra: dict | None = None) -> None:
        rec = {
            "chunk_id": chunk_id,
            "status": "done",
            "fingerprint": fingerprint,
            "files": files,
            "counters": counters,
            "wall_sec": round(wall_sec, 3),
            "recorded_at": time.time(),
        }
        if extra:
            rec.update(extra)
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
