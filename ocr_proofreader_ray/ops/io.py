"""The one query-side Parquet scan.

Ray 2.49's read autodetect floors read parallelism at 2 x cluster CPUs,
overriding Ray's own rule that no block goes below
``DataContext.target_min_block_size``: a few-KB table is read as
``ReadParquet->SplitBlocks(2 x CPUs)``.  A split read cannot fuse with the
map after it, so every downstream operator then launches 2 x CPUs tasks for
a few KB of rows, and Ray's per-task overhead owns the query's time.

``read_parquet`` sizes the input from the Parquet footers alone (the
selected columns' uncompressed bytes).  At or under Ray's min block size it
reads one block per file, which fuses ``ReadParquet->MapBatches`` into one
task per file; above it, Ray's autodetect plans the read unchanged (a
corpus-sized scan keeps its cluster-wide split).  The caller's paths and
keyword arguments (``filter=``, partitioned directories) reach Ray as
given; a single named file is read with its own schema minus any
metadata (a pandas-written file's dict makes Ray fail to hash the read
schemas and run a full unification).  Query code reads Parquet only
through here.
"""

from __future__ import annotations

import glob
import math
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data
from ray.data import DataContext


def _parquet_files(paths: str | list[str]) -> list[str]:
    """Files under ``paths``; a directory expands to its ``*.parquet``
    files at any depth (hive partition directories included)."""
    files = []
    for p in [paths] if isinstance(paths, str) else paths:
        if os.path.isdir(p):
            files.extend(sorted(glob.glob(
                os.path.join(p, "**", "*.parquet"), recursive=True)))
        else:
            files.append(p)
    return files


def _estimated_bytes(files: list[str], columns: list[str] | None,
                     bound: int) -> float:
    """Uncompressed bytes of ``columns`` (every column when None) summed
    over the files' row groups, read from the footers only.  Stops reading
    footers once the sum passes ``bound``; an unreadable footer (or a
    non-local path) is an unknown size, ``math.inf``."""
    total = 0
    for f in files:
        try:
            md = pq.read_metadata(f)
        except (OSError, pa.ArrowInvalid):
            return math.inf
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            for j in range(rg.num_columns):
                col = rg.column(j)
                # a nested column's leaves are "<name>.list.element" etc.
                if columns is None or col.path_in_schema.split(".")[0] in columns:
                    total += col.total_uncompressed_size
        if total > bound:
            break
    return total


def read_parquet(paths: str | list[str], columns: list[str] | None = None,
                 **kw) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` that reads an input no bigger than one Ray
    block unsplit: one block per file, so the read fuses with its first
    map.  Larger inputs keep Ray's default read plan."""
    bound = DataContext.get_current().target_min_block_size
    files = _parquet_files(paths)
    if files and _estimated_bytes(files, columns, bound) <= bound:
        kw.setdefault("override_num_blocks", len(files))
    if isinstance(paths, str) and os.path.isfile(paths):
        schema = pq.read_schema(paths)
        if schema.metadata and set(columns or []) <= set(schema.names):
            kw.setdefault("schema", pa.schema(
                [schema.field(c) for c in columns or schema.names]))
    return ray.data.read_parquet(paths, columns=columns, **kw)
