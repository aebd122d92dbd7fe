"""Distributed global sort with exact output positions (SURVEY.md §2 B9+).

``global_sort_position`` is the classic sample-based range-partitioned sort
(the TeraSort plan, public knowledge): sample the key column to pick
balanced range boundaries, ONE all-to-all exchange routes each row to its
key range, every partition sorts locally — and because a bounded
per-partition histogram is computed before the exchange, each partition
also knows its global offset, so rows come back with their EXACT global
rank.  No driver-side sort of the data, no single-node bottleneck:

- sample pass: deterministic hash-threshold sample of the KEY COLUMN only,
  bounded to ``sample_max`` rows at any corpus size (corpus-proportional
  fractions are the anti-pattern VERDICT r02 flagged for IVF);
- histogram pass: per-partition row counts via a combiner ``grouped_agg``
  — merged state is O(num_partitions);
- exchange: the only all-to-all; each group sorts its own range and adds
  its broadcast offset.

Keys must be UNIQUE (callers pack tie-breaks into the key — the same
(value << k) | id packing as q_ntile_customers) and NON-NULL (a null has
no defined rank; both are enforced loudly), and either int64 or string
(strings compare in UTF-8 byte order = codepoint order, matching SQL
binary collation); descending int orders are expressed by negating the
packed key.  Uniqueness makes the permutation — and therefore every
output position — deterministic at any parallelism.

String keys never materialize as fixed-width numpy unicode (max_len x
rows x 4 bytes — one long-tail URL/outlier string per partition would
blow worker heaps): partition routing is a vectorized binary search of
Arrow compares against the boundary list, and the per-range sort is
Arrow's own ``sort_indices``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ocr_proofreader_ray.functions.bloom import _key_hash64
from ocr_proofreader_ray.ops.agg import grouped_agg
from ocr_proofreader_ray.ops.exchange import num_partitions as _num_partitions

_SAMPLE_MAX = 100_000


def _assert_clean_key(col, key_col: str) -> None:
    if col.null_count:
        raise ValueError(
            f"global_sort_position: key column {key_col!r} contains "
            f"{col.null_count} null(s) — a null key has no defined rank; "
            "filter or fill upstream")


def _searchsorted_right(bounds: np.ndarray, col) -> np.ndarray:
    """``np.searchsorted(bounds, col, side='right')`` for an Arrow column
    against a small sorted boundary array (object dtype for strings).

    Int64 keys take the numpy fast path.  String keys run a VECTORIZED
    branchless binary search — log2(len(bounds)) Arrow string compares,
    each row against its own gathered boundary — so per-batch memory stays
    O(batch bytes), independent of the longest string in the batch.
    """
    if pa.types.is_integer(col.type):
        return np.searchsorted(
            bounds.astype(np.int64),
            np.asarray(pc.cast(col, pa.int64())), side="right")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    lo = np.zeros(n, np.int64)
    hi = np.full(n, len(bounds), np.int64)
    # first index i with bounds[i] > key == count of bounds <= key
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) // 2
        per_row = pa.array(
            bounds[np.minimum(mid, len(bounds) - 1)].tolist(), pa.string())
        gt = np.asarray(pc.greater(per_row, col))  # bounds[mid] > key
        hi = np.where(active & gt, mid, hi)
        lo = np.where(active & ~gt, mid + 1, lo)


def global_sort_position(
    ds: "ray.data.Dataset",
    key_col: str,
    position_name: str = "pos",
    num_partitions: int | None = None,
    sample_max: int = _SAMPLE_MAX,
) -> "ray.data.Dataset":
    """Sort ``ds`` ascending by unique non-null int64/string ``key_col``;
    append 1-based global rank as ``position_name``.  Output blocks are the
    sorted ranges in partition order (range i holds ranks
    offsets[i]+1 .. offsets[i+1])."""
    # three consumers (sample, histogram, exchange) — materialize once so
    # the upstream plan is not re-executed per consumer; the materialized
    # schema is block metadata, where a lazy plan's would cost a limit=1
    # run of its whole upstream
    ds = ds.materialize()
    schema = ds.schema()
    if schema and {"__range", position_name} & set(schema.names):
        raise ValueError("global_sort_position: reserved column collision")
    total = ds.count()
    if num_partitions is None:
        num_partitions = _num_partitions(ds)

    bounds = _sample_boundaries(ds, key_col, total, num_partitions, sample_max)
    bref = ray.put(bounds)

    def assign(b: pa.Table) -> pa.Table:
        bv = ray.get(bref)
        col = b.column(key_col)
        _assert_clean_key(col, key_col)
        part = _searchsorted_right(bv, col)
        return b.append_column("__range", pa.array(part, pa.int64()))

    parted = ds.map_batches(assign, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    # bounded histogram: rows per key range -> global offsets, known BEFORE
    # the exchange so the sort pass emits final ranks directly
    hist = grouped_agg(parted.select_columns(["__range"]),
                       ["__range"], [(None, "count", "n")])
    counts = np.zeros(len(bounds) + 1, np.int64)
    for p, n in zip(hist.column("__range").to_pylist(),
                    hist.column("n").to_pylist()):
        counts[p] = n
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
    oref = ray.put(offsets)

    def sort_range(g: pa.Table) -> pa.Table:
        offs = ray.get(oref)
        part = g.column("__range")[0].as_py()
        order = pc.sort_indices(g, sort_keys=[(key_col, "ascending")])
        g = g.take(order).drop_columns(["__range"])
        # range partitioning co-locates equal keys, so an adjacent-equal
        # scan here is a COMPLETE duplicate check — enforce the documented
        # uniqueness precondition instead of emitting nondeterministic ranks
        key = g.column(key_col)
        if g.num_rows > 1:
            dup = pc.any(pc.equal(key.slice(1), key.slice(0, len(key) - 1)))
            if dup.as_py():
                raise ValueError(
                    f"global_sort_position: key column {key_col!r} has "
                    "duplicate values — pack a tie-break into the key")
        pos = offs[part] + np.arange(1, g.num_rows + 1, dtype=np.int64)
        return g.append_column(position_name, pa.array(pos, pa.int64()))

    return parted.groupby("__range").map_groups(sort_range,
                                               batch_format="pyarrow")


def _sample_boundaries(ds, key_col: str, total: int, num_partitions: int,
                       sample_max: int) -> np.ndarray:
    """num_partitions-1 range boundaries from a bounded deterministic
    hash-threshold sample of the key column (empty/small inputs degrade to
    fewer — possibly zero — boundaries, i.e. fewer real ranges).  String
    samples stay python objects end-to-end: a fixed-width unicode array
    would cost max_len x sample_max x 4 bytes on one outlier."""
    if total <= 0 or num_partitions <= 1:
        return np.empty(0, np.int64)
    rate = min(1.0, sample_max / total)
    thresh = np.uint64(min(int(rate * 2**64), 2**64 - 1))

    def sample(b: pa.Table) -> pa.Table:
        col = b.column(key_col)
        _assert_clean_key(col, key_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        keep = _key_hash64(col) <= thresh
        return pa.table({"k": col.filter(pa.array(keep))})

    sampled = ds.map_batches(sample, batch_format="pyarrow",
                             zero_copy_batch=True).take_all()
    vals = [r["k"] for r in sampled]
    if not vals:
        return np.empty(0, np.int64)
    if isinstance(vals[0], str):
        keys = np.sort(np.array(vals, dtype=object))
    else:
        keys = np.sort(np.array(vals, dtype=np.int64))
    if len(keys) < num_partitions:
        return np.unique(keys)
    idx = (np.arange(1, num_partitions) * len(keys)) // num_partitions
    return np.unique(keys[idx])
