"""The one exchange: rows that share a key meet in one task.

``exchange(ds, keys, fn)`` partitions ``ds`` on ``keys`` and runs ``fn``
once per partition; ``co_exchange`` does the same for two inputs at once,
so each partition holds both sides' rows of its keys.  Every grouping of
rows by key in the package (joins, windows, per-bucket pair generation,
per-range sequence packing, distributed aggregate finals, the global
sort's ranges) goes through these two calls, so the partition function
and the partition count are decided here and nowhere else.  A partition
holds many keys: ``fn`` sorts its rows and cuts the key runs
(``ops.agg.run_starts``) when it needs one call per key.

Two routings share the one physical plan:

- hash (the default): ``partition_ids`` hashes the keys into
  ``num_partitions`` partitions.  Integers take a multiplicative hash in
  numpy (null maps to 0) and every other type polars' seeded xxhash, so a
  null or non-ASCII key is an ordinary key.  Equal values hash equally on
  both sides of a ``co_exchange`` whatever their integer width.  The hash
  is stable across worker processes for a fixed polars version; nothing
  persists it, because both sides of an exchange hash inside one job.
- range (``bounds=``, one key column): ``range_ids`` gives a row the
  index of its key range among sorted boundaries, ``len(bounds) + 1``
  partitions — ``ops/sort.py``'s sample-based global sort.

Physical plan: one map tags every row with an int64 partition id, then ONE
``groupby(id).map_groups`` sort shuffle routes each partition to a task.
Ray's sort-based groupby is only ever asked to order that int column: its
sampled sort boundaries split multi-byte UTF-8 string keys and cannot
order a null key at all, so grouping on the key itself breaks on exactly
the keys a crawl carries.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

_PART = "__part"
_SIDE = "__side"
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)

# per-partition memory budget: a partition's rows land in ONE map_groups
# task, so with 256 MiB of in-memory input rows per partition a task stays
# well under 1 GiB of worker heap
_JOIN_PARTITION_INPUT_BYTES = 256 << 20


def _source_bytes(ds: "ray.data.Dataset") -> int | None:
    """In-memory bytes of the sources of ``ds``'s plan, from metadata only:
    a Read's footer estimate, a materialized input's block bytes; None
    when a source has neither."""
    total = 0
    ops = [ds._logical_plan.dag]
    while ops:
        op = ops.pop()
        if op.input_dependencies:
            ops.extend(op.input_dependencies)
            continue
        size = op.infer_metadata().size_bytes
        if size is None:
            return None
        total += size
    return total


def num_partitions(*datasets: "ray.data.Dataset") -> int:
    """Partition count from input size, floored at the cluster's CPU count.

    Size is the datasets' source bytes (``_source_bytes``: metadata, no
    execution) — it bounds per-partition memory; the CPU floor keeps the
    per-partition stage from under-parallelizing small-but-not-tiny inputs
    (measured: an 8-partition join of sf0.1 lineitem⋈orders ran 5.9 s on
    32 CPUs vs 3.6 s with ≥16).  Falls back to 32 when a source's size is
    unknown."""
    ncpu = int(ray.cluster_resources().get("CPU", 8))
    sizes = [_source_bytes(ds) for ds in datasets]
    if None in sizes:
        return max(32, ncpu)
    by_bytes = -(-sum(sizes) // _JOIN_PARTITION_INPUT_BYTES)
    # no upper cap: the per-partition budget must hold at any input size,
    # so partitions grow linearly with bytes; many partitions only cost
    # per-group dispatch, which map_groups amortizes across its rows
    return max(8, ncpu, by_bytes)


def _column_hash(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """uint64 hash per row of one key column (see the module docstring)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_dictionary(col.type):
        # hash values, not the block-local dictionary indices
        col = col.dictionary_decode()
    if pa.types.is_integer(col.type):
        # fill nulls before the numpy cast: NaN -> uint64 is platform-UB
        # and would make null-key placement nondeterministic
        vals = pc.fill_null(col.cast(pa.int64(), safe=False), 0)
        return vals.to_numpy(zero_copy_only=False).view(np.uint64) * _GOLDEN
    import polars as pl

    return pl.Series(col).hash(seed=0).to_numpy()


def partition_ids(table: pa.Table, keys: list[str], n: int) -> pa.Array:
    """int64 partition id in [0, n) per row of ``table``, from ``keys``."""
    h = np.zeros(table.num_rows, np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            h = h * _GOLDEN ^ _column_hash(table.column(k))
    return pa.array(((h >> np.uint64(40)) % np.uint64(n)).astype(np.int64))


def range_ids(bounds: np.ndarray, col: pa.Array | pa.ChunkedArray
              ) -> np.ndarray:
    """Key range per row of a non-null int or string column against a
    small sorted boundary array (object dtype for strings):
    ``np.searchsorted(bounds, col, side='right')``, in [0, len(bounds)].

    Int keys take the numpy fast path.  String keys run a VECTORIZED
    branchless binary search — log2(len(bounds)) Arrow string compares,
    each row against its own gathered boundary — so per-batch memory stays
    O(batch bytes), independent of the longest string in the batch (a
    fixed-width numpy unicode array costs max_len x rows x 4 bytes)."""
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


def exchange(
    ds: "ray.data.Dataset",
    keys: list[str],
    fn,
    bounds: np.ndarray | None = None,
) -> "ray.data.Dataset":
    """Partition ``ds`` on ``keys``; ``fn(rows) -> pa.Table`` runs once per
    partition, on all rows of every key routed there, as an Arrow table in
    ``ds``'s own columns.  One partition may hold many keys.

    Rows are hash-partitioned, or with ``bounds`` (sorted boundaries of
    the single key column) range-partitioned: partition i holds the keys
    in [bounds[i-1], bounds[i])."""
    keys = list(keys)
    if bounds is None:
        n = num_partitions(ds)

        def route(b: pa.Table) -> pa.Array:
            return partition_ids(b, keys, n)
    else:
        (key,) = keys

        def route(b: pa.Table) -> pa.Array:
            return pa.array(range_ids(bounds, b.column(key)), pa.int64())

    def tag(b: pa.Table) -> pa.Table:
        if _PART in b.column_names:
            raise ValueError(f"exchange: input carries reserved column "
                             f"{_PART!r} — rename upstream")
        return b.append_column(_PART, route(b))

    def run(g: pa.Table) -> pa.Table:
        return fn(g.drop_columns([_PART]))

    return (ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
            .groupby(_PART).map_groups(run, batch_format="pyarrow"))


def with_schema(ds: "ray.data.Dataset") -> tuple["ray.data.Dataset",
                                                 pa.Schema]:
    """``ds`` and its Arrow schema, without a ``limit=1`` probe.

    A Read or a materialized input knows its schema.  A plan whose schema
    Ray cannot infer (any map) is materialized once and returned in place
    of ``ds``, so its upstream runs once — a probe would run it once for
    the schema and again for the exchange, and an upstream all-to-all
    cannot stop early."""
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        ds = ds.materialize()
        schema = ds.schema()
    return ds, pa.schema(list(zip(schema.names, schema.types)))


def co_exchange(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_keys: list[str],
    right_keys: list[str],
    fn,
) -> "ray.data.Dataset":
    """Hash-partition both inputs on their keys in ONE exchange;
    ``fn(left_rows, right_rows) -> pa.Table`` runs once per partition with
    each side's rows in its own schema.  A side with no rows in a
    partition arrives as an empty table of its schema.

    Both sides travel as one union: each side's columns are renamed to
    side-scoped layout columns and padded with nulls for the other side's,
    so any column name — shared or not — is allowed on either side."""
    left, lschema = with_schema(left)
    right, rschema = with_schema(right)
    n = num_partitions(left, right)
    lnames = [f"__l{i}" for i in range(len(lschema))]
    rnames = [f"__r{i}" for i in range(len(rschema))]
    layout = lnames + rnames + [_SIDE, _PART]

    def tag(side: int, own: pa.Schema, other: pa.Schema, keys: list[str]):
        def fn_(b: pa.Table) -> pa.Table:
            cols = b.select(own.names).columns
            pad = [pa.nulls(b.num_rows, typ) for typ in other.types]
            return pa.Table.from_arrays(
                (cols + pad if side == 0 else pad + cols)
                + [pa.array(np.full(b.num_rows, side, np.int8)),
                   partition_ids(b, keys, n)],
                names=layout)
        return fn_

    def run(g: pa.Table) -> pa.Table:
        is_left = pc.equal(g.column(_SIDE), pa.scalar(0, pa.int8()))
        lrows = g.filter(is_left).select(lnames)
        rrows = g.filter(pc.invert(is_left)).select(rnames)
        return fn(lrows.rename_columns(lschema.names),
                  rrows.rename_columns(rschema.names))

    lt = left.map_batches(tag(0, lschema, rschema, list(left_keys)),
                          batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(tag(1, rschema, lschema, list(right_keys)),
                           batch_format="pyarrow", zero_copy_batch=True)
    return lt.union(rt).groupby(_PART).map_groups(run, batch_format="pyarrow")
