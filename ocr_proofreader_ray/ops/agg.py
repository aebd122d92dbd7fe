"""Partial-aggregation ("combiner") grouped aggregates and per-group top-k.

Ray Data's ``groupby().aggregate()`` is a sort-based all-to-all over every
input row — measured ~15 s for a 6-group aggregate of 600 k rows, because
the whole table moves.  The scale-correct plan for aggregates is the
combiner pattern: each ``map_batches`` task reduces its batch with pyarrow's
C++ ``Table.group_by`` (vectorized, zero Python per row), so only
``n_blocks x n_groups`` partial rows ever leave the map stage.

One merge, one bound, two result contracts.  ``grouped_agg``,
``grouped_top_k`` and ``grouped_sum_top_k`` each hand their partial rows
and ONE merge function to ``_merge``, which materializes the partials and
sizes them (block bytes: free metadata once materialized):

* at or under ``_DRIVER_MAX_BYTES`` the partials gather and the merge
  runs once on the driver — no shuffle at all;
* above it the partials hash-partition on the group keys through
  ``ops.exchange.exchange`` and each partition runs the SAME merge; the
  shuffle moves only partials, never input rows.

The plan follows the measured partial size, so callers never name one.
They say only where the result lives: a pyarrow Table (default) or a
Dataset (``as_dataset=True``, for a downstream join, exchange or write).
The Table form gathers the exchange's merged rows above the bound; the
Dataset form wraps the driver merge in ``ray.data.from_arrow`` under it.
Both plans return the same rows and Arrow types, an empty input included.

``_DRIVER_MAX_BYTES`` is the package's one size gate: this merge, the
broadcasts of ``ops.join``, ``ops.selection``'s gather and dedup's pair
expansion and components all compare the bytes they would hold in one
process with it.  Tests force every distributed plan by patching it to 0
(``tests/conftest.py::all_exchange``).

The distributed merge used to be Ray's sort-based
``groupby(keys).aggregate(Sum/Min/Max)`` over the partials.  That raised
``TypeError`` on a null string key, narrowed whole-second
``timestamp[us]`` values to ``timestamp[s]``, and cost far more CPU than
the exchange plus an Arrow merge.  Measured at sf0.1 (2 Ray CPUs on a
1-vCPU host, CPU seconds of the whole Ray session, two runs each,
sort-based → exchange): q_top_customers 14.2–16.4 → 2.0–2.2,
q_rank_in_segment 11.7–12.7 → 2.9–4.5, q_funnel_users 5.5–6.6 → 1.7–1.8,
q_retention_cohorts 31.7–33.5 → 4.2–4.5, q_data_quality_audit
28.7–34.6 → 4.4, q_events_resampled 28.3–35.4 → 4.8–4.9; identical
sorted results.

Supported agg fns: ``sum`` / ``min`` / ``max`` / ``count`` (count of rows).
Means are derived by callers from sum+count (exact-integer trick).

One key-run rule.  ``run_starts`` (which rows of a key-sorted table open
a run of equal keys) is the only code that cuts rows into key groups;
``run_bounds``, ``run_ids`` and ``run_positions`` read a run's offsets,
a row's run number and its place in the run off that mask,
``shared_runs`` keeps the runs of two rows or more, and ``group_head``
keeps the first k rows of each group.  Windows, sessions, gap fills,
blocking buckets and per-group heads all sort their rows and cut them
here.  A null key is a value: null keys form one group and sort last,
like SQL's default ``NULLS LAST``.  Top-k is ``grouped_top_k`` with no
group columns.

A partial that is not an Arrow row — an HLL, KLL, Count-Min or Bloom
sketch, PCA's moment sums — goes through ``grouped_sketch(ds, key, build,
merge)``: ``build`` runs per batch and ``key`` group in the workers, the
objects travel pickled (the one place the package pickles), and the
driver folds them block by block, in the order a gather reads them.
Callers say only what to build and how two partials merge.

Blocks are Arrow only (no module asks Ray for pandas batches), and every
plan drains to the driver through ``gather``: callers write
``gather(ds) or <typed empty>``.
"""

from __future__ import annotations

import pickle

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.dataset import MaterializedDataset

from ocr_proofreader_ray.ops.exchange import exchange

# the most bytes a driver plan holds in one process (the driver, or a
# worker holding a broadcast); read at call time, so patching forces plans
_DRIVER_MAX_BYTES = 256 << 20

# how each partial column merges in the final pass
_MERGE_FN = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def materialized(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """``ds`` executed once.  An executed MaterializedDataset comes back as
    it is: ``materialize()`` on one runs nothing, yet copies its plan and
    builds two Datasets, each a blocking call to Ray Data's stats actor.
    ``ray.data.from_arrow``'s is not executed yet: materializing it takes
    no execution, where reading its blocks would take one."""
    if (isinstance(ds, MaterializedDataset)
            and ds._plan.has_computed_output()):
        return ds
    return ds.materialize()


def _block_refs(ds: "ray.data.Dataset"):
    """Refs of ``ds``'s blocks that hold rows (by their metadata), in
    order, from one execution."""
    for bundle in materialized(ds).iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows != 0:
                yield ref


def gather(ds: "ray.data.Dataset") -> pa.Table | None:
    """The rows of ``ds`` on the driver as one Arrow table, or None when it
    has none — the one way query code drains a plan.

    The plan runs once and no schema is read.  ``to_arrow_refs`` reads
    one through a second ``limit=1`` execution on a lazy plan, which
    re-runs an upstream all-to-all (shuffle join, sort) in full (measured
    2x the join per aggregate), and on one whose blocks are all empty."""
    tables = ray.get(list(_block_refs(ds)))
    if not tables:
        return None
    return pa.concat_tables(tables, promote_options="default")


def _empty_like(ds: "ray.data.Dataset") -> pa.Table:
    """Empty Arrow table of a dataset's schema."""
    schema = ds.schema()
    return getattr(schema, "base_schema", schema).empty_table()


def _partial_specs(aggs: list[tuple[str | None, str, str]]):
    """-> (pyarrow aggregate specs, partial column names); dedups count."""
    specs, names, seen = [], [], set()
    for col, fn, _alias in aggs:
        pname = "count_all" if fn == "count" else f"{col}_{fn}"
        names.append(pname)
        if pname not in seen:
            seen.add(pname)
            specs.append(([], "count_all") if fn == "count" else (col, fn))
    return specs, names


def _merge(parts: "ray.data.Dataset", keys: list[str], fn, empty,
           as_dataset: bool) -> pa.Table | "ray.data.Dataset":
    """Run ``fn`` (Arrow rows -> merged Arrow rows, correct on any subset
    that holds every row of its keys) over the partial rows ``parts``.

    The partials are materialized once, so their block bytes are free
    metadata: at or under ``_DRIVER_MAX_BYTES`` they gather and ``fn``
    runs once on the driver; above it they hash-exchange on ``keys`` and
    ``fn`` runs once per partition.  (The switch was 20M partial rows; at
    256 MiB it is 16.7M rows of two int64 columns, 5.6M of six.)
    ``as_dataset`` picks the result contract only: a Table (the exchange's
    merged rows gathered) or a Dataset (the driver merge wrapped by
    ``ray.data.from_arrow``).  ``empty()`` gives the typed result when
    there are no partial rows."""
    parts = materialized(parts)
    if parts.size_bytes() <= _DRIVER_MAX_BYTES:
        rows = gather(parts)
        out = empty() if rows is None else fn(rows)
        return ray.data.from_arrow(out) if as_dataset else out
    merged = exchange(parts, keys, fn)
    if as_dataset:
        return merged
    return gather(merged) or empty()


def grouped_agg(
    ds: "ray.data.Dataset",
    keys: list[str],
    aggs: list[tuple[str | None, str, str]],
    as_dataset: bool = False,
) -> pa.Table | "ray.data.Dataset":
    """Grouped aggregate via per-batch pyarrow partials.

    ``aggs``: list of ``(column, fn, alias)``; ``fn`` in sum|min|max|count
    (column is ignored for count); an empty list gives the distinct keys.
    Returns a pyarrow Table, or a Dataset with ``as_dataset=True``, with
    columns ``keys + [alias...]`` in declaration order.  The driver merge
    and the exchange run the same merge, so every plan and contract holds
    the same rows and types.
    """
    specs, pnames = _partial_specs(aggs)
    # one merge spec per unique partial column (count may repeat)
    merge_specs = list({pname: (pname, _MERGE_FN[fn])
                        for (_c, fn, _a), pname in zip(aggs, pnames)}.values())

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by(keys).aggregate(specs)

    def merge(partials: pa.Table) -> pa.Table:
        out = partials.group_by(keys).aggregate(merge_specs)
        # merged columns are named {pname}_{mergefn}
        cols = {k: out.column(k) for k in keys}
        for (_c, fn, alias), pname in zip(aggs, pnames):
            cols[alias] = out.column(f"{pname}_{_MERGE_FN[fn]}")
        return pa.table(cols)

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    # empty input: merge an empty partial so the output schema is stable
    return _merge(parts, keys, merge, lambda: merge(partial(_empty_like(ds))),
                  as_dataset)


def run_starts(rows: pa.Table, cols: list[str]) -> np.ndarray:
    """Bool mask of the rows of ``rows``, sorted on ``cols``, that open a
    run of equal ``cols`` values.  A null is a value: null keys form one
    run of their own."""
    starts = np.zeros(rows.num_rows, bool)
    starts[:1] = True
    for c in cols:
        codes = pc.fill_null(pc.dictionary_encode(
            rows.column(c).combine_chunks()).indices, -1).to_numpy()
        starts[1:] |= codes[1:] != codes[:-1]
    return starts


def run_bounds(starts: np.ndarray) -> np.ndarray:
    """Offsets of the runs a ``run_starts`` mask opens: run ``i`` is rows
    ``b[i]:b[i + 1]``."""
    return np.append(np.flatnonzero(starts), len(starts))


def run_ids(starts: np.ndarray) -> np.ndarray:
    """Each row's run number (0, 1, ...) under a ``run_starts`` mask."""
    return np.cumsum(starts) - 1


def run_positions(starts: np.ndarray) -> np.ndarray:
    """Each row's position (0, 1, ...) in its run under a ``run_starts``
    mask."""
    pos = np.arange(len(starts))
    return pos - np.maximum.accumulate(np.where(starts, pos, 0))


def shared_runs(rows: pa.Table, cols: list[str]
                ) -> tuple[pa.Table, np.ndarray]:
    """The rows of ``rows`` (sorted on ``cols``) whose run holds two rows
    or more, and those runs' ``run_bounds``: a row alone in its run pairs
    with nothing, so a pair search drops it before any per-run loop."""
    sizes = np.diff(run_bounds(run_starts(rows, cols)))
    shared = sizes >= 2
    rows = rows.filter(np.repeat(shared, sizes))
    return rows, np.append(0, np.cumsum(sizes[shared]))


def group_head(rows: pa.Table, group_cols: list[str],
               sort_keys: list[tuple[str, str]], k: int) -> pa.Table:
    """The first ``k`` rows of each group in ``sort_keys`` order, group by
    group.  A null group key is a group (SQL window PARTITION BY semantics
    — the oracles keep a NULL stratum, so must we).  The rows stay Arrow,
    so an int64 column holding a null keeps every value exact."""
    rows = rows.take(pc.sort_indices(
        rows, sort_keys=[(c, "ascending") for c in group_cols] + sort_keys))
    pos = run_positions(run_starts(rows, group_cols))
    return rows.filter(pos < k).combine_chunks()


def grouped_top_k(
    ds: "ray.data.Dataset",
    group_cols: list[str],
    sort_keys: list[tuple[str, str]],
    k: int,
    as_dataset: bool = False,
) -> pa.Table | "ray.data.Dataset":
    """Per-group top-k (stratified selection) without a global sort.

    Every block keeps its local top-k PER GROUP (one vectorized sort +
    grouped head), so at most ``n_blocks x n_groups x k`` survivor rows
    exist after the map stage; the same head then merges the survivors
    (``_merge``: on the driver, or per partition of an exchange on
    ``group_cols``).  Returns a Table, or a Dataset with
    ``as_dataset=True``.  ``sort_keys`` must totally order rows within a
    group for deterministic output.  With no ``group_cols`` it is a
    plain top-k: ``Dataset.sort().limit(k)`` would range-partition every
    row to keep k of them.
    """
    def head(rows: pa.Table) -> pa.Table:
        return group_head(rows, group_cols, sort_keys, k)

    survivors = ds.map_batches(head, batch_format="pyarrow",
                               zero_copy_batch=True)
    return _merge(survivors, group_cols, head, lambda: _empty_like(ds),
                  as_dataset)


def grouped_sum_top_k(
    ds: "ray.data.Dataset",
    group_col: str,
    key_col: str,
    value_col: str,
    k: int,
) -> pa.Table:
    """Per ``group_col`` value, the k ``key_col`` values with the largest
    summed ``value_col``, ties broken by key ascending; columns
    ``(group_col, key_col, value_col)``.  A null group is a group (SQL
    ``PARTITION BY`` semantics).

    Each block sums its (group, key) rows; the partial sums then merge
    through ``_merge`` on the group column, and one function sums and
    ranks them, on the driver or inside each exchange partition, so the
    driver never holds more partial bytes than ``_DRIVER_MAX_BYTES``."""
    cols = [group_col, key_col, value_col]
    order = [(group_col, "ascending"), (value_col, "descending"),
             (key_col, "ascending")]

    def partial(b: pa.Table) -> pa.Table:
        out = b.group_by([group_col, key_col]).aggregate([(value_col, "sum")])
        return out.select([group_col, key_col, f"{value_col}_sum"]
                          ).rename_columns(cols)

    def rank(partials: pa.Table) -> pa.Table:
        return group_head(partial(partials), [group_col], order, k)

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    return _merge(parts, [group_col], rank,
                  lambda: rank(_empty_like(ds).select(cols)), False)


def grouped_sketch(ds: "ray.data.Dataset", key: str | None, build,
                   merge) -> dict:
    """Fold a mergeable partial (a sketch, moment sums) per ``key`` value.

    In the workers each batch splits into its ``key`` groups (the whole
    batch is one group when ``key`` is None; a null key is a group, as in
    ``group_head``) and ``build(rows)`` runs once per group on the group's
    Arrow rows.  The built objects travel pickled, one row per group, so
    only ``n_blocks x n_groups`` partials leave the map stage.  The
    driver fetches the partial blocks one at a time, in the order
    ``gather`` reads them, and folds each group's partials in that order
    with ``merge(acc, partial) -> acc`` (which may update ``acc`` in
    place), so a fold whose result depends on its feed order (KLL
    compaction) sees the blocks in the order a gather would.  Driver
    memory is one partial block plus one merged object per group.

    Returns ``{key value: merged object}`` (``{None: ...}`` when ``key``
    is None); a group with no rows, or an empty input, is absent."""
    def partial(b: pa.Table) -> pa.Table:
        if key is None:
            groups = [b] if b.num_rows else []
            keys = pa.nulls(len(groups))
        else:
            enc = pc.dictionary_encode(b.column(key).combine_chunks())
            codes = pc.fill_null(enc.indices, -1).to_numpy(
                zero_copy_only=False)
            uniq = np.unique(codes)
            keys = enc.dictionary.take(
                pa.array(uniq, pa.int32(), mask=uniq < 0))
            groups = [b.filter(codes == c) for c in uniq]
        return pa.table({
            "key": keys,
            "partial": pa.array([pickle.dumps(build(g)) for g in groups],
                                pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    merged: dict = {}
    for ref in _block_refs(parts):
        blk = ray.get(ref)
        for k, payload in zip(blk.column("key").to_pylist(),
                              blk.column("partial").to_pylist()):
            obj = pickle.loads(payload)
            merged[k] = merge(merged[k], obj) if k in merged else obj
    return merged
