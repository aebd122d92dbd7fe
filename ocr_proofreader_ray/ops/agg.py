"""Partial-aggregation ("combiner") grouped aggregates.

Ray Data's ``groupby().aggregate()`` is a sort-based all-to-all over every
input row — measured ~15 s for a 6-group aggregate of 600 k rows, because
the whole table moves.  The scale-correct plan for aggregates is the
combiner pattern: each ``map_batches`` task reduces its batch with pyarrow's
C++ ``Table.group_by`` (vectorized, zero Python per row), so only
``n_blocks x n_groups`` partial rows ever leave the map stage.

Two final-merge strategies, one merge function:

* ``final="driver"`` — partials are gathered and merged on the driver with
  one more pyarrow group_by.  Right when group cardinality is small
  (dimension keys, day buckets: ≤ ~10^5 groups) — the gathered data is tiny
  at ANY input scale, so this stays cheap on a 256-node cluster.
* ``final="ray"`` — partials hash-partition on the group keys through
  ``ops.exchange.exchange`` and each partition runs the SAME Arrow merge.
  Right for high-cardinality keys (per-customer, per-token) where the
  partials themselves are big; the shuffle moves only partials, never
  input rows.

The distributed final used to be Ray's sort-based
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
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

from ocr_proofreader_ray.ops.exchange import exchange

# how each partial column merges in the final pass
_MERGE_FN = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def _arrow_blocks(ds: "ray.data.Dataset") -> list[pa.Table]:
    """Gather a (small) dataset's non-empty blocks to the driver as Arrow
    tables — the one way query code drains a plan.

    The plan is materialized first: on a lazy plan, ``to_arrow_refs``
    executes it and then reads its schema through a second ``limit=1``
    execution, and an upstream all-to-all (shuffle join, sort) cannot stop
    early, so that probe re-runs the whole upstream (measured 2x the join
    per aggregate).  A materialized dataset has its schema cached and
    materializing it again executes nothing.

    ``to_arrow_refs`` passes pandas blocks through unconverted (seen when an
    upstream ``map_groups(batch_format="pandas")`` emitted only empty frames
    and the empty blocks skipped later Arrow stages), so convert here."""
    import pandas as pd

    out = []
    for blk in ray.get(ds.materialize().to_arrow_refs()):
        if isinstance(blk, pd.DataFrame):
            if len(blk):
                out.append(pa.Table.from_pandas(blk, preserve_index=False))
        elif blk.num_rows:
            out.append(blk)
    return out


def _empty_like(ds: "ray.data.Dataset") -> pa.Table:
    """Empty Arrow table matching a dataset's schema (Arrow or pandas-block)."""
    schema = ds.schema()
    base = getattr(schema, "base_schema", schema)
    if isinstance(base, pa.Schema):
        return base.empty_table()
    # PandasBlockSchema: ``types`` may hold numpy dtypes or Arrow DataTypes
    fields = []
    for n, typ in zip(schema.names, schema.types):
        if not isinstance(typ, pa.DataType):
            try:
                typ = pa.from_numpy_dtype(typ)
            except (pa.ArrowNotImplementedError, TypeError):
                typ = pa.string()  # object dtype and friends
        fields.append((n, typ))
    return pa.schema(fields).empty_table()


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


def grouped_agg(
    ds: "ray.data.Dataset",
    keys: list[str],
    aggs: list[tuple[str | None, str, str]],
    final: str = "driver",
) -> pa.Table | "ray.data.Dataset":
    """Grouped aggregate via per-batch pyarrow partials.

    ``aggs``: list of ``(column, fn, alias)``; ``fn`` in sum|min|max|count
    (column is ignored for count).  Returns a pyarrow Table
    (``final="driver"``) or a Dataset (``final="ray"``), with columns
    ``keys + [alias...]`` in declaration order.  Both finals run the same
    merge, so they return the same rows and types.
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
    if final == "ray":
        return exchange(parts, keys, merge)

    tables = _arrow_blocks(parts)
    if not tables:
        # empty input: derive an empty partial so output schema is stable
        tables = [partial(_empty_like(ds))]
    return merge(pa.concat_tables(tables, promote_options="default"))


def grouped_top_k(
    ds: "ray.data.Dataset",
    group_cols: list[str],
    sort_keys: list[tuple[str, str]],
    k: int,
) -> pa.Table:
    """Per-group top-k (stratified selection) without a global sort.

    Every block keeps its local top-k PER GROUP (one vectorized sort +
    grouped head), so at most ``n_blocks x n_groups x k`` survivor rows
    reach the driver merge — right when group cardinality is bounded
    (languages, segments, day buckets).  For per-document groups prefer a
    batch-local argmax (docs never span blocks after an explode).
    ``sort_keys`` must totally order rows within a group for deterministic
    output.
    """
    import pyarrow.compute as pc

    def local(b: pa.Table) -> pa.Table:
        idx = pc.sort_indices(b, sort_keys=sort_keys)
        df = b.take(idx).to_pandas()
        # dropna=False: a null group key is a group (SQL window PARTITION BY
        # semantics — the oracle keeps a NULL stratum, so must we)
        return pa.Table.from_pandas(
            df.groupby(group_cols, sort=False, dropna=False).head(k),
            preserve_index=False, schema=b.schema)

    parts = ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True)
    tables = _arrow_blocks(parts)
    if not tables:
        return _empty_like(ds)
    merged = pa.concat_tables(tables, promote_options="default")
    idx = pc.sort_indices(merged, sort_keys=sort_keys)
    df = merged.take(idx).to_pandas()
    return pa.Table.from_pandas(
        df.groupby(group_cols, sort=False, dropna=False).head(k),
        preserve_index=False, schema=merged.schema).combine_chunks()


# (group, key, value) input rows at or under this merge on the driver with
# one combiner aggregate; above it a hash exchange on the group column ranks
# each group's keys inside a worker, so the driver only ever sees k rows
# per group
_TOPK_DRIVER_MAX_ROWS = 20_000_000


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

    At or under ``_TOPK_DRIVER_MAX_ROWS`` input rows the sums merge on the
    driver (``grouped_agg``) and each group is sorted there.  Above it the
    rows hash-partition on the group column and each partition aggregates
    and ranks its groups in a worker.  ``ds.count()`` picks the plan, so
    pass a materialized dataset or a bare read."""
    import pyarrow.compute as pc

    order = [(value_col, "descending"), (key_col, "ascending")]
    if ds.count() <= _TOPK_DRIVER_MAX_ROWS:
        total = grouped_agg(ds, [group_col, key_col],
                            [(value_col, "sum", value_col)])
        groups = total.column(group_col)
        parts = []
        for g in pc.unique(groups).to_pylist():
            # pc.equal(col, None) is an all-null mask that filter drops —
            # the null group needs is_null
            sub = total.filter(pc.is_null(groups) if g is None
                               else pc.equal(groups, g))
            parts.append(sub.take(pc.sort_indices(sub, sort_keys=order)[:k]))
        return pa.concat_tables(parts) if parts else total

    def part_topk(g: pa.Table) -> pa.Table:
        agg = g.group_by([group_col, key_col]).aggregate([(value_col, "sum")])
        agg = pa.table({group_col: agg.column(group_col),
                        key_col: agg.column(key_col),
                        value_col: agg.column(f"{value_col}_sum")})
        idx = pc.sort_indices(agg, sort_keys=[(group_col, "ascending")]
                              + order)
        df = agg.take(idx).to_pandas()
        return pa.Table.from_pandas(
            df.groupby(group_col, sort=False, dropna=False).head(k),
            preserve_index=False, schema=agg.schema)

    tables = _arrow_blocks(exchange(ds, [group_col], part_topk))
    if not tables:
        return _empty_like(ds).select([group_col, key_col, value_col])
    return pa.concat_tables(tables, promote_options="default")


def top_k(
    ds: "ray.data.Dataset",
    sort_keys: list[tuple[str, str]],
    k: int,
) -> pa.Table:
    """Distributed top-k without a global sort.

    ``Dataset.sort().limit(k)`` range-partitions EVERY row to produce k of
    them.  Here each block keeps its local top-k (pyarrow sort of one block),
    and the driver merges ``n_blocks x k`` survivors — tiny at any input
    scale.  ``sort_keys``: [(col, "ascending"|"descending"), ...]; ties must
    be broken by the key list itself for deterministic output.
    """
    import pyarrow.compute as pc

    def local(b: pa.Table) -> pa.Table:
        idx = pc.sort_indices(b, sort_keys=sort_keys)
        return b.take(idx[:k])

    parts = ds.map_batches(local, batch_format="pyarrow", zero_copy_batch=True)
    tables = _arrow_blocks(parts)
    if not tables:
        return _empty_like(ds)
    merged = pa.concat_tables(tables, promote_options="default")
    idx = pc.sort_indices(merged, sort_keys=sort_keys)
    return merged.take(idx[:k]).combine_chunks()
