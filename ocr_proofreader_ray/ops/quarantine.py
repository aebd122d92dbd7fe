"""Poison-row quarantine for batch transforms (engine robustness).

At 100 TB a handful of malformed records WILL exist, and one raising row
must not kill a multi-hour job or silently vanish.  ``map_with_quarantine``
wraps any Arrow batch transform: batches where ``fn`` raises are bisected
recursively until the failing ROWS are isolated; good rows still flow
through ``fn`` (applied to the surviving sub-batches), and each poison row
is captured as (row JSON, error message, error type) for offline triage —
the badRecordsPath pattern, reference-free.

Cost model: the happy path is ONE extra try/except per batch (zero-copy,
no overhead); a failing batch costs O(log batch_size) extra ``fn`` calls
per poison row.  Results ride one dataset tagged with ``__bad`` so the
pipeline stays single-pass; ``split_quarantine`` materializes once and
filters twice (metadata-cheap on a materialized dataset).
"""

from __future__ import annotations

import json
import traceback

import pyarrow as pa
import ray.data

from ocr_proofreader_ray.ops.agg import gather

_QUAR_COLS = ("__bad", "__row_json", "__error", "__error_type")
# the quarantine table split_quarantine returns
_QUAR_SCHEMA = pa.schema([(c, pa.string()) for c in _QUAR_COLS[1:]])


def _good_table(out: pa.Table) -> pa.Table:
    n = out.num_rows
    return (out
            .append_column("__bad", pa.array([False] * n, pa.bool_()))
            .append_column("__row_json", pa.nulls(n, pa.string()))
            .append_column("__error", pa.nulls(n, pa.string()))
            .append_column("__error_type", pa.nulls(n, pa.string())))


def _bad_table(row: pa.Table, err: Exception,
               out_schema: pa.Schema) -> pa.Table:
    cols = {name: pa.nulls(1, typ)
            for name, typ in zip(out_schema.names, out_schema.types)}
    t = pa.table(cols) if cols else pa.table({"__placeholder": pa.nulls(1)})
    if not cols:
        t = t.drop_columns(["__placeholder"])
    payload = json.dumps(
        {k: repr(v[0]) for k, v in row.to_pydict().items()}, sort_keys=True)
    return (t
            .append_column("__bad", pa.array([True], pa.bool_()))
            .append_column("__row_json", pa.array([payload], pa.string()))
            .append_column("__error", pa.array(
                [str(err) or traceback.format_exception_only(
                    type(err), err)[0].strip()], pa.string()))
            .append_column("__error_type", pa.array(
                [type(err).__name__], pa.string())))


def map_with_quarantine(ds: "ray.data.Dataset", fn,
                        out_schema: pa.Schema) -> "ray.data.Dataset":
    """Apply ``fn`` (pa.Table -> pa.Table with ``out_schema``) batch-wise;
    rows that make ``fn`` raise surface as quarantine rows instead of
    failing the job.  Returns ONE dataset: fn-output columns plus the
    ``__bad/__row_json/__error/__error_type`` tags (null on good rows) —
    pass it to ``split_quarantine`` for the (good, quarantined) pair."""

    def attempt(batch: pa.Table) -> list[pa.Table]:
        try:
            return [_good_table(fn(batch))]
        except Exception as err:  # noqa: BLE001 — the whole point
            if batch.num_rows == 0:
                # fn raised on an EMPTY batch (e.g. code indexing row 0);
                # bisection would reproduce the same empty batch forever —
                # there is no poison row to report, so emit nothing
                return []
            if batch.num_rows == 1:
                return [_bad_table(batch, err, out_schema)]
            mid = batch.num_rows // 2
            return (attempt(batch.slice(0, mid))
                    + attempt(batch.slice(mid)))

    def wrapper(batch: pa.Table) -> pa.Table:
        parts = attempt(batch)
        if not parts:
            return _good_table(out_schema.empty_table())
        return pa.concat_tables(parts, promote_options="default")

    return ds.map_batches(wrapper, batch_format="pyarrow",
                          zero_copy_batch=True)


def split_quarantine(tagged: "ray.data.Dataset"):
    """(good_ds with fn's own schema, quarantine_table) from a
    ``map_with_quarantine`` output.  Materializes once; the two filters
    then run over cached blocks."""
    import pyarrow.compute as pc

    tagged = tagged.materialize()
    good = tagged.map_batches(
        lambda b: b.filter(pc.invert(b.column("__bad")))
                   .drop_columns(list(_QUAR_COLS)),
        batch_format="pyarrow", zero_copy_batch=True)
    bad_ds = tagged.map_batches(
        lambda b: b.filter(b.column("__bad"))
                   .select(["__row_json", "__error", "__error_type"]),
        batch_format="pyarrow", zero_copy_batch=True)
    return good, gather(bad_ds) or _QUAR_SCHEMA.empty_table()
