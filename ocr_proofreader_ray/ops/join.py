"""Join strategies (SURVEY.md §2 B7/B8).

Two physical strategies:

* **Broadcast hash join** — the small side (dimension table, key set) is
  ``ray.put`` ONCE on the driver; every map task ``ray.get``s it (a
  zero-copy view of the node's object store, so nothing outlives the
  task) and joins each Arrow batch with ``pyarrow.Table.join`` (Arrow C++
  hash join).  No shuffle; the big side streams.  Semi/anti joins broadcast
  the key set and filter with ``pyarrow.compute.is_in``.
* **Hash-exchange join** — both sides large → ``shuffle_join`` /
  ``shuffle_semi_anti`` / ``asof_join``: both sides meet in ONE
  ``ops.exchange.co_exchange`` on the key, and each is only the function
  one partition runs on its two sides — an Arrow join, an ``is_in``
  filter or a ``merge_asof``.  The partition hash, the partition count and
  how the two sides travel together belong to ``ops/exchange.py``.

Every choice between them is made here, by three entry points against ONE
sizing rule, so query code describes its sides and never names a plan:
``_gathered`` materializes the side a plan would broadcast and gathers it
only while its Arrow block bytes fit the package's one driver bound,
``ops.agg._DRIVER_MAX_BYTES`` (256 MiB).

* ``join`` — inner, left outer, left semi/anti or full outer against a
  Dataset right side; a left-streaming join type broadcasts the right
  side under the bound, everything else hash-exchanges;
* ``semi_anti`` — an exact semi/anti join against a Dataset key side,
  sized by the bytes of its materialized distinct keys;
* ``prefilter`` — a superset key filter (never a false negative): the exact
  key set broadcasts under the bound, a Bloom filter above it.

A right side that ``join`` receives already materialized is gathered and
put once however many joins read it: its broadcast ref is memoized per
Dataset (``_BROADCAST_REFS``, weakly keyed, so the entry dies with the
Dataset).  Tests force every hash-exchange or Bloom plan by patching the
bound to 0.
"""

from __future__ import annotations

import weakref

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ocr_proofreader_ray.functions.bloom import BloomFilter, build_bloom
from ocr_proofreader_ray.ops import agg
from ocr_proofreader_ray.ops.agg import _empty_like, gather, materialized
from ocr_proofreader_ray.ops.exchange import co_exchange, with_schema


def broadcast_join(
    ds: "ray.data.Dataset",
    ref: "ray.ObjectRef",
    on: list[str],
    right_on: list[str] | None = None,
    join_type: str = "inner",
) -> "ray.data.Dataset":
    """Join a streaming Dataset against a small Arrow table already
    ``ray.put`` as ``ref``."""
    right_on = right_on or on

    def _join(batch: pa.Table) -> pa.Table:
        rt: pa.Table = ray.get(ref)
        return batch.join(
            rt, keys=on, right_keys=right_on, join_type=join_type,
            coalesce_keys=True,
        )

    return ds.map_batches(_join, batch_format="pyarrow", zero_copy_batch=True)


def broadcast_semi_anti(
    ds: "ray.data.Dataset",
    keys: pa.Array | pa.ChunkedArray,
    on: str,
    anti: bool = False,
) -> "ray.data.Dataset":
    """Semi (keep matches) or anti (keep non-matches) join via a broadcast
    key set — no shuffle.  Callers size the key set first (``semi_anti``,
    ``prefilter``) or hold one bounded by construction."""
    if isinstance(keys, pa.ChunkedArray):
        keys = keys.combine_chunks()
    ref = ray.put(pc.unique(keys))

    def _filter(batch: pa.Table) -> pa.Table:
        key_set = ray.get(ref)
        mask = pc.is_in(batch.column(on), value_set=key_set)
        if anti:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return ds.map_batches(_filter, batch_format="pyarrow", zero_copy_batch=True)


def _gathered(ds: "ray.data.Dataset") -> tuple["ray.data.Dataset",
                                               pa.Table | None]:
    """``ds`` materialized (kept as it is when it already is) and, while
    its block bytes fit ``agg._DRIVER_MAX_BYTES``, its rows gathered to
    the driver as one Arrow table — typed and empty when it has no rows;
    None above the bound."""
    ds = materialized(ds)
    if ds.size_bytes() > agg._DRIVER_MAX_BYTES:
        return ds, None
    return ds, gather(ds) or _empty_like(ds)


def _distinct_keys(ds: "ray.data.Dataset", col: str) -> "ray.data.Dataset":
    """Per-block distinct values of ``col``: membership needs nothing more,
    so a key side shrinks to distinct keys x blocks before it moves."""
    return ds.map_batches(
        lambda b: pa.table({col: pc.unique(b.column(col).combine_chunks())}),
        batch_format="pyarrow", zero_copy_batch=True)


def semi_anti(
    ds: "ray.data.Dataset",
    keys_ds: "ray.data.Dataset",
    on: str,
    keys_on: str | None = None,
    anti: bool = False,
) -> "ray.data.Dataset":
    """Semi (keep rows of ``ds`` whose ``on`` value is among ``keys_ds``'s
    ``keys_on`` values) or anti join against a key side of any size.

    The key side's per-block distinct keys are materialized once; while
    their bytes fit ``agg._DRIVER_MAX_BYTES`` they gather and broadcast as
    one exact key set (``broadcast_semi_anti``), above it both sides meet
    in ``shuffle_semi_anti``.  Both plans select the same rows."""
    keys_on = keys_on or on
    keys, table = _gathered(_distinct_keys(keys_ds, keys_on))
    if table is not None:
        return broadcast_semi_anti(ds, table.column(keys_on), on=on,
                                   anti=anti)
    return shuffle_semi_anti(ds, keys, on=on, keys_on=keys_on, anti=anti)


def prefilter(
    ds: "ray.data.Dataset",
    keys: "pa.Array | pa.ChunkedArray | ray.data.Dataset",
    on: str,
    keys_on: str | list[str] | None = None,
) -> "ray.data.Dataset":
    """Rows of ``ds`` whose ``on`` value is among ``keys`` — and possibly a
    few more: never a false negative, a null key included.

    ``keys`` is an Arrow array already on the driver, or a Dataset whose
    ``keys_on`` column(s) (default ``on``) hold the keys.  The key side is
    sized from metadata (an array's distinct keys; a Dataset materialized
    once, then its block bytes, an upper bound on its keys'), so a
    materialized key side costs no execution to size.  While that fits
    ``agg._DRIVER_MAX_BYTES`` the exact key set broadcasts
    (``broadcast_semi_anti``) and the result IS the semi join; above it a
    Bloom filter of the keys — built in the workers for a Dataset —
    broadcasts once and drops most non-matching rows.  Callers that need
    exact rows follow with a join, which resolves the false positives."""
    if isinstance(keys, ray.data.Dataset):
        cols = [keys_on or on] if not isinstance(keys_on, list) else keys_on
        keys, table = _gathered(keys)
        if table is not None:
            return broadcast_semi_anti(ds, pa.concat_arrays(
                [table.column(c).combine_chunks() for c in cols]), on=on)
        flat = keys.map_batches(
            lambda b: pa.table({"key": pa.concat_arrays(
                [b.column(c).combine_chunks() for c in cols])}),
            batch_format="pyarrow", zero_copy_batch=True)
        bloom = build_bloom(flat, "key", keys.count() * len(cols))
    else:
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        keys = pc.unique(keys)
        if keys.nbytes <= agg._DRIVER_MAX_BYTES:
            return broadcast_semi_anti(ds, keys, on=on)
        bloom = BloomFilter(len(keys))
        bloom.add_column(keys)
    ref = ray.put(bloom)

    def probe(b: pa.Table) -> pa.Table:
        return b.filter(pa.array(ray.get(ref).contains_column(b.column(on))))

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


# join types whose result a streamed left side can produce batch by batch
# against the whole right side: only these may broadcast
_LEFT_STREAMING = ("inner", "left outer", "left semi", "left anti")


# broadcast ref per materialized right side of ``join``: weakly keyed, so
# an entry lives exactly as long as the Dataset that several joins read
_BROADCAST_REFS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def join(
    ds: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: list[str],
    right_on: list[str] | None = None,
    join_type: str = "inner",
) -> "ray.data.Dataset":
    """Join ``ds`` against a Dataset ``right`` of any size.

    For a left-streaming join type (inner, left outer, left semi/anti)
    ``right`` goes through ``_gathered``: while its bytes fit
    ``agg._DRIVER_MAX_BYTES`` it is put once and broadcast
    (``broadcast_join``) and ``ds`` streams; above it both sides
    hash-exchange (``shuffle_join``).  A join type that must see
    right-side non-matches (right or full outer, right semi/anti) always
    exchanges.  An already materialized ``right`` is gathered and put once
    for every join that reads it (``_BROADCAST_REFS``).  Both plans return
    the same rows with keys coalesced into ``on``; non-key column names
    must be disjoint across sides."""
    if join_type in _LEFT_STREAMING:
        ref = _BROADCAST_REFS.get(right)
        if ref is None:
            right, table = _gathered(right)
            if table is not None:
                ref = _BROADCAST_REFS[right] = ray.put(table)
        if ref is not None:
            return broadcast_join(ds, ref, on, right_on, join_type)
    return shuffle_join(ds, right, on, right_on, join_type)


def shuffle_semi_anti(
    ds: "ray.data.Dataset",
    keys_ds: "ray.data.Dataset",
    on: str,
    keys_on: str | None = None,
    anti: bool = False,
) -> "ray.data.Dataset":
    """Exact semi/anti join for a FACT-SIZED key side (VERDICT r02 #7
    class: ``broadcast_semi_anti`` gathers the key column to the driver
    and broadcasts the exact set — corpus-proportional on both counts).

    Both sides meet in one ``co_exchange`` on the key, and each partition
    filters its data rows with an Arrow ``is_in`` against its own key
    rows, so no worker holds more than its hash partition of keys and
    nothing key-side ever touches the driver.  Key rows dedup per batch
    before shuffling (``_distinct_keys``).  Null-key semantics match
    ``broadcast_semi_anti`` exactly (is_in: a null probe matches only a
    null key; anti inverts), pinned by the plan-switch equivalence test."""
    keys_on = keys_on or on

    def filter_partition(data: pa.Table, keys: pa.Table) -> pa.Table:
        key_set = pc.unique(keys.column(keys_on).combine_chunks())
        mask = pc.is_in(data.column(on), value_set=key_set)
        if anti:
            mask = pc.invert(mask)
        return data.filter(mask).combine_chunks()

    return co_exchange(ds, _distinct_keys(keys_ds, keys_on), [on], [keys_on],
                       filter_partition)


def shuffle_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: tuple[str, ...],
    right_on: tuple[str, ...] | None = None,
    join_type: str = "inner",
    salt: int | None = None,
) -> "ray.data.Dataset":
    """Fact-fact hash-partitioned join.

    Both sides meet in one ``co_exchange`` on the join keys; each
    partition then joins its two sides with ``pyarrow.Table.join`` (Arrow
    C++ hash join).  This is one all-to-all shuffle of exactly the
    projected join columns — much cheaper than Ray 2.49's experimental
    ``Dataset.join`` actor pool (measured ~6x faster warm at sf0.01, far
    less startup).  Non-key column names must be disjoint across sides.

    **Skew salting** (``salt=R``, inner joins only): when one left-side key
    value dominates, its whole partition lands on one worker.  With
    salting, every left row gets a ``__salt`` in [0, R) (spreading a hot
    key over R partitions) and every right row is replicated R times, once
    per salt; ``__salt`` is an extra exchange and join key, so results are
    exactly the unsalted join (pinned by tests) while the hot partition
    shrinks Rx.  Cost: right-side shuffle volume xR — salt when the left
    is skewed and the right is the smaller side.
    """
    on = list(on)
    right_on = list(right_on) if right_on else on
    if salt is not None and salt > 1 and join_type != "inner":
        raise ValueError("salt requires join_type='inner' (replicated right "
                         "rows would duplicate outer non-matches)")
    n_salt = salt if salt is not None and salt > 1 else 0

    salt_keys = []
    if n_salt:
        import numpy as np

        def salt_rows(side: int):
            def fn(b: pa.Table) -> pa.Table:
                if "__salt" in b.column_names:
                    raise ValueError("shuffle_join: input carries reserved "
                                     "column '__salt' — rename upstream")
                if side == 0:
                    salts = np.arange(b.num_rows) % n_salt
                else:
                    # replicate the right batch once per salt value
                    salts = np.repeat(np.arange(n_salt), b.num_rows)
                    b = pa.concat_tables([b] * n_salt)
                return b.append_column("__salt",
                                       pa.array(salts.astype(np.int32)))
            return fn

        left = left.map_batches(salt_rows(0), batch_format="pyarrow",
                                zero_copy_batch=True)
        right = right.map_batches(salt_rows(1), batch_format="pyarrow",
                                  zero_copy_batch=True)
        salt_keys = ["__salt"]

    left, lschema = with_schema(left)
    right, rschema = with_schema(right)
    overlap = ((set(lschema.names) - set(on) - set(salt_keys))
               & (set(rschema.names) - set(right_on)))
    if overlap:
        raise ValueError(f"shuffle_join: non-key column collision {overlap}")

    def join_partition(lrows: pa.Table, rrows: pa.Table) -> pa.Table:
        # __salt joins as an extra key, so a replicated right row matches
        # exactly one left salt — results identical to the unsalted join
        out = lrows.join(rrows, keys=on + salt_keys,
                         right_keys=right_on + salt_keys,
                         join_type=join_type, coalesce_keys=True)
        if n_salt:
            out = out.drop_columns(salt_keys)
        return out.combine_chunks()

    return co_exchange(left, right, on + salt_keys, right_on + salt_keys,
                       join_partition)


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    on: str,
    right_on: str,
    left_ts: str,
    right_ts: str,
    right_tiebreak: str | None = None,
) -> "ray.data.Dataset":
    """As-of join: for each left row, the single right row with the same key
    and the greatest ``right_ts`` at or before ``left_ts`` (backward
    direction, inner semantics — unmatched left rows drop, like SQL
    ``ASOF JOIN``).

    Composition, not a new primitive: both sides meet in one
    ``co_exchange`` on the key, and each partition resolves its matches
    with pandas ``merge_asof`` (vectorized C, both sides sorted by
    timestamp).
    Determinism with duplicate right (key, ts) rows: pass
    ``right_tiebreak=<col>`` — the MAX tiebreak value wins (the right side
    sorts by (ts, tiebreak) and ``merge_asof`` selects the last row among
    equal timestamps), resolved inside the partition with no extra
    aggregate pass.  Without a tiebreak the right side must be unique per
    (key, ts); pre-reduce upstream.
    """
    left, lschema = with_schema(left)
    right, rschema = with_schema(right)
    overlap = set(lschema.names) & set(rschema.names)
    if overlap:
        raise ValueError(f"asof_join: column collision {overlap}")
    out_schema = pa.schema(list(zip(lschema.names, lschema.types))
                           + list(zip(rschema.names, rschema.types)))

    # integer columns must cross into pandas as NULLABLE extension dtypes:
    # the plain path upcasts an int column holding a null to float64, which
    # silently corrupts ids above 2^53 (snowflake/hash ids at corpus
    # scale) before merge_asof even compares keys
    _INT_NULLABLE = {
        pa.int8(): "Int8", pa.int16(): "Int16", pa.int32(): "Int32",
        pa.int64(): "Int64", pa.uint8(): "UInt8", pa.uint16(): "UInt16",
        pa.uint32(): "UInt32", pa.uint64(): "UInt64",
    }

    def _to_pd(tab: pa.Table):
        import pandas as pd

        return tab.to_pandas(
            types_mapper=lambda t: (pd.__dict__[_INT_NULLABLE[t] + "Dtype"]()
                                    if t in _INT_NULLABLE else None))

    def _ts_usable(col) -> pa.ChunkedArray:
        # null timestamps can never satisfy ts >= rts: drop them (SQL inner
        # ASOF semantics) — merge_asof would otherwise raise on NaT keys.
        # Float-typed ts columns additionally carry NaN (not null), which
        # survives is_valid and raises "keys must be sorted" inside
        # merge_asof (ADVICE r04) — filter it with the same inner semantics.
        m = pc.is_valid(col)
        if pa.types.is_floating(col.type):
            m = pc.and_(m, pc.invert(pc.is_nan(col)))
        return m

    def asof_partition(lrows: pa.Table, rrows: pa.Table) -> pa.Table:
        import pandas as pd

        l = _to_pd(
            lrows.filter(_ts_usable(lrows.column(left_ts)))
        ).sort_values(left_ts, kind="stable")
        r_sort = ([right_ts, right_tiebreak] if right_tiebreak
                  else [right_ts])
        r = _to_pd(
            rrows.filter(_ts_usable(rrows.column(right_ts)))
        ).sort_values(r_sort, kind="stable")
        if not len(l) or not len(r):
            return out_schema.empty_table()
        # merge_asof demands identical temporal dtypes; sources may carry
        # different units (e.g. timestamp[us] vs timestamp[s])
        if l[left_ts].dtype != r[right_ts].dtype:
            l = l.assign(**{left_ts: l[left_ts].astype("datetime64[us]")})
            r = r.assign(**{right_ts: r[right_ts].astype("datetime64[us]")})
        out = pd.merge_asof(l, r, left_on=left_ts, right_on=right_ts,
                            left_by=on, right_by=right_on,
                            direction="backward")
        out = out[out[right_on].notna()]  # inner semantics
        # restore EVERY column to its source Arrow type: nullable ints
        # round-trip losslessly; float/ts columns keep their NaN->null map
        return pa.table(
            {name: pa.Array.from_pandas(out[name], type=typ)
             for name, typ in zip(out_schema.names, out_schema.types)},
            schema=out_schema)

    return co_exchange(left, right, [on], [right_on], asof_partition)


_USEC_PER_DAY = 86_400_000_000


def _epoch_days(col: pa.ChunkedArray | pa.Array) -> "object":
    """timestamp[*]/date column -> (int64 epoch-day ndarray, valid mask)."""
    import numpy as np

    ts = pc.cast(col, pa.timestamp("us"))
    valid = np.asarray(ts.is_valid())
    raw = np.asarray(pc.fill_null(pc.cast(ts, pa.int64()), 0))
    return np.floor_divide(raw, _USEC_PER_DAY), valid


def range_count_join(
    left: "ray.data.Dataset",
    left_ts: str,
    right: "ray.data.Dataset",
    right_ts: str,
    window_days: int,
    count_name: str = "window_count",
    sum_col: str | None = None,
    sum_name: str = "window_sum",
) -> "ray.data.Dataset":
    """Non-equi interval join, aggregate form: for each left row, COUNT (and
    optionally SUM of ``sum_col``) of right rows whose ``right_ts`` falls in
    ``[left_ts, left_ts + window_days)`` — day granularity, no equi key.

    A pair-materializing range join is quadratic on dense windows; counting
    semantics admit a plan with NO all-to-all exchange at all:

    1. combiner pass over the right side reduces it to a per-calendar-day
       (count, sum) histogram via ``grouped_agg`` — merged state is bounded
       by DISTINCT DAYS (a few 10^4 over decades of data), corpus-size
       independent, so the driver final is safe at any scale;
    2. the driver turns the histogram into sorted day + prefix-sum arrays,
       ``ray.put`` ONCE;
    3. the left side streams through one ``map_batches``: two vectorized
       ``np.searchsorted`` probes per batch answer every window with
       ``prefix[hi) - prefix[lo)``.

    Left rows with a null timestamp get count 0 / sum null (SQL LEFT JOIN +
    COUNT semantics).  Generalizing to per-key windows (key + range) is the
    same plan with the histogram keyed by (key, day) — bounded by
    keys x days.
    """
    import numpy as np

    from ocr_proofreader_ray.ops.agg import grouped_agg

    # integer sum_col stays int64 end-to-end (exact in any order — the
    # repo-wide float-determinism contract); float falls back to float64
    right, rschema = with_schema(right)
    sum_int = (sum_col is not None
               and pa.types.is_integer(rschema.field(sum_col).type))
    sum_pa_type = pa.int64() if sum_int else pa.float64()

    def day_partial(b: pa.Table) -> pa.Table:
        days, valid = _epoch_days(b.column(right_ts))
        cols = {"__day": pa.array(days[valid], pa.int64())}
        if sum_col is not None:
            zero = pa.scalar(0, sum_pa_type)
            vals = np.asarray(
                pc.fill_null(pc.cast(b.column(sum_col), sum_pa_type), zero))
            cols["__v"] = pa.array(vals[valid], sum_pa_type)
        return pa.table(cols)

    aggs: list = [(None, "count", "c")]
    if sum_col is not None:
        aggs.append(("__v", "sum", "s"))
    hist = grouped_agg(
        right.map_batches(day_partial, batch_format="pyarrow",
                          zero_copy_batch=True),
        ["__day"], aggs)

    days = np.asarray(hist.column("__day"), dtype=np.int64)
    order = np.argsort(days, kind="stable")
    days = days[order]
    # prefix[i] = total over all days < days[i]; prefix[len] = grand total
    cnt_prefix = np.concatenate(
        [[0], np.cumsum(np.asarray(hist.column("c"), dtype=np.int64)[order])])
    sum_prefix = None
    if sum_col is not None:
        np_sum = np.int64 if sum_int else np.float64
        sum_prefix = np.concatenate(
            [np.zeros(1, np_sum),
             np.cumsum(np.asarray(hist.column("s"), dtype=np_sum)[order])])
    ref = ray.put((days, cnt_prefix, sum_prefix))

    def probe(b: pa.Table) -> pa.Table:
        day_arr, prefix, sprefix = ray.get(ref)
        lo, valid = _epoch_days(b.column(left_ts))
        hi = lo + window_days
        ilo = np.searchsorted(day_arr, lo, side="left")
        ihi = np.searchsorted(day_arr, hi, side="left")
        counts = np.where(valid, prefix[ihi] - prefix[ilo], 0)
        b = b.append_column(count_name, pa.array(counts, pa.int64()))
        if sprefix is not None:
            sums = sprefix[ihi] - sprefix[ilo]
            # SQL LEFT JOIN + SUM: empty window -> NULL, not 0
            null_mask = ~(valid & (counts > 0))
            b = b.append_column(
                sum_name,
                pa.array(sums, type=sum_pa_type, mask=null_mask))
        return b

    return left.map_batches(probe, batch_format="pyarrow",
                            zero_copy_batch=True)
