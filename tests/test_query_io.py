"""The one query-side Parquet scan (``ops.io.read_parquet``) and the
keyless combiner aggregate that replaced Ray's sort-based
``Dataset.aggregate`` in query code."""

import math
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fixtures.gen_golden_queries import SF_DIR as SF

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_small_table_read_fuses_with_its_first_map(ray_session):
    # Ray's autodetect alone splits this few-KB table into 2 x CPUs blocks
    # (ReadParquet->SplitBlocks(8) at 4 CPUs) that no map fuses with
    from ocr_proofreader_ray.pipelines.relational import t

    ds = t(SF, "orders").map_batches(
        lambda b: b, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    assert ds.num_blocks() == 1
    ops = re.findall(r"^Operator \d+ (\S+): (\d+) tasks executed",
                     ds.stats(), re.M)
    assert len(ops) == 1, ds.stats()
    name, tasks = ops[0]
    assert name.startswith("ReadParquet->MapBatches"), name
    assert int(tasks) == 1


def test_pandas_written_table_reads_without_schema_metadata(ray_session):
    """The sf tables were written from pandas: their ``pandas`` schema
    metadata must reach neither a block nor the planned schema (it makes
    Ray fail to hash the schemas and run a full unification), and every
    column keeps its Parquet type."""
    import ray

    from ocr_proofreader_ray.ops.io import read_parquet

    path = f"{SF}/lineitem.parquet"
    want = pq.read_schema(path)
    assert want.metadata and b"pandas" in want.metadata
    for columns in (None, ["l_orderkey", "l_shipdate"]):
        ds = read_parquet(path, columns=columns)
        planned = ds.schema().base_schema
        block = ray.get(ds.materialize().to_arrow_refs())[0]
        names = columns or want.names
        typed = pa.schema([want.field(c) for c in names])
        assert not planned.metadata and not block.schema.metadata
        assert planned == typed and block.schema == typed


def _write_big(tmp_path) -> str:
    path = str(tmp_path / "big.parquet")
    rng = np.random.default_rng(0)
    pq.write_table(pa.table({"x": rng.integers(0, 2**62, 200_000)}), path)
    return path


def test_input_above_one_block_keeps_rays_default_split(ray_session,
                                                       tmp_path):
    import ray.data
    from ray.data import DataContext

    from ocr_proofreader_ray.ops import io

    path = _write_big(tmp_path)
    bound = DataContext.get_current().target_min_block_size
    assert io._estimated_bytes([path], None, bound) > bound
    got = io.read_parquet(path).materialize().num_blocks()
    assert got > 1
    assert got == ray.data.read_parquet(path).materialize().num_blocks()


def test_size_estimate_reads_selected_columns_and_stops_past_bound(tmp_path):
    from ocr_proofreader_ray.ops import io

    small = str(tmp_path / "small.parquet")
    pq.write_table(pa.table({"a": np.arange(100), "b": np.arange(100)}),
                   small)
    both = io._estimated_bytes([small], None, 1 << 30)
    only_a = io._estimated_bytes([small], ["a"], 1 << 30)
    assert 0 < only_a < both
    # past the bound after the first footer: the missing second file is
    # never opened
    big = _write_big(tmp_path)
    assert math.isfinite(
        io._estimated_bytes([big, str(tmp_path / "missing.parquet")],
                            None, 1 << 20))
    assert io._estimated_bytes([str(tmp_path / "missing.parquet")],
                               None, 1 << 20) == math.inf


def test_directory_expands_to_its_parquet_files(tmp_path):
    from ocr_proofreader_ray.ops import io

    for part in ("k=1", "k=2"):
        os.makedirs(tmp_path / part)
        pq.write_table(pa.table({"a": [1]}), str(tmp_path / part / "f.parquet"))
    (tmp_path / "_SUCCESS").write_text("")
    assert len(io._parquet_files(str(tmp_path))) == 2


def test_query_code_reads_parquet_only_through_ops_io():
    # a direct read skips the unsplit rule, and a split read does not fuse
    # with the map after it
    pkg = os.path.join(REPO, "ocr_proofreader_ray")
    allowed = {os.path.join("ops", "io.py"),
               os.path.join("pipelines", "extraction.py")}
    offenders = []
    for root, _dirs, files in os.walk(pkg):
        for f in files:
            rel = os.path.relpath(os.path.join(root, f), pkg)
            if not f.endswith(".py") or rel in allowed:
                continue
            with open(os.path.join(root, f)) as fh:
                if "ray.data.read_parquet(" in fh.read():
                    offenders.append(rel)
    assert not offenders, offenders


@pytest.mark.parametrize("empty", [False, True], ids=["rows", "empty"])
def test_keyless_grouped_agg_equals_ray_aggregate(ray_session, empty):
    from ray.data.aggregate import Count, Max, Min, Sum

    from ocr_proofreader_ray.ops.agg import grouped_agg
    from ocr_proofreader_ray.pipelines.relational import t

    ds = t(SF, "lineitem", ["l_orderkey", "l_extendedprice"])
    if empty:
        ds = ds.map_batches(lambda b: b.slice(0, 0), batch_format="pyarrow")
    got = grouped_agg(ds, [], [("l_orderkey", "sum", "s"),
                               ("l_orderkey", "min", "lo"),
                               ("l_extendedprice", "max", "hi"),
                               (None, "count", "n")])
    want = ds.aggregate(Sum("l_orderkey", alias_name="s"),
                        Min("l_orderkey", alias_name="lo"),
                        Max("l_extendedprice", alias_name="hi"),
                        Count(alias_name="n"))
    assert got.to_pylist() == [want]
    assert (want["n"] == 0) == empty


def test_source_export_rebuilds_after_a_same_size_same_second_rewrite(
        ray_session, tmp_path):
    """A derived export (here the CSV round trip's) is keyed on its source's
    path, size and mtime in ns: a rewrite that keeps the file size within
    the same second still rebuilds it."""
    import shutil

    from ocr_proofreader_ray.pipelines.relational import (
        q_csv_source_roundtrip,
    )

    src = tmp_path / "customer.parquet"
    second = 1_700_000_000 * 10**9

    def rewrite(bal: float, ns: int) -> int:
        # uncompressed, plain-encoded, fixed-width: a new value keeps the
        # file size
        pq.write_table(pa.table({"c_mktsegment": ["AUTO"],
                                 "c_acctbal": [bal]}),
                       src, compression="none", use_dictionary=False)
        os.utime(src, ns=(second + ns, second + ns))
        return src.stat().st_size

    def cents() -> list:
        return q_csv_source_roundtrip(str(tmp_path)).column(
            "bal_cents").to_pylist()

    try:
        size = rewrite(1.25, 100_000_000)
        assert cents() == [125]
        assert rewrite(2.5, 900_000_000) == size
        assert cents() == [250]
    finally:
        shutil.rmtree(os.path.join("/tmp/opr_csv_src", tmp_path.name),
                      ignore_errors=True)
