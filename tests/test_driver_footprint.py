"""The query driver holds plans and small results only: polars runs inside
worker tasks, never in the driver process.  Run in a SUBPROCESS so that no
earlier test (or the shared session fixture) has loaded polars already."""

import os
import subprocess
import sys

import pyarrow as pa
import pytest

from fixtures.gen_golden_queries import SF_DIR as SF

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_QUERIES = [
    "q_llm_prep_corpus", "q_repetition_stats", "q_heavy_hitters",
    "q_bigram_heavy_hitters", "q_heavy_hitters_approx",
    "q_dedup_exact_incremental",
]

_DRIVER = f"""
import sys
import ray
from ray.data import DataContext

ray.init(address="local", num_cpus=4, include_dashboard=False,
         logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
from ocr_proofreader_ray.pipelines.registry import all_queries

queries = all_queries()
for name in {_QUERIES!r}:
    out = queries[name]({SF!r})
    rows = out.num_rows if hasattr(out, "num_rows") else out.count()
    assert rows > 0, name
    assert "polars" not in sys.modules, "polars imported by " + name
ray.shutdown()
print("ok")
"""


def test_query_driver_never_imports_polars():
    proc = subprocess.run([sys.executable, "-c", _DRIVER],
                          capture_output=True, text=True, cwd=REPO,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip().endswith("ok")


def _lazy_lineitem():
    import ray

    return ray.data.read_parquet(f"{SF}/lineitem.parquet").map_batches(
        lambda b: b, batch_format="pyarrow", zero_copy_batch=True)


def test_gather_executes_a_lazy_plan_once(ray_session, count_executions):
    # to_arrow_refs alone would run the plan, then a limit=1 schema probe
    from ocr_proofreader_ray.ops.agg import gather

    rows = gather(_lazy_lineitem()).num_rows
    assert rows > 0
    assert count_executions.n == 1


@pytest.mark.parametrize("drain", ["gather", "grouped_sketch"])
def test_empty_result_runs_no_schema_probe(ray_session, count_executions,
                                           drain):
    """A plan whose blocks are all empty drains in one execution: block
    metadata says they hold no rows, so nothing reads a schema through a
    ``limit=1`` execution (``to_arrow_refs`` does, when no block carries
    one)."""
    import ray.data

    from ocr_proofreader_ray.ops.agg import gather, grouped_sketch

    ds = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    if drain == "gather":
        # from_arrow alone is already executed; the map makes a plan
        assert gather(ds.map_batches(lambda b: b,
                                     batch_format="pyarrow")) is None
    else:
        assert grouped_sketch(ds, None, len, lambda a, b: a + b) == {}
    assert count_executions.n == 1
    assert count_executions.limit_dags == 0


def test_gather_of_a_materialized_dataset_builds_no_dataset(
        ray_session, count_executions, monkeypatch):
    """Gathering an executed MaterializedDataset reads its blocks as they
    are: ``materialize()`` on it would copy its plan and build two
    Datasets, each a blocking call to Ray Data's stats actor."""
    from ray.data.dataset import Dataset

    from ocr_proofreader_ray.ops.agg import gather

    ds = _lazy_lineitem().materialize()
    built = []
    real = Dataset.__init__

    def init(self, *args, **kwargs):
        built.append(type(self).__name__)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Dataset, "__init__", init)
    rows = gather(ds).num_rows
    assert rows == ds.count()
    assert built == []
    assert count_executions.n == 1  # the materialize above


def test_grouped_agg_executes_once(ray_session, count_executions):
    from ocr_proofreader_ray.ops.agg import grouped_agg

    out = grouped_agg(_lazy_lineitem(), ["l_returnflag"],
                      [("l_quantity", "sum", "qty")])
    assert out.num_rows > 0
    assert count_executions.n == 1


def test_embedding_pca_executions(ray_session, count_executions):
    # materialize the input, drain the reduced moments, project
    from ocr_proofreader_ray.pipelines.similarity import q_embedding_pca

    assert len(q_embedding_pca(SF).take_all()) > 0
    assert count_executions.n == 3


def test_price_quartiles_executions(ray_session, count_executions):
    # materialize the cents projection, then one gather of the (flag,
    # cents) pairs: the group sizes come from the gathered rows
    from ocr_proofreader_ray.pipelines.relational import q_price_quartiles

    assert q_price_quartiles(SF).num_rows > 0
    assert count_executions.n == 2


def test_ordered_orders_sorts_without_a_probe(ray_session, count_executions):
    # materialize the packed keys, the key sample, the range histogram and
    # the drain of the range exchange; the reserved column check reads the
    # materialized schema, so no limit=1 probe
    from ocr_proofreader_ray.pipelines.relational import q_ordered_orders

    assert len(q_ordered_orders(SF).take_all()) > 0
    assert count_executions.n == 4
    assert count_executions.limit_dags == 0
