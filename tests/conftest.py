"""Session-scoped Ray fixture: exactly ONE ray.init per pytest session."""

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield ray
    ray.shutdown()


@pytest.fixture
def ray_default_split(monkeypatch):
    """Every ``ops.io.read_parquet`` keeps Ray's default read split (2 x
    CPUs blocks) instead of reading a small input unsplit: a query's result
    must not depend on how its input is partitioned."""
    import math

    from ocr_proofreader_ray.ops import io

    monkeypatch.setattr(io, "_estimated_bytes", lambda *a: math.inf)


@pytest.fixture
def count_executions(monkeypatch):
    """Counter of Ray Data executions started in this process: every plan
    run (materialize, iteration, a ``limit=1`` schema probe) goes through
    one ``StreamingExecutor.execute`` call.  ``limit_dags`` counts the
    executed DAGs that hold a Limit operator (a schema or row probe)."""
    from types import SimpleNamespace

    from ray.data._internal.execution.operators.limit_operator import (
        LimitOperator,
    )
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    counter = SimpleNamespace(n=0, limit_dags=0)
    real = StreamingExecutor.execute

    def counted(self, dag, *args, **kwargs):
        counter.n += 1
        ops, limited = [dag], False
        while ops:
            op = ops.pop()
            limited |= isinstance(op, LimitOperator)
            ops.extend(op.input_dependencies)
        counter.limit_dags += limited
        return real(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    yield counter


# the package's one size gate: every choice between a driver plan and a
# distributed plan compares its bytes with it (tests/test_gates.py keeps
# it the only one)
_EXCHANGE_GATES = [("ocr_proofreader_ray.ops.agg", "_DRIVER_MAX_BYTES")]


@pytest.fixture
def all_exchange(monkeypatch):
    """The size gate at 0, so each merge, broadcast and driver fast path
    takes its distributed (at-scale) plan even on tiny inputs."""
    import importlib

    for module, name in _EXCHANGE_GATES:
        monkeypatch.setattr(importlib.import_module(module), name, 0)


@pytest.fixture
def no_ray_groupby_aggregate(monkeypatch):
    """Ray's sort-based ``GroupedData.aggregate`` (behind ``count()``,
    ``sum()``, ``min()`` and ``Dataset.aggregate``) raises: it fails on a
    null string key, so query code aggregates through ``ops.agg`` only."""
    from ray.data.grouped_data import GroupedData

    def refuse(self, *aggs, **kwargs):
        raise AssertionError("Ray's sort-based GroupedData.aggregate ran; "
                             "aggregate with ops.agg.grouped_agg")

    monkeypatch.setattr(GroupedData, "aggregate", refuse)
