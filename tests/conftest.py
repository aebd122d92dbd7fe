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
    one ``StreamingExecutor.execute`` call."""
    from types import SimpleNamespace

    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor,
    )

    counter = SimpleNamespace(n=0)
    real = StreamingExecutor.execute

    def counted(self, *args, **kwargs):
        counter.n += 1
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    yield counter
