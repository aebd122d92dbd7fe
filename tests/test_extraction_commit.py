"""The per-chunk commit driver of the extraction passes, run on a fake
result stream (no Ray): a chunk commits as soon as its rows are all
written, count mismatches raise, and only reported files are promoted."""

import os

import pyarrow as pa
import pytest

from ocr_proofreader_ray.pipelines.extraction import (
    _commit_stream,
    _write_pending,
)


def _result(chunk_id: int, name: str, rows: int) -> pa.Table:
    return pa.table({"chunk_id": [chunk_id], "name": [name], "rows": [rows],
                     "html_bytes": [10 * rows], "n_chars": [rows],
                     "truncated": [0]})


def _plant(root: str, chunk_id: int, *names: str) -> None:
    d = os.path.join(root, ".pending", f"chunk-{chunk_id:05d}")
    os.makedirs(d, exist_ok=True)
    for name in names:
        with open(os.path.join(d, name), "wb") as f:
            f.write(b"x")


def test_chunk_commits_before_stream_ends(tmp_path):
    root = str(tmp_path)
    _plant(root, 0, "a.parquet", "b.parquet", "lost-attempt.parquet")
    _plant(root, 1, "c.parquet")
    committed = {}

    def stream():
        yield _result(0, "a.parquet", 2)
        yield _result(1, "c.parquet", 1)
        yield _result(0, "b.parquet", 1)
        # chunk 0 reached its 3 rows: promoted and recorded already (the
        # empty chunk 2 committed before the first result)
        assert committed == {2: {"rows": 0, "html_bytes": 0, "n_chars": 0,
                                 "truncated": 0},
                             0: {"rows": 3, "html_bytes": 30, "n_chars": 3,
                                 "truncated": 0}}
        assert sorted(os.listdir(f"{root}/chunk-00000")) == ["a.parquet",
                                                             "b.parquet"]
        assert not os.path.exists(f"{root}/chunk-00001")
        yield _result(1, "d.parquet", 1)

    _plant(root, 1, "d.parquet")
    _commit_stream(stream(), (root,), {0: 3, 1: 2, 2: 0},
                   lambda cid, s: committed.setdefault(cid, dict(s)))
    assert set(committed) == {0, 1, 2}
    assert sorted(os.listdir(f"{root}/chunk-00001")) == ["c.parquet",
                                                         "d.parquet"]
    assert os.listdir(f"{root}/chunk-00002") == []  # a chunk with no rows
    assert os.listdir(f"{root}/.pending") == []


def test_over_count_raises(tmp_path):
    root = str(tmp_path)
    _plant(root, 0, "a.parquet")
    with pytest.raises(RuntimeError, match="3 rows written, expected 2"):
        _commit_stream([_result(0, "a.parquet", 3)], (root,), {0: 2},
                       lambda cid, s: None)
    assert not os.path.exists(f"{root}/chunk-00000")


def test_short_chunk_at_stream_end_raises(tmp_path):
    root = str(tmp_path)
    _plant(root, 0, "a.parquet")
    committed = []
    with pytest.raises(RuntimeError, match="short"):
        _commit_stream([_result(0, "a.parquet", 1)], (root,), {0: 2},
                       lambda cid, s: committed.append(cid))
    assert committed == []
    assert not os.path.exists(f"{root}/chunk-00000")


def test_same_file_reported_twice_raises(tmp_path):
    root = str(tmp_path)
    _plant(root, 0, "a.parquet")
    with pytest.raises(RuntimeError, match="two batches"):
        _commit_stream([_result(0, "a.parquet", 1)] * 2, (root,), {0: 2},
                       lambda cid, s: None)


def test_rewriting_a_batch_leaves_one_file(tmp_path):
    """A retried write task reproduces the same batch: its file name comes
    from the batch content, so the retry overwrites instead of duplicating."""
    root = str(tmp_path)
    batch = pa.table({"url": ["u1", "u2", "u3"], "n_chars": [1, 2, 3],
                      "chunk_id": pa.array([4, 4, 5], pa.int32())})
    sinks = [(root, None, "zstd")]
    first = _write_pending(batch, sinks)
    second = _write_pending(batch, sinks)
    assert first.equals(second)
    assert first.column("rows").to_pylist() == [2, 1]
    assert first.column("n_chars").to_pylist() == [3, 3]
    for cid in (4, 5):
        assert len(os.listdir(f"{root}/.pending/chunk-{cid:05d}")) == 1
