"""CLI surface (`python -m ocr_proofreader_ray ...`): each subcommand owns
its Ray session, so tests run it in a SUBPROCESS — calling main() in-process
would ray.shutdown() the shared session fixture."""

import json
import subprocess
import sys

SF = "/root/testdata/sf0.001"


def _run(*args: str) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, "-m", "ocr_proofreader_ray", *args],
        capture_output=True, text=True, cwd="/root/repo", timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return [json.loads(line) for line in proc.stdout.strip().splitlines()
            if line.startswith("{")]


def test_query_subcommand_emits_rows():
    rows = _run("query", "q1_pricing_summary", "--sf-dir", SF,
                "--limit", "3", "--num-cpus", "4")
    assert 1 <= len(rows) <= 3
    assert {"l_returnflag", "l_linestatus"} <= set(rows[0])


def test_query_subcommand_unknown_name_fails():
    proc = subprocess.run(
        [sys.executable, "-m", "ocr_proofreader_ray", "query", "q_nope",
         "--sf-dir", SF, "--num-cpus", "4"],
        capture_output=True, text=True, cwd="/root/repo", timeout=300)
    assert proc.returncode == 2
    assert "unknown query" in proc.stderr


def test_prep_subcommand_prints_lineage():
    rows = _run("prep", "--sf-dir", SF, "--num-cpus", "4")
    stages = [r["stage"] for r in rows]
    assert stages == ["input", "near_dup_dedup", "decontaminate",
                      "source_cap", "mixture_sample"]
    # monotone non-increasing row counts, chained in/out
    for prev, cur in zip(rows, rows[1:]):
        assert cur["rows_in"] == prev["rows_out"]
        assert cur["rows_out"] <= cur["rows_in"]


def test_extract_subcommand_runs_and_resumes(tmp_path):
    import os

    from fixtures.gen_pages import generate_pages

    pages = str(tmp_path / "pages")
    generate_pages(pages, n_docs=200, seed=13, n_files=8)
    work = str(tmp_path / "work")
    args = ["extract", "--input", os.path.join(pages, "pages-*.parquet"),
            "--work-dir", work, "--files-per-chunk", "4", "--num-cpus", "4"]
    first = _run(*args)[-1]
    assert first["rows"] == 200
    # resubmission resumes from the committed manifests
    second = _run(*args)[-1]
    assert second["rows"] == 200


def test_build_dict_then_extract_reuses_pass1(tmp_path):
    """`build-dict` commits pass 1 exactly as `extract` would (same
    fingerprints, real counters), so a following `extract` skips it."""
    import glob
    import os

    from fixtures.gen_pages import generate_pages

    pages = str(tmp_path / "pages")
    generate_pages(pages, n_docs=120, seed=5, n_files=4)
    work = str(tmp_path / "work")
    common = ["--input", os.path.join(pages, "pages-*.parquet"),
              "--work-dir", work, "--files-per-chunk", "2", "--num-cpus", "4"]

    def pass1_records() -> dict:
        recs = {}
        for p in glob.glob(os.path.join(work, "manifest", "pass1", "*.json")):
            with open(p) as f:
                recs[os.path.basename(p)] = json.load(f)
        return recs

    _run("build-dict", *common)
    before = pass1_records()
    assert len(before) == 2
    assert all(r["counters"]["extract"]["rows_out"] > 0
               for r in before.values())
    assert _run("extract", *common)[-1]["rows"] == 120
    after = pass1_records()
    assert {k: r["recorded_at"] for k, r in after.items()} == \
           {k: r["recorded_at"] for k, r in before.items()}
