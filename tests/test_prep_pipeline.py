"""Composed LLM prep pipeline: stage lineage consistency and the written
final corpus artifact."""

import os

import pyarrow.parquet as pq

from ocr_proofreader_ray.pipelines.prep import q_llm_prep_corpus

SF = "/root/testdata/sf0.001"


def test_prep_lineage_and_artifact(ray_session):
    out = q_llm_prep_corpus(SF)
    stages = out.column("stage").to_pylist()
    rows_in = out.column("rows_in").to_pylist()
    rows_out = out.column("rows_out").to_pylist()
    assert stages == ["input", "near_dup_dedup", "decontaminate",
                      "source_cap", "mixture_sample"]
    # chain consistency: each stage consumes the previous stage's output
    for i in range(2, len(stages)):
        assert rows_in[i] == rows_out[i - 1]
    assert all(o <= i for i, o in zip(rows_in, rows_out))
    n_docs = pq.read_metadata(f"{SF}/documents.parquet").num_rows
    assert rows_in[0] == rows_out[0] == n_docs

    final = "/tmp/opr_llm_prep/sf0.001/final/documents.parquet"
    assert os.path.isdir(final)
    written = pq.ParquetDataset(final).read()
    assert written.num_rows == rows_out[-1]
    assert set(written.schema.names) == {
        "doc_id", "text", "lang", "source", "n_chars"}

    # deterministic: a re-run reproduces identical lineage
    again = q_llm_prep_corpus(SF)
    assert again.column("rows_out").to_pylist() == rows_out


def test_prep_resume_skips_completed_stages(ray_session):
    import time

    out = q_llm_prep_corpus(SF, resume=False)
    final = "/tmp/opr_llm_prep/sf0.001/final/documents.parquet"
    s1 = "/tmp/opr_llm_prep/sf0.001/s1_dedup/documents.parquet"
    mtime_before = {p: os.path.getmtime(p) for p in (final, s1)}
    time.sleep(1.1)

    again = q_llm_prep_corpus(SF, resume=True)
    assert again.column("rows_out").to_pylist() == \
        out.column("rows_out").to_pylist()
    # every stage skipped: written parquet untouched
    for p, m in mtime_before.items():
        assert os.path.getmtime(p) == m

    # breaking one marker re-runs exactly that stage; downstream stages
    # keep their skips because the fingerprint chain is INPUT-derived and
    # the re-run reproduces byte-deterministic output
    s2 = "/tmp/opr_llm_prep/sf0.001/s2_decontam/documents.parquet"
    s2_mtime = os.path.getmtime(s2)
    with open("/tmp/opr_llm_prep/sf0.001/s2_decontam/_ok", "w") as f:
        f.write("stale")
    third = q_llm_prep_corpus(SF, resume=True)
    assert third.column("rows_out").to_pylist() == \
        out.column("rows_out").to_pylist()
    assert os.path.getmtime(s1) == mtime_before[s1]        # s1 skipped
    assert os.path.getmtime(s2) > s2_mtime                 # s2 re-ran
    assert os.path.getmtime(final) == mtime_before[final]  # final skipped


def test_prep_source_cap_exchange_plan_matches_driver(ray_session,
                                                      monkeypatch):
    """With the merge and broadcast bounds at 0 q_source_cap's survivors
    merge in an exchange and the prep chain semi-filters with the keep ids
    through an exchange too (no driver gather); lineage and final corpus
    must equal the driver plan's."""
    import ocr_proofreader_ray.ops.agg as agg

    final = "/tmp/opr_llm_prep/sf0.001/final/documents.parquet"

    def final_ids():
        return sorted(pq.ParquetDataset(final).read(columns=["doc_id"])
                      .column("doc_id").to_pylist())

    driver = q_llm_prep_corpus(SF, resume=False)
    driver_ids = final_ids()
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    exchange = q_llm_prep_corpus(SF, resume=False)
    assert exchange.equals(driver)
    assert final_ids() == driver_ids
    assert len(driver_ids) > 0
