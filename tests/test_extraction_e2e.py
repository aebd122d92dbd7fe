"""End-to-end golden test of the two-pass Ray pipeline (SURVEY.md §5.2/5.3):

* byte-identical ``extracted_text`` per url against the constructed golden;
* Pass-1 dictionary equals the generator's simulated dictionary;
* checkpoint-resume skips completed chunks and reproduces identical output.
"""

import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from fixtures.gen_pages import generate_pages
from ocr_proofreader_ray.config import ExtractionConfig
from ocr_proofreader_ray.pipelines.extraction import run_extraction


@pytest.fixture(scope="module")
def pages_dir(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pages_e2e"))
    generate_pages(out, n_docs=200, seed=13, whale_every=100, n_files=4)
    return out


def _golden_map(pages_dir):
    return {
        r["url"]: r
        for r in pq.read_table(f"{pages_dir}/golden_extracted.parquet").to_pylist()
    }


def _run(pages_dir, work_dir, **kw) -> dict:
    cfg = ExtractionConfig(
        input_paths=[p for p in glob.glob(f"{pages_dir}/pages-*.parquet")],
        work_dir=work_dir,
        files_per_chunk=2,
        **kw,
    )
    ds = run_extraction(cfg)
    rows = ds.take_all()
    return {r["url"]: r for r in rows}


def test_byte_identical_output(ray_session, pages_dir, tmp_path):
    got = _run(pages_dir, str(tmp_path / "work"))
    golden = _golden_map(pages_dir)
    assert set(got) == set(golden)
    for url, g in golden.items():
        r = got[url]
        assert r["extracted_text"] == g["extracted_text"], url
        assert r["n_lines"] == g["n_lines"], url
        assert r["n_tokens"] == g["n_tokens"], url
        assert r["lang"] == g["lang"]
        # span invariant: slices reconstruct the paragraphs exactly
        paras = r["extracted_text"].split("\n\n")
        assert len(r["paragraph_spans"]) == len(paras), url
        for span, para in zip(r["paragraph_spans"], paras):
            assert r["extracted_text"][span["start"]:span["end"]] == para, url


def test_dictionary_matches_golden(ray_session, pages_dir, tmp_path):
    work = str(tmp_path / "work")
    _run(pages_dir, work)
    built = pq.read_table(f"{work}/lang_dict.parquet")
    golden = pq.read_table(f"{pages_dir}/lang_dict_golden.parquet")
    assert built.sort_by([("lang", "ascending"), ("token", "ascending")]).equals(
        golden.sort_by([("lang", "ascending"), ("token", "ascending")])
    )


def test_resume_skips_completed_chunks(ray_session, pages_dir, tmp_path):
    work = str(tmp_path / "work")
    first = _run(pages_dir, work)

    # wreck one pass-2 chunk and its manifest → only that chunk re-runs
    victim = sorted(glob.glob(f"{work}/extracted/chunk-*"))[0]
    chunk_name = os.path.basename(victim)
    shutil.rmtree(victim)
    os.remove(f"{work}/manifest/pass2/{chunk_name}.json")
    kept = sorted(glob.glob(f"{work}/extracted/chunk-*/*.parquet"))
    kept_mtimes = {p: os.path.getmtime(p) for p in kept}

    second = _run(pages_dir, work)
    assert {u: r["extracted_text"] for u, r in second.items()} == {
        u: r["extracted_text"] for u, r in first.items()
    }
    for p, mt in kept_mtimes.items():  # untouched chunks were not recomputed
        assert os.path.getmtime(p) == mt, p


def test_changed_input_invalidates_chunk(ray_session, pages_dir, tmp_path):
    """A chunk whose input FINGERPRINT changed is recomputed on resume and
    the output reflects the new input; untouched chunks stay untouched."""
    import pyarrow as pa

    work = str(tmp_path / "work")
    first = _run(pages_dir, work)

    # swap one input file for a single fresh page (different size -> new fp)
    victim = sorted(glob.glob(f"{pages_dir}/pages-*.parquet"))[0]
    old = pq.read_table(victim)
    new_url = "https://example-en.test/doc/99999999"
    replacement = pa.table({
        "url": pa.array([new_url]),
        "warc_ts": old.column("warc_ts")[:1],
        # body uses high-frequency corpus vocabulary so the corrector
        # (whose dictionary is rebuilt from the corpus) leaves it unchanged
        "html": pa.array([b"<html><body><article><p>the time year people "
                          b"way day man world school state family student"
                          b"</p></article></body></html>"], pa.binary()),
        "text": pa.array(["x"]),
        "lang": pa.array(["en"]),
    }, schema=old.schema)
    backup = victim + ".bak"
    os.replace(victim, backup)
    try:
        pq.write_table(replacement, victim)
        kept = sorted(glob.glob(f"{work}/extracted/chunk-*/*.parquet"))[2:]
        kept_mtimes = {p: os.path.getmtime(p) for p in kept}

        second = _run(pages_dir, work)
        assert new_url in second
        assert ("the time year people way day man world school state"
                in second[new_url]["extracted_text"])
        # old chunk's urls from the replaced file are gone
        gone = {u for u in first if u not in second}
        assert gone and all(first[u] for u in gone)
        del kept_mtimes  # a dict rebuild MAY legitimately recompute chunks
        # the real contract: resumed state == a from-scratch run, byte-exact
        # (pass-2 fingerprints include the dictionary hash, so chunks whose
        # corrections could differ were invalidated)
        fresh = _run(pages_dir, str(tmp_path / "fresh_work"))
        assert {u: r["extracted_text"] for u, r in second.items()} == \
               {u: r["extracted_text"] for u, r in fresh.items()}
    finally:
        os.replace(backup, victim)


def test_lineage_counters_recorded(ray_session, pages_dir, tmp_path):
    work = str(tmp_path / "work")
    _run(pages_dir, work)
    recs = sorted(glob.glob(f"{work}/manifest/pass1/chunk-*.json"))
    assert recs
    total_rows = 0
    for p in recs:
        with open(p) as f:
            rec = json.load(f)
        assert rec["status"] == "done"
        c = rec["counters"].get("extract")
        assert c and c["rows_in"] == c["rows_out"] > 0
        assert c["bytes_in"] > c["bytes_out"] > 0  # html >> text
        total_rows += c["rows_out"]
    assert total_rows == 200


def test_files_per_chunk_invariance(ray_session, pages_dir, tmp_path):
    """north_rule byte-identity extends to the checkpoint granularity: 4
    chunks of 1 file, 2 of 2 and a single chunk must produce identical
    bytes and an identical dictionary file (chunking only changes what
    commits together, never content)."""
    outs, dicts = {}, {}
    for fpc in (1, 2, 0):
        work = str(tmp_path / f"work_{fpc}")
        cfg = ExtractionConfig(
            input_paths=sorted(glob.glob(f"{pages_dir}/pages-*.parquet")),
            work_dir=work,
            files_per_chunk=fpc,
        )
        ds = run_extraction(cfg)
        outs[fpc] = {r["url"]: (r["extracted_text"], r["n_tokens"])
                     for r in ds.take_all()}
        with open(f"{work}/lang_dict.parquet", "rb") as f:
            dicts[fpc] = f.read()
    assert len(outs[1]) == 200
    assert outs[1] == outs[2] == outs[0]
    assert dicts[1] == dicts[2] == dicts[0]


def test_stale_pending_writes_are_swept(ray_session, pages_dir, tmp_path):
    """Simulated crash artifact: files under ``.pending/chunk-K`` (from a
    run that died after writing but before committing) must be wiped on
    the next run and never contaminate output."""
    work = str(tmp_path / "work")
    cfg = ExtractionConfig(
        input_paths=sorted(glob.glob(f"{pages_dir}/pages-*.parquet")),
        work_dir=work,
        files_per_chunk=2,
    )
    # plant junk where a crashed execution would leave it
    for sub in ("raw_extracted", "token_counts", "extracted"):
        junk = os.path.join(work, sub, ".pending", "chunk-00000")
        os.makedirs(junk, exist_ok=True)
        with open(os.path.join(junk, "garbage.parquet"), "wb") as f:
            f.write(b"not parquet at all")

    ds = run_extraction(cfg)
    got = {r["url"]: r["extracted_text"] for r in ds.take_all()}
    golden = _golden_map(pages_dir)
    assert {u: g["extracted_text"] for u, g in golden.items()} == got
    for sub in ("raw_extracted", "token_counts", "extracted"):
        assert not glob.glob(os.path.join(work, sub, ".pending", "*", "*"))
        assert not glob.glob(os.path.join(work, sub, "chunk-*",
                                          "garbage.parquet"))


def test_whale_truncation_capped_and_counted(ray_session, pages_dir, tmp_path):
    """Whale-page hard cap (SURVEY §7 / VERDICT r02 #8): html values above
    the cap are truncated before parsing, flagged per doc in the raw
    output, counted in the per-chunk manifest — and every UNtruncated
    doc's extracted raw text stays byte-identical to the uncapped run."""
    import pyarrow.compute as pc

    # page sizes from the inputs: pick a cap between normal pages + whales
    sizes = {}
    for f in sorted(glob.glob(f"{pages_dir}/pages-*.parquet")):
        t = pq.read_table(f, columns=["url", "html"])
        for u, h in zip(t.column("url").to_pylist(),
                        t.column("html").to_pylist()):
            sizes[u] = len(h)
    cap = 50_000
    expect_truncated = {u for u, s in sizes.items() if s > cap}
    assert expect_truncated, "fixture must contain whales above the cap"
    assert len(expect_truncated) < len(sizes) // 2

    _run(pages_dir, str(tmp_path / "base"))
    _run(pages_dir, str(tmp_path / "capped"), whale_max_html_bytes=cap)

    def raw_map(work):
        rows = {}
        for f in glob.glob(f"{work}/raw_extracted/chunk-*/*.parquet"):
            t = pq.read_table(f, columns=["url", "raw_text", "truncated",
                                          "html_bytes"])
            for r in t.to_pylist():
                rows[r["url"]] = r
        return rows

    base, capped = raw_map(str(tmp_path / "base")), raw_map(str(tmp_path / "capped"))
    assert {u for u, r in capped.items() if r["truncated"]} == expect_truncated
    for u in sizes:
        assert capped[u]["html_bytes"] == sizes[u]  # ORIGINAL size kept
        if u not in expect_truncated:
            assert capped[u]["raw_text"] == base[u]["raw_text"], u

    # the truncation count is visible in the committed manifest
    total = 0
    for p in sorted(glob.glob(str(tmp_path / "capped/manifest/pass1/chunk-*.json"))):
        with open(p) as f:
            rec = json.load(f)
        total += rec["counters"]["extract"]["docs_truncated"]
    assert total == len(expect_truncated)

    # the lineage flag rides into the SHIPPED artifact too (north_rule
    # truncate-with-lineage-flag): final extracted rows carry `truncated`
    final_flags = {}
    for f in glob.glob(str(tmp_path / "capped/extracted/chunk-*/*.parquet")):
        t = pq.read_table(f, columns=["url", "truncated"])
        final_flags.update(zip(t.column("url").to_pylist(),
                               t.column("truncated").to_pylist()))
    assert {u for u, fl in final_flags.items() if fl} == expect_truncated
    assert len(final_flags) == len(sizes)


def test_whale_cap_change_invalidates_resume(ray_session, pages_dir, tmp_path):
    """Resuming with a different whale cap must re-run, not reuse, completed
    chunks: the cap changes pass-1 output for identical input bytes, so it
    is part of both passes' fingerprints."""
    work = str(tmp_path / "work")
    _run(pages_dir, work)  # default cap: nothing truncated
    capped = _run(pages_dir, work, whale_max_html_bytes=50_000)  # resume
    fresh = _run(pages_dir, str(tmp_path / "fresh"),
                 whale_max_html_bytes=50_000)
    assert {u: r["extracted_text"] for u, r in capped.items()} == \
           {u: r["extracted_text"] for u, r in fresh.items()}
    # and the capped rerun really truncated something (not a vacuous pass)
    n_trunc = 0
    for p in glob.glob(f"{work}/manifest/pass1/chunk-*.json"):
        with open(p) as f:
            n_trunc += json.load(f)["counters"]["extract"]["docs_truncated"]
    assert n_trunc > 0


def test_dictionary_exchange_branch_matches_driver(ray_session, pages_dir,
                                                   tmp_path, monkeypatch):
    """VERDICT r04 #7: force the above-gate hash-exchange dictionary merge
    (the >_DRIVER_MAX_BYTES crawl path) and pin its dictionary file
    byte-identical to the default driver-combiner branch."""
    import ocr_proofreader_ray.ops.agg as agg

    _run(pages_dir, str(tmp_path / "driver"))
    monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    _run(pages_dir, str(tmp_path / "exchange"))

    key = [("lang", "ascending"), ("token", "ascending")]
    a = pq.read_table(f"{tmp_path}/driver/lang_dict.parquet").sort_by(key)
    b = pq.read_table(f"{tmp_path}/exchange/lang_dict.parquet").sort_by(key)
    assert a.equals(b)


def test_same_size_input_rewrite_invalidates_chunk(ray_session, pages_dir,
                                                   tmp_path):
    """An input rewritten at the SAME size is seen by the fingerprint (it
    carries the mtime): its chunk re-runs, and the resumed output equals a
    clean run over the new input."""
    import pyarrow as pa

    # uncompressed, unencoded, no statistics: reordering bytes inside one
    # value keeps the file size
    opts = dict(compression="none", use_dictionary=False,
                write_statistics=False)
    pages = tmp_path / "pages"
    pages.mkdir()
    for p in glob.glob(f"{pages_dir}/pages-*.parquet"):
        pq.write_table(pq.read_table(p), str(pages / os.path.basename(p)),
                       **opts)
    work = str(tmp_path / "work")
    first = _run(str(pages), work)

    victim = sorted(glob.glob(f"{pages}/pages-*.parquet"))[0]
    old = pq.read_table(victim)
    html = old.column("html").to_pylist()
    # reverse the words of the first article paragraph: same bytes, new text
    head, rest = html[0].split(b"<article><p>", 1)
    para, tail = rest.split(b"</p>", 1)
    html[0] = (head + b"<article><p>" + b" ".join(reversed(para.split(b" ")))
               + b"</p>" + tail)
    size = os.path.getsize(victim)
    pq.write_table(old.set_column(old.schema.get_field_index("html"), "html",
                                  pa.array(html, pa.binary())),
                   victim, **opts)
    assert os.path.getsize(victim) == size

    second = _run(str(pages), work)
    url = old.column("url")[0].as_py()
    assert second[url]["extracted_text"] != first[url]["extracted_text"]
    fresh = _run(str(pages), str(tmp_path / "fresh"))
    assert {u: r["extracted_text"] for u, r in second.items()} == \
           {u: r["extracted_text"] for u, r in fresh.items()}


def _write_token_counts(work_dir: str) -> None:
    import pyarrow as pa

    os.makedirs(f"{work_dir}/token_counts/chunk-00000")
    pq.write_table(pa.table({
        "lang": pa.array(["en", None, "en", None, "de"], pa.string()),
        "token": pa.array(["the", "the", "cat", "zz", "der"], pa.string()),
        "count": pa.array([20, 50, 9, 30, 12], pa.int64()),
    }), f"{work_dir}/token_counts/chunk-00000/part-0.parquet")


@pytest.mark.parametrize("plan", ["driver", "exchange"])
def test_null_lang_never_enters_dictionary(ray_session, tmp_path,
                                           monkeypatch, plan):
    import ocr_proofreader_ray.ops.agg as agg
    from ocr_proofreader_ray.pipelines.extraction import build_dictionary

    if plan == "exchange":
        monkeypatch.setattr(agg, "_DRIVER_MAX_BYTES", 0)
    _write_token_counts(str(tmp_path))
    path = build_dictionary(ExtractionConfig(work_dir=str(tmp_path)))
    assert pq.read_table(path).to_pylist() == [
        {"lang": "de", "token": "der", "freq": 12},
        {"lang": "en", "token": "cat", "freq": 9},
        {"lang": "en", "token": "the", "freq": 20},
    ]


def test_build_dictionary_executions(ray_session, tmp_path,
                                     count_executions):
    # the plan gate counts the bare read from file metadata, then one
    # execution drains the combiner partials
    from ocr_proofreader_ray.pipelines.extraction import build_dictionary

    _write_token_counts(str(tmp_path))
    build_dictionary(ExtractionConfig(work_dir=str(tmp_path)))
    assert count_executions.n == 1
