"""Benchmark harness (driver contract: prints ONE JSON line).

Headline: the flagship two-pass extraction pipeline over a synthetic
Common-Crawl-style pages table generated (once, cached) from the
``$GRAFT_SF_DIR`` documents texts.  Also times a representative slice of the
relational/dedup/similarity surface at the same sf.

``--scaling``: runs the headline pipeline in two fresh processes at
``num_cpus=8`` and ``num_cpus=32`` on the same input (the sandbox evidence
for the N → 4N cluster-scaling criterion; see BASELINE.md) and prints both
throughputs plus the scaling efficiency.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
# override with GRAFT_BENCH_ROOT=/dev/shm/opr_bench for the tmpfs A/B that
# separates disk bandwidth from CPU in the scaling attribution (BASELINE.md)
BENCH_ROOT = os.environ.get("GRAFT_BENCH_ROOT", "/tmp/opr_bench")

BENCH_QUERIES = [
    "q1_pricing_summary",
    "q6_forecast_revenue",
    "q_nation_revenue",
    "q_order_priority_revenue",
    "q_top_customers",
    "q_count_distinct_users",
    "q_dedup_exact",
    "q_dedup_minhash",
    "q_ann_topk",
    "q_token_stats",
    "q_events_daily",
    # round-2 operators
    "q_urgent_order_revenue",
    "q_heavy_hitters",
    "q_dedup_simhash_hamming",
    "q_scrub_pii",
    "q_dedup_clusters",
    # round-3 operators (the salted variant keeps the fact-fact EXCHANGE
    # measured now that q_order_priority_revenue size-gates to broadcast
    # at bench scale)
    "q_order_priority_revenue_salted",
    "q_asof_latest_order",
    "q_tfidf_top_terms",
    "q_corr_qty_price",
    "q_repetition_stats",
    "q_contamination_screen",
    "q_pack_sequences",
    "q_segment_dedup",
    "q_source_cap",
    "q_typicality_buckets",
    "q_ship_window_counts",
    "q_ntile_customers",
    "q_quantity_mode",
    "q_customer_orders_outer",
    "q_ordered_orders",
    "q_dedup_incremental",
    "q_events_resampled",
    "q_price_quartiles",
    "q_bm25_topk",
    "q_embedding_pca",
    "q_fuzzy_name_pairs",
    "q_llm_prep_corpus",
    # round-4 operators
    "q_json_source_roundtrip",
    "q_price_percentiles_cont",
    "q_lang_id",
    # round-5 operators
    "q_dedup_exact_incremental",
]


def ensure_pages(sf_dir: str) -> str:
    """Generate (once, cached) a synthetic pages table sized to this sf.

    400x the sf's documents row count (sf0.1 -> 2M pages, ~4 GB HTML) in
    full-synthetic fast mode: heavy-tailed whale pages and malformed-HTML
    cases are present (the skew handling's reason to exist), golden
    invertibility is not verified (bench asserts row counts, not byte
    identity — that's the pytest fixtures' job).  Generation is one Ray task
    per shard (fixtures.gen_pages.generate_pages_parallel); requires an
    initialized Ray, which run_bench provides."""
    import pyarrow.parquet as pq

    tag = sf_dir.rstrip("/").split("/")[-1]
    out_dir = f"{BENCH_ROOT}/pages_{tag}"
    done = f"{out_dir}/.done"
    if os.path.exists(done):
        return out_dir

    from fixtures.gen_pages import generate_pages_parallel

    n_docs = 400 * pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows
    generate_pages_parallel(out_dir, n_docs=n_docs, seed=7, n_files=128)
    with open(done, "w") as f:
        f.write("ok")
    return out_dir


def consume(result) -> int:
    """Force execution; return row count."""
    import pandas as pd
    import pyarrow as pa

    if isinstance(result, pd.DataFrame):
        return len(result)
    if isinstance(result, pa.Table):
        return result.num_rows
    return result.count()


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from ocr_proofreader_ray.config import ExtractionConfig
    from ocr_proofreader_ray.pipelines.extraction import run_extraction
    from ocr_proofreader_ray.pipelines.registry import all_queries

    pages_dir = ensure_pages(SF_DIR)
    pages_glob = f"{pages_dir}/pages-*.parquet"
    html_bytes = sum(
        os.path.getsize(os.path.join(pages_dir, f))
        for f in os.listdir(pages_dir) if f.startswith("pages-")
    )

    # warm OS page cache so we measure compute + shuffle, not first-read I/O
    import glob as g

    import pyarrow.parquet as pq

    n_docs = 0
    for f in g.glob(pages_glob):
        n_docs += pq.read_metadata(f).num_rows
        with open(f, "rb") as fh:
            fh.read()

    work_dir = f"{BENCH_ROOT}/work_{NUM_CPUS}"
    # GRAFT_CORRECT_POOL=N pins the corrector pool width (scaling A/B knob);
    # GRAFT_FILES_PER_CHUNK=N runs the pipeline CHUNKED (checkpoint commits
    # + lookahead counters per chunk) instead of one chunk — the crawl shape;
    # GRAFT_BENCH_RUNS=N (default 2) repeats the headline and keeps the best
    # run: this host's noise comes in ±30-40% bursts (BASELINE.md), so a
    # single run measures the window as much as the pipeline
    pool = os.environ.get("GRAFT_CORRECT_POOL")
    runs = []
    for _ in range(max(1, int(os.environ.get("GRAFT_BENCH_RUNS", "2")))):
        shutil.rmtree(work_dir, ignore_errors=True)
        cfg = ExtractionConfig(
            input_paths=pages_glob, work_dir=work_dir,
            files_per_chunk=int(os.environ.get("GRAFT_FILES_PER_CHUNK", "0")),
            correct_concurrency=(int(pool), int(pool)) if pool else None)
        t0 = time.time()
        run_extraction(cfg)
        runs.append(time.time() - t0)
    headline = min(runs)
    # row-count check from the manifest (exact, derived from committed
    # outputs) — a Dataset.count() here would be a fifth full execution
    # re-reading the entire output inside the timed window
    import json as _json

    n_out = sum(
        _json.load(open(f"{work_dir}/manifest/pass2/{f}"))["counters"]
        ["correct"]["rows_out"]
        for f in os.listdir(f"{work_dir}/manifest/pass2")
        if f.endswith(".json")
    )
    assert n_out == n_docs, (n_out, n_docs)
    try:
        stages = _json.load(open(f"{work_dir}/timings.json"))
    except OSError:
        stages = {}

    # the chunked (crawl-shaped) headline: per-chunk checkpoint commits are
    # what a 100-TB run would use; tracked per round so the checkpoint
    # granularity cost stays visible (VERDICT r04 #8).  Skipped when the
    # main headline is already chunked or on an explicit opt-out.
    chunked_sec = None
    if (not os.environ.get("GRAFT_FILES_PER_CHUNK")
            and not os.environ.get("GRAFT_SKIP_CHUNKED")):
        shutil.rmtree(work_dir, ignore_errors=True)
        cfg = ExtractionConfig(
            input_paths=pages_glob, work_dir=work_dir, files_per_chunk=16,
            correct_concurrency=(int(pool), int(pool)) if pool else None)
        t0 = time.time()
        run_extraction(cfg)
        chunked_sec = round(time.time() - t0, 3)

    queries = {}
    if not os.environ.get("GRAFT_SKIP_QUERIES"):
        # best-of-N per query (default 2), matching the headline protocol:
        # single-shot slice numbers measured this host's ±30-40% noise
        # bursts as much as the queries (VERDICT r04 "what's wrong" #2)
        q_runs = max(1, int(os.environ.get("GRAFT_QUERY_RUNS", "2")))
        qreg = all_queries()
        for name in BENCH_QUERIES:
            best = None
            for _ in range(q_runs):
                t0 = time.time()
                consume(qreg[name](SF_DIR))
                dt = time.time() - t0
                best = dt if best is None else min(best, dt)
            queries[name] = round(best, 3)
        from ocr_proofreader_ray.pipelines import incremental

        inc_tm = incremental.last_stage_timings()
        if inc_tm:
            stages["dedup_incremental"] = inc_tm

    ray.shutdown()
    out = {
        "metric": "extraction_pipeline_sec",
        "value": round(headline, 3),
        "value_runs": [round(r, 3) for r in runs],
        "unit": "sec",
        "queries": queries,
        "sf": SF_DIR,
        "num_cpus": NUM_CPUS,
        "n_docs": n_docs,
        "docs_per_sec": round(n_docs / headline, 1),
        "html_mb_per_sec": round(html_bytes / 1e6 / headline, 2),
        "stages": stages,
    }
    if chunked_sec is not None:
        out["extraction_pipeline_chunked_sec"] = chunked_sec
    return out


def _burn(_):
    x = 0
    for i in range(20_000_000):
        x += i * i
    return x


def _burn_mem(_):
    """Memory-bandwidth-bound fixed work: ~160 MB working set, far beyond
    the LLC, so concurrent copies contend on the die's memory controllers
    rather than ALUs."""
    import numpy as np

    arr = np.arange(20_000_000, dtype=np.float64)
    s = 0.0
    for _ in range(6):
        s += float(arr.sum())
        arr = arr * 1.0000001
    return s


def hardware_ceiling(lo: int, hi: int) -> dict:
    """Max achievable lo->hi efficiency on THIS host, for two workload
    poles: ALU-bound (contended/throttled vCPUs) and memory-bandwidth-bound
    (one die's memory controllers shared by every process).

    A data pipeline is a mix of both, so its raw lo->hi efficiency is
    bounded between the two ceilings; a real N->4N NODE scale-out
    multiplies cores, memory bandwidth AND disks by 4 (both ceilings ~1.0
    there), which is why the sandbox numbers need this attribution.
    ceiling = (hi*eff_hi) / (lo*eff_lo) / (hi/lo)."""
    import multiprocessing as mp
    import time as _t

    def elapsed_once(fn, n: int) -> float:
        t0 = _t.time()
        with mp.get_context("fork").Pool(n) as p:
            p.map(fn, range(n))
        return _t.time() - t0

    def elapsed(fn, n: int) -> float:
        # best-of-2 per leg: a single noise burst during one leg otherwise
        # corrupts the ceiling in either direction
        return min(elapsed_once(fn, n), elapsed_once(fn, n))

    out = {}
    for name, fn in (("alu", _burn), ("mem", _burn_mem)):
        t1 = elapsed(fn, 1)
        t_lo, t_hi = elapsed(fn, lo), elapsed(fn, hi)
        eff_lo, eff_hi = t1 / t_lo, t1 / t_hi
        out[f"{name}_burn_sec_1"] = round(t1, 3)
        out[f"{name}_burn_sec_{lo}"] = round(t_lo, 3)
        out[f"{name}_burn_sec_{hi}"] = round(t_hi, 3)
        out[f"{name}_ceiling"] = round(
            (hi * eff_hi) / (lo * eff_lo) / (hi / lo), 3)
    # normalization basis = the BETTER-scaling resource (ADVICE r02): a
    # mixed pipeline can do no better than the best ceiling its resources
    # offer, so dividing by the lower one would inflate the normalized
    # efficiency; both components stay in the output for attribution
    out["ceiling"] = max(out["alu_ceiling"], out["mem_ceiling"])
    return out


def run_scaling() -> dict:
    """8-vs-32-CPU scaling evidence (substitute for the N→4N-node rule).

    Legs run INTERLEAVED (lo, hi, lo, hi) in fresh processes and each CPU
    count keeps its best (min-time) leg: this VM's wall-clock noise is
    ±30-40% in bursts (see BASELINE.md), so a single pair of legs can land
    one leg inside a noise window and corrupt the ratio in either
    direction; interleaving + best-of-2 measures the pipeline, not the
    host's weather.  Per-stage splits ride along for attribution."""
    def run(ncpu: int) -> dict:
        # scaling legs time the headline pipeline only; repetition is
        # handled HERE (interleaved best-of-2 legs), so each subprocess
        # runs the pipeline once
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_SKIP_QUERIES="1", GRAFT_BENCH_RUNS="1",
                   GRAFT_SKIP_CHUNKED="1")
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True, cwd=os.path.dirname(os.path.abspath(__file__)))
        return json.loads(out.stdout.strip().splitlines()[-1])

    lo, hi = 8, 32
    hw = hardware_ceiling(lo, hi)
    legs: dict[int, list[dict]] = {lo: [], hi: []}
    # GRAFT_SCALING_ROUNDS interleaved (lo, hi) rounds, best leg per count:
    # identical 32-CPU legs have measured 31.6 vs 43.0 s in one window, so
    # bursty hosts need more than 2 samples for a stable minimum
    for _ in range(max(1, int(os.environ.get("GRAFT_SCALING_ROUNDS", "2")))):
        legs[lo].append(run(lo))
        legs[hi].append(run(hi))
    r_lo = min(legs[lo], key=lambda r: r["value"])
    r_hi = min(legs[hi], key=lambda r: r["value"])
    thr_lo = r_lo["docs_per_sec"]
    thr_hi = r_hi["docs_per_sec"]
    eff = (thr_hi / thr_lo) / (hi / lo)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "sec_8": r_lo["value"],
        "sec_32": r_hi["value"],
        "sec_8_legs": [r["value"] for r in legs[lo]],
        "sec_32_legs": [r["value"] for r in legs[hi]],
        "docs_per_sec_8": thr_lo,
        "docs_per_sec_32": thr_hi,
        "stages_8": r_lo.get("stages", {}),
        "stages_32": r_hi.get("stages", {}),
        "hw_ceiling": hw["ceiling"],
        "hw_ceiling_alu": hw["alu_ceiling"],
        "hw_ceiling_mem": hw["mem_ceiling"],
        "normalized_efficiency": round(eff / hw["ceiling"], 3) if hw["ceiling"] else None,
        "hw_burn": hw,
        "sf": SF_DIR,
        "queries": {},
        "num_cpus": hi,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
