"""Benchmark of the two-pass extraction pipeline and the query slice.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (one client, one operation in flight — a closed loop):

* ``extract_chunked`` — pages in 8 chunks of 2 files, 2 chunks per
  execution, cold work dir: 4 groups per pass, the window-2 pass-1 overlap,
  partitioned writes, per-chunk commits and counter lookahead.
* ``query_slice``     — the registered query slice over seeded tables; the
  only workload that runs ``ops/`` and the query pipelines.

Inputs are made from ``--seed`` and cached per seed under ``.pbw/``.  Each
sample is a fresh process (``worker.py``) with its own Ray session, killed
after a hard timeout.  A round is one sample per part of the workload: the
extraction is one part, the query slice is split into QUERY_PARTS parts, so
that one pass over the slice sets up more than once.  If a sample dies or
hangs, the operation it was running counts as failed and sampling goes on.
Whole rounds repeat until ``--seconds`` of operation time is measured over
at least MIN_SAMPLES samples, plus one tie-breaking round when two rounds
disagree; metrics are medians over the whole rounds.  The end-to-end time
is the CPU seconds of one operation over all processes of its Ray session:
on a shared host the wall time follows how much CPU the host steals from
the machine, and the CPU seconds follow it far less.  The wall time is a
per-layer metric (``op.wall_s``).  Outputs are checked
here, after each sample, so the checks stay out of the measured processes.
The last stdout line is the result JSON; the line before it holds host
facts and the per-sample details.  With ``--trace 1`` each part runs
untraced and then traced, and the per-layer metrics are reported.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

from check import (
    check_digests,
    check_extraction,
    check_queries,
)
from worker import RAY_CPUS

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".pbw")
# Ray puts unix sockets under its temp dir, and a socket path may not
# exceed 107 bytes: keep this name short
RAY_TMP = os.path.join(ROOT, ".pbr")

PAGES_PER_FILE = 200
N_FILES = 16
TABLE_SCALE = 2
KERNEL_SEED = 1_000_003
KERNEL_PAGES = 1000

MIN_SAMPLES = 2
# Two rounds whose CPU seconds differ by more than this share get a third,
# so that one outlier does not set the median.
AGREE = 0.25
RUN_DEADLINE_S = 165.0
# a run stops sampling once this many samples have had a failed operation
# or a process that ended badly
MAX_FAILED_SAMPLES = 3
QUERY_PARTS = 2

WORKLOADS = {
    "extract_chunked": {"kind": "extract", "files_per_chunk": 2,
                        "chunks_per_exec": 2},
    "query_slice": {"kind": "query"},
}

# The query slice: the odd positions of the repository's bench slice, so
# that a run fits the benchmark's time budget.  They include a query of
# every module, and q_dedup_incremental, the one query that reports stage
# timings.  (The bench slice's q_json_source_roundtrip would be left out in
# any case: its export is cached by the source's (size, mtime), so every
# sample after the first would time its skip path.)
QUERY_SLICE = [
    "q6_forecast_revenue", "q_order_priority_revenue",
    "q_count_distinct_users", "q_dedup_minhash", "q_token_stats",
    "q_urgent_order_revenue", "q_dedup_simhash_hamming", "q_dedup_clusters",
    "q_asof_latest_order", "q_corr_qty_price", "q_contamination_screen",
    "q_segment_dedup", "q_typicality_buckets", "q_ntile_customers",
    "q_customer_orders_outer", "q_dedup_incremental", "q_price_quartiles",
    "q_embedding_pca", "q_llm_prep_corpus", "q_lang_id",
]
WARMUP_QUERY = "q_quantity_mode"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]
QUERY_MODULES = ["relational", "text_analysis", "dedup", "similarity",
                 "incremental", "prep"]
# the stages incremental.last_stage_timings() reports for q_dedup_incremental
INCREMENTAL_STAGES = [
    "minmax_scan", "split", "bootstrap_band", "bootstrap_verify",
    "bootstrap_cluster", "bootstrap_index_write", "kept_old", "inc_band",
    "inc_pairs", "inc_verify", "inc_cluster", "inc_index_write",
]

END_TO_END = {"cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "kernel.extract_docs_per_s": "1/s", "kernel.tokenize_docs_per_s": "1/s",
    "kernel.correct_cold_docs_per_s": "1/s",
    "kernel.correct_warm_docs_per_s": "1/s",
    "kernel.explained_ratio": "ratio",
    "extraction.docs_per_s": "1/s",
    "extraction.pass1_s": "s", "extraction.pass1_groups": "count",
    "extraction.pass1_overlap_s": "s", "extraction.dict_s": "s",
    "extraction.pass2_s": "s", "extraction.pass2_groups": "count",
    "extraction.other_s": "s",
    "manifest.fingerprint_s": "s", "manifest.record_s": "s",
    "manifest.records": "count",
    "io.raw_extracted.files_written": "count",
    "io.raw_extracted.bytes_written": "bytes",
    "io.token_counts.files_written": "count",
    "io.token_counts.bytes_written": "bytes",
    "io.extracted.files_written": "count",
    "io.extracted.bytes_written": "bytes",
    "io.write_amplification": "ratio",
    "ray.cpu_slots_held_after_run": "count",
    "query.slice_s": "s", "query.p50_s": "s", "query.p75_s": "s",
    **{f"query.{m}_s": "s" for m in QUERY_MODULES},
    **{f"incremental.{st}_s": "s" for st in INCREMENTAL_STAGES},
    "commit.max_gap_s": "s",
    "op.wall_s": "s",
    "trace.overhead_pct": "%",
}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def become_subreaper() -> None:
    """Adopt orphaned descendants (Ray's daemons outlive the sample process)
    so each can be waited for, and its peak RSS lands in RUSAGE_CHILDREN."""
    pr_set_child_subreaper = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def children() -> list[int]:
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the field after the parenthesised command name is the state,
        # then the parent pid
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(entry))
    return out


def stop_descendants(grace_s: float) -> None:
    """Wait for every remaining descendant; SIGKILL those left after
    grace_s.  Returns when this process has no children."""
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def read_ops(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f]


def run_sample(spec: dict, op_names: list[str], timeout_s: float,
               sample_no: int) -> dict:
    """One worker process.  Its finished operations are in ``ops``; if it
    died or outlived ``timeout_s``, the operation it was running is added
    as failed and the ones after it count as not attempted.  A process that
    ends badly after its last operation, in Ray's teardown, failed no
    operation, but its timings are lost."""
    os.makedirs(os.path.join(WORK, "logs"), exist_ok=True)
    spec["out"] = os.path.join(WORK, f"result-{os.getpid()}.json")
    spec["progress"] = os.path.join(WORK, f"ops-{os.getpid()}.jsonl")
    for path in (spec["out"], spec["progress"]):
        if os.path.exists(path):
            os.remove(path)
    log_path = os.path.join(WORK, "logs",
                            f"{spec['run_id']}-{sample_no}.log")
    with open(log_path, "w") as log:
        spec["spawned_at"] = time.time()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             json.dumps(spec)],
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            code = None
        except BaseException:  # interrupted: stop the sample, then re-raise
            os.killpg(proc.pid, signal.SIGKILL)
            stop_descendants(grace_s=0.0)
            raise
        if code is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    stop_descendants(grace_s=5.0 if code == 0 else 0.0)
    shutil.rmtree(RAY_TMP, ignore_errors=True)
    ops = read_ops(spec["progress"])
    if os.path.exists(spec["progress"]):
        os.remove(spec["progress"])
    if code == 0 and os.path.exists(spec["out"]):
        with open(spec["out"]) as f:
            sample = json.load(f)
        os.remove(spec["out"])
        os.remove(log_path)
        return {**sample, "ops": ops}
    how = "timed out" if code is None else f"exited with code {code}"
    print(f"sample {how}; log: {log_path}", file=sys.stderr)
    done = {op["name"] for op in ops}
    running = [n for n in op_names if n not in done][:1]
    return {"exit": how, "ops": ops + [
        {"name": n, "ok": False, "error": f"sample process {how}"}
        for n in running]}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_done(d: str) -> None:
    with open(os.path.join(d, ".done"), "w") as f:
        f.write("ok")


def make_pages(seed: int) -> list[str]:
    """N_FILES page files for ``seed`` from the generator's default noise."""
    import pyarrow.parquet as pq

    from fixtures.gen_pages import render_shard

    d = os.path.join(WORK, "pages", str(seed))
    files = [os.path.join(d, f"pages-{i:05d}.parquet")
             for i in range(N_FILES)]
    if not os.path.exists(os.path.join(d, ".done")):
        os.makedirs(d, exist_ok=True)
        for i, path in enumerate(files):
            lo = i * PAGES_PER_FILE
            pq.write_table(render_shard(lo, lo + PAGES_PER_FILE, seed=seed),
                           path)
        write_done(d)
    return files


def make_kernel_sample() -> str:
    import pyarrow.parquet as pq

    from fixtures.gen_pages import render_shard

    path = os.path.join(WORK, f"kernel-sample-{KERNEL_SEED}.parquet")
    if not os.path.exists(path):
        pq.write_table(render_shard(0, KERNEL_PAGES, seed=KERNEL_SEED),
                       path + ".tmp")
        os.replace(path + ".tmp", path)
    return path


def make_tables(seed: int) -> str:
    from perfbench.tables import write_tables

    d = os.path.join(WORK, "tables", str(seed))
    if not os.path.exists(os.path.join(d, ".done")):
        write_tables(d, seed, TABLE_SCALE)
        write_done(d)
    return d


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def alu_mops() -> float:
    """Pure-Python integer throughput in Mops/s, the median of 3 timings."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        x = 0
        for i in range(1_000_000):
            x += i * i
        times.append(time.perf_counter() - t)
    return 1.0 / statistics.median(times)


def host_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ray_logical_cpus": RAY_CPUS,
        "python": platform.python_version(),
        "ray": metadata.version("ray"),
        "pyarrow": metadata.version("pyarrow"),
        "alu_mops": alu_mops(),
    }


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def usable(s: dict) -> bool:
    """Whether a sample's timings count: its process ended well and none of
    its operations failed."""
    return "exit" not in s and all(op["ok"] for op in s["ops"])


def sample_wall(kind: str, s: dict) -> float:
    return s["slice_s"] if kind == "query" else s["ops"][0]["wall_s"]


def complete_rounds(samples: list[dict], per_round: int) -> list[list[dict]]:
    """The rounds that ran every sample of the plan with no failed
    operation."""
    rounds: dict[int, list[dict]] = {}
    for s in samples:
        rounds.setdefault(s["round"], []).append(s)
    return [r for r in rounds.values()
            if len(r) == per_round and all(usable(s) for s in r)]


def round_total(r: list[dict], traced: bool, get) -> float:
    """Sum of ``get`` over the round's traced or untraced samples."""
    return sum(get(s) for s in r if s["traced"] == traced)


def layer_metrics(kind: str, rounds: list[list[dict]]) -> dict:
    """Per-layer metrics: medians over the traced samples, or over the
    rounds for a quantity summed across the parts of a round; 0 for a layer
    the workload leaves idle."""
    m = {name: 0.0 for name in PER_LAYER}
    traced = [s for r in rounds for s in r if s["traced"]]

    def med(get) -> float:
        return statistics.median(get(s) for s in traced)

    def med_rounds(get, is_traced: bool = True) -> float:
        return statistics.median(round_total(r, is_traced, get)
                                 for r in rounds)

    def wall(s):
        return sample_wall(kind, s)

    m["ray.cpu_slots_held_after_run"] = med(
        lambda s: s["cpu_slots_held_after_run"])
    m["op.wall_s"] = med_rounds(wall, is_traced=False)
    m["trace.overhead_pct"] = 100.0 * (
        med_rounds(wall) / m["op.wall_s"] - 1.0)
    m["commit.max_gap_s"] = med(lambda s: s["max_gap_s"])
    if kind == "query":
        # pooled over every slice of the run, so that at least ten query
        # walls lie beyond the 75th percentile
        walls = [op["wall_s"] for r in rounds for s in r for op in s["ops"]]
        m["query.slice_s"] = med_rounds(wall)
        m["query.p50_s"] = percentile(walls, 0.50)
        m["query.p75_s"] = percentile(walls, 0.75)
        for mod in QUERY_MODULES:
            m[f"query.{mod}_s"] = med_rounds(
                lambda s: s["self_s"].get(f"query.{mod}", 0.0))
        for st in INCREMENTAL_STAGES:
            m[f"incremental.{st}_s"] = med_rounds(
                lambda s: s["incremental_stages"].get(f"{st}_sec", 0.0))
        return m
    for name in traced[0]["layers"]:
        m[name] = med(lambda s: s["layers"][name])
    m["extraction.docs_per_s"] = med(
        lambda s: s["check"]["n_out"] / s["ops"][0]["wall_s"])
    s = next((s for s in traced if "kernels" in s), None)
    if s is not None:
        rates = s["kernels"]
        for name, rate in rates.items():
            m[f"kernel.{name}"] = rate
        kernel_s = (s["pass1_rows"] / rates["extract_docs_per_s"]
                    + s["pass1_rows"] / rates["tokenize_docs_per_s"]
                    + s["pass2_rows"] / rates["correct_warm_docs_per_s"])
        m["kernel.explained_ratio"] = kernel_s / s["ops"][0]["wall_s"]
    return m


def check_sample(kind: str, seed: int, base: dict, s: dict) -> list[str]:
    """Check what the sample committed; returns one line per failed
    operation."""
    problems = [f"{op['name']}: {op['error'].strip().splitlines()[-1]}"
                for op in s["ops"] if not op["ok"]]
    digests_path = os.path.join(WORK, "digests", f"{kind}-{seed}.json")
    if kind == "query":
        done = [op["name"] for op in s["ops"] if op["ok"]]
        if not done:
            return problems
        with open(os.path.join(base["results_dir"], "oracles.json")) as f:
            oracles = json.load(f)
        c = s["check"] = check_queries(base["results_dir"], done, oracles,
                                       base["sf_dir"], base["tables"])
        problems += [f"{name}: differs from its DuckDB oracle"
                     for name in c["oracle_mismatch"]]
        problems += [f"{name}: differs from an earlier run on this seed"
                     for name in check_digests(digests_path, c["digests"])]
        return problems
    if problems:
        return problems
    op = s["ops"][0]
    c = s["check"] = check_extraction(base["pages"], op["raw_dir"],
                                      op["out_dir"])
    reasons = []
    if not c["rows_match"]:
        reasons.append(f"{c['n_out']} output rows for {c['n_pages']} pages")
    if not c["raw_text_match"]:
        reasons.append("pass-1 raw_text differs from the page text")
    if check_digests(digests_path, {"output": c["digest"]}):
        reasons.append("output digest differs from an earlier run")
    if reasons:
        problems.append("run_extraction: " + "; ".join(reasons))
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (os.path.isfile("ocr_proofreader_ray/pipelines/extraction.py")
            and os.path.isfile("fixtures/gen_pages.py")):
        print("run from the root of a checkout of the program "
              "(ocr_proofreader_ray/ and fixtures/ not found)",
              file=sys.stderr)
        return 2
    if len(RAY_TMP) + 70 > 107:
        print(f"checkout path too long for Ray's unix sockets: {RAY_TMP}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    t_start = time.monotonic()
    become_subreaper()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    kind = WORKLOADS[args.workload]["kind"]
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    host = host_facts()

    base = {"root": ROOT, "ray_tmp": RAY_TMP, "kind": kind,
            "run_id": run_id,
            "spans_path": os.path.join(WORK, f"spans-{run_id}.jsonl")}
    if kind == "query":
        base.update(sf_dir=make_tables(args.seed),
                    tables=TABLES, warmup=WARMUP_QUERY,
                    results_dir=os.path.join(WORK, f"results-{os.getpid()}"),
                    state_dir=os.path.join(WORK, f"state-{os.getpid()}"))
        n = len(QUERY_SLICE)
        parts = [QUERY_SLICE[p * n // QUERY_PARTS:(p + 1) * n // QUERY_PARTS]
                 for p in range(QUERY_PARTS)]
    else:
        base.update(WORKLOADS[args.workload], pages=make_pages(args.seed),
                    work_dir=os.path.join(WORK, f"work-{os.getpid()}"),
                    kernel_sample=make_kernel_sample() if args.trace else None)
        parts = [["run_extraction"]]
    # one round: each part untraced, and with --trace 1 then traced
    plan = [(op_names, traced) for op_names in parts
            for traced in ((False, True) if args.trace else (False,))]

    samples: list[dict] = []
    problems: list[str] = []
    measured = longest = 0.0
    want = -(-MIN_SAMPLES // len(plan))
    while True:
        elapsed = time.monotonic() - t_start
        cpus = [round_total(r, False, lambda s: s["cpu_s"])
                for r in complete_rounds(samples, len(plan))]
        if not args.trace and len(cpus) == want == 2 \
                and max(cpus) > (1 + AGREE) * min(cpus):
            want += 1
        if (len(cpus) >= want and measured >= args.seconds
                or sum(not usable(s) for s in samples) >= MAX_FAILED_SAMPLES
                or samples and elapsed + 1.5 * longest > RUN_DEADLINE_S):
            break
        round_no = len({s["round"] for s in samples})
        t = time.monotonic()
        for op_names, traced in plan:
            left = RUN_DEADLINE_S - (time.monotonic() - t_start)
            if left < 1.0:
                break
            spec = {**base, "traced": traced,
                    "kernels": traced and kind == "extract"
                    and not any("kernels" in s for s in samples)}
            if kind == "query":
                spec["slice"] = op_names
            s = run_sample(spec, op_names, left, len(samples))
            s.update(round=round_no, traced=traced)
            samples.append(s)
            problems += check_sample(kind, args.seed, base, s)
            measured += sum(op.get("wall_s", 0.0) for op in s["ops"])
            for d in ("work_dir", "results_dir", "state_dir"):
                if d in base:
                    shutil.rmtree(base[d], ignore_errors=True)
        longest = max(longest, time.monotonic() - t)

    detail = {"workload": args.workload, "seed": args.seed, "host": host,
              "problems": problems,
              "samples": [{k: v for k, v in s.items() if k != "check"}
                          for s in samples]}
    rounds = complete_rounds(samples, len(plan))
    if rounds and kind == "extract":
        detail["output_digest"] = rounds[0][0]["check"]["digest"]
    print(json.dumps(detail, default=str))

    metrics = {}
    if args.trace and rounds:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in layer_metrics(kind, rounds).items()}
    elif not args.trace and rounds:
        values = {
            "cpu_s": statistics.median(
                round_total(r, False, lambda s: s["cpu_s"]) for r in rounds),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "setup_s": statistics.median(s["setup_s"]
                                         for r in rounds for s in r),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    attempted = sum(len(s["ops"]) for s in samples)
    failed = min(len(problems), attempted)
    print(json.dumps({"correct": bool(metrics) and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
