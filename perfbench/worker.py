"""One benchmark operation set in a fresh process with its own Ray session.

``run.py`` starts this script once per sample with a JSON spec as its only
argument.  The process starts Ray with 2 logical CPUs (a 1-CPU session
deadlocks pass 2: the one-actor corrector pool holds the only slot), imports
the package, runs the workload's operations and shuts Ray down.  Each
finished operation is appended to ``spec["progress"]`` as it ends, so that
``run.py`` knows which one was running if the process dies; the rest of the
result goes to ``spec["out"]``.  The outputs are checked by ``run.py``, not
here, so that the checks stay out of this process's peak RSS.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
import sys
import time
import traceback
import types
from contextlib import nullcontext

RAY_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
KERNEL_REPS = 3
# directories the program keeps query state under
FIXED_STATE_PREFIX = "/tmp/opr_"


def start_ray(spec: dict):
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=RAY_CPUS, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=spec["ray_tmp"])
    DataContext.get_current().enable_progress_bars = False
    return ray


def span(tracer, name: str, root: bool = False):
    """A span on ``tracer``, or nothing on an untraced run."""
    if tracer is None:
        return nullcontext()
    return tracer.root_span(name) if root else tracer.span(name)


def cpu_slots_held(ray) -> float:
    """Logical CPUs still reserved (by actors or tasks) right now."""
    return (ray.cluster_resources().get("CPU", 0.0)
            - ray.available_resources().get("CPU", 0.0))


def session_cpu_s() -> float:
    """User + system CPU seconds used so far by the processes of this
    session (this process, Ray's daemons and workers) and by the children
    they have waited for.  Time the host steals from the machine is not in
    it, so it grows far less than the wall time when neighbours load the
    host."""
    sid = os.getsid(0)
    ticks = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # after the parenthesised command name: state, ppid, pgrp, session,
        # ... then utime, stime, cutime, cstime as the 12th to 15th fields
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == sid:
            ticks += sum(int(x) for x in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


def record_op(spec: dict, op: dict) -> None:
    with open(spec["progress"], "a") as f:
        f.write(json.dumps(op) + "\n")


# ---------------------------------------------------------------------------
# extraction workloads
# ---------------------------------------------------------------------------

def extraction_config(spec: dict, work_dir: str, files: list[str]):
    from ocr_proofreader_ray.config import ExtractionConfig

    chunking = {k: spec[k] for k in ("files_per_chunk", "chunks_per_exec")
                if k in spec}
    return ExtractionConfig(input_paths=files, work_dir=work_dir, **chunking)


def _import_pipeline() -> int:
    import ocr_proofreader_ray.pipelines.extraction  # noqa: F401

    time.sleep(0.1)  # long enough that the tasks run side by side
    return os.getpid()


def warm_up_workers(ray) -> None:
    """Start one worker process per logical CPU with the package imported,
    so the measured run does not race the session's own worker start-up.
    Plain tasks release their slots on return; no actor outlives this."""
    task = ray.remote(num_cpus=1)(_import_pipeline)
    pids: set[int] = set()
    for _ in range(5):
        pids.update(ray.get([task.remote() for _ in range(RAY_CPUS)]))
        if len(pids) >= RAY_CPUS:
            break


def install_extraction_spans(tracer) -> None:
    from ocr_proofreader_ray.pipelines import extraction
    from ocr_proofreader_ray.state import manifest

    tracer.wrap(extraction, "run_pass1_group", "pass1_group")
    tracer.wrap(extraction, "build_dictionary", "dict")
    tracer.wrap(extraction, "run_pass2_group", "pass2_group")
    tracer.wrap(manifest, "fingerprint_files", "manifest.fingerprint")
    tracer.wrap(manifest, "fingerprint_content", "manifest.fingerprint")
    tracer.wrap(manifest.Manifest, "record_done", "manifest.record")


def records_since(work_dir: str, pass_name: str, t0: float) -> list[dict]:
    """Manifest records of one pass written at or after t0."""
    out = []
    for path in glob.glob(f"{work_dir}/manifest/{pass_name}/chunk-*.json"):
        with open(path) as f:
            rec = json.load(f)
        if rec["recorded_at"] >= t0:
            out.append(rec)
    return out


def written_since(d: str, t0: float) -> tuple[int, int]:
    """(files, bytes) under ``d`` modified at or after t0."""
    files = nbytes = 0
    for root, _dirs, names in os.walk(d):
        for name in names:
            st = os.stat(os.path.join(root, name))
            if st.st_mtime >= t0:
                files += 1
                nbytes += st.st_size
    return files, nbytes


def measure_rate(fn, n: int) -> float:
    """Items per second of ``fn()``, the median of KERNEL_REPS timings."""
    times = []
    for _ in range(KERNEL_REPS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return n / statistics.median(times)


def kernel_rates(spec: dict, dict_path: str) -> dict:
    """Single-process docs/s of the extract, tokenize and correct kernels on
    a fixed sample, with the corrector built on this run's dictionary."""
    import pyarrow.parquet as pq

    from ocr_proofreader_ray.stages.corrector import Corrector
    from ocr_proofreader_ray.stages.extract import (
        extract_batch,
        tokenize_count_batch,
    )

    sample = pq.read_table(spec["kernel_sample"],
                           columns=["url", "html", "lang"])
    n = sample.num_rows
    raw = extract_batch(sample)
    cold_times, warm_times = [], []
    for _ in range(KERNEL_REPS):
        t = time.perf_counter()
        corrector = Corrector(dict_path)
        corrector(raw)
        cold_times.append(time.perf_counter() - t)
        t = time.perf_counter()
        corrector(raw)
        warm_times.append(time.perf_counter() - t)
    return {
        "extract_docs_per_s": measure_rate(lambda: extract_batch(sample), n),
        "tokenize_docs_per_s": measure_rate(
            lambda: tokenize_count_batch(raw.select(["lang", "raw_text"])), n),
        "correct_cold_docs_per_s": n / statistics.median(cold_times),
        "correct_warm_docs_per_s": n / statistics.median(warm_times),
    }


def extraction_layers(tracer, cfg, t0: float, t1: float,
                      input_bytes: int) -> dict:
    from perfbench.trace import union_length

    def spans(name):
        return [(s["start"], s["end"]) for s in tracer.named(name)]

    p1, p2, dct = spans("pass1_group"), spans("pass2_group"), spans("dict")
    io = {}
    for label, d in (("raw_extracted", cfg.raw_dir),
                     ("token_counts", cfg.counts_dir),
                     ("extracted", cfg.out_dir)):
        io[f"io.{label}.files_written"], io[f"io.{label}.bytes_written"] = \
            written_since(d, t0)
    written = sum(v for k, v in io.items() if k.endswith("bytes_written"))
    return {
        "extraction.pass1_s": union_length(p1),
        "extraction.pass1_groups": len(p1),
        "extraction.pass1_overlap_s": sum(b - a for a, b in p1)
        - union_length(p1),
        "extraction.dict_s": union_length(dct),
        "extraction.pass2_s": union_length(p2),
        "extraction.pass2_groups": len(p2),
        "extraction.other_s": (t1 - t0) - union_length(p1 + p2 + dct),
        "manifest.fingerprint_s": sum(
            b - a for a, b in spans("manifest.fingerprint")),
        "manifest.record_s": sum(b - a for a, b in spans("manifest.record")),
        "manifest.records": len(spans("manifest.record")),
        **io,
        "io.write_amplification": written / input_bytes,
    }


def run_extraction_op(spec: dict, ray, tracer) -> dict:
    from ocr_proofreader_ray.pipelines.extraction import run_extraction

    files = spec["pages"]
    work_dir = spec["work_dir"]
    shutil.rmtree(work_dir, ignore_errors=True)
    cfg = extraction_config(spec, work_dir, files)
    if tracer is not None:
        install_extraction_spans(tracer)
    c0, t0 = session_cpu_s(), time.time()
    try:
        with span(tracer, "run_extraction", root=True):
            run_extraction(cfg)
    except Exception:
        record_op(spec, {"name": "run_extraction", "ok": False,
                         "error": traceback.format_exc()})
        return {}
    t1 = time.time()
    record_op(spec, {"name": "run_extraction", "ok": True, "wall_s": t1 - t0,
                     "raw_dir": cfg.raw_dir, "out_dir": cfg.out_dir})
    res: dict = {"cpu_s": session_cpu_s() - c0,
                 "cpu_slots_held_after_run": cpu_slots_held(ray)}
    ray.shutdown()

    pass1 = records_since(work_dir, "pass1", t0)
    pass2 = records_since(work_dir, "pass2", t0)
    points = [t0] + sorted(r["recorded_at"] for r in pass1 + pass2) + [t1]
    res["max_gap_s"] = max(b - a for a, b in zip(points, points[1:]))
    res["pass1_rows"] = sum(r["counters"]["extract"]["rows_out"]
                            for r in pass1)
    res["pass2_rows"] = sum(r["counters"]["correct"]["rows_out"]
                            for r in pass2)
    if tracer is not None:
        input_bytes = sum(os.path.getsize(f) for f in files)
        res["layers"] = extraction_layers(tracer, cfg, t0, t1,
                                          input_bytes)
        res["self_s"] = tracer.self_times()
    if spec.get("kernels"):
        res["kernels"] = kernel_rates(spec, cfg.dict_path)
    return res


# ---------------------------------------------------------------------------
# query workload
# ---------------------------------------------------------------------------

def to_pandas(result):
    """A query result (DataFrame, Arrow table or Ray Dataset) as a DataFrame."""
    import pandas as pd

    return result if isinstance(result, pd.DataFrame) else result.to_pandas()


def redirect_fixed_state(modules: list, into: str) -> None:
    """Point the ``os`` of ``modules`` at a copy whose ``path.join`` moves a
    first part under FIXED_STATE_PREFIX into ``into``, so that the queries
    that keep state there (incremental dedup, the prep chain) read and write
    inside the benchmark's checkout.  Nothing else about them changes."""
    join = os.path.join

    def joined(first, *rest):
        if isinstance(first, str) and first.startswith(FIXED_STATE_PREFIX):
            first = join(into, first[len("/tmp/"):])
        return join(first, *rest)

    path = types.ModuleType("posixpath")
    path.__dict__.update(os.path.__dict__)
    path.join = joined
    shim = types.ModuleType("os")
    shim.__dict__.update(os.__dict__)
    shim.path = path
    for module in modules:
        module.os = shim


def run_query_slice(spec: dict, ray, tracer, queries: dict) -> dict:
    from ocr_proofreader_ray.pipelines.incremental import last_stage_timings

    sf = spec["sf_dir"]
    ends = []
    c0, t0 = session_cpu_s(), time.time()
    with span(tracer, "query_slice", root=True):
        for name in spec["slice"]:
            fn = queries[name]
            module = fn.__module__.rsplit(".", 1)[-1]
            t = time.time()
            try:
                with span(tracer, f"query.{module}"):
                    df = to_pandas(fn(sf))
            except Exception:
                record_op(spec, {"name": name, "ok": False, "module": module,
                                 "error": traceback.format_exc()})
                continue
            end = time.time()
            ends.append(end)
            record_op(spec, {"name": name, "ok": True, "module": module,
                             "wall_s": end - t})
            df.to_pickle(os.path.join(spec["results_dir"], f"{name}.pkl"))
            del df
    t1 = time.time()
    points = [t0] + ends + [t1]
    res = {"slice_s": t1 - t0, "cpu_s": session_cpu_s() - c0,
           "max_gap_s": max(b - a for a, b in zip(points, points[1:])),
           "cpu_slots_held_after_run": cpu_slots_held(ray),
           "incremental_stages": last_stage_timings()}
    ray.shutdown()
    if tracer is not None:
        res["self_s"] = tracer.self_times()
    return res


# ---------------------------------------------------------------------------

def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["root"])
    os.chdir(spec["root"])
    ray = start_ray(spec)
    tracer = None
    if spec["traced"]:
        from perfbench.trace import Tracer

        tracer = Tracer(spec["run_id"])
    if spec["kind"] == "query":
        from ocr_proofreader_ray.pipelines import incremental, prep
        from ocr_proofreader_ray.pipelines.registry import (
            all_oracles,
            all_queries,
        )

        redirect_fixed_state([incremental, prep], spec["state_dir"])
        queries = all_queries()
        oracles = all_oracles()
        os.makedirs(spec["results_dir"], exist_ok=True)
        with open(os.path.join(spec["results_dir"], "oracles.json"), "w") as f:
            json.dump({n: oracles[n] for n in spec["slice"] if n in oracles},
                      f)
        to_pandas(queries[spec["warmup"]](spec["sf_dir"]))
        setup_s = time.time() - spec["spawned_at"]
        result = run_query_slice(spec, ray, tracer, queries)
    else:
        import ocr_proofreader_ray.pipelines.extraction  # noqa: F401

        warm_up_workers(ray)
        setup_s = time.time() - spec["spawned_at"]
        result = run_extraction_op(spec, ray, tracer)
    result["setup_s"] = setup_s
    if tracer is not None:
        tracer.write(spec["spans_path"])
    with open(spec["out"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
