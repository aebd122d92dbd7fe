"""Deterministic golden expected-tables for the oracle-less queries.

The driver's DuckDB gate cannot value-check queries whose plans are
probabilistic sketches, iterative float algorithms, or composed pipelines
(no SQL oracle exists by design).  This script pins them the other way:
run each such query at sf0.001, canonicalize the result (columns sorted by
name, rows sorted by a total JSON key — the same order-insensitive shape
the driver hashes), and commit the table to
``fixtures/golden_queries/<name>.parquet`` together with a manifest that
fingerprints the sf0.001 inputs.  ``tests/test_golden_queries.py`` then
gives every committed query a hard red/green signal on each pytest run
(VERDICT r04 next-steps #1).

Only queries that are run-to-run DETERMINISTIC get a golden: the script
runs each candidate twice (fresh execution, fresh work dirs) and refuses
to emit a golden when the two canonical forms differ — a flaky golden
would be worse than none.  Excluded queries are printed with the diff.

Regenerate after a driver-side testdata refresh:
    python fixtures/gen_golden_queries.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pyarrow as pa
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "golden_queries")

# sf0.001 tables the no-oracle queries read; their fingerprint gates
# golden validity
_TABLES = ["documents", "embeddings", "events", "customer", "orders",
           "lineitem", "nation", "region", "part", "supplier"]


def testdata_fingerprint(sf_dir: str = SF_DIR) -> str:
    """Hash of the input tables' bytes: a re-copy of the same data keeps
    the fingerprint, a change to any table's contents does not."""
    h = hashlib.sha256()
    for t in _TABLES:
        h.update(f"{t}:".encode())
        with open(f"{sf_dir}/{t}.parquet", "rb") as f:
            for block in iter(lambda: f.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()[:16]


def canonicalize(result) -> pa.Table:
    """Driver-shaped canonical form: Arrow table, columns sorted by name,
    rows sorted by a total JSON key over every column (repr for floats so
    the order itself is bit-exact)."""
    import pandas as pd

    if isinstance(result, pd.DataFrame):
        tbl = pa.Table.from_pandas(result, preserve_index=False)
    elif isinstance(result, pa.Table):
        tbl = result
    else:  # ray.data.Dataset
        from ocr_proofreader_ray.ops.agg import gather

        tbl = gather(result) or pa.table({})
    tbl = tbl.select(sorted(tbl.column_names)).combine_chunks()
    rows = tbl.to_pylist()

    def key(r: dict) -> str:
        return json.dumps(r, sort_keys=True, default=repr)

    order = sorted(range(len(rows)), key=lambda i: key(rows[i]))
    return tbl.take(pa.array(order, pa.int64()))


def golden_candidates() -> list[str]:
    from ocr_proofreader_ray.pipelines.registry import all_oracles, all_queries

    q = all_queries()
    o = all_oracles()
    return sorted(k for k in q if k not in o)


def main() -> int:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from ocr_proofreader_ray.pipelines.registry import all_queries

    qreg = all_queries()
    os.makedirs(OUT_DIR, exist_ok=True)
    manifest = {"sf_dir": SF_DIR,
                "testdata_fingerprint": testdata_fingerprint(),
                "queries": {}}
    skipped = []
    for name in golden_candidates():
        a = canonicalize(qreg[name](SF_DIR))
        b = canonicalize(qreg[name](SF_DIR))
        if not a.equals(b):
            skipped.append(name)
            print(f"SKIP {name}: two runs differ "
                  f"({a.num_rows} vs {b.num_rows} rows)", file=sys.stderr)
            continue
        path = os.path.join(OUT_DIR, f"{name}.parquet")
        pq.write_table(a, path)
        manifest["queries"][name] = {
            "rows": a.num_rows,
            "sha256": hashlib.sha256(
                open(path, "rb").read()).hexdigest()[:16],
        }
        print(f"golden {name}: {a.num_rows} rows")
    manifest["skipped_nondeterministic"] = skipped
    with open(os.path.join(OUT_DIR, "MANIFEST.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    print(f"{len(manifest['queries'])} goldens, {len(skipped)} skipped")
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
