"""Output checks, run in the benchmark's own process after a sample ends.

They read what the sample committed (the extraction work dir, the pickled
query results), so their memory never lands in the sample's peak RSS.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os


def read_dir(d: str, columns: list[str]):
    import pyarrow as pa
    import pyarrow.parquet as pq

    parts = [pq.read_table(f, columns=columns)
             for f in sorted(glob.glob(f"{d}/chunk-*/*.parquet"))]
    return pa.concat_tables(parts)


def output_digest(table) -> str:
    """SHA-256 over the url-sorted (url, extracted_text) pairs."""
    table = table.sort_by("url")
    h = hashlib.sha256()
    for url, text in zip(table.column("url").to_pylist(),
                         table.column("extracted_text").to_pylist()):
        h.update(url.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def check_extraction(files: list[str], raw_dir: str, out_dir: str) -> dict:
    """Row count, pass-1 text identity per url, and the output digest."""
    import pyarrow.parquet as pq

    pages = {}
    for f in files:
        t = pq.read_table(f, columns=["url", "text"])
        pages.update(zip(t.column("url").to_pylist(),
                         t.column("text").to_pylist()))
    raw = read_dir(raw_dir, ["url", "raw_text"])
    raw_map = dict(zip(raw.column("url").to_pylist(),
                       raw.column("raw_text").to_pylist()))
    out = read_dir(out_dir, ["url", "extracted_text"])
    return {
        "n_pages": len(pages),
        "n_out": out.num_rows,
        "rows_match": out.num_rows == len(pages) == raw.num_rows,
        "raw_text_match": raw_map == pages,
        "digest": output_digest(out),
    }


def canon(df):
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


def matches_oracle(con, sql: str, got) -> bool:
    """The repository's oracle gate: same columns, rows and exact values."""
    import pandas as pd

    got, want = canon(got), canon(con.sql(sql).df())
    if list(got.columns) != list(want.columns) or len(got) != len(want):
        return False
    try:
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)
    except AssertionError:
        return False
    return bool(pd.util.hash_pandas_object(got, index=False).sum()
                == pd.util.hash_pandas_object(want, index=False).sum())


def result_digest(df) -> str:
    """SHA-256 of a result's rows, order-insensitive."""
    rows = sorted(json.dumps(r, sort_keys=True, default=repr)
                  for r in df.to_dict(orient="records"))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def check_queries(results_dir: str, names: list[str], oracles: dict,
                  sf_dir: str, tables: list[str]) -> dict:
    """Each named result against its DuckDB oracle, or its digest when it
    has none."""
    import duckdb
    import pandas as pd

    con = duckdb.connect()
    for table in tables:
        con.execute(f"CREATE VIEW {table} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{table}.parquet')")
    mismatched, digests = [], {}
    for name in names:
        df = pd.read_pickle(os.path.join(results_dir, f"{name}.pkl"))
        if name in oracles:
            if not matches_oracle(con, oracles[name], df):
                mismatched.append(name)
        else:
            digests[name] = result_digest(df)
    con.close()
    return {"oracle_checked": sum(n in oracles for n in names),
            "oracle_mismatch": mismatched, "digests": digests}


def check_digests(path: str, digests: dict) -> list[str]:
    """Compare with the digests recorded in ``path`` by earlier samples or
    runs and record new ones.  Returns the names whose digest differs."""
    known = {}
    if os.path.exists(path):
        with open(path) as f:
            known = json.load(f)
    bad = [k for k, v in digests.items() if known.get(k, v) != v]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        json.dump({**digests, **known}, f)
    os.replace(path + ".tmp", path)
    return bad
