"""Seeded TPC-H-style tables for the ``query_slice`` workload.

The queries read ten tables from one directory (``region nation customer
supplier part orders lineitem events documents embeddings``).  This module
writes them from a seed with the schemas and value domains of the
repository's test tables, so the benchmark needs no data from outside its
checkout.  Money is generated as integer cents and divided by 100, so every
value is the double nearest its two-decimal literal, as in the test tables.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# rows per table at scale 1 (the test tables' sf0.001 sizes); documents and
# embeddings keep 500 rows at every scale, as in the test tables
BASE_ROWS = {"customer": 150, "supplier": 10, "part": 200, "orders": 1500,
             "lineitem": 6000, "events": 1000}
N_DOCS = 500
N_USERS = 150
EMBED_DIM = 64

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PART_TYPES = ["ECONOMY", "LARGE", "MEDIUM", "PROMO", "SMALL", "STANDARD"]
COLORS = ["blue", "red", "green", "cold", "small", "big", "steel", "gold"]
NOUNS = ["anvil", "widget", "bolt", "ring", "gear", "pipe", "valve", "nut"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
LANGS = ["en", "de", "es", "fr", "zh"]
LANG_P = [0.44, 0.14, 0.14, 0.14, 0.14]
WORDS = ("scan column window order sort part agg value line key join merge "
         "group query a vector hash slow stream filter fast the batch spark "
         "table small data big customer row").split()

_DAY_US = 86_400 * 1_000_000
_EPOCH_1995_US = 788_918_400 * 1_000_000  # 1995-01-01T00:00:00Z
_EPOCH_2024_US = 1_704_067_200 * 1_000_000  # 2024-01-01T00:00:00Z


def _cents(rng: np.random.Generator, lo: int, hi: int, n: int) -> np.ndarray:
    return rng.integers(lo, hi, n) / 100.0


def _days(rng: np.random.Generator, n_days: int, n: int) -> pa.Array:
    us = _EPOCH_1995_US + rng.integers(0, n_days, n) * _DAY_US
    return pa.array(us, pa.timestamp("us"))


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}#{i:09d}" for i in range(n)]


def _documents(rng: np.random.Generator) -> pa.Table:
    texts = []
    for i in range(N_DOCS):
        if i >= 20 and rng.random() < 0.06:
            # planted near-duplicate: an earlier document plus one token
            texts.append(texts[int(rng.integers(0, i))] + " dup")
            continue
        n_words = int(rng.integers(8, 90))
        texts.append(" ".join(WORDS[j] for j in rng.integers(0, len(WORDS),
                                                              n_words)))
    return pa.table({
        "doc_id": pa.array(np.arange(N_DOCS), pa.int64()),
        "text": texts,
        "lang": [LANGS[j] for j in rng.choice(len(LANGS), N_DOCS, p=LANG_P)],
        "source": [f"src{i % 20}" for i in range(N_DOCS)],
        "n_chars": pa.array([len(t) for t in texts], pa.int64()),
    })


def _embeddings(rng: np.random.Generator) -> pa.Table:
    centers = rng.normal(size=(10, EMBED_DIM))
    labels = rng.integers(0, 10, N_DOCS)
    vecs = centers[labels] + 0.6 * rng.normal(size=(N_DOCS, EMBED_DIM))
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(
        np.float32)
    return pa.table({
        "vec_id": pa.array(np.arange(N_DOCS), pa.int64()),
        "embedding": pa.array(list(vecs), pa.list_(pa.float32())),
        "label": pa.array(labels, pa.int32()),
    })


def make_tables(seed: int, scale: int) -> dict[str, pa.Table]:
    """All ten tables for ``seed`` at ``scale`` × the sf0.001 row counts."""
    rng = np.random.default_rng(seed)
    n = {k: v * scale for k, v in BASE_ROWS.items()}
    n_cust, n_supp, n_part = n["customer"], n["supplier"], n["part"]
    n_ord, n_line, n_ev = n["orders"], n["lineitem"], n["events"]
    pick = rng.integers
    return {
        "region": pa.table({
            "r_regionkey": pa.array(range(5), pa.int32()),
            "r_name": REGIONS}),
        "nation": pa.table({
            "n_nationkey": pa.array(range(25), pa.int32()),
            "n_name": [f"NATION_{i}" for i in range(25)],
            "n_regionkey": pa.array([i % 5 for i in range(25)], pa.int32())}),
        "customer": pa.table({
            "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
            "c_name": _names("Customer", n_cust),
            "c_nationkey": pa.array(pick(0, 25, n_cust), pa.int32()),
            "c_acctbal": _cents(rng, -99_999, 1_000_000, n_cust),
            "c_mktsegment": [SEGMENTS[j] for j in pick(0, 5, n_cust)]}),
        "supplier": pa.table({
            "s_suppkey": pa.array(np.arange(n_supp), pa.int64()),
            "s_name": _names("Supplier", n_supp),
            "s_nationkey": pa.array(pick(0, 25, n_supp), pa.int32()),
            "s_acctbal": _cents(rng, -99_999, 1_000_000, n_supp)}),
        "part": pa.table({
            "p_partkey": pa.array(np.arange(n_part), pa.int64()),
            "p_name": [f"{COLORS[a]} {NOUNS[b]}" for a, b in
                       zip(pick(0, 8, n_part), pick(0, 8, n_part))],
            "p_brand": [f"Brand#{j}" for j in pick(1, 26, n_part)],
            "p_type": [PART_TYPES[j] for j in pick(0, 6, n_part)],
            "p_size": pa.array(pick(1, 51, n_part), pa.int32()),
            "p_retailprice": [(9000 + i % 1000) / 10.0
                              for i in range(n_part)]}),
        "orders": pa.table({
            "o_orderkey": pa.array(np.arange(n_ord), pa.int64()),
            "o_custkey": pa.array(pick(0, n_cust, n_ord), pa.int64()),
            "o_orderstatus": [("F", "O", "P")[j] for j in pick(0, 3, n_ord)],
            "o_totalprice": _cents(rng, 100_000, 50_000_000, n_ord),
            "o_orderdate": _days(rng, 2400, n_ord),
            "o_orderpriority": [PRIORITIES[j] for j in pick(0, 5, n_ord)]}),
        "lineitem": pa.table({
            "l_orderkey": pa.array(pick(0, n_ord, n_line), pa.int64()),
            "l_partkey": pa.array(pick(0, n_part, n_line), pa.int64()),
            "l_suppkey": pa.array(pick(0, n_supp, n_line), pa.int64()),
            "l_linenumber": pa.array(pick(1, 8, n_line), pa.int32()),
            "l_quantity": pick(1, 51, n_line).astype(np.float64),
            "l_extendedprice": _cents(rng, 90_000, 10_500_000, n_line),
            "l_discount": pick(0, 11, n_line) / 100.0,
            "l_tax": pick(0, 9, n_line) / 100.0,
            "l_returnflag": [("A", "N", "R")[j] for j in pick(0, 3, n_line)],
            "l_linestatus": [("F", "O")[j] for j in pick(0, 2, n_line)],
            "l_shipdate": _days(rng, 2500, n_line)}),
        "events": pa.table({
            "event_id": pa.array(np.arange(n_ev), pa.int64()),
            "ts": pa.array(_EPOCH_2024_US + np.sort(
                pick(0, 30 * _DAY_US, n_ev)), pa.timestamp("us")),
            "user_id": pa.array(pick(0, N_USERS, n_ev), pa.int64()),
            "event_type": [EVENT_TYPES[j] for j in pick(0, 5, n_ev)],
            "value": _cents(rng, 1, 49_003, n_ev),
            "props": [f'{{"k": {k}}}' for k in pick(0, 100, n_ev)]}),
        "documents": _documents(rng),
        "embeddings": _embeddings(rng),
    }


def write_tables(out_dir: str, seed: int, scale: int) -> None:
    """Write every table as ``{out_dir}/{name}.parquet``."""
    os.makedirs(out_dir, exist_ok=True)
    for name, table in make_tables(seed, scale).items():
        pq.write_table(table, os.path.join(out_dir, f"{name}.parquet"))
