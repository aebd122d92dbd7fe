"""Hard red/green gates for the oracle-less queries (VERDICT r04 #1).

The driver's DuckDB oracle cannot value-check sketch/iterative/composed
queries, so its check degrades to rows-only there.  These tests compare
each such query's canonical output at sf0.001 against a committed golden
table (``fixtures/golden_queries/``, generated by
``fixtures/gen_golden_queries.py`` which refuses nondeterministic
outputs).  A mismatch is a real regression in the query's values — the
canonical form is order-insensitive (columns sorted by name, rows by a
total JSON key), the same shape the driver hashes.

The goldens are pinned to the input tables' contents (a sha256 of their
bytes).  If the inputs change, ``test_goldens_match_testdata`` fails —
rerun the generator to re-pin.
"""

from __future__ import annotations

import json
import os

import pyarrow.parquet as pq
import pytest

from fixtures.gen_golden_queries import (
    OUT_DIR,
    SF_DIR,
    canonicalize,
    testdata_fingerprint as tables_fingerprint,
)

with open(os.path.join(OUT_DIR, "MANIFEST.json")) as _f:
    _MANIFEST = json.load(_f)

pytestmark = pytest.mark.usefixtures("no_ray_groupby_aggregate")


def test_goldens_match_testdata():
    assert _MANIFEST["testdata_fingerprint"] == tables_fingerprint(), (
        "goldens are stale: the sf0.001 tables changed since generation — "
        "rerun `python fixtures/gen_golden_queries.py` to re-pin")


def _assert_matches_golden(name):
    from ocr_proofreader_ray.pipelines.registry import all_queries

    got = canonicalize(all_queries()[name](SF_DIR))
    want = pq.read_table(os.path.join(OUT_DIR, f"{name}.parquet"))
    assert got.schema.equals(want.schema), (
        f"{name}: schema drift\n got: {got.schema}\nwant: {want.schema}")
    assert got.equals(want), (
        f"{name}: values differ from committed golden "
        f"({got.num_rows} vs {want.num_rows} rows)")


@pytest.mark.parametrize("name", sorted(_MANIFEST["queries"]))
def test_golden_query(ray_session, name):
    _assert_matches_golden(name)


@pytest.mark.parametrize("name", sorted(_MANIFEST["queries"]))
def test_golden_query_ray_split(ray_session, ray_default_split, name):
    _assert_matches_golden(name)


@pytest.mark.parametrize("name", sorted(_MANIFEST["queries"]))
def test_golden_query_all_exchange(ray_session, all_exchange, name):
    _assert_matches_golden(name)


def test_every_oracle_less_query_has_a_golden():
    """The golden set must cover the full no-oracle tail: a new query
    registered without an oracle needs either an oracle or a golden."""
    from ocr_proofreader_ray.pipelines.registry import all_oracles, all_queries

    missing = [k for k in all_queries()
               if k not in all_oracles() and k not in _MANIFEST["queries"]
               and k not in _MANIFEST.get("skipped_nondeterministic", [])]
    assert not missing, (
        f"oracle-less queries without a golden: {missing} — run "
        "fixtures/gen_golden_queries.py")
