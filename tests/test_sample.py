"""B10 — systematic sample: ``q_systematic_sample`` keeps exactly the rows
of a modulo filter on the key, so the sample is deterministic at any
parallelism.  (Ray's own ``random_sample(fraction, seed=)`` was observed to
return DIFFERENT rows on two identical seeded executions — the seed mixes
with execution-dependent state.)
"""


def test_systematic_sample_matches_direct_filter(ray_session):
    from ocr_proofreader_ray.pipelines.registry import all_queries

    import pyarrow.parquet as pq

    got = sorted(
        r["l_orderkey"]
        for r in all_queries()["q_systematic_sample"](
            "/root/testdata/sf0.001").take_all()
    )
    keys = pq.read_table("/root/testdata/sf0.001/lineitem.parquet",
                         columns=["l_orderkey"]).column("l_orderkey").to_pylist()
    want = sorted(k for k in keys if k % 97 == 0)
    assert got == want
