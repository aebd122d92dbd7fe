"""Similarity search over the ``embeddings`` table (list<float> column).

* ``q_ann_topk`` — brute-force cosine top-k: numpy per batch against a
  broadcast query vector; the baseline ANN path.  Exactness contract with
  the DuckDB oracle: DuckDB's ``list_dot_product`` over FLOAT[] multiplies
  and accumulates *sequentially in float32* (verified empirically), so the
  numpy side simulates exactly that — float32 products, a 64-step
  float32 accumulation vectorized across rows — and the score is floored to
  integer micros so equal inputs give equal integers (ties break on vec_id).
* ``q_ann_lsh`` — the scale path: 16-bit random-hyperplane LSH bucketing
  (deterministic seeded planes), probing the query bucket plus all
  Hamming-1 neighbors, then exact cosine within the probed buckets only.
  No SQL oracle (rows-only driver check); recall vs brute force is asserted
  in tests/test_similarity.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ocr_proofreader_ray.ops.agg import (
    gather,
    grouped_agg,
    grouped_sketch,
    grouped_top_k,
)
from ocr_proofreader_ray.ops.io import read_parquet
from ocr_proofreader_ray.pipelines.registry import register
from ocr_proofreader_ray.pipelines.relational import t


def _query_vector(sf_dir: str) -> np.ndarray:
    """One row by key with predicate pushdown (VERDICT r01 #5): the filter
    prunes row groups at the Parquet footer, so only the matching row
    group's two columns are read — never the whole table."""
    import pyarrow.parquet as pq

    tab = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"],
                        filters=[("vec_id", "==", 0)])
    if tab.num_rows == 0:
        raise KeyError("query vector vec_id=0 not found")
    return np.asarray(tab.column("embedding").to_pylist()[0], dtype=np.float32)


def _batch_matrix(b: pa.Table) -> np.ndarray:
    col = b.column("embedding")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float32)
    offsets = col.offsets.to_numpy(zero_copy_only=False)
    dim = offsets[1] - offsets[0]
    return flat.reshape(len(b), int(dim))


def _f32_seq_dot(mat: np.ndarray, q_or_mat: np.ndarray) -> np.ndarray:
    """Per-row dot product with float32 products and a *sequential* float32
    accumulation (one vectorized step per dimension) — bit-identical to
    DuckDB's list_dot_product over FLOAT[]."""
    prod = (mat * q_or_mat).astype(np.float32)
    acc = np.zeros(prod.shape[0], dtype=np.float32)
    for j in range(prod.shape[1]):
        acc = (acc + prod[:, j]).astype(np.float32)
    return acc


def cosine_micro(mat: np.ndarray, q: np.ndarray) -> np.ndarray:
    """floor(cos*1e6 + 0.5) with the exact DuckDB arithmetic sequence:
    float32 dots → float64 sqrt/divide."""
    dots = _f32_seq_dot(mat, q[None, :]).astype(np.float64)
    norms = np.sqrt(_f32_seq_dot(mat, mat).astype(np.float64))
    qnorm = np.sqrt(np.float64(_f32_seq_dot(q[None, :], q[None, :])[0]))
    denom = norms * qnorm
    denom[denom == 0] = 1.0
    cos = dots / denom
    return np.floor(cos * 1_000_000 + 0.5).astype(np.int64)


@register(
    "q_ann_topk",
    sql="""
    WITH q AS (
        SELECT embedding AS qe,
               sqrt(list_dot_product(embedding, embedding)) AS qnorm
        FROM embeddings WHERE vec_id = 0
    )
    SELECT e.vec_id,
           CAST(floor(
               list_dot_product(e.embedding, q.qe)
               / (sqrt(list_dot_product(e.embedding, e.embedding)) * q.qnorm)
               * 1000000 + 0.5) AS BIGINT) AS cos_micro
    FROM embeddings e CROSS JOIN q
    ORDER BY cos_micro DESC, e.vec_id ASC
    LIMIT 10
    """,
)
def q_ann_topk(sf_dir: str):
    emb = t(sf_dir, "embeddings", ["vec_id", "embedding"])
    qref = ray.put(_query_vector(sf_dir))

    def score(b: pa.Table) -> pa.Table:
        q = ray.get(qref)
        mat = _batch_matrix(b)
        return pa.table({
            "vec_id": b.column("vec_id"),
            "cos_micro": pa.array(cosine_micro(mat, q), pa.int64()),
        })

    scored = emb.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    # per-block local top-k + one merge: no global sort shuffle
    return grouped_top_k(scored, [], [("cos_micro", "descending"),
                                      ("vec_id", "ascending")], 10)


# ---------------------------------------------------------------------------
# LSH-bucketed ANN (scale path): L tables x k random hyperplanes
# ---------------------------------------------------------------------------

_N_TABLES = 8
_N_BITS = 8

# IVF coarse-quantizer training-sample budget: bounded COUNT, not fraction —
# the driver gather stays ~this many rows at any corpus size
_IVF_TRAIN_MAX = 100_000


def _planes(dim: int) -> np.ndarray:
    rng = np.random.RandomState(0xA11C)
    return rng.standard_normal((_N_TABLES, _N_BITS, dim))


def _buckets_of(vecs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """(n, L) bucket ids: sign pattern of k hyperplanes per table."""
    # vecs: (n, d); planes: (L, k, d) → bits (n, L, k)
    proj = np.einsum("nd,lkd->nlk", vecs.astype(np.float64), planes)
    bits = proj > 0
    weights = 1 << np.arange(_N_BITS)
    return (bits * weights[None, None, :]).sum(axis=2).astype(np.int64)


def lsh_probe_masks(mat: np.ndarray, planes: np.ndarray,
                    probe_sets: list[frozenset]) -> np.ndarray:
    buckets = _buckets_of(mat, planes)  # (n, L)
    sel = np.zeros(len(mat), dtype=bool)
    for l, probe in enumerate(probe_sets):
        sel |= np.isin(buckets[:, l], list(probe))
    return sel


def _train_centroids(sf_dir: str, n_cells: int) -> np.ndarray:
    """Deterministic seeded Lloyd over a BOUNDED-COUNT hash sample
    (VERDICT r02 #3: a fixed-fraction sample is corpus-proportional; this
    targets ``_IVF_TRAIN_MAX`` rows at any corpus size): keep rows whose
    multiplicative id-hash falls under a threshold derived from the
    metadata-cheap row count, train once on the driver, broadcast."""
    emb_all = t(sf_dir, "embeddings", ["vec_id", "embedding"])
    n_total = emb_all.count()  # parquet metadata, no column scan
    keep_prob = min(1.0, _IVF_TRAIN_MAX / max(1, n_total))
    # clamp: float(2^64-1) rounds UP to 2^64, which overflows uint64
    thresh = np.uint64(min(int(keep_prob * 2.0 ** 64), (1 << 64) - 1))

    def hash_sample(b: pa.Table) -> pa.Table:
        ids_np = (b.column("vec_id").to_numpy(zero_copy_only=False)
                  .astype(np.uint64))
        with np.errstate(over="ignore"):
            h = ids_np * np.uint64(0x9E3779B97F4A7C15)  # bijective mix
        return b.filter(pa.array(h <= thresh))

    sample_tab = gather(emb_all.map_batches(hash_sample, batch_format="pyarrow",
                                            zero_copy_batch=True))
    ids = sample_tab.column("vec_id").to_numpy(zero_copy_only=False)
    sample = np.asarray(sample_tab.column("embedding").to_pylist(),
                        dtype=np.float64)
    order = np.argsort(ids)
    sample = sample[order]
    centroids = sample[:n_cells].copy()  # deterministic init: lowest ids
    for _ in range(5):  # Lloyd iterations
        d = ((sample[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for c in range(n_cells):
            members = sample[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids


@register("q_ann_ivf")  # sketch-based: rows-only driver check
def q_ann_ivf(sf_dir: str, k: int = 10, n_cells: int = 16, n_probe: int = 4):
    """IVF (inverted-file) ANN: a coarse quantizer splits vectors into
    cells; only the ``n_probe`` cells nearest the query are scored exactly.

    Centroids come from a deterministic seeded Lloyd refinement over a
    BOUNDED-COUNT hash sample (VERDICT r02 #3: a fixed-fraction sample is
    corpus-proportional; this one targets ``_IVF_TRAIN_MAX`` rows at any
    corpus size), trained once on the driver and broadcast — the classic
    train-small/assign-everywhere IVF split, with cell assignment + scoring
    fully vectorized inside ``map_batches``.
    """
    q = _query_vector(sf_dir)
    centroids = _train_centroids(sf_dir, n_cells)
    qd = ((q.astype(np.float64) - centroids) ** 2).sum(axis=1)
    probe_cells = set(np.argsort(qd)[:n_probe].tolist())

    emb = t(sf_dir, "embeddings", ["vec_id", "embedding"])
    qref = ray.put(q)
    cent_ref = ray.put(centroids)

    def score_cells(b: pa.Table) -> pa.Table:
        qv = ray.get(qref)
        cents = ray.get(cent_ref)
        mat = _batch_matrix(b)
        d = ((mat[:, None, :].astype(np.float64) - cents[None, :, :]) ** 2).sum(axis=2)
        cell = d.argmin(axis=1)
        sel = np.isin(cell, list(probe_cells))
        if not sel.any():
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "cos_micro": pa.array([], pa.int64())})
        sub = mat[sel]
        ids_ = b.column("vec_id").to_numpy(zero_copy_only=False)[sel]
        return pa.table({
            "vec_id": pa.array(ids_, pa.int64()),
            "cos_micro": pa.array(cosine_micro(sub, qv), pa.int64()),
        })

    scored = emb.map_batches(score_cells, batch_format="pyarrow",
                             zero_copy_batch=True)
    return grouped_top_k(scored, [], [("cos_micro", "descending"),
                                      ("vec_id", "ascending")], k)


@register("q_kmeans_labels")  # iterative algorithm: rows-only driver check
def q_kmeans_labels(sf_dir: str, n_cells: int = 16):
    """Distributed k-means cluster assignment over the embedding corpus —
    the train-small / assign-everywhere split IVF uses, exposed as its own
    operator (the standard corpus-bucketing step before per-cluster
    sampling or pruning of training data).

    The coarse codebook trains once on the driver from the count-bounded
    hash sample (``_train_centroids``), broadcasts via ``ray.put``, and
    every batch assigns its vectors with one vectorized distance matmul —
    no shuffle at any corpus size; the per-vector (vec_id, cell) output
    streams.  Deterministic: seeded init + fixed Lloyd iterations, so two
    runs label identically (pinned by pytest)."""
    centroids = _train_centroids(sf_dir, n_cells)
    cent_ref = ray.put(centroids)
    emb = t(sf_dir, "embeddings", ["vec_id", "embedding"])

    def assign(b: pa.Table) -> pa.Table:
        cents = ray.get(cent_ref)
        mat = _batch_matrix(b).astype(np.float64)
        # argmin over squared L2 via the expansion trick: |x-c|^2 =
        # |x|^2 - 2x.c + |c|^2 and |x|^2 is constant per row
        scores = mat @ cents.T - 0.5 * (cents * cents).sum(axis=1)[None, :]
        cell = scores.argmax(axis=1)
        return pa.table({
            "vec_id": b.column("vec_id"),
            "cell": pa.array(cell, pa.int32()),
        })

    return emb.map_batches(assign, batch_format="pyarrow",
                           zero_copy_batch=True)


@register("q_ann_lsh")  # sketch-based: rows-only driver check
def q_ann_lsh(sf_dir: str, k: int = 10):
    """Multi-table hyperplane LSH: probe the query's bucket + Hamming-1
    neighbors in each of L tables, exact cosine only inside the probed
    union.  At scale the (table, bucket) pair is the partitioning key
    (groupby bucket → per-bucket index actors); here the probe test is a
    vectorized mask inside one map_batches pass."""
    q = _query_vector(sf_dir)
    planes = _planes(len(q))
    q_buckets = _buckets_of(q[None, :].astype(np.float64), planes)[0]  # (L,)
    probe_sets = [
        frozenset({int(b)} | {int(b) ^ (1 << i) for i in range(_N_BITS)})
        for b in q_buckets
    ]

    emb = t(sf_dir, "embeddings", ["vec_id", "embedding"])
    qref = ray.put(q)
    planes_ref = ray.put(planes)

    def score_probed(b: pa.Table) -> pa.Table:
        qv = ray.get(qref)
        pl = ray.get(planes_ref)
        mat = _batch_matrix(b)
        sel = lsh_probe_masks(mat, pl, probe_sets)
        if not sel.any():
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "cos_micro": pa.array([], pa.int64())})
        sub = mat[sel]
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)[sel]
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "cos_micro": pa.array(cosine_micro(sub, qv), pa.int64()),
        })

    scored = emb.map_batches(score_probed, batch_format="pyarrow",
                             zero_copy_batch=True)
    return grouped_top_k(scored, [], [("cos_micro", "descending"),
                                      ("vec_id", "ascending")], k)


@register(
    "q_embedding_norm_stats",
    sql="""
    WITH v AS (
        SELECT label,
               CAST(list_sum(list_transform(embedding,
                    x -> CAST(floor(CAST(x AS DOUBLE) * 1000 + 0.5) AS BIGINT)
                         * CAST(floor(CAST(x AS DOUBLE) * 1000 + 0.5)
                                AS BIGINT))) AS BIGINT) AS normsq_mu
        FROM embeddings
    )
    SELECT label, count(*) AS n_vecs,
           CAST(sum(normsq_mu) AS BIGINT) AS sum_normsq_mu,
           min(normsq_mu) AS min_normsq_mu,
           max(normsq_mu) AS max_normsq_mu
    FROM v GROUP BY label
    """,
)
def q_embedding_norm_stats(sf_dir: str):
    """Per-label embedding-norm statistics (B15 with a value oracle —
    ``q_ann_topk`` pins the float32 dot contract; this pins the
    vector→grouped-aggregate path).

    Each element is quantized to milliunits via floor(x*1000 + 0.5)
    computed in float64 — both engines widen the float32 element to double
    FIRST (``CAST(x AS DOUBLE)``), so the quantizer is the identical IEEE
    expression and the squared-norm sums are exact integers.  One
    vectorized numpy pass per batch; the grouped merge is the usual
    combiner over |labels| rows."""
    ds = t(sf_dir, "embeddings", ["label", "embedding"])

    def prep(b: pa.Table) -> pa.Table:
        mat = _batch_matrix(b).astype(np.float64)
        q = np.floor(mat * 1000.0 + 0.5).astype(np.int64)
        nsq = (q * q).sum(axis=1)
        return pa.table({
            "label": b.column("label"),
            "normsq_mu": pa.array(nsq, pa.int64()),
        })

    agg = grouped_agg(
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
        ["label"], [
            (None, "count", "n_vecs"),
            ("normsq_mu", "sum", "sum_normsq_mu"),
            ("normsq_mu", "min", "min_normsq_mu"),
            ("normsq_mu", "max", "max_normsq_mu"),
        ])
    return agg


@register(
    "q_label_centroids",
    sql="""
    WITH q AS (
        SELECT label,
               unnest(generate_series(1, len(embedding))) AS dim,
               unnest(list_transform(embedding,
                   e -> CAST(floor(CAST(e AS DOUBLE) * 1000000.0 + 0.5)
                             AS BIGINT))) AS qe
        FROM embeddings
    )
    SELECT label, dim,
           CAST(sum(qe) AS BIGINT) / count(*) AS centroid_mu
    FROM q GROUP BY label, dim
    """,
)
def q_label_centroids(sf_dir: str):
    """Exact per-label embedding centroid (the cluster-center /
    class-prototype building block), hash-exact against SQL despite the
    float payload: elements quantize to micro-units via the identical
    widen-then-floor IEEE expression on both engines, per-dim sums stay
    exact int64 through the combiner, and the final mean is one
    int/int → double division — deterministic in any summation order.

    Scale plan: each batch reduces to |labels_in_batch| x dim partial rows
    (one vectorized reshape + per-label row-sum), so the exchange is
    bounded by labels x dim regardless of corpus size; the centroid table
    itself is labels x dim rows."""
    ds = t(sf_dir, "embeddings", ["label", "embedding"])

    def partial(b: pa.Table) -> pa.Table:
        mat = _batch_matrix(b).astype(np.float64)
        q = np.floor(mat * 1000000.0 + 0.5).astype(np.int64)
        labels = np.asarray(b.column("label"))
        uniq, inv = np.unique(labels, return_inverse=True)
        dim = q.shape[1]
        sums = np.zeros((len(uniq), dim), np.int64)
        np.add.at(sums, inv, q)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(uniq, dim),
                              b.column("label").type),
            "dim": pa.array(np.tile(np.arange(1, dim + 1, dtype=np.int64),
                                    len(uniq))),
            "sum_q": pa.array(sums.reshape(-1), pa.int64()),
            "n": pa.array(np.repeat(counts, dim), pa.int64()),
        })

    agg = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["label", "dim"], [("sum_q", "sum", "sum_q"), ("n", "sum", "n")])
    sums = np.asarray(agg.column("sum_q"), dtype=np.int64)
    ns = np.asarray(agg.column("n"), dtype=np.int64)
    return pa.table({
        "label": agg.column("label"),
        "dim": agg.column("dim"),
        "centroid_mu": pa.array(sums / ns, pa.float64()),
    })


# ---------------------------------------------------------------------------
# distributed PCA over the embedding column (exact-integer moment sums)
# ---------------------------------------------------------------------------

_PCA_COMPONENTS = 2
_PCA_QUANT = 1000.0  # milliunit quantization, same contract as norm_stats


@register("q_embedding_pca")  # eigendecomposition: rows-only driver check
def q_embedding_pca(sf_dir: str, n_components: int = _PCA_COMPONENTS):
    """PCA projection of every embedding onto the corpus' top principal
    components — the dimensionality-reduction step embedding pipelines run
    before visualization/clustering.

    Scale plan: the ONLY corpus-sized work is two streaming passes.
    Pass 1 accumulates exact-integer moment sums per block (elements
    quantized to milliunits in float64 first — the repo contract that
    makes distributed sums order-invariant): n, S1[d], S2[d,d].  The
    partials add up on the driver one block at a time
    (``ops.agg.grouped_sketch``), so it holds d(d+1) ints per block in
    flight at any corpus size.  The driver forms cov = S2/n − μμᵀ in
    float64 (single-threaded, deterministic), takes eigh's top components
    with a fixed sign convention (largest-|x| coordinate positive) snapped
    to a fixed binary grid, and pass 2 projects every vector against the
    broadcast W — one numpy matmul per batch.  d is the embedding dim (64): driver state is d², never corpus.
    """
    ds = t(sf_dir, "embeddings", ["vec_id", "embedding"])
    ds = ds.materialize()  # two passes: moments + projection

    def moments(b: pa.Table) -> tuple:
        mat = _batch_matrix(b).astype(np.float64)
        q = np.floor(mat * _PCA_QUANT + 0.5).astype(np.int64)
        return b.num_rows, q.sum(axis=0), q.T @ q

    def add(acc: tuple, part: tuple) -> tuple:
        return tuple(a + p for a, p in zip(acc, part))

    n, s1, s2 = grouped_sketch(ds, None, moments, add)[None]
    mu = s1.astype(np.float64) / n
    cov = s2.astype(np.float64) / n - np.outer(mu, mu)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1][:n_components]
    w = evecs[:, order].T.copy()  # (k, d)
    for i in range(w.shape[0]):   # deterministic sign: largest-|x| coord > 0
        j = int(np.argmax(np.abs(w[i])))
        if w[i, j] < 0:
            w[i] = -w[i]
    # snap W to a 2^-32 grid: eigh's last bits differ between LAPACK builds
    # (~1e-15), and on the grid the explicit accumulation in ``project`` is
    # host-independent; the snap moves a projection by < 1e-9
    w = np.round(w * 2.0 ** 32) / 2.0 ** 32
    w_ref = ray.put((w, mu))

    def project(b: pa.Table) -> pa.Table:
        wt, mu_ = ray.get(w_ref)
        mat = _batch_matrix(b).astype(np.float64)
        q = np.floor(mat * _PCA_QUANT + 0.5)
        centered = q - mu_
        cols = {"vec_id": b.column("vec_id")}
        # explicit left-to-right coordinate accumulation instead of a gemm:
        # BLAS picks different accumulation orders by matrix height, so the
        # same row projected in different-sized batches drifted by ulps —
        # breaking the bit-exact golden gate (run-to-run determinism is the
        # repo-wide float contract)
        for i in range(wt.shape[0]):
            y = np.zeros(len(centered), np.float64)
            for j in range(wt.shape[1]):
                y += centered[:, j] * wt[i, j]
            cols[f"pc{i + 1}"] = pa.array(y / _PCA_QUANT, pa.float64())
        return pa.table(cols)

    return ds.map_batches(project, batch_format="pyarrow",
                          zero_copy_batch=True)


# ---------------------------------------------------------------------------
# vector nearest-neighbor JOIN (entity matching between two vector sets)
# ---------------------------------------------------------------------------

@register(
    "q_ann_join",
    sql="""
    SELECT vec_id, nn_vec_id, cos_micro FROM (
      SELECT a_id AS vec_id, b_id AS nn_vec_id, cos_micro,
             row_number() OVER (PARTITION BY a_id
                                ORDER BY cos_micro DESC, b_id ASC) AS rn
      FROM (
        SELECT a.vec_id AS a_id, b.vec_id AS b_id,
               CAST(floor(
                   list_dot_product(a.embedding, b.embedding)
                   / (sqrt(list_dot_product(a.embedding, a.embedding))
                      * sqrt(list_dot_product(b.embedding, b.embedding)))
                   * 1000000 + 0.5) AS BIGINT) AS cos_micro
        FROM embeddings a, embeddings b
        WHERE a.label = 0 AND b.label = 1))
    WHERE rn = 1
    """,
)
def q_ann_join(sf_dir: str):
    """Nearest-neighbor JOIN between two vector sets: for every label-0
    vector, its single most-cosine-similar label-1 vector — the entity
    matching / retrieval-augmentation shape (find each query's best match
    in an index), distinct from top-k against one query.

    Plan: the index side (label 1) reads with a pushdown filter and
    broadcasts ONCE as a matrix sorted by vec_id (index-sized by
    assumption — corpus x corpus matching is the LSH-bucketed
    embedding-dedup plan, `q_dedup_embedding`); the query side streams,
    each batch computing the (n_a, n_b) micro-cosine matrix with the
    repo's bit-exact float32 sequential-dot contract and taking a
    vectorized argmax (first occurrence = min vec_id tie-break, matching
    the SQL window order).  No shuffle; query side never materializes."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    b_tab = pq.ParquetDataset(
        f"{sf_dir}/embeddings.parquet",
        filters=pads.field("label") == 1,
    ).read(columns=["vec_id", "embedding"])
    b_tab = b_tab.sort_by("vec_id")
    b_ids = np.asarray(b_tab.column("vec_id"), np.int64)
    b_mat = np.asarray(b_tab.column("embedding").to_pylist(), np.float32)
    b_norm = np.sqrt(np.asarray(
        [_f32_seq_dot(b_mat[i:i + 1], b_mat[i:i + 1])[0]
         for i in range(len(b_mat))], np.float64))
    bref = ray.put((b_ids, b_mat, b_norm))

    a_ds = read_parquet(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        filter=pads.field("label") == 0,
    )

    def nn(b: pa.Table) -> pa.Table:
        ids_b, mat_b, norm_b = ray.get(bref)
        mat_a = _batch_matrix(b)
        n_a, d = mat_a.shape
        # float32 products with sequential float32 accumulation across d —
        # the same bit-exact contract as _f32_seq_dot, pairwise
        acc = np.zeros((n_a, len(ids_b)), np.float32)
        for j in range(d):
            acc = (acc + np.outer(mat_a[:, j], mat_b[:, j])
                   .astype(np.float32)).astype(np.float32)
        norm_a = np.sqrt(_f32_seq_dot(mat_a, mat_a).astype(np.float64))
        denom = np.outer(norm_a, norm_b)
        denom[denom == 0] = 1.0
        micro = np.floor(acc.astype(np.float64) / denom * 1_000_000 + 0.5
                         ).astype(np.int64)
        best = np.argmax(micro, axis=1)  # first occurrence = min vec_id tie
        return pa.table({
            "vec_id": b.column("vec_id"),
            "nn_vec_id": pa.array(ids_b[best], pa.int64()),
            "cos_micro": pa.array(micro[np.arange(n_a), best], pa.int64()),
        })

    return a_ds.drop_columns(["label"]).map_batches(
        nn, batch_format="pyarrow", zero_copy_batch=True)
