"""Deduplication operators over the ``documents`` table (driver brief:
"exact, MinHash+LSH, SimHash, n-gram Jaccard, embedding-cosine near-dup").

Scale notes (100 TB):
* exact dedup shuffles only (hash, doc_id) pairs, never document text;
* MinHash-LSH shuffles (band_id, band_key, doc_id) triples — the classic
  shingle→minhash→band→bucket-groupby plan; candidate verification maps
  each candidate doc to one (doc_id, element set) row and joins that set
  table to the candidate pairs on each side through ``ops.join.join``
  (broadcast while it fits ``ops.agg._DRIVER_MAX_BYTES``, the one bound
  on what a driver plan holds, hash exchange above it), so the driver
  only ever sees post-LSH pair metadata;
* n-gram Jaccard routes through the same MinHash banding as a prefilter
  (threshold 0.9 → per-pair LSH miss probability ~1e-15 with 32x4 bands),
  so pairwise work is bounded by LSH bucket size, not (lang, source)
  co-group size;
* SimHash near-dup uses Hamming-ball band tables whose key width is
  corpus-size-derived (`_sim_scheme`: 16-bit block keys up to ~34M docs,
  ~25-bit up to ~17G, ~31-bit to trillion scale — pigeonhole over disjoint
  fingerprint blocks keeps recall 1 at every width), with empty docs
  dropped and identical fingerprints collapsed so flooded buckets stay
  linear;
* embedding near-dup buckets by hyperplane-LSH inside each label before
  exact cosine — per-bucket work replaces the old per-label n^2 matrix.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ocr_proofreader_ray.functions.sketches import (
    MinHasher,
    shingles,
    simhash64,
    stable_hash64,
)
from ocr_proofreader_ray.ops import agg
from ocr_proofreader_ray.ops.agg import (
    gather,
    grouped_agg,
    materialized,
    run_ids,
    run_starts,
    shared_runs,
)
from ocr_proofreader_ray.ops.exchange import exchange, num_partitions
from ocr_proofreader_ray.ops.join import broadcast_semi_anti, join, prefilter
from ocr_proofreader_ray.pipelines.registry import register
from ocr_proofreader_ray.pipelines.relational import t


# ---------------------------------------------------------------------------
# B12 — exact dedup: hash-partition on content hash, keep min doc_id
# ---------------------------------------------------------------------------

def content_keys_batch(b: pa.Table) -> pa.Table:
    """(doc_id, text) batch -> per-batch-collapsed (h1, h2, doc_id) rows:
    the vectorized 128-bit composite content key (two seeded xxhash64
    lanes — see q_dedup_exact's strength note) with same-batch duplicates
    collapsed to their min doc_id before anything ships.  Shared by the
    batch exact dedup and the incremental exact-index path."""
    import polars as pl

    txt = b.column("text")
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    s = pl.Series(txt)
    keyed = pa.table({
        "h1": pa.array(s.hash(seed=0).to_numpy().view(np.int64)),
        "h2": pa.array(s.hash(seed=1).to_numpy().view(np.int64)),
        "doc_id": b.column("doc_id"),
    })
    part = keyed.group_by(["h1", "h2"]).aggregate([("doc_id", "min")])
    return part.rename_columns(["h1", "h2", "doc_id"])


@register(
    "q_dedup_exact",
    sql="SELECT min(doc_id) AS doc_id FROM documents GROUP BY text",
)
def q_dedup_exact(sf_dir: str):
    """Exact content dedup: keep the min doc_id per distinct text.

    The text column never leaves the scan: each batch reduces to a
    VECTORIZED 128-bit composite content key (two differently-seeded
    xxhash64 lanes) plus a per-batch min-doc_id collapse, so the exchange
    ships (h1, h2, doc_id) rows only.  The lanes share one hash function,
    so they are not provably independent and the composite's effective
    strength sits between 64 and 128 bits (ADVICE r04) — far beyond the
    ~2^-24 birthday odds a lone 64-bit key would give at 10^12 docs, but
    a pipeline needing a cryptographic-strength guarantee should use the
    blake2b-128 key scheme ``q_segment_dedup`` uses (slower: per-row
    digest).  The old per-row ``hashlib.sha1`` loop was the one
    row-at-a-time pass on a full-corpus hot path (VERDICT r03 #3).

    Returns a Dataset of the kept ``doc_id`` at every size."""
    ds = t(sf_dir, "documents", ["doc_id", "text"])
    hashed = ds.map_batches(content_keys_batch, batch_format="pyarrow",
                            zero_copy_batch=True)
    # distinct texts are corpus-sized: a Dataset, merged on the driver or
    # in an exchange by the partial row count (ops.agg._merge)
    return grouped_agg(hashed, ["h1", "h2"], [("doc_id", "min", "doc_id")],
                       as_dataset=True).select_columns(["doc_id"])


# ---------------------------------------------------------------------------
# MinHash + LSH banding (shared candidate-generation machinery)
# ---------------------------------------------------------------------------

_MINHASHER = MinHasher(num_perm=128)
_BANDS = 32  # 32 bands x 4 rows → catches Jaccard ≳ 0.5 with high recall

_PAIRS_SCHEMA = pa.schema([
    ("doc_a", pa.int64()), ("doc_b", pa.int64()),
    ("inter", pa.int64()), ("uni", pa.int64()),
])


def _band_rows(docs: "ray.data.Dataset", shingle_n: int,
               group_cols: tuple[str, ...] = ()) -> "ray.data.Dataset":
    """One (doc_id, band_id, band_key[, group_cols...]) row per band per
    non-empty doc.

    Band keys are a vectorized FNV-1a fold of the band's signature rows
    (no per-band string hashing).  Docs with an empty shingle set emit no
    rows: they can never satisfy a positive Jaccard threshold (uni = 0)
    and, left in, they would all share the sentinel signature and
    quadratically flood one bucket.
    """
    rows_per_band = _MINHASHER.num_perm // _BANDS

    def to_bands(b: pa.Table) -> pa.Table:
        doc_ids = b.column("doc_id").to_pylist()
        texts = b.column("text").to_pylist()
        keep: list[int] = []
        sig_rows: list[np.ndarray] = []
        for i, text in enumerate(texts):
            sh = shingles((text or "").split(), n=shingle_n)
            if sh:
                keep.append(i)
                sig_rows.append(_MINHASHER.signature(sh))
        n = len(keep)
        if n == 0:
            cols: dict = {
                "doc_id": pa.array([], pa.int64()),
                "band_id": pa.array([], pa.int32()),
                "band_key": pa.array([], pa.int64()),
            }
            for g in group_cols:
                cols[g] = b.column(g).take(pa.array([], pa.int32()))
            return pa.table(cols)
        sigs = np.stack(sig_rows)
        bands_mat = sigs.reshape(n, _BANDS, rows_per_band)
        key = np.full((n, _BANDS), 0xCBF29CE484222325, dtype=np.uint64)
        with np.errstate(over="ignore"):
            for r in range(rows_per_band):
                key = (key ^ bands_mat[:, :, r]) * np.uint64(0x100000001B3)
        flat_key = key.reshape(-1)
        kept_ids = np.asarray(doc_ids, np.int64)[keep]
        cols = {
            "doc_id": pa.array(np.repeat(kept_ids, _BANDS)),
            "band_id": pa.array(np.tile(np.arange(_BANDS, dtype=np.int32), n)),
            "band_key": pa.array((flat_key - (1 << 63)).view(np.int64)),
        }
        row_idx = pa.array(np.repeat(np.asarray(keep, np.int64), _BANDS))
        for g in group_cols:
            cols[g] = b.column(g).take(row_idx)
        return pa.table(cols)

    return docs.map_batches(to_bands, batch_format="pyarrow", zero_copy_batch=True)


# Buckets at or below this population emit all pairs (exact all-pairs
# semantics, what the pair queries' oracles expect); LARGER buckets emit
# star edges only — each member paired with the bucket min.  A crawl with
# m identical templated pages floods one bucket and all-pairs is m^2/2
# (the classic boilerplate-flood killer, VERDICT r02 #1); star emission is
# m-1 edges and preserves exactly what the downstream connected-components
# dedup (q_dedup_clusters) needs: every member stays reachable from the
# bucket min, so components (and their min-id representatives) are
# unchanged whenever pair verification passes the star edges — which it
# does by construction for the flood case (identical/near-identical docs).
# Pair QUERIES above the cap return the star subset; that is a documented
# semantic cutover, because the exact all-pairs answer is itself
# quadratically large there and no engine should return it at scale.
#
# Mixed-family flood buckets (code-review r03): could star edges through a
# family-A min prune away an unrelated family B that shares the bucket?
# Only if A and B collide on a band key, which requires their minhash
# signatures to agree on all of that band's rows — i.e. the families are
# already Jaccard-similar; genuinely unrelated docs collide on a band with
# probability ~2^-256 per band-key bit pattern.  And B still gets its own
# all-pairs emission from every OTHER band where its members agree without
# A (B's family-specific buckets are |B|-sized); losing B entirely would
# need ALL 32 of its bands flooded past the cap by A-like members, which
# again forces A≈B at the signature level — where min-to-B edges verify.
_STAR_BUCKET_CAP = 64


def _bucket_pairs(rows: pa.Table, bucket_cols: list[str],
                  star_cap: int) -> pa.Table:
    """Distinct (doc_a < doc_b) pairs of docs that share a bucket of
    ``rows`` (each bucket complete): every pair of a bucket of at most
    ``star_cap`` distinct docs, star edges (bucket min -> each other
    member) above it.  A bucket with a null key value emits nothing.

    Array code: sort by (bucket, doc_id), cut the bucket runs, then one
    ``np.triu_indices`` gather per distinct bucket size."""
    for c in bucket_cols:
        rows = rows.filter(pc.is_valid(rows.column(c)))
    keys = [pc.dictionary_encode(rows.column(c).combine_chunks())
            .indices.to_numpy() for c in bucket_cols]
    doc = np.asarray(rows.column("doc_id").to_numpy(), np.int64)
    order = np.lexsort([doc] + keys)
    doc = doc[order]
    first = np.zeros(len(doc), bool)
    first[:1] = True
    for k in keys:
        k = k[order]
        first[1:] |= k[1:] != k[:-1]
    # a doc twice in one bucket counts once
    keep = first.copy()
    keep[1:] |= doc[1:] != doc[:-1]
    doc, first = doc[keep], first[keep]
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, len(doc)))
    bucket = np.repeat(np.arange(len(starts)), sizes)
    star = (sizes > star_cap)[bucket] & ~first
    out_a, out_b = [doc[starts[bucket[star]]]], [doc[star]]
    for size in np.unique(sizes[(sizes > 1) & (sizes <= star_cap)]):
        ia, ib = np.triu_indices(size, k=1)
        at = starts[sizes == size][:, None]
        out_a.append(doc[at + ia].ravel())
        out_b.append(doc[at + ib].ravel())
    a, b = np.concatenate(out_a), np.concatenate(out_b)
    # the same pair from several buckets once
    order = np.lexsort([b, a])
    a, b = a[order], b[order]
    dup = np.zeros(len(a), bool)
    dup[1:] = (a[1:] == a[:-1]) & (b[1:] == b[:-1])
    return pa.table({"doc_a": a[~dup], "doc_b": b[~dup]})


def _candidate_pairs(bands: "ray.data.Dataset",
                     group_cols: tuple[str, ...] = (),
                     star_cap: int = _STAR_BUCKET_CAP) -> "ray.data.Dataset":
    """Globally-deduped candidate (doc_a, doc_b) pairs from band buckets,
    returned as a MATERIALIZED Dataset — the pair set stays in the object
    store end-to-end; nothing corpus-proportional touches the driver.

    Buckets are (group_cols..., band_id, band_key) and expand through
    ``_bucket_pairs`` (see ``_STAR_BUCKET_CAP``).  While the band rows'
    bytes and their pair bound (16 B a pair: few band rows can still make
    ~u^2/2 pairs a bucket) fit ``ops.agg._DRIVER_MAX_BYTES``, one driver
    pass expands them (the switch was 4M band rows and 5M pairs; at 256
    MiB it is ~13M ungrouped 20-byte band rows and 16.7M pairs).  Above
    it the band rows hash-exchange on the bucket key, each partition
    expands its buckets and one distinct-keys ``grouped_agg`` dedups the
    pairs across partitions.  Both plans emit the same pair set.
    """
    bucket_cols = list(group_cols) + ["band_id", "band_key"]

    def pairs_of(rows: pa.Table) -> pa.Table:
        return _bucket_pairs(rows, bucket_cols, star_cap)

    bands = materialized(bands)
    if bands.size_bytes() <= agg._DRIVER_MAX_BYTES:
        rows = gather(bands)
        if rows is None:
            return ray.data.from_arrow(pa.table({
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64())}))
        u = (rows.group_by(bucket_cols)
             .aggregate([("doc_id", "count_distinct")])
             .column("doc_id_count_distinct").to_numpy())
        bound = np.where(u <= star_cap, u * (u - 1) // 2, u - 1).sum()
        if 16 * bound <= agg._DRIVER_MAX_BYTES:
            return ray.data.from_arrow(pairs_of(rows))

    pairs = exchange(bands, bucket_cols, pairs_of)
    return materialized(grouped_agg(pairs, ["doc_a", "doc_b"], [],
                                    as_dataset=True))


def _shingle_elements(shingle_n: int):
    """Element function of MinHash verification (batch and incremental):
    a doc's ``shingle_n``-shingle hashes as signed int64."""
    def fn(text: str):
        return [h - (1 << 63)
                for h in shingles((text or "").split(), n=shingle_n)]
    return fn


def _verify_pairs(docs: "ray.data.Dataset", pairs: "ray.data.Dataset",
                  element_rows, thr_num: int,
                  thr_den: int) -> "ray.data.Dataset":
    """Exact verification of candidate pairs: a Dataset of (doc_a, doc_b,
    inter, uni) rows, ``inter = |A ∩ B|`` and ``uni = |A ∪ B|`` over the
    docs' distinct ``element_rows(text)``, kept when ``uni > 0`` and
    ``inter * thr_den >= thr_num * uni`` (integer exact).

    ``pairs`` is the materialized pair Dataset of ``_candidate_pairs``.
    ``ops.join.prefilter`` keeps the candidate docs (a Bloom false
    positive only maps a doc that no pair joins), and each maps to ONE
    row: its doc_id and its sorted distinct int64 elements packed as
    bytes.  That set table is materialized once and meets the pairs twice
    through ``ops.join.join`` — on doc_a, then on doc_b — which broadcasts
    it while its bytes fit the driver bound and hash-exchanges both
    sides above it; one map then intersects each pair's two sorted sets.
    Elements travel as ``large_binary``: Arrow's hash join carries no
    list column that is not a key, and 64-bit offsets keep a joined
    partition past 2 GiB of elements in one array."""
    pairs = materialized(pairs)
    if pairs.count() == 0:
        return ray.data.from_arrow(_PAIRS_SCHEMA.empty_table())
    cand_docs = prefilter(docs, pairs, on="doc_id",
                          keys_on=["doc_a", "doc_b"])

    def to_sets(b: pa.Table) -> pa.Table:
        els = [np.unique(np.asarray(element_rows(text), np.int64)).tobytes()
               for text in b.column("text").to_pylist()]
        return pa.table({
            "doc_id": b.column("doc_id"),
            "els": pa.array(els, pa.large_binary()),
        })

    sets = cand_docs.map_batches(to_sets, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    a_side = join(pairs, sets, ["doc_a"], ["doc_id"]).map_batches(
        lambda t: t.rename_columns(
            ["els_a" if c == "els" else c for c in t.column_names]),
        batch_format="pyarrow", zero_copy_batch=True)
    both = join(a_side, sets, ["doc_b"], ["doc_id"])

    def threshold(b: pa.Table) -> pa.Table:
        n = b.num_rows
        inter = np.empty(n, np.int64)
        uni = np.empty(n, np.int64)
        for i, (ea, eb) in enumerate(zip(b.column("els_a").to_pylist(),
                                         b.column("els").to_pylist())):
            sa = np.frombuffer(ea, np.int64)
            sb = np.frombuffer(eb, np.int64)
            inter[i] = len(np.intersect1d(sa, sb, assume_unique=True))
            uni[i] = len(sa) + len(sb) - inter[i]
        keep = (uni > 0) & (inter * thr_den >= thr_num * uni)
        return pa.table({
            "doc_a": b.column("doc_a").filter(keep),
            "doc_b": b.column("doc_b").filter(keep),
            "inter": inter[keep],
            "uni": uni[keep],
        }).cast(_PAIRS_SCHEMA)

    return both.map_batches(threshold, batch_format="pyarrow",
                            zero_copy_batch=True)


def minhash_lsh_pairs(
    docs: "ray.data.Dataset",
    shingle_n: int = 3,
    jaccard_threshold: float = 0.5,
    star_cap: int = _STAR_BUCKET_CAP,
    bands: "ray.data.Dataset | None" = None,
) -> "ray.data.Dataset":
    """shingle → minhash → band → bucket-groupby → verified candidate pairs.

    Verification (`_verify_pairs`) is exact and runs in the workers: each
    candidate doc's shingle-hash set meets its pairs through
    ``ops.join.join``, broadcast or hash-exchanged by its bytes; nothing
    corpus-sized touches the driver.
    Output columns: (doc_a, doc_b, inter, uni), kept when
    inter/uni >= threshold exactly (integer comparison).

    Pass ``bands`` (a materialized ``_band_rows(docs, shingle_n)``) when
    the caller needs the band rows too — signature computation is the
    dominant banding cost, and bootstrap_index previously paid it twice.
    """
    if bands is None:
        bands = _band_rows(docs, shingle_n)
    pairs = _candidate_pairs(bands, star_cap=star_cap)
    return _verify_pairs(docs, pairs, _shingle_elements(shingle_n),
                         thr_num=int(jaccard_threshold * 1_000_000),
                         thr_den=1_000_000)


@register("q_dedup_minhash")  # sketch-based: no SQL oracle (rows-only check)
def q_dedup_minhash(sf_dir: str):
    docs = t(sf_dir, "documents", ["doc_id", "text"])
    return minhash_lsh_pairs(docs, shingle_n=3, jaccard_threshold=0.5)


# ---------------------------------------------------------------------------
# SimHash fingerprints + exact-fingerprint grouping (no SQL oracle)
# ---------------------------------------------------------------------------

def _simhash_fingerprints(docs: "ray.data.Dataset") -> "ray.data.Dataset":
    from collections import Counter

    def fp(b: pa.Table) -> pa.Table:
        sims = []
        for text in b.column("text").to_pylist():
            counts = Counter((text or "").split())
            sims.append(simhash64(counts) - (1 << 63))  # signed int64
        return pa.table({
            "doc_id": b.column("doc_id"),
            "simhash": pa.array(sims, pa.int64()),
        })

    return docs.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)


@register("q_dedup_simhash")
def q_dedup_simhash(sf_dir: str):
    docs = t(sf_dir, "documents", ["doc_id", "text"])
    fps = _simhash_fingerprints(docs)
    # group identical fingerprints → canonical representative per group
    return grouped_agg(fps, ["simhash"], [("doc_id", "min", "rep_doc_id")],
                       as_dataset=True)


# ---------------------------------------------------------------------------
# SimHash Hamming-ball near-dup: 4x16-bit band tables (VERDICT r01 #4)
# ---------------------------------------------------------------------------

_SIM_MAX_HAMMING = 3
# expected members per (table, key) bucket the scheme aims for: the width
# chooser picks the narrowest concatenation whose expected bucket
# population corpus / 2^key_bits stays at or below this
_SIM_BUCKET_TARGET = 512

# 16-bit popcount LUT (64 KiB): h = sum of four table lookups per word —
# replaces the old bit-serial shift loop (VERDICT r02 #10; numpy 1.26 has
# no np.bitwise_count).  Measured on a 2000^2 uint64 XOR matrix: 0.15 s vs
# 1.37 s bit-serial (~9x); uint8 sums can't overflow (max 64).
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array via four 16-bit LUT lookups."""
    m = np.uint64(0xFFFF)
    h = _POP16[x & m]
    h = h + _POP16[(x >> np.uint64(16)) & m]
    h = h + _POP16[(x >> np.uint64(32)) & m]
    h = h + _POP16[x >> np.uint64(48)]
    return h.astype(np.int64)


def _sim_block_widths(n_blocks: int) -> list[int]:
    base, extra = divmod(64, n_blocks)
    return [base + (1 if i < extra else 0) for i in range(n_blocks)]


def _sim_scheme(corpus_size: int | None,
                max_hamming: int = _SIM_MAX_HAMMING) -> tuple[int, int]:
    """(n_blocks, concat) for the Hamming-ball band tables, corpus-derived.

    Pigeonhole: d <= max_hamming flipped bits touch at most d of the
    n_blocks disjoint blocks, leaving >= n_blocks - d intact; with
    concat = n_blocks - max_hamming, every pair within the ball matches
    exactly on at least one concat-subset of blocks — recall 1 at any
    width.  Wider concatenations shrink the expected bucket population
    (corpus / 2^key_bits) at the cost of C(n_blocks, concat) tables of
    shuffle duplication:

      concat=1 -> 4 blocks,  4 tables, 16-bit keys (corpus <= ~34M)
      concat=2 -> 5 blocks, 10 tables, >=25-bit keys (corpus <= ~17G)
      concat=3 -> 6 blocks, 20 tables, >=31-bit keys (corpus <= ~1.1T)
    """
    for concat in (1, 2, 3):
        n_blocks = max_hamming + concat
        widths = _sim_block_widths(n_blocks)
        min_key_bits = sum(sorted(widths)[:concat])
        if (corpus_size is None
                or corpus_size / 2.0 ** min_key_bits <= _SIM_BUCKET_TARGET):
            return n_blocks, concat
    return max_hamming + 3, 3


def simhash_hamming_pairs(docs: "ray.data.Dataset | None" = None,
                          max_hamming: int = _SIM_MAX_HAMMING,
                          corpus_size: int | None = None,
                          scheme: tuple[int, int] | None = None,
                          star_cap: int = _STAR_BUCKET_CAP,
                          fingerprints: "ray.data.Dataset | None" = None):
    """Near-dup pairs with hamming64(simhash_a, simhash_b) <= max_hamming.

    The standard band-table probe that turns SimHash into an actual near-dup
    operator (Manku et al.'s block-permutation idea, reference-free): split
    the 64-bit fingerprint into disjoint blocks and key each table by the
    concatenation of a block subset — `_sim_scheme` picks the subset size
    from ``corpus_size`` so buckets stay near `_SIM_BUCKET_TARGET` members
    at any scale (pass ``scheme=(n_blocks, concat)`` to pin it).
    Verification needs only the two 8-byte fingerprints, which ride along
    with the band rows — no join, no broadcast.

    Degenerate-bucket guards (ADVICE r02):
    * empty/whitespace-only docs are dropped before fingerprinting — they
      all hash to simhash 0 and would quadratically flood one bucket;
    * within a bucket, identical fingerprints are collapsed to one
      representative before the pairwise XOR matrix, so Hamming work scales
      with DISTINCT fingerprints; equal-fingerprint groups and oversized
      cross-group expansions emit star edges above ``star_cap`` (see
      ``_STAR_BUCKET_CAP`` — same cutover semantics as MinHash banding).
    """
    n_blocks, concat = scheme if scheme else _sim_scheme(corpus_size,
                                                         max_hamming)
    assert n_blocks - concat >= max_hamming, \
        "pigeonhole guarantee needs n_blocks - concat >= max_hamming"
    import itertools

    widths = _sim_block_widths(n_blocks)
    offsets = np.cumsum([0] + widths[:-1]).astype(np.uint64)
    combos = list(itertools.combinations(range(n_blocks), concat))
    n_tables = len(combos)

    if fingerprints is not None:
        # caller-supplied (doc_id, simhash int64) dataset — any 64-bit
        # fingerprint family rides the same band machinery (e.g. image
        # aHash in pipelines/multimodal.py)
        fps = fingerprints
    else:
        def nonempty(b: pa.Table) -> pa.Table:
            txt = pc.fill_null(b.column("text"), "")
            return b.filter(pc.not_equal(pc.utf8_trim_whitespace(txt), ""))

        fps = _simhash_fingerprints(
            docs.map_batches(nonempty, batch_format="pyarrow",
                             zero_copy_batch=True))

    def to_bands(b: pa.Table) -> pa.Table:
        sims = b.column("simhash").to_numpy(zero_copy_only=False)
        u = sims.astype(np.int64).view(np.uint64)
        n = len(u)
        blocks = np.empty((n, n_blocks), dtype=np.uint64)
        for i in range(n_blocks):
            blocks[:, i] = ((u >> offsets[i])
                            & np.uint64((1 << widths[i]) - 1))
        keys = np.empty((n, n_tables), dtype=np.int64)
        for tix, combo in enumerate(combos):
            k = np.zeros(n, dtype=np.uint64)
            for blk in combo:
                k = (k << np.uint64(widths[blk])) | blocks[:, blk]
            keys[:, tix] = k.astype(np.int64)  # <= ~35 bits, int64-safe
        flat_keys = keys.reshape(-1)
        band_ids = np.tile(np.arange(n_tables, dtype=np.int32), n)
        return pa.table({
            "doc_id": pa.array(np.repeat(
                b.column("doc_id").to_numpy(zero_copy_only=False), n_tables)),
            "band_id": pa.array(band_ids),
            "band_bits": pa.array(flat_keys),
            "simhash": pa.array(np.repeat(sims, n_tables)),
        })

    bands = fps.map_batches(to_bands, batch_format="pyarrow", zero_copy_batch=True)

    def part_pairs(rows: pa.Table) -> pa.Table:
        # one call per partition: sort on (bucket, doc) and cut the buckets
        # that hold two docs or more
        bucket = ["band_id", "band_bits"]
        rows = rows.take(pc.sort_indices(
            rows, [(c, "ascending") for c in bucket + ["doc_id"]]))
        rows, cuts = shared_runs(rows, bucket)
        all_ids = rows.column("doc_id").to_numpy()
        all_sims = rows.column("simhash").to_numpy().view(np.uint64)
        out = {"doc_a": [], "doc_b": [], "hamming": []}
        for start, end in zip(cuts[:-1], cuts[1:]):
            # a doc emits exactly one row per band_id → ids are distinct
            # here, and sorted ascending
            ids, sims = all_ids[start:end], all_sims[start:end]
            # collapse identical fingerprints: the XOR matrix runs over
            # DISTINCT fingerprints; members stay sorted asc per group
            # (stable argsort of the asc-sorted ids)
            uniq, inv = np.unique(sims, return_inverse=True)
            o = np.argsort(inv, kind="stable")
            bounds = np.searchsorted(inv[o], np.arange(len(uniq) + 1))
            members = [ids[o[bounds[k]:bounds[k + 1]]]
                       for k in range(len(uniq))]
            # equal-fingerprint groups: hamming-0 pairs, star above the cap
            for mem in members:
                gsize = len(mem)
                if gsize < 2:
                    continue
                if gsize > star_cap:
                    a, bb = np.full(gsize - 1, mem[0]), mem[1:]
                else:
                    ia, ib = np.triu_indices(gsize, k=1)
                    a, bb = mem[ia], mem[ib]
                out["doc_a"].extend(a.tolist())
                out["doc_b"].extend(bb.tolist())
                out["hamming"].extend([0] * len(a))
            if len(uniq) < 2:
                continue
            # cross-fingerprint pairs over the distinct-fp XOR matrix
            x = uniq[:, None] ^ uniq[None, :]
            h = _popcount64(x)
            ka, kb = np.where(np.triu(h <= max_hamming, k=1))
            for i, j in zip(ka.tolist(), kb.tolist()):
                ma, mb = members[i], members[j]
                if len(ma) * len(mb) > star_cap * star_cap:
                    pa_, pb_ = ma[:1], mb[:1]  # star: rep-to-rep edge
                else:
                    pa_ = np.repeat(ma, len(mb))
                    pb_ = np.tile(mb, len(ma))
                lo = np.minimum(pa_, pb_)
                hi = np.maximum(pa_, pb_)
                out["doc_a"].extend(lo.tolist())
                out["doc_b"].extend(hi.tolist())
                out["hamming"].extend([int(h[i, j])] * len(lo))
        return pa.table({c: pa.array(v, pa.int64()) for c, v in out.items()})

    pairs = exchange(bands, ["band_id", "band_bits"], part_pairs)
    # a pair can match in several bands → dedup, keeping min observed hamming
    # (identical in every band, but Min keeps the schema honest)
    deduped = grouped_agg(pairs, ["doc_a", "doc_b"], [("hamming", "min", "hamming")])
    return deduped


@register("q_dedup_simhash_hamming")  # sketch-based: rows-only driver check
def q_dedup_simhash_hamming(sf_dir: str):
    docs = t(sf_dir, "documents", ["doc_id", "text"])
    # metadata-cheap parquet row count drives the band-key width; at test
    # scales this resolves to the narrow (4, 1) scheme
    return simhash_hamming_pairs(docs, corpus_size=docs.count())


# ---------------------------------------------------------------------------
# n-gram Jaccard — LSH-prefiltered, SQL-oracle-checkable
# ---------------------------------------------------------------------------

@register(
    "q_dedup_ngram_jaccard",
    sql="""
    WITH sets AS (
        SELECT DISTINCT doc_id, lang, source, tok FROM (
            SELECT doc_id, lang, source,
                   unnest(string_split(text, ' ')) AS tok
            FROM documents
        )
    ), sizes AS (
        SELECT doc_id, count(*) AS sz FROM sets GROUP BY doc_id
    ), inters AS (
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS inter
        FROM sets a JOIN sets b
          ON a.lang = b.lang AND a.source = b.source
         AND a.tok = b.tok AND a.doc_id < b.doc_id
        GROUP BY a.doc_id, b.doc_id
    )
    SELECT doc_a, doc_b, inter, sa.sz + sb.sz - inter AS uni
    FROM inters
    JOIN sizes sa ON sa.doc_id = doc_a
    JOIN sizes sb ON sb.doc_id = doc_b
    WHERE 10 * inter >= 9 * (sa.sz + sb.sz - inter)
    """,
)
def q_dedup_ngram_jaccard(sf_dir: str):
    """Unigram-set Jaccard >= 0.9 between docs of the same (lang, source).

    Round-2 plan (VERDICT r01 #3): candidates come from the MinHash banding
    machinery over unigram shingles, bucketed by (lang, source, band),
    so per-bucket pairwise work replaces the old all-pairs-per-co-group
    O(n^2).  At threshold 0.9 the 32x4 banding's per-pair miss probability
    is (1 - 0.9^4)^32 ≈ 1.3e-15 — deterministic seeded hashing makes the
    outcome fixed, and the DuckDB oracle equality at sf0.01 pins it.
    Exact verification runs on the token identities through the same plan
    as MinHash (`_verify_pairs`: the candidate docs' token sets join the
    pairs through ``ops.join.join``; raw strings are NOT used as elements —
    they are blake2b-64 hashed, and the collision probability over a doc's
    vocabulary is ~|V|^2 / 2^64, negligible and fixed), then the doc pair
    is restricted to equal (lang, source) by the bucket keys themselves.
    """
    docs = t(sf_dir, "documents", ["doc_id", "text", "lang", "source"])

    bands = _band_rows(docs, shingle_n=1, group_cols=("lang", "source"))
    pairs = _candidate_pairs(bands, group_cols=("lang", "source"))

    def token_elements(text: str):
        return [stable_hash64(tok) - (1 << 63)
                for tok in set((text or "").split())]

    return _verify_pairs(docs, pairs, token_elements,
                         thr_num=9, thr_den=10)


# ---------------------------------------------------------------------------
# embedding-cosine near-dup, hyperplane-LSH-bucketed within label co-groups
# (no SQL oracle: the exact pairwise float comparison is verified by
# tests/test_dedup.py instead)
# ---------------------------------------------------------------------------

# expected members per (label, table, bucket) the width chooser aims for,
# and the per-true-pair miss probability the table count preserves while
# bits grow
_EMB_BUCKET_TARGET = 256
_EMB_MISS_TARGET = 1e-5


def _emb_scheme(corpus_size: int | None,
                threshold: float = 0.99) -> tuple[int, int]:
    """(bits, tables) for the hyperplane-LSH bucketing, corpus-derived
    (VERDICT r02 #2: a fixed 2^8-bucket space makes bucket population grow
    linearly with corpus).

    bits = ceil(log2(corpus / _EMB_BUCKET_TARGET)) clipped to [8, 24], so
    the expected bucket population corpus / 2^bits stays near the target;
    tables then grows to hold the per-true-pair miss probability
    (1 - p_bit^bits)^tables at or below _EMB_MISS_TARGET, where
    p_bit = 1 - theta/pi is the hyperplane agreement probability at the
    threshold angle.  At threshold 0.99: bits=8 -> 10 tables,
    bits=16 -> 18, bits=24 -> 29.
    """
    import math

    if corpus_size is None:
        bits = 8
    else:
        bits = int(np.clip(
            math.ceil(math.log2(max(2, corpus_size) / _EMB_BUCKET_TARGET)),
            8, 24))
    p_bit = 1.0 - math.acos(max(-1.0, min(1.0, threshold))) / math.pi
    p_table = p_bit ** bits
    if p_table >= 1.0:  # threshold 1.0: every table collides exactly
        return bits, 4
    tables = max(4, math.ceil(math.log(_EMB_MISS_TARGET)
                              / math.log(1.0 - p_table)))
    return bits, tables


def _emb_matrix(col: pa.ListArray, n: int) -> np.ndarray:
    """The ``n`` embeddings of a list array as float64 rows."""
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(n, len(flat) // max(n, 1))


def _emb_planes(dim: int, tables: int, bits: int) -> np.ndarray:
    rng = np.random.RandomState(0xE1B)
    return rng.standard_normal((tables, bits, dim))


@register("q_dedup_embedding")
def q_dedup_embedding(sf_dir: str, threshold: float = 0.99,
                      scheme: tuple[int, int] | None = None):
    """cosine >= threshold pairs within each label.

    Round-2 plan (VERDICT r01 #3): within each label, vectors are bucketed
    by random-hyperplane LSH tables; exact cosine runs only inside
    (label, table, bucket) buckets, so per-group work is bounded by bucket
    size instead of label-co-group size.  The (bits, tables) pair is
    corpus-size-derived (`_emb_scheme`): expected bucket population is
    corpus / 2^bits, held near `_EMB_BUCKET_TARGET` while the table count
    keeps the per-true-pair miss probability at or below
    `_EMB_MISS_TARGET` — pass ``scheme=(bits, tables)`` to pin it.  Pairs
    found in several tables dedup exactly on (vec_a, vec_b) keeping the
    identical cos_milli.

    Cost note: the bucket exchange moves each embedding ``tables`` times
    (the standard multi-table LSH duplication) — the scheme quantifies
    exactly what each width buys in recall vs shuffle volume.
    """
    emb = t(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    if scheme is None:
        # metadata-cheap parquet row count; test scales resolve to (8, 10)
        scheme = _emb_scheme(emb.count(), threshold)
    emb_bits, emb_tables = scheme

    def to_buckets(b: pa.Table) -> pa.Table:
        n = len(b)
        col = b.column("embedding").combine_chunks()
        mat = _emb_matrix(col, n)
        planes = _emb_planes(mat.shape[1], emb_tables, emb_bits)
        proj = np.einsum("nd,lkd->nlk", mat, planes)
        bits = proj > 0
        weights = np.int64(1) << np.arange(emb_bits, dtype=np.int64)
        buckets = (bits * weights[None, None, :]).sum(axis=2).astype(np.int64)
        row_idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), emb_tables))
        return pa.table({
            "vec_id": b.column("vec_id").take(row_idx),
            "label": b.column("label").take(row_idx),
            "embedding": col.take(row_idx),
            "table_id": pa.array(np.tile(
                np.arange(emb_tables, dtype=np.int32), n)),
            "bucket": pa.array(buckets.reshape(-1)),
        })

    # materialized, so the exchange sizes its partitions from the expanded
    # rows (``emb_tables`` copies of each embedding), not the read's bytes
    bucketed = emb.map_batches(to_buckets, batch_format="pyarrow",
                               zero_copy_batch=True).materialize()
    keys = ["label", "table_id", "bucket"]

    def bucket_pairs(rows: pa.Table) -> pa.Table:
        rows = rows.take(pc.sort_indices(rows, sort_keys=[
            (c, "ascending") for c in keys + ["vec_id"]]))
        rows, cuts = shared_runs(rows, keys)
        ids = rows.column("vec_id").to_numpy()
        mat = _emb_matrix(rows.column("embedding").combine_chunks(), len(ids))
        empty = np.zeros(0, np.int64)
        vec_a, vec_b, cos_milli = [empty], [empty], [empty]
        # one cosine matrix per bucket of two vectors or more, its rows in
        # vec_id order
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            g_ids = ids[lo:hi]
            g = mat[lo:hi]
            norms = np.sqrt((g * g).sum(axis=1))
            norms[norms == 0] = 1.0
            unit = g / norms[:, None]
            cos = unit @ unit.T
            keep = np.triu(cos >= threshold, k=1)
            # the same vec_id can appear once per table; mask self-pairs
            keep &= g_ids[:, None] != g_ids[None, :]
            ai, bi = np.where(keep)
            vec_a.append(g_ids[ai])
            vec_b.append(g_ids[bi])
            cos_milli.append(
                np.floor(cos[ai, bi] * 1000 + 0.5).astype(np.int64))
        return pa.table({"vec_a": np.concatenate(vec_a),
                         "vec_b": np.concatenate(vec_b),
                         "cos_milli": np.concatenate(cos_milli)})

    pairs = exchange(bucketed, keys, bucket_pairs)
    # a true pair appears in ~all tables → dedup on (vec_a, vec_b); cos_milli
    # is identical across tables (same float inputs), Min keeps schema honest
    return grouped_agg(pairs, ["vec_a", "vec_b"],
                       [("cos_milli", "min", "cos_milli")], as_dataset=True)


# ---------------------------------------------------------------------------
# near-dup cluster resolution: connected components over verified pairs
# ---------------------------------------------------------------------------

def _clusters_label_propagation(pairs: "ray.data.Dataset",
                                max_rounds: int = 64) -> pa.Table:
    """Distributed connected components: iterative min-label propagation.

    label(v) starts as v; each round every node takes the min of its own
    label and its neighbors' labels, and each edge hooks label(v)'s own
    node onto the neighbor's label too (edges joined to the labels of
    both ends through ``ops.join.join`` + one grouped min), then
    POINTER-JUMPS label(v) <- label(label(v)) (a join of labels against
    itself) — hook and jump contract label chains, so a region that holds
    a local min no longer takes one round per hop.  Fixpoint when the
    label sum stops falling (labels only ever decrease, so the sum is a
    strict progress measure); ``max_rounds`` without one raises.
    Per-round state is (node, label) rows in the object store; each join
    broadcasts its label side while that fits the driver bound and
    hash-exchanges above it, so nothing beyond that bound touches the
    driver until the final (output-sized) gather — including the INPUT
    pair set, which arrives as a Dataset and is expanded to edges / seeded
    labels distributed (VERDICT r03 #5).
    """
    def both_dirs(t: pa.Table) -> pa.Table:
        a = t.column("doc_a").combine_chunks()
        b = t.column("doc_b").combine_chunks()
        return pa.table({
            "nbr": pa.concat_arrays([a, b]),   # propagate in BOTH directions
            "node": pa.concat_arrays([b, a]),
        })

    edges_ds = pairs.map_batches(both_dirs, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    labels_ds = grouped_agg(
        edges_ds, ["node"], [], as_dataset=True,
    ).map_batches(
        lambda t: pa.table({"node": t.column("node"),
                            "label": t.column("node")}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    prev_sum = None
    for _ in range(max_rounds):
        nbr_labels = labels_ds.map_batches(
            lambda t: t.rename_columns(["nbr", "nbr_label"]),
            batch_format="pyarrow", zero_copy_batch=True)
        node_labels = labels_ds.map_batches(
            lambda t: t.rename_columns(["node", "node_label"]),
            batch_format="pyarrow", zero_copy_batch=True)
        prop = join(join(edges_ds, nbr_labels, ["nbr"]), node_labels,
                    ["node"])
        # each edge lowers its node's label and hooks that label's node:
        # unhooked, a smaller label crosses a local min's region a hop a round
        cand = prop.map_batches(
            lambda t: pa.concat_tables([
                t.select([end, "nbr_label"]).rename_columns(["node", "label"])
                for end in ("node", "node_label")]),
            batch_format="pyarrow", zero_copy_batch=True)
        # materialize: the jump consumes `merged` twice (probe + build
        # side) — unmaterialized, each consumer would re-execute the whole
        # propagate-and-aggregate sub-plan
        merged = grouped_agg(cand.union(labels_ds), ["node"],
                             [("label", "min", "label")],
                             as_dataset=True).materialize()
        # pointer jump: every label is itself a node (min over node ids
        # preserves nodehood), so label(label(v)) exists and is <= label(v)
        jump_side = merged.map_batches(
            lambda t: t.rename_columns(["jkey", "jlabel"]),
            batch_format="pyarrow", zero_copy_batch=True)
        jumped = join(merged, jump_side, ["label"], ["jkey"])
        # repartition bounds the label block count per round — without it
        # every join/union multiplies blocks and round cost grows
        # exponentially (measured: 6 -> 26 -> 106 blocks in 3 rounds)
        labels_ds = jumped.map_batches(
            lambda t: pa.table({"node": t.column("node"),
                                "label": t.column("jlabel")}),
            batch_format="pyarrow", zero_copy_batch=True,
        ).repartition(num_partitions(jumped)).materialize()
        new_sum = grouped_agg(labels_ds, [], [("label", "sum", "s")]
                              ).column("s")[0].as_py()
        if new_sum == prev_sum:
            break
        prev_sum = new_sum
    else:
        raise RuntimeError(f"connected components did not converge in "
                           f"{max_rounds} rounds")
    out = gather(labels_ds).select(["node", "label"])
    idx = pc.sort_indices(out, sort_keys=[("node", "ascending")])
    out = out.take(idx)
    return pa.table({"doc_id": out.column("node"),
                     "rep_id": out.column("label")})


def _min_labels(a: np.ndarray, b: np.ndarray) -> pa.Table:
    """Connected components of the edges (a[i], b[i]) as (doc_id, rep_id)
    rows sorted by doc_id, rep_id the component's min doc_id.

    The ids relabel to dense ints (``np.unique``, so a smaller int is a
    smaller id).  Every label starts as its own node and is kept a root
    (a node that is its own label): each round every edge whose ends
    carry different roots points the larger root at the smaller, then
    labels pointer-jump to their roots.  It stops when no edge joins two
    roots, so each component holds one root, its min.  Memory is a few
    int64 arrays per edge, with no Python object per node."""
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea, eb = inv[:len(a)], inv[len(a):]
    label = np.arange(len(nodes))
    while True:
        la, lb = label[ea], label[eb]
        new = label.copy()
        np.minimum.at(new, np.maximum(la, lb), np.minimum(la, lb))
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    return pa.table({"doc_id": pa.array(nodes, pa.int64()),
                     "rep_id": pa.array(nodes[label], pa.int64())})


def dedup_clusters(pairs) -> pa.Table:
    """(doc_a, doc_b) pairs (Table or Dataset) -> (doc_id, rep_id):
    connected components with the component's min doc_id as canonical
    representative.

    While the pairs' (doc_a, doc_b) bytes (16 B a pair) fit
    ``ops.agg._DRIVER_MAX_BYTES`` they gather and ``_min_labels`` runs on
    the driver (the switch was 5M pairs; at 256 MiB it is 16.7M): the
    pair set is post-LSH-verified and star-capped, so it is
    corpus-bounded.  Above it the distributed iterative
    min-label-propagation plan runs (`_clusters_label_propagation`) over
    the pair DATASET — the pair set never lands on the driver on that
    path — and both paths are exact and pinned equivalent by
    tests/test_dedup.py.
    """
    if isinstance(pairs, pa.Table):
        pairs = ray.data.from_arrow(pairs)
    pairs = materialized(pairs)
    if 16 * pairs.count() > agg._DRIVER_MAX_BYTES:
        return _clusters_label_propagation(pairs)
    pairs = gather(pairs) or _PAIRS_SCHEMA.empty_table()
    return _min_labels(np.asarray(pairs.column("doc_a"), np.int64),
                       np.asarray(pairs.column("doc_b"), np.int64))


@register("q_dedup_clusters")  # transitive closure over sketch pairs: no oracle
def q_dedup_clusters(sf_dir: str):
    """MinHash near-dup pairs resolved to canonical clusters — the actual
    keep/drop decision a training-data dedup pass needs: every doc in a
    component maps to the component's min doc_id (keep rows where
    doc_id == rep_id, drop the rest)."""
    docs = t(sf_dir, "documents", ["doc_id", "text"])
    pairs = minhash_lsh_pairs(docs, shingle_n=3, jaccard_threshold=0.5)
    return dedup_clusters(pairs)


@register("q_dedup_keep")  # sketch-derived drop set: rows-only driver check
def q_dedup_keep(sf_dir: str):
    """The deduplicated corpus itself — the artifact a training-data dedup
    pass actually ships: every document except non-representative members
    of near-dup clusters (doc_id != rep_id drops).

    The drop set is bounded by the duplicate count, not the corpus, and
    already sits on the driver (``dedup_clusters`` returns a Table); it
    broadcasts as an exact key set through ``broadcast_semi_anti``.  An
    anti filter needs the exact set — a Bloom filter's false positives
    would drop kept docs — so ``prefilter`` does not apply here.  Output:
    the surviving (doc_id, lang, source) rows.
    """
    clusters = q_dedup_clusters(sf_dir)
    mask = pc.not_equal(clusters.column("doc_id"), clusters.column("rep_id"))
    drop_ids = clusters.filter(mask).column("doc_id")
    docs = t(sf_dir, "documents", ["doc_id", "lang", "source"])
    if len(drop_ids) == 0:
        return docs
    return broadcast_semi_anti(docs, drop_ids.combine_chunks(),
                               on="doc_id", anti=True)


# ---------------------------------------------------------------------------
# Segment-level exact dedup (CCNet-style sub-document granularity)
# ---------------------------------------------------------------------------

_SEGMENT_TOKENS = 10


@register(
    "q_segment_dedup",
    sql=f"""
    WITH toks AS (
        SELECT doc_id, string_split(text, ' ') AS ts FROM documents
    ),
    idx AS (
        SELECT doc_id, ts,
               unnest(generate_series(
                   0,
                   CAST(ceil(len(ts) / {_SEGMENT_TOKENS}.0) AS BIGINT) - 1
               )) AS s
        FROM toks
    ),
    segs AS (
        SELECT doc_id,
               array_to_string(
                   ts[s * {_SEGMENT_TOKENS} + 1
                      : s * {_SEGMENT_TOKENS} + {_SEGMENT_TOKENS}],
                   ' ') AS seg
        FROM idx
    ),
    keeper AS (SELECT seg, min(doc_id) AS keep_doc FROM segs GROUP BY seg)
    SELECT s.doc_id,
           count(*) AS n_segments,
           count(*) FILTER (WHERE s.doc_id = k.keep_doc) AS n_kept
    FROM segs s JOIN keeper k ON s.seg = k.seg
    GROUP BY s.doc_id
    """,
)
def q_segment_dedup(sf_dir: str):
    """Sub-document exact dedup at fixed token-window granularity — the
    CCNet/C4-style pass that removes boilerplate repeated ACROSS documents
    while keeping each segment's first (min-doc_id) occurrence.

    Every document splits into consecutive ``_SEGMENT_TOKENS``-token
    windows (last window partial); a window occurrence is KEPT iff its
    doc_id equals the global min doc_id over identical windows.  Output
    per document: total windows and kept windows.

    Scale plan (100 TB): document text never shuffles — the explode stage
    emits 128-bit blake2b segment keys as (h1, h2, doc_id) rows, collapsed
    per batch (a doc of m identical windows ships one row with a count,
    bounding template floods before the exchange).  ONE hash exchange on
    h1 co-locates identical windows; each partition sorts its rows and
    keeps the first doc_id of each window's run (``ops.agg.run_starts``);
    a null text has no windows.  Per-doc partial counts then merge
    through the combiner engine, so worker state is bounded by its hash
    partition and the driver only sees per-doc aggregates.

    The per-doc result is itself corpus-sized, so it is returned as a
    Dataset at every size; the final doc_id merge runs on the driver or in
    an exchange by its measured partial count (``ops.agg._merge``).
    """
    ds = t(sf_dir, "documents", ["doc_id", "text"])

    def explode(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        texts = b.column("text").to_pylist()
        h1s: list[int] = []
        h2s: list[int] = []
        dids: list[int] = []
        for did, txt in zip(ids, texts):
            if txt is None:
                continue  # string_split(NULL, ' ') unnests to no row
            toks = txt.split(" ")
            for s in range(0, len(toks), _SEGMENT_TOKENS):
                d = hashlib.blake2b(
                    " ".join(toks[s:s + _SEGMENT_TOKENS]).encode("utf-8"),
                    digest_size=16).digest()
                h1s.append(int.from_bytes(d[:8], "little", signed=True))
                h2s.append(int.from_bytes(d[8:], "little", signed=True))
                dids.append(did)
        out = pa.table({
            "h1": pa.array(h1s, pa.int64()),
            "h2": pa.array(h2s, pa.int64()),
            "doc_id": pa.array(dids, pa.int64()),
        }).group_by(["h1", "h2", "doc_id"]).aggregate([([], "count_all")])
        return pa.table({
            "h1": out.column("h1"),
            "h2": out.column("h2"),
            "doc_id": out.column("doc_id"),
            "cnt": pc.cast(out.column("count_all"), pa.int64()),
        })

    def keep_in_part(rows: pa.Table) -> pa.Table:
        rows = rows.take(pc.sort_indices(rows, [
            ("h1", "ascending"), ("h2", "ascending"), ("doc_id", "ascending")]))
        starts = run_starts(rows, ["h1", "h2"])
        doc = rows.column("doc_id").to_numpy()
        # a window's keeper is the min doc_id of its run
        keep_doc = doc[starts][run_ids(starts)]
        cnt = rows.column("cnt").to_numpy()
        out = pa.table({
            "doc_id": doc,
            "n_segments": cnt,
            "n_kept": np.where(doc == keep_doc, cnt, 0),
        }).group_by("doc_id").aggregate([("n_segments", "sum"),
                                         ("n_kept", "sum")])
        return pa.table({"doc_id": out.column("doc_id"),
                         "n_segments": out.column("n_segments_sum"),
                         "n_kept": out.column("n_kept_sum")})

    exploded = ds.map_batches(explode, batch_format="pyarrow",
                              zero_copy_batch=True)
    partials = exchange(exploded, ["h1"], keep_in_part)
    return grouped_agg(partials, ["doc_id"], [
        ("n_segments", "sum", "n_segments"),
        ("n_kept", "sum", "n_kept"),
    ], as_dataset=True)
