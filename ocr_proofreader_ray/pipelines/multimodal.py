"""Multimodal pipeline queries (binary media columns over ``documents``).

The media table is synthesized deterministically inside the query from
``documents`` (payload = 20-byte header + UTF-8 text — see stages/media.py),
so the DuckDB oracle can reproduce the SQL-expressible parts exactly:
``octet_length(encode(text)) + 20`` is the payload size, and kind/dims are
pure functions of ``doc_id``.

``q_media_metadata`` is the oracle-checked surface (metadata/aggregate path);
``q_image_features`` and ``q_video_frames`` run the full actor-pool decode /
thumbnail / frame-sample plumbing (rows-only driver check — the fake codec
has no SQL analogue).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ocr_proofreader_ray.ops.agg import grouped_agg
from ocr_proofreader_ray.ops.io import read_parquet
from ocr_proofreader_ray.pipelines.registry import register
from ocr_proofreader_ray.stages.media import (
    AudioFeatureStage,
    FrameSampleStage,
    ImageFeatureStage,
    synthesize_media_batch,
)

# media rows are payload-heavy: keep actor batches small so
# batch_size x concurrency payload bytes stay well inside worker heaps
MEDIA_BATCH_SIZE = 64


def media_dataset(sf_dir: str,
                  real_containers: bool = False) -> "ray.data.Dataset":
    """documents -> synthetic media table (streaming, pruned read).

    ``real_containers=True`` swaps a fixed doc_id subset to REAL
    uncompressed BMP/PPM/WAV payloads (stages/media.py) so the decode
    stages run their real codec paths; the default stays pure-FAKE because
    ``q_media_metadata``'s oracle derives payload size from text length.
    """
    ds = read_parquet(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    return ds.map_batches(
        lambda b: synthesize_media_batch(b, real_containers=real_containers),
        batch_format="pyarrow", zero_copy_batch=True)


@register(
    "q_media_metadata",
    sql="""
    SELECT CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
           ELSE 'video' END                                   AS kind,
           count(*)                                           AS n_items,
           CAST(sum(octet_length(encode(text)) + 20) AS BIGINT) AS total_bytes,
           CAST(max(octet_length(encode(text)) + 20) AS BIGINT) AS max_bytes
    FROM documents GROUP BY kind
    """,
)
def q_media_metadata(sf_dir: str):
    """Typed-metadata aggregate over the binary column (no decode)."""
    ds = media_dataset(sf_dir)

    def sizes(b: pa.Table) -> pa.Table:
        return pa.table({
            "kind": b.column("kind"),
            "payload_bytes": pc.cast(pc.binary_length(b.column("payload")),
                                     pa.int64()),
        })

    ds = ds.map_batches(sizes, batch_format="pyarrow", zero_copy_batch=True)
    return grouped_agg(ds, ["kind"], [
        (None, "count", "n_items"),
        ("payload_bytes", "sum", "total_bytes"),
        ("payload_bytes", "max", "max_bytes"),
    ])


@register("q_image_features")  # stubbed codec: rows-only driver check
def q_image_features(sf_dir: str):
    """Fused decode + thumbnail over image-kind media: ONE synthesized
    payload pass, ONE decode per item (VERDICT r01 #6 fixed the previous
    double synthesis).  Real-container subset included: the BMP/PPM rows
    exercise the stdlib decoders, not the FAKE parser."""
    ds = media_dataset(sf_dir, real_containers=True)
    ds = ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("kind"), "image")),
        batch_format="pyarrow", zero_copy_batch=True)
    ds = ds.map_batches(
        ImageFeatureStage, fn_constructor_args=(8, True),
        batch_format="pyarrow", batch_size=MEDIA_BATCH_SIZE,
        concurrency=(1, 4), num_cpus=1)
    return ds.select_columns(
        ["doc_id", "dec_w", "dec_h", "body_bytes", "mean_val", "std_val",
         "thumbnail"])


@register("q_audio_features")  # stubbed codec: rows-only driver check
def q_audio_features(sf_dir: str):
    """Windowed audio features (energy + zero-crossing per 256-byte frame)
    over audio-kind media — the framing/aggregation layout a real PCM
    feature stage emits, with exact-integer outputs.  Real-container
    subset included: the WAV rows exercise the stdlib PCM decoder."""
    ds = media_dataset(sf_dir, real_containers=True)
    ds = ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("kind"), "audio")),
        batch_format="pyarrow", zero_copy_batch=True)
    return ds.map_batches(
        AudioFeatureStage, fn_constructor_args=(256,),
        batch_format="pyarrow", batch_size=MEDIA_BATCH_SIZE,
        concurrency=(1, 4), num_cpus=1)


@register("q_video_frames")  # stubbed codec: rows-only driver check
def q_video_frames(sf_dir: str):
    """Frame sampling: one row per sampled frame per video (stride 4)."""
    ds = media_dataset(sf_dir)
    ds = ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("kind"), "video")),
        batch_format="pyarrow", zero_copy_batch=True)
    return ds.map_batches(
        FrameSampleStage, fn_constructor_args=(4,),
        batch_format="pyarrow", batch_size=MEDIA_BATCH_SIZE,
        concurrency=(1, 4), num_cpus=1)


# ---------------------------------------------------------------------------
# image perceptual-hash near-dup (aHash + the shared Hamming band machinery)
# ---------------------------------------------------------------------------

def _ahash_batch(b: pa.Table) -> pa.Table:
    """8x8 thumbnail bytes -> 64-bit average-hash fingerprint (bit i set
    iff pixel i is above the thumbnail mean — the classic aHash)."""
    import numpy as np

    ids, fps = [], []
    for doc_id, thumb in zip(b.column("doc_id").to_pylist(),
                             b.column("thumbnail").to_pylist()):
        px = np.frombuffer(thumb, np.uint8).astype(np.float64)
        bits = px > px.mean()
        fp = np.uint64(0)
        for bit in bits:  # 64 iterations, branch-free fold
            fp = (fp << np.uint64(1)) | np.uint64(bool(bit))
        ids.append(doc_id)
        fps.append(int(fp.astype(np.int64)))
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "simhash": pa.array(fps, pa.int64()),
    })


@register("q_media_phash_dups")  # sketch-based: rows-only driver check
def q_media_phash_dups(sf_dir: str, max_hamming: int = 6):
    """Near-duplicate IMAGES by perceptual hash: aHash over the decoded
    8x8 thumbnails, paired with the exact same corpus-width-derived
    Hamming band machinery the text SimHash dedup uses
    (``dedup.simhash_hamming_pairs(fingerprints=...)``) — multimodal
    dedup composes from the text-dedup primitives, nothing new shuffles.
    Synthetic corpora rarely collide (0 rows is legitimate, like
    q_dedup_embedding); the planted-pair pytest pins recall."""
    from ocr_proofreader_ray.pipelines.dedup import simhash_hamming_pairs

    ds = media_dataset(sf_dir)
    ds = ds.map_batches(
        lambda b: b.filter(pc.equal(b.column("kind"), "image")),
        batch_format="pyarrow", zero_copy_batch=True)
    ds = ds.map_batches(
        ImageFeatureStage, fn_constructor_args=(8, True),
        batch_format="pyarrow", batch_size=MEDIA_BATCH_SIZE,
        concurrency=(1, 4), num_cpus=1)
    # materialize ONCE: the count (scheme width) and the banding pass both
    # consume the fingerprints — a lazy handle would re-run the whole
    # synthesize+decode chain per consumer
    fps = ds.select_columns(["doc_id", "thumbnail"]).map_batches(
        _ahash_batch, batch_format="pyarrow",
        zero_copy_batch=True).materialize()
    return simhash_hamming_pairs(max_hamming=max_hamming,
                                 corpus_size=fps.count(),
                                 fingerprints=fps)
