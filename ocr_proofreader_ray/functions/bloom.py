"""Distributed-buildable Bloom filter (VERDICT r01 missing #5).

Role at 100 TB: ``broadcast_semi_anti`` ships an exact key set to every
worker — fine for dimension keys, unpayable when the key side has 10^9
rows.  A Bloom filter is the classic fallback: fixed-size bit array (a few
MiB regardless of key count), built DISTRIBUTED (each map task ORs its
batch's bits into a partial array; the driver ORs the partials — a
classic commutative reduce), broadcast once via ``ray.put``.

Correctness contract: membership tests have false positives (rate ~fpp)
and NO false negatives, so a Bloom test alone is a PREFILTER, never an
exact semi/anti join — every surviving row must still pass an exact join
downstream.  ``ops/join.py::prefilter`` builds one when its key side is
above the driver bound, and its callers follow with that exact join:
results are bit-identical on either plan (tests/test_bloom.py), only the
shuffled volume changes.  Pipeline modules reach it only through
``prefilter``.

Hashing: double hashing h_i(x) = h1(x) + i*h2(x) (Kirsch-Mitzenstein,
public knowledge) over a splitmix64-mixed key — vectorized uint64 numpy,
process-independent (no Python hash()).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — vectorized, uint64 wraparound."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _key_hash64(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Deterministic uint64 hash of a key column (int fast path; polars
    seeded xxhash for strings — stable within one job, same contract as
    ops/exchange.py::partition_ids)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_integer(col.type):
        filled = pc.fill_null(col.cast(pa.int64()), pa.scalar(0, pa.int64()))
        return _mix64(filled.to_numpy(zero_copy_only=False).astype(np.uint64))
    import polars as pl

    return pl.Series(col).hash(seed=0).to_numpy().astype(np.uint64)


class BloomFilter:
    """m-bit / k-hash Bloom filter over 64-bit key hashes.

    Serializes as (m, k, packed bits) — cloudpickle-friendly for a single
    ``ray.put`` broadcast.  ``partial_bits`` + ``merge`` support the
    distributed OR-reduce build.
    """

    def __init__(self, n_keys: int, fpp: float = 0.01):
        # standard sizing: m = -n ln p / (ln 2)^2, k = m/n ln 2
        n = max(1, n_keys)
        m = int(-n * np.log(fpp) / (np.log(2) ** 2))
        self.m = max(64, (m + 63) // 64 * 64)
        self.k = max(1, int(round(self.m / n * np.log(2))))
        self.bits = np.zeros(self.m // 8, dtype=np.uint8)

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        """(n, k) bit positions via double hashing."""
        h1 = hashes
        h2 = _mix64(hashes) | np.uint64(1)
        i = np.arange(self.k, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return ((h1[:, None] + i[None, :] * h2[:, None])
                    % np.uint64(self.m)).astype(np.int64)

    def add_hashes(self, hashes: np.ndarray) -> None:
        pos = self._positions(hashes).reshape(-1)
        np.bitwise_or.at(self.bits, pos >> 3,
                         np.uint8(1) << (pos & 7).astype(np.uint8))

    def contains_hashes(self, hashes: np.ndarray) -> np.ndarray:
        if len(hashes) == 0:
            return np.zeros(0, dtype=bool)
        pos = self._positions(hashes)
        bit = (self.bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        return bit.all(axis=1).astype(bool)

    # -- Arrow-column conveniences -----------------------------------------

    def add_column(self, col: pa.Array | pa.ChunkedArray) -> None:
        self.add_hashes(_key_hash64(col))

    def contains_column(self, col: pa.Array | pa.ChunkedArray) -> np.ndarray:
        return self.contains_hashes(_key_hash64(col))

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        assert (self.m, self.k) == (other.m, other.k)
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        return self


def build_bloom(ds, col: str, n_keys_estimate: int,
                fpp: float = 0.01) -> BloomFilter:
    """Distributed Bloom build: one partial filter per batch, OR-reduced.

    Each map task emits its packed partial bit array (fixed ~m/8 bytes);
    the driver ORs them — total driver work is n_blocks × m/8 bytes, never
    the keys themselves.  ``n_keys_estimate`` sizes the array (overestimate
    is safe, just wastes bits)."""
    import ray

    proto = BloomFilter(n_keys_estimate, fpp)
    m, k = proto.m, proto.k

    def partial(b: pa.Table) -> pa.Table:
        f = BloomFilter.__new__(BloomFilter)
        f.m, f.k = m, k
        f.bits = np.zeros(m // 8, dtype=np.uint8)
        f.add_column(b.column(col))
        return pa.table({"bits": pa.array([f.bits.tobytes()], pa.binary())})

    from ocr_proofreader_ray.ops.agg import _arrow_blocks

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    # _arrow_blocks drops empty blocks — an empty input block can pass
    # through map_batches UNTRANSFORMED (no "bits" column; seen with a
    # materialized filtered input feeding the build)
    for blk in _arrow_blocks(parts):
        for payload in blk.column("bits").to_pylist():
            np.bitwise_or(proto.bits, np.frombuffer(payload, dtype=np.uint8),
                          out=proto.bits)
    return proto
