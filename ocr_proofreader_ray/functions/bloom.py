"""Distributed-buildable Bloom filter (VERDICT r01 missing #5).

Role at 100 TB: ``broadcast_semi_anti`` ships an exact key set to every
worker — fine for dimension keys, unpayable when the key side has 10^9
rows.  A Bloom filter is the classic fallback: fixed-size bit array (a few
MiB regardless of key count), built DISTRIBUTED (each batch sets its
keys' bits in a partial filter in a worker; ``ops.agg.grouped_sketch``
ORs the partials on the driver — a classic commutative reduce),
broadcast once via ``ray.put``.

Correctness contract: membership tests have false positives (rate ~fpp)
and NO false negatives, so a Bloom test alone is a PREFILTER, never an
exact semi/anti join — every surviving row must still pass an exact join
downstream.  ``ops/join.py::prefilter`` builds one when its key side is
above the driver bound, and its callers follow with that exact join:
results are bit-identical on either plan (tests/test_bloom.py), only the
shuffled volume changes.  Pipeline modules reach it only through
``prefilter``.

Hashing: double hashing h_i(x) = h1(x) + i*h2(x) (Kirsch-Mitzenstein,
public knowledge) over the exchange's key hash, splitmix64-mixed —
vectorized uint64 numpy, process-independent (no Python hash()).  Equal
values hash equally whatever their Arrow encoding (a dictionary array
hashes as its values), so no encoding turns a member into a false
negative.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — vectorized, uint64 wraparound."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _key_hash64(col: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Deterministic uint64 hash of a key column: the exchange's partition
    hash (``ops.exchange._column_hash``: a dictionary array hashes as its
    values, a null as one key), splitmix64-mixed."""
    # imported here: ``functions`` modules import no Ray at module level
    from ocr_proofreader_ray.ops.exchange import _column_hash

    return _mix64(_column_hash(col))


class BloomFilter:
    """m-bit / k-hash Bloom filter over 64-bit key hashes.

    Serializes as (m, k, packed bits) — cloudpickle-friendly for a single
    ``ray.put`` broadcast.  ``merge`` ORs two filters of one size: the
    fold of the distributed build.
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


def build_bloom(ds, col: str, n_keys_estimate: int) -> BloomFilter:
    """Distributed Bloom build: one partial filter per batch, OR-merged by
    ``ops.agg.grouped_sketch`` — total driver work is n_blocks × m/8 bytes,
    never the keys themselves.  ``n_keys_estimate`` sizes the array
    (overestimate is safe, just wastes bits)."""
    from ocr_proofreader_ray.ops.agg import grouped_sketch

    def build(rows: pa.Table) -> BloomFilter:
        f = BloomFilter(n_keys_estimate)
        f.add_column(rows.column(col))
        return f

    merged = grouped_sketch(ds, None, build, BloomFilter.merge)
    return merged[None] if merged else BloomFilter(n_keys_estimate)
