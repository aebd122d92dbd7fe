"""Deterministic hashing / sketching primitives for dedup & similarity.

All hashes are seeded from fixed constants (never Python's ``hash()``, whose
salt varies per process) so every worker at every parallelism level computes
identical signatures — required for byte-stable dedup decisions.

MinHash / LSH banding and SimHash are standard public techniques (Broder;
Charikar; MMDS ch.3).
"""

from __future__ import annotations

import zlib

import numpy as np

_MERSENNE = (1 << 61) - 1


def stable_hash32(s: str) -> int:
    """crc32 — fast, deterministic, process-independent."""
    return zlib.crc32(s.encode("utf-8")) & 0xFFFFFFFF


def stable_hash64(s: str) -> int:
    """blake2b-based 64-bit hash: high bit-quality (crc32's two halves are
    affinely related, which skews SimHash), still deterministic + fast."""
    import hashlib

    return int.from_bytes(
        hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little"
    )


def shingles(tokens: list[str], n: int = 3) -> set[int]:
    """Hashed word n-gram shingle set."""
    if len(tokens) < n:
        return {stable_hash32(" ".join(tokens))} if tokens else set()
    return {stable_hash32(" ".join(tokens[i:i + n]))
            for i in range(len(tokens) - n + 1)}


class MinHasher:
    """num_perm multiply-shift MinHash over 32-bit shingle hashes.

    h_i(x) = (a_i * x + b_i) mod 2^64 with odd a_i (Dietzfelbinger
    multiply-shift family) — vectorized uint64 wraparound, fully
    deterministic from the fixed seed, no Python-int math in the hot path.
    """

    def __init__(self, num_perm: int = 128, seed: int = 0x5EED):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, 1 << 62, size=num_perm).astype(np.uint64) | np.uint64(1)
        self.b = rng.randint(0, 1 << 62, size=num_perm).astype(np.uint64)
        self.num_perm = num_perm

    def signature(self, shingle_hashes: set[int]) -> np.ndarray:
        if not shingle_hashes:
            return np.full(self.num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        x = np.fromiter(shingle_hashes, dtype=np.uint64, count=len(shingle_hashes))
        with np.errstate(over="ignore"):
            m = self.a[:, None] * x[None, :] + self.b[:, None]  # uint64 wrap
        return m.min(axis=1)


def simhash64(token_counts: dict[str, int]) -> int:
    """Charikar 64-bit SimHash over weighted tokens (vectorized)."""
    if not token_counts:
        return 0
    hs = np.fromiter((stable_hash64(t) for t in token_counts),
                     dtype=np.uint64, count=len(token_counts))
    ws = np.fromiter(token_counts.values(), dtype=np.int64,
                     count=len(token_counts))
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((hs[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)
    acc = np.where(bits, ws[:, None], -ws[:, None]).sum(axis=0)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")
