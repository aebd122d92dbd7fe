"""HyperLogLog count-distinct sketch (documented extension, SURVEY.md §2.C).

Standard HLL (Flajolet et al. 2007) with the classic small-range linear
counting correction.  Registers are a numpy uint8 array → trivially
mergeable (elementwise max), which makes the distributed plan the ideal
combiner shape: each batch folds its keys into a 2^p-byte sketch in a
worker, ``ops.agg.grouped_sketch`` merges the sketches on the driver
(the merge is associative and commutative, so any order gives the same
registers), and NO key ever shuffles.  Fully deterministic: same
seedless splitmix64 hash as the engine's other key hashing.
"""

from __future__ import annotations

import numpy as np

P = 12                      # 4096 registers, ~1.6% standard error
M = 1 << P
_ALPHA = 0.7213 / (1 + 1.079 / M)


def _splitmix64(vals: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = (vals + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(30)
        h *= np.uint64(0x94D049BB133111EB)
        h ^= h >> np.uint64(31)
    return h


def empty_registers() -> np.ndarray:
    return np.zeros(M, dtype=np.uint8)


def add_int_keys(registers: np.ndarray, keys: np.ndarray) -> None:
    """Fold int64/uint64 keys into the sketch (vectorized, in place)."""
    h = _splitmix64(keys.astype(np.uint64))
    idx = (h >> np.uint64(64 - P)).astype(np.int64)
    rest = (h << np.uint64(P)) | np.uint64((1 << P) - 1)  # pad low bits
    # rank = leading zeros of the remaining 64-P bits + 1
    rank = np.zeros(len(h), dtype=np.uint8)
    mask = np.uint64(1) << np.uint64(63)
    remaining = rest.copy()
    cur = np.ones(len(h), dtype=np.uint8)
    alive = np.ones(len(h), dtype=bool)
    for _ in range(64 - P + 1):
        zero_top = (remaining & mask) == 0
        step = alive & zero_top
        cur[step] += 1
        alive &= zero_top
        if not alive.any():
            break
        remaining = remaining << np.uint64(1)
    rank = cur
    np.maximum.at(registers, idx, rank)


def merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def estimate(registers: np.ndarray) -> float:
    est = _ALPHA * M * M / np.power(2.0, -registers.astype(np.float64)).sum()
    if est <= 2.5 * M:
        zeros = int((registers == 0).sum())
        if zeros:
            return M * np.log(M / zeros)  # linear counting
    return float(est)
