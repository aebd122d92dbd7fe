"""Count-Min Sketch (Cormode–Muthukrishnan, public knowledge).

Bounded-memory frequency estimation for heavy-hitter queries: a (depth x
width) uint64 counter matrix, updated via d pairwise-independent hash rows
(double hashing over splitmix64-mixed keys, same family as functions/
bloom.py).  Estimates are min over rows — never an UNDERestimate, biased
up by at most ~N/width with probability 1-(1/2)^depth.

Mergeability is the scale property: sketches add elementwise, so each
batch builds one fixed-size partial (depth*width*8 bytes) in a worker and
``ops.agg.grouped_sketch`` sums them on the driver, one block at a time
— the exact (lang, token) partial-count table grows with vocabulary
(fine at sf, GBs at 10^12 docs); the sketch does not.
"""

from __future__ import annotations

import numpy as np

from ocr_proofreader_ray.functions.bloom import _mix64


class CountMinSketch:
    def __init__(self, width: int = 1 << 16, depth: int = 4):
        self.width = width
        self.depth = depth
        self.counts = np.zeros((depth, width), dtype=np.uint64)

    def _positions(self, hashes: np.ndarray) -> np.ndarray:
        """(depth, n) column positions via double hashing."""
        h1 = hashes
        h2 = _mix64(hashes) | np.uint64(1)
        i = np.arange(self.depth, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return ((h1[None, :] + i[:, None] * h2[None, :])
                    % np.uint64(self.width)).astype(np.int64)

    def add(self, hashes: np.ndarray, weights: np.ndarray) -> None:
        pos = self._positions(hashes)
        w = weights.astype(np.uint64)
        for r in range(self.depth):
            np.add.at(self.counts[r], pos[r], w)

    def estimate(self, hashes: np.ndarray) -> np.ndarray:
        if len(hashes) == 0:
            return np.zeros(0, dtype=np.int64)
        pos = self._positions(hashes)
        est = self.counts[0][pos[0]]
        for r in range(1, self.depth):
            est = np.minimum(est, self.counts[r][pos[r]])
        return est.astype(np.int64)

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        assert (self.width, self.depth) == (other.width, other.depth)
        self.counts += other.counts
        return self
