"""KLL quantile sketch (Karnin–Lang–Liberty 2016, public knowledge).

Bounded-memory rank/quantile estimation for CONTINUOUS values — the
companion to the exact value-histogram percentiles in
``text_analysis.q_doc_length_quantiles``, which are exact only because
integer lengths have bounded distinct counts.  For float columns (e.g.
``events.value``) the distinct count ∝ rows, so at 10^12 rows an exact
histogram is corpus-sized while a KLL sketch stays a few KB.

Structure: a stack of compactors; items at level i carry weight 2^i.
When a level overflows its capacity (k shrinking geometrically with
distance from the top level, floor 2), it sorts and keeps every other
item (alternating offset), pushing the survivors one level up.  Sketches
MERGE by concatenating level-wise and re-compacting: each batch builds a
sketch per group in a worker and ``ops.agg.grouped_sketch`` merges them
on the driver, block by block in ``ops.agg.gather``'s order — the same
fold the Bloom/CMS/HLL sketches here use.

Rank error: |est_rank - true_rank| <= eps * n with eps ~ 1.7/k at the
default c = 2/3 capacity decay (single-digit-per-mille at k = 400).
Compaction offsets alternate deterministically per compactor, so a fixed
feed order (the fold's block order) gives identical output; across
partition orders the estimate moves within the error bound (pinned by
tests against exact ranks).
"""

from __future__ import annotations

import numpy as np

_C = 2.0 / 3.0  # capacity decay per level below the top


class KLLSketch:
    def __init__(self, k: int = 400):
        self.k = k
        self.levels: list[np.ndarray] = [np.empty(0, dtype=np.float64)]
        self.n = 0
        self._odd: list[bool] = [False]  # alternating compaction offsets
        # exact stream extremes (standard KLL practice — compaction offers
        # no transitive guarantee for the tails): quantile(0)/quantile(1)
        # return these exactly
        self.min = float("inf")
        self.max = float("-inf")

    # -- capacity ---------------------------------------------------------
    def _capacity(self, level: int) -> int:
        height = len(self.levels) - 1 - level  # distance from top level
        return max(2, int(np.ceil(self.k * (_C ** height))))

    # -- ingest -----------------------------------------------------------
    def add_batch(self, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return
        self.n += int(v.size)
        self.min = min(self.min, float(v.min()))
        self.max = max(self.max, float(v.max()))
        self.levels[0] = np.concatenate([self.levels[0], v])
        self._compress()

    def _compress(self) -> None:
        i = 0
        while i < len(self.levels):
            if self.levels[i].size <= self._capacity(i):
                i += 1
                continue
            buf = np.sort(self.levels[i])
            if buf.size % 2 == 1:
                # hold one item back so pairs halve exactly — the extreme
                # on the side the offset is about to DROP (start=1 drops
                # even indices incl. the min; start=0 drops the max), so
                # odd-size compactions never lose a tail extreme
                if self._odd[i]:
                    keep, buf = buf[:1], buf[1:]
                else:
                    keep, buf = buf[-1:], buf[:-1]
            else:
                keep = np.empty(0, dtype=np.float64)
            start = 1 if self._odd[i] else 0
            self._odd[i] = not self._odd[i]
            promoted = buf[start::2]
            self.levels[i] = keep
            if i + 1 == len(self.levels):
                self.levels.append(np.empty(0, dtype=np.float64))
                self._odd.append(False)
            self.levels[i + 1] = np.concatenate(
                [self.levels[i + 1], promoted])
            i += 1

    # -- merge (the scale property) --------------------------------------
    def merge(self, other: "KLLSketch") -> "KLLSketch":
        while len(self.levels) < len(other.levels):
            self.levels.append(np.empty(0, dtype=np.float64))
            self._odd.append(False)
        for i, buf in enumerate(other.levels):
            if buf.size:
                self.levels[i] = np.concatenate([self.levels[i], buf])
        self.n += other.n
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._compress()
        return self

    # -- queries ----------------------------------------------------------
    def _weighted_items(self) -> tuple[np.ndarray, np.ndarray]:
        vals, wts = [], []
        for i, buf in enumerate(self.levels):
            if buf.size:
                vals.append(buf)
                wts.append(np.full(buf.size, 1 << i, dtype=np.int64))
        if not vals:
            return (np.empty(0, np.float64), np.empty(0, np.int64))
        v = np.concatenate(vals)
        w = np.concatenate(wts)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def quantile(self, q: float) -> float:
        return self.quantiles([q])[0]

    def quantiles(self, qs: list[float]) -> list[float]:
        # one concatenate/sort/cumsum for ALL requested quantiles
        v, w = self._weighted_items()
        if v.size == 0:
            return [float("nan")] * len(qs)
        cum = np.cumsum(w)
        out = []
        for q in qs:
            if q <= 0.0:
                out.append(self.min)
                continue
            if q >= 1.0:
                out.append(self.max)
                continue
            idx = int(np.searchsorted(cum, q * cum[-1], side="left"))
            out.append(float(v[min(idx, v.size - 1)]))
        return out
