"""``repro.serve.loadgen`` — deterministic Zipf-distributed request streams.

Real user traffic is heavily skewed: a small hot head of popular requests
dominates.  :class:`ZipfWorkload` models that as a fixed pool of unique
inputs with Zipf(``alpha``) popularity weights and hands out deterministic,
seeded index streams — the shape of traffic where a deterministic response
cache pays off (the hot head hits, the long tail fills).  The perfbench
``pool_zipf`` workload and the benches' load drivers
(``benchmarks/harness.py``) draw their requests from it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ZipfWorkload"]


class ZipfWorkload:
    """A pool of unique inputs with Zipf-distributed popularity.

    ``weights[r] ∝ (r + 1) ** -alpha`` over popularity ranks ``r``; streams
    of item indices are drawn from a seeded generator so every run of a
    bench or chaos test replays the identical request sequence.
    """

    def __init__(self, items: np.ndarray, *, alpha: float = 1.1,
                 seed: int = 0):
        if len(items) < 1:
            raise ValueError("ZipfWorkload needs at least one item")
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.items = items
        self.alpha = float(alpha)
        self.seed = int(seed)
        ranks = np.arange(1, len(items) + 1, dtype=np.float64)
        weights = ranks ** -self.alpha
        self.weights = weights / weights.sum()

    def indices(self, count: int, *, stream: int = 0) -> np.ndarray:
        """``count`` item indices for an independent, reproducible stream."""
        rng = np.random.default_rng((self.seed, stream))
        return rng.choice(len(self.items), size=count, p=self.weights)

    def expected_hit_rate(self, requests: int) -> float:
        """Ideal steady-state hit rate: every item past its first request
        hits, so with U distinct items drawn the rate is ``1 - U/n``."""
        if requests <= 0:
            return 0.0
        drawn = self.indices(requests, stream=0)
        return 1.0 - len(np.unique(drawn)) / requests
