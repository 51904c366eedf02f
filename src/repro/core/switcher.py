"""Online knob switcher (paper Section 4.2).

Every few seconds (every segment in our reproduction) the switcher:

1. classifies the current content into a category using only the quality
   the running configuration just reported (Eq. 5 — 1-D nearest-center);
2. looks the category up in the knob plan to get the target histogram
   alpha_c;
3. picks the configuration with the largest deficit between planned and
   actually-used frequency (Eq. 6), then the cheapest task placement
   that does not overflow the buffer; if no placement of that
   configuration fits, it falls back to the next less qualitative
   configuration recursively.

The switcher is pure decision logic — feasibility of a placement
(buffer headroom, remaining cloud credits) is delegated to a caller
predicate ``feasible(k, j)`` over integer indices (configuration k, its
j-th placement in cheapest-first order) so its sub-millisecond overhead
can be benchmarked in isolation (Section 5.5), and so the same code runs
in two places:

* the ingestion simulator (``repro.sim.ingest``) passes the profiled
  Pareto placements of every configuration and a predicate that looks
  placement j's runtime and cost up in its own per-configuration rows
  and checks the buffer (Eq. 1) and the remaining cloud credits;
* the Structured-Streaming job (``repro.etl.streaming``) has no buffer
  or cloud model: it passes one all-on-premises placement per
  configuration and an always-true predicate, so every decision is the
  Eq. 6 pick without fallback.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.categories import Categories
from repro.core.placement import PlacementProfile


class KnobSwitcher:
    """Stateful reactive knob switcher for one stream."""

    def __init__(
        self,
        categories: Categories,
        quality_rank: Sequence[int],
        placements: Sequence[Sequence[PlacementProfile]],
        *,
        start_config: int = 0,
    ) -> None:
        self.categories = categories
        self.quality_rank = [int(k) for k in quality_rank]  # best first
        self.placements = [list(p) for p in placements]
        n_k = categories.n_configs
        n_c = categories.n
        self.alpha = np.full((n_k, n_c), 1.0 / n_k)  # plan (uniform until set)
        self._alpha_cols = self.alpha.T.tolist()
        # alpha-hat numerators, updated in place; ``_count_cols[c]`` is a
        # view of column c (no copy), so ``counts`` is the only state
        self.counts = np.zeros((n_k, n_c))
        self._count_cols = [memoryview(self.counts[:, c]) for c in range(n_c)]
        self.k_cur = start_config
        rank = self.quality_rank
        self._fallback = {k: rank[pos:] for pos, k in enumerate(rank)}
        self._placement_idx = [range(len(p)) for p in self.placements]

    # -- plan management -----------------------------------------------------
    def set_plan(self, alpha: np.ndarray) -> None:
        """Install a fresh knob plan and reset usage statistics."""
        if alpha.shape != self.alpha.shape:
            raise ValueError("plan shape mismatch")
        self.alpha = alpha
        self._alpha_cols = alpha.T.tolist()
        self.counts[:] = 0.0

    # -- the three steps of Section 4.2 --------------------------------------
    def classify(self, reported_quality: float) -> int:
        """Step 1: category of the current content from the reported
        quality of the *currently running* configuration (Eq. 5)."""
        return int(
            self.categories.classify_1d(self.k_cur, reported_quality)[0]
        )

    def pick_config(self, category: int) -> int:
        """Steps 2-3a: configuration with the largest planned-minus-actual
        frequency deficit for this category (Eq. 6); the first one wins
        a tie.  Reads the plan and the counts only (no side effects)."""
        alpha = self._alpha_cols[category]
        used = self._count_cols[category].tolist()
        total = sum(used)
        if total == 0:
            return alpha.index(max(alpha))
        best, best_gap = 0, alpha[0] - used[0] / total
        for k in range(1, len(alpha)):
            gap = alpha[k] - used[k] / total
            if gap > best_gap:
                best, best_gap = k, gap
        return best

    def fallback_order(self, k_desired: int) -> list[int]:
        """k_desired, then successively less qualitative configurations.

        If even the least qualitative configuration in rank order fails
        the feasibility check, there is nothing cheaper to try:
        ``choose`` forces the last entry.
        """
        return list(self._fallback[k_desired])

    def choose(
        self,
        category: int,
        feasible: Callable[[int, int], bool],
    ) -> tuple[int, int]:
        """Step 3: pick (configuration k, placement index j).

        ``feasible(k, j)`` must return whether running configuration k
        with its placement ``placements[k][j]`` keeps the buffer from
        overflowing (and any cloud-credit constraint the caller
        enforces).  Placements are scanned cheapest first (ascending j);
        configurations fall back from the desired one to less
        qualitative ones.  If nothing is feasible, the least qualitative
        configuration's fastest placement is returned (the caller's
        provisioning contract guarantees this never overflows in
        practice; the ingestion simulator records an overflow flag
        otherwise).
        """
        k_desired = self.pick_config(category)
        for k in self._fallback[k_desired]:
            for j in self._placement_idx[k]:  # ascending cloud cost
                if feasible(k, j):
                    self._record(k, category)
                    return k, j
        k_last = self.quality_rank[-1]
        last = self.placements[k_last]
        j_last = min(range(len(last)), key=lambda j: last[j].runtime_s)
        self._record(k_last, category)
        return k_last, j_last

    def _record(self, k: int, category: int) -> None:
        self._count_cols[category][k] += 1.0
        self.k_cur = k
