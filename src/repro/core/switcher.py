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
predicate so its sub-millisecond overhead can be benchmarked in
isolation (Section 5.5), and so the same code runs in two places:

* the ingestion simulator (``repro.sim.ingest``) passes the profiled
  Pareto placements of every configuration and a predicate that checks
  the buffer (Eq. 1) and the remaining cloud credits;
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
        self.quality_rank = list(quality_rank)  # best quality first
        self.placements = [list(p) for p in placements]
        n_k = categories.n_configs
        n_c = categories.n
        self.alpha = np.full((n_k, n_c), 1.0 / n_k)  # plan (uniform until set)
        self.counts = np.zeros((n_k, n_c))  # alpha-hat numerators
        self.k_cur = start_config

    # -- plan management -----------------------------------------------------
    def set_plan(self, alpha: np.ndarray) -> None:
        """Install a fresh knob plan and reset usage statistics."""
        if alpha.shape != self.alpha.shape:
            raise ValueError("plan shape mismatch")
        self.alpha = alpha
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
        frequency deficit for this category (Eq. 6)."""
        total = self.counts[:, category].sum()
        alpha_hat = (
            self.counts[:, category] / total
            if total > 0
            else np.zeros(len(self.counts))
        )
        return int(np.argmax(self.alpha[:, category] - alpha_hat))

    def fallback_order(self, k_desired: int) -> list[int]:
        """k_desired, then successively less qualitative configurations."""
        pos = self.quality_rank.index(k_desired)
        order = self.quality_rank[pos:]
        # Safety net: if even the least qualitative configuration in rank
        # order fails the caller's feasibility check, there is nothing
        # cheaper to try — callers force the last entry.
        return order

    def choose(
        self,
        category: int,
        feasible: Callable[[int, PlacementProfile], bool],
    ) -> tuple[int, PlacementProfile]:
        """Step 3: pick (configuration, placement).

        ``feasible(k_idx, placement)`` must return whether using this
        placement keeps the buffer from overflowing (and any cloud-credit
        constraint the caller enforces).  Placements are scanned cheapest
        first; configurations fall back from the desired one to less
        qualitative ones.  If nothing is feasible, the least qualitative
        configuration's fastest placement is returned (the caller's
        provisioning contract guarantees this never overflows in
        practice; the ingestion simulator records an overflow flag
        otherwise).
        """
        k_desired = self.pick_config(category)
        for k in self.fallback_order(k_desired):
            for p in self.placements[k]:  # sorted by ascending cloud cost
                if feasible(k, p):
                    self._record(k, category)
                    return k, p
        k_last = self.quality_rank[-1]
        p_last = min(self.placements[k_last], key=lambda p: p.runtime_s)
        self._record(k_last, category)
        return k_last, p_last

    def _record(self, k: int, category: int) -> None:
        self.counts[k, category] += 1.0
        self.k_cur = k
