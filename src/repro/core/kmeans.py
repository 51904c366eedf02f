"""KMeans clustering (Lloyd's algorithm [52] with k-means++ seeding).

The paper clusters |K|-dimensional quality vectors into content
categories (Section 3.2).  scikit-learn is not available in this
environment, so we implement KMeans in numpy: seeded k-means++
initialization, Lloyd iterations to convergence, ``n_init`` restarts
keeping the lowest inertia.  Deterministic in ``seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KMeansResult:
    centers: np.ndarray  # (k, d)
    labels: np.ndarray  # (n,)
    inertia: float


def _pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(x)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:  # all points identical to chosen centers
            centers[i:] = centers[0]
            break
        probs = d2 / total
        centers[i] = x[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, ((x - centers[i]) ** 2).sum(axis=1))
    return centers


def _lloyd(
    x: np.ndarray, centers: np.ndarray, max_iter: int, tol: float
) -> KMeansResult:
    k = len(centers)
    labels = np.zeros(len(x), dtype=int)
    for _ in range(max_iter):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_centers = centers.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centers[j] = x[mask].mean(axis=0)
            # empty cluster: keep the old center (it may capture points
            # after other centers move)
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift < tol:
            break
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(len(x)), labels].sum())
    return KMeansResult(centers=centers, labels=labels, inertia=inertia)


def kmeans(
    x: np.ndarray,
    k: int,
    *,
    seed: int = 0,
    n_init: int = 8,
    max_iter: int = 200,
    tol: float = 1e-7,
) -> KMeansResult:
    """Cluster rows of ``x`` into ``k`` clusters; best of ``n_init`` runs."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("x must be 2-D (n_samples, n_features)")
    if not 1 <= k <= len(x):
        raise ValueError(f"need 1 <= k={k} <= n_samples={len(x)}")
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(n_init):
        res = _lloyd(x, _pp_init(x, k, rng), max_iter, tol)
        if best is None or res.inertia < best.inertia:
            best = res
    return best


# Rows per block in ``assign``: bounds its (rows, k, d) temporaries.
ASSIGN_BLOCK = 8192


def assign(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center labels for rows of ``x`` (full-vector classification).

    Rows are processed ``ASSIGN_BLOCK`` at a time, so the (rows, k, d)
    distance temporaries stay small however many rows there are; each
    row's distances are reduced exactly as in one pass over all rows.
    """
    labels = np.empty(len(x), dtype=np.intp)
    for lo in range(0, len(x), ASSIGN_BLOCK):
        xb = x[lo : lo + ASSIGN_BLOCK]
        d2 = ((xb[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels[lo : lo + ASSIGN_BLOCK] = d2.argmin(axis=1)
    return labels
