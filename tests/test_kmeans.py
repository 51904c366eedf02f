"""Tests for the numpy KMeans implementation."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kmeans import KMeansResult, assign, kmeans


def blobs(seed=0, k=3, n=200, d=2, spread=0.05):
    rng = np.random.default_rng(seed)
    centers = rng.random((k, d)) * 10
    x = np.vstack(
        [c + rng.normal(0, spread, (n, d)) for c in centers]
    )
    labels = np.repeat(np.arange(k), n)
    return x, centers, labels


class TestKMeans:
    def test_recovers_well_separated_blobs(self):
        x, true_centers, true_labels = blobs(seed=1)
        res = kmeans(x, 3, seed=0)
        # every found center is close to a true center
        for c in res.centers:
            assert np.linalg.norm(true_centers - c, axis=1).min() < 0.2

    def test_labels_partition_points(self):
        x, _, _ = blobs(seed=2)
        res = kmeans(x, 3, seed=0)
        assert res.labels.shape == (len(x),)
        assert set(res.labels) <= {0, 1, 2}

    def test_deterministic(self):
        x, _, _ = blobs(seed=3)
        a = kmeans(x, 3, seed=7)
        b = kmeans(x, 3, seed=7)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_inertia_decreases_with_k(self):
        x, _, _ = blobs(seed=4, k=4)
        inertias = [kmeans(x, k, seed=0).inertia for k in (1, 2, 4, 8)]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))

    def test_k_equals_one_gives_mean(self):
        x, _, _ = blobs(seed=5)
        res = kmeans(x, 1, seed=0)
        np.testing.assert_allclose(res.centers[0], x.mean(axis=0))

    def test_k_equals_n(self):
        x = np.random.default_rng(0).random((5, 2))
        res = kmeans(x, 5, seed=0)
        assert res.inertia == pytest.approx(0.0, abs=1e-12)

    def test_identical_points(self):
        x = np.ones((50, 3))
        res = kmeans(x, 3, seed=0)
        assert res.inertia == pytest.approx(0.0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kmeans(np.ones(5), 2)
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 5)
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 0)

    def test_assign_matches_fit_labels(self):
        x, _, _ = blobs(seed=6)
        res = kmeans(x, 3, seed=0)
        np.testing.assert_array_equal(assign(x, res.centers), res.labels)

    def test_assign_blocks_match_one_shot(self):
        """Chunked ``assign`` equals one (n, k, d) pass, exact ties on
        both sides of a block boundary included (lowest index wins)."""
        from repro.core.kmeans import ASSIGN_BLOCK

        centers = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        x = np.random.default_rng(0).normal(size=(2 * ASSIGN_BLOCK + 5, 2))
        tie = slice(ASSIGN_BLOCK - 3, ASSIGN_BLOCK + 3)
        x[tie] = [1.0, 0.5]  # 1.25 from centers 0 and 1
        want = ((x[:, None, :] - centers[None]) ** 2).sum(axis=2).argmin(1)
        np.testing.assert_array_equal(assign(x, centers), want)
        assert (want[tie] == 0).all()

    def test_result_type(self):
        x, _, _ = blobs(seed=7)
        assert isinstance(kmeans(x, 2, seed=0), KMeansResult)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=1000),
    )
    def test_inertia_is_local_optimum_vs_random_centers(self, k, seed):
        """KMeans inertia must beat random center placement."""
        rng = np.random.default_rng(seed)
        x = rng.random((40, 3))
        res = kmeans(x, k, seed=0)
        rnd = x[rng.choice(len(x), k, replace=False)]
        d2 = ((x[:, None, :] - rnd[None]) ** 2).sum(axis=2).min(axis=1)
        assert res.inertia <= d2.sum() + 1e-9
