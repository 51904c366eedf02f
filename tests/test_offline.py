"""Tests for offline knob filtering (Appendix A.1)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.offline import (
    filter_knob_configs,
    hill_climb,
    maxmin_select,
    pareto_front,
)
from repro.workloads import ALL_WORKLOADS, get_workload


class TestParetoFront:
    def test_basic(self):
        cost = np.array([1.0, 2.0, 3.0])
        qual = np.array([0.5, 0.4, 0.9])
        assert pareto_front(cost, qual) == [0, 2]

    def test_all_kept_when_monotone(self):
        cost = np.array([1.0, 2.0, 3.0])
        qual = np.array([0.1, 0.5, 0.9])
        assert pareto_front(cost, qual) == [0, 1, 2]

    def test_single(self):
        assert pareto_front(np.array([1.0]), np.array([0.5])) == [0]

    def test_duplicates(self):
        cost = np.array([1.0, 1.0])
        qual = np.array([0.5, 0.6])
        assert pareto_front(cost, qual) == [1]


# Small integer grids force ties in cost, in quality and in both.
_points = st.lists(
    st.tuples(st.integers(0, 6), st.integers(-6, 6)), min_size=1, max_size=25
)


@settings(max_examples=300, deadline=None)
@given(_points)
def test_pareto_front_is_brute_force_frontier(points):
    """The one frontier scan (knob filter App. A.1; placement filter
    App. A.2 with quality = -runtime): exactly the non-dominated points,
    each distinct point once (its first index), sorted by cost."""
    cost = np.array([float(c) for c, _ in points])
    qual = np.array([float(q) for _, q in points])
    distinct = set(points)
    frontier = [
        p
        for p in distinct
        if not any(
            o[0] <= p[0] and o[1] >= p[1] and o != p for o in distinct
        )
    ]
    expected = [points.index(p) for p in sorted(frontier)]
    assert pareto_front(cost, qual) == expected


class TestMaxMinSelect:
    def test_starts_at_min_norm(self):
        v = np.array([[5.0, 5.0], [0.1, 0.1], [9.0, 9.0]])
        sel = maxmin_select(v, 2)
        assert sel[0] == 1

    def test_picks_farthest_next(self):
        v = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
        sel = maxmin_select(v, 2)
        assert sel == [0, 2]

    def test_no_duplicates(self):
        rng = np.random.default_rng(0)
        v = rng.random((30, 2))
        sel = maxmin_select(v, 10)
        assert len(set(sel)) == 10

    def test_handles_n_select_larger_than_n(self):
        v = np.ones((3, 2))
        assert len(maxmin_select(v, 10)) == 3

    def test_spread_beats_random(self):
        rng = np.random.default_rng(1)
        v = rng.random((100, 2))
        sel = maxmin_select(v, 5)
        chosen = v[sel]
        d = np.linalg.norm(chosen[:, None] - chosen[None], axis=2)
        min_pair = d[np.triu_indices(5, 1)].min()
        rnd = v[rng.choice(100, 5, replace=False)]
        d2 = np.linalg.norm(rnd[:, None] - rnd[None], axis=2)
        assert min_pair >= d2[np.triu_indices(5, 1)].min() - 1e-9


class TestHillClimb:
    def test_visits_multiple_configs(self):
        wl = get_workload("covid")
        tr = wl.content(seed=0, n_days=0.1)
        visited = hill_climb(wl, tr, tr.n_segments // 2, start=wl.cheapest_config())
        assert len(visited) > 3
        assert wl.cheapest_config() in visited

    def test_configs_are_valid(self):
        wl = get_workload("mot")
        tr = wl.content(seed=0, n_days=0.1)
        all_cfg = set(wl.all_configs())
        for cfg in hill_climb(wl, tr, 100, start=wl.cheapest_config()):
            assert cfg in all_cfg


class TestFilterKnobConfigs:
    @pytest.mark.parametrize("name", ALL_WORKLOADS)
    def test_contains_extremes_and_sorted(self, name):
        wl = get_workload(name)
        tr = wl.content(seed=0, n_days=0.25)
        configs = filter_knob_configs(wl, tr, seed=0)
        works = [wl.work_per_vs(c) for c in configs]
        assert works == sorted(works)
        assert wl.cheapest_config() in configs
        assert wl.best_config() in configs
        assert 2 <= len(configs) <= 10

    def test_deterministic(self):
        wl = get_workload("covid")
        tr = wl.content(seed=0, n_days=0.25)
        a = filter_knob_configs(wl, tr, seed=3)
        b = filter_knob_configs(wl, tr, seed=3)
        assert a == b

    def test_subset_of_all_configs(self):
        wl = get_workload("covid")
        tr = wl.content(seed=0, n_days=0.1)
        assert set(filter_knob_configs(wl, tr, seed=0)) <= set(wl.all_configs())
