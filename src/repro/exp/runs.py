"""Single-experiment dispatcher: one (workload, method, hardware) run.

Every Table-2-style cell is described by a plain dict so the grid can be
shipped to Spark workers as JSON (``repro.exp.sweep``).  The offline fit
is cached per (workload, seed, train settings) within a process, so
local sweeps do not refit for every hardware point.

The cells of one Table 2 column share one workload, seed and train /
test window, and so the inputs built from them (:class:`Column`).
Inside :func:`shared_columns` consecutive cells of a column reuse one
``Column``; outside it every ``run_one`` call builds its own.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import cached_property, lru_cache

import numpy as np

from repro.baselines.chameleon import run_chameleon
from repro.baselines.optimum import run_optimum
from repro.baselines.static import run_static
from repro.baselines.videostorm import run_videostorm
from repro.core.fit import Fitted, fit_skyscraper
from repro.core.offline import filter_knob_configs
from repro.sim.cluster import make_cluster
from repro.sim.ingest import Prepared, RunResult, prepare, run_skyscraper
from repro.video.content import ContentTrace
from repro.workloads import get_workload
from repro.workloads.base import Config, Workload

# Daily cloud-credit budget per provisioned vCPU (USD/day/vCPU); the
# planner decides how much of it is actually worth spending.
CLOUD_BUDGET_PER_VCPU_DAY = 0.1


class Column:
    """The inputs of one Table 2 column: everything that depends only on
    (workload, seed, train_days, test_days), built on first use.

    Several cells read these, so the traces' arrays are read-only, as
    are ``prepare``'s.
    """

    def __init__(
        self, wl: Workload, seed: int, train_days: float, test_days: float
    ) -> None:
        self.wl, self.seed = wl, seed
        self.train_days, self.test_days = train_days, test_days
        self._prep: Prepared | None = None
        self._mean_q: dict[Config, float] = {}

    def _generate(self, n_days: float, start_day: float) -> ContentTrace:
        trace = self.wl.content(
            seed=self.seed, n_days=n_days, start_day=start_day
        )
        trace.difficulty.flags.writeable = False
        trace.work_multiplier.flags.writeable = False
        return trace

    @cached_property
    def train(self) -> ContentTrace:
        return self._generate(self.train_days, 0.0)

    @cached_property
    def test(self) -> ContentTrace:
        return self._generate(self.test_days, self.train_days)

    @cached_property
    def configs(self) -> list[Config]:
        """The filtered configurations (App. A.1) of the train trace."""
        return filter_knob_configs(self.wl, self.train, seed=self.seed)

    def mean_quality(self, configs: list[Config]) -> np.ndarray:
        """``Workload.mean_quality(configs, train)``, each configuration
        computed at most once per column (Static and VideoStorm* rank
        configurations by it).

        A configuration not yet computed brings in every configuration
        with its capability vector, so ``soft_quality`` runs once per
        capability, and only for capabilities some cell asked for.
        """
        wl, memo = self.wl, self._mean_q
        caps = {wl.capability(c).tobytes() for c in configs if c not in memo}
        if caps:
            todo = [
                c for c in wl.all_configs()
                if wl.capability(c).tobytes() in caps
            ]
            memo.update(zip(todo, wl.mean_quality(todo, self.train).tolist()))
        return np.array([memo[c] for c in configs])

    def prepared(self, configs: list[Config]) -> Prepared:
        """``prepare`` of ``configs`` on the test trace, seeded with the
        column's seed; the last one built is kept."""
        if self._prep is None or self._prep.configs != configs:
            self._prep = prepare(self.wl, configs, self.test, seed=self.seed)
        return self._prep


# The column held by the innermost shared_columns() block, keyed by
# (workload, seed, train_days, test_days); None outside any block.
_held: ContextVar[dict | None] = ContextVar("held_column", default=None)


@contextmanager
def shared_columns():
    """Let the ``run_one`` calls inside this block share their column.

    At most one column is held: a cell of another column replaces it.
    Nothing is held once the block exits.
    """
    token = _held.set({})
    try:
        yield
    finally:
        _held.reset(token)


def _column(
    workload: str, seed: int, train_days: float, test_days: float
) -> Column:
    held = _held.get()
    key = (workload, seed, train_days, test_days)
    if held is None:
        return Column(get_workload(workload), seed, train_days, test_days)
    if key not in held:
        held.clear()  # drop the old column before building the new one
        held[key] = Column(get_workload(workload), seed, train_days, test_days)
    return held[key]


@lru_cache(maxsize=16)
def cached_fit(
    workload: str,
    seed: int,
    train_days: float,
    n_categories: int | None,
    plan_days: float = 2.0,
    in_days: float = 2.0,
) -> Fitted:
    wl = get_workload(workload)
    # reuse the held column's train trace when it is this fit's
    trace = next(
        (
            col.train
            for key, col in (_held.get() or {}).items()
            if key[:3] == (workload, seed, train_days)
        ),
        None,
    )
    return fit_skyscraper(
        wl,
        seed=seed,
        train_days=train_days,
        n_categories=n_categories,
        plan_days=plan_days,
        in_days=in_days,
        trace=trace,
    )


def run_one(params: dict) -> dict:
    """Run one experiment cell and return a flat result row."""
    workload = params["workload"]
    method = params["method"]
    vcpus = int(params["vcpus"])
    seed = int(params.get("seed", 0))
    wl = get_workload(workload)
    train_days = float(params.get("train_days", wl.train_days))
    test_days = float(params.get("test_days", wl.test_days))
    n_categories = params.get("n_categories")
    cloud_budget = float(
        params.get(
            "cloud_budget_usd_per_day", CLOUD_BUDGET_PER_VCPU_DAY * vcpus
        )
    )

    cluster = make_cluster(vcpus)
    col = _column(workload, seed, train_days, test_days)
    test = col.test
    # the planning horizon must be learnable from the training window
    # (the paper: 16 train days for a 2-day horizon, a 8:1 ratio)
    plan_days = float(params.get("plan_days", min(2.0, train_days / 8.0)))
    in_days = float(params.get("in_days", plan_days))

    if method == "skyscraper":
        fitted = cached_fit(
            workload, seed, train_days, n_categories, plan_days, in_days
        )
        res: RunResult = run_skyscraper(
            wl,
            fitted,
            cluster,
            test,
            cloud_budget_usd_per_day=cloud_budget,
            seed=seed,
            enable_cloud=bool(params.get("enable_cloud", True)),
            enable_buffer=bool(params.get("enable_buffer", True)),
            classify_mode=params.get("classify_mode", "standard"),
            ground_truth_forecast=bool(
                params.get("ground_truth_forecast", False)
            ),
            prep=col.prepared(fitted.configs),
        )
    elif method == "static":
        res = run_static(
            wl, cluster, test, col.train, seed=seed,
            mean_quality=col.mean_quality,
        )
    elif method == "chameleon":
        res = run_chameleon(
            wl, cluster, test, col.train, seed=seed, configs=col.configs,
            prep=col.prepared(col.configs),
        )
    elif method == "videostorm":
        res = run_videostorm(
            wl, cluster, test, col.train, seed=seed, configs=col.configs,
            prep=col.prepared(col.configs), mean_quality=col.mean_quality,
        )
    elif method == "optimum":
        fitted = cached_fit(
            workload, seed, train_days, n_categories, plan_days, in_days
        )
        res = run_optimum(
            wl,
            cluster,
            test,
            fitted.configs,
            budget_core_s=params.get("budget_core_s"),
            seed=seed,
            prep=col.prepared(fitted.configs),
        )
    else:
        raise ValueError(f"unknown method {method!r}")

    row = res.to_row()
    row.update(
        {
            k: params[k]
            for k in ("classify_mode", "ground_truth_forecast")
            if k in params
        }
    )
    row["cloud_budget_usd_per_day"] = cloud_budget
    row["n_categories"] = n_categories
    row["seed"] = seed
    return row
