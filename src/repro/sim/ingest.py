"""Online ingestion simulator (paper Section 4 + Appendix M).

Simulates live ingestion of a content trace on a provisioned cluster:
segments arrive in real time, the chosen knob configuration + task
placement determines each segment's processing time (via the Appendix-M
DAG simulator), lagging video accumulates in the fixed-size buffer, and
cloud placements consume cloud credits.  This is the harness behind
Table 2, the ablation variants of Section 5.4, and the microbenchmarks
of Section 5.6.

The simulator enforces the V-ETL contract of Eq. 1: the knob switcher
never admits a placement whose predicted completion would push the
buffered (arrived-but-unprocessed) bytes beyond the buffer size, falling
back to cheaper configurations instead.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.fit import Fitted
from repro.core.offline import pareto_front
from repro.core.planner import make_plan
from repro.core.switcher import KnobSwitcher
from repro.core.placement import PlacementProfile, enumerate_placements
from repro.sim.cluster import Cluster
from repro.sim.dagsim import simulate_placement
from repro.video.content import ContentTrace
from repro.workloads.base import Config, Workload


@dataclass
class RunResult:
    """Outcome of one simulated ingestion run."""

    workload: str
    method: str
    vcpus: int
    duration_days: float
    quality_pct: float  # % of the best-configuration quality ceiling
    quality_sum: float
    quality_best_sum: float
    onprem_usd: float
    cloud_usd: float
    total_usd: float
    cloud_core_s: float
    work_core_s: float  # total compute performed (on-prem + cloud)
    buffer_peak_bytes: float
    overflow: bool  # buffer constraint violated at least once
    n_switches: int
    switch_accuracy: float = float("nan")
    switch_accuracy_no_typeb: float = float("nan")
    extras: dict = field(default_factory=dict)

    def to_row(self) -> dict:
        row = {
            k: v
            for k, v in self.__dict__.items()
            if k != "extras" and not isinstance(v, dict)
        }
        return row


# ---------------------------------------------------------------------------
# placement tables: per-configuration runtime/cost over the multiplier grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlacementTable:
    """Profiled placements of one configuration over all multipliers.

    ``runtime[p, g]`` / ``cloud_usd[p, g]`` give placement p's segment
    runtime and cloud cost at multiplier grid value g.  Placements are
    sorted by ascending cloud cost at multiplier 1 (the switcher's
    "cheapest first" scan order).
    """

    placements: tuple[tuple[bool, ...], ...]
    runtime: np.ndarray  # (P, G)
    cloud_usd: np.ndarray  # (P, G)
    profiles: tuple[PlacementProfile, ...]  # at multiplier 1


def build_placement_tables(
    wl: Workload,
    configs: list[Config],
    cluster: Cluster,
    mult_grid: np.ndarray,
    *,
    enable_cloud: bool = True,
) -> list[PlacementTable]:
    """Profile every configuration's placements over the multiplier grid.

    The Pareto filter (Appendix A.2) is applied as the union of the
    (cost, runtime) frontiers at the smallest, median, and largest
    multiplier — cloud latency does not scale with the multiplier, so a
    placement dominated for one stream may dominate for sixty.
    """
    tables = []
    probe = sorted(
        {
            float(mult_grid[0]),
            float(np.median(mult_grid)),
            float(mult_grid[-1]),
        }
    )
    for cfg in configs:
        graph = wl.task_graph(cfg)
        all_p = enumerate_placements(graph)
        if not enable_cloud:
            all_p = [p for p in all_p if not any(p)]
        keep: set[int] = set()
        for m in probe:
            res = [
                simulate_placement(graph, p, cluster, mult=m) for p in all_p
            ]
            keep.update(
                pareto_front(
                    np.array([r.cloud_core_s for r in res]),
                    -np.array([r.runtime_s for r in res]),
                )
            )
        kept = sorted(keep)
        runtime = np.empty((len(kept), len(mult_grid)))
        cloud_usd = np.empty_like(runtime)
        for gi, m in enumerate(mult_grid):
            for pi, j in enumerate(kept):
                r = simulate_placement(graph, all_p[j], cluster, mult=float(m))
                runtime[pi, gi] = r.runtime_s
                cloud_usd[pi, gi] = (
                    r.cloud_core_s * cluster.cloud_usd_per_core_s
                )
        # sort by cloud cost at the smallest multiplier
        order = np.argsort(cloud_usd[:, 0], kind="stable")
        profiles = tuple(
            PlacementProfile(
                cloud=all_p[kept[j]],
                runtime_s=float(runtime[j, 0]),
                cloud_core_s=float(
                    cloud_usd[j, 0] / cluster.cloud_usd_per_core_s
                ),
                cloud_usd=float(cloud_usd[j, 0]),
            )
            for j in order
        )
        tables.append(
            PlacementTable(
                placements=tuple(all_p[kept[j]] for j in order),
                runtime=runtime[order],
                cloud_usd=cloud_usd[order],
                profiles=profiles,
            )
        )
    return tables


def multiplier_grid(trace: ContentTrace) -> tuple[np.ndarray, np.ndarray]:
    """Unique rounded multipliers and each segment's grid index."""
    rounded = np.round(trace.work_multiplier).astype(int)
    rounded = np.clip(rounded, 1, None)
    grid, inverse = np.unique(rounded, return_inverse=True)
    return grid.astype(float), inverse


# ---------------------------------------------------------------------------
# arrival / buffer accounting
# ---------------------------------------------------------------------------


class SegmentQueue:
    """Real-time arrival queue with a byte buffer (Eq. 1 bookkeeping).

    Segment i is fully captured at (i+1)*seg_len; processing is
    sequential.  The buffered bytes after finishing segment i equal the
    total size of segments captured by then but not yet processed.
    All per-segment arithmetic is on Python floats: the prefix sums of
    the segment sizes are read through a memoryview.
    """

    def __init__(
        self, seg_len: float, seg_bytes: np.ndarray, buffer_bytes: float
    ) -> None:
        self.seg_len = float(seg_len)
        self.n = len(seg_bytes)
        self.cum = memoryview(
            np.concatenate([[0.0], np.cumsum(seg_bytes)])
        )
        self.buffer_bytes = float(buffer_bytes)
        self.ready = 0.0
        self.peak = 0.0
        self.overflowed = False

    def _finish_backlog(self, i: int, runtime: float) -> tuple[float, float]:
        """Completion time of segment i and the bytes buffered then."""
        # segment i starts once it is captured and its predecessor is done
        finish = (i + 1) * self.seg_len
        if self.ready > finish:
            finish = self.ready
        finish += runtime
        # finish > 0, so int() truncation is the floor
        captured = int(finish / self.seg_len)
        if captured > self.n:
            captured = self.n
        if captured <= i + 1:
            return finish, 0.0
        return finish, self.cum[captured] - self.cum[i + 1]

    def would_overflow(
        self, i: int, runtime: float, headroom: float = 1.0
    ) -> bool:
        """Would processing segment i with ``runtime`` push the buffer
        past ``headroom`` x its capacity?  The knob switcher admits
        expensive placements only below a safety fraction of the buffer
        (workload spikes arriving while the buffer is full would violate
        Eq. 1 before the switcher can react)."""
        return (
            self._finish_backlog(i, runtime)[1] > headroom * self.buffer_bytes
        )

    def step(self, i: int, runtime: float) -> float:
        """Process segment i; returns its completion wall-clock time."""
        finish, backlog = self._finish_backlog(i, runtime)
        if backlog > self.buffer_bytes + 1e-6:
            self.overflowed = True
        if backlog > self.peak:
            self.peak = backlog
        self.ready = finish
        return finish


# ---------------------------------------------------------------------------
# shared precomputation
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    """Per-run precomputation shared by Skyscraper and the baselines.

    Its arrays are read-only: one ``Prepared`` may serve several runs.
    """

    wl: Workload
    trace: ContentTrace
    configs: list[Config]
    work: np.ndarray  # (K,)
    qual_true: np.ndarray  # (K, n) noiseless
    qual_obs: np.ndarray  # (K, n) reported
    qual_best: np.ndarray  # (n,) ceiling from the most qualitative config
    seg_bytes: np.ndarray  # (n,)
    mult_grid: np.ndarray
    mult_idx: np.ndarray  # (n,) index into mult_grid
    gt_labels: np.ndarray | None = None  # (n,) ground-truth categories

    def with_ground_truth(self, categories) -> "Prepared":
        """A copy that also holds each segment's ground-truth category:
        the full-vector classification of its noiseless qualities."""
        gt = categories.classify_full(self.qual_true.T)
        gt.flags.writeable = False
        return replace(self, gt_labels=gt)


def prepare(
    wl: Workload,
    configs: list[Config],
    trace: ContentTrace,
    *,
    seed: int,
) -> Prepared:
    """Quality matrices, segment sizes and the multiplier grid of
    ``configs`` on ``trace`` (ground-truth labels, which depend on fitted
    categories, come from :meth:`Prepared.with_ground_truth`)."""
    qual_true = np.stack([wl.quality_curve(c, trace) for c in configs])
    qual_obs = np.stack(
        [wl.observed_quality_curve(c, trace, seed=seed) for c in configs]
    )
    qual_best = wl.quality_curve(wl.best_config(), trace)
    seg_bytes = (
        wl.bitrate_bytes_per_s * wl.seg_len * trace.work_multiplier
        if wl.quality_weight_by_multiplier
        else np.full(
            trace.n_segments, wl.bitrate_bytes_per_s * wl.seg_len
        )
    )
    grid, idx = multiplier_grid(trace)
    work = np.array([wl.work_per_vs(c) for c in configs])
    for a in (work, qual_true, qual_obs, qual_best, seg_bytes, grid, idx):
        a.flags.writeable = False
    return Prepared(
        wl=wl,
        trace=trace,
        configs=configs,
        work=work,
        qual_true=qual_true,
        qual_obs=qual_obs,
        qual_best=qual_best,
        seg_bytes=seg_bytes,
        mult_grid=grid,
        mult_idx=idx,
    )


def finalize(
    prep: Prepared,
    cluster: Cluster,
    *,
    method: str,
    chosen_k: np.ndarray,
    queue: SegmentQueue,
    cloud_usd: float,
    cloud_core_s: float,
    est_labels: np.ndarray | None = None,
    est_labels_no_typeb: np.ndarray | None = None,
    extras: dict | None = None,
) -> RunResult:
    wl, trace = prep.wl, prep.trace
    n = trace.n_segments
    idx = np.arange(n)
    q_sum = float(prep.qual_true[chosen_k, idx].sum())
    q_best = float(prep.qual_best.sum())
    duration_s = n * wl.seg_len
    onprem_usd = cluster.onprem_cost(duration_s)
    work = float(
        (prep.work[chosen_k] * wl.seg_len * trace.work_multiplier).sum()
    )
    acc = acc_nb = float("nan")
    if prep.gt_labels is not None and est_labels is not None:
        acc = float((est_labels == prep.gt_labels).mean())
        if est_labels_no_typeb is not None:
            acc_nb = float(
                (est_labels_no_typeb == prep.gt_labels).mean()
            )
    return RunResult(
        workload=wl.name,
        method=method,
        vcpus=cluster.n_cores,
        duration_days=duration_s / 86400.0,
        quality_pct=100.0 * q_sum / q_best if q_best > 0 else 0.0,
        quality_sum=q_sum,
        quality_best_sum=q_best,
        onprem_usd=onprem_usd,
        cloud_usd=cloud_usd,
        total_usd=onprem_usd + cloud_usd,
        cloud_core_s=cloud_core_s,
        work_core_s=work,
        buffer_peak_bytes=queue.peak,
        overflow=queue.overflowed,
        n_switches=int((np.diff(chosen_k) != 0).sum()),
        switch_accuracy=acc,
        switch_accuracy_no_typeb=acc_nb,
        extras=extras or {},
    )


# ---------------------------------------------------------------------------
# Skyscraper online phase
# ---------------------------------------------------------------------------


CLASSIFY_MODES = ("standard", "no_typeb", "ground_truth")


def run_skyscraper(
    wl: Workload,
    fitted: Fitted,
    cluster: Cluster,
    trace: ContentTrace,
    *,
    cloud_budget_usd_per_day: float = 0.5,
    seed: int = 0,
    plan_days: float | None = None,
    enable_cloud: bool = True,
    enable_buffer: bool = True,
    classify_mode: str = "standard",
    ground_truth_forecast: bool = False,
    buffer_headroom: float = 0.9,
    method: str = "skyscraper",
    prep: Prepared | None = None,
) -> RunResult:
    """Simulate Skyscraper's online phase over ``trace``.

    ``classify_mode``: 'standard' (Eq. 5 on the previous segment's
    reported quality), 'no_typeb' (uses the current segment — removes
    the timing mismatch, Section 5.6), or 'ground_truth'.
    ``ground_truth_forecast`` replaces the forecasting model's output
    with the realized category distribution of the upcoming interval
    (Section 5.6, Figure 14's "ground truth" baseline).
    ``enable_cloud`` / ``enable_buffer`` implement the Section 5.4
    ablations.  ``prep`` is ``prepare(wl, fitted.configs, trace,
    seed=seed)`` when the caller already has it; the ground-truth labels,
    which depend on the fitted categories, are added here.
    """
    if classify_mode not in CLASSIFY_MODES:
        raise ValueError(
            f"unknown classify_mode {classify_mode!r}; "
            f"expected one of {CLASSIFY_MODES}"
        )
    if plan_days is None:
        plan_days = fitted.spec.out_days
    if prep is None:
        prep = prepare(wl, fitted.configs, trace, seed=seed)
    prep = prep.with_ground_truth(fitted.categories)
    tables = build_placement_tables(
        wl, fitted.configs, cluster, prep.mult_grid, enable_cloud=enable_cloud
    )
    n = trace.n_segments
    seg_len = wl.seg_len
    buffer_bytes = cluster.buffer_bytes if enable_buffer else 0.0
    queue = SegmentQueue(seg_len, prep.seg_bytes, buffer_bytes)

    switcher = KnobSwitcher(
        fitted.categories,
        fitted.quality_rank,
        [t.profiles for t in tables],
        start_config=fitted.k_minus_idx,
    )

    plan_interval_segments = max(1, int(round(plan_days * 86400.0 / seg_len)))
    bin_segments = max(1, int(round(fitted.spec.bin_s / seg_len)))
    horizon = int(round(fitted.spec.in_bins * 4))  # bounded label history
    n_cat = fitted.categories.n

    chosen = np.empty(n, dtype=int)
    est_labels = np.empty(n, dtype=int)
    est_labels_nb = np.empty(n, dtype=int)
    cloud_usd_total = 0.0
    cloud_core_s_total = 0.0
    cloud_allow = 0.0
    plan_spend_breakdown: list[float] = []

    # rolling label history for online forecasting features
    label_bins: list[np.ndarray] = []
    cur_bin = [0.0] * n_cat

    mult = trace.work_multiplier
    # Eq. 5 for every (configuration, segment): labels[k][i] is the
    # category segment i's reported quality under configuration k maps to
    labels = memoryview(fitted.categories.label_table(prep.qual_obs))
    gt = prep.gt_labels.tolist() if classify_mode == "ground_truth" else None
    # per-configuration placement rows, indexed [k][gi][j]
    table_rt = [t.runtime.T.tolist() for t in tables]
    table_cost = [t.cloud_usd.T.tolist() for t in tables]
    usd_per_core_s = cluster.cloud_usd_per_core_s
    would_overflow = queue.would_overflow
    k_cur = fitted.k_minus_idx

    def feasible(k: int, j: int) -> bool:
        if table_cost[k][gi][j] > cloud_allow + 1e-12:
            return False
        return not would_overflow(
            i, table_rt[k][gi][j], headroom=buffer_headroom
        )

    for i, gi in enumerate(memoryview(prep.mult_idx)):
        if i % plan_interval_segments == 0:
            interval_s = min(plan_interval_segments, n - i) * seg_len
            cloud_allow += cloud_budget_usd_per_day * interval_s / 86400.0
            if not enable_cloud:
                cloud_allow = 0.0
            if ground_truth_forecast and prep.gt_labels is not None:
                upcoming = prep.gt_labels[i : i + plan_interval_segments]
                ratios = np.bincount(upcoming, minlength=n_cat).astype(float)
                ratios /= ratios.sum()
            else:
                ratios = None
            hists = (
                np.vstack(label_bins)
                if label_bins
                else fitted.train_hists
            )
            recent_mult = (
                float(mult[max(0, i - plan_interval_segments) : i + 1].mean())
                if i > 0
                else fitted.mean_mult
            )
            plan = make_plan(
                fitted,
                hists,
                cluster,
                interval_s=interval_s,
                cloud_budget_usd=cloud_allow if enable_cloud else 0.0,
                mean_mult=recent_mult,
                ratios=ratios,
            )
            switcher.set_plan(plan.alpha)
            plan_spend_breakdown.append(cloud_usd_total)

        # step 1: classify the current content (Eq. 5) under the running
        # configuration; 'standard' sees the previous segment's quality
        c_nb = labels[k_cur, i]
        if classify_mode == "standard":
            c = labels[k_cur, i - 1] if i else c_nb
        elif classify_mode == "no_typeb":
            c = c_nb
        else:
            c = gt[i]
        est_labels[i] = c
        est_labels_nb[i] = c_nb

        k_cur, j = switcher.choose(c, feasible)
        cost = table_cost[k_cur][gi][j]
        queue.step(i, table_rt[k_cur][gi][j])
        cloud_usd_total += cost
        cloud_allow = max(0.0, cloud_allow - cost)
        cloud_core_s_total += cost / usd_per_core_s
        chosen[i] = k_cur

        # bookkeeping for the forecaster's online features
        cur_bin[c] += 1.0
        if (i + 1) % bin_segments == 0:
            b = np.array(cur_bin)
            total = b.sum()
            label_bins.append(b / total if total else b)
            cur_bin = [0.0] * n_cat
            if len(label_bins) > horizon:
                del label_bins[: len(label_bins) - horizon]

    return finalize(
        prep,
        cluster,
        method=method,
        chosen_k=chosen,
        queue=queue,
        cloud_usd=cloud_usd_total,
        cloud_core_s=cloud_core_s_total,
        est_labels=est_labels,
        est_labels_no_typeb=est_labels_nb,
        extras={"plan_spend": plan_spend_breakdown},
    )
