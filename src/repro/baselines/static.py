"""Static baseline (paper Section 5.3).

Processes the whole stream with one fixed knob configuration: the most
qualitative configuration that the provisioned server can sustain in
real time (at peak workload, since a static system has no content
adaptation to fall back on).  This is the baseline Skyscraper is up to
8.7x cheaper than on MOT.
"""
from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.sim.cluster import Cluster
from repro.sim.ingest import (
    RunResult,
    SegmentQueue,
    build_placement_tables,
    finalize,
    prepare,
)
from repro.video.content import ContentTrace
from repro.workloads.base import Config, Workload


def best_static_config(
    wl: Workload,
    cluster: Cluster,
    train_trace: ContentTrace,
    mean_quality: Callable[[list[Config]], np.ndarray] | None = None,
) -> Config:
    """Most qualitative configuration sustainable in real time.

    Feasibility: the configuration's *simulated* all-on-premises segment
    runtime at the training trace's p99.9 multiplier must not exceed the
    segment length (a static system must survive peaks; stage
    serialization in the DAG makes the true runtime exceed
    work / cores).  Falls back to the cheapest configuration if nothing
    fits.  Configurations are ranked by ``mean_quality(configs)``, their
    mean quality on the training trace; it defaults to
    ``Workload.mean_quality`` on ``train_trace``.
    """
    from repro.sim.dagsim import simulate_placement

    peak_mult = float(np.quantile(train_trace.work_multiplier, 0.999))
    feasible = []
    for c in wl.all_configs():
        if wl.work_per_vs(c) * peak_mult > cluster.n_cores:
            continue  # cheap necessary-condition prefilter
        g = wl.task_graph(c)
        runtime = simulate_placement(
            g, (False,) * len(g.nodes), cluster, mult=peak_mult
        ).runtime_s
        if runtime <= wl.seg_len:
            feasible.append(c)
    if not feasible:
        return wl.cheapest_config()
    means = (
        wl.mean_quality(feasible, train_trace)
        if mean_quality is None
        else mean_quality(feasible)
    )
    mean_q = dict(zip(feasible, means))
    return max(feasible, key=lambda c: (mean_q[c], -wl.work_per_vs(c)))


def run_static(
    wl: Workload,
    cluster: Cluster,
    trace: ContentTrace,
    train_trace: ContentTrace,
    *,
    seed: int = 0,
    config: Config | None = None,
    method: str = "static",
    mean_quality: Callable[[list[Config]], np.ndarray] | None = None,
) -> RunResult:
    """Simulate static ingestion with one configuration."""
    if config is None:
        config = best_static_config(wl, cluster, train_trace, mean_quality)
    prep = prepare(wl, [config], trace, seed=seed)
    tables = build_placement_tables(
        wl, [config], cluster, prep.mult_grid, enable_cloud=False
    )
    runtimes = tables[0].runtime[0].tolist()  # on-prem, per grid value
    queue = SegmentQueue(
        wl.seg_len, prep.seg_bytes, cluster.buffer_bytes
    )
    for i, gi in enumerate(memoryview(prep.mult_idx)):
        queue.step(i, runtimes[gi])
    chosen = np.zeros(trace.n_segments, dtype=int)
    res = finalize(
        prep,
        cluster,
        method=method,
        chosen_k=chosen,
        queue=queue,
        cloud_usd=0.0,
        cloud_core_s=0.0,
        extras={"config": wl.config_dict(config)},
    )
    return res
