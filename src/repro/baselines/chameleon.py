"""Chameleon* baseline (paper Section 5.3).

An adaptation of Chameleon [40] for the V-ETL setting.  Chameleon
periodically *profiles* its candidate knob configurations on recent
frames and then uses the cheapest configuration whose profiled quality
is within a threshold of the best — minimizing average processing time
under the assumption that the hardware is peak-provisioned.  Following
the paper, we equip it with a buffer so it can run on cheaper machines:
when the buffer would overflow it falls back to the cheapest
configuration until the buffer drains (an unmanaged fallback — the real
adaptation "may easily crash"; we record whether even the fallback
overflowed).

The two structural disadvantages vs. Skyscraper that the paper reports
emerge naturally: (1) the periodic profiling re-runs *every* candidate
configuration on sample segments, an overhead that grows with the cost
of the expensive configurations (which is why Chameleon* suffers most on
MOSEI); (2) no forecasting/rationing, so expensive configurations are
used greedily until the buffer fills, after which quality collapses.
"""
from __future__ import annotations

import numpy as np

from repro.core.offline import filter_knob_configs
from repro.sim.cluster import Cluster
from repro.sim.ingest import (
    Prepared,
    RunResult,
    SegmentQueue,
    build_placement_tables,
    finalize,
    prepare,
)
from repro.video.content import ContentTrace
from repro.workloads.base import Config, Workload


def run_chameleon(
    wl: Workload,
    cluster: Cluster,
    trace: ContentTrace,
    train_trace: ContentTrace,
    *,
    seed: int = 0,
    configs: list[Config] | None = None,
    profile_every_s: float = 600.0,
    profile_segments: int = 1,
    quality_slack: float = 0.92,
    method: str = "chameleon",
    prep: Prepared | None = None,
) -> RunResult:
    """Simulate Chameleon* ingestion.

    ``configs`` defaults to the filtered configurations of
    ``train_trace``; ``prep`` is ``prepare(wl, configs, trace,
    seed=seed)`` when the caller already has it.
    """
    if configs is None:
        configs = filter_knob_configs(wl, train_trace, seed=seed)
    if prep is None:
        prep = prepare(wl, configs, trace, seed=seed)
    tables = build_placement_tables(
        wl, configs, cluster, prep.mult_grid, enable_cloud=False
    )
    runtimes = np.stack(
        [t.runtime[0] for t in tables]
    )  # (K, G) on-prem-only runtime per multiplier grid value
    n = trace.n_segments
    queue = SegmentQueue(wl.seg_len, prep.seg_bytes, cluster.buffer_bytes)
    epoch_segments = max(1, int(round(profile_every_s / wl.seg_len)))
    cheapest = int(np.argmin(prep.work))
    # per multiplier-grid value: best configuration that still runs in
    # real time — the fallback when the unmanaged buffer fills up
    mean_q = prep.qual_true.mean(axis=1)
    realtime_best = [
        int(ok[np.argmax(mean_q[ok])]) if len(ok) else cheapest
        for ok in (np.flatnonzero(col <= wl.seg_len) for col in runtimes.T)
    ]
    chosen = np.empty(n, dtype=int)
    k_epoch = cheapest
    profiling_core_s = 0.0
    rt = runtimes.T.tolist()  # [gi][k]

    for i, gi in enumerate(memoryview(prep.mult_idx)):
        if i % epoch_segments == 0:
            # Profiling pass: run every candidate on the last
            # ``profile_segments`` segments; the work goes through the
            # same queue as regular processing (it competes for cores).
            lo = max(0, i - profile_segments)
            profile_runtime = float(
                runtimes[:, prep.mult_idx[lo : i + 1]].sum()
            )
            if profile_runtime > 0:
                queue.ready += profile_runtime
                profiling_core_s += profile_runtime * cluster.n_cores
            # Pick the cheapest configuration whose profiled quality is
            # within ``quality_slack`` of the best profiled quality.
            prof_q = prep.qual_obs[:, lo : i + 1].mean(axis=1)
            best_q = prof_q.max()
            ok = np.flatnonzero(prof_q >= quality_slack * best_q)
            k_epoch = int(ok[np.argmin(prep.work[ok])])
        k = k_epoch
        rt_g = rt[gi]
        if queue.would_overflow(i, rt_g[k]):
            # unmanaged fallback: drop to the best real-time config
            k = realtime_best[gi]
            if queue.would_overflow(i, rt_g[k]):
                k = cheapest
        queue.step(i, rt_g[k])
        chosen[i] = k

    res = finalize(
        prep,
        cluster,
        method=method,
        chosen_k=chosen,
        queue=queue,
        cloud_usd=0.0,
        cloud_core_s=0.0,
        extras={"profiling_core_s": profiling_core_s},
    )
    return res
