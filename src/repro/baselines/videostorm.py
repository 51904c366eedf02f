"""VideoStorm* baseline (paper Appendix G).

VideoStorm [81] tunes knobs to the *query load*, not the content.  With
a static V-ETL job set, its behaviour degenerates: it picks the most
qualitative configuration that fits the available resources, spending
buffer headroom greedily.  As the paper observes (Figure 19), it fills
the buffer early in the run and from then on matches the static
baseline — except when a workload spike happens to arrive before the
buffer is exhausted (MOSEI-HIGH's lucky first peak).
"""
from __future__ import annotations

from collections.abc import Callable

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


def run_videostorm(
    wl: Workload,
    cluster: Cluster,
    trace: ContentTrace,
    train_trace: ContentTrace,
    *,
    seed: int = 0,
    configs: list[Config] | None = None,
    method: str = "videostorm",
    prep: Prepared | None = None,
    mean_quality: Callable[[list[Config]], np.ndarray] | None = None,
) -> RunResult:
    """Content-agnostic greedy quality maximization under the buffer.

    ``configs`` defaults to the filtered configurations of
    ``train_trace``; ``prep`` is ``prepare(wl, configs, trace,
    seed=seed)`` when the caller already has it.  Configurations are
    ranked by ``mean_quality(configs)``, their mean quality on the
    training trace; it defaults to ``Workload.mean_quality`` on
    ``train_trace``.
    """
    if configs is None:
        configs = filter_knob_configs(wl, train_trace, seed=seed)
    if prep is None:
        prep = prepare(wl, configs, trace, seed=seed)
    tables = build_placement_tables(
        wl, configs, cluster, prep.mult_grid, enable_cloud=False
    )
    runtimes = np.stack([t.runtime[0] for t in tables])  # (K, G)
    # content-agnostic quality ranking: mean quality on training data
    if mean_quality is None:
        train_q = wl.mean_quality(configs, train_trace)
    else:
        train_q = mean_quality(configs)
    rank = np.argsort(-train_q).tolist()  # best quality first
    n = trace.n_segments
    queue = SegmentQueue(wl.seg_len, prep.seg_bytes, cluster.buffer_bytes)
    chosen = np.empty(n, dtype=int)
    rt = runtimes.T.tolist()  # [gi][k]
    for i, gi in enumerate(memoryview(prep.mult_idx)):
        rt_g = rt[gi]
        k = rank[-1]
        for cand in rank:
            if not queue.would_overflow(i, rt_g[cand]):
                k = cand
                break
        queue.step(i, rt_g[k])
        chosen[i] = k
    return finalize(
        prep,
        cluster,
        method=method,
        chosen_k=chosen,
        queue=queue,
        cloud_usd=0.0,
        cloud_core_s=0.0,
    )
