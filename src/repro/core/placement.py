"""Task-placement search (paper Section 3.1 / Appendix A.2).

The paper filters the exponential set of task placements with PlaceTo
(GNN + RL) trained against the Appendix-M simulator.  Our task DAGs have
at most ~6 nodes, so we can afford the exhaustive version of the same
contract: enumerate every placement that respects on-premise pinning,
estimate each with the Appendix-M.1 simulator, and keep the ones on the
(cloud-cost, runtime) Pareto frontier.  The output — a small Pareto set
of placements per knob configuration, with profiled runtimes and cloud
costs — is exactly what the online knob switcher consumes (Section 4.2).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.core.offline import pareto_front
from repro.sim.cluster import Cluster
from repro.sim.dagsim import simulate_placement
from repro.workloads.base import TaskGraph


@dataclass(frozen=True)
class PlacementProfile:
    """One profiled placement of a configuration's task graph."""

    cloud: tuple[bool, ...]  # per-node cloud flag
    runtime_s: float  # per segment, at work multiplier 1
    cloud_core_s: float  # per segment, at work multiplier 1
    cloud_usd: float  # per segment, at work multiplier 1

    @property
    def is_onprem_only(self) -> bool:
        return not any(self.cloud)


def enumerate_placements(graph: TaskGraph) -> list[tuple[bool, ...]]:
    """All placements respecting ``pin_onprem`` (all-on-premises first)."""
    choices = [
        ((False,) if nd.pin_onprem else (False, True)) for nd in graph.nodes
    ]
    return sorted(itertools.product(*choices), key=lambda p: sum(p))


def pareto_placements(
    graph: TaskGraph, cluster: Cluster
) -> list[PlacementProfile]:
    """Profile all placements and keep the cost-runtime Pareto frontier.

    Returned sorted by increasing cloud cost (so the knob switcher's
    "cheapest placement that does not overflow the buffer" scan is a
    linear walk); within the frontier, higher cloud cost implies lower
    runtime.  The all-on-premises placement is always kept — it is the
    zero-cloud-cost extreme of the frontier.
    """
    profiles = []
    for cloud in enumerate_placements(graph):
        res = simulate_placement(graph, cloud, cluster)
        profiles.append(
            PlacementProfile(
                cloud=cloud,
                runtime_s=res.runtime_s,
                cloud_core_s=res.cloud_core_s,
                cloud_usd=res.cloud_core_s * cluster.cloud_usd_per_core_s,
            )
        )
    keep = pareto_front(
        np.array([p.cloud_usd for p in profiles]),
        -np.array([p.runtime_s for p in profiles]),
    )
    return [profiles[j] for j in keep]
