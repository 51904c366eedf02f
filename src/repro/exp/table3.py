"""Table 3 (Appendix E, Section 5.5): offline-phase step runtimes.

Runs the COVID offline phase end to end (with the Spark dataflows when a
session is given) and reports per-step wall-clock next to the paper's
minutes.  ``fit_skyscraper`` leaves placements to the online phase, so
the task-placement filter (App. A.2) is timed here on an 8-core
reference cluster.  Absolute times differ by orders of magnitude (our
UDFs are analytic models, theirs run real CV); the *shape* to check is
that creating the forecast training data dominates the offline phase.
"""
from __future__ import annotations

import time

import pandas as pd

from repro.core.fit import fit_skyscraper
from repro.core.placement import pareto_placements
from repro.exp.paper_numbers import PAPER_TABLE3_MINUTES
from repro.sim.cluster import make_cluster
from repro.workloads import get_workload

STEP_ORDER = [
    "filter_knob_configs",
    "filter_task_placements",
    "compute_content_categories",
    "create_forecast_training_data",
    "train_forecast_model",
]


def run_table3(
    spark=None, *, seed: int = 0, train_days: float = 16.0
) -> pd.DataFrame:
    wl = get_workload("covid")
    fitted = fit_skyscraper(
        wl, seed=seed, train_days=train_days, spark=spark
    )
    t0 = time.perf_counter()
    ref_cluster = make_cluster(8)
    for cfg in fitted.configs:
        pareto_placements(wl.task_graph(cfg), ref_cluster)
    timings = {
        **fitted.timings,
        "filter_task_placements": time.perf_counter() - t0,
    }
    rows = []
    total = sum(timings.values())
    paper_total = sum(PAPER_TABLE3_MINUTES.values())
    for step in STEP_ORDER:
        ours = timings[step]
        rows.append(
            {
                "step": step,
                "paper_minutes": PAPER_TABLE3_MINUTES[step],
                "paper_share_pct": 100.0 * PAPER_TABLE3_MINUTES[step] / paper_total,
                "ours_seconds": round(ours, 3),
                "ours_share_pct": round(100.0 * ours / total, 1) if total else 0.0,
            }
        )
    return pd.DataFrame(rows)


def format_table3(df: pd.DataFrame) -> str:
    lines = [
        "| step | paper runtime | paper share | ours (s) | ours share |",
        "|---|---|---|---|---|",
    ]
    for _, r in df.iterrows():
        lines.append(
            f"| {r.step} | {r.paper_minutes:.0f} min | "
            f"{r.paper_share_pct:.0f}% | {r.ours_seconds} | {r.ours_share_pct}% |"
        )
    return "\n".join(lines)
