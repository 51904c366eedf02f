"""The two simulator workloads: Table 2 cells run in-process through
``repro.exp.runs``.

covid-8vcpu
    The COVID column at 8 vCPUs at the paper's durations (16 train
    days, 8 test days): the offline fit, then Static, Chameleon*,
    VideoStorm* and Skyscraper.  Four online loops over 345,600
    segments each do most of the work; the DAG simulator does little.
mosei-high-local
    The MOSEI-HIGH column: Static, Chameleon* and Skyscraper at
    4/8/16/32/60 vCPUs (15 cells) through ``run_grid(grid, None)``.
    Few segments per cell but 29 work multipliers and five cluster
    sizes, so placement tables, the DAG simulator and the static
    baseline's config search dominate.

A pass is closed-loop: each cell starts when the previous one ends.
"""
from __future__ import annotations

import hashlib
import json
import math
import time

from tracer import Tracer

BASELINES = ("static", "chameleon", "videostorm")


def setup() -> None:
    """Import everything a pass uses (the simulator workloads' set-up)."""
    import repro.exp.runs  # noqa: F401
    import repro.exp.sweep  # noqa: F401
    import repro.exp.table2  # noqa: F401


class _CellTimer:
    """Times each ``run_one`` call and each ``cached_fit`` miss by
    swapping the module attributes the sweep looks up at call time."""

    def __init__(self, runs, tracer: Tracer | None) -> None:
        self.runs = runs
        self.tracer = tracer
        self.cells: list[dict] = []
        self.fits: list = []  # the Fitted of every cached_fit call
        self._fit_s = 0.0

    def __enter__(self):
        runs, self.run_one, self.cached_fit = self.runs, self.runs.run_one, self.runs.cached_fit

        def cached_fit(*args):
            misses = self.cached_fit.cache_info().misses
            t0 = time.perf_counter()
            fitted = self.cached_fit(*args)
            if self.cached_fit.cache_info().misses > misses:
                self._fit_s += time.perf_counter() - t0
            self.fits.append(fitted)
            return fitted

        def run_one(params):
            cell = f"{params['workload']}-{params['method']}-{params['vcpus']}"
            if self.tracer is not None:
                self.tracer.cell = cell
            self._fit_s = 0.0
            t0 = time.perf_counter()
            if self.tracer is not None:
                with self.tracer.span("exp.runs.run_one"):
                    row = self.run_one(params)
            else:
                row = self.run_one(params)
            self.cells.append(
                {"params": params, "s": time.perf_counter() - t0,
                 "fit_s": self._fit_s, "row": row}
            )
            return row

        runs.cached_fit, runs.run_one = cached_fit, run_one
        return self

    def __exit__(self, *exc) -> None:
        self.runs.cached_fit, self.runs.run_one = self.cached_fit, self.run_one


def _grid(name: str, seed: int) -> list[dict]:
    from repro.exp.table2 import build_grid

    if name == "covid-8vcpu":
        return [
            {"workload": "covid", "method": m, "vcpus": 8, "seed": seed}
            for m in (*BASELINES, "skyscraper")
        ]
    return build_grid(workloads=["mosei-high"], seed=seed)


def run_pass(name: str, seed: int, tracer: Tracer | None) -> dict:
    import repro.exp.runs as runs
    from repro.exp.sweep import run_grid
    from repro.sim.cluster import make_cluster
    from repro.workloads import get_workload

    lru = runs.cached_fit
    lru.cache_clear()  # every pass fits from scratch
    grid = _grid(name, seed)
    wl = get_workload(grid[0]["workload"])
    fit_args = (wl.name, seed, float(wl.train_days), None,
                min(2.0, wl.train_days / 8.0), min(2.0, wl.train_days / 8.0))
    with _CellTimer(runs, tracer) as timer:
        t0 = time.perf_counter()
        if name == "covid-8vcpu":
            runs.cached_fit(*fit_args)  # the offline phase, then the cells
            for params in grid:
                runs.run_one(params)
        elif tracer is not None:
            with tracer.span("exp.sweep.run_grid"):
                run_grid(grid, None)
        else:
            run_grid(grid, None)
        wall = time.perf_counter() - t0
        info = lru.cache_info()
    fitted = timer.fits[0]

    seg_len = wl.seg_len
    rows = [c["row"] for c in timer.cells]

    def per_segment_us(cells) -> float:
        segs = sum(round(c["row"]["duration_days"] * 86400.0 / seg_len) for c in cells)
        return 1e6 * sum(c["s"] - c["fit_s"] for c in cells) / segs

    sky = [c for c in timer.cells if c["params"]["method"] == "skyscraper"]
    base = [c for c in timer.cells if c["params"]["method"] != "skyscraper"]
    ops = _check_cells(rows, len(grid))
    beats_frac, notes = _ordering(rows)
    from_pass = {f"core.fit.{k}.s": v for k, v in fitted.timings.items()}
    from_pass["sim.ingest.buffer_peak_frac"] = max(
        c["row"]["buffer_peak_bytes"] / make_cluster(c["row"]["vcpus"]).buffer_bytes
        for c in sky
    )
    from_pass["exp.runs.cached_fit.hits"] = info.hits
    from_pass["exp.runs.cached_fit.misses"] = info.misses
    sky_rows = [c["row"] for c in sky]
    return {
        "wall_s": wall,
        "extra": {
            "sky_us_per_segment": per_segment_us(sky),
            "offline_fit_s": sum(fitted.timings.values()),
            "quality_pct": sum(r["quality_pct"] for r in sky_rows) / len(sky_rows),
            "baseline_us_per_segment": per_segment_us(base),
            "total_usd": sum(r["total_usd"] for r in sky_rows),
            "sky_beats_baselines_frac": beats_frac,
        },
        "ops": ops,
        "notes": notes,
        "digest": rows_digest(rows),
        "from_pass": from_pass,
    }


def _check_cells(rows: list[dict], n_cells: int) -> list[tuple[str, str | None]]:
    """One operation per cell: (cell, failure or None).

    A cell fails if its quality is outside (0, 100] or if Skyscraper's
    buffer overflowed.  Cells that never produced a row are failed too."""
    ops = []
    for r in rows:
        cell = f"{r['workload']}-{r['method']}-{r['vcpus']}"
        q = r["quality_pct"]
        why = None
        if not 0.0 < q <= 100.0:
            why = f"quality_pct {q} outside (0, 100]"
        elif r["method"] == "skyscraper" and r["overflow"]:
            why = "Skyscraper overflowed its buffer"
        ops.append((cell, why))
    ops += [("missing cell", "no result")] * (n_cells - len(rows))
    return ops


def _ordering(rows: list[dict]) -> tuple[float, list[str]]:
    """The paper's method ordering: the share of Skyscraper cells that
    beat every baseline at the same vCPUs, and a note for each that
    does not.  It is a property of the method on the generated content,
    not of the program's correctness, and seeds 6 and 26 break it on
    both simulator workloads (a baseline ahead by 0.02-1.22 points), so
    it is reported, not gated."""
    best_base: dict[int, float] = {}
    for r in rows:
        if r["method"] != "skyscraper":
            best_base[r["vcpus"]] = max(best_base.get(r["vcpus"], -math.inf), r["quality_pct"])
    sky = [r for r in rows if r["method"] == "skyscraper"]
    notes = [
        f"{r['workload']}-skyscraper-{r['vcpus']}: Skyscraper {r['quality_pct']:.2f}% "
        f"does not beat {best_base[r['vcpus']]:.2f}%"
        for r in sky if r["quality_pct"] <= best_base.get(r["vcpus"], -math.inf)
    ]
    return (len(sky) - len(notes)) / len(sky), notes


def rows_digest(rows: list[dict]) -> str:
    """sha256 over the RunResult rows, order-independent and exact to
    the last bit of every float."""
    canon = sorted(json.dumps(r, sort_keys=True, default=repr) for r in rows)
    return hashlib.sha256("\n".join(canon).encode()).hexdigest()
