"""Which layer functions a traced run wraps, and how they reduce to the
per-layer metrics named in BENCHMARK.json.

Every traced run installs every wrapper, whatever its workload, so a
layer that does no work on a workload reports zero calls there.  That
zero is the prediction "this layer should not move this workload".
"""
from __future__ import annotations

import statistics
import time

from tracer import Tracer

# Metrics that come straight from a pass's own measurements (set by the
# workload, not by a wrapper).
_FROM_PASS = {
    "core.fit.filter_knob_configs.s",
    "core.fit.filter_task_placements.s",
    "core.fit.compute_content_categories.s",
    "core.fit.create_forecast_training_data.s",
    "core.fit.train_forecast_model.s",
    "sim.ingest.buffer_peak_frac",
    "exp.runs.cached_fit.hits",
    "exp.runs.cached_fit.misses",
    "video.stream.write_batches.s",
    "etl.streaming.triggerExecution.ms_p50",
    "etl.streaming.addBatch.ms_p50",
    "etl.streaming.getBatch.ms_p50",
    "etl.streaming.latestOffset.ms_p50",
    "etl.streaming.queryPlanning.ms_p50",
    "etl.streaming.walCommit.ms_p50",
    "etl.streaming.batches",
    "etl.streaming.input_rows",
}


def install(tr: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    import repro.baselines.chameleon as chameleon
    import repro.baselines.static as static
    import repro.baselines.videostorm as videostorm
    import repro.core.categories as categories
    import repro.core.fit as fit
    import repro.core.placement as placement
    import repro.core.planner as planner
    import repro.core.switcher as switcher
    import repro.etl.streaming as streaming
    import repro.exp.runs as runs
    import repro.sim.dagsim as dagsim
    import repro.sim.ingest as ingest
    import repro.workloads.base as wbase
    import repro.workloads.mosei as mosei

    # hot per-segment calls: counters
    tr.wrap_counter(categories.Categories, "classify_1d", "core.categories.classify_1d")
    _wrap_choose(tr, switcher.KnobSwitcher)
    tr.wrap_counter(ingest.SegmentQueue, "would_overflow", "sim.ingest.queue.would_overflow")
    tr.wrap_counter(ingest.SegmentQueue, "step", "sim.ingest.queue.step")
    for mod in (dagsim, ingest, placement):
        tr.wrap_counter(mod, "simulate_placement", "sim.dagsim.simulate_placement")
    for mod in (fit, chameleon, videostorm):
        tr.wrap_counter(mod, "filter_knob_configs", "core.offline.filter_knob_configs")
    tr.wrap_counter(planner, "solve_knob_plan", "core.mckp.solve")
    for cls in (wbase.Workload, mosei.MoseiWorkload):
        tr.wrap_counter(
            cls, "content", "video.content",
            on_result=lambda a, k, out: tr.count("video.content.segments", out.n_segments),
        )
    for attr in ("quality_curve", "observed_quality_curve", "observed_quality"):
        tr.wrap_counter(wbase.Workload, attr, "workloads.quality")
    tr.wrap_counter(
        streaming, "detect_segments", "cv.detect",
        on_result=lambda a, k, out: tr.count("cv.detect.detections", len(out)),
    )
    tr.wrap_counter(
        ingest, "enumerate_placements", "sim.ingest.enumerate_placements",
        on_result=lambda a, k, out: tr.count("placements.enumerated", len(out)),
    )

    # outer calls: spans
    tr.wrap_span(runs, "run_skyscraper", "sim.ingest.run_skyscraper")
    tr.wrap_span(runs, "run_static", "baselines.static")
    tr.wrap_span(runs, "run_chameleon", "baselines.chameleon")
    tr.wrap_span(runs, "run_videostorm", "baselines.videostorm")
    tr.wrap_span(runs, "fit_skyscraper", "core.fit")
    tr.wrap_span(ingest, "make_plan", "core.planner.make_plan")
    tr.wrap_span(static, "best_static_config", "baselines.static.best_config")
    for mod in (ingest, static, chameleon, videostorm):
        tr.wrap_span(mod, "prepare", "sim.ingest.prepare")
        tr.wrap_span(
            mod, "build_placement_tables", "sim.ingest.placement_tables",
            on_result=lambda a, k, out: tr.count(
                "placements.kept", sum(len(t.placements) for t in out)
            ),
        )
    _wrap_process_batch(tr, streaming.StreamingSwitcher)


def _wrap_choose(tr: Tracer, cls) -> None:
    """choose(): time it, count feasibility probes (the switcher's
    wasted work) and how often it returns another configuration than
    the deficit pick of Eq. 6 (a fallback)."""
    choose = cls.__dict__["choose"]
    clock = time.perf_counter
    calls, seconds = tr.calls, tr.seconds

    def wrapper(self, category, feasible):
        desired = self.pick_config(category)  # pure: reads counts only

        def probe(k, p):
            calls["core.switcher.probes"] += 1
            return feasible(k, p)

        t0 = clock()
        k, p = choose(self, category, probe)
        seconds["core.switcher.choose"] += clock() - t0
        calls["core.switcher.choose"] += 1
        if k != desired:
            calls["core.switcher.fallbacks"] += 1
        return k, p

    tr.replace(cls, "choose", wrapper)


def _wrap_process_batch(tr: Tracer, cls) -> None:
    process = cls.__dict__["process_batch"]

    def wrapper(self, pdf):
        t0 = time.perf_counter()
        out = process(self, pdf)
        tr.record("etl.streaming.process_batch.ms", 1e3 * (time.perf_counter() - t0))
        return out

    tr.replace(cls, "process_batch", wrapper)


def reduce(tr: Tracer, from_pass: dict) -> dict[str, float]:
    """Per-layer metric values of one traced pass."""
    c, s = tr.calls, tr.seconds

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def spans(name: str) -> int:
        return sum(1 for x in tr.spans if x["name"] == name)

    pb = tr.values.get("etl.streaming.process_batch.ms", [])
    m = {
        "core.categories.classify_1d.calls": c["core.categories.classify_1d"],
        "core.categories.classify_1d.s": s["core.categories.classify_1d"],
        "core.switcher.choose.calls": c["core.switcher.choose"],
        "core.switcher.choose.s": s["core.switcher.choose"],
        "core.switcher.probes_per_decision": ratio(
            c["core.switcher.probes"], c["core.switcher.choose"]
        ),
        "core.switcher.fallback_frac": ratio(
            c["core.switcher.fallbacks"], c["core.switcher.choose"]
        ),
        "sim.ingest.queue.would_overflow.calls": c["sim.ingest.queue.would_overflow"],
        "sim.ingest.queue.step.calls": c["sim.ingest.queue.step"],
        "sim.ingest.run_skyscraper.self_s": tr.self_seconds("sim.ingest.run_skyscraper"),
        "baselines.static.self_s": tr.self_seconds("baselines.static"),
        "baselines.chameleon.self_s": tr.self_seconds("baselines.chameleon"),
        "baselines.videostorm.self_s": tr.self_seconds("baselines.videostorm"),
        "core.offline.filter_knob_configs.calls": c["core.offline.filter_knob_configs"],
        "core.offline.filter_knob_configs.s": s["core.offline.filter_knob_configs"],
        "sim.dagsim.simulate_placement.calls": c["sim.dagsim.simulate_placement"],
        "sim.dagsim.simulate_placement.s": s["sim.dagsim.simulate_placement"],
        "sim.ingest.placement_tables.s": tr.span_seconds("sim.ingest.placement_tables"),
        "sim.ingest.placements_kept_frac": ratio(
            c["placements.kept"], c["placements.enumerated"]
        ),
        "baselines.static.best_config.s": tr.span_seconds("baselines.static.best_config"),
        "core.planner.make_plan.calls": spans("core.planner.make_plan"),
        "core.planner.make_plan.s": tr.span_seconds("core.planner.make_plan"),
        "core.mckp.solve.s": s["core.mckp.solve"],
        "video.content.calls": c["video.content"],
        "video.content.s": s["video.content"],
        "video.content.segments_per_s": ratio(
            c["video.content.segments"], s["video.content"]
        ),
        "workloads.quality.calls": c["workloads.quality"],
        "workloads.quality.s": s["workloads.quality"],
        "sim.ingest.prepare.s": tr.span_seconds("sim.ingest.prepare"),
        "exp.sweep.run_grid.s": tr.span_seconds("exp.sweep.run_grid"),
        "video.stream.segments_df.s": tr.span_seconds("video.stream.segments_df"),
        "video.stream.rows_per_s": ratio(
            c["video.stream.rows"], tr.span_seconds("video.stream.segments_df")
        ),
        "cv.detect.calls": c["cv.detect"],
        "cv.detect.s": s["cv.detect"],
        "cv.detect.detections_per_s": ratio(c["cv.detect.detections"], s["cv.detect"]),
        "etl.transform.s": tr.span_seconds("etl.transform"),
        "etl.transform.detections_per_s": ratio(
            c["etl.transform.detections"], tr.span_seconds("etl.transform")
        ),
        "etl.streaming.process_batch.ms_p50": statistics.median(pb) if pb else 0.0,
        "oracle.assert_equivalent.s": tr.span_seconds("oracle.assert_equivalent"),
    }
    for q in ("ev_counts_per_hour", "detections_per_class", "segment_stats", "busiest_hours"):
        m[f"etl.load.{q}.ms"] = 1e3 * tr.span_seconds(f"etl.load.{q}")
    for name in _FROM_PASS:
        m[name] = from_pass.get(name, 0.0)
    return m
