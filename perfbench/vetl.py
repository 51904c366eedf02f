"""The vetl-spark workload: the Spark V-ETL data path on COVID.

Set-up runs the offline fit the streaming job needs (2 train days, as
``jobs/vetl_stream_job.py`` does, before the JVM starts), starts a
``local[k]`` session (k <= nproc), runs a small warm-up pass and writes
the stream's parquet micro-batch files.
A pass then runs, closed-loop:

1. a knob plan for the streamed interval (``make_plan``);
2. batch Extract (``segments_df``) -> Transform
   (``transform_segments_switched`` with config_id = segment_id mod K)
   -> write the detections as parquet -> Load (the four ``etl.load``
   queries over the written table);
3. ``run_streaming_job`` over the micro-batch files, one file per
   micro-batch, each batch starting after the previous one ends.

Checks, run after the pass and outside its wall time: each Load query
against DuckDB, and each micro-batch against a batch replay of the
configuration the streaming switcher recorded for it.
"""
from __future__ import annotations

import glob
import os
import shutil
import statistics
import subprocess
import time
from contextlib import nullcontext

from tracer import Tracer

BATCH_SEGMENTS = 64
N_BATCHES = 110  # >= 10 batch durations above the 90th percentile
WARMUP_BATCHES, WARMUP_ETL_DAYS = 4, 0.01
TRAIN_DAYS = 2.0
STREAM_DAY = 2.0  # the stream and the ETL window follow the train days
ETL_DAY, ETL_DAYS = 3.0, 0.25
DRIVER_MEMORY = "1g"
LOAD_QUERIES = {
    "ev_counts_per_hour": (
        "SELECT CAST(floor(t_start/3600) AS BIGINT) AS hour, "
        "count(*) AS ev_count FROM det WHERE is_ev GROUP BY 1"
    ),
    "detections_per_class": (
        "SELECT klass, count(*) AS n, "
        "round(avg(confidence), 6) AS avg_conf FROM det GROUP BY klass"
    ),
    "segment_stats": (
        "SELECT segment_id, count(*) AS n_detections, "
        "round(avg(confidence), 6) AS avg_conf, "
        "max(CAST(is_ev AS INT)) AS any_ev FROM det GROUP BY segment_id"
    ),
    "busiest_hours": (
        "SELECT CAST(floor(t_start/3600) AS BIGINT) AS hour, "
        "count(*) AS n FROM det GROUP BY 1 ORDER BY n DESC, hour ASC LIMIT 5"
    ),
}
PROGRESS_PARTS = ("triggerExecution", "addBatch", "getBatch", "latestOffset",
                  "queryPlanning", "walCommit")


def spark_env(src: str, workdir: str, cores: int) -> None:
    """Environment the Spark JVM and its Python workers inherit; it must
    be set before pyspark launches the JVM.  Every scratch file Spark
    writes goes under ``workdir``."""
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{cores}] --driver-memory {DRIVER_MEMORY} "
        f"--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={tmp} "
        f"--conf spark.sql.warehouse.dir={os.path.join(workdir, 'warehouse')} "
        f"--conf spark.driver.extraJavaOptions=-Djava.io.tmpdir={tmp} "
        "pyspark-shell"
    )


class Vetl:
    def __init__(self, seed: int, src: str, workdir: str, cores: int) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cores = cores
        spark_env(src, workdir, cores)
        self.spark = None
        self.events: list = []
        self.write_batches_s = 0.0

    # -- set-up ---------------------------------------------------------------
    def setup(self) -> None:
        import tempfile

        tempfile.tempdir = None  # pick up TMPDIR
        from pyspark.sql import SparkSession
        from pyspark.sql.streaming import StreamingQueryListener

        from repro.core.fit import fit_skyscraper
        from repro.workloads import get_workload

        self.wl = get_workload("covid")
        # fitted before the JVM starts, so its threads do not disturb the fit
        self.fitted = fit_skyscraper(self.wl, seed=self.seed, train_days=TRAIN_DAYS)
        self.spark = (
            SparkSession.builder.appName("perfbench-vetl")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        events = self.events

        class Progress(StreamingQueryListener):
            def onQueryStarted(self, event): pass
            def onQueryProgress(self, event): events.append(event.progress)
            def onQueryIdle(self, event): pass
            def onQueryTerminated(self, event): pass

        self.spark.streams.addListener(Progress())
        # A small pass starts the Python workers and runs every Spark code
        # path once, so the measured passes do not pay first-use costs.
        self._write_batches(WARMUP_BATCHES)
        self.run_pass(None, warmup=True)
        t0 = time.perf_counter()
        self._write_batches(N_BATCHES)
        self.write_batches_s = time.perf_counter() - t0

    def _in_dir(self, n_batches: int) -> str:
        return os.path.join(self.workdir, f"in-{n_batches}")

    def _write_batches(self, n_batches: int) -> None:
        from repro.video.stream import write_stream_batches

        in_dir = self._in_dir(n_batches)
        shutil.rmtree(in_dir, ignore_errors=True)
        write_stream_batches(
            self.spark, self.wl, in_dir, seed=self.seed,
            n_days=n_batches * BATCH_SEGMENTS * self.wl.seg_len / 86400.0,
            start_day=STREAM_DAY, batch_segments=BATCH_SEGMENTS,
        )

    def provenance(self) -> dict:
        sc = self.spark.sparkContext
        return {"spark_master": sc.master,
                "spark_default_parallelism": sc.defaultParallelism,
                "spark_driver_memory": sc.getConf().get("spark.driver.memory", DRIVER_MEMORY)}

    def close(self) -> None:
        """Stop Spark and wait for its JVM (and with it the Python
        workers) to exit: the gateway JVM exits when its stdin closes."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            gateway.shutdown()
            proc.stdin.close()
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    # -- one pass ---------------------------------------------------------------
    def run_pass(self, tracer: Tracer | None, *, warmup: bool = False) -> dict:
        from pyspark.sql import functions as F

        from repro.core.planner import make_plan
        from repro.etl import load
        from repro.etl.streaming import run_streaming_job
        from repro.etl.transform import transform_segments_switched
        from repro.sim.cluster import make_cluster
        from repro.video.stream import segments_df

        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        spark, wl, seed = self.spark, self.wl, self.seed
        etl_dir = os.path.join(self.workdir, "warehouse", "detections")
        out_dir = os.path.join(self.workdir, "stream-out")
        shutil.rmtree(out_dir, ignore_errors=True)
        n_batches = WARMUP_BATCHES if warmup else N_BATCHES
        etl_days = WARMUP_ETL_DAYS if warmup else ETL_DAYS
        in_dir = self._in_dir(n_batches)
        stream_video_s = n_batches * BATCH_SEGMENTS * wl.seg_len
        self.events.clear()

        fitted = self.fitted
        t0 = time.perf_counter()
        with span("core.planner.make_plan"):
            plan = make_plan(fitted, fitted.train_hists, make_cluster(8),
                             interval_s=stream_video_s, cloud_budget_usd=0.0)

        t_etl = time.perf_counter()
        seg = segments_df(spark, wl, seed=seed, n_days=etl_days,
                          start_day=ETL_DAY, n_partitions=self.cores)
        seg = seg.withColumn(
            "config_id", (F.col("segment_id") % len(fitted.configs)).cast("long")
        )
        if tracer is not None:
            seg = seg.cache()
            with span("video.stream.segments_df"):
                tracer.count("video.stream.rows", seg.count())
        with span("etl.transform"):
            det = transform_segments_switched(seg, wl, fitted.configs, seed=seed)
            det.write.mode("overwrite").parquet(etl_dir)
        loaded = spark.read.parquet(etl_dir)
        if tracer is not None:
            tracer.count("etl.transform.detections", loaded.count())
            seg.unpersist()
        queries = {q: getattr(load, q)(loaded) for q in LOAD_QUERIES}
        for q, query in queries.items():
            with span(f"etl.load.{q}"):
                query.collect()
        etl_s = time.perf_counter() - t_etl

        t_stream = time.perf_counter()
        with span("etl.streaming.run_streaming_job"):
            switcher = run_streaming_job(spark, wl, fitted, plan.alpha, in_dir,
                                         out_dir, seed=seed, timeout_s=120.0)
        stream_s = time.perf_counter() - t_stream
        wall = time.perf_counter() - t0

        # progress events arrive on the listener bus after the query ends
        deadline = time.monotonic() + 10.0
        while len(self.events) < len(switcher.history) and time.monotonic() < deadline:
            time.sleep(0.05)
        progress = [p for p in self.events if p.numInputRows > 0]
        batch_ms = [float(p.durationMs["triggerExecution"]) for p in progress]

        if warmup:
            return {}
        with span("oracle.assert_equivalent"):
            ops = self._check_load(queries, loaded)
        ops += self._check_batches(switcher, fitted, in_dir, out_dir)
        streamed = sum(h["n_segments"] for h in switcher.history)
        from_pass = {f"core.fit.{k}.s": v for k, v in fitted.timings.items()}
        from_pass.update({
            f"etl.streaming.{part}.ms_p50": statistics.median(
                float(p.durationMs.get(part, 0)) for p in progress)
            for part in PROGRESS_PARTS if progress
        })
        from_pass["etl.streaming.batches"] = len(progress)
        from_pass["etl.streaming.input_rows"] = sum(p.numInputRows for p in progress)
        from_pass["video.stream.write_batches.s"] = self.write_batches_s
        q = _quantiles(batch_ms)
        return {
            "wall_s": wall,
            "extra": {
                "sky_us_per_segment": 1e6 * stream_s / max(streamed, 1),
                "offline_fit_s": sum(fitted.timings.values()),
                "quality_pct": self._stream_quality(switcher, fitted, n_batches),
                "etl_s": etl_s,
                "stream_batch_ms_p50": q[0],
                "stream_batch_ms_p90": q[1],
                "stream_batch_samples": len(batch_ms),
                "stream_rt_factor": streamed * wl.seg_len / stream_s,
            },
            "ops": ops,
            "digest": None,
            "from_pass": from_pass,
        }

    # -- checks -----------------------------------------------------------------
    def _check_load(self, queries: dict, loaded) -> list:
        from repro.oracle import assert_equivalent

        det_pdf = loaded.toPandas()
        ops = []
        for q, query in queries.items():
            try:
                assert_equivalent(query, LOAD_QUERIES[q], det=det_pdf)
                ops.append((f"load:{q}", None))
            except AssertionError as e:
                ops.append((f"load:{q}", f"differs from DuckDB: {str(e)[:200]}"))
        return ops

    def _check_batches(self, switcher, fitted, in_dir: str, out_dir: str) -> list:
        """One operation per input file: lost (never processed, e.g. the
        job stopped at its timeout), duplicated, or detections that
        differ from a batch replay of the recorded config_id."""
        import pandas as pd

        from repro.cv.ops import detect_segments

        files = sorted(glob.glob(os.path.join(in_dir, "*.parquet")))
        history = switcher.history
        ops, seen = [], set()
        key = ["segment_id", "object_id"]
        for i, f in enumerate(files):
            name = f"batch:{i}"
            if i >= len(history):
                ops.append((name, "lost: never processed"))
                continue
            pdf = pd.read_parquet(f).sort_values("segment_id")
            if history[i]["n_segments"] != len(pdf):
                ops.append((name, "segment count differs from the input file"))
                continue
            out_path = os.path.join(out_dir, f"detections-{i:06d}.parquet")
            if not os.path.exists(out_path):
                ops.append((name, "lost: no output"))
                continue
            got = pd.read_parquet(out_path)
            ids = set(got["segment_id"].unique())
            if ids & seen:
                ops.append((name, "duplicated segments"))
                continue
            seen |= ids
            cfg = fitted.configs[history[i]["config_id"]]
            want = detect_segments(self.wl, cfg, pdf, seed=self.seed)
            try:
                pd.testing.assert_frame_equal(
                    got.sort_values(key).reset_index(drop=True),
                    want.sort_values(key).reset_index(drop=True),
                    check_dtype=False,
                )
                ops.append((name, None))
            except AssertionError:
                ops.append((name, "detections differ from the batch replay"))
        ops += [(f"batch:{i}", "duplicated batch")
                for i in range(len(files), len(history))]
        return ops

    def _stream_quality(self, switcher, fitted, n_batches: int) -> float:
        """Quality of the streaming switcher's choices: the simulator's
        quality_pct (truth quality of the chosen configuration over that
        of the best one), over the streamed segments."""
        import numpy as np

        wl = self.wl
        trace = wl.content(seed=self.seed,
                           n_days=n_batches * BATCH_SEGMENTS * wl.seg_len / 86400.0,
                           start_day=STREAM_DAY)
        chosen = np.concatenate(
            [np.full(h["n_segments"], h["config_id"]) for h in switcher.history]
        )[: trace.n_segments]
        n = len(chosen)
        curves = {k: wl.quality_curve(fitted.configs[k], trace)[:n] for k in set(chosen)}
        got = sum(float(curves[k][chosen == k].sum()) for k in curves)
        best = float(wl.quality_curve(wl.best_config(), trace)[:n].sum())
        return 100.0 * got / best


def _quantiles(xs: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (0 when there are no samples)."""
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (0.0, 0.0)
    return statistics.median(xs), statistics.quantiles(xs, n=10, method="inclusive")[8]
