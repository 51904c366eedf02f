"""V-ETL benchmark: one command for every workload, end to end and per layer.

    python3 perfbench/run.py --workload covid-8vcpu --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the program from ``src``.
The workloads and metrics are described in BENCHMARK.json and
perfbench/README.md.

* ``--trace 0`` runs as many closed-loop passes of the workload as
  nominally fit in ``--seconds`` (at least one; see ``PASS_S``) and
  reports the end-to-end metrics as medians over the passes.
* ``--trace 1`` runs one untraced pass and then one traced pass, and
  reports the per-layer metrics of the traced pass with the tracing
  overhead (traced minus untraced wall time).

Every pass runs the correctness checks; a failed check is a failed
operation, and any failed operation makes the command exit with 1.  The
last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("covid-8vcpu", "mosei-high-local", "vetl-spark")
# Set-ups per untraced run; setup_s is their median.  A Spark set-up
# starts a JVM (about 10 s), so vetl-spark sets up once per run to keep
# every run of the benchmark within its time budget.
SETUP_SAMPLES = {"covid-8vcpu": 9, "mosei-high-local": 9, "vetl-spark": 1}
# Nominal seconds of one untraced pass on 4 vCPUs.  A run makes
# seconds // PASS_S passes (at least one), so every run of a workload
# does the same work however fast the machine happens to be.
PASS_S = {"covid-8vcpu": 20.0, "mosei-high-local": 15.0, "vetl-spark": 25.0}


def load_spec() -> dict:
    """Metric names, units and directions, as BENCHMARK.json defines them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def process_age_s() -> float:
    """Seconds since this process was started (from /proc, 10 ms ticks)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


class Workload:
    """Uniform face of the simulator and Spark workloads."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name, self.seed, self.vetl = name, seed, None
        if name == "vetl-spark":
            from vetl import Vetl

            self.vetl = Vetl(seed, SRC, workdir, cores=min(4, os.cpu_count() or 1))

    def setup(self) -> None:
        if self.vetl is not None:
            self.vetl.setup()
        else:
            import sim

            sim.setup()

    def run_pass(self, tracer) -> dict:
        if self.vetl is not None:
            return self.vetl.run_pass(tracer)
        import sim

        return sim.run_pass(self.name, self.seed, tracer)

    def provenance(self) -> dict:
        if self.vetl is not None:
            return self.vetl.provenance()
        return {"spark_master": None, "spark_default_parallelism": None,
                "spark_driver_memory": None}

    def close(self) -> None:
        if self.vetl is not None:
            self.vetl.close()


def extra_setups(args, n: int) -> list[float]:
    """Set the workload up ``n`` more times, each in a fresh interpreter,
    one after the other; each reports its own set-up time."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr[-2000:]}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def provenance(wl: Workload, seed: int) -> dict:
    import duckdb
    import numpy
    import pyspark

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(d, f)
                digest.update(os.path.relpath(p, SRC).encode())
                with open(p, "rb") as fh:
                    digest.update(fh.read())
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        **wl.provenance(),
        "python": platform.python_version(),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "duckdb": duckdb.__version__,
    }


def run(args) -> int:
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    wl = Workload(args.workload, args.seed, workdir)
    try:
        wl.setup()
        setup_s = process_age_s()
        if args.setup_only:
            print(setup_s)
            return 0
        return measure(args, wl, setup_s, workdir)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl: Workload, setup_s: float, workdir: str) -> int:
    import layers
    from tracer import Tracer

    passes, failed_pass = [], None
    tracer = None
    n_passes = 1 if args.trace else max(1, int(args.seconds // PASS_S[args.workload]))
    try:
        for _ in range(n_passes):
            passes.append(wl.run_pass(None))
        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            try:
                passes.append(wl.run_pass(tracer))
            finally:
                tracer.close()
    except Exception:  # a pass that raises is a failed operation
        failed_pass = traceback.format_exc()
        print(failed_pass, file=sys.stderr)
    prov = provenance(wl, args.seed)
    wl.close()

    ops = [op for p in passes for op in p["ops"]]
    if failed_pass is not None:
        ops.append(("pass", failed_pass.strip().splitlines()[-1]))
    attempted, failed = len(ops), sum(1 for _, why in ops if why)
    for name, why in ops:
        if why:
            print(f"FAILED {name}: {why}")
    for note in sorted({n for p in passes for n in p.get("notes", [])}):
        print(f"ordering (reported, not a check): {note}")
    digests = sorted({p["digest"] for p in passes if p["digest"]})
    for d in digests:
        print(f"RunResult rows sha256: {d}")
    print("provenance: " + json.dumps(prov))
    print("peak_rss_mb covers the benchmark's Python driver process only; "
          "the Spark JVM and Spark's Python workers are excluded.")

    spec = load_spec()
    untraced = passes[:-1] if args.trace else passes
    metrics: dict[str, dict] = {}
    if failed_pass is None:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_frac": (attempted - failed) / attempted,
        }
        if not args.trace:
            values["setup_s"] = statistics.median(
                [setup_s] + extra_setups(args, SETUP_SAMPLES[args.workload] - 1))
        for k in untraced[0]["extra"]:
            values[f"e2e.{k}"] = statistics.median(p["extra"][k] for p in untraced)
        for m in spec["end_to_end"]:
            if m["name"] in values:
                print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']} "
                      f"({m['better']} is better)")
        for m in spec["per_layer"]:
            if m["name"] in values:
                print(f"metric {m['name'][4:]} = {values[m['name']]!r} {m['unit']} "
                      f"({m['better']} is better)")
        print(f"passes: {len(untraced)} untraced" + (", 1 traced" if args.trace else ""))
        if args.trace:
            traced = passes[-1]
            values.update(layers.reduce(tracer, traced["from_pass"]))
            values["trace.overhead_s"] = traced["wall_s"] - values["wall_s"]
            values["trace.overhead_frac"] = values["trace.overhead_s"] / values["wall_s"]
            tracer.dump(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"))
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        unknown = [m["name"] for m in wanted
                   if m["name"] not in values and not m["name"].startswith("e2e.")]
        if unknown:
            raise KeyError(f"BENCHMARK.json names metrics nobody measures: {unknown}")
        # e2e.* figures a workload does not have read 0 (per-layer only)
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in wanted}

    result = {"correct": failed == 0 and failed_pass is None,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({**result, "provenance": prov, "digests": digests}, f, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print the set-up seconds, exit")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
