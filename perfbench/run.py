#!/usr/bin/env python3
"""End-to-end benchmark: a synthetic chip's SPEF in, NRC verdicts out.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_chip --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end metric
of ``BENCHMARK.json``; ``--trace 1`` runs set-up and the timed loop with
every layer wrapped and prints every per-layer metric, including the
tracing overhead against an untraced loop of the same length.  The last
line of standard output is one JSON object; human-readable lines precede
it.  The program is imported from ``src/`` of the same checkout; without
it the benchmark exits with code 2 and prints no result.  See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import json
import multiprocessing
import multiprocessing.util
import os
import resource
import shutil
import statistics
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

from tracing import NullTracer, Tracer, instrument

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
#: Private caches and temporary files of one run; removed when it ends.
WORK = ROOT / ".perfbench_work"
#: Span dumps of traced runs.
OUT = ROOT / ".perfbench_out"

#: Per-layer metrics that are the summed self time of one span name.
SELF_TIME_METRICS = {
    "spef.parse_s": "spef.parse",
    "stream.extract_s": "stream.extract",
    "characterize.vccs_s": "characterize.vccs",
    "characterize.thevenin_s": "characterize.thevenin",
    "characterize.nrc_s": "characterize.nrc",
    "diskcache.get_s": "diskcache.get",
    "diskcache.put_s": "diskcache.put",
    "build.network_s": "build.network",
    "engine.simulate_s": "engine.simulate",
    "nrc.check_s": "nrc.check",
    "session.analyze_s": "session.analyze",
    "session.run_design_s": "session.run_design",
    "report.to_json_s": "report.to_json",
    "report.dumps_s": "report.dumps",
    "library.build_s": "library.build",
    "service.fingerprint_s": "service.fingerprint",
    "service.wire_encode_s": "wire.encode",
    "service.wire_decode_s": "wire.decode",
    "service.submit_s": "service.submit",
}
#: Per-layer metrics read straight from a tracer counter.
COUNTER_METRICS = (
    "spef.events",
    "stream.clusters",
    "stream.peak_open_nets",
    "characterize.misses",
    "characterize.thevenin_misses",
    "diskcache.gets",
    "diskcache.puts",
    "diskcache.bytes",
    "engine.calls",
    "engine.newton_iterations",
    "engine.time_points",
    "engine.factorizations",
    "engine.factorizations_saved",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if this run started it, and
    wait for it to end."""
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def stop_child_processes() -> None:
    """Stop every process this run started and wait for each to end.

    The daemon joins its spawn workers itself; this also catches any it
    missed.  Its spawn pool also starts multiprocessing's resource tracker,
    which is built to outlive its parent: it ends only when the last holder
    of its pipe closes it.  It is stopped at interpreter exit, after the
    exit finalizers of higher priority have unlinked the pool's semaphores,
    so it finds none left to clean up.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join(10.0)
    multiprocessing.util.Finalize(None, stop_resource_tracker, exitpriority=-100)


def untraced(workload, args):
    """Set-up and timed loop with tracing off: the end-to-end metrics."""
    workload.setup()
    workload.measure(args.seconds)
    workload.finish()
    values = {
        "setup_s": (
            statistics.median(workload.setup_seconds),
            "s",
            f"median of {len(workload.setup_seconds)} set-ups",
        ),
        **workload.metrics(),
        "peak_rss_mb": (peak_rss_mb(), "MB", "client process, whole run"),
    }
    run = workload.run
    values["failed_fraction"] = (
        run.failed / run.attempted if run.attempted else 1.0,
        "ratio",
        f"{run.failed} failed of {run.attempted} clusters attempted",
    )
    return values


def traced(workload, args):
    """Traced set-up, an untraced and a traced loop of equal length."""
    run = workload.run
    tracer = Tracer()
    null = run.tracer
    run.tracer = tracer
    with instrument(tracer):
        workload.setup()
    run.tracer = null
    start = time.perf_counter()
    units = workload.measure(args.seconds)
    untraced_s = time.perf_counter() - start
    run.tracer = tracer
    start = time.perf_counter()
    with instrument(tracer):
        workload.measure(args.seconds, units=units)
    traced_s = time.perf_counter() - start
    run.tracer = null
    retained = workload.retained_kb_per_cluster()
    workload.finish()

    self_times = tracer.self_times()
    counters = tracer.counters
    wall, coverage = tracer.coverage()
    values = {
        name: (
            (self_times[span], "s", "self time")
            if span in self_times
            else (0.0, "s", "not applicable: the layer does not run in this workload")
        )
        for name, span in SELF_TIME_METRICS.items()
    }
    values.update({name: (counters.get(name, 0), "", "") for name in COUNTER_METRICS})
    lookups = counters.get("characterize.lookups", 0)
    values["characterize.hit_ratio"] = (
        (counters.get("characterize.memory_hits", 0) + counters.get("characterize.disk_hits", 0))
        / lookups
        if lookups
        else 0.0,
        "ratio",
        f"lookups served from memory or disk, of {lookups:.0f}",
    )
    values["report.bytes"] = (workload.report_bytes, "bytes", "one serialized report")
    values["session.retained_kb_per_cluster"] = (retained, "KB", "tracemalloc, one report")
    values.update(
        {name: (value, "", note) for name, (value, note) in workload.layer_counters().items()}
    )
    values["trace.wall_s"] = (wall, "s", "benchmark phase spans, traced")
    values["trace.coverage"] = (coverage, "ratio", "share of traced wall time in layer spans")
    values["trace.overhead_pct"] = (
        100.0 * (traced_s - untraced_s) / untraced_s,
        "%",
        f"traced {traced_s:.3f} s vs untraced {untraced_s:.3f} s over {units} units",
    )
    values["trace.spans"] = (len(tracer.spans), "", "spans recorded")

    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2

    workspace = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workspace.mkdir(parents=True)
    # Isolation: anything resolving the default cache or a temp file lands
    # in this run's private workspace (spawned daemon workers inherit it).
    os.environ["REPRO_CACHE_DIR"] = str(workspace / "default-cache")
    os.environ["TMPDIR"] = str(workspace)
    sys.path.insert(0, str(SOURCE))
    try:
        from workloads import WORKLOADS, Run

        run = Run(workspace, args.seed, NullTracer())
        workload = WORKLOADS[args.workload](run)
        try:
            if args.trace:
                values = traced(workload, args)
                wanted = declared["per_layer"]
            else:
                values = untraced(workload, args)
                wanted = declared["end_to_end"]
        finally:
            workload.close()
    finally:
        stop_child_processes()
        shutil.rmtree(workspace, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    declared_units = {m["name"]: m["unit"] for m in wanted}
    for name, (value, unit, note) in values.items():
        print(f"{name:36s} {value:14.6g} {declared_units.get(name, unit):10s} {note}")
    for note in run.notes:
        print(f"note: {note}")
    for failure in run.failures:
        print(f"CHECK FAILED: {failure}")
    metrics = {
        metric["name"]: {"value": values[metric["name"]][0], "unit": metric["unit"]}
        for metric in wanted
    }
    correct = not run.failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
