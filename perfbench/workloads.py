"""The benchmark's workloads: one synthetic chip, SPEF in, NRC verdicts out.

Every workload drives the public path

    SyntheticChip.spef_lines -> StreamingClusterExtractor.extract
      -> NoiseAnalysisSession.run_design(stream=) -> SessionReport.to_json

(or the same clusters through the ``repro.service`` daemon) and checks
every verdict it produces.  A workload runs in three steps: ``setup``
(repeated, timed, median reported), ``measure`` (a closed loop of passes or
ECO steps for at least the requested seconds) and ``finish`` (output checks
outside the timed region, daemon shutdown).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import random
import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import AnalysisConfig, NoiseAnalysisSession
from repro.api.report import ClusterReport, SessionReport
from repro.service import ServiceClient, start_server_in_thread
from repro.sna import StreamingClusterExtractor, SyntheticChip
from repro.technology import build_default_library
from repro.units import ps

#: The chip every workload analyses: 64 nets, 63 noise clusters.
CHIP = {"num_nets": 64, "bus_width": 8, "topology": "grid", "driverless_every": 97}
TECHNOLOGY = "cmos130"
#: An ECO revision shifts the aggressor switch times of one cluster in eight,
#: the same seeded set in every revision of a run.
ECO_SHARE = 8
#: Each ECO revision shifts by a new multiple of this, so no ECO cluster
#: ever repeats an earlier fingerprint.
ECO_SHIFT = ps(0.5)
#: Relative peak drift tolerated against the recorded reference: the
#: ROADMAP's accuracy drift budget.  Within one run the checks are exact.
REFERENCE_RTOL = 5e-3

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def make_chip(seed: int) -> SyntheticChip:
    return SyntheticChip(seed=seed, **CHIP)


def analysis_config(cache_dir: Path) -> AnalysisConfig:
    """Macromodel plus NRC at dt = 2 ps, one in-process worker."""
    return AnalysisConfig(
        methods=("macromodel",),
        dt=ps(2),
        check_nrc=True,
        max_workers=1,
        cache_dir=str(cache_dir),
    )


def verdicts(report: SessionReport) -> Dict[str, Tuple[float, bool, float]]:
    """``victim -> (peak V, NRC fails, NRC margin)`` of every analysed cluster."""
    table = {}
    for cluster in report.clusters:
        if cluster.ok:
            check = cluster.nrc_check()
            table[cluster.victim_net or cluster.label] = (
                cluster.primary.peak,
                check.fails,
                check.margin,
            )
    return table


def canonical(cluster: ClusterReport) -> str:
    """A cluster report's wire JSON without its merge-time provenance."""
    payload = cluster.to_json()
    payload["payload"]["fields"]["provenance"] = ""
    return json.dumps(payload, sort_keys=True)


class Run:
    """State and bookkeeping shared by one benchmark run."""

    def __init__(self, workspace: Path, seed: int, tracer) -> None:
        self.workspace = workspace
        self.seed = seed
        self.tracer = tracer
        self.chip = make_chip(seed)
        self.failures: List[str] = []
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self._dirs = 0

    def fresh_dir(self, stem: str) -> Path:
        self._dirs += 1
        path = self.workspace / f"{stem}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def tally(self, report: SessionReport) -> None:
        """Count a report's clusters as attempted and its errors as failed."""
        self.attempted += len(report.clusters)
        self.failed += len(report.errors)
        for cluster in report.errors[:3]:
            self.failures.append(f"cluster {cluster.label} failed: {cluster.error.summary()}")

    def same_verdicts(self, got: Dict, expected: Dict, what: str) -> None:
        """Bit-for-bit agreement of peak, verdict and margin per victim."""
        if got == expected:
            return
        missing = sorted(set(expected) ^ set(got))
        differing = sorted(net for net in set(expected) & set(got) if got[net] != expected[net])
        self.failures.append(
            f"{what}: {len(missing)} victims missing/extra {missing[:3]}, "
            f"{len(differing)} differ {differing[:3]}"
        )

    def check_reference(self, got: Dict) -> None:
        """Compare against the recorded reference, when this seed has one."""
        if not REFERENCE_FILE.is_file():
            self.notes.append("no recorded reference file; in-run checks only")
            return
        recorded = json.loads(REFERENCE_FILE.read_text())
        entry = recorded["seeds"].get(str(self.seed))
        if entry is None:
            self.notes.append(f"seed {self.seed} has no recorded reference; in-run checks only")
            return
        if sorted(entry) != sorted(got):
            self.failures.append("victim set differs from the recorded reference")
            return
        drift = [
            net
            for net, (peak, fails) in entry.items()
            if got[net][1] != fails or abs(got[net][0] - peak) > REFERENCE_RTOL * abs(peak)
        ]
        if drift:
            self.failures.append(
                f"{len(drift)} victims drift from the recorded reference: {drift[:3]}"
            )
        else:
            self.notes.append(f"matches the recorded reference of seed {self.seed}")


# ------------------------------------------------------------ design passes


@dataclasses.dataclass
class Pass:
    """One SPEF -> verdicts pass in-process."""

    session: NoiseAnalysisSession
    report: SessionReport
    seconds: float
    report_bytes: int


def design_pass(run: Run, lines: List[str], cache_dir: Path) -> Pass:
    """Fresh library and session over ``cache_dir``; SPEF lines to JSON report."""
    tracer = run.tracer
    start = time.perf_counter()
    with tracer.span("library.build"):
        library = build_default_library(TECHNOLOGY)
    session = NoiseAnalysisSession(library, analysis_config(cache_dir))
    extractor = StreamingClusterExtractor(run.chip, library.technology)
    report = session.run_design(
        stream=extractor.extract(lines), design_name=f"chip-{run.seed}"
    )
    with tracer.span("report.dumps"):
        size = len(json.dumps(report.to_json()))
    seconds = time.perf_counter() - start
    run.tally(report)
    return Pass(session=session, report=report, seconds=seconds, report_bytes=size)


def eco_revision(
    run: Run, base: List[Tuple[str, object]], step: int
) -> Tuple[List[Tuple[str, object]], List[str]]:
    """The base clusters with the run's one-in-eight set shifted for ``step``."""
    rng = random.Random(f"eco:{run.seed}")
    chosen = set(rng.sample(range(len(base)), max(1, round(len(base) / ECO_SHARE))))
    shift = ECO_SHIFT * (step + 1)
    revision = []
    for index, (label, spec) in enumerate(base):
        if index in chosen:
            spec = dataclasses.replace(
                spec,
                aggressors=[a.with_switch_time(a.switch_time + shift) for a in spec.aggressors],
            )
        revision.append((label, spec))
    return revision, sorted(base[index][0] for index in chosen)


class DesignWorkload:
    """In-process passes over the chip (``cold_chip`` and ``warm_chip``)."""

    #: Setup repetitions whose median is ``setup_s``.
    setup_repeats = 5
    #: Timed passes (ECO steps) run even when they outlast ``--seconds``.
    min_units = 2
    #: The percentile ``cluster_ms_p95`` reports on this workload, fixed so
    #: the statistic never depends on how many passes fit in ``--seconds``.
    #: It is taken over each cluster's median runtime across the timed
    #: passes (ECO steps), which keeps a host hiccup in one pass out of it.
    tail_percentile = 90
    #: In-process ECO revisions (each followed by an identical re-run).
    eco_repeats = 2

    def __init__(self, run: Run) -> None:
        self.run = run
        self.setup_seconds: List[float] = []
        self.pass_seconds: List[float] = []
        self.cluster_runs: Dict[str, List[float]] = defaultdict(list)
        self.eco_seconds: List[float] = []
        self.resubmit_seconds: List[float] = []
        self.report_bytes = 0
        self.clusters = 0
        self.reference: Optional[Dict] = None
        self.last: Optional[Pass] = None
        self.eco_step = 0

    # ---------------------------------------------------------------- setup

    def setup_once(self) -> None:
        """Generate the SPEF lines and extract the clusters once."""
        run = self.run
        with run.tracer.span("library.build"):
            technology = build_default_library(TECHNOLOGY).technology
        self.lines = list(run.chip.spef_lines(technology))
        self.extractions = list(
            StreamingClusterExtractor(run.chip, technology).extract(self.lines)
        )
        self.clusters = len(self.extractions)

    def setup(self) -> None:
        for _ in range(self.setup_repeats):
            start = time.perf_counter()
            with self.run.tracer.span("bench.setup"):
                self.setup_once()
            self.setup_seconds.append(time.perf_counter() - start)

    # -------------------------------------------------------------- measure

    def cache_for_pass(self) -> Path:
        return self.run.fresh_dir("cold-cache")

    def one_pass(self) -> None:
        run = self.run
        with run.tracer.span("bench.pass"):
            result = design_pass(run, self.lines, self.cache_for_pass())
        self.check_pass(result)
        self.pass_seconds.append(result.seconds)
        for cluster in result.report.clusters:
            self.cluster_runs[cluster.label].append(cluster.runtime_seconds * 1e3)
        self.report_bytes = self.report_bytes or result.report_bytes
        self.last = result

    def check_pass(self, result: Pass) -> None:
        self.record_reference(result)

    def record_reference(self, result: Pass) -> None:
        """The first cold pass is the run's reference; later ones must match it."""
        got = verdicts(result.report)
        if self.reference is None:
            self.run.expect(
                len(got) == self.clusters, f"{len(got)} of {self.clusters} clusters analysed"
            )
            self.reference = got
            self.run.check_reference(got)
        else:
            self.run.same_verdicts(got, self.reference, "cold pass vs the first cold pass")

    def one_eco(self) -> None:
        """An ECO revision, then the same revision again, in the last session."""
        run, session = self.run, self.last.session
        base = [(item.victim_net, item.spec) for item in self.extractions]
        revision, changed = eco_revision(run, base, self.eco_step)
        self.eco_step += 1
        items = [
            dataclasses.replace(item, spec=spec)
            for item, (_, spec) in zip(self.extractions, revision)
        ]
        results = []
        for samples in (self.eco_seconds, self.resubmit_seconds):
            with run.tracer.span("bench.eco"):
                start = time.perf_counter()
                report = session.run_design(stream=iter(items), design_name="eco")
                with run.tracer.span("report.dumps"):
                    json.dumps(report.to_json())
                samples.append(time.perf_counter() - start)
            run.tally(report)
            results.append(verdicts(report))
        eco, again = results
        run.same_verdicts(again, eco, "in-process ECO re-run vs the ECO run")
        unchanged = {net: value for net, value in eco.items() if net not in changed}
        expected = {net: value for net, value in self.reference.items() if net not in changed}
        run.same_verdicts(unchanged, expected, "unchanged ECO clusters vs the base pass")

    def retained_kb_per_cluster(self) -> float:
        """Memory a finished design report holds, per cluster (tracemalloc)."""
        items = self.extractions
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = self.last.session.run_design(stream=iter(items), design_name="retained")
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        self.run.tally(report)
        return (after - before) / len(report) / 1e3

    def measure(self, seconds: float, units: Optional[int] = None) -> int:
        """Closed loop for ``seconds`` (or exactly ``units`` iterations)."""
        start = time.perf_counter()
        done = 0
        while (
            done < units
            if units is not None
            else time.perf_counter() - start < seconds or done < self.min_units
        ):
            self.one_unit()
            done += 1
        self.after_loop()
        return done

    def one_unit(self) -> None:
        self.one_pass()

    def after_loop(self) -> None:
        for _ in range(self.eco_repeats):
            self.one_eco()

    def finish(self) -> None:
        pass

    def close(self) -> None:
        pass

    def layer_counters(self) -> Dict[str, Tuple[float, str]]:
        """Daemon-side per-layer counters with a note on where they come from.

        No daemon runs in-process, so these are constant placeholders here.
        """
        note = "not applicable: no daemon in this workload (constant placeholder)"
        return {
            "service.dedup_hit_ratio": (0.0, note),
            "service.worker_characterizations": (0, note),
            "service.worker_disk_hits": (0, note),
        }

    # -------------------------------------------------------------- metrics

    def cluster_percentiles(self, over: str) -> Dict[str, Tuple[float, str, str]]:
        """``cluster_ms_p50`` and, under the name ``cluster_ms_p95``, the tail
        percentile of the per-cluster median runtimes."""
        samples = [statistics.median(runs) for runs in self.cluster_runs.values()]
        q = self.tail_percentile
        what = f"{len(samples)} per-cluster median runtimes over {over}"
        return {
            "cluster_ms_p50": (statistics.median(samples), "ms", f"median of {what}"),
            "cluster_ms_p95": (
                statistics.quantiles(samples, n=100, method="inclusive")[q - 1],
                "ms",
                f"p{q} of {what}",
            ),
        }

    def metrics(self) -> Dict[str, Tuple[float, str, str]]:
        return {
            "clusters_per_s": (
                statistics.median([self.clusters / s for s in self.pass_seconds]),
                "clusters/s",
                f"median of {len(self.pass_seconds)} passes of {self.clusters} clusters",
            ),
            **self.cluster_percentiles(f"{len(self.pass_seconds)} passes"),
            "eco_s": (
                statistics.median(self.eco_seconds),
                "s",
                f"median of {len(self.eco_seconds)} in-process ECO revisions",
            ),
            "resubmit_s": (
                statistics.median(self.resubmit_seconds),
                "s",
                f"median of {len(self.resubmit_seconds)} in-process re-runs",
            ),
            "report_kb_per_cluster": (
                self.report_bytes / self.clusters / 1e3,
                "KB",
                f"{self.report_bytes} bytes / {self.clusters} clusters",
            ),
        }


class ColdChip(DesignWorkload):
    """Every pass characterizes from scratch into an empty disk cache."""


class WarmChip(DesignWorkload):
    """Passes read a disk cache filled by one cold pass at set-up."""

    setup_repeats = 2
    #: Every cluster's median runtime rests on at least four warm passes.
    min_units = 4
    tail_percentile = 95

    def setup(self) -> None:
        self.setup_once()
        for _ in range(self.setup_repeats):
            start = time.perf_counter()
            with self.run.tracer.span("bench.setup"):
                cache_dir = self.run.fresh_dir("warm-cache")
                fill = design_pass(self.run, self.lines, cache_dir)
            self.setup_seconds.append(time.perf_counter() - start)
            self.record_reference(fill)
        self.cache_dir = cache_dir

    def cache_for_pass(self) -> Path:
        return self.cache_dir

    def check_pass(self, result: Pass) -> None:
        stats = result.session.characterizer.stats
        self.run.expect(
            stats.miss_count() == 0 and stats.disk_hit_count() > 0,
            f"warm pass characterized {stats.miss_count()} arcs "
            f"with {stats.disk_hit_count()} disk hits",
        )
        self.run.same_verdicts(verdicts(result.report), self.reference, "warm pass vs cold pass")


# ------------------------------------------------------------------ service


class ServiceEco(DesignWorkload):
    """ECO revisions through the analysis daemon over one connection."""

    setup_repeats = 2
    #: Every ECO cluster's median runtime rests on at least four steps.
    min_units = 4

    def __init__(self, run: Run) -> None:
        super().__init__(run)
        self.handle = None
        self.client = None
        # One core stays with the client process that hosts the daemon thread.
        self.num_workers = min(2, max(1, (os.cpu_count() or 1) - 1))
        self.step_seconds: List[float] = []
        self.recomputed: List[Tuple[str, object, ClusterReport]] = []
        self.status: Dict = {}

    def setup(self) -> None:
        self.setup_once()
        self.base = [(item.victim_net, item.spec) for item in self.extractions]
        for repeat in range(self.setup_repeats):
            if repeat:
                self.stop_daemon()
            start = time.perf_counter()
            with self.run.tracer.span("bench.setup"):
                self.cache_dir = self.run.fresh_dir("service-cache")
                self.prefill = design_pass(self.run, self.lines, self.cache_dir)
                self.config = analysis_config(self.cache_dir)
                self.handle = start_server_in_thread(
                    config=self.config, num_workers=self.num_workers
                )
                self.client = ServiceClient(self.handle.address)
                base = self.submit("base")
            self.setup_seconds.append(time.perf_counter() - start)
            self.record_reference(self.prefill)
            self.run.same_verdicts(
                verdicts(base.report), self.reference, "daemon base revision vs in-process"
            )
            self.run.expect(
                sorted(base.recomputed) == sorted(label for label, _ in self.base),
                "base revision did not recompute every cluster",
            )
        self.base_canonical = {c.label: canonical(c) for c in base.report.clusters}

    def submit(self, name: str, revision=None):
        with self.run.tracer.span("service.submit"):
            result = self.client.submit_design(
                revision or self.base, config=self.config, design_name=name
            )
        self.run.tally(result.report)
        return result

    def one_step(self) -> None:
        run = self.run
        step = self.eco_step
        self.eco_step += 1
        revision, changed = eco_revision(run, self.base, step)
        with run.tracer.span("bench.step"):
            start = time.perf_counter()
            eco = self.submit(f"eco-{step}", revision)
            middle = time.perf_counter()
            again = self.submit(f"eco-{step}", revision)
            end = time.perf_counter()
        self.eco_seconds.append(middle - start)
        self.resubmit_seconds.append(end - middle)
        self.step_seconds.append(end - start)

        run.expect(
            sorted(eco.recomputed) == changed,
            f"ECO {step} recomputed {eco.recomputed}, expected {changed}",
        )
        run.expect(not again.recomputed, f"resubmit {step} recomputed {again.recomputed}")
        specs = dict(revision)
        for cluster in eco.report.clusters:
            if cluster.label in changed:
                self.cluster_runs[cluster.label].append(cluster.runtime_seconds * 1e3)
                self.recomputed.append((cluster.label, specs[cluster.label], cluster))
            elif canonical(cluster) != self.base_canonical[cluster.label]:
                run.failures.append(f"ECO {step}: reused {cluster.label} differs from the base")
        eco_json = {c.label: canonical(c) for c in eco.report.clusters}
        for cluster in again.report.clusters:
            if canonical(cluster) != eco_json[cluster.label]:
                run.failures.append(f"resubmit {step}: {cluster.label} differs from the ECO")
        if not self.report_bytes:
            self.report_bytes = len(json.dumps(eco.report.to_json()))

    def one_unit(self) -> None:
        self.one_step()

    def after_loop(self) -> None:
        pass

    def retained_kb_per_cluster(self) -> float:
        """Memory the client holds for one merged daemon report, per cluster."""
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = self.submit("retained")
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return (after - before) / len(result.report) / 1e3

    def stop_daemon(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.handle is not None:
            self.handle.stop()
            self.run.expect(not self.handle.thread.is_alive(), "daemon thread still running")
            self.handle = None
        # The daemon kills and joins its workers, but its pool's own manager
        # thread can still be reaping one; active_children() reaps as it polls.
        deadline = time.monotonic() + 30.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        alive = multiprocessing.active_children()
        self.run.expect(not alive, f"{len(alive)} daemon workers still alive")

    def finish(self) -> None:
        """Check every recomputed cluster in-process, then stop the daemon."""
        try:
            self.status = self.client.status()
            jobs = self.status["jobs"]
            lost_or_failed = jobs["lost"] + jobs["failed"]
            self.run.failed += lost_or_failed * self.clusters
            self.run.expect(lost_or_failed == 0, f"daemon jobs lost or failed: {jobs}")
            session = self.prefill.session
            for label, spec, cluster in self.recomputed:
                local = session.analyze(spec, label=label)
                if (local.primary.peak, local.fails) != (cluster.primary.peak, cluster.fails):
                    self.run.failures.append(f"daemon ECO {label} differs from in-process")
        finally:
            self.close()

    def close(self) -> None:
        if self.handle is not None:
            self.stop_daemon()

    def metrics(self) -> Dict[str, Tuple[float, str, str]]:
        steps = len(self.step_seconds)
        return {
            "clusters_per_s": (
                statistics.median([2 * self.clusters / s for s in self.step_seconds]),
                "clusters/s",
                f"median of {steps} ECO steps, {2 * self.clusters} cluster results each",
            ),
            **self.cluster_percentiles(f"{steps} ECO steps"),
            "eco_s": (statistics.median(self.eco_seconds), "s", f"median of {steps} ECO revisions"),
            "resubmit_s": (
                statistics.median(self.resubmit_seconds), "s", f"median of {steps} resubmits"
            ),
            "report_kb_per_cluster": (
                self.report_bytes / self.clusters / 1e3,
                "KB",
                f"{self.report_bytes} bytes / {self.clusters} clusters",
            ),
        }

    def layer_counters(self) -> Dict[str, Tuple[float, str]]:
        """Counters of the last daemon's ``status`` endpoint, over its whole life."""
        cache = self.status["cache_stats"]
        note = "daemon status"
        return {
            "service.dedup_hit_ratio": (self.status["dedup"]["hit_rate"], note),
            "service.worker_characterizations": (cache.get("characterizations", 0), note),
            "service.worker_disk_hits": (cache.get("disk_hits", 0), note),
        }


WORKLOADS = {"cold_chip": ColdChip, "warm_chip": WarmChip, "service_eco": ServiceEco}
