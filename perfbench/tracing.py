"""Spans around the public functions of each layer, for the traced run.

The benchmark changes nothing under ``src/``: :func:`instrument` swaps the
public entry points of each layer for thin wrappers while the traced phase
runs and restores the originals afterwards.  Each wrapper records one span
(name, start, end, parent span, thread) and, where the layer keeps its own
counters (``EngineStatistics``, ``CharacterizationStats``), adds the
counter delta of the call.  Spans stay in memory until :meth:`Tracer.dump`
writes them out at the end of the run.

Worker processes of the analysis service are spawned from a fresh import,
so nothing inside them is wrapped; their counters come from the daemon's
``status`` endpoint instead.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
import types
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Prefix of the benchmark's own phase spans; their self time is the
#: benchmark's glue, every other span is time spent in a layer.
BENCH_PREFIX = "bench."


class NullTracer:
    """Tracing switched off: spans cost one no-op context manager."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: float = 1) -> None:
        pass

    def high_water(self, name: str, value: float) -> None:
        pass


class Tracer:
    """In-memory span and counter recorder, safe across threads."""

    def __init__(self) -> None:
        #: ``(span_id, name, start, end, parent_id, thread_id)``; parent 0 = root.
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> Tuple[List[int], int, int, float]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return stack, span_id, parent, time.perf_counter()

    def _exit(self, name: str, stack: List[int], span_id: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        state = self._enter()
        try:
            yield
        finally:
            self._exit(name, *state)

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def high_water(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0), value)

    # ------------------------------------------------------------- analysis

    def _span_self_times(self, thread: Optional[int] = None) -> Iterator[Tuple[str, float]]:
        """``(name, self time)`` of every span, or of one thread's spans.

        Self time is the duration minus the child durations.  Children of
        one span run on the span's own thread and never overlap, so their
        durations add up to the part of the parent's interval they cover.
        """
        spans = [span for span in self.spans if thread is None or span[5] == thread]
        child_time: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent:
                child_time[parent] += end - start
        for span_id, name, start, end, _, _ in spans:
            yield name, (end - start) - child_time.get(span_id, 0.0)

    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for name, seconds in self._span_self_times():
            totals[name] += seconds
        return dict(totals)

    def coverage(self) -> Tuple[float, float]:
        """``(wall_s, layer_share)`` over the benchmark's own thread.

        The wall time is the summed duration of the benchmark's root
        phase spans; the layer share is the part of it not left as self
        time of a benchmark span.
        """
        main = threading.main_thread().ident
        wall = sum(
            end - start
            for _, name, start, end, parent, thread in self.spans
            if thread == main and not parent and name.startswith(BENCH_PREFIX)
        )
        glue = sum(
            seconds
            for name, seconds in self._span_self_times(main)
            if name.startswith(BENCH_PREFIX)
        )
        return wall, (1.0 - glue / wall) if wall > 0 else 0.0

    def dump(self, path) -> None:
        """Write every recorded span and counter as JSON."""
        payload = {
            "spans": [
                {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "thread": thread,
                }
                for span_id, name, start, end, parent, thread in self.spans
            ],
            "counters": dict(self.counters),
            "self_times": self.self_times(),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")


# ---------------------------------------------------------------- wrappers

def _traced_call(
    tracer: Tracer,
    name: str,
    fn: Callable,
    *,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    """``fn`` recorded as one span; ``before``/``after`` collect counters."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        snapshot = before(*args, **kwargs) if before is not None else None
        state = tracer._enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer._exit(name, *state)
        if after is not None:
            after(snapshot, result, *args, **kwargs)
        return result

    return traced


def _traced_iter(
    tracer: Tracer,
    name: str,
    iterator: Iterator,
    *,
    on_item: Optional[Callable] = None,
    on_done: Optional[Callable] = None,
) -> Iterator:
    """Re-yield ``iterator`` with one span per ``next()`` it takes."""
    while True:
        state = tracer._enter()
        try:
            item = next(iterator)
        except StopIteration:
            tracer._exit(name, *state)
            if on_done is not None:
                on_done()
            return
        except BaseException:
            tracer._exit(name, *state)
            raise
        tracer._exit(name, *state)
        if on_item is not None:
            on_item(item)
        yield item


def _plan(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """``(owner, attribute, replacement)`` for every wrapped entry point."""
    from repro.api import report as report_module
    from repro.api import session as session_module
    from repro.api import wire
    from repro.characterization.characterizer import LibraryCharacterizer
    from repro.characterization.diskcache import PersistentCharacterizationCache
    from repro.noise.builder import ClusterModelBuilder
    from repro.noise.engine import DedicatedNoiseEngine
    from repro.noise.macromodel import MacromodelAnalysis
    from repro.service import client as client_module
    from repro.service import protocol as protocol_module
    from repro.service import server as server_module
    from repro.sna import stream as stream_module

    plan: List[Tuple[object, str, object]] = []

    def method(owner, attribute, name, **hooks):
        traced = _traced_call(tracer, name, getattr(owner, attribute), **hooks)
        plan.append((owner, attribute, traced))

    # sna.spef and sna.stream are generators: one span per next().
    parse_spef = stream_module.parse_spef

    def traced_parse(source):
        return _traced_iter(
            tracer,
            "spef.parse",
            iter(parse_spef(source)),
            on_item=lambda _event: tracer.count("spef.events"),
        )

    plan.append((stream_module, "parse_spef", traced_parse))

    extract = stream_module.StreamingClusterExtractor.extract

    def traced_extract(self, events):
        return _traced_iter(
            tracer,
            "stream.extract",
            extract(self, events),
            on_item=lambda _item: tracer.count("stream.clusters"),
            on_done=lambda: tracer.high_water(
                "stream.peak_open_nets", self.stats.peak_open_nets
            ),
        )

    plan.append((stream_module.StreamingClusterExtractor, "extract", traced_extract))

    # characterization: per-kind spans plus the characterizer's own counters.
    def stats_snapshot(characterizer, *args, **kwargs):
        stats = characterizer.stats
        return (
            stats.miss_count(),
            stats.hit_count(),
            stats.disk_hit_count(),
            stats.miss_count("thevenin"),
        )

    def stats_delta(snapshot, _result, characterizer, *args, **kwargs):
        stats = characterizer.stats
        misses, hits, disk_hits, thevenin = snapshot
        tracer.count("characterize.lookups")
        tracer.count("characterize.misses", stats.miss_count() - misses)
        tracer.count("characterize.memory_hits", stats.hit_count() - hits)
        tracer.count("characterize.disk_hits", stats.disk_hit_count() - disk_hits)
        tracer.count("characterize.thevenin_misses", stats.miss_count("thevenin") - thevenin)

    for attribute, name in (
        ("load_surface", "characterize.vccs"),
        ("thevenin_driver", "characterize.thevenin"),
        ("noise_rejection_curve", "characterize.nrc"),
    ):
        method(LibraryCharacterizer, attribute, name, before=stats_snapshot, after=stats_delta)

    # characterization.diskcache
    def counted_get(_snapshot, _result, *args, **kwargs):
        tracer.count("diskcache.gets")

    def counted_put(_snapshot, stored, cache, fingerprint, key, value):
        tracer.count("diskcache.puts")
        if stored:
            tracer.count("diskcache.bytes", cache.path_for(fingerprint, key).stat().st_size)

    method(PersistentCharacterizationCache, "get", "diskcache.get", after=counted_get)
    method(PersistentCharacterizationCache, "put", "diskcache.put", after=counted_put)

    # noise.builder, noise.macromodel, noise.engine, noise.analysis
    method(ClusterModelBuilder, "wiring_network", "build.network")
    method(MacromodelAnalysis, "build_network", "build.network")

    def engine_delta(_snapshot, _result, engine, *args, **kwargs):
        stats = engine.statistics
        tracer.count("engine.calls")
        tracer.count("engine.newton_iterations", stats.newton_iterations)
        tracer.count("engine.time_points", stats.num_time_points)
        tracer.count("engine.factorizations", stats.matrix_factorizations)
        tracer.count("engine.factorizations_saved", stats.factorizations_saved)

    method(DedicatedNoiseEngine, "simulate", "engine.simulate", after=engine_delta)
    method(session_module, "check_against_nrc", "nrc.check")

    # api.session and api.report
    method(session_module.NoiseAnalysisSession, "analyze", "session.analyze")
    method(session_module.NoiseAnalysisSession, "run_design", "session.run_design")
    method(report_module.SessionReport, "to_json", "report.to_json")
    for cls in (report_module.SessionReport, report_module.ClusterReport):
        from_json = cls.__dict__["from_json"].__func__
        plan.append((cls, "from_json", classmethod(_traced_call(tracer, "wire.decode", from_json))))

    # service and api.wire: only the codec calls the service modules make
    # are wired through a traced copy of the wire module, so the report
    # encoding above and the fingerprint's own encoding stay separate.
    traced_wire = types.ModuleType(wire.__name__)
    traced_wire.__dict__.update(vars(wire))
    traced_wire.encode = _traced_call(tracer, "wire.encode", wire.encode)
    traced_wire.decode = _traced_call(tracer, "wire.decode", wire.decode)
    for module in (client_module, server_module):
        plan.append((module, "wire", traced_wire))
    for module in (protocol_module, client_module):
        method(module, "dump_message", "wire.encode")
        method(module, "parse_message", "wire.decode")
    method(server_module, "cluster_fingerprint", "service.fingerprint")
    return plan


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap every layer's entry points for the duration of the block."""
    plan = _plan(tracer)
    originals = [(owner, attribute, owner.__dict__[attribute]) for owner, attribute, _ in plan]
    for owner, attribute, replacement in plan:
        setattr(owner, attribute, replacement)
    try:
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
