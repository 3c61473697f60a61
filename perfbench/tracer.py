"""In-memory span tracer and the wrappers that attach it to the program.

Spans are recorded from outside the program: :func:`instrument` swaps
each wrapped function for a timing wrapper *at the attribute its caller
looks it up from* (``core/fleet.py`` imports names directly, so its own
module namespace is patched, not only the defining module), and puts the
originals back on exit.  Untraced passes therefore run the unmodified
program.

A span is ``(name, start, end, parent span, op id)``.  Self time is the
span's duration minus the time its direct children cover; calls are
synchronous, so children never overlap and every instant of a traced
pass belongs to exactly one span's self time or to the benchmark's own
glue between top-level calls.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Span stack plus per-name self/inclusive time, call and work counts."""

    def __init__(self):
        self.clock = time.perf_counter
        self.reset()

    def reset(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[str] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self.op = "pass"

    def enter(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        index = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.ops.append(self.op)
        self.ends.append(0.0)
        now = self.clock()
        self.starts.append(now)
        self._stack.append([name, now, 0.0, index])

    def exit(self) -> None:
        now = self.clock()
        name, start, children, index = self._stack.pop()
        duration = now - start
        self.ends[index] = now
        self.self_s[name] += duration - children
        self.total_s[name] += duration
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def write_spans(self, path) -> int:
        """Write the recorded spans as gzipped JSON lines; returns the count.

        Times are seconds from the first span's start."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for i, name in enumerate(self.names):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_s": round(self.starts[i] - origin, 9),
                            "end_s": round(self.ends[i] - origin, 9),
                            "parent": self.parents[i],
                            "op": self.ops[i],
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        return len(self.names)


def _timed(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(args, result)`` records work counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _op_scope(tracer: Tracer, op_of, fn):
    """Wrap ``fn`` so spans inside it carry the op id ``op_of(args)``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        previous = tracer.op
        tracer.op = op_of(args)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.op = previous

    return wrapper


def _probe_counting(tracer: Tracer, name: str, fn, after=None):
    """Span around a ``Characterizer`` stage method that also counts probes.

    Only the probes this call issued are summed (``_issued_probes`` grows
    by one per trial), so counting stays O(trials) per call.
    """

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        issued = self._issued_probes
        first = len(issued)
        tracer.enter(name)
        try:
            result = fn(self, *args, **kwargs)
        finally:
            tracer.exit()
        tracer.counts["core.characterize.probes"] += sum(
            probe.probe_count for probe in issued[first:]
        )
        if after is not None:
            after(result)
        return result

    return wrapper


def _patch_points(tracer: Tracer):
    """``(owner, attribute, wrapper factory)`` for every traced call site."""
    import repro.atm.multicore_transient as multicore_transient
    import repro.atm.transient as transient
    import repro.core.char_record as char_record
    import repro.core.characterize as characterize
    import repro.core.fleet as fleet
    import repro.experiments as experiments
    import repro.experiments.common as common
    import repro.fastpath.cache as cache
    import repro.fastpath.compiled as compiled
    import repro.fastpath.population as population
    import repro.fastpath.store as store
    import repro.obs.sinks as sinks
    import repro.rng as rng
    import repro.silicon.chipspec as chipspec

    counts = tracer.counts

    def span(name, after=None):
        return lambda fn: _timed(tracer, name, fn, after)

    def count_get(args, result):
        if result is not None:
            counts["fastpath.store.hits"] += 1
            counts["fastpath.store.bytes"] += len(result)

    def count_put(args, result):
        counts["fastpath.store.bytes"] += len(args[3])

    def count_population_rows(args, result):
        counts["fastpath.population.rows"] += len(result)

    def count_rollback(result):
        counts["core.characterize.ubench_cores"] += 1
        if result.needed_rollback:
            counts["core.characterize.rolled_back"] += 1

    solve_cache = cache.get_solve_cache()

    def harvest_cache(fn):
        @functools.wraps(fn)
        def wrapper():
            stats = solve_cache.stats()
            counts["fastpath.cache.hits"] += stats["hits"]
            counts["fastpath.cache.misses"] += stats["misses"]
            counts["fastpath.cache.evictions"] += stats["evictions"]
            return fn()

        return wrapper

    def probe_stage(name, after=None):
        return lambda fn: _probe_counting(tracer, name, fn, after)

    points = [
        (fleet, "draw_chips", span("silicon.draw_chips")),
        (chipspec.ChipDraw, "materialize", span("silicon.materialize")),
        (fleet, "compile_draw", span("fastpath.compiled.compile")),
        (compiled, "compile_chip", span("fastpath.compiled.compile")),
        (compiled, "fingerprint_from_draw", span("fastpath.compiled.fingerprint")),
        (compiled, "fingerprint_of", span("fastpath.compiled.fingerprint")),
        (compiled, "_fingerprint_parts", span("fastpath.compiled.fingerprint")),
        (fleet, "char_key", span("core.char_record.key")),
        (fleet, "decode_char", span("core.char_record.replay")),
        (fleet, "replay_characterization", span("core.char_record.replay")),
        (char_record.CharRecorder, "encode", span("core.char_record.encode")),
        (
            fleet,
            "_characterize_chip",
            lambda fn: _op_scope(tracer, lambda args: args[0].chip_id, fn),
        ),
        (store.SolveStore, "get", span("fastpath.store.get", count_get)),
        (store.SolveStore, "put", span("fastpath.store.put", count_put)),
        (rng.RngStreams, "stream", span("rng.stream")),
        (
            characterize.Characterizer,
            "characterize_idle",
            probe_stage("core.characterize.idle"),
        ),
        (
            characterize.Characterizer,
            "characterize_ubench",
            probe_stage("core.characterize.ubench", count_rollback),
        ),
        (
            characterize.Characterizer,
            "characterize_app",
            probe_stage("core.characterize.app"),
        ),
        (fleet, "solve_chips_cached", span("fastpath.cache")),
        (population, "solve_chips_cached", span("fastpath.cache")),
        (
            population,
            "solve_many_compiled",
            span("fastpath.population.solve", count_population_rows),
        ),
        (
            population,
            "solve_population_compiled",
            span("fastpath.population.solve", count_population_rows),
        ),
        (cache, "reset_solve_cache", harvest_cache),
        (transient.TransientSimulator, "run", span("atm.transient")),
        (multicore_transient.MulticoreTransientSimulator, "run", span("atm.transient")),
        (sinks.JsonlFileSink, "emit", span("obs.sinks.emit")),
        (common, "build_manifest", span("obs.manifest")),
        (common, "save_manifest", span("obs.manifest")),
    ]
    # REGISTRY is the dict run_experiment looks each experiment up in; the
    # worker sets the op id to the experiment before each unit.
    points += [
        (experiments.REGISTRY, experiment_id, span(f"experiments.{experiment_id}"))
        for experiment_id in list(experiments.REGISTRY)
    ]
    return points


def _get(owner, attribute):
    return owner[attribute] if isinstance(owner, dict) else getattr(owner, attribute)


def _set(owner, attribute, value) -> None:
    if isinstance(owner, dict):
        owner[attribute] = value
    else:
        setattr(owner, attribute, value)


@contextmanager
def instrument(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attribute, factory in _patch_points(tracer):
            original = _get(owner, attribute)
            saved.append((owner, attribute, original))
            _set(owner, attribute, factory(original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            _set(owner, attribute, original)
