"""Per-layer metrics of one traced pass, and the attribution check.

Every ``*_s`` / ``*.s`` metric is the *self* time of a layer's spans in
one pass (duration minus the time child spans cover), so the self times
of all spans plus the benchmark's own code inside the timed units make
up the pass wall exactly; :func:`attribution_problem` checks that the
benchmark's share stays within :data:`ATTRIBUTION_TOLERANCE`.  Layer prefixes are the program's
module paths.  This module does not import the program, so ``run.py``
can read the metric table without it.
"""

from __future__ import annotations

#: Share of a traced pass's wall that may fall outside every span (the
#: benchmark's own code inside the timed units) before the run fails.
ATTRIBUTION_TOLERANCE = 0.03

#: Experiment ids of the paper suite, in ``REGISTRY`` order.
EXPERIMENT_IDS = (
    "fig01", "fig02", "fig04b", "fig05", "fig07", "table1", "fig08", "fig09",
    "fig10", "fig11", "fig12a", "fig12b", "fig13", "table2", "fig14",
    "ablation_a1", "ablation_a2", "ablation_a3", "ablation_a4", "ablation_a5",
    "ext_aging", "ext_cost", "ext_energy", "ext_predictor", "ext_isolation",
    "ext_sensitivity", "ext_generality",
)

#: Self-time metric -> span name.
SELF_TIME = {
    "core.fleet.self_s": "core.fleet",
    "silicon.draw_chips.s": "silicon.draw_chips",
    "silicon.materialize.s": "silicon.materialize",
    "fastpath.compiled.compile_s": "fastpath.compiled.compile",
    "fastpath.compiled.fingerprint_s": "fastpath.compiled.fingerprint",
    "core.char_record.key_s": "core.char_record.key",
    "core.char_record.replay_s": "core.char_record.replay",
    "core.char_record.encode_s": "core.char_record.encode",
    "fastpath.store.open_s": "fastpath.store.open",
    "fastpath.store.get_s": "fastpath.store.get",
    "fastpath.store.put_s": "fastpath.store.put",
    "rng.stream.s": "rng.stream",
    "core.characterize.idle_s": "core.characterize.idle",
    "core.characterize.ubench_s": "core.characterize.ubench",
    "core.characterize.app_s": "core.characterize.app",
    "fastpath.cache.s": "fastpath.cache",
    "fastpath.population.solve_s": "fastpath.population.solve",
    "atm.transient.s": "atm.transient",
    "obs.sinks.emit_s": "obs.sinks.emit",
    "obs.manifest.s": "obs.manifest",
    "obs.tsdb.capture_s": "obs.tsdb.capture",
    "obs.alerts.eval_s": "obs.alerts.eval",
    "obs.openmetrics.s": "obs.openmetrics",
    "experiments.runner.s": "experiments.runner",
    **{f"experiments.{eid}.s": f"experiments.{eid}" for eid in EXPERIMENT_IDS},
}

#: Call-count metric -> span name.
CALLS = {
    "silicon.draw_chips.calls": "silicon.draw_chips",
    "silicon.materialize.calls": "silicon.materialize",
    "fastpath.store.gets": "fastpath.store.get",
    "fastpath.store.puts": "fastpath.store.put",
    "rng.stream.calls": "rng.stream",
    "fastpath.population.batches": "fastpath.population.solve",
    "atm.transient.calls": "atm.transient",
    "obs.sinks.events": "obs.sinks.emit",
}

#: Simulated counts that must repeat exactly for one seed.
EXACT_COUNTS = (
    "core.characterize.probes",
    "fastpath.population.rows",
    "fastpath.store.gets",
    "fastpath.store.puts",
    "obs.sinks.events",
    "obs.tsdb.samples",
    "obs.alerts.fired",
)

_LOWER_COUNTS = (
    "fastpath.compiled.calls",
    "fastpath.store.corrupt",
    "core.characterize.probes",
    "fastpath.cache.evictions",
    "fastpath.population.rows",
    "obs.tsdb.samples",
    "obs.alerts.fired",
)

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    [("import.s", "s", "lower")]
    + [(name, "s", "lower") for name in SELF_TIME]
    + [(name, "count", "lower") for name in CALLS]
    + [(name, "count", "lower") for name in _LOWER_COUNTS]
    + [
        ("fastpath.store.hit_ratio", "ratio", "higher"),
        ("fastpath.store.bytes", "bytes", "lower"),
        ("fastpath.cache.hit_ratio", "ratio", "higher"),
        ("core.characterize.us_per_probe", "us", "lower"),
        ("core.characterize.rollback_ratio", "ratio", "lower"),
        ("obs.sinks.bytes", "bytes", "lower"),
        ("trace.pass_s", "s", "lower"),
        ("trace.attributed_ratio", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, workload_counts: dict, wall: float) -> dict:
    """Per-layer metrics of one traced pass (all but ``import.s`` and
    ``trace.overhead_ratio``, which need more than one pass).

    ``workload_counts`` holds the metrics read from the pass's outputs
    (:meth:`~workloads.Workload.layer_counts`); layers a workload does
    not reach report 0."""
    import repro.fastpath.cache as cache

    self_s, total_s, calls, counts = (
        tracer.self_s, tracer.total_s, tracer.calls, tracer.counts
    )
    metrics = {name: self_s.get(span, 0.0) for name, span in SELF_TIME.items()}
    metrics.update({name: calls.get(span, 0) for name, span in CALLS.items()})

    compile_span = "fastpath.compiled.compile"
    names, parents = tracer.names, tracer.parents
    metrics["fastpath.compiled.calls"] = sum(
        1
        for name, parent in zip(names, parents)
        if name == compile_span and (parent < 0 or names[parent] != compile_span)
    )

    metrics["fastpath.store.hit_ratio"] = _ratio(
        counts.get("fastpath.store.hits", 0), metrics["fastpath.store.gets"]
    )
    metrics["fastpath.store.bytes"] = counts.get("fastpath.store.bytes", 0)

    probes = counts.get("core.characterize.probes", 0)
    metrics["core.characterize.probes"] = probes
    stage_s = sum(
        total_s.get(f"core.characterize.{stage}", 0.0)
        for stage in ("idle", "ubench", "app")
    )
    metrics["core.characterize.us_per_probe"] = _ratio(stage_s * 1e6, probes)
    metrics["core.characterize.rollback_ratio"] = _ratio(
        counts.get("core.characterize.rolled_back", 0),
        counts.get("core.characterize.ubench_cores", 0),
    )

    # The harvest wrapper folded in every reset; the last run's counters
    # are still live in the cache.
    live = cache.get_solve_cache().stats()
    hits = counts.get("fastpath.cache.hits", 0) + live["hits"]
    misses = counts.get("fastpath.cache.misses", 0) + live["misses"]
    metrics["fastpath.cache.hit_ratio"] = _ratio(hits, hits + misses)
    metrics["fastpath.cache.evictions"] = (
        counts.get("fastpath.cache.evictions", 0) + live["evictions"]
    )
    metrics["fastpath.population.rows"] = counts.get("fastpath.population.rows", 0)

    metrics["fastpath.store.corrupt"] = 0
    metrics["obs.sinks.bytes"] = 0
    metrics["obs.tsdb.samples"] = 0
    metrics["obs.alerts.fired"] = 0
    metrics.update(workload_counts)

    attributed = sum(metrics[name] for name in SELF_TIME)
    metrics["trace.pass_s"] = wall
    metrics["trace.attributed_ratio"] = _ratio(attributed, wall)
    return metrics


def attribution_problem(metrics: dict) -> str | None:
    """Why a traced pass fails the attribution check, or ``None``."""
    ratio = metrics["trace.attributed_ratio"]
    if abs(1.0 - ratio) > ATTRIBUTION_TOLERANCE:
        return (
            f"layer self times cover {100.0 * ratio:.2f}% of the traced pass "
            f"wall; tolerance is +-{100.0 * ATTRIBUTION_TOLERANCE:.0f}%"
        )
    return None
