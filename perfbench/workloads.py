"""The benchmark's workloads: passes of timed units, and their output checks.

Every workload drives the program through the same public calls a user
of ``repro fleet characterize`` or ``repro experiment all --out`` makes:

* ``fleet-cold`` -- ``characterize_fleet`` with no store and
  observability off (the default CLI path).  Probe walks and RNG stream
  creation set its wall.
* ``fleet-store`` -- the same fleet into an empty writable store (probe
  walks, record encoding, store writes), then re-run read-only (replay,
  draws, fingerprints and store reads; probe walks bypassed).
* ``paper-suite`` -- ``run_many`` over all ``REGISTRY`` experiments with
  event capture, then each stream folded back through tsdb capture,
  alert evaluation and OpenMetrics rendering.

A pass is a list of short timed units (see :data:`UNIT_CHIPS`);
:meth:`Workload.check` compares each unit's outputs with the stored
reference for the seed (when one exists for this numeric platform) or
with the first pass, and returns how many ops failed.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from contextlib import nullcontext
from functools import partial
from pathlib import Path

#: Chips per fleet pass.
FLEET_CHIPS = 256

#: Chips per ``characterize_fleet`` call.  A pass is many short calls, not
#: one long one: host contention on a shared machine comes in bursts of
#: tens of milliseconds, so only short units are often timed clear of it.
UNIT_CHIPS = 8

#: Seed of the paper's own configuration, where the Fig. 14 headline is
#: pinned by the golden tests.
PAPER_SEED = 2019

#: Fig. 14 headline of the paper (critical-app improvement over static
#: margin, %): default ATM, fine-tuned unmanaged, managed max.
PAPER_FIG14_PCT = {
    "avg_default_atm_pct": 6.1,
    "avg_unmanaged_finetuned_pct": 10.2,
    "avg_managed_max_pct": 15.2,
}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def numeric_platform() -> dict:
    """What exact float results depend on: numpy build and SIMD targets."""
    import numpy as np

    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return {
        "numpy": np.__version__,
        "python": f"{sys.version_info[0]}.{sys.version_info[1]}",
        "simd": sorted(simd.get("found", [])),
    }


def load_reference(seed: int) -> dict | None:
    """The stored reference for ``seed``, if it was made on this platform."""
    path = REFERENCE_DIR / f"seed-{seed}.json"
    if not path.exists():
        return None
    reference = json.loads(path.read_text(encoding="utf-8"))
    if reference.get("platform") != numeric_platform():
        print(
            f"note: {path.name} was recorded on another numeric platform; "
            "checking that passes repeat instead",
            file=sys.stderr,
        )
        return None
    return reference


def paper_error_pp() -> float:
    """Max |simulated - paper| over the Fig. 14 headline at the paper seed."""
    from repro.experiments import run_experiment

    metrics = run_experiment("fig14", seed=PAPER_SEED).metrics
    return max(abs(metrics[name] - paper) for name, paper in PAPER_FIG14_PCT.items())


class Workload:
    """One workload: untimed set-up, then passes made of timed units.

    :meth:`units` lists one pass's units as ``(unit id, callable)``; the
    worker times each call.  Units that are ops (a call over
    :data:`UNIT_CHIPS` chips, or one experiment) have a :meth:`summary`
    that must equal the stored reference for the seed, or, without one,
    the first pass's.
    """

    name = ""
    #: Key of this workload's unit summaries in the reference file.
    reference_key = ""

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.reference = load_reference(seed)
        self._first: dict | None = None

    def setup(self) -> None:
        """Warm up lazily built state; untimed, counted in ``setup_s``."""

    def units(self, tracer=None) -> list[tuple[str, object]]:
        raise NotImplementedError

    def unit_ops(self, unit_id: str) -> int:
        raise NotImplementedError

    def summary(self, unit_id: str, output) -> dict | None:
        """What is checked of one unit's output (``None``: not an op)."""
        raise NotImplementedError

    def extra_problems(self, outputs: dict, summaries: dict) -> list[tuple]:
        """Workload checks beyond the summaries: ``(unit id or None, message)``;
        ``None`` fails every op of the pass."""
        return []

    def layer_counts(self, outputs: dict) -> dict:
        """Per-layer metrics read from a traced pass's outputs."""
        return {}

    def ops(self, outputs: dict) -> int:
        return sum(self.unit_ops(unit_id) for unit_id in outputs)

    def summaries(self, outputs: dict) -> dict:
        table = {}
        for unit_id, output in outputs.items():
            summary = self.summary(unit_id, output)
            if summary is not None:
                table[unit_id] = summary
        return table

    def counts_reference(self) -> dict | None:
        """Stored simulated counts of one traced pass, if any."""
        if self.reference is None:
            return None
        return self.reference["counts"][self.name]

    def reference_unit(self, unit_id: str) -> str:
        """Key of ``unit_id``'s outputs in the reference file."""
        return unit_id

    def check(self, outputs: dict) -> tuple[int, list[str]]:
        """``(failed ops, messages)`` for one pass's outputs."""
        summaries = self.summaries(outputs)
        if self.reference is not None:
            stored = self.reference[self.reference_key]
            expected = {unit: stored.get(self.reference_unit(unit)) for unit in summaries}
            source = "the stored reference"
        else:
            expected, source = self._first, "the first pass"
            if expected is None:
                self._first = summaries
        failed: set[str] = set()
        problems = []
        if expected is not None:
            for unit_id, summary in summaries.items():
                if canonical(summary) != canonical(expected.get(unit_id)):
                    failed.add(unit_id)
                    problems.append(f"{unit_id}: output differs from {source}")
        for unit_id, message in self.extra_problems(outputs, summaries):
            failed.update(summaries if unit_id is None else (unit_id,))
            problems.append(f"{unit_id or 'pass'}: {message}")
        return sum(self.unit_ops(unit_id) for unit_id in failed), problems

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    @staticmethod
    def _span(tracer, name):
        return tracer.span(name) if tracer is not None else nullcontext()


class _Fleet(Workload):
    reference_key = "fleet"

    def _chip_units(self, tracer) -> list[tuple[str, object]]:
        # Unit k covers chip seeds seed + 8k .. seed + 8k + 7, so one pass
        # draws the same chip seeds as a single FLEET_CHIPS-chip fleet.
        return [
            (f"chips-{k:02d}", partial(self._characterize, tracer, self.seed + k * UNIT_CHIPS))
            for k in range(FLEET_CHIPS // UNIT_CHIPS)
        ]

    def _characterize(self, tracer, seed: int):
        import repro.core.fleet as fleet
        import repro.fastpath.cache as cache

        # A fresh CLI process starts from an empty in-memory solve cache.
        cache.reset_solve_cache()
        with self._span(tracer, "core.fleet"):
            return fleet.characterize_fleet(UNIT_CHIPS, seed=seed)

    def unit_ops(self, unit_id: str) -> int:
        return UNIT_CHIPS if unit_id.startswith("chips-") else 0

    def summary(self, unit_id: str, output):
        return output.to_dict() if unit_id.startswith("chips-") else None

    def extra_problems(self, outputs, summaries):
        problems = []
        for unit_id in summaries:
            report = outputs[unit_id]
            if report.cores_total != report.n_chips * report.n_cores:
                problems.append((unit_id, "report covers the wrong number of cores"))
            for name in ("idle_limit_counts", "ubench_limit_counts", "rollback_counts"):
                if sum(getattr(report, name).values()) != report.cores_total:
                    problems.append((unit_id, f"histogram {name} misses cores"))
        return problems

    def setup(self) -> None:
        self._characterize(None, self.seed + FLEET_CHIPS)


class FleetCold(_Fleet):
    name = "fleet-cold"

    def units(self, tracer=None):
        return self._chip_units(tracer)


class FleetStore(_Fleet):
    """The fleet into an empty writable store, then re-run read-only.

    Each pass fills a fresh store (``fill.*`` units: probe walks, record
    encoding, store writes) and then serves the same chips from it
    (``warm.*`` units: replay, draws, fingerprints, store reads; no probe
    walks).  Both halves are timed, so a read gain that costs writes
    shows.
    """

    name = "fleet-store"

    def setup(self) -> None:
        super().setup()
        self._passes = 0

    def units(self, tracer=None):
        root = self.work_dir / f"store-{self._passes}"
        self._passes += 1
        return self._phase_units(tracer, "fill", root, writable=True) + self._phase_units(
            tracer, "warm", root, writable=False
        )

    def _phase_units(self, tracer, phase: str, root: Path, *, writable: bool):
        import repro.fastpath.store as store_mod

        def open_store():
            with self._span(tracer, "fastpath.store.open"):
                return store_mod.configure_store(root, writable=writable)

        def close_store():
            with self._span(tracer, "fastpath.store.open"):
                store_mod.reset_store()

        return (
            [(f"{phase}.store-open", open_store)]
            + [(f"{phase}.{unit_id}", unit) for unit_id, unit in self._chip_units(tracer)]
            + [(f"{phase}.store-close", close_store)]
        )

    def reference_unit(self, unit_id: str) -> str:
        return unit_id.split(".", 1)[1]

    def unit_ops(self, unit_id: str) -> int:
        return super().unit_ops(self.reference_unit(unit_id))

    def summary(self, unit_id: str, output):
        return super().summary(self.reference_unit(unit_id), output)

    def layer_counts(self, outputs):
        return {
            "fastpath.store.corrupt": outputs["fill.store-open"].corrupt_entries
            + outputs["warm.store-open"].corrupt_entries
        }

    def extra_problems(self, outputs, summaries):
        from repro.fastpath.store import SolveStore

        problems = super().extra_problems(outputs, summaries)
        fill = outputs["fill.store-open"]
        if fill.corrupt_entries:
            problems.append((None, f"fill saw {fill.corrupt_entries} corrupt entries"))
        reopened = SolveStore(fill.root, writable=False)
        try:
            verify = reopened.verify()
        finally:
            reopened.close()
        if verify["corrupt"]:
            problems.append((None, f"store verify found {verify['corrupt']} corrupt records"))
        for kind in ("char", "compiled"):
            held = verify["entries_by_kind"].get(kind)
            if held != FLEET_CHIPS:
                problems.append(
                    (None, f"store holds {held} {kind} records, expected {FLEET_CHIPS}")
                )
        for unit_id, summary in summaries.items():
            if unit_id.startswith("warm.") and canonical(summary) != canonical(
                summaries["fill." + self.reference_unit(unit_id)]
            ):
                problems.append((unit_id, "warm report differs from the cold fill report"))
        stats = outputs["warm.store-open"].stats()
        for counter in ("misses", "writes", "corrupt_entries"):
            if stats[counter]:
                problems.append((None, f"warm pass counted {stats[counter]} store {counter}"))
        if not stats["hits"]:
            problems.append((None, "warm pass served nothing from the store"))
        # Each pass fills an empty store; drop this one once it is checked.
        shutil.rmtree(fill.root, ignore_errors=True)
        return problems


class PaperSuite(Workload):
    name = "paper-suite"
    reference_key = "suite"

    def setup(self) -> None:
        from repro.experiments import REGISTRY, run_experiment
        from repro.obs.alerts import default_rule_pack

        self.ids = list(REGISTRY)
        self.rules = default_rule_pack()
        self.out_dir = self.work_dir / "suite"
        # Fault in the lazily imported analysis modules with the cheapest
        # experiment; a full untimed pass would only repeat the timed one.
        run_experiment("fig01", seed=self.seed)

    def units(self, tracer=None):
        # The observed run and each fold-back step are separate units:
        # shorter units are timed clear of host contention more often.
        units = []
        for experiment_id in self.ids:
            state = {}
            units += [
                (experiment_id, partial(self._run, tracer, experiment_id, state)),
                (f"{experiment_id}.capture", partial(self._capture, tracer, state)),
                (f"{experiment_id}.alerts", partial(self._alerts, tracer, state)),
                (f"{experiment_id}.openmetrics", partial(self._openmetrics, tracer, state)),
            ]
        return units

    def _run(self, tracer, experiment_id: str, state: dict) -> dict:
        """One observed ``run_many`` run (event stream plus manifest)."""
        from repro.experiments.runner import run_many
        from repro.obs.tsdb import Tsdb

        with self._span(tracer, "experiments.runner"):
            (state["run"],) = run_many([experiment_id], seed=self.seed, out_dir=self.out_dir)
        state["tsdb"] = Tsdb(experiment_id, self.seed)
        return state

    def _capture(self, tracer, state: dict) -> dict:
        from repro.obs.tsdb import capture_stream

        with self._span(tracer, "obs.tsdb.capture"):
            state["samples"], state["skipped"] = capture_stream(
                state["tsdb"], state["run"].events_path
            )
        return state

    def _alerts(self, tracer, state: dict) -> dict:
        from repro.obs.alerts import evaluate_rules

        with self._span(tracer, "obs.alerts.eval"):
            state["outcome"] = evaluate_rules(
                state["tsdb"], self.rules, skipped_lines=state["skipped"]
            )
        return state

    def _openmetrics(self, tracer, state: dict) -> dict:
        from repro.obs.tsdb import render_openmetrics

        with self._span(tracer, "obs.openmetrics"):
            state["page"] = render_openmetrics(
                summary=state["run"].manifest.metrics_summary, tsdb=state["tsdb"]
            )
        return state

    def unit_ops(self, unit_id: str) -> int:
        return 0 if "." in unit_id else 1

    def summary(self, unit_id: str, output):
        if "." in unit_id:
            return None
        run, outcome = output["run"], output["outcome"]
        return {
            "metrics": dict(sorted(run.result.metrics.items())),
            "events_sha256": run.manifest.events_sha256,
            "event_count": run.event_count,
            "alerts_sha256": sha256_text(outcome.to_json()),
            "alerts_fired": sum(ev.fired for ev in outcome.evaluations),
            "tsdb_samples": output["samples"],
            "openmetrics_sha256": sha256_text(output["page"]),
        }

    def extra_problems(self, outputs, summaries):
        problems = []
        missing = sorted(set(self.ids) - set(outputs))
        if missing:
            problems.append((None, f"no output for {missing}"))
        for unit_id in summaries:
            run = outputs[unit_id]["run"]
            written = hashlib.sha256(run.events_path.read_bytes()).hexdigest()
            if written != run.manifest.events_sha256:
                problems.append((unit_id, "manifest digest does not match its event stream"))
        return problems

    def layer_counts(self, outputs):
        states = [outputs[experiment_id] for experiment_id in self.ids]
        return {
            "obs.sinks.bytes": sum(
                state["run"].events_path.stat().st_size for state in states
            ),
            "obs.tsdb.samples": sum(state["samples"] for state in states),
            "obs.alerts.fired": sum(
                ev.fired for state in states for ev in state["outcome"].evaluations
            ),
        }


WORKLOADS = {cls.name: cls for cls in (FleetCold, FleetStore, PaperSuite)}
