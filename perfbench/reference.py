"""Record the reference outputs the benchmark checks a seed against.

Usage (from the root of a checkout)::

    python3 perfbench/reference.py --seed 2019 --seed 4242

Writes ``perfbench/reference/seed-<n>.json`` with, for that seed: the
fleet report every fleet workload must reproduce byte for byte, each
paper-suite experiment's metrics, manifest event digest, alert outcome
and OpenMetrics page digest, and the simulated counts of one traced pass
of every workload.  The numeric platform (numpy build, SIMD targets,
Python version) is recorded too: exact float outputs are only comparable
on the same platform, so elsewhere the benchmark falls back to checking
that passes repeat.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import EXACT_COUNTS, layer_metrics  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_DIR,
    WORKLOADS,
    numeric_platform,
)


def _traced_pass(workload):
    import repro.fastpath.cache as cache

    cache.reset_solve_cache()
    tracer = Tracer()
    with instrument(tracer):
        outputs = {unit_id: unit() for unit_id, unit in workload.units(tracer)}
    return outputs, layer_metrics(tracer, workload.layer_counts(outputs), 1.0)


def record(seed: int, work_dir: Path) -> dict:
    reference: dict = {"seed": seed, "platform": numeric_platform(), "counts": {}}
    for name, cls in WORKLOADS.items():
        workload = cls(seed, work_dir / name)
        workload.reference = None
        try:
            workload.setup()
            outputs, metrics = _traced_pass(workload)
            failed, problems = workload.check(outputs)
            if failed or problems:
                raise SystemExit(f"{name}: outputs fail their own checks: {problems}")
            reference["counts"][name] = {key: metrics[key] for key in EXACT_COUNTS}
            summaries = {
                workload.reference_unit(unit_id): summary
                for unit_id, summary in workload.summaries(outputs).items()
            }
            if reference.setdefault(workload.reference_key, summaries) != summaries:
                raise SystemExit(f"{name}: outputs differ from the other fleet workloads")
        finally:
            workload.cleanup()
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)
    work_dir = HERE.parent / ".perfbench" / "reference-work"
    REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for seed in args.seed:
            document = record(seed, work_dir / f"s{seed}")
            path = REFERENCE_DIR / f"seed-{seed}.json"
            path.write_text(
                json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8"
            )
            print(f"wrote {path}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
