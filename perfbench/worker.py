"""One benchmark process: import, untimed set-up, then timed passes.

Started by ``run.py`` (never by hand) with the checkout's ``src`` on
``PYTHONPATH``.  Prints one JSON document on its last stdout line:

* ``--role setup`` -- import and set up, then stop (a set-up sample);
* ``--role timed`` -- set up, then run untraced passes for ``--seconds``;
* ``--role traced`` -- set up, then alternate untraced and traced passes
  for ``--seconds`` (at least one of each) and report per-layer numbers;
* ``--role accuracy`` -- compute the Fig. 14 error against the paper.

``ready`` is ``time.monotonic()`` when set-up ended; the parent took the
same clock just before starting this process, so their difference is the
set-up time including interpreter start.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibration import kernel_s  # noqa: E402
from workloads import PAPER_SEED, WORKLOADS, paper_error_pp  # noqa: E402

#: Traced passes a traced run makes at least, each after an untraced one,
#: even past ``--seconds``: two are needed to check that counts repeat.
MIN_TRACED_PASSES = 2


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(workload, tracer=None):
    """Run one pass unit by unit, with the calibration kernel between units.

    Returns the outputs, ``{unit: (seconds, kernel seconds)}`` where the
    kernel time is the mean of the runs just before and after the unit,
    and the pass wall: the sum of the unit times (calibration excluded).
    """
    clock = time.perf_counter
    outputs, unit_s = {}, {}
    before = kernel_s()
    for unit_id, unit in workload.units(tracer):
        if tracer is not None:
            tracer.op = unit_id
        unit_start = clock()
        try:
            outputs[unit_id] = unit()
        except Exception as exc:  # a failed op is counted, not fatal
            outputs[unit_id] = UnitError(f"{unit_id}: {type(exc).__name__}: {exc}")
        elapsed = clock() - unit_start
        after = kernel_s()
        unit_s[unit_id] = (elapsed, 0.5 * (before + after))
        before = after
    wall = sum(elapsed for elapsed, _kernel in unit_s.values())
    return outputs, unit_s, wall


class UnitError:
    """Stands in for the output of a unit that raised."""

    def __init__(self, message: str):
        self.message = message


def _record(workload, outputs, unit_s: dict) -> dict:
    errors = [out.message for out in outputs.values() if isinstance(out, UnitError)]
    if errors:
        # Later units may depend on the failed one, so the whole pass fails.
        failed, problems = workload.ops(outputs), [f"raised {e}" for e in errors]
    else:
        failed, problems = workload.check(outputs)
    return {
        "unit_s": unit_s,
        "ops": workload.ops(outputs),
        "failed": failed,
        "problems": problems,
    }


def _run_timed(workload, seconds: float, result: dict) -> list[dict]:
    passes = []
    budget_end = time.perf_counter() + seconds
    while True:
        outputs, unit_s, wall = _timed_pass(workload)
        passes.append(_record(workload, outputs, unit_s))
        del outputs
        if len(passes) == 1:
            # High water through set-up and one pass, like one CLI run;
            # later passes would tie the reading to how many fit the budget.
            result["peak_rss_mb"] = _peak_rss_mb()
        if time.perf_counter() + wall > budget_end:
            return passes


def _run_traced(workload, seconds: float, trace_out: Path | None) -> dict:
    import repro.fastpath.cache as cache
    from layers import layer_metrics
    from tracer import Tracer, instrument

    tracer = Tracer()
    untraced, traced = [], []
    budget_end = time.perf_counter() + seconds
    while True:
        outputs, unit_s, _wall = _timed_pass(workload)
        untraced.append(_record(workload, outputs, unit_s))
        del outputs

        # Start from empty cache counters: the wrapped reset_solve_cache
        # harvests whatever the cache counted before it clears it.
        cache.reset_solve_cache()
        tracer.reset()
        with instrument(tracer):
            outputs, unit_s, wall = _timed_pass(workload, tracer)
        record = _record(workload, outputs, unit_s)
        raised = any(isinstance(out, UnitError) for out in outputs.values())
        counts = {} if raised else workload.layer_counts(outputs)
        record["layers"] = layer_metrics(tracer, counts, wall)
        traced.append(record)
        del outputs
        if tracer.open_spans:
            raise RuntimeError(f"{tracer.open_spans} spans left open")
        if len(traced) >= MIN_TRACED_PASSES and time.perf_counter() > budget_end:
            break
    if trace_out is not None:
        tracer.write_spans(trace_out)
    return {"untraced": untraced, "traced": traced}


def _reference_passes(workload, args) -> list[dict]:
    """Untimed pass at :data:`PAPER_SEED`, checked against its stored outputs.

    Seeds without a stored reference are checked only for repeatability;
    this extra pass holds every run to absolute outputs as well.  It runs
    after the peak RSS is read and is not timed.
    """
    if workload.reference is not None:
        return []
    checked = WORKLOADS[args.workload](PAPER_SEED, args.work_dir / "reference")
    if checked.reference is None:
        return []
    try:
        checked.setup()
        outputs, unit_s, _wall = _timed_pass(checked)
        return [_record(checked, outputs, unit_s)]
    finally:
        checked.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", required=True,
                        choices=("setup", "timed", "traced", "accuracy"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    result: dict = {}
    if args.role == "accuracy":
        print(json.dumps({"paper_err_pp": paper_error_pp()}))
        return 0

    start = time.perf_counter()
    import repro  # noqa: F401

    result["import_s"] = time.perf_counter() - start
    workload = WORKLOADS[args.workload](args.seed, args.work_dir)
    try:
        workload.setup()
        result["ready"] = time.monotonic()
        result["setup_kernel_s"] = kernel_s()
        if args.role == "timed":
            result["passes"] = _run_timed(workload, args.seconds, result)
        elif args.role == "traced":
            result.update(_run_traced(workload, args.seconds, args.trace_out))
        result.setdefault("peak_rss_mb", _peak_rss_mb())
        result["counts_reference"] = workload.counts_reference()
        if args.role != "setup":
            result["reference_passes"] = _reference_passes(workload, args)
    finally:
        workload.cleanup()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
