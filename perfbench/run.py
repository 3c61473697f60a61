"""End-to-end benchmark of the ATM fine-tuning reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet-cold --seed 1 --seconds 30 --trace 0

Each run compiles ``src`` once (the build), then starts fresh worker
processes, one at a time, so nothing runs concurrently with a timed pass:

* ``--trace 0``: one timed process (set-up, then passes for
  ``--seconds``), four set-up-only processes (``setup_s`` is the median
  of the five set-ups) and one process that computes ``paper_err_pp``.
  Prints every end-to-end metric.
* ``--trace 1``: one process alternating untraced and traced passes.
  Prints every per-layer metric (median over the traced passes), checks
  that layer self times add up to each traced pass's wall, and that the
  simulated counts repeat exactly.

Times in end-to-end metrics are rescaled to a reference host speed (see
``calibration.py`` and ``NOTES.md``).  Every pass's outputs are checked
(see ``workloads.py``); failed ops are counted, never skipped.  The last
stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import (  # noqa: E402
    EXACT_COUNTS,
    PER_LAYER,
    attribution_problem,
)
from calibration import rescale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Scratch space inside the checkout (byte-code cache, stores, event
#: streams, span files); listed in ``.gitignore``.
WORK = ROOT / ".perfbench"

#: ``(name, unit)`` of the end-to-end metrics.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("peak_rss_mb", "MiB"),
    ("paper_err_pp", "pp"),
)

#: Set-up-only processes started besides the timed one.
EXTRA_SETUPS = 4

#: Wall budget of one run after the build (a run must end within 180 s).
RUN_DEADLINE_S = 170.0


class RunFailed(Exception):
    """A worker crashed or overran; the run prints no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Fixed string hashing keeps dict/set layouts, and so timings, equal
    # across processes; program outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _build() -> None:
    """Byte-compile the program (and this benchmark) into the cache prefix."""
    sys.pycache_prefix = str(WORK / "pycache")
    for tree in (ROOT / "src", HERE):
        if not compileall.compile_dir(str(tree), quiet=1, workers=1):
            raise RunFailed(f"byte-compiling {tree} failed")


def _worker(role: str, args, work_dir: Path, deadline: float, trace_out=None) -> dict:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--role", role,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--work-dir", str(work_dir),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed(f"no time left to start the {role} process")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{role} process overran the run deadline") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RunFailed(f"{role} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunFailed(f"{role} process printed no result")
    result = json.loads(lines[-1])
    if "ready" in result:
        result["setup_s"] = result["ready"] - spawned
    return result


def pass_s(passes: list[dict]) -> float:
    """Host seconds of one pass at reference host speed.

    The sum over a pass's units of each unit's median, across passes, of
    its time rescaled by the calibration kernel run beside it (see
    ``calibration.py``).
    """
    units = passes[0]["unit_s"]
    return sum(
        statistics.median(rescale(*p["unit_s"][unit_id]) for p in passes)
        for unit_id in units
    )


def _pass_failures(passes: list[dict], problems: list[str]) -> int:
    failed = 0
    for index, record in enumerate(passes):
        failed += record["failed"]
        problems += [f"pass {index}: {message}" for message in record["problems"]]
    return failed


def _untraced_run(args, work_dir: Path, deadline: float):
    timed = _worker("timed", args, work_dir / "timed", deadline)
    setups = [timed]
    for index in range(EXTRA_SETUPS):
        setups.append(_worker("setup", args, work_dir / f"setup-{index}", deadline))
    accuracy = _worker("accuracy", args, work_dir / "accuracy", deadline)

    passes = timed["passes"]
    checked = passes + timed["reference_passes"]
    problems: list[str] = []
    failed = _pass_failures(checked, problems)
    metrics = {
        "setup_s": statistics.median(
            rescale(setup["setup_s"], setup["setup_kernel_s"]) for setup in setups
        ),
        "ops_per_s": passes[0]["ops"] / pass_s(passes),
        "peak_rss_mb": timed["peak_rss_mb"],
        "paper_err_pp": accuracy["paper_err_pp"],
    }
    units = dict(END_TO_END)
    report = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    attempted = sum(p["ops"] for p in checked)
    return attempted, failed, problems, report


def _traced_run(args, work_dir: Path, deadline: float):
    trace_out = WORK / f"trace-{args.workload}-s{args.seed}.jsonl.gz"
    result = _worker("traced", args, work_dir / "traced", deadline, trace_out)
    untraced, traced = result["untraced"], result["traced"]
    checked = untraced + traced + result["reference_passes"]
    problems: list[str] = []
    failed = _pass_failures(checked, problems)

    expected = result["counts_reference"] or traced[0]["layers"]
    for index, record in enumerate(traced):
        # A traced pass that fails attribution or whose simulated counts
        # drifted fails every op it ran (on top of none already counted).
        layers = record["layers"]
        pass_problems = [
            f"{name} {layers[name]} != {expected[name]}"
            for name in EXACT_COUNTS
            if layers[name] != expected[name]
        ]
        if pass_problems:
            pass_problems = ["simulated counts drifted: " + ", ".join(pass_problems)]
        attribution = attribution_problem(layers)
        if attribution is not None:
            pass_problems.append(f"ATTRIBUTION FAILED: {attribution}")
        if pass_problems:
            failed += record["ops"] - record["failed"]
            problems += [f"traced pass {index}: {message}" for message in pass_problems]

    values = {
        name: statistics.median(record["layers"][name] for record in traced)
        for name, _unit, _better in PER_LAYER
        if name not in ("import.s", "trace.overhead_ratio")
    }
    values["import.s"] = result["import_s"]
    values["trace.overhead_ratio"] = pass_s(traced) / pass_s(untraced)
    report = {
        name: {"value": values[name], "unit": unit} for name, unit, _better in PER_LAYER
    }
    attempted = sum(r["ops"] for r in checked)
    return attempted, failed, problems, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"run-{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        _build()
        deadline = time.monotonic() + RUN_DEADLINE_S
        run = _traced_run if args.trace else _untraced_run
        attempted, failed, problems, metrics = run(args, work_dir, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for message in problems:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
