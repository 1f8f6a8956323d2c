"""Run one benchmark workload and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload collect --seed 0 --seconds 10 --trace 0

Each workload's main phase runs once and repeats until its passes have
taken ``--seconds``.  ``--trace 0`` prints the end-to-end metrics,
measured with tracing off.
``--trace 1`` runs the workload twice, untraced and then traced, and
prints the per-layer metrics of the traced pass plus the tracing
overhead of each end-to-end metric.  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
run's identity and the ungated figures by name and unit.  The full
record goes to ``.perfbench/results/`` and the traced spans to
``.perfbench/traces/``.  The program is imported from ``src/`` of the
checkout; without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and prove it is used."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _source_sha256() -> str:
    """SHA-256 over the program's source files (path and bytes)."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for directory, dirs, files in sorted(os.walk(package)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as stream:
                digest.update(stream.read())
    return digest.hexdigest()


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def identity(seed: int, result: Any) -> dict[str, Any]:
    """What a result depends on besides the code under test."""
    import numpy

    return {
        "seed": seed,
        **result.identity,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def measure(
    workload: str, seed: int, sizes: Any, trace: bool, faults: Any = None
) -> dict[str, Any]:
    """Run *workload* untraced (and traced, with *trace*); return its record."""
    from perfbench import layers
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, Faults

    faults = Faults() if faults is None else faults
    run_id = f"{workload}-seed{seed}-trace{int(trace)}-{time.time_ns()}"
    run = WORKLOADS[workload]
    work = os.path.join(OUT, "work", run_id)
    os.makedirs(work)
    try:
        base = run(seed, os.path.join(work, "untraced"), sizes, None, faults)
        ledgers = [base.ledger]
        if trace:
            tracer = Tracer(run_id)
            layers.install(tracer)
            try:
                traced = run(seed, os.path.join(work, "traced"), sizes, tracer, faults)
            finally:
                tracer.restore()
            ledgers.append(traced.ledger)
            tracer.write(os.path.join(OUT, "traces", f"{run_id}.json"))
            values = layers.layer_metrics(tracer, int(traced.figures["passes"][0]))
            values.update(traced.io)
            for name, value in base.metrics.items():
                values[f"overhead.{name}"] = traced.metrics[name] - value
            units = layers.per_layer_units()
        else:
            values = dict(base.metrics)
            units = dict(layers.END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(ledger.attempted for ledger in ledgers)
    failures = [failure for ledger in ledgers for failure in ledger.failures]
    record = {
        "run_id": run_id,
        "workload": workload,
        "trace": int(trace),
        "identity": identity(seed, base),
        "figures": {name: {"value": v, "unit": u} for name, (v, u) in base.figures.items()},
        "attempted": attempted,
        "failed_ops_ratio": len(failures) / attempted,
        "io": base.io,
        "detail": base.detail,
        "failures": failures,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{run_id}.json"), "w", encoding="utf-8") as stream:
        json.dump(record, stream, indent=1)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("collect", "analyze", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_program()
    from perfbench.workloads import Sizes

    sizes = replace(Sizes(), seconds=args.seconds)
    record = measure(args.workload, args.seed, sizes, bool(args.trace))
    failures = record["failures"]
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"identity {json.dumps(record['identity'], sort_keys=True)}")
    for name, entry in record["figures"].items():
        print(f"figure {name} = {entry['value']:.6g} {entry['unit']}")
    print(
        f"figure failed_ops_ratio = {record['failed_ops_ratio']:.6g} ratio "
        f"({len(failures)} of {record['attempted']})"
    )
    for name, entry in record["metrics"].items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": record["attempted"],
                "failed": len(failures),
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
