"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload train_ecg --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the workload's end-to-end metrics; ``--trace 1``
installs span wrappers on every layer's entry points and prints the
per-layer metrics instead (see ``perfbench/README.md``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report and the run's provenance.  The exit code is 0 when
every correctness check passed, 1 when one failed and 2 when the
program under test is missing.

The serving workload starts worker processes with the ``spawn`` method,
which re-imports this file in every child; everything that does work
sits behind the ``__main__`` guard at the bottom, so a child never runs
the benchmark again.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import signal
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("train_ecg", "infer_eeg", "serve_har")
#: A run that has not finished by then is stopped (runs must end within 180 s).
WATCHDOG_S = 170


def _import_program() -> bool:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    import repro

    return pathlib.Path(repro.__file__).resolve().is_relative_to(src.resolve())


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's session once, print the seconds it took")
    return parser.parse_args(argv)


def _on_watchdog(signum, frame):
    raise TimeoutError(f"run exceeded {WATCHDOG_S} s")


def _on_terminate(signum, frame):
    raise SystemExit(f"stopped by signal {signum}")  # unwinds, so worker pools close


def _declared(trace: bool, workload: str) -> dict[str, str]:
    """``name -> unit`` of the metrics this run prints, from ``BENCHMARK.json``."""
    from perfbench.metrics import HELD, HELD_UNITS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        return {m["name"]: m["unit"] for m in declared["per_layer"]}
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    if workload in HELD:
        return {name: (units | HELD_UNITS)[name] for name in HELD[workload]}
    return units


def _write_spans(outcome, args) -> pathlib.Path | None:
    if outcome.spans is None:
        return None
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(outcome.spans.dump()))
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    if not _import_program():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_watchdog)
    signal.signal(signal.SIGTERM, _on_terminate)
    signal.alarm(WATCHDOG_S)

    workload = importlib.import_module(f"perfbench.{args.workload}")
    if args.setup_only:
        from perfbench.common import time_setup

        _, build = workload.prepare(args.seed, args.seconds)
        session, seconds = time_setup(build)
        close = getattr(session, "close", None)
        if close is not None:
            close()
        print(repr(seconds))
        return 0

    from perfbench import provenance

    before = provenance.before_run()
    if before["busy"]:
        print(f"perfbench: WARNING: {before['busy_share_before']:.0%} of the CPUs were busy "
              "before the run started; timings are not comparable", file=sys.stderr)
    outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    signal.alarm(0)

    declared = _declared(bool(args.trace), args.workload)
    measured = outcome.layers if args.trace else outcome.e2e
    undeclared = set(measured) - set(declared)
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    unmeasured = set(declared) - set(measured)
    if unmeasured and not args.trace:
        raise KeyError(f"declared end-to-end metrics not measured: {sorted(unmeasured)}")
    # A layer that never ran on this workload reads 0.
    report = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    spans_path = _write_spans(outcome, args)

    stamp = provenance.collect(ROOT, before, args.seed, args.workload)
    if stamp["contended"]:
        print(f"perfbench: WARNING: the hypervisor took {stamp['steal_share_during']:.1%} of "
              "the CPU time during the run; timings are not comparable", file=sys.stderr)
    print(json.dumps({"provenance": stamp}))
    print(json.dumps({"details": outcome.details, "spans_file": str(spans_path or "")},
                     default=float))
    for name, passed in outcome.checks.items():
        print(f"check {name}: {'ok' if passed else 'FAILED'}")
    for name, entry in report.items():
        print(f"{name:40s} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": report,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
