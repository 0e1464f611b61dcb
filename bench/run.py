"""Benchmark of photonamp's verify, field-map export and op-record transform paths.

Usage (from the repository root)::

    python3 bench/run.py --workload {verify-all,fields-csv,transform-chain}
                         --seed N --seconds S --trace {0,1}

One process calls ``photonamp.cli.main`` in process as a single closed-loop
caller: each unit starts when the previous one returns, and whole rounds of
units repeat until ``--seconds`` have passed. Every
output is checked (see ``checks.py``). The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Work files go to ``.bench_work/`` under the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for setup_s, half before and half after the
#: units, so that one slow phase of the machine does not cover them all.
SETUP_PROBES = 12


def unit_seconds(times: dict) -> float:
    """Mean over a round's units of each unit's minimum time in the run.

    The machine's speed drifts in phases lasting seconds, and a run holds
    at most a few samples of each unit: the minimum moves far less from run
    to run than a mean or a median.
    """
    return sum(min(v) for v in times.values()) / len(times)


def measure_setup(workload: str, seed: int, workdir: Path, count: int) -> list[dict]:
    samples = []
    for i in range(count):
        argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed),
                str(workdir / f"probe-{i}")]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or not line:
            raise RuntimeError(f"set-up probe exited {rc}")
        samples.append(dict(json.loads(line), ready_s=ready))
    return samples


class Runner:
    """Runs rounds of units, timing the CLI call and checking its output."""

    def __init__(self, cli_main, units):
        self.cli_main = cli_main
        self.units = units
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []

    def call(self, unit, tracer=None):
        out, err = io.StringIO(), io.StringIO()
        span = tracing.CSV_SPAN if unit.argv[0] == "fields" else tracing.CLI_SPAN
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.enter(span)
            try:
                rc = self.cli_main(unit.argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            finally:
                if tracer is not None:
                    tracer.exit()
        return rc, out.getvalue(), time.perf_counter() - start

    def round(self, times: dict, tracer=None) -> None:
        for unit in self.units:
            self.attempted += 1
            try:
                rc, stdout, elapsed = self.call(unit, tracer)
                problems = unit.check(rc, stdout)
            except Exception as exc:  # never the known fault, whatever the unit
                self.failed += 1
                self.unexpected.append(f"{unit.label}: raised {type(exc).__name__}: {exc}")
                continue
            times.setdefault(unit.label, []).append(elapsed)
            if tracer is not None and unit.argv[0] == "fields":
                out = Path(unit.argv[unit.argv.index("--out") + 1])
                tracer.counts["cli.csv_bytes"] += out.stat().st_size if out.exists() else 0
            if problems:
                self.failed += 1
                if unit.known_fault is None or not unit.known_fault(problems):
                    self.unexpected.append(f"{unit.label}: {'; '.join(problems)}")

    def untimed(self, *rounds: dict) -> list[str]:
        """Labels of units with no time in one of ``rounds``."""
        return [u.label for times in rounds for u in self.units if u.label not in times]


def run_untraced(runner: Runner, seconds: float) -> dict:
    times: dict = {}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        runner.round(times)
    return times


def run_traced(runner: Runner, seconds: float):
    """Alternate untraced and traced rounds, at least one of each."""
    tracer = tracing.Tracer()
    instr = tracing.Instrumentation(tracer)
    plain: dict = {}
    traced: dict = {}
    rounds = 0
    start = time.perf_counter()
    while rounds < 2 or time.perf_counter() - start < seconds:
        if rounds % 2:
            instr.install()
            try:
                runner.round(traced, tracer)
            finally:
                instr.remove()
        else:
            runner.round(plain)
        rounds += 1
    return tracer, instr, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "photonamp" / "__init__.py").is_file():
        print(f"photonamp sources not found under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run(args, workdir: Path) -> dict:
    measure_setup(args.workload, args.seed, workdir, 1)  # writes bytecode caches
    setup = measure_setup(args.workload, args.seed, workdir, SETUP_PROBES // 2)

    sys.path.insert(0, str(SRC))
    import photonamp.cli

    if Path(photonamp.cli.__file__).resolve().parent != (SRC / "photonamp").resolve():
        raise RuntimeError(f"imported photonamp from {photonamp.cli.__file__}, not {SRC}")
    runner = Runner(photonamp.cli.main, workloads.build_round(args.workload, args.seed, workdir))

    if args.trace:
        tracer, instr, plain, traced = run_traced(runner, args.seconds)
    else:
        plain = run_untraced(runner, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    setup += measure_setup(args.workload, args.seed, workdir, SETUP_PROBES - SETUP_PROBES // 2)

    for label in runner.untimed(plain, *([traced] if args.trace else [])):
        runner.unexpected.append(f"{label}: no unit completed, so it has no time")
    for line in runner.unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    for label, times in plain.items():
        print(f"{label}: " + " ".join(f"{t:.3f}" for t in times), file=sys.stderr)
    result = {
        "correct": not runner.unexpected,
        "attempted": runner.attempted,
        "failed": runner.failed,
    }
    setup_s = min(s["ready_s"] for s in setup)
    if not args.trace:
        result["metrics"] = {
            "unit_s": {"value": unit_seconds(plain), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        return result

    traced_units = max(1, sum(len(v) for v in traced.values()))
    metrics, absent = tracing.layer_values(tracer, instr, traced_units)
    traced_s, plain_s = unit_seconds(traced), unit_seconds(plain)
    metrics.update({
        "setup.import_s": {"value": min(s["import_s"] for s in setup), "unit": "s"},
        "setup.inputs_s": {"value": min(s["inputs_s"] for s in setup), "unit": "s"},
        "trace.unit_s": {"value": traced_s, "unit": "s"},
        "trace.overhead_s": {"value": traced_s - plain_s, "unit": "s"},
    })
    for name, missing in absent.items():
        print(f"absent: {name} (no {missing})", file=sys.stderr)
    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "traced_units": traced_units,
        "untraced_unit_s": plain_s, "metrics": metrics, "absent": absent,
        "spans": tracer.spans,
    }))
    result["metrics"] = metrics
    return result


if __name__ == "__main__":
    sys.exit(main())
