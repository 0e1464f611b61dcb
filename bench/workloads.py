"""The three workloads: one round of CLI units each, built from the workload seed.

A round is the list of units a run repeats whole. Each unit is the argv of
one ``photonamp`` call and the check its output must pass. Nothing here
imports photonamp; the expected results come from :mod:`checks`.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("verify-all", "fields-csv", "transform-chain")

VERIFY_ARGV = ("verify", "--suite", "all", "--trials", "1000", "--seed", "7", "--no-timestamp")

#: ``photonamp fields`` settings. The carrier gate needs n >= 66 at extent 4,
#: and one unit at n = 66 already takes several seconds.
FIELDS = {"kappa": 3.3, "sigma_ratio": 0.08, "extent": 4.0, "n": 66}

#: Packet of every transform descriptor: natural units, so eV throughout.
PACKET = {"units": "eV", "kappa": [0.0, 0.0, 1.0], "sigma_k": 0.05}
KINDS = ("translate", "rotate", "boost", "parity", "time_reverse")
#: Ops per seeded record; the last quarter of each goes in ``--op``.
SEEDED_LENGTHS = (4, 8, 16, 32)
#: The README's five-op record.
README_OPS = [
    {"type": "boost", "beta": [0.0, 0.0, 0.5]},
    {"type": "rotate", "axis": [0.0, 1.0, 0.0], "angle": 0.3},
    {"type": "translate", "a": [1.0, 0.0, 0.0, 0.0]},
    {"type": "parity"},
    {"type": "time_reverse"},
]


@dataclass
class Unit:
    """One CLI call: ``check(rc, stdout)`` returns the problems with its output.

    ``known_fault``, for a unit that a program fault makes fail on every run,
    tells whether a list of problems is exactly that fault's signature. A
    unit whose problems match counts as failed without making the run
    incorrect; any other problem is unexpected.
    """

    label: str
    argv: list[str]
    check: Callable[[int, str], list[str]]
    known_fault: Callable[[list[str]], bool] | None = None


def build_round(workload: str, seed: int, workdir: Path) -> list[Unit]:
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "verify-all":
        return [Unit("verify", list(VERIFY_ARGV), checks.check_verify)]
    if workload == "fields-csv":
        return [_fields_unit(workdir)]
    if workload == "transform-chain":
        return _transform_units(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# -- fields-csv -----------------------------------------------------------------


class FieldsCsvCheck:
    """Checks the first CSV in a child process, then holds later units to its bytes.

    The same command must write the same bytes every time, so after one CSV
    has passed the physics checks a digest comparison covers the rest, down
    to a change in the last digit of one value.
    """

    def __init__(self, csv_path: Path, summary_path: Path):
        self.csv_path = csv_path
        self.summary_path = summary_path
        self.reference = None

    def __call__(self, rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        summary = json.loads(stdout)
        seen = (checks.file_digest(self.csv_path), summary)
        if self.reference is not None:
            if seen != self.reference:
                return ["CSV or summary differs from the first unit's output"]
            return []
        problems = self.full_check(summary)
        if not problems:
            self.reference = seen
        return problems

    def full_check(self, summary: dict) -> list[str]:
        self.summary_path.write_text(json.dumps(summary))
        argv = [
            sys.executable, str(Path(checks.__file__).resolve()), "fields",
            str(self.csv_path), str(self.summary_path), str(FIELDS["n"]),
            repr(FIELDS["kappa"]), repr(FIELDS["sigma_ratio"]), repr(FIELDS["extent"]),
        ]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            return [f"CSV check exited {done.returncode}: {done.stderr.strip()[-300:]}"]
        return json.loads(done.stdout)


def _fields_unit(workdir: Path) -> Unit:
    csv_path = workdir / "fields.csv"
    argv = [
        "fields", "--mode", "exact",
        "--kappa-ev", repr(FIELDS["kappa"]),
        "--sigma-ratio", repr(FIELDS["sigma_ratio"]),
        "--extent", repr(FIELDS["extent"]),
        "--n", str(FIELDS["n"]),
        "--out", str(csv_path),
        "--no-timestamp",
    ]
    return Unit("fields", argv, FieldsCsvCheck(csv_path, workdir / "fields-summary.json"))


# -- transform-chain --------------------------------------------------------------


def seeded_record(rng: np.random.Generator, length: int, helicity: int) -> list[dict]:
    """``length`` ops of all five kinds, in seeded order with seeded parameters.

    The kind counts are fixed by ``length`` so that the cost of a record does
    not depend on the seed. Rotations are quarter or half turns about a
    coordinate axis and boosts run along the packet's mean momentum: both
    keep the axis-aligned quadrature box aligned with the packet, so these
    records do not trip the box-growth fault that the fixed records carry.
    """
    kinds = [KINDS[i % len(KINDS)] for i in range(length)]
    rng.shuffle(kinds)
    p = checks.expected_momentum(dict(PACKET, helicity=helicity), [])
    ops = []
    for kind in kinds:
        if kind == "translate":
            op = {"type": kind, "a": [float(v) for v in rng.uniform(-20.0, 20.0, 4)]}
        elif kind == "rotate":
            axis = [0.0, 0.0, 0.0]
            axis[int(rng.integers(3))] = float(rng.choice([-1.0, 1.0]))
            op = {"type": kind, "axis": axis, "angle": float(rng.choice([0.5, 1.0, -0.5]) * math.pi)}
        elif kind == "boost":
            direction = p[1:] / np.linalg.norm(p[1:])
            speed = float(rng.uniform(0.05, 0.3))
            op = {"type": kind, "beta": [float(v) for v in speed * direction]}
        else:
            op = {"type": kind}
        p = checks.op_matrix(op) @ p
        ops.append(op)
    return ops


def _round_trip_record() -> list[dict]:
    """32 ops: a rotation about y and a boost along z, each undone at once."""
    pairs = [
        ({"type": "rotate", "axis": [0.0, 1.0, 0.0], "angle": 0.4},
         {"type": "rotate", "axis": [0.0, 1.0, 0.0], "angle": -0.4}),
        ({"type": "boost", "beta": [0.0, 0.0, 0.3]},
         {"type": "boost", "beta": [0.0, 0.0, -0.3]}),
    ]
    return [op for i in range(8) for pair in pairs for op in pair]


def _transform_unit(label, workdir, descriptor, extra_ops, known_fault=None) -> Unit:
    path = workdir / f"{label}.json"
    path.write_text(json.dumps(descriptor))
    argv = ["transform", str(path)]
    for op in extra_ops:
        argv += ["--op", json.dumps(op)]
    argv.append("--no-timestamp")

    def check(rc, stdout):
        return checks.check_transform(rc, stdout, descriptor, extra_ops)

    return Unit(label, argv, check, known_fault)


def _split(label, workdir, ops, helicity=1, known_fault=None) -> Unit:
    cut = len(ops) - max(1, len(ops) // 4)
    descriptor = dict(PACKET, helicity=helicity, ops=ops[:cut])
    return _transform_unit(label, workdir, descriptor, ops[cut:], known_fault)


def _transform_units(seed: int, workdir: Path) -> list[Unit]:
    rng = np.random.default_rng(seed)
    units = []
    for length in SEEDED_LENGTHS:
        helicity = int(rng.choice([1, -1]))
        ops = seeded_record(rng, length, helicity)
        units.append(_split(f"seeded-{length}", workdir, ops, helicity))
    # quadrature.mapped_box grows the box on every rotation or boost
    fault = checks.is_box_fault
    units.append(_split("readme-32", workdir, (README_OPS * 7)[:32], known_fault=fault))
    units.append(_split("round-trip-32", workdir, _round_trip_record(), known_fault=fault))
    deboost = dict(PACKET, helicity=1, ops=[])
    units.append(_transform_unit(
        "deboost", workdir, deboost, [{"type": "boost", "beta": [0.0, 0.0, -0.99]}], fault
    ))
    return units
