"""Self-test of the benchmark's checks: each accepts a good output and rejects a perturbed one.

Run from the repository root: ``python3 -m pytest -q bench/test_checks.py``.
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from photonamp.cli import main as cli_main  # noqa: E402


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    return rc, out.getvalue()


def test_packet_energy_matches_radial_quadrature():
    kappa, sigma = 1.0, 0.3
    r = np.linspace(1e-9, kappa + 14 * sigma, 400001)
    # the polar integral of exp(r kappa cos / sigma^2) done in closed form
    shell = r * r * np.exp(-((r - kappa) ** 2) / (2 * sigma**2)) * (
        1 - np.exp(-2 * r * kappa / sigma**2)
    ) * sigma**2 / (r * kappa)
    norm = np.trapezoid(shell, r)
    mean = np.trapezoid(r * shell, r) / norm
    assert checks.packet_energy(kappa, sigma) == pytest.approx(mean, rel=1e-9)
    assert checks.packet_energy(1.0, 1e-3) == pytest.approx(1.0 + 1e-6, rel=1e-12)


def test_matrices_are_lorentz_transformations():
    metric = np.diag([1.0, -1.0, -1.0, -1.0])
    for m in (checks.boost4([0.1, -0.5, 0.3]), checks.rotation4([1, 2, 3], 0.7), checks.REFLECTION):
        assert np.allclose(m.T @ metric @ m, metric, atol=1e-13)
    assert np.allclose(checks.boost4([0, 0, 0.6]) @ [1, 0, 0, 0], [1.25, 0, 0, 0.75])
    assert np.allclose(checks.rotation4([0, 0, 1], math.pi / 2) @ [0, 1, 0, 0], [0, 0, 1, 0])


def transform_output(unit):
    rc, stdout = run_cli(unit.argv)
    assert rc == 0
    return stdout


@pytest.fixture(scope="module")
def transform_units(tmp_path_factory):
    return {u.label: u for u in workloads.build_round("transform-chain", 3, tmp_path_factory.mktemp("t"))}


def test_transform_check_accepts_and_rejects(transform_units):
    unit = transform_units["seeded-4"]
    stdout = transform_output(unit)
    assert unit.check(0, stdout) == []
    report = json.loads(stdout)

    off_norm = json.loads(stdout)
    off_norm["after"]["norm_squared"] += 1e-5
    assert any("norm_squared" in p for p in unit.check(0, json.dumps(off_norm)))

    off_momentum = json.loads(stdout)
    off_momentum["before"]["momentum"][3] += 2e-6 * report["before"]["momentum"][0]
    assert any("momentum" in p for p in unit.check(0, json.dumps(off_momentum)))

    flipped = dict(report, helicity=-report["helicity"])
    assert any("helicity" in p for p in unit.check(0, json.dumps(flipped)))
    assert unit.check(1, stdout) == ["exit code 1"]


def test_transform_check_catches_the_box_growth_fault(transform_units):
    for label in ("deboost", "round-trip-32", "readme-32"):
        unit = transform_units[label]
        stdout = transform_output(unit)
        problems = unit.check(0, stdout)
        assert any("norm_squared" in p for p in problems)
        assert unit.known_fault(problems)
        # anything beyond a lost norm and momentum is not the known fault
        assert not unit.known_fault(unit.check(1, stdout))
        flipped = dict(json.loads(stdout), helicity=0)
        assert not unit.known_fault(unit.check(0, json.dumps(flipped)))
    assert transform_units["seeded-4"].known_fault is None


def test_runner_counts_only_the_fault_signature_as_expected(transform_units, tmp_path):
    import run

    unit = transform_units["deboost"]
    stdout = transform_output(unit)

    def fake_main(outcome):
        def main(argv):
            if isinstance(outcome, Exception):
                raise outcome
            print(stdout, end="")
            return outcome
        return main

    expected = run.Runner(fake_main(0), [unit])
    times: dict = {}
    expected.round(times)
    assert (expected.failed, expected.unexpected, list(times)) == (1, [], ["deboost"])

    for outcome in (2, RuntimeError("crash"), SystemExit(2)):
        runner = run.Runner(fake_main(outcome), [unit])
        times = {}
        runner.round(times)
        assert runner.failed == 1 and len(runner.unexpected) == 1, outcome
    raising = run.Runner(fake_main(RuntimeError("crash")), [unit])
    times = {}
    raising.round(times)
    assert times == {} and raising.untimed(times) == ["deboost"]


def test_verify_check_accepts_and_rejects():
    rc, stdout = run_cli(["verify", "--suite", "wigner", "--trials", "20", "--no-timestamp"])
    suites = ("wigner",)
    assert checks.check_verify(rc, stdout, suites) == []
    report = json.loads(stdout)

    over = json.loads(stdout)
    over["properties"][0]["max_residual"] = 2 * checks.VERIFY_TOLERANCES["wigner/dual_path_rotation_phase"]
    assert any("exceeds" in p for p in checks.check_verify(rc, json.dumps(over), suites))

    loose = json.loads(stdout)
    loose["properties"][1]["tol"] = 1e-3
    assert any("looser" in p for p in checks.check_verify(rc, json.dumps(loose), suites))

    missing = dict(report, properties=report["properties"][1:])
    assert any("missing" in p for p in checks.check_verify(rc, json.dumps(missing), suites))
    assert checks.check_verify(1, stdout, suites) == ["exit code 1"]


@pytest.fixture(scope="module")
def fields_unit(tmp_path_factory):
    unit = workloads.build_round("fields-csv", 0, tmp_path_factory.mktemp("f"))[0]
    rc, stdout = run_cli(unit.argv)
    return unit, rc, stdout


def test_fields_check_accepts_the_program_output(fields_unit):
    unit, rc, stdout = fields_unit
    assert unit.check(rc, stdout) == []
    assert unit.check(rc, stdout) == []  # second pass: compared with the first


def bump_last_digit(value: str) -> str:
    mantissa, sep, exponent = value.partition("e")
    last = mantissa[-1]
    return mantissa[:-1] + ("1" if last != "1" else "2") + sep + exponent


def test_fields_check_rejects_a_last_digit_change(fields_unit):
    unit, rc, stdout = fields_unit
    assert unit.check(rc, stdout) == []
    csv_path = unit.check.csv_path
    text = csv_path.read_bytes().decode()
    row_start = text.index("\n", len(text) // 2) + 1
    row_end = text.index("\r\n", row_start)
    values = text[row_start:row_end].split(",")
    values[3] = bump_last_digit(values[3])
    assert float(values[3]) != float(text[row_start:row_end].split(",")[3])
    csv_path.write_bytes((text[:row_start] + ",".join(values) + text[row_end:]).encode())
    try:
        assert unit.check(rc, stdout) != []
    finally:
        csv_path.write_bytes(text.encode())
    assert unit.check(rc, stdout) == []


def test_fields_full_check_rejects_scaled_fields(fields_unit, tmp_path):
    unit, rc, stdout = fields_unit
    summary = json.loads(stdout)
    header, *rows = unit.check.csv_path.read_text().splitlines()
    data = np.array([[float(v) for v in row.split(",")] for row in rows])
    data[:, 3:] *= 1.001
    scaled = tmp_path / "scaled.csv"
    np.savetxt(scaled, data, delimiter=",", header=header, comments="", fmt="%.17g")
    spec = workloads.FIELDS
    args = (spec["kappa"], spec["sigma_ratio"], spec["extent"], spec["n"])
    assert checks.check_fields_csv(summary, unit.check.csv_path, *args) == []
    problems = checks.check_fields_csv(summary, scaled, *args)
    assert any("closed form" in p for p in problems)
    assert any("reported energy" in p for p in problems)
