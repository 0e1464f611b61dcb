"""Correctness checks for the benchmark, written apart from photonamp.

Nothing here imports the package under test. Every expected value comes from
a closed form or from the benchmark's own 4x4 matrices:

* packet energy: the mean of |k| under an isotropic Gaussian density of
  width sigma centred on kappa,
  <omega> = sigma [sqrt(2/pi) exp(-l^2/2) + (l + 1/l) erf(l/sqrt 2)],
  l = |kappa|/sigma;
* momentum covariance: <k^mu> moves with the boost, rotation and
  reflection matrices below (translations leave it alone);
* field CSV: parsed back and re-integrated with trapezoid weights, then held
  against the closed-form energy and the reported totals;
* verify reports: every residual against the benchmark's own copy of each
  property's tolerance.

Run as a script (``python3 bench/checks.py fields <csv> <summary.json> <n>``)
the field-CSV check runs in its own process, so that parsing a large CSV does
not raise the peak memory of the process being measured.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys

import numpy as np

#: Tolerances of the ``amplitudes`` verify suite, used for transform outputs.
NORM_TOL = 1e-6
MOMENTUM_TOL = 1e-6

#: Field-CSV re-integration against the closed-form packet energy. The grid
#: of half-width 4 sigma_x drops about 2e-4 of the energy (three axes, each
#: losing the two-sided 4-sigma tail 6.3e-5 of |E|^2 + |B|^2).
FIELD_ENERGY_TOL = 1e-3
#: Re-integration against the program's own reported totals: same sums,
#: another summation order.
FIELD_SUMMARY_TOL = 1e-9

CSV_HEADER = "x,y,z,Ex,Ey,Ez,Bx,By,Bz"

#: Every property of ``photonamp verify --suite all`` and its tolerance.
VERIFY_TOLERANCES = {
    "little-group/group_addition_law": 1e-12,
    "little-group/z_rotation_conjugation": 1e-12,
    "little-group/fixes_reference_momentum": 1e-12,
    "little-group/physical_factorization": 1e-12,
    "little-group/generator_commutator": 0.0,
    "little-group/generator_nilpotency": 0.0,
    "little-group/generator_exponential": 1e-10,
    "little-group/metric_preservation_products": 1e-12,
    "wigner/dual_path_rotation_phase": 1e-9,
    "wigner/dual_path_boost_phase": 1e-9,
    "wigner/matrix_reconstruction": 1e-10,
    "wigner/phase_cocycle": 1e-9,
    "wigner/rotation_about_momentum": 1e-9,
    "amplitudes/gaussian_norm": 1e-9,
    "amplitudes/unitarity_translate": 1e-6,
    "amplitudes/unitarity_rotate": 1e-6,
    "amplitudes/unitarity_boost": 1e-6,
    "amplitudes/unitarity_parity": 1e-6,
    "amplitudes/unitarity_time_reversal": 1e-6,
    "amplitudes/momentum_covariance_rotation": 1e-6,
    "amplitudes/momentum_covariance_boost": 1e-6,
    "amplitudes/inner_product_invariance": 1e-6,
    "polarization/reference_orthonormality": 1e-12,
    "polarization/transversality": 1e-12,
    "polarization/unit_normalization": 1e-12,
    "polarization/little_group_actions": 1e-12,
    "polarization/rotation_covariance_phase": 1e-10,
    "polarization/boost_covariance_residual": 1e-10,
    "polarization/gauge_invariance_of_coefficient": 1e-12,
    "fields/narrowband_accuracy_margin": 1.0,
    "fields/narrowband_linear_scaling": 0.5,
    "fields/energy_integral": 0.01,
    "fields/momentum_integral": 0.01,
    "fields/sipe_energy_closure": 5e-3,
    "fields/bb_energy_closure": 5e-3,
    "fields/bb_differs_from_classical": 1.0,
    "fields/maxwell_h2_convergence": 0.5,
    "fields/local_covariance_rotation": 1e-5,
    "fields/local_covariance_boost": 1e-5,
    "fields/blue_photon_localization": 0.01,
}

VERIFY_SUITES = ("little-group", "wigner", "amplitudes", "polarization", "fields")


# -- closed forms and matrices ----------------------------------------------


def packet_energy(kappa: float, sigma: float) -> float:
    """Mean |k| of the density exp(-|k - kappa|^2 / 2 sigma^2), normalized."""
    lam = kappa / sigma
    return sigma * (
        math.sqrt(2.0 / math.pi) * math.exp(-0.5 * lam * lam)
        + (lam + 1.0 / lam) * math.erf(lam / math.sqrt(2.0))
    )


def rotation4(axis, angle: float) -> np.ndarray:
    """Active right-handed rotation by ``angle`` about ``axis`` (Rodrigues)."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    c, s = math.cos(angle), math.sin(angle)
    cross = np.array([[0.0, -n[2], n[1]], [n[2], 0.0, -n[0]], [-n[1], n[0], 0.0]])
    out = np.eye(4)
    out[1:, 1:] = c * np.eye(3) + s * cross + (1.0 - c) * np.outer(n, n)
    return out


def boost4(beta) -> np.ndarray:
    """Active boost by 3-velocity ``beta``: rest momentum goes to gamma(1, beta)."""
    beta = np.asarray(beta, dtype=float)
    b2 = float(beta @ beta)
    if b2 == 0.0:
        return np.eye(4)
    gamma = 1.0 / math.sqrt(1.0 - b2)
    out = np.eye(4)
    out[0, 0] = gamma
    out[0, 1:] = out[1:, 0] = gamma * beta
    out[1:, 1:] += (gamma - 1.0) / b2 * np.outer(beta, beta)
    return out


#: Space inversion and time reversal both send the mean momentum k to -k.
REFLECTION = np.diag([1.0, -1.0, -1.0, -1.0])


def op_matrix(op: dict) -> np.ndarray:
    """How one descriptor op acts on the mean four-momentum."""
    kind = op["type"]
    if kind == "translate":
        return np.eye(4)
    if kind == "rotate":
        return rotation4(op["axis"], op["angle"])
    if kind == "boost":
        return boost4(op["beta"])
    if kind in ("parity", "time_reverse"):
        return REFLECTION
    raise ValueError(f"unknown op type {kind!r}")


def expected_momentum(descriptor: dict, ops) -> np.ndarray:
    """<k^mu> of the descriptor's Gaussian packet after ``ops``."""
    kappa = np.asarray(descriptor["kappa"], dtype=float)
    p = np.array([packet_energy(float(np.linalg.norm(kappa)), float(descriptor["sigma_k"])), *kappa])
    for op in ops:
        p = op_matrix(op) @ p
    return p


# -- transform ----------------------------------------------------------------


def _check_observables(label: str, summary: dict, expected: np.ndarray) -> list[str]:
    problems = []
    norm = float(summary["norm_squared"])
    if not abs(norm - 1.0) <= NORM_TOL:
        problems.append(f"{label}: norm_squared {norm!r} is off by {norm - 1.0:.3e}")
    p = np.asarray(summary["momentum"], dtype=float)
    off = float(np.max(np.abs(p - expected))) / expected[0]
    if not off <= MOMENTUM_TOL:
        problems.append(f"{label}: momentum off by {off:.3e} of the energy")
    return problems


#: The problems ``quadrature.mapped_box``'s box growth leaves in a transform
#: report: a lost norm and the momentum that goes with it, nothing else.
_BOX_FAULT = re.compile(r"(before|after): (norm_squared .* is off by .*|momentum off by .*)")


def is_box_fault(problems: list[str]) -> bool:
    """True when ``problems`` are all the signature of the box-growth fault.

    An exit code other than 0, a malformed report, a wrong helicity or a
    wrong op list is not the fault and makes this False.
    """
    return bool(problems) and all(_BOX_FAULT.fullmatch(p) for p in problems)


def check_transform(rc: int, stdout: str, descriptor: dict, extra_ops: list) -> list[str]:
    """Problems with one ``photonamp transform`` report (empty when correct)."""
    if rc != 0:
        return [f"exit code {rc}"]
    report = json.loads(stdout)
    own_ops = list(descriptor.get("ops", []))
    all_ops = own_ops + list(extra_ops)
    problems = _check_observables(
        "before", report["before"], expected_momentum(descriptor, own_ops)
    )
    problems += _check_observables(
        "after", report["after"], expected_momentum(descriptor, all_ops)
    )
    flips = sum(1 for op in all_ops if op["type"] == "parity")
    if report["helicity"] != descriptor["helicity"] * (-1) ** flips:
        problems.append(f"helicity {report['helicity']} after {flips} parity flips")
    if report["descriptor"]["ops"] != all_ops:
        problems.append("echoed descriptor ops differ from the ops applied")
    return problems


# -- verify -------------------------------------------------------------------


def check_verify(rc: int, stdout: str, suites=VERIFY_SUITES) -> list[str]:
    """Problems with a ``photonamp verify`` report over ``suites``.

    Residuals are compared with the tolerances above, not with the report's
    own ``passed`` flags, so a loosened tolerance is caught too.
    """
    report = json.loads(stdout)
    problems = [] if rc == 0 else [f"exit code {rc}"]
    if not report.get("passed"):
        problems.append("report says passed = false")
    multi = len(suites) > 1
    found = {}
    for prop in report["properties"]:
        name = prop["name"] if multi else f"{suites[0]}/{prop['name']}"
        found[name] = prop
    for name, tol in VERIFY_TOLERANCES.items():
        if name.split("/", 1)[0] not in suites:
            continue
        prop = found.get(name)
        if prop is None:
            problems.append(f"{name}: missing from the report")
            continue
        if float(prop["tol"]) > tol:
            problems.append(f"{name}: tolerance {prop['tol']} is looser than {tol}")
        if not float(prop["max_residual"]) <= tol:
            problems.append(f"{name}: residual {prop['max_residual']} exceeds {tol}")
    return problems


# -- fields CSV -----------------------------------------------------------------


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_fields_csv(summary: dict, csv_path, kappa: float, sigma_ratio: float,
                     extent: float, n: int) -> list[str]:
    """Problems with one ``photonamp fields --mode exact`` CSV and summary."""
    with open(csv_path) as handle:
        header = handle.readline().strip()
        if header != CSV_HEADER:
            return [f"CSV header {header!r}"]
        data = np.loadtxt(handle, delimiter=",", dtype=float, ndmin=2)
    if data.shape != (n**3, 9):
        return [f"CSV holds {data.shape} values, expected {(n**3, 9)}"]
    problems = []

    sigma = sigma_ratio * kappa
    halfwidth = extent * 0.5 / sigma
    spacing = 2.0 * halfwidth / (n - 1)
    axis = -halfwidth + spacing * np.arange(n)
    cube = data.reshape(n, n, n, 9)
    coords = np.broadcast_arrays(
        axis[:, None, None], axis[None, :, None], axis[None, None, :]
    )
    worst = max(float(np.max(np.abs(cube[..., i] - coords[i]))) for i in range(3))
    if not worst <= 1e-12 * halfwidth:
        problems.append(f"grid coordinates off by {worst:.3e}")

    w = np.full(n, spacing)
    w[0] = w[-1] = 0.5 * spacing
    weights = w[:, None, None] * w[None, :, None] * w[None, None, :]
    E, B = cube[..., 3:6], cube[..., 6:9]
    energy = float(np.sum(weights * 0.5 * np.sum(E * E + B * B, axis=-1)))
    flux = np.cross(E, B)
    momentum = np.array([float(np.sum(weights * flux[..., i])) for i in range(3)])

    reference = packet_energy(kappa, sigma)
    off = abs(energy - reference) / reference
    if not off <= FIELD_ENERGY_TOL:
        problems.append(f"CSV energy {energy!r} is {off:.3e} from the closed form {reference!r}")
    off = float(np.max(np.abs(momentum - [0.0, 0.0, kappa]))) / reference
    if not off <= FIELD_ENERGY_TOL:
        problems.append(f"CSV momentum {momentum.tolist()} is {off:.3e} from (0, 0, kappa)")
    off = abs(energy - float(summary["energy"])) / reference
    if not off <= FIELD_SUMMARY_TOL:
        problems.append(f"reported energy {summary['energy']!r} differs from the CSV by {off:.3e}")
    off = float(np.max(np.abs(momentum - np.asarray(summary["momentum"])))) / reference
    if not off <= FIELD_SUMMARY_TOL:
        problems.append(f"reported momentum differs from the CSV by {off:.3e}")
    if summary["grid"]["n"] != n or summary["mode"] != "exact":
        problems.append("summary does not echo the requested grid and mode")
    return problems


def main(argv) -> int:
    """``fields <csv> <summary.json> <n> <kappa> <sigma_ratio> <extent>``: print problems as JSON."""
    if len(argv) != 7 or argv[0] != "fields":
        print("usage: checks.py fields CSV SUMMARY N KAPPA SIGMA_RATIO EXTENT", file=sys.stderr)
        return 2
    _, csv_path, summary_path, n, kappa, ratio, extent = argv
    with open(summary_path) as handle:
        summary = json.load(handle)
    problems = check_fields_csv(summary, csv_path, float(kappa), float(ratio), float(extent), int(n))
    print(json.dumps(problems))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
