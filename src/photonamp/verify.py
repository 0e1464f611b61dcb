"""Seeded property-verification suites behind the CLI and the acceptance tests.

Each suite runs a set of named numerical properties and reports the worst
residual per property against its tolerance. Each suite draws from its own
``numpy`` stream spawned from the caller's seed, so its trials depend only on
the seed and are the same alone and inside ``all``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import lorentz
from .amplitudes import (
    HelicityAmplitude,
    _carried_integrals,
    expectation_momentum,
    gaussian_wavepacket,
    inner_product,
    norm_squared,
)
from .fields import (
    CARRIER_POINTS_PER_WAVELENGTH,
    NarrowbandSpec,
    SpatialGrid,
    bb_density,
    bb_energy_integral,
    energy_expectation,
    field_expectation_exact,
    field_expectation_grid,
    localization_scale,
    maxwell_residual,
    narrowband_energy_momentum,
    narrowband_grid,
    relative_l2,
    sipe_energy_integral,
    tensor_covariance_check,
)
from .lorentz import AxisAngle, boost_matrix, metric_residual, rotation_matrix
from .little_group import (
    alpha_from_angles,
    ibr_generators,
    ibr_matrix,
    ibr_physical_factors,
    K0_NULL,
)
from .polarization import (
    covariance_residual,
    gauge_shift,
    polarization,
    reference_polarization,
    tensor_coeff,
)
from .wigner import (
    wigner_boost,
    wigner_phase_boost_closed,
    wigner_phase_rotation_closed,
    wigner_rotation,
)

SUITE_NAMES = ("little-group", "wigner", "amplitudes", "polarization", "fields")


@dataclass(frozen=True)
class PropertyResult:
    name: str
    max_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


@dataclass
class VerifyReport:
    suite: str
    trials: int
    seed: int
    properties: list[PropertyResult] = field(default_factory=list)
    wall_time_s: float = 0.0
    suite_wall_time_s: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    def to_dict(self, include_time: bool = True) -> dict:
        out = {
            "schema": 1,
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "passed": bool(self.passed),
            "properties": [
                {
                    "name": p.name,
                    "max_residual": float(p.max_residual),
                    "tol": float(p.tol),
                    "passed": bool(p.passed),
                }
                for p in self.properties
            ],
        }
        if include_time:
            out["wall_time_s"] = self.wall_time_s
            out["suite_wall_time_s"] = dict(self.suite_wall_time_s)
        return out


#: Trials a kinematic property draws and checks at once. Blocks of this many
#: keep the memory of a run fixed, whatever ``trials`` is.
TRIAL_BLOCK = 256


def _blocks(trials: int) -> list[int]:
    """Sizes of the consecutive blocks that together hold ``trials`` trials."""
    return [min(TRIAL_BLOCK, trials - start) for start in range(0, trials, TRIAL_BLOCK)]


def _worst(worst: float, residuals) -> float:
    return max(worst, float(np.max(residuals)))


def _random_unit(rng, n=None) -> np.ndarray:
    """One random unit 3-vector, or ``n`` of them as an (n, 3) array."""
    v = rng.normal(size=3 if n is None else (n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _random_axis_angle(rng, n=None) -> AxisAngle:
    return AxisAngle(_random_unit(rng, n), rng.uniform(-math.pi, math.pi, size=n))


def _random_lightlike(rng, n: int) -> np.ndarray:
    d = _random_unit(rng, n)
    omega = rng.uniform(0.3, 3.0, size=n)[:, None]
    return np.concatenate([omega, omega * d], axis=-1)


def _random_helicity(rng, n: int) -> np.ndarray:
    return np.where(rng.random(n) < 0.5, 1, -1)


def _random_boost(rng, n: int, zeta_max: float = 2.0):
    zeta = rng.uniform(0.0, zeta_max, size=n)[:, None] * _random_unit(rng, n)
    return boost_matrix(lorentz.beta_from_rapidity(zeta)), zeta


# -- suites -------------------------------------------------------------------


def _suite_little_group(rng, trials: int) -> list[PropertyResult]:
    worst_law = worst_conj = worst_fix = 0.0
    for n in _blocks(trials):
        a1 = rng.normal(scale=1.5, size=(n, 2))
        a2 = rng.normal(scale=1.5, size=(n, 2))
        gamma = rng.uniform(-math.pi, math.pi, size=n)
        M1 = ibr_matrix(a1)
        worst_law = _worst(worst_law, np.abs(M1 @ ibr_matrix(a2) - ibr_matrix(a1 + a2)))
        Rz = lorentz.rotation_z(gamma)
        c, s = np.cos(gamma), np.sin(gamma)
        a1_rot = np.stack([c * a1[:, 0] - s * a1[:, 1], s * a1[:, 0] + c * a1[:, 1]], axis=-1)
        conj = Rz @ M1 @ np.swapaxes(Rz, -1, -2) - ibr_matrix(a1_rot)
        worst_conj = _worst(worst_conj, np.abs(conj))
        worst_fix = _worst(worst_fix, np.abs(M1 @ K0_NULL - K0_NULL))

    # physical factorization sweep: rotation * isoenergetic boost against the
    # closed form. Polar angles near the poles are excluded (the boost speed
    # approaches 1 there and double precision cannot hold 1e-12).
    theta, phi = np.meshgrid(
        np.linspace(0.35, math.pi - 0.35, 41), np.linspace(0.0, 2.0 * math.pi, 25), indexing="ij"
    )
    rot, boost = ibr_physical_factors(theta, phi)
    worst_phys = float(np.max(np.abs(rot @ boost - ibr_matrix(alpha_from_angles(theta, phi)))))

    # generators: exact algebra plus exponential vs closed form (nilpotency
    # terminates the series at the quadratic term)
    Lx, Ly = ibr_generators()
    commutator = float(np.max(np.abs(Lx @ Ly - Ly @ Lx)))
    nilpotency = float(
        max(np.max(np.abs(Lx @ Lx @ Lx)), np.max(np.abs(Ly @ Ly @ Ly)))
    )
    worst_exp = 0.0
    for n in _blocks(min(trials, 200)):
        a = rng.normal(scale=1.5, size=(n, 2))
        gen = a[:, 0, None, None] * Lx + a[:, 1, None, None] * Ly
        series = np.eye(4) + gen + 0.5 * (gen @ gen)
        worst_exp = _worst(worst_exp, np.abs(series - ibr_matrix(a)))

    # products of 1-8 random rotations and boosts; unused factors are the
    # identity
    worst_metric = 0.0
    for n in _blocks(min(trials, 200)):
        factors = rng.integers(1, 9, size=n)
        m = np.eye(4)
        for slot in range(8):
            rotates = rng.random(n) < 0.5
            R = rotation_matrix(_random_axis_angle(rng, n))
            B = boost_matrix(
                lorentz.beta_from_rapidity(rng.uniform(0, 0.8, size=(n, 1)) * _random_unit(rng, n))
            )
            factor = np.where(rotates[:, None, None], R, B)
            m = m @ np.where((slot < factors)[:, None, None], factor, np.eye(4))
        worst_metric = _worst(worst_metric, metric_residual(m))

    return [
        PropertyResult("group_addition_law", worst_law, 1e-12),
        PropertyResult("z_rotation_conjugation", worst_conj, 1e-12),
        PropertyResult("fixes_reference_momentum", worst_fix, 1e-12),
        PropertyResult("physical_factorization", worst_phys, 1e-12),
        PropertyResult("generator_commutator", commutator, 0.0),
        PropertyResult("generator_nilpotency", nilpotency, 0.0),
        PropertyResult("generator_exponential", worst_exp, 1e-10),
        PropertyResult("metric_preservation_products", worst_metric, 1e-12),
    ]


def _suite_wigner(rng, trials: int) -> list[PropertyResult]:
    # each phase two ways: matrix decomposition against the closed form, which
    # raises on a degenerate alignment rather than clamping it
    worst_rot = worst_boost = worst_rec = worst_cocycle = worst_about_k = 0.0
    for n in _blocks(trials):
        r = _random_axis_angle(rng, n)
        k = _random_lightlike(rng, n)
        data = wigner_rotation(rotation_matrix(r), k)
        closed = wigner_phase_rotation_closed(r, k)
        worst_rot = _worst(worst_rot, np.abs(closed**2 - data.phase(1)))
        worst_rec = _worst(worst_rec, data.residual)

        Lam, zeta = _random_boost(rng, n)
        data = wigner_boost(Lam, k)
        closed = wigner_phase_boost_closed(zeta, k)
        worst_boost = _worst(worst_boost, np.abs(closed**2 - data.phase(1)))
        worst_rec = _worst(worst_rec, data.residual)

    for n in _blocks(min(trials, 200)):
        r1, r2 = _random_axis_angle(rng, n), _random_axis_angle(rng, n)
        k = _random_lightlike(rng, n)
        R1, R2 = rotation_matrix(r1), rotation_matrix(r2)
        w21 = wigner_rotation(R2 @ R1, k).w
        w1 = wigner_rotation(R1, k).w
        w2 = wigner_rotation(R2, (R1 @ k[:, :, None])[:, :, 0]).w
        cocycle = np.abs(np.exp(-1j * w21) - np.exp(-1j * w2) * np.exp(-1j * w1))
        worst_cocycle = _worst(worst_cocycle, cocycle)
        k = _random_lightlike(rng, n)
        angle = rng.uniform(-math.pi, math.pi, size=n)
        data = wigner_rotation(rotation_matrix(AxisAngle(k[:, 1:], angle)), k)
        worst_about_k = _worst(worst_about_k, np.abs(np.exp(-1j * data.w) - np.exp(-1j * angle)))

    return [
        PropertyResult("dual_path_rotation_phase", worst_rot, 1e-9),
        PropertyResult("dual_path_boost_phase", worst_boost, 1e-9),
        PropertyResult("matrix_reconstruction", worst_rec, 1e-10),
        PropertyResult("phase_cocycle", worst_cocycle, 1e-9),
        PropertyResult("rotation_about_momentum", worst_about_k, 1e-9),
    ]


def _suite_amplitudes(rng, trials: int) -> list[PropertyResult]:
    kappa, sigma = 1.0, 0.05
    psi = gaussian_wavepacket([0.0, 0.0, kappa], sigma, 1)
    base_norm = norm_squared(psi, warn=False)

    results = [
        PropertyResult("gaussian_norm", abs(base_norm - 1.0), 1e-9),
    ]

    # a transformed norm and momentum are the origin's in closed form, so these
    # sum the density through the element's preimage on carried nodes instead
    reps = max(1, min(trials // 250, 4))
    # parity and time reversal draw nothing: one pass says what reps passes would
    transforms = {
        "unitarity_translate": (reps, lambda p: p.translate(
            rng.uniform(-10.0 / sigma, 10.0 / sigma, size=4)
        )),
        "unitarity_rotate": (reps, lambda p: p.rotate(_random_axis_angle(rng))),
        "unitarity_boost": (reps, lambda p: p.boost(rng.uniform(0.1, 0.9) * _random_unit(rng))),
        "unitarity_parity": (1, lambda p: p.parity()),
        "unitarity_time_reversal": (1, lambda p: p.time_reverse()),
    }
    for name, (passes, op) in transforms.items():
        worst = 0.0
        for _ in range(passes):
            worst = max(worst, abs(_carried_integrals(op(psi))[0] - base_norm))
        results.append(PropertyResult(name, worst, 1e-6))

    p_base = expectation_momentum(psi, warn=False)
    worst = 0.0
    for _ in range(reps):
        r = _random_axis_angle(rng)
        transformed = _carried_integrals(psi.rotate(r))[1]
        expected = rotation_matrix(r) @ p_base
        worst = max(worst, float(np.max(np.abs(transformed - expected))) / p_base[0])
    results.append(PropertyResult("momentum_covariance_rotation", worst, 1e-6))

    worst = 0.0
    for _ in range(reps):
        beta = rng.uniform(0.1, 0.9) * _random_unit(rng)
        transformed = _carried_integrals(psi.boost(beta))[1]
        expected = boost_matrix(beta) @ p_base
        worst = max(
            worst, float(np.max(np.abs(transformed - expected))) / expected[0]
        )
    results.append(PropertyResult("momentum_covariance_boost", worst, 1e-6))

    # overlap invariance under a common transformation (conjugated for the
    # antiunitary one)
    psi2 = gaussian_wavepacket([0.0, 0.3 * sigma, kappa], sigma, 1)
    base_ip = inner_product(psi, psi2)
    worst = 0.0
    r = _random_axis_angle(rng)
    beta = rng.uniform(0.1, 0.9) * _random_unit(rng)
    for op, conj in [
        (lambda p: p.rotate(r), False),
        (lambda p: p.boost(beta), False),
        (lambda p: p.parity(), False),
        (lambda p: p.time_reverse(), True),
    ]:
        ip = inner_product(op(psi), op(psi2))
        target = np.conj(base_ip) if conj else base_ip
        worst = max(worst, abs(ip - target))
    results.append(PropertyResult("inner_product_invariance", worst, 1e-6))
    return results


def _suite_polarization(rng, trials: int) -> list[PropertyResult]:
    eps_ref = np.array([reference_polarization(lam).eps for lam in (1, -1)])
    gram = np.conj(eps_ref) @ lorentz.METRIC @ eps_ref.T
    worst_ortho = float(np.max(np.abs(gram + np.eye(2))))

    worst_lorentz = worst_norm = 0.0
    for n in _blocks(trials):
        k = _random_lightlike(rng, n)
        eps = polarization(k, _random_helicity(rng, n)).eps
        worst_lorentz = _worst(worst_lorentz, np.abs(lorentz.minkowski(k, eps)))
        norm = np.einsum("...i,ij,...j->...", np.conj(eps), lorentz.METRIC, eps)
        worst_norm = _worst(worst_norm, np.abs(norm + 1.0))

    k0 = np.array([1.0, 0.0, 0.0, 1.0])
    worst_little = 0.0
    for n in _blocks(min(trials, 200)):
        gamma = rng.uniform(-math.pi, math.pi, size=n)
        alpha = rng.normal(scale=1.5, size=(n, 2))
        Rz = lorentz.rotation_z(gamma).astype(complex)
        shift = ibr_matrix(alpha).astype(complex)
        for lam in (1, -1):
            eps0 = reference_polarization(lam).eps
            phase = np.exp(-1j * lam * gamma)[:, None]
            worst_little = _worst(worst_little, np.abs(Rz @ eps0 - eps0 * phase))
            expected = eps0 + (alpha @ eps0[1:3])[:, None] * k0
            worst_little = _worst(worst_little, np.abs(shift @ eps0 - expected))

    worst_rotcov = 0.0
    for n in _blocks(min(trials, 300)):
        k = _random_lightlike(rng, n)
        R = rotation_matrix(_random_axis_angle(rng, n))
        w = wigner_rotation(R, k).w
        k_out = (R @ k[:, :, None])[:, :, 0]
        for lam in (1, -1):
            lhs = (R.astype(complex) @ polarization(k, lam).eps[:, :, None])[:, :, 0]
            rhs = polarization(k_out, lam).eps * np.exp(-1j * lam * w)[:, None]
            worst_rotcov = _worst(worst_rotcov, np.abs(lhs - rhs))

    worst_boostcov = 0.0
    for n in _blocks(min(trials, 300)):
        k = _random_lightlike(rng, n)
        Lam, _ = _random_boost(rng, n)
        _, resid = covariance_residual(Lam, k, _random_helicity(rng, n))
        worst_boostcov = _worst(worst_boostcov, resid)

    worst_gauge = 0.0
    for n in _blocks(trials):
        k = _random_lightlike(rng, n)
        p = polarization(k, _random_helicity(rng, n))
        f = rng.normal(size=n) + 1j * rng.normal(size=n)
        change = tensor_coeff(gauge_shift(p, f)) - tensor_coeff(p)
        worst_gauge = _worst(worst_gauge, np.abs(change))

    return [
        PropertyResult("reference_orthonormality", worst_ortho, 1e-12),
        PropertyResult("transversality", worst_lorentz, 1e-12),
        PropertyResult("unit_normalization", worst_norm, 1e-12),
        PropertyResult("little_group_actions", worst_little, 1e-12),
        PropertyResult("rotation_covariance_phase", worst_rotcov, 1e-10),
        PropertyResult("boost_covariance_residual", worst_boostcov, 1e-10),
        PropertyResult("gauge_invariance_of_coefficient", worst_gauge, 1e-12),
    ]


def _linear_wavepacket(kappa: float, sigma: float) -> HelicityAmplitude:
    """Equal-helicity superposition: linearly polarized packet along +z."""
    psi = gaussian_wavepacket([0.0, 0.0, kappa], sigma, 1)
    g = psi.psi_plus

    def half(k):
        return g(k) / math.sqrt(2.0)

    return HelicityAmplitude(half, half, psi.quad)


def _suite_fields(rng, trials: int) -> list[PropertyResult]:
    kappa = 1.0
    results = []

    # narrowband closed form against the full momentum integral, three widths
    ratios = (0.03, 0.01, 0.003)[: max(1, min(trials, 3))]
    rel_diffs = []
    worst_margin = 0.0
    for ratio in ratios:
        sigma = ratio * kappa
        psi = gaussian_wavepacket([0.0, 0.0, kappa], sigma, 1)
        spec = NarrowbandSpec(kappa, sigma)
        grid = SpatialGrid.centered(3.7 * spec.sigma_x, 64)
        ftg = field_expectation_grid(psi, grid, 0.0)
        nb0 = narrowband_grid(spec, grid, 0.0)
        # the closed form a quarter turn off, cos(phi) N(0) + sin(phi) N(pi/2) with
        # N(0) and N(pi/2) orthogonal and of equal norm at every point, is at least
        # sqrt(2) - rel away, so a slipped carrier phase fails the margin by itself
        rel = relative_l2(ftg, nb0)
        # strict phase-invariant cross-check: energy density field
        rel_u = math.sqrt(
            float(np.sum((ftg.energy_density() - nb0.energy_density()) ** 2))
            / float(np.sum(nb0.energy_density() ** 2))
        )
        worst_margin = max(worst_margin, rel / (3.0 * ratio), rel_u / (3.0 * ratio))
        rel_diffs.append(rel)
    results.append(PropertyResult("narrowband_accuracy_margin", worst_margin, 1.0))
    if len(rel_diffs) == 3:
        scaled = [d / r for d, r in zip(rel_diffs, ratios)]
        spread = max(scaled) / min(scaled) - 1.0
        results.append(PropertyResult("narrowband_linear_scaling", spread, 0.5))

    # conservation integrals on a carrier-resolving grid
    spec = NarrowbandSpec(kappa, 0.01 * kappa)
    limit = (2.0 * math.pi / kappa) / CARRIER_POINTS_PER_WAVELENGTH
    n_req = math.ceil(12.0 * spec.sigma_x / limit) + 1
    grid = SpatialGrid.centered(6.0 * spec.sigma_x, n_req)
    P = narrowband_energy_momentum(spec, grid, 0.0)
    results.append(
        PropertyResult("energy_integral", abs(P[0] - kappa) / kappa, 0.01)
    )
    results.append(
        PropertyResult(
            "momentum_integral",
            float(np.max(np.abs(P[1:] - np.array([0.0, 0.0, kappa])))) / kappa,
            0.01,
        )
    )

    # position-space energy closures for the exact fields
    sigma = 0.01 * kappa
    psi = gaussian_wavepacket([0.0, 0.0, kappa], sigma, 1)
    H = energy_expectation(psi)
    close_grid = SpatialGrid.centered(5.0 / (2.0 * sigma), 72)
    sipe = sipe_energy_integral(psi, close_grid)
    bb = bb_energy_integral(psi, close_grid)
    results.append(PropertyResult("sipe_energy_closure", abs(sipe - H) / H, 5e-3))
    results.append(PropertyResult("bb_energy_closure", abs(bb - H) / H, 5e-3))

    # pointwise inequality of the two densities for a linearly polarized packet
    lin = _linear_wavepacket(kappa, 0.05 * kappa)
    zline = np.linspace(-1.5, 1.5, 25)
    line = np.zeros((len(zline), 4))
    line[:, 3] = zline
    rho = bb_density(lin, line)
    F = field_expectation_exact(lin, line)
    E = -F[:, 0, 1:]
    B = -F[:, [2, 3, 1], [3, 1, 2]]
    classical = 0.5 * (np.sum(E * E, axis=-1) + np.sum(B * B, axis=-1))
    pointwise = float(np.max(np.abs(rho - classical)) / np.max(rho))
    # report so that "passed" means the difference exceeds 0.1
    results.append(PropertyResult("bb_differs_from_classical", 0.1 / pointwise, 1.0))

    # Maxwell residuals shrink at second order
    psi5 = gaussian_wavepacket([0.0, 0.0, kappa], 0.05 * kappa, 1)
    x = np.array([0.1, 0.5, -0.3, 2.0])
    residuals = np.maximum(*maxwell_residual(psi5, x, [0.2, 0.1, 0.05]))
    worst_ratio_err = max(
        abs(residuals[0] / residuals[1] - 4.0), abs(residuals[1] / residuals[2] - 4.0)
    )
    results.append(PropertyResult("maxwell_h2_convergence", worst_ratio_err, 0.5))

    # local tensor covariance for one rotation and one boost
    cov_rot = tensor_covariance_check(
        psi5, x, rotation=AxisAngle(_random_unit(rng), rng.uniform(0.2, 1.0))
    )
    cov_boost = tensor_covariance_check(psi5, x, beta=[0.0, 0.0, 0.3])
    results.append(PropertyResult("local_covariance_rotation", cov_rot, 1e-5))
    results.append(PropertyResult("local_covariance_boost", cov_boost, 1e-5))

    # laboratory-unit localization scale for a blue photon
    sigma_x_um = localization_scale(3.3, 0.01)
    results.append(
        PropertyResult("blue_photon_localization", abs(sigma_x_um - 3.0) / 3.0, 0.01)
    )
    return results


_SUITES = {
    "little-group": _suite_little_group,
    "wigner": _suite_wigner,
    "amplitudes": _suite_amplitudes,
    "polarization": _suite_polarization,
    "fields": _suite_fields,
}


def run_suite(suite: str, trials: int = 1000, seed: int = 7) -> VerifyReport:
    """Run one named suite (or 'all') at each property's fixed tolerance."""
    if suite != "all" and suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITE_NAMES}")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    streams = dict(zip(SUITE_NAMES, np.random.SeedSequence(seed).spawn(len(SUITE_NAMES))))
    names = SUITE_NAMES if suite == "all" else (suite,)
    start = time.perf_counter()
    properties: list[PropertyResult] = []
    suite_times: dict[str, float] = {}
    for name in names:
        prefix = f"{name}/" if suite == "all" else ""
        suite_start = time.perf_counter()
        results = _SUITES[name](np.random.default_rng(streams[name]), trials)
        suite_times[name] = time.perf_counter() - suite_start
        for prop in results:
            properties.append(
                PropertyResult(prefix + prop.name, float(prop.max_residual), float(prop.tol))
            )
    return VerifyReport(
        suite, trials, seed, properties, time.perf_counter() - start, suite_times
    )
