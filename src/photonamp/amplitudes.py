"""Momentum/helicity probability amplitudes and their symmetry transformations.

A state is represented by two complex functions of the spatial momentum, one
per helicity (+1, -1), normalized so the summed momentum-space integral of
|psi|^2 is one. Transformations never resample: each one wraps the previous
functions in an exact pointwise pullback,

* translation by a 4-vector a:   psi(k)           times e^{+i k.a},
* rotation R:                    psi(R^{-1}k)      times e^{-i lam w(R)},
* boost Lambda:                  psi(Lambda^{-1}k) times the unitary weight
                                 sqrt(omega'/omega) and e^{-i lam w(Lambda)},
* space inversion:               helicity flip, k -> -k, phase
                                 eta e^{+2 i lam phi_k} with eta = -1,
* time reversal:                 conjugation, k -> -k, phase e^{-2 i lam phi_k},

where w is the little-group angle from :mod:`photonamp.wigner`. The boost
weight sqrt(gamma (1 - beta . k_hat)) is evaluated as the energy ratio
sqrt(omega(Lambda^{-1}k)/omega(k)), to which it is identically equal.

Quadrature enters only through observables (norms, overlaps, momentum
moments), computed on the Gauss-Legendre box carried by each amplitude. The
applied operations are kept as a replayable record.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

import numpy as np

from .lorentz import (
    AxisAngle,
    azimuth_phase,
    boost_matrix,
    four_momentum,
    rapidity_from_beta,
    rotation3,
)
from .quadrature import BoxQuadrature, mapped_box, union_box
from .wigner import boost_half_phase, rotation_half_phase

HELICITIES = (1, -1)
PHOTON_PARITY = -1.0

#: Default half-width of the quadrature box, in units of the packet width.
#: 6.5 sigma keeps the clipped Gaussian tail (~2e-10) below quadrature error;
#: a 5 sigma box would already lose ~2e-6 of the norm.
BOX_HALFWIDTH_SIGMAS = 6.5

#: Boundary-to-peak density ratio above which the box is flagged as too small.
BOUNDARY_DENSITY_RATIO = 1e-8


class QuadratureDomainWarning(UserWarning):
    """The quadrature box appears to clip the support of the amplitude."""


@dataclass(frozen=True)
class TransformOp:
    """One applied symmetry operation; params are JSON-serializable."""

    kind: str
    params: dict

    def to_json(self) -> dict:
        return {"type": self.kind, **self.params}


def op_from_json(obj: dict) -> TransformOp:
    kind = obj.get("type")
    if kind == "translate":
        return TransformOp("translate", {"a": [float(v) for v in obj["a"]]})
    if kind == "rotate":
        return TransformOp(
            "rotate",
            {"axis": [float(v) for v in obj["axis"]], "angle": float(obj["angle"])},
        )
    if kind == "boost":
        return TransformOp("boost", {"beta": [float(v) for v in obj["beta"]]})
    if kind in ("parity", "time_reverse"):
        return TransformOp(kind, {})
    raise ValueError(f"unknown transformation type: {kind!r}")


def _phase_2phi(k: np.ndarray) -> np.ndarray:
    """e^{2 i phi_k}, with ``azimuth_phase``'s convention on the polar axis."""
    eiphi = azimuth_phase(k)
    return eiphi * eiphi


class HelicityAmplitude:
    """Pair of momentum-space helicity components with an attached quadrature box.

    ``psi_plus`` / ``psi_minus`` are callables mapping (..., 3) momentum
    arrays to complex values, or None for an identically vanishing component.
    Instances are immutable; transformations return new objects.
    """

    __slots__ = ("psi_plus", "psi_minus", "quad", "record", "origin")

    def __init__(
        self,
        psi_plus: Optional[Callable],
        psi_minus: Optional[Callable],
        quad: BoxQuadrature,
        record: tuple = (),
        origin: "HelicityAmplitude | None" = None,
    ):
        if psi_plus is None and psi_minus is None:
            raise ValueError("at least one helicity component must be present")
        self.psi_plus = psi_plus
        self.psi_minus = psi_minus
        self.quad = quad
        self.record = tuple(record)
        self.origin = origin if origin is not None else self

    def component(self, lam: int) -> Optional[Callable]:
        if lam == 1:
            return self.psi_plus
        if lam == -1:
            return self.psi_minus
        raise ValueError("helicity must be +1 or -1")

    def evaluate(self, lam: int, kvec) -> np.ndarray:
        """Component values at spatial momenta of shape (..., 3)."""
        kvec = np.asarray(kvec, dtype=float)
        f = self.component(lam)
        if f is None:
            return np.zeros(kvec.shape[:-1], dtype=complex)
        return np.asarray(f(kvec), dtype=complex)

    # -- symmetry operations -------------------------------------------------

    def translate(self, a) -> "HelicityAmplitude":
        """Spacetime translation by the 4-vector ``a``: phase e^{+i k.a}."""
        a = np.asarray(a, dtype=float).reshape(4)
        return self._apply(TransformOp("translate", {"a": a.tolist()}))

    def rotate(self, r: AxisAngle) -> "HelicityAmplitude":
        return self._apply(
            TransformOp("rotate", {"axis": r.axis.tolist(), "angle": r.angle})
        )

    def boost(self, beta) -> "HelicityAmplitude":
        beta = np.asarray(beta, dtype=float).reshape(3)
        if float(beta @ beta) >= 1.0:
            raise ValueError("superluminal boost")
        return self._apply(TransformOp("boost", {"beta": beta.tolist()}))

    def parity(self) -> "HelicityAmplitude":
        return self._apply(TransformOp("parity", {}))

    def time_reverse(self) -> "HelicityAmplitude":
        return self._apply(TransformOp("time_reverse", {}))

    def apply(self, op: TransformOp) -> "HelicityAmplitude":
        return self._apply(op)

    def normalized(self) -> "HelicityAmplitude":
        """Rescale so the summed momentum-space density integrates to one.

        Not a symmetry operation: the result starts a fresh record.
        """
        total = norm_squared(self, warn=False)
        if total <= 0.0:
            raise ValueError("cannot normalize an amplitude with vanishing norm")
        scale = 1.0 / np.sqrt(total)

        def rescaled(f):
            if f is None:
                return None
            return lambda k, f=f: scale * f(k)

        return HelicityAmplitude(rescaled(self.psi_plus), rescaled(self.psi_minus), self.quad)

    def _apply(self, op: TransformOp) -> "HelicityAmplitude":
        plus, minus, quad = _transform(self.psi_plus, self.psi_minus, self.quad, op)
        return HelicityAmplitude(plus, minus, quad, self.record + (op,), self.origin)


def replay(base: HelicityAmplitude, record) -> HelicityAmplitude:
    """Re-apply a transformation record to ``base``; reproduces the owner pointwise."""
    return reduce(lambda amp, op: amp.apply(op), record, base)


# -- the five pullbacks ------------------------------------------------------


def _translated(f, a):
    if f is None:
        return None
    a = np.asarray(a, dtype=float)

    def g(k):
        k = np.asarray(k, dtype=float)
        omega = np.linalg.norm(k, axis=-1)
        k_dot_a = omega * a[0] - k @ a[1:]
        return f(k) * np.exp(1j * k_dot_a)

    return g


def _rotated(f, lam, r: AxisAngle):
    if f is None:
        return None
    R3 = rotation3(r)

    def g(k):
        k = np.asarray(k, dtype=float)
        k_prev = k @ R3  # rows are R^{-1} k
        phase = rotation_half_phase(r, k_prev) ** 2
        if lam == -1:
            phase = np.conj(phase)
        return f(k_prev) * phase

    return g


def _boosted(f, lam, beta):
    if f is None:
        return None
    inv = boost_matrix(-np.asarray(beta, dtype=float))
    zeta = rapidity_from_beta(beta)

    def g(k):
        k = np.asarray(k, dtype=float)
        omega = np.linalg.norm(k, axis=-1)
        prev4 = four_momentum(k) @ inv.T
        omega_prev = prev4[..., 0]
        k_prev = prev4[..., 1:]
        weight = np.sqrt(omega_prev / np.where(omega > 0.0, omega, 1.0))
        phase = boost_half_phase(zeta, k_prev) ** 2
        if lam == -1:
            phase = np.conj(phase)
        return f(k_prev) * weight * phase

    return g


def _parity_component(f_other, lam):
    if f_other is None:
        return None

    def g(k):
        k = np.asarray(k, dtype=float)
        phase = _phase_2phi(k)
        if lam == -1:
            phase = np.conj(phase)
        return PHOTON_PARITY * phase * f_other(-k)

    return g


def _time_reversed(f, lam):
    if f is None:
        return None

    def g(k):
        k = np.asarray(k, dtype=float)
        phase = np.conj(_phase_2phi(k))
        if lam == -1:
            phase = np.conj(phase)
        return np.conj(f(-k)) * phase

    return g


def _transform(plus, minus, quad, op: TransformOp):
    if op.kind == "translate":
        a = op.params["a"]
        return _translated(plus, a), _translated(minus, a), quad
    if op.kind == "rotate":
        r = AxisAngle(np.array(op.params["axis"]), op.params["angle"])
        R3 = rotation3(r)
        new_quad = mapped_box(quad, lambda pts: pts @ R3.T)
        return _rotated(plus, 1, r), _rotated(minus, -1, r), new_quad
    if op.kind == "boost":
        beta = np.asarray(op.params["beta"], dtype=float)
        B = boost_matrix(beta)
        new_quad = mapped_box(quad, lambda pts: (four_momentum(pts) @ B.T)[..., 1:])
        return _boosted(plus, 1, beta), _boosted(minus, -1, beta), new_quad
    if op.kind == "parity":
        flipped = BoxQuadrature(-quad.center, quad.halfwidth, quad.npts)
        return _parity_component(minus, 1), _parity_component(plus, -1), flipped
    if op.kind == "time_reverse":
        flipped = BoxQuadrature(-quad.center, quad.halfwidth, quad.npts)
        return _time_reversed(plus, 1), _time_reversed(minus, -1), flipped
    raise ValueError(f"unknown transformation kind: {op.kind!r}")


# -- construction ------------------------------------------------------------


def gaussian_wavepacket(
    kappa_vec,
    sigma_k: float,
    helicity: int = 1,
    npts: int = 48,
    halfwidth_sigmas: float = BOX_HALFWIDTH_SIGMAS,
) -> HelicityAmplitude:
    """Unit-norm isotropic Gaussian packet of a single helicity.

    psi(k) = exp(-|k - kappa|^2 / 4 sigma_k^2) / (2 pi sigma_k^2)^{3/4},
    centered on ``kappa_vec`` with momentum width ``sigma_k``.
    """
    kappa_vec = np.asarray(kappa_vec, dtype=float).reshape(3)
    if sigma_k <= 0.0:
        raise ValueError("sigma_k must be positive")
    if np.linalg.norm(kappa_vec) == 0.0:
        raise ValueError("central momentum must be nonzero")
    if helicity not in HELICITIES:
        raise ValueError("helicity must be +1 or -1")
    norm_const = (2.0 * np.pi * sigma_k**2) ** (-0.75)
    inv_four_sigma2 = 1.0 / (4.0 * sigma_k**2)

    def g(k):
        d = np.asarray(k, dtype=float) - kappa_vec
        return norm_const * np.exp(-np.sum(d * d, axis=-1) * inv_four_sigma2) + 0.0j

    quad = BoxQuadrature(kappa_vec, halfwidth_sigmas * sigma_k, npts)
    if helicity == 1:
        return HelicityAmplitude(g, None, quad)
    return HelicityAmplitude(None, g, quad)


# -- observables -------------------------------------------------------------


def _density_on_grid(psi: HelicityAmplitude, quad: BoxQuadrature, warn: bool):
    pts = quad.points()
    density = np.zeros(len(pts))
    values = {}
    for lam in HELICITIES:
        if psi.component(lam) is None:
            continue
        v = psi.evaluate(lam, pts)
        values[lam] = v
        density += np.abs(v) ** 2
    if warn:
        peak = float(density.max())
        if peak > 0.0:
            boundary = float(density[quad.boundary_mask()].max())
            if boundary > BOUNDARY_DENSITY_RATIO * peak:
                warnings.warn(
                    "quadrature box may clip the amplitude support "
                    f"(boundary/peak density {boundary / peak:.2e})",
                    QuadratureDomainWarning,
                    stacklevel=3,
                )
    return pts, quad.weights(), density, values


def norm_squared(psi: HelicityAmplitude, warn: bool = True) -> float:
    """Summed momentum-space integral of |psi|^2 over the attached box."""
    _, w, density, _ = _density_on_grid(psi, psi.quad, warn)
    return float(w @ density)


def inner_product(
    psi1: HelicityAmplitude, psi2: HelicityAmplitude, npts: int | None = None
) -> complex:
    """Hermitian overlap sum_lam int psi1_lam^* psi2_lam d^3k.

    Distinct quadrature boxes are merged into their union; pass ``npts`` to
    refine when the union is much larger than either support.
    """
    if psi1.quad.same_box(psi2.quad) and npts is None:
        quad = psi1.quad
    else:
        quad = union_box(psi1.quad, psi2.quad, npts)
    pts = quad.points()
    w = quad.weights()
    total = 0.0 + 0.0j
    for lam in HELICITIES:
        if psi1.component(lam) is None or psi2.component(lam) is None:
            continue
        total += w @ (np.conj(psi1.evaluate(lam, pts)) * psi2.evaluate(lam, pts))
    return complex(total)


def expectation_momentum(psi: HelicityAmplitude, warn: bool = True) -> np.ndarray:
    """Four-vector of momentum moments int |psi|^2 k^mu with k^0 = |k|."""
    pts, w, density, _ = _density_on_grid(psi, psi.quad, warn)
    weighted = w * density
    omega = np.linalg.norm(pts, axis=-1)
    return np.array(
        [
            float(weighted @ omega),
            float(weighted @ pts[:, 0]),
            float(weighted @ pts[:, 1]),
            float(weighted @ pts[:, 2]),
        ]
    )


# -- JSON wavepacket descriptors ----------------------------------------------


def from_descriptor(descriptor: dict, npts: int = 48) -> HelicityAmplitude:
    """Build an amplitude from the wavepacket JSON descriptor.

    Schema: {"units": "eV", "kappa": [kx, ky, kz], "sigma_k": s,
    "helicity": +-1, "ops": [{"type": ...}, ...]}. All energies are in eV
    (natural units downstream); "ops" is optional.
    """
    if descriptor.get("units") != "eV":
        raise ValueError('descriptor must declare "units": "eV"')
    psi = gaussian_wavepacket(
        descriptor["kappa"],
        float(descriptor["sigma_k"]),
        int(descriptor["helicity"]),
        npts=npts,
    )
    for raw in descriptor.get("ops", []):
        psi = psi.apply(op_from_json(raw))
    return psi
