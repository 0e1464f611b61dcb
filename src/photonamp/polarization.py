"""Photon polarization vectors, gauge shifts, and the field-strength coefficients.

Reference vectors for momentum along +z:

    eps(k0, +1) = -(0, 1, i, 0)/sqrt(2),    eps(k0, -1) = (0, 1, -i, 0)/sqrt(2),

whose spatial parts are the spherical unit vectors sqrt(4 pi/3) Y_{1,lam}.
General-momentum vectors are carried over by the standard rotation (the
z-boost in the canonical transformation cannot touch transverse components),
so they stay purely spatial and satisfy k.eps = 0 and eps*.eps = -1.
``polarization`` applies the standard rotation as a matrix; the vectorized
``polarization_spatial`` takes k_hat only from ``lorentz.direction_spinor``.

Physical objects depend on eps only through the antisymmetric coefficient
T^{mu nu} = k^mu eps^nu - k^nu eps^mu, which is invariant under the gauge
freedom eps -> eps + f(k) k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lorentz import (
    _apply,
    _dot,
    _require,
    _unstack,
    direction_spinor,
    is_proper_orthochronous,
    minkowski,
    require_lightlike,
    standard_rotation,
)
from .wigner import wigner_boost

_SQRT2 = np.sqrt(2.0)
_EPS_REF = {
    1: np.array([0.0, -1.0, -1.0j, 0.0]) / _SQRT2,
    -1: np.array([0.0, 1.0, -1.0j, 0.0]) / _SQRT2,
}


@dataclass(frozen=True)
class PolarizationVector:
    eps: np.ndarray  # complex (..., 4)
    k: np.ndarray  # lightlike (..., 4)
    lam: int  # or an int array (...)


def _check_lam(lam):
    _require(np.isin(lam, (1, -1)), "helicity must be +1 or -1")
    return lam


def reference_polarization(lam: int) -> PolarizationVector:
    """Polarization vector of the reference momentum (1, 0, 0, 1)."""
    _check_lam(lam)
    k0 = np.array([1.0, 0.0, 0.0, 1.0])
    return PolarizationVector(_EPS_REF[lam].copy(), k0, lam)


def polarization(k, lam) -> PolarizationVector:
    """Canonical-gauge polarization vector for a general lightlike momentum.

    Equals the standard rotation applied to the reference vector, whatever
    the reference energy: the z-boost leg acts trivially on transverse vectors.
    Momenta ``(..., 4)`` and helicities ``(...)`` broadcast to eps ``(..., 4)``.
    """
    _check_lam(lam)
    k = require_lightlike(k)
    eps_ref = np.where(np.asarray(lam)[..., None] == 1, _EPS_REF[1], _EPS_REF[-1])
    eps = _apply(standard_rotation(k[..., 1:]).astype(complex), eps_ref)
    return PolarizationVector(eps, k, lam)


def polarization_spatial(kvec, lam: int) -> np.ndarray:
    """Vectorized spatial part of the canonical polarization, shape (..., 3).

    The standard rotation on the reference vector, in ``direction_spinor``'s
    (c, sigma) = (cos theta/2, sin theta/2 e^{i phi}): R0[k_hat] (x_hat + i y_hat)
    = (c^2 - sigma^2, i(c^2 + sigma^2), -2 c sigma), with no cancellation at a pole.
    sigma^2 is formed from real products: numpy's complex multiply rounds a
    stack and a single row differently, and this way each row of a stack keeps
    the bits of its own call.
    """
    _check_lam(lam)
    c, sigma = direction_spinor(kvec)
    sr, si = np.real(sigma), np.imag(sigma)
    c2, s2r, m2c = c * c, sr * sr - si * si, -2.0 * c
    # (re, im) pairs of the three components, written in place: stacking them
    # would cost more in copies than the arithmetic does
    out = np.empty(np.shape(c) + (6,))
    np.subtract(c2, s2r, out=out[..., 0])
    np.multiply(-2.0 * sr, si, out=out[..., 1])  # -Im sigma^2
    out[..., 2] = out[..., 1]
    np.add(c2, s2r, out=out[..., 3])
    np.multiply(m2c, sr, out=out[..., 4])
    np.multiply(m2c, si, out=out[..., 5])
    out *= -1.0 / _SQRT2
    plus = out.view(complex)
    return plus if lam == 1 else -np.conj(plus)


def gauge_shift(p: PolarizationVector, f) -> PolarizationVector:
    """Shift eps -> eps + f k; preserves k.eps = 0 (k lightlike), not eps*.eps.

    ``f`` is one number or one per row of a stacked ``p``.
    """
    f = np.asarray(f, dtype=complex)
    return PolarizationVector(p.eps + f[..., None] * p.k.astype(complex), p.k, p.lam)


def tensor_coeff(p: PolarizationVector) -> np.ndarray:
    """Gauge-invariant antisymmetric coefficient k^mu eps^nu - k^nu eps^mu, complex (..., 4, 4)."""
    k = p.k.astype(complex)
    return k[..., :, None] * p.eps[..., None, :] - p.eps[..., :, None] * k[..., None, :]


def covariance_residual(Lambda, k, lam):
    """How well Lambda eps(k) = eps(Lambda k) e^{-i lam w} + (coef) (Lambda k) holds.

    The scalar coefficient of the gauge term along (Lambda k) is fitted by
    least squares and returned with the max-norm residual of the relation
    (which also folds in the transversality of the transported vector).
    Rotations come back with a vanishing coefficient. Stacks of ``Lambda``
    ``(..., 4, 4)``, ``k`` ``(..., 4)`` and ``lam`` ``(...)`` broadcast, and
    give a coefficient and a residual per row.
    """
    Lambda = np.asarray(Lambda, dtype=float)
    _require(is_proper_orthochronous(Lambda), "transformation is not proper orthochronous")
    _check_lam(lam)
    k = require_lightlike(k)
    k_out = _apply(Lambda, k)
    w = wigner_boost(Lambda, k).w
    lhs = _apply(Lambda.astype(complex), polarization(k, lam).eps)
    eps_out = polarization(k_out, lam).eps
    diff = lhs - eps_out * np.exp(-1j * lam * np.asarray(w))[..., None]
    k_c = k_out.astype(complex)
    coef = _dot(np.conj(k_c), diff) / _dot(np.conj(k_c), k_c)
    scale = np.maximum(1.0, np.max(np.abs(lhs), axis=-1))
    residual = np.max(np.abs(diff - coef[..., None] * k_c), axis=-1) / scale
    transversality = np.abs(minkowski(k_out, eps_out)) / np.maximum(1.0, k_out[..., 0] * k_out[..., 0])
    return _unstack(coef), _unstack(np.maximum(residual, transversality))
