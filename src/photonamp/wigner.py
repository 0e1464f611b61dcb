"""Residual phase angles induced on helicity states by rotations and boosts.

Referring a Lorentz transformation back to the canonical frame of a lightlike
momentum leaves a little-group element: a z-rotation by the angle ``w``
(times an abelian remainder in the boost case). Helicity-lambda states pick
up the phase exp(-i lambda w).

Two evaluation paths are provided and cross-validated in the test suite:

* matrix decomposition of the frame-referred transformation
  (``wigner_rotation`` / ``wigner_boost``), and
* closed-form half-angle phases exp(-i w/2) built from spin-1/2 matrix
  elements (``wigner_phase_rotation_closed`` / ``wigner_phase_boost_closed``),
  vectorized over momentum arrays for quadrature use.

Only the squared half-phase is single-valued; photon physics (lambda = +-1)
never needs the square root's branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .lorentz import (
    AxisAngle,
    is_proper_orthochronous,
    is_rotation,
    lorentz_inverse,
    require_lightlike,
    rotation_z,
    standard_lorentz,
    standard_rotation,
    su2_matrix,
)
from .little_group import decompose_little_group

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class WignerData:
    """Rotation angle w in (-pi, pi], its half phase exp(-i w/2), the abelian
    remainder alpha (zero for rotations), and the reconstruction residual of
    the matrix decomposition that produced it."""

    w: float
    phase_half: complex
    alpha: np.ndarray = field(default_factory=lambda: np.zeros(2))
    residual: float = 0.0

    def phase(self, lam: int = 1) -> complex:
        """Single-valued state phase exp(-i lam w)."""
        return cmath.exp(-1j * lam * self.w)


def wigner_rotation(R, k, tol: float = 1e-8) -> WignerData:
    """Little-group angle w with R_z(w) = R0^{-1}[R k_hat] R R0[k_hat].

    ``R`` must be a pure rotation and ``k`` lightlike. The decomposition
    residual is returned; it exceeds ``tol`` only on misuse.
    """
    R = np.asarray(R, dtype=float)
    if not is_rotation(R):
        raise ValueError("transformation is not a pure rotation")
    k = require_lightlike(k)
    k_out = R @ k
    W = standard_rotation(k_out[1:]).T @ R @ standard_rotation(k[1:])
    w = math.atan2(W[2, 1], W[1, 1])
    residual = float(np.max(np.abs(W - rotation_z(w))))
    if residual > tol:
        raise ValueError(f"rotation does not reduce to a z-rotation (residual {residual:.3e})")
    return WignerData(w, cmath.exp(-0.5j * w), np.zeros(2), residual)


def wigner_boost(Lambda, k, kappa_ref: float = 1.0, tol: float = 1e-8) -> WignerData:
    """Little-group data of L^{-1}(Lambda k) Lambda L(k) for proper orthochronous Lambda.

    Covers pure boosts and mixed boost-rotation products alike; the returned
    alpha is the abelian remainder alongside the z-rotation angle w.
    """
    Lambda = np.asarray(Lambda, dtype=float)
    if not is_proper_orthochronous(Lambda):
        raise ValueError("transformation is not proper orthochronous")
    k = require_lightlike(k)
    k_out = Lambda @ k
    W = lorentz_inverse(standard_lorentz(k_out, kappa_ref)) @ Lambda @ standard_lorentz(k, kappa_ref)
    element = decompose_little_group(W, tol=tol)
    residual = float(np.max(np.abs(element.matrix() - W)))
    return WignerData(element.gamma, cmath.exp(-0.5j * element.gamma), element.alpha, residual)


def _half_angle_factors(kvec):
    """(cos(theta/2), sin(theta/2), e^{i phi}) for momenta of shape (..., 3).

    The azimuth is fixed to zero on the polar axis; nodes exactly on the axis
    are a measure-zero set in every quadrature this feeds.
    """
    k = np.asarray(kvec, dtype=float)
    kx, ky, kz = k[..., 0], k[..., 1], k[..., 2]
    kn = np.sqrt(kx * kx + ky * ky + kz * kz)
    safe = np.where(kn > 0.0, kn, 1.0)
    c = np.clip(kz / safe, -1.0, 1.0)
    ct2 = np.sqrt(0.5 * (1.0 + c))
    st2 = np.sqrt(0.5 * (1.0 - c))
    kperp = np.hypot(kx, ky)
    u = np.where(kperp > 1e-13 * safe, kx + 1j * ky, 1.0)
    eiphi = u / np.abs(u)
    return ct2, st2, eiphi


def _normalized(num):
    mag = np.abs(num)
    return np.where(mag > _DEGENERATE_TOL, num, 1.0) / np.where(
        mag > _DEGENERATE_TOL, mag, 1.0
    )


def rotation_half_phase(r: AxisAngle, kvec) -> np.ndarray:
    """Vectorized closed-form exp(-i w/2) for the rotation ``r`` acting at momenta ``kvec``.

    ``kvec`` holds the *initial* spatial momenta, shape (..., 3). Degenerate
    (measure-zero) alignments are clamped to phase 1; use the scalar wrapper
    for strict error reporting.
    """
    u = su2_matrix(r)
    ct2, st2, eiphi = _half_angle_factors(kvec)
    num = u[0, 0] * ct2 + u[0, 1] * st2 * eiphi
    return _normalized(num)


def boost_half_phase(zeta, kvec) -> np.ndarray:
    """Vectorized closed-form exp(-i w/2) for a pure boost of rapidity 3-vector ``zeta``."""
    zeta = np.asarray(zeta, dtype=float)
    z = float(np.linalg.norm(zeta))
    ct2, st2, eiphi = _half_angle_factors(kvec)
    if z == 0.0:
        return np.ones_like(eiphi)
    zhat = zeta / z
    a = math.cosh(0.5 * z) + math.sinh(0.5 * z) * zhat[2]
    b = math.sinh(0.5 * z) * (zhat[0] - 1j * zhat[1])
    num = a * ct2 + b * st2 * eiphi
    return _normalized(num)


def wigner_phase_rotation_closed(r: AxisAngle, k) -> complex:
    """Closed-form half phase exp(-i w/2) for a rotation; raises on degenerate alignment."""
    k = require_lightlike(k)
    u = su2_matrix(r)
    ct2, st2, eiphi = _half_angle_factors(k[1:])
    raw = complex(u[0, 0] * ct2 + u[0, 1] * st2 * eiphi)
    if abs(raw) <= _DEGENERATE_TOL:
        raise ValueError("undefined half-phase")
    return raw / abs(raw)


def wigner_phase_boost_closed(zeta, k) -> complex:
    """Closed-form half phase exp(-i w/2) for a pure boost of rapidity ``zeta``."""
    k = require_lightlike(k)
    zeta = np.asarray(zeta, dtype=float)
    z = float(np.linalg.norm(zeta))
    if z == 0.0:
        return 1.0 + 0.0j
    ct2, st2, eiphi = _half_angle_factors(k[1:])
    zhat = zeta / z
    a = math.cosh(0.5 * z) + math.sinh(0.5 * z) * zhat[2]
    b = math.sinh(0.5 * z) * (zhat[0] - 1j * zhat[1])
    raw = complex(a * ct2 + b * st2 * eiphi)
    if abs(raw) <= _DEGENERATE_TOL:
        raise ValueError("undefined half-phase")
    return raw / abs(raw)
