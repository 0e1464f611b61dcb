"""Residual phase angles induced on helicity states by rotations and boosts.

Referring a Lorentz transformation back to the canonical frame of a lightlike
momentum leaves a little-group element: a z-rotation by the angle ``w``
(times an abelian remainder in the boost case). Helicity-lambda states pick
up the phase exp(-i lambda w).

Two evaluation paths are provided and cross-validated in the test suite:

* matrix decomposition of the frame-referred transformation
  (``wigner_rotation`` / ``wigner_boost``), and
* closed-form half-angle phases exp(-i w/2) of any SL(2,C) element, vectorized
  over momenta (``half_phase``), with one-transformation wrappers
  ``wigner_phase_rotation_closed`` / ``wigner_phase_boost_closed``. It takes
  k_hat only from ``lorentz.direction_spinor``, the matrix route only from
  ``standard_rotation``, so each checks the other; both fix phi := 0 on the axis.

Only the squared half-phase is single-valued; photon physics (lambda = +-1)
never needs the square root's branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lorentz import (
    AxisAngle,
    _apply,
    _require,
    _transpose,
    _unstack,
    direction_spinor,
    is_proper_orthochronous,
    is_rotation,
    lorentz_inverse,
    require_lightlike,
    rotation_z,
    sl2c_boost,
    standard_lorentz,
    standard_rotation,
    su2_matrix,
)
from .little_group import decompose_little_group

#: Largest decomposition residual accepted from the matrix route.
_RESIDUAL_TOL = 1e-8

#: Reference energy of the canonical transformations; w does not depend on it.
_KAPPA_REF = 1.0


@dataclass(frozen=True)
class WignerData:
    """Rotation angle w in (-pi, pi], its half phase exp(-i w/2), the abelian
    remainder alpha (zero for rotations), and the reconstruction residual of
    the matrix decomposition that produced it.

    For a stack of transformations or momenta every field gains the stack's
    leading axes: w, phase_half and residual are ``(...)`` arrays and alpha
    is ``(..., 2)``.
    """

    w: float
    phase_half: complex
    alpha: np.ndarray
    residual: float

    def phase(self, lam=1):
        """Single-valued state phase exp(-i lam w)."""
        return _unstack(np.exp(-1j * lam * np.asarray(self.w)))


def wigner_rotation(R, k) -> WignerData:
    """Little-group angle w with R_z(w) = R0^{-1}[R k_hat] R R0[k_hat].

    ``R`` must be a pure rotation and ``k`` lightlike; stacks ``(..., 4, 4)``
    and ``(..., 4)`` broadcast. The decomposition residual is returned; it
    exceeds 1e-8 only on misuse.
    """
    R = np.asarray(R, dtype=float)
    _require(is_rotation(R), "transformation is not a pure rotation")
    k = require_lightlike(k)
    k_out = _apply(R, k)
    W = _transpose(standard_rotation(k_out[..., 1:])) @ R @ standard_rotation(k[..., 1:])
    w = np.arctan2(W[..., 2, 1], W[..., 1, 1])
    residual = np.max(np.abs(W - rotation_z(w)), axis=(-2, -1))
    _require(
        residual <= _RESIDUAL_TOL,
        lambda at: f"rotation does not reduce to a z-rotation (residual {residual[at]:.3e})",
    )
    return WignerData(
        _unstack(w), _unstack(np.exp(-0.5j * w)), np.zeros(w.shape + (2,)), _unstack(residual)
    )


def wigner_boost(Lambda, k) -> WignerData:
    """Little-group data of L^{-1}(Lambda k) Lambda L(k) for proper orthochronous Lambda.

    Covers pure boosts and mixed boost-rotation products alike; the returned
    alpha is the abelian remainder alongside the z-rotation angle w. Stacks
    ``(..., 4, 4)`` and ``(..., 4)`` broadcast.
    """
    Lambda = np.asarray(Lambda, dtype=float)
    _require(is_proper_orthochronous(Lambda), "transformation is not proper orthochronous")
    k = require_lightlike(k)
    k_out = _apply(Lambda, k)
    W = lorentz_inverse(standard_lorentz(k_out, _KAPPA_REF)) @ Lambda @ standard_lorentz(k, _KAPPA_REF)
    element = decompose_little_group(W, tol=_RESIDUAL_TOL)
    residual = np.max(np.abs(element.matrix() - W), axis=(-2, -1))
    half = np.exp(-0.5j * np.asarray(element.gamma))
    return WignerData(element.gamma, _unstack(half), element.alpha, _unstack(residual))


def half_phase(A, kvec) -> np.ndarray:
    """Closed-form exp(-i w/2) of the SL(2,C) element ``A`` at the *initial* momenta ``kvec`` (..., 3).

    ``A`` is any product of ``su2_matrix`` and ``sl2c_boost`` factors, and the
    phase is a cocycle: half_phase(A2 A1, k) = half_phase(A2, Lambda1 k)
    half_phase(A1, k). chi = A direction_spinor(k) is exp(-i w/2) times a
    positive multiple of direction_spinor(Lambda k): real and positive in its
    first entry off the south pole, 1 in its second on it. So the phase is
    chi_0/|chi_0|, or chi_1/|chi_1| where chi_0 is exactly 0 (A is invertible).
    """
    c, sigma = direction_spinor(kvec)
    raw = A[..., 0, 0] * c + A[..., 0, 1] * sigma
    pole = raw == 0.0
    if pole.any():
        raw = np.where(pole, A[..., 1, 0] * c + A[..., 1, 1] * sigma, raw)
    return raw / np.abs(raw)


def rotation_half_phase(r: AxisAngle, kvec) -> np.ndarray:
    """``half_phase`` of the rotation ``r``."""
    return half_phase(su2_matrix(r), kvec)


def boost_half_phase(zeta, kvec) -> np.ndarray:
    """``half_phase`` of a pure boost of rapidity 3-vector ``zeta``, exactly 1 at zero rapidity."""
    return half_phase(sl2c_boost(zeta), kvec)


def wigner_phase_rotation_closed(r: AxisAngle, k):
    """Closed-form half phase exp(-i w/2) for a rotation ``r`` at the lightlike ``k``.

    Takes one rotation and momentum, or stacks of them (``AxisAngle`` with
    ``(..., 3)`` axes, ``k`` of shape ``(..., 4)``).
    """
    return _unstack(rotation_half_phase(r, require_lightlike(k)[..., 1:]))


def wigner_phase_boost_closed(zeta, k):
    """Closed-form half phase exp(-i w/2) for a pure boost of rapidity ``zeta``.

    Stacks of ``zeta`` ``(..., 3)`` and ``k`` ``(..., 4)`` broadcast, as for
    ``wigner_phase_rotation_closed``.
    """
    return _unstack(boost_half_phase(zeta, require_lightlike(k)[..., 1:]))
