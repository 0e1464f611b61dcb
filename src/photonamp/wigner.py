"""Residual phase angles induced on helicity states by rotations and boosts.

Referring a Lorentz transformation back to the canonical frame of a lightlike
momentum leaves a little-group element: a z-rotation by the angle ``w``
(times an abelian remainder in the boost case). Helicity-lambda states pick
up the phase exp(-i lambda w).

Two evaluation paths are provided and cross-validated in the test suite:

* matrix decomposition of the frame-referred transformation
  (``wigner_rotation`` / ``wigner_boost``), and
* closed-form half-angle phases exp(-i w/2) of any SL(2,C) element, vectorized
  over momenta (``half_phase``), with strict one-transformation wrappers
  ``wigner_phase_rotation_closed`` / ``wigner_phase_boost_closed``. They take
  k_hat only from ``lorentz.direction_spinor``, the matrix route only from
  ``standard_rotation``, so each path checks the other.

Only the squared half-phase is single-valued; photon physics (lambda = +-1)
never needs the square root's branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lorentz import (
    AxisAngle,
    _apply,
    _norm,
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

_DEGENERATE_TOL = 1e-12

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


def _half_raw(A, kvec) -> np.ndarray:
    """Unnormalized exp(-i w/2): the first row of ``A`` on ``direction_spinor(kvec)``."""
    c, sigma = direction_spinor(kvec)
    return A[..., 0, 0] * c + A[..., 0, 1] * sigma


def _boost_half_raw(zeta, kvec) -> np.ndarray:
    """``_half_raw`` of the boost of rapidity ``zeta``; exactly 1 where zeta = 0."""
    zeta = np.asarray(zeta, dtype=float)
    return np.where(_norm(zeta) == 0.0, 1.0, _half_raw(sl2c_boost(zeta), kvec))


def _normalized(num):
    mag = np.abs(num)
    return np.where(mag > _DEGENERATE_TOL, num, 1.0) / np.where(
        mag > _DEGENERATE_TOL, mag, 1.0
    )


def _strict(raw):
    """Normalized half phases; a degenerate alignment raises instead of clamping."""
    _require(np.abs(raw) > _DEGENERATE_TOL, "undefined half-phase")
    return _unstack(_normalized(raw))


def half_phase(A, kvec) -> np.ndarray:
    """Closed-form exp(-i w/2) of the SL(2,C) element ``A`` at the *initial* momenta ``kvec`` (..., 3).

    ``A`` is any product of ``su2_matrix`` and ``sl2c_boost`` factors, and the
    phase is a cocycle: half_phase(A2 A1, k) = half_phase(A2, Lambda1 k)
    half_phase(A1, k). Degenerate (measure-zero) alignments are clamped to 1.
    """
    return _normalized(_half_raw(A, kvec))


def rotation_half_phase(r: AxisAngle, kvec) -> np.ndarray:
    """``half_phase`` of the rotation ``r``."""
    return half_phase(su2_matrix(r), kvec)


def boost_half_phase(zeta, kvec) -> np.ndarray:
    """``half_phase`` of a pure boost of rapidity 3-vector ``zeta``, exactly 1 at zero rapidity."""
    return _normalized(_boost_half_raw(zeta, kvec))


def wigner_phase_rotation_closed(r: AxisAngle, k):
    """Closed-form half phase exp(-i w/2) for a rotation; raises on degenerate alignment.

    Takes one rotation and momentum, or stacks of them (``AxisAngle`` with
    ``(..., 3)`` axes, ``k`` of shape ``(..., 4)``); the error names the first
    degenerate row.
    """
    k = require_lightlike(k)
    return _strict(_half_raw(su2_matrix(r), k[..., 1:]))


def wigner_phase_boost_closed(zeta, k):
    """Closed-form half phase exp(-i w/2) for a pure boost of rapidity ``zeta``.

    Stacks of ``zeta`` ``(..., 3)`` and ``k`` ``(..., 4)`` broadcast, as for
    ``wigner_phase_rotation_closed``.
    """
    k = require_lightlike(k)
    return _strict(_boost_half_raw(zeta, k[..., 1:]))
