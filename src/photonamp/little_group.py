"""The subgroup of Lorentz transformations fixing the reference null momentum.

For a massless particle moving along +z with reference momentum
k0 = (kappa, 0, 0, kappa), the stabilizer is generated by

* rotations about z, and
* two-parameter "isoenergetic boost-rotations": a boost chosen so the energy
  of k0 is unchanged, followed by the rotation that carries the tilted
  momentum back to +z.

The boost-rotation family ``ibr_matrix(alpha)`` is abelian and quadratic in
its 2-vector parameter; together with z-rotations it realizes the Euclidean
group of the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lorentz import (
    AxisAngle,
    Z_HAT,
    _require,
    _unstack,
    boost_matrix,
    rotation_matrix,
    rotation_z,
)

K0_NULL = np.array([1.0, 0.0, 0.0, 1.0])  # reference null direction (kappa = 1)
_Z_MINUS_NULL = np.array([1.0, 0.0, 0.0, -1.0])


def _check_theta(theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    _require((0.0 < theta) & (theta < math.pi), "degenerate isoenergetic direction")
    return theta


def isoenergetic_velocity(theta, phi) -> np.ndarray:
    """Boost velocity along the direction (theta, phi) that preserves the energy of k0.

    The signed speed is -2 cos(theta)/(1 + cos^2 theta): negative for
    theta < pi/2, zero in the transverse plane, and approaching light speed
    at the poles (which are rejected).
    """
    theta, phi = np.broadcast_arrays(_check_theta(theta), np.asarray(phi, dtype=float))
    c, s = np.cos(theta), np.sin(theta)
    speed = -2.0 * c / (1.0 + c * c)
    direction = np.stack([s * np.cos(phi), s * np.sin(phi), c], axis=-1)
    return speed[..., None] * direction


def final_polar_angle(theta):
    """Signed polar angle, in (-pi, pi), of k0's momentum after the isoenergetic boost."""
    return _unstack(2.0 * _check_theta(theta) - math.pi)


def alpha_from_angles(theta, phi) -> np.ndarray:
    """Abelian parameter alpha = -2 cot(theta) (cos phi, sin phi) of the boost-rotation."""
    theta = _check_theta(theta)
    phi = np.asarray(phi, dtype=float)
    scale = -2.0 / np.tan(theta)
    return scale[..., None] * np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def ibr_matrix(alpha) -> np.ndarray:
    """Closed-form matrix of the isoenergetic boost-rotation with parameter ``alpha``.

    Quadratic in alpha and exactly fixes (kappa, 0, 0, kappa) for every kappa.
    Takes ``(..., 2)`` and returns ``(..., 4, 4)``.
    """
    alpha = np.asarray(alpha, dtype=float)
    ax, ay = alpha[..., 0], alpha[..., 1]
    half = 0.5 * (ax * ax + ay * ay)
    one, zero = np.ones_like(ax), np.zeros_like(ax)
    entries = [
        one + half, ax, ay, -half,
        ax, one, zero, -ax,
        ay, zero, one, -ay,
        half, ax, ay, one - half,
    ]
    return np.stack(entries, axis=-1).reshape(ax.shape + (4, 4))


def ibr_physical_factors(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """(rotation, boost) pair whose product equals ``ibr_matrix(alpha_from_angles(...))``.

    The boost is the isoenergetic boost; the rotation turns the boosted
    momentum (at signed polar angle ``final_polar_angle(theta)``, azimuth phi)
    back to +z. Its axis is the in-plane normal z_hat x u1 with angle
    -final_polar_angle; this orientation is fixed by requiring the product to
    fix k0. Angles of shape ``(...)`` give two ``(..., 4, 4)`` stacks.
    """
    theta, phi = np.broadcast_arrays(_check_theta(theta), np.asarray(phi, dtype=float))
    boost = boost_matrix(isoenergetic_velocity(theta, phi))
    u1 = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)
    rot = rotation_matrix(AxisAngle(np.cross(Z_HAT, u1), -final_polar_angle(theta)))
    return rot, boost


@dataclass(frozen=True)
class LittleGroupElement:
    """Canonical factorization R_z(gamma) * ibr_matrix(alpha) of a stabilizer element."""

    gamma: float
    alpha: np.ndarray

    def matrix(self) -> np.ndarray:
        return rotation_z(self.gamma) @ ibr_matrix(self.alpha)


def decompose_little_group(M, tol: float = 1e-10) -> LittleGroupElement:
    """Split a matrix fixing k0 into (gamma, alpha) with M = R_z(gamma) ibr(alpha).

    The abelian parameter is read off from the action on the opposite null
    direction (1,0,0,-1), which z-rotations leave invariant; gamma then comes
    from the x-y block of the rotation remainder. Raises ValueError when M
    does not fix k0 or does not reconstruct. A stack ``(..., 4, 4)`` gives
    gamma ``(...)`` and alpha ``(..., 2)``.
    """
    M = np.asarray(M, dtype=float)
    _require(
        np.max(np.abs(M @ K0_NULL - K0_NULL), axis=-1) <= tol,
        "not a little-group element of k0",
    )
    image = M @ _Z_MINUS_NULL
    # In the factorization ibr(alpha') R_z(gamma), the opposite null direction
    # picks out alpha' directly: image = (1+|a|^2, 2ax, 2ay, |a|^2-1).
    alpha_rot = 0.5 * image[..., 1:3]
    remainder = ibr_matrix(-alpha_rot) @ M
    gamma = np.arctan2(remainder[..., 2, 1], remainder[..., 1, 1])
    cg, sg = np.cos(gamma), np.sin(gamma)
    ax, ay = alpha_rot[..., 0], alpha_rot[..., 1]
    alpha = np.stack([cg * ax + sg * ay, -sg * ax + cg * ay], axis=-1)
    element = LittleGroupElement(_unstack(gamma), alpha)
    _require(
        np.max(np.abs(element.matrix() - M), axis=(-2, -1)) <= max(tol, 1e-8),
        "matrix does not factor as R_z(gamma) * ibr(alpha)",
    )
    return element


def vector_generators() -> tuple[np.ndarray, np.ndarray]:
    """(J, K): rotation and boost generators in the real 4-vector representation.

    Conventions: rotation_matrix(AxisAngle(n, a)) = exp(a n.J) and
    boost_matrix(tanh(z) n) = exp(z n.K), with no factors of i.
    """
    J = np.zeros((3, 4, 4))
    J[0, 2, 3], J[0, 3, 2] = -1.0, 1.0  # about x: y -> z
    J[1, 3, 1], J[1, 1, 3] = -1.0, 1.0  # about y: z -> x
    J[2, 1, 2], J[2, 2, 1] = -1.0, 1.0  # about z: x -> y
    K = np.zeros((3, 4, 4))
    for i in range(3):
        K[i, 0, i + 1] = K[i, i + 1, 0] = 1.0
    return J, K


def ibr_generators() -> tuple[np.ndarray, np.ndarray]:
    """Commuting nilpotent generators (L_x, L_y) of the boost-rotation family.

    L_x = K_x - J_y and L_y = K_y + J_x in the conventions of
    ``vector_generators``; exp(ax L_x + ay L_y) reproduces ``ibr_matrix``.
    """
    J, K = vector_generators()
    return K[0] - J[1], K[1] + J[0]
