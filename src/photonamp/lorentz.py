"""Exact 4x4 Lorentz algebra: boosts, rotations, and standard transformations.

Conventions used throughout the package:

* metric signature (+, -, -, -), ``METRIC = diag(1, -1, -1, -1)``;
* transformations act actively on column 4-vectors, matrices are indexed
  row-first (contravariant index first);
* natural units (hbar = c = 1), so momenta carry energy units and positions
  inverse-energy units.

Four-vectors are plain ``numpy`` arrays of shape ``(4,)``; Lorentz matrices
are ``(4, 4)`` arrays.

Stacks. Every function here also takes a stack of inputs and broadcasts over
its leading axes:

* ``AxisAngle`` (axis ``(..., 3)``, angle ``(...)``), ``rotation3``
  (``(..., 3, 3)`` out), ``rotation_matrix``, ``su2_matrix``
  (``(..., 2, 2)`` out), ``compose_axis_angle``, ``rotation_z`` /
  ``rotation_y`` (angle ``(...)``);
* ``boost_matrix``, ``rapidity_from_beta``, ``beta_from_rapidity`` and
  ``sl2c_boost`` (``(..., 3)`` in, ``(..., 2, 2)`` out for the last);
* ``polar_azimuth``, ``azimuth_phase``, ``direction_spinor``,
  ``standard_rotation`` and ``light_energy`` (``(..., 3)`` in),
  ``standard_boost_z`` (energies ``(...)``), ``standard_lorentz``,
  ``is_lightlike``, ``require_lightlike`` and ``four_momentum`` (``(..., 4)``
  or ``(..., 3)`` in);
* ``metric_residual``, ``lorentz_inverse``, ``is_rotation`` and
  ``is_proper_orthochronous`` (``(..., 4, 4)`` in).

Matrices come out as ``(..., 4, 4)``, and scalars per row as ``(...)``. A
single input gives a ``(4, 4)`` array, or a Python ``float`` or ``bool``; a
stack gives, row by row, what the single calls give. Both go through the same
numpy ufuncs, so they share numpy's arithmetic, which may differ from Python's
``math`` in the last bit. Bad input raises ``ValueError``; for a stack, the
message ends with the first bad row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
IDENTITY2, IDENTITY3, IDENTITY4 = np.eye(2, dtype=complex), np.eye(3), np.eye(4)
for _eye in (IDENTITY2, IDENTITY3, IDENTITY4):
    _eye.setflags(write=False)  # shared by every call

Y_HAT = np.array([0.0, 1.0, 0.0])
Z_HAT = np.array([0.0, 0.0, 1.0])

#: Tolerance of the lightlike, rotation and proper-orthochronous tests.
_TOL = 1e-9

_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# -- stack helpers ----------------------------------------------------------


def _unstack(x):
    """A 0-d result as a Python scalar; a stack as it is."""
    x = np.asarray(x)
    return x.item() if x.ndim == 0 else x


def _require(ok, message) -> None:
    """Raise ValueError unless ``ok`` holds everywhere.

    ``message`` is the text, or a function of the first bad index that
    returns it; a stack's message ends with that row.
    """
    ok = np.asarray(ok, dtype=bool)
    if ok.all():
        return
    at = np.unravel_index(np.argmin(ok), ok.shape)
    text = message(at) if callable(message) else message
    if ok.ndim:
        row = int(at[0]) if ok.ndim == 1 else tuple(int(i) for i in at)
        text = f"{text} (row {row})"
    raise ValueError(text)


def _dot(a, b) -> np.ndarray:
    """Inner product over the last axis, as ``a @ b`` computes it for one pair."""
    a, b = np.asarray(a), np.asarray(b)
    return np.asarray((a[..., None, :] @ b[..., :, None])[..., 0, 0])


def _norm(v) -> np.ndarray:
    """Euclidean norm over the last axis, with ``np.linalg.norm``'s bits for one vector."""
    return np.sqrt(_dot(v, v))


def _apply(M, v) -> np.ndarray:
    """Matrix-vector product ``M @ v`` over a stack of matrices and vectors."""
    return (M @ np.asarray(v)[..., None])[..., 0]


def _identity(shape) -> np.ndarray:
    """A writable stack of 4x4 identities."""
    return np.broadcast_to(IDENTITY4, tuple(shape) + (4, 4)).copy()


def _transpose(L) -> np.ndarray:
    return np.swapaxes(L, -1, -2)


# -- four-vectors -----------------------------------------------------------


def minkowski(a, b):
    """Minkowski product a.b with signature (+,-,-,-); broadcasts over leading axes."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a[..., 0] * b[..., 0] - np.sum(a[..., 1:] * b[..., 1:], axis=-1)


def light_energy(kvec) -> np.ndarray:
    """|k|, the energy of an on-shell massless momentum, from spatial momenta (..., 3).

    np.linalg.norm(k, axis=-1)'s sum, in its order, read one column at a time:
    no slow reduction over 3 elements, and no copy of a column-major ``k``.
    """
    k = np.asarray(kvec, dtype=float)
    kx, ky, kz = k[..., 0], k[..., 1], k[..., 2]
    return np.sqrt(kx * kx + ky * ky + kz * kz)


def four_momentum(kvec) -> np.ndarray:
    """On-shell massless 4-momentum (|k|, k) from spatial momenta of shape (..., 3)."""
    k = np.asarray(kvec, dtype=float)
    return np.concatenate([light_energy(k)[..., None], k], axis=-1)


def is_lightlike(k):
    k = np.asarray(k, dtype=float)
    if k.ndim == 0 or k.shape[-1] != 4:
        return False
    energy = k[..., 0]
    return _unstack((energy > 0.0) & (np.abs(minkowski(k, k)) <= _TOL * energy**2))


def require_lightlike(k) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    _require(
        is_lightlike(k),
        lambda at: f"momentum {k[at]!r} is not lightlike with positive energy",
    )
    return k


# -- rotations and boosts ---------------------------------------------------


@dataclass(frozen=True)
class AxisAngle:
    """Rotation by ``angle`` (radians) about the unit 3-vector ``axis``.

    The axis is normalized once: one of unit norm to rounding, as another
    ``AxisAngle``'s, keeps its bits. A zero axis is rejected. A stack pairs
    axes ``(..., 3)`` with angles ``(...)``.
    """

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if axis.ndim == 0 or axis.shape[-1] != 3:
            raise ValueError("rotation axis must be a nonzero 3-vector")
        n = _norm(axis)
        _require(n >= 1e-12, "rotation axis must be a nonzero 3-vector")
        unit = np.abs(n - 1.0) <= 4.0 * np.finfo(float).eps
        object.__setattr__(self, "axis", np.where(unit[..., None], axis, axis / n[..., None]))
        object.__setattr__(self, "angle", _unstack(np.asarray(self.angle, dtype=float)))


def rotation3(r: AxisAngle) -> np.ndarray:
    """Active 3x3 rotation matrix (right-hand rule) for an axis-angle pair."""
    n = r.axis
    angle = np.asarray(r.angle)
    c, s = np.cos(angle)[..., None, None], np.sin(angle)[..., None, None]
    x, y, z = n[..., 0], n[..., 1], n[..., 2]
    zero = np.zeros_like(x)
    cross = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1)
    cross = cross.reshape(n.shape[:-1] + (3, 3))
    return c * IDENTITY3 + s * cross + (1.0 - c) * (n[..., :, None] * n[..., None, :])


def rotation_matrix(r: AxisAngle) -> np.ndarray:
    """4x4 spatial rotation: trivial time row/column, rotation3 block."""
    R3 = rotation3(r)
    out = _identity(R3.shape[:-2])
    out[..., 1:, 1:] = R3
    return out


def rotation_z(angle) -> np.ndarray:
    return rotation_matrix(AxisAngle(Z_HAT, angle))


def rotation_y(angle) -> np.ndarray:
    return rotation_matrix(AxisAngle(Y_HAT, angle))


def boost_matrix(beta) -> np.ndarray:
    """Active boost by 3-velocity ``beta``; maps (m,0,0,0) to m*(gamma, gamma*beta).

    Raises ValueError for superluminal speeds; a zero velocity gives the
    identity.
    """
    beta = np.asarray(beta, dtype=float)
    b2 = _dot(beta, beta)
    _require(b2 < 1.0, "superluminal boost")
    rest = b2 == 0.0
    gamma = 1.0 / np.sqrt(1.0 - b2)
    out = _identity(b2.shape)
    out[..., 0, 0] = gamma
    out[..., 0, 1:] = out[..., 1:, 0] = gamma[..., None] * beta
    scale = (gamma - 1.0) / np.where(rest, 1.0, b2)
    out[..., 1:, 1:] += scale[..., None, None] * (beta[..., :, None] * beta[..., None, :])
    return np.where(rest[..., None, None], IDENTITY4, out)


def rapidity_from_beta(beta) -> np.ndarray:
    """Rapidity 3-vector zeta = atanh(|beta|) * beta_hat."""
    beta = np.asarray(beta, dtype=float)
    b = _norm(beta)
    _require(b < 1.0, "superluminal boost")
    rest = (b == 0.0)[..., None]
    return np.where(rest, 0.0, np.arctanh(b)[..., None] * beta / np.where(rest, 1.0, b[..., None]))


def beta_from_rapidity(zeta) -> np.ndarray:
    zeta = np.asarray(zeta, dtype=float)
    z = _norm(zeta)
    rest = (z == 0.0)[..., None]
    return np.where(rest, 0.0, np.tanh(z)[..., None] * zeta / np.where(rest, 1.0, z[..., None]))


# -- the canonical frame of a lightlike momentum ----------------------------


def _on_polar_axis(v) -> np.ndarray:
    """The package's one on-axis test: the azimuth is fixed to zero where
    kx = ky = 0, and nowhere else, however small the transverse part."""
    return (v[..., 0] == 0.0) & (v[..., 1] == 0.0)


def polar_azimuth(v):
    """(theta, phi) of a nonzero 3-vector: theta = atan2(|v_perp|, v_z), phi := 0 on the z-axis."""
    v = np.asarray(v, dtype=float)
    _require(np.any(v != 0.0, axis=-1), "zero vector has no direction")
    theta = np.arctan2(_norm(v[..., :2]), v[..., 2])
    phi = np.where(_on_polar_axis(v), 0.0, np.arctan2(v[..., 1], v[..., 0]))
    return _unstack(theta), _unstack(phi)


def azimuth_phase(v) -> np.ndarray:
    """e^{i phi} of 3-vectors of shape (..., 3), with ``polar_azimuth``'s convention.

    The parity and time-reversal phases take the azimuth from here, so they
    fix it on the polar axis exactly where ``standard_rotation`` and
    ``direction_spinor`` do.
    """
    v = np.asarray(v, dtype=float)
    u = np.where(_on_polar_axis(v), 1.0, v[..., 0] + 1j * v[..., 1])
    return u / np.abs(u)


def direction_spinor(v):
    """(cos theta/2, sin theta/2 e^{i phi}) of 3-vectors ``(..., 3)``, the first column
    of the SU(2) standard rotation: every closed form takes k_hat from here.

    Nothing cancels near a pole: with s = |v| + |v_z|, cos theta/2 is s/sqrt(2|v| s)
    for v_z >= 0 and |v_x + i v_y|/sqrt(2|v| s) below, and sin theta/2 e^{i phi} is
    (v_x + i v_y)/(2|v| cos theta/2), with phi = 0 on the south pole as in
    ``azimuth_phase``. So +z gives exactly (1, 0) and -z exactly (0, 1); the zero
    vector, which has no direction, gives +z's (1, 0).
    """
    v = np.asarray(v, dtype=float)
    vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
    n = np.sqrt(vx * vx + vy * vy + vz * vz)
    u = vx + 1j * vy
    s = n + np.abs(vz)
    root = np.sqrt(2.0 * n * s)
    top = np.where(vz >= 0.0, s, np.abs(u))
    c = np.divide(top, root, out=np.ones(n.shape), where=root > 0.0)
    d = 2.0 * n * c
    sigma = np.divide(u, d, out=np.array(vz < 0.0, dtype=complex), where=d > 0.0)
    return _unstack(c), _unstack(sigma)


def standard_rotation(k_hat) -> np.ndarray:
    """Canonical rotation R_z(phi) R_y(theta) R_z(-phi) carrying +z to ``k_hat``.

    On the poles the azimuth is fixed to zero, making the result the identity
    (north) or a rotation about y by pi (south).
    """
    theta, phi = polar_azimuth(k_hat)
    return rotation_z(phi) @ rotation_y(theta) @ rotation_z(-phi)


def standard_boost_z(omega, kappa_ref) -> np.ndarray:
    """z-boost carrying the reference null energy ``kappa_ref`` (one, or one per row) to ``omega``.

    The boost speed is (omega^2 - kappa^2)/(omega^2 + kappa^2), negative when
    de-boosting to lower energy.
    """
    omega = np.asarray(omega, dtype=float)
    _require((omega > 0.0) & (kappa_ref > 0.0), "energies must be positive")
    omega2 = omega * omega
    beta = np.zeros(omega.shape + (3,))
    beta[..., 2] = (omega2 - kappa_ref**2) / (omega2 + kappa_ref**2)
    return boost_matrix(beta)


def standard_lorentz(k, kappa_ref) -> np.ndarray:
    """Canonical transformation carrying (kappa,0,0,kappa) to the lightlike ``k``.

    Composition: z-boost to energy k^0, then the standard rotation into k_hat.
    """
    k = require_lightlike(k)
    return standard_rotation(k[..., 1:]) @ standard_boost_z(k[..., 0], kappa_ref)


def _sigma_dot(n) -> np.ndarray:
    """n . sigma for 3-vectors ``(..., 3)``."""
    n = np.asarray(n)[..., None, None]
    return n[..., 0, :, :] * _PAULI_X + n[..., 1, :, :] * _PAULI_Y + n[..., 2, :, :] * _PAULI_Z


def su2_matrix(r: AxisAngle) -> np.ndarray:
    """Spin-1/2 rotation matrix exp(-i angle (axis . sigma)/2), Condon-Shortley basis."""
    half = 0.5 * np.asarray(r.angle)
    c, s = np.cos(half)[..., None, None], np.sin(half)[..., None, None]
    return c * IDENTITY2 - 1j * s * _sigma_dot(r.axis)


def sl2c_boost(zeta) -> np.ndarray:
    """Spin-1/2 boost exp(zeta . sigma / 2), the SL(2,C) partner of ``boost_matrix``."""
    zeta = np.asarray(zeta, dtype=float)
    z = _norm(zeta)
    ch, sh = np.cosh(0.5 * z)[..., None, None], np.sinh(0.5 * z)[..., None, None]
    return ch * IDENTITY2 + sh * _sigma_dot(zeta / np.where(z == 0.0, 1.0, z)[..., None])


def compose_axis_angle(r1: AxisAngle, r2: AxisAngle) -> AxisAngle:
    """Axis-angle of the composition r1 r2, computed through the spin-1/2 cover."""
    u = su2_matrix(r1) @ su2_matrix(r2)
    vec = np.stack([-u[..., 0, 1].imag, -u[..., 0, 1].real, -u[..., 0, 0].imag], axis=-1)
    s = _norm(vec)
    trivial = s < 1e-15
    axis = np.where(trivial[..., None], Z_HAT, vec / np.where(trivial, 1.0, s)[..., None])
    return AxisAngle(axis, np.where(trivial, 0.0, 2.0 * np.arctan2(s, u[..., 0, 0].real)))


# -- Lorentz matrices -------------------------------------------------------


def metric_residual(L):
    """Max-norm deviation of L^T g L from g."""
    L = np.asarray(L, dtype=float)
    return _unstack(np.max(np.abs(_transpose(L) @ METRIC @ L - METRIC), axis=(-2, -1)))


def lorentz_inverse(L) -> np.ndarray:
    """Inverse of a Lorentz matrix via the metric: L^{-1} = g L^T g."""
    L = np.asarray(L, dtype=float)
    return METRIC @ _transpose(L) @ METRIC


def _is_4x4(L) -> bool:
    return L.ndim >= 2 and L.shape[-2:] == (4, 4)


def is_rotation(L):
    """True when L is a pure spatial rotation (trivial time row/column, det +1)."""
    L = np.asarray(L, dtype=float)
    if not _is_4x4(L):
        return False
    time_ok = (
        (np.abs(L[..., 0, 0] - 1.0) <= _TOL)
        & np.all(np.abs(L[..., 0, 1:]) <= _TOL, axis=-1)
        & np.all(np.abs(L[..., 1:, 0]) <= _TOL, axis=-1)
    )
    R = L[..., 1:, 1:]
    orthogonal = np.max(np.abs(_transpose(R) @ R - IDENTITY3), axis=(-2, -1)) <= _TOL
    unit_det = np.abs(np.linalg.det(R) - 1.0) <= 10 * _TOL
    return _unstack(time_ok & orthogonal & unit_det)


def is_proper_orthochronous(L):
    L = np.asarray(L, dtype=float)
    if not _is_4x4(L):
        return False
    return _unstack(
        (np.asarray(metric_residual(L)) <= _TOL)
        & (L[..., 0, 0] >= 1.0 - _TOL)
        & (np.linalg.det(L) > 0.0)
    )
