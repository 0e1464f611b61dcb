"""Coherent-state expectation values of the electromagnetic field strengths.

For a wavepacket amplitude psi tuned to mean photon number one, the field
expectation is the momentum integral

    <F^{mu nu}(x)> = C int d^3k / sqrt(omega) sum_lam T^{mu nu}(k, lam)
                     psi_lam(k) e^{-i k.x}  + c.c.,

with T the gauge-invariant coefficient k^mu eps^nu - k^nu eps^mu and
C = 1/sqrt(16 pi^3). The sign/phase convention is pinned by the narrowband
closed form below: a +z circular packet of central energy kappa gives

    E = sqrt(kappa) G(x,t) (cos chi, -sin chi, 0),
    B = sqrt(kappa) G(x,t) (sin chi, cos chi, 0),   chi = kappa (z - t),

where G is the unit-norm Gaussian envelope of width sigma_x = 1/(2 sigma_k)
translating at the speed of light. Narrowband evaluation is exact to first
order in sigma_k/kappa and valid for |t| well inside (kappa/sigma_k) sigma_x.

Every field observable starts from one set of spacetime-independent node
coefficients: per momentum node and helicity present, the antisymmetric
coefficient (or, for the potential, the polarization vector itself) weighted
by the amplitude and the quadrature, built slab by slab once per amplitude and
form, and kept on it. Helicity vectors obey k x eps_lam = -i lam omega eps_lam,
so each helicity's magnetic half of the coefficient is -i lam times its
electric half, and B^{(+)} = -i lam E^{(+)} helicity by helicity (the
Riemann-Silberstein structure). The kept table therefore holds the three
electric components E_lam = S^{0i} of each helicity present, one block of
three columns per helicity. A gauge-shifted build fills the same blocks with
the explicit electric half omega eps^i - k^i eps^0 of the shifted eps.

The nodes are the origin's field box carried forward by the element, as for
every observable (:mod:`photonamp.amplitudes`), at the node count that each
point's or grid's phase range calls for (``_field_rule``). For k carried from q,
k.x = (|q|, q).y at y = (y^0, s y), y = Lambda^{-1} x and s = -1 if exactly
one of P and T is set, so pointwise sums take a phase that is separable on the
origin's Gauss-Legendre box: e^{i q.y} is the outer product of three one-axis
exponentials, and e^{-i |q| y^0} is formed once per distinct time. Grid fills
reduce the Fourier sum to three small tensor contractions per kept column, one
column at a time, so a fill on an n^3 grid holds the real fields (or the one
real density summed from them), the node coefficients and one complex
(n, n, n) sum with its contraction's temporaries; each column's sum makes both
E and B, and the Sipe density contracts the helicities' columns of a
component added on the nodes. A rotated or boosted packet's grid is not
separable and is refused. The narrowband conservation integrals factorize
over the three axes and are summed in separable form.

Everything is in natural units; only ``localization_scale`` and the CLI
convert to laboratory units via hbar*c.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .amplitudes import (HELICITIES, NPTS_LADDER, HelicityAmplitude, QuadratureDomainWarning,
                         _squared_modulus, _warn_if_clipped, expectation_momentum)
from .lorentz import (
    AxisAngle,
    boost_matrix,
    light_energy,
    lorentz_inverse,
    rotation_matrix,
)
from .polarization import polarization_spatial
from .quadrature import BoxQuadrature

PREFACTOR = 1.0 / math.sqrt(16.0 * math.pi**3)
HBARC_EV_NM = 197.3269804
HBARC_EV_UM = HBARC_EV_NM * 1e-3

#: Carrier sampling rule for energy/momentum grid integrals: at least 8
#: points per wavelength, i.e. spacing <= (2 pi / kappa) / 8.
CARRIER_POINTS_PER_WAVELENGTH = 8


class UnderResolvedGridError(ValueError):
    """Spatial grid too coarse to resolve the carrier wave."""


class NarrowbandValidityWarning(UserWarning):
    """The narrowband form used outside its validity: a time outside the
    no-spreading window, or (CLI ``fields``) a sigma/kappa too broad."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform Cartesian grid: origin corner, per-axis spacing, n points per axis."""

    origin: np.ndarray
    spacing: np.ndarray
    npts: int

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=float).reshape(3)
        spacing = np.broadcast_to(np.asarray(self.spacing, dtype=float), (3,)).copy()
        if np.any(spacing <= 0.0) or self.npts < 2:
            raise ValueError("grid spacing must be positive and npts >= 2")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "spacing", spacing)

    @classmethod
    def centered(cls, halfwidth, npts: int, center=(0.0, 0.0, 0.0)) -> "SpatialGrid":
        halfwidth = np.broadcast_to(np.asarray(halfwidth, dtype=float), (3,)).copy()
        center = np.asarray(center, dtype=float).reshape(3)
        if npts < 2:
            raise ValueError("grid spacing must be positive and npts >= 2")
        spacing = 2.0 * halfwidth / (npts - 1)
        return cls(center - halfwidth, spacing, npts)

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        idx = np.arange(self.npts)
        return tuple(self.origin[i] + self.spacing[i] * idx for i in range(3))

    def trapezoid_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        out = []
        for i in range(3):
            w = np.full(self.npts, self.spacing[i])
            w[0] *= 0.5
            w[-1] *= 0.5
            out.append(w)
        return tuple(out)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.npts, self.npts, self.npts)


@dataclass
class FieldTensorGrid:
    """Real E and B fields sampled on a spatial grid at a fixed time.

    ``kappa`` records the carrier energy when known, enabling the resolution
    check in :func:`energy_momentum_integrals`.
    """

    grid: SpatialGrid
    t: float
    E: np.ndarray  # (n, n, n, 3)
    B: np.ndarray
    kappa: float | None = None
    field_npts: int | None = None  # the field rule's nodes per axis and the phase range R
    phase_range: float | None = None

    def energy_density(self) -> np.ndarray:
        # each |.|^2 summed by hand in np.sum's order, not by a reduction over 3 elements
        E, B = self.E, self.B
        e2 = E[..., 0] * E[..., 0] + E[..., 1] * E[..., 1] + E[..., 2] * E[..., 2]
        b2 = B[..., 0] * B[..., 0] + B[..., 1] * B[..., 1] + B[..., 2] * B[..., 2]
        return 0.5 * (e2 + b2)

    def poynting(self) -> np.ndarray:
        return np.cross(self.E, self.B)


@dataclass(frozen=True)
class NarrowbandSpec:
    """Central energy and momentum width of a +z circular Gaussian packet.

    The position width is locked to sigma_x = 1/(2 sigma_k); the closed form
    stays valid while |t| is small against (kappa/sigma_k) sigma_x.
    """

    kappa: float
    sigma_k: float

    def __post_init__(self):
        if self.kappa <= 0.0 or self.sigma_k <= 0.0:
            raise ValueError("kappa and sigma_k must be positive")

    @property
    def sigma_x(self) -> float:
        return 0.5 / self.sigma_k

    @property
    def spreading_window(self) -> float:
        return (self.kappa / self.sigma_k) * self.sigma_x


# -- pointwise momentum-integral evaluation ----------------------------------

#: Field integrands are linear in psi, so their box-edge tails are only the
#: square root of the density tails the amplitude box was sized for. Widening
#: the box by 1.5 restores the same tail suppression for field quadratures.
FIELD_BOX_SCALE = 1.5

#: Phase ranges R (``_field_rule``; ``scripts/field_rule_scan.py``): to 3.0, 32 nodes per
#: axis are within 5e-14 of max|F| of a 128-node sum, and a sized packet with a 32-node
#: origin takes 32, else 48. From 32 nodes up, n nodes are within 1e-9 while R <= 1.8
#: (n - 24), and a sum past that warns; below 32 the envelope sets the error.
FIELD_SIZING_LIMIT, PHASE_RADIANS_PER_NODE, PHASE_NODE_OFFSET = 3.0, 1.8, 24

#: Spacetime points per phase block: each block forms its (8, N) complex phase
#: array (about 14 MB on the default 48^3 field box) and sums it against the
#: node coefficients in one matrix product.
POINT_BLOCK = 8

#: (mu, nu) index pairs of the six independent components of an antisymmetric
#: tensor, in the order S^{01}, S^{02}, S^{03}, S^{23}, S^{31}, S^{12}.
_MU = np.array([0, 0, 0, 2, 3, 1])
_NU = np.array([1, 2, 3, 3, 1, 2])


def _cross_component(a: np.ndarray, b: np.ndarray, i: int) -> np.ndarray:
    """Component i of a x b for (..., 3) arrays, in np.cross's arithmetic: a_j b_k - a_k b_j."""
    j, k = (i + 1) % 3, (i + 2) % 3
    out = a[..., j] * b[..., k]
    out -= a[..., k] * b[..., j]
    return out


def _helicities(psi: HelicityAmplitude) -> list[int]:
    """The helicities ``psi`` carries, in HELICITIES order: one block of table columns each."""
    return [lam for lam in HELICITIES if psi.component(lam) is not None]


def _node_coefficients(psi: HelicityAmplitude, gauge=None, tensor: bool = True, npts=None):
    """Spacetime-independent node coefficients of the positive-frequency momentum integral.

    Returns ``(box, omega, C)``, ``box`` the origin's field box at ``npts`` per
    axis (``_field_rule``), its nodes q carried to k (``_Poincare.carried``), and
    ``omega`` |q_n|: the sums take the phase e^{-i k.x} on ``box``'s axes. With
    c_lam = PREFACTOR w_n / sqrt(|k_n|) psi_lam(k_n), w_n carried, row n of a
    ``tensor`` table holds, for each helicity lam of ``_helicities(psi)`` in
    turn, the three columns E_lam = c_lam omega eps_lam: the electric half
    S^{0i} of c_lam (k^mu eps^nu - k^nu eps^mu), whose magnetic half
    (S^{23}, S^{31}, S^{12}) = c_lam k x eps_lam = -i lam E_lam is not kept.
    ``C`` is (N, 3) for one helicity and (N, 6) for two. Without ``tensor``,
    row n holds sum_lam c eps^mu, four columns.

    ``gauge`` shifts every eps by gauge(k) k, and the tensor build then fills
    the same columns with the explicit electric half omega eps^i - k^i eps^0
    of the shifted eps.

    Built slab by slab: each slab's rows of ``omega`` and ``C`` are written in
    place, and every temporary is the size of a slab. A row's bits do not
    depend on the rows beside it, so ``C`` is the whole-box build's. A build
    warns (``_warn_if_clipped``) when the field box's shell holds too much density.

    Without a gauge the arrays are kept on the amplitude, one entry per form and
    npts, and are read-only: later calls return the same arrays.
    """
    quad, element = psi.quad, psi._element
    npts = npts or (NPTS_LADDER[-1] if quad.sized else quad.npts)  # the rule at unknown R
    if gauge is None and (tensor, npts) in psi._nodes:
        return psi._nodes[tensor, npts]
    box = BoxQuadrature(quad.center, FIELD_BOX_SCALE * quad.halfwidth, npts)
    helicities = _helicities(psi)
    omega = np.empty(box.npts**3)
    C = np.zeros((len(omega), 3 * len(helicities) if tensor else 4), dtype=complex)
    peak = boundary = 0.0
    start = 0
    for q, pts, w, shell in element.carried(box):
        rows = slice(start, start + len(pts))
        start = rows.stop
        Cs = C[rows]
        omega[rows] = light_energy(q)
        om = light_energy(pts) if element.lorentz else omega[rows]
        base = PREFACTOR * w / np.sqrt(om)
        density = np.zeros(len(pts))
        for block, lam in enumerate(helicities):
            eps, eps0 = polarization_spatial(pts, lam), None  # eps^0 = 0 without a gauge
            if gauge is not None:
                g = np.asarray(gauge(pts), dtype=complex)
                eps, eps0 = eps + g[:, None] * pts, g * om
            amplitude = psi.evaluate(lam, pts)
            density += amplitude.real * amplitude.real + amplitude.imag * amplitude.imag
            c = base * amplitude
            # column by column: a broadcast over rows of 3 would loop 3 values at a time
            if tensor:
                c_omega = c * om
                for i in range(3):
                    column = Cs[:, 3 * block + i]
                    column += c_omega * eps[:, i]
                    if eps0 is not None:
                        column -= (c * eps0) * pts[:, i]
            else:
                for i in range(3):
                    Cs[:, 1 + i] += c * eps[:, i]
                if eps0 is not None:
                    Cs[:, 0] += c * eps0
        peak = max(peak, float(density.max()))
        boundary = max(boundary, float(density[shell].max()))
    _warn_if_clipped("field", peak, boundary, stacklevel=2)
    omega.flags.writeable = C.flags.writeable = False
    if gauge is None:
        psi._nodes[tensor, npts] = (box, omega, C)
    return box, omega, C


def _field_rule(psi: HelicityAmplitude, y: np.ndarray):
    """(npts, R) at each origin-frame point of y (N, 4), y = ``origin_point(x - a)``.

    The phase of field-box node q = c + L u is q.y - |q| y^0; R (rad) is its largest
    rate per axis, L_i |y_i - c_i y^0 / |c||, plus the u^2 coefficient of the chirp,
    L^2 |y^0| / (2 |c|), at most L |y^0|. Past its limit a call warns with the npts it needs.
    """
    quad = psi.quad
    half, norm = FIELD_BOX_SCALE * quad.halfwidth, float(np.linalg.norm(quad.center))
    direction = quad.center / norm if norm > 0.0 else np.zeros(3)
    spatial = (half * np.abs(y[:, 1:] - np.outer(y[:, 0], direction))).max(axis=1, initial=0.0)
    phase_range = spatial + np.abs(y[:, 0]) * (h := float(half.max())) * h / max(2.0 * norm, h)
    small = quad.sized & (quad.npts == NPTS_LADDER[0]) & (phase_range <= FIELD_SIZING_LIMIT)
    npts = np.where(small, NPTS_LADDER[0], NPTS_LADDER[-1] if quad.sized else quad.npts)
    # npts grows with R, so the point of largest R has the largest npts and limit
    R, n = float(phase_range.max(initial=0.0)), int(npts.max(initial=0))
    if n >= NPTS_LADDER[0] and R > (limit := PHASE_RADIANS_PER_NODE * (n - PHASE_NODE_OFFSET)):
        warnings.warn(f"field phase range {R:.3g} rad is past the {n}-node limit {limit:.3g}; "
                      f"about {math.ceil(PHASE_NODE_OFFSET + R / PHASE_RADIANS_PER_NODE)} nodes "
                      "per axis would meet it", QuadratureDomainWarning, stacklevel=3)
    return npts, phase_range


def _sum_over_nodes(psi: HelicityAmplitude, x, gauge=None, tensor: bool = True) -> np.ndarray:
    """sum_n e^{-i k_n.x} C_n over ``psi``'s node coefficients at every spacetime point of ``x``.

    ``x`` has shape (4,) or (..., 4); the result has shape (..., C.shape[1]).
    Each point sums on the field box ``_field_rule`` sizes for it alone, so a
    batch gives its rows' values. Points go through in blocks of POINT_BLOCK.
    k_n.x is (|q_n|, q_n).y at y = ``_Poincare.origin_point(x)``, x itself for
    an untransformed packet, so e^{i q.y} is the outer product of one
    exponential per axis of the origin's box, and e^{-i omega y^0} is formed
    once for each distinct y^0, kept between blocks.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (4,):
        raise ValueError(f"spacetime points need a last axis of length 4, got {x.shape}")
    element, points = psi._element, x.reshape(-1, 4)
    npts, _ = _field_rule(psi, element.origin_point(points - element.a))
    flat, out = element.origin_point(points), None
    for n in np.unique(npts).tolist() or [psi.quad.npts]:
        box, omega, C = _node_coefficients(psi, gauge, tensor, n)
        out = np.empty((len(flat), C.shape[1]), dtype=complex) if out is None else out
        rows, axes, clocks = np.flatnonzero(npts == n), box.axes(), {}
        for block in (rows[i : i + POINT_BLOCK] for i in range(0, len(rows), POINT_BLOCK)):
            xb = flat[block]
            times = xb[:, 0].tolist()
            clocks = {
                t: clocks[t] if t in clocks else np.exp(-1j * omega * t)
                for t in dict.fromkeys(times)
            }
            ex, ey, ez = (np.exp(1j * np.outer(xb[:, 1 + i], axes[i])) for i in range(3))
            phase = (
                (ex[:, :, None] * ey[:, None, :])[..., None] * ez[:, None, None, :]
            ).reshape(len(xb), -1)
            for row, t in zip(phase, times):
                row *= clocks[t]
            if len(xb) == 1:
                # a one-row product would take the matrix-vector kernel, which sums
                # the nodes in another order than the blocked one
                phase = np.vstack([phase, np.zeros_like(phase)])
            out[block] = (phase @ C)[: len(xb)]
    return out.reshape(x.shape[:-1] + (C.shape[1],))


def positive_frequency_field(psi: HelicityAmplitude, x, gauge=None) -> np.ndarray:
    """Complex positive-frequency tensor F^{(+)mu nu}(x); its term + c.c. is <F>.

    ``x`` is one spacetime point (4,) or an array of them (..., 4); the result
    has shape (..., 4, 4). Without a gauge, the node coefficients are built on
    the first call for ``psi`` and reused by every later one. S^{0i} is the sum
    of the helicity blocks E_lam and (S^{23}, S^{31}, S^{12}) is -i times their
    helicity-weighted sum, sum_lam lam E_lam (``_node_coefficients``).

    ``gauge``: optional callable f(kpts) -> complex (N,) shifting every
    polarization vector by f(k) k; observables built from the antisymmetric
    coefficient are unchanged by it.
    """
    comps = _sum_over_nodes(psi, x, gauge)
    blocks = comps.reshape(comps.shape[:-1] + (-1, 3))
    lam = np.array(_helicities(psi))[:, None]
    E, D = np.sum(blocks, axis=-2), np.sum(lam * blocks, axis=-2)
    S = np.zeros(comps.shape[:-1] + (4, 4), dtype=complex)
    S[..., _MU, _NU] = np.concatenate([E, -1j * D], axis=-1)
    S[..., _NU, _MU] = -S[..., _MU, _NU]
    return S


def field_expectation_exact(psi: HelicityAmplitude, x, gauge=None) -> np.ndarray:
    """Real antisymmetric <F^{mu nu}> at the spacetime point(s) ``x``, shape (..., 4, 4)."""
    return 2.0 * positive_frequency_field(psi, x, gauge).real


def sipe_wavefunction(psi: HelicityAmplitude, x) -> np.ndarray:
    """Gauge-invariant 3-vector sqrt(2) F^{(+)0i}(x) = -sqrt(2) E^{(+)i}(x), shape (..., 3)."""
    S = positive_frequency_field(psi, x)
    return math.sqrt(2.0) * S[..., 0, 1:]


def bb_density(psi: HelicityAmplitude, x):
    """Nonnegative energy-density-like scalar |E^{(+)}|^2 + |B^{(+)}|^2.

    A float for one point (4,), an array of shape (...) for points (..., 4).
    """
    S = positive_frequency_field(psi, x)
    Ep = -S[..., 0, 1:]
    Bp = -S[..., _MU[3:], _NU[3:]]
    rho = np.sum(np.abs(Ep) ** 2, axis=-1) + np.sum(np.abs(Bp) ** 2, axis=-1)
    return float(rho) if rho.ndim == 0 else rho


def vector_potential(psi: HelicityAmplitude, x, gauge=None) -> np.ndarray:
    """Complex 4-potential (twice the positive-frequency part; real part physical).

    ``x`` is (4,) or (..., 4); the result has shape (..., 4). In the canonical
    gauge the time component vanishes. Gauge shifts move the potential but not
    the reconstructed field strengths.
    """
    return 2j * _sum_over_nodes(psi, x, gauge, tensor=False)


# -- tensor-product grid fills -------------------------------------------------


def _contract(C: np.ndarray, Ax: np.ndarray, Ay: np.ndarray, Az: np.ndarray) -> np.ndarray:
    # each step rebinds t, so one intermediate is freed before the next is formed
    t = np.tensordot(C, Az, axes=(2, 0))  # (kx, ky, Z)
    t = np.tensordot(t, Ay, axes=(1, 0))  # (kx, Z, Y)
    t = np.tensordot(t, Ax, axes=(0, 0))  # (Z, Y, X)
    return np.transpose(t, (2, 1, 0))


def _grid_sums(psi: HelicityAmplitude, grid: SpatialGrid, t: float):
    """(columns, grid_sum, npts, R): the kept tensor table's columns and their sum on the grid.

    ``columns`` lists (lam, a, column) in the table's order, the column a view
    of the kept ``C`` that holds component a of E_lam (``_node_coefficients``).
    ``grid_sum(c)`` is sum_n e^{i(k_n.x - omega_n t)} c_n for a node column c,
    one (n, n, n) complex array; for column (lam, a) it is G, which adds -G to
    E^{(+)}_a and i lam G to B^{(+)}_a. While a sum is formed, only c, times
    e^{-i omega t} when t != 0, is live beside it, so a caller that drops each
    sum before it forms the next holds one at a time. ``npts`` and R are
    ``_field_rule``'s at the grid's first and last corner, where R is largest per axis.
    """
    element = psi._element
    if element.lorentz:
        raise ValueError("a rotated or boosted packet has no separable grid fill; evaluate it "
                         "pointwise with field_expectation_exact or positive_frequency_field")
    axes = grid.axes()
    ends = np.array([[t, *(g[i] for g in axes)] for i in (0, -1)])
    npts, phase_range = (v.max() for v in _field_rule(psi, element.origin_point(ends - element.a)))
    box, omega, C = _node_coefficients(psi, npts=int(npts))
    nq, s = box.npts, -1.0 if element.flipped else 1.0  # k.x = q.(s x): module docstring
    Ax, Ay, Az = (np.exp(1j * np.outer(k, s * g)) for k, g in zip(box.axes(), axes))
    clock = np.exp(-1j * omega * t) if t != 0.0 else None

    def grid_sum(column):
        if clock is not None:
            column = column * clock  # the kept C has no clock
        return _contract(column.reshape(nq, nq, nq), Ax, Ay, Az)

    columns = [(lam, a, C[:, 3 * block + a])
               for block, lam in enumerate(_helicities(psi)) for a in range(3)]
    return columns, grid_sum, int(npts), float(phase_range)


def positive_frequency_grid(
    psi: HelicityAmplitude, grid: SpatialGrid, t: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(E^{(+)}, B^{(+)}) complex fields on the grid, shape (n, n, n, 3) each.

    Column (lam, a)'s grid sum G adds -G to E^{(+)}_a and i lam G to B^{(+)}_a.
    """
    Ep = np.zeros(grid.shape + (3,), dtype=complex)
    Bp = np.zeros_like(Ep)
    columns, grid_sum, *_ = _grid_sums(psi, grid, t)
    for lam, a, column in columns:
        G = grid_sum(column)
        Ep[..., a] -= G
        G *= 1j * lam
        Bp[..., a] += G
        del G  # freed before the next one is contracted
    return Ep, Bp


def field_expectation_grid(
    psi: HelicityAmplitude, grid: SpatialGrid, t: float = 0.0
) -> FieldTensorGrid:
    """Real <E>, <B> on the grid; tags the carrier with the packet's mean energy.

    Column (lam, a)'s grid sum G adds -2 Re G to E_a and -2 lam Im G to B_a,
    so one contraction makes both fields. G is scaled in place: no complex
    field is kept.
    """
    kappa = energy_expectation(psi)
    E = np.zeros(grid.shape + (3,))
    B = np.zeros_like(E)
    columns, grid_sum, npts, phase_range = _grid_sums(psi, grid, t)
    for lam, a, column in columns:
        G = grid_sum(column)
        G *= -2.0  # 2 E^{(+)} of this column
        E[..., a] += G.real
        G *= -1j * lam  # 2 B^{(+)} = -i lam 2 E^{(+)}
        B[..., a] += G.real
        del G  # freed before the next one is contracted
    return FieldTensorGrid(grid, t, E, B, kappa, npts, phase_range)


# -- narrowband closed form ----------------------------------------------------


def _narrowband_envelope(spec: NarrowbandSpec, X, Y, Z, t: float):
    sx2 = spec.sigma_x**2
    r2 = X * X + Y * Y + (Z - t) ** 2
    return np.exp(-r2 / (4.0 * sx2)) / (2.0 * math.pi * sx2) ** 0.75


def _narrowband_EB(spec: NarrowbandSpec, X, Y, Z, t: float, phase_offset: float = 0.0):
    G = _narrowband_envelope(spec, X, Y, Z, t)
    chi = spec.kappa * (Z - t) + phase_offset
    root = math.sqrt(spec.kappa)
    c, s = np.cos(chi), np.sin(chi)
    Ex, Ey = root * G * c, -root * G * s
    Bx, By = root * G * s, root * G * c
    zero = np.zeros_like(G)
    E = np.stack([Ex, Ey, zero], axis=-1)
    B = np.stack([Bx, By, zero], axis=-1)
    return E, B


def _warn_if_spreading(spec: NarrowbandSpec, t: float):
    if abs(t) > 0.2 * spec.spreading_window:
        warnings.warn(
            f"time {t} is outside the no-spreading window "
            f"(~{spec.spreading_window:.3g}); narrowband fields degrade",
            NarrowbandValidityWarning,
            stacklevel=3,
        )


def field_expectation_narrowband(spec: NarrowbandSpec, x) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form (E, B) at the spacetime point ``x``."""
    x = np.asarray(x, dtype=float).reshape(4)
    _warn_if_spreading(spec, x[0])
    E, B = _narrowband_EB(spec, np.asarray(x[1]), np.asarray(x[2]), np.asarray(x[3]), x[0])
    return E.reshape(3), B.reshape(3)


def narrowband_grid(
    spec: NarrowbandSpec, grid: SpatialGrid, t: float = 0.0, phase_offset: float = 0.0
) -> FieldTensorGrid:
    """Closed-form fields sampled on a (materializable) spatial grid."""
    _warn_if_spreading(spec, t)
    gx, gy, gz = grid.axes()
    # broadcast axes: the carrier's cos and sin run on the n values of z alone
    E, B = _narrowband_EB(spec, gx[:, None, None], gy[None, :, None], gz, t, phase_offset)
    return FieldTensorGrid(grid, t, E, B, spec.kappa)


def relative_l2(exact: FieldTensorGrid, closed: FieldTensorGrid) -> float:
    """Relative L2 difference of grid fields from a closed form on the same grid.

    sqrt(sum |E - E_nb|^2 + |B - B_nb|^2) / sqrt(sum |E_nb|^2 + |B_nb|^2); against
    :func:`narrowband_grid` at the grid's time it scales linearly with
    sigma_k / kappa.
    """
    return math.sqrt(
        float(np.sum((exact.E - closed.E) ** 2 + (exact.B - closed.B) ** 2))
        / float(np.sum(closed.E**2 + closed.B**2))
    )


# -- grid integrals --------------------------------------------------------------


def _require_carrier_resolved(grid: SpatialGrid, kappa: float):
    limit = (2.0 * math.pi / kappa) / CARRIER_POINTS_PER_WAVELENGTH
    h_max = float(np.max(grid.spacing))
    if h_max > limit * (1.0 + 1e-12):
        extent = float(np.max(grid.spacing)) * (grid.npts - 1)
        needed = math.ceil(extent / limit) + 1
        raise UnderResolvedGridError(
            f"grid spacing {h_max:.4g} exceeds the carrier limit {limit:.4g} "
            f"(need >= {CARRIER_POINTS_PER_WAVELENGTH} points per wavelength, "
            f"n >= {needed} at this extent)"
        )


def _trapezoid_integral(values: np.ndarray, grid: SpatialGrid) -> float:
    """Trapezoid-rule integral of ``values`` on ``grid``'s nodes, summed in C order in any layout."""
    return float(np.einsum("xyz,x,y,z->", np.ascontiguousarray(values), *grid.trapezoid_weights()))


def energy_momentum_integrals(ftg: FieldTensorGrid) -> np.ndarray:
    """(int u, int E x B) over the grid by trapezoidal quadrature, as a 4-vector.

    The Poynting vector is formed and summed one component at a time.
    """
    if ftg.kappa is not None:
        _require_carrier_resolved(ftg.grid, ftg.kappa)
    energy = _trapezoid_integral(ftg.energy_density(), ftg.grid)
    flux = [_trapezoid_integral(_cross_component(ftg.E, ftg.B, i), ftg.grid) for i in range(3)]
    return np.array([energy, *flux])


def narrowband_energy_momentum(
    spec: NarrowbandSpec, grid: SpatialGrid, t: float = 0.0
) -> np.ndarray:
    """Conservation integrals of the narrowband fields, without materializing them.

    The same trapezoid sum as building the full FieldTensorGrid and calling
    :func:`energy_momentum_integrals`, evaluated in separable form. The
    narrowband E and B are transverse, perpendicular and of equal size
    sqrt(kappa) G, so u = S_z = kappa G^2 and S_x = S_y = 0. G^2 factorizes
    over x, y and z - t, so the sum over n^3 cells is kappa (2 pi sigma_x^2)^{-3/2}
    times a product of three one-axis sums of w_a exp(-g_a^2 / (2 sigma_x^2)).
    """
    _require_carrier_resolved(grid, spec.kappa)
    _warn_if_spreading(spec, t)
    sx2 = spec.sigma_x**2
    axis_sums = [
        float(np.sum(w * np.exp(-((g - shift) ** 2) / (2.0 * sx2))))
        for g, w, shift in zip(grid.axes(), grid.trapezoid_weights(), (0.0, 0.0, t))
    ]
    flux = spec.kappa * (2.0 * math.pi * sx2) ** -1.5 * math.prod(axis_sums)
    return np.array([flux, 0.0, 0.0, flux])


def energy_expectation(psi: HelicityAmplitude) -> float:
    """Mean energy sum_lam int |psi_lam|^2 omega d^3k (momentum-space route)."""
    return float(expectation_momentum(psi, warn=False)[0])


def sipe_energy_integral(psi: HelicityAmplitude, grid: SpatialGrid, t: float = 0.0) -> float:
    """Spatial integral of the proposed density |sqrt(2) E^{(+)}|^2; equals <H>.

    Independent position-space route to the energy: compare with
    :func:`energy_expectation`. The helicities' columns a are added on the
    nodes and their sum, -E^{(+)}_a, is contracted once: three contractions for
    any packet, and |E^{(+)}|^2 is summed in np.sum's order over a.
    """
    density, square = np.zeros(grid.shape), np.empty(grid.shape)
    columns, grid_sum, *_ = _grid_sums(psi, grid, t)
    for a in range(3):
        # the kept column itself for one helicity: no node column is copied
        electric = reduce(np.add, [column for _, b, column in columns if b == a])
        density += _squared_modulus(grid_sum(electric), square)
    density *= 2.0
    return _trapezoid_integral(density, grid)


def bb_density_grid(psi: HelicityAmplitude, grid: SpatialGrid, t: float = 0.0) -> np.ndarray:
    """|E^{(+)}|^2 + |B^{(+)}|^2 on the grid (carrier-free, envelope-smooth).

    Each helicity's B^{(+)} is -i lam times its E^{(+)}, so the helicities do
    not interfere: |E^{(+)}|^2 + |B^{(+)}|^2 = 2 sum_lam |E_lam^{(+)}|^2, each
    column's |G|^2 added in the table's order and the sum doubled.
    """
    density, square = np.zeros(grid.shape), np.empty(grid.shape)
    columns, grid_sum, *_ = _grid_sums(psi, grid, t)
    for _, _, column in columns:
        density += _squared_modulus(grid_sum(column), square)
    density *= 2.0
    return density


def bb_energy_integral(psi: HelicityAmplitude, grid: SpatialGrid, t: float = 0.0) -> float:
    """Spatial integral of the density above; also equals <H>."""
    return _trapezoid_integral(bb_density_grid(psi, grid, t), grid)


# -- differential residuals -------------------------------------------------------


def maxwell_residual(psi: HelicityAmplitude, x, h):
    """(divergence, cyclic-identity) residuals of <F> at ``x`` by central differences.

    Both are normalized by the largest first derivative encountered, so exact
    fields give O(h^2) values that quarter when h halves. ``h`` is one step,
    giving two floats, or steps ``(n,)``, giving two ``(n,)`` arrays; the node
    coefficients are built once, and each step's 8 points fill one POINT_BLOCK,
    so every step keeps the bits of its own call.
    """
    x = np.asarray(x, dtype=float).reshape(4)
    h = np.asarray(h, dtype=float)
    steps = h.reshape(-1, 1, 1) * np.eye(4)
    F = field_expectation_exact(psi, np.concatenate([x + steps, x - steps], axis=1))
    dF = (F[:, :4] - F[:, 4:]) / (2.0 * h.reshape(-1, 1, 1, 1))
    scale = np.max(np.abs(dF), axis=(1, 2, 3))
    scale[scale == 0.0] = 1.0  # all derivatives vanish, and so do both residuals
    divergence = dF[:, 0, 0, :] + dF[:, 1, 1, :] + dF[:, 2, 2, :] + dF[:, 3, 3, :]
    gdiag = np.array([1.0, -1.0, -1.0, -1.0])
    dF_low = dF * gdiag[:, None] * gdiag
    cyclic = np.stack([
        dF_low[:, l, m, n] + dF_low[:, m, n, l] + dF_low[:, n, l, m]
        for (l, m, n) in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    ], axis=-1)
    residuals = (
        np.max(np.abs(divergence), axis=-1) / scale,
        np.max(np.abs(cyclic), axis=-1) / scale,
    )
    return tuple(float(r[0]) for r in residuals) if h.ndim == 0 else residuals


def tensor_covariance_check(
    psi: HelicityAmplitude, x, beta=None, rotation: AxisAngle | None = None
) -> float:
    """Relative mismatch between transformed-state fields and tensor-mapped fields.

    Evaluates <F> of the boosted/rotated amplitude at ``x`` against
    L <F(L^{-1} x)> L^T of the original. Both sum on the original's nodes, one
    side carried with the Wigner phases and eps(k), so they agree to rounding.
    """
    if (beta is None) == (rotation is None):
        raise ValueError("specify exactly one of beta or rotation")
    L = boost_matrix(beta) if rotation is None else rotation_matrix(rotation)
    transformed = psi.boost(beta) if rotation is None else psi.rotate(rotation)
    x = np.asarray(x, dtype=float).reshape(4)
    F1 = field_expectation_exact(transformed, x)
    F2 = L @ field_expectation_exact(psi, lorentz_inverse(L) @ x) @ L.T
    scale = max(float(np.max(np.abs(F2))), 1e-300)
    return float(np.max(np.abs(F1 - F2))) / scale


# -- unit conversion ------------------------------------------------------------


def localization_scale(kappa_ev: float, sigma_ratio: float) -> float:
    """Packet width sigma_x in micrometers for a photon of energy kappa_ev (eV).

    sigma_x = 1/(2 sigma_k) with sigma_k = sigma_ratio * kappa, converted via
    hbar c = 197.3269804 eV nm. A 3.3 eV photon at ratio 0.01 comes out at
    2.99 um.
    """
    if kappa_ev <= 0.0:
        raise ValueError("photon energy must be positive")
    if not 0.0 < sigma_ratio < 0.1:
        raise ValueError("sigma_ratio must lie in (0, 0.1)")
    sigma_x_inv_ev = 0.5 / (sigma_ratio * kappa_ev)
    return sigma_x_inv_ev * HBARC_EV_UM
