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
coefficients: per momentum node, the antisymmetric coefficient (or, for the
potential, the polarization vector itself) weighted by the amplitude and the
quadrature, built slab by slab once per amplitude and form, and kept on it.
Helicity vectors obey k x eps_lam = -i lam omega eps_lam, so the magnetic half
of the coefficient is -i lam times the electric half, and B^{(+)} = -i lam
E^{(+)} for a helicity-lam packet (the Riemann-Silberstein structure). A
one-helicity packet keeps the three electric components E = S^{0i} alone; a
two-helicity packet keeps E and the helicity-weighted sum D, with
(S^{23}, S^{31}, S^{12}) = -i D. A gauge-shifted build takes the explicit
route, the cross product k x eps of the shifted eps.

The nodes are the origin's field box carried forward by the element, as for
every observable (:mod:`photonamp.amplitudes`). For k carried from q,
k.x = (|q|, q).y at y = (y^0, s y), y = Lambda^{-1} x and s = -1 if exactly
one of P and T is set, so pointwise sums take a phase that is separable on the
origin's Gauss-Legendre box: e^{i q.y} is the outer product of three one-axis
exponentials, and e^{-i |q| y^0} is formed once per distinct time. Grid fills
reduce the Fourier sum to three small tensor contractions per kept column, one
column at a time, so a fill on an n^3 grid holds the real fields (or the one
real density summed from them), the node coefficients and one complex
(n, n, n) sum with its contraction's temporaries; a one-helicity packet's E
and B come from the same three sums. A rotated or boosted packet's grid is not
separable and is refused. The narrowband conservation integrals factorize
over the three axes and are summed in separable form.

Everything is in natural units; only ``localization_scale`` and the CLI
convert to laboratory units via hbar*c.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .amplitudes import (
    BOUNDARY_DENSITY_RATIO,
    HELICITIES,
    HelicityAmplitude,
    QuadratureDomainWarning,
    expectation_momentum,
)
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


def _one_helicity(psi: HelicityAmplitude):
    """lam if ``psi`` has the one helicity lam, whose kept tensor table holds E alone; else None."""
    present = [lam for lam in HELICITIES if psi.component(lam) is not None]
    return present[0] if len(present) == 1 else None


def _node_coefficients(psi: HelicityAmplitude, gauge=None, tensor: bool = True):
    """Spacetime-independent node coefficients of the positive-frequency momentum integral.

    Returns ``(box, omega, C)``, ``box`` the origin's field box, whose nodes q
    are carried to k (``_Poincare.carried``), and ``omega`` |q_n|: the sums take
    the phase e^{-i k.x} on ``box``'s axes (``_sum_over_nodes``). With
    c_lam = PREFACTOR w_n / sqrt(|k_n|) psi_lam(k_n), w_n carried, row n of a
    ``tensor`` table holds E = sum_lam c omega eps_lam, the components S^{0i},
    and, unless ``psi`` has one helicity, D = sum_lam lam c omega eps_lam, with
    (S^{23}, S^{31}, S^{12}) = k x eps summed = -i D. For one helicity lam,
    D = lam E is not kept: ``C`` is (N, 3), otherwise (N, 6). Without
    ``tensor``, row n holds sum_lam c eps^mu, four columns.

    ``gauge`` shifts every eps by gauge(k) k, and the tensor build then takes
    the explicit route into six columns: omega eps^i - k^i eps^0 and
    D = i k x eps, with the shifted eps.

    Built slab by slab: each slab's rows of ``omega`` and ``C`` are written in
    place, and every temporary is the size of a slab. A row's bits do not
    depend on the rows beside it, so ``C`` is the whole-box build's. A build
    warns with ``QuadratureDomainWarning`` when the density sum_lam |psi_lam|^2
    on the field box's outer shell exceeds BOUNDARY_DENSITY_RATIO of its peak.

    Without a gauge the arrays are kept on the amplitude, one entry per form,
    and are read-only: later calls return the same arrays.
    """
    if gauge is None and tensor in psi._nodes:
        return psi._nodes[tensor]
    quad, element = psi.quad, psi._element
    box = BoxQuadrature(quad.center, FIELD_BOX_SCALE * quad.halfwidth, quad.npts)
    helicities = [lam for lam in HELICITIES if psi.component(lam) is not None]
    omega = np.empty(box.npts**3)
    width = 4 if not tensor else 3 if gauge is None and len(helicities) == 1 else 6
    C = np.zeros((len(omega), width), dtype=complex)
    peak = boundary = 0.0
    start = 0
    for q, pts, w, shell in element.carried(box):
        rows = slice(start, start + len(pts))
        start = rows.stop
        Cs = C[rows]
        omega[rows] = light_energy(q)
        om = light_energy(pts) if element.lorentz else omega[rows]
        base = PREFACTOR * w / np.sqrt(om)
        density, i_k_cross_eps = np.zeros(len(pts)), np.empty(len(pts), dtype=complex)
        for lam in helicities:
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
                    term = c_omega * eps[:, i]
                    Cs[:, i] += term
                    if eps0 is not None:
                        # the explicit route: i k x eps = (Im eps) x k + i k x (Re eps)
                        Cs[:, i] -= (c * eps0) * pts[:, i]
                        i_k_cross_eps.real = _cross_component(eps.imag, pts, i)
                        i_k_cross_eps.imag = _cross_component(pts, eps.real, i)
                        Cs[:, 3 + i] += c * i_k_cross_eps
                    elif width == 6:
                        Cs[:, 3 + i] += lam * term
            else:
                for i in range(3):
                    Cs[:, 1 + i] += c * eps[:, i]
                if eps0 is not None:
                    Cs[:, 0] += c * eps0
        peak = max(peak, float(density.max()))
        boundary = max(boundary, float(density[shell].max()))
    if peak > 0.0 and boundary > BOUNDARY_DENSITY_RATIO * peak:
        warnings.warn(
            "field box may clip the amplitude support "
            f"(boundary/peak density {boundary / peak:.2e})",
            QuadratureDomainWarning,
            stacklevel=2,
        )
    omega.flags.writeable = C.flags.writeable = False
    if gauge is None:
        psi._nodes[tensor] = (box, omega, C)
    return box, omega, C


def _sum_over_nodes(psi: HelicityAmplitude, x, gauge=None, tensor: bool = True) -> np.ndarray:
    """sum_n e^{-i k_n.x} C_n over ``psi``'s node coefficients at every spacetime point of ``x``.

    ``x`` has shape (4,) or (..., 4); the result has shape (..., C.shape[1]).
    Points go through in blocks of POINT_BLOCK, one phase-matrix product each.
    k_n.x is (|q_n|, q_n).y at y = ``_Poincare.origin_point(x)``, x itself for
    an untransformed packet, so e^{i q.y} is the outer product of one
    exponential per axis of the origin's box, and e^{-i omega y^0} is formed
    once for each distinct y^0, kept between blocks.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (4,):
        raise ValueError(f"spacetime points need a last axis of length 4, got {x.shape}")
    box, omega, C = _node_coefficients(psi, gauge, tensor)
    flat = psi._element.origin_point(x.reshape(-1, 4))
    axes = box.axes()
    out = np.empty((len(flat), C.shape[1]), dtype=complex)
    clocks = {}
    for start in range(0, len(flat), POINT_BLOCK):
        xb = flat[start : start + POINT_BLOCK]
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
        out[start : start + len(xb)] = (phase @ C)[: len(xb)]
    return out.reshape(x.shape[:-1] + (C.shape[1],))


def positive_frequency_field(psi: HelicityAmplitude, x, gauge=None) -> np.ndarray:
    """Complex positive-frequency tensor F^{(+)mu nu}(x); its term + c.c. is <F>.

    ``x`` is one spacetime point (4,) or an array of them (..., 4); the result
    has shape (..., 4, 4). Without a gauge, the node coefficients are built on
    the first call for ``psi`` and reused by every later one. S^{0i} is the sum
    of E and (S^{23}, S^{31}, S^{12}) is -i times the sum of D, lam E for a
    one-helicity packet (``_node_coefficients``).

    ``gauge``: optional callable f(kpts) -> complex (N,) shifting every
    polarization vector by f(k) k; observables built from the antisymmetric
    coefficient are unchanged by it.
    """
    comps = _sum_over_nodes(psi, x, gauge)
    D = comps[..., 3:] if comps.shape[-1] == 6 else _one_helicity(psi) * comps
    S = np.zeros(comps.shape[:-1] + (4, 4), dtype=complex)
    S[..., _MU, _NU] = np.concatenate([comps[..., :3], -1j * D], axis=-1)
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


def _grid_components(psi: HelicityAmplitude, grid: SpatialGrid, t: float, columns=None):
    """Yield the grid sums of the kept tensor table's columns, one (n, n, n) complex array at a time.

    Column i's sum is sum_n e^{i(k_n.x - omega_n t)} C[n, i], yielded as (i,
    sum) in the order of ``columns``, every column by default. Columns 0-2 sum
    to -E^{(+)}; D's columns 3-5, or lam times columns 0-2 for a one-helicity
    packet, sum to -i B^{(+)} (``_node_coefficients``). Only column i of the
    kept ``C``, times e^{-i omega t} when t != 0, and the sum are live at once,
    if the caller drops each sum before it asks for the next: no loop helper
    such as zip or enumerate may hold it.
    """
    element = psi._element
    if element.lorentz:
        raise ValueError("a rotated or boosted packet has no separable grid fill; evaluate it "
                         "pointwise with field_expectation_exact or positive_frequency_field")
    box, omega, C = _node_coefficients(psi)
    nq, s = box.npts, -1.0 if element.flipped else 1.0  # k.x = q.(s x): module docstring
    Ax, Ay, Az = (np.exp(1j * np.outer(k, s * g)) for k, g in zip(box.axes(), grid.axes()))
    clock = np.exp(-1j * omega * t) if t != 0.0 else None
    for i in range(C.shape[1]) if columns is None else columns:
        column = C[:, i] if clock is None else C[:, i] * clock  # the kept C has no clock
        yield i, _contract(column.reshape(nq, nq, nq), Ax, Ay, Az)


def _squared_modulus(component: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|component|^2 written into ``out``, with the bits of np.abs(component) ** 2."""
    np.abs(component, out=out)
    return np.square(out, out=out)


def positive_frequency_grid(
    psi: HelicityAmplitude, grid: SpatialGrid, t: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """(E^{(+)}, B^{(+)}) complex fields on the grid, shape (n, n, n, 3) each.

    B^{(+)} is i times D's grid sum: -i lam E^{(+)} for a one-helicity packet,
    whose three columns make both fields.
    """
    Ep = np.empty(grid.shape + (3,), dtype=complex)
    Bp = np.empty_like(Ep)
    lam = _one_helicity(psi)
    for i, component in _grid_components(psi, grid, t):
        if i < 3:
            np.negative(component, out=Ep[..., i])
        if lam is not None:
            np.multiply(component, 1j * lam, out=Bp[..., i])
        elif i >= 3:
            np.multiply(component, 1j, out=Bp[..., i - 3])
        del component  # freed before the next one is contracted
    return Ep, Bp


def field_expectation_grid(
    psi: HelicityAmplitude, grid: SpatialGrid, t: float = 0.0
) -> FieldTensorGrid:
    """Real <E>, <B> on the grid; tags the carrier with the packet's mean energy.

    E_i is -2 Re of column i's grid sum, and B_i is -2 Im of D's: for a
    one-helicity packet -2 lam Im of the same sum, so three contractions make
    both fields. Each is written in place: no complex field is kept.
    """
    kappa = energy_expectation(psi)
    E = np.empty(grid.shape + (3,))
    B = np.empty_like(E)
    lam = _one_helicity(psi)
    for i, component in _grid_components(psi, grid, t):
        if i < 3:
            np.multiply(component.real, -2.0, out=E[..., i])
        if lam is not None:
            np.multiply(component.imag, -2.0 * lam, out=B[..., i])
        elif i >= 3:
            np.multiply(component.imag, -2.0, out=B[..., i - 3])
        del component  # freed before the next one is contracted
    return FieldTensorGrid(grid, t, E, B, kappa)


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


def _electric_density(psi: HelicityAmplitude, grid: SpatialGrid, t: float) -> np.ndarray:
    """|E^{(+)}|^2 on the grid, summed in np.sum's order from the three E sums."""
    density, square = np.empty(grid.shape), np.empty(grid.shape)
    for i, component in _grid_components(psi, grid, t, range(3)):
        if i == 0:
            _squared_modulus(component, density)
        else:
            density += _squared_modulus(component, square)
        del component  # freed before the next one is contracted
    return density


def sipe_energy_integral(psi: HelicityAmplitude, grid: SpatialGrid, t: float = 0.0) -> float:
    """Spatial integral of the proposed density |sqrt(2) E^{(+)}|^2; equals <H>.

    Independent position-space route to the energy: compare with
    :func:`energy_expectation`. Only the three E components are contracted.
    """
    density = _electric_density(psi, grid, t)
    density *= 2.0
    return _trapezoid_integral(density, grid)


def bb_density_grid(psi: HelicityAmplitude, grid: SpatialGrid, t: float = 0.0) -> np.ndarray:
    """|E^{(+)}|^2 + |B^{(+)}|^2 on the grid (carrier-free, envelope-smooth).

    For a one-helicity packet |B^{(+)}| = |E^{(+)}|, so this is 2 |E^{(+)}|^2
    from three contractions. Otherwise it is summed in np.sum's order over the
    last axis of the complex fields, one (E_i, B_i) pair at a time:
    (|E_0|^2 + |B_0|^2) + (|E_1|^2 + |B_1|^2) + ..., with |B_i| = |D_i|.
    """
    if _one_helicity(psi) is not None:
        density = _electric_density(psi, grid, t)
        density *= 2.0
        return density
    density, pair, square = (np.empty(grid.shape) for _ in range(3))
    for i, component in _grid_components(psi, grid, t, (0, 3, 1, 4, 2, 5)):
        target = density if i in (0, 3) else pair
        if i < 3:
            _squared_modulus(component, target)
        else:
            target += _squared_modulus(component, square)
            if target is pair:
                density += pair
        del component  # freed before the next one is contracted
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
