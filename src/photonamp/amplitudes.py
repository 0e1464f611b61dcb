"""Momentum/helicity probability amplitudes and their symmetry transformations.

A state is represented by two complex functions of the spatial momentum, one
per helicity (+1, -1), normalized so the summed momentum-space integral of
|psi|^2 is one. Transformations never resample. One operation acts as

* translation by a 4-vector a:   psi(k)           times e^{+i k.a},
* rotation R:                    psi(R^{-1}k)      times e^{-i lam w(R)},
* boost Lambda:                  psi(Lambda^{-1}k) times the unitary weight
                                 sqrt(omega'/omega) and e^{-i lam w(Lambda)},
* space inversion:               helicity flip, k -> -k, phase
                                 eta e^{-2 i lam phi_k} with eta = -1,
* time reversal:                 conjugation, k -> -k, phase e^{-2 i lam phi_k},

where w is the little-group angle from :mod:`photonamp.wigner`. With these
phases P U(Lambda, a) P = U(P Lambda P, Pa), T U(Lambda, a) T^{-1} =
U(T Lambda T, Ta) and PT = TP hold exactly, so a whole record fuses into one
element U(a) U(A) P^p T^t (``_Poincare``): an SL(2,C) matrix A with its 4x4
Lambda, a translation a, and parity and time-reversal bits. A record composes
in one pass (``_Poincare.then``): one stacked call builds all of its
rotations, one all of its boosts, and a fold in record order multiplies them
in with its translations, P and T. At k the element costs one pass whatever
the record's length: the origin's component (-lam if p) at -k' if exactly
one bit is set, else at k' = Lambda^{-1} k, conjugated if t, times
sqrt(omega'/omega), ``half_phase(A, k')^2``, e^{-2 i phi_k'} if exactly one
bit is set and eta if p, all conjugated for lam = -1, and e^{i k.a}.

Observables and fields (:mod:`photonamp.fields`) use one rule per packet,
the origin's Gauss-Legendre box (``quad``): as d^3k/omega is Lorentz
invariant and P and T keep it, the origin's nodes q carried to
k = Lambda flip(|q|, q), flip negating q if exactly one bit is set, with
weights w |k|/|q| (``_Poincare.carried``) are an exact change of variables,
whatever the element. Every phase has modulus one, so the density is
(omega'/omega) sum_lam |f_lam(q)|^2 with no phase computed, and its weighted
value at a carried node is the origin's: the norm is the origin's and <k^mu>
is Lambda flip(<q^mu>). Only an origin evaluates it, once, by slabs of a few
x-planes (``BoxQuadrature.slabs``), so no temporary is the size of the box.
Per node a slab computes |q| once, each |f_lam(q)|^2 and their sum, and w
times it; an origin has no Lorentz part, so no ratio is applied. The applied
operations are kept as a replayable record.

Momenta are (..., 3) arrays that may be column-major views: the box's nodes
(``BoxQuadrature.points``) are the transpose of a (3, N) buffer, and the
preimage q of a Lorentz element is laid out the same way, so every per-axis
read, from |k| to the moments, runs over a contiguous column. The callables
given to the constructor receive such arrays and should index them, not
assume C order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from typing import Callable, Optional

import numpy as np

from .lorentz import (
    IDENTITY2,
    IDENTITY4,
    METRIC,
    AxisAngle,
    azimuth_phase,
    boost_matrix,
    light_energy,
    lorentz_inverse,
    rapidity_from_beta,
    rotation_matrix,
    sl2c_boost,
    su2_matrix,
)
from .quadrature import BoxQuadrature, union_box
from .wigner import half_phase

HELICITIES = (1, -1)
PHOTON_PARITY = -1.0

#: Default half-width of the quadrature box, in units of the packet width.
#: It clips ~2.4e-10 of a Gaussian's norm, and from 32 nodes per axis up that
#: tail, not quadrature error (~1e-14), is the floor of every Gaussian
#: observable; a 5 sigma box would already lose ~2e-6 of the norm.
BOX_HALFWIDTH_SIGMAS = 6.5

#: Nodes per axis that ``gaussian_wavepacket`` tries for its origin, coarsest first,
#: and the estimated error a rung must meet (verify's gaussian_norm tolerance).
NPTS_LADDER = (32, 48)
QUADRATURE_TARGET = 1e-9

#: Boundary-to-peak density ratio above which the box is flagged as too small.
BOUNDARY_DENSITY_RATIO = 1e-8

_REAL = (int, float, np.integer, np.floating)  # the number types a descriptor or op may give


class QuadratureDomainWarning(UserWarning):
    """The quadrature box appears to clip the support of the amplitude."""


def _warn_if_clipped(box: str, peak: float, boundary: float, stacklevel: int) -> None:
    """Warn that the ``box`` box may clip the amplitude: its shell's density is above the ratio."""
    if peak > 0.0 and boundary > BOUNDARY_DENSITY_RATIO * peak:
        warnings.warn(f"{box} box may clip the amplitude support (boundary/peak density "
                      f"{boundary / peak:.2e})", QuadratureDomainWarning, stacklevel=stacklevel + 1)


@dataclass(frozen=True)
class TransformOp:
    """One applied symmetry operation; params are JSON-serializable."""

    kind: str
    params: dict

    def to_json(self) -> dict:
        return {"type": self.kind, **self.params}


def _numbers(obj: dict, key: str, name: str, count: Optional[int]):
    """``obj[key]`` as finite floats: a list of ``count``, of any length if 0, or a number if None.

    A missing key, another shape (a nested list among them), a bool, a string
    or a number that is not finite is a ValueError that names ``name``.
    """
    if key not in obj:
        raise ValueError(f"{name} is missing (key {key!r})")
    value = obj[key]
    values = [value] if count is None else value
    shaped = count is None or (
        (isinstance(value, (list, tuple)) or np.ndim(value) == 1) and count in (0, len(value)))
    if not shaped or any(isinstance(v, bool) or not isinstance(v, _REAL) for v in values):
        shape = {None: "a number", 0: "a list of numbers"}.get(count, f"a list of {count} numbers")
        raise ValueError(f"{name} must be {shape}, not {value!r}")
    try:
        values = [float(v) for v in values]
    except OverflowError:  # an int beyond the largest float
        values = [math.inf]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")
    return values[0] if count is None else values


#: Each op type's numbers, (key, name, count) as ``_numbers`` reads them. The axis's
#: length is left to ``AxisAngle``, which refuses a wrong one with its single call's text.
_OP_FIELDS = {
    "translate": (("a", "translation", 4),),
    "rotate": (("axis", "rotation axis", 0), ("angle", "rotation angle", None)),
    "boost": (("beta", "boost velocity", 3),),
    "parity": (), "time_reverse": (),
}


def op_from_json(obj: dict) -> TransformOp:
    """The op of a JSON object, its numbers read as ``_OP_FIELDS`` lists them; no range check."""
    if not isinstance(obj, dict):
        raise ValueError(f"an op must be a JSON object, not {obj!r}")
    kind = obj.get("type")
    if not isinstance(kind, str) or kind not in _OP_FIELDS:
        raise ValueError(f"unknown transformation type: {kind!r}")
    return TransformOp(kind, {spec[0]: _numbers(obj, *spec) for spec in _OP_FIELDS[kind]})


def _inverse_adjoint(A: np.ndarray) -> np.ndarray:
    """(A^dagger)^{-1} of an SL(2,C) matrix: what P and T make of A."""
    return np.conj(np.array([[A[1, 1], -A[1, 0]], [-A[0, 1], A[0, 0]]]))


def _rotation(axis, angle):
    """(A, Lambda) of rotations: a single one, or stacks of axes (..., 3) and angles (...)."""
    r = AxisAngle(axis, angle)
    return su2_matrix(r), rotation_matrix(r)


def _boost(beta):
    """(A, Lambda) of boosts by velocities ``beta``: a single one, or a stack (..., 3)."""
    return sl2c_boost(rapidity_from_beta(beta)), boost_matrix(beta)


def _stacked(build, *columns):
    """An iterator over the rows of ``build`` called once on the stacked ``columns``.

    A refused row raises the error ``build`` raises for that row alone: the
    message of the first bad row's single call, without the stack's row suffix.
    """
    if not columns[0]:
        return iter(())
    try:
        return zip(*build(*(np.array(c, dtype=float) for c in columns)))
    except ValueError:
        for row in zip(*columns):
            build(*(np.array(v, dtype=float) for v in row))
        raise


@dataclass(frozen=True)
class _Poincare:
    """The fused element U(a) U(A) P^parity T^reversal of an operation record.

    ``A`` is an SL(2,C) matrix and ``Lam`` its 4x4 Lorentz matrix; ``pullback``
    evaluates the element as the module docstring sets out.
    """

    A: np.ndarray = field(default_factory=lambda: IDENTITY2)
    Lam: np.ndarray = field(default_factory=lambda: IDENTITY4)
    a: np.ndarray = field(default_factory=lambda: np.zeros(4))
    parity: bool = False
    reversal: bool = False

    # exactly one of P and T is set, so k -> -k
    flipped = property(lambda self: self.parity != self.reversal)

    # kept per element: a density pass reads them once per slab
    @cached_property
    def lorentz(self) -> bool:
        """Lambda is not the identity."""
        return not np.array_equal(self.Lam, IDENTITY4)

    @cached_property
    def _inverse(self) -> np.ndarray:
        return lorentz_inverse(self.Lam)

    def then(self, ops) -> "_Poincare":
        """This element followed by the sequence ``ops``, in order.

        The record's rotations are built by one stacked ``AxisAngle``,
        ``su2_matrix`` and ``rotation_matrix`` call, and its boosts by one
        stacked ``rapidity_from_beta``, ``sl2c_boost`` and ``boost_matrix``
        call. Each row keeps its single call's bits, and the fold runs in record
        order, so the element is the one that composing op by op would give.
        """
        rotations = [op.params for op in ops if op.kind == "rotate"]
        axes, angles = [p["axis"] for p in rotations], [p["angle"] for p in rotations]
        factors = {
            "rotate": _stacked(_rotation, axes, angles),
            "boost": _stacked(_boost, [op.params["beta"] for op in ops if op.kind == "boost"]),
        }
        A, Lam, a, parity, reversal = self.A, self.Lam, self.a, self.parity, self.reversal
        for op in ops:
            if op.kind == "translate":
                a = a + np.asarray(op.params["a"], dtype=float)
            elif op.kind in factors:
                A_op, Lam_op = next(factors[op.kind])
                A, Lam, a = A_op @ A, Lam_op @ Lam, Lam_op @ a
            elif op.kind in ("parity", "time_reverse"):
                # P = g and T = -g; both take Lambda to g Lambda g and A to (A^dagger)^{-1}
                is_parity = op.kind == "parity"
                A, Lam = _inverse_adjoint(A), METRIC @ Lam @ METRIC
                a = (METRIC if is_parity else -METRIC) @ a
                parity, reversal = parity ^ is_parity, reversal ^ (not is_parity)
            else:
                raise ValueError(f"unknown transformation kind: {op.kind!r}")
        return _Poincare(A, Lam, a, parity, reversal)

    def preimage(self, k: np.ndarray):
        """(q, |k|, omega'/omega or None) at k (N, 3): q is Lambda^{-1} k, negated if ``flipped``."""
        q, ratio = self._through(self._inverse, k, omega := light_energy(k))
        return q, omega, ratio

    def carry(self, q: np.ndarray):
        """(k, |k|/|q| or None) at q (N, 3), for k = Lambda flip(|q|, q): ``preimage``'s inverse."""
        # the flip follows the map, so g Lambda g then g gives Lambda g
        M = METRIC @ self.Lam @ METRIC if self.flipped else self.Lam
        return self._through(M, q, light_energy(q) if self.lorentz else None)

    def origin_point(self, x: np.ndarray) -> np.ndarray:
        """(y^0, s y) at spacetime points x (N, 4), for y = Lambda^{-1} x and s = -1 if ``flipped``.

        k.x = (|q|, q).(y^0, s y) for k carried from q. By columns, as in ``_through``.
        """
        if not (self.lorentz or self.flipped):
            return x
        t, x1, x2, x3 = x.T
        M = METRIC @ self._inverse if self.flipped else self._inverse
        return np.stack([a * t + b * x1 + c * x2 + d * x3 for a, b, c, d in M], axis=-1)

    def _through(self, M: np.ndarray, k: np.ndarray, omega):
        """(k', omega'/omega) for k' the spatial part of M (omega, k), negated if ``flipped``.

        ``omega`` is |k|. With no Lorentz part the ratio is 1, given as None so
        that no caller multiplies by it. Else by columns (module docstring): the
        rows of M (omega, k) fill omega' and a (3, N) buffer, k' is its
        transpose, and the flip and the ratio are taken in place. Every buffer
        of a slab (``BoxQuadrature.slabs``) then stays below glibc's 128 KiB
        mmap threshold.
        """
        if not self.lorentz:
            return (-k if self.flipped else k), None
        spatial, energy, term = np.empty((3, len(k))), np.empty(len(k)), np.empty(len(k))
        for row, coefficients in zip((energy, *spatial), M):
            np.multiply(coefficients[0], omega, out=row)
            for c, column in zip(coefficients[1:], k.T):
                row += np.multiply(c, column, out=term)
        if self.flipped:
            np.negative(spatial, out=spatial)
        return spatial.T, np.divide(energy, np.where(omega > 0.0, omega, 1.0), out=energy)

    def pullback(self, f: Callable, lam: int, k: np.ndarray) -> np.ndarray:
        """Component ``lam`` of the transformed state at ``k``; ``f`` is the origin's feeding it.

        A complex product whose second factor is a temporary is an explicit
        ``np.multiply``: on an array above 256 KiB, ``a * temporary`` lets numpy
        reuse the temporary and compute b * a, which its complex multiply rounds
        unlike a * b, so a large stack would not keep the bits of its rows.
        """
        translated, lorentz = self.a.any(), self.lorentz
        if not (translated or lorentz or self.parity or self.reversal):
            return np.asarray(f(k), dtype=complex)
        q, omega, ratio = self.preimage(k)
        prev, factor = (-q if self.flipped else q), 1.0  # Lambda^{-1} k, before the flip
        if lorentz:
            factor = np.sqrt(ratio) * half_phase(self.A, prev) ** 2
        if self.flipped:
            eiphi = azimuth_phase(prev)
            factor = np.multiply(factor, np.conj(eiphi * eiphi))
        if self.parity:
            factor = PHOTON_PARITY * factor
        value = np.asarray(f(q), dtype=complex)
        if self.reversal:
            value = np.conj(value)
        if translated:
            # k.a by columns: a matrix-vector product rounds a stack unlike its rows
            t, ax, ay, az = self.a
            k_dot_a = k[..., 0] * ax + k[..., 1] * ay + k[..., 2] * az
            value = np.multiply(value, np.exp(1j * (omega * t - k_dot_a)))
        return np.multiply(value, factor if lam == 1 else np.conj(factor))

    def carried(self, quad: BoxQuadrature):
        """(q, k, w, shell) per slab of ``quad``: nodes q, carried to k, weights times |k|/|q|."""
        for q, w, shell in quad.slabs():
            k, ratio = self.carry(q)
            yield q, k, (w if ratio is None else w * ratio), shell


class HelicityAmplitude:
    """Pair of momentum-space helicity components with an attached quadrature box.

    The constructor takes callables mapping (..., 3) momentum arrays to
    complex or real values, or None for an identically vanishing component;
    ``psi_plus`` / ``psi_minus`` / ``component(lam)`` return the transformed
    components the same way. Instances are immutable; transformations return
    new objects sharing the constructor's callables and one fused element.
    """

    __slots__ = (
        "_base", "_element", "_quad", "record", "_origin", "_integrals", "_nodes", "__weakref__"
    )

    def __init__(
        self,
        psi_plus: Optional[Callable],
        psi_minus: Optional[Callable],
        quad: Optional[BoxQuadrature],
    ):
        if psi_plus is None and psi_minus is None:
            raise ValueError("at least one helicity component must be present")
        self._base = (psi_plus, psi_minus)
        self._element = _Poincare()
        self._quad = quad  # None for a record: ``quad`` is its origin's
        self.record = ()
        # None for an origin: a reference to itself would free it only by the cyclic GC
        self._origin = None
        self._integrals = None
        self._nodes = {}  # field node coefficients, one entry per form (fields.py)

    @property
    def origin(self) -> "HelicityAmplitude":
        """The untransformed amplitude that the record is applied to."""
        return self if self._origin is None else self._origin

    @property
    def quad(self) -> BoxQuadrature:
        """The origin's box, for every record: observables and fields sum on its nodes, carried."""
        return self.origin._quad

    psi_plus = property(lambda self: self.component(1))
    psi_minus = property(lambda self: self.component(-1))

    def _source(self, lam: int) -> Optional[Callable]:
        """The constructor's callable that feeds helicity ``lam``."""
        if lam not in HELICITIES:
            raise ValueError("helicity must be +1 or -1")
        if self._element.parity:
            lam = -lam
        return self._base[0 if lam == 1 else 1]

    def component(self, lam: int) -> Optional[Callable]:
        f = self._source(lam)
        return f if f is None or not self.record else partial(self.evaluate, lam)

    def evaluate(self, lam: int, kvec) -> np.ndarray:
        """Component values at spatial momenta of shape (..., 3).

        Here and in ``density`` the momenta go through as an (N, 3) stack, so a
        single momentum gives the bits of its row in any stack.
        """
        kvec = np.asarray(kvec, dtype=float)
        f = self._source(lam)
        if f is None:
            return np.zeros(kvec.shape[:-1], dtype=complex)
        return self._element.pullback(f, lam, kvec.reshape(-1, 3)).reshape(kvec.shape[:-1])

    def density(self, kvec: np.ndarray):
        """(sum_lam |psi_lam|^2, |k|) at momenta (..., 3): (omega'/omega) sum |f(q)|^2."""
        kvec = np.asarray(kvec, dtype=float)
        q, omega, ratio = self._element.preimage(kvec.reshape(-1, 3))
        total = reduce(np.add, (_squared_modulus(f(q)) for f in self._base if f is not None))
        shape = kvec.shape[:-1]
        return (total if ratio is None else ratio * total).reshape(shape), omega.reshape(shape)

    # -- symmetry operations -------------------------------------------------

    def translate(self, a) -> "HelicityAmplitude":
        """Spacetime translation by the 4-vector ``a``: phase e^{+i k.a}."""
        return self.apply(op_from_json({"type": "translate", "a": a}))

    def rotate(self, r: AxisAngle) -> "HelicityAmplitude":
        return self.apply(op_from_json({"type": "rotate", "axis": r.axis, "angle": r.angle}))

    def boost(self, beta) -> "HelicityAmplitude":
        return self.apply(op_from_json({"type": "boost", "beta": beta}))

    def parity(self) -> "HelicityAmplitude":
        return self.apply(TransformOp("parity", {}))

    def time_reverse(self) -> "HelicityAmplitude":
        return self.apply(TransformOp("time_reverse", {}))

    def apply(self, op: TransformOp) -> "HelicityAmplitude":
        return replay(self, (op,))

    def normalized(self) -> "HelicityAmplitude":
        """Rescale so the summed momentum-space density integrates to one.

        The origin is rescaled, on its own box, and the record replayed on it:
        every operation keeps the norm, so the result's is the rescaled origin's.
        """
        origin = self.origin
        total = norm_squared(origin, warn=False)
        if total <= 0.0:
            raise ValueError("cannot normalize an amplitude with vanishing norm")
        scale = 1.0 / np.sqrt(total)

        def rescaled(f):
            if f is None:
                return None
            return lambda k, f=f: scale * f(k)

        unit = HelicityAmplitude(*map(rescaled, origin._base), origin.quad)
        return replay(unit, self.record)


def _squared_modulus(value, out=None) -> np.ndarray:
    """|value|^2, with the bits of abs(value) ** 2, into ``out`` if given.

    A real value skips the complex abs.
    """
    value = np.asarray(value)
    if np.iscomplexobj(value):
        modulus = np.abs(value.astype(complex, copy=False), out=out)
        return np.square(modulus, out=modulus)
    value = value.astype(float, copy=False)
    return np.multiply(value, value, out=out)


def replay(base: HelicityAmplitude, record) -> HelicityAmplitude:
    """Re-apply a transformation record to ``base``; reproduces the owner pointwise.

    The whole record composes into ``base``'s element in one pass
    (``_Poincare.then``), so no amplitude is built per op.
    """
    record = tuple(record)
    if not record:
        return base
    out = HelicityAmplitude(*base._base, None)
    out.record, out._origin = base.record + record, base.origin
    out._element = base._element.then(record)
    return out


# -- construction ------------------------------------------------------------


def gaussian_wavepacket(
    kappa_vec,
    sigma_k: float,
    helicity: int = 1,
    npts: Optional[int] = None,
    halfwidth_sigmas: float = BOX_HALFWIDTH_SIGMAS,
) -> HelicityAmplitude:
    """Unit-norm isotropic Gaussian packet of a single helicity.

    psi(k) = exp(-|k - kappa|^2 / 4 sigma_k^2) / (2 pi sigma_k^2)^{3/4}, centered on
    ``kappa_vec`` (the three read by ``_numbers``). With ``npts`` None the origin
    takes the first rung of ``NPTS_LADDER`` whose ``_gaussian_error`` meets
    ``QUADRATURE_TARGET``, or the last at once if its box holds k = 0 (a cusp of
    |k|), and is ``sized``: the field box is sized per call (``fields._field_rule``).
    An explicit ``npts`` pins both rules to it.
    """
    given = {"kappa": kappa_vec, "sigma_k": sigma_k, "helicity": helicity}
    kappa, sigma_k, helicity = (_numbers(given, k, k, n) for k, n in zip(given, (3, None, None)))
    kappa_vec = np.array(kappa)
    if not sigma_k > 0.0:
        raise ValueError("sigma_k must be positive and finite")
    if np.linalg.norm(kappa_vec) == 0.0:
        raise ValueError("central momentum must be nonzero")
    if helicity not in HELICITIES:
        raise ValueError("helicity must be +1 or -1")
    norm_const = (2.0 * np.pi * sigma_k**2) ** (-0.75)
    inv_four_sigma2 = 1.0 / (4.0 * sigma_k**2)

    def g(k):
        # |k - kappa|^2 summed by hand, one column at a time, in np.sum's order
        k = np.asarray(k, dtype=float)
        dx, dy, dz = (k[..., i] - kappa_vec[i] for i in range(3))
        return norm_const * np.exp(-(dx * dx + dy * dy + dz * dz) * inv_four_sigma2)

    halfwidth = halfwidth_sigmas * sigma_k
    ladder = NPTS_LADDER[-1:] if np.all(np.abs(kappa_vec) <= halfwidth) else NPTS_LADDER
    for rung in ladder if npts is None else (npts,):
        quad = BoxQuadrature(kappa_vec, halfwidth, rung, sized=npts is None)
        psi = HelicityAmplitude(*((g, None) if helicity == 1 else (None, g)), quad)
        if rung in (npts, ladder[-1]) or _gaussian_error(psi, kappa, sigma_k) <= QUADRATURE_TARGET:
            return psi


# -- observables -------------------------------------------------------------


def _carried_integrals(psi: HelicityAmplitude):
    """(norm, <k^mu>, peak, boundary) of ``density`` on the origin's nodes carried forward.

    Summed slab by slab; the array is not kept. For an origin this is its
    density pass; for a transformed amplitude, through the element's preimage,
    it checks the origin's integrals carried in closed form.
    """
    sums, peaks, boundaries = np.zeros(5), [], []
    for _, k, w, shell in psi._element.carried(psi.quad):
        density, omega = psi.density(k)
        weighted = w * density
        sums += [w @ density, *(weighted @ v for v in (omega, *k.T))]
        peaks.append(density.max())
        boundaries.append(density[shell].max())
    return float(sums[0]), sums[1:], float(np.max(peaks)), float(np.max(boundaries))


def _density_integrals(psi: HelicityAmplitude, warn: bool):
    """Norm and <k^mu>: the origin's, and Lambda flip(<q^mu>) (module docstring).

    Only an origin keeps ``_integrals``. The boundary check, whether the
    origin's box clips the origin, runs, and may warn, on every call.
    """
    origin, element = psi.origin, psi._element
    if origin._integrals is None:
        origin._integrals = _carried_integrals(origin)
    norm, momentum, peak, boundary = origin._integrals
    if warn:
        _warn_if_clipped("quadrature", peak, boundary, stacklevel=3)
    return norm, element.Lam @ (METRIC @ momentum if element.flipped else momentum)


def norm_squared(psi: HelicityAmplitude, warn: bool = True) -> float:
    """Summed momentum-space integral of |psi|^2, on the origin's box."""
    return _density_integrals(psi, warn)[0]


def inner_product(psi1: HelicityAmplitude, psi2: HelicityAmplitude) -> complex:
    """Hermitian overlap sum_lam int psi1_lam^* psi2_lam d^3k.

    Summed on psi1's origin box carried by psi1's element, an exact rule for
    psi1 (module docstring); first merged with psi2's origin box into their
    union where the two elements share Lambda and the flip.
    """
    e1, e2 = psi1._element, psi2._element
    quad, other = psi1.quad, psi2.quad
    if e1.flipped == e2.flipped and np.array_equal(e1.Lam, e2.Lam) and not quad.same_box(other):
        quad = union_box(quad, other)
    shared = [
        lam for lam in HELICITIES
        if psi1.component(lam) is not None and psi2.component(lam) is not None
    ]
    total = 0.0 + 0.0j
    for _, k, w, _ in e1.carried(quad):
        for lam in shared:
            total += w @ (np.conj(psi1.evaluate(lam, k)) * psi2.evaluate(lam, k))
    return complex(total)


def expectation_momentum(psi: HelicityAmplitude, warn: bool = True) -> np.ndarray:
    """Four-vector of momentum moments int |psi|^2 k^mu with k^0 = |k|."""
    return _density_integrals(psi, warn)[1]


# -- JSON wavepacket descriptors ----------------------------------------------


def _gaussian_error(psi: HelicityAmplitude, kappa_vec, sigma_k: float) -> float:
    """Largest relative error of the origin's norm, <k_i> and <|k|> against the unclipped Gaussian.

    Read from the origin's cached integrals; <|k|> is the noncentral-chi_3 mean.
    """
    norm, momentum = _density_integrals(psi.origin, warn=False)
    kappa = np.asarray(kappa_vec, dtype=float)
    m, s = float(np.linalg.norm(kappa)), float(sigma_k)
    lam = m / s
    chi = s * (math.sqrt(2.0 / math.pi) * math.exp(-0.5 * lam * lam)
               + (lam + 1.0 / lam) * math.erf(lam / math.sqrt(2.0)))
    return max(abs(norm - 1.0), float(np.max(np.abs(momentum[1:] - kappa))) / m,
               abs(float(momentum[0]) - chi) / chi)


def from_descriptor(descriptor: dict, npts: Optional[int] = None) -> HelicityAmplitude:
    """Build an amplitude from the wavepacket JSON descriptor.

    Schema: {"units": "eV", "kappa": [kx, ky, kz], "sigma_k": s,
    "helicity": +-1, "ops": [{"type": ...}, ...]}. All energies are in eV
    (natural units downstream); "ops" is optional.

    ``npts`` is ``gaussian_wavepacket``'s: None sizes the rules to their accuracy.
    """
    if not isinstance(descriptor, dict):
        raise ValueError(f"a descriptor must be a JSON object, not {descriptor!r}")
    if descriptor.get("units") != "eV":
        raise ValueError('descriptor must declare "units": "eV"')
    ops = descriptor.get("ops", [])
    if not isinstance(ops, list):
        raise ValueError(f"ops must be a list, not {ops!r}")
    psi = gaussian_wavepacket(*map(descriptor.get, ("kappa", "sigma_k", "helicity")), npts=npts)
    return replay(psi, [op_from_json(raw) for raw in ops])
