import gc
import math
import tracemalloc
import warnings
import weakref
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from photonamp import amplitudes, quadrature
from photonamp.amplitudes import (
    HELICITIES,
    HelicityAmplitude,
    QuadratureDomainWarning,
    TransformOp,
    expectation_momentum,
    from_descriptor,
    gaussian_wavepacket,
    inner_product,
    norm_squared,
    op_from_json,
    replay,
)
from photonamp.fields import positive_frequency_field
from photonamp.lorentz import (
    AxisAngle,
    azimuth_phase,
    boost_matrix,
    four_momentum,
    light_energy,
    lorentz_inverse,
    rapidity_from_beta,
    rotation3,
    rotation_matrix,
    su2_matrix,
)
from photonamp.quadrature import BoxQuadrature
from photonamp.wigner import boost_half_phase, half_phase, rotation_half_phase

KAPPA = 1.0
SIGMA = 0.05


@pytest.fixture(scope="module")
def packet():
    return gaussian_wavepacket([0, 0, KAPPA], SIGMA, 1)


def random_momenta(rng, n=64):
    return np.array([0, 0, KAPPA]) + rng.normal(scale=2 * SIGMA, size=(n, 3))


class TestGaussianPacket:
    def test_unit_norm(self, packet):
        assert norm_squared(packet) == pytest.approx(1.0, abs=1e-9)

    def test_scaling_is_quadratic(self, packet):
        doubled = HelicityAmplitude(
            lambda k: 2.0 * packet.psi_plus(k), None, packet.quad
        )
        assert norm_squared(doubled) == pytest.approx(4.0, abs=4e-9)

    def test_normalized_rescales_to_unit_norm(self, packet):
        doubled = HelicityAmplitude(
            lambda k: 2.0 * packet.psi_plus(k), None, packet.quad
        )
        unit = doubled.normalized()
        assert norm_squared(unit) == pytest.approx(1.0, rel=1e-12)
        pts = np.array([[0.01, -0.02, KAPPA]])
        assert unit.evaluate(1, pts)[0] == pytest.approx(
            doubled.evaluate(1, pts)[0] / 2.0, rel=1e-9
        )

    def test_mean_momentum_is_center(self, packet):
        p = expectation_momentum(packet)
        assert_allclose(p[1:], [0, 0, KAPPA], atol=1e-9 * KAPPA)

    def test_mean_energy_width_correction(self, packet):
        # independent high-resolution quadrature as the reference value
        fine = gaussian_wavepacket([0, 0, KAPPA], SIGMA, 1, npts=96)
        reference = expectation_momentum(fine)[0]
        assert expectation_momentum(packet)[0] == pytest.approx(reference, rel=1e-10)
        # leading behaviour kappa (1 + sigma^2/kappa^2)
        assert abs(reference - KAPPA * (1 + SIGMA**2 / KAPPA**2)) <= 5 * SIGMA**4

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gaussian_wavepacket([0, 0, 1], -0.1, 1)
        with pytest.raises(ValueError):
            gaussian_wavepacket([0, 0, 0], 0.1, 1)
        with pytest.raises(ValueError):
            gaussian_wavepacket([0, 0, 1], 0.1, 2)

    def test_undersized_box_warns(self):
        small = gaussian_wavepacket([0, 0, KAPPA], SIGMA, 1, halfwidth_sigmas=3.0)
        with pytest.warns(QuadratureDomainWarning):
            norm_squared(small)


class TestTransformations:
    def test_zero_translation_is_identity(self, packet):
        rng = np.random.default_rng(0)
        pts = random_momenta(rng)
        moved = packet.translate([0, 0, 0, 0])
        assert_allclose(moved.evaluate(1, pts), packet.evaluate(1, pts), atol=0)

    def test_translation_is_pure_phase(self, packet):
        rng = np.random.default_rng(1)
        pts = random_momenta(rng)
        moved = packet.translate([1.3, -2.0, 0.4, 7.0])
        ratio = moved.evaluate(1, pts) / packet.evaluate(1, pts)
        assert_allclose(np.abs(ratio), 1.0, atol=1e-12)

    def test_double_parity_is_identity(self, packet):
        rng = np.random.default_rng(2)
        pts = random_momenta(rng)
        twice = packet.parity().parity()
        assert_allclose(twice.evaluate(1, pts), packet.evaluate(1, pts), atol=1e-15)
        assert twice.psi_minus is None or np.max(
            np.abs(twice.evaluate(-1, pts))
        ) == pytest.approx(0.0)

    def test_parity_swaps_helicity_support(self, packet):
        flipped = packet.parity()
        assert flipped.psi_plus is None
        assert flipped.psi_minus is not None
        assert flipped.quad is packet.quad

    def test_double_time_reversal_is_identity(self, packet):
        rng = np.random.default_rng(3)
        pts = random_momenta(rng)
        twice = packet.time_reverse().time_reverse()
        assert_allclose(twice.evaluate(1, pts), packet.evaluate(1, pts), atol=1e-15)

    def test_boost_preserves_norm(self, packet):
        boosted = packet.boost([0, 0, 0.5])
        assert norm_squared(boosted) == pytest.approx(1.0, abs=1e-6)

    def test_all_five_preserve_norm(self, packet):
        rng = np.random.default_rng(4)
        base = norm_squared(packet)
        variants = [
            packet.translate(rng.uniform(-10 / SIGMA, 10 / SIGMA, size=4)),
            packet.rotate(AxisAngle(rng.normal(size=3), 1.2)),
            packet.boost(0.9 * np.array([0.6, 0.64, 0.48]) / np.linalg.norm([0.6, 0.64, 0.48])),
            packet.parity(),
            packet.time_reverse(),
        ]
        for variant in variants:
            assert norm_squared(variant, warn=False) == pytest.approx(base, abs=1e-6)

    def test_superluminal_boost_rejected(self, packet):
        with pytest.raises(ValueError, match="superluminal"):
            packet.boost([0, 0, 1.0])

    def test_rotation_moves_arguments_and_phases(self, packet):
        # against the transformation law evaluated by hand at one momentum
        r = AxisAngle([0, 0, 1], 0.8)
        rotated = packet.rotate(r)
        k = np.array([0.02, 0.03, KAPPA + 0.01])
        from photonamp.wigner import wigner_rotation
        from photonamp.lorentz import four_momentum

        R = rotation_matrix(r)
        k_prev = (R.T @ four_momentum(k))[1:]
        w = wigner_rotation(R, four_momentum(k_prev)).w
        expected = packet.evaluate(1, k_prev) * np.exp(-1j * w)
        assert rotated.evaluate(1, k) == pytest.approx(expected, rel=1e-9)


class TestMomentumCovariance:
    def test_rotation(self, packet):
        r = AxisAngle([1, 2, -1], 0.9)
        direct = expectation_momentum(packet.rotate(r))
        mapped = rotation_matrix(r) @ expectation_momentum(packet)
        assert np.max(np.abs(direct - mapped)) / mapped[0] <= 1e-6

    def test_boost(self, packet):
        beta = [0.1, -0.2, 0.6]
        direct = expectation_momentum(packet.boost(beta))
        mapped = boost_matrix(beta) @ expectation_momentum(packet)
        assert np.max(np.abs(direct - mapped)) / mapped[0] <= 1e-6


class TestInnerProduct:
    def test_self_overlap_is_norm(self, packet):
        ip = inner_product(packet, packet)
        assert ip.imag == pytest.approx(0.0, abs=1e-15)
        assert ip.real == pytest.approx(norm_squared(packet), rel=1e-12)

    def test_opposite_helicities_orthogonal(self, packet):
        other = gaussian_wavepacket([0, 0, KAPPA], SIGMA, -1)
        assert inner_product(packet, other) == 0.0

    def test_hermitian(self, packet):
        other = packet.translate([0.5, 0, 0, 0])
        assert inner_product(packet, other) == pytest.approx(
            np.conj(inner_product(other, packet))
        )

    def test_displaced_gaussian_overlap(self):
        # closed form: exp(-|d|^2 / (8 sigma^2)) for equal-width packets
        a = gaussian_wavepacket([0, 0, KAPPA], SIGMA, 1, npts=96)
        b = gaussian_wavepacket([0, 0, KAPPA + 10 * SIGMA], SIGMA, 1, npts=96)
        expected = math.exp(-(10.0**2) / 8.0)  # 3.7266e-6
        assert inner_product(a, b) == pytest.approx(expected, rel=1e-6, abs=1e-12)

    def test_far_separated_overlap_negligible(self):
        a = gaussian_wavepacket([0, 0, KAPPA], SIGMA, 1, npts=96)
        b = gaussian_wavepacket([0, 0, KAPPA + 14 * SIGMA], SIGMA, 1, npts=96)
        assert abs(inner_product(a, b)) < 1e-10

    def test_antiunitary_time_reversal(self, packet):
        other = packet.translate([0.8, 1.0, 0.0, -0.5])
        base = inner_product(packet, other)
        reversed_ip = inner_product(packet.time_reverse(), other.time_reverse())
        assert reversed_ip == pytest.approx(np.conj(base), abs=1e-6)


class TestLifetime:
    def test_origin_is_itself(self):
        psi = gaussian_wavepacket([0, 0, KAPPA], SIGMA, 1)
        assert psi.origin is psi
        assert psi.rotate(AxisAngle([0, 1, 0], 0.4)).translate([1, 0, 0, 0]).origin is psi

    def test_used_amplitudes_die_without_the_cyclic_collector(self):
        gc.disable()
        try:
            psi = gaussian_wavepacket([0, 0, KAPPA], SIGMA, 1, npts=16)
            moved = psi.boost([0.0, 0.0, 0.2])
            norm_squared(psi)
            expectation_momentum(moved)
            positive_frequency_field(psi, [0.0, 0.0, 0.0, 0.0])
            refs = [weakref.ref(psi), weakref.ref(moved)]
            del psi, moved
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


class TestRecordReplay:
    def test_replay_reproduces_pointwise(self, packet):
        rng = np.random.default_rng(5)
        chain = packet.boost([0.1, 0, 0.4]).rotate(AxisAngle([1, 0, 1], 0.7)).parity()
        assert chain.origin is packet
        rebuilt = replay(chain.origin, chain.record)
        pts = random_momenta(rng)
        for lam in (1, -1):
            assert np.array_equal(rebuilt.evaluate(lam, pts), chain.evaluate(lam, pts))

    def test_record_contents(self, packet):
        chain = packet.translate([1, 0, 0, 0]).parity()
        kinds = [op.kind for op in chain.record]
        assert kinds == ["translate", "parity"]


class TestDescriptors:
    def test_round_trip_matches_manual_build(self):
        descriptor = {
            "units": "eV",
            "kappa": [0.0, 0.0, 2.0],
            "sigma_k": 0.1,
            "helicity": 1,
            "ops": [
                {"type": "boost", "beta": [0.0, 0.0, 0.5]},
                {"type": "parity"},
            ],
        }
        built = from_descriptor(descriptor)
        manual = (
            gaussian_wavepacket([0, 0, 2.0], 0.1, 1).boost([0, 0, 0.5]).parity()
        )
        rng = np.random.default_rng(6)
        pts = np.array([0, 0, -2.0]) + rng.normal(scale=0.2, size=(32, 3))
        for lam in (1, -1):
            assert np.array_equal(built.evaluate(lam, pts), manual.evaluate(lam, pts))

    def test_units_required(self):
        with pytest.raises(ValueError, match="units"):
            from_descriptor({"kappa": [0, 0, 1], "sigma_k": 0.1, "helicity": 1})

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown transformation"):
            op_from_json({"type": "squeeze"})

    def test_unknown_op_kind_is_refused_by_apply(self, packet):
        with pytest.raises(ValueError, match="unknown transformation kind: 'bogus'"):
            packet.apply(TransformOp("bogus", {}))

    def test_ops_serialize_back(self):
        op = op_from_json({"type": "boost", "beta": [0, 0, 0.5]})
        assert op == TransformOp("boost", {"beta": [0.0, 0.0, 0.5]})
        assert op.to_json() == {"type": "boost", "beta": [0.0, 0.0, 0.5]}


class TestRefusedInput:
    @pytest.mark.parametrize("halfwidth, npts, message", [
        (0.0, 8, "box halfwidths must be positive"),
        ([0.1, -0.1, 0.1], 8, "box halfwidths must be positive"),
        (0.1, 1, "need at least 2 quadrature points per axis"),
    ], ids=["zero-halfwidth", "negative-halfwidth", "one-point"])
    def test_box_quadrature(self, halfwidth, npts, message):
        with pytest.raises(ValueError, match=message):
            BoxQuadrature([0.0, 0.0, 1.0], halfwidth, npts)

    def test_amplitude_needs_a_component(self, packet):
        with pytest.raises(ValueError, match="at least one helicity component"):
            HelicityAmplitude(None, None, packet.quad)

    def test_evaluate_needs_a_helicity(self, packet):
        with pytest.raises(ValueError, match="helicity must be"):
            packet.evaluate(0, [0.0, 0.0, 1.0])

    def test_normalized_refuses_a_vanishing_norm(self, packet):
        zero = HelicityAmplitude(lambda k: np.zeros(np.shape(k)[:-1]), None, packet.quad)
        with pytest.raises(ValueError, match="vanishing norm"):
            zero.normalized()


# -- the nested pullbacks, kept as the oracle of the fused element --------------
#
# One closure per op, wrapped around the previous pair, with the parity phase
# eta e^{-2 i lam phi_k}. The library composes the same record into one
# element; these are the op-by-op definitions it must reproduce.


def _phase_2phi(k):
    eiphi = azimuth_phase(k)
    return eiphi * eiphi


def _ref_translated(f, a):
    if f is None:
        return None
    a = np.asarray(a, dtype=float)

    def g(k):
        omega = np.linalg.norm(k, axis=-1)
        return f(k) * np.exp(1j * (omega * a[0] - k @ a[1:]))

    return g


def _ref_rotated(f, lam, r):
    if f is None:
        return None
    R3 = rotation3(r)

    def g(k):
        k_prev = k @ R3
        phase = rotation_half_phase(r, k_prev) ** 2
        return f(k_prev) * (phase if lam == 1 else np.conj(phase))

    return g


def _ref_boosted(f, lam, beta):
    if f is None:
        return None
    inv = boost_matrix(-np.asarray(beta, dtype=float))
    zeta = rapidity_from_beta(beta)

    def g(k):
        omega = np.linalg.norm(k, axis=-1)
        prev4 = four_momentum(k) @ inv.T
        k_prev = prev4[..., 1:]
        weight = np.sqrt(prev4[..., 0] / np.where(omega > 0.0, omega, 1.0))
        phase = boost_half_phase(zeta, k_prev) ** 2
        return f(k_prev) * weight * (phase if lam == 1 else np.conj(phase))

    return g


def _ref_parity_component(f_other, lam):
    if f_other is None:
        return None

    def g(k):
        phase = np.conj(_phase_2phi(k))
        return -1.0 * (phase if lam == 1 else np.conj(phase)) * f_other(-k)

    return g


def _ref_time_reversed(f, lam):
    if f is None:
        return None

    def g(k):
        phase = np.conj(_phase_2phi(k))
        return np.conj(f(-k)) * (phase if lam == 1 else np.conj(phase))

    return g


def reference_apply(pair, op):
    """The (plus, minus) callables after ``op``, one closure per component."""
    plus, minus = pair
    if op.kind == "translate":
        return _ref_translated(plus, op.params["a"]), _ref_translated(minus, op.params["a"])
    if op.kind == "rotate":
        r = AxisAngle(np.array(op.params["axis"]), op.params["angle"])
        return _ref_rotated(plus, 1, r), _ref_rotated(minus, -1, r)
    if op.kind == "boost":
        beta = op.params["beta"]
        return _ref_boosted(plus, 1, beta), _ref_boosted(minus, -1, beta)
    if op.kind == "parity":
        return _ref_parity_component(minus, 1), _ref_parity_component(plus, -1)
    return _ref_time_reversed(plus, 1), _ref_time_reversed(minus, -1)


def reference_pair(origin, record):
    return reduce(reference_apply, record, (origin.psi_plus, origin.psi_minus))


def image_of(k, record):
    """Where the record's Lorentz, P and T ops carry the momenta ``k``."""
    for op in record:
        if op.kind == "rotate":
            k = k @ rotation3(AxisAngle(np.array(op.params["axis"]), op.params["angle"])).T
        elif op.kind == "boost":
            k = (four_momentum(k) @ boost_matrix(op.params["beta"]).T)[..., 1:]
        elif op.kind in ("parity", "time_reverse"):
            k = -k
    return k


def mixed_packet():
    """Both helicities, with different centres, widths and a relative phase."""
    plus = gaussian_wavepacket([0.0, 0.0, KAPPA], SIGMA, 1)
    minus = gaussian_wavepacket([0.04, -0.03, 0.95 * KAPPA], 1.3 * SIGMA, -1)
    return HelicityAmplitude(
        plus.psi_plus, lambda k: (0.6 - 0.8j) * minus.psi_minus(k), plus.quad
    )


def random_op(rng) -> TransformOp:
    kind = rng.choice(["translate", "rotate", "boost", "parity", "time_reverse"])
    if kind == "translate":
        return TransformOp(kind, {"a": rng.uniform(-20.0, 20.0, 4).tolist()})
    if kind == "rotate":
        return TransformOp(
            kind, {"axis": rng.normal(size=3).tolist(), "angle": float(rng.uniform(-np.pi, np.pi))}
        )
    if kind == "boost":
        direction = rng.normal(size=3)
        speed = rng.uniform(0.0, 0.6)
        return TransformOp(kind, {"beta": (speed * direction / np.linalg.norm(direction)).tolist()})
    return TransformOp(str(kind), {})


def sample_near(amp, rng, n=256):
    """Momenta around where the transformed packet lives."""
    origin_pts = np.array([0.0, 0.0, KAPPA]) + rng.normal(scale=2 * SIGMA, size=(n, 3))
    return image_of(origin_pts, amp.record)


def assert_same_state(left, right, pts, rel=1e-12):
    """Pointwise agreement of both helicities within ``rel`` of max|psi|."""
    values = [(left.evaluate(lam, pts), right.evaluate(lam, pts)) for lam in HELICITIES]
    scale = max(float(np.max(np.abs(v))) for pair in values for v in pair)
    assert scale > 0.0
    worst = max(float(np.max(np.abs(a - b))) for a, b in values)
    assert worst <= rel * scale, f"differ by {worst / scale:.2e} of max|psi|"


class TestGroupLaw:
    """P and T commute through translations, rotations and boosts, and with each other."""

    R = AxisAngle([0.3, -0.8, 0.5], 1.1)
    BETA = np.array([0.2, 0.35, -0.4])
    A = np.array([1.5, -2.0, 0.7, 3.1])

    @pytest.fixture(params=["fused", "nested"])
    def make(self, request):
        """Apply ops through the library, or through the nested reference closures."""
        base = mixed_packet()
        if request.param == "fused":
            return lambda ops: replay(base, ops)

        def nested(ops):
            plus, minus = reference_pair(base, ops)
            return HelicityAmplitude(plus, minus, base.quad)

        return nested

    def check(self, make, left_ops, right_ops):
        rng = np.random.default_rng(21)
        left, right = make(left_ops), make(right_ops)
        pts = image_of(np.array([0.0, 0.0, KAPPA]) + rng.normal(scale=2 * SIGMA, size=(200, 3)), left_ops)
        assert_same_state(left, right, pts)

    def test_parity_commutes_with_rotation(self, make):
        rot = TransformOp("rotate", {"axis": self.R.axis.tolist(), "angle": self.R.angle})
        parity = TransformOp("parity", {})
        self.check(make, [rot, parity], [parity, rot])

    def test_parity_commutes_with_z_rotation(self, make):
        rot = TransformOp("rotate", {"axis": [0.0, 0.0, 1.0], "angle": 0.7})
        parity = TransformOp("parity", {})
        self.check(make, [rot, parity], [parity, rot])

    def test_parity_reverses_boost(self, make):
        parity = TransformOp("parity", {})
        self.check(
            make,
            [TransformOp("boost", {"beta": self.BETA.tolist()}), parity],
            [parity, TransformOp("boost", {"beta": (-self.BETA).tolist()})],
        )

    def test_parity_reverses_translation(self, make):
        parity = TransformOp("parity", {})
        moved = self.A * np.array([1.0, -1.0, -1.0, -1.0])
        self.check(
            make,
            [TransformOp("translate", {"a": self.A.tolist()}), parity],
            [parity, TransformOp("translate", {"a": moved.tolist()})],
        )

    def test_time_reversal_commutes_with_rotation(self, make):
        rot = TransformOp("rotate", {"axis": self.R.axis.tolist(), "angle": self.R.angle})
        reverse = TransformOp("time_reverse", {})
        self.check(make, [rot, reverse], [reverse, rot])

    def test_time_reversal_reverses_boost(self, make):
        reverse = TransformOp("time_reverse", {})
        self.check(
            make,
            [TransformOp("boost", {"beta": self.BETA.tolist()}), reverse],
            [reverse, TransformOp("boost", {"beta": (-self.BETA).tolist()})],
        )

    def test_time_reversal_reverses_translation(self, make):
        reverse = TransformOp("time_reverse", {})
        moved = self.A * np.array([-1.0, 1.0, 1.0, 1.0])
        self.check(
            make,
            [TransformOp("translate", {"a": self.A.tolist()}), reverse],
            [reverse, TransformOp("translate", {"a": moved.tolist()})],
        )

    def test_parity_commutes_with_time_reversal(self, make):
        parity, reverse = TransformOp("parity", {}), TransformOp("time_reverse", {})
        self.check(make, [parity, reverse], [reverse, parity])

    def test_parity_phase_by_hand(self):
        base = mixed_packet()
        flipped = base.parity()
        k = np.array([[0.03, -0.02, -KAPPA], [-0.05, 0.04, -0.97 * KAPPA]])
        e2iphi = _phase_2phi(k)
        assert_allclose(
            flipped.evaluate(1, k), -np.conj(e2iphi) * base.evaluate(-1, -k), rtol=1e-14
        )
        assert_allclose(
            flipped.evaluate(-1, k), -e2iphi * base.evaluate(1, -k), rtol=1e-14
        )


class TestFusedElement:
    """The fused element against the nested closures, on generic records."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_nested_pullbacks(self, seed):
        rng = np.random.default_rng(100 + seed)
        base = mixed_packet()
        worst = 0.0
        for length in (1, 2, 3, 5, 8, 13, 21, 32):
            amp = base
            record = [random_op(rng) for _ in range(length)]
            for op in record:
                amp = amp.apply(op)
            plus, minus = reference_pair(base, record)
            pts = sample_near(amp, rng)
            ref = {1: plus(pts), -1: minus(pts)}
            scale = max(float(np.max(np.abs(v))) for v in ref.values())
            for lam in HELICITIES:
                diff = float(np.max(np.abs(amp.evaluate(lam, pts) - ref[lam]))) / scale
                worst = max(worst, diff)
        print(f"seed {seed}: worst fused-nested difference {worst:.2e} of max|psi|")
        assert worst <= 1e-10

    def test_one_pass_per_evaluation(self, monkeypatch):
        calls, phases = [], []
        packet = gaussian_wavepacket([0.0, 0.0, KAPPA], SIGMA, 1)

        def counted(k):
            calls.append(1)
            return packet.psi_plus(k)

        def counted_phase(A, kvec):
            phases.append(1)
            return half_phase(A, kvec)

        monkeypatch.setattr(amplitudes, "half_phase", counted_phase)
        base = HelicityAmplitude(counted, None, packet.quad)
        rng = np.random.default_rng(7)
        pts = random_momenta(rng)
        for length in (1, 8, 32):
            amp = replay(base, [random_op(rng) for _ in range(length)])
            lam = 1 if amp.psi_plus is not None else -1
            calls.clear()
            phases.clear()
            amp.evaluate(lam, pts)
            assert len(calls) == 1
            assert len(phases) <= 1

    def test_replay_and_vanishing_components(self):
        rng = np.random.default_rng(9)
        packet = gaussian_wavepacket([0.0, 0.0, KAPPA], SIGMA, 1)
        record = [random_op(rng) for _ in range(12)] + [TransformOp("parity", {})]
        amp = replay(packet, record)
        flips = sum(op.kind == "parity" for op in record)
        assert (amp.psi_plus is None) == (flips % 2 == 1)
        assert (amp.psi_minus is None) == (flips % 2 == 0)
        rebuilt = replay(amp.origin, amp.record)
        pts = sample_near(amp, rng)
        for lam in HELICITIES:
            assert np.array_equal(rebuilt.evaluate(lam, pts), amp.evaluate(lam, pts))
            if amp.component(lam) is not None:
                assert np.array_equal(amp.component(lam)(pts), amp.evaluate(lam, pts))


class TestDensityPass:
    def test_norm_and_momentum_share_one_evaluation(self):
        # the pass runs by slabs, on origins only: each node of an origin's box
        # reaches the callable once in all, whatever records are applied to it
        nodes = []
        packet = gaussian_wavepacket([0.0, 0.0, KAPPA], SIGMA, 1)

        def counted(k):
            nodes.append(len(k))
            return packet.psi_plus(k)

        base = HelicityAmplitude(counted, None, packet.quad)
        amp = base.boost([0.0, 0.0, 0.3])
        norm = norm_squared(amp, warn=False)
        p = expectation_momentum(amp, warn=False)
        assert sum(nodes) == packet.quad.npts ** 3
        assert norm_squared(amp, warn=False) == norm
        assert np.array_equal(expectation_momentum(amp, warn=False), p)
        assert sum(nodes) == packet.quad.npts ** 3
        record = mixed_record(np.random.default_rng(590), 32)
        other = HelicityAmplitude(counted, None, packet.quad)
        for origin in (base, other):
            for length in range(33):
                prefix = replay(origin, record[:length])
                norm_squared(prefix, warn=False)
                expectation_momentum(prefix, warn=False)
        assert sum(nodes) == 2 * packet.quad.npts ** 3

    def test_real_values_give_the_bits_of_complex_ones(self, packet):
        # a callable may return real values: they are squared as real numbers
        real = packet.psi_plus
        widened = HelicityAmplitude(lambda k: real(k) + 0.0j, None, packet.quad)
        amp = HelicityAmplitude(real, None, packet.quad)
        pts = packet.quad.points()
        assert not np.iscomplexobj(real(pts))
        for record in ([], [TransformOp("boost", {"beta": [0.1, 0.0, 0.4]}), TransformOp("parity", {})]):
            moved, moved_widened = replay(amp, record), replay(widened, record)
            assert all(
                np.array_equal(a, b) for a, b in zip(moved.density(pts), moved_widened.density(pts))
            )
            for lam in HELICITIES:
                values = moved.evaluate(lam, pts)
                assert values.dtype == complex
                assert np.array_equal(values, moved_widened.evaluate(lam, pts))

    def test_boundary_warning_on_every_call(self):
        small = gaussian_wavepacket([0, 0, KAPPA], SIGMA, 1, halfwidth_sigmas=3.0)
        for observable in (norm_squared, expectation_momentum, norm_squared):
            with pytest.warns(QuadratureDomainWarning):
                observable(small)

    @pytest.mark.parametrize("helicities", [(1,), (-1,), (1, -1)])
    def test_phase_free_density_equals_the_evaluated_sums(self, monkeypatch, helicities):
        calls, phases = {1: [], -1: []}, []
        plus = gaussian_wavepacket([0.0, 0.0, KAPPA], SIGMA, 1)
        minus = gaussian_wavepacket([0.04, -0.03, 0.95 * KAPPA], 1.3 * SIGMA, -1)

        def counted(lam, f):
            def g(k):
                calls[lam].append(len(k))
                return f(k)

            return g if lam in helicities else None

        def counted_phase(phase):
            def g(*args):
                phases.append(1)
                return phase(*args)

            return g

        monkeypatch.setattr(amplitudes, "half_phase", counted_phase(half_phase))
        monkeypatch.setattr(amplitudes, "azimuth_phase", counted_phase(azimuth_phase))
        base = HelicityAmplitude(
            counted(1, plus.psi_plus),
            counted(-1, lambda k: (0.6 - 0.8j) * minus.psi_minus(k)),
            plus.quad if 1 in helicities else minus.quad,
        )
        rng = np.random.default_rng(700 + len(helicities) + helicities[0])
        records = [[generic_op(rng, kind)] for kind in KINDS]
        passed = {1: 0, -1: 0}
        for record in records + [mixed_record(rng, 8), mixed_record(rng, 32)]:
            amp = replay(base, record)
            pts, w = carried_nodes(amp)
            for lam in (1, -1):
                calls[lam].clear()
            phases.clear()
            norm = norm_squared(amp, warn=False)
            p = expectation_momentum(amp, warn=False)
            assert phases == []
            for lam in (1, -1):
                passed[lam] += sum(calls[lam])
            # the full pullback, every phase included, on the carried nodes
            density = sum(np.abs(amp.evaluate(lam, pts)) ** 2 for lam in HELICITIES)
            k4 = four_momentum(pts)
            # k_x and k_y may sit at rounding level next to omega, so the
            # tolerance on each moment is relative to the largest of them
            ref = (w * density) @ k4
            assert_allclose(norm, w @ density, rtol=1e-13)
            assert_allclose(p, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))
        # each node of the origin's box once per present component, summed over
        # the slabs of the origin's one pass, for all the records together
        assert passed == {lam: base.quad.npts ** 3 * int(lam in helicities) for lam in (1, -1)}


def carried_nodes(amp):
    """The origin's nodes carried forward by the amplitude's element, and their weights."""
    k, ratio = amp._element.carry(amp.origin.quad.points())
    w = amp.origin.quad.weights()
    return k, w if ratio is None else w * ratio


# -- the quadrature box, the origin's for every record -------------------------


def generic_op(rng, kind) -> TransformOp:
    """A ``kind`` op with a random axis and angle, or a boost of speed 0.05 to 0.3."""
    if kind == "boost":
        direction = rng.normal(size=3)
        speed = rng.uniform(0.05, 0.3)
        return TransformOp(kind, {"beta": (speed * direction / np.linalg.norm(direction)).tolist()})
    if kind == "rotate":
        return TransformOp(
            kind, {"axis": rng.normal(size=3).tolist(), "angle": float(rng.uniform(-np.pi, np.pi))}
        )
    if kind == "translate":
        return TransformOp(kind, {"a": rng.uniform(-20.0, 20.0, 4).tolist()})
    return TransformOp(str(kind), {})


def momentum_matrix(op) -> np.ndarray:
    """The 4x4 matrix ``op`` applies to the momentum; P and T both give diag(1, -1, -1, -1)."""
    if op.kind == "rotate":
        return rotation_matrix(AxisAngle(np.array(op.params["axis"]), op.params["angle"]))
    if op.kind == "boost":
        return boost_matrix(op.params["beta"])
    if op.kind in ("parity", "time_reverse"):
        return np.diag([1.0, -1.0, -1.0, -1.0])
    return np.eye(4)


KINDS = ("translate", "rotate", "boost", "parity", "time_reverse")


def mixed_record(rng, length) -> list[TransformOp]:
    """``length`` generic ops holding the five kinds in turn, in seeded order."""
    kinds = [KINDS[i % len(KINDS)] for i in range(length)]
    rng.shuffle(kinds)
    return [generic_op(rng, kind) for kind in kinds]


def _traced_peak(compute) -> int:
    """tracemalloc's peak, in bytes, while ``compute()`` runs."""
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestColumnLayout:
    """Nodes and Lorentz preimages are laid out by column; the values are unchanged."""

    @pytest.mark.parametrize("npts", [2, 5, 48])
    def test_points_equal_the_stacked_meshgrid_nodes(self, npts):
        quad = BoxQuadrature([0.3, -0.2, 1.1], [0.2, 0.35, 0.5], npts)
        grids = np.meshgrid(*quad.axes(), indexing="ij")
        pts = quad.points()
        assert np.array_equal(pts, np.stack([g.reshape(-1) for g in grids], axis=-1))
        assert all(pts[:, i].flags.c_contiguous for i in range(3))

    @pytest.mark.parametrize("kinds", [(), *[(kind,) for kind in KINDS], KINDS])
    def test_single_momentum_gives_each_row_of_a_stack(self, kinds):
        plus = gaussian_wavepacket([0.0, 0.0, KAPPA], SIGMA, 1)
        minus = gaussian_wavepacket([0.04, -0.03, 0.95 * KAPPA], 1.3 * SIGMA, -1)
        base = HelicityAmplitude(
            plus.psi_plus, lambda k: (0.6 - 0.8j) * minus.psi_minus(k), plus.quad
        )
        rng = np.random.default_rng(810 + len(kinds))
        amp = replay(base, [generic_op(rng, kind) for kind in kinds])
        rows = random_momenta(rng, 9)
        for stack in (rows, np.asfortranarray(rows)):
            density, omega = amp.density(stack)
            values = {lam: amp.evaluate(lam, stack) for lam in HELICITIES}
            for i, k in enumerate(rows):
                single_density, single_omega = amp.density(k)
                assert np.array_equal(single_density, density[i])
                assert np.array_equal(single_omega, omega[i])
                for lam in HELICITIES:
                    assert np.array_equal(amp.evaluate(lam, k), values[lam][i])

    @pytest.mark.parametrize("record", [
        [TransformOp("boost", {"beta": [0.3, -0.2, 0.45]})],
        [TransformOp("rotate", {"axis": [0.2, 1.0, -0.4], "angle": 1.1})],
        [TransformOp("boost", {"beta": [0.0, 0.1, -0.6]}), TransformOp("parity", {}),
         TransformOp("rotate", {"axis": [1.0, 0.0, 0.3], "angle": -0.7})],
    ], ids=["boost", "rotation", "boost-parity-rotation"])
    def test_lorentz_density_matches_the_four_momentum_route(self, packet, record):
        amp = replay(packet, record)
        pts, w = carried_nodes(amp)
        # the route the preimage replaced: the whole (N, 4) product with the
        # inverse of the record's momentum map, P's flip included
        moved = reduce(lambda M, op: momentum_matrix(op) @ M, record, np.eye(4))
        k4 = four_momentum(pts)
        prev4 = k4 @ lorentz_inverse(moved).T
        reference = prev4[:, 0] / k4[:, 0] * np.abs(packet.psi_plus(prev4[:, 1:])) ** 2
        density, omega = amp.density(pts)
        assert np.array_equal(omega, k4[:, 0])
        # the Gaussian's tails amplify a rounding-level change of q, so the
        # pointwise tolerance is relative to the peak; the norm is held to 1e-14
        assert_allclose(density, reference, rtol=1e-14, atol=1e-14 * reference.max())
        assert_allclose(norm_squared(amp, warn=False), w @ reference, rtol=1e-14)

    def test_unmoved_density_pass_keeps_no_four_momentum(self):
        # the (N, 4) 4-momentum of a 48^3 box alone is 3.5 MB
        amp = gaussian_wavepacket([0, 0, 1], 0.05, 1)
        assert _traced_peak(lambda: expectation_momentum(amp, warn=False)) < 2.5e6

    def test_moved_density_pass_allocates_no_box_sized_array(self, packet):
        # one (N,) float array of a 48^3 box alone is 0.9 MB
        record = [TransformOp("boost", {"beta": [0.0, 0.1, -0.6]}), TransformOp("parity", {}),
                  TransformOp("rotate", {"axis": [1.0, 0.0, 0.3], "angle": -0.7})]
        amp = replay(packet, record)
        assert _traced_peak(lambda: expectation_momentum(amp, warn=False)) < 2.5e6

    def test_inner_product_allocates_no_box_sized_array(self, packet):
        other = gaussian_wavepacket([0.04, -0.03, 0.95 * KAPPA], 1.3 * SIGMA, 1)
        assert not packet.quad.same_box(other.quad)
        assert _traced_peak(lambda: inner_product(packet, other)) < 2.5e6


def _shell_mask(n):
    """The old whole-box boundary mask: an extreme index on any axis."""
    edge = (np.arange(n) == 0) | (np.arange(n) == n - 1)
    ex, ey, ez = np.meshgrid(edge, edge, edge, indexing="ij")
    return (ex | ey | ez).reshape(-1)


class TestSlabs:
    """Sums over slabs of x-planes agree with the whole box."""

    @pytest.mark.parametrize("npts", [2, 5, 47, 48, 49])
    def test_slabs_are_the_rows_of_the_whole_box(self, npts):
        quad = BoxQuadrature([0.3, -0.2, 1.1], [0.2, 0.35, 0.5], npts)
        nodes, weights, shells = zip(*quad.slabs())
        assert np.array_equal(np.concatenate(nodes), quad.points())
        assert np.array_equal(np.concatenate(weights), quad.weights())
        assert np.array_equal(np.concatenate(shells), _shell_mask(npts))
        assert all(len(k) % npts**2 == 0 for k in nodes)
        assert all(k[:, i].flags.c_contiguous for k in nodes for i in range(3))

    @pytest.mark.parametrize("npts", [5, 47, 48, 49])
    @pytest.mark.parametrize("record", [
        [],
        [TransformOp("boost", {"beta": [0.0, 0.1, -0.6]}), TransformOp("parity", {}),
         TransformOp("rotate", {"axis": [1.0, 0.0, 0.3], "angle": -0.7})],
    ], ids=["unmoved", "boost-parity-rotation"])
    def test_slab_sums_match_the_whole_box(self, npts, record):
        amp = replay(gaussian_wavepacket([0.3, -0.2, KAPPA], SIGMA, 1, npts=npts), record)
        pts, w = carried_nodes(amp)
        density, omega = amp.density(pts)
        norm = norm_squared(amp, warn=False)
        p = expectation_momentum(amp, warn=False)
        assert_allclose(norm, w @ density, rtol=1e-14)
        assert_allclose(p, (w * density) @ np.column_stack((omega, pts)), rtol=1e-14)
        peak, boundary = amplitudes._carried_integrals(amp)[2:]
        assert peak == density.max()
        assert boundary == density[_shell_mask(npts)].max()


    @pytest.mark.parametrize("kinds", [*[(kind,) for kind in KINDS], KINDS])
    def test_large_stack_keeps_the_bits_of_its_slabs(self, kinds):
        # above 256 KiB numpy may compute a * temporary in the temporary's
        # buffer as temporary * a, which its complex multiply rounds otherwise
        plus = gaussian_wavepacket([0.0, 0.0, KAPPA], SIGMA, 1, npts=40)
        minus = gaussian_wavepacket([0.04, -0.03, 0.95 * KAPPA], 1.3 * SIGMA, -1)
        base = HelicityAmplitude(
            plus.psi_plus, lambda k: (0.6 - 0.8j) * minus.psi_minus(k), plus.quad
        )
        rng = np.random.default_rng(860 + len(kinds))
        amp = replay(base, [generic_op(rng, kind) for kind in kinds])
        quad = plus.quad
        assert quad.npts**3 * 16 > 256 * 1024
        for lam in HELICITIES:
            whole = amp.evaluate(lam, quad.points())
            slabs = np.concatenate([amp.evaluate(lam, k) for k, _, _ in quad.slabs()])
            assert np.array_equal(whole, slabs)


def _whole_box_integrals(origin):
    """An origin's (norm, <k^mu>, peak, boundary) from whole-box node arrays.

    Only the dot products are summed block by block, in the slabs' blocks of
    x-planes, so the result can be compared bit for bit with the density pass.
    """
    quad = origin.quad
    n = quad.npts
    pts, w = quad.points(), quad.weights()
    callables = [f for f in (origin.psi_plus, origin.psi_minus) if f is not None]
    density = sum(np.abs(f(pts)) ** 2 for f in callables)
    omega = np.linalg.norm(pts, axis=-1)
    block = max(1, quadrature._SLAB_NODES // n**2) * n**2
    sums = np.zeros(5)
    for start in range(0, n**3, block):
        rows = slice(start, start + block)
        weighted = w[rows] * density[rows]
        sums += [w[rows] @ density[rows], weighted @ omega[rows],
                 *(weighted @ pts[rows, i] for i in range(3))]
    boundary = density[_shell_mask(n)].max()
    return float(sums[0]), sums[1:], float(density.max()), float(boundary)


def _origin(helicities, npts):
    """An origin with one callable, or with two of different centre, width and phase."""
    plus = gaussian_wavepacket([0.3, -0.2, KAPPA], SIGMA, 1, npts=npts)
    if helicities == 1:
        return plus
    minus = gaussian_wavepacket([0.34, -0.23, 0.95 * KAPPA], 1.3 * SIGMA, -1)
    return HelicityAmplitude(plus.psi_plus, lambda k: (0.6 - 0.8j) * minus.psi_minus(k), plus.quad)


class TestOriginPass:
    """An origin's density pass computes each node quantity once and keeps its bits."""

    @pytest.mark.parametrize("npts", [2, 5, 47, 48, 49])
    @pytest.mark.parametrize("helicities", [1, 2])
    def test_origin_pass_keeps_the_whole_box_bits(self, npts, helicities):
        origin = _origin(helicities, npts)
        norm, momentum, peak, boundary = amplitudes._carried_integrals(origin)
        ref_norm, ref_momentum, ref_peak, ref_boundary = _whole_box_integrals(origin)
        assert norm == ref_norm
        assert np.array_equal(momentum, ref_momentum)
        assert peak == ref_peak and boundary == ref_boundary

    def test_origin_pass_computes_each_node_energy_once(self, monkeypatch):
        nodes = []

        def counted(k):
            nodes.append(np.asarray(k)[..., 0].size)
            return light_energy(k)

        monkeypatch.setattr(amplitudes, "light_energy", counted)
        origin = gaussian_wavepacket([0, 0, KAPPA], SIGMA, 1)
        norm_squared(origin, warn=False)
        assert sum(nodes) == origin.quad.npts**3
        # a Lorentz element still needs |q| to carry a node and |k| for its preimage
        nodes.clear()
        amplitudes._carried_integrals(origin.boost([0.0, 0.1, -0.6]).parity())
        assert sum(nodes) == 2 * origin.quad.npts**3


class TestQuadratureBox:
    def test_round_trips_return_the_origin_box(self, packet):
        there, back = AxisAngle([0, 1, 0], 0.4), AxisAngle([0, 1, 0], -0.4)
        amp = packet
        for _ in range(16):
            amp = amp.rotate(there).rotate(back)
        assert abs(norm_squared(amp) - norm_squared(packet)) <= 1e-9
        assert np.all(amp.quad.halfwidth <= 1.03 * packet.quad.halfwidth)

    @pytest.mark.parametrize("seed", range(8))
    def test_generic_records_keep_norm_and_map_momentum(self, packet, seed):
        rng = np.random.default_rng(300 + seed)
        norm, p = norm_squared(packet), expectation_momentum(packet)
        for length in (4, 8, 16, 32):
            record = [generic_op(rng, rng.choice(KINDS)) for _ in range(length)]
            amp = replay(packet, record)
            mapped = reduce(lambda acc, op: momentum_matrix(op) @ acc, record, p)
            assert abs(norm_squared(amp) - norm) <= 1e-9, f"{length} ops"
            assert np.max(np.abs(expectation_momentum(amp) - mapped)) <= 1e-9, f"{length} ops"

    def test_each_box_is_the_origin_box_through_its_element(self, packet):
        # the element carries the origin box's nodes; no record has a box of its own
        rng = np.random.default_rng(500)
        amp = packet
        for _ in range(24):
            amp = amp.apply(generic_op(rng, rng.choice(KINDS)))
            assert amp.quad is packet.quad


README_OPS = [
    TransformOp("boost", {"beta": [0.0, 0.0, 0.5]}),
    TransformOp("rotate", {"axis": [0, 1, 0], "angle": 0.3}),
    TransformOp("translate", {"a": [1.0, 0.0, 0.0, 0.0]}),
    TransformOp("parity", {}),
    TransformOp("time_reverse", {}),
]


class TestCarriedNodes:
    """Every transformed observable comes from the origin's nodes, carried forward."""

    @pytest.mark.parametrize("record", [
        (README_OPS * 7)[:32],
        [TransformOp("boost", {"beta": [0.0, 0.0, -0.99]})],
        [TransformOp("boost", {"beta": [0.734, 0.389, 0.341]})],
    ], ids=["readme-32", "deboost", "oblique-boost"])
    def test_strong_records_keep_norm_and_map_momentum(self, packet, record):
        amp = replay(packet, record)
        norm, p = norm_squared(amp), expectation_momentum(amp)
        origin_p = expectation_momentum(packet)
        mapped = reduce(lambda acc, op: momentum_matrix(op) @ acc, record, origin_p)
        assert abs(norm - 1.0) <= 1e-9
        assert np.max(np.abs(p - mapped)) <= 1e-9 * mapped[0]
        carried_norm, carried_p = amplitudes._carried_integrals(amp)[:2]
        assert abs(carried_norm - norm) <= 1e-12
        assert np.max(np.abs(carried_p - p)) <= 1e-12 * mapped[0]
        assert np.max(np.abs(carried_p - mapped)) <= 1e-12 * mapped[0]

    @pytest.mark.parametrize("record", [
        (README_OPS * 7)[:32],
        [TransformOp("boost", {"beta": [0.0, 0.0, -0.99]})],
    ], ids=["readme-32", "deboost"])
    def test_normalized_replays_the_record_on_the_rescaled_origin(self, packet, record):
        doubled = HelicityAmplitude(lambda k: 2.0 * packet.psi_plus(k), None, packet.quad)
        amp = replay(doubled, record)
        unit = amp.normalized()
        assert unit.record == amp.record
        assert unit.origin.quad is doubled.quad
        assert abs(norm_squared(unit) - 1.0) <= 1e-9
        scale = 1.0 / math.sqrt(norm_squared(doubled))
        pts = carried_nodes(amp)[0][::997]
        for lam in HELICITIES:
            assert_allclose(unit.evaluate(lam, pts), scale * amp.evaluate(lam, pts),
                            rtol=1e-13, atol=1e-300)

    def test_broad_boosted_packet_keeps_its_norm_without_warning(self):
        amp = gaussian_wavepacket([0.0, 0.0, 1.0], 0.5, 1).boost([0.0, 0.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(norm_squared(amp) - 1.0) <= 1e-9
            expectation_momentum(amp)

    def test_non_covariant_overlap_converges(self):
        # the de-boosted packet against a narrow one centred on its mean momentum
        def overlap(npts):
            moved = gaussian_wavepacket([0.0, 0.0, KAPPA], SIGMA, 1, npts=npts)
            moved = moved.boost([0.0, 0.0, -0.99])
            image = expectation_momentum(moved)[1:]
            return inner_product(moved, gaussian_wavepacket(image, 0.01, 1, npts=npts))

        assert abs(overlap(64) - overlap(128)) <= 1e-8

    def test_applied_rotation_is_the_given_one(self, packet):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            r = AxisAngle(rng.normal(size=3), float(rng.uniform(-np.pi, np.pi)))
            element = packet.rotate(r)._element
            assert np.array_equal(element.Lam, rotation_matrix(r))
            assert np.array_equal(element.A, su2_matrix(r))
