import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from photonamp import fields
from photonamp.amplitudes import (
    HELICITIES,
    HelicityAmplitude,
    QuadratureDomainWarning,
    TransformOp,
    expectation_momentum,
    from_descriptor,
    gaussian_wavepacket,
    replay,
)
from photonamp.fields import (
    HBARC_EV_UM,
    POINT_BLOCK,
    FieldTensorGrid,
    NarrowbandSpec,
    NarrowbandValidityWarning,
    SpatialGrid,
    UnderResolvedGridError,
    bb_density,
    bb_density_grid,
    bb_energy_integral,
    energy_expectation,
    energy_momentum_integrals,
    field_expectation_exact,
    field_expectation_grid,
    field_expectation_narrowband,
    localization_scale,
    maxwell_residual,
    narrowband_energy_momentum,
    narrowband_grid,
    positive_frequency_field,
    relative_l2,
    sipe_energy_integral,
    sipe_wavefunction,
    tensor_covariance_check,
    vector_potential,
)
from photonamp.lorentz import METRIC, AxisAngle, light_energy, rotation_matrix
from photonamp.polarization import polarization_spatial
from photonamp.quadrature import BoxQuadrature
from photonamp.verify import run_suite
from photonamp.wigner import wigner_rotation
from test_amplitudes import _traced_peak

KAPPA = 1.0


def eb_from_tensor(F):
    E = -F[0, 1:]
    B = -np.array([F[2, 3], F[3, 1], F[1, 2]])
    return E, B


def linear_wavepacket(kappa, sigma, npts=48):
    center = np.array([0.0, 0.0, kappa])
    norm_const = (2.0 * math.pi * sigma**2) ** (-0.75) / math.sqrt(2.0)

    def g(k):
        d = np.asarray(k, dtype=float) - center
        return norm_const * np.exp(-np.sum(d * d, axis=-1) / (4.0 * sigma**2)) + 0.0j

    return HelicityAmplitude(g, g, BoxQuadrature(center, 6.5 * sigma, npts))


@pytest.fixture(scope="module")
def packet():
    return gaussian_wavepacket([0, 0, KAPPA], 0.05 * KAPPA, 1)


@pytest.fixture(scope="module")
def narrow_packet():
    return gaussian_wavepacket([0, 0, KAPPA], 0.01 * KAPPA, 1)


class TestNarrowbandForm:
    def test_fields_mutually_perpendicular(self):
        spec = NarrowbandSpec(KAPPA, 0.01)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = np.array([0.0, *rng.normal(scale=spec.sigma_x, size=3)])
            E, B = field_expectation_narrowband(spec, x)
            assert abs(E @ B) <= 1e-15 * (E @ E + B @ B)

    def test_equal_field_magnitudes(self):
        spec = NarrowbandSpec(KAPPA, 0.01)
        x = np.array([0.0, 5.0, -3.0, 20.0])
        E, B = field_expectation_narrowband(spec, x)
        assert E @ E == pytest.approx(B @ B, rel=1e-12)

    def test_counterclockwise_rotation_facing_oncoming_wave(self):
        # positive helicity: E(t) x E(t + dt) points along +z
        spec = NarrowbandSpec(KAPPA, 0.01)
        for t in (0.0, 0.3, 1.0):
            E1, _ = field_expectation_narrowband(spec, [t, 1.0, 2.0, 3.0])
            E2, _ = field_expectation_narrowband(spec, [t + 0.05, 1.0, 2.0, 3.0])
            assert np.cross(E1, E2)[2] > 0.0

    def test_envelope_translates_at_light_speed(self):
        spec = NarrowbandSpec(KAPPA, 0.01)
        t = 10.0
        E0, B0 = field_expectation_narrowband(spec, [0.0, 1.0, 2.0, 3.0])
        Et, Bt = field_expectation_narrowband(spec, [t, 1.0, 2.0, 3.0 + t])
        assert_allclose(Et, E0, atol=1e-12)
        assert_allclose(Bt, B0, atol=1e-12)

    def test_late_times_warn(self):
        spec = NarrowbandSpec(KAPPA, 0.01)
        with pytest.warns(NarrowbandValidityWarning):
            field_expectation_narrowband(spec, [0.5 * spec.spreading_window, 0, 0, 0])


class TestExactField:
    def test_zero_amplitude_gives_zero_field(self):
        quad = BoxQuadrature([0, 0, KAPPA], 0.2, 16)
        zero = HelicityAmplitude(lambda k: np.zeros(np.shape(k)[:-1], complex), None, quad)
        F = field_expectation_exact(zero, [0.0, 0, 0, 0])
        assert np.max(np.abs(F)) == 0.0

    def test_antisymmetry(self, packet):
        F = field_expectation_exact(packet, [0.2, 1.0, -2.0, 3.0])
        assert np.max(np.abs(F + F.T)) <= 1e-18

    def test_negligible_far_outside_envelope(self):
        # needs enough momentum nodes: the quadrature's plane-wave sum stops
        # decaying once k.x oscillations outrun the node count
        spec = NarrowbandSpec(KAPPA, 0.01)
        psi = gaussian_wavepacket([0, 0, KAPPA], 0.01 * KAPPA, 1, npts=64)
        peak = np.linalg.norm(
            eb_from_tensor(field_expectation_exact(psi, [0.0, 0, 0, 0]))[0]
        )
        for mult in (10.5, 12):
            far = np.linalg.norm(
                eb_from_tensor(
                    field_expectation_exact(psi, [0.0, 0, 0, mult * spec.sigma_x])
                )[0]
            )
            assert far <= 1e-8 * peak

    def test_matches_narrowband_on_axis(self, narrow_packet):
        spec = NarrowbandSpec(KAPPA, 0.01)
        for z in (0.0, 0.4, 0.5 * spec.sigma_x):
            F = field_expectation_exact(narrow_packet, [0.0, 0, 0, z])
            E, B = eb_from_tensor(F)
            En, Bn = field_expectation_narrowband(spec, [0.0, 0, 0, z])
            scale = np.linalg.norm(En)
            assert np.max(np.abs(E - En)) <= 3e-2 * scale
            assert np.max(np.abs(B - Bn)) <= 3e-2 * scale

    @pytest.mark.parametrize("ratio", [0.01, 0.003])
    def test_narrowband_error_law(self, ratio):
        # the closed form's relative L2 error is 1.117 sigma_k/kappa at t = 0, as
        # scripts/narrowband_accuracy.py prints on its grid: 64^3, half-width 3.7 sigma_x
        spec = NarrowbandSpec(KAPPA, ratio * KAPPA)
        psi = gaussian_wavepacket([0, 0, KAPPA], spec.sigma_k, 1)
        grid = SpatialGrid.centered(3.7 * spec.sigma_x, 64)
        rel = relative_l2(field_expectation_grid(psi, grid), narrowband_grid(spec, grid))
        assert rel / ratio == pytest.approx(1.117, abs=0.005)

    def test_carrier_phase_convention_is_zero_offset(self, narrow_packet):
        # among quarter-turn offsets of the carrier the plain form wins
        spec = NarrowbandSpec(KAPPA, 0.01)
        grid = SpatialGrid.centered(1.0, 9, center=(0, 0, 0.3))
        ftg = field_expectation_grid(narrow_packet, grid, 0.0)
        errors = {}
        for offset in (0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi):
            nb = narrowband_grid(spec, grid, 0.0, phase_offset=offset)
            errors[offset] = float(np.sum((ftg.E - nb.E) ** 2 + (ftg.B - nb.B) ** 2))
        assert min(errors, key=errors.get) == 0.0

    def test_verify_fails_a_slipped_carrier_phase(self, monkeypatch):
        # a quarter turn on the closed form must fail the margin by itself
        original = fields._narrowband_EB

        def slipped(spec, X, Y, Z, t, phase_offset=0.0):
            return original(spec, X, Y, Z, t, phase_offset + 0.5 * math.pi)

        monkeypatch.setattr(fields, "_narrowband_EB", slipped)
        report = run_suite("fields", trials=1)
        margin = next(p for p in report.properties if p.name == "narrowband_accuracy_margin")
        assert not margin.passed

    def test_verify_fields_twice_in_one_process_gives_the_same_report(self):
        # verify's amplitudes are built afresh on every run, so nothing kept on
        # one run's amplitudes can reach the next
        first, second = run_suite("fields"), run_suite("fields")
        assert first.properties == second.properties

    def test_exact_field_handedness(self, packet):
        # positive helicity: E(t) x E(t + dt) points along +z at a fixed point
        for t in (0.0, 0.4):
            E1, _ = eb_from_tensor(field_expectation_exact(packet, [t, 0.3, -0.2, 0.5]))
            E2, _ = eb_from_tensor(
                field_expectation_exact(packet, [t + 0.05, 0.3, -0.2, 0.5])
            )
            assert np.cross(E1, E2)[2] > 0.0

    def test_grid_fill_matches_pointwise(self, packet):
        grid = SpatialGrid.centered(4.0, 7, center=(0.5, -0.5, 1.0))
        ftg = field_expectation_grid(packet, grid, t=0.7)
        gx, gy, gz = grid.axes()
        for idx in [(0, 3, 5), (6, 1, 2)]:
            x = np.array([0.7, gx[idx[0]], gy[idx[1]], gz[idx[2]]])
            E, B = eb_from_tensor(field_expectation_exact(packet, x))
            assert_allclose(ftg.E[idx], E, atol=1e-16)
            assert_allclose(ftg.B[idx], B, atol=1e-16)


class TestConservationIntegrals:
    def test_energy_and_momentum_near_packet_values(self):
        spec = NarrowbandSpec(KAPPA, 0.05)
        limit = (2 * math.pi / KAPPA) / 8
        n = math.ceil(12 * spec.sigma_x / limit) + 1
        grid = SpatialGrid.centered(6 * spec.sigma_x, n)
        totals = energy_momentum_integrals(narrowband_grid(spec, grid))
        assert totals[0] == pytest.approx(KAPPA, rel=0.01)
        assert_allclose(totals[1:], [0, 0, KAPPA], atol=0.01 * KAPPA)

    def test_streamed_matches_materialized(self):
        spec = NarrowbandSpec(KAPPA, 0.05)
        limit = (2 * math.pi / KAPPA) / 8
        n = math.ceil(12 * spec.sigma_x / limit) + 1
        grid = SpatialGrid.centered(6 * spec.sigma_x, n)
        streamed = narrowband_energy_momentum(spec, grid)
        materialized = energy_momentum_integrals(narrowband_grid(spec, grid))
        assert_allclose(streamed, materialized, rtol=1e-12, atol=1e-12)

    def test_one_point_grid_is_refused_before_dividing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="npts >= 2"):
                SpatialGrid.centered(1.0, 1)

    def test_zero_field_integrates_to_zero(self):
        grid = SpatialGrid.centered(1.0, 8)
        shape = grid.shape + (3,)
        ftg = FieldTensorGrid(grid, 0.0, np.zeros(shape), np.zeros(shape))
        assert_allclose(energy_momentum_integrals(ftg), np.zeros(4), atol=0)

    def test_integrals_keep_their_bits_in_any_field_layout(self):
        # einsum sums in memory order: Fortran-ordered fields must not round otherwise
        rng = np.random.default_rng(31)
        grid = SpatialGrid.centered(2.0, 11)
        E, B = rng.normal(size=(2,) + grid.shape + (3,))
        c_order = FieldTensorGrid(grid, 0.0, E, B)
        f_order = FieldTensorGrid(grid, 0.0, np.asfortranarray(E), np.asfortranarray(B))
        assert f_order.E.flags.f_contiguous and not f_order.E.flags.c_contiguous
        assert np.array_equal(energy_momentum_integrals(f_order), energy_momentum_integrals(c_order))

    @staticmethod
    def _resolved_grid(spec, center=(0.0, 0.0, 0.0)):
        limit = (2 * math.pi / KAPPA) / 8
        n = math.ceil(12 * spec.sigma_x / limit) + 1
        return SpatialGrid.centered(6 * spec.sigma_x, n, center=center)

    def test_separable_matches_materialized_at_later_time(self):
        spec = NarrowbandSpec(KAPPA, 0.1)
        grid = self._resolved_grid(spec)
        t = 4.0
        separable = narrowband_energy_momentum(spec, grid, t)
        materialized = energy_momentum_integrals(narrowband_grid(spec, grid, t))
        assert_allclose(separable, materialized, rtol=1e-12, atol=1e-12)

    def test_separable_matches_materialized_off_origin(self):
        spec = NarrowbandSpec(KAPPA, 0.1)
        grid = self._resolved_grid(spec, center=(1.5, -2.0, 3.0))
        separable = narrowband_energy_momentum(spec, grid)
        materialized = energy_momentum_integrals(narrowband_grid(spec, grid))
        assert_allclose(separable, materialized, rtol=1e-12, atol=1e-12)

    def test_late_time_integral_warns(self):
        spec = NarrowbandSpec(KAPPA, 0.1)
        grid = self._resolved_grid(spec)
        with pytest.warns(NarrowbandValidityWarning):
            narrowband_energy_momentum(spec, grid, 0.5 * spec.spreading_window)

    def test_unresolved_carrier_rejected(self):
        spec = NarrowbandSpec(KAPPA, 0.05)
        grid = SpatialGrid.centered(6 * spec.sigma_x, 16)
        with pytest.raises(UnderResolvedGridError, match="n >="):
            narrowband_energy_momentum(spec, grid)


class TestMaxwellResiduals:
    def test_small_at_resolving_step(self, packet):
        x = np.array([0.1, 0.5, -0.3, 2.0])
        div, cyc = maxwell_residual(packet, x, h=0.05)
        assert div <= 1e-3
        assert cyc <= 1e-3

    def test_second_order_convergence(self, packet):
        x = np.array([0.1, 0.5, -0.3, 2.0])
        res = [max(maxwell_residual(packet, x, h)) for h in (0.2, 0.1)]
        assert res[0] / res[1] == pytest.approx(4.0, abs=0.5)

    def test_steps_give_the_bits_of_one_call_each(self, packet):
        x = np.array([0.1, 0.5, -0.3, 2.0])
        steps = [0.2, 0.1, 0.05]
        div, cyc = maxwell_residual(packet, x, np.array(steps))
        assert div.shape == cyc.shape == (3,)
        for i, h in enumerate(steps):
            single = maxwell_residual(packet, x, h)
            assert all(type(r) is float for r in single)
            assert (div[i], cyc[i]) == single


class TestRefusedInput:
    @pytest.mark.parametrize("spacing", [0.0, -0.1, [0.1, 0.0, 0.1]])
    def test_grid_spacing(self, spacing):
        with pytest.raises(ValueError, match="grid spacing must be positive"):
            SpatialGrid([0.0, 0.0, 0.0], spacing, 4)

    @pytest.mark.parametrize("kappa, sigma", [(0.0, 0.05), (-1.0, 0.05), (1.0, 0.0), (1.0, -0.05)])
    def test_narrowband_spec(self, kappa, sigma):
        with pytest.raises(ValueError, match="kappa and sigma_k must be positive"):
            NarrowbandSpec(kappa, sigma)


class TestLocalCovariance:
    def test_identity(self, packet):
        # every element sums on the origin's nodes carried forward; a zero boost
        # fuses to the identity, which carries each node to itself
        assert tensor_covariance_check(packet, [0.1, 1, 0, 2], beta=[0, 0, 0]) <= 1e-10

    def test_rotation(self, packet):
        resid = tensor_covariance_check(
            packet, [0.2, 1.0, -2.0, 3.0], rotation=AxisAngle([0, 0, 1], 0.7)
        )
        assert resid <= 1e-6

    def test_boost(self, packet):
        resid = tensor_covariance_check(packet, [0.2, 1.0, -2.0, 3.0], beta=[0, 0, 0.3])
        assert resid <= 1e-5

    def test_requires_exactly_one_transformation(self, packet):
        with pytest.raises(ValueError):
            tensor_covariance_check(packet, [0, 0, 0, 0])

    def test_rotation_of_a_packet_with_nodes_on_the_south_pole(self):
        # odd npts puts one column of nodes exactly on -z, where the rotated
        # amplitude takes its Wigner phase with phi := 0 like the matrix route
        psi = gaussian_wavepacket([0, 0, -1], 0.05, 1, npts=49)
        r = AxisAngle([0, 0, 1], 0.5)
        assert tensor_covariance_check(psi, [0.3, 0.2, -0.1, 0.4], rotation=r) <= 1e-13
        south = [0.0, 0.0, -1.0]
        want = wigner_rotation(rotation_matrix(r), [1.0, *south]).phase(1) * psi.evaluate(1, south)
        assert abs(psi.rotate(r).evaluate(1, south) - want) <= 1e-15 * abs(want)


class TestPositiveFrequency:
    def test_twice_real_part_is_expectation(self, packet):
        x = np.array([0.3, 0.4, 0.5, 1.2])
        S = positive_frequency_field(packet, x)
        assert_allclose(2 * S.real, field_expectation_exact(packet, x), atol=1e-18)

    def test_sipe_vector_is_positive_frequency_electric(self, packet):
        x = np.array([0.0, 0.2, -0.1, 0.5])
        S = positive_frequency_field(packet, x)
        Ep = -S[0, 1:]
        assert_allclose(sipe_wavefunction(packet, x), -math.sqrt(2) * Ep, atol=1e-18)

    def test_gauge_shift_leaves_fields_unchanged(self, packet):
        rng = np.random.default_rng(1)
        x = np.array([0.1, 0.3, 0.2, 0.9])
        base = positive_frequency_field(packet, x)
        for _ in range(5):
            c = complex(rng.normal(), rng.normal())
            gauged = positive_frequency_field(
                packet, x, gauge=lambda pts: c * np.linalg.norm(pts, axis=-1)
            )
            assert np.max(np.abs(gauged - base)) <= 1e-12 * np.max(np.abs(base))


class TestBatchedPoints:
    @staticmethod
    def _points(shape, seed=3):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=2.0, size=shape + (4,))
        x[..., 0] = rng.uniform(-1.0, 1.0, size=shape)
        return x

    def test_shape_contract(self, packet):
        assert positive_frequency_field(packet, [0.1, 0.2, 0.3, 0.4]).shape == (4, 4)
        for shape in [(5,), (2, 3)]:
            x = self._points(shape)
            assert positive_frequency_field(packet, x).shape == shape + (4, 4)
            assert field_expectation_exact(packet, x).shape == shape + (4, 4)
            assert sipe_wavefunction(packet, x).shape == shape + (3,)
            assert bb_density(packet, x).shape == shape
            assert vector_potential(packet, x).shape == shape + (4,)
        assert isinstance(bb_density(packet, [0.0, 0, 0, 0]), float)

    def test_block_edges_match_single_points(self, packet):
        x = self._points((2 * POINT_BLOCK + 3,))
        batched = positive_frequency_field(packet, x)
        single = np.array([positive_frequency_field(packet, xi) for xi in x])
        scale = np.max(np.abs(single))
        assert np.max(np.abs(batched - single)) <= 1e-15 * scale

    def test_derived_observables_match_single_points(self, packet):
        x = self._points((4,), seed=5)
        rho = bb_density(packet, x)
        sipe = sipe_wavefunction(packet, x)
        A = vector_potential(packet, x)
        sipe_scale, A_scale = np.max(np.abs(sipe)), np.max(np.abs(A))
        for i, xi in enumerate(x):
            assert rho[i] == pytest.approx(bb_density(packet, xi), rel=1e-13)
            assert np.max(np.abs(sipe[i] - sipe_wavefunction(packet, xi))) <= 1e-15 * sipe_scale
            assert np.max(np.abs(A[i] - vector_potential(packet, xi))) <= 1e-15 * A_scale

    def test_gauge_shift_invisible_on_a_batch(self, packet):
        x = self._points((POINT_BLOCK + 1,), seed=7)
        base = positive_frequency_field(packet, x)
        gauged = positive_frequency_field(
            packet, x, gauge=lambda pts: (0.4 - 1.1j) * np.linalg.norm(pts, axis=-1)
        )
        assert np.max(np.abs(gauged - base)) <= 1e-12 * np.max(np.abs(base))

    def test_rejects_points_without_four_components(self, packet):
        with pytest.raises(ValueError):
            positive_frequency_field(packet, np.zeros((2, 3)))


def _coefficients_with_clock(psi, t):
    """The node coefficients at time t built as one formula: the clock folded into
    the weight, eps as a 4-vector and a complex cross product, with no cache."""
    quad = psi.quad
    box = BoxQuadrature(quad.center, fields.FIELD_BOX_SCALE * quad.halfwidth, quad.npts)
    pts = box.points()
    omega = np.linalg.norm(pts, axis=-1)
    base = fields.PREFACTOR * box.weights() / np.sqrt(omega) * np.exp(-1j * omega * t)
    C = np.zeros((len(pts), 6), dtype=complex)
    for lam in (1, -1):
        if psi.component(lam) is None:
            continue
        eps4 = np.zeros((len(pts), 4), dtype=complex)
        eps4[:, 1:] = polarization_spatial(pts, lam)
        c = base * psi.evaluate(lam, pts)
        for i in range(3):
            C[:, i] += c * omega * eps4[:, 1 + i] - c * pts[:, i] * eps4[:, 0]
        C[:, 3:] += c[:, None] * np.cross(pts, eps4[:, 1:])
    return pts, C


class TestNodeCoefficients:
    def test_repeated_call_reuses_the_arrays(self):
        psi = gaussian_wavepacket([0, 0, KAPPA], 0.05, 1)
        for tensor in (True, False):
            _, omega, C = fields._node_coefficients(psi, tensor=tensor)
            _, omega2, C2 = fields._node_coefficients(psi, tensor=tensor)
            assert np.shares_memory(C, C2) and np.shares_memory(omega, omega2)
        assert sorted(psi._nodes) == [False, True]

    def test_gauge_shifted_call_leaves_the_cache_alone(self):
        psi = gaussian_wavepacket([0, 0, KAPPA], 0.05, 1)
        gauge = lambda pts: (0.4 - 1.1j) * np.linalg.norm(pts, axis=-1)  # noqa: E731
        fields._node_coefficients(psi, gauge=gauge)
        assert psi._nodes == {}
        kept = fields._node_coefficients(psi)
        _, _, shifted = fields._node_coefficients(psi, gauge=gauge)
        assert psi._nodes == {True: kept}
        assert not np.shares_memory(shifted, kept[2])

    def test_transformed_amplitude_gets_its_own_cache(self):
        psi = gaussian_wavepacket([0, 0, KAPPA], 0.05, 1)
        _, _, C = fields._node_coefficients(psi)
        moved = psi.rotate(AxisAngle([0, 1, 0], 0.3))
        assert moved._nodes == {}
        _, _, C_moved = fields._node_coefficients(moved)
        assert not np.shares_memory(C, C_moved)
        assert psi._nodes[True][2] is C

    def test_cached_arrays_are_read_only(self, packet):
        _, omega, C = fields._node_coefficients(packet)
        with pytest.raises(ValueError):
            C[0, 0] = 1.0
        with pytest.raises(ValueError):
            omega[0] = 1.0

    def test_a_field_box_that_clips_the_packet_warns(self):
        # the lambda = -1 part overhangs the box, as norm_squared also says
        with pytest.warns(QuadratureDomainWarning, match=r"field box may clip .* density \d"):
            fields._node_coefficients(_two_helicity_packet(24))
        with pytest.warns(QuadratureDomainWarning, match="field box may clip"):
            field_expectation_exact(replay(_two_helicity_packet(24), _EVERY_KIND), [0.0, 0, 0, 0])

    @pytest.mark.parametrize("sigma", [0.01, 0.05, 0.3])
    def test_a_field_box_that_holds_the_packet_is_silent(self, sigma):
        packet = gaussian_wavepacket([0, 0, KAPPA], sigma, -1, npts=24)
        with warnings.catch_warnings():
            warnings.simplefilter("error", QuadratureDomainWarning)
            for psi in (packet, replay(packet, _EVERY_KIND)):
                for tensor in (True, False):
                    fields._node_coefficients(psi, tensor=tensor)

    def test_later_time_grid_fill_matches_the_uncached_formula(self):
        psi = gaussian_wavepacket([0, 0, KAPPA], 0.05, 1, npts=20)
        t = 0.7
        grid = SpatialGrid.centered(6.0, 6, center=(0.3, -0.2, t))
        _, _, kept = fields._node_coefficients(psi)
        before = kept.copy()
        Ep, Bp = fields.positive_frequency_grid(psi, grid, t)
        assert np.array_equal(kept, before)
        pts, C = _coefficients_with_clock(psi, t)
        X = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1).reshape(-1, 3)
        direct = -(np.exp(1j * (X @ pts.T)) @ C)
        fill = np.concatenate([Ep, Bp], axis=-1).reshape(-1, 6)
        assert np.max(np.abs(fill - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_separable_sum_matches_the_direct_phase(self, packet):
        # points on the packet's path and away from it, t != 0, |x| up to 50,
        # over two full blocks and a one-row block
        rng = np.random.default_rng(11)
        x = np.zeros((2 * POINT_BLOCK + 1, 4))
        x[:, 0] = rng.uniform(-30.0, 30.0, len(x))
        x[::2, 1:] = rng.normal(scale=2.0, size=(len(x[::2]), 3))
        x[::2, 3] += x[::2, 0]
        away = rng.normal(size=(len(x[1::2]), 3))
        radii = np.linspace(5.0, 50.0, len(away))
        x[1::2, 1:] = away * (radii / np.linalg.norm(away, axis=1))[:, None]
        box, omega, C = fields._node_coefficients(packet)
        direct = np.exp(-1j * (np.outer(x[:, 0], omega) - x[:, 1:] @ box.points().T)) @ C
        separable = fields._sum_over_nodes(packet, x)
        assert np.max(np.abs(separable - direct)) <= 1e-12 * np.max(np.abs(direct))


def _whole_box_coefficients(psi, gauge=None, tensor=True, explicit=False):
    """(omega, C) built over the whole field box at once: the build before slabs.

    The origin's field box, its nodes q carried forward and its weights times
    |k|/|q| as ``carried_nodes`` does; ``omega`` is |q|, and each row is built
    at k with |k|. A tensor C is in the kept layout: E = sum c omega eps, and
    D = sum lam c omega eps unless the packet has one helicity; under a gauge,
    the shifted omega eps - k eps^0 and D = i k x eps. With ``explicit``, it is
    the six components (S^{01}, S^{02}, S^{03}, S^{23}, S^{31}, S^{12}) of
    k^mu eps^nu - k^nu eps^mu, the last three the cross product k x eps.
    """
    quad = psi.quad
    box = BoxQuadrature(quad.center, fields.FIELD_BOX_SCALE * quad.halfwidth, quad.npts)
    pts, ratio = psi._element.carry(box.points())
    w = box.weights() if ratio is None else box.weights() * ratio
    omega, omega_k = light_energy(box.points()), light_energy(pts)
    base = fields.PREFACTOR * w / np.sqrt(omega_k)
    present = [lam for lam in HELICITIES if psi.component(lam) is not None]
    one = len(present) == 1 and gauge is None and not explicit
    C = np.zeros((len(pts), (3 if one else 6) if tensor else 4), dtype=complex)
    for lam in present:
        eps, eps0 = polarization_spatial(pts, lam), None
        if gauge is not None:
            g = np.asarray(gauge(pts), dtype=complex)
            eps, eps0 = eps + g[:, None] * pts, g * omega_k
        c = base * psi.evaluate(lam, pts)
        if tensor:
            C[:, :3] += (c * omega_k)[:, None] * eps
            if eps0 is not None:
                C[:, :3] -= (c * eps0)[:, None] * pts
            if gauge is not None or explicit:
                k_cross_eps = np.empty_like(eps)
                k_cross_eps.real = np.cross(pts, eps.real)
                k_cross_eps.imag = np.cross(pts, eps.imag)
                C[:, 3:] += c[:, None] * (k_cross_eps if explicit else 1j * k_cross_eps)
            elif not one:
                C[:, 3:] += lam * ((c * omega_k)[:, None] * eps)
        else:
            C[:, 1:] += c[:, None] * eps
            if eps0 is not None:
                C[:, 0] += c * eps0
    return omega, C


def _two_helicity_packet(npts):
    plus = gaussian_wavepacket([0.1, -0.2, KAPPA], 0.05, 1, npts=npts)
    minus = gaussian_wavepacket([0.04, -0.03, 0.95 * KAPPA], 0.065, -1, npts=npts)
    return HelicityAmplitude(
        plus.psi_plus, lambda k: (0.6 - 0.8j) * minus.psi_minus(k), plus.quad
    )


_GAUGE = lambda pts: (0.4 - 1.1j) * np.linalg.norm(pts, axis=-1)  # noqa: E731
_EVERY_KIND = [
    TransformOp("boost", {"beta": [0.1, 0.2, 0.5]}),
    TransformOp("parity", {}),
    TransformOp("rotate", {"axis": [0.0, 1.0, 0.2], "angle": 0.3}),
    TransformOp("translate", {"a": [0.3, 1.0, -2.0, 0.5]}),
    TransformOp("time_reverse", {}),
]


class TestSlabBuild:
    """The node coefficients built slab by slab are the whole-box build's, bit for bit."""

    # 31 nodes per axis: four planes per slab and a last slab of three
    @pytest.mark.parametrize("helicity, gauge, tensor, record", [
        (1, None, True, []),
        (-1, None, True, []),
        (1, _GAUGE, True, []),
        (1, None, False, []),
        (-1, _GAUGE, False, []),
        (0, None, True, _EVERY_KIND),
        (0, _GAUGE, False, _EVERY_KIND),
        (0, _GAUGE, True, _EVERY_KIND),
    ], ids=["plus", "minus", "gauge", "potential", "potential-gauge", "transformed",
            "transformed-potential-gauge", "transformed-gauge"])
    def test_slab_build_matches_the_whole_box_build(self, helicity, gauge, tensor, record):
        if helicity:
            psi = gaussian_wavepacket([0.1, -0.2, KAPPA], 0.05, helicity, npts=31)
        else:
            psi = replay(_two_helicity_packet(31), record)
        box, omega, C = fields._node_coefficients(psi, gauge=gauge, tensor=tensor)
        whole_omega, whole_C = _whole_box_coefficients(psi, gauge=gauge, tensor=tensor)
        assert len(list(box.slabs())) > 1
        assert np.array_equal(omega, whole_omega)
        assert np.array_equal(C, whole_C)

    @pytest.mark.parametrize("t", [0.0, 0.7])
    def test_fills_match_the_whole_box_formulas(self, t):
        # the clock applied to a copy of all of C, and the complex fields kept; a
        # parity and a translation have no Lorentz part, and the flip negates the grid
        psi = replay(_two_helicity_packet(20), _EVERY_KIND[1::2])
        grid = SpatialGrid.centered(6.0, 11, center=(0.3, -0.2, t))
        box, omega, C = fields._node_coefficients(psi)
        assert C.shape[1] == 6
        clocked = C * np.exp(-1j * omega * t)[:, None]
        Ax, Ay, Az = (np.exp(1j * np.outer(k, -g)) for k, g in zip(box.axes(), grid.axes()))
        n = box.npts
        fill = [fields._contract(clocked[:, i].reshape(n, n, n), Ax, Ay, Az) for i in range(6)]
        # E+ = -(sum of E), B+ = i (sum of D); C order, as the complex fields were
        # kept: a trapezoid sum follows the layout
        Ep = -np.ascontiguousarray(np.stack(fill[:3], axis=-1))
        Bp = 1j * np.ascontiguousarray(np.stack(fill[3:], axis=-1))
        got = fields.positive_frequency_grid(psi, grid, t)
        assert np.array_equal(got[0], Ep) and np.array_equal(got[1], Bp)
        ftg = field_expectation_grid(psi, grid, t)
        assert np.array_equal(ftg.E, 2.0 * Ep.real) and np.array_equal(ftg.B, 2.0 * Bp.real)
        assert sipe_energy_integral(psi, grid, t) == fields._trapezoid_integral(
            2.0 * np.sum(np.abs(Ep) ** 2, axis=-1), grid
        )
        assert np.array_equal(
            bb_density_grid(psi, grid, t), np.sum(np.abs(Ep) ** 2 + np.abs(Bp) ** 2, axis=-1)
        )

    def test_poynting_components_are_np_cross(self):
        rng = np.random.default_rng(23)
        grid = SpatialGrid.centered(2.0, 9)
        E, B = rng.normal(size=(2,) + grid.shape + (3,)) * 10.0 ** rng.integers(-6, 6, (2, 9, 9, 9, 3))
        ftg = FieldTensorGrid(grid, 0.0, E, B)
        S = np.cross(E, B)
        assert np.array_equal(ftg.poynting(), S)
        for i in range(3):
            assert np.array_equal(fields._cross_component(E, B, i), S[..., i])
        energy = fields._trapezoid_integral(ftg.energy_density(), grid)
        flux = [fields._trapezoid_integral(S[..., i], grid) for i in range(3)]
        assert np.array_equal(energy_momentum_integrals(ftg), [energy, *flux])

    def test_narrowband_grid_from_broadcast_axes_matches_the_meshgrid(self):
        spec = NarrowbandSpec(KAPPA, 0.05)
        grid = SpatialGrid.centered(3.0 * spec.sigma_x, 17, center=(0.1, -0.3, 0.4))
        ftg = narrowband_grid(spec, grid, 0.4, phase_offset=0.3)
        X, Y, Z = np.meshgrid(*grid.axes(), indexing="ij")
        E, B = fields._narrowband_EB(spec, X, Y, Z, 0.4, 0.3)
        assert np.array_equal(ftg.E, E) and np.array_equal(ftg.B, B)


def _field_points(n, seed):
    """n spacetime points about the packets' path: |t| < 2, x within a few units."""
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=3.0, size=(n, 4))
    x[:, 0] = rng.uniform(-2.0, 2.0, n)
    x[:, 3] += x[:, 0]
    return x


def _direct_field(psi, box, x):
    """<F> at the points x (m, 4) summed over ``box``'s own nodes, slab by slab.

    2 Re sum_n PREFACTOR w_n / sqrt(omega_n) sum_lam psi_lam(k_n)
    (k^mu eps^nu - k^nu eps^mu) e^{-i k_n.x}, with nothing kept or carried.
    """
    F = np.zeros((len(x), 4, 4))
    for k, w, _ in box.slabs():
        omega = light_energy(k)
        k4 = np.column_stack([omega, k])
        phase = np.exp(-1j * (np.outer(x[:, 0], omega) - x[:, 1:] @ k.T))
        for lam in HELICITIES:
            if psi.component(lam) is None:
                continue
            eps4 = np.zeros((len(k), 4), dtype=complex)
            eps4[:, 1:] = polarization_spatial(k, lam)
            c = fields.PREFACTOR * w / np.sqrt(omega) * psi.evaluate(lam, k)
            T = k4[:, :, None] * eps4[:, None, :] - eps4[:, :, None] * k4[:, None, :]
            F += 2.0 * np.einsum("mn,n,nab->mab", phase, c, T).real
    return F


class TestCarriedFields:
    """A transformed packet's fields, summed on its origin's field box carried forward."""

    def test_parity_maps_the_field(self):
        psi, x = _two_helicity_packet(48), _field_points(12, 31)
        expected = METRIC @ field_expectation_exact(psi, x @ METRIC) @ METRIC
        got = field_expectation_exact(psi.parity(), x)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_time_reversal_maps_the_field(self):
        psi, x = _two_helicity_packet(48), _field_points(12, 32)
        expected = METRIC @ field_expectation_exact(psi, x * [-1.0, 1.0, 1.0, 1.0]) @ METRIC
        got = field_expectation_exact(psi.time_reverse(), x)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))

    def test_mixed_record_matches_a_direct_sum_on_its_own_box(self):
        # both components well inside the origin's field box, whose clipped tail
        # (about e^{-9.75^2/4} of the field) is then the only difference
        plus = gaussian_wavepacket([0.1, -0.2, KAPPA], 0.05, 1)
        minus = gaussian_wavepacket([0.12, -0.18, 0.98 * KAPPA], 0.04, -1)
        base = HelicityAmplitude(plus.psi_plus, lambda k: (0.6 - 0.8j) * minus.psi_minus(k), plus.quad)
        psi = replay(base, [_EVERY_KIND[0], _EVERY_KIND[2], _EVERY_KIND[3], _EVERY_KIND[1]])
        # its own box: the bounding box of the carried field box, 96 nodes per axis
        box, _, _ = fields._node_coefficients(psi)
        k = psi._element.carry(box.points())[0]
        lo, hi = k.min(axis=0), k.max(axis=0)
        own = BoxQuadrature(0.5 * (lo + hi), 0.51 * (hi - lo), 96)
        x = _field_points(4, 33)
        expected = _direct_field(psi, own, x)
        got = field_expectation_exact(psi, x)
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_32_node_descriptor_packet_matches_a_96_node_sum(self):
        # the descriptor ladder sizes the rule for the density; the field needs no more
        descriptor = {"units": "eV", "kappa": [0, 0, KAPPA], "sigma_k": 0.05, "helicity": 1}
        psi = from_descriptor(descriptor)
        assert psi.quad.npts == 32
        box, _, _ = fields._node_coefficients(psi)
        x = _field_points(4, 34)
        expected = _direct_field(psi, BoxQuadrature(box.center, box.halfwidth, 96), x)
        got = field_expectation_exact(psi, x)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("kind", [dict(rotation=AxisAngle([0.3, 1.0, 0.2], 0.7)),
                                      dict(beta=[0.2, -0.1, 0.4])], ids=["rotation", "boost"])
    def test_covariance_to_rounding(self, kind):
        psi = _two_helicity_packet(48)
        assert tensor_covariance_check(psi, [0.2, 1.0, -2.0, 3.0], **kind) <= 1e-13

    @pytest.mark.parametrize("op", [_EVERY_KIND[0], _EVERY_KIND[2]], ids=["boost", "rotation"])
    def test_grid_fill_of_a_rotated_or_boosted_packet_is_refused(self, op):
        psi = replay(gaussian_wavepacket([0, 0, KAPPA], 0.05, 1, npts=16), [op])
        grid = SpatialGrid.centered(6.0, 5)
        for fill in (fields.positive_frequency_grid, field_expectation_grid,
                     sipe_energy_integral, bb_density_grid):
            with pytest.raises(ValueError, match="field_expectation_exact or positive_frequency_field"):
                fill(psi, grid, 0.3)

    @pytest.mark.parametrize("record", [[3, 1], [3, 4], [3, 1, 4]],
                             ids=["parity", "time-reversal", "both"])
    def test_flipped_grid_fill_matches_pointwise(self, record):
        psi = replay(_two_helicity_packet(24), [_EVERY_KIND[i] for i in record])
        t = 0.6
        grid = SpatialGrid.centered(8.0, 7, center=(0.3, -0.2, t))
        Ep, Bp = fields.positive_frequency_grid(psi, grid, t)
        X = np.stack(np.meshgrid(*grid.axes(), indexing="ij"), axis=-1)
        S = positive_frequency_field(psi, np.concatenate([np.full(grid.shape + (1,), t), X], axis=-1))
        pointwise = np.concatenate([-S[..., 0, 1:], -S[..., [2, 3, 1], [3, 1, 2]]], axis=-1)
        fill = np.concatenate([Ep, Bp], axis=-1)
        assert np.max(np.abs(fill - pointwise)) <= 1e-12 * np.max(np.abs(pointwise))


def _explicit_sums(psi, x):
    """The six positive-frequency components at the points x (m, 4), summed on the explicit table."""
    box, omega, _ = fields._node_coefficients(psi)
    _, explicit = _whole_box_coefficients(psi, explicit=True)
    y = psi._element.origin_point(x)
    return np.exp(-1j * (np.outer(y[:, 0], omega) - y[:, 1:] @ box.points().T)) @ explicit


def _explicit_grid_sums(psi, grid, t):
    """The six components' grid sums, each column of the explicit table contracted with the clock."""
    box, omega, _ = fields._node_coefficients(psi)
    _, explicit = _whole_box_coefficients(psi, explicit=True)
    s = -1.0 if psi._element.flipped else 1.0
    Ax, Ay, Az = (np.exp(1j * np.outer(k, s * g)) for k, g in zip(box.axes(), grid.axes()))
    clocked = explicit * np.exp(-1j * omega * t)[:, None]
    n = box.npts
    return np.stack(
        [fields._contract(clocked[:, i].reshape(n, n, n), Ax, Ay, Az) for i in range(6)], axis=-1
    )


def _helicity_packet(helicity, record):
    if helicity:
        psi = gaussian_wavepacket([0.1, -0.2, KAPPA], 0.05, helicity, npts=31)
    else:
        psi = _two_helicity_packet(31)
    return replay(psi, [_EVERY_KIND[i] for i in record])


@pytest.mark.filterwarnings("ignore:field box may clip")  # the two-helicity packet overhangs its box
class TestHelicityRoute:
    """The kept table's helicity route, k x eps_lam = -i lam omega eps_lam, against the
    explicit six-column build: one helicity keeps E alone, two keep E and D."""

    PACKETS = pytest.mark.parametrize("helicity, record", [
        (1, []), (-1, []), (1, [0, 1]), (0, []), (0, range(5)),
    ], ids=["plus", "minus", "plus-boost-parity", "two-helicity", "every-kind"])

    FILLABLE = pytest.mark.parametrize("helicity, record", [
        (1, []), (-1, [3]), (1, [1]), (-1, [4, 3]), (0, []), (0, [3, 1, 4]), (0, [1]),
    ], ids=["plus", "minus-translated", "plus-parity", "minus-time-reversal-translated",
            "two-helicity", "two-helicity-translated-parity-time-reversal", "two-helicity-parity"])

    @PACKETS
    def test_table_matches_the_explicit_build(self, helicity, record):
        psi = _helicity_packet(helicity, record)
        _, _, C = fields._node_coefficients(psi)
        _, explicit = _whole_box_coefficients(psi, explicit=True)
        lam = fields._one_helicity(psi)
        assert C.shape == (31**3, 3 if lam else 6)
        D = lam * C if lam else C[:, 3:]
        assert np.array_equal(C[:, :3], explicit[:, :3])
        assert np.max(np.abs(-1j * D - explicit[:, 3:])) <= 1e-15 * np.max(np.abs(explicit))

    @PACKETS
    def test_pointwise_field_matches_the_explicit_build(self, helicity, record):
        psi, x = _helicity_packet(helicity, record), _field_points(2 * POINT_BLOCK + 1, 36)
        comps = _explicit_sums(psi, x)
        S = np.zeros((len(x), 4, 4), dtype=complex)
        S[:, fields._MU, fields._NU] = comps
        S[:, fields._NU, fields._MU] = -comps
        expected = 2.0 * S.real
        scale = np.max(np.abs(expected))
        for gauge in (None, _GAUGE):
            got = field_expectation_exact(psi, x, gauge=gauge)
            assert np.max(np.abs(got - expected)) <= 1e-13 * scale

    @FILLABLE
    def test_grid_fills_match_the_explicit_build(self, helicity, record):
        psi, t = _helicity_packet(helicity, record), 0.6
        grid = SpatialGrid.centered(6.0, 9, center=(0.3, -0.2, t))
        sums = _explicit_grid_sums(psi, grid, t)
        Ep, Bp = -sums[..., :3], -sums[..., 3:]
        scale = max(np.max(np.abs(Ep)), np.max(np.abs(Bp)))
        ftg = field_expectation_grid(psi, grid, t)
        assert np.max(np.abs(ftg.E - 2.0 * Ep.real)) <= 1e-13 * scale
        assert np.max(np.abs(ftg.B - 2.0 * Bp.real)) <= 1e-13 * scale
        got = fields.positive_frequency_grid(psi, grid, t)
        assert np.max(np.abs(got[0] - Ep)) <= 1e-13 * scale
        assert np.max(np.abs(got[1] - Bp)) <= 1e-13 * scale
        density = np.sum(np.abs(Ep) ** 2 + np.abs(Bp) ** 2, axis=-1)
        assert np.max(np.abs(bb_density_grid(psi, grid, t) - density)) <= 1e-13 * scale**2

    def test_one_helicity_fills_use_the_three_electric_sums(self):
        # B+ = -i lam E+ exactly, so |B+| = |E+| and the BB density is the Sipe one
        psi = _helicity_packet(-1, [3, 1])
        grid = SpatialGrid.centered(6.0, 9, center=(0.3, -0.2, 0.6))
        Ep, Bp = fields.positive_frequency_grid(psi, grid, 0.6)
        assert fields._one_helicity(psi) == 1  # the parity flip turns -1 into +1
        assert np.array_equal(Bp, -1j * Ep)
        ftg = field_expectation_grid(psi, grid, 0.6)
        assert np.array_equal(ftg.E, 2.0 * Ep.real) and np.array_equal(ftg.B, 2.0 * Bp.real)
        density = bb_density_grid(psi, grid, 0.6)
        assert np.array_equal(density, np.sum(np.abs(Ep) ** 2 + np.abs(Bp) ** 2, axis=-1))
        assert sipe_energy_integral(psi, grid, 0.6) == fields._trapezoid_integral(density, grid)


class TestGridMemory:
    """No field path holds a complex copy of the grid or box-sized build temporaries."""

    def test_node_build_temporaries_are_slab_sized(self):
        # the whole-box build traced about 23 MiB above what it keeps; one
        # helicity keeps E alone, an (N, 3) table of 5.3 MB
        psi = gaussian_wavepacket([0, 0, KAPPA], 0.05, 1)
        psi.quad
        peak = _traced_peak(lambda: fields._node_coefficients(psi))
        _, omega, C = fields._node_coefficients(psi)
        assert C.shape == (48**3, 3) and C.nbytes == 5_308_416
        assert peak - (omega.nbytes + C.nbytes) < 2 * 2**20

    def test_fields_csv_fill_holds_no_complex_field(self):
        # 66^3: the complex pair alone was 26 MiB, and the fill traced 50.5 MiB,
        # then 32.1 MiB with the six-column table; it traces 27.0 MiB, and one
        # complex component is 4.4 MiB, so a second one kept alive fails
        spec = NarrowbandSpec(3.3, 0.08 * 3.3)
        psi = gaussian_wavepacket([0.0, 0.0, 3.3], spec.sigma_k, 1)
        expectation_momentum(psi, warn=False)
        grid = SpatialGrid.centered(4 * spec.sigma_x, 66)
        assert _traced_peak(lambda: field_expectation_grid(psi, grid, 0.0)) < 28 * 2**20

    def test_energy_closures_hold_one_complex_component(self):
        # verify's closure grid, 72^3: the closures traced 57.3 and 51.3 MiB, then
        # 26.3 and 18.2 MiB with the six-column table; they trace 21.3 and 15.3 MiB
        # (the first one builds the table), and one complex component is 5.7 MiB
        psi = gaussian_wavepacket([0.0, 0.0, KAPPA], 0.01 * KAPPA, 1)
        expectation_momentum(psi, warn=False)
        grid = SpatialGrid.centered(5.0 / (2.0 * 0.01 * KAPPA), 72)
        assert _traced_peak(lambda: sipe_energy_integral(psi, grid)) < 22 * 2**20
        assert _traced_peak(lambda: bb_energy_integral(psi, grid)) < 16 * 2**20


class TestVectorPotential:
    def test_time_component_vanishes_in_canonical_gauge(self, packet):
        A = vector_potential(packet, [0.2, 0.1, 0.4, 1.0])
        assert abs(A[0]) <= 1e-18

    def test_curl_reconstructs_field(self, packet):
        x = np.array([0.2, 0.5, -0.4, 1.5])
        F_direct = field_expectation_exact(packet, x)

        def curl(h):
            dA = np.zeros((4, 4))
            for mu in range(4):
                step = np.zeros(4)
                step[mu] = h
                dA[mu] = (
                    vector_potential(packet, x + step).real
                    - vector_potential(packet, x - step).real
                ) / (2 * h)
            sign = np.array([1.0, -1.0, -1.0, -1.0])
            d_up = sign[:, None] * dA  # raise the derivative index
            return d_up - d_up.T

        err_h = np.max(np.abs(curl(0.02) - F_direct))
        err_h2 = np.max(np.abs(curl(0.01) - F_direct))
        assert err_h2 <= 1e-4 * np.max(np.abs(F_direct))
        assert err_h / err_h2 == pytest.approx(4.0, abs=0.6)

    def test_gauge_shift_moves_potential_not_field(self, packet):
        x = np.array([0.0, 0.3, 0.1, 0.8])
        gauge = lambda pts: 0.7 + 0.2j * np.ones(len(pts))
        A_base = vector_potential(packet, x)
        A_gauged = vector_potential(packet, x, gauge=gauge)
        assert np.max(np.abs(A_gauged - A_base)) > 1e-6 * np.max(np.abs(A_base))
        F_base = field_expectation_exact(packet, x)
        F_gauged = field_expectation_exact(packet, x, gauge=gauge)
        assert np.max(np.abs(F_gauged - F_base)) <= 1e-12 * np.max(np.abs(F_base))


class TestEnergyDensities:
    def test_momentum_route_matches_time_component(self, narrow_packet):
        from photonamp.amplitudes import expectation_momentum

        assert energy_expectation(narrow_packet) == pytest.approx(
            expectation_momentum(narrow_packet, warn=False)[0], rel=1e-12
        )

    def test_sipe_spatial_route_closes(self, narrow_packet):
        H = energy_expectation(narrow_packet)
        grid = SpatialGrid.centered(5.0 / (2 * 0.01), 72)
        assert sipe_energy_integral(narrow_packet, grid) == pytest.approx(H, rel=1e-3)

    def test_doubled_amplitude_quadruples_energy(self, narrow_packet):
        doubled = HelicityAmplitude(
            lambda k: 2.0 * narrow_packet.psi_plus(k), None, narrow_packet.quad
        )
        grid = SpatialGrid.centered(5.0 / (2 * 0.01), 48)
        assert sipe_energy_integral(doubled, grid) == pytest.approx(
            4.0 * sipe_energy_integral(narrow_packet, grid), rel=1e-12
        )

    def test_bb_density_nonnegative_and_closes(self, narrow_packet):
        H = energy_expectation(narrow_packet)
        grid = SpatialGrid.centered(5.0 / (2 * 0.01), 72)
        rho = bb_density_grid(narrow_packet, grid)
        assert np.min(rho) >= 0.0
        assert bb_energy_integral(narrow_packet, grid) == pytest.approx(H, rel=1e-3)

    def test_bb_density_differs_from_classical_for_linear_polarization(self):
        # the classical density of a linearly polarized packet oscillates at
        # the carrier scale, the positive-frequency density does not
        lin = linear_wavepacket(KAPPA, 0.05)
        zline = np.linspace(-1.5, 1.5, 25)
        rho = np.array([bb_density(lin, [0.0, 0, 0, z]) for z in zline])
        classical = []
        for z in zline:
            E, B = eb_from_tensor(field_expectation_exact(lin, np.array([0.0, 0, 0, z])))
            classical.append(0.5 * (E @ E + B @ B))
        assert np.max(np.abs(rho - classical)) / np.max(rho) > 0.1

    def test_bb_density_matches_classical_for_circular_polarization(self, packet):
        # single-helicity packets have a null polarization vector, so the
        # counter-rotating term vanishes and the densities agree to O(sigma^2)
        for z in (0.0, 0.7):
            E, B = eb_from_tensor(field_expectation_exact(packet, np.array([0.0, 0, 0, z])))
            classical = 0.5 * (E @ E + B @ B)
            assert bb_density(packet, [0.0, 0, 0, z]) == pytest.approx(
                classical, rel=1e-2
            )


class TestLocalizationScale:
    def test_blue_photon(self):
        sigma_x = localization_scale(3.3, 0.01)
        assert sigma_x == pytest.approx(2.9898, abs=5e-4)
        assert abs(sigma_x - 3.0) / 3.0 <= 0.01

    def test_inverse_proportionality(self):
        assert localization_scale(3.3, 0.02) == pytest.approx(
            localization_scale(3.3, 0.01) / 2.0, rel=1e-12
        )

    def test_red_photon(self):
        expected = 0.5 * HBARC_EV_UM / (0.01 * 1.65)
        assert localization_scale(1.65, 0.01) == pytest.approx(expected, rel=1e-12)
        assert localization_scale(1.65, 0.01) == pytest.approx(5.98, abs=5e-3)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            localization_scale(-1.0, 0.01)
        with pytest.raises(ValueError):
            localization_scale(3.3, 0.5)
