import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from photonamp.little_group import (
    K0_NULL,
    alpha_from_angles,
    decompose_little_group,
    final_polar_angle,
    ibr_generators,
    ibr_matrix,
    ibr_physical_factors,
    isoenergetic_velocity,
    vector_generators,
)
from photonamp.lorentz import (
    AxisAngle,
    boost_matrix,
    metric_residual,
    rotation_matrix,
    rotation_z,
)

alphas = st.tuples(st.floats(-3, 3), st.floats(-3, 3)).map(np.array)


class TestIsoenergeticVelocity:
    def test_transverse_boost_vanishes(self):
        assert_allclose(isoenergetic_velocity(np.pi / 2, 0.3), [0, 0, 0], atol=1e-15)

    def test_forward_cone_value(self):
        v = isoenergetic_velocity(np.pi / 4, 0.0)
        s = np.sqrt(0.5)
        speed = -2.0 * s / 1.5  # -0.94281 along (s, 0, s)
        assert_allclose(v, speed * np.array([s, 0, s]), atol=1e-12)
        assert np.linalg.norm(v) == pytest.approx(0.94281, abs=1e-5)

    def test_preserves_reference_energy(self):
        # near the poles the boost turns luminal and double precision loses
        # digits as gamma^2; the tight bound holds away from them
        rng = np.random.default_rng(2)
        for _ in range(300):
            theta = rng.uniform(0.35, np.pi - 0.35)
            phi = rng.uniform(0, 2 * np.pi)
            out = boost_matrix(isoenergetic_velocity(theta, phi)) @ K0_NULL
            assert abs(out[0] - 1.0) <= 1e-12
        for _ in range(100):
            theta = rng.uniform(0.05, np.pi - 0.05)
            phi = rng.uniform(0, 2 * np.pi)
            out = boost_matrix(isoenergetic_velocity(theta, phi)) @ K0_NULL
            assert abs(out[0] - 1.0) <= 1e-10

    @pytest.mark.parametrize("theta", [0.0, np.pi])
    def test_poles_rejected(self, theta):
        with pytest.raises(ValueError, match="degenerate"):
            isoenergetic_velocity(theta, 0.0)


class TestFinalPolarAngle:
    def test_transverse_gives_zero(self):
        assert final_polar_angle(np.pi / 2) == pytest.approx(0.0)

    def test_backward_cone(self):
        assert final_polar_angle(3 * np.pi / 4) == pytest.approx(np.pi / 2)

    def test_matches_boosted_direction(self):
        # signed polar angle: negative values point at azimuth phi + pi
        rng = np.random.default_rng(4)
        for _ in range(200):
            theta = rng.uniform(0.05, np.pi - 0.05)
            phi = rng.uniform(0, 2 * np.pi)
            out = boost_matrix(isoenergetic_velocity(theta, phi)) @ K0_NULL
            psi0 = final_polar_angle(theta)
            expected = np.array(
                [
                    np.sin(psi0) * np.cos(phi),
                    np.sin(psi0) * np.sin(phi),
                    np.cos(psi0),
                ]
            )
            assert np.max(np.abs(out[1:] - expected)) <= 1e-10


class TestAlphaFromAngles:
    def test_transverse_is_zero(self):
        assert_allclose(alpha_from_angles(np.pi / 2, 1.0), [0, 0], atol=1e-15)

    def test_forward_cone(self):
        assert_allclose(alpha_from_angles(np.pi / 4, 0.0), [-2, 0], atol=1e-12)

    def test_backward_cone(self):
        assert_allclose(alpha_from_angles(3 * np.pi / 4, np.pi / 2), [0, 2], atol=1e-12)


class TestIbrMatrix:
    def test_zero_parameter_identity(self):
        assert_allclose(ibr_matrix([0, 0]), np.eye(4), atol=0)

    def test_unit_x_parameter(self):
        expected = np.array(
            [
                [1.5, 1, 0, -0.5],
                [1, 1, 0, -1],
                [0, 0, 1, 0],
                [0.5, 1, 0, 0.5],
            ]
        )
        assert_allclose(ibr_matrix([1, 0]), expected, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(alphas)
    def test_fixes_reference_and_preserves_metric(self, alpha):
        m = ibr_matrix(alpha)
        assert np.max(np.abs(m @ K0_NULL - K0_NULL)) <= 1e-12
        assert metric_residual(m) <= 1e-12

    def test_physical_factorization_matches_closed_form(self):
        # pole neighborhoods excluded: the isoenergetic boost turns luminal there
        for theta in np.linspace(0.35, np.pi - 0.35, 29):
            for phi in np.linspace(0, 2 * np.pi, 17):
                rot, boost = ibr_physical_factors(theta, phi)
                closed = ibr_matrix(alpha_from_angles(theta, phi))
                assert np.max(np.abs(rot @ boost - closed)) <= 1e-12


class TestGroupLaws:
    @settings(max_examples=60, deadline=None)
    @given(alphas, alphas)
    def test_addition_law(self, a1, a2):
        lhs = ibr_matrix(a1) @ ibr_matrix(a2)
        assert np.max(np.abs(lhs - ibr_matrix(a1 + a2))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(alphas, st.floats(-np.pi, np.pi))
    def test_z_rotation_conjugation(self, alpha, gamma):
        rz = rotation_z(gamma)
        rot2 = np.array(
            [[np.cos(gamma), -np.sin(gamma)], [np.sin(gamma), np.cos(gamma)]]
        )
        lhs = rz @ ibr_matrix(alpha) @ rz.T
        assert np.max(np.abs(lhs - ibr_matrix(rot2 @ alpha))) <= 1e-12


class TestDecompose:
    def test_identity(self):
        el = decompose_little_group(np.eye(4))
        assert el.gamma == pytest.approx(0.0)
        assert_allclose(el.alpha, [0, 0], atol=1e-15)

    def test_round_trip(self):
        m = rotation_z(0.3) @ ibr_matrix([0.5, -0.2])
        el = decompose_little_group(m)
        assert el.gamma == pytest.approx(0.3, abs=1e-12)
        assert_allclose(el.alpha, [0.5, -0.2], atol=1e-12)
        assert np.max(np.abs(el.matrix() - m)) <= 1e-10

    def test_product_of_abelian_elements(self):
        a1, a2 = np.array([0.7, -0.3]), np.array([-0.2, 1.1])
        el = decompose_little_group(ibr_matrix(a1) @ ibr_matrix(a2))
        assert el.gamma == pytest.approx(0.0, abs=1e-12)
        assert_allclose(el.alpha, a1 + a2, atol=1e-12)

    def test_random_round_trips(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            gamma = rng.uniform(-np.pi, np.pi)
            alpha = rng.normal(scale=1.5, size=2)
            m = rotation_z(gamma) @ ibr_matrix(alpha)
            el = decompose_little_group(m)
            assert np.max(np.abs(el.matrix() - m)) <= 1e-10

    def test_rejects_non_stabilizer(self):
        with pytest.raises(ValueError, match="little-group"):
            decompose_little_group(boost_matrix([0, 0, 0.5]))


class TestGenerators:
    def test_commute_exactly(self):
        lx, ly = ibr_generators()
        assert np.array_equal(lx @ ly - ly @ lx, np.zeros((4, 4)))

    def test_nilpotent_cubes(self):
        lx, ly = ibr_generators()
        assert np.array_equal(lx @ lx @ lx, np.zeros((4, 4)))
        assert np.array_equal(ly @ ly @ ly, np.zeros((4, 4)))

    def test_exponential_matches_closed_form(self):
        lx, ly = ibr_generators()
        rng = np.random.default_rng(12)
        for _ in range(100):
            alpha = rng.normal(scale=1.5, size=2)
            oracle = expm(alpha[0] * lx + alpha[1] * ly)
            assert np.max(np.abs(oracle - ibr_matrix(alpha))) <= 1e-10

    def test_unit_x_exponential(self):
        lx, _ = ibr_generators()
        assert np.max(np.abs(expm(lx) - ibr_matrix([1, 0]))) <= 1e-12

    def test_built_from_boost_and_rotation_generators(self):
        J, K = vector_generators()
        lx, ly = ibr_generators()
        assert np.array_equal(lx, K[0] - J[1])
        assert np.array_equal(ly, K[1] + J[0])
        # conventions: exp of the generators reproduces the finite elements
        angle, rapidity = 0.6, 0.8
        assert_allclose(
            expm(angle * J[2]), rotation_matrix(AxisAngle([0, 0, 1], angle)), atol=1e-12
        )
        assert_allclose(
            expm(rapidity * K[2]), boost_matrix([0, 0, np.tanh(rapidity)]), atol=1e-12
        )


class TestStacks:
    @pytest.mark.parametrize("batch", [(), (6,), (2, 6)])
    def test_output_shapes(self, batch):
        rng = np.random.default_rng(31)
        alpha = rng.normal(scale=1.5, size=batch + (2,))
        assert ibr_matrix(alpha).shape == batch + (4, 4)
        theta = rng.uniform(0.3, 2.8, size=batch)
        phi = rng.uniform(0.0, 2 * np.pi, size=batch)
        rot, boost = ibr_physical_factors(theta, phi)
        assert rot.shape == boost.shape == batch + (4, 4)
        el = decompose_little_group(rotation_z(phi) @ ibr_matrix(alpha))
        assert np.shape(el.gamma) == batch and el.alpha.shape == batch + (2,)

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(32)
        alpha = rng.normal(scale=1.5, size=(30, 2))
        assert np.array_equal(ibr_matrix(alpha), [ibr_matrix(a) for a in alpha])
        theta, phi = rng.uniform(0.3, 2.8, size=30), rng.uniform(0.0, 2 * np.pi, size=30)
        rot, boost = ibr_physical_factors(theta, phi)
        for i in range(30):
            one_rot, one_boost = ibr_physical_factors(theta[i], phi[i])
            assert np.max(np.abs(rot[i] - one_rot)) <= 1e-15
            assert np.max(np.abs(boost[i] - one_boost)) <= 1e-15
        gamma = rng.uniform(-np.pi, np.pi, size=30)
        M = rotation_z(gamma) @ ibr_matrix(alpha)
        el = decompose_little_group(M)
        for i in range(30):
            one = decompose_little_group(M[i])
            assert abs(el.gamma[i] - one.gamma) <= 1e-15
            assert np.max(np.abs(el.alpha[i] - one.alpha)) <= 1e-15
        singles = [decompose_little_group(one) for one in M]
        assert np.array_equal(el.gamma, [one.gamma for one in singles])
        assert np.array_equal(el.alpha, [one.alpha for one in singles])
        assert np.array_equal(
            alpha_from_angles(theta, phi), [alpha_from_angles(t, p) for t, p in zip(theta, phi)]
        )

    def test_bad_row_is_named(self):
        M = ibr_matrix(np.zeros((4, 2)))
        M[2] = boost_matrix([0.0, 0.0, 0.5])
        with pytest.raises(ValueError, match=r"not a little-group element of k0 \(row 2\)"):
            decompose_little_group(M)
        with pytest.raises(ValueError, match=r"degenerate isoenergetic direction \(row 1\)"):
            ibr_physical_factors([1.0, np.pi, 2.0], 0.3)
