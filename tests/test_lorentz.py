import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

from photonamp.lorentz import (
    AxisAngle,
    azimuth_phase,
    beta_from_rapidity,
    boost_matrix,
    compose_axis_angle,
    direction_spinor,
    four_momentum,
    is_lightlike,
    is_proper_orthochronous,
    is_rotation,
    lorentz_inverse,
    metric_residual,
    minkowski,
    polar_azimuth,
    rapidity_from_beta,
    rotation3,
    rotation_matrix,
    rotation_y,
    rotation_z,
    sl2c_boost,
    standard_boost_z,
    standard_lorentz,
    standard_rotation,
    su2_matrix,
)
from photonamp.quadrature import BoxQuadrature

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


@st.composite
def axis_angles(draw):
    vec = draw(
        st.tuples(
            st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
        ).filter(lambda t: np.linalg.norm(t) > 1e-3)
    )
    angle = draw(st.floats(-np.pi, np.pi))
    return AxisAngle(np.array(vec), angle)


@st.composite
def subluminal_betas(draw):
    direction = draw(
        st.tuples(
            st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)
        ).filter(lambda t: np.linalg.norm(t) > 1e-3)
    )
    speed = draw(st.floats(0, 0.99))
    d = np.array(direction)
    return speed * d / np.linalg.norm(d)


def random_lightlike(rng):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    omega = rng.uniform(0.3, 3.0)
    return np.array([omega, *(omega * d)])


class TestBoost:
    def test_zero_velocity_is_identity(self):
        assert_allclose(boost_matrix([0, 0, 0]), np.eye(4), atol=0)

    def test_textbook_z_boost(self):
        # gamma = 1.25 for beta = 0.6
        out = boost_matrix([0, 0, 0.6]) @ np.array([1.0, 0, 0, 0])
        assert_allclose(out, [1.25, 0, 0, 0.75], atol=1e-15)

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError, match="superluminal"):
            boost_matrix([0, 0, 1.0])

    @settings(max_examples=60, deadline=None)
    @given(subluminal_betas())
    def test_metric_preserved(self, beta):
        assert metric_residual(boost_matrix(beta)) <= 1e-12

    def test_inverse_via_metric(self):
        L = boost_matrix([0.3, -0.2, 0.5])
        assert_allclose(lorentz_inverse(L) @ L, np.eye(4), atol=1e-13)


class TestRotation:
    def test_zero_angle_is_identity(self):
        assert_allclose(rotation_matrix(AxisAngle([0, 0, 1], 0.0)), np.eye(4), atol=0)

    def test_quarter_turn_about_z(self):
        out = rotation_z(np.pi / 2) @ np.array([0.0, 1.0, 0.0, 0.0])
        assert_allclose(out, [0, 0, 1, 0], atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(axis_angles())
    def test_spatial_block_orthogonal(self, r):
        R = rotation_matrix(r)
        block = R[1:, 1:]
        assert np.max(np.abs(block.T @ block - np.eye(3))) <= 1e-12
        assert abs(np.linalg.det(block) - 1.0) <= 1e-12
        assert_allclose(R[0], [1, 0, 0, 0], atol=0)

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError):
            AxisAngle([0, 0, 0], 1.0)


class TestStandardRotation:
    def test_north_pole_is_identity(self):
        assert_allclose(standard_rotation([0, 0, 1]), np.eye(4), atol=1e-15)

    def test_x_direction(self):
        out = standard_rotation([1, 0, 0]) @ np.array([0.0, 0, 0, 1])
        assert_allclose(out, [0, 1, 0, 0], atol=1e-15)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            standard_rotation([0, 0, 0])

    def test_carries_z_to_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            out = standard_rotation(d) @ np.array([0.0, 0, 0, 1])
            assert_allclose(out, [0, *d], atol=1e-13)


class TestStandardBoost:
    def test_equal_energies_identity(self):
        assert_allclose(standard_boost_z(1.0, 1.0), np.eye(4), atol=0)

    def test_doubling_energy(self):
        L = standard_boost_z(2.0, 1.0)
        # speed (4-1)/(4+1) = 0.6 read off the matrix
        assert_allclose(L[0, 3] / L[0, 0], 0.6, atol=1e-15)
        assert_allclose(L @ np.array([1.0, 0, 0, 1]), [2, 0, 0, 2], atol=1e-14)

    def test_deboost_negative_speed(self):
        L = standard_boost_z(0.5, 1.0)
        assert_allclose(L[0, 3] / L[0, 0], -0.6, atol=1e-15)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            standard_boost_z(-1.0, 1.0)
        with pytest.raises(ValueError):
            standard_boost_z(1.0, 0.0)


class TestStandardLorentz:
    def test_reference_momentum_identity(self):
        assert_allclose(standard_lorentz([1.0, 0, 0, 1], 1.0), np.eye(4), atol=1e-15)

    def test_x_direction_example(self):
        L = standard_lorentz([2.0, 2.0, 0, 0], 1.0)
        assert_allclose(L @ np.array([1.0, 0, 0, 1]), [2, 2, 0, 0], atol=1e-13)

    def test_defining_property(self):
        rng = np.random.default_rng(11)
        k0 = np.array([1.0, 0, 0, 1])
        for _ in range(1000):
            k = random_lightlike(rng)
            out = standard_lorentz(k, 1.0) @ k0
            assert np.max(np.abs(out - k)) <= 1e-12 * k[0]

    def test_timelike_rejected(self):
        with pytest.raises(ValueError, match="lightlike"):
            standard_lorentz([1.0, 0, 0, 0.5], 1.0)


class TestSu2:
    def test_identity(self):
        assert_allclose(su2_matrix(AxisAngle([0, 0, 1], 0.0)), np.eye(2), atol=0)

    def test_z_rotation_phases(self):
        gamma = 0.7
        u = su2_matrix(AxisAngle([0, 0, 1], gamma))
        expected = np.diag([np.exp(-0.5j * gamma), np.exp(0.5j * gamma)])
        assert_allclose(u, expected, atol=1e-15)

    def test_y_rotation_rows(self):
        theta = 1.1
        u = su2_matrix(AxisAngle([0, 1, 0], theta))
        c, s = np.cos(theta / 2), np.sin(theta / 2)
        assert_allclose(u, [[c, -s], [s, c]], atol=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(axis_angles())
    def test_matches_matrix_exponential(self, r):
        sigma_n = sum(n * p for n, p in zip(r.axis, PAULI))
        oracle = expm(-0.5j * r.angle * sigma_n)
        assert np.max(np.abs(su2_matrix(r) - oracle)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(axis_angles())
    def test_unitary_unit_determinant(self, r):
        u = su2_matrix(r)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12
        assert abs(np.linalg.det(u) - 1.0) <= 1e-12


def test_rotation_composition_through_double_cover():
    rng = np.random.default_rng(5)
    for _ in range(200):
        r1 = AxisAngle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        r2 = AxisAngle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
        direct = rotation_matrix(r1) @ rotation_matrix(r2)
        composed = rotation_matrix(compose_axis_angle(r1, r2))
        assert np.max(np.abs(direct - composed)) <= 1e-10


def test_metric_preserved_by_random_products():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = np.eye(4)
        for _ in range(rng.integers(1, 9)):
            if rng.random() < 0.5:
                m = m @ rotation_matrix(
                    AxisAngle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
                )
            else:
                d = rng.normal(size=3)
                d /= np.linalg.norm(d)
                m = m @ boost_matrix(np.tanh(rng.uniform(0, 0.8)) * d)
        assert metric_residual(m) <= 1e-12
        assert abs(np.linalg.det(m) - 1.0) <= 1e-12


def test_minkowski_signature():
    assert minkowski([1, 0, 0, 0], [1, 0, 0, 0]) == 1.0
    assert minkowski([0, 1, 0, 0], [0, 1, 0, 0]) == -1.0
    assert minkowski([1, 1, 0, 0], [1, 1, 0, 0]) == 0.0


def test_polar_azimuth_pole_convention():
    theta, phi = polar_azimuth([0, 0, 1])
    assert theta == 0.0 and phi == 0.0
    theta, phi = polar_azimuth([0, 0, -2.0])
    assert theta == pytest.approx(np.pi) and phi == 0.0
    theta, phi = polar_azimuth([1, 1, 0])
    assert theta == pytest.approx(np.pi / 2)
    assert phi == pytest.approx(np.pi / 4)


def test_is_rotation_detects_boosts():
    assert is_rotation(rotation_y(0.4))
    assert not is_rotation(boost_matrix([0, 0, 0.4]))


def test_axis_that_is_not_a_3_vector_is_refused():
    with pytest.raises(ValueError, match="rotation axis must be a nonzero 3-vector"):
        AxisAngle([1.0, 0.0], 0.1)
    with pytest.raises(ValueError, match="rotation axis must be a nonzero 3-vector"):
        AxisAngle(1.0, 0.1)


@pytest.mark.parametrize("shape", [(), (3,), (4, 3), (3, 4), (4,)])
def test_predicates_of_a_wrongly_shaped_input_are_false(shape):
    bad = np.ones(shape)
    assert is_rotation(bad) is False
    assert is_proper_orthochronous(bad) is False
    if shape[-1:] != (4,):
        assert is_lightlike(bad) is False


# -- stacks -------------------------------------------------------------------

BATCHES = [(), (5,), (2, 5)]


def random_units(rng, batch):
    v = rng.normal(size=batch + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_lightlikes(rng, batch):
    omega = rng.uniform(0.3, 3.0, size=batch + (1,))
    return np.concatenate([omega, omega * random_units(rng, batch)], axis=-1)


class TestStacks:
    @pytest.mark.parametrize("batch", BATCHES)
    def test_output_shapes(self, batch):
        rng = np.random.default_rng(21)
        r = AxisAngle(rng.normal(size=batch + (3,)), rng.uniform(-np.pi, np.pi, size=batch))
        assert rotation3(r).shape == batch + (3, 3)
        assert rotation_matrix(r).shape == batch + (4, 4)
        assert su2_matrix(r).shape == batch + (2, 2)
        assert rotation_z(r.angle).shape == batch + (4, 4)
        B = boost_matrix(0.6 * random_units(rng, batch))
        assert B.shape == batch + (4, 4)
        assert standard_rotation(r.axis).shape == batch + (4, 4)
        k = random_lightlikes(rng, batch)
        assert standard_boost_z(k[..., 0], 1.0).shape == batch + (4, 4)
        assert standard_lorentz(k, 1.0).shape == batch + (4, 4)
        assert azimuth_phase(k[..., 1:]).shape == batch
        for value in (*polar_azimuth(k[..., 1:]), metric_residual(B), is_rotation(B)):
            assert np.shape(value) == batch

    def test_single_inputs_keep_python_scalars(self):
        B = boost_matrix([0.1, 0.2, 0.3])
        assert type(metric_residual(B)) is float
        assert type(is_rotation(B)) is bool
        assert all(type(x) is float for x in polar_azimuth([1.0, 2.0, 3.0]))
        assert type(AxisAngle([0, 0, 1], 0.5).angle) is float

    def test_elementwise_builders_equal_single_calls(self):
        rng = np.random.default_rng(22)
        axes, angles = rng.normal(size=(40, 3)), rng.uniform(-np.pi, np.pi, size=40)
        r = AxisAngle(axes, angles)
        singles = [AxisAngle(a, t) for a, t in zip(axes, angles)]
        for build in (rotation3, rotation_matrix, su2_matrix):
            assert np.array_equal(build(r), [build(one) for one in singles])
        betas = rng.uniform(0.0, 0.95, size=(40, 1)) * random_units(rng, (40,))
        assert np.array_equal(boost_matrix(betas), [boost_matrix(b) for b in betas])
        # a rest row and two rows on the polar axis take the special branches; each
        # stack also goes in column-major, so every row is read through strides
        betas = np.vstack([np.zeros(3), betas])
        dirs = rng.normal(size=(40, 3))
        dirs[:2, :2] = 0.0
        for stack in (dirs, np.asfortranarray(dirs)):
            theta, phi = polar_azimuth(stack)
            assert np.array_equal(np.transpose([theta, phi]), [polar_azimuth(d) for d in stack])
        zetas = rapidity_from_beta(betas)
        for build, inputs in (
            (rapidity_from_beta, betas), (beta_from_rapidity, zetas), (sl2c_boost, zetas)
        ):
            for stack in (inputs, np.asfortranarray(inputs)):
                assert np.array_equal(build(stack), [build(one) for one in stack])
        omegas = rng.uniform(0.3, 3.0, size=40)
        assert np.array_equal(standard_boost_z(omegas, 1.3), [standard_boost_z(w, 1.3) for w in omegas])

    @pytest.mark.parametrize("batch", [(2,), (2, 3)])
    def test_composed_axis_angle_equals_single_calls(self, batch):
        rng = np.random.default_rng(24)
        axes = rng.normal(size=(2,) + batch + (3,))
        angles = rng.uniform(-np.pi, np.pi, size=(2,) + batch)
        # the first row composes a rotation with its inverse: the identity branch
        axes[1, 0], angles[1, 0] = axes[0, 0], -angles[0, 0]
        composed = compose_axis_angle(AxisAngle(axes[0], angles[0]), AxisAngle(axes[1], angles[1]))
        singles = [
            compose_axis_angle(AxisAngle(axes[0][i], angles[0][i]), AxisAngle(axes[1][i], angles[1][i]))
            for i in np.ndindex(batch)
        ]
        assert np.array_equal(composed.axis, np.reshape([one.axis for one in singles], batch + (3,)))
        assert np.array_equal(composed.angle, np.reshape([one.angle for one in singles], batch))
        assert singles[0].angle == 0.0

    def test_products_match_single_calls(self):
        rng = np.random.default_rng(23)
        dirs, k = rng.normal(size=(40, 3)), random_lightlikes(rng, (40,))
        assert np.max(np.abs(
            standard_rotation(dirs) - [standard_rotation(d) for d in dirs]
        )) <= 1e-15
        assert np.max(np.abs(
            standard_lorentz(k, 1.3) - [standard_lorentz(one, 1.3) for one in k]
        )) <= 1e-15
        L = boost_matrix(0.7 * random_units(rng, (40,))) @ rotation_matrix(
            AxisAngle(dirs, rng.uniform(-np.pi, np.pi, size=40))
        )
        assert np.max(np.abs(metric_residual(L) - [metric_residual(one) for one in L])) <= 1e-15

    def test_zero_velocity_rows_are_identities(self):
        betas = np.array([[0.3, 0.0, 0.1], [0.0, 0.0, 0.0], [-0.2, 0.5, 0.0], [0.0, -0.0, 0.0]])
        stack = boost_matrix(betas)
        assert np.array_equal(stack[1], np.eye(4)) and np.array_equal(stack[3], np.eye(4))
        assert np.array_equal(stack[[0, 2]], [boost_matrix(betas[0]), boost_matrix(betas[2])])

    def test_bad_row_is_named(self):
        axes = np.ones((6, 3))
        axes[3] = 0.0
        with pytest.raises(ValueError, match=r"nonzero 3-vector \(row 3\)"):
            AxisAngle(axes, np.zeros(6))
        betas = np.zeros((2, 5, 3))
        betas[1, 4] = [0.0, 0.8, 0.8]
        with pytest.raises(ValueError, match=r"superluminal boost \(row \(1, 4\)\)"):
            boost_matrix(betas)
        k = np.tile([1.0, 0.0, 0.0, 1.0], (4, 1))
        k[2, 3] = 0.5
        with pytest.raises(ValueError, match=r"not lightlike with positive energy \(row 2\)"):
            standard_lorentz(k, 1.0)
        with pytest.raises(ValueError, match=r"energies must be positive \(row 1\)"):
            standard_boost_z([1.0, -2.0, 0.0], 1.0)

    def test_single_bad_input_message_is_unchanged(self):
        with pytest.raises(ValueError, match=r"^superluminal boost$"):
            boost_matrix([0.0, 0.0, 1.0])
        with pytest.raises(ValueError, match=r"^rotation axis must be a nonzero 3-vector$"):
            AxisAngle([0.0, 0.0, 0.0], 1.0)


def test_azimuth_phase_fixes_only_the_exact_axis():
    assert azimuth_phase([0.0, 0.0, -1.0]) == 1.0
    tiny = 1e-16 * np.array([np.cos(1.0), np.sin(1.0), 0.0]) + [0.0, 0.0, -1.0]
    assert azimuth_phase(tiny) == pytest.approx(np.exp(1j), abs=1e-15)
    assert polar_azimuth(tiny)[1] == pytest.approx(1.0, abs=1e-15)


def near_pole(theta):
    """|k| = 2 at polar angle ``theta``, azimuth along (0.6, 0.8)."""
    return 2.0 * np.array([0.6 * np.sin(theta), 0.8 * np.sin(theta), np.cos(theta)])


@pytest.mark.parametrize("theta", [1e-8, np.pi - 1e-8])
def test_standard_rotation_keeps_full_precision_next_to_the_poles(theta):
    k = near_pole(theta)
    assert np.max(np.abs(standard_rotation(k)[1:, 3] - k / 2.0)) <= 4e-15


@pytest.mark.parametrize("theta", [1e-8, 1.0, np.pi - 1e-8])
def test_direction_spinor_keeps_relative_precision_next_to_the_poles(theta):
    c, sigma = direction_spinor(near_pole(theta))
    assert abs(c - np.cos(0.5 * theta)) <= 4e-16 * np.cos(0.5 * theta)
    assert abs(sigma - np.sin(0.5 * theta) * (0.6 + 0.8j)) <= 4e-16 * np.sin(0.5 * theta)


def test_direction_spinor_on_the_axis_and_at_zero():
    for v, expected in (([0.0, 0.0, 2.0], (1.0, 0.0)), ([0.0, 0.0, -0.3], (0.0, 1.0)),
                        ([0.0, 0.0, 0.0], (1.0, 0.0))):
        c, sigma = direction_spinor(v)
        assert (c, sigma) == expected
        assert type(c) is float and type(sigma) is complex
    stack = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -0.3], [0.0, 0.0, 0.0], [1.0, 2.0, -3.0]])
    c, sigma = direction_spinor(stack)
    assert np.array_equal(c[:3], [1.0, 0.0, 1.0]) and np.array_equal(sigma[:3], [0.0, 1.0, 0.0])
    assert (c[3], sigma[3]) == direction_spinor(stack[3])


def test_four_momentum_energy_has_the_bits_of_linalg_norm():
    pts = BoxQuadrature(np.array([0.1, -0.4, 1.0]), np.array([0.5, 0.3, 0.8]), 48).points()
    assert np.array_equal(four_momentum(pts)[:, 0], np.linalg.norm(pts, axis=-1))
