import numpy as np
import pytest
from numpy.testing import assert_allclose

from photonamp import verify
from photonamp.lorentz import (
    AxisAngle,
    beta_from_rapidity,
    boost_matrix,
    rotation_matrix,
    rotation_z,
    sl2c_boost,
    su2_matrix,
)
from photonamp.wigner import (
    boost_half_phase,
    half_phase,
    rotation_half_phase,
    wigner_boost,
    wigner_phase_boost_closed,
    wigner_phase_rotation_closed,
    wigner_rotation,
)


NORTH = np.array([1.0, 0.0, 0.0, 1.0])
SOUTH = np.array([1.0, 0.0, 0.0, -1.0])


def random_lightlike(rng):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    omega = rng.uniform(0.3, 3.0)
    return np.array([omega, *(omega * d)])


def random_axis_angle(rng):
    return AxisAngle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))


class TestRotationAngle:
    def test_identity(self):
        d = np.array([1.2, -0.8, 1.2])
        d /= np.linalg.norm(d)
        k = np.array([2.0, *(2.0 * d)])
        data = wigner_rotation(np.eye(4), k)
        assert data.w == pytest.approx(0.0)
        assert data.alpha == pytest.approx([0.0, 0.0])

    def test_z_rotation_passes_through(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k = random_lightlike(rng)
            gamma = rng.uniform(-np.pi, np.pi)
            data = wigner_rotation(rotation_z(gamma), k)
            assert abs(np.exp(-1j * data.w) - np.exp(-1j * gamma)) <= 1e-12

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            data = wigner_rotation(
                rotation_matrix(random_axis_angle(rng)), random_lightlike(rng)
            )
            assert data.residual <= 1e-10

    def test_boost_input_rejected(self):
        with pytest.raises(ValueError, match="rotation"):
            wigner_rotation(boost_matrix([0, 0, 0.5]), np.array([1.0, 0, 0, 1]))

    def test_rotation_about_momentum_gives_the_angle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = random_lightlike(rng)
            angle = rng.uniform(-np.pi, np.pi)
            data = wigner_rotation(rotation_matrix(AxisAngle(k[1:], angle)), k)
            assert abs(np.exp(-1j * data.w) - np.exp(-1j * angle)) <= 1e-9


class TestBoostAngle:
    def test_identity(self):
        data = wigner_boost(np.eye(4), np.array([1.5, 0.9, 0, 1.2]))
        assert data.w == pytest.approx(0.0)
        assert_allclose(data.alpha, [0, 0], atol=1e-12)

    def test_z_boost_has_zero_angle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            k = random_lightlike(rng)
            data = wigner_boost(boost_matrix([0, 0, 0.7]), k)
            assert abs(data.w) <= 1e-10

    def test_mixed_transformations_accepted(self):
        # products of boosts and rotations go through the general decomposition
        m = rotation_z(0.4) @ boost_matrix([0.2, 0, 0.3])
        data = wigner_boost(m, np.array([1.0, 0.6, 0, 0.8]))
        assert data.residual <= 1e-10

    def test_non_lorentz_rejected(self):
        with pytest.raises(ValueError):
            wigner_boost(2.0 * np.eye(4), np.array([1.0, 0, 0, 1]))

    def test_any_photon_energy(self):
        # the canonical frames sit at the photon's own energy: w is the same at
        # every energy, and alpha, reported at 1 eV, scales as 1/k^0
        energies = np.array([1e-6, 1e-3, 1.0, 1e5, 1e8])
        direction = np.array([1.0, np.sin(1.0) * np.cos(0.3), np.sin(1.0) * np.sin(0.3), np.cos(1.0)])
        data = wigner_boost(boost_matrix([0.3, -0.2, 0.6]), energies[:, None] * direction)
        assert np.max(np.abs(data.w - data.w[2])) <= 1e-12
        assert np.max(np.abs(data.alpha * energies[:, None] - data.alpha[2])) <= 1e-12
        assert np.max(data.residual) <= 1e-10


class TestClosedForms:
    def test_identity_rotation_phase(self):
        k = np.array([1.0, 0.3, 0.4, np.sqrt(1 - 0.25)])
        assert wigner_phase_rotation_closed(
            AxisAngle([0, 0, 1], 0.0), k
        ) == pytest.approx(1.0)

    def test_z_rotation_half_phase(self):
        gamma = 0.9
        k = np.array([1.0, 0.6, 0, 0.8])
        phase = wigner_phase_rotation_closed(AxisAngle([0, 0, 1], gamma), k)
        assert phase == pytest.approx(np.exp(-0.5j * gamma))

    def test_zero_rapidity(self):
        k = np.array([1.0, 0.6, 0, 0.8])
        assert wigner_phase_boost_closed([0, 0, 0], k) == pytest.approx(1.0)

    def test_z_boost_real_positive(self):
        k = np.array([1.0, 0.6, 0, 0.8])
        assert wigner_phase_boost_closed([0, 0, 1.3], k) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "axis, angle, k",
        [
            ([1, 0, 0], np.pi, NORTH),
            ([0, 1, 0], np.pi, NORTH),
            ([1, 1, 0], np.pi, NORTH),
            ([0, 0, 1], 0.5, SOUTH),
            ([0, 0, 1], 0.0, SOUTH),
            ([0, 0, 1], -2.0, SOUTH),
            ([1, 0, 0], np.pi, SOUTH),
        ],
        ids=["Rx(pi)+z", "Ry(pi)+z", "R110(pi)+z", "Rz(0.5)-z", "Rz(0)-z", "Rz(-2)-z", "Rx(pi)-z"],
    )
    def test_rotation_on_the_polar_axis_matches_the_matrix_route(self, axis, angle, k):
        # k lies exactly on the polar axis, and its image on it or next to it;
        # both routes fix phi := 0 on the axis
        r = AxisAngle(axis, angle)
        closed = wigner_phase_rotation_closed(r, k)
        assert abs(closed**2 - wigner_rotation(rotation_matrix(r), k).phase(1)) <= 1e-15

    @pytest.mark.parametrize("rapidity", [0.7, -1.1, 0.0])
    def test_z_boost_at_the_south_pole_matches_the_matrix_route(self, rapidity):
        zeta = np.array([0.0, 0.0, rapidity])
        closed = wigner_phase_boost_closed(zeta, SOUTH)
        data = wigner_boost(boost_matrix(beta_from_rapidity(zeta)), SOUTH)
        assert abs(closed**2 - data.phase(1)) <= 1e-15

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(4)
        r = random_axis_angle(rng)
        zeta = rng.normal(size=3)
        ks = np.array([random_lightlike(rng) for _ in range(40)])
        rot_vec = rotation_half_phase(r, ks[:, 1:])
        boost_vec = boost_half_phase(zeta, ks[:, 1:])
        for i, k in enumerate(ks):
            assert rot_vec[i] == pytest.approx(wigner_phase_rotation_closed(r, k))
            assert boost_vec[i] == pytest.approx(wigner_phase_boost_closed(zeta, k))


class TestDualPath:
    def test_rotations(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(500):
            r = random_axis_angle(rng)
            k = random_lightlike(rng)
            data = wigner_rotation(rotation_matrix(r), k)
            closed = wigner_phase_rotation_closed(r, k)
            worst = max(worst, abs(closed**2 - np.exp(-1j * data.w)))
        assert worst <= 1e-9

    def test_boosts(self):
        # energies of 0.1 to 10 and rapidities up to 4.5, stacked. The residual
        # is rounding times about |W|^2, and |W| grows as |alpha|^2 at the
        # photon's energy: in larger samples of this box, de-boosts to
        # omega'/omega near 0.05 reach 3e-10
        rng = np.random.default_rng(6)
        d = rng.normal(size=(500, 3))
        zeta = rng.uniform(0.0, 4.5, size=(500, 1)) * d / np.linalg.norm(d, axis=-1, keepdims=True)
        e = rng.normal(size=(500, 3))
        omega = rng.uniform(0.1, 10.0, size=(500, 1))
        k = np.concatenate([omega, omega * e / np.linalg.norm(e, axis=-1, keepdims=True)], axis=-1)
        data = wigner_boost(boost_matrix(beta_from_rapidity(zeta)), k)
        closed = wigner_phase_boost_closed(zeta, k)
        assert np.max(np.abs(closed**2 - np.exp(-1j * data.w))) <= 1e-11
        assert np.max(data.residual) <= 1e-10


def test_phase_cocycle_under_composition():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        r1, r2 = random_axis_angle(rng), random_axis_angle(rng)
        k = random_lightlike(rng)
        R1, R2 = rotation_matrix(r1), rotation_matrix(r2)
        w_total = wigner_rotation(R2 @ R1, k).w
        w1 = wigner_rotation(R1, k).w
        w2 = wigner_rotation(R2, R1 @ k).w
        worst = max(
            worst, abs(np.exp(-1j * w_total) - np.exp(-1j * w2) * np.exp(-1j * w1))
        )
    assert worst <= 1e-9


def test_half_phase_squares_to_state_phase():
    rng = np.random.default_rng(8)
    for _ in range(50):
        data = wigner_rotation(
            rotation_matrix(random_axis_angle(rng)), random_lightlike(rng)
        )
        assert abs(data.phase_half) == pytest.approx(1.0, abs=1e-12)
        assert data.phase_half**2 == pytest.approx(data.phase(1))
        assert data.phase(-1) == pytest.approx(np.conj(data.phase(1)))


# -- stacks -------------------------------------------------------------------


def random_lightlikes(rng, batch):
    d = rng.normal(size=batch + (3,))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    omega = rng.uniform(0.3, 3.0, size=batch + (1,))
    return np.concatenate([omega, omega * d], axis=-1)


def random_boosts(rng, batch):
    zeta = rng.uniform(0.0, 2.0, size=batch + (1,)) * rng.normal(size=batch + (3,))
    return boost_matrix(beta_from_rapidity(zeta)), zeta


class TestStacks:
    @pytest.mark.parametrize("batch", [(), (7,), (2, 7)])
    def test_output_shapes(self, batch):
        rng = np.random.default_rng(41)
        r = AxisAngle(rng.normal(size=batch + (3,)), rng.uniform(-np.pi, np.pi, size=batch))
        k = random_lightlikes(rng, batch)
        Lam, zeta = random_boosts(rng, batch)
        for data in (wigner_rotation(rotation_matrix(r), k), wigner_boost(Lam, k)):
            for value in (data.w, data.phase_half, data.residual, data.phase(1)):
                assert np.shape(value) == batch
            assert np.shape(data.alpha) == batch + (2,)
        assert np.shape(wigner_phase_rotation_closed(r, k)) == batch
        assert np.shape(wigner_phase_boost_closed(zeta, k)) == batch

    def test_single_calls_keep_python_scalars(self):
        data = wigner_rotation(rotation_z(0.3), np.array([1.0, 0.6, 0.0, 0.8]))
        assert type(data.w) is float and type(data.phase_half) is complex
        assert type(data.residual) is float and type(data.phase(1)) is complex

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(42)
        r = AxisAngle(rng.normal(size=(30, 3)), rng.uniform(-np.pi, np.pi, size=30))
        k = random_lightlikes(rng, (30,))
        Lam, zeta = random_boosts(rng, (30,))
        R = rotation_matrix(r)
        rot, boost = wigner_rotation(R, k), wigner_boost(Lam, k)
        rot_closed = wigner_phase_rotation_closed(r, k)
        boost_closed = wigner_phase_boost_closed(zeta, k)
        for i in range(30):
            one = AxisAngle(r.axis[i], r.angle[i])
            assert abs(rot.w[i] - wigner_rotation(R[i], k[i]).w) <= 1e-15
            assert abs(boost.w[i] - wigner_boost(Lam[i], k[i]).w) <= 1e-15
            assert np.max(np.abs(boost.alpha[i] - wigner_boost(Lam[i], k[i]).alpha)) <= 1e-15
            assert abs(rot_closed[i] - wigner_phase_rotation_closed(one, k[i])) <= 1e-15
            assert abs(boost_closed[i] - wigner_phase_boost_closed(zeta[i], k[i])) <= 1e-15
        assert np.array_equal(rot.w, [wigner_rotation(R[i], k[i]).w for i in range(30)])
        assert rot.alpha.shape == (30, 2) and not rot.alpha.any()
        # AxisAngle normalizes its axis, and ``one`` above normalizes r's axis twice:
        # the stack and its single calls here take the same raw axes
        axes = rng.normal(size=(30, 3))
        assert np.array_equal(
            wigner_phase_rotation_closed(AxisAngle(axes, r.angle), k),
            [wigner_phase_rotation_closed(AxisAngle(axes[i], r.angle[i]), k[i]) for i in range(30)],
        )
        assert np.array_equal(
            boost_closed, [wigner_phase_boost_closed(zeta[i], k[i]) for i in range(30)]
        )

    def test_bad_row_is_named(self):
        rng = np.random.default_rng(43)
        k = random_lightlikes(rng, (5,))
        R = rotation_z(np.linspace(0.0, 1.0, 5))
        R[3] = boost_matrix([0.0, 0.2, 0.0])
        with pytest.raises(ValueError, match=r"not a pure rotation \(row 3\)"):
            wigner_rotation(R, k)
        k[1, 0] *= 2.0
        with pytest.raises(ValueError, match=r"not lightlike with positive energy \(row 1\)"):
            wigner_boost(boost_matrix(np.zeros((5, 3))), k)

    def test_stack_of_exact_pole_and_generic_rows_keeps_single_call_bits(self):
        # rows 0, 2 and 4 are exactly on the polar axis, and in rows 0 and 2
        # chi_0 is exactly zero, so they take chi_1; the others are generic
        rng = np.random.default_rng(46)
        k = random_lightlikes(rng, (6,))
        k[0], k[2], k[4] = SOUTH, SOUTH, NORTH
        axes = rng.normal(size=(6, 3))
        axes[0], axes[2] = [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]
        r = AxisAngle(axes, rng.uniform(-np.pi, np.pi, size=6))
        zeta = rng.normal(size=(6, 3))
        zeta[0], zeta[2] = [0.0, 0.0, 0.7], [0.0, 0.0, 0.0]
        rot = wigner_phase_rotation_closed(r, k)
        boost = wigner_phase_boost_closed(zeta, k)
        assert np.array_equal(
            rot, [wigner_phase_rotation_closed(AxisAngle(axes[i], r.angle[i]), k[i]) for i in range(6)]
        )
        assert np.array_equal(boost, [wigner_phase_boost_closed(zeta[i], k[i]) for i in range(6)])
        assert np.max(np.abs(rot**2 - wigner_rotation(rotation_matrix(r), k).phase(1))) <= 1e-14
        data = wigner_boost(boost_matrix(beta_from_rapidity(zeta)), k)
        assert np.max(np.abs(boost**2 - data.phase(1))) <= 1e-14


@pytest.mark.parametrize("offset", [1e-8, 1e-14, 1e-16])
def test_closed_form_agrees_with_matrix_route_next_to_the_south_pole(offset):
    rng = np.random.default_rng(44)
    k = np.array([1.0, offset * np.cos(1.0), offset * np.sin(1.0), -1.0])
    for _ in range(20):
        r = random_axis_angle(rng)
        closed = wigner_phase_rotation_closed(r, k)
        assert abs(closed**2 - wigner_rotation(rotation_matrix(r), k).phase(1)) <= 1e-12
        zeta = rng.uniform(0.1, 2.0) * rng.normal(size=3)
        closed = wigner_phase_boost_closed(zeta, k)
        data = wigner_boost(boost_matrix(beta_from_rapidity(zeta)), k)
        assert abs(closed**2 - data.phase(1)) <= 1e-12


@pytest.mark.parametrize("theta", [1e-8, np.pi - 1e-8])
def test_half_phase_agrees_with_matrix_route_next_to_the_poles(theta):
    # The matrix route reads the azimuth of the image momentum, so its own
    # error grows like 1e-16 over the image's distance from the polar axis.
    # Axes at least 60 degrees from z, angles of 0.5 to 2.5 and rapidities up
    # to 1.5 carry k at least 0.4 rad from both poles, where that route is
    # accurate to rounding.
    rng = np.random.default_rng(45)
    kvec = 2.0 * np.array([0.6 * np.sin(theta), 0.8 * np.sin(theta), np.cos(theta)])
    k = np.array([2.0, *kvec])
    for _ in range(20):
        a, nz = rng.uniform(-np.pi, np.pi), rng.uniform(-0.5, 0.5)
        r = AxisAngle([np.cos(a), np.sin(a), nz], rng.uniform(0.5, 2.5))
        closed = half_phase(su2_matrix(r), kvec) ** 2
        assert abs(closed - wigner_rotation(rotation_matrix(r), k).phase(1)) <= 1e-14
        zeta = rng.uniform(0.1, 1.5) * r.axis
        closed = half_phase(sl2c_boost(zeta), kvec) ** 2
        data = wigner_boost(boost_matrix(beta_from_rapidity(zeta)), k)
        assert abs(closed - data.phase(1)) <= 1e-14


def test_verify_passes_on_an_exact_polar_alignment(monkeypatch):
    # every trial rotates the north pole by pi about x, onto the south pole to
    # rounding: the closed form must agree with the matrix route there
    def north_pole(rng, n):
        return np.tile(NORTH, (n, 1))

    def half_turn_about_x(rng, n=None):
        return AxisAngle(np.tile([1.0, 0.0, 0.0], (n, 1)), np.full(n, np.pi))

    monkeypatch.setattr(verify, "_random_lightlike", north_pole)
    monkeypatch.setattr(verify, "_random_axis_angle", half_turn_about_x)
    report = verify.run_suite("wigner", trials=5, seed=1)
    assert len(report.properties) == 5
    assert all(prop.passed for prop in report.properties)
    assert report.properties[0].max_residual <= 1e-15
