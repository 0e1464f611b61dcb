import numpy as np
import pytest
from numpy.testing import assert_allclose

from photonamp.lorentz import (
    METRIC,
    AxisAngle,
    boost_matrix,
    minkowski,
    rotation_matrix,
    rotation_z,
    standard_lorentz,
    standard_rotation,
)
from photonamp.little_group import K0_NULL, ibr_matrix
from photonamp.polarization import (
    covariance_residual,
    gauge_shift,
    polarization,
    polarization_spatial,
    reference_polarization,
    tensor_coeff,
)
from photonamp.wigner import wigner_rotation

SQRT2 = np.sqrt(2.0)


def random_lightlike(rng):
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    omega = rng.uniform(0.3, 3.0)
    return np.array([omega, *(omega * d)])


class TestReferenceVectors:
    def test_positive_helicity_components(self):
        eps = reference_polarization(1).eps
        assert_allclose(eps, [0, -1 / SQRT2, -1j / SQRT2, 0], atol=1e-15)

    def test_negative_helicity_components(self):
        eps = reference_polarization(-1).eps
        assert_allclose(eps, [0, 1 / SQRT2, -1j / SQRT2, 0], atol=1e-15)

    def test_complex_orthonormality(self):
        for l1 in (1, -1):
            for l2 in (1, -1):
                e1 = reference_polarization(l1).eps
                e2 = reference_polarization(l2).eps
                product = np.conj(e1) @ (METRIC @ e2)
                assert product == pytest.approx(-1.0 if l1 == l2 else 0.0, abs=1e-15)

    def test_invalid_helicity(self):
        with pytest.raises(ValueError):
            reference_polarization(0)


class TestGeneralMomentum:
    def test_z_momentum_reproduces_reference(self):
        for lam in (1, -1):
            p = polarization([2.0, 0, 0, 2.0], lam)
            assert_allclose(p.eps, reference_polarization(lam).eps, atol=1e-15)

    def test_x_momentum(self):
        k = np.array([1.0, 1.0, 0, 0])
        p = polarization(k, 1)
        expected = standard_rotation([1, 0, 0]).astype(complex) @ reference_polarization(1).eps
        assert_allclose(p.eps, expected, atol=1e-14)
        assert abs(minkowski(k, p.eps)) <= 1e-12
        assert np.conj(p.eps) @ (METRIC @ p.eps) == pytest.approx(-1.0, abs=1e-12)

    def test_geometric_decomposition(self):
        # spatial real/imaginary parts: orthogonal to k and each other, norm 1/sqrt2
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = random_lightlike(rng)
            for lam in (1, -1):
                eps = polarization(k, lam).eps
                assert abs(eps[0]) <= 1e-15
                re, im = eps[1:].real, eps[1:].imag
                khat = k[1:] / k[0]
                assert abs(re @ khat) <= 1e-12
                assert abs(im @ khat) <= 1e-12
                assert abs(re @ im) <= 1e-12
                assert np.linalg.norm(re) == pytest.approx(1 / SQRT2, abs=1e-12)
                assert np.linalg.norm(im) == pytest.approx(1 / SQRT2, abs=1e-12)

    def test_independent_of_reference_energy(self):
        # the full canonical transformation gives the same vector for any
        # reference energy: its z-boost leg cannot touch transverse components
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = random_lightlike(rng)
            eps = polarization(k, 1).eps
            for kappa_ref in (0.3, 1.0, 7.0):
                carried = standard_lorentz(k, kappa_ref).astype(complex) @ (
                    reference_polarization(1).eps
                )
                assert_allclose(carried, eps, atol=1e-13)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        ks = np.array([random_lightlike(rng) for _ in range(64)])
        for lam in (1, -1):
            batch = polarization_spatial(ks[:, 1:], lam)
            for i, k in enumerate(ks):
                assert_allclose(batch[i], polarization(k, lam).eps[1:], atol=1e-13)

    def test_nonlightlike_rejected(self):
        with pytest.raises(ValueError):
            polarization([1.0, 0, 0, 0.3], 1)


class TestGaugeShift:
    def test_zero_shift_identity(self):
        p = polarization([1.0, 0.6, 0, 0.8], 1)
        assert_allclose(gauge_shift(p, 0.0).eps, p.eps, atol=0)

    def test_transversality_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = random_lightlike(rng)
            p = polarization(k, 1)
            f = complex(rng.normal(), rng.normal())
            assert abs(minkowski(k, gauge_shift(p, f).eps)) <= 1e-12


class TestTensorCoefficient:
    def test_reference_momentum_matrix(self):
        kappa = 2.0
        p = polarization([kappa, 0, 0, kappa], 1)
        T = tensor_coeff(p)
        e = reference_polarization(1).eps[1:]
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1:] = kappa * e
        expected[1:, 0] = -kappa * e
        # spatial block: k^i eps^j - k^j eps^i with k = kappa z_hat
        expected[3, 1:] += kappa * e
        expected[1:, 3] -= kappa * e
        assert_allclose(T, expected, atol=1e-14)

    def test_antisymmetry_and_null_contraction(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            k = random_lightlike(rng)
            T = tensor_coeff(polarization(k, -1))
            assert np.max(np.abs(T + T.T)) == 0.0
            k_low = METRIC @ k
            assert abs(k_low @ T @ k_low) <= 1e-12

    def test_gauge_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            k = random_lightlike(rng)
            lam = 1 if rng.random() < 0.5 else -1
            p = polarization(k, lam)
            T = tensor_coeff(p)
            f = complex(rng.normal(), rng.normal())
            T2 = tensor_coeff(gauge_shift(p, f))
            assert np.max(np.abs(T2 - T)) <= 1e-12


class TestLittleGroupActions:
    def test_z_rotation_phase(self):
        for lam in (1, -1):
            eps0 = reference_polarization(lam).eps
            for gamma in np.linspace(-3, 3, 13):
                acted = rotation_z(gamma).astype(complex) @ eps0
                assert_allclose(acted, eps0 * np.exp(-1j * lam * gamma), atol=1e-12)

    def test_abelian_action_adds_momentum_term(self):
        k0 = K0_NULL
        rng = np.random.default_rng(6)
        for _ in range(200):
            alpha = rng.normal(scale=1.5, size=2)
            for lam in (1, -1):
                eps0 = reference_polarization(lam).eps
                acted = ibr_matrix(alpha).astype(complex) @ eps0
                expected = eps0 + (alpha @ eps0[1:3]) * k0
                assert_allclose(acted, expected, atol=1e-12)


class TestCovariance:
    def test_rotation_covariance_with_phase(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            k = random_lightlike(rng)
            r = AxisAngle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
            R = rotation_matrix(r)
            w = wigner_rotation(R, k).w
            for lam in (1, -1):
                lhs = R.astype(complex) @ polarization(k, lam).eps
                rhs = polarization(R @ k, lam).eps * np.exp(-1j * lam * w)
                assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_identity_has_no_gauge_term(self):
        coef, resid = covariance_residual(np.eye(4), [1.0, 0.6, 0, 0.8], 1)
        assert abs(coef) <= 1e-14
        assert resid <= 1e-14

    def test_rotations_have_no_gauge_term(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            k = random_lightlike(rng)
            r = AxisAngle(rng.normal(size=3), rng.uniform(-np.pi, np.pi))
            coef, resid = covariance_residual(rotation_matrix(r), k, 1)
            assert abs(coef) <= 1e-10
            assert resid <= 1e-10

    def test_boosts_close_up_to_gauge(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            k = random_lightlike(rng)
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            beta = np.tanh(rng.uniform(0.0, 2.0)) * d
            lam = 1 if rng.random() < 0.5 else -1
            for scale in (1.0, 1e4, 1e6):  # photon energies in eV up to 3, 3e4 and 3e6
                _, resid = covariance_residual(boost_matrix(beta), scale * k, lam)
                assert resid <= 1e-10


# -- stacks -------------------------------------------------------------------


def random_lightlikes(rng, batch):
    d = rng.normal(size=batch + (3,))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    omega = rng.uniform(0.3, 3.0, size=batch + (1,))
    return np.concatenate([omega, omega * d], axis=-1)


class TestStacks:
    @pytest.mark.parametrize("batch", [(), (6,), (2, 6)])
    def test_output_shapes(self, batch):
        rng = np.random.default_rng(51)
        k = random_lightlikes(rng, batch)
        lam = np.where(rng.random(batch) < 0.5, 1, -1)
        assert polarization(k, lam).eps.shape == batch + (4,)
        assert polarization(k, 1).eps.shape == batch + (4,)
        Lam = boost_matrix(0.2 * rng.normal(size=batch + (3,)))
        coef, resid = covariance_residual(Lam, k, lam)
        assert np.shape(coef) == np.shape(resid) == batch

    def test_stack_matches_single_calls(self):
        rng = np.random.default_rng(52)
        k = random_lightlikes(rng, (30,))
        lam = np.where(rng.random(30) < 0.5, 1, -1)
        Lam = boost_matrix(0.2 * rng.normal(size=(30, 3)))
        eps = polarization(k, lam).eps
        coef, resid = covariance_residual(Lam, k, lam)
        for i in range(30):
            assert np.max(np.abs(eps[i] - polarization(k[i], int(lam[i])).eps)) <= 1e-15
            one_coef, one_resid = covariance_residual(Lam[i], k[i], int(lam[i]))
            assert abs(coef[i] - one_coef) <= 1e-15
            assert abs(resid[i] - one_resid) <= 1e-15
        singles = [covariance_residual(Lam[i], k[i], int(lam[i])) for i in range(30)]
        assert np.array_equal(np.transpose([coef, resid]), singles)

    def test_spatial_stack_has_the_bits_of_single_calls(self):
        rng = np.random.default_rng(53)
        kvec = rng.normal(size=(4000, 3)) * 10.0 ** rng.uniform(-12.0, 13.0, size=(4000, 1))
        for lam in (1, -1):
            stack = polarization_spatial(kvec, lam)
            single = np.array([polarization_spatial(k, lam) for k in kvec])
            assert np.array_equal(stack, single)

    def test_bad_row_is_named(self):
        k = np.tile([1.0, 0.0, 0.0, 1.0], (3, 1))
        with pytest.raises(ValueError, match=r"helicity must be \+1 or -1 \(row 1\)"):
            polarization(k, [1, 0, -1])
        k[2, 0] = -1.0
        with pytest.raises(ValueError, match=r"not lightlike with positive energy \(row 2\)"):
            polarization(k, 1)


@pytest.mark.parametrize("offset", [1e-8, 1e-14, 1e-16])
@pytest.mark.parametrize("lam", [1, -1])
def test_closed_form_agrees_with_matrix_route_next_to_the_south_pole(offset, lam):
    k = np.array([1.0, offset * np.cos(1.0), offset * np.sin(1.0), -1.0])
    spatial = polarization_spatial(k[1:], lam)
    assert np.max(np.abs(polarization(k, lam).eps[1:] - spatial)) <= 1e-12


@pytest.mark.parametrize("theta", [1e-8, np.pi - 1e-8])
@pytest.mark.parametrize("lam", [1, -1])
def test_transverse_to_full_precision_next_to_the_poles(theta, lam):
    kvec = 2.0 * np.array([0.6 * np.sin(theta), 0.8 * np.sin(theta), np.cos(theta)])
    assert abs(kvec @ polarization_spatial(kvec, lam)) <= 4e-15
    assert abs(kvec @ polarization(np.array([2.0, *kvec]), lam).eps[1:]) <= 4e-15
