from math import comb

import numpy as np
import pytest

from tramsurv.basis import (
    LogTimeScaler,
    bernstein_vectors,
    fit_scaler,
    monotone_reparam,
    monotone_reparam_vjp,
)
from tramsurv.core import Observation, SurvivalDataset
from tramsurv.errors import InvalidOrder


def _basis(order, u):
    return bernstein_vectors(order, u)[0]


def _deriv(order, u, theta):
    """d/du of b(u)^T theta from the derivative coefficient vectors."""
    return bernstein_vectors(order, u)[1] @ theta


class TestBernsteinEval:
    def test_endpoint_left(self):
        np.testing.assert_allclose(_basis(2, 0.0), [1.0, 0.0, 0.0])

    def test_endpoint_right(self):
        np.testing.assert_allclose(_basis(2, 1.0), [0.0, 0.0, 1.0])

    def test_midpoint_order_two(self):
        np.testing.assert_allclose(_basis(2, 0.5), [0.25, 0.5, 0.25])

    def test_partition_of_unity_k5(self):
        vec = _basis(5, 0.37)
        np.testing.assert_allclose(vec.sum(), 1.0, rtol=0, atol=1e-12)

    def test_partition_of_unity_many_orders(self):
        """Basis components sum to one for every order up to 20."""
        rng = np.random.default_rng(0)
        for order in range(1, 21):
            for u in rng.random(5):
                vec = _basis(order, float(u))
                np.testing.assert_allclose(vec.sum(), 1.0, rtol=0, atol=1e-12)

    def test_rejects_order_zero(self):
        with pytest.raises(InvalidOrder):
            bernstein_vectors(0, 0.5)

    def test_batch_shape(self):
        u = np.linspace(0.0, 1.0, 7)
        basis, deriv = bernstein_vectors(3, u)
        assert basis.shape == deriv.shape == (7, 4)


class TestBernsteinDeriv:
    def test_linear_coefficients_give_constant_two(self):
        # equally spaced coefficients (0, 1, 2) represent the linear map 2u
        theta = np.array([0.0, 1.0, 2.0])
        for u in (0.0, 0.21, 0.5, 0.93, 1.0):
            np.testing.assert_allclose(_deriv(2, u, theta), 2.0)

    def test_constant_gap_order_three(self):
        gap = 0.7
        theta = np.array([0.0, gap, 2 * gap, 3 * gap])
        np.testing.assert_allclose(_deriv(3, 0.4, theta), 3 * gap)

    def test_matches_finite_difference(self):
        """Derivative of the polynomial agrees with a central difference."""
        rng = np.random.default_rng(7)
        theta = np.cumsum(rng.random(5))
        step = 1e-6
        for u in (0.1, 0.3, 0.55, 0.82):
            fd = (_basis(4, u + step) @ theta - _basis(4, u - step) @ theta) / (2 * step)
            np.testing.assert_allclose(_deriv(4, u, theta), fd, rtol=0, atol=1e-8)


class TestLinearExtension:
    def test_matches_basis_inside(self):
        """Inside [0, 1]: the Bernstein polynomials and the degree-lowering derivative."""
        u = np.linspace(0.0, 1.0, 9)
        theta = np.array([-1.0, 0.2, 0.9, 1.1, 2.4])

        def polynomials(order):
            return np.array([[comb(order, k) * x**k * (1 - x) ** (order - k)
                              for k in range(order + 1)] for x in u])

        basis, deriv = bernstein_vectors(4, u)
        np.testing.assert_allclose(basis, polynomials(4), atol=1e-15)
        np.testing.assert_allclose(deriv @ theta, 4 * polynomials(3) @ np.diff(theta), atol=1e-14)

    def test_linear_outside_left(self):
        theta = np.array([0.0, 0.5, 2.0, 2.5])
        b0, d0 = bernstein_vectors(3, 0.0)
        for u in (-0.5, -1.7, -4.0):
            basis, deriv = bernstein_vectors(3, u)
            np.testing.assert_allclose(basis @ theta, b0 @ theta + u * (d0 @ theta), rtol=1e-12)
            np.testing.assert_allclose(deriv, d0)

    def test_linear_outside_right(self):
        theta = np.array([-1.0, 0.0, 0.25, 3.0])
        b1, d1 = bernstein_vectors(3, 1.0)
        basis, deriv = bernstein_vectors(3, 2.25)
        np.testing.assert_allclose(basis @ theta, b1 @ theta + 1.25 * (d1 @ theta), rtol=1e-12)
        np.testing.assert_allclose(deriv, d1)

    def test_continuity_at_boundaries(self):
        rng = np.random.default_rng(3)
        theta = np.cumsum(rng.random(6))
        for edge in (0.0, 1.0):
            inner, _ = bernstein_vectors(5, edge)
            outer, _ = bernstein_vectors(5, edge + np.copysign(1e-9, edge - 0.5))
            np.testing.assert_allclose(outer @ theta, inner @ theta, rtol=0, atol=1e-8)


class TestMonotoneReparam:
    def test_softplus_zero_pair(self):
        np.testing.assert_allclose(monotone_reparam(np.array([1.0, 0.0])), [1.0, 1.0 + np.log(2.0)])

    def test_softplus_zero_triple(self):
        out = monotone_reparam(np.zeros(3))
        np.testing.assert_allclose(out, [0.0, np.log(2.0), 2 * np.log(2.0)])

    def test_large_gap_overflow_safe(self):
        # softplus(20) is 20 up to 2e-9, so the second coefficient lands at 17
        out = monotone_reparam(np.array([-3.0, 20.0]))
        np.testing.assert_allclose(out, [-3.0, 17.0], rtol=0, atol=1e-8)

    def test_output_strictly_increasing(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            gamma = rng.normal(scale=3.0, size=rng.integers(2, 9))
            out = monotone_reparam(gamma)
            assert np.all(np.diff(out) > 0)

    def test_vjp_matches_finite_difference(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            gamma = rng.normal(size=5)
            upstream = rng.normal(size=5)
            grad = monotone_reparam_vjp(gamma, upstream)
            fd = np.empty(5)
            for i in range(5):
                step = 1e-6 * (1.0 + abs(gamma[i]))
                hi = gamma.copy()
                hi[i] += step
                lo = gamma.copy()
                lo[i] -= step
                fd[i] = (upstream @ monotone_reparam(hi) - upstream @ monotone_reparam(lo)) / (
                    2 * step
                )
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)


def _dataset(times):
    return SurvivalDataset.from_observations([Observation.exact(t, [0.0]) for t in times])


class TestLogTimeScaler:
    def test_known_log_times(self):
        scaler = fit_scaler(_dataset([1.0, np.e, np.e**2]))
        np.testing.assert_allclose([scaler.a_lo, scaler.b_hi], [0.0, 2.0], rtol=0, atol=1e-15)

    def test_degenerate_range(self):
        scaler = fit_scaler(_dataset([1.0, 1.0, 1.0]))
        np.testing.assert_allclose([scaler.a_lo, scaler.b_hi], [-0.5, 0.5])

    def test_unit_interval_mapping(self):
        scaler = LogTimeScaler(0.0, 2.0)
        np.testing.assert_allclose(scaler.scale(np.log(1.0)), 0.0)
        np.testing.assert_allclose(scaler.scale(np.log(np.e**2)), 1.0)
        np.testing.assert_allclose(scaler.scale(np.log(np.e)), 0.5)

    def test_right_censored_times_count(self):
        ds = SurvivalDataset.from_observations(
            [Observation.exact(1.0, [0.0]), Observation.right_censored(np.e**3, [0.0])]
        )
        scaler = fit_scaler(ds)
        np.testing.assert_allclose([scaler.a_lo, scaler.b_hi], [0.0, 3.0], rtol=0, atol=1e-15)
