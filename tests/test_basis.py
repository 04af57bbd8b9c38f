from fractions import Fraction
from math import comb

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest

from tramsurv.basis import (
    LogTimeScaler,
    bernstein_vectors,
    fit_scaler,
    monotone_reparam,
    monotone_reparam_vjp,
)
from tramsurv.core import ModelSpec, Observation, Parameterization, SurvivalDataset
from tramsurv.errors import InvalidOrder
from tramsurv.numerics import softplus, softplus_inv
from tramsurv.target import TargetFamily
from tramsurv.transform import Coefficients, coefficients, eval_transform

UNIT = LogTimeScaler(0.0, 1.0)  # log-time is u


def _basis(order, u):
    return bernstein_vectors(order, u)[0]


def _deriv(order, u, theta):
    """d/du of b(u)^T theta: the second table contracted with the increments of theta."""
    return bernstein_vectors(order, u)[1] @ np.diff(theta)


def _transform(theta, u):
    """h and dh/du of the baseline form b(u)^T theta, extension included, on the unit scaler."""
    spec = ModelSpec(family=TargetFamily.LOGISTIC, parameterization=Parameterization.BASELINE,
                     bernstein_order=len(theta) - 1)
    coef = Coefficients(np.asarray(theta, dtype=float), np.diff(theta), 1.0, 0.0, None)
    h, dh, _ = eval_transform(spec, coef, None, np.atleast_1d(u), UNIT)
    return h[0], dh[0]


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
        basis, lower = bernstein_vectors(3, u)
        assert basis.shape == (7, 4) and lower.shape == (7, 3)
        assert basis.flags.c_contiguous and lower.flags.c_contiguous

    def test_any_shape_of_points(self):
        u = np.linspace(-0.5, 1.5, 12)
        basis, lower = bernstein_vectors(4, u.reshape(2, 1, 6))
        assert basis.shape == (2, 1, 6, 5) and lower.shape == (2, 1, 6, 4)
        assert basis.flags.c_contiguous and lower.flags.c_contiguous
        flat_basis, flat_lower = bernstein_vectors(4, u)
        np.testing.assert_array_equal(basis.reshape(12, 5), flat_basis)
        np.testing.assert_array_equal(lower.reshape(12, 4), flat_lower)
        scalar_basis, scalar_lower = bernstein_vectors(4, u[3])
        assert scalar_basis.shape == (5,) and scalar_lower.shape == (4,)
        np.testing.assert_array_equal(scalar_basis, flat_basis[3])


def _exact_tables(order, u):
    """b_K(uc) and K b_{K-1}(uc) in exact rational arithmetic, rounded once to floats."""
    uc = min(max(Fraction(u), Fraction(0)), Fraction(1))
    basis = [comb(order, j) * uc**j * (1 - uc) ** (order - j) for j in range(order + 1)]
    lower = [order * comb(order - 1, j) * uc**j * (1 - uc) ** (order - 1 - j)
             for j in range(order)]
    return np.array([float(v) for v in basis]), np.array([float(v) for v in lower])


class TestExactReference:
    """Both tables lie within 4 ulp of the exact polynomials, at 50 points."""

    POINTS = np.concatenate([
        [0.0, 1.0, 0.5, 0.25, 1e-300, 2.0**-30, 1.0 - 2.0**-53, 0.999999,
         -0.5, -3.0, -1e-12, 1.5, 7.25, 1.0 + 2.0**-52],
        np.random.default_rng(29).random(30),
        np.random.default_rng(31).uniform(-2.0, 3.0, 6),
    ])

    @pytest.mark.parametrize("order", [1, 2, 3, 6, 8])
    def test_within_four_ulp(self, order):
        assert self.POINTS.size == 50
        basis, lower = bernstein_vectors(order, self.POINTS)
        for u, got_basis, got_lower in zip(self.POINTS, basis, lower):
            for got, exact in zip((got_basis, got_lower), _exact_tables(order, u)):
                ulps = np.abs(got - exact) / np.spacing(np.abs(exact))
                assert np.all(ulps <= 4.0), (order, u, ulps)


class TestPositiveSlope:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        order=st.integers(1, 12),
        offset=st.floats(-1e9, 1e9),
        exponents=st.lists(st.floats(-12.0, 3.0), min_size=12, max_size=12),
        u=st.lists(st.floats(-4.0, 5.0), min_size=1, max_size=6),
    )
    @example(order=6, offset=1e9, exponents=[-12.0] * 12, u=[-1.0, 0.0, 0.3, 1.0, 2.5])
    def test_dh_dlog_t_positive(self, order, offset, exponents, u):
        """dh/dlog t > 0 for increments 1e-12 to 1e3 at theta offsets up to 1e9, in range or not.

        The log-times span [-4, 5] against the scaler's [-0.5, 1.5].
        """
        spec = ModelSpec(family=TargetFamily.MEV, parameterization=Parameterization.BASELINE,
                         bernstein_order=order)
        head = np.concatenate([[offset], softplus_inv(10.0 ** np.array(exponents[:order]))])
        coef, _ = coefficients(spec, head, None)
        _, dh, _ = eval_transform(spec, coef, None, np.array(u), LogTimeScaler(-0.5, 1.5))
        assert np.all(dh > 0.0), dh


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
    """Outside [0, 1] the tables are the endpoint's, and ``eval_transform`` extends h linearly."""

    def test_matches_basis_inside(self):
        """Inside [0, 1]: the Bernstein polynomials and the degree-lowering derivative."""
        u = np.linspace(0.0, 1.0, 9)
        theta = np.array([-1.0, 0.2, 0.9, 1.1, 2.4])

        def polynomials(order):
            return np.array([[comb(order, k) * x**k * (1 - x) ** (order - k)
                              for k in range(order + 1)] for x in u])

        basis, lower = bernstein_vectors(4, u)
        np.testing.assert_allclose(basis, polynomials(4), atol=1e-15)
        np.testing.assert_allclose(lower @ np.diff(theta), 4 * polynomials(3) @ np.diff(theta),
                                   atol=1e-14)

    def test_linear_outside_left(self):
        theta = np.array([0.0, 0.5, 2.0, 2.5])
        b0, d0 = bernstein_vectors(3, 0.0)
        for u in (-0.5, -1.7, -4.0):
            basis, lower = bernstein_vectors(3, u)
            np.testing.assert_array_equal(basis, b0)
            np.testing.assert_allclose(lower, d0)
            h, dh = _transform(theta, u)
            np.testing.assert_allclose(h, b0 @ theta + u * (d0 @ np.diff(theta)), rtol=1e-12)
            np.testing.assert_allclose(dh, d0 @ np.diff(theta))

    def test_linear_outside_right(self):
        theta = np.array([-1.0, 0.0, 0.25, 3.0])
        b1, d1 = bernstein_vectors(3, 1.0)
        basis, lower = bernstein_vectors(3, 2.25)
        np.testing.assert_array_equal(basis, b1)
        np.testing.assert_allclose(lower, d1)
        h, dh = _transform(theta, 2.25)
        np.testing.assert_allclose(h, b1 @ theta + 1.25 * (d1 @ np.diff(theta)), rtol=1e-12)
        np.testing.assert_allclose(dh, d1 @ np.diff(theta))

    def test_continuity_at_boundaries(self):
        rng = np.random.default_rng(3)
        theta = np.cumsum(rng.random(6))
        for edge in (0.0, 1.0):
            inner, _ = _transform(theta, edge)
            outer, _ = _transform(theta, edge + np.copysign(1e-9, edge - 0.5))
            np.testing.assert_allclose(outer, inner, rtol=0, atol=1e-8)


class TestMonotoneReparam:
    def test_softplus_zero_pair(self):
        theta, increments = monotone_reparam(np.array([1.0, 0.0]))
        np.testing.assert_allclose(theta, [1.0, 1.0 + np.log(2.0)])
        np.testing.assert_allclose(increments, [np.log(2.0)])

    def test_softplus_zero_triple(self):
        out, _ = monotone_reparam(np.zeros(3))
        np.testing.assert_allclose(out, [0.0, np.log(2.0), 2 * np.log(2.0)])

    def test_large_gap_overflow_safe(self):
        # softplus(20) is 20 up to 2e-9, so the second coefficient lands at 17
        out, _ = monotone_reparam(np.array([-3.0, 20.0]))
        np.testing.assert_allclose(out, [-3.0, 17.0], rtol=0, atol=1e-8)

    def test_output_strictly_increasing(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            gamma = rng.normal(scale=3.0, size=rng.integers(2, 9))
            out, increments = monotone_reparam(gamma)
            assert np.all(np.diff(out) > 0)
            np.testing.assert_array_equal(increments, softplus(gamma[1:]))

    def test_increments_survive_a_large_offset(self):
        """theta's sums round the increments away; the increments themselves stay."""
        gamma = np.concatenate([[1e9], softplus_inv(np.full(4, 1e-12))])
        theta, increments = monotone_reparam(gamma)
        assert np.all(np.diff(theta) == 0.0)
        np.testing.assert_allclose(increments, 1e-12, rtol=1e-12)

    def test_vjp_matches_finite_difference(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            gamma = rng.normal(size=5)
            upstream, upstream_increments = rng.normal(size=5), rng.normal(size=4)

            def objective(g):
                theta, increments = monotone_reparam(g)
                return upstream @ theta + upstream_increments @ increments

            grad = monotone_reparam_vjp(gamma, upstream, upstream_increments)
            fd = np.empty(5)
            for i in range(5):
                step = 1e-6 * (1.0 + abs(gamma[i]))
                hi = gamma.copy()
                hi[i] += step
                lo = gamma.copy()
                lo[i] -= step
                fd[i] = (objective(hi) - objective(lo)) / (2 * step)
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
