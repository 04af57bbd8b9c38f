import numpy as np
import pytest

from tramsurv.errors import ProbabilityOutOfRange
from tramsurv.target import (
    TargetFamily,
    cdf,
    density,
    log_cdf,
    log_density,
    log_density_dz,
    log_survivor,
    neg_log_cdf_dz,
    neg_log_survivor_dz,
    quantile,
    survivor,
)

LOGISTIC = TargetFamily.LOGISTIC
MEV = TargetFamily.MEV


class TestCdf:
    def test_logistic_symmetry_point(self):
        np.testing.assert_allclose(cdf(LOGISTIC, 0.0), 0.5)

    def test_mev_at_zero(self):
        np.testing.assert_allclose(cdf(MEV, 0.0), 1.0 - np.exp(-1.0))

    def test_logistic_limits(self):
        assert cdf(LOGISTIC, np.inf) == 1.0
        assert cdf(LOGISTIC, -np.inf) == 0.0

    def test_mev_limits(self):
        assert cdf(MEV, np.inf) == 1.0
        assert cdf(MEV, -np.inf) == 0.0

    def test_survivor_complement(self):
        z = np.linspace(-6.0, 6.0, 31)
        for family in (LOGISTIC, MEV):
            np.testing.assert_allclose(cdf(family, z) + survivor(family, z), 1.0, rtol=1e-12)


class TestLogDensity:
    def test_logistic_at_zero(self):
        # f(0) = sigma(0) * (1 - sigma(0)) = 1/4
        np.testing.assert_allclose(log_density(LOGISTIC, 0.0), np.log(0.25))

    def test_mev_at_zero(self):
        np.testing.assert_allclose(log_density(MEV, 0.0), -1.0)

    def test_logistic_extreme_argument_finite(self):
        val = log_density(LOGISTIC, 800.0)
        assert np.isfinite(val)
        np.testing.assert_allclose(val, -800.0, rtol=1e-12)

    def test_logistic_identity_moderate_z(self):
        """log f(z) = -z - 2 log1p(exp(-z)) holds where both forms are stable."""
        for z in np.linspace(-30.0, 30.0, 13):
            direct = -z - 2.0 * np.log1p(np.exp(-z))
            np.testing.assert_allclose(log_density(LOGISTIC, z), direct, rtol=1e-12)

    def test_consistent_with_density(self):
        z = np.linspace(-5.0, 5.0, 21)
        for family in (LOGISTIC, MEV):
            np.testing.assert_allclose(np.exp(log_density(family, z)), density(family, z), rtol=1e-12)

    def test_density_integrates_to_one(self):
        # trapezoid over a wide window catches gross normalization bugs
        z = np.linspace(-40.0, 40.0, 50001)
        for family in (LOGISTIC, MEV):
            mass = np.trapezoid(density(family, z), z)
            np.testing.assert_allclose(mass, 1.0, rtol=0, atol=1e-6)


class TestLogTails:
    def test_log_survivor_matches_direct(self):
        # stop at z=6 where the naive reference still avoids underflow
        z = np.linspace(-8.0, 6.0, 29)
        for family in (LOGISTIC, MEV):
            np.testing.assert_allclose(
                log_survivor(family, z), np.log(survivor(family, z)), rtol=1e-10
            )

    def test_log_cdf_matches_direct(self):
        z = np.linspace(-5.0, 8.0, 27)
        for family in (LOGISTIC, MEV):
            np.testing.assert_allclose(log_cdf(family, z), np.log(cdf(family, z)), rtol=1e-10)

    def test_deep_tails_finite(self):
        assert np.isfinite(log_survivor(LOGISTIC, 900.0))
        assert np.isfinite(log_cdf(LOGISTIC, -900.0))
        assert np.isfinite(log_cdf(MEV, -900.0))
        np.testing.assert_allclose(log_survivor(LOGISTIC, 900.0), -900.0, rtol=1e-12)
        # MEV lower tail: log F(z) ~ z as z -> -inf
        np.testing.assert_allclose(log_cdf(MEV, -900.0), -900.0, rtol=1e-12)


class TestQuantile:
    def test_logistic_median(self):
        np.testing.assert_allclose(quantile(LOGISTIC, 0.5), 0.0, rtol=0, atol=1e-15)

    def test_mev_known_point(self):
        np.testing.assert_allclose(quantile(MEV, 1.0 - np.exp(-1.0)), 0.0, rtol=0, atol=1e-12)

    def test_logistic_quarter(self):
        np.testing.assert_allclose(quantile(LOGISTIC, 0.25), np.log(1.0 / 3.0))

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.01, 0.99, size=50)
        for family in (LOGISTIC, MEV):
            np.testing.assert_allclose(cdf(family, quantile(family, p)), p, rtol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_boundary_probability(self, p):
        with pytest.raises(ProbabilityOutOfRange):
            quantile(LOGISTIC, p)


class TestDerivativeHelpers:
    """The three z-derivatives feed backprop; check them against central differences."""

    def _fd(self, fn, z, step=1e-6):
        return (fn(z + step) - fn(z - step)) / (2 * step)

    def test_log_density_dz(self):
        z = np.linspace(-20.0, 20.0, 41)
        for family in (LOGISTIC, MEV):
            fd = self._fd(lambda v: log_density(family, v), z)
            np.testing.assert_allclose(log_density_dz(family, z), fd, rtol=1e-6, atol=1e-7)

    def test_neg_log_survivor_dz(self):
        z = np.linspace(-20.0, 5.0, 26)
        for family in (LOGISTIC, MEV):
            fd = self._fd(lambda v: -log_survivor(family, v), z)
            np.testing.assert_allclose(neg_log_survivor_dz(family, z), fd, rtol=1e-6, atol=1e-7)

    def test_neg_log_cdf_dz(self):
        z = np.linspace(-5.0, 20.0, 26)
        for family in (LOGISTIC, MEV):
            fd = self._fd(lambda v: -log_cdf(family, v), z)
            np.testing.assert_allclose(neg_log_cdf_dz(family, z), fd, rtol=1e-6, atol=1e-7)

    def test_neg_log_cdf_dz_mev_deep_tail(self):
        # the branch below the series cutoff approaches the limit value -1
        np.testing.assert_allclose(neg_log_cdf_dz(MEV, -500.0), -1.0, rtol=1e-12)
