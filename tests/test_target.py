import numpy as np
import pytest

from tramsurv.errors import ProbabilityOutOfRange
from tramsurv.numerics import sigmoid
from tramsurv.target import (
    TargetFamily,
    cdf,
    censored_nll,
    density,
    log_cdf,
    log_density,
    log_survivor,
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


def _nll_of_kind(family, z, kind):
    """``censored_nll`` with every row of one kind: exact, right or left."""
    z = np.asarray(z, dtype=float)
    exact = np.full(z.shape, kind == "exact")
    return censored_nll(family, z, exact, np.full(z.shape, True) if kind == "left" else None)


class TestDerivativeHelpers:
    """``censored_nll``'s z-derivatives feed backprop; check them against central differences."""

    def _fd(self, fn, z, step=1e-6):
        return (fn(z + step) - fn(z - step)) / (2 * step)

    def test_log_density_dz(self):
        z = np.linspace(-20.0, 20.0, 41)
        for family in (LOGISTIC, MEV):
            fd = self._fd(lambda v: log_density(family, v), z)
            dz = _nll_of_kind(family, z, "exact")[1]
            np.testing.assert_allclose(-dz, fd, rtol=1e-6, atol=1e-7)

    def test_neg_log_survivor_dz(self):
        z = np.linspace(-20.0, 5.0, 26)
        for family in (LOGISTIC, MEV):
            fd = self._fd(lambda v: -log_survivor(family, v), z)
            dz = _nll_of_kind(family, z, "right")[1]
            np.testing.assert_allclose(dz, fd, rtol=1e-6, atol=1e-7)

    def test_neg_log_cdf_dz(self):
        z = np.linspace(-5.0, 20.0, 26)
        for family in (LOGISTIC, MEV):
            fd = self._fd(lambda v: -log_cdf(family, v), z)
            dz = _nll_of_kind(family, z, "left")[1]
            np.testing.assert_allclose(dz, fd, rtol=1e-6, atol=1e-7)

    def test_neg_log_cdf_dz_mev_deep_tail(self):
        # the branch below the series cutoff approaches the limit value -1
        np.testing.assert_allclose(_nll_of_kind(MEV, [-500.0], "left")[1], -1.0, rtol=1e-12)


def _reference_dz(family, z, kind):
    """The separate z-derivatives ``censored_nll`` replaced, as they were written."""
    if family == LOGISTIC:
        return {
            "exact": -(1.0 - 2.0 * sigmoid(z)),
            "right": sigmoid(z),
            "left": -sigmoid(-z),
        }[kind]
    w = np.exp(np.minimum(z, 700.0))
    if kind == "exact":
        return -(1.0 - w)
    if kind == "right":
        return w
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = -np.exp(z - w) / (-np.expm1(-w))
    return np.where(z < -350.0, np.full_like(z, -1.0), ratio)


class TestCensoredNll:
    """One call for all kinds equals the separate per-kind expressions bit for bit."""

    Z = np.concatenate([
        np.linspace(-800.0, 800.0, 16001),
        np.nextafter([-700.0, 700.0, -350.0, -350.0, 700.0], [-np.inf, np.inf, -np.inf, 0.0, 0.0]),
        [-700.0, 700.0, -350.0, 0.0, -0.0, 1e-300, -1e-300, 35.0, 37.0, -37.0],
    ])
    REFERENCE = {"exact": log_density, "right": log_survivor, "left": log_cdf}

    @staticmethod
    def _bits(a):
        return np.asarray(a, dtype=float).view(np.int64)

    @pytest.mark.parametrize("family", [LOGISTIC, MEV])
    @pytest.mark.parametrize("kind", ["exact", "right", "left"])
    def test_one_kind(self, family, kind):
        nll, dz = _nll_of_kind(family, self.Z, kind)
        reference = -self.REFERENCE[kind](family, self.Z)
        np.testing.assert_array_equal(self._bits(nll), self._bits(reference))
        reference = _reference_dz(family, self.Z, kind)
        np.testing.assert_array_equal(self._bits(dz), self._bits(reference))

    @pytest.mark.parametrize("family", [LOGISTIC, MEV])
    def test_mixed_kinds_select_per_row(self, family):
        kinds = np.random.default_rng(17).integers(0, 3, size=self.Z.size)
        exact, left = kinds == 0, kinds == 2
        nll, dz = censored_nll(family, self.Z, exact, left)
        for code, kind in enumerate(["exact", "right", "left"]):
            rows = kinds == code
            ref_nll, ref_dz = _nll_of_kind(family, self.Z[rows], kind)
            np.testing.assert_array_equal(self._bits(nll[rows]), self._bits(ref_nll))
            np.testing.assert_array_equal(self._bits(dz[rows]), self._bits(ref_dz))
        # without left rows every non-exact row is right-censored
        nll_no_left, _ = censored_nll(family, self.Z, exact)
        np.testing.assert_array_equal(self._bits(nll_no_left[~exact]),
                                      self._bits(-log_survivor(family, self.Z[~exact])))
