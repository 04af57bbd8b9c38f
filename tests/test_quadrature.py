import numpy as np
import pytest

from tramsurv import quadrature
from tramsurv.errors import QuadratureNonConvergence
from tramsurv.quadrature import gauss_kronrod


def integral(fn, *breaks, **kwargs):
    """The integral of ``fn(u)`` over one row of break points, with the rule's effort."""
    value, pieces, depth = gauss_kronrod(lambda u, rows: fn(u), np.array([breaks]), **kwargs)
    return value[0], pieces[0], depth[0]


def _polynomial(degree, seed, a=-1.0, b=1.0):
    """A random polynomial of ``degree`` and its exact integral over [a, b]."""
    poly = np.polynomial.Polynomial(np.random.default_rng(seed).normal(size=degree + 1))
    return poly, poly.integ()(b) - poly.integ()(a)


class TestGaussKronrod:
    """Oracles of the G7/K15 pair on one piece."""

    @pytest.mark.parametrize("degree", [0, 3, 13, 17, 22])
    def test_kronrod_exact_through_degree_22_on_one_piece(self, degree):
        poly, exact = _polynomial(degree, degree)
        # an infinite tolerance accepts the first K15 estimate of the one piece
        value, pieces, depth = integral(poly, -1.0, 1.0, rel_tol=np.inf)
        np.testing.assert_allclose(value, exact, rtol=1e-13)
        assert (pieces, depth) == (1, 0)

    def test_degree_24_is_not_exact_on_one_piece(self):
        # the oracle above is strict: the rule's exactness stops at degree 22
        value, _, _ = integral(lambda u: u**24, -1.0, 1.0, rel_tol=np.inf)
        assert abs(value - 2.0 / 25.0) > 1e-9

    @pytest.mark.parametrize("degree", [5, 13])
    def test_gauss_exact_through_degree_13_so_no_bisection(self, degree):
        poly, exact = _polynomial(degree, 100 + degree, -0.5, 2.0)
        value, pieces, depth = integral(poly, -0.5, 2.0)
        np.testing.assert_allclose(value, exact, rtol=1e-13)
        assert (pieces, depth) == (1, 0)

    def test_empty_range(self):
        assert integral(np.exp, 1.0, 1.0) == (0.0, 0, 0)
        assert integral(np.exp, 1.0, 1.0, 1.0) == (0.0, 0, 0)

    def test_converges_on_smooth_function(self):
        value, _, _ = integral(np.sin, 0.0, np.pi)
        np.testing.assert_allclose(value, 2.0, rtol=1e-12)


class TestAdaptiveBisection:
    def test_smooth_integral(self):
        value, _, _ = integral(lambda u: np.exp(-u), 0.0, 5.0)
        np.testing.assert_allclose(value, 1.0 - np.exp(-5.0), rtol=1e-9)

    def test_break_points_split_the_range(self):
        value, pieces, _ = integral(lambda u: np.exp(-u), 0.0, 1.0, 2.5, 5.0)
        np.testing.assert_allclose(value, 1.0 - np.exp(-5.0), rtol=1e-9)
        assert pieces >= 3

    def test_kink_is_bisected_to_tolerance(self):
        # |u - 1/3| has a kink inside the piece that no fixed rule integrates
        value, pieces, depth = integral(lambda u: np.abs(u - 1.0 / 3.0), 0.0, 1.0)
        np.testing.assert_allclose(value, 5.0 / 18.0, rtol=1e-7)
        assert depth > 0 and pieces == 1 + depth  # one piece per level holds the kink

    def test_raises_past_the_piece_budget(self):
        wobble = lambda u: np.sin(1e6 * np.asarray(u)) ** 2
        with pytest.raises(QuadratureNonConvergence, match=r"^1 integral\(s\) need more than 256 "
                           r"pieces at depth \d+: K15 and G7 still disagree"):
            integral(wobble, 0.0, 1.0)

    def test_budget_bounds_the_work(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_PIECES", 4)
        seen = []

        def kink(u):
            seen.append(u.size)
            return np.abs(u - 1.0 / 3.0)

        with pytest.raises(QuadratureNonConvergence, match="more than 4 pieces"):
            integral(kink, 0.0, 1.0)
        # one piece per level is split, so the rule stops after 4 evaluations of at most 2
        assert len(seen) <= 4 and sum(seen) <= 15 * 7

    def test_non_finite_values_never_converge(self):
        with pytest.raises(QuadratureNonConvergence):
            integral(lambda u: np.where(u > 0.5, np.nan, 1.0), 0.0, 1.0)

    def test_tiny_integral_hits_absolute_floor(self):
        # values far below the absolute floor converge immediately
        value, pieces, _ = integral(lambda u: np.full_like(u, 1e-20), 0.0, 1.0)
        np.testing.assert_allclose(value, 1e-20, rtol=1e-12)
        assert pieces == 1


class TestRowwiseGaussKronrod:
    """Rows of break points: row r integrates over [breaks[r, 0], breaks[r, -1]]."""

    @staticmethod
    def _smooth(u, rows):
        return np.exp(-u) * np.sin(3.0 * u) ** 2

    def test_one_nonconverging_row_raises(self):
        freq = np.array([1.0, 2.0, 1e6, 3.0])
        with pytest.raises(QuadratureNonConvergence, match=r"^1 integral\(s\)"):
            gauss_kronrod(lambda u, rows: np.sin(freq[rows, None] * u) ** 2,
                          np.array([[0.0, 1.0]] * 4))

    def test_zero_width_rows_return_zero(self):
        breaks = np.array([[0.0, 1.0], [2.0, 2.0], [1.0, 4.0], [3.0, 3.0]])
        value, pieces, depth = gauss_kronrod(self._smooth, breaks)
        assert value[1] == 0.0 and value[3] == 0.0
        assert pieces[1] == pieces[3] == 0 and depth[1] == depth[3] == 0
        alone, _, _ = integral(lambda u: self._smooth(u, None), 0.0, 1.0)
        np.testing.assert_allclose(value[0], alone)

    def test_row_alone_equals_row_in_batch(self):
        # frequencies and kinks spread the rows over different depths and piece counts
        rng = np.random.default_rng(11)
        a = rng.uniform(0.0, 1.0, 70)
        b = a + rng.uniform(0.0, 5.0, 70)
        inner = np.sort(rng.uniform(a[:, None], b[:, None], (70, 3)), axis=1)
        inner[::4, 1] = inner[::4, 0]  # some rows have a zero-width piece
        breaks = np.column_stack([a, inner, b])
        freq = rng.uniform(0.5, 60.0, 70)
        kink = rng.uniform(a, b)

        def fn(u, rows):
            return np.exp(-u) * np.sin(freq[rows, None] * u) ** 2 + np.abs(u - kink[rows, None])

        batch = gauss_kronrod(fn, breaks)
        assert len(set(batch[2])) > 3 and len(set(batch[1])) > 3
        for r in range(70):
            alone = gauss_kronrod(lambda u, rows, r=r: fn(u, rows + r), breaks[r : r + 1])
            assert [v[0] for v in alone] == [v[r] for v in batch]

    def test_calls_never_exceed_node_bound(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_NODES", 15 * 256)
        seen = []

        def recording(u, rows):
            assert u.shape == (rows.size, u.shape[1])
            seen.append(u.size)
            return np.sin(40.0 * u) ** 2

        # the frequency drives every row to the full budget of pieces before it converges
        value, pieces, depth = gauss_kronrod(recording, np.tile([0.0, 20.0], (9, 1)))
        np.testing.assert_allclose(value, 10.0 - np.sin(1600.0) / 160.0, rtol=1e-7)
        assert np.all(pieces == 256) and np.all(depth == 8)
        assert max(seen) == 15 * 256  # the last pass takes one row per call
