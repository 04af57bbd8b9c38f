import numpy as np
import pytest

from tramsurv.errors import QuadratureNonConvergence
from tramsurv.quadrature import MAX_NODES_PER_CALL, simpson, simpson_doubling


class TestSimpson:
    def test_exact_for_cubic(self):
        # Simpson integrates polynomials through degree 3 exactly
        f = lambda u: u**3 - 2.0 * u**2 + 0.5
        exact = 1.0 / 4.0 - 2.0 / 3.0 + 0.5
        np.testing.assert_allclose(simpson(f, 0.0, 1.0, 2), exact, rtol=1e-14)

    def test_empty_range(self):
        assert simpson(np.exp, 1.0, 1.0, 16) == 0.0
        assert simpson(np.exp, 2.0, 1.0, 16) == 0.0

    def test_odd_panels_rejected(self):
        with pytest.raises(ValueError):
            simpson(np.exp, 0.0, 1.0, 3)

    def test_converges_on_smooth_function(self):
        val = simpson(np.sin, 0.0, np.pi, 64)
        np.testing.assert_allclose(val, 2.0, rtol=1e-7)


class TestSimpsonDoubling:
    def test_smooth_integral(self):
        val = simpson_doubling(lambda u: np.exp(-u), 0.0, 5.0)
        np.testing.assert_allclose(val, 1.0 - np.exp(-5.0), rtol=1e-9)

    def test_zero_width(self):
        assert simpson_doubling(np.exp, 3.0, 3.0) == 0.0

    def test_raises_when_grids_disagree(self):
        wobble = lambda u: np.sin(1e6 * np.asarray(u)) ** 2
        with pytest.raises(QuadratureNonConvergence):
            simpson_doubling(wobble, 0.0, 1.0)

    def test_tiny_integral_hits_absolute_floor(self):
        # values far below the absolute floor converge immediately
        val = simpson_doubling(lambda u: np.full_like(np.asarray(u, float), 1e-20), 0.0, 1.0)
        np.testing.assert_allclose(val, 1e-20, rtol=1e-12)


class TestRowwiseDoubling:
    """Array limits: row r integrates over [a[r], b[r]] with fn(nodes, rows)."""

    @staticmethod
    def _smooth(u, rows):
        return np.exp(-u) * np.sin(3.0 * u) ** 2

    def test_one_nonconverging_row_raises(self):
        freq = np.array([1.0, 2.0, 1e6, 3.0])
        with pytest.raises(QuadratureNonConvergence):
            simpson_doubling(
                lambda u, rows: np.sin(freq[rows, None] * u) ** 2, np.zeros(4), np.ones(4)
            )

    def test_zero_width_rows_return_zero(self):
        a = np.array([0.0, 2.0, 1.0, 3.0])
        b = np.array([1.0, 2.0, 4.0, 2.5])
        est = simpson_doubling(self._smooth, a, b)
        assert est[1] == 0.0 and est[3] == 0.0
        np.testing.assert_allclose(est[0], simpson_doubling(lambda u: self._smooth(u, None), 0.0, 1.0))

    def test_row_alone_equals_row_in_batch(self):
        # frequencies spread the rows over different convergence levels
        rng = np.random.default_rng(11)
        a = rng.uniform(0.0, 1.0, 70)
        b = a + rng.uniform(0.0, 5.0, 70)
        freq = rng.uniform(0.5, 60.0, 70)

        def fn(u, rows):
            return np.exp(-u) * np.sin(freq[rows, None] * u) ** 2

        batch = simpson_doubling(fn, a, b)
        alone = [
            simpson_doubling(lambda u, rows, r=r: fn(u, rows + r), a[r : r + 1], b[r : r + 1])[0]
            for r in range(70)
        ]
        np.testing.assert_array_equal(batch, alone)

    def test_calls_never_exceed_node_cap(self):
        seen = []

        def recording(u, rows):
            assert u.shape == (rows.size, u.shape[1])
            seen.append(u.size)
            return np.sin(40.0 * u) ** 2

        # the frequency drives every row to the finest grid before it converges
        est = simpson_doubling(recording, np.zeros(9), np.full(9, 20.0))
        np.testing.assert_allclose(est, 10.0 - np.sin(1600.0) / 160.0, rtol=1e-7)
        assert max(seen) <= MAX_NODES_PER_CALL
