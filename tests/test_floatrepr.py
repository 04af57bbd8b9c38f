"""repr_bytes against Python's own repr, the oracle it must equal byte for byte."""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tramsurv.floatrepr import repr_bytes


def texts(values) -> list[str]:
    return [row.tobytes().replace(b"\0", b"").decode() for row in repr_bytes(values)]


def assert_matches_repr(values):
    values = np.asarray(values, dtype=float).ravel()
    got = texts(values)
    want = [repr(v) for v in values.tolist()]
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert not wrong, f"{len(wrong)} of {len(want)} differ, e.g. (repr, kernel) {wrong[:5]}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_any_floats(values):
    assert_matches_repr(values)


def test_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64, size=200_000, dtype=np.uint64)
    assert_matches_repr(bits.view(np.float64))


def test_powers_of_two_and_their_neighbours():
    # a power of two is the one significand whose lower neighbour is half an ulp away
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    assert_matches_repr(np.concatenate([powers, np.nextafter(powers, 0.0),
                                        np.nextafter(powers, np.inf)]))


def test_powers_of_ten():
    assert_matches_repr([float(f"1e{k}") for k in range(-323, 309)])


def test_where_fixed_and_exponent_notation_switch():
    edges = np.array([1e-4, 1e16])
    values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    assert texts(values)[:2] == ["0.0001", "1e+16"]
    assert_matches_repr(values)
    assert_matches_repr(-values)


def test_zeros_and_extremes():
    values = [0.0, -0.0, sys.float_info.max, sys.float_info.min, -sys.float_info.max,
              5e-324, float("inf"), float("-inf"), float("nan")]
    assert texts(values)[:2] == ["0.0", "-0.0"]
    assert_matches_repr(values)


def test_a_tie_goes_to_the_even_digit():
    # c / 4 with c odd in [2^52, 2^53): the 17-digit candidates are equally near
    values = 2.0**50 + np.array([0.25, 0.75, 1.25, 1.75])
    assert texts(values) == ["1125899906842624.2", "1125899906842624.8",
                             "1125899906842625.2", "1125899906842625.8"]
    assert_matches_repr(values)


def test_integers_and_short_decimals():
    rng = np.random.default_rng(21)
    assert_matches_repr(rng.integers(0, 2**53, 20_000).astype(float))
    assert_matches_repr(rng.integers(-10**6, 10**6, 20_000) / 1000.0)
    assert_matches_repr(rng.random(20_000) ** 6)  # fixed notation down to 1e-4, then exponents


def test_rows_share_one_width_and_keep_the_input_order():
    out = repr_bytes(np.array([[1.5, -2.0], [np.nan, 1e-300]]))
    assert out.dtype == np.uint8 and out.ndim == 2 and out.shape[0] == 4
    assert texts([[1.5, -2.0], [np.nan, 1e-300]]) == ["1.5", "-2.0", "nan", "1e-300"]
    assert repr_bytes(np.array([])).shape[0] == 0
