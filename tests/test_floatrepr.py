"""repr_bytes against Python's own repr, the oracle it must equal byte for byte."""

import sys
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from tramsurv.floatrepr import LineBuffer, repr_bytes


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


# where a group's trailing zeros are blanked and where fixed notation forces zeros
_BOUNDARIES = [100.0, 1000.0, 1234.5, 10.25, 1e22, 1.0000000000000002, 0.001,
               123456789012345.6, 1e-05, 2e20]


@pytest.mark.parametrize("value", _BOUNDARIES + [-v for v in _BOUNDARIES])
def test_blanked_groups_and_forced_zeros(value):
    # alone, and beside values that need the other row layout (a point after a
    # later digit, a three-digit exponent)
    assert_matches_repr([value])
    assert_matches_repr([value, 0.5, 1e-300])
    assert_matches_repr([value, 0.5, 12.5])


def test_both_row_layouts_give_the_same_text():
    rng = np.random.default_rng(22)
    small = np.concatenate([rng.random(2000) ** 8, -rng.random(500) * 9.99, [0.0, 1.0, 9.5]])
    packed, slotted = repr_bytes(small), repr_bytes(np.append(small, 10.0))
    assert packed.shape[1] < slotted.shape[1]  # no slots for a point after a later digit
    assert_matches_repr(small)
    assert texts(small) == texts(np.append(small, 10.0))[:-1]


def test_longest_subnormal_repr_fits_the_narrowest_rows():
    values = np.array([1.7911909616477115e-308, 2.225073858507201e-308])
    assert max(len(repr(v)) for v in values.tolist()) == 23
    assert_matches_repr(values)
    assert_matches_repr(-values)


def test_working_set_of_a_writer_block():
    # a writer's block: the kernel's temporaries are (3, n) products at most
    values = np.random.default_rng(23).random(3200)
    repr_bytes(values)
    tracemalloc.start()
    try:
        repr_bytes(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 500 * 1024


def naive_join(fields) -> bytes:
    """Each line's fields, NULs deleted, one line after another."""
    arrays = [np.frombuffer(f, dtype=np.uint8) if isinstance(f, bytes) else np.asarray(f)
              for f in fields]
    shape = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
    wide = [np.broadcast_to(a, (*shape, a.shape[-1])) for a in arrays]
    return b"".join(a[line].tobytes().replace(b"\0", b"")
                    for line in np.ndindex(shape) for a in wide)


def _text_field(rng, shape, width):
    field = rng.integers(ord("a"), ord("z") + 1, size=(*shape, width), dtype=np.uint8)
    field[rng.random(field.shape) < 0.3] = 0
    return field


class TestLineBuffer:
    def test_a_read_only_field_that_comes_back_keeps_its_columns(self):
        rng = np.random.default_rng(24)
        times = _text_field(rng, (5,), 7)
        times.flags.writeable = False
        lines = LineBuffer()
        for _ in range(3):
            fields = [_text_field(rng, (4, 1), 3), times, _text_field(rng, (4, 5), 6), b"\r\n"]
            want = naive_join(fields)
            assert lines.join(fields) == want

    def test_a_writeable_field_changed_in_place_is_copied_again(self):
        rng = np.random.default_rng(25)
        field = _text_field(rng, (6,), 5)
        lines = LineBuffer()
        for _ in range(3):
            assert lines.join([field, b",", field[:, :2], b"\n"]) == naive_join(
                [field, b",", field[:, :2], b"\n"])
            field[...] = _text_field(rng, (6,), 5)

    def test_a_new_shape_lays_out_every_field_again(self):
        # a writer's partial last block
        rng = np.random.default_rng(26)
        times = _text_field(rng, (5,), 4)
        times.flags.writeable = False
        lines = LineBuffer()
        for subjects in (3, 3, 1, 3):
            fields = [_text_field(rng, (subjects, 1), 2), times, b"\r\n"]
            want = naive_join(fields)
            assert lines.join(fields) == want

    def test_new_bytes_and_new_widths_are_laid_out(self):
        rng = np.random.default_rng(27)
        lines = LineBuffer()
        for sep, width in ((b",", 3), (b";", 3), (b";", 4), (b"", 4)):
            fields = [_text_field(rng, (4,), width), sep, _text_field(rng, (4,), 2), b"\n"]
            want = naive_join(fields)
            assert lines.join(fields) == want

    def test_strided_fields(self):
        rng = np.random.default_rng(28)
        cells = _text_field(rng, (6, 2, 5), 3)
        cells.flags.writeable = False
        kept = cells[::2, 1, ::-1]  # a read-only strided view that comes back
        lines = LineBuffer()
        for _ in range(3):
            changing = _text_field(rng, (6, 5), 4)[::2]
            fields = [cells[::2, 0], b",", kept, changing, cells[1::2, 1, 2:3], b"\n"]
            want = naive_join(fields)
            assert lines.join(fields) == want
