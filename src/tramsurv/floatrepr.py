"""``repr`` of a float64 array in one vectorized pass: the shortest round-trip text.

``repr_bytes(values)`` gives each value a row of a ``uint8`` matrix that
holds the bytes of ``repr(float(v))`` in order, with NUL bytes in the
columns the value does not use: deleting the NULs gives the text.

Normal doubles get their digits from Schubfach (Giulietti 2020, "The
Schubfach way to render doubles"), in ``uint64`` arithmetic over the whole
array.  The decimals that read back as a double form an interval whose
width is at least 10^k, so at most one multiple of 10^(k+1) and at least one
of 10^k lie in it.  The steps follow Java's ``DoubleToDecimal`` but keep
the plain shortest digits, as Python does (``5e-324``, not ``4.9E-324``):
the multiple of 10^(k+1) when there is one, otherwise the multiple of 10^k
nearest the double, a tie going to the even digit.  The text is laid out
as ``float.__repr__`` does: fixed notation when the shortest decimal is at
least 1e-4 and below 1e16 (``0.000123``, ``12.5``, ``1000.0``), otherwise
``d.ddde±XX`` with at least two exponent digits (``1e-05``, ``1e+16``).
Zeros are laid out here too; subnormals, infinities and NaN keep ``repr``.
The digits come from a table of four-digit groups, whose trailing zeros are
blanked after the last non-zero group, and fixed notation's zeros up to one
digit after the point from a table of forms, so no digit count is taken.
A decimal point after the second digit or later needs a slot after every
digit; an array without one (all values below 10, exponents of two digits)
gets rows without the slots: 23 bytes for a value below 1, not 39.

``LineBuffer`` joins such NUL-padded fields side by side into lines and
deletes the NULs, in one buffer that a writer reuses from block to block.
"""

import functools
import math

import numpy as np

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of the normal doubles
_X_MIN, _X_MAX = -324, 308  # the exponents of exponent notation
_LOW32, _MASK63 = np.uint64(0xFFFFFFFF), np.uint64((1 << 63) - 1)
_FIXED = range(-3, 17)  # decimal point places, after the first digit, of fixed notation
_FORMS = len(_FIXED) + 2  # then exponent notation without and with a decimal point

# where the words of the four-digit groups with their trailing zeros blanked, of
# a first digit and of an exponent start in a word table, after the 10,000 groups
_BLANKED, _FIRSTS, _EXPONENTS = 10_000, 20_000, 20_010
_NO_EXPONENT = _EXPONENTS + _X_MAX - _X_MIN + 1  # the empty word of fixed notation
# added to 4 c: the lower end of a double's interval (one less again where the spacing
# is regular), the double and the upper end, in quarter ulps
_BOUNDS = np.array([[(1 << 64) - 1], [0], [2]], dtype=np.uint64)


@functools.cache
def _tables():
    """Schubfach's scaled powers of ten and the two row layouts, built on first use.

    For k in [_K_MIN, _K_MAX], g = floor(10^-k 2^-r) + 1, with r chosen so
    that 2^125 <= g < 2^126, is g1 2^63 + g0 with 63-bit words.  Column k of
    the first table holds g1, the 32-bit limbs of g1 and of g0, and
    floor(log2 10^-k) + 2 - 1075, to which a double's biased exponent adds to
    give its shift (in wrapping uint64 arithmetic); the columns run in the
    order of k modulo their count, so that ``take(k)`` reads a negative k as
    Python indexing does.  Then come the slotted and the packed row layout.
    """
    g = []
    for k in [*range(_K_MAX + 1), *range(_K_MIN, 0)]:
        e = (-k * 913_124_641_741) >> 38  # floor(log2 10^-k)
        r = e - 125
        gk = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1, g0 = gk >> 63, gk & ((1 << 63) - 1)
        g.append([g1, g1 & 0xFFFFFFFF, g1 >> 32, g0 & 0xFFFFFFFF, g0 >> 32,
                  (e + 2 - 1075) % (1 << 64)])
    g = np.array(g, dtype=np.uint64).T.copy()
    g.flags.writeable = False
    return g, _row_layout(False), _row_layout(True)


def _row_layout(packed: bool):
    """The tables of a row layout: its words, its forms and where their columns go.

    A row holds the sign, "0." and up to three zeros (fixed notation below 1),
    the first digit and a slot for a point after it, 16 digits, then "e", the
    exponent's sign and its digits.  The slotted layout has six 8-byte words,
    each of the 16 digits followed by a slot, and three exponent digits; the
    packed one has seven 4-byte words and two exponent digits.  The word table
    holds the text of each four-digit group, then of each group with its
    trailing zeros blanked, the first digits, and the exponents (the last row
    is empty, for fixed notation); a row's first digit, groups and exponent go
    to its words from ``first_word`` on.  The form table holds the sign,
    prefix and point bytes by (sign, notation), and fixed notation's zeros up
    to one digit after the point, which OR into the digits.  The digits end
    at column ``digits_end`` and the exponent at ``width``.
    """
    size, step = (4, 1) if packed else (8, 2)
    words = np.zeros((_NO_EXPONENT + 1, size), dtype=np.uint8)
    numerals = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = words[:_FIRSTS].reshape(2, 10, 10, 10, 10, size)  # built by broadcasting bytes
    for j in range(4):
        quads[..., step * j] = numerals.reshape((10,) + (1,) * (3 - j))
        # digit j is a trailing zero of the group when it and the digits after it are 0
        quads[(1,) + (slice(None),) * j + (0,) * (4 - j) + (step * j,)] = 0
    words[_FIRSTS:_EXPONENTS, 6 % size] = numerals
    texts = [f"e{x:+03d}".encode() for x in range(_X_MIN, _X_MAX + 1)]  # e-05, e+16, e-100
    words[_EXPONENTS:_NO_EXPONENT] = np.array(
        [t * (len(t) <= size) for t in texts], dtype=f"S{size}").view(np.uint8).reshape(-1, size)

    places = np.r_[6, 8:24] if packed else np.arange(6, 40, 2)  # the digits' columns
    digits_end = places[-1] + 1 + (not packed)
    forms = np.zeros((2, _FORMS, digits_end + size), dtype=np.uint8)
    forms[1, :, 0] = ord("-")
    for form, point in enumerate(_FIXED):
        if point <= 0:
            forms[:, form, 1 : 3 - point] = np.frombuffer(b"0." + b"0" * -point, dtype=np.uint8)
        elif point == 1 or not packed:  # the point in the slot after digit point - 1
            forms[:, form, places[: point + 1]] = ord("0")
            forms[:, form, places[point - 1] + 1] = ord(".")
    forms[:, _FORMS - 1, 7] = ord(".")
    dtype = np.uint32 if packed else np.uint64
    words, forms = words.view(dtype).ravel(), forms.reshape(2 * _FORMS, -1).view(dtype)
    words.flags.writeable = forms.flags.writeable = False
    return words, forms, int(packed), digits_end, digits_end + 5 - packed


def _mulhi(a_limbs, k, b_lo, b_hi):
    """High 64-bit words of the 128-bit products a b, in 32-bit limbs as ``sample._mulhilo``.

    a's low and high limbs are the rows of ``a_limbs`` at the columns k, each
    gathered when it is used, and b's limbs are (3, n).  With a < 2^63 and
    b < 2^60 the middle sum stays below 2^64, so no carry is lost.
    """
    middle, product = np.empty_like(b_lo), np.empty_like(b_lo)
    a = a_limbs[0].take(k)
    for i in range(3):  # row by row, since numpy would copy a broadcast a in buffers
        np.multiply(a, b_lo[i], out=middle[i])
        np.multiply(a, b_hi[i], out=product[i])
    middle >>= np.uint64(32)
    middle += product
    del a
    a = a_limbs[1].take(k)
    for i in range(3):
        np.multiply(a, b_lo[i], out=product[i])
    middle += product
    middle >>= np.uint64(32)
    for i in range(3):
        np.multiply(a, b_hi[i], out=product[i])
    product += middle
    return product


def _shortest(bits, biased):
    """Shortest round-trip decimals f 10^k of normal doubles; f has 16 or 17 digits.

    ``biased`` holds their biased exponents.  Schubfach's three products, of
    the lower end of a double's interval, the double and the upper end, run
    as one over a (3, n) operand.
    """
    g = _tables()[0]
    c = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    regular = (c != np.uint64(1 << 52)) | (biased == 1)  # the lower neighbour is a full ulp away
    # k = floor(log10 2^q), or floor(log10(3/4 2^q)) where the spacing is not regular
    # (Java's MathUtils, exact for |q| < 5e6)
    k = (biased.astype(np.int64) - 1075) * 661_971_961_083
    k -= np.where(regular, 0, 274_743_187_321)
    k >>= 41
    cp = (c << np.uint64(2)) + _BOUNDS
    del c
    cp[0] -= regular
    cp <<= g[5].take(k) + biased  # 2 to 5
    del regular
    # Schubfach's r_o': cp g 2^-127 rounded to odd, for g = g1 2^63 + g0
    z = g[0].take(k) * cp
    z >>= np.uint64(1)
    hi = cp >> np.uint64(32)
    cp &= _LOW32
    z += _mulhi(g[3:5], k, cp, hi)
    rounded = _mulhi(g[1:3], k, cp, hi)
    del cp, hi
    rounded += z >> np.uint64(63)
    z &= _MASK63
    z += _MASK63
    z >>= np.uint64(63)
    rounded |= z
    del z
    # An odd significand's interval excludes its ends (reading rounds half to even).
    lo, vb, hi = rounded
    odd = bits & np.uint64(1)
    lo += odd
    hi -= odd
    del odd
    s = vb >> np.uint64(2)
    sp10 = s // np.uint64(10) * np.uint64(10)  # s with its last digit cut
    upin, wpin = lo <= sp10 << np.uint64(2), (sp10 << np.uint64(2)) + np.uint64(40) <= hi
    uin, win = lo <= s << np.uint64(2), (s << np.uint64(2)) + np.uint64(4) <= hi
    # s, s + 1 or the nearer of them to the double (a tie to the even one): one reads back
    nearer_up = (vb & np.uint64(3)) + (s & np.uint64(1)) > 2
    f = s + (win & (~uin | nearer_up))
    f = np.where(upin != wpin, sp10 + np.uint64(10) * wpin, f)
    return f, k


def _layout(f, k, neg):
    """Rows of the text of the decimals f 10^k, NUL where unused; negative where ``neg`` is 1.

    f has 16 or 17 digits, or is 0 with k = -15 for a zero.
    """
    short = f < np.uint64(10**16)
    f = np.where(short, f * np.uint64(10), f)  # 17 digits
    point = k + 17 - short  # the decimal point's place after the first digit
    # no point after the second digit or later, and exponents of two digits
    packed = point.max(initial=1) <= 1 and point.min(initial=1) >= -98
    words, forms, first_word, digits_end, width = _tables()[1 + packed]
    # the first digit, then four groups of four
    top = f // np.uint64(10**8)
    low = (f - top * np.uint64(10**8)).astype(np.uint32)
    del f
    top = top.astype(np.uint32)
    index = np.empty((6, len(top)), dtype=np.intp)  # the words of the rows
    np.floor_divide(top, np.uint32(10**8), out=index[0])
    top -= (index[0] * 10**8).astype(np.uint32)
    fixed = (point >= _FIXED[0]) & (point <= _FIXED[-1])
    # leave out the sign and exponent columns when no row uses them
    columns = slice(0 if neg.any() else 1, digits_end if fixed.all() else width)
    # exponent notation has a point when a digit after the first is not 0
    form = np.where(fixed, point - _FIXED[0], _FORMS - 2 + ((top | low) != 0)) + neg * _FORMS
    index[5] = np.where(fixed, _NO_EXPONENT, point + (_EXPONENTS - 1 - _X_MIN))
    del point, fixed
    index[0] += _FIRSTS
    for row, part in ((1, top), (3, low)):
        np.floor_divide(part, np.uint32(10**4), out=index[row])
        np.subtract(part, index[row] * 10**4, out=index[row + 1])
    del top, low
    # a group shows its trailing zeros only when a later group is not 0
    later = index[2:5] == 0
    later[1] &= later[2]
    later[0] &= later[1]
    index[1:4] += later * _BLANKED
    index[4] += _BLANKED
    del later
    text = words.take(index)
    del index
    rows = forms.take(form, axis=0)
    del form
    for column, word in enumerate(text, first_word):
        rows[:, column] |= word
    return rows.view(np.uint8)[:, columns]


def repr_bytes(values) -> np.ndarray:
    """Row i holds the bytes of ``repr(float(v))`` for the i-th ``v`` of ``values``, with NULs.

    ``values`` is read as float64 and flattened.  Deleting the NUL bytes of a
    row gives the text; the rows share one width.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    biased = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    normal = biased - np.uint64(1) < np.uint64(0x7FE)  # not zero, subnormal, infinite or NaN
    every = normal.all()
    rows = slice(None) if every else normal  # a view of all rows, or a copy of the normal ones
    biased = biased[rows]
    shortest = _shortest(bits[rows], biased)
    del biased
    if every:
        f, k = shortest
    else:  # made after, so that they do not sit beside the temporaries of _shortest
        f, k = np.zeros(bits.size, dtype=np.uint64), np.full(bits.size, -15)  # zero is 0.0
        f[normal], k[normal] = shortest
    del shortest
    text = _layout(f, k, (bits >> np.uint64(63)).view(np.int64))
    if not every:
        other = np.flatnonzero(~normal & (bits << np.uint64(1) != 0))  # not zero
        # the rows hold their longest repr: 23 bytes, 24 with a sign (a subnormal's)
        special = [repr(v).encode() for v in bits[other].view(np.float64).tolist()]
        width = text.shape[1]
        text[other] = np.array(special, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
    return text


class LineBuffer:
    """Lines of NUL-padded fields, laid out in one ``uint8`` buffer that is kept for every block.

    A field is a uint8 array with text on its last axis, padded with NULs as
    :func:`repr_bytes` and numpy's ``S`` arrays pad their text, or a byte
    string that every line repeats.  The leading axes of the arrays
    broadcast against each other, and each element of the broadcast shape
    is a line.  The buffer grows to the largest block's lines, so a writer
    that makes one per call faults in no fresh pages for them.  A field that
    comes back at the same place in a block of the same layout, as the same
    byte string or the same read-only array, keeps the columns it left in the
    buffer; a writeable array is copied every time.
    """

    def __init__(self):
        self._buffer = np.empty(0, dtype=np.uint8)
        self._layout = None  # the shape and field widths of the last block
        self._kept = []  # its fields that cannot change, None for the others

    def join(self, fields: list) -> bytes:
        """The lines of ``fields`` as bytes, NULs deleted.

        ``fields`` is emptied, so a caller's temporaries are freed before
        ``tobytes`` and ``translate`` copy the lines.
        """
        arrays = [np.frombuffer(f, dtype=np.uint8) if isinstance(f, bytes) else f for f in fields]
        shape = np.broadcast_shapes(*[a.shape[:-1] for a in arrays])  # see Coefficients.take
        widths = [a.shape[-1] for a in arrays]
        size = math.prod(shape) * sum(widths)
        if self._buffer.size < size:
            self._buffer, self._layout = np.empty(size, dtype=np.uint8), None
        lines = self._buffer[:size].reshape(*shape, sum(widths))
        kept = self._kept if self._layout == (shape, widths) else [None] * len(fields)
        self._layout, self._kept = (shape, widths), [
            f if isinstance(f, bytes) or not f.flags.writeable else None for f in fields]
        fields.clear()
        start = 0
        for field, array, width, old in zip(self._kept, arrays, widths, kept):
            if field is None or field is not old:
                lines[..., start : start + width] = array
            start += width
        del arrays
        return lines.tobytes().translate(None, b"\0")
