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

# The columns of a row, built as six 8-byte words: the sign, "0." and up to
# three zeros (fixed notation below 1), 17 digits each followed by a slot for
# the decimal point, then "e", the exponent's sign and three exponent digits.
_SIGN, _POINT_ZERO, _DIGITS, _EXP, _WIDTH = 0, 1, 6, 40, 48
# where the words of a first digit and of an exponent start in the word table,
# after the 10,000 four-digit groups
_FIRSTS, _EXPONENTS = 10_000, 10_010
_NO_EXPONENT = _EXPONENTS + _X_MAX - _X_MIN + 1  # the empty word of fixed notation


def _flog10pow2(q):
    """floor(q log10 2) for int64 arrays, exact for |q| < 5e6 (Java's ``MathUtils``)."""
    return (q * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 2^q)) for int64 arrays."""
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e: int) -> int:
    """floor(e log2 10)."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _tables():
    """Schubfach's scaled powers of ten and the layout tables, built on first use.

    For k in [_K_MIN, _K_MAX], g = floor(10^-k 2^-r) + 1, with r chosen so
    that 2^125 <= g < 2^126, is split into two 63-bit words; ``log2`` is
    floor(log2 10^-k).  The layout tables are the text of each four-digit
    group and its trailing zeros, the digit masks by the number of digits
    shown, the sign, prefix and point bytes by (sign, notation), and the
    exponent bytes by exponent (the last row is empty, for fixed notation).
    """
    g1, g0, log2 = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        e = _flog2pow10(-k)
        r = e - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
        log2.append(e)

    # word rows: the four-digit groups (digits in every other byte), first digits, exponents;
    # built by broadcasting bytes, without temporaries
    rows = np.zeros((_NO_EXPONENT + 1, 8), dtype=np.uint8)
    numerals = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = rows[:_FIRSTS].reshape(10, 10, 10, 10, 8)
    zeros = np.zeros(10_000, dtype=np.uint8)  # trailing zeros of each group
    for j in range(4):
        quads[..., 2 * j] = numerals.reshape((10,) + (1,) * (3 - j))
        zeros.reshape(10, 10, 10, 10)[(...,) + (0,) * (j + 1)] += 1
    rows[_FIRSTS:_EXPONENTS, _DIGITS] = numerals
    for x in range(_X_MIN, _X_MAX + 1):
        digits = f"{abs(x):03d}"  # two of them below 100, after a NUL
        text = ("e-" if x < 0 else "e+") + (digits if abs(x) >= 100 else "\0" + digits[1:])
        rows[_EXPONENTS + x - _X_MIN, :5] = np.frombuffer(text.encode(), dtype=np.uint8)
    shown = np.zeros((18, _WIDTH), dtype=np.uint8)
    shown[:, _EXP:] = 0xFF
    for limit in range(18):
        shown[limit, _DIGITS : _DIGITS + 2 * limit : 2] = 0xFF

    layouts = np.zeros((2, _FORMS, _WIDTH), dtype=np.uint8)
    layouts[1, :, _SIGN] = ord("-")
    for form, point in enumerate(_FIXED):
        if point <= 0:
            layouts[:, form, _POINT_ZERO : _POINT_ZERO + 2 - point] = np.frombuffer(
                b"0." + b"0" * -point, dtype=np.uint8)
        else:  # the point slot after digit point - 1
            layouts[:, form, _DIGITS + 2 * point - 1] = ord(".")
    layouts[:, _FORMS - 1, _DIGITS + 1] = ord(".")
    words = rows.view(np.uint64).ravel()
    tables = (np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64),
              np.array(log2, dtype=np.int64), words, zeros, shown.view(np.uint64),
              layouts.reshape(2 * _FORMS, _WIDTH).view(np.uint64))
    for table in tables:
        table.flags.writeable = False
    return tables


def _limbs(x):
    return x & _LOW32, x >> np.uint64(32)


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """High 64-bit words of the 128-bit products a b, in 32-bit limbs as ``sample._mulhilo``.

    With a < 2^63 and b < 2^60 the middle sum stays below 2^64, so no carry
    is lost.
    """
    middle = a_hi * b_lo + a_lo * b_hi + (a_lo * b_lo >> np.uint64(32))
    return a_hi * b_hi + (middle >> np.uint64(32))


def _rop(g1, g1_limbs, g0_limbs, cp):
    """Schubfach's r_o': cp g 2^-127 rounded to odd, for g = g1 2^63 + g0."""
    cp_limbs = _limbs(cp)
    z = (g1 * cp >> np.uint64(1)) + _mulhi(*g0_limbs, *cp_limbs)
    rounded = _mulhi(*g1_limbs, *cp_limbs) + (z >> np.uint64(63))
    return rounded | (((z & _MASK63) + _MASK63) >> np.uint64(63))


def _shortest(bits):
    """Shortest round-trip decimals f 10^k of normal doubles; f has 16 or 17 digits."""
    g1, g0, log2 = _tables()[:3]
    biased = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    c = (bits & np.uint64((1 << 52) - 1)) | np.uint64(1 << 52)
    q = biased.astype(np.int64) - 1075
    regular = (c != np.uint64(1 << 52)) | (biased == 1)  # the lower neighbour is a full ulp away
    k = np.where(regular, _flog10pow2(q), _flog10_three_quarters_pow2(q))
    at = k - _K_MIN
    g1, g0 = g1.take(at), g0.take(at)
    g = [g1, _limbs(g1), _limbs(g0)]
    shift = (q + log2.take(at) + 2).astype(np.uint8)  # 2 to 5
    del biased, q, at, g0
    cb = c << np.uint64(2)
    # 4 10^-k times the lower end of the double's interval, the double and the upper end
    vbl = _rop(*g, cb - np.uint64(1) - regular << shift)
    vb = _rop(*g, cb << shift)
    vbr = _rop(*g, cb + np.uint64(2) << shift)
    del regular, g1, g, shift, cb
    # An odd significand's interval excludes its ends (reading rounds half to even).
    odd = c & np.uint64(1)
    lo, hi = vbl + odd, vbr - odd
    s = vb >> np.uint64(2)
    sp10 = s // np.uint64(10) * np.uint64(10)  # s with its last digit cut
    upin, wpin = lo <= sp10 << np.uint64(2), (sp10 << np.uint64(2)) + np.uint64(40) <= hi
    uin, win = lo <= s << np.uint64(2), (s << np.uint64(2)) + np.uint64(4) <= hi
    nearest = (vb + np.uint64(1) + (s & np.uint64(1))) >> np.uint64(2)  # a tie goes to even
    f = np.where(win, np.where(uin, nearest, s + np.uint64(1)), s)  # one of them reads back
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + np.uint64(10)), f)
    return f, k


def _layout(f, k, neg):
    """Rows of the text of the decimals f 10^k, NUL where unused; negative where ``neg``.

    f has 16 or 17 digits, or is 0 with k = -15 for a zero.
    """
    words, zeros, shown, layouts = _tables()[3:]
    short = f < np.uint64(10**16)
    f = np.where(short, f * np.uint64(10), f)  # 17 digits
    point = k + 17 - short  # the decimal point's place after the first digit
    # the first digit, then four groups of four
    top = f // np.uint64(10**8)
    low = (f - top * np.uint64(10**8)).astype(np.uint32)
    top = top.astype(np.uint32)
    first = top // np.uint32(10**8)
    top -= first * np.uint32(10**8)
    groups = []
    for part in (top, low):
        high = part // np.uint32(10**4)
        groups += [high, part - high * np.uint32(10**4)]
    ends = [zeros.take(group) for group in groups]  # trailing zeros, 4 for 0000
    top_end, low_end = (np.where(b == 4, 4 + a, b) for a, b in (ends[:2], ends[2:]))
    n = 17 - np.where(low_end == 8, 8 + top_end, low_end).astype(np.intp)  # significant digits
    del f, top, low, ends, top_end, low_end
    fixed = (point >= _FIXED[0]) & (point <= _FIXED[-1])
    # leave out the sign and exponent columns when no row uses them
    columns = slice(0 if neg.any() else 1, _EXP if fixed.all() else _EXP + 5)
    # fixed notation keeps the zeros before the point and one after it
    limit = np.where(fixed & (point >= 1), np.maximum(n, point + 1), n)
    form = np.where(fixed, point - _FIXED[0], _FORMS - 2 + (n > 1)) + neg.astype(np.intp) * _FORMS
    exponent = np.where(fixed, _NO_EXPONENT, point - 1 - _X_MIN + _EXPONENTS)
    # the (n, 6) arrays below are the kernel's largest: free what they do not need first
    index = np.stack([first + _FIRSTS, *groups, exponent], axis=1)
    del point, n, fixed, first, groups, exponent
    text = words.take(index)
    del index
    text &= shown.take(limit, axis=0)
    del limit
    text |= layouts.take(form, axis=0)
    return text.view(np.uint8)[:, columns]


def repr_bytes(values) -> np.ndarray:
    """Row i holds the bytes of ``repr(float(v))`` for the i-th ``v`` of ``values``, with NULs.

    ``values`` is read as float64 and flattened.  Deleting the NUL bytes of a
    row gives the text; the rows share one width.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    biased = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    normal = (biased != 0) & (biased != 0x7FF)
    del biased
    shortest = _shortest(bits[normal])  # before f and k, which would sit beside its temporaries
    f, k = np.zeros(bits.size, dtype=np.uint64), np.full(bits.size, -15)  # zero is 0.0
    f[normal], k[normal] = shortest
    del shortest
    text = _layout(f, k, bits >> np.uint64(63))
    other = np.flatnonzero(~normal & (bits << np.uint64(1) != 0))  # not zero
    if other.size:  # every row is wider than the 24 bytes of the longest repr
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
    that makes one per call faults in no fresh pages for them.
    """

    def __init__(self):
        self._buffer = np.empty(0, dtype=np.uint8)

    def join(self, fields: list) -> bytes:
        """The lines of ``fields`` as bytes, NULs deleted.

        ``fields`` is emptied, so a caller's temporaries are freed before
        ``tobytes`` and ``translate`` copy the lines.
        """
        arrays = [np.frombuffer(f, dtype=np.uint8) if isinstance(f, bytes) else f for f in fields]
        fields.clear()
        shape = np.broadcast_shapes(*(a.shape[:-1] for a in arrays))
        width = sum(a.shape[-1] for a in arrays)
        size = math.prod(shape) * width
        if self._buffer.size < size:
            self._buffer = np.empty(size, dtype=np.uint8)
        lines = self._buffer[:size].reshape(*shape, width)
        np.concatenate([np.broadcast_to(a, (*shape, a.shape[-1])) for a in arrays], axis=-1,
                       out=lines)
        del arrays
        return lines.tobytes().translate(None, b"\0")
