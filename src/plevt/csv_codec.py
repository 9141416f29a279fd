"""Plain decimal CSV lines to and from float64, in numpy integer arithmetic.

A plain decimal line reads ``-?[0-9]*\\.[0-9]+``; ``repr`` writes one for every
double in ``1e-4 <= |x| < 1e16``.  Both directions give exactly what Python
gives, and since integer operations decide every bit and byte, neither
depends on which SIMD kernels numpy dispatches to.

Reading, bit for bit as ``float()``: :func:`plain_decimals_into` converts a
block of such lines at once.

- It views the ``_WINDOW`` bytes that end at each line's end as three
  little-endian 64-bit words, and sets the bytes before the line's digits
  (a leading ``-`` among them) to ``'0'``.
- SWAR tests (bitwise tests on the 8 bytes of a word at once) find the
  ``'.'`` and check that every other byte is a digit.  The digits, the
  ``'.'`` read as ``0``, then convert to one integer ``v``, eight at a time.
  If the ``'.'`` has ``fd`` digits after it, ``v % 10**fd`` is the fraction
  part, and dropping the ``'.'``'s place gives the integer ``w``.
- Eisel-Lemire (D. Lemire, "Number parsing at a gigabyte per second",
  Software: Practice and Experience 51(8), 2021) rounds ``w * 10**-fd`` to
  the nearest double, ties to even, from one 128-bit product with a
  reciprocal of ``5**fd``.  A float64 conversion only estimates ``w``'s bit
  length, which an integer test then corrects.

A line longer than ``_WINDOW`` bytes after its sign, or whose bytes with the
``'.'`` read as ``0`` form an integer of ``10**19`` or more, is not converted.

Writing, byte for byte as ``repr``: :func:`repr_lines` finds each value's
shortest round-trip digits with Schubfach's rule (R. Giulietti, "The
Schubfach way to render doubles", 2020), in exact integer arithmetic, and
lays out each plain decimal line in three 64-bit words.  A value whose
``repr`` has an exponent goes to ``repr`` itself.
"""

from __future__ import annotations

import numpy as np

#: Bytes read per line: the longest plain decimal line converted, after its sign.
_WINDOW = 24
_MAX_FRACTION_DIGITS = _WINDOW - 1
_U = np.uint64


def _every_byte(b: int) -> np.uint64:
    return _U(int.from_bytes(bytes([b]) * 8, "little"))


_ZEROS, _DOTS, _LOW7, _HIGH_BITS, _ONES = map(_every_byte, (0x30, 0x2E, 0x7F, 0x80, 0x01))
#: 0x76 + b sets bit 7 of a byte b <= 0x7F exactly when b > 9
_TENS_CARRY = _every_byte(0x76)
_LOW32 = _U(0xFFFFFFFF)
#: column m of row k: the bytes of word k that lie at or past byte m of the window
_KEEP = np.array([[(2**64 - 1) ^ (2**(8 * min(8, max(0, m - 8 * k))) - 1)
                   for m in range(_WINDOW + 1)] for k in range(3)], np.uint64)
#: row k: for an x with 0x01 in byte j alone, (x * _AFTER[k]) >> 56 is 23 - 8k - j,
#: the number of window bytes after byte j of word k; no byte sum carries
_AFTER = np.array([[int.from_bytes(bytes(16 - 8 * k + j for j in range(8)), "little")]
                   for k in range(3)], np.uint64)
_POW10 = np.array([10**k for k in range(20)], np.uint64)
#: each step joins neighbouring runs of 1, 2 and then 4 digits
_PAIRINGS = [(_U(8 * n), _U(10**n), _U(sum((2**(8 * n) - 1) << 16 * n * i for i in range(4 // n))))
             for n in (1, 2, 4)]


def _reciprocal(fd: int) -> int:
    """The ceiling of 2**b / 5**fd, with b such that it has 128 bits."""
    p = 5**fd
    return (1 << p.bit_length() + 127) // p + 1


_RECIPROCALS = [0] + [_reciprocal(fd) for fd in range(1, _MAX_FRACTION_DIGITS + 1)]
_RECIP_HIGH = np.array([c >> 64 for c in _RECIPROCALS], np.uint64)
_RECIP_LOW = np.array([c & 2**64 - 1 for c in _RECIPROCALS], np.uint64)
#: floor(-fd * log2(10)) + 63 (217706 / 2**16 is log2(10) closely enough for these fd), plus
#: the bias 1023, less the 1 that the mantissa's leading bit adds back
_EXPONENT = np.array([0] + [((217706 * -fd) >> 16) + 63 + 1023 - 1
                            for fd in range(1, _MAX_FRACTION_DIGITS + 1)], np.uint64)


def _eight_digits(w):
    """The eight digit bytes (values 0-9) of each word, first byte first, as one
    integer; computed in ``w``."""
    for shift, scale, mask in _PAIRINGS:
        low = w >> shift
        w *= scale
        w += low
        w &= mask
    return w


def _full_product(a, b):
    """The high and low words of the 128-bit products ``a * b`` of 64-bit words."""
    a1, a0 = a >> _U(32), a & _LOW32
    b1, b0 = b >> _U(32), b & _LOW32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    high = a1 * b1 + (p01 >> _U(32)) + (p10 >> _U(32)) + (mid >> _U(32))
    return high, (mid << _U(32)) | (p00 & _LOW32)


#: The line put before the text, so that the ``_WINDOW`` bytes that end at any
#: line's end lie inside the bytes.
PAD = b"\0" * (_WINDOW - 1) + b"\n"


def line_ends(data: bytes) -> np.ndarray:
    """The end of each line after the ``PAD`` line of ``data``: its ``\\n``, or the
    end of ``data``."""
    ends = np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n"))[1:]
    if data[-1] != ord("\n"):  # a last line without a newline
        ends = np.append(ends, len(data))
    return ends


def plain_decimals_into(data: bytes, ends, out) -> None:
    """Write the value of each line of ``data`` that ends at ``ends`` into ``out``:
    ``float()``'s bits for a plain decimal line, NaN for a line left unconverted.

    ``data`` is UTF-8 text that starts with ``PAD``, and ``ends`` is one
    block of consecutive line ends from :func:`line_ends`.
    """
    negative, w, fd, ok = _digits(data, ends)
    zero = w == 0
    w[zero] = 1
    bits = _nearest_double(w, fd)
    bits[zero] = 0
    bits |= negative.astype(np.uint64) << _U(63)
    out[...] = bits.view(np.float64)
    out[~ok] = np.nan


def _digits(data: bytes, ends):
    """The sign of each line, its digits without the '.' as one integer ``w``, the
    count ``fd`` of digits after the '.', and whether it is a plain decimal line
    (where it is not, ``w`` and ``fd`` are 1)."""
    u8 = np.frombuffer(data, np.uint8)
    starts = np.empty_like(ends)
    starts[0] = data.rfind(b"\n", 0, int(ends[0])) + 1
    np.add(ends[:-1], 1, out=starts[1:])
    negative = u8[starts] == ord("-")
    masked = _WINDOW - (ends - starts) + negative  # window bytes before the digits
    windows = np.ndarray((len(data) - _WINDOW + 1,), f"V{_WINDOW}", data, 0, (1,))
    words = windows[ends - _WINDOW].view("<u8").reshape(-1, 3).T.copy()
    keep = np.take(_KEEP, masked, axis=1, mode="clip")
    words &= keep
    words |= ~keep & _ZEROS
    # 0x80 in each '.' byte: the zero bytes of words ^ _DOTS, found with no carry between bytes
    dots = words ^ _DOTS
    dots = ~(((dots & _LOW7) + _LOW7) | dots) & _HIGH_BITS
    words += dots >> _U(6)  # '.' (0x2E) reads as '0'
    words ^= _ZEROS  # digits to 0-9
    digits = ~((((words & _LOW7) + _TENS_CARRY) | words) & _HIGH_BITS).any(axis=0)
    dots >>= _U(7)
    one_dot = ((dots * _ONES) >> _U(56)).sum(axis=0) == 1
    fd = ((dots * _AFTER) >> _U(56)).sum(axis=0)  # for one '.', the digits after it
    v = _eight_digits(words)
    ok = digits & one_dot & (masked >= 0) & (fd >= 1) & (v[0] < 1000)
    # v[0] < 1000: the window's integer, with '.' read as 0, is below 10**19
    v = v[0] * _U(10**16) + v[1] * _U(10**8) + v[2]
    fd[~ok] = 1
    fraction = v % _POW10[np.minimum(fd, 19)]
    w = (v - fraction) // _U(10) + fraction
    w[~ok] = 1
    return negative, w, fd, ok


def _nearest_double(w, fd):
    """The bits of the double nearest ``w * 10**-fd``, ties to even, for
    ``1 <= w < 2**64`` and ``1 <= fd <= 23`` (Eisel-Lemire)."""
    # normalise w to 64 bits; then the product's high word holds the 54 bits
    # that round to the double
    length = (w.astype(np.float64).view(np.uint64) >> _U(52)) - _U(1022)  # rounding may add 1
    length -= (w >> (length - _U(1))) == 0
    leading_zeros = _U(64) - length
    w = w << leading_zeros
    high, low = _full_product(w, _RECIP_HIGH[fd])
    # the low nine bits of high all set: a carry from the reciprocal's low word may reach them
    near = np.flatnonzero((high & _U(0x1FF)) == _U(0x1FF))
    extra, _ = _full_product(w[near], _RECIP_LOW[fd[near]])
    low[near] += extra
    high[near] += low[near] < extra
    upper = high >> _U(63)
    shift = upper + _U(9)
    mantissa = high >> shift
    # exactly halfway between two doubles, which needs 5**fd < 2**11: round to even
    tie = (low <= 1) & (fd <= 4) & ((mantissa & _U(3)) == 1) & ((mantissa << shift) == high)
    mantissa -= tie
    mantissa += mantissa & _U(1)
    mantissa >>= _U(1)
    # the implicit bit of a mantissa of 2**53 carries into the exponent
    return ((_EXPONENT[fd] + upper - leading_zeros) << _U(52)) + mantissa


# ---------------------------------------------------------------------------
# writing

#: The binades 2**E <= |x| < 2**(E+1) that hold every double repr writes without
#: an exponent, 1e-4 <= |x| < 1e16 once rounded to its shortest digits; there,
#: x = c * 2**q with a 53-bit integer c and q in [_Q_MIN, _Q_MAX]
_Q_MIN, _Q_MAX = -14 - 52, 53 - 52
#: the places of the decimal point in repr's plain decimal lines, 1e-4 <= |x| < 1e16,
#: with x = 0.d1d2... * 10**point
_FIRST_POINT, _LAST_POINT = -3, 16


def _floor_log10_pow2(q):
    """floor(log10(2**q)), exact for the q of every double (Giulietti's constant)."""
    return (q * 661971961083) >> 41


#: 5**-k for the k of the plain binades, all <= 0; 10**-k = 2**-k * 5**-k
_POW5 = np.array([5**m for m in range(1 - _floor_log10_pow2(_Q_MIN))], np.uint64)


def _round_to_odd(high, low, n):
    """The 128-bit ``(high, low) / 2**n`` rounded to odd, ``0 <= n < 64``: its floor,
    with bit 0 set where the division is inexact.  Comparisons with even
    integers give the same answers on it as on the exact quotient."""
    back = _U(64) - n
    return (low >> n) | (high << back) | ((low << back) != 0)


def _shortest_digits(x):
    """Whether each value is negative, its shortest round-trip digits as a
    17-digit integer, zeros appended, and the place ``point`` of its decimal
    point: x is ``±0.d1d2...d17 * 10**point``.  ±0.0 gives digits 0 and point 1,
    and a value outside the plain binades a point past ``_LAST_POINT``.

    Schubfach: with ``k = floor(log10(2**q))``, the rounding interval of
    ``x = c * 2**q``, in units of ``10**k``, is 1 to 10 wide.  So it holds at
    most one multiple of 10, which is then the one candidate a digit shorter;
    else the shortest digits are ``s = floor(x / 10**k)`` or ``s + 1``,
    whichever lies in the interval, or the nearer, ties to even, if both do.
    In the plain binades k <= 0, so ``4x * 10**-k = 8c * 5**-k / 2**(k - q + 1)``
    exactly: one 64x64-bit product and a shift, where Schubfach in general
    needs three 64x128-bit products with a table of 128-bit powers of ten.

    Two of Schubfach's general cases cannot change a digit here, so the
    interval is taken as closed and symmetric.  An end of the interval,
    ``(2c ± 1) * 2**(q - 1)``, is never a candidate: as k > q - 1, it has fewer
    factors of 2 than any multiple of ``10**k``, save at q = 1, where x itself
    is a candidate nearer than either end.  The interval of a power of two
    reaches only half as far below it, but here such a power is a decimal of
    at most 16 digits with no shorter one within half an ulp, so its digits
    are its own (each of the 68 is tested).
    """
    bits = x.view(_U)
    q = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64) - 1075
    in_binades = (q >= _Q_MIN) & (q <= _Q_MAX)
    np.clip(q, _Q_MIN, _Q_MAX, out=q)
    c = (bits & _U(2**52 - 1)) | _U(2**52)
    k = _floor_log10_pow2(q)
    n = (k - q + 1).astype(_U)
    five = _POW5[-k]
    # 4x, and its interval's ends half an ulp away, in units of 10**k, rounded to odd
    high, low = _full_product(c << _U(3), five)
    vb = _round_to_odd(high, low, n)
    half_ulp = five << _U(2)
    vbl = _round_to_odd(high - (low < half_ulp), low - half_ulp, n)
    low += half_ulp
    vbr = _round_to_odd(high + (low < half_ulp), low, n)
    s = vb >> _U(2)
    digits = np.where(vb + (s & _U(1)) <= (s << _U(2)) + _U(2), s, s + _U(1))  # nearer, ties even
    # s or s + 1 where only one of them is in the interval; over both, the
    # multiple of 10 that is alone in it, a digit shorter
    for lower, step in ((s, _U(1)), (s // _U(10) * _U(10), _U(10))):
        upper = lower + step
        lower_in = vbl <= lower << _U(2)
        upper_in = upper << _U(2) <= vbr
        np.copyto(digits, np.where(lower_in, lower, upper), where=lower_in != upper_in)
    # 16 or 17 digits; a zero is appended to 16
    seventeen = digits >= _U(10**16)
    point = k + 16 + seventeen
    digits *= np.where(seventeen, _U(1), _U(10))
    point[~in_binades] = _LAST_POINT + 1  # not plain
    zero = (bits << _U(1)) == 0  # ±0.0
    digits[zero] = 0
    point[zero] = 1
    return np.signbit(x), digits, point


def _words(rows: list[dict[int, int]]) -> np.ndarray:
    """Each row's bytes, ``{place: byte}`` with zero bytes elsewhere, as the three
    little-endian words of 24 bytes: one column per row."""
    whole = [sum(b << 8 * j for j, b in row.items()) for row in rows]
    return np.array([[w >> 64 * i & 2**64 - 1 for w in whole] for i in range(3)], np.uint64)


def _layout(negative: bool, point: int):
    """How a line with its decimal point at ``point`` is made from the 17 digit
    bytes D: D's shift in bytes, the places of D's digits before the '.', the
    places of those after it (D shifted a byte further), and the other bytes."""
    at = int(negative)
    sign = {0: ord("-")} if negative else {}
    if point >= 1:  # D[:point] '.' D[point:]
        return at, range(at, at + point), range(at + point + 1, 24), {**sign, at + point: ord(".")}
    start = at + 2 - point  # '0' '.' then -point zeros before D
    zeros = dict.fromkeys(range(at, start), ord("0"))
    return start - 1, range(0), range(start, 24), {**sign, **zeros, at + 1: ord(".")}


#: by layout, 20 * negative + point - _FIRST_POINT: D's shift in bits, and as
#: words, the places of D's digits before the '.', after it, and the other bytes
_LAYOUTS = [_layout(negative, point) for negative in (False, True)
            for point in range(_FIRST_POINT, _LAST_POINT + 1)]
_SHIFT = np.array([8 * shift for shift, _, _, _ in _LAYOUTS], np.uint64)
_BEFORE_POINT = _words([dict.fromkeys(before, 0xFF) for _, before, _, _ in _LAYOUTS])
_AFTER_POINT = _words([dict.fromkeys(after, 0xFF) for _, _, after, _ in _LAYOUTS])
_FIXED = _words([fixed for _, _, _, fixed in _LAYOUTS])
#: by the line's length L before its '\n': the places of the line, and '\n' at L
_LINE = _words([dict.fromkeys(range(n), 0xFF) for n in range(24)])
_NEWLINE = _words([{n: ord("\n")} for n in range(24)])
#: each step splits every 32-bit and then 16-bit lane, below 10**4 and then 100,
#: into its quotient by 100 and then 10, and the remainder in the next lane up; the
#: quotient is a multiply and shift, exact below those bounds
_SPLITS = [(_U(16), _U(100), _U(5243), _U(19), _U(0x0000007F0000007F)),
           (_U(8), _U(10), _U(103), _U(10), _U(0x000F000F000F000F))]


def _digit_bytes(v):
    """The eight digits of each ``v < 10**8`` as bytes of value 0-9, the first in
    the lowest byte: the inverse of :func:`_eight_digits`."""
    high = v // _U(10**4)
    v = high | ((v - high * _U(10**4)) << _U(32))
    for shift, scale, reciprocal, bits, mask in _SPLITS:
        high = ((v * reciprocal) >> bits) & mask
        v = high | ((v - high * scale) << shift)
    return v


def _through_last_nonzero(w):
    """The count of bytes up to and including the last nonzero one, in each word
    of bytes <= 9."""
    nonzero = (w + _LOW7) & _HIGH_BITS
    for shift in (8, 16, 32):
        nonzero |= nonzero >> _U(shift)
    return np.bitwise_count(nonzero).astype(np.int64)


def _plain_rows(negative, digits, point):
    """Each value's plain decimal line and its ``\\n``, left-aligned in 24 bytes
    (a row of three little-endian words) with zero bytes after it, and the
    line's length before the ``\\n``; rows of other values hold no meaning."""
    # D's first eight digits, its next eight and its last
    first8 = digits // _U(10**9)
    rest = digits - first8 * _U(10**9)
    middle8 = rest // _U(10)
    last = rest - middle8 * _U(10)
    first8, middle8 = _digit_bytes(first8), _digit_bytes(middle8)
    middle_count = _through_last_nonzero(middle8)
    significant = np.where(last != 0, 17, np.where(middle_count > 0, 8 + middle_count,
                                                   _through_last_nonzero(first8)))
    # D[:point] '.' D[point:] with at least one digit after the '.', or '0.',
    # -point zeros and D
    length = negative + np.where(point >= 1, np.maximum(significant, point + 1) + 1,
                                 2 - point + significant)
    words = (first8 | _ZEROS, middle8 | _ZEROS, last | _U(ord("0")))
    layout = 20 * negative + point - _FIRST_POINT
    shift = _SHIFT.take(layout, mode="clip")
    further = shift + _U(8)
    rows = np.empty((digits.size, 3), np.uint64)
    previous = _U(0)
    for i, word in enumerate(words):  # word i of D shifted, and shifted a byte further
        line = (word << shift) | (previous >> (_U(64) - shift))
        after = (word << further) | (previous >> (_U(64) - further))
        line &= _BEFORE_POINT[i].take(layout, mode="clip")
        after &= _AFTER_POINT[i].take(layout, mode="clip")
        line |= after
        line |= _FIXED[i].take(layout, mode="clip")
        line &= _LINE[i].take(length, mode="clip")
        line |= _NEWLINE[i].take(length, mode="clip")
        rows[:, i] = line
        previous = word
    return rows, length


def repr_lines(x) -> str:
    """``"".join(repr(v) + "\\n" for v in x.tolist())`` for a 1-d float64 array of
    finite values.

    ±0.0 and every value whose ``repr`` is a plain decimal (no exponent) is
    laid out in numpy words; every other value goes to ``repr``.
    """
    negative, digits, point = _shortest_digits(x)
    plain = (point >= _FIRST_POINT) & (point <= _LAST_POINT)
    rows, length = _plain_rows(negative, digits, point)
    rows[~plain] = 0
    text = rows.tobytes().translate(None, b"\0").decode("ascii")
    others = np.flatnonzero(~plain)
    if others.size == 0:
        return text
    # each other value's line goes where its empty row is
    ends = np.cumsum(np.where(plain, length + 1, 0))[others].tolist()
    pieces, start = [], 0
    for end, value in zip(ends, x[others].tolist()):
        pieces += (text[start:end], repr(value), "\n")
        start = end
    pieces.append(text[start:])
    return "".join(pieces)
