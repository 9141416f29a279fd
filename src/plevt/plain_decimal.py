"""Plain decimal CSV lines to float64 in numpy integer arithmetic, bit for bit as ``float()``.

A plain decimal line reads ``-?[0-9]*\\.[0-9]+``; every ``repr`` of a double
in ``1e-4 <= |x| < 1e16`` is one.  :func:`plain_decimals_into` converts a
block of such lines at once:

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
  reciprocal of ``5**fd``.  Integer operations decide every bit (a float64
  conversion only estimates ``w``'s bit length, which an integer test then
  corrects), so the bits do not depend on which SIMD kernels numpy
  dispatches to.

A line longer than ``_WINDOW`` bytes after its sign, or whose bytes with the
``'.'`` read as ``0`` form an integer of ``10**19`` or more, is not converted.
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
