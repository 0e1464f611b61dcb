"""``repr`` text of float64 values, a whole block at a time.

``repr(float)`` prints the fewest significant digits that parse back to the
same double. Ryū (U. Adams, "Ryū: fast float-to-string conversion", PLDI
2018) finds those digits with integer arithmetic alone, so here each of its
steps runs on a block of values in ``uint64``; every 64x128-bit product is
built from 32-bit limbs. A layout table then maps (sign, digit count,
decimal point or exponent width) to the bytes ``repr`` prints. Every integer
operation keeps an explicit ``uint64`` or ``int64`` dtype, so no result
depends on numpy's promotion rules.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

WIDTH = 26  # the longest repr, "-2.2250738585072014e-308", then "\r\n"

_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_MAGNITUDE = _U64(2**63 - 1)
_INF_BITS = _U64(0x7FF << 52)
_ONE_BITS = _U64(0x3FF << 52)
_POW10 = np.array([10**k for k in range(20)] + [2**64 - 1], dtype=np.uint64)
# decimal digits of 2**k, indexed by the biased exponent of a float64 (1 below 1)
_DIGITS_OF_POW2 = np.array([1] * 1023 + [len(str(2**k)) for k in range(65)], dtype=np.int64)

# The 32 source bytes of one value, as eight uint32 words:
#   0-15   the 16 low digit places of a 17-digit right-aligned integer
#   16-19  its leading digit, ".", "-", "e"
#   20-23  "0" and the hundreds, tens and ones of the decimal exponent
#   24-31  "+", "n", "a", "i", "f", ",", "\r", "\n"
_POINT, _MINUS, _E, _ZERO, _PLUS = 17, 18, 19, 20, 24
_N, _A, _I, _F, _COMMA, _CR, _LF = 25, 26, 27, 28, 29, 30, 31
_CONSTANTS = np.frombuffer(b"+naif,\r\n", dtype=np.uint32)

# a value is 0.DIGITS * 10**decpt; repr writes decpt -3..16 in fixed notation
_CLASSES = 24  # those 20 decpt, then e+XX, e+XXX, e-XX, e-XXX
_KEYS = 2 * 17 * _CLASSES + 3  # (sign, digit count, class), then nan, inf, -inf
_NAN, _INF, _NEG_INF = _KEYS - 3, _KEYS - 2, _KEYS - 1
_DECPT = 330  # offset of decpt in the class table; |decpt| <= 324


def _pow5bits(e: int) -> int:
    return ((e * 1217359) >> 19) + 1


def _log10_pow2(e: int) -> int:
    return (e * 78913) >> 18


def _log10_pow5(e: int) -> int:
    return (e * 732923) >> 20


@lru_cache(maxsize=None)
def _exponent_table() -> np.ndarray:
    """Ryū's constants, column 2 * biased exponent + (mantissa != 0).

    Rows 0-4 hold the 32-bit limbs of M, the 5^k multiplier shifted left by
    128 - j, so that Ryū's shift by j becomes a shift by 128. Rows 5-7 hold
    2M, and rows 8-10 the M or 2M that gives the lower bound, split at bits
    128 and 64. Row 11 holds the decimal exponent (two's complement); row 12
    the mask of bits of 4 m2 that must be clear for the exact product to end
    in q zeros (all ones where Ryū does not look); row 13 5^q where the bounds
    are tested for divisibility by 5^q; row 14 marks q <= 1; row 15 the hidden
    bit of 4 m2.
    """
    pow5 = [5**k for k in range(342)]
    inverse = [(1 << (p.bit_length() + 124)) // p + 1 for p in pow5]
    split = [p << 125 >> p.bit_length() if p.bit_length() <= 125 else p >> (p.bit_length() - 125)
             for p in pow5[:326]]
    table = np.zeros((16, 4094), dtype=np.uint64)
    for biased in range(2047):
        e2 = max(biased, 1) - 1077
        mask2, p5, q_small = 2**64 - 1, 0, 0
        if e2 >= 0:
            q = _log10_pow2(e2) - (e2 > 3)
            e10, mul = q, inverse[q]
            j = -e2 + q + 124 + _pow5bits(q)
            if q <= 21:
                p5 = 5**q
        else:
            q = _log10_pow5(-e2) - (-e2 > 1)
            e10, mul = q + e2, split[-e2 - q]
            j = q + 125 - _pow5bits(-e2 - q)
            if q <= 1:
                q_small = 1
            elif q < 63:
                mask2 = (1 << q) - 1
        m = mul << (128 - j)
        assert (4 * m >> 128) + 1 < 1000  # bounds vp - vm
        for nonzero in (0, 1):
            below = 2 * m if nonzero or biased <= 1 else m
            column = [(m >> (32 * k)) & 0xFFFFFFFF for k in range(5)]
            for bound in (2 * m, below):
                column += [bound >> 128, (bound >> 64) & (2**64 - 1), bound & (2**64 - 1)]
            column += [e10 % 2**64, mask2, p5, q_small, (biased > 0) << 54]
            table[:, 2 * biased + nonzero] = column
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _text_tables():
    """Digit words, the class of each decpt, and the layout table.

    The layout table holds, for each key, the source byte of each byte of
    the text, first with the ending "," and then, ``_KEYS`` rows on, with
    "\\r\\n"; ``length`` counts that ending too.
    """
    quads = np.frombuffer(b"".join(b"%04d" % k for k in range(10000)), dtype=np.uint32)
    leads = np.frombuffer(b"".join(b"%d.-e" % k for k in range(10)), dtype=np.uint32)
    decpt = np.arange(-_DECPT, _DECPT + 1)
    exp_class = 20 + 2 * (decpt < 1) + (np.abs(decpt - 1) >= 100)
    classes = np.where((decpt > -4) & (decpt <= 16), decpt + 3, exp_class).astype(np.int64)
    texts = []
    for neg in (0, 1):
        for nd in range(1, 18):
            places = [16 if k == 0 else k - 1 for k in range(17 - nd, 17)]
            for cls in range(_CLASSES):
                if cls < 20:
                    point = cls - 3
                    if point <= 0:
                        text = [_ZERO, _POINT] + [_ZERO] * -point + places
                    elif point < nd:
                        text = places[:point] + [_POINT] + places[point:]
                    else:
                        text = places + [_ZERO] * (point - nd) + [_POINT, _ZERO]
                else:
                    negative_exp, wide = divmod(cls - 20, 2)
                    text = places[:1] + ([_POINT] + places[1:] if nd > 1 else [])
                    text += [_E, _MINUS if negative_exp else _PLUS]
                    text += [21, 22, 23] if wide else [22, 23]
                texts.append([_MINUS] * neg + text)
    texts += [[_N, _A, _N], [_I, _N, _F], [_MINUS, _I, _N, _F]]
    layout = np.full((2 * _KEYS, WIDTH), _COMMA, dtype=np.int64)
    length = np.zeros(2 * _KEYS, dtype=np.uint8)
    for row, text in enumerate(texts):
        for ending, offset in (([_COMMA], 0), ([_CR, _LF], _KEYS)):
            layout[row + offset, : len(text) + len(ending)] = text + ending
            length[row + offset] = len(text) + len(ending)
    for table in (classes, layout, length):
        table.setflags(write=False)
    return quads, leads, classes, layout, length


def _digit_count(x: np.ndarray) -> np.ndarray:
    """Decimal digits of each uint64 below 10**17 (1 for 0).

    Between 2**k and 2**(k+1) lies at most one power of 10, and none within
    rounding of a power of 2, so the float exponent and one compare suffice.
    """
    count = _DIGITS_OF_POW2[(x.astype(np.float64).view(np.uint64) >> _U64(52)).view(np.int64)]
    return count + (x >= _POW10[count]).astype(np.int64)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryū's d2d: digits and exponent with value = digits * 10**exponent.

    ``bits`` are the uint64 patterns of positive finite nonzero doubles.
    """
    mantissa = bits & _U64((1 << 52) - 1)
    column = (((bits >> _U64(52)) << _U64(1)) | (mantissa != 0).astype(np.uint64)).view(np.int64)
    t = np.take(_exponent_table(), column, axis=1)
    mv = (mantissa << _U64(2)) | t[15]

    # mv * M in 32-bit limbs: column k sums the low half of a0 M_k, the high
    # half of a0 M_{k-1}, a1 M_{k-1} (below 2^55) and the carry
    a0 = mv & _LOW32
    a1 = mv >> _U64(32)
    limbs = []
    col = np.zeros_like(mv)
    for k in range(5):
        p = a0 * t[k]
        col += p & _LOW32
        limbs.append(col & _LOW32)
        col >>= _U64(32)
        p >>= _U64(32)
        col += p
        p = a1 * t[k]
        col += p
    vr = limbs[4] | (col << _U64(32))
    q_lo = limbs[0] | (limbs[1] << _U64(32))
    q_hi = limbs[2] | (limbs[3] << _U64(32))

    # the bounds are mv M + 2M and mv M - M or - 2M: add the top bits of the
    # multiple and the carry or borrow out of the low 128 bits
    lo = q_lo + t[7]
    carry = lo < q_lo
    hi = q_hi + t[6] + carry.astype(np.uint64)
    carry = (hi < q_hi) | ((hi == q_hi) & carry)
    vp = vr + t[5] + carry.astype(np.uint64)
    borrow = (q_hi < t[9]) | ((q_hi == t[9]) & (q_lo < t[10]))
    vm = vr - t[8] - borrow.astype(np.uint64)

    # Ryū's trailing-zero flags. Mantissas with q trailing zero bits set the
    # first; below, the exponents of rows 14 (e2 < 0, q <= 1) and 13 (e2 >= 0,
    # q <= 21) set either. The lower bound is 4 m2 - 1 - mm_shift.
    vr_tz = (mv & t[12]) == 0
    vm_tz = np.zeros(mv.shape, dtype=bool)
    even = (mv & _U64(4)) == 0
    mm_shift = ((column & 1) == 1) | (column <= 3)
    small = np.flatnonzero(t[14])
    if small.size:
        ev = even[small]
        vr_tz[small] = True
        vm_tz[small] = ev & mm_shift[small]
        vp[small] -= (~ev).astype(np.uint64)
    sel = np.flatnonzero(t[13])
    if sel.size:
        p5, m, ev = t[13, sel], mv[sel], even[sel]
        by5 = m % _U64(5) == 0
        vr_tz[sel] = by5 & (m % p5 == 0)
        vm_tz[sel] = ~by5 & ev & ((m - _U64(1) - mm_shift[sel].astype(np.uint64)) % p5 == 0)
        vp[sel] -= (~by5 & ~ev & ((m + _U64(2)) % p5 == 0)).astype(np.uint64)

    # Ryū drops one digit at a time while vp // 10 > vm // 10. That holds for
    # every r up to some r_max and for none above it, and it holds up to
    # floor(log10(vp - vm)) at least (vp - vm < 1000, see the table), so start
    # there and step on the few whose interval holds a multiple of 10^(r + 1).
    width = vp - vm
    removed = (width >= _U64(10)).astype(np.int64) + (width >= _U64(100)).astype(np.int64)
    step = np.flatnonzero(vp % _POW10[removed + 1] < width)
    while step.size:
        removed[step] += 1
        step = step[vp[step] % _POW10[removed[step] + 1] < width[step]]

    scale = _POW10[removed]
    digits = vr // scale
    rest = vr - digits * scale
    below = _POW10[np.maximum(removed - 1, 0)]
    round_up = (digits * scale <= vm) | (rest >= _U64(5) * below)

    general = np.flatnonzero(vr_tz | vm_tz)
    if general.size:
        # Ryū's rare path: it also tracks whether the dropped digits were zero
        d, r = digits[general], removed[general]
        lo = vm[general] // scale[general]
        la = rest[general] // below[general]
        r_tz = vr_tz[general] & (rest[general] == la * below[general])
        m_tz = vm_tz[general] & (vm[general] == lo * scale[general])
        go = np.flatnonzero(m_tz & (lo % _U64(10) == 0) & (lo != 0))
        while go.size:
            r_tz[go] &= la[go] == 0
            la[go] = d[go] % _U64(10)
            d[go] //= _U64(10)
            lo[go] //= _U64(10)
            r[go] += 1
            go = go[(lo[go] % _U64(10) == 0) & (lo[go] != 0)]
        la[r_tz & (la == _U64(5)) & (d % _U64(2) == 0)] = _U64(4)
        digits[general] = d
        removed[general] = r
        round_up[general] = ((d == lo) & ~(even[general] & m_tz)) | (la >= _U64(5))
    digits += round_up.astype(np.uint64)
    return digits, t[11].view(np.int64) + removed


def repr_cells(values, line_end: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``repr(float(v)) + ","`` for each value, and their lengths.

    Returns ``text`` of shape ``values.shape + (WIDTH,)`` (uint8, each cell
    padded after its ending) and ``length`` of shape ``values.shape``. With
    ``line_end`` the last value along the final axis ends in "\\r\\n"
    instead, so that the cells of a row joined together make one CSV line.
    The work arrays hold about 400 bytes per value; pass a few thousand
    values at a time to keep them in cache.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.reshape(-1).view(np.uint64)
    quads, leads, classes, layout, lengths = _text_tables()
    magnitude = bits & _MAGNITUDE
    nonfinite = magnitude >= _INF_BITS
    nan = magnitude > _INF_BITS
    zero = magnitude == 0
    odd = nonfinite | zero
    special = odd.any()
    if special:
        # 1.0 stands in for zeros and non-finite values; their text is set below
        magnitude[odd] = _ONE_BITS
    digits, exponent = _shortest(magnitude)
    if special:
        digits[zero] = 0
    ndigits = _digit_count(digits)
    decpt = exponent + ndigits
    key = ((bits >> _U64(63)).view(np.int64) * 17 + ndigits - 1) * _CLASSES
    key += classes[decpt + _DECPT]
    if special:
        key[nonfinite] = np.where(bits[nonfinite] >> _U64(63), _NEG_INF, _INF)
        key[nan] = _NAN
    if line_end:
        key.reshape(values.shape)[..., -1] += _KEYS

    src = np.empty((bits.size, 8), dtype=np.uint32)
    high = digits // _U64(10**8)
    low = digits - high * _U64(10**8)
    lead = high // _U64(10**8)
    high -= lead * _U64(10**8)
    for word, part in ((0, high), (2, low)):
        upper = part // _U64(10**4)
        src[:, word] = quads[upper.view(np.int64)]
        src[:, word + 1] = quads[(part - upper * _U64(10**4)).view(np.int64)]
    src[:, 4] = leads[lead.view(np.int64)]
    src[:, 5] = quads[np.abs(decpt - 1)]
    src[:, 6:] = _CONSTANTS
    index = np.take(layout, key, axis=0)
    index += np.arange(0, 32 * bits.size, 32, dtype=np.int64)[:, None]
    text = np.take(src.view(np.uint8).reshape(-1), index, mode="clip")
    return text.reshape(values.shape + (WIDTH,)), lengths[key].reshape(values.shape)
