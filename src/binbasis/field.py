"""Exact arithmetic in GF(2^m) for m <= 32.

Field elements are plain ints: bit i of an element is the coefficient of
x^i in its polynomial representative modulo the field's irreducible
modulus. Addition is XOR. Fields of degree m <= 16 multiply, invert and
raise to powers through exp/log tables. Larger fields multiply with a
windowed carry-less kernel (4-bit windows, as in the comb method of
Lopez and Dahab) followed by a byte-at-a-time table reduction, and invert
with the extended Euclidean algorithm over GF(2)[x].

The exp table is built a block of 256 powers at a time. The kernel
computes g^0..g^255 of the primitive element g; x -> g^256 x is GF(2)-linear,
so each later block is the previous one's low and high bytes run through
byte tables of that map with bytes.translate.
"""

from __future__ import annotations

import functools
import struct
from operator import index

# Largest degree for which exp/log multiplication tables are built.
_TABLE_MAX_DEGREE = 16


def _poly_mul_gf2(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[x] polynomials given as bit masks."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _poly_mod_gf2(a: int, mod: int) -> int:
    """Remainder of a modulo mod in GF(2)[x]."""
    dm = mod.bit_length()
    while a.bit_length() >= dm:
        a ^= mod << (a.bit_length() - dm)
    return a


def _poly_gcd_gf2(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_mod_gf2(a, b)
    return a


def is_irreducible(poly: int, degree: int) -> bool:
    """Whether a degree-`degree` polynomial over GF(2) is irreducible.

    Checks gcd(x^(2^k) - x, poly) = 1 for k <= degree/2 and
    x^(2^degree) = x modulo poly.
    """
    if poly.bit_length() - 1 != degree:
        return False
    x = _poly_mod_gf2(2, poly)
    t = x
    for k in range(1, degree + 1):
        t = _poly_mod_gf2(_poly_mul_gf2(t, t), poly)
        if k <= degree // 2 and _poly_gcd_gf2(t ^ x, poly) != 1:
            return False
    return t == x


def _integers(what, *values):
    """values read by operator.index; ValueError unless each is an integer,
    so that no float reaches a cache: canonical_modulus, get_field's
    fields, the schedule cache or CountModel's memo."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"expected integer {what}, got {', '.join(map(repr, values))}") from None


@functools.lru_cache(maxsize=None, typed=True)
def canonical_modulus(degree: int) -> int:
    """Lexicographically smallest irreducible polynomial of the degree."""
    (degree,) = _integers("degree", degree)
    if not 1 <= degree <= 32:
        raise ValueError(f"degree must be in 1..32, got {degree}")
    for candidate in range(1 << degree, 1 << (degree + 1)):
        if is_irreducible(candidate, degree):
            return candidate
    raise AssertionError("no irreducible polynomial found")  # unreachable


def _mul_kernel(degree: int, modulus: int):
    """Multiplication in GF(2)[x] / (modulus) for operands below 2^degree."""
    # reduce[u] is the multiple q * modulus, deg q < 8, whose bits
    # degree..degree+7 read u.  It is indexed by that byte, not by q: the
    # low part of a dense modulus reaches the byte being cleared.  q -> u
    # is a bijection, so every byte value has its entry.
    reduce = [0] * 256
    for q in range(256):
        p = _poly_mul_gf2(q, modulus)
        reduce[(p >> degree) & 0xFF] = p
    m0, m8, m16, m24 = degree, degree + 8, degree + 16, degree + 24

    def mul(a: int, b: int) -> int:
        if a < b:
            a, b = b, a
        if b < 0 or a >> m0:
            raise ValueError(f"operand outside GF(2^{degree})")
        if b < 16:
            # Small operands are common (unit heads, small basis elements,
            # the table build's generator): a short bit loop is cheaper than
            # the window table, and r < 2^(m+4) needs one reduction step.
            r = 0
            while b:
                if b & 1:
                    r ^= a
                a <<= 1
                b >>= 1
            if r >> m0:
                r ^= reduce[r >> m0]
            return r
        a2 = a << 1
        a3 = a2 ^ a
        a4 = a << 2
        a5 = a4 ^ a
        a6 = a4 ^ a2
        a7 = a4 ^ a3
        a8 = a << 3
        window = (0, a, a2, a3, a4, a5, a6, a7,
                  a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a5, a8 ^ a6, a8 ^ a7)
        r = window[b & 15]
        b >>= 4
        s = 4
        while b:
            r ^= window[b & 15] << s
            b >>= 4
            s += 4
        if r >> m0:
            # r < 2^(2m-1) <= 2^63: four byte steps clear its bits above
            # degree m - 1, top byte first.
            r ^= reduce[r >> m24] << 24
            r ^= reduce[(r >> m16) & 0xFF] << 16
            r ^= reduce[(r >> m8) & 0xFF] << 8
            r ^= reduce[(r >> m0) & 0xFF]
        return r

    return mul


def _inv_euclid(a: int, modulus: int) -> int:
    """Inverse of a modulo an irreducible modulus, 0 < a < 2^deg(modulus).

    Extended Euclidean algorithm in GF(2)[x]; u = g1 * a and v = g2 * a
    modulo the modulus throughout, and g1, g2 stay below 2^deg(modulus).
    """
    u, v = a, modulus
    g1, g2 = 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2, j = v, u, g2, g1, -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


def _factorize(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    primes = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def _xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR of two byte strings of equal length."""
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


class Field:
    """GF(2^m) with a fixed irreducible modulus.

    Immutable after construction; all operations are pure functions of
    their arguments, so instances are safe to share across threads.
    """

    def __init__(self, degree: int, modulus: int | None = None):
        (degree,) = _integers("degree", degree)
        if not 1 <= degree <= 32:
            raise ValueError(f"degree must be in 1..32, got {degree}")
        if modulus is None:
            modulus = canonical_modulus(degree)
        else:
            (modulus,) = _integers("modulus", modulus)
            if not is_irreducible(modulus, degree):
                raise ValueError(
                    f"0x{modulus:x} is not an irreducible polynomial of degree {degree}"
                )
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree
        self._mul_raw = _mul_kernel(degree, modulus)
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._primitive: int | None = None
        if degree <= _TABLE_MAX_DEGREE:
            self._build_tables()
        else:
            self.mul = self._mul_raw

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def parse_spec(text: str) -> tuple[int, int]:
        """(degree, modulus) of a field spec string `<m>:0x<modulus-hex>`."""
        try:
            left, right = text.split(":")
            degree = int(left)
            if not right.lower().startswith("0x"):
                raise ValueError
            return degree, int(right, 16)
        except ValueError:
            raise ValueError(f"bad field spec {text!r}; expected '<m>:0x<hex>'")

    def spec_string(self) -> str:
        return f"{self.degree}:0x{self.modulus:x}"

    def __repr__(self) -> str:
        return f"Field({self.spec_string()!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.degree == other.degree
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.modulus))

    def elements(self, values, what: str) -> list[int]:
        """values as a list of ints, each read by operator.index; ValueError
        naming what unless each is an element of this field."""
        try:
            ints = list(map(index, values))
        except TypeError:
            ints = None
        if ints is None or ints and (min(ints) < 0 or max(ints) >= self.order):
            raise ValueError(f"{what} outside GF(2^{self.degree})")
        return ints

    # -- raw arithmetic ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Product by exp/log lookup; ValueError for an operand outside the field.

        Fields without log tables (m > 16) bind their multiply kernel over
        this method in `__init__`, so a product costs one call; the kernel
        makes the same check.  Here the checks sit off the path of two
        nonzero elements: in the zero branch and behind the lookup.
        """
        if a <= 0 or b <= 0:
            if a < 0 or b < 0 or a >= self.order or b >= self.order:
                raise ValueError(f"operand outside GF(2^{self.degree})")
            return 0
        try:
            return self._exp[self._log[a] + self._log[b]]
        except IndexError:
            raise ValueError(f"operand outside GF(2^{self.degree})") from None

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a nonzero field element."""
        if type(a) is not int:  # a plain int skips the operator.index read
            (a,) = _integers("element", a)
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        if not 0 < a < self.order:
            raise ValueError(f"{a!r} is not an element of GF(2^{self.degree})")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return _inv_euclid(a, self.modulus)

    def pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply; e >= 0."""
        if type(a) is not int or type(e) is not int:
            a, e = _integers("element and exponent", a, e)
        if e < 0:
            raise ValueError("negative exponent")
        if not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not an element of GF(2^{self.degree})")
        mul = self._mul_raw
        r = 1
        while e:
            if e & 1:
                r = mul(r, a)
            a = mul(a, a)
            e >>= 1
        return r

    def pow2k(self, a: int, d: int) -> int:
        """Frobenius power a^(2^d) by d squarings; GF(2)-linear in a."""
        if type(d) is not int:  # a plain int skips the operator.index read
            (d,) = _integers("Frobenius exponent", d)
        if d < 0:
            raise ValueError("negative Frobenius exponent")
        for _ in range(d):
            a = self.mul(a, a)
        return a

    # -- subfield structure --------------------------------------------------

    def subfield_degree(self, d: int) -> int:
        """d read by operator.index; ValueError unless GF(2^d) is a subfield,
        that is unless d is an integer of at least 1 dividing the degree."""
        (d,) = _integers("subfield degree", d)
        if d < 1 or self.degree % d:
            raise ValueError(f"GF(2^{d}) is not a subfield of GF(2^{self.degree})")
        return d

    def trace_rel(self, a: int, sub_deg: int, sup_deg: int) -> int:
        """Relative trace from GF(2^sup_deg) down to GF(2^sub_deg).

        Tr(a) = sum of a^(2^(sub_deg * j)) for j < sup_deg/sub_deg.
        """
        sub_deg, sup_deg = self.subfield_degree(sub_deg), self.subfield_degree(sup_deg)
        if sup_deg % sub_deg:
            raise ValueError(f"need {sub_deg} | {sup_deg} for a relative trace")
        if not self.in_subfield(a, sup_deg):
            raise ValueError(f"element {a:#x} is not in GF(2^{sup_deg})")
        acc = a
        t = a
        for _ in range(sup_deg // sub_deg - 1):
            t = self.pow2k(t, sub_deg)
            acc ^= t
        return acc

    def in_subfield(self, a: int, d: int) -> bool:
        """Whether a lies in the subfield GF(2^d); requires d | m."""
        return self.pow2k(a, self.subfield_degree(d)) == a

    def primitive_element(self) -> int:
        """The element of smallest bit pattern with order 2^m - 1."""
        if self._primitive is None:
            self._primitive = self._find_primitive()
        return self._primitive

    def _find_primitive(self) -> int:
        group_order = self.order - 1
        if group_order == 1:
            return 1
        primes = _factorize(group_order)
        for a in range(2, self.order):
            if all(self.pow(a, group_order // p) != 1 for p in primes):
                return a
        raise AssertionError("no primitive element found")  # unreachable

    def subfield_generator(self, d: int) -> int:
        """Generator of GF(2^d)*: the primitive element to the cofactor power."""
        d = self.subfield_degree(d)
        cofactor = (self.order - 1) // ((1 << d) - 1)
        return self.pow(self.primitive_element(), cofactor)

    # -- internals -----------------------------------------------------------

    def _build_tables(self) -> None:
        g = self.primitive_element()
        mul = self._mul_raw
        n = self.order - 1
        powers = [1]
        for _ in range(min(n, 256)):
            powers.append(mul(powers[-1], g))
        step = powers.pop()  # g^256, or g^n = 1 when one block holds every power
        if n > 256:
            # Block k + 1 is g^256 times block k.  Power p = lo ^ (hi << 8)
            # maps to image[lo] ^ image[hi << 8], and each image splits into
            # its low and high byte: four translate tables in all.
            tables = []
            for shift in (0, 8):
                image = [0]
                for k in range(shift, min(shift + 8, self.degree)):
                    bit = mul(step, 1 << k)
                    image += [u ^ bit for u in image]
                image += [0] * (256 - len(image))  # no high byte reaches 2^(m-8)
                tables.append((bytes(u & 0xFF for u in image), bytes(u >> 8 for u in image)))
            (lo_lo, lo_hi), (hi_lo, hi_hi) = tables
            lows = [bytes(p & 0xFF for p in powers)]
            highs = [bytes(p >> 8 for p in powers)]
            for _ in range(n // 256):
                lo, hi = lows[-1], highs[-1]
                lows.append(_xor_bytes(lo.translate(lo_lo), hi.translate(hi_lo)))
                highs.append(_xor_bytes(lo.translate(lo_hi), hi.translate(hi_hi)))
            packed = bytearray(2 * 256 * len(lows))
            packed[0::2] = b"".join(lows)
            packed[1::2] = b"".join(highs)
            powers = struct.unpack_from(f"<{n}H", packed)
        log = [0] * self.order
        for i, p in enumerate(powers):
            log[p] = i
        self._exp = [*powers, *powers]
        self._log = log


_FIELDS: dict[tuple[int, int], Field] = {}


def get_field(degree: int, modulus: int | None = None) -> Field:
    """Shared Field instance (table construction is done once per spec)."""
    if modulus is None:
        modulus = canonical_modulus(degree)
    key = _integers("degree and modulus", degree, modulus)
    if key not in _FIELDS:
        _FIELDS[key] = Field(*key)
    return _FIELDS[key]


def element_to_hex(a: int) -> str:
    """Serialized element form: lowercase hex, no prefix."""
    return format(a, "x")


def element_from_hex(text: str) -> int:
    value = int(text, 16)
    if value < 0:
        raise ValueError(f"negative element {text!r}")
    return value
