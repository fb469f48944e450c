"""Exact scalar arithmetic over small finite fields and the rationals.

Finite field elements are integer codes 0..q-1 in the polynomial basis: the
code of sum(c_i * t^i) is sum(c_i * p^i). Addition is digitwise mod p and
fills a q x q table once at construction. The product table is filled row by
row from it: a t^i comes from a by shifting digits and reducing by a fixed
monic modulus, and a b is a sum of those through the addition table. The
inverse of a is read off a's row, and a modulus whose table has a nonzero row
without a 1 is refused as reducible. Rational scalars are stdlib
Fractions. Every scalar, in and out, is a raw value: a code or a Fraction.
Both lanes are exact; nothing here ever touches floats.
"""

from fractions import Fraction
from functools import cache

import numpy as np

from .errors import DivisionByZero, NoPrimitiveRoot, NotFound, UnsupportedField

MAX_Q = 64

# Fixed modulus per prime-power size, coefficients little-endian including the
# leading 1. Irreducibility is re-verified on the product table.
_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (3, 6, 1),
    64: (1, 1, 0, 1, 1, 0, 1),
}

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _factor_prime_power(q):
    for p in _SMALL_PRIMES:
        if q % p == 0:
            m = 0
            n = q
            while n % p == 0:
                n //= p
                m += 1
            if n == 1:
                return p, m
            return None
    return None


def power_by_squaring(mul, x, n):
    """x^n for n >= 1 under the associative product ``mul``, in at most
    2 log2(n) products."""
    out = None
    while True:
        if n & 1:
            out = x if out is None else mul(out, x)
        n >>= 1
        if not n:
            return out
        x = mul(x, x)


class FieldSpec:
    """A field usable as scalars: GF(q) for q = p^m <= 64, or the rationals.

    Finite instances carry full q x q add/mul tables and q-entry neg/inv
    tables as plain lists, the mul table filled from the add table one row
    at a time; the numpy copies (add_np, mul_np) are what the vectorized
    sweep and potent tables index into.
    """

    def __init__(self, kind, q=None):
        self.kind = kind
        if kind == "rational":
            self.q = None
            self._hash = hash((kind, None))
            self.p = 0
            self.m = 0
            self.char = 0
            self.zero = Fraction(0)
            self.one = Fraction(1)
            return
        if kind != "finite":
            raise UnsupportedField(f"unknown field kind {kind!r}")
        if not isinstance(q, int) or q < 2 or q > MAX_Q:
            raise UnsupportedField(f"finite field size must be 2..{MAX_Q}, got {q!r}")
        pm = _factor_prime_power(q)
        if pm is None:
            raise UnsupportedField(f"{q} is not a prime power")
        self.q = q
        self._hash = hash((kind, q))
        self.p, self.m = pm
        self.char = self.p
        self.zero = 0
        self.one = 1
        self._build_tables()

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        mod = _MODULI.get(q)

        def digits(code):
            out = []
            for _ in range(m):
                out.append(code % p)
                code //= p
            return out

        def code(ds):
            c = 0
            for d in reversed(ds):
                c = c * p + d
            return c

        addt = self._addt = [
            [code([(x + y) % p for x, y in zip(digits(a), digits(b))])
             for b in range(q)] for a in range(q)]
        self._negt = [code([(-x) % p for x in digits(a)]) for a in range(q)]
        # b = (b - p^i) + t^i for the lowest nonzero digit i of b
        steps = []
        for b in range(1, q):
            i = 0
            while b // p ** i % p == 0:
                i += 1
            steps.append((b - p ** i, i))
        top = p ** (m - 1)
        self._mult = []
        for a in range(q):
            # a t^i for i < m: shift the digits up one place and subtract the
            # overflow digit times the monic modulus
            at = [a]
            for _ in range(m - 1):
                h, rest = divmod(at[-1], top)
                at.append(code([(d - h * c) % p
                                for d, c in zip(digits(rest * p), mod)]))
            row = [0] * q
            for b, (prev, i) in enumerate(steps, start=1):
                row[b] = addt[row[prev]][at[i]]
            self._mult.append(row)
        # GF(p)[t]/(mod) is a field exactly when every nonzero a has an inverse
        if any(1 not in row for row in self._mult[1:]):
            raise UnsupportedField(f"modulus for GF({q}) is reducible")
        self._invt = [0] + [row.index(1) for row in self._mult[1:]]

        self.add_np = np.array(self._addt, dtype=np.uint8)
        self.mul_np = np.array(self._mult, dtype=np.uint8)

    # --- raw ops on codes / Fractions ---

    def add(self, a, b):
        if self.kind == "rational":
            return a + b
        return self._addt[a][b]

    def neg(self, a):
        if self.kind == "rational":
            return -a
        return self._negt[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.kind == "rational":
            return a * b
        return self._mult[a][b]

    def inv(self, a):
        if self.kind == "rational":
            if a == 0:
                raise DivisionByZero("inverse of 0")
            return 1 / Fraction(a)
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self._invt[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow_(self, a, n):
        if n < 0:
            a = self.inv(a)
            n = -n
        return power_by_squaring(self.mul, a, n) if n else self.one

    def from_int(self, n):
        """Image of the integer n under the canonical ring map Z -> F."""
        if self.kind == "rational":
            return Fraction(n)
        return n % self.p  # prime-subfield codes coincide with residues

    def is_finite(self):
        return self.kind == "finite"

    def elements(self):
        if self.kind == "rational":
            raise UnsupportedField("cannot enumerate the rationals")
        return range(self.q)

    # --- serialization of raw values ---

    def format(self, a):
        return str(a)  # Fraction str is "p/q", finite codes are bare ints

    def parse(self, s):
        """A raw scalar from outside the program. Over GF(q): an int (not a
        bool) in 0..q-1 or a string of its digits. Over Q: an int, a
        Fraction, or a string Fraction reads with a nonzero denominator.
        Anything else is refused with UnsupportedField."""
        if isinstance(s, str):
            s = s.strip()
        if self.kind == "rational":
            if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
                return Fraction(s)
            if isinstance(s, str):
                try:
                    return Fraction(s)
                except (ValueError, ZeroDivisionError):
                    pass
            raise UnsupportedField(f"{s!r} is not a rational scalar")
        if isinstance(s, str) and s.isascii() and s.isdigit():
            s = int(s)
        if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < self.q:
            raise UnsupportedField(f"{s!r} is not a scalar code of GF({self.q})")
        return s

    def flag(self):
        """The --field token naming this field."""
        return "Q" if self.kind == "rational" else str(self.q)

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldSpec)
                                 and self.kind == other.kind and self.q == other.q)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "QQ" if self.kind == "rational" else f"GF({self.q})"


@cache
def GF(q):
    return FieldSpec("finite", q)


@cache
def QQ():
    return FieldSpec("rational")


def field_from_flag(s):
    """Resolve a --field token: a prime power like "9", or "Q"."""
    s = s.strip()
    if s.upper() == "Q":
        return QQ()
    try:
        q = int(s)
    except ValueError:
        raise UnsupportedField(f"bad field flag {s!r}")
    return GF(q)


def multiplicative_order(F, a):
    """The least n >= 1 with a^n = 1. Over the rationals only 1 and -1 have
    one; any other nonzero rational raises NotFound."""
    if a == F.zero:
        raise DivisionByZero("0 has no multiplicative order")
    if not F.is_finite() and a not in (1, -1):
        raise NotFound(f"{F.format(a)} has infinite multiplicative order")
    n = 1
    x = a
    while x != F.one:
        x = F.mul(x, a)
        n += 1
    return n


def primitive_root_of_unity(F, m):
    """The first of roots_of_unity(F, m) of multiplicative order exactly m,
    as a raw value. Over the rationals only m=1 and m=2 have one (1 and -1).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    for a in roots_of_unity(F, m):
        if multiplicative_order(F, a) == m:
            return a
    where = f"GF({F.q}) contains" if F.is_finite() else "the rationals contain"
    raise NoPrimitiveRoot(f"{where} no primitive {m}-th root of unity")


def roots_of_unity(F, m):
    """All solutions of x^m = 1, as raw values, deterministic order."""
    if not F.is_finite():
        return [Fraction(1), Fraction(-1)] if m % 2 == 0 else [Fraction(1)]
    return [a for a in range(1, F.q) if F.pow_(a, m) == F.one]
