"""Exact scalar arithmetic over small finite fields and the rationals.

Finite field elements are integer codes 0..q-1 in the polynomial basis: the
code of sum(c_i * t^i) is sum(c_i * p^i). Multiplication and inversion go
through exp/log tables built once at construction from a primitive element;
addition is digitwise mod p. Rational scalars are stdlib Fractions. Both
lanes are exact; nothing here ever touches floats.
"""

from fractions import Fraction

import numpy as np

from .errors import DivisionByZero, NoPrimitiveRoot, NotFound, UnsupportedField

MAX_Q = 64

# Fixed modulus per prime-power size, coefficients little-endian including the
# leading 1. Irreducibility is re-verified at construction; primitivity is not
# assumed (a generator is searched for).
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


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, mod, p):
    a = list(a)
    dm = len(mod) - 1
    inv_lead = pow(mod[-1], p - 2, p)
    while len(_poly_trim(a)) - 1 >= dm:
        a = _poly_trim(a)
        shift = len(a) - 1 - dm
        c = (a[-1] * inv_lead) % p
        for i, mi in enumerate(mod):
            a[shift + i] = (a[shift + i] - c * mi) % p
        a = _poly_trim(a)
    return _poly_trim(a)


def _is_irreducible(mod, p):
    # Exhaustive trial division by every monic polynomial of degree 1..deg/2.
    deg = len(mod) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            digits = []
            c = code
            for _ in range(d):
                digits.append(c % p)
                c //= p
            divisor = digits + [1]
            if _poly_mod(mod, divisor, p) == []:
                return False
    return True


class FieldSpec:
    """A field usable as scalars: GF(q) for q = p^m <= 64, or the rationals.

    Finite instances carry exp/log and full q x q add/mul tables; the numpy
    copies (add_np, mul_np) are what the compiled kernels index into.
    """

    def __init__(self, kind, q=None):
        self.kind = kind
        if kind == "rational":
            self.q = None
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
        self.p, self.m = pm
        self.char = self.p
        self.zero = 0
        self.one = 1
        self._build_tables()

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        if m == 1:
            mod = None
        else:
            mod = _MODULI[q]
            if not _is_irreducible(mod, p):
                raise UnsupportedField(f"modulus for GF({q}) is reducible")

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

        def raw_mul(a, b):
            if m == 1:
                return (a * b) % p
            prod = _poly_mul(digits(a), digits(b), p)
            return code(_poly_mod(prod, list(mod), p) + [0] * m)

        self._addt = [[code([(x + y) % p for x, y in zip(digits(a), digits(b))])
                       for b in range(q)] for a in range(q)]
        self._negt = [code([(-x) % p for x in digits(a)]) for a in range(q)]

        # exp/log from the first generator of the multiplicative group
        gen = None
        for g in range(1, q):
            seen = 1
            x = g
            while x != 1:
                x = raw_mul(x, g)
                seen += 1
            if seen == q - 1:
                gen = g
                break
        if gen is None:  # cannot happen for a field, guard stays loud
            raise UnsupportedField(f"no multiplicative generator found for GF({q})")
        self._exp = [1] * (q - 1)
        for i in range(1, q - 1):
            self._exp[i] = raw_mul(self._exp[i - 1], gen)
        self._log = [0] * q
        for i, v in enumerate(self._exp):
            self._log[v] = i

        self._mult = [[0] * q for _ in range(q)]
        for a in range(1, q):
            la = self._log[a]
            for b in range(1, q):
                self._mult[a][b] = self._exp[(la + self._log[b]) % (q - 1)]
        self._invt = [0] * q
        for a in range(1, q):
            self._invt[a] = self._exp[(q - 1 - self._log[a]) % (q - 1)]

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
        out = self.one
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

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

    def scalar(self, value):
        return Scalar(self, value)

    # --- serialization of raw values ---

    def format(self, a):
        return str(a)  # Fraction str is "p/q", finite codes are bare ints

    def parse(self, s):
        s = s.strip()
        if self.kind == "rational":
            return Fraction(s)
        v = int(s)
        if not 0 <= v < self.q:
            raise UnsupportedField(f"scalar code {v} out of range for GF({self.q})")
        return v

    def flag(self):
        """The --field token naming this field."""
        return "Q" if self.kind == "rational" else str(self.q)

    def __eq__(self, other):
        return self is other or (isinstance(other, FieldSpec)
                                 and self.kind == other.kind and self.q == other.q)

    def __hash__(self):
        return hash((self.kind, self.q))

    def __repr__(self):
        return "QQ" if self.kind == "rational" else f"GF({self.q})"


_CACHE = {}


def GF(q):
    key = ("finite", q)
    if key not in _CACHE:
        _CACHE[key] = FieldSpec("finite", q)
    return _CACHE[key]


def QQ():
    key = ("rational", None)
    if key not in _CACHE:
        _CACHE[key] = FieldSpec("rational")
    return _CACHE[key]


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


class Scalar:
    """A field element bundled with its field, for API boundaries.

    Internal code paths work on raw codes/Fractions; this wrapper exists so
    results like roots of unity carry their field and compare safely.
    """

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise UnsupportedField("scalars from different fields")
            return other.value
        if isinstance(other, int):
            return self.field.from_int(other)
        raise TypeError(f"cannot combine Scalar with {type(other).__name__}")

    def __add__(self, other):
        return Scalar(self.field, self.field.add(self.value, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(self.field, self.field.sub(self.value, self._coerce(other)))

    def __mul__(self, other):
        return Scalar(self.field, self.field.mul(self.value, self._coerce(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Scalar(self.field, self.field.div(self.value, self._coerce(other)))

    def __pow__(self, n):
        return Scalar(self.field, self.field.pow_(self.value, n))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __bool__(self):
        return self.value != self.field.zero

    def __repr__(self):
        return f"{self.field.format(self.value)} in {self.field!r}"


def multiplicative_order(F, a):
    if a == F.zero:
        raise DivisionByZero("0 has no multiplicative order")
    n = 1
    x = a
    while x != F.one:
        x = F.mul(x, a)
        n += 1
        if F.is_finite() and n > F.q:
            raise NotFound("order search diverged")  # unreachable over a field
    return n


def primitive_root_of_unity(F, m):
    """First element (in enumeration order) of multiplicative order exactly m.

    Over the rationals only m=1 and m=2 have one (1 and -1).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not F.is_finite():
        if m == 1:
            return Scalar(F, F.one)
        if m == 2:
            return Scalar(F, Fraction(-1))
        raise NoPrimitiveRoot(f"the rationals contain no primitive {m}-th root of unity")
    if m == 1:
        return Scalar(F, F.one)
    if (F.q - 1) % m != 0:
        raise NoPrimitiveRoot(f"GF({F.q}) contains no primitive {m}-th root of unity")
    for a in range(1, F.q):
        if F.pow_(a, m) == F.one and multiplicative_order(F, a) == m:
            return Scalar(F, a)
    raise NoPrimitiveRoot(f"GF({F.q}) contains no primitive {m}-th root of unity")


def roots_of_unity(F, m):
    """All solutions of x^m = 1, as raw values, deterministic order."""
    if not F.is_finite():
        return [Fraction(1), Fraction(-1)] if m % 2 == 0 else [Fraction(1)]
    return [a for a in range(1, F.q) if F.pow_(a, m) == F.one]
