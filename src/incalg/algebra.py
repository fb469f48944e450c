"""Elements of the incidence algebra of a finite poset over an exact field.

An element is a coefficient vector over the canonical comparable-pair basis
of its poset (diagonal pairs first, then strict pairs). Multiplication is
convolution: (fg)(x,y) = sum of f(x,z) g(z,y) over x <= z <= y, driven by the
poset's nonzero single-step structure constants. ``convolve_coeffs`` and
``power_coeffs`` work on raw coefficient tuples, and every product of
elements goes through them. All arithmetic is exact.
"""

from fractions import Fraction

from .errors import (DisconnectedPoset, InternalConsistencyError, NotInvertible,
                     StructureMismatch)
from .poset import is_connected


class IncElement:
    __slots__ = ("poset", "field", "coeffs", "_hash")

    def __init__(self, poset, field, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != poset.dim:
            raise StructureMismatch(
                f"expected {poset.dim} coefficients, got {len(coeffs)}")
        self.poset = poset
        self.field = field
        self.coeffs = coeffs
        self._hash = None

    def coeff(self, x, y):
        return self.coeffs[self.poset.pair_index(x, y)]

    def __getitem__(self, xy):
        return self.coeff(*xy)

    def diag_values(self):
        return self.coeffs[:self.poset.n]

    def is_zero(self):
        z = self.field.zero
        return all(c == z for c in self.coeffs)

    def is_diagonal(self):
        z = self.field.zero
        return all(c == z for c in self.coeffs[self.poset.n:])

    def support(self):
        z = self.field.zero
        P = self.poset
        return tuple((P.labels[i], P.labels[j])
                     for k, (i, j) in enumerate(P.pairs) if self.coeffs[k] != z)

    # --- arithmetic ---

    def __add__(self, other):
        _check_same(self, other)
        F = self.field
        return IncElement(self.poset, F,
                          [F.add(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        _check_same(self, other)
        F = self.field
        return IncElement(self.poset, F,
                          [F.sub(a, b) for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        F = self.field
        return IncElement(self.poset, F, [F.neg(a) for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, IncElement):
            return convolve(self, other)
        return self.scale(other)

    def __rmul__(self, r):
        return self.scale(r)

    def scale(self, r):
        """Scalar multiple; r is a raw field value (a code, or a Fraction)."""
        F = self.field
        if F.is_finite():
            if not (isinstance(r, int) and 0 <= r < F.q):
                raise StructureMismatch(f"{r!r} is not a scalar code of {F!r}")
        else:
            if not isinstance(r, (int, Fraction)):
                raise StructureMismatch(f"{r!r} is not an exact rational scalar")
            r = Fraction(r)
        return IncElement(self.poset, F, [F.mul(r, a) for a in self.coeffs])

    def __eq__(self, other):
        return (isinstance(other, IncElement) and self.poset == other.poset
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.poset, self.field, self.coeffs))
        return self._hash

    def __repr__(self):
        z = self.field.zero
        one = self.field.one
        P = self.poset
        terms = []
        for k, (i, j) in enumerate(P.pairs):
            c = self.coeffs[k]
            if c == z:
                continue
            e = f"e({P.labels[i]},{P.labels[j]})"
            terms.append(e if c == one else f"{self.field.format(c)}*{e}")
        return " + ".join(terms) if terms else "0"

    def to_triples(self):
        """Nonzero entries as (x, y, scalar-code) triples, canonical order."""
        z = self.field.zero
        P = self.poset
        out = []
        for k, (i, j) in enumerate(P.pairs):
            c = self.coeffs[k]
            if c != z:
                code = c if self.field.is_finite() else str(c)
                out.append((P.labels[i], P.labels[j], code))
        return out


def _check_same(f, g):
    if f.poset != g.poset or f.field != g.field:
        raise StructureMismatch("operands live in different incidence algebras")


def from_triples(P, F, triples):
    coeffs = [F.zero] * P.dim
    for x, y, code in triples:
        k = P.pair_index(x, y)
        if isinstance(code, str):
            coeffs[k] = F.parse(code)
        else:
            coeffs[k] = code if F.is_finite() else Fraction(code)
    return IncElement(P, F, coeffs)


def zero(P, F):
    return IncElement(P, F, [F.zero] * P.dim)


def basis_element(P, F, x, y):
    """e_(x,y); requires x <= y."""
    coeffs = [F.zero] * P.dim
    coeffs[P.pair_index(x, y)] = F.one
    return IncElement(P, F, coeffs)


def delta(P, F):
    """The identity: 1 on every diagonal pair."""
    coeffs = [F.one] * P.n + [F.zero] * P.n_strict
    return IncElement(P, F, coeffs)


def e_A(P, F, A):
    """Sum of the diagonal idempotents over the subset A."""
    coeffs = [F.zero] * P.dim
    for x in A:
        coeffs[P._idx(x)] = F.one
    return IncElement(P, F, coeffs)


def diagonal_part(f):
    P, F = f.poset, f.field
    return IncElement(P, F, f.coeffs[:P.n] + (F.zero,) * P.n_strict)


def convolve_coeffs(P, F, fc, gc):
    """Coefficient tuple of fg from the raw coefficients fc and gc of f and
    g in I(P, F); the caller vouches that both live there. Finite codes go
    through the field's add/mul tables, rationals through + and *."""
    out = [F.zero] * P.dim
    terms = P.prod_terms
    if F.is_finite():
        addt, mult = F._addt, F._mult
        for a, fa in enumerate(fc):
            if fa:
                row = mult[fa]
                for b, m in terms[a]:
                    gb = gc[b]
                    if gb:
                        out[m] = addt[out[m]][row[gb]]
    else:
        for a, fa in enumerate(fc):
            if fa:
                for b, m in terms[a]:
                    gb = gc[b]
                    if gb:
                        out[m] += fa * gb
    return tuple(out)


def power_coeffs(P, F, fc, n):
    """Coefficient tuple of f^n (n >= 1), by repeated squaring."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = None
    base = tuple(fc)
    while n:
        if n & 1:
            out = base if out is None else convolve_coeffs(P, F, out, base)
        n >>= 1
        if n:
            base = convolve_coeffs(P, F, base, base)
    return out


def convolve(f, g):
    _check_same(f, g)
    return IncElement(f.poset, f.field,
                      convolve_coeffs(f.poset, f.field, f.coeffs, g.coeffs))


def power(f, n):
    return IncElement(f.poset, f.field,
                      power_coeffs(f.poset, f.field, f.coeffs, n))


def is_k_potent(f, k):
    """Whether f^k = f (k >= 2)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return power_coeffs(f.poset, f.field, f.coeffs, k) == f.coeffs


def jordan_product(f, g):
    return convolve(f, g) + convolve(g, f)


def lie_bracket(f, g):
    return convolve(f, g) - convolve(g, f)


def try_inverse(f):
    """Inverse of f, or NotInvertible (iff some diagonal value is 0).

    Strict coefficients are solved along intervals, innermost first; the
    result is verified against the identity before returning.
    """
    P, F = f.poset, f.field
    z = F.zero
    dinv = []
    for x in range(P.n):
        c = f.coeffs[x]
        if c == z:
            raise NotInvertible(f"diagonal value at {P.labels[x]!r} is 0")
        dinv.append(F.inv(c))
    out = list(dinv) + [z] * P.n_strict
    # pairs sorted by descending lower index: every (z, y) with z > x is done
    # before (x, y) is
    order = sorted(range(P.n, P.dim), key=lambda k: -P.pairs[k][0])
    for k in order:
        i, j = P.pairs[k]
        acc = z
        for t in range(i + 1, j + 1):
            if P._leq[i][t] and P._leq[t][j]:
                a = P.pair_pos[(i, t)]
                b = P.pair_pos[(t, j)] if t != j else j
                acc = F.add(acc, F.mul(f.coeffs[a], out[b]))
        out[k] = F.neg(F.mul(dinv[i], acc))
    g = IncElement(P, F, out)
    d = delta(P, F)
    if convolve(f, g) != d or convolve(g, f) != d:
        raise InternalConsistencyError("inverse verification failed", f)
    return g


def is_invertible(f):
    z = f.field.zero
    return all(c != z for c in f.coeffs[:f.poset.n])


def conjugate(f, b):
    """b f b^-1; b must be invertible."""
    return convolve(convolve(b, f), try_inverse(b))


def centralizer_basis(P, F, A):
    """Basis of the centralizer of e_A: all diagonal e_x, plus e_(x,y) for
    strict pairs with x and y on the same side of A."""
    inside = {P._idx(x) for x in A}
    out = [basis_element(P, F, x, x) for x in P.labels]
    for i, j in P.pairs[P.n:]:
        if (i in inside) == (j in inside):
            out.append(basis_element(P, F, P.labels[i], P.labels[j]))
    return out


def as_scalar_multiple_of_delta(f):
    """The raw r with f = r*delta, or None if f has no such form."""
    P, F = f.poset, f.field
    r = f.coeffs[0]
    if any(c != r for c in f.coeffs[1:P.n]):
        return None
    if any(c != F.zero for c in f.coeffs[P.n:]):
        return None
    return r


def is_central(f):
    """Whether f lies in the center; the poset must be connected.

    Checked two ways, scalar-multiple-of-delta form and commuting with
    every basis element, which must agree on a connected poset.
    """
    P, F = f.poset, f.field
    if not is_connected(P):
        raise DisconnectedPoset("center is only scalar on connected posets")
    by_form = as_scalar_multiple_of_delta(f) is not None
    by_commuting = True
    for x, y in P.comparable_pairs():
        e = basis_element(P, F, x, y)
        if convolve(f, e) != convolve(e, f):
            by_commuting = False
            break
    if by_form != by_commuting:
        raise InternalConsistencyError(
            "center characterizations disagree on a connected poset", f)
    return by_form
