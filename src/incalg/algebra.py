"""Elements of the incidence algebra of a finite poset over an exact field.

An element is a coefficient vector over the canonical comparable-pair basis
of its poset (diagonal pairs first, then strict pairs). Multiplication is
convolution: (fg)(x,y) = sum of f(x,z) g(z,y) over x <= z <= y, driven by the
poset's nonzero single-step structure constants. ``convolve_coeffs``,
``power_coeffs``, ``add_coeffs``, ``sub_coeffs``, ``scale_coeffs`` and
``conjugate_coeffs`` work on raw coefficient tuples; the element operators
and the map builders of ``linmaps`` go through them. All arithmetic is exact.
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

    def diag_values(self):
        return self.coeffs[:self.poset.n]

    def is_zero(self):
        z = self.field.zero
        return all(c == z for c in self.coeffs)

    def is_diagonal(self):
        z = self.field.zero
        return all(c == z for c in self.coeffs[self.poset.n:])

    # --- arithmetic ---

    def __add__(self, other):
        _check_same(self, other)
        return IncElement(self.poset, self.field,
                          add_coeffs(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other):
        _check_same(self, other)
        return IncElement(self.poset, self.field,
                          sub_coeffs(self.field, self.coeffs, other.coeffs))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def __mul__(self, other):
        if isinstance(other, IncElement):
            return convolve(self, other)
        return self.scale(other)

    def __rmul__(self, r):
        return self.scale(r)

    def scale(self, r):
        """Scalar multiple; r is a raw field value (a code, or a Fraction)."""
        return IncElement(self.poset, self.field,
                          scale_coeffs(self.field, r, self.coeffs))

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
        """Nonzero entries as (x, y, raw value) triples, canonical order."""
        z = self.field.zero
        P = self.poset
        return [(P.labels[i], P.labels[j], c)
                for (i, j), c in zip(P.pairs, self.coeffs) if c != z]

    def to_jsonable(self):
        """The one JSON form of an element: [x, y, F.format(v)] per nonzero
        entry, each label as its JSON value (a tuple label writes as a list)."""
        F = self.field
        return [[x, y, F.format(v)] for x, y, v in self.to_triples()]


def _check_same(f, g):
    if f.poset != g.poset or f.field != g.field:
        raise StructureMismatch("operands live in different incidence algebras")


def from_triples(P, F, triples):
    """The element with the given (x, y, scalar) entries; each scalar goes
    through ``F.parse``, so codes and strings are checked alike. A list label
    is read as a tuple, one level deep, as ``parse_poset`` reads JSON."""
    coeffs = [F.zero] * P.dim
    for t in triples:
        if not isinstance(t, (list, tuple)) or len(t) != 3:
            raise StructureMismatch(f"{t!r} is not an (x, y, scalar) triple")
        x, y = (tuple(v) if isinstance(v, list) else v for v in t[:2])
        coeffs[P.pair_index(x, y)] = F.parse(t[2])
    return IncElement(P, F, coeffs)


def zero(P, F):
    return IncElement(P, F, [F.zero] * P.dim)


def basis_coeffs(P, F):
    """Coefficient tuples of the basis elements, in basis order."""
    one, z = F.one, F.zero
    return [tuple(one if i == j else z for i in range(P.dim))
            for j in range(P.dim)]


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


def add_coeffs(F, a, b):
    """Coefficient tuple of f + g from the raw coefficients a and b."""
    if F.is_finite():
        addt = F._addt
        return tuple([addt[x][y] for x, y in zip(a, b)])
    return tuple([x + y for x, y in zip(a, b)])


def sub_coeffs(F, a, b):
    """Coefficient tuple of f - g from the raw coefficients a and b."""
    if F.is_finite():
        addt, negt = F._addt, F._negt
        return tuple([addt[x][negt[y]] for x, y in zip(a, b)])
    return tuple([x - y for x, y in zip(a, b)])


def scale_coeffs(F, r, a):
    """Coefficient tuple of r f from the raw coefficients a of f. r must be
    a raw value of F: a code of GF(q), or an int or Fraction over Q;
    anything else raises StructureMismatch."""
    if F.is_finite():
        if not (isinstance(r, int) and 0 <= r < F.q):
            raise StructureMismatch(f"{r!r} is not a scalar code of {F!r}")
        row = F._mult[r]
        return tuple([row[x] for x in a])
    if not isinstance(r, (int, Fraction)):
        raise StructureMismatch(f"{r!r} is not an exact rational scalar")
    r = Fraction(r)
    return tuple([r * x for x in a])


def conjugate_coeffs(P, F, b, f, binv):
    """Coefficient tuple of b f binv from raw coefficient tuples; binv is
    the inverse of b, computed once by the caller."""
    return convolve_coeffs(P, F, convolve_coeffs(P, F, b, f), binv)


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
    _check_same(f, b)
    P, F = f.poset, f.field
    return IncElement(P, F, conjugate_coeffs(P, F, b.coeffs, f.coeffs,
                                             try_inverse(b).coeffs))


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
    return _delta_multiple(f.poset, f.field, f.coeffs)


def _delta_multiple(P, F, c):
    r = c[0]
    if any(v != r for v in c[1:P.n]):
        return None
    if any(v != F.zero for v in c[P.n:]):
        return None
    return r


def is_central(f):
    """Whether f lies in the center; the poset must be connected.

    Checked two ways, scalar-multiple-of-delta form and commuting with
    every basis element, which must agree on a connected poset.
    """
    return is_central_coeffs(f.poset, f.field, f.coeffs)


def is_central_coeffs(P, F, c):
    """``is_central`` on the raw coefficient tuple c of an element of
    I(P, F)."""
    if not is_connected(P):
        raise DisconnectedPoset("center is only scalar on connected posets")
    by_form = _delta_multiple(P, F, c) is not None
    by_commuting = True
    for e in basis_coeffs(P, F):
        if convolve_coeffs(P, F, c, e) != convolve_coeffs(P, F, e, c):
            by_commuting = False
            break
    if by_form != by_commuting:
        raise InternalConsistencyError(
            "center characterizations disagree on a connected poset",
            IncElement(P, F, c))
    return by_form
