"""Linear maps on an incidence algebra, and the predicates that classify them.

A LinMap stores one column per comparable pair, in the canonical basis order;
column j is the image of the j-th basis element. The homomorphism predicates
reduce their defining identities to basis tuples: bilinear identities are
checked on basis pairs, and the quadratic-in-one-slot identities (squares,
triple products) on basis elements plus their polarized forms, which is
equivalent to the identity holding everywhere. Both sides of each identity
are evaluated on raw coefficient tuples with ``algebra.convolve_coeffs``.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from . import potents as _potents
from .algebra import (IncElement, _delta_multiple, add_coeffs, basis_coeffs,
                      basis_element, conjugate_coeffs, convolve_coeffs, delta,
                      power_coeffs, scale_coeffs, sub_coeffs, try_inverse)
from .errors import DimensionMismatch, StructureMismatch
from .field import roots_of_unity


class LinMap:
    __slots__ = ("poset", "field", "cols", "_hash", "_bijective")

    def __init__(self, poset, field, cols):
        cols = tuple(tuple(c) for c in cols)
        if len(cols) != poset.dim or any(len(c) != poset.dim for c in cols):
            raise DimensionMismatch(
                f"need {poset.dim} columns of length {poset.dim}")
        self.poset = poset
        self.field = field
        self.cols = cols
        self._hash = None
        self._bijective = None  # filled by is_bijective

    def image(self, j):
        """Image of the j-th basis element."""
        return IncElement(self.poset, self.field, self.cols[j])

    @property
    def matrix(self):
        """Row-major view: matrix[i][j] = coefficient i of the image of j."""
        d = self.poset.dim
        return tuple(tuple(self.cols[j][i] for j in range(d)) for i in range(d))

    def __call__(self, f):
        return apply_map(self, f)

    def __eq__(self, other):
        return (isinstance(other, LinMap) and self.poset == other.poset
                and self.field == other.field and self.cols == other.cols)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.poset, self.field, self.cols))
        return self._hash

    def __repr__(self):
        return f"LinMap(dim={self.poset.dim} over {self.field!r})"


def linmap_from_images(P, F, images):
    """Build the map sending the j-th basis element to images[j]."""
    if len(images) != P.dim:
        raise DimensionMismatch(f"need {P.dim} images, got {len(images)}")
    for g in images:
        if g.poset != P or g.field != F:
            raise StructureMismatch("image from a different algebra")
    return LinMap(P, F, [g.coeffs for g in images])


def linmap_from_pair_images(P, F, mapping):
    """mapping: {(x, y): IncElement} covering every comparable pair."""
    images = [None] * P.dim
    for (x, y), g in mapping.items():
        images[P.pair_index(x, y)] = g
    if any(g is None for g in images):
        missing = [pq for k, pq in enumerate(P.comparable_pairs()) if images[k] is None]
        raise DimensionMismatch(f"missing images for pairs {missing}")
    return linmap_from_images(P, F, images)


def identity_map(P, F):
    return LinMap(P, F, basis_coeffs(P, F))


def _apply_vec(phi, coeffs):
    """Coefficient tuple of phi(f) from the raw coefficients of f."""
    F = phi.field
    out = [F.zero] * phi.poset.dim
    if F.is_finite():
        addt, mult = F._addt, F._mult
        for c, col in zip(coeffs, phi.cols):
            if c:
                row = mult[c]
                for i, v in enumerate(col):
                    if v:
                        out[i] = addt[out[i]][row[v]]
    else:
        for c, col in zip(coeffs, phi.cols):
            if c:
                for i, v in enumerate(col):
                    if v:
                        out[i] += c * v
    return tuple(out)


def apply_map(phi, f):
    if f.poset != phi.poset or f.field != phi.field:
        raise StructureMismatch("map and element live over different structures")
    return IncElement(phi.poset, phi.field, _apply_vec(phi, f.coeffs))


def compose(phi, psi):
    """phi after psi."""
    if phi.poset != psi.poset or phi.field != psi.field:
        raise StructureMismatch("maps over different structures")
    return LinMap(phi.poset, phi.field,
                  [_apply_vec(phi, col) for col in psi.cols])


def scale_map(phi, r):
    """r phi; r is checked as ``IncElement.scale`` checks it. A nonzero
    multiple keeps the rank, so it inherits phi's known bijectivity."""
    F = phi.field
    out = LinMap(phi.poset, F, [scale_coeffs(F, r, col) for col in phi.cols])
    if r != F.zero:
        out._bijective = phi._bijective
    return out


def _rref(rows, F):
    """Reduced row echelon form; returns (rows, pivot columns). Exact:
    finite codes go through the field's add/mul/neg/inv tables, rationals
    through the field's operations."""
    rows = [list(r) for r in rows]
    z = F.zero
    pivots = []
    r = 0
    width = len(rows[0]) if rows else 0
    finite = F.is_finite()
    if finite:
        addt, mult, negt, invt = F._addt, F._mult, F._negt, F._invt
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != z), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if finite:
            inv = mult[invt[rows[r][c]]]
            piv = rows[r] = [inv[v] for v in rows[r]]
            for i in range(len(rows)):
                f = rows[i][c]
                if i != r and f:
                    nf = mult[negt[f]]
                    rows[i] = [addt[a][nf[b]] for a, b in zip(rows[i], piv)]
        else:
            inv = F.inv(rows[r][c])
            rows[r] = [F.mul(inv, v) for v in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c] != z:
                    f = rows[i][c]
                    rows[i] = [F.sub(a, F.mul(f, b))
                               for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[i] for i in range(r)], pivots


def is_bijective(phi):
    """Whether phi has full rank: one elimination of its matrix, on the
    first call only; the answer is kept on the map."""
    if phi._bijective is None:
        _, pivots = _rref(phi.matrix, phi.field)
        phi._bijective = len(pivots) == phi.poset.dim
    return phi._bijective


# --- structured map builders ---

def conjugation_map(b):
    """f -> b f b^-1 as a LinMap; b must be invertible."""
    P, F = b.poset, b.field
    binv = try_inverse(b).coeffs
    return LinMap(P, F, [conjugate_coeffs(P, F, b.coeffs, e, binv)
                         for e in basis_coeffs(P, F)])


def order_induced_map(om, F):
    """The algebra (anti-)automorphism induced by an order map:
    e_(x,y) -> e_(om x, om y), with the pair flipped for the anti kind."""
    P = om.poset
    es = basis_coeffs(P, F)
    return LinMap(P, F, [es[m] for m in om.basis_perm()])


def is_multiplicative_coeffs(sigma):
    """Whether an element's values form a multiplicative system: nonzero
    everywhere, 1 on the diagonal, sigma(x,z) = sigma(x,y) sigma(y,z)."""
    P, F = sigma.poset, sigma.field
    c = sigma.coeffs
    if any(v == F.zero for v in c) or any(v != F.one for v in c[:P.n]):
        return False
    return all(F.mul(c[a], c[b]) == c[m]
               for a, row in enumerate(P.prod_terms) for b, m in row)


def multiplicative_map(sigma):
    """The automorphism e_(x,y) -> sigma(x,y) e_(x,y) for a multiplicative
    coefficient system sigma (given as an IncElement)."""
    if not is_multiplicative_coeffs(sigma):
        raise StructureMismatch("coefficients are not a multiplicative system")
    P, F = sigma.poset, sigma.field
    z = F.zero
    cols = []
    for j in range(P.dim):
        col = [z] * P.dim
        col[j] = sigma.coeffs[j]
        cols.append(col)
    return LinMap(P, F, cols)


def shift_from_functional(P, F, svals):
    """f -> f + s(f) delta for the linear functional with coefficients svals."""
    if len(svals) != P.dim:
        raise DimensionMismatch(f"functional needs {P.dim} coefficients")
    d = delta(P, F)
    images = []
    for j, (x, y) in enumerate(P.comparable_pairs()):
        images.append(basis_element(P, F, x, y) + d.scale(svals[j]))
    return linmap_from_images(P, F, images)


# --- predicates ---

class PreserverCheck:
    """Result of a potent-preserver test. Truthy iff the test passed;
    carries the first violating potent when it failed."""

    __slots__ = ("ok", "witness", "mode", "checked")

    def __init__(self, ok, witness, mode, checked):
        self.ok = ok
        self.witness = witness
        self.mode = mode
        self.checked = checked

    def __bool__(self):
        return self.ok

    def __repr__(self):
        extra = "" if self.ok else f", witness={self.witness!r}"
        return f"PreserverCheck(ok={self.ok}, mode={self.mode}, checked={self.checked}{extra})"


def _sampled_potents(P, F, k):
    """Structured k-potent families: diagonal idempotents e_x, single-corner
    and two-step idempotents, all scaled by (k-1)-th roots of unity.
    Necessary conditions only, used where exhaustion is impossible."""
    out = []
    seen = set()

    def push(f):
        if f.coeffs not in seen:
            seen.add(f.coeffs)
            out.append(f)

    if F.is_finite():
        rs = [r for r in range(1, F.q)]
    else:
        rs = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(3), Fraction(-1, 3)]
    base = []
    for x in P.labels:
        base.append(basis_element(P, F, x, x))
    for x, y in P.strict_pairs:
        exy = basis_element(P, F, x, y)
        ex = basis_element(P, F, x, x)
        for r in rs:
            base.append(ex + exy.scale(r))
        for w in P.labels:
            if w != x and w != y:
                base.append(basis_element(P, F, w, w) + ex + exy)
    for x, y in P.strict_pairs:
        for v in P.labels:
            if P.lt(y, v):
                base.append(basis_element(P, F, y, y)
                            + basis_element(P, F, x, y)
                            + basis_element(P, F, y, v)
                            + basis_element(P, F, x, v))
    units = roots_of_unity(F, k - 1)
    for f in base:
        for t in units:
            push(f.scale(t))
    return out


def is_k_potent_preserver(phi, k, budget=_potents.DEFAULT_BUDGET):
    """Whether phi maps every k-potent to a k-potent.

    The field picks the mode. Over GF(q) the check is exhaustive: it
    enumerates all k-potents (budgeted) in canonical code order, so the
    reported witness is the first violator. Over Q it is sampled: it checks
    the structured families only and is a necessary condition, not a proof.
    """
    P, F = phi.poset, phi.field
    if F.is_finite():
        mode = "exhaustive"
        pots = _potents.cached_potents(P, F, k, budget).elements
    else:
        if k < 2:
            raise ValueError("k must be >= 2")
        mode = "sampled"
        pots = _sampled_potents(P, F, k)
    # the potents live in phi's own algebra, so f^k = f is tested on raw
    # coefficient tuples with no per-potent structure check
    checked = 0
    for f in pots:
        checked += 1
        g = _apply_vec(phi, f.coeffs)
        if power_coeffs(P, F, g, k) != g:
            return PreserverCheck(False, f, mode, checked)
    return PreserverCheck(True, None, mode, checked)


# law(e_i, ...) per (law, poset, field) and tuple of basis indices: it does
# not depend on the map, and every map checked on the algebra reuses it
_LAW_ON_BASIS = {}


def _keeps(phi, law, tuples, image_law=None):
    """Whether phi(law(e_i, ...)) = image_law(phi(e_i), ...) for every tuple
    of basis indices, stopping at the first failure; image_law defaults to
    law. Laws act on coefficient tuples: law(P, F, a, ...)."""
    image_law = image_law or law
    P, F = phi.poset, phi.field
    on_basis = _LAW_ON_BASIS.setdefault((law, P, F), {})
    es = None
    cols = phi.cols
    for t in tuples:
        lhs = on_basis.get(t)
        if lhs is None:
            es = es or basis_coeffs(P, F)
            lhs = on_basis[t] = law(P, F, *(es[i] for i in t))
        if _apply_vec(phi, lhs) != image_law(P, F, *(cols[i] for i in t)):
            return False
    return True


# --- laws on coefficient tuples, exact ---

def _reversed_product(P, F, a, b):
    return convolve_coeffs(P, F, b, a)


def _jordan(P, F, a, b):
    return add_coeffs(F, convolve_coeffs(P, F, a, b), convolve_coeffs(P, F, b, a))


def _bracket(P, F, a, b):
    return sub_coeffs(F, convolve_coeffs(P, F, a, b), convolve_coeffs(P, F, b, a))


def _square(P, F, a):
    return convolve_coeffs(P, F, a, a)


def _aba(P, F, a, b):
    return convolve_coeffs(P, F, convolve_coeffs(P, F, a, b), a)


def _abc_cba(P, F, a, b, c):
    return add_coeffs(F, convolve_coeffs(P, F, convolve_coeffs(P, F, a, b), c),
                      convolve_coeffs(P, F, convolve_coeffs(P, F, c, b), a))


def preserves_jordan_products(phi):
    """phi(a o b) = phi(a) o phi(b) for a o b = ab + ba, on basis pairs
    (bilinear, hence everywhere)."""
    return _keeps(phi, _jordan,
                  combinations_with_replacement(range(phi.poset.dim), 2))


def is_lie_homomorphism(phi):
    """phi[a,b] = [phi a, phi b] on basis pairs (bilinear, hence everywhere)."""
    return _keeps(phi, _bracket, combinations(range(phi.poset.dim), 2))


def is_jordan_homomorphism(phi):
    """Jordan products, squares and triple products aba all preserved.

    The square and aba are quadratic in a, so each is checked on basis
    elements plus its polarized form: Jordan products on basis pairs for the
    square, abc + cba on basis triples with a < c for aba.

    Off characteristic 2 the Jordan products decide alone: a^2 = (a o a)/2
    and 2aba = a o (a o b) - a^2 o b. In characteristic 2 every law is
    checked.
    """
    if phi.field.char != 2:
        return preserves_jordan_products(phi)
    d = range(phi.poset.dim)
    return (preserves_jordan_products(phi)
            and _keeps(phi, _square, ((a,) for a in d))
            and _keeps(phi, _aba, product(d, repeat=2))
            and _keeps(phi, _abc_cba, ((a, b, c) for a in d for b in d
                                       for c in range(a + 1, len(d)))))


def has_idempotent_diagonal_images(phi):
    """phi(e_x) is idempotent for every x: since e_x e_x = e_x, this is the
    square law on the diagonal basis elements."""
    return _keeps(phi, _square, ((x,) for x in range(phi.poset.n)))


def _is_algebra_iso(phi, anti):
    """Bijective, fixes delta and sends e_a e_b to phi(e_a) phi(e_b), or to
    phi(e_b) phi(e_a) when anti."""
    P, F = phi.poset, phi.field
    if not is_bijective(phi) or apply_map(phi, delta(P, F)) != delta(P, F):
        return False
    return _keeps(phi, convolve_coeffs, product(range(P.dim), repeat=2),
                  _reversed_product if anti else convolve_coeffs)


def is_algebra_automorphism(phi):
    return _is_algebra_iso(phi, anti=False)


def is_algebra_anti_automorphism(phi):
    return _is_algebra_iso(phi, anti=True)


def _has_shift_form(phi):
    """Whether every phi(e_j) - e_j is a scalar multiple of delta."""
    P, F = phi.poset, phi.field
    return all(_delta_multiple(P, F, sub_coeffs(F, col, e)) is not None
               for col, e in zip(phi.cols, basis_coeffs(P, F)))


# --- file format ---

def format_linmap(phi):
    """Text form: header "q n", then n lines of n scalar codes, line j being
    the image of the j-th basis element (column-major)."""
    F = phi.field
    lines = [f"{F.flag()} {phi.poset.dim}"]
    for col in phi.cols:
        lines.append(" ".join(F.format(v) for v in col))
    return "\n".join(lines) + "\n"


def parse_linmap(P, F, text):
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise DimensionMismatch("empty map file")
    head = lines[0].split()
    if len(head) != 2:
        raise DimensionMismatch(f"bad header {lines[0]!r}")
    if head[0] != F.flag():
        raise StructureMismatch(f"map file is over field {head[0]}, expected {F.flag()}")
    n = int(head[1])
    if n != P.dim or len(lines) != n + 1:
        raise DimensionMismatch(f"map file is {n}x{n}, algebra has dim {P.dim}")
    cols = []
    for ln in lines[1:]:
        vals = [F.parse(tok) for tok in ln.split()]
        if len(vals) != n:
            raise DimensionMismatch(f"bad row length in {ln!r}")
        cols.append(vals)
    return LinMap(P, F, cols)
