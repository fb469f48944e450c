"""Linear maps on an incidence algebra, and the predicates that classify them.

A LinMap stores one column per comparable pair, in the canonical basis order;
column j is the image of the j-th basis element. The homomorphism predicates
reduce their defining identities to basis tuples: bilinear identities are
checked on basis pairs, and the quadratic-in-one-slot identities (squares,
triple products) on basis elements plus their polarized forms, which is
equivalent to the identity holding everywhere.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from . import potents as _potents
from .algebra import (IncElement, as_scalar_multiple_of_delta, basis_element,
                      convolve, delta, jordan_product, lie_bracket,
                      power_coeffs, try_inverse)
from .errors import (DimensionMismatch, DisconnectedPoset, Singular,
                     StructureMismatch)
from .field import roots_of_unity
from .poset import OrderMap, is_connected


class LinMap:
    __slots__ = ("poset", "field", "cols", "_hash")

    def __init__(self, poset, field, cols):
        cols = tuple(tuple(c) for c in cols)
        if len(cols) != poset.dim or any(len(c) != poset.dim for c in cols):
            raise DimensionMismatch(
                f"need {poset.dim} columns of length {poset.dim}")
        self.poset = poset
        self.field = field
        self.cols = cols
        self._hash = None

    def image(self, j):
        """Image of the j-th basis element."""
        return IncElement(self.poset, self.field, self.cols[j])

    def image_of_pair(self, x, y):
        return self.image(self.poset.pair_index(x, y))

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
    one, z = F.one, F.zero
    return LinMap(P, F, [[one if i == j else z for i in range(P.dim)]
                         for j in range(P.dim)])


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
    F = phi.field
    if not F.is_finite():
        r = Fraction(r)
    return LinMap(phi.poset, F,
                  [[F.mul(r, v) for v in col] for col in phi.cols])


def _rref(rows, F):
    """Reduced row echelon form; returns (rows, pivot columns). Exact."""
    rows = [list(r) for r in rows]
    z = F.zero
    pivots = []
    r = 0
    width = len(rows[0]) if rows else 0
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != z), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, v) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != z:
                f = rows[i][c]
                rows[i] = [F.sub(a, F.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [rows[i] for i in range(r)], pivots


def _kernel_basis(rows, width, F):
    """Basis of {v : sum_k row[k] v[k] = 0 for every row}."""
    red, pivots = _rref(rows, F)
    z, one = F.zero, F.one
    free = [c for c in range(width) if c not in pivots]
    out = []
    for fc in free:
        v = [z] * width
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(red[r][fc])
        out.append(v)
    return out


def try_invert(phi):
    """Inverse map, or Singular."""
    P, F = phi.poset, phi.field
    d = P.dim
    z, one = F.zero, F.one
    # rows of [M | I], M row-major
    aug = []
    for i in range(d):
        row = [phi.cols[j][i] for j in range(d)]
        row += [one if k == i else z for k in range(d)]
        aug.append(row)
    red, pivots = _rref(aug, F)
    if pivots != list(range(d)):
        raise Singular("map is not bijective")
    inv_rows = [r[d:] for r in red[:d]]
    cols = [[inv_rows[i][j] for i in range(d)] for j in range(d)]
    return LinMap(P, F, cols)


def is_bijective(phi):
    try:
        try_invert(phi)
        return True
    except Singular:
        return False


class Subspace:
    """A subspace of an incidence algebra, held as a reduced echelon basis."""

    __slots__ = ("poset", "field", "rows")

    def __init__(self, poset, field, rows):
        self.poset = poset
        self.field = field
        red, _ = _rref([list(r) for r in rows], field)
        self.rows = tuple(tuple(r) for r in red)

    @classmethod
    def from_elements(cls, P, F, elements):
        for f in elements:
            if f.poset != P or f.field != F:
                raise StructureMismatch("element from a different algebra")
        return cls(P, F, [f.coeffs for f in elements])

    @property
    def dim(self):
        return len(self.rows)

    def basis(self):
        return [IncElement(self.poset, self.field, r) for r in self.rows]

    def contains(self, f):
        if f.poset != self.poset or f.field != self.field:
            raise StructureMismatch("element from a different algebra")
        F = self.field
        z = F.zero
        v = list(f.coeffs)
        for row in self.rows:
            c = next((j for j, a in enumerate(row) if a != z), None)
            if c is not None and v[c] != z:
                t = v[c]
                v = [F.sub(a, F.mul(t, b)) for a, b in zip(v, row)]
        return all(a == z for a in v)

    def orthogonal_complement(self):
        width = self.poset.dim
        rows = _kernel_basis([list(r) for r in self.rows], width, self.field)
        return Subspace(self.poset, self.field, rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.poset == other.poset
                and self.field == other.field and self.rows == other.rows)

    def __hash__(self):
        return hash((self.poset, self.field, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.poset.dim})"


def subspace_intersection(subspaces):
    """Intersection of a non-empty list of subspaces (exact, any field)."""
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("need at least one subspace")
    first = subspaces[0]
    P, F = first.poset, first.field
    acc = first
    for other in subspaces[1:]:
        if other.poset != P or other.field != F:
            raise StructureMismatch("subspaces over different structures")
        perp_rows = (list(r) for r in
                     acc.orthogonal_complement().rows + other.orthogonal_complement().rows)
        acc = Subspace(P, F, list(perp_rows)).orthogonal_complement()
    return acc


# --- structured map builders ---

def conjugation_map(b):
    """f -> b f b^-1 as a LinMap; b must be invertible."""
    P, F = b.poset, b.field
    binv = try_inverse(b)
    images = []
    for x, y in P.comparable_pairs():
        e = basis_element(P, F, x, y)
        images.append(convolve(convolve(b, e), binv))
    return linmap_from_images(P, F, images)


def order_induced_map(om, F):
    """The algebra (anti-)automorphism induced by an order map:
    e_(x,y) -> e_(om x, om y), with the pair flipped for the anti kind."""
    P = om.poset
    images = []
    for x, y in P.comparable_pairs():
        u, v = om(x), om(y)
        if om.kind == OrderMap.ANTI:
            u, v = v, u
        images.append(basis_element(P, F, u, v))
    return linmap_from_images(P, F, images)


def is_multiplicative_coeffs(sigma):
    """Whether an element's values form a multiplicative system: nonzero
    everywhere, 1 on the diagonal, sigma(x,z) = sigma(x,y) sigma(y,z)."""
    P, F = sigma.poset, sigma.field
    z = F.zero
    if any(c == z for c in sigma.coeffs):
        return False
    if any(c != F.one for c in sigma.coeffs[:P.n]):
        return False
    for a, (i, j) in enumerate(P.pairs):
        for t in range(i, j + 1):
            if P._leq[i][t] and P._leq[t][j]:
                left = sigma.coeffs[P.pair_pos[(i, t)]]
                right = sigma.coeffs[P.pair_pos[(t, j)]]
                if F.mul(left, right) != sigma.coeffs[a]:
                    return False
    return True


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


def is_k_potent_preserver(phi, k, mode="exhaustive", budget=None):
    """Whether phi maps every k-potent to a k-potent.

    exhaustive mode enumerates all k-potents (finite field, budgeted) in
    canonical code order, so the reported witness is the first violator;
    sampled mode checks the structured families only and is a necessary
    condition, not a proof.
    """
    P, F = phi.poset, phi.field
    if mode == "exhaustive":
        kwargs = {} if budget is None else {"budget": budget}
        pots = _potents.cached_potents(P, F, k, **kwargs).elements
    elif mode == "sampled":
        if k < 2:
            raise ValueError("k must be >= 2")
        pots = _sampled_potents(P, F, k)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    # the potents live in phi's own algebra, so f^k = f is tested on raw
    # coefficient tuples with no per-potent structure check
    checked = 0
    for f in pots:
        checked += 1
        g = _apply_vec(phi, f.coeffs)
        if power_coeffs(P, F, g, k) != g:
            return PreserverCheck(False, f, mode, checked)
    return PreserverCheck(True, None, mode, checked)


def _keeps(phi, law, tuples, image_law=None):
    """Whether phi(law(e_i, ...)) = image_law(phi(e_i), ...) for every tuple
    of basis indices, stopping at the first failure; image_law defaults to
    law."""
    image_law = image_law or law
    P, F = phi.poset, phi.field
    es = [basis_element(P, F, P.labels[i], P.labels[j]) for i, j in P.pairs]
    ims = [phi.image(j) for j in range(P.dim)]
    return all(apply_map(phi, law(*(es[i] for i in t)))
               == image_law(*(ims[i] for i in t)) for t in tuples)


def _square(a):
    return convolve(a, a)


def _aba(a, b):
    return convolve(convolve(a, b), a)


def _abc_cba(a, b, c):
    return convolve(convolve(a, b), c) + convolve(convolve(c, b), a)


def _reversed_product(a, b):
    return convolve(b, a)


def preserves_jordan_products(phi):
    """phi(a o b) = phi(a) o phi(b) for a o b = ab + ba, on basis pairs
    (bilinear, hence everywhere)."""
    return _keeps(phi, jordan_product,
                  combinations_with_replacement(range(phi.poset.dim), 2))


def is_lie_homomorphism(phi):
    """phi[a,b] = [phi a, phi b] on basis pairs (bilinear, hence everywhere)."""
    return _keeps(phi, lie_bracket, combinations(range(phi.poset.dim), 2))


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
    if not is_bijective(phi):
        return False
    P, F = phi.poset, phi.field
    if apply_map(phi, delta(P, F)) != delta(P, F):
        return False
    return _keeps(phi, convolve, product(range(P.dim), repeat=2),
                  _reversed_product if anti else convolve)


def is_algebra_automorphism(phi):
    return _is_algebra_iso(phi, anti=False)


def is_algebra_anti_automorphism(phi):
    return _is_algebra_iso(phi, anti=True)


def is_shift_map(phi):
    """Whether phi is bijective and (phi - id) takes values in the scalar
    multiples of delta.

    Only meaningful where the center is spanned by delta, so the poset must
    be connected.
    """
    P, F = phi.poset, phi.field
    if not is_connected(P):
        raise DisconnectedPoset("shift maps are defined against a scalar center")
    for j in range(P.dim):
        diff = phi.image(j) - basis_element(P, F, *P.comparable_pairs()[j])
        if as_scalar_multiple_of_delta(diff) is None:
            return False
    return is_bijective(phi)


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
