"""k-potent elements: exhaustive enumeration, spectral idempotents, and
simultaneous diagonalization by an inner conjugation.

The exhaustive scan is vectorized: every element of the coefficient space is
a base-q code, the whole space is raised to the k-th power at once by squaring
through the poset's single-step structure constants, and the survivors of
f^k = f come back in code order. The same code/lookup arrays drive the sweep.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .algebra import (IncElement, basis_element, conjugate, conjugate_coeffs,
                      convolve, delta, diagonal_part, is_k_potent, try_inverse)
from .errors import (BudgetExceeded, HypothesesNotMet, InternalConsistencyError,
                     NoPrimitiveRoot, NotConjugate, NotIdempotent, NotCommuting,
                     NotKPotent, StructureMismatch, UnsupportedField)
from .field import power_by_squaring, primitive_root_of_unity, roots_of_unity

SCAN_SPACE_CAP = 2 ** 20  # the most codes the exhaustive scan builds


def space_digits(P, F):
    """(space, digits) for the full coefficient space: digits[c] is the
    base-q digit vector of code c."""
    q, dim = F.q, P.dim
    space = q ** dim
    dig = np.empty((space, dim), dtype=np.uint8)
    codes = np.arange(space, dtype=np.int64)
    for j in range(dim):  # one digit plane at a time, lowest first
        np.remainder(codes, q, out=dig[:, j], casting="unsafe")
        codes //= q
    return space, dig


def batch_convolve(A, B, P, F):
    """Convolution of two digit arrays along the last axis, whose leading
    axes broadcast: (N, dim) rows pair up row by row."""
    add_t, mul_t = F.add_np, F.mul_np
    out = np.zeros(np.broadcast_shapes(A.shape, B.shape), dtype=np.uint8)
    for a, row in enumerate(P.prod_terms):
        fa = A[..., a]
        for b, m in row:
            out[..., m] = add_t[out[..., m], mul_t[fa, B[..., b]]]
    return out


def check_space_budget(P, F, limit):
    """q^dim, the size of the coefficient space of I(P, F) over a finite
    field, or BudgetExceeded when it is over ``limit``. A long size is
    written as q^dim."""
    space = F.q ** P.dim
    if space > limit:
        size = space if space < 10 ** 20 else f"{F.q}^{P.dim}"
        raise BudgetExceeded(
            f"coefficient space has {size} elements, over the limit {limit}",
            required=space)
    return space


def _check_scan(P, F, k):
    if not F.is_finite():
        raise UnsupportedField("exhaustive potent scan needs a finite field")
    if k < 2:
        raise ValueError("k must be >= 2")
    check_space_budget(P, F, SCAN_SPACE_CAP)


def potent_code_tables(P, F, k):
    """(codes, digits, lookup) for all k-potents, in code order.

    codes: int64 codes of the k-potents; digits: their (npot, dim) digit
    rows; lookup: bool membership table over the whole space.
    """
    _check_scan(P, F, k)
    _, dig = space_digits(P, F)
    fk = power_by_squaring(lambda A, B: batch_convolve(A, B, P, F), dig, k)
    mask = (fk == dig).all(axis=1)
    codes = np.flatnonzero(mask).astype(np.int64)
    return codes, dig[codes].copy(), mask


@dataclass(frozen=True)
class PotentTables:
    poset: object
    field: object
    codes: np.ndarray   # (npot,) int64, k-potents in code order
    digits: np.ndarray  # (npot, dim) uint8 digit rows
    lookup: np.ndarray  # (space,) bool membership

    @cached_property
    def elements(self):
        """The k-potents as IncElements, in code order, built on first
        read: a count or a sweep never pays for them."""
        return tuple(IncElement(self.poset, self.field, [int(v) for v in row])
                     for row in self.digits)


_POTENT_CACHE = {}


def cached_potents(P, F, k):
    """The k-potents of I(P, F), scanned once per (P, F, k) and shared by the
    sweep tables, ``enumerate_k_potents`` and the brute-force oracle
    ``linmaps.is_k_potent_preserver``. Only the scan checks its inputs: a
    cached (P, F, k) has passed a limit that cannot change."""
    key = (P, F, k)
    tables = _POTENT_CACHE.get(key)
    if tables is None:
        tables = _POTENT_CACHE[key] = PotentTables(
            P, F, *potent_code_tables(P, F, k))
    return tables


def enumerate_k_potents(P, F, k):
    """All f with f^k = f, in canonical code order. Finite fields only,
    refused (BudgetExceeded) over SCAN_SPACE_CAP codes."""
    return list(cached_potents(P, F, k).elements)


def sample_k_potents(P, F, k, count, rng):
    """Structured sampler: random conjugates of random diagonal elements
    whose entries are 0 or (k-1)-th roots of unity. Every output is a
    k-potent, but the list is NOT exhaustive and may repeat."""
    units = roots_of_unity(F, k - 1)
    out = []
    for _ in range(count):
        diag = [rng.choice([F.zero] + units) for _ in range(P.n)]
        d = IncElement(P, F, diag + [F.zero] * P.n_strict)
        if F.is_finite():
            sd = [rng.randrange(1, F.q) for _ in range(P.n)]
            ss = [rng.randrange(F.q) for _ in range(P.n_strict)]
        else:
            sd = [Fraction(rng.choice([1, -1, 2, -2, 3])) for _ in range(P.n)]
            ss = [Fraction(rng.randint(-2, 2)) for _ in range(P.n_strict)]
        sigma = IncElement(P, F, sd + ss)
        out.append(conjugate(d, sigma))
    return out


@dataclass(frozen=True)
class SpectralDecomposition:
    original: IncElement
    k: int
    epsilon: int | Fraction
    idempotents: tuple


def spectral_decompose(a, k):
    """Split a k-potent into k-1 pairwise orthogonal idempotents b_i with
    a = sum of epsilon^-i b_i, where epsilon is the first primitive
    (k-1)-th root of unity."""
    P, F = a.poset, a.field
    if not is_k_potent(a, k):
        raise NotKPotent(f"element is not {k}-potent")
    try:
        eps = primitive_root_of_unity(F, k - 1)
    except NoPrimitiveRoot as e:
        raise HypothesesNotMet(str(e)) from e
    c = F.from_int(k - 1)
    if c == F.zero:  # unreachable given a primitive root; guard stays loud
        raise HypothesesNotMet(f"{k - 1} is not invertible in {F!r}")
    cinv = F.inv(c)
    powers = [a]
    for _ in range(k - 2):
        powers.append(convolve(powers[-1], a))
    idems = []
    for i in range(1, k):
        acc = None
        for s in range(1, k):
            term = powers[s - 1].scale(F.pow_(eps, i * s))
            acc = term if acc is None else acc + term
        idems.append(acc.scale(cinv))
    # orthogonality, idempotence and recomposition are cheap; check them all
    zero_el = IncElement(P, F, [F.zero] * P.dim)
    for i, b in enumerate(idems):
        if convolve(b, b) != b:
            raise InternalConsistencyError("spectral component not idempotent", a)
        for j in range(i):
            if convolve(b, idems[j]) != zero_el or convolve(idems[j], b) != zero_el:
                raise InternalConsistencyError("spectral components not orthogonal", a)
    acc = None
    for i, b in enumerate(idems, start=1):
        term = b.scale(F.pow_(eps, -i))
        acc = term if acc is None else acc + term
    if acc != a:
        raise InternalConsistencyError("spectral recomposition failed", a)
    return SpectralDecomposition(a, k, eps, tuple(idems))


def simultaneous_diagonalize(alphas):
    """An invertible beta with beta_D = delta conjugating every alpha_i to
    its diagonal part: alpha_i = beta (alpha_i)_D beta^-1.

    The alphas must be pairwise commuting idempotents. With eps_i =
    (alpha_i)_D, beta is the sum over S of prod_{i in S} alpha_i
    prod_{i not in S} (delta - alpha_i) times the same product of the eps_i.
    Each eps_i is a diagonal idempotent, so that eps product is the sum of
    the e_x whose pattern {i : eps_i(x) = 1} is S, and the sum collapses to
    beta = sum_x (prod_i f_i(x)) e_x, with f_i(x) = alpha_i if eps_i(x) = 1
    and delta - alpha_i otherwise: n products per point.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("need at least one idempotent")
    P, F = alphas[0].poset, alphas[0].field
    n = len(alphas)
    for a in alphas:
        if a.poset != P or a.field != F:
            raise StructureMismatch("idempotents over different structures")
        if convolve(a, a) != a:
            raise NotIdempotent(f"{a!r} is not idempotent")
    for i in range(n):
        for j in range(i + 1, n):
            if convolve(alphas[i], alphas[j]) != convolve(alphas[j], alphas[i]):
                raise NotCommuting(f"inputs {i} and {j} do not commute")
    d = delta(P, F)
    eps = [diagonal_part(a) for a in alphas]
    complements = [d - a for a in alphas]
    beta = None
    for x, label in enumerate(P.labels):
        # prod_i f_i(x) e_x, multiplied from the right
        term = basis_element(P, F, label, label)
        for i in reversed(range(n)):
            f_i = alphas[i] if eps[i].coeffs[x] == F.one else complements[i]
            term = convolve(f_i, term)
        beta = term if beta is None else beta + term
    if diagonal_part(beta) != d:
        raise InternalConsistencyError("diagonalizer has non-identity diagonal", beta)
    binv = try_inverse(beta).coeffs
    for a, e in zip(alphas, eps):
        if conjugate_coeffs(P, F, beta.coeffs, e.coeffs, binv) != a.coeffs:
            raise InternalConsistencyError("diagonalizer fails to conjugate", a)
    return beta


def conjugate_to_diagonal(f, k):
    """A sigma with f = sigma f_D sigma^-1, through the spectral idempotents.

    Needs a primitive (k-1)-th root of unity in the field; refuses with
    HypothesesNotMet otherwise (there are k-potents with no diagonal
    conjugate when the root is missing, so no search is attempted).
    """
    spec = spectral_decompose(f, k)
    sigma = simultaneous_diagonalize(list(spec.idempotents))
    if conjugate(diagonal_part(f), sigma) != f:
        raise NotConjugate("conjugation verification failed")  # unreachable
    P, F = f.poset, f.field
    allowed = set(roots_of_unity(F, k - 1)) | {F.zero}
    if any(v not in allowed for v in f.diag_values()):
        raise InternalConsistencyError(
            "diagonal of a k-potent outside 0 and (k-1)-th roots", f)
    return sigma

