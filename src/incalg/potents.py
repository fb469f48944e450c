"""k-potent elements: exhaustive enumeration, spectral idempotents, and
simultaneous diagonalization by an inner conjugation.

The exhaustive scan is vectorized: every element of the coefficient space is
a base-q code, the whole space is raised to the k-th power at once through
the poset's structure-constant table, and the survivors of f^k = f come back
in code order. The same code/lookup arrays drive the fast sweep kernels.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import (IncElement, convolve, delta, diagonal_part, is_k_potent,
                      conjugate)
from .errors import (BudgetExceeded, HypothesesNotMet, InternalConsistencyError,
                     NoPrimitiveRoot, NotConjugate, NotIdempotent, NotCommuting,
                     NotKPotent, StructureMismatch, UnsupportedField)
from .field import Scalar, primitive_root_of_unity, roots_of_unity

DEFAULT_BUDGET = 1 << 20
SIMDIAG_MAX = 20


def space_digits(P, F):
    """(space, digits) for the full coefficient space: digits[c] is the
    base-q digit vector of code c."""
    q, dim = F.q, P.dim
    space = q ** dim
    qpow = q ** np.arange(dim, dtype=np.int64)
    codes = np.arange(space, dtype=np.int64)
    dig = ((codes[:, None] // qpow[None, :]) % q).astype(np.uint8)
    return space, dig


def batch_convolve(A, B, P, F):
    """Row-wise convolution of two (N, dim) digit arrays."""
    prod = P.prod_table
    add_t, mul_t = F.add_np, F.mul_np
    out = np.zeros_like(A)
    dim = A.shape[1]
    for a in range(dim):
        fa = A[:, a]
        row = prod[a]
        for b in range(dim):
            m = row[b]
            if m >= 0:
                out[:, m] = add_t[out[:, m], mul_t[fa, B[:, b]]]
    return out


def _check_scan(P, F, k, budget):
    if not F.is_finite():
        raise UnsupportedField("exhaustive potent scan needs a finite field")
    if k < 2:
        raise ValueError("k must be >= 2")
    space = F.q ** P.dim
    if space > budget:
        raise BudgetExceeded(
            f"coefficient space has {space} elements, budget is {budget}",
            required=space)


def potent_code_tables(P, F, k, budget=DEFAULT_BUDGET):
    """(codes, digits, lookup) for all k-potents, in code order.

    codes: int64 codes of the k-potents; digits: their (npot, dim) digit
    rows; lookup: uint8 membership table over the whole space.
    """
    _check_scan(P, F, k, budget)
    _, dig = space_digits(P, F)
    fk = dig
    for _ in range(k - 1):
        fk = batch_convolve(fk, dig, P, F)
    mask = (fk == dig).all(axis=1)
    codes = np.flatnonzero(mask).astype(np.int64)
    return codes, dig[codes].copy(), mask.astype(np.uint8)


@dataclass(frozen=True)
class PotentTables:
    codes: np.ndarray   # (npot,) int64, k-potents in code order
    lookup: np.ndarray  # (space,) uint8 membership
    elements: tuple     # the k-potents as IncElements, in code order


_POTENT_CACHE = {}


def cached_potents(P, F, k, budget=DEFAULT_BUDGET):
    """The k-potents of I(P, F), scanned once per (P, F, k) and shared by the
    sweep tables, ``enumerate_k_potents`` and the brute-force oracle
    ``linmaps.is_k_potent_preserver``. The budget is checked on every call,
    before the lookup: the cache key has no budget in it."""
    _check_scan(P, F, k, budget)
    key = (P, F, k)
    if key not in _POTENT_CACHE:
        codes, digits, lookup = potent_code_tables(P, F, k, budget)
        elements = tuple(IncElement(P, F, [int(v) for v in row])
                         for row in digits)
        _POTENT_CACHE[key] = PotentTables(codes, lookup, elements)
    return _POTENT_CACHE[key]


def enumerate_k_potents(P, F, k, budget=DEFAULT_BUDGET):
    """All f with f^k = f, in canonical code order. Finite fields only,
    refused (BudgetExceeded) when the coefficient space exceeds the budget."""
    return list(cached_potents(P, F, k, budget).elements)


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
    epsilon: Scalar
    idempotents: tuple


def spectral_decompose(a, k):
    """Split a k-potent into k-1 pairwise orthogonal idempotents b_i with
    a = sum of epsilon^-i b_i, where epsilon is the first primitive
    (k-1)-th root of unity."""
    P, F = a.poset, a.field
    if not is_k_potent(a, k):
        raise NotKPotent(f"element is not {k}-potent")
    try:
        eps = primitive_root_of_unity(F, k - 1).value
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
    return SpectralDecomposition(a, k, Scalar(F, eps), tuple(idems))


def simultaneous_diagonalize(alphas):
    """An invertible beta with beta_D = delta conjugating every alpha_i to
    its diagonal part: alpha_i = beta (alpha_i)_D beta^-1.

    The alphas must be pairwise commuting idempotents; the construction sums
    2^n products, so n is capped.
    """
    alphas = list(alphas)
    if not alphas:
        raise ValueError("need at least one idempotent")
    P, F = alphas[0].poset, alphas[0].field
    n = len(alphas)
    if n > SIMDIAG_MAX:
        raise BudgetExceeded(f"2^{n} terms exceed the cap 2^{SIMDIAG_MAX}",
                             required=2 ** n)
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
    beta = None
    for bits in range(1 << n):
        term = d
        for i in range(n):
            term = convolve(term, alphas[i] if (bits >> i) & 1 else d - alphas[i])
        for i in range(n):
            term = convolve(term, eps[i] if (bits >> i) & 1 else d - eps[i])
        beta = term if beta is None else beta + term
    if diagonal_part(beta) != d:
        raise InternalConsistencyError("diagonalizer has non-identity diagonal", beta)
    for a, e in zip(alphas, eps):
        if conjugate(e, beta) != a:
            raise InternalConsistencyError("diagonalizer fails to conjugate", a)
    return beta


def conjugate_to_diagonal(f, k):
    """A sigma with f = sigma f_D sigma^-1, through the spectral idempotents.

    Needs a primitive (k-1)-th root of unity in the field; refuses with
    HypothesesNotMet otherwise (there are k-potents with no diagonal
    conjugate when the root is missing, so no search is attempted).
    """
    if not is_k_potent(f, k):
        raise NotKPotent(f"element is not {k}-potent")
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


def is_primitive_idempotent(e):
    """Whether e is idempotent and conjugate to a single diagonal e_x."""
    if convolve(e, e) != e:
        raise NotIdempotent("element is not idempotent")
    if e.is_zero():
        return False
    conjugate_to_diagonal(e, 2)  # verifies e = sigma e_D sigma^-1
    F = e.field
    ones = [v for v in e.diag_values() if v != F.zero]
    return len(ones) == 1
