"""Constructive families of maps that the factorization theorems predict.

Everything here is built from the published ingredients only (inner
conjugations, order-induced maps, multiplicative scalings, shifts, roots of
unity), so comparing these families against a sweep's preserver list checks
the converse direction of each statement.
"""

import itertools

from ..algebra import IncElement
from ..errors import BudgetExceeded, UnsupportedField
from ..field import roots_of_unity
from ..linmaps import (compose, conjugation_map, is_multiplicative_coeffs,
                       multiplicative_map, order_induced_map, scale_map,
                       shift_from_functional)
from ..poset import enumerate_order_maps

FAMILY_BUDGET = 200_000


def invertible_elements(P, F):
    """All invertible elements: nonzero on the diagonal, free off it."""
    if not F.is_finite():
        raise UnsupportedField("element enumeration needs a finite field")
    q = F.q
    n, ns = P.n, P.n_strict
    total = (q - 1) ** n * q ** ns
    if total > FAMILY_BUDGET:
        raise BudgetExceeded(
            f"{total} invertible elements, budget {FAMILY_BUDGET}",
            required=total)
    units = list(range(1, q))
    alls = list(range(q))
    out = []
    for dvals in itertools.product(units, repeat=n):
        for svals in itertools.product(alls, repeat=ns):
            out.append(IncElement(P, F, tuple(dvals) + tuple(svals)))
    return out


def multiplicative_systems(P, F):
    """Elements with ones on the diagonal and units elsewhere whose
    coefficients are multiplicative across x < y < z."""
    if not F.is_finite():
        raise UnsupportedField("element enumeration needs a finite field")
    q = F.q
    units = list(range(1, q))
    out = []
    for svals in itertools.product(units, repeat=P.n_strict):
        sigma = IncElement(P, F, (F.one,) * P.n + tuple(svals))
        if is_multiplicative_coeffs(sigma):
            out.append(sigma)
    return out


def _sigma_classes(P, F, sigmas):
    """(representatives, coboundaries): the first sigma of each class of
    ``sigmas`` modulo the coboundaries c_xy = d_x / d_y, d in (F*)^n, in the
    order given, and the set of coboundaries as strict-pair value tuples."""
    strict = P.pairs[P.n:]
    cobs = {tuple(F.div(d[i], d[j]) for i, j in strict)
            for d in itertools.product(range(1, F.q), repeat=P.n)}
    covered, reps = set(), []
    for sigma in sigmas:
        s = sigma.coeffs[P.n:]
        if s not in covered:
            reps.append(sigma)
            covered.update(tuple(map(F.mul, s, c)) for c in cobs)
    return reps, cobs


def jordan_like_maps(P, F):
    """Every map of the shape conjugation after order-induced after
    multiplicative scaling, both order-map kinds, deduplicated.

    The loops run over order maps lambda, then multiplicative systems sigma,
    then conjugations beta, and keep the first map seen for each key. Two
    reductions skip work whose maps are all seen earlier, so the result,
    insertion order included, is that of running over every sigma and beta:

    - c * delta is central, so conjugating by c * beta equals conjugating by
      beta: the conjugations are built once each, for the beta whose first
      diagonal value is one (one per class modulo nonzero scalars). In the
      enumeration order of ``invertible_elements`` those come first, so a
      skipped beta only repeats a map seen earlier in its (lambda, sigma)
      block.
    - A coboundary c_xy = d_x / d_y (d invertible and diagonal) scales like
      a conjugation, M_c = conj(d), since d e_xy d^-1 = d_x d_y^-1 e_xy.
      Diagonal maps commute, so M_(sigma c) = M_sigma conj(d) = conj(d)
      M_sigma, and lambda^ conj(d) = conj(lambda^(d)^(+-1)) lambda^ for an
      order-induced automorphism (+1) or anti-automorphism (-1). Hence
      conj(beta) lambda^ M_(sigma c) = conj(beta lambda^(d)^(+-1)) lambda^
      M_sigma: the block of sigma c is the block of sigma with beta renamed.
      Only the first sigma of each class modulo coboundaries, in the order
      of ``multiplicative_systems`` (the all-ones sigma first), is composed;
      every later sigma of the class only adds keys its representative's
      block, earlier in the same lambda, already added. On a poset whose
      Hasse diagram is a tree every sigma is a coboundary, so one is left.

    Returns a dict keyed by the map's column tuple so membership tests and
    set comparison against sweep output are cheap.
    """
    conjs = [conjugation_map(beta)
             for beta in invertible_elements(P, F)
             if beta.coeffs[0] == F.one]
    # (q-1)^n coboundaries: bounded by the invertible-element budget above
    sigmas, _ = _sigma_classes(P, F, multiplicative_systems(P, F))
    oms = (enumerate_order_maps(P, "automorphism")
           + enumerate_order_maps(P, "anti_automorphism"))
    seen = {}
    for om in oms:
        lam_hat = order_induced_map(om, F)
        for sigma in sigmas:
            base = compose(lam_hat, multiplicative_map(sigma))
            for conj in conjs:
                m = compose(conj, base)
                seen.setdefault(m.cols, m)
    return seen


def scaled_maps(maps, F, k):
    """Scalar multiples r * psi over the (k-1)-th roots of unity."""
    roots = roots_of_unity(F, k - 1)
    seen = {}
    for m in maps:
        for r in roots:
            sm = scale_map(m, r)
            seen.setdefault(sm.cols, sm)
    return seen


def bijective_shifts(P, F):
    """All bijective maps f -> f + s(f) * delta.

    The shift is bijective exactly when 1 + s(delta) is nonzero, so the
    functional's diagonal coordinates may not sum to minus one.
    """
    if not F.is_finite():
        raise UnsupportedField("element enumeration needs a finite field")
    q = F.q
    bad = F.neg(F.one)
    out = []
    for svals in itertools.product(range(q), repeat=P.dim):
        s_delta = 0
        for v in svals[:P.n]:
            s_delta = F.add(s_delta, v)
        if s_delta == bad:
            continue
        out.append(shift_from_functional(P, F, list(svals)))
    return out
