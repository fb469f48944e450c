"""Worked demonstrations on fixed small instances.

Each demo builds a concrete map or element, evaluates a list of claims about
it, and returns a report dict. A failed claim raises ClaimFailed carrying
the full claim list, so a demo that returns at all has verified everything
it printed.
"""

from ..algebra import (basis_element, convolve, delta, diagonal_part,
                       is_k_potent, try_inverse)
from ..classify import z2_decompose
from ..errors import ClaimFailed, HypothesesNotMet
from ..field import GF
from .families import invertible_elements
from ..linmaps import (has_idempotent_diagonal_images, identity_map,
                       is_algebra_anti_automorphism,
                       is_algebra_automorphism, is_bijective,
                       is_k_potent_preserver, is_lie_homomorphism,
                       linmap_from_pair_images, shift_from_functional)
from ..poset import chain, poset_from_relations
from ..potents import conjugate_to_diagonal, spectral_decompose

def _claims_report(name, description, claims):
    for c in claims:
        if not c["ok"]:
            raise ClaimFailed(f"demo {name}: claim failed: {c['claim']}",
                              claims=claims)
    return {"demo": name, "description": description, "claims": claims,
            "ok": True}


def _c(claim, ok, **extra):
    rec = {"claim": claim, "ok": bool(ok)}
    rec.update(extra)
    return rec


def demo_lie_not_multiplicative():
    """A bijective idempotent preserver over a four-element field that is a
    Lie homomorphism but neither an automorphism nor an anti-automorphism."""
    P = poset_from_relations([1, 2, 3, 4], [(1, 2), (2, 3), (1, 4)])
    F = GF(4)

    def e(x, y=None):
        return basis_element(P, F, x, y if y is not None else x)

    phi = linmap_from_pair_images(P, F, {
        (1, 1): e(3) + e(4),
        (1, 2): e(2, 3),
        (1, 3): e(1, 3),
        (1, 4): e(1, 4),
        (2, 2): e(1) + e(3) + e(4),
        (2, 3): e(1, 2),
        (3, 3): e(2) + e(3),
        (4, 4): e(4),
    })
    pres = is_k_potent_preserver(phi, 2)
    claims = [
        _c("the map is bijective", is_bijective(phi)),
        _c("the map preserves brackets", is_lie_homomorphism(phi)),
        _c("every diagonal basis image is idempotent",
           has_idempotent_diagonal_images(phi)),
        _c("every idempotent maps to an idempotent (exhaustive)",
           pres, checked=pres.checked),
        _c("the map is not an algebra automorphism",
           not is_algebra_automorphism(phi)),
        _c("the map is not an anti-automorphism",
           not is_algebra_anti_automorphism(phi)),
    ]
    return _claims_report(
        "lie-not-multiplicative",
        "bracket-preserving idempotent preserver with no multiplicative form",
        claims)


def demo_lie_not_preserver():
    """A bijective Lie homomorphism that fails to preserve idempotents: over
    a field larger than two elements, adding a central term to one diagonal
    image already breaks preservation."""
    P = chain(2)
    F = GF(4)
    r = 2  # any value outside {0, 1} works
    d = delta(P, F)
    phi = linmap_from_pair_images(P, F, {
        (1, 1): basis_element(P, F, 1, 1),
        (1, 2): basis_element(P, F, 1, 2),
        (2, 2): basis_element(P, F, 2, 2) + d.scale(r),
    })
    pres = is_k_potent_preserver(phi, 2)
    witness_ok = (not pres and pres.witness is not None
                  and pres.witness.to_triples() == [(2, 2, 1)])
    claims = [
        _c("the map is bijective", is_bijective(phi)),
        _c("the map preserves brackets", is_lie_homomorphism(phi)),
        _c("the map does not preserve idempotents", not pres),
        _c("the first violating idempotent is the second diagonal unit",
           witness_ok,
           witness=pres.witness.to_jsonable() if pres.witness else None),
    ]
    return _claims_report(
        "lie-not-preserver",
        "central shift on one diagonal image destroys preservation when the "
        "field has more than two elements",
        claims)


def demo_pure_shift():
    """Over the two-element field the analogous central perturbation is a
    shift map: still an idempotent preserver, no longer a Lie map."""
    P = chain(2)
    F = GF(2)
    svals = [0] * P.dim
    svals[P.pair_index(1, 2)] = 1
    phi = shift_from_functional(P, F, svals)
    pres = is_k_potent_preserver(phi, 2)
    fact = z2_decompose(phi)
    claims = [
        _c("the map is bijective", is_bijective(phi)),
        _c("every idempotent maps to an idempotent (exhaustive)",
           pres, checked=pres.checked),
        _c("the map does not preserve brackets",
           not is_lie_homomorphism(phi)),
        _c("the factorization returns the map itself as the shift",
           fact.shift == phi),
        _c("the factorization returns the identity as the Lie part",
           fact.lie_part == identity_map(P, F)),
    ]
    return _claims_report(
        "pure-shift",
        "a shift map preserves idempotents without preserving brackets, and "
        "the factorization recognizes it",
        claims)


def demo_diagonal_obstruction():
    """Over the two-element field there are tripotents that are not
    conjugate to any diagonal element, so the spectral route is blocked."""
    P = chain(2)
    F = GF(2)
    f = delta(P, F) + basis_element(P, F, 1, 2)
    fd = diagonal_part(f)

    spectral_refused = False
    try:
        spectral_decompose(f, 3)
    except HypothesesNotMet:
        spectral_refused = True
    diag_refused = False
    try:
        conjugate_to_diagonal(f, 3)
    except HypothesesNotMet:
        diag_refused = True

    d = delta(P, F)
    stuck = True
    for u in invertible_elements(P, F):
        ui = try_inverse(u)
        if convolve(convolve(u, fd), ui) == f:
            stuck = False
            break
    claims = [
        _c("the element is tripotent", is_k_potent(f, 3)),
        _c("the element is not idempotent", not is_k_potent(f, 2)),
        _c("its diagonal part is the identity element", fd == d),
        _c("the spectral split refuses: no primitive square root of unity",
           spectral_refused),
        _c("diagonalization by conjugation refuses for the same reason",
           diag_refused),
        _c("no invertible element conjugates the diagonal part onto it",
           stuck),
    ]
    return _claims_report(
        "diagonal-obstruction",
        "a tripotent over the two-element field whose diagonal part is not "
        "conjugate to it",
        claims)


_DEMOS = {
    "lie-not-multiplicative": demo_lie_not_multiplicative,
    "lie-not-preserver": demo_lie_not_preserver,
    "pure-shift": demo_pure_shift,
    "diagonal-obstruction": demo_diagonal_obstruction,
}
DEMO_NAMES = tuple(_DEMOS)


def run_demo(name):
    if name not in _DEMOS:
        raise ValueError(f"unknown demo {name!r}; choose from {DEMO_NAMES}")
    return _DEMOS[name]()


def run_all_demos():
    return [run_demo(name) for name in DEMO_NAMES]
