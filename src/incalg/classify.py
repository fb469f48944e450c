"""Constructive factorization of potent-preserving linear maps.

Three pipelines, chosen by (k, field):

- jordan_decompose: a bijective Jordan homomorphism is peeled into an inner
  conjugation, the map induced by an order (anti-)automorphism, and a
  multiplicative rescaling of the strict basis, in that composition order.
- z2_decompose: over GF(2) a bijective idempotent preserver factors as a
  central shift composed with a bijective Lie homomorphism; the inner
  conjugation produced along the way is commuted past the shift so the shift
  ends up outermost.
- scalar_split: for k >= 3 a k-potent preserver is a (k-1)-th root of unity
  times a Jordan automorphism, which then goes through jordan_decompose.

Every pipeline recomposes its factors and compares against the input map
exactly; a mismatch raises, never returns.

regime_of is the one place that maps (field, k) to the statement that
covers it; classify_preserver and the exhaustive verifier both ask it.
"""

from dataclasses import dataclass

from .algebra import (IncElement, as_scalar_multiple_of_delta, basis_element,
                      convolve, delta, diagonal_part, is_central, is_invertible,
                      try_inverse)
from .errors import (DisconnectedPoset, DownstreamJordanFailure,
                     HypothesesNotMet, InternalConsistencyError,
                     LambdaNotOrderMap, NoPrimitiveRoot, NotIdempotentPreserver,
                     NotJordanAutomorphism, NuNotCentral, PhiDeltaNotScalar,
                     RecompositionMismatch, RootConditionFailed,
                     ThetaNotBijective, ThetaNotSingleBasisVector,
                     UnsupportedRegime)
from .field import Scalar, primitive_root_of_unity
from .linmaps import (LinMap, apply_map, compose, conjugation_map, format_linmap,
                      has_idempotent_diagonal_images,
                      is_algebra_anti_automorphism, is_algebra_automorphism,
                      is_bijective, is_jordan_homomorphism, is_k_potent_preserver,
                      is_lie_homomorphism, is_multiplicative_coeffs, is_shift_map,
                      linmap_from_images, multiplicative_map, order_induced_map,
                      scale_map)
from .poset import OrderMap, is_connected
from .potents import DEFAULT_BUDGET, simultaneous_diagonalize


@dataclass(frozen=True)
class JordanFactorization:
    """phi = conjugation by inner_beta, then the map induced by order_map,
    then the multiplicative rescaling by sigma, composed right to left:
    phi = conj(inner_beta) o order_map^ o M_sigma."""
    inner_beta: IncElement
    order_map: OrderMap
    sigma: IncElement

    def recompose(self):
        F = self.inner_beta.field
        return compose(conjugation_map(self.inner_beta),
                       compose(order_induced_map(self.order_map, F),
                               multiplicative_map(self.sigma)))


@dataclass(frozen=True)
class Z2Factorization:
    """phi = shift o lie_part; inner_beta is the conjugator found on the way
    (informational; it is already folded into lie_part)."""
    shift: LinMap
    lie_part: LinMap
    inner_beta: IncElement

    def recompose(self):
        return compose(self.shift, self.lie_part)


@dataclass(frozen=True)
class ScalarSplit:
    """phi = r * psi with r^(k-1) = 1 and psi an algebra automorphism or
    anti-automorphism (whose own factors sit in `factorization`)."""
    r: Scalar
    psi: LinMap
    psi_kind: str
    factorization: JordanFactorization


def jordan_decompose(phi):
    """Factor a bijective Jordan homomorphism of a connected algebra."""
    P, F = phi.poset, phi.field
    if not is_connected(P):
        raise DisconnectedPoset("factorization needs a connected poset")
    if not is_bijective(phi):
        raise NotJordanAutomorphism("map is not bijective")
    if not is_jordan_homomorphism(phi):
        raise NotJordanAutomorphism("map is not a Jordan homomorphism")

    one, z = F.one, F.zero
    lam = [None] * P.n
    for i in range(P.n):
        dvals = phi.image(i).diag_values()
        hits = [j for j, v in enumerate(dvals) if v != z]
        if len(hits) != 1 or dvals[hits[0]] != one:
            raise LambdaNotOrderMap(
                "diagonal of the image of a primitive idempotent is not a single unit",
                detail=phi.image(i))
        lam[i] = hits[0]
    if sorted(lam) != list(range(P.n)):
        raise LambdaNotOrderMap("induced vertex map is not a bijection", detail=lam)

    strict = P.pairs[P.n:]
    preserves = all(P._leq[lam[i]][lam[j]] for i, j in strict)
    reverses = all(P._leq[lam[j]][lam[i]] for i, j in strict)
    if preserves:
        kind = OrderMap.AUTO
    elif reverses:
        kind = OrderMap.ANTI
    else:
        raise LambdaNotOrderMap("induced vertex map is neither monotone nor antitone",
                                detail=lam)
    try:
        order_map = OrderMap(P, lam, kind)
    except ValueError as e:
        raise LambdaNotOrderMap(str(e), detail=lam) from e

    # potents.simultaneous_diagonalize specialized to orthogonal idempotents
    # with diagonals e_lam(i): at the point lam(i) its product over j is
    # phi(e_i) alone, so beta = sum_i phi(e_i) e_lam(i) costs n convolutions
    # against the general formula's n^2
    beta = None
    for i in range(P.n):
        term = convolve(phi.image(i),
                        basis_element(P, F, P.labels[lam[i]], P.labels[lam[i]]))
        beta = term if beta is None else beta + term
    if not is_invertible(beta):
        raise InternalConsistencyError("inner part not invertible", beta)

    psi1 = compose(conjugation_map(try_inverse(beta)), phi)
    for i in range(P.n):
        if psi1.image(i) != basis_element(P, F, P.labels[lam[i]], P.labels[lam[i]]):
            raise InternalConsistencyError(
                "conjugation does not normalize the idempotent images", phi.image(i))

    lam_hat_inv = order_induced_map(order_map.inverse(), F)
    psi2 = compose(lam_hat_inv, psi1)
    sigma_vals = [one] * P.n + [z] * P.n_strict
    for k in range(P.n, P.dim):
        img = psi2.image(k)
        val = img.coeffs[k]
        stripped = [z] * P.dim
        stripped[k] = val
        if val == z or img != IncElement(P, F, stripped):
            raise RecompositionMismatch(
                "residual map does not rescale the strict basis", img)
        sigma_vals[k] = val
    sigma = IncElement(P, F, sigma_vals)
    if not is_multiplicative_coeffs(sigma):
        raise RecompositionMismatch("residual rescaling is not multiplicative", sigma)

    fact = JordanFactorization(beta, order_map, sigma)
    if fact.recompose() != phi:
        raise RecompositionMismatch("factors do not recompose to the input", fact)
    return fact


def _require_idempotent_preserver(phi, mode, budget):
    """Raise NotIdempotentPreserver, naming the first idempotent whose image
    is not idempotent, unless phi preserves idempotents."""
    check = is_k_potent_preserver(phi, 2, mode=mode, budget=budget)
    if not check:
        raise NotIdempotentPreserver(
            f"idempotent {check.witness!r} maps to a non-idempotent")


def z2_decompose(phi, budget=DEFAULT_BUDGET):
    """Factor a bijective idempotent preserver over GF(2) as shift o lie."""
    P, F = phi.poset, phi.field
    if not (F.is_finite() and F.q == 2):
        raise UnsupportedRegime("shift/Lie factorization is specific to GF(2)")
    if not is_connected(P):
        raise DisconnectedPoset("factorization needs a connected poset")
    if not is_bijective(phi):
        raise HypothesesNotMet("factorization covers bijective maps only")
    _require_idempotent_preserver(phi, "exhaustive", budget)

    alphas = [phi.image(i) for i in range(P.n)]
    beta = simultaneous_diagonalize(alphas)
    eta_inv = conjugation_map(try_inverse(beta))
    psi1 = compose(eta_inv, phi)
    for i in range(P.n):
        if not psi1.image(i).is_diagonal():
            raise InternalConsistencyError(
                "conjugation failed to diagonalize an idempotent image",
                psi1.image(i))

    theta = {}
    nu = {}
    for k in range(P.n, P.dim):
        g = psi1.image(k)
        strict_support = [m for m in range(P.n, P.dim) if g.coeffs[m] != F.zero]
        if len(strict_support) != 1:
            raise ThetaNotSingleBasisVector(
                "strict part of a strict-basis image is not a single basis vector",
                detail=g)
        theta[k] = strict_support[0]
        d = diagonal_part(g)
        if not is_central(d):
            raise NuNotCentral("diagonal correction is not central", detail=g)
        nu[k] = d
    if sorted(theta.values()) != list(range(P.n, P.dim)):
        raise ThetaNotBijective("strict basis images collide", detail=theta)

    # tau fixes the diagonal and adds back the central correction on each
    # theta image; over GF(2) it is an involution
    tau_images = [basis_element(P, F, P.labels[i], P.labels[i]) for i in range(P.n)]
    tau_images += [None] * P.n_strict
    pairs = P.comparable_pairs()
    for k in range(P.n, P.dim):
        m = theta[k]
        x, y = pairs[m]
        tau_images[m] = basis_element(P, F, x, y) + nu[k]
    tau = linmap_from_images(P, F, tau_images)

    psi = compose(tau, psi1)
    if not (is_bijective(psi) and is_lie_homomorphism(psi)):
        raise InternalConsistencyError("normalized part is not a Lie automorphism",
                                       format_linmap(psi))

    # commute the inner conjugation past tau: tau - id maps into F delta,
    # which eta fixes, so eta tau eta^-1 (f) = f + (tau - id)(eta^-1 f)
    eta = conjugation_map(beta)
    shift = compose(eta, compose(tau, eta_inv))
    lie_part = compose(eta, psi)

    if not is_shift_map(shift):
        raise InternalConsistencyError("commuted shift lost its shift form",
                                       format_linmap(shift))
    if not (is_bijective(lie_part) and is_lie_homomorphism(lie_part)):
        raise InternalConsistencyError("outer Lie part is not a Lie automorphism",
                                       format_linmap(lie_part))
    fact = Z2Factorization(shift, lie_part, beta)
    if fact.recompose() != phi:
        raise RecompositionMismatch("shift o lie does not recompose to the input",
                                    fact)
    return fact


def scalar_split(phi, k, mode="exhaustive", budget=DEFAULT_BUDGET):
    """Split a k-potent preserver (k >= 3) as r * (auto or anti-auto)."""
    P, F = phi.poset, phi.field
    if k < 3:
        raise ValueError("scalar_split applies to k >= 3")
    if not is_connected(P):
        raise DisconnectedPoset("factorization needs a connected poset")
    check = is_k_potent_preserver(phi, k, mode=mode, budget=budget)
    if not check:
        raise HypothesesNotMet(
            f"{k}-potent {check.witness!r} maps to a non-{k}-potent")

    u = apply_map(phi, delta(P, F))
    r = as_scalar_multiple_of_delta(u)
    if r is None or r == F.zero:
        raise PhiDeltaNotScalar(
            f"image of delta is not a nonzero multiple of delta: {u!r}")
    if F.pow_(r, k - 1) != F.one:
        raise RootConditionFailed(
            f"scalar {F.format(r)} is not a ({k - 1})-th root of unity")

    psi = scale_map(phi, F.pow_(r, k - 2))
    if apply_map(psi, delta(P, F)) != delta(P, F):
        raise InternalConsistencyError("normalized map does not fix delta", psi)
    try:
        fact = jordan_decompose(psi)
    except NotJordanAutomorphism as e:
        raise DownstreamJordanFailure(
            f"normalized map is not a Jordan automorphism: {e}") from e

    kind = fact.order_map.kind
    direct = is_algebra_automorphism(psi) if kind == OrderMap.AUTO \
        else is_algebra_anti_automorphism(psi)
    if not direct:
        raise InternalConsistencyError(
            "factor kind disagrees with the direct predicate", kind)
    if scale_map(psi, r) != phi:
        raise RecompositionMismatch("r * psi does not recompose to the input", phi)
    return ScalarSplit(Scalar(F, r), psi, kind, fact)


# --- dispatch and reporting ---

def regime_of(F, k):
    """The statement of the classification that covers k-potent preservers
    over F: "z2", "char-2-big", "char-ne-2", "tripotent" or "kpotent".

    Raises ValueError for k < 2, and UnsupportedRegime for k >= 3 when the
    characteristic divides k or F has no primitive (k-1)-th root of unity.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        if F.char != 2:
            return "char-ne-2"
        return "z2" if F.q == 2 else "char-2-big"
    if F.char != 0 and k % F.char == 0:
        raise UnsupportedRegime(
            f"k = {k} is divisible by the characteristic {F.char}")
    try:
        primitive_root_of_unity(F, k - 1)
    except NoPrimitiveRoot as e:
        raise UnsupportedRegime(str(e)) from e
    return "tripotent" if k == 3 else "kpotent"


def _linmap_jsonable(phi):
    F = phi.field
    return {"field": F.flag(), "dim": phi.poset.dim,
            "columns": [[F.format(v) for v in col] for col in phi.cols]}


def _element_jsonable(f):
    return [[x, y, c if isinstance(c, int) else str(c)] for x, y, c in f.to_triples()]


def _jordan_factors(fact):
    om = fact.order_map
    return {"inner_beta": _element_jsonable(fact.inner_beta),
            "order_map": {"mapping": {str(x): str(om(x))
                                      for x in om.poset.labels},
                          "kind": om.kind},
            "sigma": _element_jsonable(fact.sigma)}


# --- one certify function per regime: (certificates, factors, notes) ---

def _certify_z2(phi, k, mode, budget):
    fact = z2_decompose(phi, budget=budget)
    return ({"bijective": True, "idempotent_preserver": mode,
             "shift_is_shift_map": True, "lie_part_is_lie_automorphism": True},
            {"shift": _linmap_jsonable(fact.shift),
             "lie_part": _linmap_jsonable(fact.lie_part),
             "inner_beta": _element_jsonable(fact.inner_beta)},
            ["shift o lie_part recomposes to the input exactly"])


def _certify_char_2_big(phi, k, mode, budget):
    # certificates only: no automorphism/anti-automorphism factorization
    # exists in general, so none is attempted
    _require_idempotent_preserver(phi, mode, budget)
    if not (is_lie_homomorphism(phi) and has_idempotent_diagonal_images(phi)):
        raise InternalConsistencyError(
            "exhaustive idempotent preserver misses its certificate",
            format_linmap(phi))
    return ({"bijective": True, "idempotent_preserver": mode,
             "lie_homomorphism": True, "diagonal_idempotent_images": True},
            {}, ["maps in this regime are Lie automorphisms sending each "
                 "e_x to an idempotent; no automorphism/anti-automorphism "
                 "factorization exists in general and none is attempted"])


def _certify_char_ne_2(phi, k, mode, budget):
    _require_idempotent_preserver(phi, mode, budget)
    fact = jordan_decompose(phi)
    return ({"bijective": True, "idempotent_preserver": mode,
             "jordan_homomorphism": True, "kind": fact.order_map.kind},
            _jordan_factors(fact), [])


def _certify_scalar_split(phi, k, mode, budget):
    split = scalar_split(phi, k, mode=mode, budget=budget)
    r = phi.field.format(split.r.value)
    return ({"bijective": True, "potent_preserver": mode, "r": r,
             "r_power_check": f"r^{k - 1} = 1", "psi_kind": split.psi_kind},
            {"r": r, "psi": _linmap_jsonable(split.psi),
             **_jordan_factors(split.factorization)},
            [])


_CERTIFY = {
    "z2": _certify_z2,
    "char-2-big": _certify_char_2_big,
    "char-ne-2": _certify_char_ne_2,
    "tripotent": _certify_scalar_split,
    "kpotent": _certify_scalar_split,
}


@dataclass
class ClassifyReport:
    regime: str
    k: int
    field: str
    certificates: dict
    factors: dict
    notes: list

    def to_jsonable(self):
        return {"regime": self.regime, "k": self.k, "field": self.field,
                "certificates": self.certificates, "factors": self.factors,
                "notes": self.notes}


def classify_preserver(phi, k, budget=DEFAULT_BUDGET):
    """Verify that phi preserves k-potents and factor it per its regime.

    Raises (never fabricates a report) when phi is not a preserver or the
    (k, field) regime is outside the classified territory.
    """
    P, F = phi.poset, phi.field
    regime = regime_of(F, k)
    if not is_connected(P):
        raise DisconnectedPoset("classification needs a connected poset")
    if not is_bijective(phi):
        raise HypothesesNotMet("classification covers bijective maps only")
    mode = "exhaustive" if F.is_finite() else "sampled"
    certificates, factors, notes = _CERTIFY[regime](phi, k, mode, budget)
    if mode == "sampled":
        notes.append("rational scalars: preserver check is the sampled "
                     "necessary condition, not an exhaustive proof")
    return ClassifyReport(regime, k, F.flag(), certificates, factors, notes)
