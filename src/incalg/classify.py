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

The pipelines work on raw coefficient tuples through the *_coeffs helpers
of algebra. Each pipeline has one entry point, which checks its own inputs;
classify_preserver runs its guards first and then calls the pipeline of its
regime. linmaps.is_bijective keeps its answer on the map, so a map is
eliminated once however many of these checks ask.

Every pipeline recomposes its factors and compares against the input map
exactly; a mismatch raises, never returns. jordan_decompose recomposes per
column, beta (sigma_k e_lam^(k)) beta^-1 = phi(e_k) on tuples for every
basis index k; z2_decompose composes its shift after its Lie part;
scalar_split compares r * psi with the input.
JordanFactorization.recompose() builds each factor as a LinMap
(conjugation_map, order_induced_map, multiplicative_map) and composes them;
the pipelines never call it, so the tests use it as an independent oracle
of the per-column check.

regime_of is the one place that maps (field, k) to the statement that
covers it; classify_preserver and the exhaustive verifier both ask it.
"""

from dataclasses import asdict, dataclass
from fractions import Fraction

from .algebra import (IncElement, as_scalar_multiple_of_delta,
                      conjugate_coeffs, delta, is_central_coeffs, try_inverse)
from .errors import (DisconnectedPoset, DownstreamJordanFailure,
                     HypothesesNotMet, InternalConsistencyError,
                     LambdaNotOrderMap, NoPrimitiveRoot, NotIdempotentPreserver,
                     NotJordanAutomorphism, NuNotCentral, PhiDeltaNotScalar,
                     RecompositionMismatch, RootConditionFailed,
                     ThetaNotBijective, ThetaNotSingleBasisVector,
                     UnsupportedRegime)
from .field import primitive_root_of_unity
from .linmaps import (LinMap, _apply_vec, _has_shift_form, _is_algebra_iso,
                      apply_map, compose, conjugation_map, format_linmap,
                      has_idempotent_diagonal_images, identity_map,
                      is_bijective, is_jordan_homomorphism, is_k_potent_preserver,
                      is_lie_homomorphism, is_multiplicative_coeffs,
                      multiplicative_map, order_induced_map, scale_map)
from .poset import OrderMap, is_connected
from .potents import simultaneous_diagonalize


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
    r: int | Fraction
    psi: LinMap
    psi_kind: str
    factorization: JordanFactorization
    mode: str  # how phi's preservation was checked: exhaustive or sampled


def jordan_decompose(phi):
    """Factor a bijective Jordan homomorphism of a connected algebra,
    column by column on coefficient tuples."""
    P, F = phi.poset, phi.field
    if not is_connected(P):
        raise DisconnectedPoset("factorization needs a connected poset")
    if not is_bijective(phi):
        raise NotJordanAutomorphism("map is not bijective")
    if not is_jordan_homomorphism(phi):
        raise NotJordanAutomorphism("map is not a Jordan homomorphism")

    one, z = F.one, F.zero
    cols = phi.cols
    lam = [None] * P.n
    for i in range(P.n):
        dvals = cols[i][:P.n]
        hits = [j for j, v in enumerate(dvals) if v != z]
        if len(hits) != 1 or dvals[hits[0]] != one:
            raise LambdaNotOrderMap(
                "diagonal of the image of a primitive idempotent is not a single unit",
                detail=phi.image(i))
        lam[i] = hits[0]
    if sorted(lam) != list(range(P.n)):
        raise LambdaNotOrderMap("induced vertex map is not a bijection", detail=lam)

    # a bijective monotone (antitone) map of a finite poset is an order
    # (anti-)automorphism, so the first kind whose law holds is the kind
    for kind in (OrderMap.AUTO, OrderMap.ANTI):
        try:
            order_map = OrderMap(P, lam, kind)
            break
        except ValueError:
            continue
    else:
        raise LambdaNotOrderMap("induced vertex map is neither monotone nor antitone",
                                detail=lam)
    lam_hat = order_map.basis_perm()

    # potents.simultaneous_diagonalize specialized to orthogonal idempotents
    # with diagonals e_lam(i): beta = sum_i phi(e_i) e_lam(i). Multiplying by
    # e_y on the right keeps the pairs (x, y) and clears the rest, so beta
    # at (x, y) is phi(e_i) at (x, y) for the i with lam(i) = y
    lam_inv = [0] * P.n
    for i, y in enumerate(lam):
        lam_inv[y] = i
    b = tuple(cols[lam_inv[y]][m] for m, (_, y) in enumerate(P.pairs))
    beta = IncElement(P, F, b)
    if any(v == z for v in b[:P.n]):
        raise InternalConsistencyError("inner part not invertible", beta)
    binv = try_inverse(beta).coeffs

    # psi1 = conj(beta)^-1 o phi must send e_i to e_lam(i), and each strict
    # e_k to sigma_k e_lam_hat(k) with sigma_k nonzero
    sigma_vals = [one] * P.n + [z] * P.n_strict
    for k in range(P.dim):
        g = conjugate_coeffs(P, F, binv, cols[k], b)
        m = lam_hat[k]
        val = g[m]
        scaled = [z] * P.dim
        scaled[m] = val
        if k < P.n:
            if val != one or g != tuple(scaled):
                raise InternalConsistencyError(
                    "conjugation does not normalize the idempotent images",
                    phi.image(k))
        elif val == z or g != tuple(scaled):
            raise RecompositionMismatch(
                "residual map does not rescale the strict basis",
                IncElement(P, F, [g[t] for t in lam_hat]))
        else:
            sigma_vals[k] = val
    sigma = IncElement(P, F, sigma_vals)
    if not is_multiplicative_coeffs(sigma):
        raise RecompositionMismatch("residual rescaling is not multiplicative", sigma)

    fact = JordanFactorization(beta, order_map, sigma)
    if _recomposed_columns(P, F, b, binv, lam_hat, sigma_vals) != cols:
        raise RecompositionMismatch("factors do not recompose to the input", fact)
    return fact


def _recomposed_columns(P, F, b, binv, lam_hat, sigma_vals):
    """Columns of conj(beta) o lam^ o M_sigma: column k is
    beta (sigma_k e_lam_hat(k)) beta^-1."""
    out = []
    for k, m in enumerate(lam_hat):
        e = [F.zero] * P.dim
        e[m] = sigma_vals[k]
        out.append(conjugate_coeffs(P, F, b, tuple(e), binv))
    return tuple(out)


def _require_idempotent_preserver(phi):
    """Raise NotIdempotentPreserver, naming the first idempotent whose image
    is not idempotent, unless phi preserves idempotents; return the check."""
    check = is_k_potent_preserver(phi, 2)
    if not check:
        raise NotIdempotentPreserver(
            f"idempotent {check.witness!r} maps to a non-idempotent")
    return check


def z2_decompose(phi):
    """Factor a bijective idempotent preserver over GF(2) as shift o lie."""
    P, F = phi.poset, phi.field
    if not (F.is_finite() and F.q == 2):
        raise UnsupportedRegime("shift/Lie factorization is specific to GF(2)")
    if not is_connected(P):
        raise DisconnectedPoset("factorization needs a connected poset")
    if not is_bijective(phi):
        raise HypothesesNotMet("factorization covers bijective maps only")
    _require_idempotent_preserver(phi)

    z = F.zero
    beta = simultaneous_diagonalize([phi.image(i) for i in range(P.n)])
    b, binv = beta.coeffs, try_inverse(beta).coeffs
    # psi1 = eta^-1 o phi, with eta the conjugation by beta
    psi1 = [conjugate_coeffs(P, F, binv, col, b) for col in phi.cols]
    for i in range(P.n):
        if any(v != z for v in psi1[i][P.n:]):
            raise InternalConsistencyError(
                "conjugation failed to diagonalize an idempotent image",
                IncElement(P, F, psi1[i]))

    theta = {}
    nu = {}
    for k in range(P.n, P.dim):
        g = psi1[k]
        strict_support = [m for m in range(P.n, P.dim) if g[m] != z]
        if len(strict_support) != 1:
            raise ThetaNotSingleBasisVector(
                "strict part of a strict-basis image is not a single basis vector",
                detail=IncElement(P, F, g))
        theta[k] = strict_support[0]
        d = g[:P.n] + (z,) * P.n_strict
        if not is_central_coeffs(P, F, d):
            raise NuNotCentral("diagonal correction is not central",
                               detail=IncElement(P, F, g))
        nu[k] = d
    if sorted(theta.values()) != list(range(P.n, P.dim)):
        raise ThetaNotBijective("strict basis images collide", detail=theta)

    # tau fixes the diagonal and adds back the central correction on each
    # theta image (nu is zero off the diagonal, so e_m + nu is nu with a one
    # at m); over GF(2) it is an involution
    ident = identity_map(P, F)
    tau_cols = list(ident.cols)
    for k in range(P.n, P.dim):
        col = list(nu[k])
        col[theta[k]] = F.one
        tau_cols[theta[k]] = tuple(col)
    tau = LinMap(P, F, tau_cols)

    # psi = tau o eta^-1 o phi is bijective when tau is: phi is, and eta^-1
    # has the inverse eta. tau o tau = id proves tau bijective, and with it
    # the bijectivity of the commuted shift and of the outer Lie part below
    psi = LinMap(P, F, [_apply_vec(tau, col) for col in psi1])
    if not (compose(tau, tau) == ident and is_lie_homomorphism(psi)):
        raise InternalConsistencyError("normalized part is not a Lie automorphism",
                                       format_linmap(psi))

    # commute the inner conjugation past tau: tau - id maps into F delta,
    # which eta fixes, so eta tau eta^-1 (f) = f + (tau - id)(eta^-1 f)
    shift = LinMap(P, F, [
        conjugate_coeffs(P, F, b,
                         _apply_vec(tau, conjugate_coeffs(P, F, binv, e, b)),
                         binv)
        for e in ident.cols])
    lie_part = LinMap(P, F, [conjugate_coeffs(P, F, b, col, binv)
                             for col in psi.cols])

    if not _has_shift_form(shift):
        raise InternalConsistencyError("commuted shift lost its shift form",
                                       format_linmap(shift))
    if not is_lie_homomorphism(lie_part):
        raise InternalConsistencyError("outer Lie part is not a Lie automorphism",
                                       format_linmap(lie_part))
    fact = Z2Factorization(shift, lie_part, beta)
    if fact.recompose() != phi:
        raise RecompositionMismatch("shift o lie does not recompose to the input",
                                    fact)
    return fact


def scalar_split(phi, k):
    """Split a k-potent preserver (k >= 3) as r * (auto or anti-auto); over Q,
    where the preserver check is sampled, the checked factors keep it exact."""
    if k < 3:
        raise ValueError("scalar_split applies to k >= 3")
    P, F = phi.poset, phi.field
    if not is_connected(P):
        raise DisconnectedPoset("factorization needs a connected poset")
    if not is_bijective(phi):
        raise HypothesesNotMet("factorization covers bijective maps only")
    check = is_k_potent_preserver(phi, k)
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

    # psi, a nonzero multiple of phi, inherits phi's known bijectivity
    psi = scale_map(phi, F.pow_(r, k - 2))
    if apply_map(psi, delta(P, F)) != delta(P, F):
        raise InternalConsistencyError("normalized map does not fix delta", psi)
    try:
        fact = jordan_decompose(psi)
    except NotJordanAutomorphism as e:
        raise DownstreamJordanFailure(
            f"normalized map is not a Jordan automorphism: {e}") from e

    kind = fact.order_map.kind
    if not _is_algebra_iso(psi, anti=kind == OrderMap.ANTI):
        raise InternalConsistencyError(
            "factor kind disagrees with the direct predicate", kind)
    if scale_map(psi, r) != phi:
        raise RecompositionMismatch("r * psi does not recompose to the input", phi)
    return ScalarSplit(r, psi, kind, fact, check.mode)


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


def _jordan_factors(fact):
    om = fact.order_map
    return {"inner_beta": fact.inner_beta.to_jsonable(),
            "order_map": {"mapping": [[x, om(x)] for x in om.poset.labels],
                          "kind": om.kind},
            "sigma": fact.sigma.to_jsonable()}


# --- one certify function per regime: (certificates, factors, notes) ---

def _certify_z2(phi, k):
    # z2_decompose runs over GF(2), where its preserver check is exhaustive
    fact = z2_decompose(phi)
    return ({"bijective": True, "idempotent_preserver": "exhaustive",
             "shift_is_shift_map": True, "lie_part_is_lie_automorphism": True},
            {"shift": _linmap_jsonable(fact.shift),
             "lie_part": _linmap_jsonable(fact.lie_part),
             "inner_beta": fact.inner_beta.to_jsonable()},
            ["shift o lie_part recomposes to the input exactly"])


def _certify_char_2_big(phi, k):
    # certificates only: no automorphism/anti-automorphism factorization
    # exists in general, so none is attempted
    check = _require_idempotent_preserver(phi)
    if not (is_lie_homomorphism(phi) and has_idempotent_diagonal_images(phi)):
        raise InternalConsistencyError(
            "exhaustive idempotent preserver misses its certificate",
            format_linmap(phi))
    return ({"bijective": True, "idempotent_preserver": check.mode,
             "lie_homomorphism": True, "diagonal_idempotent_images": True},
            {}, ["maps in this regime are Lie automorphisms sending each "
                 "e_x to an idempotent; no automorphism/anti-automorphism "
                 "factorization exists in general and none is attempted"])


def _certify_char_ne_2(phi, k):
    check = _require_idempotent_preserver(phi)
    fact = jordan_decompose(phi)
    return ({"bijective": True, "idempotent_preserver": check.mode,
             "jordan_homomorphism": True, "kind": fact.order_map.kind},
            _jordan_factors(fact), [])


def _certify_scalar_split(phi, k):
    split = scalar_split(phi, k)
    r = phi.field.format(split.r)
    return ({"bijective": True, "potent_preserver": split.mode, "r": r,
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
        return asdict(self)


def classify_preserver(phi, k):
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
    certificates, factors, notes = _CERTIFY[regime](phi, k)
    if not F.is_finite():
        notes.append("rational scalars: preserver check is the sampled "
                     "necessary condition, not an exhaustive proof")
    return ClassifyReport(regime, k, F.flag(), certificates, factors, notes)
