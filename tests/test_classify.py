"""Factorization pipelines: exact recovery and honest refusals."""

import hashlib
import json

import pytest

import incalg.classify as classify
import incalg.linmaps as linmaps
from incalg.algebra import (basis_element, delta, from_triples, is_k_potent,
                            try_inverse)
from incalg.classify import (classify_preserver, jordan_decompose,
                             scalar_split, z2_decompose)
from incalg.errors import (DisconnectedPoset, HypothesesNotMet, IncalgError,
                           NotIdempotentPreserver, NotJordanAutomorphism,
                           PhiDeltaNotScalar, RecompositionMismatch,
                           UnsupportedRegime)
from incalg.field import GF, QQ
from incalg.harness.families import jordan_like_maps
from incalg.harness.gl import enumerate_gl
from incalg.linmaps import (LinMap, apply_map, compose, conjugation_map,
                            identity_map, is_jordan_homomorphism,
                            is_k_potent_preserver,
                            linmap_from_images, linmap_from_pair_images,
                            multiplicative_map, order_induced_map, scale_map,
                            shift_from_functional)
from incalg.poset import antichain, chain, enumerate_order_maps

from toolkit import swept_preservers, vee


def jordan_map(P, F, beta_triples, kind, sigma_triples):
    beta = from_triples(P, F, beta_triples)
    om = enumerate_order_maps(P, kind)[0]
    sigma = from_triples(P, F, sigma_triples)
    return compose(conjugation_map(beta),
                   compose(order_induced_map(om, F), multiplicative_map(sigma)))


def test_jordan_decompose_automorphism_kind():
    P, F = chain(2), GF(3)
    phi = jordan_map(P, F, [(1, 1, 1), (2, 2, 1), (1, 2, 1)],
                     "automorphism", [(1, 1, 1), (2, 2, 1), (1, 2, 2)])
    fact = jordan_decompose(phi)
    assert fact.order_map.kind == "automorphism"
    assert fact.recompose() == phi


def test_jordan_decompose_anti_kind():
    P, F = chain(3), GF(5)
    phi = jordan_map(P, F,
                     [(1, 1, 2), (2, 2, 1), (3, 3, 1), (1, 2, 3), (2, 3, 1)],
                     "anti_automorphism",
                     [(1, 1, 1), (2, 2, 1), (3, 3, 1), (1, 2, 2), (2, 3, 1),
                      (1, 3, 2)])
    fact = jordan_decompose(phi)
    assert fact.order_map.kind == "anti_automorphism"
    assert fact.recompose() == phi


def test_jordan_decompose_every_preserver_gf3():
    P, F = chain(2), GF(3)
    maps = swept_preservers(P, F, 2)
    assert len(maps) == 12
    for phi in maps:
        fact = jordan_decompose(phi)
        assert fact.recompose() == phi


def test_jordan_decompose_rejects_non_jordan():
    P, F = chain(2), GF(3)
    bad = linmap_from_pair_images(P, F, {
        (1, 1): basis_element(P, F, 1, 1),
        (2, 2): basis_element(P, F, 2, 2),
        (1, 2): basis_element(P, F, 1, 2) + basis_element(P, F, 1, 1),
    })
    with pytest.raises(NotJordanAutomorphism):
        jordan_decompose(bad)
    rank_deficient = linmap_from_images(
        P, F, [delta(P, F), delta(P, F), basis_element(P, F, 1, 2)])
    with pytest.raises(NotJordanAutomorphism):
        jordan_decompose(rank_deficient)
    with pytest.raises(DisconnectedPoset):
        jordan_decompose(identity_map(antichain(2), F))


def test_jordan_decompose_over_rationals():
    P, F = chain(2), QQ()
    beta = from_triples(P, F, [(1, 1, 2), (2, 2, 1), (1, 2, "1/3")])
    om = enumerate_order_maps(P, "anti_automorphism")[0]
    sigma = from_triples(P, F, [(1, 1, 1), (2, 2, 1), (1, 2, -2)])
    phi = compose(conjugation_map(beta),
                  compose(order_induced_map(om, F), multiplicative_map(sigma)))
    fact = jordan_decompose(phi)
    assert fact.recompose() == phi
    assert fact.order_map.kind == "anti_automorphism"


def test_z2_decompose_whole_group():
    # every bijective map on the 2-chain over GF(2) either factors as
    # shift-after-Lie or is rejected as a non-preserver, never both
    P, F = chain(2), GF(2)
    n_factored = 0
    for phi in enumerate_gl(P, F):
        if is_k_potent_preserver(phi, 2):
            fact = z2_decompose(phi)
            assert compose(fact.shift, fact.lie_part) == phi
            n_factored += 1
        else:
            with pytest.raises(NotIdempotentPreserver):
                z2_decompose(phi)
    assert n_factored == 8


def test_z2_decompose_pure_shift():
    P, F = chain(2), GF(2)
    phi = shift_from_functional(P, F, [0, 0, 1])
    fact = z2_decompose(phi)
    assert fact.shift == phi
    assert fact.lie_part == identity_map(P, F)
    assert fact.inner_beta == delta(P, F)


def test_z2_decompose_regime_checks():
    with pytest.raises(UnsupportedRegime):
        z2_decompose(identity_map(chain(2), GF(4)))
    P, F = chain(2), GF(2)
    rank_deficient = linmap_from_images(P, F, [delta(P, F)] * 3)
    with pytest.raises(HypothesesNotMet):
        z2_decompose(rank_deficient)


def test_scalar_split_recovers_root():
    P, F = chain(2), GF(5)
    psi = jordan_map(P, F, [(1, 1, 1), (2, 2, 2), (1, 2, 0)],
                     "anti_automorphism", [(1, 1, 1), (2, 2, 1), (1, 2, 3)])
    phi = scale_map(psi, 4)
    split = scalar_split(phi, 3)
    assert split.r == 4
    assert split.psi_kind == "anti_automorphism"
    assert scale_map(split.psi, split.r) == phi
    assert split.factorization.recompose() == split.psi


def test_scalar_split_gf7_k4_all_roots():
    P, F = chain(2), GF(7)
    ident = identity_map(P, F)
    for r in (1, 2, 4):
        split = scalar_split(scale_map(ident, r), 4)
        assert split.r == r
        assert split.psi == ident
    # 3 is not a cube root of unity, so 3*id does not even preserve
    with pytest.raises(HypothesesNotMet):
        scalar_split(scale_map(ident, 3), 4)


def test_scalar_split_refuses_a_non_bijective_preserver():
    # the projection e11 -> e11, e22 -> e22, e12 -> 0 preserves tripotents
    # but is not bijective: a precondition failure, as in z2_decompose
    P, F = chain(2), GF(5)
    projection = linmap_from_images(
        P, F, [basis_element(P, F, 1, 1), basis_element(P, F, 2, 2),
               from_triples(P, F, [])])
    assert is_k_potent_preserver(projection, 3)
    with pytest.raises(HypothesesNotMet,
                       match="^factorization covers bijective maps only$"):
        scalar_split(projection, 3)


def test_scalar_split_rejects_k2():
    with pytest.raises(ValueError):
        scalar_split(identity_map(chain(2), GF(5)), 2)


def test_scalar_split_over_the_rationals():
    # the preserver check follows the field, as in classify_preserver: over
    # Q it is the sampled one, and the split says so
    phi = scale_map(identity_map(chain(2), QQ()), -1)
    split = scalar_split(phi, 3)
    assert split.r == -1 and split.mode == "sampled"
    assert split.psi == identity_map(chain(2), QQ())
    certificates = classify_preserver(phi, 3).certificates
    assert certificates["r"] == "-1"
    assert certificates["potent_preserver"] == "sampled"


def test_sampled_check_passes_a_map_that_phi_delta_refuses():
    # e11 -> e11, e22 -> -e22, e12 -> e12 over Q passes the sampled
    # tripotent check, which is a necessary condition only: the tripotent
    # f = e11 - e22 + e12 goes to delta + e12, whose cube is delta + 3 e12.
    # The factorization refuses it at phi(delta) = e11 - e22
    P, F = chain(2), QQ()
    psi = linmap_from_images(P, F, [from_triples(P, F, [(1, 1, 1)]),
                                    from_triples(P, F, [(2, 2, -1)]),
                                    from_triples(P, F, [(1, 2, 1)])])
    check = is_k_potent_preserver(psi, 3)
    assert check and check.mode == "sampled"
    f = from_triples(P, F, [(1, 1, 1), (2, 2, -1), (1, 2, 1)])
    assert is_k_potent(f, 3)
    assert apply_map(psi, f) == from_triples(P, F, [(1, 1, 1), (2, 2, 1),
                                                    (1, 2, 1)])
    assert not is_k_potent(apply_map(psi, f), 3)
    with pytest.raises(PhiDeltaNotScalar, match="^image of delta is not a "
                       "nonzero multiple of delta"):
        classify_preserver(psi, 3)


def test_classify_regimes_and_reports():
    P = chain(2)
    rep = classify_preserver(shift_from_functional(P, GF(2), [0, 0, 1]), 2)
    assert rep.regime == "z2"
    assert set(rep.factors) == {"shift", "lie_part", "inner_beta"}

    phi3 = jordan_map(P, GF(3), [(1, 1, 1), (2, 2, 1), (1, 2, 1)],
                      "automorphism", [(1, 1, 1), (2, 2, 1), (1, 2, 2)])
    rep = classify_preserver(phi3, 2)
    assert rep.regime == "char-ne-2"
    assert rep.certificates["idempotent_preserver"] == "exhaustive"

    phi5 = scale_map(identity_map(P, GF(5)), 4)
    rep = classify_preserver(phi5, 3)
    assert rep.regime == "tripotent"
    assert rep.factors["r"] == "4"

    rep = classify_preserver(scale_map(identity_map(P, GF(7)), 2), 4)
    assert rep.regime == "kpotent"

    j = rep.to_jsonable()
    assert j["regime"] == "kpotent" and j["k"] == 4


def test_classify_char2_big_regime():
    P, F = chain(2), GF(4)
    b = from_triples(P, F, [(1, 1, 1), (2, 2, 2), (1, 2, 3)])
    rep = classify_preserver(conjugation_map(b), 2)
    assert rep.regime == "char-2-big"
    assert rep.certificates["lie_homomorphism"] is True
    assert rep.certificates["diagonal_idempotent_images"] is True
    assert rep.factors == {}


def test_classify_rationals_notes_sampling():
    P, F = chain(2), QQ()
    beta = from_triples(P, F, [(1, 1, 1), (2, 2, 3), (1, 2, 1)])
    rep = classify_preserver(conjugation_map(beta), 2)
    assert rep.regime == "char-ne-2"
    assert rep.certificates["idempotent_preserver"] == "sampled"
    assert any("sampled" in n for n in rep.notes)


def test_classify_unsupported_regimes():
    P = chain(2)
    with pytest.raises(UnsupportedRegime):
        classify_preserver(identity_map(P, GF(5)), 5)  # char divides k
    with pytest.raises(UnsupportedRegime):
        classify_preserver(identity_map(P, GF(4)), 3)  # no primitive root
    with pytest.raises(HypothesesNotMet):
        classify_preserver(
            linmap_from_images(P, GF(3), [delta(P, GF(3))] * 3), 2)
    with pytest.raises(ValueError):
        classify_preserver(identity_map(P, GF(3)), 1)


def test_classify_non_preserver_raises():
    P, F = chain(2), GF(4)
    d = delta(P, F)
    phi = linmap_from_pair_images(P, F, {
        (1, 1): basis_element(P, F, 1, 1),
        (1, 2): basis_element(P, F, 1, 2),
        (2, 2): basis_element(P, F, 2, 2) + d.scale(2),
    })
    with pytest.raises(NotIdempotentPreserver):
        classify_preserver(phi, 2)


def _digest(reports):
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


# sha256 of the sorted-key JSON list of classify_preserver(phi, k).to_jsonable()
# over each set: every field scalar an F.format string, the order map as
# [x, lambda(x)] pairs in label order
PINNED_REPORTS = {
    "vee-gf5-k2": "5bffa9ad523afce2095173474f55a527a18626fc1b83f8d4d73ec38faf311005",
    "chain2-gf7-k4": "642eb80ba47ba141915a7d74c86d5911146af0c453f02d0feab6dc1cab650f04",
    "vee-gf2-z2": "868f2912e0bb58da071ef19877b1e96466fe68ee9b01e57bb4d4b97f514e7b84",
}


def test_reports_match_the_pinned_digests_and_factors_recompose():
    # the public recompose() composes LinMaps built from the factors, an
    # oracle independent of the per-column check inside the pipelines
    P, F = vee(), GF(5)
    maps = list(jordan_like_maps(P, F).values())
    assert len(maps) == 800
    assert (_digest([classify_preserver(phi, 2).to_jsonable() for phi in maps])
            == PINNED_REPORTS["vee-gf5-k2"])
    assert all(jordan_decompose(phi).recompose() == phi for phi in maps)

    P, F = chain(2), GF(7)
    maps = swept_preservers(P, F, 4)
    assert len(maps) == 252
    assert (_digest([classify_preserver(phi, 4).to_jsonable() for phi in maps])
            == PINNED_REPORTS["chain2-gf7-k4"])
    for phi in maps:
        split = scalar_split(phi, 4)
        assert split.factorization.recompose() == split.psi
        assert scale_map(split.psi, split.r) == phi

    P, F = vee(), GF(2)
    maps = swept_preservers(P, F, 2)
    assert len(maps) == 128
    assert (_digest([classify_preserver(phi, 2).to_jsonable() for phi in maps])
            == PINNED_REPORTS["vee-gf2-z2"])
    assert all(z2_decompose(phi).recompose() == phi for phi in maps)


def test_classify_runs_one_elimination_per_map(monkeypatch):
    calls = []
    rref = linmaps._rref

    def counting(rows, F):
        calls.append(1)
        return rref(rows, F)

    monkeypatch.setattr(linmaps, "_rref", counting)
    V = vee()
    cases = [(swept_preservers(V, GF(2), 2)[5], 2, "z2"),
             (list(jordan_like_maps(V, GF(5)).values())[77], 2, "char-ne-2"),
             (swept_preservers(chain(2), GF(4), 2)[3], 2, "char-2-big"),
             (scale_map(list(jordan_like_maps(V, GF(5)).values())[123], 4), 3,
              "tripotent"),
             (swept_preservers(chain(2), GF(7), 4)[100], 4, "kpotent"),
             (conjugation_map(from_triples(chain(2), QQ(),
                                           [(1, 1, 1), (2, 2, 3), (1, 2, 1)])),
              2, "char-ne-2")]
    for phi, k, regime in cases:
        calls.clear()
        assert classify_preserver(phi, k).regime == regime
        assert len(calls) == 1, regime


def test_classify_reaches_each_pipeline_through_its_public_name(monkeypatch):
    # one call of the regime's pipeline per map, and still one elimination
    calls = []
    rref = linmaps._rref

    def counting_rref(rows, F):
        calls.append("_rref")
        return rref(rows, F)

    monkeypatch.setattr(linmaps, "_rref", counting_rref)
    for name in ("jordan_decompose", "z2_decompose", "scalar_split"):
        def make(fn, name=name):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper
        monkeypatch.setattr(classify, name, make(getattr(classify, name)))
    V = vee()
    split = ["_rref", "scalar_split", "jordan_decompose"]
    cases = [(swept_preservers(V, GF(2), 2)[5], 2, ["_rref", "z2_decompose"]),
             (list(jordan_like_maps(V, GF(5)).values())[77], 2,
              ["_rref", "jordan_decompose"]),
             (swept_preservers(chain(2), GF(4), 2)[3], 2, ["_rref"]),
             (scale_map(list(jordan_like_maps(V, GF(5)).values())[123], 4), 3,
              split),
             (swept_preservers(chain(2), GF(7), 4)[100], 4, split),
             (conjugation_map(from_triples(chain(2), QQ(),
                                           [(1, 1, 1), (2, 2, 3), (1, 2, 1)])),
              2, ["_rref", "jordan_decompose"])]
    for phi, k, want in cases:
        calls.clear()
        classify_preserver(phi, k)
        assert calls == want, k


def _refusal_cases():
    c2, V = chain(2), vee()
    return [
        ("singular-c2-gf3",
         LinMap(c2, GF(3), [[1, 0, 0], [1, 0, 0], [0, 0, 1]]), 2),
        ("zero-vee-gf5", LinMap(V, GF(5), [[0] * 5] * 5), 3),
        ("singular-c2-q", LinMap(c2, QQ(), [[1, 0, 0], [0, 1, 0], [2, 2, 0]]), 2),
        ("singular-c2-gf2",
         LinMap(c2, GF(2), [[1, 1, 0], [1, 1, 0], [0, 0, 1]]), 2),
        ("nonpres-c2-gf3",
         LinMap(c2, GF(3), [[1, 0, 0], [0, 1, 0], [1, 0, 1]]), 2),
        ("nonpres-c2-gf2",
         LinMap(c2, GF(2), [[1, 0, 0], [0, 1, 0], [1, 0, 1]]), 2),
        ("nonpres-vee-gf5",
         LinMap(V, GF(5), [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                           [1, 0, 0, 1, 0], [0, 0, 0, 0, 1]]), 3),
        ("nonroot-c2-gf7", scale_map(identity_map(c2, GF(7)), 3), 4),
        ("antichain-gf2", identity_map(antichain(2), GF(2)), 2),
        ("antichain-gf3", identity_map(antichain(2), GF(3)), 3),
        ("gf3-k3", identity_map(c2, GF(3)), 3),
        ("gf4-z2", identity_map(c2, GF(4)), 2),
        ("gf5-z2", identity_map(c2, GF(5)), 2),
    ]


_NOT_BIJ = [("HypothesesNotMet", "classification covers bijective maps only"),
            ("NotJordanAutomorphism", "map is not bijective")]
_NOT_GF2 = ("UnsupportedRegime", "shift/Lie factorization is specific to GF(2)")
_K2 = ("ValueError", "scalar_split applies to k >= 3")
_CONN = ("DisconnectedPoset", "factorization needs a connected poset")
_NOT_JORDAN = ("NotJordanAutomorphism", "map is not a Jordan homomorphism")
_CHAR3 = ("UnsupportedRegime", "k = 3 is divisible by the characteristic 3")

# (exception name, message), or None when the call returns, for
# classify_preserver(phi, k), jordan_decompose(phi), z2_decompose(phi) and
# scalar_split(phi, k), in that order
PINNED_REFUSALS = {
    "singular-c2-gf3": [*_NOT_BIJ, _NOT_GF2, _K2],
    "zero-vee-gf5": [*_NOT_BIJ, _NOT_GF2,
                     ("HypothesesNotMet", "factorization covers bijective maps only")],
    "singular-c2-q": [*_NOT_BIJ, _NOT_GF2, _K2],
    "singular-c2-gf2": [*_NOT_BIJ,
                        ("HypothesesNotMet", "factorization covers bijective maps only"),
                        _K2],
    "nonpres-c2-gf3": [
        ("NotIdempotentPreserver",
         "idempotent e(1,1) + e(1,2) maps to a non-idempotent"),
        _NOT_JORDAN, _NOT_GF2, _K2],
    "nonpres-c2-gf2": [
        ("NotIdempotentPreserver",
         "idempotent e(1,1) + e(1,2) maps to a non-idempotent"),
        _NOT_JORDAN,
        ("NotIdempotentPreserver",
         "idempotent e(1,1) + e(1,2) maps to a non-idempotent"),
        _K2],
    "nonpres-vee-gf5": [
        ("HypothesesNotMet", "3-potent e(1,1) + e(1,2) maps to a non-3-potent"),
        _NOT_JORDAN, _NOT_GF2,
        ("HypothesesNotMet", "3-potent e(1,1) + e(1,2) maps to a non-3-potent")],
    "nonroot-c2-gf7": [
        ("HypothesesNotMet", "4-potent e(1,1) maps to a non-4-potent"),
        _NOT_JORDAN, _NOT_GF2,
        ("HypothesesNotMet", "4-potent e(1,1) maps to a non-4-potent")],
    "antichain-gf2": [
        ("DisconnectedPoset", "classification needs a connected poset"),
        _CONN, _CONN, _K2],
    "antichain-gf3": [_CHAR3, _CONN, _NOT_GF2, _CONN],
    "gf3-k3": [_CHAR3, None, _NOT_GF2, None],
    "gf4-z2": [None, None, _NOT_GF2, _K2],
    "gf5-z2": [None, None, _NOT_GF2, _K2],
}


def test_refusals_are_pinned_across_the_entry_points():
    # which guard fires first, and with which message, per entry point
    def outcome(call):
        try:
            call()
        except (IncalgError, ValueError) as e:
            return (type(e).__name__, str(e))
        return None

    cases = _refusal_cases()
    assert [name for name, _, _ in cases] == list(PINNED_REFUSALS)
    for name, phi, k in cases:
        got = [outcome(lambda: classify_preserver(phi, k)),
               outcome(lambda: jordan_decompose(phi)),
               outcome(lambda: z2_decompose(phi)),
               outcome(lambda: scalar_split(phi, k))]
        assert got == PINNED_REFUSALS[name], name


def test_per_column_recomposition_guards_the_jordan_factors(monkeypatch):
    # the columns conj(beta) o lam^ o M_sigma are those of the public
    # recompose(), also for factors that do not come from a factorization
    P, F = vee(), GF(5)
    om = enumerate_order_maps(P, "automorphism")[1]
    lam = om.perm
    lam_hat = [P.pair_pos[(lam[i], lam[j])] for i, j in P.pairs]
    beta = from_triples(P, F, [(1, 1, 2), (2, 2, 3), (3, 3, 1), (1, 2, 4),
                               (1, 3, 1)])
    sigma = from_triples(P, F, [(1, 1, 1), (2, 2, 1), (3, 3, 1), (1, 2, 3),
                                (1, 3, 2)])
    fact = classify.JordanFactorization(beta, om, sigma)
    assert (classify._recomposed_columns(P, F, beta.coeffs,
                                         try_inverse(beta).coeffs, lam_hat,
                                         list(sigma.coeffs))
            == fact.recompose().cols)

    # and a recomposition that comes out wrong is refused
    phi = fact.recompose()
    assert jordan_decompose(phi).recompose() == phi
    real = classify._recomposed_columns

    def off_by_one_column(*args):
        cols = list(real(*args))
        cols[-1] = cols[0]
        return tuple(cols)

    monkeypatch.setattr(classify, "_recomposed_columns", off_by_one_column)
    with pytest.raises(RecompositionMismatch):
        jordan_decompose(phi)
    with pytest.raises(RecompositionMismatch):
        classify_preserver(phi, 2)


def test_non_multiplicative_rescaling_is_refused(monkeypatch):
    # a rescaling of the 3-chain with sigma13 != sigma12 sigma23 is no Jordan
    # map; with that check waved through, the multiplicative check must
    # still refuse it (the factors themselves do recompose to the input)
    P, F = chain(3), GF(5)
    cols = [list(c) for c in identity_map(P, F).cols]
    k = P.pair_index(1, 3)
    cols[k][k] = 2
    phi = LinMap(P, F, cols)
    assert not is_jordan_homomorphism(phi)
    monkeypatch.setattr(classify, "is_jordan_homomorphism", lambda phi: True)
    with pytest.raises(RecompositionMismatch, match="not multiplicative"):
        jordan_decompose(phi)
