"""Linear maps: constructors, predicates, serialization."""

import itertools
import random
from fractions import Fraction

import pytest

import incalg.linmaps as linmaps
from incalg.algebra import (IncElement, basis_element, convolve, delta,
                            from_triples, is_k_potent, jordan_product,
                            lie_bracket, try_inverse)
from incalg.errors import DimensionMismatch, StructureMismatch
from incalg.field import GF, QQ
from incalg.harness.families import jordan_like_maps
from incalg.linmaps import (LinMap, apply_map, compose, conjugation_map,
                            format_linmap, has_idempotent_diagonal_images,
                            identity_map, is_algebra_anti_automorphism,
                            is_algebra_automorphism, is_bijective,
                            is_jordan_homomorphism, is_k_potent_preserver,
                            is_lie_homomorphism, is_multiplicative_coeffs,
                            linmap_from_images, linmap_from_pair_images,
                            multiplicative_map, order_induced_map,
                            parse_linmap, preserves_jordan_products,
                            scale_map, shift_from_functional)
from incalg.linmaps import (_aba, _abc_cba, _bracket, _jordan,
                            _reversed_product, _sampled_potents, _square)
from incalg.poset import chain, enumerate_order_maps

from toolkit import all_elements, fork, vee


def test_identity_and_apply():
    P, F = chain(2), GF(3)
    ident = identity_map(P, F)
    f = from_triples(P, F, [(1, 1, 1), (1, 2, 2)])
    assert apply_map(ident, f) == f
    assert ident.image(0) == basis_element(P, F, 1, 1)
    assert is_bijective(ident)


def test_compose_and_matrix_orientation():
    P, F = chain(2), GF(5)
    sigma = from_triples(P, F, [(1, 1, 1), (2, 2, 1), (1, 2, 2)])
    m = multiplicative_map(sigma)
    mm = compose(m, m)
    e12 = basis_element(P, F, 1, 2)
    assert apply_map(mm, e12) == e12.scale(4)  # phi(psi(f)) ordering
    assert mm(e12) == apply_map(mm, e12)  # calling a map applies it


def test_conjugation_map_is_automorphism():
    P, F = chain(3), GF(5)
    b = from_triples(P, F, [(1, 1, 2), (2, 2, 1), (3, 3, 3), (1, 2, 4),
                            (2, 3, 1)])
    phi = conjugation_map(b)
    assert is_algebra_automorphism(phi)
    assert is_lie_homomorphism(phi)
    assert is_jordan_homomorphism(phi)
    assert not is_algebra_anti_automorphism(phi)
    f = from_triples(P, F, [(1, 3, 2)])
    bi = try_inverse(b)
    from incalg.algebra import convolve
    assert apply_map(phi, f) == convolve(convolve(b, f), bi)


def test_order_induced_anti_automorphism():
    P, F = chain(3), GF(7)
    rev = enumerate_order_maps(P, "anti_automorphism")[0]
    phi = order_induced_map(rev, F)
    assert is_algebra_anti_automorphism(phi)
    assert not is_algebra_automorphism(phi)
    # e_{1,2} goes to e_{rev(2), rev(1)} = e_{2,3}
    assert phi.image(P.pair_index(1, 2)) == basis_element(P, F, 2, 3)


def test_multiplicative_map_and_coeff_predicate():
    P, F = chain(3), GF(5)
    good = from_triples(P, F, [(1, 1, 1), (2, 2, 1), (3, 3, 1), (1, 2, 2),
                               (2, 3, 3), (1, 3, 1)])
    assert is_multiplicative_coeffs(good)
    assert is_algebra_automorphism(multiplicative_map(good))
    bad = from_triples(P, F, [(1, 1, 1), (2, 2, 1), (3, 3, 1), (1, 2, 2),
                              (2, 3, 3), (1, 3, 4)])
    assert not is_multiplicative_coeffs(bad)
    with pytest.raises(StructureMismatch):
        multiplicative_map(bad)


def _interval_multiplicative(sigma):
    # the law along every interval: sigma(i,t) sigma(t,j) = sigma(i,j) for
    # each i <= t <= j
    P, F = sigma.poset, sigma.field
    c = sigma.coeffs
    return all(F.mul(c[P.pair_pos[(i, t)]], c[P.pair_pos[(t, j)]]) == c[a]
               for a, (i, j) in enumerate(P.pairs)
               for t in range(i, j + 1) if P._leq[i][t] and P._leq[t][j])


@pytest.mark.parametrize("P,q", [
    (chain(3), 5), (chain(4), 3), (fork(), 3)],
    ids=["chain3-gf5", "chain4-gf3", "fork-gf3"])
def test_multiplicative_predicate_equals_the_interval_law(P, q):
    # every nonzero strict part over a unit diagonal
    F = GF(q)
    verdicts = []
    for strict in itertools.product(range(1, q), repeat=P.n_strict):
        sigma = IncElement(P, F, (1,) * P.n + strict)
        verdicts.append(is_multiplicative_coeffs(sigma))
        assert verdicts[-1] == _interval_multiplicative(sigma)
    assert 0 < sum(verdicts) < len(verdicts)


def test_shift_maps():
    P, F = chain(2), GF(2)
    svals = [0, 0, 1]
    phi = shift_from_functional(P, F, svals)
    assert is_bijective(phi)
    d = delta(P, F)
    # phi - id takes values in the multiples of delta
    multiples = {d.scale(c) for c in range(F.q)}
    for x, y in P.comparable_pairs():
        e = basis_element(P, F, x, y)
        assert apply_map(phi, e) - e in multiples
    e12 = basis_element(P, F, 1, 2)
    assert apply_map(phi, e12) == e12 + d
    # a functional hitting delta with -1 kills bijectivity
    degenerate = shift_from_functional(P, F, [1, 0, 0])
    assert not is_bijective(degenerate)
    with pytest.raises(DimensionMismatch):
        shift_from_functional(P, F, [0, 1])


def test_preserver_witness_is_first_in_code_order():
    P, F = chain(2), GF(4)
    d = delta(P, F)
    phi = linmap_from_pair_images(P, F, {
        (1, 1): basis_element(P, F, 1, 1),
        (1, 2): basis_element(P, F, 1, 2),
        (2, 2): basis_element(P, F, 2, 2) + d.scale(2),
    })
    assert is_lie_homomorphism(phi)
    check = is_k_potent_preserver(phi, 2)
    assert not check
    assert check.mode == "exhaustive"
    assert check.witness.to_triples() == [(2, 2, 1)]


def test_preserver_exhaustive_vs_sampled():
    P, F = chain(2), GF(5)
    b = from_triples(P, F, [(1, 1, 2), (2, 2, 1), (1, 2, 3)])
    phi = conjugation_map(b)
    for k in (2, 3):
        check = is_k_potent_preserver(phi, k)
        assert check and check.mode == "exhaustive"
    # the field picks the mode: over the rationals the check is sampled
    ident = identity_map(chain(2), QQ())
    check = is_k_potent_preserver(ident, 3)
    assert check and check.mode == "sampled"


def test_scale_map_and_potency_interaction():
    P, F = chain(2), GF(7)
    ident = identity_map(P, F)
    # 2^3 = 1 in GF(7), so 2*id preserves 4-potents; 3 does not (3^3 = 6)
    assert is_k_potent_preserver(scale_map(ident, 2), 4)
    assert not is_k_potent_preserver(scale_map(ident, 3), 4)


@pytest.mark.parametrize("q,r", [(4, -1), (5, 7), ("Q", 0.5)],
                         ids=["gf4-minus-one", "gf5-out-of-range", "q-float"])
def test_scale_map_checks_its_scalar_as_scale_does(q, r):
    # scale_map and IncElement.scale share one scalar check: a value that is
    # not a raw field value is refused, never reduced, wrapped or rounded
    # (-1 in GF(4) is 1, not the code 3)
    F = QQ() if q == "Q" else GF(q)
    ident = identity_map(chain(2), F)
    with pytest.raises(StructureMismatch):
        delta(chain(2), F).scale(r)
    with pytest.raises(StructureMismatch):
        scale_map(ident, r)


def _is_onto(phi):
    """Whether phi hits every element: by enumeration, no elimination."""
    P, F = phi.poset, phi.field
    images = {apply_map(phi, f).coeffs for f in all_elements(P, F)}
    return len(images) == F.q ** P.dim


def _leibniz_det(rows):
    """Determinant over the rationals as the signed sum over permutations."""
    det = Fraction(0)
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(len(perm)), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        det += term
    return det


def test_elimination_on_whole_spaces_and_samples():
    P, F = chain(2), GF(2)
    maps = [_map_from_index(P, F, m) for m in range(F.q ** (P.dim ** 2))]
    flags = [is_bijective(phi) for phi in maps]
    assert sum(flags) == 168  # |GL(3, 2)|
    assert flags == [_is_onto(phi) for phi in maps]

    for F, seed in ((GF(4), 1), (GF(9), 2)):
        maps = _random_maps(P, F, 60, seed)
        # and maps whose last column repeats a combination of two others
        for phi in _random_maps(P, F, 10, seed + 10):
            cols = list(phi.cols)
            cols[2] = tuple(F.add(F.mul(3 % F.q, a), b)
                            for a, b in zip(cols[0], cols[1]))
            maps.append(LinMap(P, F, cols))
        flags = [is_bijective(phi) for phi in maps]
        assert flags == [_is_onto(phi) for phi in maps]
        assert 0 < sum(flags) < len(maps)

    P, F = vee(), QQ()
    rng = random.Random(3)
    flags = []
    for _ in range(40):
        cols = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(P.dim)] for _ in range(P.dim)]
        phi = LinMap(P, F, cols)
        flags.append(is_bijective(phi))
        assert flags[-1] == (_leibniz_det(phi.matrix) != 0)
        cols[4] = [a - 2 * b for a, b in zip(cols[0], cols[3])]
        singular = LinMap(P, F, cols)
        assert _leibniz_det(singular.matrix) == 0
        assert not is_bijective(singular)
    assert 0 < sum(flags)


def test_tuple_laws_equal_the_element_laws():
    # the law checks apply one law to both sides, so a law that is wrong the
    # same way on both sides would go unseen there; check each against
    # algebra's element-level products on every pair (triple: a sample)
    for P, F in ((chain(2), GF(3)), (vee(), GF(2))):
        elems = list(all_elements(P, F))
        for f, g in itertools.product(elems, repeat=2):
            a, b = f.coeffs, g.coeffs
            assert _bracket(P, F, a, b) == lie_bracket(f, g).coeffs
            assert _jordan(P, F, a, b) == jordan_product(f, g).coeffs
            assert _reversed_product(P, F, a, b) == convolve(g, f).coeffs
            assert _aba(P, F, a, b) == convolve(convolve(f, g), f).coeffs
        for f in elems:
            assert _square(P, F, f.coeffs) == convolve(f, f).coeffs
        rng = random.Random(4)
        for f, g, h in (rng.sample(elems, 3) for _ in range(300)):
            assert (_abc_cba(P, F, f.coeffs, g.coeffs, h.coeffs)
                    == (convolve(convolve(f, g), h)
                        + convolve(convolve(h, g), f)).coeffs)


def test_format_parse_round_trip():
    P, F = chain(2), GF(4)
    phi = linmap_from_pair_images(P, F, {
        (1, 1): basis_element(P, F, 2, 2),
        (2, 2): basis_element(P, F, 1, 1) + basis_element(P, F, 1, 2).scale(3),
        (1, 2): basis_element(P, F, 1, 2).scale(2),
    })
    text = format_linmap(phi)
    assert text.splitlines()[0] == "4 3"
    assert parse_linmap(P, F, text) == phi
    with pytest.raises(StructureMismatch):
        parse_linmap(P, GF(2), text)
    with pytest.raises(DimensionMismatch):
        parse_linmap(chain(3), GF(4), text)


def test_linmap_eq_hash_and_validation():
    P, F = chain(2), GF(3)
    a = identity_map(P, F)
    b = identity_map(P, F)
    assert a == b and hash(a) == hash(b)
    assert a != scale_map(a, 2)
    with pytest.raises(DimensionMismatch):
        LinMap(P, F, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(StructureMismatch):
        linmap_from_images(P, F, [delta(P, GF(5))] * 3)


PREDICATES = (preserves_jordan_products, is_lie_homomorphism,
              is_jordan_homomorphism, is_algebra_automorphism,
              is_algebra_anti_automorphism, has_idempotent_diagonal_images)


def _fgf(f, g):
    return convolve(convolve(f, g), f)


def _law_tables(P, F, elems=None):
    """Every algebra element (or the given ones), and each law evaluated on
    every pair of them."""
    if elems is None:
        elems = list(all_elements(P, F))
    pairs = list(itertools.product(range(len(elems)), repeat=2))
    tables = {law: [law(elems[i], elems[j]) for i, j in pairs]
              for law in (jordan_product, lie_bracket, convolve, _fgf)}
    return elems, pairs, tables


def _by_definition(phi, elems, pairs, tables):
    """The predicates' laws on every pair of elements, with no reduction to
    basis tuples, in the order of PREDICATES."""
    ims = [apply_map(phi, f) for f in elems]

    def keeps(law, image_law=None):
        image_law = image_law or law
        return all(apply_map(phi, v) == image_law(ims[i], ims[j])
                   for v, (i, j) in zip(tables[law], pairs))

    bij = is_bijective(phi)
    jordan = keeps(jordan_product)
    return (jordan,
            keeps(lie_bracket),
            jordan and all(apply_map(phi, convolve(f, f)) == convolve(g, g)
                           for f, g in zip(elems, ims)) and keeps(_fgf),
            bij and keeps(convolve),
            bij and keeps(convolve, lambda a, b: convolve(b, a)),
            all(is_k_potent(phi.image(x), 2) for x in range(phi.poset.n)))


def _map_from_index(P, F, m):
    digits = []
    for _ in range(P.dim * P.dim):
        m, r = divmod(m, F.q)
        digits.append(r)
    return LinMap(P, F, [digits[j * P.dim:(j + 1) * P.dim]
                         for j in range(P.dim)])


def test_predicates_equal_their_laws_on_every_element_pair():
    # over GF(2), all 512 linear maps of the 2-chain; over GF(3) (char not 2)
    # a seeded sample of the 19,683 maps plus inner and order-reversed maps,
    # so that every predicate is true somewhere
    P = chain(2)
    F = GF(2)
    maps = [_map_from_index(P, F, m) for m in range(F.q ** (P.dim ** 2))]
    tables = _law_tables(P, F)
    got = [tuple(p(phi) for p in PREDICATES) for phi in maps]
    assert got == [_by_definition(phi, *tables) for phi in maps]
    assert [sum(col) for col in zip(*got)] == [48, 48, 19, 2, 2, 288]

    F = GF(3)
    rng = random.Random(20261018)
    maps = [_map_from_index(P, F, m)
            for m in rng.sample(range(F.q ** (P.dim ** 2)), 1000)]
    rev = order_induced_map(enumerate_order_maps(P, "anti_automorphism")[0], F)
    for _ in range(6):
        beta = from_triples(P, F, [(1, 1, rng.randrange(1, 3)),
                                   (2, 2, rng.randrange(1, 3)),
                                   (1, 2, rng.randrange(3))])
        maps += [conjugation_map(beta), compose(conjugation_map(beta), rev)]
    tables = _law_tables(P, F)
    got = [tuple(p(phi) for p in PREDICATES) for phi in maps]
    assert got == [_by_definition(phi, *tables) for phi in maps]
    assert all(any(col) for col in zip(*got))

    # V over GF(4), an extension field: 4^10 element pairs are out of reach,
    # so the laws run on every pair drawn from the basis, the sums of two
    # basis elements and seeded random elements. The first two already
    # decide each law: the bilinear ones on basis pairs, the square and aba
    # through their polarizations (a + c)^2 and (a + c)b(a + c)
    P, F = vee(), GF(4)
    rng = random.Random(20261019)
    es = [basis_element(P, F, x, y) for x, y in P.comparable_pairs()]
    elems = (es + [a + b for a, b in itertools.combinations(es, 2)]
             + [IncElement(P, F, [rng.randrange(F.q) for _ in range(P.dim)])
                for _ in range(10)])
    maps = _random_maps(P, F, 40, 20261020)
    swap = order_induced_map(enumerate_order_maps(P, "automorphism")[1], F)
    for _ in range(6):
        beta = IncElement(P, F, [rng.randrange(1, F.q) for _ in range(P.n)]
                          + [rng.randrange(F.q) for _ in range(P.n_strict)])
        shift = shift_from_functional(
            P, F, [rng.randrange(F.q) for _ in range(P.n)] + [0] * P.n_strict)
        maps += [conjugation_map(beta), compose(conjugation_map(beta), swap),
                 compose(shift, conjugation_map(beta))]
    tables = _law_tables(P, F, elems)
    got = [tuple(p(phi) for p in PREDICATES) for phi in maps]
    assert got == [_by_definition(phi, *tables) for phi in maps]
    # V has no order anti-automorphism, hence no algebra anti-automorphism
    assert [any(col) for col in zip(*got)] == [True] * 4 + [False, True]
    assert not all(all(col) for col in zip(*got))


def _all_jordan_laws(phi):
    """The full law check: Jordan products on basis pairs, then squares,
    aba and abc + cba on basis tuples, in every characteristic."""
    P, F = phi.poset, phi.field
    d = range(P.dim)
    es = [basis_element(P, F, x, y) for x, y in P.comparable_pairs()]
    ims = [phi.image(j) for j in d]

    def keeps(law, tuples):
        return all(apply_map(phi, law(*(es[i] for i in t)))
                   == law(*(ims[i] for i in t)) for t in tuples)

    return (preserves_jordan_products(phi)
            and keeps(lambda a: convolve(a, a), ((a,) for a in d))
            and keeps(lambda a, b: convolve(convolve(a, b), a),
                      itertools.product(d, repeat=2))
            and keeps(lambda a, b, c: (convolve(convolve(a, b), c)
                                       + convolve(convolve(c, b), a)),
                      ((a, b, c) for a in d for b in d
                       for c in range(a + 1, P.dim))))


def _random_maps(P, F, count, seed):
    rng = random.Random(seed)
    return [LinMap(P, F, [[rng.randrange(F.q) for _ in range(P.dim)]
                          for _ in range(P.dim)]) for _ in range(count)]


def test_jordan_homomorphism_off_char_2_equals_the_full_law_check():
    # off characteristic 2 the Jordan products decide the squares and aba
    P, F = chain(2), GF(3)
    maps = [_map_from_index(P, F, m) for m in range(F.q ** (P.dim ** 2))]
    got = [is_jordan_homomorphism(phi) for phi in maps]
    assert got == [_all_jordan_laws(phi) for phi in maps]
    assert sum(got) == 33

    V = vee()
    for q, seed in ((3, 20261018), (5, 20261019)):
        maps = _random_maps(V, GF(q), 3000, seed)
        assert ([is_jordan_homomorphism(phi) for phi in maps]
                == [_all_jordan_laws(phi) for phi in maps])

    family = list(jordan_like_maps(V, GF(5)).values())
    assert len(family) == 800
    assert all(is_jordan_homomorphism(phi) and _all_jordan_laws(phi)
               for phi in family)


def test_jordan_homomorphism_in_char_2_still_checks_every_law():
    # 29 maps of the 2-chain over GF(2) keep Jordan products and yet fail a
    # square or aba law, so the Jordan products alone would be wrong there
    P, F = chain(2), GF(2)
    maps = [_map_from_index(P, F, m) for m in range(F.q ** (P.dim ** 2))]
    got = [is_jordan_homomorphism(phi) for phi in maps]
    assert got == [_all_jordan_laws(phi) for phi in maps]
    assert sum(preserves_jordan_products(phi) and not hom
               for phi, hom in zip(maps, got)) == 29


@pytest.mark.parametrize("q", [2, 3])
def test_algebra_iso_checks_the_pairs_a_after_b(q):
    # on V = {1<2, 1<3}, e12 -> e12 + e13 (identity on the rest) is
    # bijective, fixes delta and keeps e_a e_b for every basis pair a <= b;
    # only a pair a > b, (e12, e22), shows it is no algebra map
    P, F = vee(), GF(q)
    images = {(x, y): basis_element(P, F, x, y)
              for x, y in P.comparable_pairs()}
    images[(1, 2)] = images[(1, 2)] + images[(1, 3)]
    phi = linmap_from_pair_images(P, F, images)
    assert is_bijective(phi)
    assert apply_map(phi, delta(P, F)) == delta(P, F)
    es = [basis_element(P, F, x, y) for x, y in P.comparable_pairs()]
    assert all(apply_map(phi, convolve(es[a], es[b]))
               == convolve(phi.image(a), phi.image(b))
               for a, b in itertools.combinations_with_replacement(
                   range(P.dim), 2))
    a, b = P.pair_index(1, 2), P.pair_index(2, 2)
    assert a > b
    assert (apply_map(phi, convolve(es[a], es[b]))
            != convolve(phi.image(a), phi.image(b)))
    assert not is_algebra_automorphism(phi)
    assert not is_algebra_anti_automorphism(phi)


@pytest.mark.parametrize("F", [GF(5), QQ()], ids=["gf5", "q"])
def test_bijectivity_is_eliminated_once_and_kept_by_nonzero_multiples(
        F, monkeypatch):
    calls = []
    rref = linmaps._rref

    def counting(rows, field):
        calls.append(1)
        return rref(rows, field)

    monkeypatch.setattr(linmaps, "_rref", counting)
    P = chain(3)
    phi = conjugation_map(from_triples(P, F, [(1, 1, 2), (2, 2, 1), (3, 3, 1),
                                              (1, 3, 1)]))
    assert is_bijective(phi) and is_bijective(phi)
    assert len(calls) == 1
    assert is_bijective(scale_map(phi, 3))
    assert len(calls) == 1
    # the zero multiple has rank 0: it inherits nothing and is eliminated
    assert not is_bijective(scale_map(phi, 0))
    assert len(calls) == 2


@pytest.mark.parametrize("P", [chain(3), vee(), fork(), chain(4)],
    ids=["chain3", "vee", "fork", "chain4"])
@pytest.mark.parametrize("F", [QQ(), GF(5), GF(7)], ids=["q", "gf5", "gf7"])
@pytest.mark.parametrize("k", [2, 3])
def test_sampled_potents_on_larger_posets_are_potent(P, F, k):
    # beyond two points the sampler adds e_w + e_x + e_xy for w outside
    # {x, y} and the two-step idempotents e_y + e_xy + e_yv + e_xv
    sampled = _sampled_potents(P, F, k)
    assert all(is_k_potent(f, k) for f in sampled)
    coeffs = {f.coeffs for f in sampled}
    x, y = P.strict_pairs[0]
    w = next(w for w in P.labels if w not in (x, y))
    assert (basis_element(P, F, w, w) + basis_element(P, F, x, x)
            + basis_element(P, F, x, y)).coeffs in coeffs
    # V has no chain of length two, hence no two-step idempotent
    for x, y, v in ((x, y, v) for x, y in P.strict_pairs for v in P.labels
                    if P.lt(y, v)):
        assert (basis_element(P, F, y, y) + basis_element(P, F, x, y)
                + basis_element(P, F, y, v)
                + basis_element(P, F, x, v)).coeffs in coeffs
