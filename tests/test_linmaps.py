"""Linear maps: constructors, predicates, serialization, subspaces."""

import itertools
import random

import pytest

from incalg.algebra import (IncElement, basis_element, convolve, delta,
                            from_triples, is_k_potent, jordan_product,
                            lie_bracket, try_inverse)
from incalg.errors import (DimensionMismatch, Singular, StructureMismatch)
from incalg.field import GF, QQ
from incalg.harness.families import jordan_like_maps
from incalg.linmaps import (LinMap, Subspace, apply_map, compose,
                            conjugation_map, format_linmap,
                            has_idempotent_diagonal_images, identity_map,
                            is_algebra_anti_automorphism,
                            is_algebra_automorphism, is_bijective,
                            is_jordan_homomorphism, is_k_potent_preserver,
                            is_lie_homomorphism, is_multiplicative_coeffs,
                            is_shift_map, linmap_from_images,
                            linmap_from_pair_images, multiplicative_map,
                            order_induced_map, parse_linmap,
                            preserves_jordan_products, scale_map,
                            shift_from_functional, subspace_intersection,
                            try_invert)
from incalg.poset import chain, enumerate_order_maps, poset_from_relations


def fork():
    return poset_from_relations([1, 2, 3, 4], [(1, 2), (2, 3), (1, 4)])


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
    assert phi.image_of_pair(1, 2) == basis_element(P, F, 2, 3)


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


def test_shift_maps():
    P, F = chain(2), GF(2)
    svals = [0, 0, 1]
    phi = shift_from_functional(P, F, svals)
    assert is_shift_map(phi)
    assert is_bijective(phi)
    d = delta(P, F)
    e12 = basis_element(P, F, 1, 2)
    assert apply_map(phi, e12) == e12 + d
    # a functional hitting delta with -1 kills bijectivity
    degenerate = shift_from_functional(P, F, [1, 0, 0])
    assert not is_bijective(degenerate)
    assert not is_shift_map(degenerate)
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
        assert is_k_potent_preserver(phi, k, mode="exhaustive")
        assert is_k_potent_preserver(phi, k, mode="sampled")
    # sampled mode is the only option over the rationals
    PQ, FQ = chain(2), QQ()
    ident = identity_map(PQ, FQ)
    assert is_k_potent_preserver(ident, 3, mode="sampled")


def test_scale_map_and_potency_interaction():
    P, F = chain(2), GF(7)
    ident = identity_map(P, F)
    # 2^3 = 1 in GF(7), so 2*id preserves 4-potents; 3 does not (3^3 = 6)
    assert is_k_potent_preserver(scale_map(ident, 2), 4)
    assert not is_k_potent_preserver(scale_map(ident, 3), 4)


def test_try_invert_and_singular():
    P, F = chain(2), GF(3)
    sigma = from_triples(P, F, [(1, 1, 1), (2, 2, 1), (1, 2, 2)])
    phi = multiplicative_map(sigma)
    inv = try_invert(phi)
    assert compose(phi, inv) == identity_map(P, F)
    rank_deficient = linmap_from_images(
        P, F, [delta(P, F), delta(P, F), basis_element(P, F, 1, 2)])
    with pytest.raises(Singular):
        try_invert(rank_deficient)
    assert not is_bijective(rank_deficient)


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


def test_subspace_basics():
    P, F = chain(2), GF(3)
    s = Subspace.from_elements(P, F, [delta(P, F), delta(P, F).scale(2),
                                      basis_element(P, F, 1, 2)])
    assert s.dim == 2
    assert s.contains(delta(P, F) + basis_element(P, F, 1, 2).scale(2))
    assert not s.contains(basis_element(P, F, 1, 1))


def _centralizer_subspace(P, F, A):
    from incalg.algebra import centralizer_basis
    return Subspace.from_elements(P, F, centralizer_basis(P, F, A))


@pytest.mark.parametrize("F", [GF(2), GF(3)])
@pytest.mark.parametrize("make", [lambda: chain(3), fork])
def test_intersection_of_centralizers_pins_one_corner(F, make):
    # over every subset A containing both x and y, the centralizers of e_A
    # meet exactly in the diagonal plus the single corner e_xy
    P = make()
    labels = set(P.labels)
    for (x, y) in P.strict_pairs:
        rest = sorted(labels - {x, y})
        spaces = []
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                spaces.append(_centralizer_subspace(P, F, {x, y} | set(extra)))
        meet = subspace_intersection(spaces)
        expected = Subspace.from_elements(
            P, F, [basis_element(P, F, z, z) for z in P.labels]
            + [basis_element(P, F, x, y)])
        assert meet.rows == expected.rows


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


def _law_tables(P, F):
    """Every algebra element, and each law evaluated on every pair of them."""
    elems = [IncElement(P, F, c)
             for c in itertools.product(range(F.q), repeat=P.dim)]
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

    V = poset_from_relations([1, 2, 3], [(1, 2), (1, 3)])
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
