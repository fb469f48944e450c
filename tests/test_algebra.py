"""Element arithmetic: convolution laws, inverses, centralizers."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from incalg.algebra import (IncElement, as_scalar_multiple_of_delta,
                            basis_element, centralizer_basis, conjugate,
                            convolve, delta, diagonal_part, e_A, from_triples,
                            is_central, is_invertible, is_k_potent,
                            jordan_product, lie_bracket, power, try_inverse,
                            zero)
from incalg.errors import NotInvertible, StructureMismatch
from incalg.field import GF, QQ
from incalg.poset import antichain, chain

from toolkit import all_elements, fork, span_codes, vee

P3 = chain(3)
F3 = GF(3)


def test_basis_product_rule():
    # e_xy e_uv = [y == u] e_xv on every comparable quadruple
    P, F = P3, F3
    for (x, y) in P.comparable_pairs():
        for (u, v) in P.comparable_pairs():
            prod = convolve(basis_element(P, F, x, y),
                            basis_element(P, F, u, v))
            if y == u and P.leq(x, v):
                assert prod == basis_element(P, F, x, v)
            else:
                assert prod.is_zero()


def test_delta_is_identity_and_central():
    d = delta(P3, F3)
    for f in itertools.islice(all_elements(P3, F3), 50):
        assert convolve(d, f) == f
        assert convolve(f, d) == f
    assert is_central(d)
    assert not is_central(basis_element(P3, F3, 1, 1))
    assert as_scalar_multiple_of_delta(d.scale(2)) == 2
    assert as_scalar_multiple_of_delta(d + basis_element(P3, F3, 1, 2)) is None
    assert as_scalar_multiple_of_delta(zero(P3, F3)) == 0


def test_convolution_agrees_with_defining_sum():
    # independent evaluation of (fg)(x,y) = sum over the interval
    P, F = P3, F3
    f = from_triples(P, F, [(1, 1, 1), (2, 2, 2), (1, 2, 1), (2, 3, 2),
                            (1, 3, 1)])
    g = from_triples(P, F, [(3, 3, 2), (1, 2, 2), (1, 3, 1), (2, 3, 1)])
    h = convolve(f, g)
    for (x, y) in P.comparable_pairs():
        expect = 0
        for z in P.interval(x, y):
            expect = F.add(expect, F.mul(f.coeff(x, z), g.coeff(z, y)))
        assert h.coeff(x, y) == expect


@settings(max_examples=60)
@given(data=st.data())
def test_ring_laws_sampled(data):
    P, F = P3, F3
    draw = lambda: IncElement(
        P, F, data.draw(st.tuples(*[st.integers(0, 2)] * P.dim)))
    f, g, h = draw(), draw(), draw()
    assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
    assert convolve(f, g + h) == convolve(f, g) + convolve(f, h)
    assert convolve(f + g, h) == convolve(f, h) + convolve(g, h)
    assert f + g == g + f
    assert (f - g) + g == f
    assert jordan_product(f, g) == convolve(f, g) + convolve(g, f)
    assert lie_bracket(f, g) == convolve(f, g) - convolve(g, f)


def test_power_and_potency():
    P, F = chain(2), GF(5)
    f = from_triples(P, F, [(1, 1, 1), (2, 2, 4), (1, 2, 3)])
    assert power(f, 3) == convolve(convolve(f, f), f)
    assert is_k_potent(f, 3)
    assert not is_k_potent(f, 2)
    assert power(f, 1) == f
    with pytest.raises(ValueError):
        power(f, 0)


def test_try_inverse_round_trip():
    P, F = P3, F3
    n_invertible = 0
    d = delta(P, F)
    for f in all_elements(P, F):
        if all(v != 0 for v in f.diag_values()):
            g = try_inverse(f)
            assert convolve(f, g) == d and convolve(g, f) == d
            n_invertible += 1
            assert is_invertible(f)
        else:
            with pytest.raises(NotInvertible):
                try_inverse(f)
    # (q-1)^n * q^strict invertibles
    assert n_invertible == 2 ** 3 * 3 ** 3


def test_inverse_over_rationals():
    P, F = chain(2), QQ()
    f = from_triples(P, F, [(1, 1, 2), (2, 2, -3), (1, 2, "1/2")])
    g = try_inverse(f)
    assert g.coeff(1, 1) == Fraction(1, 2)
    assert g.coeff(2, 2) == Fraction(-1, 3)
    assert convolve(f, g) == delta(P, F)


def test_conjugate_round_trip():
    P, F = P3, F3
    b = from_triples(P, F, [(1, 1, 1), (2, 2, 2), (3, 3, 1), (1, 2, 1),
                            (2, 3, 2)])
    f = from_triples(P, F, [(1, 1, 1), (1, 3, 2)])
    g = conjugate(f, b)
    assert conjugate(g, try_inverse(b)) == f


def test_diagonal_part_and_e_A():
    P, F = P3, F3
    f = from_triples(P, F, [(1, 1, 2), (1, 3, 1)])
    assert diagonal_part(f) == from_triples(P, F, [(1, 1, 2)])
    assert e_A(P, F, [1, 3]) == (basis_element(P, F, 1, 1)
                                 + basis_element(P, F, 3, 3))
    assert e_A(P, F, []) .is_zero()
    assert e_A(P, F, list(P.labels)) == delta(P, F)


def test_centralizer_matches_brute_force_commutant():
    # the closed-form centralizer basis of e_A must span exactly the
    # elements commuting with it, checked over the whole (finite) algebra
    P, F = chain(2), GF(3)
    for A in ([], [1], [2], [1, 2]):
        g = e_A(P, F, A)
        brute = {f.coeffs for f in all_elements(P, F)
                 if convolve(f, g) == convolve(g, f)}
        assert span_codes(P, F, centralizer_basis(P, F, A)) == brute


def test_centralizer_of_e_A_size():
    # C(e_A) = D + span of e_xy with x, y on the same side of A
    P, F = P3, GF(2)
    for r in range(4):
        for A in itertools.combinations(P.labels, r):
            inside = set(A)
            expect = P.n + sum(1 for (x, y) in P.strict_pairs
                               if (x in inside) == (y in inside))
            assert len(centralizer_basis(P, F, A)) == expect


def test_to_triples_round_trip_and_repr():
    P, F = P3, F3
    f = from_triples(P, F, [(2, 3, 2), (1, 1, 1)])
    assert f.to_triples() == [(1, 1, 1), (2, 3, 2)]
    assert from_triples(P, F, f.to_triples()) == f
    assert "e(" in repr(f)


def test_structure_mismatch():
    f = delta(chain(2), F3)
    g = delta(chain(3), F3)
    with pytest.raises(StructureMismatch):
        f + g
    with pytest.raises(StructureMismatch):
        convolve(f, delta(chain(2), GF(5)))


def test_scale_validates_value_kind():
    P = chain(2)
    assert delta(P, GF(5)).scale(2).coeff(1, 1) == 2
    with pytest.raises(Exception):
        delta(P, QQ()).scale(0.5)  # floats never enter exact arithmetic


def test_antichain_algebra_is_diagonal():
    P, F = antichain(3), GF(2)
    f = from_triples(P, F, [(1, 1, 1), (3, 3, 1)])
    assert convolve(f, f) == f
    assert f.is_diagonal()
    # centrality testing is only offered on connected posets
    from incalg.errors import DisconnectedPoset
    with pytest.raises(DisconnectedPoset):
        is_central(f)


def _convolve_by_definition(f, g):
    """(fg)(x,y) = sum of f(x,z) g(z,y) over the interval [x, y], read from
    the poset's intervals and pair positions only."""
    P, F = f.poset, f.field
    out = []
    for x, y in P.comparable_pairs():
        acc = F.zero
        for z in P.interval(x, y):
            acc = F.add(acc, F.mul(f.coeffs[P.pair_index(x, z)],
                                   g.coeffs[P.pair_index(z, y)]))
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("make,q", [(lambda: chain(2), 3), (lambda: chain(2), 4),
                                    (vee, 2)],
                         ids=["chain2-gf3", "chain2-gf4", "vee-gf2"])
def test_convolve_equals_the_interval_sum_on_every_pair(make, q):
    P, F = make(), GF(q)
    elems = list(all_elements(P, F))
    for f, g in itertools.product(elems, repeat=2):
        assert convolve(f, g).coeffs == _convolve_by_definition(f, g)


@pytest.mark.parametrize("F", [GF(5), QQ()], ids=["gf5", "Q"])
def test_convolve_equals_the_interval_sum_on_seeded_fork_pairs(F):
    P = fork()
    rng = random.Random(20261018)

    def draw():
        if F.is_finite():
            return IncElement(P, F, [rng.randrange(F.q) for _ in range(P.dim)])
        return IncElement(P, F, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                 for _ in range(P.dim)])

    for _ in range(500):
        f, g = draw(), draw()
        assert convolve(f, g).coeffs == _convolve_by_definition(f, g)
