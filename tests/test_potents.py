"""Potent enumeration, spectral splitting, simultaneous diagonalization."""

import itertools
import random

import pytest

from incalg.algebra import (IncElement, basis_element, conjugate, convolve,
                            delta, diagonal_part, from_triples, is_k_potent,
                            power, try_inverse, zero)
from incalg.errors import (BudgetExceeded, HypothesesNotMet, NotCommuting,
                           NotIdempotent, NotKPotent, UnsupportedField)
from incalg.field import GF, QQ, roots_of_unity
from incalg.poset import chain
from incalg.potents import (conjugate_to_diagonal, enumerate_k_potents,
                            is_primitive_idempotent, sample_k_potents,
                            simultaneous_diagonalize, spectral_decompose)


def brute_force_potents(P, F, k):
    # ascending code order: code = sum coeff_j q^j, first coordinate fastest
    out = []
    for code in range(F.q ** P.dim):
        coeffs, c = [], code
        for _ in range(P.dim):
            coeffs.append(c % F.q)
            c //= F.q
        f = IncElement(P, F, coeffs)
        if power(f, k) == f:
            out.append(f)
    return out


# frozen counts, first computed with the brute-force loop above
FROZEN_COUNTS = [
    (chain(2), GF(2), 2, 6),
    (chain(2), GF(3), 2, 8),
    (chain(2), GF(4), 2, 10),
    (chain(2), GF(5), 3, 33),
    (chain(2), GF(7), 4, 88),
]


@pytest.mark.parametrize("P,F,k,count", FROZEN_COUNTS)
def test_potent_counts_frozen_and_cross_checked(P, F, k, count):
    got = enumerate_k_potents(P, F, k)
    assert len(got) == count
    brute = brute_force_potents(P, F, k)
    assert [f.coeffs for f in got] == [f.coeffs for f in brute]


def test_idempotents_of_two_chain_over_gf2_exact_set():
    P, F = chain(2), GF(2)
    e1 = basis_element(P, F, 1, 1)
    e2 = basis_element(P, F, 2, 2)
    e12 = basis_element(P, F, 1, 2)
    expect = {zero(P, F), e1, e1 + e12, e2, e2 + e12, e1 + e2}
    assert set(enumerate_k_potents(P, F, 2)) == expect


def test_enumerate_requires_finite_field_and_budget():
    with pytest.raises(UnsupportedField):
        enumerate_k_potents(chain(2), QQ(), 2)
    with pytest.raises(BudgetExceeded) as ei:
        enumerate_k_potents(chain(3), GF(7), 2, budget=1000)
    assert ei.value.required == 7 ** 6


def test_potent_budget_checked_after_cache_is_warm():
    # the potent cache is keyed by (P, F, k) alone; a budget too small for
    # the coefficient space is refused whether or not the scan was cached
    P, F = chain(2), GF(5)
    assert len(enumerate_k_potents(P, F, 3)) == 33
    with pytest.raises(BudgetExceeded) as ei:
        enumerate_k_potents(P, F, 3, budget=100)
    assert ei.value.required == 125


def test_spectral_decompose_every_tripotent_gf5():
    P, F = chain(2), GF(5)
    d = delta(P, F)
    for f in enumerate_k_potents(P, F, 3):
        spec = spectral_decompose(f, 3)
        assert len(spec.idempotents) == 2
        total = zero(P, F)
        recomposed = zero(P, F)
        eps = spec.epsilon
        for i, b in enumerate(spec.idempotents, start=1):
            assert convolve(b, b) == b
            recomposed = recomposed + b.scale((eps ** (-i)).value)
            total = total + b
        assert recomposed == f
        # the idempotent sum acts as identity on f
        assert convolve(total, f) == f
        for a, b in itertools.combinations(spec.idempotents, 2):
            assert convolve(a, b).is_zero() and convolve(b, a).is_zero()


def test_spectral_rejects_non_potents_and_missing_roots():
    P = chain(2)
    f = from_triples(P, GF(5), [(1, 1, 2)])
    with pytest.raises(NotKPotent):
        spectral_decompose(f, 3)
    g = delta(P, GF(2)) + basis_element(P, GF(2), 1, 2)
    assert is_k_potent(g, 3)
    with pytest.raises(HypothesesNotMet):
        spectral_decompose(g, 3)
    with pytest.raises(HypothesesNotMet):
        conjugate_to_diagonal(g, 3)


def test_simultaneous_diagonalization_all_commuting_idempotent_pairs():
    for F in (GF(2), GF(3)):
        P = chain(2)
        idems = enumerate_k_potents(P, F, 2)
        n_pairs = 0
        for a, b in itertools.product(idems, repeat=2):
            if convolve(a, b) != convolve(b, a):
                continue
            n_pairs += 1
            beta = simultaneous_diagonalize([a, b])
            bi = try_inverse(beta)
            for x in (a, b):
                conj = convolve(convolve(bi, x), beta)
                assert conj.is_diagonal()
        assert n_pairs > len(idems)  # commuting pairs exist beyond (f, f)


def test_simultaneous_diagonalization_rejections():
    P, F = chain(2), GF(3)
    e1 = basis_element(P, F, 1, 1)
    e12 = basis_element(P, F, 1, 2)
    with pytest.raises(NotIdempotent):
        simultaneous_diagonalize([e12])
    # e_1 and e_2 + e_12 are idempotent but do not commute
    with pytest.raises(NotCommuting):
        simultaneous_diagonalize([e1, basis_element(P, F, 2, 2) + e12])


def test_conjugate_to_diagonal_round_trip():
    P, F = chain(2), GF(5)
    for k in (2, 3):
        for f in enumerate_k_potents(P, F, k):
            sigma = conjugate_to_diagonal(f, k)
            assert conjugate(diagonal_part(f), sigma) == f


def test_diagonal_values_of_potents_are_roots_or_zero():
    P, F = chain(2), GF(7)
    allowed = set(roots_of_unity(F, 3)) | {0}
    for f in enumerate_k_potents(P, F, 4):
        assert set(f.diag_values()) <= allowed


def test_sampler_produces_potents():
    rng = random.Random(11)
    for F, k in ((GF(5), 3), (GF(7), 4), (QQ(), 3)):
        for f in sample_k_potents(chain(2), F, k, 40, rng):
            assert power(f, k) == f


def test_primitive_idempotents():
    P, F = chain(2), GF(3)
    e1 = basis_element(P, F, 1, 1)
    assert is_primitive_idempotent(e1)
    assert is_primitive_idempotent(e1 + basis_element(P, F, 1, 2))
    assert not is_primitive_idempotent(delta(P, F))
    assert not is_primitive_idempotent(zero(P, F))
    with pytest.raises(NotIdempotent):
        is_primitive_idempotent(basis_element(P, F, 1, 2))


def test_spectral_over_rationals():
    P, F = chain(2), QQ()
    f = from_triples(P, F, [(1, 1, 1), (2, 2, -1), (1, 2, 5)])
    assert is_k_potent(f, 3)
    spec = spectral_decompose(f, 3)
    assert spec.epsilon.value == -1
    sigma = conjugate_to_diagonal(f, 3)
    assert conjugate(diagonal_part(f), sigma) == f
