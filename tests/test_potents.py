"""Potent enumeration, spectral splitting, simultaneous diagonalization."""

import itertools
import random

import pytest

from incalg import potents
from incalg.algebra import (IncElement, basis_element, conjugate, convolve,
                            delta, diagonal_part, from_triples, is_k_potent,
                            power, try_inverse, zero)
from incalg.errors import (BudgetExceeded, HypothesesNotMet, NotCommuting,
                           NotIdempotent, NotKPotent, UnsupportedField)
from incalg.field import GF, QQ, primitive_root_of_unity, roots_of_unity
from incalg.poset import chain
from incalg.potents import (conjugate_to_diagonal, enumerate_k_potents,
                            sample_k_potents, simultaneous_diagonalize,
                            spectral_decompose)

from toolkit import (forbid_digit_arrays, fork, k22, swept_preservers,
                     vee)


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


def test_enumerate_requires_finite_field_and_budget(monkeypatch):
    # the space of chain(4) over GF(5) is over the scan cap, and is refused
    # before its digit array is built
    forbid_digit_arrays(monkeypatch)
    with pytest.raises(UnsupportedField):
        enumerate_k_potents(chain(2), QQ(), 2)
    with pytest.raises(BudgetExceeded) as ei:
        enumerate_k_potents(chain(4), GF(5), 2)
    assert ei.value.required == 5 ** 10 > potents.SCAN_SPACE_CAP


def _k_minus_one_products(P, F, k):
    # the reference scan: the whole space multiplied by itself k - 1 times
    _, dig = potents.space_digits(P, F)
    fk = dig
    for _ in range(k - 1):
        fk = potents.batch_convolve(fk, dig, P, F)
    return potents.np.flatnonzero((fk == dig).all(axis=1))


@pytest.mark.parametrize("P", [chain(2), vee()], ids=["chain2", "vee"])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_potent_scan_matches_the_k_minus_one_products(P, q):
    F = GF(q)
    for k in range(2, 10):
        codes, _, _ = potents.potent_code_tables(P, F, k)
        assert codes.tolist() == _k_minus_one_products(P, F, k).tolist(), k


def test_potent_scan_takes_logarithmically_many_products(monkeypatch):
    # f^k for k = 2^20 + 1 by squaring: 20 squarings and 1 product; the
    # k - 1 loop would take 2^20
    calls = []
    real = potents.batch_convolve

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(potents, "batch_convolve", counted)
    codes, _, _ = potents.potent_code_tables(chain(1), GF(3), 2 ** 20 + 1)
    assert codes.tolist() == [0, 1, 2]  # x^(2^20 + 1) = x over GF(3)
    assert len(calls) <= 2 * 21


def test_warm_potent_cache_hit_skips_the_scan_checks(monkeypatch):
    # a cached (P, F, k) has passed the scan cap, which cannot change: a hit
    # neither checks nor scans again
    P, F = chain(2), GF(5)
    cold = potents.cached_potents(P, F, 3)
    assert len(cold.elements) == 33

    def no_call(*args):
        raise AssertionError("warm cache hit ran the scan path")

    monkeypatch.setattr(potents, "_check_scan", no_call)
    monkeypatch.setattr(potents, "potent_code_tables", no_call)
    assert potents.cached_potents(P, F, 3) is cold


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
            recomposed = recomposed + b.scale(F.pow_(eps, -i))
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
    with pytest.raises(NotKPotent):
        conjugate_to_diagonal(f, 3)
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


def _subset_sum_diagonalizer(alphas):
    """The diagonalizer as first built, kept as an oracle: the sum over all
    2^n subsets S of prod_{i in S} alpha_i prod_{i not in S} (delta - alpha_i)
    times the same product of the diagonal parts eps_i."""
    P, F = alphas[0].poset, alphas[0].field
    d = delta(P, F)
    eps = [diagonal_part(a) for a in alphas]
    beta = None
    for bits in range(1 << len(alphas)):
        term = d
        for i, a in enumerate(alphas):
            term = convolve(term, a if (bits >> i) & 1 else d - a)
        for i, e in enumerate(eps):
            term = convolve(term, e if (bits >> i) & 1 else d - e)
        beta = term if beta is None else beta + term
    return beta


SPECTRAL_POSETS = [(chain(2), "chain2"), (chain(3), "chain3"), (vee(), "vee"),
                   (fork(), "fork"), (k22(), "k22")]


@pytest.mark.parametrize("P", [p for p, _ in SPECTRAL_POSETS],
                         ids=[name for _, name in SPECTRAL_POSETS])
def test_diagonalizer_equals_the_subset_sum_on_spectral_idempotents(P):
    # the spectral idempotents of sampled k-potents, for every (q, k) in
    # q in {2, 3, 5, 7}, k in 2..5 whose field has a primitive (k-1)-th root
    rng = random.Random(2024)
    cases = 0
    for q in (2, 3, 5, 7):
        F = GF(q)
        for k in range(2, 6):
            if (q - 1) % (k - 1):
                continue
            for f in sample_k_potents(P, F, k, 10, rng):
                alphas = list(spectral_decompose(f, k).idempotents)
                assert simultaneous_diagonalize(alphas) == \
                    _subset_sum_diagonalizer(alphas)
                cases += 1
    assert cases == 10 * 9


@pytest.mark.parametrize("P", [chain(2), vee()], ids=["chain2", "vee"])
def test_diagonalizer_equals_the_subset_sum_on_preserver_images(P):
    # the alphas z2_decompose diagonalizes: phi(e_x) for every idempotent
    # preserver phi of I(P, GF(2)) the sweep finds
    F = GF(2)
    maps = swept_preservers(P, F, 2)
    for phi in maps:
        alphas = [phi.image(i) for i in range(P.n)]
        assert simultaneous_diagonalize(alphas) == \
            _subset_sum_diagonalizer(alphas)
    assert len(maps) == {3: 8, 5: 128}[P.dim]


def test_diagonalizer_costs_n_products_per_point(monkeypatch):
    calls = []

    def counting(f, g):
        calls.append(1)
        return convolve(f, g)

    monkeypatch.setattr(potents, "convolve", counting)
    P, F = fork(), GF(5)
    for f in sample_k_potents(P, F, 5, 4, random.Random(7)):
        alphas = list(spectral_decompose(f, 5).idempotents)
        n = len(alphas)
        calls.clear()
        simultaneous_diagonalize(alphas)
        # n idempotence checks, n(n-1) commutation products, then the loop:
        # n products for each of the |X| points
        assert len(calls) == n + n * (n - 1) + n * P.n


def test_diagonalizer_takes_many_idempotents():
    # 21 idempotents, far past the 2^20 terms the subset sum could afford
    P, F = chain(2), GF(43)
    f = from_triples(P, F, [(1, 1, 1), (2, 2, primitive_root_of_unity(F, 21)),
                            (1, 2, 5)])
    assert is_k_potent(f, 22)
    sigma = conjugate_to_diagonal(f, 22)
    assert conjugate(diagonal_part(f), sigma) == f


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


def test_spectral_over_rationals():
    P, F = chain(2), QQ()
    f = from_triples(P, F, [(1, 1, 1), (2, 2, -1), (1, 2, 5)])
    assert is_k_potent(f, 3)
    spec = spectral_decompose(f, 3)
    assert spec.epsilon == -1
    sigma = conjugate_to_diagonal(f, 3)
    assert conjugate(diagonal_part(f), sigma) == f
