"""End-to-end acceptance run: one criterion per test, exact tolerance.

Each test prints a single `ACCEPTANCE PASS criterion-N` line on success
(visible with `pytest -s`); under `pytest -v` the per-test PASSED/FAILED
column gives the same one-line verdict.  Every check here is exact field
arithmetic with zero tolerance; any discrepancy is a hard failure.
"""

import itertools
import random
import time

import pytest

from incalg.algebra import (centralizer_basis, conjugate, convolve,
                            convolve_coeffs, diagonal_part, e_A, power,
                            try_inverse, zero)
from incalg.classify import jordan_decompose, scalar_split, z2_decompose
from incalg.field import GF, QQ, roots_of_unity
from incalg.harness.demos import run_all_demos
from incalg.harness.gl import gl_order
from incalg.harness.verify import verify_theorem
from incalg.linmaps import compose
from incalg.poset import chain
from incalg.potents import (conjugate_to_diagonal, enumerate_k_potents,
                            sample_k_potents, simultaneous_diagonalize,
                            spectral_decompose)

from toolkit import all_elements, fork, span_codes, swept_preservers, vee

TWO_CHAIN = chain(2)


def _passed(n, text):
    print(f"ACCEPTANCE PASS criterion-{n}: {text}")


def test_criterion_1_gf2_preservers_are_shift_compose_lie():
    counts = []
    for P, order in ((TWO_CHAIN, 168), (vee(), 9_999_360)):
        report = verify_theorem("z2", P, GF(2))
        assert report.maps_swept == order == gl_order(P.dim, 2)
        assert report.match, report.notes
        # every preserver must factor, with exact recomposition
        for phi in swept_preservers(P, GF(2), 2):
            fact = z2_decompose(phi)
            assert compose(fact.shift, fact.lie_part) == phi
        counts.append(report.preserver_count)
    _passed(1, "GF(2) preserver sets equal {shift . Lie automorphism} on "
               f"the 2-chain ({counts[0]} maps) and the V poset "
               f"({counts[1]} maps), all factored exactly")


def test_criterion_2_gf3_preservers_are_jordan_automorphisms():
    report = verify_theorem("char-ne-2", TWO_CHAIN, GF(3))
    assert report.maps_swept == 11_232
    assert report.match, report.notes
    kinds = set()
    for phi in swept_preservers(TWO_CHAIN, GF(3), 2):
        fact = jordan_decompose(phi)
        assert fact.order_map.kind in ("automorphism", "anti_automorphism")
        assert fact.recompose() == phi
        kinds.add(fact.order_map.kind)
    assert kinds == {"automorphism", "anti_automorphism"}
    _passed(2, f"all {report.preserver_count} bijective idempotent "
               "preservers over GF(3) factor as automorphisms or "
               "anti-automorphisms with exact recomposition")


def test_criterion_3_gf4_preservers_are_lie_with_idempotent_diagonal():
    report = verify_theorem("char-2-big", TWO_CHAIN, GF(4))
    assert report.maps_swept == 181_440
    assert report.match, report.notes
    _passed(3, f"over GF(4), preserver set ({report.preserver_count} maps) "
               "equals {bijective Lie maps sending every e_x to an "
               "idempotent}, zero discrepancies in 181,440 maps")


def test_criterion_4_gf5_tripotent_preservers_scalar_split():
    F = GF(5)
    report = verify_theorem("tripotent", TWO_CHAIN, F, k=3)
    assert report.maps_swept == 1_488_000
    assert report.match, report.notes
    seen_r = set()
    for phi in swept_preservers(TWO_CHAIN, F, 3):
        split = scalar_split(phi, 3)
        assert split.r in (1, 4)  # the square roots of unity
        assert split.psi_kind in ("automorphism", "anti_automorphism")
        seen_r.add(split.r)
    assert seen_r == {1, 4}
    _passed(4, f"all {report.preserver_count} tripotent preservers over "
               "GF(5) split as r.psi with r in {1,-1} and psi an "
               "automorphism or anti-automorphism")


def test_criterion_5_gf7_fourpotent_preservers_scalar_split():
    F = GF(7)
    report = verify_theorem("kpotent", TWO_CHAIN, F, k=4)
    assert report.maps_swept == 33_784_128
    assert report.match, report.notes
    cube_roots = set(roots_of_unity(F, 3))
    for phi in swept_preservers(TWO_CHAIN, F, 4):
        split = scalar_split(phi, 4)
        assert split.r in cube_roots
        assert F.pow_(split.r, 3) == F.one
    _passed(5, f"all {report.preserver_count} 4-potent preservers over "
               "GF(7) split as r.psi with r^3 = 1, swept over "
               "33,784,128 maps")


@pytest.mark.parametrize("field_flag,k", [("5", 3), ("7", 4), ("Q", 3)])
def test_criterion_6_sampled_potents_properties(field_flag, k):
    F = QQ() if field_flag == "Q" else GF(int(field_flag))
    P = TWO_CHAIN
    rng = random.Random(20260816 + k)
    count = 10_000
    km1 = F.from_int(k - 1)
    for a in sample_k_potents(P, F, k, count, rng):
        # b = a + a^2 + ... + a^(k-1) satisfies b^2 = (k-1) b
        b = zero(P, F)
        for i in range(1, k):
            b = b + power(a, i)
        assert convolve(b, b) == b.scale(km1)
        spec = spectral_decompose(a, k)
        recomposed = zero(P, F)
        eps = spec.epsilon
        for i, e in enumerate(spec.idempotents, start=1):
            assert convolve(e, e) == e
            recomposed = recomposed + e.scale(F.pow_(eps, -i))
        for u, v in itertools.combinations(spec.idempotents, 2):
            assert convolve(u, v).is_zero() and convolve(v, u).is_zero()
        assert recomposed == a
        sigma = conjugate_to_diagonal(a, k)
        assert conjugate(diagonal_part(a), sigma) == a
    label = "the rationals" if field_flag == "Q" else f"GF({field_flag})"
    _passed(6, f"{count} sampled {k}-potents over {label}: partial-sum "
               "idempotency, spectral invariants, and diagonal "
               "conjugation all exact")


def test_criterion_7_demos_reproduce_every_claim():
    t0 = time.perf_counter()
    reports = run_all_demos()
    elapsed = time.perf_counter() - t0
    assert all(r["ok"] for r in reports)
    n_claims = sum(len(r["claims"]) for r in reports)
    assert elapsed < 1.0
    _passed(7, f"4 demos, {n_claims} claims, all reproduced exactly in "
               f"{elapsed:.3f}s")


@pytest.mark.parametrize("make,q,theorem,preservers", [
    (lambda: chain(3), 2, "z2", 512),
    (vee, 3, "char-ne-2", 72),
    (lambda: chain(3), 3, "char-ne-2", 216),
    (lambda: TWO_CHAIN, 9, "char-ne-2", 144),
], ids=["chain3-gf2-z2", "vee-gf3-char-ne-2", "chain3-gf3-char-ne-2",
        "chain2-gf9-char-ne-2"])
def test_criterion_9_verify_beyond_brute_force(make, q, theorem, preservers):
    P = make()
    t0 = time.perf_counter()
    report = verify_theorem(theorem, P, GF(q), spot=4)
    elapsed = time.perf_counter() - t0
    assert report.maps_swept == gl_order(P.dim, q)
    assert report.preserver_count == report.family_count == preservers
    assert report.match, report.notes
    assert elapsed < 10.0
    _passed(9, f"{theorem} over GF({q}): {report.preserver_count} "
               f"preservers equal the family among {report.maps_swept:,} maps, "
               f"in {elapsed:.2f}s")


def test_criterion_8_structural_oracles():
    checked_pairs = 0
    for F in (GF(2), GF(3)):
        idems = enumerate_k_potents(TWO_CHAIN, F, 2)
        for a, b in itertools.product(idems, repeat=2):
            if convolve(a, b) != convolve(b, a):
                continue
            checked_pairs += 1
            beta = simultaneous_diagonalize([a, b])
            bi = try_inverse(beta)
            for x in (a, b):
                assert convolve(convolve(bi, x), beta).is_diagonal()

    commutants = 0
    for P in (TWO_CHAIN, chain(3)):
        for F in (GF(2), GF(3)):
            labels = list(P.labels)
            for r in range(len(labels) + 1):
                for A in itertools.combinations(labels, r):
                    g = e_A(P, F, list(A))
                    brute = {f.coeffs for f in all_elements(P, F)
                             if convolve(f, g) == convolve(g, f)}
                    span = span_codes(P, F, centralizer_basis(P, F, A))
                    assert span == brute
                    commutants += 1

    # the elements commuting with every e_A, A containing x and y, found by
    # brute force over the whole algebra, are exactly those supported on
    # the diagonal plus the single corner (x, y)
    corners = 0
    for make in (lambda: chain(3), fork):
        for F in (GF(2), GF(3)):
            P = make()
            space = list(itertools.product(range(F.q), repeat=P.dim))
            labels = set(P.labels)
            for (x, y) in P.strict_pairs:
                rest = sorted(labels - {x, y})
                gs = [e_A(P, F, {x, y} | set(extra)).coeffs
                      for r in range(len(rest) + 1)
                      for extra in itertools.combinations(rest, r)]
                meet = {c for c in space
                        if all(convolve_coeffs(P, F, c, g)
                               == convolve_coeffs(P, F, g, c) for g in gs)}
                keep = set(range(P.n)) | {P.pair_index(x, y)}
                expected = {c for c in space
                            if all(c[i] == F.zero for i in range(P.dim)
                                   if i not in keep)}
                assert meet == expected
                corners += 1

    _passed(8, f"simultaneous diagonalization on {checked_pairs} commuting "
               f"idempotent pairs, {commutants} centralizers matched "
               f"against brute-force commutants, {corners} centralizer "
               "intersections pinned to the diagonal plus one corner")
