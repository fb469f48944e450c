"""Sweep kernels against the pure-Python oracle."""

import hashlib
import itertools
import json
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from incalg import linmaps, potents
from incalg.algebra import (IncElement, add_coeffs, basis_element,
                            from_triples, is_k_potent, lie_bracket,
                            scale_coeffs)
from incalg.classify import classify_preserver, regime_of
from incalg.errors import BudgetExceeded, UnsupportedRegime
from incalg.field import GF, QQ
from incalg.harness import kernels, verify
from incalg.harness.families import (_sigma_classes, bijective_shifts,
                                     invertible_elements, jordan_like_maps,
                                     multiplicative_systems, scaled_maps)
from incalg.harness.gl import enumerate_gl, gl_order
from incalg.harness.kernels import (build_sweep_tables, codes_of_linmap,
                                    image_codes, linmap_from_codes, sweep_gl)
from incalg.harness.verify import THEOREMS, verify_theorem
from incalg.linmaps import (LinMap, apply_map, compose, conjugation_map,
                            has_idempotent_diagonal_images, identity_map,
                            is_algebra_automorphism, is_bijective,
                            is_k_potent_preserver, is_lie_homomorphism,
                            multiplicative_map, order_induced_map,
                            preserves_jordan_products, scale_map)
from incalg.poset import chain, enumerate_order_maps

from toolkit import forbid_digit_arrays, fork, k22, vee


def test_gl_order_closed_form():
    assert gl_order(3, 2) == 168
    assert gl_order(5, 2) == 9_999_360
    assert gl_order(3, 3) == 11_232
    assert gl_order(3, 4) == 181_440
    assert gl_order(3, 5) == 1_488_000
    assert gl_order(3, 7) == 33_784_128


@pytest.mark.parametrize("q", [2, 3])
def test_enumerate_gl_counts_and_bijectivity(q):
    P, F = chain(2), GF(q)
    maps = list(enumerate_gl(P, F))
    assert len(maps) == gl_order(P.dim, q)
    assert len({codes_of_linmap(m) for m in maps}) == len(maps)
    for m in maps[:: max(1, len(maps) // 40)]:
        assert is_bijective(m)


def test_enumerate_gl_budget():
    with pytest.raises(BudgetExceeded) as ei:
        list(enumerate_gl(chain(2), GF(5), budget=10))
    assert ei.value.required == 1_488_000


def _code_stream_sha256(maps):
    h = hashlib.sha256()
    for m in maps:
        h.update((",".join(map(str, codes_of_linmap(m))) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("P,q,count,digest", [
    (chain(2), 3, 11_232,
     "932ab5fc810b464153f57fdf0b3059b75df3712423c23e78140674f4b666359c"),
    (vee(), 2, 50_000,
     "fa92a12d0a0c74fbcf4ec852a53aecd39c23a83a7740ce671d161df834c6a1dd"),
], ids=["chain2-gf3-all", "vee-gf2-prefix"])
def test_enumerate_gl_order_is_pinned(P, q, count, digest):
    # the exact map sequence, as column codes, that the enumeration yielded
    # when its digits were still read from numpy arrays
    maps = itertools.islice(enumerate_gl(P, GF(q), budget=10 ** 7), count)
    assert _code_stream_sha256(maps) == digest


def _reference_preserver_check(phi, k):
    """The per-potent loop on elements: apply the map, then test f^k = f;
    all potents over GF(q), the sampled ones over Q."""
    P, F = phi.poset, phi.field
    if F.is_finite():
        mode, pots = "exhaustive", potents.enumerate_k_potents(P, F, k)
    else:
        mode, pots = "sampled", linmaps._sampled_potents(P, F, k)
    for checked, f in enumerate(pots, start=1):
        if not is_k_potent(apply_map(phi, f), k):
            return False, f, mode, checked
    return True, None, mode, checked


def _check_tuple(check):
    return check.ok, check.witness, check.mode, check.checked


@pytest.mark.parametrize("q,count", [(3, None), (4, 5_000)],
                         ids=["gf3-all", "gf4-prefix"])
@pytest.mark.parametrize("k", [2, 3])
def test_preserver_check_matches_the_element_loop(q, count, k):
    # same verdict, the same cached potent as witness, same count checked
    P, F = chain(2), GF(q)
    hits = 0
    for phi in itertools.islice(enumerate_gl(P, F), count):
        got = is_k_potent_preserver(phi, k)
        ref = _reference_preserver_check(phi, k)
        assert _check_tuple(got) == ref
        assert got.witness is ref[1]
        hits += got.ok
    assert 0 < hits < (count or gl_order(P.dim, q))


def test_sampled_preserver_check_matches_the_element_loop():
    # seeded rational maps: random ones, and inner maps possibly composed
    # with the order reversal or scaled by -1, so both verdicts occur
    P, F = chain(2), QQ()
    rng = random.Random(20261018)
    rev = order_induced_map(enumerate_order_maps(P, "anti_automorphism")[0], F)
    verdicts = set()
    for i in range(200):
        if i % 2:
            phi = LinMap(P, F, [[Fraction(rng.randint(-2, 2)) for _ in range(P.dim)]
                                for _ in range(P.dim)])
        else:
            beta = from_triples(P, F, [(1, 1, rng.choice([1, -1, 2])),
                                       (2, 2, rng.choice([1, 3, -1])),
                                       (1, 2, rng.randint(-2, 2))])
            phi = conjugation_map(beta)
            if rng.random() < 0.5:
                phi = compose(phi, rev)
            if rng.random() < 0.5:
                phi = scale_map(phi, -1)
        for k in (2, 3):
            got = is_k_potent_preserver(phi, k)
            assert _check_tuple(got) == _reference_preserver_check(phi, k)
            verdicts.add((k, got.ok))
    assert verdicts == {(2, True), (2, False), (3, True), (3, False)}


def test_preserver_check_refusal_order(monkeypatch):
    # k < 2 over either field, then the scan cap (5^10 codes here), before
    # any digit array is built
    forbid_digit_arrays(monkeypatch)
    phi = identity_map(chain(4), GF(5))
    with pytest.raises(ValueError, match="k must be >= 2"):
        is_k_potent_preserver(phi, 1)
    with pytest.raises(ValueError, match="k must be >= 2"):
        is_k_potent_preserver(identity_map(chain(2), QQ()), 1)
    with pytest.raises(BudgetExceeded) as ei:
        is_k_potent_preserver(phi, 2)
    assert ei.value.required == 5 ** 10


@pytest.mark.parametrize("q,k", [(2, 2), (3, 2), (4, 2), (5, 3)])
def test_sweep_preservers_match_python_oracle(q, k):
    # the kernel's preserver list must equal filtering the pure-Python
    # enumeration through the pure-Python predicate, in the same order
    P, F = chain(2), GF(q)
    res = sweep_gl(P, F, k)
    oracle = [codes_of_linmap(m) for m in enumerate_gl(P, F)
              if is_k_potent_preserver(m, k)]
    got = [tuple(int(v) for v in row) for row in res.preservers]
    assert got == oracle
    assert res.n_maps == gl_order(P.dim, q)


@pytest.mark.parametrize("q", [2, 3])
def test_sweep_lie_maps_match_python_oracle(q):
    # the Lie lane prunes on its own flag; it must find exactly the maps the
    # pure-Python predicate accepts, in enumeration order
    P, F = chain(2), GF(q)
    res = sweep_gl(P, F, 2, want_lie=True)
    oracle = [codes_of_linmap(m) for m in enumerate_gl(P, F)
              if is_lie_homomorphism(m)]
    got = [tuple(int(v) for v in row) for row in res.lie_maps]
    assert got == oracle


def test_sweep_char2_big_has_no_mismatches():
    # the char 2, |F| > 2 statement as sets: the preservers are exactly the
    # swept Lie maps whose diagonal basis images the pure-Python predicate
    # finds idempotent
    P, F = chain(2), GF(4)
    res = sweep_gl(P, F, 2, want_lie=True, want_exidem=True)
    lie = [tuple(row) for row in res.lie_maps.tolist()]
    predicted = {codes for codes in lie if has_idempotent_diagonal_images(
        linmap_from_codes(P, F, codes))}
    assert {tuple(row) for row in res.preservers.tolist()} == predicted
    assert len(res.preservers) == 24 and len(lie) == 144


@pytest.mark.parametrize("q,cells", [
    (2, [88, 0, 0, 0, 72, 4, 0, 4]),
    (3, [10_446, 0, 30, 0, 744, 6, 0, 6]),
])
def test_flag_histogram_matches_python_oracle(q, cells):
    # every cell of the histogram, the closed-form count of the maps the
    # search never reaches included, against the three pure-Python
    # predicates on every map of GL
    P, F = chain(2), GF(q)
    tally = [0] * 8
    for m in enumerate_gl(P, F):
        tally[bool(is_k_potent_preserver(m, 2))
              | is_lie_homomorphism(m) << 1
              | has_idempotent_diagonal_images(m) << 2] += 1
    res = sweep_gl(P, F, 2, want_lie=True, want_exidem=True)
    assert tally == res.flag_counts.tolist() == cells


@pytest.mark.parametrize("P,q,frames", [
    (vee(), 2, 3_936), (chain(3), 2, 13_536), (vee(), 3, 26_550),
    (chain(2), 4, 72),
], ids=["vee-gf2", "chain3-gf2", "vee-gf3", "chain2-gf4"])
def test_idempotent_frames_match_brute_force(P, q, frames):
    # the closed-form exidem count rests on this: ordered n-tuples of
    # idempotents with full rank, counted one tuple at a time
    F = GF(q)
    idem = potents.cached_potents(P, F, 2)
    brute = sum(len(linmaps._rref([e.coeffs for e in frame], F)[1]) == P.n
                for frame in itertools.permutations(idem.elements, P.n))
    tab = build_sweep_tables(P, F)
    assert brute == kernels._idempotent_frames(tab, idem.lookup) == frames


def test_image_codes_reads_only_the_prefix_width():
    # a prefix of width w < dim serves every code below q^w
    tab = build_sweep_tables(chain(2), GF(3))
    assert image_codes(tab, np.arange(3), np.array([[4]])).tolist() == [0, 4, 8]
    prefixes = np.array([[4, 1], [2, 15], [9, 22]])
    dig = tab.dig.astype(np.int64)
    want = [[int((dig[t, :2] @ dig[p] % 3) @ tab.basis) for t in range(9)]
            for p in prefixes]
    assert image_codes(tab, np.arange(9), prefixes[:, None]).tolist() == want


def _brute_span(P, F, cols):
    """Codes of every F-combination of the digit columns ``cols``."""
    span = set()
    for coeffs in itertools.product(range(F.q), repeat=len(cols)):
        v = (0,) * P.dim
        for c, col in zip(coeffs, cols):
            v = add_coeffs(F, v, scale_coeffs(F, c, col))
        span.add(sum(x * F.q ** j for j, x in enumerate(v)))
    return sorted(span)


@pytest.mark.parametrize("P,q", [(chain(2), 3), (vee(), 2), (chain(2), 4)],
                         ids=["chain2-gf3", "vee-gf2", "chain2-gf4"])
def test_span_masks_match_brute_force(P, q):
    # random independent prefixes of every width, the empty one included
    F, rng = GF(q), random.Random(17)
    tab = build_sweep_tables(P, F)
    for width in range(P.dim + 1):
        prefixes = []
        while len(prefixes) < 4:
            prefix = [rng.randrange(1, tab.space) for _ in range(width)]
            if not prefix or len(linmaps._rref(
                    tab.dig[prefix].tolist(), F)[1]) == width:
                prefixes.append(prefix)
        prefixes = np.array(prefixes, dtype=np.int64).reshape(4, width)
        for prefix, mask in zip(prefixes, kernels._spans(tab, prefixes)):
            cols = tab.dig[prefix].tolist()
            assert np.flatnonzero(mask).tolist() == _brute_span(P, F, cols)


def _map_keys(tab, cols):
    """One integer per map: its column codes read in base ``space``."""
    return (np.asarray(cols) * tab.space ** np.arange(tab.dim)).sum(axis=-1)


@pytest.mark.parametrize("P,q,k,size", [(chain(2), 7, 4, 252),
                                        (vee(), 2, 2, 128)],
                         ids=["chain2-gf7-k4", "vee-gf2-k2"])
def test_preservers_form_a_group_closed_under_roots(P, q, k, size):
    # invariants that hold whatever the classification says: the bijective
    # preservers of a finite set form a group, and r.phi preserves k-potents
    # whenever r^(k-1) = 1
    F = GF(q)
    tab = build_sweep_tables(P, F)
    pres = sweep_gl(P, F, k).preservers
    assert len(pres) == size
    keys = set(_map_keys(tab, pres).tolist())
    assert int(_map_keys(tab, tab.basis)) in keys  # the identity
    everything = np.arange(tab.space)
    for phi in pres:
        action = image_codes(tab, everything, phi)  # phi on every code
        # phi o psi has columns phi(psi(e_j)), for every preserver psi
        assert keys.issuperset(_map_keys(tab, action[pres]).tolist())
        inverse = np.argsort(action)[tab.basis]
        assert int(_map_keys(tab, inverse)) in keys
    roots = [r for r in range(1, q) if F.pow_(r, k - 1) == F.one]
    for r in roots:
        assert keys.issuperset(_map_keys(tab, tab.vec_smul[r, pres]).tolist())


def test_level_counters_cover_gl_for_every_partition():
    P, F = chain(2), GF(5)
    one = sweep_gl(P, F, 3, workers=1)
    five = sweep_gl(P, F, 3, workers=5)
    assert five.workers == 5
    for res in (one, five):
        assert sum(lv["covered"] for lv in res.levels) == res.n_maps
        assert res.n_maps == gl_order(P.dim, 5)
    assert one.levels == five.levels
    assert one.levels[0]["visited"] == 5 ** 3 - 1  # every nonzero first column


@pytest.mark.parametrize("workers", [0, -4])
def test_sweep_refuses_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        sweep_gl(chain(2), GF(3), 2, workers=workers)


# (visited, pruned, passed, covered) per depth. The tables feed every test the
# search makes, so a change to them must leave these counts exactly as they are.
@pytest.mark.parametrize("P,q,k,want_lie,levels", [
    (chain(2), 7, 4, False,
     [(342, 255, 87, 25189920), (29232, 29106, 126, 8557164),
      (37044, 36792, 252, 37044)]),
    (vee(), 2, 2, True,
     [(31, 0, 31, 0), (930, 624, 306, 6709248), (8568, 7056, 1512, 2709504),
      (36288, 35424, 864, 566784), (13824, 13696, 128, 13824)]),
    # q odd: the span growth must not depend on which sign it shifts by
    (chain(2), 3, 2, True,
     [(26, 0, 26, 0), (624, 432, 192, 7776), (3456, 3414, 42, 3456)]),
    (chain(3), 2, 2, True,
     [(63, 0, 63, 0), (3906, 3168, 738, 16349921280),
      (44280, 40416, 3864, 3476422656), (216384, 213600, 2784, 328089600),
      (133632, 133120, 512, 4259840), (16384, 15872, 512, 16384)]),
    (vee(), 3, 2, False,
     [(242, 211, 31, 414646801920), (7440, 7356, 84, 60231869568),
      (19656, 19602, 54, 685913184), (11664, 11592, 72, 1877904),
      (11664, 11592, 72, 11664)]),
], ids=["chain2-gf7-k4", "vee-gf2-lie", "chain2-gf3-lie", "chain3-gf2-lie",
        "vee-gf3-k2"])
def test_search_levels_are_pinned(P, q, k, want_lie, levels):
    res = sweep_gl(P, GF(q), k, want_lie=want_lie)
    assert [tuple(lv[key] for key in ("visited", "pruned", "passed", "covered"))
            for lv in res.levels] == levels


def test_worker_partition_invariance():
    P, F = chain(2), GF(3)
    one = sweep_gl(P, F, 2, want_lie=True, workers=1)
    many = sweep_gl(P, F, 2, want_lie=True, workers=5)
    assert one.counts == many.counts
    assert np.array_equal(one.preservers, many.preservers)
    assert np.array_equal(one.lie_maps, many.lie_maps)


@pytest.mark.parametrize("q,size,bijective", [(3, 33, 12), (4, 100, 24)],
                         ids=["3", "4"])
def test_any_preserver_preserves_jordan_products(q, size, bijective):
    # every linear map of the 2-chain, bijective or not: each idempotent
    # preserver preserves Jordan products, and the class is strictly larger
    # than its bijective part
    P, F = chain(2), GF(q)
    columns = [list(col) for col in itertools.product(range(q), repeat=P.dim)]
    pres = [m for m in (LinMap(P, F, cols)
                        for cols in itertools.product(columns, repeat=P.dim))
            if is_k_potent_preserver(m, 2)]
    assert len(pres) == size
    assert all(preserves_jordan_products(m) for m in pres)
    assert sum(is_bijective(m) for m in pres) == bijective


def test_sweep_budget_guard():
    with pytest.raises(BudgetExceeded):
        sweep_gl(chain(3), GF(7), 2)  # coefficient space 7^6 over the cap


def test_family_sizes_on_two_chain():
    P = chain(2)
    assert len(invertible_elements(P, GF(3))) == 2 * 2 * 3
    assert len(multiplicative_systems(P, GF(5))) == 4
    assert len(bijective_shifts(P, GF(2))) == 4
    assert len(bijective_shifts(P, GF(3))) == 2 * 3 * 3
    fam = jordan_like_maps(P, GF(3))
    assert len(fam) == 12
    for m in fam.values():
        assert is_bijective(m)
    # the budget counts every invertible beta, not one per scalar class:
    # 8^2 * 9^3 = 46,656 per class is under it, 8^3 * 9^3 is over
    with pytest.raises(BudgetExceeded) as ei:
        jordan_like_maps(chain(3), GF(9))
    assert ei.value.required == 8 ** 3 * 9 ** 3


def _order_maps(P):
    return (enumerate_order_maps(P, "automorphism")
            + enumerate_order_maps(P, "anti_automorphism"))


def _reference_jordan_like_maps(P, F):
    """The family as first built: one conjugation per (order map, sigma,
    beta), over every invertible beta."""
    betas = invertible_elements(P, F)
    sigmas = multiplicative_systems(P, F)
    seen = {}
    for om in _order_maps(P):
        lam_hat = order_induced_map(om, F)
        for sigma in sigmas:
            base = compose(lam_hat, multiplicative_map(sigma))
            for beta in betas:
                m = compose(conjugation_map(beta), base)
                key = tuple(tuple(c) for c in m.cols)
                if key not in seen:
                    seen[key] = m
    return seen


def _every_sigma_jordan_like_maps(P, F):
    """The family as built before the sigma classes: every sigma, one
    conjugation per beta class modulo nonzero scalars."""
    conjs = [conjugation_map(beta) for beta in invertible_elements(P, F)
             if beta.coeffs[0] == F.one]
    seen = {}
    for om in _order_maps(P):
        lam_hat = order_induced_map(om, F)
        for sigma in multiplicative_systems(P, F):
            base = compose(lam_hat, multiplicative_map(sigma))
            for conj in conjs:
                m = compose(conj, base)
                seen.setdefault(m.cols, m)
    return seen


REFERENCE_CASES = [(chain(2), 3), (chain(2), 5), (vee(), 3), (chain(3), 2),
                   (chain(3), 3), (chain(1), 5)]
REFERENCE_IDS = ["chain2-gf3", "chain2-gf5", "vee-gf3", "chain3-gf2",
                 "chain3-gf3", "chain1-gf5"]


@pytest.mark.parametrize(
    "P,q,reference",
    [(P, q, _reference_jordan_like_maps) for P, q in REFERENCE_CASES]
    + [(k22(), 3, _every_sigma_jordan_like_maps),
       (fork(), 3, _every_sigma_jordan_like_maps)],
    ids=REFERENCE_IDS + ["k22-gf3", "fork-gf3"])
def test_jordan_like_maps_match_reference_loop(P, q, reference):
    # same keys in the same order, with equal maps, as the loop over every
    # beta; K_{2,2} and the fork compare against the loop over every sigma
    # (one beta per scalar class), since the every-beta loop takes about
    # 46 s on K_{2,2}
    F = GF(q)
    assert (list(jordan_like_maps(P, F).items())
            == list(reference(P, F).items()))


@pytest.mark.parametrize("P,q,classes",
                         [(P, q, 1) for P, q in REFERENCE_CASES]
                         + [(fork(), 3, 1), (k22(), 3, 2)],
                         ids=REFERENCE_IDS + ["fork-gf3", "k22-gf3"])
def test_sigma_classes_partition_the_multiplicative_systems(P, q, classes):
    # coboundaries act freely, so each class has |coboundaries| members; on
    # a tree every sigma is a coboundary, on the 4-cycle of K_{2,2} not
    F = GF(q)
    sigmas = multiplicative_systems(P, F)
    reps, cobs = _sigma_classes(P, F, sigmas)
    assert len(reps) * len(cobs) == len(sigmas)
    assert len(reps) == classes
    assert all(c == F.one for c in reps[0].coeffs)


def test_jordan_like_maps_need_sigma_on_k22():
    # the Hasse diagram of K_{2,2} is a 4-cycle, so it has multiplicative
    # systems that are not inner: half the family needs one
    P, F = k22(), GF(3)
    fam = jordan_like_maps(P, F)
    assert len(fam) == 10_368
    lams = [order_induced_map(om, F) for om in _order_maps(P)]
    assert len(lams) == 8
    conjugations = [conjugation_map(beta) for beta in invertible_elements(P, F)]
    assert len(conjugations) == 1_296
    inner = {compose(conj, lam).cols for lam in lams for conj in conjugations}
    assert len(inner) == 5_184 and inner <= fam.keys()
    need_sigma = [key for key in fam if key not in inner]
    assert len(need_sigma) == 5_184
    step = len(need_sigma) // 4
    for key in need_sigma[::step][:4]:
        assert classify_preserver(fam[key], 2).regime == "char-ne-2"


def test_tables_contents():
    # every entry of every table, against IncElement arithmetic
    for P, q in [(chain(2), 3), (vee(), 2), (chain(2), 4)]:
        F = GF(q)
        tab = build_sweep_tables(P, F)
        assert tab.space == q ** P.dim
        els = [IncElement(P, F, [int(v) for v in row]) for row in tab.dig]
        code = {f: c for c, f in enumerate(els)}
        assert len(code) == tab.space
        assert tab.basis.tolist() == [code[basis_element(P, F, x, y)]
                                      for x, y in P.comparable_pairs()]
        bracket = kernels.bracket_table(P, F, tab)
        for c, f in enumerate(els):
            assert tab.vec_smul[:, c].tolist() == [code[f.scale(r)]
                                                   for r in range(q)]
            assert tab.vec_add[c].tolist() == [code[f + g] for g in els]
            assert bracket[c].tolist() == [code[lie_bracket(f, g)]
                                           for g in els]


def test_tables_budget_checked_before_build(monkeypatch):
    # a coefficient space over the sweep cap is refused before any table is
    # built
    forbid_digit_arrays(monkeypatch)
    with pytest.raises(BudgetExceeded) as ei:
        build_sweep_tables(chain(2), GF(17))
    assert ei.value.required == 17 ** 3


def _record_calls(monkeypatch, fn):
    """Wrap ``fn`` wherever a module of the package holds it, and return the
    list of the positional arguments of each call made through it."""
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if (name.startswith("incalg")
                and getattr(mod, fn.__name__, None) is fn):
            monkeypatch.setattr(mod, fn.__name__, recording)
    return calls


@pytest.mark.parametrize("theorem,P,q,k", [
    ("z2", vee(), 2, None), ("z2", chain(3), 2, None),
    ("char-ne-2", chain(2), 3, None), ("char-2-big", chain(2), 4, None),
    ("tripotent", chain(2), 5, None), ("kpotent", chain(2), 5, 3),
], ids=["z2-vee", "z2-chain3", "char-ne-2", "char-2-big", "tripotent",
        "kpotent"])
def test_verify_builds_the_sweep_tables_once(monkeypatch, theorem, P, q, k):
    # the sweep's tables serve the family too: one build per verify
    calls = _record_calls(monkeypatch, kernels.build_sweep_tables)
    report = verify_theorem(theorem, P, GF(q), k=k)
    assert report.match
    assert calls == [(P, GF(q))]


def test_cold_kpotent_verify_scans_potents_once(monkeypatch):
    # the sweep and the spot checks' preserver predicate read one shared
    # potent scan
    monkeypatch.setattr(potents, "_POTENT_CACHE", {})
    calls = _record_calls(monkeypatch, potents.potent_code_tables)
    report = verify_theorem("kpotent", chain(2), GF(5), k=3)
    assert report.match and report.samples
    assert [args[:3] for args in calls] == [(chain(2), GF(5), 3)]


def test_codes_round_trip():
    P, F = chain(2), GF(5)
    for m in itertools.islice(enumerate_gl(P, F, budget=2 * 10 ** 6), 100):
        assert linmap_from_codes(P, F, codes_of_linmap(m)) == m


def test_verify_theorem_argument_validation():
    P = chain(2)
    with pytest.raises(ValueError):
        verify_theorem("z2", P, GF(3))
    with pytest.raises(ValueError):
        verify_theorem("char-ne-2", P, GF(2))
    with pytest.raises(ValueError):
        verify_theorem("kpotent", P, GF(7))  # k missing
    with pytest.raises(ValueError):
        verify_theorem("kpotent", P, GF(5), k=5)  # char divides k
    with pytest.raises(ValueError):
        verify_theorem("no-such-theorem", P, GF(2))
    # a report of at most SPOT_SAMPLES preservers samples every one of them
    report = verify_theorem("char-ne-2", P, GF(3))
    assert report.match and report.preserver_count == 12
    assert [s["map"] for s in report.samples] == \
        sweep_gl(P, GF(3), 2).preservers.tolist()


# the statement that covers (GF(q), k), read off the paper's case split;
# a pair missing here is outside every statement
REGIMES = {(2, 2): "z2", (4, 2): "char-2-big", (8, 2): "char-2-big",
           (3, 2): "char-ne-2", (5, 2): "char-ne-2", (7, 2): "char-ne-2",
           (5, 3): "tripotent", (7, 3): "tripotent", (7, 4): "kpotent"}
# theorem -> (its fixed k, None when the caller gives k; the regimes it covers)
COVERS = {"z2": (2, {"z2"}), "char-ne-2": (2, {"char-ne-2"}),
          "char-2-big": (2, {"char-2-big"}), "tripotent": (3, {"tripotent"}),
          "kpotent": (None, {"tripotent", "kpotent"})}


def _assert_samples_certified(P, F, k, report):
    # each sample reports exactly what classify_preserver certifies
    assert report.samples
    for s in report.samples:
        phi = linmap_from_codes(P, F, tuple(s["map"]))
        assert s == {"map": s["map"], "ok": True, "certificates":
                     classify_preserver(phi, k).certificates}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_verify_refuses_exactly_outside_its_regimes(q, k):
    F, P = GF(q), chain(1)
    want = REGIMES.get((q, k))
    if want is None:
        with pytest.raises(UnsupportedRegime):
            regime_of(F, k)
    else:
        assert regime_of(F, k) == want
    assert set(COVERS) == set(THEOREMS)
    for theorem, (fixed, regimes) in COVERS.items():
        # a theorem that fixes k refuses any other k
        if (fixed is not None and k != fixed
                or REGIMES.get((q, k)) not in regimes):
            with pytest.raises(ValueError):
                verify_theorem(theorem, P, F, k=k)
            continue
        report = verify_theorem(theorem, P, F, k=None if fixed else k)
        assert report.match and report.k == k
        _assert_samples_certified(P, F, k, report)


def test_verify_samples_carry_classify_certificates():
    P, F = chain(2), GF(3)
    report = verify_theorem("char-ne-2", P, F)
    assert report.match and len(report.samples) == 12
    _assert_samples_certified(P, F, 2, report)


def test_verify_z2_on_vee_poset():
    r = verify_theorem("z2", vee(), GF(2))
    assert r.match
    assert r.maps_swept == gl_order(5, 2)
    assert r.preserver_count == r.family_count == 128


def _automorphisms_only(P, F):
    return {key: m for key, m in jordan_like_maps(P, F).items()
            if is_algebra_automorphism(m)}


def _one_root_only(maps, F, k):
    return scaled_maps(maps, F, 2)  # the 1st roots of unity: r = 1 alone


def _identity_shift_only(P, F):
    # the shift.Lie family is redundant on V GF(2): dropping one shift, or
    # even 12 of the 16, still reaches all 128 preservers
    return [s for s in bijective_shifts(P, F) if s == identity_map(P, F)]


@pytest.mark.parametrize("name,mutant,theorem,P,q,k,sizes", [
    ("jordan_like_maps", _automorphisms_only, "char-ne-2", chain(2), 3, None,
     (12, 6)),
    ("scaled_maps", _one_root_only, "kpotent", chain(2), 7, 4, (252, 84)),
    ("bijective_shifts", _identity_shift_only, "z2", vee(), 2, None,
     (128, 32)),
], ids=["no-anti-automorphisms", "one-root", "identity-shift"])
def test_a_family_mutant_fails_with_witnesses(monkeypatch, name, mutant,
                                              theorem, P, q, k, sizes):
    # verify calls the family builders through its global names, so a
    # wrapper that shrinks the family must fail the report, and the notes
    # must name the first preservers the family misses, in sweep order
    monkeypatch.setattr(verify, name, mutant)
    F = GF(q)
    report = verify_theorem(theorem, P, F, k=k)
    assert not report.match
    assert (report.preserver_count, report.family_count) == sizes
    witnesses = [note for note in report.notes
                 if note.startswith("mismatch witness: ")]
    assert len(witnesses) == min(8, sizes[0] - sizes[1])
    assert report.notes[:len(witnesses)] == witnesses
    codes = [tuple(json.loads(note.split(": ", 1)[1])) for note in witnesses]
    assert codes == sorted(codes)
    for c in codes:
        assert is_k_potent_preserver(linmap_from_codes(P, F, c), report.k)
