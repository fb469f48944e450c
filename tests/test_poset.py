"""Poset construction, canonical pair order, and order-map enumeration."""

import itertools
import sys

import pytest

from incalg import poset as poset_module
from incalg.errors import CycleError, EmptyPoset, IncomparablePair, UnknownLabel
from incalg.poset import (OrderMap, Poset, antichain, chain,
                          enumerate_order_maps, is_connected, parse_poset,
                          poset_from_relations)

from toolkit import fork, k22, vee


def test_chain_shape():
    P = chain(3)
    assert P.labels == (1, 2, 3)
    assert P.n == 3 and P.n_strict == 3 and P.dim == 6
    assert P.leq(1, 3) and P.lt(1, 3) and not P.leq(3, 1)
    assert P.hasse_edges == ((1, 2), (2, 3))


def test_antichain_shape():
    P = antichain(3)
    assert P.n_strict == 0 and P.dim == 3
    assert not P.leq(1, 2)
    assert not is_connected(P)
    assert is_connected(chain(3))


def test_pair_order_diagonal_first_then_lex():
    P = fork()
    assert P.comparable_pairs() == ((1, 1), (2, 2), (3, 3), (4, 4),
                                    (1, 2), (1, 3), (1, 4), (2, 3))
    assert P.strict_pairs == ((1, 2), (1, 3), (1, 4), (2, 3))
    for k, (x, y) in enumerate(P.comparable_pairs()):
        assert P.pair_index(x, y) == k


def test_transitive_closure():
    # the fork is given by 1 < 2 < 3 and 1 < 4; the closure must add (1, 3)
    P = fork()
    assert P.lt(1, 3)
    assert not P.leq(2, 4) and not P.leq(4, 2)
    assert P.interval(1, 3) == (1, 2, 3)


def test_cycle_and_bad_labels():
    with pytest.raises(CycleError):
        poset_from_relations([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(UnknownLabel):
        poset_from_relations([1, 2], [(1, 5)])
    with pytest.raises(EmptyPoset):
        poset_from_relations([], [])
    with pytest.raises(IncomparablePair):
        fork().pair_index(2, 4)


def test_parse_poset_text_and_json():
    P = parse_poset("3\n1 < 2\n2 < 3\n")
    assert P.comparable_pairs() == chain(3).comparable_pairs()
    Q = parse_poset('{"labels": [1, 2, 3, 4], '
                    '"relations": [[1, 2], [2, 3], [1, 4]]}')
    assert Q.strict_pairs == fork().strict_pairs


@pytest.mark.parametrize("text", [
    "", "  \n\n", '{"relations": []}', '{"labels": [1, 2]}',
    '{"labels": 5, "relations": []}', '{"labels": [1, 2], "relations": [1]}',
    '{"labels": [1, 2], "relations": [[1, 2, 3]]}',
    '{"labels": [{"a": 1}], "relations": []}',
    '{"labels": [[1, [2]]], "relations": []}',
    '{"labels": [1, 2], "relations": [[{"a": 1}, 2]]}',
    "2\n1 < 2\n2 - 1\n",
], ids=["empty", "blank", "no-labels", "no-relations", "labels-not-a-list",
        "relation-not-a-pair", "relation-of-three", "unhashable-label",
        "nested-list-label", "unhashable-relation-end", "bad-relation-line"])
def test_malformed_poset_text_is_refused(text):
    with pytest.raises((EmptyPoset, UnknownLabel)):
        parse_poset(text)


def test_labels_can_be_arbitrary():
    P = poset_from_relations(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert P.lt("a", "c")
    assert P.pair_index("a", "c") == P.n + 1


def _brute_force_order_maps(P, kind):
    """All label permutations satisfying the (anti)monotonicity law both ways."""
    found = []
    idx = {x: i for i, x in enumerate(P.labels)}
    for perm in itertools.permutations(range(P.n)):
        ok = True
        for i in range(P.n):
            for j in range(P.n):
                a = P.leq(P.labels[i], P.labels[j])
                if kind == "automorphism":
                    b = P.leq(P.labels[perm[i]], P.labels[perm[j]])
                else:
                    b = P.leq(P.labels[perm[j]], P.labels[perm[i]])
                if a != b:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(perm)
    return sorted(found)


@pytest.mark.parametrize("kind", ["automorphism", "anti_automorphism"])
def test_order_map_enumeration_matches_brute_force(kind):
    for P in (chain(3), antichain(3), fork()):
        got = sorted(om.perm for om in enumerate_order_maps(P, kind))
        assert got == _brute_force_order_maps(P, kind)


def test_order_map_counts_on_fixed_posets():
    # chain: only the identity preserves, only the reversal reverses
    assert len(enumerate_order_maps(chain(4), "automorphism")) == 1
    assert len(enumerate_order_maps(chain(4), "anti_automorphism")) == 1
    # antichain: every permutation does both
    assert len(enumerate_order_maps(antichain(3), "automorphism")) == 6
    assert len(enumerate_order_maps(antichain(3), "anti_automorphism")) == 6
    # the fork has one nontrivial symmetry (3 <-> 4 is NOT one: different depth)
    assert len(enumerate_order_maps(fork(), "automorphism")) == 1
    assert len(enumerate_order_maps(fork(), "anti_automorphism")) == 0


def test_order_map_call_compose_inverse():
    P = chain(3)
    rev = enumerate_order_maps(P, "anti_automorphism")[0]
    assert rev(1) == 3 and rev(3) == 1
    # the reversal is its own inverse
    assert all(rev(rev(x)) == x for x in P.labels)
    assert rev.mapping == {1: 3, 2: 2, 3: 1}
    assert rev.kind == "anti_automorphism"


def test_order_map_rejects_wrong_law():
    P = chain(2)
    with pytest.raises(ValueError):
        OrderMap(P, (1, 0), "automorphism")  # reversal is not monotone
    with pytest.raises(ValueError):
        OrderMap(P, (0, 0), "automorphism")  # not a permutation
    with pytest.raises(ValueError):
        OrderMap(P, (0, 1), "rotation")


def test_relabeling_gives_internal_indices_compatible_with_order():
    # labels arrive shuffled; internal indices must still satisfy i <= j
    P = poset_from_relations([30, 10, 20], [(30, 10), (10, 20)])
    for i, j in P.pairs[P.n:]:
        assert i < j
    assert P.lt(30, 20)


def _all_pairs_prod_terms(P):
    # the reference: every pair scanned against every pair
    return tuple(
        tuple((b, P.pair_pos[(x, v)])
              for b, (u, v) in enumerate(P.pairs) if y == u)
        for x, y in P.pairs)


@pytest.mark.parametrize("P", [chain(n) for n in range(1, 7)] + [
    vee(), fork(), k22(),
    poset_from_relations([1, 2, 3, 4], [(1, 2), (1, 3), (2, 4), (3, 4)]),
], ids=[f"chain{n}" for n in range(1, 7)] + ["vee", "fork", "k22", "diamond"])
def test_prod_terms_match_the_all_pairs_scan(P):
    assert P.prod_terms == _all_pairs_prod_terms(P)


def _traced_lines(build):
    """Line events in poset.py while ``build`` runs: one per line started
    and one per loop iteration, a count of work that does not depend on
    the host's speed."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == poset_module.__file__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        build()
    finally:
        sys.settrace(previous)
    return count


def test_building_a_poset_is_linear_in_its_structure_constants():
    # the all-pairs scan costs dim^2 = 672,400 iterations on the 40-chain;
    # the work allowed here is a small multiple of the pairs, the product
    # terms and the n-point cover checks of each strict pair
    P = chain(40)
    terms = sum(len(row) for row in P.prod_terms)
    lines = _traced_lines(lambda: Poset(P.labels, P._leq))
    assert lines < 4 * (P.dim + terms + P.n_strict * P.n)
