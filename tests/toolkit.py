"""What several test files share: the named posets, brute-force
enumerators over a finite incidence algebra, and a guard that no
coefficient space's digit array is built.

A plain module, not collected by pytest; the test files import it by name.
"""

import itertools

from incalg import potents
from incalg.algebra import IncElement, zero
from incalg.harness import kernels
from incalg.harness.kernels import linmap_from_codes, sweep_gl
from incalg.poset import poset_from_relations


def vee():
    """V = {1<2, 1<3}."""
    return poset_from_relations([1, 2, 3], [(1, 2), (1, 3)])


def fork():
    """The fork {1<2<3, 1<4}, given by its covering relations."""
    return poset_from_relations([1, 2, 3, 4], [(1, 2), (2, 3), (1, 4)])


def k22():
    """K_{2,2} = {1, 2 < 3, 4}."""
    return poset_from_relations([1, 2, 3, 4], [(1, 3), (1, 4), (2, 3), (2, 4)])


def all_elements(P, F):
    """Every element of I(P, F), F finite."""
    for coeffs in itertools.product(range(F.q), repeat=P.dim):
        yield IncElement(P, F, coeffs)


def span_codes(P, F, basis):
    """The coefficient tuples of every F-combination of ``basis``."""
    span = set()
    for cs in itertools.product(range(F.q), repeat=len(basis)):
        acc = zero(P, F)
        for c, b in zip(cs, basis):
            acc = acc + b.scale(c)
        span.add(acc.coeffs)
    return span


def swept_preservers(P, F, k):
    """The k-potent preservers ``sweep_gl`` finds, as LinMaps in its order."""
    return [linmap_from_codes(P, F, row) for row in sweep_gl(P, F, k).preservers]


def forbid_digit_arrays(monkeypatch):
    """Fail the test if a coefficient space's digit array is built: a
    refusal must come before it."""
    def no_digits(*args):
        raise AssertionError("digit array built past a space cap")

    monkeypatch.setattr(potents, "space_digits", no_digits)
    monkeypatch.setattr(kernels, "space_digits", no_digits)
