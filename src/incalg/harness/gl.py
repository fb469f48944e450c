"""Reference enumeration of invertible linear maps, kept independent of the
sweep kernels so the two can be checked against each other.

Maps come out in the same order the kernels visit them: columns are chosen
left to right with candidate codes ascending, skipping anything already in
the span of the earlier columns.
"""

from ..errors import BudgetExceeded, UnsupportedField
from ..linmaps import LinMap
from ..potents import space_digits


def gl_order(n, q):
    """Number of invertible n x n matrices over a field with q elements."""
    total = 1
    for i in range(n):
        total *= q ** n - q ** i
    return total


def enumerate_gl(P, F, budget=2 * 10 ** 6):
    """Yield every bijective linear map on I(P, F) as a LinMap.

    Pure-Python depth-first search over column codes; the span of the chosen
    columns is tracked as a set of codes grown with the field tables.
    """
    if not F.is_finite():
        raise UnsupportedField("enumeration needs a finite field")
    q, dim = F.q, P.dim
    order = gl_order(dim, q)
    if order > budget:
        raise BudgetExceeded(
            f"group has {order} elements, budget is {budget}", required=order)
    space, dig = space_digits(P, F)
    dig = [tuple(row) for row in dig.tolist()]
    add_t, mul_t = F.add_np.tolist(), F.mul_np.tolist()

    def vec_add(a, b):
        da, db = dig[a], dig[b]
        c = 0
        for j in range(dim - 1, -1, -1):
            c = c * q + add_t[da[j]][db[j]]
        return c

    def vec_smul(s, a):
        da, row = dig[a], mul_t[s]
        c = 0
        for j in range(dim - 1, -1, -1):
            c = c * q + row[da[j]]
        return c

    cols = [0] * dim
    span = {0}

    def descend(level):
        for cand in range(1, space):
            if cand in span:
                continue
            cols[level] = cand
            if level == dim - 1:
                yield LinMap(P, F, [dig[c] for c in cols])
                continue
            added = []
            for s in list(span):
                for cc in range(1, q):
                    v = vec_add(s, vec_smul(cc, cand))
                    if v not in span:
                        span.add(v)
                        added.append(v)
            yield from descend(level + 1)
            for v in added:
                span.discard(v)

    yield from descend(0)
