"""Finite posets with a fixed canonical basis order for their incidence algebras.

Elements are relabeled internally to 0..n-1 along a fixed linear extension
(topological order, ties broken by label order), so i <= j in the poset
implies i <= j as integers. The comparable-pair list (diagonal pairs first,
then strict pairs ordered lexicographically by position) is the basis order
every element and map in the package uses.
"""

import json

from .errors import CycleError, EmptyPoset, IncomparablePair, UnknownLabel


def _label_key(labels):
    try:
        sorted(labels)
        return lambda x: x
    except TypeError:
        return str


class Poset:
    """Use poset_from_relations / parse_poset to construct."""

    def __init__(self, labels, leq_rows):
        # labels already in canonical order, leq_rows a closed relation on them
        self.labels = tuple(labels)
        self.n = len(labels)
        self.index = {x: i for i, x in enumerate(labels)}
        self._leq = tuple(tuple(bool(v) for v in row) for row in leq_rows)

        diag = [(i, i) for i in range(self.n)]
        strict = [(i, j) for i in range(self.n) for j in range(self.n)
                  if i != j and self._leq[i][j]]
        strict.sort()
        self.pairs = tuple(diag + strict)
        self.dim = len(self.pairs)
        self.n_strict = len(strict)
        self.pair_pos = {pr: k for k, pr in enumerate(self.pairs)}

        # single-step structure constants: e_(x,y) e_(u,v) = [y==u] e_(x,v);
        # prod_terms[a] lists the nonzero (b, m) of row a, b ascending
        from_lower = [[] for _ in range(self.n)]
        for b, (u, v) in enumerate(self.pairs):
            from_lower[u].append((b, v))
        self.prod_terms = tuple(
            tuple((b, self.pair_pos[(x, v)]) for b, v in from_lower[y])
            for x, y in self.pairs)

        covers = []
        for i, j in strict:
            if not any(self._leq[i][z] and self._leq[z][j] and z != i and z != j
                       for z in range(self.n)):
                covers.append((i, j))
        self._covers = tuple(covers)

        self._hash = hash((self.labels, self._leq))

    # --- queries, label-facing ---

    def leq(self, x, y):
        return self._leq[self._idx(x)][self._idx(y)]

    def lt(self, x, y):
        return x != y and self.leq(x, y)

    def _idx(self, x):
        try:
            return self.index[x]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise UnknownLabel(f"{x!r} is not an element") from None

    @property
    def strict_pairs(self):
        return tuple((self.labels[i], self.labels[j]) for i, j in self.pairs[self.n:])

    @property
    def hasse_edges(self):
        return tuple((self.labels[i], self.labels[j]) for i, j in self._covers)

    def comparable_pairs(self):
        return tuple((self.labels[i], self.labels[j]) for i, j in self.pairs)

    def pair_index(self, x, y):
        """Basis position of the comparable pair (x, y)."""
        key = (self._idx(x), self._idx(y))
        if key not in self.pair_pos:
            raise IncomparablePair(f"{x!r} !<= {y!r}")
        return self.pair_pos[key]

    def interval(self, x, y):
        i, j = self._idx(x), self._idx(y)
        if not self._leq[i][j]:
            raise IncomparablePair(f"{x!r} !<= {y!r}")
        return tuple(self.labels[z] for z in range(self.n)
                     if self._leq[i][z] and self._leq[z][j])

    def __eq__(self, other):
        return self is other or (isinstance(other, Poset)
                                 and self.labels == other.labels
                                 and self._leq == other._leq)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Poset({list(self.labels)}, {len(self._covers)} covers)"


def poset_from_relations(labels, relations):
    """Build the poset generated by `relations` (pairs (a, b) meaning a < b).

    Takes the reflexive-transitive closure, rejects cycles, and fixes the
    canonical element order.
    """
    labels = list(labels)
    if not labels:
        raise EmptyPoset("a poset needs at least one element")
    try:
        pos = {x: i for i, x in enumerate(labels)}
    except TypeError:
        raise UnknownLabel("labels must be hashable") from None
    if len(pos) != len(labels):
        raise UnknownLabel("duplicate labels")

    def at(x):
        try:
            return pos[x]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise UnknownLabel(f"{x!r} is not among the labels") from None

    n = len(labels)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in relations:
        leq[at(a)][at(b)] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                row_i, row_k = leq[i], leq[k]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i][j] and leq[j][i]:
                raise CycleError(f"{labels[i]!r} and {labels[j]!r} lie on a cycle")

    # linear extension: repeatedly take the minimal available label
    key = _label_key(labels)
    order = []
    placed = [False] * n
    for _ in range(n):
        ready = [i for i in range(n) if not placed[i]
                 and all(placed[j] or j == i for j in range(n) if leq[j][i])]
        nxt = min(ready, key=lambda i: key(labels[i]))
        placed[nxt] = True
        order.append(nxt)
    new_labels = [labels[i] for i in order]
    new_leq = [[leq[order[i]][order[j]] for j in range(n)] for i in range(n)]
    return Poset(new_labels, new_leq)


def chain(n):
    """The chain 1 < 2 < ... < n."""
    return poset_from_relations(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def antichain(n):
    return poset_from_relations(range(1, n + 1), [])


def is_connected(P):
    """Connectivity of the comparability graph (equivalently, of the Hasse diagram)."""
    if P.n == 0:
        raise EmptyPoset("empty poset")
    adj = [set() for _ in range(P.n)]
    for i, j in P.pairs[P.n:]:
        adj[i].add(j)
        adj[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        for z in adj[stack.pop()]:
            if z not in seen:
                seen.add(z)
                stack.append(z)
    return len(seen) == P.n


def parse_poset(text):
    """Parse either poset file format.

    Text format: first non-blank line is n (elements are labeled 1..n), each
    following line one generating relation "a < b". JSON format: an object
    {"labels": [...], "relations": [[a, b], ...]}.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        obj = json.loads(text)
        if not (isinstance(obj.get("labels"), list)
                and isinstance(obj.get("relations"), list)
                and all(isinstance(r, list) and len(r) == 2
                        for r in obj["relations"])):
            raise UnknownLabel('a JSON poset is {"labels": [...], '
                               '"relations": [[a, b], ...]}')
        labels = [tuple(x) if isinstance(x, list) else x for x in obj["labels"]]
        rels = [(tuple(a) if isinstance(a, list) else a,
                 tuple(b) if isinstance(b, list) else b)
                for a, b in obj["relations"]]
        return poset_from_relations(labels, rels)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise EmptyPoset("empty poset file")
    n = int(lines[0])
    rels = []
    for ln in lines[1:]:
        a, sep, b = ln.partition("<")
        if not sep:
            raise UnknownLabel(f"bad relation line {ln!r}")
        rels.append((int(a), int(b)))
    return poset_from_relations(range(1, n + 1), rels)


class OrderMap:
    """An order automorphism or anti-automorphism of a poset.

    perm maps internal indices to internal indices; kind says which law the
    map satisfies (on an antichain both hold and the stored kind is taken
    at face value).
    """

    __slots__ = ("poset", "perm", "kind")

    AUTO = "automorphism"
    ANTI = "anti_automorphism"

    def __init__(self, poset, perm, kind):
        if kind not in (self.AUTO, self.ANTI):
            raise ValueError(f"bad order-map kind {kind!r}")
        perm = tuple(perm)
        if sorted(perm) != list(range(poset.n)):
            raise ValueError("perm is not a permutation")
        for i in range(poset.n):
            for j in range(poset.n):
                want = poset._leq[perm[i]][perm[j]] if kind == self.AUTO \
                    else poset._leq[perm[j]][perm[i]]
                if poset._leq[i][j] != want:
                    raise ValueError(f"perm does not satisfy the {kind} law")
        self.poset = poset
        self.perm = perm
        self.kind = kind

    def __call__(self, x):
        return self.poset.labels[self.perm[self.poset._idx(x)]]

    @property
    def mapping(self):
        return {x: self(x) for x in self.poset.labels}

    def basis_perm(self):
        """The permutation of basis indices the map induces: entry k is the
        index of (perm x, perm y) for the k-th pair (x, y), the pair flipped
        for the anti kind."""
        P, p = self.poset, self.perm
        if self.kind == self.ANTI:
            return tuple(P.pair_pos[(p[j], p[i])] for i, j in P.pairs)
        return tuple(P.pair_pos[(p[i], p[j])] for i, j in P.pairs)

    def __eq__(self, other):
        return (isinstance(other, OrderMap) and self.poset == other.poset
                and self.perm == other.perm and self.kind == other.kind)

    def __hash__(self):
        return hash((self.poset, self.perm, self.kind))

    def __repr__(self):
        return f"OrderMap({self.mapping}, {self.kind})"


def enumerate_order_maps(P, kind=OrderMap.AUTO):
    """All order maps of the given kind, by backtracking over images.

    Deterministic order: images assigned along the canonical element order,
    candidates tried in canonical order.
    """
    maps = []
    used = [False] * P.n
    perm = [0] * P.n

    def fits(i, y):
        for x in range(i):
            # the anti law is the auto law with the images swapped
            a, b = (perm[x], y) if kind == OrderMap.AUTO else (y, perm[x])
            if P._leq[x][i] != P._leq[a][b] or P._leq[i][x] != P._leq[b][a]:
                return False
        return True

    def rec(i):
        if i == P.n:
            maps.append(OrderMap(P, tuple(perm), kind))
            return
        for y in range(P.n):
            if not used[y] and fits(i, y):
                used[y] = True
                perm[i] = y
                rec(i + 1)
                used[y] = False

    rec(0)
    return maps
