"""Sweep kernel: search GL(dim, q) with per-map flags.

Maps are dim-tuples of column codes, code = sum_j coeff_j q^j, reported in
lexicographic order of their columns (first column slowest, candidate codes
ascending). Flags per map:

  preserver  every k-potent code lands on a k-potent code
  lie        brackets of basis pairs are preserved
  exidem     the image of every diagonal basis element is idempotent

``sweep_gl`` is a level-pruned backtracking search, vectorized with numpy. A
node at depth l is a prefix of l + 1 independent columns and two alive flags,
pres and (when asked for) lie. Codes are little-endian base q, so the codes
below q^w are the vectors supported on the first w basis elements: a width-w
prefix spans their images, and its children append every code outside that
span. phi(t) depends only on the columns in supp(t), so a code t is decided at
the depth l with q^l <= t < q^(l+1) (0 at depth 0): a node there is tested
only against those potents and the Lie pairs whose brackets are decided
there. A node with both flags dead is dropped, and its prod_{i>l}(q^dim - q^i)
completions are counted in closed form; the nodes that reach the last depth
are the preservers and the Lie maps. The frontier is expanded depth first in
chunks of nodes, which keeps the lexicographic order and bounds the working
set.

The results keep an integer count per flag combination, indexed by the flag
bits. A map the search never reaches has pres = lie = 0; how many of those
have idempotent diagonal images follows from the closed-form count of all
such maps in GL.
"""

import itertools
import time
from dataclasses import dataclass

import numpy as np

from ..errors import BudgetExceeded, InternalConsistencyError, UnsupportedField
from ..linmaps import LinMap
from ..potents import (DEFAULT_BUDGET, batch_convolve, cached_potents,
                       check_space_budget, space_digits)
from .gl import gl_order

SWEEP_SPACE_CAP = 4096  # vec_add is space^2 entries; sweeps stay desk-scale


# --- shared tables ---

@dataclass
class SweepTables:
    dim: int
    n: int
    q: int
    space: int
    dig: np.ndarray        # (space, dim) uint8, base-q digits of every code
    vec_add: np.ndarray    # (space, space) int64, codewise vector addition
    vec_smul: np.ndarray   # (q, space) int64, scalar times vector
    basis: np.ndarray      # (dim,) int64, codes of basis vectors


_TABLES_CACHE = {}


def _encode(digit, dim, q):
    """Codes whose digit j is the array ``digit(j)``, summed by Horner one
    digit plane at a time: no array of all the digits is made."""
    out = digit(dim - 1).astype(np.int64)
    for j in range(dim - 2, -1, -1):
        out *= q
        out += digit(j)
    return out


def build_sweep_tables(P, F, budget=DEFAULT_BUDGET):
    """The code tables of I(P, F) that every sweep reads, cached per (P, F)."""
    if not F.is_finite():
        raise UnsupportedField("sweeps need a finite field")
    q, dim = F.q, P.dim
    # refuse before the cache lookup: the cache key has no budget in it
    space = check_space_budget(P, F, budget)
    if space > SWEEP_SPACE_CAP:
        raise BudgetExceeded(
            f"coefficient space {space} exceeds the sweep cap {SWEEP_SPACE_CAP}",
            required=space)
    key = (P, F)
    if key in _TABLES_CACHE:
        return _TABLES_CACHE[key]
    _, dig = space_digits(P, F)
    tab = SweepTables(
        dim, P.n, q, space, dig,
        _encode(lambda j: F.add_np[dig[:, None, j], dig[None, :, j]], dim, q),
        _encode(lambda j: F.mul_np[:, dig[:, j]], dim, q),
        q ** np.arange(dim, dtype=np.int64))
    _TABLES_CACHE[key] = tab
    return tab


def bracket_table(P, F, tab):
    """(space, space) int64 codes of the Lie bracket [f, g] = fg - gf."""
    fg = batch_convolve(tab.dig[:, None, :], tab.dig[None, :, :], P, F)
    neg = F.mul_np[F.neg(F.one)]
    return _encode(lambda j: F.add_np[fg[..., j], neg[fg[..., j].T]],
                   tab.dim, tab.q)


def codes_of_linmap(phi):
    """Column codes of a linear map over a finite field."""
    F = phi.field
    if not F.is_finite():
        raise UnsupportedField("codes are defined over finite fields only")
    q = F.q
    out = []
    for col in phi.cols:
        c = 0
        for v in reversed(col):
            c = c * q + int(v)
        out.append(c)
    return tuple(out)


def linmap_from_codes(P, F, codes):
    q, dim = F.q, P.dim
    cols = []
    for c in codes:
        c = int(c)
        col = []
        for _ in range(dim):
            col.append(c % q)
            c //= q
        cols.append(col)
    return LinMap(P, F, cols)


# --- flags ---

def image_codes(tab, t, cols, rows=Ellipsis):
    """Code of phi(t) for every map phi in ``cols[rows]``. ``cols`` holds
    column codes along its last axis: one map, or a stack of prefixes. A
    prefix of width w serves every ``t`` below q^w, the codes supported on
    the first w basis elements. ``t`` is one code, or an array of codes that
    broadcasts against the selected maps."""
    cols = np.asarray(cols)
    digits = tab.dig[t]
    w = tab.vec_smul[digits[..., 0], cols[rows, 0]]
    for j in range(1, cols.shape[-1]):
        dj = digits[..., j]
        if dj.ndim == 0 and dj == 0:
            continue  # a zero coordinate adds nothing
        w = tab.vec_add[w, tab.vec_smul[dj, cols[rows, j]]]
    return w


def _keep_potents(tab, lookup, cols, alive, codes):
    """The rows of ``alive`` whose map sends every code in ``codes`` into the
    membership table ``lookup``."""
    for t in codes:
        if alive.size == 0:
            break
        alive = alive[lookup[image_codes(tab, t, cols, alive)]]
    return alive


def _keep_brackets(tab, bracket, cols, alive, pairs):
    """The rows of ``alive`` whose map keeps the Lie bracket of every basis
    pair in ``pairs``."""
    for a, b in pairs:
        if alive.size == 0:
            break
        image = image_codes(tab, int(bracket[tab.basis[a], tab.basis[b]]),
                            cols, alive)
        alive = alive[image == bracket[cols[alive, a], cols[alive, b]]]
    return alive


# --- enumeration ---

def _spans(tab, prefixes):
    """(rows, space) bool masks of the spans of the rows of ``prefixes``, a
    (rows, w) array of column codes: the images of the codes below q^w."""
    rows, width = prefixes.shape
    images = (image_codes(tab, np.arange(tab.q ** width), prefixes[:, None])
              if width else np.zeros((rows, 1), dtype=np.int64))  # span {0}
    spans = np.zeros((rows, tab.space), dtype=bool)
    spans[np.arange(rows)[:, None], images] = True
    return spans


def _depths(tab, codes):
    """The depth at which each code is decided: l with q^l <= t < q^(l+1),
    and 0 for t = 0."""
    return np.maximum(np.searchsorted(tab.basis, codes, side="right") - 1, 0)


def _completions(tab):
    """completions[l] = prod_{i>l}(q^dim - q^i): the ways to finish a prefix
    of l + 1 independent columns to a map in GL."""
    out = [1] * tab.dim
    for l in range(tab.dim - 2, -1, -1):
        out[l] = out[l + 1] * (tab.space - tab.q ** (l + 1))
    return out


def _children(tab, prefixes, allowed):
    """Every prefix extended by each ``allowed`` code outside its span: the
    parent row of each child, and the children."""
    rows, cands = np.nonzero(~_spans(tab, prefixes) & allowed)
    return rows, np.concatenate([prefixes[rows], cands[:, None]], axis=1)


def _idempotent_frames(tab, idem):
    """The number of ordered n-tuples of independent codes in the membership
    table ``idem``: the choices for the diagonal columns of a map in GL with
    idempotent diagonal images."""
    frames = np.zeros((1, 0), dtype=np.int64)
    for _ in range(tab.n):
        _, frames = _children(tab, frames, idem)
    return len(frames)


_LEVEL_KEYS = ("visited", "pruned", "passed", "covered")
_CHUNK_CELLS = 1 << 20  # frontier rows x space per expanded chunk


class _Search:
    """One level-pruned search of GL: the constraints decided at each depth,
    the per-level counters, and the leaves found so far."""

    def __init__(self, P, F, tab, pots, want_lie):
        self.tab = tab
        self.want_lie = want_lie
        self.lookup = pots.lookup
        depth = _depths(tab, pots.codes)  # ascending codes keep their order
        self.pots = [pots.codes[depth == l] for l in range(tab.dim)]
        self.pairs = [[] for _ in range(tab.dim)]
        self.bracket = bracket_table(P, F, tab) if want_lie else None
        if want_lie:
            for a, b in itertools.combinations(range(tab.dim), 2):
                code = self.bracket[tab.basis[a], tab.basis[b]]
                self.pairs[max(b, int(_depths(tab, code)))].append((a, b))
        self.completions = _completions(tab)
        self.chunk = max(1, _CHUNK_CELLS // tab.space)
        self.levels = [dict.fromkeys(_LEVEL_KEYS, 0) for _ in range(tab.dim)]
        self.leaves = []  # (maps, flags) pairs; flags[:, 0] pres, [:, 1] lie

    def run(self, lo, hi):
        """Search the maps whose first column code lies in [lo, hi)."""
        first = np.zeros((1, self.tab.space), dtype=bool)
        first[0, lo:hi] = True
        self._expand(0, np.zeros((1, 0), dtype=np.int64),
                     np.array([[True, self.want_lie]]), first)

    def _expand(self, depth, prefixes, alive, allowed=True):
        """Append every ``allowed`` code outside the span of prefix r to it,
        test the constraints decided at ``depth``, drop the nodes with no
        alive flag, and descend into the rest chunk by chunk."""
        tab = self.tab
        rows, cols = _children(tab, prefixes, allowed)
        alive = alive[rows]  # a child starts with its parent's flags
        pres = _keep_potents(tab, self.lookup, cols,
                             np.flatnonzero(alive[:, 0]), self.pots[depth])
        lie = _keep_brackets(tab, self.bracket, cols,
                             np.flatnonzero(alive[:, 1]), self.pairs[depth])
        flags = np.zeros((len(cols), 2), dtype=bool)
        flags[pres, 0] = flags[lie, 1] = True
        keep = np.flatnonzero(flags.any(axis=1))
        level = self.levels[depth]
        level["visited"] += len(cols)
        level["passed"] += len(keep)
        level["pruned"] += len(cols) - len(keep)
        level["covered"] += (len(cols) - len(keep)) * self.completions[depth]
        if depth == tab.dim - 1:
            level["covered"] += len(keep)  # each leaf is one map
            self.leaves.append((cols[keep], flags[keep]))
            return
        for c0 in range(0, len(keep), self.chunk):
            part = keep[c0:c0 + self.chunk]
            self._expand(depth + 1, cols[part], flags[part])


# --- drivers ---

@dataclass
class SweepResult:
    """``flag_counts[i]`` counts the maps whose flag ``FLAGS[b]`` is bit b
    of i."""

    FLAGS = ("pres", "lie", "exidem")

    workers: int
    n_maps: int
    flag_counts: np.ndarray  # Python ints: |GL| outgrows int64 quickly
    preservers: np.ndarray  # (n_pres, dim) column codes, enumeration order
    lie_maps: np.ndarray
    levels: list  # per depth: nodes visited, pruned, passed; maps covered
    elapsed_s: float

    @property
    def counts(self):
        """The flag counts keyed like "pres=1,lie=0,exidem=1"."""
        return {",".join(f"{name}={(i >> b) & 1}"
                         for b, name in enumerate(self.FLAGS)): int(c)
                for i, c in enumerate(self.flag_counts)}


def _split_ranges(lo, hi, parts):
    parts = min(parts, hi - lo)
    step = (hi - lo + parts - 1) // parts
    return [(a, min(a + step, hi)) for a in range(lo, hi, step)]


def _stack(parts, dim):
    return np.concatenate(parts) if parts else np.empty((0, dim), dtype=np.int64)


def sweep_gl(P, F, k, want_lie=False, want_exidem=False, workers=1,
             backend=None, budget=DEFAULT_BUDGET):
    """Search GL(dim, q) for the k-potent preservers (and the Lie maps when
    ``want_lie``), and count every map of GL per flag combination.

    ``levels[l]`` holds the nodes visited, pruned and passed at depth l, and
    the maps covered there: each pruned node's completions, plus one per
    leaf at the last depth. The covered counts sum to n_maps = |GL|.
    ``workers`` >= 1 is the number of first-column ranges, searched one
    after another; the results are the same for every count. ``backend``
    accepts only None or "numpy"."""
    if backend not in (None, "numpy"):
        raise ValueError(f"unknown backend {backend!r}; the sweep runs on numpy")
    if workers < 1:
        raise ValueError(f"workers must be >= 1; got {workers}")
    tab = build_sweep_tables(P, F, budget=budget)
    pots = cached_potents(P, F, k, budget=budget)
    if want_exidem:  # membership of the idempotents, from their own scan
        idem = cached_potents(P, F, 2, budget=budget).lookup
    t0 = time.perf_counter()
    search = _Search(P, F, tab, pots, want_lie)
    ranges = _split_ranges(1, tab.space, workers)
    for lo, hi in ranges:
        search.run(lo, hi)

    cols = _stack([c for c, _ in search.leaves], tab.dim)
    flags = _stack([f for _, f in search.leaves], 2).astype(bool)
    pres, lie = flags[:, 0], flags[:, 1]
    exid = (idem[cols[:, :tab.n]].all(axis=1) if want_exidem
            else np.zeros(len(cols), dtype=bool))
    # one count per leaf at the index whose bits are (pres, lie, exidem)
    leaf_counts = np.bincount(pres | lie << 1 | exid << 2, minlength=8)
    flag_counts = np.array(leaf_counts.tolist(), dtype=object)

    n_maps = sum(level["covered"] for level in search.levels)
    if n_maps != gl_order(tab.dim, tab.q):
        raise InternalConsistencyError(
            "pruned and enumerated maps do not add up to |GL|",
            f"{n_maps} != {gl_order(tab.dim, tab.q)}")
    # maps the search never reached: pres = lie = 0, and exidem = 1 exactly
    # for those of the |E| maps with idempotent diagonal images it missed
    unreached = n_maps - len(cols)
    if want_exidem:
        e_unreached = (_idempotent_frames(tab, idem)
                       * search.completions[tab.n - 1] - int(exid.sum()))
        flag_counts[0b100] += e_unreached
        unreached -= e_unreached
    flag_counts[0] += unreached

    # without want_lie no leaf has its lie flag, so cols[lie] is empty
    return SweepResult(len(ranges), n_maps, flag_counts, cols[pres], cols[lie],
                       search.levels, time.perf_counter() - t0)

