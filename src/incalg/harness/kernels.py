"""Sweep kernels: enumerate GL(dim, q) or the full map space with per-map flags.

Maps are dim-tuples of column codes, code = sum_j coeff_j q^j, reported in
lexicographic order of their columns (first column slowest, candidate codes
ascending). Flags per map:

  preserver  every k-potent code lands on a k-potent code
  lie        brackets of basis pairs are preserved
  circ       Jordan products of basis pairs are preserved (full scan only)
  exidem     the image of every diagonal basis element is idempotent

The sweep is vectorized numpy. It enumerates GL level by level: a frontier
row is a prefix of independent columns with a mask of their span, and the
next level appends every code outside that span. The last level is expanded
in blocks of frontier rows, and each block of complete maps is flagged at
once. Per map flag combination the results keep an integer count, indexed by
the flag bits.
"""

import os
import time
from dataclasses import dataclass

import numpy as np

from ..errors import BudgetExceeded, UnsupportedField
from ..linmaps import LinMap
from ..potents import DEFAULT_BUDGET, batch_convolve, potent_code_tables, space_digits

SWEEP_SPACE_CAP = 4096  # conv table is space^2 entries; sweeps stay desk-scale


def _check_backend(backend):
    if backend not in (None, "numpy"):
        raise ValueError(f"unknown backend {backend!r}; the sweep runs on numpy")


# --- shared tables ---

@dataclass
class SweepTables:
    poset: object
    field: object
    k: int
    dim: int
    n: int
    q: int
    space: int
    dig: np.ndarray        # (space, dim) uint8, base-q digits of every code
    vec_add: np.ndarray    # (space, space) int64, codewise vector addition
    vec_smul: np.ndarray   # (q, space) int64, scalar times vector
    vec_neg: np.ndarray    # (space,) int64
    conv: np.ndarray       # (space, space) int64, codewise convolution
    lie_b: np.ndarray      # (dim, dim) int64, codes of [e_a, e_b]
    circ_b: np.ndarray     # (dim, dim) int64, codes of e_a o e_b
    basis: np.ndarray      # (dim,) int64, codes of basis vectors
    delta_code: int
    pot_codes: np.ndarray  # (npot,) int64, k-potents in code order
    pot_lookup: np.ndarray  # (space,) uint8 membership


_TABLES_CACHE = {}


def _encode(digit_rows, q):
    dim = digit_rows.shape[-1]
    qpow = q ** np.arange(dim, dtype=np.int64)
    return (digit_rows.astype(np.int64) * qpow).sum(axis=-1)


def build_sweep_tables(P, F, k, budget=DEFAULT_BUDGET):
    if not F.is_finite():
        raise UnsupportedField("sweeps need a finite field")
    q, dim = F.q, P.dim
    space = q ** dim
    # refuse before the cache lookup: the cache key has no budget in it
    if space > budget:
        raise BudgetExceeded(
            f"coefficient space has {space} elements, budget is {budget}",
            required=space)
    if space > SWEEP_SPACE_CAP:
        raise BudgetExceeded(
            f"coefficient space {space} exceeds the sweep cap {SWEEP_SPACE_CAP}",
            required=space)
    key = (P, F, k)
    if key in _TABLES_CACHE:
        return _TABLES_CACHE[key]
    pot_codes, _, pot_lookup = potent_code_tables(P, F, k, budget=budget)
    _, dig = space_digits(P, F)

    add_np, mul_np = F.add_np, F.mul_np
    vec_add = _encode(add_np[dig[:, None, :], dig[None, :, :]], q)
    vec_smul = np.stack([_encode(mul_np[c, dig], q) for c in range(q)])
    neg_t = np.array([F.neg(c) for c in range(q)], dtype=np.uint8)
    vec_neg = _encode(neg_t[dig], q)

    rep = np.repeat(np.arange(space, dtype=np.int64), space)
    til = np.tile(np.arange(space, dtype=np.int64), space)
    conv = _encode(batch_convolve(dig[rep], dig[til], P, F), q).reshape(space, space)

    basis = q ** np.arange(dim, dtype=np.int64)
    lie_b = np.zeros((dim, dim), dtype=np.int64)
    circ_b = np.zeros((dim, dim), dtype=np.int64)
    for a in range(dim):
        for b in range(dim):
            ab = conv[basis[a], basis[b]]
            ba = conv[basis[b], basis[a]]
            lie_b[a, b] = vec_add[ab, vec_neg[ba]]
            circ_b[a, b] = vec_add[ab, ba]
    delta_code = int(basis[:P.n].sum())

    tab = SweepTables(P, F, k, dim, P.n, q, space, dig, vec_add, vec_smul,
                      vec_neg, conv, lie_b, circ_b, basis, delta_code,
                      pot_codes, pot_lookup.astype(np.uint8))
    _TABLES_CACHE[key] = tab
    return tab


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
    """Code of phi(t) for every map phi in ``cols[rows]``. ``cols`` is a
    (maps, dim) array of column codes, or the dim column codes of one map;
    ``t`` is one code, or an array of codes that broadcasts against the
    selected maps."""
    cols = np.asarray(cols)
    digits = tab.dig[t]
    w = tab.vec_smul[digits[..., 0], cols[rows, 0]]
    for j in range(1, tab.dim):
        dj = digits[..., j]
        if dj.ndim == 0 and dj == 0:
            continue  # a zero coordinate adds nothing
        w = tab.vec_add[w, tab.vec_smul[dj, cols[rows, j]]]
    return w


def _preserves_potents(tab, cols):
    pres = np.zeros(len(cols), dtype=bool)
    alive = np.arange(len(cols))
    for t in tab.pot_codes:
        if alive.size == 0:
            break
        alive = alive[tab.pot_lookup[image_codes(tab, t, cols, alive)] != 0]
    pres[alive] = True
    return pres


def _keeps_products(tab, cols, lie):
    """True where phi keeps the product of every pair of basis elements: the
    Lie bracket xy - yx (pairs a < b) when ``lie``, else the Jordan product
    xy + yx (pairs a <= b)."""
    prod_b = tab.lie_b if lie else tab.circ_b
    keep = np.zeros(len(cols), dtype=bool)
    alive = np.arange(len(cols))
    for a in range(tab.dim):
        for b in range(a + 1 if lie else a, tab.dim):
            if alive.size == 0:
                break
            ca, cb = cols[alive, a], cols[alive, b]
            ba = tab.conv[cb, ca]
            rhs = tab.vec_add[tab.conv[ca, cb], tab.vec_neg[ba] if lie else ba]
            image = image_codes(tab, int(prod_b[a, b]), cols, alive)
            alive = alive[image == rhs]
    keep[alive] = True
    return keep


def _idempotent_diagonal(tab, cols):
    exid = np.ones(len(cols), dtype=bool)
    for x in range(tab.n):
        cx = cols[:, x]
        exid &= tab.conv[cx, cx] == cx
    return exid


def _tally(flag_counts, *flags):
    """Add one count per map at the index whose bit i is flags[i]."""
    idx = sum(f.astype(np.uint8) << i for i, f in enumerate(flags))
    flag_counts += np.bincount(idx, minlength=flag_counts.size)


# --- enumeration ---

def _grow_spans(tab, spans, cands):
    """Span masks after appending column ``cands[r]`` to row r."""
    arange_sp = np.arange(tab.space, dtype=np.int64)
    grown = spans.copy()
    for cc in range(1, tab.q):
        shift = tab.vec_neg[tab.vec_smul[cc, cands]]
        idx = tab.vec_add[shift[:, None], arange_sp[None, :]]
        grown |= np.take_along_axis(spans, idx, axis=1)
    return grown


def _gl_blocks(tab, lo, hi):
    """Blocks of the maps in GL whose first column code lies in [lo, hi), in
    lexicographic order, each a (maps, dim) array of column codes."""
    first = np.zeros(tab.space, dtype=bool)
    first[max(lo, 1):hi] = True
    prefixes = np.zeros((1, 0), dtype=np.int64)
    spans = np.zeros((1, tab.space), dtype=bool)
    spans[0, 0] = True  # the span of no columns
    # level 0 confines the first column to [lo, hi)
    for level in range(tab.dim - 1):
        rows, cands = np.nonzero(~spans & first if level == 0 else ~spans)
        prefixes = np.concatenate([prefixes[rows], cands[:, None]], axis=1)
        spans = _grow_spans(tab, spans[rows], cands)

    block = max(1, (1 << 21) // tab.space)
    for p0 in range(0, prefixes.shape[0], block):
        free = ~spans[p0:p0 + block]
        rows, cands = np.nonzero(free & first if tab.dim == 1 else free)
        yield np.concatenate([prefixes[p0 + rows], cands[:, None]], axis=1)


def _full_blocks(tab, lo, hi):
    """Blocks of the maps with map code in [lo, hi), map code = sum_j
    cols[j] space^j, with an invertibility flag per map."""
    space, dim = tab.space, tab.dim
    block = 1 << 16
    one = np.uint64(1)
    for b0 in range(lo, hi, block):
        mcodes = np.arange(b0, min(b0 + block, hi), dtype=np.int64)
        M = mcodes.size
        cols = np.empty((M, dim), dtype=np.int64)
        mm = mcodes.copy()
        for j in range(dim):
            cols[:, j] = mm % space
            mm //= space
        # invertibility by span bitmask (space <= 64 by construction)
        bits = np.full(M, one, dtype=np.uint64)  # span of no columns: {0}
        bij = np.ones(M, dtype=bool)
        for j in range(dim):
            cj = cols[:, j]
            bij &= (bits >> cj.astype(np.uint64)) & one == 0
            grown = bits.copy()
            for cc in range(1, tab.q):
                # shift the span set by cc*col: bit v of the shifted mask is
                # bit (v - cc*col) of the old mask; walk v through the add table
                shifted = np.zeros(M, dtype=np.uint64)
                for v in range(space):
                    has = (bits >> np.uint64(v)) & one == 1
                    tgt = tab.vec_add[v, tab.vec_smul[cc, cj]].astype(np.uint64)
                    shifted |= np.where(has, one << tgt, np.uint64(0))
                grown |= shifted
            bits = grown
        yield cols, bij


# --- drivers ---

class _FlagCounts:
    """Counts per flag combination: ``flag_counts[i]`` counts the maps whose
    flag ``FLAGS[b]`` is bit b of i."""

    FLAGS = ()

    def flag(self, name):
        """Value (0 or 1) of flag ``name`` at each index of flag_counts."""
        return (np.arange(self.flag_counts.size) >> self.FLAGS.index(name)) & 1

    @property
    def counts(self):
        """The flag counts keyed like "pres=1,lie=0,exidem=1"."""
        return {",".join(f"{name}={(i >> b) & 1}"
                         for b, name in enumerate(self.FLAGS)): int(c)
                for i, c in enumerate(self.flag_counts)}


@dataclass
class SweepResult(_FlagCounts):
    FLAGS = ("pres", "lie", "exidem")

    workers: int
    n_maps: int
    flag_counts: np.ndarray
    preservers: np.ndarray  # (n_pres, dim) column codes, enumeration order
    lie_maps: np.ndarray
    mismatches: np.ndarray
    elapsed_s: float


@dataclass
class FullScanResult(_FlagCounts):
    FLAGS = ("bij", "pres", "circ", "exidem")

    workers: int
    n_maps: int
    flag_counts: np.ndarray
    preservers: np.ndarray
    elapsed_s: float


def _split_ranges(lo, hi, parts):
    parts = max(1, min(parts, hi - lo))
    step = (hi - lo + parts - 1) // parts
    return [(a, min(a + step, hi)) for a in range(lo, hi, step)]


def _stack(parts, dim):
    return np.concatenate(parts) if parts else np.empty((0, dim), dtype=np.int64)


def _sweep_range(tab, lo, hi, want_lie, want_exidem, flag_counts, out):
    """Flag the maps in GL whose first column code lies in [lo, hi): add
    their flag counts to ``flag_counts`` and append their preserver, Lie and
    mismatch rows to the three lists in ``out``. A call per range frees the
    range's last block before the next range builds its frontier."""
    pres_parts, lie_parts, mism_parts = out
    for cols in _gl_blocks(tab, lo, hi):
        off = np.zeros(len(cols), dtype=bool)
        pres = _preserves_potents(tab, cols)
        lie = _keeps_products(tab, cols, lie=True) if want_lie else off
        exid = _idempotent_diagonal(tab, cols) if want_exidem else off
        _tally(flag_counts, pres, lie, exid)
        pres_parts.append(cols[pres])
        if want_lie:
            lie_parts.append(cols[lie])
        if want_lie and want_exidem:
            mism_parts.append(cols[pres != (lie & exid)])


def sweep_gl(P, F, k, want_lie=False, want_exidem=False, workers=None,
             backend=None, budget=DEFAULT_BUDGET):
    """Enumerate GL(dim, q) and flag every map.

    ``workers`` is the number of first-column ranges, swept one after
    another; more ranges keep a smaller frontier in memory at a time. The
    results are the same for every count. ``backend`` accepts only None or
    "numpy"."""
    _check_backend(backend)
    tab = build_sweep_tables(P, F, k, budget=budget)
    if workers is None:
        workers = os.cpu_count() or 1
    ranges = _split_ranges(1, tab.space, workers)
    t0 = time.perf_counter()

    flag_counts = np.zeros(8, dtype=np.int64)
    out = ([], [], [])
    for lo, hi in ranges:
        _sweep_range(tab, lo, hi, want_lie, want_exidem, flag_counts, out)
    pres, lie, mism = (_stack(parts, tab.dim) for parts in out)
    return SweepResult(len(ranges), int(flag_counts.sum()), flag_counts,
                       pres, lie, mism, time.perf_counter() - t0)


FULL_SCAN_CAP = 1 << 20


def full_scan(P, F, k, want_circ=True, want_exidem=False, workers=None,
              backend=None, budget=DEFAULT_BUDGET):
    """Flag every linear map (not only the bijective ones). The map space is
    space^dim, so this stays confined to very small instances. ``workers``
    is the number of map-code ranges, swept one after another."""
    _check_backend(backend)
    tab = build_sweep_tables(P, F, k, budget=budget)
    total = tab.space ** tab.dim
    if total > FULL_SCAN_CAP:
        raise BudgetExceeded(
            f"full map space has {total} elements, cap is {FULL_SCAN_CAP}",
            required=total)
    if tab.space > 64:
        # spans are tracked in a 64-bit mask
        raise BudgetExceeded(f"full scan supports space <= 64, got {tab.space}")
    if workers is None:
        workers = os.cpu_count() or 1
    ranges = _split_ranges(0, total, workers)
    t0 = time.perf_counter()

    flag_counts = np.zeros(16, dtype=np.int64)
    pres_parts = []
    for lo, hi in ranges:
        for cols, bij in _full_blocks(tab, lo, hi):
            off = np.zeros(len(cols), dtype=bool)
            pres = _preserves_potents(tab, cols)
            circ = _keeps_products(tab, cols, lie=False) if want_circ else off
            exid = _idempotent_diagonal(tab, cols) if want_exidem else off
            _tally(flag_counts, bij, pres, circ, exid)
            pres_parts.append(cols[pres])
    return FullScanResult(len(ranges), int(flag_counts.sum()), flag_counts,
                          _stack(pres_parts, tab.dim), time.perf_counter() - t0)
