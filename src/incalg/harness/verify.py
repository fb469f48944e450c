"""Exhaustive verification of the classification statements at desk scale.

Every statement is checked by one recipe: search all bijective maps on
I(X, F) (a pruned subtree is counted, not visited), collect the k-potent
preservers, rebuild the family the statement predicts, and compare the two
as sets of column-code tuples. On a mismatch the first few maps of the
symmetric difference, in enumeration order, are named as witnesses. A
handful of preservers are then pushed through ``classify_preserver`` as a
spot check; each sample records the certificates it reports. Which statement
applies to (F, k) is decided by ``classify.regime_of``; a row of
``_STATEMENTS`` holds what differs between the statements: the fixed k, the
regimes covered, the sweep flags and the family. Reports never raise on
mismatch; the caller reads the match flag.

The sweep, the family builders and ``classify_preserver`` are called through
this module's global names at call time, so a wrapper installed on those
names sees every call.
"""

from dataclasses import asdict, dataclass

import numpy as np

from ..classify import classify_preserver, regime_of
from ..errors import DisconnectedPoset, IncalgError
from ..poset import is_connected
from ..potents import cached_potents
from .families import bijective_shifts, jordan_like_maps, scaled_maps
from .kernels import codes_of_linmap, image_codes, linmap_from_codes, sweep_gl

SPOT_DEFAULT = 24


@dataclass
class SweepReport:
    """A verify run; the fields are declared in the order the JSON lists
    them."""
    theorem: str
    poset: dict
    field: str
    k: int
    workers: int
    maps_swept: int
    counts: dict
    levels: list
    preserver_count: int
    family_count: int
    match: bool
    elapsed_s: float
    samples: list
    notes: list

    def to_jsonable(self):
        return {**asdict(self), "elapsed_s": round(self.elapsed_s, 3)}


def describe_poset(P):
    return {"labels": list(P.labels),
            "relations": [list(e) for e in P.hasse_edges]}


def _rows_to_set(rows):
    return {tuple(int(v) for v in row) for row in rows}


def _spot_indices(n, spot):
    if n <= spot:
        return list(range(n))
    if spot == 0:
        return []
    step = n // spot
    return [i * step for i in range(spot)]


# --- predicted families: (set of column-code tuples, notes) ---

def _shift_lie_family(P, F, k, res):
    tab = res.tables
    everything = np.arange(tab.space)
    shifts = bijective_shifts(P, F)
    fam = set()
    for s in shifts:
        action = image_codes(tab, everything, codes_of_linmap(s))
        fam.update(map(tuple, action[res.lie_maps].tolist()))
    return fam, [f"{len(shifts)} bijective shifts, "
                 f"{res.lie_maps.shape[0]} bijective Lie endomorphisms"]


def _scaled_family(P, F, k, res):
    fam_maps = scaled_maps(jordan_like_maps(P, F).values(), F, k)
    return {codes_of_linmap(m) for m in fam_maps.values()}, []


def _lie_idempotent_family(P, F, k, res):
    """The swept Lie maps whose diagonal basis images are idempotent."""
    idem = cached_potents(P, F, 2).lookup
    lie = res.lie_maps
    fam = _rows_to_set(lie[idem[lie[:, :P.n]].all(axis=1)])
    differ = len(_rows_to_set(res.preservers) ^ fam)
    return fam, [f"{differ} maps where preserving and "
                 "(Lie and idempotent images) disagree"]


@dataclass(frozen=True)
class _Statement:
    k: int | None       # fixed potency degree; None: the caller gives k
    regimes: tuple      # the values of classify.regime_of it covers
    want_lie: bool      # sweep flags
    want_exidem: bool
    family: object      # family(P, F, k, res) -> (codes set, notes)


_STATEMENTS = {
    "z2": _Statement(2, ("z2",), True, False, _shift_lie_family),
    "char-ne-2": _Statement(2, ("char-ne-2",), False, False, _scaled_family),
    "char-2-big": _Statement(2, ("char-2-big",), True, True,
                             _lie_idempotent_family),
    "tripotent": _Statement(3, ("tripotent",), False, False, _scaled_family),
    "kpotent": _Statement(None, ("tripotent", "kpotent"), False, False,
                          _scaled_family),
}
THEOREMS = tuple(_STATEMENTS)


def verify_theorem(theorem, P, F, k=None, workers=1, backend=None,
                   spot=SPOT_DEFAULT):
    if spot < 0:
        raise ValueError(f"spot must be >= 0; got {spot}")
    if theorem not in _STATEMENTS:
        raise ValueError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    st = _STATEMENTS[theorem]
    if st.k is not None and k not in (None, st.k):
        raise ValueError(f"{theorem!r} fixes k = {st.k}; got k = {k}")
    k = st.k or k
    if k is None:
        raise ValueError("kpotent verification needs an explicit k")
    regime = regime_of(F, k)
    if regime not in st.regimes:
        raise ValueError(f"{theorem!r} does not cover {F!r} with k = {k}, "
                         f"which is the {regime!r} regime")
    if not is_connected(P):
        raise DisconnectedPoset("the classification needs a connected poset")

    res = sweep_gl(P, F, k, want_lie=st.want_lie, want_exidem=st.want_exidem,
                   workers=workers, backend=backend)
    preservers = _rows_to_set(res.preservers)
    fam, notes = st.family(P, F, k, res)
    match = preservers == fam
    # the first witnesses in the sweep's enumeration order: sorted code tuples
    notes = [f"mismatch witness: {list(codes)}"
             for codes in sorted(preservers ^ fam)[:8]] + notes

    samples = []
    for i in _spot_indices(res.preservers.shape[0], spot):
        codes = tuple(int(v) for v in res.preservers[i])
        rec = {"map": list(codes)}
        try:
            rep = classify_preserver(linmap_from_codes(P, F, codes), k)
            rec.update(ok=True, certificates=rep.certificates)
        except IncalgError as e:
            rec.update(ok=False, error=f"{type(e).__name__}: {e}")
        match = match and rec["ok"]
        samples.append(rec)
    return SweepReport(theorem, describe_poset(P), F.flag(), k, res.workers,
                       res.n_maps, res.counts, res.levels, len(preservers),
                       len(fam), match, res.elapsed_s, samples, notes)
