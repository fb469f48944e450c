"""Exhaustive verification of the classification statements at desk scale.

Every statement is checked by one recipe: search all bijective maps on
I(X, F) (a pruned subtree is counted, not visited), collect the k-potent
preservers, rebuild the family the statement predicts from its published
ingredients, and compare the two as sets of column-code tuples (or, for Lie
maps with idempotent diagonal images, compare the sweep's flags map by map).
A handful of preservers are then pushed through the constructive
factorization as a spot check. What differs between the statements is one row
of ``_STATEMENTS``. Reports never raise on mismatch; the caller reads the
match flag.

The rows call the sweep, the family builders and the decomposers through
this module's global names at call time, so a wrapper installed on those
names sees every call.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..algebra import is_k_potent
from ..classify import jordan_decompose, scalar_split, z2_decompose
from ..errors import IncalgError
from ..field import primitive_root_of_unity
from ..linmaps import identity_map, is_lie_homomorphism
from ..potents import DEFAULT_BUDGET
from .families import bijective_shifts, jordan_like_maps, scaled_maps
from .kernels import (build_sweep_tables, codes_of_linmap, image_codes,
                      linmap_from_codes, sweep_gl)

SPOT_DEFAULT = 24


@dataclass
class SweepReport:
    theorem: str
    poset: dict
    field: str
    k: int
    workers: int
    n_maps: int
    counts: dict
    preserver_count: int
    family_count: int
    match: bool
    elapsed_s: float
    levels: list
    samples: list = dc_field(default_factory=list)
    notes: list = dc_field(default_factory=list)

    def to_jsonable(self):
        return {
            "theorem": self.theorem,
            "poset": self.poset,
            "field": self.field,
            "k": self.k,
            "workers": self.workers,
            "maps_swept": self.n_maps,
            "counts": self.counts,
            "levels": self.levels,
            "preserver_count": self.preserver_count,
            "family_count": self.family_count,
            "match": self.match,
            "elapsed_s": round(self.elapsed_s, 3),
            "samples": self.samples,
            "notes": self.notes,
        }


def describe_poset(P):
    return {"labels": list(P.labels),
            "relations": [list(e) for e in P.hasse_edges]}


def _rows_to_set(rows):
    return {tuple(int(v) for v in row) for row in rows}


def _spot_indices(n, spot):
    if n <= spot:
        return list(range(n))
    step = n // spot
    return [i * step for i in range(spot)]


# --- field preconditions: raise ValueError outside the statement's regime ---

def _need_gf2(F, k):
    if not (F.is_finite() and F.q == 2):
        raise ValueError("the shift-and-Lie statement is specific to the "
                         "two-element field")


def _need_char_ne_2(F, k):
    if F.char == 2:
        raise ValueError("this statement needs characteristic != 2")


def _need_big_char_2(F, k):
    if not (F.is_finite() and F.char == 2 and F.q > 2):
        raise ValueError("this statement needs characteristic 2 with "
                         "more than two elements")


def _need_scalar_split(F, k):
    if k < 3:
        raise ValueError("scalar-split statements start at k = 3")
    if F.char != 0 and k % F.char == 0:
        raise ValueError(f"characteristic {F.char} divides k = {k}")
    primitive_root_of_unity(F, k - 1)  # raises NoPrimitiveRoot if absent


# --- predicted families: (set of column-code tuples, notes) ---

def _shift_lie_family(P, F, k, res, budget):
    tab = build_sweep_tables(P, F, k, budget=budget)
    everything = np.arange(tab.space)
    shifts = bijective_shifts(P, F)
    fam = set()
    for s in shifts:
        action = image_codes(tab, everything, codes_of_linmap(s))
        fam.update(map(tuple, action[res.lie_maps].tolist()))
    return fam, [f"{len(shifts)} bijective shifts, "
                 f"{res.lie_maps.shape[0]} bijective Lie endomorphisms"]


def _jordan_family(P, F, k, res, budget):
    return {codes_of_linmap(m) for m in jordan_like_maps(P, F).values()}, []


def _scaled_family(P, F, k, res, budget):
    fam_maps = scaled_maps(jordan_like_maps(P, F).values(), F, k)
    return {codes_of_linmap(m) for m in fam_maps.values()}, []


def _lie_idempotent_flags(res):
    """Compare preserving with (Lie and idempotent diagonal images) on every
    swept map. Returns (maps with both, match, notes)."""
    pres = res.flag("pres")
    predicted = res.flag("lie") & res.flag("exidem")
    mismatches = int(res.flag_counts[pres != predicted].sum())
    agree = int(res.flag_counts[(pres & predicted) == 1].sum())
    notes = [f"mismatch witness: {list(int(v) for v in row)}"
             for row in res.mismatches[:8]]
    notes.append(f"{mismatches} maps where preserving and "
                 "(Lie and idempotent images) disagree")
    return agree, mismatches == 0, notes


# --- spot checks: the fields of one sample record, "ok" among them ---

def _spot_z2(phi, k, budget):
    fact = z2_decompose(phi, budget=budget)
    return {"ok": True,
            "shift_is_identity": fact.shift == identity_map(phi.poset,
                                                            phi.field)}


def _spot_jordan(phi, k, budget):
    return {"ok": True, "kind": jordan_decompose(phi).order_map.kind}


def _spot_lie_idempotent(phi, k, budget):
    lie = bool(is_lie_homomorphism(phi))
    exid = all(is_k_potent(phi.image(j), 2) for j in range(phi.poset.n))
    return {"lie": lie, "exidem": exid, "ok": lie and exid}


def _spot_scalar_split(phi, k, budget):
    split = scalar_split(phi, k, budget=budget)
    return {"ok": True, "r": phi.field.format(split.r.value),
            "kind": split.psi_kind}


@dataclass(frozen=True)
class _Statement:
    k: int | None       # fixed potency degree; None: the caller gives k
    require: object     # require(F, k): the field precondition
    want_lie: bool      # sweep flags
    want_exidem: bool
    family: object      # family(P, F, k, res, budget); None compares flags
    spot: object        # spot(phi, k, budget): the fields of one sample


_STATEMENTS = {
    "z2": _Statement(2, _need_gf2, True, False, _shift_lie_family, _spot_z2),
    "char-ne-2": _Statement(2, _need_char_ne_2, False, False, _jordan_family,
                            _spot_jordan),
    "char-2-big": _Statement(2, _need_big_char_2, True, True, None,
                             _spot_lie_idempotent),
    "tripotent": _Statement(3, _need_scalar_split, False, False,
                            _scaled_family, _spot_scalar_split),
    "kpotent": _Statement(None, _need_scalar_split, False, False,
                          _scaled_family, _spot_scalar_split),
}
THEOREMS = tuple(_STATEMENTS)


def verify_theorem(theorem, P, F, k=None, workers=1, backend=None,
                   budget=DEFAULT_BUDGET, spot=SPOT_DEFAULT):
    if theorem not in _STATEMENTS:
        raise ValueError(f"unknown theorem {theorem!r}; choose from {THEOREMS}")
    st = _STATEMENTS[theorem]
    k = st.k or k
    if k is None:
        raise ValueError("kpotent verification needs an explicit k")
    st.require(F, k)

    res = sweep_gl(P, F, k, want_lie=st.want_lie, want_exidem=st.want_exidem,
                   workers=workers, backend=backend, budget=budget)
    preservers = _rows_to_set(res.preservers)
    if st.family is None:
        family_count, match, notes = _lie_idempotent_flags(res)
    else:
        fam, notes = st.family(P, F, k, res, budget)
        family_count, match = len(fam), preservers == fam

    samples = []
    for i in _spot_indices(res.preservers.shape[0], spot):
        codes = tuple(int(v) for v in res.preservers[i])
        rec = {"map": list(codes)}
        try:
            rec.update(st.spot(linmap_from_codes(P, F, codes), k, budget))
        except IncalgError as e:
            rec.update(ok=False, error=f"{type(e).__name__}: {e}")
        match = match and rec["ok"]
        samples.append(rec)
    return SweepReport(theorem, describe_poset(P), F.flag(), k, res.workers,
                       res.n_maps, res.counts, len(preservers), family_count,
                       match, res.elapsed_s, res.levels, samples, notes)
