"""Command line front end.

Exit codes: 0 when the requested check or construction succeeded, 1 when a
mathematical claim failed (a verification mismatch, a map outside the
classified family, an element without the requested decomposition), 2 when
the request was refused. ``main`` alone maps errors to codes: one in
``REFUSALS`` exits 2, any other ``IncalgError`` exits 1, and both print
``{"error", "message"}`` JSON on stdout. A reader that closes stdout early
does not change the exit code.
"""

import argparse
import json
import os
import pathlib
import sys

from .algebra import diagonal_part, from_triples
from .classify import classify_preserver
from .errors import (BudgetExceeded, CycleError, DimensionMismatch,
                     DisconnectedPoset, EmptyPoset, IncalgError,
                     IncomparablePair, NoPrimitiveRoot, StructureMismatch,
                     UnknownLabel, UnsupportedField)
from .field import field_from_flag
from .harness.demos import DEMO_NAMES, run_all_demos, run_demo
from .harness.verify import (SPOT_DEFAULT, THEOREMS, describe_poset,
                             verify_theorem)
from .linmaps import parse_linmap
from .poset import antichain, chain, parse_poset
from .potents import (conjugate_to_diagonal, enumerate_k_potents,
                      spectral_decompose)

# the errors that refuse a request (exit 2): the input errors of reading
# --poset, --field, --map and --element, then the unsupported and the
# oversized; ValueError covers UnsupportedRegime and bad JSON, and OSError a
# missing or unreadable file
REFUSALS = (EmptyPoset, CycleError, UnknownLabel, IncomparablePair,
            StructureMismatch, DimensionMismatch, UnsupportedField,
            NoPrimitiveRoot, DisconnectedPoset, BudgetExceeded, ValueError,
            OSError)


def _is_literal(spec):
    # blank, JSON or multi-line text is content, never a path: "" would open
    # the working directory, and a long literal is no valid file name
    return (not spec.strip() or "\n" in spec
            or spec.lstrip().startswith(("{", "[")))


def _load_poset(spec):
    if spec.startswith("chain:"):
        return chain(int(spec.split(":", 1)[1]))
    if spec.startswith("antichain:"):
        return antichain(int(spec.split(":", 1)[1]))
    if _is_literal(spec) or spec.strip().isdigit():
        return parse_poset(spec)
    path = pathlib.Path(spec)
    if not path.exists():
        raise FileNotFoundError(f"poset file {spec!r} not found")
    return parse_poset(path.read_text())


def _read_source(path):
    if path == "-":
        return sys.stdin.read()
    if _is_literal(path):
        return path
    return pathlib.Path(path).read_text()


def _emit(obj):
    try:
        json.dump(obj, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): the exit code still
        # reports the outcome, and stdout now points at devnull so the flush
        # at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _fail(e, code):
    out = {"error": type(e).__name__, "message": str(e)}
    if hasattr(e, "claims"):
        out["claims"] = e.claims
    _emit(out)
    return code


def cmd_verify(args):
    P = _load_poset(args.poset)
    F = field_from_flag(args.field)
    report = verify_theorem(args.theorem, P, F, k=args.k,
                            workers=args.workers, backend=args.backend,
                            spot=args.spot)
    _emit(report.to_jsonable())
    return 0 if report.match else 1


def cmd_decompose(args):
    P = _load_poset(args.poset)
    F = field_from_flag(args.field)
    phi = parse_linmap(P, F, _read_source(args.map))
    report = classify_preserver(phi, args.k)
    _emit(report.to_jsonable())
    return 0


def cmd_spectral(args):
    P = _load_poset(args.poset)
    F = field_from_flag(args.field)
    triples = json.loads(_read_source(args.element))
    if not isinstance(triples, list):
        raise ValueError("--element must be a JSON list of [x, y, value] triples")
    f = from_triples(P, F, triples)
    spec = spectral_decompose(f, args.k)
    sigma = conjugate_to_diagonal(f, args.k)
    _emit({
        "k": args.k,
        "field": F.flag(),
        "element": f.to_jsonable(),
        "epsilon": F.format(spec.epsilon),
        "idempotents": [b.to_jsonable() for b in spec.idempotents],
        "conjugator": sigma.to_jsonable(),
        "diagonal_form": diagonal_part(f).to_jsonable(),
    })
    return 0


def cmd_demo(args):
    _emit(run_all_demos() if args.name == "all" else run_demo(args.name))
    return 0


def cmd_enumerate_potents(args):
    P = _load_poset(args.poset)
    F = field_from_flag(args.field)
    elems = enumerate_k_potents(P, F, args.k)
    out = {"poset": describe_poset(P), "field": F.flag(),
           "k": args.k, "count": len(elems)}
    if not args.count_only:
        out["elements"] = [f.to_jsonable() for f in elems]
    _emit(out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="incalg",
        description="exact incidence-algebra arithmetic and exhaustive "
                    "verification of potent-preserver factorizations")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--poset", required=True,
                       help="file, literal text/JSON, or chain:N / antichain:N")
        p.add_argument("--field", required=True,
                       help="field flag: a prime power like 2, 3, 4, or Q")

    p = sub.add_parser("verify", help="sweep every bijective map and compare "
                                      "the preservers with the predicted family")
    add_common(p)
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--k", type=int, default=None,
                   help="potency degree (kpotent only; the other theorems "
                        "fix it and refuse a different one)")
    p.add_argument("--workers", type=int, default=1,
                   help="number of first-column ranges, searched one after "
                        "another (default: 1)")
    p.add_argument("--backend", choices=("numpy",), default=None)
    p.add_argument("--spot", type=int, default=SPOT_DEFAULT,
                   help="how many preservers to push through the factorization")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", help="factor one map through the "
                                         "classification pipelines")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--map", default="-",
                   help="map file (header 'field dim', one line per column); "
                        "- reads stdin")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("spectral", help="split a k-potent into orthogonal "
                                        "idempotents and diagonalize it")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--element", default="-",
                   help="JSON list of [x, y, value] triples, inline or a "
                        "file; - reads stdin")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("demo", help="run a worked demonstration")
    p.add_argument("name", choices=DEMO_NAMES + ("all",))
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("enumerate-potents", help="list every k-potent element")
    add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_enumerate_potents)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except REFUSALS as e:
        return _fail(e, 2)
    except IncalgError as e:
        return _fail(e, 1)


if __name__ == "__main__":
    sys.exit(main())
