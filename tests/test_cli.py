"""The command-line surface: exit codes and JSON shapes."""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import incalg
import incalg.cli as cli
import incalg.harness.kernels as kernels
import incalg.harness.verify as verify
import incalg.poset
from incalg import potents
from incalg.algebra import conjugate, from_triples
from incalg.cli import main
from incalg.errors import (BudgetExceeded, ClaimFailed, CycleError,
                           DimensionMismatch, DisconnectedPoset, EmptyPoset,
                           IncalgError, IncomparablePair,
                           InternalConsistencyError, NoPrimitiveRoot,
                           NotKPotent, RecompositionMismatch,
                           StructureMismatch, UnknownLabel, UnsupportedField)
from incalg.field import GF
from incalg.poset import chain

from toolkit import forbid_digit_arrays

IDENTITY_MAP_GF5 = "5 3\n1 0 0\n0 1 0\n0 0 1\n"
DOUBLED_MAP_GF5 = "5 3\n2 0 0\n0 2 0\n0 0 2\n"
DOUBLED_MAP_GF7 = "7 3\n2 0 0\n0 2 0\n0 0 2\n"
NEGATED_MAP_Q = "Q 3\n-1 0 0\n0 -1 0\n0 0 -1\n"

# child interpreters import the incalg these tests import, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(pathlib.Path(incalg.__file__).parents[1]),
    os.environ.get("PYTHONPATH")]))}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_verify_match_exits_zero(capsys):
    code, out = run(capsys, "verify", "--poset", "chain:2", "--field", "3",
                    "--theorem", "char-ne-2")
    assert code == 0
    assert out["match"] is True
    assert out["maps_swept"] == 11_232
    assert out["preserver_count"] == out["family_count"] == 12
    assert all(s["ok"] for s in out["samples"])


def test_verify_rejects_wrong_field_for_theorem(capsys):
    code, out = run(capsys, "verify", "--poset", "chain:2", "--field", "3",
                    "--theorem", "z2")
    assert code == 2
    assert "error" in out


@pytest.mark.parametrize("theorem,q", [("char-ne-2", 3), ("z2", 2),
                                        ("char-2-big", 4)])
def test_verify_refuses_disconnected_poset(capsys, theorem, q):
    # the classification assumes X connected; an antichain is a usage error,
    # not a failed claim
    code, out = run(capsys, "verify", "--poset", "antichain:2", "--field",
                    str(q), "--theorem", theorem)
    assert code == 2
    assert out["error"] == "DisconnectedPoset"


def test_verify_budget_exit(capsys):
    code, out = run(capsys, "verify", "--poset", "chain:3", "--field", "7",
                    "--theorem", "char-ne-2")
    assert code == 2
    assert out["error"] == "BudgetExceeded"


def test_verify_has_no_budget_option(capsys):
    # the sweep cap is verify's only size limit; a --budget could only lower
    # it, so there is none
    with pytest.raises(SystemExit) as ei:
        main(["verify", "--poset", "chain:2", "--field", "3", "--theorem",
              "char-ne-2", "--budget", "10"])
    assert ei.value.code == 2


def test_verify_has_no_spot_option(capsys):
    # the spot check factors a fixed SPOT_SAMPLES preservers, part of the
    # recipe like the sweep cap
    with pytest.raises(SystemExit) as ei:
        main(["verify", "--poset", "chain:2", "--field", "3", "--theorem",
              "char-ne-2", "--spot", "4"])
    assert ei.value.code == 2


@pytest.mark.parametrize("argv", [
    ("enumerate-potents", "--poset", "chain:128", "--field", "2", "--k", "2"),
    ("verify", "--poset", "chain:128", "--field", "2", "--theorem", "z2"),
], ids=["enumerate-potents", "verify"])
def test_space_refusal_writes_a_long_space_as_a_power(capsys, monkeypatch,
                                                       argv):
    # 2^8256 has 2,486 digits; the refusal names the power instead
    forbid_digit_arrays(monkeypatch)
    code, out = run(capsys, *argv)
    assert code == 2 and out["error"] == "BudgetExceeded"
    assert "2^8256" in out["message"] and len(out["message"]) < 200


VEE_TEXT = "3\n1<2\n1<3"


@pytest.mark.parametrize("argv,flags,cells", [
    # one flag: no Lie lane runs and exidem is never asked for
    (("chain:2", "--field", "7", "--theorem", "kpotent", "--k", "4"),
     ("pres",), [33_783_876, 252]),
    (("chain:2", "--field", "3", "--theorem", "char-ne-2"),
     ("pres",), [11_220, 12]),
    # two flags: the Lie lane runs beside the potent lane
    ((VEE_TEXT, "--field", "2", "--theorem", "z2"),
     ("pres", "lie"), [9_999_232, 96, 0, 32]),
    # three flags: pres, lie and exidem all take part in the histogram
    (("chain:2", "--field", "4", "--theorem", "char-2-big"),
     ("pres", "lie", "exidem"), [177864, 0, 120, 0, 3432, 0, 0, 24]),
], ids=["kpotent-chain2-gf7", "char-ne-2-chain2-gf3", "z2-vee-gf2",
        "char-2-big-chain2-gf4"])
def test_verify_flag_counts(capsys, argv, flags, cells):
    # the pruned search counts the maps it never reaches in closed form;
    # every cell of the histogram must still be exact, and only the flags
    # the statement decides are keyed
    code, out = run(capsys, "verify", "--poset", *argv)
    assert code == 0
    keys = [",".join(f"{name}={(i >> b) & 1}" for b, name in enumerate(flags))
            for i in range(1 << len(flags))]
    assert list(out["counts"].items()) == list(zip(keys, cells))
    assert sum(cells) == out["maps_swept"]


@pytest.mark.parametrize("argv,digest", [
    (("--poset", "chain:2", "--field", "7", "--theorem", "kpotent", "--k", "4",
      "--workers", "2", "--backend", "numpy"),
     "8d0c1e09c8e8ba2caeae46368d4723f123204ebbf67c26d738cc34d3c240263a"),
    (("--poset", VEE_TEXT, "--field", "2", "--theorem", "z2",
      "--workers", "2", "--backend", "numpy"),
     "f4d90f5290e42be720a2741fe3de854ff03d069cc8e08807253f2458a348aea1"),
    (("--poset", "chain:2", "--field", "4", "--theorem", "char-2-big"),
     "759c27c222c6a64fcae070cf9e579e904cb50823654ebf05ac6547dc03a9e6e8"),
], ids=["kpotent-chain2-gf7", "z2-vee-gf2", "char-2-big-chain2-gf4"])
def test_verify_report_bytes_are_pinned(capsys, argv, digest):
    # sha256 of the sorted-key JSON report less its timing: counts, levels,
    # preserver counts, samples and notes must all stay byte for byte
    code, out = run(capsys, "verify", *argv)
    assert code == 0
    out.pop("elapsed_s")
    text = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_verify_default_workers_is_one(capsys):
    # the report must not depend on the machine's CPU count
    code, out = run(capsys, "verify", "--poset", "chain:2", "--field", "3",
                    "--theorem", "char-ne-2")
    assert code == 0
    assert out["workers"] == 1


@pytest.mark.parametrize("workers", ["0", "-4"])
def test_verify_refuses_fewer_than_one_worker(capsys, workers):
    code, out = run(capsys, "verify", "--poset", "chain:2", "--field", "3",
                    "--theorem", "char-ne-2", "--workers", workers)
    assert code == 2
    assert out["error"] == "ValueError"
    assert "workers must be >= 1" in out["message"]


def test_verify_reports_levels(capsys):
    code, out = run(capsys, "verify", "--poset", "chain:2", "--field", "5",
                    "--theorem", "tripotent", "--workers", "3")
    assert code == 0
    assert out["workers"] == 3
    levels = out["levels"]
    assert len(levels) == 3  # one entry per column of a map
    assert sum(lv["covered"] for lv in levels) == out["maps_swept"]
    for lv in levels:
        assert lv["visited"] == lv["pruned"] + lv["passed"]
    assert levels[-1]["passed"] == out["preserver_count"]


@pytest.mark.parametrize("theorem,q,extra", [
    ("z2", 2, []), ("char-ne-2", 3, []), ("char-2-big", 4, []),
    ("tripotent", 5, []), ("kpotent", 7, ["--k", "4"])])
def test_verify_one_point_poset(capsys, theorem, q, extra):
    # GL(1, q) is the q - 1 nonzero scalars; each one is a single-column map
    code, out = run(capsys, "verify", "--poset", "chain:1", "--field", str(q),
                    "--theorem", theorem, *extra)
    assert code == 0
    assert out["match"] is True
    assert out["maps_swept"] == q - 1
    assert all(s["ok"] for s in out["samples"])


@pytest.mark.parametrize("k,code", [("2", 0), ("5", 2)])
def test_verify_fixed_k_theorem_refuses_other_k(capsys, k, code):
    got, out = run(capsys, "verify", "--poset", "chain:1", "--field", "2",
                   "--theorem", "z2", "--k", k)
    assert got == code
    if code == 0:
        assert out["k"] == 2
    else:
        assert out["error"] == "ValueError"


def test_verify_survives_closed_stdout():
    # a reader that stops early (``| head -1``) must not turn a matched run
    # into exit code 1 or print a traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "incalg.cli", "verify", "--poset", "chain:2",
         "--field", "2", "--theorem", "z2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=CHILD_ENV)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0
    assert "Traceback" not in err


def test_verify_rejects_numba_backend():
    with pytest.raises(SystemExit) as ei:
        main(["verify", "--poset", "chain:2", "--field", "2", "--theorem",
              "z2", "--backend", "numba"])
    assert ei.value.code == 2


def test_decompose_scalar_multiple_of_identity(capsys, monkeypatch):
    # doubling over GF(7) preserves 4-potents: 2 is a cube root of unity
    monkeypatch.setattr("sys.stdin", io.StringIO(DOUBLED_MAP_GF7))
    code, out = run(capsys, "decompose", "--poset", "chain:2", "--field", "7",
                    "--k", "4", "--map", "-")
    assert code == 0
    assert out["regime"] == "kpotent"
    assert out["certificates"]["r"] == "2"
    assert out["factors"]["order_map"]["kind"] == "automorphism"
    # over Q the root is the Fraction -1, printed as "-1"
    monkeypatch.setattr("sys.stdin", io.StringIO(NEGATED_MAP_Q))
    code, out = run(capsys, "decompose", "--poset", "chain:2", "--field", "Q",
                    "--k", "3", "--map", "-")
    assert code == 0
    assert out["regime"] == "tripotent"
    assert out["certificates"]["r"] == out["factors"]["r"] == "-1"
    assert out["certificates"]["potent_preserver"] == "sampled"


def test_decompose_non_preserver_exits_one(capsys, monkeypatch):
    # doubling is not a tripotent preserver over GF(5): 2 is no square root
    # of unity there
    monkeypatch.setattr("sys.stdin", io.StringIO(DOUBLED_MAP_GF5))
    code, out = run(capsys, "decompose", "--poset", "chain:2", "--field", "5",
                    "--k", "3", "--map", "-")
    assert code == 1
    assert out["error"] == "HypothesesNotMet"


def test_decompose_identity_idempotent_regime(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(IDENTITY_MAP_GF5))
    code, out = run(capsys, "decompose", "--poset", "chain:2", "--field", "5",
                    "--k", "2", "--map", "-")
    assert code == 0
    assert out["regime"] == "char-ne-2"
    assert out["certificates"]["idempotent_preserver"] == "exhaustive"


def test_spectral_inline_element(capsys):
    code, out = run(capsys, "spectral", "--poset", "chain:2", "--field", "5",
                    "--k", "3", "--element", "[[1,1,1],[2,2,4],[1,2,3]]")
    assert code == 0
    assert out["epsilon"] == "4"
    assert len(out["idempotents"]) == 2
    assert out["diagonal_form"] == [[1, 1, "1"], [2, 2, "4"]]
    code, out = run(capsys, "spectral", "--poset", "chain:2", "--field", "Q",
                    "--k", "3", "--element", "[[1,1,1],[2,2,-1],[1,2,3]]")
    assert code == 0
    assert out["epsilon"] == "-1"
    assert out["idempotents"] == [[[2, 2, "1"], [1, 2, "-3/2"]],
                                  [[1, 1, "1"], [1, 2, "3/2"]]]
    assert out["diagonal_form"] == [[1, 1, "1"], [2, 2, "-1"]]


def test_spectral_list_labels_round_trip(capsys):
    # JSON has no tuples: a list names the poset's tuple label, and the
    # printed triples read back as the same element
    poset = '{"labels": [[0,1],[0,2]], "relations": [[[0,1],[0,2]]]}'
    args = ("spectral", "--poset", poset, "--field", "5", "--k", "3")
    code, out = run(capsys, *args,
                    "--element", "[[[0,1],[0,1],1],[[0,1],[0,2],3]]")
    assert code == 0
    assert out["element"] == [[[0, 1], [0, 1], "1"], [[0, 1], [0, 2], "3"]]
    assert run(capsys, *args, "--element", json.dumps(out["element"])) == (0, out)


def test_spectral_non_potent_exits_one(capsys):
    code, out = run(capsys, "spectral", "--poset", "chain:2", "--field", "5",
                    "--k", "3", "--element", "[[1,1,2]]")
    assert code == 1
    assert out["error"] == "NotKPotent"


def test_spectral_obstructed_input_exits_one(capsys):
    # delta + e_12 over GF(2) is tripotent but genuinely not diagonalizable
    # (no distinct square roots of unity exist there)
    code, out = run(capsys, "spectral", "--poset", "chain:2", "--field", "2",
                    "--k", "3", "--element", "[[1,1,1],[2,2,1],[1,2,1]]")
    assert code == 1
    assert out["error"] == "HypothesesNotMet"


@pytest.mark.parametrize("argv,code,error,message", [
    (("spectral", "--poset", "chain:2", "--field", "Q", "--k", "4",
      "--element", "[[1,1,1]]"), 1, "HypothesesNotMet",
     "the rationals contain no primitive 3-th root of unity"),
    (("verify", "--poset", "chain:2", "--field", "4", "--theorem", "kpotent",
      "--k", "3"), 2, "UnsupportedRegime",
     "GF(4) contains no primitive 2-th root of unity"),
], ids=["spectral-q-k4", "verify-gf4-k3"])
def test_missing_root_of_unity_is_refused_by_name(capsys, argv, code, error,
                                                  message):
    assert run(capsys, *argv) == (code, {"error": error, "message": message})


def test_spectral_many_idempotents_exits_zero(capsys):
    # diagonalizing a 22-potent means 21 idempotents; the diagonalizer does
    # n products per point, so no cap on n is needed
    code, out = run(capsys, "spectral", "--poset", "chain:1", "--field", "43",
                    "--k", "22", "--element", "[[1,1,1]]")
    assert code == 0
    assert len(out["idempotents"]) == 21
    P, F = chain(1), GF(43)
    f, sigma, diag = (from_triples(P, F, out[key]) for key in
                      ("element", "conjugator", "diagonal_form"))
    assert diag.is_diagonal()
    assert conjugate(diag, sigma) == f


@pytest.mark.parametrize("field,command,payload", [
    ("5", "spectral", "[[1,1,7]]"),
    ("5", "spectral", "[[1,1,1.5]]"),
    ("5", "spectral", "[1]"),
    ("5", "spectral", "[null]"),
    # -1 would index the field tables from the end: 4 e11 + e22 is tripotent
    ("5", "spectral", "[[1,1,-1],[2,2,1]]"),
    ("5", "spectral", "[[1,1,true]]"),
    ("5", "spectral", "[[1,1]]"),
    ("5", "spectral", "5"),
    ("5", "spectral", "{}"),
    ("Q", "spectral", '[[1,1,"1/0"]]'),
    ("Q", "decompose", "Q 3\n1 0 0\n0 1 0\n0 1/0 1\n"),
], ids=["code-out-of-range", "float", "bare-int", "null", "negative-code",
        "bool", "two-items", "number", "object", "q-zero-denominator-element",
        "q-zero-denominator-map"])
def test_malformed_scalars_and_triples_exit_two(capsys, monkeypatch, field,
                                                command, payload):
    flag = "--element" if command == "spectral" else "--map"
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code = main([command, "--poset", "chain:2", "--field", field, "--k", "3",
                 flag, "-"])
    out, err = capsys.readouterr()
    assert code == 2
    assert set(json.loads(out)) == {"error", "message"}
    assert err == ""


def test_demo_all(capsys):
    code, out = run(capsys, "demo", "all")
    assert code == 0
    assert [r["demo"] for r in out] == ["lie-not-multiplicative",
                                        "lie-not-preserver", "pure-shift",
                                        "diagonal-obstruction"]
    assert all(r["ok"] for r in out)


def test_demo_unknown_name_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["demo", "no-such-demo"])
    assert ei.value.code == 2


def test_enumerate_potents_count_only(capsys):
    code, out = run(capsys, "enumerate-potents", "--poset", "chain:2",
                    "--field", "7", "--k", "4", "--count-only")
    assert code == 0
    assert out["count"] == 88


def test_enumerate_potents_count_only_builds_no_element(capsys, monkeypatch):
    # the count reads the scan's codes; an element is built only when a
    # listing reads the elements
    def no_element(*args):
        raise AssertionError("a count-only run built an element")

    monkeypatch.setattr(potents, "_POTENT_CACHE", {})
    monkeypatch.setattr(potents, "IncElement", no_element)
    code, out = run(capsys, "enumerate-potents", "--poset", "chain:2",
                    "--field", "7", "--k", "4", "--count-only")
    assert code == 0 and out["count"] == 88


@pytest.mark.parametrize("n,space", [(4, 5 ** 10), (5, 5 ** 15)],
                         ids=["chain4", "chain5"])
def test_enumerate_potents_past_the_scan_cap_exits_two(capsys, monkeypatch,
                                                       n, space):
    # the scan cap is a constant; 5^15 codes would need a 426 GiB digit
    # array, and the refusal comes before any array is built
    forbid_digit_arrays(monkeypatch)
    assert run(capsys, "enumerate-potents", "--poset", f"chain:{n}",
               "--field", "5", "--k", "2", "--count-only") == (
        2, {"error": "BudgetExceeded",
            "message": f"coefficient space has {space} elements, over the "
                       f"limit {2 ** 20}"})


def test_enumerate_potents_budget_and_force(capsys):
    # neither --budget nor --force runs past the scan cap: both are argparse
    # errors
    for flag in (["--budget", str(10 ** 12)], ["--force"]):
        with pytest.raises(SystemExit) as ei:
            main(["enumerate-potents", "--poset", "chain:4", "--field", "5",
                  "--k", "2", "--count-only", *flag])
        assert ei.value.code == 2


def test_decompose_has_no_budget_option(capsys):
    # the scan cap is the only size limit of the preserver check
    with pytest.raises(SystemExit) as ei:
        main(["decompose", "--poset", "chain:2", "--field", "5", "--k", "3",
              "--budget", "10"])
    assert ei.value.code == 2


def test_poset_file_and_literal_agree(tmp_path, capsys):
    text = "3\n1 < 2\n1 < 3\n"
    path = tmp_path / "vee.poset"
    path.write_text(text)
    code_f, out_f = run(capsys, "enumerate-potents", "--poset", str(path),
                        "--field", "2", "--k", "2", "--count-only")
    code_l, out_l = run(capsys, "enumerate-potents", "--poset", text,
                        "--field", "2", "--k", "2", "--count-only")
    assert code_f == code_l == 0
    assert out_f["count"] == out_l["count"]


def test_long_inline_json_poset_is_parsed_not_opened(capsys):
    # the literal is longer than a file name may be; it is parsed, and its
    # 2^60-element coefficient space is refused for the scan cap
    spec = json.dumps({"labels": list(range(1, 61)), "relations": []})
    assert len(spec) > 255
    code, out = run(capsys, "enumerate-potents", "--poset", spec, "--field",
                    "2", "--k", "2", "--count-only")
    assert code == 2
    assert out["error"] == "BudgetExceeded"


def test_missing_poset_file(capsys):
    assert run(capsys, "enumerate-potents", "--poset", "does-not-exist.poset",
               "--field", "2", "--k", "2", "--count-only") == (
        2, {"error": "FileNotFoundError",
            "message": "poset file 'does-not-exist.poset' not found"})


@pytest.mark.parametrize("argv", [
    ("verify", "--poset", '{"relations": []}'),
    ("verify", "--poset", '{"labels": [1, 2]}'),
    ("verify", "--poset", '{"labels": 5, "relations": []}'),
    ("verify", "--poset", '{"labels": [{"a": 1}], "relations": []}'),
    ("verify", "--poset", ""),
    ("verify", "--poset", "   "),
    ("verify", "--poset", "{dir}"),
    ("decompose", "--poset", "chain:2", "--k", "3", "--map", "{dir}"),
], ids=["no-labels", "no-relations", "labels-not-a-list", "unhashable-label",
        "empty", "blank", "directory-poset", "directory-map"])
def test_malformed_posets_and_directories_exit_two(capsys, tmp_path, argv):
    argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
    extra = ["--theorem", "z2"] if argv[0] == "verify" else []
    code = main([*argv, "--field", "2", *extra])
    out, err = capsys.readouterr()
    assert code == 2
    out = json.loads(out)
    assert set(out) == {"error", "message"}
    if not argv[2].strip():
        assert out["error"] == "EmptyPoset"
    assert err == ""


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# every error class and the exit code main gives it; a new class fails
# this test until it is placed here on purpose
PINNED_EXIT_CODES = {
    2: {"EmptyPoset", "CycleError", "UnknownLabel", "IncomparablePair",
        "StructureMismatch", "DimensionMismatch", "UnsupportedField",
        "NoPrimitiveRoot", "DisconnectedPoset", "BudgetExceeded",
        "UnsupportedRegime"},
    1: {"DivisionByZero", "NotFound", "NotInvertible", "NotIdempotent",
        "NotCommuting", "NotKPotent", "HypothesesNotMet", "NotConjugate",
        "NotJordanAutomorphism", "NotIdempotentPreserver",
        "PhiDeltaNotScalar", "RootConditionFailed", "DownstreamJordanFailure",
        "InternalConsistencyError", "LambdaNotOrderMap",
        "RecompositionMismatch", "ThetaNotSingleBasisVector",
        "ThetaNotBijective", "NuNotCentral", "ClaimFailed"},
}


def test_every_error_class_has_a_pinned_exit_code():
    assert cli.REFUSALS == (
        EmptyPoset, CycleError, UnknownLabel, IncomparablePair,
        StructureMismatch, DimensionMismatch, UnsupportedField,
        NoPrimitiveRoot, DisconnectedPoset, BudgetExceeded, ValueError,
        OSError)
    got = {1: set(), 2: set()}
    for cls in set(_subclasses(IncalgError)):
        got[2 if issubclass(cls, cli.REFUSALS) else 1].add(cls.__name__)
    assert got == PINNED_EXIT_CODES


@pytest.mark.parametrize("error,code", [
    (BudgetExceeded("coefficient space too large", required=49), 2),
    (FileNotFoundError("poset file 'x' not found"), 2),
    (ValueError("k must be >= 2"), 2),
    (NotKPotent("f^3 != f"), 1),
    (ClaimFailed("demo d: claim failed: c", claims=[{"claim": "c",
                                                       "ok": False}]), 1),
], ids=["budget", "missing-file", "value", "not-potent", "claim-failed"])
def test_main_maps_a_raised_error_to_its_exit_code(capsys, monkeypatch, error,
                                                   code):
    def raises(args):
        raise error

    monkeypatch.setattr(cli, "cmd_demo", raises)
    want = {"error": type(error).__name__, "message": str(error)}
    if isinstance(error, ClaimFailed):
        want["claims"] = error.claims
    assert run(capsys, "demo", "all") == (code, want)


def test_verify_reports_a_failing_spot_sample(capsys, monkeypatch):
    # a factorization that raises on one sample fails the whole report; the
    # sample keeps the error by name and the others still read ok
    real = verify.classify_preserver
    calls = []

    def second_map_fails(phi, k, **kwargs):
        calls.append(phi)
        if len(calls) == 2:
            raise RecompositionMismatch("factors do not recompose to the input")
        return real(phi, k, **kwargs)

    monkeypatch.setattr(verify, "classify_preserver", second_map_fails)
    code, out = run(capsys, "verify", "--poset", "chain:2", "--field", "3",
                    "--theorem", "char-ne-2")
    assert code == 1
    assert out["match"] is False
    assert out["preserver_count"] == out["family_count"] == 12
    assert [s["ok"] for s in out["samples"]] == [True, False] + [True] * 10
    assert out["samples"][1] == {
        "map": out["samples"][1]["map"], "ok": False,
        "error": "RecompositionMismatch: factors do not recompose to the input"}


def test_verify_internal_error_exits_one(capsys, monkeypatch):
    # a broken invariant is a failed claim, as in decompose, not a refused
    # request: first a sweep that raises it outright, then the sweep's own
    # |GL| check fed one completion too many per pruned node
    def broken(*args, **kwargs):
        raise InternalConsistencyError(
            "pruned and enumerated maps do not add up to |GL|")

    real = kernels._completions
    for module, name, patch, message in [
            (verify, "sweep_gl", broken,
             "pruned and enumerated maps do not add up to |GL|"),
            (kernels, "_completions", lambda tab: [c + 1 for c in real(tab)],
             "pruned and enumerated maps do not add up to |GL|: "
             "11509 != 11232")]:
        with monkeypatch.context() as m:
            m.setattr(module, name, patch)
            code, out = run(capsys, "verify", "--poset", "chain:2", "--field",
                            "3", "--theorem", "char-ne-2")
        assert code == 1
        assert out == {"error": "InternalConsistencyError",
                       "message": message}


def test_decompose_reads_a_map_file(tmp_path, capsys):
    path = tmp_path / "doubled.map"
    path.write_text(DOUBLED_MAP_GF7)
    code, out = run(capsys, "decompose", "--poset", "chain:2", "--field", "7",
                    "--k", "4", "--map", str(path))
    assert code == 0
    assert out["regime"] == "kpotent"
    assert out["certificates"]["r"] == "2"


DECOMPOSE_GF5 = ("decompose", "--poset", "chain:2", "--field", "5", "--k",
                 "3", "--map", "-")


@pytest.mark.parametrize("argv,stdin,message", [
    (("decompose", "--poset", "chain:2", "--field", "3", "--k", "3",
      "--map", "3 3\n1 0 0\n0 1 0\n0 0 1\n"), "",
     {"error": "UnsupportedRegime",
      "message": "k = 3 is divisible by the characteristic 3"}),
    (("spectral", "--poset", "chain:2", "--field", "5", "--k", "1",
      "--element", "[[1,1,1]]"), "",
     {"error": "ValueError", "message": "k must be >= 2"}),
    (DECOMPOSE_GF5, "\n",
     {"error": "DimensionMismatch", "message": "empty map file"}),
    (("decompose", "--poset", "chain:2", "--field", "5", "--k", "3",
      "--map", ""), "",
     {"error": "DimensionMismatch", "message": "empty map file"}),
    (DECOMPOSE_GF5, "5\n1 0 0\n0 1 0\n0 0 1\n",
     {"error": "DimensionMismatch", "message": "bad header '5'"}),
    (DECOMPOSE_GF5, "5 3\n1 0\n0 1 0\n0 0 1\n",
     {"error": "DimensionMismatch", "message": "bad row length in '1 0'"}),
    (("spectral", "--poset", "chain:2", "--field", "x", "--k", "3",
      "--element", "[[1,1,1]]"), "",
     {"error": "UnsupportedField", "message": "bad field flag 'x'"}),
    (("spectral", "--poset", "chain:2", "--field", "5", "--k", "3",
      "--element", ""), "",
     {"error": "JSONDecodeError",
      "message": "Expecting value: line 1 column 1 (char 0)"}),
    (("spectral", "--poset", '{"labels": [1, 1], "relations": []}',
      "--field", "5", "--k", "3", "--element", "[[1,1,1]]"), "",
     {"error": "UnknownLabel", "message": "duplicate labels"}),
    (("verify", "--poset", "chain:2", "--field", "Q", "--theorem",
      "char-ne-2"), "",
     {"error": "UnsupportedField", "message": "sweeps need a finite field"}),
], ids=["decompose-gf3-k3", "spectral-k1", "map-empty", "map-blank-literal",
        "map-bad-header", "map-short-row", "field-x", "element-blank-literal",
        "json-duplicate-labels", "verify-q"])
def test_decompose_and_spectral_usage_errors_exit_two(capsys, monkeypatch,
                                                      argv, stdin, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(capsys, *argv) == (2, message)


@pytest.mark.parametrize("spec", ["chain:129", "antichain:129", "129\n",
                                  "{file}"],
                         ids=["chain", "antichain", "text", "json"])
def test_oversized_poset_is_refused_before_it_is_built(capsys, monkeypatch,
                                                       tmp_path, spec):
    # one element past the cap; no Poset is constructed, and no digit array
    # built, on the way to the refusal
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"labels": list(range(129)), "relations": []}))

    def no_build(*args):
        raise AssertionError("Poset built past the size cap")

    monkeypatch.setattr(incalg.poset.Poset, "__init__", no_build)
    forbid_digit_arrays(monkeypatch)
    code, out = run(capsys, "enumerate-potents", "--poset",
                    spec.replace("{file}", str(path)), "--field", "2",
                    "--k", "2", "--count-only")
    assert code == 2
    assert out == {"error": "BudgetExceeded",
                   "message": "poset has 129 elements, the cap is 128"}


def test_demo_one_name_prints_one_report(capsys):
    code, out = run(capsys, "demo", "pure-shift")
    assert code == 0
    assert isinstance(out, dict)
    assert out["demo"] == "pure-shift" and out["ok"] is True


# the keys under which a command's JSON holds elements, field scalars, label
# pairs and counts; any other number in it is a stray scalar
ELEMENT_KEYS = {"element", "conjugator", "diagonal_form", "inner_beta",
                "sigma", "witness"}
ELEMENT_LIST_KEYS = {"elements", "idempotents"}
SCALAR_KEYS = {"r", "epsilon"}
LABEL_PAIR_KEYS = {"mapping", "relations"}
COUNT_KEYS = {"k", "count", "dim", "checked"}


def _walk_output(node, labels):
    """Assert that every field scalar in a command's JSON is a string and
    every label one of ``labels``; return how many of each were seen."""
    seen = {"scalars": 0, "labels": 0}

    def label(x):
        assert x in labels, x
        seen["labels"] += 1

    def scalar(v):
        assert isinstance(v, str), v
        seen["scalars"] += 1

    def walk(node, key):
        if key in ELEMENT_KEYS or key in ELEMENT_LIST_KEYS:
            for element in [node] if key in ELEMENT_KEYS else node:
                for x, y, v in element:
                    label(x)
                    label(y)
                    scalar(v)
        elif key in LABEL_PAIR_KEYS:
            for pair in node:
                for x in pair:
                    label(x)
        elif key == "labels":
            for x in node:
                label(x)
        elif key in SCALAR_KEYS:
            scalar(node)
        elif key == "columns":
            for col in node:
                for v in col:
                    scalar(v)
        elif isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)
        else:
            assert isinstance(node, (str, bool)) or key in COUNT_KEYS, (key, node)

    walk(node, None)
    return seen


LIST_LABELS_POSET = ('{"labels": [[1, "a"], [2, "b"]], '
                     '"relations": [[[1, "a"], [2, "b"]]]}')
TRANSPOSE_MAP_GF5 = "5 3\n0 1 0\n1 0 0\n0 0 1\n"
SHIFT_MAP_GF2 = "2 3\n1 0 0\n0 1 0\n1 1 1\n"


@pytest.mark.parametrize("argv,stdin,labels", [
    (("decompose", "--poset", "chain:2", "--field", "5", "--k", "2"),
     TRANSPOSE_MAP_GF5, [1, 2]),
    (("decompose", "--poset", "chain:2", "--field", "2", "--k", "2"),
     SHIFT_MAP_GF2, [1, 2]),
    (("decompose", "--poset", "chain:2", "--field", "7", "--k", "4"),
     DOUBLED_MAP_GF7, [1, 2]),
    (("decompose", "--poset", "chain:2", "--field", "Q", "--k", "3"),
     NEGATED_MAP_Q, [1, 2]),
    (("spectral", "--poset", "chain:2", "--field", "5", "--k", "3",
      "--element", "[[1,1,1],[2,2,4],[1,2,3]]"), "", [1, 2]),
    (("spectral", "--poset", "chain:2", "--field", "Q", "--k", "3",
      "--element", "[[1,1,1],[2,2,-1],[1,2,3]]"), "", [1, 2]),
    (("enumerate-potents", "--poset", "vee.json", "--field", "3", "--k", "2"),
     "", ["root", "left", "right"]),
    (("demo", "all"), "", [1, 2, 3, 4]),
    (("decompose", "--poset", LIST_LABELS_POSET, "--field", "5", "--k", "2"),
     TRANSPOSE_MAP_GF5, [[1, "a"], [2, "b"]]),
], ids=["decompose-char-ne-2", "decompose-z2", "decompose-kpotent",
        "decompose-q", "spectral-gf5", "spectral-q", "enumerate-potents",
        "demo-all", "decompose-list-labels"])
def test_field_scalars_are_strings_and_labels_json_values(
        capsys, monkeypatch, tmp_path, argv, stdin, labels):
    (tmp_path / "vee.json").write_text(json.dumps(
        {"labels": ["root", "left", "right"],
         "relations": [["root", "left"], ["root", "right"]]}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out = run(capsys, *argv)
    assert code == 0
    seen = _walk_output(out, labels)
    assert seen["scalars"] > 0 and seen["labels"] > 0


def test_list_labels_print_as_lists_in_every_factor(capsys, monkeypatch):
    # the transpose of the 2-chain is induced by the order anti-automorphism
    # swapping its two labels
    monkeypatch.setattr("sys.stdin", io.StringIO(TRANSPOSE_MAP_GF5))
    code, out = run(capsys, "decompose", "--poset", LIST_LABELS_POSET,
                    "--field", "5", "--k", "2")
    assert code == 0
    a, b = [1, "a"], [2, "b"]
    assert out["factors"]["order_map"] == {"mapping": [[a, b], [b, a]],
                                           "kind": "anti_automorphism"}
    assert out["factors"]["inner_beta"] == [[a, a, "1"], [b, b, "1"]]


def test_enumerate_potents_lists_the_elements(capsys):
    code, out = run(capsys, "enumerate-potents", "--poset", "chain:2",
                    "--field", "3", "--k", "2")
    assert code == 0
    assert out["count"] == len(out["elements"]) == 8
    assert out["elements"][:3] == [[], [[1, 1, "1"]], [[2, 2, "1"]]]
