import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import funcon.cli as cli
from funcon import CmBounds, ConstraintSet, DomainSpec, cm_closure, enumerate_constraints, lo_m_closure, vs_closure
from funcon.cli import (
    EXIT_BUDGET,
    EXIT_DISCREPANCY,
    EXIT_OK,
    EXIT_USAGE,
    SystemExit2,
    _build_parser,
    _parse,
    run_command,
)
from funcon.instance_io import class_listing, parse_instance, set_listing

DOC = """{
  "domains": {"bool": 2},
  "functions": {"and": {"dom": "bool", "cod": "bool", "arity": 2, "table": [0, 0, 0, 1]}},
  "relations": {"leq": {"domain": "bool", "arity": 2, "tuples": [[0, 0], [0, 1], [1, 1]]}},
  "constraints": {"c_leq": {"antecedent": "leq", "consequent": "leq"}},
  "classes": {"K2": {"dom": "bool", "cod": "bool", "members": ["and"]}},
  "sets": {"T2": {"dom": "bool", "cod": "bool", "members": ["c_leq"]}}
}"""


# KM and TM hold arities 1 and 2; K1, K2 and T1 a single arity each
MIXED_DOC = """{
  "domains": {"bool": 2},
  "functions": {
    "and": {"dom": "bool", "cod": "bool", "arity": 2, "table": [0, 0, 0, 1]},
    "not": {"dom": "bool", "cod": "bool", "arity": 1, "table": [1, 0]}
  },
  "relations": {
    "leq": {"domain": "bool", "arity": 2, "tuples": [[0, 0], [0, 1], [1, 1]]},
    "one": {"domain": "bool", "arity": 1, "tuples": [[1]]}
  },
  "constraints": {
    "c_leq": {"antecedent": "leq", "consequent": "leq"},
    "c_one": {"antecedent": "one", "consequent": "one"}
  },
  "classes": {
    "KM": {"dom": "bool", "cod": "bool", "members": ["and", "not"]},
    "K1": {"dom": "bool", "cod": "bool", "members": ["not"]},
    "K2": {"dom": "bool", "cod": "bool", "members": ["and"]}
  },
  "sets": {
    "TM": {"dom": "bool", "cod": "bool", "members": ["c_leq", "c_one"]},
    "T1": {"dom": "bool", "cod": "bool", "members": ["c_one"]}
  }
}"""


@pytest.fixture
def doc_path(tmp_path):
    path = tmp_path / "ex.json"
    path.write_text(DOC)
    return str(path)


@pytest.fixture
def mixed_path(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(MIXED_DOC)
    return str(path)


@pytest.fixture(autouse=True)
def reader_agrees_with_argparse(monkeypatch):
    """Every argv a test here sends: the one-pass reader declines it, or
    argparse accepts it and reads the same namespace."""

    def checked(argv):
        args = _parse(argv)
        if args is not None:
            try:
                expected = _build_parser().parse_args(argv)
            except (SystemExit, SystemExit2):  # which run_command would report as the request's own error
                pytest.fail(f"the reader took {argv}, which argparse refuses")
            assert vars(args) == vars(expected), argv
        return args

    monkeypatch.setattr(cli, "_parse", checked)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_t15i_worked_instance(doc_path, capsys):
    code, out, _ = run(capsys, "verify", "t15i", "--in", doc_path, "--class", "K2", "--n", "2", "--m", "1")
    assert code == EXIT_OK
    assert "verdict: equal" in out
    assert "lhs_size: 4" in out


def test_close_vsn_listing(doc_path, capsys):
    code, out, _ = run(capsys, "close", "vsn", "--in", doc_path, "--class", "K2")
    assert code == EXIT_OK
    assert json.loads(out)["count"] == 3


def test_close_cmm_includes_swapped_order(doc_path, capsys):
    code, out, _ = run(capsys, "close", "cmm", "--in", doc_path, "--set", "T2", "--m", "2")
    assert code == EXIT_OK
    listing = json.loads(out)
    assert listing["count"] == 48
    geq = [[0, 0], [1, 0], [1, 1]]
    assert any(
        rec["antecedent"] == geq and rec["consequent"] == geq
        for rec in listing["members"]
    )


def test_enumerate_unary_functions(capsys):
    code, out, _ = run(capsys, "enumerate", "functions", "--arity", "1")
    assert code == EXIT_OK
    listing = json.loads(out)
    assert listing["count"] == 4
    assert [rec["table"] for rec in listing["members"]] == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_galois_fsc_csf(doc_path, capsys):
    code, out, _ = run(capsys, "galois", "fsc", "--in", doc_path, "--set", "T2", "--arity", "1")
    assert code == EXIT_OK and json.loads(out)["count"] == 3
    code, out, _ = run(capsys, "galois", "csf", "--in", doc_path, "--class", "K2", "--arity", "2")
    assert code == EXIT_OK and json.loads(out)["count"] == 78


A, B = DomainSpec("A", 2), DomainSpec("B", 2)


# per command, the listing of the library call it wraps, on the K2 and T2 of DOC
@pytest.mark.parametrize("argv, listing", [
    (["close", "vs", "--in", "DOC", "--class", "K2", "--cap", "2"], lambda k, t: class_listing(vs_closure(k, 2))),
    (["close", "lom", "--in", "DOC", "--class", "K2", "--m", "1"], lambda k, t: class_listing(lo_m_closure(k, 1))),
    (["close", "cm", "--in", "DOC", "--set", "T2", "--cap", "2"],
     lambda k, t: set_listing(cm_closure(t, 2).constraints)),
    (["enumerate", "constraints", "--arity", "1"],
     lambda k, t: set_listing(ConstraintSet.from_constraints(A, B, enumerate_constraints(A, B, 1)))),
], ids=["close-vs", "close-lom", "close-cm", "enumerate-constraints"])
def test_commands_print_the_listing_of_the_call_they_wrap(doc_path, capsys, argv, listing):
    doc = parse_instance(DOC)
    code, out, _ = run(capsys, *(doc_path if word == "DOC" else word for word in argv))
    assert code == EXIT_OK
    assert out == listing(doc.lookup("classes", "K2"), doc.lookup("sets", "T2"))


def test_non_integer_flag_is_a_usage_error(doc_path, capsys):
    code, out, err = run(capsys, "close", "lon", "--in", doc_path, "--set", "T2", "--n", "two")
    assert code == EXIT_USAGE and out == ""
    assert "invalid int value: 'two'" in err and "Traceback" not in err


def test_laws_suites(capsys):
    for suite in ("vsn", "lon", "axioms"):
        code, out, _ = run(capsys, "laws", suite, "--samples", "5", "--seed", "1")
        assert code == EXIT_OK, suite
        assert "verdict: equal" in out


def test_byte_identical_output(doc_path, capsys):
    runs = [
        run(capsys, "close", "cmm", "--in", doc_path, "--set", "T2", "--m", "2")
        for _ in range(2)
    ]
    assert runs[0][1] == runs[1][1]
    reports = [
        run(capsys, "verify", "t15i", "--in", doc_path, "--class", "K2", "--n", "2", "--m", "1")
        for _ in range(2)
    ]
    assert reports[0][1] == reports[1][1]


def test_cache_hit_preserves_bytes(doc_path, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["--cache-dir", cache, "close", "cmm", "--in", doc_path, "--set", "T2", "--m", "2"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert list((tmp_path / "cache").glob("*.entry"))  # entry was written


def test_cut_off_closure_warns_on_every_run_and_is_never_cached(doc_path, tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["--cache-dir", str(cache), "close", "cmm", "--in", doc_path, "--set", "T2", "--m", "2",
            "--max-iterations", "1"]
    runs = [run(capsys, *argv) for _ in range(2)]
    for code, _, err in runs:
        assert code == EXIT_OK
        assert "warning: fixpoint iteration limit reached" in err
    assert runs[0][1] == runs[1][1]
    assert not list(cache.glob("*.entry"))


def test_unusable_cache_dir_warns_and_still_prints(doc_path, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("FUNCON_CACHE_DIR", raising=False)
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("keep")
    argv = ["close", "vsn", "--in", doc_path, "--class", "K2"]
    code, out, err = run(capsys, "--cache-dir", str(blocker), *argv)
    assert code == EXIT_OK
    assert out == run(capsys, *argv)[1]
    assert "warning: result not cached" in err
    assert blocker.read_text() == "keep"


def test_entry_that_cannot_be_replaced_warns_and_leaves_no_temp_file(doc_path, tmp_path, capsys, monkeypatch):
    # a directory where the entry goes: the temp file is written, os.replace fails, and the temp file is removed
    monkeypatch.delenv("FUNCON_CACHE_DIR", raising=False)
    cache = tmp_path / "cache"
    argv = ["close", "vsn", "--in", doc_path, "--class", "K2"]
    expected = run(capsys, *argv)[1]
    run(capsys, "--cache-dir", str(cache), *argv)
    (entry,) = cache.glob("*.entry")
    entry.unlink()
    entry.mkdir()
    code, out, err = run(capsys, "--cache-dir", str(cache), *argv)
    assert "warning: result not cached" in err
    assert out == expected
    assert code == EXIT_OK
    assert not list(cache.glob("*.tmp"))


def test_usage_errors(doc_path, capsys):
    code, _, err = run(capsys, "close", "vsn", "--in", doc_path)
    assert code == EXIT_USAGE and "--class" in err
    code, _, err = run(capsys, "galois", "fsc", "--in", doc_path, "--set", "T2")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "close", "vsn", "--in", "/nonexistent.json", "--class", "K2")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("flag, value", [("--max-indets", "-1"), ("--max-iterations", "0")])
def test_invalid_cm_bounds_are_usage_errors(doc_path, capsys, flag, value):
    requests = [
        ["verify", "t15ii", "--in", doc_path, "--set", "T2", "--n", "2", "--m", "2"],
        ["close", "cmm", "--in", doc_path, "--set", "T2", "--m", "2"],
    ]
    for argv in requests:
        code, out, err = run(capsys, *argv, flag, value)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "must be" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "words, flags",
    [
        (["verify", "t15i"], ["--class", "KM", "--n", "2", "--m", "1"]),
        (["verify", "thm5"], ["--class", "KM", "--n", "2"]),
        (["verify", "thm13"], ["--class", "KM", "--n", "2", "--m", "1"]),
        (["close", "cmm"], ["--set", "TM", "--m", "1"]),
        (["verify", "t12"], ["--set", "TM", "--m", "1"]),
        (["verify", "t15ii"], ["--set", "TM", "--n", "1", "--m", "1"]),
        # a single arity, but not the one the identity reads
        (["verify", "t15i"], ["--class", "K1", "--n", "2", "--m", "1"]),
        (["verify", "thm5"], ["--class", "K1", "--n", "2"]),
        (["verify", "thm13"], ["--class", "K1", "--n", "2", "--m", "1"]),
        (["verify", "cor1"], ["--class", "K2"]),
        (["verify", "thm14"], ["--set", "T1", "--n", "1", "--m", "2"]),
    ],
)
def test_multi_arity_bindings_are_usage_errors(mixed_path, capsys, words, flags):
    code, out, err = run(capsys, *words, "--in", mixed_path, *flags)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "arit" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["close", "lom", "--in", "DOC", "--class", "K1", "--m", "0"],
        ["close", "lon", "--in", "DOC", "--set", "T1", "--n", "0"],
        ["close", "vs", "--in", "DOC", "--class", "K1", "--cap", "0"],
        ["verify", "t4", "--in", "DOC", "--class", "K1", "--cap", "0"],
        ["verify", "t15i", "--in", "DOC", "--class", "K1", "--n", "1", "--m", "0"],
        ["galois", "fsc", "--in", "DOC", "--set", "T1", "--arity", "0"],
        ["galois", "csf", "--in", "DOC", "--class", "K1", "--arity", "0"],
        ["galois", "csf", "--in", "DOC", "--class", "K1", "--cap", "-1"],
        ["enumerate", "functions", "--arity", "0"],
        ["enumerate", "constraints", "--arity", "1", "--cod-size", "0"],
        ["laws", "vsn", "--dom-size", "0"],
        ["laws", "cmm", "--m", "-2"],
        ["laws", "vsn", "--samples", "0"],
        ["laws", "axioms", "--samples", "-4"],
        # a budget below 1 refuses every count, so it is a usage error, not a budget refusal
        ["galois", "csf", "--in", "DOC", "--class", "K1", "--arity", "1", "--budget", "-1"],
        ["close", "vsn", "--in", "DOC", "--class", "K1", "--budget", "0"],
        ["verify", "t15i", "--in", "DOC", "--class", "K1", "--n", "1", "--m", "1", "--budget", "0"],
        ["enumerate", "functions", "--arity", "1", "--budget", "-1"],
        ["laws", "vsn", "--budget", "0"],
    ],
)
def test_nonpositive_integer_flags_are_usage_errors(mixed_path, capsys, argv):
    code, out, err = run(capsys, *(mixed_path if word == "DOC" else word for word in argv))
    assert code == EXIT_USAGE and out == ""
    assert "must be >= 1" in err and "Traceback" not in err


def without_elapsed(result):
    code, out, err = result
    return code, out, [line for line in err.splitlines() if not line.startswith("elapsed: ")]


def test_cached_parser_keeps_no_state_after_parse_errors(doc_path, capsys):
    valid = ["verify", "t15i", "--in", doc_path, "--class", "K2", "--n", "2", "--m", "1"]
    _build_parser.cache_clear()
    alone = without_elapsed(run(capsys, *valid))
    assert alone[0] == EXIT_OK
    for bad in (["close", "nope", "--in", doc_path], ["close", "vsn", "--class", "K2"]):
        assert run(capsys, *bad)[0] == EXIT_USAGE
        assert without_elapsed(run(capsys, *valid)) == alone


def test_cached_parser_restores_default_bounds(doc_path, capsys, monkeypatch):
    from funcon import ClosureReport

    seen = []

    def record(name, payload, bounds, **kwargs):
        seen.append(bounds)
        return ClosureReport(name, {}, 0, 0)

    monkeypatch.setattr(cli, "verify_factorization", record)
    argv = ["--in", doc_path, "--set", "T2", "--m", "2"]
    assert run(capsys, "close", "cmm", *argv, "--max-indets", "3")[0] == EXIT_OK
    assert run(capsys, "verify", "t15ii", *argv, "--n", "2")[0] == EXIT_OK
    assert seen == [CmBounds()]


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_returns_exit_ok_after_the_help_text(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert out.startswith(" ".join(["usage: funcon", *argv[:-1]]))


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code, _, err = run(capsys, "close", "vsn", "--in", str(bad), "--class", "K2")
    assert code == EXIT_USAGE and "syntax error" in err


def test_undecodable_document_is_an_unreadable_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "close", "vsn", "--in", str(bad), "--class", "K")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


def test_non_string_reference_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(DOC.replace('"members": ["and"]', '"members": [["and"]]'))
    code, out, err = run(capsys, "close", "vsn", "--in", str(bad), "--class", "K2")
    assert code == EXIT_USAGE and "function reference ['and'] must be a name" in err and out == ""


@pytest.mark.parametrize("literal, message", [
    ("target=x; V=0; h1=[c1]", "target and V must be integers"),  # int() refuses the target
    ("target=1; V=-1; h1=[c1]", "indeterminate count must be >= 0"),  # Scheme refuses its arguments
])
def test_scheme_refusals_are_usage_errors(tmp_path, capsys, literal, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(DOC), "schemes": {"s": literal}}))
    code, out, err = run(capsys, "verify", "t15i", "--in", str(bad), "--class", "K2", "--n", "2", "--m", "1")
    assert code == EXIT_USAGE and out == "" and err == f"error: scheme 's': {message}\n"


def test_budget_refusal_exit_code(doc_path, capsys):
    code, _, err = run(
        capsys, "galois", "fsc", "--in", doc_path, "--set", "T2", "--arity", "5", "--budget", "100"
    )
    assert code == EXIT_BUDGET and "budget" in err.lower()


def test_cm_lift_budget_refusal_exit_code(tmp_path, capsys):
    doc = json.loads(DOC)
    doc["relations"]["odd"] = {"domain": "bool", "arity": 3, "tuples": [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]]}
    doc["constraints"]["c_odd"] = {"antecedent": "odd", "consequent": "odd"}
    doc["sets"]["T3"] = {"dom": "bool", "cod": "bool", "members": ["c_odd"]}
    path = tmp_path / "ternary.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "close", "cmm", "--in", str(path), "--set", "T3", "--m", "3", "--max-indets", "8")
    assert code == EXIT_BUDGET and out == ""
    assert "lift maps times extended tuples at arity 3: 2725888 exceeds budget 1000000" in err


@pytest.fixture
def wide_path(tmp_path):
    """A parity function of arity 8, a function of arity 3, the set
    {(A^8, A^8), (even-parity^8, even-parity^8)}, and a ternary function from
    a domain of 3 elements to one of 1."""
    doc = json.loads(DOC)
    doc["domains"].update(ter=3, unit=1)
    doc["functions"]["zero3"] = {"dom": "ter", "cod": "unit", "arity": 3, "table": [0] * 27}
    points = [[x >> (7 - i) & 1 for i in range(8)] for x in range(256)]
    doc["functions"]["par8"] = {"dom": "bool", "cod": "bool", "arity": 8, "table": [sum(p) % 2 for p in points]}
    doc["functions"]["maj"] = {"dom": "bool", "cod": "bool", "arity": 3, "table": [0, 0, 0, 1, 0, 1, 1, 1]}
    doc["relations"]["all8"] = {"domain": "bool", "arity": 8, "tuples": points}
    doc["relations"]["even8"] = {"domain": "bool", "arity": 8, "tuples": [p for p in points if sum(p) % 2 == 0]}
    doc["constraints"].update({name: {"antecedent": name[2:], "consequent": name[2:]} for name in ("c_all8", "c_even8")})
    doc["classes"].update(P8={"dom": "bool", "cod": "bool", "members": ["par8"]},
                          K3={"dom": "bool", "cod": "bool", "members": ["maj"]},
                          U3={"dom": "ter", "cod": "unit", "members": ["zero3"]})
    doc["sets"]["T8"] = {"dom": "bool", "cod": "bool", "members": ["c_all8", "c_even8"]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("argv, refusal", [
    (["galois", "csf", "--class", "P8", "--arity", "3"], "csf_3 probes: 16777216 exceeds budget 1000000"),
    (["galois", "fsc", "--set", "T8", "--arity", "3"], "fsc_3 row choices: 18874368 exceeds budget 1000000"),
    (["close", "vsn", "--class", "K3", "--budget", "215"], "substitution instances: 216 exceeds budget 215"),
    # the separators of an m = 20 class are masks of 2^20 bits over A^20 and B^20
    (["verify", "t15i", "--class", "K2", "--n", "2", "--m", "20"], "separator mask width: 1048576 exceeds budget 1000000"),
    # at |B| = 1 there is one candidate table, but lo_m walks C(27, 10) subsets of the 27 points of A^3
    (["verify", "thm13", "--class", "U3", "--n", "3", "--m", "10"], "lo_10 point subsets at arity 3: 8436285 exceeds budget 1000000"),
])
def test_wide_enumerations_are_budget_refusals(wide_path, capsys, argv, refusal):
    # each would walk its probes, row choices or instances for minutes at a wide arity
    code, out, err = run(capsys, *argv[:2], "--in", wide_path, *argv[2:])
    assert code == EXIT_BUDGET and out == "" and refusal in err


def test_laws_budget_reaches_the_samplers(capsys):
    argv = ["laws", "vs", "--dom-size", "3", "--arity", "3"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_BUDGET and out == ""
    assert "functions of arity 3 to sample from: 134217728 exceeds budget 1000000" in err
    code, out, _ = run(capsys, *argv, "--budget", "1000000000")
    assert code == EXIT_OK and "verdict: equal" in out


def test_flag_references_name_no_binding(doc_path, capsys):
    code, out, err = run(capsys, "close", "vsn", "--in", doc_path, "--class", "nope")
    assert code == EXIT_USAGE and out == "" and err == "error: class 'nope' is not defined\n"


def test_t4_budget_refusal_exit_code(doc_path, capsys):
    argv = ["verify", "t4", "--in", doc_path, "--class", "K2", "--cap", "3"]
    code, out, err = run(capsys, *argv, "--budget", "5000")
    # arity 3 enumerates the 8-row multisets of A^0..A^3 for its S_8 orbits: 1 + 9 + 165 + 6435
    assert code == EXIT_BUDGET and "separator antecedents: 6610 exceeds budget 5000" in err and out == ""
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK and "verdict: equal" in out


def test_verify_dispatches_every_identity(doc_path, capsys, monkeypatch):
    from funcon import ClosureReport

    calls = []

    def recorder(entry):
        def record(name, payload, **kwargs):
            params = {k: kwargs[k] for k in ("n", "m", "cap") if k in kwargs}
            calls.append((entry, name, type(payload).__name__, params))
            return ClosureReport(name, {}, 0, 0)

        return record

    monkeypatch.setattr(cli, "verify_factorization", recorder("factorization"))
    monkeypatch.setattr(cli, "verify_definability", recorder("definability"))
    verify = next(a for a in _build_parser()._actions if a.dest == "command").choices["verify"]
    identity = next(a for a in verify._actions if a.dest == "identity")
    assert list(identity.choices) == "t4 t8 t12 t15i t15ii thm5 thm6 thm13 thm14 cor1 cor2".split()
    k, t = ("--class", "K2"), ("--set", "T2")
    cases = [
        ("t4", "factorization", "t4finite", k, {"cap": 1}),
        ("t8", "factorization", "t8ii", t, {"n": 2, "cap": 1}),
        ("t12", "factorization", "t12ii", t, {"m": 2}),
        ("t15i", "factorization", "t15i", k, {"n": 2, "m": 1}),
        ("t15ii", "factorization", "t15ii", t, {"n": 2, "m": 2}),
        ("thm5", "definability", "thm5", k, {"n": 2}),
        ("thm6", "definability", "thm6", t, {"n": 2, "cap": 2}),
        ("thm13", "definability", "thm13", k, {"n": 2, "m": 1}),
        ("thm14", "definability", "thm14", t, {"n": 1, "m": 2}),
        ("cor1", "definability", "cor1", k, {}),
        ("cor2", "definability", "cor2", t, {"cap": 2}),
    ]
    for identity, entry, name, binding, params in cases:
        argv = ["verify", identity, "--in", doc_path, *binding]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        kind = "FunctionClass" if binding == k else "ConstraintSet"
        assert run(capsys, *argv)[0] == EXIT_OK and calls.pop() == (entry, name, kind, params)
        code, _, err = run(capsys, *argv[:4])  # the binding is missing
        assert code == EXIT_USAGE and f"requires {binding[0]}" in err
        if params:  # the last parameter is missing
            code, _, err = run(capsys, *argv[:-2])
            assert code == EXIT_USAGE and f"requires --{list(params)[-1]}" in err
    assert not calls


def test_laws_axioms_lists_every_failing_sample(capsys, monkeypatch):
    from funcon import ClosureReport

    def failing(k, t, n_cap, m_cap, budget):
        return ClosureReport("galois-axioms", {}, len(k), len(t), ["fsc o csf o fsc != fsc"], "incomparable")

    monkeypatch.setattr(cli, "check_galois_axioms", failing)
    code, out, _ = run(capsys, "laws", "axioms", "--samples", "3")
    assert code == EXIT_DISCREPANCY
    assert "  lhs_size: 3\n  rhs_size: 0\n" in out
    assert [line for line in out.splitlines() if "witness" in line] == [
        f"  witness: sample {i}: fsc o csf o fsc != fsc" for i in (1, 2, 3)
    ]


def test_discrepancy_exit_code(doc_path, capsys, monkeypatch):
    # the theorems hold, so a discrepancy is simulated through the lab layer
    from funcon import ClosureReport

    def fake_verify(identity, payload, **kwargs):
        return ClosureReport("t15i", {}, 1, 0, ["function arity=1 table=[0, 1] (lhs only)"], "lhs_strict")

    monkeypatch.setattr(cli, "verify_factorization", fake_verify)
    code, out, _ = run(capsys, "verify", "t15i", "--in", doc_path, "--class", "K2", "--n", "2", "--m", "1")
    assert code == EXIT_DISCREPANCY
    assert "witness" in out


# the gap instance of test_t15ii_gap: t15ii at n = m = 3 finds a discrepancy
GAP_DOC = {
    "domains": {"bool": 2},
    "relations": {
        "one_in_three": {"domain": "bool", "arity": 3, "tuples": [[0, 0, 1], [0, 1, 0], [1, 0, 0]]},
        "even_parity": {"domain": "bool", "arity": 3, "tuples": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]},
    },
    "constraints": {"c": {"antecedent": "one_in_three", "consequent": "even_parity"}},
    "sets": {"T": {"dom": "bool", "cod": "bool", "members": ["c"]}},
}


@pytest.mark.parametrize(
    "expected, argv",
    [
        (EXIT_OK, ["galois", "csf", "--in", "DOC", "--class", "K2", "--arity", "1"]),
        (EXIT_DISCREPANCY, ["verify", "t15ii", "--in", "GAP", "--set", "T", "--n", "3", "--m", "3"]),
        (EXIT_USAGE, ["close", "vsn", "--in", "DOC"]),
        (EXIT_BUDGET, ["galois", "fsc", "--in", "DOC", "--set", "T2", "--arity", "2", "--budget", "10"]),
        (EXIT_OK, ["--help"]),
        (EXIT_OK, ["galois", "csf", "--in", "DOC", "--cla", "K2", "--ar", "1"]),
        (EXIT_OK, ["galois", "csf", "--in", "DOC", "--class=K2", "--arity=1"]),
    ],
    ids=["ok", "discrepancy", "usage", "budget", "help", "abbreviated", "flag=value"],
)
def test_the_module_as_a_process_exits_and_prints_as_run_command(doc_path, tmp_path, capsys, monkeypatch, expected, argv):
    monkeypatch.delenv("FUNCON_CACHE_DIR", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help text to the terminal width
    gap = tmp_path / "gap.json"
    gap.write_text(json.dumps(GAP_DOC))
    argv = [{"DOC": doc_path, "GAP": str(gap)}.get(word, word) for word in argv]
    code, out, _ = run(capsys, *argv)
    assert code == expected
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "funcon.cli", *argv], env=env, capture_output=True, timeout=120)
    assert proc.returncode == expected, proc.stderr
    assert proc.stdout == out.encode()


# the vocabulary of random_argv: every command word, positional and flag of the parser, a
# command and a positional it does not know, values a well-formed request may hold, and
# tokens that the one-pass reader leaves to argparse or that argparse refuses
COMMANDS = {
    "close": ["vs", "vsn", "lom", "lon", "cmm", "cm"],
    "galois": ["fsc", "csf"],
    "verify": ["t15i", "thm13", "t4", "t15ii"],
    "enumerate": ["functions", "constraints"],
    "laws": ["vsn", "cmm", "axioms"],
    "nope": ["vsn", "nope"],
}
FLAGS = ["--in", "--budget", "--class", "--set", "--n", "--m", "--cap", "--max-indets", "--max-iterations",
         "--arity", "--dom-size", "--cod-size", "--samples", "--seed"]
VALUES = ["1", "2", "3", "0", "x", "K2"]
ODD = ["-h", "--help", "--", "-", "-1", "--cache-dir", "--nope", "--x=y", "--arity=2", "--in=x", "--cla", "--ar",
       "--ma", "--max-it", "--c", "", " 2", "1.5", "vsn", "csf"]


def random_argv(rng):
    """A seeded argv near the grammar: an optional leading --cache-dir, a command word,
    flag-value pairs in any order with the positional before, between or after them,
    then a few random edits."""
    command = rng.choice(list(COMMANDS))
    pairs = [["--in", rng.choice(VALUES)]] if rng.random() < 0.8 else []
    if command == "enumerate" and rng.random() < 0.8:
        pairs.append(["--arity", rng.choice(VALUES[:3])])
    pairs += [[rng.choice(FLAGS), rng.choice(VALUES)] for _ in range(rng.randint(0, 4))]
    rng.shuffle(pairs)
    rest = [token for pair in pairs for token in pair]
    rest.insert(2 * rng.randint(0, len(pairs)), rng.choice(COMMANDS[command]))
    argv = (["--cache-dir", rng.choice(VALUES)] if rng.random() < 0.5 else []) + [command] + rest
    for _ in range(rng.choice([0, 0, 0, 1, 1, 2])):
        edit, at = rng.random(), rng.randrange(len(argv) + 1)
        if edit < 0.5:
            argv.insert(at, rng.choice(ODD + VALUES + FLAGS))
        elif edit < 0.8 and at < len(argv):
            del argv[at]
        elif at < len(argv):
            argv[at] = rng.choice(ODD + VALUES + FLAGS + list(COMMANDS))
    return argv


def reader_sweep(count, seed=0):
    """Read `count` argv of random_argv through the one-pass reader and through argparse;
    every argv the reader takes argparse must accept with the same namespace.  Returns how
    many argv argparse accepted and how many of those the reader took."""
    rng, parser = random.Random(seed), _build_parser()
    accepted = taken = 0
    for _ in range(count):
        argv = random_argv(rng)
        args = _parse(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                expected = parser.parse_args(argv)
        except (SystemExit, SystemExit2):  # help, or a usage error
            assert args is None, argv
            continue
        accepted += 1
        if args is not None:
            assert vars(args) == vars(expected), argv
            taken += 1
    return accepted, taken


def test_reader_reads_what_argparse_reads():
    accepted, taken = reader_sweep(3000)
    assert 0 < taken <= accepted


@pytest.mark.parametrize("words, flags", [
    (["verify", "t15i"], [("--class", "K2"), ("--n", "2"), ("--m", "1")]),
    (["verify", "thm13"], [("--class", "K3"), ("--n", "3"), ("--m", "1")]),
    (["close", "vsn"], [("--class", "K2")]),
    (["close", "lom"], [("--class", "K2"), ("--m", "2")]),
    (["galois", "csf"], [("--class", "K3"), ("--arity", "1")]),
])
def test_reader_takes_every_request_shape_of_the_bench_stream(words, flags):
    for order in itertools.permutations([("--in", "docs/p0.json"), *flags]):
        argv = ["--cache-dir", "cache", *words, *(token for pair in order for token in pair)]
        args = _parse(argv)
        assert args is not None and vars(args) == vars(_build_parser().parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    ["galois", "-h"],
    ["close", "vsn", "--in", "DOC", "--class", "K2", "--nope", "1"],
    ["close", "lom", "--in", "DOC", "--class", "K2", "--max", "1"],
    ["close", "lom", "--in", "DOC", "--class", "K2", "--m=0"],
    ["close", "vsn", "--", "--in", "DOC", "--class", "K2"],
    ["close", "vsn", "--in", "DOC", "--class", "K2", "--cache-dir", "cache"],
    ["laws", "cmm", "--m", "-2"],
    ["close", "vsn", "--class", "K2", "--in"],
    ["close", "vsn", "--in", "--class", "K2"],
    ["close", "lom", "--in", "DOC", "--class", "K2", "--m", "two"],
    ["close", "nope", "--in", "DOC", "--class", "K2"],
    ["close", "vsn", "lom", "--in", "DOC", "--class", "K2"],
    ["close", "vsn", "--class", "K2"],
    ["--cache-dir", "cache"],
], ids=["help", "unknown-flag", "ambiguous-abbreviation", "flag=value", "double-dash", "cache-dir-after-command",
        "negative-number", "missing-value", "value-is-a-flag", "type", "choices", "second-positional",
        "required", "no-command"])
def test_declined_argv_print_what_argparse_prints(doc_path, capsys, argv):
    argv = [doc_path if word == "DOC" else word for word in argv]
    assert _parse(argv) is None
    try:
        _build_parser().parse_args(argv)
    except SystemExit2 as exc:
        code, tail = EXIT_USAGE, f"error: {exc}\n"
    except SystemExit as exc:
        code, tail = exc.code, ""
    else:
        pytest.fail(f"argparse accepted {argv}")
    captured = capsys.readouterr()
    assert run(capsys, *argv) == (code, captured.out, captured.err + tail)


def test_cache_key_frames_each_argument(tmp_path, capsys, monkeypatch):
    # byte-identical documents named y and "y --arity 1": both argv join with spaces to one string
    monkeypatch.delenv("FUNCON_CACHE_DIR", raising=False)
    for name in ("y", "y --arity 1"):
        (tmp_path / name).write_text(DOC)
    y, cache = str(tmp_path / "y"), str(tmp_path / "cache")
    request = ["galois", "csf", "--class", "K2", "--in", y, "--arity", "2", "--in"]
    assert run(capsys, "--cache-dir", cache, *request, y + " --arity 1")[0] == EXIT_OK
    uncached = run(capsys, *request, y, "--arity", "1")
    assert run(capsys, "--cache-dir", cache, *request, y, "--arity", "1")[:2] == uncached[:2]
