import json

import pytest

from funcon.cli import (
    EXIT_BUDGET,
    EXIT_DISCREPANCY,
    EXIT_OK,
    EXIT_USAGE,
    run_command,
)

DOC = """{
  "domains": {"bool": 2},
  "functions": {"and": {"dom": "bool", "cod": "bool", "arity": 2, "table": [0, 0, 0, 1]}},
  "relations": {"leq": {"domain": "bool", "arity": 2, "tuples": [[0, 0], [0, 1], [1, 1]]}},
  "constraints": {"c_leq": {"antecedent": "leq", "consequent": "leq"}},
  "classes": {"K2": {"dom": "bool", "cod": "bool", "members": ["and"]}},
  "sets": {"T2": {"dom": "bool", "cod": "bool", "members": ["c_leq"]}}
}"""


@pytest.fixture
def doc_path(tmp_path):
    path = tmp_path / "ex.json"
    path.write_text(DOC)
    return str(path)


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
    assert list((tmp_path / "cache").glob("*.json"))  # entry was written


def test_usage_errors(doc_path, capsys):
    code, _, err = run(capsys, "close", "vsn", "--in", doc_path)
    assert code == EXIT_USAGE and "--class" in err
    code, _, err = run(capsys, "galois", "fsc", "--in", doc_path, "--set", "T2")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "close", "vsn", "--in", "/nonexistent.json", "--class", "K2")
    assert code == EXIT_USAGE


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    code, _, err = run(capsys, "close", "vsn", "--in", str(bad), "--class", "K2")
    assert code == EXIT_USAGE and "syntax error" in err


def test_budget_refusal_exit_code(doc_path, capsys):
    code, _, err = run(
        capsys, "galois", "fsc", "--in", doc_path, "--set", "T2", "--arity", "5", "--budget", "100"
    )
    assert code == EXIT_BUDGET and "budget" in err.lower()


def test_t4_budget_refusal_exit_code(doc_path, capsys):
    code, out, err = run(capsys, "verify", "t4", "--in", doc_path, "--class", "K2", "--cap", "3")
    assert code == EXIT_BUDGET and "separating constraints" in err and out == ""


def test_verify_dispatches_every_identity(doc_path, capsys, monkeypatch):
    from funcon import ClosureReport
    import funcon.cli as cli

    calls = []

    def recorder(entry):
        def record(name, payload, **kwargs):
            params = {k: kwargs[k] for k in ("n", "m", "cap") if k in kwargs}
            calls.append((entry, name, type(payload).__name__, params))
            return ClosureReport(name, {}, 0, 0)

        return record

    monkeypatch.setattr(cli, "verify_factorization", recorder("factorization"))
    monkeypatch.setattr(cli, "verify_definability", recorder("definability"))
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


def test_discrepancy_exit_code(doc_path, capsys, monkeypatch):
    # the theorems hold, so a discrepancy is simulated through the lab layer
    from funcon import ClosureReport
    import funcon.cli as cli

    def fake_verify(identity, payload, **kwargs):
        return ClosureReport("t15i", {}, 1, 0, ["function arity=1 table=[0, 1] (lhs only)"], "lhs_strict")

    monkeypatch.setattr(cli, "verify_factorization", fake_verify)
    code, out, _ = run(capsys, "verify", "t15i", "--in", doc_path, "--class", "K2", "--n", "2", "--m", "1")
    assert code == EXIT_DISCREPANCY
    assert "witness" in out
