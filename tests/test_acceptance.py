"""Acceptance criteria, one test per criterion, plus a pin of the stdout bytes
of criterion 9's commands.

Each criterion test prints exactly one PASS line (visible with -v via the test result,
and in captured output) and enforces its pinned runtime limit.  All sampling
is fixed-seed; domains are Boolean throughout.
"""

import hashlib
import itertools
import json
import random
import time

import pytest

from funcon import (
    Constraint,
    Relation,
    check_closure_laws,
    check_galois_axioms,
    cm_m_closure,
    cm_m_oracle,
    compose_schemes,
    fsc_n,
    lo_m_closure,
    lo_n_closure,
    union_closure_check,
    verify_factorization,
    vs_closure,
    vs_n_closure,
)
from funcon.core import ConstraintSet, DomainSpec, FunctionClass, enumerate_functions
from funcon.lab import (
    nested_class_pair,
    nested_set_pair,
    random_constraint_set,
    random_function_class,
)
from funcon.minors import Scheme, tight_minor_relation

from conftest import BOOL, C_EQ2, C_LEQ, cls, cset, fn, monotone_tables

SEED = 20260823

Q1 = [
    Constraint(Relation(BOOL, 1, r), Relation(BOOL, 1, s))
    for r in range(4)
    for s in range(4)
]


def q1_from_bits(bits):
    return ConstraintSet.from_constraints(
        BOOL, BOOL, (Q1[i] for i in range(16) if (bits >> i) & 1)
    )


def structured_t2_battery():
    """Binary constraint sets: order, equality, graphs of unary functions,
    and mixtures."""
    graphs = []
    for table in itertools.product((0, 1), repeat=2):
        graphs.append(Relation.from_tuples(BOOL, 2, [(a, table[a]) for a in (0, 1)]))
    battery = [
        cset(C_LEQ),
        cset(C_EQ2),
        cset(C_LEQ, C_EQ2),
        cset(Constraint(Relation.full(BOOL, 2), Relation.full(BOOL, 2))),
        cset(Constraint(Relation.empty(BOOL, 2), Relation.empty(BOOL, 2))),
        ConstraintSet.empty(BOOL, BOOL),
    ]
    for g in graphs:
        battery.append(cset(Constraint(g, g)))
    for g1, g2 in itertools.combinations(graphs, 2):
        battery.append(cset(Constraint(g1, g2)))
    rng = random.Random(SEED)
    while len(battery) < 22:
        battery.append(random_constraint_set(rng, BOOL, BOOL, 2, rng.randint(1, 3)))
    return battery


def finish(num, detail, started, limit):
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS — {detail} ({elapsed:.1f}s < {limit}s)")


def test_acceptance_1_closure_laws():
    started = time.time()
    rng = random.Random(SEED)
    ops = {
        "vs_n": (vs_n_closure, "class"),
        "vs": (lambda k: vs_closure(k, 2), "class"),
        "lo_m": (lambda k: lo_m_closure(k, 1), "class"),
        "lo_n": (lambda t: lo_n_closure(t, 1), "set"),
        "cm_m": (lambda t: cm_m_closure(t, 1).constraints, "set"),
    }
    total = 0
    for name, (op, kind) in ops.items():
        if kind == "class":
            samples = (
                nested_class_pair(rng, BOOL, BOOL, 2, rng.randint(0, 4), rng.randint(0, 3))
                for _ in range(500)
            )
        else:
            samples = (
                nested_set_pair(rng, BOOL, BOOL, 1, rng.randint(0, 5), rng.randint(0, 3))
                for _ in range(500)
            )
        rep = check_closure_laws(op, samples, name)
        assert rep.ok, (name, rep.symmetric_difference)
        assert rep.parameters["samples"] >= 500
        total += rep.parameters["samples"]
    # cm_m completeness certificate for the sampled regime
    for _ in range(50):
        t = random_constraint_set(rng, BOOL, BOOL, 1, rng.randint(0, 5))
        assert cm_m_closure(t, 1).constraints == cm_m_oracle(t, 1)
    # exhaustive Q1-subset audit of lo_n at n = 1: extensive and idempotent on
    # all 65536 subsets, monotone on sampled nested pairs
    for bits in range(65536):
        x = q1_from_bits(bits)
        cx = lo_n_closure(x, 1)
        assert x.issubset(cx)
        assert lo_n_closure(cx, 1) == cx
    for _ in range(2000):
        bits = rng.randrange(65536)
        extra = rng.randrange(65536)
        a, b = q1_from_bits(bits), q1_from_bits(bits | extra)
        assert lo_n_closure(a, 1).issubset(lo_n_closure(b, 1))
    finish(1, f"{total} law samples + exhaustive Q1 lo_n audit, zero violations", started, 60)


def test_acceptance_2_galois_axioms():
    started = time.time()
    rng = random.Random(SEED + 1)
    for i in range(200):
        k = random_function_class(rng, BOOL, BOOL, rng.randint(1, 2), rng.randint(0, 3))
        t = random_constraint_set(rng, BOOL, BOOL, rng.randint(1, 2), rng.randint(0, 3))
        rep = check_galois_axioms(k, t, n_cap=2, m_cap=2)
        assert rep.ok, (i, rep.symmetric_difference)
    finish(2, "order reversal, extensivity, triple compositions on 200 instances", started, 30)


def test_acceptance_3_theorem_15i():
    started = time.time()
    singletons = [cls(f) for f in enumerate_functions(BOOL, BOOL, 2)]
    rng = random.Random(SEED + 2)
    randoms = [random_function_class(rng, BOOL, BOOL, 2, rng.randint(0, 6)) for _ in range(200)]
    worked = verify_factorization("t15i", cls(fn((0, 0, 0, 1))), n=2, m=1)
    assert worked.ok and worked.lhs_size == 4  # {AND, OR, pr1, pr2}
    for k in singletons + randoms:
        for m in (1, 2, 3, 4):
            rep = verify_factorization("t15i", k, n=2, m=m)
            assert rep.ok, (m, rep.symmetric_difference)
    finish(3, "FSC2(CSFm(K2)) = Lom(VS2(K2)) on 216 classes, m in 1..4", started, 120)


def test_acceptance_4_theorem_15ii():
    started = time.time()
    rng = random.Random(SEED + 3)
    for i in range(500):
        t = q1_from_bits(rng.randrange(65536))
        for n in (1, 2):
            rep = verify_factorization("t15ii", t, n=n, m=1)
            assert rep.ok, (i, n, rep.symmetric_difference)
    battery = structured_t2_battery()
    assert len(battery) >= 20
    for i, t in enumerate(battery):
        rep = verify_factorization("t15ii", t, n=4, m=2)
        assert rep.ok, (i, rep.symmetric_difference)
    finish(4, f"CSFm(FSCn(Tm)) = LOn(CMm(Tm)): 500 Q1 subsets (n=1,2) + {len(battery)} T2 (n=4)", started, 600)


def test_acceptance_5_cm2_oracle_cross_check():
    started = time.time()
    enum_start = time.time()
    tables = list(enumerate_functions(BOOL, BOOL, 4))
    enum_elapsed = time.time() - enum_start
    assert len(tables) == 65536
    assert enum_elapsed < 5, f"4-ary enumeration took {enum_elapsed:.1f}s"
    monotone = monotone_tables(4)
    assert len(monotone) == 168  # independent pointwise-monotonicity count
    assert set(fsc_n(cset(C_LEQ), 4).tables()) == set(monotone)
    for t in structured_t2_battery():
        res = cm_m_closure(t, 2)
        assert res.converged
        assert res.constraints == cm_m_oracle(t, 2), "bounded closure missed the oracle"
    finish(5, "cm_2 = oracle on the battery; |FSC4({(leq,leq)})| = 168", started, 120)


def test_acceptance_6_transitivity_lemma():
    started = time.time()
    rng = random.Random(SEED + 4)
    for _ in range(200):
        target = rng.randint(1, 2)
        outer_sources = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
        v_outer = rng.randrange(3)
        outer = Scheme(
            target,
            v_outer,
            tuple(
                tuple(rng.randrange(target + v_outer) for _ in range(a))
                for a in outer_sources
            ),
        )
        inners, leaves = [], []
        for h in outer.maps:
            srcs = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
            v_in = rng.randrange(3)
            inners.append(
                Scheme(
                    len(h),
                    v_in,
                    tuple(tuple(rng.randrange(len(h) + v_in) for _ in range(a)) for a in srcs),
                )
            )
            leaves.append([Relation(BOOL, a, rng.randrange(1 << 2**a)) for a in srcs])
        flat = compose_schemes(outer, inners)
        hierarchical = tight_minor_relation(
            [tight_minor_relation(rels, s, BOOL, 4) for rels, s in zip(leaves, inners)],
            outer,
            BOOL,
            4,
        )
        flattened = tight_minor_relation(
            [r for rels in leaves for r in rels], flat, BOOL, 8
        )
        assert flattened == hierarchical
    finish(6, "flattened = hierarchical tight minors on 200 random compositions", started, 30)


def relaxation_close_q1(bits):
    """All relaxations of the selected Q1 constraints, as a subset bitmask."""
    out = 0
    for i in range(16):
        if not (bits >> i) & 1:
            continue
        r, s = divmod(i, 4)
        for r2 in range(4):
            if r2 & ~r:
                continue
            for s2 in range(4):
                if s & ~s2:
                    continue
                out |= 1 << (r2 * 4 + s2)
    return out


def test_acceptance_7_proposition_1():
    started = time.time()
    rng = random.Random(SEED + 5)
    seen = set()
    for _ in range(3000):
        closed_bits = relaxation_close_q1(rng.randrange(65536))
        seen.add(closed_bits)
    discrepancies = 0
    for bits in sorted(seen):
        t = q1_from_bits(bits)
        unions_ok, _ = union_closure_check(t)
        lo_identity = lo_n_closure(t, 1) == t
        if unions_ok != lo_identity:
            discrepancies += 1
    assert discrepancies == 0
    finish(
        7,
        f"union-closure iff lo_1-identity on {len(seen)} relaxation-closed Q1 subsets",
        started,
        120,
    )


def test_acceptance_8_chain_stabilization():
    started = time.time()
    rng = random.Random(SEED + 6)
    # function-side chains stabilize at m* = |A|^n
    for _ in range(100):
        k = random_function_class(rng, BOOL, BOOL, 2, rng.randint(0, 5))
        chain = [lo_m_closure(k, m) for m in (1, 2, 3, 4, 5)]
        for bigger, smaller in zip(chain, chain[1:]):
            assert smaller.issubset(bigger)  # descending
        assert chain[3] == chain[4] == k  # m* = |A|^2 = 4
    # constraint-side chains stabilize at n* = |A|^m
    for _ in range(100):
        t = q1_from_bits(rng.randrange(65536))
        base = cm_m_closure(t, 1).constraints
        chain = [lo_n_closure(base, n) for n in (1, 2, 3)]
        for bigger, smaller in zip(chain, chain[1:]):
            assert smaller.issubset(bigger)
        assert chain[1] == chain[2] == base  # n* = |A|^1 = 2
    finish(8, "lo_m and lo_n chains descend and stabilize on 100 instances each", started, 120)


ACCEPTANCE_9_DOC = {
    "domains": {"bool": 2},
    "functions": {"and": {"dom": "bool", "cod": "bool", "arity": 2, "table": [0, 0, 0, 1]}},
    "relations": {"leq": {"domain": "bool", "arity": 2, "tuples": [[0, 0], [0, 1], [1, 1]]}},
    "constraints": {"c_leq": {"antecedent": "leq", "consequent": "leq"}},
    "classes": {"K2": {"dom": "bool", "cod": "bool", "members": ["and"]}},
    "sets": {"T2": {"dom": "bool", "cod": "bool", "members": ["c_leq"]}},
}


def acceptance_9_commands(doc):
    return [
        ["close", "vsn", "--in", doc, "--class", "K2"],
        ["close", "cmm", "--in", doc, "--set", "T2", "--m", "2"],
        ["close", "lon", "--in", doc, "--set", "T2", "--n", "2"],
        ["galois", "fsc", "--in", doc, "--set", "T2", "--arity", "2"],
        ["galois", "csf", "--in", doc, "--class", "K2", "--arity", "1"],
        ["verify", "t15i", "--in", doc, "--class", "K2", "--n", "2", "--m", "1"],
        ["verify", "t15ii", "--in", doc, "--set", "T2", "--n", "4", "--m", "2"],
        ["enumerate", "functions", "--arity", "2"],
        ["laws", "vsn", "--samples", "20", "--seed", "5"],
    ]


def test_acceptance_9_cli_determinism(tmp_path, capsys):
    from funcon.cli import run_command

    started = time.time()
    doc = tmp_path / "ex.json"
    doc.write_text(json.dumps(ACCEPTANCE_9_DOC))
    commands = acceptance_9_commands(str(doc))
    for argv in commands:
        outs = []
        for _ in range(2):
            code = run_command(list(argv))
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            outs.append(captured.out)
        assert outs[0] == outs[1], f"non-deterministic output for {argv}"
    # cache hit must preserve bytes exactly
    cache_argv = ["--cache-dir", str(tmp_path / "cache")] + commands[1]
    first_code = run_command(list(cache_argv))
    first = capsys.readouterr().out
    second_code = run_command(list(cache_argv))
    second = capsys.readouterr().out
    assert first_code == second_code == 0
    assert first == second
    finish(9, f"{len(commands)} commands byte-identical across runs; cache preserves bytes", started, 120)


# commands whose stdout is pinned beside acceptance 9's own: a closure suite and
# the axioms of `laws`, two definability checks, a galois union and a cm
# closure cut off by --max-iterations
PINNED_EXTRA = [
    ["laws", "axioms", "--samples", "10", "--seed", "5"],
    ["verify", "thm13", "--in", "DOC", "--class", "K2", "--n", "2", "--m", "1"],
    ["verify", "thm14", "--in", "DOC", "--set", "T2", "--n", "2", "--m", "2"],
    ["galois", "fsc", "--in", "DOC", "--set", "T2", "--cap", "2"],
    ["close", "cmm", "--in", "DOC", "--set", "T2", "--m", "2", "--max-iterations", "1"],
]

# sha256 and length of the stdout of each command of acceptance 9 and then of
# PINNED_EXTRA, recorded before listings were joined from fragments (the
# first eight) and before the CLI wrote every command's output in one place
ACCEPTANCE_9_STDOUT = [
    ("e3abbd52ae7fac2e4808615330453aa717f720a2c01edf0e8aee1c90a5e7466d", 352),
    ("04282d82d0d99232baa8fff4b6bec65be916a033459fadebb3201e88f5dd7674", 13472),
    ("f2b94b117260bd13ebac92a16312e4d616f8d1db3d15576679a79bb24bec1406", 419),
    ("cdb47d80d0ecddfad348bd577bb085ee37e32261f1f496b7e05358526cba3827", 649),
    ("d6e8cca710936db3f09d6316a8f3a950f9eb3a9fed6dfbae8e90b8d02786c825", 1427),
    ("a297e23324984090cce74bcb785721cabe858644bb547db793d2c0ba35bde7c8", 72),
    ("0d9e6bf8253f58556eac2f59bbdda5fc30734fcd8b919fa9840664b6d1a277f2", 113),
    ("668175e4615a2850ef8d5962ee2174378f184656717d481c27527eb147c08b60", 1640),
    ("efc8ba8f2952490d62e3f8955322b76923e354ec85716c4376141d52e509b1ac", 83),
    ("d320a56a12bf79d846ecc1ff4db0b9c832d3e6dd7a0b3fa8babbdd40d114ac4a", 93),
    ("1e3ae3506fbf1c6eedc901906ed3e17ea018e454341b408302380a8d00bd2d93", 113),
    ("8f4eed641f858bbf1d281fd578da2b7b4e8e06530638d3494c84073925bc172f", 113),
    ("fec0ddcf1e5554211f5359999b78f5a2d9adbcd53c285ed11483364473203d1f", 880),
    ("04282d82d0d99232baa8fff4b6bec65be916a033459fadebb3201e88f5dd7674", 13472),
]


def test_acceptance_9_stdout_bytes_are_pinned(tmp_path, capsys):
    from funcon.cli import run_command

    doc = tmp_path / "ex.json"
    doc.write_text(json.dumps(ACCEPTANCE_9_DOC))
    extra = [[str(doc) if word == "DOC" else word for word in argv] for argv in PINNED_EXTRA]
    commands = acceptance_9_commands(str(doc)) + extra
    assert len(commands) == len(ACCEPTANCE_9_STDOUT)
    for argv, pinned in zip(commands, ACCEPTANCE_9_STDOUT):
        cached = ["--cache-dir", str(tmp_path / "cache")]
        for cache in ([], cached, cached):  # uncached, then a cache miss and a hit
            assert run_command(cache + argv) == 0
            out = capsys.readouterr().out
            assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == pinned, argv


# one document over A = {0, 1, 2} and B = {0, 1}: classes and sets from A to B
# and from B to A, for the (3, 2) and (2, 3) runs pinned below
OFF_DIAGONAL_DOC = {
    "domains": {"A": 3, "B": 2},
    "functions": {
        "ab": {"dom": "A", "cod": "B", "arity": 2, "table": [0, 1, 1, 0, 0, 1, 1, 1, 0]},
        "ba": {"dom": "B", "cod": "A", "arity": 2, "table": [2, 0, 1, 2]},
    },
    "relations": {
        "a1": {"domain": "A", "arity": 1, "tuples": [[0], [2]]},
        "a2": {"domain": "A", "arity": 2, "tuples": [[0, 1], [2, 2]]},
        "a2_wide": {"domain": "A", "arity": 2, "tuples": [[0, 0], [0, 2], [1, 0], [1, 2], [2, 1], [2, 2]]},
        "b1": {"domain": "B", "arity": 1, "tuples": [[1]]},
        "b2": {"domain": "B", "arity": 2, "tuples": [[0, 0], [0, 1], [1, 1]]},
        "b2_eq": {"domain": "B", "arity": 2, "tuples": [[0, 0], [1, 1]]},
    },
    "constraints": {
        "c32": {"antecedent": "a2", "consequent": "b2"},
        "c32_eq": {"antecedent": "a2", "consequent": "b2_eq"},
        "c32_1": {"antecedent": "a1", "consequent": "b1"},
        "c23": {"antecedent": "b2", "consequent": "a2_wide"},
        "c23_1": {"antecedent": "b1", "consequent": "a1"},
    },
    "classes": {"K32": {"dom": "A", "cod": "B", "members": ["ab"]}, "K23": {"dom": "B", "cod": "A", "members": ["ba"]}},
    "sets": {
        "T32": {"dom": "A", "cod": "B", "members": ["c32", "c32_eq"]},
        "T32_1": {"dom": "A", "cod": "B", "members": ["c32_1"]},
        "T23": {"dom": "B", "cod": "A", "members": ["c23"]},
        "T23_1": {"dom": "B", "cod": "A", "members": ["c23_1"]},
    },
}

# per command on OFF_DIAGONAL_DOC: exit code, sha256 and length of stdout; at
# (3, 2) verify t12 refuses FSC over the 2^27 ternary tables (exit 3)
OFF_DIAGONAL_STDOUT = [
    (["verify", "t15ii", "--set", "T32", "--n", "2", "--m", "2"], (0, "c81ea6aaa402e42ff19cd6a3a10e4a9ee352f27f41baa3a93cc44f43f01d80c9", 115)),
    (["verify", "t12", "--set", "T32_1", "--m", "1"], (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0)),
    (["verify", "thm14", "--set", "T32", "--n", "2", "--m", "2"], (0, "8f4eed641f858bbf1d281fd578da2b7b4e8e06530638d3494c84073925bc172f", 113)),
    (["close", "cmm", "--set", "T32", "--m", "2"], (0, "0ed31920245d0c80f2bab988f21c6e87a9df9f77d0a1a3279849ce92983dd080", 258365)),
    (["close", "lon", "--set", "T32", "--n", "1"], (0, "e4c29959f0829a403a1e2397aa6a65a30b011162291a90787d6f78010d8b3402", 647)),
    (["galois", "csf", "--class", "K32", "--arity", "2"], (0, "aa5b747e07922a63421cc41673761ca4f409daae56d1daf206cf0b71aaa0e87a", 305565)),
    (["verify", "t15ii", "--set", "T23", "--n", "1", "--m", "2"], (0, "60914f4febb7366f8571960663717704a7710bfb67f920e18df517e72351f02f", 117)),
    (["verify", "t12", "--set", "T23_1", "--m", "1"], (0, "99069b1b55ed4b9081b36fa2fd627cec4a9b613a6b0a2f6fd181bd54664f469a", 118)),
    (["verify", "thm14", "--set", "T23", "--n", "2", "--m", "2"], (0, "8f4eed641f858bbf1d281fd578da2b7b4e8e06530638d3494c84073925bc172f", 113)),
    (["close", "cmm", "--set", "T23", "--m", "2"], (0, "6055037aab253948118f7f55e1ed0096c702e3d6757b97fd04f87c9db384f59f", 606258)),
    (["close", "lon", "--set", "T23", "--n", "2"], (0, "8eb1b4e48a4dcb20686ebe595a549aeffd80d7e59779f7352ba414c7b03361c1", 557)),
    (["galois", "csf", "--class", "K23", "--arity", "2"], (0, "b7655fa2d1f80d0ede1bb8942a143ff08c0085603b92293928724318675374bd", 709922)),
]


def test_acceptance_9_off_diagonal_stdout_is_pinned(tmp_path, capsys):
    from funcon.cli import run_command

    doc = tmp_path / "off.json"
    doc.write_text(json.dumps(OFF_DIAGONAL_DOC))
    for argv, pinned in OFF_DIAGONAL_STDOUT:
        argv = argv[:2] + ["--in", str(doc)] + argv[2:]
        code = run_command(argv)
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest(), len(out)) == pinned, argv
