"""Differential tests of the bit-sliced Galois kernels against scalar
references built from ``satisfies`` over the enumerated function and
constraint universes, on seeded instances off the Boolean domain too."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import funcon
from funcon import (
    Constraint,
    ConstraintSet,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    Relation,
    csf_m,
    enumerate_constraints,
    enumerate_functions,
    fsc_n,
    fsc_n_of_csf_m,
    lo_m_closure,
    random_function_class,
    satisfies,
)

# (|A|, |B|) with the function arities n and the constraint arities m at
# which the scalar references stay small; csf_reference scans the whole
# m-ary constraint universe, 2^18 constraints at (3, 3) and m = 2
DOMAIN_PAIRS = [
    ((2, 2), (1, 2, 3), (1, 2)),
    ((3, 2), (1, 2), (1, 2)),
    ((2, 3), (1, 2), (1, 2)),
    ((3, 3), (1, 2), (1,)),
]


def domains(sizes):
    a, b = sizes
    dom = DomainSpec("a", a)
    return dom, (dom if a == b else DomainSpec("b", b))


def fsc_reference(t: ConstraintSet, n: int) -> FunctionClass:
    return FunctionClass.from_tables(
        t.dom,
        t.cod,
        (
            f
            for f in enumerate_functions(t.dom, t.cod, n)
            if all(satisfies(f, c) for c in t.constraints())
        ),
    )


def csf_reference(k: FunctionClass, m: int) -> ConstraintSet:
    return ConstraintSet.from_constraints(
        k.dom,
        k.cod,
        (
            c
            for c in enumerate_constraints(k.dom, k.cod, m)
            if all(satisfies(f, c) for f in k.tables())
        ),
    )


def lo_m_reference(k: FunctionClass, m: int) -> FunctionClass:
    """Every table agreeing with some member on each point subset of size <= m."""
    kept = []
    for n in k.arities():
        points = k.dom.size**n
        subsets = [
            s for d in range(1, min(m, points) + 1) for s in itertools.combinations(range(points), d)
        ]
        members = k.members(n)
        for g in enumerate_functions(k.dom, k.cod, n):
            if all(
                any(all(g.table[p] == f.table[p] for p in s) for f in members) for s in subsets
            ):
                kept.append(g)
    return FunctionClass.from_tables(k.dom, k.cod, kept)


def random_constraint(rng, dom, cod, m):
    """A small antecedent with a dense consequent, so fsc stays non-trivial."""
    ante_universe, cons_universe = dom.size**m, cod.size**m
    ante = rng.sample(range(ante_universe), rng.randint(1, min(3, ante_universe)))
    cons = rng.sample(range(cons_universe), rng.randint(cons_universe // 2, cons_universe))
    return Constraint(Relation.from_ranks(dom, m, ante), Relation.from_ranks(cod, m, cons))


@pytest.mark.parametrize("sizes, arities, constraint_arities", DOMAIN_PAIRS)
def test_fsc_n_matches_scalar_reference(sizes, arities, constraint_arities):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    for m in (1, 2):
        for _ in range(3):
            t = ConstraintSet.from_constraints(
                dom, cod, [random_constraint(rng, dom, cod, m) for _ in range(rng.randint(1, 2))]
            )
            for n in arities:
                assert fsc_n(t, n) == fsc_reference(t, n)


@pytest.mark.parametrize("sizes, arities, constraint_arities", DOMAIN_PAIRS)
def test_csf_m_matches_scalar_reference(sizes, arities, constraint_arities):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    for n in arities[:2]:
        for count in (1, 3):
            k = random_function_class(rng, dom, cod, n, count)
            if n > 1:  # a class over two arities
                k = k | random_function_class(rng, dom, cod, 1, 1)
            for m in constraint_arities:
                assert csf_m(k, m) == csf_reference(k, m)


@pytest.mark.parametrize("sizes, arities, constraint_arities", DOMAIN_PAIRS)
def test_lo_m_closure_matches_pattern_reference(sizes, arities, constraint_arities):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    for n in arities[:2]:
        k = random_function_class(rng, dom, cod, n, 3)
        for m in (1, 2, 3):
            assert lo_m_closure(k, m) == lo_m_reference(k, m)


@pytest.mark.parametrize("sizes, arities, constraint_arities", DOMAIN_PAIRS)
def test_fsc_n_of_csf_m_matches_scalar_reference(sizes, arities, constraint_arities):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    for n in arities[:2]:
        k = random_function_class(rng, dom, cod, n, 2)
        for m in constraint_arities:
            assert fsc_n_of_csf_m(k, n, m) == fsc_reference(csf_reference(k, m), n)


def test_csf_1_of_boolean_arity_5_class_evaluates_members():
    # 2^32 arity-5 tables exceed the default budget, so no column table exists
    # and the probe masks come from the members one by one
    bool_ = DomainSpec("bool", 2)
    rng = random.Random(5)
    tables = [
        FunctionTable(bool_, bool_, 5, tuple(rng.randrange(2) for _ in range(32)))
        for _ in range(3)
    ]
    parity = FunctionTable(bool_, bool_, 5, tuple(bin(r).count("1") % 2 for r in range(32)))
    for members in (tables, tables[:1], [parity]):
        k = FunctionClass.from_tables(bool_, bool_, members)
        assert csf_m(k, 1) == csf_reference(k, 1)


def test_missing_verify_parameter_raises_under_optimize():
    # the parameter checks are exceptions, so they survive python -O
    script = (
        "import sys\n"
        "from funcon import DomainSpec, FunctionClass, verify_factorization\n"
        "bool_ = DomainSpec('bool', 2)\n"
        "try:\n"
        "    verify_factorization('t15i', FunctionClass.empty(bool_, bool_), n=2)\n"
        "except ValueError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(funcon.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1 t15i needs parameter m"
