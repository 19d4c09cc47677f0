import random

import pytest

from funcon import (
    Constraint,
    ConstraintSet,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    Relation,
)

BOOL = DomainSpec("bool", 2)


def fn(table, arity=None, dom=BOOL, cod=BOOL):
    if arity is None:
        n, size = 0, dom.size
        while size**n < len(table):
            n += 1
        arity = n
    return FunctionTable(dom, cod, arity, tuple(table))


AND = fn((0, 0, 0, 1))
OR = fn((0, 1, 1, 1))
XOR = fn((0, 1, 1, 0))
NAND = fn((1, 1, 1, 0))
PR1 = fn((0, 0, 1, 1))
PR2 = fn((0, 1, 0, 1))
IDENTITY = fn((0, 1))
NEGATION = fn((1, 0))

LEQ = Relation.from_tuples(BOOL, 2, [(0, 0), (0, 1), (1, 1)])
GEQ = Relation.from_tuples(BOOL, 2, [(0, 0), (1, 0), (1, 1)])
EQ2 = Relation.from_tuples(BOOL, 2, [(0, 0), (1, 1)])
C_LEQ = Constraint(LEQ, LEQ)
C_EQ2 = Constraint(EQ2, EQ2)


def cls(*tables, dom=BOOL, cod=BOOL):
    return FunctionClass.from_tables(dom, cod, tables)


def cset(*constraints, dom=BOOL, cod=BOOL):
    return ConstraintSet.from_constraints(dom, cod, constraints)


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def cm_m_calls(monkeypatch):
    """The bounds of every ``cm_m_closure`` call the lab makes during a test."""
    import funcon.lab as lab

    calls, real = [], lab.cm_m_closure

    def counted(t_m, m, bounds, budget):
        calls.append(bounds)
        return real(t_m, m, bounds, budget)

    monkeypatch.setattr(lab, "cm_m_closure", counted)
    return calls


def monotone_tables(arity):
    """Independent oracle: pointwise-monotone Boolean tables of a given arity,
    checked by comparing all coordinatewise-ordered argument pairs."""
    from itertools import product

    points = list(product((0, 1), repeat=arity))
    idx = {p: i for i, p in enumerate(points)}
    pairs = [
        (idx[p], idx[q])
        for p in points
        for q in points
        if all(a <= b for a, b in zip(p, q))
    ]
    out = []
    for table in product((0, 1), repeat=2**arity):
        if all(table[i] <= table[j] for i, j in pairs):
            out.append(fn(table, arity))
    return out
