import random

import pytest

from funcon import (
    Constraint,
    ConstraintSet,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    Relation,
    canonical_constraint,
    minor_check,
    relaxation_of,
    tuple_rank,
    tuple_unrank,
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


def minor_witnesses(res, t):
    """Re-check the witness of every member of a cm result: a seed is in t or
    canonical, a relaxation relaxes a member, a minor is the tight minor of
    members.  Returns the (member, witness) pairs of kind minor."""
    members = res.constraints
    assert set(res.witnesses) == set(members.constraints())
    seeds = set(t.constraints()) | {
        canonical_constraint(kind, m, t.dom, t.cod) for kind in ("equality", "empty") for m in members.arities()
    }
    minors, parents = [], {}  # most members relax one of a few floors: check each parent once
    for c, wit in res.witnesses.items():
        if wit.kind == "seed":
            assert c in seeds
        elif wit.kind == "relaxation":
            parent = parents.get((c.arity, wit.parent))
            if parent is None:
                parent = parents[c.arity, wit.parent] = members.decode(c.arity, wit.parent)
                assert parent in members
            assert relaxation_of(c, parent)
        else:
            assert all(f in members for f in wit.family)
            assert minor_check(c, list(wit.family), wit.scheme, "tight", max_indets=wit.scheme.indets)
            minors.append((c, wit))
    return minors


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


# relabelings: value permutations pi_A, pi_B (lists, element a goes to pi[a])
# and variable permutations tau of the functions, one per arity


def moved_ranks(size, arity, perm, sigma=None):
    """Entry r: the rank of the tuple of rank r over size^arity with perm
    applied to every coordinate, and coordinate i then read from coordinate
    sigma[i] (the identity when absent)."""
    order = sigma or range(arity)
    return [tuple_rank([perm[x[i]] for i in order], size)
            for x in (tuple_unrank(r, size, arity) for r in range(size**arity))]


def relabel_bits(bits, moved):
    """The rank mask ``bits`` with bit r moved to bit moved[r]."""
    return sum(1 << to for r, to in enumerate(moved) if bits >> r & 1)


def relabel_class(k, pi_a, pi_b, taus=None):
    """Every member f of k as g(x_1..x_n) = pi_b(f(y_1..y_n)) with y_i =
    pi_a^-1(x_tau(i)), tau = ``taus[n]`` (the identity when absent).  g
    satisfies (pi_a R, pi_b S) iff f satisfies (R, S), and the variable
    order of a member changes no constraint it satisfies."""
    size = k.dom.size
    inverse_a = [pi_a.index(a) for a in range(size)]
    tables = []
    for n in k.arities():
        tau = (taus or {}).get(n, range(n))
        points = [tuple_unrank(x, size, n) for x in range(size**n)]
        sources = [tuple_rank([inverse_a[x[t]] for t in tau], size) for x in points]
        for f in k.members(n):
            tables.append(FunctionTable(k.dom, k.cod, n, tuple(pi_b[f.table[y]] for y in sources)))
    return FunctionClass.from_tables(k.dom, k.cod, tables)


def relabel_constraints(t, pi_a, pi_b, sigmas=None):
    """Every member (R, S) of t as (pi_a R, pi_b S), with the coordinates of
    both permuted by sigma = ``sigmas[m]`` at arity m (the identity when
    absent): relabeling values and coordinates keeps satisfaction."""
    by_arity = {}
    for m in t.arities():
        sigma = (sigmas or {}).get(m)
        moved_a, moved_b = moved_ranks(t.dom.size, m, pi_a, sigma), moved_ranks(t.cod.size, m, pi_b, sigma)
        by_arity[m] = [(relabel_bits(r, moved_a), relabel_bits(s, moved_b)) for r, s in t.ranks(m)]
    return ConstraintSet(t.dom, t.cod, by_arity)
