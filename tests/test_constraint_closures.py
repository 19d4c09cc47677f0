import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funcon import (
    CmBounds,
    Constraint,
    DomainSpec,
    Relation,
    canonical_constraint,
    cm_closure,
    cm_m_closure,
    cm_m_oracle,
    lo_constraints_closure,
    lo_n_closure,
    minor_check,
    relaxation_of,
    union_closure_check,
)
from funcon.core import BudgetExceededError, ConstraintSet, constraint_universe_count

from conftest import BOOL, C_EQ2, C_LEQ, GEQ, cset, minor_witnesses, moved_ranks, relabel_bits, relabel_constraints


def q1_subset(rng, count):
    universe = [
        Constraint(Relation(BOOL, 1, r), Relation(BOOL, 1, s))
        for r in range(4)
        for s in range(4)
    ]
    return ConstraintSet.from_constraints(BOOL, BOOL, rng.sample(universe, count))


def test_cm_1_closure_matches_oracle_exhaustively():
    # every subset of a small sample of Q1 singletons
    rng = random.Random(5)
    for _ in range(40):
        t = q1_subset(rng, rng.randint(0, 4))
        res = cm_m_closure(t, 1)
        assert res.converged
        assert res.constraints == cm_m_oracle(t, 1)


def test_cm_2_worked_instance():
    res = cm_m_closure(cset(C_LEQ), 2)
    assert res.converged
    assert len(res.constraints) == 48
    assert Constraint(GEQ, GEQ) in res.constraints  # the swapped order
    assert res.constraints == cm_m_oracle(cset(C_LEQ), 2)


def test_cm_seeds_distinguished_constraints():
    res = cm_m_closure(ConstraintSet.empty(BOOL, BOOL), 2)
    assert canonical_constraint("equality", 2, BOOL, BOOL) in res.constraints
    assert canonical_constraint("empty", 2, BOOL, BOOL) in res.constraints
    assert canonical_constraint("trivial", 2, BOOL, BOOL) in res.constraints
    assert res.constraints == cm_m_oracle(ConstraintSet.empty(BOOL, BOOL), 2)


def test_cm_closure_is_relaxation_closed():
    members = cm_m_closure(cset(C_LEQ), 2).constraints
    for c in members.constraints():
        for r_bits in range(16):
            if r_bits & ~c.antecedent.bits:
                continue
            for s_bits in range(16):
                if c.consequent.bits & ~s_bits:
                    continue
                relaxed = Constraint(Relation(BOOL, 2, r_bits), Relation(BOOL, 2, s_bits))
                assert relaxation_of(relaxed, c)
                assert relaxed in members


def test_cm_witnesses_recheck_via_minor_check():
    res = cm_m_closure(cset(C_LEQ), 2)
    checked = 0
    for c, wit in res.witnesses.items():
        if wit.kind == "minor":
            assert minor_check(c, list(wit.family), wit.scheme, "conjunctive", max_indets=4)
            checked += 1
        elif wit.kind == "relaxation":
            r, s = wit.parent
            parent = Constraint(Relation(BOOL, 2, r), Relation(BOOL, 2, s))
            assert relaxation_of(c, parent)
    assert checked > 0


def test_cm_3_closure_of_even_parity_is_pinned():
    even = Relation.from_tuples(
        BOOL, 3, [t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 0]
    )
    t = cset(Constraint(even, even))
    res = cm_m_closure(t, 3)
    assert res.converged
    assert len(res.constraints) == 2360
    assert minor_witnesses(res, t)


def test_cm_cross_arity_closure():
    res = cm_closure(cset(C_LEQ), cap=2)
    assert res.converged
    # the binary part reproduces the single-arity closure
    binary, unary = (ConstraintSet(BOOL, BOOL, {m: res.constraints.ranks(m)}) for m in (2, 1))
    assert binary == cm_m_closure(cset(C_LEQ), 2).constraints
    # the unary part agrees with its own oracle
    assert unary == cm_m_oracle(unary, 1)
    # every witness re-checks where minor families mix arities 1 and 2
    one = Relation.from_tuples(BOOL, 1, [(1,)])
    t = cset(C_LEQ, Constraint(one, one))
    res = cm_closure(t, cap=2)
    assert res.converged
    minors = minor_witnesses(res, t)
    assert any(len({f.arity for f in wit.family} | {c.arity}) > 1 for c, wit in minors)


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(shape=st.sampled_from([(2, 2, 1), (2, 2, 2), (2, 3, 1)]), data=st.data())
def test_cm_m_closure_matches_oracle_on_random_sets(shape, data):
    sa, sb, m = shape
    dom, cod = DomainSpec("A", sa), DomainSpec("B", sb)
    total = constraint_universe_count(dom, cod, m)
    picked = data.draw(st.lists(st.integers(0, total - 1), max_size=4), label="pair indices")
    # index i is the pair (r, s) with i = r * 2^(|B|^m) + s
    t = ConstraintSet(dom, cod, {m: {divmod(i, 2 ** (sb**m)) for i in picked}})
    res = cm_m_closure(t, m)
    assert res.converged
    assert res.constraints == cm_m_oracle(t, m)


# (|A|, |B|), the seed pairs, and the closure's size and sorted-rank digest
OFF_DIAGONAL_M2 = [
    ((3, 2), [(485, 13), (489, 13)], 2060, "dd46831605cc6507"),
    ((3, 2), [(406, 9), (420, 1)], 4104, "80aba38b9d284680"),
    ((2, 3), [(2, 291), (13, 410)], 1920, "bd5adedb3ad8ae63"),
    ((2, 3), [(2, 202), (5, 485)], 1366, "e2c3d3ebd97ff8b2"),
    ((3, 3), [(388, 455), (432, 197)], 13536, "88be2c174a6525f8"),
    ((3, 3), [(52, 369), (120, 155)], 21760, "046cba2fe4926b4f"),
]


@pytest.mark.parametrize("sizes, seeds, size, digest", OFF_DIAGONAL_M2)
def test_cm_2_closure_off_the_boolean_diagonal_is_pinned(sizes, seeds, size, digest):
    # no oracle reaches (3, 3) at m = 2, so these pin the closure and re-check its witnesses
    t = ConstraintSet(DomainSpec("A", sizes[0]), DomainSpec("B", sizes[1]), {2: seeds})
    res = cm_m_closure(t, 2)
    assert res.converged
    assert len(res.constraints) == size
    assert hashlib.sha256(repr(sorted(res.constraints.ranks(2))).encode()).hexdigest()[:16] == digest
    assert minor_witnesses(res, t)


# the (R, R) pairs of the six pool relations of the t15ii-m3 workload, and the six gap orbits of the
# census of single Boolean ternary constraints (see tests/test_t15ii_gap.py), as rank masks
POOL_M3 = [(r, r) for r in (126, 105, 139, 191, 254, 232)]
GAP_ORBITS_M3 = [(22, 105), (22, 107), (22, 111), (41, 105), (41, 109), (41, 125)]


@pytest.mark.parametrize("sizes, m, sets", [
    pytest.param((2, 2), 3, [[pair] for pair in POOL_M3 + GAP_ORBITS_M3], id="2x2-m3"),
    *[pytest.param(sizes, 2, [seeds], id=f"{sizes[0]}x{sizes[1]}-m2-{seeds[0][0]}")
      for sizes, seeds, *_ in OFF_DIAGONAL_M2 if sizes in ((3, 2), (2, 3))],
])
def test_cm_m_closure_commutes_with_relabeling(sizes, m, sets):
    """cm_m_closure(g T) = g cm_m_closure(T) for every g = (pi_A, pi_B, sigma):
    value permutations of both sides and a permutation sigma of the m
    coordinates, 24 of them at each size.  The closure's members are read off
    its floors, so the floor of g R must be g floor(R), after as many rounds."""
    dom, cod = DomainSpec("A", sizes[0]), DomainSpec("B", sizes[1])
    relabelings = list(itertools.product(itertools.permutations(range(sizes[0])),
                                         itertools.permutations(range(sizes[1])), itertools.permutations(range(m))))
    assert len(relabelings) == 24
    for seeds in sets:
        t = ConstraintSet(dom, cod, {m: seeds})
        res = cm_m_closure(t, m)
        for pi_a, pi_b, sigma in relabelings:
            moved = cm_m_closure(relabel_constraints(t, pi_a, pi_b, {m: sigma}), m)
            moved_a, moved_b = moved_ranks(sizes[0], m, pi_a, sigma), moved_ranks(sizes[1], m, pi_b, sigma)
            floors = [0] * len(res.floors[m])
            for r, floor in enumerate(res.floors[m]):
                floors[relabel_bits(r, moved_a)] = relabel_bits(floor, moved_b)
            assert (moved.floors[m], moved.converged, moved.iterations) == (floors, res.converged, res.iterations)


def test_cm_bounds_validation():
    with pytest.raises(ValueError):
        CmBounds(max_iterations=0)
    with pytest.raises(ValueError):
        CmBounds(max_indets=-1)


def test_cm_lift_maps_are_refused_above_the_budget():
    empty = ConstraintSet(BOOL, BOOL, {3: frozenset()})
    started = time.perf_counter()
    # (3 + 8)^3 maps times 2^(3 + 8) extended tuples, refused before any table is built
    with pytest.raises(BudgetExceededError, match="lift maps times extended tuples at arity 3: 2725888 exceeds"):
        cm_m_closure(empty, 3, CmBounds(max_indets=8))
    assert time.perf_counter() - started < 2
    assert cm_m_closure(empty, 3, CmBounds(max_indets=3)).converged  # the widest bound the tests and the bench use


def test_lo_n_closure_small_antecedents_are_fixed():
    # constraints with antecedent of size <= n are their own relaxations, so
    # lo_n never adds any; over Q1 with n = 2 the closure is the identity
    rng = random.Random(6)
    for _ in range(20):
        t = q1_subset(rng, rng.randint(0, 6))
        assert lo_n_closure(t, 2) == t


def test_lo_n_closure_adds_fully_supported_constraints():
    # all relaxations of (full, full-minus-nothing)... build a set containing
    # every size-<=1-antecedent relaxation of c and check c is added at n=1
    c = Constraint(Relation(BOOL, 1, 0b11), Relation(BOOL, 1, 0b11))
    relaxations = [
        Constraint(Relation(BOOL, 1, r), Relation(BOOL, 1, s))
        for r in range(4)
        for s in range(4)
        if bin(r).count("1") <= 1 and relaxation_of(Constraint(Relation(BOOL, 1, r), Relation(BOOL, 1, s)), c)
    ]
    t = ConstraintSet.from_constraints(BOOL, BOOL, relaxations)
    closed = lo_n_closure(t, 1)
    assert c in closed


def test_lo_n_chain_descends_and_stabilizes():
    rng = random.Random(7)
    for _ in range(20):
        t = cm_m_closure(q1_subset(rng, rng.randint(0, 3)), 1).constraints
        chain = [lo_n_closure(t, n) for n in (1, 2, 3)]
        for bigger, smaller in zip(chain, chain[1:]):
            assert smaller.issubset(bigger)
        assert chain[1] == chain[2] == t  # n* = |A|^1 = 2


def test_lo_constraints_closure_identity():
    t = cm_m_closure(cset(C_LEQ), 2).constraints
    assert lo_constraints_closure(t) == t


def test_union_closure_check():
    c_geq = Constraint(GEQ, GEQ)
    ok, witness = union_closure_check(cset(C_LEQ, c_geq))
    assert not ok  # leq union geq is the full relation, absent from the set
    c1, c2 = witness
    merged = Constraint(c1.antecedent | c2.antecedent, c1.consequent | c2.consequent)
    assert merged not in cset(C_LEQ, c_geq)
    # the relaxations of a single constraint are union-closed: unions keep the
    # antecedent inside and the consequent outside the original
    relaxations = [
        Constraint(Relation(BOOL, 2, r), Relation(BOOL, 2, s))
        for r in range(16)
        for s in range(16)
        if relaxation_of(Constraint(Relation(BOOL, 2, r), Relation(BOOL, 2, s)), C_EQ2)
    ]
    ok, witness = union_closure_check(ConstraintSet.from_constraints(BOOL, BOOL, relaxations))
    assert ok and witness is None
