import itertools

import pytest

from funcon import (
    ArityMismatchError,
    Constraint,
    ConstraintSet,
    DomainMismatchError,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    Relation,
    canonical_constraint,
    enumerate_constraints,
    enumerate_functions,
    projection,
    relaxation_of,
    tuple_rank,
    tuple_unrank,
)
from funcon.core import BudgetExceededError, constraint_universe_count, function_count

from conftest import AND, BOOL, C_LEQ, EQ2, LEQ, cls, cset, fn


def test_tuple_codec_roundtrip_exhaustive():
    for size in (1, 2, 3):
        for arity in (1, 2, 3, 4):
            for rank in range(size**arity):
                t = tuple_unrank(rank, size, arity)
                assert tuple_rank(t, size) == rank
                assert len(t) == arity


def test_tuple_rank_first_coordinate_most_significant():
    assert tuple_rank((1, 0), 2) == 2
    assert tuple_rank((0, 1), 2) == 1
    assert tuple_unrank(5, 2, 3) == (1, 0, 1)


def test_tuple_codec_range_errors():
    with pytest.raises(ValueError):
        tuple_rank((2,), 2)
    with pytest.raises(ValueError):
        tuple_unrank(8, 2, 3)


def test_function_table_validation():
    with pytest.raises(ValueError):
        FunctionTable(BOOL, BOOL, 2, (0, 0, 0))  # wrong length
    with pytest.raises(ValueError):
        FunctionTable(BOOL, BOOL, 1, (0, 2))  # value out of range
    assert AND((1, 1)) == 1 and AND((0, 1)) == 0


def test_function_apply_pointwise():
    # out_i = f(rows[0][i], rows[1][i])
    assert AND.apply_pointwise([(0, 1), (1, 1)]) == (0, 1)


def test_relation_bitmask_ops():
    assert len(LEQ) == 3
    assert LEQ.contains_tuple((0, 1)) and not LEQ.contains_tuple((1, 0))
    assert EQ2.issubset(LEQ)
    assert (LEQ & EQ2) == EQ2
    assert (LEQ | EQ2) == LEQ
    assert sorted(LEQ.tuples()) == [(0, 0), (0, 1), (1, 1)]


def test_relation_full_empty():
    assert len(Relation.full(BOOL, 2)) == 4
    assert len(Relation.empty(BOOL, 2)) == 0
    assert not Relation.empty(BOOL, 2)


def test_constraint_arity_check():
    with pytest.raises(ArityMismatchError):
        Constraint(LEQ, Relation.full(BOOL, 1))


def test_relaxation_partial_order_on_binary_boolean_constraints():
    """Reflexive, antisymmetric, transitive over all 256 binary constraints."""
    universe = list(enumerate_constraints(BOOL, BOOL, 2))
    assert len(universe) == 256
    for c in universe:
        assert relaxation_of(c, c)
    le_pairs = [
        (c1, c2) for c1 in universe for c2 in universe if relaxation_of(c1, c2)
    ]
    for c1, c2 in le_pairs:
        if relaxation_of(c2, c1):
            assert c1 == c2  # antisymmetry
    le_set = {
        (c1.antecedent.bits, c1.consequent.bits, c2.antecedent.bits, c2.consequent.bits)
        for c1, c2 in le_pairs
    }
    for c1, c2 in le_pairs:  # transitivity: c1 relax-of c2 relax-of c3
        for c3 in universe:
            if (c2.antecedent.bits, c2.consequent.bits, c3.antecedent.bits, c3.consequent.bits) in le_set:
                assert (c1.antecedent.bits, c1.consequent.bits, c3.antecedent.bits, c3.consequent.bits) in le_set


def test_canonical_constraints():
    eq = canonical_constraint("equality", 2, BOOL, BOOL)
    assert sorted(eq.antecedent.tuples()) == [(0, 0), (1, 1)]
    assert sorted(eq.consequent.tuples()) == [(0, 0), (1, 1)]
    empty = canonical_constraint("empty", 3, BOOL, BOOL)
    assert not empty.antecedent and not empty.consequent
    triv = canonical_constraint("trivial", 1, BOOL, BOOL)
    assert len(triv.antecedent) == 2 and len(triv.consequent) == 2


def test_projection_tables():
    assert projection(BOOL, 2, 1).table == (0, 0, 1, 1)
    assert projection(BOOL, 2, 2).table == (0, 1, 0, 1)
    assert projection(BOOL, 1, 1).table == (0, 1)


def test_enumeration_counts_and_budget():
    assert len(list(enumerate_functions(BOOL, BOOL, 2))) == 16
    assert function_count(BOOL, BOOL, 4) == 65536
    assert constraint_universe_count(BOOL, BOOL, 2) == 256
    with pytest.raises(BudgetExceededError):
        list(enumerate_functions(BOOL, BOOL, 5, budget=10))


def test_function_class_basics():
    k = cls(AND, fn((0, 1)))
    assert len(k) == 2
    assert k.arities() == (1, 2)
    assert AND in k
    assert k.restrict_arity(2) == cls(AND)
    assert cls(AND).issubset(k)
    assert (cls(AND) | cls(fn((0, 1)))) == k


def test_constraint_set_basics():
    t = cset(C_LEQ)
    assert len(t) == 1 and C_LEQ in t
    assert t.issubset(t | cset(canonical_constraint("equality", 2, BOOL, BOOL)))
    assert ConstraintSet.empty(BOOL, BOOL).arities() == ()


def test_empty_arities_normalized_out():
    k = FunctionClass(BOOL, BOOL, {2: frozenset(), 1: frozenset({fn((0, 1))})})
    assert k.arities() == (1,)


SIZE_PAIRS = [(2, 2), (3, 2), (2, 3)]


def _sample_set(dom, cod, rng):
    """Constraints of arities 1 and 2 drawn by bitmask pair."""
    by_arity = {}
    for m in (1, 2):
        a_count, b_count = 1 << dom.size**m, 1 << cod.size**m
        by_arity[m] = {(rng.randrange(a_count), rng.randrange(b_count)) for _ in range(6)}
    return by_arity


@pytest.mark.parametrize("sizes", SIZE_PAIRS)
def test_containers_round_trip_through_their_members(sizes, rng):
    dom, cod = DomainSpec("A", sizes[0]), DomainSpec("B", sizes[1])
    pairs = _sample_set(dom, cod, rng)
    t = ConstraintSet(dom, cod, pairs)
    assert ConstraintSet.from_constraints(dom, cod, t.constraints()) == t
    assert t.ranks(2) == frozenset(pairs[2]) and len(t) == sum(map(len, pairs.values()))
    by_constraint = {m: {t.decode(m, pair) for pair in ps} for m, ps in pairs.items()}
    assert ConstraintSet(dom, cod, by_constraint) == t
    assert t.members(1) == by_constraint[1]
    assert all(c in t for c in t.constraints())
    k = FunctionClass(dom, cod, {1: set(range(0, function_count(dom, cod, 1), 2)), 2: {0, 5, 7}})
    assert FunctionClass.from_tables(dom, cod, k.tables()) == k
    assert all(f in k for f in k.tables())


@pytest.mark.parametrize("sizes", SIZE_PAIRS)
def test_constraint_set_rejects_malformed_members(sizes):
    dom, cod = DomainSpec("A", sizes[0]), DomainSpec("B", sizes[1])
    full = canonical_constraint("trivial", 2, dom, cod)
    with pytest.raises(ValueError):
        ConstraintSet(dom, cod, {2: {(1 << dom.size**2, 0)}})
    with pytest.raises(ValueError):
        ConstraintSet(dom, cod, {2: {(0, 1 << cod.size**2)}})
    with pytest.raises(ValueError):
        ConstraintSet(dom, cod, {2: {(-1, 0)}})
    with pytest.raises(TypeError):
        ConstraintSet(dom, cod, {2: {(0, 0), full}})
    with pytest.raises(DomainMismatchError):
        ConstraintSet(DomainSpec("C", sizes[0] + 1), cod, {2: {full}})
    with pytest.raises(ArityMismatchError):
        ConstraintSet(dom, cod, {1: {full}})
    with pytest.raises(ValueError):
        ConstraintSet(dom, cod, {2: {(0, 0)}}, arity_cap=1)


def test_classes_and_sets_do_not_mix():
    k, t = cls(AND), cset(C_LEQ)
    with pytest.raises(TypeError):
        k | t
    with pytest.raises(TypeError):
        t | k
    assert k != t
    with pytest.raises(DomainMismatchError):
        t | ConstraintSet.empty(DomainSpec("C", 3), BOOL)


def test_from_constructors_live_in_their_own_class():
    # perfbench/tracer.py patches these through cls.__dict__[attr]
    assert "from_tables" in FunctionClass.__dict__
    assert "from_constraints" in ConstraintSet.__dict__
