import itertools

import pytest

from funcon import (
    Constraint,
    DomainMismatchError,
    Relation,
    canonical_constraint,
    compose_classes,
    csf,
    csf_m,
    enumerate_functions,
    fsc,
    fsc_n,
    image,
    minimal_consequent,
    preserves,
    projections_class,
    satisfies,
    trace_constraint,
)

from conftest import AND, BOOL, C_LEQ, IDENTITY, LEQ, NEGATION, OR, PR1, PR2, cls, cset, fn


def brute_image(f, r):
    """Oracle: image by direct enumeration of all row choices."""
    out = set()
    for choice in itertools.product(r.tuples(), repeat=f.arity):
        out.add(f.apply_pointwise(choice))
    return out


def test_image_worked_example():
    r = Relation.from_tuples(BOOL, 2, [(0, 1), (1, 1)])
    assert sorted(image(AND, r).tuples()) == [(0, 1), (1, 1)]


def test_image_empty_and_identity():
    assert not image(AND, Relation.empty(BOOL, 2))
    eq = Relation.from_tuples(BOOL, 2, [(0, 0), (1, 1)])
    assert image(IDENTITY, eq) == eq


def test_image_matches_brute_oracle():
    for f in enumerate_functions(BOOL, BOOL, 2):
        for bits in range(16):
            r = Relation(BOOL, 2, bits)
            assert set(image(f, r).tuples()) == brute_image(f, r)


def test_image_domain_mismatch():
    from funcon import DomainSpec

    other = Relation.full(DomainSpec("three", 3), 1)
    with pytest.raises(DomainMismatchError):
        image(AND, other)


def test_satisfies_examples():
    assert satisfies(AND, C_LEQ)
    assert not satisfies(NEGATION, C_LEQ)
    eq = canonical_constraint("equality", 2, BOOL, BOOL)
    for f in enumerate_functions(BOOL, BOOL, 2):
        assert satisfies(f, eq)


def test_satisfies_matches_image_containment():
    constraints = [
        Constraint(Relation(BOOL, 2, r), Relation(BOOL, 2, s))
        for r in range(16)
        for s in range(0, 16, 3)
    ]
    for f in enumerate_functions(BOOL, BOOL, 2):
        for c in constraints:
            assert satisfies(f, c) == image(f, c.antecedent).issubset(c.consequent)


def test_preserves():
    assert preserves(AND, LEQ)
    assert not preserves(NEGATION, LEQ)


def test_compose_classes_realizes_substitutions():
    o2 = projections_class(BOOL, 2).restrict_arity(2)
    composed = compose_classes(cls(AND), o2, cap=2)
    assert composed == cls(AND, PR1, PR2)


def test_compose_classes_projections_are_closed():
    o2 = projections_class(BOOL, 2)
    assert compose_classes(o2, o2, cap=2) == o2


def test_compose_classes_empty():
    from funcon import FunctionClass

    assert compose_classes(FunctionClass.empty(BOOL, BOOL), cls(AND), cap=2) == FunctionClass.empty(BOOL, BOOL)


def test_fsc_1_of_leq():
    k = fsc_n(cset(C_LEQ), 1)
    assert k == cls(IDENTITY, fn((0, 0)), fn((1, 1)))


def test_fsc_matches_brute_filter():
    t = cset(C_LEQ, canonical_constraint("equality", 2, BOOL, BOOL))
    for n in (1, 2):
        expected = {f for f in enumerate_functions(BOOL, BOOL, n) if all(satisfies(f, c) for c in t.constraints())}
        assert set(fsc_n(t, n).tables()) == expected
    assert fsc(t, 2) == fsc_n(t, 1) | fsc_n(t, 2)


def test_csf_matches_brute_filter():
    k = cls(AND)
    for m in (1, 2):
        got = csf_m(k, m)
        universe = [
            Constraint(Relation(BOOL, m, r), Relation(BOOL, m, s))
            for r in range(1 << 2**m)
            for s in range(1 << 2**m)
        ]
        expected = {c for c in universe if satisfies(AND, c)}
        assert set(got.constraints()) == expected
    assert len(csf_m(k, 2)) == 78
    assert C_LEQ in csf_m(k, 2)
    assert csf(k, 2) == csf_m(k, 1) | csf_m(k, 2)


def test_csf_multi_arity_class():
    # constraints must be satisfied by members of every arity
    k = cls(AND, NEGATION)
    got = csf_m(k, 2)
    assert C_LEQ not in got  # negation violates (<=, <=)
    expected = {
        c
        for c in (
            Constraint(Relation(BOOL, 2, r), Relation(BOOL, 2, s))
            for r in range(16)
            for s in range(16)
        )
        if satisfies(AND, c) and satisfies(NEGATION, c)
    }
    assert set(got.constraints()) == expected


def test_trace_constraint():
    k = cls(AND, OR)
    c = trace_constraint(k, [(0, 1), (1, 1)])
    assert sorted(c.antecedent.tuples()) == [(0, 1), (1, 1)]
    # AND gives (0,1), OR gives (1,1)
    assert sorted(c.consequent.tuples()) == [(0, 1), (1, 1)]
    for f in k.tables():
        assert satisfies(f, c)


def test_minimal_consequent_is_union_of_images():
    k = cls(AND, OR)
    r = Relation.from_tuples(BOOL, 2, [(0, 1), (1, 1)])
    assert minimal_consequent(k, r) == (image(AND, r) | image(OR, r))
    for f in k.tables():
        assert satisfies(f, Constraint(r, minimal_consequent(k, r)))
