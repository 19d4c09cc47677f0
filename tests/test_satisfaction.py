import itertools
import random

import pytest

from funcon import (
    BudgetExceededError,
    Constraint,
    ConstraintSet,
    DomainMismatchError,
    DomainSpec,
    FunctionClass,
    Relation,
    canonical_constraint,
    check_galois_axioms,
    cm_closure,
    compose_classes,
    csf,
    csf_m,
    enumerate_functions,
    fsc,
    fsc_n,
    fsc_n_of_csf_m,
    image,
    minimal_consequent,
    projections_class,
    random_function_class,
    satisfies,
    verify_factorization,
    vs_closure,
)

from funcon.core import DEFAULT_ENUMERATION_BUDGET, constraint_universe_count
from funcon.satisfaction import _minimal_consequents, probe_groups

from conftest import (
    AND,
    BOOL,
    C_LEQ,
    IDENTITY,
    LEQ,
    NEGATION,
    OR,
    PR1,
    PR2,
    cls,
    cset,
    fn,
    moved_ranks,
    relabel_bits,
    relabel_class,
    relabel_constraints,
    value_permutations,
)


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
    # f preserves R iff f satisfies (R, R)
    assert satisfies(AND, Constraint(LEQ, LEQ))
    assert not satisfies(NEGATION, Constraint(LEQ, LEQ))


def test_compose_classes_realizes_substitutions():
    o2 = FunctionClass(BOOL, BOOL, {2: projections_class(BOOL, 2).ranks(2)})
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


def test_csf_m_rejects_arity_zero():
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be >= 1"):
            csf_m(cls(AND, NEGATION), m)


def test_csf_m_counts_the_probes_of_every_arity_against_the_budget():
    # one Boolean arity-6 member walks (2^6)^1 probes at m = 1
    k = cls(fn([bin(x).count("1") % 2 for x in range(64)]))
    with pytest.raises(BudgetExceededError, match="csf_1 probes: 64 exceeds budget 63"):
        csf_m(k, 1, 63)
    assert csf_m(k, 1, 64) == csf_m(k, 1)


def test_fsc_n_counts_the_row_choices_of_wide_antecedents_against_the_budget():
    # (A^3, A^3) has 8^2 choices of 2 antecedent rows
    full = Relation.full(BOOL, 3)
    t = cset(Constraint(full, full))
    with pytest.raises(BudgetExceededError, match="fsc_2 row choices: 64 exceeds budget 63"):
        fsc_n(t, 2, 63)
    assert fsc_n(t, 2, 64) == fsc_n(t, 2)


def test_fsc_n_counts_the_row_choices_of_narrow_antecedents_too():
    # at |B| = 1 each arity has one candidate function, so the candidate guard admits every n and only the row
    # choices bound the work: |R|^n of them, also where R has no more than n tuples
    a3, b1 = DomainSpec("a", 3), DomainSpec("b", 1)
    six = Relation.from_tuples(a3, 2, list(itertools.product(range(3), repeat=2))[:6])
    t = cset(Constraint(six, Relation.full(b1, 2)), dom=a3, cod=b1)
    for n in (6, 7):
        with pytest.raises(BudgetExceededError, match=f"fsc_{n} row choices: {6**n} exceeds budget 1$"):
            fsc_n(t, n, 1)
    t = cset(Constraint(Relation.full(a3, 2), Relation.full(b1, 2)), dom=a3, cod=b1)
    with pytest.raises(BudgetExceededError, match="fsc_7 row choices: 4782969 exceeds budget 1000000"):
        fsc_n(t, 7)
    assert len(fsc_n(t, 2, 81)) == 1  # (A^2, B^2) holds for the one binary function


@pytest.mark.parametrize("value", [0, -1])
def test_arity_guards_fire_before_any_work(value):
    with pytest.raises(ValueError, match="n must be >= 1"):
        fsc_n(cset(C_LEQ), value)
    with pytest.raises(ValueError, match="m must be >= 1"):
        fsc_n_of_csf_m(cls(AND, NEGATION), 2, value)
    with pytest.raises(ValueError, match="cap must be >= 1"):
        cm_closure(cset(C_LEQ), value)
    with pytest.raises(ValueError, match="cap must be >= 1"):  # not a vacuous 'equal'
        verify_factorization("t8ii", ConstraintSet.empty(BOOL, BOOL), n=2, cap=value)


# every operator taking an arity cap, as a call on that cap
CAP_OPERATORS = {
    "fsc": lambda cap: fsc(cset(C_LEQ), cap),
    "csf": lambda cap: csf(cls(AND), cap),
    "projections_class": lambda cap: projections_class(BOOL, cap),
    "compose_classes": lambda cap: compose_classes(cls(AND), FunctionClass.empty(BOOL, BOOL), cap),
    "vs_closure": lambda cap: vs_closure(cls(AND), cap),
    "cm_closure": lambda cap: cm_closure(cset(C_LEQ), cap),
    "check_galois_axioms": lambda cap: check_galois_axioms(cls(AND), cset(C_LEQ), cap, cap),
}


@pytest.mark.parametrize("cap", [0, -1])
@pytest.mark.parametrize("name", sorted(CAP_OPERATORS))
def test_every_cap_taking_operator_refuses_a_cap_below_one(name, cap):
    # an empty union would read as a result: galois axioms would report a false violation
    with pytest.raises(ValueError, match="cap must be >= 1"):
        CAP_OPERATORS[name](cap)


def test_fsc_unions_the_fsc_n_masks_without_decoding_ranks(monkeypatch):
    # FunctionClass.ranks is the one caller of core.ranks_of_mask
    import funcon.core as core

    calls, real = [], core.ranks_of_mask
    monkeypatch.setattr(core, "ranks_of_mask", lambda mask: calls.append(mask) or real(mask))
    t = cset(C_LEQ)
    union = fsc(t, 3)
    assert calls == []
    assert union == fsc_n(t, 1) | fsc_n(t, 2) | fsc_n(t, 3)


def test_trace_constraint():
    # the separator over the columns (0,1), (1,1) is (R, S_min(R))
    k = cls(AND, OR)
    r = Relation.from_tuples(BOOL, 2, [(0, 1), (1, 1)])
    s = minimal_consequent(k, r)
    # AND gives (0,1), OR gives (1,1)
    assert s.tuples() == [(0, 1), (1, 1)]
    assert _minimal_consequents(k, 2, DEFAULT_ENUMERATION_BUDGET)[r.bits] == s.bits
    for f in k.tables():
        assert satisfies(f, Constraint(r, s))


def test_minimal_consequent_is_union_of_images():
    k = cls(AND, OR)
    r = Relation.from_tuples(BOOL, 2, [(0, 1), (1, 1)])
    assert minimal_consequent(k, r) == (image(AND, r) | image(OR, r))
    for f in k.tables():
        assert satisfies(f, Constraint(r, minimal_consequent(k, r)))


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3)])
def test_csf_m_commutes_with_value_permutations_and_ignores_variable_order(sizes):
    """csf_m(pi k) = pi csf_m(k) for value permutations (pi_A, pi_B), and
    csf_m(k tau) = csf_m(k) for variable permutations tau, at m = 1..3: on
    csf_m where its constraint universe fits the default budget, and on the
    probe groups it is read off, cross-row keys moved by pi_A and value
    masks by pi_B, at every m."""
    a, b = sizes
    dom = DomainSpec("a", a)
    cod = dom if a == b else DomainSpec("b", b)
    rng = random.Random(15 * a + b)
    classes = [random_function_class(rng, dom, cod, n, 3) for n in ((1, 2, 3) if a == b else (1, 2))]
    classes.append(classes[0] | classes[1])
    classes.append(FunctionClass.from_masks(dom, cod, {2: (1 << b ** (a * a - 1)) - 1}))  # f(0, 0) = 0
    identity_a, identity_b = list(range(a)), list(range(b))
    budget = DEFAULT_ENUMERATION_BUDGET
    for k in classes:
        taus = {n: [*range(1, n), 0] for n in k.arities()}
        for m in (1, 2, 3):
            fits = constraint_universe_count(dom, cod, m) <= budget
            groups = probe_groups(k, m, budget)
            for pi_a, pi_b in zip(value_permutations(a), value_permutations(b)[::-1]):
                moved = relabel_class(k, pi_a, pi_b)
                moved_a, moved_b = moved_ranks(a, m, pi_a), moved_ranks(b, m, pi_b)
                expected = {relabel_bits(r, moved_a): relabel_bits(mask, moved_b) for r, mask in groups.items()}
                assert probe_groups(moved, m, budget) == expected
                if fits:
                    assert csf_m(moved, m) == relabel_constraints(csf_m(k, m), pi_a, pi_b)
            reordered = relabel_class(k, identity_a, identity_b, taus)
            assert probe_groups(reordered, m, budget) == groups
            if fits:
                assert csf_m(reordered, m) == csf_m(k, m)


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3)])
def test_fsc_n_commutes_with_value_permutations_and_ignores_coordinate_order(sizes):
    """fsc_n(pi t) = pi fsc_n(t) for value permutations (pi_A, pi_B), and
    fsc_n(t sigma) = fsc_n(t) for coordinate permutations sigma of the
    constraints, at n, m <= 2."""
    a, b = sizes
    dom = DomainSpec("a", a)
    cod = dom if a == b else DomainSpec("b", b)
    rng = random.Random(35 * a + b)
    identity_a, identity_b = list(range(a)), list(range(b))
    partial = 0  # the classes neither empty nor full
    for m, count in itertools.product((1, 2), (1, 2, 3)):
        # antecedents of about a quarter of A^m and consequents of about three quarters of B^m
        # keep fsc_n away from both the empty and the full class
        ante, cons = 1 << a**m, 1 << b**m
        t = ConstraintSet(dom, cod, {m: {(rng.randrange(1, ante) & rng.randrange(ante) or 1,
                                           rng.randrange(cons) | rng.randrange(cons)) for _ in range(count)}})
        swapped = relabel_constraints(t, identity_a, identity_b, {m: [*range(1, m), 0]})
        for n in (1, 2):
            k = fsc_n(t, n)
            partial += 0 < len(k) < b ** (a**n)
            for pi_a, pi_b in zip(value_permutations(a), value_permutations(b)[::-1]):
                assert fsc_n(relabel_constraints(t, pi_a, pi_b), n) == relabel_class(k, pi_a, pi_b)
            assert fsc_n(swapped, n) == k
    assert partial >= 8, partial


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3)])
def test_fsc_n_of_csf_m_commutes_with_value_permutations_and_ignores_variable_order(sizes):
    """fsc_n_of_csf_m(pi k) = pi fsc_n_of_csf_m(k) for value permutations
    (pi_A, pi_B), and fsc_n_of_csf_m(k tau) = fsc_n_of_csf_m(k) for variable
    permutations tau, at n, m <= 2, and at m = 3 on Boolean."""
    a, b = sizes
    dom = DomainSpec("a", a)
    cod = dom if a == b else DomainSpec("b", b)
    rng = random.Random(25 * a + b)
    classes = [random_function_class(rng, dom, cod, n, 2) for n in (1, 2)]
    classes.append(classes[0] | classes[1])
    identity_a, identity_b = list(range(a)), list(range(b))
    for k in classes:
        reordered = relabel_class(k, identity_a, identity_b, {n: [*range(1, n), 0] for n in k.arities()})
        for n, m in itertools.product((1, 2), (1, 2, 3) if a == b == 2 else (1, 2)):
            closed = fsc_n_of_csf_m(k, n, m)
            for pi_a, pi_b in zip(value_permutations(a), value_permutations(b)[::-1]):
                assert fsc_n_of_csf_m(relabel_class(k, pi_a, pi_b), n, m) == relabel_class(closed, pi_a, pi_b)
            assert fsc_n_of_csf_m(reordered, n, m) == closed
