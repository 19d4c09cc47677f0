import random

import pytest

from funcon import (
    ClosureReport,
    Constraint,
    Relation,
    canonical_constraint,
    check_closure_laws,
    check_galois_axioms,
    cm_m_closure,
    fsc_n,
    fsc_n_of_csf_m,
    verify_definability,
    verify_factorization,
    vs_n_closure,
)
from funcon.core import BudgetExceededError, ConstraintSet, FunctionClass
from funcon.lab import nested_class_pair, nested_set_pair, random_constraint_set, random_function_class

from conftest import AND, BOOL, C_LEQ, NEGATION, OR, PR1, PR2, cls, cset


def test_report_verdict_invariant():
    with pytest.raises(ValueError):
        ClosureReport("x", {}, 1, 1, ["w"], "equal")
    with pytest.raises(ValueError):
        ClosureReport("x", {}, 1, 1, [], "lhs_strict")
    rep = ClosureReport("x", {}, 1, 1, [], "equal")
    assert rep.ok


def test_fsc_n_of_csf_m_matches_direct_composite():
    # at desk scale the separating-constraint route must agree with filtering
    # against the fully materialized csf
    from funcon import csf_m, satisfies
    from funcon.core import enumerate_functions

    for k in (cls(AND), cls(AND, OR), cls(NEGATION), FunctionClass.empty(BOOL, BOOL)):
        for m in (1, 2):
            via_traces = fsc_n_of_csf_m(k, 2, m)
            full = csf_m(k, m)
            direct = {
                g
                for g in enumerate_functions(BOOL, BOOL, 2)
                if all(satisfies(g, c) for c in full.constraints())
            }
            assert set(via_traces.tables()) == direct


def test_check_closure_laws_passes_for_real_operator(rng):
    samples = [nested_class_pair(rng, BOOL, BOOL, 2, 3, 2) for _ in range(25)]
    rep = check_closure_laws(vs_n_closure, samples, "vs_n")
    assert rep.ok and rep.parameters["samples"] == 25


def test_check_closure_laws_catches_violations(rng):
    def not_extensive(k):
        return FunctionClass.empty(BOOL, BOOL)

    samples = [nested_class_pair(rng, BOOL, BOOL, 2, 2, 1) for _ in range(3)]
    rep = check_closure_laws(not_extensive, samples, "broken")
    assert not rep.ok
    assert any("not extensive" in w for w in rep.symmetric_difference)


def test_galois_axioms_hold(rng):
    for _ in range(10):
        k = random_function_class(rng, BOOL, BOOL, 2, rng.randint(0, 3))
        t = random_constraint_set(rng, BOOL, BOOL, 1, rng.randint(0, 3))
        rep = check_galois_axioms(k, t, n_cap=2, m_cap=2)
        assert rep.ok, rep.symmetric_difference


def test_galois_axioms_empty_class():
    rep = check_galois_axioms(
        FunctionClass.empty(BOOL, BOOL), ConstraintSet.empty(BOOL, BOOL), 2, 2
    )
    assert rep.ok


def test_galois_axioms_name_the_dropped_member(monkeypatch):
    # an fsc that grows with its input is not order reversing at any member
    import funcon.lab as lab

    grows = lambda ts, cap, budget: FunctionClass(ts.dom, ts.cod, {2: range(min(len(ts), 16))})
    monkeypatch.setattr(lab, "fsc", grows)
    t = cset(C_LEQ, Constraint(Relation.from_tuples(BOOL, 1, [(0,)]), Relation.from_tuples(BOOL, 1, [(1,)])))
    rep = check_galois_axioms(FunctionClass.empty(BOOL, BOOL), t, 2, 2)
    order = [w for w in rep.symmetric_difference if "order reversing" in w]
    assert order == [
        "fsc not order reversing at constraint arity=1 R=[(0,)] S=[(1,)]",
        "fsc not order reversing at constraint arity=2 R=[(0, 0), (0, 1), (1, 1)] S=[(0, 0), (0, 1), (1, 1)]",
    ]


def test_t15i_worked_instance():
    rep = verify_factorization("t15i", cls(AND), n=2, m=1)
    assert rep.ok and rep.lhs_size == 4
    # both sides are {AND, OR, pr1, pr2}
    from funcon.function_closures import lo_m_closure

    assert lo_m_closure(vs_n_closure(cls(AND)), 1) == cls(AND, OR, PR1, PR2)


def test_t15i_all_m(rng):
    for m in (1, 2, 3, 4):
        for k in (cls(AND), random_function_class(rng, BOOL, BOOL, 2, 3)):
            rep = verify_factorization("t15i", k, n=2, m=m)
            assert rep.ok, (m, rep.symmetric_difference)


def test_t15ii_instances(rng):
    t1 = random_constraint_set(rng, BOOL, BOOL, 1, 3)
    for n in (1, 2):
        rep = verify_factorization("t15ii", t1, n=n, m=1)
        assert rep.ok, rep.symmetric_difference
    rep = verify_factorization("t15ii", cset(C_LEQ), n=4, m=2)
    assert rep.ok and rep.lhs_size == 48
    assert rep.parameters["cm_converged"]


def test_t12ii_and_t8ii(rng):
    rep = verify_factorization("t12ii", random_constraint_set(rng, BOOL, BOOL, 1, 3), m=1)
    assert rep.ok
    rep = verify_factorization("t8ii", cset(C_LEQ), n=2, cap=2)
    assert rep.ok


def test_t4finite(rng):
    for k in (cls(AND), random_function_class(rng, BOOL, BOOL, 2, 2)):
        rep = verify_factorization("t4finite", k, cap=2)
        assert rep.ok, rep.symmetric_difference


def test_t4finite_refuses_oversized_separator_sets():
    # cap=3 needs antecedents of up to 3 tuples over A^8: sum_{j<=3} C(256, j)
    with pytest.raises(BudgetExceededError) as excinfo:
        verify_factorization("t4finite", cls(NEGATION), cap=3)
    assert excinfo.value.count == 2_796_417
    with pytest.raises(BudgetExceededError):
        fsc_n_of_csf_m(cls(AND), 2, 4, budget=136)  # 1 + 16 + 120 separators
    assert fsc_n_of_csf_m(cls(AND), 2, 4, budget=137) == fsc_n_of_csf_m(cls(AND), 2, 4)


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        verify_factorization("t99", cls(AND), n=1, m=1)
    with pytest.raises(ValueError):
        verify_definability("thm99", cls(AND))


def test_thm5_equivalence_both_ways():
    closed = fsc_n(cset(C_LEQ), 2)  # a Galois fixed point by construction
    rep = verify_definability("thm5", closed, n=2)
    assert rep.ok and rep.parameters["predicate"] and rep.parameters["fixed_point"]
    open_cls = cls(PR1)  # not vs-closed: missing PR2
    rep = verify_definability("thm5", open_cls, n=2)
    assert rep.ok and not rep.parameters["predicate"] and not rep.parameters["fixed_point"]


def test_thm13_worked_instance():
    rep = verify_definability("thm13", cls(AND, OR, PR1, PR2), n=2, m=1)
    assert rep.ok and rep.parameters["predicate"] and rep.parameters["fixed_point"]


def test_thm14_equivalence():
    closed = cm_m_closure(cset(C_LEQ), 2).constraints
    rep = verify_definability("thm14", closed, n=4, m=2)
    assert rep.ok and rep.parameters["predicate"] and rep.parameters["fixed_point"]
    rep = verify_definability("thm14", cset(C_LEQ), n=4, m=2)
    assert rep.ok and not rep.parameters["predicate"] and not rep.parameters["fixed_point"]


def test_thm6_equivalence():
    from funcon import cm_closure
    from funcon.satisfaction import csf

    # both directions on a fixed point (csf of a class) and a raw seed set
    fixed = csf(fsc_n(cset(C_LEQ), 2), 2)
    rep = verify_definability("thm6", fixed, n=2, cap=2)
    assert rep.ok and rep.parameters["predicate"] and rep.parameters["fixed_point"]
    seed = cm_closure(cset(C_LEQ), cap=2).constraints
    rep = verify_definability("thm6", seed, n=2, cap=2)
    assert rep.ok, rep.parameters


def test_cor1_every_unary_class_is_a_fixed_point(rng):
    for _ in range(5):
        k = random_function_class(rng, BOOL, BOOL, 1, rng.randint(0, 4))
        rep = verify_definability("cor1", k)
        assert rep.ok and rep.parameters["fixed_point"]


def test_cor2_equivalence():
    from funcon import csf, fsc_n as _fsc_n

    # characterized-by-unary sets: csf of a unary class, capped
    k1 = cls(NEGATION)
    from funcon.satisfaction import csf as csf_full

    t = csf_full(k1, 2)
    rep = verify_definability("cor2", t, cap=2)
    assert rep.ok and rep.parameters["predicate"] and rep.parameters["fixed_point"]
    rep = verify_definability("cor2", cset(C_LEQ), cap=2)
    assert rep.ok and not rep.parameters["predicate"] and not rep.parameters["fixed_point"]


def test_random_constraint_set_draws_as_from_the_listed_universe():
    from funcon.core import DomainSpec, enumerate_constraints

    for dom, cod, arity in ((BOOL, BOOL, 1), (BOOL, BOOL, 2), (DomainSpec("T", 3), BOOL, 1)):
        universe = list(enumerate_constraints(dom, cod, arity))
        for seed in range(5):
            for count in (0, 3, len(universe) + 1):
                rng, ref = random.Random(seed), random.Random(seed)
                picked = ref.sample(universe, min(count, len(universe)))
                t = random_constraint_set(rng, dom, cod, arity, count)
                assert t == ConstraintSet.from_constraints(dom, cod, picked)
                assert rng.random() == ref.random()
