import itertools
import random

import pytest

from funcon import (
    ClosureReport,
    CmBounds,
    Constraint,
    Relation,
    canonical_constraint,
    check_closure_laws,
    check_galois_axioms,
    cm_m_closure,
    csf_m,
    fsc_n,
    fsc_n_of_csf_m,
    verify_definability,
    verify_factorization,
    vs_n_closure,
)
from funcon.core import BudgetExceededError, ConstraintSet, DomainSpec, FunctionClass
from funcon.instance_io import format_report
from funcon.lab import (
    FACTORIZATION_IDENTITIES,
    IDENTITIES,
    MAX_WITNESSES,
    audit,
    nested_class_pair,
    nested_set_pair,
    random_constraint_set,
    random_function_class,
)

from conftest import (
    AND,
    BOOL,
    C_LEQ,
    NEGATION,
    OR,
    PR1,
    PR2,
    cls,
    constraint_orbits,
    cset,
    fn,
    relabel_class,
    relabel_constraints,
    value_permutations,
)

EMPTY_1 = ConstraintSet.from_constraints(BOOL, BOOL, [canonical_constraint("empty", 1, BOOL, BOOL)])


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
    from funcon import satisfies
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


def test_audit_counts_checked_and_passing_samples():
    rep = audit("odd", [(1,), (2,), (3,)], lambda v: ["odd"] if v % 2 else [])
    assert (rep.lhs_size, rep.rhs_size, rep.verdict) == (3, 1, "incomparable")
    assert rep.parameters == {"samples": 3}
    assert rep.symmetric_difference == ["sample 1: odd", "sample 3: odd"]


def test_closure_law_audit_caps_its_witnesses():
    # one past the largest rank is neither extensive, monotone nor idempotent
    def broken(k):
        return FunctionClass(BOOL, BOOL, {2: {max(k.ranks(2)) + 1}})

    pair = (FunctionClass(BOOL, BOOL, {2: {0}}), FunctionClass(BOOL, BOOL, {2: {0, 5}}))
    rep = check_closure_laws(broken, [pair] * 3, "broken")
    assert "  samples: 3\n  lhs_size: 3\n  rhs_size: 0\n" in format_report(rep)
    assert len(rep.symmetric_difference) == MAX_WITNESSES == 8
    assert rep.symmetric_difference[-2:] == ["sample 3: not extensive", "sample 3: not monotone"]


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


# the size of both sides of t15ii at m = 2 and n = 1, 2 on six two-constraint sets per (|A|, |B|), drawn
# at seed 11; at (3, 3) four of the six reach all 262144 constraints
T15II_OFF_DIAGONAL_M2 = {
    (3, 2): [4104] * 2 + [8192] * 8 + [4104] * 2,
    (2, 3): [4352] * 2 + [8192] * 2 + [4352] * 2 + [8192] * 4 + [1248, 920],
    (3, 3): [262144] * 8 + [21120, 6776, 131328, 131328],
}


@pytest.mark.parametrize("sizes", sorted(T15II_OFF_DIAGONAL_M2), ids=lambda s: f"{s[0]}x{s[1]}")
def test_t15ii_at_m_2_off_the_boolean_diagonal(sizes):
    dom, cod = DomainSpec("A", sizes[0]), DomainSpec("B", sizes[1])
    rng = random.Random(11)
    found = []
    for _ in range(6):
        t = random_constraint_set(rng, dom, cod, 2, 2)
        for n in (1, 2):
            rep = verify_factorization("t15ii", t, n=n, m=2)
            assert rep.ok, (sorted(t.ranks(2)), n, rep.symmetric_difference)
            found.append(rep.lhs_size)
    assert found == T15II_OFF_DIAGONAL_M2[sizes]


# per (|A|, |B|): the function arities n, and the count of orbits of single-constraint sets {(R, S)} at
# m = 2 under value permutations of A and of B and the coordinate swap
T15II_CENSUS_M2 = {(2, 2): ((1, 2), 82), (3, 2): ((1, 2), 696), (2, 3): ((1, 2), 696)}


@pytest.mark.parametrize("sizes", sorted(T15II_CENSUS_M2), ids=lambda s: f"{s[0]}x{s[1]}")
def test_t15ii_is_equal_on_every_single_constraint_orbit_at_m_2(sizes):
    a, b = sizes
    arities, count = T15II_CENSUS_M2[sizes]
    dom, cod = DomainSpec("A", a), DomainSpec("B", b)
    orbits = list(constraint_orbits(a, b, 2))
    assert len(orbits) == count
    assert sum(size for _, _, size in orbits) == 1 << a**2 + b**2  # the orbits cover every set
    for r, s, _ in orbits:
        t = ConstraintSet(dom, cod, {2: [(r, s)]})
        for n in arities:
            rep = verify_factorization("t15ii", t, n=n, m=2)
            assert rep.verdict == "equal", (r, s, n, rep.symmetric_difference)


def outcome(identity, payload, n, m):
    """(verdict, lhs_size, rhs_size) of one identity at the default budget, or the message of its refusal."""
    try:
        if identity in FACTORIZATION_IDENTITIES:
            rep = verify_factorization(identity, payload, n=None if identity == "t12ii" else n, m=m)
        else:
            rep = verify_definability(identity, payload, n=n, m=m)
    except BudgetExceededError as exc:
        return str(exc)
    return rep.verdict, rep.lhs_size, rep.rhs_size


@pytest.mark.parametrize("identity", ["t15i", "thm13", "t12ii", "thm14"])
@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3), (3, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_identities_are_invariant_under_relabeling(sizes, identity):
    """Relabeling the values of A and of B, or reversing the variables of a class or the coordinates of a
    set, moves both sides of an identity alike: the verdict and the two sizes stay, and a refusal stays the
    same refusal.  At |A| = 3, t12ii reads fsc at n = |A|^m >= 3, over 2^27 or 3^27 tables, so every one of
    its payloads is refused there; at each other shape and identity some payload is answered."""
    a, b = sizes
    dom = DomainSpec("A", a)
    cod = dom if a == b else DomainSpec("B", b)
    on_class = IDENTITIES[identity][0] == "class"
    rng = random.Random(100 * a + 10 * b + len(identity))
    (pi_a, _), (_, pi_b) = value_permutations(a), value_permutations(b)
    cases = []
    for n, m in itertools.product((1, 2), (1, 2)):
        arity = n if on_class else m
        payload = (random_function_class if on_class else random_constraint_set)(rng, dom, cod, arity, rng.randint(1, 3))
        cases.append((n, m, arity, payload))
        if not on_class and m == 1:  # a Galois-closed set too, on which thm14's two tests can hold
            cases.append((n, m, arity, csf_m(fsc_n(payload, n), m)))
    relabel = relabel_class if on_class else relabel_constraints
    answered = 0
    for n, m, arity, payload in cases:
        expected = outcome(identity, payload, n, m)
        for moved in (relabel(payload, pi_a, pi_b), relabel(payload, range(a), range(b), {arity: tuple(reversed(range(arity)))})):
            assert outcome(identity, moved, n, m) == expected, (sorted(payload.ranks(arity)), n, m)
        answered += not isinstance(expected, str)
    assert answered == 0 if identity == "t12ii" and a == 3 else answered > 0


def test_t15ii_never_turns_the_fsc_4_mask_into_ranks(monkeypatch):
    # csf_m reads the fsc_4 class as the mask fsc_n built; FunctionClass.ranks
    # is the one caller of core.ranks_of_mask, and only a rank read calls it
    import funcon.core as core

    calls, real = [], core.ranks_of_mask

    def counted(mask):
        calls.append(mask.bit_length())
        return real(mask)

    monkeypatch.setattr(core, "ranks_of_mask", counted)
    rep = verify_factorization("t15ii", cset(C_LEQ), n=4, m=2)
    assert rep.ok and rep.lhs_size == 48
    assert calls == []


def test_t12ii_runs_one_bounded_closure(cm_m_calls):
    bounds = CmBounds(max_iterations=20)
    rep = verify_factorization("t12ii", cset(C_LEQ), m=2, bounds=bounds)
    assert rep.ok and rep.parameters["escalations"] == 0
    assert cm_m_calls == [bounds] and cm_m_calls[0] is bounds


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
    # cap=3 reads antecedents of up to 3 tuples over A^8: one per S_8 orbit fits the default budget
    assert verify_factorization("t4finite", cls(NEGATION), cap=3).verdict == "equal"
    # n=2, m=4: 1 + 5 + 35 multisets of 4 rows from A^0, A^1 and A^2 are enumerated
    with pytest.raises(BudgetExceededError, match="separator antecedents: 41 exceeds budget 40"):
        fsc_n_of_csf_m(cls(AND), 2, 4, budget=40)
    # they leave 1 + 5 + 17 antecedents, whose probes of the binary member number 0 + 5 * 1 + 17 * 4
    with pytest.raises(BudgetExceededError) as excinfo:
        fsc_n_of_csf_m(cls(AND), 2, 4, budget=72)
    assert excinfo.value.count == 73
    assert fsc_n_of_csf_m(cls(AND), 2, 4, budget=73) == fsc_n_of_csf_m(cls(AND), 2, 4)


def test_fsc_n_of_csf_m_refuses_oversized_probe_walks():
    # n=1, m=2: the three one-tuple antecedents walk one probe per member arity, 3 * 2 probes
    ternary = FunctionClass.from_tables(BOOL, BOOL, [fn((0, 1) * 4, 3)])
    k = cls(NEGATION) | ternary
    with pytest.raises(BudgetExceededError, match="separator probes") as excinfo:
        fsc_n_of_csf_m(k, 1, 2, budget=5)
    assert excinfo.value.count == 6
    assert fsc_n_of_csf_m(k, 1, 2, budget=6) == fsc_n_of_csf_m(k, 1, 2)


def test_thm5_at_boolean_n3_through_one_separator_per_orbit():
    # FSC_n CSF_m = Lo_m VS_n, and at m = |A|^n the local closure is trivial (Theorem 5),
    # so fsc_n_of_csf_m(k, 3, 8) is vs_n_closure(k)
    rng = random.Random(26)
    classes = [random_function_class(rng, BOOL, BOOL, 3, count) for count in (1, 3, 8)]
    for k in classes:
        assert fsc_n_of_csf_m(k, 3, 8) == vs_n_closure(k)
    assert verify_definability("thm5", classes[1], n=3).verdict == "equal"
    assert verify_factorization("t4finite", classes[1], cap=3).verdict == "equal"


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        verify_factorization("t99", cls(AND), n=1, m=1)
    with pytest.raises(ValueError):
        verify_definability("thm99", cls(AND))
    # each entry point refuses the other's names
    with pytest.raises(ValueError, match="unknown identity 'thm5'"):
        verify_factorization("thm5", cls(AND), n=2)
    with pytest.raises(ValueError, match="unknown side 't15ii'"):
        verify_definability("t15ii", cset(C_LEQ), n=2, m=2)


@pytest.mark.parametrize("name", sorted(IDENTITIES))
def test_a_payload_of_the_other_side_is_refused_before_any_work(name, monkeypatch):
    import funcon.lab as lab

    # unary payloads, so the arity check would let both containers through
    unary = Relation.full(BOOL, 1)
    side = IDENTITIES[name][0]
    wrong, expected = (cset(Constraint(unary, unary)), "FunctionClass") if side == "class" else (cls(NEGATION), "ConstraintSet")
    for kernel in ("fsc_n", "csf_m", "vs_n_closure", "cm_m_closure", "lo_n_closure"):
        monkeypatch.setattr(lab, kernel, None)  # any work would fail with a different error
    run = verify_factorization if name in FACTORIZATION_IDENTITIES else verify_definability
    with pytest.raises(TypeError, match=f"^{name} needs a {expected}, got a "):
        run(name, wrong, n=1, m=1, cap=1)


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
    # without the unary empty constraint the set is still locally closed, but neither side holds
    rep = verify_definability("thm6", fixed - EMPTY_1, n=2, cap=2)
    assert rep.ok and not rep.parameters["predicate"] and not rep.parameters["fixed_point"]


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
    for lacking in (cset(C_LEQ), t - EMPTY_1):  # no binary equality; no unary empty constraint
        rep = verify_definability("cor2", lacking, cap=2)
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
