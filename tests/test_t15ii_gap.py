"""A known gap of t15ii at m = 3: on {(one-in-three, even parity)} at n = 3
the satisfaction side has 60 more constraints than the bounded cm closure
followed by lo_3 reaches.  The extra constraints are genuinely satisfied by
FSC_3(T), so the right side is incomplete, not the left side unsound."""

import itertools

import pytest

from funcon import (
    CmBounds,
    Constraint,
    ConstraintSet,
    DomainSpec,
    Relation,
    cm_m_closure,
    csf_m,
    fsc_n,
    lo_n_closure,
    satisfies,
    verify_factorization,
)

BOOL = DomainSpec("bool", 2)


def _relation(pred):
    return Relation.from_tuples(
        BOOL, 3, [t for t in itertools.product((0, 1), repeat=3) if pred(*t)]
    )


ONE_IN_THREE = _relation(lambda a, b, c: a + b + c == 1)
EVEN_PARITY = _relation(lambda a, b, c: (a + b + c) % 2 == 0)
T = ConstraintSet.from_constraints(BOOL, BOOL, [Constraint(ONE_IN_THREE, EVEN_PARITY)])


@pytest.fixture(scope="module")
def sides():
    fsc = fsc_n(T, 3)
    lhs = csf_m(fsc, 3)
    rhs = lo_n_closure(cm_m_closure(T, 3).constraints, 3)
    return fsc, lhs, rhs


def test_left_only_constraints_are_satisfied_by_fsc_3(sides):
    fsc, lhs, rhs = sides
    assert len(lhs) == 2360
    left_only = [c for c in lhs.constraints() if c not in rhs]
    members = fsc.tables()
    for c in left_only:
        assert all(satisfies(f, c) for f in members)


@pytest.mark.xfail(
    strict=True,
    reason="the bounded cm_m_closure is not complete at m = 3 (2300 vs 2360); "
    "see ROADMAP items 5 (indicator certificate) and 6 (per-antecedent families)",
)
def test_t15ii_one_in_three_even_parity_m3(sides):
    fsc, lhs, rhs = sides
    assert lhs == rhs


def test_verify_runs_one_bounded_closure(sides, cm_m_calls):
    fsc, lhs, rhs = sides
    rep = verify_factorization("t15ii", T, n=3, m=3)
    assert rep.parameters["escalations"] == 0
    assert (rep.lhs_size, rep.rhs_size) == (len(lhs), len(rhs))
    bounds = CmBounds(max_indets=1)
    cm_m_calls.clear()
    verify_factorization("t15ii", T, n=3, m=3, bounds=bounds)
    assert cm_m_calls == [bounds] and cm_m_calls[0] is bounds
