import random

import pytest

from funcon import (
    ArityMismatchError,
    BudgetExceededError,
    DomainSpec,
    SubstitutionMap,
    compose_classes,
    lo_m_closure,
    projections_class,
    substitute,
    vs_closure,
    vs_n_closure,
)
from funcon.core import FunctionClass
from funcon.lab import random_function_class

from conftest import AND, BOOL, IDENTITY, OR, PR1, PR2, XOR, cls, fn, relabel_class, value_permutations


def test_substitute_examples():
    assert substitute(AND, SubstitutionMap(2, 2, (1, 1))) == PR1  # a AND a = a
    assert substitute(AND, SubstitutionMap(2, 2, (2, 1))) == AND  # commutative
    assert substitute(AND, SubstitutionMap(2, 2, (1, 2))) == AND  # identity map
    assert substitute(AND, SubstitutionMap(2, 1, (1, 1))) == IDENTITY


def test_substitute_adds_dummy_argument():
    g = substitute(IDENTITY, SubstitutionMap(1, 2, (1,)))
    assert g == PR1


def test_substitute_arity_mismatch():
    with pytest.raises(ArityMismatchError):
        substitute(AND, SubstitutionMap(1, 1, (1,)))


def test_vs_n_closure_examples():
    assert vs_n_closure(cls(AND)) == cls(AND, PR1, PR2)
    assert vs_n_closure(cls(PR1)) == cls(PR1, PR2)
    assert vs_n_closure(FunctionClass.empty(BOOL, BOOL)) == FunctionClass.empty(BOOL, BOOL)


def test_vs_closures_count_substitution_instances_against_the_budget():
    # an arity-3 member has t^3 maps into arity t, each reading 2^t entries
    k = cls(fn((0, 1, 1, 0, 1, 0, 0, 1)))
    with pytest.raises(BudgetExceededError, match="substitution instances: 216 exceeds budget 215"):
        vs_n_closure(k, budget=215)
    assert vs_n_closure(k, budget=216) == vs_n_closure(k)
    with pytest.raises(BudgetExceededError, match="substitution instances: 250 exceeds budget 249"):
        vs_closure(k, 3, budget=249)  # 2 + 32 + 216 at t = 1, 2, 3
    assert vs_closure(k, 3, budget=250) == vs_closure(k, 3)


def test_vs_n_closure_rejects_mixed_arities():
    with pytest.raises(ArityMismatchError):
        vs_n_closure(cls(AND, IDENTITY))


def test_vs_closure_examples():
    assert vs_closure(cls(AND), 1) == cls(IDENTITY)
    assert vs_closure(cls(AND), 2) == cls(IDENTITY, AND, PR1, PR2)


def test_vs_closure_equals_composition_with_projection_clone():
    for seed_cls in (cls(AND), cls(XOR, IDENTITY), cls(OR, PR1)):
        assert vs_closure(seed_cls, 2) == compose_classes(
            seed_cls, projections_class(BOOL, 2), cap=2
        )


def test_vs_closure_laws(rng):
    from funcon.lab import random_function_class

    for _ in range(30):
        x = random_function_class(rng, BOOL, BOOL, 2, 3)
        cx = vs_n_closure(x)
        assert x.issubset(cx)
        assert vs_n_closure(cx) == cx
        y = x | random_function_class(rng, BOOL, BOOL, 2, 2)
        assert cx.issubset(vs_n_closure(y))


def test_lo_m_closure_worked_instance():
    # the m=1 local closure of VS2({AND}) adds OR: its pointwise values at
    # each single point are covered by AND/PR1/PR2
    assert lo_m_closure(cls(AND, PR1, PR2), 1) == cls(AND, OR, PR1, PR2)


def test_lo_m_closure_saturates_at_domain_size():
    k = cls(AND, PR1, PR2)
    full = lo_m_closure(k, 4)
    assert full == k  # m = |A|^2 pins every table completely
    assert lo_m_closure(k, 9) == full  # beyond saturation nothing changes


def test_lo_m_chain_descends(rng):
    from funcon.lab import random_function_class

    for _ in range(20):
        k = random_function_class(rng, BOOL, BOOL, 2, 4)
        chain = [lo_m_closure(k, m) for m in range(1, 6)]
        for bigger, smaller in zip(chain, chain[1:]):
            assert smaller.issubset(bigger)
        assert chain[3] == chain[4] == k  # stabilized at m* = |A|^2 = 4


def test_lo_closure_is_identity_on_finite_domains(rng):
    from funcon.lab import random_function_class

    for _ in range(10):
        k = random_function_class(rng, BOOL, BOOL, 2, 5)
        assert lo_m_closure(k, 2**2) == k  # at m = |A|^n


def test_empty_class_closures():
    empty = FunctionClass.empty(BOOL, BOOL)
    assert vs_closure(empty, 2) == empty
    assert lo_m_closure(empty, 1) == empty
    assert lo_m_closure(empty, 4) == empty


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3), (3, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_vs_n_and_lo_m_closures_commute_with_relabeling(sizes):
    """vs_n_closure(g k) = g vs_n_closure(k) and lo_m_closure(g k, m) =
    g lo_m_closure(k, m) for g a pair of value permutations (pi_A, pi_B)
    followed by a variable permutation tau of each arity, at n, m <= 2."""
    a, b = sizes
    dom = DomainSpec("a", a)
    cod = dom if a == b else DomainSpec("b", b)
    rng = random.Random(45 * a + b)
    swaps = {1: [0], 2: [1, 0]}
    classes = [random_function_class(rng, dom, cod, n, 3) for n in (1, 2)]
    for k in classes:
        closed = vs_n_closure(k)
        assert k.issubset(closed)
        for pi_a, pi_b in zip(value_permutations(a), value_permutations(b)[::-1]):
            for taus in (None, swaps):
                assert vs_n_closure(relabel_class(k, pi_a, pi_b, taus)) == relabel_class(closed, pi_a, pi_b, taus)
    mixed = classes[0] | classes[1]
    assert len(lo_m_closure(mixed, 1)) > len(mixed)  # lo_1 adds the tables pieced together pointwise
    for m in (1, 2):
        closed = lo_m_closure(mixed, m)
        for pi_a, pi_b in zip(value_permutations(a), value_permutations(b)[::-1]):
            for taus in (None, swaps):
                assert lo_m_closure(relabel_class(mixed, pi_a, pi_b, taus), m) == relabel_class(closed, pi_a, pi_b, taus)
