import itertools
import random

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
    Scheme,
    canonical_constraint,
    cm_m_closure,
    csf_m,
    enumerate_constraints,
    enumerate_functions,
    fsc_n,
    lo_m_closure,
    lo_n_closure,
    projection,
    relaxation_of,
    tuple_rank,
    tuple_unrank,
    union_closure_check,
)
import funcon.core as core
from funcon.core import (
    BudgetExceededError,
    constraint_universe_count,
    function_count,
    mask_of_ranks,
    ranks_of_mask,
)
from funcon.lab import _report
from funcon.minors import tight_minor_relation

from conftest import AND, BOOL, C_EQ2, C_LEQ, EQ2, LEQ, cls, cset, fn
from test_kernels import record_derives


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


def test_function_apply_pointwise():
    # out_i = f(rows[0][i], rows[1][i])
    assert AND.apply_pointwise([(0, 1), (1, 1)]) == (0, 1)


def test_apply_pointwise_rejects_malformed_rows():
    # two out-of-range entries (one would read AND(1, 0)), then ragged rows
    for rows in ([(0,), (2,)], [(1,), (2,)], [(1,), (1, 0)]):
        with pytest.raises(ValueError):
            AND.apply_pointwise(rows)


def test_relation_bitmask_ops():
    assert len(LEQ) == 3
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


TRI = DomainSpec("tri", 3)
COMPOSE = Scheme(2, 1, ((0, 2), (2, 1)))  # h1 reads (c1, v1), h2 (v1, c2)

# every guarded public entry point: a call under a given budget, and the count
# its guard compares with that budget
EMPTY2 = canonical_constraint("empty", 2, BOOL, BOOL)
GUARDED = {
    "enumerate_functions": (lambda b: list(enumerate_functions(BOOL, TRI, 2, b)), 3**4),
    "enumerate_constraints": (lambda b: list(enumerate_constraints(BOOL, TRI, 1, b)), 2**2 * 2**3),
    "fsc_n": (lambda b: fsc_n(cset(C_LEQ), 2, b), 2**4),
    "csf_m": (lambda b: csf_m(cls(AND), 1, b), 2**2 * 2**2),
    "lo_m_closure": (lambda b: lo_m_closure(cls(AND), 1, b), 2**4),
    "lo_n_closure": (lambda b: lo_n_closure(cset(C_LEQ), 1, b), 2**4 * 2**4),
    "cm_m_closure": (lambda b: cm_m_closure(cset(C_LEQ), 2, budget=b), 2**4 * 2**4),
    "tight_minor_relation": (lambda b: tight_minor_relation([LEQ, LEQ], COMPOSE, max_indets=b), 1),
    # the pairs i <= j of a 3-member set
    "union_closure_check": (lambda b: union_closure_check(cset(C_LEQ, C_EQ2, EMPTY2), b), 3 * 4 // 2),
}


@pytest.mark.parametrize("call, count", GUARDED.values(), ids=GUARDED.keys())
def test_budget_boundary(call, count):
    with pytest.raises(BudgetExceededError, match="budget") as excinfo:
        call(count - 1)
    assert excinfo.value.count == count
    call(count)


def test_guards_refuse_astronomical_counts_at_once():
    # past 10,000 bits a count is named by its power of two, as Python refuses str() of an int past 4300 digits;
    # past 2^20 points function_count is the lower bound 2^(2^20), as the power itself would take terabytes,
    # so fsc_27 at (3, 3) is refused at once
    with pytest.raises(BudgetExceededError, match=r"^x: at least 2\^20000 exceeds budget 10$") as excinfo:
        core.within_budget(2**20000, 10, "x")
    assert excinfo.value.count == 2**20000
    assert function_count(TRI, TRI, 12) == 3 ** 3**12 and function_count(TRI, TRI, 13) == 2 ** (1 << 20)
    assert function_count(TRI, DomainSpec("one", 1), 27) == 1
    # a rank past that bound is still a table of arity 21, and the class checks its ranks exactly
    assert len(FunctionClass(BOOL, BOOL, {21: {2 ** (1 << 20)}})) == 1
    with pytest.raises(ValueError, match="table rank out of range for arity 21"):
        FunctionClass(BOOL, BOOL, {21: {2 ** (1 << 21)}})
    with pytest.raises(BudgetExceededError, match=r"^fsc_27 candidate functions: at least 2\^1048576 exceeds"):
        fsc_n(ConstraintSet.empty(TRI, TRI), 27)


def test_function_class_basics():
    k = cls(AND, fn((0, 1)))
    assert len(k) == 2
    assert k.arities() == (1, 2)
    assert AND in k
    assert FunctionClass(k.dom, k.cod, {2: k.ranks(2)}) == cls(AND)
    assert cls(AND).issubset(k)
    assert (cls(AND) | cls(fn((0, 1)))) == k


def test_constraint_set_basics():
    t = cset(C_LEQ)
    assert len(t) == 1 and C_LEQ in t
    assert t.issubset(t | cset(canonical_constraint("equality", 2, BOOL, BOOL)))
    assert ConstraintSet.empty(BOOL, BOOL).arities() == ()


def test_constraint_set_from_floors():
    floors = [0, 1, 1, 3]  # per unary Boolean antecedent, its least consequent
    t = ConstraintSet.from_floors(BOOL, BOOL, 1, floors)
    assert t.ranks(1) == {(r, s) for r, f in enumerate(floors) for s in range(4) if s & f == f}
    for bad in ([0, 1, 1], [0, 1, 1, 4], [0, -1, 1, 3]):
        with pytest.raises(ValueError, match="floors out of range"):
            ConstraintSet.from_floors(BOOL, BOOL, 1, bad)


def test_t15ii_sides_stay_held_as_floors(monkeypatch):
    # csf_m and the cm closure build floors, lo_n_closure keeps them on cm-closed sets, and len and
    # the report's differences read them: an equal verdict expands no set into pairs
    t = cset(C_LEQ)
    derived = record_derives(monkeypatch)
    lhs, closure = csf_m(fsc_n(t, 2), 2), cm_m_closure(t, 2).constraints
    rhs = lo_n_closure(closure, 2)
    rep = _report("t15ii", {}, lhs, rhs)
    assert (rep.verdict, rep.lhs_size, rep.rhs_size, len(closure)) == ("equal", 48, 48, 48)
    assert not lhs - rhs and not rhs - lhs and lhs.issubset(rhs)
    assert not derived
    assert all(x.floors(2) for x in (lhs, closure, rhs))


def test_collections_hash_alike_when_equal(monkeypatch):
    by_ranks = cls(AND, fn((0, 1)))
    by_masks = FunctionClass.from_masks(BOOL, BOOL, {n: by_ranks.mask(n) for n in (1, 2)})
    derived = record_derives(monkeypatch)
    assert hash(by_masks) == hash(by_ranks)
    assert not derived  # hashing derives no ranks
    assert by_masks == by_ranks and {by_ranks: "k"}[by_masks] == "k"
    t = cset(C_LEQ)
    assert {t: "t"}[ConstraintSet(BOOL, BOOL, {2: t.ranks(2)})] == "t"
    assert hash(ConstraintSet.empty(BOOL, BOOL)) == hash(ConstraintSet.empty(BOOL, BOOL))


def test_empty_arities_normalized_out():
    k = FunctionClass(BOOL, BOOL, {2: frozenset(), 1: frozenset({fn((0, 1)).rank()})})
    assert k.arities() == (1,)


def test_constructors_take_keys_and_refuse_members():
    with pytest.raises(TypeError):
        FunctionClass(BOOL, BOOL, {2: {AND}})
    with pytest.raises(TypeError):
        FunctionClass(BOOL, BOOL, {2: {AND.rank(), AND}})
    with pytest.raises(TypeError):
        ConstraintSet(BOOL, BOOL, {2: {C_LEQ}})
    with pytest.raises(TypeError):
        FunctionClass.from_tables(BOOL, BOOL, [C_LEQ])
    with pytest.raises(TypeError):
        ConstraintSet.from_constraints(BOOL, BOOL, [AND])
    # the one door for members keys each at its own arity
    assert cls(AND, fn((0, 1))) == FunctionClass(BOOL, BOOL, {1: {1}, 2: {AND.rank()}})


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
    assert ConstraintSet.from_constraints(dom, cod, [c for cs in by_constraint.values() for c in cs]) == t
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
    with pytest.raises(TypeError):
        ConstraintSet(dom, cod, {2: {full}})
    with pytest.raises(DomainMismatchError):
        ConstraintSet.from_constraints(DomainSpec("C", sizes[0] + 1), cod, [full])
    with pytest.raises(DomainMismatchError):
        ConstraintSet.from_constraints(dom, DomainSpec("C", sizes[1] + 1), [full])


def test_classes_and_sets_do_not_mix():
    k, t = cls(AND), cset(C_LEQ)
    with pytest.raises(TypeError):
        k | t
    with pytest.raises(TypeError):
        t | k
    with pytest.raises(TypeError):
        k - t
    with pytest.raises(TypeError):
        FunctionClass.empty(BOOL, BOOL).issubset(ConstraintSet.empty(BOOL, BOOL))
    with pytest.raises(TypeError):
        t.issubset(k)
    assert k != t
    with pytest.raises(DomainMismatchError):
        t | ConstraintSet.empty(DomainSpec("C", 3), BOOL)


def test_membership_of_a_foreign_object_is_false():
    k, t = cls(AND), cset(C_LEQ)
    assert 5 not in k
    assert (1, 1) not in t
    assert C_LEQ not in k
    assert AND not in t


def test_from_constructors_live_in_their_own_class():
    # perfbench/tracer.py patches these through cls.__dict__[attr]
    assert "from_tables" in FunctionClass.__dict__
    assert "from_constraints" in ConstraintSet.__dict__


def test_issubset_refuses_other_domains():
    # rank 0 is the constant-0 table under either codomain, but not the same function
    three = DomainSpec("three", 3)
    with pytest.raises(DomainMismatchError):
        FunctionClass(BOOL, BOOL, {1: {0}}).issubset(FunctionClass(BOOL, three, {1: {0}}))
    with pytest.raises(DomainMismatchError):
        FunctionClass.empty(BOOL, BOOL).issubset(FunctionClass.empty(three, BOOL))
    with pytest.raises(DomainMismatchError):
        cset(C_LEQ).issubset(ConstraintSet.empty(three, BOOL))
    assert FunctionClass(BOOL, BOOL, {1: {0}}) != FunctionClass(BOOL, three, {1: {0}})


def _random_members(dom, cod, rng):
    """Table ranks at a random choice of arities 1 and 2, some arities absent."""
    out = {}
    for n in (1, 2):
        if rng.random() < 0.75:
            count = function_count(dom, cod, n)
            out[n] = set(rng.sample(range(count), rng.randint(1, min(count, 6))))
    return out


def _both_forms(dom, cod, members):
    """Builders of the same class held as rank sets and as masks.  Each call
    builds a fresh class, so no form one check derives leaks into the next."""
    masks = {n: mask_of_ranks(r, function_count(dom, cod, n)) for n, r in members.items()}
    return {
        "ranks": lambda: FunctionClass(dom, cod, members),
        "masks": lambda: FunctionClass.from_masks(dom, cod, masks),
    }


def _no_mask_built(ranks, count):
    raise AssertionError("an operation built a mask")


@pytest.mark.parametrize("sizes", SIZE_PAIRS)
def test_rank_and_mask_forms_agree(sizes, rng, monkeypatch):
    dom, cod = DomainSpec("A", sizes[0]), DomainSpec("B", sizes[1])
    samples = [{}] + [_random_members(dom, cod, rng) for _ in range(4)]
    samples.append({n: samples[1].get(n, set()) | samples[2].get(n, set()) for n in (1, 2)})
    samples = [{n: r for n, r in members.items() if r} for members in samples]
    forms = [_both_forms(dom, cod, members) for members in samples]
    for members, build in zip(samples, forms):
        for n in (1, 2, 3):
            assert build["ranks"]().mask(n) == build["masks"]().mask(n)
            assert ranks_of_mask(build["ranks"]().mask(n)) == members.get(n, set())
    # from here on any mask an operation builds fails the test
    monkeypatch.setattr(core, "mask_of_ranks", _no_mask_built)
    for members, build in zip(samples, forms):
        tables = [FunctionTable.unrank(dom, cod, n, r) for n in sorted(members) for r in sorted(members[n])]
        for form in ("ranks", "masks"):
            assert build[form]().arities() == tuple(sorted(members))
            assert len(build[form]()) == len(tables)
            assert build[form]().tables() == tables
            names = {"FunctionClass": FunctionClass, "DomainSpec": DomainSpec}
            assert eval(repr(build[form]()), names) == build["ranks"]()
            assert all(build[form]().ranks(n) == members.get(n, set()) for n in (1, 2, 3))
            k = build[form]()
            for n in (1, 2):
                held = [f in k for f in enumerate_functions(dom, cod, n)]
                assert held == [r in members.get(n, ()) for r in range(function_count(dom, cod, n))]
    for (xs, x_forms), (ys, y_forms) in itertools.product(zip(samples, forms), repeat=2):
        arities = sorted({*xs, *ys})
        union = {n: xs.get(n, set()) | ys.get(n, set()) for n in arities}
        lhs_only = [(n, r) for n in arities for r in sorted(xs.get(n, set()) - ys.get(n, set()))]
        reports = []
        for fx, fy in itertools.product(("ranks", "masks"), repeat=2):
            x, y = x_forms[fx], y_forms[fy]
            assert (x() == y()) == (xs == ys)
            assert x().issubset(y()) == all(r <= ys.get(n, set()) for n, r in xs.items())
            union_tables = [FunctionTable.unrank(dom, cod, n, r) for n in arities for r in sorted(union[n])]
            assert (x() | y()).tables() == union_tables
            assert (x() - y()).sorted_keys() == lhs_only
            report = _report("pair", {}, x(), y())
            reports.append((report.lhs_size, report.rhs_size, report.verdict, report.symmetric_difference))
        assert reports == reports[:1] * 4
        assert reports[0][3][:len(lhs_only[:8])] == [
            f"function arity={n} table={list(FunctionTable.unrank(dom, cod, n, r).table)} (lhs only)"
            for n, r in lhs_only[:8]
        ]


def test_mask_and_rank_conversions():
    rng = random.Random(3)
    for count in (1, 2, 7, 64, 65, 1000):
        for size in (0, 1, count // 2, count):
            ranks = frozenset(rng.sample(range(count), size))
            assert ranks_of_mask(mask_of_ranks(ranks, count)) == ranks
    three = DomainSpec("three", 3)
    for dom, cod in ((BOOL, BOOL), (three, BOOL), (BOOL, three)):
        for n in (1, 2):
            count = function_count(dom, cod, n)
            k = FunctionClass.from_masks(dom, cod, {n: (1 << count) - 1})
            assert len(k) == count and k.ranks(n) == frozenset(range(count))
            for bad in (-1, 1 << count, (1 << count) | 1):
                with pytest.raises(ValueError):
                    FunctionClass.from_masks(dom, cod, {n: bad})
        with pytest.raises(ValueError):
            FunctionClass.from_masks(dom, cod, {0: 1})
    assert FunctionClass.from_masks(BOOL, BOOL, {1: 0, 2: 0}) == FunctionClass.empty(BOOL, BOOL)
    assert FunctionClass.from_masks(BOOL, BOOL, {1: 0, 2: 1}).arities() == (2,)


def test_ranks_of_mask_reads_sparse_masks_by_set_bits(monkeypatch):
    # a mask of p set bits is read by its binary digits up to bit length 64·p, and one set bit at a time past it
    digit_reads = []
    monkeypatch.setattr(core, "format", lambda *a: digit_reads.append(a) or format(*a), raising=False)

    def dense(mask):  # the scalar reference: the digits of the mask, lowest first
        return frozenset(i for i, digit in enumerate(reversed(bin(mask)[2:])) if digit == "1")

    assert ranks_of_mask(0) == frozenset() and ranks_of_mask(1) == frozenset({0})
    rng = random.Random(11)
    for popcount in (1, 2, 3, 12, 40):
        for length, digit_read in ((64 * popcount - 1, True), (64 * popcount, True), (64 * popcount + 1, False)):
            for _ in range(3):
                lower = rng.sample(range(length - 1), popcount - 1)
                mask = (1 << length - 1) | sum(1 << r for r in lower)
                assert mask.bit_count() == popcount and mask.bit_length() == length
                digit_reads.clear()
                assert ranks_of_mask(mask) == dense(mask)
                assert bool(digit_reads) == digit_read


def test_mask_built_class_reads_whole_through_public_api():
    # every arity a mask holds is seen before and after any rank is derived
    k = FunctionClass.from_masks(BOOL, BOOL, {1: 0b0110, 2: 1 << 6})
    built = FunctionClass(BOOL, BOOL, {1: {1, 2}, 2: {6}})
    assert not hasattr(k, "by_arity")
    assert k.arities() == (1, 2) and len(k) == 3
    assert k.ranks(2) == {6} and k.arities() == (1, 2)
    assert k.members(1) == built.members(1)
    assert k.tables() == built.tables() and k == built
    assert repr(k) == repr(built) == (
        "FunctionClass(dom=DomainSpec(name='bool', size=2), cod=DomainSpec(name='bool', size=2), "
        "by_arity={1: frozenset({1, 2}), 2: frozenset({6})})"
    )
