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
    lo_n_closure,
    minor_check,
    relaxation_of,
    union_closure_check,
)
from funcon.core import BudgetExceededError, ConstraintSet, constraint_universe_count

from conftest import (
    BOOL,
    C_EQ2,
    C_LEQ,
    GEQ,
    cset,
    minor_witnesses,
    moved_ranks,
    relabel_bits,
    relabel_constraints,
    value_permutations,
)


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


def closure_battery():
    """Seeded closures of random 1-3 pair sets: two at each of (2,2), (3,2), (2,3) and (3,3) for m <= 2
    and v = 0..3, three and the six pool pairs at Boolean m = 3 for v = 1 and 2, and two of cm_closure at
    caps 1 and 2 for v = 0..2."""
    rng = random.Random(30)

    def pairs(a, b, m, count):
        return frozenset((rng.randrange(1, 1 << a**m), rng.randrange(1 << b**m)) for _ in range(count))

    for (a, b), m, v, _ in itertools.product([(2, 2), (3, 2), (2, 3), (3, 3)], (1, 2), range(4), range(2)):
        t = ConstraintSet(DomainSpec("A", a), DomainSpec("B", b), {m: pairs(a, b, m, rng.randint(1, 3))})
        yield cm_m_closure(t, m, CmBounds(max_indets=v))
    for v in (1, 2):
        for seeds in [pairs(2, 2, 3, rng.randint(1, 2)) for _ in range(3)] + [{pair} for pair in POOL_M3]:
            yield cm_m_closure(ConstraintSet(BOOL, BOOL, {3: frozenset(seeds)}), 3, CmBounds(max_indets=v))
    for cap, v, _ in itertools.product((1, 2), range(3), range(2)):
        m = rng.randint(1, cap)
        yield cm_closure(ConstraintSet(BOOL, BOOL, {m: pairs(2, 2, m, rng.randint(1, 3))}), cap, CmBounds(max_indets=v))


def test_closure_battery_is_pinned():
    """The floors, rounds, convergence and every entered witness of the battery, hashed: a change to
    the fixpoint that keeps its results keeps this digest, under any hash seed."""
    digest = hashlib.sha256()
    started = time.perf_counter()
    for res in closure_battery():
        for m in sorted(res.entered):
            digest.update(repr((m, res.constraints.floors(m), sorted(res.entered[m].items()))).encode())
        digest.update(repr((res.iterations, res.converged)).encode())
    assert time.perf_counter() - started < 2
    assert digest.hexdigest() == "5cb80aa1a7bebbfce0c22121364778a54cef94953595c029495af6b7a5545d08"


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
            floors = [0] * len(res.constraints.floors(m))
            for r, floor in enumerate(res.constraints.floors(m)):
                floors[relabel_bits(r, moved_a)] = relabel_bits(floor, moved_b)
            assert (list(moved.constraints.floors(m)), moved.converged, moved.iterations) == (floors, res.converged, res.iterations)


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3), (3, 3)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_lo_n_closure_commutes_with_relabeling(sizes):
    """lo_n_closure(g T, n) = g lo_n_closure(T, n) for g a pair of value
    permutations (pi_A, pi_B) and a permutation sigma of the m coordinates, at
    m, n <= 2: on sets held as floors, relabeled by their floors, and on the
    pairs above those floors at antecedents of at most n tuples, which the
    closure grows to the larger antecedents."""
    a, b = sizes
    dom, cod = DomainSpec("A", a), DomainSpec("B", b)
    rng = random.Random(55 * a + b)
    for m, n in itertools.product((1, 2), (1, 2)):
        full = (1 << b**m) - 1
        # dense floors keep the pairs above them few
        floors = [rng.randrange(full + 1) | rng.randrange(full + 1) for _ in range(1 << a**m)]
        small = {(r, s) for r, floor in enumerate(floors) if r.bit_count() <= n for s in range(full + 1) if s & floor == floor}
        held, pairs = ConstraintSet.from_floors(dom, cod, m, floors), ConstraintSet(dom, cod, {m: small})
        closed_held, closed_pairs = lo_n_closure(held, n), lo_n_closure(pairs, n)
        assert len(closed_pairs) > len(pairs) or n >= a**m  # the larger antecedents gain pairs
        for (pi_a, pi_b), sigma in itertools.product(zip(value_permutations(a), value_permutations(b)[::-1]),
                                                     itertools.permutations(range(m))):
            moved_a, moved_b = moved_ranks(a, m, pi_a, sigma), moved_ranks(b, m, pi_b, sigma)
            moved_floors = [0] * len(floors)
            for r, floor in enumerate(floors):
                moved_floors[relabel_bits(r, moved_a)] = relabel_bits(floor, moved_b)
            assert lo_n_closure(ConstraintSet.from_floors(dom, cod, m, moved_floors), n) == \
                relabel_constraints(closed_held, pi_a, pi_b, {m: sigma})
            assert lo_n_closure(relabel_constraints(pairs, pi_a, pi_b, {m: sigma}), n) == \
                relabel_constraints(closed_pairs, pi_a, pi_b, {m: sigma})


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


def test_cm_round_meets_are_refused_above_the_budget():
    one_in_three = Relation.from_tuples(BOOL, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    t = ConstraintSet.from_constraints(BOOL, BOOL, [Constraint(one_in_three, one_in_three)])
    # its rounds make 130, 22620, 176539 and 49206 meets; the universe and lift guards count 65536 and 4000
    with pytest.raises(BudgetExceededError, match="meets of a round at arity 3: 176539 exceeds budget 100000"):
        cm_m_closure(t, 3, budget=100_000)
    assert cm_m_closure(t, 3, budget=176_539).converged


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
    assert lo_n_closure(t, 2**2) == t  # at n = |A|^m


@pytest.mark.parametrize("sizes, m", [((2, 2), 2), ((3, 2), 1)])
def test_lo_n_closure_returns_an_arity_as_it_came_at_n_of_every_antecedent(sizes, m):
    # at n >= |A|^m no antecedent has more than n tuples, so nothing is added: pairs come back as pairs, floors as floors
    dom, cod = DomainSpec("a", sizes[0]), DomainSpec("b", sizes[1])
    rng = random.Random(10 * sizes[0] + m)
    n_ante, n_cons = 1 << dom.size**m, 1 << cod.size**m
    pairs = ConstraintSet(dom, cod, {m: {(rng.randrange(n_ante), rng.randrange(n_cons)) for _ in range(12)}})
    floors = ConstraintSet.from_floors(dom, cod, m, [rng.randrange(n_cons) for _ in range(n_ante)])
    for t in (pairs, floors):
        for n in (dom.size**m, dom.size**m + 1, 2 * dom.size**m):
            closed = lo_n_closure(t, n)
            assert closed == t and closed.floors(m) == t.floors(m)


@pytest.mark.parametrize("sizes, m", [((2, 2), 4), ((3, 3), 3)], ids=["2x2-m4", "3x3-m3"])
def test_lo_n_closure_at_n_of_every_antecedent_reads_no_universe(sizes, m):
    # at n = |A|^m the set comes back at the default budget, though its constraint universe is far past it;
    # one tuple less, the closure would read that universe, so it is refused with the universe's count
    dom, cod = DomainSpec("a", sizes[0]), DomainSpec("b", sizes[1])
    rng = random.Random(7 * sizes[0] + m)
    t = ConstraintSet(dom, cod, {m: {(rng.getrandbits(dom.size**m), rng.getrandbits(cod.size**m)) for _ in range(5)}})
    closed = lo_n_closure(t, dom.size**m)
    assert closed == t and closed.ranks(m) == t.ranks(m)
    with pytest.raises(BudgetExceededError, match=f"constraints of arity {m}") as excinfo:
        lo_n_closure(t, dom.size**m - 1)
    assert excinfo.value.count == constraint_universe_count(dom, cod, m) == 2 ** (sizes[0]**m + sizes[1]**m)


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
