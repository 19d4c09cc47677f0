"""Differential tests of the bit-sliced Galois kernels against scalar
references built from ``satisfies`` over the enumerated function and
constraint universes, on seeded instances off the Boolean domain too, of the
csf_m probe masks and probe groups on dense classes against the walk over
every probe, and of the constraint-side mask kernels (lift, projection, the floor add pass,
maximal members, ``lo_n_closure``) against scalar pair-by-pair reference
loops, of the cm fixpoint against the tuple-keyed all-pairs round loop, of
``core.subset_fold`` against a fold over ``core.submasks``, of the reading
table ``core.readings``, the permutation tables ``core.permutation_tables``
and the tight minor built on them against digit-by-digit decoding, and of S_min, the separators ``fsc_n_of_csf_m`` and the floors
``csf_m`` read off the probe groups, against ``minimal_consequent``, and of the variable-substitution
closures, which rank member tables through ``core.readings``, against
``substitute`` over every ``SubstitutionMap``."""

import functools
import itertools
import operator
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import funcon
from funcon import (
    CmBounds,
    Constraint,
    ConstraintSet,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    Relation,
    Scheme,
    SubstitutionMap,
    cm_closure,
    cm_m_closure,
    csf_m,
    enumerate_constraints,
    enumerate_functions,
    fsc_n,
    fsc_n_of_csf_m,
    lo_m_closure,
    lo_n_closure,
    minimal_consequent,
    random_function_class,
    satisfies,
    substitute,
    tuple_rank,
    tuple_unrank,
    vs_closure,
    vs_n_closure,
)
from funcon.constraint_closures import _add, _lift_tables, _maximal, _project, _projection
from funcon.core import (
    DEFAULT_ENUMERATION_BUDGET,
    column_masks,
    constraint_universe_count,
    function_count,
    mask_of_ranks,
    permutation_tables,
    permute,
    readings,
    submasks,
    subset_fold,
)
from funcon.satisfaction import _minimal_consequents, _orbit_plan, _probe_masks, probe_groups
from funcon.minors import tight_minor_relation

from conftest import minor_witnesses

# (|A|, |B|) with the function arities n and the constraint arities m at
# which the scalar references stay small; csf_reference scans the whole
# m-ary constraint universe, 2^18 constraints at (3, 3) and m = 2
DOMAIN_PAIRS = [
    ((2, 2), (1, 2, 3), (1, 2)),
    ((3, 2), (1, 2), (1, 2)),
    ((2, 3), (1, 2), (1, 2)),
    ((3, 3), (1, 2), (1,)),
]


def domains(sizes):
    a, b = sizes
    dom = DomainSpec("a", a)
    return dom, (dom if a == b else DomainSpec("b", b))


def fsc_reference(t: ConstraintSet, n: int) -> FunctionClass:
    return FunctionClass.from_tables(
        t.dom,
        t.cod,
        (
            f
            for f in enumerate_functions(t.dom, t.cod, n)
            if all(satisfies(f, c) for c in t.constraints())
        ),
    )


def csf_reference(k: FunctionClass, m: int) -> ConstraintSet:
    return ConstraintSet.from_constraints(
        k.dom,
        k.cod,
        (
            c
            for c in enumerate_constraints(k.dom, k.cod, m)
            if all(satisfies(f, c) for f in k.tables())
        ),
    )


def lo_m_reference(k: FunctionClass, m: int) -> FunctionClass:
    """Every table agreeing with some member on each point subset of size <= m."""
    kept = []
    for n in k.arities():
        points = k.dom.size**n
        subsets = [
            s for d in range(1, min(m, points) + 1) for s in itertools.combinations(range(points), d)
        ]
        members = k.members(n)
        for g in enumerate_functions(k.dom, k.cod, n):
            if all(
                any(all(g.table[p] == f.table[p] for p in s) for f in members) for s in subsets
            ):
                kept.append(g)
    return FunctionClass.from_tables(k.dom, k.cod, kept)


def random_constraint(rng, dom, cod, m):
    """A small antecedent with a dense consequent, so fsc stays non-trivial."""
    ante_universe, cons_universe = dom.size**m, cod.size**m
    ante = rng.sample(range(ante_universe), rng.randint(1, min(3, ante_universe)))
    cons = rng.sample(range(cons_universe), rng.randint(cons_universe // 2, cons_universe))
    return Constraint(Relation.from_ranks(dom, m, ante), Relation.from_ranks(cod, m, cons))


@pytest.mark.parametrize("sizes, arities, constraint_arities", DOMAIN_PAIRS)
def test_fsc_n_matches_scalar_reference(sizes, arities, constraint_arities):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    for m in (1, 2):
        for _ in range(3):
            t = ConstraintSet.from_constraints(
                dom, cod, [random_constraint(rng, dom, cod, m) for _ in range(rng.randint(1, 2))]
            )
            for n in arities:
                assert fsc_n(t, n) == fsc_reference(t, n)


@pytest.mark.parametrize("sizes, arities, constraint_arities", DOMAIN_PAIRS)
def test_csf_m_matches_scalar_reference(sizes, arities, constraint_arities):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    for n in arities[:2]:
        for count in (1, 3):
            k = random_function_class(rng, dom, cod, n, count)
            if n > 1:  # a class over two arities
                k = k | random_function_class(rng, dom, cod, 1, 1)
            for m in constraint_arities:
                assert csf_m(k, m) == csf_reference(k, m)


@pytest.mark.parametrize("sizes, arities, constraint_arities", DOMAIN_PAIRS)
def test_lo_m_closure_matches_pattern_reference(sizes, arities, constraint_arities):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    for n in arities[:2]:
        k = random_function_class(rng, dom, cod, n, 3)
        for m in (1, 2, 3):
            assert lo_m_closure(k, m) == lo_m_reference(k, m)


@pytest.mark.parametrize("sizes, arities, constraint_arities", DOMAIN_PAIRS)
def test_fsc_n_of_csf_m_matches_scalar_reference(sizes, arities, constraint_arities):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    for n in arities[:2]:
        k = random_function_class(rng, dom, cod, n, 2)
        for m in constraint_arities:
            assert fsc_n_of_csf_m(k, n, m) == fsc_reference(csf_reference(k, m), n)


def vs_reference(k: FunctionClass, targets) -> FunctionClass:
    """Every member put through ``substitute`` with every map into each target arity."""
    return FunctionClass.from_tables(k.dom, k.cod, [
        substitute(f, SubstitutionMap(n, t, assignment))
        for n in k.arities()
        for f in k.members(n)
        for t in targets
        for assignment in itertools.product(range(1, t + 1), repeat=n)
    ])


@pytest.mark.parametrize("sizes, arities, constraint_arities", DOMAIN_PAIRS[:3])
def test_vs_closures_match_substitute_reference(sizes, arities, constraint_arities):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    for n in arities:
        for count in (1, 2, 4):
            k = random_function_class(rng, dom, cod, n, count)
            assert vs_n_closure(k) == vs_reference(k, [n])
            mixed = k | random_function_class(rng, dom, cod, 1, 1)
            for cap in (1, 2, 3):
                assert vs_closure(mixed, cap) == vs_reference(mixed, range(1, cap + 1))


def separators_reference(k: FunctionClass, n: int, m: int) -> list[tuple[int, int]]:
    antecedents = (
        Relation.from_ranks(k.dom, m, ranks)
        for j in range(n + 1)
        for ranks in itertools.combinations(range(k.dom.size**m), j)
    )
    return [(r.bits, minimal_consequent(k, r).bits) for r in antecedents]


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3)])
def test_separators_match_minimal_consequent(sizes):
    dom, cod = domains(sizes)
    rng = random.Random(40 + 10 * sizes[0] + sizes[1])
    classes = [FunctionClass.empty(dom, cod)]
    for arities in ((1,), (2,), (1, 2)):  # single- and mixed-arity classes
        for count in (1, 3):
            k = FunctionClass.empty(dom, cod)
            for a in arities:
                k = k | random_function_class(rng, dom, cod, a, count)
            classes.append(k)
    for k in classes:
        for m in (1, 2):
            # below, at and above the class arities, and at n = |A|^m, the full table csf_m reads
            full = [dom.size**m] if constraint_universe_count(dom, cod, m) <= 10**6 else []
            for n in sorted({1, 2, 3, *full}):
                assert list(_minimal_consequents(k, m, n, 10**6).items()) == separators_reference(k, n, m)


def test_csf_1_of_boolean_arity_5_class_evaluates_members():
    # 2^32 arity-5 tables exceed the default budget, so no column table exists
    # and the probe walk runs on a column table over the members
    bool_ = DomainSpec("bool", 2)
    rng = random.Random(5)
    tables = [
        FunctionTable(bool_, bool_, 5, tuple(rng.randrange(2) for _ in range(32)))
        for _ in range(3)
    ]
    parity = FunctionTable(bool_, bool_, 5, tuple(bin(r).count("1") % 2 for r in range(32)))
    for members in (tables, tables[:1], [parity]):
        k = FunctionClass.from_tables(bool_, bool_, members)
        assert csf_m(k, 1) == csf_reference(k, 1)


def walk_reference(k: FunctionClass, n: int, m: int) -> list[int]:
    """Entry q: the value tuples k's arity-n part takes at probe q, walking
    every m-point probe and every value at each point (no orbit walk, no
    difference read, no fill).  Arities past the default budget evaluate
    every member at every probe."""
    points, cod_size = k.dom.size**n, k.cod.size
    masks = [0] * points**m
    if function_count(k.dom, k.cod, n) > DEFAULT_ENUMERATION_BUDGET:
        probes = [tuple_unrank(q, points, m) for q in range(points**m)]
        for f in k.members(n):
            for q, probe in enumerate(probes):
                masks[q] |= 1 << tuple_rank([f.table[p] for p in probe], cod_size)
        return masks
    cols = column_masks(k.dom, k.cod, n)

    def walk(depth, q, s, within):
        for p in range(points):
            for v, col in enumerate(cols[p]):
                hit = within & col
                if not hit:
                    continue
                if depth == 1:
                    masks[q * points + p] |= 1 << (s * cod_size + v)
                else:
                    walk(depth - 1, q * points + p, s * cod_size + v, hit)

    walk(m, 0, 0, k.mask(n))
    return masks


def probe_groups_reference(k: FunctionClass, m: int) -> dict[int, int]:
    """The reference masks ORed by cross-row set, every probe point decoded
    digit by digit: row j of a probe reads coordinate j of each point."""
    size = k.dom.size
    groups: dict[int, int] = {}
    for n in k.arities():
        for q, mask in enumerate(walk_reference(k, n, m)):
            points = [tuple_unrank(p, size, n) for p in tuple_unrank(q, size**n, m)]
            key = 0
            for j in range(n):
                key |= 1 << tuple_rank([point[j] for point in points], size)
            groups[key] = groups.get(key, 0) | mask
    return groups


def csf_pairs_from_groups(k: FunctionClass, m: int, groups: dict[int, int]) -> set[tuple[int, int]]:
    """The (r, s) whose consequent s holds the group of every subset of r."""
    pairs = set()
    for r in range(1 << k.dom.size**m):
        floor = 0
        for key, mask in groups.items():
            if key & ~r == 0:
                floor |= mask
        pairs.update((r, s) for s in range(1 << k.cod.size**m) if s & floor == floor)
    return pairs


def dense_masks(dom: DomainSpec, cod: DomainSpec, n: int, rng) -> dict[str, int]:
    """The full universe of n-ary tables; those with f(0..0) = 0; those with a 0
    at the first or the last point (3/4 of them on Boolean); all but three."""
    count = function_count(dom, cod, n)
    full = (1 << count) - 1
    first = (1 << count // cod.size) - 1  # the digit of point 0 is the most significant
    last = mask_of_ranks(range(0, count, cod.size), count)
    sparse = mask_of_ranks(rng.sample(range(count), 3), count)
    return {"full": full, "half": first, "3/4": first | last, "co-sparse": full & ~sparse}


def dense_cases():
    """pytest params (class, constraint arities, whether csf_m fits the default
    budget, whether csf_reference is cheap)."""
    rng = random.Random(18)
    bool_ = DomainSpec("bool", 2)
    cases = []
    for sizes, n, arities, fits in (((2, 2), 3, (2,), True), ((2, 2), 4, (2,), True),
                                    ((2, 3), 2, (3,), False), ((3, 2), 2, (2,), True)):
        dom, cod = domains(sizes)  # (2, 3) at m = 3: 27-bit value masks, four byte chunks
        for name, mask in dense_masks(dom, cod, n, rng).items():
            k = FunctionClass.from_masks(dom, cod, {n: mask})
            cases.append(pytest.param(k, arities, fits, False, id=f"{sizes[0]}x{sizes[1]}-n{n}-{name}"))
    mixed = FunctionClass.from_masks(bool_, bool_, {
        1: dense_masks(bool_, bool_, 1, rng)["full"], 2: dense_masks(bool_, bool_, 2, rng)["half"]
    })
    mixed = mixed | random_function_class(rng, bool_, bool_, 3, 3)
    cases.append(pytest.param(mixed, (1, 2), True, True, id="mixed-arity"))
    # 2^32 arity-5 tables: no column table, so the members evaluate the probes
    tables = [FunctionTable(bool_, bool_, 5, tuple(rng.randrange(2) for _ in range(32))) for _ in range(12)]
    tables.append(FunctionTable(bool_, bool_, 5, tuple(bin(r).count("1") % 2 for r in range(32))))
    cases.append(pytest.param(FunctionClass.from_tables(bool_, bool_, tables), (1, 2), True, False, id="arity-5"))
    # 3^27 ternary tables over a 3-element domain: the member columns read three values
    dom, cod = domains((3, 3))
    tables = [FunctionTable(dom, cod, 3, tuple(rng.randrange(3) for _ in range(27))) for _ in range(6)]
    cases.append(pytest.param(FunctionClass.from_tables(dom, cod, tables), (1, 2), True, False, id="3x3-arity-3"))
    return cases


@pytest.mark.parametrize("k, constraint_arities, csf_fits, reference_cheap", dense_cases())
def test_csf_m_matches_the_all_probes_walk_on_dense_classes(k, constraint_arities, csf_fits, reference_cheap):
    for m in constraint_arities:
        for n in k.arities():
            assert _probe_masks(k, n, m, DEFAULT_ENUMERATION_BUDGET) == walk_reference(k, n, m)
        groups = probe_groups_reference(k, m)
        assert probe_groups(k, m, DEFAULT_ENUMERATION_BUDGET) == groups
        if csf_fits:
            assert csf_m(k, m).ranks(m) == csf_pairs_from_groups(k, m, groups)
        if reference_cheap or m == 1:
            assert csf_m(k, m) == csf_reference(k, m)


def test_probe_masks_stay_small_at_wide_constraint_arities():
    # at m = 8 the fill tables of 8! permutations over 256-bit value masks
    # would take gigabytes, so the walk visits every probe and keeps no tables
    bool_ = DomainSpec("bool", 2)
    rng = random.Random(8)
    tables = [FunctionTable(bool_, bool_, 1, (0, 1)), FunctionTable(bool_, bool_, 1, (1, 1))]
    tables += [FunctionTable(bool_, bool_, 2, tuple(rng.randrange(2) for _ in range(4))) for _ in range(5)]
    k = FunctionClass.from_tables(bool_, bool_, tables)
    started = time.perf_counter()
    out = fsc_n_of_csf_m(k, 1, 8)
    assert time.perf_counter() - started < 10
    assert list(_minimal_consequents(k, 8, 1, 10**6).items()) == separators_reference(k, 1, 8)
    assert out.ranks(1) == fsc_n(ConstraintSet(bool_, bool_, {8: separators_reference(k, 1, 8)}), 1).ranks(1)
    for n in (1, 2):
        assert _orbit_plan(2, n, 8, 2)[1] is None
        assert _probe_masks(k, n, 8, DEFAULT_ENUMERATION_BUDGET) == walk_reference(k, n, 8)
    for shape in [(2, 2, 2, 2), (2, 2, 4, 2), (3, 1, 3, 3), (2, 1, 2, 16), (2, 1, 3, 5), (2, 1, 5, 2)]:
        fill = _orbit_plan(*shape)[1] or []
        entries = {id(chunks): len(chunks) * 256 for _, chunks in fill if chunks}
        assert sum(entries.values()) <= 1 << 14, shape


def test_missing_verify_parameter_raises_under_optimize():
    # the parameter checks are exceptions, so they survive python -O
    script = (
        "import sys\n"
        "from funcon import DomainSpec, FunctionClass, verify_factorization\n"
        "bool_ = DomainSpec('bool', 2)\n"
        "try:\n"
        "    verify_factorization('t15i', FunctionClass.empty(bool_, bool_), n=2)\n"
        "except ValueError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(funcon.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1 t15i needs parameter m"


# the constraint-side kernels


@functools.cache
def decoded_readings(h, m, v, size):
    """Decode every extended tuple digit by digit and read it through h."""
    reads = []
    for rank in range(size ** (m + v)):
        digits = []
        rr = rank
        for _ in range(m + v):
            digits.append(rr % size)
            rr //= size
        digits.reverse()
        read = 0
        for e in h:
            read = read * size + digits[e]
        reads.append(read)
    return tuple(reads)


def lift_reference(r_bits, h, m, v, size):
    """The extended tuples whose h-reading is in the source relation."""
    return sum(1 << rank for rank, read in enumerate(decoded_readings(h, m, v, size)) if r_bits >> read & 1)


def maximal_reference(members):
    """Members not a strict relaxation of any other member, by a pairwise scan."""
    pairs = sorted(members)
    return [
        (r, s)
        for r, s in pairs
        if not any((r2, s2) != (r, s) and r & ~r2 == 0 and s2 & ~s == 0 for r2, s2 in pairs)
    ]


def lo_n_reference(t, n):
    """Add, pair by pair, every constraint all of whose relaxations with
    antecedent of size at most n are present, sweeping until nothing changes."""
    result = {}
    for m in t.arities():
        present = set(t.ranks(m))
        n_cons = t.cod.size**m
        changed = True
        while changed:
            changed = False
            for r_bits in range(1 << t.dom.size**m):
                ranks = [i for i in range(t.dom.size**m) if (r_bits >> i) & 1]
                if len(ranks) <= n:
                    continue
                for s_bits in range(1 << n_cons):
                    if (r_bits, s_bits) not in present and small_relaxations_present(
                        present, ranks, s_bits, n, n_cons
                    ):
                        present.add((r_bits, s_bits))
                        changed = True
        result[m] = present
    return ConstraintSet(t.dom, t.cod, result)


def small_relaxations_present(present, ranks, s_bits, n, n_cons):
    missing = ((1 << n_cons) - 1) & ~s_bits
    for k in range(0, min(n, len(ranks)) + 1):
        for subset in itertools.combinations(ranks, k):
            f_bits = sum(1 << i for i in subset)
            sup = missing
            while True:
                if (f_bits, s_bits | sup) not in present:
                    return False
                if sup == 0:
                    break
                sup = (sup - 1) & missing
    return True


def random_pair_set(rng, dom, cod, m, count):
    pairs = {
        (rng.randrange(1 << dom.size**m), rng.randrange(1 << cod.size**m)) for _ in range(count)
    }
    return ConstraintSet(dom, cod, {m: frozenset(pairs)})


def dense_pair_set(rng, dom, cod, m, density):
    """Each m-ary pair present with the given probability."""
    pairs = itertools.product(range(1 << dom.size**m), range(1 << cod.size**m))
    return ConstraintSet(dom, cod, {m: frozenset(p for p in pairs if rng.random() < density)})


CONSTRAINT_SIDE_PAIRS = [(2, 2), (3, 2), (2, 3)]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_lift_matches_digit_decoding(size):
    """Every map, in product order, over source widths size^k of 1 to 9 bits:
    the sum of a mask's nibble columns is its digit-decoded lift, and a
    partial last chunk of w bits has 2^w columns."""
    rng = random.Random(19 + size)
    for k, m, v in itertools.product((1, 2, 3), (1, 2), (0, 1, 2, 3)):
        width = size**k
        if width > 9:
            continue
        maps, columns = _lift_tables(k, m, v, size)
        assert maps == tuple(itertools.product(range(m + v), repeat=k))
        assert [len(chunk) for chunk in columns] == [1 << min(4, width - c) for c in range(0, width, 4)]
        for r_bits in (0, (1 << width) - 1, rng.getrandbits(width), rng.getrandbits(width)):
            lifts = [sum(chunk[r_bits >> 4 * c & 15][i] for c, chunk in enumerate(columns)) for i in range(len(maps))]
            assert lifts == [lift_reference(r_bits, h, m, v, size) for h in maps]


def project_reference(bits, m, v, size):
    """One test per block of size^v bits: its projected bit is set iff any is."""
    block = size**v
    out = 0
    mask = (1 << block) - 1
    for ar in range(size**m):
        if (bits >> (ar * block)) & mask:
            out |= 1 << ar
    return out


def test_project_matches_block_loop():
    rng = random.Random(16)
    checked = set()
    for size, m, v in itertools.product((2, 3, 4), (1, 2, 3), (0, 1, 2, 3)):
        width = size ** (m + v)
        if width > 4096:
            continue
        checked.add((v == 0, size**m > 8))
        masks = [0, (1 << width) - 1]
        for density in (1, 4, 32):  # random sparse masks: about one bit in density set
            masks += [sum(1 << x for x in range(width) if rng.randrange(density) == 0) for _ in range(4)]
        for bits in masks:
            assert _project(bits, m, v, size) == project_reference(bits, m, v, size)
    assert checked == {(False, False), (False, True), (True, False), (True, True)}
    # every table a projection reads holds at most 256 entries
    assert max(len(table) for m, v, size in itertools.product((1, 2, 3), (0, 1, 2), (2, 3, 4))
               for *_, table in _projection(m, v, size)[1]) == 256


def fixpoint_reference(t, targets, bounds):
    """The round loop as a tuple-keyed scan over every pair i <= j of lifts,
    projecting each meet not seen before block by block: the floors, the
    rounds run and whether it converged."""
    sa, sb = t.dom.size, t.cod.size
    floors, entered = {}, {m: {} for m in targets}  # _add records its witnesses here, unread
    for m in targets:
        eq = tuple(sum(1 << x for x in readings((0,) * m, 1, size)) for size in (sa, sb))
        floors[m] = [(1 << sb**m) - 1] * (1 << sa**m)
        for pair in [*t.ranks(m), eq, (0, 0)]:
            _add(floors[m], entered[m], pair, m)
    v, done, converged, iteration = bounds.max_indets, set(), False, 0
    for iteration in range(1, bounds.max_iterations + 1):
        changed = False
        maximals = {m: _maximal(floors[m], sa**m) for m in targets}
        for m in targets:
            lifts = set()
            for src_arity in targets:
                for r, s in maximals[src_arity]:
                    for h in itertools.product(range(m + v), repeat=src_arity):
                        lifts.add((lift_reference(r, h, m, v, sa), lift_reference(s, h, m, v, sb)))
            pairs = list(lifts)
            for i, (la, lb) in enumerate(pairs):
                for la2, lb2 in pairs[i:]:
                    key = (m, la & la2, lb & lb2)
                    if key in done:
                        continue
                    done.add(key)
                    cand = (project_reference(key[1], m, v, sa), project_reference(key[2], m, v, sb))
                    if floors[m][cand[0]] & ~cand[1]:
                        _add(floors[m], entered[m], cand, m)
                        changed = True
        if not changed:
            converged = True
            break
    return floors, iteration, converged


def boolean_ternary_set(ante, cons):
    """{(ante, cons)} over the Boolean ternary relations of two predicates."""
    bool_ = DomainSpec("bool", 2)
    r, s = (Relation.from_tuples(bool_, 3, [t for t in itertools.product((0, 1), repeat=3) if p(*t)])
            for p in (ante, cons))
    return ConstraintSet.from_constraints(bool_, bool_, [Constraint(r, s)])


def test_fixpoint_matches_all_pairs_round():
    gap = boolean_ternary_set(lambda a, b, c: a + b + c == 1, lambda a, b, c: (a + b + c) % 2 == 0)
    runs = [(gap, [3], CmBounds(max_indets=k)) for k in (0, 1, 2)]  # the instance of test_t15ii_gap
    for pool in (lambda a, b, c: not a == b == c, lambda a, b, c: a <= b <= c, lambda a, b, c: a + b + c >= 2):
        runs.append((boolean_ternary_set(pool, pool), [3], CmBounds()))
    runs.append((runs[-1][0], [3], CmBounds(max_iterations=1)))
    # four rounds, where the meets of a fresh lift with an old one still add members
    runs.append((ConstraintSet(gap.dom, gap.cod, {3: frozenset({(97, 230)})}), [3], CmBounds(max_indets=1)))
    rng = random.Random(1616)
    for sizes in [(2, 2), (3, 2), (2, 3), (3, 3)]:
        dom, cod = domains(sizes)
        for bounds in [CmBounds(), CmBounds(max_indets=3)] if sizes != (3, 3) else [CmBounds()]:
            runs.append((random_pair_set(rng, dom, cod, 2, 3), [2], bounds))
    dom, cod = domains((2, 3))
    runs.append((random_pair_set(rng, dom, cod, 1, 2) | random_pair_set(rng, dom, cod, 2, 2), [1, 2], CmBounds()))
    # a one-element domain on either side: {(A^2, <=)}, and {({(0, 1)}, empty)}, whose rounds add minors
    for sizes, pair in [((1, 2), (1, 0b1011)), ((2, 1), (0b0010, 0))]:
        dom, cod = domains(sizes)
        runs.append((ConstraintSet(dom, cod, {2: frozenset({pair})}), [2], CmBounds()))
    # source arities 1..3 feed every target arity 1..3
    runs.append((random_pair_set(rng, gap.dom, gap.cod, 1, 1) | random_pair_set(rng, gap.dom, gap.cod, 2, 2), [1, 2, 3], CmBounds()))
    for t, targets, bounds in runs:
        res = cm_m_closure(t, targets[0], bounds) if len(targets) == 1 else cm_closure(t, len(targets), bounds)
        assert (res.floors, res.iterations, res.converged) == fixpoint_reference(t, targets, bounds)
        # the engine meets one lift per orbit and adds permuted floors, so its witnesses are its own; the
        # (3, 3) closure (all 262144 members) and the one to arity 3 (65808) take 10 s to decode and are left out
        if len(res.constraints) < 10_000:
            minor_witnesses(res, t)


def readings_reference(h, k, size):
    tuples = [tuple_unrank(x, size, k) for x in range(size**k)]
    return tuple(tuple_rank([t[e] for e in h], size) for t in tuples)


@pytest.mark.parametrize("size", [2, 3])
def test_readings_match_unrank_then_rank(size):
    rng = random.Random(20 + size)
    for k in range(5):
        maps = [(), tuple(range(k)), tuple(reversed(range(k))), (0,) * (k + 1)] if k else [()]
        for _ in range(12 if k else 0):  # these repeat and skip coordinates, some outgrow k
            maps.append(tuple(rng.randrange(k) for _ in range(rng.randint(1, k + 2))))
        for h in maps:
            assert readings(h, k, size) == readings_reference(h, k, size)
    with pytest.raises(ValueError):
        readings((2,), 2, size)


@pytest.mark.parametrize("size", [2, 3])
def test_permute_matches_readings_reference(size):
    """The byte tables of ``core.permutation_tables`` move a rank mask R over
    size^m to {x : x read through p is in R}, read tuple by tuple, for every
    coordinate permutation p at m <= 4."""
    rng = random.Random(30 + size)
    for m in range(1, 5):
        width = size**m
        for p in itertools.permutations(range(m)):
            reads = readings_reference(p, m, size)
            for mask in [0, (1 << width) - 1, *(rng.getrandbits(width) for _ in range(6))]:
                assert permute(permutation_tables(p, size), mask) == sum(1 << x for x, read in enumerate(reads) if mask >> read & 1)


def test_readings_table_is_filled_lazily():
    script = "import funcon\nfrom funcon.core import readings\nprint(readings.cache_info().currsize)\n"
    env = {**os.environ, "PYTHONPATH": str(Path(funcon.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def tight_minor_reference(relations, scheme, domain):
    """The Skolem search per target tuple: it belongs iff some assignment of
    the indeterminates puts every map's reading inside its relation."""
    scheme = scheme.normalized()
    m, size = scheme.target, domain.size
    bits = 0
    for rank in range(size**m):
        a = tuple_unrank(rank, size, m)
        for sigma in itertools.product(range(size), repeat=scheme.indets):
            ok = True
            for r, h in zip(relations, scheme.maps):
                rr = 0
                for e in h:
                    rr = rr * size + (a[e] if e < m else sigma[e - m])
                if not (r.bits >> rr) & 1:
                    ok = False
                    break
            if ok:
                bits |= 1 << rank
                break
    return Relation(domain, m, bits)


@pytest.mark.parametrize("size", [2, 3])
def test_tight_minor_relation_matches_skolem_search(size):
    dom = DomainSpec("a", size)
    rng = random.Random(30 + size)
    for _ in range(300):
        m, v = rng.randint(1, 3 if size == 2 else 2), rng.randint(0, 2)
        relations, maps = [], []
        for _ in range(rng.randint(1, 3)):
            if relations and rng.random() < 0.2:  # a repeated (relation, map) pair
                relations.append(relations[-1])
                maps.append(maps[-1])
                continue
            arity = rng.randint(1, 3 if size == 2 else 2)
            bits = rng.choice([0, (1 << size**arity) - 1, rng.getrandbits(size**arity)])
            relations.append(Relation(dom, arity, bits))
            maps.append(tuple(rng.randrange(m + v) for _ in range(arity)))
        scheme = Scheme(m, v, tuple(maps))
        expected = tight_minor_reference(relations, scheme, dom)
        assert tight_minor_relation(relations, scheme) == expected


def meet_closure_reference(seeds, full_a, full_b):
    """The relaxation-and-meet closure of the seeds and (A^m, B^m): every
    relaxation of the meet of a nonempty subfamily of them."""
    gens = [*seeds, (full_a, full_b)]
    meets = {
        tuple(functools.reduce(operator.and_, masks) for masks in zip(*family))
        for k in range(1, len(gens) + 1)
        for family in itertools.combinations(gens, k)
    }
    return {
        (r, s)
        for r in range(full_a + 1)
        for s in range(full_b + 1)
        if any(r & ~r2 == 0 and s2 & ~s == 0 for r2, s2 in meets)
    }


@pytest.mark.parametrize("op", [operator.or_, operator.and_])
@pytest.mark.parametrize("length", [1, 2, 16, 512])
def test_subset_fold_matches_submask_fold(op, length):
    rng = random.Random(length)
    table = [rng.getrandbits(12) for _ in range(length)]
    expected = [functools.reduce(op, (table[sub] for sub in submasks(r))) for r in range(length)]
    assert subset_fold(table, op) == expected
    assert table == expected  # folded in place


@pytest.mark.parametrize("sizes", CONSTRAINT_SIDE_PAIRS)
def test_floors_hold_the_relaxation_and_meet_closure(sizes):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    meets = 0
    for m in (1, 2):
        for _ in range(2):  # the floors the fixpoint converges to
            res = cm_m_closure(ConstraintSet.from_constraints(dom, cod, [random_constraint(rng, dom, cod, m)]), m)
            assert _maximal(res.floors[m], dom.size**m) == maximal_reference(res.constraints.ranks(m))
        full_a, full_b = (1 << dom.size**m) - 1, (1 << cod.size**m) - 1
        for count in (1, 3, 5):
            seeds = sorted(random_pair_set(rng, dom, cod, m, count).ranks(m))
            floors, entered = [full_b] * (full_a + 1), {}
            for pair in seeds:
                _add(floors, entered, pair, m)
            members = ConstraintSet.from_floors(dom, cod, m, floors).ranks(m)
            assert members == meet_closure_reference(seeds, full_a, full_b)
            assert _maximal(floors, dom.size**m) == maximal_reference(members)
            for (r, s), (kind, *rest) in entered.items():  # every new floor, with its witness
                assert floors[r] & ~s == 0
                if kind == "relaxation":
                    (r0, s0), = rest
                    assert (r0, s0) in seeds and r & ~r0 == 0 and s == s0
                else:
                    (r1, s1, *_), (r2, s2, *_) = rest[1]
                    assert (r, s) == (r1 & r2, s1 & s2)
                    meets += 1
    assert meets


@pytest.mark.parametrize("sizes", CONSTRAINT_SIDE_PAIRS)
def test_lo_n_closure_matches_pair_sweep(sizes):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    sets = []
    for m in (1, 2):
        sets += [random_pair_set(rng, dom, cod, m, count) for count in (3, 40)]
        sets += [dense_pair_set(rng, dom, cod, m, density) for density in (0.8, 0.95)]
        # cm-closed sets with about a quarter of their members dropped grow under lo_n
        for _ in range(2):
            t = ConstraintSet.from_constraints(dom, cod, [random_constraint(rng, dom, cod, m)])
            members = sorted(cm_m_closure(t, m).constraints.ranks(m))
            kept = rng.sample(members, len(members) - len(members) // 4)
            sets.append(ConstraintSet(dom, cod, {m: frozenset(kept)}))
    grown = 0
    for t in sets:
        for n in (1, 2, 3):
            closed = lo_n_closure(t, n)
            assert closed == lo_n_reference(t, n)
            grown += len(closed) > len(t)
    assert grown  # the sweep is not vacuous
