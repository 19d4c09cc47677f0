"""Differential tests of the bit-sliced Galois kernels against scalar
references built from ``satisfies`` over the enumerated function and
constraint universes, on seeded instances off the Boolean domain too, of the
csf_m probe masks and probe groups on dense classes, on the digit
slices of empty, one-member and |B| = 3 classes and of classes whose
sub-classes hold every table past a middle point, and on both sides of the cutoff past which
no S_m images are kept, against the walk over every probe, and of the
constraint-side mask kernels (lift, projection, the floor add pass, maximal
members, ``lo_n_closure``) against scalar pair-by-pair reference loops, of
the cm fixpoint against the tuple-keyed all-pairs round loop, of
``core.subset_fold`` against a fold over ``core.submasks``, of the reading
table ``core.readings``, the S_m images ``core.coordinate_images`` through
``core.permute_pairs`` and the tight minor built on them against digit-by-digit decoding, and of S_min, the separators ``fsc_n_of_csf_m`` and the floors
``csf_m`` read off the probe groups, against ``minimal_consequent``, and of the variable-substitution
closures, which rank member tables through ``core.readings``, against
``substitute`` over every ``SubstitutionMap``, of the orbit counts of
``core.orbit_antecedents`` against Burnside's lemma, and of the separator plan's
probes against ``itertools`` row choices; and a digest pinned over the
csf kernels and ``core.orbit_antecedents`` on a seeded battery."""

import collections
import functools
import hashlib
import itertools
import json
import math
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
    csf,
    csf_m,
    enumerate_constraints,
    enumerate_functions,
    fsc,
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
from funcon.constraint_closures import _add, _fields, _fold_gather, _lift_tables, _maximal, _pack
from funcon.core import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    column_masks,
    constraint_universe_count,
    coordinate_images,
    function_count,
    mask_of_ranks,
    orbit_antecedents,
    permute_pairs,
    ranks_of_mask,
    readings,
    submasks,
    subset_fold,
)
from funcon.satisfaction import (
    _minimal_consequents,
    _orbit_plan,
    _orbit_probes,
    _orbit_separators,
    _probe_masks,
    _signatures,
    probe_groups,
)
from funcon.instance_io import parse_instance
from funcon.minors import tight_minor_relation

from conftest import certify, minor_witnesses

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
    return Constraint(Relation(dom, m, mask_of_ranks(ante, dom.size**m)), Relation(cod, m, mask_of_ranks(cons, cod.size**m)))


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
        Relation(k.dom, m, mask_of_ranks(ranks, k.dom.size**m))
        for j in range(n + 1)
        for ranks in itertools.combinations(range(k.dom.size**m), j)
    )
    return [(r.bits, minimal_consequent(k, r).bits) for r in antecedents]


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_separators_match_minimal_consequent(sizes):
    """The full S_min table csf_m reads, and the orbit separators of
    fsc_n_of_csf_m: each is a reference separator, and fsc_n over them is
    fsc_n over the full list wherever the n-ary universe fits the budget."""
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
            if constraint_universe_count(dom, cod, m) <= 10**6:
                full = sorted(separators_reference(k, dom.size**m, m))
                assert _minimal_consequents(k, m, 10**6) == [s for _, s in full]
            for n in (1, 2, 3):  # below, at and above the class arities
                reference = separators_reference(k, n, m)
                orbit = _orbit_separators(k, m, n, 10**6)
                assert set(orbit) <= set(reference)
                if function_count(dom, cod, n) <= 10**6:
                    by_orbit, full_list = (ConstraintSet(dom, cod, {m: pairs}) for pairs in (orbit, reference))
                    assert fsc_n(by_orbit, n) == fsc_n(full_list, n)


def orbit_of(r: int, size: int, m: int) -> set[int]:
    """The images of the rank mask r over size^m under every coordinate permutation."""
    return {r, *permute_pairs(coordinate_images(m, size, size), [(r, 0)])[0]}


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_minimal_consequents_commute_with_coordinate_permutations(sizes):
    # S_min(sigma R) = sigma S_min(R) for every sigma in S_m, on the full table
    dom, cod = domains(sizes)
    rng = random.Random(60 + 10 * sizes[0] + sizes[1])
    for m in (1, 2, 3) if dom.size == 2 else (1, 2):
        for arities in ((1,), (2,), (1, 2)):
            k = FunctionClass.empty(dom, cod)
            for a in arities:
                k = k | random_function_class(rng, dom, cod, a, 2)
            table = _minimal_consequents(k, m, DEFAULT_ENUMERATION_BUDGET)
            moved_r, moved_s = permute_pairs(coordinate_images(m, dom.size, cod.size), list(enumerate(table)))
            assert len(moved_r) == len(table) * (math.factorial(m) - 1)
            assert [table[r] for r in moved_r] == moved_s


@pytest.mark.parametrize("size, m, n", [(2, 1, 3), (2, 2, 3), (2, 3, 3), (2, 4, 2), (3, 1, 3), (3, 2, 3), (3, 3, 2)])
def test_orbit_antecedents_meet_each_orbit_once(size, m, n):
    # their S_m images cover every antecedent of at most n tuples, and no two share an orbit
    antecedents = orbit_antecedents(size, m, n)
    orbits = [orbit_of(r, size, m) for r in antecedents]
    covered = set().union(*orbits)
    every = {sum(1 << x for x in rows) for j in range(n + 1) for rows in itertools.combinations(range(size**m), j)}
    assert covered == every
    assert sum(map(len, orbits)) == len(covered)


def test_orbit_antecedents_at_boolean_m8_n3():
    # one antecedent per S_8 orbit of the 2,796,417 of at most 3 tuples over {0, 1}^8
    counts = [0] * 4
    for r in orbit_antecedents(2, 8, 3):
        counts[r.bit_count()] += 1
    assert counts == [1, 9, 86, 1159] and sum(counts) == 1255


def burnside_orbit_counts(size: int, m: int, n: int) -> list[int]:
    """Per k <= n, the S_m orbits of the k-subsets of A^m (|A| = size), by Burnside's lemma: the mean over S_m
    of the k-subsets a permutation fixes, the unions of its cycles on A^m, summed over the cycle types of S_m."""
    def cycle_types(rest, largest):
        if not rest:
            yield ()
        for part in range(min(rest, largest), 0, -1):
            yield from ((part, *tail) for tail in cycle_types(rest - part, part))

    totals = [0] * (n + 1)
    for parts in cycle_types(m, m):
        fixed = [1] + [0] * n  # per k, the k-subsets of A^m that are unions of cycles, over lengths 1..l so far
        cycles = {}  # cycles on A^m by length l: the points fixed by sigma^l are those on cycles of length d | l
        for l in range(1, n + 1):
            cycles[l] = (size ** sum(math.gcd(p, l) for p in parts) - sum(d * c for d, c in cycles.items() if l % d == 0)) // l
            fixed = [sum(math.comb(cycles[l], j) * fixed[k - l * j] for j in range(k // l + 1)) for k in range(n + 1)]
        members = math.factorial(m) // math.prod(p**c * math.factorial(c) for p, c in collections.Counter(parts).items())
        totals = [t + members * f for t, f in zip(totals, fixed)]
    return [t // math.factorial(m) for t in totals]


@pytest.mark.parametrize("size, m, n", [(2, 3, 3), (3, 2, 2), (2, 4, 2), (3, 4, 2), (2, 8, 3), (2, 9, 3), (3, 9, 2)])
def test_orbit_antecedents_count_every_orbit(size, m, n):
    # one antecedent of each size k per S_m orbit of the k-subsets of A^m, as Burnside's lemma counts them
    counts = [0] * (n + 1)
    for r in orbit_antecedents(size, m, n):
        counts[r.bit_count()] += 1
    assert counts == burnside_orbit_counts(size, m, n)


def test_signature_cache_holds_one_wide_call():
    """fsc_n_of_csf_m(majority, 3, m) at m = 8 and 9 reads its 1,255 and 2,190 orbit separators at the onto
    probes of the plan of its shape, one cached value: a repeated call builds no plan, and no call reads a
    ``_signatures`` entry, though 2,190 would pass its 2,048."""
    bool_ = DomainSpec("bool", 2)
    k = FunctionClass(bool_, bool_, {3: frozenset({0b11101000})})  # majority
    for m, separators in ((8, 1255), (9, 2190)):
        _signatures.cache_clear()
        _orbit_probes.cache_clear()
        first = fsc_n_of_csf_m(k, 3, m)
        built = _orbit_probes.cache_info().misses
        assert fsc_n_of_csf_m(k, 3, m) == first
        assert _orbit_probes.cache_info().misses == built
        assert _signatures.cache_info()[:2] == (0, 0)  # hits, misses
        assert len(_orbit_probes(2, m, 3, 3)[1]) == separators


@pytest.mark.parametrize("size, m, n", [(2, 1, 3), (2, 3, 3), (2, 8, 3), (3, 2, 2), (3, 4, 3)])
def test_onto_signatures_are_the_choices_using_every_row(size, m, n):
    """Per orbit antecedent R (400 of them at most), the plan at arity n holds the signatures of the choices whose
    rows are all of R and walks those of every choice; ``_signatures`` of R, and of a random R, are those of every choice."""
    rng = random.Random(size * 100 + m * 10 + n)
    point = lambda choice, i: sum(row // size ** (m - 1 - i) % size * size ** (n - 1 - c) for c, row in enumerate(choice))
    signature = lambda choice: tuple(point(choice, i) for i in range(m))
    walk, onto = _orbit_probes(size, m, n, n)
    walked = collections.defaultdict(set)
    for _, points, indices in walk:
        for index in indices:
            walked[index].add(points)
    antecedents = orbit_antecedents(size, m, n)
    assert list(onto) == list(antecedents)
    randoms = [mask_of_ranks(rng.sample(range(size**m), j), size**m) for j in range(min(n, size**m) + 1)]
    sample = rng.sample(list(enumerate(antecedents)), min(len(antecedents), 400))  # every R at the small shapes
    for index, r in [*sample, *((None, r) for r in randoms)]:
        rows = list(ranks_of_mask(r))
        choices = list(itertools.product(rows, repeat=n))
        every = {signature(choice) for choice in choices}
        assert _signatures(size, n, m, r) == every
        if index is not None:
            assert walked[index] == every
            assert onto[r] == {signature(choice) for choice in choices if set(choice) == set(rows)}


@pytest.mark.parametrize("sizes, wide", [((2, 2), (3, 8)), ((3, 2), (2, 5)), ((2, 3), (2, 8)), ((3, 3), (2, 5))])
def test_fsc_n_of_csf_m_reads_onto_row_choices_only(sizes, wide):
    """fsc_n_of_csf_m reads each orbit separator only at the row choices that use
    every tuple of R; it equals fsc_n over every row choice of the same separators,
    and lo_m(vs_n(k)), at m = 1..4 and at one wide (n, m)."""
    dom, cod = domains(sizes)
    rng = random.Random(80 + 10 * sizes[0] + sizes[1])
    cases = [(n, m) for n in (1, 2, 3) if function_count(dom, cod, n) <= 10**6 for m in (1, 2, 3, 4)]
    for n, m in [*cases, wide]:
        for count in (1, 3):
            k = random_function_class(rng, dom, cod, n, count)
            every_choice = fsc_n(ConstraintSet(dom, cod, {m: _orbit_separators(k, m, n, 10**6)}), n)
            assert fsc_n_of_csf_m(k, n, m) == every_choice == lo_m_closure(vs_n_closure(k), m)


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
    assert _orbit_plan(2, 5, 1, 2, False)[2] is None  # the plan holds no 2^32-bit digit slice masks


def walk_reference(k: FunctionClass, n: int, m: int) -> list[int]:
    """Entry q: the value tuples k's arity-n part takes at probe q, walking
    every m-point probe and every value at each point (no orbit walk, no
    difference read, no images).  Arities past the default budget evaluate
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


def at_walked_probes(k: FunctionClass, n: int, m: int, masks: list[int]) -> list[int]:
    """The per-probe masks at the probes ``_probe_masks`` walks and 0 elsewhere:
    where the plan has S_m images, it walks the probes whose points do not
    decrease, one per orbit; past the image cutoff, every probe."""
    points = k.dom.size**n
    if _orbit_plan(k.dom.size, n, m, k.cod.size, function_count(k.dom, k.cod, n) <= DEFAULT_ENUMERATION_BUDGET)[1] is None:
        return masks
    probes = (tuple_unrank(q, points, m) for q in range(points**m))
    return [mask if list(probe) == sorted(probe) else 0 for mask, probe in zip(masks, probes)]


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
    at the first or the last point (3/4 of them on Boolean); all but three; those
    with a 0 at the middle point p* = (|A|^n - 1) // 2, past which a sub-class
    holds every table over the later digits; and those also |B| - 1 at p* + 1.
    Then boxes, each the product of one value set per point: "box" restricts
    point 0 to the values below |B| - 1 and the last point to those above 0,
    two of three at |B| = 3; "narrow-box" fixes every point to 0 but those two,
    which take 0 or 1.  Near them: "box-plus" also holds the table of all
    |B| - 1, so a value set grows, and "narrow-box-minus" lacks the table 1 at
    both points, the one reaching (1, 1) at that pair; so each misses the
    product of its value sets, by one table in the latter."""
    count = function_count(dom, cod, n)
    full = (1 << count) - 1
    first = (1 << count // cod.size) - 1  # the digit of point 0 is the most significant
    last = mask_of_ranks(range(0, count, cod.size), count)
    sparse = mask_of_ranks(rng.sample(range(count), 3), count)
    weight = cod.size ** (dom.size**n - 1 - (dom.size**n - 1) // 2)  # of the digit of p*
    middle = [r for r in range(count) if r // weight % cod.size == 0]
    two = [r for r in middle if r // (weight // cod.size) % cod.size == cod.size - 1]
    top = count // cod.size  # the weight of point 0's digit; the last point's is 1
    box = [r for r in range(count) if r // top < cod.size - 1 and r % cod.size > 0]
    narrow = [a * top + b for a in (0, 1) for b in (0, 1)]
    return {"full": full, "half": first, "3/4": first | last, "co-sparse": full & ~sparse,
            "middle": mask_of_ranks(middle, count), "two-middle": mask_of_ranks(two, count),
            "box": mask_of_ranks(box, count), "box-plus": mask_of_ranks(box + [count - 1], count),
            "narrow-box": mask_of_ranks(narrow, count), "narrow-box-minus": mask_of_ranks(narrow[:3], count)}


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
    # two arity-5 tables that are 0 at points 30 and 31: on the member columns, with images at m = 2, the
    # sub-class past point 30 is the member mask 0b11, which is also the mask of every table over one Boolean
    # digit, so a full-slice rule read off member masks would give point 31 the value 1
    tables = [FunctionTable(bool_, bool_, 5, tuple(rng.randrange(2) for _ in range(30)) + (0, 0)) for _ in range(2)]
    cases.append(pytest.param(FunctionClass.from_tables(bool_, bool_, tables), (1, 2), True, False, id="arity-5-zero-tail"))
    return cases


@pytest.mark.parametrize("k, constraint_arities, csf_fits, reference_cheap", dense_cases())
def test_csf_m_matches_the_all_probes_walk_on_dense_classes(k, constraint_arities, csf_fits, reference_cheap):
    for m in constraint_arities:
        for n in k.arities():
            assert _probe_masks(k, n, m, DEFAULT_ENUMERATION_BUDGET) == at_walked_probes(k, n, m, walk_reference(k, n, m))
        groups = probe_groups_reference(k, m)
        assert probe_groups(k, m, DEFAULT_ENUMERATION_BUDGET) == groups
        if csf_fits:
            assert csf_m(k, m).ranks(m) == csf_pairs_from_groups(k, m, groups)
        if reference_cheap or m == 1:
            assert csf_m(k, m) == csf_reference(k, m)


BOXES = ("box", "narrow-box", "box-plus", "narrow-box-minus")


def slice_cases():
    """pytest params (class, arity n, constraint arity m) on which the walk
    splits class masks into digit slices: the empty and a one-member Boolean
    class at n = 4, (3, 3) classes at n = 2, three slices per digit over 3^9
    tables, (3, 2) classes at n = 2 and m = 3, and the Boolean classes fixing
    the middle point at n = 4 and m = 3; the boxes and near boxes of
    ``dense_masks`` at each of these shapes and at m = 1, and one (3, 3) table
    at n = 2, a box of single values, at m = 1, 2 and 3."""
    rng = random.Random(27)
    bool_ = DomainSpec("bool", 2)
    one = FunctionTable(bool_, bool_, 4, tuple(rng.randrange(2) for _ in range(16)))
    one = FunctionClass.from_tables(bool_, bool_, [one])
    cases = [pytest.param(FunctionClass.from_masks(bool_, bool_, {4: 0}), 4, 2, id="2x2-n4-empty")]
    cases += [pytest.param(one, 4, m, id=f"2x2-n4-one-m{m}") for m in (2, 3)]
    for sizes, m in (((3, 3), 2), ((3, 2), 3)):
        dom, cod = domains(sizes)
        count = function_count(dom, cod, 2)
        masks = dense_masks(dom, cod, 2, rng)
        masks["sparse"] = mask_of_ranks(rng.sample(range(count), 40), count)
        cases += [pytest.param(FunctionClass.from_masks(dom, cod, {2: masks[name]}), 2, m,
                               id=f"{sizes[0]}x{sizes[1]}-n2-m{m}-{name}")
                  for name in ("3/4", "co-sparse", "sparse", "middle", "two-middle", *BOXES)]
        cases += [pytest.param(FunctionClass.from_masks(dom, cod, {2: masks[name]}), 2, 1,
                               id=f"{sizes[0]}x{sizes[1]}-n2-m1-{name}") for name in BOXES]
    masks = dense_masks(bool_, bool_, 4, rng)
    cases += [pytest.param(FunctionClass.from_masks(bool_, bool_, {4: masks[name]}), 4, m, id=f"2x2-n4-m{m}-{name}")
              for m, names in ((3, ("middle", "two-middle", *BOXES)), (1, BOXES)) for name in names]
    dom, cod = domains((3, 3))
    one = FunctionClass.from_tables(dom, cod, [FunctionTable(dom, cod, 2, (2, 0, 1, 1, 2, 0, 0, 2, 1))])
    cases += [pytest.param(one, 2, m, id=f"3x3-n2-one-m{m}") for m in (1, 2, 3)]
    return cases


@pytest.mark.parametrize("k, n, m", slice_cases())
def test_probe_masks_match_the_all_probes_walk_on_digit_slices(k, n, m):
    assert _orbit_plan(k.dom.size, n, m, k.cod.size, True)[2] is not None  # images, so the walk splits digit slices
    assert _probe_masks(k, n, m, DEFAULT_ENUMERATION_BUDGET) == at_walked_probes(k, n, m, walk_reference(k, n, m))
    groups = probe_groups_reference(k, m)
    assert probe_groups(k, m, DEFAULT_ENUMERATION_BUDGET) == groups
    if k.dom.size == k.cod.size == 2:  # the constraint universes at |A| = 3 take 2^18 and 2^35 pairs
        assert csf_m(k, m).ranks(m) == csf_pairs_from_groups(k, m, groups)


def test_probe_masks_stay_small_at_wide_constraint_arities():
    # at m = 8 the image tables of 8! permutations over 256-bit value masks
    # would take gigabytes, so the walk visits every probe and keeps no tables
    bool_ = DomainSpec("bool", 2)
    rng = random.Random(8)
    tables = [FunctionTable(bool_, bool_, 1, (0, 1)), FunctionTable(bool_, bool_, 1, (1, 1))]
    tables += [FunctionTable(bool_, bool_, 2, tuple(rng.randrange(2) for _ in range(4))) for _ in range(5)]
    k = FunctionClass.from_tables(bool_, bool_, tables)
    started = time.perf_counter()
    out = fsc_n_of_csf_m(k, 1, 8)
    assert time.perf_counter() - started < 10
    assert set(_orbit_separators(k, 8, 1, 10**6)) <= set(separators_reference(k, 1, 8))
    assert out.ranks(1) == fsc_n(ConstraintSet(bool_, bool_, {8: separators_reference(k, 1, 8)}), 1).ranks(1)
    for n in (1, 2):
        assert _orbit_plan(2, n, 8, 2, True)[1:] == (None, None)
        assert _probe_masks(k, n, 8, DEFAULT_ENUMERATION_BUDGET) == walk_reference(k, n, 8)
    # the A and B tables of every image, each table shared by equal sizes counted once
    for shape in [(2, 2, 2, 2), (2, 2, 4, 2), (3, 1, 3, 3), (3, 1, 3, 2), (2, 1, 3, 4), (2, 1, 2, 16), (2, 1, 3, 5),
                  (2, 1, 5, 2)]:
        images = _orbit_plan(*shape, False)[1] or []
        entries = {id(chunks): len(chunks) * 256 for _, *pair in images for chunks in pair}
        assert sum(entries.values()) <= 1 << 14, shape


@pytest.mark.parametrize("sizes, m, inside", [
    ((2, 2), 4, True),  # m! * ceil(|B|^m / 8) = 24 * 2 = 48 chunk tables, within the cutoff of 64
    ((2, 4), 3, True),  # 6 * 8 = 48
    ((2, 2), 5, False),  # 120 * 4 = 480
    ((2, 3), 4, False),  # 24 * 11 = 264
    ((2, 5), 3, False),  # 6 * 16 = 96
])
def test_probe_groups_match_on_both_sides_of_the_image_cutoff(sizes, m, inside):
    # inside the cutoff the walk visits one probe per S_m orbit and the images give the rest; past it, every probe
    dom, cod = domains(sizes)
    rng = random.Random(40 + 10 * sizes[1] + m)
    dense = FunctionClass.from_masks(dom, cod, {2: dense_masks(dom, cod, 2, rng)["3/4"]})
    for k in (dense | random_function_class(rng, dom, cod, 1, 2), random_function_class(rng, dom, cod, 2, 3)):
        for n in k.arities():
            assert (_orbit_plan(dom.size, n, m, cod.size, True)[1] is not None) == inside
            assert _probe_masks(k, n, m, DEFAULT_ENUMERATION_BUDGET) == at_walked_probes(k, n, m, walk_reference(k, n, m))
        assert probe_groups(k, m, DEFAULT_ENUMERATION_BUDGET) == probe_groups_reference(k, m)


def kernel_battery():
    """(name, class, m, budget) for the pinned kernel digest.  Every class of ``dense_cases`` at m = 1 and at
    its constraint arities, at (3, 3) n = 2 the full, half, box and near-box masks of ``dense_masks`` with a
    sparse class and one table at m = 1 and 2; each at the default budget and, where the class has at most
    256 members at arities of at most 512 tables, at one table less, where the walk reads member columns, not
    digit slices.  Then both sides of the image cutoff: Boolean m = 4 and 5, (2, 3) m = 3 and 4 and (2, 4)
    m = 3 and (2, 5) m = 3, on a random class of binary and unary tables, at the default budget and at one
    below the count of unary tables."""
    for case in dense_cases():
        k, arities = case.values[:2]
        for m in sorted({1, *arities}):
            yield case.id, k, m, DEFAULT_ENUMERATION_BUDGET
            counts = [function_count(k.dom, k.cod, n) for n in k.arities()]
            if len(k) <= 256 and max(counts) <= 512:
                yield case.id, k, m, min(counts) - 1
    rng = random.Random(36)
    dom, cod = domains((3, 3))
    count = function_count(dom, cod, 2)
    masks = dense_masks(dom, cod, 2, rng)
    masks.update(sparse=mask_of_ranks(rng.sample(range(count), 40), count), one=1 << rng.randrange(count))
    for name in ("full", "half", "box", "box-plus", "narrow-box", "narrow-box-minus", "sparse", "one"):
        k = FunctionClass.from_masks(dom, cod, {2: masks[name]})
        for m, budget in itertools.product((1, 2), (DEFAULT_ENUMERATION_BUDGET, count - 1)):
            if budget > count or len(k) <= 256:
                yield f"3x3-n2-{name}", k, m, budget
    for sizes, ms in (((2, 2), (4, 5)), ((2, 3), (3, 4)), ((2, 4), (3,)), ((2, 5), (3,))):
        dom, cod = domains(sizes)
        k = random_function_class(rng, dom, cod, 2, 5) | random_function_class(rng, dom, cod, 1, 2)
        for m, budget in itertools.product(ms, (DEFAULT_ENUMERATION_BUDGET, function_count(dom, cod, 1) - 1)):
            yield f"{sizes[0]}x{sizes[1]}-cutoff", k, m, budget


def test_galois_kernels_are_pinned():
    """``probe_groups`` (sorted: its insertion order is no result), ``_minimal_consequents`` where its
    2^(|A|^m) table stays small, ``_orbit_separators`` at n = 1 and 2 (or its refusal's count) and
    ``orbit_antecedents`` over the battery, hashed: a change to the csf kernels or to the S_m images that keeps
    their results keeps this digest, under any hash seed."""
    digest = hashlib.sha256()
    started = time.perf_counter()
    for name, k, m, budget in kernel_battery():
        floors = _minimal_consequents(k, m, budget) if k.dom.size**m <= 16 else None
        separators = []
        for n in (1, 2):
            try:
                separators.append(_orbit_separators(k, m, n, budget))
            except BudgetExceededError as exc:
                separators.append(exc.count)
        groups = sorted(probe_groups(k, m, budget).items())
        digest.update(repr((name, m, budget, groups, floors, separators)).encode())
    for size, m, n in [(2, 1, 3), (2, 2, 3), (2, 3, 3), (2, 4, 2), (2, 5, 2), (3, 1, 3), (3, 2, 3), (3, 3, 2)]:
        digest.update(repr((size, m, n, orbit_antecedents(size, m, n))).encode())
    assert time.perf_counter() - started < 2
    assert digest.hexdigest() == "16b8c59d580285e2a11c9a132bab7be5850b1ea01a958f226fd72140c15b5e49"


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


def maximal_scan(floors, width):
    """The (r, floor(r)) whose floor differs at every one-tuple-larger antecedent, one test at a time."""
    return [(r, floor) for r, floor in enumerate(floors)
            if all(floors[r | 1 << j] != floor for j in range(width) if not r >> j & 1)]


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
    """Every map, in product order, over source widths of 1 to 9 bits on A of ``size`` and on B of each
    size: the sum of the source pair's nibble tables holds, in field i, the digit-decoded lift of r through
    map i above that of s, and a partial last chunk of w bits has 2^w tables."""
    rng = random.Random(19 + size)
    for k, m, v, sb in itertools.product((1, 2, 3), (1, 2), (0, 1, 2, 3), (1, 2, 3)):
        width_a, width_b = size**k, sb**k
        if max(width_a, width_b) > 9:
            continue
        maps, *_, columns = _lift_tables(k, m, v, size, sb)
        assert maps == tuple(itertools.product(range(m + v), repeat=k))
        assert [len(chunk) for chunk in columns] == [1 << min(4, width - c) for width in (width_b, width_a)
                                                     for c in range(0, width, 4)]
        field = _fold_gather(m, v, size, sb)[0]
        for r, s in itertools.product((0, (1 << width_a) - 1, rng.getrandbits(width_a)), (0, (1 << width_b) - 1, rng.getrandbits(width_b))):
            pair = r << 4 * -(-width_b // 4) | s
            packed = sum(chunk[pair >> 4 * c & 15] for c, chunk in enumerate(columns))
            assert _fields(packed, len(maps), field) == [
                lift_reference(r, h, m, v, size) << sb ** (m + v) | lift_reference(s, h, m, v, sb) for h in maps]


@pytest.mark.parametrize("k, m, v", list(itertools.product((1, 2, 3), (1, 2, 3), (0, 1, 2))))
def test_lift_plan_orbits_and_indeterminates(k, m, v):
    """Per map h: its orbit is the maps g∘h for every g in S_m × S_v, found by
    composing, ascending, the orbits partition the maps, the first maps are the
    least of each orbit, in order, and its indeterminate mask has bit e - m for
    each coordinate e >= m that h reads."""
    maps, orbits, masks, firsts, _ = _lift_tables(k, m, v, 2, 2)
    index = {h: i for i, h in enumerate(maps)}
    group = [(*targets, *(m + e for e in indets))
             for targets in itertools.permutations(range(m)) for indets in itertools.permutations(range(v))]
    for i, h in enumerate(maps):
        assert orbits[i] == tuple(sorted({index[tuple(g[e] for e in h)] for g in group}))
        assert masks[i] == sum(1 << e - m for e in range(m, m + v) if e in h)
    distinct = set(orbits)
    assert sorted(i for orbit in distinct for i in orbit) == list(range(len(maps)))
    assert firsts == tuple(sorted(orbit[0] for orbit in distinct))


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
    """The fold-and-gather of a round's packed meets, a << sb^(m+v) | b in fields of the plan's width, is
    the block loop on each half of every field, pa << sb^m | pb: with |A| = |B| (one pass for both halves)
    and |A| != |B| (a pass per half), v = 0 (no fold), results of more than 64 bits, |A| = 3 with v = 1 at
    m = 2 (18 blocks, where the gather reads past a field into the next), and an empty round."""
    rng = random.Random(16)
    checked = set()
    for sa, sb, m, v in itertools.product((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3), (0, 1, 2, 3)):
        width_a, width_b = sa ** (m + v), sb ** (m + v)
        if max(width_a, width_b) > 4096 or sa != sb and width_a + width_b > 1024:
            continue
        checked.add((sa == sb, v == 0, sa**m + sb**m > 64))
        halves = []
        for width in (width_a, width_b):
            masks = [0, (1 << width) - 1]
            for density in (1, 4, 32):  # random sparse masks: about one bit in density set
                masks += [sum(1 << x for x in range(width) if rng.randrange(density) == 0) for _ in range(4)]
            halves.append(masks)
        pairs = list(itertools.product(*halves)) if sa != sb else list(zip(*halves))
        rng.shuffle(pairs)  # so fields of every kind lie above one another
        size, project = _fold_gather(m, v, sa, sb)
        packed = _pack([a << width_b | b for a, b in pairs], size)
        assert _fields(project(packed, len(pairs)), len(pairs), size) == [
            project_reference(a, m, v, sa) << sb**m | project_reference(b, m, v, sb) for a, b in pairs]
        assert _fields(project(0, 0), 0, size) == []
    assert checked == set(itertools.product((False, True), repeat=3))
    assert _fold_gather(2, 1, 3, 3)[0] > 7  # 54 bits of content fit 7 bytes, but the gather reads the field above


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
            _add(floors[m], entered[m], pair, m, ("seed",))
    v, done, converged, iteration = bounds.max_indets, set(), False, 0
    for iteration in range(1, bounds.max_iterations + 1):
        changed = False
        maximals = {m: maximal_scan(floors[m], sa**m) for m in targets}
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
                    changed |= _add(floors[m], entered[m], cand, m, ("minor",))
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
    # source arities above m + v, which have no identity lift: arity 3 into 1 at v = 0 and 1, into 2 at v = 0
    for v in (0, 1):
        t = random_pair_set(rng, gap.dom, gap.cod, 1, 1) | random_pair_set(rng, gap.dom, gap.cod, 2, 1)
        runs.append((t | random_pair_set(rng, gap.dom, gap.cod, 3, 1), [1, 2, 3], CmBounds(max_indets=v)))
        # a ternary seed with a binary one that is its lift through the map (0, 1, 1), not injective: the
        # seed's other lifts into two coordinates (the identifications of coordinates 1 and 2, 1 and 3) are new
        r, s = 196, 224
        pair = tuple(sum(1 << x for x, read in enumerate(readings((0, 1, 1), 2, 2)) if bits >> read & 1) for bits in (r, s))
        runs.append((ConstraintSet(gap.dom, gap.cod, {2: frozenset({pair}), 3: frozenset({(r, s)})}), [1, 2, 3], CmBounds(max_indets=v)))
    runs.append((gap, [3], CmBounds(max_indets=3)))  # maps reading up to three indeterminates
    # round 1's meets add nothing here, and only the S_2 image pass adds the seed's swapped pair
    runs.append((ConstraintSet(gap.dom, gap.cod, {2: frozenset({(4, 14)})}), [2], CmBounds(max_indets=0)))
    for t, targets, bounds in runs:
        res = cm_m_closure(t, targets[0], bounds) if len(targets) == 1 else cm_closure(t, len(targets), bounds)
        floors = {m: list(res.constraints.floors(m)) for m in targets}
        assert (floors, res.iterations, res.converged) == fixpoint_reference(t, targets, bounds)
        # the engine meets one lift per orbit and adds permuted floors, so its witnesses are its own; they are
        # certified by the pairs that entered, the (3, 3) closure of all 262144 members and the one to arity 3 too
        certify(res, t)


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
    """``core.coordinate_images`` lists every coordinate permutation q but the identity at m <= 4, and
    ``core.permute_pairs`` moves a rank mask R over size^m, and one over the other size, to {x : x read
    through q is in R}, read tuple by tuple, as a list and one pair at a time; equal sizes share tables."""
    rng = random.Random(30 + size)
    other = 5 - size
    for m in range(1, 5):
        images = coordinate_images(m, size, other)
        assert [q for q, *_ in images] == list(itertools.permutations(range(m)))[1:]
        assert all(on_a is on_b for _, on_a, on_b in coordinate_images(m, size, size))
        pairs = [(0, (1 << other**m) - 1), ((1 << size**m) - 1, 0)]
        pairs += [(rng.getrandbits(size**m), rng.getrandbits(other**m)) for _ in range(6)]
        expected = ([], [])
        for r, s in pairs:
            for q, *_ in images:
                for mask, width, out in ((r, size, expected[0]), (s, other, expected[1])):
                    out.append(sum(1 << x for x, read in enumerate(readings_reference(q, m, width)) if mask >> read & 1))
        assert permute_pairs(images, pairs) == expected
        one_by_one = [permute_pairs(images, [pair]) for pair in pairs]
        assert [sum(side, []) for side in zip(*one_by_one)] == list(expected)
        assert permute_pairs(images, []) == ([], [])


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
@pytest.mark.parametrize("length", [1, 2, 4, 8, 16, 64, 256, 512, 4096])
def test_subset_fold_matches_submask_fold(op, length):
    # the levels fold by strided slices while 2^i is below length / 2^(i+1), then by blocks
    rng = random.Random(length)
    table = [rng.getrandbits(12) for _ in range(length)]
    expected = [functools.reduce(op, (table[sub] for sub in submasks(r))) for r in range(length)]
    assert subset_fold(table, op) == expected
    assert table == expected  # folded in place


def floor_tables(rng, width):
    """Floor tables over 2^width antecedents, each with its consequent width, the r expected
    not maximal where known (else None), and whether the floors grow with the antecedent."""
    count = 1 << width
    for cons_width in sorted({1, 2, width}):  # floors that _add builds from random seeds
        full = (1 << cons_width) - 1
        for seeds in (1, 3, 6):
            floors = [full] * count
            for _ in range(seeds):
                _add(floors, {}, (rng.randrange(count), rng.randrange(full + 1)), 1, ("seed",))
            yield cons_width, floors, None, True
    yield width, [rng.randrange(count)] * count, set(range(count - 1)), True  # only the top is maximal
    yield width, list(range(count)), set(), True  # every antecedent is maximal
    for j in range(width):  # one tie at tuple j: at the top's lower neighbour, and at a random r without j
        yield width, [r | 1 << j if r | 1 << j == count - 1 else r for r in range(count)], {count - 1 ^ 1 << j}, True
        r0 = rng.choice([r for r in range(count) if not r >> j & 1])
        yield width, [r0 | 1 << j if r == r0 else r for r in range(count)], {r0}, False


@pytest.mark.parametrize("width", range(1, 10))
def test_maximal_matches_the_scalar_scan(width):
    """Widths 1 to 9, up to the 512 floors of (3,3) m=2: the word-parallel scan
    against the one-test-at-a-time scan, and, where the floors grow with the
    antecedent and the members are few, against the pairwise scan of the members."""
    rng = random.Random(width)
    checked = 0
    for cons_width, floors, tied, grows in floor_tables(rng, width):
        maximal = _maximal(floors, width)
        assert maximal == maximal_scan(floors, width)
        if tied is not None:
            assert [r for r, _ in maximal] == [r for r in range(1 << width) if r not in tied]
        if grows and sum(1 << cons_width - floor.bit_count() for floor in floors) <= 600:
            members = [(r, s) for r, floor in enumerate(floors) for s in range(1 << cons_width) if s & floor == floor]
            assert maximal == maximal_reference(members)
            checked += 1
    assert checked >= (3 if width <= 4 else 1)


@pytest.mark.parametrize("sizes", CONSTRAINT_SIDE_PAIRS)
def test_floors_hold_the_relaxation_and_meet_closure(sizes):
    dom, cod = domains(sizes)
    rng = random.Random(10 * sizes[0] + sizes[1])
    meets = 0
    for m in (1, 2):
        for _ in range(2):  # the floors the fixpoint converges to
            res = cm_m_closure(ConstraintSet.from_constraints(dom, cod, [random_constraint(rng, dom, cod, m)]), m)
            assert _maximal(res.constraints.floors(m), dom.size**m) == maximal_reference(res.constraints.ranks(m))
        full_a, full_b = (1 << dom.size**m) - 1, (1 << cod.size**m) - 1
        for count in (1, 3, 5):
            seeds = sorted(random_pair_set(rng, dom, cod, m, count).ranks(m))
            floors, entered = [full_b] * (full_a + 1), {}
            for pair in seeds:
                _add(floors, entered, pair, m, ("seed",))
            held = list(floors), dict(entered)  # a pair its floor holds enters no more: no floor, no witness
            assert not any(_add(floors, entered, pair, m, ("minor",)) for pair in seeds) and (floors, entered) == held
            members = ConstraintSet.from_floors(dom, cod, m, floors).ranks(m)
            assert members == meet_closure_reference(seeds, full_a, full_b)
            assert _maximal(floors, dom.size**m) == maximal_reference(members)
            for (r, s), (kind, *rest) in entered.items():  # every new floor, with its witness
                assert floors[r] & ~s == 0
                if kind == "seed":
                    assert (r, s) in seeds
                elif kind == "relaxation":
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


def pair_held(t):
    """The same set held as pairs."""
    return ConstraintSet(t.dom, t.cod, {m: t.ranks(m) for m in t.arities()})


def held_floors(t):
    """Per arity, its floors, or None where it is held as pairs."""
    return {m: t.floors(m) for m in t.arities()}


def record_derives(monkeypatch):
    """The arguments of every ``_derive`` call, of either container, from here on."""
    derived = []
    for container in (FunctionClass, ConstraintSet):
        real = container._derive
        monkeypatch.setattr(container, "_derive", lambda self, *args, real=real: derived.append(args) or real(self, *args))
    return derived


def assert_floors_decide(sets, monkeypatch):
    """== between floor-held sets and a pair-held set minus a floor-held one agree
    with the same sets held as pairs, and derive no pairs from the floors."""
    pairs = list(map(pair_held, sets))
    derived = record_derives(monkeypatch)
    for (x, px), (y, py) in itertools.product(zip(sets, pairs), repeat=2):
        assert (x == y) == (px == py)
        assert (px - y).sorted_keys() == (px - py).sorted_keys()
    assert not derived


def assert_fsc_n_reads_floors(sets, ns, monkeypatch):
    """fsc_n of a floor-held set, read as one (r, floor(r)) per antecedent,
    derives nothing and equals fsc_n of the same set held as pairs."""
    expected = [[fsc_n(pair_held(t), n) for n in ns] for t in sets]
    derived = record_derives(monkeypatch)
    got = [[fsc_n(t, n) for n in ns] for t in sets]
    assert not derived
    assert got == expected
    assert any(len(k) not in (0, function_count(k.dom, k.cod, n)) for row in got for k, n in zip(row, ns))


@pytest.mark.parametrize("sizes", CONSTRAINT_SIDE_PAIRS, ids=["2x2", "3x2", "2x3"])
def test_fsc_n_of_floor_held_sets_matches_their_pairs(sizes, monkeypatch):
    """``assert_fsc_n_reads_floors`` at m, n <= 2, on csf_m sets of random
    classes and on random floors that do not grow with the antecedent."""
    dom, cod = domains(sizes)
    rng = random.Random(5 * sizes[0] + sizes[1])
    sets = []
    for m in (1, 2):
        sets += [csf_m(random_function_class(rng, dom, cod, arity, 3), m) for arity in (1, 2)]
        sets.append(ConstraintSet.from_floors(dom, cod, m, [rng.getrandbits(cod.size**m) for _ in range(1 << dom.size**m)]))
    assert_fsc_n_reads_floors(sets, (1, 2), monkeypatch)


@pytest.mark.parametrize("sizes", CONSTRAINT_SIDE_PAIRS, ids=["2x2", "3x2", "2x3"])
def test_held_forms_answer_len_and_unions_without_deriving(sizes, monkeypatch):
    """len of mask-held and floor-held collections, the unions fsc (of a
    floor-held set) and csf, and fsc_n of a floor-held set read the held forms
    and derive no keys; the results equal those of the same collections held
    as keys."""
    dom, cod = domains(sizes)
    rng = random.Random(3 * sizes[0] + sizes[1])
    k = random_function_class(rng, dom, cod, 1, 2) | random_function_class(rng, dom, cod, 2, 4)
    t = csf_m(k, 1)
    cap = 3 if dom.size == 2 else 2  # 2^27 tables of arity 3 at |A| = 3
    derived = record_derives(monkeypatch)
    classes, sets = fsc(t, cap), csf(k, 2)
    sizes_held = list(map(len, [classes, sets]))
    floors_read = fsc_n(sets, 2)
    assert (classes.arities(), sets.arities()) == (tuple(range(1, cap + 1)), (1, 2))
    assert not derived
    by_keys = [FunctionClass(dom, cod, {n: classes.ranks(n) for n in classes.arities()}), pair_held(sets)]
    assert sizes_held == list(map(len, by_keys))
    assert classes == functools.reduce(operator.or_, [fsc_n(pair_held(t), n) for n in range(1, cap + 1)])
    assert sets == pair_held(csf_m(k, 1)) | pair_held(csf_m(k, 2))
    assert floors_read == fsc_n(by_keys[1], 2)


def test_len_of_a_wide_mask_decodes_no_rank(monkeypatch):
    """Boolean fsc_4 of {(A^2, B^2)} is every one of the 65,536 tables, counted off the mask."""
    bool_ = DomainSpec("bool", 2)
    k = fsc_n(ConstraintSet(bool_, bool_, {2: {(15, 15)}}), 4)
    derived = record_derives(monkeypatch)
    assert len(k) == 65_536
    assert not derived


@pytest.mark.parametrize("sizes", CONSTRAINT_SIDE_PAIRS, ids=["2x2", "3x2", "2x3"])
def test_unions_and_differences_of_masks_stay_masks(sizes, monkeypatch):
    """| and - of two mask-held classes OR or AND-NOT the masks, derive no
    ranks, and equal the results of the same classes held as ranks."""
    dom, cod = domains(sizes)
    rng = random.Random(11 * sizes[0] + sizes[1])
    classes = [FunctionClass.from_masks(dom, cod, {n: rng.getrandbits(function_count(dom, cod, n))
                                                   for n in (1, 2) if rng.random() < 0.8}) for _ in range(5)]
    by_ranks = [FunctionClass(dom, cod, {n: k.ranks(n) for n in k.arities()}) for k in classes]
    derived = record_derives(monkeypatch)
    results = [(x | y, x - y) for x, y in itertools.product(classes, repeat=2)]
    subsets = [x.issubset(y) for x, y in itertools.product(classes, repeat=2)]
    assert not derived
    assert all(type(form) is int for pair in results for k in pair for form in k._forms.values())
    assert results == [(x | y, x - y) for x, y in itertools.product(by_ranks, repeat=2)]
    assert subsets == [x.issubset(y) for x, y in itertools.product(by_ranks, repeat=2)]


@pytest.mark.parametrize("sizes", CONSTRAINT_SIDE_PAIRS, ids=["2x2", "3x2", "2x3"])
def test_membership_reads_masks_and_floors(sizes, monkeypatch):
    """in on a mask-held class and a floor-held set reads one bit or one floor,
    derives nothing, and agrees with the same collection held as keys on
    members, non-members and members of an arity it does not have."""
    dom, cod = domains(sizes)
    rng = random.Random(13 * sizes[0] + sizes[1])
    k = FunctionClass.from_masks(dom, cod, {1: rng.getrandbits(function_count(dom, cod, 1)) | 1})
    t = ConstraintSet.from_floors(dom, cod, 1, [rng.getrandbits(cod.size) for _ in range(1 << dom.size)])
    keyed = [FunctionClass(dom, cod, {1: k.ranks(1)}), pair_held(t)]
    functions = [*enumerate_functions(dom, cod, 1), *enumerate_functions(dom, cod, 2)]
    constraints = [*enumerate_constraints(dom, cod, 1), *enumerate_constraints(dom, cod, 2)]
    derived = record_derives(monkeypatch)
    held = [[f in k for f in functions], [c in t for c in constraints]]
    assert not derived
    assert held == [[f in keyed[0] for f in functions], [c in keyed[1] for c in constraints]]
    for found, members in zip(held, (functions, constraints)):
        assert True in found and False in found  # members and non-members of arity 1
        assert not any(x for x, member in zip(found, members) if member.arity == 2)


def test_reads_leave_every_form_as_built(rng):
    """ranks, mask, floors, len, in, ==, hash, sorted_keys and the operands of
    | and - write no container's forms, a class of a parsed document included."""
    bool_ = DomainSpec("bool", 2)
    doc = parse_instance(json.dumps({
        "domains": {"bool": 2},
        "functions": {"and": {"dom": "bool", "cod": "bool", "arity": 2, "table": [0, 0, 0, 1]},
                      "not": {"dom": "bool", "cod": "bool", "arity": 1, "table": [1, 0]}},
        "classes": {"K": {"dom": "bool", "cod": "bool", "members": ["and", "not"]}},
    }))
    k = doc.lookup("classes", "K")
    masks = FunctionClass.from_masks(bool_, bool_, {n: k.mask(n) for n in k.arities()})
    pairs = ConstraintSet(bool_, bool_, {2: {(rng.getrandbits(4), rng.getrandbits(4)) for _ in range(6)}})
    floors = csf_m(k, 2)
    for x, other in ((k, masks), (masks, k), (pairs, floors), (floors, pairs)):
        forms, held = x._forms, dict(x._forms)  # the dict and, by identity, each arity's form
        reads = [x.ranks(n) for n in (1, 2, 3)]
        reads += [x.mask(n) if isinstance(x, FunctionClass) else x.floors(n) for n in (1, 2, 3)]
        reads += [member in x for member in (*x.members(2), *other.members(1), *other.members(2))]
        reads += [len(x), hash(x), x == other, other == x, x.sorted_keys(), repr(x), x | other, x - other, other - x]
        assert x._forms is forms and forms == held and all(forms[n] is held[n] for n in held)


# (|A|, |B|), m, and the seeds of cm_m_closure: one random constraint, or the (R, R) pairs of two
# t15ii-m3 pool relations at Boolean m = 3
FLOOR_CASES = [pytest.param(sizes, m, None, id=f"{sizes[0]}x{sizes[1]}-m{m}")
               for sizes in [(2, 2), (3, 2), (2, 3), (3, 3)] for m in (1, 2)]
FLOOR_CASES += [pytest.param((2, 2), 3, [(r, r)], id=f"2x2-m3-{r}") for r in (126, 139)]


@pytest.mark.parametrize("sizes, m, seeds", FLOOR_CASES)
def test_floor_held_sets_match_their_pairs(sizes, m, seeds, monkeypatch):
    """lo_n_closure at every n from 1 to |A|^m, len, - both ways and == on the
    floor-held sets of csf_m, csf and cm_m_closure agree with the same sets
    held as pairs, lo_n_closure keeps their floors, and floors alone decide ==
    and a pair-held set minus a floor-held one."""
    dom, cod = domains(sizes)
    rng = random.Random(sum(sizes) + 10 * m)
    t = ConstraintSet(dom, cod, {m: seeds}) if seeds else ConstraintSet.from_constraints(
        dom, cod, [random_constraint(rng, dom, cod, m)])
    k = fsc_n(t, 1)
    sets = [cm_m_closure(t, m).constraints, csf(k, m), csf_m(random_function_class(rng, dom, cod, 1, 1), m)]
    # csf's union over the arities 1..m keeps each arity's floors
    assert sets[1].arities() == tuple(range(1, m + 1)) and None not in held_floors(sets[1]).values()
    assert sets[1] == functools.reduce(operator.or_, [pair_held(csf_m(k, j)) for j in range(1, m + 1)])
    for n in range(1, dom.size**m + 1):
        for x in sets[1:3]:  # csf sets are closed under lo_n, on either path
            assert held_floors(lo_n_closure(x, n)) == held_floors(x)
            assert lo_n_closure(pair_held(x), n) == x
        closed = lo_n_closure(sets[0], n)
        assert closed.arities() == (m,) and closed.floors(m)  # cm-closed floors keep the floor path
        assert closed == lo_n_closure(pair_held(sets[0]), n)
        if held_floors(closed) != held_floors(sets[-1]):  # lo_n stops growing from some n on
            sets.append(closed)
    pairs = list(map(pair_held, sets))
    assert list(map(len, sets)) == list(map(len, pairs))
    for (x, px), (y, py) in itertools.product(zip(sets, pairs), repeat=2):
        assert (x - y).sorted_keys() == (px - py).sorted_keys() == (x - py).sorted_keys()
        assert (x == y) == (px == py)
    assert any(x != y for x, y in itertools.combinations(sets, 2))
    assert_floors_decide(sets, monkeypatch)


def test_floors_with_two_least_consequents_take_the_pair_path(monkeypatch):
    # floors not growing with the antecedent: at n = 1, {0, 1} keeps the s above its floor 2 and gains
    # those above 1, the OR of the floors of its subsets, so the closure has two least consequents there
    bool_ = DomainSpec("bool", 2)
    t = ConstraintSet.from_floors(bool_, bool_, 1, [0, 1, 0, 2])
    closed = lo_n_closure(t, 1)
    assert closed.floors(1) is None  # the pair path
    assert closed.ranks(1) == t.ranks(1) | {(3, 1)}
    rng = random.Random(3)
    sets = [t] + [ConstraintSet.from_floors(bool_, bool_, 2, [rng.getrandbits(4) for _ in range(16)])
                  for _ in range(3)]
    paths = set()
    for t in sets:
        (m,) = t.arities()
        for n in range(1, 2**m + 1):
            closed = lo_n_closure(t, n)
            assert closed == lo_n_closure(pair_held(t), n) == lo_n_reference(t, n)
            assert len(closed) == len(pair_held(closed))
            paths.add(closed.floors(m) is not None)
        assert len(t) == len(pair_held(t))
        for other in sets:
            assert (t - other).sorted_keys() == (pair_held(t) - pair_held(other)).sorted_keys()
    assert paths == {False, True}
    # floors fix the set whether or not they grow with the antecedent: one changed floor is another set
    changed = ConstraintSet.from_floors(bool_, bool_, 2, [f ^ (r == 5) for r, f in enumerate(sets[1].floors(2))])
    assert_floors_decide([*sets, changed], monkeypatch)


@pytest.mark.parametrize("sizes", [(2, 2), (3, 2), (2, 3)], ids=["2x2", "3x2", "2x3"])
def test_cm_fixpoint_seeds_floor_held_input_by_its_floors(sizes, monkeypatch):
    """A floor-held input enters the cm fixpoint as one (r, floor(r)) per
    antecedent: floors, rounds and convergence, cut off or not, are those of
    the same set held as pairs, and every witness re-checks."""
    dom, cod = domains(sizes)
    rng = random.Random(7 * sizes[0] + sizes[1])
    adds = []
    monkeypatch.setattr("funcon.constraint_closures._add", lambda *args: adds.append(args[2]) or _add(*args))
    for m in (1, 2):
        t = ConstraintSet.from_constraints(dom, cod, [random_constraint(rng, dom, cod, m)])
        floors = [rng.getrandbits(cod.size**m) for _ in range(1 << dom.size**m)]  # not growing with r
        inputs = [cm_m_closure(t, m).constraints, csf_m(random_function_class(rng, dom, cod, 1, 2), m),
                  ConstraintSet.from_floors(dom, cod, m, floors)]
        for x, bounds in itertools.product(inputs, [CmBounds(), CmBounds(max_iterations=1)]):
            pairs = cm_m_closure(pair_held(x), m, bounds)
            del adds[:]
            held = cm_m_closure(ConstraintSet.from_floors(dom, cod, m, x.floors(m)), m, bounds)
            assert (held.constraints.floors(m), held.iterations, held.converged) == (
                pairs.constraints.floors(m), pairs.iterations, pairs.converged)
            assert adds[: 1 << dom.size**m] == list(enumerate(x.floors(m)))  # one seed per antecedent
            minor_witnesses(held, x)
