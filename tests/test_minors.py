import itertools
import random

import pytest

from funcon import (
    Constraint,
    DomainMismatchError,
    DomainSpec,
    Relation,
    Scheme,
    compose_schemes,
    coord,
    enumerate_functions,
    indet,
    minor_check,
    relaxation_of,
    satisfies,
    special_minor,
    tight_minor,
)
from funcon.minors import identity_scheme, tight_minor_relation

from conftest import BOOL, C_LEQ, GEQ, LEQ, cset


SWAP = Scheme.of(2, 0, [[coord(2), coord(1)]])
COMPOSE = Scheme.of(2, 1, [[coord(1), indet(1)], [indet(1), coord(2)]])


def test_scheme_builder_and_validation():
    s = Scheme.of(2, 1, [[coord(1), indet(1)]])
    assert s.maps == ((0, 2),)
    assert s.source_arities() == (2,)
    with pytest.raises(ValueError):
        Scheme.of(2, 0, [[coord(3)]])
    with pytest.raises(ValueError):
        Scheme.of(2, 1, [[indet(2)]])
    with pytest.raises(ValueError):
        Scheme(2, 0, ())


def test_scheme_normalization_drops_unused_indeterminates():
    s = Scheme.of(2, 3, [[coord(1), indet(3)]])
    norm = s.normalized()
    assert norm.indets == 1
    assert norm.maps == ((0, 2),)


def test_tight_minor_swap():
    assert tight_minor_relation([LEQ], SWAP) == GEQ
    swapped = tight_minor([C_LEQ], SWAP)
    assert swapped == Constraint(GEQ, GEQ)


def test_tight_minor_relation_reports_a_domain_mismatch():
    t = DomainSpec("t", 3)
    with pytest.raises(DomainMismatchError):
        tight_minor_relation([LEQ, Relation.full(t, 2)], identity_scheme(2, 2))
    with pytest.raises(DomainMismatchError):
        tight_minor_relation([LEQ], SWAP, domain=t)


def test_tight_minor_composition_scheme():
    # relational composition of <= with itself is <=
    assert tight_minor_relation([LEQ, LEQ], COMPOSE) == LEQ


def test_tight_minor_intersection_via_identity_scheme():
    # the tight minor under two identity maps is the intersection; exhaustive
    for b1 in range(16):
        for b2 in range(16):
            r1, r2 = Relation(BOOL, 2, b1), Relation(BOOL, 2, b2)
            got = tight_minor_relation([r1, r2], identity_scheme(2, 2))
            assert got == (r1 & r2)


def test_equality_m_from_binary_equalities():
    # =_3 arises from =_2 minors: h1 reads (1,2), h2 reads (2,3)
    eq2 = Relation.from_tuples(BOOL, 2, [(0, 0), (1, 1)])
    scheme = Scheme.of(3, 0, [[coord(1), coord(2)], [coord(2), coord(3)]])
    got = tight_minor_relation([eq2, eq2], scheme)
    assert sorted(got.tuples()) == [(0, 0, 0), (1, 1, 1)]


def test_minor_check_modes():
    tm = tight_minor([C_LEQ], SWAP)
    assert minor_check(tm, [C_LEQ], SWAP, "tight")
    shrunk = Constraint(Relation(BOOL, 2, tm.antecedent.bits & 0b0011), tm.consequent)
    assert minor_check(shrunk, [C_LEQ], SWAP, "restrictive")
    assert not minor_check(shrunk, [C_LEQ], SWAP, "tight")
    grown = Constraint(tm.antecedent, Relation.full(BOOL, 2))
    assert minor_check(grown, [C_LEQ], SWAP, "extensive")
    relaxed = Constraint(shrunk.antecedent, grown.consequent)
    assert minor_check(relaxed, [C_LEQ], SWAP, "conjunctive")
    assert relaxation_of(relaxed, tm)


def test_special_minor_flags():
    _, flags = special_minor(C_LEQ, SWAP)
    assert flags == frozenset({"simple", "weak"})
    single = Scheme.of(1, 1, [[coord(1), indet(1)]])
    _, flags = special_minor(C_LEQ, single)
    assert flags == frozenset({"simple"})
    weak_two = Scheme.of(2, 0, [[coord(1), coord(2)], [coord(2), coord(1)]])
    _, flags = special_minor(C_LEQ, weak_two)
    assert flags == frozenset({"weak"})
    with pytest.raises(ValueError):
        special_minor(C_LEQ, COMPOSE)  # two sources and an indeterminate


def test_satisfaction_transported_by_conjunctive_minors():
    """Any function satisfying a family satisfies every conjunctive minor."""
    rng = random.Random(11)
    functions = list(enumerate_functions(BOOL, BOOL, 2))
    for _ in range(100):
        fam = [
            Constraint(Relation(BOOL, 2, rng.randrange(16)), Relation(BOOL, 2, rng.randrange(16)))
            for _ in range(2)
        ]
        v = rng.randrange(3)
        maps = tuple(
            tuple(rng.randrange(2 + v) for _ in range(2)) for _ in range(2)
        )
        scheme = Scheme(2, v, maps)
        tm = tight_minor(fam, scheme)
        for f in functions:
            if all(satisfies(f, c) for c in fam):
                assert satisfies(f, tm)


def _random_scheme(rng, target, max_v, n_maps, source_arities):
    v = rng.randrange(max_v + 1)
    maps = tuple(
        tuple(rng.randrange(target + v) for _ in range(source_arities[j]))
        for j in range(n_maps)
    )
    return Scheme(target, v, maps)


def test_scheme_composition_transitivity():
    """Flattened two-level schemes give the same tight minor as computing the
    inner minors first (200 fixed-seed random compositions)."""
    rng = random.Random(99)
    for _ in range(200):
        target = rng.randint(1, 2)
        outer_sources = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
        outer = _random_scheme(rng, target, 2, len(outer_sources), outer_sources)
        inners = []
        leaf_relations = []
        for h in outer.maps:
            inner_sources = [rng.randint(1, 2) for _ in range(rng.randint(1, 2))]
            inner = _random_scheme(rng, len(h), 2, len(inner_sources), inner_sources)
            inners.append(inner)
            leaf_relations.append(
                [Relation(BOOL, a, rng.randrange(1 << 2**a)) for a in inner_sources]
            )
        flat = compose_schemes(outer, inners)
        hierarchical = tight_minor_relation(
            [
                tight_minor_relation(rels, inner, BOOL, max_indets=4)
                for rels, inner in zip(leaf_relations, inners)
            ],
            outer,
            BOOL,
            max_indets=4,
        )
        flattened = tight_minor_relation(
            [r for rels in leaf_relations for r in rels], flat, BOOL, max_indets=8
        )
        assert flattened == hierarchical
