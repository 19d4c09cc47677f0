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
    enumerate_functions,
    minor_check,
    relaxation_of,
    satisfies,
    tight_minor,
)
from funcon.instance_io import parse_scheme_literal
from funcon.minors import tight_minor_relation

from conftest import BOOL, C_LEQ, GEQ, LEQ, cset


SWAP = Scheme(2, 0, ((1, 0),))
COMPOSE = Scheme(2, 1, ((0, 2), (2, 1)))  # h1 reads (c1, v1), h2 (v1, c2)
IDENTITY2 = Scheme(2, 0, ((0, 1), (0, 1)))  # two identity maps


def test_scheme_builder_and_validation():
    s = parse_scheme_literal("target=2; V=1; h1=[c1,v1]")
    assert s == Scheme(2, 1, ((0, 2),))
    with pytest.raises(ValueError):
        Scheme(2, 0, ((2,),))  # coordinate 3 of a binary target
    with pytest.raises(ValueError):
        Scheme(2, 1, ((3,),))  # indeterminate 2 of 1
    with pytest.raises(ValueError):
        Scheme(2, 0, ())


def test_scheme_normalization_drops_unused_indeterminates():
    s = Scheme(2, 3, ((0, 4),))  # reads c1 and v3
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
        tight_minor_relation([LEQ, Relation.full(t, 2)], IDENTITY2)
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
            got = tight_minor_relation([r1, r2], IDENTITY2)
            assert got == (r1 & r2)


def test_equality_m_from_binary_equalities():
    # =_3 arises from =_2 minors: h1 reads (1,2), h2 reads (2,3)
    eq2 = Relation.from_tuples(BOOL, 2, [(0, 0), (1, 1)])
    scheme = Scheme(3, 0, ((0, 1), (1, 2)))
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
