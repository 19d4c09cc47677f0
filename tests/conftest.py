import random

import pytest

from funcon import (
    Constraint,
    ConstraintSet,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    Relation,
    Scheme,
    canonical_constraint,
    minor_check,
    relaxation_of,
    tuple_rank,
    tuple_unrank,
)

BOOL = DomainSpec("bool", 2)


def fn(table, arity=None, dom=BOOL, cod=BOOL):
    if arity is None:
        n, size = 0, dom.size
        while size**n < len(table):
            n += 1
        arity = n
    return FunctionTable(dom, cod, arity, tuple(table))


AND = fn((0, 0, 0, 1))
OR = fn((0, 1, 1, 1))
XOR = fn((0, 1, 1, 0))
NAND = fn((1, 1, 1, 0))
PR1 = fn((0, 0, 1, 1))
PR2 = fn((0, 1, 0, 1))
IDENTITY = fn((0, 1))
NEGATION = fn((1, 0))

LEQ = Relation.from_tuples(BOOL, 2, [(0, 0), (0, 1), (1, 1)])
GEQ = Relation.from_tuples(BOOL, 2, [(0, 0), (1, 0), (1, 1)])
EQ2 = Relation.from_tuples(BOOL, 2, [(0, 0), (1, 1)])
C_LEQ = Constraint(LEQ, LEQ)
C_EQ2 = Constraint(EQ2, EQ2)


def cls(*tables, dom=BOOL, cod=BOOL):
    return FunctionClass.from_tables(dom, cod, tables)


def cset(*constraints, dom=BOOL, cod=BOOL):
    return ConstraintSet.from_constraints(dom, cod, constraints)


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture
def cm_m_calls(monkeypatch):
    """The bounds of every ``cm_m_closure`` call the lab makes during a test."""
    import funcon.lab as lab

    calls, real = [], lab.cm_m_closure

    def counted(t_m, m, bounds, budget):
        calls.append(bounds)
        return real(t_m, m, bounds, budget)

    monkeypatch.setattr(lab, "cm_m_closure", counted)
    return calls


def minor_witnesses(res, t):
    """Re-check the witness of every member of a cm result: a seed is in t or
    canonical, a relaxation relaxes a member, a minor is the tight minor of
    members.  Returns the (member, witness) pairs of kind minor."""
    members = res.constraints
    assert set(res.witnesses) == set(members.constraints())
    seeds = {t.decode(m, pair) for m in t.arities() for pair in t.generators(m)} | {
        canonical_constraint(kind, m, t.dom, t.cod) for kind in ("equality", "empty") for m in members.arities()
    }
    minors, parents = [], {}  # most members relax one of a few floors: check each parent once
    for c, wit in res.witnesses.items():
        if wit.kind == "seed":
            assert c in seeds
        elif wit.kind == "relaxation":
            parent = parents.get((c.arity, wit.parent))
            if parent is None:
                parent = parents[c.arity, wit.parent] = members.decode(c.arity, wit.parent)
                assert parent in members
            assert relaxation_of(c, parent)
        else:
            assert all(f in members for f in wit.family)
            assert minor_check(c, list(wit.family), wit.scheme, "tight", max_indets=wit.scheme.indets)
            minors.append((c, wit))
    return minors


def certify(res, t):
    """Certify a cm result by the pairs that entered its fixpoint, not by its
    members: every floor pair (r, floor(r)) entered, and every entered pair is
    a member whose witness re-checks against the members of any target arity.
    A seed is a generator of t or the equality or empty constraint, a
    relaxation relaxes an entered parent, a minor is the tight minor of members."""
    members = res.constraints
    floors = {m: members.floors(m) for m in res.entered}
    for m, entered in res.entered.items():
        assert entered.keys() >= set(enumerate(floors[m]))
        seeds = set(t.generators(m)) | {(c.antecedent.bits, c.consequent.bits) for c in (
            canonical_constraint(kind, m, t.dom, t.cod) for kind in ("equality", "empty"))}
        for (r, s), (kind, *rest) in entered.items():
            assert not floors[m][r] & ~s
            if kind == "seed":
                assert (r, s) in seeds
            elif kind == "relaxation":
                (r0, s0), = rest
                assert (r0, s0) in entered and not r & ~r0 and not s0 & ~s
            else:
                v, sources = rest
                assert all(not floors[n][r1] & ~s1 for r1, s1, _, n in sources)
                family = [members.decode(n, (r1, s1)) for r1, s1, _, n in sources]
                scheme = Scheme(m, v, tuple(h for _, _, h, _ in sources))
                assert minor_check(members.decode(m, (r, s)), family, scheme, "tight", max_indets=v)


def monotone_tables(arity):
    """Independent oracle: pointwise-monotone Boolean tables of a given arity,
    checked by comparing all coordinatewise-ordered argument pairs."""
    from itertools import product

    points = list(product((0, 1), repeat=arity))
    idx = {p: i for i, p in enumerate(points)}
    pairs = [
        (idx[p], idx[q])
        for p in points
        for q in points
        if all(a <= b for a, b in zip(p, q))
    ]
    out = []
    for table in product((0, 1), repeat=2**arity):
        if all(table[i] <= table[j] for i, j in pairs):
            out.append(fn(table, arity))
    return out


# relabelings: value permutations pi_A, pi_B (lists, element a goes to pi[a])
# and variable permutations tau of the functions, one per arity


def value_permutations(size):
    """A transposition and a cycle of the domain (one swap on Boolean)."""
    return [[1, 0, *range(2, size)], [*range(1, size), 0]]


def moved_ranks(size, arity, perm, sigma=None):
    """Entry r: the rank of the tuple of rank r over size^arity with perm
    applied to every coordinate, and coordinate i then read from coordinate
    sigma[i] (the identity when absent)."""
    order = sigma or range(arity)
    return [tuple_rank([perm[x[i]] for i in order], size)
            for x in (tuple_unrank(r, size, arity) for r in range(size**arity))]


def relabel_bits(bits, moved):
    """The rank mask ``bits`` with bit r moved to bit moved[r]."""
    return sum(1 << to for r, to in enumerate(moved) if bits >> r & 1)


def relabel_class(k, pi_a, pi_b, taus=None):
    """Every member f of k as g(x_1..x_n) = pi_b(f(y_1..y_n)) with y_i =
    pi_a^-1(x_tau(i)), tau = ``taus[n]`` (the identity when absent).  g
    satisfies (pi_a R, pi_b S) iff f satisfies (R, S), and the variable
    order of a member changes no constraint it satisfies."""
    size = k.dom.size
    inverse_a = [pi_a.index(a) for a in range(size)]
    tables = []
    for n in k.arities():
        tau = (taus or {}).get(n, range(n))
        points = [tuple_unrank(x, size, n) for x in range(size**n)]
        sources = [tuple_rank([inverse_a[x[t]] for t in tau], size) for x in points]
        for f in k.members(n):
            tables.append(FunctionTable(k.dom, k.cod, n, tuple(pi_b[f.table[y]] for y in sources)))
    return FunctionClass.from_tables(k.dom, k.cod, tables)


def relabel_constraints(t, pi_a, pi_b, sigmas=None):
    """Every member (R, S) of t as (pi_a R, pi_b S), with the coordinates of
    both permuted by sigma = ``sigmas[m]`` at arity m (the identity when
    absent): relabeling values and coordinates keeps satisfaction."""
    by_arity = {}
    for m in t.arities():
        sigma = (sigmas or {}).get(m)
        moved_a, moved_b = moved_ranks(t.dom.size, m, pi_a, sigma), moved_ranks(t.cod.size, m, pi_b, sigma)
        by_arity[m] = [(relabel_bits(r, moved_a), relabel_bits(s, moved_b)) for r, s in t.ranks(m)]
    return ConstraintSet(t.dom, t.cod, by_arity)


def constraint_orbits(a, b, m):
    """One single-constraint set {(R, S)} of arity m over |A| = a, |B| = b per
    orbit of the relabelings: a value permutation of A, one of B and a
    coordinate permutation applied to R and S together.  Yields (R, S, orbit
    size), R and S rank masks over A^m and B^m, (R, S) the least of its orbit."""
    from itertools import permutations

    group = [(moved_ranks(a, m, pi_a, sigma), moved_ranks(b, m, pi_b, sigma))
             for pi_a in permutations(range(a)) for pi_b in permutations(range(b)) for sigma in permutations(range(m))]
    images_r = [[relabel_bits(r, moved_a) for r in range(1 << a**m)] for moved_a, _ in group]
    images_s = [[relabel_bits(s, moved_b) for s in range(1 << b**m)] for _, moved_b in group]
    for r in range(1 << a**m):
        if min(image_r[r] for image_r in images_r) < r:
            continue  # the least pair of an orbit has the least antecedent of its own orbit
        for s in range(1 << b**m):
            orbit = {(image_r[r], image_s[s]) for image_r, image_s in zip(images_r, images_s)}
            if min(orbit) == (r, s):
                yield r, s, len(orbit)
