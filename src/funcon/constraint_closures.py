"""Constraint-side closure operators.

``cm_m_closure`` computes a bounded-generator fixpoint under relaxation steps
and tight-minor moves inside the m-ary constraint universe.  Soundness is by
construction (every move produces a conjunctive minor; iterating small steps
is covered by transitivity of minor formation); completeness is certified per
instance against ``satisfaction.cm_m_oracle``, the independently computed
Galois composite.  Nothing here imports the satisfaction side it is checked
against.

The kernels are word operations on the relations' rank bitmasks.  A mask's
lifts through every map h are sums of cached nibble tables (``_lift_tables``):
per 4-bit chunk of the source ranks, the column of a nibble holds, per map, the
OR of the preimages of its bits, the extended tuples whose h-readings they rank.
The fixpoint holds one floor per antecedent R, its least consequent: the sets
it builds are closed under relaxation and under the meet of two members with
one antecedent, so their members are the (R, S) with S a superset of floor(R).
``_add`` ANDs a new pair's consequent into the floors below its antecedent,
and ``_maximal`` reads off the maximal members.  A round of minor moves packs
each lift of a maximal member into one int, antecedent above consequent, so a
meet of lifts is one AND (a lift met with itself is a single-source tight
minor).  The lifts are closed under the permutations g of the target and the
indeterminate coordinates, and g commutes with the meet and the projection, so
the first lift of each orbit (``_map_orbits``) meets the lifts, and the floors
are closed under the target permutations after (``core.permute``).  Its row of
meets is deduplicated in row order by ``dict.fromkeys`` and against every meet
seen, and each new one is projected by shift-ORs and 8-block tables
(``_meet_projection``).  Semi-naive rounds: an old orbit meets the fresh lifts,
a fresh one those from its own orbit on.  Witnesses are recorded as bit pairs
for the pairs that enter and decoded, one per member, on first read.
``lo_n_closure`` masks, per antecedent, the consequents present with it and
folds their up-interiors over the subset lattice with ``core.subset_fold``.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    ArityMismatchError,
    Constraint,
    ConstraintSet,
    capped_arities,
    constraint_universe_count,
    permutation_tables,
    permute,
    ranks_of_mask,
    readings,
    submasks,
    subset_fold,
    within_budget,
)
from .minors import Scheme


@dataclass(frozen=True)
class CmBounds:
    """Per-step limits for the bounded-generator fixpoint."""

    max_indets: int = 2
    max_iterations: int = 50

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.max_indets < 0:
            raise ValueError("max_indets must be >= 0")


@dataclass(frozen=True)
class MinorWitness:
    """How a closure member was produced: a seed, a relaxation of another
    member, or a tight minor of named sources under a scheme (a meet of two
    members with one antecedent is one under the identity scheme)."""

    kind: str  # "seed" | "relaxation" | "minor"
    family: tuple[Constraint, ...] = ()
    scheme: Scheme | None = None
    parent: tuple[int, int] | None = None  # bits of the relaxed member


@dataclass
class CmResult:
    """The closure with its floors: ``floors[m][r]`` is the least consequent
    of antecedent r, and the members are the (r, s) with s a superset of it.
    ``entered[m]`` maps each bit pair that entered the fixpoint (a seed, a new
    minor candidate, a new floor) to its witness, and following witnesses
    always ends at seeds: ``("seed",)``, ``("relaxation", parent_pair)`` or
    ``("minor", v, sources)`` with sources ``(r, s, h, src_arity)``; a v = 0
    minor of one source through a permutation h is a floor's S_m image."""

    constraints: ConstraintSet
    converged: bool
    iterations: int
    floors: dict[int, list[int]] = field(default_factory=dict, repr=False)
    entered: dict[int, dict[tuple[int, int], tuple]] = field(default_factory=dict, repr=False)

    @cached_property
    def witnesses(self) -> dict[Constraint, MinorWitness]:
        """Every member with its witness, decoded on first read: the witness it
        entered with, or else a relaxation of its antecedent's floor."""
        decode = self.constraints.decode
        out = {}
        for m, entered in self.entered.items():
            floors = self.floors[m]
            for pair in self.constraints.ranks(m):
                kind, *rest = entered.get(pair) or ("relaxation", (pair[0], floors[pair[0]]))
                if kind == "minor":
                    v, sources = rest
                    family = tuple(decode(n, (r, s)) for r, s, _, n in sources)
                    wit = MinorWitness(kind, family, Scheme(m, v, tuple(h for _, _, h, _ in sources)))
                else:
                    wit = MinorWitness(kind, parent=rest[0] if rest else None)
                out[decode(m, pair)] = wit
        return out


def _add(floors: list[int], entered: dict[tuple[int, int], tuple], pair: tuple[int, int], m: int) -> None:
    """Add the member (r, s) by ANDing s into the floor of every r' inside r.
    A new floor s is a relaxation of the pair, a new floor ``old & s`` the meet
    of (r', old) and the pair; the pair's own witness is the caller's."""
    r, s = pair
    ident = tuple(range(m))
    for sub in submasks(r):
        old = floors[sub]
        if old & ~s:
            new = floors[sub] = old & s
            if (sub, new) != pair:
                meet = ("minor", 0, ((sub, old, ident, m), (r, s, ident, m)))
                entered[sub, new] = ("relaxation", pair) if new == s else meet


def _maximal(floors: list[int], width: int) -> list[tuple[int, int]]:
    """The maximal members: floors grow with the antecedent, so these are the
    (r, floor(r)) whose floor grows at every one-tuple-larger antecedent."""
    return [(r, floor) for r, floor in enumerate(floors)
            if all(floors[r | 1 << j] != floor for j in range(width) if not r >> j & 1)]


@lru_cache(maxsize=32)
def _lift_tables(k: int, m: int, v: int, size: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[tuple[int, ...], ...], ...]]:
    """The maps h from k source coordinates to the m+v extended ones, in product
    order, and per 4-bit chunk c of the source ranks one column per nibble p:
    entry i is the bitmask over size^(m+v) of the extended tuples (coordinate 1
    most significant) whose reading through map i has rank 4c+j for a bit j of p."""
    maps, tables = tuple(itertools.product(range(m + v), repeat=k)), []
    for h in maps:
        pre = [0] * size**k
        for x, read in enumerate(readings(h, m + v, size)):
            pre[read] |= 1 << x
        # the preimages of distinct ranks are disjoint, so a sum is their OR
        tables.append([reduce(lambda table, bit: table + [t + bit for t in table], pre[c : c + 4], [0])
                       for c in range(0, len(pre), 4)])
    return maps, tuple(tuple(zip(*chunk)) for chunk in zip(*tables))


@lru_cache(maxsize=32)
def _map_orbits(k: int, m: int, v: int) -> tuple[tuple[int, ...], ...]:
    """Per map h of ``_lift_tables(k, m, v, ..)``, the indices of the maps g∘h for g permuting the m target
    and the v indeterminate coordinates: the maps that are equal where h is and targets where h is."""
    shapes = [tuple((e < m, h.index(e)) for e in h) for h in itertools.product(range(m + v), repeat=k)]
    orbits = {shape: tuple(i for i, other in enumerate(shapes) if other == shape) for shape in set(shapes)}
    return tuple(map(orbits.__getitem__, shapes))


def _lifts(columns: tuple[tuple[tuple[int, ...], ...], ...], bits: int) -> Iterable[int]:
    """The lifts of a source mask through every map of its ``_lift_tables``: the sum of its nibbles' columns."""
    return reduce(partial(map, operator.add), [column[bits >> 4 * c & 15] for c, column in enumerate(columns)])


def _projection(m: int, v: int, size: int) -> tuple[tuple[int, ...], tuple[tuple[int, int, dict[int, int]], ...]]:
    """The shifts whose ORs fold each block of size^v bits onto its lowest bit (they sum to
    size^v - 1, so no block reads the next one), and per chunk of 8 blocks its offset, the
    mask of their lowest bits and the table from that pattern to the projected bits."""
    block = size**v
    chunks = []
    for first in range(0, size**m, 8):
        spread = [sum(1 << k * block for k in range(8) if p >> k & 1) for p in range(1 << min(8, size**m - first))]
        chunks.append((first * block, spread[-1], {low: p << first for p, low in enumerate(spread)}))
    return tuple(min(1 << k, block - (1 << k)) for k in range((block - 1).bit_length())), tuple(chunks)


@lru_cache(maxsize=64)
def _meet_projection(m: int, v: int, sa: int, sb: int) -> Callable[[int], tuple[int, int]]:
    """The projection of a packed lift ``a << sb^(m+v) | b`` to its pair of masks.  With sa == sb one
    fold serves both halves: the antecedent bits it moves down stay above the top consequent block's lowest bit."""
    (shifts, chunks), width_b = _projection(m, v, sb), sb ** (m + v)
    if sa != sb:
        return lambda packed: (_project(packed >> width_b, m, v, sa), _project(packed & (1 << width_b) - 1, m, v, sb))
    chunks_a = tuple((offset + width_b, low, table) for offset, low, table in chunks)

    def project(packed: int) -> tuple[int, int]:
        for shift in shifts:
            packed |= packed >> shift
        pa = pb = 0
        for offset, low, table in chunks_a:
            pa |= table[packed >> offset & low]
        for offset, low, table in chunks:
            pb |= table[packed >> offset & low]
        return pa, pb

    return project


def _project(bits: int, m: int, v: int, size: int) -> int:
    """Existentially project away the trailing v coordinates."""
    return _meet_projection(m, v, size, size)(bits)[1]


def _closure_fixpoint(t: ConstraintSet, targets: list[int], bounds: CmBounds, budget: int) -> CmResult:
    """Shared engine for cm_m (single arity) and cm (cross-arity, capped).

    Each target arity starts from the floor B^m at every antecedent and takes
    the members of t and the equality and empty constraints as seeds; sources
    for the minor moves are the maximal members of every target arity.  The
    result's constraints are the floors expanded into members.
    """
    dom, cod, v = t.dom, t.cod, bounds.max_indets
    for m in targets:
        if m < 1:
            raise ValueError("constraint arity must be >= 1")
        within_budget(constraint_universe_count(dom, cod, m), budget, f"constraints of arity {m}")
        lifted = sum((m + v) ** k for k in targets) * max(dom.size, cod.size) ** (m + v)  # what _lift_tables builds
        within_budget(lifted, budget, f"lift maps times extended tuples at arity {m}")
    for arity in t.arities():
        if arity not in targets:
            raise ArityMismatchError(f"input set contains arity {arity}, outside target arities {targets}")
    sa, sb = dom.size, cod.size
    floors: dict[int, list[int]] = {}
    entered: dict[int, dict[tuple[int, int], tuple]] = {}
    for m in targets:
        full_a, full_b = (1 << sa**m) - 1, (1 << sb**m) - 1
        eq = tuple(sum(1 << x for x in readings((0,) * m, 1, size)) for size in (sa, sb))
        floors[m] = [full_b] * (full_a + 1)
        # (A^m, B^m) is the tight minor of the equality seed through a constant map
        entered[m] = dict.fromkeys([(r, full_b) for r in range(full_a)], ("relaxation", (full_a, full_b)))
        entered[m][full_a, full_b] = ("minor", 0, ((*eq, (0,) * m, m),))
        for pair in [*t.ranks(m), eq, (0, 0)]:
            entered[m][pair] = ("seed",)
            _add(floors[m], entered[m], pair, m)
    done: dict[int, set[int]] = {m: set() for m in targets}  # per target arity, packed meets projected
    previous: dict[int, set[int]] = {m: set() for m in targets}  # and the last round's packed lifts
    # the permutations q of the target coordinates but the identity, with their tables on both sides
    perms = {m: [(q, permutation_tables(q, sa), permutation_tables(q, sb)) for q in itertools.permutations(range(m))][1:]
             for m in targets}
    converged = False
    iteration = 0
    for iteration in range(1, bounds.max_iterations + 1):
        changed = False
        maximals = {m: _maximal(floors[m], sa**m) for m in targets}
        for m in targets:
            width_b = sb ** (m + v)
            # packed lift (antecedent << width_b | consequent) -> a source giving it, orbit by orbit
            lifts: dict[int, tuple[int, int, tuple[int, ...], int]] = {}
            reps = []  # the first lift of each orbit
            for src_arity in targets:
                (maps, columns_a), (_, columns_b) = _lift_tables(src_arity, m, v, sa), _lift_tables(src_arity, m, v, sb)
                orbits = _map_orbits(src_arity, m, v)
                for r, s in maximals[src_arity]:
                    keys = list(map(operator.or_, map(operator.lshift, _lifts(columns_a, r), itertools.repeat(width_b)), _lifts(columns_b, s)))
                    for i, key in enumerate(keys):
                        if key not in lifts:  # nor is its orbit, the lifts through the maps g∘h
                            reps.append(key)
                            lifts.update({keys[j]: (r, s, maps[j], src_arity) for j in orbits[i]})
            old, previous[m] = previous[m], set(lifts)
            fresh = [key for key in lifts if key not in old]
            at = {key: i for i, key in enumerate(fresh)}
            project, seen, floor = _meet_projection(m, v, sa, sb), done[m], floors[m]
            for key in reps:
                # an old orbit met the old lifts last round, so it meets the fresh ones; a fresh orbit meets
                # the fresh lifts from its own orbit on, as the fresh orbits before it met it
                row = fresh if key in old else fresh[at[key]:]
                meets = list(map(key.__and__, row))
                new = [meet for meet in dict.fromkeys(meets) if meet not in seen]  # in the order of the row
                seen.update(new)
                for meet in new:
                    cand = project(meet)
                    if floor[cand[0]] & ~cand[1]:
                        other = row[meets.index(meet)]
                        entered[m][cand] = ("minor", v, (lifts[key],) if other == key else (lifts[key], lifts[other]))
                        _add(floor, entered[m], cand, m)
                        changed = True
            # the pairs met the orbits through one lift each, so add the S_m images of the maximal members
            for r, s in _maximal(floor, sa**m):
                for q, tables_a, tables_b in perms[m]:
                    image = permute(tables_a, r), permute(tables_b, s)
                    if floor[image[0]] & ~image[1]:
                        entered[m][image] = ("minor", 0, ((r, s, q, m),))
                        _add(floor, entered[m], image, m)
                        changed = True
        if not changed:
            converged = True
            break
    constraints = reduce(operator.or_, (ConstraintSet.from_floors(dom, cod, m, floors[m]) for m in targets))
    return CmResult(constraints, converged, iteration, floors, entered)


def cm_m_closure(
    t_m: ConstraintSet,
    m: int,
    bounds: CmBounds = CmBounds(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> CmResult:
    """Bounded-generator fixpoint for the m-ary minor closure within Q_m."""
    return _closure_fixpoint(t_m, [m], bounds, budget)


def cm_closure(
    t: ConstraintSet,
    cap: int,
    bounds: CmBounds = CmBounds(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> CmResult:
    """Cross-arity minor closure, materialized at target arities 1..cap.

    Source families for the minor moves may mix any materialized arity.
    """
    return _closure_fixpoint(t, list(capped_arities(cap)), bounds, budget)


def lo_n_closure(
    t: ConstraintSet,
    n: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ConstraintSet:
    """Add every constraint all of whose relaxations with antecedent of size
    at most n already belong to the set.

    Only constraints with more than n antecedent tuples are added, and the
    test reads only those with at most n, so one pass is the least fixpoint.
    ``rows[r]`` masks the consequents present with antecedent r.  ``inner[r]``
    is its up-interior for |r| <= n (the consequents all of whose supersets are
    present, one shift-and-mask pass per consequent tuple) and all consequents
    otherwise; a larger r gains the consequents it lacks in the AND of
    ``inner`` over its subsets, one ``core.subset_fold``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dom, cod = t.dom, t.cod
    result: dict[int, frozenset[tuple[int, int]]] = {}
    for m in t.arities():
        within_budget(constraint_universe_count(dom, cod, m), budget, f"constraints of arity {m}")
        n_ante, width = 1 << dom.size**m, cod.size**m
        rows = [0] * n_ante
        for r, s in t.ranks(m):
            rows[r] |= 1 << s
        full = (1 << (1 << width)) - 1
        # entry j: the consequent masks holding tuple j, as a bitmask over all of them
        containing = [full // ((1 << (2 << j)) - 1) * (((1 << (1 << j)) - 1) << (1 << j)) for j in range(width)]
        inner = [full] * n_ante
        for r in range(n_ante):
            if r.bit_count() <= n:
                row = rows[r]
                for j, with_j in enumerate(containing):
                    row &= (row >> (1 << j)) | with_j
                inner[r] = row
        shared = subset_fold(inner, operator.and_)
        added = [(r, s) for r in range(n_ante) if r.bit_count() > n for s in ranks_of_mask(shared[r] & ~rows[r])]
        result[m] = t.ranks(m).union(added)
    # the pairs of t were checked when t was built, and the added ones are in range
    return ConstraintSet._of_keys(dom, cod, result)


def lo_constraints_closure(
    t: ConstraintSet, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> ConstraintSet:
    """The unparametrized local closure; the identity on finite domains."""
    if not t.arities():
        return t
    n = max(t.dom.size**m for m in t.arities())
    closed = lo_n_closure(t, n, budget)
    if closed != t:
        raise RuntimeError("local closure must be the identity on finite domains")
    return closed


def union_closure_check(
    t: ConstraintSet, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> tuple[bool, tuple[Constraint, Constraint] | None]:
    """Pairwise-union closure per arity; at finite scale this implies closure
    under arbitrary unions.  Returns a violating pair if any."""
    for m in t.arities():
        present = t.ranks(m)
        within_budget(len(present) * (len(present) + 1) // 2, budget, f"member pairs of arity {m}")
        for (r1, s1), (r2, s2) in itertools.combinations_with_replacement(sorted(present), 2):
            if (r1 | r2, s1 | s2) not in present:
                return False, (t.decode(m, (r1, s1)), t.decode(m, (r2, s2)))
    return True, None
