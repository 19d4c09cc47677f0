"""Constraint-side closure operators.

``cm_m_closure`` computes a bounded-generator fixpoint under relaxation steps
and tight-minor moves inside the m-ary constraint universe.  Soundness is by
construction (every move produces a conjunctive minor; iterating small steps
is covered by transitivity of minor formation); completeness is certified per
instance against ``satisfaction.cm_m_oracle``, the independently computed
Galois composite.  Nothing here imports the satisfaction side it is checked
against.

The kernels are word operations on the relations' rank bitmasks, and a round
of minor moves holds its lifts and meets as fields of one int, a lift or meet
``a << |B|^(m+v) | b`` each, so a meet of two lifts is one AND.  A member's
lifts through every map h are one sum of cached nibble tables
(``_lift_tables``): per 4-bit chunk of the source pair, the entry of a nibble
holds in field i the OR of the preimages of its bits under map i, the
extended tuples whose readings they rank, the A side above the B side.
The fixpoint holds one floor per antecedent R, its least consequent: the sets
it builds are closed under relaxation and under the meet of two members with
one antecedent, so their members are the (R, S) with S a superset of floor(R).
``_add``, the one door into the floors, enters a pair they do not hold with
its witness and ANDs its consequent into the floors below its antecedent,
and ``_maximal`` reads off the maximal members, with the floors side by side
in one int.  A member whose identity lift, one field of its sum, is held is
skipped: its other lifts read that one through maps of the m+v coordinates.
The lifts are closed under the permutations g of the target and the
indeterminate coordinates, and g commutes with the meet and the projection,
so a member's lifts are read only at the first map of each orbit
(``_lift_tables`` lists them with every map's orbit), the first lift of each
orbit meets the lifts, and the floors are closed under the target permutations
after (``core.permute_pairs``), a pass a round whose meets add nothing skips.
A row of meets is ``(bucket >> lo*F) & key*ONES``: the packed fresh lifts of an
indeterminate bucket from a representative's first partner on, ANDed with it
in every field.  The rows side by side are projected by one fold-and-gather
pass (``_fold_gather``): shift-ORs fold each block of |A|^v or |B|^v bits onto
its lowest bit, and log2 shift-and-mask steps gather those bits.  The steps
read above a field's last block, so the field width F has headroom, worked
out from (|A|, |B|, m, v): the narrowest whole-byte width at which no bit of
the fields above reaches a kept bit.  The projections, deduplicated in round
order, are checked against the floors (``_outside``); so are the S_m images,
member by member.  Only the flagged candidates go to ``_add``, in order, each
with the first meet in round order that has its projection as the witness.
Semi-naive rounds: an old orbit meets the fresh lifts, a fresh one itself and
those from its own orbit on, and only lifts sharing an indeterminate: with
disjoint ones the projection is the meet of two projections, members already.
Witnesses are recorded by ``_add`` as bit pairs for the pairs that enter and
decoded on first read.  ``lo_n_closure`` ORs floors over the subset lattice with
``core.subset_fold``, or else masks, per antecedent, the consequents present
with it and folds their up-interiors.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import sys
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    ArityMismatchError,
    Constraint,
    ConstraintSet,
    canonical_constraint,
    capped_arities,
    constraint_universe_count,
    coordinate_images,
    permute_pairs,
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
    """The closure, held as floors: ``constraints.floors(m)[r]`` is the least
    consequent of antecedent r, and the members are the (r, s) with s a superset
    of it.  ``entered[m]`` maps each bit pair that entered the fixpoint (a seed, a new
    minor candidate, a new floor) to its witness, and following witnesses
    always ends at seeds: ``("seed",)``, ``("relaxation", parent_pair)`` or
    ``("minor", v, sources)`` with sources ``(r, s, h, src_arity)``; a v = 0
    minor of one source through a permutation h is a floor's S_m image.
    ``witnesses`` decodes them for the tests and the bench's witness gate."""

    constraints: ConstraintSet
    converged: bool
    iterations: int
    entered: dict[int, dict[tuple[int, int], tuple]] = field(default_factory=dict, repr=False)

    @cached_property
    def witnesses(self) -> dict[Constraint, MinorWitness]:
        """Every member with its witness, decoded on first read: the witness it
        entered with, or else a relaxation of its antecedent's floor."""
        decode = self.constraints.decode
        out = {}
        for m, entered in self.entered.items():
            for pair in self.constraints.ranks(m):
                kind, *rest = entered.get(pair) or ("relaxation", (pair[0], self.constraints.floors(m)[pair[0]]))
                if kind == "minor":
                    v, sources = rest
                    family = tuple(decode(n, (r, s)) for r, s, _, n in sources)
                    wit = MinorWitness(kind, family, Scheme(m, v, tuple(h for _, _, h, _ in sources)))
                else:
                    wit = MinorWitness(kind, parent=rest[0] if rest else None)
                out[decode(m, pair)] = wit
        return out


def _add(floors: list[int], entered: dict[tuple[int, int], tuple], pair: tuple[int, int], m: int, witness: tuple) -> bool:
    """The one door into the floors: whether the member (r, s) is new.  A new one enters with ``witness``
    and ANDs s into the floor of every r' inside r: a new floor s is a relaxation of the pair, a new floor
    ``old & s`` the meet of (r', old) and the pair.  A pair whose floor holds it changes nothing."""
    r, s = pair
    if not floors[r] & ~s:
        return False
    entered[pair] = witness
    ident = tuple(range(m))
    for sub in submasks(r):
        old = floors[sub]
        if old & ~s:
            new = floors[sub] = old & s
            if (sub, new) != pair:
                meet = ("minor", 0, ((sub, old, ident, m), (r, s, ident, m)))
                entered[sub, new] = ("relaxation", pair) if new == s else meet
    return True


def _maximal(floors: list[int], width: int) -> list[tuple[int, int]]:
    """The maximal members: floors grow with the antecedent, so these are the
    (r, floor(r)) whose floor grows at every one-tuple-larger antecedent.  The floors lie
    side by side in one int, a field of whole bytes each.  Per tuple j, its XOR with the
    int 2^j fields on, shift-ORed down each field, sets field r's lowest bit where floor r
    differs from the one 2^j on, which counts at the r without j, where r + 2^j is r | 2^j:
    the same list as an ``all()`` per r."""
    count, size = len(floors), -(-max(floors).bit_length() // 8) or 1  # bytes per field
    packed, one = _pack(floors, size), b"\1" + bytes(size - 1)
    shifts = [min(1 << k, 8 * size - (1 << k)) for k in range((8 * size - 1).bit_length())]  # they sum to 8 * size - 1
    grows = int.from_bytes(one * count, "little")
    for j in range(width):
        differs = packed ^ packed >> (8 * size << j)
        for shift in shifts:
            differs |= differs >> shift
        grows &= differs | int.from_bytes((bytes(size << j) + one * (1 << j)) * (count >> j + 1), "little")
    return list(itertools.compress(enumerate(floors), grows.to_bytes(count * size, "little")[::size]))


def _fields(packed: int, count: int, size: int) -> list[int]:
    """The ``count`` fields of ``size`` bytes each of a packed int, lowest first."""
    data = packed.to_bytes(count * size, "little")
    if size in (1, 2, 4, 8) and sys.byteorder == "little":  # one array read
        return array("BHIQ"[size.bit_length() - 1], data).tolist()
    ends = range(size, len(data) + size, size)
    return list(map(int.from_bytes, map(data.__getitem__, map(slice, range(0, len(data), size), ends)), itertools.repeat("little")))


def _pack(values: list[int], size: int) -> int:
    """The inverse of ``_fields``: the values as fields of ``size`` bytes, the first lowest."""
    if size == 1:
        return int.from_bytes(bytes(values), "little")
    if size in (2, 4, 8) and sys.byteorder == "little":
        return int.from_bytes(array("HIQ"[size.bit_length() - 2], values), "little")
    return int.from_bytes(b"".join(map(int.to_bytes, values, itertools.repeat(size), itertools.repeat("little"))), "little")


@lru_cache(maxsize=64)
def _fold_gather(m: int, v: int, sa: int, sb: int) -> tuple[int, Callable[[int, int], int]]:
    """The field width, in bytes, of a round's packed lifts and meets, a << sb^(m+v) | b in each field, and
    the projection of ``count`` such fields at once to pa << sb^m | pb, pa and pb the projections of a and b.
    Per half (one where |A| = |B|, whose A blocks continue its B blocks), shift-ORs summing to size^v - 1 fold
    each block of size^v bits onto its lowest bit; a mask keeps those bits, and gather step t moves each odd
    group of 2^t of them down next to the even one before it, so ⌈log2 blocks⌉ steps set them side by side.
    The steps shift down, so a field's last groups read bits above it: past a power of two of blocks, as for
    the 18 of |A| = |B| = 3, m = 2, v = 1, they read the next field.  The width is the narrowest whole-byte
    one at which the fields above, all content bits set, reach no kept bit: the headroom the gather needs."""
    wb = sb ** (m + v)
    # per half: its bits in a field, its fold shifts, its blocks' lowest bits, its (shift, mask) gather steps, and
    # how far its projection moves down to its place; and per field width, the most fields projected yet with
    # those masks repeated over that many, read by every projection of no more fields: past count, fields are 0
    halves, wide = [], {}
    for offset, blocks, block, place in ([(0, 2 * sb**m, sb**v, 0)] if sa == sb else
                                         [(wb, sa**m, sa**v, sb**m), (0, sb**m, sb**v, 0)]):
        folds = [min(1 << k, block - (1 << k)) for k in range((block - 1).bit_length())]
        steps = [((block - 1) << t, sum(((1 << min(2 << t, blocks - j)) - 1) << offset + j * block for j in range(0, blocks, 2 << t)))
                 for t in range((blocks - 1).bit_length() if block > 1 else 0)]
        kept = sum(1 << offset + j * block for j in range(blocks))
        halves.append((((1 << blocks * block) - 1) << offset, folds, kept, steps, offset - place))

    def project(packed: int, count: int, size: int) -> int:
        if wide.get(size, (0,))[0] < count:
            ones = int.from_bytes((b"\1" + bytes(size - 1)) * count, "little")
            wide[size] = count, [(region * ones, folds, kept * ones, [(shift, mask * ones) for shift, mask in steps], down)
                                 for region, folds, kept, steps, down in halves]
        out = 0
        for region, folds, kept, steps, down in wide[size][1]:
            x = packed & region if len(halves) > 1 else packed
            for shift in folds:
                x |= x >> shift
            x &= kept
            for shift, mask in steps:
                x = (x | x >> shift) & mask
            out |= x >> down
        return out

    content, reach = sa ** (m + v) + wb, max(sum(folds) + sum(shift for shift, _ in steps) for _, folds, _, steps, _ in halves)
    size = -(-content // 8)
    while True:  # field 0 empty and the fields a bit can come down from full: a bit in its result leaked
        above = reach // (8 * size) + 2
        full = ((1 << content) - 1) * int.from_bytes(bytes(size) + (b"\1" + bytes(size - 1)) * above, "little")
        if not project(full, above + 1, size) & (1 << 8 * size) - 1:
            return size, partial(project, size=size)
        size += 1


@lru_cache(maxsize=32)
def _lift_tables(k: int, m: int, v: int, sa: int, sb: int) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """The maps h from k source coordinates to the m+v extended ones, in product order; per map, the
    indices of the maps g∘h for g permuting the m target and the v indeterminate coordinates (the maps
    equal where h is and targets where h is), ascending, and the mask of the indeterminates h reads, bit
    e - m for coordinate e >= m; the maps first in their orbits; and per 4-bit chunk c of a source pair
    r << 4⌈sb^k/4⌉ | s one table per nibble p: entry p packs, in field i of ``_fold_gather``'s width, the
    lift of p's bits through map i, the bitmask of the extended tuples (coordinate 1 most significant) whose
    reading through map i has rank 4c+j for a bit j of p, r's lifts over A above the sb^(m+v) bits of s's."""
    maps, size = tuple(itertools.product(range(m + v), repeat=k)), _fold_gather(m, v, sa, sb)[0]
    shapes = [tuple((e < m, h.index(e)) for e in h) for h in maps]
    orbits = {shape: tuple(i for i, other in enumerate(shapes) if other == shape) for shape in set(shapes)}
    columns = []
    for side, shift in ((sb, 0), (sa, sb ** (m + v))):
        tables = []
        for h in maps:
            pre = [0] * side**k
            for x, read in enumerate(readings(h, m + v, side)):
                pre[read] |= 1 << x + shift
            # the preimages of distinct ranks are disjoint, so a sum is their OR
            tables.append([reduce(lambda table, bit: table + [t + bit for t in table], pre[c : c + 4], [0])
                           for c in range(0, len(pre), 4)])
        columns += [tuple(_pack(entry, size) for entry in zip(*chunk)) for chunk in zip(*tables)]
    masks = tuple(sum(1 << e for e in set(h)) >> m for h in maps)
    firsts = tuple(i for i, shape in enumerate(shapes) if orbits[shape][0] == i)
    return maps, tuple(map(orbits.__getitem__, shapes)), masks, firsts, tuple(columns)


def _outside(floors: list[int], antecedents: list[int], consequents: list[int]) -> list[int]:
    """The indices i where (antecedents[i], consequents[i]) is not a member: its floor has a bit outside the
    consequent, one pass over the lists.  Floors only shrink, so a candidate left out stays a member after any add."""
    return list(itertools.compress(itertools.count(), map(operator.and_, map(floors.__getitem__, antecedents),
                                                          map(operator.invert, consequents))))


def _closure_fixpoint(t: ConstraintSet, targets: list[int], bounds: CmBounds, budget: int) -> CmResult:
    """Shared engine for cm_m (single arity) and cm (cross-arity, capped).

    Each target arity starts from the floor B^m at every antecedent and takes
    the members of t, or the (r, floor(r)) of an arity t holds as floors, and
    the equality and empty constraints as seeds; sources
    for the minor moves are the maximal members of every target arity.  The
    result's constraints are held as the floors.
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
        seeds = [canonical_constraint(kind, m, dom, cod) for kind in ("equality", "empty")]
        eq, empty = [(c.antecedent.bits, c.consequent.bits) for c in seeds]
        floors[m] = [full_b] * (full_a + 1)
        # (A^m, B^m) is the tight minor of the equality seed through a constant map
        entered[m] = dict.fromkeys([(r, full_b) for r in range(full_a)], ("relaxation", (full_a, full_b)))
        entered[m][full_a, full_b] = ("minor", 0, ((*eq, (0,) * m, m),))
        for pair in [*t.generators(m), eq, empty]:
            entered[m][pair] = ("seed",)  # a seed its floor already holds keeps its witness too
            _add(floors[m], entered[m], pair, m, ("seed",))
    previous: dict[int, set[int]] = {m: set() for m in targets}  # per target arity, the last round's packed lifts
    converged = False
    iteration = 0
    for iteration in range(1, bounds.max_iterations + 1):
        changed = False
        maximals = {m: _maximal(floors[m], sa**m) for m in targets}
        for m in targets:
            size, project = _fold_gather(m, v, sa, sb)
            field = (1 << 8 * size) - 1
            # packed lift (antecedent << sb^(m+v) | consequent) -> (a source giving it, the indeterminates its map reads)
            lifts: dict[int, tuple[tuple[int, int, tuple[int, ...], int], int]] = {}
            reps = []  # the first lift of each orbit
            for src_arity in targets:
                maps, orbits, masks, firsts, columns = _lift_tables(src_arity, m, v, sa, sb)
                ident = maps.index(tuple(range(src_arity))) * 8 * size if src_arity <= m + v else None  # its field's offset
                above = 4 * -(-sb**src_arity // 4)  # where r starts in the source pair the columns read
                for r, s in maximals[src_arity]:
                    pair = r << above | s
                    summed = sum(column[pair >> 4 * c & 15] for c, column in enumerate(columns))
                    # every lift of (r, s) reads its identity lift through a map of the m+v coordinates: one held, all held
                    if ident is not None and summed >> ident & field in lifts:
                        continue
                    keys = _fields(summed, len(maps), size)
                    for i in firsts:  # the held lifts are closed under g: an orbit's first lift held, the orbit is held
                        if keys[i] not in lifts:
                            reps.append(keys[i])
                            for j in orbits[i]:
                                lifts[keys[j]] = (r, s, maps[j], src_arity), masks[j]
            old, previous[m] = previous[m], set(lifts)
            fresh = list(itertools.filterfalse(old.__contains__, lifts))
            at = dict(zip(fresh, itertools.count()))
            # indeterminate mask -> the fresh lifts with it and their positions in fresh, and -> those lifts as fields
            buckets: dict[int, tuple[list[int], list[int]]] = {}
            for i, key in enumerate(fresh):
                keys, positions = buckets.setdefault(lifts[key][1], ([], []))
                keys.append(key)
                positions.append(i)
            packed = {mask: _pack(keys, size) for mask, (keys, _) in buckets.items()}
            # the round's meets, row by row as (left lift, right lifts, first right, the rights packed): an old orbit met
            # the old lifts last round, so it meets the fresh ones; a fresh orbit meets itself and the fresh lifts from its
            # own orbit on, as the fresh orbits before it met it; both only across a shared indeterminate
            rows = []
            for key in reps:
                if key in at and not lifts[key][1]:
                    rows.append((key, [key], 0, key))
                for mask, (keys, positions) in buckets.items():
                    if mask & lifts[key][1] and (lo := bisect.bisect_left(positions, at.get(key, 0))) < len(keys):
                        rows.append((key, keys, lo, packed[mask]))
            starts = list(itertools.accumulate((len(keys) - lo for _, keys, lo, _ in rows), initial=0))
            within_budget(starts[-1], budget, f"meets of a round at arity {m}")
            ones = int.from_bytes((b"\1" + bytes(size - 1)) * len(fresh), "little")
            # row i is its rights, from the first on, ANDed with its left in every field; the rows side by side project at once
            meets = b"".join((rights >> 8 * size * lo & key * ones).to_bytes((len(keys) - lo) * size, "little")
                             for key, keys, lo, rights in rows)
            projections = _fields(project(int.from_bytes(meets, "little"), starts[-1]), starts[-1], size)
            new = list(dict.fromkeys(projections))
            pa = list(map(operator.rshift, new, itertools.repeat(sb**m)))
            pb = list(map(operator.and_, new, itertools.repeat((1 << sb**m) - 1)))
            floor, added = floors[m], False
            # projection -> its first index in the round, built where a pair is outside the floors: its first meet enters
            outside = _outside(floor, pa, pb)
            first = dict(zip(reversed(projections), itertools.count(len(projections) - 1, -1))) if outside else {}
            for i in outside:
                row = bisect.bisect_right(starts, first[new[i]]) - 1
                key, keys, lo, _ = rows[row]
                other = keys[lo + first[new[i]] - starts[row]]
                sources = (lifts[key][0],) if other == key else (lifts[key][0], lifts[other][0])
                added |= _add(floor, entered[m], (pa[i], pb[i]), m, ("minor", v, sources))
            changed |= added
            # the pairs met the orbits through one lift each, so add the S_m images of the maximal members (round 1, or a
            # meet added), member by member
            images = coordinate_images(m, sa, sb)
            members = _maximal(floor, sa**m) if (added or iteration == 1) and images else []
            images_a, images_b = permute_pairs(images, members)
            for i in _outside(floor, images_a, images_b):
                (r, s), (q, *_) = members[i // len(images)], images[i % len(images)]
                changed |= _add(floor, entered[m], (images_a[i], images_b[i]), m, ("minor", 0, ((r, s, q, m),)))
        if not changed:
            converged = True
            break
    constraints = reduce(operator.or_, (ConstraintSet.from_floors(dom, cod, m, floors[m]) for m in targets))
    return CmResult(constraints, converged, iteration, entered)


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
    test reads only those with at most n, so one pass is the least fixpoint,
    and an arity m with n >= |A|^m comes back as it came, at any budget.  On
    floors, a larger r gains the consequents above the OR g(r) of the floors of
    its subsets of at most n tuples, one ``core.subset_fold``, and has a floor
    if floor(r) and g(r) are comparable.  Otherwise the pair pass runs:
    ``rows[r]`` masks the consequents present with antecedent r.
    ``inner[r]`` is its up-interior for |r| <= n (the consequents all of whose
    supersets are present, one shift-and-mask pass per consequent tuple) and
    all consequents otherwise; a larger r gains the consequents it lacks in
    the AND of ``inner`` over its subsets, one ``core.subset_fold``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dom, cod = t.dom, t.cod
    held, pairs_out = [], {}  # the arities that keep their form, as sets, and the pairs of the others
    for m in t.arities():
        floors = t.floors(m)
        if n >= dom.size**m:  # no antecedent has more than n tuples, so nothing is added and no universe is read
            held.append(ConstraintSet.from_floors(dom, cod, m, floors) if floors else ConstraintSet(dom, cod, {m: t.ranks(m)}))
            continue
        within_budget(constraint_universe_count(dom, cod, m), budget, f"constraints of arity {m}")
        n_ante, width = 1 << dom.size**m, cod.size**m
        if floors:
            # g(r) for |r| <= n is above floor(r), one of the subsets it ORs, so f & g is f there
            grown = subset_fold([f if r.bit_count() <= n else 0 for r, f in enumerate(floors)], operator.or_)
            meets = tuple(map(operator.and_, floors, grown))
            # floor(r) and g(r) comparable at every r, else some r has two least consequents
            if all(map(operator.or_, map(operator.eq, meets, floors), map(operator.eq, meets, grown))):
                held.append(ConstraintSet.from_floors(dom, cod, m, meets))
                continue
        pairs = t.ranks(m)
        rows = [0] * n_ante
        for r, s in pairs:
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
        pairs_out[m] = pairs.union(added)
    return reduce(operator.or_, held, ConstraintSet(dom, cod, pairs_out))


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
