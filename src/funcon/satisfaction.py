"""Class composition, images, the satisfaction relation, and the Galois maps.

``fsc_n`` and ``csf_m`` realize the two directions of the correspondence at
fixed arities.  Both work on classes as bitmasks over table ranks: ``fsc_n``
ANDs, per signature of each constraint, an OR of the column minterms of
``core.column_masks``.  ``csf_m`` splits the class point by point at each probe.
Where the shape's byte tables stay small, it walks one probe per S_m orbit, a
class mask splits into the |B| slices of each point's table digit, a last-point
sub-class of every table over the later digits gives them every value unsplit,
and a class that is the box of its points' value sets fills every probe from
those sets unwalked; elsewhere it walks every probe and ANDs column minterms.
``probe_groups`` ORs the walked probes' masks into a list indexed by cross-row
set and moves its nonzero entries through ``core.coordinate_images``;
``_minimal_consequents`` hands the list to ``core.subset_fold``, which folds it
into S_min(R), the least consequent over R, for every R: the floors of ``csf_m``.
``_orbit_probes``, one shape's plan, sorts the probes of one R per S_m orbit
(``core.orbit_antecedents``) for ``_orbit_separators``' walk, and keeps per R those of
the row choices onto R: ``fsc_n_of_csf_m`` reads each separator there alone.
``cm_m_oracle`` is the twin composite csf_m(fsc_n(T)) at n = |A|^m, the Galois
route to the m-ary minor closure that ``constraint_closures.cm_m_closure`` is
checked against; this module imports nothing from the closure side.
``satisfies``, ``image`` and ``minimal_consequent`` evaluate one table at a
time and serve as the scalar reference, sharing no code with these kernels;
the bench's tracer times ``satisfies`` and ``minimal_consequent``.
``compose_classes`` and ``projections_class``, the clone of ``core.projection``,
are the composition reference that ``function_closures.vs_closure``, the class
composed with the projection clone, is tested against.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from functools import lru_cache, partial, reduce
from typing import Callable, Collection, Iterator

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    Constraint,
    ConstraintSet,
    DomainMismatchError,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    Relation,
    burnside_orbit_counts,
    capped_arities,
    column_masks,
    constraint_universe_count,
    coordinate_images,
    function_count,
    orbit_antecedents,
    permute_pairs,
    projection,
    ranks_of_mask,
    readings,
    subset_fold,
    tuple_rank,
    tuple_unrank,
    within_budget,
)


def image(f: FunctionTable, r: Relation) -> Relation:
    """The coordinatewise image of R under f: {f(a1..an) : a1..an in R}."""
    if f.dom != r.domain:
        raise DomainMismatchError(f"function on {f.dom.name!r} applied to relation over {r.domain.name!r}")
    out_bits = 0
    cod_size = f.cod.size
    for choice in itertools.product(r.tuples(), repeat=f.arity):
        out_bits |= 1 << tuple_rank(f.apply_pointwise(choice), cod_size)
    return Relation(f.cod, r.arity, out_bits)


def satisfies(f: FunctionTable, c: Constraint) -> bool:
    """True iff the image of the antecedent under f lies inside the consequent.

    Iterates row choices drawn from the antecedent only, short-circuiting on
    the first violation.
    """
    if f.dom != c.dom or f.cod != c.cod:
        raise DomainMismatchError(
            f"function {f.dom.name!r}->{f.cod.name!r} against constraint "
            f"{c.dom.name!r}-to-{c.cod.name!r}"
        )
    cons, cod_size = c.consequent.bits, f.cod.size
    return all(
        cons >> tuple_rank(f.apply_pointwise(choice), cod_size) & 1
        for choice in itertools.product(c.antecedent.tuples(), repeat=f.arity)
    )


def compose_classes(outer: FunctionClass, inner: FunctionClass, cap: int) -> FunctionClass:
    """All f(g1..gn) with f in outer and g1..gn same-arity members of inner."""
    if inner.cod != outer.dom:
        raise DomainMismatchError(
            f"inner codomain {inner.cod.name!r} does not match outer domain {outer.dom.name!r}"
        )
    caps = capped_arities(cap)
    arities = [m for m in inner.arities() if m in caps]
    dom = inner.dom
    result: set[FunctionTable] = set()
    for n in outer.arities():
        for f in outer.members(n):
            for m in arities:
                inner_m = sorted(inner.members(m), key=lambda g: g.table)
                for gs in itertools.product(inner_m, repeat=n):
                    table = f.apply_pointwise([g.table for g in gs])
                    result.add(FunctionTable(dom, f.cod, m, table))
    return FunctionClass.from_tables(dom, outer.cod, result)


def projections_class(dom: DomainSpec, cap: int) -> FunctionClass:
    """The projection clone over dom, materialized at arities 1..cap."""
    return FunctionClass.from_tables(
        dom, dom, (projection(dom, n, i) for n in capped_arities(cap) for i in range(1, n + 1))
    )


def _row_choices(size: int, n: int, m: int, rows: list[int]) -> Iterator[tuple[int, ...]]:
    """Per choice of n of the rows (ranks over A^m), in ``itertools.product`` order, its signature: the m argument
    points an n-ary function reads there.  It satisfies (R, S) iff its output at every signature of R lies in S."""
    by_coordinate = []
    for i in range(m):
        weight = size ** (m - 1 - i)
        entries = [row // weight % size for row in rows]
        points = [0]
        for _ in range(n):  # every choice of n rows, in itertools.product order
            points = [p * size + e for p in points for e in entries]
        by_coordinate.append(points)
    return zip(*by_coordinate)


@lru_cache(maxsize=2048)
def _signatures(size: int, n: int, m: int, r_bits: int) -> frozenset[tuple[int, ...]]:
    """The distinct ``_row_choices`` of the antecedent of rank mask r_bits: what ``fsc_n`` reads of it."""
    return frozenset(_row_choices(size, n, m, list(ranks_of_mask(r_bits))))


def fsc_n(
    t: ConstraintSet,
    n: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> FunctionClass:
    """All n-ary functions satisfying every member of t.

    The class is computed as a bitmask over table ranks: an AND over every
    signature of every constraint of an OR over consequent tuples s of the
    column masks ``col[q_i][s_i]`` ANDed along the signature.  When fewer
    tuples lie outside the consequent, the OR runs over those instead and its
    result is removed from the class.  Satisfaction is upward closed in the
    consequent, so an arity held as floors is read as its (r, floor(r)).
    """
    return _fsc_n(t, n, budget, partial(_signatures, t.dom.size, n))


def _fsc_n(t: ConstraintSet, n: int, budget: int, signatures: Callable[[int, int], Collection]) -> FunctionClass:
    """``fsc_n``, reading each (R, S) of arity m at the probes ``signatures(m, R)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    count = within_budget(function_count(t.dom, t.cod, n), budget, f"fsc_{n} candidate functions")
    pairs = {m: t.generators(m) for m in t.arities()}
    within_budget(sum(r.bit_count() ** n for members in pairs.values() for r, _ in members), budget, f"fsc_{n} row choices")
    cols = column_masks(t.dom, t.cod, n)
    kept = (1 << count) - 1
    for m, members in pairs.items():
        value_tuples = list(itertools.product(range(t.cod.size), repeat=m))  # in rank order
        outside_all = (1 << len(value_tuples)) - 1
        for r_bits, cons in [(r, s) for r, s in members if s != outside_all]:  # every function satisfies (R, B^m)
            banned = 2 * cons.bit_count() > len(value_tuples)
            values = [value_tuples[s] for s in ranks_of_mask(outside_all & ~cons if banned else cons)]
            for sig in signatures(m, r_bits):
                hits = 0
                for s in values:
                    mask = kept
                    for q, v in zip(sig, s):
                        mask &= cols[q][v]
                    hits |= mask
                kept = kept ^ hits if banned else hits
    return FunctionClass.from_masks(t.dom, t.cod, {n: kept})


def fsc(t: ConstraintSet, cap: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> FunctionClass:
    """Union of fsc_n over n = 1..cap, each arity held as its kernel mask."""
    return reduce(operator.or_, (fsc_n(t, n, budget) for n in capped_arities(cap)))


@lru_cache(maxsize=32)
def _orbit_plan(size: int, n: int, m: int, cod_size: int, sliced: bool) -> tuple[list[int], tuple | None, list | None]:
    """Per m-point probe of the n-ary tables, its cross-row set as a rank mask
    over A^m; the images: ``core.coordinate_images``, which move a probe's key
    and mask to the probe with its points permuted, or None where m!
    permutations' B tables pass 64 chunks of 256 (the A tables hold the |A|^m
    bits that ``csf_m``'s universe guard bounds); and with images, where the
    caller holds the class as a mask (``sliced``), the digit slices of that
    mask: per point p and value v, the shift v*w and the mask 2^w - 1 of weight
    w = |B|^(|A|^n-1-p)."""
    points = size**n
    keys = [0] * points**m
    for j in range(n):  # the probe as n*m base-|A| digits: cross-row j reads digits j, j+n, ..
        rows = readings(tuple(range(j, n * m, n)), n * m, size)
        keys = [r | 1 << row for r, row in zip(keys, rows)]
    if math.factorial(m) * -(-(cod_size**m) // 8) > 64:
        return keys, None, None
    images = coordinate_images(m, size, cod_size)
    if not sliced:
        return keys, images, None
    weights = (cod_size ** (points - 1 - p) for p in range(points))  # point 0's digit is the most significant
    return keys, images, [[(v * w, (1 << w) - 1) for v in range(cod_size)] for w in weights]


def _columns(k: FunctionClass, n: int, budget: int) -> tuple[list, int]:
    """k's arity-n column table and class mask, over the members where the table universe exceeds the budget."""
    if function_count(k.dom, k.cod, n) <= budget:
        return column_masks(k.dom, k.cod, n), k.mask(n)
    members = [tuple_unrank(rank, k.cod.size, k.dom.size**n) for rank in k.ranks(n)]  # one bit each, in every column
    marks = [{x: 48 + (x == v) for x in range(k.cod.size)} for v in range(k.cod.size)]  # "1" where a digit is v
    columns = ("".join(map(chr, column)) for column in zip(*members))
    return [[int(column.translate(mark), 2) for mark in marks] for column in columns], (1 << len(members)) - 1


def _probe_masks(k: FunctionClass, n: int, m: int, budget: int) -> list[int]:
    """The achievable output-tuple masks of k's arity-n part at the m-point probes it walks.

    Entry ``q`` is a bitmask over cod^m ranks: the value tuples some member of
    the class takes at the m argument points encoded in the probe rank ``q``
    (base |A|^n digits, first point most significant).  The walk shares a
    prefix's splits: at point p, value v's sub-class is ``within >> shift & mask``
    and the OR of the sub-classes walks on to point p + 1.  With images from
    ``_orbit_plan`` it visits only the probes with non-decreasing points, one
    per S_m orbit (a repeat of p reads v, and v's sub-class walks on from
    p + 1), and leaves the other entries 0.  There a class mask splits into the
    |B| slices of p's digit, of weight w = |B|^(|A|^n-1-p), shift v*w and mask
    2^w - 1, and a last-point sub-class of every table over the later digits
    gives each of them every value.  First the depth-1 walk at the root leaves
    V_p, point p's values, at entry p: the masks at m = 1.  A class of
    prod |V_p| members is the box of the tables with f(p) in V_p, and ``fill``
    gives each walked probe, unwalked, the product of its points' V_p, a
    repeated point reading one value.  Otherwise it visits every probe and ANDs
    the columns of ``_columns``.
    """
    points, cod_size = k.dom.size**n, k.cod.size
    _, images, splits = _orbit_plan(k.dom.size, n, m, cod_size, function_count(k.dom, k.cod, n) <= budget)
    if sliced := splits is not None:
        class_mask = k.mask(n)
    else:
        cols, class_mask = _columns(k, n, budget)
        splits = [[(0, col) for col in row] for row in cols]
    # and per prefix value mask s of ``fill``, s's tuples each followed by a free value and each by its last one
    masks, every, known = [0] * points**m, (1 << cod_size) - 1, {}

    def walk(depth: int, start: int, q: int, s: int, within: int) -> None:
        for p in range(start, points):
            if sliced and depth == 1 and within.bit_count() == cod_size ** (points - p):  # every table over digits p on
                tail = slice(q * points + p, (q + 1) * points)
                masks[tail] = [mask | every << s * cod_size for mask in masks[tail]]
                return
            rest = bits = 0
            for v, (shift, mask) in enumerate(splits[p]):
                part = within >> shift & mask if shift else within & mask  # a shift by 0 copies within
                if part:
                    rest |= part
                    bits |= 1 << v
                    if depth == 1:
                        continue
                    if images is None:
                        walk(depth - 1, 0, q * points + p, s * cod_size + v, part)
                    else:  # the probes repeating p read v there, and walk on from p + 1 in part
                        t, u = q, s
                        for d in range(depth - 1, 0, -1):
                            t, u = t * points + p, u * cod_size + v
                            walk(d, p + 1, t, u, part)
                        masks[t * points + p] |= 1 << u * cod_size + v
            if depth == 1:
                masks[q * points + p] |= bits << s * cod_size
            within = rest

    def fill(depth: int, last: int, q: int, s: int) -> None:  # the box's probes past prefix q, of last point `last`
        if s not in known:
            tuples = [x for x in range(s.bit_length()) if s >> x & 1]
            known[s] = sum(1 << x * cod_size for x in tuples), sum(1 << x * cod_size + x % cod_size for x in tuples)
        spread, again = known[s]
        heads = [again, *map(spread.__mul__, sets[last + 1:])]  # at `last` its value again, at a later p one of V_p
        if depth == 1:
            masks[q * points + last:(q + 1) * points] = heads
        else:
            for p, head in enumerate(heads, last):
                fill(depth - 1, p, q * points + p, head)

    if sliced:  # the value pass
        walk(1, 0, 0, 0, class_mask)
        if m == 1:
            return masks
        sets = masks[:points]
        if class_mask.bit_count() == math.prod(map(int.bit_count, sets)):  # the class is the box of the V_p
            for p, v in enumerate(sets):
                fill(m - 1, p, p, v)
            return masks
        masks[:points] = [0] * points
    walk(m, 0, 0, 0, class_mask)
    return masks


def probe_groups(k: FunctionClass, m: int, budget: int, groups: list[int] | None = None) -> list[int] | dict[int, int]:
    """The probe masks of every arity of k, ORed by cross-row set into ``groups``, a list over every r, else a new
    dict of the nonzero ones: entry r (a rank mask over A^m) collects the probes whose cross-rows are the members
    of r.  The walked probes that reach a value enter; with images, the nonzero groups then enter again through
    each permutation, moved by ``core.permute_pairs`` once for every arity: every probe is an image of a walked
    one, and a permutation moves bits, so it commutes with the OR."""
    images, groups = None, collections.defaultdict(int) if groups is None else groups
    for n in k.arities():
        keys, images, _ = _orbit_plan(k.dom.size, n, m, k.cod.size, function_count(k.dom, k.cod, n) <= budget)
        masks = _probe_masks(k, n, m, budget)
        for r, mask in zip(itertools.compress(keys, masks), filter(None, masks)):
            groups[r] |= mask
    nonzero = [(r, mask) for r, mask in (enumerate(groups) if type(groups) is list else groups.items()) if mask]
    for r, mask in zip(*permute_pairs(images or (), nonzero)):
        groups[r] |= mask
    return groups


def _minimal_consequents(k: FunctionClass, m: int, budget: int) -> list[int]:
    """S_min(R) of every antecedent R over A^m, in rank order: the probe groups of R's subsets, ORed."""
    return subset_fold(probe_groups(k, m, budget, [0] * (1 << k.dom.size**m)), operator.or_)


@lru_cache(maxsize=32)
def _orbit_probes(size: int, m: int, n: int, a: int) -> tuple[tuple[tuple[int, tuple, tuple], ...], dict]:
    """The plan of the ``core.orbit_antecedents`` at arity a, from one pass over each R's ``_row_choices``:
    the distinct probes, sorted, as (the count of first points shared with the previous probe, the m points
    over A^a, the antecedents having it), and per R the probes of the choices that use every tuple of R."""
    having, onto = {}, {}
    for i, r in enumerate(orbit_antecedents(size, m, n)):
        choices = list(_row_choices(size, a, m, rows := list(ranks_of_mask(r))))
        onto[r] = frozenset(itertools.compress(choices, (len(set(c)) == len(rows) for c in itertools.product(rows, repeat=a))))
        for points in set(choices):
            having.setdefault(points, []).append(i)
    return tuple((next(itertools.compress(itertools.count(), map(operator.ne, before, points))), points, tuple(having[points]))
                 for before, points in itertools.pairwise([(-1,) * m, *sorted(having)])), onto


def _orbit_separators(k: FunctionClass, m: int, n: int, budget: int) -> list[tuple[int, int]]:
    """(R, S_min(R)) for each R of ``core.orbit_antecedents``, walking R's ``_orbit_probes`` at each arity of k
    on the columns of ``_columns``: a probe walks only the points it does not share with the one before."""
    within_budget(sum(math.comb(k.dom.size**j + m - 1, m) for j in range(n + 1)), budget, "separator antecedents")
    within_budget(max(k.dom.size, k.cod.size) ** m, budget, "separator mask width")  # R over A^m, S_min(R) over B^m
    orbits = burnside_orbit_counts(k.dom.size, m, n)  # per size j, the antecedents of j tuples, counted before listing
    within_budget(sum(count * j**a for j, count in enumerate(orbits) for a in k.arities()), budget, "separator probes")
    antecedents = orbit_antecedents(k.dom.size, m, n)
    floors = [0] * len(antecedents)
    for a in k.arities():
        cols, class_mask = _columns(k, a, budget)
        stack = [[(0, class_mask)]]  # per point walked: each value tuple so far with its sub-class
        for shared, points, indices in _orbit_probes(k.dom.size, m, n, a)[0]:
            del stack[shared + 1:]
            for p in points[shared:]:
                stack.append([(s * k.cod.size + v, hit) for s, within in stack[-1] for v, col in enumerate(cols[p])
                              if (hit := within & col)])
            reached = sum(1 << s for s, _ in stack[-1])
            for i in indices:
                floors[i] |= reached
    return list(zip(antecedents, floors))


def csf_m(
    k: FunctionClass,
    m: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ConstraintSet:
    """All m-ary constraints satisfied by every member of k.

    Every antecedent R is paired with each consequent containing S_min(R);
    the universe of 2^(|A|^m) * 2^(|B|^m) constraints and the probes of
    every arity must fit the budget.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    within_budget(constraint_universe_count(k.dom, k.cod, m), budget, f"csf_{m} universe constraints")
    within_budget(sum(k.dom.size ** (n * m) for n in k.arities()), budget, f"csf_{m} probes")
    return ConstraintSet.from_floors(k.dom, k.cod, m, _minimal_consequents(k, m, budget))


def csf(k: FunctionClass, cap: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> ConstraintSet:
    """Union of csf_m over m = 1..cap, each arity held as its floors."""
    return reduce(operator.or_, (csf_m(k, m, budget) for m in capped_arities(cap)))


def cm_m_oracle(
    t_m: ConstraintSet,
    m: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ConstraintSet:
    """Galois route to the m-ary minor closure.

    The composite csf_m(fsc_n(T_m)) at n = |A|^m equals the closure exactly:
    every m-ary antecedent has at most |A|^m tuples, so at that arity the
    antecedent-size-bounded local closure is the identity on m-ary sets.
    """
    n_star = t_m.dom.size**m
    return csf_m(fsc_n(t_m, n_star, budget), m, budget)


def fsc_n_of_csf_m(k: FunctionClass, n: int, m: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> FunctionClass:
    """The n-ary functions satisfying every m-ary constraint the class satisfies.

    Instead of materializing the m-ary constraint universe, this is fsc_n of
    the separators (R, S_min(R)) with R of at most n tuples.  A violation of
    any satisfied constraint always restricts to a violation of one of these.
    One R per S_m orbit will do: σ in S_m keeps satisfaction, and S_min(σR) = σ S_min(R).
    So each separator is read only at the row choices that use every tuple of R:
    a choice inside R' ⊊ R lands in S_min(R') ⊆ S_min(R), and R', of fewer
    tuples, has its orbit's separator in the list.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # refuse before building the separators, and read the plan at arity n, which enumerates every row choice, past fsc_n's guard
    within_budget(function_count(k.dom, k.cod, n), budget, f"fsc_{n} candidate functions")
    return _fsc_n(ConstraintSet(k.dom, k.cod, {m: _orbit_separators(k, m, n, budget)}), n, budget,
                  lambda _, r: _orbit_probes(k.dom.size, m, n, n)[1][r])


def minimal_consequent(k: FunctionClass, r: Relation) -> Relation:
    """The smallest consequent S making (R, S) satisfied by every member of k."""
    bits = 0
    for f in k.tables():
        bits |= image(f, r).bits
    return Relation(k.cod, r.arity, bits)
