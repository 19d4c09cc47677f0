"""Class composition, images, the satisfaction relation, and the Galois maps.

``fsc_n`` and ``csf_m`` realize the two directions of the correspondence at
fixed arities.  Both work on classes as bitmasks over table ranks with the
column table of ``core.column_masks``: ``fsc_n`` ANDs, per signature of each
constraint, an OR of column minterms, and ``csf_m`` reads each probe's
achievable output tuples off ANDs of the class mask with column minterms.
It reads each point's last value by difference and, where the shape's byte
tables stay small, walks one probe per S_m orbit and fills the rest from them.
``probe_groups`` ORs the probe masks by cross-row set, and
``_minimal_consequents`` ORs the groups into S_min(R), the least consequent
over R, by one recurrence: its full table is the floors of ``csf_m``, its
antecedents of at most n tuples the separators of ``fsc_n_of_csf_m``.
``cm_m_oracle`` is the twin composite csf_m(fsc_n(T)) at n = |A|^m, the Galois
route to the m-ary minor closure that ``constraint_closures.cm_m_closure`` is
checked against; this module imports nothing from the closure side.
``satisfies``, ``image`` and ``minimal_consequent`` evaluate one table at a
time and serve as the scalar reference, sharing no code with these kernels.
``trace_constraint`` builds the canonical separating constraint whose
antecedent lists chosen columns and whose consequent collects the class's
values on them.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    ArityMismatchError,
    Constraint,
    ConstraintSet,
    DomainMismatchError,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    Relation,
    capped_arities,
    column_masks,
    constraint_universe_count,
    function_count,
    permutation_tables,
    permute,
    projection,
    ranks_of_mask,
    readings,
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


def preserves(f: FunctionTable, r: Relation) -> bool:
    """The A=B specialization: f preserves R iff f satisfies (R, R)."""
    if f.dom != f.cod:
        raise DomainMismatchError("preservation needs dom = cod")
    return satisfies(f, Constraint(r, r))


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


@lru_cache(maxsize=256)
def _signatures(size: int, m: int, r_bits: int, n: int) -> frozenset[tuple[int, ...]]:
    """Distinct evaluation signatures of an n-ary function against the m-ary
    antecedent of rank mask r_bits over a domain of the given size.

    Each signature is the m argument-point ranks produced by one choice of n
    antecedent rows; a function satisfies (R, S) iff every signature's output
    tuple lands in S.
    """
    rows = list(ranks_of_mask(r_bits))
    by_coordinate = []
    for i in range(m):
        weight = size ** (m - 1 - i)
        entries = [row // weight % size for row in rows]
        points = [0]
        for _ in range(n):  # every choice of n rows, in itertools.product order
            points = [p * size + e for p in points for e in entries]
        by_coordinate.append(points)
    return frozenset(zip(*by_coordinate))


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
    result is removed from the class.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    count = within_budget(function_count(t.dom, t.cod, n), budget, f"fsc_{n} candidate functions")
    # only antecedents wider than n count: the others have at most n^n row choices each
    sizes = [r.bit_count() for m in t.arities() for r, _ in t.ranks(m)]
    within_budget(sum(size**n for size in sizes if size > n), budget, f"fsc_{n} row choices")
    cols = column_masks(t.dom, t.cod, n)
    kept = (1 << count) - 1
    for m in t.arities():
        value_tuples = list(itertools.product(range(t.cod.size), repeat=m))  # in rank order
        outside_all = (1 << len(value_tuples)) - 1
        for r_bits, cons in t.ranks(m):
            banned = 2 * cons.bit_count() > len(value_tuples)
            values = [value_tuples[s] for s in ranks_of_mask(outside_all & ~cons if banned else cons)]
            for sig in _signatures(t.dom.size, m, r_bits, n):
                hits = 0
                for s in values:
                    mask = kept
                    for q, v in zip(sig, s):
                        mask &= cols[q][v]
                    hits |= mask
                kept = kept ^ hits if banned else hits
    return FunctionClass.from_masks(t.dom, t.cod, {n: kept})


def fsc(t: ConstraintSet, cap: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> FunctionClass:
    """Union of fsc_n over n = 1..cap, one kernel mask per arity."""
    masks = {n: fsc_n(t, n, budget).mask(n) for n in capped_arities(cap)}
    return FunctionClass.from_masks(t.dom, t.cod, masks)


@lru_cache(maxsize=32)
def _orbit_plan(size: int, n: int, m: int, cod_size: int) -> tuple[list[int], list | None]:
    """Per m-point probe of the n-ary tables: its cross-row set as a rank mask
    over A^m, and the fill: its representative's rank (points sorted) and the
    ``core.permutation_tables`` taking the representative's value-tuple mask to
    the probe's, or None at a representative.  No fill at m = 1 or where m!
    permutations' tables pass 64 chunks of 256."""
    points = size**n
    keys = [0] * points**m
    for j in range(n):  # the probe as n*m base-|A| digits: cross-row j reads digits j, j+n, ..
        rows = readings(tuple(range(j, n * m, n)), n * m, size)
        keys = [r | 1 << row for r, row in zip(keys, rows)]
    if m == 1 or math.factorial(m) * -(-(cod_size**m) // 8) > 64:  # m = 1 has nothing to fill
        return keys, None
    fill = []
    for q in range(points**m):
        probe = tuple_unrank(q, points, m)
        order = tuple(sorted(range(m), key=probe.__getitem__))  # representative point j is probe[order[j]]
        rep = tuple_rank([probe[i] for i in order], points)
        # the probe's value tuples are the representative's through the tight minor of order
        fill.append((rep, permutation_tables(order, cod_size) if rep != q else None))
    return keys, fill


def _probe_masks(k: FunctionClass, n: int, m: int, budget: int) -> list[int]:
    """The achievable output-tuple masks of k's arity-n part at every m-point probe.

    Entry ``q`` is a bitmask over cod^m ranks: the value tuples some member of
    the class takes at the m argument points encoded in the probe rank ``q``
    (base |A|^n digits, first point most significant).  Bit s is set iff the
    class mask meets ``AND_i col[q_i][s_i]``.  The walk shares a prefix's
    ANDs; at each point the last value's hit is the sub-class minus the other
    values' hits.  With a fill from ``_orbit_plan`` it visits only the probes
    with non-decreasing points, one per S_m orbit, and the fill's byte tables
    give the rest; otherwise it visits every probe.  Above the budget the
    column table is built over the members.
    """
    points, cod_size, last = k.dom.size**n, k.cod.size, k.cod.size - 1
    fill = _orbit_plan(k.dom.size, n, m, cod_size)[1]
    if function_count(k.dom, k.cod, n) > budget:
        members = [tuple_unrank(rank, cod_size, points) for rank in k.ranks(n)]  # one bit each, in every column
        marks = [{x: 48 + (x == v) for x in range(cod_size)} for v in range(cod_size)]  # "1" where a digit is v
        columns = ("".join(map(chr, column)) for column in zip(*members))
        cols = [[int(column.translate(mark), 2) for mark in marks] for column in columns]
        class_mask = (1 << len(members)) - 1
    else:
        cols, class_mask = column_masks(k.dom, k.cod, n), k.mask(n)
    masks = [0] * points**m

    def walk(depth: int, start: int, q: int, s: int, within: int) -> None:
        for p in range(start, points):
            bits = acc = 0
            for v, col in zip(range(last), cols[p]):
                hit = within & col
                if hit:
                    acc = acc | hit if acc else hit
                    bits |= 1 << v
                    if depth > 1:
                        walk(depth - 1, p if fill else 0, q * points + p, s * cod_size + v, hit)
            if acc != within:  # the last value, read by difference
                bits |= 1 << last
                if depth > 1:
                    walk(depth - 1, p if fill else 0, q * points + p, s * cod_size + last, within ^ acc)
            if depth == 1:
                masks[q * points + p] |= bits << s * cod_size

    walk(m, 0, 0, 0, class_mask)
    if fill is None:
        return masks
    return [masks[rep] if tables is None else permute(tables, masks[rep]) for rep, tables in fill]


def probe_groups(k: FunctionClass, m: int, budget: int) -> dict[int, int]:
    """The probe masks of every arity of k, ORed by cross-row set: key r (a rank
    mask over A^m) collects the probes whose cross-rows are the members of r."""
    groups: dict[int, int] = {}
    for n in k.arities():
        for r, mask in zip(_orbit_plan(k.dom.size, n, m, k.cod.size)[0], _probe_masks(k, n, m, budget)):
            groups[r] = groups.get(r, 0) | mask
    return groups


def _minimal_consequents(k: FunctionClass, m: int, n: int, budget: int) -> dict[int, int]:
    """S_min(R) for every antecedent R over A^m of at most n tuples, by size and
    then in ``itertools.combinations`` order, as rank masks: the probe group of
    R ORed with S_min of R less each of its tuples."""
    universe = k.dom.size**m
    within_budget(sum(math.comb(universe, j) for j in range(n + 1)), budget, "separating constraints")
    # an arity a walks (|A|^m)^a probes, within n! of the separator count if a <= n
    within_budget(sum(universe**a for a in k.arities() if a > n), budget, "probes")
    groups, bits = probe_groups(k, m, budget), [1 << row for row in range(universe)]
    floors: dict[int, int] = {}
    for j in range(n + 1):
        for rows in itertools.combinations(bits, j):
            r = sum(rows)
            floor = groups.get(r, 0)
            for row in rows:
                floor |= floors[r ^ row]
            floors[r] = floor
    return floors


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
    floors = _minimal_consequents(k, m, k.dom.size**m, budget)
    return ConstraintSet.from_floors(k.dom, k.cod, m, [floors[r] for r in range(1 << k.dom.size**m)])


def csf(k: FunctionClass, cap: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> ConstraintSet:
    """Union of csf_m over m = 1..cap."""
    out = ConstraintSet.empty(k.dom, k.cod)
    for m in capped_arities(cap):
        out = out | csf_m(k, m, budget)
    return out


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
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    # refuse before building the separators
    within_budget(function_count(k.dom, k.cod, n), budget, f"fsc_{n} candidate functions")
    return fsc_n(ConstraintSet(k.dom, k.cod, {m: _minimal_consequents(k, m, n, budget).items()}), n, budget)


def trace_constraint(k: FunctionClass, columns: list[tuple[int, ...]]) -> Constraint:
    """The separating constraint for n chosen columns a1..an in A^m.

    Antecedent {a1..an}; consequent = the values of the arity-n part of the
    class applied to the columns as a matrix.
    """
    if not columns:
        raise ValueError("need at least one column")
    m = len(columns[0])
    if any(len(c) != m for c in columns):
        raise ArityMismatchError("columns must share one arity")
    ante = Relation.from_tuples(k.dom, m, columns)
    cons_bits = 0
    for f in k.members(len(columns)):
        cons_bits |= 1 << tuple_rank(f.apply_pointwise(columns), k.cod.size)
    return Constraint(ante, Relation(k.cod, m, cons_bits))


def minimal_consequent(k: FunctionClass, r: Relation) -> Relation:
    """The smallest consequent S making (R, S) satisfied by every member of k."""
    bits = 0
    for f in k.tables():
        bits |= image(f, r).bits
    return Relation(k.cod, r.arity, bits)
