"""Class composition, images, the satisfaction relation, and the Galois maps.

``fsc_n`` and ``csf_m`` realize the two directions of the correspondence at
fixed arities.  Both work on classes as bitmasks over table ranks with the
column table of ``core.column_masks``: ``fsc_n`` ANDs, per signature of each
constraint, an OR of column minterms, and ``csf_m`` reads each probe's
achievable output tuples off ANDs of the class mask with column minterms.
``probe_groups`` ORs the probe masks by cross-row set, read off
``core.readings``; ``csf_m`` and the separators of ``lab.fsc_n_of_csf_m`` share
it.  ``cm_m_oracle`` is the composite csf_m(fsc_n(T)) at n = |A|^m, the Galois
route to the m-ary minor closure that ``constraint_closures.cm_m_closure`` is
checked against; this module imports nothing from the closure side.
``satisfies``, ``image`` and ``minimal_consequent`` evaluate one table at
a time and serve as the scalar reference, sharing no code with these kernels.
``trace_constraint`` builds the canonical separating constraint whose
antecedent lists chosen columns and whose consequent collects the class's
values on them.
"""

from __future__ import annotations

import itertools
import operator
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


def _probe_masks(k: FunctionClass, n: int, m: int, budget: int) -> list[int]:
    """The achievable output-tuple masks of k's arity-n part at every m-point probe.

    Entry ``q`` is a bitmask over cod^m ranks: the value tuples some member of
    the class takes at the m argument points encoded in the probe rank ``q``
    (base |A|^n digits, first point most significant).  Bit s is set iff the
    class mask meets ``AND_i col[q_i][s_i]``; probes sharing a prefix share
    its partial ANDs.  Arities whose table universe exceeds the budget have
    no column table, so their members are evaluated one by one instead.
    """
    points = k.dom.size**n
    cod_size = k.cod.size
    masks = [0] * points**m
    if function_count(k.dom, k.cod, n) > budget:
        probes = [tuple_unrank(q, points, m) for q in range(points**m)]
        # max distinct value tuples at a probe = |B| ** (number of distinct points)
        limits = [cod_size ** len(set(probe)) for probe in probes]
        active = range(points**m)
        for rank in k.ranks(n):
            table = tuple_unrank(rank, cod_size, points)
            still = []
            for q in active:
                masks[q] |= 1 << tuple_rank([table[p] for p in probes[q]], cod_size)
                if masks[q].bit_count() < limits[q]:
                    still.append(q)
            active = still
            if not active:
                break
        return masks
    cols = column_masks(k.dom, k.cod, n)

    def walk(depth: int, q: int, s: int, within: int) -> None:
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


def probe_groups(k: FunctionClass, m: int, budget: int) -> dict[int, int]:
    """The probe masks of every arity of k, ORed by cross-row set: key r (a rank
    mask over A^m) collects the probes whose cross-rows, row j reading
    coordinate j of every probe point, are the members of r."""
    if m < 1:
        raise ValueError("m must be >= 1")
    groups: dict[int, int] = {}
    for n in k.arities():
        keys = [0] * k.dom.size ** (n * m)
        for j in range(n):  # the probe as n*m base-|A| digits: cross-row j reads digits j, j+n, ..
            rows = readings(tuple(range(j, n * m, n)), n * m, k.dom.size)
            keys = [r | 1 << row for r, row in zip(keys, rows)]
        for r, mask in zip(keys, _probe_masks(k, n, m, budget)):
            groups[r] = groups.get(r, 0) | mask
    return groups


def csf_m(
    k: FunctionClass,
    m: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ConstraintSet:
    """All m-ary constraints satisfied by every member of k.

    Every antecedent is paired with each consequent containing the output
    tuples the class produces from it; the universe of
    2^(|A|^m) * 2^(|B|^m) constraints must fit the budget.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    within_budget(constraint_universe_count(k.dom, k.cod, m), budget, f"csf_{m} universe constraints")
    dom, cod = k.dom, k.cod
    # needed[r]: the outputs from rows exactly r, folded to those from rows inside r
    needed = [0] * (1 << dom.size**m)
    for r, mask in probe_groups(k, m, budget).items():
        needed[r] = mask
    return ConstraintSet.from_floors(dom, cod, m, subset_fold(needed, operator.or_))


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
