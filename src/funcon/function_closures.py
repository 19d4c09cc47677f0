"""Function-side closure operators: variable substitution and local closure.

``vs_closure`` realizes closure under simple variable substitutions (the class
composed with the projection clone), reading member table ranks through
``core.readings``; ``substitute`` of one table through a ``SubstitutionMap`` is
its scalar reference in the differential tests.
``lo_m_closure`` adds every function whose
restriction to each size-<=m subset of its domain agrees with some member,
computed on the column masks of ``core.column_masks`` as an AND over subsets
of an OR over the class's value patterns there.  From m = |A|^n on it is the
identity at arity n: the unparametrized local closure on finite domains.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    ArityMismatchError,
    FunctionClass,
    FunctionTable,
    capped_arities,
    column_masks,
    function_count,
    readings,
    tuple_rank,
    tuple_unrank,
    within_budget,
)


@dataclass(frozen=True)
class SubstitutionMap:
    """Assignment of each source coordinate to a target coordinate (1-based)."""

    source_arity: int
    target_arity: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if self.source_arity < 1 or self.target_arity < 1:
            raise ValueError("arities must be >= 1")
        if len(self.assignment) != self.source_arity:
            raise ArityMismatchError(
                f"assignment length {len(self.assignment)} != source arity {self.source_arity}"
            )
        for a in self.assignment:
            if not 1 <= a <= self.target_arity:
                raise ValueError(f"assignment entry {a} out of range 1..{self.target_arity}")


def substitute(f: FunctionTable, s: SubstitutionMap) -> FunctionTable:
    """g(x1..xt) = f(x_{s(1)}, ..., x_{s(n)}) — a simple variable substitution."""
    if s.source_arity != f.arity:
        raise ArityMismatchError(f"substitution source arity {s.source_arity} != function arity {f.arity}")
    t = s.target_arity
    reading = readings(tuple(a - 1 for a in s.assignment), t, f.dom.size)
    return FunctionTable(f.dom, f.cod, t, tuple(f.table[r] for r in reading))


def _instances(k: FunctionClass, targets, budget: int) -> FunctionClass:
    """Every member read through every coordinate map into each target arity,
    on table ranks: the map h turns the table of f into x -> f(x[h])."""
    size, values = k.dom.size, k.cod.size
    # an n-ary member has t^n maps into arity t, each reading |A|^t entries
    ranks = {n: k.ranks(n) for n in k.arities()}
    count = sum(len(members) * sum(t**n * size**t for t in targets) for n, members in ranks.items())
    within_budget(count, budget, "substitution instances")
    out: dict[int, set[int]] = {t: set() for t in targets}
    for n, members in ranks.items():
        tables = [tuple_unrank(rank, values, size**n) for rank in members]
        for t in targets:
            reads = [readings(h, t, size) for h in itertools.product(range(t), repeat=n)]
            out[t].update(tuple_rank([table[x] for x in read], values) for table in tables for read in reads)
    return FunctionClass(k.dom, k.cod, out)


def vs_n_closure(k_n: FunctionClass, budget: int = DEFAULT_ENUMERATION_BUDGET) -> FunctionClass:
    """Closure of a single-arity class under arity-preserving substitutions."""
    arities = k_n.arities()
    if len(arities) > 1:
        raise ArityMismatchError(f"expected a single arity, got {arities}")
    return _instances(k_n, arities, budget)


def vs_closure(k: FunctionClass, cap: int, budget: int = DEFAULT_ENUMERATION_BUDGET) -> FunctionClass:
    """All substitution instances of members at target arities 1..cap.

    Arbitrary maps n -> t cover identification, permutation and dummy-argument
    addition at once; this equals composing the class with the projection clone.
    """
    return _instances(k, capped_arities(cap), budget)


def _agreeing(cols, members: int, subset: tuple[int, ...], prefix: int = -1) -> int:
    """The tables whose values on the subset form a pattern some member takes
    there: an OR over those patterns of the column masks ANDed along the
    subset.  ``prefix`` holds the tables matching the pattern chosen on the
    points before the subset; -1 is the all-ones mask."""
    if not subset:
        return prefix
    out = 0
    for col in cols[subset[0]]:
        narrowed = prefix & col
        if narrowed & members:
            out |= _agreeing(cols, members, subset[1:], narrowed)
    return out


def lo_m_closure(
    k: FunctionClass, m: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> FunctionClass:
    """Per arity, every function agreeing with some member on each small subset.

    Agreement on all subsets of size <= m is equivalent to agreement on all
    subsets of size exactly min(m, |A|^n), since a witness restricts.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    dom, cod = k.dom, k.cod
    result: dict[int, int] = {}
    for n in k.arities():
        count = within_budget(function_count(dom, cod, n), budget, f"lo_{m} candidates at arity {n}")
        cols = column_masks(dom, cod, n)
        members = k.mask(n)
        points = dom.size**n
        within_budget(math.comb(points, min(m, points)), budget, f"lo_{m} point subsets at arity {n}")
        kept = (1 << count) - 1
        for subset in itertools.combinations(range(points), min(m, points)):
            kept &= _agreeing(cols, members, subset)
        result[n] = kept
    return FunctionClass.from_masks(dom, cod, result)

