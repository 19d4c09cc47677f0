"""Constraint-side closure operators.

``cm_m_closure`` computes a bounded-generator fixpoint under relaxation steps
and tight-minor moves inside the m-ary constraint universe.  Soundness is by
construction (every move produces a conjunctive minor; iterating small steps
is covered by transitivity of minor formation); completeness is certified per
instance against ``cm_m_oracle``, the independently computed Galois composite.

The kernels are word operations on the relations' rank bitmasks.  A lift
through a map h is an OR of cached per-rank preimage masks (``_preimages``):
entry ``read`` holds the extended tuples whose h-reading has rank ``read``.
Every member set is closed under relaxation (``_down_close``), so a member is
maximal exactly when none of its single-tuple strengthenings (one antecedent
tuple more, one consequent tuple fewer) is a member: any strictly stronger
member is reached from it through such a step, and that step is itself a
relaxation of the stronger member.  A round of minor moves is one loop over
the pairs i <= j of lifts, projecting their meet; i == j is a single-source
tight minor.  Witnesses stay bit pairs while the fixpoint runs and are
decoded into constraints when ``CmResult.witnesses`` is first read.
``lo_n_closure`` keeps, per antecedent, the mask of consequents present with
it and decides every candidate in one pass over the antecedents (see its
docstring).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    ArityMismatchError,
    Constraint,
    ConstraintSet,
    DomainSpec,
    constraint_universe_count,
    readings,
    within_budget,
)
from .minors import Scheme
from .satisfaction import csf_m, fsc_n


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
    """How a closure member was produced: a scheme over named sources, or a
    relaxation of another member, or a seed."""

    kind: str  # "seed" | "relaxation" | "minor"
    family: tuple[Constraint, ...] = ()
    scheme: Scheme | None = None
    parent: tuple[int, int] | None = None  # bits of the relaxed member


@dataclass
class CmResult:
    """The closure, and per arity the fixpoint's witness of each member's
    bit pair: ``("seed",)``, ``("relaxation", parent_pair)`` or ``("minor",
    v, sources)`` with sources ``(r, s, h, src_arity)``."""

    constraints: ConstraintSet
    converged: bool
    iterations: int
    pair_witnesses: dict[int, dict[tuple[int, int], tuple]] = field(default_factory=dict, repr=False)

    @cached_property
    def witnesses(self) -> dict[Constraint, MinorWitness]:
        """The pair witnesses decoded into members, on first read."""
        decode = self.constraints.decode
        out = {}
        for m, pairs in self.pair_witnesses.items():
            for pair, (kind, *rest) in pairs.items():
                if kind == "minor":
                    v, sources = rest
                    family = tuple(decode(n, (r, s)) for r, s, _, n in sources)
                    wit = MinorWitness(kind, family, Scheme(m, v, tuple(h for _, _, h, _ in sources)))
                else:
                    wit = MinorWitness(kind, parent=rest[0] if rest else None)
                out[decode(m, pair)] = wit
        return out


def _low_bits(mask: int):
    """The set bits of ``mask`` as single-bit masks, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low


def _down_close(
    members: dict[tuple[int, int], tuple],
    new_pairs: list[tuple[tuple[int, int], tuple]],
    full_cons: int,
) -> bool:
    """Add relaxations (antecedent submasks, consequent supermasks) of the new
    pairs; single-tuple moves iterated to completion within the lattice."""
    changed = False
    stack = list(new_pairs)
    while stack:
        (r, s), wit = stack.pop()
        if (r, s) in members:
            continue
        members[(r, s)] = wit
        changed = True
        relax = ("relaxation", (r, s))
        # single-tuple relaxation moves, iterated through the stack
        stack += [((r ^ low, s), relax) for low in _low_bits(r)]
        stack += [((r, s | low), relax) for low in _low_bits(full_cons & ~s)]
    return changed


def _maximal_pairs(members: dict, full_ante: int) -> list[tuple[int, int]]:
    """Members not a strict relaxation of any other member, in sorted order.

    ``members`` must be closed under relaxation: then a member is maximal iff
    no single-tuple strengthening of it is a member."""
    return [
        (r, s)
        for r, s in sorted(members)
        if not any((r | low, s) in members for low in _low_bits(full_ante & ~r))
        and not any((r, s ^ low) in members for low in _low_bits(s))
    ]


@lru_cache(maxsize=4096)
def _preimages(h: tuple[int, ...], m: int, v: int, size: int) -> tuple[int, ...]:
    """Entry ``read``: bitmask over size^(m+v) of the extended tuples (coordinate
    1 most significant) whose h-reading has rank ``read``."""
    pre = [0] * size ** len(h)
    for x, read in enumerate(readings(h, m + v, size)):
        pre[read] |= 1 << x
    return tuple(pre)


def _lift(r_bits: int, h: tuple[int, ...], m: int, v: int, size: int) -> int:
    """Bitmask over size^(m+v): extended tuples (a, sigma) whose h-reading is
    in the source relation."""
    pre = _preimages(h, m, v, size)
    out = 0
    while r_bits:  # inlined _low_bits: this is the fixpoint's hottest loop
        low = r_bits & -r_bits
        out |= pre[low.bit_length() - 1]
        r_bits ^= low
    return out


def _project(bits: int, m: int, v: int, size: int) -> int:
    """Existentially project away the trailing v coordinates."""
    block = size**v
    out = 0
    mask = (1 << block) - 1
    for ar in range(size**m):
        if (bits >> (ar * block)) & mask:
            out |= 1 << ar
    return out


def _closure_fixpoint(
    seeds: dict[int, list[tuple[int, int]]],
    targets: list[int],
    dom: DomainSpec,
    cod: DomainSpec,
    bounds: CmBounds,
) -> tuple[dict[int, dict[tuple[int, int], tuple]], bool, int]:
    """Shared engine for cm_m (single arity) and cm (cross-arity, capped).

    ``seeds`` maps each target arity to its initial members; sources for the
    minor moves are the maximal members of every target arity.  Members map
    to their witnesses, as ``CmResult`` holds them.
    """
    sa, sb = dom.size, cod.size
    members: dict[int, dict[tuple[int, int], tuple]] = {m: {} for m in targets}
    for m in targets:
        _down_close(members[m], [(pair, ("seed",)) for pair in seeds.get(m, [])], (1 << sb**m) - 1)
    v = bounds.max_indets
    done: set[tuple[int, int, int]] = set()
    converged = False
    iteration = 0
    for iteration in range(1, bounds.max_iterations + 1):
        changed = False
        maximals = {
            m: _maximal_pairs(members[m], (1 << sa**m) - 1) for m in targets
        }
        for m in targets:
            # lifted (antecedent, consequent) masks -> the first source giving them
            lifts: dict[tuple[int, int], tuple[int, int, tuple[int, ...], int]] = {}
            for src_arity in targets:
                for r, s in maximals[src_arity]:
                    for h in itertools.product(range(m + v), repeat=src_arity):
                        lifts.setdefault((_lift(r, h, m, v, sa), _lift(s, h, m, v, sb)), (r, s, h, src_arity))
            pairs, sources = list(lifts), list(lifts.values())
            fresh: list[tuple[tuple[int, int], tuple]] = []
            for i, (la, lb) in enumerate(pairs):
                for j, (la2, lb2) in enumerate(pairs[i:], i):
                    key = (m, la & la2, lb & lb2)
                    if key in done:
                        continue
                    done.add(key)
                    cand = (_project(key[1], m, v, sa), _project(key[2], m, v, sb))
                    if cand not in members[m]:
                        family = (sources[i],) if i == j else (sources[i], sources[j])
                        fresh.append((cand, ("minor", v, family)))
            if fresh and _down_close(members[m], fresh, (1 << sb**m) - 1):
                changed = True
        if not changed:
            converged = True
            break
    return members, converged, iteration


def _diagonal(size: int, m: int) -> int:
    """Bits of the m-ary equality relation over a domain of the given size."""
    return sum(1 << rank for rank in readings((0,) * m, 1, size))


def _cm_result(
    t: ConstraintSet, targets: list[int], bounds: CmBounds, budget: int
) -> CmResult:
    """Run the fixpoint at the target arities, seeded with the input set and
    the equality and empty constraints of each."""
    dom, cod = t.dom, t.cod
    for m in targets:
        if m < 1:
            raise ValueError("constraint arity must be >= 1")
        within_budget(constraint_universe_count(dom, cod, m), budget, f"constraints of arity {m}")
    for arity in t.arities():
        if arity not in targets:
            raise ArityMismatchError(f"input set contains arity {arity}, outside target arities {targets}")
    seeds = {m: [*t.ranks(m), (_diagonal(dom.size, m), _diagonal(cod.size, m)), (0, 0)] for m in targets}
    members, converged, iterations = _closure_fixpoint(seeds, targets, dom, cod, bounds)
    constraints = ConstraintSet(dom, cod, {m: frozenset(members[m]) for m in targets})
    return CmResult(constraints, converged, iterations, members)


def cm_m_closure(
    t_m: ConstraintSet,
    m: int,
    bounds: CmBounds = CmBounds(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> CmResult:
    """Bounded-generator fixpoint for the m-ary minor closure within Q_m."""
    return _cm_result(t_m, [m], bounds, budget)


def cm_closure(
    t: ConstraintSet,
    cap: int,
    bounds: CmBounds = CmBounds(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> CmResult:
    """Cross-arity minor closure, materialized at target arities 1..cap.

    Source families for the minor moves may mix any materialized arity.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return _cm_result(t, list(range(1, cap + 1)), bounds, budget)


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


def lo_n_closure(
    t: ConstraintSet,
    n: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ConstraintSet:
    """Add every constraint all of whose relaxations with antecedent of size
    at most n already belong to the set.

    Only constraints with more than n antecedent tuples are added, and the
    test reads only those with at most n, so one pass is the least fixpoint.
    Per antecedent r, ``rows[r]`` masks the consequents present with r; for
    |r| <= n its up-interior (consequents all of whose supersets are present)
    is taken by one shift-and-mask pass per consequent tuple, and
    ``shared[r]`` is the AND of those interiors over the subsets of r of size
    at most n, built from the ``shared`` of r's one-tuple-smaller subsets.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dom, cod = t.dom, t.cod
    result: dict[int, set[tuple[int, int]]] = {}
    for m in t.arities():
        within_budget(constraint_universe_count(dom, cod, m), budget, f"constraints of arity {m}")
        present = set(t.ranks(m))
        n_ante, width = 1 << dom.size**m, cod.size**m
        rows = [0] * n_ante
        for r, s in present:
            rows[r] |= 1 << s
        containing = _containing_masks(width)
        full = (1 << (1 << width)) - 1
        shared = [0] * n_ante
        for r in range(n_ante):
            acc = full
            for low in _low_bits(r):
                acc &= shared[r ^ low]
            if r.bit_count() <= n:
                row = rows[r]
                for j, with_j in enumerate(containing):
                    row &= (row >> (1 << j)) | with_j
                acc &= row
            else:
                present.update((r, low.bit_length() - 1) for low in _low_bits(acc & ~rows[r]))
            shared[r] = acc
        result[m] = present
    return ConstraintSet(dom, cod, result)


@lru_cache(maxsize=16)
def _containing_masks(width: int) -> tuple[int, ...]:
    """Entry j: bitmask over the 2^width consequent masks of those holding
    tuple j."""
    out = []
    for j in range(width):
        mask, span = ((1 << (1 << j)) - 1) << (1 << j), 2 << j
        while span < 1 << width:
            mask |= mask << span
            span <<= 1
        out.append(mask)
    return tuple(out)


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


def union_closure_check(t: ConstraintSet) -> tuple[bool, tuple[Constraint, Constraint] | None]:
    """Pairwise-union closure per arity; at finite scale this implies closure
    under arbitrary unions.  Returns a violating pair if any."""
    for m in t.arities():
        present = t.ranks(m)
        for (r1, s1), (r2, s2) in itertools.combinations_with_replacement(sorted(present), 2):
            if (r1 | r2, s1 | s2) not in present:
                return False, (t.decode(m, (r1, s1)), t.decode(m, (r2, s2)))
    return True, None
