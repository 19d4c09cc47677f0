"""Constraint-side closure operators.

``cm_m_closure`` computes a bounded-generator fixpoint under relaxation steps
and tight-minor moves inside the m-ary constraint universe.  Soundness is by
construction (every move produces a conjunctive minor; iterating small steps
is covered by transitivity of minor formation); completeness is certified per
instance against ``cm_m_oracle``, the independently computed Galois composite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    BudgetExceededError,
    Constraint,
    ConstraintSet,
    DomainSpec,
    Relation,
    canonical_constraint,
    constraint_universe_count,
)
from .minors import Scheme
from .satisfaction import csf_m, fsc_n


@dataclass(frozen=True)
class CmBounds:
    """Per-step limits for the bounded-generator fixpoint."""

    max_family: int = 2
    max_indets: int = 2
    max_iterations: int = 50

    def __post_init__(self) -> None:
        if self.max_family < 1 or self.max_iterations < 1:
            raise ValueError("max_family and max_iterations must be >= 1")
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
    constraints: ConstraintSet
    converged: bool
    iterations: int
    witnesses: dict[Constraint, MinorWitness] = field(default_factory=dict)


def _down_close(
    members: dict[tuple[int, int], MinorWitness],
    new_pairs: list[tuple[tuple[int, int], MinorWitness]],
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
        relax = MinorWitness("relaxation", parent=(r, s))
        # single-tuple relaxation moves, iterated through the stack
        bits = r
        while bits:
            low = bits & -bits
            bits ^= low
            stack.append(((r ^ low, s), relax))
        missing = full_cons & ~s
        while missing:
            low = missing & -missing
            missing ^= low
            stack.append(((r, s | low), relax))
    return changed


def _maximal_pairs(members: dict) -> list[tuple[int, int]]:
    """Members not a strict relaxation of any other member."""
    pairs = sorted(members)
    out = []
    for r, s in pairs:
        dominated = False
        for r2, s2 in pairs:
            if (r2, s2) != (r, s) and r & ~r2 == 0 and s2 & ~s == 0:
                # (r,s) is a relaxation of (r2,s2); strictness:
                if (r, s) != (r2, s2):
                    dominated = True
                    break
        if dominated:
            continue
        out.append((r, s))
    return out


def _lift(r_bits: int, h: tuple[int, ...], m: int, v: int, size: int) -> int:
    """Bitmask over size^(m+v): extended tuples (a, sigma) whose h-reading is
    in the source relation."""
    total = m + v
    out = 0
    for rank in range(size**total):
        # decode with coordinate 1 most significant
        digits = []
        rr = rank
        for _ in range(total):
            digits.append(rr % size)
            rr //= size
        digits.reverse()
        read = 0
        for e in h:
            read = read * size + digits[e]
        if (r_bits >> read) & 1:
            out |= 1 << rank
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
    seeds: dict[int, list[tuple[tuple[int, int], MinorWitness]]],
    targets: list[int],
    source_arity_filter,
    dom: DomainSpec,
    cod: DomainSpec,
    bounds: CmBounds,
) -> tuple[dict[int, dict[tuple[int, int], MinorWitness]], bool, int]:
    """Shared engine for cm_m (single arity) and cm (cross-arity, capped).

    ``seeds`` maps each target arity to its initial members; sources for the
    minor moves are the maximal members of every arity passing the filter.
    """
    sa, sb = dom.size, cod.size
    members: dict[int, dict[tuple[int, int], MinorWitness]] = {m: {} for m in targets}
    for m in targets:
        _down_close(members[m], seeds.get(m, []), (1 << sb**m) - 1)
    v = bounds.max_indets
    done: set = set()
    converged = False
    iteration = 0
    for iteration in range(1, bounds.max_iterations + 1):
        changed = False
        maximals = {
            m: _maximal_pairs(members[m]) for m in targets
        }
        for m in targets:
            full_cons = (1 << sb**m) - 1
            # lifted (antecedent, consequent) masks for every (source, map)
            lifts: list[tuple[int, int, tuple[int, int], tuple[int, ...], int]] = []
            lift_seen: set[tuple[int, int]] = set()
            for src_arity in targets:
                if not source_arity_filter(m, src_arity):
                    continue
                for r, s in maximals[src_arity]:
                    for h in itertools.product(range(m + v), repeat=src_arity):
                        la = _lift(r, h, m, v, sa)
                        lb = _lift(s, h, m, v, sb)
                        if (la, lb) in lift_seen:
                            continue
                        lift_seen.add((la, lb))
                        lifts.append((la, lb, (r, s), h, src_arity))
            fresh: list[tuple[tuple[int, int], MinorWitness]] = []
            # single-source tight minors
            for la, lb, src, h, src_arity in lifts:
                key = ("g2", m, la, lb)
                if key in done:
                    continue
                done.add(key)
                cand = (_project(la, m, v, sa), _project(lb, m, v, sb))
                if cand not in members[m]:
                    fresh.append((cand, _witness(m, v, [(src, h, src_arity)], dom, cod)))
            # two-member families sharing the indeterminate pool; includes
            # identity-map pairs, i.e. pairwise intersection
            if bounds.max_family >= 2:
                for i in range(len(lifts)):
                    la1, lb1, src1, h1, n1 = lifts[i]
                    for j in range(i + 1, len(lifts)):
                        la2, lb2, src2, h2, n2 = lifts[j]
                        ia = la1 & la2
                        ib = lb1 & lb2
                        key = ("g4", m, ia, ib)
                        if key in done:
                            continue
                        done.add(key)
                        cand = (_project(ia, m, v, sa), _project(ib, m, v, sb))
                        if cand not in members[m]:
                            fresh.append(
                                (cand, _witness(m, v, [(src1, h1, n1), (src2, h2, n2)], dom, cod))
                            )
            if fresh and _down_close(members[m], fresh, full_cons):
                changed = True
        if not changed:
            converged = True
            break
    return members, converged, iteration


def _witness(m, v, sources, dom, cod) -> MinorWitness:
    family = tuple(
        Constraint(Relation(dom, n, r), Relation(cod, n, s)) for (r, s), h, n in sources
    )
    scheme = Scheme(m, v, tuple(h for _, h, _ in sources))
    return MinorWitness("minor", family=family, scheme=scheme)


def _seed_pairs(t: ConstraintSet, m: int, dom, cod) -> list:
    seeds = [
        (
            (c.antecedent.bits, c.consequent.bits),
            MinorWitness("seed"),
        )
        for c in t.members(m)
    ]
    for kind in ("equality", "empty"):
        c = canonical_constraint(kind, m, dom, cod)
        seeds.append(((c.antecedent.bits, c.consequent.bits), MinorWitness("seed")))
    return seeds


def _to_set(members: dict[int, dict], dom, cod) -> ConstraintSet:
    out = []
    for m, pairs in members.items():
        for r, s in pairs:
            out.append(Constraint(Relation(dom, m, r), Relation(cod, m, s)))
    return ConstraintSet.from_constraints(dom, cod, out)


def _universe_guard(dom, cod, m, budget):
    count = constraint_universe_count(dom, cod, m)
    if count > budget:
        raise BudgetExceededError(
            f"constraint universe at arity {m} has {count} members, exceeding budget {budget}",
            count,
        )


def cm_m_closure(
    t_m: ConstraintSet,
    m: int,
    bounds: CmBounds = CmBounds(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> CmResult:
    """Bounded-generator fixpoint for the m-ary minor closure within Q_m."""
    _universe_guard(t_m.dom, t_m.cod, m, budget)
    for arity in t_m.arities():
        if arity != m:
            raise ValueError(f"input set contains arity {arity}, expected {m}")
    seeds = {m: _seed_pairs(t_m, m, t_m.dom, t_m.cod)}
    members, converged, iterations = _closure_fixpoint(
        seeds, [m], lambda tgt, src: src == tgt, t_m.dom, t_m.cod, bounds
    )
    witnesses = {
        Constraint(Relation(t_m.dom, m, r), Relation(t_m.cod, m, s)): wit
        for (r, s), wit in members[m].items()
    }
    return CmResult(_to_set(members, t_m.dom, t_m.cod), converged, iterations, witnesses)


def cm_closure(
    t: ConstraintSet,
    cap: int,
    bounds: CmBounds = CmBounds(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> CmResult:
    """Cross-arity minor closure, materialized at target arities 1..cap.

    Source families for the minor moves may mix any materialized arity.
    """
    targets = list(range(1, cap + 1))
    for m in targets:
        _universe_guard(t.dom, t.cod, m, budget)
    for arity in t.arities():
        if arity > cap:
            raise ValueError(f"input set contains arity {arity} beyond cap {cap}")
    seeds = {m: _seed_pairs(t, m, t.dom, t.cod) for m in targets}
    members, converged, iterations = _closure_fixpoint(
        seeds, targets, lambda tgt, src: True, t.dom, t.cod, bounds
    )
    witnesses = {}
    for m in targets:
        for (r, s), wit in members[m].items():
            witnesses[Constraint(Relation(t.dom, m, r), Relation(t.cod, m, s))] = wit
    return CmResult(_to_set(members, t.dom, t.cod), converged, iterations, witnesses)


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
    at most n already belong to the set; iterated to the least fixpoint."""
    if n < 1:
        raise ValueError("n must be >= 1")
    dom, cod = t.dom, t.cod
    result: dict[int, set[tuple[int, int]]] = {}
    for m in t.arities():
        _universe_guard(dom, cod, m, budget)
        present = {(c.antecedent.bits, c.consequent.bits) for c in t.members(m)}
        n_cons = cod.size**m
        changed = True
        while changed:
            changed = False
            for r_bits in range(1 << dom.size**m):
                ranks = [i for i in range(dom.size**m) if (r_bits >> i) & 1]
                if len(ranks) <= n:
                    continue  # such a constraint is its own small relaxation
                for s_bits in range(1 << n_cons):
                    if (r_bits, s_bits) in present:
                        continue
                    if _small_relaxations_present(
                        present, ranks, s_bits, n, n_cons
                    ):
                        present.add((r_bits, s_bits))
                        changed = True
        result[m] = present
    out = []
    for m, pairs in result.items():
        for r, s in pairs:
            out.append(Constraint(Relation(dom, m, r), Relation(cod, m, s)))
    return ConstraintSet.from_constraints(dom, cod, out)


def _small_relaxations_present(
    present: set[tuple[int, int]], ranks: list[int], s_bits: int, n: int, n_cons: int
) -> bool:
    full = (1 << n_cons) - 1
    for k in range(0, min(n, len(ranks)) + 1):
        for subset in itertools.combinations(ranks, k):
            f_bits = 0
            for i in subset:
                f_bits |= 1 << i
            missing = full & ~s_bits
            sup = missing
            while True:
                if (f_bits, s_bits | sup) not in present:
                    return False
                if sup == 0:
                    break
                sup = (sup - 1) & missing
    return True


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
        members = sorted(
            t.members(m), key=lambda c: (c.antecedent.bits, c.consequent.bits)
        )
        present = {(c.antecedent.bits, c.consequent.bits) for c in members}
        for c1, c2 in itertools.combinations_with_replacement(members, 2):
            r = c1.antecedent.bits | c2.antecedent.bits
            s = c1.consequent.bits | c2.consequent.bits
            if (r, s) not in present:
                return False, (c1, c2)
    return True, None
