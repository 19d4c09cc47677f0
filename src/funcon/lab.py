"""Two-sided verification of the closure laws, Galois axioms, factorization
identities and definability equivalences.

Each identity is evaluated through two independent code paths: the left side
through the satisfaction machinery (images, separating constraints, the
fsc/csf maps), the right side through the closure-operator modules.  Reports
carry explicit witnesses for any discrepancy.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    ArityIndexed,
    BudgetExceededError,
    Constraint,
    ConstraintSet,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    Relation,
    canonical_constraint,
    constraint_universe_count,
    function_count,
)
from .constraint_closures import (
    CmBounds,
    cm_closure,
    cm_m_closure,
    lo_n_closure,
    union_closure_check,
)
from .function_closures import lo_m_closure, vs_closure, vs_n_closure
from .satisfaction import (
    csf,
    csf_m,
    fsc,
    fsc_n,
    minimal_consequent,
)

MAX_WITNESSES = 8

FACTORIZATION_IDENTITIES = ("t15i", "t15ii", "t8ii", "t12ii", "t4finite")
DEFINABILITY_SIDES = ("thm5", "thm6", "thm13", "thm14", "cor1", "cor2")


@dataclass
class ClosureReport:
    """Outcome of one verification run: both sides plus their difference."""

    identity_name: str
    parameters: dict
    lhs_size: int
    rhs_size: int
    symmetric_difference: list[str] = field(default_factory=list)
    verdict: str = "equal"
    runtime: float = 0.0

    def __post_init__(self) -> None:
        if (self.verdict == "equal") != (not self.symmetric_difference):
            raise ValueError("verdict 'equal' iff the symmetric difference is empty")

    @property
    def ok(self) -> bool:
        return self.verdict == "equal"


def _describe(x: FunctionTable | Constraint) -> str:
    if isinstance(x, FunctionTable):
        return f"function arity={x.arity} table={list(x.table)}"
    return (
        f"constraint arity={x.arity} R={sorted(x.antecedent.tuples())} "
        f"S={sorted(x.consequent.tuples())}"
    )


def _verdict(lhs_only: list, rhs_only: list) -> str:
    if not lhs_only and not rhs_only:
        return "equal"
    if lhs_only and not rhs_only:
        return "lhs_strict"
    if rhs_only and not lhs_only:
        return "rhs_strict"
    return "incomparable"


def _difference(x: ArityIndexed, other: ArityIndexed) -> list[tuple[int, object]]:
    """(arity, key) of every member of x missing from other, in key order."""
    return sorted((n, key) for n in x.arities() for key in x.ranks(n) - other.ranks(n))


def _report(
    name: str, params: dict, lhs: ArityIndexed, rhs: ArityIndexed, started: float
) -> ClosureReport:
    """Both sides of an identity over classes or over constraint sets."""
    lhs_only = _difference(lhs, rhs)
    rhs_only = _difference(rhs, lhs)
    wits = [_describe(lhs.decode(n, key)) + " (lhs only)" for n, key in lhs_only[:MAX_WITNESSES]]
    wits += [_describe(rhs.decode(n, key)) + " (rhs only)" for n, key in rhs_only[:MAX_WITNESSES]]
    return ClosureReport(
        name, params, len(lhs), len(rhs), wits, _verdict(lhs_only, rhs_only), time.time() - started
    )


# ---------------------------------------------------------------------------
# satisfaction-side composites


def small_antecedents(dom: DomainSpec, m: int, max_size: int):
    """All antecedent relations over dom^m with at most max_size tuples."""
    universe = dom.size**m
    for k in range(0, min(max_size, universe) + 1):
        for ranks in itertools.combinations(range(universe), k):
            yield Relation.from_ranks(dom, m, ranks)


def fsc_n_of_csf_m(
    k: FunctionClass, n: int, m: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> FunctionClass:
    """The n-ary functions satisfying every m-ary constraint the class satisfies.

    Instead of materializing the m-ary constraint universe, this is fsc_n of
    the separating constraints (R, S) where R ranges over antecedents of size
    at most n and S is the smallest consequent the class admits over R.  A
    violation of any satisfied constraint always restricts to a violation of
    one of these.
    """
    count = function_count(k.dom, k.cod, n)
    if count > budget:  # refuse before building the separators
        raise BudgetExceededError(
            f"filtering {count} candidate functions exceeds budget {budget}", count
        )
    antecedents = sum(math.comb(k.dom.size**m, j) for j in range(n + 1))
    if antecedents > budget:
        raise BudgetExceededError(
            f"building {antecedents} separating constraints exceeds budget {budget}", antecedents
        )
    separators = ConstraintSet(
        k.dom,
        k.cod,
        {m: [(r.bits, minimal_consequent(k, r).bits) for r in small_antecedents(k.dom, m, n)]},
    )
    return fsc_n(separators, n, budget)


# ---------------------------------------------------------------------------
# closure-law audit


def check_closure_laws(op, samples, name: str = "closure-laws") -> ClosureReport:
    """Audit extensivity, monotonicity and idempotence of a closure operator.

    ``samples`` yields (X, Y) pairs with X a subcollection of Y; both are
    FunctionClass or ConstraintSet instances accepted by ``op``.
    """
    started = time.time()
    checked = 0
    violations: list[str] = []
    for x, y in samples:
        checked += 1
        cx = op(x)
        cy = op(y)
        if not x.issubset(cx):
            violations.append(f"sample {checked}: not extensive")
        if not cx.issubset(cy):
            violations.append(f"sample {checked}: not monotone")
        if op(cx) != cx:
            violations.append(f"sample {checked}: not idempotent")
        if len(violations) >= MAX_WITNESSES:
            break
    return ClosureReport(
        name,
        {"samples": checked},
        checked,
        checked - len(violations),
        violations,
        "equal" if not violations else "incomparable",
        time.time() - started,
    )


def check_galois_axioms(
    k: FunctionClass,
    t: ConstraintSet,
    n_cap: int,
    m_cap: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ClosureReport:
    """Order reversal, composite extensivity, and the triple-composition
    identities of the correspondence, at the given arity caps."""
    started = time.time()
    violations: list[str] = []

    def fsc_c(ts):
        return fsc(ts, n_cap, budget)

    def csf_c(ks):
        return csf(ks, m_cap, budget)

    # order reversal on nested pairs obtained by dropping one member
    for x, close, name in ((t, fsc_c, "fsc"), (k, csf_c, "csf")):
        closed = close(x)
        for n, key in sorted((n, key) for n in x.arities() for key in x.ranks(n)):
            smaller = type(x)(x.dom, x.cod, {**x.by_arity, n: x.ranks(n) - {key}})
            if not closed.issubset(close(smaller)):
                violations.append(f"{name} not order reversing at {_describe(x.decode(n, key))}")
    # extensive composites
    if not k.issubset(fsc_c(csf_c(k))):
        violations.append("class not contained in fsc(csf(class))")
    if not t.issubset(csf_c(fsc_c(t))):
        violations.append("set not contained in csf(fsc(set))")
    # triple compositions
    fk = fsc_c(t)
    if fsc_c(csf_c(fk)) != fk:
        violations.append("fsc o csf o fsc != fsc")
    ck = csf_c(k)
    if csf_c(fsc_c(ck)) != ck:
        violations.append("csf o fsc o csf != csf")
    return ClosureReport(
        "galois-axioms",
        {"n_cap": n_cap, "m_cap": m_cap},
        len(k),
        len(t),
        violations,
        "equal" if not violations else "incomparable",
        time.time() - started,
    )


# ---------------------------------------------------------------------------
# factorization identities


def _escalating_cm_m(t_m, m, bounds, budget, lhs_sets, rhs_from):
    """Run the bounded closure, escalating the indeterminate budget while the
    right side stays strictly below the satisfaction side."""
    escalations = 0
    while True:
        res = cm_m_closure(t_m, m, bounds, budget)
        rhs = rhs_from(res.constraints)
        if rhs.issubset(lhs_sets) and rhs != lhs_sets and escalations < 2:
            bounds = CmBounds(bounds.max_family, bounds.max_indets + 1, bounds.max_iterations)
            escalations += 1
            continue
        return res, rhs, escalations


def _require(name: str, **params) -> None:
    missing = [key for key, value in params.items() if value is None]
    if missing:
        raise ValueError(f"{name} needs parameter {', '.join(missing)}")


def verify_factorization(
    identity: str,
    payload,
    n: int | None = None,
    m: int | None = None,
    cap: int | None = None,
    bounds: CmBounds = CmBounds(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ClosureReport:
    """Compute both sides of a factorization identity independently."""
    started = time.time()
    if identity == "t15i":
        k_n: FunctionClass = payload
        _require(identity, n=n, m=m)
        lhs = fsc_n_of_csf_m(k_n, n, m, budget)
        rhs = lo_m_closure(vs_n_closure(k_n), m, budget)
        return _report("t15i", {"n": n, "m": m}, lhs, rhs, started)
    if identity == "t15ii":
        t_m: ConstraintSet = payload
        _require(identity, n=n, m=m)
        lhs = csf_m(fsc_n(t_m, n, budget), m, budget)
        res, rhs, escalations = _escalating_cm_m(
            t_m, m, bounds, budget, lhs, lambda cs: lo_n_closure(cs, n, budget)
        )
        params = {"n": n, "m": m, "cm_converged": res.converged, "escalations": escalations}
        return _report("t15ii", params, lhs, rhs, started)
    if identity == "t8ii":
        t: ConstraintSet = payload
        _require(identity, n=n, cap=cap)
        left = csf(fsc_n(t, n, budget), cap, budget)
        res = cm_closure(t, cap, bounds, budget)
        rhs = lo_n_closure(res.constraints, n, budget)
        params = {"n": n, "cap": cap, "cm_converged": res.converged}
        return _report("t8ii", params, left, rhs, started)
    if identity == "t12ii":
        t_m = payload
        _require(identity, m=m)
        n_star = t_m.dom.size**m
        lhs = csf_m(fsc_n(t_m, 1, budget), m, budget)
        for arity in range(2, n_star + 1):
            piece = csf_m(fsc_n(t_m, arity, budget), m, budget)
            both = {a: lhs.ranks(a) & piece.ranks(a) for a in lhs.arities()}
            lhs = ConstraintSet(t_m.dom, t_m.cod, both)
        res, rhs, escalations = _escalating_cm_m(
            t_m, m, bounds, budget, lhs, lambda cs: cs
        )
        params = {"m": m, "n_star": n_star, "cm_converged": res.converged, "escalations": escalations}
        return _report("t12ii", params, lhs, rhs, started)
    if identity == "t4finite":
        k: FunctionClass = payload
        _require(identity, cap=cap)
        vs = vs_closure(k, cap)
        lhs = FunctionClass.empty(k.dom, k.cod)
        for arity in range(1, cap + 1):
            lhs = lhs | fsc_n_of_csf_m(k, arity, k.dom.size**arity, budget)
        return _report("t4finite", {"cap": cap}, lhs, vs, started)
    raise ValueError(f"unknown identity {identity!r}")


# ---------------------------------------------------------------------------
# definability equivalences


def _equivalence_report(name, params, predicate, fixed_point, started, detail=None):
    verdict = "equal" if predicate == fixed_point else "incomparable"
    detail = detail or f"predicate={predicate} but fixed_point={fixed_point}"
    wits = [] if verdict == "equal" else [detail]
    return ClosureReport(
        name,
        {**params, "predicate": predicate, "fixed_point": fixed_point},
        int(predicate),
        int(fixed_point),
        wits,
        verdict,
        time.time() - started,
    )


def verify_definability(
    side: str,
    payload,
    n: int | None = None,
    m: int | None = None,
    cap: int | None = None,
    bounds: CmBounds = CmBounds(),
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ClosureReport:
    """Check a definability/characterization equivalence on one instance:
    the closure-condition predicate against the Galois fixed-point test."""
    started = time.time()
    if side == "thm5":
        k_n: FunctionClass = payload
        _require(side, n=n)
        m_star = k_n.dom.size**n
        predicate = vs_n_closure(k_n) == k_n  # local closure is trivial here
        fixed = fsc_n_of_csf_m(k_n, n, m_star, budget) == k_n
        return _equivalence_report("thm5", {"n": n}, predicate, fixed, started)
    if side == "thm13":
        k_n = payload
        _require(side, n=n, m=m)
        predicate = (
            lo_m_closure(k_n, m, budget) == k_n and vs_n_closure(k_n) == k_n
        )
        fixed = fsc_n_of_csf_m(k_n, n, m, budget) == k_n
        return _equivalence_report("thm13", {"n": n, "m": m}, predicate, fixed, started)
    if side == "cor1":
        k_1: FunctionClass = payload
        m_star = k_1.dom.size
        predicate = True  # every class over a finite domain is locally closed
        fixed = fsc_n_of_csf_m(k_1, 1, m_star, budget) == k_1
        return _equivalence_report(
            "cor1", {}, predicate, fixed, started, f"fixed_point={fixed}"
        )
    if side == "thm6":
        t: ConstraintSet = payload
        _require(side, n=n, cap=cap)
        predicate = (
            lo_n_closure(t, n, budget) == t
            and _has_distinguished(t, cap)
            and cm_closure(t, cap, bounds, budget).constraints == t
        )
        fixed = csf(fsc_n(t, n, budget), cap, budget) == t
        return _equivalence_report("thm6", {"n": n, "cap": cap}, predicate, fixed, started)
    if side == "thm14":
        t_m: ConstraintSet = payload
        _require(side, n=n, m=m)
        eq_m = canonical_constraint("equality", m, t_m.dom, t_m.cod)
        empty_m = canonical_constraint("empty", m, t_m.dom, t_m.cod)
        predicate = (
            lo_n_closure(t_m, n, budget) == t_m
            and eq_m in t_m
            and empty_m in t_m
            and cm_m_closure(t_m, m, bounds, budget).constraints == t_m
        )
        fixed = csf_m(fsc_n(t_m, n, budget), m, budget) == t_m
        return _equivalence_report("thm14", {"n": n, "m": m}, predicate, fixed, started)
    if side == "cor2":
        t = payload
        _require(side, cap=cap)
        unions_ok, _ = union_closure_check(t)
        predicate = (
            _has_distinguished(t, cap)
            and unions_ok
            and cm_closure(t, cap, bounds, budget).constraints == t
        )
        fixed = csf(fsc_n(t, 1, budget), cap, budget) == t
        return _equivalence_report("cor2", {"cap": cap}, predicate, fixed, started)
    raise ValueError(f"unknown side {side!r}")


def _has_distinguished(t: ConstraintSet, cap: int) -> bool:
    if cap >= 2:
        if canonical_constraint("equality", 2, t.dom, t.cod) not in t:
            return False
    for m in range(1, cap + 1):
        if canonical_constraint("empty", m, t.dom, t.cod) not in t:
            return False
    return True


# ---------------------------------------------------------------------------
# seeded instance generators


def _sample_ranks(rng: random.Random, total: int, count: int, what: str) -> list[int]:
    if total > DEFAULT_ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"sampling from {total} {what} exceeds budget "
            f"{DEFAULT_ENUMERATION_BUDGET}",
            total,
        )
    # sample picks by index, so this draws the members a list in rank order would
    return rng.sample(range(total), min(count, total))


def random_function_class(
    rng: random.Random, dom: DomainSpec, cod: DomainSpec, arity: int, count: int
) -> FunctionClass:
    total = function_count(dom, cod, arity)
    picked = _sample_ranks(rng, total, count, f"functions of arity {arity}")
    return FunctionClass(dom, cod, {arity: frozenset(picked)})


def random_constraint_set(
    rng: random.Random, dom: DomainSpec, cod: DomainSpec, arity: int, count: int
) -> ConstraintSet:
    total = constraint_universe_count(dom, cod, arity)
    picked = _sample_ranks(rng, total, count, f"constraints of arity {arity}")
    # rank r * 2^(|B|^arity) + s is the pair (r, s), as enumerate_constraints orders them
    return ConstraintSet(dom, cod, {arity: {divmod(i, 2 ** (cod.size**arity)) for i in picked}})


def nested_class_pair(rng, dom, cod, arity, count, extra):
    x = random_function_class(rng, dom, cod, arity, count)
    y = x | random_function_class(rng, dom, cod, arity, extra)
    return x, y


def nested_set_pair(rng, dom, cod, arity, count, extra):
    x = random_constraint_set(rng, dom, cod, arity, count)
    y = x | random_constraint_set(rng, dom, cod, arity, extra)
    return x, y
