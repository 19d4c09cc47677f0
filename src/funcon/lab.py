"""Two-sided verification of the closure laws, Galois axioms, factorization
identities and definability equivalences.

Each identity is evaluated through two independent code paths: the left side
through the Galois maps of ``satisfaction`` and their composite
``fsc_n_of_csf_m``, the right side through the closure-operator modules; this
module only compares them.  Reports carry explicit witnesses for any
discrepancy.  Each kind of check builds its report in one place: ``_report``
for the two sides of an identity, ``_findings`` for what a definability check
or an audit found; ``audit`` is the one sample loop of the audits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    ArityIndexed,
    ArityMismatchError,
    Constraint,
    ConstraintSet,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    canonical_constraint,
    constraint_universe_count,
    function_count,
    within_budget,
)
from .constraint_closures import (
    CmBounds,
    cm_closure,
    cm_m_closure,
    lo_n_closure,
    union_closure_check,
)
from .function_closures import lo_m_closure, vs_closure, vs_n_closure
from .satisfaction import csf, csf_m, fsc, fsc_n, fsc_n_of_csf_m

MAX_WITNESSES = 8

FACTORIZATION_IDENTITIES = ("t15i", "t15ii", "t8ii", "t12ii", "t4finite")

# identity: the side its payload lies on, the parameters it needs in the order
# they are checked, and the one arity its payload may hold (a parameter's
# value, a number, or None for any)
IDENTITIES = {
    "t4finite": ("class", ("cap",), None),
    "t8ii": ("set", ("n", "cap"), None),
    "t12ii": ("set", ("m",), "m"),
    "t15i": ("class", ("n", "m"), "n"),
    "t15ii": ("set", ("n", "m"), "m"),
    "thm5": ("class", ("n",), "n"),
    "thm6": ("set", ("n", "cap"), None),
    "thm13": ("class", ("n", "m"), "n"),
    "thm14": ("set", ("n", "m"), "m"),
    "cor1": ("class", (), 1),
    "cor2": ("set", ("cap",), None),
}


@dataclass
class ClosureReport:
    """Outcome of one verification run: both sides plus their difference."""

    identity_name: str
    parameters: dict
    lhs_size: int
    rhs_size: int
    symmetric_difference: list[str] = field(default_factory=list)
    verdict: str = "equal"

    def __post_init__(self) -> None:
        if (self.verdict == "equal") != (not self.symmetric_difference):
            raise ValueError("verdict 'equal' iff the symmetric difference is empty")

    @property
    def ok(self) -> bool:
        return self.verdict == "equal"


def _describe(x: FunctionTable | Constraint) -> str:
    if isinstance(x, FunctionTable):
        return f"function arity={x.arity} table={list(x.table)}"
    return f"constraint arity={x.arity} R={x.antecedent.tuples()} S={x.consequent.tuples()}"


def _verdict(lhs_only: list, rhs_only: list) -> str:
    if not lhs_only and not rhs_only:
        return "equal"
    if lhs_only and not rhs_only:
        return "lhs_strict"
    if rhs_only and not lhs_only:
        return "rhs_strict"
    return "incomparable"


def _report(name: str, params: dict, lhs: ArityIndexed, rhs: ArityIndexed) -> ClosureReport:
    """Both sides of an identity over classes or over constraint sets; their differences only where they differ."""
    lhs_only, rhs_only = ([], []) if lhs == rhs else ((lhs - rhs).sorted_keys(), (rhs - lhs).sorted_keys())
    wits = [_describe(lhs.decode(n, key)) + " (lhs only)" for n, key in lhs_only[:MAX_WITNESSES]]
    wits += [_describe(rhs.decode(n, key)) + " (rhs only)" for n, key in rhs_only[:MAX_WITNESSES]]
    return ClosureReport(name, params, len(lhs), len(rhs), wits, _verdict(lhs_only, rhs_only))


def _findings(name: str, params: dict, lhs_size: int, rhs_size: int, wits: list[str]) -> ClosureReport:
    """A check that passes iff it found nothing to list."""
    return ClosureReport(name, params, lhs_size, rhs_size, wits, "incomparable" if wits else "equal")


# ---------------------------------------------------------------------------
# closure-law and Galois-axiom audits


def audit(name: str, samples, check) -> ClosureReport:
    """Run ``check`` on each sample until ``MAX_WITNESSES`` violations are found.

    ``check(*sample)`` returns the sample's violations.  ``lhs_size`` counts
    the samples checked and ``rhs_size`` those with no violation; each listed
    violation names its sample's number.
    """
    checked = passed = 0
    violations: list[str] = []
    for sample in samples:
        checked += 1
        found = check(*sample)
        passed += not found
        violations += [f"sample {checked}: {v}" for v in found]
        if len(violations) >= MAX_WITNESSES:
            break
    return _findings(name, {"samples": checked}, checked, passed, violations[:MAX_WITNESSES])


def check_closure_laws(op, samples, name: str = "closure-laws") -> ClosureReport:
    """Audit extensivity, monotonicity and idempotence of a closure operator.

    ``samples`` yields (X, Y) pairs with X a subcollection of Y; both are
    FunctionClass or ConstraintSet instances accepted by ``op``.
    """

    def laws(x, y) -> list[str]:
        cx = op(x)
        holds = {"extensive": x.issubset(cx), "monotone": cx.issubset(op(y)), "idempotent": op(cx) == cx}
        return [f"not {law}" for law, ok in holds.items() if not ok]

    return audit(name, samples, laws)


def check_galois_axioms(
    k: FunctionClass,
    t: ConstraintSet,
    n_cap: int,
    m_cap: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ClosureReport:
    """Order reversal, composite extensivity, and the triple-composition
    identities of the correspondence, at the given arity caps."""
    violations: list[str] = []

    def fsc_c(ts):
        return fsc(ts, n_cap, budget)

    def csf_c(ks):
        return csf(ks, m_cap, budget)

    # order reversal on nested pairs obtained by dropping one member
    for x, close, name in ((t, fsc_c, "fsc"), (k, csf_c, "csf")):
        closed = close(x)
        for n, key in x.sorted_keys():
            smaller = x - type(x)(x.dom, x.cod, {n: {key}})
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
    return _findings("galois-axioms", {"n_cap": n_cap, "m_cap": m_cap}, len(k), len(t), violations)


# ---------------------------------------------------------------------------
# factorization identities


def _check_request(name: str, what: str, payload: ArityIndexed, params: dict) -> dict:
    """The parameters the request reads.  Refuses a name ``what`` does not verify,
    a payload that is not a collection of the identity's side, a payload
    holding an arity the identity does not read, and a missing parameter, in
    that order."""
    if name not in IDENTITIES or (name in FACTORIZATION_IDENTITIES) != (what == "identity"):
        raise ValueError(f"unknown {what} {name!r}")
    side, needs, arity = IDENTITIES[name]
    container = FunctionClass if side == "class" else ConstraintSet
    if not isinstance(payload, container):
        raise TypeError(f"{name} needs a {container.__name__}, got a {type(payload).__name__}")
    arity = params[arity] if isinstance(arity, str) else arity
    if arity is not None and payload.arities() not in ((), (arity,)):
        raise ArityMismatchError(f"{name} needs arity {arity}, got arities {list(payload.arities())}")
    missing = [key for key in needs if params[key] is None]
    if missing:
        raise ValueError(f"{name} needs parameter {', '.join(missing)}")
    return {key: params[key] for key in needs}


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
    params = _check_request(identity, "identity", payload, {"n": n, "m": m, "cap": cap})
    if identity == "t15i":
        lhs = fsc_n_of_csf_m(payload, n, m, budget)
        rhs = lo_m_closure(vs_n_closure(payload, budget), m, budget)
    elif identity == "t15ii":
        lhs = csf_m(fsc_n(payload, n, budget), m, budget)
        res = cm_m_closure(payload, m, bounds, budget)
        rhs = lo_n_closure(res.constraints, n, budget)
        # one closure under the caller's bounds; the bench still reads the constant key
        params.update(cm_converged=res.converged, escalations=0)
    elif identity == "t8ii":
        lhs = csf(fsc_n(payload, n, budget), cap, budget)
        res = cm_closure(payload, cap, bounds, budget)
        rhs = lo_n_closure(res.constraints, n, budget)
        params["cm_converged"] = res.converged
    elif identity == "t12ii":
        dom, cod = payload.dom, payload.cod
        n_star = dom.size**m
        # csf_m of a union of classes is the intersection of their csf_m; refuse before building them
        within_budget(constraint_universe_count(dom, cod, m), budget, f"csf_{m} universe constraints")
        lhs = csf_m(fsc(payload, n_star, budget), m, budget)
        res = cm_m_closure(payload, m, bounds, budget)
        rhs = res.constraints
        # one closure under the caller's bounds; the bench still reads the constant key
        params.update(n_star=n_star, cm_converged=res.converged, escalations=0)
    else:  # t4finite
        rhs = vs_closure(payload, cap, budget)
        lhs = FunctionClass.empty(payload.dom, payload.cod)
        for arity in range(cap, 0, -1):  # the widest first: an arity over the budget is refused before any runs
            lhs = lhs | fsc_n_of_csf_m(payload, arity, payload.dom.size**arity, budget)
    return _report(identity, params, lhs, rhs)


# ---------------------------------------------------------------------------
# definability equivalences


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
    params = _check_request(side, "side", payload, {"n": n, "m": m, "cap": cap})
    if side == "thm5":
        predicate = vs_n_closure(payload, budget) == payload  # local closure is trivial here
        fixed = fsc_n_of_csf_m(payload, n, payload.dom.size**n, budget) == payload
    elif side == "thm13":
        predicate = lo_m_closure(payload, m, budget) == payload and vs_n_closure(payload, budget) == payload
        fixed = fsc_n_of_csf_m(payload, n, m, budget) == payload
    elif side == "cor1":
        predicate = True  # every class over a finite domain is locally closed
        fixed = fsc_n_of_csf_m(payload, 1, payload.dom.size, budget) == payload
    elif side == "thm6":
        predicate = (
            lo_n_closure(payload, n, budget) == payload
            and _has_distinguished(payload, cap)
            and cm_closure(payload, cap, bounds, budget).constraints == payload
        )
        fixed = csf(fsc_n(payload, n, budget), cap, budget) == payload
    elif side == "thm14":
        predicate = (
            lo_n_closure(payload, n, budget) == payload
            and canonical_constraint("equality", m, payload.dom, payload.cod) in payload
            and canonical_constraint("empty", m, payload.dom, payload.cod) in payload
            and cm_m_closure(payload, m, bounds, budget).constraints == payload
        )
        fixed = csf_m(fsc_n(payload, n, budget), m, budget) == payload
    else:  # cor2
        unions_ok, _ = union_closure_check(payload, budget)
        predicate = (
            _has_distinguished(payload, cap)
            and unions_ok
            and cm_closure(payload, cap, bounds, budget).constraints == payload
        )
        fixed = csf(fsc_n(payload, 1, budget), cap, budget) == payload
    params.update(predicate=predicate, fixed_point=fixed)
    # cor1's predicate is constant, so its witness names the fixed-point test alone
    detail = f"fixed_point={fixed}" if side == "cor1" else f"predicate={predicate} but fixed_point={fixed}"
    return _findings(side, params, int(predicate), int(fixed), [detail] if predicate != fixed else [])


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


def _sample_ranks(rng: random.Random, total: int, count: int, what: str, budget: int) -> list[int]:
    within_budget(total, budget, f"{what} to sample from")
    # sample picks by index, so this draws the members a list in rank order would
    return rng.sample(range(total), min(count, total))


def random_function_class(
    rng: random.Random, dom: DomainSpec, cod: DomainSpec, arity: int, count: int,
    *, budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> FunctionClass:
    total = function_count(dom, cod, arity)
    picked = _sample_ranks(rng, total, count, f"functions of arity {arity}", budget)
    return FunctionClass(dom, cod, {arity: frozenset(picked)})


def random_constraint_set(
    rng: random.Random, dom: DomainSpec, cod: DomainSpec, arity: int, count: int,
    *, budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ConstraintSet:
    total = constraint_universe_count(dom, cod, arity)
    picked = _sample_ranks(rng, total, count, f"constraints of arity {arity}", budget)
    # rank r * 2^(|B|^arity) + s is the pair (r, s), as enumerate_constraints orders them
    return ConstraintSet(dom, cod, {arity: {divmod(i, 2 ** (cod.size**arity)) for i in picked}})


def nested_class_pair(rng, dom, cod, arity, count, extra, *, budget=DEFAULT_ENUMERATION_BUDGET):
    x = random_function_class(rng, dom, cod, arity, count, budget=budget)
    y = x | random_function_class(rng, dom, cod, arity, extra, budget=budget)
    return x, y


def nested_set_pair(rng, dom, cod, arity, count, extra, *, budget=DEFAULT_ENUMERATION_BUDGET):
    x = random_constraint_set(rng, dom, cod, arity, count, budget=budget)
    y = x | random_constraint_set(rng, dom, cod, arity, extra, budget=budget)
    return x, y
