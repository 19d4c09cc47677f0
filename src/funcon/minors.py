"""Minor formation schemes and conjunctive-minor machinery.

A scheme assembles a target-arity relation from a family of source relations:
each source map reads its coordinates either from the target tuple or from a
shared pool of indeterminates, and membership in the tight minor is witnessed
by an exhaustive search over assignments of domain elements to the
indeterminates.  ``tight_minor_relation`` and ``tight_minor`` compute it, and
``minor_check`` tests a candidate against it in the four modes: they re-check
the minor witnesses of ``constraint_closures.cm_m_closure`` in the tests and
the bench's witness gate.  ``compose_schemes`` flattens a two-level scheme
stack into one scheme with the same tight minor, the transitivity lemma
(acceptance 6) on which the soundness of the cm fixpoint's small steps rests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    ArityMismatchError,
    Constraint,
    DomainMismatchError,
    DomainSpec,
    Relation,
    readings,
    relaxation_of,
    within_budget,
)

DEFAULT_SKOLEM_BUDGET = 2

MODES = ("tight", "restrictive", "extensive", "conjunctive")


@dataclass(frozen=True)
class Scheme:
    """A minor formation scheme: target arity, indeterminate count, source maps.

    Map entries are encoded as ints: values below ``target`` are target
    coordinates, values from ``target`` upward are indeterminates.
    """

    target: int
    indets: int
    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "maps", tuple(tuple(h) for h in self.maps))
        if self.target < 1:
            raise ValueError("target arity must be >= 1")
        if self.indets < 0:
            raise ValueError("indeterminate count must be >= 0")
        if not self.maps:
            raise ValueError("scheme needs a nonempty family of maps")
        for h in self.maps:
            if not h:
                raise ValueError("source arities must be >= 1")
            for e in h:
                if not 0 <= e < self.target + self.indets:
                    raise ValueError(f"map entry {e} out of range for target {self.target}, V={self.indets}")

    def normalized(self) -> "Scheme":
        """Drop unused indeterminates, renumbering the rest in order."""
        used = sorted({e for h in self.maps for e in h if e >= self.target})
        if len(used) == self.indets:
            return self
        remap = {e: self.target + i for i, e in enumerate(used)}
        maps = tuple(tuple(e if e < self.target else remap[e] for e in h) for h in self.maps)
        return Scheme(self.target, len(used), maps)


def tight_minor_relation(
    relations: Sequence[Relation],
    scheme: Scheme,
    domain: DomainSpec | None = None,
    max_indets: int = DEFAULT_SKOLEM_BUDGET,
) -> Relation:
    """The tight conjunctive minor of a relation family via the scheme.

    A target tuple belongs iff some assignment of domain elements to the
    indeterminates puts every source map's reading inside its relation.
    """
    scheme = scheme.normalized()
    within_budget(scheme.indets, max_indets, "scheme indeterminates")
    if len(relations) != len(scheme.maps):
        raise ArityMismatchError(
            f"{len(relations)} relations for {len(scheme.maps)} scheme maps"
        )
    for r, h in zip(relations, scheme.maps):
        if r.arity != len(h):
            raise ArityMismatchError(f"relation arity {r.arity} != map source arity {len(h)}")
    if domain is None:
        domain = relations[0].domain
    for r in relations:
        if r.domain != domain:
            raise DomainMismatchError(f"relation over {r.domain.name!r}, expected {domain.name!r}")
    m, v, size = scheme.target, scheme.indets, domain.size
    # identical (relation, map) pairs contribute one condition
    pairs = {(r.bits, h) for r, h in zip(relations, scheme.maps)}
    conditions = [(r_bits, readings(h, m + v, size)) for r_bits, h in pairs]
    bits = 0
    for e in range(size ** (m + v)):  # e ranks the extended tuple (a, sigma)
        if all(r_bits >> reading[e] & 1 for r_bits, reading in conditions):
            bits |= 1 << (e // size**v)
    return Relation(domain, m, bits)


def tight_minor(
    family: Sequence[Constraint],
    scheme: Scheme,
    max_indets: int = DEFAULT_SKOLEM_BUDGET,
) -> Constraint:
    """Tight minor of a constraint family: both sides via the same scheme."""
    if not family:
        raise ValueError("family must be nonempty")
    ante = tight_minor_relation([c.antecedent for c in family], scheme, family[0].dom, max_indets)
    cons = tight_minor_relation([c.consequent for c in family], scheme, family[0].cod, max_indets)
    return Constraint(ante, cons)


def minor_check(
    candidate: Constraint,
    family: Sequence[Constraint],
    scheme: Scheme,
    mode: str,
    max_indets: int = DEFAULT_SKOLEM_BUDGET,
) -> bool:
    """Whether the candidate is a minor of the family in the given mode.

    tight: exact equality with the tight minor; restrictive: antecedent
    contained in the tight antecedent; extensive: consequent containing the
    tight consequent; conjunctive: both, i.e. a relaxation of the tight minor.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if candidate.arity != scheme.target:
        raise ArityMismatchError(f"candidate arity {candidate.arity} != scheme target {scheme.target}")
    tm = tight_minor(family, scheme, max_indets)
    if mode == "tight":
        return candidate == tm
    if mode == "restrictive":
        return candidate.antecedent.issubset(tm.antecedent)
    if mode == "extensive":
        return tm.consequent.issubset(candidate.consequent)
    return relaxation_of(candidate, tm)


def compose_schemes(outer: Scheme, inner_schemes: Sequence[Scheme]) -> Scheme:
    """Flatten a two-level scheme stack into one scheme.

    The tight minor of the flattened family equals the tight minor of the
    outer scheme applied to the tight minors of the inner ones; the inner
    indeterminate pools are renamed apart so the combined Skolem search
    ranges over all of them jointly.
    """
    if len(inner_schemes) != len(outer.maps):
        raise ArityMismatchError(
            f"{len(inner_schemes)} inner schemes for {len(outer.maps)} outer maps"
        )
    for h, inner in zip(outer.maps, inner_schemes):
        if inner.target != len(h):
            raise ArityMismatchError(
                f"inner target {inner.target} != outer source arity {len(h)}"
            )
    m = outer.target
    total_indets = outer.indets + sum(s.indets for s in inner_schemes)
    maps: list[tuple[int, ...]] = []
    offset = outer.indets
    for h, inner in zip(outer.maps, inner_schemes):
        for g in inner.maps:
            row = []
            for e in g:
                if e < inner.target:
                    v = h[e]
                    # outer entries keep coordinates; outer indets shift past m
                    row.append(v if v < outer.target else m + (v - outer.target))
                else:
                    row.append(m + offset + (e - inner.target))
            maps.append(tuple(row))
        offset += inner.indets
    return Scheme(m, total_indets, tuple(maps)).normalized()
