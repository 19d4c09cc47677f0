"""Instance documents: a JSON surface grammar for domains, functions,
relations, constraints, classes, sets and schemes, with canonical
serialization and deterministic report formatting.

The grammar is one table, ``SECTIONS``.  ``parse_instance`` walks it once,
checking every binding name and entry shape in one place before each
section's builder runs that section's own checks through ``_require``.  The
document keeps every binding with the validated spec it was built from;
``InstanceDocument.lookup`` reads a binding, and ``serialize_instance``
canonicalizes the specs.  Documents are immutable and shared:
``parse_instance`` memoizes them on the text.  Listings are joined from
cached JSON fragments of member tables and relations.

Canonicalization invariants: parsing a canonical document and serializing it
returns the same bytes; serializing any parsed document is idempotent.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from types import MappingProxyType

from .core import (
    Constraint,
    ConstraintSet,
    DomainSpec,
    FunctionClass,
    FunctionTable,
    Relation,
    tuple_unrank,
)
from .lab import ClosureReport
from .minors import Scheme


class InstanceParseError(ValueError):
    """Malformed document text; carries line/column when available."""


class InstanceSemanticError(ValueError):
    """Well-formed document with an invalid binding; names the binding."""


_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")


@dataclass(frozen=True)
class InstanceDocument:
    """Named bindings parsed from one instance file: per section, the built
    bindings and the validated specs they were built from, all read-only.
    ``lookup(section, name)`` is the one way a binding is read, by the CLI
    and by the section builders alike."""

    bindings: Mapping[str, Mapping]
    specs: Mapping[str, Mapping]

    def lookup(self, section: str, name: str, binding: str | None = None):
        """The named binding of a section.  A reference made while building a
        binding passes that binding's label, which prefixes its errors."""
        kind, table = SECTIONS[section][0], self.bindings[section]
        where = f"{binding}: " if binding else ""
        if not isinstance(name, str):
            raise InstanceSemanticError(f"{where}{kind} reference {name!r} must be a name")
        if name not in table:
            raise InstanceSemanticError(f"{where}{kind} {name!r} is not defined")
        return table[name]


def _require(cond: bool, binding: str, message: str) -> None:
    """A check of one binding, whose failure names the binding."""
    if not cond:
        raise InstanceSemanticError(f"{binding}: {message}")


def parse_scheme_literal(text: str, binding: str = "scheme") -> Scheme:
    """Parse 'target=2; V=1; h1=[c1,v1]; h2=[v1,c2]' into a Scheme.

    Entries c<i> read target coordinate i, entries v<i> read indeterminate i,
    both 1-based; maps must be named h1..hk consecutively.
    """
    parts = [p.strip() for p in text.split(";") if p.strip()]
    fields: dict[str, str] = {}
    for part in parts:
        _require("=" in part, binding, f"expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        _require(key not in fields, binding, f"duplicate key {key!r}")
        fields[key] = value.strip()
    for needed in ("target", "V"):
        _require(needed in fields, binding, f"missing {needed!r}")
    try:
        target = int(fields.pop("target"))
        indets = int(fields.pop("V"))
    except ValueError as exc:
        raise InstanceSemanticError(f"{binding}: target and V must be integers") from exc
    maps = []
    for i in range(1, len(fields) + 1):
        key = f"h{i}"
        _require(key in fields, binding, f"maps must be named h1..h{len(fields)}, missing {key!r}")
        value = fields[key]
        _require(value.startswith("[") and value.endswith("]"), binding, f"{key} must be a [..] entry list")
        row = []
        for entry in value[1:-1].split(","):
            entry = entry.strip()
            m = re.fullmatch(r"([cv])(\d+)", entry)
            _require(m is not None, binding, f"{key} entry {entry!r} is not c<i> or v<i>")
            kind, idx = m.group(1), int(m.group(2))
            bound = target if kind == "c" else indets
            _require(1 <= idx <= bound, binding, f"{key} entry {entry!r} out of range 1..{bound}")
            row.append(idx - 1 if kind == "c" else target + idx - 1)
        _require(bool(row), binding, f"{key} must be nonempty")
        maps.append(tuple(row))
    _require(bool(maps), binding, "scheme needs at least one map h1")
    try:
        return Scheme(target, indets, tuple(maps))
    except ValueError as exc:
        raise InstanceSemanticError(f"{binding}: {exc}") from exc


def scheme_literal(s: Scheme) -> str:
    parts = [f"target={s.target}", f"V={s.indets}"]
    for i, h in enumerate(s.maps, start=1):
        entries = ",".join(
            f"c{e + 1}" if e < s.target else f"v{e - s.target + 1}" for e in h
        )
        parts.append(f"h{i}=[{entries}]")
    return "; ".join(parts)


def _integer(value, low: int, high: float = float("inf")) -> bool:
    """A JSON integer in low..high.  JSON booleans are refused, although
    Python counts them as integers."""
    return type(value) is int and low <= value <= high


def _check_values(values: list, size: int, binding: str, what: str) -> None:
    for v in values:
        if not _integer(v, 0, size - 1):
            raise InstanceSemanticError(f"{binding}: {what} {v!r} out of range 0..{size - 1}")


def _domain(ref, name, binding, size) -> DomainSpec:
    _require(_integer(size, 1), binding, f"size must be a positive integer, got {size!r}")
    return DomainSpec(name, size)


def _function(ref, name, binding, spec) -> FunctionTable:
    dom, cod = ref("domains", spec["dom"]), ref("domains", spec["cod"])
    arity, table = spec["arity"], spec["table"]
    _require(_integer(arity, 1), binding, "arity must be a positive integer")
    _require(isinstance(table, list), binding, "table must be an array")
    expected = dom.size**arity
    _require(len(table) == expected, binding, f"expected {expected} entries, got {len(table)}")
    _check_values(table, cod.size, binding, "table value")
    return FunctionTable(dom, cod, arity, tuple(table))


def _relation(ref, name, binding, spec) -> Relation:
    dom = ref("domains", spec["domain"])
    arity, tuples = spec["arity"], spec["tuples"]
    _require(_integer(arity, 1), binding, "arity must be a positive integer")
    _require(isinstance(tuples, list), binding, "tuples must be an array of arrays")
    for t in tuples:
        _require(isinstance(t, list) and len(t) == arity, binding, f"tuple {t!r} does not have arity {arity}")
        _check_values(t, dom.size, binding, "element")
    return Relation.from_tuples(dom, arity, [tuple(t) for t in tuples])


def _constraint(ref, name, binding, spec) -> Constraint:
    ante, cons = ref("relations", spec["antecedent"]), ref("relations", spec["consequent"])
    _require(ante.arity == cons.arity, binding, f"antecedent arity {ante.arity} != consequent arity {cons.arity}")
    return Constraint(ante, cons)


def _members(kind, member_section, make, sep, ref, name, binding, spec):
    """A class or a set: every member, a binding of member_section, lies over
    the collection's domains."""
    dom, cod = ref("domains", spec["dom"]), ref("domains", spec["cod"])
    members = spec["members"]
    member_kind = SECTIONS[member_section][0]
    _require(isinstance(members, list), binding, f"members must be an array of {member_kind} names")
    found = []
    for member in members:
        x = ref(member_section, member)
        _require((x.dom, x.cod) == (dom, cod), binding,
                 f"member {member!r} is over {x.dom.name!r}{sep}{x.cod.name!r}, {kind} is over {dom.name!r}{sep}{cod.name!r}")
        found.append(x)
    return make(dom, cod, found)


def _scheme(ref, name, binding, literal) -> Scheme:
    _require(isinstance(literal, str), binding, "scheme literal must be a string")
    return parse_scheme_literal(literal, binding)


# The document grammar, sections in the order they are parsed and serialized.
# section: (binding kind, entry keys in the order they are checked and
# serialized or () for bare values, builder).  A builder gets a lookup
# ref(section, name) of the bindings so far, labelling its errors with this
# binding, the binding's name and label, and an entry whose name, shape and
# keys are already checked.
SECTIONS = {
    "domains": ("domain", (), _domain),
    "functions": ("function", ("dom", "cod", "arity", "table"), _function),
    "relations": ("relation", ("domain", "arity", "tuples"), _relation),
    "constraints": ("constraint", ("antecedent", "consequent"), _constraint),
    "classes": ("class", ("dom", "cod", "members"),
                partial(_members, "class", "functions", FunctionClass.from_tables, "->")),
    "sets": ("set", ("dom", "cod", "members"),
             partial(_members, "set", "constraints", ConstraintSet.from_constraints, "-to-")),
    "schemes": ("scheme", (), _scheme),
}


def _frozen(value):
    """A deep copy of a JSON value with arrays as tuples, objects read-only."""
    if isinstance(value, list):
        return tuple(map(_frozen, value))
    if isinstance(value, dict):
        return MappingProxyType({key: _frozen(v) for key, v in value.items()})
    return value


def _as_dict(value, binding: str) -> dict:
    _require(isinstance(value, dict), binding, f"expected an object, got {type(value).__name__}")
    return value


@lru_cache(maxsize=32)
def parse_instance(text: str) -> InstanceDocument:
    """Parse and fully validate an instance document, memoized on the text
    (a text that fails is not memoized, so it raises on every call)."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise InstanceParseError("document root must be a JSON object")
    extra = raw.keys() - SECTIONS.keys()
    if extra:
        raise InstanceSemanticError(f"document: unknown sections {sorted(extra)}")
    bindings, specs = {s: {} for s in SECTIONS}, {s: {} for s in SECTIONS}
    lookup = InstanceDocument(bindings, specs).lookup  # reads the tables as they fill
    for section, (kind, keys, build) in SECTIONS.items():
        for name, spec in _as_dict(raw.get(section, {}), section).items():
            if not isinstance(name, str) or not _NAME.match(name):
                raise InstanceSemanticError(f"{section}: invalid binding name {name!r}")
            binding = f"{kind} {name!r}"
            if keys:
                spec = _as_dict(spec, binding)
                extra = spec.keys() - keys
                _require(not extra, binding, f"unknown keys {sorted(extra)}")
                for key in keys:
                    _require(key in spec, binding, f"missing {key!r}")
            ref = partial(lookup, binding=binding)
            bindings[section][name] = build(ref, name, binding, spec)
            specs[section][name] = spec
    return InstanceDocument(_frozen(bindings), _frozen(specs))


def _canonical(spec, keys: tuple[str, ...], binding):
    """A validated spec in canonical form: keys in table order, relation
    tuples and members sorted and deduplicated, scheme literals re-rendered."""
    if isinstance(binding, Scheme):
        return scheme_literal(binding)
    if not keys:
        return spec
    out = {key: spec[key] for key in keys}
    if "tuples" in out:
        out["tuples"] = [list(t) for t in sorted({tuple(t) for t in spec["tuples"]})]
    if "members" in out:
        out["members"] = sorted(set(spec["members"]))
    return out


def serialize_instance(doc: InstanceDocument) -> str:
    """Canonical text of a document: sorted names, canonical specs."""
    out = {}
    for section, (_, keys, _) in SECTIONS.items():
        if specs := doc.specs[section]:
            bindings = doc.bindings[section]
            out[section] = {name: _canonical(specs[name], keys, bindings[name]) for name in sorted(specs)}
    return json.dumps(out, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# canonical result listings


# a member's fields are written six spaces in, and so is each line of their values
_DEPTH = "\n      "


@lru_cache(maxsize=4096)
def _table_fragment(cod_size: int, width: int, rank: int) -> str:
    """The listed table of the function of the given rank."""
    return json.dumps(tuple_unrank(rank, cod_size, width), indent=2).replace("\n", _DEPTH)


@lru_cache(maxsize=4096)
def _relation_fragment(size: int, arity: int, bits: int) -> str:
    """The listed tuples of the relation of the given bitmask, in rank order."""
    tuples = [tuple_unrank(r, size, arity) for r in range(size**arity) if bits >> r & 1]
    return json.dumps(tuples, indent=2).replace("\n", _DEPTH)


def _listing(kind: str, records: list[str]) -> str:
    """The bytes json.dumps gives for a listing, joined from member records."""
    if not records:
        return json.dumps({"kind": kind, "count": 0, "members": []}, indent=2) + "\n"
    head = f'{{\n  "kind": "{kind}",\n  "count": {len(records)},\n  "members": [\n'
    return head + ",\n".join(records) + "\n  ]\n}\n"


def class_listing(k: FunctionClass) -> str:
    record = '    {{\n      "arity": {},\n      "table": {}\n    }}'.format
    a, b = k.dom.size, k.cod.size
    return _listing("class", [record(n, _table_fragment(b, a**n, r)) for n, r in k.sorted_keys()])


def set_listing(t: ConstraintSet) -> str:
    record = '    {{\n      "arity": {0},\n      "antecedent": {1},\n      "consequent": {2}\n    }}'.format
    a, b = t.dom.size, t.cod.size
    return _listing("set", [record(n, _relation_fragment(a, n, r), _relation_fragment(b, n, s))
                            for n, (r, s) in t.sorted_keys()])


def format_report(report: ClosureReport) -> str:
    """Structured text record of a report: identical inputs give identical bytes."""
    lines = [f"report: {report.identity_name}"]
    for key in sorted(report.parameters):
        lines.append(f"  {key}: {report.parameters[key]}")
    lines.append(f"  lhs_size: {report.lhs_size}")
    lines.append(f"  rhs_size: {report.rhs_size}")
    lines.append(f"  verdict: {report.verdict}")
    for wit in report.symmetric_difference:
        lines.append(f"  witness: {wit}")
    return "\n".join(lines) + "\n"
