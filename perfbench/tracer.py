"""In-memory span tracer for the traced benchmark run.

Wrappers are installed at the module attributes through which funcon looks
its public functions up (``funcon.lab.fsc_n``, ``funcon.cli.verify_factorization``
and so on) and on the class attributes of a few methods.  Each call records a
span ``(name, start, end, parent, op)``; ``parent`` is the index of the
enclosing span or -1, ``op`` the id of the benchmark op that was running
(``SETUP_OP`` during set-up, ``CHECK_OP`` during correctness checks).  Counts
are computed from call arguments and results, outside set-up.  Nothing in
``src/`` changes, and an untraced run never creates a Tracer.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

SETUP_OP = -1
CHECK_OP = -2

MODULES = (
    "core",
    "satisfaction",
    "function_closures",
    "minors",
    "constraint_closures",
    "lab",
    "instance_io",
    "cache",
    "cli",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_fsc_n(c, args, kwargs, result):
    t, n = _arg(args, kwargs, 0, "t"), _arg(args, kwargs, 1, "n")
    c["satisfaction.fsc_n.candidates"] += t.cod.size ** (t.dom.size**n)
    c["satisfaction.fsc_n.kept"] += len(result)


def _count_csf_m(c, args, kwargs, result):
    c["satisfaction.csf_m.class_members"] += len(_arg(args, kwargs, 0, "k"))


def _count_from_tables(c, args, kwargs, result):
    c["core.FunctionClass.from_tables.members"] += len(result)


def _count_lo_m(c, args, kwargs, result):
    k = _arg(args, kwargs, 0, "k")
    c["function_closures.lo_m_closure.candidates"] += sum(
        k.cod.size ** (k.dom.size**n) for n in k.arities()
    )
    c["function_closures.lo_m_closure.kept"] += len(result)


def _count_verify(c, args, kwargs, result):
    c["lab.escalations"] += result.parameters.get("escalations", 0)


def _count_cm_m(c, args, kwargs, result):
    c["constraint_closures.cm_m_closure.members"] += len(result.constraints)
    c["constraint_closures.cm_m_closure.iterations"] += result.iterations
    c["constraint_closures.cm_m_closure.converged"] += result.converged


def _count_minor_check(c, args, kwargs, result):
    c["minors.minor_check.failures"] += not result


def _count_cache_load(c, args, kwargs, result):
    c["cache.lookups"] += 1
    c["cache.hits"] += result is not None


def _count_cache_store(c, args, kwargs, result):
    c["cache.bytes_written"] += len(_arg(args, kwargs, 2, "value").encode())


# (span name, module, attribute path, counter); several attributes may share
# a span name, and the last result of the functions named in CAPTURED is kept
# so the correctness checks can read it without calling the function again.
TARGETS = (
    ("satisfaction.fsc_n", "satisfaction", "fsc_n", _count_fsc_n),
    ("satisfaction.csf_m", "satisfaction", "csf_m", _count_csf_m),
    ("satisfaction.satisfies", "satisfaction", "satisfies", None),
    ("satisfaction.minimal_consequent", "satisfaction", "minimal_consequent", None),
    ("core.FunctionClass.from_tables", "core", "FunctionClass.from_tables", _count_from_tables),
    ("core.ConstraintSet.from_constraints", "core", "ConstraintSet.from_constraints", None),
    ("core.enumerate_functions", "core", "enumerate_functions", None),
    ("function_closures.vs_n_closure", "function_closures", "vs_n_closure", None),
    ("function_closures.lo_m_closure", "function_closures", "lo_m_closure", _count_lo_m),
    ("lab.verify_factorization", "lab", "verify_factorization", _count_verify),
    ("lab.verify_definability", "lab", "verify_definability", None),
    ("lab.fsc_n_of_csf_m", "lab", "fsc_n_of_csf_m", None),
    ("constraint_closures.cm_m_closure", "constraint_closures", "cm_m_closure", _count_cm_m),
    ("constraint_closures.lo_n_closure", "constraint_closures", "lo_n_closure", None),
    ("minors.minor_check", "minors", "minor_check", _count_minor_check),
    ("instance_io.parse_instance", "instance_io", "parse_instance", None),
    ("instance_io.listing", "instance_io", "class_listing", None),
    ("instance_io.listing", "instance_io", "set_listing", None),
    ("instance_io.listing", "instance_io", "format_report", None),
    ("cache.load", "cache", "ResultCache.load", _count_cache_load),
    ("cache.store", "cache", "ResultCache.store", _count_cache_store),
    ("cli.run_command", "cli", "run_command", None),
)
CAPTURED = ("satisfaction.fsc_n", "constraint_closures.cm_m_closure")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.captured: dict[str, tuple] = {}
        self.op = SETUP_OP
        self._stack: list[int] = []
        self._patches_cache: list | None = None

    def _wrap(self, name, fn, count):
        spans, stack, counters, captured = self.spans, self._stack, self.counters, self.captured
        keep = name in CAPTURED

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = self.op
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if count is not None and op != SETUP_OP:
                count(counters, args, kwargs, result)
            if keep:
                captured[name] = (args, kwargs, result)
            return result

        def traced_generator(*args, **kwargs):
            # the span runs from the first next() to exhaustion; it is nobody's parent
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            op = self.op
            start = perf_counter()
            try:
                yield from fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, perf_counter(), parent, op)

        wrapper = traced_generator if inspect.isgeneratorfunction(fn) else traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patches(self):
        """(owner, attribute, original, wrapper) for every place a funcon
        module or class refers to a target."""
        modules = [m for k, m in list(sys.modules.items()) if k == "funcon" or k.startswith("funcon.")]
        patches = []
        for name, module_name, path, count in TARGETS:
            owner = sys.modules["funcon." + module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    patches.append((cls, attr, raw, classmethod(self._wrap(name, raw.__func__, count))))
                else:
                    patches.append((cls, attr, raw, self._wrap(name, raw, count)))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original, wrapper))
        return patches

    def __enter__(self):
        """Install the wrappers; leaving the block removes them again."""
        if self._patches_cache is None:
            self._patches_cache = self._patches()
        for owner, attr, original, wrapper in self._patches_cache:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, wrapper in self._patches_cache:
            setattr(owner, attr, original)
        return False

    def write(self, path: Path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, op_seconds: float, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per timed op, so that they do not grow with the
    number of ops a run fits in: self time and counts of the spans of the
    ops and their checks, divided by ``ops``.  Set-up spans count only in
    ``core.enumerate_functions.setup_self_s``, the work behind the lru-cached
    function universes.  The ``share.<module>`` figures are each module's self
    time inside the timed ops as a percentage of ``op_seconds``, their summed
    latency."""
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    module_self: dict[str, float] = defaultdict(float)
    enumerate_setup_s = 0.0
    for (name, start, end, parent, op), s in zip(tracer.spans, selfs):
        if op == SETUP_OP:
            if name == "core.enumerate_functions":
                enumerate_setup_s += s
            continue
        calls[name] += 1
        self_s[name] += s
        if op >= 0:
            module_self[name.split(".", 1)[0]] += s
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "satisfaction.fsc_n",
        "satisfaction.csf_m",
        "satisfaction.satisfies",
        "satisfaction.minimal_consequent",
        "core.FunctionClass.from_tables",
        "core.ConstraintSet.from_constraints",
        "core.enumerate_functions",
        "function_closures.vs_n_closure",
        "function_closures.lo_m_closure",
        "lab.verify_factorization",
        "lab.fsc_n_of_csf_m",
        "constraint_closures.cm_m_closure",
        "constraint_closures.lo_n_closure",
        "instance_io.parse_instance",
        "instance_io.listing",
        "cache.load",
        "cache.store",
        "cli.run_command",
    ):
        out[f"{name}.self_s"] = (self_s[name] / ops, "s/op")
    out["core.enumerate_functions.setup_self_s"] = (enumerate_setup_s, "s")
    for name in (
        "satisfaction.fsc_n.candidates",
        "satisfaction.fsc_n.kept",
        "satisfaction.csf_m.class_members",
        "core.FunctionClass.from_tables.members",
        "function_closures.lo_m_closure.candidates",
        "function_closures.lo_m_closure.kept",
        "lab.escalations",
        "constraint_closures.cm_m_closure.members",
        "constraint_closures.cm_m_closure.iterations",
        "minors.minor_check.failures",
        "cache.lookups",
        "cache.hits",
    ):
        out[name] = (c[name] / ops, "count/op")
    for name in ("satisfaction.satisfies", "minors.minor_check"):
        out[f"{name}.calls"] = (calls[name] / ops, "count/op")
    out["cache.bytes_written"] = (c["cache.bytes_written"] / ops, "bytes/op")
    out["satisfaction.fsc_n.kept_ratio"] = (
        ratio(c["satisfaction.fsc_n.kept"], c["satisfaction.fsc_n.candidates"]), "ratio")
    out["constraint_closures.cm_m_closure.converged_ratio"] = (
        ratio(c["constraint_closures.cm_m_closure.converged"], calls["constraint_closures.cm_m_closure"]), "ratio")
    out["cache.hit_ratio"] = (ratio(c["cache.hits"], c["cache.lookups"]), "ratio")
    for module in MODULES:
        out[f"share.{module}"] = (100 * ratio(module_self[module], op_seconds), "%")
    out["share.untraced"] = (100 * ratio(op_seconds - sum(module_self.values()), op_seconds), "%")
    out["trace.spans"] = (sum(calls.values()) / ops, "count/op")
    return out
