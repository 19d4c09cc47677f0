"""Command-line surface: close, galois, verify, enumerate, laws.

Exit codes: 0 success; 1 a verification found a discrepancy (report emitted);
2 usage or parse error; 3 an enumeration budget refusal.

A well-formed request is read in one pass over the parser's own action table;
argparse parses everything else and prints all help, usage and error text.
Every command builds its stdout text inside one ``try`` in ``run_command``,
whose one tail writes it, prints the ``elapsed:`` line and picks the exit code.
The listings of close and galois go through the result cache, keyed on the
document text and each argument, each framed by its length; a closure cut off
by --max-iterations is never cached, so it warns on every run.

Output on stdout is canonical and byte-stable for fixed inputs and seed;
runtimes and warnings go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time

from .cache import ResultCache, cache_key, resolve_cache_dir
from .constraint_closures import (
    CmBounds,
    cm_closure,
    cm_m_closure,
    lo_n_closure,
)
from .core import (
    DEFAULT_ENUMERATION_BUDGET,
    ArityMismatchError,
    BudgetExceededError,
    ConstraintSet,
    DomainSpec,
    FunctionClass,
    enumerate_constraints,
    enumerate_functions,
)
from .function_closures import lo_m_closure, vs_closure, vs_n_closure
from .instance_io import (
    InstanceParseError,
    InstanceSemanticError,
    class_listing,
    format_report,
    parse_instance,
    set_listing,
)
from .lab import (
    FACTORIZATION_IDENTITIES,
    IDENTITIES,
    audit,
    check_closure_laws,
    check_galois_axioms,
    nested_class_pair,
    nested_set_pair,
    random_constraint_set,
    random_function_class,
    verify_definability,
    verify_factorization,
)
from .satisfaction import csf, csf_m, fsc, fsc_n

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that records every action it declares, and its plain stores by key."""

    def __init__(self, *args, **kwargs):
        self.declared, self.stores = [], {}
        super().__init__(*args, **kwargs)

    def _record(self, action, plain):
        self.declared.append(action)
        for key in action.option_strings or [None]:  # None: the first positional; a key mapped to None declines
            self.stores.setdefault(key, action if plain else None)
        return action

    def add_argument(self, *args, **kwargs):  # a plain store names no action and no nargs
        return self._record(super().add_argument(*args, **kwargs), not {"action", "nargs"} & kwargs.keys())

    def add_subparsers(self, **kwargs):  # its choices map each command word to its parser
        return self._record(super().add_subparsers(**kwargs), True)

    def error(self, message):  # argparse exits 2 already; keep message on stderr
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    pass


def _positive_int(text: str) -> int:
    """argparse type of the arity, size, cap, sample-count and budget flags."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache  # built on the first request, then shared by the process
def _build_parser() -> _Parser:
    p = _Parser(prog="funcon", description="Finite-domain function/constraint Galois workbench")
    p.add_argument("--cache-dir", help="result cache directory (overrides FUNCON_CACHE_DIR)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--in", dest="infile", required=True, help="instance document")
        sp.add_argument("--budget", type=_positive_int, default=DEFAULT_ENUMERATION_BUDGET)

    def shared(sp, class_help=None, set_help=None):  # the flags of close and verify
        sp.add_argument("--class", dest="class_name", help=class_help)
        sp.add_argument("--set", dest="set_name", help=set_help)
        for flag in ("--n", "--m", "--cap"):
            sp.add_argument(flag, type=_positive_int)
        for bound in ("max_indets", "max_iterations"):
            sp.add_argument("--" + bound.replace("_", "-"), type=int, default=getattr(CmBounds(), bound))

    close = sub.add_parser("close", help="apply a closure operator")
    close.add_argument("operator", choices=["vs", "vsn", "lom", "lon", "cmm", "cm"])
    common(close)
    shared(close, "function-class binding", "constraint-set binding")

    galois = sub.add_parser("galois", help="one direction of the correspondence")
    galois.add_argument("direction", choices=["fsc", "csf"])
    common(galois)
    galois.add_argument("--class", dest="class_name")
    galois.add_argument("--set", dest="set_name")
    galois.add_argument("--arity", type=_positive_int, help="single target arity")
    galois.add_argument("--cap", type=_positive_int, help="union over arities 1..cap")

    verify = sub.add_parser("verify", help="two-sided identity / definability check")
    verify.add_argument("identity", choices=list(_VERIFY))
    common(verify)
    shared(verify)

    enum = sub.add_parser("enumerate", help="list a functional or constraint universe")
    enum.add_argument("universe", choices=["functions", "constraints"])
    enum.add_argument("--arity", type=_positive_int, required=True)
    enum.add_argument("--dom-size", type=_positive_int, default=2)
    enum.add_argument("--cod-size", type=_positive_int, default=2)
    enum.add_argument("--budget", type=_positive_int, default=DEFAULT_ENUMERATION_BUDGET)

    laws = sub.add_parser("laws", help="closure-law and Galois-axiom audit")
    laws.add_argument("suite", choices=[*_LAW_SUITES, "axioms"])
    laws.add_argument("--samples", type=_positive_int, default=100)
    laws.add_argument("--seed", type=int, default=0)
    laws.add_argument("--dom-size", type=_positive_int, default=2)
    laws.add_argument("--cod-size", type=_positive_int, default=2)
    laws.add_argument("--arity", type=_positive_int, default=2)
    laws.add_argument("--m", type=_positive_int, default=1)
    laws.add_argument("--n", type=_positive_int, default=1)
    laws.add_argument("--budget", type=_positive_int, default=DEFAULT_ENUMERATION_BUDGET)
    return p


def _parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse builds for a well-formed request, read in one pass over the
    recorded actions; None for anything else (help, an abbreviation, --flag=value, ...)."""
    parser, seen, tokens = _build_parser(), {}, iter(argv)
    for token in tokens:
        action = parser.stores.get(token if token.startswith("-") else None)
        value = next(tokens, "-") if action and action.option_strings else token  # "-": none left
        if action is None or value.startswith("-") or action in seen and not action.option_strings:
            return None
        try:
            value = (action.type or str)(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        seen[action] = value
        if action.nargs == argparse.PARSER:  # the command word: the rest is its parser's
            parser = action.choices[value]
    declared = _build_parser().declared + parser.declared  # with no command word, its action is missing
    if any(action.required and action not in seen for action in declared):
        return None
    return argparse.Namespace(**{a.dest: seen.get(a, a.default) for a in declared if a in seen or a.default is not argparse.SUPPRESS})


def _load_document(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit2(f"cannot read {path}: {exc.strerror if isinstance(exc, OSError) else exc}") from exc
    return text, parse_instance(text)


def _need(args, attr, flag):
    value = getattr(args, attr)
    if value is None:
        raise SystemExit2(f"this command requires {flag}")
    return value


# the document section and the flag naming the binding of each side
_SIDES = {"class": ("classes", "class_name", "--class"), "set": ("sets", "set_name", "--set")}


def _binding(args, doc, side: str):
    section, attr, flag = _SIDES[side]
    return doc.lookup(section, _need(args, attr, flag))


def _bounds(args) -> CmBounds:
    try:
        return CmBounds(max_indets=args.max_indets, max_iterations=args.max_iterations)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from exc


def _run_close(args, doc):
    """The closure and whether it is complete; a cm fixpoint cut off by
    --max-iterations is not."""
    op = args.operator
    if op in ("vs", "vsn", "lom"):
        k = _binding(args, doc, "class")
        if op == "vs":
            return vs_closure(k, _need(args, "cap", "--cap"), args.budget), True
        if op == "vsn":
            return vs_n_closure(k, args.budget), True
        return lo_m_closure(k, _need(args, "m", "--m"), args.budget), True
    t = _binding(args, doc, "set")
    if op == "lon":
        return lo_n_closure(t, _need(args, "n", "--n"), args.budget), True
    if op == "cmm":
        res = cm_m_closure(t, _need(args, "m", "--m"), _bounds(args), args.budget)
    else:
        res = cm_closure(t, _need(args, "cap", "--cap"), _bounds(args), args.budget)
    return res.constraints, res.converged


def _run_galois(args, doc):
    if (args.arity is None) == (args.cap is None):
        raise SystemExit2("exactly one of --arity / --cap is required")
    side, at_arity, up_to_cap = ("set", fsc_n, fsc) if args.direction == "fsc" else ("class", csf_m, csf)
    x = _binding(args, doc, side)
    if args.arity is not None:
        return at_arity(x, args.arity, args.budget)
    return up_to_cap(x, args.cap, args.budget)


def _listing(x) -> str:
    return class_listing(x) if isinstance(x, FunctionClass) else set_listing(x)


def _run_cached(args, argv: list[str]) -> str:
    """The listing of a close or galois request, read from the result cache
    when one is set, else computed and stored there.  A closure cut off by
    --max-iterations is never stored, so its warning comes on every run."""
    text, doc = _load_document(args.infile)
    cache_dir = resolve_cache_dir(args.cache_dir)
    cache = ResultCache(cache_dir) if cache_dir else None
    key = cache_key(args.command, "".join(f"{len(part)}:{part}" for part in (text, *argv)))
    out = cache.load(key) if cache else None
    if out is None:
        result, complete = _run_close(args, doc) if args.command == "close" else (_run_galois(args, doc), True)
        out = _listing(result)
        if not complete:
            print("warning: fixpoint iteration limit reached", file=sys.stderr)
        elif cache:
            cache.store(key, out)
    return out


# the verify command's spelling of each lab identity
_SPELLINGS = {"t4finite": "t4", "t8ii": "t8", "t12ii": "t12"}
_VERIFY = {_SPELLINGS.get(name, name): name for name in IDENTITIES}


def _run_verify(args):
    name = _VERIFY[args.identity]
    side, params, _ = IDENTITIES[name]
    run = verify_factorization if name in FACTORIZATION_IDENTITIES else verify_definability
    bounds = _bounds(args)
    payload = _binding(args, _load_document(args.infile)[1], side)
    kwargs = {p: _need(args, p, "--" + p) for p in params}
    return run(name, payload, bounds=bounds, budget=args.budget, **kwargs)


def _run_enumerate(args):
    dom = DomainSpec("A", args.dom_size)
    cod = DomainSpec("B", args.cod_size)
    if args.universe == "functions":
        return FunctionClass.from_tables(dom, cod, enumerate_functions(dom, cod, args.arity, args.budget))
    return ConstraintSet.from_constraints(dom, cod, enumerate_constraints(dom, cod, args.arity, args.budget))


# each closure suite of `laws`: the nested-pair generator of the side it
# samples, the flag giving the sample arity, and its operator under the flags
_LAW_SUITES = {
    "vsn": (nested_class_pair, "arity", lambda k, args: vs_n_closure(k, args.budget)),
    "vs": (nested_class_pair, "arity", lambda k, args: vs_closure(k, args.arity, args.budget)),
    "lom": (nested_class_pair, "arity", lambda k, args: lo_m_closure(k, args.m, args.budget)),
    "lon": (nested_set_pair, "m", lambda t, args: lo_n_closure(t, args.n, args.budget)),
    "cmm": (nested_set_pair, "m", lambda t, args: cm_m_closure(t, args.m, budget=args.budget).constraints),
}


def _run_laws(args):
    rng = random.Random(args.seed)
    dom = DomainSpec("A", args.dom_size)
    cod = DomainSpec("B", args.cod_size)
    if args.suite == "axioms":
        draw = lambda: (
            random_function_class(rng, dom, cod, args.arity, rng.randint(0, 3), budget=args.budget),
            random_constraint_set(rng, dom, cod, args.m, rng.randint(0, 3), budget=args.budget),
        )
        axioms = lambda k, t: check_galois_axioms(k, t, n_cap=2, m_cap=2, budget=args.budget).symmetric_difference
        rep = audit("galois-axioms", (draw() for _ in range(args.samples)), axioms)
    else:
        pair, arity, op = _LAW_SUITES[args.suite]
        size = getattr(args, arity)
        draw = lambda: pair(rng, dom, cod, size, rng.randint(0, 4), rng.randint(0, 3), budget=args.budget)
        rep = check_closure_laws(lambda x: op(x, args), (draw() for _ in range(args.samples)), args.suite)
    rep.parameters["seed"] = args.seed
    return rep


def run_command(argv: list[str]) -> int:
    started = time.time()
    try:
        args = _parse(argv) or _build_parser().parse_args(argv)
        if args.command in ("close", "galois"):
            out, ok = _run_cached(args, argv), True
        elif args.command == "enumerate":
            out, ok = _listing(_run_enumerate(args)), True
        else:
            rep = _run_verify(args) if args.command == "verify" else _run_laws(args)
            out, ok = format_report(rep), rep.ok
    except (SystemExit2, InstanceParseError, InstanceSemanticError, ArityMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SystemExit as exc:  # argparse's help action exits after the help text
        return exc.code
    sys.stdout.write(out)
    print(f"elapsed: {time.time() - started:.3f}s", file=sys.stderr)
    return EXIT_OK if ok else EXIT_DISCREPANCY


def main() -> None:
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
