"""Command-line surface: close, galois, verify, enumerate, laws.

Exit codes: 0 success; 1 a verification found a discrepancy (report emitted);
2 usage or parse error; 3 an enumeration budget refusal.

Output on stdout is canonical and byte-stable for fixed inputs and seed;
runtimes and warnings go to stderr.
"""

from __future__ import annotations

import argparse
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
    BudgetExceededError,
    DomainSpec,
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
    check_closure_laws,
    check_galois_axioms,
    nested_class_pair,
    nested_set_pair,
    verify_definability,
    verify_factorization,
)
from .satisfaction import csf, csf_m, fsc, fsc_n

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 already; keep message on stderr
        self.print_usage(sys.stderr)
        raise SystemExit2(message)


class SystemExit2(Exception):
    pass


def _build_parser() -> _Parser:
    p = _Parser(prog="funcon", description="Finite-domain function/constraint Galois workbench")
    p.add_argument("--cache-dir", help="result cache directory (overrides FUNCON_CACHE_DIR)")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_in=True):
        if needs_in:
            sp.add_argument("--in", dest="infile", required=True, help="instance document")
        sp.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET)

    close = sub.add_parser("close", help="apply a closure operator")
    close.add_argument("operator", choices=["vs", "vsn", "lom", "lon", "cmm", "cm"])
    common(close)
    close.add_argument("--class", dest="class_name", help="function-class binding")
    close.add_argument("--set", dest="set_name", help="constraint-set binding")
    close.add_argument("--n", type=int)
    close.add_argument("--m", type=int)
    close.add_argument("--cap", type=int)
    close.add_argument("--max-indets", type=int, default=CmBounds().max_indets)
    close.add_argument("--max-family", type=int, default=CmBounds().max_family)
    close.add_argument("--max-iterations", type=int, default=CmBounds().max_iterations)

    galois = sub.add_parser("galois", help="one direction of the correspondence")
    galois.add_argument("direction", choices=["fsc", "csf"])
    common(galois)
    galois.add_argument("--class", dest="class_name")
    galois.add_argument("--set", dest="set_name")
    galois.add_argument("--arity", type=int, help="single target arity")
    galois.add_argument("--cap", type=int, help="union over arities 1..cap")

    verify = sub.add_parser("verify", help="two-sided identity / definability check")
    verify.add_argument("identity", choices=list(_VERIFY))
    common(verify)
    verify.add_argument("--class", dest="class_name")
    verify.add_argument("--set", dest="set_name")
    verify.add_argument("--n", type=int)
    verify.add_argument("--m", type=int)
    verify.add_argument("--cap", type=int)
    verify.add_argument("--max-indets", type=int, default=CmBounds().max_indets)
    verify.add_argument("--max-family", type=int, default=CmBounds().max_family)
    verify.add_argument("--max-iterations", type=int, default=CmBounds().max_iterations)

    enum = sub.add_parser("enumerate", help="list a functional or constraint universe")
    enum.add_argument("universe", choices=["functions", "constraints"])
    enum.add_argument("--arity", type=int, required=True)
    enum.add_argument("--dom-size", type=int, default=2)
    enum.add_argument("--cod-size", type=int, default=2)
    enum.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET)

    laws = sub.add_parser("laws", help="closure-law and Galois-axiom audit")
    laws.add_argument(
        "suite", choices=["vsn", "vs", "lom", "lon", "cmm", "axioms"]
    )
    laws.add_argument("--samples", type=int, default=100)
    laws.add_argument("--seed", type=int, default=0)
    laws.add_argument("--dom-size", type=int, default=2)
    laws.add_argument("--cod-size", type=int, default=2)
    laws.add_argument("--arity", type=int, default=2)
    laws.add_argument("--m", type=int, default=1)
    laws.add_argument("--n", type=int, default=1)
    laws.add_argument("--budget", type=int, default=DEFAULT_ENUMERATION_BUDGET)
    return p


def _load_document(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc.strerror}") from exc
    return text, parse_instance(text)


def _need(args, attr, flag):
    value = getattr(args, attr)
    if value is None:
        raise SystemExit2(f"this command requires {flag}")
    return value


def _bounds(args) -> CmBounds:
    return CmBounds(args.max_family, args.max_indets, args.max_iterations)


def _run_close(args, doc) -> str:
    op = args.operator
    if op in ("vs", "vsn", "lom"):
        k = doc.function_class(_need(args, "class_name", "--class"))
        if op == "vs":
            return class_listing(vs_closure(k, _need(args, "cap", "--cap")))
        if op == "vsn":
            return class_listing(vs_n_closure(k))
        return class_listing(lo_m_closure(k, _need(args, "m", "--m"), args.budget))
    t = doc.constraint_set(_need(args, "set_name", "--set"))
    if op == "lon":
        return set_listing(lo_n_closure(t, _need(args, "n", "--n"), args.budget))
    if op == "cmm":
        res = cm_m_closure(t, _need(args, "m", "--m"), _bounds(args), args.budget)
    else:
        res = cm_closure(t, _need(args, "cap", "--cap"), _bounds(args), args.budget)
    if not res.converged:
        print("warning: fixpoint iteration limit reached", file=sys.stderr)
    return set_listing(res.constraints)


def _run_galois(args, doc) -> str:
    if (args.arity is None) == (args.cap is None):
        raise SystemExit2("exactly one of --arity / --cap is required")
    if args.direction == "fsc":
        t = doc.constraint_set(_need(args, "set_name", "--set"))
        if args.arity is not None:
            return class_listing(fsc_n(t, args.arity, args.budget))
        return class_listing(fsc(t, args.cap, args.budget))
    k = doc.function_class(_need(args, "class_name", "--class"))
    if args.arity is not None:
        return set_listing(csf_m(k, args.arity, args.budget))
    return set_listing(csf(k, args.cap, args.budget))


# identity: its name in the lab and the parameters it needs, in the order
# they are checked
_VERIFY = {
    "t4": ("t4finite", ("cap",)),
    "t8": ("t8ii", ("n", "cap")),
    "t12": ("t12ii", ("m",)),
    "t15i": ("t15i", ("n", "m")),
    "t15ii": ("t15ii", ("n", "m")),
    "thm5": ("thm5", ("n",)),
    "thm6": ("thm6", ("n", "cap")),
    "thm13": ("thm13", ("n", "m")),
    "thm14": ("thm14", ("n", "m")),
    "cor1": ("cor1", ()),
    "cor2": ("cor2", ("cap",)),
}
_CLASS_SIDE = ("t4", "t15i", "thm5", "thm13", "cor1")


def _run_verify(args, doc):
    name, params = _VERIFY[args.identity]
    run = verify_factorization if name in FACTORIZATION_IDENTITIES else verify_definability
    bounds = _bounds(args)
    if args.identity in _CLASS_SIDE:
        payload = doc.function_class(_need(args, "class_name", "--class"))
    else:
        payload = doc.constraint_set(_need(args, "set_name", "--set"))
    kwargs = {p: _need(args, p, "--" + p) for p in params}
    return run(name, payload, bounds=bounds, budget=args.budget, **kwargs)


def _run_enumerate(args) -> str:
    dom = DomainSpec("A", args.dom_size)
    cod = DomainSpec("B", args.cod_size)
    if args.universe == "functions":
        from .core import FunctionClass

        k = FunctionClass.from_tables(
            dom, cod, enumerate_functions(dom, cod, args.arity, args.budget)
        )
        return class_listing(k)
    from .core import ConstraintSet

    t = ConstraintSet.from_constraints(
        dom, cod, enumerate_constraints(dom, cod, args.arity, args.budget)
    )
    return set_listing(t)


def _run_laws(args):
    rng = random.Random(args.seed)
    dom = DomainSpec("A", args.dom_size)
    cod = DomainSpec("B", args.cod_size)
    if args.suite == "axioms":
        from .lab import random_constraint_set, random_function_class

        violations = []
        checked = 0
        for _ in range(args.samples):
            k = random_function_class(rng, dom, cod, args.arity, rng.randint(0, 3))
            t = random_constraint_set(rng, dom, cod, args.m, rng.randint(0, 3))
            rep = check_galois_axioms(k, t, n_cap=2, m_cap=2, budget=args.budget)
            checked += 1
            violations.extend(rep.symmetric_difference)
            if violations:
                break
        from .lab import ClosureReport

        return ClosureReport(
            "galois-axioms",
            {"samples": checked, "seed": args.seed},
            checked,
            checked - (1 if violations else 0),
            violations,
            "equal" if not violations else "incomparable",
        )
    if args.suite in ("vsn", "vs", "lom"):
        samples = (
            nested_class_pair(rng, dom, cod, args.arity, rng.randint(0, 4), rng.randint(0, 3))
            for _ in range(args.samples)
        )
        ops = {
            "vsn": vs_n_closure,
            "vs": lambda k: vs_closure(k, args.arity),
            "lom": lambda k: lo_m_closure(k, args.m, args.budget),
        }
        rep = check_closure_laws(ops[args.suite], samples, args.suite)
    else:
        samples = (
            nested_set_pair(rng, dom, cod, args.m, rng.randint(0, 4), rng.randint(0, 3))
            for _ in range(args.samples)
        )
        ops = {
            "lon": lambda t: lo_n_closure(t, args.n, args.budget),
            "cmm": lambda t: cm_m_closure(t, args.m, budget=args.budget).constraints,
        }
        rep = check_closure_laws(ops[args.suite], samples, args.suite)
    rep.parameters["seed"] = args.seed
    return rep


def run_command(argv: list[str]) -> int:
    parser = _build_parser()
    started = time.time()
    try:
        args = parser.parse_args(argv)
        cache_dir = resolve_cache_dir(args.cache_dir)
        if args.command in ("close", "galois"):
            text, doc = _load_document(args.infile)
            key = cache_key(
                args.command,
                text + "\n" + " ".join(argv),
                {"version_inputs": True},
            )
            cached = ResultCache(cache_dir).load(key) if cache_dir else None
            if cached is not None:
                sys.stdout.write(cached)
            else:
                out = _run_close(args, doc) if args.command == "close" else _run_galois(args, doc)
                if cache_dir:
                    ResultCache(cache_dir).store(key, out)
                sys.stdout.write(out)
            print(f"elapsed: {time.time() - started:.3f}s", file=sys.stderr)
            return EXIT_OK
        if args.command == "verify":
            _, doc = _load_document(args.infile)
            rep = _run_verify(args, doc)
            sys.stdout.write(format_report(rep))
            print(f"elapsed: {time.time() - started:.3f}s", file=sys.stderr)
            return EXIT_OK if rep.ok else EXIT_DISCREPANCY
        if args.command == "enumerate":
            sys.stdout.write(_run_enumerate(args))
            return EXIT_OK
        # laws
        rep = _run_laws(args)
        sys.stdout.write(format_report(rep))
        print(f"elapsed: {time.time() - started:.3f}s", file=sys.stderr)
        return EXIT_OK if rep.ok else EXIT_DISCREPANCY
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InstanceParseError, InstanceSemanticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
