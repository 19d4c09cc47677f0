"""The benchmark's three workloads: seeded input generators, the timed op of
each, and the correctness gate each op must pass.

Every workload is a closed loop with one client: the next op starts when the
previous one returns.  A run builds one seeded list of ops whose composition
(which instances, at which arities) is fixed, while its inputs are drawn from
the seed, and runs that list ``ROUNDS`` times, or more until ``--seconds`` of
op latency is measured.  On the two t15ii workloads the seed draws a
relabeling of every instance: a permutation of the constraint coordinates and
independent value swaps on A and on B.  A function f satisfies (R, S) exactly
when sigma_B . f . sigma_A^-1 satisfies the relabeled pair, so relabeling
changes every bitmask the program sees while keeping every class and closure
size, which keeps the cost of a run about the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

# Seed of acceptance test 4's T2 battery, whose six random sets are reused.
ACCEPTANCE_SEED = 20260823


@dataclass
class Op:
    kind: str
    payload: tuple
    meta: dict = field(default_factory=dict)


class Workload:
    """Interface of a workload; ``props`` collects measured input properties."""

    name = ""
    ROUNDS = 1
    round = 0

    def warm_up(self):
        """Set-up work a user pays once per process, done before timing."""

    def build_ops(self) -> list[Op]:
        """The run's ops, drawn from the seed; every round runs them in order."""
        raise NotImplementedError

    def begin_round(self, index):
        self.round = index

    def prepare(self, op):
        """Untimed work before each run of an op."""

    def run(self, op):
        """The timed call."""
        raise NotImplementedError

    def check(self, op, result):
        """None when the op passed its gate, else the reason it failed."""
        raise NotImplementedError

    def snapshot(self):
        """State a timed op changes, so that the op can run twice from it."""
        return None

    def restore(self, state):
        pass


def relabel_relation(fc, r, perm, swap):
    """The Boolean relation {(t[perm[0]]^swap, ..) : t in r}."""
    tuples = [tuple(t[p] ^ swap for p in perm) for t in r.tuples()]
    return fc.core.Relation.from_tuples(r.domain, r.arity, tuples)


def relabel_set(fc, t, rng):
    """t under seeded value swaps on A and on B and, per arity, a seeded
    permutation of the coordinates."""
    swap_a, swap_b = rng.randrange(2), rng.randrange(2)
    out = []
    for m in t.arities():
        perm = list(range(m))
        rng.shuffle(perm)
        for c in t.constraints():
            if c.arity == m:
                out.append(fc.core.Constraint(
                    relabel_relation(fc, c.antecedent, perm, swap_a),
                    relabel_relation(fc, c.consequent, perm, swap_b),
                ))
    return fc.core.ConstraintSet.from_constraints(t.dom, t.cod, out)


def t15ii_failure(rep):
    """Gate of both t15ii workloads; None when the report passes."""
    if rep.verdict != "equal":
        return f"verdict {rep.verdict}"
    params = rep.parameters
    if "cm_converged" not in params or "escalations" not in params:
        return "report does not record cm_converged and escalations"
    if not params["cm_converged"]:
        return "cm closure did not converge"
    return None


def t2_battery(fc):
    """Acceptance test 4's battery: order, equality, trivial, empty, graphs of
    the four unary maps and pairs of them, then random sets up to 22."""
    core = fc.core
    bool_ = core.DomainSpec("bool", 2)
    leq = core.Relation.from_tuples(bool_, 2, [(0, 0), (0, 1), (1, 1)])
    eq = core.Relation.from_tuples(bool_, 2, [(0, 0), (1, 1)])

    def cset(*cs):
        return core.ConstraintSet.from_constraints(bool_, bool_, cs)

    graphs = [
        core.Relation.from_tuples(bool_, 2, [(a, table[a]) for a in (0, 1)])
        for table in itertools.product((0, 1), repeat=2)
    ]
    battery = [
        cset(core.Constraint(leq, leq)),
        cset(core.Constraint(eq, eq)),
        cset(core.Constraint(leq, leq), core.Constraint(eq, eq)),
        cset(core.Constraint(core.Relation.full(bool_, 2), core.Relation.full(bool_, 2))),
        cset(core.Constraint(core.Relation.empty(bool_, 2), core.Relation.empty(bool_, 2))),
        core.ConstraintSet.empty(bool_, bool_),
    ]
    battery += [cset(core.Constraint(g, g)) for g in graphs]
    battery += [cset(core.Constraint(g1, g2)) for g1, g2 in itertools.combinations(graphs, 2)]
    rng = random.Random(ACCEPTANCE_SEED)
    while len(battery) < 22:
        battery.append(fc.lab.random_constraint_set(rng, bool_, bool_, 2, rng.randint(1, 3)))
    return battery


class T15iiM2N4(Workload):
    """verify t15ii --n 4 --m 2 over the relabeled T2 battery."""

    name = "t15ii-m2n4"
    # Copies of each battery set in a run, each under its own relabeling.
    # The eleven sets whose FSC_4 class has at most 256 members (relabeling
    # keeps the size) take 0.05-0.5 s and the two SLOWEST_SETS 3.6-4.9 s;
    # they run once, the nine whose ops take 1.0-1.4 s three times: 40 ops,
    # about 30 s.  So neither the median nor p90 falls in the gap between two
    # of these cost groups (with every set once or twice the median sat
    # between the slowest small-class op and the fastest middle one), and the
    # two slowest sets do not take half the run.
    SMALL_CLASS_SETS = frozenset({0, 2, 8, 10, 11, 13, 14, 15, 16, 19, 20})
    SLOWEST_SETS = frozenset({3, 21})
    COPIES = 3

    def __init__(self, fc, seed, workdir, tracer=None):
        self.fc = fc
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.battery = t2_battery(fc)
        self.props = {"antecedent_sizes": {}, "csf_sizes": {}}
        if tracer is not None:
            self.props["fsc_sizes"] = {}

    def warm_up(self):
        # fills the lru-cached arity-4 function universe, as a user's first call does
        empty = self.fc.core.ConstraintSet.empty(self.battery[0].dom, self.battery[0].cod)
        self.run(Op("warm-up", (empty,)))

    def build_ops(self):
        ops = [Op("t2", (relabel_set(self.fc, t, self.rng),))
               for i, t in enumerate(self.battery)
               for _ in range(1 if i in self.SMALL_CLASS_SETS | self.SLOWEST_SETS else self.COPIES)]
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        return self.fc.lab.verify_factorization("t15ii", op.payload[0], n=4, m=2)

    def check(self, op, rep):
        t = op.payload[0]
        if self.round:
            return t15ii_failure(rep)
        for c in t.constraints():
            _bump(self.props["antecedent_sizes"], len(c.antecedent))
        _bump(self.props["csf_sizes"], rep.lhs_size)
        if self.tracer is not None:
            # |FSC_4(T)| of the op's own fsc_n call; an untraced run would
            # have to call fsc_n again, as long as a third of the op
            args, kwargs, fsc = self.tracer.captured["satisfaction.fsc_n"]
            if args[0] is t:
                _bump(self.props["fsc_sizes"], len(fsc))
        return t15ii_failure(rep)


def ternary_pool(fc):
    """Structured Boolean ternary relations of the t15ii-m3 pool."""
    core = fc.core
    bool_ = core.DomainSpec("bool", 2)

    def rel(pred):
        return core.Relation.from_tuples(
            bool_, 3, [t for t in itertools.product((0, 1), repeat=3) if pred(*t)]
        )

    return {
        "not-all-equal": rel(lambda a, b, c: not a == b == c),
        "even-parity": rel(lambda a, b, c: (a + b + c) % 2 == 0),
        "chain": rel(lambda a, b, c: a <= b <= c),
        "horn": rel(lambda a, b, c: not (a and b) or c),
        "clause": rel(lambda a, b, c: a or b or c),
        "majority": rel(lambda a, b, c: a + b + c >= 2),
    }


POOL_ARITIES = (2, 3)


class T15iiM3(Workload):
    """verify t15ii --m 3 over relabeled pairs from the ternary pool."""

    name = "t15ii-m3"
    # Each pool relation R enters as the pair (R, R) under one seeded
    # relabeling, which also yields the odd-parity, reversed-chain,
    # anti-Horn, negative-clause and at-most-one variants, and is verified
    # at n = 2 and n = 3: 12 ops, about 27 s, plus about 9 s of witness
    # re-checks.  Two relabelings (24 ops) made a run take 65-75 s, more
    # than the time all runs may take together leaves.  The one-in-three
    # pair is left out: its 6561-member closure takes 18-20 s per op plus
    # 15 s for the witness re-check, more than a run can hold.
    RELABELINGS = 1

    def __init__(self, fc, seed, workdir, tracer=None):
        self.fc = fc
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.pool = ternary_pool(fc)
        self.props = {"closure_sizes": {}, "cm_members": {}}
        self.route_checked = False

    def _set(self, name):
        r = self.pool[name]
        t = self.fc.core.ConstraintSet.from_constraints(
            r.domain, r.domain, [self.fc.core.Constraint(r, r)]
        )
        return relabel_set(self.fc, t, self.rng)

    def warm_up(self):
        # the lru-cached function universes at arities 2 and 3, on a unary set
        r = self.pool["chain"]
        unary = self.fc.core.Relation.from_tuples(r.domain, 1, [(0,)])
        t1 = self.fc.core.ConstraintSet.from_constraints(
            r.domain, r.domain, [self.fc.core.Constraint(unary, unary)]
        )
        for n in POOL_ARITIES:
            self.fc.lab.verify_factorization("t15ii", t1, n=n, m=1)

    def build_ops(self):
        ops = []
        for name in self.pool:
            for _ in range(self.RELABELINGS):
                t3 = self._set(name)
                shared: dict = {}
                ops += [Op(name, (t3, n), {"witness_checks": shared}) for n in POOL_ARITIES]
        self.rng.shuffle(ops)
        return ops

    def run(self, op):
        t3, n = op.payload
        return self.fc.lab.verify_factorization("t15ii", t3, n=n, m=3)

    def check(self, op, rep):
        failure = t15ii_failure(rep)
        if failure:
            return failure
        if not self.round:
            _bump(self.props["closure_sizes"], rep.rhs_size)
        t3, n = op.payload
        escalations = rep.parameters["escalations"]
        done = op.meta["witness_checks"]  # shared by the n = 2 and n = 3 ops of t3
        if escalations not in done:
            done[escalations] = self._closure_failure(t3, n, escalations, rep.rhs_size)
        return done[escalations]

    def _closure_failure(self, t3, n, escalations, rhs_size):
        """None when every witness of the op's cm closure re-checks.

        A traced run checks the CmResult the op's last cm_m_closure call
        returned, as the tracer captured it.  An untraced run installs no
        wrapper, so it checks a recomputation instead: cm_m_closure with the
        bounds lab's escalation reached.  That copies lab's bound logic, so
        the run's first recomputation, and every one after an escalation,
        must also give the op's right side under lo_n_closure; if lab stops
        calling cm_m_closure with these bounds, the gate fails here instead
        of checking witnesses the op never used.  (Checking every op would
        add about 5 s to a run.)
        """
        cc = self.fc.constraint_closures
        res = None
        if self.tracer is not None:
            args, kwargs, captured = self.tracer.captured["constraint_closures.cm_m_closure"]
            if args[0] is t3:
                res = captured
        if res is None:
            bounds = cc.CmBounds(max_indets=cc.CmBounds().max_indets + escalations)
            res = cc.cm_m_closure(t3, 3, bounds)
            if escalations or not self.route_checked:
                size = len(cc.lo_n_closure(res.constraints, n))
                if size != rhs_size:
                    return (f"recomputed cm closure gives a right side of {size}, "
                            f"the op's has {rhs_size}")
                self.route_checked = True
        _bump(self.props["cm_members"], len(res.constraints))
        bad = witness_failures(self.fc, t3, 3, res)
        return f"{bad} unsound cm witnesses" if bad else None


def witness_failures(fc, t, m, res):
    """Number of members of a CmResult whose witness does not re-check: seeds
    against the input and the canonical constraints, relaxations with
    relaxation_of, minors with minor_check in tight mode."""
    core, minors = fc.core, fc.minors
    members = res.constraints
    seeds = set(t.members(m))
    seeds |= {core.canonical_constraint(k, m, t.dom, t.cod) for k in ("equality", "empty")}
    bad = 0
    for c, wit in res.witnesses.items():
        if c not in members:
            ok = False
        elif wit.kind == "seed":
            ok = c in seeds
        elif wit.kind == "relaxation":
            r, s = wit.parent
            parent = core.Constraint(core.Relation(t.dom, m, r), core.Relation(t.cod, m, s))
            ok = parent in members and core.relaxation_of(c, parent)
        elif wit.kind == "minor":
            ok = all(f in members for f in wit.family) and minors.minor_check(
                c, list(wit.family), wit.scheme, "tight", max_indets=wit.scheme.indets
            )
        else:
            ok = False
        bad += not ok
    return bad + (len(res.witnesses) != len(members))


class CliFunctionSide(Workload):
    """A seeded stream of in-process funcon.cli.run_command requests with the
    result cache on, over generated instance documents."""

    name = "cli-function-side"
    # A run's ops are PASSES passes of 24 requests, each pass on its own
    # document; every round runs all of them, each pass from an empty cache,
    # so that every round hits and misses alike.  About 2 s a round; an op's
    # figure is its median over the rounds.
    PASSES = 16
    ROUNDS = 6
    REPEATS_PER_PASS = 6

    def __init__(self, fc, seed, workdir, tracer=None):
        self.fc = fc
        self.rng = random.Random(seed)
        self.docs = workdir / "docs"
        self.cache_dir = workdir / "cache"
        (self.docs / "sub").mkdir(parents=True)
        self.cache_dir.mkdir()
        self.next_id = 0
        self.stdout_of: dict[int, str] = {}
        self.cache_files = 0
        self.props = {"requests": 0, "identical_repeats": 0, "equivalent_repeats": 0,
                      "cacheable": 0, "observed_hits": 0}

    def _document(self, name):
        """Boolean functions at arities 2 and 3 and five two-member classes."""
        rng = self.rng
        functions, classes = {}, {}
        for arity, count in ((2, 6), (3, 6)):
            for i, table in enumerate(rng.sample(range(2 ** 2**arity), count)):
                bits = [(table >> j) & 1 for j in range(2**arity)]
                functions[f"f{arity}_{i}"] = {"dom": "bool", "cod": "bool", "arity": arity, "table": bits}
        for cls, arity in (("K2a", 2), ("K2b", 2), ("K2c", 2), ("K3a", 3), ("K3b", 3)):
            members = rng.sample([f"f{arity}_{i}" for i in range(6)], 2)
            classes[cls] = {"dom": "bool", "cod": "bool", "members": members}
        doc = {"domains": {"bool": 2}, "functions": functions, "classes": classes}
        path = self.docs / name
        path.write_text(json.dumps(doc, indent=1))
        return path

    def build_ops(self):
        return [op for index in range(self.PASSES) for op in self._pass(index)]

    def _pass(self, index):
        rng = self.rng
        path = self._document(f"p{index}.json")
        k2 = lambda: rng.choice(("K2a", "K2b", "K2c"))
        k3 = lambda: rng.choice(("K3a", "K3b"))
        specs = []  # (command words, flag pairs)
        specs += [(["verify", "t15i"], [("--class", k2()), ("--n", "2"), ("--m", str(m))]) for m in (1, 2, 3, 4)]
        specs += [(["verify", "t15i"], [("--class", k3()), ("--n", "3"), ("--m", str(m))]) for m in (1, 2)]
        specs += [(["verify", "thm13"], [("--class", k2()), ("--n", "2"), ("--m", str(m))]) for m in (1, 2)]
        specs += [(["verify", "thm13"], [("--class", k3()), ("--n", "3"), ("--m", "1")])]
        specs += [(["close", "vsn"], [("--class", k())]) for k in (k2, k3)]
        specs += [(["close", "lom"], [("--class", k2()), ("--m", str(m))]) for m in (1, 2)]
        specs += [(["close", "lom"], [("--class", k3()), ("--m", "1")])]
        specs += [(["galois", "csf"], [("--class", k()), ("--arity", str(a))]) for k in (k2, k3) for a in (1, 2)]
        ops = []
        for words, flags in specs:
            argv = self._argv(words, [("--in", str(path))] + flags)
            ops.append(Op(words[0], (argv,), {"id": self.next_id, "of": None}))
            self.next_id += 1
        rng.shuffle(ops)
        cacheable = [op for op in ops if op.kind != "verify"]
        for orig in rng.sample(cacheable, self.REPEATS_PER_PASS):
            words, flags = orig.payload[0][2:4], self._flags(orig.payload[0][4:])
            if rng.random() < 0.5:
                argv, spelling = list(orig.payload[0]), "identical"
            else:
                argv, spelling = self._equivalent(words, flags), "equivalent"
            repeat = Op(orig.kind, (argv,), {"id": None, "of": orig.meta["id"], "spelling": spelling})
            ops.insert(rng.randint(ops.index(orig) + 1, len(ops)), repeat)
        ops[0].meta["pass_start"] = True
        return ops

    def prepare(self, op):
        if op.meta.get("pass_start"):
            for entry in os.listdir(self.cache_dir):
                os.unlink(self.cache_dir / entry)
            self.cache_files = 0

    def _argv(self, words, flags):
        return ["--cache-dir", str(self.cache_dir)] + words + [x for pair in flags for x in pair]

    @staticmethod
    def _flags(rest):
        return list(zip(rest[0::2], rest[1::2]))

    def _equivalent(self, words, flags):
        """The same request spelled differently: flags reordered, or the
        document named through another path."""
        flags = list(flags)
        if self.rng.random() < 0.5:
            flags.reverse()
        else:
            flags = [(f, self._other_path(v) if f == "--in" else v) for f, v in flags]
        return self._argv(words, flags)

    def _other_path(self, path):
        p = Path(path)  # pathlib would drop a "." component, so join by hand
        step = "sub/.." if self.rng.random() < 0.5 else "."
        return f"{p.parent}/{step}/{p.name}"

    def warm_up(self):
        # imports, parser construction and the small function universes
        path = str(self._document("warm-up.json"))
        for n in ("2", "3"):
            flags = [("--in", path), ("--class", f"K{n}a"), ("--n", n), ("--m", "1")]
            self.run(Op("warm-up", (self._argv(["verify", "t15i"], flags),)))

    def run(self, op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.fc.cli.run_command(op.payload[0])
        return code, out.getvalue(), err.getvalue()

    def check(self, op, result):
        code, stdout, stderr = result
        props = self.props
        if not self.round:
            props["requests"] += 1
        if op.kind != "verify":
            files = len(os.listdir(self.cache_dir))
            if not self.round:
                props["cacheable"] += 1
                props["observed_hits"] += files == self.cache_files
            self.cache_files = files
        if op.meta.get("of") is not None and not self.round:
            props[op.meta["spelling"] + "_repeats"] += 1
        if code != 0:
            return f"exit code {code}: {stderr.strip()[:200]}"
        if op.kind == "verify" and "  verdict: equal\n" not in stdout:
            return "verify verdict is not equal"
        # a repeat prints what the request it repeats printed, and a request
        # prints in every round what it printed in the first
        key = op.meta["of"] if op.meta.get("of") is not None else op.meta["id"]
        if self.stdout_of.setdefault(key, stdout) != stdout:
            return ("repeated request printed different bytes" if op.meta.get("of") is not None
                    else "request printed different bytes than in the first round")
        return None

    def snapshot(self):
        return set(os.listdir(self.cache_dir))

    def restore(self, state):
        for entry in set(os.listdir(self.cache_dir)) - state:
            os.unlink(self.cache_dir / entry)


def _bump(histogram, key):
    key = str(key)
    histogram[key] = histogram.get(key, 0) + 1


WORKLOADS = {w.name: w for w in (T15iiM2N4, T15iiM3, CliFunctionSide)}
