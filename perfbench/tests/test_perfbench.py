"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests -q
"""

import random
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import pytest  # noqa: E402

import reference  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, relabel_set, t2_battery, witness_failures  # noqa: E402

funcon = worker.load_funcon(HERE.parent.parent)


def fingerprint(workload, ops, workdir):
    """Everything the program is handed by a pass, with the workdir path removed."""
    out = []
    for op in ops:
        for item in op.payload:
            if isinstance(item, list):  # a cli argv
                out.append([a.replace(str(workdir), "<w>") for a in item])
            elif hasattr(item, "constraints"):
                out.append(sorted((c.antecedent.bits, c.consequent.bits) for c in item.constraints()))
            else:
                out.append(item)
    if workload.name == "cli-function-side":
        out += sorted((p.name, p.read_text()) for p in (workdir / "docs").glob("*.json"))
    return out


def run_inputs(name, seed, workdir):
    workdir.mkdir()
    workload = WORKLOADS[name](funcon, seed, workdir)
    return fingerprint(workload, workload.build_ops(), workdir)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    first = run_inputs(name, 7, tmp_path / "a")
    assert first == run_inputs(name, 7, tmp_path / "b")
    assert first != run_inputs(name, 8, tmp_path / "c")


def test_relabeling_keeps_class_sizes():
    rng = random.Random(3)
    dom = funcon.DomainSpec("bool", 2)
    for _ in range(20):
        t = funcon.random_constraint_set(rng, dom, dom, 2, rng.randint(1, 3))
        relabeled = relabel_set(funcon, t, rng)
        assert len(funcon.fsc_n(relabeled, 2)) == len(funcon.fsc_n(t, 2))
        assert len(relabeled) == len(t)


def test_small_class_sets_are_those_with_at_most_256_fsc4_members():
    workload = WORKLOADS["t15ii-m2n4"]
    small = {i for i, t in enumerate(t2_battery(funcon)) if len(funcon.fsc_n(t, 4)) <= 256}
    assert small == workload.SMALL_CLASS_SETS


def test_witness_check_catches_a_forged_witness():
    dom = funcon.DomainSpec("bool", 2)
    leq = funcon.Relation.from_tuples(dom, 2, [(0, 0), (0, 1), (1, 1)])
    t = funcon.ConstraintSet.from_constraints(dom, dom, [funcon.Constraint(leq, leq)])
    res = funcon.cm_m_closure(t, 2)
    assert witness_failures(funcon, t, 2, res) == 0
    kinds = {w.kind: (c, w) for c, w in res.witnesses.items()}
    assert set(kinds) == {"seed", "relaxation", "minor"}
    c_minor, minor = kinds["minor"]
    c_relax, relax = kinds["relaxation"]
    # a minor witness moved to another member no longer re-checks in tight
    # mode, and a member that is not an input constraint is no seed
    res.witnesses = {**res.witnesses, c_relax: minor, c_minor: type(relax)("seed")}
    assert witness_failures(funcon, t, 2, res) == 2


def test_untraced_m3_gate_checks_its_recomputation_against_the_op(tmp_path):
    workload = WORKLOADS["t15ii-m3"](funcon, 1, tmp_path)
    t3 = workload._set("not-all-equal")
    rep = funcon.verify_factorization("t15ii", t3, n=2, m=3)
    escalations = rep.parameters["escalations"]
    failure = workload._closure_failure(t3, 2, escalations, rep.rhs_size + 1)
    assert failure and "right side" in failure
    assert workload._closure_failure(t3, 2, escalations, rep.rhs_size) is None


def test_supported_percentiles_need_ten_samples_beyond():
    assert stats.supported_percentiles(19) == []
    assert stats.supported_percentiles(20) == [50]
    assert stats.supported_percentiles(99) == [50]
    assert stats.supported_percentiles(100) == [50, 90]
    assert stats.supported_percentiles(999) == [50, 90]
    assert stats.supported_percentiles(1000) == [50, 90, 99]
    assert stats.highest_supported_percentile(22) == 50
    assert stats.highest_supported_percentile(5) is None


def test_percentile_interpolates_linearly():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(values, 50) == 3.0
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 5.0
    assert stats.percentile(values, 90) == pytest.approx(4.6)
    assert stats.percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_self_time_subtracts_what_children_cover():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.x", 1.5, 2.0, 1, 0),
        ("a.y", 2.5, 3.5, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
        ("b.z", 4.5, 6.0, 4, 0),  # starts before its parent: only 5.0..6.0 counts
        ("b.w", 5.5, 7.0, 4, 0),  # overlaps its sibling: 6.0..7.0 is new cover
        ("other", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 0.5, 1.0, 2.0, 1.5, 1.5, 1.0])


def traced_run(ops):
    """Layer metrics of a hand-driven tracer: one set-up call, then ops that
    each look one key up in a cache that always hits."""
    tracer = tracing.Tracer()
    enumerate_functions = tracer._wrap("core.enumerate_functions", lambda: [0, 1], None)
    load = tracer._wrap("cache.load", lambda key: "stored", tracing._count_cache_load)
    enumerate_functions()
    load("warm-up")
    for op in range(ops):
        tracer.op = op
        load(op)
    return tracer, tracing.layer_metrics(tracer, 1.0, ops)


def test_layer_metrics_are_per_op_and_leave_set_up_out():
    one, four = traced_run(1)[1], traced_run(4)[1]
    for name in ("cache.lookups", "cache.hits", "trace.spans"):
        assert one[name] == four[name] == (1.0, "count/op"), name
    assert one["cache.hit_ratio"] == (1.0, "ratio")
    assert one["core.enumerate_functions.self_s"] == (0.0, "s/op")
    assert one["core.enumerate_functions.setup_self_s"][0] > 0
    tracer, metrics = traced_run(4)
    load_self = sum(e - s for n, s, e, p, op in tracer.spans if n == "cache.load" and op >= 0)
    assert metrics["cache.load.self_s"] == (pytest.approx(load_self / 4), "s/op")


def funcon_attributes():
    """Every attribute of every funcon module and of the classes they define."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "funcon" or name.startswith("funcon."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("funcon"):
                    for key, member in vars(value).items():
                        out[(name, attr, key)] = member
    return out


def same(before, after):
    return before.keys() == after.keys() and all(before[k] is after[k] for k in before)


def tracer_made(value):
    func = getattr(value, "__func__", value)
    return getattr(func, "__module__", None) == "tracer"


def test_untraced_run_leaves_funcon_unwrapped(tmp_path):
    before = funcon_attributes()
    assert not any(tracer_made(v) for v in before.values())
    wrapped_during_op = []

    class Spy(WORKLOADS["cli-function-side"]):
        def run(self, op):
            wrapped_during_op.append(any(map(tracer_made, funcon_attributes().values())))
            return super().run(op)

    workload = Spy(funcon, 1, tmp_path)
    spans, failures, untraced = worker.run_round(workload, workload.build_ops()[:48])
    assert failures == [None] * 48 and untraced == [] and len(spans) == 48
    assert wrapped_during_op and not any(wrapped_during_op)
    assert same(before, funcon_attributes())


def test_traced_block_wraps_then_restores(tmp_path):
    before = funcon_attributes()
    tracer = tracing.Tracer()
    with tracer:
        during = funcon_attributes()
        for key in (("funcon.lab", "fsc_n"), ("funcon.cli", "verify_factorization"),
                    ("funcon.core", "FunctionClass", "from_tables"),
                    ("funcon.cache", "ResultCache", "load")):
            assert tracer_made(during[key]), key
    assert same(before, funcon_attributes())
    workload = WORKLOADS["cli-function-side"](funcon, 1, tmp_path)
    spans, failures, untraced = worker.run_round(workload, workload.build_ops()[:24], None, tracer)
    assert failures == [None] * 24 and len(untraced) == len(spans) == 24
    assert same(before, funcon_attributes())
    names = {span[0] for span in tracer.spans}
    assert {"cli.run_command", "instance_io.parse_instance", "cache.store"} <= names
    assert {span[4] for span in tracer.spans} <= set(range(len(spans))) | {tracing.CHECK_OP}


def test_cli_rounds_hit_and_miss_alike(tmp_path):
    """Each pass starts from an empty cache, so a later round repeats the
    first one's hits, and a request must print the same bytes every round."""
    workload = WORKLOADS["cli-function-side"](funcon, 1, tmp_path)
    ops = workload.build_ops()[:48]
    hits = []
    for index in range(2):
        workload.begin_round(index)
        before = workload.props["observed_hits"]
        assert worker.run_round(workload, ops)[1] == [None] * 48
        hits.append(sum(op.meta.get("spelling") == "identical" for op in ops))
    assert workload.props["observed_hits"] == hits[0] > 0  # counted in the first round only
    assert workload.props["requests"] == 48
    first = next(op for op in ops if op.kind != "verify" and op.meta.get("of") is None)
    workload.stdout_of[first.meta["id"]] += "changed"
    assert worker.run_round(workload, [first])[1] == [
        "request printed different bytes than in the first round"]


def test_seconds_per_ref_takes_the_median_near_the_span():
    samples = [(0.0, 0.001), (1.0, 1.002), (2.0, 2.003), (5.0, 5.004), (9.0, 9.010)]
    # within one second of 1.5..2.5: the samples starting at 1.0 and 2.0,
    # plus the nearest one after the span, at 5.0
    assert reference.seconds_per_ref(samples, 1.5, 2.5, window=1.0) == pytest.approx(0.003)
    # nothing within the window: the nearest sample on each side
    assert reference.seconds_per_ref(samples, 6.0, 7.0, window=1.0) == pytest.approx(0.007)
    assert reference.seconds_per_ref(samples, 10.0, 11.0, window=1.0) == pytest.approx(0.010)


def test_ref_clock_times_the_reference_work_once_per_interval():
    clock = reference.RefClock()
    clock.tick()
    clock.tick()  # less than REF_INTERVAL later: no second timing
    assert len(clock.samples) == 1
    clock.tick(force=True)
    assert len(clock.samples) == 2
    (s0, e0), (s1, e1) = clock.samples
    assert 0 < e0 - s0 and e0 <= s1 < e1
    span = (e1, e1 + 4 * (e1 - s1))
    assert clock.in_refs(*span) == pytest.approx(4 * (e1 - s1) / statistics.median([e0 - s0, e1 - s1]))
