"""Self-tests of the benchmark: ``python3 -m pytest -q bench``."""

import dataclasses
import importlib
import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- generator ----------------------------------------------------------------

def test_generator_is_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7, 60) == workloads.generate(w, 7, 60)
        assert workloads.generate(w, 7, 60) != workloads.generate(w, 8, 60)


def test_generator_keeps_the_block_mix():
    ops = workloads.generate("qform-battery", 3, 40)
    for block in (ops[:20], ops[20:]):
        assert Counter(op.kind for op in block) == {"qform": 12, "compare": 5, "area": 3}
    grids = Counter(op.argv[op.argv.index("--grid") + 1]
                    for op in workloads.generate("residual-export", 3, 14))
    assert grids == {str(g): 2 for g in workloads.RESIDUAL_GRIDS}


def _params(argv):
    return {k: float(v) for k, v in
            (argv[i + 1].split("=") for i, a in enumerate(argv) if a == "--param")}


def test_generator_emits_only_admissible_inputs():
    from solgeo.expressions import catalog, parse
    from solgeo.frame import Point

    for op in workloads.generate("qform-battery", 5, 200):
        p = _params(op.argv)
        if "a" in p:
            assert p["a"] * p["b"] > 0
    for op in workloads.generate("residual-export", 5, 100):
        argv = list(op.argv)
        w = [float(v) for v in argv[argv.index("--window") + 1:][:6]]
        field = (parse(argv[argv.index("--u") + 1]) if "--u" in argv
                 else catalog(argv[argv.index("--surface") + 1], **_params(argv)))
        p = op.spec["point"]
        assert all(lo < c < hi for c, lo, hi in zip(p, w[::2], w[1::2])), op.label
        assert abs(field.value(Point(*p))) < 1e-9, op.label
    lo_e, hi_e = workloads.SWEEP_EPS
    lo_t, hi_t = workloads.SWEEP_T
    for op in workloads.generate("ruled-sweep", 5, 100):
        for (ce, pe, we), (ct, pt, wt) in op.spec["bumps"]:
            assert lo_e < ce - we and ce + we < hi_e and 0 <= pe < we
            assert lo_t < ct - wt and ct + wt < hi_t
            assert ct == 0.0 and pt > workloads.SWEEP_DELTA and pt < wt


# -- oracle -------------------------------------------------------------------

def _first(workload, kind_label):
    return next(op for op in workloads.generate(workload, 1, 60) if kind_label in op.label)


def test_oracle_flags_a_wrong_expectation(tmp_path):
    op = _first("residual-export", "tilted")
    result = workloads.decode(op, workloads.run_op(op, str(tmp_path)))
    assert oracle.check(op, result) == []
    wrong = dataclasses.replace(op, expect={"minimal_flag": True})
    assert any("minimal_flag" in p for p in oracle.check(wrong, result))


def test_oracle_fails_null_and_nonfinite_verdicts():
    op = _first("qform-battery", "area")
    good = {"A_base": 1.0, "A_comp": 1.1, "delta_area": 0.1, "error_estimate": 1e-9,
            "base_strictly_smaller": True}
    assert oracle.check(op, {"rc": 0, "summary": {"area": good}}) == []
    for key, bad in (("delta_area", None), ("A_comp", float("nan")),
                     ("base_strictly_smaller", None)):
        summary = {"area": {**good, key: bad}}
        assert oracle.check(op, {"rc": 0, "summary": summary}), key
    assert oracle.check(op, {"rc": 3})


def test_oracle_checks_ruled_sweeps():
    op = _first("ruled-sweep", "ruled")
    good = {"orthogonality_defect": 0.0, "dt": 0.06,
            "loci": [{"t_center": 0.0}], "jacobi": [0.1], "q": [(1.0, 1e-4)],
            "ode_deviation": 1e-12}
    assert oracle.check(op, good) == []
    for change in ({"orthogonality_defect": 1e-3}, {"loci": []},
                   {"loci": [{"t_center": 0.0}, {"t_center": 1.0}]},
                   {"loci": [{"t_center": 0.5}]}, {"q": [(-1.0, 1e-4)]},
                   {"jacobi": [float("nan")]}, {"ode_deviation": 1e-6}):
        assert oracle.check(op, {**good, **change}), change


# -- span arithmetic ----------------------------------------------------------

def _span(name, start, end, parent, count=0):
    return [name, start, end, parent, 0, count, 0]


def test_self_time_on_a_synthetic_tree():
    tree = [
        _span("op", 0.0, 10.0, -1),
        _span("cli.main", 1.0, 5.0, 0),
        _span("surface.raw_fields", 2.0, 3.0, 1, count=100),
        _span("expressions.values", 2.5, 6.0, 1),   # overruns its parent: clipped
        _span("stability.geom", 6.0, 9.0, 0),
        _span("surface.raw_fields", 7.0, 8.0, 4, count=50),
    ]
    assert spans.self_times(tree) == [3.0, 1.0, 1.0, 3.5, 2.0, 1.0]
    m = spans.layer_metrics(tree)
    assert m["surface.raw_fields_calls"] == 2
    assert m["surface.self_s"] == 2.0
    assert m["surface.nodes_per_call"] == 75
    assert m["stability.geom_frac"] == 0.4  # [6, 9] plus [2, 3], over 10 s
    assert m["trace.coverage_frac"] == pytest.approx(0.7)


def test_union_length_merges_overlaps():
    assert spans.union_length([(0, 2), (1, 3), (5, 6), (6, 7), (4, 4)]) == 5


# -- rebinding ------------------------------------------------------------------

def _bound():
    out = {}
    for mod_name, attr, *_ in spans.FUNCTIONS + spans.WRITERS:
        out[(mod_name, attr)] = getattr(importlib.import_module(mod_name), attr)
    for mod_name, cls_name, meth, *_ in spans.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        out[(mod_name, cls_name, meth)] = cls.__dict__[meth]
    return out


def test_rebinding_is_undone():
    from solgeo.expressions import catalog
    from solgeo.surface import raw_fields

    field = catalog("plane-x")
    before = _bound()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bound()
        assert all(during[k] is not before[k] for k in before)
        import solgeo.stability

        with tracer.op_span(0):
            solgeo.stability.raw_fields(field, 0.0, [1.0, 2.0], 0.0)
    finally:
        tracer.uninstall()
    after = _bound()
    assert all(after[k] is before[k] for k in before)
    assert raw_fields is before[("solgeo.surface", "raw_fields")]
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[:2] == ["op", "surface.raw_fields"]
    assert tracer.spans[1][spans.COUNT] == 2
