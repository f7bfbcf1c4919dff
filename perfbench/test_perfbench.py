"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from bench import run  # noqa: E402
from tracer import MODULES, SpanIndex, Tracer  # noqa: E402
from workloads import TOY_WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bindings():
    """Every module attribute and class attribute the tracer may replace."""
    mods = [importlib.import_module("entrodual")] + [
        importlib.import_module(f"entrodual.{m}") for m in MODULES]
    out = {}
    for mod in mods:
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if inspect.isclass(value) and value.__module__.startswith("entrodual"):
                for attr, member in vars(value).items():
                    out[(value.__qualname__, attr)] = member
    return out


@pytest.mark.parametrize("name", sorted(TOY_WORKLOADS))
def test_toy_workload_runs_and_checks(name, tmp_path):
    result = run(TOY_WORKLOADS[name], seed=3, seconds=0.0, traced=False,
                 out_root=tmp_path)
    assert result["correct"], name
    assert (result["attempted"], result["failed"]) == (1, 0)
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["maxcut-n4000", "ot-k16"])
def test_traced_run_reports_layers_and_restores(name, tmp_path):
    before = _bindings()
    result = run(TOY_WORKLOADS[name], seed=3, seconds=0.0, traced=True,
                 out_root=tmp_path)
    after = _bindings()
    assert result["correct"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []

    lines = (tmp_path / name / "spans.jsonl").read_text().splitlines()
    spans = [[s["name"], s["parent"], s["t0"], s["t1"], s["count"]]
             for s in map(json.loads, lines)]
    index = SpanIndex(spans)
    solve_total = index.total_ms(["solver.solve"])
    below = [i for i, s in enumerate(spans) if s[0] == "solver.solve"
             or any(spans[a][0] == "solver.solve" for a in index._ancestors(i))]
    self_sum = sum((spans[i][3] - spans[i][2] - index.child_time[i]) * 1e3
                   for i in below)
    assert self_sum == pytest.approx(solve_total, rel=1e-9)


def test_self_time_plus_children_is_total():
    tracer = Tracer()

    def leaf():
        time.sleep(0.002)

    def middle():
        time.sleep(0.001)
        wrapped_leaf()
        wrapped_leaf()

    def outer():
        wrapped_middle()
        time.sleep(0.001)

    wrapped_leaf = tracer.wrap("t.leaf", leaf)
    wrapped_middle = tracer.wrap("t.middle", middle)
    tracer.wrap("t.outer", outer)()
    spans = tracer.take()
    assert [s[0] for s in spans] == ["t.outer", "t.middle", "t.leaf", "t.leaf"]
    index = SpanIndex(spans)
    for i, (_, _, t0, t1, _) in enumerate(spans):
        children = sum(c[3] - c[2] for c in spans if c[1] == i)
        self_time = (t1 - t0) - index.child_time[i]
        assert self_time >= 0.0
        assert self_time + children == pytest.approx(t1 - t0, abs=1e-12)
    total = index.total_ms(["t.outer"])
    parts = sum(index.self_ms([f"t.{n}"]) for n in ("outer", "middle", "leaf"))
    assert parts == pytest.approx(total, rel=1e-12)
    assert index.total_ms(["t.leaf"]) >= 4.0


def test_install_restores_every_binding():
    before = _bindings()
    tracer = Tracer()
    try:
        tracer.install()
        from entrodual import solver
        assert solver.draw_probes is not before[("entrodual.solver", "draw_probes")]
        assert tracer.spans == []
    finally:
        tracer.restore()
    after = _bindings()
    assert all(before[k] is after[k] for k in before)
