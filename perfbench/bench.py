"""One benchmark run: set-up repeats, timed passes, metrics, checks.

A run sets the workload up SETUP_REPS times (setup_s is the median), then
repeats whole passes while another pass still fits in the measuring window,
always at least one. A pass solves to the stop rule once and runs the finish
stage FINISH_REPS times: first under the trace's own seed, then under seeds
drawn from (run seed, pass, repeat). finish_s, the median over all finishes,
thus spans many power-iteration starts inside certify rather than one. Every
pass of a run does the same operations. The checks run once, after the
window, on the last pass's outputs. A traced run installs the tracer for
set-up and passes and reports per-layer medians instead of the end-to-end
metrics; its per-pass figures cover the solve and the first finish.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import SpanIndex, Tracer, write_spans
from workloads import (Workload, check, finish_seed, finish_stage, setup,
                       solve_stage)

SETUP_REPS = 10
FINISH_REPS = 20

APPLY = ["operators.SymOperator.apply"]
EXPM = ["operators.expm_action"]
BOUNDS = ["operators.spectral_bounds"]

# metric -> (aggregate, span name patterns[, enclosing span patterns])
SETUP_LAYERS = {
    "datasets.gen.ms": ("total", ["datasets.gen_*"]),
    "cli.write_problem.ms": ("total", ["cli.write_problem"]),
    "cli.load_problem.ms": ("total", ["cli.load_problem"]),
}
PASS_LAYERS = {
    "operators.apply.cols": ("counts", APPLY),
    "operators.apply.self_ms": ("self", APPLY),
    "operators.expm_action.calls": ("calls", EXPM),
    "operators.expm_action.terms": ("within", APPLY, EXPM),
    "operators.expm_action.self_ms": ("self", EXPM),
    "operators.spectral_bounds.ms": ("total", BOUNDS),
    "operators.spectral_bounds.matvecs": ("within", APPLY, BOUNDS),
    "operators.to_dense.ms": ("total", ["operators.SymOperator.to_dense"]),
    "operators.dense_gibbs.self_ms": ("self", ["operators.dense_gibbs"]),
    "probes.draw_probes.ms": ("total", ["probes.draw_probes"]),
    "probes.draw_probes.cols": ("counts", ["probes.draw_probes"]),
    "probes.probe_gibbs.self_ms": ("self", ["probes.probe_gibbs"]),
    "problems.shifted_operator.ms": ("total", ["problems.*Problem.shifted_operator"]),
    "problems.stochastic_gradient.ms":
        ("total", ["problems.*Problem.stochastic_gradient"]),
    "problems.exact_gradient.self_ms":
        ("self", ["problems.*Problem.exact_gradient", "problems.*Problem.dense_eval"]),
    "problems.update.self_ms": ("self", ["problems.*Problem.update"]),
    "problems.feasibility_error.ms":
        ("total", ["problems.*Problem.feasibility_error"]),
    "norms.primal_norm.ms": ("total", ["norms.primal_norm"]),
    "norms.dual_norm.ms": ("total", ["norms.dual_norm"]),
    "norms.step.ms": ("total", ["norms.step_*"]),
    "solver.solve.ms": ("total", ["solver.solve"]),
    "solver.solve.self_ms": ("self", ["solver.solve"]),
    "solver.write_trace.ms": ("total", ["solver.SolverTrace.write_*"]),
    "solver.certify.ms": ("total", ["solver.certify_gradient_decay"]),
    "rounding.round.ms": ("total", ["rounding.*"]),
}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "iters_to_target": "iters",
                    "iter_ms": "ms", "finish_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    return "ms" if metric.endswith((".ms", "_ms")) else "count"


def layer_values(spans, spec: dict) -> dict:
    index = SpanIndex(spans)
    out = {}
    for name, (how, patterns, *outer) in spec.items():
        if how == "within":
            out[name] = index.calls_within(patterns, outer[0])
        else:
            out[name] = getattr(index, {"total": "total_ms", "self": "self_ms",
                                        "calls": "calls", "counts": "counts"}[how])(patterns)
    return out


def _medians(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def _pass(w: Workload, problem, seed: int, index: int, out_dir: Path, tracer):
    """One solve and FINISH_REPS finishes; the spans of the solve and first finish."""
    out = solve_stage(w, problem, seed)
    spans = []
    for rep in range(FINISH_REPS):
        finish_stage(w, problem, out, out_dir,
                     None if rep == 0 else finish_seed(seed, index, rep))
        if tracer:
            taken = tracer.take()
            if rep == 0:
                spans = taken
    return out, spans


def run(w: Workload, seed: int, seconds: float, traced: bool, out_root: Path) -> dict:
    """Measure one workload; returns the result object the command prints."""
    work = out_root / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    problem_dir = work / "problem"
    tracer = Tracer() if traced else None
    setup_s, setup_layers, passes, pass_layers = [], [], [], []
    attempted = failed = 0
    last_spans = []
    try:
        if tracer:
            tracer.install()
        for _ in range(SETUP_REPS):
            shutil.rmtree(problem_dir, ignore_errors=True)
            tic = time.perf_counter()
            problem = setup(w, seed, problem_dir)
            setup_s.append(time.perf_counter() - tic)
            if tracer:
                setup_layers.append(layer_values(tracer.take(), SETUP_LAYERS))
        start = time.perf_counter()
        while True:
            attempted += 1
            try:
                out, spans = _pass(w, problem, seed, attempted, work / "trace",
                                   tracer)
                passes.append(out)
                if tracer:
                    last_spans = spans
                    pass_layers.append(layer_values(spans, PASS_LAYERS))
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
                if tracer:
                    tracer.take()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / attempted > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer:
            tracer.restore()
    if tracer:
        write_spans(work / "spans.jsonl", last_spans)

    fails, facts = [], {}
    if passes:
        fails = check(w, problem, problem_dir, seed, passes[-1], facts)
        iters = {len(p.trace) for p in passes}
        if len(iters) != 1:
            fails.append(f"iteration counts differ between passes: {sorted(iters)}")
    else:
        fails.append("no pass completed")
    print("checks: " + json.dumps(facts, default=float), file=sys.stderr)
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)

    if traced:
        values = _medians(setup_layers)
        if pass_layers:
            values.update(_medians(pass_layers))
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        values = {"setup_s": statistics.median(setup_s)}
        if passes:
            values.update(
                solve_s=statistics.median(p.solve_s for p in passes),
                iters_to_target=len(passes[-1].trace),
                iter_ms=statistics.median(
                    ms for p in passes for ms in p.recorder.iteration_ms()),
                finish_s=statistics.median(f for p in passes for f in p.finish_s),
            )
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    return {"correct": not fails, "attempted": attempted, "failed": failed,
            "metrics": metrics}
