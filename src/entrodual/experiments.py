"""Replicated solver runs with per-replicate and averaged trace emission.

A spec names a generator kind, its parameters, a solver configuration, and a
replicate count. Replicate r derives its seed as master seed + r and uses it
for both instance generation and the solver's probe stream. Failures are
recorded per replicate and do not abort the remaining replicates. Averaged
curves are taken over the common iteration prefix of the successful runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from entrodual.datasets import (PermSynchModel, gen_er_maxcut, gen_permsynch,
                                gen_synthetic_ot, load_mnist_pair)
from entrodual.problems import check_count
from entrodual.solver import TRACE_COLUMNS, SolverConfig, solve, write_json

__all__ = ["ExperimentSpec", "run_experiment", "build_problem"]


def build_problem(kind: str, params: dict, seed: int):
    """Instantiate a generator by kind; `entrodual gen` builds through it too."""
    p = dict(params)
    beta = p.pop("beta", 10.0)
    if kind == "maxcut":
        return gen_er_maxcut(p["n"], p.get("p"), seed=seed, beta=beta)
    if kind == "ot-synthetic":
        return gen_synthetic_ot(p["k"], seed=seed, beta=beta)
    if kind == "ot-mnist":
        return load_mnist_pair(p["path"], p["k"], seed=seed, beta=beta)
    if kind in ("ps-strong", "ps-weak"):
        model = PermSynchModel(num_images=p["num_images"],
                               keypoints=p["keypoints"],
                               registry=p["registry"],
                               corruption=p.get("corruption", 0.0),
                               seed=seed)
        return gen_permsynch(model, beta, kind.removeprefix("ps-"))
    raise ValueError(f"unknown problem kind '{kind}'")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a generator, a solver configuration, and replicates."""

    kind: str
    params: dict
    config: SolverConfig
    out_dir: str
    replicates: int = 1
    name: str = "experiment"

    def __post_init__(self):
        check_count("replicates", self.replicates)
        if self.replicates < 1:
            raise ValueError("need at least one replicate")


def _write_averaged_csv(path, traces):
    rows = min(len(t) for t in traces)
    means = {field: np.mean([getattr(t, field)[:rows] for t in traces], axis=0)
             for _, field, _, _ in TRACE_COLUMNS}
    replace(traces[0], **means).write_csv(path)  # the mean curve as trace columns
    return rows


def run_experiment(spec: ExperimentSpec) -> dict:
    """Run all replicates, write their traces, and write the averaged curve.

    Returns a summary dict mirroring the summary JSON: per-replicate status
    (with error strings for failures), output paths, and the averaged row
    count. The averaged file is only written when at least one replicate
    succeeded.
    """
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    replicates = []
    traces = []
    for r in range(spec.replicates):
        seed = spec.config.seed + r
        cfg = replace(spec.config, seed=seed)
        entry = {"replicate": r, "seed": seed}
        try:
            problem = build_problem(spec.kind, spec.params, seed)
            trace = solve(problem, cfg)
            csv_path = out / f"{spec.name}_rep{r}.csv"
            meta_path = out / f"{spec.name}_rep{r}.json"
            trace.write_csv(csv_path)
            trace.write_metadata(meta_path)
            entry.update(status="ok", csv=str(csv_path), metadata=str(meta_path),
                         iterations=len(trace))
            traces.append(trace)
        except Exception as err:
            entry.update(status="failed", error=f"{type(err).__name__}: {err}")
        replicates.append(entry)

    summary = {
        "schema": 1,
        "name": spec.name,
        "kind": spec.kind,
        "params": spec.params,
        "replicate_count": spec.replicates,
        "replicates": replicates,
        "succeeded": len(traces),
    }
    if traces:
        avg_path = out / f"{spec.name}_avg.csv"
        summary["averaged_csv"] = str(avg_path)
        summary["averaged_rows"] = _write_averaged_csv(avg_path, traces)
    summary_path = out / f"{spec.name}_summary.json"
    write_json(summary_path, summary)
    summary["summary_json"] = str(summary_path)
    return summary
