"""Outer dual-descent loop with trace recording and a-priori gradient certificates.

One solve() drives any of the four problems. Optimal transport always uses
exact gradients (they cost one dense pass over the plan). The SDPs run either
on the dense eigendecomposition oracle or on the stochastic probe path with a
fresh batch per iteration. On the probe path every iteration encloses the
spectrum of its shifted cost with a short Lanczos run, so the probe images
stay O(||z||) at any beta. An uncertified interval, or a batch whose images
grew (which a lower end at or below the smallest eigenvalue rules out), is
redone on the Gershgorin interval.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import subprocess
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from entrodual.norms import dual_norm, primal_norm
from entrodual.operators import DENSE_LIMIT, SpectralInterval, spectral_bounds
from entrodual.probes import draw_probes, probe_gibbs
from entrodual.problems import OTProblem

__all__ = ["SolverConfig", "SolverTrace", "CertificateReport", "solve",
           "certify_gradient_decay"]

CSV_HEADER = ["iter", "feas_err", "grad_dnorm", "dual_obj", "step_norm", "wall_ms"]


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters. beta, eta and samples resolve against the problem at solve time.

    beta None means "use the problem's beta"; a non-None value must agree with
    it (the problem carries the physics, the config carries the run). eta None
    resolves to 1/beta; values above 1/beta are allowed but warn, since every
    guarantee assumes eta <= 1/beta. samples None resolves to the problem's
    default probe count on the stochastic path.
    """

    beta: Optional[float] = None
    eta: Optional[float] = None
    iters: int = 100
    samples: Optional[int] = None
    gamma_target: Optional[float] = None
    seed: int = 0
    record_objective: bool = False
    dense_oracle: bool = False
    tol_feasibility: Optional[float] = None
    probe_tol: float = 1e-8
    dense_limit: int = DENSE_LIMIT

    def __post_init__(self):
        for name in ("iters", "samples", "seed"):
            value = getattr(self, name)
            if not (isinstance(value, (int, np.integer))
                    or (name == "samples" and value is None)):
                raise ValueError(f"{name} must be a finite integer, got {value!r}")
        if self.iters < 1:
            raise ValueError("need at least one iteration")
        if self.eta is not None and not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        if self.beta is not None and not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be positive")
        for name in ("tol_feasibility", "gamma_target"):
            if not 0.0 <= (getattr(self, name) or 0.0) < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        if not 0.0 < self.probe_tol < 1.0:
            raise ValueError("probe_tol must be finite and in (0, 1)")
        if not self.dense_limit >= 1:
            raise ValueError("dense_limit must be at least 1")

    def resolve(self, problem):
        """(beta, eta) for this run, warning when eta exceeds 1/beta."""
        beta = problem.beta
        if self.beta is not None and not math.isclose(self.beta, beta,
                                                      rel_tol=1e-12):
            raise ValueError(
                f"config beta {self.beta} disagrees with problem beta {beta}")
        eta = 1.0 / beta if self.eta is None else self.eta
        if eta > 1.0 / beta * (1.0 + 1e-12):
            warnings.warn("eta exceeds 1/beta; convergence guarantees do not apply",
                          stacklevel=3)
        return beta, eta


@dataclass
class SolverTrace:
    """Dense per-iteration metrics plus the best-gradient iterate.

    dual_objective rows are NaN when the objective was not recorded (always
    the case on the stochastic path). best_iteration minimizes the recorded
    gradient dual norm, which on stochastic runs is the computable proxy for
    the exact argmin selection rule.
    """

    iterations: np.ndarray
    feasibility: np.ndarray
    grad_dual_norm: np.ndarray
    dual_objective: np.ndarray
    step_norm: np.ndarray
    wall_ms: np.ndarray
    best_iteration: int
    best_dual: object
    best_grad_dual_norm: float
    trajectory_diameter_hat: float
    final_dual: object
    stopped_early: bool
    config: SolverConfig
    problem_info: dict = field(default_factory=dict)
    eta: float = 0.0

    def __len__(self) -> int:
        return len(self.iterations)

    def write_csv(self, path) -> None:
        self.write_columns(path, self.iterations, self.feasibility,
                           self.grad_dual_norm, self.dual_objective,
                           self.step_norm, self.wall_ms)

    @staticmethod
    def write_columns(path, iterations, feasibility, grad_dual_norm,
                      dual_objective, step_norm, wall_ms) -> None:
        """Write trace columns as trace.csv rows; a NaN objective is left blank."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for it, feas, gnorm, obj, stepn, wall in zip(
                    iterations, feasibility, grad_dual_norm, dual_objective,
                    step_norm, wall_ms):
                writer.writerow([int(it), f"{feas:.12e}", f"{gnorm:.12e}",
                                 "" if np.isnan(obj) else f"{obj:.12e}",
                                 f"{stepn:.12e}", f"{wall:.3f}"])

    @classmethod
    def read(cls, csv_path, meta_path) -> "SolverTrace":
        """Reload a trace from write_csv and write_metadata output.

        Duals are not stored, so best_dual and final_dual are None. A missing
        or malformed field raises ValueError naming the file it came from; so
        does a cell that is not a number, a non-integer iter and a blank or
        non-finite cell outside dual_obj, with its data row and column.
        """
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if not rows or any(len(row) != len(CSV_HEADER) for row in rows):
            raise ValueError(f"{csv_path}: expected data rows of "
                             f"{len(CSV_HEADER)} columns ({', '.join(CSV_HEADER)})")
        cols = np.empty((len(CSV_HEADER), len(rows)))
        for i, row in enumerate(rows, start=1):
            for j, (name, text) in enumerate(zip(CSV_HEADER, row)):
                try:
                    x = float(text) if text or name != "dual_obj" else math.nan
                except ValueError:
                    x = None
                if (x is None or name != "dual_obj" and not math.isfinite(x)
                        or name == "iter" and not x.is_integer()):
                    want = {"iter": "an integer", "dual_obj": "a number or blank"}
                    raise ValueError(f"{csv_path}: data row {i}, column {name}: {text!r} "
                                     f"is not {want.get(name, 'a finite number')}")
                cols[j, i - 1] = x
        try:
            meta = json.loads(Path(meta_path).read_text())
            fields = {k: meta[k] for k in ("best_iteration", "best_grad_dual_norm",
                                           "trajectory_diameter_hat",
                                           "stopped_early", "eta")}
            config = SolverConfig(**meta["config"])
        except KeyError as err:
            raise ValueError(f"{meta_path}: missing field {err}") from None
        except (TypeError, ValueError) as err:
            raise ValueError(f"{meta_path}: {err}") from None
        return cls(cols[0].astype(int), *cols[1:], best_dual=None,
                   final_dual=None, config=config,
                   problem_info=meta.get("problem", {}), **fields)

    def metadata(self) -> dict:
        return {
            "schema": 1,
            "config": asdict(self.config),
            "problem": self.problem_info,
            "seed": self.config.seed,
            "eta": self.eta,
            "iterations_run": len(self),
            "stopped_early": self.stopped_early,
            "best_iteration": int(self.best_iteration),
            "best_grad_dual_norm": float(self.best_grad_dual_norm),
            "trajectory_diameter_hat": float(self.trajectory_diameter_hat),
            "build": _git_describe(),
        }

    def write_metadata(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.metadata(), fh, indent=2, sort_keys=True)
            fh.write("\n")


@functools.cache
def _git_describe() -> str:
    """Build label of the source tree, asked of git once per process."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=Path(__file__).resolve().parent,
                             capture_output=True, text=True, timeout=5)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _probe_batch(op, beta: float, z: np.ndarray, config: SolverConfig):
    """Probe images of exp(-(beta/2) op) on a tight interval, checked.

    The exponent is shifted by the interval's lower end, so when that end is
    at or below the smallest eigenvalue every image is no longer than its
    probe and the mass is at most ||z||^2, which is n S for Rademacher
    probes. An uncertified Lanczos interval, or a batch above that ceiling,
    is redone on the Gershgorin interval [-R, R] with R the largest absolute
    row sum; a batch that still exceeds it raises.
    """
    ceiling = z.size * (1.0 + 1e-6)
    interval = spectral_bounds(op, seed=config.seed)
    if interval.certified:
        batch = probe_gibbs(op, beta, interval, z, tol=config.probe_tol)
        if batch.mass <= ceiling:
            return batch
    r = op.inf_norm_bound()
    batch = probe_gibbs(op, beta, SpectralInterval(-r, r), z, tol=config.probe_tol)
    if not batch.mass <= ceiling:
        raise FloatingPointError(f"probe mass {batch.mass:.6g} exceeds n S = "
                                 f"{z.size} on the Gershgorin interval")
    return batch


def solve(problem, config: SolverConfig,
          callback: Optional[Callable] = None) -> SolverTrace:
    """Run dual descent from the zero dual point and record per-iteration metrics.

    callback, if given, is invoked as callback(t, dual_point, gradient) after
    the metrics of iteration t are recorded and before the update is applied.
    It must not change dual_point or gradient in place: the trace keeps the
    best dual point by reference, since every update returns a fresh payload.
    Backend failures are re-raised with the iteration index attached.
    """
    beta, eta = config.resolve(problem)
    family = problem.norm_family()
    lam = problem.initial_dual()

    exact = config.dense_oracle or isinstance(problem, OTProblem)
    if not exact:
        samples = config.samples or problem.default_sample_count()

    n_rows = config.iters
    feas = np.empty(n_rows)
    gnorm = np.empty(n_rows)
    obj = np.full(n_rows, np.nan)
    stepn = np.empty(n_rows)
    wall = np.empty(n_rows)

    best_t, best_lam, best_g = -1, None, np.inf
    diameter = 0.0
    stopped = False
    rows = 0

    for t in range(config.iters):
        tic = time.perf_counter()
        try:
            if exact:
                grad, fval = problem.dense_eval(lam, config.dense_limit)
                if config.record_objective:
                    obj[t] = fval
            else:
                z = draw_probes(problem.dimension, samples, config.seed, t)
                batch = _probe_batch(problem.shifted_operator(lam), beta, z,
                                     config)
                grad = problem.stochastic_gradient(batch)
            feas[t] = problem.feasibility_error(grad)
            gnorm[t] = dual_norm(family, grad)
            if not (math.isfinite(feas[t]) and math.isfinite(gnorm[t])):
                raise FloatingPointError("non-finite gradient")
            if gnorm[t] < best_g:
                best_t, best_lam, best_g = t, lam, float(gnorm[t])
            diameter = max(diameter,
                           primal_norm(family, family.diff(lam, best_lam)))
            if callback is not None:
                callback(t, lam, grad)
            new_lam = problem.update(lam, grad, eta)
            stepn[t] = primal_norm(family, family.diff(new_lam, lam))
            lam = new_lam
        except Exception as err:
            raise RuntimeError(f"solver failed at iteration {t}: {err}") from err
        wall[t] = (time.perf_counter() - tic) * 1e3
        rows = t + 1
        if config.tol_feasibility is not None and feas[t] <= config.tol_feasibility:
            stopped = True
            break

    sl = slice(0, rows)
    return SolverTrace(
        iterations=np.arange(rows),
        feasibility=feas[sl].copy(),
        grad_dual_norm=gnorm[sl].copy(),
        dual_objective=obj[sl].copy(),
        step_norm=stepn[sl].copy(),
        wall_ms=wall[sl].copy(),
        best_iteration=best_t,
        best_dual=best_lam,
        best_grad_dual_norm=best_g,
        trajectory_diameter_hat=diameter,
        final_dual=lam,
        stopped_early=stopped,
        config=config,
        problem_info=problem.descriptor(),
        eta=eta,
    )


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of checking the a-priori gradient-decay bound on a finished run."""

    kind: str
    observed_min: float
    bound: float
    passed: bool
    margin: float
    details: dict

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.kind}: min grad dual norm {self.observed_min:.6e} "
                f"vs bound {self.bound:.6e} (margin {self.margin:.6e})")


def certify_gradient_decay(trace: SolverTrace, problem,
                           gamma: Optional[float] = None) -> CertificateReport:
    """Check the recorded gradient decay against the problem's a-priori bound.

    SDP runs use the sqrt(beta spectral_width / T) + sqrt(log n / T) bound with
    a 3 gamma bias term and require eta = 1/beta. OT runs use the
    16 (2M + (log(1/s)+1)/beta) / ((T-1) eta) bound. gamma defaults to zero on
    exact-gradient runs and to the declared gamma_target on stochastic runs.
    """
    if len(trace) == 0 or not np.all(np.isfinite(trace.grad_dual_norm)):
        raise ValueError("trace has no usable gradient records")
    beta = problem.beta
    eta = trace.eta if trace.eta > 0.0 else 1.0 / beta
    exact_run = trace.config.dense_oracle or isinstance(problem, OTProblem)
    if gamma is None:
        if exact_run:
            gamma = 0.0
        elif trace.config.gamma_target is not None:
            gamma = trace.config.gamma_target
        else:
            raise ValueError("stochastic run without a declared gamma_target")
    if not 0.0 <= gamma < math.inf:
        raise ValueError("gamma must be finite and nonnegative")
    observed = float(trace.grad_dual_norm.min())

    if isinstance(problem, OTProblem):
        if eta > 1.0 / beta * (1.0 + 1e-12):
            raise ValueError("OT gradient-decay bound requires eta <= 1/beta")
        scale = 2.0 * problem.cost_bound + (
            math.log(1.0 / problem.marginal_floor) + 1.0) / beta
        horizon = len(trace) - 1
        bound = math.inf if horizon < 2 else 16.0 * scale / ((horizon - 1) * eta)
        details = {"horizon": horizon, "potential_scale": scale, "eta": eta}
        kind = "ot-gradient-decay"
    else:
        if not math.isclose(eta, 1.0 / beta, rel_tol=1e-9):
            raise ValueError("SDP gradient-decay bound is stated for eta = 1/beta")
        interval = spectral_bounds(problem.cost, seed=trace.config.seed)
        horizon = len(trace)
        n = problem.dimension
        bound = (3.0 * gamma
                 + 2.0 * math.sqrt(beta * interval.width / horizon)
                 + 2.0 * math.sqrt(math.log(n) / horizon))
        details = {"horizon": horizon, "spectral_width": interval.width,
                   "gamma": gamma, "eta": eta, "n": n}
        kind = "sdp-gradient-decay"

    passed = observed <= bound
    return CertificateReport(kind=kind, observed_min=observed, bound=bound,
                             passed=bool(passed), margin=float(bound - observed),
                             details=details)
