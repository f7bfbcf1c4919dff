"""Outer dual-descent loop with trace recording and a-priori gradient certificates.

One solve() drives any of the four problems. Optimal transport always uses
exact gradients (they cost one dense pass over the plan). The SDPs run either
on the dense eigendecomposition oracle or on the stochastic probe path with a
fresh batch per iteration. On the probe path every iteration encloses the
spectrum of its shifted cost with a short Lanczos run, so the probe images
stay O(||z||) at any beta. An uncertified interval, or a batch whose images
grew (which a lower end at or below the smallest eigenvalue rules out), is
redone on the Gershgorin interval. Batches run in float32, and _probe_batch
says when one is redone in float64 or refused. A run holds one probe block:
every iteration draws its probes and writes its images into the same buffers,
and a batch is released once its gradient is read. TRACE_COLUMNS is the one
trace.csv schema: the writer, the reader, solve() and the averaged
experiment curves walk it; the record grows with the iterations run, not those
requested. write_json writes every JSON file of the package.
"""

from __future__ import annotations

import array
import csv
import functools
import json
import math
import subprocess
import time
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from entrodual.norms import dual_norm, primal_norm
from entrodual.operators import SpectralInterval, spectral_bounds
from entrodual.probes import draw_probes, probe_gibbs
from entrodual.problems import OTProblem, check_count

__all__ = ["SolverConfig", "SolverTrace", "CertificateReport", "solve",
           "certify_gradient_decay"]

# trace.csv: (column, SolverTrace field, cell format, NaN left blank); "d" is iter
TRACE_COLUMNS = (("iter", "iterations", "d", False),
                 ("feas_err", "feasibility", ".12e", False),
                 ("grad_dnorm", "grad_dual_norm", ".12e", False),
                 ("dual_obj", "dual_objective", ".12e", True),
                 ("step_norm", "step_norm", ".12e", False),
                 ("wall_ms", "wall_ms", ".3f", False))
CSV_HEADER = [name for name, *_ in TRACE_COLUMNS]
# one trace.csv row; a blank column's cells arrive pre-rendered
_CSV_ROW = ",".join(f"{{{j}}}" if blank else f"{{{j}:{fmt}}}" for j, (_, _, fmt, blank)
                    in enumerate(TRACE_COLUMNS)) + "\r\n"
# SolverConfig fields that older trace.json files still carry; read() drops them
_RETIRED_CONFIG = ("beta", "record_objective", "probe_tol", "dense_limit")


def _finite(value) -> bool:
    """A finite real number; true and false do not count."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value))


# the trace.json scalars of a SolverTrace: what each must be, its check, its type
_META_FIELDS = {
    "best_iteration": ("an integer", lambda v: type(v) is int, int),
    "stopped_early": ("true or false", lambda v: type(v) is bool, bool),
    "eta": ("a positive finite number", lambda v: _finite(v) and v > 0.0, float),
    "best_grad_dual_norm": ("a finite number", _finite, float),
}


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters; the problem carries the physics (beta and the cost).

    eta None resolves to 1/beta; values above 1/beta are allowed but warn,
    since every guarantee assumes eta <= 1/beta. samples None resolves to the
    problem's default probe count on the stochastic path, and the trace's
    config records the resolved count. dense_oracle puts the SDPs on exact
    gradients; transport is always exact.
    """

    eta: Optional[float] = None
    iters: int = 100
    samples: Optional[int] = None
    gamma_target: Optional[float] = None
    seed: int = 0
    dense_oracle: bool = False
    tol_feasibility: Optional[float] = None

    def __post_init__(self):
        check_count("iters", self.iters)
        check_count("seed", self.seed)
        if self.samples is not None:
            check_count("samples", self.samples)
        if not isinstance(self.dense_oracle, bool):
            raise ValueError(
                f"dense_oracle must be true or false, got {self.dense_oracle!r}")
        if self.iters < 1:
            raise ValueError("need at least one iteration")
        if self.eta is not None and not (_finite(self.eta) and self.eta > 0.0):
            raise ValueError("eta must be positive and finite")
        if self.samples is not None and self.samples < 1:
            raise ValueError("samples must be positive")
        for name in ("tol_feasibility", "gamma_target"):
            value = getattr(self, name)
            if value is not None and not (_finite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative")

    def resolve(self, problem) -> float:
        """eta for this run, warning when it exceeds 1/beta."""
        eta = 1.0 / problem.beta if self.eta is None else self.eta
        if eta > 1.0 / problem.beta * (1.0 + 1e-12):
            warnings.warn("eta exceeds 1/beta; convergence guarantees do not apply",
                          stacklevel=3)
        return eta


@dataclass
class SolverTrace:
    """Dense per-iteration metrics plus the best-gradient iterate.

    dual_objective is the negated dual objective of each exact evaluation
    (transport and the dense oracle) and NaN on the stochastic path.
    best_iteration minimizes the recorded gradient dual norm, which on
    stochastic runs is the computable proxy for the exact argmin selection rule.
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
    final_dual: object
    stopped_early: bool
    config: SolverConfig
    problem_info: dict
    eta: float

    def __len__(self) -> int:
        return len(self.iterations)

    def write_csv(self, path) -> None:
        """Write the TRACE_COLUMNS fields as trace.csv rows."""
        # Python numbers format faster than numpy scalars; CRLF as in csv.writer
        cells = []
        for _, field, fmt, blank in TRACE_COLUMNS:
            values = np.asarray(getattr(self, field),
                                dtype=int if fmt == "d" else float).tolist()
            cells.append(["" if math.isnan(x) else format(x, fmt) for x in values]
                         if blank else values)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(CSV_HEADER) + "\r\n")
            fh.writelines(map(_CSV_ROW.format, *cells))

    @classmethod
    def read(cls, csv_path, meta_path) -> "SolverTrace":
        """Reload a trace from write_csv and write_metadata output.

        Duals are not stored, so best_dual and final_dual are None. Config
        keys of retired SolverConfig fields are dropped. A missing, unknown or
        mistyped field raises ValueError naming the file it came from. So does
        a cell that is not a number, a blank or non-finite cell outside
        dual_obj or an iter other than its row index, with its data row and
        column, and a pair of files that do not belong together: a row count
        other than iterations_run, or a best_iteration outside the rows.
        """
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if not rows or any(len(row) != len(CSV_HEADER) for row in rows):
            raise ValueError(f"{csv_path}: expected data rows of "
                             f"{len(CSV_HEADER)} columns ({', '.join(CSV_HEADER)})")
        cols = np.empty((len(CSV_HEADER), len(rows)))
        for i, row in enumerate(rows, start=1):
            for j, ((name, _, fmt, blank), text) in enumerate(zip(TRACE_COLUMNS, row)):
                try:
                    x = float(text) if text or not blank else math.nan
                except ValueError:
                    x = None
                if (x is None or not blank and not math.isfinite(x)
                        or fmt == "d" and x != i - 1):
                    want = (f"iteration {i - 1}" if fmt == "d" else
                            "a number or blank" if blank else "a finite number")
                    raise ValueError(f"{csv_path}: data row {i}, column {name}: "
                                     f"{text!r} is not {want}")
                cols[j, i - 1] = x
        columns = {field: col.astype(int) if fmt == "d" else col
                   for (_, field, fmt, _), col in zip(TRACE_COLUMNS, cols)}
        try:
            meta = json.loads(Path(meta_path).read_text())
            fields = {}
            for name, (want, valid, _) in _META_FIELDS.items():
                if not valid(meta[name]):
                    raise ValueError(f"{name} is {meta[name]!r}, not {want}")
                fields[name] = meta[name]
            if not meta["iterations_run"] == len(rows) > fields["best_iteration"] >= 0:
                raise ValueError(f"iterations_run {meta['iterations_run']!r} or best_iteration "
                                 f"{fields['best_iteration']} does not fit the {len(rows)} "
                                 f"data rows of {csv_path}")
            config = SolverConfig(**{k: v for k, v in meta["config"].items()
                                     if k not in _RETIRED_CONFIG})
            problem_info = meta["problem"]
            if type(problem_info) is not dict:
                raise ValueError(f"problem is {problem_info!r}, not an object")
        except KeyError as err:
            raise ValueError(f"{meta_path}: missing field {err}") from None
        except (AttributeError, TypeError, ValueError) as err:
            raise ValueError(f"{meta_path}: {err}") from None
        return cls(**columns, best_dual=None, final_dual=None, config=config,
                   problem_info=problem_info, **fields)

    def metadata(self) -> dict:
        return {
            "schema": 1,
            "config": asdict(self.config),
            "problem": self.problem_info,
            "seed": self.config.seed,
            "iterations_run": len(self),
            **{name: cast(getattr(self, name))
               for name, (_, _, cast) in _META_FIELDS.items()},
            "build": _git_describe(),
        }

    def write_metadata(self, path) -> None:
        write_json(path, self.metadata())


def _number(value):
    """The Python number a numpy scalar holds, for json.dumps; else TypeError."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    raise TypeError(f"{type(value).__name__} {value!r} is not JSON serializable")


def write_json(path, value) -> None:
    """Write value as indented, key-sorted JSON, whole or not at all: the text is
    built first, so a value JSON cannot hold raises TypeError and leaves no file."""
    Path(path).write_text(json.dumps(value, indent=2, sort_keys=True, default=_number) + "\n")


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


# smallest batch mass, per unit of n S, that each precision of probe_gibbs serves
_FLOAT32_FLOOR = (float(np.finfo(np.float32).eps) / 1e-4) ** 2  # about 1.4e-6
_FLOAT64_FLOOR = 1e-14


def _probe_batch(op, beta: float, z: np.ndarray, seed: int, work: dict):
    """Probe images of exp(-(beta/2) op) on a tight interval, checked.

    The exponent is shifted by the interval's lower end, so when that end is
    at or below the smallest eigenvalue every image is no longer than its
    probe and the mass is at most ||z||^2, which is n S for Rademacher
    probes. An uncertified Lanczos interval, or a batch above that ceiling,
    is redone on the Gershgorin interval [-R, R] with R the largest absolute
    row sum; a batch that still exceeds it raises. The ceiling's 1e-6 slack
    covers float32 roundoff in the mass, which stays below 1e-7 n S at any
    width: an image near its probe's length needs only a few terms.

    solve() draws the probes in float32, so the batch runs in float32, where
    probe_gibbs truncates the series at float32 roundoff, about 1.2e-7 per
    unit of probe length. A batch whose mass is below (1.2e-7 / sqrt(1e-8))^2
    = 1.4e-6 n S, where that error exceeds sqrt(1e-8) of the images, is
    redone once in float64 on the same interval. A float64 batch below 1e-14
    n S raises: its series is truncated at 1e-11 per unit of probe length,
    which there exceeds sqrt(1e-8) of the images. A wider interval would only
    shrink them further, so that batch is not redone. Every batch keeps its
    images in work, so a redo overwrites the batch it replaces.
    """
    ceiling = z.size * (1.0 + 1e-6)
    interval = spectral_bounds(op, seed=seed)
    batch = probe_gibbs(op, beta, interval, z, work=work) if interval.certified else None
    if batch is None or not batch.mass <= ceiling:
        batch = None  # a rejected batch is released before its redo overwrites it
        r = op.inf_norm_bound()
        interval = SpectralInterval(-r, r)
        batch = probe_gibbs(op, beta, interval, z, work=work)
        if not batch.mass <= ceiling:
            raise FloatingPointError(f"probe mass {batch.mass:.6g} exceeds n S = "
                                     f"{z.size} on the Gershgorin interval")
    if batch.mass < _FLOAT32_FLOOR * z.size:
        batch = None
        batch = probe_gibbs(op, beta, interval, z.astype(float), work=work)
    floor = _FLOAT64_FLOOR * z.size
    if batch.mass < floor:
        raise FloatingPointError(f"probe mass {batch.mass:.6g} is below "
                                 f"{_FLOAT64_FLOOR:g} n S = {floor:.6g}, where the "
                                 "Chebyshev error is larger than sqrt(1e-8) of the images")
    return batch


def solve(problem, config: SolverConfig,
          callback: Optional[Callable] = None) -> SolverTrace:
    """Run dual descent from the zero dual point and record per-iteration metrics.

    callback, if given, is invoked as callback(t, dual_point, gradient) after
    the metrics of iteration t are computed and before the update is applied.
    It must not change dual_point or gradient in place: the trace keeps the
    best dual point by reference, since every update returns a fresh payload.
    Backend failures are re-raised with the iteration index attached.
    """
    eta = config.resolve(problem)
    family = problem.norm_family()
    lam = problem.initial_dual()

    exact = config.dense_oracle or isinstance(problem, OTProblem)
    if not exact:
        config = replace(config, samples=config.samples or problem.default_sample_count())

    # the float columns after iter, grown one row per iteration actually run
    record = {field: array.array("d") for _, field, _, _ in TRACE_COLUMNS[1:]}
    work = {}  # every iteration's probe block buffers, allocated once
    best_t, best_lam, best_g = -1, None, np.inf
    stopped = False

    for t in range(config.iters):
        tic = time.perf_counter()
        try:
            objective = math.nan
            if exact:
                grad, objective = problem.dense_eval(lam)
            else:
                # no name holds the probes or their batch past the gradient
                grad = problem.stochastic_gradient(_probe_batch(
                    problem.shifted_operator(lam), problem.beta,
                    draw_probes(problem.dimension, config.samples, config.seed, t,
                                np.float32, work=work),
                    config.seed, work))
            # the form the metrics and the step read: a block stack is
            # decomposed here, once per iteration
            measured = family.prepare(grad)
            feas = problem.feasibility_error(measured)
            gnorm = dual_norm(family, measured)
            if not (math.isfinite(feas) and math.isfinite(gnorm)):
                raise FloatingPointError("non-finite gradient")
            if gnorm < best_g:
                best_t, best_lam, best_g = t, lam, float(gnorm)
            if callback is not None:
                callback(t, lam, grad)
            new_lam = problem.update(lam, measured, eta)
            step = primal_norm(family, family.diff(new_lam, lam))
            lam = new_lam
        except Exception as err:
            raise RuntimeError(f"solver failed at iteration {t}: {err}") from err
        # one row, in TRACE_COLUMNS order
        for column, value in zip(record.values(), (feas, gnorm, objective, step,
                                                   (time.perf_counter() - tic) * 1e3)):
            column.append(value)
        if config.tol_feasibility is not None and feas <= config.tol_feasibility:
            stopped = True
            break

    return SolverTrace(
        iterations=np.arange(t + 1),
        **{field: np.array(column) for field, column in record.items()},
        best_iteration=best_t,
        best_dual=best_lam,
        best_grad_dual_norm=best_g,
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
    A problem whose descriptor differs from the trace's record on any key the
    trace holds raises ValueError naming each such key.
    """
    current = problem.descriptor()
    differ = [f"{key} {value!r} in the trace, {current.get(key)!r} in the problem"
              for key, value in trace.problem_info.items() if current.get(key) != value]
    if differ:
        raise ValueError("trace was recorded on another problem: " + "; ".join(differ))
    if len(trace) == 0 or not np.all(np.isfinite(trace.grad_dual_norm)):
        raise ValueError("trace has no usable gradient records")
    beta = problem.beta
    eta = trace.eta
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
