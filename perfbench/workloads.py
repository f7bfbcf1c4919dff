"""The pinned workloads: set-up, solve to a stop rule, finish, output checks.

Every workload is one fixed instance from the package's own generator. The
run seed relabels it (vertices, images and keypoints, or pixels) and seeds the
solver's probe stream, so each seed poses the same mathematical problem with
a different input layout and different probes. Set-up then does the problem
directory round trip the command line does (write_problem, load_problem).

The checks at the end recompute what they compare against from the problem
directory on disk with numpy/scipy alone, or test properties the method must
have; none of them compares against stored output.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, expm_multiply
from scipy.special import logsumexp

from entrodual import (cli, datasets, norms, operators, probes, problems,
                       rounding, solver)

INSTANCE_SEED = 0
# independent random streams drawn from the run seed
RELABEL_STREAM = 7
CHECK_STREAM = 11
FINISH_STREAM = 13


@dataclass(frozen=True)
class Workload:
    """One pinned instance and the stop rule it is solved to.

    samples None means exact gradients: the transport path for "ot", the
    dense eigendecomposition oracle for the SDP families.
    """

    name: str
    family: str  # "maxcut" | "ps-strong" | "ot"
    size: dict
    beta: float
    tol: float
    max_iters: int
    samples: Optional[int] = None
    gamma: Optional[float] = None

    @property
    def stochastic(self) -> bool:
        return self.samples is not None


def _ps_samples(num_images: int, keypoints: int) -> int:
    return math.ceil(8 * keypoints * math.log(num_images * keypoints))


# Each stop target lies midway between the feasibility of two consecutive
# iterates on the pinned instance, far from both compared with the probe
# noise, so every seed stops on the same iteration.
WORKLOADS = {w.name: w for w in [
    Workload("maxcut-n4000", "maxcut", {"n": 4000}, beta=10.0, tol=0.26,
             max_iters=40, samples=math.ceil(25 * math.log(4000)), gamma=0.1),
    Workload("ps-strong-n100", "ps-strong",
             {"num_images": 100, "keypoints": 10, "registry": 50,
              "corruption": 0.15},
             beta=1.0, tol=0.28, max_iters=30, samples=_ps_samples(100, 10),
             gamma=0.1),
    Workload("ot-k16", "ot", {"k": 16}, beta=10.0, tol=1e-3, max_iters=20000),
    Workload("maxcut-dense-n200", "maxcut", {"n": 200}, beta=10.0, tol=1e-4,
             max_iters=5000),
]}

# Small versions of the same four paths, for the benchmark's self-tests.
TOY_WORKLOADS = {w.name: w for w in [
    Workload("maxcut-n4000", "maxcut", {"n": 300}, beta=10.0, tol=0.6,
             max_iters=40, samples=math.ceil(25 * math.log(300)), gamma=0.1),
    Workload("ps-strong-n100", "ps-strong",
             {"num_images": 12, "keypoints": 4, "registry": 6,
              "corruption": 0.15},
             beta=1.0, tol=0.6, max_iters=30, samples=_ps_samples(12, 4),
             gamma=0.1),
    Workload("ot-k16", "ot", {"k": 6}, beta=10.0, tol=1e-3, max_iters=20000),
    Workload("maxcut-dense-n200", "maxcut", {"n": 40}, beta=10.0, tol=1e-4,
             max_iters=5000),
]}


# ---- set-up ----------------------------------------------------------------

def generate(w: Workload):
    if w.family == "maxcut":
        return datasets.gen_er_maxcut(w.size["n"], seed=INSTANCE_SEED,
                                      beta=w.beta)
    if w.family == "ps-strong":
        model = datasets.PermSynchModel(**w.size, seed=INSTANCE_SEED)
        return datasets.gen_permsynch(model, w.beta, "strong")
    return datasets.gen_synthetic_ot(w.size["k"], seed=INSTANCE_SEED,
                                     beta=w.beta)


def relabel(problem, seed: int):
    """The same instance with its indices permuted by the run seed."""
    rng = np.random.default_rng([seed, RELABEL_STREAM])
    if isinstance(problem, problems.OTProblem):
        p = rng.permutation(problem.mu.size)
        q = rng.permutation(problem.nu.size)
        return problems.OTProblem(problem.cost[np.ix_(p, q)], problem.mu[p],
                                  problem.nu[q], problem.beta)
    n = problem.dimension
    if isinstance(problem, problems.StrongPermSyncProblem):
        big, k = problem.num_images, problem.block_size
        images = rng.permutation(big)
        slots = np.argsort(rng.random((big, k)), axis=1)
        perm = (images[:, None] * k + slots).ravel()
    else:
        perm = rng.permutation(n)
    upper = sp.triu(problem.cost.to_sparse()).tocoo()
    cost = operators.SymOperator.from_triplets(n, perm[upper.row],
                                               perm[upper.col], upper.data)
    if isinstance(problem, problems.StrongPermSyncProblem):
        return problems.StrongPermSyncProblem(cost, problem.num_images,
                                              problem.block_size, problem.beta)
    b = np.empty(n)
    b[perm] = problem.b
    return problems.MaxCutProblem(cost, b, problem.beta)


def setup(w: Workload, seed: int, problem_dir: Path):
    """Generate, relabel, write the problem directory and read it back."""
    problem = relabel(generate(w), seed)
    cli.write_problem(problem, problem_dir)
    return cli.load_problem(problem_dir)


# ---- solve and finish ------------------------------------------------------

def config(w: Workload, seed: int) -> solver.SolverConfig:
    return solver.SolverConfig(iters=w.max_iters, samples=w.samples, seed=seed,
                               gamma_target=w.gamma,
                               dense_oracle=not w.stochastic and w.family != "ot",
                               tol_feasibility=w.tol)


class Recorder:
    """solve() callback: a timestamp per iteration and the largest |trace sum|."""

    def __init__(self):
        self.stamps: list = []
        self.max_trace_sum = 0.0

    def __call__(self, t, lam, grad):
        self.stamps.append(time.perf_counter())
        if isinstance(grad, np.ndarray):
            s = grad.sum() if grad.ndim == 1 else np.einsum("bii->", grad)
            self.max_trace_sum = max(self.max_trace_sum, abs(float(s)))

    def iteration_ms(self) -> list:
        return list(np.diff(self.stamps) * 1e3)


@dataclass
class Outcome:
    """Everything one pass produces, kept for the checks."""

    trace: object
    recorder: Recorder
    solve_s: float
    finish_s: list = field(default_factory=list)
    report: object = None
    primal: Optional[np.ndarray] = None
    rounded: object = None


def solve_stage(w: Workload, problem, seed: int) -> Outcome:
    """solve() to the workload's stop rule, timed."""
    rec = Recorder()
    cfg = config(w, seed)
    tic = time.perf_counter()
    trace = solver.solve(problem, cfg, callback=rec)
    return Outcome(trace=trace, recorder=rec, solve_s=time.perf_counter() - tic)


def finish_stage(w: Workload, problem, out: Outcome, out_dir: Path,
                 seed: Optional[int] = None) -> None:
    """Write the trace, certify it and round the primal, timed.

    A seed replaces the trace's own seed for this finish only. certify uses
    it to start its power iteration, whose iteration count varies twofold
    with the start vector. The results of a finish under the trace's own
    seed are kept for the checks.
    """
    trace = out.trace
    if seed is not None:
        trace = replace(trace, config=replace(trace.config, seed=seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    tic = time.perf_counter()
    trace.write_csv(out_dir / "trace.csv")
    trace.write_metadata(out_dir / "trace.json")
    report = solver.certify_gradient_decay(trace, problem)
    primal = rounded = None
    if w.family == "ot":
        primal = problem.plan(trace.best_dual)
        rounded = rounding.round_ot(primal, problem.mu, problem.nu,
                                    cost=problem.cost)
    elif not w.stochastic:
        op = problem.shifted_operator(trace.best_dual)
        primal = operators.dense_gibbs(op, problem.beta).density
        rounded = rounding.round_maxcut(primal, problem.b,
                                        problem.cost.to_dense())
    out.finish_s.append(time.perf_counter() - tic)
    if seed is None:
        out.report, out.primal, out.rounded = report, primal, rounded


def finish_seed(seed: int, pass_index: int, rep: int) -> int:
    return int(np.random.SeedSequence([seed, FINISH_STREAM, pass_index, rep])
               .generate_state(1)[0])


# ---- checks ----------------------------------------------------------------

def _read_cost(problem_dir: Path):
    m = scipy.io.mmread(problem_dir / "cost.mtx")
    return sp.csr_array(m) if sp.issparse(m) else np.asarray(m, dtype=float)


def _block_diag(blocks: np.ndarray):
    return sp.block_diag(list(blocks), format="csr")


def _shifted(cost, problem, lam):
    """The cost minus the dual's constraint operator, built from scratch."""
    if isinstance(problem, problems.StrongPermSyncProblem):
        return sp.csr_array(cost - _block_diag(lam))
    return sp.csr_array(cost - sp.diags_array(lam))


def _extremes(m) -> tuple:
    lo = eigsh(m, k=1, which="SA", return_eigenvectors=False, tol=1e-10)[0]
    hi = eigsh(m, k=1, which="LA", return_eigenvectors=False, tol=1e-10)[0]
    return float(lo), float(hi)


def _estimate(problem, images: np.ndarray) -> np.ndarray:
    """Normalized diagonal (or diagonal-block) estimate W W^T / sum ||w||^2."""
    mass = float(np.sum(images * images))
    if isinstance(problem, problems.StrongPermSyncProblem):
        k = problem.block_size
        rows = images.reshape(-1, k, images.shape[1])
        return np.einsum("nks,nls->nkl", rows, rows) / mass
    return np.sum(images * images, axis=1) / mass


def _dense_state(m: np.ndarray, beta: float) -> np.ndarray:
    evals, vecs = np.linalg.eigh(m)
    occ = np.exp(-beta * (evals - evals[0]))
    occ /= occ.sum()
    return (vecs * occ) @ vecs.T


def check_stochastic(problem, problem_dir, seed, out: Outcome, facts: dict) -> list:
    fails = []
    cost = _read_cost(problem_dir)
    lam = out.trace.final_dual
    base = operators.spectral_bounds(problem.cost, seed=out.trace.config.seed)
    interval = base.padded(norms.primal_norm(problem.norm_family(), lam))
    shifted = _shifted(cost, problem, lam)
    for label, iv, m in [("cost", base, cost), ("final dual", interval, shifted)]:
        lo, hi = _extremes(m)
        facts[f"interval {label}"] = [iv.lo, iv.hi]
        facts[f"eigsh {label}"] = [lo, hi]
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        if not (iv.lo <= lo + slack and hi <= iv.hi + slack):
            fails.append(f"interval [{iv.lo:.6g}, {iv.hi:.6g}] misses the "
                         f"{label} spectrum [{lo:.6g}, {hi:.6g}]")

    # fresh probes through the program and through scipy's expm_multiply
    rng = np.random.default_rng([seed, CHECK_STREAM])
    z = rng.choice([-1.0, 1.0], size=(problem.dimension, 8))
    batch = probes.probe_gibbs(problem.shifted_operator(lam), problem.beta,
                               interval, z)
    eye = sp.eye_array(problem.dimension)
    ref = expm_multiply(sp.csr_array(-0.5 * problem.beta
                                     * (shifted - interval.lo * eye)), z)
    img_gap = np.linalg.norm(batch.images - ref) / np.linalg.norm(ref)
    if isinstance(problem, problems.StrongPermSyncProblem):
        target = np.eye(problem.block_size) / problem.dimension
    else:
        target = problem.b
    est_ref = _estimate(problem, ref)
    est = problem.stochastic_gradient(batch) + target
    est_gap = np.abs(est - est_ref).max() / np.abs(est_ref).max()
    facts.update(probe_image_gap=img_gap, estimate_gap=est_gap,
                 max_trace_sum=out.recorder.max_trace_sum,
                 certificate=[out.report.observed_min, out.report.bound])
    if not img_gap <= 1e-5:
        fails.append(f"probe images differ from expm_multiply by {img_gap:.3e}")
    if not est_gap <= 1e-5:
        fails.append(f"normalized estimates differ by {est_gap:.3e}")

    if not out.recorder.max_trace_sum <= 1e-10:
        fails.append(f"gradient trace sum {out.recorder.max_trace_sum:.3e}")
    if not out.report.passed:
        fails.append(f"certificate failed: {out.report}")

    if isinstance(problem, problems.StrongPermSyncProblem):
        dense = cost.toarray()

        def feasibility(duals):
            x = _dense_state(dense - _block_diag(duals).toarray(), problem.beta)
            k, n = problem.block_size, problem.dimension
            blocks = np.einsum("ikil->ikl", x.reshape(-1, k, x.shape[0] // k, k))
            return float(np.abs(np.linalg.eigvalsh(blocks - np.eye(k) / n)).sum())

        at_zero = feasibility(np.zeros_like(out.trace.best_dual))
        at_best = feasibility(out.trace.best_dual)
        facts.update(true_feasibility_zero=at_zero, true_feasibility_best=at_best)
        if not at_best <= 0.5 * at_zero:
            fails.append(f"true feasibility {at_best:.4g} at the best dual is "
                         f"not well below {at_zero:.4g} at zero")
    return fails


def _ot_objective(cost, mu, nu, beta, phi, psi):
    """f = -<mu, phi> - <nu, psi> + logsumexp(-beta (C - phi - psi)) / beta."""
    logp = -beta * (cost - phi[:, None] - psi[None, :])
    lse = logsumexp(logp)
    plan = np.exp(logp - lse)
    grad = (plan.sum(axis=1) - mu, plan.sum(axis=0) - nu)
    return -(mu @ phi + nu @ psi) + lse / beta, grad


def _sinkhorn(cost, mu, nu, beta, phi, psi, tol=1e-12, iters=200000):
    """Log-domain alternating marginal fits from (phi, psi) to error <= tol."""
    kernel = -beta * cost
    for _ in range(iters):
        phi = (np.log(mu) - logsumexp(kernel + beta * psi[None, :], axis=1)) / beta
        psi = (np.log(nu) - logsumexp(kernel + beta * phi[:, None], axis=0)) / beta
        plan = np.exp(kernel + beta * (phi[:, None] + psi[None, :]))
        if np.abs(plan.sum(axis=1) - mu).sum() <= tol:
            return phi, psi
    raise RuntimeError("reference Sinkhorn did not converge")


def check_ot(problem, problem_dir, seed, out: Outcome, facts: dict) -> list:
    fails = []
    cost = _read_cost(problem_dir)
    cost = cost.toarray() if sp.issparse(cost) else cost
    mu = np.loadtxt(problem_dir / "mu.txt")
    nu = np.loadtxt(problem_dir / "nu.txt")
    phi, psi = (np.asarray(v, dtype=float) for v in out.trace.best_dual)
    f, (gp, gq) = _ot_objective(cost, mu, nu, problem.beta, phi, psi)
    sphi, spsi = _sinkhorn(cost, mu, nu, problem.beta, phi, psi)
    f_star, _ = _ot_objective(cost, mu, nu, problem.beta, sphi, spsi)
    # convexity: f - f* <= <g, x - x*> <= |g_phi|_1 |dphi|_inf + |g_psi|_1 |dpsi|_inf
    gap = (np.abs(gp).sum() * np.abs(phi - sphi - np.mean(phi - sphi)).max()
           + np.abs(gq).sum() * np.abs(psi - spsi - np.mean(psi - spsi)).max())
    slack = 1e-10 * max(1.0, abs(f_star))
    facts.update(objective_excess=f - f_star, convexity_gap=gap)
    if not f >= f_star - slack:
        fails.append(f"dual objective {f!r} below the Sinkhorn optimum {f_star!r}")
    if not f - f_star <= gap + slack:
        fails.append(f"dual objective exceeds the optimum by {f - f_star:.3e}, "
                     f"more than the convexity gap {gap:.3e}")
    plan = out.rounded.payload
    marg = max(np.abs(plan.sum(axis=1) - mu).max(),
               np.abs(plan.sum(axis=0) - nu).max())
    facts.update(rounded_min=plan.min(), rounded_marginal_error=marg,
                 certificate=[out.report.observed_min, out.report.bound])
    if plan.min() < 0.0 or marg > 1e-14:
        fails.append(f"rounded plan min {plan.min():.3e}, marginal error {marg:.3e}")
    if not out.report.passed:
        fails.append(f"certificate failed: {out.report}")
    return fails


def check_dense(problem, problem_dir, seed, out: Outcome, facts: dict) -> list:
    fails = []
    cost = _read_cost(problem_dir)
    dense = cost.toarray() if sp.issparse(cost) else cost
    b = np.loadtxt(problem_dir / "b.txt")
    t = out.trace.best_iteration
    lam = np.asarray(out.trace.best_dual)
    x = _dense_state(dense - np.diag(lam), problem.beta)
    own = float(np.abs(np.diag(x) - b).sum())
    reported = float(out.trace.feasibility[t])
    facts.update(reported_feasibility=reported, eigh_feasibility=own)
    if not abs(own - reported) <= 1e-10 + 1e-6 * own:
        fails.append(f"reported feasibility {reported!r} vs dense eigh {own!r}")
    r = out.rounded
    xr = r.payload
    if not np.array_equal(np.diag(xr), b):
        fails.append("rounded X does not have diag = b")
    low = np.linalg.eigvalsh(xr)[0]
    if low < -1e-12 * max(1.0, np.abs(xr).max()):
        fails.append(f"rounded X is not PSD: min eigenvalue {low:.3e}")
    shift = abs(float(np.sum(dense * (out.primal - xr))))
    facts.update(rounded_min_eig=low, objective_shift=shift,
                 rounding_certificate=r.perturbation_certificate,
                 certificate=[out.report.observed_min, out.report.bound])
    if not shift <= r.perturbation_certificate:
        fails.append(f"objective shift {shift:.3e} exceeds the certificate "
                     f"{r.perturbation_certificate:.3e}")
    if not out.report.passed:
        fails.append(f"certificate failed: {out.report}")
    return fails


def check(w: Workload, problem, problem_dir: Path, seed: int, out: Outcome,
          facts: dict) -> list:
    """List of failed checks, empty when the outputs are correct.

    facts receives the measured quantities behind the checks.
    """
    feas = out.trace.feasibility
    facts.update(target=w.tol, stop_feasibility=float(feas[-1]),
                 previous_feasibility=float(feas[-2]) if len(feas) > 1 else None)
    if not out.trace.stopped_early:
        return [f"stop rule {w.tol} not met in {w.max_iters} iterations"]
    if w.stochastic:
        return check_stochastic(problem, problem_dir, seed, out, facts)
    if w.family == "ot":
        return check_ot(problem, problem_dir, seed, out, facts)
    return check_dense(problem, problem_dir, seed, out, facts)
