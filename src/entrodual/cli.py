"""Command-line front end: generate instances, run solves, round, certify.

A problem directory holds meta.json (kind, beta, sizes), cost.mtx in
MatrixMarket form, and the kind's vectors (mu.txt/nu.txt for transport,
b.txt for the cut relaxation). `gen` writes such directories, `solve` reads
them and emits trace CSV/JSON, `round` projects a primal estimate onto the
feasible set with a certificate, and `certify` checks a recorded trace
against its a-priori gradient-decay bound, on the directory's problem at the
trace's beta.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import scipy.io

from entrodual import operators
from entrodual.experiments import build_problem
from entrodual.operators import dense_gibbs, load_matrix_market
from entrodual.problems import (MaxCutProblem, OTProblem,
                                StrongPermSyncProblem, WeakPermSyncProblem)
from entrodual.rounding import round_maxcut, round_ot, round_strong_ps
from entrodual.solver import (SolverConfig, SolverTrace,
                              certify_gradient_decay, solve, write_json)

__all__ = ["main", "load_problem", "write_problem"]


# ---- problem directory IO -------------------------------------------------

def _write_vector(path: Path, x) -> None:
    """One value per line, the bytes np.savetxt writes with its default format."""
    path.write_text(("%.18e\n" * x.size) % tuple(x.tolist()))


def write_problem(problem, out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {"schema": 1}
    meta.update(problem.descriptor())
    if isinstance(problem, OTProblem):
        scipy.io.mmwrite(out / "cost.mtx", problem.cost)
        _write_vector(out / "mu.txt", problem.mu)
        _write_vector(out / "nu.txt", problem.nu)
    else:
        scipy.io.mmwrite(out / "cost.mtx", problem.cost.to_sparse(),
                         symmetry="symmetric")
        if isinstance(problem, MaxCutProblem):
            _write_vector(out / "b.txt", problem.b)
    write_json(out / "meta.json", meta)
    return out


def _read_dense(path) -> np.ndarray:
    m = scipy.io.mmread(path)
    return m.toarray() if hasattr(m, "toarray") else m


def _read_vector(path) -> np.ndarray:
    return np.loadtxt(path, ndmin=1)


def _read_finite(path: Path, read) -> np.ndarray:
    """read(path) as a float array; a parse error or a non-finite entry
    raises ValueError naming the file."""
    try:
        values = np.asarray(read(path), dtype=float)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if bad := int(np.count_nonzero(~np.isfinite(values))):
        raise ValueError(f"{path}: values must be finite; {bad} of its entries are not")
    return values


def load_problem(path, beta: float | None = None):
    p = Path(path)
    meta_path = p / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
        kind = meta["kind"]
        beta = float(meta["beta"]) if beta is None else float(beta)
        if kind in ("ps-strong", "ps-weak"):
            blocks = (meta["num_images"], meta["block_size"])
    except KeyError as err:
        raise ValueError(f"{meta_path}: missing field {err}") from None
    except (TypeError, ValueError) as err:
        raise ValueError(f"{meta_path}: {err}") from None
    if kind == "ot":
        cost = _read_finite(p / "cost.mtx", _read_dense)
        mu = _read_finite(p / "mu.txt", _read_vector)
        nu = _read_finite(p / "nu.txt", _read_vector)
        return OTProblem(cost, mu, nu, beta)
    cost = load_matrix_market(p / "cost.mtx")
    if kind == "maxcut":
        return MaxCutProblem(cost, _read_finite(p / "b.txt", _read_vector), beta)
    if kind in ("ps-strong", "ps-weak"):
        sync = StrongPermSyncProblem if kind == "ps-strong" else WeakPermSyncProblem
        try:
            return sync(cost, *blocks, beta)
        except ValueError as err:
            raise ValueError(f"{meta_path}: {err}") from None
    raise ValueError(f"unknown problem kind '{kind}' in {meta_path}")


def _load_kind(args, beta: float | None = None):
    """The problem in args.problem, which must be of the subcommand's kind."""
    problem = load_problem(args.problem, beta=beta)
    if (kind := problem.descriptor()["kind"]) != args.kind:
        raise ValueError(f"problem directory holds kind '{kind}', not '{args.kind}'")
    return problem


def _load_estimate(path) -> np.ndarray:
    p = Path(path)
    if not p.is_file():
        raise OSError(f"estimate file not found: {p}")
    if p.suffix == ".npy":
        return np.asarray(np.load(p), dtype=float)
    est = scipy.io.mmread(p)
    if hasattr(est, "toarray"):
        est = est.toarray()
    return np.asarray(est, dtype=float)


# ---- gen -------------------------------------------------------------------

def _cmd_gen(args) -> int:
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "kind", "func", "seed", "out")}
    problem = build_problem(args.kind, params, args.seed)
    out = write_problem(problem, args.out)
    desc = problem.descriptor()
    print(f"wrote {desc['kind']} instance "
          f"(n={desc.get('n', desc.get('m'))}, beta={problem.beta:g}) to {out}")
    return 0


# ---- solve -----------------------------------------------------------------

def _save_primal(problem, trace, path) -> None:
    if isinstance(problem, OTProblem):
        primal = problem.plan(trace.best_dual)
    else:
        op = problem.shifted_operator(trace.best_dual)
        primal = dense_gibbs(op, problem.beta).density
    scipy.io.mmwrite(path, primal)


def _cmd_solve(args) -> int:
    problem = _load_kind(args, beta=args.beta)
    # every config field has a flag of the same name
    config = SolverConfig(**{f.name: getattr(args, f.name)
                             for f in fields(SolverConfig)})
    if (args.save_primal and not isinstance(problem, OTProblem)
            and problem.dimension > operators.DENSE_LIMIT):
        raise ValueError(f"--save-primal writes the dense n x n Gibbs state, limited to "
                         f"n <= {operators.DENSE_LIMIT}; this problem has n = "
                         f"{problem.dimension}")
    trace = solve(problem, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace.write_csv(out / "trace.csv")
    trace.write_metadata(out / "trace.json")
    if args.save_primal:
        _save_primal(problem, trace, out / "primal.mtx")
    tail = " (stopped early)" if trace.stopped_early else ""
    print(f"{args.kind}: {len(trace)} iterations{tail}, "
          f"feasibility {trace.feasibility[-1]:.3e}, "
          f"best grad dual norm {trace.best_grad_dual_norm:.3e} "
          f"at iteration {trace.best_iteration}; traces in {out}")
    return 0


# ---- round -----------------------------------------------------------------

def _cmd_round(args) -> int:
    problem = _load_kind(args)
    estimate = _load_estimate(args.estimate)
    dim = 1
    if args.kind == "ot":
        result = round_ot(estimate, problem.mu, problem.nu, cost=problem.cost)
    elif args.kind == "maxcut":
        result = round_maxcut(estimate, problem.b, problem.cost.to_dense())
    else:
        # the block rounding operates in the identity-block frame; rescale a
        # unit-trace estimate into it and bring the certificate back
        dim = problem.dimension
        result = round_strong_ps(dim * estimate, problem.num_images,
                                 problem.block_size,
                                 a=problem.cost.to_dense())
    payload = result.payload / dim
    cert = result.perturbation_certificate / dim
    measured = result.measured_shift / dim
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scipy.io.mmwrite(out / "rounded.mtx", payload)
    # every rounder certifies the objective shift it measures
    report = {"schema": 1, "kind": args.kind, "certificate": float(cert),
              "objective_bound": float(cert),
              "measured_shift": float(measured), "payload": "rounded.mtx"}
    write_json(out / "round.json", report)
    print(f"rounded {args.kind} estimate: objective shift at most "
          f"{cert:.6e}, measured {measured:.6e}; wrote {out}")
    return 0


# ---- certify ---------------------------------------------------------------

def _cmd_certify(args) -> int:
    meta_path = args.metadata or Path(args.trace).with_suffix(".json")
    trace = SolverTrace.read(args.trace, meta_path)
    # solve --beta overrides the directory's beta; certify the run at its own
    problem = load_problem(args.problem, beta=trace.problem_info.get("beta"))
    report = certify_gradient_decay(trace, problem, gamma=args.gamma)
    print(report)
    return 0 if report.passed else 1


# ---- parser ----------------------------------------------------------------

def _seed(text: str) -> int:
    """A --seed value: a nonnegative integer, refused before anything runs."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


def _add_gen_flags(p, *, beta_default=10.0):
    p.add_argument("--beta", type=float, default=beta_default,
                   help="inverse temperature baked into the instance")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="problem directory to write")


def _add_solver_flags(p):
    p.add_argument("--problem", required=True, help="problem directory")
    p.add_argument("--beta", type=float, default=None,
                   help="override the instance's inverse temperature")
    p.add_argument("--eta", type=float, default=None,
                   help="step size, defaults to 1/beta")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--samples", type=int, default=None,
                   help="probe vectors per iteration on the stochastic path")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="directory for trace files")
    p.add_argument("--dense-oracle", action="store_true",
                   help="use exact dense gradients instead of probes")
    p.add_argument("--tol", dest="tol_feasibility", type=float, default=None,
                   help="stop once the feasibility error falls below this")
    p.add_argument("--gamma-target", type=float, default=None,
                   help="declared gradient-error level for certification")
    p.add_argument("--save-primal", action="store_true",
                   help="write the primal estimate at the best iterate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrodual",
        description="Entropically regularized LP/SDP solving in adapted norms")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a problem directory")
    gen_kinds = gen.add_subparsers(dest="kind", required=True)
    g = gen_kinds.add_parser("maxcut", help="random-graph cut relaxation")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--p", type=float, default=None,
                   help="edge probability, defaults to min(1, 3/n)")
    _add_gen_flags(g)
    g = gen_kinds.add_parser("ot-synthetic", help="random bright-square images")
    g.add_argument("--k", type=int, required=True, help="image side length")
    _add_gen_flags(g)
    g = gen_kinds.add_parser("ot-mnist", help="pooled image pair from IDX file")
    g.add_argument("--images", dest="path", required=True,
                   help="IDX image file")
    g.add_argument("--k", type=int, required=True, help="pooled side length")
    _add_gen_flags(g)
    for kind in ("ps-strong", "ps-weak"):
        g = gen_kinds.add_parser(kind, help="permutation synchronization")
        g.add_argument("--num-images", type=int, required=True)
        g.add_argument("--keypoints", type=int, required=True)
        g.add_argument("--registry", type=int, required=True)
        g.add_argument("--corruption", type=float, default=0.0)
        _add_gen_flags(g)
    gen.set_defaults(func=_cmd_gen)

    slv = sub.add_parser("solve", help="run the dual ascent solver")
    slv_kinds = slv.add_subparsers(dest="kind", required=True)
    for kind in ("maxcut", "ot", "ps-strong", "ps-weak"):
        s = slv_kinds.add_parser(kind)
        _add_solver_flags(s)
    slv.set_defaults(func=_cmd_solve)

    rnd = sub.add_parser("round", help="project a primal estimate to feasibility")
    rnd_kinds = rnd.add_subparsers(dest="kind", required=True)
    for kind in ("ot", "maxcut", "ps-strong"):
        r = rnd_kinds.add_parser(kind)
        r.add_argument("--problem", required=True, help="problem directory")
        r.add_argument("--estimate", required=True,
                       help="primal estimate, .mtx or .npy")
        r.add_argument("--out", required=True)
    rnd.set_defaults(func=_cmd_round)

    crt = sub.add_parser("certify",
                         help="check a trace against its gradient-decay bound")
    crt.add_argument("--problem", required=True, help="problem directory")
    crt.add_argument("--trace", required=True, help="trace CSV from solve")
    crt.add_argument("--metadata", default=None,
                     help="trace JSON, defaults to the CSV path with .json")
    crt.add_argument("--gamma", type=float, default=None,
                     help="override the gradient-error level")
    crt.set_defaults(func=_cmd_certify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
