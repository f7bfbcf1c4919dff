"""Convergence profiles for the three problem families, one subcommand each.

maxcut: stochastic solves on Erdos-Renyi cut relaxations (edge probability
3/n) at several sizes; the averaged feasibility curves should coincide across
sizes (dimension independence).
ot: exact solves on entropic transport, on a bright square over dim noise
or, with --images, a pooled pair from an IDX image file (0.01 added per
pixel).
permsynch: both synchronization relaxations of N images with K keypoints
each at beta = 10 log(n)/n, n = N K; strong pins every diagonal block
(registry max(K, ceil(N/2))), weak only the diagonal and the block mass
(registry K). Every solve draws problem.default_sample_count() probes.

Each run writes per-replicate traces, an averaged curve and a JSON summary,
and prints the process's peak resident set size after it (peak_rss_mb of the
summary): a running maximum over the whole process, so with several sizes
each line reads the largest size run so far when sizes ascend.
Every family records the dual objective: exact on transport, and on the
stochastic SDP solves the Hutchinson estimate from each iteration's probes.
"""

import argparse
import math
from pathlib import Path

from entrodual.experiments import ExperimentSpec, run_experiment
from entrodual.solver import SolverConfig


def maxcut_specs(args):
    for n in args.sizes:
        yield f"n={n:5d}", ExperimentSpec(
            kind="maxcut",
            params={"n": n, "beta": args.beta},
            config=SolverConfig(iters=args.iters, seed=args.seed),
            out_dir=str(Path(args.out) / f"n{n}"),
            replicates=args.replicates,
            name=f"maxcut_n{n}",
        )


def ot_specs(args):
    if args.images:
        kind = "ot-mnist"
        params = {"path": args.images, "k": args.k, "beta": args.beta}
        name = f"ot_images_k{args.k}"
    else:
        kind = "ot-synthetic"
        params = {"k": args.k, "beta": args.beta}
        name = f"ot_synthetic_k{args.k}"
    yield f"{kind} k={args.k}", ExperimentSpec(
        kind=kind,
        params=params,
        config=SolverConfig(iters=args.iters, seed=args.seed),
        out_dir=str(Path(args.out)),
        replicates=args.replicates,
        name=name,
    )


def permsynch_specs(args):
    n_img, k = args.num_images, args.keypoints
    n = n_img * k
    beta = 10.0 * math.log(n) / n
    for kind in args.kinds:
        if kind == "ps-strong":
            registry = max(k, math.ceil(n_img / 2))
            corruption = 0.15
        else:
            registry = k
            corruption = 0.10
        yield (f"{kind:9s}  N={n_img} K={k} beta={beta:.4f}",
               ExperimentSpec(
                   kind=kind,
                   params={"num_images": n_img, "keypoints": k,
                           "registry": registry, "corruption": corruption,
                           "beta": beta},
                   config=SolverConfig(iters=args.iters, seed=args.seed),
                   out_dir=str(Path(args.out) / kind),
                   replicates=args.replicates,
                   name=f"{kind}_N{n_img}_K{k}",
               ))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="family", required=True)

    def add(name, specs, iters, replicates, out):
        p = sub.add_parser(name)
        p.add_argument("--iters", type=int, default=iters)
        p.add_argument("--replicates", type=int, default=replicates)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=out)
        p.set_defaults(specs=specs)
        return p

    p = add("maxcut", maxcut_specs, 200, 5, "results/maxcut_profile")
    p.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200])
    p.add_argument("--beta", type=float, default=10.0)
    p = add("ot", ot_specs, 500, 5, "results/ot_profile")
    p.add_argument("--k", type=int, default=8, help="image side length")
    p.add_argument("--beta", type=float, default=10.0)
    p.add_argument("--images", default=None,
                   help="IDX image file; switches to pooled real images")
    p = add("permsynch", permsynch_specs, 200, 3, "results/permsynch_profile")
    p.add_argument("--num-images", type=int, default=20)
    p.add_argument("--keypoints", type=int, default=10)
    p.add_argument("--kinds", nargs="+", default=["ps-strong", "ps-weak"],
                   choices=["ps-strong", "ps-weak"])
    return ap


def main(argv=None) -> None:
    args = build_parser().parse_args(argv)
    for label, spec in args.specs(args):
        summary = run_experiment(spec)
        print(f"{label}  replicates ok {summary['succeeded']}/{spec.replicates}  "
              f"peak RSS {summary['peak_rss_mb']:.1f} MB  "
              f"avg -> {summary.get('averaged_csv', 'none')}")


if __name__ == "__main__":
    main()
