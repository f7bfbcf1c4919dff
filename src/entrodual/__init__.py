"""Dual gradient ascent in problem-adapted norms for entropically regularized LPs and SDPs."""

from entrodual.datasets import (
    PermSynchModel,
    SinkhornResult,
    gen_er_maxcut,
    gen_permsynch,
    gen_synthetic_ot,
    grid_cost,
    load_mnist_pair,
    sinkhorn_reference,
)
from entrodual.experiments import ExperimentSpec, build_problem, run_experiment
from entrodual.norms import BLOCK_SPECTRAL, LINF, PAIR, dual_norm, primal_norm
from entrodual.operators import (
    ProbeBatch,
    SpectralInterval,
    SymOperator,
    dense_gibbs,
    expm_action,
    load_matrix_market,
    spectral_bounds,
    vn_entropy,
)
from entrodual.probes import draw_probes, probe_gibbs
from entrodual.problems import (
    MaxCutProblem,
    OTProblem,
    StrongPermSyncProblem,
    WeakPermSyncProblem,
)
from entrodual.rounding import (
    RoundedPrimal,
    round_maxcut,
    round_ot,
    round_strong_ps,
    triple_norm,
)
from entrodual.solver import (
    CertificateReport,
    SolverConfig,
    SolverTrace,
    certify_gradient_decay,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_SPECTRAL",
    "CertificateReport",
    "ExperimentSpec",
    "LINF",
    "MaxCutProblem",
    "OTProblem",
    "PAIR",
    "PermSynchModel",
    "ProbeBatch",
    "RoundedPrimal",
    "SinkhornResult",
    "SolverConfig",
    "SolverTrace",
    "SpectralInterval",
    "StrongPermSyncProblem",
    "SymOperator",
    "WeakPermSyncProblem",
    "build_problem",
    "certify_gradient_decay",
    "dense_gibbs",
    "draw_probes",
    "dual_norm",
    "expm_action",
    "gen_er_maxcut",
    "gen_permsynch",
    "gen_synthetic_ot",
    "grid_cost",
    "load_matrix_market",
    "load_mnist_pair",
    "primal_norm",
    "probe_gibbs",
    "round_maxcut",
    "round_ot",
    "round_strong_ps",
    "run_experiment",
    "sinkhorn_reference",
    "solve",
    "spectral_bounds",
    "triple_norm",
    "vn_entropy",
]
