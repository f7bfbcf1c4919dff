"""The four entropically regularized problems behind one dual-solver contract.

Each problem owns its cost data and exposes: its dual norm geometry (one of
the shared norms.LINF, PAIR and BLOCK_SPECTRAL objects), the zero initial
dual point, one exact evaluator dense_eval(duals) returning
(gradient, objective), a probe-based stochastic gradient for the SDPs, the
norm-induced update, and the primal feasibility metric derived from the
gradient. Each gradient is the constraint residual of the current Gibbs state,
so feasibility is a cheap function of it. An SDP reads its residual
A(W W^T / mass) - b once, in stochastic_gradient, from a factor W: the probe
images, or in dense_eval the exact factor of one eigendecomposition, whose
log partition also gives the objective.

Sign convention: the dual concave objective g(lambda) is stored negated, as
f(lambda) = -g(lambda), so every routine here minimizes f. Constraint data
enters f through a linear term: f(lambda) = -<b, lambda> + log Z(lambda) / beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log
from typing import Tuple

import numpy as np

from entrodual.norms import (BLOCK_SPECTRAL, LINF, PAIR, BlockSpectralGeometry,
                             LinfGeometry, PairGeometry, step_block, step_linf,
                             step_pair)
from entrodual.operators import SymOperator, dense_gibbs
from entrodual.probes import ProbeBatch

__all__ = [
    "MaxCutProblem",
    "OTProblem",
    "StrongPermSyncProblem",
    "WeakPermSyncProblem",
]


class _GibbsProblem:
    """Shared by the SDPs: dense_eval reads the exact factor via stochastic_gradient."""

    @property
    def dimension(self) -> int:
        return self.cost.n

    def _check_batch(self, batch: ProbeBatch) -> None:
        if batch.n != self.dimension:
            raise ValueError("probe batch dimension mismatch")

    def dense_eval(self, lam):
        """(gradient, objective) from a single eigendecomposition."""
        state = dense_gibbs(self.shifted_operator(lam), self.beta)
        return (self.stochastic_gradient(ProbeBatch(state.factor)),
                -self.linear_term(lam) + state.log_partition / self.beta)

    def default_sample_count(self) -> int:
        return max(1, ceil(25 * log(max(2, self.dimension))))


@dataclass(frozen=True)
class MaxCutProblem(_GibbsProblem):
    """Minimize Tr[CX] + entropy/beta over unit-trace PSD X with diag(X) = b."""

    cost: SymOperator
    b: np.ndarray
    beta: float

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        object.__setattr__(self, "b", b)
        if b.shape != (self.cost.n,):
            raise ValueError("b must have one entry per vertex")
        if not np.all(b > 0.0):
            raise ValueError("b must be strictly positive")
        if abs(b.sum() - 1.0) > 1e-12:
            raise ValueError("b must sum to 1")
        if not 0.0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")

    @property
    def kappa(self) -> float:
        return float(self.b.max() / self.b.min())

    def norm_family(self) -> LinfGeometry:
        return LINF

    def initial_dual(self) -> np.ndarray:
        return np.zeros(self.dimension)

    def shifted_operator(self, lam: np.ndarray) -> SymOperator:
        return self.cost.folded(diag=-np.asarray(lam, dtype=float))

    def linear_term(self, lam: np.ndarray) -> float:
        return float(self.b @ lam)

    def stochastic_gradient(self, batch: ProbeBatch) -> np.ndarray:
        self._check_batch(batch)
        return batch.r / batch.mass - self.b

    def update(self, lam, grad, eta: float) -> np.ndarray:
        return step_linf(lam, grad, eta)

    def feasibility_error(self, grad) -> float:
        return LINF.dual(grad)

    def descriptor(self) -> dict:
        return {"kind": "maxcut", "n": self.dimension, "beta": self.beta,
                "kappa": self.kappa}


@dataclass(frozen=True)
class OTProblem:
    """Entropic optimal transport between two finite marginals.

    Duals are a pair of potentials; gradients are exact marginal residuals of
    the normalized Gibbs plan, so there is no stochastic path for this problem.
    """

    cost: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    beta: float

    def __post_init__(self):
        c = np.asarray(self.cost, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        nu = np.asarray(self.nu, dtype=float)
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        if c.ndim != 2 or c.shape != (mu.size, nu.size):
            raise ValueError("cost must be m x n matching the marginals")
        if not all(np.isfinite(a).all() for a in (c, mu, nu)):
            raise ValueError("cost and marginals must be finite")
        for m in (mu, nu):
            if np.any(m < 0.0) or abs(m.sum() - 1.0) > 1e-12:
                raise ValueError("marginals must be nonnegative and sum to 1")
        if min(mu.min(), nu.min()) <= 0.0:
            raise ValueError("marginals must be strictly positive")
        if not 0.0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")

    @property
    def shape(self) -> Tuple[int, int]:
        return self.cost.shape

    @property
    def cost_bound(self) -> float:
        """Largest absolute cost entry."""
        return float(np.abs(self.cost).max())

    @property
    def marginal_floor(self) -> float:
        """Smallest marginal entry."""
        return float(min(self.mu.min(), self.nu.min()))

    def norm_family(self) -> PairGeometry:
        return PAIR

    def initial_dual(self):
        return (np.zeros(self.mu.size), np.zeros(self.nu.size))

    def _plan_and_log_partition(self, duals) -> Tuple[np.ndarray, float]:
        """Normalized plan and log sum exp(-beta (C - phi - psi)), one pass."""
        phi, psi = duals
        e = np.subtract(self.cost, np.asarray(phi)[:, None])
        e -= np.asarray(psi)[None, :]
        e *= -self.beta
        m = e.max()
        e -= m
        np.exp(e, out=e)
        s = e.sum()
        e /= s
        return e, float(m + np.log(s))

    def plan(self, duals) -> np.ndarray:
        """Normalized Gibbs transport plan at the given potentials."""
        return self._plan_and_log_partition(duals)[0]

    def dense_eval(self, duals):
        """(gradient, objective) from one stabilized pass over the log-plan."""
        phi, psi = duals
        pi, log_z = self._plan_and_log_partition(duals)
        grad = (pi.sum(axis=1) - self.mu, pi.sum(axis=0) - self.nu)
        return grad, -float(self.mu @ phi + self.nu @ psi) + log_z / self.beta

    def update(self, duals, grad, eta: float):
        phi, psi = step_pair(duals, grad, eta)
        return (phi - phi.mean(), psi - psi.mean())

    def feasibility_error(self, grad) -> float:
        gp, gq = grad
        return float(np.abs(gp).sum() + np.abs(gq).sum())

    def descriptor(self) -> dict:
        return {"kind": "ot", "m": self.shape[0], "n": self.shape[1],
                "beta": self.beta, "cost_bound": self.cost_bound,
                "marginal_floor": self.marginal_floor}


@dataclass(frozen=True)
class _SyncProblem(_GibbsProblem):
    """Shared data of the synchronization SDPs: N images of K keypoints each."""

    cost: SymOperator
    num_images: int
    block_size: int
    beta: float

    def __post_init__(self):
        for name in ("num_images", "block_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.num_images < 1 or self.block_size < 1:
            raise ValueError("block structure must be positive")
        if self.cost.n != self.num_images * self.block_size:
            raise ValueError("operator size must equal num_images * block_size")
        if not 0.0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")

    def descriptor(self) -> dict:
        return {"kind": self.kind, "num_images": self.num_images,
                "block_size": self.block_size, "n": self.dimension,
                "beta": self.beta}


@dataclass(frozen=True)
class StrongPermSyncProblem(_SyncProblem):
    """Permutation synchronization SDP with full diagonal blocks pinned to I/n.

    The cost operator has (N, K) block structure; duals are one symmetric
    K x K block per image, and gradients are the diagonal-block residuals.
    """

    kind = "ps-strong"

    def norm_family(self) -> BlockSpectralGeometry:
        return BLOCK_SPECTRAL

    def initial_dual(self) -> np.ndarray:
        return np.zeros((self.num_images, self.block_size, self.block_size))

    def shifted_operator(self, lam: np.ndarray) -> SymOperator:
        return self.cost.folded(blocks=-np.asarray(lam, dtype=float))

    def linear_term(self, lam: np.ndarray) -> float:
        return float(np.trace(lam, axis1=1, axis2=2).sum() / self.dimension)

    def stochastic_gradient(self, batch: ProbeBatch) -> np.ndarray:
        self._check_batch(batch)
        rows = batch.images.reshape(self.num_images, self.block_size,
                                    batch.num_samples)
        blocks = np.einsum("nks,nls->nkl", rows, rows) / batch.mass
        return blocks - np.eye(self.block_size) / self.dimension

    def update(self, lam, grad, eta: float) -> np.ndarray:
        return step_block(lam, grad, eta)

    def feasibility_error(self, grad) -> float:
        return BLOCK_SPECTRAL.dual(grad)

    def default_sample_count(self) -> int:
        return max(1, ceil(8 * self.block_size * log(max(2, self.num_images))))


@dataclass(frozen=True)
class WeakPermSyncProblem(_SyncProblem):
    """Permutation synchronization SDP with diagonal and block-mass constraints.

    Duals are a pair (per-row vector, per-image vector); the second component
    prices the all-ones quadratic form on each diagonal block.
    """

    kind = "ps-weak"

    def norm_family(self) -> PairGeometry:
        return PAIR

    def initial_dual(self):
        return (np.zeros(self.dimension), np.zeros(self.num_images))

    def shifted_operator(self, duals) -> SymOperator:
        lam, mu = duals
        k = self.block_size
        ones_block = np.ones((k, k)) / k
        blocks = -np.asarray(mu, dtype=float)[:, None, None] * ones_block
        return self.cost.folded(diag=-np.asarray(lam, dtype=float), blocks=blocks)

    def linear_term(self, duals) -> float:
        lam, mu = duals
        return float((np.sum(lam) + np.sum(mu)) / self.dimension)

    def stochastic_gradient(self, batch: ProbeBatch):
        self._check_batch(batch)
        rows = batch.images.reshape(self.num_images, self.block_size,
                                    batch.num_samples)
        colsum = rows.sum(axis=1)
        block_means = np.einsum("ns,ns->n", colsum, colsum) / (batch.mass
                                                               * self.block_size)
        inv_n = 1.0 / self.dimension
        return (batch.r / batch.mass - inv_n, block_means - inv_n)

    def update(self, duals, grad, eta: float):
        return step_pair(duals, grad, eta)

    def feasibility_error(self, grad) -> float:
        g, h = grad
        return float(np.hypot(np.abs(g).sum(), np.abs(h).sum()))

