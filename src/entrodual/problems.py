"""The four entropically regularized problems behind one dual-solver contract.

Each problem owns its cost data and exposes: its dual norm geometry (one of
the shared norms.LINF, PAIR and BLOCK_SPECTRAL objects, which also takes the
dual step), the zero initial dual point, one exact evaluator
dense_eval(duals) returning (gradient, objective), a probe-based stochastic
gradient for the SDPs, and the primal feasibility metric: the geometry's
dual norm of the gradient, except on ps-weak and OT. Each gradient is the
constraint residual of the current Gibbs state, so feasibility is a cheap
function of it. An SDP reads both from one Gibbs state in evaluate: the
residual A(W W^T / mass) - b in stochastic_gradient, the objective from its
log partition. The state is the probe images, or in dense_eval the exact
factor of one eigendecomposition.

Sign convention: the dual concave objective g(lambda) is stored negated, as
f(lambda) = -g(lambda), so every routine here minimizes f. Constraint data
enters f through a linear term: f(lambda) = -<b, lambda> + log Z(lambda) / beta.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property
from math import ceil, log
from typing import Tuple

import numpy as np

from entrodual.norms import (BLOCK_SPECTRAL, LINF, PAIR, BlockSpectralGeometry,
                             LinfGeometry, PairGeometry)
from entrodual.operators import ProbeBatch, SymOperator, dense_gibbs

__all__ = [
    "MaxCutProblem",
    "OTProblem",
    "StrongPermSyncProblem",
    "WeakPermSyncProblem",
]


def _digest(cost, *vectors) -> str:
    """CRC-32 of an instance's arrays as eight hex digits: it tells instances
    apart, and resists no crafted collision. An SDP cost enters as CSR with
    sorted int64 indices and no explicit zeros, so equal matrices share a
    digest however they were built, the directory round trip included."""
    if isinstance(cost, SymOperator):
        csr = cost.to_sparse()
        csr.sort_indices()
        arrays = [csr.indptr.astype(np.int64), csr.indices.astype(np.int64),
                  csr.data.astype(np.float64)]
    else:
        arrays = [cost]
    crc = 0
    for a in arrays + list(vectors):
        crc = zlib.crc32(np.ascontiguousarray(a), crc)
    return f"{crc:08x}"


class _GibbsProblem:
    """Shared by the SDPs: every evaluation reads one Gibbs state's batch."""

    @property
    def dimension(self) -> int:
        return self.cost.n

    def _check_cost(self) -> None:
        bad = int(np.count_nonzero(~np.isfinite(self.cost.base.data)))
        if bad:
            raise ValueError(f"cost must be finite; {bad} of its entries are not")

    def _check_batch(self, batch: ProbeBatch) -> None:
        if batch.n != self.dimension:
            raise ValueError("probe batch dimension mismatch")

    def feasibility_error(self, grad) -> float:
        return self.norm_family().dual(grad)

    def evaluate(self, lam, batch: ProbeBatch):
        """(gradient, objective) read from the Gibbs state batch at lam."""
        return (self.stochastic_gradient(batch),
                -self.linear_term(lam) + batch.log_partition / self.beta)

    def dense_eval(self, lam):
        """(gradient, objective) from a single eigendecomposition."""
        return self.evaluate(lam, dense_gibbs(self.shifted_operator(lam), self.beta))

    def default_sample_count(self) -> int:
        return max(1, ceil(25 * log(max(2, self.dimension))))


@dataclass(frozen=True)
class MaxCutProblem(_GibbsProblem):
    """Minimize Tr[CX] + entropy/beta over unit-trace PSD X with diag(X) = b."""

    cost: SymOperator
    b: np.ndarray
    beta: float

    def __post_init__(self):
        self._check_cost()
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

    @cached_property
    def digest(self) -> str:
        """_digest of the cost and b, computed once: the problem is immutable."""
        return _digest(self.cost, self.b)

    def descriptor(self) -> dict:
        return {"kind": "maxcut", "n": self.dimension, "beta": self.beta,
                "kappa": self.kappa, "digest": self.digest}


@dataclass(frozen=True)
class OTProblem:
    """Entropic optimal transport between two finite marginals.

    Duals are a pair of potentials; gradients are exact marginal residuals of
    the normalized Gibbs plan, so there is no stochastic path for this problem.
    Each evaluation writes E = exp(-beta C + beta phi + beta psi - m), m the
    largest exponent, into one fresh array of the cost's shape and never
    normalizes it: the marginals are E's row and column sums over its total
    s (the sum of the row sums), and log Z = m + log s. plan() alone divides
    E by s. A constant added to phi or to psi changes neither f nor its
    gradient (m absorbs it), so the potentials are never centred.
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

    def _gibbs_kernel(self, duals) -> Tuple[np.ndarray, float, np.ndarray]:
        """(E, m, row sums of E) for the potentials, E unnormalized (see class)."""
        phi, psi = duals
        e = np.multiply(self.cost, -self.beta)
        e += (self.beta * np.asarray(phi))[:, None]
        e += (self.beta * np.asarray(psi))[None, :]
        m = e.max()
        e -= m
        np.exp(e, out=e)
        return e, float(m), e.sum(axis=1)

    def plan(self, duals) -> np.ndarray:
        """Normalized Gibbs transport plan at the given potentials."""
        e, _, rows = self._gibbs_kernel(duals)
        e /= rows.sum()
        return e

    def dense_eval(self, duals):
        """(gradient, objective): the plan's marginals and log partition from E."""
        phi, psi = duals
        e, m, rows = self._gibbs_kernel(duals)
        s = rows.sum()
        grad = (rows / s - self.mu, e.sum(axis=0) / s - self.nu)
        log_z = m + float(np.log(s))
        return grad, -float(self.mu @ phi + self.nu @ psi) + log_z / self.beta

    def feasibility_error(self, grad) -> float:
        gp, gq = grad
        return float(np.abs(gp).sum() + np.abs(gq).sum())

    @cached_property
    def digest(self) -> str:
        """_digest of the cost and both marginals, computed once."""
        return _digest(self.cost, self.mu, self.nu)

    def descriptor(self) -> dict:
        return {"kind": "ot", "m": self.shape[0], "n": self.shape[1],
                "beta": self.beta, "cost_bound": self.cost_bound,
                "marginal_floor": self.marginal_floor, "digest": self.digest}


def check_count(name: str, value) -> None:
    """Raise, naming the field, unless value is an integer; a bool is not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer (finite, not a bool), got {value!r}")


@dataclass(frozen=True)
class _SyncProblem(_GibbsProblem):
    """Shared data of the synchronization SDPs: N images of K keypoints each."""

    cost: SymOperator
    num_images: int
    block_size: int
    beta: float

    def __post_init__(self):
        self._check_cost()
        for name in ("num_images", "block_size"):
            check_count(name, getattr(self, name))
        if self.num_images < 1 or self.block_size < 1:
            raise ValueError("block structure must be positive")
        if self.cost.n != self.num_images * self.block_size:
            raise ValueError("operator size must equal num_images * block_size")
        if not 0.0 < self.beta < np.inf:
            raise ValueError("beta must be positive and finite")

    @cached_property
    def digest(self) -> str:
        """_digest of the cost, computed once."""
        return _digest(self.cost)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "num_images": self.num_images,
                "block_size": self.block_size, "n": self.dimension,
                "beta": self.beta, "digest": self.digest}


# float64 entries of image rows widened at once for a block Gram (128 KiB);
# larger chunks were no faster and raised the peak RSS
_GRAM_ENTRIES = 2**14


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
        k, s = self.block_size, batch.num_samples
        rows = batch.images.reshape(self.num_images, k, s)
        blocks = np.empty((self.num_images, k, k))
        # each block's Gram as a float64 product, a few images at a time: a
        # float64 copy of all the images would raise the peak footprint
        step = max(1, _GRAM_ENTRIES // (k * s))
        for i in range(0, self.num_images, step):
            chunk = rows[i:i + step].astype(np.float64, copy=False)
            np.matmul(chunk, chunk.transpose(0, 2, 1), out=blocks[i:i + step])
        blocks /= batch.mass
        return blocks - np.eye(k) / self.dimension

    def default_sample_count(self) -> int:
        return max(1, ceil(8 * self.block_size * log(max(2, self.dimension))))


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
        colsum = rows.sum(axis=1, dtype=np.float64)
        block_means = np.einsum("ns,ns->n", colsum, colsum) / (batch.mass
                                                               * self.block_size)
        inv_n = 1.0 / self.dimension
        return (batch.r / batch.mass - inv_n, block_means - inv_n)

    def feasibility_error(self, grad) -> float:
        g, h = grad
        return float(np.hypot(np.abs(g).sum(), np.abs(h).sum()))

