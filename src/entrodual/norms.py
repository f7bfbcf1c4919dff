"""The norm geometry of each dual payload and the argmin steps it induces.

Three geometries cover the four problems: the sup norm on a single vector
(LINF), a scaled sup-pair norm on a pair of vectors (PAIR), and a max
spectral norm on a stack of symmetric blocks (BLOCK_SPECTRAL). Each is one
shared object whose primal(x), dual(g), diff(a, b) and step(point, g, eta)
know the payload's shape; a problem's norm_family() returns its geometry,
which takes every solver step, and primal_norm and dual_norm call its norms.
prepare(g) gives a gradient the form its geometry reads fastest:
BLOCK_SPECTRAL decomposes each block once, into a BlockSpectrum that its
norms and step_block read in place of the stack; the others return g.

Each step (step_linf, step_pair, step_block) is the exact minimizer of the
linearized objective plus a proximal term ||delta||^2 / (2 eta): its length
is always eta * dual_norm(g), which the solver records without measuring the
move, and the model decrease is (eta/2) * dual_norm(g)^2, so steepest descent
happens along the sign pattern (or matrix sign) of the gradient. Every step
returns a fresh payload and leaves its inputs unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LINF",
    "PAIR",
    "BLOCK_SPECTRAL",
    "BlockSpectrum",
    "primal_norm",
    "dual_norm",
    "step_linf",
    "step_pair",
    "step_block",
    "matrix_sign",
]


class LinfGeometry:
    """Payload a vector; primal sup norm, dual l1 norm."""

    def primal(self, x) -> float:
        return float(np.abs(np.asarray(x, dtype=float)).max(initial=0.0))

    def dual(self, g) -> float:
        return float(np.abs(np.asarray(g, dtype=float)).sum())

    def diff(self, a, b):
        return a - b

    def prepare(self, g):
        return g

    def step(self, point, g, eta: float):
        return step_linf(point, g, eta)


class PairGeometry:
    """Payload a pair (u, v); primal sqrt(2(max|u|^2 + max|v|^2)),
    dual sqrt((|u|_1^2 + |v|_1^2) / 2)."""

    def primal(self, x) -> float:
        u, v = x
        mu = np.abs(u).max(initial=0.0)
        mv = np.abs(v).max(initial=0.0)
        return float(np.sqrt(2.0 * (mu * mu + mv * mv)))

    def dual(self, g) -> float:
        a, b = g
        sa, sb = np.abs(a).sum(), np.abs(b).sum()
        return float(np.sqrt(0.5 * (sa * sa + sb * sb)))

    def diff(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def prepare(self, g):
        return g

    def step(self, point, g, eta: float):
        return step_pair(point, g, eta)


@dataclass(frozen=True)
class BlockSpectrum:
    """The eigendecomposition of each block of a symmetric (N, K, K) stack,
    block i = vectors[i] @ diag(values[i]) @ vectors[i].T."""

    values: np.ndarray
    vectors: np.ndarray


class BlockSpectralGeometry:
    """Payload an (N, K, K) symmetric stack; primal max spectral norm, dual
    sum of trace norms. Each norm also reads a BlockSpectrum."""

    @staticmethod
    def _checked(x) -> np.ndarray:
        # eigvalsh and eigh read one triangle, so an asymmetric stack must
        # raise here instead of giving a wrong norm or step
        b = np.asarray(x, dtype=float)
        if b.ndim != 3 or b.shape[1] != b.shape[2]:
            raise ValueError("block payload must have shape (N, K, K)")
        scale = max(1.0, np.abs(b).max(initial=0.0))
        if np.abs(b - b.transpose(0, 2, 1)).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("blocks must be symmetric")
        return b

    def _abs_eigvals(self, x) -> np.ndarray:
        if isinstance(x, BlockSpectrum):
            return np.abs(x.values)
        return np.abs(np.linalg.eigvalsh(self._checked(x)))

    def prepare(self, g) -> BlockSpectrum:
        """g with each block decomposed, one eigh for the whole stack; a
        BlockSpectrum is returned as it is."""
        if isinstance(g, BlockSpectrum):
            return g
        return BlockSpectrum(*np.linalg.eigh(self._checked(g)))

    def primal(self, x) -> float:
        return float(self._abs_eigvals(x).max(initial=0.0))

    def dual(self, g) -> float:
        return float(self._abs_eigvals(g).sum())

    def diff(self, a, b):
        return a - b

    def step(self, point, g, eta: float):
        return step_block(point, g, eta)


LINF = LinfGeometry()
PAIR = PairGeometry()
BLOCK_SPECTRAL = BlockSpectralGeometry()


def primal_norm(geometry, x) -> float:
    return geometry.primal(x)


def dual_norm(geometry, g) -> float:
    return geometry.dual(g)


def step_linf(lam: np.ndarray, g: np.ndarray, eta_eff: float) -> np.ndarray:
    """lam - eta_eff * |g|_1 * sign(g), the exact sup-norm proximal step."""
    lam = np.asarray(lam, dtype=float)
    g = np.asarray(g, dtype=float)
    if lam.shape != g.shape:
        raise ValueError("shape mismatch between point and gradient")
    l1 = np.abs(g).sum()
    if l1 == 0.0:
        return lam.copy()
    return lam - eta_eff * l1 * np.sign(g)


def step_pair(point, grad, eta: float):
    """Each component moves by (eta/2) * |g_side|_1 * sign(g_side), the pair-norm argmin."""
    (u, v), (gu, gv) = point, grad
    return (step_linf(u, gu, 0.5 * eta), step_linf(v, gv, 0.5 * eta))


def matrix_sign(g: np.ndarray) -> np.ndarray:
    """Spectral sign of a symmetric matrix (or an (N, K, K) stack of them).

    Eigenvalues with magnitude at most 1e-12 times the block's spectral norm,
    floored at 1e-300, map to zero, so the result squared is the projector
    onto the non-null eigenspace; a block of subnormal entries maps to zero.
    """
    g = np.asarray(g, dtype=float)
    single = g.ndim == 2
    out = _sign(*np.linalg.eigh(g[None] if single else g))
    return out[0] if single else out


def _sign(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """matrix_sign of the stack whose blocks have these eigenpairs."""
    scale = np.maximum(np.abs(evals).max(axis=1, keepdims=True), 1e-300)
    s = np.sign(evals) * (np.abs(evals) > 1e-12 * scale)
    out = (vecs * s[:, None, :]) @ vecs.transpose(0, 2, 1)
    return (out + out.transpose(0, 2, 1)) / 2.0


def step_block(lams: np.ndarray, grads, eta: float) -> np.ndarray:
    """Each block moves by eta * (sum_j trace_norm(G_j)) * matrix_sign(G_i).

    grads is a symmetric (N, K, K) stack or its BlockSpectrum, whose
    decomposition then serves the step too.
    """
    lams = np.asarray(lams, dtype=float)
    g = BLOCK_SPECTRAL.prepare(grads)
    if lams.shape != g.vectors.shape:
        raise ValueError("shape mismatch between point and gradient")
    total = np.abs(g.values).sum()
    if total == 0.0:
        return lams.copy()
    return lams - eta * total * _sign(g.values, g.vectors)

