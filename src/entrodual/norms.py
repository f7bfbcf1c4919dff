"""Norm families on the dual variables and the argmin steps they induce.

Three geometries cover the four problems: the sup norm on a single vector,
a scaled sup-pair norm on a pair of vectors, and a max spectral norm on a
stack of symmetric blocks. Each dual step is the exact minimizer of the
linearized objective plus a proximal term ||delta||^2 / (2 eta): the step
length is always eta * dual_norm(g) and the model decrease is
(eta/2) * dual_norm(g)^2, so steepest descent happens along the sign pattern
(or matrix sign) of the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormFamily",
    "primal_norm",
    "dual_norm",
    "step_linf",
    "step_pair",
    "step_block",
    "matrix_sign",
]


@dataclass(frozen=True)
class NormFamily:
    """Tag selecting one of the three dual-space geometries.

    kind "linf": payload is a vector; primal sup norm, dual l1 norm.
    kind "pair": payload is a pair (u, v); primal sqrt(2(max|u|^2 + max|v|^2)),
    dual sqrt((|u|_1^2 + |v|_1^2) / 2).
    kind "block_spectral": payload is a (N, K, K) symmetric stack; primal
    max spectral norm, dual sum of trace norms.
    """

    kind: str
    blocks: int = 0
    block_size: int = 0

    @classmethod
    def linf(cls) -> "NormFamily":
        return cls("linf")

    @classmethod
    def pair(cls) -> "NormFamily":
        return cls("pair")

    @classmethod
    def block_spectral(cls, blocks: int, block_size: int) -> "NormFamily":
        assert blocks >= 1 and block_size >= 1
        return cls("block_spectral", blocks, block_size)


def _as_pair(x):
    u, v = x
    return np.asarray(u, dtype=float), np.asarray(v, dtype=float)


def _as_blocks(x, family: NormFamily) -> np.ndarray:
    b = np.asarray(x, dtype=float)
    if b.ndim != 3 or b.shape[1] != b.shape[2]:
        raise ValueError("block payload must have shape (N, K, K)")
    if family.blocks and b.shape[0] != family.blocks:
        raise ValueError(f"expected {family.blocks} blocks, got {b.shape[0]}")
    if family.block_size and b.shape[1] != family.block_size:
        raise ValueError(f"expected {family.block_size}x{family.block_size} blocks")
    scale = max(1.0, np.abs(b).max(initial=0.0))
    if np.abs(b - b.transpose(0, 2, 1)).max(initial=0.0) > 1e-12 * scale:
        raise ValueError("blocks must be symmetric")
    return b


def primal_norm(family: NormFamily, x) -> float:
    if family.kind == "linf":
        return float(np.abs(np.asarray(x, dtype=float)).max(initial=0.0))
    if family.kind == "pair":
        u, v = _as_pair(x)
        mu = np.abs(u).max(initial=0.0)
        mv = np.abs(v).max(initial=0.0)
        return float(np.sqrt(2.0 * (mu * mu + mv * mv)))
    if family.kind == "block_spectral":
        b = _as_blocks(x, family)
        return float(np.abs(np.linalg.eigvalsh(b)).max(initial=0.0))
    raise ValueError(f"unknown norm family: {family.kind!r}")


def dual_norm(family: NormFamily, g) -> float:
    if family.kind == "linf":
        return float(np.abs(np.asarray(g, dtype=float)).sum())
    if family.kind == "pair":
        a, b = _as_pair(g)
        sa, sb = np.abs(a).sum(), np.abs(b).sum()
        return float(np.sqrt(0.5 * (sa * sa + sb * sb)))
    if family.kind == "block_spectral":
        blocks = _as_blocks(g, family)
        return float(np.abs(np.linalg.eigvalsh(blocks)).sum())
    raise ValueError(f"unknown norm family: {family.kind!r}")


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
    u, v = _as_pair(point)
    gu, gv = _as_pair(grad)
    if u.shape != gu.shape or v.shape != gv.shape:
        raise ValueError("shape mismatch between point and gradient")
    return (step_linf(u, gu, 0.5 * eta), step_linf(v, gv, 0.5 * eta))


def matrix_sign(g: np.ndarray) -> np.ndarray:
    """Spectral sign of a symmetric matrix (or an (N, K, K) stack of them).

    Eigenvalues with magnitude at most 1e-12 times the block's spectral norm
    map to zero, so the result squared is the projector onto the non-null
    eigenspace.
    """
    g = np.asarray(g, dtype=float)
    single = g.ndim == 2
    stack = g[None] if single else g
    evals, vecs = np.linalg.eigh(stack)
    scale = np.abs(evals).max(axis=1, keepdims=True)
    s = np.sign(evals) * (np.abs(evals) > 1e-12 * scale)
    out = np.einsum("bik,bk,bjk->bij", vecs, s, vecs)
    out = (out + out.transpose(0, 2, 1)) / 2.0
    return out[0] if single else out


def step_block(lams: np.ndarray, grads: np.ndarray, eta: float) -> np.ndarray:
    """Each block moves by eta * (sum_j trace_norm(G_j)) * matrix_sign(G_i)."""
    lams = np.asarray(lams, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if lams.shape != grads.shape:
        raise ValueError("shape mismatch between point and gradient")
    total = np.abs(np.linalg.eigvalsh(grads)).sum()
    if total == 0.0:
        return lams.copy()
    return lams - eta * total * matrix_sign(grads)

