"""Rounding near-feasible primal estimates to exactly feasible points.

Each rounder returns the feasible payload together with a proven bound on the
perturbation it can introduce, in the units of the shift it measures: the
objective when a cost is given. Transport plans are fixed by
row/column scaling plus a rank-one mass correction. Both SDP rounders run one
algorithm: a block-diagonal congruence of the PSD factor caps every diagonal
block at its target, and the deficit is shifted back onto the diagonal
blocks, which keeps the output PSD by construction. Max-Cut is the case of
1 x 1 blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["RoundedPrimal", "psd_factor", "round_ot",
           "round_maxcut", "round_strong_ps", "triple_norm"]


@dataclass(frozen=True)
class RoundedPrimal:
    """Feasible payload, the certified perturbation bound, and the shift actually measured.

    The certificate bounds measured_shift. That is the realized
    |<A, X - X'>| (or |<C, pi_hat - pi>|) when the objective matrix was
    supplied; for transport without a cost it is the entrywise l1 movement of
    the plan.
    """

    payload: np.ndarray
    perturbation_certificate: float
    measured_shift: Optional[float] = None


def _check_symmetric(x, name="matrix"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"{name} must be square")
    scale = max(1.0, float(np.abs(x).max()))
    if np.abs(x - x.T).max() > 1e-8 * scale:
        raise ValueError(f"{name} must be symmetric")
    return (x + x.T) / 2


def psd_factor(x) -> np.ndarray:
    """Factor v with v.T @ v = x, from an eigendecomposition of PSD x.

    Eigenvalues below -1e-8 * ||x||_2 are rejected; small negatives above that
    are clipped to zero.
    """
    x = _check_symmetric(x)
    w, u = np.linalg.eigh(x)
    spectral = float(np.abs(w).max()) if w.size else 0.0
    if w.size and w.min() < -1e-8 * max(spectral, 1e-300):
        raise ValueError(f"input not numerically PSD: min eigenvalue {w.min():.3e}")
    return np.sqrt(np.clip(w, 0.0, None))[:, None] * u.T


def round_ot(pi, mu, nu, cost=None) -> RoundedPrimal:
    """Scale rows then columns down to the marginals, then restore the deficit.

    Rows are scaled by min(1, mu_i / row_mass_i) (factor 1 on empty rows),
    columns likewise, and the remaining nonnegative marginal deficits are added
    back as a rank-one term, so the output marginals are exact. The entrywise
    l1 movement is at most twice the input's total marginal error; with a cost
    the certificate is that bound times max |C|, a bound on the objective
    shift (Altschuler, Weed & Rigollet 2017).
    """
    pi = np.asarray(pi, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if pi.ndim != 2 or pi.shape != (mu.size, nu.size):
        raise ValueError("plan must be m x n matching the marginals")
    if np.any(pi < 0.0):
        raise ValueError("plan must be entrywise nonnegative")

    row = pi.sum(axis=1)
    col0 = pi.sum(axis=0)
    certificate = 2.0 * float(np.abs(row - mu).sum() + np.abs(col0 - nu).sum())

    x = np.where(row > 0.0, np.minimum(1.0, mu / np.where(row > 0.0, row, 1.0)), 1.0)
    scaled = pi * x[:, None]
    col = scaled.sum(axis=0)
    y = np.where(col > 0.0, np.minimum(1.0, nu / np.where(col > 0.0, col, 1.0)), 1.0)
    scaled = scaled * y[None, :]

    # deficits are nonnegative in exact arithmetic; clamp roundoff dust so the
    # rank-one fill cannot introduce negative entries
    err_r = np.maximum(mu - scaled.sum(axis=1), 0.0)
    err_c = np.maximum(nu - scaled.sum(axis=0), 0.0)
    mass = err_r.sum()
    if mass > 0.0:
        rounded = scaled + np.outer(err_r, err_c) / mass
    else:
        rounded = scaled

    if cost is None:
        measured = float(np.abs(rounded - pi).sum())
    else:
        cost = np.asarray(cost, dtype=float)
        if cost.shape != pi.shape:
            raise ValueError("cost must match the plan shape")
        certificate *= float(np.abs(cost).max())
        measured = float(abs(np.sum(cost * (rounded - pi))))
    return RoundedPrimal(payload=rounded, perturbation_certificate=certificate,
                         measured_shift=measured)


def _block_view(a, num_images, block_size):
    """a as an (N, K, N, K) view of K x K blocks; raises unless they tile a.

    einsum("ikil->ikl", view) is the writeable (N, K, K) diagonal-block view.
    """
    n = a.shape[0]
    if num_images < 1 or block_size < 1 or num_images * block_size != n:
        raise ValueError(
            f"blocks of size {block_size} x {num_images} do not tile size {n}")
    return a.reshape(num_images, block_size, num_images, block_size)


def _deflate_blocks(x, block_size: int) -> np.ndarray:
    """Cap each K x K diagonal block of PSD x = V^T V at I, then set it to I.

    Column block V_i of the factor is multiplied by W diag(min(1, w^(-1/2))) W^T,
    W diag(w) W^T = V_i^T V_i, which caps V_i^T V_i at I spectrally and keeps
    V^T V PSD; resetting the blocks to I adds the PSD deficit back.
    """
    v = psd_factor(x)
    n, k = v.shape[1], block_size
    cols = v.reshape(n, n // k, k)
    w, u = np.linalg.eigh(np.einsum("rik,ril->ikl", cols, cols))
    cap = (u / np.sqrt(np.maximum(w, 1.0))[:, None, :]) @ u.transpose(0, 2, 1)
    tilde = np.einsum("rik,ikl->ril", cols, cap, optimize=True).reshape(n, n)
    rounded = tilde.T @ tilde
    np.einsum("ikil->ikl", _block_view(rounded, n // k, k))[...] = np.eye(k)
    return rounded


def round_maxcut(x, b, a) -> RoundedPrimal:
    """Round a PSD matrix to exact diagonal b > 0.

    Conjugating by diag(1/sqrt(b)) reduces to unit diagonal, which is the
    block rounding of round_strong_ps with 1 x 1 blocks. The certificate is
    3 * kappa * delta * max abs row sum of a, with kappa the ratio of extreme
    entries of b and delta the measured l1 diagonal error.
    """
    x = _check_symmetric(x)
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.size != x.shape[0]:
        raise ValueError("b must be a vector matching the matrix size")
    if np.any(b <= 0.0):
        raise ValueError("b must be strictly positive")
    a = _check_symmetric(a, "objective matrix")

    delta = float(np.abs(np.diag(x) - b).sum())
    kappa = float(b.max() / b.min())

    root = np.sqrt(b)
    frame = np.outer(root, root)
    rounded = _deflate_blocks(x / frame, 1) * frame
    np.fill_diagonal(rounded, b)

    certificate = 3.0 * kappa * delta * float(np.abs(a).sum(axis=1).max())
    measured = float(abs(np.sum(a * (x - rounded))))
    return RoundedPrimal(payload=rounded, perturbation_certificate=certificate,
                         measured_shift=measured)


def triple_norm(a, num_images: int, block_size: int) -> float:
    """Max over block rows of the summed spectral norms of the blocks."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    blocks = _block_view(a, num_images, block_size).transpose(0, 2, 1, 3)
    return float(np.linalg.norm(blocks, ord=2, axis=(2, 3)).sum(axis=1).max())


def round_strong_ps(x, num_images: int, block_size: int, a=None) -> RoundedPrimal:
    """Round a PSD matrix to exact identity diagonal blocks.

    Works on the frame where the block target is the identity (callers using
    trace normalization rescale before and after). A block-diagonal
    congruence of the factor caps every diagonal block at the identity, and
    the deficits are shifted back in block-diagonally (round_maxcut is the
    1 x 1 case). Certificate: (2K + 1) * delta * triple_norm(a), delta the
    summed nuclear norm error of the input's diagonal blocks.
    """
    x = _check_symmetric(x)
    k = block_size
    diag_blocks = np.einsum("ikil->ikl", _block_view(x, num_images, k))
    delta = float(np.abs(np.linalg.eigvalsh(diag_blocks - np.eye(k))).sum())
    rounded = _deflate_blocks(x, k)

    if a is None:
        return RoundedPrimal(payload=rounded,
                             perturbation_certificate=(2.0 * k + 1.0) * delta)
    a = _check_symmetric(a, "objective matrix")
    certificate = (2.0 * k + 1.0) * delta * triple_norm(a, num_images, k)
    measured = float(abs(np.sum(a * (x - rounded))))
    return RoundedPrimal(payload=rounded, perturbation_certificate=certificate,
                         measured_shift=measured)
