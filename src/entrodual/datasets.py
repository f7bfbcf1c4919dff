"""Problem generators, MNIST ingestion, and a Sinkhorn reference oracle.

Graph costs use the standard relaxation encoding C = -L/4 with the uniform
diagonal target, L the combinatorial Laplacian. Transport instances follow the
synthetic square-foreground recipe and the downsampled-MNIST recipe; both use
the grid l2 cost scaled to maximum value 10. Permutation synchronization costs
encode tentative keypoint matches as -1 entries; corrupted pairs mislabel both
images with independent uniform permutations (the corruption is described per
pair of images without fixing whether the two sides share a permutation; two
independent draws are used here).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from entrodual.operators import SymOperator
from entrodual.problems import (MaxCutProblem, OTProblem, StrongPermSyncProblem,
                                WeakPermSyncProblem)

__all__ = ["gen_er_maxcut", "gen_synthetic_ot", "load_mnist_pair",
           "PermSynchModel", "gen_permsynch", "SinkhornResult",
           "sinkhorn_reference", "grid_cost"]

IDX_IMAGE_MAGIC = 0x00000803


def gen_er_maxcut(n: int, p: float | None = None, seed: int = 0,
                  beta: float = 10.0) -> MaxCutProblem:
    """Random-graph cut relaxation: edges drawn independently, p defaults to 3/n."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if p is None:
        p = 3.0 / n
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    # the upper triangle of one row-major n x n uniform draw, taken in row
    # chunks of about 2**18 entries so the draw never holds n x n floats
    step = max(1, (1 << 18) // n)
    chunks = [np.argwhere(np.triu(rng.random((min(step, n - r0), n)) < p, k=r0 + 1))
              + [r0, 0] for r0 in range(0, n, step)]
    rows, cols = np.concatenate(chunks).T
    deg = np.zeros(n)
    np.add.at(deg, rows, 1.0)
    np.add.at(deg, cols, 1.0)
    # C = -L/4: +1/4 on edges, -deg/4 on the diagonal
    i = np.concatenate([rows, np.arange(n)])
    j = np.concatenate([cols, np.arange(n)])
    v = np.concatenate([np.full(rows.size, 0.25), -deg / 4.0])
    cost = SymOperator.from_triplets(n, i, j, v)
    return MaxCutProblem(cost, np.full(n, 1.0 / n), beta)


def grid_cost(k: int) -> np.ndarray:
    """Pairwise l2 distances between k x k grid points, scaled so the max is 10."""
    r = np.repeat(np.arange(k), k).astype(float)
    c = np.tile(np.arange(k), k).astype(float)
    d = np.hypot(r[:, None] - r[None, :], c[:, None] - c[None, :])
    return d / d.max() * 10.0


def _random_square_image(k: int, rng) -> np.ndarray:
    side = min(k, max(1, round(k / sqrt(2.0))))
    img = rng.uniform(0.0, 1.0, (k, k))
    top = int(rng.integers(0, k - side + 1))
    left = int(rng.integers(0, k - side + 1))
    img[top:top + side, left:left + side] = rng.uniform(0.0, 10.0, (side, side))
    return img


def gen_synthetic_ot(k: int, seed: int = 0, beta: float = 10.0) -> OTProblem:
    """Two square-foreground images on a k x k grid with the scaled l2 grid cost."""
    if k < 2:
        raise ValueError("need a grid of side at least 2")
    rng = np.random.default_rng(seed)
    mu = _random_square_image(k, rng).ravel()
    nu = _random_square_image(k, rng).ravel()
    return OTProblem(grid_cost(k), mu / mu.sum(), nu / nu.sum(), beta)


def _read_idx_images(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 4:
        raise ValueError(f"truncated IDX header at byte {len(data)}: no magic")
    magic = int.from_bytes(data[0:4], "big")
    if magic != IDX_IMAGE_MAGIC:
        raise ValueError(f"bad IDX image magic 0x{magic:08x} at byte 0")
    if len(data) < 16:
        raise ValueError(f"truncated IDX header at byte {len(data)}: "
                         "need 16 bytes of dimensions")
    count = int.from_bytes(data[4:8], "big")
    rows = int.from_bytes(data[8:12], "big")
    cols = int.from_bytes(data[12:16], "big")
    need = 16 + count * rows * cols
    if len(data) < need:
        raise ValueError(f"truncated IDX pixel data at byte {len(data)}: "
                         f"expected {need} bytes")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16,
                           count=count * rows * cols)
    return pixels.reshape(count, rows, cols).astype(float)


def _pool_weights(src: int, dst: int) -> np.ndarray:
    """Area-overlap averaging weights; exact block means when dst divides src."""
    if dst > src:
        raise ValueError("cannot pool to a finer grid")
    ratio = src / dst
    w = np.zeros((dst, src))
    for i in range(dst):
        lo, hi = i * ratio, (i + 1) * ratio
        for j in range(int(np.floor(lo)), min(src, int(np.ceil(hi)))):
            w[i, j] = min(hi, j + 1) - max(lo, j)
    return w / ratio


def load_mnist_pair(path, k: int, seed: int = 0, beta: float = 10.0) -> OTProblem:
    """Two random images from an IDX file, average-pooled to k x k, +0.01 per pixel."""
    images = _read_idx_images(path)
    if images.shape[0] < 2:
        raise ValueError("need at least two images in the IDX file")
    rng = np.random.default_rng(seed)
    a, b = rng.choice(images.shape[0], size=2, replace=False)
    wr = _pool_weights(images.shape[1], k)
    wc = _pool_weights(images.shape[2], k)
    mu = (wr @ images[a] @ wc.T).ravel() + 0.01
    nu = (wr @ images[b] @ wc.T).ravel() + 0.01
    return OTProblem(grid_cost(k), mu / mu.sum(), nu / nu.sum(), beta)


@dataclass(frozen=True)
class PermSynchModel:
    """Registry-sampling model for multi-image keypoint matching instances."""

    num_images: int
    keypoints: int
    registry: int
    corruption: float
    seed: int = 0

    def __post_init__(self):
        if self.num_images < 1 or self.keypoints < 1 or self.registry < 1:
            raise ValueError("counts must be positive")
        if self.keypoints > self.registry:
            raise ValueError("keypoints per image cannot exceed the registry size")
        if not 0.0 <= self.corruption <= 1.0:
            raise ValueError("corruption probability must lie in [0, 1]")


def gen_permsynch(model: PermSynchModel, beta: float, kind: str = "strong"):
    """Sample keypoint sets and encode pairwise matches as a block-sparse cost.

    Each image draws its keypoints from the registry without replacement. For
    each unordered image pair, matches between equal registry ids become -1
    entries; with the model's corruption probability, both images' labels are
    shuffled by independent uniform permutations before encoding. Diagonal
    blocks are zero.
    """
    if kind not in ("strong", "weak"):
        raise ValueError("kind must be 'strong' or 'weak'")
    rng = np.random.default_rng(model.seed)
    n_img, k = model.num_images, model.keypoints
    ids = [rng.choice(model.registry, size=k, replace=False)
           for _ in range(n_img)]
    rows, cols = [], []
    for i in range(n_img):
        for j in range(i + 1, n_img):
            li, lj = ids[i], ids[j]
            if rng.random() < model.corruption:
                li = li[rng.permutation(k)]
                lj = lj[rng.permutation(k)]
            pos = {label: q for q, label in enumerate(lj)}
            for q, label in enumerate(li):
                if label in pos:
                    rows.append(i * k + q)
                    cols.append(j * k + pos[label])
    n = n_img * k
    cost = SymOperator.from_triplets(n, np.array(rows, dtype=int),
                                     np.array(cols, dtype=int),
                                     -np.ones(len(rows)))
    if kind == "strong":
        return StrongPermSyncProblem(cost, n_img, k, beta)
    return WeakPermSyncProblem(cost, n_img, k, beta)


@dataclass(frozen=True)
class SinkhornResult:
    """Fixed point of alternating marginal fits, in centered potentials."""

    phi: np.ndarray
    psi: np.ndarray
    objective: float
    converged: bool
    marginal_error: float
    iterations: int


def sinkhorn_reference(problem: OTProblem, iters: int = 100000,
                       tol: float = 1e-12) -> SinkhornResult:
    """Log-domain alternating scaling until the plan's l1 marginal error <= tol.

    The fixed point zeroes the dual gradient, so the centered potentials and
    their objective serve as the reference optimum for the entropic problem.
    Non-convergence within the iteration budget is flagged, not raised.
    """
    if iters < 1:
        raise ValueError("need at least one iteration")
    beta = problem.beta
    logmu = np.log(problem.mu)
    lognu = np.log(problem.nu)
    kernel = -beta * problem.cost
    phi = np.zeros(problem.mu.size)
    psi = np.zeros(problem.nu.size)
    err = np.inf
    done = 0
    for t in range(1, iters + 1):
        phi = (logmu - logsumexp(kernel + beta * psi[None, :], axis=1)) / beta
        psi = (lognu - logsumexp(kernel + beta * phi[:, None], axis=0)) / beta
        plan = np.exp(kernel + beta * (phi[:, None] + psi[None, :]))
        err = float(np.abs(plan.sum(axis=1) - problem.mu).sum()
                    + np.abs(plan.sum(axis=0) - problem.nu).sum())
        done = t
        if err <= tol:
            break
    phi = phi - phi.mean()
    psi = psi - psi.mean()
    return SinkhornResult(phi=phi, psi=psi,
                          objective=problem.dual_objective((phi, psi)),
                          converged=err <= tol, marginal_error=err,
                          iterations=done)
