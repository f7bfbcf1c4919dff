"""Symmetric operators, spectral intervals, exponential action, dense Gibbs states.

Everything here works on real symmetric matrices only. An operator is one full
symmetric CSR matrix. Shifting the cost by a dual point is one folded() write
of alpha (cost + diagonal + block diagonal) + shift I into a pattern cached per
cost, and the result keeps its own pattern, so expm_action folds in the
Chebyshev affine map with one more write and each term of the recurrence costs
a single product. A wide probe block runs through the recurrence in column
blocks of about 2**17 entries (1 MiB) per array, shared out over one thread
per usable core; each column is computed on its own, so the result equals a
single-block evaluation bit for bit."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, dgemv
from scipy.linalg.lapack import dstemr
from scipy.sparse import _sparsetools
from scipy.special import ive

__all__ = [
    "SymOperator",
    "SpectralInterval",
    "DenseGibbs",
    "spectral_bounds",
    "expm_action",
    "dense_gibbs",
    "vn_entropy",
    "load_matrix_market",
]

DENSE_LIMIT = 2048  # largest n the cubic eigendecomposition path accepts
_SYMMETRY_TOL = 1e-8  # largest asymmetry accepted, relative to max(1, max |a_ij|)


def _fold_pattern(base: sp.csr_array, k: int):
    """CSR pattern of base + diagonal (+ K x K diagonal blocks when k > 0).

    Returns (indptr, indices, positions): positions lists, for the base data,
    the diagonal and the C-ordered (N, K, K) block entries, their slots in the
    pattern's data array.
    """
    n = base.shape[0]
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(base.indptr))
    parts = [rows * n + base.indices, np.arange(n, dtype=np.int64) * (n + 1)]
    if k:
        start, local = np.arange(0, n, k)[:, None, None], np.arange(k)
        parts.append(((start + local[:, None]) * n + start + local).ravel())
    keys = np.sort(np.concatenate(parts))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    idx = np.int32 if max(keys.size, n) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, (keys % n).astype(idx), [np.searchsorted(keys, p) for p in parts]


class SymOperator:
    """Real symmetric operator held as one full symmetric CSR matrix, base.

    Instances are treated as immutable. folded() builds every derived
    operator with a single write into the CSR pattern of base + diagonal
    (+ diagonal blocks), which is built once per base and block size.
    """

    def __init__(self, base):
        self.base = base
        self.n = base.shape[0]
        assert base.shape == (self.n, self.n)
        self._patterns = {}

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "SymOperator":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square 2-d array")
        return cls.from_sparse(sp.csr_array(a))

    @classmethod
    def from_triplets(cls, n: int, rows, cols, vals) -> "SymOperator":
        """Build from symmetric triplets; entries may lie in either triangle.

        Each (i, j, v) with i != j contributes v to both (i, j) and (j, i).
        Duplicate coordinates are summed.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        off = rows != cols
        base = sp.csr_array((np.concatenate([vals, vals[off]]),
                             (np.concatenate([rows, cols[off]]),
                              np.concatenate([cols, rows[off]]))), shape=(n, n))
        base.sum_duplicates()
        return cls(base)

    @classmethod
    def from_sparse(cls, m) -> "SymOperator":
        m = sp.csr_array(m)
        if m.shape[0] != m.shape[1]:
            raise ValueError("expected a square sparse matrix")
        scale = max(1.0, np.abs(m.data).max()) if m.nnz else 1.0
        asym = abs(m - m.T)
        if asym.nnz and asym.data.max() > _SYMMETRY_TOL * scale:
            raise ValueError("input matrix is not symmetric")
        base = sp.csr_array((m + m.T) / 2.0)
        base.sum_duplicates()
        return cls(base)

    @classmethod
    def zeros(cls, n: int) -> "SymOperator":
        return cls(sp.csr_array((n, n)))

    # ---- algebra ------------------------------------------------------

    def apply(self, v: np.ndarray, into: Optional[np.ndarray] = None) -> np.ndarray:
        """Matrix-vector (or matrix-block) product. v is (n,) or (n, S).

        With into, the product is added to into in place and into is returned.
        The CSR kernel writes into's raw memory, so into must be a writeable,
        C-contiguous float64 array of v's shape that does not overlap v.
        """
        m = self.base
        v = np.ascontiguousarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.n:
            raise ValueError(f"expected ({self.n},) or ({self.n}, S) input, got {v.shape}")
        if into is None:
            into = np.zeros(v.shape)
        elif not (isinstance(into, np.ndarray) and into.dtype == np.float64
                  and into.shape == v.shape and into.flags.c_contiguous
                  and into.flags.writeable and not np.may_share_memory(into, v)):
            raise ValueError(f"into must be a writeable C-contiguous float64 {v.shape} "
                             "array apart from the input")
        if v.ndim == 1:
            _sparsetools.csr_matvec(self.n, self.n, m.indptr, m.indices, m.data, v, into)
        else:
            _sparsetools.csr_matvecs(self.n, self.n, v.shape[1], m.indptr, m.indices,
                                     m.data, v.reshape(-1), into.reshape(-1))
        return into

    def folded(self, alpha: float = 1.0, shift: float = 0.0, *, diag=None,
               blocks=None) -> "SymOperator":
        """alpha * (self + diag(diag) + blockdiag(blocks)) + shift * I, one write.

        blocks is a symmetric (N, K, K) stack with N*K = n. The result holds
        the pattern of base + diagonal (+ blocks) and keeps it as its own, so
        folding it again without blocks builds no pattern. Its CSR index
        arrays are shared with that cached pattern and must not be modified
        in place.
        """
        k = 0
        if blocks is not None:
            blocks = np.asarray(blocks, dtype=float)
            nb, k, k2 = blocks.shape
            assert k == k2 and nb * k == self.n, "block stack does not tile the diagonal"
        assert diag is None or np.shape(diag) == (self.n,), "diag needs one entry per row"
        if k not in self._patterns:
            self._patterns[k] = _fold_pattern(self.base, k)
        indptr, indices, pos = self._patterns[k]
        data = np.zeros(indices.size)
        data[pos[0]] = alpha * self.base.data
        data[pos[1]] += shift if diag is None else alpha * np.asarray(diag) + shift
        if k:
            data[pos[2]] += alpha * blocks.ravel()
        out = SymOperator(sp.csr_array((data, indices, indptr), shape=(self.n, self.n)))
        # the result's data is its pattern's data in order, so base goes in whole
        out._patterns = {0: (indptr, indices, [slice(None), pos[1]])}
        return out

    def to_dense(self) -> np.ndarray:
        return self.base.toarray()

    def to_sparse(self):
        """A CSR copy without explicit zeros."""
        out = sp.csr_array(self.base, copy=True)
        out.eliminate_zeros()
        return out

    def inf_norm_bound(self) -> float:
        """Max absolute row sum; upper-bounds the spectral radius."""
        row = abs(self.base).sum(axis=1)
        return float(np.max(row, initial=0.0))


@dataclass(frozen=True)
class SpectralInterval:
    """Closed interval [lo, hi] intended to contain the spectrum of an operator.

    certified is False when the Lanczos run of spectral_bounds did not
    converge.
    """

    lo: float
    hi: float
    certified: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.hi < self.lo:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def padded(self, r: float) -> "SpectralInterval":
        assert r >= 0.0
        return SpectralInterval(self.lo - r, self.hi + r, self.certified)


# Lanczos steps between convergence checks; a check costs about one product
_RITZ_EVERY = 4
# Largest chance, per end and for any spectrum, that a converged run leaves
# that end of the spectrum outside the returned interval (see
# _min_lanczos_steps)
_MISS_PROBABILITY = 1e-3


def _min_lanczos_steps(n: int, margin: float) -> int:
    """Lanczos steps after which, for any spectrum, an extreme Ritz value
    lies more than eps * width inside the spectrum, eps = margin / (1 + 2
    margin), with probability at most _MISS_PROBABILITY.

    Kuczynski and Wozniakowski (1992) bound that chance, for a uniformly
    random start, by 1.648 sqrt(n) exp(-sqrt(eps) (2k - 1)) after k steps;
    Lanczos is shift-invariant, so the bound holds for both ends. An error of
    eps * width at both ends still leaves the end inside the interval once
    it is inflated by margin times its width.
    """
    eps = margin / (1.0 + 2.0 * margin)
    if eps <= 0.0:
        return n
    log_odds = math.log(1.648 * math.sqrt(n) / _MISS_PROBABILITY)
    return math.ceil((log_odds / math.sqrt(eps) + 1.0) / 2.0)


def _extreme_ritz(alpha: np.ndarray, beta: np.ndarray):
    """Smallest and largest eigenvalues of the Lanczos tridiagonal and the last
    components of their unit eigenvectors.

    beta holds the off-diagonal plus one trailing entry; LAPACK's stemr uses
    that array as workspace, so each call gets a copy.
    """
    j = alpha.size
    ends, last = np.empty(2), np.empty(2)
    for i, k in enumerate((1, j)):
        _, w, vec, info = dstemr(alpha, beta.copy(), 2, 0.0, 0.0, k, k)
        if info:
            raise np.linalg.LinAlgError(f"stemr failed with info={info}")
        ends[i], last[i] = w[0], vec[-1, 0]
    return ends, last


def spectral_bounds(op: SymOperator, *, margin: float = 0.05, tol: float = 1e-2,
                    max_iter: int = 64, seed: int = 0) -> SpectralInterval:
    """Estimate an interval containing the spectrum of a symmetric operator.

    One Lanczos run from a seeded Gaussian start, with full
    reorthogonalisation and at most max_iter basis vectors, so at most
    max_iter products with op's CSR matrix and an n x max_iter basis. It
    stops once both extreme Ritz pairs (theta, y) have residual
    r = ||op y - theta y|| at most tol * max(1, |theta|), theta the larger
    in magnitude of the two; each [theta - r, theta + r] then holds an
    eigenvalue. The interval
    [theta_min - r_min, theta_max + r_max] is inflated on both sides by
    margin times its width, so multiplicity-n spectra (width zero) stay
    tight. Ritz values lie inside the spectrum, so a small residual alone
    does not show that an extreme Ritz value has found the extreme
    eigenvalue: a start nearly orthogonal to its eigenvector can hide it.
    Convergence is therefore tested only after the number of steps that,
    from a random start, bounds that chance for any spectrum (see
    _min_lanczos_steps); when n is below both that number and max_iter, the
    run spans the whole space and is exact. certified is False when the
    basis ran out first; the interval is then an estimate.
    """
    if margin < 0.0:
        raise ValueError("margin must be nonnegative")
    m = max(1, min(max_iter, op.n))
    basis = np.empty((m, op.n))
    alpha, beta = np.empty(m), np.zeros(m)
    v = np.random.default_rng(seed).standard_normal(op.n)
    basis[0] = v / np.linalg.norm(v)
    first_check = _min_lanczos_steps(op.n, margin)
    scale = 0.0
    for j in range(m):
        w = op.apply(basis[j])
        if j:
            w = daxpy(basis[j - 1], w, a=-beta[j - 1])
        alpha[j] = basis[j] @ w
        w = daxpy(basis[j], w, a=-alpha[j])
        done = basis[: j + 1]
        # full reorthogonalisation, w -= V^T (V w), in place
        w = dgemv(-1.0, done.T, done @ w, beta=1.0, y=w, overwrite_y=1)
        beta[j] = np.linalg.norm(w)
        scale = max(scale, abs(alpha[j]) + beta[j])
        # a breakdown means the Krylov space is invariant: it holds no more
        stop = beta[j] <= 1e-12 * scale or j + 1 == m
        if stop or (j + 1 >= first_check and (j + 1) % _RITZ_EVERY == 0):
            ends, last = _extreme_ritz(alpha[: j + 1], beta[: j + 1])
            resid = beta[j] * np.abs(last)
            converged = bool(np.all(resid <= tol * max(1.0, np.abs(ends).max())))
            if stop or converged:
                break
        basis[j + 1] = w / beta[j]
    lo, hi = ends[0] - resid[0], ends[1] + resid[1]
    pad = margin * (hi - lo)
    return SpectralInterval(float(lo - pad), float(hi + pad), certified=converged)


def _chebyshev_degree(half_width: float, tol: float) -> np.ndarray:
    """Scaled Chebyshev coefficients of exp on the given half-width, truncated.

    Returns q with q[0] = I_0(h) e^{-h} and q[k] = 2 I_k(h) e^{-h}; the full
    series sums to 1 and the dropped tail is below a small fraction of tol.
    """
    h = half_width
    kmax = int(np.ceil(h + 12.0 * np.sqrt(h + 4.0) + 60.0))
    q = ive(np.arange(kmax + 1), h)
    q[1:] *= 2.0
    target = max(tol * 1e-3, 2e-17)
    tail = 1.0 - np.cumsum(q)
    keep = np.nonzero(tail <= target)[0]
    d = int(keep[0]) + 2 if keep.size else kmax
    return q[: min(d, kmax) + 1]


def _clenshaw(double: SymOperator, q: np.ndarray, z: np.ndarray, b1: np.ndarray,
              b2: np.ndarray) -> np.ndarray:
    """Twice sum_k q_k T_k(double / 2) z by Clenshaw, returned in b1 or b2.

    z, b1 and b2 share one C-contiguous shape; b1 and b2 are scratch. Every
    step treats each column of z on its own.
    """
    flat = z.reshape(-1)
    # b_k = q_k z + double b_{k+1} - b_{k+2}, written over b_{k+2}; the top
    # term is b_K = q_K z since b_{K+1} = b_{K+2} = 0
    np.multiply(z, q[-1], out=b1)
    b2.fill(0.0)
    for k in range(len(q) - 2, 0, -1):
        np.negative(b2, out=b2)
        daxpy(flat, b2.reshape(-1), a=q[k])
        double.apply(b1, into=b2)
        b1, b2 = b2, b1
    # 2 y = 2 q_0 z + double b_1 - 2 b_2
    b2 *= -2.0
    daxpy(flat, b2.reshape(-1), a=2.0 * q[0])
    return double.apply(b1, into=b2)


def _clenshaw_lane(double: SymOperator, q: np.ndarray, factor: float, z: np.ndarray,
                   out: np.ndarray, blocks, buffers) -> None:
    """Write factor times _clenshaw of each column block of z taken from the
    shared iterator blocks into those columns of out, using the three flat
    buffers (z block, b1, b2) and allocating nothing of block size."""
    n = z.shape[0]
    for cols in blocks:
        zb, b1, b2 = (buf[: n * (cols.stop - cols.start)].reshape(n, -1)
                      for buf in buffers)
        np.copyto(zb, z[:, cols])
        np.multiply(_clenshaw(double, q, zb, b1, b2), factor, out=out[:, cols])


# float64 entries per column-block array (1 MiB), so that z, b1 and b2 of a
# block stay in a core's L2 cache through every term of the recurrence
_BLOCK_ENTRIES = 2**17
# one lane per usable core; the CSR kernel, numpy's ufuncs and BLAS release
# the GIL, so the lanes run in parallel. Threads start on the first submit.
_LANES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(max_workers=_LANES, thread_name_prefix="expm_action")


def expm_action(op: SymOperator, interval: SpectralInterval, z: np.ndarray,
                tol: float = 1e-10, *, scale: float = 1.0,
                shift: float = 0.0) -> np.ndarray:
    """Compute exp(scale * op + shift * I) @ z by Clenshaw evaluation of a Chebyshev expansion.

    interval must contain the spectrum of op; the expansion lives on its image
    under x -> scale * x + shift, after an affine map to [-1, 1]. The operator,
    scale, shift and that map are folded into one base-only operator, so each
    term of the recurrence is two in-place passes plus one product
    accumulated into the same array. Accuracy is
    relative to the dominant spectral scale exp(top of the mapped interval);
    callers that need normalized output should choose shift so the top is
    near zero (the shift factors out).

    A 2-d z wider than ceil(_BLOCK_ENTRIES / n) columns (about 2**17
    entries, 1 MiB, per array) runs the whole recurrence one such column
    block at a time, so a block's arrays stay in a core's cache, and the
    blocks are shared out over one thread per usable core. Narrower input
    runs as one block in the calling thread. Each column is computed on its
    own, so every column of the result equals, bit for bit, that column
    evaluated alone.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    z = np.ascontiguousarray(z, dtype=float)
    lo, hi = sorted((scale * interval.lo + shift, scale * interval.hi + shift))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"mapped interval [{lo}, {hi}] is not finite")
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    if h <= 1e-14 * max(1.0, abs(c)):
        return np.exp(c) * z
    q = _chebyshev_degree(h, tol)
    # twice the affine map (scale * op + (shift - c) I) / h, folded once
    double = op.folded(2.0 * scale / h, 2.0 * (shift - c) / h)
    factor = 0.5 * np.exp(c + h)
    n, s = z.shape[0], (z.shape[1] if z.ndim == 2 else 1)
    width = -(-_BLOCK_ENTRIES // n)
    if width >= s:
        y = _clenshaw(double, q, z, np.empty_like(z), np.empty_like(z))
        y *= factor
        return y
    out = np.empty_like(z)
    blocks = [slice(j, min(j + width, s)) for j in range(0, s, width)]
    # next() on a list iterator is one atomic step under the GIL, so the lanes
    # share it without a lock; every buffer is allocated here, in the calling
    # thread, since per-thread malloc arenas would raise the peak footprint
    shared = iter(blocks)
    lanes = [_POOL.submit(_clenshaw_lane, double, q, factor, z, out, shared,
                          [np.empty(n * width) for _ in range(3)])
             for _ in range(min(_LANES, len(blocks)))]
    # no lane may still write into out once an error propagates
    wait(lanes)
    for lane in lanes:
        lane.result()
    return out


@dataclass(frozen=True)
class DenseGibbs:
    """Gibbs state exp(-beta M) / Z = W W^T held as its exact factor W = V sqrt(p).

    V holds the eigenvectors of M and p the state's eigenvalues; density
    forms W W^T only on demand. log_partition is log Tr exp(-beta M).
    """

    factor: np.ndarray
    log_partition: float

    @property
    def density(self) -> np.ndarray:
        x = self.factor @ self.factor.T
        return (x + x.T) / 2.0


def dense_gibbs(op: SymOperator, beta: float) -> DenseGibbs:
    """Eigendecomposition route to the Gibbs state of a symmetric operator.

    Intended as the exact small-scale path; refuses n > DENSE_LIMIT since
    cost is cubic. The spectral shift by min(eig) keeps the exponentials in
    range and cancels in the normalized state; it is added back into
    log_partition.
    """
    if not 0.0 < beta < np.inf:
        raise ValueError("beta must be positive and finite")
    if op.n > DENSE_LIMIT:
        raise ValueError(f"n={op.n} exceeds the dense limit {DENSE_LIMIT}; "
                         "use the probe-based path")
    evals, vecs = np.linalg.eigh(op.to_dense())
    w = np.exp(-beta * (evals - evals[0]))
    z = w.sum()
    occ = w / z
    return DenseGibbs(factor=vecs * np.sqrt(occ),
                      log_partition=float(np.log(z) - beta * evals[0]))


def vn_entropy(x: np.ndarray) -> float:
    """Tr[X log X] for a density matrix X (unit trace, PSD), in [-log n, 0].

    The convention 0 log 0 = 0 applies. Eigenvalues below -1e-8 or a trace
    away from 1 by more than 1e-8 raise, since the quantity is then undefined.
    """
    x = np.asarray(x, dtype=float)
    evals = np.linalg.eigvalsh(x)
    if evals[0] < -1e-8:
        raise ValueError(f"matrix is not PSD: min eigenvalue {evals[0]:.3e}")
    tr = float(evals.sum())
    if abs(tr - 1.0) > 1e-8:
        raise ValueError(f"matrix is not a density matrix: trace {tr!r}")
    p = np.clip(evals, 0.0, None)
    p = p[p > 0.0]
    return float(np.sum(p * np.log(p)))


def load_matrix_market(path) -> SymOperator:
    """Read a symmetric real matrix from a MatrixMarket file."""
    return SymOperator.from_sparse(scipy.io.mmread(path))
