"""Symmetric operators, spectral intervals, exponential action, Gibbs states.

Everything here works on real symmetric matrices only. An operator is one full
symmetric CSR matrix. Shifting the cost by a dual point is one folded() write
of alpha (cost + diagonal + block diagonal) + shift I into a pattern cached per
cost, and the result keeps its own pattern, so expm_action folds in the
Chebyshev affine map with one more write and each term of the recurrence costs
a single product. The recurrence runs in the precision of its block (see
probes.probe_gibbs for the error of each precision). A wide probe block runs
through the recurrence in column blocks of 1 MiB per array, as many as a
multiple of the thread count, one thread per usable core; each column is
computed on its own, so within one precision the result equals a
single-block evaluation bit for bit. ProbeBatch is the one Gibbs-state
type: dense_gibbs gives the exact one, probes.probe_gibbs an estimate."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import daxpy, dgemv, get_blas_funcs
from scipy.sparse import _sparsetools
from scipy.special import ive

__all__ = [
    "SymOperator",
    "SpectralInterval",
    "ProbeBatch",
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
        if base.shape != (self.n, self.n):
            raise ValueError(f"base must be square, got shape {base.shape}")
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

        The product is computed in the dtype of the CSR matrix, and v must
        have that dtype. With into, the product is added to into in place
        and into is returned. The CSR kernel writes into's raw memory, so
        into must be a writeable, C-contiguous array of v's shape and dtype
        that does not overlap v. A v or into of another dtype raises rather
        than being cast into a temporary.
        """
        m = self.base
        v = np.ascontiguousarray(v)
        if v.dtype != m.data.dtype:
            raise ValueError(f"v is {v.dtype} but the operator is {m.data.dtype}")
        if v.ndim not in (1, 2) or v.shape[0] != self.n:
            raise ValueError(f"expected ({self.n},) or ({self.n}, S) input, got {v.shape}")
        if into is None:
            into = np.zeros(v.shape, dtype=v.dtype)
        elif isinstance(into, np.ndarray) and into.dtype != v.dtype:
            raise ValueError(f"into is {into.dtype} but the operator is {v.dtype}")
        elif not (isinstance(into, np.ndarray) and into.shape == v.shape
                  and into.flags.c_contiguous and into.flags.writeable
                  and not np.may_share_memory(into, v)):
            raise ValueError(f"into must be a writeable C-contiguous {v.dtype} "
                             f"{v.shape} array apart from the input")
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
            if k != k2 or nb * k != self.n:
                raise ValueError(f"blocks {blocks.shape} do not tile the diagonal of {self.n}")
        if diag is not None and np.shape(diag) != (self.n,):
            raise ValueError(f"diag needs one entry per row, got shape {np.shape(diag)}")
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
        if not r >= 0.0:
            raise ValueError(f"r must be nonnegative, got {r!r}")
        return SpectralInterval(self.lo - r, self.hi + r, self.certified)


# Lanczos steps between convergence checks; a check costs about one product
_RITZ_EVERY = 4
# Largest chance, per end and for any spectrum, that a converged run leaves
# that end of the spectrum outside the returned interval (see
# _min_lanczos_steps)
_MISS_PROBABILITY = 1e-3
_MARGIN = 0.05  # share of its width added to each side of the interval
_RITZ_TOL = 1e-2  # converged Ritz residual, relative to max(1, |theta|)
_MAX_STEPS = 64  # most Lanczos basis vectors, so most products, per run


def _min_lanczos_steps(n: int) -> int:
    """Lanczos steps after which, for any spectrum, an extreme Ritz value
    lies more than eps * width inside the spectrum, eps = _MARGIN / (1 + 2
    _MARGIN), with probability at most _MISS_PROBABILITY.

    Kuczynski and Wozniakowski (1992) bound that chance, for a uniformly
    random start, by 1.648 sqrt(n) exp(-sqrt(eps) (2k - 1)) after k steps;
    Lanczos is shift-invariant, so the bound holds for both ends. An error of
    eps * width at both ends still leaves the end inside the interval once
    it is inflated by _MARGIN times its width.
    """
    eps = _MARGIN / (1.0 + 2.0 * _MARGIN)
    log_odds = math.log(1.648 * math.sqrt(n) / _MISS_PROBABILITY)
    return math.ceil((log_odds / math.sqrt(eps) + 1.0) / 2.0)


def spectral_bounds(op: SymOperator, *, seed: int = 0) -> SpectralInterval:
    """Estimate an interval containing the spectrum of a symmetric operator.

    One Lanczos run from a seeded Gaussian start, with full
    reorthogonalisation and at most _MAX_STEPS basis vectors, so at most
    _MAX_STEPS products with op's CSR matrix and an n x _MAX_STEPS basis. It
    stops once both extreme Ritz pairs (theta, y) have residual
    r = ||op y - theta y|| at most _RITZ_TOL * max(1, |theta|), theta the
    larger in magnitude of the two; each [theta - r, theta + r] then holds an
    eigenvalue. The interval
    [theta_min - r_min, theta_max + r_max] is inflated on both sides by
    _MARGIN times its width, so multiplicity-n spectra (width zero) stay
    tight. Ritz values lie inside the spectrum, so a small residual alone
    does not show that an extreme Ritz value has found the extreme
    eigenvalue: a start nearly orthogonal to its eigenvector can hide it.
    Convergence is therefore tested only after the number of steps that,
    from a random start, bounds that chance for any spectrum (see
    _min_lanczos_steps); when n is below both that number and _MAX_STEPS,
    the run spans the whole space and is exact. certified is False when the
    basis ran out first; the interval is then an estimate.
    """
    m = max(1, min(_MAX_STEPS, op.n))
    basis = np.empty((m, op.n))
    alpha, beta = np.empty(m), np.zeros(m)
    v = np.random.default_rng(seed).standard_normal(op.n)
    basis[0] = v / np.linalg.norm(v)
    first_check = _min_lanczos_steps(op.n)
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
            # the extreme eigenpairs of the tridiagonal, selected by index;
            # checking alpha and beta for NaN would nearly double a call's cost
            pairs = [eigh_tridiagonal(alpha[: j + 1], beta[:j], select="i",
                                      select_range=(k, k), lapack_driver="stemr",
                                      check_finite=False)
                     for k in (0, j)]
            ends = np.array([vals[0] for vals, _ in pairs])
            resid = beta[j] * np.abs([y[-1, 0] for _, y in pairs])
            converged = bool(np.all(resid <= _RITZ_TOL * max(1.0, np.abs(ends).max())))
            if stop or converged:
                break
        basis[j + 1] = w / beta[j]
    lo, hi = ends[0] - resid[0], ends[1] + resid[1]
    pad = _MARGIN * (hi - lo)
    return SpectralInterval(float(lo - pad), float(hi + pad), certified=converged)


def _chebyshev_degree(half_width: float, tol: float, dtype=np.float64) -> np.ndarray:
    """Scaled Chebyshev coefficients of exp on the given half-width, truncated.

    Returns q with q[0] = I_0(h) e^{-h} and q[k] = 2 I_k(h) e^{-h}; the full
    series sums to 1. Every |T_k| is at most 1 on [-1, 1], so the dropped
    tail sum_{k >= len(q)} q_k bounds the truncation error per unit of input.
    q keeps the fewest terms whose tail is at most max(tol * 1e-3, eps), eps
    the roundoff of dtype, since a tail below it would be lost in the
    recurrence; but never fewer than two, as _clenshaw reads q_0 and q_1.
    The tail is summed from its small end, so it stays accurate far below
    eps.
    """
    h = half_width
    kmax = int(np.ceil(h + 12.0 * np.sqrt(h + 4.0) + 60.0))
    q = ive(np.arange(kmax + 1), h)
    q[1:] *= 2.0
    target = max(tol * 1e-3, np.finfo(dtype).eps)
    # tail[d] = sum_{k > d} q_k, what keeping q_0 .. q_d drops
    tail = np.append(np.cumsum(q[:0:-1])[::-1], 0.0)
    return q[: max(1, int(np.argmax(tail <= target))) + 1]


def _clenshaw(double: SymOperator, q: np.ndarray, z: np.ndarray, b1: np.ndarray,
              b2: np.ndarray) -> np.ndarray:
    """Twice sum_k q_k T_k(double / 2) z by Clenshaw, returned in b1 or b2.

    z, b1 and b2 share one C-contiguous shape and the dtype of double and q;
    b1 and b2 are scratch. Every step treats each column of z on its own.
    """
    flat = z.reshape(-1)
    axpy = get_blas_funcs("axpy", dtype=z.dtype)
    # b_k = q_k z + double b_{k+1} - b_{k+2}, written over b_{k+2}; the top
    # term is b_K = q_K z since b_{K+1} = b_{K+2} = 0
    np.multiply(z, q[-1], out=b1)
    b2.fill(0.0)
    for k in range(len(q) - 2, 0, -1):
        np.negative(b2, out=b2)
        axpy(flat, b2.reshape(-1), a=q[k])
        double.apply(b1, into=b2)
        b1, b2 = b2, b1
    # 2 y = 2 q_0 z + double b_1 - 2 b_2
    b2 *= -2.0
    axpy(flat, b2.reshape(-1), a=2.0 * q[0])
    return double.apply(b1, into=b2)


def _clenshaw_lane(double: SymOperator, q: np.ndarray, factor: float, z: np.ndarray,
                   out: np.ndarray, blocks, buffers) -> None:
    """Write factor times _clenshaw of each column block of z taken from the
    shared iterator blocks into those columns of out, using the three flat
    buffers (z block, b1, b2); out and the buffers have z's dtype, and nothing
    of block size is allocated."""
    n = z.shape[0]
    for cols in blocks:
        zb, b1, b2 = (buf[: n * (cols.stop - cols.start)].reshape(n, -1)
                      for buf in buffers)
        np.copyto(zb, z[:, cols])
        np.multiply(_clenshaw(double, q, zb, b1, b2), factor, out=out[:, cols])


# bytes per column-block array (2**17 float64 or 2**18 float32 entries), so
# that z, b1 and b2 of a block stay in a core's L2 cache through every term
_BLOCK_BYTES = 2**20
# one lane per usable core; the CSR kernel, numpy's ufuncs and BLAS release
# the GIL, so the lanes run in parallel. Threads start on the first submit.
_LANES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)
_POOL = ThreadPoolExecutor(max_workers=_LANES, thread_name_prefix="expm_action")


def reused(work: Optional[dict], key, shape: tuple, dtype) -> np.ndarray:
    """An uninitialised array of shape and dtype: the one work holds under key
    if it matches, else a new one, stored there unless work is None. A loop
    that passes one dict to every call keeps its large buffers, which the
    allocator could otherwise return to the system and fault in again."""
    array = None if work is None else work.get(key)
    if array is None or array.shape != shape or array.dtype != dtype:
        array = np.empty(shape, dtype)
        if work is not None:
            work[key] = array
    return array


def _column_blocks(n: int, s: int, itemsize: int) -> list:
    """Equal column slices of an n x s block, about _BLOCK_BYTES per array:
    one, or as many as a multiple of _LANES (at most s)."""
    width = -(-(_BLOCK_BYTES // itemsize) // n)
    count = -(-s // width)
    if count > 1:
        count = min(s, -(-count // _LANES) * _LANES)
    return [slice(s * j // count, s * (j + 1) // count) for j in range(count)]


def expm_action(op: SymOperator, interval: SpectralInterval, z: np.ndarray,
                tol: float = 1e-10, *, scale: float = 1.0,
                shift: float = 0.0, work: Optional[dict] = None) -> np.ndarray:
    """Compute exp(scale * op + shift * I) @ z by Clenshaw evaluation of a Chebyshev expansion.

    interval must contain the spectrum of op; the expansion lives on its image
    under x -> scale * x + shift, after an affine map to [-1, 1]. The operator,
    scale, shift and that map are folded into one base-only operator, so each
    term of the recurrence is two in-place passes plus one product
    accumulated into the same array. Accuracy is
    relative to the dominant spectral scale exp(top of the mapped interval);
    callers that need normalized output should choose shift so the top is
    near zero (the shift factors out).

    The precision follows z. A float32 z runs the recurrence in float32,
    with the folded operator cast to float32 once per call and the series
    truncated at float32 roundoff (about 1.2e-7) when that exceeds
    tol * 1e-3; any other z runs in float64, truncated at tol * 1e-3. The
    result, like the scaled z of a zero-width interval, has the precision of
    the recurrence: float32 for a float32 z, so the block is never widened.

    A z wider than 1 MiB per array runs the whole recurrence in equal column
    blocks of about that size, so they stay in a core's cache, as many as a
    multiple of the lanes, one thread per usable core. Narrower input runs as
    one block in the calling thread. Each block copies its columns from any
    strided z, and each column is computed on its own, so every column
    equals, bit for bit, that column evaluated alone.

    With a work dict, the result and the block buffers are kept there (see
    reused) for the next call with it, which overwrites the result.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    z = np.asarray(z)
    z = z.astype(np.float32 if z.dtype == np.float32 else np.float64, copy=False)
    lo, hi = sorted((scale * interval.lo + shift, scale * interval.hi + shift))
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"mapped interval [{lo}, {hi}] is not finite")
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    out = reused(work, "expm_action", z.shape, z.dtype)
    if h <= 1e-14 * max(1.0, abs(c)):
        return np.multiply(z, np.exp(c), out=out)
    q = _chebyshev_degree(h, tol, z.dtype).astype(z.dtype)
    # twice the affine map (scale * op + (shift - c) I) / h, folded once, in z's dtype
    double = SymOperator(op.folded(2.0 * scale / h, 2.0 * (shift - c) / h).base
                         .astype(z.dtype, copy=False))
    factor = 0.5 * np.exp(c + h)
    n, s = z.shape[0], (z.shape[1] if z.ndim == 2 else 1)
    blocks = _column_blocks(n, s, z.itemsize)
    width = -(-s // len(blocks))  # the widest block
    # next() on a list iterator is one atomic step under the GIL, so the lanes
    # share it without a lock; every buffer is allocated here, in the calling
    # thread, since per-thread malloc arenas would raise the peak footprint
    shared = iter(blocks)
    lanes = [(double, q, factor, z.reshape(n, s), out.reshape(n, s), shared,
              [reused(work, ("expm_action", lane, j), (n * width,), z.dtype)
               for j in range(3)])
             for lane in range(min(_LANES, len(blocks)))]
    if len(lanes) == 1:
        _clenshaw_lane(*lanes[0])
        return out
    futures = [_POOL.submit(_clenshaw_lane, *lane) for lane in lanes]
    # no lane may still write into out once an error propagates
    wait(futures)
    for future in futures:
        future.result()
    return out


@dataclass(frozen=True)
class ProbeBatch:
    """Gibbs state X = W W^T / mass held as the columns of its factor W.

    images holds the columns w_s (probe images or the exact dense factor) in
    the probes' precision; r_i = sum_s w_is^2 is the diagonal of W W^T and
    mass = sum_i r_i the denominator of every normalized functional, both
    accumulated in float64, as is every functional the problems read.
    log_partition = log(mass) + log_norm is log Tr exp(-beta M), or its
    Hutchinson estimate for probe images; density forms X only on demand.
    """

    images: np.ndarray
    log_norm: float = 0.0
    r: np.ndarray = field(init=False)
    mass: float = field(init=False)

    def __post_init__(self):
        if self.images.ndim != 2 or self.images.shape[1] < 1:
            raise ValueError("images must be a 2-d array of at least one column, "
                             f"got shape {self.images.shape}")
        object.__setattr__(self, "r", np.einsum("ns,ns->n", self.images,
                                                self.images, dtype=np.float64))
        object.__setattr__(self, "mass", float(self.r.sum()))
        if not 0.0 < self.mass < np.inf:
            raise ValueError(f"batch mass {self.mass} is not positive and finite")

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def num_samples(self) -> int:
        return self.images.shape[1]

    @property
    def log_partition(self) -> float:
        return math.log(self.mass) + self.log_norm

    @property
    def density(self) -> np.ndarray:
        x = self.images @ self.images.T
        return (x + x.T) / (2.0 * self.mass)


def dense_gibbs(op: SymOperator, beta: float) -> ProbeBatch:
    """Eigendecomposition route to the Gibbs state of a symmetric operator.

    The factor is V sqrt(p), V the eigenvectors and p the state's eigenvalues,
    and log_norm is log Tr exp(-beta op). Refuses n > DENSE_LIMIT since cost
    is cubic. The spectral shift by min(eig) keeps the exponentials in range
    and cancels in the state; it is added back into log_norm.
    """
    if not 0.0 < beta < np.inf:
        raise ValueError("beta must be positive and finite")
    if op.n > DENSE_LIMIT:
        raise ValueError(f"n={op.n} exceeds the dense limit {DENSE_LIMIT}; "
                         "use the probe-based path")
    evals, vecs = np.linalg.eigh(op.to_dense())
    w = np.exp(-beta * (evals - evals[0]))
    z = w.sum()
    return ProbeBatch(vecs * np.sqrt(w / z), float(np.log(z) - beta * evals[0]))


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
    """Read a symmetric real matrix from a MatrixMarket file; a non-finite or
    asymmetric matrix raises ValueError naming the file."""
    m = sp.csr_array(scipy.io.mmread(path))
    if bad := int(np.count_nonzero(~np.isfinite(m.data))):
        raise ValueError(f"{path}: matrix must be finite; {bad} of its entries are not")
    try:
        return SymOperator.from_sparse(m)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
