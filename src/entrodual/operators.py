"""Symmetric operators, spectral intervals, exponential action, dense Gibbs states.

Everything here works on real symmetric matrices only. An operator is one full
symmetric base (CSR for sparse inputs, a dense array from from_dense) plus at
most one diagonal vector and one block-diagonal stack. Shifting by a dual
point only attaches add-ons and never copies the base; expm_action folds the
operator, its add-ons and the Chebyshev affine map into one base-only operator
per call, so each term of the recurrence costs a single product."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse as sp
from scipy.linalg.blas import daxpy
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


def _block_index(nblocks: int, k: int):
    """Row and column indices, each (N, K, K), of the entries of blockdiag(blocks)."""
    start = np.arange(nblocks)[:, None, None] * k
    local = np.arange(k)
    return start + local[None, :, None], start + local[None, None, :]


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
        brow, bcol = _block_index(n // k, k)
        parts.append((brow * n + bcol).ravel())
    keys = np.sort(np.concatenate(parts))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    idx = np.int32 if max(keys.size, n) < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=idx)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, (keys % n).astype(idx), [np.searchsorted(keys, p) for p in parts]


class SymOperator:
    """Real symmetric operator with a cheap matvec.

    The base is a full symmetric CSR matrix or a dense array. At most one
    diagonal vector and one symmetric block-diagonal stack (N, K, K) with
    N*K = n sit on top of it; apply() sums the three. Instances are treated as
    immutable; add_* methods return new objects that share the base. The CSR
    pattern of base + diagonal + blocks is built once per base and block size
    and shared by every derived operator, so folding one into a single matrix
    (folded) is a vectorised write into a fresh data array.
    """

    def __init__(self, base, diag=None, blocks=None, _patterns=None):
        self.base = base
        self.n = base.shape[0]
        assert base.shape == (self.n, self.n)
        self.diag = diag
        self.blocks = blocks
        if blocks is not None:
            nb, k, k2 = blocks.shape
            assert k == k2 and nb * k == self.n, "block stack does not tile the diagonal"
        self._patterns = {} if _patterns is None else _patterns

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_dense(cls, a: np.ndarray, tol: float = 1e-8) -> "SymOperator":
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square 2-d array")
        scale = max(1.0, np.abs(a).max()) if a.size else 1.0
        if np.abs(a - a.T).max(initial=0.0) > tol * scale:
            raise ValueError("input matrix is not symmetric")
        return cls((a + a.T) / 2.0)

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
    def from_sparse(cls, m, tol: float = 1e-8) -> "SymOperator":
        m = sp.csr_array(m)
        if m.shape[0] != m.shape[1]:
            raise ValueError("expected a square sparse matrix")
        scale = max(1.0, np.abs(m.data).max()) if m.nnz else 1.0
        asym = abs(m - m.T)
        if asym.nnz and asym.data.max() > tol * scale:
            raise ValueError("input sparse matrix is not symmetric")
        base = sp.csr_array((m + m.T) / 2.0)
        base.sum_duplicates()
        return cls(base)

    @classmethod
    def zeros(cls, n: int) -> "SymOperator":
        return cls(sp.csr_array((n, n)))

    # ---- algebra ------------------------------------------------------

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector (or matrix-block) product. v is (n,) or (n, S)."""
        v = np.asarray(v, dtype=float)
        out = self.base @ v
        if self.diag is not None:
            out += self.diag[:, None] * v if v.ndim == 2 else self.diag * v
        if self.blocks is not None:
            nb, k, _ = self.blocks.shape
            out += (self.blocks @ v.reshape(nb, k, -1)).reshape(out.shape)
        return out

    def add_diagonal(self, d: np.ndarray) -> "SymOperator":
        d = np.asarray(d, dtype=float)
        assert d.shape == (self.n,)
        new = d if self.diag is None else self.diag + d
        return SymOperator(self.base, new, self.blocks, self._patterns)

    def add_scalar(self, c: float) -> "SymOperator":
        return self.add_diagonal(np.full(self.n, float(c)))

    def add_block_diag(self, blocks: np.ndarray) -> "SymOperator":
        """Add blockdiag(blocks), blocks shaped (N, K, K) with N*K = n."""
        blocks = np.asarray(blocks, dtype=float)
        new = blocks if self.blocks is None else self.blocks + blocks
        return SymOperator(self.base, self.diag, new, self._patterns)

    def folded(self, alpha: float = 1.0, shift: float = 0.0) -> "SymOperator":
        """alpha * self + shift * I as a base-only operator with a fresh base.

        A CSR result shares its index arrays with the cached pattern, so they
        must not be modified in place.
        """
        d = shift if self.diag is None else alpha * self.diag + shift
        if isinstance(self.base, np.ndarray):
            out = alpha * self.base
            out[np.diag_indices(self.n)] += d
            if self.blocks is not None:
                out[_block_index(*self.blocks.shape[:2])] += alpha * self.blocks
            return SymOperator(out)
        k = 0 if self.blocks is None else self.blocks.shape[1]
        if k not in self._patterns:
            self._patterns[k] = _fold_pattern(self.base, k)
        indptr, indices, pos = self._patterns[k]
        data = np.zeros(indices.size)
        data[pos[0]] = alpha * self.base.data
        data[pos[1]] += d
        if k:
            data[pos[2]] += alpha * self.blocks.ravel()
        return SymOperator(sp.csr_array((data, indices, indptr),
                                        shape=(self.n, self.n)))

    def to_dense(self) -> np.ndarray:
        base = self.folded().base
        return base if isinstance(base, np.ndarray) else base.toarray()

    def to_sparse(self):
        """Materialize as CSR, including any attached diagonal and blocks."""
        out = sp.csr_array(self.folded().base, copy=True)
        out.eliminate_zeros()
        return out

    def inf_norm_bound(self) -> float:
        """Max absolute row sum of the full operator; upper-bounds the spectral radius."""
        row = abs(self.folded().base).sum(axis=1)
        return float(np.max(row, initial=0.0))


@dataclass(frozen=True)
class SpectralInterval:
    """Closed interval [lo, hi] intended to contain the spectrum of an operator.

    margin records the relative inflation applied to the raw estimates and
    certified is False when the underlying power iteration did not converge.
    """

    lo: float
    hi: float
    margin: float = 0.0
    certified: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.hi < self.lo:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def center(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def shifted(self, c: float) -> "SpectralInterval":
        return SpectralInterval(self.lo + c, self.hi + c, self.margin, self.certified)

    def scaled(self, alpha: float) -> "SpectralInterval":
        a, b = alpha * self.lo, alpha * self.hi
        return SpectralInterval(min(a, b), max(a, b), self.margin, self.certified)

    def padded(self, r: float) -> "SpectralInterval":
        assert r >= 0.0
        return SpectralInterval(self.lo - r, self.hi + r, self.margin, self.certified)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def _power_iteration(matvec, n: int, rng, tol: float, max_iter: int):
    """Dominant (largest magnitude) eigenvalue via power iteration with Rayleigh quotients.

    Returns (converged, estimate). Convergence is declared when the eigenpair
    residual drops below tol relative to max(1, |estimate|).
    """
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    rho = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        nw = np.linalg.norm(w)
        rho = float(v @ w)
        if nw <= 1e-300:
            return True, 0.0
        resid = np.linalg.norm(w - rho * v)
        v = w / nw
        if resid <= tol * max(1.0, abs(rho)):
            return True, rho
    return False, rho


def spectral_bounds(op: SymOperator, *, margin: float = 0.05, tol: float = 1e-3,
                    max_iter: int = 2000, seed: int = 0) -> SpectralInterval:
    """Estimate an interval containing the spectrum of a symmetric operator.

    Two power iterations: one for the extreme eigenvalue of largest magnitude,
    one on a shifted operator for the opposite extreme. The raw interval is
    inflated on both sides by margin times its width, so multiplicity-n spectra
    (width zero) stay tight. A magnitude tie in the first pass is broken by
    rerunning on op + bound*I, which is positive semidefinite by construction.
    """
    if margin < 0.0:
        raise ValueError("margin must be nonnegative")
    rng = np.random.default_rng(seed)
    ok1, a = _power_iteration(op.apply, op.n, rng, tol, max_iter)
    if not ok1:
        bound = op.inf_norm_bound()
        ok1, d = _power_iteration(lambda x: op.apply(x) + bound * x,
                                  op.n, rng, tol, max_iter)
        a = d - bound
    ok2, mu = _power_iteration(lambda x: a * x - op.apply(x), op.n, rng, tol, max_iter)
    other = a - mu
    lo, hi = min(a, other), max(a, other)
    pad = margin * (hi - lo)
    return SpectralInterval(lo - pad, hi + pad, margin=margin, certified=ok1 and ok2)


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


def expm_action(op: SymOperator, interval: SpectralInterval, z: np.ndarray,
                tol: float = 1e-10, *, scale: float = 1.0,
                shift: float = 0.0) -> np.ndarray:
    """Compute exp(scale * op + shift * I) @ z by Clenshaw evaluation of a Chebyshev expansion.

    interval must contain the spectrum of op; the expansion lives on its image
    under x -> scale * x + shift, after an affine map to [-1, 1]. The operator,
    scale, shift and that map are folded into one base-only operator, so each
    term of the recurrence is one apply plus in-place updates. Accuracy is
    relative to the dominant spectral scale exp(top of the mapped interval);
    callers that need normalized output should choose shift so the top is
    near zero (the shift factors out).
    """
    if not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    z = np.ascontiguousarray(z, dtype=float)
    mapped = interval.scaled(scale).shifted(shift)
    c = mapped.center
    h = 0.5 * mapped.width
    if h <= 1e-14 * max(1.0, abs(c)):
        return np.exp(c) * z
    q = _chebyshev_degree(h, tol)
    # twice the affine map (scale * op + (shift - c) I) / h, folded once
    double = op.folded(2.0 * scale / h, 2.0 * (shift - c) / h)
    flat = z.reshape(-1)
    b1 = np.zeros_like(z)
    b2 = np.zeros_like(z)
    for k in range(len(q) - 1, 0, -1):
        b0 = double.apply(b1)
        b0 -= b2
        b0 = daxpy(flat, b0.reshape(-1), a=q[k]).reshape(z.shape)
        b1, b2 = b0, b1
    y = double.apply(b1)
    y *= 0.5
    y -= b2
    y = daxpy(flat, y.reshape(-1), a=q[0]).reshape(z.shape)
    if c + h != 0.0:
        y *= np.exp(c + h)
    return y


@dataclass(frozen=True)
class DenseGibbs:
    """Dense Gibbs state exp(-beta M) / Z with its log partition function.

    density is the normalized positive semidefinite matrix with unit trace,
    log_partition is log Tr exp(-beta M), and spectrum holds the eigenvalues
    of density in ascending order.
    """

    density: np.ndarray
    log_partition: float
    spectrum: np.ndarray


def dense_gibbs(op: SymOperator, beta: float, limit: int = 2048) -> DenseGibbs:
    """Eigendecomposition route to the Gibbs state of a symmetric operator.

    Intended as the exact small-scale path; refuses n > limit since cost is
    cubic. The spectral shift by min(eig) keeps the exponentials in range and
    cancels in the normalized state; it is added back into log_partition.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if op.n > limit:
        raise ValueError(
            f"n={op.n} exceeds the dense limit {limit}; use the probe-based path")
    evals, vecs = np.linalg.eigh(op.to_dense())
    shifted = -beta * (evals - evals[0])
    w = np.exp(shifted)
    z = w.sum()
    occ = w / z
    x = (vecs * occ) @ vecs.T
    x = (x + x.T) / 2.0
    log_partition = float(np.log(z) - beta * evals[0])
    return DenseGibbs(density=x, log_partition=log_partition,
                      spectrum=np.sort(occ))


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
    m = scipy.io.mmread(path)
    if isinstance(m, np.ndarray):
        return SymOperator.from_dense(m)
    return SymOperator.from_sparse(m)
