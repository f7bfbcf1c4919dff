"""Rademacher trace probes of Gibbs states.

A probe batch holds W whose columns are w_s = exp(-(beta/2) M) z_s for Rademacher
z_s, and the mass sum_s ||w_s||^2. The state estimate is X_hat = W W^T / mass;
each SDP problem reads the functionals its gradient needs (the diagonal, the
diagonal blocks, the block sums) straight from W in its stochastic_gradient.
Each is a ratio of quadratic forms in the columns, so the spectral shift
applied inside the exponential (a common positive factor across columns)
cancels; it is recorded on the batch for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.random import Philox

from entrodual.operators import SpectralInterval, SymOperator, expm_action

__all__ = ["ProbeBatch", "draw_probes", "probe_gibbs"]

_MASK64 = (1 << 64) - 1


def draw_probes(n: int, num_samples: int, seed: int, iteration: int) -> np.ndarray:
    """n x S array of i.i.d. Rademacher probes, reproducible per column.

    Column s is generated from a Philox stream whose 256-bit counter starts at
    (0, 0, iteration, s), with the key set from seed. Putting the column and
    iteration indices in the high words keeps per-column streams disjoint, so
    the same (seed, iteration, s) always yields the same column regardless of
    how many columns are requested. The column equals
    Generator(Philox(key, counter)).integers(0, 2, n) mapped to signs: entry i
    is the top bit of the low (even i) or high (odd i) half of raw word i // 2.
    """
    if num_samples < 1:
        raise ValueError("need at least one probe column")
    if n < 1:
        raise ValueError("dimension must be positive")
    bg = Philox(key=int(seed) & ((1 << 128) - 1))
    state = bg.state
    counter = np.zeros(4, dtype=np.uint64)
    counter[2] = int(iteration) & _MASK64
    words = np.empty((num_samples, (n + 1) // 2), dtype="<u8")
    # the fresh state's output buffer is empty, so each column starts at its counter
    for s in range(num_samples):
        counter[3] = s
        state["state"]["counter"] = counter
        bg.state = state
        words[s] = bg.random_raw(words.shape[1])
    bits = words.view("<u4")[:, :n] >> 31
    out = np.empty((n, num_samples))
    np.multiply(bits.T, 2.0, out=out)
    out -= 1.0
    return out


@dataclass(frozen=True)
class ProbeBatch:
    """Probe images of a Gibbs factor, with the normalization already summed.

    images holds the spectrally shifted columns; the true (unshifted) columns
    are exp(log_scale) * images. trace_hat = (1/S) sum_s ||w_s||^2 estimates
    the trace of the unnormalized outer-product average in the shifted frame.
    """

    images: np.ndarray
    trace_hat: float
    log_scale: float
    seed_path: Optional[Tuple[int, int]] = None

    def __post_init__(self):
        assert self.images.ndim == 2 and self.images.shape[1] >= 1
        if not self.trace_hat > 0.0:
            raise ValueError("probe batch has zero mass; probes cannot all vanish")

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def num_samples(self) -> int:
        return self.images.shape[1]

    @property
    def mass(self) -> float:
        """sum_s ||w_s||^2, the denominator of every normalized functional."""
        return self.trace_hat * self.num_samples

    def unshifted_images(self) -> np.ndarray:
        """Columns in the original frame; may overflow for extreme shifts."""
        return np.exp(self.log_scale) * self.images


def probe_gibbs(op: SymOperator, beta: float, interval: SpectralInterval,
                probes: np.ndarray, tol: float = 1e-8,
                seed_path: Optional[Tuple[int, int]] = None) -> ProbeBatch:
    """Apply exp(-(beta/2) op) to the probe columns, with overflow-safe shifting.

    interval must contain the spectrum of op. The exponent is shifted so its
    spectrum lies in [-(beta/2) width, 0]; the discarded factor
    exp(-(beta/2) interval.lo) is recorded as log_scale.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    z = np.asarray(probes, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    half = 0.5 * beta
    w = expm_action(op, interval, z, tol=tol, scale=-half,
                    shift=half * interval.lo)
    trace_hat = float(np.mean(np.sum(w * w, axis=0)))
    return ProbeBatch(images=w, trace_hat=trace_hat,
                      log_scale=-half * interval.lo, seed_path=seed_path)

