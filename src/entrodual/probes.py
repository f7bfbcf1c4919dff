"""Rademacher trace probes of Gibbs states.

A probe batch holds a factor W of a Gibbs state, read as X = W W^T / mass.
Its columns are w_s = exp(-(beta/2) M) z_s for Rademacher z_s, an estimate,
or the exact factor V sqrt(p) of dense_gibbs. Each SDP problem reads every
functional its gradient needs (the diagonal, the diagonal blocks, the block
sums) straight from W in its stochastic_gradient. Each is a ratio of
quadratic forms in the columns, so a common positive factor, such as the
spectral shift applied inside the exponential, cancels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """Columns of a Gibbs factor with their row energies, derived from them.

    images holds the columns w_s (probe images or the exact dense factor);
    r_i = sum_s w_is^2 is the diagonal of W W^T and mass = sum_i r_i the
    denominator of every normalized functional.
    """

    images: np.ndarray
    r: np.ndarray = field(init=False)
    mass: float = field(init=False)

    def __post_init__(self):
        assert self.images.ndim == 2 and self.images.shape[1] >= 1
        object.__setattr__(self, "r", np.einsum("ns,ns->n", self.images,
                                                self.images))
        object.__setattr__(self, "mass", float(self.r.sum()))
        if not self.mass > 0.0:
            raise ValueError(f"probe batch has zero or non-finite mass {self.mass}; "
                             "probes cannot all vanish")

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def num_samples(self) -> int:
        return self.images.shape[1]


def probe_gibbs(op: SymOperator, beta: float, interval: SpectralInterval,
                probes: np.ndarray, tol: float = 1e-8) -> ProbeBatch:
    """Apply exp(-(beta/2) op) to the probe columns, with overflow-safe shifting.

    interval must contain the spectrum of op. The exponent is shifted so its
    spectrum lies in [-(beta/2) width, 0]; the discarded common factor
    exp(-(beta/2) interval.lo) cancels in every normalized functional.
    """
    if not 0.0 < beta < np.inf:
        raise ValueError("beta must be positive and finite")
    z = np.asarray(probes, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    half = 0.5 * beta
    w = expm_action(op, interval, z, tol=tol, scale=-half,
                    shift=half * interval.lo)
    return ProbeBatch(w)
