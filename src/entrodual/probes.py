"""Rademacher trace probes of Gibbs states.

A ProbeBatch (from operators) holds a factor W of a Gibbs state, read as
X = W W^T / mass: w_s = exp(-(beta/2) M) z_s for Rademacher z_s, or the exact
factor of dense_gibbs. Each SDP problem reads every functional its gradient
needs straight from W in its stochastic_gradient; each is a ratio of
quadratic forms in the columns, so a common positive factor, such as the
spectral shift inside the exponential, cancels. log(mass) + log_norm is a
Hutchinson estimate of log Tr exp(-beta M).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from numpy.random import Philox

from entrodual.operators import (ProbeBatch, SpectralInterval, SymOperator, expm_action,
                                 reused)

__all__ = ["ProbeBatch", "draw_probes", "probe_gibbs"]

_MASK64 = (1 << 64) - 1


def draw_probes(n: int, num_samples: int, seed: int, iteration: int,
                dtype=np.float64, work: Optional[dict] = None) -> np.ndarray:
    """n x S array of i.i.d. Rademacher probes, reproducible per column.

    Column s is generated from a Philox stream whose 256-bit counter starts at
    (0, 0, iteration, s), with the key set from seed. Putting the column and
    iteration indices in the high words keeps per-column streams disjoint, so
    the same (seed, iteration, s) always yields the same column regardless of
    how many columns are requested. The column equals
    Generator(Philox(key, counter)).integers(0, 2, n) mapped to signs: entry i
    is the top bit of the low (even i) or high (odd i) half of raw word i // 2.
    The signs are written over the words as float32; a float32 draw is a
    transposed view of them (4 n S bytes), any other dtype a cast of it. With
    a work dict the words are kept there (see operators.reused), and the next
    draw with it overwrites them.
    """
    if num_samples < 1:
        raise ValueError("need at least one probe column")
    if n < 1:
        raise ValueError("dimension must be positive")
    bg = Philox(key=int(seed) & ((1 << 128) - 1))
    state = bg.state
    counter = np.zeros(4, dtype=np.uint64)
    counter[2] = int(iteration) & _MASK64
    words = reused(work, "draw_probes", (num_samples, (n + 1) // 2), np.dtype("<u8"))
    # the fresh state's output buffer is empty, so each column starts at its counter
    for s in range(num_samples):
        counter[3] = s
        state["state"]["counter"] = counter
        bg.state = state
        words[s] = bg.random_raw(words.shape[1])
    # keep each half's top bit, then xor in -1.0f: a set bit gives +1.0f
    half = words.view("<u4")
    half &= 0x80000000
    half ^= 0xBF800000
    return half.view("<f4")[:, :n].T.astype(dtype, copy=False)


def probe_gibbs(op: SymOperator, beta: float, interval: SpectralInterval,
                probes: np.ndarray, tol: float = 1e-8,
                work: Optional[dict] = None) -> ProbeBatch:
    """Apply exp(-(beta/2) op) to the probe columns, with overflow-safe shifting.

    interval must contain the spectrum of op. The exponent is shifted so its
    spectrum lies in [-(beta/2) width, 0]; the discarded common factor
    exp(-(beta/2) interval.lo) cancels in every normalized functional. As
    E[mass] = S Tr exp(-beta (op - interval.lo)), log_norm = -log S - beta lo.

    float32 probes (Rademacher signs are exact in float32) run in float32,
    with the series truncated at float32 roundoff, about 1.2e-7 per unit of
    probe length, and other probes in float64, truncated at tol * 1e-3 per
    unit. That error stays under sqrt(tol) of the images only while the mass
    is at least (error / sqrt(tol))^2 n S: about 1.4e-6 n S in float32 and
    1e-14 n S in float64 at tol = 1e-8.

    The images keep the probes' precision, and ProbeBatch reads them in
    float64. The shift puts the top of the mapped interval at exactly 0, so
    each image is exactly half the recurrence's output, and a float32 batch
    hands every functional the values a float64 copy of it would. With a work
    dict the images are kept there for the next call with it (see
    expm_action), which overwrites them.
    """
    if not 0.0 < beta < np.inf:
        raise ValueError("beta must be positive and finite")
    z = np.asarray(probes)
    if z.ndim == 1:
        z = z[:, None]
    half = 0.5 * beta
    w = expm_action(op, interval, z, tol=tol, scale=-half,
                    shift=half * interval.lo, work=work)
    return ProbeBatch(w, -math.log(z.shape[1]) - beta * interval.lo)
