"""Rademacher trace probes of Gibbs states.

draw_probes returns its probes as PackedSigns, one bit per sign, and
probe_gibbs hands them to expm_action as they are: each column block is
unpacked into the recurrence's own buffer, so no n x S block of signs is
formed. A ProbeBatch (from operators) holds a factor W of a Gibbs state,
read as X = W W^T / mass: w_s = exp(-(beta/2) M) z_s for Rademacher z_s, or
the exact factor of dense_gibbs. Each SDP problem reads every functional its gradient
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

from entrodual.operators import (PackedSigns, ProbeBatch, SpectralInterval, SymOperator,
                                 expm_action)

__all__ = ["PackedSigns", "ProbeBatch", "draw_probes", "probe_gibbs"]


def draw_probes(n: int, num_samples: int, seed: int, iteration: int,
                dtype=np.float64) -> PackedSigns:
    """n x S block of i.i.d. Rademacher probes, one bit per sign.

    One Philox.random_raw call, keyed by seed, draws S m raw words, m =
    ceil(n / 64), from the 256-bit counter (0, 0, iteration, 0). Column s is
    words [s m, (s + 1) m) unpacked little-endian, a set bit +1 (see
    PackedSigns), so it depends only on (seed, iteration, s) and not on how
    many columns are drawn; the iteration sits in a high counter word, so
    the streams of different iterations are disjoint. The block holds the
    8 S m bytes of words; dtype is the precision it reports and unpacks to.
    """
    if num_samples < 1:
        raise ValueError("need at least one probe column")
    if n < 1:
        raise ValueError("dimension must be positive")
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    if not 0 <= iteration < 2**64:
        raise ValueError(f"iteration must lie in [0, 2**64), got {iteration}")
    m = -(-n // 64)
    bg = Philox(key=int(seed), counter=np.array([0, 0, iteration, 0], dtype=np.uint64))
    return PackedSigns(bg.random_raw(num_samples * m).reshape(num_samples, m), n, dtype)


def probe_gibbs(op: SymOperator, beta: float, interval: SpectralInterval,
                probes, tol: float = 1e-8,
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
    z = probes if isinstance(probes, PackedSigns) else np.asarray(probes)
    if z.ndim == 1:
        z = z[:, None]
    half = 0.5 * beta
    w = expm_action(op, interval, z, tol=tol, scale=-half,
                    shift=half * interval.lo, work=work)
    return ProbeBatch(w, -math.log(z.shape[1]) - beta * interval.lo)
