"""State-estimation strategies and the closed-form fidelity law.

The optimal mean squared fidelity achievable from m copies of an
unknown Haar-random qudit is (m + 1) / (m + d). The covariant
estimator below realizes it by sampling a guess from the exact
posterior, whose fidelity law is Beta(m + 1, d - 1). It returns the
guess as a ``PureState`` and scores nothing: whoever knows the unknown
state scores the guess against it with ``fidelity_sq``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .qudit import PureState, haar_complement, owned_state, vector_norm


def mean_estimation_fsq(m: int, d: int) -> float:
    """Optimal mean squared fidelity of estimation from m copies.

    Returns (m + 1) / (m + d). The m = 0 case is the prior mean 1/d,
    the m = 1 case is the best guess from a single copy, 2 / (d + 1).
    """
    if d < 2:
        raise DimensionError("estimation law needs d >= 2")
    if m < 0:
        raise ValueError("copy count must be nonnegative")
    return (m + 1) / (m + d)


def covariant_estimate(
    eta: PureState, m: int, rng: np.random.Generator
) -> PureState:
    """Simulate the optimal covariant estimate from m copies of ``eta``.

    The guess phi has density proportional to |<phi|eta>|^(2m) over the
    Haar measure. Haar gives F = |<phi|eta>|^2 the law Beta(1, d - 1),
    so here F ~ Beta(m + 1, d - 1), of mean (m + 1) / (m + d). Given F,
    phi = sqrt(F) eta + sqrt(1 - F) r with r Haar on the orthogonal
    complement of eta, since the density is invariant under unitaries
    fixing eta. The cost does not depend on m.
    """
    if m < 1:
        raise ValueError("covariant estimation needs m >= 1")
    return state_at_overlap(eta, rng.beta(m + 1, eta.dim - 1), rng)


def state_at_overlap(eta: PureState, f: float, rng: np.random.Generator) -> PureState:
    """sqrt(f) eta + sqrt(1 - f) r, with r Haar on the orthogonal complement of eta."""
    amps = eta.amplitudes
    r = haar_complement(amps, 1, rng)[:, 0]
    phi = math.sqrt(f) * amps + math.sqrt(1.0 - f) * r
    # Renormalize: a draw lying nearly along eta leaves r a small rounding
    # overlap with eta that would break the norm tolerance.
    phi /= vector_norm(phi)
    return owned_state(phi)
