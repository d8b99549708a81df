"""The dense oracle: brute-force checks of the closed forms trials sample.

Each ``check_*`` function returns ``(name, ok, detail)`` rows; ``checks``
is ``verify``'s suite, and the tests call the same functions at their
own seeds and sizes. No trial-path module imports this one.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations

import numpy as np

from .errors import DimensionError, ResourceCapError
from .estimation import covariant_estimate, mean_estimation_fsq
from .harness import compare_to_formula
from .protocols import a2b_soundness, eps_c_b2a_exact
from .qudit import (
    SIZE_CAP,
    HaarFrame,
    PureState,
    clamp_probability,
    fidelity_sq,
    haar_random,
    measure_basis,
    sym_dim,
    sym_projector,
)

Row = tuple[str, bool, str]


class _MaximallyMixed:
    """Marker for a maximally mixed tensor factor (identity / d)."""

    def __repr__(self) -> str:
        return "MAXIMALLY_MIXED"


MAXIMALLY_MIXED = _MaximallyMixed()


def sym_outcome_probability(
    factors: list[PureState | _MaximallyMixed] | tuple[PureState | _MaximallyMixed, ...],
    d: int,
) -> float:
    """Probability of the symmetric outcome on a product of factors.

    Returns Tr(P rho) where P projects onto the symmetric subspace and
    rho is the tensor product of the given pure states and maximally
    mixed factors (identity / d). Every factor must have dimension d.
    """
    if not factors:
        raise ValueError("need at least one factor")
    n = len(factors)
    if d**n > SIZE_CAP:
        raise ResourceCapError(f"dimension {d}**{n} exceeds cap {SIZE_CAP}")
    mats = []
    for f in factors:
        if isinstance(f, _MaximallyMixed):
            mats.append(np.eye(d, dtype=np.complex128) / d)
        else:
            if f.dim != d:
                raise DimensionError(f"factor dimension {f.dim} != {d}")
            mats.append(np.outer(f.amplitudes, f.amplitudes.conj()))
    rho = reduce(np.kron, mats)
    proj = sym_projector(n, d).matrix
    return clamp_probability(float(np.trace(proj @ rho).real))


def basis_measure_guess(eta: PureState, rng: np.random.Generator) -> PureState:
    """Measure ``eta`` in the computational basis and guess the outcome vector.

    Averaged over Haar-random inputs the mean squared fidelity of this
    single-copy strategy is 2 / (d + 1).
    """
    index = measure_basis(eta, rng)
    amps = np.zeros(eta.dim, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(amps)


def grid(max_dim: int, cap: int):
    # The cells (n, d), n >= 1 and 2 <= d <= max_dim, with d^n <= cap. No d
    # above cap has such a power.
    for d in range(2, min(max_dim, cap) + 1):
        n = 1
        while d**n <= cap:
            yield n, d
            n += 1


def check_projector_traces(max_dim: int) -> list[Row]:
    rows = []
    for n, d in grid(max_dim, 256):
        proj = sym_projector(n, d).matrix
        trace = float(np.trace(proj).real)
        expected = sym_dim(n, d)
        idem = float(np.max(np.abs(proj @ proj - proj)))
        herm = float(np.max(np.abs(proj - proj.conj().T)))
        ok = abs(trace - expected) < 1e-10 and idem < 1e-10 and herm < 1e-10
        rows.append((f"projector n={n} d={d}", ok, f"trace {trace:.6f} vs {expected}"))
    return rows


def check_mixed_factor(label: str, cells, rng) -> list[Row]:
    # One row per cell (n, d), named by ``label`` formatted with n and d: n copies
    # of a Haar state and identity/d pass with sym_dim(n + 1, d) / (sym_dim(n, d) d).
    rows = []
    for n, d in cells:
        phi = haar_random(d, rng)
        got = sym_outcome_probability([phi] * n + [MAXIMALLY_MIXED], d)
        expected = sym_dim(n + 1, d) / (sym_dim(n, d) * d)
        rows.append((label.format(n=n, d=d), abs(got - expected) < 1e-12, f"{got:.12f} vs {expected:.12f}"))
    return rows


def check_blind_acceptance(max_dim: int) -> list[Row]:
    worst = 0.0
    for n in range(0, 51):
        for d in range(2, min(max_dim, 50) + 1):
            worst = max(worst, abs(sym_dim(n + 1, d) / (sym_dim(n, d) * d) - a2b_soundness(n, d)))
    return [("blind-acceptance closed form", worst < 1e-12, f"max |diff| {worst:.2e}")]


def _reject_probability_enumerated(n: int, d: int, q: int) -> float:
    """Independent oracle: exact detection pmf plus explicit sublist enumeration."""
    p = 1.0 / d
    total = 0.0
    for x in range(n + 1):
        pmf = math.comb(n, x) * p**x * (1 - p) ** (n - x)
        detected = x + 1  # the unknown system always tests positive
        if detected <= q:
            continue
        subsets = list(combinations(range(detected), q))
        missing = sum(1 for s in subsets if 0 not in s)
        total += pmf * missing / len(subsets)
    return total


def check_reject_probability(max_dim: int) -> list[Row]:
    rows = []
    for n, d, q in [(1, 2, 1), (2, 2, 1), (4, 2, 2), (6, 3, 2), (9, 3, 4), (10, 4, 3)]:
        if d > max_dim:
            continue
        got, expected = eps_c_b2a_exact(n, d, q), _reject_probability_enumerated(n, d, q)
        ok = abs(got - expected) < 1e-12
        rows.append((f"reject-probability n={n} d={d} q={q}", ok, f"{got:.12f} vs {expected:.12f}"))
    return rows


def check_haar_moments(dims, trials: int, rng, z: float) -> list[Row]:
    rows = []
    for d in dims:
        s2 = s4 = s8 = 0.0  # running sums of |c0|^2, |c0|^4, |c0|^8: O(1) memory
        for _ in range(trials):
            sq = abs(haar_random(d, rng).amplitudes[0]) ** 2
            s2, s4, s8 = s2 + sq, s4 + sq * sq, s8 + sq**4
        for name, total, total_sq, target in (
            ("|c0|^2", s2, s4, 1.0 / d),
            ("|c0|^4", s4, s8, 2.0 / (d * (d + 1))),
        ):
            mean = total / trials
            se = math.sqrt(max(total_sq - total * mean, 0.0) / (trials - 1) / trials)
            ok = compare_to_formula(mean, se, target, z=z)
            rows.append((f"haar {name} d={d}", ok, f"{mean:.5f} vs {target:.5f}"))
    return rows


def check_born_frequencies(max_dim: int, trials: int, rng) -> list[Row]:
    # The measurement trials make: a frame whose column 0 is fixed to `direction`.
    rows = []
    for d in sorted({2, min(max_dim, 4)}):
        state = haar_random(d, rng)
        direction = haar_random(d, rng)
        column = direction.amplitudes[:, None]
        prob = abs(np.vdot(direction.amplitudes, state.amplitudes)) ** 2
        hits = sum(HaarFrame(d, column).measure(state, rng) == 0 for _ in range(trials))
        p_hat = hits / trials
        se = math.sqrt(max(prob * (1 - prob), 1e-12) / trials)
        ok = compare_to_formula(p_hat, se, prob, z=4.0)
        rows.append((f"born frequency d={d}", ok, f"{p_hat:.4f} vs {prob:.4f}"))
    return rows


def check_estimation(name: str, guess, target: float, d: int, trials: int, rng, z: float) -> Row:
    """Mean squared fidelity of ``guess(eta, rng)`` to Haar eta against ``target``."""
    values = np.empty(trials)
    for i in range(trials):
        eta = haar_random(d, rng)
        values[i] = fidelity_sq(guess(eta, rng), eta)
    se = values.std(ddof=1) / math.sqrt(trials)
    ok = compare_to_formula(values.mean(), se, target, z=z)
    return (name, ok, f"{values.mean():.4f} vs {target:.4f}")


def checks(max_dim: int, trials: int, seed: int) -> list[Row]:
    """``verify``'s rows, in its order, from one ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    pure = [(1, d) for d in range(2, min(max_dim, 6) + 1)]
    copies = [(n, d) for n, d in [(1, 2), (2, 2), (1, 3), (3, 2)] if d <= max_dim]
    return [
        *check_projector_traces(max_dim),
        *check_mixed_factor("pure+mixed d={d}", pure, rng),
        *check_mixed_factor("copies+mixed n={n} d={d}", copies, rng),
        *check_blind_acceptance(max_dim),
        *check_reject_probability(max_dim),
        *check_haar_moments([d for d in (2, 3) if d <= max_dim], trials, rng, z=4.0),
        *check_born_frequencies(max_dim, max(trials // 10, 1000), rng),
        check_estimation(
            "estimation law m=1 d=2", lambda eta, rng: covariant_estimate(eta, 1, rng),
            mean_estimation_fsq(1, 2), 2, 20_000, rng, z=4.0,
        ),
    ]
