"""Dense linear algebra for small qudit systems.

States are unit-norm complex vectors, operators are dense Hermitian
matrices. The dense algebra is deliberately brute force and desk scale:
tensor products are built with explicit Kronecker products and the
symmetric-subspace projector is an explicit sum over all factor
permutations, behind a hard size cap; protocol runs use closed forms
that tests check against it. Global phase is ignored throughout;
states are compared only through squared fidelity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import DimensionError, ResourceCapError

# Hard cap on the dimension of any composite system (d ** n).
SIZE_CAP = 4096

NORM_TOL = 1e-12
_NARROW_DTYPES = (np.float16, np.float32, np.complex64)
HERMITIAN_TOL = 1e-12
PROJECTOR_TOL = 1e-10
PROB_TOL = 1e-12


class _MaximallyMixed:
    """Marker for a maximally mixed tensor factor (identity / d)."""

    def __repr__(self) -> str:
        return "MAXIMALLY_MIXED"


MAXIMALLY_MIXED = _MaximallyMixed()


def clamp_probability(p: float) -> float:
    """Clip a computed probability to [0, 1].

    Values within ``PROB_TOL`` outside the interval are treated as rounding
    noise; larger excursions and non-finite values indicate a bug and raise.
    """
    if not -PROB_TOL <= p <= 1.0 + PROB_TOL:
        raise ValueError(f"value {p!r} is not a probability (tolerance {PROB_TOL})")
    return min(max(p, 0.0), 1.0)


def clamp_probabilities(p: np.ndarray) -> np.ndarray:
    """``clamp_probability`` applied to every entry of an array."""
    lo, hi = np.minimum.reduce(p), np.maximum.reduce(p)
    if not (-PROB_TOL <= lo and hi <= 1.0 + PROB_TOL):
        bad = float(hi if lo >= -PROB_TOL else lo)
        raise ValueError(f"value {bad!r} is not a probability (tolerance {PROB_TOL})")
    return np.minimum(np.maximum(p, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm complex amplitude vector of a d-dimensional pure state."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        # The one copy: the state owns its amplitudes, whoever holds the input.
        amps = np.array(self.amplitudes, dtype=np.complex128)
        object.__setattr__(self, "amplitudes", _seal(amps, self.amplitudes))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def _seal(amps: np.ndarray, source: object) -> np.ndarray:
    """Check a state's own complex128 amplitudes and make them read-only.

    ``amps`` must be 1-D, non-empty and of unit norm within ``NORM_TOL``.
    ``source`` is what the caller handed in: when its dtype is narrower
    than complex128, a norm within 8 eps of that dtype is accepted and
    renormalised in place.
    """
    if amps.ndim != 1 or amps.size < 1:
        raise DimensionError("amplitudes must be a non-empty 1-D sequence")
    flat = amps.view(np.float64)
    norm = math.sqrt(flat.dot(flat))
    if not abs(norm - 1.0) <= NORM_TOL:
        # A vector normalised in a narrower precision lands within about
        # one eps of that precision, whatever its length: accept it within
        # 8 eps, then renormalise it in complex128.
        dtype = getattr(source, "dtype", None)
        tol = 8 * np.finfo(dtype).eps if dtype in _NARROW_DTYPES else NORM_TOL
        if not abs(norm - 1.0) <= tol:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {tol}")
        amps /= norm
    amps.setflags(write=False)
    return amps


def owned_state(amps: np.ndarray) -> PureState:
    """A ``PureState`` that takes ``amps`` itself, with no copy.

    For an array the caller has just computed and holds nowhere else: a
    complex128 vector, checked as ``PureState`` checks its input, then
    made read-only in place. ``PureState(amps)`` copies instead.
    """
    if amps.dtype != np.complex128:
        raise TypeError(f"owned amplitudes must be complex128, not {amps.dtype}")
    state = object.__new__(PureState)
    object.__setattr__(state, "amplitudes", _seal(amps, amps))
    return state


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense Hermitian operator; also used for projectors.

    A real matrix is stored as float64, any other as complex128.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix)
        # astype copies, so the stored matrix is the operator's own.
        mat = mat.astype(np.complex128 if np.iscomplexobj(mat) else np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise DimensionError("operator matrix must be square and non-empty")
        if not np.max(np.abs(mat - mat.conj().T)) <= HERMITIAN_TOL:
            raise ValueError(f"matrix is not Hermitian within {HERMITIAN_TOL}")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def projective(self) -> bool:
        """Whether the operator is idempotent within ``PROJECTOR_TOL``, computed once."""
        mat = self.matrix
        return bool(np.max(np.abs(mat @ mat - mat)) <= PROJECTOR_TOL)

    @classmethod
    def from_state(cls, state: PureState) -> "HermitianOperator":
        """Rank-1 projector onto ``state``."""
        return cls(state.density_matrix())


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of a binary projective measurement."""

    index: int
    post_state: PureState


def vector_norm(z: np.ndarray) -> float:
    """Euclidean norm of a 1-D complex array, without ``np.linalg.norm``'s per-call overhead."""
    re, im = z.real, z.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def haar_random(d: int, rng: np.random.Generator) -> PureState:
    """Draw a pure state uniformly (unitarily invariant measure).

    Samples a vector of independent standard complex Gaussians, drawn as
    d interleaved (real, imaginary) pairs, and normalizes it, which is
    exactly Haar on the unit sphere of C^d. A zero draw is redrawn.
    """
    if d < 1:
        raise DimensionError(f"invalid dimension {d}")
    while True:
        flat = rng.standard_normal(2 * d)
        norm = math.sqrt(flat.dot(flat))
        if norm > 0.0:
            flat *= 1.0 / norm
            return owned_state(flat.view(np.complex128))


def haar_complement(fixed: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` orthonormal columns, Haar on the orthogonal complement of ``fixed``.

    ``fixed`` holds orthonormal columns (a 1-D array is one column). Each
    new column is d interleaved complex standard normals, projected off
    every fixed and earlier column in order, normalized, and redrawn when
    its norm is at most 1e-8. Returns a d x count array.
    """
    fixed = np.asarray(fixed)
    cols = [fixed] if fixed.ndim == 1 else list(fixed.T)
    d, k = len(fixed), len(cols)
    if not 0 <= count <= d - k:
        raise DimensionError(f"cannot add {count} columns to {k} in dimension {d}")
    out = np.empty((count, d), dtype=np.complex128)
    for row in out:
        norm = 0.0
        while not norm > 1e-8:
            z = rng.standard_normal(2 * d).view(np.complex128)
            for c in cols:
                z = z - np.vdot(c, z) * c
            norm = vector_norm(z)
        np.divide(z, norm, out=row)
        cols.append(row)
    return out.T


class HaarFrame:
    """An orthonormal measurement basis of C^d, drawn only as far as it is read.

    The frame holds the columns it has fixed, by index; every other
    column is free, and the free columns are a Haar frame on the
    orthogonal complement of the fixed ones. ``fixed`` (d x k) fixes
    columns 0..k-1. With v a state's projection off the fixed columns
    and m the number of free columns, ``measure`` returns a fixed column
    f with probability |<f|s>|^2, and the free part with probability
    |v|^2, each free index then equally likely. The column at a free
    outcome has density proportional to |<b|v>|^2 on the unit sphere of
    the free subspace: sqrt(t) v/|v| + sqrt(1 - t) w with t ~ Beta(2, m - 1)
    and w Haar on the complement of the fixed columns and v, or v/|v|
    when m = 1. It is drawn when ``column`` first reads it, or before the
    next measurement, from the generator that measured it, and then
    stays fixed; the rest of the frame stays Haar on the new complement.
    """

    __slots__ = ("dim", "_fixed", "_order", "_free", "_pending")

    def __init__(self, d: int, fixed: np.ndarray | None = None) -> None:
        rows = np.empty((0, d), dtype=np.complex128) if fixed is None else fixed.T
        if rows.shape[1] != d or len(rows) > d:
            raise DimensionError(f"cannot fix a {rows.shape[::-1]} frame in dimension {d}")
        self.dim = d
        self._fixed = rows  # row i is the fixed column at index _order[i]
        self._order = list(range(len(rows)))
        self._free = list(range(len(rows), d))
        self._pending: tuple | None = None  # (index, v/|v|, rng) of a measured, undrawn column

    def measure(self, state: PureState, rng: np.random.Generator) -> int:
        """Measure ``state`` in the frame with one uniform; returns the outcome index."""
        if self._pending is not None:
            self._draw_pending()
        s, free, fixed = state.amplitudes, self._free, self._fixed
        if not len(fixed):
            # Nothing fixed: every index is equally likely and v is the state.
            # The loop below draws the same law from the same uniform, but
            # took classical1 d = 3 ignorant Alice against honest Bob from
            # 27-33 to 45-53 us per trial (timeit, best of 3 x 300 trials, on a
            # 2-core machine).
            j = free[int(rng.random() * len(free))]
            self._pending = (j, s, rng)
            return j
        overlaps = fixed.conj() @ s
        u = rng.random()
        for i, p in enumerate((overlaps.real**2 + overlaps.imag**2).tolist()):
            if u < p:
                return self._order[i]
            u -= p
        # Past every fixed column u is uniform on [0, |v|^2), since the fixed
        # overlaps and |v|^2 sum to 1; v is computed only here.
        v = s - overlaps @ fixed
        free_mass = v.real.dot(v.real) + v.imag.dot(v.imag)
        if not free or free_mass == 0.0:
            return self._order[-1]  # rounding carried u past the last fixed column
        j = free[min(int(u / free_mass * len(free)), len(free) - 1)]
        self._pending = (j, v / math.sqrt(free_mass), rng)
        return j

    def column(self, j: int) -> PureState:
        """The column at index ``j``, which a measurement must have returned."""
        if self._pending is not None and self._pending[0] == j:
            return owned_state(self._draw_pending())
        if j not in self._order:
            raise ValueError(f"column {j} has not been measured")
        return PureState(self._fixed[self._order.index(j)])

    def _draw_pending(self) -> np.ndarray:
        """Draw the pending column, fix it and return it."""
        j, vhat, rng = self._pending
        self._pending = None
        fixed, m = self._fixed, len(self._free)
        rows = np.empty((len(fixed) + 1, self.dim), dtype=np.complex128)
        rows[:-1] = fixed
        if len(fixed):
            # A second projection, so the column is orthogonal to the fixed
            # ones within rounding even when v was short.
            vhat = vhat - (fixed.conj() @ vhat) @ fixed
            vhat /= vector_norm(vhat)
        col = vhat
        if m > 1:
            t = rng.beta(2, m - 1)
            rows[-1] = vhat
            w = haar_complement(rows.T, 1, rng)[:, 0]
            col = math.sqrt(t) * vhat + math.sqrt(1.0 - t) * w
            col /= vector_norm(col)
        rows[-1] = col
        self._fixed = rows
        self._order.append(j)
        self._free.remove(j)
        return col


def fidelity_sq(a: PureState, b: PureState) -> float:
    """Squared fidelity |<a|b>|^2 between pure states."""
    if a.dim != b.dim:
        raise DimensionError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return clamp_probability(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def tensor_states(states: list[PureState] | tuple[PureState, ...]) -> PureState:
    """Tensor product of a sequence of pure states (left to right)."""
    if not states:
        raise ValueError("need at least one factor")
    total = 1
    for s in states:
        total *= s.dim
    if total > SIZE_CAP:
        raise ResourceCapError(f"composite dimension {total} exceeds cap {SIZE_CAP}")
    amps = reduce(np.kron, [s.amplitudes for s in states])
    return PureState(amps)


def sym_dim(n: int, d: int) -> int:
    """Dimension of the symmetric subspace of n qudits of dimension d.

    Equals C(n + d - 1, n), the number of multisets of size n drawn
    from d symbols.
    """
    if n < 0 or d < 1:
        raise DimensionError(f"invalid arguments n={n}, d={d}")
    return math.comb(n + d - 1, n)


@lru_cache(maxsize=None)
def sym_projector(n: int, d: int) -> HermitianOperator:
    """Projector onto the symmetric subspace of (C^d)^(tensor n).

    Built as the average of all n! factor-permutation operators.
    Hermitian, idempotent, with trace sym_dim(n, d).
    """
    if n < 1 or d < 1:
        raise DimensionError(f"invalid arguments n={n}, d={d}")
    dim = d**n
    if dim > SIZE_CAP:
        raise ResourceCapError(f"dimension {d}**{n} exceeds cap {SIZE_CAP}")
    # Row i of `digits` holds the base-d expansion of i, most significant first,
    # matching np.kron ordering.
    digits = np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64)
    powers = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    cols = np.arange(dim)
    acc = np.zeros((dim, dim))
    for perm in itertools.permutations(range(n)):
        rows = digits[:, perm] @ powers
        acc[rows, cols] += 1.0
    return HermitianOperator(acc / math.factorial(n))


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
            mats.append(f.density_matrix())
    rho = reduce(np.kron, mats)
    proj = sym_projector(n, d).matrix
    return clamp_probability(float(np.trace(proj @ rho).real))


def symmetric_acceptance(phi: PureState, n: int, psi: PureState) -> float:
    """Probability that n copies of ``phi`` plus ``psi`` pass the symmetric test.

    A product of k pure states passes with probability perm(G) / k!, G
    their Gram matrix (Harrow, arXiv:1308.6595); for n copies of phi
    and one psi that is (1 + n |<phi|psi>|^2) / (n + 1).
    """
    return (1 + n * fidelity_sq(phi, psi)) / (n + 1)


def measure_binary(
    s: PureState, p: HermitianOperator, rng: np.random.Generator
) -> MeasurementOutcome:
    """Binary projective measurement {p, 1 - p} on ``s``.

    Outcome index 1 occurs with the Born probability <s|p|s>; the post
    state is the renormalized projection onto the obtained subspace.
    """
    if s.dim != p.dim:
        raise DimensionError(f"dimension mismatch: state {s.dim} vs operator {p.dim}")
    if not p.projective:
        raise ValueError("measurement operator is not a projector")
    projected = p.matrix @ s.amplitudes
    prob_one = clamp_probability(float(np.vdot(s.amplitudes, projected).real))
    if rng.random() < prob_one:
        return MeasurementOutcome(1, PureState(projected / vector_norm(projected)))
    residual = s.amplitudes - projected
    return MeasurementOutcome(0, PureState(residual / vector_norm(residual)))


def measure_basis(s: PureState, rng: np.random.Generator) -> int:
    """Complete measurement in the computational basis; returns the index."""
    probs = np.abs(s.amplitudes) ** 2
    cumulative = np.cumsum(probs)
    # Norm is 1 within tolerance; guard the top edge anyway.
    u = rng.random() * cumulative[-1]
    return min(int(np.searchsorted(cumulative, u, side="right")), s.dim - 1)
