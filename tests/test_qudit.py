"""Brute-force oracles and Born-rule statistics for the qudit layer."""

import copy
import math
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwitness.errors import DimensionError, ResourceCapError
from qwitness.qudit import (
    MAXIMALLY_MIXED,
    NORM_TOL,
    HaarFrame,
    HermitianOperator,
    PureState,
    clamp_probabilities,
    clamp_probability,
    fidelity_sq,
    haar_complement,
    haar_random,
    measure_basis,
    measure_binary,
    owned_state,
    sym_dim,
    sym_outcome_probability,
    sym_projector,
    symmetric_acceptance,
    tensor_states,
    vector_norm,
)


def basis_state(d, k):
    amps = np.zeros(d, dtype=complex)
    amps[k] = 1.0
    return PureState(amps)


# ---------------------------------------------------------------------------
# states


def test_pure_state_rejects_bad_norm():
    with pytest.raises(ValueError):
        PureState([1.0, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pure_state_rejects_non_finite(bad):
    for amps in ([bad, 0.0], [1.0, bad], [complex(0.0, bad), 0.0]):
        with pytest.raises(ValueError):
            PureState(amps)


def test_pure_state_rejects_empty():
    with pytest.raises(DimensionError):
        PureState([])


def test_pure_state_owns_a_read_only_copy():
    amps = np.array([0.6, 0.8j])
    state = PureState(amps)
    assert not np.shares_memory(state.amplitudes, amps)
    amps[0] = 1.0
    assert state.amplitudes[0] == 0.6
    assert not state.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


_EXACT_AMPS = [0.5, 0.5j, 0.5 + 0.5j]


@pytest.mark.parametrize("amps", [_EXACT_AMPS, np.array(_EXACT_AMPS, dtype=np.complex64)])
def test_pure_state_accepts_lists_and_complex64(amps):
    state = PureState(amps)
    assert state.amplitudes.dtype == np.complex128
    assert np.array_equal(state.amplitudes, _EXACT_AMPS)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.complex64])
def test_pure_state_accepts_a_vector_normalised_in_its_own_precision(dtype):
    # Neither (0.6, 0.8) nor a long vector scaled by its own norm is exact in
    # binary, so each norm misses 1 by about the dtype's eps; the state
    # renormalises it in complex128.
    long = np.random.default_rng(5).standard_normal(1000).astype(dtype)
    for z in (np.array([0.6, 0.8], dtype=dtype), long / np.linalg.norm(long)):
        state = PureState(z)
        assert state.amplitudes.dtype == np.complex128
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= NORM_TOL
        assert np.allclose(state.amplitudes, z, rtol=0, atol=np.finfo(dtype).eps)
        assert fidelity_sq(state, state) == pytest.approx(1.0, abs=NORM_TOL)


def test_pure_state_rejects_a_complex64_norm_off_by_1e_3():
    with pytest.raises(ValueError):
        PureState(np.array([0.6, 0.8j], dtype=np.complex64) * np.complex64(1 + 1e-3))


def test_pure_state_rejects_a_norm_just_off_one():
    with pytest.raises(ValueError):
        PureState([1.0 + 1e-9, 0.0])


def test_owned_state_takes_its_input_without_a_copy():
    amps = np.array([0.6, 0.8j])
    state = owned_state(amps)
    assert state.amplitudes is amps
    assert not amps.flags.writeable
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0
    # PureState still owns a copy of what it is handed.
    copied = PureState(state.amplitudes)
    assert not np.shares_memory(copied.amplitudes, amps)


@pytest.mark.parametrize(
    "amps,error",
    [
        (np.array([[0.6, 0.8j]]), DimensionError),
        (np.array([], dtype=complex), DimensionError),
        (np.array([1.0 + 1e-9, 0.0], dtype=complex), ValueError),
        (np.array([math.nan, 1.0], dtype=complex), ValueError),
        (np.array([0.6, 0.8]), TypeError),
        (np.array([0.6, 0.8j], dtype=np.complex64), TypeError),
    ],
)
def test_owned_state_rejects_what_pure_state_rejects(amps, error):
    with pytest.raises(error):
        owned_state(amps)


def test_vector_norm_equals_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(3)
    for d in range(1, 41):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        for v in (z, z * 1e-9, np.ascontiguousarray(np.stack([z, z]).T)[:, 1]):
            assert vector_norm(v) == np.linalg.norm(v)


def test_haar_random_unit_norm():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3, 7):
        for _ in range(50):
            s = haar_random(d, rng)
            assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


def _complex_normals(rng, d):
    """d complex standard normals from d (real, imaginary) pairs, drawn in that order."""
    pairs = rng.standard_normal((d, 2))
    return pairs[:, 0] + 1j * pairs[:, 1]


def _expect_haar_random(d, rng):
    """The generator position and Haar state ``haar_random`` must leave and return."""
    clone = copy.deepcopy(rng)
    state = haar_random(d, rng)
    z = _complex_normals(clone, d)
    assert np.max(np.abs(state.amplitudes - z / np.linalg.norm(z))) <= 1e-15
    assert rng.bit_generator.state == clone.bit_generator.state
    assert not state.amplitudes.flags.writeable


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_haar_random_keeps_the_random_stream(d):
    # d interleaved (real, imaginary) pairs, normalised: one standard_normal(2 d) draw.
    rng = np.random.default_rng(100 + d)
    for _ in range(50):
        _expect_haar_random(d, rng)


def test_haar_random_follows_the_draws_at_every_dimension():
    rng = np.random.default_rng(41)
    for d in [*range(1, 41), 64, 257]:
        for _ in range(20):
            _expect_haar_random(d, rng)


def _orthonormal_columns(d, k, rng):
    z = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    return np.linalg.qr(z)[0]


def _expect_haar_complement(fixed, count, rng):
    """Column j is the j-th complex normal draw with its part in the span of the
    fixed and earlier columns removed, then normalised."""
    d = len(fixed)
    clone = copy.deepcopy(rng)
    cols = haar_complement(fixed, count, rng)
    assert cols.shape == (d, count)
    span = fixed if fixed.ndim == 2 else fixed[:, None]
    for j in range(count):
        z = _complex_normals(clone, d)
        r = z - span @ (span.conj().T @ z)
        expected = r / np.linalg.norm(r)
        assert np.max(np.abs(cols[:, j] - expected)) <= 1e-12
        span = np.column_stack([span, expected])
    assert rng.bit_generator.state == clone.bit_generator.state


@pytest.mark.parametrize("d,k,count", [(2, 1, 1), (3, 1, 2), (4, 2, 2), (5, 2, 1), (6, 3, 3)])
def test_haar_complement_is_orthonormal_and_orthogonal_to_fixed(d, k, count):
    rng = np.random.default_rng(10 * d + k)
    for _ in range(20):
        fixed = _orthonormal_columns(d, k, rng)
        cols = haar_complement(fixed, count, rng)
        assert cols.shape == (d, count)
        assert np.max(np.abs(cols.conj().T @ cols - np.eye(count))) <= 1e-12
        assert np.max(np.abs(fixed.conj().T @ cols)) <= 1e-12


@pytest.mark.parametrize("d,k,count", [(2, 1, 1), (3, 1, 2), (4, 2, 2), (6, 3, 3)])
def test_haar_complement_keeps_the_random_stream(d, k, count):
    rng = np.random.default_rng(200 + d + k)
    for _ in range(20):
        _expect_haar_complement(_orthonormal_columns(d, k, rng), count, rng)


def test_haar_complement_follows_the_draws_on_every_shape():
    rng = np.random.default_rng(42)
    for d in range(1, 9):
        for k in range(d + 1):
            for count in range(d - k + 1):
                for _ in range(3):
                    _expect_haar_complement(_orthonormal_columns(d, k, rng), count, rng)


def test_haar_complement_accepts_a_vector_and_no_columns():
    rng = np.random.default_rng(7)
    eta = haar_random(3, rng).amplitudes
    clone = copy.deepcopy(rng)
    assert haar_complement(eta, 0, rng).shape == (3, 0)
    assert rng.random() == clone.random()
    cols = haar_complement(eta, 2, rng)
    assert np.max(np.abs(np.column_stack([eta, cols]).conj().T
                         @ np.column_stack([eta, cols]) - np.eye(3))) <= 1e-12


class _StubNormals:
    """Generator stand-in that hands out preset standard-normal vectors in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def standard_normal(self, size):
        draw = np.asarray(self.draws.pop(0), dtype=float)
        assert draw.shape == (size,)
        return draw


def test_haar_complement_redraws_a_draw_inside_the_span():
    fixed = np.array([1.0, 0.0, 0.0], dtype=complex)
    stub = _StubNormals([
        [2.0, -1.0, 0.0, 0.0, 0.0, 0.0],  # 2 - 1j along fixed: norm 0 after projection
        [5.0, 0.0, 3.0, 0.0, 0.0, 4.0],  # 3 e1 + 4i e2 after projection
    ])
    cols = haar_complement(fixed, 1, stub)
    assert not stub.draws
    assert np.max(np.abs(cols[:, 0] - np.array([0.0, 0.6, 0.8j]))) <= 1e-15


def test_haar_random_redraws_a_zero_draw_as_the_parent_did():
    # A zero draw has no direction: it is dropped and drawn again, as before.
    stub = _StubNormals([[0.0] * 6, [0.0, 0.0, 3.0, 0.0, 0.0, -4.0]])
    state = haar_random(3, stub)
    assert not stub.draws
    assert np.max(np.abs(state.amplitudes - np.array([0.0, 0.6, -0.8j]))) <= 1e-15


def test_haar_complement_rejects_too_many_columns():
    rng = np.random.default_rng(8)
    with pytest.raises(DimensionError):
        haar_complement(np.eye(3, 2, dtype=complex), 2, rng)
    with pytest.raises(DimensionError):
        haar_complement(np.eye(2, 1, dtype=complex), -1, rng)


def test_haar_random_d1_is_the_single_state():
    rng = np.random.default_rng(1)
    s = haar_random(1, rng)
    assert s.dim == 1
    assert fidelity_sq(s, basis_state(1, 0)) == pytest.approx(1.0)


def test_haar_random_rejects_d0():
    with pytest.raises(DimensionError):
        haar_random(0, np.random.default_rng(0))


@pytest.mark.parametrize("d", [2, 3])
def test_haar_moments(d):
    # First moment 1/d, second moment 2/(d(d+1)), each within 3 standard
    # errors at this seed (4 is the hard bound).
    rng = np.random.default_rng(1000 + d)
    trials = 100_000
    sq = np.empty(trials)
    for i in range(trials):
        sq[i] = abs(haar_random(d, rng).amplitudes[0]) ** 2
    quartic = sq * sq
    for values, target in ((sq, 1 / d), (quartic, 2 / (d * (d + 1)))):
        se = values.std(ddof=1) / math.sqrt(trials)
        assert abs(values.mean() - target) <= 3 * se


# ---------------------------------------------------------------------------
# fidelity and tensors


def test_fidelity_identical_and_orthogonal():
    rng = np.random.default_rng(2)
    s = haar_random(4, rng)
    assert fidelity_sq(s, s) == pytest.approx(1.0, abs=1e-12)
    assert fidelity_sq(basis_state(3, 0), basis_state(3, 2)) == 0.0


def test_fidelity_half():
    a = basis_state(2, 0)
    b = PureState([2**-0.5, 2**-0.5])
    assert fidelity_sq(a, b) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(DimensionError):
        fidelity_sq(basis_state(2, 0), basis_state(3, 0))


def test_tensor_states_cap():
    with pytest.raises(ResourceCapError):
        tensor_states([basis_state(16, 0)] * 4)


# ---------------------------------------------------------------------------
# symmetric subspace


def test_sym_dim_values():
    assert sym_dim(0, 5) == 1
    assert sym_dim(2, 2) == 3
    assert sym_dim(3, 4) == 20  # C(6, 3)
    assert sym_dim(3, 2) == 4


def grid_up_to(cap):
    for d in range(2, 17):
        n = 1
        while d**n <= cap:
            yield n, d
            n += 1


def test_sym_projector_properties_full_grid():
    for n, d in grid_up_to(256):
        proj = sym_projector(n, d).matrix
        assert np.max(np.abs(proj @ proj - proj)) < 1e-10, (n, d)
        assert np.max(np.abs(proj - proj.conj().T)) < 1e-10, (n, d)
        assert abs(np.trace(proj).real - sym_dim(n, d)) < 1e-8, (n, d)


def test_sym_projector_single_factor_is_identity():
    assert np.allclose(sym_projector(1, 3).matrix, np.eye(3))


def test_sym_projector_cap():
    with pytest.raises(ResourceCapError):
        sym_projector(13, 2)


def test_sym_outcome_probability_cap():
    with pytest.raises(ResourceCapError):
        sym_outcome_probability([MAXIMALLY_MIXED] * 13, 2)


def test_sym_outcome_identical_copies():
    rng = np.random.default_rng(4)
    for d, n in ((2, 3), (3, 2)):
        phi = haar_random(d, rng)
        assert sym_outcome_probability([phi] * n, d) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_sym_outcome_pure_plus_mixed_closed_form(d):
    rng = np.random.default_rng(5)
    phi = haar_random(d, rng)
    got = sym_outcome_probability([phi, MAXIMALLY_MIXED], d)
    assert got == pytest.approx(0.5 + 0.5 / d, abs=1e-10)
    assert got == pytest.approx(sym_dim(2, d) / (sym_dim(1, d) * d), abs=1e-12)


def test_sym_outcome_orthogonal_qubits():
    got = sym_outcome_probability([basis_state(2, 0), basis_state(2, 1)], 2)
    assert got == pytest.approx(0.5, abs=1e-12)


def test_sym_outcome_copies_plus_mixed_ratio():
    rng = np.random.default_rng(6)
    for n, d in ((1, 2), (2, 2), (1, 3), (3, 2)):
        phi = haar_random(d, rng)
        got = sym_outcome_probability([phi] * n + [MAXIMALLY_MIXED], d)
        expected = sym_dim(n + 1, d) / (sym_dim(n, d) * d)
        assert got == pytest.approx(expected, abs=1e-10), (n, d)


# Closed forms sampled in protocol runs, against the dense oracle. The grid
# keeps the joint dimension d**(n + 1) at desk scale.
ORACLE_GRID = [(n, d) for d in range(2, 17) for n in range(8) if d ** (n + 1) <= 256]
weights = st.floats(0.0, 1.0)
seeds = st.integers(0, 2**32 - 1)


def state_toward(target, weight, rng):
    """A Haar state pulled toward ``target``, so overlaps span [0, 1]."""
    amps = weight * target.amplitudes + (1 - weight) * haar_random(target.dim, rng).amplitudes
    return PureState(amps / np.linalg.norm(amps))


@settings(max_examples=60, deadline=None)
@given(grid=st.sampled_from(ORACLE_GRID), weight=weights, seed=seeds)
def test_symmetric_acceptance_matches_dense_projector(grid, weight, seed):
    n, d = grid
    rng = np.random.default_rng(seed)
    psi = haar_random(d, rng)
    phi = state_toward(psi, weight, rng)
    joint = tensor_states([phi] * n + [psi]).amplitudes
    dense = np.vdot(joint, sym_projector(n + 1, d).matrix @ joint).real
    assert abs(symmetric_acceptance(phi, n, psi) - dense) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 16), weight=weights, seed=seeds)
def test_detection_probability_matches_projector(d, weight, seed):
    rng = np.random.default_rng(seed)
    eta = haar_random(d, rng)
    s = state_toward(eta, weight, rng)
    dense = np.vdot(s.amplitudes, HermitianOperator.from_state(eta).matrix @ s.amplitudes).real
    assert abs(fidelity_sq(s, eta) - dense) <= 1e-12


# ---------------------------------------------------------------------------
# measurements


def test_measure_binary_eigenstate():
    rng = np.random.default_rng(7)
    s = haar_random(3, rng)
    p = HermitianOperator.from_state(s)
    for _ in range(25):
        out = measure_binary(s, p, rng)
        assert out.index == 1
        assert fidelity_sq(out.post_state, s) == pytest.approx(1.0, abs=1e-10)


def test_measure_binary_orthogonal():
    rng = np.random.default_rng(8)
    p = HermitianOperator.from_state(basis_state(2, 0))
    for _ in range(25):
        assert measure_binary(basis_state(2, 1), p, rng).index == 0


def test_measure_binary_born_frequency():
    rng = np.random.default_rng(9)
    s = PureState([2**-0.5, 2**-0.5])
    p = HermitianOperator.from_state(basis_state(2, 0))
    trials = 100_000
    hits = sum(measure_binary(s, p, rng).index for _ in range(trials))
    se = math.sqrt(0.25 / trials)
    assert abs(hits / trials - 0.5) <= 3 * se


def test_measure_binary_randomized_instances():
    rng = np.random.default_rng(10)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        s = haar_random(d, rng)
        direction = haar_random(d, rng)
        p = HermitianOperator.from_state(direction)
        prob = fidelity_sq(s, direction)
        trials = 10_000
        hits = sum(measure_binary(s, p, rng).index for _ in range(trials))
        se = math.sqrt(max(prob * (1 - prob), 1e-9) / trials)
        assert abs(hits / trials - prob) <= 4 * se


def test_measure_binary_rejects_non_projector():
    rng = np.random.default_rng(11)
    not_projector = HermitianOperator(np.diag([2.0, 0.0]))
    with pytest.raises(ValueError):
        measure_binary(basis_state(2, 0), not_projector, rng)


def test_measure_binary_checks_each_operator_once(monkeypatch):
    checks = []
    original = HermitianOperator.__dict__["projective"].func

    def counted(self):
        checks.append(self)
        return original(self)

    projective = cached_property(counted)
    projective.__set_name__(HermitianOperator, "projective")
    monkeypatch.setattr(HermitianOperator, "projective", projective)
    rng = np.random.default_rng(14)
    p = HermitianOperator.from_state(basis_state(3, 1))
    for _ in range(5):
        measure_binary(haar_random(3, rng), p, rng)
    not_projector = HermitianOperator(np.diag([2.0, 0.0]))
    for _ in range(3):
        with pytest.raises(ValueError):
            measure_binary(basis_state(2, 0), not_projector, rng)
    assert len(checks) == 2 and checks[0] is p and checks[1] is not_projector


def test_clamp_probabilities_matches_scalar_clamp():
    values = np.array([0.0, 0.5, 1.0, -1e-13, 1.0 + 1e-13])
    clamped = clamp_probabilities(values)
    assert clamped.tolist() == [clamp_probability(v) for v in values]
    for bad in (-1e-9, 1.0 + 1e-9, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            clamp_probabilities(np.array([0.5, bad]))
        with pytest.raises(ValueError):
            clamp_probabilities(np.array([bad, 0.5]))


def test_measure_binary_dimension_mismatch():
    rng = np.random.default_rng(12)
    with pytest.raises(DimensionError):
        measure_binary(basis_state(3, 0), HermitianOperator(np.eye(2)), rng)


def test_measure_basis_deterministic_on_basis_states():
    rng = np.random.default_rng(13)
    for k in range(4):
        assert all(measure_basis(basis_state(4, k), rng) == k for _ in range(10))


def test_measure_basis_uniform_frequencies():
    rng = np.random.default_rng(14)
    s = PureState([0.5] * 4)
    trials = 100_000
    counts = np.bincount([measure_basis(s, rng) for _ in range(trials)], minlength=4)
    se = math.sqrt(0.25 * 0.75 / trials)
    for c in counts:
        assert abs(c / trials - 0.25) <= 3 * se


def test_measure_basis_biased_qubit():
    rng = np.random.default_rng(15)
    s = PureState([math.sqrt(0.9), math.sqrt(0.1)])
    trials = 100_000
    zeros = sum(measure_basis(s, rng) == 0 for _ in range(trials))
    se = math.sqrt(0.9 * 0.1 / trials)
    assert abs(zeros / trials - 0.9) <= 3 * se


# ---------------------------------------------------------------------------
# lazy Haar frames, against QR frames


def _qr_frame(d, rng):
    """The reference: every column fixed, from the QR of a Ginibre matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return HaarFrame(d, q * (np.diag(r) / np.abs(np.diag(r))))


FRAMES = {"lazy": lambda d, rng: HaarFrame(d), "qr": _qr_frame}


def _gate_difference(a, b, trials):
    """Two samples' means agree, column by column, two-sided at z = 5."""
    se = np.sqrt(a.var(axis=0, ddof=1) / trials + b.var(axis=0, ddof=1) / trials)
    assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0)) <= 5 * se)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_haar_frame_first_measurement_matches_qr_frames(d):
    # One measurement of a fixed state in a fresh frame: each outcome has
    # probability 1/d, and the measured column's fidelity F with the state is
    # Beta(2, d - 1), of mean 2/(d+1) and second moment 6/((d+1)(d+2)). Both
    # frame kinds are gated against these, and against each other, at z = 5.
    trials = 8000
    s = haar_random(d, np.random.default_rng(80 + d))
    samples = {}
    for seed, (kind, make) in enumerate(FRAMES.items()):
        rng = np.random.default_rng([81, d, seed])
        counts = np.zeros(d)
        fsq = np.empty(trials)
        for i in range(trials):
            frame = make(d, rng)
            j = frame.measure(s, rng)
            counts[j] += 1
            fsq[i] = fidelity_sq(frame.column(j), s)
        se = math.sqrt((1 / d) * (1 - 1 / d) / trials)
        assert np.all(np.abs(counts / trials - 1 / d) <= 5 * se), kind
        moments = np.column_stack([fsq, fsq**2])
        targets = (2 / (d + 1), 6 / ((d + 1) * (d + 2)))
        se = moments.std(axis=0, ddof=1) / math.sqrt(trials)
        assert np.all(np.abs(moments.mean(axis=0) - targets) <= 5 * se), kind
        samples[kind] = moments
    _gate_difference(samples["lazy"], samples["qr"], trials)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_haar_frame_second_measurement_matches_qr_frames(d):
    # Measure s1, then s2, in one frame, then read both measured columns. The
    # outcomes agree with probability (1 + |<s1|s2>|^2)/(d+1) in a Haar frame;
    # that, and each column's fidelity with its state (mean and second
    # moment), match QR frames two-sided at z = 5.
    trials = 8000
    pair_rng = np.random.default_rng(90 + d)
    s1, s2 = haar_random(d, pair_rng), haar_random(d, pair_rng)
    same = (1 + fidelity_sq(s1, s2)) / (d + 1)
    samples = {}
    for seed, (kind, make) in enumerate(FRAMES.items()):
        rng = np.random.default_rng([91, d, seed])
        rows = np.empty((trials, 5))
        for i in range(trials):
            frame = make(d, rng)
            j1 = frame.measure(s1, rng)
            j2 = frame.measure(s2, rng)
            f1 = fidelity_sq(frame.column(j1), s1)
            f2 = fidelity_sq(frame.column(j2), s2)
            rows[i] = (j1 == j2, f1, f1**2, f2, f2**2)
        assert abs(rows[:, 0].mean() - same) <= 5 * math.sqrt(same * (1 - same) / trials), kind
        samples[kind] = rows
    _gate_difference(samples["lazy"], samples["qr"], trials)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_haar_frame_draws_orthonormal_columns(d):
    # Measure Haar states until every index has come up, then read all d
    # columns: orthonormal within 1e-12, from a free frame and from one that
    # starts with two fixed columns.
    rng = np.random.default_rng(100 + d)
    for _ in range(50):
        eta = haar_random(d, rng).amplitudes
        for fixed in (None, np.column_stack([eta, haar_complement(eta, 1, rng)])):
            frame = HaarFrame(d, fixed)
            seen = set()
            while len(seen) < d:
                seen.add(frame.measure(haar_random(d, rng), rng))
            cols = np.array([frame.column(j).amplitudes for j in range(d)]).T
            assert np.max(np.abs(cols.conj().T @ cols - np.eye(d))) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_haar_frame_last_free_column_is_determined(d):
    # With one free column left, the column at the free outcome is the
    # state's normalised projection off the fixed columns, up to phase, and
    # reading it draws nothing.
    rng = np.random.default_rng(110 + d)
    for _ in range(20):
        s = haar_random(d, rng)
        fixed = haar_complement(haar_random(d, rng).amplitudes, d - 1, rng)
        frame = HaarFrame(d, fixed)
        while frame.measure(s, rng) != d - 1:
            pass
        v = s.amplitudes - fixed @ (fixed.conj().T @ s.amplitudes)
        before = copy.deepcopy(rng.bit_generator.state)
        column = frame.column(d - 1)
        assert rng.bit_generator.state == before
        assert abs(fidelity_sq(column, PureState(v / vector_norm(v))) - 1.0) <= 1e-12


def test_haar_frame_reads_only_measured_columns():
    rng = np.random.default_rng(120)
    frame = HaarFrame(3, np.eye(3, dtype=complex)[:, :1])
    assert fidelity_sq(frame.column(0), basis_state(3, 0)) == 1.0
    with pytest.raises(ValueError):
        frame.column(1)
    j = frame.measure(basis_state(3, 2), rng)
    assert j in (1, 2)
    with pytest.raises(ValueError):
        frame.column(3 - j)
    with pytest.raises(DimensionError):
        HaarFrame(3, np.eye(4, dtype=complex))


# ---------------------------------------------------------------------------
# operators and clamping


def test_hermitian_operator_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[math.nan, 0.0], [0.0, 1.0]]))


def test_projector_check():
    assert HermitianOperator(np.eye(3)).projective
    assert not HermitianOperator(np.diag([0.5, 0.5])).projective


def test_operator_keeps_a_real_matrix_real():
    assert HermitianOperator(np.eye(3)).matrix.dtype == np.float64
    assert sym_projector(3, 2).matrix.dtype == np.float64
    projector = HermitianOperator.from_state(basis_state(3, 1))
    assert projector.matrix.dtype == np.complex128
    assert projector.projective and not projector.matrix.flags.writeable


def test_clamp_probability():
    assert clamp_probability(1.0 + 1e-13) == 1.0
    assert clamp_probability(-1e-13) == 0.0
    assert clamp_probability(0.3) == 0.3
    with pytest.raises(ValueError):
        clamp_probability(1.1)
    with pytest.raises(ValueError):
        clamp_probability(-0.01)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            clamp_probability(bad)
