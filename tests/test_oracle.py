"""The dense oracle: every check family fails under a planted fault, and only the CLI imports it."""

import ast
from pathlib import Path

import numpy as np
import pytest

from qwitness import oracle
from qwitness.estimation import state_at_overlap
from qwitness.qudit import HermitianOperator, PureState


def real_haar(d, rng):
    x = rng.standard_normal(d)  # uniform on the real sphere, not Haar on C^d
    return PureState(x / np.linalg.norm(x))


def covariant_guess(eta, rng):
    return oracle.covariant_estimate(eta, 1, rng)  # looked up at each call, as in ``oracle.checks``


# family: (target, attribute, fault given the original, the family's check at a small size)
FAULTS = {
    "projector": (oracle, "sym_projector", lambda f: lambda n, d: HermitianOperator(1.01 * f(n, d).matrix),
                  lambda rng: oracle.check_projector_traces(3)),
    "mixed-factor": (oracle, "sym_projector", lambda f: lambda n, d: HermitianOperator(np.eye(d**n)),
                     lambda rng: oracle.check_mixed_factor("n={n} d={d}", [(1, 2), (2, 3)], rng)),
    "blind-acceptance": (oracle, "a2b_soundness", lambda f: lambda n, d: f(n, d) + 1e-9,
                         lambda rng: oracle.check_blind_acceptance(3)),
    "reject-probability": (oracle, "eps_c_b2a_exact", lambda f: lambda n, d, q: f(n, d, q) + 1e-9,
                           lambda rng: oracle.check_reject_probability(3)),
    "haar-moments": (oracle, "haar_random", lambda f: real_haar,
                     lambda rng: oracle.check_haar_moments([2, 3], 4000, rng, z=4.0)),
    "born": (oracle.HaarFrame, "measure", lambda f: lambda frame, state, rng: 0,
             lambda rng: oracle.check_born_frequencies(4, 1000, rng)),
    "estimation": (oracle, "covariant_estimate",
                   lambda f: lambda eta, m, rng: state_at_overlap(eta, rng.beta(m, eta.dim - 1), rng),
                   lambda rng: [oracle.check_estimation("law", covariant_guess, 2 / 3, 2, 2000, rng, z=4.0)]),
}


@pytest.mark.parametrize("family", FAULTS)
def test_every_check_family_fails_under_a_planted_fault(family, monkeypatch):
    target, name, fault, check = FAULTS[family]
    assert all(ok for _, ok, _ in check(np.random.default_rng(0)))
    monkeypatch.setattr(target, name, fault(getattr(target, name)))
    assert not all(ok for _, ok, _ in check(np.random.default_rng(0)))


def test_only_the_cli_imports_the_oracle():
    # The oracle checks the trial path (qudit, estimation, strategies,
    # protocols, harness, spacetime, commitment, errors), so none of it may import it.
    importers = {
        path.stem
        for path in Path(oracle.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any("oracle" in name.split(".")
                for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)])
    }
    assert importers == {"cli"}
