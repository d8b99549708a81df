"""The table of statistical gates: each row passes, each can fail, no two share a cell or a stream.

A folded row passes while its cell's row gates its figure no looser. Run
with ``-s`` to see one verdict line per row and per fold.
"""

import ast
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gates
from qwitness.harness import BoundKind, trial_rng


def _failing_targets(figure, stats):
    """Targets 10 standard errors (at least 1e-6) past the estimate, on the failing side."""
    offset = max(10 * gates.standard_error(figure, stats), 1e-6)
    below, above = stats.estimate - offset, stats.estimate + offset
    return {
        BoundKind.EXACT: (below, above),
        BoundKind.UPPER: (below,),
        BoundKind.LOWER: (above,),
    }[figure.kind]


@pytest.mark.parametrize("row", gates.ROWS + gates.FOLDS, ids=lambda row: row.id)
def test_gate(row):
    if isinstance(row, gates.Fold):
        assert gates.covered(row)
        # It fails once it asks for a tighter figure, or for another target.
        tighter = replace(row.spec, n_trials=10**9)
        assert not gates.covered(replace(row, spec=tighter))
        assert not gates.covered(replace(row, figure=replace(row.figure, target=-1.0)))
        return
    assert gates.check(row)
    # Every figure fails once its target sits past the row's own estimate,
    # read off the same trials, so a gate wired with the wrong z, kind or
    # standard error cannot pass whatever the run gives.
    stats = gates.stats(row.id)
    for figure in row.figures:
        got = stats[row.metric(figure)]
        for target in _failing_targets(figure, got):
            assert not gates.passes(replace(figure, target=target), got), (figure, target)


def test_rows_have_distinct_ids_and_streams():
    ids = [row.id for row in gates.ROWS + gates.FOLDS]
    assert len(set(ids)) == len(ids)
    at_zero = Counter(gates.seed(row) for row in gates.ROWS)
    assert [seed for seed, count in at_zero.items() if count > 1] == []
    shifted = Counter(gates.seed(row, k) for row in gates.ROWS for k in range(6))
    assert [seed for seed, count in shifted.items() if count > 1] == []


def test_rows_have_distinct_cells_and_figures():
    # A second row of one cell would re-run trials that the first already
    # runs; every metric of a cell is a figure of its one row.
    cells = Counter(gates.cell(row.spec) for row in gates.ROWS)
    assert [cell for cell, count in cells.items() if count > 1] == []
    for row in gates.ROWS:
        figures = [(row.metric(f), f.kind, f.target) for f in row.figures]
        assert len(set(figures)) == len(figures), row.id


def test_streams_are_keyed_by_the_integer_seed():
    # A master's first trial draws default_rng(master)'s stream, so rows are
    # told apart by their integers, and a shift moves each past every master.
    assert np.array_equal(trial_rng(92, 0).random(8), np.random.default_rng(92).random(8))
    assert all(row.spec.master_seed < gates.MASTER_SHIFT for row in gates.ROWS)
    row = gates.ROWS[0]
    assert gates.seed(row, 3) == row.spec.master_seed + 3 * gates.MASTER_SHIFT


def test_gates_has_one_runner():
    # Every row runs through harness.run_trial; a second runner on its own
    # generator would draw streams simulate never draws.
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(ast.parse(Path(gates.__file__).read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
    }
    assert called & {"default_rng", "run_protocol"} == set()
    assert "run_trial" in called


def test_every_target_cell_is_a_row():
    assert sum(row.id.startswith("harness/target-") for row in gates.ROWS) == 25


def test_only_gates_defines_a_standard_error():
    # Hand-rolled gates carry their own standard-error helper; the table
    # keeps the one.
    pattern = re.compile(r"(^|_)(se|std_?err|standard_error)$|^bernoulli")
    defined = [
        (path.name, node.name)
        for path in sorted(Path(__file__).parent.glob("*.py"))
        if path.name != "gates.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("test_")
        and pattern.search(node.name)
    ]
    assert defined == []
