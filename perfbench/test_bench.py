"""Tests of the benchmark's own logic: the correctness gate, the seeded
workloads and the span arithmetic.  They start no CLI process.

    python3 -m pytest perfbench
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import gate
from run import layer_metrics
from workloads import DEFAULT_SEED, LAMBDA_C, WORKLOADS, commands

REFERENCE = Path(__file__).resolve().parent / "reference"


def _reference(workload, name):
    return (REFERENCE / workload / f"{name}.csv").read_text()


def _set_cell(text, row, column, value):
    lines = text.splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells) + "\n"
    return "".join(lines)


def _cell(text, row, column):
    lines = text.splitlines()
    return lines[row + 1].split(",")[lines[0].split(",").index(column)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_references_pass_the_gate(workload):
    for command in commands(workload, DEFAULT_SEED):
        text = _reference(workload, command.name)
        assert gate.check_csv(text, text) == []


def test_corrupted_reference_value_fails_the_gate():
    output = _reference("zero_t", "sweep_wide")
    corrupted = _set_cell(output, 3, "delta", repr(float(_cell(output, 3, "delta")) * (1 + 1e-5)))
    problems = gate.check_csv(output, corrupted)
    assert len(problems) == 1 and "delta" in problems[0]


def test_tiny_finite_t_delta_is_compared_relative():
    ref = _reference("finite_t", "sweep_finite_t")
    deltas = [float(_cell(ref, r, "delta")) for r in range(len(ref.splitlines()) - 1)]
    row = deltas.index(min(deltas))
    assert deltas[row] < 1e-20
    for factor in (2.0, 1 + 1e-5):
        assert gate.check_csv(_set_cell(ref, row, "delta", repr(deltas[row] * factor)), ref)
    assert gate.check_csv(_set_cell(ref, row, "delta", repr(deltas[row] * (1 + 1e-7))), ref) == []


def test_physical_columns_are_compared_relative():
    ref = _reference("zero_t", "sweep_wide")
    purity = float(_cell(ref, 4, "purity"))
    assert gate.check_csv(_set_cell(ref, 4, "purity", repr(purity * (1 + 1e-7))), ref) == []
    assert gate.check_csv(_set_cell(ref, 4, "purity", repr(purity * (1 + 1e-5))), ref)


def test_difference_columns_are_compared_absolute():
    ref = _reference("oracle", "oracle_thermal")
    err = float(_cell(ref, 0, "abs_error"))
    assert gate.check_csv(_set_cell(ref, 0, "abs_error", repr(err + 5e-7)), ref) == []
    assert gate.check_csv(_set_cell(ref, 0, "abs_error", repr(err + 2e-6)), ref)


def test_integer_and_text_columns_must_be_equal():
    ref = _reference("finite_t", "sweep_finite_t")
    assert gate.check_csv(_set_cell(ref, 0, "n_atoms", "101"), ref)
    assert gate.check_csv(_set_cell(ref, 0, "phase", "superradiant"), ref)


def test_invariants_hold_on_any_seed():
    ref = _reference("zero_t", "sweep_wide")
    assert gate.check_csv(_set_cell(ref, 0, "delta", "1.5"), ref, compare_values=False)
    assert gate.check_csv(_set_cell(ref, 0, "purity", "0"), ref, compare_values=False)
    ground = _reference("oracle", "oracle_ground_superradiant")
    assert gate.check_csv(_set_cell(ground, 0, "rel_error", "0.2"), ground, compare_values=False)
    thermal = _reference("oracle", "oracle_thermal")
    bad = _set_cell(thermal, 0, "max_moment_error", "0.03")
    assert gate.check_csv(bad, thermal, compare_values=False)
    # another seed moves the values but not the shape
    assert gate.check_csv(_set_cell(ref, 0, "delta", "0.5"), ref, compare_values=False) == []


def test_shape_changes_fail():
    ref = _reference("zero_t", "sweep_wide")
    assert gate.check_csv("".join(ref.splitlines(keepends=True)[:-1]), ref)
    assert gate.check_csv(ref.replace("purity", "purity2", 1), ref)
    assert gate.check_csv("", ref)


def _coupling_grid(command):
    sets = dict(item.split("=") for item in command.sets())
    return np.linspace(float(sets["grid.lambda_min"]), float(sets["grid.lambda_max"]),
                       int(sets["grid.lambda_steps"]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeded_commands_are_deterministic_and_off_critical(workload):
    nominal = commands(workload, DEFAULT_SEED)
    for seed in range(200):
        jittered = commands(workload, seed)
        assert jittered == commands(workload, seed)
        assert [c.name for c in jittered] == [c.name for c in nominal]
        for command in jittered:
            # every coupling the CLI computes, as its linspace spaces them
            rel = np.abs(_coupling_grid(command) / LAMBDA_C - 1)
            if command.name == "sweep_critical":
                assert np.all((rel >= 2e-4) & (rel <= 2e-3))
            else:
                assert np.all(rel >= 0.03)
    assert commands(workload, 1) != nominal


def test_layer_metrics_self_time_and_attribution():
    ms = 1_000_000
    spans = [
        {"name": "cli.main", "parent": None, "point": None, "start_ns": 0, "end_ns": 100 * ms},
        {"name": "cli._zero_t_row", "parent": 0, "point": "p#0", "start_ns": 0, "end_ns": 50 * ms},
        {"name": "zerotemp.effective_ground_state", "parent": 1, "point": "p#0",
         "start_ns": 0, "end_ns": 30 * ms},
        {"name": "zerotemp.overlap_zero_t", "parent": 1, "point": "p#0",
         "start_ns": 30 * ms, "end_ns": 45 * ms},
    ]
    trace = {"spans": spans, "solves": [(400, True), (100, False)], "physical_dims": [7, 9],
             "dense_dims": [10], "log_integral_evals": []}
    metrics, detail = layer_metrics([trace], {"serial_wall_s": 2.0, "wall_s": 1.0}, 2.5)
    assert metrics["cli.rows"] == 1
    assert metrics["cli.row_self_ms"] == pytest.approx(5.0)
    assert metrics["cli.attributed_frac"] == pytest.approx(0.9)
    assert metrics["zerotemp.ground_state_ms"] == pytest.approx(30.0)
    assert metrics["zerotemp.escalated_frac"] == 0.5
    assert metrics["zerotemp.solved_dim"] == 500
    assert metrics["zerotemp.physical_dim_max"] == 9
    assert metrics["oracle.dense_bytes"] == 800
    assert metrics["cli.parallel_speedup"] == 2.0
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert detail["layer_share"] == {"zerotemp": 1.0}
    assert detail["rows"] == [
        {"point": "p#0", "worker": "cli._zero_t_row", "ms": 50.0, "self_ms": 5.0}
    ]
