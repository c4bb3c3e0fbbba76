import concurrent.futures
import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dicke_overlap
from dicke_overlap import cli, numerics, oracle, thermal, witness, zerotemp
from dicke_overlap.core import ModelParams
from dicke_overlap.errors import ConfigError


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env():
    """The environment with the tested package first on PYTHONPATH, installed or not.

    BLAS thread settings are dropped, so a child sees the CLI's own default
    and not what this process or the calling shell holds.
    """
    package_root = str(Path(dicke_overlap.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    return {**env, "PYTHONPATH": package_root + (os.pathsep + rest if rest else "")}


def run_python(script, *args, env=None):
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=env or _child_env(),
        timeout=400,
    )


def run_reporting_pool(args, force_pool=False):
    """Run the CLI in a child whose last stdout line says whether a process pool started.

    ``force_pool`` takes the pool's start-up cost as zero.
    """
    return run_python(
        "import sys\n"
        "from dicke_overlap import cli\n"
        + ("cli._POOL_START_S = 0.0\n" if force_pool else "")
        + "assert cli.main(sys.argv[1:]) == 0\n"
        "print('concurrent.futures.process' in sys.modules)\n",
        *args,
    )


def run_cli(args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "dicke_overlap.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=_child_env(),
        timeout=400,
    )


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_config_parsing_and_overrides(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(
        "# comment line\n"
        "model.omega = 1.0\n"
        "grid.lambda_min = 0.1  # trailing comment\n"
        "grid.lambda_steps = 4\n"
    )
    cfg = cli.build_config(str(config), overrides=["grid.lambda_steps=6"])
    assert cfg["grid.lambda_min"] == 0.1
    assert cfg["grid.lambda_steps"] == 6  # command line wins


def test_config_rejects_unknown_key(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("model.nonsense = 3\n")
    with pytest.raises(ConfigError) as err:
        cli.build_config(str(config))
    assert err.value.field == "model.nonsense"
    assert err.value.line == 1


def test_config_rejects_bad_value(tmp_path, capsys):
    with pytest.raises(ConfigError):
        cli.build_config(None, overrides=["grid.lambda_steps=three"])
    # a switch reads 1/true/yes and 0/false/no in any case, and nothing else
    for value, expected in [("1", True), ("TRUE", True), ("Yes", True),
                            ("0", False), ("false", False), ("NO", False)]:
        cfg = cli.build_config(None, overrides=[f"witness.finite_n={value}"])
        assert cfg["witness.finite_n"] is expected
    for value in ("on", "2", "off", ""):
        with pytest.raises(ConfigError) as err:
            cli.build_config(None, overrides=[f"witness.finite_n={value}"])
        assert err.value.field == "witness.finite_n"
    out = tmp_path / "never.csv"
    assert cli.main(["witness", "--set", "witness.finite_n=on", "--out", str(out)]) == 2
    assert "kind=ConfigError field=witness.finite_n" in capsys.readouterr().err
    assert not out.exists()


_ONE_POINT = ["--set", "grid.lambda_steps=1", "--set", "grid.t_steps=1"]


def test_empty_grid_rejected(tmp_path, capsys):
    # only the commands that sweep a grid need one: the lambda x T commands
    # at least two points on one axis, sweep-zero-t at least two couplings
    cli.build_config(None, overrides=["grid.lambda_steps=1", "grid.t_steps=1"])
    out = tmp_path / "never.csv"
    empty = "empty grid: at least one swept axis needs steps >= 2"
    for args, message in [
        (["sweep-finite-t"], empty),
        (["witness", "--set", "witness.mode=finite_t"], empty),
        (["sweep-zero-t"], "sweep-zero-t needs grid.lambda_steps >= 2"),
    ]:
        assert cli.main([*args, *_ONE_POINT, "--out", str(out), "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert f"kind=ConfigError field=grid.lambda_steps message={message}" in err
        assert not out.exists()


def test_single_point_commands_run(tmp_path):
    # commands without a swept grid run on one coupling; scaling-fit reads no grid key
    runs = [
        (["oracle-compare", "--set", "model.n_atoms=4", "--set", "grid.lambda_min=0.3",
          "--set", "grid.lambda_max=0.3"], 1),
        (["critical"], 1),
        (["witness", "--set", "witness.mode=zero_t"], 1),
        (["scaling-fit", "--set", "scaling.points=4"], 8),
    ]
    for i, (args, n_rows) in enumerate(runs):
        out = tmp_path / f"run{i}.csv"
        assert cli.main([*args, *_ONE_POINT, "--out", str(out), "--threads", "1"]) == 0, args
        assert len(read_rows(out)) == n_rows


@pytest.mark.parametrize("key", ["numerics.threads", "output.csv"])
def test_flag_only_settings_are_not_keys(tmp_path, capsys, key):
    # the worker cap and the output path are set by --threads and --out alone
    out = tmp_path / "never.csv"
    assert cli.main(["critical", "--set", f"{key}=2", "--out", str(out)]) == 2
    assert f"kind=ConfigError field={key} message=--set: unknown key" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError, match="unknown key"):
        cli.parse_config_text(f"{key} = 2\n")


@pytest.mark.parametrize("key", ["numerics.cutoff_photon", "numerics.cutoff_atom"])
def test_cutoff_keys_rejected(key):
    # the zero-T backend is exact, so there is no cutoff to configure
    with pytest.raises(ConfigError) as err:
        cli.build_config(None, overrides=[f"{key}=40"])
    assert err.value.field == key
    with pytest.raises(ConfigError):
        cli.build_config(None, overrides=["numerics.cutoff_photon=40", "numerics.cutoff_atom=50"])


def test_lone_cutoff_exits_with_config_error(tmp_path):
    out = tmp_path / "witness.csv"
    result = run_cli(
        ["witness", "--set", "numerics.cutoff_photon=40", "--out", str(out), "--threads", "1"]
    )
    assert result.returncode == 2
    assert "kind=ConfigError field=numerics.cutoff_photon" in result.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "args, field",
    [
        (["sweep-finite-t", "--set", "grid.t_min=0", "--set", "grid.t_steps=2",
          "--set", "grid.lambda_steps=1"], "grid.t_min"),
        (["witness", "--set", "witness.mode=finite_t", "--set", "grid.t_min=0",
          "--set", "grid.t_steps=2", "--set", "grid.lambda_steps=1"], "grid.t_min"),
        (["scaling-fit", "--set", "scaling.t_min=0"], "scaling.t_min"),
        (["scaling-fit", "--set", "scaling.t_min=-1e-3"], "scaling.t_min"),
    ],
    ids=["sweep-finite-t", "witness-finite_t", "scaling-fit-zero", "scaling-fit-negative"],
)
def test_nonpositive_temperature_bound_exits_with_config_error(tmp_path, args, field):
    out = tmp_path / "out.csv"
    result = run_cli([*args, "--out", str(out), "--threads", "1"])
    assert result.returncode == 2, result.stderr
    assert f"kind=ConfigError field={field}" in result.stderr
    assert not out.exists()


def test_critical_command_values(tmp_path):
    out = tmp_path / "critical.csv"
    result = run_cli(
        [
            "critical",
            "--set", "grid.lambda_min=0.5",
            "--set", "grid.lambda_max=1.0",
            "--set", "grid.lambda_steps=2",
            "--out", str(out),
        ]
    )
    assert result.returncode == 0, result.stderr
    rows = read_rows(out)
    assert float(rows[0]["lambda_c"]) == 0.5
    assert abs(float(rows[1]["tc_self_consistent"]) - 2.0) < 1e-9
    assert abs(float(rows[1]["tc_resonant_line"]) - 2.0) < 1e-12


@pytest.mark.parametrize("command", ["critical", "sweep-finite-t"])
def test_strong_coupling_has_a_finite_critical_temperature(tmp_path, command):
    # T_c = 2 lambda^2 / omega0 = 2e6 at resonance, so T = 1 is superradiant
    out = tmp_path / "strong.csv"
    result = run_cli([
        command, "--set", "grid.lambda_min=1000", "--set", "grid.lambda_max=1000",
        "--set", "grid.lambda_steps=1", "--set", "grid.t_min=1", "--set", "grid.t_max=2",
        "--set", "grid.t_steps=2", "--set", "model.n_atoms=10", "--out", str(out),
    ])
    assert result.returncode == 0, result.stderr
    rows = read_rows(out)
    assert rows and all(float(row["tc_self_consistent"]) == 2e6 for row in rows)
    if command == "sweep-finite-t":
        assert [row["phase"] for row in rows] == ["superradiant"] * 2


@pytest.mark.parametrize("command", ["critical", "sweep-finite-t"])
def test_tiny_couplings_give_no_critical_temperature(tmp_path, command):
    out = tmp_path / "tiny.csv"
    result = run_cli([
        command, "--set", "grid.lambda_min=1e-200", "--set", "grid.lambda_max=1e-199",
        "--set", "grid.lambda_steps=2", "--set", "grid.t_steps=1", "--out", str(out),
    ])
    assert result.returncode == 0, result.stderr
    rows = read_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert math.isnan(float(row["tc_self_consistent"]))
        if command == "critical":
            assert math.isnan(float(row["tc_tanh_form"]))


def test_sweep_zero_t_endpoint_and_schema(tmp_path):
    out = tmp_path / "zero.csv"
    result = run_cli(
        [
            "sweep-zero-t",
            "--set", "grid.lambda_min=0.0",
            "--set", "grid.lambda_max=0.4",
            "--set", "grid.lambda_steps=3",
            "--set", "model.n_atoms=12",
            "--out", str(out),
            "--threads", "1",
        ]
    )
    assert result.returncode == 0, result.stderr
    rows = read_rows(out)
    assert [r["lambda"] for r in rows] == ["0", "0.2", "0.4"]
    assert abs(float(rows[0]["delta"]) - 1.0) < 1e-8
    assert rows[0]["phase"] == "normal"
    assert set(rows[0]) == {
        "lambda", "n_atoms", "temperature", "phase", "a", "jz_per_atom", "delta", "purity",
    }


_WITNESS_LABELS = ["b"] + [
    f"{kind}_{axes}"
    for kind in ("c", "d")
    for axes in ("x_y_z", "x_z_y", "y_x_z", "y_z_x", "z_x_y", "z_y_x")
]
_WITNESS_HEADER = (
    ["lambda", "temperature", "n_atoms"]
    + [f"lhs_{x}" for x in _WITNESS_LABELS]
    + [f"violated_{x}" for x in _WITNESS_LABELS]
    + ["any_violation"]
)
_TWO_COUPLINGS = {"grid.lambda_min": 0.3, "grid.lambda_max": 0.9, "grid.lambda_steps": 2}
# four rows: the first two run in the parent, two workers share the rest
_FOUR_COUPLINGS = {"grid.lambda_min": 0.2, "grid.lambda_max": 0.8, "grid.lambda_steps": 4}
_TWO_TEMPERATURES = {"grid.t_min": 0.5, "grid.t_max": 1.5, "grid.t_steps": 2}


@pytest.mark.parametrize(
    "command, sets, header",
    [
        pytest.param(
            "sweep-zero-t",
            {"grid.lambda_min": 0.2, "grid.lambda_max": 0.8, "grid.lambda_steps": 4,
             "model.n_atoms": 10},
            ["lambda", "n_atoms", "temperature", "phase", "a", "jz_per_atom", "delta", "purity"],
            id="sweep-zero-t",
        ),
        pytest.param(
            "sweep-finite-t",
            {**_TWO_COUPLINGS, **_TWO_TEMPERATURES, "model.n_atoms": 10},
            ["lambda", "temperature", "n_atoms", "phase", "a", "jz_per_atom", "delta",
             "tc_self_consistent", "tc_resonant_line", "validity_warning"],
            id="sweep-finite-t",
        ),
        pytest.param(
            "witness",
            {**_FOUR_COUPLINGS, "witness.mode": "zero_t", "model.n_atoms": 10},
            _WITNESS_HEADER,
            id="witness-zero_t",
        ),
        pytest.param(
            "witness",
            {**_TWO_COUPLINGS, **_TWO_TEMPERATURES, "witness.mode": "finite_t",
             "model.n_atoms": 10},
            _WITNESS_HEADER,
            id="witness-finite_t",
        ),
        pytest.param(
            "oracle-compare",
            {**_FOUR_COUPLINGS, "oracle.mode": "ground", "model.n_atoms": 10},
            ["lambda", "n_atoms", "cutoff", "delta_effective", "delta_oracle", "abs_error",
             "rel_error", "jz_effective", "jz_oracle"],
            id="oracle-compare-ground",
        ),
        pytest.param(
            "oracle-compare",
            {"oracle.mode": "thermal", "model.n_atoms": 2, "grid.lambda_min": 1.0,
             "grid.lambda_max": 1.0, "grid.lambda_steps": 1, "grid.beta_list": "0.1,0.2,0.4,0.8"},
            ["lambda", "beta", "n_atoms", "cutoff", "delta_quadrature", "delta_oracle",
             "delta_split", "abs_error", "rel_error", "jz_quadrature", "jz_oracle",
             "max_moment_error"],
            id="oracle-compare-thermal",
        ),
        pytest.param(
            "critical",
            _TWO_COUPLINGS,
            ["lambda", "lambda_c", "tc_self_consistent", "tc_resonant_line", "tc_tanh_form"],
            id="critical",
        ),
        pytest.param(
            "scaling-fit",
            {"scaling.points": 4},
            ["pipeline", "lambda", "t", "delta", "neg_log_t", "neg_log_delta", "residual"],
            id="scaling-fit",
        ),
    ],
)
def test_pooled_command_csv_contract(tmp_path, command, sets, header):
    """Serial and pooled runs write the same bytes under the pinned header."""
    args = [command]
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    serial, pooled = tmp_path / "a.csv", tmp_path / "b.csv"
    result = run_cli([*args, "--out", str(serial), "--threads", "1"])
    assert result.returncode == 0, result.stderr
    # rows this cheap run serially at any --threads; a free pool start makes
    # every sweep command cross the pool
    result = run_reporting_pool([*args, "--out", str(pooled), "--threads", "2"], force_pool=True)
    assert result.returncode == 0, result.stderr
    sweeps = command not in ("critical", "scaling-fit")
    assert result.stdout.splitlines()[-1] == str(sweeps and (os.cpu_count() or 1) > 1)
    assert serial.read_bytes() == pooled.read_bytes()
    assert serial.read_text().splitlines()[0].split(",") == header


def test_cheap_sweep_runs_without_a_pool(tmp_path):
    result = run_reporting_pool(
        ["sweep-zero-t", "--set", "grid.lambda_steps=5", "--out", str(tmp_path / "z.csv"),
         "--threads", "2"]
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
    assert len(read_rows(tmp_path / "z.csv")) == 5


@pytest.mark.parametrize(
    "first_row_s, rows, workers, pays",
    [
        (1.3e-3, 175, 2, False),  # the finite-T benchmark sweeps: 175 rows after 1.3 ms
        (1.9e-3, 175, 2, False),
        (0.3e-3, 4, 2, False),  # a cheap zero-T sweep
        (0.01, 100, 2, True),
        (0.01, 100, 1, False),  # one worker is no pool
        (0.01, 100, 0, False),
        (2.5e-3, 175, 2, True),
        (2.5e-3, 175, 4, True),
        (1.0e-3, 175, 4, True),  # four workers pay sooner than two
    ],
)
def test_pool_decision(first_row_s, rows, workers, pays):
    assert cli._pool_pays(first_row_s, rows, workers) is pays


def test_pool_decision_without_start_cost(monkeypatch):
    # a free pool start still pays for the fork and for shared cores, but
    # any row time then crosses the pool, at two workers and more
    monkeypatch.setattr(cli, "_POOL_START_S", 0.0)
    for workers in (2, 3, 8):
        assert cli._pool_pays(1e-6, 2, workers)
    assert not cli._pool_pays(1e-6, 2, 1)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records that a pool started, runs the rows here."""

    started = 0

    def __init__(self, max_workers):
        type(self).started += 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize("slow_calls, pooled", [(1, False), (2, True)])
def test_sweep_decides_on_the_faster_of_two_rows(tmp_path, monkeypatch, slow_calls, pooled):
    # 0.05 s a row would pay for the pool over 100 rows; one slow first
    # call among fast ones must not start it, two slow calls do
    calls = []

    def worker(task):
        calls.append(task)
        if len(calls) <= slow_calls:
            time.sleep(0.05)
        return {"task": task}

    monkeypatch.setattr(_RecordingPool, "started", 0)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    cfg = {"threads": 2, "out": str(tmp_path / "rows.csv"), "output.precision": 6}
    cli._sweep(cfg, worker, list(range(102)))
    assert _RecordingPool.started == int(pooled)
    assert calls == list(range(102))
    assert [row["task"] for row in read_rows(tmp_path / "rows.csv")] == [str(t) for t in range(102)]


def test_sweep_finite_t_validity_flag(tmp_path):
    out = tmp_path / "finite.csv"
    result = run_cli(
        [
            "sweep-finite-t",
            "--set", "grid.lambda_min=0.8",
            "--set", "grid.lambda_max=0.8",
            "--set", "grid.lambda_steps=1",
            "--set", "grid.t_min=0.05",
            "--set", "grid.t_max=1.05",
            "--set", "grid.t_steps=2",
            "--set", "model.n_atoms=10",
            "--out", str(out),
            "--threads", "1",
        ]
    )
    assert result.returncode == 0, result.stderr
    rows = read_rows(out)
    assert rows[0]["validity_warning"] == "1"  # T = 0.05 below the documented range
    assert rows[1]["validity_warning"] == "0"
    assert abs(float(rows[0]["tc_resonant_line"]) - 2 * 0.8**2) < 1e-12
    deltas = [float(r["delta"]) for r in rows]
    assert all(0.0 <= d <= 1.0 for d in deltas)


def test_witness_command_zero_t(tmp_path):
    out = tmp_path / "witness.csv"
    result = run_cli(
        [
            "witness",
            "--set", "witness.mode=zero_t",
            "--set", "grid.lambda_min=0.0",
            "--set", "grid.lambda_max=0.9",
            "--set", "grid.lambda_steps=4",
            "--set", "model.n_atoms=100",
            "--out", str(out),
            "--threads", "1",
        ]
    )
    assert result.returncode == 0, result.stderr
    rows = read_rows(out)
    assert len(rows) == 4
    # 1 + 6 + 6 lhs columns, same again for flags, plus the summary column
    lhs_cols = [c for c in rows[0] if c.startswith("lhs_")]
    flag_cols = [c for c in rows[0] if c.startswith("violated_")]
    assert len(lhs_cols) == 13 and len(flag_cols) == 13
    # decoupled row sits exactly on the coherent-state boundary of (b)
    assert abs(float(rows[0]["lhs_b"])) < 1e-9
    assert any(r["any_violation"] == "1" for r in rows)


@pytest.mark.parametrize("command", [
    ["sweep-zero-t", "--set", "model.n_atoms=100,300"],
    ["witness", "--set", "witness.mode=zero_t", "--set", "model.n_atoms=100"],
])
def test_zero_t_commands_are_invariant_under_power_of_two_scaling(tmp_path, command):
    # omega, omega0 and the lambda grid all scaled by 2^260: the model
    # depends on their ratios alone, so every column but lambda is the same bytes
    scale = 2.0**260
    outputs = []
    for factor in (1.0, scale):
        out = tmp_path / f"{factor!r}.csv"
        sets = {"model.omega": factor, "model.omega0": factor, "grid.lambda_max": 1.5 * factor}
        args = [f"{key}={value!r}" for key, value in sets.items()]
        assert cli.main([*command, *[a for s in args for a in ("--set", s)],
                         "--out", str(out), "--threads", "1"]) == 0
        outputs.append([line.split(",", 1)[1] for line in out.read_text().splitlines()])
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) > 32


def test_witness_command_finite_t_no_violations(tmp_path):
    out = tmp_path / "witness_t.csv"
    result = run_cli(
        [
            "witness",
            "--set", "witness.mode=finite_t",
            "--set", "grid.lambda_min=0.4",
            "--set", "grid.lambda_max=1.2",
            "--set", "grid.lambda_steps=3",
            "--set", "grid.t_min=0.5",
            "--set", "grid.t_max=2.5",
            "--set", "grid.t_steps=3",
            "--set", "model.n_atoms=100",
            "--out", str(out),
            "--threads", "1",
        ]
    )
    assert result.returncode == 0, result.stderr
    rows = read_rows(out)
    assert len(rows) == 9
    assert all(r["any_violation"] == "0" for r in rows)


def test_witness_command_finite_t_at_a_million_atoms(tmp_path):
    # the weight's peaks lie near x = 15,000 at T = 0.1: the scan's
    # spacing grows with its span, as the span needs
    out = tmp_path / "witness_big.csv"
    result = run_cli(
        [
            "witness",
            "--set", "witness.mode=finite_t",
            "--set", "grid.lambda_min=0.5",
            "--set", "grid.lambda_max=1.5",
            "--set", "grid.lambda_steps=3",
            "--set", "grid.t_min=0.1",
            "--set", "grid.t_max=3.0",
            "--set", "grid.t_steps=2",
            "--set", "model.n_atoms=1000000",
            "--out", str(out),
            "--threads", "1",
        ]
    )
    assert result.returncode == 0, result.stderr
    assert len(read_rows(out)) == 6


@pytest.mark.parametrize(
    "sets",
    [{"witness.mode": "zero_t", **_TWO_COUPLINGS},
     {"witness.mode": "finite_t", **_TWO_COUPLINGS, **_TWO_TEMPERATURES}],
    ids=["zero_t", "finite_t"],
)
def test_witness_finite_n_columns(tmp_path, sets):
    # the finite-N forms fill the same columns, from the same moments
    args = ["witness", "--set", "model.n_atoms=10", "--threads", "1"]
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    large, finite = tmp_path / "large.csv", tmp_path / "finite.csv"
    assert cli.main([*args, "--out", str(large)]) == 0
    assert cli.main([*args, "--set", "witness.finite_n=1", "--out", str(finite)]) == 0
    assert finite.read_text().splitlines()[0] == large.read_text().splitlines()[0]
    rows = read_rows(finite)
    assert rows != read_rows(large)
    row = rows[-1]
    params = ModelParams(1.0, 1.0, float(row["lambda"]), 10)
    temp = float(row["temperature"])
    if temp == 0.0:
        moments = zerotemp.collective_moments_zero_t(zerotemp.gaussian_ground_state(params))
    else:
        quad = numerics.QuadratureSpec(*cli._quad_args(cli.build_config(None)))
        moments = thermal.thermal_moments(thermal.ThermalPoint(params, 1.0 / temp), quad)
    report = witness.evaluate_finite_n(moments)
    assert {f"lhs_{e.name}": cli._format(e.lhs, 12) for e in report.entries} == {
        k: v for k, v in row.items() if k.startswith("lhs_")
    }


def test_output_precision(tmp_path):
    args = ["sweep-zero-t", "--set", "model.n_atoms=10", "--set", "grid.lambda_min=0.2",
            "--set", "grid.lambda_max=0.8", "--set", "grid.lambda_steps=4", "--threads", "1"]
    full = tmp_path / "full.csv"
    assert run_cli([*args, "--out", str(full)]).returncode == 0
    short = []
    for i in range(2):
        short.append(tmp_path / f"short{i}.csv")
        result = run_cli([*args, "--set", "output.precision=6", "--out", str(short[i])])
        assert result.returncode == 0, result.stderr
    assert short[0].read_bytes() == short[1].read_bytes()
    rounded = 0
    for row6, row12 in zip(read_rows(short[0]), read_rows(full), strict=True):
        for cell6, cell12 in zip(row6.values(), row12.values(), strict=True):
            if cell12 in ("normal", "superradiant"):
                assert cell6 == cell12
                continue
            digits = cell6.lower().split("e")[0].lstrip("-").replace(".", "").lstrip("0")
            assert len(digits) <= 6, cell6
            assert float(cell6) == float("%.6g" % float(cell12))
            rounded += cell6 != cell12
    assert rounded > 0


def test_oracle_compare_thermal_error_ordering(tmp_path):
    out = tmp_path / "oracle.csv"
    result = run_cli(
        [
            "oracle-compare",
            "--set", "oracle.mode=thermal",
            "--set", "oracle.cutoff=60",
            "--set", "model.n_atoms=4",
            "--set", "grid.lambda_min=1.0",
            "--set", "grid.lambda_max=1.0",
            "--set", "grid.lambda_steps=1",
            "--set", "grid.beta_list=0.1,0.2,0.4",
            "--out", str(out),
            "--threads", "1",
        ]
    )
    assert result.returncode == 0, result.stderr
    rows = read_rows(out)
    errors = [float(r["rel_error"]) for r in rows]
    assert errors[0] < errors[1] < errors[2]
    assert all(float(r["max_moment_error"]) < 0.02 for r in rows)


def test_oracle_compare_ground_mode(tmp_path):
    out = tmp_path / "ground.csv"
    result = run_cli(
        [
            "oracle-compare",
            "--set", "oracle.mode=ground",
            "--set", "oracle.cutoff=40",
            "--set", "model.n_atoms=10",
            "--set", "grid.lambda_min=0.3",
            "--set", "grid.lambda_max=0.9",
            "--set", "grid.lambda_steps=2",
            "--out", str(out),
            "--threads", "1",
        ]
    )
    assert result.returncode == 0, result.stderr
    rows = read_rows(out)
    assert len(rows) == 2
    for row in rows:
        assert 0.0 <= float(row["rel_error"]) < 0.2
        assert 0.0 <= float(row["delta_oracle"]) <= 1.0


def test_oracle_compare_capacity_error(tmp_path):
    # at the default cutoff 40 the bands and dense blocks a thermal sweep holds
    # at N = 150 need 2.2 GiB together, though the largest block alone needs 0.27
    out = tmp_path / "never.csv"
    result = run_cli(
        [
            "oracle-compare",
            "--set", "oracle.mode=thermal",
            "--set", "model.n_atoms=150",
            "--out", str(out),
        ]
    )
    assert result.returncode != 0
    assert "error:" in result.stderr
    assert "CapacityError" in result.stderr
    assert not out.exists()  # no partial output


def test_oracle_compare_thermal_keeps_one_coupling_cached(tmp_path):
    # rows run coupling-major: the later beta rows of a coupling reuse its
    # one set of block eigensystems, and no later coupling reads it; each
    # build drops the set before it and zeroes the counters, so they count
    # the last coupling alone: its two later beta rows hit
    oracle._block_eigensystems.cache_clear()
    code = cli.main(
        ["oracle-compare", "--set", "oracle.mode=thermal", "--set", "model.n_atoms=4",
         "--set", "oracle.cutoff=6", "--set", "grid.lambda_min=0.7",
         "--set", "grid.lambda_max=1.1", "--set", "grid.lambda_steps=3",
         "--set", "grid.beta_list=0.2,0.3,0.4", "--out", str(tmp_path / "out.csv"),
         "--threads", "1"]
    )
    assert code == 0
    info = oracle._block_eigensystems.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 2, 0)


def test_oracle_compare_checks_convergence_basis_up_front(tmp_path, capsys):
    # cutoff 30,000 at N = 100 fits the ground-state bound (1.4 GiB), but the
    # convergence gate's cutoff 45,000 does not (2.2 GiB): the command fails
    # before any diagonalization
    out = tmp_path / "never.csv"
    start = time.perf_counter()
    code = cli.main(
        ["oracle-compare", "--set", "oracle.mode=ground", "--set", "oracle.cutoff=30000",
         "--set", "model.n_atoms=100", "--out", str(out), "--threads", "1"]
    )
    assert code == 2
    assert "kind=CapacityError" in capsys.readouterr().err
    assert not out.exists()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "command", ["sweep-finite-t", "witness", "oracle-compare", "scaling-fit", "critical"]
)
def test_single_n_commands_reject_an_atom_count_list(tmp_path, capsys, command):
    # only sweep-zero-t sweeps a list of N; the others used to take its first entry
    out = tmp_path / "never.csv"
    code = cli.main(
        [command, "--set", "model.n_atoms=10,30", "--set", "grid.lambda_steps=1",
         "--set", "grid.t_steps=2", "--out", str(out), "--threads", "1"]
    )
    assert code == 2
    assert "kind=ConfigError field=model.n_atoms" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_finite_t_underflow_fails_without_output(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = cli.main(
        ["sweep-finite-t", "--set", "model.n_atoms=2000", "--set", "grid.lambda_min=1.0",
         "--set", "grid.lambda_max=1.0", "--set", "grid.lambda_steps=1",
         "--set", "grid.t_min=0.2", "--set", "grid.t_max=0.3", "--set", "grid.t_steps=2",
         "--out", str(out), "--threads", "1"]
    )
    assert code == 2
    assert "kind=NumericalError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "row, task",
    [
        (cli._zero_t_row, (1.0, 1.0, 0.8, 10)),
        (cli._finite_t_row, (1.0, 1.0, 0.8, 0.7, 10, (200_000, 1e-9))),
        (cli._witness_row, (1.0, 1.0, 0.8, 0.0, 10, False, (200_000, 1e-9))),
        (cli._witness_row, (1.0, 1.0, 0.8, 0.7, 10, True, (200_000, 1e-9))),
        (cli._oracle_ground_row, (1.0, 1.0, 0.8, 4, 20)),
        (cli._oracle_thermal_row, (1.0, 1.0, 1.0, 0.2, 2, 40, (200_000, 1e-9))),
    ],
    ids=["zero_t", "finite_t", "witness_zero_t", "witness_finite_t", "oracle_ground",
         "oracle_thermal"],
)
def test_row_cells_are_builtins(row, task):
    # _format writes bools, ints, floats, strings and None: no numpy scalar reaches it
    assert {type(cell) for cell in row(task).values()} <= {bool, int, float, str, type(None)}


@pytest.mark.parametrize(
    "row, task",
    [
        (cli._finite_t_row, (1.0, 1.0, 0.8, 0.7, 10, (200_000, 1e-9))),
        (cli._oracle_thermal_row, (1.0, 1.0, 1.0, 0.2, 2, 40, (200_000, 1e-9))),
    ],
    ids=["finite_t", "oracle_thermal"],
)
def test_thermal_row_runs_two_quadratures(monkeypatch, row, task):
    # one integral of the partition weight, one of the overlap numerator:
    # sweep-finite-t integrates its grid before its rows, which only read
    # it, and the oracle's thermal row integrates its own point
    scans = []
    scan = numerics._scan

    def counting_scan(*args, **kwargs):
        scans.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(numerics, "_scan", counting_scan)
    if row is cli._finite_t_row:
        cli._precompute_thermal([task], overlap=True)
        assert len(scans) == 2
    row(task)
    assert len(scans) == 2


@pytest.mark.parametrize(
    "args, row_name, points, per_point, in_row",
    [
        (["sweep-finite-t", "--set", "model.n_atoms=10"], "_finite_t_row", 20, 2, 0),
        (["witness", "--set", "witness.mode=finite_t", "--set", "model.n_atoms=10"],
         "_witness_row", 20, 1, 0),
        (["oracle-compare", "--set", "oracle.mode=thermal", "--set", "model.n_atoms=2",
          "--set", "oracle.cutoff=12", "--set", "grid.beta_list=0.2,0.4,0.6"],
         "_oracle_thermal_row", 15, 2, 2),
    ],
    ids=["sweep-finite-t", "witness", "oracle-thermal"],
)
def test_finite_t_commands_integrate_each_point_once_per_quantity(
    tmp_path, monkeypatch, args, row_name, points, per_point, in_row
):
    # the partition integral of each point, and for the overlap its
    # numerator, each once: the sweep and the witness integrate their grid
    # (20 points, two batches) before the rows, which integrate nothing;
    # each oracle row integrates its own point
    sizes, row_counts = [], []
    batch, row = thermal.integrate_batch, getattr(cli, row_name)

    def counting_batch(*a, **kw):
        sizes.append(a[2])
        return batch(*a, **kw)

    def counting_row(task):
        before = sum(sizes)
        result = row(task)
        row_counts.append(sum(sizes) - before)
        return result

    monkeypatch.setattr(thermal, "integrate_batch", counting_batch)
    monkeypatch.setattr(cli, row_name, counting_row)
    out = tmp_path / "out.csv"
    code = cli.main([*args, "--set", "grid.lambda_steps=5", "--set", "grid.t_steps=4",
                     "--out", str(out), "--threads", "1"])
    assert code == 0
    assert len(read_rows(out)) == points
    assert sum(sizes) == per_point * points
    assert max(sizes) <= thermal._BATCH_POINTS
    assert row_counts == [in_row] * points


@pytest.mark.parametrize(
    "args",
    [
        ["sweep-zero-t", "--set", "model.omega=1e-170", "--set", "model.omega0=1e-170"],
        ["critical", "--set", "model.omega=1e-170", "--set", "model.omega0=1e-170"],
        ["sweep-zero-t", "--set", "model.omega=1e-160", "--set", "model.omega0=1e-160"],
        ["sweep-zero-t", "--set", "model.omega=4.39e-6", "--set", "model.omega0=8.65e-314",
         "--set", "grid.lambda_max=3e-160", "--set", "grid.lambda_steps=2"],
    ],
    ids=["sweep-zero-t-lambda_c", "critical-lambda_c", "sweep-zero-t-mu",
         "sweep-zero-t-subnormal-omega0"],
)
def test_underflowing_frequencies_exit_with_typed_error(tmp_path, capsys, args):
    # lambda_c = sqrt(omega omega0) / 2 underflows to 0 at 1e-170; at 1e-160
    # it is normal, but mu = (lambda_c / lambda)^2 is subnormal at the grid's
    # couplings above 0. A subnormal omega0 leaves lambda_c and mu normal,
    # but the polariton frequencies would come out subnormal
    out = tmp_path / "never.csv"
    code = cli.main([*args, "--set", "model.n_atoms=10", "--out", str(out), "--threads", "1"])
    assert code == 2
    assert "kind=InvalidParameterError" in capsys.readouterr().err
    assert not out.exists()


def test_failure_leaves_no_partial_output(tmp_path):
    out = tmp_path / "partial.csv"
    # grid hits the critical coupling exactly: the effective ground state
    # degenerates there and the sweep must fail without writing anything
    result = run_cli(
        [
            "sweep-zero-t",
            "--set", "grid.lambda_min=0.4",
            "--set", "grid.lambda_max=0.6",
            "--set", "grid.lambda_steps=3",
            "--set", "model.n_atoms=10",
            "--out", str(out),
            "--threads", "1",
        ]
    )
    assert result.returncode != 0
    assert "error:" in result.stderr
    assert not out.exists()
    # every zero-T command checks its whole grid before the first row, so
    # it fails with no row computed and numpy never imported
    grid = ["--set", "grid.lambda_min=0.1", "--set", "grid.lambda_max=0.5",
            "--set", "grid.lambda_steps=5", "--set", "model.n_atoms=10", "--out", str(out)]
    for args in (["sweep-zero-t"], ["witness", "--set", "witness.mode=zero_t"],
                 ["oracle-compare", "--set", "oracle.mode=ground"]):
        result = run_python(
            "import sys\n"
            "from dicke_overlap import cli\n"
            "print(cli.main(sys.argv[1:]), 'numpy' in sys.modules)\n",
            *args, *grid,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["2", "False"], args
        assert "kind=InvalidParameterError" in result.stderr
        assert not out.exists()


def test_scaling_fit_synthetic_exact(tmp_path):
    out = tmp_path / "scaling.csv"
    result = run_cli(
        [
            "scaling-fit",
            "--set", "scaling.pipeline=synthetic",
            "--set", "scaling.points=6",
            "--out", str(out),
        ]
    )
    assert result.returncode == 0, result.stderr
    assert "exponent = 0.250000" in result.stdout
    rows = read_rows(out)
    assert len(rows) == 6
    assert set(rows[0]) == {
        "pipeline", "lambda", "t", "delta", "neg_log_t", "neg_log_delta", "residual",
    }


def test_scaling_fit_to_stdout_writes_only_csv(capsys):
    # without --out the fit summary goes to stderr, so stdout is the CSV alone
    code = cli.main(["scaling-fit", "--set", "scaling.pipeline=synthetic",
                     "--set", "scaling.points=6", "--threads", "1"])
    assert code == 0
    captured = capsys.readouterr()
    reader = csv.DictReader(io.StringIO(captured.out))
    assert reader.fieldnames == [
        "pipeline", "lambda", "t", "delta", "neg_log_t", "neg_log_delta", "residual",
    ]
    assert [r["pipeline"] for r in reader] == ["synthetic"] * 6
    assert "synthetic: exponent = 0.250000" in captured.err


def test_scaling_fit_at_any_resonant_frequency(tmp_path):
    # at omega = omega0 the ground state depends on lambda/omega alone:
    # doubling both frequencies doubles every coupling and keeps every delta
    rows = {}
    for w in ("1", "2"):
        out = tmp_path / f"omega{w}.csv"
        code = cli.main(["scaling-fit", "--set", f"model.omega={w}", "--set", f"model.omega0={w}",
                         "--set", "scaling.points=4", "--out", str(out)])
        assert code == 0
        rows[w] = [r for r in read_rows(out) if r["pipeline"] == "closed_form"]
    assert len(rows["2"]) == 4
    for one, two in zip(rows["1"], rows["2"]):
        assert float(two["lambda"]) == pytest.approx(2.0 * float(one["lambda"]), rel=1e-12)
        assert two["delta"] == one["delta"]


def test_scaling_fit_closed_form_off_resonance_exits_with_config_error(tmp_path, capsys):
    # the closed form holds only at omega = omega0; nothing is fitted or printed
    out = tmp_path / "never.csv"
    code = cli.main(["scaling-fit", "--set", "model.omega=2", "--set", "model.omega0=0.5",
                     "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "kind=ConfigError field=scaling.pipeline" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_scaling_fit_without_pipeline_exits_with_config_error(tmp_path, capsys):
    # no pipeline, no rows: the command fails instead of writing a bare header
    out = tmp_path / "never.csv"
    code = cli.main(["scaling-fit", "--set", "scaling.pipeline=", "--out", str(out)])
    assert code == 2
    assert "kind=ConfigError field=scaling.pipeline" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args, error",
    [
        (["critical", "--set", "grid.lambda_min=nan"], "kind=InvalidParameterError"),
        (["witness", "--set", "grid.lambda_min=nan"], "kind=InvalidParameterError"),
        (["critical", "--set", "model.omega=inf"], "kind=ConfigError field=model.omega"),
        (["sweep-zero-t", "--set", "model.omega0=1e200"], "kind=InvalidParameterError"),
        (["sweep-finite-t", "--set", "model.omega0=1e200"], "kind=InvalidParameterError"),
        (["witness", "--set", "model.omega0=1e200"], "kind=InvalidParameterError"),
        (["scaling-fit", "--set", "model.omega0=1e200", "--set", "scaling.pipeline=numerical"],
         "kind=InvalidParameterError"),
    ],
    ids=["critical-nan", "witness-nan", "critical-inf", "sweep-zero-t-overflow",
         "sweep-finite-t-overflow", "witness-overflow", "scaling-fit-overflow"],
)
def test_nonfinite_model_inputs_exit_with_typed_error(tmp_path, capsys, args, error):
    out = tmp_path / "never.csv"
    code = cli.main([*args, "--set", "grid.lambda_max=1", "--set", "grid.lambda_steps=2",
                     "--set", "grid.t_steps=2", "--set", "model.n_atoms=10",
                     "--out", str(out), "--threads", "1"])
    assert code == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_negative_thread_count_rejected(capsys):
    with pytest.raises(ConfigError) as err:
        cli.build_config(None, threads=-3)
    assert err.value.field == "--threads"
    assert cli.main(["critical", "--threads", "-3"]) == 2
    assert "kind=ConfigError field=--threads" in capsys.readouterr().err
    # zero keeps its meaning: hardware parallelism
    assert cli._threads(cli.build_config(None, threads=0)) == (os.cpu_count() or 1)


@pytest.mark.parametrize(
    "args, key",
    [
        (["critical", "--set", "numerics.rel_tol=5"], "numerics.rel_tol"),
        (["sweep-finite-t", "--set", "numerics.max_nodes=10"], "numerics.max_nodes"),
        (["scaling-fit", "--set", "scaling.points=-1"], "scaling.points"),
    ],
    ids=["critical-rel_tol", "sweep-finite-t-max_nodes", "scaling-fit-points"],
)
def test_invalid_quadrature_keys_exit_with_config_error(tmp_path, capsys, args, key):
    # refused when the config is built, before any row runs
    out = tmp_path / "never.csv"
    with pytest.raises(ConfigError) as err:
        cli.build_config(None, overrides=args[2:])
    assert err.value.field == key
    assert cli.main([*args, "--out", str(out), "--threads", "1"]) == 2
    assert f"kind=ConfigError field={key} message={key}: " in capsys.readouterr().err
    assert not out.exists()


def test_main_returns_nonzero_on_config_error():
    assert cli.main(["sweep-zero-t", "--set", "bogus.key=1"]) == 2


@pytest.mark.parametrize(
    "sets",
    [
        # one ulp above lambda_c
        {"grid.lambda_min": "0.5000000000000001", "grid.lambda_max": 0.6,
         "grid.lambda_steps": 2},
        # the fourth point of this grid is 0.49999999999999994, one ulp below
        {"grid.lambda_min": 0.05, "grid.lambda_max": 1.25, "grid.lambda_steps": 9},
    ],
)
def test_couplings_at_lambda_c_to_rounding_fail_at_once(tmp_path, capsys, sets):
    out = tmp_path / "never.csv"
    args = ["sweep-zero-t", "--set", "model.n_atoms=100"]
    for key, value in sets.items():
        args += ["--set", f"{key}={value}"]
    start = time.perf_counter()
    code = cli.main([*args, "--out", str(out), "--threads", "1"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert "kind=InvalidParameterError" in capsys.readouterr().err
    assert not out.exists()
    assert elapsed < 1.0
    # 1e-8 from lambda_c is still a regular point
    delta = zerotemp.overlap_for_params(ModelParams(1.0, 1.0, 0.5 * (1.0 - 1e-8), 100))
    assert math.isfinite(delta) and 0.0 <= delta <= 1.0


def test_witness_zero_t_small_n_near_critical(tmp_path):
    out = tmp_path / "witness.csv"
    result = run_cli(
        [
            "witness",
            "--set", "model.n_atoms=10",
            "--set", "grid.lambda_min=0.45",
            "--set", "grid.lambda_max=0.45",
            "--set", "grid.lambda_steps=1",
            "--set", "grid.t_steps=2",
            "--out", str(out),
            "--threads", "1",
        ]
    )
    assert result.returncode == 0, result.stderr
    assert len(read_rows(out)) == 1


def test_package_import_loads_no_numpy_and_sets_no_blas_default():
    result = run_python(
        "import os, sys, dicke_overlap\n"
        "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "None"]


@pytest.mark.parametrize("user, expected", [(None, "1"), ("3", "3")])
def test_cli_import_defaults_to_one_blas_thread(user, expected):
    env = _child_env()
    if user is not None:
        env["OPENBLAS_NUM_THREADS"] = user
    result = run_python(
        "import os, dicke_overlap.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n", env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == expected


_EXPORTED = {
    "core": ["ModelParams", "PhaseLabel", "critical_coupling", "critical_temperature",
             "critical_temperature_tanh_form", "order_parameter_zero_t", "phase_finite_t",
             "phase_zero_t", "reduced_critical_temperature"],
    "numerics": ["QuadratureSpec"],
    "separable": ["SeparableState", "from_jz", "log_weight", "nearest_a"],
    "thermal": ["ThermalPoint", "log_partition", "matched_a", "overlap_finite_t", "thermal_jz",
                "thermal_moments"],
    "witness": ["MomentSet", "WitnessReport", "evaluate", "evaluate_finite_n"],
    "zerotemp": ["GaussianState", "PolaritonFrequencies", "TwoModeState",
                 "atom_diagonal_probabilities", "closed_form_overlap_normal",
                 "collective_moments_zero_t", "effective_ground_state", "effective_hamiltonian",
                 "gaussian_ground_state", "matched_separable_state", "overlap_for_params",
                 "overlap_zero_t", "polariton_frequencies", "reduced_atom_purity",
                 "scaling_fit"],
}


def test_package_exports_resolve_to_their_home_module():
    for module, names in _EXPORTED.items():
        home = importlib.import_module(f"dicke_overlap.{module}")
        for name in names:
            namespace = {}
            exec(f"from dicke_overlap import {name}", namespace)
            assert namespace[name] is getattr(home, name), name
    assert sorted(dicke_overlap.__all__) == sorted(n for ns in _EXPORTED.values() for n in ns)
    # in a fresh interpreter, submodules resolve as attributes on first
    # access, and dir() lists the exports before any of them is loaded
    result = run_python(
        "import dicke_overlap\n"
        "print(set(dicke_overlap.__all__) <= set(dir(dicke_overlap)))\n"
        "print(dicke_overlap.thermal.__name__, dicke_overlap.errors.CapacityError.__name__)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "dicke_overlap.thermal", "CapacityError"]


_SCIPY_MODULES = (
    "import sys\n"
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
)


@pytest.mark.parametrize("module", ["dicke_overlap", "dicke_overlap.cli"])
def test_import_loads_no_scipy(module):
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}\n{_SCIPY_MODULES}"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_commands_load_only_their_own_layers(tmp_path):
    # cli imports numpy and the layers that use it in the rows and commands
    # that use them; each run is a fresh process, and critical and the zero-T
    # rows, plain Python, need no numpy
    runs = [
        ("sweep-finite-t", {**_TWO_COUPLINGS, **_TWO_TEMPERATURES, "model.n_atoms": 10},
         {"thermal"}, {"oracle", "zerotemp"}),
        ("witness", {**_TWO_COUPLINGS, **_TWO_TEMPERATURES, "witness.mode": "finite_t",
                     "model.n_atoms": 10}, {"thermal", "witness"}, {"oracle", "zerotemp"}),
        ("critical", {"grid.lambda_min": 0.5, "grid.lambda_max": 1.0, "grid.lambda_steps": 2},
         set(), {"numpy", "numerics", "oracle", "separable", "thermal", "zerotemp"}),
        ("sweep-zero-t", {"model.n_atoms": 100, "grid.lambda_min": 0.2, "grid.lambda_max": 1.0,
                          "grid.lambda_steps": 3}, {"zerotemp"},
         {"numpy", "numerics", "oracle", "thermal"}),
        ("witness", {"witness.mode": "zero_t", "model.n_atoms": 100, "grid.lambda_min": 0.2,
                     "grid.lambda_max": 1.0, "grid.lambda_steps": 3}, {"zerotemp", "witness"},
         {"numpy", "numerics", "oracle", "thermal"}),
        ("oracle-compare", {**_TWO_COUPLINGS, "oracle.mode": "ground", "model.n_atoms": 4},
         {"oracle", "zerotemp"}, {"thermal"}),
    ]
    for i, (command, kv, loaded, unloaded) in enumerate(runs):
        args = [command, *(x for k, v in kv.items() for x in ("--set", f"{k}={v}")),
                "--out", str(tmp_path / f"run{i}.csv"), "--threads", "1"]
        result = run_python(
            "import sys\n"
            "from dicke_overlap import cli\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(' '.join(sorted(m.rsplit('.', 1)[-1] for m in sys.modules\n"
            "                      if m.startswith('dicke_overlap.') or m == 'numpy')))\n",
            *args,
        )
        assert result.returncode == 0, result.stderr
        modules = set(result.stdout.split())
        assert loaded <= modules and not unloaded & modules, (command, modules)


@pytest.mark.parametrize(
    "args, code",
    [(["--help"], 0), (["sweep-finite-t", "--set", "grid.lambda_steps=0"], 2)],
    ids=["help", "config_error"],
)
def test_front_end_exits_load_no_numpy(args, code):
    # parsing, validation and the error report need no numpy: a mistyped
    # command line fails fast, without its import
    result = run_python(
        "import sys\n"
        "from dicke_overlap import cli\n"
        "try:\n"
        "    code = cli.main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(code, 'numpy' in sys.modules)\n",
        *args,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-2:] == [str(code), "False"]


_BOUNDS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(lo=_BOUNDS, hi=_BOUNDS, num=st.integers(1, 60))
@example(lo=0.0, hi=5e-324, num=3)  # a step that underflows to 0
@example(lo=1.0, hi=1.0, num=4)
@example(lo=-0.0, hi=0.0, num=1)
def test_linspace_equals_numpy_bit_for_bit(lo, hi, num):
    # the lambda and T grids are built without numpy; their values must be
    # numpy's to the bit, or a CSV row could move in its last digit
    ours, numpys = cli._linspace(lo, hi, num), np.linspace(lo, hi, num).tolist()
    assert [x.hex() for x in ours] == [x.hex() for x in numpys]


def test_zero_t_and_finite_t_commands_load_no_scipy(tmp_path):
    # every command runs on numpy alone, the oracle's ground and thermal
    # modes included, and so does the truncated reference's displacement:
    # scipy is blocked outright, so any import of it fails the run
    runs = [
        ("sweep-zero-t", {"model.n_atoms": 100, "grid.lambda_min": 0.2,
                          "grid.lambda_max": 1.0, "grid.lambda_steps": 5}),
        ("witness", {**_TWO_COUPLINGS, "witness.mode": "zero_t", "model.n_atoms": 100}),
        ("witness", {**_TWO_COUPLINGS, **_TWO_TEMPERATURES, "witness.mode": "finite_t",
                     "model.n_atoms": 10}),
        ("sweep-finite-t", {**_TWO_COUPLINGS, **_TWO_TEMPERATURES, "model.n_atoms": 10}),
        ("critical", {"grid.lambda_min": 0.5, "grid.lambda_max": 1.0, "grid.lambda_steps": 2}),
        ("scaling-fit", {"scaling.points": 4}),
        ("oracle-compare", {**_TWO_COUPLINGS, "oracle.mode": "ground", "model.n_atoms": 10}),
        ("oracle-compare", {"oracle.mode": "thermal", "model.n_atoms": 2,
                            "grid.lambda_min": 1.0, "grid.lambda_max": 1.0,
                            "grid.lambda_steps": 1, "grid.beta_list": "0.2"}),
    ]
    argvs = [
        [command, *(x for k, v in kv.items() for x in ("--set", f"{k}={v}")),
         "--out", str(tmp_path / f"run{i}.csv"), "--threads", "1"]
        for i, (command, kv) in enumerate(runs)
    ]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from dicke_overlap import cli, zerotemp\n"
        "from dicke_overlap.core import ModelParams\n"
        f"assert [cli.main(args) for args in {argvs!r}] == [0] * {len(argvs)}\n"
        # superradiant, so the reference displaces its reduced matrix
        "params = ModelParams(1.0, 1.0, 1.0, 40)\n"
        "state = zerotemp.effective_ground_state(params, (41, 41))\n"
        "assert state.displacement_atom > 0\n"
        "print(zerotemp.overlap_zero_t(state, zerotemp.matched_separable_state(params)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # scaling-fit prints its fit summary first
    assert 0.0 < float(result.stdout.strip().splitlines()[-1]) < 1.0


def _traced_replay(tmp_path, args):
    """Run ``args`` through the benchmark's traced replay; returns (trace, csv path)."""
    script = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"
    trace = tmp_path / "smoke.trace.json"
    out = tmp_path / "smoke.csv"
    result = subprocess.run(
        [sys.executable, str(script), str(trace), "--", *args, "--out", str(out)],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    with open(trace, encoding="utf-8") as fh:
        return json.load(fh), out


def test_traced_replay_still_binds(tmp_path):
    # the benchmark's traced replay looks up package functions by name; a
    # rename or deletion of one it hooks fails here, not only under --trace
    recorded, out = _traced_replay(tmp_path, [
        "sweep-finite-t", "--set", "model.n_atoms=10", "--set", "grid.lambda_steps=2",
        "--set", "grid.t_steps=2"])
    assert set(recorded) == {
        "spans", "solves", "physical_dims", "dense_dims", "log_integral_evals",
        "oracle_cache_hits", "post_s",
    }
    assert len(read_rows(out)) == 4


def test_traced_oracle_ground_replay(tmp_path):
    # the replay fails a traced command that hits an oracle cache inside a
    # span; the ground path keeps no cache, so its two solves both run
    recorded, out = _traced_replay(tmp_path, [
        "oracle-compare", "--set", "oracle.mode=ground", "--set", "model.n_atoms=6",
        "--set", "oracle.cutoff=20", "--set", "grid.lambda_min=0.3",
        "--set", "grid.lambda_max=0.3", "--set", "grid.lambda_steps=1"])
    assert recorded["oracle_cache_hits"] == 0
    assert recorded["dense_dims"] == [
        oracle.symmetric_basis(6, c).dim for c in (20, oracle.convergence_cutoff(20))
    ]
    assert len(read_rows(out)) == 1


def test_traced_oracle_thermal_replay(tmp_path):
    # the benchmark's oracle workload replays a thermal command; its dense
    # dimensions are the 2^N-configuration basis of the thermal and split solves
    recorded, out = _traced_replay(tmp_path, [
        "oracle-compare", "--set", "oracle.mode=thermal", "--set", "model.n_atoms=4",
        "--set", "oracle.cutoff=6", "--set", "grid.lambda_min=1.0",
        "--set", "grid.lambda_max=1.0", "--set", "grid.lambda_steps=1",
        "--set", "grid.beta_list=0.2"])
    assert recorded["oracle_cache_hits"] == 0
    assert recorded["dense_dims"] == [6 * 16, 6 * 16]
    assert len(read_rows(out)) == 1
