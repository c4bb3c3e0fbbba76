import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dicke_overlap
from dicke_overlap import cli, numerics, oracle, thermal, zerotemp
from dicke_overlap.core import ModelParams
from dicke_overlap.errors import ConfigError


def _child_env():
    """The environment with the tested package first on PYTHONPATH, installed or not."""
    package_root = str(Path(dicke_overlap.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": package_root + (os.pathsep + rest if rest else "")}


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


def test_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        cli.build_config(None, overrides=["grid.lambda_steps=three"])


def test_empty_grid_rejected():
    with pytest.raises(ConfigError):
        cli.build_config(None, overrides=["grid.lambda_steps=1", "grid.t_steps=1"])


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
            {**_TWO_COUPLINGS, "witness.mode": "zero_t", "model.n_atoms": 10},
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
            {**_TWO_COUPLINGS, "oracle.mode": "ground", "model.n_atoms": 10},
            ["lambda", "n_atoms", "cutoff", "delta_effective", "delta_oracle", "abs_error",
             "rel_error", "jz_effective", "jz_oracle"],
            id="oracle-compare-ground",
        ),
        pytest.param(
            "oracle-compare",
            {"oracle.mode": "thermal", "model.n_atoms": 2, "grid.lambda_min": 1.0,
             "grid.lambda_max": 1.0, "grid.lambda_steps": 1, "grid.beta_list": "0.1,0.2"},
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
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out, threads in ((out1, "1"), (out2, "2")):
        result = run_cli([*args, "--out", str(out), "--threads", threads])
        assert result.returncode == 0, result.stderr
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0].split(",") == header


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
    # at the default cutoff 40 the 51 multiplet blocks of N = 100 need
    # 2.1 GiB of dense matrices together, though the largest alone needs 0.12
    out = tmp_path / "never.csv"
    result = run_cli(
        [
            "oracle-compare",
            "--set", "oracle.mode=thermal",
            "--set", "model.n_atoms=100",
            "--out", str(out),
        ]
    )
    assert result.returncode != 0
    assert "error:" in result.stderr
    assert "CapacityError" in result.stderr
    assert not out.exists()  # no partial output


def test_oracle_compare_checks_convergence_basis_up_front(tmp_path, capsys):
    # cutoff 120 at N = 100 fits the dense bound, but the convergence gate's
    # cutoff 180 does not: the command fails before any diagonalization
    out = tmp_path / "never.csv"
    start = time.perf_counter()
    code = cli.main(
        ["oracle-compare", "--set", "oracle.mode=ground", "--set", "oracle.cutoff=120",
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
        (cli._finite_t_row, (1.0, 1.0, 0.8, 0.7, 10, (200_000, 1e-9))),
        (cli._oracle_thermal_row, (1.0, 1.0, 1.0, 0.2, 2, 40, (200_000, 1e-9))),
    ],
    ids=["finite_t", "oracle_thermal"],
)
def test_thermal_row_runs_two_quadratures(monkeypatch, row, task):
    # one integral of the partition weight, one of the overlap numerator
    scans = []
    scan = numerics._scan

    def counting_scan(log_f):
        scans.append(1)
        return scan(log_f)

    monkeypatch.setattr(numerics, "_scan", counting_scan)
    thermal._partition.cache_clear()
    row(task)
    assert len(scans) == 2


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


def test_negative_thread_count_rejected():
    for kwargs in ({"threads": -3}, {"overrides": ["numerics.threads=-3"]}):
        with pytest.raises(ConfigError) as err:
            cli.build_config(None, **kwargs)
        assert err.value.field == "numerics.threads"
    # zero keeps its meaning: hardware parallelism
    assert cli._threads(cli.build_config(None, threads=0)) == (os.cpu_count() or 1)


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


def test_cli_import_leaves_sparse_eigensolver_unloaded():
    # no command needs scipy: both exact diagonalizations run numpy's Lanczos,
    # and only the truncated reference's displacement imports scipy.linalg,
    # inside the function
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, dicke_overlap.cli; print('scipy.sparse.linalg' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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


def test_zero_t_and_finite_t_commands_load_no_scipy(tmp_path):
    # all six commands run on numpy alone, the oracle's ground and thermal
    # modes included; scipy is left to the truncated reference and the tests
    runs = [
        ("sweep-zero-t", {"model.n_atoms": 100, "grid.lambda_min": 0.2,
                          "grid.lambda_max": 1.0, "grid.lambda_steps": 5}),
        ("witness", {**_TWO_COUPLINGS, "witness.mode": "zero_t", "model.n_atoms": 100}),
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
        "from dicke_overlap import cli\n"
        f"assert [cli.main(args) for args in {argvs!r}] == [0] * {len(argvs)}\n"
        + _SCIPY_MODULES
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
    assert result.stdout.strip().splitlines()[-1] == "[]"


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
    # span, so the ground path keeps _ground_pair as its only cache
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
