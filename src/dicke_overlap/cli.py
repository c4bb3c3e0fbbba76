"""Command-line front end: sweeps, oracle comparisons, fits, witness scans.

Commands
--------
sweep-zero-t     ground-state overlap/purity over a coupling grid x N list
sweep-finite-t   thermal overlap over a (coupling, temperature) grid
witness          spin-squeezing inequality scan (zero_t or finite_t mode)
oracle-compare   effective/quadrature values against exact diagonalization
scaling-fit      critical-exponent fit of the normal-phase overlap
critical         critical coupling and temperature table

Configuration is flat ``key = value`` text with ``#`` comments and dotted
section prefixes (``model.omega``, ``grid.lambda_min``); every key can be
overridden on the command line with ``--set key=value``.  Output is CSV
(comma separator, LF line endings, header row, 12 significant digits by
default); identical configuration yields byte-identical output.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import os
import sys
import tempfile

import numpy as np

from . import core, oracle, thermal, witness, zerotemp
from .core import ModelParams
from .errors import ConfigError, DickeError
from .numerics import QuadratureSpec
from .separable import SeparableState
from .witness import PERMUTATIONS

# key -> (parser, default); None default means "required if used"
_SCHEMA = {
    "model.omega": (float, 1.0),
    "model.omega0": (float, 1.0),
    "model.n_atoms": (lambda s: [int(x) for x in str(s).split(",")], [100]),
    # default grid straddles the resonant critical coupling 0.5 without
    # hitting it (the effective ground state degenerates exactly there)
    "grid.lambda_min": (float, 0.0),
    "grid.lambda_max": (float, 1.5),
    "grid.lambda_steps": (int, 32),
    "grid.t_min": (float, 0.2),
    "grid.t_max": (float, 3.0),
    "grid.t_steps": (int, 15),
    "grid.beta_list": (lambda s: [float(x) for x in str(s).split(",")], None),
    "numerics.rel_tol": (float, 1e-9),
    "numerics.max_nodes": (int, 200_000),
    "numerics.threads": (int, 0),  # 0 = hardware parallelism
    "output.csv": (str, ""),
    "output.precision": (int, 12),
    "witness.mode": (str, "zero_t"),
    "witness.finite_n": (lambda s: str(s).lower() in ("1", "true", "yes"), False),
    "oracle.mode": (str, "ground"),
    "oracle.cutoff": (int, 40),
    "scaling.pipeline": (str, "closed_form,numerical"),
    "scaling.t_min": (float, 2e-4),
    "scaling.t_max": (float, 2e-3),
    "scaling.points": (int, 8),
}


def parse_config_text(text, origin="<config>"):
    """Parse ``key = value`` lines with # comments into a raw dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"{origin}:{lineno}: expected 'key = value', got {line.strip()!r}",
                line=lineno,
            )
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r}", field=key, line=lineno)
        raw[key] = value
    return raw


def build_config(config_path=None, overrides=(), out=None, threads=None):
    raw = {}
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            raw.update(parse_config_text(fh.read(), origin=config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"--set: unknown key {key!r}", field=key)
        raw[key] = value
    if out is not None:
        raw["output.csv"] = out
    if threads is not None:
        raw["numerics.threads"] = threads
    values = {}
    for key, (parse, default) in _SCHEMA.items():
        if key in raw:
            try:
                values[key] = parse(raw[key])
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"bad value for {key}: {raw[key]!r} ({exc})", field=key)
        else:
            values[key] = default
    _validate(values)
    return values


def _validate(v):
    for key in ("grid.lambda_steps", "grid.t_steps"):
        if v[key] < 1:
            raise ConfigError(f"{key} must be >= 1", field=key)
    if v["grid.lambda_steps"] < 2 and v["grid.t_steps"] < 2:
        raise ConfigError(
            "empty grid: at least one swept axis needs steps >= 2", field="grid.lambda_steps"
        )
    if any(n < 1 for n in v["model.n_atoms"]):
        raise ConfigError("model.n_atoms entries must be positive", field="model.n_atoms")
    if not (v["model.omega"] > 0 and v["model.omega0"] > 0):
        raise ConfigError("frequencies must be positive", field="model.omega")
    if v["output.precision"] < 1:
        raise ConfigError("output.precision must be >= 1", field="output.precision")


def _quad_args(cfg):
    """QuadratureSpec fields as a plain tuple for the row tasks."""
    return cfg["numerics.max_nodes"], cfg["numerics.rel_tol"]


def _one_atom_count(cfg):
    """The one N of every command but sweep-zero-t, which sweeps a list of them."""
    if len(cfg["model.n_atoms"]) != 1:
        raise ConfigError("this command takes a single model.n_atoms", field="model.n_atoms")
    return cfg["model.n_atoms"][0]


def _lambda_grid(cfg):
    return np.linspace(cfg["grid.lambda_min"], cfg["grid.lambda_max"], cfg["grid.lambda_steps"])


def _t_grid(cfg):
    for key in ("grid.t_min", "grid.t_max"):
        if not cfg[key] > 0:
            raise ConfigError(f"{key} must be > 0, got {cfg[key]!r}", field=key)
    return np.linspace(cfg["grid.t_min"], cfg["grid.t_max"], cfg["grid.t_steps"])


def _threads(cfg):
    requested = cfg["numerics.threads"]
    available = os.cpu_count() or 1
    return max(1, min(requested, available)) if requested else available


def _sweep(cfg, worker, tasks, header):
    """One row per task, computed possibly in parallel, written in task order."""
    n_threads = _threads(cfg)
    if n_threads <= 1 or len(tasks) <= 1:
        rows = [worker(t) for t in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_threads) as pool:
            rows = list(pool.map(worker, tasks, chunksize=1))
    _write_csv(cfg["output.csv"], header, rows, cfg["output.precision"])


def _format(value, precision):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"%.{precision}g" % value
    return str(value)


def _write_csv(path, header, rows, precision):
    """Write atomically; on failure no partial file is left behind."""

    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format(v, precision) for v in row])

    if not path:
        emit(sys.stdout)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            emit(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ------------------------------------------------------------ worker rows


def _zero_t_row(task):
    omega, omega0, lam, n = task
    params = ModelParams(omega, omega0, lam, n)
    state = zerotemp.gaussian_ground_state(params)
    sep = zerotemp.matched_separable_state(params)
    delta = zerotemp.overlap_zero_t(state, sep)
    return (
        lam,
        n,
        0.0,
        str(core.phase_zero_t(params)),
        sep.a,
        core.order_parameter_zero_t(params),
        delta,
        zerotemp.reduced_atom_purity(state),
    )


def _finite_t_row(task):
    omega, omega0, lam, temp, n, quad_args = task
    params = ModelParams(omega, omega0, lam, n)
    quad = QuadratureSpec(*quad_args)
    point = thermal.ThermalPoint(params, 1.0 / temp)
    a = thermal.matched_a(point, quad)
    delta = thermal.overlap_finite_t(point, a, quad)
    tc = core.critical_temperature(params)
    return (
        lam,
        temp,
        n,
        str(core.phase_finite_t(params, temp)),
        a,
        a - 0.5,
        delta,
        tc if tc is not None else float("nan"),
        core.reduced_critical_temperature(params),
        temp < 0.1,
    )


def _witness_labels():
    labels = ["b"]
    for kind in ("c", "d"):
        labels += [f"{kind}_{'_'.join(axes)}" for axes in PERMUTATIONS]
    return labels


def _witness_row(task):
    omega, omega0, lam, temp, n, finite_n, quad_args = task
    params = ModelParams(omega, omega0, lam, n)
    if temp == 0.0:
        state = zerotemp.gaussian_ground_state(params)
        moments = zerotemp.collective_moments_zero_t(state, params)
    else:
        point = thermal.ThermalPoint(params, 1.0 / temp)
        moments = thermal.thermal_moments(point, QuadratureSpec(*quad_args))
    report = (witness.evaluate_finite_n if finite_n else witness.evaluate)(moments)
    # report.entries come in _witness_labels order
    values = tuple(e.lhs for e in report.entries)
    flags = tuple(e.violated for e in report.entries)
    return (lam, temp, n) + values + flags + (report.any_violation,)


def _oracle_ground_row(task):
    omega, omega0, lam, n, cutoff = task
    params = ModelParams(omega, omega0, lam, n)
    state_ed = oracle.exact_ground_state(params, cutoff)
    sep = zerotemp.matched_separable_state(params)
    delta_ed, _, _ = oracle.exact_overlap(state_ed, sep)
    delta_eff = zerotemp.overlap_for_params(params)
    jz_ed = oracle.exact_moments(state_ed).first[2]
    abs_err = abs(delta_eff - delta_ed)
    return (
        lam,
        n,
        cutoff,
        delta_eff,
        delta_ed,
        abs_err,
        abs_err / delta_ed if delta_ed else float("inf"),
        core.order_parameter_zero_t(params),
        jz_ed,
    )


def _oracle_thermal_row(task):
    omega, omega0, lam, beta, n, cutoff, quad_args = task
    params = ModelParams(omega, omega0, lam, n)
    quad = QuadratureSpec(*quad_args)
    point = thermal.ThermalPoint(params, beta)
    a = thermal.matched_a(point, quad)
    delta_quad = thermal.overlap_finite_t(point, a, quad)
    state = oracle.exact_thermal_state(params, cutoff, beta)
    sep = oracle.matched_separable_state(state)
    delta_ed, _, _ = oracle.exact_overlap(state, sep)
    delta_split = oracle.split_overlap(params, cutoff, beta, SeparableState.from_a(a, n))
    m_quad = thermal.thermal_moments(point, quad)
    m_ed = oracle.exact_moments(state)
    moment_err = max(
        max(abs(x - y) for x, y in zip(m_quad.first, m_ed.first)),
        max(abs(x - y) for x, y in zip(m_quad.second, m_ed.second)),
    )
    abs_err = abs(delta_quad - delta_ed)
    return (
        lam,
        beta,
        n,
        cutoff,
        delta_quad,
        delta_ed,
        delta_split,
        abs_err,
        abs_err / delta_ed if delta_ed else float("inf"),
        thermal.thermal_jz(point, quad),
        m_ed.first[2],
        moment_err,
    )


# ----------------------------------------------------------------- commands


def cmd_sweep_zero_t(cfg):
    lams = _lambda_grid(cfg)
    if len(lams) < 2:
        raise ConfigError("sweep-zero-t needs grid.lambda_steps >= 2", field="grid.lambda_steps")
    tasks = [
        (cfg["model.omega"], cfg["model.omega0"], float(lam), n)
        for n in cfg["model.n_atoms"]
        for lam in lams
    ]
    header = ["lambda", "n_atoms", "temperature", "phase", "a", "jz_per_atom", "delta", "purity"]
    _sweep(cfg, _zero_t_row, tasks, header)


def cmd_sweep_finite_t(cfg):
    lams = _lambda_grid(cfg)
    temps = _t_grid(cfg)
    n = _one_atom_count(cfg)
    quad_args = _quad_args(cfg)
    tasks = [
        (cfg["model.omega"], cfg["model.omega0"], float(lam), float(t), n, quad_args)
        for lam in lams
        for t in temps
    ]
    header = [
        "lambda",
        "temperature",
        "n_atoms",
        "phase",
        "a",
        "jz_per_atom",
        "delta",
        "tc_self_consistent",
        "tc_resonant_line",
        "validity_warning",
    ]
    _sweep(cfg, _finite_t_row, tasks, header)


def cmd_witness(cfg):
    mode = cfg["witness.mode"]
    if mode not in ("zero_t", "finite_t"):
        raise ConfigError("witness.mode must be zero_t or finite_t", field="witness.mode")
    lams = _lambda_grid(cfg)
    temps = [0.0] if mode == "zero_t" else list(_t_grid(cfg))
    n = _one_atom_count(cfg)
    quad_args = _quad_args(cfg)
    tasks = [
        (
            cfg["model.omega"],
            cfg["model.omega0"],
            float(lam),
            float(t),
            n,
            cfg["witness.finite_n"],
            quad_args,
        )
        for lam in lams
        for t in temps
    ]
    labels = _witness_labels()
    header = (
        ["lambda", "temperature", "n_atoms"]
        + [f"lhs_{x}" for x in labels]
        + [f"violated_{x}" for x in labels]
        + ["any_violation"]
    )
    _sweep(cfg, _witness_row, tasks, header)


def cmd_oracle_compare(cfg):
    mode = cfg["oracle.mode"]
    n = _one_atom_count(cfg)
    cutoff = cfg["oracle.cutoff"]
    lams = _lambda_grid(cfg)
    if mode == "ground":
        # capacity check up front, on the larger basis of the convergence gate
        oracle.symmetric_basis(n, oracle.convergence_cutoff(cutoff))
        tasks = [
            (cfg["model.omega"], cfg["model.omega0"], float(lam), n, cutoff)
            for lam in lams
        ]
        header = [
            "lambda", "n_atoms", "cutoff", "delta_effective", "delta_oracle",
            "abs_error", "rel_error", "jz_effective", "jz_oracle",
        ]
        _sweep(cfg, _oracle_ground_row, tasks, header)
    elif mode == "thermal":
        oracle.full_product_basis(n, cutoff)  # capacity check up front
        betas = cfg["grid.beta_list"] or [0.1, 0.2, 0.4]
        quad_args = _quad_args(cfg)
        tasks = [
            (cfg["model.omega"], cfg["model.omega0"], float(lam), float(b), n, cutoff, quad_args)
            for lam in lams
            for b in betas
        ]
        header = [
            "lambda", "beta", "n_atoms", "cutoff", "delta_quadrature", "delta_oracle",
            "delta_split", "abs_error", "rel_error", "jz_quadrature", "jz_oracle",
            "max_moment_error",
        ]
        _sweep(cfg, _oracle_thermal_row, tasks, header)
    else:
        raise ConfigError("oracle.mode must be ground or thermal", field="oracle.mode")


def cmd_scaling_fit(cfg):
    pipelines = [p.strip() for p in cfg["scaling.pipeline"].split(",") if p.strip()]
    # t = 1 - lambda/lambda_c: the fit's grid lies strictly between 0 and lambda_c
    for key in ("scaling.t_min", "scaling.t_max"):
        if not 0 < cfg[key] < 1:
            raise ConfigError(f"{key} must lie in (0, 1), got {cfg[key]!r}", field=key)
    t_grid = np.geomspace(cfg["scaling.t_max"], cfg["scaling.t_min"], cfg["scaling.points"])
    omega, omega0 = cfg["model.omega"], cfg["model.omega0"]
    lc = core.critical_coupling(omega, omega0)
    lams = lc * (1.0 - t_grid)
    n = _one_atom_count(cfg)
    rows = []
    for pipeline in pipelines:
        if pipeline == "closed_form":
            deltas = [zerotemp.closed_form_overlap_normal(float(l)) for l in lams]
        elif pipeline == "numerical":
            deltas = [
                zerotemp.overlap_for_params(ModelParams(omega, omega0, float(l), n))
                for l in lams
            ]
        elif pipeline == "synthetic":
            deltas = [(1.0 - float(l) / lc) ** 0.25 for l in lams]
        else:
            raise ConfigError(f"unknown scaling pipeline {pipeline!r}", field="scaling.pipeline")
        fit = zerotemp.scaling_fit(lams, deltas, critical_coupling=lc)
        print(
            f"{pipeline}: exponent = {fit.exponent:.6f} +- {fit.stderr:.6f} "
            f"(intercept {fit.intercept:.6f}, {len(lams)} points)"
        )
        for lam, t, delta, x, y, r in zip(
            lams, t_grid, deltas, fit.log_t, fit.neg_log_delta, fit.residuals
        ):
            rows.append((pipeline, float(lam), float(t), delta, float(x), float(y), float(r)))
    header = ["pipeline", "lambda", "t", "delta", "neg_log_t", "neg_log_delta", "residual"]
    _write_csv(cfg["output.csv"], header, rows, cfg["output.precision"])


def cmd_critical(cfg):
    lams = _lambda_grid(cfg)
    n = _one_atom_count(cfg)
    omega, omega0 = cfg["model.omega"], cfg["model.omega0"]
    lc = core.critical_coupling(omega, omega0)
    rows = []
    for lam in lams:
        params = ModelParams(omega, omega0, float(lam), n)
        tc = core.critical_temperature(params)
        tc_tanh = core.critical_temperature_tanh_form(params)
        rows.append(
            (
                float(lam),
                lc,
                tc if tc is not None else float("nan"),
                core.reduced_critical_temperature(params),
                tc_tanh if tc_tanh is not None else float("nan"),
            )
        )
    header = ["lambda", "lambda_c", "tc_self_consistent", "tc_resonant_line", "tc_tanh_form"]
    _write_csv(cfg["output.csv"], header, rows, cfg["output.precision"])


_COMMANDS = {
    "sweep-zero-t": cmd_sweep_zero_t,
    "sweep-finite-t": cmd_sweep_finite_t,
    "witness": cmd_witness,
    "oracle-compare": cmd_oracle_compare,
    "scaling-fit": cmd_scaling_fit,
    "critical": cmd_critical,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dicke-overlap",
        description="Separable-state overlap and phase structure of the Dicke model",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a key = value configuration file")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a configuration key (repeatable)",
    )
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--threads", type=int, help="cap on worker parallelism")
    args = parser.parse_args(argv)
    try:
        cfg = build_config(args.config, args.overrides, args.out, args.threads)
        _COMMANDS[args.command](cfg)
    except DickeError as exc:
        kind = type(exc).__name__
        field = getattr(exc, "field", None)
        suffix = f" field={field}" if field else ""
        print(f"error: kind={kind}{suffix} message={exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
