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
import csv
import math
import os
import sys
import tempfile
import time

# One BLAS thread per CLI process unless the user sets another count.  Rows
# are small and run serially or one per pool worker, so OpenBLAS's own
# thread pool brings no speed, only about 0.1 s of CPU per process to start
# it when numpy loads.  Hence this line precedes the numpy import: a limit
# set after the import comes too late.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

# oracle, thermal, witness and zerotemp are imported by the rows and
# commands that use them, so a command loads only its own layers
from . import core
from .core import ModelParams
from .errors import ConfigError, DickeError, InvalidParameterError
from .numerics import QuadratureSpec
from .separable import SeparableState

# key -> (parser, default)
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
    "grid.beta_list": (lambda s: [float(x) for x in str(s).split(",")], [0.1, 0.2, 0.4]),
    "numerics.rel_tol": (float, 1e-9),
    "numerics.max_nodes": (int, 200_000),
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
    """Schema values from the file and ``--set``, plus ``out`` and ``threads`` from the flags.

    ``out`` None writes to stdout; ``threads`` None or 0 allows one worker per core.
    """
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
    values = {"out": out or "", "threads": threads or 0}
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
    if any(n < 1 for n in v["model.n_atoms"]):
        raise ConfigError("model.n_atoms entries must be positive", field="model.n_atoms")
    for key in ("model.omega", "model.omega0"):
        if not 0 < v[key] < math.inf:
            raise ConfigError(f"{key} must be positive and finite", field=key)
    if v["threads"] < 0:
        raise ConfigError("--threads must be >= 0", field="--threads")
    if v["output.precision"] < 1:
        raise ConfigError("output.precision must be >= 1", field="output.precision")
    try:
        QuadratureSpec(*_quad_args(v))
    except InvalidParameterError as exc:
        # its message starts with the field: "max_nodes must be >= 64, ..."
        key = "numerics." + str(exc).split(" ", 1)[0]
        raise ConfigError(f"{key}: {exc}", field=key) from None


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
    # only the lambda x T commands read this axis, so only they need one swept
    if cfg["grid.lambda_steps"] < 2 and cfg["grid.t_steps"] < 2:
        raise ConfigError(
            "empty grid: at least one swept axis needs steps >= 2", field="grid.lambda_steps"
        )
    for key in ("grid.t_min", "grid.t_max"):
        if not cfg[key] > 0:
            raise ConfigError(f"{key} must be > 0, got {cfg[key]!r}", field=key)
    return np.linspace(cfg["grid.t_min"], cfg["grid.t_max"], cfg["grid.t_steps"])


# Starting and joining a two-worker pool, the import of
# concurrent.futures.process included, on a 2-core host: 27 ms median
# (23-33 ms) over trivial rows, and 23-50 ms of wall time over serial in
# sweep-zero-t and witness commands of 5 and 10 rows.
_POOL_START_S = 0.04
# The same finite-T rows ran 1.15x slower in a forked worker than in the
# parent process (188 against 161 ms).
_FORK_SLOWDOWN = 1.15
# Two processes of numpy work (150 products of 300x300 matrices each) ran
# 1.0-1.7x as fast as one on a shared 2-core host, from minute to minute:
# each worker is counted as 0.65 of a core, a little below the middle.
_WORKER_SHARE = 0.65


def _threads(cfg):
    available = os.cpu_count() or 1
    return min(cfg["threads"] or available, available)


def _pool_pays(row_s, rows, workers):
    """Whether a pool of ``workers`` is predicted to run ``rows`` rows faster than serial.

    Each row is taken to cost ``row_s`` here.  On the pool it costs
    ``_FORK_SLOWDOWN`` times that, spread over ``workers`` times
    ``_WORKER_SHARE`` cores, and the pool costs ``_POOL_START_S`` to start.
    """
    if workers < 2:
        return False
    serial = row_s * rows
    return _POOL_START_S + serial * _FORK_SLOWDOWN / (workers * _WORKER_SHARE) < serial


def _sweep(cfg, worker, tasks):
    """One row per task, written in task order.

    The first two rows run here and are timed.  The rest go to a process
    pool only when ``_pool_pays`` predicts, from the faster of the two times
    (one alone is too noisy), that the pool is faster; else they run here.
    """
    rows, row_s = [], []
    for task in tasks[:2]:
        start = time.perf_counter()
        rows.append(worker(task))
        row_s.append(time.perf_counter() - start)
    rest = tasks[2:]
    workers = min(_threads(cfg), len(rest))
    if _pool_pays(min(row_s), len(rest), workers):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # one chunk per worker: one round trip each, not one per row
            rows += pool.map(worker, rest, chunksize=-(-len(rest) // workers))
    else:
        rows += map(worker, rest)
    _write_csv(cfg["out"], rows, cfg["output.precision"])


def _format(value, precision):
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"%.{precision}g" % value
    return str(value)


def _write_csv(path, rows, precision):
    """Write dict rows, the first row's keys as header, atomically: no partial file on failure."""

    def emit(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_format(v, precision) for v in row.values()])

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
    from . import zerotemp

    omega, omega0, lam, n = task
    params = ModelParams(omega, omega0, lam, n)
    state = zerotemp.gaussian_ground_state(params)
    sep = zerotemp.matched_separable_state(params)
    return {
        "lambda": lam,
        "n_atoms": n,
        "temperature": 0.0,
        "phase": str(core.phase_zero_t(params)),
        "a": sep.a,
        "jz_per_atom": core.order_parameter_zero_t(params),
        "delta": zerotemp.overlap_zero_t(state, sep),
        "purity": zerotemp.reduced_atom_purity(state),
    }


def _finite_t_row(task):
    from . import thermal

    omega, omega0, lam, temp, n, quad_args = task
    params = ModelParams(omega, omega0, lam, n)
    quad = QuadratureSpec(*quad_args)
    point = thermal.ThermalPoint(params, 1.0 / temp)
    a = thermal.matched_a(point, quad)
    tc = core.critical_temperature(params)
    return {
        "lambda": lam,
        "temperature": temp,
        "n_atoms": n,
        "phase": str(core.phase_finite_t(params, temp)),
        "a": a,
        "jz_per_atom": a - 0.5,
        "delta": thermal.overlap_finite_t(point, a, quad),
        "tc_self_consistent": tc if tc is not None else float("nan"),
        "tc_resonant_line": core.reduced_critical_temperature(params),
        "validity_warning": temp < 0.1,
    }


def _witness_row(task):
    from . import witness

    omega, omega0, lam, temp, n, finite_n, quad_args = task
    params = ModelParams(omega, omega0, lam, n)
    if temp == 0.0:
        from . import zerotemp

        state = zerotemp.gaussian_ground_state(params)
        moments = zerotemp.collective_moments_zero_t(state, params)
    else:
        from . import thermal

        point = thermal.ThermalPoint(params, 1.0 / temp)
        moments = thermal.thermal_moments(point, QuadratureSpec(*quad_args))
    report = (witness.evaluate_finite_n if finite_n else witness.evaluate)(moments)
    row = {"lambda": lam, "temperature": temp, "n_atoms": n}
    row.update((f"lhs_{e.name}", e.lhs) for e in report.entries)
    row.update((f"violated_{e.name}", e.violated) for e in report.entries)
    row["any_violation"] = report.any_violation
    return row


def _oracle_ground_row(task):
    from . import oracle, zerotemp

    omega, omega0, lam, n, cutoff = task
    params = ModelParams(omega, omega0, lam, n)
    state_ed = oracle.exact_ground_state(params, cutoff)
    sep = zerotemp.matched_separable_state(params)
    delta_ed, _, _ = oracle.exact_overlap(state_ed, sep)
    delta_eff = zerotemp.overlap_for_params(params)
    abs_err = abs(delta_eff - delta_ed)
    return {
        "lambda": lam,
        "n_atoms": n,
        "cutoff": cutoff,
        "delta_effective": delta_eff,
        "delta_oracle": delta_ed,
        "abs_error": abs_err,
        "rel_error": abs_err / delta_ed if delta_ed else float("inf"),
        "jz_effective": core.order_parameter_zero_t(params),
        "jz_oracle": oracle.exact_moments(state_ed).first[2],
    }


def _oracle_thermal_row(task):
    from . import oracle, thermal

    omega, omega0, lam, beta, n, cutoff, quad_args = task
    params = ModelParams(omega, omega0, lam, n)
    # the oracle state first: an N over its capacity bound fails there with
    # CapacityError, before the quadratures underflow (near N = 1500)
    state = oracle.exact_thermal_state(params, cutoff, beta)
    sep = oracle.matched_separable_state(state)
    delta_ed, _, _ = oracle.exact_overlap(state, sep)
    quad = QuadratureSpec(*quad_args)
    point = thermal.ThermalPoint(params, beta)
    a = thermal.matched_a(point, quad)
    delta_quad = thermal.overlap_finite_t(point, a, quad)
    delta_split = oracle.split_overlap(params, cutoff, beta, SeparableState.from_a(a, n))
    m_quad = thermal.thermal_moments(point, quad)
    m_ed = oracle.exact_moments(state)
    moment_err = max(
        max(abs(x - y) for x, y in zip(m_quad.first, m_ed.first)),
        max(abs(x - y) for x, y in zip(m_quad.second, m_ed.second)),
    )
    abs_err = abs(delta_quad - delta_ed)
    return {
        "lambda": lam,
        "beta": beta,
        "n_atoms": n,
        "cutoff": cutoff,
        "delta_quadrature": delta_quad,
        "delta_oracle": delta_ed,
        "delta_split": delta_split,
        "abs_error": abs_err,
        "rel_error": abs_err / delta_ed if delta_ed else float("inf"),
        "jz_quadrature": thermal.thermal_jz(point, quad),
        "jz_oracle": m_ed.first[2],
        "max_moment_error": moment_err,
    }


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
    _sweep(cfg, _zero_t_row, tasks)


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
    _sweep(cfg, _finite_t_row, tasks)


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
    _sweep(cfg, _witness_row, tasks)


def cmd_oracle_compare(cfg):
    mode = cfg["oracle.mode"]
    n = _one_atom_count(cfg)
    cutoff = cfg["oracle.cutoff"]
    lams = _lambda_grid(cfg)
    if mode == "ground":
        tasks = [
            (cfg["model.omega"], cfg["model.omega0"], float(lam), n, cutoff)
            for lam in lams
        ]
        _sweep(cfg, _oracle_ground_row, tasks)
    elif mode == "thermal":
        betas = cfg["grid.beta_list"]
        quad_args = _quad_args(cfg)
        tasks = [
            (cfg["model.omega"], cfg["model.omega0"], float(lam), float(b), n, cutoff, quad_args)
            for lam in lams
            for b in betas
        ]
        _sweep(cfg, _oracle_thermal_row, tasks)
    else:
        raise ConfigError("oracle.mode must be ground or thermal", field="oracle.mode")


def cmd_scaling_fit(cfg):
    from . import zerotemp

    pipelines = [p.strip() for p in cfg["scaling.pipeline"].split(",") if p.strip()]
    if not pipelines:
        raise ConfigError("scaling.pipeline names no pipeline", field="scaling.pipeline")
    # t = 1 - lambda/lambda_c: the fit's grid lies strictly between 0 and lambda_c
    for key in ("scaling.t_min", "scaling.t_max"):
        if not 0 < cfg[key] < 1:
            raise ConfigError(f"{key} must lie in (0, 1), got {cfg[key]!r}", field=key)
    omega, omega0 = cfg["model.omega"], cfg["model.omega0"]
    if "closed_form" in pipelines and omega != omega0:
        raise ConfigError(
            f"the closed_form pipeline holds only at omega = omega0, got {omega!r} and {omega0!r}",
            field="scaling.pipeline",
        )
    t_grid = np.geomspace(cfg["scaling.t_max"], cfg["scaling.t_min"], cfg["scaling.points"])
    lc = core.critical_coupling(omega, omega0)
    lams = lc * (1.0 - t_grid)
    n = _one_atom_count(cfg)
    rows = []
    for pipeline in pipelines:
        if pipeline == "closed_form":
            # at omega = omega0 the ground state depends on lambda/omega alone
            deltas = [zerotemp.closed_form_overlap_normal(float(l) / omega) for l in lams]
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
        # stdout stays pure CSV when the CSV goes there
        print(
            f"{pipeline}: exponent = {fit.exponent:.6f} +- {fit.stderr:.6f} "
            f"(intercept {fit.intercept:.6f}, {len(lams)} points)",
            file=sys.stdout if cfg["out"] else sys.stderr,
        )
        for lam, t, delta, x, y, r in zip(
            lams, t_grid, deltas, fit.log_t, fit.neg_log_delta, fit.residuals
        ):
            rows.append({"pipeline": pipeline, "lambda": float(lam), "t": float(t), "delta": delta,
                         "neg_log_t": float(x), "neg_log_delta": float(y), "residual": float(r)})
    _write_csv(cfg["out"], rows, cfg["output.precision"])


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
        rows.append({
            "lambda": float(lam),
            "lambda_c": lc,
            "tc_self_consistent": tc if tc is not None else float("nan"),
            "tc_resonant_line": core.reduced_critical_temperature(params),
            "tc_tanh_form": tc_tanh if tc_tanh is not None else float("nan"),
        })
    _write_csv(cfg["out"], rows, cfg["output.precision"])


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
