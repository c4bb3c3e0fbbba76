"""Shared numerical kernels: bisection (``find_root``), golden-section
maximization (``golden_max``), the symmetric eigensolvers with the
eigenvector sign convention (``lowest_eigenpair``), and quadrature.

The quadrature routines integrate functions supplied as *log-integrands*
``x -> ln f(x)`` (vectorized over numpy arrays, returning -inf where f
vanishes).  Integration is windowed: maxima of ln f are located by a
coarse scan plus golden-section refinement, each maximum gets a window of
+-``window_halfwidth_sigmas`` effective standard deviations (the
half-width at which ln f drops by 1/2), overlapping windows are merged,
and each window is integrated by composite Simpson with grid doubling
until the Richardson error estimate |S_h - S_2h|/15 meets the relative
tolerance.  All accumulation across windows happens in log space, so
integrands with values like exp(+-10^4) are handled without overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg
from scipy.special import logsumexp

from .errors import BracketError, InvalidParameterError, NumericalError

_LOG_FLOOR = -745.0  # exp() underflows below this
_SCAN_POINTS = 4097
_SCAN_DECAY = 80.0  # required log-drop at the scan edges
_PEAK_KEEP = 60.0  # discard maxima more than this far below the global one


@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget, relative tolerance, and window extent for the quadratures."""

    max_nodes: int = 200_000
    rel_tol: float = 1e-9
    window_halfwidth_sigmas: float = 8.0

    def __post_init__(self):
        if self.max_nodes < 64:
            raise InvalidParameterError(f"max_nodes must be >= 64, got {self.max_nodes}")
        if not (0.0 < self.rel_tol <= 1e-3):
            raise InvalidParameterError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol}")
        if self.window_halfwidth_sigmas <= 0:
            raise InvalidParameterError("window_halfwidth_sigmas must be positive")


def find_root(f, bracket, rel_width=1e-12, max_iter=200):
    """Bisection root of a continuous sign-changing f on ``bracket``.

    Deterministic; iterates until the bracket width is below
    ``rel_width * max(|lo|, |hi|, 1)``.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise InvalidParameterError(f"bracket must satisfy lo < hi, got {bracket}")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(
            f"no sign change on bracket [{lo}, {hi}]", bracket=(lo, hi), values=(flo, fhi)
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_width * max(abs(lo), abs(hi), 1.0):
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    raise NumericalError(
        f"bisection did not reach relative width {rel_width} in {max_iter} iterations",
        bracket=(lo, hi),
    )


def symmetric_eigendecomposition(matrix):
    """Full eigendecomposition of a real symmetric matrix (ascending eigenvalues).

    Delegates to LAPACK; this module is the only place the eigensolver
    dependency enters.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidParameterError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max() if a.size else 0.0
    if scale and np.abs(a - a.T).max() > 1e-10 * scale:
        raise InvalidParameterError("matrix is not symmetric")
    return np.linalg.eigh(a)


def lowest_eigenpair(matrix, sigma=None):
    """Lowest eigenvalue and eigenvector of a symmetric matrix.

    Dense input uses the LAPACK subset driver.  Sparse input uses
    shift-inverted Lanczos with a deterministic start vector; ``sigma``
    must then be a strict lower bound on the spectrum (for the quadratic
    mode Hamiltonians the Bogoliubov ground energy provides one).  Sign
    convention: the first amplitude above 1e-10 of the largest is
    nonnegative.
    """
    if sparse.issparse(matrix):
        if sigma is None:
            raise InvalidParameterError("sparse lowest_eigenpair requires a spectral lower bound")
        dim = matrix.shape[0]
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        try:
            vals, vecs = sparse_linalg.eigsh(
                matrix.tocsc(), k=1, sigma=sigma, which="LM", v0=v0, maxiter=10_000
            )
        except sparse_linalg.ArpackNoConvergence as exc:
            raise NumericalError("Lanczos iteration did not converge", sigma=sigma) from exc
    else:
        a = np.asarray(matrix, dtype=float)
        vals, vecs = scipy.linalg.eigh(a, subset_by_index=(0, 0))
    vec = vecs[:, 0]
    significant = np.flatnonzero(np.abs(vec) > 1e-10 * np.abs(vec).max())
    if len(significant) and vec[significant[0]] < 0:
        vec = -vec
    return vals[0], vec


def golden_max(f, lo, hi, tol=1e-11):
    """Golden-section maximization of a unimodal f on [lo, hi].

    Stops when the bracket is narrower than ``tol * max(1, |lo|, |hi|)``.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol * max(1.0, abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _scan(log_f):
    """Expanding symmetric scan; returns (grid, values) with decayed edges."""
    span = 8.0
    for _ in range(18):
        xs = np.linspace(-span, span, _SCAN_POINTS)
        vals = np.asarray(log_f(xs), dtype=float)
        top = vals.max()
        if not np.isfinite(top):
            raise NumericalError("log-integrand is -inf on the whole scan range", span=span)
        if max(vals[0], vals[-1]) < top - _SCAN_DECAY:
            return xs, vals
        span *= 2.0
    raise NumericalError("log-integrand does not decay within the scan range", span=span)


def _half_drop_width(log_f, x_peak, f_peak, step):
    """Distance from the peak at which ln f has dropped by >= 1/2, per side."""
    widths = []
    for direction in (-1.0, 1.0):
        delta = step
        for _ in range(80):
            if log_f(np.array([x_peak + direction * delta]))[0] <= f_peak - 0.5:
                break
            delta *= 2.0
        else:
            raise NumericalError("could not locate the half-drop width of a peak", x=x_peak)
        widths.append(delta)
    return widths[0], widths[1]


def _windows(log_f, quad: QuadratureSpec):
    """Merged integration windows around the maxima of ``log_f``."""
    xs, vals = _scan(log_f)
    spacing = xs[1] - xs[0]
    top = vals.max()
    interior = np.arange(1, len(xs) - 1)
    is_max = (vals[interior] >= vals[interior - 1]) & (vals[interior] >= vals[interior + 1])
    candidates = interior[is_max & (vals[interior] > top - _PEAK_KEEP)]
    if len(candidates) == 0:
        candidates = np.array([int(np.argmax(vals))])
    # collapse runs of adjacent flat grid maxima
    peaks = []
    for idx in candidates:
        if peaks and idx - peaks[-1] <= 1:
            continue
        peaks.append(int(idx))

    scalar_f = lambda x: float(log_f(np.array([x]))[0])
    k = quad.window_halfwidth_sigmas
    intervals = []
    for idx in peaks:
        lo = xs[max(idx - 1, 0)]
        hi = xs[min(idx + 1, len(xs) - 1)]
        x_peak = golden_max(scalar_f, lo, hi)
        f_peak = scalar_f(x_peak)
        w_lo, w_hi = _half_drop_width(log_f, x_peak, f_peak, max(spacing, 1e-8))
        intervals.append([x_peak - k * w_lo, x_peak + k * w_hi, f_peak])

    intervals.sort()
    merged = [intervals[0]]
    for lo, hi, f_peak in intervals[1:]:
        if lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
            merged[-1][2] = max(merged[-1][2], f_peak)
        else:
            merged.append([lo, hi, f_peak])
    return [tuple(w) for w in merged]


def _simpson(values, h):
    n = len(values)
    return (h / 3.0) * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    )


def _integrate_window(log_f, lo, hi, shift, quad, budget, extras=()):
    """Composite-Simpson integration of exp(log_f - shift) over one window.

    The shift (the window's peak log-value) stays fixed across grid
    refinements so successive Simpson sums share a common scale; the grid
    doubles until the Richardson estimate |S_h - S_2h|/15 is below
    ``rel_tol`` for the base integral and every extra factor
    h(x) * exp(log_f - shift).  Returns (S, extra_Ss, nodes_used, err).
    """
    n = 128
    prev = None
    prev_extras = None
    used = 0
    if not np.isfinite(shift):
        return 0.0, [0.0] * len(extras), 0, 0.0
    while True:
        xs = np.linspace(lo, hi, n + 1)
        used += n + 1
        logs = np.asarray(log_f(xs), dtype=float)
        ys = np.exp(np.maximum(logs - shift, _LOG_FLOOR))
        step = (hi - lo) / n
        s = _simpson(ys, step)
        s_extras = [_simpson(ys * np.asarray(h(xs), dtype=float), step) for h in extras]
        if prev is not None:
            err = abs(s - prev) / 15.0
            ok = err <= quad.rel_tol * abs(s) if s != 0.0 else prev == 0.0
            for se, pe in zip(s_extras, prev_extras):
                scale = max(abs(se), abs(s))
                ok = ok and abs(se - pe) / 15.0 <= quad.rel_tol * scale
            if ok:
                return s, s_extras, used, err / abs(s) if s else 0.0
        if used + 2 * n + 1 > budget:
            achieved = abs(s - prev) / (15.0 * abs(s)) if (prev is not None and s) else math.inf
            raise NumericalError(
                "quadrature tolerance not reached within the node budget",
                achieved=achieved,
                requested=quad.rel_tol,
                window=(lo, hi),
            )
        prev, prev_extras = s, s_extras
        n *= 2


def log_integral(log_f, quad: QuadratureSpec = QuadratureSpec()):
    """ln of the integral of f over the real line, given ln f.

    The caller guarantees decay at +-infinity (in practice a Gaussian
    envelope exp(-x^2/2) folded into ``log_f``).
    """
    windows = _windows(log_f, quad)
    budget = quad.max_nodes
    pieces = []
    for lo, hi, shift in windows:
        s, _, used, _ = _integrate_window(log_f, lo, hi, shift, quad, budget)
        budget -= used
        if s > 0.0:
            pieces.append(shift + math.log(s))
    if not pieces:
        raise NumericalError("integral underflowed to zero on all windows")
    return float(logsumexp(pieces))


def weighted_average(log_w, h_funcs, quad: QuadratureSpec = QuadratureSpec()):
    """Expectations of O(1)-bounded functions under the weight exp(log_w).

    Returns a list with one value per entry of ``h_funcs``:
    integral(w * h) / integral(w), evaluated on the windows of the weight
    with numerators and denominator accumulated on a common log scale.
    """
    windows = _windows(log_w, quad)
    budget = quad.max_nodes
    shifts, weights, extras = [], [], []
    for lo, hi, shift in windows:
        s, s_extras, used, _ = _integrate_window(
            log_w, lo, hi, shift, quad, budget, extras=h_funcs
        )
        budget -= used
        shifts.append(shift)
        weights.append(s)
        extras.append(s_extras)
    shifts = np.array(shifts)
    top = shifts.max()
    scale = np.exp(shifts - top)
    denom = float(np.dot(scale, weights))
    if denom <= 0.0:
        raise NumericalError("weight integral underflowed to zero")
    return [float(np.dot(scale, [e[i] for e in extras])) / denom for i in range(len(h_funcs))]
