"""Shared numerical kernels: bisection (``find_root``), golden-section
maximization (``golden_max``), the photon (x) atom Hamiltonian of both
exact diagonalizations (``photon_atom_hamiltonian``), the symmetric
eigensolvers with the eigenvector sign convention (``lowest_eigenpair``:
LAPACK or plain Lanczos), and quadrature.

The quadrature routines integrate functions supplied as *log-integrands*
``x -> ln f(x)`` (vectorized over numpy arrays, returning -inf where f
vanishes).  Integration is windowed: a symmetric scan of ln f widens
until both its edges lie 80 nats below its maximum; every maximal run of
scan points within 60 nats of that maximum, widened by one scan point per
side, is a window; and each window is integrated by composite Simpson
with grid doubling until the Richardson error estimate |S_h - S_2h|/15
meets the relative tolerance.  All accumulation across windows happens in
log space, so integrands with values like exp(+-10^4) are handled without
overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, InvalidParameterError, NumericalError

_LOG_FLOOR = -745.0  # exp() underflows below this
_SCAN_POINTS = 4097
_SCAN_DECAY = 80.0  # required log-drop at the scan edges
_PEAK_KEEP = 60.0  # windows cover the scan points within this of the maximum
_KRYLOV_DIM = 20  # ARPACK's default Krylov size for one eigenpair


@dataclass(frozen=True)
class QuadratureSpec:
    """Node budget and relative tolerance for the quadratures."""

    max_nodes: int = 200_000
    rel_tol: float = 1e-9

    def __post_init__(self):
        if self.max_nodes < 64:
            raise InvalidParameterError(f"max_nodes must be >= 64, got {self.max_nodes}")
        if not (0.0 < self.rel_tol <= 1e-3):
            raise InvalidParameterError(f"rel_tol must be in (0, 1e-3], got {self.rel_tol}")


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


def photon_atom_hamiltonian(omega, cutoff, h_atom, coupling, v_atom):
    """CSR matrix of omega a'a (x) 1 + 1 (x) h_atom + coupling (a'+a) (x) v_atom.

    The photon mode keeps its lowest ``cutoff`` Fock levels; ``h_atom`` and
    ``v_atom`` are square atomic operators (dense or sparse) of one
    dimension d.  Basis ordering is photon-major: |m> (x) |n> has flat
    index m * d + n.
    """
    import scipy.sparse as sparse

    ladder = sparse.diags(np.sqrt(np.arange(1.0, cutoff)), 1)
    photon_number = sparse.diags(np.arange(cutoff, dtype=float))
    h = omega * sparse.kron(photon_number, sparse.identity(h_atom.shape[0]))
    h = h + sparse.kron(sparse.identity(cutoff), h_atom)
    h = h + coupling * sparse.kron(ladder + ladder.T, v_atom)
    return h.tocsr()


def lowest_eigenpair(matrix):
    """Lowest eigenvalue and eigenvector of a symmetric matrix.

    Dense input, and sparse input no larger than ARPACK's Krylov space, uses
    the LAPACK subset driver.  Larger sparse input uses plain Lanczos for
    the smallest algebraic eigenvalue, from a uniform start vector; both
    exact diagonalizations (the oracle's even-parity block and the
    truncated zero-T reference) take this path.  Sign convention: the
    first amplitude above 1e-10 of the largest is nonnegative.
    """
    # scipy is imported here: only the oracle and the truncated reference
    # call this, so the zero-T and finite-T CLI commands start on numpy alone
    import scipy.linalg
    import scipy.sparse as sparse

    if sparse.issparse(matrix) and matrix.shape[0] > _KRYLOV_DIM:
        import scipy.sparse.linalg as sparse_linalg

        dim = matrix.shape[0]
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        try:
            vals, vecs = sparse_linalg.eigsh(matrix, k=1, which="SA", tol=0, v0=v0)
        except sparse_linalg.ArpackNoConvergence as exc:
            raise NumericalError("Lanczos iteration did not converge", dim=dim) from exc
    else:
        a = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, dtype=float)
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


def _windows(log_f):
    """Integration windows (lo, hi, shift) from the scan of ``log_f``.

    Each window is a maximal run of scan points whose log-value lies within
    ``_PEAK_KEEP`` of the scan maximum, widened by one scan point per side;
    its shift is the run's largest scan value.  The scan edges lie
    ``_SCAN_DECAY`` below the maximum, so every run is interior.
    """
    xs, vals = _scan(log_f)
    keep = (vals > vals.max() - _PEAK_KEEP).astype(np.int8)
    steps = np.diff(keep)
    starts = np.flatnonzero(steps == 1) + 1
    stops = np.flatnonzero(steps == -1) + 1
    return [
        (xs[start - 1], xs[stop], vals[start:stop].max()) for start, stop in zip(starts, stops)
    ]


def _simpson(values, h):
    return (h / 3.0) * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-2:2].sum()
    )


def _integrate_window(log_f, lo, hi, shift, quad, budget, h_funcs):
    """Composite-Simpson integrals of w = exp(log_f - shift) and each h * w on one window.

    The shift (the window's peak log-value) stays fixed across grid
    refinements so successive Simpson sums share a common scale; the grid
    doubles until the Richardson estimate |S_h - S_2h|/15 of every integral
    is below ``rel_tol`` times the larger of its own and the base integral's
    magnitude.  Returns (integrals, nodes_used, err), base integral first.
    """
    n = 128
    prev = None
    used = 0
    while True:
        xs = np.linspace(lo, hi, n + 1)
        used += n + 1
        logs = np.asarray(log_f(xs), dtype=float)
        ys = np.exp(np.maximum(logs - shift, _LOG_FLOOR))
        step = (hi - lo) / n
        sums = np.array(
            [_simpson(ys, step)]
            + [_simpson(ys * np.asarray(h(xs), dtype=float), step) for h in h_funcs]
        )
        if prev is not None:
            errs = np.abs(sums - prev) / 15.0
            if np.all(errs <= quad.rel_tol * np.maximum(np.abs(sums), abs(sums[0]))):
                return sums, used, errs[0] / abs(sums[0]) if sums[0] else 0.0
        if used + 2 * n + 1 > budget:
            achieved = errs[0] / abs(sums[0]) if (prev is not None and sums[0]) else math.inf
            raise NumericalError(
                "quadrature tolerance not reached within the node budget",
                achieved=achieved,
                requested=quad.rel_tol,
                window=(lo, hi),
            )
        prev = sums
        n *= 2


def integrate(log_f, h_funcs, quad: QuadratureSpec = QuadratureSpec()):
    """(ln I, [integral(f h) / I for each h]) with I the integral of f = exp(log_f).

    ``log_f`` must decay at +-infinity (in practice a Gaussian envelope
    exp(-x^2/2) is folded in); the ``h_funcs`` are O(1)-bounded.
    """
    budget = quad.max_nodes
    shifts, sums = [], []
    for lo, hi, shift in _windows(log_f):
        window_sums, used, _ = _integrate_window(log_f, lo, hi, shift, quad, budget, h_funcs)
        budget -= used
        shifts.append(shift)
        sums.append(window_sums)
    top = max(shifts)
    totals = np.exp(np.array(shifts) - top) @ np.array(sums)
    if totals[0] <= 0.0:
        raise NumericalError("integral underflowed to zero on all windows")
    return float(top + math.log(totals[0])), [float(t / totals[0]) for t in totals[1:]]


def log_integral(log_f, quad: QuadratureSpec = QuadratureSpec()):
    """ln of the integral of f over the real line, given ln f."""
    return integrate(log_f, (), quad)[0]
