"""Shared numerical kernels: bisection (``find_root``), golden-section
maximization (``golden_max``), the matrix-free photon (x) atom Hamiltonian
of both exact diagonalizations (``photon_atom_hamiltonian``), the symmetric
eigensolvers with the eigenvector sign convention (``lowest_eigenpair``:
numpy's ``eigh`` or a thick-restart Lanczos written in numpy), a weighted
log-sum-exp, and quadrature.  Everything here runs on numpy alone.

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
_KRYLOV_DIM = 64  # Lanczos vectors held at once; a cycle that fills them restarts
_RESTART_KEEP = 16  # Ritz vectors a restart keeps
_CHECK_EVERY = 8  # Lanczos steps between Ritz-residual checks
_LANCZOS_TOL = 1e-14  # Ritz residual, relative to the largest Ritz value in magnitude
_LANCZOS_MAX_STEPS = 20_000  # operator applications before a solve gives up


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


@dataclass(frozen=True)
class PhotonAtomOperator:
    """omega a'a (x) 1 + 1 (x) h_atom + coupling (a'+a) (x) v_atom, matrix-free.

    The photon mode keeps its lowest ``cutoff`` Fock levels; ``h_atom`` and
    ``v_atom`` are dense square atomic operators of one dimension d.  Basis
    ordering is photon-major: |m> (x) |n> has flat index m * d + n, so a
    vector is the (cutoff, d) grid psi[m, n] flattened.
    """

    omega: float
    cutoff: int
    h_atom: np.ndarray
    coupling: float
    v_atom: np.ndarray

    @property
    def shape(self):
        dim = self.cutoff * self.h_atom.shape[0]
        return dim, dim

    def matvec(self, x):
        """H x: omega m psi + psi h_atom^T + coupling (a'+a) psi v_atom^T on the grid psi of x."""
        psi = x.reshape(self.cutoff, -1)
        root = np.sqrt(np.arange(1.0, self.cutoff))[:, None]
        # ((a'+a) psi)[m] = sqrt(m) psi[m-1] + sqrt(m+1) psi[m+1]
        lifted = np.zeros_like(psi)
        lifted[1:] = root * psi[:-1]
        lifted[:-1] += root * psi[1:]
        photon = self.omega * np.arange(self.cutoff, dtype=float)[:, None]
        return (
            photon * psi + psi @ self.h_atom.T + self.coupling * (lifted @ self.v_atom.T)
        ).ravel()

    def toarray(self):
        """The dense matrix: the explicit np.kron sum."""
        ladder = np.diag(np.sqrt(np.arange(1.0, self.cutoff)), 1)
        photon_number = np.diag(np.arange(self.cutoff, dtype=float))
        return (
            self.omega * np.kron(photon_number, np.eye(self.h_atom.shape[0]))
            + np.kron(np.eye(self.cutoff), self.h_atom)
            + self.coupling * np.kron(ladder + ladder.T, self.v_atom)
        )


def photon_atom_hamiltonian(omega, cutoff, h_atom, coupling, v_atom):
    """The ``PhotonAtomOperator`` of omega a'a (x) 1 + 1 (x) h_atom + coupling (a'+a) (x) v_atom."""
    return PhotonAtomOperator(
        float(omega), int(cutoff), np.asarray(h_atom, dtype=float), float(coupling),
        np.asarray(v_atom, dtype=float),
    )


def _lanczos_lowest(matvec, start):
    """Smallest eigenpair by thick-restart Lanczos with full reorthogonalization.

    At most ``_KRYLOV_DIM`` Krylov vectors are held.  A cycle that fills
    them restarts from its ``_RESTART_KEEP`` lowest Ritz vectors and its
    last residual direction (Wu & Simon, SIAM J. Matrix Anal. Appl. 22,
    602 (2000)).  The projected matrix is read off the reorthogonalization
    coefficients, so it holds the restart's Ritz values and couplings with
    no special case.  Converged when the Ritz residual |beta s_last| is
    below ``_LANCZOS_TOL`` times the largest Ritz value in magnitude,
    checked every ``_CHECK_EVERY`` steps and before each restart; raises
    ``NumericalError`` after ``_LANCZOS_MAX_STEPS`` operator applications.
    """
    dim = len(start)
    # a start vector on a sector (an invariant subspace) spans no more than it
    krylov = np.empty((min(_KRYLOV_DIM, np.count_nonzero(start)), dim))
    projected = np.zeros((len(krylov), len(krylov)))
    krylov[0] = start / np.linalg.norm(start)
    size = 1
    for step in range(1, _LANCZOS_MAX_STEPS + 1):
        w = matvec(krylov[size - 1])
        held = krylov[:size]
        # full reorthogonalization, twice: once is not enough in rounding
        coefficients = held @ w
        w -= held.T @ coefficients
        correction = held @ w
        w -= held.T @ correction
        projected[size - 1, :size] = projected[:size, size - 1] = coefficients + correction
        b = float(np.linalg.norm(w))
        full = size == len(krylov)
        if full or b == 0.0 or step % _CHECK_EVERY == 0 or step == _LANCZOS_MAX_STEPS:
            vals, vecs = np.linalg.eigh(projected[:size, :size])
            if b * abs(vecs[-1, 0]) <= _LANCZOS_TOL * max(abs(vals[0]), abs(vals[-1])):
                ritz = vecs[:, 0] @ held
                return vals[0], ritz / np.linalg.norm(ritz)
            if full:
                keep = min(_RESTART_KEEP, size - 1)
                krylov[:keep] = vecs[:, :keep].T @ held
                projected[:] = 0.0
                projected[:keep, :keep] = np.diag(vals[:keep])
                size = keep
        krylov[size] = w / b
        size += 1
    raise NumericalError("Lanczos iteration did not converge", dim=dim)


def lowest_eigenpair(matrix, sector=None):
    """Lowest eigenvalue and eigenvector of a symmetric matrix.

    ``matrix`` is a dense array or an operator with ``shape``, ``matvec``
    and ``toarray`` (a ``PhotonAtomOperator``).  ``sector``, a boolean mask
    of basis states that the matrix leaves invariant (a symmetry block),
    restricts the solve to them; the returned vector is exactly zero
    outside it.  Dense input, and sectors no larger than ``_KRYLOV_DIM``,
    are solved with numpy's ``eigh``.  Larger operators use
    ``_lanczos_lowest`` from the uniform vector on the sector; both exact
    diagonalizations (the oracle's even-parity block and the truncated
    zero-T reference) take this path.  Sign convention: the first
    amplitude above 1e-10 of the largest is nonnegative.
    """
    dim = matrix.shape[0]
    keep = np.arange(dim) if sector is None else np.flatnonzero(sector)
    if hasattr(matrix, "matvec") and len(keep) > _KRYLOV_DIM:
        start = np.zeros(dim)
        start[keep] = 1.0
        value, vec = _lanczos_lowest(matrix.matvec, start)
    else:
        a = matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix, dtype=float)
        vals, vecs = np.linalg.eigh(a[np.ix_(keep, keep)])
        value, vec = vals[0], np.zeros(dim)
        vec[keep] = vecs[:, 0]
    significant = np.flatnonzero(np.abs(vec) > 1e-10 * np.abs(vec).max())
    if len(significant) and vec[significant[0]] < 0:
        vec = -vec
    return value, vec


def log_sum_exp(log_terms, weights=1.0, axis=None):
    """ln sum_i weights_i exp(log_terms_i) along ``axis``, for nonnegative weights.

    Shifted by the largest log-term of positive weight, so terms like
    exp(+-10^4) neither overflow nor all underflow.
    """
    log_terms = np.where(np.asarray(weights) > 0, log_terms, -np.inf)
    shift = log_terms.max(axis=axis, keepdims=True)
    total = (weights * np.exp(log_terms - shift)).sum(axis=axis)
    return np.log(total) + np.squeeze(shift, axis=axis)


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
