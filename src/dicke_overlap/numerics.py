"""Shared numerical kernels: bisection (``find_root``), golden-section
maximization (``golden_max``), the matrix-free photon (x) atom Hamiltonian
of both exact diagonalizations (``PhotonAtomOperator``), the symmetric
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

Each node is evaluated once.  The scan starts at span 8 with 4,096
intervals, and the central half of a doubled scan is every other point of
the one before, so a doubling evaluates only its two outer quarters.
Each Simpson doubling evaluates only its new odd nodes.  With ``even``,
the caller promises an even log-integrand and even h functions (in
practice computed from x only through x^2); then only the x <= 0 half of
the scan and of each window centred on 0 is evaluated and mirrored, and a
window shares its evaluations, reversed, with its mirror image (-hi, -lo).
Windows start at 128 intervals, so every node is an exact multiple of
span / 2^(18 + m) at 128 * 2^m intervals: reused and mirrored nodes are
exactly the ones a fresh grid would hold, and each Simpson sum still runs
forward over the same values, so the results are the same bit for bit.
The node budget counts every grid's nodes, evaluated or reused.  The scan
grids are built once and cached, and every array of nodes is read-only:
an integrand that writes into its argument raises ``ValueError``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, InvalidParameterError, NumericalError

_LOG_FLOOR = -745.0  # exp() underflows below this
_SCAN_POINTS = 4097
_SCAN_QUARTER = (_SCAN_POINTS - 1) // 4  # nodes a span doubling adds on each side
_SCAN_LEVELS = 18  # span doublings before the scan gives up
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


def traced_band(psi, weights):
    """Diagonals 0, 1 and 2 of sum_k w_k Tr_photon |psi_k><psi_k|, from amplitudes psi[m, n, k]."""
    d = psi.shape[1]
    return tuple((psi[:, : d - s] * psi[:, s:]).sum(axis=0) @ weights for s in (0, 1, 2))


@dataclass(frozen=True)
class PhotonAtomOperator:
    """omega a'a (x) 1 + 1 (x) h_atom + coupling (a'+a) (x) v_atom, matrix-free.

    The photon mode keeps its lowest ``cutoff`` Fock levels.  ``h_atom`` is
    the pair of diagonals, at offsets 0 and 2 (the second may be 0), and
    ``v_atom`` the offset-1 diagonal of real symmetric atomic bands on d
    levels.  In the photon-major basis, |m> (x) |n> at index m * d + n, H is
    a symmetric band too: the coupling sqrt(m + 1) v_n joins |m, n> to
    |m + 1, n + 1> (offset d + 1) and |m, n + 1> to |m + 1, n> (offset d - 1).
    """

    omega: float
    cutoff: int
    h_atom: tuple
    coupling: float
    v_atom: np.ndarray

    @property
    def shape(self):
        dim = self.cutoff * len(self.h_atom[0])
        return dim, dim

    @functools.cached_property
    def bands(self):
        """(diagonal, ((offset, diagonal), ...)) of H in the flat basis, zero diagonals left out."""
        c, (diagonal, second), d = self.cutoff, self.h_atom, len(self.h_atom[0])
        grids = np.zeros((4, c, d))
        grids[0] = self.omega * np.arange(c, dtype=float)[:, None] + diagonal
        grids[1, :, : d - 2] = second
        ladder = np.sqrt(np.arange(1.0, c))[:, None]
        grids[2, :-1, :-1] = grids[3, :-1, 1:] = self.coupling * (ladder * self.v_atom)
        flat = grids.reshape(4, -1)
        offsets = zip((2, d + 1, d - 1), flat[1:])
        return flat[0], tuple((k, f[: c * d - k]) for k, f in offsets if k and f.any())

    def matvec(self, x):
        """H x by one pair of slice multiply-adds per off-diagonal band."""
        diagonal, bands = self.bands
        out = diagonal * x
        for k, band in bands:
            out[: len(x) - k] += band * x[k:]
            out[k:] += band * x[: len(x) - k]
        return out

    def toarray(self):
        """The dense matrix, entry for entry the np.kron sum of the dense terms."""
        diagonal, bands = self.bands
        dense = np.diag(diagonal)
        for k, band in bands:
            dense += np.diag(band, k) + np.diag(band, -k)
        return dense


def _lanczos_lowest(matvec, start):
    """Smallest eigenpair by thick-restart Lanczos with full reorthogonalization.

    At most ``_KRYLOV_DIM`` Krylov vectors are held.  A cycle that fills
    them restarts from its ``_RESTART_KEEP`` lowest Ritz vectors and its
    last residual direction (Wu & Simon, SIAM J. Matrix Anal. Appl. 22,
    602 (2000)).  The projected matrix is read off the reorthogonalization
    coefficients, so it holds the restart's Ritz values and couplings with
    no special case.  Converged when the Ritz residual |beta s_last| is
    below ``_LANCZOS_TOL`` times the largest Ritz value in magnitude,
    checked every ``_CHECK_EVERY`` steps, before each restart, and once
    |beta| < ``_LANCZOS_TOL`` |H q|, where the Krylov space is invariant to
    rounding and a further vector would be noise; raises ``NumericalError``
    after ``_LANCZOS_MAX_STEPS`` operator applications.
    """
    dim = len(start)
    # a start vector on a sector (an invariant subspace) spans no more than it
    krylov = np.empty((min(_KRYLOV_DIM, np.count_nonzero(start)), dim))
    projected = np.zeros((len(krylov), len(krylov)))
    krylov[0] = start / np.linalg.norm(start)
    size = 1
    for step in range(1, _LANCZOS_MAX_STEPS + 1):
        w = matvec(krylov[size - 1])
        scale = np.linalg.norm(w)
        held = krylov[:size]
        # full reorthogonalization, twice: once is not enough in rounding
        coefficients = held @ w
        w -= held.T @ coefficients
        correction = held @ w
        w -= held.T @ correction
        projected[size - 1, :size] = projected[:size, size - 1] = coefficients + correction
        b = float(np.linalg.norm(w))
        full = size == len(krylov)
        invariant = b <= _LANCZOS_TOL * scale
        if full or invariant or step % _CHECK_EVERY == 0 or step == _LANCZOS_MAX_STEPS:
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


def _evaluate(fn, xs):
    """fn at the nodes ``xs``, made read-only first, as a float array."""
    xs.flags.writeable = False
    return np.asarray(fn(xs), dtype=float)


def _mirror(half):
    """Values along the last axis of a grid symmetric about 0 from those on its x <= 0 half.

    That half ends at the node x = 0, which is not repeated.
    """
    return np.concatenate((half, half[..., -2::-1]), axis=-1)


@functools.lru_cache(maxsize=_SCAN_LEVELS)
def _scan_grid(level):
    """The scan grid of span 8 * 2^level and the nodes of it that a scan evaluates.

    Returns (grid, fresh, fresh_even), all read-only.  Above level 0,
    ``fresh`` is the grid's outer quarters, since its central half is every
    other node of the grid one level down.  ``fresh_even`` is the x <= 0
    part of ``fresh``.
    """
    grid = np.linspace(-8.0 * 2.0**level, 8.0 * 2.0**level, _SCAN_POINTS)
    grid.flags.writeable = False
    if level == 0:
        return grid, grid, grid[: _SCAN_POINTS // 2 + 1]
    fresh = np.concatenate((grid[:_SCAN_QUARTER], grid[-_SCAN_QUARTER:]))
    fresh.flags.writeable = False
    return grid, fresh, grid[:_SCAN_QUARTER]


def _scan(log_f, even=False):
    """Expanding symmetric scan; returns (grid, values) with decayed edges."""
    for level in range(_SCAN_LEVELS):
        grid, fresh, fresh_even = _scan_grid(level)
        new = _evaluate(log_f, fresh_even if even else fresh)
        if level == 0:
            vals = _mirror(new) if even else new
        else:
            right = new[::-1] if even else new[_SCAN_QUARTER:]
            vals = np.concatenate((new[:_SCAN_QUARTER], vals[::2], right))
        top = vals.max()
        span = float(grid[-1])
        if not np.isfinite(top):
            raise NumericalError("log-integrand is -inf on the whole scan range", span=span)
        if max(vals[0], vals[-1]) < top - _SCAN_DECAY:
            return grid, vals
    raise NumericalError("log-integrand does not decay within the scan range", span=2.0 * span)


def _windows(log_f, even=False):
    """Integration windows (lo, hi, shift) from the scan of ``log_f``.

    Each window is a maximal run of scan points whose log-value lies within
    ``_PEAK_KEEP`` of the scan maximum, widened by one scan point per side;
    its shift is the run's largest scan value.  The scan edges lie
    ``_SCAN_DECAY`` below the maximum, so every run is interior.
    """
    xs, vals = _scan(log_f, even)
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


class _WindowNodes:
    """w = exp(log_f - shift) and each h * w on the Simpson grids of one window.

    ``level(m)`` holds them as the rows of one array, on the grid of
    n = 128 * 2^m intervals whose nodes arange(n + 1) * (hi - lo) / n + lo,
    the last one at hi, are np.linspace's.  Each node is evaluated once:
    level m + 1 evaluates only its odd nodes, and its even ones are level
    m's.  A ``centred`` window (lo = -hi) of an even integrand evaluates its
    x <= 0 half.
    """

    def __init__(self, log_f, h_funcs, lo, hi, shift, centred):
        self._log_f, self._h_funcs, self._shift = log_f, h_funcs, shift
        self._lo, self._hi, self._centred = lo, hi, centred
        self._levels = []

    def _values(self, xs):
        rows = np.empty((1 + len(self._h_funcs), len(xs)))
        np.exp(np.maximum(_evaluate(self._log_f, xs) - self._shift, _LOG_FLOOR), out=rows[0])
        for row, h in zip(rows[1:], self._h_funcs):
            np.multiply(rows[0], np.asarray(h(xs), dtype=float), out=row)
        return rows

    def level(self, m):
        while len(self._levels) <= m:
            depth = len(self._levels)
            n = 128 << depth
            half = n // 2
            step = (self._hi - self._lo) / n
            if depth == 0:
                xs = np.arange(half + 1 if self._centred else n + 1) * step + self._lo
                if not self._centred:
                    xs[-1] = self._hi
                new = self._values(xs)
                if self._centred:
                    new = _mirror(new)
            else:
                odd = self._values(np.arange(1, half if self._centred else n, 2) * step + self._lo)
                new = np.empty((len(odd), n + 1))
                new[:, ::2] = self._levels[-1]
                if self._centred:
                    new[:, 1:half:2], new[:, half + 1 :: 2] = odd, odd[:, ::-1]
                else:
                    new[:, 1::2] = odd
            self._levels.append(new)
        return self._levels[m]


def _integrate_window(nodes, lo, hi, mirrored, quad, budget):
    """Composite-Simpson integrals of w and each h * w on the window (lo, hi) of ``nodes``.

    ``mirrored``: the window is the mirror image (-hi, -lo) of the one
    ``nodes`` evaluates, whose values it reads reversed.  The shift (the
    window's peak log-value) stays fixed across grid refinements so
    successive Simpson sums share a common scale; the grid doubles until the
    Richardson estimate |S_h - S_2h|/15 of every integral is below
    ``rel_tol`` times the larger of its own and the base integral's
    magnitude.  Every grid counts its n + 1 nodes against ``budget``,
    evaluated or reused.  Returns (integrals, nodes_used), base integral
    first.
    """
    m = 0
    prev = None
    used = 0
    while True:
        n = 128 << m
        used += n + 1
        values = nodes.level(m)
        if mirrored:
            values = values[:, ::-1].copy()
        step = (hi - lo) / n
        sums = np.array([_simpson(v, step) for v in values])
        if prev is not None:
            errs = np.abs(sums - prev) / 15.0
            if np.all(errs <= quad.rel_tol * np.maximum(np.abs(sums), abs(sums[0]))):
                return sums, used
        if used + 2 * n + 1 > budget:
            achieved = errs[0] / abs(sums[0]) if (prev is not None and sums[0]) else math.inf
            raise NumericalError(
                "quadrature tolerance not reached within the node budget",
                achieved=achieved,
                requested=quad.rel_tol,
                window=(lo, hi),
            )
        prev = sums
        m += 1


def integrate(log_f, h_funcs, quad: QuadratureSpec = QuadratureSpec(), *, even=False):
    """(ln I, [integral(f h) / I for each h]) with I the integral of f = exp(log_f).

    ``log_f`` must decay at +-infinity (in practice a Gaussian envelope
    exp(-x^2/2) is folded in); the ``h_funcs`` are O(1)-bounded.  Both are
    called on read-only arrays.  ``even`` promises that ``log_f`` and every
    h are even functions of x, computed from x only through x^2: then only
    the x <= 0 half of the scan and of each window centred on 0 is
    evaluated, and a window shares its evaluations with its mirror image.
    The result is the same, bit for bit.
    """
    budget = quad.max_nodes
    shifts, sums, evaluated = [], [], {}
    for lo, hi, shift in _windows(log_f, even):
        mirror = evaluated.get((-hi, -lo, shift)) if even else None
        nodes = mirror or _WindowNodes(log_f, h_funcs, lo, hi, shift, centred=even and lo == -hi)
        evaluated[lo, hi, shift] = nodes
        window_sums, used = _integrate_window(nodes, lo, hi, mirror is not None, quad, budget)
        budget -= used
        shifts.append(shift)
        sums.append(window_sums)
    top = max(shifts)
    totals = np.exp(np.array(shifts) - top) @ np.array(sums)
    if totals[0] <= 0.0:
        raise NumericalError("integral underflowed to zero on all windows")
    return float(top + math.log(totals[0])), [float(t / totals[0]) for t in totals[1:]]


def log_integral(log_f, quad: QuadratureSpec = QuadratureSpec(), *, even=False):
    """ln of the integral of f over the real line, given ln f; ``even`` as for ``integrate``."""
    return integrate(log_f, (), quad, even=even)[0]
