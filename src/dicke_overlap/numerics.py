"""Shared numerical kernels: bisection (``find_root``), golden-section
maximization (``golden_max``), the matrix-free photon (x) atom Hamiltonian
of both exact diagonalizations (``PhotonAtomOperator``), the symmetric
eigensolvers with the eigenvector sign convention (``lowest_eigenpair``:
numpy's ``eigh`` or a thick-restart Lanczos written in numpy), a weighted
log-sum-exp, and quadrature.  Everything here runs on numpy alone.

The quadrature routines integrate functions supplied as *log-integrands*
``x -> ln f(x)`` (vectorized over numpy arrays, returning -inf where f
vanishes).  A symmetric scan of ln f on 4,097 equally spaced nodes doubles
its span from 8 until both its edges lie 80 nats below its maximum; the
central half of a doubled scan is every other node of the one before, so a
doubling evaluates only its outer quarters.  The integral is the trapezoid
rule on the scan's own nodes within 60 nats of the maximum, plus one node
on each side of each run of them, all shifted by the maximum, so values
like exp(+-10^4) neither overflow nor underflow.  For an integrand
analytic in the strip |Im x| < a, the rule's error falls like
exp(-2 pi a / h) with the spacing h (Trefethen & Weideman, SIAM Rev. 56,
385 (2014)).  The thermal weights are entire in x, since cosh(beta eps)
and sinh(beta eps) / eps are even in eps, and the moment integrands are
analytic for |Im x| < omega0 / (2 sqrt(s)), s = lambda^2 coth(beta omega/2) / N.

The rule on every other kept node, of twice the spacing, checks it: while
the two differ by more than ``rel_tol`` times the larger of the integral's
and the base integral's magnitude, the spacing halves on the kept
intervals alone (a valley between far peaks is never refined), evaluating
only their midpoints, and each rule is checked against the last.  The
node budget counts the nodes of every level, the first included, before
it evaluates them.  A non-smooth integrand converges only like h^2 and may
exhaust the budget: a ``NumericalError``, not a wrong number.  A NaN of
ln f at any node, of the scan or of a halving, raises a ``NumericalError``
that names it.  An oscillating one can alias alike onto both rules and pass the check; no
caller passes one.

At the m-th halving every node is an exact multiple of span / 2^(11 + m),
so refined nodes are np.linspace's and every node array is symmetric about
0 to the bit.  With ``even``, the caller promises an even log-integrand
and even h functions (in practice computed from x only through x^2), and
``_values`` evaluates the first half of each node array and mirrors it:
the results are the same bit for bit.  Scan grids are built once and
cached, and every array of nodes is read-only: an integrand that writes
into its argument raises ``ValueError``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, InvalidParameterError, NumericalError

_SCAN_POINTS = 4097
_SCAN_QUARTER = (_SCAN_POINTS - 1) // 4  # nodes a span doubling adds on each side
_SCAN_LEVELS = 18  # span doublings before the scan gives up
_SCAN_DECAY = 80.0  # required log-drop at the scan edges
_PEAK_KEEP = 60.0  # the quadrature keeps the scan nodes within this of the maximum
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


def traced_band(psi):
    """Diagonals 0, 1 and 2 of Tr_photon |psi><psi|, from amplitudes psi[m, n] or psi[m, n, k].

    With a state index k, each diagonal has one column per state.  The sum
    over the photon level m runs one level at a time, so no temporary is as
    large as psi.
    """
    d = psi.shape[1]
    bands = [psi[0, : d - s] * psi[0, s:] for s in (0, 1, 2)]
    for row in psi[1:]:
        for s, band in enumerate(bands):
            band += row[: d - s] * row[s:]
    return tuple(bands)


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
        index = np.arange(len(diagonal))
        for k, band in bands:
            dense[index[:-k], index[k:]] += band
            dense[index[k:], index[:-k]] += band
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


def _values(fn, xs, even):
    """fn at the nodes ``xs``, made read-only first, as a float array.

    With ``even``, ``xs`` is symmetric about 0 and fn is even: fn runs on
    the first half of ``xs``, the centre node included when there is one,
    and its values are mirrored onto the second half.
    """
    half = xs[: (len(xs) + 1) // 2] if even else xs
    half.flags.writeable = False
    values = np.asarray(fn(half), dtype=float)
    if even:
        values = np.concatenate((values, values[: len(xs) - len(half)][::-1]))
    return values


def _log_values(log_f, xs, even):
    """``_values`` of the log-integrand; a NaN among them raises ``NumericalError``."""
    values = _values(log_f, xs, even)
    nan = np.isnan(values)
    if nan.any():
        raise NumericalError("log-integrand is NaN", x=float(xs[np.argmax(nan)]))
    return values


@functools.lru_cache(maxsize=_SCAN_LEVELS)
def _scan_grid(level):
    """The scan grid of span 8 * 2^level and the nodes of it that a scan evaluates.

    Returns (grid, fresh), both read-only.  Above level 0, ``fresh`` is the
    grid's outer quarters, since its central half is every other node of
    the grid one level down.
    """
    grid = np.linspace(-8.0 * 2.0**level, 8.0 * 2.0**level, _SCAN_POINTS)
    grid.flags.writeable = False
    if level == 0:
        return grid, grid
    fresh = np.concatenate((grid[:_SCAN_QUARTER], grid[-_SCAN_QUARTER:]))
    fresh.flags.writeable = False
    return grid, fresh


def _scan(log_f, even=False):
    """Expanding symmetric scan; returns (grid, values) with decayed edges."""
    for level in range(_SCAN_LEVELS):
        grid, fresh = _scan_grid(level)
        new = _log_values(log_f, fresh, even)
        if level == 0:
            vals = new
        else:
            vals = np.concatenate((new[:_SCAN_QUARTER], vals[::2], new[_SCAN_QUARTER:]))
        top = vals.max()
        span = float(grid[-1])
        if not np.isfinite(top):
            raise NumericalError("log-integrand is -inf on the whole scan range", span=span)
        if max(vals[0], vals[-1]) < top - _SCAN_DECAY:
            return grid, vals
    raise NumericalError("log-integrand does not decay within the scan range", span=2.0 * span)


def integrate(log_f, h_funcs, quad: QuadratureSpec = QuadratureSpec(), *, even=False):
    """(ln I, [integral(f h) / I for each h]) with I the integral of f = exp(log_f).

    ``log_f`` must decay at +-infinity (in practice a Gaussian envelope
    exp(-x^2/2) is folded in), f and each f h must be analytic in a strip
    about the real axis (see the module notes), and the ``h_funcs`` are
    O(1)-bounded.  Both are called on read-only arrays.  ``even`` promises
    that ``log_f`` and every h are even in x, computed from x only through
    x^2: then half of every node array is evaluated, and the result is the
    same bit for bit.
    """
    grid, vals = _scan(log_f, even)
    top = vals.max()
    near = vals > top - _PEAK_KEEP
    kept = near.copy()  # every run widened by one node per side
    kept[1:] |= near[:-1]
    kept[:-1] |= near[1:]
    index = np.flatnonzero(kept)
    left = np.flatnonzero(kept[:-1] & kept[1:])  # the kept intervals, by their left node
    window = (float(grid[index[0]]), float(grid[index[-1]]))
    xs, logs = grid[index], vals[index]
    span, step = float(grid[-1]), float(grid[1] - grid[0])
    nodes = used = 0
    error = math.inf
    for level in itertools.count():
        nodes += len(xs)
        used += nodes
        if used > quad.max_nodes:
            raise NumericalError(
                "quadrature tolerance not reached within the node budget",
                achieved=error,
                requested=quad.rel_tol,
                window=window,
            )
        rows = np.empty((1 + len(h_funcs), len(xs)))
        np.exp(logs - top, out=rows[0])
        for row, h in zip(rows[1:], h_funcs):
            np.multiply(rows[0], _values(h, xs, even), out=row)
        sums = step * rows.sum(axis=1)
        if level:
            previous, total = total, 0.5 * total + sums
        else:  # every other kept node: the rule of twice the spacing on each run
            previous, total = 2.0 * step * rows[:, ::2].sum(axis=1), sums
        error = float(np.max(np.abs(total - previous) / np.maximum(np.abs(total), total[0])))
        if error <= quad.rel_tol:
            return float(top + math.log(total[0])), [float(t / total[0]) for t in total[1:]]
        # the midpoints of the kept intervals, odd nodes of the grid of half the spacing
        step /= 2.0
        xs = ((left[:, None] << level + 1) + np.arange(1, 2 << level, 2)).ravel() * step - span
        logs = _log_values(log_f, xs, even)


def log_integral(log_f, quad: QuadratureSpec = QuadratureSpec(), *, even=False):
    """ln of the integral of f over the real line, given ln f; ``even`` as for ``integrate``."""
    return integrate(log_f, (), quad, even=even)[0]
