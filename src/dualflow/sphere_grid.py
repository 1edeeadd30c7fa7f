"""Collocation grids on the parameter sphere.

Rotationally symmetric profiles live on a meridian grid.  Two layouts:

  * CircleGrid (n = 1): nodes theta_j = j * 2 pi / m on the full circle,
    periodic in theta.
  * AxisymGrid (n >= 2): cell-centered nodes theta_j = (j + 1/2) pi / m
    on (0, pi).  The poles are never collocation points; boundary
    closure comes from reflecting values across theta = 0 and theta =
    pi with a parity sign.  A profile that is smooth on the sphere is
    even at both poles, its theta derivative odd.

Both grids differentiate with centered fourth order stencils applied to
a two-ghost padded copy of the profile.  Quadrature returns integrals
over the whole parameter sphere: plain Riemann sums on the circle
(trapezoidal, hence spectrally accurate for periodic data), and exact
per-cell moments of the sin^(n-1) weight on the meridian so that
constants integrate to machine precision at any admissible m.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ReparametrizationError",
    "SphereGrid",
    "CircleGrid",
    "AxisymGrid",
    "make_grid",
    "sphere_area",
    "resample_monotone",
    "refine_extremum",
]

MIN_NODES = 16


class ReparametrizationError(RuntimeError):
    """A coordinate change lost strict monotonicity or left the chart."""


def sphere_area(n: int) -> float:
    """Surface measure of the round unit n-sphere."""
    if n < 0:
        raise ValueError("sphere dimension must be nonnegative")
    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


class SphereGrid:
    """Shared interface: nodes, padding, stencils, quadrature."""

    n: int
    m: int
    h: float
    theta: np.ndarray

    def pad(self, values: np.ndarray, parity: int = 1) -> np.ndarray:
        """Append two ghost nodes on each side of the last axis."""
        raise NotImplementedError

    def integrate(self, values: np.ndarray, parity: int = 1) -> float:
        raise NotImplementedError

    def d1(self, values: np.ndarray, parity: int = 1) -> np.ndarray:
        """First theta derivative, centered fourth order.

        Grouped as paired differences so constant fields map to exact
        zero instead of rounding residue.
        """
        p = self.pad(values, parity)
        return ((p[..., :-4] - p[..., 4:]) + 8.0 * (p[..., 3:-1] - p[..., 1:-3])) / (
            12.0 * self.h
        )

    def d2(self, values: np.ndarray, parity: int = 1) -> np.ndarray:
        """Second theta derivative, centered fourth order."""
        p = self.pad(values, parity)
        return (
            16.0 * (p[..., 1:-3] + p[..., 3:-1])
            - (p[..., :-4] + p[..., 4:])
            - 30.0 * p[..., 2:-2]
        ) / (12.0 * self.h * self.h)

    def _check(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.shape[-1] != self.m:
            raise ValueError(f"profile has {v.shape[-1]} nodes, grid has {self.m}")
        return v

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class CircleGrid(SphereGrid):
    """Full-circle grid for curves (n = 1); everything is periodic."""

    def __init__(self, m: int):
        m = int(m)
        if m < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes, got {m}")
        self.n = 1
        self.m = m
        self.h = 2.0 * math.pi / m
        self.theta = self.h * np.arange(m)

    def pad(self, values, parity: int = 1):
        v = self._check(values)
        return np.concatenate([v[..., -2:], v, v[..., :2]], axis=-1)

    def integrate(self, values, parity: int = 1) -> float:
        v = self._check(values)
        return float(self.h * v.sum(axis=-1))


# 12-point Gauss-Legendre rule; exact to rounding for the smooth cell
# moments below at every admissible resolution
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)


class AxisymGrid(SphereGrid):
    """Cell-centered meridian grid for rotationally symmetric profiles.

    Quadrature resolves the sin^(n-1) weight exactly on each cell and
    couples it to a second order Taylor expansion of the integrand
    around the cell center, using the grid's own stencils for the
    derivative terms.  Cell moments of orders 0..2 are precomputed.
    """

    def __init__(self, n: int, m: int):
        n, m = int(n), int(m)
        if n < 2:
            raise ValueError("meridian grid needs surface dimension n >= 2")
        if m < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes, got {m}")
        self.n = n
        self.m = m
        self.h = math.pi / m
        self.theta = self.h * (np.arange(m) + 0.5)
        t = self.theta[:, None] + 0.5 * self.h * _GL_X[None, :]
        w = 0.5 * self.h * _GL_W[None, :]
        s = np.sin(t) ** (n - 1)
        d = t - self.theta[:, None]
        self._w0 = (w * s).sum(axis=1)
        self._w1 = (w * s * d).sum(axis=1)
        self._w2 = (w * s * d * d).sum(axis=1)
        self._shell = sphere_area(n - 1)

    def pad(self, values, parity: int = 1):
        v = self._check(values)
        if parity not in (1, -1):
            raise ValueError("parity must be +1 or -1")
        s = float(parity)
        left = s * v[..., 1::-1]
        right = s * v[..., :-3:-1]
        return np.concatenate([left, v, right], axis=-1)

    def integrate(self, values, parity: int = 1) -> float:
        v = self._check(values)
        if v.ndim != 1:
            raise ValueError("integrate takes a single profile")
        vp = self.d1(v, parity)
        vpp = self.d2(v, parity)
        cells = v * self._w0 + vp * self._w1 + 0.5 * vpp * self._w2
        return float(self._shell * cells.sum())


def make_grid(n: int, m: int) -> SphereGrid:
    """Grid for n-dimensional rotationally symmetric hypersurfaces."""
    return CircleGrid(m) if int(n) == 1 else AxisymGrid(n, m)


def _window_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nodal derivatives from local quartic fits (shifted windows at the ends)."""
    m = x.size
    win = min(5, m)
    lo = np.clip(np.arange(m) - (win - 1) // 2, 0, m - win)
    idx = lo[:, None] + np.arange(win)[None, :]
    xs = x[idx] - x[:, None]
    scale = np.abs(xs).max(axis=1, keepdims=True)
    xs = xs / scale
    vand = xs[..., None] ** np.arange(win)
    coef = np.linalg.solve(vand, y[idx][..., None])
    return coef[:, 1, 0] / scale[:, 0]


def resample_monotone(x, y, xq) -> np.ndarray:
    """Shape-preserving interpolation of y(x) at query points xq.

    Piecewise cubic Hermite with quartic-window slope estimates run
    through a two-sided limiter: wherever the data is locally monotone
    the slopes obey the classical 3-delta bound, so no cell overshoots
    its data there and a graph resampled through a monotone coordinate
    change stays a graph.  Smooth data keeps the full fourth-order
    accuracy of the slope estimates.  The abscissae must be strictly
    increasing and must bracket every query; violations raise
    ReparametrizationError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xq = np.asarray(xq, dtype=float)
    if x.ndim != 1 or x.size < 4 or y.shape != x.shape:
        raise ReparametrizationError("need matching 1d samples, at least four of them")
    dx = np.diff(x)
    if not np.all(dx > 0.0):
        worst = float(dx.min())
        raise ReparametrizationError(
            f"abscissae must increase strictly (min spacing {worst:.3e})"
        )
    if xq.size and (xq.min() < x[0] or xq.max() > x[-1]):
        raise ReparametrizationError(
            f"query range [{xq.min():.6g}, {xq.max():.6g}] leaves the sampled "
            f"interval [{x[0]:.6g}, {x[-1]:.6g}]"
        )
    delta = np.diff(y) / dx
    d = _window_slopes(x, y)
    dl = np.concatenate([delta[:1], delta])
    dr = np.concatenate([delta, delta[-1:]])
    # the hard 3-delta bound applies only where four consecutive cell slopes
    # agree in sign; near a data extremum the bound would strangle accurate
    # slopes (the secant through the extremal cell can be arbitrarily small),
    # so there only a loose magnitude cap is kept
    s = np.sign(delta)
    sp = np.concatenate([s[:1], s[:1], s, s[-1:], s[-1:]])
    consensus = np.abs(np.lib.stride_tricks.sliding_window_view(sp, 4).sum(axis=1)) == 4
    # a zero cell whose neighbors slope in opposite directions is a
    # symmetric data extremum, not a flat run; only genuine flat runs
    # force a zero slope
    extremal_zero = np.zeros(delta.size, dtype=bool)
    extremal_zero[1:-1] = (delta[1:-1] == 0.0) & (delta[:-2] * delta[2:] < 0.0)
    flat_left = (dl == 0.0) & ~np.concatenate([extremal_zero[:1], extremal_zero])
    flat_right = (dr == 0.0) & ~np.concatenate([extremal_zero, extremal_zero[-1:]])
    cap = np.where(consensus,
                   3.0 * np.minimum(np.abs(dl), np.abs(dr)),
                   3.0 * np.maximum(np.abs(dl), np.abs(dr)))
    agrees = np.sign(d) * np.sign(dl) > 0.0
    d = np.where(consensus & ~agrees, 0.0, np.sign(d) * np.minimum(np.abs(d), cap))
    d = np.where(flat_left | flat_right, 0.0, d)

    j = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    t = (xq - x[j]) / dx[j]
    omt = 1.0 - t
    return ((1.0 + 2.0 * t) * omt * omt * y[j]
            + t * omt * omt * dx[j] * d[j]
            + t * t * (3.0 - 2.0 * t) * y[j + 1]
            + t * t * (t - 1.0) * dx[j] * d[j + 1])


# 24 times the inverse Vandermonde matrix of the offsets (-2, -1, 0, 1, 2):
# maps five samples to the rising-power coefficients of their quartic
_QUARTIC_24 = np.array([[0, 0, 24, 0, 0], [2, -16, 0, 16, -2], [-1, 16, -30, 16, -1],
                        [-2, 4, 0, -4, 2], [1, -4, 6, -4, 1]], dtype=float)


def _quartic_extremum(win: np.ndarray, want: float):
    """Best stationary point of the quartic through each row of five samples.

    Rows sit at the offsets (-2, -1, 0, 1, 2); want is +1 to seek a
    maximum, -1 a minimum.  The candidates are the center and the real
    stationary points within 1.2 spacings of it; a derivative below
    1e-13 (max |sample| + 1) is flat and leaves the center alone.
    Returns the offsets and values of the best candidates.
    """
    coef = (win[:, None, :] * _QUARTIC_24).sum(axis=-1) / 24.0
    der = coef[:, :0:-1] * np.array([4.0, 3.0, 2.0, 1.0])
    live = np.abs(der).max(axis=1) > 1e-13 * (np.abs(win).max(axis=1) + 1.0)
    der[~live] = 0.0
    # the stationary points are companion-matrix eigenvalues, as numpy's
    # roots finds them; each exact leading zero of der shrinks the companion block
    # by one, and the freed slots hold the root 8, outside any window
    j = np.arange(3)
    lead = (der == 0.0).cumprod(axis=1).sum(axis=1)
    comp = np.zeros((len(win), 3, 3))
    comp[:, j, j] = np.where(j < lead[:, None], 8.0, 0.0)
    comp[:, j[1:], j[:-1]] = j[:-1] >= lead[:, None]
    r = np.flatnonzero(lead < 3)
    o = lead[r]
    comp[r, o, :] = np.where(j >= o[:, None], -der[r, 1:] / der[r, o][:, None], 0.0)
    roots = np.concatenate([np.zeros((len(win), 1)), np.linalg.eigvals(comp)], axis=1)
    ok = (np.abs(roots.imag) < 1e-9) & (np.abs(roots.real) <= 1.2)
    cand = roots.real
    vals = np.zeros_like(cand)
    for c in coef[:, ::-1].T:
        vals = vals * cand + c[:, None]
    best = np.argmax(np.where(ok, want * vals, -np.inf), axis=1)[:, None]
    return np.take_along_axis(cand, best, 1)[:, 0], np.take_along_axis(vals, best, 1)[:, 0]


def refine_extremum(grid: SphereGrid, values, mode: str, parity: int = 1):
    """Sub-grid extremum of a profile by local quartic interpolation.

    mode is "max" or "min".  One profile (m,) gives (theta, value), where
    theta may fall between nodes or on a pole; a batch (S, m) gives the
    two arrays, row by row.  The discrete extremum alone is only second
    order accurate in h; the refined one tracks the smooth extremum to
    the interpolation order.  Every discrete local extremum is refined,
    because two lobes can rank otherwise once refined; the best refined
    one wins, the first on ties.
    """
    v = grid._check(np.asarray(values, dtype=float))
    if v.ndim not in (1, 2):
        raise ValueError("refine_extremum takes one profile or an (S, m) batch")
    want = {"max": 1.0, "min": -1.0}.get(mode)
    if want is None:
        raise ValueError(f"mode must be 'max' or 'min', not {mode!r}")
    w = want * grid.pad(np.atleast_2d(v), parity)
    c = w[:, 2:-2]
    peak = (c >= w[:, 1:-3]) & (c >= w[:, 3:-1])
    peak[np.arange(len(c)), np.argmax(c, axis=1)] = True
    r, i = np.nonzero(peak)
    off, val = _quartic_extremum(want * w[r[:, None], i[:, None] + np.arange(5)], want)
    k = np.lexsort((-want * val, r))
    k = k[np.r_[True, r[k][1:] != r[k][:-1]]]
    theta = grid.theta[i[k]] + off[k] * grid.h
    return (float(theta[0]), float(val[k][0])) if v.ndim == 1 else (theta, val[k])
