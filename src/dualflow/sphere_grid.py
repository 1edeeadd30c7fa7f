"""Collocation grids on the parameter sphere.

Rotationally symmetric profiles live on a meridian grid.  Two layouts:

  * CircleGrid (n = 1): nodes theta_j = j * 2 pi / m on the full circle,
    periodic in theta.
  * AxisymGrid (n >= 2): cell-centered nodes theta_j = (j + 1/2) pi / m
    on (0, pi).  The poles are never collocation points; boundary
    closure comes from reflecting values across theta = 0 and theta =
    pi with a parity sign.  A profile that is smooth on the sphere is
    even at both poles, its theta derivative odd.

Each grid owns its symmetry: cyclic says which of the two it is, and
resample extends scattered samples by it before interpolating them onto
the nodes by one cubic Hermite rule with quartic-window slopes.  Both
grids differentiate with centered fourth order stencils applied to a
two-ghost padded copy of the profile, and band reads the stencils'
Jacobian pattern off that padding.  Quadrature over the whole parameter
sphere is one weight vector per grid, built on first read: h at each
node of the circle (trapezoidal, spectrally accurate for periodic data),
and on the meridian exact per-cell moments of the sin^(n-1) weight
folded through the stencils, so constants integrate to rounding.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

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
# the quintic through six equispaced samples, at their midpoint
_MIDPOINT = np.array([3.0, -25.0, 150.0, 150.0, -25.0, 3.0]) / 256.0


class ReparametrizationError(RuntimeError):
    """A coordinate change lost strict monotonicity or left the chart."""


def sphere_area(n: int) -> float:
    """Surface measure of the round unit n-sphere."""
    if n < 0:
        raise ValueError("sphere dimension must be nonnegative")
    try:  # from n = 343 on, the gamma function leaves the float range
        return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)
    except OverflowError:
        raise ValueError(f"the area of the unit {n}-sphere is not a finite float") from None


class SphereGrid:
    """Shared interface: nodes, padding, stencils, quadrature."""

    n: int
    m: int
    h: float
    theta: np.ndarray
    sin: np.ndarray  # sin(theta) and cos(theta), taken once per grid
    cos: np.ndarray
    cot: np.ndarray | None = None  # cot(theta), on a meridian grid
    cyclic: bool  # periodic in theta (the circle), or even at both poles
    weights: np.ndarray  # quadrature, built on first read: one per node

    def pad(self, values: np.ndarray, parity: int = 1) -> np.ndarray:
        """Append two ghost nodes on each side of the last axis: one gather
        through the grid's _pad_index, times its _odd_sign if parity is -1."""
        v = self._check(values)
        if parity not in (1, -1):
            raise ValueError("parity must be +1 or -1")
        p = v.take(self._pad_index, axis=-1)
        if parity < 0:
            p *= self._odd_sign
        return p

    def integrate(self, values: np.ndarray):
        """The integral over the sphere of a profile (a float), or of each
        row of a stack (an array)."""
        out = (self._check(values) * self.weights).sum(axis=-1)
        return float(out) if out.ndim == 0 else out

    def resample(self, x, y) -> np.ndarray:
        """Values y sampled at the increasing angles x, over one fundamental
        domain, extended by the grid's symmetry and resampled onto theta
        through resample_monotone, one row (N,) or a stack (S, N) of them."""
        raise NotImplementedError

    def band(self):
        """The stencils' Jacobian pattern, read off _pad_index: (cols,
        inside, colour).  cols[k, i] is the column node i's stencil reads at
        its k-th point; inside marks each column once per row (a meridian's
        mirrored pole ghosts fold back onto a node the row reads anyway).
        No two columns of one colour share a row (Curtis, Powell & Reid
        1974); on the circle the last m % w columns, w the stencil width,
        wrap onto the first and take colours of their own."""
        m, w = self.m, self._pad_index.size - self.m + 1
        pos = np.arange(w)[:, None] + np.arange(m)
        cols = self._pad_index[pos]
        inside = ((cols[:, None] == cols).sum(axis=0) == 1) | (cols == pos - w // 2)
        colour = np.arange(m) % w
        if self.cyclic:
            colour[m - m % w:] += w
        return cols, inside, colour

    def derivatives(self, values: np.ndarray, parity: int = 1):
        """First and second theta derivatives, centered fourth order, from
        one padded copy.  The first is grouped as paired differences so
        constant fields map to exact zero instead of rounding residue."""
        p = self.pad(values, parity)
        d1 = ((p[..., :-4] - p[..., 4:]) + 8.0 * (p[..., 3:-1] - p[..., 1:-3])) / (12.0 * self.h)
        d2 = (16.0 * (p[..., 1:-3] + p[..., 3:-1]) - (p[..., :-4] + p[..., 4:])
              - 30.0 * p[..., 2:-2]) / (12.0 * self.h * self.h)
        return d1, d2

    def axis_values(self, values: np.ndarray):
        """The profile, or each row of a stack, at theta = 0 and pi, where
        the surface meets the axis: a node's value, or the sixth-order
        midpoint (_MIDPOINT) of the six nodes around it, folded by symmetry;
        the gather (_axis_nodes) is built once per grid."""
        v = self._check(values)
        return [(v[..., i] * _MIDPOINT).sum(axis=-1) if np.ndim(i) else v[..., i]
                for i in self._axis_nodes]

    @cached_property
    def _axis_nodes(self):  # theta = 0, then pi: a node, or the six around a midpoint
        m, out = self.m, []
        for j in ((0, m) if self.cyclic else (-1, 2 * m - 1)):  # in half-nodes from node 0
            i = np.arange(j // 2 - 2, j // 2 + 4) % (2 * m)
            i = i % m if self.cyclic else np.minimum(i, 2 * m - 1 - i)
            out.append(i if j % 2 else j // 2)
        return out

    def _check(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.shape[-1] != self.m:
            raise ValueError(f"profile has {v.shape[-1]} nodes, grid has {self.m}")
        return v

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, m={self.m})"


class CircleGrid(SphereGrid):
    """Full-circle grid for curves (n = 1); everything is periodic."""

    cyclic = True

    def __init__(self, m: int):
        m = int(m)
        if m < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes, got {m}")
        self.n = 1
        self.m = m
        self.h = 2.0 * math.pi / m
        self.theta = self.h * np.arange(m)
        self.sin, self.cos = np.sin(self.theta), np.cos(self.theta)
        # the ghosts wrap around, and an odd profile changes no sign
        self._pad_index = np.arange(-2, m + 2) % m
        self._odd_sign = np.ones(m + 4)

    @cached_property
    def weights(self):
        return np.full(self.m, self.h)

    def resample(self, x, y):
        """Whole periods of samples are wrapped onto both ends, as many as
        it takes to leave three beyond each end of [0, 2 pi): a sample can
        sit several grid spacings from its node.  A stack wraps as many as
        its neediest row; windows that reach a query never see the extra."""
        x, y, per = np.asarray(x, dtype=float), np.asarray(y, dtype=float), 2.0 * math.pi
        lo = 3 + int((x - per >= self.theta[0]).sum(axis=-1).max())
        hi = 3 + int((x + per <= self.theta[-1]).sum(axis=-1).max())
        return resample_monotone(
            np.concatenate([x[..., -lo:] - per, x, x[..., :hi] + per], axis=-1),
            np.concatenate([y[..., -lo:], y, y[..., :hi]], axis=-1), self.theta)


# 12-point Gauss-Legendre rule; exact to rounding for the smooth cell
# moments below at every admissible resolution
_GL_X, _GL_W = np.polynomial.legendre.leggauss(12)


class AxisymGrid(SphereGrid):
    """Cell-centered meridian grid for rotationally symmetric profiles.

    Quadrature resolves the sin^(n-1) weight exactly on each cell and
    couples it to a second order Taylor expansion of the integrand
    around the cell center, using the grid's own stencils for the
    derivative terms; the weights fold the stencils into the cell
    moments of orders 0..2 once, on first read.
    """

    cyclic = False

    def __init__(self, n: int, m: int):
        n, m = int(n), int(m)
        if n < 2:
            raise ValueError("meridian grid needs surface dimension n >= 2")
        if m < MIN_NODES:
            raise ValueError(f"need at least {MIN_NODES} nodes, got {m}")
        self.n = n
        self.m = m
        self._area = sphere_area(n - 1)  # the weights' factor; raises past the float range
        self.h = math.pi / m
        self.theta = self.h * (np.arange(m) + 0.5)
        self.sin, self.cos = np.sin(self.theta), np.cos(self.theta)
        self.cot = self.cos / self.sin
        # the ghosts mirror the nodes nearest each pole, with the parity sign
        self._pad_index = np.concatenate(([1, 0], np.arange(m), [m - 1, m - 2]))
        self._odd_sign = np.ones(m + 4)
        self._odd_sign[[0, 1, -2, -1]] = -1.0

    @cached_property
    def weights(self):
        """The integral of each unit vector: its cell moments against its
        value and its stencil derivatives, times the (n-1)-sphere's area."""
        t = self.theta[:, None] + 0.5 * self.h * _GL_X[None, :]
        w = 0.5 * self.h * _GL_W[None, :]
        s = np.sin(t) ** (self.n - 1)
        d = t - self.theta[:, None]
        w0, w1, w2 = (w * s).sum(axis=1), (w * s * d).sum(axis=1), (w * s * d * d).sum(axis=1)
        eye = np.eye(self.m)
        vp, vpp = self.derivatives(eye)
        return self._area * (eye * w0 + vp * w1 + 0.5 * vpp * w2).sum(axis=-1)

    def resample(self, x, y):
        """The three samples nearest each pole are mirrored about it (theta
        to -theta and to 2 pi - theta); no pole value is fitted.  The
        window slopes of the mirrored samples are odd about the pole, so
        the cell across it keeps fourth order."""
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return resample_monotone(
            np.concatenate([-x[..., 2::-1], x, 2.0 * math.pi - x[..., :-4:-1]], axis=-1),
            np.concatenate([y[..., 2::-1], y, y[..., :-4:-1]], axis=-1), self.theta)


def make_grid(n: int, m: int) -> SphereGrid:
    """Grid for n-dimensional rotationally symmetric hypersurfaces."""
    return CircleGrid(m) if int(n) == 1 else AxisymGrid(n, m)


@lru_cache(maxsize=64)
def _windows(m: int):
    """The quartic windows of m samples (shifted at the ends): the index
    (5, m) of each node's window, its own place c in it as a (5, m) mask
    and as 1.0 there (0.0 elsewhere), and the (5, 5, 1) diagonal of a
    window."""
    win = min(5, m)
    lo = np.minimum(np.maximum(np.arange(m) - (win - 1) // 2, 0), m - win)
    idx = np.arange(win)[:, None] + lo
    own = idx == np.arange(m)
    out = idx, own, own.astype(float), np.eye(win)[:, :, None]
    for a in out:  # shared by every call: read only
        a.flags.writeable = False
    return out


def _window_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Nodal derivatives, row by row, of local quartic interpolants (shifted
    windows at the ends): the closed-form derivative of the window's
    Lagrange basis at its own node c (Fornberg 1988, Math. Comp. 51).
    Windows run down axis -2, so every product and sum runs over whole
    rows of nodes."""
    idx, own, one, diag = _windows(x.shape[-1])
    xw = x[..., idx]
    d = (xw[..., :, None, :] - xw[..., None, :, :]) + diag  # x_j - x_l, and 1 where l = j
    dc = (x[..., None, :] - xw) + one  # x_c - x_l, and 1 where l = c
    # y_j, j != c: prod_{l != j, c} (x_c - x_l) / prod_{l != j} (x_j - x_l)
    w = dc.prod(axis=-2, keepdims=True) / (dc * d.prod(axis=-2))
    # y_c: sum_{l != c} 1 / (x_c - x_l)
    w = np.where(own, (1.0 / dc - one).sum(axis=-2, keepdims=True), w)
    return (w * y[..., idx]).sum(axis=-2)


def resample_monotone(x, y, xq) -> np.ndarray:
    """Interpolation of y(x) at query points xq, over monotone abscissae.

    Piecewise cubic Hermite with the slopes of local quartic fits
    (_window_slopes): fourth order on smooth data.  No slope is limited,
    so data that is not smooth (a kink, a flat run joined to a curve)
    can overshoot between samples; every caller feeds samples of a
    smooth profile.  x and y are one row (N,) or a stack (S, N) sharing xq;
    each row's abscissae must be strictly increasing and must bracket
    every query; violations raise ReparametrizationError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xq = np.asarray(xq, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] < 4 or y.shape != x.shape:
        raise ReparametrizationError("need matching rows of samples, at least four in each")
    dx = x[..., 1:] - x[..., :-1]
    if not (dx > 0.0).all():
        worst = float(dx.min())
        raise ReparametrizationError(
            f"abscissae must increase strictly (min spacing {worst:.3e})"
        )
    lo, hi = max(x[..., 0].flat), min(x[..., -1].flat)  # the interval every row samples
    if xq.size and (xq.min() < lo or xq.max() > hi):
        raise ReparametrizationError(
            f"query range [{xq.min():.6g}, {xq.max():.6g}] leaves the sampled "
            f"interval [{lo:.6g}, {hi:.6g}]"
        )
    d = _window_slopes(x, y)
    j = np.array([np.searchsorted(r, xq, side="right") for r in x.reshape(-1, x.shape[-1])])
    j = np.minimum(j.reshape(x.shape[:-1] + xq.shape) - 1, x.shape[-1] - 2)  # bracketed: j >= 0
    row = (np.arange(len(x))[:, None],) if x.ndim == 2 else ()  # a stack's row index
    at, nxt = (*row, j), (*row, j + 1)
    h = dx[at]
    t = (xq - x[at]) / h
    omt, tt, t2 = 1.0 - t, t * t, 2.0 * t
    return ((1.0 + t2) * omt * omt * y[at]
            + t * omt * omt * h * d[at]
            + tt * (3.0 - t2) * y[nxt]
            + tt * (t - 1.0) * h * d[nxt])


# 24 times the inverse Vandermonde matrix of the offsets (-2, -1, 0, 1, 2):
# maps five samples to the rising-power coefficients of their quartic
_QUARTIC_24 = np.array([[0, 0, 24, 0, 0], [2, -16, 0, 16, -2], [-1, 16, -30, 16, -1],
                        [-2, 4, 0, -4, 2], [1, -4, 6, -4, 1]], dtype=float)
_SIN60 = 0.5 * math.sqrt(3.0)
# a cubic's coefficients over these are Blinn's A, B, C, D
_THIRDS = np.array([[1.0], [3.0], [3.0], [1.0]])
# a quartic's derivative weights, highest power first, and a window's offsets
_POWERS, _FIVE = np.array([4.0, 3.0, 2.0, 1.0]), np.arange(5)


def _stationary_points(der: np.ndarray) -> np.ndarray:
    """Real roots (N, 3) of the cubics der (N, 4), highest power first;
    NaN fills the slots of complex roots and of roots a lower degree lacks.

    A cubic A x^3 + 3B x^2 + 3C x + D takes Blinn's closed form ("How to
    solve a cubic equation", IEEE CG&A 2006-07): Cardano for one real
    root, the trigonometric form for three.  It runs on the cubic and on
    its reverse D x^3 + 3C x^2 + 3B x + A at once; the first gives the
    root of largest magnitude accurately, the second the smallest, so a
    nearly vanishing leading or constant coefficient costs no accuracy,
    and the middle root comes from the quadratic factor of those two.  A
    row with an exact leading zero takes the stable quadratic formula,
    which is the linear one when the next coefficient is zero too (Kahan,
    "To solve a real cubic equation", 1986).  Every root then gets one
    Newton step on its cubic.  The sign of der is fixed first, so -der
    has bitwise the roots of der.
    """
    k = (der * np.copysign(1.0, der[:, :1])).T
    A, B, C, D = abcd = k / _THIRDS
    # rows: the cubic's end (A, B, C), then its reverse's (D, C, B)
    X, Y, Z = abcd[::3], abcd[1:3], abcd[2:0:-1]
    Cb = X * Z - Y * Y
    AD, Y2 = A * D, 2.0 * Y
    d2 = AD - B * C
    Db = X * d2 - Y2 * Cb
    disc = 4.0 * Cb[0] * Cb[1] - d2 * d2
    one = disc < 0.0
    # each closed form runs only when some row takes it
    some, every = one.any(), one.all()
    nDb, nCb = -Db, -Cb
    if some:
        T0 = -np.copysign(np.abs(X) * np.sqrt(-disc), Db)
        T1 = T0 - Db
        p = np.cbrt(0.5 * T1)
        q = np.where(T1 == T0, -p, nCb / p)
        t = np.where(Cb <= 0.0, p + q, nDb / (p * p + q * q + Cb))
    if not every:
        th = np.abs(np.arctan2(X * np.sqrt(disc), nDb)) / 3.0
        r, c = 2.0 * np.sqrt(nCb), np.cos(th)
        x1, x3 = r * c, r * (-0.5 * c - _SIN60 * np.sin(th))
        # of the outer two roots of each end, the one farther from its shift
        trig = np.where(x1 + x3 > Y2, x1, x3)
        t = np.where(one, t, trig) if some else trig
    t = t - Y
    # the large root t0 / A, the small root D / t1, and the middle one of
    # the quadratic factor (A x - t0)(t1 x - D) = E x^2 + F x + G
    E, F, G = A * t[1], -t[0] * t[1] - AD, t[0] * D
    x = np.empty((3, len(der)))
    x[0], x[1], x[2] = t[0] / A, D / t[1], (C * F - B * G) / (C * E - B * F)
    if some:
        # one real root: the large one when B^3 D >= A C^3, else the small one
        small = one & (B * B * B * D < A * C * C * C)
        x[0, small] = x[1, small]
        x[1:, one] = np.nan
    # an exact leading zero: the stable quadratic formula
    quad = A == 0.0
    if quad.any():
        qd = -0.5 * (k[2] + np.copysign(np.sqrt(k[2] * k[2] - 4.0 * k[1] * k[3]), k[2]))
        x[0, quad], x[1, quad], x[2, quad] = (qd / k[1])[quad], (k[3] / qd)[quad], np.nan
    step = (((k[0] * x + k[1]) * x + k[2]) * x + k[3]) / ((3.0 * k[0] * x + 2.0 * k[1]) * x + k[2])
    return np.where(np.isfinite(step), x - step, x).T


def _quartic_extremum(win: np.ndarray, want: float):
    """Best stationary point of the quartic through each row of five samples.

    Rows sit at the offsets (-2, -1, 0, 1, 2); want is +1 to seek a
    maximum, -1 a minimum.  The candidates are the center and the real
    stationary points within 1.2 spacings of it, in closed form
    (_stationary_points); a derivative below 1e-13 (max |sample| + 1) is
    flat and leaves the center alone.  Returns the offsets and values of
    the best candidates.
    """
    coef = (win[:, None, :] * _QUARTIC_24).sum(axis=-1) / 24.0
    der = coef[:, :0:-1] * _POWERS
    live = np.abs(der).max(axis=1) > 1e-13 * (np.abs(win).max(axis=1) + 1.0)
    if not live.all():
        der[~live] = 0.0
    with np.errstate(all="ignore"):
        roots = _stationary_points(der)
    # a root out of reach, or missing (NaN), stands in as the center, which
    # comes first and so wins the tie
    cand = np.zeros((len(win), 4))
    cand[:, 1:] = np.where(np.abs(roots) <= 1.2, roots, 0.0)
    vals = np.zeros_like(cand)
    for c in coef.T[::-1, :, None]:
        vals = vals * cand + c
    rows, best = np.arange(len(win)), np.argmax(want * vals, axis=1)
    return cand[rows, best], vals[rows, best]


def refine_extremum(grid: SphereGrid, values, mode: str, *, carry=None):
    """Sub-grid extremum of a profile by local quartic interpolation.

    mode is "max" or "min".  One profile (m,) gives (theta, value), where
    theta may fall between nodes or on a pole; a batch (S, m) gives the
    two arrays, row by row.  The discrete extremum alone is only second
    order accurate in h; the refined one tracks the smooth extremum to
    the interpolation order.  Every discrete local extremum is refined,
    because two lobes can rank otherwise once refined; the best refined
    one wins, the first on ties.  A batch may carry rows (..., S, m) of
    other even fields, read at each row's winner through the winner's own
    quartic window; they come third, (..., S).
    """
    v = grid._check(np.asarray(values, dtype=float))
    if v.ndim not in (1, 2):
        raise ValueError("refine_extremum takes one profile or an (S, m) batch")
    want = {"max": 1.0, "min": -1.0}.get(mode)
    if want is None:
        raise ValueError(f"mode must be 'max' or 'min', not {mode!r}")
    p = grid.pad(np.atleast_2d(v))
    w = p if want > 0.0 else -p
    c = w[:, 2:-2]
    peak = (c >= w[:, 1:-3]) & (c >= w[:, 3:-1])
    peak[np.arange(len(c)), np.argmax(c, axis=1)] = True
    r, i = np.nonzero(peak)
    off, val = _quartic_extremum(p[r[:, None], i[:, None] + _FIVE], want)
    k = np.lexsort((-want * val, r))
    k = k[np.concatenate(([True], r[k][1:] != r[k][:-1]))]
    theta = grid.theta[i[k]] + off[k] * grid.h
    if carry is not None:  # the quartic's Lagrange weights at each winner's offset
        lagrange = np.vander(off[k], 5, increasing=True) @ _QUARTIC_24 / 24.0
        win = np.asarray(carry)[..., r[k, None], grid._pad_index[i[k, None] + _FIVE]]
        return theta, val[k], (win * lagrange).sum(axis=-1)
    return (float(theta[0]), float(val[k][0])) if v.ndim == 1 else (theta, val[k])
