"""Radial graphs over geodesic spheres in hyperbolic space.

A closed convex hypersurface containing the chart center is written as
{(u(xi), xi)} in polar coordinates, with u the geodesic distance from
the center.  All geometry reduces to the meridian profile u(theta):
the warped metric cosh-sinh factors make the shape operator diagonal
in the (theta, angular) frame, so principal curvatures are read off
without any eigen-decomposition.

The same kernel, with sinh and cosh trading places under a sign eps,
gives the curvatures of a stored de Sitter graph, so both sides of the
Gauss-map duality share one copy of each formula and one type,
Graph(grid, u, eps); the Gauss map (dualmap) reads each unit normal in
its node's own frame from the same warp factors (_warp).  Every geometry,
of one graph or of a stack, is one call of that kernel (_kappa) on a
stack, and a graph or flow state keeps only its geometry.

Computations run on the profile's grid; the Minkowski embedding into
R^{n+1,1} (time coordinate first, rotation axis last among the spatial
slots), positions and primal normals, is exposed for cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sphere_grid import SphereGrid, refine_extremum

__all__ = [
    "CausalityError",
    "Graph",
    "GraphGeometry",
    "geometry_of",
    "embed_arrays",
    "InballResult",
    "inradius_circumradius",
]


class CausalityError(RuntimeError):
    """A stored profile violates the spacelike gradient bound."""


class _Profile:
    """A profile u on a grid, of side eps: a Graph or a flow state, each of
    which builds and keeps its own geometry."""

    @property
    def u_star(self) -> np.ndarray:
        """The stored profile under its dual-side name."""
        return self.u


def _check_side(g) -> None:
    """The bounds of g's side on its profile: a finite positive radius, or a
    finite eigentime below the equatorial slice whose graph is spacelike,
    |u*'| / cosh u* < 1, read off its stencil derivative."""
    v = g.u
    if g.eps > 0:
        if not (np.isfinite(v).all() and (v > 0.0).all()):
            raise ValueError("radial profile must be finite and positive")
        return
    if not np.isfinite(v).all():
        raise ValueError("eigentime profile must be finite")
    if not (v < 0.0).all():
        raise ValueError("stored duals lie below the equatorial slice (u_star < 0)")
    slope = np.abs(g.grid.derivatives(v)[0]) / np.cosh(v)
    if slope.max() >= 1.0:
        raise CausalityError(f"graph is not spacelike: |D u_star| = {slope.max():.6f} "
                             f"at node {int(np.argmax(slope))}")


@dataclass(frozen=True)
class Graph(_Profile):
    """A warped radial graph over the grid, on either side of the duality.

    eps = +1: the geodesic radius u > 0 of a closed hypersurface in
    H^{n+1} around the center.  eps = -1: the stored eigentime u* < 0 of
    a spacelike graph in de Sitter space (switched convention), which
    must obey the spacelike bound |D u*| = |u*'| / cosh u* < 1
    (_check_side).  geometry is built on first read and kept.
    """

    grid: SphereGrid
    u: np.ndarray
    eps: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.u, dtype=float)
        if v.shape != (self.grid.m,):
            raise ValueError(f"profile shape {v.shape} does not match grid m={self.grid.m}")
        object.__setattr__(self, "u", v)
        _check_side(self)

    @cached_property
    def geometry(self) -> GraphGeometry:
        return geometry_of(self)


# the former name of the primal graph class, kept because perfbench/workloads.py
# builds its graphs by it
HyperbolicGraph = Graph


@dataclass(frozen=True)
class GraphGeometry:
    """Pointwise first/second fundamental data of a warped radial graph.

    kappa holds one row per node: column 0 the profile curvature, the
    remaining n-1 columns the (repeated) angular curvature.  slope is
    the graph slope u'/S and v the graph factor (see _curvatures).
    """

    slope: np.ndarray
    v: np.ndarray
    kappa: np.ndarray
    H: np.ndarray
    normA2: np.ndarray
    convex: bool
    F_value: np.ndarray | None = None


def _warp(u, eps):
    """Warping factor S and its derivative C: (sinh u, cosh u) for eps = +1,
    (cosh u*, sinh u*) for eps = -1.  eps is a float, or an array of signs
    that broadcasts against u, one side per row of a stack."""
    if isinstance(eps, np.ndarray):
        sh, ch, primal = np.sinh(u), np.cosh(u), eps > 0
        return np.where(primal, sh, ch), np.where(primal, ch, sh)
    return (np.sinh(u), np.cosh(u)) if eps > 0 else (np.cosh(u), np.sinh(u))


def _curvatures(u, u_th, u_thth, cot, eps, n: int):
    """Slope, graph factor and principal curvatures of a warped radial graph.

    eps = +1 is a radial graph u in H^{n+1}; eps = -1 a stored spacelike
    graph u* < 0 in de Sitter space (switched light cone, past-directed
    normal), where sinh and cosh trade places and the graph factor turns
    Lorentzian.  With (S, C) from _warp, slope = u'/S and
    v^2 = 1 + eps slope^2, the diagonal shape operator reads

        kappa_profile = (eps C - slope'/v^2) / (v S),
        kappa_angular = (eps C - cot(theta) slope) / (v S).

    Returns (slope, v, kappa), kappa of shape u.shape + (n,): column 0
    the profile curvature, the other n-1 the angular one (cot is unused
    for curves, n = 1).  With an array of signs (_warp) each row is read
    on its own side, bit for bit its one-sided call.  Nothing is checked.
    """
    S, C = _warp(u, eps)
    slope = u_th / S
    slope_th = u_thth / S - u_th * u_th * C / (S * S)
    if isinstance(eps, np.ndarray):
        v, eps_C = np.sqrt(1.0 + eps * slope * slope), eps * C
    else:  # eps = +-1.0: the products by it are exact, and go
        v = np.sqrt(1.0 + slope * slope if eps > 0 else 1.0 - slope * slope)
        eps_C = C if eps > 0 else -C
    v_S = v * S
    kappa = np.empty(np.shape(u) + (n,))
    kappa[..., 0] = (eps_C - slope_th / (v * v)) / v_S
    if n > 1:
        kappa[..., 1:] = ((eps_C - cot * slope) / v_S)[..., None]
    return slope, v, kappa


def _kappa(grid: SphereGrid, u: np.ndarray, eps):
    """_curvatures of one profile (m,) or of a stack (..., m) on the grid."""
    return _curvatures(u, *grid.derivatives(u), grid.cot, eps, grid.n)


def geometry_of(g, F=None):
    """Graph factor, principal curvatures and curvature invariants.

    g is a Graph or a flow state.  Non-convex output is legal: callers
    read the convex flag.  When a curvature function F is
    supplied the nodewise values of its side's speed F(kappa^eps)^eps are
    attached (only if the graph is strictly convex): F on a primal graph,
    the dual speed 1 / F(1 / kappa) on a de Sitter graph.

    One graph gives one GraphGeometry, and a sequence of them on one grid
    and one side a list; either is one stack: one _kappa call, and one
    speed call on the convex rows.
    """
    one = hasattr(g, "grid")
    gs = [g] if one else list(g)
    if not gs:
        return []
    grid, eps = gs[0].grid, gs[0].eps
    slope, v, kappa = _kappa(grid, np.stack([x.u for x in gs]), eps)
    convex = (kappa > 0.0).all(axis=(1, 2))
    speed = iter(F._side_value(F._check(kappa[convex]), eps)
                 if F is not None and convex.any() else ())
    out = [GraphGeometry(slope=a, v=b, kappa=k, H=h, normA2=a2, convex=bool(ok),
                         F_value=next(speed) if F is not None and ok else None)
           for a, b, k, h, a2, ok in zip(slope, v, kappa, kappa.sum(axis=2),
                                         (kappa * kappa).sum(axis=2), convex)]
    return out[0] if one else out


def embed_arrays(g: Graph):
    """All node positions and exterior unit normals as (m, n+2) arrays.

    X = (cosh u, sinh u * omega) with omega = (sin theta, 0.., cos theta)
    the unit direction on S^n, and nu = (sinh u, cosh u omega - slope
    omega') / v, a point of de Sitter space.  The meridian plane sits in
    the sin slot 1 and the axis slot n+1.
    """
    geo = g.geometry
    grid, su, cu = g.grid, np.sinh(g.u), np.cosh(g.u)
    slope, v, st, ct = geo.slope, geo.v, grid.sin, grid.cos
    X = np.zeros((grid.m, grid.n + 2))
    nu = np.zeros((grid.m, grid.n + 2))
    X[:, 0], X[:, 1], X[:, -1] = cu, su * st, su * ct
    nu[:, 0], nu[:, 1], nu[:, -1] = su / v, (cu * st - slope * ct) / v, (cu * ct + slope * st) / v
    return X, nu


@dataclass(frozen=True)
class InballResult:
    """Axis-centered inball and circumball radii, the inball offset, and
    whether an offset scan that was not unimodal forced the dense scan."""

    rho_minus: float
    rho_plus: float
    center_offset: float
    dense_fallback: bool = False


# points per scan of the axis offset, and per dense scan once a coarse scan
# is not unimodal; the zoom ends when the offset bracket is below _TOL
_SCAN, _DENSE, _TOL = 41, 2001, 1e-9
# doubles in one stacked distance array: a block of states scans together as
# long as its (states, 2 sides, _SCAN offsets, m nodes) array fits, and a
# chunk of states zooms together as long as its (states, 2 sides, m nodes)
# array of each new offset does
_BLOCK = 1 << 15


def _hoist(grid: SphereGrid, u: np.ndarray) -> np.ndarray:
    """What _score reads of the profiles u (S, m), once for the scans and
    every zoom round: rows (S, 2m + 2) of cosh u, sinh u cos(theta) and the
    two axis crossings."""
    return np.concatenate([np.cosh(u), np.sinh(u) * grid.cos,
                           np.stack(grid.axis_values(u), axis=1)], axis=1)


def _score(grid: SphereGrid, c: np.ndarray, s: np.ndarray):
    """Least distance (side 0) and minus the largest (side 1) from the
    offsets s (S, 2, K) to the profiles of the _hoist rows c, both to be
    maximized, in one refine call; s (S, 1, K) gives both sides one set of
    offsets and one distance array.  The least is capped by the distances
    to the two axis crossings, which the nodes miss where sinh(u) h is large.
    Each score (S, 2, K) comes with its slope in s and the refined angle of
    its winner, NaN on an active cap (of slope -1 or +1).  The slope is the
    winner's quartic through the distances' slopes, d/ds cosh d = cosh u
    sinh s - sinh u cos(theta) cosh s over sinh d: the refined score's own
    slope, as the winner is stationary in theta (the envelope theorem)."""
    (S, sides, K), m = s.shape, grid.m
    x = s.reshape(S, sides * K, 1)
    ch, sh = np.cosh(x), np.sinh(x)
    coshd = np.clip(c[:, None, :m] * ch - c[:, None, m:2 * m] * sh, 1.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):  # a node on the axis point
        slope = (c[:, None, :m] * sh - c[:, None, m:2 * m] * ch) / np.sqrt(coshd * coshd - 1.0)
    d, slope = (np.concatenate([y[:, :1], -y[:, -1:]], axis=1).reshape(-1, m)  # the least, and
                for y in (np.arccosh(coshd).reshape(S, sides, K, m),  # minus the largest
                          slope.reshape(S, sides, K, m)))
    t, f, g = (y.reshape(S, 2, K) for y in refine_extremum(grid, d, "min", carry=slope))
    top, bottom = c[:, -2, None] - s[:, 0], c[:, -1, None] + s[:, 0]
    cap = np.minimum(top, bottom)
    on = cap < f[:, 0]
    f[:, 0] = np.minimum(f[:, 0], cap)
    g[:, 0] = np.where(on, np.where(top < bottom, -1.0, 1.0), g[:, 0])
    t[:, 0] = np.where(on, np.nan, t[:, 0])
    return f, g, t


def _bracket(s: np.ndarray, f: np.ndarray, g: np.ndarray, t: np.ndarray):
    """Per state and side of scans s, f and their slopes g and angles t (S,
    2, K): the best score and its offset, and the zoom's two ends (S, 2, 2,
    4), each an (offset, score, slope, angle): the best offset and the
    neighbour its slope points to (the best one alone at a scan's end)."""
    k = np.argmax(f, axis=-1)[..., None]
    up = np.take_along_axis(g, k, -1) >= 0.0
    j = np.clip(np.concatenate([k - ~up, k + up], axis=-1), 0, s.shape[-1] - 1)
    ends = np.stack([np.take_along_axis(x, j, -1) for x in (s, f, g, t)], axis=-1)
    return np.take_along_axis(f, k, -1)[..., 0], np.take_along_axis(s, k, -1)[..., 0], ends


def _coarse_scan(grid: SphereGrid, c: np.ndarray):
    """The _SCAN-point scans of the _hoist rows c, one block scanning
    together, both sides on one set of offsets: per state and side the best
    score, its offset and the bracket around it, and per state whether a
    scan was not unimodal, which takes the _DENSE-point scan alone."""
    lo, hi = 1e-9 - c[:, -1], c[:, -2] - 1e-9  # inside the axis crossings
    s = np.linspace(lo, hi, _SCAN, axis=-1)[:, None, :]
    f, g, t = _score(grid, c, s)
    rise = np.diff(f, axis=-1)
    fallback = ~np.where(np.arange(_SCAN - 1) < np.argmax(f, axis=-1)[..., None],
                         rise >= -1e-7, rise <= 1e-7).all(axis=(1, 2))
    found = _bracket(s, f, g, t)
    for i in np.flatnonzero(fallback):
        sd = np.linspace(lo[i], hi[i], _DENSE)[None, None, :]
        for x, y in zip(found, _bracket(sd, *_score(grid, c[i:i + 1], sd))):
            x[i] = y[0]
    return (*found, fallback)


def _zoom(grid: SphereGrid, c: np.ndarray, best, at, ends) -> None:
    """Zoom each side of the _hoist rows c in on its best offset, in place,
    one chunk of states together, closing its bracket ends (_bracket) by
    the sign of the slope: a left end of slope >= 0, a right end of slope
    < 0.  Each round proposes the model's optimum: where the ends' tangents
    cross if they sit on different lobes (angles more than 2h apart, or a
    cap), else the zero of the slope secant, clamped into the bracket; or
    the midpoint, once a round has not halved the bracket.  A second offset
    beyond it, toward the farther end, by as far as the model point moved
    since the last model round or overshot the bracket, closes the bracket
    from the other side (after Brent 1973, ch. 5).  Both take one refine
    call.  at and best keep the best offset seen and its score; a state
    leaves once both its brackets are below _TOL."""
    prev, bisect = at.copy(), np.zeros(at.shape, dtype=bool)
    live = np.flatnonzero(np.ptp(ends[..., 0], axis=-1).max(axis=1) > _TOL)
    while live.size:
        e = ends[live]
        (L, R), (fL, fR), (gL, gR), (tL, tR) = np.moveaxis(e, (-1, -2), (0, 1))  # views of e
        half = 0.5 * (R - L)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(np.abs(tL - tR) <= 2.0 * grid.h, (L * gR - R * gL) / (gR - gL),
                         (fR - fL + gL * L - gR * R) / (gL - gR))
        x = np.where(bisect[live] | np.isnan(x), 0.5 * (L + R), x)
        x, over = np.clip(x, L, R), x  # the model's overshoot bounds its error
        step = np.maximum(np.maximum(np.abs(x - prev[live]), np.abs(over - x)), 0.5 * _TOL)
        s = np.stack([x, np.clip(x + np.copysign(step, L + R - 2.0 * x), L, R)], axis=-1)
        f, g, t = _score(grid, c[live], s)
        for p in np.moveaxis(np.stack([s, f, g, t], axis=-1), 2, 0):  # model, then closing
            inside = ((e[..., 0, 0] <= p[..., 0]) & (p[..., 0] <= e[..., 1, 0]))[..., None]
            right = (p[..., 2] < 0.0)[..., None]
            e[..., 0, :] = np.where(inside & ~right, p, e[..., 0, :])
            e[..., 1, :] = np.where(inside & right, p, e[..., 1, :])
        k = np.argmax(f, axis=-1)[..., None]
        fk, sk = (np.take_along_axis(y, k, -1)[..., 0] for y in (f, s))
        better = fk > best[live]
        at[live], best[live] = np.where(better, sk, at[live]), np.where(better, fk, best[live])
        ends[live], prev[live] = e, np.where(bisect[live], prev[live], x)
        width = np.ptp(e[..., 0], axis=-1)
        bisect[live] = ~bisect[live] & (width > half)
        live = live[width.max(axis=1) > _TOL]


def inradius_circumradius(g):
    """Largest inscribed and smallest enclosing balls centered on the axis.

    The inradius maximizes over the axis offset the least distance to the
    nodes, the circumradius minimizes the largest; each distance is
    refined below grid resolution by local interpolation.  One _SCAN-point
    scan of the offsets between the surface's two axis crossings serves
    both sides and brackets each side's best offset by its slope; then
    _zoom closes each bracket from both ends, two new offsets per side and
    round, keeping the best offset seen, until it is below _TOL.
    dense_fallback flags that a side's coarse scan was not unimodal; a
    _DENSE-point scan then picks the basins before the zoom.

    g is one graph (or state), which gives one InballResult, or a sequence
    of them on one grid, which gives a list.  A sequence takes its coarse
    scans in blocks of states, one refine call per block, and its zoom in
    chunks of states, one refine call per round, each as large as keeps a
    stacked distance array within _BLOCK doubles.  A state whose coarse
    scan is not unimodal takes its dense scan alone, and a state leaves the
    zoom on its own brackets, so each result is the one its state gets
    alone.
    """
    one = hasattr(g, "grid")
    gs = [g] if one else list(g)
    if not gs:
        return []
    grid = gs[0].grid
    c = _hoist(grid, np.stack([x.u for x in gs]))
    size = max(1, _BLOCK // (2 * _SCAN * grid.m))
    best, at, ends, fallback = map(np.concatenate, zip(*(
        _coarse_scan(grid, c[i:i + size]) for i in range(0, len(c), size))))
    size = max(1, _BLOCK // (2 * grid.m))
    for i in range(0, len(c), size):
        _zoom(grid, c[i:i + size], *(x[i:i + size] for x in (best, at, ends)))
    out = [InballResult(rho_minus=float(f[0]), rho_plus=float(-f[1]),
                        center_offset=float(s[0]), dense_fallback=bool(d))
           for f, s, d in zip(best, at, fallback)]
    return out[0] if one else out
