"""Radial graphs over geodesic spheres in hyperbolic space.

A closed convex hypersurface containing the chart center is written as
{(u(xi), xi)} in polar coordinates, with u the geodesic distance from
the center.  All geometry reduces to the meridian profile u(theta):
the warped metric cosh-sinh factors make the shape operator diagonal
in the (theta, angular) frame, so principal curvatures are read off
without any eigen-decomposition.

The same kernel, with sinh and cosh trading places under a sign eps,
gives the curvatures and the unit normal of a stored de Sitter graph,
so both sides of the Gauss-map duality share one copy of each formula
and one type, Graph(grid, u, eps).

Computations run on the profile's grid; the Minkowski embedding into
R^{n+1,1} (time coordinate first, rotation axis last among the spatial
slots) is exposed both for cross-validation and as the carrier of the
Gauss map.
"""

from __future__ import annotations

import math
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
    "EuclideanComparison",
    "euclidean_compare",
    "InballResult",
    "inradius_circumradius",
]


class CausalityError(RuntimeError):
    """A stored profile violates the spacelike gradient bound."""


@dataclass(frozen=True)
class Graph:
    """A warped radial graph over the grid, on either side of the duality.

    eps = +1: the geodesic radius u > 0 of a closed hypersurface in
    H^{n+1} around the center.  eps = -1: the stored eigentime u* < 0 of
    a spacelike graph in de Sitter space (switched convention), which
    must obey the spacelike bound |D u*| = |u*'| / cosh u* < 1.  geometry
    is built on first read and kept.
    """

    grid: SphereGrid
    u: np.ndarray
    eps: float = 1.0

    def __post_init__(self):
        v = np.asarray(self.u, dtype=float)
        if v.shape != (self.grid.m,):
            raise ValueError(f"profile shape {v.shape} does not match grid m={self.grid.m}")
        if self.eps > 0:
            if not np.all(np.isfinite(v)) or not np.all(v > 0.0):
                raise ValueError("radial profile must be finite and positive")
        else:
            if not np.all(np.isfinite(v)):
                raise ValueError("eigentime profile must be finite")
            if not np.all(v < 0.0):
                raise ValueError("stored duals lie below the equatorial slice (u_star < 0)")
            slope = np.abs(self.grid.d1(v)) / np.cosh(v)
            if slope.max() >= 1.0:
                raise CausalityError(f"graph is not spacelike: |D u_star| = {slope.max():.6f} "
                                     f"at node {int(np.argmax(slope))}")
        object.__setattr__(self, "u", v)

    @property
    def u_star(self) -> np.ndarray:
        """The stored profile under its dual-side name."""
        return self.u

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


def _warp(u, eps: float):
    """Warping factor S and its derivative C: (sinh u, cosh u) for eps = +1,
    (cosh u*, sinh u*) for eps = -1."""
    return (np.sinh(u), np.cosh(u)) if eps > 0 else (np.cosh(u), np.sinh(u))


def _curvatures(u, u_th, u_thth, cot, eps: float, n: int):
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
    for curves, n = 1).  Nothing is checked; the caller reads kappa.
    """
    S, C = _warp(u, eps)
    slope = u_th / S
    slope_th = u_thth / S - u_th * u_th * C / (S * S)
    v = np.sqrt(1.0 + eps * slope * slope)
    eps_C, v_S = eps * C, v * S
    kappa = np.empty(np.shape(u) + (n,))
    kappa[..., 0] = (eps_C - slope_th / (v * v)) / v_S
    if n > 1:
        kappa[..., 1:] = ((eps_C - cot * slope) / v_S)[..., None]
    return slope, v, kappa


def _kappa(grid: SphereGrid, u: np.ndarray, eps: float):
    """_curvatures of one profile (m,) or of a stack (..., m) on the grid."""
    return _curvatures(u, *grid.derivatives(u), grid.cot, eps, grid.n)


def _unit_normal(u, slope, v, theta, eps: float):
    """Time, sin-slot and axis-slot components of a warped graph's unit normal.

    nu = (S, eps C omega - slope omega') / v with omega = (sin, .., cos):
    the exterior normal of a hyperbolic graph (a point of de Sitter
    space) for eps = +1, and for a stored de Sitter graph (eps = -1) the
    normal with the light cone switched back, a point of H^{n+1}.  The
    remaining slots are zero.
    """
    S, C = _warp(u, eps)
    c = eps * C
    st, ct = np.sin(theta), np.cos(theta)
    return S / v, (c * st - slope * ct) / v, (c * ct + slope * st) / v


def geometry_of(g, F=None) -> GraphGeometry:
    """Graph factor, principal curvatures and curvature invariants.

    g is anything with a grid, a profile u and a side eps (a Graph or a
    flow state); both sides go through _kappa.  Non-convex output is
    legal: callers read the convex flag.  When a curvature function F is
    supplied its nodewise values are attached (F is only evaluated if
    the graph is strictly convex).
    """
    slope, v, kappa = _kappa(g.grid, g.u, g.eps)
    convex = bool(np.all(kappa > 0.0))
    return GraphGeometry(
        slope=slope,
        v=v,
        kappa=kappa,
        H=kappa.sum(axis=1),
        normA2=(kappa * kappa).sum(axis=1),
        convex=convex,
        F_value=np.asarray(F.value(kappa)) if F is not None and convex else None,
    )


def embed_arrays(g: Graph):
    """All node positions and exterior unit normals as (m, n+2) arrays.

    X = (cosh u, sinh u * omega) with omega = (sin theta, 0.., cos theta)
    the unit direction on S^n; the normal comes from _unit_normal.  The
    meridian plane sits in the sin slot 1 and the axis slot n+1.
    """
    geo = g.geometry
    theta, su = g.grid.theta, np.sinh(g.u)
    X = np.zeros((g.grid.m, g.grid.n + 2))
    nu = np.zeros((g.grid.m, g.grid.n + 2))
    X[:, 0], X[:, 1], X[:, -1] = np.cosh(g.u), su * np.sin(theta), su * np.cos(theta)
    nu[:, 0], nu[:, 1], nu[:, -1] = _unit_normal(g.u, geo.slope, geo.v, theta, 1.0)
    return X, nu


@dataclass(frozen=True)
class EuclideanComparison:
    """Beltrami-image geometry next to the hyperbolic one, per node.

    r is the Euclidean radius tanh u of the image graph, v_e its graph
    factor, h_ratio the ratio of Euclidean to hyperbolic second
    fundamental form diagonal entries (columns: profile direction, then
    angular when n >= 2).
    """

    r: np.ndarray
    v_e: np.ndarray
    h_ratio: np.ndarray


def euclidean_compare(g: Graph) -> EuclideanComparison:
    """Geometry of the Beltrami image, computed independently.

    The image of the graph under the Beltrami map is the Euclidean
    radial graph r = tanh u in the unit ball.  Its curvature entries
    come from the flat polar-graph formulas (same structure as the
    hyperbolic ones with trivial warping), not from any conversion
    identity, so the returned ratios provide a genuine cross-check of
    the comparison inequalities.
    """
    grid = g.grid
    geo = g.geometry
    r = np.tanh(g.u)
    assert np.all(r < 1.0)
    r_th, r_thth = grid.derivatives(r)
    pe = r_th / r
    pe_th = r_thth / r - (r_th / r) ** 2
    v_e = np.sqrt(1.0 + pe * pe)
    ke_prof = (1.0 - pe_th / (v_e * v_e)) / (v_e * r)
    # tensor entries: hyperbolic h_thth = kappa * v^2 sinh^2 u, Euclidean
    # h_thth = kappa_e * v_e^2 r^2; angular slots carry sin^2 theta on
    # both sides, which cancels in the ratio
    ratio_prof = (ke_prof * v_e * v_e * r * r) / (
        geo.kappa[:, 0] * geo.v * geo.v * np.sinh(g.u) ** 2
    )
    if grid.n == 1:
        h_ratio = ratio_prof[:, None]
    else:
        ke_ang = (1.0 - grid.cot * pe) / (v_e * r)
        ratio_ang = (ke_ang * r * r) / (geo.kappa[:, 1] * np.sinh(g.u) ** 2)
        h_ratio = np.stack([ratio_prof, ratio_ang], axis=1)
    return EuclideanComparison(r=r, v_e=v_e, h_ratio=h_ratio)


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


def _distance_profile(g: Graph, s) -> np.ndarray:
    """Geodesic distances (S, m) from the axis points at offsets s (S,) to every node."""
    s = np.asarray(s, dtype=float)[:, None]
    coshd = np.cosh(g.u) * np.cosh(s) - np.sinh(g.u) * np.cos(g.grid.theta) * np.sinh(s)
    return np.arccosh(np.clip(coshd, 1.0, None))


def inradius_circumradius(g: Graph) -> InballResult:
    """Largest inscribed and smallest enclosing balls centered on the axis.

    The inradius maximizes over the axis offset the least distance to the
    nodes, the circumradius minimizes the largest; each distance is
    refined below grid resolution by local interpolation.  One _SCAN-point
    scan of the offsets between the surface's two axis crossings serves
    both sides; then each side zooms in, one batched scan of the bracket
    around its best point per round, until the bracket is below _TOL.
    dense_fallback flags that a side's coarse scan was not unimodal; a
    _DENSE-point scan then picks the basins before the zoom.
    """
    grid = g.grid
    j_pi = int(np.argmin(np.abs(grid.theta - math.pi)))
    lo, hi = 1e-9 - float(g.u[j_pi]), float(g.u[0]) - 1e-9

    def score(s):
        # least distance (row 0) and minus the largest (row 1) from the
        # offsets s (2, S), both to be maximized, in one refine call
        d = _distance_profile(g, s.ravel()).reshape(2, s.shape[1], grid.m)
        d[1] *= -1.0
        return refine_extremum(grid, d.reshape(-1, grid.m), "min")[1].reshape(2, -1)

    s = np.linspace(lo, hi, _SCAN) + np.zeros((2, 1))
    f = score(s)
    rise = np.diff(f, axis=1)
    fallback = not np.where(np.arange(_SCAN - 1) < np.argmax(f, axis=1)[:, None],
                            rise >= -1e-7, rise <= 1e-7).all()
    if fallback:
        s = np.linspace(lo, hi, _DENSE) + np.zeros((2, 1))
        f = score(s)
    sides = np.arange(2)
    while True:
        k = np.argmax(f, axis=1)
        a, b = s[sides, np.maximum(k - 1, 0)], s[sides, np.minimum(k + 1, s.shape[1] - 1)]
        if (b - a).max() <= _TOL:
            break
        s = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, _SCAN)
        f = score(s)
    return InballResult(rho_minus=float(f[0, k[0]]), rho_plus=float(-f[1, k[1]]),
                        center_offset=float(s[0, k[0]]), dense_fallback=fallback)
