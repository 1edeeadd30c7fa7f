"""Gauss-map correspondence with de Sitter space.

The exterior unit normals of a strictly convex hypersurface in
hyperbolic space sweep out a spacelike hypersurface in de Sitter space.
We store its time-reflected copy: eigentime is negated at construction
(one light-cone switch), so duals of convex bodies around the chart
center are graphs u* < 0 over the sphere, rising toward the equatorial
slice {tau = 0} as the primal shrinks.  In these variables the map and
its inverse are one formula with a sign eps: hgeom._unit_normal with
eps = +1 sends a hyperbolic graph to its dual and with eps = -1 sends
a stored dual back.

Principal curvatures invert under the map and the second fundamental
forms agree nodewise; verify_duality measures both statements, plus the
extremum exchange u_max = -u*_min, directly on the primal
parametrization (derivatives of the dual profile are obtained by the
chain rule through the matching angle, keeping every comparison at the
stencil's own convergence order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hgeom import HyperbolicGraph, _curvatures, _unit_normal, geometry_of
from .sphere_grid import CircleGrid, SphereGrid, refine_extremum, resample_monotone

__all__ = [
    "DualityBrokenError",
    "CausalityError",
    "DeSitterGraph",
    "DualPair",
    "gauss_dual",
    "dual_to_primal",
    "DualityReport",
    "verify_duality",
]


class DualityBrokenError(RuntimeError):
    """Gauss image failed to be a graph (primal not strictly convex)."""


class CausalityError(RuntimeError):
    """A stored profile violates the spacelike gradient bound."""


@dataclass(frozen=True)
class DeSitterGraph:
    """Spacelike radial graph tau = u_star(xi) in de Sitter space.

    Stored in the switched convention: u_star < 0, and the spacelike
    bound |D u_star| = |u_star'| / cosh u_star < 1 must hold.
    """

    grid: SphereGrid
    u_star: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.u_star, dtype=float)
        if v.shape != (self.grid.m,):
            raise ValueError(f"profile shape {v.shape} does not match grid m={self.grid.m}")
        if not np.all(np.isfinite(v)):
            raise ValueError("eigentime profile must be finite")
        if not np.all(v < 0.0):
            raise ValueError("stored duals lie below the equatorial slice (u_star < 0)")
        object.__setattr__(self, "u_star", v)
        slope = np.abs(self.grid.d1(v)) / np.cosh(v)
        if slope.max() >= 1.0:
            j = int(np.argmax(slope))
            raise CausalityError(
                f"graph is not spacelike: |D u_star| = {slope.max():.6f} at node {j}"
            )

    @property
    def n(self) -> int:
        return self.grid.n


@dataclass(frozen=True)
class DualPair:
    """A primal graph, its dual, and the per-node matching angle."""

    primal: HyperbolicGraph
    dual: DeSitterGraph
    matching: np.ndarray
    u_star_nodes: np.ndarray


def _gauss_image(grid: SphereGrid, u: np.ndarray, geo, eps: float):
    """Time component of each node's unit normal and the direction angle
    of its spatial part (unwrapped on the circle), which must increase."""
    nu0, nu_sin, nu_axis = _unit_normal(u, geo.slope, geo.v, grid.theta, eps)
    ang = np.arctan2(nu_sin, nu_axis)
    if isinstance(grid, CircleGrid):
        ang = np.unwrap(ang)
    if not np.all(np.diff(ang) > 0.0):
        j = int(np.argmin(np.diff(ang)))
        raise DualityBrokenError(
            f"Gauss-image angles fail to increase at node {j} (grid too coarse or convexity lost)"
        )
    return nu0, ang


def _even_extend(x: np.ndarray, y: np.ndarray):
    """Mirror sample triples about both poles and insert pole values.

    Mirroring alone leaves a cell with exactly equal endpoint values
    straddling each pole, whose zero secant slope would force the
    shape-preserving resampler to first order there.  Fitting the even
    quartic a + b s^2 + c s^4 in the pole offset s through the three
    nearest samples supplies the missing pole value and keeps the
    resampler at full accuracy.
    """

    def pole_value(xs, ys, pole):
        s2 = (xs - pole) ** 2
        s2 = s2 / s2.max()
        coef = np.linalg.solve(np.vander(s2, 3, increasing=True), ys)
        return coef[0]

    y_lo = pole_value(x[:3], y[:3], 0.0)
    y_hi = pole_value(x[-3:], y[-3:], math.pi)
    xx = np.concatenate([-x[2::-1], [0.0], x, [math.pi], 2.0 * math.pi - x[:-4:-1]])
    yy = np.concatenate([y[2::-1], [y_lo], y, [y_hi], y[:-4:-1]])
    return xx, yy


def _resample(grid: SphereGrid, ang: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Values y sampled at the increasing angles ang, resampled onto the grid.

    On the circle whole periods of samples are wrapped onto both ends,
    as many as it takes to leave three beyond each end of [0, 2 pi):
    the Gauss image of a node can move by several grid spacings.  On a
    meridian grid the samples are mirrored about both poles.
    """
    if isinstance(grid, CircleGrid):
        per = 2.0 * math.pi
        lo = 3 + int(np.count_nonzero(ang - per >= grid.theta[0]))
        hi = 3 + int(np.count_nonzero(ang + per <= grid.theta[-1]))
        x = np.concatenate([ang[-lo:] - per, ang, ang[:hi] + per])
        y = np.concatenate([y[-lo:], y, y[:hi]])
    else:
        x, y = _even_extend(ang, y)
    return resample_monotone(x, y, grid.theta)


def gauss_dual(g: HyperbolicGraph) -> DualPair:
    """Dual spacelike graph swept by the exterior normals.

    The dual point is the normal itself; its eigentime arcsinh(nu^0)
    is negated (light-cone switch) and read as a graph over the
    direction of the spatial part.  The scattered graph samples are
    brought onto the uniform grid by monotone resampling.
    """
    geo = geometry_of(g)
    if not geo.convex:
        raise DualityBrokenError("primal graph is not strictly convex")
    nu0, ang = _gauss_image(g.grid, g.u, geo, 1.0)
    u_star = -np.arcsinh(nu0)
    dual = DeSitterGraph(g.grid, _resample(g.grid, ang, u_star))
    return DualPair(primal=g, dual=dual, matching=ang, u_star_nodes=u_star)


def dual_to_primal(d: DeSitterGraph) -> HyperbolicGraph:
    """Recover the hyperbolic surface whose Gauss image is the stored dual.

    The past-directed unit normal of the stored graph, with the light
    cone switched back, is a point of H^{n+1}; reading those points as
    a radial graph undoes the Gauss map.
    """
    nu0, ang = _gauss_image(d.grid, d.u_star, geometry_of(d), -1.0)
    u = np.arccosh(np.clip(nu0, 1.0, None))
    return HyperbolicGraph(d.grid, _resample(d.grid, ang, u))


@dataclass(frozen=True)
class DualityReport:
    """Maximal deviations from the three duality identities."""

    max_kappa_product_error: float
    max_h_mismatch: float
    relation_u_ustar_error: float

    def worst(self) -> float:
        return max(
            self.max_kappa_product_error,
            self.max_h_mismatch,
            self.relation_u_ustar_error,
        )


def verify_duality(pair: DualPair) -> DualityReport:
    """Measure kappa~ * kappa = 1, h~ = h, and the extremum exchange.

    All quantities are evaluated at the primal nodes.  Dual derivatives
    with respect to the dual angle are produced by the chain rule
    through the matching function (whose deviation from the identity is
    an odd profile), so no interpolation enters and every error decays
    at the stencil order.  The second fundamental forms are compared as
    tensors fed with the same parameter vector, i.e. the dual profile
    entry picks up the squared angle derivative.
    """
    g = pair.primal
    grid = g.grid
    geo = geometry_of(g)
    us = pair.u_star_nodes
    w = pair.matching - grid.theta
    a = 1.0 + grid.d1(w, parity=-1)
    a_th = grid.d2(w, parity=-1)
    us_th = grid.d1(us)
    dus = us_th / a
    ddus = (grid.d2(us) * a - us_th * a_th) / (a * a * a)
    cot_t = None if g.n == 1 else np.cos(pair.matching) / np.sin(pair.matching)
    _, vt, kt = _curvatures(us, dus, ddus, cot_t, -1.0, g.n)
    ct_us = np.cosh(us)
    su, v = np.sinh(g.u), geo.v
    prod_err = np.abs(kt * geo.kappa - 1.0)
    h_mis = np.abs(
        geo.kappa[:, 0] * v * v * su * su - kt[:, 0] * vt * vt * ct_us * ct_us * a * a
    )
    if g.n > 1:
        h_ang_mis = np.abs(
            geo.kappa[:, 1] * su * su * np.sin(grid.theta) ** 2
            - kt[:, 1] * ct_us * ct_us * np.sin(pair.matching) ** 2
        )
        h_mis = np.maximum(h_mis, h_ang_mis)
    _, u_max = refine_extremum(grid, g.u, "max")
    _, u_min = refine_extremum(grid, g.u, "min")
    _, us_max = refine_extremum(grid, us, "max")
    _, us_min = refine_extremum(grid, us, "min")
    rel = max(abs(u_max + us_min), abs(u_min + us_max))
    return DualityReport(
        max_kappa_product_error=float(prod_err.max()),
        max_h_mismatch=float(h_mis.max()),
        relation_u_ustar_error=float(rel),
    )
