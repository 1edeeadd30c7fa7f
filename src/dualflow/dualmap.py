"""Gauss-map correspondence with de Sitter space.

The exterior unit normals of a strictly convex hypersurface in
hyperbolic space sweep out a spacelike hypersurface in de Sitter space.
We store its time-reflected copy: eigentime is negated at construction
(one light-cone switch), so duals of convex bodies around the chart
center are graphs u* < 0 over the sphere (hgeom.Graph with eps = -1),
rising toward the equatorial slice {tau = 0} as the primal shrinks.  In
these variables the map and its inverse are one signed map, _gauss_map:
the unit normals of a graph of either side, read as a graph of the
other.

Principal curvatures invert under the map and the second fundamental
forms agree nodewise; verify_duality measures both statements, plus the
extremum exchange u_max = -u*_min, directly on the primal
parametrization (derivatives of the dual profile are obtained by the
chain rule through the matching angle, keeping every comparison at the
stencil's own convergence order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hgeom import CausalityError, Graph, _curvatures, _warp
from .sphere_grid import refine_extremum

__all__ = [
    "DualityBrokenError",
    "CausalityError",
    "DualPair",
    "gauss_dual",
    "dual_to_primal",
    "DualityReport",
    "verify_duality",
]


class DualityBrokenError(RuntimeError):
    """Gauss image failed to be a graph (primal not strictly convex)."""


@dataclass(frozen=True)
class DualPair:
    """A primal graph, its dual, and the per-node matching angle."""

    primal: Graph
    dual: Graph
    matching: np.ndarray
    u_star_nodes: np.ndarray


def _gauss_map(gs):
    """Per graph of gs (one grid, one side): the graph of the other side
    swept by its unit normals, the matching angle of each node (the
    direction of the normal's spatial part, which must increase) and the
    node values before resampling: a list of graphs and two (S, m) arrays.

    The unit normal nu = (S, eps C omega - slope omega') / v, with (S, C)
    from _warp, is read in its node's own frame: eps C > 0 on both sides,
    so its spatial part lies arctan(slope / eps C), less than a quarter
    turn, behind the node's direction theta, and the angle needs no
    unwrapping.  A primal normal (eps = +1) is a point of de Sitter
    space: its eigentime arcsinh(nu^0), negated (light-cone switch), is
    read as a graph over that angle.  The past-directed normal of a
    stored dual (eps = -1), with the light cone switched back, is a point
    of H^{n+1}, read as a radial graph arccosh(nu^0).  The scattered
    samples of the whole (S, m) stack (a single graph: its (m,) arrays)
    are brought onto the grid by one call of its resample.
    """
    grid, eps = gs[0].grid, gs[0].eps
    u, slope, v = (x[0] if len(gs) == 1 else np.array(x) for x in zip(*(
        (g.u, g.geometry.slope, g.geometry.v) for g in gs)))
    S, C = _warp(u, eps)
    ang = grid.theta - np.arctan2(slope, eps * C)
    rise = ang[..., 1:] - ang[..., :-1]
    if not (rise > 0.0).all():
        j = int(np.argmin(rise)) % (grid.m - 1)
        raise DualityBrokenError(
            f"Gauss-image angles fail to increase at node {j} (grid too coarse or convexity lost)"
        )
    nu0 = S / v
    nodes = -np.arcsinh(nu0) if eps > 0 else np.arccosh(np.maximum(nu0, 1.0))
    duals = [Graph(grid, w, -eps) for w in grid.resample(ang, nodes).reshape(-1, grid.m)]
    return duals, ang.reshape(-1, grid.m), nodes.reshape(-1, grid.m)


def gauss_dual(g):
    """Dual spacelike graph swept by the exterior normals of a strictly
    convex primal graph g (a Graph or a primal flow state), as a DualPair;
    a sequence of graphs on one grid gives a list, from one _gauss_map."""
    gs = [g] if hasattr(g, "grid") else list(g)
    if not all(x.geometry.convex for x in gs):
        raise DualityBrokenError("primal graph is not strictly convex")
    out = [DualPair(primal=p, dual=d, matching=a, u_star_nodes=n)
           for p, d, a, n in zip(gs, *_gauss_map(gs))] if gs else []
    return out[0] if hasattr(g, "grid") else out


def dual_to_primal(d):
    """Recover the hyperbolic surface whose Gauss image is the stored dual d
    (a Graph with eps = -1 or a dual flow state): the Gauss map undone.  A
    sequence of duals on one grid gives a list, from one _gauss_map."""
    ds = [d] if hasattr(d, "grid") else list(d)
    out = _gauss_map(ds)[0] if ds else []
    return out[0] if hasattr(d, "grid") else out


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


def verify_duality(pairs):
    """Measure kappa~ * kappa = 1, h~ = h, and the extremum exchange.

    All quantities are evaluated at the primal nodes.  Dual derivatives
    with respect to the dual angle are produced by the chain rule
    through the matching function (whose deviation from the identity is
    an odd profile), so no interpolation enters and every error decays
    at the stencil order.  The second fundamental forms are compared as
    tensors fed with the same parameter vector, i.e. the dual profile
    entry picks up the squared angle derivative.

    pairs is one DualPair, which gives one DualityReport, or a sequence of
    them on one grid, which gives a list.  Either is measured as one stack,
    a single pair as a stack of one, with one refine call for all extrema.
    """
    one = isinstance(pairs, DualPair)
    ps = [pairs] if one else list(pairs)
    if not ps:
        return []
    grid = ps[0].primal.grid
    u, us, ang, kappa, v = (np.array(x) for x in zip(*(
        (p.primal.u, p.u_star_nodes, p.matching, p.primal.geometry.kappa, p.primal.geometry.v)
        for p in ps)))
    w_th, a_th = grid.derivatives(ang - grid.theta, parity=-1)
    a = 1.0 + w_th
    us_th, us_thth = grid.derivatives(us)
    dus = us_th / a
    ddus = (us_thth * a - us_th * a_th) / (a * a * a)
    sin_t = np.sin(ang)
    cot_t = None if grid.n == 1 else np.cos(ang) / sin_t
    _, vt, kt = _curvatures(us, dus, ddus, cot_t, -1.0, grid.n)
    ct_us = np.cosh(us)
    su = np.sinh(u)
    prod_err = np.abs(kt * kappa - 1.0).max(axis=(1, 2))
    h_mis = np.abs(
        kappa[..., 0] * v * v * su * su - kt[..., 0] * vt * vt * ct_us * ct_us * a * a
    )
    if grid.n > 1:
        h_ang_mis = np.abs(
            kappa[..., 1] * su * su * grid.sin ** 2
            - kt[..., 1] * ct_us * ct_us * sin_t ** 2
        )
        h_mis = np.maximum(h_mis, h_ang_mis)
    # a minimum is minus the maximum of the negated profile, bit for bit, so
    # all four extrema of every pair come from one refine call
    u_max, us_max, neg_u_min, neg_us_min = refine_extremum(
        grid, np.concatenate([u, us, -u, -us]), "max")[1].reshape(4, len(ps))
    rel = np.maximum(np.abs(u_max - neg_us_min), np.abs(us_max - neg_u_min))
    out = [DualityReport(max_kappa_product_error=float(e), max_h_mismatch=float(h),
                         relation_u_ustar_error=float(r))
           for e, h, r in zip(prod_err, h_mis.max(axis=1), rel)]
    return out[0] if one else out
