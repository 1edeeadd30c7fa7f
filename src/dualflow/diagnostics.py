"""Per-state monitors: preserved inequalities and decay functionals.

Every recorded flow state, primal or dual, is condensed by one function,
compute_record, which takes a run's states at once, into one
DiagnosticsRecord whose fields track the
quantities the theory keeps under control: the curvature pinch ratio,
the horoconvexity margin, the pinching-tensor minimum, the oscillation
of the rescaled speed, the roundness functional f_sigma, inradius and
circumradius, the duality identity error, and the rescaled dual support
w.  A state brings its own grid and side; a dual state reads its own
de Sitter geometry and leaves the hyperbolic-only fields NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dualmap import gauss_dual, verify_duality
from .flow import _fill_geometry
from .hgeom import GraphGeometry, inradius_circumradius

__all__ = [
    "CSV_FIELDS",
    "DiagnosticsRecord",
    "pinching_epsilon",
    "compute_record",
]


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One CSV row of monitors."""

    t: float
    tau: float
    u_min: float
    u_max: float
    pinch_ratio: float
    horoconvex_margin: float
    pinching_T: float
    osc_F_tilde: float
    f_sigma_max: float
    A2_minus_nF2_max: float
    rho_minus: float
    rho_plus: float
    duality_err: float
    w_min: float
    w_max: float

    def as_row(self) -> list:
        return [getattr(self, name) for name in CSV_FIELDS]


# the CSV columns are the record fields, in order; the column order is
# frozen, downstream CSV consumers index by name
CSV_FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))


def pinching_epsilon(geo: GraphGeometry, n: int) -> float:
    """Pinching-tensor weight fixed from the initial state.

    The preserved tensor is kappa_1 - 1 - eps (H - n); feasibility at
    t = 0 needs eps <= min(kappa_1 - 1)/max(H - n), and half that bound
    is used.  Non-horoconvex data clamps to 0 (the monitor then simply
    tracks min(kappa_1 - 1)).
    """
    k1 = geo.kappa.min(axis=1)
    excess = geo.H - n
    denom = max(float(excess.max()), 1e-300)
    return max(0.5 * float(k1.min() - 1.0) / denom, 0.0)


def compute_record(states, duals=None, Thetas=None,
                   epsilon: float = 0.0, sigma: float = 0.1) -> list:
    """Condense a sequence of FlowStates of either side, on one grid, into
    one DiagnosticsRecord per state.

    The side of a state is its eps: +1 primal, -1 dual.  The curvature
    monitors read the state's own geometry.  Thetas holds the barrier
    radius at each state's time (NaN when no extinction estimate exists
    yet; all NaN when omitted); epsilon is the run-constant pinching
    weight from pinching_epsilon at t = 0.  duals holds each primal
    state's matched dual (a dual state or graph whose u is read, or None;
    all None when omitted): with it the duality error, the worst of the
    three dual-map identities re-verified at this instant, and w =
    u*/Theta are populated.  A dual state is its own w; its
    hyperbolic-only fields (horoconvexity, pinching tensor, inball radii,
    duality error) stay NaN.  The states are read as one stack: one
    geometry build per side (_fill_geometry), one call each of
    inradius_circumradius, gauss_dual and verify_duality, and every monitor
    a column reduction over (S, m) arrays.
    """
    states = list(states)
    if not states:
        return []
    duals = [None] * len(states) if duals is None else duals
    Theta = np.array([math.nan] * len(states) if Thetas is None else Thetas, dtype=float)
    _fill_geometry(states)
    primal = np.array([s.eps > 0 for s in states])
    paired = np.array([s.eps > 0 and d is not None for s, d in zip(states, duals, strict=True)])
    u, kappa, H, normA2, F_value = (np.stack(x) for x in zip(*(
        (s.u, s.geometry.kappa, s.geometry.H, s.geometry.normA2, s.geometry.F_value)
        for s in states)))
    n, k_min, k_max = kappa.shape[-1], kappa.min(axis=-1), kappa.max(axis=-1)
    gap = normA2 - n * F_value * F_value
    w = np.stack([s.u if s.eps < 0 else np.full(len(s.u), math.nan) if d is None else d.u
                  for s, d in zip(states, duals)]) / Theta[:, None]
    rho, duality_err = np.full((len(states), 2), math.nan), np.full(len(states), math.nan)
    rho[primal] = np.reshape([(r.rho_minus, r.rho_plus) for r in inradius_circumradius(
        [s for s in states if s.eps > 0])], (-1, 2))
    duality_err[paired] = [r.worst() for r in verify_duality(gauss_dual(
        [s for s, p in zip(states, paired) if p]))]
    columns = {
        "t": [float(s.t) for s in states],
        "tau": [-math.log(th) if th > 0.0 else math.nan for th in Theta.tolist()],
        "u_min": u.min(axis=1),
        "u_max": u.max(axis=1),
        "pinch_ratio": (k_min / k_max).min(axis=1),
        "horoconvex_margin": np.where(primal, k_min.min(axis=1) - 1.0, math.nan),
        "pinching_T": np.where(primal, (k_min - 1.0 - epsilon * (H - n)).min(axis=1), math.nan),
        "osc_F_tilde": np.ptp(F_value * Theta[:, None], axis=1),
        "f_sigma_max": (F_value ** (-(2.0 - sigma)) * gap).max(axis=1),
        "A2_minus_nF2_max": gap.max(axis=1),
        "rho_minus": rho[:, 0],
        "rho_plus": rho[:, 1],
        "duality_err": duality_err,
        "w_min": w.min(axis=1),
        "w_max": w.max(axis=1),
    }
    return [DiagnosticsRecord(*row)
            for row in zip(*(np.asarray(columns[f], dtype=float).tolist() for f in CSV_FIELDS))]

