"""Per-state monitors: preserved inequalities, decay functionals, rate fits.

Every recorded flow state, primal or dual, is condensed by one function,
compute_record, into one DiagnosticsRecord whose fields track the
quantities the theory keeps under control: the curvature pinch ratio,
the horoconvexity margin, the pinching-tensor minimum, the oscillation
of the rescaled speed, the roundness functional f_sigma, inradius and
circumradius, the duality identity error, and the rescaled dual support
w.  A dual state reads its own de Sitter geometry and leaves the
hyperbolic-only fields NaN.  Exponential rates are fitted
on (tau, log y) by least squares and only their signs are asserted
anywhere; the continuum statements carry no numeric constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvfn import CurvatureFunction
from .dualmap import gauss_dual, verify_duality
from .hgeom import GraphGeometry, HyperbolicGraph, inradius_circumradius
from .sphere_grid import SphereGrid

__all__ = [
    "CSV_FIELDS",
    "C_GRID",
    "DiagnosticsRecord",
    "pinching_epsilon",
    "compute_record",
    "RateFit",
    "fit_exponential",
    "DecayReport",
    "decay_check",
    "kn_term_gap",
]

# column order is frozen; downstream CSV consumers index by name
CSV_FIELDS = (
    "t",
    "tau",
    "u_min",
    "u_max",
    "pinch_ratio",
    "horoconvex_margin",
    "pinching_T",
    "osc_F_tilde",
    "f_sigma_max",
    "A2_minus_nF2_max",
    "rho_minus",
    "rho_plus",
    "duality_err",
    "w_min",
    "w_max",
)

# discrete slack multiplier for preserved-sign inequalities: continuum
# statements are exact, stencil noise scales with h^2
C_GRID = 5.0


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One CSV row of monitors plus two integral extras kept off the CSV."""

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
    f_sigma_L2: float = math.nan
    f_sigma_L8: float = math.nan

    def as_row(self) -> list:
        return [getattr(self, name) for name in CSV_FIELDS]


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


def _f_sigma(geo: GraphGeometry, sigma: float):
    nn = geo.kappa.shape[1]
    gap = geo.normA2 - nn * geo.F_value * geo.F_value
    return gap, geo.F_value ** (-(2.0 - sigma)) * gap


def compute_record(state, dual=None, Theta: float = math.nan,
                   epsilon: float = 0.0, sigma: float = 0.1,
                   grid: SphereGrid | None = None) -> DiagnosticsRecord:
    """Condense one flow state of either side into a DiagnosticsRecord.

    The side is the sign of the stored profile: u > 0 primal, u* < 0
    dual.  The curvature monitors read the state's own geometry.  Theta
    is the barrier radius at the state's time (NaN when no extinction
    estimate exists yet); epsilon is the run-constant pinching weight
    from pinching_epsilon at t = 0.  dual is the primal state's matched
    dual (anything with u_star): with it the duality error, the worst of
    the three dual-map identities re-verified at this instant, and w =
    u*/Theta are populated.  A dual state is its own w; its
    hyperbolic-only fields (horoconvexity, pinching tensor, inball
    radii, duality error, f_sigma norms) stay NaN.
    """
    if grid is None:
        raise ValueError("compute_record needs the grid of the run")
    geo = state.geometry
    if geo.F_value is None:
        raise ValueError("state geometry lacks the speed values; run with F attached")
    n = geo.kappa.shape[1]
    k_min = geo.kappa.min(axis=1)
    k_max = geo.kappa.max(axis=1)
    gap, f_sig = _f_sigma(geo, sigma)
    F_tilde = geo.F_value * Theta
    primal = bool(state.u[0] > 0.0)
    dual = dual if primal else state
    horo = pinching_T = rho_minus = rho_plus = duality_err = l2 = l8 = w_min = w_max = math.nan
    if dual is not None:
        w = dual.u_star / Theta
        w_min, w_max = float(w.min()), float(w.max())
    if primal:
        horo = float(k_min.min() - 1.0)
        pinching_T = float((k_min - 1.0 - epsilon * (geo.H - n)).min())
        g = HyperbolicGraph(grid, state.u)
        inball = inradius_circumradius(g)
        rho_minus, rho_plus = inball.rho_minus, inball.rho_plus
        if dual is not None:
            duality_err = verify_duality(gauss_dual(g)).worst()
        # weight for surface integrals of the graph: v sinh^n(u) against the
        # grid's sin^(n-1) measure
        area_w = geo.v * np.sinh(state.u) ** n
        l2 = float(max(grid.integrate(f_sig**2 * area_w), 0.0) ** 0.5)
        l8 = float(max(grid.integrate(f_sig**8 * area_w), 0.0) ** 0.125)
    return DiagnosticsRecord(
        t=float(state.t),
        tau=float(-math.log(Theta)) if Theta > 0.0 else math.nan,
        u_min=float(state.u.min()),
        u_max=float(state.u.max()),
        pinch_ratio=float((k_min / k_max).min()),
        horoconvex_margin=horo,
        pinching_T=pinching_T,
        osc_F_tilde=float(F_tilde.max() - F_tilde.min()),
        f_sigma_max=float(f_sig.max()),
        A2_minus_nF2_max=float(gap.max()),
        rho_minus=rho_minus,
        rho_plus=rho_plus,
        duality_err=duality_err,
        w_min=w_min,
        w_max=w_max,
        f_sigma_L2=l2,
        f_sigma_L8=l8,
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponential fit y ~ C exp(-delta tau)."""

    C: float
    delta: float
    residual: float
    clipped: bool = False


def fit_exponential(taus, ys) -> RateFit:
    """Fit log y = log C - delta tau; residual is the RMS misfit.

    Nonpositive samples are clipped to the smallest positive double and
    flagged rather than rejected: decaying oscillation data can touch
    zero at rounding level.
    """
    taus = np.asarray(taus, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if taus.ndim != 1 or taus.size < 5 or ys.shape != taus.shape:
        raise ValueError("need at least five paired samples")
    clipped = bool(np.any(ys <= 0.0))
    floor = np.finfo(float).tiny
    logs = np.log(np.clip(ys, floor, None))
    A = np.stack([np.ones_like(taus), -taus], axis=1)
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    fitted = A @ coef
    residual = float(np.sqrt(np.mean((logs - fitted) ** 2)))
    return RateFit(C=float(math.exp(coef[0])), delta=float(coef[1]),
                   residual=residual, clipped=clipped)


@dataclass(frozen=True)
class DecayReport:
    """Feasibility report for the nodewise bound gap <= c0 F^(2-delta)."""

    ok: bool
    c0: float
    delta: float
    worst_margin: float
    n_points: int
    fitted: bool


def decay_check(traj, c0: float | None = None, delta: float | None = None) -> DecayReport:
    """Check |A|^2 - nF^2 <= c0 F^(2-delta) nodewise over a whole run.

    With (c0, delta) given, just verifies.  Otherwise delta comes from
    the log-log regression of the gap against F over all nodes with a
    positive gap, and c0 is the smallest constant covering every node
    (with 1% headroom); the report carries the worst margin
    c0 F^(2-delta) - gap.  Runs with an identically zero gap (spheres)
    are feasible for any positive pair and reported as such.
    """
    gaps = []
    Fs = []
    for s in traj.states:
        geo = s.geometry
        if geo.F_value is None:
            raise ValueError("trajectory states lack speed values")
        nn = geo.kappa.shape[1]
        gaps.append(geo.normA2 - nn * geo.F_value**2)
        Fs.append(geo.F_value)
    gap = np.concatenate(gaps)
    F = np.concatenate(Fs)
    pos = gap > 1e-14 * np.maximum(F * F, 1.0)
    fitted = False
    if c0 is None or delta is None:
        if pos.sum() < 5:
            d_fit = 1.0 if delta is None else delta
            c_fit = 1.0 if c0 is None else c0
        else:
            fitted = True
            cov = np.cov(np.log(F[pos]), np.log(gap[pos]))
            slope = cov[0, 1] / cov[0, 0]
            d_fit = 2.0 - slope if delta is None else delta
            c_fit = float(np.exp(np.max(np.log(gap[pos]) - (2.0 - d_fit) * np.log(F[pos]))))
            c_fit *= 1.01 if c0 is None else 1.0
            if c0 is not None:
                c_fit = c0
        c0, delta = c_fit, d_fit
    bound = c0 * F ** (2.0 - delta)
    margin = float((bound - gap).min())
    return DecayReport(ok=bool(margin >= 0.0 and delta > 0.0), c0=float(c0),
                       delta=float(delta), worst_margin=margin,
                       n_points=int(pos.sum()), fitted=fitted)


def kn_term_gap(F: CurvatureFunction, kappa):
    """Left side and curvature spread of the gradient-trace inequality.

    Returns (sum_i F_i |A|^2 - F H, sum_{i<j} (kappa_i - kappa_j)^2)
    per sample; the first dominates a positive multiple of the second
    on horoconvex samples, which a scan calibrates.
    """
    kappa = np.asarray(kappa, dtype=float)
    S = np.asarray(F.gradient(kappa)).sum(axis=-1)
    Fv = np.asarray(F.value(kappa))
    A2 = (kappa * kappa).sum(axis=-1)
    H = kappa.sum(axis=-1)
    lhs = S * A2 - Fv * H
    nn = kappa.shape[-1]
    spread = nn * A2 - H * H
    return lhs, spread
