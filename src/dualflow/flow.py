"""Time integration of the contracting flow and its de Sitter dual.

The primal evolution moves a convex hypersurface along its exterior
normal with speed F(kappa); in graph form du/dt = -F v.  The dual
surface of normals expands, in the switched convention du*/dt =
+v~ / F~(kappa~), rising toward the equatorial slice.  Both flows run
through one driver and one explicit RK4 body with a parabolic step-size
bound, parametrized by the sign eps (+1 primal, -1 dual) of
hgeom._curvatures; geodesic spheres solve the primal flow in closed
form and serve as the exact reference and as extinction-time barriers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import curvfn
from .curvfn import CurvatureFunction, make_function
from .dualmap import CausalityError, DeSitterGraph
from .hgeom import GraphGeometry, HyperbolicGraph, geometry_of
from .sphere_grid import CircleGrid, SphereGrid, make_grid, resample_monotone

__all__ = [
    "ConvexityError",
    "StiffnessError",
    "FlowConfig",
    "FlowState",
    "FlowTrajectory",
    "spherical_theta",
    "spherical_T_star",
    "make_initial",
    "step",
    "run_flow",
    "dual_step",
    "run_dual_flow",
    "TstarEstimate",
    "estimate_Tstar",
    "RescaledRecord",
    "rescale",
]

# smallest admissible time step; a smaller parabolic bound means the
# surface is too close to extinction to continue
DT_MIN = 1e-12


class ConvexityError(RuntimeError):
    """A principal curvature left the positive cone during stepping."""


class StiffnessError(RuntimeError):
    """Step-size control fell below DT_MIN (surface near extinction)."""


@dataclass(frozen=True)
class FlowConfig:
    """One experiment: speed function, grid, initial datum, stepping knobs."""

    F: str
    n: int
    m: int
    initial: str
    initial_params: tuple = ()
    cfl: float = 0.2
    u_stop: float = 0.02
    record_every: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError(f"cfl must lie in (0, 0.5], got {self.cfl}")
        if self.u_stop <= 0.0:
            raise ValueError("u_stop must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        object.__setattr__(self, "initial_params", tuple(float(p) for p in self.initial_params))


@dataclass(frozen=True)
class FlowState:
    """One state of either flow.

    u is the stored profile: the radius u > 0 of a primal state, the
    eigentime u* < 0 of a dual one.  geometry carries the speed values.
    """

    t: float
    u: np.ndarray
    geometry: GraphGeometry
    dt_last: float

    @property
    def u_star(self) -> np.ndarray:
        """The stored profile under its dual-side name."""
        return self.u


@dataclass
class FlowTrajectory:
    """Recorded states of one run plus the extinction-time estimate.

    failure is None for a clean stop, otherwise the name of the abort
    ("convexity", "stiffness", "causality") and the states hold the
    partial run.  landed holds the indices into states of the states
    that landed on a target time, in time order.
    """

    config: FlowConfig
    states: list = field(default_factory=list)
    T_star_estimate: float | None = None
    Tstar_warn: bool = False
    failure: str | None = None
    steps_taken: int = 0
    landed: list = field(default_factory=list)

    @property
    def grid(self) -> SphereGrid:
        return make_grid(self.config.n, self.config.m)


# ----------------------------------------------------------------------
# geodesic spheres: the closed-form solution
# ----------------------------------------------------------------------

def spherical_T_star(r0: float) -> float:
    """Extinction time of the geodesic sphere of radius r0."""
    if r0 <= 0.0:
        raise ValueError("sphere radius must be positive")
    return math.log(math.cosh(r0))


def spherical_theta(t, r0: float):
    """Radius of the shrinking geodesic sphere, cosh T = cosh(r0) e^{-t}.

    Any normalized speed gives the same spherical evolution: on an
    umbilic sphere F(coth r, ..) = coth r by homogeneity.
    """
    T = spherical_T_star(r0)
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr >= T):
        raise ValueError(f"time outside [0, T*) with T* = {T!r}")
    out = np.arccosh(np.cosh(r0) * np.exp(-t_arr))
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# initial data
# ----------------------------------------------------------------------

def _ellipsoid_profile(grid: SphereGrid, a: float, b: float) -> np.ndarray:
    """Beltrami preimage of the ellipsoid with Euclidean semi-axes (a, b).

    Built from the Euclidean support function h(p) = sqrt(b^2 cos^2 p +
    a^2 sin^2 p) (p the normal angle from the axis, b the on-axis
    semi-axis): the boundary point is h p^ + h' p^perp, re-read as a
    radial graph and lifted by u = artanh r.  Keeping a, b < 1 keeps
    the body inside the Beltrami ball.
    """
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("ellipsoid semi-axes must lie in (0, 1)")
    top = 2.0 * math.pi if isinstance(grid, CircleGrid) else math.pi
    p = np.linspace(-0.3, top + 0.3, 8 * grid.m)
    hs = np.sqrt(b * b * np.cos(p) ** 2 + a * a * np.sin(p) ** 2)
    hs_p = (a * a - b * b) * np.sin(p) * np.cos(p) / hs
    x_axis = hs * np.cos(p) - hs_p * np.sin(p)
    x_sin = hs * np.sin(p) + hs_p * np.cos(p)
    r = np.hypot(x_axis, x_sin)
    ang = np.unwrap(np.arctan2(x_sin, x_axis))
    u = np.arctanh(r)
    keep = np.diff(ang) > 0
    keep = np.concatenate([[True], keep])
    return resample_monotone(ang[keep], u[keep], grid.theta)


def make_initial(name: str, params, grid: SphereGrid, seed: int = 0) -> np.ndarray:
    """Build a named initial profile on the grid.

    sphere [r0]; perturbed_sphere [r0, a, k] giving r0 + a cos(k theta)
    (any integer k keeps the right pole parity); ellipsoid [a, b];
    random_fourier [r0, amp, kmax] with seeded coefficients, resampled
    until strictly convex.
    """
    params = tuple(float(p) for p in params)
    if name == "sphere":
        (r0,) = params
        if r0 <= 0:
            raise ValueError("sphere radius must be positive")
        return np.full(grid.m, r0)
    if name == "perturbed_sphere":
        r0, a, k = params
        ki = int(round(k))
        if ki != k or ki < 1:
            raise ValueError("perturbation frequency must be a positive integer")
        u = r0 + a * np.cos(ki * grid.theta)
        if u.min() <= 0:
            raise ValueError("perturbation exceeds the radius")
        return u
    if name == "ellipsoid":
        a, b = params
        return _ellipsoid_profile(grid, a, b)
    if name == "random_fourier":
        r0, amp, kmax = params
        kmax = int(kmax)
        if kmax < 1 or amp < 0 or r0 <= 0:
            raise ValueError("random_fourier needs r0 > 0, amp >= 0, kmax >= 1")
        rng = np.random.default_rng(seed)
        circle = isinstance(grid, CircleGrid)
        for _ in range(64):
            coef = rng.normal(size=kmax) / np.arange(1, kmax + 1) ** 2
            u = r0 + 0.0 * grid.theta
            for k, c in enumerate(coef, start=1):
                u = u + amp * c * np.cos(k * grid.theta)
                if circle:
                    u = u + amp * rng.normal() / k**2 * np.sin(k * grid.theta)
            if u.min() > 0.05:
                g = HyperbolicGraph(grid, u)
                if geometry_of(g).convex:
                    return u
        raise ValueError("could not draw a convex random profile; lower amp")
    raise ValueError(f"unknown initial datum {name!r}")


# ----------------------------------------------------------------------
# the two flows: one RK4 body and one driver, signed by eps
# ----------------------------------------------------------------------

_ABORTS = {StiffnessError: "stiffness", ConvexityError: "convexity", CausalityError: "causality"}


def _graph(grid: SphereGrid, u: np.ndarray, eps: float):
    """The stored profile as a graph; a primal radius must stay positive
    and a dual must stay below the equatorial slice."""
    if eps > 0:
        if u.min() <= 0.0:
            raise ConvexityError(f"radius collapsed at node {int(np.argmin(u))}")
        return HyperbolicGraph(grid, u)
    if u.max() >= 0.0:
        raise CausalityError("dual graph crossed the equatorial slice")
    return DeSitterGraph(grid, u)


def _geometry(grid: SphereGrid, u: np.ndarray, F: CurvatureFunction, eps: float) -> GraphGeometry:
    """Geometry with the speed attached, of a state the flow can continue from."""
    geo = geometry_of(_graph(grid, u, eps), F)
    if not geo.convex:
        j = int(np.argmin(geo.kappa.min(axis=1)))
        raise ConvexityError(f"convexity lost at node {j}")
    return geo


def _velocity(geo: GraphGeometry, eps: float) -> np.ndarray:
    """Graph form of the normal speed: du/dt = -F v contracting the primal,
    du*/dt = +v~ / F~ expanding the dual toward the equatorial slice (on
    slices this reproduces d(-Theta)/dt = +coth Theta)."""
    return -geo.F_value * geo.v if eps > 0 else geo.v / geo.F_value


def _parabolic_dt(state: FlowState, F: CurvatureFunction, cfl: float,
                  grid: SphereGrid, eps: float) -> float:
    """Explicit step bound from the linearized diffusion coefficient.

    Primal: dt = cfl (h sinh u_min)^2 / max_nodes(sum_i F_i).  Dual: the
    coefficient is sum_i F~_i / (F~^2 v~^2 cosh^2 u*), hence
    dt = cfl (h min(v~ cosh u*))^2 / max(sum_i F~_i / F~^2).
    """
    geo = state.geometry
    grad = np.asarray(F.gradient(geo.kappa)).sum(axis=-1)
    if eps > 0:
        return cfl * (grid.h * math.sinh(state.u.min())) ** 2 / grad.max()
    S = (grad / (geo.F_value * geo.F_value)).max()
    return cfl * (grid.h * (geo.v * np.cosh(state.u)).min()) ** 2 / S


def _rk4(state: FlowState, F: CurvatureFunction, cfl: float, grid: SphereGrid,
         dt_cap: float | None, eps: float) -> FlowState:
    """One RK4 update with the parabolic step bound, optionally capped
    (used to land exactly on requested output times).  k1 comes from the
    state's own geometry; a new state that cannot be continued from
    raises here, in the step that produced it."""
    dt = _parabolic_dt(state, F, cfl, grid, eps)
    if dt < DT_MIN:
        raise StiffnessError(f"dt = {dt:.3e} below {DT_MIN:.0e}")
    # snap onto the cap so requested output times are landed exactly; a
    # cap below DT_MIN is a landing, not stiffness
    if dt_cap is not None and dt > dt_cap - 1e-13:
        dt = dt_cap

    def rhs(u):
        return _velocity(_geometry(grid, u, F, eps), eps)

    u = state.u
    k1 = _velocity(state.geometry, eps)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    u_new = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return FlowState(t=state.t + dt, u=u_new, geometry=_geometry(grid, u_new, F, eps), dt_last=dt)


def step(state: FlowState, F: CurvatureFunction, cfl: float, grid: SphereGrid,
         dt_cap: float | None = None) -> FlowState:
    """One RK4 step of the contracting primal flow."""
    return _rk4(state, F, cfl, grid, dt_cap, 1.0)


def dual_step(state: FlowState, F_dual: CurvatureFunction, cfl: float, grid: SphereGrid,
              dt_cap: float | None = None) -> FlowState:
    """One RK4 step of the expanding dual flow under the inverse speed."""
    return _rk4(state, F_dual, cfl, grid, dt_cap, -1.0)


def _drive(config: FlowConfig, F: CurvatureFunction, grid: SphereGrid, u0: np.ndarray,
           eps: float, t_targets, t_stop: float | None) -> FlowTrajectory:
    """Integrate either flow until max |u| < u_stop, recording along the way.

    t_targets are landed on exactly (dt is clipped, never enlarged) and
    their states are always recorded, on top of the every-record_every
    cadence and the final state; past u_stop the run goes on only to the
    last target, if that is the one left, and an abort on the way there
    ends it cleanly.  t_stop ends the run early at that flow time (it is
    landed on exactly too).  A surface extinguishing
    away from the origin can never shrink inside the stop ball; once
    min |u| falls below a quarter of u_stop with max |u| still above it
    the run aborts with failure "convexity" instead of stalling.
    """
    advance = step if eps > 0 else dual_step
    geo0 = geometry_of(_graph(grid, u0, eps), F)
    if not geo0.convex:
        raise ConvexityError("initial datum is not strictly convex")
    state = FlowState(t=0.0, u=u0, geometry=geo0, dt_last=0.0)
    traj = FlowTrajectory(config=config, states=[state])
    targets = sorted(float(t) for t in t_targets)
    last = targets[-1] if targets else None
    if t_stop is not None:
        targets = sorted(targets + [float(t_stop)])
    k_target = 0
    steps = 0
    while t_stop is None or state.t < t_stop - 1e-13:
        while k_target < len(targets) and targets[k_target] <= state.t + 1e-15:
            k_target += 1
        cap = targets[k_target] - state.t if k_target < len(targets) else None
        overrun = np.abs(state.u).max() < config.u_stop
        if overrun and (cap is None or targets[k_target] != last):
            break
        try:
            state = advance(state, F, config.cfl, grid, cap)
        except tuple(_ABORTS) as exc:
            if not overrun:
                traj.failure = _ABORTS[type(exc)]
            break
        steps += 1
        hit_target = k_target < len(targets) and abs(state.t - targets[k_target]) < 1e-13
        if hit_target:
            traj.landed.append(len(traj.states))
        if steps % config.record_every == 0 or hit_target:
            traj.states.append(state)
        r = np.abs(state.u)
        if r.min() < 0.25 * config.u_stop <= r.max():
            # extinction point sits away from the origin (e.g. a k=1 mode
            # in the initial datum): the near-side radius collapses while
            # the far side stays above u_stop, so the loop could only
            # grind dt -> 0 forever; abort as a graph degeneration
            if traj.states[-1] is not state:
                traj.states.append(state)
            traj.failure = "convexity"
            break
    traj.steps_taken = steps
    if traj.states[-1] is not state and traj.failure is None:
        traj.states.append(state)
    if traj.failure is None and sum(np.abs(s.u).max() < 0.1 for s in traj.states) >= 3:
        est = estimate_Tstar(traj)
        traj.T_star_estimate = est.value
        traj.Tstar_warn = est.warn
    return traj


def run_flow(config: FlowConfig, t_targets=(), t_stop: float | None = None) -> FlowTrajectory:
    """Integrate the contracting primal from the configured initial datum
    (see _drive for targets, stopping and aborts)."""
    grid = make_grid(config.n, config.m)
    F = make_function(config.F, config.n)
    u0 = make_initial(config.initial, config.initial_params, grid, config.seed)
    return _drive(config, F, grid, u0, 1.0, t_targets, t_stop)


def run_dual_flow(config: FlowConfig, initial: DeSitterGraph, t_targets=(),
                  t_stop: float | None = None) -> FlowTrajectory:
    """Integrate the expanding dual from a stored de Sitter graph.

    config.F names the PRIMAL speed; the dual runs under its inverse.
    The states hold u* (also readable as state.u_star).
    """
    F_dual = curvfn.invert(make_function(config.F, config.n))
    return _drive(config, F_dual, initial.grid, initial.u_star, -1.0, t_targets, t_stop)


# ----------------------------------------------------------------------
# extinction time and rescaling
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TstarEstimate:
    value: float
    spread: float
    warn: bool

    def __float__(self):
        return self.value


def estimate_Tstar(traj: FlowTrajectory) -> TstarEstimate:
    """Extrapolate T* from t + ln cosh(mean |u|) on the late records.

    On spheres the expression is exact at every time; |u| makes a dual
    run (|u*| plays the role of u) estimate the same T*.  In general the
    last few records (max |u| < 0.1) give a sequence converging fast
    enough for one Aitken acceleration; its spread over the tail is
    returned, with a warning flag above 1e-3.
    """
    grid = traj.grid
    tail = [s for s in traj.states if np.abs(s.u).max() < 0.1][-8:]
    if len(tail) < 3:
        raise ValueError("trajectory never reached max |u| < 0.1 on enough records")
    area = grid.integrate(np.ones(grid.m))
    a = np.array([s.t + math.log(math.cosh(grid.integrate(np.abs(s.u)) / area)) for s in tail])
    acc = a
    d2 = a[2:] - 2.0 * a[1:-1] + a[:-2]
    if np.all(np.abs(d2) > 1e-14):
        acc = a[2:] - (a[2:] - a[1:-1]) ** 2 / d2
    spread = float(a[-3:].max() - a[-3:].min())
    return TstarEstimate(value=float(acc[-1]), spread=spread, warn=bool(spread > 1e-3))


@dataclass(frozen=True)
class RescaledRecord:
    """One record in barrier-normalized variables."""

    t: float
    tau: float
    Theta: float
    u_tilde: np.ndarray
    kappa_scaled: np.ndarray
    F_tilde: np.ndarray | None
    w: np.ndarray | None


def rescale(traj: FlowTrajectory, T_star: float, duals=None) -> list:
    """Normalize recorded states by the spherical barrier with time T_star.

    Theta(t) is the sphere radius extinguishing at T_star; tau = -ln
    Theta, u~ = u/Theta, kappa is scaled by Theta.  When duals (stored
    DeSitterGraph per record, or None entries) are supplied, w = u*/Theta.
    """
    last_t = traj.states[-1].t
    if T_star <= last_t:
        raise ValueError(f"T_star = {T_star!r} must exceed the last recorded t = {last_t!r}")
    r0_eff = math.acosh(math.exp(T_star))
    out = []
    for i, s in enumerate(traj.states):
        Theta = spherical_theta(s.t, r0_eff)
        w = None
        if duals is not None and duals[i] is not None:
            w = duals[i].u_star / Theta
        out.append(
            RescaledRecord(
                t=s.t,
                tau=-math.log(Theta),
                Theta=Theta,
                u_tilde=s.u / Theta,
                kappa_scaled=s.geometry.kappa * Theta,
                F_tilde=None if s.geometry.F_value is None else s.geometry.F_value * Theta,
                w=w,
            )
        )
    return out
