"""Time integration of the contracting flow and its de Sitter dual.

The primal evolution moves a convex hypersurface along its exterior
normal with speed F(kappa); in graph form du/dt = -F v.  The dual
surface of normals expands, in the switched convention du*/dt =
+v~ / F~(kappa~), rising toward the equatorial slice.  Both flows run
through one driver and one implicit Radau IIA integrator (three stages,
order five, adaptive steps), parametrized by the sign eps (+1 primal,
-1 dual) of hgeom._kappa.  The discretized flows are stiff: an
explicit step is bounded by the grid spacing squared, an implicit one
by accuracy alone, so the step count does not grow with m.  The Newton
matrices are pentadiagonal, like the stencils, and are factored in
O(m).  Each Newton iteration and each Jacobian is one rhs call on a
stack of trial profiles; a trial row reports failure by NaN, and only
accepted states are checked, once.  Geodesic spheres solve the primal
flow in closed form and serve as the exact reference and as
extinction-time barriers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import curvfn
from .curvfn import CurvatureFunction, make_function
from .dualmap import CausalityError, DeSitterGraph
from .hgeom import GraphGeometry, HyperbolicGraph, _kappa, geometry_of
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
    "RadauIIA",
    "step",
    "run_flow",
    "dual_step",
    "run_dual_flow",
    "TstarEstimate",
    "estimate_Tstar",
    "RescaledRecord",
    "rescale",
]

# smallest admissible time step; a smaller step means the surface is too
# close to extinction to continue
DT_MIN = 1e-12


class ConvexityError(RuntimeError):
    """A principal curvature left the positive cone during stepping."""


class StiffnessError(RuntimeError):
    """Step-size control fell below DT_MIN (surface near extinction)."""


@dataclass(frozen=True)
class FlowConfig:
    """One experiment: speed function, grid, initial datum, stop and record cadence."""

    F: str
    n: int
    m: int
    initial: str
    initial_params: tuple = ()
    u_stop: float = 0.02
    record_every: int = 10
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.u_stop < math.inf:  # false for NaN too
            raise ValueError("u_stop must be positive and finite")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")
        params = tuple(float(p) for p in self.initial_params)
        if not all(math.isfinite(p) for p in params):
            raise ValueError(f"initial parameters must be finite, got {params!r}")
        object.__setattr__(self, "initial_params", params)


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
    that landed on a target time, in time order.  rhs_evals, jac_evals
    and factorizations count the integrator's work (see RadauIIA).
    """

    config: FlowConfig
    states: list = field(default_factory=list)
    T_star_estimate: float | None = None
    Tstar_warn: bool = False
    failure: str | None = None
    steps_taken: int = 0
    landed: list = field(default_factory=list)
    rhs_evals: int = 0
    jac_evals: int = 0
    factorizations: int = 0

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
# the two flows: one Radau IIA integrator and one driver, signed by eps
# ----------------------------------------------------------------------

_ABORTS = {StiffnessError: "stiffness", ConvexityError: "convexity", CausalityError: "causality"}

# step-size control tolerances, far below the h^4 error of the stencils
RTOL = 1e-10
ATOL = 1e-12


def _geometry(grid: SphereGrid, u: np.ndarray, F: CurvatureFunction, eps: float) -> GraphGeometry:
    """Geometry with the speed attached, of a state the flow can continue
    from: a primal radius stays positive, a dual stays spacelike below the
    equatorial slice, and either is strictly convex."""
    if eps > 0 and u.min() <= 0.0:
        raise ConvexityError(f"radius collapsed at node {int(np.argmin(u))}")
    if eps < 0 and u.max() >= 0.0:
        raise CausalityError("dual graph crossed the equatorial slice")
    geo = geometry_of(HyperbolicGraph(grid, u) if eps > 0 else DeSitterGraph(grid, u), F)
    if not geo.convex:
        j = int(np.argmin(geo.kappa.min(axis=1)))
        raise ConvexityError(f"not strictly convex at node {j}")
    return geo


def _velocity(F_value: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    """Graph form of the normal speed: du/dt = -F v contracting the primal,
    du*/dt = +v~ / F~ expanding the dual toward the equatorial slice (on
    slices this reproduces d(-Theta)/dt = +coth Theta)."""
    return -F_value * v if eps > 0 else v / F_value


# Radau IIA, three stages, order five (Hairer & Wanner, Solving ODEs II,
# IV.8).  The collocation system is solved in the eigenbasis of the Butcher
# matrix, A^-1 = T diag(MU_REAL, MU_COMPLEX) T^-1 up to the complex pair's
# real 2x2 block, so a Newton iteration takes one real and one complex
# solve of size m.
_S6 = math.sqrt(6.0)
_C = np.array([(4.0 - _S6) / 10.0, (4.0 + _S6) / 10.0, 1.0])
_E = np.array([-13.0 - 7.0 * _S6, -13.0 + 7.0 * _S6, -1.0]) / 3.0
_MU_REAL = 3.0 + 3.0 ** (2.0 / 3.0) - 3.0 ** (1.0 / 3.0)
_MU_COMPLEX = (3.0 + 0.5 * (3.0 ** (1.0 / 3.0) - 3.0 ** (2.0 / 3.0))
               - 0.5j * (3.0 ** (5.0 / 6.0) + 3.0 ** (7.0 / 6.0)))
_T = np.array([
    [0.09443876248897524, -0.14125529502095421, 0.03002919410514742],
    [0.25021312296533332, 0.20412935229379994, -0.38294211275726192],
    [1.0, 1.0, 0.0]])
_TI = np.array([
    [4.17871859155190428, 0.32768282076106237, 0.52337644549944951],
    [-4.17871859155190428, -0.32768282076106237, 0.47662355450055044],
    [0.50287263494578682, -2.57192694985560522, 0.59603920482822492]])
_TI_COMPLEX = _TI[1] + 1j * _TI[2]
# a step's collocation polynomial in powers of (t - t_old)/h, from its stages
_P = np.array([
    [13.0 / 3.0 + 7.0 * _S6 / 3.0, -23.0 / 3.0 - 22.0 * _S6 / 3.0, 10.0 / 3.0 + 5.0 * _S6],
    [13.0 / 3.0 - 7.0 * _S6 / 3.0, -23.0 / 3.0 + 22.0 * _S6 / 3.0, 10.0 / 3.0 - 5.0 * _S6],
    [1.0 / 3.0, -8.0 / 3.0, 10.0 / 3.0]])
_NEWTON_MAXITER = 6
_NEWTON_TOL = max(10.0 * np.finfo(float).eps / RTOL, min(0.03, math.sqrt(RTOL)))
_MIN_FACTOR, _MAX_FACTOR = 0.2, 10.0


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x)))


class _BandLU:
    """LU factors of a pentadiagonal matrix, real or complex, no pivoting.

    bands[k, i] holds A[i, i + k - 2].  A cyclic matrix (column indices
    mod m) also carries its corner entries there, in bands[:2, :2] and
    bands[3:, -2:]; they are split off as A = B + U K U^T, U the columns
    {0, 1, m-2, m-1} of the identity, and folded back in by the Woodbury
    identity.  The elimination runs in plain Python over the rows: O(m)
    work and no m x m array.  Without pivoting it needs nonzero leading
    pivots, which a shifted Newton matrix mu/h - J of the parabolic flow
    has.
    """

    def __init__(self, bands: np.ndarray, cyclic: bool):
        bands = np.array(bands)
        m = bands.shape[1]
        K = np.zeros((4, 4), dtype=bands.dtype)
        K[0, 2], K[0, 3], K[1, 3] = bands[0, 0], bands[1, 0], bands[0, 1]
        K[2, 0], K[3, 0], K[3, 1] = bands[4, m - 2], bands[3, m - 1], bands[4, m - 1]
        bands[0, :2] = bands[1, 0] = bands[3, m - 1] = bands[4, m - 2:] = 0.0
        lower, upper = [], []
        u1_2 = e_2 = inv_2 = u1_1 = e_1 = inv_1 = 0.0  # rows i-2 and i-1 of U
        for a, b, c, d, e in zip(*(row.tolist() for row in bands)):
            l2 = a * inv_2
            l1 = (b - l2 * u1_2) * inv_1
            u1 = d - l1 * e_1
            inv = 1.0 / (c - l2 * e_2 - l1 * u1_1)
            lower.append((l1, l2))
            upper.append((u1, e, inv))
            u1_2, e_2, inv_2, u1_1, e_1, inv_1 = u1_1, e_1, inv_1, u1, e, inv
        self._lower, self._upper = lower, upper[::-1]
        self._woodbury = None
        if cyclic:
            idx = [0, 1, m - 2, m - 1]
            Z = np.stack([self._band_solve(np.eye(1, m, j)[0]) for j in idx], axis=1)
            G = np.linalg.solve(np.eye(4) + K @ Z[idx], K)
            self._woodbury = (idx, Z, G)

    def _band_solve(self, rhs: np.ndarray) -> np.ndarray:
        y = []
        y1 = y2 = 0.0
        for r, (l1, l2) in zip(rhs.tolist(), self._lower):
            y2, y1 = y1, r - l1 * y1 - l2 * y2
            y.append(y1)
        x = []
        x1 = x2 = 0.0
        for r, (u1, e, inv) in zip(reversed(y), self._upper):
            x2, x1 = x1, (r - u1 * x1 - e * x2) * inv
            x.append(x1)
        return np.array(x[::-1])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs."""
        x = self._band_solve(rhs)
        if self._woodbury is not None:
            idx, Z, G = self._woodbury
            x = x - Z @ (G @ x[idx])
        return x


class RadauIIA:
    """The Radau IIA integrator of one run of either flow.

    It keeps what carries over from one accepted step to the next: the
    proposed step size, the banded Jacobian, the factored Newton matrices
    and the last step's collocation polynomial, which predicts the next
    stages.  It counts rhs evaluations, Jacobian evaluations and Newton
    matrix factorizations (a real and a complex one each).

    The Jacobian of the rhs is pentadiagonal: the stencils have five
    points, the pole reflections stay inside the band and a circle wraps
    around it.  It is taken by forward differences, perturbing every
    column of one colour at once; columns five apart share no row, so one
    rhs call on a stack of five perturbed profiles gives the band.  On a
    circle whose m is not a multiple of 5 the last m % 5 columns get
    colours of their own.
    """

    def __init__(self, grid: SphereGrid, F: CurvatureFunction, eps: float):
        self.grid, self.F, self.eps = grid, F, eps
        self.cyclic = isinstance(grid, CircleGrid)
        m = grid.m
        cols = np.arange(m)[None, :] + np.arange(-2, 3)[:, None]
        inside = (cols >= 0) & (cols < m)
        colour = np.arange(m) % 5
        if self.cyclic:
            cols, inside = cols % m, np.ones_like(inside)
            colour[m - m % 5:] += 5
        self._cols, self._inside = np.where(inside, cols, 0), inside
        # row c perturbs the columns of colour c; entry (k, i) reads its column's row
        self._perturb = colour == np.arange(colour.max() + 1)[:, None]
        self._band_rows = colour[self._cols]
        self.rhs_evals = self.jac_evals = self.factorizations = 0
        self._state = None  # the state the carried data belong to

    def _rhs(self, u: np.ndarray) -> np.ndarray:
        """du/dt of one profile (m,) or of each row of a stack (..., m); a row
        with a node across u = 0 or a curvature that is not finite and
        positive (not convex, or a dual not spacelike) comes back NaN, and
        the step is then retried smaller.  rhs_evals counts profiles."""
        self.rhs_evals += u.size // self.grid.m
        with np.errstate(all="ignore"):
            _, v, kappa = _kappa(self.grid, u, self.eps)
            ok = ((self.eps * u > 0.0).all(axis=-1)
                  & (np.isfinite(kappa) & (kappa > 0.0)).all(axis=(-2, -1)))
            F_value = self.F.value(np.where(ok[..., None, None], kappa, 1.0))
            return np.where(ok[..., None], _velocity(F_value, v, self.eps), np.nan)

    def _jacobian(self, u: np.ndarray, f: np.ndarray) -> None:
        self.jac_evals += 1
        delta = math.sqrt(np.finfo(float).eps) * np.maximum(np.abs(u), 1.0)
        df = self._rhs(u + np.where(self._perturb, delta, 0.0)) - f
        band = np.where(self._inside,
                        df[self._band_rows, np.arange(u.size)] / delta[self._cols], 0.0)
        self._jac, self._jac_current, self._lu_h, self._u_jac = band, True, None, u

    def _factor(self, h: float) -> None:
        self.factorizations += 1
        shifted = -self._jac
        shifted[2] += _MU_REAL / h
        self._lu_real = _BandLU(shifted, self.cyclic)
        shifted = -self._jac.astype(complex)
        shifted[2] += _MU_COMPLEX / h
        self._lu_complex = _BandLU(shifted, self.cyclic)
        self._lu_h = h

    def _newton(self, y: np.ndarray, h: float, Z: np.ndarray, scale: np.ndarray):
        """Simplified Newton iteration on the stage increments Z, (3, m).

        Returns (converged, iterations, Z, contraction rate)."""
        W = _TI @ Z
        mu_real, mu_complex = _MU_REAL / h, _MU_COMPLEX / h
        norm_old = rate = None
        for k in range(_NEWTON_MAXITER):
            F = self._rhs(y + Z)
            if not np.all(np.isfinite(F)):
                break
            dW_real = self._lu_real.solve(_TI[0] @ F - mu_real * W[0])
            dW_complex = self._lu_complex.solve(
                _TI_COMPLEX @ F - mu_complex * (W[1] + 1j * W[2]))
            dW = np.array([dW_real, dW_complex.real, dW_complex.imag])
            dW_norm = _rms(dW / scale)
            if not math.isfinite(dW_norm):
                break
            if norm_old is not None:
                rate = dW_norm / norm_old
                # diverging, or too slow to converge within the iteration cap
                if (rate >= 1.0
                        or rate ** (_NEWTON_MAXITER - k) / (1.0 - rate) * dW_norm > _NEWTON_TOL):
                    break
            W += dW
            Z = _T @ W
            if dW_norm == 0.0 or rate is not None and rate / (1.0 - rate) * dW_norm < _NEWTON_TOL:
                return True, k + 1, Z, rate
            norm_old = dW_norm
        return False, k + 1, Z, rate

    def _factor_of(self, h: float, err: float) -> float:
        """Step-size factor from an error norm, with Gustafsson's predictive
        control once an accepted step is known."""
        err = max(err, 1e-16)
        trend = 1.0 if self._err_old is None else h / self._h_old * (self._err_old / err) ** 0.25
        return min(1.0, trend) * err ** -0.25

    def _restart(self, state: FlowState, f: np.ndarray) -> None:
        """Jacobian and first step size at a state not reached by this
        integrator (Hairer, Norsett & Wanner, Solving ODEs I, II.4)."""
        y = state.u
        self._jacobian(y, f)
        self._Z = self._h_old = self._err_old = None
        scale = ATOL + RTOL * np.abs(y)
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = 1e-6 if min(d0, d1) < 1e-5 else 0.01 * d0 / d1
        d2 = _rms((self._rhs(y + h0 * f) - f) / scale) / h0
        self.h = min(100.0 * h0, (0.01 / max(d1, d2)) ** 0.25)

    def advance(self, state: FlowState, t_cap: float | None) -> FlowState:
        """One accepted step from state; a step that would reach t_cap lands
        on it exactly.  A step below DT_MIN raises StiffnessError, and an
        accepted state the flow cannot continue from raises
        ConvexityError or CausalityError."""
        t, y = state.t, state.u
        f = _velocity(state.geometry.F_value, state.geometry.v, self.eps)
        if state is not self._state:
            self._restart(state, f)
        h, rejected = self.h, False
        while True:
            if h < DT_MIN:
                raise StiffnessError(f"dt = {h:.3e} below {DT_MIN:.0e}")
            # DT_MIN bounds the controller's step: a short landing is not stiffness
            landing = t_cap is not None and h > t_cap - t - 1e-13
            h_try = t_cap - t if landing else h
            if self._Z is None:
                Z0 = np.zeros((3, y.size))
            else:
                x = 1.0 + (h_try / self._h_old) * _C
                Z0 = (x[:, None] ** np.arange(1, 4)) @ (_P.T @ self._Z) - self._Z[-1]
            scale = ATOL + RTOL * np.abs(y)
            while True:
                if self._lu_h != h_try:
                    self._factor(h_try)
                converged, n_iter, Z, rate = self._newton(y, h_try, Z0, scale)
                if converged or self._jac_current:
                    break
                self._jacobian(y, f)
            if not converged:
                h = 0.5 * h_try
                continue
            y_new = y + Z[-1]
            ZE = (_E @ Z) / h_try
            error = self._lu_real.solve(f + ZE)
            scale = ATOL + RTOL * np.maximum(np.abs(y), np.abs(y_new))
            err = _rms(error / scale)
            if rejected and err > 1.0:
                error = self._lu_real.solve(self._rhs(y + error) + ZE)
                err = _rms(error / scale)
            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            if err <= 1.0:
                break
            shrink = safety * self._factor_of(h_try, err) if math.isfinite(err) else 0.0
            h, rejected = h_try * max(_MIN_FACTOR, shrink), True
        self.rhs_evals += 1
        geo = _geometry(self.grid, y_new, self.F, self.eps)
        # the stiff eigenvalues scale like 1/u^2; with a Jacobian from a
        # profile a tenth away, Newton contracts the stiff modes slowly, and
        # the rate test, led by the smooth modes, misses that while they sit
        # at rounding level: they would grow from step to step
        recompute_jac = (n_iter > 2 and rate > 1e-3
                         or np.abs(y_new - self._u_jac).max() > 0.1 * np.abs(y_new).min())
        factor = min(_MAX_FACTOR, safety * self._factor_of(h_try, err))
        if not recompute_jac and factor < 1.2:
            factor = 1.0
        self._h_old, self._err_old, self._Z = h_try, err, Z
        # a landing cut the step short; the controller's proposal still holds
        self.h = max(h_try * factor, h) if landing else h_try * factor
        if recompute_jac:
            self._jacobian(y_new, _velocity(geo.F_value, geo.v, self.eps))
        else:
            self._jac_current = False
        self._state = FlowState(t=t_cap if landing else t + h_try, u=y_new, geometry=geo,
                                dt_last=h_try)
        return self._state


def step(solver: RadauIIA, state: FlowState, t_cap: float | None = None) -> FlowState:
    """One accepted Radau IIA step of the contracting primal flow (see
    RadauIIA.advance)."""
    return solver.advance(state, t_cap)


def dual_step(solver: RadauIIA, state: FlowState, t_cap: float | None = None) -> FlowState:
    """One accepted Radau IIA step of the expanding dual flow under the
    inverse speed (see RadauIIA.advance)."""
    return solver.advance(state, t_cap)


def _drive(config: FlowConfig, F: CurvatureFunction, grid: SphereGrid, u0: np.ndarray,
           eps: float, t_targets, t_stop: float | None) -> FlowTrajectory:
    """Integrate either flow until max |u| < u_stop, recording along the way.

    t_targets are landed on exactly (a step is clipped, never enlarged) and
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
    solver = RadauIIA(grid, F, eps)
    state = FlowState(t=0.0, u=u0, geometry=_geometry(grid, u0, F, eps), dt_last=0.0)
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
        t_cap = targets[k_target] if k_target < len(targets) else None
        overrun = np.abs(state.u).max() < config.u_stop
        if overrun and (t_cap is None or t_cap != last):
            break
        try:
            state = advance(solver, state, t_cap)
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
    traj.rhs_evals, traj.jac_evals = solver.rhs_evals, solver.jac_evals
    traj.factorizations = solver.factorizations
    if traj.states[-1] is not state and traj.failure is None:
        traj.states.append(state)
    if traj.failure is None and sum(np.abs(s.u).max() < 0.1 for s in traj.states) >= 3:
        est = estimate_Tstar(traj)
        traj.T_star_estimate = est.value
        traj.Tstar_warn = est.warn
    return traj


def run_flow(config: FlowConfig, t_targets=(), t_stop: float | None = None,
             u0: np.ndarray | None = None) -> FlowTrajectory:
    """Integrate the contracting primal from the profile u0, by default the
    configured initial datum (see _drive for targets, stopping and aborts)."""
    grid = make_grid(config.n, config.m)
    F = make_function(config.F, config.n)
    if u0 is None:
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
