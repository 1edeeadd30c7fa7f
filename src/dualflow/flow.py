"""Time integration of the contracting flow and its de Sitter dual.

The primal evolution moves a convex hypersurface along its exterior
normal with speed F(kappa); in graph form du/dt = -F v.  The dual
surface of normals expands, in the switched convention du*/dt =
+v~ / F~(kappa~), rising toward the equatorial slice.  Both flows run
through one driver and one implicit Radau IIA integrator (three stages,
order five, adaptive steps), parametrized by the sign eps (+1 primal,
-1 dual) of hgeom._kappa.  The discretized flows are stiff: an explicit
step is bounded by the grid spacing squared, an implicit one by
accuracy alone, so the step count does not grow with m.  Newton takes
one of two paths: above m = 64 in flow time its matrices are the band
of the stencils' reach, factored in O(m) with no m x m array; otherwise
they are dense and inverted outright.  Once a run has no target time
left and no stop time, the same integrator switches to the paper's
rescaled variables: u~ = u / lambda in tau = -ln lambda (counted from
the switch), lambda the area mean of |u|, plus the running
extinction-time estimate E = t + ln cosh lambda.  A shrinking sphere is
a fixed point there, so the steps no longer crowd at extinction.  A
primal run to extinction can carry its dual in the same vector, rescaled
by the primal's lambda (run_both): the two take one step sequence in
the primal's tau, and each Newton solve is block lower triangular.  Each
Newton iteration and each Jacobian is one call of the masked rhs kernel
on a stack of trial states; a trial row reports failure by NaN.  Every
state of either flow is a FlowState that carries its side and builds
its GraphGeometry on first read.  Geodesic spheres solve the primal
flow in closed form and serve as the exact reference and as
extinction-time barriers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import curvfn
from .curvfn import CurvatureFunction, make_function
from .hgeom import CausalityError, Graph, GraphGeometry, _kappa, geometry_of
from .sphere_grid import SphereGrid, make_grid, resample_monotone

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
    "run_both",
    "TstarEstimate",
    "estimate_Tstar",
    "RescaledRecord",
    "rescale",
]

# smallest admissible time step; a smaller step means the surface is too
# close to extinction to continue
DT_MIN = 1e-12

# the radius at which sinh^2 u, formed by the curvature kernel, overflows
U_MAX = math.asinh(math.sqrt(sys.float_info.max))


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
        object.__setattr__(self, "u_stop", float(self.u_stop))
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
    """One state of either flow and the side it was integrated on.

    u is the stored profile: the radius u > 0 of a primal state, the
    eigentime u* < 0 of a dual one.  The side is the grid, the speed F
    (the inverse speed on the dual side) and eps (+1 primal, -1 dual).
    geometry, with the speed values, is built on first read and kept; it
    raises as _geometry does for a profile the flow cannot continue from.
    """

    t: float
    u: np.ndarray
    grid: SphereGrid
    F: CurvatureFunction
    eps: float

    @cached_property
    def geometry(self) -> GraphGeometry:
        return _geometry(self.grid, self.u, self.F, self.eps)

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
    that landed on a target time, in time order; for a dual carried by
    its primal (run_both), of the states recorded with a primal record.
    rhs_evals, jac_evals and factorizations count the integrator's work
    (see RadauIIA), shared by the two sides of a joint run.
    """

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
        return self.states[0].grid


# ----------------------------------------------------------------------
# geodesic spheres: the closed-form solution
# ----------------------------------------------------------------------

def spherical_T_star(r0: float) -> float:
    """Extinction time ln cosh r0 = log1p(2 sinh^2(r0/2)) of the geodesic
    sphere of radius r0; the second form keeps its digits for small r0."""
    if not 0.0 < r0 < math.inf:  # false for NaN too
        raise ValueError(f"sphere radius must be positive and finite, got {r0!r}")
    try:
        T = math.log1p(math.sinh(r0) * math.tanh(0.5 * r0))  # 2 sinh^2(r0/2)
    except OverflowError:
        raise ValueError(f"cosh of the sphere radius {r0!r} overflows") from None
    if T < sys.float_info.min:
        raise ValueError(f"the extinction time of the sphere radius {r0!r} underflows")
    return T


def spherical_theta(t, r0: float):
    """Radius of the shrinking geodesic sphere, cosh Theta = cosh(r0) e^{-t},
    as 2 asinh(sqrt(expm1(T* - t) / 2)), which keeps its digits for small r0.

    Any normalized speed gives the same spherical evolution: on an
    umbilic sphere F(coth r, ..) = coth r by homogeneity.
    """
    return _sphere_theta(t, spherical_T_star(r0))


def _sphere_theta(t, T_star: float):
    """Radius 2 asinh(sqrt(expm1(T* - t) / 2)) at time t of the geodesic
    sphere that becomes extinct at T*, keyed by T* rather than a radius."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr >= T_star):
        raise ValueError(f"time outside [0, T*) with T* = {T_star!r}")
    out = 2.0 * np.arcsinh(np.sqrt(0.5 * np.expm1(T_star - t_arr)))
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
    top = 2.0 * math.pi if grid.cyclic else math.pi
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
    random_fourier [r0, amp, kmax] with seeded coefficients up to the
    integer frequency kmax <= m // 2, resampled until strictly convex.
    A profile reaching U_MAX, where sinh^2 u overflows, is rejected.
    """
    params = tuple(float(p) for p in params)
    if name == "sphere":
        (r0,) = params
        if r0 <= 0:
            raise ValueError("sphere radius must be positive")
        u = np.full(grid.m, r0)
    elif name == "perturbed_sphere":
        r0, a, k = params
        ki = int(round(k))
        if ki != k or ki < 1:
            raise ValueError("perturbation frequency must be a positive integer")
        u = r0 + a * np.cos(ki * grid.theta)
        if u.min() <= 0:
            raise ValueError("perturbation exceeds the radius")
    elif name == "ellipsoid":
        a, b = params
        u = _ellipsoid_profile(grid, a, b)
    elif name == "random_fourier":
        r0, amp, kmax = params
        if not (r0 > 0 and amp >= 0 and 1 <= kmax <= grid.m // 2 and kmax == int(kmax)):
            raise ValueError(f"random_fourier needs r0 > 0, amp >= 0 and an integer kmax "
                             f"in [1, m // 2 = {grid.m // 2}], got {params!r}")
        rng = np.random.default_rng(seed)
        for _ in range(64):
            coef = rng.normal(size=int(kmax)) / np.arange(1, kmax + 1) ** 2
            u = r0 + 0.0 * grid.theta
            for k, c in enumerate(coef, start=1):
                u = u + amp * c * np.cos(k * grid.theta)
                if grid.cyclic:
                    u = u + amp * rng.normal() / k**2 * np.sin(k * grid.theta)
            if u.max() >= U_MAX or (u.min() > 0.05 and np.all(_kappa(grid, u, 1.0)[2] > 0.0)):
                break
        else:
            raise ValueError("could not draw a convex random profile; lower amp")
    else:
        raise ValueError(f"unknown initial datum {name!r}")
    if u.max() >= U_MAX:
        raise ValueError(f"initial radius {u.max():.6g} reaches {U_MAX:.6g}, where sinh^2 overflows")
    return u


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
    geo = geometry_of(Graph(grid, u, eps), F)
    if not geo.convex:
        j = int(np.argmin(geo.kappa.min(axis=1)))
        raise ConvexityError(f"not strictly convex at node {j}")
    return geo


def _velocity(F_value: np.ndarray, v: np.ndarray, eps: float) -> np.ndarray:
    """Graph form of the normal speed: du/dt = -F v contracting the primal,
    du*/dt = +v~ / F~ expanding the dual toward the equatorial slice (on
    slices this reproduces d(-Theta)/dt = +coth Theta)."""
    return -F_value * v if eps > 0 else v / F_value


def _masked_rhs(grid: SphereGrid, F: CurvatureFunction, eps: float, u: np.ndarray):
    """The admissibility mask and du/dt of a profile (m,) or of each row of a
    stack (..., m): a row with a node across u = 0 or a curvature that is not
    finite and positive (not convex, or a dual not spacelike) fails, du/dt NaN."""
    with np.errstate(all="ignore"):
        _, v, kappa = _kappa(grid, u, eps)
        ok = ((eps * u > 0.0).all(axis=-1)
              & (np.isfinite(kappa) & (kappa > 0.0)).all(axis=(-2, -1)))
        F_value = F._value(np.where(ok[..., None, None], kappa, 1.0))
        return ok, np.where(ok[..., None], _velocity(F_value, v, eps), np.nan)


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
    return math.sqrt(np.add.reduce(x * x, axis=None) / x.size)  # np.mean, unwrapped


class _BandLU:
    """LU factors of a pentadiagonal matrix, real or complex, no pivoting.

    bands[k, i] holds A[i, i + k - 2].  A cyclic matrix (column indices
    mod m) also carries its corner entries there, in bands[:2, :2] and
    bands[3:, -2:]; they are split off as A = B + U K U^T, U the columns
    {0, 1, m-2, m-1} of the identity, and folded back in by the Woodbury
    identity.  The elimination runs in plain Python over the rows: O(m)
    work and no m x m array.  Without pivoting it needs nonzero leading
    pivots, which a shifted Newton matrix mu/h - J of the parabolic flow
    has.  It serves flow time above _DENSE_MAX_M, where an explicit inverse
    costs 20 to 44 times as much at m = 256 (README, "Time stepping").
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


# the largest m whose Newton matrices are inverted outright: one matrix
# product per solve then beats the band LU's Python row loop, and a step's
# solves repay the O(m^3) inverses (README, "Time stepping")
_DENSE_MAX_M = 64


class _DenseInverse:
    """A Newton matrix kept as its explicit inverse: a solve is one
    matrix-vector product.  A block lower triangular matrix [[P, 0], [C, D]],
    P of size k, keeps P^-1, D^-1 and C instead, and solves by
    substitution: x1 = P^-1 b1, then x2 = D^-1 (b2 - C x1); its upper right
    block is never read.  A NaN entry gives a NaN solve, as in _BandLU.

    The block inverses stay because they cost half of one full inverse: at
    m = 48 (size 98, one BLAS thread) 213 us real and 328 us complex
    against 457 and 796 us, about 60 ms over a joint run to extinction."""

    def __init__(self, A: np.ndarray, k: int | None = None):
        self._k = k = len(A) if k is None else k
        self._inv = np.linalg.inv(A[:k, :k])
        if k < len(A):
            self._C, self._inv_D = A[k:, :k], np.linalg.inv(A[k:, k:])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs."""
        x = self._inv @ rhs[:self._k]
        if self._k == len(rhs):
            return x
        return np.concatenate([x, self._inv_D @ (rhs[self._k:] - self._C @ x)])


class RadauIIA:
    """The Radau IIA integrator of one run of either flow.

    It keeps what carries over from one accepted step to the next: the
    independent variable x and the state vector y of the last accepted
    state, the proposed step size, the Jacobian, the factored Newton
    matrices and the last step's collocation polynomial, which predicts
    the next stages.  It counts rhs evaluations, Jacobian evaluations and
    Newton matrix factorizations (a real and a complex one each).

    It starts in flow time, x = t and y = u.  Its Jacobian is taken by
    forward differences on one of two paths.  The dense path perturbs one
    column per row of the stack y + diag(delta) and inverts the Newton
    matrices (_DenseInverse).  The band path, flow time above _DENSE_MAX_M,
    perturbs one colour of columns per row, so one rhs call gives the band
    of the stencils' reach (SphereGrid.band), and factors them (_BandLU).

    enter_rescaled() moves it, for the rest of the run, to the paper's
    rescaled variables (dynamic rescaling, Berger & Kohn 1988): x = tau,
    counted from the switch, and y = (u~, s, E), where lambda = e^s is the
    area mean of |u|, u~ = u / lambda and E = t + ln cosh lambda.  A primal
    run may carry its dual in the same vector, y = (u~, s, E, w) with w =
    u* / lambda, rescaled by the primal's lambda (the paper's one scale
    factor).  With <.> the area mean and f the primal's du/dt, every
    profile block b of y (u~, and w when carried) follows one rule,

        db/dtau = b + f_side(lambda b) / q,   q = -eps <f>,
        ds/dtau = -1,
        dE/dtau = lambda / q - lambda tanh lambda,

    f_side the du/dt of the block's own side, so dt/dtau = lambda / q.  A
    geodesic sphere, or a dual slice, is a fixed point of its block and of
    E, and E is then its extinction time.  <f> couples every node, so the
    rescaled phase takes the dense path at every m.  An accepted state is
    still a FlowState, with t = E - ln cosh lambda and u = lambda u~; the
    dual state at the same t is kept as well (dual).

    The primal rows never read w, so the Newton matrices are block lower
    triangular: the Jacobian's primal rows are set to zero in the w
    columns, and _DenseInverse keeps the inverses of the two diagonal
    blocks, m + 2 and m, and the coupling block.
    """

    def __init__(self, grid: SphereGrid, F: CurvatureFunction, eps: float):
        self.grid, self.F, self.eps = grid, F, eps
        self._cols, self._inside, colour = grid.band()
        # row c perturbs the columns of colour c; entry (k, i) reads its column's row
        self._perturb = colour == np.arange(colour.max() + 1)[:, None]
        self._band_rows = colour[self._cols]
        self.rescaled = False
        self.rhs_evals = self.jac_evals = self.factorizations = 0
        self._state = None  # the state the carried data belong to
        self.dual = None  # the dual state carried beside the primal, if any

    @property
    def _banded(self) -> bool:  # the Newton path (class docstring)
        return not self.rescaled and self.grid.m > _DENSE_MAX_M

    def enter_rescaled(self, state: FlowState, dual: FlowState | None = None) -> None:
        """Integrate in the rescaled variables from state on, with tau = 0
        there; a dual state at the same t joins the vector as w."""
        self.rescaled = True
        w = self.grid.integrate(np.eye(self.grid.m))
        self._weights = w / w.sum()  # the area mean as a dot product
        self.dual = dual
        self._restart(state)

    def drop_dual(self) -> None:
        """Go on with the primal alone from the last accepted state, at its tau."""
        self.dual = None
        self._start(self.x, self._y[:self.grid.m + 2])

    def _eval(self, y: np.ndarray):
        """The admissibility mask and dy/dx of a state vector (m,), (m + 2,)
        or (2m + 2,), or of each row of a stack: _masked_rhs in flow time,
        the rescaled equations (class docstring) after enter_rescaled()."""
        if not self.rescaled:
            return _masked_rhs(self.grid, self.F, self.eps, y)
        m = self.grid.m
        lam = np.exp(y[..., m:m + 1])
        ok, f = _masked_rhs(self.grid, self.F, self.eps, lam * y[..., :m])
        q = -self.eps * (f @ self._weights)[..., None]
        parts = [y[..., :m] + f / q, np.full_like(q, -1.0), lam / q - lam * np.tanh(lam)]
        if self.dual is not None:  # the same rule for w, at the primal's lambda and q
            w = y[..., m + 2:]
            ok_w, f_w = _masked_rhs(self.grid, self.dual.F, self.dual.eps, lam * w)
            ok, parts = ok & ok_w, parts + [w + f_w / q]
        return ok, np.concatenate(parts, axis=-1)

    def _rhs(self, y: np.ndarray) -> np.ndarray:
        """dy/dx by _eval, NaN on a failed row (the step is then retried
        smaller); rhs_evals counts state vectors."""
        self.rhs_evals += y.size // y.shape[-1]
        return self._eval(y)[1]

    def _accept(self, x: float, y: np.ndarray) -> FlowState:
        """The state at x of an accepted vector y, its dy/dx kept in _f; one
        the flow cannot continue from raises as its geometry does."""
        self.rhs_evals += 1
        ok, f = self._eval(y)
        t, u, dual = x, y, self.dual
        if self.rescaled:
            m = self.grid.m
            lam = np.exp(y[m:m + 1])
            t, u = float(y[m + 1]) - math.log(math.cosh(lam[0])), lam * y[:m]
            if dual is not None:
                dual = FlowState(t, lam * y[m + 2:], self.grid, dual.F, dual.eps)
        state = FlowState(t, u, self.grid, self.F, self.eps)
        if not ok:  # the geometries reject every row the mask does
            for s in filter(None, (state, dual)):
                s.geometry
        self.x, self._y, self._f, self.dual = x, y, f, dual
        return state

    def _scale(self, y_abs: np.ndarray) -> np.ndarray:
        """Error weights ATOL + RTOL |y|; s is integrated exactly and left out."""
        scale = ATOL + RTOL * y_abs
        if self.rescaled:
            scale[self.grid.m] = np.inf
        return scale

    def _jacobian(self, y: np.ndarray, f: np.ndarray) -> None:
        self.jac_evals += 1
        delta = math.sqrt(np.finfo(float).eps) * np.maximum(np.abs(y), 1.0)
        if self._banded:
            df = self._rhs(y + np.where(self._perturb, delta, 0.0)) - f
            jac = np.where(self._inside,
                           df[self._band_rows, np.arange(y.size)] / delta[self._cols], 0.0)
        else:
            jac = (self._rhs(y + np.diag(delta)) - f).T / delta
            if self.dual is not None:
                # the primal rows never read w: their w columns hold only the
                # rounding of the stacked <f>, and the block solve never reads them
                jac[:self.grid.m + 2, self.grid.m + 2:] = 0.0
        self._jac, self._jac_current, self._lu_h, self._y_jac = jac, True, None, y

    def _newton_matrix(self, shift):
        """shift - J ready for solves: the band LU on the band path, else
        the explicit inverse, by blocks when the dual is carried."""
        A = -self._jac.astype(type(shift))
        if self._banded:
            A[len(A) // 2] += shift  # the middle band is the diagonal
            return _BandLU(A, self.grid.cyclic)
        A[np.diag_indices_from(A)] += shift
        return _DenseInverse(A, None if self.dual is None else self.grid.m + 2)

    def _factor(self, h: float) -> None:
        self.factorizations += 1
        self._lu_real = self._newton_matrix(_MU_REAL / h)
        self._lu_complex = self._newton_matrix(_MU_COMPLEX / h)
        self._lu_h = h

    def _newton(self, y: np.ndarray, h: float, Z: np.ndarray, scale: np.ndarray):
        """Simplified Newton iteration on the stage increments Z, (3, m).

        Returns (converged, iterations, Z, contraction rate)."""
        W = _TI @ Z
        mu_real, mu_complex = _MU_REAL / h, _MU_COMPLEX / h
        norm_old = rate = None
        for k in range(_NEWTON_MAXITER):
            F = self._rhs(y + Z)
            if not np.isfinite(F).all():
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
                # two increments below the tolerance are converged whatever
                # their ratio: at a fixed point it is a ratio of rounding noise
                floor = max(norm_old, dW_norm) < _NEWTON_TOL
                # diverging, or too slow to converge within the iteration cap
                if not floor and (rate >= 1.0 or rate ** (_NEWTON_MAXITER - k) / (1.0 - rate)
                                  * dW_norm > _NEWTON_TOL):
                    break
            W += dW
            Z = _T @ W
            if dW_norm == 0.0 or rate is not None and (
                    floor or rate / (1.0 - rate) * dW_norm < _NEWTON_TOL):
                return True, k + 1, Z, rate
            norm_old = dW_norm
        return False, k + 1, Z, rate

    def _factor_of(self, h: float, err: float) -> float:
        """Step-size factor from an error norm, with Gustafsson's predictive
        control once an accepted step is known."""
        err = max(err, 1e-16)
        trend = 1.0 if self._err_old is None else h / self._h_old * (self._err_old / err) ** 0.25
        return min(1.0, trend) * err ** -0.25

    def _restart(self, state: FlowState) -> None:
        """Start from a state not reached by this integrator (and from the
        carried dual at its t)."""
        x, y = state.t, state.u
        if self.rescaled:
            lam = np.abs(y) @ self._weights
            w = [] if self.dual is None else [self.dual.u / lam]
            x, y = 0.0, np.concatenate([y / lam, [math.log(lam), x + math.log(math.cosh(lam))]]
                                       + w)
        self._state = state
        self._start(x, y)

    def _start(self, x: float, y: np.ndarray) -> None:
        """dy/dx, Jacobian and first step size at the state vector y
        (Hairer, Norsett & Wanner, Solving ODEs I, II.4)."""
        f = self._rhs(y)
        self.x, self._y, self._f = x, y, f
        self._jacobian(y, f)
        self._Z = self._h_old = self._err_old = None
        scale = self._scale(np.abs(y))
        d0, d1 = _rms(y / scale), _rms(f / scale)
        h0 = 1e-6 if min(d0, d1) < 1e-5 else 0.01 * d0 / d1
        d2 = _rms((self._rhs(y + h0 * f) - f) / scale) / h0
        # max(d1, d2) is zero at a fixed point of the rescaled variables
        h1 = max(1e-6, 1e-3 * h0) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.25
        self.h = min(100.0 * h0, h1)

    def advance(self, state: FlowState, cap: float | None) -> FlowState:
        """One accepted step from state; a step that would reach x = cap (t,
        or tau once rescaled) lands on it exactly.  A step below DT_MIN
        raises StiffnessError, and an accepted state the flow cannot
        continue from raises ConvexityError or CausalityError."""
        if state is not self._state:
            self._restart(state)
        x, y, f = self.x, self._y, self._f
        h, rejected = self.h, False
        while True:
            if h < DT_MIN:
                raise StiffnessError(f"dt = {h:.3e} below {DT_MIN:.0e}")
            # DT_MIN bounds the controller's step: a short landing is not stiffness
            landing = cap is not None and h > cap - x - 1e-13
            h_try = cap - x if landing else h
            if self._Z is None:
                # rescaled, Euler's stages keep s exact, as Newton's Jacobian
                # column for s holds only difference noise on a fixed point
                Z0 = np.outer(_C * h_try, f) if self.rescaled else np.zeros((3, y.size))
            else:
                z = 1.0 + (h_try / self._h_old) * _C
                Z0 = (z[:, None] ** np.arange(1, 4)) @ (_P.T @ self._Z) - self._Z[-1]
            scale = self._scale(np.abs(y))
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
            scale = self._scale(np.maximum(np.abs(y), np.abs(y_new)))
            err = _rms(error / scale)
            if rejected and err > 1.0:
                error = self._lu_real.solve(self._rhs(y + error) + ZE)
                err = _rms(error / scale)
            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            if err <= 1.0:
                break
            shrink = safety * self._factor_of(h_try, err) if math.isfinite(err) else 0.0
            h, rejected = h_try * max(_MIN_FACTOR, shrink), True
        state = self._state = self._accept(cap if landing else x + h_try, y_new)
        m = self.grid.m
        moved = np.abs(y_new[:m] - self._y_jac[:m]).max() > 0.1 * np.abs(y_new[:m]).min()
        if self.rescaled:
            # the rescaled Jacobian drifts with lambda as well as with u~; a
            # slow Newton iteration is cheaper here than a dense refresh
            recompute_jac = (moved or y_new[m] < self._y_jac[m] - math.log(2.0)  # lambda halved
                             or n_iter > 4 and rate > 1e-2)
        else:
            # the stiff eigenvalues scale like 1/u^2; with a Jacobian from a
            # profile a tenth away, Newton contracts the stiff modes slowly,
            # and the rate test, led by the smooth modes, misses that while
            # they sit at rounding level: they would grow from step to step
            recompute_jac = n_iter > 2 and rate > 1e-3 or moved
        factor = min(_MAX_FACTOR, safety * self._factor_of(h_try, err))
        if not recompute_jac and factor < 1.2:
            factor = 1.0
        # the floor of _factor_of: an exact step (err = 0) must not zero the trend
        self._h_old, self._err_old, self._Z = h_try, max(err, 1e-16), Z
        # a landing cut the step short; the controller's proposal still holds
        self.h = max(h_try * factor, h) if landing else h_try * factor
        if recompute_jac:
            self._jacobian(y_new, self._f)
        else:
            self._jac_current = False
        return state


def step(solver: RadauIIA, state: FlowState, cap: float | None = None) -> FlowState:
    """One accepted Radau IIA step of the contracting primal flow (see
    RadauIIA.advance).  Kept by this name, and dual_step by its own, for
    perfbench, which counts steps by them and checks the count against
    steps_taken (perfbench/run.py, steps_agree)."""
    return solver.advance(state, cap)


def dual_step(solver: RadauIIA, state: FlowState, cap: float | None = None) -> FlowState:
    """One accepted Radau IIA step of the expanding dual flow under the
    inverse speed (see RadauIIA.advance)."""
    return solver.advance(state, cap)


def _tally(traj: FlowTrajectory, solver: RadauIIA, steps: int) -> None:
    traj.steps_taken = steps
    traj.rhs_evals, traj.jac_evals = solver.rhs_evals, solver.jac_evals
    traj.factorizations = solver.factorizations


def _drive(config: FlowConfig, state: FlowState, t_targets, t_stop: float | None,
           dual: FlowState | None = None) -> list:
    """Integrate either flow from state until max |u| < u_stop, recording
    along the way; returns its trajectory in a list, the dual's after it.

    The run starts in flow time and records there only the initial state
    and the states of t_targets, which are landed on exactly (a step is
    clipped, never enlarged); past u_stop the run goes on only to the last
    target, if that is the one left, and an abort on the way there ends it
    cleanly.  t_stop ends the run early at that flow time (it is landed on
    exactly too).  Once no target is left and there is no t_stop, the
    integrator switches to the rescaled variables (RadauIIA.enter_rescaled),
    where a shrinking sphere is a fixed point: records then land on tau =
    k record_every / 100 (tau counted from the switch), and the last step
    lands just below max |u| = u_stop.  The final state is always recorded.
    A surface extinguishing away from the origin can never shrink inside
    the stop ball; once min |u| falls below a quarter of u_stop with max |u|
    still above it the run aborts with failure "convexity" instead of
    stalling.

    dual, the dual state at the switch of a primal run (run_both), is
    carried in the rescaled vector from there on and recorded with each
    primal record; the dual trajectory's landed indexes those pairs.  The
    dual's trajectory ends, and the primal goes on alone (drop_dual),
    cleanly once its max |u*| falls below u_stop / 2 (in a normal run it
    stays close to the primal's, so no record unpairs), or at the last
    accepted joint state when a joint step aborts.  If the primal then
    steps on, the abort was the dual's: its failure, unless its max |u*|
    was already below u_stop (it died out first, a clean end).  If the
    primal aborts too, that abort is the primal's.
    """
    advance = step if state.eps > 0 else dual_step
    solver = RadauIIA(state.grid, state.F, state.eps)
    traj = FlowTrajectory(states=[state])
    dtraj = None if dual is None else FlowTrajectory(states=[dual])
    trajs = [traj] if dtraj is None else [traj, dtraj]
    for tr in trajs:
        tr.states[0].geometry  # an initial state the flow cannot continue from raises here
    # partner: the carried dual at the t of state; d_last: the dual's last state
    partner = d_last = dual
    joint_abort = None
    targets = sorted(float(t) for t in t_targets)
    last = targets[-1] if targets else None
    if t_stop is not None:
        targets = sorted(targets + [float(t_stop)])
    d_tau = config.record_every / 100.0
    k_target = k_tau = 0
    steps = 0
    while t_stop is None or state.t < t_stop - 1e-13:
        r_max = np.abs(state.u).max()
        overrun = r_max < config.u_stop
        if solver.rescaled:
            if overrun:
                break
            # max |u| shrinks like lambda = e^-tau up to the drift of u~; aim
            # just below u_stop, so that the landed state ends the run
            cap = min((k_tau + 1) * d_tau,
                      solver.x + math.log(r_max / (config.u_stop * (1.0 - 1e-9))))
        else:
            while k_target < len(targets) and targets[k_target] <= state.t + 1e-15:
                k_target += 1
            cap = targets[k_target] if k_target < len(targets) else None
            if overrun and (cap is None or cap != last):
                break
            if cap is None:
                solver.enter_rescaled(state, dual)
                continue
        try:
            state = advance(solver, state, cap)
        except tuple(_ABORTS) as exc:
            if solver.dual is not None:  # whose abort it was, the primal alone tells
                joint_abort = _ABORTS[type(exc)]
                _tally(dtraj, solver, steps)
                solver.drop_dual()
                continue
            if not overrun:
                traj.failure = _ABORTS[type(exc)]
            break
        if joint_abort and np.abs(d_last.u).max() >= config.u_stop:
            dtraj.failure = joint_abort  # the dual's abort: it had not died out
        joint_abort = None
        partner = solver.dual
        steps += 1
        if partner is not None:
            d_last = partner
            if np.abs(partner.u).max() < 0.5 * config.u_stop:  # died out: a clean end
                _tally(dtraj, solver, steps)
                solver.drop_dual()
        on_cadence = solver.rescaled and solver.x == (k_tau + 1) * d_tau
        k_tau += on_cadence
        hit_target = (not solver.rescaled and k_target < len(targets)
                      and abs(state.t - targets[k_target]) < 1e-13)
        if hit_target:
            traj.landed.append(len(traj.states))
        if on_cadence or hit_target:
            traj.states.append(state)
            if partner is not None:
                dtraj.landed.append(len(dtraj.states))
                dtraj.states.append(partner)
        r = np.abs(state.u)
        if r.min() < 0.25 * config.u_stop <= r.max():
            # extinction point sits away from the origin (e.g. a k=1 mode
            # in the initial datum): the near-side radius collapses while
            # the far side stays above u_stop, so the loop could only
            # grind dt -> 0 forever; abort as a graph degeneration
            traj.failure = "convexity"
            break
    for tr in trajs if solver.dual is not None else trajs[:1]:
        _tally(tr, solver, steps)
    if traj.states[-1] is not state:
        traj.states.append(state)
    if dual is not None and dtraj.states[-1] is not d_last:
        if d_last is partner:
            dtraj.landed.append(len(dtraj.states))
        dtraj.states.append(d_last)
    for tr in trajs:
        if tr.failure is None and any(np.abs(s.u).max() < 0.1 for s in tr.states):
            est = estimate_Tstar(tr)
            tr.T_star_estimate = est.value
            tr.Tstar_warn = est.warn
    return trajs


def run_flow(config: FlowConfig, t_targets=(), t_stop: float | None = None,
             u0: np.ndarray | None = None) -> FlowTrajectory:
    """Integrate the contracting primal from the profile u0, by default the
    configured initial datum (see _drive for targets, stopping and aborts)."""
    grid = make_grid(config.n, config.m)
    F = make_function(config.F, config.n)
    if u0 is None:
        u0 = make_initial(config.initial, config.initial_params, grid, config.seed)
    return _drive(config, FlowState(0.0, u0, grid, F, 1.0), t_targets, t_stop)[0]


def run_dual_flow(config: FlowConfig, initial, t_targets=(),
                  t_stop: float | None = None) -> FlowTrajectory:
    """Integrate the expanding dual from a stored de Sitter graph (a Graph
    with eps = -1 or a dual state; its grid and u are read).

    config.F names the PRIMAL speed; the dual runs under its inverse.
    The states hold u* (also readable as state.u_star).
    """
    F_dual = curvfn.invert(make_function(config.F, config.n))
    state = FlowState(0.0, initial.u, initial.grid, F_dual, -1.0)
    return _drive(config, state, t_targets, t_stop)[0]


def run_both(config: FlowConfig, initial: FlowState, dual) -> tuple:
    """Integrate the contracting primal from its initial state to
    extinction and, in the same rescaled vector (RadauIIA), its dual from
    the stored de Sitter graph dual (a Graph with eps = -1 or a dual
    state; its grid and u are read) under the inverse speed.

    Returns the primal and the dual trajectory.  The dual's landed states
    pair the primal's records after the first, in order; see _drive for
    aborts.
    """
    d0 = FlowState(initial.t, dual.u, dual.grid, curvfn.invert(initial.F), -1.0)
    return tuple(_drive(config, initial, (), None, d0))


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
    """T* as t + ln cosh(mean |u|) on the last record with max |u| < 0.1.

    On spheres the expression is exact at every time, and on a run that
    ended in the rescaled variables it is the integrated E of RadauIIA;
    |u| makes a dual run (|u*| plays the role of u) estimate the same T*.
    Its spread over the last three such records is returned, with a
    warning flag above 1e-3.
    """
    grid = traj.grid
    tail = [s for s in traj.states if np.abs(s.u).max() < 0.1][-3:]
    if not tail:
        raise ValueError("trajectory never reached max |u| < 0.1 on a record")
    area = grid.integrate(np.ones(grid.m))
    a = [s.t + math.log(math.cosh(grid.integrate(np.abs(s.u)) / area)) for s in tail]
    spread = max(a) - min(a)
    return TstarEstimate(value=a[-1], spread=spread, warn=spread > 1e-3)


@dataclass(frozen=True)
class RescaledRecord:
    """One record in barrier-normalized variables."""

    t: float
    tau: float
    Theta: float
    u_tilde: np.ndarray
    F_tilde: np.ndarray
    w: np.ndarray | None


def rescale(traj: FlowTrajectory, T_star: float, duals=None) -> list:
    """Normalize recorded states by the spherical barrier with time T_star.

    Theta(t) is the sphere radius extinguishing at T_star; tau = -ln
    Theta, u~ = u/Theta, F~ = F Theta.  When duals (a stored dual graph
    or state per record, or None entries) are supplied, w = u*/Theta.
    """
    last_t = traj.states[-1].t
    if T_star <= last_t:
        raise ValueError(f"T_star = {T_star!r} must exceed the last recorded t = {last_t!r}")
    out = []
    for i, s in enumerate(traj.states):
        Theta = _sphere_theta(s.t, T_star)
        w = None
        if duals is not None and duals[i] is not None:
            w = duals[i].u / Theta
        out.append(
            RescaledRecord(
                t=s.t,
                tau=-math.log(Theta),
                Theta=Theta,
                u_tilde=s.u / Theta,
                F_tilde=s.geometry.F_value * Theta,
                w=w,
            )
        )
    return out
