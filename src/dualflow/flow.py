"""Time integration of the contracting flow and its de Sitter dual.

The primal evolution moves a convex hypersurface along its exterior
normal with speed F(kappa); in graph form du/dt = -F v.  The Gauss map
sends each curvature to its reciprocal, so the dual surface of normals
expands by the same F under the sign flip F(kappa^eps)^eps, eps = -1:
du*/dt = +v~ / F(kappa~^-1)^-1 in the switched convention, rising toward
the equatorial slice.  The side is eps alone; F is the run's one speed.
Both flows run through one driver and one implicit Radau IIA integrator
(three stages, order five, adaptive steps).  The discretized flows are
stiff: an explicit step is bounded by the grid spacing squared, an
implicit one by accuracy alone, so the step count does not grow with m.
Newton takes one of two paths, by phase: in flow time its matrices are
the band of the stencils' reach, solved by blocks around separators
with no m x m array; in the rescaled phase they are dense and held as
inverses.
Once a run has no target time left and no stop time, the same integrator
switches to the paper's rescaled variables: u~ = u / lambda in tau = -ln
lambda (counted from the switch), lambda the area mean of |u|, plus the
running extinction-time estimate E = t + ln cosh lambda.  A shrinking
sphere is a fixed point there, so the steps no longer crowd at
extinction.  A primal run to extinction can carry its dual in the same
vector, rescaled by the primal's lambda (run_both): the two take one
step sequence in the primal's tau, and each Newton solve is block lower
triangular.  Each Newton iteration, and each Jacobian in either phase
(by central differences), is one call of the masked rhs kernel on a stack
of trial rows, a carried dual being the second side of the stack; a trial
row reports failure by NaN.  Every state of either flow is a FlowState
that carries the run's F and its side eps, and builds its GraphGeometry
on first read.  Geodesic spheres solve the primal flow in closed form and
serve as the exact reference and as extinction-time barriers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .curvfn import CurvatureFunction, make_function
from .hgeom import CausalityError, GraphGeometry, _check_side, _kappa, _Profile, geometry_of
from .sphere_grid import SphereGrid, make_grid

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
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        params = tuple(float(p) for p in self.initial_params)
        if not all(math.isfinite(p) for p in params):
            raise ValueError(f"initial parameters must be finite, got {params!r}")
        object.__setattr__(self, "initial_params", params)


@dataclass(frozen=True)
class FlowState(_Profile):
    """One state of either flow and the side it was integrated on.

    u is the stored profile: the radius u > 0 of a primal state, the
    eigentime u* < 0 of a dual one.  F is the run's speed on both sides,
    and eps alone is the side (+1 primal, -1 dual).  geometry, with the
    values of the side's speed F(kappa^eps)^eps, is built on first read
    and kept; it raises as _geometry does for a profile the flow cannot
    continue from.
    """

    t: float
    u: np.ndarray
    grid: SphereGrid
    F: CurvatureFunction
    eps: float

    @cached_property
    def geometry(self) -> GraphGeometry:
        return _geometry([self])[0]


@dataclass
class FlowTrajectory:
    """Recorded states of one run plus the extinction-time estimate.

    failure is None for a clean stop, otherwise the name of the abort
    ("convexity", "stiffness", "causality") and the states hold the
    partial run.  landed holds the indices into states of the states
    that landed on a target time, in time order; for a dual carried by
    its primal (run_both), of the states recorded with a primal record.
    rhs_evals (a Jacobian adds its kernel call's rows), jac_evals and
    factorizations count the integrator's work, shared by a joint run's sides.
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
    """Beltrami preimage of the ellipsoid with Euclidean semi-axes (a, b),
    b on the axis: its radial function r = 1 / |(cos theta / b, sin theta
    / a)| at the nodes, lifted by u = artanh r.  Keeping a, b < 1 keeps
    the body inside the Beltrami ball.
    """
    if not (0.0 < a < 1.0 and 0.0 < b < 1.0):
        raise ValueError("ellipsoid semi-axes must lie in (0, 1)")
    return np.arctanh(1.0 / np.hypot(np.cos(grid.theta) / b, np.sin(grid.theta) / a))


def make_initial(name: str, params, grid: SphereGrid, seed: int = 0) -> np.ndarray:
    """Build a named initial profile on the grid.

    sphere [r0]; perturbed_sphere [r0, a, k] giving r0 + a cos(k theta)
    (any integer k keeps the right pole parity); ellipsoid [a, b];
    random_fourier [r0, amp, kmax] with seeded coefficients up to the
    integer frequency kmax <= m // 2, resampled until strictly convex
    (each draw's curvatures by _kappa).  A profile reaching U_MAX, where
    sinh^2 u overflows, is rejected.
    """
    params = tuple(float(p) for p in params)
    names = {"sphere": "r0", "perturbed_sphere": "r0, a, k", "ellipsoid": "a, b",
             "random_fourier": "r0, amp, kmax"}.get(name)
    if names is None:
        raise ValueError(f"unknown initial datum {name!r}")
    if len(params) != names.count(",") + 1:
        raise ValueError(f"{name} takes [{names}], got {len(params)} parameters")
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
    else:
        r0, amp, kmax = params
        if not (r0 > 0 and amp >= 0 and 1 <= kmax <= grid.m // 2 and kmax == int(kmax)):
            raise ValueError(f"random_fourier needs r0 > 0, amp >= 0 and an integer kmax "
                             f"in [1, m // 2 = {grid.m // 2}], got {params!r}")
        rng = np.random.default_rng(seed)
        k = np.arange(1, kmax + 1)[:, None]
        k2, kt = k ** 2, k * grid.theta
        waves = (np.cos(kt), np.sin(kt)) if grid.cyclic else (np.cos(kt),)
        for _ in range(64):
            # the modes' coefficients, a sine's drawn after each cosine's, and
            # the sum taken mode by mode: cos 1, sin 1, cos 2, ..
            coef = rng.normal(size=int(kmax))[:, None] / k2
            terms = [amp * coef * waves[0]]
            if grid.cyclic:
                terms.append(amp * rng.normal(size=(int(kmax), 1)) / k2 * waves[1])
            modes = np.stack(terms, axis=1).reshape(-1, grid.m)
            u = np.concatenate([(r0 + 0.0 * grid.theta)[None], modes]).sum(axis=0)
            if u.max() >= U_MAX:
                break
            if u.min() > 0.05 and (_kappa(grid, u, 1.0)[2] > 0.0).all():
                break
        else:
            raise ValueError("could not draw a convex random profile; lower amp")
    if u.max() >= U_MAX:
        raise ValueError(f"initial radius {u.max():.6g} reaches {U_MAX:.6g}, where sinh^2 overflows")
    return u


# ----------------------------------------------------------------------
# the two flows: one Radau IIA integrator and one driver, signed by eps
# ----------------------------------------------------------------------

_ABORTS = {StiffnessError: "stiffness", ConvexityError: "convexity", CausalityError: "causality"}

# the step-size control's one tolerance, balanced against the stencils' h^4
# error (Lawson, Berzins & Dew 1991; README, "Time stepping"); RadauIIA reads
# it once and derives ATOL = 1e-2 RTOL and its Newton tolerance from it
RTOL = 1e-8


def _geometry(states) -> list:
    """Geometry with the speed attached, of states of one grid and side
    that the flow can continue from: a primal radius stays positive, a dual
    stays spacelike below the equatorial slice, and either is strictly
    convex.  One geometry_of call builds the list; each check runs on
    every state in turn."""
    F, eps = states[0].F, states[0].eps
    for s in states:
        if eps > 0 and s.u.min() <= 0.0:
            raise ConvexityError(f"radius collapsed at node {int(np.argmin(s.u))}")
        if eps < 0 and s.u.max() >= 0.0:
            raise CausalityError("dual graph crossed the equatorial slice")
        _check_side(s)
    geos = geometry_of(states, F)
    for geo in geos:
        if not geo.convex:
            j = int(np.argmin(geo.kappa.min(axis=1)))
            raise ConvexityError(f"not strictly convex at node {j}")
    return geos


def _fill_geometry(states) -> None:
    """Build every state's missing geometry (FlowState.geometry), one _geometry stack per side."""
    for side in (True, False):
        ss = [s for s in states if (s.eps > 0) == side and "geometry" not in vars(s)]
        for s, geo in zip(ss, _geometry(ss) if ss else ()):
            vars(s)["geometry"] = geo


def _velocity(F_value: np.ndarray, v: np.ndarray, eps) -> np.ndarray:
    """Graph form of the normal speed, F_value the side's F(kappa^eps)^eps:
    du/dt = -F v contracting the primal, du*/dt = +v~ / F~ expanding the dual
    toward the equatorial slice (on slices d(-Theta)/dt = +coth Theta).  eps
    is a float or an array of signs, one side per row (_masked_rhs)."""
    if isinstance(eps, np.ndarray):
        return np.multiply(-F_value, v, out=v / F_value, where=eps > 0)
    return -F_value * v if eps > 0 else v / F_value


def _masked_rhs(grid: SphereGrid, F: CurvatureFunction, eps, u: np.ndarray):
    """The admissibility mask and du/dt of a profile (m,) or of each row of a
    stack (..., m): a row with a node across u = 0 or a curvature that is not
    finite and positive (not convex, or a dual not spacelike) fails, du/dt NaN.
    The side eps is a float, or an array of signs broadcasting against u's
    rows, each row then bit for bit its one-sided call.  When every row is
    admissible, du/dt is the velocity as it stands."""
    with np.errstate(all="ignore"):
        _, v, kappa = _kappa(grid, u, eps)
        side = eps * u > 0.0 if isinstance(eps, np.ndarray) else u > 0.0 if eps > 0 else u < 0.0
        ok = ((kappa > 0.0) & (kappa < math.inf) & side[..., None]).all(axis=(-2, -1))
        if ok.all():
            return ok, _velocity(F._side_value(kappa, eps), v, eps)
        np.copyto(kappa, 1.0, where=~ok[..., None, None])  # F reads no failed row
        return ok, np.where(ok[..., None], _velocity(F._side_value(kappa, eps), v, eps), np.nan)


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
_MIN_FACTOR, _MAX_FACTOR = 0.2, 10.0


def _rms(x: np.ndarray) -> float:
    return math.sqrt(np.add.reduce(x * x, axis=None) / x.size)  # np.mean, unwrapped


# the Jacobian's central difference step, relative to max(|y|, 1): against the
# complex step (n = 1-3, m = 32-512, both sides) it reads at most 6.1e-8 of the
# largest entry; at m = 512, 1e-8 reads 4.2e-7, 3e-8 3.8e-6, 1e-7 4.2e-5 and
# 1e-9 1.6e-7, forward differences 6.8e-4 (README, "Time stepping")
_JAC_STEP = 3e-9


# the most interior nodes in one block of the band solve (README, "Time stepping")
_BAND_BLOCK = 16


class _BandPlan:
    """The band solve's layout of m nodes on the circle (cyclic) or the
    meridian: the nodes i % (_BAND_BLOCK + 2) >= _BAND_BLOCK, and on the
    circle m - 2 and m - 1, are separators; the runs between them are the
    blocks, whose empty slots hold dummy nodes m, m + 1, ... with identity
    rows.  Blocks are two separators apart or more, so no stencil couples
    two.  gather indexes [bands.ravel(), 0, 1] for D, A_IS, A_SI and A_SS,
    and parts slices each from the gathered values."""

    def __init__(self, m: int, cyclic: bool):
        sep = np.arange(m) % (_BAND_BLOCK + 2) >= _BAND_BLOCK
        if cyclic:
            sep[m - 2:] = True
        self.seps = np.flatnonzero(sep)
        blocks = self.blocks = np.arange(0, m, _BAND_BLOCK + 2)[:, None] + np.arange(_BAND_BLOCK)
        dummy = (blocks >= m) | sep[np.minimum(blocks, m - 1)]
        blocks[dummy] = m + np.arange(dummy.sum())

        def entry(i, j):  # where A[i, j] is, a dummy's row the identity's
            k = (j - i + 2) % m if cyclic else j - i + 2
            band = (i < m) & (j < m) & (0 <= k) & (k < 5)
            return np.where(band, k * m + i, np.where((i == j) & (i >= m), 5 * m + 1, 5 * m))

        b, s, flat = blocks[:, :, None], self.seps, blocks.ravel()
        parts = [entry(b, blocks[:, None, :]), entry(b, s), entry(s[:, None], flat),
                 entry(s[:, None], s)]
        self.gather = np.concatenate([a.ravel() for a in parts])
        ends = np.cumsum([a.size for a in parts])
        self.parts = [slice(end - a.size, end) for a, end in zip(parts, ends)]
        # a dummy's rhs may be any node's: its row and column of D^-1 are the identity's
        self.order = np.concatenate([flat % m, s])
        self.pos = np.argsort(np.concatenate([flat, s]))[:m]  # each node's place in x_I, x_S


class _BandSolver:
    """A pentadiagonal matrix, real or complex, solved by blocks around
    separators (SPIKE; Polizzi & Sameh 2006, Parallel Computing 32).

    bands[k, i] holds A[i, i + k - 2], the column mod m on the circle; on
    the meridian the entries outside the matrix are ignored.  It keeps D^-1
    by blocks (_BandPlan), V = D^-1 A_IS and S^-1, S = A_SS - A_SI V the
    Schur complement.  A solve is x_I = D^-1 r_I, x_S = S^-1 (r_S - A_SI
    x_I), x_I -= V x_S: no loop over the rows.  Only the blocks and S, not
    every leading minor, must be nonsingular: LAPACK pivots in each block.
    A singular one, or a NaN entry (LAPACK's pivot search can pass over it
    to a zero), gives a NaN solve, so that the step retries smaller."""

    def __init__(self, bands: np.ndarray, plan: _BandPlan):
        (p, w), s = plan.blocks.shape, plan.seps.size
        vals = np.concatenate([bands.ravel(), [0.0, 1.0]])[plan.gather]
        D, A_IS, A_SI, A_SS = (vals[part] for part in plan.parts)
        self._A_SI, self._order, self._pos = A_SI.reshape(s, p * w), plan.order, plan.pos
        try:
            self._inv_D = np.linalg.inv(D.reshape(p, w, w))
            self._V = (self._inv_D @ A_IS.reshape(p, w, s)).reshape(p * w, s)
            self._inv_S = np.linalg.inv(A_SS.reshape(s, s) - self._A_SI @ self._V)
        except np.linalg.LinAlgError:
            self._inv_D, self._V, self._inv_S = (np.full(shape, np.nan)
                                                 for shape in ((p, w, w), (p * w, s), (s, s)))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A^-1 rhs."""
        r, n = rhs[self._order], self._V.shape[0]
        x_I = (self._inv_D @ r[:n].reshape(self._inv_D.shape[:2] + (1,))).ravel()
        x_S = self._inv_S @ (r[n:] - self._A_SI @ x_I)
        return np.concatenate([x_I - self._V @ x_S, x_S])[self._pos]


class _DenseInverse:
    """A Newton matrix kept as its explicit inverse: a solve is one
    matrix-vector product.  A block lower triangular matrix [[P, 0], [C, D]],
    P of size k, keeps P^-1, D^-1 and C instead, at half the cost of one
    full inverse (README, "Time stepping"), and solves by substitution:
    x1 = P^-1 b1, then x2 = D^-1 (b2 - C x1); its upper right block is
    never read.  A NaN entry gives a NaN solve, as in _BandSolver."""

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
    matrices, the last step's collocation polynomial, which predicts the
    next stages, and Newton's contraction factor (_newton).  It counts
    rhs evaluations, Jacobian evaluations and Newton matrix
    factorizations (a real and a complex one each).

    It starts in flow time, x = t and y = u.  Its Jacobian is taken by
    central differences in one kernel call on colour rows moved each way,
    each row one rhs evaluation (_jacobian).  Newton takes one of two
    paths.  The band path, flow time at every m, reads the band of the
    stencils' reach off those rows and solves by blocks around separators
    (_BandSolver, laid out once by _BandPlan).  The dense path, the
    rescaled phase (below), builds the full Jacobian from the same rows
    and keeps the inverses of the Newton matrices (_DenseInverse).

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
    rescaled phase takes the dense path.  An accepted state is still a
    FlowState, with t = E - ln cosh lambda and u = lambda u~; the dual
    state at the same t is kept as well (dual).  The primal rows never
    read w: the joint Newton matrices are block lower triangular.
    """

    def __init__(self, grid: SphereGrid, F: CurvatureFunction, eps: float):
        self.grid, self.F, self.eps = grid, F, eps
        self._cols, self._inside, colour = grid.band()
        # row c perturbs the columns of colour c; entry (k, i) reads its column's row
        self._perturb = colour == np.arange(colour.max() + 1)[:, None]
        self._band_rows = colour[self._cols]
        self.rescaled = False
        self.rhs_evals = self.jac_evals = self.factorizations = 0
        self.tile = True  # the driver's word: the cap of advance is a record
        self._state = None  # the state the carried data belong to
        self.dual = None  # the dual state carried beside the primal, if any
        rtol = self._rtol = RTOL  # read once (the comment above RTOL)
        self._atol = 1e-2 * rtol
        self._newton_tol = max(10.0 * np.finfo(float).eps / rtol, min(0.03, math.sqrt(rtol)))

    @property
    def _banded(self) -> bool:  # the Newton path (class docstring)
        return not self.rescaled

    @cached_property
    def _plan(self) -> _BandPlan:  # built on the band path's first factorization
        return _BandPlan(self.grid.m, self.grid.cyclic)

    def enter_rescaled(self, state: FlowState, dual: FlowState | None = None) -> None:
        """Integrate in the rescaled variables from state on, with tau = 0
        there; a dual state at the same t joins the vector as w."""
        self.rescaled = True
        self._weights = self.grid.weights / self.grid.weights.sum()  # the area mean
        self.dual = dual
        self._restart(state)

    def drop_dual(self) -> None:
        """Go on with the primal alone from the last accepted state, at its tau."""
        self.dual = None
        self._start(self.x, self._y[:self.grid.m + 2])

    def _eval(self, y: np.ndarray, f: np.ndarray | None = None):
        """The admissibility mask and dy/dx of a state vector (m,), (m + 2,)
        or (2m + 2,), or of each row of a stack: _masked_rhs in flow time,
        the rescaled equations (class docstring) after enter_rescaled().
        The profile blocks stack on a leading side axis, so a carried w is
        the second side of one _masked_rhs call, signed -eps.  f, the
        blocks' du/dt (sides, ..., m) when known (the dense Jacobian's),
        takes the place of that call, and the mask is then None."""
        if not self.rescaled:
            return _masked_rhs(self.grid, self.F, self.eps, y)
        m, ok = self.grid.m, None
        lam = np.exp(y[..., m:m + 1])
        if self.dual is None:
            b, eps = y[None, ..., :m], self.eps
        else:
            b = np.concatenate((y[None, ..., :m], y[None, ..., m + 2:]))
            eps = np.array([self.eps, -self.eps]).reshape((2,) + (1,) * y.ndim)
        if f is None:
            ok, f = _masked_rhs(self.grid, self.F, eps, lam * b)
        q = -self.eps * (f[0] @ self._weights)[..., None]
        rule = b + f / q  # one rule for every block, at the primal's lambda and q
        out = np.empty(y.shape)
        out[..., :m], out[..., m] = rule[0], -1.0
        out[..., m + 1:m + 2] = lam / q - lam * np.tanh(lam)
        if self.dual is not None:
            out[..., m + 2:] = rule[1]
        return None if ok is None else ok.all(axis=0), out

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
                dual = FlowState(t, lam * y[m + 2:], self.grid, self.F, -self.eps)
        state = FlowState(t, u, self.grid, self.F, self.eps)
        if not ok:  # the geometries reject every row the mask does
            for s in filter(None, (state, dual)):
                s.geometry
        self.x, self._y, self._f, self.dual = x, y, f, dual
        return state

    def _scale(self, y_abs: np.ndarray) -> np.ndarray:
        """Error weights atol + rtol |y|; s is integrated exactly and left out."""
        scale = self._atol + self._rtol * y_abs
        if self.rescaled:
            scale[self.grid.m] = np.inf
        return scale

    def _jacobian(self, y: np.ndarray, f: np.ndarray) -> None:
        """The Jacobian at y, f = dy/dx there, by central differences in one
        _masked_rhs call: a row y + delta and a row y - delta per colour c
        move each profile block's columns of colour c (README).  A dense
        column is bit for bit the difference of its rows of y +- diag(delta)."""
        self.jac_evals += 1
        m, r, c = self.grid.m, np.arange(self.grid.m), len(self._perturb)
        blocks = np.add.outer([0] if self.dual is None else [0, m + 2], r)  # u~, w in y
        delta = _JAC_STEP * np.maximum(np.abs(y), 1.0)
        if not self.rescaled:  # the colour rows alone, a 2-D stack like every flow-time call
            P = np.where(self._perturb, delta, 0.0)
            trial = np.concatenate((y + P, y - P))
            g, rows = _masked_rhs(self.grid, self.F, self.eps, trial)[1][None], self._band_rows
        else:  # each block's state and its states at s + delta and s - delta come first
            b, s, lam = y[blocks][:, None], y[m:m + 1], np.exp(y[m:m + 1])
            P = np.where(self._perturb, delta[blocks][:, None], 0.0)
            trial = np.concatenate((lam * b, np.exp(s + delta[m]) * b, np.exp(s - delta[m]) * b,
                                    lam * (b + P), lam * (b - P)), axis=1)
            eps = self.eps if self.dual is None else np.array([self.eps, -self.eps])[:, None, None]
            g, rows = _masked_rhs(self.grid, self.F, eps, trial)[1], 3 + self._band_rows
        self.rhs_evals += trial.shape[-2]
        if self._banded:  # the band: entry (k, i) reads its column's colour rows at node i
            jac = np.where(self._inside, (g[0][rows, r] - g[0][rows + c, r])
                           / (2.0 * delta[self._cols]), 0.0)
        else:  # y +- diag(delta)'s du/dt: the state's, but its colour row's on its column's band
            dy = []
            for sign, moved, at in ((1.0, 1, rows), (-1.0, 2, rows + c)):  # s's row: moved s
                du = (g[:, np.where(np.arange(len(y)) == m, moved, 0)] if self.rescaled
                      else np.repeat(f[None, None], len(y), axis=1))
                for block, du_b, g_b in zip(blocks, du, g):
                    du_b[block[self._cols], r] = g_b[at, r]
                dy.append(self._eval(y + sign * np.diag(delta), du)[1] if self.rescaled else du[0])
            jac = (dy[0] - dy[1]).T / (2.0 * delta)
        self._jac, self._jac_current, self._lu_h, self._y_jac = jac, True, None, y

    def _newton_matrix(self, shift):
        """shift - J ready for solves: the block band solve on the band
        path, else the explicit inverse, by blocks when the dual is carried."""
        A = -self._jac.astype(type(shift))
        if self._banded:
            A[len(A) // 2] += shift  # the middle band is the diagonal
            return _BandSolver(A, self._plan)
        A.flat[::len(A) + 1] += shift  # the diagonal
        return _DenseInverse(A, None if self.dual is None else self.grid.m + 2)

    def _factor(self, h: float) -> None:
        self.factorizations += 1
        self._lu_real = self._newton_matrix(_MU_REAL / h)
        self._lu_complex = self._newton_matrix(_MU_COMPLEX / h)
        self._lu_h = h

    def _newton(self, y: np.ndarray, h: float, Z: np.ndarray, scale: np.ndarray):
        """Simplified Newton iteration on the stage increments Z, (3, m).

        Returns (converged, iterations, Z, contraction rate), the rate None
        after one iteration.  Rescaled, a call starts from the last call's
        factor eta = rate / (1 - rate), raised to 0.8 (Hairer & Wanner, IV.8),
        so its first increment can converge; in flow time from eta = inf."""
        W = _TI @ Z
        mu_real, mu_complex = _MU_REAL / h, _MU_COMPLEX / h
        norm_old, rate = None, None
        # flow time carries no factor: its rate, led by the smooth modes, says
        # nothing of the stiff ones (as in advance's flow-time refresh rule)
        eta = max(self._eta, np.finfo(float).eps) ** 0.8 if self.rescaled else math.inf
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
                # diverging, or too slow to converge within the iteration cap
                if rate >= 1.0 or (rate ** (_NEWTON_MAXITER - k) / (1.0 - rate)
                                   * dW_norm > self._newton_tol):
                    break
                eta = rate / (1.0 - rate)
            W += dW
            Z = _T @ W
            if dW_norm == 0.0 or eta * dW_norm < self._newton_tol:
                self._eta = eta
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
        """dy/dx, Jacobian and first step size at the state vector y (Hairer,
        Norsett & Wanner, Solving ODEs I, II.4), unbounded at a fixed point to
        the tolerance: advance clips it to the cap, its error estimate decides."""
        f = self._rhs(y)
        self.x, self._y, self._f = x, y, f
        self._jacobian(y, f)
        self._Z = self._h_old = self._err_old = None
        self._ramp = True  # the controller grows h by _MAX_FACTOR from here
        self._eta = 1.0  # Newton's carried contraction factor (_newton)
        scale = self._scale(np.abs(y))
        d0, d1 = _rms(y / scale), _rms(f / scale)
        if d1 < 1e-5:  # a rescaled sphere or slice: the probe below would read rounding
            self.h = math.inf
            return
        h0 = 1e-6 if d0 < 1e-5 else 0.01 * d0 / d1
        d2 = _rms((self._rhs(y + h0 * f) - f) / scale) / h0
        self.h = min(100.0 * h0, (0.01 / max(d1, d2)) ** 0.25)

    def advance(self, state: FlowState, cap: float) -> FlowState:
        """One accepted step from state; a step that would reach x = cap (t,
        or tau once rescaled) lands on it exactly.  With tile set, equal
        steps no longer than the proposed h tile the way to the cap, so
        landing is the last of them and keeps the factored Newton matrices,
        which are refactored only when the step moves by more than 1e-9
        relative.  The step is clipped to the cap instead without tile, and
        during the controller's start-up ramp (before the first accepted
        step, and while the last step's growth was capped at _MAX_FACTOR),
        where tiling would cut the controller's own growing steps into tiles.
        A step size below DT_MIN, or NaN, raises StiffnessError, and an
        accepted state the flow cannot continue from raises ConvexityError
        or CausalityError."""
        if state is not self._state:
            self._restart(state)
        x, y, f = self.x, self._y, self._f
        h, rejected = self.h, False
        while True:
            if not h >= DT_MIN:  # NaN too
                raise StiffnessError(f"dt = {h:.3e} below {DT_MIN:.0e}")
            # DT_MIN bounds the controller's step: a short landing is not stiffness
            landing = h > cap - x - 1e-13
            h_try = cap - x if landing else h
            if not landing and self.tile and not self._ramp:
                # equal steps tile the way to the cap; the slack keeps the
                # rounding of k equal steps from adding a sliver step
                tiles = math.ceil((cap - x) / h - 1e-9)
                h_try, landing = (cap - x) / tiles, tiles == 1
            if self._Z is None:
                # rescaled, Euler's stages keep s exact, as Newton's Jacobian
                # column for s holds only difference noise on a fixed point
                Z0 = np.outer(_C * h_try, f) if self.rescaled else np.zeros((3, y.size))
            else:
                z = 1.0 + (h_try / self._h_old) * _C
                Z0 = (z[:, None] ** np.arange(1, 4)) @ (_P.T @ self._Z) - self._Z[-1]
            scale = self._scale(np.abs(y))
            while True:
                if self._lu_h is None or abs(h_try - self._lu_h) > 1e-9 * h_try:
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
            # lambda alone triggers no refresh: a Jacobian gone stale as lambda
            # shrinks slows Newton, which the rate test catches, and a slow
            # Newton iteration is cheaper here than a dense refresh
            recompute_jac = moved or n_iter > 4 and rate > 1e-2
        else:
            # the stiff eigenvalues scale like 1/u^2; with a Jacobian from a
            # profile a tenth away, Newton contracts the stiff modes slowly,
            # and the rate test, led by the smooth modes, misses that while
            # they sit at rounding level: they would grow from step to step
            recompute_jac = n_iter > 2 and rate > 1e-3 or moved
        factor = safety * self._factor_of(h_try, err)
        self._ramp = factor >= _MAX_FACTOR
        factor = min(_MAX_FACTOR, factor)
        if not recompute_jac and factor < 1.2:
            factor = 1.0
        # the floor of _factor_of: an exact step (err = 0) must not zero the trend
        self._h_old, self._err_old, self._Z = h_try, max(err, 1e-16), Z
        self.h = h_try * factor
        if recompute_jac:
            self._jacobian(y_new, self._f)
        else:
            self._jac_current = False
        return state


def step(solver: RadauIIA, state: FlowState, cap: float) -> FlowState:
    """One accepted Radau IIA step of the contracting primal flow (see
    RadauIIA.advance).  Kept by this name, and dual_step by its own, for
    perfbench, which counts steps by them and checks the count against
    steps_taken (perfbench/run.py, steps_agree)."""
    return solver.advance(state, cap)


def dual_step(solver: RadauIIA, state: FlowState, cap: float) -> FlowState:
    """One accepted Radau IIA step of the expanding dual flow (see
    RadauIIA.advance)."""
    return solver.advance(state, cap)


def _tally(traj: FlowTrajectory, solver: RadauIIA, steps: int) -> None:
    traj.steps_taken = steps
    traj.rhs_evals, traj.jac_evals = solver.rhs_evals, solver.jac_evals
    traj.factorizations = solver.factorizations


def _drive(config: FlowConfig, state: FlowState, t_targets, t_stop: float | None,
           dual: FlowState | None = None) -> list:
    """Integrate either flow from state until max |u| < u_stop, recording
    along the way; returns its trajectory in a list, the dual's after it.

    Flow time comes first: the run lands exactly on each time of t_targets
    and on t_stop, which ends it early, by equal steps that tile the way
    to each (RadauIIA.advance).  With no target left and no t_stop it
    switches to the rescaled variables (RadauIIA.enter_rescaled), where a
    sphere is a fixed point; the caps there are tau = k record_every / 100
    from the switch and the aim just below max |u| = u_stop, which moves
    every step and so is clipped to, not tiled (solver.tile).  One rule
    stops both phases, max |u| < u_stop before a step, so a target past it
    is not landed; one rule records, a step that lands on its cap with tile
    set.  The initial and final states are recorded too.  Extinction away
    from the origin never enters the stop ball: min |u| below u_stop / 4
    with max |u| above u_stop aborts the run as "convexity".

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
    targets = sorted([float(t) for t in t_targets] + ([] if t_stop is None else [float(t_stop)]))
    d_tau = config.record_every / 100.0
    k_target = k_tau = 0
    steps = 0
    while t_stop is None or state.t < t_stop - 1e-13:
        r_max = np.abs(state.u).max()
        if r_max < config.u_stop:
            break
        if solver.rescaled:
            # max |u| shrinks like lambda = e^-tau up to the drift of u~; aim
            # just below u_stop, so that the landed state ends the run.  That
            # aim moves every step, so the step is clipped to it, not tiled
            stop = solver.x + math.log(r_max / (config.u_stop * (1.0 - 1e-9)))
            cap = min((k_tau + 1) * d_tau, stop)
            solver.tile = cap < stop
        else:
            while k_target < len(targets) and targets[k_target] <= state.t + 1e-15:
                k_target += 1
            if k_target == len(targets):
                solver.enter_rescaled(state, dual)
                continue
            cap = targets[k_target]
        try:
            state = advance(solver, state, cap)
        except tuple(_ABORTS) as exc:
            if solver.dual is not None:  # whose abort it was, the primal alone tells
                joint_abort = _ABORTS[type(exc)]
                _tally(dtraj, solver, steps)
                solver.drop_dual()
                continue
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
        if solver.x == cap and solver.tile:  # landed on a record (RadauIIA.tile)
            if solver.rescaled:
                k_tau += 1
            else:
                traj.landed.append(len(traj.states))
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
            tr.T_star_estimate, tr.Tstar_warn = est.value, est.warn
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

    config.F names the run's speed F, the primal's; every state carries
    it with eps = -1, so the dual moves by F(kappa^-1)^-1.  The states
    hold u* (also readable as state.u_star).
    """
    F = make_function(config.F, config.n)
    state = FlowState(0.0, initial.u, initial.grid, F, -1.0)
    return _drive(config, state, t_targets, t_stop)[0]


def run_both(config: FlowConfig, initial: FlowState, dual) -> tuple:
    """Integrate the contracting primal from its initial state to
    extinction and, in the same rescaled vector (RadauIIA), its dual from
    the stored de Sitter graph dual (a Graph with eps = -1 or a dual
    state; its grid and u are read).  The states of both sides carry the
    primal's speed initial.F; the dual's have eps = -1.

    Returns the primal and the dual trajectory.  The dual's landed states
    pair the primal's records after the first, in order; see _drive for
    aborts.
    """
    d0 = FlowState(initial.t, dual.u, dual.grid, initial.F, -1.0)
    return tuple(_drive(config, initial, (), None, d0))


# ----------------------------------------------------------------------
# extinction time
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TstarEstimate:
    value: float
    spread: float
    warn: bool


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
    area = grid.weights.sum()
    a = [s.t + math.log(math.cosh(grid.integrate(np.abs(s.u)) / area)) for s in tail]
    spread = max(a) - min(a)
    return TstarEstimate(value=a[-1], spread=spread, warn=spread > 1e-3)
