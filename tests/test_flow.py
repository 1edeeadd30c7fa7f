"""Time stepping: primal contraction, dual expansion, rescaling, extinction."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualflow import curvfn, flow
from dualflow.cli import _theta_of
from dualflow.dualmap import CausalityError, gauss_dual
from dualflow.flow import (
    ConvexityError,
    FlowConfig,
    FlowState,
    FlowTrajectory,
    RadauIIA,
    _BandLU,
    _DenseInverse,
    _geometry,
    _velocity,
    estimate_Tstar,
    make_initial,
    rescale,
    run_both,
    run_dual_flow,
    run_flow,
    spherical_T_star,
    spherical_theta,
)
from dualflow.hgeom import Graph, GraphGeometry, HyperbolicGraph, geometry_of
from dualflow.sphere_grid import make_grid
from oracles import oracle_flow_step, rk4_profiles, rk4_step, spherical_theta_ref

T_STAR_1 = 0.4337808304830271  # ln cosh 1
T_STAR_HALF = 0.12011450695827745  # ln cosh 0.5


def _rhs(g, F, eps=1.0):
    geo = geometry_of(g, F)
    return _velocity(geo.F_value, geo.v, eps)


def test_slice_rhs_mean():
    grid = make_grid(2, 48)
    F = curvfn.make_function("mean", 2)
    F_dual = curvfn.invert(F)
    for r in (0.5, 1.3):
        rhs = _rhs(Graph(grid, np.full(48, r)), F)
        assert np.abs(rhs + 1.0 / math.tanh(r)).max() < 1e-12
        # the dual slice u* = -r rises at the same rate
        rhs = _rhs(Graph(grid, np.full(48, -r), -1.0), F_dual, -1.0)
        assert np.abs(rhs - 1.0 / math.tanh(r)).max() < 1e-12


def test_slice_rhs_any_normalized_speed():
    # 1-homogeneity plus F(1,..,1) = 1 pins every battery member on slices
    grid = make_grid(2, 48)
    for name in curvfn.builtin_battery(2):
        F = curvfn.make_function(name, 2)
        rhs = _rhs(Graph(grid, np.full(48, 0.9)), F)
        assert np.abs(rhs + 1.0 / math.tanh(0.9)).max() < 1e-11


def test_rhs_against_embedding_flow_oracle():
    # reference: move embedded points by -F nu eps and re-read the graph
    grid = make_grid(2, 128)
    u = 1.0 + 0.1 * np.cos(grid.theta)
    F = curvfn.make_function("sigma_k:2", 2)
    rhs = _rhs(Graph(grid, u), F)
    eps = 1e-5
    inner = (grid.theta > 0.2) & (grid.theta < math.pi - 0.2)
    u_eps = oracle_flow_step(
        lambda t: 1.0 + 0.1 * np.cos(np.asarray(t, dtype=float)),
        lambda k: math.sqrt(k[0] * k[1]),
        eps,
        grid.theta[inner],
    )
    fd = (u_eps - u[inner]) / eps
    assert np.abs(fd - rhs[inner]).max() < 1e-6


def test_one_step_sphere_matches_closed_form():
    grid = make_grid(2, 32)
    F = curvfn.make_function("mean", 2)
    errs = []
    for dt in (5e-3, 2.5e-3):
        u0 = np.full(32, 1.0)
        st = FlowState(0.0, u0, grid, F, 1.0)
        st2 = rk4_step(st, F, 0.5, grid, dt_cap=dt)
        assert st2.t == pytest.approx(dt, abs=1e-15)
        errs.append(np.abs(st2.u - float(spherical_theta_ref(dt, 1.0))).max())
    assert errs[0] < 1e-12
    assert errs[0] / errs[1] > 20.0  # fifth-order local error


def test_step_dt_refinement_fourth_order():
    grid = make_grid(2, 32)
    F = curvfn.make_function("sigma_k:2", 2)

    def integrate(dt, nsteps):
        u0 = 1.0 + 0.1 * np.cos(grid.theta)
        st = FlowState(0.0, u0, grid, F, 1.0)
        for _ in range(nsteps):
            st = rk4_step(st, F, 0.5, grid, dt_cap=dt)
        return st.u

    ref = integrate(2.5e-4, 64)
    ea = np.abs(integrate(2e-3, 8) - ref).max()
    eb = np.abs(integrate(1e-3, 16) - ref).max()
    assert ea < 5e-13
    assert ea / eb > 8.0


def test_step_preserves_spherical_symmetry():
    grid = make_grid(2, 32)
    F = curvfn.make_function("mean", 2)
    u0 = np.full(32, 1.0)
    st = FlowState(0.0, u0, grid, F, 1.0)
    st2 = rk4_step(st, F, 0.2, grid)
    assert st2.u.max() - st2.u.min() <= 1e-12


@pytest.mark.parametrize("n, F_name, params, cfl", [
    (2, "sigma_k:2", (1.0, 0.1, 2), 0.2),
    # m = 64 is not a multiple of 5, so the circle needs the extra colours;
    # RK4's own time error at cfl 0.2 is 5e-10 there
    (1, "mean", (1.0, 0.1, 3), 0.05),
])
def test_flows_match_rk4_oracle(n, F_name, params, cfl):
    grid = make_grid(n, 64)
    targets = (0.04, 0.08, 0.12, 0.16, 0.2)
    cfg = FlowConfig(F=F_name, n=n, m=64, initial="perturbed_sphere", initial_params=params,
                     record_every=10**9)
    traj = run_flow(cfg, t_targets=targets, t_stop=0.2)
    d0 = gauss_dual(traj.states[0]).dual
    dtraj = run_dual_flow(cfg, d0, t_targets=targets, t_stop=0.2)
    F = curvfn.make_function(F_name, n)
    for tr, F_side, u0, eps in ((traj, F, traj.states[0].u, 1.0),
                                (dtraj, curvfn.invert(F), d0.u_star, -1.0)):
        assert tr.failure is None
        assert [tr.states[i].t for i in tr.landed] == list(targets)
        ref = rk4_profiles(grid, F_side, u0, targets, eps=eps, cfl=cfl)
        for i, u_ref in zip(tr.landed, ref):
            assert np.abs(tr.states[i].u - u_ref).max() < 1e-10


def test_trajectory_counts_solver_work():
    cfg = FlowConfig(F="sigma_k:2", n=2, m=32, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2), record_every=10**9)
    traj = run_flow(cfg, t_stop=0.1)
    assert traj.steps_taken > 0
    assert traj.rhs_evals > traj.steps_taken
    assert traj.jac_evals > 0 and traj.factorizations > 0


@pytest.mark.parametrize("n, m", [(2, 32), (1, 64), (1, 65)])
def test_coloured_jacobian_matches_dense_differences(monkeypatch, n, m):
    # on the circle the band wraps around; m = 64 needs the extra colours.
    # The band path is forced at every m here
    grid = make_grid(n, m)
    F = curvfn.make_function("mean", n)
    u = 1.0 + 0.1 * np.cos(grid.theta) + 0.05 * np.cos(3 * grid.theta)
    solver = RadauIIA(grid, F, 1.0)
    f = solver._rhs(u)
    monkeypatch.setattr(flow, "_DENSE_MAX_M", 0)
    solver._jacobian(u, f)
    delta = 1e-7
    dense = np.array([(solver._rhs(u + delta * np.eye(m)[j]) - f) / delta for j in range(m)]).T
    banded = np.zeros((m, m))
    for k in range(5):
        for i in range(m):
            j = i + k - 2
            if n == 1 or 0 <= j < m:
                banded[i, j % m] = solver._jac[k, i]
    assert np.abs(banded - dense).max() < 1e-5 * np.abs(dense).max()
    # the dense path perturbs one column per row of its stack; no node reads
    # two columns of one colour, so its Jacobian is the scattered band
    monkeypatch.setattr(flow, "_DENSE_MAX_M", 10**6)
    solver._jacobian(u, f)
    assert np.array_equal(banded, solver._jac)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2]), eps=st.sampled_from([1.0, -1.0]),
       seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
       amp=st.floats(0.0, 0.08))
def test_rhs_stack_equals_rows(n, eps, seeds, amp):
    # one stacked evaluation gives each row's rhs bit for bit, and each row
    # the velocity of the geometry an accepted state carries
    grid = make_grid(n, 48)
    F = curvfn.make_function("sigma_k:2" if n == 2 else "power_mean:0.5", n)
    rows = [make_initial("random_fourier", (1.0, amp, 4), grid, seed=s) for s in seeds]
    if eps < 0:
        F = curvfn.invert(F)
        rows = [gauss_dual(Graph(grid, u)).dual.u_star for u in rows]
    solver = RadauIIA(grid, F, eps)
    stack = np.array(rows)
    out = solver._rhs(stack)
    assert solver.rhs_evals == len(rows)
    for u, f in zip(rows, out):
        assert np.array_equal(f, solver._rhs(u))
        geo = _geometry(grid, u, F, eps)
        assert np.array_equal(f, _velocity(geo.F_value, geo.v, eps))


def test_rhs_masks_inadmissible_rows():
    # rows the flow cannot continue from come back NaN, silently, and leave
    # the other rows of the stack untouched
    grid = make_grid(2, 48)
    F = curvfn.make_function("mean", 2)
    good = 1.0 + 0.1 * np.cos(2 * grid.theta)
    nonconvex = 0.3 + 0.28 * np.cos(6 * grid.theta)
    assert not geometry_of(Graph(grid, nonconvex)).convex
    crossed = good.copy()
    crossed[5] = -0.01
    d_good = gauss_dual(Graph(grid, good)).dual.u_star
    d_crossed = d_good.copy()
    d_crossed[5] = 0.01
    timelike = -0.2 - 4.5 * np.sin(grid.theta / 2.0) ** 2
    with pytest.raises(CausalityError):
        Graph(grid, timelike, -1.0)
    for eps, F_side, stack, bad in (
            (1.0, F, [good, nonconvex, crossed, 0.9 * good], [1, 2]),
            (-1.0, curvfn.invert(F), [d_good, d_crossed, timelike, 0.9 * d_good], [1, 2])):
        solver = RadauIIA(grid, F_side, eps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = solver._rhs(np.array(stack))
        for i, u in enumerate(stack):
            if i in bad:
                assert np.isnan(out[i]).all()
            else:
                assert np.array_equal(out[i], solver._rhs(u))


def _counted_rhs_calls(monkeypatch):
    calls = []
    rhs = RadauIIA._rhs

    def counted(self, u):
        calls.append(u.shape)
        return rhs(self, u)

    monkeypatch.setattr(RadauIIA, "_rhs", counted)
    return calls


def test_step_makes_at_most_three_rhs_calls(monkeypatch):
    # the three Newton stages are one call, and so is each Jacobian; t_stop
    # keeps the run in flow time
    calls = _counted_rhs_calls(monkeypatch)
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2))
    traj = run_flow(cfg, t_stop=0.2)
    assert traj.failure is None
    assert len(calls) <= 3 * traj.steps_taken
    # rhs_evals counts profiles, one per row of each call
    assert traj.rhs_evals == sum(math.prod(c[:-1]) for c in calls) + traj.steps_taken


def test_rescaled_run_makes_fewer_rhs_calls(monkeypatch):
    # the run to extinction steps in tau; one landing the same record
    # times stays in flow time to its last target
    calls = _counted_rhs_calls(monkeypatch)
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2))
    traj = run_flow(cfg)
    assert traj.failure is None
    # rhs_evals counts state vectors, one per row of each call
    assert traj.rhs_evals == sum(math.prod(c[:-1]) for c in calls) + traj.steps_taken
    n_rescaled = len(calls)
    calls.clear()
    t_run = run_flow(cfg, t_targets=[s.t for s in traj.states[1:]])
    assert t_run.failure is None and len(t_run.landed) == len(traj.states) - 1
    assert n_rescaled < len(calls)


@pytest.mark.parametrize("F_name, n, m, initial, params", [
    ("sigma_k:2", 2, 48, "perturbed_sphere", (1.0, 0.1, 2)),
    ("mean", 1, 64, "perturbed_sphere", (1.0, 0.1, 3)),
    ("quotient:2:1", 2, 32, "ellipsoid", (0.6, 0.7)),
])
def test_rescaled_phase_matches_t_driver(F_name, n, m, initial, params):
    # a second run lands the first one's record times, so it stays in flow
    # time to the last; both integrate the same flow
    cfg = FlowConfig(F=F_name, n=n, m=m, initial=initial, initial_params=params)
    traj = run_flow(cfg)
    t_run = run_flow(cfg, t_targets=[s.t for s in traj.states[1:]])
    assert traj.failure is None and t_run.failure is None
    assert len(t_run.landed) == len(traj.states) - 1
    for s, i in zip(traj.states[1:], t_run.landed):
        assert t_run.states[i].t == s.t
        assert np.abs(t_run.states[i].u - s.u).max() < 1e-11
    assert abs(traj.T_star_estimate - t_run.T_star_estimate) < 1e-12


@pytest.mark.parametrize("F_name", ["mean", "sigma_k:2"])
@pytest.mark.parametrize("r0", [0.5, 1.0, 2.0])
def test_sphere_is_a_rescaled_fixed_point(F_name, r0):
    # u~ and E = t + ln cosh(lambda) stand still on a shrinking sphere, so
    # the step size is bounded by the record cadence alone
    cfg = FlowConfig(F=F_name, n=2, m=32, initial="sphere", initial_params=(r0,),
                     record_every=50)
    traj = run_flow(cfg)
    assert traj.failure is None and traj.steps_taken <= 30
    T = spherical_T_star(r0)
    for s in traj.states:
        lam = traj.grid.integrate(s.u) / traj.grid.integrate(np.ones(32))
        assert abs(s.t + math.log(math.cosh(lam)) - T) < 1e-13
    assert abs(traj.T_star_estimate - T) < 1e-13
    assert cfg.u_stop * (1.0 - 1e-8) < traj.states[-1].u.max() < cfg.u_stop


@pytest.mark.parametrize("F_name", curvfn.builtin_battery(2))
def test_sphere_battery_needs_no_halved_steps(F_name):
    # at the rescaled fixed point Newton's scaled increments sit at the
    # rounding floor, and their ratio is noise, not divergence; read as
    # divergence it halved steps and 7 of these spheres took 16-20 steps
    cfg = FlowConfig(F=F_name, n=2, m=32, initial="sphere", initial_params=(1.0,),
                     record_every=50)
    traj = run_flow(cfg)
    assert traj.failure is None
    assert traj.states[-1].u.max() < cfg.u_stop
    assert traj.steps_taken <= 15


def test_accepted_state_raises_like_geometry():
    # an accepted state the flow cannot continue from, checked by the rhs
    # kernel, raises the type and message of the full geometry check
    grid = make_grid(2, 48)
    F = curvfn.make_function("mean", 2)
    good = 1.0 + 0.1 * np.cos(2 * grid.theta)
    crossed = good.copy()
    crossed[5] = -0.01
    d_good = gauss_dual(HyperbolicGraph(grid, good)).dual.u_star
    d_crossed = d_good.copy()
    d_crossed[5] = 0.01
    cases = (
        (1.0, 0.3 + 0.28 * np.cos(6 * grid.theta), ConvexityError, "not strictly convex at node 8"),
        (1.0, crossed, ConvexityError, "radius collapsed at node 5"),
        (-1.0, d_crossed, CausalityError, "dual graph crossed the equatorial slice"),
        (-1.0, -0.2 - 4.5 * np.sin(grid.theta / 2.0) ** 2, CausalityError,
         "graph is not spacelike: |D u_star| = 1.144059 at node 11"),
    )
    for eps, u, error, message in cases:
        F_side = F if eps > 0 else curvfn.invert(F)
        solver = RadauIIA(grid, F_side, eps)
        with pytest.raises(error) as info:
            solver._accept(0.1, u)
        assert str(info.value) == message
        assert solver.rhs_evals == 1
        # a state of its side built directly raises the same on first read
        with pytest.raises(error) as info:
            FlowState(0.1, u, grid, F_side, eps).geometry
        assert str(info.value) == message
    for eps, u, F_side in ((1.0, good, F), (-1.0, d_good, curvfn.invert(F))):
        solver = RadauIIA(grid, F_side, eps)
        state = solver._accept(0.1, u)
        geo = _geometry(grid, u, F_side, eps)
        assert np.array_equal(solver._f, _velocity(geo.F_value, geo.v, eps))
        assert state.t == 0.1 and state.u is u


def test_accepted_states_build_geometry_when_read(monkeypatch):
    # stepping builds no GraphGeometry past the initial state's; a recorded
    # state builds its own on first read, once, equal to geometry_of's
    builds = []
    init = GraphGeometry.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(GraphGeometry, "__init__", counted)
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2))
    traj = run_flow(cfg)
    assert traj.failure is None
    assert len(builds) <= len(traj.states) + 1  # the parent builds 666
    assert traj.grid is traj.states[0].grid
    F = curvfn.make_function(cfg.F, cfg.n)
    dual = run_dual_flow(cfg, gauss_dual(traj.states[0]).dual,
                         t_stop=0.05)
    assert dual.failure is None
    for states, eps, F_side in ((traj.states, 1.0, F), (dual.states, -1.0, curvfn.invert(F))):
        for s in states:
            geo = s.geometry
            assert s.geometry is geo
            ref = geometry_of(Graph(traj.grid, s.u, eps), F_side)
            for f in dataclasses.fields(GraphGeometry):
                assert np.array_equal(getattr(geo, f.name), getattr(ref, f.name)), f.name


@pytest.mark.parametrize("r0", [80.0, 350.0])
def test_large_sphere_runs_to_extinction(r0):
    # coth u rounds to 1 there, so du/dt = -1 exactly and a step can be exact
    # (error norm 0); the step-size trend must not then zero the next step
    cfg = FlowConfig(F="mean", n=2, m=32, initial="sphere", initial_params=(r0,))
    traj = run_flow(cfg)
    assert traj.failure is None
    worst = max(np.abs(s.u - spherical_theta_ref(s.t, r0)).max() for s in traj.states)
    assert worst < 1e-6  # criterion 1
    assert abs(traj.T_star_estimate - spherical_T_star(r0)) < 1e-5


@st.composite
def _band_systems(draw):
    m = draw(st.integers(16, 40))
    cyclic = draw(st.booleans())
    imag = 1j if draw(st.booleans()) else 0.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bands = rng.uniform(-1.0, 1.0, (5, m)) + imag * rng.uniform(-1.0, 1.0, (5, m))
    # diagonally dominant, so elimination without pivoting is stable
    bands[2] = np.abs(bands).sum(axis=0) + rng.uniform(0.1, 2.0, m)
    rhs = rng.uniform(-1.0, 1.0, m) + imag * rng.uniform(-1.0, 1.0, m)
    return bands, cyclic, rhs


def _band_matrix(bands, cyclic):
    m = bands.shape[1]
    A = np.zeros((m, m), dtype=bands.dtype)
    for k in range(5):
        for i in range(m):
            j = i + k - 2
            if cyclic:
                A[i, j % m] += bands[k, i]
            elif 0 <= j < m:
                A[i, j] = bands[k, i]
    return A


def _solver_of(solver, bands, cyclic):
    return solver(bands, cyclic) if solver is _BandLU else solver(_band_matrix(bands, cyclic))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(system=_band_systems())
def test_band_lu_matches_dense_solve(system):
    bands, cyclic, rhs = system
    A = _band_matrix(bands, cyclic)
    for solver in (_BandLU, _DenseInverse):
        x = _solver_of(solver, bands, cyclic).solve(rhs)
        assert np.abs(x - np.linalg.solve(A, rhs)).max() < 1e-12 * (1.0 + np.abs(x).max())


@pytest.mark.parametrize("solver", [_BandLU, _DenseInverse])
def test_band_solvers_pass_nan_through(solver):
    # a finite-difference Jacobian near the admissibility edge can hold NaN;
    # the solve must come back non-finite, so that the step retries smaller
    bands = np.random.default_rng(5).uniform(-1.0, 1.0, (5, 32))
    bands[2] += 5.0
    bands[0, 17] = np.nan
    for cyclic in (False, True):
        for shift in (0.0, 1j):
            x = _solver_of(solver, bands + shift, cyclic).solve(np.ones(32) + shift)
            assert not np.isfinite(x).all()


@pytest.mark.parametrize("n, m", [(2, 48), (1, 64)])
def test_newton_paths_agree(monkeypatch, n, m):
    # the explicit inverses and the band LU solve the same Newton systems:
    # the same steps, Jacobians and factorizations, and landed states equal
    # to rounding; a dense Jacobian takes m rhs evaluations, a band one per
    # colour, five plus one for each of a circle's last m % 5 columns
    colours = 5 + (m % 5 if n == 1 else 0)
    cfg = FlowConfig(F="sigma_k:2" if n == 2 else "mean", n=n, m=m,
                     initial="perturbed_sphere", initial_params=(1.0, 0.1, 2),
                     record_every=10**9)
    grid = make_grid(n, m)
    d0 = gauss_dual(Graph(grid, make_initial(cfg.initial, cfg.initial_params, grid)))
    targets = [0.04, 0.08, 0.12, 0.16, 0.2]
    runs = []
    for max_m in (0, 10**6):
        monkeypatch.setattr(flow, "_DENSE_MAX_M", max_m)
        runs.append([run_flow(cfg, t_targets=targets, t_stop=0.2),
                     run_dual_flow(cfg, d0.dual, t_targets=targets, t_stop=0.2)])
    for band, dense in zip(*runs):
        assert band.failure is None and dense.failure is None
        for counter in ("steps_taken", "jac_evals", "factorizations"):
            assert getattr(band, counter) == getattr(dense, counter), counter
        assert dense.rhs_evals - band.rhs_evals == band.jac_evals * (m - colours)
        assert band.landed == dense.landed and len(band.landed) == len(targets)
        for i in band.landed:
            assert band.states[i].t == dense.states[i].t
            assert np.abs(band.states[i].u - dense.states[i].u).max() < 1e-13


@settings(max_examples=50, deadline=None, derandomize=True)
@given(k=st.integers(1, 12), m=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       imag=st.sampled_from([0.0, 1j]))
def test_block_inverse_solves_lower_triangular_systems(k, m, seed, imag):
    # the joint Newton matrices are block lower triangular; the block solve
    # matches a dense solve and never reads the upper right block
    rng = np.random.default_rng(seed)
    A = rng.uniform(-1.0, 1.0, (k + m, k + m)) + imag * rng.uniform(-1.0, 1.0, (k + m, k + m))
    A[np.diag_indices_from(A)] += k + m
    A[:k, k:] = 0.0
    rhs = rng.uniform(-1.0, 1.0, k + m) + imag * rng.uniform(-1.0, 1.0, k + m)
    x = _DenseInverse(A, k).solve(rhs)
    assert np.abs(x - np.linalg.solve(A, rhs)).max() < 1e-12 * (1.0 + np.abs(x).max())
    A[:k, k:] = np.nan
    assert np.array_equal(_DenseInverse(A, k).solve(rhs), x)


def _joint_start(cfg):
    grid = make_grid(cfg.n, cfg.m)
    u0 = make_initial(cfg.initial, cfg.initial_params, grid, cfg.seed)
    state0 = FlowState(0.0, u0, grid, curvfn.make_function(cfg.F, cfg.n), 1.0)
    return state0, gauss_dual(state0).dual


CLI_BOTH = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                      initial_params=(1.0, 0.1, 2))


def test_joint_newton_matrix_is_block_triangular():
    # the primal rows of the joint vector never read w: perturbing w in a
    # stack moves no primal entry, and the Jacobian's w columns are zero
    # there, which the block solve relies on
    state0, d0 = _joint_start(CLI_BOTH)
    m, k = CLI_BOTH.m, CLI_BOTH.m + 2
    solver = RadauIIA(state0.grid, state0.F, 1.0)
    solver.enter_rescaled(state0, FlowState(0.0, d0.u, d0.grid, curvfn.invert(state0.F), -1.0))
    y = solver._y
    assert y.shape == (2 * m + 2,)
    stack = np.tile(y, (4, 1))
    moved = stack.copy()
    moved[:, k:] += np.random.default_rng(2).uniform(-1e-3, 1e-3, (4, m))
    base, out = solver._rhs(stack), solver._rhs(moved)
    assert np.array_equal(out[:, :k], base[:, :k])
    assert not np.array_equal(out[:, k:], base[:, k:])
    assert not solver._jac[:k, k:].any()
    assert np.isfinite(solver._jac).all() and solver._jac[k:, :k].any()


def test_joint_jacobian_w_block_is_the_dual_flow_jacobian():
    # dw/dtau = w + f*(lambda w) / q with lambda and q from the primal rows,
    # so the w block of the joint Jacobian is I + (lambda / q) J*, J* the
    # dual's flow-time Jacobian at u* = lambda w; a radius of about 2 keeps
    # lambda away from one, so a misplaced factor of lambda shows, and both
    # routes then perturb u* by about the same sqrt(eps) |u*|
    cfg = dataclasses.replace(CLI_BOTH, initial_params=(2.0, 0.1, 2))
    state0, d0 = _joint_start(cfg)
    grid, m, k = state0.grid, cfg.m, cfg.m + 2
    F_dual = curvfn.invert(state0.F)
    solver = RadauIIA(grid, state0.F, 1.0)
    solver.enter_rescaled(state0, FlowState(0.0, d0.u, d0.grid, F_dual, -1.0))
    y = solver._y
    lam = math.exp(y[m])
    assert abs(lam - 2.0) < 0.05
    _, f = flow._masked_rhs(grid, state0.F, 1.0, lam * y[:m])
    q = -grid.integrate(f) / grid.integrate(np.ones(m))
    dual = RadauIIA(grid, F_dual, -1.0)
    u_star = lam * y[k:]
    dual._jacobian(u_star, dual._rhs(u_star))
    block = solver._jac[k:, k:]
    expected = np.eye(m) + lam / q * dual._jac
    assert np.abs(block - expected).max() < 1e-6 * np.abs(block).max()


def test_joint_run_drops_a_dead_dual():
    # the dual of a sphere shrunk by 0.95 dies out about 0.04 before its
    # primal; once its max |u*| is below u_stop / 2 its trajectory ends
    # cleanly and the primal goes on alone, where carrying it until a step
    # failed took 1401 steps
    cfg = FlowConfig(F="mean", n=2, m=16, initial="sphere", initial_params=(1.0,),
                     record_every=10**9)
    state0, d0 = _joint_start(cfg)
    traj, dtraj = run_both(cfg, state0, Graph(d0.grid, 0.95 * d0.u, -1.0))
    assert traj.failure is None and dtraj.failure is None
    assert traj.steps_taken < 1000
    assert dtraj.steps_taken < traj.steps_taken and dtraj.landed == []
    assert np.abs(dtraj.states[-1].u).max() < 0.5 * cfg.u_stop
    assert dtraj.states[-1].t < traj.states[-1].t - 0.03


def test_joint_run_shares_one_scale_factor():
    # the paper rescales the primal and its dual by one factor: carried in
    # the primal's lambda, the dual's w = u*/lambda tends to the slice -1 as
    # u~ tends to the unit sphere, so the area mean of |w| tends to one
    traj, dtraj = run_both(CLI_BOTH, *_joint_start(CLI_BOTH))
    grid = traj.grid
    area = grid.integrate(np.ones(grid.m))
    duals = [dtraj.states[0]] + [dtraj.states[j] for j in dtraj.landed]
    assert len(duals) == len(traj.states)
    gap = [abs(grid.integrate(np.abs(d.u)) / grid.integrate(s.u) - 1.0)
           for s, d in zip(traj.states, duals)]
    # measured 6.45e-3 at the first record and 3.0e-4 at the last
    assert gap[-1] < 1e-3 and gap[-1] < gap[0]


@pytest.mark.parametrize("cfg", [
    CLI_BOTH,
    FlowConfig(F="quotient:2:1", n=2, m=32, initial="ellipsoid", initial_params=(0.6, 0.7)),
    FlowConfig(F="mean", n=1, m=80, initial="perturbed_sphere", initial_params=(1.0, 0.1, 3)),
])
def test_joint_run_matches_separate_runs(cfg):
    # the joint run steps the primal in its own tau: its cadence records
    # match the primal run alone, every record has its dual at the same t,
    # and each side's T* matches its separate run (the dual landing the
    # primal's record times in flow time)
    state0, d0 = _joint_start(cfg)
    traj, dtraj = run_both(cfg, state0, d0)
    alone = run_flow(cfg, u0=state0.u)
    landing = run_dual_flow(cfg, d0, t_targets=[s.t for s in alone.states[1:]])
    assert traj.failure is None and dtraj.failure is None
    assert traj.steps_taken <= 1.2 * alone.steps_taken
    assert dtraj.steps_taken == traj.steps_taken
    assert len(traj.states) == len(alone.states) == len(dtraj.states)
    assert dtraj.landed == list(range(1, len(dtraj.states)))
    assert all(d.t == s.t for s, d in zip(traj.states, dtraj.states))
    # the final state lands just below u_stop, off the cadence
    for s, a in zip(traj.states[:-1], alone.states[:-1]):
        assert abs(s.t - a.t) < 1e-12
        assert np.abs(s.u - a.u).max() < 1e-10
    assert abs(traj.T_star_estimate - alone.T_star_estimate) < 1e-10
    assert abs(dtraj.T_star_estimate - landing.T_star_estimate) < 1e-10


def test_run_flow_sphere_tracks_closed_form():
    cfg = FlowConfig(F="mean", n=2, m=32, initial="sphere", initial_params=(1.0,))
    traj = run_flow(cfg)
    assert traj.failure is None
    assert traj.states[-1].t < T_STAR_1
    worst = max(
        np.abs(s.u - float(spherical_theta_ref(s.t, 1.0))).max() for s in traj.states
    )
    assert worst < 1e-6


def test_run_flow_monotone_nested():
    cfg = FlowConfig(
        F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
        initial_params=(1.0, 0.1, 2), record_every=25,
    )
    traj = run_flow(cfg)
    assert traj.failure is None
    for a, b in zip(traj.states, traj.states[1:]):
        assert b.u.max() < a.u.max()
        assert np.all(b.u < a.u + 1e-14)  # strictly nested


def test_horoconvexity_preserved():
    # start just inside the horoconvex cone (min kappa about 1.05)
    r0 = math.atanh(1.0 / 1.075)
    cfg = FlowConfig(
        F="power_mean:0.5", n=2, m=48, initial="perturbed_sphere",
        initial_params=(r0, 0.02, 3), u_stop=0.04, record_every=25,
    )
    traj = run_flow(cfg)
    assert traj.failure is None
    margin0 = traj.states[0].geometry.kappa.min() - 1.0
    assert 0.03 < margin0 < 0.07
    for s in traj.states:
        if s.u.max() >= 0.05:
            assert s.geometry.kappa.min() - 1.0 > 0.0


def test_spherical_theta_values():
    assert spherical_theta(0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert spherical_theta(0.2, 1.0) == pytest.approx(0.7107125782603828, abs=1e-12)
    assert spherical_T_star(1.0) == pytest.approx(T_STAR_1, abs=1e-14)
    assert spherical_T_star(0.5) == pytest.approx(T_STAR_HALF, abs=1e-14)
    with pytest.raises(ValueError):
        spherical_theta(T_STAR_1, 1.0)
    with pytest.raises(ValueError):
        spherical_theta(-0.1, 1.0)


@pytest.mark.parametrize("T_star", [1e-17, 1e-12, 1e-10, 0.43])
def test_barrier_radius_is_keyed_by_T_star(T_star):
    # the barrier radius comes from T* directly, with no round trip through
    # a sphere radius, which loses digits for small T* and is 0.0 at 1e-17
    Theta = 2.0 * math.asinh(math.sqrt(0.5 * math.expm1(T_star)))
    grid = make_grid(2, 16)
    state = FlowState(0.0, np.ones(16), grid, curvfn.make_function("mean", 2), 1.0)
    traj = FlowTrajectory(states=[state])
    for value in (_theta_of(0.0, T_star), rescale(traj, T_star)[0].Theta):
        assert abs(value - Theta) <= 4.0 * math.ulp(Theta)


def test_estimate_Tstar_spherical():
    for r0, T in ((1.0, T_STAR_1), (0.5, T_STAR_HALF)):
        cfg = FlowConfig(F="mean", n=2, m=32, initial="sphere", initial_params=(r0,))
        traj = run_flow(cfg)
        est = estimate_Tstar(traj)
        assert abs(est.value - T) < 1e-6
        assert float(est) == est.value
        assert not est.warn
        assert traj.T_star_estimate == pytest.approx(T, abs=1e-6)


def test_barrier_pinches_graph():
    cfg = FlowConfig(
        F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
        initial_params=(1.0, 0.1, 2), record_every=10,
    )
    traj = run_flow(cfg)
    r0_eff = math.acosh(math.exp(traj.T_star_estimate))
    for s in traj.states:
        Theta = spherical_theta(s.t, r0_eff)
        assert s.u.min() <= Theta + 1e-4
        assert Theta <= s.u.max() + 1e-4


def test_rescale_spherical_is_unit():
    cfg = FlowConfig(F="mean", n=2, m=32, initial="sphere", initial_params=(1.0,))
    traj = run_flow(cfg)
    recs = rescale(traj, T_STAR_1)
    assert max(np.abs(r.u_tilde - 1.0).max() for r in recs) < 1e-8
    # the scaled speed coth(Theta) Theta drops to 1 along the run
    devs = [np.abs(r.F_tilde - 1.0).max() for r in recs]
    assert devs[-1] < 1e-3
    assert devs[-1] < devs[0]
    taus = [r.tau for r in recs]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_rescale_oscillation_decays():
    cfg = FlowConfig(
        F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
        initial_params=(1.0, 0.1, 2), record_every=10,
    )
    traj = run_flow(cfg)
    recs = rescale(traj, traj.T_star_estimate)
    osc = np.array([r.u_tilde.max() - r.u_tilde.min() for r in recs])
    assert osc[-1] < 0.1 * osc[0]
    assert abs(recs[-1].u_tilde.mean() - 1.0) < 0.02


def test_rescale_rejects_bad_Tstar():
    cfg = FlowConfig(F="mean", n=2, m=32, initial="sphere", initial_params=(1.0,))
    traj = run_flow(cfg)
    with pytest.raises(ValueError):
        rescale(traj, traj.states[-1].t - 0.01)


def test_dual_slice_run_matches_primal_solution():
    grid = make_grid(2, 32)
    cfg = FlowConfig(F="mean", n=2, m=32, initial="sphere", initial_params=(1.0,),
                     record_every=20)
    dtraj = run_dual_flow(cfg, Graph(grid, np.full(32, -1.0), -1.0))
    assert dtraj.failure is None
    worst = max(
        np.abs(s.u_star + float(spherical_theta_ref(s.t, 1.0))).max()
        for s in dtraj.states
    )
    assert worst < 1e-9
    # expanding toward the equatorial slice tau = 0
    tops = [s.u_star.max() for s in dtraj.states]
    assert all(b >= a for a, b in zip(tops, tops[1:]))
    assert -dtraj.states[-1].u_star.min() < cfg.u_stop + 1e-12
    est = estimate_Tstar(dtraj)
    assert abs(est.value - T_STAR_1) < 1e-6
    assert dtraj.T_star_estimate == est.value


def test_flows_commute_with_duality():
    # gauss dual of the evolved primal equals the evolved dual
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2), record_every=10**9)
    targets = [0.05, 0.1, 0.15, 0.2]
    traj = run_flow(cfg, t_targets=targets, t_stop=0.2)
    d0 = gauss_dual(traj.states[0]).dual
    dtraj = run_dual_flow(cfg, d0, t_targets=targets, t_stop=0.2)
    assert len(traj.landed) == len(dtraj.landed) == len(targets)
    for tt, i, j in zip(targets, traj.landed, dtraj.landed):
        assert abs(traj.states[i].t - tt) < 1e-13 and abs(dtraj.states[j].t - tt) < 1e-13
        us = gauss_dual(traj.states[i]).dual.u_star
        assert np.abs(us - dtraj.states[j].u_star).max() < 5e-6


def test_run_flow_lands_targets():
    cfg = FlowConfig(F="mean", n=2, m=32, initial="sphere", initial_params=(1.0,),
                     record_every=10**9)
    targets = (0.1, 0.25)
    traj = run_flow(cfg, t_targets=targets)
    times = [s.t for s in traj.states]
    for tt in targets:
        assert any(abs(t - tt) < 1e-13 for t in times)


def test_flow_time_records_only_initial_targets_and_final():
    # record_every sets the tau cadence only: a run that stays in flow time
    # records its initial state and one state per landed target
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2), record_every=1)
    targets = (0.04, 0.08, 0.12, 0.16, 0.2)
    traj = run_flow(cfg, t_targets=targets, t_stop=0.2)
    assert traj.failure is None and traj.steps_taken > len(targets)
    assert len(traj.states) == 1 + len(targets)
    assert traj.landed == list(range(1, 1 + len(targets)))
    assert [s.t for s in traj.states] == pytest.approx((0.0,) + targets, abs=1e-13)


def test_make_initial_library():
    grid = make_grid(2, 64)
    for name, params in (
        ("sphere", (1.0,)),
        ("perturbed_sphere", (1.0, 0.05, 3)),
        ("ellipsoid", (0.6, 0.75)),
        ("random_fourier", (1.0, 0.05, 4)),
    ):
        u = make_initial(name, params, grid, seed=1)
        geo = geometry_of(Graph(grid, u))
        assert geo.convex, name
    # seeded draws are reproducible
    a = make_initial("random_fourier", (1.0, 0.05, 4), grid, seed=9)
    b = make_initial("random_fourier", (1.0, 0.05, 4), grid, seed=9)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        make_initial("unknown_shape", (), grid)
    with pytest.raises(ValueError):
        make_initial("perturbed_sphere", (0.3, 0.4, 6), grid)  # dips below 0
    # kmax is an integer in [1, m // 2]: a fraction is not rounded down,
    # and 1e9 would ask for 8 GB of coefficients
    assert make_initial("random_fourier", (1.0, 0.05, 32), grid).shape == (64,)
    for kmax in (4.7, 0.0, -1.0, 33.0, 1e9, math.nan):
        with pytest.raises(ValueError, match="kmax"):
            make_initial("random_fourier", (1.0, 0.05, kmax), grid)
    # sinh^2 u, which the curvature kernel forms, overflows past u = 355.58
    assert make_initial("sphere", (355.0,), grid).max() == 355.0
    for name, params in (("sphere", (356.0,)), ("perturbed_sphere", (355.5, 0.2, 2)),
                         ("random_fourier", (400.0, 0.05, 4))):
        with pytest.raises(ValueError, match="sinh\\^2 overflows"):
            make_initial(name, params, grid)


def test_run_flow_rejects_nonconvex_start():
    cfg = FlowConfig(F="mean", n=2, m=64, initial="perturbed_sphere",
                     initial_params=(0.3, 0.28, 6))
    with pytest.raises(ConvexityError):
        run_flow(cfg)


def test_run_flow_off_center_extinction_aborts():
    # this draw carries a strong k=1 mode, so the surface contracts to a
    # point about 0.1 away from the origin: the near-side radius
    # collapses while the far side stays above u_stop, and the run must
    # abort as a graph degeneration instead of grinding dt toward zero
    cfg = FlowConfig(F="power_mean:0.5", n=2, m=48, initial="random_fourier",
                     initial_params=(1.0, 0.05, 4), seed=3, u_stop=0.04)
    traj = run_flow(cfg)
    d0 = gauss_dual(traj.states[0]).dual
    # the dual extinguishes off-centre too and aborts the same way
    for tr in (traj, run_dual_flow(cfg, d0)):
        assert tr.failure == "convexity"
        last = np.abs(tr.states[-1].u)
        assert last.min() < 0.25 * cfg.u_stop
        assert last.max() >= cfg.u_stop


def test_flow_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(F="mean", n=2, m=32, initial="sphere", u_stop=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(F="mean", n=2, m=32, initial="sphere", record_every=0)
    cfg = FlowConfig(F="mean", n=2, m=32, initial="sphere", initial_params=[1])
    assert cfg.initial_params == (1.0,)
