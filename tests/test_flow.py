"""Time stepping: primal contraction, dual expansion, rescaling, extinction."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualflow import curvfn
from dualflow.dualmap import CausalityError, DeSitterGraph, gauss_dual
from dualflow.flow import (
    ConvexityError,
    FlowConfig,
    FlowState,
    RadauIIA,
    _BandLU,
    _geometry,
    _velocity,
    estimate_Tstar,
    make_initial,
    rescale,
    run_dual_flow,
    run_flow,
    spherical_T_star,
    spherical_theta,
)
from dualflow.hgeom import HyperbolicGraph, geometry_of
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
        rhs = _rhs(HyperbolicGraph(grid, np.full(48, r)), F)
        assert np.abs(rhs + 1.0 / math.tanh(r)).max() < 1e-12
        # the dual slice u* = -r rises at the same rate
        rhs = _rhs(DeSitterGraph(grid, np.full(48, -r)), F_dual, -1.0)
        assert np.abs(rhs - 1.0 / math.tanh(r)).max() < 1e-12


def test_slice_rhs_any_normalized_speed():
    # 1-homogeneity plus F(1,..,1) = 1 pins every battery member on slices
    grid = make_grid(2, 48)
    for name in curvfn.builtin_battery(2):
        F = curvfn.make_function(name, 2)
        rhs = _rhs(HyperbolicGraph(grid, np.full(48, 0.9)), F)
        assert np.abs(rhs + 1.0 / math.tanh(0.9)).max() < 1e-11


def test_rhs_against_embedding_flow_oracle():
    # reference: move embedded points by -F nu eps and re-read the graph
    grid = make_grid(2, 128)
    u = 1.0 + 0.1 * np.cos(grid.theta)
    F = curvfn.make_function("sigma_k:2", 2)
    rhs = _rhs(HyperbolicGraph(grid, u), F)
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
        st = FlowState(0.0, u0, geometry_of(HyperbolicGraph(grid, u0), F), 0.0)
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
        st = FlowState(0.0, u0, geometry_of(HyperbolicGraph(grid, u0), F), 0.0)
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
    st = FlowState(0.0, u0, geometry_of(HyperbolicGraph(grid, u0), F), 0.0)
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
    d0 = gauss_dual(HyperbolicGraph(grid, traj.states[0].u)).dual
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
def test_coloured_jacobian_matches_dense_differences(n, m):
    # on the circle the band wraps around; m = 64 needs the extra colours
    grid = make_grid(n, m)
    F = curvfn.make_function("mean", n)
    u = 1.0 + 0.1 * np.cos(grid.theta) + 0.05 * np.cos(3 * grid.theta)
    solver = RadauIIA(grid, F, 1.0)
    f = solver._rhs(u)
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
        rows = [gauss_dual(HyperbolicGraph(grid, u)).dual.u_star for u in rows]
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
    assert not geometry_of(HyperbolicGraph(grid, nonconvex)).convex
    crossed = good.copy()
    crossed[5] = -0.01
    d_good = gauss_dual(HyperbolicGraph(grid, good)).dual.u_star
    d_crossed = d_good.copy()
    d_crossed[5] = 0.01
    timelike = -0.2 - 4.5 * np.sin(grid.theta / 2.0) ** 2
    with pytest.raises(CausalityError):
        DeSitterGraph(grid, timelike)
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


def test_step_makes_at_most_three_rhs_calls(monkeypatch):
    # the three Newton stages are one call, and so is each Jacobian
    calls = []
    rhs = RadauIIA._rhs

    def counted(self, u):
        calls.append(u.shape)
        return rhs(self, u)

    monkeypatch.setattr(RadauIIA, "_rhs", counted)
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2))
    traj = run_flow(cfg)
    assert traj.failure is None
    assert len(calls) <= 3 * traj.steps_taken
    # rhs_evals counts profiles, one per row of each call
    assert traj.rhs_evals == sum(math.prod(c[:-1]) for c in calls) + traj.steps_taken


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(system=_band_systems())
def test_band_lu_matches_dense_solve(system):
    bands, cyclic, rhs = system
    m = bands.shape[1]
    A = np.zeros((m, m), dtype=bands.dtype)
    for k in range(5):
        for i in range(m):
            j = i + k - 2
            if cyclic:
                A[i, j % m] += bands[k, i]
            elif 0 <= j < m:
                A[i, j] = bands[k, i]
    x = _BandLU(bands, cyclic).solve(rhs)
    assert np.abs(x - np.linalg.solve(A, rhs)).max() < 1e-12 * (1.0 + np.abs(x).max())


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
    dtraj = run_dual_flow(cfg, DeSitterGraph(grid, np.full(32, -1.0)))
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
    grid = make_grid(2, 48)
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2), record_every=10**9)
    targets = [0.05, 0.1, 0.15, 0.2]
    traj = run_flow(cfg, t_targets=targets, t_stop=0.2)
    d0 = gauss_dual(HyperbolicGraph(grid, traj.states[0].u)).dual
    dtraj = run_dual_flow(cfg, d0, t_targets=targets, t_stop=0.2)
    assert len(traj.landed) == len(dtraj.landed) == len(targets)
    for tt, i, j in zip(targets, traj.landed, dtraj.landed):
        assert abs(traj.states[i].t - tt) < 1e-13 and abs(dtraj.states[j].t - tt) < 1e-13
        us = gauss_dual(HyperbolicGraph(grid, traj.states[i].u)).dual.u_star
        assert np.abs(us - dtraj.states[j].u_star).max() < 5e-6


def test_run_flow_lands_targets():
    cfg = FlowConfig(F="mean", n=2, m=32, initial="sphere", initial_params=(1.0,),
                     record_every=10**9)
    targets = (0.1, 0.25)
    traj = run_flow(cfg, t_targets=targets)
    times = [s.t for s in traj.states]
    for tt in targets:
        assert any(abs(t - tt) < 1e-13 for t in times)


def test_make_initial_library():
    grid = make_grid(2, 64)
    for name, params in (
        ("sphere", (1.0,)),
        ("perturbed_sphere", (1.0, 0.05, 3)),
        ("ellipsoid", (0.6, 0.75)),
        ("random_fourier", (1.0, 0.05, 4)),
    ):
        u = make_initial(name, params, grid, seed=1)
        geo = geometry_of(HyperbolicGraph(grid, u))
        assert geo.convex, name
    # seeded draws are reproducible
    a = make_initial("random_fourier", (1.0, 0.05, 4), grid, seed=9)
    b = make_initial("random_fourier", (1.0, 0.05, 4), grid, seed=9)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        make_initial("unknown_shape", (), grid)
    with pytest.raises(ValueError):
        make_initial("perturbed_sphere", (0.3, 0.4, 6), grid)  # dips below 0


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
    d0 = gauss_dual(HyperbolicGraph(traj.grid, traj.states[0].u)).dual
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
