"""Time stepping: primal contraction, dual expansion, rescaling, extinction."""

import math

import numpy as np
import pytest

from dualflow import curvfn
from dualflow.dualmap import DeSitterGraph, gauss_dual
from dualflow.flow import (
    ConvexityError,
    FlowConfig,
    FlowState,
    _velocity,
    estimate_Tstar,
    make_initial,
    rescale,
    run_dual_flow,
    run_flow,
    spherical_T_star,
    spherical_theta,
    step,
)
from dualflow.hgeom import HyperbolicGraph, geometry_of
from dualflow.sphere_grid import make_grid
from oracles import oracle_flow_step, spherical_theta_ref

T_STAR_1 = 0.4337808304830271  # ln cosh 1
T_STAR_HALF = 0.12011450695827745  # ln cosh 0.5


def _rhs(g, F, eps=1.0):
    return _velocity(geometry_of(g, F), eps)


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
        st2 = step(st, F, 0.5, grid, dt_cap=dt)
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
            st = step(st, F, 0.5, grid, dt_cap=dt)
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
    st2 = step(st, F, 0.2, grid)
    assert st2.u.max() - st2.u.min() <= 1e-12


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
    prim = {round(s.t, 12): s for s in traj.states}
    dual = {round(s.t, 12): s for s in dtraj.states}
    for tt in targets:
        key = round(tt, 12)
        assert key in prim and key in dual
        us = gauss_dual(HyperbolicGraph(grid, prim[key].u)).dual.u_star
        assert np.abs(us - dual[key].u_star).max() < 5e-6


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
        FlowConfig(F="mean", n=2, m=32, initial="sphere", cfl=0.7)
    with pytest.raises(ValueError):
        FlowConfig(F="mean", n=2, m=32, initial="sphere", u_stop=-1.0)
    with pytest.raises(ValueError):
        FlowConfig(F="mean", n=2, m=32, initial="sphere", record_every=0)
    cfg = FlowConfig(F="mean", n=2, m=32, initial="sphere", initial_params=[1])
    assert cfg.initial_params == (1.0,)
