"""Monitors, rate fits, and the nodewise decay bound."""

import math

import numpy as np
import pytest

from dualflow import curvfn, diagnostics, flow, hgeom, sphere_grid
from dualflow.diagnostics import CSV_FIELDS, compute_record, pinching_epsilon
from dualflow.dualmap import gauss_dual
from dualflow.flow import FlowConfig, FlowState, make_initial, run_both, run_flow
from dualflow.hgeom import Graph, geometry_of
from dualflow.sphere_grid import make_grid
from oracles import C_GRID, decay_check, fit_exponential, kn_term_gap


def test_csv_fields_are_frozen():
    assert CSV_FIELDS == (
        "t", "tau", "u_min", "u_max", "pinch_ratio", "horoconvex_margin",
        "pinching_T", "osc_F_tilde", "f_sigma_max", "A2_minus_nF2_max",
        "rho_minus", "rho_plus", "duality_err", "w_min", "w_max",
    )
    assert C_GRID > 0.0


def _sphere_state(grid, r, F):
    return FlowState(0.0, np.full(grid.m, r), grid, F, 1.0)


def test_record_on_slice_is_umbilic():
    grid = make_grid(2, 48)
    F = curvfn.make_function("mean", 2)
    st = _sphere_state(grid, 0.8, F)
    eps = pinching_epsilon(st.geometry, 2)
    dual = gauss_dual(st).dual
    [rec] = compute_record([st], [dual], [0.8], epsilon=eps, sigma=0.1)
    coth = 1.0 / math.tanh(0.8)
    assert rec.pinch_ratio == 1.0
    assert rec.u_min == rec.u_max == 0.8
    assert rec.horoconvex_margin == pytest.approx(coth - 1.0, abs=1e-12)
    # eps is half the feasible bound, so the tensor keeps half the margin
    assert eps == pytest.approx(0.25, abs=1e-12)
    assert rec.pinching_T == pytest.approx(0.5 * (coth - 1.0), abs=1e-12)
    assert rec.osc_F_tilde == pytest.approx(0.0, abs=1e-12)
    assert abs(rec.f_sigma_max) < 1e-10
    assert abs(rec.A2_minus_nF2_max) < 1e-10
    assert rec.rho_minus == pytest.approx(0.8, abs=1e-8)
    assert rec.rho_plus == pytest.approx(0.8, abs=1e-8)
    assert rec.duality_err < 1e-10
    assert rec.w_min == pytest.approx(-1.0, abs=1e-12)
    assert rec.w_max == pytest.approx(-1.0, abs=1e-12)
    assert rec.tau == pytest.approx(-math.log(0.8), abs=1e-14)
    assert len(rec.as_row()) == len(CSV_FIELDS)
    assert rec.as_row()[0] == 0.0


def test_record_without_dual_has_nan_w():
    grid = make_grid(2, 32)
    F = curvfn.make_function("mean", 2)
    st = _sphere_state(grid, 1.0, F)
    [rec] = compute_record([st], Thetas=[1.0])
    assert math.isnan(rec.duality_err)
    assert math.isnan(rec.w_min) and math.isnan(rec.w_max)


def test_record_pass_is_cheap_by_counts(monkeypatch):
    # the 40 records of the sigma_k:2 both-mode run, every primal paired:
    # the inball search scores at most 8000 offset rows in all (a 41-point
    # rescan of each bracket per round scored 23 042), and every duality
    # error comes from one verify_duality call on the stack of pairs
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2))
    grid = make_grid(2, 48)
    F = curvfn.make_function(cfg.F, cfg.n)
    state0 = FlowState(0.0, make_initial(cfg.initial, cfg.initial_params, grid), grid, F, 1.0)
    traj, dtraj = run_both(cfg, state0, gauss_dual(state0).dual)
    duals = [dtraj.states[j] for j in [0] + dtraj.landed]
    assert len(traj.states) == len(duals) == 40
    rows, calls = [], []
    score, verify = hgeom._score, diagnostics.verify_duality
    monkeypatch.setattr(hgeom, "_score", lambda grid, u, s: rows.append(s.size) or score(grid, u, s))
    monkeypatch.setattr(diagnostics, "verify_duality",
                        lambda pairs: calls.append(pairs) or verify(pairs))
    records = compute_record(traj.states, duals, [1.0] * 40)
    assert sum(rows) <= 8000
    assert len(calls) == 1 and len(calls[0]) == 40
    assert all(math.isfinite(r.rho_minus) and math.isfinite(r.duality_err) for r in records)


def test_record_pass_is_one_stack_by_counts(monkeypatch):
    # the 40 records of the sigma_k:2 both-mode run: the record pass maps all
    # 40 primal states to their duals in one gauss_dual call with one
    # resample, and builds the geometry it lacks in one stack per side (the
    # primal's first state built its own when the run started)
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2))
    grid = make_grid(2, 48)
    F = curvfn.make_function(cfg.F, cfg.n)
    state0 = FlowState(0.0, make_initial(cfg.initial, cfg.initial_params, grid), grid, F, 1.0)
    traj, dtraj = run_both(cfg, state0, gauss_dual(state0).dual)
    duals = [dtraj.states[j] for j in [0] + dtraj.landed]
    assert len(traj.states) == len(duals) == 40
    maps, resamples, builds = [], [], []
    gauss, resample, geometry = diagnostics.gauss_dual, sphere_grid.resample_monotone, hgeom.geometry_of
    monkeypatch.setattr(diagnostics, "gauss_dual", lambda g: maps.append(len(g)) or gauss(g))
    monkeypatch.setattr(sphere_grid, "resample_monotone",
                        lambda x, y, xq: resamples.append(np.shape(x)) or resample(x, y, xq))
    monkeypatch.setattr(flow, "geometry_of", lambda g, F=None: builds.append(
        1 if hasattr(g, "grid") else len(g)) or geometry(g, F))
    records = compute_record(traj.states, duals, [1.0] * 40)
    assert maps == [40]
    assert len(resamples) == 1 and resamples[0][0] == 40
    assert builds == [39]
    assert all(math.isfinite(r.duality_err) for r in records)
    # a dual run's states: one stack for the dual side, and no Gauss map
    maps.clear()
    builds.clear()
    compute_record(dtraj.states[1:], Thetas=[1.0] * (len(dtraj.states) - 1))
    assert maps == [0] and builds == [len(dtraj.states) - 1]


def test_pinching_weight_feasible_at_start():
    grid = make_grid(2, 48)
    F = curvfn.make_function("sigma_k:2", 2)
    u = math.atanh(1.0 / 1.075) + 0.02 * np.cos(3 * grid.theta)
    geo = geometry_of(Graph(grid, u), F)
    eps = pinching_epsilon(geo, 2)
    assert eps > 0.0
    T0 = (geo.kappa.min(axis=1) - 1.0 - eps * (geo.H - 2)).min()
    assert T0 > 0.0
    # non-horoconvex data clamps the weight to zero
    u2 = 2.0 + 0.1 * np.cos(2 * grid.theta)
    geo2 = geometry_of(Graph(grid, u2), F)
    if geo2.kappa.min() < 1.0:
        assert pinching_epsilon(geo2, 2) == 0.0


def test_dual_record_slice():
    grid = make_grid(2, 48)
    F = curvfn.make_function("mean", 2)
    u_star = np.full(48, -0.8)
    st = FlowState(0.0, u_star, grid, F, -1.0)
    [rec] = compute_record([st], Thetas=[0.8])
    assert rec.pinch_ratio == 1.0
    assert rec.u_min == rec.u_max == -0.8
    assert rec.w_min == pytest.approx(-1.0, abs=1e-12)
    assert rec.w_max == pytest.approx(-1.0, abs=1e-12)
    assert abs(rec.A2_minus_nF2_max) < 1e-10
    for name in ("horoconvex_margin", "pinching_T", "rho_minus", "rho_plus",
                 "duality_err"):
        assert math.isnan(getattr(rec, name))


def _cloud(rng, n, size):
    return 1.0 + np.exp(rng.uniform(-3.0, 1.2, size=(size, n)))


@pytest.mark.parametrize(
    "name, n, C_expect",
    [
        ("mean", 2, 0.5),
        ("sigma_k:2", 2, 0.999919),
        ("sigma_k:2", 3, 0.5),
        ("power_mean:0.5", 3, 0.489297),
    ],
)
def test_gradient_trace_gap_dominates_spread(name, n, C_expect):
    F = curvfn.make_function(name, n)
    lhs, spread = kn_term_gap(F, _cloud(np.random.default_rng(0), n, 200000))
    keep = spread > 1e-12
    C_scan = float((lhs[keep] / spread[keep]).min())
    assert C_scan == pytest.approx(C_expect, abs=2e-2)
    assert np.all(lhs[keep] >= 0.0)
    # the calibrated constant holds up on an independent cloud
    lhs2, spread2 = kn_term_gap(F, _cloud(np.random.default_rng(1), n, 200000))
    assert np.all(lhs2 >= 0.95 * C_scan * spread2 - 1e-12)


def test_gradient_trace_gap_mean_identity():
    # for F = H/n the gap is exactly spread/n
    F = curvfn.make_function("mean", 3)
    kappa = _cloud(np.random.default_rng(2), 3, 1000)
    lhs, spread = kn_term_gap(F, kappa)
    assert np.abs(lhs - spread / 3.0).max() < 1e-12 * spread.max()


def test_fit_exponential_recovers_rate():
    taus = np.linspace(0.0, 3.0, 40)
    fit = fit_exponential(taus, 3.0 * np.exp(-2.0 * taus))
    assert fit.C == pytest.approx(3.0, rel=1e-10)
    assert fit.delta == pytest.approx(2.0, abs=1e-10)
    assert fit.residual < 1e-12
    assert not fit.clipped
    flat = fit_exponential(taus, np.full(40, 0.7))
    assert abs(flat.delta) < 1e-12
    assert flat.C == pytest.approx(0.7, rel=1e-10)
    ys = 3.0 * np.exp(-2.0 * taus)
    ys[7] = 0.0
    assert fit_exponential(taus, ys).clipped
    with pytest.raises(ValueError):
        fit_exponential(taus[:4], ys[:4])


def _run(F, initial_params=(1.0, 0.1, 2), m=48, **kw):
    cfg = FlowConfig(F=F, n=2, m=m, initial="perturbed_sphere",
                     initial_params=initial_params, record_every=10, **kw)
    return run_flow(cfg)


def test_decay_check_sphere_is_vacuous():
    cfg = FlowConfig(F="mean", n=2, m=32, initial="sphere", initial_params=(1.0,),
                     record_every=20)
    rep = decay_check(run_flow(cfg))
    assert rep.ok
    assert not rep.fitted
    assert rep.n_points < 5


def test_decay_check_fits_perturbed_runs():
    for name in ("sigma_k:2", "mean"):
        rep = decay_check(_run(name))
        assert rep.fitted
        assert rep.ok, name
        assert rep.delta > 1.0
        assert rep.worst_margin >= 0.0
        assert rep.n_points > 1000


def test_decay_check_verifies_given_constants():
    traj = _run("sigma_k:2")
    fitted = decay_check(traj)
    loose = decay_check(traj, c0=10.0 * fitted.c0, delta=fitted.delta)
    assert loose.ok and not loose.fitted
    absurd = decay_check(traj, c0=1e-12, delta=fitted.delta)
    assert not absurd.ok
    # the constants come together or not at all
    for one in ({"c0": fitted.c0}, {"delta": fitted.delta}):
        with pytest.raises(ValueError):
            decay_check(traj, **one)
