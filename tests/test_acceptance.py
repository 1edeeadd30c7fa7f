"""End-to-end acceptance gate.

Eight checks, one printed PASS/FAIL line each, covering: spherical
closed-form tracking, duality convergence order, the flow/dual-flow
commuting square, the barrier, the preserved pointwise inequalities,
rescaled convergence to the unit sphere, the speed-function battery,
and nodewise decay-bound feasibility.
"""

import math
import time

import numpy as np
import pytest

from dualflow import curvfn
from dualflow.diagnostics import pinching_epsilon
from dualflow.dualmap import gauss_dual, verify_duality
from dualflow.flow import (
    FlowConfig,
    estimate_Tstar,
    make_initial,
    run_dual_flow,
    run_flow,
    spherical_T_star,
    spherical_theta,
)
from dualflow.hgeom import Graph
from dualflow.sphere_grid import make_grid
from oracles import C_GRID, decay_check, fd_gradient, fit_exponential, rescale


def _verdict(k, name, ok):
    print(f"ACCEPTANCE {k} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def sigma2_run():
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2), record_every=10)
    return run_flow(cfg)


@pytest.fixture(scope="module")
def horoconvex_run():
    r0 = math.atanh(1.0 / 1.075)
    cfg = FlowConfig(F="power_mean:0.5", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(r0, 0.02, 3), u_stop=0.04, record_every=10)
    return run_flow(cfg)


@pytest.fixture(scope="module")
def mean_run():
    cfg = FlowConfig(F="mean", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2), record_every=10)
    return run_flow(cfg)


def test_criterion_1_spherical_closed_form():
    ok = True
    for name in curvfn.builtin_battery(2):
        for r0 in (0.5, 1.0, 2.0):
            t0 = time.perf_counter()
            cfg = FlowConfig(F=name, n=2, m=32, initial="sphere",
                             initial_params=(r0,), record_every=50)
            traj = run_flow(cfg)
            elapsed = time.perf_counter() - t0
            err = max(
                np.abs(s.u - spherical_theta(s.t, r0)).max() for s in traj.states
            )
            T_err = abs(estimate_Tstar(traj).value - spherical_T_star(r0))
            ok &= traj.failure is None and err <= 1e-6 and T_err <= 1e-5
            ok &= elapsed < 10.0
    assert _verdict(1, "spherical_closed_form", ok)


def test_criterion_2_duality_order():
    ok = True
    for seed in range(20):
        errs = []
        for m in (64, 128, 256):
            grid = make_grid(2, m)
            u = make_initial("random_fourier", (1.0, 0.05, 4), grid, seed=seed)
            errs.append(verify_duality(gauss_dual(Graph(grid, u))).worst())
        order = 0.5 * math.log2(errs[0] / errs[2])
        ok &= order >= 3.5
    assert _verdict(2, "duality_order", ok)


def _square_mismatch(name, m, targets, t_stop):
    cfg = FlowConfig(F=name, n=2, m=m, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2), record_every=10**9)
    traj = run_flow(cfg, t_targets=targets, t_stop=t_stop)
    d0 = gauss_dual(traj.states[0]).dual
    dtraj = run_dual_flow(cfg, d0, t_targets=targets, t_stop=t_stop)
    if not len(traj.landed) == len(dtraj.landed) == len(targets):
        return math.inf
    worst = 0.0
    for i, j in zip(traj.landed, dtraj.landed):
        u_star = gauss_dual(traj.states[i]).dual.u_star
        worst = max(worst, float(np.abs(u_star - dtraj.states[j].u_star).max()))
    return worst


def test_criterion_3_commuting_square():
    t0 = time.perf_counter()
    targets = (0.04, 0.08, 0.12, 0.16, 0.2)
    ok = True
    for name in ("sigma_k:2", "power_mean:0.5"):
        e_coarse = _square_mismatch(name, 128, targets, 0.2)
        e_fine = _square_mismatch(name, 256, targets, 0.2)
        ok &= e_coarse <= 5e-4
        ok &= e_coarse / e_fine >= 8.0
    ok &= time.perf_counter() - t0 < 120.0
    assert _verdict(3, "commuting_square", ok)


def test_criterion_4_barrier(sigma2_run):
    T_hat = estimate_Tstar(sigma2_run).value
    r0_eff = math.acosh(math.exp(T_hat))
    slack = math.inf
    for s in sigma2_run.states:
        Theta = spherical_theta(s.t, r0_eff)
        slack = min(slack, Theta - s.u.min(), s.u.max() - Theta)
    assert _verdict(4, "barrier", slack >= -1e-4)


def test_criterion_5_preserved_inequalities(sigma2_run, horoconvex_run):
    h = math.pi / 48
    tol = C_GRID * h * h
    ok = True
    for traj in (sigma2_run, horoconvex_run):
        eps = pinching_epsilon(traj.states[0].geometry, 2)
        margins, tensor_mins, pinches = [], [], []
        for s in traj.states:
            k1 = s.geometry.kappa.min(axis=1)
            k2 = s.geometry.kappa.max(axis=1)
            margins.append(float(k1.min() - 1.0))
            tensor_mins.append(float((k1 - 1.0 - eps * (s.geometry.H - 2)).min()))
            pinches.append(float((k1 / k2).min()))
        ok &= min(margins) >= -tol
        ok &= min(tensor_mins) >= tensor_mins[0] - tol
        ok &= min(pinches) > 0.0
    assert _verdict(5, "preserved_inequalities", ok)


def _rescaled_series(name):
    cfg = FlowConfig(F=name, n=2, m=64, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2), record_every=10)
    traj = run_flow(cfg)
    d0 = gauss_dual(traj.states[0]).dual
    # the dual lands the primal record times in order: records pair by index
    dtraj = run_dual_flow(cfg, d0, t_targets=[s.t for s in traj.states[1:]])
    duals = [d0] + [None] * (len(traj.states) - 1)
    for i, j in enumerate(dtraj.landed, start=1):
        duals[i] = dtraj.states[j]
    return rescale(traj, estimate_Tstar(traj).value, duals=duals)


def _decays(taus, ys):
    fit = fit_exponential(taus, ys)
    logs = np.log(np.clip(ys, np.finfo(float).tiny, None))
    return fit.delta > 0.0 and fit.residual < 0.1 * (logs.max() - logs.min())


def test_criterion_6_rescaled_convergence():
    ok = True
    for name in ("sigma_k:2", "power_mean:0.5", "quotient:2:1", "mean"):
        recs = _rescaled_series(name)
        taus = np.array([r.tau for r in recs])
        osc = np.array([r.u_tilde.max() - r.u_tilde.min() for r in recs])
        fdev = np.array([np.abs(r.F_tilde - 1.0).max() for r in recs])
        wrecs = [r for r in recs if r.w is not None]
        wtau = np.array([r.tau for r in wrecs])
        wdev = np.array([np.abs(r.w + 1.0).max() for r in wrecs])
        ok &= _decays(taus, osc) and _decays(wtau, wdev) and _decays(taus, fdev)
        ok &= np.abs(recs[-1].u_tilde - 1.0).max() < 0.02
        ok &= np.abs(wrecs[-1].w + 1.0).max() < 0.02
    assert _verdict(6, "rescaled_convergence", ok)


def test_criterion_7_speed_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    ok = True
    for n in (2, 3):
        kappa = np.exp(rng.uniform(-1.0, 1.0, size=(100, n)))
        for name in curvfn.builtin_battery(n):
            F = curvfn.make_function(name, n)
            Fv = np.asarray(F.value(kappa))
            grad = np.asarray(F.gradient(kappa))
            euler = np.abs((grad * kappa).sum(axis=1) - Fv).max()
            F_dd = curvfn.invert(curvfn.invert(F))
            double = np.abs(np.asarray(F_dd.value(kappa)) - Fv).max()
            ok &= euler <= 1e-10 and double <= 1e-10
            e1 = max(np.abs(fd_gradient(F.value, k, h=2e-2) - g).max()
                     for k, g in zip(kappa[:20], grad[:20]))
            e2 = max(np.abs(fd_gradient(F.value, k, h=1e-2) - g).max()
                     for k, g in zip(kappa[:20], grad[:20]))
            if e2 > 1e-11:  # otherwise both errors sit at rounding level
                ok &= math.log2(e1 / e2) >= 1.9
    ok &= time.perf_counter() - t0 < 30.0
    assert _verdict(7, "speed_battery", ok)


def test_criterion_8_decay_bound(sigma2_run, horoconvex_run, mean_run):
    ok = True
    for traj in (sigma2_run, horoconvex_run, mean_run):
        rep = decay_check(traj)
        ok &= rep.ok and rep.delta > 0.0
    assert _verdict(8, "decay_bound", ok)
