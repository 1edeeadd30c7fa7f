"""Radial-graph geometry: curvatures, embedding, comparison maps, inball."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualflow import cli, curvfn, hgeom
from dualflow.dualmap import gauss_dual
from dualflow.flow import FlowConfig, FlowState, make_initial, run_both
from dualflow.hgeom import (
    CausalityError,
    Graph,
    embed_arrays,
    geometry_of,
    inradius_circumradius,
)
from dualflow.sphere_grid import make_grid
from oracles import (dense_inradius_scan, euclidean_compare, golden_inball, minkowski_inner,
                     oracle_curve_geometry, oracle_h_geometry, translated_sphere)

COTH1 = 1.3130352854993312  # cosh(1)/sinh(1)


def test_slice_curvatures():
    grid = make_grid(2, 64)
    geo = geometry_of(Graph(grid, np.ones(64)))
    assert np.abs(geo.v - 1.0).max() < 1e-14
    assert np.abs(geo.kappa - COTH1).max() < 1e-12
    assert geo.convex and geo.kappa.min() >= 1.0


def test_slice_scalar_invariants():
    grid = make_grid(3, 48)
    for r in (0.4, 1.7):
        geo = geometry_of(Graph(grid, np.full(48, r)))
        c = 1.0 / math.tanh(r)
        assert np.abs(geo.H - 3.0 * c).max() < 1e-11
        assert np.abs(geo.normA2 - 3.0 * c * c).max() < 1e-11


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), m=st.integers(16, 64), rows=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
def test_curvatures_take_a_sign_per_row(n, m, rows, seed):
    # slope, graph factor and curvatures under an array of signs, one side
    # per row, are each row's under the float sign of its side, bit for bit
    # (a side's NaN included), on a stack and with the sides on a leading axis
    grid = make_grid(n, m)
    rng = np.random.default_rng(seed)
    signs = rng.choice([1.0, -1.0], size=(rows, 1))
    waves = np.cos(np.arange(1, 4)[:, None] * grid.theta)
    u = signs * (rng.uniform(0.3, 2.0, (rows, 1)) + rng.uniform(-0.1, 0.1, (rows, 3)) @ waves)
    d = grid.derivatives(u)
    with np.errstate(all="ignore"):
        got = hgeom._curvatures(u, *d, grid.cot, signs, n)
        primal, dual = (hgeom._curvatures(u, *d, grid.cot, e, n) for e in (1.0, -1.0))
        sides = np.array([1.0, -1.0])[:, None, None]
        stacked = hgeom._curvatures(np.stack([u, u]), *(np.stack([x, x]) for x in d),
                                    grid.cot, sides, n)
    for x, p, q, s in zip(got, primal, dual, stacked):
        side = signs.reshape(signs.shape + (1,) * (x.ndim - 2))
        assert x.tobytes() == np.where(side > 0, p, q).tobytes()
        assert s.tobytes() == np.stack([p, q]).tobytes()


def test_kappa_against_embedding_oracle():
    # independent reference: finite differences of the Minkowski embedding
    grid = make_grid(2, 128)
    u = 1.0 + 0.1 * np.cos(grid.theta)
    geo = geometry_of(Graph(grid, u))
    inner = (grid.theta > 0.15) & (grid.theta < math.pi - 0.15)
    ref = oracle_h_geometry(lambda t: 1.0 + 0.1 * np.cos(t), grid.theta[inner])
    assert np.abs(geo.kappa[inner, 0] - ref["kappa_prof"]).max() < 5e-8
    assert np.abs(geo.kappa[inner, 1] - ref["kappa_ang"]).max() < 5e-8


def test_curve_kappa_against_embedding_oracle():
    errs = []
    for m in (96, 192):
        grid = make_grid(1, m)
        u = 0.9 + 0.08 * np.cos(2 * grid.theta)
        geo = geometry_of(Graph(grid, u))
        kref, _ = oracle_curve_geometry(lambda t: 0.9 + 0.08 * np.cos(2 * t), grid.theta)
        errs.append(np.abs(geo.kappa[:, 0] - kref).max())
    assert errs[0] < 5e-6
    assert errs[0] / errs[1] > 10.0  # grid error, not oracle floor


def test_embedding_point_values():
    grid = make_grid(2, 64)
    g = Graph(grid, np.ones(64))
    X, nu = embed_arrays(g)
    th = grid.theta
    ref = np.stack(
        [np.full(64, 1.5430806348152437),
         1.1752011936438014 * np.sin(th),
         np.zeros(64),
         1.1752011936438014 * np.cos(th)],
        axis=1,
    )
    assert np.abs(X - ref).max() < 1e-12
    # sphere normal has time component sinh r
    assert np.abs(nu[:, 0] - 1.1752011936438014).max() < 1e-12


def test_embedding_constraints_random_graph():
    grid = make_grid(2, 96)
    rng = np.random.default_rng(2)
    u = 1.0 + 0.05 * np.cos(grid.theta) + 0.03 * np.cos(2 * grid.theta)
    g = Graph(grid, u)
    X, nu = embed_arrays(g)
    assert np.abs(minkowski_inner(X, X) + 1.0).max() < 1e-10
    assert np.abs(minkowski_inner(nu, nu) - 1.0).max() < 1e-10
    assert np.abs(minkowski_inner(nu, X)).max() < 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_euclidean_compare_slice(n):
    # on the circle (n = 1) only the profile direction has a ratio
    grid = make_grid(n, 64)
    cmp1 = euclidean_compare(Graph(grid, np.ones(64)))
    assert np.abs(cmp1.r - 0.7615941559557649).max() < 1e-13
    assert np.abs(cmp1.v_e - 1.0).max() < 1e-12
    assert cmp1.h_ratio.shape == (64, n)
    assert np.abs(cmp1.h_ratio - 0.41997434161402614).max() < 1e-10  # 1 / cosh^2 1
    cmp2 = euclidean_compare(Graph(grid, np.full(64, 0.1)))
    assert np.abs(cmp2.r - 0.09966799462495582).max() < 1e-14


def test_euclidean_graph_factor_bounds():
    # the Beltrami image can only flatten gradients: 0 < v_e <= v
    grid = make_grid(2, 96)
    u = 1.0 + 0.08 * np.cos(grid.theta) + 0.04 * np.cos(3 * grid.theta)
    g = Graph(grid, u)
    geo = geometry_of(g)
    cmp = euclidean_compare(g)
    ratio = (cmp.v_e / geo.v) ** 2
    assert ratio.max() <= 1.0 + 1e-13
    assert ratio.min() > 0.1  # uniformly bounded below on a compact graph


def test_inball_sphere():
    grid = make_grid(2, 64)
    res = inradius_circumradius(Graph(grid, np.full(64, 0.8)))
    assert res.rho_minus == pytest.approx(0.8, abs=1e-8)
    assert res.rho_plus == pytest.approx(0.8, abs=1e-8)
    assert abs(res.center_offset) < 1e-6
    assert not res.dense_fallback


@pytest.mark.parametrize("n, m", [(2, 32), (2, 48), (3, 48), (1, 64), (1, 65)])
def test_inball_large_spheres(n, m):
    # where an axis crossing is not a node (the meridian's poles, the odd
    # circle's theta = pi) the nodes beside it lie sinh(r) h apart, and the
    # least distance from an axis point near the crossing is the crossing's
    grid = make_grid(n, m)
    for r in (2.0, 4.0, 8.0, 10.0, 20.0):
        res = inradius_circumradius(Graph(grid, np.full(m, r)))
        assert abs(res.rho_minus - r) <= 1e-9 and abs(res.rho_plus - r) <= 1e-9, r
        assert not res.dense_fallback, r


def test_inball_perturbed_sphere_vs_dense_scan():
    grid = make_grid(2, 128)
    u = 1.0 + 0.1 * np.cos(grid.theta)
    res = inradius_circumradius(Graph(grid, u))
    rm, _, rp, _ = dense_inradius_scan(lambda t: 1.0 + 0.1 * np.cos(np.asarray(t)))
    assert res.rho_minus == pytest.approx(rm, abs=1e-6)
    assert res.rho_plus == pytest.approx(rp, abs=1e-6)
    assert res.rho_plus >= res.rho_minus
    assert 0.9 < res.rho_minus <= res.rho_plus < 1.1
    assert not res.dense_fallback


def test_inball_translated_sphere():
    R, s = 0.8, 0.25
    grid = make_grid(2, 128)
    res = inradius_circumradius(Graph(grid, translated_sphere(grid, R, s)))
    assert res.rho_minus == pytest.approx(R, abs=1e-4)
    assert res.rho_plus == pytest.approx(R, abs=1e-4)
    assert res.center_offset == pytest.approx(s, abs=1e-4)
    assert not res.dense_fallback


def _two_lobes(t):
    # a non-convex body whose inball offset function peaks twice, at
    # s = +-0.306: the coarse scan is not unimodal
    t = np.asarray(t)
    return 1.0 + 0.2 * np.cos(2 * t) - 0.35 * np.cos(4 * t)


def test_inball_two_lobes_takes_dense_scan():
    grid = make_grid(2, 128)
    res = inradius_circumradius(Graph(grid, _two_lobes(grid.theta)))
    # the whole-range scan is off by about 5e-5 at its s spacing of 5.7e-4,
    # so each side is rescanned within 1e-3 of its scan optimum; that
    # rescan is itself good to about 7e-7
    _, s_in, _, s_out = dense_inradius_scan(_two_lobes)
    rm = dense_inradius_scan(_two_lobes, 8000, 1001, s_range=(s_in - 1e-3, s_in + 1e-3))[0]
    rp = dense_inradius_scan(_two_lobes, 8000, 1001, s_range=(s_out - 1e-3, s_out + 1e-3))[2]
    assert res.dense_fallback
    assert res.rho_minus == pytest.approx(rm, abs=2e-6)
    assert res.rho_plus == pytest.approx(rp, abs=2e-6)
    assert abs(res.center_offset) == pytest.approx(abs(s_in), abs=1e-3)


def test_stacked_inball_search_equals_one_state_search():
    # the primal records of a sigma_k:2 both-mode run, with a sphere, a
    # translated sphere and a two-lobe profile whose coarse scan is not
    # unimodal mixed in, all on one m = 48 grid: the stacked search scans
    # and zooms them in blocks, and each state must get bit for bit what it
    # gets alone
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2))
    grid = make_grid(2, 48)
    F = curvfn.make_function(cfg.F, cfg.n)
    state0 = FlowState(0.0, make_initial(cfg.initial, cfg.initial_params, grid), grid, F, 1.0)
    traj, _ = run_both(cfg, state0, gauss_dual(state0).dual)
    assert traj.failure is None and len(traj.states) == 40
    gs = [Graph(grid, s.u) for s in traj.states]
    gs[3:3] = [Graph(grid, np.full(48, 0.8))]
    gs[17:17] = [Graph(grid, _two_lobes(grid.theta))]
    gs.append(Graph(grid, translated_sphere(grid, 0.8, 0.25)))
    assert len(gs) > 2 * (hgeom._BLOCK // (2 * hgeom._SCAN * grid.m))
    stacked = inradius_circumradius(gs)
    assert len(stacked) == len(gs)
    for g, res in zip(gs, stacked):
        assert res == inradius_circumradius(g)
    assert [res.dense_fallback for res in stacked].count(True) == 1
    assert stacked[17].dense_fallback
    assert inradius_circumradius([]) == []


def test_inball_zoom_chunks_leave_each_result_alone(monkeypatch):
    # with _BLOCK cut to two states' zoom arrays, every coarse scan runs
    # alone and the zoom runs in chunks of two states, so a sphere, a
    # translated sphere, a perturbed sphere and a two-lobe profile share
    # chunks differently: each state still gets bit for bit its result
    grid = make_grid(2, 48)
    gs = [Graph(grid, u) for u in (np.full(48, 0.8), translated_sphere(grid, 0.8, 0.25),
                                   1.0 + 0.1 * np.cos(grid.theta), _two_lobes(grid.theta),
                                   np.full(48, 4.0))]
    alone = [inradius_circumradius(g) for g in gs]
    monkeypatch.setattr(hgeom, "_BLOCK", 2 * 2 * grid.m)
    assert inradius_circumradius(gs) == alone
    assert inradius_circumradius(gs[1:]) == alone[1:]


# the primal records of five both-mode runs: the cli_both datum, an n = 3
# ellipsoid, the k = 3 perturbation, an n = 2 random Fourier datum, and the
# n = 1 random Fourier run of seed 2 that ends in a convexity abort
_ZOOM_DATA = {
    "cli_both": ("sigma_k:2", 2, 48, "perturbed_sphere", (1.0, 0.1, 2), 0),
    "ellipsoid_n3": ("sigma_k:2", 3, 48, "ellipsoid", (0.6, 0.8), 0),
    "k3": ("sigma_k:2", 2, 48, "perturbed_sphere", (1.0, 0.1, 3), 0),
    "fourier_n2": ("sigma_k:2", 2, 48, "random_fourier", (1.0, 0.05, 4), 1),
    "fourier_n1": ("mean", 1, 80, "random_fourier", (1.0, 0.05, 4), 2),
}


@functools.lru_cache(maxsize=None)
def _zoom_states(name):
    F, n, m, initial, params, seed = _ZOOM_DATA[name]
    cfg = FlowConfig(F=F, n=n, m=m, initial=initial, initial_params=params, seed=seed)
    state0 = cli._initial_state(cfg)
    traj, _ = run_both(cfg, state0, gauss_dual(state0).dual)
    return [Graph(state0.grid, s.u) for s in traj.states]


@pytest.mark.parametrize("name", list(_ZOOM_DATA))
def test_inball_zoom_closes_each_bracket_in_few_rounds(name, monkeypatch):
    # every state alone: its coarse scan is one refine call (and its dense
    # scan one more), every zoom round one; no state takes more than 16
    # rounds, where the golden-section search took 39, and the coarse scan's
    # verdict (dense_fallback) is the former search's
    gs = _zoom_states(name)
    calls, refine = [0], hgeom.refine_extremum
    monkeypatch.setattr(hgeom, "refine_extremum",
                        lambda *a, **k: calls.__setitem__(0, calls[0] + 1) or refine(*a, **k))
    rounds = []
    for g, ref in zip(gs, golden_inball(gs, math.inf)):  # the coarse scans alone
        calls[0] = 0
        res = inradius_circumradius(g)
        assert res.dense_fallback == ref.dense_fallback
        rounds.append(calls[0] - 1 - res.dense_fallback)
    assert len(gs) > 20 and max(rounds) <= 16, rounds


@pytest.mark.parametrize("name", ["cli_both", "ellipsoid_n3"])
def test_inball_zoom_matches_a_fine_golden_search(name):
    # the golden-section search run to a bracket of 1e-14 is the reference:
    # on smooth optima and on kinks where two lobes or a cap meet, each
    # radius lands within 1e-12 of it
    gs = _zoom_states(name)
    for res, ref in zip(inradius_circumradius(gs), golden_inball(gs, 1e-14)):
        assert abs(res.rho_minus - ref.rho_minus) <= 1e-12
        assert abs(res.rho_plus - ref.rho_plus) <= 1e-12


@pytest.mark.parametrize("name", ["k3", "fourier_n2", "fourier_n1"])
def test_inball_zoom_stays_near_the_golden_search(name):
    # against the golden-section search at the package's own _TOL, each
    # radius moves by 1e-8 at most: the refined score of the n = 1 run jumps
    # by up to about 1e-8 where a discrete local extremum of a distance row
    # appears; the golden search ends on the jump's upper edge, the zoom at
    # the smooth optimum beside it
    gs = _zoom_states(name)
    for res, ref in zip(inradius_circumradius(gs), golden_inball(gs, hgeom._TOL)):
        assert abs(res.rho_minus - ref.rho_minus) <= 1e-8
        assert abs(res.rho_plus - ref.rho_plus) <= 1e-8


def test_nonconvex_flagged():
    grid = make_grid(2, 96)
    u = 1.0 + 0.45 * np.cos(4 * grid.theta)
    geo = geometry_of(Graph(grid, u))
    assert not geo.convex


def test_graph_validates_each_side():
    # one graph type for both sides: eps = +1 a radius, eps = -1 a stored
    # de Sitter eigentime; each side keeps its own checks and messages
    grid = make_grid(2, 48)
    cases = (
        (np.ones(47), 1.0, ValueError, "profile shape (47,) does not match grid m=48"),
        (np.full(48, -0.3), 1.0, ValueError, "radial profile must be finite and positive"),
        (np.full(48, np.nan), -1.0, ValueError, "eigentime profile must be finite"),
        (np.full(48, 0.3), -1.0, ValueError,
         "stored duals lie below the equatorial slice (u_star < 0)"),
        (-0.2 - 4.5 * np.sin(grid.theta / 2.0) ** 2, -1.0, CausalityError,
         "graph is not spacelike: |D u_star| = 1.144059 at node 11"),
    )
    for u, eps, error, message in cases:
        with pytest.raises(error) as info:
            Graph(grid, u, eps)
        assert str(info.value) == message
    d = Graph(grid, np.full(48, -0.7), -1.0)
    assert d.u_star is d.u
    assert d.geometry is d.geometry  # built once, on first read
    assert np.abs(d.geometry.kappa - math.tanh(0.7)).max() < 1e-12
    assert hgeom.HyperbolicGraph is Graph
