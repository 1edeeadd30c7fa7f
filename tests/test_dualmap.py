"""Gauss-map duality: forward map, dual geometry, inversion, verification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualflow.dualmap import (
    CausalityError,
    DualityBrokenError,
    dual_to_primal,
    gauss_dual,
    verify_duality,
)
from dualflow import curvfn
from dualflow.dualmap import _gauss_map
from dualflow.flow import FlowConfig, FlowState, make_initial, run_both
from dualflow.hgeom import Graph, embed_arrays, geometry_of
from dualflow.sphere_grid import make_grid, refine_extremum
from oracles import boosted_slice, oracle_dual_point, oracle_ds_geometry, translated_sphere


def test_convention_flag():
    # one light-cone switch: the normal of a sphere of radius r has
    # eigentime +r and is stored as the slice u* = -r, below the equator;
    # switching back recovers the sphere
    grid = make_grid(2, 32)
    dual = gauss_dual(Graph(grid, np.full(32, 0.6))).dual
    assert dual.eps == -1.0 and np.all(dual.u_star < 0.0)
    assert np.abs(dual.u_star + 0.6).max() < 1e-12
    back = dual_to_primal(dual)
    assert back.eps == 1.0 and np.abs(back.u - 0.6).max() < 1e-12


def test_sphere_dual_is_negated_slice():
    grid = make_grid(2, 64)
    pair = gauss_dual(Graph(grid, np.full(64, 0.8)))
    assert np.abs(pair.dual.u_star + 0.8).max() < 1e-12
    # cross-check one point against the embedding-level normal
    us, _ = oracle_dual_point(lambda t: np.full_like(np.asarray(t, float), 0.8), 0.7)
    assert us == pytest.approx(-0.8, abs=1e-12)


def test_sphere_dual_parametric_in_radius():
    grid = make_grid(2, 48)
    for r in (0.3, 1.0, 2.1):
        pair = gauss_dual(Graph(grid, np.full(48, r)))
        assert np.abs(pair.dual.u_star + r).max() < 1e-11


def test_perturbed_sphere_dual_relations():
    # extrema swap under duality; located off-grid by quartic refinement
    grid = make_grid(2, 64)
    u = 1.0 + 0.1 * np.cos(grid.theta)
    pair = gauss_dual(Graph(grid, u))
    us = pair.dual.u_star
    slope = np.abs(grid.derivatives(us)[0]) / np.cosh(us)
    assert slope.max() < 1.0
    _, umax = refine_extremum(grid, u, "max")
    _, umin = refine_extremum(grid, u, "min")
    _, usmax = refine_extremum(grid, us, "max")
    _, usmin = refine_extremum(grid, us, "min")
    assert abs(umax + usmin) < 1e-9
    assert abs(umin + usmax) < 1e-9


def test_slice_dual_curvatures():
    grid = make_grid(2, 64)
    geo = geometry_of(Graph(grid, np.full(64, -0.7), -1.0))
    assert np.abs(geo.kappa - math.tanh(0.7)).max() < 1e-12
    ref = oracle_ds_geometry(lambda t: np.full_like(np.asarray(t, float), -0.7), [0.9])
    assert ref["kappa_prof"][0] == pytest.approx(math.tanh(0.7), abs=1e-9)


def test_near_equator_slice_is_almost_flat():
    # the limiting slice tau = 0 is totally geodesic; kappa ~ tanh(eps)
    grid = make_grid(2, 48)
    for eps in (1e-4, 1e-7):
        geo = geometry_of(Graph(grid, np.full(48, -eps), -1.0))
        assert np.abs(geo.kappa).max() < 2.0 * eps


def test_kappa_product_refinement():
    errs = []
    for m in (64, 128):
        grid = make_grid(2, m)
        u = 1.0 + 0.1 * np.cos(grid.theta)
        rep = verify_duality(gauss_dual(Graph(grid, u)))
        errs.append(rep.max_kappa_product_error)
    assert errs[0] < 2e-7
    assert errs[0] / errs[1] > 12.0


def test_verify_duality_sphere_exact():
    grid = make_grid(2, 64)
    rep = verify_duality(gauss_dual(Graph(grid, np.full(64, 1.2))))
    assert rep.worst() < 1e-10


def test_verify_duality_fourth_order():
    errs = []
    for m in (64, 128):
        grid = make_grid(2, m)
        u = 1.0 + 0.1 * np.cos(grid.theta)
        errs.append(verify_duality(gauss_dual(Graph(grid, u))).worst())
    assert errs[0] / errs[1] >= 12.0


def test_stacked_verify_duality_equals_one_pair():
    # the 40 primal records of the sigma_k:2 both-mode run (n = 2, m = 48)
    # and seeded random Fourier curves on the circle grid (n = 1, m = 64):
    # one stacked call gives each pair, bit for bit, the report it gets alone
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2))
    grid = make_grid(2, 48)
    F = curvfn.make_function(cfg.F, cfg.n)
    state0 = FlowState(0.0, make_initial(cfg.initial, cfg.initial_params, grid), grid, F, 1.0)
    traj, _ = run_both(cfg, state0, gauss_dual(state0).dual)
    assert len(traj.states) == 40
    circle = make_grid(1, 64)
    curves = [Graph(circle, make_initial("random_fourier", (1.0, 0.05, 4), circle, seed))
              for seed in range(8)]
    for pairs in ([gauss_dual(s) for s in traj.states], [gauss_dual(g) for g in curves]):
        stacked = verify_duality(pairs)
        assert len(stacked) == len(pairs)
        assert len({rep.worst() for rep in stacked}) > 1
        for pair, rep in zip(pairs, stacked):
            assert rep == verify_duality(pair)
    assert verify_duality([]) == []


def test_stacked_gauss_dual_equals_one_graph():
    # the 40 primal records of the sigma_k:2 both-mode run (n = 2, m = 48)
    # and 16 seeded random Fourier curves on the circle grid at m = 256, in
    # one stack with seed 8, whose first samples wrap below theta = 0, and
    # seed 18, whose last wrap above 2 pi: one stacked map gives each graph,
    # bit for bit, the pair it gets alone, and so does its inverse
    cfg = FlowConfig(F="sigma_k:2", n=2, m=48, initial="perturbed_sphere",
                     initial_params=(1.0, 0.1, 2))
    grid = make_grid(2, 48)
    F = curvfn.make_function(cfg.F, cfg.n)
    state0 = FlowState(0.0, make_initial(cfg.initial, cfg.initial_params, grid), grid, F, 1.0)
    traj, _ = run_both(cfg, state0, gauss_dual(state0).dual)
    assert len(traj.states) == 40
    circle = make_grid(1, 256)
    curves = [Graph(circle, make_initial("random_fourier", (1.0, 0.05, 4), circle, seed))
              for seed in range(3, 19)]
    for graphs in (traj.states, curves):
        stacked = gauss_dual(graphs)
        assert len(stacked) == len(graphs)
        for g, pair in zip(graphs, stacked):
            alone = gauss_dual(g)
            assert pair.primal is g and pair.dual.eps == -1.0
            assert np.array_equal(pair.matching, alone.matching)
            assert np.array_equal(pair.u_star_nodes, alone.u_star_nodes)
            assert np.array_equal(pair.dual.u, alone.dual.u)
        back = dual_to_primal([pair.dual for pair in stacked])
        assert len(back) == len(stacked)
        for pair, b in zip(stacked, back):
            assert b.eps == 1.0 and np.array_equal(b.u, dual_to_primal(pair.dual).u)
    assert stacked[5].matching[0] > 0.0 > stacked[15].matching[0]
    assert gauss_dual([]) == [] and dual_to_primal([]) == []
    # one graph that is not strictly convex breaks the stack
    grid = make_grid(2, 64)
    dimpled = Graph(grid, make_initial("perturbed_sphere", (0.3, 0.28, 6), grid))
    with pytest.raises(DualityBrokenError):
        gauss_dual([Graph(grid, np.full(64, 0.8)), dimpled])


def test_horoconvex_dual_has_small_curvature():
    grid = make_grid(2, 96)
    u = 1.2 + 0.05 * np.cos(2 * grid.theta)
    pair = gauss_dual(Graph(grid, u))
    geo = geometry_of(pair.dual)
    assert geo.kappa.max() <= 1.0 + 1e-10


def test_involution_round_trip():
    errs = []
    for m in (64, 128):
        grid = make_grid(2, m)
        u = 1.0 + 0.1 * np.cos(grid.theta)
        back = dual_to_primal(gauss_dual(Graph(grid, u)).dual)
        errs.append(np.abs(back.u - u).max())
    assert errs[0] < 5e-8
    assert errs[0] / errs[1] > 10.0


def test_involution_circle():
    grid = make_grid(1, 128)
    u = 0.9 + 0.06 * np.cos(3 * grid.theta)
    back = dual_to_primal(gauss_dual(Graph(grid, u)).dual)
    assert np.abs(back.u - u).max() < 5e-5


def test_desitter_graph_validation():
    grid = make_grid(2, 48)
    with pytest.raises(ValueError):
        Graph(grid, np.full(48, 0.3), -1.0)  # stored duals sit below the equator
    # a steep profile violates the spacelike bound
    with pytest.raises(CausalityError):
        Graph(grid, -0.2 - 1.5 * np.sin(grid.theta / 2.0) ** 2 * 3.0, -1.0)


def test_gauss_dual_rejects_a_primal_not_strictly_convex():
    # 0.3 + 0.28 cos 6 theta dimples inward between its lobes: no dual
    # graph of its normals exists
    grid = make_grid(2, 64)
    u = make_initial("perturbed_sphere", (0.3, 0.28, 6), grid)
    with pytest.raises(DualityBrokenError, match="not strictly convex"):
        gauss_dual(Graph(grid, u))


def test_dual_of_offcenter_sphere():
    # translated sphere: dual eigentime extrema still reflect u extrema
    grid = make_grid(2, 128)
    u = translated_sphere(grid, 0.8, 0.2)
    pair = gauss_dual(Graph(grid, u))
    assert verify_duality(pair).worst() < 1e-7
    _, umax = refine_extremum(grid, u, "max")
    _, usmin = refine_extremum(grid, pair.dual.u_star, "min")
    assert abs(umax + usmin) < 1e-8


@pytest.mark.parametrize("seed", [8, 18])
def test_circle_gauss_map_on_fine_grid(seed):
    # on these draws the normal angle at theta = 0 moves by more than
    # three grid spacings, so wrapping three samples across the period
    # left theta = 0 outside the resampled interval
    grid = make_grid(1, 256)
    u = make_initial("random_fourier", (1.0, 0.05, 4), grid, seed=seed)
    pair = gauss_dual(Graph(grid, u))
    assert abs(pair.matching[0]) > 3.0 * grid.h
    h4 = grid.h**4
    assert np.abs(dual_to_primal(pair.dual).u - u).max() <= 0.1 * h4
    assert verify_duality(pair).worst() <= 20.0 * h4


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       n=st.sampled_from([1, 2]), m=st.sampled_from([64, 128, 256]))
def test_gauss_image_is_an_involution_at_fourth_order(seed, n, m):
    # any convex random_fourier profile: the dual map and its inverse
    # agree with the primal, and the duality identities hold, at O(h^4)
    grid = make_grid(n, m)
    u = make_initial("random_fourier", (1.0, 0.05, 4), grid, seed=seed)
    pair = gauss_dual(Graph(grid, u))
    h4 = grid.h**4
    assert np.abs(dual_to_primal(pair.dual).u - u).max() <= 0.1 * h4
    assert verify_duality(pair).worst() <= 20.0 * h4


@pytest.mark.parametrize("n", [1, 2])
def test_matching_angle_is_the_unwrapped_normal_direction(n):
    # the angle read in each node's own frame, theta - arctan(slope / eps C),
    # is np.unwrap of the global normal's direction on both sides, also on
    # the circle's seeds 8 and 18 at m = 256, whose primal normals wrap
    # past 2 pi and below 0
    tol, wrapped = 4.0 * np.spacing(2.0 * math.pi), []
    for m in (64, 128, 256):
        grid = make_grid(n, m)
        for seed in (3, 8, 11, 18):
            pair = gauss_dual(Graph(grid, make_initial("random_fourier", (1.0, 0.05, 4), grid,
                                                       seed=seed)))
            _, nu = embed_arrays(pair.primal)
            ref = np.unwrap(np.arctan2(nu[:, 1], nu[:, -1]))
            assert np.abs(pair.matching - ref).max() <= tol
            if ref[0] < 0.0 or ref[-1] >= 2.0 * math.pi:
                wrapped.append((m, seed))
            # the dual's normal, sinh and cosh traded and eps = -1
            us, geo = pair.dual.u, pair.dual.geometry
            c, slope, v = -np.sinh(us), geo.slope, geo.v
            ref = np.unwrap(np.arctan2((c * grid.sin - slope * grid.cos) / v,
                                       (c * grid.cos + slope * grid.sin) / v))
            assert np.abs(_gauss_map([pair.dual])[1][0] - ref).max() <= tol
    assert {(256, 8), (256, 18)} <= set(wrapped) if n == 1 else not wrapped


@pytest.mark.parametrize("n", [1, 2, 3])
def test_offcenter_sphere_maps_to_its_boosted_slice(n):
    # a sphere of radius 1 about a point 0.2 along the axis has nonzero
    # slope, and its Gauss image is a boosted slice: the map and its
    # inverse meet the closed forms at fourth order
    R, s = 1.0, 0.2
    fwd, back = [], []
    for m in (48, 96, 192):
        grid = make_grid(n, m)
        u, us = translated_sphere(grid, R, s), boosted_slice(grid, R, s)
        fwd.append(np.abs(gauss_dual(Graph(grid, u)).dual.u - us).max())
        back.append(np.abs(dual_to_primal(Graph(grid, us, -1.0)).u - u).max())
    for errs in (fwd, back):
        assert errs[1] < 5e-8
        assert 0.5 * math.log2(errs[0] / errs[2]) >= 3.3
