"""Radial-graph geometry: curvatures, embedding, comparison maps, inball."""

import math

import numpy as np
import pytest

from dualflow.hgeom import (
    HyperbolicGraph,
    MinkowskiPoint,
    embed,
    embed_arrays,
    euclidean_compare,
    geometry_of,
    inradius_circumradius,
    minkowski_inner,
)
from dualflow.sphere_grid import make_grid
from oracles import dense_inradius_scan, oracle_curve_geometry, oracle_h_geometry

COTH1 = 1.3130352854993312  # cosh(1)/sinh(1)


def test_slice_curvatures():
    grid = make_grid(2, 64)
    geo = geometry_of(HyperbolicGraph(grid, np.ones(64)))
    assert np.abs(geo.v - 1.0).max() < 1e-14
    assert np.abs(geo.kappa - COTH1).max() < 1e-12
    assert geo.convex and geo.horoconvex


def test_slice_scalar_invariants():
    grid = make_grid(3, 48)
    for r in (0.4, 1.7):
        geo = geometry_of(HyperbolicGraph(grid, np.full(48, r)))
        c = 1.0 / math.tanh(r)
        assert np.abs(geo.H - 3.0 * c).max() < 1e-11
        assert np.abs(geo.normA2 - 3.0 * c * c).max() < 1e-11


def test_kappa_against_embedding_oracle():
    # independent reference: finite differences of the Minkowski embedding
    grid = make_grid(2, 128)
    u = 1.0 + 0.1 * np.cos(grid.theta)
    geo = geometry_of(HyperbolicGraph(grid, u))
    inner = (grid.theta > 0.15) & (grid.theta < math.pi - 0.15)
    ref = oracle_h_geometry(lambda t: 1.0 + 0.1 * np.cos(t), grid.theta[inner])
    assert np.abs(geo.kappa[inner, 0] - ref["kappa_prof"]).max() < 5e-8
    assert np.abs(geo.kappa[inner, 1] - ref["kappa_ang"]).max() < 5e-8


def test_curve_kappa_against_embedding_oracle():
    errs = []
    for m in (96, 192):
        grid = make_grid(1, m)
        u = 0.9 + 0.08 * np.cos(2 * grid.theta)
        geo = geometry_of(HyperbolicGraph(grid, u))
        kref, _ = oracle_curve_geometry(lambda t: 0.9 + 0.08 * np.cos(2 * t), grid.theta)
        errs.append(np.abs(geo.kappa[:, 0] - kref).max())
    assert errs[0] < 5e-6
    assert errs[0] / errs[1] > 10.0  # grid error, not oracle floor


def test_embedding_point_values():
    grid = make_grid(2, 64)
    g = HyperbolicGraph(grid, np.ones(64))
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
    g = HyperbolicGraph(grid, u)
    X, nu = embed_arrays(g)
    assert np.abs(minkowski_inner(X, X) + 1.0).max() < 1e-10
    assert np.abs(minkowski_inner(nu, nu) - 1.0).max() < 1e-10
    assert np.abs(minkowski_inner(nu, X)).max() < 1e-10
    p, q = embed(g, 5)
    assert isinstance(p, MinkowskiPoint) and p.causal_type == "hyperbolic"
    assert isinstance(q, MinkowskiPoint) and q.causal_type == "desitter"


def test_minkowski_point_validates():
    with pytest.raises(ValueError):
        MinkowskiPoint(np.array([0.0, 1.0, 0.0, 0.0]), "hyperbolic")  # spacelike vector
    with pytest.raises(ValueError):
        MinkowskiPoint(np.array([math.cosh(0.3), 0.0, 0.0, math.sinh(0.3)]), "desitter")
    MinkowskiPoint(np.array([math.cosh(0.3), 0.0, 0.0, math.sinh(0.3)]), "hyperbolic")


def test_euclidean_compare_slice():
    grid = make_grid(2, 64)
    cmp1 = euclidean_compare(HyperbolicGraph(grid, np.ones(64)))
    assert np.abs(cmp1.r - 0.7615941559557649).max() < 1e-13
    assert np.abs(cmp1.v_e - 1.0).max() < 1e-12
    assert np.abs(cmp1.h_ratio - 0.41997434161402614).max() < 1e-10
    cmp2 = euclidean_compare(HyperbolicGraph(grid, np.full(64, 0.1)))
    assert np.abs(cmp2.r - 0.09966799462495582).max() < 1e-14


def test_euclidean_graph_factor_bounds():
    # the Beltrami image can only flatten gradients: 0 < v_e <= v
    grid = make_grid(2, 96)
    u = 1.0 + 0.08 * np.cos(grid.theta) + 0.04 * np.cos(3 * grid.theta)
    g = HyperbolicGraph(grid, u)
    geo = geometry_of(g)
    cmp = euclidean_compare(g)
    ratio = (cmp.v_e / geo.v) ** 2
    assert ratio.max() <= 1.0 + 1e-13
    assert ratio.min() > 0.1  # uniformly bounded below on a compact graph


def test_inball_sphere():
    grid = make_grid(2, 64)
    res = inradius_circumradius(HyperbolicGraph(grid, np.full(64, 0.8)))
    assert res.rho_minus == pytest.approx(0.8, abs=1e-8)
    assert res.rho_plus == pytest.approx(0.8, abs=1e-8)
    assert abs(res.center_offset) < 1e-6
    assert not res.dense_fallback


def test_inball_perturbed_sphere_vs_dense_scan():
    grid = make_grid(2, 128)
    u = 1.0 + 0.1 * np.cos(grid.theta)
    res = inradius_circumradius(HyperbolicGraph(grid, u))
    rm, _, rp, _ = dense_inradius_scan(lambda t: 1.0 + 0.1 * np.cos(np.asarray(t)))
    assert res.rho_minus == pytest.approx(rm, abs=1e-6)
    assert res.rho_plus == pytest.approx(rp, abs=1e-6)
    assert res.rho_plus >= res.rho_minus
    assert 0.9 < res.rho_minus <= res.rho_plus < 1.1
    assert not res.dense_fallback


def test_inball_translated_sphere():
    # graph of a sphere of radius R centered at distance s along the axis,
    # from cosh R = cosh u cosh s - sinh u sinh s cos(theta)
    R, s = 0.8, 0.25
    grid = make_grid(2, 128)
    A, B = math.cosh(s), math.sinh(s) * np.cos(grid.theta)
    C = np.sqrt(A * A - B * B)
    u = np.arctanh(B / A) + np.arccosh(math.cosh(R) / C)
    res = inradius_circumradius(HyperbolicGraph(grid, u))
    assert res.rho_minus == pytest.approx(R, abs=1e-4)
    assert res.rho_plus == pytest.approx(R, abs=1e-4)
    assert res.center_offset == pytest.approx(s, abs=1e-4)
    assert not res.dense_fallback


def test_inball_two_lobes_takes_dense_scan():
    # a non-convex body whose inball offset function peaks twice, at
    # s = +-0.306: the coarse scan is not unimodal
    def prof(t):
        t = np.asarray(t)
        return 1.0 + 0.2 * np.cos(2 * t) - 0.35 * np.cos(4 * t)

    grid = make_grid(2, 128)
    res = inradius_circumradius(HyperbolicGraph(grid, prof(grid.theta)))
    # the whole-range scan is off by about 5e-5 at its s spacing of 5.7e-4,
    # so each side is rescanned within 1e-3 of its scan optimum; that
    # rescan is itself good to about 7e-7
    _, s_in, _, s_out = dense_inradius_scan(prof)
    rm = dense_inradius_scan(prof, 8000, 1001, s_range=(s_in - 1e-3, s_in + 1e-3))[0]
    rp = dense_inradius_scan(prof, 8000, 1001, s_range=(s_out - 1e-3, s_out + 1e-3))[2]
    assert res.dense_fallback
    assert res.rho_minus == pytest.approx(rm, abs=2e-6)
    assert res.rho_plus == pytest.approx(rp, abs=2e-6)
    assert abs(res.center_offset) == pytest.approx(abs(s_in), abs=1e-3)


def test_nonconvex_flagged():
    grid = make_grid(2, 96)
    u = 1.0 + 0.45 * np.cos(4 * grid.theta)
    geo = geometry_of(HyperbolicGraph(grid, u))
    assert not geo.convex
