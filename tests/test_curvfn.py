"""Curvature function families: values, derivatives, duals, concavity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualflow import curvfn
from dualflow.curvfn import (
    CONCAVE_DEGENERATE,
    DomainError,
    NOT_CONCAVE,
    STRICTLY_CONCAVE,
    check_strict_concavity,
    elementary_symmetric,
    invert,
    make_function,
)
from oracles import brute_esp, fd_gradient, fd_hessian


def test_sigma2_n2_value():
    F = make_function("sigma_k:2", 2)
    assert float(F.value([1.0, 4.0])) == pytest.approx(2.0, abs=1e-14)


def test_mean_normalization():
    F = make_function("mean", 3)
    assert float(F.value([1.0, 1.0, 1.0])) == pytest.approx(1.0, abs=1e-15)


def test_sigma2_n3_normalization():
    # raw e_2(1,1,1) = 3, so the normalized square root must divide by sqrt 3
    assert brute_esp([1.0, 1.0, 1.0], 2) == 3.0
    F = make_function("sigma_k:2", 3)
    assert float(F.value([1.0, 1.0, 1.0])) == pytest.approx(1.0, abs=1e-14)


def test_sigma_n_gradient_symmetric_point():
    for n in (2, 3, 4):
        F = make_function(f"sigma_k:{n}", n)
        g = np.asarray(F.gradient(np.ones(n)))
        assert np.abs(g - 1.0 / n).max() < 1e-13


def test_mean_hessian_vanishes():
    F = make_function("mean", 3)
    H = np.asarray(F.hessian([0.7, 1.9, 3.2]))
    assert np.abs(H).max() < 1e-14


def test_power_mean_half_value():
    F = make_function("power_mean:0.5", 2)
    assert float(F.value([1.0, 4.0])) == pytest.approx(2.25, abs=1e-14)


def test_sigma_n_self_dual():
    F = make_function("sigma_k:3", 3)
    Fd = invert(F)
    rng = np.random.default_rng(3)
    for k in np.exp(rng.uniform(-1.0, 1.0, size=(20, 3))):
        assert float(Fd.value(k)) == pytest.approx(float(F.value(k)), rel=1e-13)


def test_power_mean_dual_is_negated_exponent():
    # dual of the arithmetic mean is the harmonic mean
    Fd = invert(make_function("power_mean:1.0", 2))
    assert float(Fd.value([1.0, 3.0])) == pytest.approx(1.5, rel=1e-13)


def test_mean_dual_on_diagonal():
    Fd = invert(make_function("mean", 2))
    assert float(Fd.value([2.0, 2.0])) == pytest.approx(2.0, rel=1e-13)


def test_double_inverse_is_identity():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        pts = np.exp(rng.uniform(-1.0, 1.0, size=(25, n)))
        for name in curvfn.builtin_battery(n):
            F = make_function(name, n)
            Fdd = invert(invert(F))
            for k in pts:
                assert float(Fdd.value(k)) == pytest.approx(float(F.value(k)), rel=1e-12)


def test_euler_relation():
    # 1-homogeneity: sum_i F_i kappa_i = F
    rng = np.random.default_rng(7)
    for n in (2, 3):
        pts = np.exp(rng.uniform(-1.0, 1.0, size=(25, n)))
        for name in curvfn.builtin_battery(n):
            F = make_function(name, n)
            for k in pts:
                lhs = float(np.asarray(F.gradient(k)) @ k)
                assert lhs == pytest.approx(float(F.value(k)), rel=1e-11, abs=1e-13)


# random positive principal curvatures, log-uniform over [e^-3, e^3], n in {1, 2, 3};
# the wider range than the fixed points above is checked to rel 1e-10
KAPPA = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
).map(lambda logs: np.exp(np.array(logs)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=KAPPA)
def test_double_inverse_is_identity_random_kappa(k):
    n = k.size
    for name in curvfn.builtin_battery(n):
        F = make_function(name, n)
        Fdd = invert(invert(F))
        assert float(Fdd.value(k)) == pytest.approx(float(F.value(k)), rel=1e-10)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=KAPPA)
def test_euler_relation_random_kappa(k):
    n = k.size
    for name in curvfn.builtin_battery(n):
        F = make_function(name, n)
        lhs = float(np.asarray(F.gradient(k)) @ k)
        assert lhs == pytest.approx(float(F.value(k)), rel=1e-10)


def test_gradient_against_finite_differences():
    rng = np.random.default_rng(19)
    for n in (2, 3):
        pts = np.exp(rng.uniform(-0.7, 0.7, size=(4, n)))
        for name in curvfn.builtin_battery(n):
            F = make_function(name, n)
            for k in pts:
                ref = fd_gradient(lambda x: float(F.value(x)), k)
                got = np.asarray(F.gradient(k))
                assert np.abs(got - ref).max() < 5e-9


def test_hessian_against_finite_differences():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        k = np.exp(rng.uniform(-0.5, 0.5, size=n))
        for name in ("sigma_k:2", "power_mean:-0.5", "norm_A", "quotient:2:1"):
            F = make_function(name, n)
            ref = fd_hessian(lambda x: float(F.value(x)), k)
            got = np.asarray(F.hessian(k))
            assert np.abs(got - ref).max() < 5e-6


def test_mean_concavity_degenerate():
    assert check_strict_concavity(make_function("mean", 3), [0.5, 1.0, 2.0]) == CONCAVE_DEGENERATE


def test_sigma2_strictly_concave():
    assert check_strict_concavity(make_function("sigma_k:2", 2), [1.0, 2.0]) == STRICTLY_CONCAVE


def test_power_mean_half_strictly_concave():
    verdict = check_strict_concavity(make_function("power_mean:0.5", 3), [1.0, 2.0, 3.0])
    assert verdict == STRICTLY_CONCAVE


def test_inverse_of_convex_root_not_concave():
    # |A| is convex, so its normalization cannot be concave off the diagonal
    assert check_strict_concavity(make_function("norm_A", 2), [1.0, 3.0]) == NOT_CONCAVE


def test_elementary_symmetric_brute():
    assert elementary_symmetric([1.0, 2.0, 3.0], 2) == pytest.approx(11.0, abs=1e-13)
    assert elementary_symmetric([0.3, 7.0], 0) == 1.0
    assert elementary_symmetric([1.0, 1.0, 1.0], 3) == pytest.approx(1.0, abs=1e-15)
    rng = np.random.default_rng(5)
    k = np.exp(rng.uniform(-1, 1, size=5))
    for j in range(6):
        assert elementary_symmetric(k, j) == pytest.approx(brute_esp(k, j), rel=1e-12)


def test_battery_all_normalized():
    for n in (1, 2, 3):
        names = curvfn.builtin_battery(n)
        assert len(set(names)) == len(names)
        for name in names:
            F = make_function(name, n)
            assert float(F.value(np.ones(n))) == pytest.approx(1.0, rel=1e-12)


def test_domain_errors():
    F = make_function("sigma_k:2", 2)
    with pytest.raises(DomainError):
        F.value([1.0, -0.5])
    with pytest.raises(DomainError):
        F.value([1.0, 2.0, 3.0])
    with pytest.raises(Exception):
        make_function("power_mean:1.5", 2)
