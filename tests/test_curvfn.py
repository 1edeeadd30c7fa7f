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
    invert,
    make_function,
)
from oracles import (brute_chs, brute_esp, elementary_symmetric, fd_gradient, fd_hessian,
                     power_mean_gradient, power_mean_hessian, symmetric_by_full_recursion)


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
        extra = ["power_mean:0.0", f"quotient:{n}:1"]
        for name in dict.fromkeys(curvfn.builtin_battery(n) + extra):
            F = make_function(name, n)
            ref = fd_hessian(lambda x: float(F.value(x)), k)
            got = np.asarray(F.hessian(k))
            assert np.abs(got - ref).max() < 5e-6


# n in 1..4 and kappa log-uniform over [e^-3, e^3], for the exact derivative checks
KAPPA_4 = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
).map(lambda logs: np.exp(np.array(logs)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(k=KAPPA_4)
def test_esp_jet_matches_brute_derivatives(k):
    # dH_d/dk_i = H_{d-1}(k without i); d2H_d/dk_i dk_j = H_{d-2}(k without i, j), 0 at i = j
    n = k.size
    e = curvfn._esp(curvfn._Jet.of(k), n)
    for d in range(1, n + 1):
        grad = [brute_esp(np.delete(k, i), d - 1) for i in range(n)]
        hess = [[brute_esp(np.delete(k, [i, j]), d - 2) if i != j and d >= 2 else 0.0
                 for j in range(n)] for i in range(n)]
        np.testing.assert_allclose(e[d].v, brute_esp(k, d), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(e[d].g, grad, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(e[d].H, hess, rtol=1e-12, atol=0.0)


def _bits(x):
    """The bytes of an array, a float, or a _Jet's value, gradient and Hessian."""
    parts = (x.v, x.g, x.H) if isinstance(x, curvfn._Jet) else (x,)
    return b"".join(np.asarray(p).tobytes() for p in parts)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(k=KAPPA_4)
def test_symmetric_recursions_skip_only_exact_terms(k):
    # skipping the product by H_0 = 1 and the sum into 0 is exact on the
    # positive cone: every value, gradient and Hessian is bit for bit the
    # written-out recursion's, on an array block and on a _Jet
    n = k.size
    for block in (np.stack([k, 1.5 * k[::-1]]), curvfn._Jet.of(k)):
        for ours, ref in ((curvfn._esp(block, n), symmetric_by_full_recursion(block, n)),
                          (curvfn._chs(block, n, 4), symmetric_by_full_recursion(block, n, 4))):
            assert [_bits(x) for x in ours] == [_bits(x) for x in ref]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(k=KAPPA_4)
def test_chs_jet_matches_brute_derivatives(k):
    # each d/dk_i repeats k_i: dh_d/dk_i = h_{d-1}(k, k_i) and d2h_d/dk_i dk_j = h_{d-2}(k, k_i, k_j),
    # twice that at i = j
    n = k.size
    h = curvfn._chs(curvfn._Jet.of(k), n, 4)
    for d in range(1, 5):
        grad = [brute_chs(np.append(k, k[i]), d - 1) for i in range(n)]
        hess = [[(1.0 + (i == j)) * brute_chs(np.append(k, [k[i], k[j]]), d - 2) if d >= 2 else 0.0
                 for j in range(n)] for i in range(n)]
        np.testing.assert_allclose(h[d].v, brute_chs(k, d), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(h[d].g, grad, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(h[d].H, hess, rtol=1e-12, atol=0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(k=KAPPA_4, r=st.sampled_from([-1.0, -0.5, 0.25, 0.5, 1.0, 2.0]))
def test_power_mean_jet_matches_closed_form(k, r):
    # the Hessian's diagonal cancels to 0 at n = 1, so it is held to 1e-12 of its
    # scale |grad F|^2 / F + max |D^2 F| rather than entry by entry
    F = curvfn.PowerMean(k.size, r)
    g = power_mean_gradient(k, r)
    H = power_mean_hessian(k, r)
    np.testing.assert_allclose(F.gradient(k), g, rtol=1e-12, atol=0.0)
    scale = g @ g / F.value(k) + np.abs(H).max()
    assert np.abs(F.hessian(k) - H).max() <= 1e-12 * scale


@st.composite
def _quotient_cases(draw):
    """(n, k, l) with 0 <= l < k <= n <= 4, and a log-uniform kappa of length n."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    l = draw(st.integers(0, k - 1))
    logs = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    return n, k, l, np.exp(np.array(logs))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_quotient_cases())
def test_quotient_matches_brute_esp(case):
    n, k, l, kappa = case
    ones = np.ones(n)
    raw = brute_esp(kappa, k) / brute_esp(kappa, l)
    norm = brute_esp(ones, k) / brute_esp(ones, l)
    ref = (raw / norm) ** (1.0 / (k - l))
    assert float(make_function(f"quotient:{k}:{l}", n).value(kappa)) == pytest.approx(
        ref, rel=1e-12)


def test_names_keep_canonical_form():
    cases = {
        "mean": "mean",
        "sigma_k:02": "sigma_k:2",
        "quotient:03:1": "quotient:3:1",
        "power_mean:0": "power_mean:0.0",
        "power_mean:1": "power_mean:1.0",
        "power_mean:-.5": "power_mean:-0.5",
        "geom:0.50,0.25,.25": "geom:0.5,0.25,0.25",
        "complete:02": "complete:2",
        "norm_A": "norm_A",
        " inverse:sigma_k:03": "inverse:sigma_k:3",
    }
    for name, canonical in cases.items():
        assert make_function(name, 3).name == canonical
    for n in (1, 2, 3, 4):
        for name in curvfn.builtin_battery(n):
            assert make_function(name, n).name == name


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), rows=st.integers(1, 64),
       seed=st.integers(0, 2**32 - 1))
def test_block_verdict_is_worst_row(data, n, rows, seed):
    F = make_function(data.draw(st.sampled_from(curvfn.builtin_battery(n))), n)
    kappa = np.exp(np.random.default_rng(seed).uniform(-2.0, 2.0, size=(rows, n)))
    rank = (NOT_CONCAVE, CONCAVE_DEGENERATE, STRICTLY_CONCAVE)
    worst = min((check_strict_concavity(F, k) for k in kappa), key=rank.index)
    assert check_strict_concavity(F, kappa) == worst
    # leading axes beyond the first are rows too
    assert check_strict_concavity(F, kappa[None]) == worst


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), rows=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_row_value_is_its_block_row(n, rows, seed):
    # a single row of curvatures reads bit for bit as the same row in a block
    kappa = np.exp(np.random.default_rng(seed).uniform(-3.0, 3.0, size=(rows, n)))
    for name in curvfn.builtin_battery(n):
        F = make_function(name, n)
        block = F.value(kappa)
        for i, k in enumerate(kappa):
            assert F.value(k) == block[i], (name, k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), rows=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_side_value_takes_a_sign_per_row(n, rows, seed):
    # for every speed of the battery, inverse ones included, an array of
    # signs gives each row of a kappa block what the float sign of its side
    # gives, bit for bit: with the two sides on a leading axis, and with
    # one random side per row
    rng = np.random.default_rng(seed)
    kappa = np.exp(rng.uniform(-3.0, 3.0, size=(2, rows, n)))
    sides = np.array([1.0, -1.0])[:, None]
    signs = rng.choice([1.0, -1.0], size=rows)
    for name in curvfn.builtin_battery(n):
        F = make_function(name, n)
        primal, dual = F._side_value(kappa[0], 1.0), F._side_value(kappa[1], -1.0)
        assert F._side_value(kappa, sides).tobytes() == np.stack([primal, dual]).tobytes(), name
        mixed = np.where(signs > 0, primal, F._side_value(kappa[0], -1.0))
        assert F._side_value(kappa[0], signs).tobytes() == mixed.tobytes(), name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), rows=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_side_value_is_the_inverse_speed_on_the_dual_side(n, rows, seed):
    # F(kappa^eps)^eps is F on the primal side and 1 / F(1 / kappa) on the
    # dual side; there it is the value of curvfn.invert(F), bit for bit
    # where the inverse's normalization is exactly one, within 2 ulp where
    # it rounds
    kappa = np.exp(np.random.default_rng(seed).uniform(-3.0, 3.0, size=(rows, n)))
    for name in curvfn.builtin_battery(n):
        F = make_function(name, n)
        Fd = invert(F)
        assert np.array_equal(F._side_value(kappa, 1.0), F.value(kappa))
        side = F._side_value(kappa, -1.0)
        assert np.array_equal(side, 1.0 / F.value(1.0 / kappa)), name
        rows_side = np.array([F._side_value(k[None], -1.0)[0] for k in kappa])
        ref = Fd.value(kappa)
        row_ref = np.array([Fd.value(k) for k in kappa])
        if Fd._scale == 1.0:
            assert np.array_equal(side, ref), name
            assert np.array_equal(rows_side, row_ref), name
        else:
            assert (n, name) == (3, "geom:0.5,0.25,0.25")
            tol = 2.0 * np.finfo(float).eps
            assert np.all(np.abs(side - ref) <= tol * np.abs(ref)), name
            assert np.all(np.abs(rows_side - row_ref) <= tol * np.abs(row_ref)), name


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
