"""Symmetric curvature functions on the positive cone.

A curvature function takes the principal curvatures kappa = (kappa_1,
..., kappa_n), all positive, and returns a positive scalar.  Every
function here is symmetric under permutations, strictly monotone in
each argument, homogeneous of degree one, and rescaled at construction
so that F(1, ..., 1) = 1.

Built-in families (names as accepted by ``make_function``):

    mean            arithmetic mean of the kappa_i, i.e. power_mean:1
    power_mean:r    ((1/n) sum_i kappa_i^r)^(1/r) for |r| <= 1; r = 0 is
                    the geometric mean H_n^(1/n), i.e. sigma_k:n
    sigma_k:k       H_k^(1/k), H_k the k-th elementary symmetric
                    polynomial, 1 <= k <= n
    quotient:k:l    (H_k / H_l)^(1/(k-l)) for 0 <= l < k <= n
    geom:a1,..,an   prod_k (H_k / H_{k-1})^(a_k) with a_k >= 0 summing
                    to one
    complete:k      k-th complete homogeneous symmetric polynomial to
                    the power 1/k
    norm_A          root mean square ((1/n) sum_i kappa_i^2)^(1/2), the
                    power mean at r = 2 (convex, not concave)
    inverse:<name>  the dual speed  F~(kappa) = 1 / F(1/kappa)

The product in geom telescopes, so sigma_k:k, quotient:k:l and
power_mean:0 are geom members: weights 1/(k-l) on the ratios
l < j <= k give (H_k / H_l)^(1/(k-l)), with l = 0 for sigma_k and
k = n, l = 0 for the geometric mean.  One class evaluates them all,
each under its own name.

Each class defines only its value, in eigenvalue coordinates; the base
class reads the gradient and Hessian off that formula evaluated on a
second-order jet.  Evaluation is vectorized: kappa may have shape
(..., n), with derivative axes appended on the right.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = [
    "DomainError",
    "ConstructionError",
    "ConsistencyError",
    "CurvatureFunction",
    "make_function",
    "invert",
    "check_strict_concavity",
    "builtin_battery",
    "STRICTLY_CONCAVE",
    "CONCAVE_DEGENERATE",
    "NOT_CONCAVE",
]


class DomainError(ValueError):
    """Curvature vector outside the open positive cone."""


class ConstructionError(ValueError):
    """Family parameters violate their admissibility constraints."""


class ConsistencyError(RuntimeError):
    """A numerical self-check failed, e.g. an asymmetric Hessian."""


STRICTLY_CONCAVE = "strictly_concave"
CONCAVE_DEGENERATE = "concave_degenerate"
NOT_CONCAVE = "not_concave"


# ----------------------------------------------------------------------
# second-order jets and the symmetric polynomials
# ----------------------------------------------------------------------

class _Jet:
    """A value v of shape S with its gradient g (S + (n,)) and Hessian H
    (S + (n, n)) in kappa.

    A value written in +, *, a constant power, c / jet, [..., i] and
    sum(axis=-1) carries its first two derivatives along (second-order
    forward differentiation, Griewank & Walther, Evaluating Derivatives,
    2008, ch. 13).  Constants are scalars; ndarray operands defer to the
    jet's reflected operators.
    """

    __array_ufunc__ = None

    def __init__(self, v, g, H):
        self.v, self.g, self.H = v, g, H

    @classmethod
    def of(cls, kappa: np.ndarray) -> "_Jet":
        """kappa of shape (..., n) as the independent variable."""
        n = kappa.shape[-1]
        return cls(kappa, np.eye(n) + np.zeros(kappa.shape + (n,)), np.zeros(kappa.shape + (n, n)))

    def _chain(self, v, d1, d2) -> "_Jet":
        """f(self), given v = f(self.v), d1 = f'(self.v) and d2 = f''(self.v)."""
        g = self.g
        return _Jet(v, d1[..., None] * g, d1[..., None, None] * self.H
                    + d2[..., None, None] * (g[..., :, None] * g[..., None, :]))

    def __add__(self, other) -> "_Jet":
        if isinstance(other, _Jet):
            return _Jet(self.v + other.v, self.g + other.g, self.H + other.H)
        return _Jet(self.v + other, self.g, self.H)

    __radd__ = __add__

    def __mul__(self, other) -> "_Jet":
        if not isinstance(other, _Jet):
            return _Jet(self.v * other, self.g * other, self.H * other)
        a, b = self, other
        cross = a.g[..., :, None] * b.g[..., None, :]
        return _Jet(a.v * b.v, a.g * b.v[..., None] + a.v[..., None] * b.g,
                    a.H * b.v[..., None, None] + a.v[..., None, None] * b.H
                    + cross + cross.swapaxes(-1, -2))

    __rmul__ = __mul__

    def __pow__(self, p: float) -> "_Jet":
        x = self.v
        d1 = p * x ** (p - 1.0)
        return self._chain(x ** p, d1, (p - 1.0) * d1 / x)

    def __rtruediv__(self, c: float) -> "_Jet":
        x, v = self.v, c / self.v
        return self._chain(v, -v / x, 2.0 * v / (x * x))

    def __getitem__(self, key) -> "_Jet":
        _, i = key  # (..., i): entry i of the trailing value axis
        return _Jet(self.v[..., i], self.g[..., i, :], self.H[..., i, :, :])

    def sum(self, axis: int) -> "_Jet":
        assert axis == -1
        return _Jet(self.v.sum(axis=-1), self.g.sum(axis=-2), self.H.sum(axis=-3))


def _esp(kappa, n: int) -> list:
    """[H_0, ..., H_n] of the n entries of kappa's trailing axis (an array
    or a _Jet), multiplying out prod_i (1 + kappa_i t) one factor at a
    time: additive in the kappa_i and stable on the positive cone."""
    e = [1.0] + [None] * n
    for i in range(n):
        x = kappa[..., i]
        for j in range(i + 1, 0, -1):
            t = x * e[j - 1] if j > 1 else x  # x H_0 = x
            e[j] = e[j] + t if j <= i else t  # H_{i+1} starts at 0
    return e


def _chs(kappa, n: int, k: int) -> list:
    """[h_0, ..., h_k], the complete homogeneous symmetric polynomials of
    the n entries of kappa's trailing axis; kappa is an array or a _Jet."""
    h = [1.0] + [None] * k
    for i in range(n):
        x = kappa[..., i]
        for j in range(1, k + 1):
            t = x * h[j - 1] if j > 1 else x  # x h_0 = x
            h[j] = h[j] + t if i else t  # h_j starts at 0
    return h


# ----------------------------------------------------------------------
# the function families
# ----------------------------------------------------------------------

class CurvatureFunction:
    """Base class; a subclass defines only _raw_value, its unnormalized
    value in the operations a _Jet supports, and the base class takes
    the gradient and Hessian through the same formula.

    name is the canonical registry name (see make_function).
    """

    def __init__(self, n: int, name: str):
        n = int(n)
        if n < 1:
            raise ConstructionError("need at least one principal curvature")
        self.n = n
        self.name = name
        self._scale = 1.0
        self._scale = 1.0 / float(self._raw_value(np.ones(n)))

    # -- subclass surface -------------------------------------------------
    def _raw_value(self, kappa):
        raise NotImplementedError

    # -- public evaluation --------------------------------------------------
    def _check(self, kappa) -> np.ndarray:
        k = np.asarray(kappa, dtype=float)
        if k.ndim == 0 or k.shape[-1] != self.n:
            raise DomainError(f"{self.name} expects {self.n} curvatures, got shape {k.shape}")
        if not (np.isfinite(k).all() and (k > 0.0).all()):
            raise DomainError(f"{self.name} evaluated outside the positive cone")
        return k

    def value(self, kappa):
        k = self._check(kappa)
        # one row goes through as a (1, n) block: a numpy scalar's ** is the C
        # library's pow, which can differ in the last bit from a block's power
        return float(self._value(k[None])[0]) if k.ndim == 1 else self._value(k)

    def _value(self, kappa):
        """value of a kappa block (or _Jet) the caller has checked, without _check."""
        return self._raw_value(kappa) if self._scale == 1.0 else self._scale * self._raw_value(kappa)

    def _side_value(self, kappa, eps):
        """F(kappa^eps)^eps, the speed of side eps, on a checked kappa block:
        F on the primal side, 1 / F(1 / kappa) on the dual side, as the Gauss
        map sends each principal curvature to its reciprocal.  eps may be an
        array of signs that broadcasts against the block's rows, which then
        takes one value call for both sides."""
        if isinstance(eps, np.ndarray):
            dual = eps < 0
            value = self._value(np.divide(1.0, kappa, out=kappa.copy(), where=dual[..., None]))
            return np.divide(1.0, value, out=value, where=dual)
        return self._value(kappa) if eps > 0 else 1.0 / self._value(1.0 / kappa)

    def gradient(self, kappa):
        return self._value(_Jet.of(self._check(kappa))).g

    def hessian(self, kappa):
        return self._value(_Jet.of(self._check(kappa))).H

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, n={self.n})"


class PowerMean(CurvatureFunction):
    """((1/n) sum kappa_i^r)^(1/r) for r != 0; r = 1 is the mean, r = 2
    norm_A.

    The geometric mean r = 0 is sigma_k:n, and power_mean:r names take
    |r| <= 1 (see make_function).
    """

    def __init__(self, n: int, r: float, name: str | None = None):
        r = float(r)
        if r == 0.0:
            raise ConstructionError("power mean exponent must be nonzero; r = 0 is sigma_k:n")
        self.r = r
        super().__init__(n, name or f"power_mean:{r!r}")

    def _raw_value(self, kappa):
        return ((kappa ** self.r).sum(axis=-1) * (1.0 / self.n)) ** (1.0 / self.r)


class WeightedGeometric(CurvatureFunction):
    """prod_k (H_k / H_{k-1})^(a_k), weights a_k >= 0 summing to one,
    evaluated as prod_k H_k^(b_k) with b_k = a_k - a_{k+1}."""

    def __init__(self, n: int, weights, name: str | None = None):
        w = tuple(float(a) for a in weights)
        if len(w) != n:
            raise ConstructionError(f"geometric weights need length n={n}, got {len(w)}")
        if not all(0.0 <= a < math.inf for a in w):
            raise ConstructionError(f"geometric weights must be finite and nonnegative, got {w!r}")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ConstructionError(f"geometric weights must sum to one, got {sum(w)!r}")
        self.weights = w
        self._beta = tuple(
            w[k] - (w[k + 1] if k + 1 < n else 0.0) for k in range(n)
        )  # exponent of H_{k+1}
        super().__init__(n, name or "geom:" + ",".join(repr(a) for a in w))

    def _raw_value(self, kappa):
        e = _esp(kappa, self.n)
        return functools.reduce(operator.mul, [e[k] ** b for k, b in enumerate(self._beta, start=1)
                                               if b != 0.0])


class CompleteSymmetric(CurvatureFunction):
    """k-th complete homogeneous symmetric polynomial to the power 1/k."""

    def __init__(self, n: int, k: int):
        k = int(k)
        if not 1 <= k <= n:
            raise ConstructionError(f"complete symmetric degree needs 1 <= k <= n, got k={k}")
        self.k = k
        super().__init__(n, f"complete:{k}")

    def _raw_value(self, kappa):
        return _chs(kappa, self.n, self.k)[self.k] ** (1.0 / self.k)


class InverseOf(CurvatureFunction):
    """F~(kappa) = 1 / F(1/kappa), F's dual-side speed as a speed of its own."""

    def __init__(self, inner: CurvatureFunction):
        if not isinstance(inner, CurvatureFunction):
            raise ConstructionError("inverse needs a curvature function to wrap")
        self.inner = inner
        super().__init__(inner.n, f"inverse:{inner.name}")

    def _raw_value(self, kappa):
        return 1.0 / self.inner._value(1.0 / kappa)


# ----------------------------------------------------------------------
# construction, inversion, classification
# ----------------------------------------------------------------------

def _ratio_weights(n: int, k: int, l: int) -> list[float]:
    """geom weights of (H_k / H_l)^(1/(k-l)): 1/(k-l) on the ratios l < j <= k."""
    if not 0 <= l < k <= n:
        raise ConstructionError(f"needs 0 <= l < k <= n, got k={k}, l={l}, n={n}")
    return [1.0 / (k - l) if l < j <= k else 0.0 for j in range(1, n + 1)]


def make_function(name: str, n: int) -> CurvatureFunction:
    """Build a normalized curvature function from its registry name."""
    name = str(name).strip()
    if name == "mean":
        return PowerMean(n, 1.0, "mean")
    if name == "norm_A":
        return PowerMean(n, 2.0, "norm_A")
    head, _, rest = name.partition(":")
    if head == "inverse":
        if not rest:
            raise ConstructionError("inverse needs an inner function name")
        return InverseOf(make_function(rest, n))
    try:
        if head == "power_mean":
            r = float(rest)
            if not -1.0 <= r <= 1.0:
                raise ConstructionError(f"power mean exponent must satisfy 0 < |r| <= 1, got {r}")
            if r == 0.0:
                return WeightedGeometric(n, _ratio_weights(n, n, 0), f"power_mean:{r!r}")
            return PowerMean(n, r)
        if head == "sigma_k":
            k = int(rest)
            return WeightedGeometric(n, _ratio_weights(n, k, 0), f"sigma_k:{k}")
        if head == "quotient":
            k_str, _, l_str = rest.partition(":")
            k, l = int(k_str), int(l_str)
            return WeightedGeometric(n, _ratio_weights(n, k, l), f"quotient:{k}:{l}")
        if head == "geom":
            return WeightedGeometric(n, tuple(float(w) for w in rest.split(",")))
        if head == "complete":
            return CompleteSymmetric(n, int(rest))
    except ValueError as exc:
        raise ConstructionError(f"bad parameters in curvature function name {name!r}: {exc}") from exc
    raise ConstructionError(f"unknown curvature function family {name!r}")


def invert(F: CurvatureFunction) -> CurvatureFunction:
    """The dual speed F~; invert(invert(F)) agrees with F to rounding."""
    return InverseOf(F)


def check_strict_concavity(F: CurvatureFunction, kappa) -> str:
    """Classify D^2 F over kappa of shape (n,) or (..., n); the worst row wins.

    Homogeneity forces a zero eigenvalue along the radial direction
    kappa itself.  A row's verdict looks at the remaining spectrum, with
    tol = 1e-8 (max |D^2 F| + 1) of that row: strictly_concave if all
    other eigenvalues sit below -tol, not_concave if any eigenvalue
    exceeds +tol, concave_degenerate otherwise.  The rows rank in the
    order not_concave, concave_degenerate, strictly_concave.
    """
    H = F.hessian(kappa).reshape(-1, F.n, F.n)
    k = np.asarray(kappa, dtype=float).reshape(-1, F.n)
    Ht = H.swapaxes(1, 2)
    tol = 1e-8 * (np.abs(H).max(axis=(1, 2)) + 1.0)
    asym = np.abs(H - Ht).max(axis=(1, 2))
    if (asym > tol).any():
        raise ConsistencyError(f"Hessian asymmetry {asym.max():.3e} exceeds tolerance")
    Hs = 0.5 * (H + Ht)
    evals, evecs = np.linalg.eigh(Hs)
    radial = np.abs(Hs @ k[:, :, None]).max(axis=(1, 2))
    if (radial > tol * np.maximum(1.0, np.abs(k).max(axis=1))).any():
        raise ConsistencyError(
            f"radial direction fails to annihilate the Hessian (residual {radial.max():.3e})"
        )
    if (evals > tol[:, None]).any():
        return NOT_CONCAVE
    khat = k / np.sqrt((k * k).sum(axis=1, keepdims=True))
    i_rad = np.abs((evecs.swapaxes(1, 2) @ khat[:, :, None])[:, :, 0]).argmax(axis=1)
    others = evals < -tol[:, None]
    others[np.arange(len(k)), i_rad] = True
    return STRICTLY_CONCAVE if others.all() else CONCAVE_DEGENERATE


def builtin_battery(n: int) -> list[str]:
    """Canonical list of built-in function names at dimension n."""
    names = [
        "mean",
        "power_mean:-1.0",
        "power_mean:-0.5",
        "power_mean:0.0",
        "power_mean:0.5",
        "norm_A",
    ]
    if n == 1:
        names.append("inverse:mean")
        return names
    names += [
        "sigma_k:2",
        f"sigma_k:{n}",
        "quotient:2:1",
        "complete:2",
        "inverse:sigma_k:2",
        "inverse:norm_A",
    ]
    if n == 2:
        names.append("geom:0.5,0.5")
    else:
        w = [0.5] + [0.5 / (n - 1)] * (n - 1)
        w[-1] = 1.0 - sum(w[:-1])  # exact unit sum
        names.append("geom:" + ",".join(repr(a) for a in w))
    return list(dict.fromkeys(names))
