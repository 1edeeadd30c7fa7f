"""Symmetric curvature functions on the positive cone.

A curvature function takes the principal curvatures kappa = (kappa_1,
..., kappa_n), all positive, and returns a positive scalar.  Every
function here is symmetric under permutations, strictly monotone in
each argument, homogeneous of degree one, and rescaled at construction
so that F(1, ..., 1) = 1.

Built-in families (names as accepted by ``make_function``):

    mean            arithmetic mean of the kappa_i
    power_mean:r    ((1/n) sum_i kappa_i^r)^(1/r) for |r| <= 1; r = 0 is
                    the geometric mean
    sigma_k:k       H_k^(1/k), H_k the k-th elementary symmetric
                    polynomial, 1 <= k <= n
    quotient:k:l    (H_k / H_l)^(1/(k-l)) for 0 <= l < k <= n
    geom:a1,..,an   prod_k (H_k / H_{k-1})^(a_k) with a_k >= 0 summing
                    to one
    complete:k      k-th complete homogeneous symmetric polynomial to
                    the power 1/k
    norm_A          euclidean norm (sum_i kappa_i^2)^(1/2)
    inverse:<name>  the dual speed  F~(kappa) = 1 / F(1/kappa)

Values, gradients and Hessians are evaluated in eigenvalue coordinates.
All evaluation routines are vectorized: kappa may have shape (..., n),
with derivative axes appended on the right.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DomainError",
    "ConstructionError",
    "ConsistencyError",
    "CurvatureFunction",
    "make_function",
    "invert",
    "elementary_symmetric",
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
# elementary and complete symmetric polynomials
# ----------------------------------------------------------------------

def _esp_table(kappa: np.ndarray) -> np.ndarray:
    """All elementary symmetric polynomials of the trailing axis.

    Returns an array of shape kappa.shape[:-1] + (n + 1,) whose slice
    [..., j] holds H_j.  Built by multiplying out prod_i (1 + kappa_i t)
    one factor at a time, which is additive in the kappa_i and stable on
    the positive cone.
    """
    kappa = np.asarray(kappa, dtype=float)
    n = kappa.shape[-1]
    e = np.zeros(kappa.shape[:-1] + (n + 1,))
    e[..., 0] = 1.0
    for i in range(n):
        x = kappa[..., i]
        top = min(i + 1, n)
        for j in range(top, 0, -1):
            e[..., j] += x * e[..., j - 1]
    return e


def elementary_symmetric(kappa, k: int) -> np.ndarray | float:
    """H_k(kappa); H_0 = 1.  Vectorized over leading axes."""
    arr = np.asarray(kappa, dtype=float)
    n = arr.shape[-1]
    if not 0 <= k <= n:
        raise ConstructionError(f"elementary symmetric degree {k} needs 0 <= k <= {n}")
    out = _esp_table(arr)[..., k]
    return float(out) if out.ndim == 0 else out


def _esp_without(kappa: np.ndarray, i: int) -> np.ndarray:
    return np.delete(kappa, i, axis=-1)


def _esp_gradient(kappa: np.ndarray, k: int) -> np.ndarray:
    """d H_k / d kappa_i = H_{k-1} with entry i removed."""
    n = kappa.shape[-1]
    g = np.zeros(kappa.shape)
    if k == 0:
        return g
    for i in range(n):
        g[..., i] = _esp_table(_esp_without(kappa, i))[..., k - 1]
    return g


def _esp_hessian(kappa: np.ndarray, k: int) -> np.ndarray:
    """d^2 H_k: H_{k-2} with entries i and j removed, zero on the diagonal."""
    n = kappa.shape[-1]
    h = np.zeros(kappa.shape + (n,))
    if k < 2:
        return h
    for i in range(n):
        for j in range(i + 1, n):
            sub = np.delete(np.delete(kappa, j, axis=-1), i, axis=-1)
            val = _esp_table(sub)[..., k - 2]
            h[..., i, j] = val
            h[..., j, i] = val
    return h


def _chs_fold(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Extend a complete homogeneous table by one more variable x."""
    out = table.copy()
    for j in range(1, table.shape[-1]):
        out[..., j] = out[..., j] + x * out[..., j - 1]
    return out


def _chs_table(kappa: np.ndarray, k: int) -> np.ndarray:
    """Complete homogeneous symmetric polynomials h_0 .. h_k."""
    t = np.zeros(kappa.shape[:-1] + (k + 1,))
    t[..., 0] = 1.0
    for i in range(kappa.shape[-1]):
        t = _chs_fold(t, kappa[..., i])
    return t


# ----------------------------------------------------------------------
# the function families
# ----------------------------------------------------------------------

class CurvatureFunction:
    """Base class; subclasses provide unnormalized value/gradient/Hessian."""

    def __init__(self, n: int):
        n = int(n)
        if n < 1:
            raise ConstructionError("need at least one principal curvature")
        self.n = n
        self._scale = 1.0
        self._scale = 1.0 / float(self._raw_value(np.ones(n)))

    # -- subclass surface -------------------------------------------------
    def _raw_value(self, kappa):
        raise NotImplementedError

    def _raw_gradient(self, kappa):
        raise NotImplementedError

    def _raw_hessian(self, kappa):
        raise NotImplementedError

    @property
    def name(self) -> str:
        raise NotImplementedError

    # -- public evaluation --------------------------------------------------
    def _check(self, kappa) -> np.ndarray:
        k = np.asarray(kappa, dtype=float)
        if k.ndim == 0 or k.shape[-1] != self.n:
            raise DomainError(f"{self.name} expects {self.n} curvatures, got shape {k.shape}")
        if not np.all(np.isfinite(k)) or not np.all(k > 0.0):
            raise DomainError(f"{self.name} evaluated outside the positive cone")
        return k

    def value(self, kappa):
        out = self._scale * self._raw_value(self._check(kappa))
        return float(out) if np.ndim(out) == 0 else out

    def gradient(self, kappa):
        return self._scale * self._raw_gradient(self._check(kappa))

    def hessian(self, kappa):
        return self._scale * self._raw_hessian(self._check(kappa))

    def sum_gradient(self, kappa):
        """sum_i dF/dkappa_i, the diffusion scale entering time-step control."""
        return self.gradient(kappa).sum(axis=-1)

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r}, n={self.n})"


class Mean(CurvatureFunction):
    """Arithmetic mean, the linear member of the scale."""

    @property
    def name(self):
        return "mean"

    def _raw_value(self, kappa):
        return kappa.mean(axis=-1)

    def _raw_gradient(self, kappa):
        return np.full(kappa.shape, 1.0 / self.n)

    def _raw_hessian(self, kappa):
        return np.zeros(kappa.shape + (self.n,))


class PowerMean(CurvatureFunction):
    """((1/n) sum kappa_i^r)^(1/r), |r| <= 1, with r = 0 the geometric mean.

    For r != 0 the derivatives are

        F_i  = n^(-1/r) S^(1/r - 1) kappa_i^(r-1),          S = sum kappa_l^r,
        F_ij = n^(-1/r) (1 - r) S^(1/r - 2) kappa_i^(r-2)
               (kappa_i kappa_j^(r-1) - S delta_ij).
    """

    def __init__(self, n: int, r: float):
        r = float(r)
        if not -1.0 <= r <= 1.0:
            raise ConstructionError(f"power mean exponent must satisfy |r| <= 1, got {r}")
        self.r = r
        super().__init__(n)

    @property
    def name(self):
        return f"power_mean:{self.r!r}"

    def _raw_value(self, kappa):
        if self.r == 0.0:
            return np.exp(np.log(kappa).mean(axis=-1))
        return ((kappa ** self.r).mean(axis=-1)) ** (1.0 / self.r)

    def _raw_gradient(self, kappa):
        n, r = self.n, self.r
        if r == 0.0:
            g = self._raw_value(kappa)
            return g[..., None] / (n * kappa)
        s = (kappa ** r).sum(axis=-1)
        return n ** (-1.0 / r) * s[..., None] ** (1.0 / r - 1.0) * kappa ** (r - 1.0)

    def _raw_hessian(self, kappa):
        n, r = self.n, self.r
        eye = np.eye(n)
        if r == 0.0:
            g = self._raw_value(kappa)[..., None, None]
            inv = 1.0 / kappa
            outer = inv[..., :, None] * inv[..., None, :]
            return g * (outer / n ** 2 - eye * outer / n)
        s = ((kappa ** r).sum(axis=-1))[..., None, None]
        ki = kappa[..., :, None]
        kj = kappa[..., None, :]
        core = ki * kj ** (r - 1.0) - s * eye
        return n ** (-1.0 / r) * (1.0 - r) * s ** (1.0 / r - 2.0) * ki ** (r - 2.0) * core


class SigmaK(CurvatureFunction):
    """H_k^(1/k) normalized by the binomial count."""

    def __init__(self, n: int, k: int):
        k = int(k)
        if not 1 <= k <= n:
            raise ConstructionError(f"sigma_k needs 1 <= k <= n, got k={k}, n={n}")
        self.k = k
        super().__init__(n)

    @property
    def name(self):
        return f"sigma_k:{self.k}"

    def _p(self, kappa):
        return _esp_table(kappa)[..., self.k]

    def _raw_value(self, kappa):
        return self._p(kappa) ** (1.0 / self.k)

    def _raw_gradient(self, kappa):
        a = 1.0 / self.k
        p = self._p(kappa)
        return a * p[..., None] ** (a - 1.0) * _esp_gradient(kappa, self.k)

    def _raw_hessian(self, kappa):
        a = 1.0 / self.k
        p = self._p(kappa)[..., None, None]
        pi = _esp_gradient(kappa, self.k)
        pij = _esp_hessian(kappa, self.k)
        outer = pi[..., :, None] * pi[..., None, :]
        return a * (a - 1.0) * p ** (a - 2.0) * outer + a * p ** (a - 1.0) * pij


class QuotientKL(CurvatureFunction):
    """(H_k / H_l)^(1/(k-l)) for 0 <= l < k <= n."""

    def __init__(self, n: int, k: int, l: int):
        k, l = int(k), int(l)
        if not 0 <= l < k <= n:
            raise ConstructionError(f"quotient needs 0 <= l < k <= n, got k={k}, l={l}, n={n}")
        self.k, self.l = k, l
        super().__init__(n)

    @property
    def name(self):
        return f"quotient:{self.k}:{self.l}"

    def _raw_value(self, kappa):
        e = _esp_table(kappa)
        return (e[..., self.k] / e[..., self.l]) ** (1.0 / (self.k - self.l))

    def _log_derivs(self, kappa):
        e = _esp_table(kappa)
        a = 1.0 / (self.k - self.l)
        # L = a (log H_k - log H_l); gradient and Hessian of L
        terms = []
        for deg, sign in ((self.k, a), (self.l, -a)):
            p = e[..., deg][..., None]
            pi = _esp_gradient(kappa, deg)
            pij = _esp_hessian(kappa, deg)
            li = pi / p
            lij = pij / p[..., None] - li[..., :, None] * li[..., None, :]
            terms.append((sign, li, lij))
        gi = sum(s * li for s, li, _ in terms)
        gij = sum(s * lij for s, _, lij in terms)
        return gi, gij

    def _raw_gradient(self, kappa):
        g = self._raw_value(kappa)
        gi, _ = self._log_derivs(kappa)
        return g[..., None] * gi

    def _raw_hessian(self, kappa):
        g = self._raw_value(kappa)[..., None, None]
        gi, gij = self._log_derivs(kappa)
        return g * (gi[..., :, None] * gi[..., None, :] + gij)


class WeightedGeometric(CurvatureFunction):
    """prod_k (H_k / H_{k-1})^(a_k), weights a_k >= 0 summing to one.

    Written as prod_k H_k^(b_k) with b_k = a_k - a_{k+1}; the log-space
    derivatives then combine the H_k tables directly.
    """

    def __init__(self, n: int, weights):
        w = tuple(float(a) for a in weights)
        if len(w) != n:
            raise ConstructionError(f"geometric weights need length n={n}, got {len(w)}")
        if any(a < 0.0 for a in w):
            raise ConstructionError("geometric weights must be nonnegative")
        if abs(sum(w) - 1.0) > 1e-9:
            raise ConstructionError(f"geometric weights must sum to one, got {sum(w)!r}")
        self.weights = w
        self._beta = tuple(
            w[k] - (w[k + 1] if k + 1 < n else 0.0) for k in range(n)
        )  # exponent of H_{k+1}
        super().__init__(n)

    @property
    def name(self):
        return "geom:" + ",".join(repr(a) for a in self.weights)

    def _raw_value(self, kappa):
        e = _esp_table(kappa)
        out = np.ones(kappa.shape[:-1])
        for k, b in enumerate(self._beta, start=1):
            if b != 0.0:
                out = out * e[..., k] ** b
        return out

    def _log_derivs(self, kappa):
        gi = np.zeros(kappa.shape)
        gij = np.zeros(kappa.shape + (self.n,))
        e = _esp_table(kappa)
        for k, b in enumerate(self._beta, start=1):
            if b == 0.0:
                continue
            p = e[..., k][..., None]
            pi = _esp_gradient(kappa, k)
            pij = _esp_hessian(kappa, k)
            li = pi / p
            gi += b * li
            gij += b * (pij / p[..., None] - li[..., :, None] * li[..., None, :])
        return gi, gij

    def _raw_gradient(self, kappa):
        gi, _ = self._log_derivs(kappa)
        return self._raw_value(kappa)[..., None] * gi

    def _raw_hessian(self, kappa):
        g = self._raw_value(kappa)[..., None, None]
        gi, gij = self._log_derivs(kappa)
        return g * (gi[..., :, None] * gi[..., None, :] + gij)


class CompleteSymmetric(CurvatureFunction):
    """k-th complete homogeneous symmetric polynomial to the power 1/k.

    Derivatives of h_k follow from 1/(1 - kappa_i t) factors in the
    generating function: each d/d kappa_i duplicates the variable, so
    d h_k / d kappa_i = h_{k-1} of the multiset with kappa_i repeated.
    """

    def __init__(self, n: int, k: int):
        k = int(k)
        if not 1 <= k <= n:
            raise ConstructionError(f"complete symmetric degree needs 1 <= k <= n, got k={k}")
        self.k = k
        super().__init__(n)

    @property
    def name(self):
        return f"complete:{self.k}"

    def _raw_value(self, kappa):
        return _chs_table(kappa, self.k)[..., self.k] ** (1.0 / self.k)

    def _h_derivs(self, kappa):
        k, n = self.k, self.n
        base1 = _chs_table(kappa, k - 1)  # degree k-1 table of the plain set
        p = _chs_table(kappa, k)[..., k]
        pi = np.zeros(kappa.shape)
        for i in range(n):
            pi[..., i] = _chs_fold(base1, kappa[..., i])[..., k - 1]
        pij = np.zeros(kappa.shape + (n,))
        if k >= 2:
            base2 = _chs_table(kappa, k - 2)
            for i in range(n):
                ti = _chs_fold(base2, kappa[..., i])
                for j in range(i, n):
                    val = _chs_fold(ti, kappa[..., j])[..., k - 2]
                    if j == i:
                        pij[..., i, i] = 2.0 * val
                    else:
                        pij[..., i, j] = val
                        pij[..., j, i] = val
        return p, pi, pij

    def _raw_gradient(self, kappa):
        a = 1.0 / self.k
        p, pi, _ = self._h_derivs(kappa)
        return a * p[..., None] ** (a - 1.0) * pi

    def _raw_hessian(self, kappa):
        a = 1.0 / self.k
        p, pi, pij = self._h_derivs(kappa)
        p = p[..., None, None]
        outer = pi[..., :, None] * pi[..., None, :]
        return a * (a - 1.0) * p ** (a - 2.0) * outer + a * p ** (a - 1.0) * pij


class NormA(CurvatureFunction):
    """Euclidean norm of the curvature vector (convex)."""

    @property
    def name(self):
        return "norm_A"

    def _raw_value(self, kappa):
        return np.sqrt((kappa * kappa).sum(axis=-1))

    def _raw_gradient(self, kappa):
        return kappa / self._raw_value(kappa)[..., None]

    def _raw_hessian(self, kappa):
        r = self._raw_value(kappa)[..., None, None]
        ki = kappa[..., :, None]
        kj = kappa[..., None, :]
        return (np.eye(self.n) - ki * kj / (r * r)) / r


class InverseOf(CurvatureFunction):
    """F~(kappa) = 1 / F(1/kappa), the speed of the dual expanding flow."""

    def __init__(self, inner: CurvatureFunction):
        if not isinstance(inner, CurvatureFunction):
            raise ConstructionError("inverse needs a curvature function to wrap")
        self.inner = inner
        super().__init__(inner.n)

    @property
    def name(self):
        return f"inverse:{self.inner.name}"

    def _raw_value(self, kappa):
        return 1.0 / self.inner.value(1.0 / kappa)

    def _raw_gradient(self, kappa):
        rho = 1.0 / kappa
        g = np.asarray(self.inner.value(rho))
        a = self.inner.gradient(rho)
        return a / (g[..., None] ** 2 * kappa ** 2)

    def _raw_hessian(self, kappa):
        rho = 1.0 / kappa
        gval = np.asarray(self.inner.value(rho))
        a = self.inner.gradient(rho)
        b = self.inner.hessian(rho)
        g2 = gval[..., None, None]
        ki2 = (kappa ** 2)[..., :, None]
        kj2 = (kappa ** 2)[..., None, :]
        ai = a[..., :, None]
        aj = a[..., None, :]
        out = 2.0 * ai * aj / (g2 ** 3 * ki2 * kj2) - b / (g2 ** 2 * ki2 * kj2)
        idx = np.arange(self.n)
        out[..., idx, idx] -= 2.0 * a / (gval[..., None] ** 2 * kappa ** 3)
        return out


# ----------------------------------------------------------------------
# construction, inversion, classification
# ----------------------------------------------------------------------

def make_function(name: str, n: int) -> CurvatureFunction:
    """Build a normalized curvature function from its registry name."""
    name = str(name).strip()
    if name == "mean":
        return Mean(n)
    if name == "norm_A":
        return NormA(n)
    head, _, rest = name.partition(":")
    if head == "inverse":
        if not rest:
            raise ConstructionError("inverse needs an inner function name")
        return InverseOf(make_function(rest, n))
    try:
        if head == "power_mean":
            return PowerMean(n, float(rest))
        if head == "sigma_k":
            return SigmaK(n, int(rest))
        if head == "quotient":
            k_str, _, l_str = rest.partition(":")
            return QuotientKL(n, int(k_str), int(l_str))
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


def check_strict_concavity(F: CurvatureFunction, kappa, tol: float | None = None) -> str:
    """Classify D^2 F at kappa.

    Homogeneity forces a zero eigenvalue along the radial direction
    kappa itself.  The verdict looks at the remaining spectrum:
    strictly_concave if all other eigenvalues sit below -tol,
    not_concave if any eigenvalue exceeds +tol, concave_degenerate
    otherwise.
    """
    k = np.asarray(kappa, dtype=float)
    H = F.hessian(k)
    scale = float(np.abs(H).max())
    if tol is None:
        tol = 1e-8 * (scale + 1.0)
    asym = float(np.abs(H - H.T).max())
    if asym > max(tol, 1e-12 * (scale + 1.0)):
        raise ConsistencyError(f"Hessian asymmetry {asym:.3e} exceeds tolerance")
    Hs = 0.5 * (H + H.T)
    evals, evecs = np.linalg.eigh(Hs)
    radial = float(np.abs(Hs @ k).max())
    if radial > tol * max(1.0, float(np.abs(k).max())):
        raise ConsistencyError(
            f"radial direction fails to annihilate the Hessian (residual {radial:.3e})"
        )
    if np.any(evals > tol):
        return NOT_CONCAVE
    khat = k / np.linalg.norm(k)
    i_rad = int(np.argmax(np.abs(evecs.T @ khat)))
    others = np.delete(evals, i_rad)
    if np.all(others < -tol):
        return STRICTLY_CONCAVE
    return CONCAVE_DEGENERATE


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
