"""Elliptical density generators and the coefficient polynomial of their
series.

Supported generators: Gaussian and Kotz type I with integer shape T >= 1
(T = 1 with rate R = 1/2 is exactly the Gaussian). Integer T keeps every
derivative a finite polynomial-times-exponential, so every series
coefficient, the radial integral of a shape density as well as the
derivative h^(2t) of a size-and-shape density, is a closed-form factor times
one polynomial of degree at most T - 1 in the series degree t
(:func:`coefficient_polynomial`). Their per-degree references and the
quadrature oracle live in :mod:`svdshape.oracle`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError
from .geometry import theta_inv_sqrt
from .special import LogSign


class GeneratorKind(Enum):
    GAUSSIAN = "gaussian"
    KOTZ_TYPE_I = "kotz"


@dataclass(frozen=True)
class GeneratorSpec:
    """Scalar density generator h for an M-dimensional elliptical law."""

    kind: GeneratorKind
    M: int                  # total dimension (N-1) * K
    T: int = 1              # Kotz shape; the Gaussian is T = 1
    R: float = 0.5          # rate

    def __post_init__(self):
        if not isinstance(self.kind, GeneratorKind):
            raise DomainError(f"generator kind must be a GeneratorKind, got {self.kind!r}")
        if self.M < 1:
            raise DomainError(f"dimension M must be positive, got {self.M}")
        if not 0 < self.R < math.inf:
            raise DomainError(f"rate R must be positive and finite, got {self.R}")
        if self.kind is GeneratorKind.GAUSSIAN and self.T != 1:
            raise DomainError(f"a Gaussian generator has shape T = 1, got {self.T}")
        if self.T < 1 or self.T != int(self.T):
            raise DomainError(f"Kotz shape T must be a positive integer, got {self.T}")
        object.__setattr__(self, "T", int(self.T))

    @property
    def log_norm_const(self) -> float:
        """Log of the normalizing constant of h."""
        T, R, M = self.T, self.R, self.M
        return ((T - 1 + M / 2.0) * math.log(R) + math.lgamma(M / 2.0)
                - M / 2.0 * math.log(math.pi) - math.lgamma(T - 1 + M / 2.0))


class IsotropicKind(Enum):
    """The names of the paper's three generators, which ``svdshape compare``
    ranks: Kotz type I at rate R = 1/2 with shape T = 1 (the Gaussian), 2 or
    3. Fits take any :class:`GeneratorSpec`; :meth:`generator` builds one."""

    GAUSSIAN = "gaussian"
    KOTZ_T2 = "kotz-t2"
    KOTZ_T3 = "kotz-t3"

    def generator(self, M: int) -> GeneratorSpec:
        T = {"gaussian": 1, "kotz-t2": 2, "kotz-t3": 3}[self.value]
        return GeneratorSpec(GeneratorKind.KOTZ_TYPE_I, M=M, T=T)


def h_log_value(gen: GeneratorSpec, y: float) -> LogSign:
    """Log-sign form of the generator value h(y)."""
    if y < 0:
        raise DomainError(f"generator argument must be non-negative, got {y}")
    T, R = gen.T, gen.R
    if y == 0.0:
        if T > 1:
            return LogSign.zero()
        return LogSign(gen.log_norm_const, 1.0)
    return LogSign(gen.log_norm_const + (T - 1) * math.log(y) - R * y, 1.0)


def h_value(gen: GeneratorSpec, y: float) -> float:
    return h_log_value(gen, y).value


@lru_cache(maxsize=64)
def _radial_terms(T: int, M: int | None) -> tuple[tuple[int, ...], ...]:
    """Integer coefficients c_p[k] of t^k (p, k < T) with R^(p+1-T) c_p(t) /
    2^(T-1) the coefficient of b^p in the P(t) of :func:`coefficient_polynomial`
    (``M`` None: the derivative form, only l = 0): 2^(T-1) sum_j (-1)^j
    binom(2t, j) (T-1)_(j) binom(T-1-j, l) (M/2 + t)_l, l = T - 1 - j - p."""
    out = []
    for p in range(T):
        c = [0] * T
        for j in range(T - p):
            l = T - 1 - j - p
            if M is None and l:
                continue
            term = [(-1) ** j * math.comb(T - 1, j) * math.comb(T - 1 - j, l) * 2 ** (T - 1 - l)]
            for root in [-i for i in range(j)] + [M + 2 * i for i in range(l)]:
                term = [root * x + 2 * y for x, y in zip(term + [0], [0] + term)]   # (2t + root)
            c = [x + y for x, y in zip(c, term + [0] * T)]
        out.append(tuple(c))
    return tuple(out)


@lru_cache(maxsize=64)
def _newton_table(T: int, R: float, M: int | None) -> np.ndarray:
    """A[p, j] with delta_j(b) = sum_p A[p, j] b^p for the polynomials of
    :func:`coefficient_polynomial`; read-only. The values of the integer
    polynomials of :func:`_radial_terms` at t = 0..T-1 and their forward
    differences are exact, and each entry is rounded once.
    """
    table = np.zeros((T, T))
    for p, c in enumerate(_radial_terms(T, M)):
        values = [sum(x * t ** k for k, x in enumerate(c)) for t in range(T)]
        for j in range(T):
            diff = sum((-1) ** (j - i) * math.comb(j, i) * values[i] for i in range(j + 1))
            table[p, j] = diff / 2 ** (T - 1) / R ** (T - 1 - p)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _centered_table(T: int, M: int) -> np.ndarray:
    """E[i, k] with P(t) = R^(1-T) sum_{i,k} E[i, k] (R b - t)^i t^k for the
    radial P of :func:`coefficient_polynomial`, by (R b)^p = ((R b - t) + t)^p
    in :func:`_radial_terms`; read-only. Its leading part is (R b - t)^(T-1):
    the large powers of t cancel exactly, and each entry is rounded once."""
    table = [[0] * T for _ in range(T)]
    for p, c in enumerate(_radial_terms(T, M)):
        for i, k in itertools.product(range(p + 1), range(T)):
            if c[k]:
                table[i][p - i + k] += math.comb(p, i) * c[k]
    out = np.array(table, dtype=float) / 2 ** (T - 1)
    out.flags.writeable = False
    return out


def coefficient_polynomial(gen: GeneratorSpec, b: float, radial: bool = True
                           ) -> tuple[np.ndarray, np.ndarray]:
    """(delta, d delta / db): the forward differences delta_j = Delta^j P(0),
    j < T, of the polynomial P of degree at most T - 1 in the series degree t
    behind every series coefficient of ``gen``, so that
    P(t) = sum_j delta_j binom(t, j), and their derivatives in b.

    With ``radial``, P is that of the radial integral
    int_0^inf r^(M+2t-1) h^(2t)(r^2 + b) dr
    = e^(log_norm_const - R b) R^(t - M/2) Gamma(M/2 + t) P(t) / 2: the
    Leibniz and binomial double sum with Gamma(M/2 + t + l)
    = Gamma(M/2 + t) (M/2 + t)_l factored out, P(t) = sum_{j<T} (-1)^j
    binom(2t, j) (T-1)_(j) R^-j sum_{l<=T-1-j} binom(T-1-j, l) b^(T-1-j-l)
    R^-l (M/2 + t)_l. Without it, P is that of the derivatives
    h^(2t)(b) = e^(log_norm_const - R b) R^(2t) P(t), P(t) = sum_{j<T}
    (-1)^j binom(2t, j) (T-1)_(j) R^-j b^(T-1-j). P = 1 for the Gaussian.
    Each delta_j is a polynomial in b, cached per generator
    (:func:`_newton_table`).
    """
    if b < 0:
        raise DomainError(f"noncentrality b must be non-negative, got {b}")
    table = _newton_table(gen.T, gen.R, gen.M if radial else None)
    powers = b ** np.arange(len(table))
    return powers @ table, (np.arange(1, len(table)) * powers[:-1]) @ table[1:]


def binomial_basis(tmax: int, T: int) -> np.ndarray:
    """binom(t, j) for t = 0..tmax (rows) and j < T (columns), so that
    ``binomial_basis(tmax, T) @ delta`` evaluates the P(t) of
    :func:`coefficient_polynomial` on those degrees."""
    return np.array([[math.comb(t, j) for j in range(T)] for t in range(tmax + 1)], dtype=float)


@dataclass(frozen=True)
class ModelSpec:
    """Elliptical model: generator plus (Sigma, Theta, mu).

    ``mu`` is the location of the centered configuration Y = L X in the
    original (unwhitened) coordinates; the noncentrality
    Omega = Sigma^{-1} mu Theta^{-1} mu' is always recomputed from the fields.
    """

    generator: GeneratorSpec
    Sigma: np.ndarray       # (N-1) x (N-1) SPD
    Theta: np.ndarray       # K x K SPD
    mu: np.ndarray          # (N-1) x K

    def __post_init__(self):
        Sigma = np.array(self.Sigma, dtype=float)
        Theta = np.array(self.Theta, dtype=float)
        mu = np.array(self.mu, dtype=float)
        # omega and sigma_inv are cached; freezing the inputs keeps them honest
        for mat in (Sigma, Theta, mu):
            mat.setflags(write=False)
        object.__setattr__(self, "Sigma", Sigma)
        object.__setattr__(self, "Theta", Theta)
        object.__setattr__(self, "mu", mu)
        Nm1 = Sigma.shape[0]
        K = Theta.shape[0]
        if Sigma.shape != (Nm1, Nm1) or Theta.shape != (K, K):
            raise DomainError("Sigma and Theta must be square")
        if mu.shape != (Nm1, K):
            raise DomainError(f"mu must be (N-1) x K = ({Nm1}, {K}), got {mu.shape}")
        if Nm1 < K:
            raise DomainError(f"need N-1 >= K, got N-1={Nm1}, K={K}")
        if self.generator.M != Nm1 * K:
            raise DomainError(
                f"generator dimension M={self.generator.M} != (N-1)K={Nm1 * K}")
        for name, mat in (("Sigma", Sigma), ("Theta", Theta)):
            if not np.allclose(mat, mat.T, atol=1e-10 * max(1.0, float(np.abs(mat).max()))):
                raise DomainError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(mat).min() <= 0:
                raise DomainError(f"{name} must be positive definite")

    @property
    def Nm1(self) -> int:
        return self.Sigma.shape[0]

    @property
    def K(self) -> int:
        return self.Theta.shape[0]

    @property
    def n(self) -> int:
        return min(self.Nm1, self.K)

    @property
    def M(self) -> int:
        return self.Nm1 * self.K

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        return np.linalg.inv(self.Sigma)

    @cached_property
    def log_det_sigma(self) -> float:
        sign, logdet = np.linalg.slogdet(self.Sigma)
        return float(logdet)

    @cached_property
    def mu_whitened(self) -> np.ndarray:
        """mu Theta^{-1/2}: the location after column whitening."""
        return self.mu @ theta_inv_sqrt(self.Theta)

    @cached_property
    def omega(self) -> np.ndarray:
        """Noncentrality Omega = Sigma^{-1} mu Theta^{-1} mu'."""
        mw = self.mu_whitened
        return self.sigma_inv @ mw @ mw.T

    @property
    def trace_omega(self) -> float:
        return float(np.trace(self.omega))


def gaussian_model(Sigma, Theta, mu, R: float = 0.5) -> ModelSpec:
    mu = np.asarray(mu, dtype=float)
    gen = GeneratorSpec(GeneratorKind.GAUSSIAN, M=mu.shape[0] * mu.shape[1], R=R)
    return ModelSpec(gen, Sigma, Theta, mu)


def kotz_model(Sigma, Theta, mu, T: int, R: float = 0.5) -> ModelSpec:
    mu = np.asarray(mu, dtype=float)
    gen = GeneratorSpec(GeneratorKind.KOTZ_TYPE_I, M=mu.shape[0] * mu.shape[1], T=T, R=R)
    return ModelSpec(gen, Sigma, Theta, mu)
