"""Elliptical density generators, their derivatives, and radial integrals.

Supported generators: Gaussian and Kotz type I with integer shape T >= 1
(T = 1 with rate R = 1/2 is exactly the Gaussian). Integer T keeps every
derivative a finite polynomial-times-exponential, so the radial integrals
below have exact finite closed forms; a quadrature fallback serves as the
independent oracle for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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
    T: int = 1              # Kotz shape; Gaussian behaves as T = 1
    R: float = 0.5          # rate

    def __post_init__(self):
        if self.M < 1:
            raise DomainError(f"dimension M must be positive, got {self.M}")
        if self.R <= 0:
            raise DomainError(f"rate R must be positive, got {self.R}")
        if self.kind is GeneratorKind.KOTZ_TYPE_I:
            if self.T < 1 or self.T != int(self.T):
                raise DomainError(f"Kotz shape T must be a positive integer, got {self.T}")

    @property
    def effective_T(self) -> int:
        return 1 if self.kind is GeneratorKind.GAUSSIAN else int(self.T)

    @property
    def log_norm_const(self) -> float:
        """Log of the normalizing constant of h."""
        T, R, M = self.effective_T, self.R, self.M
        return ((T - 1 + M / 2.0) * math.log(R) + math.lgamma(M / 2.0)
                - M / 2.0 * math.log(math.pi) - math.lgamma(T - 1 + M / 2.0))


def h_log_value(gen: GeneratorSpec, y: float) -> LogSign:
    """Log-sign form of the generator value h(y)."""
    if y < 0:
        raise DomainError(f"generator argument must be non-negative, got {y}")
    T, R = gen.effective_T, gen.R
    if y == 0.0:
        if T > 1:
            return LogSign.zero()
        return LogSign(gen.log_norm_const, 1.0)
    return LogSign(gen.log_norm_const + (T - 1) * math.log(y) - R * y, 1.0)


def h_value(gen: GeneratorSpec, y: float) -> float:
    return h_log_value(gen, y).value


def _poly_fall(T: int, j: int) -> float:
    """prod_{i=0}^{j-1} (T - 1 - i); vanishes for j >= T."""
    out = 1.0
    for i in range(j):
        out *= T - 1 - i
    return out


def _sum_signed_log_terms(terms: list[tuple[float, float]], exact=None) -> LogSign:
    """Sum of terms given as (log magnitude, sign), watching for cancellation.

    Sums with fsum after scaling by the largest magnitude. If more than ~10
    digits cancel and an ``exact`` recomputation callback is given, defer to
    it (the finite Kotz sums can cancel exactly to zero, which double
    arithmetic cannot distinguish from noise).
    """
    finite = [(lg, sg) for lg, sg in terms if math.isfinite(lg) and sg != 0.0]
    if not finite:
        return LogSign.zero()
    shift = max(lg for lg, _ in finite)
    total = math.fsum(sg * math.exp(lg - shift) for lg, sg in finite)
    if abs(total) < 1e-10 and exact is not None:
        return exact()
    return LogSign.of(total).scale(shift)


def h_derivative_log(gen: GeneratorSpec, k: int, y: float) -> LogSign:
    """k-th derivative of h at y, in log-sign form.

    Uses the Leibniz expansion of d^k/dy^k [y^{T-1} e^{-Ry}], which is finite
    for integer T and regular at y = 0 (the printed 1/y factors of the
    product-rule form are removable).
    """
    if k < 0:
        raise DomainError(f"derivative order must be non-negative, got {k}")
    if y < 0:
        raise DomainError(f"generator argument must be non-negative, got {y}")
    T, R = gen.effective_T, gen.R
    if T == 1:
        base = h_log_value(gen, y)
        sign = -1.0 if k % 2 else 1.0
        return base.mul(LogSign(k * math.log(R), sign))
    terms = []
    for j in range(min(k, T - 1) + 1):
        p = _poly_fall(T, j)
        if p == 0.0:
            continue
        expo = T - 1 - j
        if y == 0.0 and expo > 0:
            continue
        log_y_pow = 0.0 if expo == 0 else expo * math.log(y)
        sign = (1.0 if (k - j) % 2 == 0 else -1.0) * math.copysign(1.0, p)
        log_mag = (math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1)
                   + math.log(abs(p)) + (k - j) * math.log(R) + log_y_pow)
        terms.append((log_mag, sign))
    # near a sign change of h^(k) the bracket cancels; absolute accuracy there
    # is eps times the leading term, which is all downstream sums need
    return _sum_signed_log_terms(terms).scale(gen.log_norm_const - R * y)


def h_derivative(gen: GeneratorSpec, k: int, y: float) -> float:
    return h_derivative_log(gen, k, y).value


def radial_integral(gen: GeneratorSpec, t: int, a: float, b: float,
                    m: int, n: int) -> LogSign:
    """Closed form of int_0^inf r^(m+n+2t-1) h^(2t)(r^2 a + b) dr.

    Gaussian: R^{M/2-(m+n)/2+t} / (2 pi^{M/2}) e^{-Rb} a^{-(m+n)/2-t}
    Gamma((m+n)/2 + t). Kotz integer T: the finite double sum obtained by
    expanding the Leibniz derivative and the binomial (r^2 a + b)^j; both are
    cross-validated against the quadrature oracle.
    """
    if t < 0:
        raise DomainError(f"series degree t must be non-negative, got {t}")
    if a <= 0:
        raise DomainError(f"radial scale a must be positive, got {a}")
    if b < 0:
        raise DomainError(f"noncentrality b must be non-negative, got {b}")
    if m + n < 1:
        raise DomainError(f"need m + n >= 1, got m={m}, n={n}")
    T, R, M = gen.effective_T, gen.R, gen.M
    q = m + n + 2 * t
    if T == 1:
        log = ((M / 2.0 - (m + n) / 2.0 + t) * math.log(R) - math.log(2.0)
               - M / 2.0 * math.log(math.pi) - R * b
               - ((m + n) / 2.0 + t) * math.log(a) + math.lgamma((m + n) / 2.0 + t))
        return LogSign(log, 1.0)
    k = 2 * t
    terms = []
    log_b = math.log(b) if b > 0 else -math.inf
    for j in range(min(k, T - 1) + 1):
        p = _poly_fall(T, j)
        if p == 0.0:
            continue
        jj = T - 1 - j
        sign_j = (1.0 if (k - j) % 2 == 0 else -1.0) * math.copysign(1.0, p)
        log_cj = (math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1)
                  + math.log(abs(p)) + (k - j) * math.log(R))
        for l in range(jj + 1):
            if b == 0.0 and l < jj:
                continue
            log_binom = math.lgamma(jj + 1) - math.lgamma(l + 1) - math.lgamma(jj - l + 1)
            log_term = (log_cj + log_binom + l * math.log(a)
                        + (jj - l) * (log_b if jj - l else 0.0)
                        - math.log(2.0) - (q / 2.0 + l) * (math.log(R) + math.log(a))
                        + math.lgamma(q / 2.0 + l))
            terms.append((log_term, sign_j))
    out = _sum_signed_log_terms(
        terms, exact=lambda: _kotz_radial_exact(T, R, t, a, b, q))
    return out.scale(gen.log_norm_const - R * b)


def radial_degree_differences(gen: GeneratorSpec, b: float) -> np.ndarray:
    """Forward differences Delta^j P(0), j = 0..T-1, of the polynomial P of
    degree at most T - 1 in t with

        radial_integral(gen, t, 1, b, M - 1, 1)
            = e^{log_norm_const - R b} R^{t - M/2} Gamma(M/2 + t) P(t) / 2,

    so that P(t) = sum_j Delta^j P(0) binom(t, j). P is the Leibniz and
    binomial double sum of :func:`radial_integral` with
    Gamma(M/2 + t + l) = Gamma(M/2 + t) (M/2 + t)_l factored out:
    P(t) = sum_{j<T} (-1)^j binom(2t, j) (T-1)_(j) R^{-j}
    sum_{l<=T-1-j} binom(T-1-j, l) b^{T-1-j-l} R^{-l} (M/2 + t)_l,
    and P = 1 for the Gaussian. P is built in powers of t, whose
    coefficients are sums of like-sized terms, and converted by
    Delta^j t^k (0) = j! S(k, j) (Stirling numbers of the second kind):
    differencing its values at t = 0..T-1 instead would cancel all but a
    few digits of the higher differences when b is large.
    """
    if b < 0:
        raise DomainError(f"noncentrality b must be non-negative, got {b}")
    T, R, half_m = gen.effective_T, gen.R, gen.M / 2.0
    power = np.zeros(T)                       # P(t) = sum_k power[k] t^k
    binom_2t = np.ones(1)                     # binom(2t, j) in powers of t
    for j in range(T):
        jj = T - 1 - j
        inner, rising = np.zeros(jj + 1), np.ones(1)   # rising: (M/2 + t)_l
        for l in range(jj + 1):
            inner[:l + 1] += math.comb(jj, l) * b ** (jj - l) / R ** l * rising
            rising = np.convolve(rising, [half_m + l, 1.0])
        term = (-1) ** j * _poly_fall(T, j) / R ** j * np.convolve(binom_2t, inner)
        power[:len(term)] += term
        binom_2t = np.convolve(binom_2t, [-j, 2.0]) / (j + 1)
    stirling = np.zeros((T, T))               # stirling[k, j] = S(k, j)
    stirling[0, 0] = 1.0
    for k in range(1, T):
        stirling[k, 1:] = np.arange(1, T) * stirling[k - 1, 1:] + stirling[k - 1, :-1]
    return np.array([math.factorial(j) for j in range(T)]) * (power @ stirling)


def _kotz_radial_exact(T: int, R: float, t: int, a: float, b: float, q: int) -> LogSign:
    """60-digit recomputation of the Kotz sum, for near-total cancellation."""
    import mpmath as mp
    k = 2 * t
    with mp.workdps(60):
        Rm, am, bm = mp.mpf(R), mp.mpf(a), mp.mpf(b)
        total = mp.mpf(0)
        for j in range(min(k, T - 1) + 1):
            p = _poly_fall(T, j)
            if p == 0.0:
                continue
            jj = T - 1 - j
            cj = mp.binomial(k, j) * p * (-Rm) ** (k - j)
            for l in range(jj + 1):
                if b == 0.0 and l < jj:
                    continue
                total += (cj * mp.binomial(jj, l) * am**l
                          * (bm ** (jj - l) if jj - l else 1)
                          * mp.mpf("0.5") * (Rm * am) ** (-(mp.mpf(q) / 2 + l))
                          * mp.gamma(mp.mpf(q) / 2 + l))
        if total == 0 or mp.fabs(total) < mp.mpf(10) ** -45 * mp.gamma(mp.mpf(q) / 2):
            return LogSign.zero()
        return LogSign(float(mp.log(mp.fabs(total))), 1.0 if total > 0 else -1.0)


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
